//! The core network model: switches, links, blocks.
//!
//! Design notes:
//!
//! * **Stable integer ids.** Physical processes (placement, cabling, repair,
//!   decom) need identities that survive graph mutation; we never reuse a
//!   removed link's id.
//! * **Ports are budgeted, not modeled individually.** A switch has a radix;
//!   links and server downlinks consume ports. Individual port objects only
//!   appear in the digital twin, which is where per-port state (in service /
//!   drained / planned) matters.
//! * **Blocks** group switches into deployment units (a Clos pod, an
//!   aggregation block, an Xpander metanode). Placement maps blocks onto
//!   racks; lifecycle operations (drain, expansion) work block-wise.
//! * Links may be marked [`Link::via_ocs`]: logically direct, but physically
//!   routed through an optical-circuit-switch or patch-panel layer (paper
//!   §4.1's indirection).

use pd_geometry::Gbps;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a switch; stable across removals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u32);

/// Identifier of a link; never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Identifier of a deployment block (pod / aggregation block / metanode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}
impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ln{}", self.0)
    }
}
impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// The role a switch plays; drives placement and lifecycle policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchRole {
    /// Top-of-rack switch with server downlinks.
    Tor,
    /// Aggregation / leaf-layer switch.
    Aggregation,
    /// Spine / core switch.
    Spine,
    /// A switch in a flat (single-layer) topology — Jellyfish, Xpander,
    /// Slim Fly, flattened butterfly — that both hosts servers and carries
    /// transit traffic.
    FlatTor,
}

impl SwitchRole {
    /// Human-readable short name.
    pub fn short(&self) -> &'static str {
        match self {
            SwitchRole::Tor => "tor",
            SwitchRole::Aggregation => "agg",
            SwitchRole::Spine => "spine",
            SwitchRole::FlatTor => "flat",
        }
    }
}

/// A switch in the abstract network.
#[derive(Debug, Clone, PartialEq)]
pub struct Switch {
    /// Stable identifier.
    pub id: SwitchId,
    /// Human-readable name, unique within the network.
    pub name: String,
    /// Role in the topology.
    pub role: SwitchRole,
    /// Layer index: 0 = ToR/flat, 1 = aggregation, 2 = spine/core.
    pub layer: u8,
    /// Total port count.
    pub radix: u16,
    /// Per-port line rate.
    pub port_speed: Gbps,
    /// Ports reserved for server downlinks (only meaningful for
    /// [`SwitchRole::Tor`] / [`SwitchRole::FlatTor`]).
    pub server_ports: u16,
    /// Deployment block this switch belongs to.
    pub block: Option<BlockId>,
}

/// An undirected link between two switches.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Stable identifier.
    pub id: LinkId,
    /// One endpoint.
    pub a: SwitchId,
    /// The other endpoint.
    pub b: SwitchId,
    /// Line rate of the link.
    pub speed: Gbps,
    /// Number of parallel physical cables aggregated into this logical link.
    pub trunking: u16,
    /// True if the link is physically mediated by a patch-panel/OCS layer
    /// (paper §4.1): both ends cable to the indirection layer instead of to
    /// each other.
    pub via_ocs: bool,
}

impl Link {
    /// The endpoint opposite `s`.
    ///
    /// # Panics
    /// Panics if `s` is not an endpoint of this link.
    pub fn other(&self, s: SwitchId) -> SwitchId {
        match self.try_other(s) {
            Some(o) => o,
            None => panic!("{s} is not an endpoint of {}", self.id),
        }
    }

    /// The endpoint opposite `s`, or `None` if `s` is not an endpoint —
    /// the total form of [`Link::other`] for callers traversing
    /// user-supplied (possibly inconsistent) networks.
    pub fn try_other(&self, s: SwitchId) -> Option<SwitchId> {
        if s == self.a {
            Some(self.b)
        } else if s == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Total capacity of the (possibly trunked) link.
    pub fn capacity(&self) -> Gbps {
        self.speed * f64::from(self.trunking)
    }
}

/// Errors from network construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A link would connect a switch to itself.
    SelfLoop(SwitchId),
    /// A switch id is unknown.
    UnknownSwitch(SwitchId),
    /// A link id is unknown.
    UnknownLink(LinkId),
    /// A switch's ports are over-subscribed: used exceeds radix.
    PortOverflow {
        /// The over-subscribed switch.
        switch: SwitchId,
        /// Ports consumed by links + server downlinks.
        used: u32,
        /// The switch's radix.
        radix: u16,
    },
    /// Two switches share a name.
    DuplicateName(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::SelfLoop(s) => write!(f, "self-loop on {s}"),
            NetworkError::UnknownSwitch(s) => write!(f, "unknown switch {s}"),
            NetworkError::UnknownLink(l) => write!(f, "unknown link {l}"),
            NetworkError::PortOverflow {
                switch,
                used,
                radix,
            } => {
                write!(f, "{switch} uses {used} ports but has radix {radix}")
            }
            NetworkError::DuplicateName(n) => write!(f, "duplicate switch name {n:?}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The abstract network: a multigraph of switches and links.
#[derive(Clone, Default)]
pub struct Network {
    /// Short name of the topology family + parameters, e.g. `"fat-tree(k=8)"`.
    pub label: String,
    switches: Vec<Switch>,
    /// Map from switch id to index in `switches` (ids are stable; indices
    /// are not exposed).
    switch_index: HashMap<SwitchId, usize>,
    links: Vec<Link>,
    link_index: HashMap<LinkId, usize>,
    /// Adjacency: switch id -> incident link ids.
    incident: HashMap<SwitchId, Vec<LinkId>>,
    next_switch: u32,
    next_link: u32,
    next_block: u32,
}

/// Prints the switches and links, not the id maps derived from them,
/// which are `HashMap`s and would print in per-instance order: two equal
/// networks print the same text.
impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self {
            label,
            switches,
            switch_index: _,
            links,
            link_index: _,
            incident: _,
            next_switch,
            next_link,
            next_block,
        } = self;
        f.debug_struct("Network")
            .field("label", label)
            .field("switches", switches)
            .field("links", links)
            .field("next_switch", next_switch)
            .field("next_link", next_link)
            .field("next_block", next_block)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Creates an empty network with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            ..Self::default()
        }
    }

    /// Allocates a fresh block id.
    pub fn new_block(&mut self) -> BlockId {
        let b = BlockId(self.next_block);
        self.next_block += 1;
        b
    }

    /// Adds a switch and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn add_switch(
        &mut self,
        name: impl Into<String>,
        role: SwitchRole,
        layer: u8,
        radix: u16,
        port_speed: Gbps,
        server_ports: u16,
        block: Option<BlockId>,
    ) -> SwitchId {
        let id = SwitchId(self.next_switch);
        self.next_switch += 1;
        self.switch_index.insert(id, self.switches.len());
        self.switches.push(Switch {
            id,
            name: name.into(),
            role,
            layer,
            radix,
            port_speed,
            server_ports,
            block,
        });
        self.incident.insert(id, Vec::new());
        id
    }

    /// Adds an undirected link, returning its id.
    pub fn add_link(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        speed: Gbps,
        trunking: u16,
        via_ocs: bool,
    ) -> Result<LinkId, NetworkError> {
        if a == b {
            return Err(NetworkError::SelfLoop(a));
        }
        if !self.switch_index.contains_key(&a) {
            return Err(NetworkError::UnknownSwitch(a));
        }
        if !self.switch_index.contains_key(&b) {
            return Err(NetworkError::UnknownSwitch(b));
        }
        let id = LinkId(self.next_link);
        self.next_link += 1;
        self.link_index.insert(id, self.links.len());
        self.links.push(Link {
            id,
            a,
            b,
            speed,
            trunking,
            via_ocs,
        });
        self.incident.get_mut(&a).expect("checked above").push(id);
        self.incident.get_mut(&b).expect("checked above").push(id);
        Ok(id)
    }

    /// Removes a link (e.g. during rewiring or decom).
    pub fn remove_link(&mut self, id: LinkId) -> Result<Link, NetworkError> {
        let idx = *self
            .link_index
            .get(&id)
            .ok_or(NetworkError::UnknownLink(id))?;
        let link = self.links.swap_remove(idx);
        self.link_index.remove(&id);
        if let Some(moved) = self.links.get(idx) {
            self.link_index.insert(moved.id, idx);
        }
        for end in [link.a, link.b] {
            if let Some(v) = self.incident.get_mut(&end) {
                v.retain(|&l| l != id);
            }
        }
        Ok(link)
    }

    /// All switches, in insertion order (stable under link mutation).
    pub fn switches(&self) -> impl Iterator<Item = &Switch> {
        self.switches.iter()
    }

    /// All links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Looks up a switch by id.
    pub fn switch(&self, id: SwitchId) -> Option<&Switch> {
        self.switch_index.get(&id).map(|&i| &self.switches[i])
    }

    /// Looks up a link by id.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.link_index.get(&id).map(|&i| &self.links[i])
    }

    /// Link ids incident to a switch.
    pub fn incident_links(&self, id: SwitchId) -> &[LinkId] {
        self.incident.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Neighbor switch ids (with multiplicity for parallel links).
    pub fn neighbors(&self, id: SwitchId) -> impl Iterator<Item = SwitchId> + '_ {
        self.incident_links(id)
            .iter()
            .filter_map(move |l| self.link(*l).and_then(|l| l.try_other(id)))
    }

    /// Ports consumed on a switch: incident link trunking + server downlinks.
    pub fn ports_used(&self, id: SwitchId) -> u32 {
        let links: u32 = self
            .incident_links(id)
            .iter()
            .filter_map(|l| self.link(*l))
            .map(|l| u32::from(l.trunking))
            .sum();
        links
            + self
                .switch(id)
                .map(|s| u32::from(s.server_ports))
                .unwrap_or(0)
    }

    /// Free ports on a switch (saturating at zero).
    pub fn ports_free(&self, id: SwitchId) -> u32 {
        let s = match self.switch(id) {
            Some(s) => s,
            None => return 0,
        };
        u32::from(s.radix).saturating_sub(self.ports_used(id))
    }

    /// Total server-facing ports across the network (the paper's normalizer:
    /// compare designs at equal server count).
    pub fn server_count(&self) -> u32 {
        self.switches
            .iter()
            .map(|s| u32::from(s.server_ports))
            .sum()
    }

    /// All switches in a block.
    pub fn block_members(&self, block: BlockId) -> Vec<SwitchId> {
        self.switches
            .iter()
            .filter(|s| s.block == Some(block))
            .map(|s| s.id)
            .collect()
    }

    /// All distinct blocks present.
    pub fn blocks(&self) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self
            .switches
            .iter()
            .filter_map(|s| s.block)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        v.sort();
        v
    }

    /// The distinct radixes present (paper §5.4 "diversity-support").
    pub fn distinct_radixes(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self
            .switches
            .iter()
            .map(|s| s.radix)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        v.sort_unstable();
        v
    }

    /// The distinct link speeds present.
    pub fn distinct_speeds(&self) -> Vec<Gbps> {
        let mut v: Vec<f64> = self.links.iter().map(|l| l.speed.value()).collect();
        v.sort_by(f64::total_cmp);
        v.dedup();
        v.into_iter().map(Gbps::new).collect()
    }

    /// Validates structural invariants: every link joins two known
    /// switches, port budgets hold and names are unique.
    pub fn validate(&self) -> Result<(), NetworkError> {
        for l in &self.links {
            if let Some(&s) = [l.a, l.b].iter().find(|&&s| self.switch(s).is_none()) {
                return Err(NetworkError::UnknownSwitch(s));
            }
        }
        let mut names = std::collections::HashSet::new();
        for s in &self.switches {
            if !names.insert(s.name.as_str()) {
                return Err(NetworkError::DuplicateName(s.name.clone()));
            }
            let used = self.ports_used(s.id);
            if used > u32::from(s.radix) {
                return Err(NetworkError::PortOverflow {
                    switch: s.id,
                    used,
                    radix: s.radix,
                });
            }
        }
        Ok(())
    }

    /// True if the network is connected (ignoring isolated switch-less case).
    pub fn is_connected(&self) -> bool {
        let Some(first) = self.switches.first() else {
            return true;
        };
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![first.id];
        seen.insert(first.id);
        while let Some(s) = stack.pop() {
            for n in self.neighbors(s) {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen.len() == self.switches.len()
    }

    /// Degree (number of incident links, counting trunks once) of a switch.
    pub fn degree(&self, id: SwitchId) -> usize {
        self.incident_links(id).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Network, SwitchId, SwitchId, SwitchId) {
        let mut n = Network::new("tiny");
        let a = n.add_switch("a", SwitchRole::Tor, 0, 4, Gbps::new(100.0), 2, None);
        let b = n.add_switch("b", SwitchRole::Spine, 2, 4, Gbps::new(100.0), 0, None);
        let c = n.add_switch("c", SwitchRole::Spine, 2, 4, Gbps::new(100.0), 0, None);
        (n, a, b, c)
    }

    #[test]
    fn add_and_query_links() {
        let (mut n, a, b, c) = tiny();
        let l1 = n.add_link(a, b, Gbps::new(100.0), 1, false).unwrap();
        let l2 = n.add_link(a, c, Gbps::new(100.0), 1, true).unwrap();
        assert_eq!(n.link_count(), 2);
        assert_eq!(n.link(l1).unwrap().other(a), b);
        assert!(n.link(l2).unwrap().via_ocs);
        assert_eq!(n.neighbors(a).count(), 2);
    }

    #[test]
    fn try_other_is_total() {
        let (mut n, a, b, c) = tiny();
        let l = n.add_link(a, b, Gbps::new(100.0), 1, false).unwrap();
        let link = n.link(l).unwrap();
        assert_eq!(link.try_other(a), Some(b));
        assert_eq!(link.try_other(b), Some(a));
        // A non-endpoint yields None instead of the panic `other` raises.
        assert_eq!(link.try_other(c), None);
    }

    #[test]
    fn self_loop_rejected() {
        let (mut n, a, _, _) = tiny();
        assert_eq!(
            n.add_link(a, a, Gbps::new(100.0), 1, false),
            Err(NetworkError::SelfLoop(a))
        );
    }

    #[test]
    fn port_budget_accounting() {
        let (mut n, a, b, _) = tiny();
        n.add_link(a, b, Gbps::new(100.0), 2, false).unwrap();
        // a: 2 trunked + 2 server ports = 4 of 4.
        assert_eq!(n.ports_used(a), 4);
        assert_eq!(n.ports_free(a), 0);
        assert_eq!(n.ports_free(b), 2);
        assert!(n.validate().is_ok());
        // One more link overflows a.
        n.add_link(a, b, Gbps::new(100.0), 1, false).unwrap();
        assert!(matches!(
            n.validate(),
            Err(NetworkError::PortOverflow { switch, used: 5, radix: 4 }) if switch == a
        ));
    }

    #[test]
    fn remove_link_updates_adjacency_and_ids_stay_stable() {
        let (mut n, a, b, c) = tiny();
        let l1 = n.add_link(a, b, Gbps::new(100.0), 1, false).unwrap();
        let l2 = n.add_link(a, c, Gbps::new(100.0), 1, false).unwrap();
        n.remove_link(l1).unwrap();
        assert_eq!(n.link_count(), 1);
        assert!(n.link(l1).is_none());
        assert!(n.link(l2).is_some());
        assert_eq!(n.incident_links(b).len(), 0);
        // New links never reuse the removed id.
        let l3 = n.add_link(a, b, Gbps::new(100.0), 1, false).unwrap();
        assert_ne!(l3, l1);
    }

    #[test]
    fn connectivity() {
        let (mut n, a, b, c) = tiny();
        assert!(!n.is_connected());
        n.add_link(a, b, Gbps::new(100.0), 1, false).unwrap();
        assert!(!n.is_connected());
        n.add_link(b, c, Gbps::new(100.0), 1, false).unwrap();
        assert!(n.is_connected());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = Network::new("dup");
        n.add_switch("x", SwitchRole::Tor, 0, 4, Gbps::new(100.0), 0, None);
        n.add_switch("x", SwitchRole::Tor, 0, 4, Gbps::new(100.0), 0, None);
        assert_eq!(n.validate(), Err(NetworkError::DuplicateName("x".into())));
    }

    #[test]
    fn link_to_unknown_switch_rejected() {
        // `add_link` refuses unknown endpoints, so plant the bad link
        // directly: here it names a switch the network does not have.
        let (mut n, a, _, _) = tiny();
        let ghost = SwitchId(99);
        n.links.push(Link {
            id: LinkId(0),
            a,
            b: ghost,
            speed: Gbps::new(100.0),
            trunking: 1,
            via_ocs: false,
        });
        assert_eq!(n.validate(), Err(NetworkError::UnknownSwitch(ghost)));
    }

    #[test]
    fn blocks_and_diversity() {
        let mut n = Network::new("blocks");
        let b0 = n.new_block();
        let b1 = n.new_block();
        let s0 = n.add_switch("s0", SwitchRole::Tor, 0, 32, Gbps::new(100.0), 16, Some(b0));
        n.add_switch("s1", SwitchRole::Tor, 0, 64, Gbps::new(400.0), 32, Some(b1));
        assert_eq!(n.blocks(), vec![b0, b1]);
        assert_eq!(n.block_members(b0), vec![s0]);
        assert_eq!(n.distinct_radixes(), vec![32, 64]);
        assert_eq!(n.server_count(), 48);
        assert_eq!(n.distinct_speeds().len(), 0); // speeds come from links
    }
}
