//! Jupiter-evolved direct-connect fabric: aggregation blocks joined through
//! an OCS layer, with no spine \[39\] (paper §4.1, §4.3).
//!
//! Each aggregation block is a small two-stage Clos (ToRs × middle
//! switches). Every middle-switch uplink terminates on an optical circuit
//! switch; the OCS layer then realizes a *logical* inter-block graph that
//! can be re-created at will ("topology engineering"). Links carried by the
//! OCS are marked [`crate::network::Link::via_ocs`], which is what the
//! cabling layer uses to route them physically via OCS racks and what makes
//! both expansion (§4.1) and the live spine-removal conversion (§4.3) cheap:
//! reconfiguration moves no fiber.
//!
//! [`DirectConnectFabric::reconfigure`] retargets the inter-block capacities to a demand matrix
//! using largest-remainder apportionment of each block's fixed uplink
//! budget — the toolkit's stand-in for Jupiter's traffic/topology
//! engineering.

use super::{finish, invalid, GenError};
use crate::network::{BlockId, Link, Network, SwitchId, SwitchRole};
use pd_geometry::Gbps;

/// Parameters for a direct-connect (spineless) fabric.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct DirectConnectParams {
    /// Number of aggregation blocks.
    pub blocks: usize,
    /// ToR switches per block.
    pub tors_per_block: usize,
    /// Middle (aggregation) switches per block.
    pub mids_per_block: usize,
    /// OCS-facing uplinks per middle switch.
    pub uplinks_per_mid: usize,
    /// Server downlinks per ToR.
    pub servers_per_tor: u16,
    /// Line rate of every port.
    pub link_speed: Gbps,
}

impl Default for DirectConnectParams {
    fn default() -> Self {
        Self {
            blocks: 8,
            tors_per_block: 4,
            mids_per_block: 4,
            uplinks_per_mid: 7,
            servers_per_tor: 16,
            link_speed: Gbps::new(100.0),
        }
    }
}

impl DirectConnectParams {
    /// Total OCS-facing uplinks per block.
    pub fn uplinks_per_block(&self) -> usize {
        self.mids_per_block * self.uplinks_per_mid
    }
}

/// A built direct-connect fabric plus the handles needed to reconfigure it.
#[derive(Debug, Clone)]
pub struct DirectConnectFabric {
    /// The network. Inter-block links are all `via_ocs`.
    pub network: Network,
    /// Block ids in construction order.
    pub block_ids: Vec<BlockId>,
    /// Middle switches per block, in construction order.
    pub mids: Vec<Vec<SwitchId>>,
    params: DirectConnectParams,
}

/// Builds a direct-connect fabric with a uniform inter-block mesh.
pub fn direct_connect(p: &DirectConnectParams) -> Result<DirectConnectFabric, GenError> {
    if p.blocks < 2 {
        return Err(invalid("blocks", "need at least 2 aggregation blocks"));
    }
    if p.tors_per_block == 0 || p.mids_per_block == 0 || p.uplinks_per_mid == 0 {
        return Err(invalid(
            "tors/mids/uplinks",
            "all per-block counts must be positive",
        ));
    }
    if p.uplinks_per_block() < p.blocks - 1 {
        return Err(invalid(
            "uplinks_per_mid",
            format!(
                "{} uplinks per block cannot reach all {} other blocks",
                p.uplinks_per_block(),
                p.blocks - 1
            ),
        ));
    }

    let mut net = Network::new(format!(
        "direct-connect(b={},t={},m={},u={})",
        p.blocks, p.tors_per_block, p.mids_per_block, p.uplinks_per_mid
    ));
    let mid_radix = (p.tors_per_block + p.uplinks_per_mid) as u16;
    let tor_radix = p.servers_per_tor + p.mids_per_block as u16;

    let mut block_ids = Vec::with_capacity(p.blocks);
    let mut mids: Vec<Vec<SwitchId>> = Vec::with_capacity(p.blocks);
    for b in 0..p.blocks {
        let block = net.new_block();
        block_ids.push(block);
        let mid_ids: Vec<SwitchId> = (0..p.mids_per_block)
            .map(|m| {
                net.add_switch(
                    format!("b{b}-mid{m}"),
                    SwitchRole::Aggregation,
                    1,
                    mid_radix,
                    p.link_speed,
                    0,
                    Some(block),
                )
            })
            .collect();
        for t in 0..p.tors_per_block {
            let tor = net.add_switch(
                format!("b{b}-tor{t}"),
                SwitchRole::Tor,
                0,
                tor_radix,
                p.link_speed,
                p.servers_per_tor,
                Some(block),
            );
            for &m in &mid_ids {
                net.add_link(tor, m, p.link_speed, 1, false)
                    .expect("exists");
            }
        }
        mids.push(mid_ids);
    }

    let mut fabric = DirectConnectFabric {
        network: net,
        block_ids,
        mids,
        params: p.clone(),
    };
    let uniform = vec![vec![1.0; p.blocks]; p.blocks];
    fabric.reconfigure(&uniform)?;
    fabric.network = finish(std::mem::take(&mut fabric.network))?;
    Ok(fabric)
}

impl DirectConnectFabric {
    /// Each switch's block index (into `block_ids`), by switch id.
    fn block_index(&self) -> Vec<Option<usize>> {
        let ids = self.network.switches().map(|s| s.id.0 as usize + 1).max();
        let mut index = vec![None; ids.unwrap_or(0)];
        for s in self.network.switches() {
            index[s.id.0 as usize] = s
                .block
                .and_then(|blk| self.block_ids.iter().position(|&x| x == blk));
        }
        index
    }

    /// Current inter-block link counts.
    pub fn interblock_matrix(&self) -> Vec<Vec<usize>> {
        let b = self.block_ids.len();
        let mut m = vec![vec![0usize; b]; b];
        let index = self.block_index();
        let block_of = |s: SwitchId| index[s.0 as usize].expect("has a known block");
        for l in self.network.links().filter(|l| l.via_ocs) {
            let (i, j) = (block_of(l.a), block_of(l.b));
            m[i][j] += 1;
            m[j][i] += 1;
        }
        m
    }

    /// Reconfigures the OCS layer to apportion each block's uplink budget
    /// across other blocks proportionally to `demand[i][j]` (symmetrized),
    /// with at least one link per pair where demand is positive if the
    /// budget allows. Returns the number of logical links changed (the
    /// "rewires" — which for an OCS cost a reconfiguration, not a cable
    /// move).
    pub fn reconfigure(&mut self, demand: &[Vec<f64>]) -> Result<usize, GenError> {
        let b = self.block_ids.len();
        if demand.len() != b || demand.iter().any(|r| r.len() != b) {
            return Err(invalid("demand", format!("matrix must be {b}×{b}")));
        }
        // Symmetrize demand and compute target link counts per pair via
        // largest-remainder apportionment of the total pair budget.
        let budget_per_block = self.params.uplinks_per_block();
        // Total links available = blocks × budget / 2 (each link uses one
        // uplink at both ends).
        let total_links = b * budget_per_block / 2;
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        let mut demand_sum = 0.0;
        for (i, row) in demand.iter().enumerate() {
            for (j, other) in demand.iter().enumerate().skip(i + 1) {
                let d = (row[j] + other[i]).max(0.0);
                pairs.push((i, j, d));
                demand_sum += d;
            }
        }
        if demand_sum <= 0.0 {
            return Err(invalid("demand", "must have positive total demand"));
        }

        // Every pair first gets one link regardless of demand — direct
        // connectivity between all block pairs is what keeps the spineless
        // fabric one routing domain (and what Jupiter's topology engineering
        // preserves). The remaining budget is apportioned to demand.
        let mut target: Vec<usize> = Vec::with_capacity(pairs.len());
        let mut frac: Vec<(f64, usize)> = Vec::with_capacity(pairs.len());
        let mut used = vec![0usize; b];
        let mut assigned = 0usize;
        for &(i, j, _) in &pairs {
            debug_assert!(used[i] < budget_per_block && used[j] < budget_per_block);
            target.push(1);
            used[i] += 1;
            used[j] += 1;
            assigned += 1;
        }
        let extra_links = total_links.saturating_sub(assigned);
        for (idx, &(i, j, d)) in pairs.iter().enumerate() {
            let ideal = d / demand_sum * extra_links as f64;
            let fl = (ideal.floor() as usize)
                .min(budget_per_block - used[i])
                .min(budget_per_block - used[j]);
            target[idx] += fl;
            used[i] += fl;
            used[j] += fl;
            assigned += fl;
            frac.push((ideal - ideal.floor(), idx));
        }
        frac.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut rest = total_links.saturating_sub(assigned);
        // Repeated passes: keep topping up pairs with remaining budget.
        while rest > 0 {
            let mut progressed = false;
            for &(_, idx) in &frac {
                if rest == 0 {
                    break;
                }
                let (i, j, d) = pairs[idx];
                if d <= 0.0 {
                    continue;
                }
                if used[i] < budget_per_block && used[j] < budget_per_block {
                    target[idx] += 1;
                    used[i] += 1;
                    used[j] += 1;
                    rest -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break; // budgets exhausted (odd leftovers stay unused)
            }
        }

        // Diff against current links and rewire. All removals happen before
        // any additions: on a full fabric every uplink port is in use, so
        // additions only have free ports once the removals release them
        // (exactly how a real OCS reconfiguration sequences drains).
        let current = self.interblock_matrix();
        let mut tally = Tally::new(self);
        let mut changed = 0usize;
        for (idx, &(i, j, _)) in pairs.iter().enumerate() {
            let (want, have) = (target[idx], current[i][j]);
            if have > want {
                changed += self.remove_pair_links(&mut tally, i, j, have - want);
            }
        }
        for (idx, &(i, j, _)) in pairs.iter().enumerate() {
            let (want, have) = (target[idx], current[i][j]);
            if want > have {
                changed += self.add_pair_links(&mut tally, i, j, want - have);
            }
        }
        Ok(changed)
    }

    /// Removes up to `count` OCS links between block indices `i` and `j`,
    /// always taking from the middle switch currently holding the *most*
    /// links to the pair — keeping the survivors spread across mids.
    fn remove_pair_links(&mut self, tally: &mut Tally, i: usize, j: usize, count: usize) -> usize {
        let mut removed = 0;
        for _ in 0..count {
            let victim = self.mids[i]
                .iter()
                .copied()
                .filter(|&m| tally.links_to(m, j) > 0)
                // Most links to this pair, then most total uplinks in use
                // (fewest free ports) — so survivors stay spread across
                // mids both per-pair and overall.
                .max_by_key(|&m| (tally.links_to(m, j), u32::MAX - tally.ports_free(m)))
                .and_then(|m| {
                    self.network.incident_links(m).iter().copied().find(|&l| {
                        self.network.link(l).is_some_and(|l| {
                            l.via_ocs && tally.block[l.other(m).0 as usize] == Some(j)
                        })
                    })
                });
            match victim {
                Some(l) => {
                    let link = self.network.remove_link(l).expect("found above");
                    tally.count(&link, -1);
                    removed += 1;
                }
                None => break,
            }
        }
        removed
    }

    /// Adds `count` OCS links between blocks `i` and `j`.
    ///
    /// Each end picks the middle switch with the *fewest links to this
    /// specific pair* (ties → most free ports). Per-pair balance matters
    /// for ECMP: if one mid hoarded a pair's links, it would be the only
    /// shortest-path next hop and its ToR uplinks would bottleneck — a
    /// physical-placement artifact throttling an abstractly-fine topology.
    fn add_pair_links(&mut self, tally: &mut Tally, i: usize, j: usize, count: usize) -> usize {
        let mut added = 0;
        for _ in 0..count {
            let pick = |block: usize, other: usize| -> Option<SwitchId> {
                self.mids[block]
                    .iter()
                    .copied()
                    .filter(|&m| tally.ports_free(m) > 0)
                    .min_by_key(|&m| {
                        (
                            tally.links_to(m, other),
                            usize::MAX - tally.ports_free(m) as usize,
                        )
                    })
            };
            let (Some(ma), Some(mb)) = (pick(i, j), pick(j, i)) else {
                break;
            };
            let id = self
                .network
                .add_link(ma, mb, self.params.link_speed, 1, true)
                .expect("endpoints exist");
            tally.count(self.network.link(id).expect("just added"), 1);
            added += 1;
        }
        added
    }
}

/// What [`DirectConnectFabric::reconfigure`] picks middle switches by, kept
/// current as it rewires instead of re-read from the network: per switch,
/// its block, its ports and, per block, its OCS links there. All by switch
/// id.
struct Tally {
    /// Block index of each switch.
    block: Vec<Option<usize>>,
    blocks: usize,
    /// `links[s * blocks + j]`: switch `s`'s OCS links to block `j`.
    links: Vec<usize>,
    /// Ports in use, and ports, of each switch.
    used: Vec<u32>,
    radix: Vec<u32>,
}

impl Tally {
    fn new(f: &DirectConnectFabric) -> Self {
        let block = f.block_index();
        let (ids, blocks) = (block.len(), f.block_ids.len());
        let mut tally = Self {
            block,
            blocks,
            links: vec![0; ids * blocks],
            used: vec![0; ids],
            radix: vec![0; ids],
        };
        for s in f.network.switches() {
            tally.used[s.id.0 as usize] = u32::from(s.server_ports);
            tally.radix[s.id.0 as usize] = u32::from(s.radix);
        }
        for l in f.network.links() {
            tally.count(l, 1);
        }
        tally
    }

    fn links_to(&self, m: SwitchId, j: usize) -> usize {
        self.links[m.0 as usize * self.blocks + j]
    }

    /// [`Network::ports_free`].
    fn ports_free(&self, m: SwitchId) -> u32 {
        self.radix[m.0 as usize].saturating_sub(self.used[m.0 as usize])
    }

    /// Counts a link added (`sign` 1) or removed (-1): its ports at both
    /// ends ([`Network::ports_used`]) and, if it is an OCS link, each end's
    /// links to the other's block.
    fn count(&mut self, l: &Link, sign: i32) {
        for (end, other) in [(l.a, l.b), (l.b, l.a)] {
            let used = &mut self.used[end.0 as usize];
            *used = used.wrapping_add_signed(sign * i32::from(l.trunking));
            if let Some(j) = self.block[other.0 as usize].filter(|_| l.via_ocs) {
                let at = end.0 as usize * self.blocks + j;
                self.links[at] = self.links[at].wrapping_add_signed(sign as isize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fabric_structure() {
        let p = DirectConnectParams::default();
        let f = direct_connect(&p).unwrap();
        let n = &f.network;
        assert_eq!(n.switch_count(), 8 * (4 + 4));
        assert!(n.is_connected());
        assert!(n.validate().is_ok());
        // All inter-block links go via OCS; all intra-block do not.
        for l in n.links() {
            let ba = n.switch(l.a).unwrap().block;
            let bb = n.switch(l.b).unwrap().block;
            assert_eq!(l.via_ocs, ba != bb);
        }
        // Uniform matrix: every pair gets at least floor(total/pairs).
        let m = f.interblock_matrix();
        for (i, row) in m.iter().enumerate() {
            for (j, &links) in row.iter().enumerate() {
                if i != j {
                    assert!(links >= 3, "pair ({i},{j}) has {links} links");
                }
            }
        }
    }

    #[test]
    fn block_budget_respected() {
        let p = DirectConnectParams::default();
        let f = direct_connect(&p).unwrap();
        let m = f.interblock_matrix();
        for (i, row) in m.iter().enumerate() {
            let used: usize = row.iter().sum();
            assert!(used <= p.uplinks_per_block(), "block {i} uses {used}");
        }
    }

    #[test]
    fn reconfigure_follows_demand_skew() {
        let p = DirectConnectParams::default();
        let mut f = direct_connect(&p).unwrap();
        // Blocks 0 and 1 exchange 10× the traffic of everyone else.
        let mut demand = vec![vec![1.0; 8]; 8];
        demand[0][1] = 50.0;
        demand[1][0] = 50.0;
        let changed = f.reconfigure(&demand).unwrap();
        assert!(changed > 0);
        let m = f.interblock_matrix();
        let hot = m[0][1];
        let typical = m[2][3];
        assert!(
            hot > typical,
            "hot pair should get more capacity: hot={hot} typical={typical}"
        );
        assert!(f.network.validate().is_ok());
        assert!(f.network.is_connected());
    }

    #[test]
    fn reconfigure_to_same_demand_is_noop() {
        let p = DirectConnectParams::default();
        let mut f = direct_connect(&p).unwrap();
        let uniform = vec![vec![1.0; 8]; 8];
        let changed = f.reconfigure(&uniform).unwrap();
        assert_eq!(changed, 0);
    }

    /// Every link's `(id, a, b, via_ocs)`, in the network's link order, at
    /// 256, 1024 and 4096 servers, sized as `pd_core::compare` sizes them,
    /// and after a skewed reconfiguration.
    #[test]
    fn generated_links_are_pinned() {
        let digest = |net: &Network| {
            let mut bytes = Vec::new();
            for l in net.links() {
                for v in [u64::from(l.id.0), u64::from(l.a.0), u64::from(l.b.0)] {
                    bytes.extend(v.to_le_bytes());
                }
                bytes.push(u8::from(l.via_ocs));
            }
            crate::gen::cache_key(&bytes)
        };
        let mut digests: Vec<u64> = [256usize, 1024, 4096]
            .into_iter()
            .map(|servers| {
                let blocks = servers.div_ceil(64).max(2);
                let f = direct_connect(&DirectConnectParams {
                    blocks,
                    tors_per_block: 4,
                    mids_per_block: 4,
                    uplinks_per_mid: (blocks - 1).div_ceil(4).max(4),
                    servers_per_tor: 16,
                    link_speed: Gbps::new(100.0),
                })
                .unwrap();
                digest(&f.network)
            })
            .collect();
        // A skewed reconfiguration removes links as well as adding them.
        let mut f = direct_connect(&DirectConnectParams::default()).unwrap();
        let mut demand = vec![vec![1.0; 8]; 8];
        demand[0][1] = 50.0;
        demand[1][0] = 50.0;
        demand[2][5] = 9.0;
        let changed = f.reconfigure(&demand).unwrap();
        digests.push(digest(&f.network));
        assert_eq!(changed, 72);
        assert_eq!(
            digests,
            [
                0xfb8a_2a9d_d600_449b,
                0x9104_5232_df9d_5b8d,
                0x2e3f_b2fd_ffa9_b7e1,
                0x0bca_b975_e9d0_c427
            ],
            "{digests:#x?}"
        );
    }

    #[test]
    fn insufficient_uplinks_rejected() {
        let p = DirectConnectParams {
            blocks: 30,
            mids_per_block: 1,
            uplinks_per_mid: 4,
            ..DirectConnectParams::default()
        };
        assert!(direct_connect(&p).is_err());
    }

    #[test]
    fn bad_demand_matrix_rejected() {
        let p = DirectConnectParams::default();
        let mut f = direct_connect(&p).unwrap();
        assert!(f.reconfigure(&vec![vec![1.0; 3]; 3]).is_err());
        assert!(f.reconfigure(&vec![vec![0.0; 8]; 8]).is_err());
    }
}
