//! FatClique-style hierarchical clique topology \[55\].
//!
//! The FatClique paper (whose lifecycle-management metrics this toolkit
//! adopts, paper §5.4) composes cliques at three levels: switches form
//! *sub-cliques*, sub-cliques form *cliques*, cliques form the network. Each
//! switch spends some ports inside its sub-clique, some connecting its
//! sub-clique to the other sub-cliques of its clique, and some connecting
//! its clique to other cliques.
//!
//! We implement the two upper levels with uniform port budgets (a documented
//! simplification — the original allows uneven spreads): within a sub-clique
//! all switches are fully meshed; each (sub-clique, other-sub-clique) pair in
//! a clique is connected by one link per switch; each (clique, other-clique)
//! pair is connected by `inter_clique_links` links spread round-robin over
//! the clique's switches.

use super::{finish, invalid, GenError};
use crate::network::{Network, SwitchId, SwitchRole};
use pd_geometry::Gbps;

/// Parameters for a FatClique-style network.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct FatCliqueParams {
    /// Switches per sub-clique.
    pub subclique_size: usize,
    /// Sub-cliques per clique.
    pub subcliques_per_clique: usize,
    /// Number of cliques.
    pub cliques: usize,
    /// Inter-clique links per (clique, clique) pair.
    pub inter_clique_links: usize,
    /// Server downlinks per switch.
    pub servers_per_tor: u16,
    /// Line rate of every port.
    pub link_speed: Gbps,
}

impl Default for FatCliqueParams {
    fn default() -> Self {
        Self {
            subclique_size: 4,
            subcliques_per_clique: 4,
            cliques: 4,
            inter_clique_links: 8,
            servers_per_tor: 8,
            link_speed: Gbps::new(100.0),
        }
    }
}

impl FatCliqueParams {
    /// Total switch count.
    pub fn switch_count(&self) -> usize {
        self.subclique_size * self.subcliques_per_clique * self.cliques
    }
}

/// Builds a FatClique-style hierarchical clique network. Each clique is one
/// deployment block.
pub fn fatclique(p: &FatCliqueParams) -> Result<Network, GenError> {
    if p.subclique_size < 2 {
        return Err(invalid(
            "subclique_size",
            "need ≥ 2 switches per sub-clique",
        ));
    }
    if p.subcliques_per_clique < 2 || p.cliques < 2 {
        return Err(invalid(
            "subcliques_per_clique/cliques",
            "need ≥ 2 at both upper levels",
        ));
    }
    let per_clique = p.subclique_size * p.subcliques_per_clique;
    if p.inter_clique_links == 0 {
        return Err(invalid("inter_clique_links", "must be positive"));
    }

    // Worst-case per-switch port need (round-robin may put one extra
    // inter-clique link on early switches).
    let worst_inter = ((p.cliques - 1) * p.inter_clique_links).div_ceil(per_clique);
    let radix = (p.subclique_size - 1 + p.subcliques_per_clique - 1 + worst_inter) as u16
        + p.servers_per_tor;

    let mut net = Network::new(format!(
        "fatclique(s={},sc={},c={})",
        p.subclique_size, p.subcliques_per_clique, p.cliques
    ));

    // clique -> subclique -> switch ids
    let mut ids: Vec<Vec<Vec<SwitchId>>> = Vec::with_capacity(p.cliques);
    for c in 0..p.cliques {
        let block = net.new_block();
        let mut clique = Vec::with_capacity(p.subcliques_per_clique);
        for sc in 0..p.subcliques_per_clique {
            let sub: Vec<SwitchId> = (0..p.subclique_size)
                .map(|i| {
                    net.add_switch(
                        format!("fc{c}-{sc}-{i}"),
                        SwitchRole::FlatTor,
                        0,
                        radix,
                        p.link_speed,
                        p.servers_per_tor,
                        Some(block),
                    )
                })
                .collect();
            clique.push(sub);
        }
        ids.push(clique);
    }

    // Level 1: full mesh inside each sub-clique.
    for clique in &ids {
        for sub in clique {
            for i in 0..sub.len() {
                for j in (i + 1)..sub.len() {
                    net.add_link(sub[i], sub[j], p.link_speed, 1, false)
                        .expect("exists");
                }
            }
        }
    }
    // Level 2: switch i of sub-clique a links to switch i of sub-clique b.
    for clique in &ids {
        for (a, sub_a) in clique.iter().enumerate() {
            for sub_b in &clique[a + 1..] {
                for (&u, &v) in sub_a.iter().zip(sub_b) {
                    net.add_link(u, v, p.link_speed, 1, false).expect("exists");
                }
            }
        }
    }
    // Level 3: inter-clique links, round-robin over each clique's switches.
    let flat: Vec<Vec<SwitchId>> = ids
        .iter()
        .map(|c| c.iter().flatten().copied().collect())
        .collect();
    let mut cursor = vec![0usize; p.cliques];
    for a in 0..p.cliques {
        for b in (a + 1)..p.cliques {
            for _ in 0..p.inter_clique_links {
                let sa = flat[a][cursor[a] % per_clique];
                let sb = flat[b][cursor[b] % per_clique];
                cursor[a] += 1;
                cursor[b] += 1;
                net.add_link(sa, sb, p.link_speed, 1, false)
                    .expect("exists");
            }
        }
    }
    finish(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_structure() {
        let p = FatCliqueParams::default();
        let n = fatclique(&p).unwrap();
        assert_eq!(n.switch_count(), 64);
        // Level 1: 16 sub-cliques × C(4,2)=6 → 96.
        // Level 2: 4 cliques × C(4,2) pairs=6 × 4 switches → 96.
        // Level 3: C(4,2)=6 pairs × 8 links → 48.
        assert_eq!(n.link_count(), 96 + 96 + 48);
        assert!(n.is_connected());
        assert!(n.validate().is_ok());
    }

    #[test]
    fn blocks_are_cliques() {
        let n = fatclique(&FatCliqueParams::default()).unwrap();
        assert_eq!(n.blocks().len(), 4);
        for b in n.blocks() {
            assert_eq!(n.block_members(b).len(), 16);
        }
    }

    #[test]
    fn ports_within_radix() {
        let p = FatCliqueParams {
            subclique_size: 3,
            subcliques_per_clique: 3,
            cliques: 5,
            inter_clique_links: 7, // deliberately not divisible by 9
            ..FatCliqueParams::default()
        };
        let n = fatclique(&p).unwrap();
        for s in n.switches() {
            assert!(n.ports_used(s.id) <= u32::from(s.radix));
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(fatclique(&FatCliqueParams {
            subclique_size: 1,
            ..Default::default()
        })
        .is_err());
        assert!(fatclique(&FatCliqueParams {
            cliques: 1,
            ..Default::default()
        })
        .is_err());
        assert!(fatclique(&FatCliqueParams {
            inter_clique_links: 0,
            ..Default::default()
        })
        .is_err());
    }
}
