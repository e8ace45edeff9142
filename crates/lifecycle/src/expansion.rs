//! Incremental expansion planners.
//!
//! Two families, mirroring the paper's §4.1/§4.2 contrast:
//!
//! * **Clos pod addition** ([`clos_add_pods`]): the spine's ports must be
//!   redistributed from the old pods to include the new ones. *Without*
//!   indirection, every moved link is a physical cable re-run between two
//!   racks. *With* a patch-panel layer, the same logical rewiring is a
//!   jumper move at a panel (Zhao et al. \[56\]); with an OCS it is a
//!   software reconfiguration (Poutievski et al. \[39\]). The logical move
//!   count is identical — indirection changes *where and how* the moves
//!   happen, which is exactly the deployability difference.
//! * **Flat/random ToR addition** ([`flat_add_tor`]): Jellyfish-style
//!   incremental growth breaks ⌈d/2⌉ random existing links and splices the
//!   new ToR in (the "d/2 links to be rewired each time a d-port ToR is
//!   added" of §4.2). Every one of those is a physical re-run between
//!   switch racks — random graphs have no panel layer to hide behind.

use crate::metrics::{RewirePlan, RewireSite};
use pd_physical::SlotId;
use pd_topology::gen::SplitMix64;
use pd_topology::{Network, SwitchId, SwitchRole};

/// How agg↔spine rewiring physically happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndirectionLevel {
    /// Cables run switch-to-switch; every move is a re-run.
    None,
    /// A passive patch-panel layer; moves are jumper moves at panels.
    PatchPanel,
    /// An OCS layer; moves are software reconfigurations.
    Ocs,
}

/// Parameters for Clos pod expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosExpansionParams {
    /// Pods before expansion.
    pub old_pods: usize,
    /// Pods after expansion.
    pub new_pods: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// Spine switches.
    pub spines: usize,
    /// Ports each spine devotes to the aggregation layer.
    pub spine_ports: usize,
    /// What mediates the agg↔spine layer.
    pub indirection: IndirectionLevel,
    /// Slot of the panel/OCS rack serving each spine (panel mode); spine
    /// `i` uses entry `i % len`. Ignored for [`IndirectionLevel::None`].
    pub panel_slots: Vec<SlotId>,
    /// Representative slots for old-pod agg racks (move endpoints without
    /// indirection). Entry `i % len` serves pod `i`.
    pub pod_slots: Vec<SlotId>,
    /// Slots of the new pods' agg racks.
    pub new_pod_slots: Vec<SlotId>,
}

/// Plans a Clos expansion from `old_pods` to `new_pods`.
///
/// The balanced-striping model (Zhao \[56\]'s setting): each spine spreads
/// its `spine_ports` evenly over all pod aggs. With `P` pods × `A` aggs,
/// each (agg, spine) pair carries `floor(spine_ports / (P·A))` links (the
/// remainder is ignored — real designs choose divisible counts). Moving
/// from `P` to `P'` pods shrinks per-pair trunking from `t` to `t'`; each
/// spine must hand `(t − t') × P·A` link-ends from old aggs to new ones.
pub fn clos_add_pods(p: &ClosExpansionParams) -> RewirePlan {
    assert!(p.new_pods > p.old_pods, "expansion must add pods");
    assert!(p.old_pods > 0 && p.aggs_per_pod > 0 && p.spines > 0);
    let old_pairs = p.old_pods * p.aggs_per_pod;
    let new_pairs = p.new_pods * p.aggs_per_pod;
    let t_old = p.spine_ports / old_pairs;
    let t_new = p.spine_ports / new_pairs;
    let mut plan = RewirePlan::default();
    if t_new == 0 {
        // The spine cannot reach that many pods; the plan is infeasible and
        // reported as an empty plan with everything "new" (the caller can
        // detect t_new == 0 themselves via radix math).
        return plan;
    }

    for spine in 0..p.spines {
        // Each old (agg, spine) pair gives up (t_old − t_new) links.
        let moves_per_pair = t_old - t_new;
        for pod in 0..p.old_pods {
            for agg in 0..p.aggs_per_pod {
                for k in 0..moves_per_pair {
                    let what =
                        format!("spine{spine}: move link {k} of p{pod}-agg{agg} to a new pod");
                    let site = match p.indirection {
                        IndirectionLevel::None => RewireSite::SwitchRacks {
                            a: p.pod_slots[pod % p.pod_slots.len().max(1)],
                            b: p.new_pod_slots
                                [(pod * p.aggs_per_pod + agg) % p.new_pod_slots.len().max(1)],
                        },
                        IndirectionLevel::PatchPanel => RewireSite::Panel {
                            slot: p.panel_slots[spine % p.panel_slots.len().max(1)],
                            software_only: false,
                        },
                        IndirectionLevel::Ocs => RewireSite::Panel {
                            slot: p.panel_slots[spine % p.panel_slots.len().max(1)],
                            software_only: true,
                        },
                    };
                    plan.push(site, what);
                }
            }
        }
    }
    // New pods also need entirely new cables: each new (agg, spine) pair
    // gets t_new links, plus the moved ones terminate there. New pulls =
    // new pods' aggs × spines × t_new (switch→panel or switch→switch runs).
    let added_pods = p.new_pods - p.old_pods;
    plan.new_cables = added_pods * p.aggs_per_pod * p.spines * t_new;
    plan
}

/// Parameters for flat/random-graph ToR addition.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatExpansionParams {
    /// Network degree of the new ToR.
    pub degree: usize,
    /// RNG seed for link selection.
    pub seed: u64,
    /// Server downlinks on the new ToR.
    pub servers_per_tor: u16,
}

/// Adds one ToR to a flat random network (Jellyfish incremental growth):
/// select ⌈d/2⌉ existing links at random, break each (u,v), and connect
/// u→new and v→new. Mutates `net` and returns the physical rewire plan.
///
/// Every break-and-splice is a switch-rack-to-switch-rack operation; the
/// returned plan's sites use the placement's slots so locality metrics are
/// honest about the floor distances involved.
pub fn flat_add_tor(
    net: &mut Network,
    placement_slots: impl Fn(SwitchId) -> Option<SlotId>,
    p: &FlatExpansionParams,
) -> (SwitchId, RewirePlan) {
    let mut rng = SplitMix64::new(p.seed);
    let degree = p.degree;
    let splices = degree.div_ceil(2);

    let speed = net
        .links()
        .next()
        .map(|l| l.speed)
        .unwrap_or(pd_geometry::Gbps::new(100.0));
    let block = net.new_block();
    let idx = net.switch_count();
    let new_tor = net.add_switch(
        format!("jf-added-{idx}"),
        SwitchRole::FlatTor,
        0,
        degree as u16 + p.servers_per_tor,
        speed,
        p.servers_per_tor,
        Some(block),
    );

    let mut plan = RewirePlan::default();
    for s in 0..splices {
        // Pick a random link not already incident to the new ToR.
        let candidates: Vec<_> = net
            .links()
            .filter(|l| l.a != new_tor && l.b != new_tor)
            .map(|l| l.id)
            .collect();
        if candidates.is_empty() {
            break;
        }
        let victim_id = candidates[rng.below(candidates.len())];
        let victim = net.remove_link(victim_id).expect("picked from list");
        net.add_link(victim.a, new_tor, speed, 1, false)
            .expect("new tor has free ports");
        // The second splice may exceed degree if d is odd and this is the
        // last round; only attach if ports remain.
        if net.ports_free(new_tor) > 0 {
            net.add_link(victim.b, new_tor, speed, 1, false)
                .expect("checked free ports");
        }
        let slot_a = placement_slots(victim.a).unwrap_or(SlotId(0));
        let slot_b = placement_slots(victim.b).unwrap_or(SlotId(0));
        plan.push(
            RewireSite::SwitchRacks {
                a: slot_a,
                b: slot_b,
            },
            format!(
                "splice {s}: break {}–{} and re-home both ends",
                victim.a, victim.b
            ),
        );
        // One broken link yields two new cables to the new ToR; the old
        // cable is abandoned in place (§2.1).
        plan.new_cables += 2;
        plan.abandoned_cables += 1;
    }
    (new_tor, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_geometry::Gbps;
    use pd_physical::{Hall, HallSpec};
    use pd_topology::gen::{jellyfish, JellyfishParams};

    fn params(indirection: IndirectionLevel) -> ClosExpansionParams {
        ClosExpansionParams {
            old_pods: 4,
            new_pods: 8,
            aggs_per_pod: 4,
            spines: 8,
            spine_ports: 64,
            indirection,
            panel_slots: (0..4).map(SlotId).collect(),
            pod_slots: (10..18).map(SlotId).collect(),
            new_pod_slots: (20..36).map(SlotId).collect(),
        }
    }

    #[test]
    fn clos_expansion_move_count_matches_formula() {
        // t_old = 64/16 = 4, t_new = 64/32 = 2 ⇒ each spine moves
        // (4−2)×16 = 32 link-ends; ×8 spines = 256 moves.
        let plan = clos_add_pods(&params(IndirectionLevel::None));
        assert_eq!(plan.len(), 256);
        // New cables: 4 added pods × 4 aggs × 8 spines × t_new 2 = 256.
        assert_eq!(plan.new_cables, 256);
    }

    #[test]
    fn indirection_changes_where_not_how_many() {
        let hall = Hall::new(HallSpec::default());
        let none = clos_add_pods(&params(IndirectionLevel::None));
        let panel = clos_add_pods(&params(IndirectionLevel::PatchPanel));
        let ocs = clos_add_pods(&params(IndirectionLevel::Ocs));
        assert_eq!(none.len(), panel.len());
        assert_eq!(panel.len(), ocs.len());

        let per_move = pd_geometry::Hours::from_minutes(4.0);
        let per_pull = pd_geometry::Hours::from_minutes(20.0);
        let c_none = none.complexity(&hall, per_move, per_pull);
        let c_panel = panel.complexity(&hall, per_move, per_pull);
        let c_ocs = ocs.complexity(&hall, per_move, per_pull);
        // No indirection: moves touch pod racks scattered on the floor.
        assert!(c_none.racks_touched > 0);
        assert_eq!(c_none.panels_touched, 0);
        // Panels: all moves concentrated at 4 panels.
        assert_eq!(c_panel.panels_touched, 4);
        assert_eq!(c_panel.racks_touched, 0);
        assert_eq!(c_panel.max_links_per_panel, 64);
        // OCS: no human touches at all for the moves.
        assert_eq!(c_ocs.software_steps, 256);
        assert_eq!(c_ocs.panels_touched, 0);
        assert!(c_ocs.labor < c_panel.labor);
        assert!(c_panel.walking < c_none.walking);
    }

    #[test]
    fn infeasible_expansion_returns_empty_moves() {
        let mut p = params(IndirectionLevel::None);
        p.new_pods = 40; // 40×4 = 160 pairs > 64 spine ports
        let plan = clos_add_pods(&p);
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn flat_add_tor_rewires_half_degree() {
        let mut net = jellyfish(&JellyfishParams {
            tors: 30,
            network_degree: 6,
            servers_per_tor: 4,
            link_speed: Gbps::new(100.0),
            seed: 7,
        })
        .unwrap();
        let links_before = net.link_count();
        let (new_tor, plan) = flat_add_tor(
            &mut net,
            |_| Some(SlotId(0)),
            &FlatExpansionParams {
                degree: 6,
                seed: 11,
                servers_per_tor: 4,
            },
        );
        // d/2 = 3 splices; each removes 1 link and adds 2.
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.new_cables, 6);
        assert_eq!(plan.abandoned_cables, 3);
        assert_eq!(net.link_count(), links_before + 3);
        assert_eq!(net.degree(new_tor), 6);
        assert!(net.validate().is_ok());
        assert!(net.is_connected());
    }

    #[test]
    fn flat_add_tor_odd_degree() {
        let mut net = jellyfish(&JellyfishParams {
            tors: 20,
            network_degree: 5,
            servers_per_tor: 2,
            link_speed: Gbps::new(100.0),
            seed: 3,
        })
        .unwrap();
        let (new_tor, plan) = flat_add_tor(
            &mut net,
            |_| Some(SlotId(0)),
            &FlatExpansionParams {
                degree: 5,
                seed: 4,
                servers_per_tor: 2,
            },
        );
        // ⌈5/2⌉ = 3 splices, but the last only attaches one end.
        assert_eq!(plan.len(), 3);
        assert_eq!(net.degree(new_tor), 5);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn flat_add_tor_deterministic() {
        let mk = || {
            let mut net = jellyfish(&JellyfishParams {
                tors: 20,
                network_degree: 4,
                servers_per_tor: 2,
                link_speed: Gbps::new(100.0),
                seed: 5,
            })
            .unwrap();
            let (_, plan) = flat_add_tor(
                &mut net,
                |_| Some(SlotId(0)),
                &FlatExpansionParams {
                    degree: 4,
                    seed: 9,
                    servers_per_tor: 2,
                },
            );
            (
                plan.moves
                    .iter()
                    .map(|m| m.what.clone())
                    .collect::<Vec<_>>(),
                net.link_count(),
            )
        };
        assert_eq!(mk(), mk());
    }
}
