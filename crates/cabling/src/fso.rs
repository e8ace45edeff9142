//! Free-space optics / wireless links (§3.1).
//!
//! "Some papers have proposed using free-space optics \[23\] or 60GHz
//! wireless links \[57\] within datacenters. While these avoid the physical
//! challenges of cables, these too suffer from real-world issues.
//! Free-space optics require unobstructed paths between racks, which is
//! hard to guarantee; at higher speeds, they also might expose human eyes
//! to damage. 60GHz wireless links probably cannot be packed tightly
//! enough to entirely replace large bundles of fibers."
//!
//! We model a rack-top FSO mesh with exactly those three limits:
//!
//! 1. **Line of sight** — a beam is a straight rack-top segment; any
//!    *obstacle* (cooling unit, column, cable-riser cabinet) within the
//!    beam's clearance radius blocks it.
//! 2. **Eye safety** — launch power is capped, capping per-terminal speed.
//! 3. **Beam packing** — each rack top holds at most `terminals_per_rack`
//!    terminals, and beams crossing the same rack-top airspace closer than
//!    `beam_separation` interfere (the "cannot be packed tightly enough"
//!    constraint): we count, per rack, the beams overflying it and fail
//!    those beyond the packing limit.

use pd_geometry::{Dollars, Gbps, Meters, Point2};
use pd_physical::{Hall, Placement, SlotId};
use pd_topology::{LinkId, Network};
use std::collections::HashMap;

/// FSO terminal and beam parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FsoSpec {
    /// Maximum beam range at rated availability.
    pub max_range: Meters,
    /// Per-terminal speed under the eye-safety power cap.
    pub safe_speed: Gbps,
    /// Clearance radius an obstacle must violate to block a beam.
    pub clearance: Meters,
    /// Terminals a rack top can hold (steering mirrors need aperture).
    pub terminals_per_rack: usize,
    /// Beams allowed to overfly one rack before interference/packing fails
    /// additional ones.
    pub overfly_limit: usize,
    /// Cost of a terminal pair (both ends).
    pub terminal_pair_cost: Dollars,
    /// Long-run availability of a beam (dust, vibration, humans walking
    /// through with ladders) — multiplies into capacity accounting.
    pub availability: f64,
}

impl Default for FsoSpec {
    fn default() -> Self {
        Self {
            // FireFly-class parameters: tens of meters of steerable reach.
            max_range: Meters::new(60.0),
            safe_speed: Gbps::new(100.0),
            clearance: Meters::new(0.4),
            terminals_per_rack: 8,
            overfly_limit: 24,
            terminal_pair_cost: Dollars::new(2_200.0),
            availability: 0.995,
        }
    }
}

/// Why a link cannot be carried by FSO.
#[derive(Debug, Clone, PartialEq)]
pub enum FsoInfeasible {
    /// An obstacle blocks the line of sight.
    Obstructed {
        /// The blocking obstacle's slot.
        obstacle: SlotId,
    },
    /// The span exceeds beam range.
    OutOfRange {
        /// The required span.
        span: Meters,
    },
    /// The link's speed exceeds the eye-safe rate.
    OverSafeSpeed,
    /// A rack ran out of terminals.
    NoTerminals {
        /// The exhausted rack's slot.
        slot: SlotId,
    },
    /// Too many beams already overfly some rack on the path.
    PackingLimit {
        /// The congested rack's slot.
        slot: SlotId,
    },
    /// An endpoint is not placed.
    Unplaced,
}

/// The FSO feasibility plan for a network.
#[derive(Debug, Clone, PartialEq)]
pub struct FsoPlan {
    /// Links carried by FSO.
    pub feasible: Vec<LinkId>,
    /// Links that cannot be carried, with the reason.
    pub infeasible: Vec<(LinkId, FsoInfeasible)>,
    /// Terminal pairs consumed.
    pub terminal_pairs: usize,
    /// Hardware cost of the FSO layer.
    pub cost: Dollars,
}

impl FsoPlan {
    /// Attempts to carry every network link of a placed design as an FSO
    /// beam. `obstacles` are slots occupied by beam-height obstructions.
    /// Deterministic: links are processed in id order, claiming terminals
    /// and airspace greedily.
    pub fn build(
        net: &Network,
        hall: &Hall,
        placement: &Placement,
        obstacles: &[SlotId],
        spec: &FsoSpec,
    ) -> Self {
        let obstacle_pts: Vec<(SlotId, Point2)> = obstacles
            .iter()
            .filter_map(|&s| hall.slot(s).map(|r| (s, r.center)))
            .collect();
        let mut terminals: HashMap<SlotId, usize> = HashMap::new();
        let mut overfly: HashMap<SlotId, usize> = HashMap::new();
        let mut feasible = Vec::new();
        let mut infeasible = Vec::new();

        let mut links: Vec<&pd_topology::Link> = net.links().collect();
        links.sort_by_key(|l| l.id);
        'links: for link in links {
            let (Some(sa), Some(sb)) = (placement.slot_of(link.a), placement.slot_of(link.b))
            else {
                infeasible.push((link.id, FsoInfeasible::Unplaced));
                continue;
            };
            let (Some(pa), Some(pb)) = (hall.slot(sa), hall.slot(sb)) else {
                infeasible.push((link.id, FsoInfeasible::Unplaced));
                continue;
            };
            if link.speed > spec.safe_speed {
                infeasible.push((link.id, FsoInfeasible::OverSafeSpeed));
                continue;
            }
            let span = pa.center.euclidean(pb.center);
            if span > spec.max_range {
                infeasible.push((link.id, FsoInfeasible::OutOfRange { span }));
                continue;
            }
            for &(slot, p) in &obstacle_pts {
                if slot != sa
                    && slot != sb
                    && p.distance_to_segment(pa.center, pb.center) < spec.clearance
                {
                    infeasible.push((link.id, FsoInfeasible::Obstructed { obstacle: slot }));
                    continue 'links;
                }
            }
            for slot in [sa, sb] {
                if terminals.get(&slot).copied().unwrap_or(0) >= spec.terminals_per_rack {
                    infeasible.push((link.id, FsoInfeasible::NoTerminals { slot }));
                    continue 'links;
                }
            }
            // Airspace packing: every slot whose center lies within the
            // clearance of the beam counts as overflown.
            let overflown: Vec<SlotId> = hall
                .slots()
                .iter()
                .filter(|s| {
                    s.id != sa
                        && s.id != sb
                        && s.center.distance_to_segment(pa.center, pb.center) < spec.clearance
                })
                .map(|s| s.id)
                .collect();
            for &slot in &overflown {
                if overfly.get(&slot).copied().unwrap_or(0) >= spec.overfly_limit {
                    infeasible.push((link.id, FsoInfeasible::PackingLimit { slot }));
                    continue 'links;
                }
            }
            // Claim resources.
            *terminals.entry(sa).or_insert(0) += 1;
            *terminals.entry(sb).or_insert(0) += 1;
            for slot in overflown {
                *overfly.entry(slot).or_insert(0) += 1;
            }
            feasible.push(link.id);
        }

        let terminal_pairs = feasible.len();
        Self {
            feasible,
            infeasible,
            terminal_pairs,
            cost: spec.terminal_pair_cost * terminal_pairs as f64,
        }
    }

    /// Fraction of links carried.
    pub fn coverage(&self) -> f64 {
        let total = self.feasible.len() + self.infeasible.len();
        if total == 0 {
            0.0
        } else {
            self.feasible.len() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_physical::placement::EquipmentProfile;
    use pd_physical::{HallSpec, PlacementStrategy};
    use pd_topology::gen::{flattened_butterfly, FlattenedButterflyParams};

    fn setup() -> (Network, Hall, Placement) {
        let net = flattened_butterfly(&FlattenedButterflyParams {
            rows: 4,
            cols: 4,
            servers_per_tor: 8,
            link_speed: Gbps::new(100.0),
        })
        .unwrap();
        let hall = Hall::new(HallSpec::default());
        let placement = Placement::place(
            &net,
            &hall,
            PlacementStrategy::BlockLocal,
            &EquipmentProfile::default(),
        )
        .unwrap();
        (net, hall, placement)
    }

    #[test]
    fn clear_hall_carries_everything() {
        let (net, hall, placement) = setup();
        let plan = FsoPlan::build(&net, &hall, &placement, &[], &FsoSpec::default());
        assert_eq!(plan.coverage(), 1.0, "{:?}", plan.infeasible);
        assert_eq!(plan.terminal_pairs, net.link_count());
        assert!(plan.cost.value() > 0.0);
    }

    #[test]
    fn obstacles_block_beams() {
        // Scatter the racks so beams criss-cross the hall, then drop
        // obstacles on every free slot: plenty of beams must now intersect
        // one.
        let net = flattened_butterfly(&FlattenedButterflyParams {
            rows: 4,
            cols: 4,
            servers_per_tor: 8,
            link_speed: Gbps::new(100.0),
        })
        .unwrap();
        let hall = Hall::new(HallSpec::default());
        let placement = Placement::place(
            &net,
            &hall,
            PlacementStrategy::Scattered(5),
            &EquipmentProfile::default(),
        )
        .unwrap();
        let used: std::collections::HashSet<SlotId> =
            placement.racks.iter().map(|r| r.slot).collect();
        let obstacles: Vec<SlotId> = hall
            .slots()
            .iter()
            .map(|s| s.id)
            .filter(|id| !used.contains(id))
            .collect();
        let spec = FsoSpec {
            max_range: Meters::new(200.0), // range never binds here
            ..FsoSpec::default()
        };
        let clear = FsoPlan::build(&net, &hall, &placement, &[], &spec);
        let blocked = FsoPlan::build(&net, &hall, &placement, &obstacles, &spec);
        assert!(blocked.coverage() < clear.coverage());
        assert!(blocked
            .infeasible
            .iter()
            .any(|(_, why)| matches!(why, FsoInfeasible::Obstructed { .. })));
    }

    #[test]
    fn eye_safety_caps_speed() {
        let (net, hall, placement) = setup();
        let strict = FsoSpec {
            safe_speed: Gbps::new(25.0),
            ..FsoSpec::default()
        };
        let plan = FsoPlan::build(&net, &hall, &placement, &[], &strict);
        assert_eq!(plan.coverage(), 0.0);
        assert!(plan
            .infeasible
            .iter()
            .all(|(_, why)| matches!(why, FsoInfeasible::OverSafeSpeed)));
    }

    #[test]
    fn terminal_budget_limits_degree() {
        let (net, hall, placement) = setup();
        let scarce = FsoSpec {
            terminals_per_rack: 3, // flattened butterfly needs degree 6
            ..FsoSpec::default()
        };
        let plan = FsoPlan::build(&net, &hall, &placement, &[], &scarce);
        assert!(plan.coverage() < 1.0);
        assert!(plan
            .infeasible
            .iter()
            .any(|(_, why)| matches!(why, FsoInfeasible::NoTerminals { .. })));
    }

    #[test]
    fn short_range_fails_far_pairs() {
        let (net, hall, placement) = setup();
        let short = FsoSpec {
            max_range: Meters::new(2.0),
            ..FsoSpec::default()
        };
        let plan = FsoPlan::build(&net, &hall, &placement, &[], &short);
        assert!(plan
            .infeasible
            .iter()
            .any(|(_, why)| matches!(why, FsoInfeasible::OutOfRange { .. })));
    }

    #[test]
    fn deterministic() {
        let (net, hall, placement) = setup();
        let a = FsoPlan::build(&net, &hall, &placement, &[], &FsoSpec::default());
        let b = FsoPlan::build(&net, &hall, &placement, &[], &FsoSpec::default());
        assert_eq!(a, b);
    }
}
