//! The physical-constraint engine.
//!
//! "Our goal … is to be able to rapidly test whether an abstract design
//! violates physical-world constraints" (§5.3). [`check_design`] runs every
//! check the substrate can express and returns a ranked violation list;
//! each violation carries an order-of-magnitude *late-remediation* cost —
//! what it costs to fix after the hardware is on the floor — which is what
//! experiment E10 compares against catching it in the twin.

use pd_cabling::CablingPlan;
use pd_geometry::{CapacityRouter, Dollars, RouteEdgeId, RouteNodeId};
use pd_physical::{Hall, Placement};
use pd_topology::{Network, SwitchId};

/// Violation severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Design cannot be deployed as-is.
    Error,
    /// Deployable but operationally risky or wasteful.
    Warning,
}

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationCode {
    /// Rack assembly does not fit through the door.
    DoorClearance,
    /// A tray segment is over its installed capacity.
    TrayOverfill,
    /// A tray segment exceeds its per-generation share (future expansions
    /// will not fit — the §2.1 rule).
    TrayGenerationBudget,
    /// A link could not be physically realized at all.
    UnrealizableLink,
    /// A cable's bend radius cannot survive its routed path.
    BendRadius,
    /// Power feed would overload if its redundant partner failed.
    PowerFailureHeadroom,
    /// All of a switch's network cables traverse one tray segment: a
    /// physical single point of failure behind logical path diversity.
    TraySpof,
    /// Conjoined racks split across non-adjacent slots (the pre-cabled
    /// assembly cannot actually be delivered as one unit).
    ConjoinedSplit,
    /// A row holds an even number of racks where the floor plan requires
    /// odd (§3.1's floor-space constraint), stranding a slot.
    EvenRowOccupancy,
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Severity.
    pub severity: Severity,
    /// Category.
    pub code: ViolationCode,
    /// Human-readable description with the offending object.
    pub message: String,
    /// Order-of-magnitude cost to remediate *after* deployment (the §5.3
    /// "costs to remediate mistakes increase dramatically" number).
    pub late_remediation: Dollars,
}

/// Runs every constraint check.
pub fn check_design(
    net: &Network,
    hall: &Hall,
    placement: &Placement,
    plan: &CablingPlan,
) -> Vec<Violation> {
    let mut out = Vec::new();
    check_door(hall, placement, &mut out);
    check_conjoined(hall, placement, &mut out);
    check_row_parity(hall, placement, &mut out);
    check_tray(hall, plan, &mut out);
    check_unrealizable(plan, &mut out);
    check_bend_radius(plan, &mut out);
    check_power(placement, &mut out);
    check_tray_spof(net, plan, &mut out);
    out.sort_by_key(|v| v.severity);
    out
}

fn check_door(hall: &Hall, placement: &Placement, out: &mut Vec<Violation>) {
    let door = &hall.spec.door;
    for rack in &placement.racks {
        let n = if rack.conjoined_with.is_some() { 2 } else { 1 };
        let fits = if n == 1 {
            rack.spec.fits_through(door)
        } else {
            rack.spec.conjoined_fits_through(n, door)
        };
        if !fits {
            out.push(Violation {
                severity: Severity::Error,
                code: ViolationCode::DoorClearance,
                message: format!(
                    "{} ({}-wide assembly) cannot pass the {:.2} m door",
                    rack.id,
                    n,
                    door.width.value()
                ),
                // Disassemble, re-cable on the floor, re-test: dominated by
                // redoing the pre-cabling labor.
                late_remediation: Dollars::new(25_000.0),
            });
        }
    }
}

fn check_conjoined(hall: &Hall, placement: &Placement, out: &mut Vec<Violation>) {
    for rack in &placement.racks {
        let Some(partner_id) = rack.conjoined_with else {
            continue;
        };
        let Some(partner) = placement.racks.get(partner_id.0 as usize) else {
            continue;
        };
        let adjacent = hall
            .slot(rack.slot)
            .zip(hall.slot(partner.slot))
            .map(|(a, b)| a.row == b.row && a.index.abs_diff(b.index) == 1)
            .unwrap_or(false);
        if !adjacent {
            out.push(Violation {
                severity: Severity::Error,
                code: ViolationCode::ConjoinedSplit,
                message: format!(
                    "{} is pre-cabled with {} but they are not adjacent ({} vs {})",
                    rack.id, partner.id, rack.slot, partner.slot
                ),
                // The conjoined assembly must be split and re-cabled loose.
                late_remediation: Dollars::new(18_000.0),
            });
        }
    }
}

fn check_row_parity(hall: &Hall, placement: &Placement, out: &mut Vec<Violation>) {
    if !hall.spec.odd_slots_per_row {
        return;
    }
    let mut per_row: std::collections::BTreeMap<usize, usize> = Default::default();
    for rack in &placement.racks {
        if let Some(slot) = hall.slot(rack.slot) {
            *per_row.entry(slot.row).or_insert(0) += 1;
        }
    }
    for (row, count) in per_row {
        if count % 2 == 0 {
            out.push(Violation {
                severity: Severity::Warning,
                code: ViolationCode::EvenRowOccupancy,
                message: format!(
                    "row {row} holds {count} racks; this floor requires odd counts                      per row, stranding a slot (§3.1)"
                ),
                // One slot's worth of floor value.
                late_remediation: Dollars::new(4_000.0),
            });
        }
    }
}

fn check_tray(hall: &Hall, plan: &CablingPlan, out: &mut Vec<Violation>) {
    let per_gen = hall.spec.tray_capacity_per_generation.value();
    for e in plan.tray.router.edge_ids() {
        let fill = plan.tray.router.fill_fraction(e);
        let used = plan.tray.router.used(e).value();
        if fill > 1.0 {
            out.push(Violation {
                severity: Severity::Error,
                code: ViolationCode::TrayOverfill,
                message: format!(
                    "tray segment {} at {:.0}% of installed capacity",
                    e.0,
                    fill * 100.0
                ),
                // Add a parallel tray run on a live floor.
                late_remediation: Dollars::new(40_000.0),
            });
        } else if used > per_gen {
            out.push(Violation {
                severity: Severity::Warning,
                code: ViolationCode::TrayGenerationBudget,
                message: format!(
                    "tray segment {} uses {:.0} mm² of its {:.0} mm² single-generation share",
                    e.0, used, per_gen
                ),
                // Next generation must re-plan routes; engineering time.
                late_remediation: Dollars::new(8_000.0),
            });
        }
    }
}

fn check_unrealizable(plan: &CablingPlan, out: &mut Vec<Violation>) {
    for (link, err) in &plan.failures {
        out.push(Violation {
            severity: Severity::Error,
            code: ViolationCode::UnrealizableLink,
            message: format!("{link}: {err}"),
            // Redesign + possible switch moves after gear is installed.
            late_remediation: Dollars::new(60_000.0),
        });
    }
}

fn check_bend_radius(plan: &CablingPlan, out: &mut Vec<Violation>) {
    // The routed polyline for each run: rack-top → tray → rack-top, walked
    // along its tray path nodes; the in-rack tails are dressed by hand and
    // assumed compliant.
    let router = &plan.tray.router;
    for (i, run) in plan.runs.iter().enumerate() {
        if run.tray_edges.is_empty() {
            continue;
        }
        let bends = pd_geometry::bend_violations(
            tray_path_nodes(router, &run.tray_edges).map(|n| router.position(n)),
            run.choice.sku.bend_radius,
        )
        .count();
        if bends > 0 {
            out.push(Violation {
                severity: Severity::Error,
                code: ViolationCode::BendRadius,
                message: format!(
                    "cable {i} ({}, bend radius {:.0} mm) cannot make {bends} bend(s) on its route",
                    run.choice.sku.class,
                    run.choice.sku.bend_radius.value(),
                ),
                // Re-route/replace a pulled cable.
                late_remediation: Dollars::new(1_500.0),
            });
        }
    }
}

/// The nodes along a tray path, from its edges: the first edge is oriented
/// away from the second, and each later edge continues from the node the
/// previous one reached.
fn tray_path_nodes<'a>(
    router: &'a CapacityRouter,
    edges: &'a [RouteEdgeId],
) -> impl Iterator<Item = RouteNodeId> + 'a {
    let start = edges.first().map(|&e| {
        let (a, b) = router.edge_endpoints(e);
        match edges.get(1).map(|&e2| router.edge_endpoints(e2)) {
            Some((c, d)) if a == c || a == d => b,
            _ => a,
        }
    });
    let mut last = start;
    start.into_iter().chain(edges.iter().map(move |&e| {
        let (a, b) = router.edge_endpoints(e);
        let next = if Some(a) == last { b } else { a };
        last = Some(next);
        next
    }))
}

fn check_power(placement: &Placement, out: &mut Vec<Violation>) {
    for f in 0..placement.power.feed_count() {
        let feed = pd_physical::FeedId(f as u32);
        let (worst, cap) = placement.power.headroom_under_failure(feed);
        if worst > cap {
            out.push(Violation {
                severity: Severity::Error,
                code: ViolationCode::PowerFailureHeadroom,
                message: format!("losing {feed} overloads a surviving feed: {worst} > {cap}"),
                // New busway on a live floor.
                late_remediation: Dollars::new(120_000.0),
            });
        }
    }
}

fn check_tray_spof(net: &Network, plan: &CablingPlan, out: &mut Vec<Violation>) {
    // For each switch with ≥2 network links, check whether EVERY one of its
    // cables traverses some common tray segment. Each switch's runs, in run
    // order, as one flat list indexed by switch id.
    let ids = net
        .switches()
        .map(|s| s.id.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut start = vec![0usize; ids + 1];
    let ends: Vec<Option<[SwitchId; 2]>> = plan
        .runs
        .iter()
        .map(|run| net.link(run.link).map(|l| [l.a, l.b]))
        .collect();
    for end in ends.iter().flatten().flatten() {
        start[end.0 as usize + 1] += 1;
    }
    for s in 1..start.len() {
        start[s] += start[s - 1];
    }
    let mut fill = start.clone();
    let mut runs = vec![0usize; start[ids]];
    for (i, end) in ends.iter().enumerate() {
        for s in end.iter().flatten() {
            runs[fill[s.0 as usize]] = i;
            fill[s.0 as usize] += 1;
        }
    }

    // Intersect *intermediate* tray segments: the first and last edge of a
    // run are the endpoint rack drops, which trivially shared by a rack's
    // own cables (a rack has one cable entry — that is rack redundancy, not
    // tray routing). The SPOF of interest is a shared mid-route segment
    // that one cut (or small fire, §3.1) severs.
    let interior = |r: usize| -> &[RouteEdgeId] {
        let edges = &plan.runs[r].tray_edges;
        if edges.len() <= 2 {
            &[]
        } else {
            &edges[1..edges.len() - 1]
        }
    };
    // `seen[e]` is how many of a switch's runs, taken in order, all cross
    // segment `e`: the intersection so far is the first run's segments at
    // the current count. Only the first run's segments are ever set.
    let mut seen = vec![0usize; plan.tray.router.edge_count()];
    for id in 0..ids {
        let runs = &runs[start[id]..start[id + 1]];
        if runs.len() < 2 {
            continue;
        }
        let first = interior(runs[0]);
        for e in first {
            seen[e.0] = 1;
        }
        let mut all = 1;
        for (t, &r) in runs.iter().enumerate().skip(1) {
            let mut common = false;
            for e in interior(r) {
                if seen[e.0] == t {
                    seen[e.0] = t + 1;
                    common = true;
                }
            }
            if !common {
                break; // no common segment, or a run with no tray segment
            }
            all = t + 1;
        }
        // The lowest ids, so the message does not depend on path order.
        let mut shared: Vec<usize> = first
            .iter()
            .map(|e| e.0)
            .filter(|&e| all == runs.len() && seen[e] == all)
            .collect();
        for e in first {
            seen[e.0] = 0;
        }
        if shared.is_empty() {
            continue;
        }
        shared.sort_unstable();
        shared.dedup();
        shared.truncate(3);
        out.push(Violation {
            severity: Severity::Warning,
            code: ViolationCode::TraySpof,
            message: format!(
                "{}: all {} network cables share tray segment(s) {:?} — one cut isolates it",
                SwitchId(id as u32),
                runs.len(),
                shared
            ),
            // Re-route half the uplinks via a diverse tray path.
            late_remediation: Dollars::new(5_000.0),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_cabling::{CablingPolicy, TrayTrees};
    use pd_geometry::{Gbps, SquareMillimeters, Watts};
    use pd_physical::placement::EquipmentProfile;
    use pd_physical::{HallSpec, PlacementStrategy};
    use pd_topology::gen::fat_tree;

    fn build(spec: HallSpec) -> (Network, Hall, Placement, CablingPlan) {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let hall = Hall::new(spec);
        let placement = Placement::place(
            &net,
            &hall,
            PlacementStrategy::BlockLocal,
            &EquipmentProfile::default(),
        )
        .unwrap();
        let trees = TrayTrees::new(&hall);
        let plan = CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        (net, hall, placement, plan)
    }

    #[test]
    fn clean_design_has_no_errors() {
        let (net, hall, placement, plan) = build(HallSpec::default());
        let v = check_design(&net, &hall, &placement, &plan);
        assert!(
            v.iter().all(|x| x.severity != Severity::Error),
            "unexpected errors: {:?}",
            v.iter()
                .filter(|x| x.severity == Severity::Error)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tiny_trays_trigger_overfill_or_unrealizable() {
        let spec = HallSpec {
            tray_capacity_per_generation: SquareMillimeters::new(30.0),
            tray_generations: 1,
            ..HallSpec::default()
        };
        let (net, hall, placement, plan) = build(spec);
        let v = check_design(&net, &hall, &placement, &plan);
        assert!(
            v.iter().any(|x| matches!(
                x.code,
                ViolationCode::TrayOverfill | ViolationCode::UnrealizableLink
            )),
            "{v:?}"
        );
    }

    #[test]
    fn generation_budget_warns_before_overfill() {
        // Capacity generous, but single-generation share small.
        let spec = HallSpec {
            tray_capacity_per_generation: SquareMillimeters::new(60.0),
            tray_generations: 12,
            ..HallSpec::default()
        };
        let (net, hall, placement, plan) = build(spec);
        let v = check_design(&net, &hall, &placement, &plan);
        assert!(v
            .iter()
            .any(|x| x.code == ViolationCode::TrayGenerationBudget));
        assert!(!v.iter().any(|x| x.code == ViolationCode::TrayOverfill));
    }

    #[test]
    fn weak_feeds_fail_headroom_check() {
        let spec = HallSpec {
            feed_capacity: Watts::new(3_000.0),
            ..HallSpec::default()
        };
        let (net, hall, placement, plan) = build(spec);
        let v = check_design(&net, &hall, &placement, &plan);
        assert!(v
            .iter()
            .any(|x| x.code == ViolationCode::PowerFailureHeadroom));
    }

    #[test]
    fn conjoined_split_detected() {
        let (net, hall, mut placement, plan) = build(HallSpec::default());
        // Mark two racks as a conjoined pair and teleport one far away.
        let far_slot = hall.slots().last().unwrap().id;
        let a = placement.racks[0].id;
        let b = placement.racks[1].id;
        placement.racks[0].conjoined_with = Some(b);
        placement.racks[1].conjoined_with = Some(a);
        placement.racks[1].slot = far_slot;
        let v = check_design(&net, &hall, &placement, &plan);
        assert!(
            v.iter().any(|x| x.code == ViolationCode::ConjoinedSplit),
            "{v:?}"
        );
    }

    #[test]
    fn even_row_occupancy_warns_when_required_odd() {
        let spec = HallSpec {
            odd_slots_per_row: true,
            ..HallSpec::default()
        };
        let (net, hall, placement, plan) = build(spec);
        let v = check_design(&net, &hall, &placement, &plan);
        // Row-major fill of full 20-slot rows guarantees at least one even
        // row count.
        assert!(
            v.iter().any(|x| x.code == ViolationCode::EvenRowOccupancy),
            "{v:?}"
        );
        // And it is only a warning.
        assert!(v
            .iter()
            .filter(|x| x.code == ViolationCode::EvenRowOccupancy)
            .all(|x| x.severity == Severity::Warning));
    }

    /// A 40 mm drop from rack top to tray: copper's bend radius cannot
    /// make the turn into the tray, and block-local racks send every cable
    /// of some switches through one segment. The exact messages and their
    /// order are pinned.
    #[test]
    fn tray_spof_and_bend_radius_messages_are_pinned() {
        let (net, hall, placement, plan) = build(HallSpec {
            tray_height: pd_geometry::Meters::new(2.04),
            ..HallSpec::default()
        });
        let v = check_design(&net, &hall, &placement, &plan);
        let text: Vec<String> = v
            .iter()
            .filter(|x| matches!(x.code, ViolationCode::TraySpof | ViolationCode::BendRadius))
            .map(|x| format!("{:?} {}", x.code, x.message))
            .collect();
        let bends = [
            0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 24, 25, 26, 27,
        ];
        let spofs = [
            "sw6: all 2 network cables share tray segment(s) [200, 201]",
            "sw7: all 2 network cables share tray segment(s) [201]",
            "sw10: all 2 network cables share tray segment(s) [203, 204]",
            "sw11: all 2 network cables share tray segment(s) [204]",
            "sw12: all 4 network cables share tray segment(s) [207]",
            "sw13: all 4 network cables share tray segment(s) [207]",
            "sw14: all 2 network cables share tray segment(s) [206, 207]",
            "sw15: all 2 network cables share tray segment(s) [207]",
            "sw16: all 4 network cables share tray segment(s) [210]",
            "sw17: all 4 network cables share tray segment(s) [210]",
            "sw18: all 2 network cables share tray segment(s) [209, 210]",
            "sw19: all 2 network cables share tray segment(s) [210]",
        ];
        let pinned: Vec<String> = bends
            .iter()
            .map(|i| {
                format!(
                    "BendRadius cable {i} (AEC, bend radius 45 mm) cannot make 2 bend(s) on its route"
                )
            })
            .chain(
                spofs
                    .iter()
                    .map(|s| format!("TraySpof {s} — one cut isolates it")),
            )
            .collect();
        assert_eq!(text, pinned);
    }

    #[test]
    fn violations_sorted_errors_first() {
        let spec = HallSpec {
            tray_capacity_per_generation: SquareMillimeters::new(30.0),
            tray_generations: 1,
            feed_capacity: Watts::new(3_000.0),
            ..HallSpec::default()
        };
        let (net, hall, placement, plan) = build(spec);
        let v = check_design(&net, &hall, &placement, &plan);
        let first_warning = v.iter().position(|x| x.severity == Severity::Warning);
        let last_error = v.iter().rposition(|x| x.severity == Severity::Error);
        if let (Some(w), Some(e)) = (first_warning, last_error) {
            assert!(e < w, "errors must sort before warnings");
        }
    }
}
