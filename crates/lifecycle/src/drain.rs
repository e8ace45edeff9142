//! Drain planning: the capacity cost of taking things out of service.
//!
//! Every repair, expansion step, or conversion window (§4.3) begins by
//! draining traffic away from the hardware about to be touched. The drain
//! planner answers two questions the paper's SDN-coordination discussion
//! raises: *how much capacity does draining X cost right now*, and *how
//! many drains can proceed concurrently before the network can no longer
//! carry its traffic*.

use pd_topology::csr::{self, CsrNet, IndexedDemands, Masks};
use pd_topology::{Network, SwitchId, TrafficMatrix};
use std::collections::HashSet;

/// The capacity impact of a drain set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainImpact {
    /// ECMP throughput scale (α) before the drain.
    pub scale_before: f64,
    /// Throughput scale with the drained switches' links removed.
    pub scale_after: f64,
    /// True if some demand became entirely unroutable.
    pub disconnected: bool,
}

impl DrainImpact {
    /// Fractional capacity lost, in `[0, 1]`.
    pub fn capacity_loss(&self) -> f64 {
        if self.disconnected {
            return 1.0;
        }
        if !self.scale_before.is_finite() || self.scale_before <= 0.0 {
            return 0.0;
        }
        (1.0 - self.scale_after / self.scale_before).max(0.0)
    }
}

/// Computes the throughput impact of draining `drained` switches under
/// traffic matrix `tm`. The drained switches' links go down; demands
/// sourced at or destined to a drained host switch are dropped (their
/// servers are being serviced too). A demand naming a switch the network
/// does not have counts as disconnected.
pub fn capacity_after_drain(
    net: &Network,
    tm: &TrafficMatrix,
    drained: &[SwitchId],
) -> DrainImpact {
    let view = CsrNet::build(net);
    let mut masks = Masks::healthy(&view);
    for s in drained.iter().filter_map(|&s| view.switch_idx(s)) {
        // Links go down but the switch stays (it is drained, not decommed).
        for &(_, l) in view.adjacency(s) {
            masks.link_alive[l as usize] = false;
        }
    }
    let drained_set: HashSet<SwitchId> = drained.iter().copied().collect();
    let kept = TrafficMatrix::from_demands(
        tm.demands()
            .iter()
            .filter(|d| !drained_set.contains(&d.src) && !drained_set.contains(&d.dst))
            .copied()
            .collect(),
    );
    let kept_demands = IndexedDemands::build(&view, &kept);
    let (before, after) = csr::with_scratch(|scratch| {
        let before = csr::ecmp_evaluate(&view, &IndexedDemands::build(&view, tm), None, scratch);
        let after = csr::ecmp_evaluate(&view, &kept_demands, Some(&masks), scratch);
        (before, after)
    });
    let disconnected = after.routable + kept_demands.local < kept.demands().len();
    DrainImpact {
        scale_before: before.throughput_scale(),
        scale_after: if disconnected {
            0.0
        } else {
            after.throughput_scale()
        },
        disconnected,
    }
}

/// Largest `k` such that draining the first `k` groups of `groups`
/// concurrently keeps the network feasible (α ≥ `min_scale`). Groups model
/// §4.3's "manual operations segmented into low-impact chunks" — e.g. one
/// OCS rack's switches per group.
pub fn max_safe_concurrent_drains(
    net: &Network,
    tm: &TrafficMatrix,
    groups: &[Vec<SwitchId>],
    min_scale: f64,
) -> usize {
    let mut best = 0;
    for k in 1..=groups.len() {
        let drained: Vec<SwitchId> = groups[..k].iter().flatten().copied().collect();
        let impact = capacity_after_drain(net, tm, &drained);
        if !impact.disconnected && impact.scale_after >= min_scale {
            best = k;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_geometry::Gbps;
    use pd_topology::gen::{fat_tree, leaf_spine};
    use pd_topology::traffic::Demand;
    use pd_topology::SwitchRole;

    #[test]
    fn draining_one_spine_costs_capacity_but_not_connectivity() {
        let net = leaf_spine(4, 4, 8, 1, Gbps::new(100.0)).unwrap();
        let tm = TrafficMatrix::uniform_servers(&net, Gbps::new(1.0));
        let spine = net
            .switches()
            .find(|s| s.role == SwitchRole::Spine)
            .unwrap()
            .id;
        let impact = capacity_after_drain(&net, &tm, &[spine]);
        assert!(!impact.disconnected);
        // Losing 1 of 4 spines costs ~25% of capacity.
        let loss = impact.capacity_loss();
        assert!((loss - 0.25).abs() < 0.05, "loss {loss}");
    }

    #[test]
    fn draining_all_spines_disconnects() {
        let net = leaf_spine(4, 2, 8, 1, Gbps::new(100.0)).unwrap();
        let tm = TrafficMatrix::uniform_servers(&net, Gbps::new(1.0));
        let spines: Vec<_> = net
            .switches()
            .filter(|s| s.role == SwitchRole::Spine)
            .map(|s| s.id)
            .collect();
        let impact = capacity_after_drain(&net, &tm, &spines);
        assert!(impact.disconnected);
        assert_eq!(impact.capacity_loss(), 1.0);
    }

    #[test]
    fn draining_a_host_switch_drops_its_demands() {
        let net = leaf_spine(4, 4, 8, 1, Gbps::new(100.0)).unwrap();
        let tm = TrafficMatrix::uniform_servers(&net, Gbps::new(1.0));
        let leaf = net
            .switches()
            .find(|s| s.role == SwitchRole::Tor)
            .unwrap()
            .id;
        let impact = capacity_after_drain(&net, &tm, &[leaf]);
        assert!(!impact.disconnected);
        // Remaining 3 leaves now share 4 spines: more headroom per demand,
        // so the drained network is still feasible.
        assert!(impact.scale_after > 0.0);
    }

    #[test]
    fn self_demands_stay_connected() {
        let net = leaf_spine(4, 2, 8, 1, Gbps::new(100.0)).unwrap();
        let uniform = TrafficMatrix::uniform_servers(&net, Gbps::new(1.0));
        let leaf = net
            .switches()
            .find(|s| s.role == SwitchRole::Tor)
            .unwrap()
            .id;
        let spines: Vec<_> = net
            .switches()
            .filter(|s| s.role == SwitchRole::Spine)
            .map(|s| s.id)
            .collect();
        let mut demands = uniform.demands().to_vec();
        demands.push(Demand {
            src: leaf,
            dst: leaf,
            gbps: Gbps::new(1.0),
        });
        // A self-demand loads no link, so it changes nothing.
        let with_self = TrafficMatrix::from_demands(demands);
        assert_eq!(
            capacity_after_drain(&net, &with_self, &spines[..1]),
            capacity_after_drain(&net, &uniform, &spines[..1])
        );
        // Even on a leaf the drain cuts off from everything.
        let alone = TrafficMatrix::single(leaf, leaf, Gbps::new(1.0));
        assert_eq!(
            capacity_after_drain(&net, &alone, &spines),
            DrainImpact {
                scale_before: f64::INFINITY,
                scale_after: f64::INFINITY,
                disconnected: false,
            }
        );
    }

    #[test]
    fn unknown_switches_disconnect_demands_and_drain_nothing() {
        let net = leaf_spine(4, 2, 8, 1, Gbps::new(100.0)).unwrap();
        let uniform = TrafficMatrix::uniform_servers(&net, Gbps::new(1.0));
        let healthy = capacity_after_drain(&net, &uniform, &[]);
        assert!(!healthy.disconnected);
        assert_eq!(healthy.scale_after, healthy.scale_before);
        // Draining a switch the network does not have removes no link.
        assert_eq!(
            capacity_after_drain(&net, &uniform, &[SwitchId(999)]),
            healthy
        );
        // A demand naming one can never route.
        let leaf = net
            .switches()
            .find(|s| s.role == SwitchRole::Tor)
            .unwrap()
            .id;
        let mut demands = uniform.demands().to_vec();
        demands.push(Demand {
            src: leaf,
            dst: SwitchId(999),
            gbps: Gbps::new(1.0),
        });
        let ghost = capacity_after_drain(&net, &TrafficMatrix::from_demands(demands), &[]);
        assert_eq!(
            ghost,
            DrainImpact {
                scale_before: healthy.scale_before,
                scale_after: 0.0,
                disconnected: true,
            }
        );
    }

    #[test]
    fn concurrent_drain_budget_monotone() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let tm = TrafficMatrix::uniform_servers(&net, Gbps::new(10.0));
        // Groups: one core switch each.
        let groups: Vec<Vec<SwitchId>> = net
            .switches()
            .filter(|s| s.role == SwitchRole::Spine)
            .map(|s| vec![s.id])
            .collect();
        let strict = max_safe_concurrent_drains(&net, &tm, &groups, 1.0);
        let lax = max_safe_concurrent_drains(&net, &tm, &groups, 0.1);
        assert!(lax >= strict);
        // Draining all 4 cores disconnects pods; can never be all groups.
        assert!(lax < groups.len());
    }
}
