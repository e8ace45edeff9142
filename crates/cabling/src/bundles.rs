//! Cable bundling: pre-built regular bundles and bundleability metrics.
//!
//! Singh et al. \[44\] (paper §3.1) report savings of "almost 40%
//! (capex + opex) and weeks of delay by using regular, pre-constructed
//! bundles of cables." A bundle is only manufacturable when many cables
//! share the same endpoints and the same length — which is exactly what
//! structured topologies produce and random graphs do not ("Jellyfish's use
//! of regular random graphs makes that 'highly non-trivial'", §4.2).
//!
//! The grouping key is `(from_slot, to_slot, ordered_length)` with slot
//! pairs normalized. The [`BundlingReport`] quantifies bundleability:
//! fraction of cables in bundles of at least `min_bundle_size`, bundle
//! count, and the distinct-bundle-SKU count a supplier would have to build.

use crate::plan::{CableRun, CablingPlan};
use pd_geometry::Meters;
use pd_physical::SlotId;
use std::collections::BTreeMap;

/// A group of cables with identical endpoints and length — a candidate
/// pre-built bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// One endpoint slot (the smaller of the normalized pair).
    pub from_slot: SlotId,
    /// The other endpoint slot.
    pub to_slot: SlotId,
    /// Common ordered cable length.
    pub length: Meters,
    /// Indices into [`CablingPlan::runs`] of the member cables.
    pub members: Vec<usize>,
}

impl Bundle {
    /// Number of cables in the bundle.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// Bundleability analysis of a cabling plan.
#[derive(Debug, Clone, PartialEq)]
pub struct BundlingReport {
    /// All groups (including singletons).
    pub bundles: Vec<Bundle>,
    /// Minimum members for a group to count as a manufacturable bundle.
    pub min_bundle_size: usize,
    /// Total cables considered.
    pub total_cables: usize,
}

impl BundlingReport {
    /// Groups a plan's runs into bundles.
    pub fn analyze(plan: &CablingPlan, min_bundle_size: usize) -> Self {
        // BTreeMap keyed on (slot, slot, length-in-mm) for deterministic
        // ordering of the output.
        let mut groups: BTreeMap<(SlotId, SlotId, u64), Vec<usize>> = BTreeMap::new();
        for (i, run) in plan.runs.iter().enumerate() {
            let (a, b) = normalize(run);
            let key = (a, b, (run.choice.ordered_length.value() * 1000.0) as u64);
            groups.entry(key).or_default().push(i);
        }
        let bundles = groups
            .into_iter()
            .map(|((a, b, len_mm), members)| Bundle {
                from_slot: a,
                to_slot: b,
                length: Meters::new(len_mm as f64 / 1000.0),
                members,
            })
            .collect();
        Self {
            bundles,
            min_bundle_size,
            total_cables: plan.runs.len(),
        }
    }

    /// Groups that qualify as manufacturable bundles.
    pub fn manufacturable(&self) -> impl Iterator<Item = &Bundle> {
        self.bundles
            .iter()
            .filter(move |b| b.size() >= self.min_bundle_size)
    }

    /// Fraction of all cables that ship inside a manufacturable bundle —
    /// the headline bundleability score (1.0 = everything pre-bundled).
    pub fn bundled_fraction(&self) -> f64 {
        if self.total_cables == 0 {
            return 0.0;
        }
        let bundled: usize = self.manufacturable().map(Bundle::size).sum();
        bundled as f64 / self.total_cables as f64
    }

    /// Number of distinct bundle SKUs a supplier must manufacture.
    pub fn bundle_sku_count(&self) -> usize {
        self.manufacturable().count()
    }
}

fn normalize(run: &CableRun) -> (SlotId, SlotId) {
    if run.from_slot <= run.to_slot {
        (run.from_slot, run.to_slot)
    } else {
        (run.to_slot, run.from_slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CablingPlan, CablingPolicy, TrayTrees};
    use pd_geometry::Gbps;
    use pd_physical::placement::EquipmentProfile;
    use pd_physical::{Hall, HallSpec, Placement, PlacementStrategy};
    use pd_topology::gen::{fat_tree, jellyfish, JellyfishParams};
    use pd_topology::Network;

    fn plan_for(net: &Network, strategy: PlacementStrategy) -> CablingPlan {
        let hall = Hall::new(HallSpec::default());
        let placement =
            Placement::place(net, &hall, strategy, &EquipmentProfile::default()).unwrap();
        let trees = TrayTrees::new(&hall);
        CablingPlan::build(net, &hall, &placement, &CablingPolicy::default(), &trees)
    }

    #[test]
    fn every_cable_in_exactly_one_group() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let plan = plan_for(&net, PlacementStrategy::BlockLocal);
        let rep = BundlingReport::analyze(&plan, 4);
        let total: usize = rep.bundles.iter().map(Bundle::size).sum();
        assert_eq!(total, plan.runs.len());
        // Each member index appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for b in &rep.bundles {
            for &m in &b.members {
                assert!(seen.insert(m));
            }
        }
    }

    #[test]
    fn clos_bundles_better_than_jellyfish() {
        // The §4.2 discriminator, as a unit test.
        let ft = fat_tree(8, Gbps::new(100.0)).unwrap();
        let jf = jellyfish(&JellyfishParams {
            tors: 80,
            network_degree: 8,
            servers_per_tor: 8,
            link_speed: Gbps::new(100.0),
            seed: 4,
        })
        .unwrap();
        let rep_ft = BundlingReport::analyze(&plan_for(&ft, PlacementStrategy::BlockLocal), 4);
        let rep_jf = BundlingReport::analyze(&plan_for(&jf, PlacementStrategy::BlockLocal), 4);
        assert!(
            rep_ft.bundled_fraction() > rep_jf.bundled_fraction(),
            "fat-tree {:.2} must out-bundle jellyfish {:.2}",
            rep_ft.bundled_fraction(),
            rep_jf.bundled_fraction()
        );
    }

    #[test]
    fn bundle_accounting_consistent() {
        let net = fat_tree(6, Gbps::new(100.0)).unwrap();
        let plan = plan_for(&net, PlacementStrategy::BlockLocal);
        let rep = BundlingReport::analyze(&plan, 4);
        assert!(rep.bundled_fraction() >= 0.0 && rep.bundled_fraction() <= 1.0);
    }

    #[test]
    fn min_size_one_bundles_everything() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let plan = plan_for(&net, PlacementStrategy::BlockLocal);
        let rep = BundlingReport::analyze(&plan, 1);
        assert_eq!(rep.bundled_fraction(), 1.0);
    }
}

/// A block-pair cable harness: all cables between one pair of deployment
/// blocks, regardless of exact length.
///
/// This is the *weaker* bundleability the Xpander and FatClique papers
/// claim over Jellyfish (paper §4.2): cables between two structured groups
/// share a route and can be pre-built as a harness with staggered breakout
/// lengths, even when individual lengths differ. Jellyfish, whose "blocks"
/// are single ToRs, produces only singleton groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Harness {
    /// One block of the pair (raw id; `u32::MAX` = unblocked).
    pub block_a: u32,
    /// The other block.
    pub block_b: u32,
    /// Indices into the plan's runs.
    pub members: Vec<usize>,
}

/// Harness-level bundleability analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessReport {
    /// All block-pair groups (including singletons).
    pub harnesses: Vec<Harness>,
    /// Minimum members for a manufacturable harness.
    pub min_size: usize,
    /// Total cables considered.
    pub total_cables: usize,
}

impl HarnessReport {
    /// Groups a plan's runs by the *block pair* of the realized link.
    pub fn analyze(plan: &CablingPlan, net: &pd_topology::Network, min_size: usize) -> Self {
        let block_of = |s: pd_topology::SwitchId| -> u32 {
            net.switch(s)
                .and_then(|s| s.block)
                .map(|b| b.0)
                .unwrap_or(u32::MAX)
        };
        let mut groups: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        for (i, run) in plan.runs.iter().enumerate() {
            let Some(link) = net.link(run.link) else {
                continue;
            };
            let (a, b) = (block_of(link.a), block_of(link.b));
            let key = (a.min(b), a.max(b));
            groups.entry(key).or_default().push(i);
        }
        Self {
            harnesses: groups
                .into_iter()
                .map(|((a, b), members)| Harness {
                    block_a: a,
                    block_b: b,
                    members,
                })
                .collect(),
            min_size,
            total_cables: plan.runs.len(),
        }
    }

    /// Fraction of cables that belong to a harness of at least `min_size`.
    pub fn harness_fraction(&self) -> f64 {
        if self.total_cables == 0 {
            return 0.0;
        }
        let covered: usize = self
            .harnesses
            .iter()
            .filter(|h| h.members.len() >= self.min_size)
            .map(|h| h.members.len())
            .sum();
        covered as f64 / self.total_cables as f64
    }
}

#[cfg(test)]
mod harness_tests {
    use super::*;
    use crate::plan::{CablingPlan, CablingPolicy, TrayTrees};
    use pd_geometry::Gbps;
    use pd_physical::placement::EquipmentProfile;
    use pd_physical::{Hall, HallSpec, Placement, PlacementStrategy};
    use pd_topology::gen::{jellyfish, xpander, JellyfishParams, XpanderParams};
    use pd_topology::Network;

    fn plan_for(net: &Network) -> CablingPlan {
        let hall = Hall::new(HallSpec::default());
        let placement = Placement::place(
            net,
            &hall,
            PlacementStrategy::BlockLocal,
            &EquipmentProfile::default(),
        )
        .unwrap();
        let trees = TrayTrees::new(&hall);
        CablingPlan::build(net, &hall, &placement, &CablingPolicy::default(), &trees)
    }

    #[test]
    fn xpander_harnesses_but_jellyfish_does_not() {
        // The §4.2 claim: Xpander's metanode structure supports bundling;
        // Jellyfish's per-ToR randomness does not.
        let xp = xpander(&XpanderParams {
            network_degree: 8,
            lift: 8,
            servers_per_tor: 8,
            link_speed: Gbps::new(100.0),
            seed: 3,
        })
        .unwrap();
        let jf = jellyfish(&JellyfishParams {
            tors: 72,
            network_degree: 8,
            servers_per_tor: 8,
            link_speed: Gbps::new(100.0),
            seed: 3,
        })
        .unwrap();
        let hx = HarnessReport::analyze(&plan_for(&xp), &xp, 4);
        let hj = HarnessReport::analyze(&plan_for(&jf), &jf, 4);
        assert!(
            hx.harness_fraction() > 0.9,
            "xpander metanode pairs each hold `lift` cables: {}",
            hx.harness_fraction()
        );
        assert!(
            hj.harness_fraction() < 0.1,
            "jellyfish block pairs are singletons: {}",
            hj.harness_fraction()
        );
    }

    #[test]
    fn harness_partition_is_exact() {
        let xp = xpander(&XpanderParams {
            network_degree: 5,
            lift: 4,
            servers_per_tor: 4,
            link_speed: Gbps::new(100.0),
            seed: 1,
        })
        .unwrap();
        let plan = plan_for(&xp);
        let rep = HarnessReport::analyze(&plan, &xp, 4);
        let total: usize = rep.harnesses.iter().map(|h| h.members.len()).sum();
        assert_eq!(total, plan.runs.len());
    }
}
