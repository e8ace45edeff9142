//! Placement: mapping abstract switches onto racks and floor slots.
//!
//! Placement policy is one of the quiet determinants of physical
//! deployability: the same topology placed block-locally produces short,
//! bundleable cable runs, while a scattered placement of the *same* graph
//! produces a cabling nightmare (the Jellyfish problem, paper §4.2).
//!
//! Physicalization rules (documented simplifications):
//!
//! * ToR and flat-ToR switches top a server rack: **one per rack**, with the
//!   rack's server power draw accounted alongside.
//! * Aggregation/spine switches are packed into dedicated network racks,
//!   several per rack as RU/weight/power budgets allow.
//! * Racks are assigned to floor slots by the chosen
//!   [`PlacementStrategy`]; a bounded local search
//!   ([`Placement::improve`]) then swaps rack positions to shorten the
//!   total expected cable length.

use crate::hall::{Hall, SlotId};
use crate::power::PowerPlan;
use crate::rack::{EquipmentKind, Rack, RackId};
use pd_geometry::{Kilograms, Meters, Point2, Watts};
use pd_topology::{Network, SwitchId, SwitchRole};
use std::collections::{BTreeMap, HashMap};

/// How a switch of a given radix physicalizes (RU, weight, power).
///
/// Defaults follow common merchant-silicon boxes: 1 RU up to radix 32,
/// 2 RU up to 64, 4 RU chassis above.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct EquipmentProfile {
    /// Power drawn by one server (used for feed loading of ToR racks:
    /// draw = servers under the ToR × this).
    pub watts_per_server: Watts,
    /// Aggregation/spine switches packed per network rack (upper bound; RU
    /// and power budgets may bind first).
    pub switches_per_network_rack: u16,
}

impl Default for EquipmentProfile {
    fn default() -> Self {
        Self {
            watts_per_server: Watts::new(400.0),
            switches_per_network_rack: 8,
        }
    }
}

impl EquipmentProfile {
    /// (RU, weight, power) for a switch of `radix`.
    pub fn switch_shape(&self, radix: u16) -> (u16, Kilograms, Watts) {
        if radix <= 32 {
            (1, Kilograms::new(10.0), Watts::new(350.0))
        } else if radix <= 64 {
            (2, Kilograms::new(20.0), Watts::new(800.0))
        } else {
            (4, Kilograms::new(45.0), Watts::new(1_800.0))
        }
    }
}

/// Strategy for assigning racks to floor slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Racks of the same deployment block occupy consecutive slots;
    /// spine/core racks are placed in the centre rows (shortest average
    /// reach to all pods).
    BlockLocal,
    /// Racks fill slots in switch-id order with no block awareness.
    Linear,
    /// Racks are assigned to slots pseudo-randomly (seeded). The worst
    /// case — what the paper's cabling horror stories look like.
    Scattered(u64),
}

/// Errors from placement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// More racks are needed than the hall has slots.
    NotEnoughSlots {
        /// Racks required.
        needed: usize,
        /// Slots available.
        available: usize,
    },
    /// A switch could not be installed in any rack.
    InstallFailed(String),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NotEnoughSlots { needed, available } => {
                write!(f, "need {needed} rack slots, hall has {available}")
            }
            PlacementError::InstallFailed(m) => write!(f, "install failed: {m}"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// The result of placement: racks, their slots, and the switch → rack map.
#[derive(Clone)]
pub struct Placement {
    /// All racks, indexed by `RackId.0`.
    pub racks: Vec<Rack>,
    /// Switch → rack containing it.
    pub rack_of_switch: HashMap<SwitchId, RackId>,
    /// The power plan with all equipment load registered.
    pub power: PowerPlan,
    /// Strategy used (for reports).
    pub strategy: PlacementStrategy,
}

/// Prints `rack_of_switch` in switch order, so two equal placements print
/// the same text.
impl std::fmt::Debug for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self {
            racks,
            rack_of_switch,
            power,
            strategy,
        } = self;
        f.debug_struct("Placement")
            .field("racks", racks)
            .field(
                "rack_of_switch",
                &rack_of_switch.iter().collect::<BTreeMap<_, _>>(),
            )
            .field("power", power)
            .field("strategy", strategy)
            .finish()
    }
}

impl Placement {
    /// Places every switch of `net` into racks and slots of `hall`.
    pub fn place(
        net: &Network,
        hall: &Hall,
        strategy: PlacementStrategy,
        profile: &EquipmentProfile,
    ) -> Result<Self, PlacementError> {
        // 1. Partition switches into rack loads.
        let mut rack_loads: Vec<Vec<SwitchId>> = Vec::new(); // racks as switch groups
        let mut rack_block_key: Vec<(u8, u32)> = Vec::new(); // (layer-class, block) per rack
        let mut tor_racks = 0usize;

        // Group switches by block for block-aware packing.
        let mut order: Vec<&pd_topology::Switch> = net.switches().collect();
        order.sort_by_key(|s| (s.block.map(|b| b.0).unwrap_or(u32::MAX), s.id));

        let mut open_network_rack: HashMap<u32, usize> = HashMap::new(); // block → rack idx
        for s in &order {
            match s.role {
                SwitchRole::Tor | SwitchRole::FlatTor => {
                    rack_loads.push(vec![s.id]);
                    rack_block_key.push((0, s.block.map(|b| b.0).unwrap_or(u32::MAX)));
                    tor_racks += 1;
                }
                SwitchRole::Aggregation | SwitchRole::Spine => {
                    let key = s.block.map(|b| b.0).unwrap_or(u32::MAX);
                    let idx = match open_network_rack.get(&key) {
                        Some(&i)
                            if rack_loads[i].len()
                                < usize::from(profile.switches_per_network_rack) =>
                        {
                            i
                        }
                        _ => {
                            rack_loads.push(Vec::new());
                            rack_block_key.push((1, key));
                            let i = rack_loads.len() - 1;
                            open_network_rack.insert(key, i);
                            i
                        }
                    };
                    rack_loads[idx].push(s.id);
                }
            }
        }
        let _ = tor_racks;

        if rack_loads.len() > hall.slot_count() {
            return Err(PlacementError::NotEnoughSlots {
                needed: rack_loads.len(),
                available: hall.slot_count(),
            });
        }

        // 2. Order racks per strategy and assign slots in that order.
        let mut rack_order: Vec<usize> = (0..rack_loads.len()).collect();
        match strategy {
            PlacementStrategy::Linear => {}
            PlacementStrategy::BlockLocal => {
                // Keep blocks contiguous; spine/core racks (those whose
                // switches are layer ≥ 2) sort to the middle by giving them
                // a key near the median block.
                let layer_of = |idx: usize| -> u8 {
                    rack_loads[idx]
                        .first()
                        .and_then(|&s| net.switch(s))
                        .map(|s| s.layer)
                        .unwrap_or(0)
                };
                rack_order.sort_by_key(|&i| {
                    let (class, block) = rack_block_key[i];
                    let spine = u8::from(layer_of(i) >= 2);
                    // Blocks in order; within a block ToR racks before
                    // network racks; spine blocks in the middle of the hall
                    // handled below by slot interleaving.
                    (spine, block, class)
                });
            }
            PlacementStrategy::Scattered(seed) => {
                let mut rng = pd_topology::gen::SplitMix64::new(seed);
                rng.shuffle(&mut rack_order);
            }
        }

        // Slot assignment happens in two passes. Pass 1: non-spine racks
        // take slots in strategy order — contiguous row-major for
        // BlockLocal/Linear (locality is what enables short runs and
        // bundling), a full-hall shuffle for Scattered (the worst case the
        // paper's cabling stories describe). Pass 2 (BlockLocal only):
        // spine/core racks take the unused slots nearest the *centroid of
        // the pod racks*, minimizing their average reach to every pod.
        let is_spine = |i: usize| -> bool {
            rack_loads[i]
                .first()
                .and_then(|&s| net.switch(s))
                .map(|s| s.layer >= 2)
                .unwrap_or(false)
        };
        let slot_seq: Vec<SlotId> = match strategy {
            PlacementStrategy::Scattered(seed) => {
                let mut ids: Vec<SlotId> = hall.slots().iter().map(|s| s.id).collect();
                let mut rng = pd_topology::gen::SplitMix64::new(seed ^ 0x5CA77E12);
                rng.shuffle(&mut ids);
                ids
            }
            _ => hall.slots().iter().map(|s| s.id).collect(),
        };
        let spine_rack_count = rack_order.iter().filter(|&&i| is_spine(i)).count();
        let spine_slots: Vec<SlotId> = if matches!(strategy, PlacementStrategy::BlockLocal) {
            let pod_rack_count = rack_loads.len() - spine_rack_count;
            let pod_region: Vec<Point2> = slot_seq
                .iter()
                .take(pod_rack_count)
                .filter_map(|&id| hall.slot(id).map(|s| s.center))
                .collect();
            let centroid = if pod_region.is_empty() {
                Point2::ORIGIN
            } else {
                let n = pod_region.len() as f64;
                Point2 {
                    x: pod_region.iter().map(|p| p.x).sum::<Meters>() / n,
                    y: pod_region.iter().map(|p| p.y).sum::<Meters>() / n,
                }
            };
            let mut rest: Vec<SlotId> = slot_seq.iter().copied().skip(pod_rack_count).collect();
            // Total ordering even for stale slot ids: unknown slots sort
            // last instead of panicking mid-comparison.
            let dist = |id: SlotId| {
                hall.slot(id)
                    .map(|s| s.center.manhattan(centroid))
                    .unwrap_or(Meters::new(f64::MAX))
            };
            rest.sort_by(|a, b| dist(*a).total_cmp(&dist(*b)).then(a.cmp(b)));
            rest.into_iter().take(spine_rack_count).collect()
        } else {
            Vec::new()
        };
        let mut racks: Vec<Rack> = Vec::with_capacity(rack_loads.len());
        let mut rack_of_switch = HashMap::new();
        let mut power = PowerPlan::stripe_by_row(hall);
        let mut front = 0usize;
        let mut spine_front = 0usize;
        for &load_idx in &rack_order {
            let is_spine_rack = rack_loads[load_idx]
                .first()
                .and_then(|&s| net.switch(s))
                .map(|s| s.layer >= 2)
                .unwrap_or(false);
            let slot = if matches!(strategy, PlacementStrategy::BlockLocal) && is_spine_rack {
                let s = *spine_slots.get(spine_front).ok_or_else(|| {
                    PlacementError::InstallFailed(format!(
                        "no spine slot left for rack {} of {}",
                        spine_front + 1,
                        spine_rack_count
                    ))
                })?;
                spine_front += 1;
                s
            } else {
                let s = *slot_seq.get(front).ok_or_else(|| {
                    PlacementError::InstallFailed(format!(
                        "no hall slot left for rack {} of {}",
                        front + 1,
                        rack_loads.len()
                    ))
                })?;
                front += 1;
                s
            };
            let rid = RackId(racks.len() as u32);
            let mut rack = Rack::new(rid, slot, hall.spec.rack);
            let mut rack_power = Watts::ZERO;
            for &sid in &rack_loads[load_idx] {
                let sw = net.switch(sid).ok_or_else(|| {
                    PlacementError::InstallFailed(format!("{sid} vanished from the network"))
                })?;
                let (ru, weight, draw) = profile.switch_shape(sw.radix);
                rack.install(EquipmentKind::Switch(sid.0), ru, weight, draw)
                    .map_err(|e| {
                        PlacementError::InstallFailed(format!("{} into {rid}: {e}", sw.name))
                    })?;
                rack_power += draw;
                if matches!(sw.role, SwitchRole::Tor | SwitchRole::FlatTor) {
                    rack_power += profile.watts_per_server * f64::from(sw.server_ports);
                }
                rack_of_switch.insert(sid, rid);
            }
            power.add_load(slot, rack_power);
            racks.push(rack);
        }

        Ok(Self {
            racks,
            rack_of_switch,
            power,
            strategy,
        })
    }

    /// The rack containing a switch.
    pub fn rack_of(&self, s: SwitchId) -> Option<&Rack> {
        self.rack_of_switch
            .get(&s)
            .and_then(|r| self.racks.get(r.0 as usize))
    }

    /// The floor slot of a switch.
    pub fn slot_of(&self, s: SwitchId) -> Option<SlotId> {
        self.rack_of(s).map(|r| r.slot)
    }

    /// Sum over all links of the slot-to-slot Manhattan distance — the
    /// cabling lower bound this placement implies (same-rack links count 0).
    pub fn wiring_lower_bound(&self, net: &Network, hall: &Hall) -> Meters {
        net.links()
            .filter_map(|l| {
                let (a, b) = (self.slot_of(l.a)?, self.slot_of(l.b)?);
                hall.slot_distance(a, b).map(|d| d * f64::from(l.trunking))
            })
            .sum()
    }

    /// Bounded local search: try `iterations` random rack-slot swaps and
    /// keep those that reduce [`Self::wiring_lower_bound`]. Returns the
    /// final bound. Deterministic in `seed`.
    pub fn improve(&mut self, net: &Network, hall: &Hall, iterations: usize, seed: u64) -> Meters {
        let mut rng = pd_topology::gen::SplitMix64::new(seed);
        let mut best = self.wiring_lower_bound(net, hall);
        if self.racks.len() < 2 {
            return best;
        }
        for _ in 0..iterations {
            let i = rng.below(self.racks.len());
            let mut j = rng.below(self.racks.len());
            while j == i {
                j = rng.below(self.racks.len());
            }
            let (si, sj) = (self.racks[i].slot, self.racks[j].slot);
            self.racks[i].slot = sj;
            self.racks[j].slot = si;
            let cand = self.wiring_lower_bound(net, hall);
            if cand < best {
                best = cand;
            } else {
                self.racks[i].slot = si;
                self.racks[j].slot = sj;
            }
        }
        best
    }

    /// Number of racks used.
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::HallSpec;
    use pd_geometry::Gbps;
    use pd_topology::gen::{fat_tree, jellyfish, JellyfishParams};

    fn hall() -> Hall {
        Hall::new(HallSpec::default()) // 200 slots
    }

    #[test]
    fn fat_tree_block_local_placement() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let p = Placement::place(
            &net,
            &hall(),
            PlacementStrategy::BlockLocal,
            &EquipmentProfile::default(),
        )
        .unwrap();
        // 8 ToR racks + network racks for 8 aggs + 4 cores (≤8/rack, by block):
        // each pod's 2 aggs share a rack (4 racks) + 1 core rack = 13 racks.
        assert_eq!(p.rack_count(), 13);
        // Every switch is placed exactly once.
        assert_eq!(p.rack_of_switch.len(), net.switch_count());
        for s in net.switches() {
            assert!(p.slot_of(s.id).is_some());
        }
        assert!(p.power.within_capacity());
    }

    #[test]
    fn block_local_beats_scattered_on_wiring() {
        let net = fat_tree(8, Gbps::new(100.0)).unwrap();
        let h = hall();
        let prof = EquipmentProfile::default();
        let local = Placement::place(&net, &h, PlacementStrategy::BlockLocal, &prof).unwrap();
        let scat = Placement::place(&net, &h, PlacementStrategy::Scattered(7), &prof).unwrap();
        let wl = local.wiring_lower_bound(&net, &h);
        let ws = scat.wiring_lower_bound(&net, &h);
        assert!(wl < ws, "block-local {wl} should beat scattered {ws}");
    }

    #[test]
    fn improve_never_worsens_and_is_deterministic() {
        let net = jellyfish(&JellyfishParams {
            tors: 32,
            network_degree: 6,
            servers_per_tor: 4,
            link_speed: Gbps::new(100.0),
            seed: 2,
        })
        .unwrap();
        let h = hall();
        let prof = EquipmentProfile::default();
        let mut a = Placement::place(&net, &h, PlacementStrategy::Linear, &prof).unwrap();
        let before = a.wiring_lower_bound(&net, &h);
        let after = a.improve(&net, &h, 300, 11);
        assert!(after <= before);

        let mut b = Placement::place(&net, &h, PlacementStrategy::Linear, &prof).unwrap();
        let after_b = b.improve(&net, &h, 300, 11);
        assert_eq!(after, after_b, "improvement must be seed-deterministic");
    }

    #[test]
    fn too_small_hall_errors() {
        let net = fat_tree(8, Gbps::new(100.0)).unwrap();
        let tiny = Hall::new(HallSpec {
            rows: 2,
            slots_per_row: 4,
            ..HallSpec::default()
        });
        let err = Placement::place(
            &net,
            &tiny,
            PlacementStrategy::Linear,
            &EquipmentProfile::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PlacementError::NotEnoughSlots { .. }));
    }

    #[test]
    fn tor_racks_hold_one_switch_each() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let p = Placement::place(
            &net,
            &hall(),
            PlacementStrategy::Linear,
            &EquipmentProfile::default(),
        )
        .unwrap();
        for s in net.switches() {
            if s.role == SwitchRole::Tor {
                let rack = p.rack_of(s.id).unwrap();
                assert_eq!(rack.switch_ids().len(), 1);
            }
        }
    }

    #[test]
    fn no_two_racks_share_a_slot() {
        let net = fat_tree(6, Gbps::new(100.0)).unwrap();
        for strat in [
            PlacementStrategy::BlockLocal,
            PlacementStrategy::Linear,
            PlacementStrategy::Scattered(3),
        ] {
            let p = Placement::place(&net, &hall(), strat, &EquipmentProfile::default()).unwrap();
            let mut seen = std::collections::HashSet::new();
            for r in &p.racks {
                assert!(seen.insert(r.slot), "{strat:?}: duplicate slot {}", r.slot);
            }
        }
    }
}
