//! Power feeds and physical failure domains.
//!
//! The paper (§3.3) warns that "a network design that abstracts too many
//! physical details conceals physical-world failure domains (e.g., shared
//! power feeds)." This module assigns racks to redundant feeds and exposes
//! the *shared-feed* relation so the twin's SPOF analysis and the repair
//! simulator can reason about correlated failures.

use crate::hall::{Hall, SlotId};
use pd_geometry::Watts;
use std::collections::{BTreeMap, HashMap};

/// Identifier of a power feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeedId(pub u32);

impl std::fmt::Display for FeedId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "feed{}", self.0)
    }
}

/// The hall's power plan: which feeds serve which slot, and per-feed load.
#[derive(Clone)]
pub struct PowerPlan {
    /// Feed capacity (uniform across feeds).
    pub feed_capacity: Watts,
    /// Primary and secondary feed per slot.
    assignments: Vec<(FeedId, FeedId)>,
    /// Accumulated draw per feed (each slot's draw is split across its two
    /// feeds; on feed failure the survivor must carry it all, which is what
    /// [`PowerPlan::headroom_under_failure`] checks).
    load: HashMap<FeedId, Watts>,
    feeds: usize,
}

/// Prints `load` in feed order, so two equal plans print the same text.
impl std::fmt::Debug for PowerPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self {
            feed_capacity,
            assignments,
            load,
            feeds,
        } = self;
        f.debug_struct("PowerPlan")
            .field("feed_capacity", feed_capacity)
            .field("assignments", assignments)
            .field("load", &load.iter().collect::<BTreeMap<_, _>>())
            .field("feeds", feeds)
            .finish()
    }
}

impl PowerPlan {
    /// Builds the default striping: slot in row `r` gets feeds
    /// `(2r) mod feeds` and `(2r + 1) mod feeds`, so a whole row shares one
    /// A/B pair — a realistic busway layout, and a nontrivial failure
    /// domain (losing one feed degrades several rows).
    pub fn stripe_by_row(hall: &Hall) -> Self {
        let feeds = hall.spec.power_feeds.max(2);
        let assignments = hall
            .slots()
            .iter()
            .map(|s| {
                let a = FeedId(((2 * s.row) % feeds) as u32);
                let b = FeedId(((2 * s.row + 1) % feeds) as u32);
                (a, b)
            })
            .collect();
        Self {
            feed_capacity: hall.spec.feed_capacity,
            assignments,
            load: HashMap::new(),
            feeds,
        }
    }

    /// Number of distinct feeds.
    pub fn feed_count(&self) -> usize {
        self.feeds
    }

    /// The (primary, secondary) feeds of a slot.
    pub fn feeds_of(&self, slot: SlotId) -> Option<(FeedId, FeedId)> {
        self.assignments.get(slot.0).copied()
    }

    /// Registers `draw` watts of equipment at `slot`, split evenly across
    /// its two feeds.
    pub fn add_load(&mut self, slot: SlotId, draw: Watts) {
        if let Some((a, b)) = self.feeds_of(slot) {
            *self.load.entry(a).or_insert(Watts::ZERO) += draw / 2.0;
            *self.load.entry(b).or_insert(Watts::ZERO) += draw / 2.0;
        }
    }

    /// Current draw on a feed.
    pub fn feed_load(&self, feed: FeedId) -> Watts {
        self.load.get(&feed).copied().unwrap_or(Watts::ZERO)
    }

    /// True if every feed is within capacity in normal operation.
    pub fn within_capacity(&self) -> bool {
        self.load.values().all(|&w| w <= self.feed_capacity)
    }

    /// Worst-case feed load if `failed` trips and its slots fail over to
    /// their other feed. Returns the most-loaded surviving feed's
    /// (load, capacity) pair.
    pub fn headroom_under_failure(&self, failed: FeedId) -> (Watts, Watts) {
        let mut shifted: HashMap<FeedId, Watts> = self.load.clone();
        let moved = shifted.remove(&failed).unwrap_or(Watts::ZERO);
        // The failed feed's load redistributes to each affected slot's
        // partner feed. We approximate by moving the whole failed-feed load
        // to the partner feeds in proportion to their slot sharing; with
        // row striping the partner is unique.
        let partners: Vec<FeedId> = self
            .assignments
            .iter()
            .filter(|(a, b)| *a == failed || *b == failed)
            .map(|(a, b)| if *a == failed { *b } else { *a })
            .collect();
        if !partners.is_empty() {
            let share = moved / partners.len() as f64;
            for p in partners {
                *shifted.entry(p).or_insert(Watts::ZERO) += share;
            }
        }
        let worst = shifted.values().copied().fold(Watts::ZERO, |a, b| a.max(b));
        (worst, self.feed_capacity)
    }

    /// Slots that go dark if `failed` trips: those whose surviving partner
    /// feed would be pushed past capacity by absorbing the failover load.
    ///
    /// Empty when the redundancy works (every partner feed has headroom for
    /// its share of the moved load). Uses the same proportional-shift
    /// approximation as [`PowerPlan::headroom_under_failure`]; the fault
    /// injector (`pd-lifecycle`) turns the returned slots into downed
    /// switches.
    pub fn failover_dark_slots(&self, failed: FeedId) -> Vec<SlotId> {
        let moved = self.feed_load(failed);
        let partners: Vec<(SlotId, FeedId)> = self
            .assignments
            .iter()
            .enumerate()
            .filter(|(_, (a, b))| *a == failed || *b == failed)
            .map(|(i, (a, b))| (SlotId(i), if *a == failed { *b } else { *a }))
            .collect();
        if partners.is_empty() {
            return Vec::new();
        }
        let share = moved / partners.len() as f64;
        let mut shifted: HashMap<FeedId, Watts> = HashMap::new();
        for (_, p) in &partners {
            *shifted.entry(*p).or_insert_with(|| self.feed_load(*p)) += share;
        }
        partners
            .into_iter()
            .filter(|(_, p)| shifted.get(p).copied().unwrap_or(Watts::ZERO) > self.feed_capacity)
            .map(|(s, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::HallSpec;

    fn plan() -> (Hall, PowerPlan) {
        let hall = Hall::new(HallSpec {
            rows: 4,
            slots_per_row: 4,
            power_feeds: 4,
            ..HallSpec::default()
        });
        let plan = PowerPlan::stripe_by_row(&hall);
        (hall, plan)
    }

    #[test]
    fn rows_share_feed_pairs() {
        let (hall, plan) = plan();
        for s in hall.slots() {
            let (a, b) = plan.feeds_of(s.id).unwrap();
            assert_ne!(a, b, "redundant feeds must differ");
            let expect_a = FeedId(((2 * s.row) % 4) as u32);
            assert_eq!(a, expect_a);
        }
    }

    #[test]
    fn load_splits_across_feeds() {
        let (_, mut plan) = plan();
        plan.add_load(SlotId(0), Watts::new(10_000.0));
        let (a, b) = plan.feeds_of(SlotId(0)).unwrap();
        assert_eq!(plan.feed_load(a), Watts::new(5_000.0));
        assert_eq!(plan.feed_load(b), Watts::new(5_000.0));
        assert!(plan.within_capacity());
    }

    #[test]
    fn failure_shifts_load_to_partner() {
        let (_, mut plan) = plan();
        plan.add_load(SlotId(0), Watts::new(10_000.0));
        let (a, b) = plan.feeds_of(SlotId(0)).unwrap();
        let (worst, _) = plan.headroom_under_failure(a);
        // Partner feed b must now carry the full 10 kW.
        assert_eq!(worst, Watts::new(10_000.0));
        let _ = b;
    }

    #[test]
    fn failover_dark_slots_only_past_capacity() {
        let (_, mut plan) = plan();
        plan.add_load(SlotId(0), Watts::new(10_000.0));
        let (a, _) = plan.feeds_of(SlotId(0)).unwrap();
        // 10 kW fits on the partner: redundancy holds, nothing goes dark.
        assert!(plan.failover_dark_slots(a).is_empty());
        // Load the slot's pair past a single feed's capacity (default
        // HallSpec capacity is 400 kW; 900 kW split leaves 450 kW moved).
        plan.add_load(SlotId(0), Watts::new(890_000.0));
        let dark = plan.failover_dark_slots(a);
        assert!(dark.contains(&SlotId(0)), "overloaded partner goes dark");
    }

    #[test]
    fn over_capacity_detected() {
        let (_, mut plan) = plan();
        for i in 0..4 {
            plan.add_load(SlotId(i), Watts::new(900_000.0));
        }
        assert!(!plan.within_capacity());
    }
}
