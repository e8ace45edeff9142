//! The explorable parameter space and its enumeration strategies.
//!
//! A [`ParamSpace`] is the Cartesian product of the design knobs the paper's
//! research agenda asks to sweep (§5.2/§5.4): topology family, target
//! server count, link speed, construction seed, hall geometry, cabling
//! media policy, and the fault-scenario ensemble size. A [`Point`] is one
//! coordinate in that product; [`Point::spec`] materializes it into the
//! [`DesignSpec`] the pipeline evaluates, and [`Point::key`] gives the
//! stable FNV-1a identity the checkpoint file dedups on.
//!
//! A [`Strategy`] turns the space into an ordered candidate list: full
//! [`Strategy::Grid`] enumeration, seeded [`Strategy::Random`] subsampling,
//! or [`Strategy::Adaptive`] successive halving (cheap generation +
//! placement proxies first, full pipeline only for promoted survivors —
//! see `runner`). All three are pure functions of their parameters, so a
//! plan is byte-identical across runs, job counts, and resumes.

use pd_core::compare;
use pd_core::design::{DesignSpec, TopologySpec};
use pd_geometry::Gbps;
use pd_physical::HallSpec;
use pd_topology::gen::{cache_key, SplitMix64};

/// A topology family the search can instantiate, in `pd_core::compare`'s
/// presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Canonical k-ary fat-tree.
    FatTree,
    /// Parameterized folded Clos.
    FoldedClos,
    /// Two-tier leaf-spine.
    LeafSpine,
    /// Jellyfish random regular graph.
    Jellyfish,
    /// Xpander k-lift.
    Xpander,
    /// Slim Fly MMS graph.
    SlimFly,
    /// 2D flattened butterfly.
    FlattenedButterfly,
    /// FatClique hierarchical cliques.
    FatClique,
    /// Direct-connect blocks over an OCS layer.
    DirectConnect,
}

impl Family {
    /// Every family, in presentation order (the order envelope summaries
    /// and frontier tables list them in).
    pub const ALL: [Family; 9] = [
        Family::FatTree,
        Family::FoldedClos,
        Family::LeafSpine,
        Family::Jellyfish,
        Family::Xpander,
        Family::SlimFly,
        Family::FlattenedButterfly,
        Family::FatClique,
        Family::DirectConnect,
    ];

    /// The short report name (matches [`TopologySpec::family`]).
    pub fn name(self) -> &'static str {
        match self {
            Family::FatTree => "fat-tree",
            Family::FoldedClos => "folded-clos",
            Family::LeafSpine => "leaf-spine",
            Family::Jellyfish => "jellyfish",
            Family::Xpander => "xpander",
            Family::SlimFly => "slimfly",
            Family::FlattenedButterfly => "flat-bf",
            Family::FatClique => "fatclique",
            Family::DirectConnect => "direct-connect",
        }
    }

    /// Parses the short report name back to a family — the inverse of
    /// [`Family::name`], used by wire protocols (pd-serve) and CLI flags.
    /// `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Builds the size-normalized topology sub-spec for this family (the
    /// `pd_core::compare` constructors; `seed` only matters to the
    /// randomized families).
    pub fn topology(self, target_servers: usize, speed: Gbps, seed: u64) -> TopologySpec {
        match self {
            Family::FatTree => compare::fat_tree_near(target_servers, speed),
            Family::FoldedClos => compare::folded_clos_near(target_servers, speed),
            Family::LeafSpine => compare::leaf_spine_near(target_servers, speed),
            Family::Jellyfish => compare::jellyfish_near(target_servers, speed, seed),
            Family::Xpander => compare::xpander_near(target_servers, speed, seed),
            Family::SlimFly => compare::slimfly_near(target_servers, speed),
            Family::FlattenedButterfly => compare::flattened_butterfly_near(target_servers, speed),
            Family::FatClique => compare::fatclique_near(target_servers, speed),
            Family::DirectConnect => compare::direct_connect_near(target_servers, speed),
        }
    }
}

/// Named hall geometries the space can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HallVariant {
    /// The workspace default hall (10 rows × 20 slots).
    Standard,
    /// A floor-constrained hall (8 rows × 14 slots): placement pressure —
    /// the knob that drives families into their feasibility boundary.
    Dense,
    /// A long, narrow hall (4 rows × 50 slots): the same slot count as
    /// `Standard` but stretched, stressing cable reach and tray runs.
    Long,
}

impl HallVariant {
    /// Every variant, in declaration order.
    pub const ALL: [HallVariant; 3] =
        [HallVariant::Standard, HallVariant::Dense, HallVariant::Long];

    /// Parses a variant name — either the canonical [`HallVariant::name`]
    /// (`"hall-std"`) or its unprefixed tail (`"std"`). `None` for unknown
    /// names.
    pub fn from_name(name: &str) -> Option<HallVariant> {
        HallVariant::ALL
            .into_iter()
            .find(|h| h.name() == name || h.name().strip_prefix("hall-") == Some(name))
    }

    /// Display name (used in point labels and JSONL records).
    pub fn name(self) -> &'static str {
        match self {
            HallVariant::Standard => "hall-std",
            HallVariant::Dense => "hall-dense",
            HallVariant::Long => "hall-long",
        }
    }

    /// The concrete hall specification.
    pub fn spec(self) -> HallSpec {
        match self {
            HallVariant::Standard => HallSpec::default(),
            HallVariant::Dense => HallSpec {
                rows: 8,
                slots_per_row: 14,
                ..HallSpec::default()
            },
            HallVariant::Long => HallSpec {
                rows: 4,
                slots_per_row: 50,
                ..HallSpec::default()
            },
        }
    }
}

/// Named cabling-media policies the space can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaPolicy {
    /// The default catalog, OCS indirection.
    Standard,
    /// Reach derated to 0.8 — designing to the second-best vendor's part
    /// (§2.2 fungibility), which pushes marginal runs to pricier media.
    DeratedReach,
    /// Indirection through passive patch panels instead of OCS.
    PatchPanel,
}

impl MediaPolicy {
    /// Every policy, in declaration order.
    pub const ALL: [MediaPolicy; 3] = [
        MediaPolicy::Standard,
        MediaPolicy::DeratedReach,
        MediaPolicy::PatchPanel,
    ];

    /// Parses a policy name — either the canonical [`MediaPolicy::name`]
    /// (`"media-std"`) or its unprefixed tail (`"std"`). `None` for
    /// unknown names.
    pub fn from_name(name: &str) -> Option<MediaPolicy> {
        MediaPolicy::ALL
            .into_iter()
            .find(|m| m.name() == name || m.name().strip_prefix("media-") == Some(name))
    }

    /// Display name (used in point labels and JSONL records).
    pub fn name(self) -> &'static str {
        match self {
            MediaPolicy::Standard => "media-std",
            MediaPolicy::DeratedReach => "media-derated",
            MediaPolicy::PatchPanel => "media-panel",
        }
    }

    /// The concrete cabling policy.
    pub fn policy(self) -> pd_cabling::CablingPolicy {
        let mut p = pd_cabling::CablingPolicy::default();
        match self {
            MediaPolicy::Standard => {}
            MediaPolicy::DeratedReach => p.catalog.reach_derating = 0.8,
            MediaPolicy::PatchPanel => p.indirection_kind = pd_cabling::IndirectionKind::PatchPanel,
        }
        p
    }
}

/// How many Monte-Carlo trials each evaluated point runs. Search sweeps
/// default to a lighter profile than single-design evaluation: points are
/// compared against each other under identical settings, so the absolute
/// confidence of any one estimate matters less than covering the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialProfile {
    /// Yield-simulation trials per point.
    pub yield_trials: usize,
    /// Repair-simulation trials per point.
    pub repair_trials: usize,
}

impl Default for TrialProfile {
    fn default() -> Self {
        Self {
            yield_trials: 10,
            repair_trials: 3,
        }
    }
}

/// One coordinate in the design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Topology family.
    pub family: Family,
    /// Target server count (families round up per their granularity).
    pub servers: usize,
    /// Link speed in Gbps.
    pub speed_gbps: f64,
    /// Construction + sampling seed.
    pub seed: u64,
    /// Hall geometry.
    pub hall: HallVariant,
    /// Cabling media policy.
    pub media: MediaPolicy,
    /// Fault-sweep ensemble size (0 = sweep off).
    pub fault_scenarios: usize,
}

impl Point {
    /// Human-readable label; also the canonical encoding [`Point::key`]
    /// hashes and the `name` the materialized [`DesignSpec`] carries.
    pub fn label(&self) -> String {
        format!(
            "{}/s{}/g{}/x{}/{}/{}/f{}",
            self.family.name(),
            self.servers,
            // Speeds are catalog values (10/25/100/…): render integers
            // without a trailing ".0" so labels stay stable and readable.
            if self.speed_gbps.fract() == 0.0 {
                format!("{}", self.speed_gbps as u64)
            } else {
                format!("{}", self.speed_gbps)
            },
            self.seed,
            self.hall.name(),
            self.media.name(),
            self.fault_scenarios,
        )
    }

    /// The stable identity of this point's evaluation: an FNV-1a hash of
    /// the canonical label plus the trial profile (the full effective
    /// spec). Checkpoint resume dedups completed work on this key, and two
    /// runs of the same space always agree on it.
    pub fn key(&self, trials: &TrialProfile) -> u64 {
        cache_key(
            format!(
                "{}|y{}|r{}",
                self.label(),
                trials.yield_trials,
                trials.repair_trials
            )
            .as_bytes(),
        )
    }

    /// Materializes the full design specification for this point.
    pub fn spec(&self, trials: &TrialProfile) -> DesignSpec {
        let speed = Gbps::new(self.speed_gbps);
        let mut s = DesignSpec::new(
            self.label(),
            self.family.topology(self.servers, speed, self.seed),
        );
        s.hall = self.hall.spec();
        s.cabling = self.media.policy();
        s.seed = self.seed;
        s.yields.trials = trials.yield_trials;
        s.repair.trials = trials.repair_trials;
        if self.fault_scenarios > 0 {
            s.fault_scenarios = pd_lifecycle::FaultSweepParams {
                scenarios: self.fault_scenarios,
                max_domains: 2,
                seed: self.seed,
            };
        }
        s
    }
}

/// The Cartesian design space: one `Vec` per knob. Empty knob lists make
/// the space empty (len 0), never a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    /// Families to explore.
    pub families: Vec<Family>,
    /// Target server counts, conventionally ascending (the envelope mapper
    /// walks them in sorted order regardless).
    pub servers: Vec<usize>,
    /// Link speeds (Gbps).
    pub speeds: Vec<f64>,
    /// Construction seeds.
    pub seeds: Vec<u64>,
    /// Hall geometries.
    pub halls: Vec<HallVariant>,
    /// Cabling media policies.
    pub media: Vec<MediaPolicy>,
    /// Fault-scenario ensemble sizes (0 = off).
    pub fault_scenarios: Vec<usize>,
    /// Monte-Carlo trial profile applied to every point.
    pub trials: TrialProfile,
}

impl Default for ParamSpace {
    /// Every family at the two E6-bracketing sizes, default knobs
    /// otherwise, with a small fault ensemble so the fault-retention axis
    /// is populated.
    fn default() -> Self {
        Self {
            families: Family::ALL.to_vec(),
            servers: vec![256, 512],
            speeds: vec![100.0],
            seeds: vec![11],
            halls: vec![HallVariant::Standard],
            media: vec![MediaPolicy::Standard],
            fault_scenarios: vec![2],
            trials: TrialProfile::default(),
        }
    }
}

impl ParamSpace {
    /// Total points in the full grid.
    pub fn len(&self) -> usize {
        self.families.len()
            * self.servers.len()
            * self.speeds.len()
            * self.seeds.len()
            * self.halls.len()
            * self.media.len()
            * self.fault_scenarios.len()
    }

    /// Whether the grid is empty (any knob list empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes grid index `i` (mixed-radix, family slowest / fault count
    /// fastest). Panics if `i ≥ len()`.
    pub fn point(&self, i: usize) -> Point {
        assert!(i < self.len(), "point index {i} out of range");
        let mut rest = i;
        let mut take = |n: usize| {
            let idx = rest % n;
            rest /= n;
            idx
        };
        // Fastest-varying knob first (innermost loop of the enumeration).
        let faults = take(self.fault_scenarios.len());
        let media = take(self.media.len());
        let hall = take(self.halls.len());
        let seed = take(self.seeds.len());
        let speed = take(self.speeds.len());
        let servers = take(self.servers.len());
        let family = take(self.families.len());
        Point {
            family: self.families[family],
            servers: self.servers[servers],
            speed_gbps: self.speeds[speed],
            seed: self.seeds[seed],
            hall: self.halls[hall],
            media: self.media[media],
            fault_scenarios: self.fault_scenarios[faults],
        }
    }

    /// Iterates the full grid in index order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.len()).map(|i| self.point(i))
    }
}

/// How to pick candidate points out of the space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Full grid enumeration in index order, optionally truncated to the
    /// first `budget` points.
    Grid {
        /// Maximum points to evaluate (`None` = whole grid).
        budget: Option<usize>,
    },
    /// A seeded subsample of `samples` distinct grid points, in draw order
    /// (a deterministic partial Fisher–Yates over the index range).
    Random {
        /// Points to draw (clamped to the grid size).
        samples: usize,
        /// Draw seed.
        seed: u64,
    },
    /// Successive halving over the whole grid: every candidate passes
    /// through cheap proxies first — topology generation, then placement
    /// feasibility — with the survivor pool cut to `budget × eta` after
    /// generation and to `budget` after placement (ranked by how closely
    /// the built size matches the target, ties broken by grid order). Only
    /// the final survivors get the full pipeline.
    Adaptive {
        /// Full-pipeline evaluations to spend.
        budget: usize,
        /// Halving factor (≥ 2; how much wider the placement-proxy pool is
        /// than the final budget).
        eta: usize,
    },
}

impl Strategy {
    /// The ordered candidate list this strategy draws from `space`.
    /// (For [`Strategy::Adaptive`] this is the *pre-proxy* candidate set —
    /// the whole grid; the runner prunes it.)
    pub fn plan(&self, space: &ParamSpace) -> Vec<Point> {
        let n = space.len();
        match self {
            Strategy::Grid { budget } => (0..n.min(budget.unwrap_or(n)))
                .map(|i| space.point(i))
                .collect(),
            Strategy::Random { samples, seed } => {
                // Partial Fisher–Yates: draw min(samples, n) distinct
                // indices in a seed-determined order.
                let take = (*samples).min(n);
                let mut indices: Vec<usize> = (0..n).collect();
                let mut rng = SplitMix64::new(*seed);
                for drawn in 0..take {
                    let j = drawn + rng.below(n - drawn);
                    indices.swap(drawn, j);
                }
                indices[..take].iter().map(|&i| space.point(i)).collect()
            }
            Strategy::Adaptive { .. } => space.points().collect(),
        }
    }

    /// The strategy a name and its optional knobs describe — the one
    /// parser behind the `search` bin's flags and the serve protocol's
    /// search requests. `name` defaults to `grid`, `budget` to 16 for the
    /// sampled strategies, `seed` to 11 and `eta` to 2 (clamped ≥ 2). The
    /// error names the unknown strategy.
    pub fn resolve(
        name: Option<&str>,
        budget: Option<usize>,
        seed: Option<u64>,
        eta: Option<usize>,
    ) -> Result<Strategy, String> {
        match name.unwrap_or("grid") {
            "grid" => Ok(Strategy::Grid { budget }),
            "random" => Ok(Strategy::Random {
                samples: budget.unwrap_or(16),
                seed: seed.unwrap_or(11),
            }),
            "adaptive" => Ok(Strategy::Adaptive {
                budget: budget.unwrap_or(16),
                eta: eta.unwrap_or(2).max(2),
            }),
            other => Err(format!(
                "unknown strategy {other:?} (known: grid, random, adaptive)"
            )),
        }
    }

    /// Short display name for progress output.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Grid { .. } => "grid",
            Strategy::Random { .. } => "random",
            Strategy::Adaptive { .. } => "adaptive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_space() -> ParamSpace {
        ParamSpace {
            families: vec![Family::FatTree, Family::Jellyfish],
            servers: vec![64, 128],
            speeds: vec![100.0],
            seeds: vec![7],
            halls: vec![HallVariant::Standard],
            media: vec![MediaPolicy::Standard],
            fault_scenarios: vec![0],
            trials: TrialProfile::default(),
        }
    }

    #[test]
    fn strategies_resolve_with_defaults() {
        assert_eq!(
            Strategy::resolve(None, Some(5), None, None).unwrap(),
            Strategy::Grid { budget: Some(5) }
        );
        assert_eq!(
            Strategy::resolve(Some("random"), None, Some(3), None).unwrap(),
            Strategy::Random {
                samples: 16,
                seed: 3
            }
        );
        assert_eq!(
            Strategy::resolve(Some("adaptive"), Some(4), None, Some(3)).unwrap(),
            Strategy::Adaptive { budget: 4, eta: 3 }
        );
        assert!(Strategy::resolve(Some("annealing"), None, None, None).is_err());
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for f in Family::ALL {
            assert_eq!(Family::from_name(f.name()), Some(f));
        }
        for h in HallVariant::ALL {
            assert_eq!(HallVariant::from_name(h.name()), Some(h));
        }
        for m in MediaPolicy::ALL {
            assert_eq!(MediaPolicy::from_name(m.name()), Some(m));
        }
        // Unprefixed aliases and unknowns.
        assert_eq!(HallVariant::from_name("dense"), Some(HallVariant::Dense));
        assert_eq!(
            MediaPolicy::from_name("panel"),
            Some(MediaPolicy::PatchPanel)
        );
        assert_eq!(Family::from_name("hypercube"), None);
        assert_eq!(HallVariant::from_name("hall-tiny"), None);
        assert_eq!(MediaPolicy::from_name(""), None);
    }

    #[test]
    fn grid_indexing_is_a_bijection() {
        let space = tiny_space();
        assert_eq!(space.len(), 4);
        let labels: Vec<String> = space.points().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "{labels:?}");
        // Family is the slowest-varying knob.
        assert!(labels[0].starts_with("fat-tree/s64"));
        assert!(labels[1].starts_with("fat-tree/s128"));
        assert!(labels[2].starts_with("jellyfish/s64"));
    }

    #[test]
    fn point_keys_are_stable_and_distinct() {
        let space = tiny_space();
        let t = space.trials;
        let a = space.point(0).key(&t);
        assert_eq!(a, space.point(0).key(&t), "same point, same key");
        let keys: Vec<u64> = space.points().map(|p| p.key(&t)).collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
        // The trial profile is part of the identity.
        let heavier = TrialProfile {
            yield_trials: 60,
            repair_trials: 20,
        };
        assert_ne!(a, space.point(0).key(&heavier));
    }

    #[test]
    fn every_family_materializes_a_buildable_spec() {
        for family in Family::ALL {
            let p = Point {
                family,
                servers: 128,
                speed_gbps: 100.0,
                seed: 7,
                hall: HallVariant::Standard,
                media: MediaPolicy::Standard,
                fault_scenarios: 0,
            };
            let spec = p.spec(&TrialProfile::default());
            let net = spec
                .topology
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert!(net.server_count() >= 128, "{}", family.name());
            assert_eq!(spec.topology.family(), family.name());
        }
    }

    #[test]
    fn fault_scenarios_knob_reaches_the_spec() {
        let mut p = Point {
            family: Family::FatTree,
            servers: 64,
            speed_gbps: 100.0,
            seed: 3,
            hall: HallVariant::Dense,
            media: MediaPolicy::PatchPanel,
            fault_scenarios: 4,
        };
        let spec = p.spec(&TrialProfile::default());
        assert_eq!(spec.fault_scenarios.scenarios, 4);
        assert_eq!(spec.hall.rows, 8);
        assert_eq!(
            spec.cabling.indirection_kind,
            pd_cabling::IndirectionKind::PatchPanel
        );
        p.fault_scenarios = 0;
        assert_eq!(
            p.spec(&TrialProfile::default()).fault_scenarios.scenarios,
            0
        );
    }

    #[test]
    fn strategies_plan_deterministically() {
        let space = tiny_space();
        let grid = Strategy::Grid { budget: Some(3) };
        assert_eq!(grid.plan(&space).len(), 3);
        assert_eq!(grid.plan(&space), grid.plan(&space));

        let random = Strategy::Random {
            samples: 3,
            seed: 9,
        };
        let a = random.plan(&space);
        assert_eq!(a.len(), 3);
        assert_eq!(a, random.plan(&space), "same seed, same draw");
        let mut labels: Vec<String> = a.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 3, "sampling is without replacement");
        // Oversampling clamps to the grid.
        let all = Strategy::Random {
            samples: 99,
            seed: 9,
        }
        .plan(&space);
        assert_eq!(all.len(), space.len());

        let adaptive = Strategy::Adaptive { budget: 2, eta: 2 };
        assert_eq!(adaptive.plan(&space).len(), space.len());
    }

    #[test]
    fn empty_knob_makes_empty_space() {
        let mut space = tiny_space();
        space.seeds.clear();
        assert!(space.is_empty());
        assert_eq!(Strategy::Grid { budget: None }.plan(&space).len(), 0);
        assert_eq!(
            Strategy::Random {
                samples: 5,
                seed: 1
            }
            .plan(&space)
            .len(),
            0
        );
    }
}
