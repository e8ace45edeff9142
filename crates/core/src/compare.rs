//! Normalized design constructors for cross-family comparison.
//!
//! The paper's §4.2 question — "why aren't expanders in wide use?" — only
//! makes sense at *equal server count and equal gear class*. These helpers
//! build each family sized as close as its structure allows to a target
//! server count, using radix-32 switches with half their ports facing
//! servers (the Jellyfish paper's convention), so experiment E6 can compare
//! per-server metrics honestly. Exact server counts differ by family
//! granularity; reports normalize per server.

use crate::artifacts::ArtifactCache;
use crate::batch::{evaluate_many_controlled, BatchControl, BatchOptions};
use crate::design::{DesignSpec, TopologySpec};
use crate::pipeline::{EvalError, Evaluation};
use crate::report::DeployabilityReport;
use crate::score::{pareto_front, weighted_score, Weights};
use pd_geometry::Gbps;
use pd_topology::gen::{
    ClosParams, DirectConnectParams, FatCliqueParams, FlattenedButterflyParams, JellyfishParams,
    SlimFlyParams, XpanderParams,
};

/// The standard switch radix the comparison uses.
pub const RADIX: u16 = 32;

/// Ports per switch facing servers in flat families.
pub const SERVER_PORTS: u16 = RADIX / 2;

/// Fat-tree sized for ≥ `target_servers` (k³/4 servers at k/2 per ToR).
pub fn fat_tree_near(target_servers: usize, speed: Gbps) -> TopologySpec {
    let mut k = 4usize;
    while k * k * k / 4 < target_servers {
        k += 2;
    }
    TopologySpec::FatTree { k, speed }
}

/// Folded Clos sized for ≈ `target_servers` with radix-32 gear.
pub fn folded_clos_near(target_servers: usize, speed: Gbps) -> TopologySpec {
    // ToR: 16 servers + 8 uplinks... keep a balanced 2:1: 16 servers, 8
    // aggs per pod? Use: servers_per_tor = 16, tors_per_pod = 8,
    // aggs_per_pod = 4, spines = 16 (agg radix = 8 + 16 = 24 ≤ 32).
    let per_pod = 16 * 8;
    let pods = target_servers.div_ceil(per_pod).max(2);
    TopologySpec::FoldedClos(ClosParams {
        pods,
        tors_per_pod: 8,
        aggs_per_pod: 4,
        spines: 16,
        servers_per_tor: 16,
        link_speed: speed,
        tor_agg_trunking: 1,
        agg_spine_trunking: 1,
        spine_via_panels: false,
        max_pods: None,
    })
}

/// Leaf-spine sized for ≥ `target_servers`.
pub fn leaf_spine_near(target_servers: usize, speed: Gbps) -> TopologySpec {
    let servers_per_leaf = SERVER_PORTS;
    let leaves = target_servers
        .div_ceil(usize::from(servers_per_leaf))
        .max(2);
    TopologySpec::LeafSpine {
        leaves,
        spines: usize::from(RADIX / 2),
        servers_per_leaf,
        trunking: 1,
        speed,
    }
}

/// Jellyfish sized for ≥ `target_servers` (half ports to servers).
pub fn jellyfish_near(target_servers: usize, speed: Gbps, seed: u64) -> TopologySpec {
    let degree = usize::from(RADIX - SERVER_PORTS);
    let mut tors = target_servers
        .div_ceil(usize::from(SERVER_PORTS))
        .max(degree + 1);
    if tors * degree % 2 != 0 {
        tors += 1;
    }
    TopologySpec::Jellyfish(JellyfishParams {
        tors,
        network_degree: degree,
        servers_per_tor: SERVER_PORTS,
        link_speed: speed,
        seed,
    })
}

/// Xpander sized for ≥ `target_servers`.
pub fn xpander_near(target_servers: usize, speed: Gbps, seed: u64) -> TopologySpec {
    let degree = usize::from(RADIX - SERVER_PORTS);
    let tors_needed = target_servers.div_ceil(usize::from(SERVER_PORTS));
    // Lift granularity: Xpander grows in whole-metanode-lift multiples, and
    // the metanode-pair harnesses its papers advertise need several cables
    // per pair to be worth pre-building; we never build below lift 4.
    let lift = tors_needed.div_ceil(degree + 1).max(4);
    TopologySpec::Xpander(XpanderParams {
        network_degree: degree,
        lift,
        servers_per_tor: SERVER_PORTS,
        link_speed: speed,
        seed,
    })
}

/// Slim Fly: the smallest valid `q` whose 2q² switches can host
/// `target_servers` with ≤ 16 servers per switch.
pub fn slimfly_near(target_servers: usize, speed: Gbps) -> TopologySpec {
    for q in [5usize, 13, 17, 29, 37, 41, 53, 61] {
        let switches = 2 * q * q;
        let per = target_servers.div_ceil(switches);
        if per <= usize::from(SERVER_PORTS) {
            return TopologySpec::SlimFly(SlimFlyParams {
                q,
                servers_per_tor: per.max(1) as u16,
                link_speed: speed,
            });
        }
    }
    // Fall through: largest table entry with max servers.
    TopologySpec::SlimFly(SlimFlyParams {
        q: 61,
        servers_per_tor: SERVER_PORTS,
        link_speed: speed,
    })
}

/// Flattened butterfly: square grid, half ports to servers.
pub fn flattened_butterfly_near(target_servers: usize, speed: Gbps) -> TopologySpec {
    // Grid a×a: network degree 2(a−1) ≤ 16 ⇒ a ≤ 9.
    let mut a = 2usize;
    while a < 9 && a * a * usize::from(SERVER_PORTS) < target_servers {
        a += 1;
    }
    let per = target_servers
        .div_ceil(a * a)
        .clamp(1, usize::from(SERVER_PORTS)) as u16;
    TopologySpec::FlattenedButterfly(FlattenedButterflyParams {
        rows: a,
        cols: a,
        servers_per_tor: per,
        link_speed: speed,
    })
}

/// FatClique sized for ≥ `target_servers`.
pub fn fatclique_near(target_servers: usize, speed: Gbps) -> TopologySpec {
    // 4-switch sub-cliques, 4 sub-cliques per clique (16 switches/clique).
    let per_clique = 16 * usize::from(SERVER_PORTS);
    let cliques = target_servers.div_ceil(per_clique).max(2);
    TopologySpec::FatClique(FatCliqueParams {
        subclique_size: 4,
        subcliques_per_clique: 4,
        cliques,
        inter_clique_links: 16,
        servers_per_tor: SERVER_PORTS,
        link_speed: speed,
    })
}

/// Direct-connect (spineless OCS fabric) sized for ≥ `target_servers`.
pub fn direct_connect_near(target_servers: usize, speed: Gbps) -> TopologySpec {
    // Blocks of 4 ToRs × 16 servers = 64 servers per block.
    let per_block = 4 * 16;
    let blocks = target_servers.div_ceil(per_block).max(2);
    TopologySpec::DirectConnect(DirectConnectParams {
        blocks,
        tors_per_block: 4,
        mids_per_block: 4,
        uplinks_per_mid: (blocks - 1).div_ceil(4).max(4),
        servers_per_tor: 16,
        link_speed: speed,
    })
}

/// All families at one target size, in presentation order.
pub fn all_families(target_servers: usize, speed: Gbps, seed: u64) -> Vec<(String, TopologySpec)> {
    vec![
        ("fat-tree".into(), fat_tree_near(target_servers, speed)),
        (
            "folded-clos".into(),
            folded_clos_near(target_servers, speed),
        ),
        ("leaf-spine".into(), leaf_spine_near(target_servers, speed)),
        (
            "jellyfish".into(),
            jellyfish_near(target_servers, speed, seed),
        ),
        ("xpander".into(), xpander_near(target_servers, speed, seed)),
        ("slimfly".into(), slimfly_near(target_servers, speed)),
        (
            "flat-bf".into(),
            flattened_butterfly_near(target_servers, speed),
        ),
        ("fatclique".into(), fatclique_near(target_servers, speed)),
        (
            "direct-connect".into(),
            direct_connect_near(target_servers, speed),
        ),
    ]
}

/// A fully evaluated, presentation-ready set of designs.
///
/// Built by [`comparison_matrix`] through the parallel batch engine
/// ([`evaluate_many_controlled`]), so an E6-style family sweep pays
/// roughly one evaluation of wall-clock per core instead of the whole batch
/// serially, and specs sharing a topology sub-spec generate their network
/// once.
/// Evaluations are in spec order and keep every stage artifact
/// ([`Evaluation`] holds the full store, down to the harness analysis), so
/// matrix consumers can dig past the summary reports.
#[derive(Debug)]
pub struct ComparisonMatrix {
    /// One evaluation per input spec, in input order.
    pub evaluations: Vec<Evaluation>,
}

/// Evaluates `specs` (fanned out per `opts`, under `control`) into a
/// [`ComparisonMatrix`] of the designs that evaluated, still in spec
/// order, and the failures — e.g. typed `TimedOut` slots under a per-spec
/// timeout — alongside it, also in spec order and independent of the
/// thread schedule. A caller that needs every design (a comparison with
/// holes answers the wrong question) treats any failure as an error.
pub fn comparison_matrix(
    specs: &[DesignSpec],
    opts: &BatchOptions,
    control: &BatchControl,
) -> (ComparisonMatrix, Vec<(String, EvalError)>) {
    let results = evaluate_many_controlled(specs, opts, &ArtifactCache::new(), None, control);
    let mut evaluations = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (spec, result) in specs.iter().zip(results) {
        match result {
            Ok(ev) => evaluations.push(ev),
            Err(e) => failures.push((spec.name.clone(), e)),
        }
    }
    (ComparisonMatrix { evaluations }, failures)
}

impl ComparisonMatrix {
    /// The reports, in spec order (the shape scoring and rendering take).
    pub fn reports(&self) -> Vec<&DeployabilityReport> {
        self.evaluations.iter().map(|e| &e.report).collect()
    }

    /// The report for a named design, if present.
    pub fn report(&self, name: &str) -> Option<&DeployabilityReport> {
        self.evaluations
            .iter()
            .map(|e| &e.report)
            .find(|r| r.name == name)
    }

    /// The side-by-side metric table
    /// (see [`DeployabilityReport::comparison_table`]).
    pub fn table(&self) -> String {
        DeployabilityReport::comparison_table(&self.reports())
    }

    /// Weighted scores, one per design in spec order.
    pub fn scores(&self, weights: &Weights) -> Vec<f64> {
        weighted_score(&self.reports(), weights)
    }

    /// Indices of the Pareto-optimal designs.
    pub fn pareto(&self) -> Vec<usize> {
        pareto_front(&self.reports())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEED: Gbps = Gbps(100.0);

    #[test]
    fn all_families_build_near_target() {
        let target = 500;
        for (name, spec) in all_families(target, SPEED, 7) {
            let net = spec.build().unwrap_or_else(|e| panic!("{name}: {e}"));
            let servers = net.server_count() as usize;
            assert!(servers >= target, "{name}: {servers} < target {target}");
            assert!(
                servers <= target * 3,
                "{name}: {servers} wildly over target {target}"
            );
        }
    }

    #[test]
    fn granularity_respected_at_small_scale() {
        for (name, spec) in all_families(100, SPEED, 7) {
            let net = spec.build().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(net.server_count() >= 100, "{name}");
            assert!(net.is_connected(), "{name}");
        }
    }

    #[test]
    fn comparison_matrix_keeps_spec_order_and_renders() {
        let mk = |name: &str, topo| {
            let mut s = DesignSpec::new(name, topo);
            s.yields.trials = 5;
            s.repair.trials = 2;
            s
        };
        let specs = vec![
            mk("ft", fat_tree_near(64, SPEED)),
            mk("jf", jellyfish_near(64, SPEED, 7)),
        ];
        let (m, failures) =
            comparison_matrix(&specs, &BatchOptions::jobs(2), &BatchControl::default());
        assert!(failures.is_empty());
        assert_eq!(m.evaluations.len(), 2);
        assert_eq!(m.reports()[0].name, "ft");
        assert_eq!(m.reports()[1].name, "jf");
        assert!(m.report("jf").is_some() && m.report("nope").is_none());
        assert!(m.table().contains("| metric | ft | jf |"));
        assert_eq!(m.scores(&Weights::default()).len(), 2);
    }

    #[test]
    fn comparison_matrix_returns_failures_in_spec_order() {
        let mut bad = DesignSpec::new("bad", fat_tree_near(64, SPEED));
        bad.hall.rows = 1;
        bad.hall.slots_per_row = 2;
        let mut bad2 = bad.clone();
        bad2.name = "bad2".into();
        let good = DesignSpec::new("good", fat_tree_near(64, SPEED));
        let specs = [good, bad, bad2];
        let (matrix, failures) =
            comparison_matrix(&specs, &BatchOptions::jobs(3), &BatchControl::default());
        assert!(matches!(failures[0].1, EvalError::Placement(_)));
        // The survivors still make up the matrix.
        assert_eq!(matrix.evaluations.len(), 1);
        assert_eq!(matrix.reports()[0].name, "good");
        let failed: Vec<&str> = failures.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(failed, ["bad", "bad2"], "failures stay in spec order");
    }

    #[test]
    fn fat_tree_size_steps() {
        // k=8 hosts 128, k=10 hosts 250.
        let TopologySpec::FatTree { k, .. } = fat_tree_near(129, SPEED) else {
            panic!()
        };
        assert_eq!(k, 10);
    }

    #[test]
    fn slimfly_picks_minimal_q() {
        let TopologySpec::SlimFly(p) = slimfly_near(400, SPEED) else {
            panic!()
        };
        assert_eq!(p.q, 5, "2·25 switches × 16 = 800 ≥ 400");
        let TopologySpec::SlimFly(p) = slimfly_near(2000, SPEED) else {
            panic!()
        };
        assert_eq!(p.q, 13);
    }

    /// FNV-1a of masked ECMP on every family at 1024 servers: uniform
    /// 1 Gbps host demands with a seeded 10% of links down, hashing each
    /// link's load bits in index order, then `routable` and the
    /// `max_utilization` bits. Recorded with the per-destination queue BFS
    /// the bit-parallel sweep replaced. Fat-tree (128 host switches),
    /// Xpander (68) and Slim Fly (338) span more than one 64-destination
    /// chunk; five other families have exactly 64.
    #[test]
    fn masked_ecmp_matches_known_answers_on_every_family() {
        use pd_topology::csr::{ecmp_evaluate, take_loads, CsrNet, IndexedDemands, Masks, Scratch};
        use pd_topology::gen::{KeyHasher, SplitMix64};
        use std::hash::Hasher;
        let mut scratch = Scratch::default();
        let got: Vec<(String, u64)> = all_families(1024, SPEED, 1)
            .into_iter()
            .map(|(name, topo)| {
                let net = topo.build().unwrap();
                let view = CsrNet::build(&net);
                let mut ids: Vec<u32> = (0..view.link_count() as u32).collect();
                SplitMix64::new(1).shuffle(&mut ids);
                let mut masks = Masks::healthy(&view);
                for &l in &ids[..view.link_count().div_ceil(10)] {
                    masks.link_alive[l as usize] = false;
                }
                let demands = IndexedDemands::uniform(&view, Gbps::new(1.0));
                let outcome = ecmp_evaluate(&view, &demands, Some(&masks), &mut scratch);
                let mut h = KeyHasher::default();
                for load in take_loads(&view, &scratch) {
                    h.write(&load.to_bits().to_le_bytes());
                }
                h.write(&(outcome.routable as u64).to_le_bytes());
                h.write(&outcome.max_utilization.to_bits().to_le_bytes());
                (name, h.finish())
            })
            .collect();
        let want: [(&str, u64); 9] = [
            ("fat-tree", 0x2125_0473_0862_cd23),
            ("folded-clos", 0x046f_1b19_b9bb_2ddf),
            ("leaf-spine", 0x597f_e7ca_43e8_1b5d),
            ("jellyfish", 0x3d3f_6902_8e10_3abd),
            ("xpander", 0xde2d_bdad_9229_7f46),
            ("slimfly", 0x860c_6046_7686_f788),
            ("flat-bf", 0x6e8c_7657_0e71_a53f),
            ("fatclique", 0x97f6_2779_33fe_2502),
            ("direct-connect", 0x51bb_b280_709f_5937),
        ];
        let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
        assert_eq!(got, want);
    }
}
