//! E19 — correlated fault domains vs abstract resilience. §3.3: "a network
//! design that abstracts too many physical details conceals physical-world
//! failure domains (e.g., shared power feeds)", and mitigation techniques
//! "generally cannot tolerate large numbers of concurrent failures."
//!
//! Every family, deployed into the same hall, injected with the same four
//! correlated physical fault kinds — an A/B power-feed pair, the two
//! busiest tray segments, the two largest cable bundles, and a bad
//! linecard batch — plus a seeded ensemble of random compositions. The
//! capacity each family retains under *physical* faults, compared with the
//! retention random link failures of equal magnitude would predict, is the
//! resilience gap the section warns about.

use pd_core::compare::comparison_matrix;
use pd_core::prelude::*;
use pd_lifecycle::{FaultDomain, FaultScenario, FaultSweepParams, Injector};
use pd_topology::csr::CsrNet;
use std::sync::Arc;

/// Target comparison size (matches E6).
pub const TARGET_SERVERS: usize = 512;

/// The families compared (a subset of E6's: the hierarchical baselines
/// plus the expander families whose resilience story is at stake).
const FAMILIES: [&str; 5] = [
    "fat-tree",
    "folded-clos",
    "leaf-spine",
    "jellyfish",
    "xpander",
];

/// The four named correlated fault kinds every family is injected with.
pub fn named_scenarios() -> Vec<FaultScenario> {
    vec![
        FaultScenario::single("feed-pair", FaultDomain::PowerFeedPair { pair: 0 }),
        FaultScenario::single("tray-cut", FaultDomain::TraySegments { count: 2 }),
        FaultScenario::single("bundle-cut", FaultDomain::BundleCut { count: 2 }),
        FaultScenario::single(
            "card-batch",
            FaultDomain::LinecardBatch {
                fraction: 0.10,
                seed: 11,
            },
        ),
    ]
}

/// Builds the spec list with the fault sweep enabled.
pub fn specs() -> Vec<DesignSpec> {
    let speed = Gbps::new(100.0);
    compare::all_families(TARGET_SERVERS, speed, 11)
        .into_iter()
        .filter(|(name, _)| FAMILIES.contains(&name.as_str()))
        .map(|(name, topo)| {
            let mut spec = DesignSpec::new(name, topo);
            spec.fault_scenarios = FaultSweepParams {
                scenarios: 8,
                max_domains: 2,
                seed: 11,
            };
            spec
        })
        .collect()
}

/// Runs the experiment under `control`.
///
/// Runs in partial-success mode, like E6: designs that fail to evaluate
/// (e.g. under a `--spec-timeout`/`--deadline`) are listed with their
/// typed errors and the surviving designs still render.
pub fn run(control: &BatchControl) -> String {
    run_with(&BatchOptions::default(), control)
}

/// [`run`] with explicit batch options; output is byte-identical at any
/// job count.
pub fn run_with(opts: &BatchOptions, control: &BatchControl) -> String {
    let mut out = String::new();
    out.push_str("E19 — correlated fault domains vs abstract resilience (§3.3)\n");
    out.push_str(&format!(
        "all families at ≈{TARGET_SERVERS} servers, identical hall; capacity \
         retention under four correlated physical fault kinds\n\n"
    ));

    let specs = specs();
    let (matrix, failures) = comparison_matrix(&specs, opts, control);
    out.push_str(&super::partial_results(specs.len(), &failures));
    let evals = &matrix.evaluations;
    if evals.is_empty() {
        return out;
    }

    // Named-scenario table: rows are fault kinds, columns families.
    let scenarios = named_scenarios();
    out.push_str("| capacity retained |");
    for ev in evals {
        out.push_str(&format!(" {} |", ev.report.name));
    }
    out.push_str("\n|---|");
    for _ in evals {
        out.push_str("---|");
    }
    out.push('\n');
    let injectors: Vec<Injector> = evals
        .iter()
        .map(|ev| {
            let spec = specs
                .iter()
                .find(|s| s.name == ev.report.name)
                .expect("every evaluation comes from a spec");
            Injector::new(
                &ev.network,
                &ev.hall,
                &ev.placement,
                &ev.cabling,
                &ev.bundling,
                &spec.schedule.calib,
                &spec.repair,
                Arc::new(CsrNet::build(&ev.network)),
            )
        })
        .collect();
    let mut states: Vec<Vec<f64>> = Vec::new();
    for sc in &scenarios {
        let mut row = Vec::new();
        out.push_str(&format!("| {} |", sc.name));
        for inj in &injectors {
            let d = inj.inject(sc);
            out.push_str(&format!(" {:.0}% |", d.capacity_retention * 100.0));
            row.push(d.capacity_retention);
        }
        out.push('\n');
        states.push(row);
    }

    // Sweep summary from the pipeline's report fields.
    out.push_str("\nseeded ensemble (8 scenarios, ≤2 domains each):\n");
    for ev in evals {
        let r = &ev.report;
        out.push_str(&format!(
            "  {:<12} mean retention {:>4.0}%  worst {:>4.0}%  phys-vs-logical gap {:+.0}pp\n",
            r.name,
            r.fault_mean_retention.unwrap_or(0.0) * 100.0,
            r.fault_worst_retention.unwrap_or(0.0) * 100.0,
            r.fault_resilience_gap.unwrap_or(0.0) * 100.0,
        ));
    }

    out.push_str(
        "\npaper says: abstract metrics assume independent failures; physical \
         domains (feeds, trays, bundles, card batches) fail together and \
         mitigations cannot tolerate many concurrent failures\nwe measure: \
         every family loses whole correlated slices of capacity at once, and \
         the positive physical-vs-logical gap above is exactly the resilience \
         the abstract analysis over-promises\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_covers_four_fault_kinds_per_family() {
        let text = run(&BatchControl::default());
        for sc in named_scenarios() {
            assert!(text.contains(&sc.name), "missing scenario row {}", sc.name);
        }
        for fam in FAMILIES {
            assert!(text.contains(fam), "missing family column {fam}");
        }
        assert!(text.contains("phys-vs-logical gap"));
    }

    #[test]
    fn output_is_deterministic_across_job_counts() {
        let control = BatchControl::default();
        let serial = run_with(&BatchOptions::jobs(1), &control);
        let parallel = run_with(&BatchOptions::jobs(8), &control);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn correlated_faults_bite_every_family() {
        let specs = specs();
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::default(),
            &ArtifactCache::new(),
            None,
            &BatchControl::default(),
        );
        for (spec, r) in specs.iter().zip(results) {
            let ev = r.unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let sweep = ev.faults.as_ref().expect("sweep enabled in specs()");
            assert_eq!(sweep.scenarios, 8, "{}", spec.name);
            assert!(
                sweep.worst_capacity_retention < 1.0,
                "{}: no scenario degraded anything",
                spec.name
            );
            assert!(
                (0.0..=1.0).contains(&sweep.mean_throughput_retention),
                "{}: retention out of range",
                spec.name
            );
        }
    }
}
