//! Count-class metrics are a pure function of the workload.
//!
//! The `pd-metrics` contract (`docs/OBSERVABILITY.md`) says the `counts`
//! section of a snapshot is byte-identical at any `--jobs` value and
//! whatever the artifact cache already holds: a stage adopted from the
//! cache replays its `pipeline.<stage>.{runs,artifacts}` counts as if it
//! had run. These tests pin both halves on a small fixed matrix.

use std::sync::Mutex;

use pd_core::batch::{evaluate_many_controlled, ArtifactCache, BatchControl, BatchOptions};
use pd_core::compare::all_families;
use pd_core::{DesignSpec, Stage};
use pd_geometry::Gbps;
use pd_metrics::{Class, MetricsSnapshot};

/// Both tests reset and read the process-global registry, so they must
/// not run at the same time.
static GLOBAL_METRICS: Mutex<()> = Mutex::new(());

/// Leaf-spine and fat-tree at 64 servers, three same-design clones each,
/// with quick Monte Carlo trials.
fn matrix() -> Vec<DesignSpec> {
    all_families(64, Gbps::new(100.0), 11)
        .into_iter()
        .filter(|(family, _)| family == "leaf-spine" || family == "fat-tree")
        .flat_map(|(family, topo)| {
            (0..3).map(move |i| {
                let mut s = DesignSpec::new(format!("{family}-r{i}"), topo.clone());
                s.yields.trials = 10;
                s.repair.trials = 2;
                s
            })
        })
        .collect()
}

/// Resets the global registry, evaluates the matrix through `cache` and
/// renders the Count-class section of the resulting snapshot.
fn count_section(jobs: usize, cache: &ArtifactCache) -> String {
    pd_metrics::global().reset();
    let (opts, control) = (BatchOptions::jobs(jobs), BatchControl::default());
    for result in evaluate_many_controlled(&matrix(), &opts, cache, None, &control) {
        result.expect("every matrix spec evaluates");
    }
    let entries = pd_metrics::global()
        .snapshot()
        .of_class(Class::Count)
        .cloned()
        .collect();
    MetricsSnapshot { entries }.to_json()
}

#[test]
fn counts_are_identical_at_jobs_1_and_jobs_8() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let serial = count_section(1, &ArtifactCache::new());
    let parallel = count_section(8, &ArtifactCache::new());
    let again = count_section(8, &ArtifactCache::new());
    assert_eq!(
        serial, parallel,
        "Count metrics drifted between jobs 1 and jobs 8"
    );
    assert_eq!(
        parallel, again,
        "Count metrics drifted between two jobs 8 runs"
    );
}

#[test]
fn counts_are_identical_on_a_cold_and_a_warm_cache() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let place_hits = |cache: &ArtifactCache| {
        let tiers = cache.tier_stats();
        tiers
            .iter()
            .find(|t| t.stage == Stage::Place)
            .expect("Place is a cache tier")
            .hits
    };
    let cache = ArtifactCache::new();
    let cold = count_section(1, &cache);
    let cold_hits = place_hits(&cache);
    let warm = count_section(1, &cache);
    assert_eq!(
        cold, warm,
        "Count metrics drifted between a cold and a warm cache"
    );
    assert!(
        place_hits(&cache) > cold_hits,
        "the warm pass adopted no Place-tier snapshot"
    );
}
