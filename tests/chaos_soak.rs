//! Chaos soak: the execution engine's partial-result contracts, under
//! deterministic seeded fault injection (`pd_core::chaos`).
//!
//! The contracts exercised here are stated in `docs/ARCHITECTURE.md`
//! ("Resilience & chaos testing"):
//! 1. a batch under injected cancellations returns a well-formed result
//!    for **every** spec, in spec order, at any job count — typed
//!    interruption errors for the targeted specs, never a hang, never a
//!    dropped slot;
//! 2. surviving evaluations are byte-identical to an uninterrupted run;
//! 3. transient failures (injected panics, watchdog-cancelled stalls)
//!    recover under retry with byte-identical results;
//! 4. a search run interrupted mid-batch flushes a clean JSONL checkpoint,
//!    and the resumed run re-evaluates **zero** completed records while
//!    producing byte-identical output.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use physnet::core::batch::{evaluate_many_controlled, ArtifactCache, BatchControl};
use physnet::core::chaos::{ChaosPlan, Injection};
use physnet::core::prelude::*;
use physnet::search::prelude::*;
use physnet::topology::gen::JellyfishParams;

fn quick(name: &str, topo: TopologySpec) -> DesignSpec {
    let mut s = DesignSpec::new(name, topo);
    s.yields.trials = 5;
    s.repair.trials = 2;
    s
}

fn soak_batch() -> Vec<DesignSpec> {
    let ft = TopologySpec::FatTree {
        k: 4,
        speed: Gbps::new(100.0),
    };
    let jf = |seed| {
        TopologySpec::Jellyfish(JellyfishParams {
            seed,
            ..JellyfishParams::default()
        })
    };
    vec![
        quick("ft-a", ft.clone()),
        quick("jf7-a", jf(7)),
        quick("ft-b", ft),
        quick("jf7-b", jf(7)),
        quick("jf8", jf(8)),
        quick("jf7-c", jf(7)),
    ]
}

/// Canonical bytes of a successful evaluation, for byte-identity checks.
fn report_bytes(ev: &Evaluation) -> String {
    ev.report.to_json().to_string()
}

#[test]
fn seeded_cancellations_keep_spec_order_and_surviving_bytes_at_any_job_count() {
    let specs = soak_batch();
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    let baseline = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    );

    for seed in [3, 17, 99] {
        for jobs in [1, 8] {
            let plan = Arc::new(ChaosPlan::seeded_cancellations(seed, &names, 3));
            let control = BatchControl {
                chaos: Some(plan.clone()),
                ..BatchControl::default()
            };
            let results = evaluate_many_controlled(
                &specs,
                &BatchOptions::jobs(jobs),
                &ArtifactCache::new(),
                None,
                &control,
            );

            // Contract 1: one slot per spec, in spec order, every
            // interruption typed and attributable to the plan.
            assert_eq!(results.len(), specs.len());
            for (spec, result) in specs.iter().zip(&results) {
                match result {
                    Ok(ev) => assert_eq!(ev.report.name, spec.name),
                    Err(e) => {
                        assert!(e.is_interruption(), "{}: unexpected error {e}", spec.name);
                        assert!(
                            plan.targets_spec(&spec.name),
                            "{}: interrupted but never targeted (seed {seed}, jobs {jobs})",
                            spec.name
                        );
                    }
                }
            }
            // The plan targets three distinct specs, and a cancellation at
            // any stage past Generate always lands: exactly three fail.
            let failed = results.iter().filter(|r| r.is_err()).count();
            assert_eq!(failed, 3, "seed {seed}, jobs {jobs}");

            // Contract 2: survivors are byte-identical to the clean run.
            for (i, result) in results.iter().enumerate() {
                if let Ok(ev) = result {
                    let clean = baseline[i].as_ref().expect("baseline succeeds");
                    assert_eq!(
                        report_bytes(ev),
                        report_bytes(clean),
                        "{}: surviving report drifted (seed {seed}, jobs {jobs})",
                        specs[i].name
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_panic_and_cancel_injections_never_drop_a_slot() {
    let specs = soak_batch();
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    for jobs in [1, 8] {
        let plan = Arc::new(ChaosPlan::seeded_mixed(7, &names, 4));
        let control = BatchControl {
            chaos: Some(plan.clone()),
            ..BatchControl::default()
        };
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(jobs),
            &ArtifactCache::new(),
            None,
            &control,
        );
        assert_eq!(results.len(), specs.len());
        for (spec, result) in specs.iter().zip(&results) {
            match result {
                Ok(ev) => assert_eq!(ev.report.name, spec.name),
                // Panic injections surface as stage-attributed panics,
                // cancellations as typed interruptions; both only on
                // targeted specs.
                Err(e) => {
                    assert!(
                        e.is_interruption() || matches!(e, EvalError::Panicked { .. }),
                        "{}: unexpected error {e}",
                        spec.name
                    );
                    assert!(plan.targets_spec(&spec.name), "{}: {e}", spec.name);
                }
            }
        }
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 4);
    }
}

#[test]
fn retry_recovers_injected_panics_byte_identically() {
    let specs = soak_batch();
    let baseline = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    );
    for jobs in [1, 8] {
        // One-shot panics on two specs: the first attempt dies, the retry
        // runs clean. The whole batch must come back Ok and byte-identical.
        let plan = ChaosPlan::new()
            .inject_once("ft-b", Stage::Schedule, Injection::Panic)
            .inject_once("jf7-c", Stage::Cost, Injection::Panic);
        let control = BatchControl {
            chaos: Some(Arc::new(plan)),
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::attempts(2)
            },
            ..BatchControl::default()
        };
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(jobs),
            &ArtifactCache::new(),
            None,
            &control,
        );
        for (i, (result, clean)) in results.iter().zip(&baseline).enumerate() {
            let ev = result.as_ref().unwrap_or_else(|e| {
                panic!(
                    "{}: retry did not recover: {e} (jobs {jobs})",
                    specs[i].name
                )
            });
            assert_eq!(report_bytes(ev), report_bytes(clean.as_ref().unwrap()));
        }
    }
}

#[test]
fn watchdog_frees_a_stalled_worker_and_retry_recovers() {
    let specs = soak_batch();
    let baseline = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    );
    // A one-shot 400ms stall against a 50ms stall threshold: the watchdog
    // cancels the stuck evaluation, and the retry runs it clean.
    let plan = ChaosPlan::new().inject_once(
        "jf7-b",
        Stage::Repair,
        Injection::Delay(Duration::from_millis(400)),
    );
    let control = BatchControl {
        chaos: Some(Arc::new(plan)),
        watchdog: Some(WatchdogConfig {
            stall_threshold: Duration::from_millis(50),
        }),
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::attempts(3)
        },
        ..BatchControl::default()
    };
    let results = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(2),
        &ArtifactCache::new(),
        None,
        &control,
    );
    assert_eq!(results.len(), specs.len());
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(ev) => assert_eq!(
                report_bytes(ev),
                report_bytes(baseline[i].as_ref().unwrap())
            ),
            // Timing-dependent worst case: the delay outlives every retry
            // window. The slot must still come back typed, not hang.
            Err(e) => {
                assert_eq!(specs[i].name, "jf7-b");
                assert!(e.is_interruption(), "unexpected error {e}");
            }
        }
    }
}

#[test]
fn caller_cancellation_is_graceful_and_typed_everywhere() {
    let specs = soak_batch();
    for jobs in [1, 8] {
        let token = CancelToken::new();
        token.cancel();
        let control = BatchControl {
            cancel: token,
            ..BatchControl::default()
        };
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(jobs),
            &ArtifactCache::new(),
            None,
            &control,
        );
        assert_eq!(results.len(), specs.len());
        for result in &results {
            assert!(matches!(result, Err(EvalError::Cancelled)));
        }
    }
}

// ---- search-level soak: interruption + JSONL resume ----------------------

fn search_cfg(jobs: usize) -> SearchConfig {
    SearchConfig {
        space: ParamSpace {
            families: vec![Family::FatTree, Family::LeafSpine, Family::Jellyfish],
            servers: vec![64, 128],
            speeds: vec![100.0],
            seeds: vec![7],
            halls: vec![HallVariant::Standard],
            media: vec![MediaPolicy::Standard],
            fault_scenarios: vec![0],
            trials: TrialProfile {
                yield_trials: 3,
                repair_trials: 2,
            },
        },
        strategy: Strategy::Grid { budget: None },
        jobs,
        wave: 2,
        cache: None,
        progress: false,
        control: BatchControl::default(),
        eval_budget: None,
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("physnet-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.jsonl"))
}

#[test]
fn interrupted_search_resumes_without_reevaluating_completed_records() {
    let full_path = temp_path("full");
    let full = run_search_to_path(&search_cfg(2), &full_path).expect("uninterrupted run");
    assert!(!full.interrupted);

    // Interrupt mid-run via the deterministic evaluation budget: stops at
    // a wave edge with the completed records flushed.
    let cut_path = temp_path("cut");
    let mut cut_cfg = search_cfg(2);
    cut_cfg.eval_budget = Some(4);
    let cut = run_search_to_path(&cut_cfg, &cut_path).expect("interrupted run");
    assert!(cut.interrupted);
    assert_eq!(cut.evaluated, 4);
    assert_eq!(cut.records, full.records[..4].to_vec());
    let cut_bytes = std::fs::read_to_string(&cut_path).expect("checkpoint written");
    assert_eq!(
        parse_jsonl(&cut_bytes),
        cut.records,
        "checkpoint holds clean records"
    );

    // Resume without the budget: zero completed records re-evaluated,
    // output bytes identical to the uninterrupted run.
    let resumed = run_search_to_path(&search_cfg(2), &cut_path).expect("resumed run");
    assert!(!resumed.interrupted);
    assert_eq!(
        resumed.reused,
        cut.records.len(),
        "every checkpointed record reused"
    );
    assert_eq!(resumed.evaluated, full.records.len() - cut.records.len());
    assert_eq!(resumed.records, full.records);
    let resumed_bytes = std::fs::read_to_string(&cut_path).expect("resumed file");
    let full_bytes = std::fs::read_to_string(&full_path).expect("full file");
    assert_eq!(
        resumed_bytes, full_bytes,
        "resume is invisible in the bytes"
    );
}

#[test]
fn cancelled_search_flushes_only_complete_records() {
    let path = temp_path("cancelled");
    let cfg = search_cfg(2);
    cfg.control.cancel.cancel(); // cancelled before the first wave: nothing evaluated
    let out = run_search_to_path(&cfg, &path).expect("cancelled run");
    assert!(out.interrupted);
    assert!(out.records.is_empty());
    let bytes = std::fs::read_to_string(&path).expect("file exists even when empty");
    assert!(parse_jsonl(&bytes).is_empty());

    // The empty-but-valid checkpoint resumes into a full run.
    let resumed = run_search_to_path(&search_cfg(2), &path).expect("resumed run");
    assert!(!resumed.interrupted);
    assert_eq!(resumed.reused, 0);
    assert_eq!(resumed.records.len(), search_cfg(2).space.len());
}
