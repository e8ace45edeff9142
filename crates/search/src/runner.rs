//! The search executor: plan → (optionally) prune → evaluate → record.
//!
//! All full-pipeline work goes through
//! [`pd_core::batch::evaluate_many_controlled`], inheriting the batch
//! engine's determinism contract: records are byte-identical at any
//! `jobs` count. Points are processed in plan order in fixed-size waves;
//! after each wave the records are handed to the sink (the JSONL file),
//! so a killed run leaves a clean prefix the next run resumes from.
//!
//! Every batch runs under the caller's [`BatchControl`]
//! ([`SearchConfig::control`]): its per-spec timeout, retry policy and
//! watchdog apply to each full evaluation. The run can also *end itself*
//! gracefully: the control's cancel token or batch deadline, or a
//! deterministic [`SearchConfig::eval_budget`], stop the walk at a wave
//! edge. Every completed record is flushed; interrupted points are
//! *dropped* — never written — so a later run re-evaluates exactly those
//! and the resumed file is byte-identical to an uninterrupted one.
//! The adaptive rungs check the same token and deadline at every stage
//! boundary; a rung they interrupt ends the run before any wave, since
//! its cuts cannot be decided without every survivor.
//!
//! The adaptive strategy's rungs are partial runs of the real pipeline:
//! [`StageState::run_to`] stopped after `Generate` (rung A) and `Place`
//! (rung B) through the shared [`ArtifactCache`] — not a
//! reimplementation — so the proxies and full evaluation cannot drift
//! apart. Because rung B *stores* each survivor's Place-tier snapshot,
//! the promoted points' full evaluations adopt that prefix instead of
//! re-placing from scratch.
//!
//! Resume reuses full-evaluation results by [`PointRecord::key`] and
//! re-derives everything cheap (pruning decisions, pruned records) from
//! scratch — proxy decisions are pure functions of the configuration, so
//! a resumed run and an uninterrupted run write the same bytes.
//!
//! Cache statistics (generation `hits`/`misses`) are reported in progress
//! output and in [`SearchOutcome`], but deliberately **not** in the JSONL:
//! under a bounded cache they can vary with thread scheduling, and the
//! output file must not.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use pd_core::batch::{evaluate_many_controlled, ArtifactCache, BatchControl, BatchOptions};
use pd_core::design::DesignSpec;
use pd_core::stages::{Stage, StageState};

use crate::record::{parse_jsonl, PointRecord, PointStatus};
use crate::space::{ParamSpace, Point, Strategy};

/// Everything a search run needs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The space to explore.
    pub space: ParamSpace,
    /// How to draw candidates from it.
    pub strategy: Strategy,
    /// Worker threads for full evaluations (0 = all cores, as
    /// [`BatchOptions`]).
    pub jobs: usize,
    /// Points per checkpoint wave (clamped ≥ 1). Smaller waves checkpoint
    /// more often; the wave size never changes the output bytes.
    pub wave: usize,
    /// Share a caller-owned [`ArtifactCache`] (the serve daemon passes its
    /// process-wide session cache here, so searches warm — and are warmed
    /// by — evaluate/batch traffic); a bounded private cache is
    /// `Some(Arc::new(ArtifactCache::with_capacity(n)))`. `None` = the run
    /// builds a private unbounded cache. Never changes the records: cached
    /// prefixes are byte-identical to recomputation.
    pub cache: Option<Arc<ArtifactCache>>,
    /// Emit per-wave progress lines on stderr.
    pub progress: bool,
    /// Cancellation, deadlines, retries and watchdog for every batch and
    /// every adaptive rung. When its token fires or its batch deadline
    /// passes, the run stops at the next stage boundary / wave edge,
    /// flushes the completed records, and returns with
    /// [`SearchOutcome::interrupted`] set. The default is inert; the
    /// `search` bin and E20 pass the control their command line's
    /// `--spec-timeout`/`--deadline`/`--retries` built.
    pub control: BatchControl,
    /// Stop (gracefully, like cancellation) before starting a wave that
    /// would push the number of full evaluations past this budget.
    /// Deterministic — unlike wall-clock deadlines, equal configs stop at
    /// the same point.
    pub eval_budget: Option<usize>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            space: ParamSpace::default(),
            strategy: Strategy::Grid { budget: None },
            jobs: 0,
            wave: 8,
            cache: None,
            progress: false,
            control: BatchControl::default(),
            eval_budget: None,
        }
    }
}

/// What a run did, beyond the records themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// One record per planned point, in plan order — the JSONL contents.
    /// On an interrupted run, points that did not complete are *omitted*
    /// (never written as records): an interruption says nothing about the
    /// design, and a resume must re-evaluate it. The checkpoint's finished
    /// evaluations that the run did not reach follow the walked waves'
    /// records, so an interruption never loses work.
    pub records: Vec<PointRecord>,
    /// Full-pipeline evaluations executed this run (completed ones —
    /// interrupted attempts don't count).
    pub evaluated: usize,
    /// Records reused from the checkpoint instead of re-evaluating.
    pub reused: usize,
    /// Points an adaptive rung pruned.
    pub pruned: usize,
    /// Generation-cache hits across proxies and full evaluations.
    pub cache_hits: usize,
    /// Generation-cache misses.
    pub cache_misses: usize,
    /// Whether the run stopped early (cancellation, deadline, or
    /// evaluation budget) instead of exhausting the plan. The flushed
    /// records are still a valid checkpoint: rerunning resumes from them.
    pub interrupted: bool,
}

/// A planned point with the disposition the strategy already decided for
/// it (`Some(reason)` = pruned before full evaluation).
struct Planned {
    point: Point,
    prune: Option<String>,
}

/// Applies the strategy, running the adaptive proxies when asked. `None`
/// = the control interrupted a rung: no disposition is decided, so none
/// may be recorded.
fn plan(cfg: &SearchConfig, cache: &ArtifactCache) -> Option<Vec<Planned>> {
    let points = cfg.strategy.plan(&cfg.space);
    let (budget, eta) = match cfg.strategy {
        Strategy::Adaptive { budget, eta } => (budget, eta.max(2)),
        _ => {
            return Some(
                points
                    .into_iter()
                    .map(|point| Planned { point, prune: None })
                    .collect(),
            )
        }
    };

    // The rungs are partial runs of the *real* pipeline —
    // `StageState::run_to` through the shared cache — so the cheap proxies
    // can never drift from what full evaluation does, and promoted
    // survivors regenerate for free in the full pipeline.
    //
    // Rung A: stop after `Stage::Generate`. A survivor's rank is how
    // closely its built size matches the target — the cheap signal for
    // "this family's granularity actually fits here".
    let trials = cfg.space.trials;
    let specs: Vec<DesignSpec> = points.iter().map(|p| p.spec(&trials)).collect();
    let mut prune: Vec<Option<String>> = vec![None; points.len()];
    let mut survivors: Vec<(usize, f64)> = Vec::new(); // (plan idx, closeness)
    let mut states: Vec<Option<StageState>> = Vec::with_capacity(points.len());
    let control = &cfg.control;
    for (i, (p, spec)) in points.iter().zip(&specs).enumerate() {
        let mut state = StageState::new(spec)
            .with_artifacts(cache)
            .with_cancel(&control.cancel);
        if let Some(deadline) = control.batch_deadline {
            state = state.with_deadline(deadline);
        }
        match state.run_to(Stage::Generate) {
            Ok(()) => {
                let net = state.network().expect("generate stage completed");
                let built = f64::from(net.server_count());
                let target = p.servers.max(1) as f64;
                survivors.push((i, (built - target).abs() / target));
                states.push(Some(state));
            }
            Err(e) if e.is_interruption() => return None,
            Err(e) => {
                prune[i] = Some(e.to_string());
                states.push(None);
            }
        }
    }
    let cut = |survivors: &mut Vec<(usize, f64)>,
               keep: usize,
               prune: &mut Vec<Option<String>>,
               rung: &str| {
        survivors.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        for &(i, _) in survivors.iter().skip(keep) {
            prune[i] = Some(format!("not promoted past {rung} rung (budget)"));
        }
        survivors.truncate(keep);
        // Back to plan order so the next rung walks deterministically.
        survivors.sort_by_key(|&(i, _)| i);
    };
    cut(
        &mut survivors,
        budget.saturating_mul(eta).max(1),
        &mut prune,
        "generation",
    );

    // Rung B: resume each survivor to `Stage::Place` — the cheapest
    // physical test. A design that cannot even be racked into its hall is
    // pruned with the real placement error, which the envelope mapper
    // reads as a hard break.
    let mut placed: Vec<(usize, f64)> = Vec::new();
    for (i, closeness) in survivors {
        let state = states[i].as_mut().expect("rung-A survivor kept its state");
        match state.run_to(Stage::Place) {
            Ok(()) => placed.push((i, closeness)),
            Err(e) if e.is_interruption() => return None,
            Err(e) => prune[i] = Some(e.to_string()),
        }
    }
    cut(&mut placed, budget.max(1), &mut prune, "placement");

    Some(
        points
            .into_iter()
            .zip(prune)
            .map(|(point, prune)| Planned { point, prune })
            .collect(),
    )
}

/// Runs the search entirely in memory (no checkpoint file).
pub fn run_search(cfg: &SearchConfig) -> SearchOutcome {
    run_search_with(cfg, &HashMap::new(), |_| Ok(())).expect("in-memory sink cannot fail")
}

/// Runs the search with `path` as streaming JSONL output *and* checkpoint.
///
/// If `path` already exists, its parseable lines are loaded first and any
/// full-evaluation record matching a planned point's key is reused without
/// re-running the pipeline. Output is crash-safe: the run streams waves to
/// `path` + `.tmp` and renames it over `path` only once the run ends
/// (including a graceful interruption), so `path` is always either the
/// previous complete checkpoint or the new one — never a torn mix. If a
/// prior run was *killed* mid-wave, its leftover `.tmp` holds newer
/// complete lines than `path`; those are overlaid into the reuse map so no
/// finished evaluation is ever repeated. An interrupted run carries every
/// reusable record it did not reach into the new file, so the checkpoint
/// never shrinks.
pub fn run_search_to_path(cfg: &SearchConfig, path: &Path) -> std::io::Result<SearchOutcome> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);

    let mut reuse: HashMap<u64, PointRecord> = match std::fs::read_to_string(path) {
        Ok(text) => parse_jsonl(&text).into_iter().map(|r| (r.key, r)).collect(),
        Err(_) => HashMap::new(),
    };
    if let Ok(text) = std::fs::read_to_string(&tmp) {
        for r in parse_jsonl(&text) {
            reuse.insert(r.key, r);
        }
    }

    let mut file = std::fs::File::create(&tmp)?;
    let outcome = run_search_with(cfg, &reuse, |recs| {
        for r in recs {
            writeln!(file, "{}", r.to_json_line())?;
        }
        file.flush()
    })?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(outcome)
}

/// Registry handles for search metrics, resolved once. All of these are
/// deterministic counts: planning and pruning are pure functions of the
/// configuration (see `docs/OBSERVABILITY.md`).
struct SearchMetrics {
    points: std::sync::Arc<pd_metrics::Counter>,
    rung_a_pruned: std::sync::Arc<pd_metrics::Counter>,
    rung_b_pruned: std::sync::Arc<pd_metrics::Counter>,
    promoted: std::sync::Arc<pd_metrics::Counter>,
    evaluated: std::sync::Arc<pd_metrics::Counter>,
    reused: std::sync::Arc<pd_metrics::Counter>,
}

fn search_metrics() -> &'static SearchMetrics {
    static CELLS: std::sync::OnceLock<SearchMetrics> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = pd_metrics::global();
        SearchMetrics {
            points: reg.counter("search.points"),
            rung_a_pruned: reg.counter("search.rung_a.pruned"),
            rung_b_pruned: reg.counter("search.rung_b.pruned"),
            promoted: reg.counter("search.promoted"),
            evaluated: reg.counter("search.evaluated"),
            reused: reg.counter("search.reused"),
        }
    })
}

/// Attributes a prune reason to the adaptive rung that produced it. Rung A
/// stops after `Generate` (errors display as `generation: …`, budget cuts
/// as `… generation rung (budget)`); rung B stops after `Place`.
fn is_rung_a_prune(reason: &str) -> bool {
    reason.starts_with("generation:") || reason.contains("generation rung")
}

/// The engine behind both entry points: plans, then walks the plan in
/// waves, reusing checkpointed full evaluations and batch-evaluating the
/// rest, handing each completed wave's records (in plan order) to `sink`.
pub fn run_search_with(
    cfg: &SearchConfig,
    reuse: &HashMap<u64, PointRecord>,
    mut sink: impl FnMut(&[PointRecord]) -> std::io::Result<()>,
) -> std::io::Result<SearchOutcome> {
    let owned;
    let cache: &ArtifactCache = match &cfg.cache {
        Some(shared) => shared,
        None => {
            owned = ArtifactCache::new();
            &owned
        }
    };
    let control = &cfg.control;
    let (planned, mut interrupted) = match plan(cfg, cache) {
        Some(planned) => (planned, false),
        None => (Vec::new(), true),
    };
    let trials = cfg.space.trials;
    let opts = BatchOptions::jobs(cfg.jobs);
    let wave_len = cfg.wave.max(1);
    let total = planned.len();

    let mut records: Vec<PointRecord> = Vec::with_capacity(total);
    let (mut evaluated, mut reused, mut pruned) = (0usize, 0usize, 0usize);

    // A checkpoint record worth trusting: a completed full evaluation.
    // Pruned records get re-derived (another strategy may have cut the
    // point), and interrupted records — which this runner never writes,
    // but a foreign file could contain — describe a run, not the design.
    let trusted = |r: &&PointRecord| {
        !matches!(r.status, PointStatus::Pruned(_)) && !r.status.is_interrupted()
    };

    for (w, wave) in planned.chunks(wave_len).enumerate() {
        // Stop at the wave edge if the run has been cancelled or its
        // batch deadline has passed — completed waves are already sunk.
        if control.cancel.is_cancelled() || control.batch_deadline.is_some_and(|d| d.expired()) {
            interrupted = true;
            break;
        }
        // Deterministic graceful shutdown: refuse to start a wave that
        // would push past the evaluation budget. (Checked against the
        // whole wave, before any of its slots are tallied, so stopping is
        // order-stable and the sunk records stay a clean plan-order
        // subset.)
        if let Some(budget) = cfg.eval_budget {
            let wave_todo = wave
                .iter()
                .filter(|p| {
                    p.prune.is_none() && reuse.get(&p.point.key(&trials)).filter(trusted).is_none()
                })
                .count();
            if wave_todo > 0 && evaluated + wave_todo > budget {
                interrupted = true;
                break;
            }
        }
        // Wave slots: either a ready record or a spec to evaluate.
        let mut slots: Vec<Option<PointRecord>> = Vec::with_capacity(wave.len());
        let mut todo: Vec<(usize, &Point, DesignSpec)> = Vec::new();
        for (s, p) in wave.iter().enumerate() {
            if let Some(reason) = &p.prune {
                // Pruned records are cheap and pure — always re-derive, so
                // a checkpoint written under another strategy can't leak a
                // stale disposition in.
                pruned += 1;
                if is_rung_a_prune(reason) {
                    search_metrics().rung_a_pruned.incr();
                } else {
                    search_metrics().rung_b_pruned.incr();
                }
                slots.push(Some(PointRecord::pruned(&p.point, &trials, reason.clone())));
                continue;
            }
            let key = p.point.key(&trials);
            match reuse.get(&key).filter(trusted) {
                Some(r) => {
                    reused += 1;
                    slots.push(Some(r.clone()));
                }
                None => {
                    todo.push((s, &p.point, p.point.spec(&trials)));
                    slots.push(None);
                }
            }
        }
        let specs: Vec<DesignSpec> = todo.iter().map(|(_, _, spec)| spec.clone()).collect();
        let results = evaluate_many_controlled(&specs, &opts, cache, None, control);
        for ((s, point, _), result) in todo.into_iter().zip(results) {
            slots[s] = match result {
                Ok(ev) => {
                    evaluated += 1;
                    Some(PointRecord::from_evaluation(point, &trials, &ev))
                }
                // Interrupted points leave their slot empty: the record
                // would describe the run, not the design, and writing it
                // would poison the checkpoint (a resume must re-run it).
                Err(e) if e.is_interruption() => {
                    interrupted = true;
                    None
                }
                Err(e) => {
                    evaluated += 1;
                    Some(PointRecord::from_error(point, &trials, &e))
                }
            };
        }
        let wave_records: Vec<PointRecord> = slots.into_iter().flatten().collect();
        sink(&wave_records)?;
        records.extend(wave_records);
        if cfg.progress {
            eprintln!(
                "[search] wave {}/{}: {done}/{total} points ({evaluated} evaluated, {reused} reused, {pruned} pruned; gen-cache {hits} hits / {misses} misses)",
                w + 1,
                total.div_ceil(wave_len),
                done = records.len(),
                hits = cache.generate().hits(),
                misses = cache.generate().misses(),
            );
        }
        if interrupted {
            break;
        }
    }

    if interrupted {
        // Carry forward the checkpoint's finished evaluations the run did
        // not reach — in later waves, or anywhere when planning itself was
        // interrupted — so the new checkpoint keeps them: in plan order,
        // then by key for points outside the plan.
        let written: HashSet<u64> = records.iter().map(|r| r.key).collect();
        let position: HashMap<u64, usize> = planned
            .iter()
            .enumerate()
            .map(|(i, p)| (p.point.key(&trials), i))
            .collect();
        let mut carried: Vec<&PointRecord> = reuse
            .values()
            .filter(trusted)
            .filter(|r| !written.contains(&r.key))
            .collect();
        carried.sort_by_key(|r| (position.get(&r.key).copied().unwrap_or(usize::MAX), r.key));
        let carried: Vec<PointRecord> = carried.into_iter().cloned().collect();
        if !carried.is_empty() {
            sink(&carried)?;
            records.extend(carried);
        }
    }

    let metrics = search_metrics();
    metrics.points.add(total as u64);
    metrics.evaluated.add(evaluated as u64);
    metrics.reused.add(reused as u64);
    if matches!(cfg.strategy, Strategy::Adaptive { .. }) {
        metrics.promoted.add((total - pruned) as u64);
    }

    Ok(SearchOutcome {
        records,
        evaluated,
        reused,
        pruned,
        cache_hits: cache.generate().hits(),
        cache_misses: cache.generate().misses(),
        interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Family, HallVariant, MediaPolicy, TrialProfile};
    use std::time::Duration;

    fn small_cfg() -> SearchConfig {
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
            jobs: 2,
            wave: 4,
            cache: None,
            progress: false,
            control: BatchControl::default(),
            eval_budget: None,
        }
    }

    #[test]
    fn grid_run_records_every_point_in_plan_order() {
        let cfg = small_cfg();
        let out = run_search(&cfg);
        assert_eq!(out.records.len(), cfg.space.len());
        assert_eq!(out.evaluated, cfg.space.len());
        assert_eq!(out.reused, 0);
        assert_eq!(out.pruned, 0);
        let labels: Vec<&str> = out.records.iter().map(|r| r.label.as_str()).collect();
        let expected: Vec<String> = cfg.space.points().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            expected.iter().map(String::as_str).collect::<Vec<_>>()
        );
        assert!(out.records.iter().all(|r| r.feasible()), "{labels:?}");
        // The two sizes share nothing, but seeds within a family would; at
        // minimum every generation missed exactly once.
        assert!(out.cache_misses >= 1);
    }

    #[test]
    fn job_count_does_not_change_records() {
        let mut cfg = small_cfg();
        cfg.jobs = 1;
        let serial = run_search(&cfg);
        cfg.jobs = 8;
        cfg.wave = 2; // different wave size must not matter either
        let parallel = run_search(&cfg);
        assert_eq!(serial.records, parallel.records);
    }

    #[test]
    fn adaptive_prunes_to_budget_and_records_reasons() {
        let mut cfg = small_cfg();
        cfg.strategy = Strategy::Adaptive { budget: 2, eta: 2 };
        let out = run_search(&cfg);
        assert_eq!(out.records.len(), cfg.space.len());
        let ok = out
            .records
            .iter()
            .filter(|r| matches!(r.status, PointStatus::Ok))
            .count();
        assert!(ok <= 2, "budget bounds full evaluations: {ok}");
        assert_eq!(out.pruned, cfg.space.len() - ok);
        for r in &out.records {
            if let PointStatus::Pruned(reason) = &r.status {
                assert!(
                    reason.starts_with("generation:")
                        || reason.starts_with("placement:")
                        || reason.starts_with("not promoted"),
                    "{reason}"
                );
            }
        }
        // Determinism: same config, same dispositions.
        let again = run_search(&cfg);
        assert_eq!(out.records, again.records);
    }

    #[test]
    fn checkpoint_reuse_skips_completed_evaluations() {
        let cfg = small_cfg();
        let full = run_search(&cfg);
        // Pretend the first 4 points were checkpointed.
        let reuse: HashMap<u64, PointRecord> = full
            .records
            .iter()
            .take(4)
            .map(|r| (r.key, r.clone()))
            .collect();
        let resumed = run_search_with(&cfg, &reuse, |_| Ok(())).unwrap();
        assert_eq!(
            resumed.records, full.records,
            "resume is invisible in output"
        );
        assert_eq!(resumed.reused, 4);
        assert_eq!(resumed.evaluated, full.records.len() - 4);
    }

    #[test]
    fn eval_budget_stops_gracefully_and_resume_completes_the_run() {
        let full = run_search(&small_cfg());

        // Budget smaller than the plan: the run must stop at a wave edge
        // with a clean plan-order prefix and the interrupted flag set.
        let mut cfg = small_cfg();
        cfg.eval_budget = Some(4); // wave = 4, plan = 6 → exactly one wave
        let first = run_search(&cfg);
        assert!(first.interrupted);
        assert_eq!(first.evaluated, 4);
        assert_eq!(first.records, full.records[..4].to_vec());

        // Determinism: the budget cut lands at the same point every time.
        assert_eq!(run_search(&cfg).records, first.records);

        // Resume from the flushed records without a budget: only the
        // remainder is evaluated and the output is byte-identical to an
        // uninterrupted run.
        let reuse: HashMap<u64, PointRecord> =
            first.records.iter().map(|r| (r.key, r.clone())).collect();
        let resumed = run_search_with(&small_cfg(), &reuse, |_| Ok(())).unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.reused, first.records.len());
        assert_eq!(resumed.evaluated, full.records.len() - first.records.len());
        assert_eq!(resumed.records, full.records);
    }

    #[test]
    fn pre_cancelled_run_flushes_nothing_and_reports_interrupted() {
        let cfg = small_cfg();
        cfg.control.cancel.cancel();
        let out = run_search(&cfg);
        assert!(out.interrupted);
        assert!(out.records.is_empty());
        assert_eq!(out.evaluated, 0);
    }

    #[test]
    fn interrupted_resume_carries_unreached_checkpoint_records() {
        let full = run_search(&small_cfg());
        let reuse: HashMap<u64, PointRecord> =
            full.records.iter().map(|r| (r.key, r.clone())).collect();

        // Cancelled before its first wave: the sink still receives every
        // checkpointed record, in plan order.
        let cfg = small_cfg();
        cfg.control.cancel.cancel();
        let mut sunk = Vec::new();
        let out = run_search_with(&cfg, &reuse, |recs| {
            sunk.extend_from_slice(recs);
            Ok(())
        })
        .unwrap();
        assert!(out.interrupted);
        assert_eq!((out.evaluated, out.reused), (0, 0));
        assert_eq!(sunk, full.records);
        assert_eq!(out.records, full.records);

        // Planning interrupted too (adaptive rungs under a cancel): no plan
        // order is known, and still nothing is lost.
        let mut cfg = small_cfg();
        cfg.strategy = Strategy::Adaptive { budget: 2, eta: 2 };
        cfg.control.cancel.cancel();
        let out = run_search_with(&cfg, &reuse, |_| Ok(())).unwrap();
        let mut keys: Vec<u64> = out.records.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        let mut want: Vec<u64> = reuse.keys().copied().collect();
        want.sort_unstable();
        assert_eq!(keys, want);

        // Stopped by the budget after one wave, with only the last point
        // checkpointed: the walked wave's records, then the carried one.
        let last = full.records.last().unwrap().clone();
        let reuse: HashMap<u64, PointRecord> = std::iter::once((last.key, last.clone())).collect();
        let mut cfg = small_cfg();
        cfg.eval_budget = Some(4);
        let out = run_search_with(&cfg, &reuse, |_| Ok(())).unwrap();
        assert!(out.interrupted);
        let mut want = full.records[..4].to_vec();
        want.push(last);
        assert_eq!(out.records, want);
    }

    #[test]
    fn pre_cancelled_adaptive_run_generates_nothing() {
        let mut cfg = small_cfg();
        cfg.strategy = Strategy::Adaptive { budget: 2, eta: 2 };
        cfg.control.cancel.cancel();
        let out = run_search(&cfg);
        assert!(out.interrupted);
        assert!(out.records.is_empty(), "an interrupted rung prunes nothing");
        assert_eq!((out.evaluated, out.pruned), (0, 0));
        assert_eq!(out.cache_misses, 0, "no rung may generate after a cancel");
    }

    #[test]
    fn expired_deadlines_stop_the_run_without_timed_out_records() {
        let mut cfg = small_cfg();
        cfg.control.batch_deadline = Some(pd_core::Deadline::after(Duration::ZERO));
        let out = run_search(&cfg);
        assert!(out.interrupted);
        assert!(out.records.is_empty());
        assert_eq!(out.evaluated, 0);

        // Every spec overruns a 1 ns budget at its first stage boundary:
        // the timed-out points are dropped, never written as records.
        let mut cfg = small_cfg();
        cfg.control.spec_timeout = Some(Duration::from_nanos(1));
        let out = run_search(&cfg);
        assert!(out.interrupted);
        assert!(
            out.records.iter().all(|r| !r.status.is_interrupted()),
            "{:?}",
            out.records
        );
        assert_eq!(out.evaluated, 0);
    }

    #[test]
    fn interrupted_checkpoint_records_are_not_reused() {
        let cfg = small_cfg();
        let full = run_search(&cfg);
        // A foreign checkpoint claiming a point was cancelled must be
        // re-evaluated, not parroted back.
        let mut poisoned = full.records[0].clone();
        poisoned.status = PointStatus::Error("cancelled: evaluation stopped".into());
        poisoned.metrics = None;
        let reuse: HashMap<u64, PointRecord> = std::iter::once((poisoned.key, poisoned)).collect();
        let out = run_search_with(&cfg, &reuse, |_| Ok(())).unwrap();
        assert_eq!(out.reused, 0);
        assert_eq!(out.records, full.records);
    }

    #[test]
    fn bounded_cache_changes_stats_not_records() {
        let mut cfg = small_cfg();
        let unbounded = run_search(&cfg);
        cfg.cache = Some(Arc::new(ArtifactCache::with_capacity(1)));
        let bounded = run_search(&cfg);
        assert_eq!(unbounded.records, bounded.records);
    }
}
