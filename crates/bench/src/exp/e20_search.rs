//! E20 — design-space search, Pareto frontiers, and envelope mapping.
//! §5.2: the hoped-for "multi-dimensional capability envelope"; §5.4:
//! metrics that let novel designs be judged rather than feared. Instead of
//! evaluating a hand-picked design per family (E6), this experiment turns
//! `pd-search` loose on a knob grid — every family × three target sizes in
//! a floor-constrained hall — under an adaptive budget, then reports (a)
//! each family's Pareto frontier over cost/fault-retention/TCO/bisection
//! and (b) where along the size axis each family first leaves its
//! feasibility envelope.
//!
//! The search spends cheap generation + placement proxies on the whole
//! grid and full pipelines only on the promoted budget, so the infeasible
//! upper sizes cost one placement attempt each — and their placement
//! errors are exactly the envelope boundary the paper asks to map.

use pd_core::batch::{BatchControl, BatchOptions};
use pd_search::prelude::*;

/// Target sizes swept per family. The hall is the dense variant
/// (8 × 14 slots), so the top size cannot be racked — deliberately: the
/// envelope table needs a boundary to find.
pub const SIZES: [usize; 3] = [256, 1024, 4096];

/// Full-pipeline evaluations the adaptive strategy may spend.
pub const BUDGET: usize = 12;

/// The search configuration the experiment runs.
pub fn config() -> SearchConfig {
    SearchConfig {
        space: ParamSpace {
            families: Family::ALL.to_vec(),
            servers: SIZES.to_vec(),
            speeds: vec![100.0],
            seeds: vec![11],
            halls: vec![HallVariant::Dense],
            media: vec![MediaPolicy::Standard],
            fault_scenarios: vec![2],
            trials: TrialProfile {
                yield_trials: 5,
                repair_trials: 2,
            },
        },
        strategy: Strategy::Adaptive {
            budget: BUDGET,
            eta: 2,
        },
        jobs: 0,
        wave: 8,
        ..SearchConfig::default()
    }
}

/// Runs the experiment under `control`.
pub fn run(control: &BatchControl) -> String {
    run_with(&BatchOptions::default(), control)
}

/// [`run`] with explicit batch options; output is byte-identical at any
/// job count (the search inherits the batch engine's contract).
pub fn run_with(opts: &BatchOptions, control: &BatchControl) -> String {
    let mut cfg = config();
    cfg.jobs = opts.jobs;
    cfg.control = control.clone();
    let out_search = run_search(&cfg);
    let records = &out_search.records;

    let mut out = String::new();
    out.push_str("E20 — design-space search: Pareto frontiers and envelope map (§5.2, §5.4)\n");
    out.push_str(&format!(
        "adaptive search over {} grid points ({} families × sizes {:?}, dense hall): \
         {} full evaluations, {} pruned by generation/placement proxies or budget\n\n",
        cfg.space.len(),
        cfg.space.families.len(),
        SIZES,
        records
            .iter()
            .filter(|r| matches!(r.status, PointStatus::Ok))
            .count(),
        out_search.pruned,
    ));

    let axes = default_axes();
    out.push_str("per-family Pareto frontier (cost/server ↓, fault retention ↑, TCO/server ↓, bisection ↑):\n");
    for (family, front) in frontier_by_family(records, &axes) {
        if front.is_empty() {
            out.push_str(&format!("  {family:<14} — no feasible point in budget\n"));
            continue;
        }
        for &i in &front {
            let m = records[i]
                .metrics
                .as_ref()
                .expect("frontier points have metrics");
            out.push_str(&format!(
                "  {family:<14} {:<28} ${:>6.0}/srv  fault {:>3.0}%  tco ${:>6.0}/srv  bisection {:.2}\n",
                records[i].label,
                m.cost_per_server,
                m.fault_mean_retention.unwrap_or(0.0) * 100.0,
                m.tco_per_server,
                m.bisection,
            ));
        }
    }

    out.push_str("\nfeasibility envelope along the size axis:\n");
    out.push_str(&render_envelopes(&map_envelopes(records)));

    out.push_str(
        "\npaper says: automation has a capability envelope, and designs should \
         be judged by mapped metrics rather than feared as novel\nwe measure: \
         the frontier shows no family dominating all four axes at once, and \
         the envelope table pins the size at which each family first fails \
         the same physical checks — the boundary the paper wanted made \
         explicit\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_has_frontier_and_envelope_sections() {
        let text = run(&BatchControl::default());
        assert!(text.contains("Pareto frontier"), "{text}");
        assert!(text.contains("feasibility envelope"), "{text}");
        assert!(
            text.contains("| family | max feasible | first break |"),
            "{text}"
        );
        for fam in ["fat-tree", "jellyfish", "slimfly"] {
            assert!(text.contains(fam), "missing family {fam}");
        }
    }

    #[test]
    fn budget_bounds_full_evaluations_and_top_size_breaks() {
        let out = run_search(&config());
        let ok = out
            .records
            .iter()
            .filter(|r| matches!(r.status, PointStatus::Ok))
            .count();
        assert!(ok <= BUDGET, "{ok} > {BUDGET}");
        // The 4096-server points cannot be racked into the dense hall: every
        // family's envelope must break at or before the top size.
        for e in map_envelopes(&out.records) {
            assert!(
                e.first_infeasible_servers.is_some_and(|s| s <= 4096),
                "{}: expected a boundary in-sweep, got {e:?}",
                e.family
            );
        }
    }

    #[test]
    fn output_is_deterministic_across_job_counts() {
        let control = BatchControl::default();
        let serial = run_with(&BatchOptions::jobs(1), &control);
        let parallel = run_with(&BatchOptions::jobs(8), &control);
        assert_eq!(serial, parallel);
    }
}
