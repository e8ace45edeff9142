//! Experiment registry.
//!
//! | id | paper anchor | claim |
//! |----|--------------|-------|
//! | e1 | §2.3 | +5 min × 10k things ≈ 1 week; stranded capital |
//! | e2 | §3.1 \[10\] | 100G→400G DAC: ×2.7 area; 256-cable racks; AEC |
//! | e3 | §3.1 \[44\] | pre-built bundles save ≈40% and weeks |
//! | e4 | §4.1 \[56\] | indirection concentrates expansion rewiring |
//! | e5 | §4.1 \[39\] | OCS topology engineering for skewed traffic |
//! | e6 | §4.2 | expanders win on paper, lose on deployability |
//! | e7 | §4.2 \[50\] | d/2 rewires per added ToR in flat networks |
//! | e8 | §4.3 | live fat-tree → direct-connect conversion |
//! | e9 | §3.3 | unit of repair vs linecard size; availability |
//! | e10 | §5.3 | twin dry-runs catch errors before the floor |
//! | e11 | §3.4 \[46\]\[12\] | diversity support: mixed radix/speed |
//! | e12 | §2.1 | decom safety rule vs naive removal |
//! | e13 | §3.5 §5.4 | day-1 vs lifetime cost crossover |
//! | e14 | §2.2 §3.3 | supply-chain fungibility, vendor outages |
//! | e15 | §2 | human vs robotic deployment |
//! | e16 | §3.1 | free-space optics vs cables |
//! | e17 | §3.5 §2.3 | incremental deployment under forecast error |
//! | e18 | — | toolkit ablations (modeling-knob sensitivity) |
//! | e19 | §3.3 | correlated fault domains vs abstract resilience |
//! | e20 | §5.2 §5.4 | design-space search: Pareto frontiers, envelope map |

pub mod e01_time;
pub mod e02_cables;
pub mod e03_bundles;
pub mod e04_indirection;
pub mod e05_ocs;
pub mod e06_families;
pub mod e07_incremental;
pub mod e08_conversion;
pub mod e09_repair;
pub mod e10_twin;
pub mod e11_diversity;
pub mod e12_decom;
pub mod e13_tco;
pub mod e14_supply;
pub mod e15_robots;
pub mod e16_fso;
pub mod e17_phased;
pub mod e18_ablations;
pub mod e19_faultdomains;
pub mod e20_search;

use pd_core::batch::BatchControl;
use pd_core::pipeline::EvalError;

/// One experiment: (name, description, runner). The runner takes the
/// resilience control the CLI parsed; only E6, E19 and E20 read it.
pub type Experiment = (&'static str, &'static str, fn(&BatchControl) -> String);

/// Every experiment, in running order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "§2.3: +5 min/item × 10k items; stranded capital",
            |_| e01_time::run(),
        ),
        (
            "e2",
            "§3.1: DAC diameter growth, rack feasibility, AEC",
            |_| e02_cables::run(),
        ),
        ("e3", "§3.1: pre-built bundle savings", |_| {
            e03_bundles::run()
        }),
        ("e4", "§4.1: indirection and expansion rewiring", |_| {
            e04_indirection::run()
        }),
        ("e5", "§4.1: OCS topology engineering", |_| e05_ocs::run()),
        (
            "e6",
            "§4.2: topology families, goodness vs deployability",
            e06_families::run,
        ),
        ("e7", "§4.2: incremental ToR addition cost", |_| {
            e07_incremental::run()
        }),
        (
            "e8",
            "§4.3: live fat-tree→direct-connect conversion",
            |_| e08_conversion::run(),
        ),
        ("e9", "§3.3: unit of repair and availability", |_| {
            e09_repair::run()
        }),
        ("e10", "§5.3: digital-twin early detection value", |_| {
            e10_twin::run()
        }),
        ("e11", "§3.4: heterogeneity / diversity support", |_| {
            e11_diversity::run()
        }),
        ("e12", "§2.1: decom safety", |_| e12_decom::run()),
        ("e13", "§3.5: day-1 vs lifetime cost", |_| e13_tco::run()),
        (
            "e14",
            "§2.2: supply-chain fungibility and vendor outages",
            |_| e14_supply::run(),
        ),
        ("e15", "§2: human vs robotic deployment", |_| {
            e15_robots::run()
        }),
        ("e16", "§3.1: free-space optics vs cables", |_| {
            e16_fso::run()
        }),
        (
            "e17",
            "§3.5: incremental deployment under forecast error",
            |_| e17_phased::run(),
        ),
        (
            "e18",
            "toolkit ablations: modeling-knob sensitivity",
            |_| e18_ablations::run(),
        ),
        (
            "e19",
            "§3.3: correlated fault domains vs abstract resilience",
            e19_faultdomains::run,
        ),
        (
            "e20",
            "§5.2/§5.4: design-space search, Pareto frontiers, envelope map",
            e20_search::run,
        ),
    ]
}

/// Runs an experiment by name under `control`; `None` if unknown.
pub fn run_by_name(name: &str, control: &BatchControl) -> Option<String> {
    all_experiments()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, f)| f(control))
}

/// Runs every experiment under `control`, fanning independent ones out
/// over `jobs` worker threads (`1` = serial, `0` = one per available core).
///
/// Experiments share no mutable state and are deterministic, so the only
/// effect of `jobs` is wall-clock time: the returned `(name, report)` pairs
/// are always in registry order with byte-identical text. Workers claim the
/// next un-started experiment from a shared counter, so one slow experiment
/// (E6) doesn't idle the pool behind a static split.
pub fn run_all(jobs: usize, control: &BatchControl) -> Vec<(&'static str, String)> {
    let all = all_experiments();
    let jobs = if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
    .min(all.len())
    .max(1);

    if jobs <= 1 {
        return all.into_iter().map(|(n, _, f)| (n, f(control))).collect();
    }

    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let next = &next;
                let all = &all;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= all.len() {
                            break;
                        }
                        local.push((i, (all[i].2)(control)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });

    let mut reports: Vec<Option<String>> = all.iter().map(|_| None).collect();
    for (i, text) in per_worker.into_iter().flatten() {
        reports[i] = Some(text);
    }
    all.iter()
        .zip(reports)
        .map(|((name, _, _), text)| (*name, text.expect("every index claimed")))
        .collect()
}

/// The partial-success preamble of an experiment whose designs did not
/// all evaluate (e.g. under `--spec-timeout`/`--deadline`): a count, one
/// typed error line per failed design, in spec order, and a hint. Empty
/// when nothing failed, so a complete run's output is unchanged.
fn partial_results(total: usize, failures: &[(String, EvalError)]) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "PARTIAL RESULTS: {} of {total} designs evaluated; {} interrupted or failed\n",
        total - failures.len(),
        failures.len(),
    );
    for (name, e) in failures {
        out.push_str(&format!("  {name:<14} {e}\n"));
    }
    out.push_str("rerun without --spec-timeout/--deadline for the full comparison\n\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_runnable_by_name() {
        let all = all_experiments();
        let mut names: Vec<_> = all.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
        assert!(run_by_name("nope", &BatchControl::default()).is_none());
    }
}
