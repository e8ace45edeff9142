//! An accounting oracle for the physical stages: it re-derives what the
//! Cable, Bundle and Schedule artifacts must add up to from the artifacts
//! themselves, with none of the code that built them, the way a placement
//! checker walks each virtual link's physical path and re-sums host-link
//! load.
//!
//! Every family at 256, 1024 and 4096 servers, in two halls: the
//! benchmark's 24×30 hall and a tight hall whose trays hold a few dozen
//! fibers, where routes detour, trays fill and some links find no path.
//! For each design that places:
//!
//! - each tray segment's `used` area is the sum of the areas of the runs
//!   whose `tray_edges` cross it;
//! - each link trunk is realized by one run, or two halves if the link is
//!   mediated, or its link appears in `failures`;
//! - bundle members share their bundle's slot pair, and no run is in two
//!   bundles;
//! - the deployment tasks cover each run exactly once;
//! - no two scheduled tasks overlap in time at one slot.

use physnet::cabling::{BundlingReport, CablingPlan, TrayTrees};
use physnet::core::compare::all_families;
use physnet::core::DesignSpec;
use physnet::costing::{DeploymentPlan, Schedule, TaskKind};
use physnet::geometry::Gbps;
use physnet::physical::{Hall, HallSpec, Placement};
use physnet::topology::{LinkId, Network};
use std::collections::HashMap;

/// The benchmark's hall.
fn benchmark_hall() -> HallSpec {
    HallSpec {
        rows: 24,
        slots_per_row: 30,
        ..HallSpec::default()
    }
}

/// Trays that hold a few dozen fibers (`pd_cabling`'s plan tests use it).
fn tight_hall() -> HallSpec {
    HallSpec {
        tray_capacity_per_generation: physnet::geometry::SquareMillimeters::new(400.0),
        tray_generations: 1,
        ..HallSpec::default()
    }
}

/// Each tray segment's committed area equals the areas of the runs that
/// cross it. Probes are committed and released before each true area is,
/// so the sums may differ from the plain re-sum in the last bits.
fn check_tray_areas(name: &str, plan: &CablingPlan) {
    let router = &plan.tray.router;
    let mut expect = vec![0.0f64; router.edge_count()];
    for run in &plan.runs {
        for e in &run.tray_edges {
            expect[e.0] += run.choice.sku.area().value();
        }
    }
    for e in router.edge_ids() {
        let used = router.used(e).value();
        let want = expect[e.0];
        assert!(
            (used - want).abs() <= 1e-9 * want.max(1.0),
            "{name}: tray segment {} holds {used} mm² but its runs sum to {want} mm²",
            e.0
        );
    }
}

/// Each link trunk has its run (two halves if mediated) or a failure.
fn check_links_realized(name: &str, net: &Network, plan: &CablingPlan) {
    let mut runs: HashMap<LinkId, Vec<(u16, u8)>> = HashMap::new();
    for run in &plan.runs {
        runs.entry(run.link)
            .or_default()
            .push((run.trunk_index, run.half));
        assert_eq!(
            run.via_site.is_some(),
            net.link(run.link).unwrap().via_ocs,
            "{name}: {} is routed through a site iff it is mediated",
            run.link
        );
    }
    let mut failures: HashMap<LinkId, usize> = HashMap::new();
    for (link, _) in &plan.failures {
        *failures.entry(*link).or_default() += 1;
    }
    for link in net.links() {
        let halves: u8 = if link.via_ocs { 2 } else { 1 };
        let mut got = runs.remove(&link.id).unwrap_or_default();
        got.sort_unstable();
        let failed = failures.get(&link.id).copied().unwrap_or(0);
        if failed == 0 {
            let want: Vec<(u16, u8)> = (0..link.trunking)
                .flat_map(|t| (0..halves).map(move |h| (t, h)))
                .collect();
            assert_eq!(got, want, "{name}: {} is not realized once", link.id);
        } else {
            // A failed trunk leaves no run; the others are realized whole.
            assert!(failed <= usize::from(link.trunking), "{name}: {}", link.id);
            let mut trunks: Vec<u16> = got.iter().map(|&(t, _)| t).collect();
            trunks.dedup();
            assert!(
                trunks.len() + failed <= usize::from(link.trunking),
                "{name}: {} has runs for failed trunks",
                link.id
            );
            for t in trunks {
                let n = got.iter().filter(|&&(tt, _)| tt == t).count();
                assert_eq!(n, usize::from(halves), "{name}: {} trunk {t}", link.id);
            }
        }
    }
    assert!(runs.is_empty(), "{name}: runs of unknown links {runs:?}");
}

/// Bundle members share their bundle's slot pair; no run is in two.
fn check_bundles(name: &str, plan: &CablingPlan, bundling: &BundlingReport) {
    let mut owner = vec![None; plan.runs.len()];
    for (b, bundle) in bundling.bundles.iter().enumerate() {
        for &m in &bundle.members {
            assert_eq!(owner[m], None, "{name}: run {m} is in two bundles");
            owner[m] = Some(b);
            let run = &plan.runs[m];
            let pair = if run.from_slot <= run.to_slot {
                (run.from_slot, run.to_slot)
            } else {
                (run.to_slot, run.from_slot)
            };
            assert_eq!(
                pair,
                (bundle.from_slot, bundle.to_slot),
                "{name}: run {m} is not on its bundle's slot pair"
            );
        }
    }
}

/// The cable tasks cover each run exactly once: manufacturable bundles,
/// in order, then one loose pull per remaining run, in run order.
fn check_tasks_cover_runs(
    name: &str,
    plan: &CablingPlan,
    bundling: Option<&BundlingReport>,
    deployment: &DeploymentPlan,
) {
    let mut covered = vec![0u32; plan.runs.len()];
    let bundles: Vec<_> = bundling
        .map(|rep| rep.manufacturable().collect())
        .unwrap_or_default();
    for bundle in &bundles {
        for &m in &bundle.members {
            covered[m] += 1;
        }
    }
    let loose: Vec<usize> = (0..plan.runs.len()).filter(|&i| covered[i] == 0).collect();
    let mut loose = loose.into_iter();
    let mut next_bundle = bundles.iter();
    for task in &deployment.tasks {
        match task.kind {
            TaskKind::InstallBundle { members, length } => {
                let bundle = next_bundle.next().expect("a task per bundle");
                assert_eq!((members, length), (bundle.size(), bundle.length), "{name}");
                assert_eq!(task.site, bundle.from_slot, "{name}");
            }
            TaskKind::PullLooseCable { length } => {
                let i = loose.next().expect("a pull per loose run");
                let run = &plan.runs[i];
                assert_eq!(
                    (task.link, task.site, length),
                    (Some(run.link), run.from_slot, run.routed_length),
                    "{name}: pull task {} is not run {i}",
                    task.id.0
                );
                covered[i] += 1;
            }
            _ => {}
        }
    }
    assert!(next_bundle.next().is_none(), "{name}: a bundle has no task");
    assert!(loose.next().is_none(), "{name}: a loose run has no task");
    assert!(covered.iter().all(|&c| c == 1), "{name}: {covered:?}");
}

/// No two tasks at one slot overlap in time.
fn check_slot_exclusion(name: &str, deployment: &DeploymentPlan, schedule: &Schedule) {
    let mut per_slot: HashMap<_, Vec<(f64, f64)>> = HashMap::new();
    for t in &deployment.tasks {
        let i = t.id.0 as usize;
        per_slot
            .entry(t.site)
            .or_default()
            .push((schedule.start[i].value(), schedule.finish[i].value()));
    }
    for (slot, mut spans) in per_slot {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "{name}: tasks overlap at {slot}: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn physical_artifacts_add_up_for_every_family() {
    let mut designs = 0;
    let mut failed_links = 0;
    for hall_spec in [benchmark_hall(), tight_hall()] {
        let hall = Hall::new(hall_spec);
        let trees = TrayTrees::new(&hall);
        for servers in [256, 1024, 4096] {
            for (family, topology) in all_families(servers, Gbps::new(100.0), 1) {
                let spec = DesignSpec::new(format!("{family}-{servers}"), topology);
                let name = format!(
                    "{} in {}×{}",
                    spec.name, hall.spec.rows, hall.spec.slots_per_row
                );
                let net = spec.topology.build().unwrap();
                let Ok(placement) = Placement::place(&net, &hall, spec.placement, &spec.equipment)
                else {
                    continue;
                };
                let plan = CablingPlan::build(&net, &hall, &placement, &spec.cabling, &trees);
                let bundling = BundlingReport::analyze(&plan, spec.min_bundle_size);
                let bundled = spec.use_bundles.then_some(&bundling);
                let deployment = DeploymentPlan::from_cabling(&net, &placement, &plan, bundled);
                let schedule = Schedule::run(&deployment, &hall, &spec.schedule);

                check_tray_areas(&name, &plan);
                check_links_realized(&name, &net, &plan);
                check_bundles(&name, &plan, &bundling);
                check_tasks_cover_runs(&name, &plan, bundled, &deployment);
                check_slot_exclusion(&name, &deployment, &schedule);
                designs += 1;
                failed_links += plan.failures.len();
            }
        }
    }
    // Every design places in the benchmark's hall; the tight hall's 200
    // slots take every 256-server design, all but one at 1024 and one at
    // 4096.
    assert_eq!(designs, 45, "designs placed");
    assert!(
        failed_links > 0,
        "the tight hall never ran out of tray space"
    );
}
