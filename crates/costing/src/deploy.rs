//! Lowering a cabling plan into a precedence-ordered deployment task graph.
//!
//! Precedence structure:
//!
//! 1. every rack must be installed before its switches;
//! 2. every switch at both ends of a cable must be installed before the
//!    cable is pulled (bundles wait for all member endpoints);
//! 3. every cable of a link must be in before the link is tested.
//!
//! The graph is what the paper's "automated planning of operator actions"
//! (§2.3) consumes: the scheduler walks it with a technician pool, and the
//! yield model samples errors on its connecting tasks.

use crate::calib::LaborCalibration;
use crate::labor::WorkKind;
use pd_cabling::{BundlingReport, CablingPlan};
use pd_geometry::Hours;
use pd_physical::{Placement, SlotId};
use pd_topology::{LinkId, Network};

/// Identifier of a task within a [`DeploymentPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Re-export of the labor vocabulary for plan consumers.
pub use crate::labor::WorkKind as TaskKind;

/// One schedulable unit of physical work.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkTask {
    /// Identifier (dense index).
    pub id: TaskId,
    /// What the work is.
    pub kind: WorkKind,
    /// Where the technician stands (rack-exclusion + walking).
    pub site: SlotId,
    /// Tasks that must complete first.
    pub preds: Vec<TaskId>,
    /// The link this task serves, if any (test/pull/bundle tasks).
    pub link: Option<LinkId>,
    /// Technicians needed simultaneously (§3.2 safety: heavy chassis are a
    /// two-person lift; most tasks need one).
    pub techs_required: usize,
}

/// The full deployment task graph.
#[derive(Debug, Clone)]
pub struct DeploymentPlan {
    /// Tasks, indexed by `TaskId.0`.
    pub tasks: Vec<WorkTask>,
}

impl DeploymentPlan {
    /// Builds the task graph for a placed, cabled network.
    ///
    /// If `bundling` is provided, every manufacturable bundle becomes one
    /// [`WorkKind::InstallBundle`] task and only loose cables get
    /// individual pulls; otherwise every cable is pulled loose.
    pub fn from_cabling(
        net: &Network,
        placement: &Placement,
        plan: &CablingPlan,
        bundling: Option<&BundlingReport>,
    ) -> Self {
        let mut tasks: Vec<WorkTask> = Vec::new();
        let mut push = |kind: WorkKind,
                        site: SlotId,
                        preds: Vec<TaskId>,
                        link: Option<LinkId>,
                        techs: usize| {
            let id = TaskId(tasks.len() as u32);
            tasks.push(WorkTask {
                id,
                kind,
                site,
                preds,
                link,
                techs_required: techs.max(1),
            });
            id
        };

        // 1. Rack installs, by slot id.
        let slots = placement
            .racks
            .iter()
            .map(|r| r.slot)
            .chain(plan.sites.iter().map(|s| s.slot))
            .map(|slot| slot.0 + 1)
            .max()
            .unwrap_or(0);
        let mut rack_task: Vec<Option<TaskId>> = vec![None; slots];
        for rack in &placement.racks {
            // Standing a rack up is always a two-person job (tip hazard).
            let t = push(WorkKind::InstallRack, rack.slot, Vec::new(), None, 2);
            rack_task[rack.slot.0] = Some(t);
        }
        // Indirection sites are racks too.
        for site in &plan.sites {
            let t = push(WorkKind::InstallRack, site.slot, Vec::new(), None, 2);
            rack_task[site.slot.0] = Some(t);
        }
        let rack_of = |slot: SlotId| rack_task.get(slot.0).copied().flatten();

        // 2. Switch installs, by switch id.
        let ids = net
            .switches()
            .map(|s| s.id.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut switch_task: Vec<Option<TaskId>> = vec![None; ids];
        for s in net.switches() {
            if let Some(slot) = placement.slot_of(s.id) {
                let preds = rack_of(slot).map(|t| vec![t]).unwrap_or_default();
                // §3.2 safety: chassis switches (radix > 64 ⇒ 4 RU, ~45 kg)
                // are a two-person lift.
                let techs = if s.radix > 64 { 2 } else { 1 };
                let t = push(WorkKind::InstallSwitch, slot, preds, None, techs);
                switch_task[s.id.0 as usize] = Some(t);
            }
        }
        // The switch installs a run's cable waits for.
        let ends = |run: &pd_cabling::CableRun| {
            net.link(run.link).map_or([None, None], |l| {
                [l.a, l.b].map(|end| switch_task.get(end.0 as usize).copied().flatten())
            })
        };

        // 3. Cables: bundles first (each member run covered once), then
        // loose runs. Each cable task is listed under every link it serves.
        let mut covered: Vec<bool> = vec![false; plan.runs.len()];
        let mut cable_tasks: Vec<(LinkId, TaskId)> = Vec::new();
        if let Some(rep) = bundling {
            let mut links: Vec<LinkId> = Vec::new();
            for bundle in rep.manufacturable() {
                let mut preds: Vec<TaskId> = Vec::new();
                links.clear();
                for &m in &bundle.members {
                    covered[m] = true;
                    let run = &plan.runs[m];
                    links.push(run.link);
                    preds.extend(ends(run).into_iter().flatten());
                    // Site racks must exist before a mediated cable lands.
                    if run.via_site.is_some() {
                        preds.extend([run.from_slot, run.to_slot].into_iter().filter_map(rack_of));
                    }
                }
                preds.sort();
                preds.dedup();
                let t = push(
                    WorkKind::InstallBundle {
                        members: bundle.size(),
                        length: bundle.length,
                    },
                    bundle.from_slot,
                    preds,
                    None,
                    1,
                );
                links.sort();
                links.dedup();
                cable_tasks.extend(links.iter().map(|&l| (l, t)));
            }
        }
        for (i, run) in plan.runs.iter().enumerate() {
            if covered[i] {
                continue;
            }
            let mut preds: Vec<TaskId> = ends(run).into_iter().flatten().collect();
            preds.extend([run.from_slot, run.to_slot].into_iter().filter_map(rack_of));
            preds.sort();
            preds.dedup();
            let t = push(
                WorkKind::PullLooseCable {
                    length: run.routed_length,
                },
                run.from_slot,
                preds,
                Some(run.link),
                1,
            );
            cable_tasks.push((run.link, t));
        }

        // 4. Link tests, in link order, each after its cable tasks in the
        // order they were made.
        cable_tasks.sort_by_key(|&(link, _)| link);
        for group in cable_tasks.chunk_by(|a, b| a.0 == b.0) {
            let link = group[0].0;
            let site = net
                .link(link)
                .and_then(|l| placement.slot_of(l.a))
                .unwrap_or(SlotId(0));
            let preds = group.iter().map(|&(_, t)| t).collect();
            push(WorkKind::TestLink, site, preds, Some(link), 1);
        }

        Self { tasks }
    }

    /// Total labor in **person-hours** (multi-person tasks count once per
    /// crew member) — the labor-cost denominator.
    pub fn total_work(&self, calib: &LaborCalibration) -> Hours {
        self.tasks
            .iter()
            .map(|t| t.kind.duration(calib) * t.techs_required.max(1) as f64)
            .sum()
    }

    /// Critical-path length (infinite technicians, no walking) — the lower
    /// bound on any schedule's makespan.
    pub fn critical_path(&self, calib: &LaborCalibration) -> Hours {
        let mut finish: Vec<Hours> = vec![Hours::ZERO; self.tasks.len()];
        // Tasks are topologically ordered by construction (preds always
        // have smaller ids).
        for t in &self.tasks {
            let ready = t
                .preds
                .iter()
                .map(|p| finish[p.0 as usize])
                .fold(Hours::ZERO, Hours::max);
            finish[t.id.0 as usize] = ready + t.kind.duration(calib);
        }
        finish.into_iter().fold(Hours::ZERO, Hours::max)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if there is no work.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_cabling::{CablingPolicy, TrayTrees};
    use pd_geometry::Gbps;
    use pd_physical::placement::EquipmentProfile;
    use pd_physical::{Hall, HallSpec, PlacementStrategy};
    use pd_topology::gen::fat_tree;

    fn build(bundled: bool) -> (Network, DeploymentPlan) {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let hall = Hall::new(HallSpec::default());
        let placement = Placement::place(
            &net,
            &hall,
            PlacementStrategy::BlockLocal,
            &EquipmentProfile::default(),
        )
        .unwrap();
        let trees = TrayTrees::new(&hall);
        let plan = CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        let rep = BundlingReport::analyze(&plan, 4);
        let dp = DeploymentPlan::from_cabling(&net, &placement, &plan, bundled.then_some(&rep));
        (net, dp)
    }

    #[test]
    fn graph_shape_unbundled() {
        let (net, dp) = build(false);
        // 13 racks + 20 switches + 32 pulls + 32 tests.
        assert_eq!(dp.len(), 13 + 20 + 32 + 32);
        let tests = dp
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, WorkKind::TestLink))
            .count();
        assert_eq!(tests, net.link_count());
    }

    #[test]
    fn preds_are_topologically_ordered() {
        let (_, dp) = build(true);
        for t in &dp.tasks {
            for p in &t.preds {
                assert!(p.0 < t.id.0, "task {} has forward pred {}", t.id.0, p.0);
            }
        }
    }

    #[test]
    fn bundling_reduces_task_count_and_work() {
        // k=4 bundles are tiny (2–4 cables) and roughly a wash against the
        // bundle's fixed cost — itself a faithful effect. Use k=8, where
        // pod→spine groups reach 8 cables and the savings are clear.
        let net = fat_tree(8, Gbps::new(100.0)).unwrap();
        let hall = Hall::new(HallSpec::default());
        let placement = Placement::place(
            &net,
            &hall,
            PlacementStrategy::BlockLocal,
            &EquipmentProfile::default(),
        )
        .unwrap();
        let trees = TrayTrees::new(&hall);
        let plan = CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        let rep = BundlingReport::analyze(&plan, 4);
        let loose = DeploymentPlan::from_cabling(&net, &placement, &plan, None);
        let bundled = DeploymentPlan::from_cabling(&net, &placement, &plan, Some(&rep));
        assert!(bundled.len() < loose.len());
        let c = LaborCalibration::default();
        assert!(
            bundled.total_work(&c) < loose.total_work(&c) * 0.9,
            "bundled {} loose {}",
            bundled.total_work(&c),
            loose.total_work(&c)
        );
    }

    #[test]
    fn critical_path_at_most_total_work() {
        let (_, dp) = build(true);
        let c = LaborCalibration::default();
        let cp = dp.critical_path(&c);
        let tw = dp.total_work(&c);
        assert!(cp > Hours::ZERO);
        assert!(cp <= tw);
    }

    #[test]
    fn connections_counted() {
        let (net, dp) = build(false);
        // Every loose cable contributes 2 connections.
        let connections: usize = dp.tasks.iter().map(|t| t.kind.connections()).sum();
        assert_eq!(connections, net.link_count() * 2);
    }
}
