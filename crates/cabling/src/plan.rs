//! The cabling plan: every logical link realized as physical cable.
//!
//! [`CablingPlan::build`] walks the placed network and, for each link:
//!
//! 1. finds the tray route between the two racks (or an intra-rack length
//!    for same-rack links),
//! 2. for OCS/patch-panel-mediated links ([`pd_topology::Link::via_ocs`]),
//!    routes *two* cables — switch→site and site→switch — through an
//!    [`IndirectionSite`] (paper §4.1's indirection layer),
//! 3. selects the cheapest feasible media (reach, loss budget, discrete SKU
//!    lengths; see [`crate::catalog`]),
//! 4. commits the cable's cross-sectional area to every tray segment it
//!    traverses.
//!
//! A cable's tray route comes from [`TrayTrees`]: the probe's shortest-path
//! tree from the cable's source slot, computed once on the hall's *empty*
//! tray and shared by every plan built in that hall. The empty tray is the
//! largest set of segments that fit the probe, so while the tree's path
//! still fits the current tray it is the path a fresh search would return
//! (see [`pd_geometry::route`]). Only a cable whose tree path no longer
//! fits is searched for.
//!
//! Links that cannot be realized (no tray path with capacity, no feasible
//! media) are recorded as [`CablingError`]s, not panics: an infeasible
//! cabling plan is a *result* the deployability report surfaces — it is the
//! paper's "designs that look appealing on paper can turn out to be
//! infeasible" made concrete.

use crate::catalog::{CableCatalog, MediaChoice};
use crate::media::MediaClass;
use pd_geometry::route::RoutedPath;
use pd_geometry::{
    Dollars, Meters, RouteEdgeId, RouteError, ShortestPathTree, SquareMillimeters, Watts,
};
use pd_metrics::Counter;
use pd_physical::{Hall, HallSpec, Placement, SlotId, TrayNetwork};
use pd_topology::{LinkId, Network};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// The cross-section every cable is routed with before its media is known.
/// Fiber-class, so the probe finds the geometric path; the chosen media's
/// true area replaces it once the length is known.
const PROBE: SquareMillimeters = SquareMillimeters::new(7.0);

/// What the indirection layer is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndirectionKind {
    /// Passive patch panels (Zhao et al. \[56\]).
    PatchPanel,
    /// Optical circuit switches (Poutievski et al. \[39\]).
    Ocs,
}

impl IndirectionKind {
    /// (panels, ocs) element counts a channel through one site incurs.
    fn elements(&self) -> (u32, u32) {
        match self {
            IndirectionKind::PatchPanel => (1, 0),
            IndirectionKind::Ocs => (0, 1),
        }
    }
}

/// One installed patch-panel or OCS rack.
#[derive(Debug, Clone, PartialEq)]
pub struct IndirectionSite {
    /// Panel or OCS.
    pub kind: IndirectionKind,
    /// The slot the site rack occupies.
    pub slot: SlotId,
    /// Duplex ports available (Telescent G4-class: ~1008).
    pub port_capacity: u32,
    /// Ports consumed so far (each mediated link uses one duplex port).
    pub ports_used: u32,
}

/// Policy knobs for plan construction.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct CablingPolicy {
    /// The purchase catalog and loss model.
    pub catalog: CableCatalog,
    /// Extra cable needed at each end for in-rack dressing (patching from
    /// the rack top down to the switch port).
    pub in_rack_tail: Meters,
    /// Assumed length of a cable between two switches in the same rack.
    pub intra_rack_length: Meters,
    /// What mediates `via_ocs` links.
    pub indirection_kind: IndirectionKind,
    /// Duplex port capacity per indirection site.
    pub site_port_capacity: u32,
}

impl Default for CablingPolicy {
    fn default() -> Self {
        Self {
            catalog: CableCatalog::default(),
            in_rack_tail: Meters::new(1.5),
            intra_rack_length: Meters::new(2.0),
            indirection_kind: IndirectionKind::Ocs,
            site_port_capacity: 1008,
        }
    }
}

/// Why a link could not be physically realized.
#[derive(Debug, Clone, PartialEq)]
pub enum CablingError {
    /// No tray path with enough residual capacity.
    NoTrayPath(String),
    /// No media class satisfies reach/loss/SKU constraints.
    NoFeasibleMedia {
        /// The length that needed covering.
        required: Meters,
    },
    /// Every indirection site is out of ports.
    NoIndirectionPorts,
    /// An endpoint switch was never placed.
    Unplaced,
}

impl std::fmt::Display for CablingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CablingError::NoTrayPath(m) => write!(f, "no tray path: {m}"),
            CablingError::NoFeasibleMedia { required } => {
                write!(f, "no feasible media for {required}")
            }
            CablingError::NoIndirectionPorts => write!(f, "all indirection sites full"),
            CablingError::Unplaced => write!(f, "endpoint switch not placed"),
        }
    }
}

impl std::error::Error for CablingError {}

/// One physical cable.
#[derive(Debug, Clone, PartialEq)]
pub struct CableRun {
    /// The logical link this cable realizes (possibly one of a trunk, and
    /// possibly one of the two halves of a mediated channel).
    pub link: LinkId,
    /// Which trunk member (0-based).
    pub trunk_index: u16,
    /// `0` for the direct or switch→site half; `1` for the site→switch half.
    pub half: u8,
    /// Source rack slot.
    pub from_slot: SlotId,
    /// Destination rack slot (an indirection site's slot for half 0 of a
    /// mediated link).
    pub to_slot: SlotId,
    /// Selected media and ordered length.
    pub choice: MediaChoice,
    /// Actual routed length (tray path + tails).
    pub routed_length: Meters,
    /// Tray segments traversed (empty for intra-rack cables).
    pub tray_edges: Vec<RouteEdgeId>,
    /// Index into [`CablingPlan::sites`] if this run lands on an
    /// indirection site.
    pub via_site: Option<usize>,
}

/// The complete cabling plan.
#[derive(Debug, Clone)]
pub struct CablingPlan {
    /// Every physical cable.
    pub runs: Vec<CableRun>,
    /// The tray network with all cable area committed.
    pub tray: TrayNetwork,
    /// Indirection sites installed (empty if the design has no `via_ocs`
    /// links).
    pub sites: Vec<IndirectionSite>,
    /// Links that could not be realized, with the reason.
    pub failures: Vec<(LinkId, CablingError)>,
}

impl CablingPlan {
    /// Builds the full plan for a placed network. `trees` must be built
    /// from `hall` ([`TrayTrees::new`]); plans in one hall may share it.
    pub fn build(
        net: &Network,
        hall: &Hall,
        placement: &Placement,
        policy: &CablingPolicy,
        trees: &TrayTrees,
    ) -> Self {
        let mut tray = PlanTray::new(hall, trees);
        let mut runs = Vec::new();
        let mut failures = Vec::new();

        // Install indirection sites if any link needs them: one site per
        // `site_port_capacity` mediated cables, on free slots nearest the
        // centroid of all placed racks. Sites without ports install none,
        // and every mediated link fails for want of a port.
        let mediated_cables: u32 = net
            .links()
            .filter(|l| l.via_ocs)
            .map(|l| u32::from(l.trunking))
            .sum();
        let ports = policy.site_port_capacity;
        let mut sites: Vec<IndirectionSite> = if mediated_cables > 0 && ports > 0 {
            let needed = mediated_cables.div_ceil(ports) as usize;
            free_central_slots(hall, placement, needed)
                .into_iter()
                .map(|slot| IndirectionSite {
                    kind: policy.indirection_kind,
                    slot,
                    port_capacity: ports,
                    ports_used: 0,
                })
                .collect()
        } else {
            Vec::new()
        };

        // Deterministic link order.
        let mut links: Vec<&pd_topology::Link> = net.links().collect();
        links.sort_by_key(|l| l.id);

        for link in links {
            let (Some(sa), Some(sb)) = (placement.slot_of(link.a), placement.slot_of(link.b))
            else {
                failures.push((link.id, CablingError::Unplaced));
                continue;
            };
            for trunk in 0..link.trunking {
                if link.via_ocs {
                    match route_mediated(&mut tray, policy, &mut sites, link, trunk, sa, sb) {
                        Ok(mut two) => runs.append(&mut two),
                        Err(e) => failures.push((link.id, e)),
                    }
                } else {
                    match route_direct(&mut tray, policy, link, trunk, sa, sb) {
                        Ok(run) => runs.push(run),
                        Err(e) => failures.push((link.id, e)),
                    }
                }
            }
        }

        let counters = route_counters();
        counters.searches.add(tray.searches);
        counters.tree_paths.add(tray.tree_paths);
        Self {
            runs,
            tray: tray.tray,
            sites,
            failures,
        }
    }

    /// Total cable + transceiver cost.
    pub fn total_cable_cost(&self) -> Dollars {
        self.runs.iter().map(|r| r.choice.cost).sum()
    }

    /// Total ordered cable length.
    pub fn total_ordered_length(&self) -> Meters {
        self.runs.iter().map(|r| r.choice.ordered_length).sum()
    }

    /// Total transceiver/end power.
    pub fn total_end_power(&self) -> Watts {
        self.runs.iter().map(|r| r.choice.sku.ends_power).sum()
    }

    /// Cable counts per media class.
    pub fn media_histogram(&self) -> BTreeMap<MediaClass, usize> {
        let mut h = BTreeMap::new();
        for r in &self.runs {
            *h.entry(r.choice.sku.class).or_insert(0) += 1;
        }
        h
    }

    /// Fraction of cables that are optical.
    pub fn optical_fraction(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .filter(|r| r.choice.sku.class.is_optical())
            .count() as f64
            / self.runs.len() as f64
    }

    /// Number of distinct (class, speed, ordered-length) SKUs — the
    /// procurement-complexity proxy ("computing the lengths … for
    /// pre-deployed fiber is highly non-trivial", §4.2).
    pub fn distinct_skus(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for r in &self.runs {
            set.insert((
                r.choice.sku.class,
                r.choice.sku.speed.value() as u64,
                (r.choice.ordered_length.value() * 1000.0) as u64,
            ));
        }
        set.len()
    }

    /// Worst tray fill after all commits.
    pub fn max_tray_fill(&self) -> f64 {
        self.tray.max_fill()
    }

    /// For SPOF analysis: maps each tray segment to the logical links whose
    /// cables traverse it.
    pub fn links_per_tray_edge(&self) -> HashMap<RouteEdgeId, Vec<LinkId>> {
        let mut m: HashMap<RouteEdgeId, Vec<LinkId>> = HashMap::new();
        for r in &self.runs {
            for &e in &r.tray_edges {
                m.entry(e).or_default().push(r.link);
            }
        }
        m
    }

    /// Mean routed length (0 for an empty plan).
    pub fn mean_routed_length(&self) -> Meters {
        if self.runs.is_empty() {
            return Meters::ZERO;
        }
        self.runs.iter().map(|r| r.routed_length).sum::<Meters>() / self.runs.len() as f64
    }
}

/// Diagnostic counters: artifact-cache adoption skips the Cable stage, and
/// a shared [`TrayTrees`] builds each tree once for whichever plan asks
/// first, so these depend on cache temperature and schedule.
struct RouteCounters {
    searches: Arc<Counter>,
    tree_paths: Arc<Counter>,
    trees: Arc<Counter>,
}

fn route_counters() -> &'static RouteCounters {
    static CELLS: OnceLock<RouteCounters> = OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = pd_metrics::global();
        RouteCounters {
            searches: reg.diagnostic_counter("cabling.route.searches"),
            tree_paths: reg.diagnostic_counter("cabling.route.tree_paths"),
            trees: reg.diagnostic_counter("cabling.route.trees"),
        }
    })
}

/// Per source slot of a hall, the probe's shortest-path tree on the empty
/// tray, each built the first time a cable leaves that slot. Every plan
/// built in the hall can share one: a tree depends on the hall alone, not
/// on the area a plan has committed, and threads racing on a slot build its
/// tree once.
#[derive(Debug)]
pub struct TrayTrees {
    hall: HallSpec,
    trees: Vec<OnceLock<ShortestPathTree>>,
}

impl TrayTrees {
    /// The hall's table, with no tree built yet.
    pub fn new(hall: &Hall) -> Self {
        Self {
            hall: hall.spec.clone(),
            trees: (0..hall.slot_count()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The probe's path from `from` to `to` on the empty tray, read
    /// through `tray`, a tray network of this table's hall; `None` if there
    /// is none or a slot is not in the hall.
    fn path(&self, tray: &TrayNetwork, from: SlotId, to: SlotId) -> Option<RoutedPath> {
        let (src, dst) = (tray.drop_node(from)?, tray.drop_node(to)?);
        let tree = self.trees.get(from.0)?.get_or_init(|| {
            route_counters().trees.incr();
            tray.router.shortest_path_tree(src, PROBE)
        });
        tray.router.tree_path(tree, dst)
    }
}

/// The tray network one plan fills, routing each probe along its source
/// slot's tree path while that path fits and searching otherwise.
struct PlanTray<'t> {
    tray: TrayNetwork,
    trees: &'t TrayTrees,
    searches: u64,
    tree_paths: u64,
}

impl<'t> PlanTray<'t> {
    fn new(hall: &Hall, trees: &'t TrayTrees) -> Self {
        debug_assert_eq!(hall.spec, trees.hall, "tray trees of another hall");
        Self {
            tray: TrayNetwork::build(hall),
            trees,
            searches: 0,
            tree_paths: 0,
        }
    }

    /// Routes a probe from `from` to `to` and commits it, like
    /// [`TrayNetwork::route_cable`].
    fn probe(&mut self, from: SlotId, to: SlotId) -> Result<RoutedPath, RouteError> {
        if let Some(path) = self.trees.path(&self.tray, from, to) {
            if self.tray.router.fits(&path, PROBE) {
                self.tray.router.commit(&path, PROBE);
                self.tree_paths += 1;
                return Ok(path);
            }
        }
        self.searches += 1;
        self.tray.route_cable(from, to, PROBE)
    }

    /// Replaces each probe with its cable's true area: all probes are
    /// released before any area is committed.
    fn settle(&mut self, cables: &[(&RoutedPath, SquareMillimeters)]) {
        for (path, _) in cables {
            self.tray.router.release(path, PROBE);
        }
        for (path, area) in cables {
            self.tray.router.commit(path, *area);
        }
    }

    /// Releases probes that no cable replaces.
    fn withdraw(&mut self, paths: &[&RoutedPath]) {
        for path in paths {
            self.tray.router.release(path, PROBE);
        }
    }
}

fn route_direct(
    tray: &mut PlanTray<'_>,
    policy: &CablingPolicy,
    link: &pd_topology::Link,
    trunk: u16,
    sa: SlotId,
    sb: SlotId,
) -> Result<CableRun, CablingError> {
    if sa == sb {
        // Intra-rack cable: no tray involvement.
        let required = policy.intra_rack_length;
        let choice = policy
            .catalog
            .choose(link.speed, required, 0, 0)
            .ok_or(CablingError::NoFeasibleMedia { required })?;
        return Ok(CableRun {
            link: link.id,
            trunk_index: trunk,
            half: 0,
            from_slot: sa,
            to_slot: sb,
            choice,
            routed_length: required,
            tray_edges: Vec::new(),
            via_site: None,
        });
    }
    // Route with the probe first, then commit the chosen media's true
    // area. One-pass heuristic: the probe finds the geometric path;
    // overfill from thick copper is *recorded* by the fill metrics rather
    // than silently rerouted — matching how pre-planned routes overflow in
    // reality when cable diameters grow (§3.1).
    let path = tray
        .probe(sa, sb)
        .map_err(|e| CablingError::NoTrayPath(e.to_string()))?;
    let required = path.length + policy.in_rack_tail * 2.0;
    let Some(choice) = policy.catalog.choose(link.speed, required, 0, 0) else {
        tray.withdraw(&[&path]);
        return Err(CablingError::NoFeasibleMedia { required });
    };
    tray.settle(&[(&path, choice.sku.area())]);
    Ok(CableRun {
        link: link.id,
        trunk_index: trunk,
        half: 0,
        from_slot: sa,
        to_slot: sb,
        choice,
        routed_length: required,
        tray_edges: path.edges,
        via_site: None,
    })
}

fn route_mediated(
    tray: &mut PlanTray<'_>,
    policy: &CablingPolicy,
    sites: &mut [IndirectionSite],
    link: &pd_topology::Link,
    trunk: u16,
    sa: SlotId,
    sb: SlotId,
) -> Result<Vec<CableRun>, CablingError> {
    // Pick the first site with a free port (sites are centroid-ordered, so
    // this is also roughly the nearest).
    let site_idx = sites
        .iter()
        .position(|s| s.ports_used < s.port_capacity)
        .ok_or(CablingError::NoIndirectionPorts)?;
    let site_slot = sites[site_idx].slot;
    let (panels, ocs) = sites[site_idx].kind.elements();

    let path_a = tray
        .probe(sa, site_slot)
        .map_err(|e| CablingError::NoTrayPath(format!("to site: {e}")))?;
    let path_b = match tray.probe(site_slot, sb) {
        Ok(p) => p,
        Err(e) => {
            tray.withdraw(&[&path_a]);
            return Err(CablingError::NoTrayPath(format!("from site: {e}")));
        }
    };
    let req_a = path_a.length + policy.in_rack_tail * 2.0;
    let req_b = path_b.length + policy.in_rack_tail * 2.0;

    // The *channel* spans both halves plus the site: media must be optical
    // and must close the loss budget over the combined ordered length.
    let Some((ca, cb)) = choose_mediated(&policy.catalog, link.speed, req_a, req_b, panels, ocs)
    else {
        tray.withdraw(&[&path_a, &path_b]);
        return Err(CablingError::NoFeasibleMedia {
            required: req_a + req_b,
        });
    };
    tray.settle(&[(&path_a, ca.sku.area()), (&path_b, cb.sku.area())]);
    sites[site_idx].ports_used += 1;

    Ok(vec![
        CableRun {
            link: link.id,
            trunk_index: trunk,
            half: 0,
            from_slot: sa,
            to_slot: site_slot,
            choice: ca,
            routed_length: req_a,
            tray_edges: path_a.edges,
            via_site: Some(site_idx),
        },
        CableRun {
            link: link.id,
            trunk_index: trunk,
            half: 1,
            from_slot: site_slot,
            to_slot: sb,
            choice: cb,
            routed_length: req_b,
            tray_edges: path_b.edges,
            via_site: Some(site_idx),
        },
    ])
}

/// Chooses optical media for both halves of a mediated channel such that
/// the combined channel closes the loss budget.
fn choose_mediated(
    catalog: &CableCatalog,
    speed: pd_geometry::Gbps,
    req_a: Meters,
    req_b: Meters,
    panels: u32,
    ocs: u32,
) -> Option<(MediaChoice, MediaChoice)> {
    let mut best: Option<(MediaChoice, MediaChoice)> = None;
    for class in [MediaClass::MultimodeFiber, MediaClass::SinglemodeFiber] {
        let Some(s) = crate::media::sku(class, speed) else {
            continue;
        };
        let (Some(la), Some(lb)) = (catalog.next_length_up(req_a), catalog.next_length_up(req_b))
        else {
            continue;
        };
        if la > catalog.effective_reach(&s) || lb > catalog.effective_reach(&s) {
            continue;
        }
        // Transceiver ends (2) + connectors at the site (2 per traversal).
        let connectors = 2 + panels * 2 + ocs * 2;
        if !catalog
            .loss
            .channel_closes(&catalog.budget, class, la + lb, connectors, panels, ocs)
        {
            continue;
        }
        let make = |len: Meters, req: Meters| MediaChoice {
            sku: s,
            ordered_length: len,
            slack: len - req,
            cost: s.cable_cost(len),
        };
        let cand = (make(la, req_a), make(lb, req_b));
        let cost = cand.0.cost + cand.1.cost;
        match &best {
            Some((a, b)) if a.cost + b.cost <= cost => {}
            _ => best = Some(cand),
        }
    }
    best
}

/// Free slots (no rack placed) nearest the centroid of placed racks.
fn free_central_slots(hall: &Hall, placement: &Placement, n: usize) -> Vec<SlotId> {
    let used: std::collections::HashSet<SlotId> = placement.racks.iter().map(|r| r.slot).collect();
    let (mut cx, mut cy, mut count) = (0.0f64, 0.0f64, 0usize);
    for r in &placement.racks {
        if let Some(s) = hall.slot(r.slot) {
            cx += s.center.x.value();
            cy += s.center.y.value();
            count += 1;
        }
    }
    let centroid = if count == 0 {
        pd_geometry::Point2::ORIGIN
    } else {
        pd_geometry::Point2::new(cx / count as f64, cy / count as f64)
    };
    // Distances come straight from the slot structs (no id → slot lookup
    // to unwrap mid-sort): the comparator cannot panic even on a hall
    // whose slot ids are sparse or renumbered.
    let mut free: Vec<(SlotId, f64)> = hall
        .slots()
        .iter()
        .filter(|s| !used.contains(&s.id))
        .map(|s| (s.id, s.center.manhattan(centroid).0))
        .collect();
    free.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    free.truncate(n);
    free.into_iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_geometry::{Gbps, RouteNodeId};
    use pd_physical::placement::EquipmentProfile;
    use pd_physical::PlacementStrategy;
    use pd_topology::gen::{
        self, fat_tree, folded_clos, ClosParams, DirectConnectParams, FatCliqueParams,
        FlattenedButterflyParams, JellyfishParams, SlimFlyParams, XpanderParams,
    };
    use pd_topology::{Link, SwitchId};

    fn setup(net: &Network, strategy: PlacementStrategy) -> (Hall, Placement) {
        let hall = Hall::new(HallSpec::default());
        let placement =
            Placement::place(net, &hall, strategy, &EquipmentProfile::default()).unwrap();
        (hall, placement)
    }

    #[test]
    fn fat_tree_plan_realizes_every_link() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let (hall, placement) = setup(&net, PlacementStrategy::BlockLocal);
        let trees = TrayTrees::new(&hall);
        let plan = CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        assert!(plan.failures.is_empty(), "failures: {:?}", plan.failures);
        assert_eq!(plan.runs.len(), net.link_count());
        assert!(plan.total_cable_cost() > Dollars::ZERO);
        assert!(plan.max_tray_fill() > 0.0);
        assert!(plan.sites.is_empty());
    }

    #[test]
    fn slack_is_nonnegative_and_lengths_ordered() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let (hall, placement) = setup(&net, PlacementStrategy::BlockLocal);
        let trees = TrayTrees::new(&hall);
        let plan = CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        for r in &plan.runs {
            assert!(r.choice.slack >= Meters::ZERO);
            assert!(r.choice.ordered_length + Meters::new(1e-9) >= r.routed_length);
        }
    }

    #[test]
    fn block_local_is_cheaper_than_scattered() {
        let net = fat_tree(6, Gbps::new(100.0)).unwrap();
        let (hall, local) = setup(&net, PlacementStrategy::BlockLocal);
        let scat = Placement::place(
            &net,
            &hall,
            PlacementStrategy::Scattered(3),
            &EquipmentProfile::default(),
        )
        .unwrap();
        let (policy, trees) = (CablingPolicy::default(), TrayTrees::new(&hall));
        let plan_local = CablingPlan::build(&net, &hall, &local, &policy, &trees);
        let plan_scat = CablingPlan::build(&net, &hall, &scat, &policy, &trees);
        assert!(plan_local.total_cable_cost() < plan_scat.total_cable_cost());
        assert!(plan_local.optical_fraction() <= plan_scat.optical_fraction());
    }

    #[test]
    fn ocs_links_get_two_halves_and_consume_site_ports() {
        let p = ClosParams {
            spine_via_panels: true,
            ..ClosParams::default()
        };
        let net = folded_clos(&p).unwrap();
        let (hall, placement) = setup(&net, PlacementStrategy::BlockLocal);
        let trees = TrayTrees::new(&hall);
        let plan = CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        assert!(plan.failures.is_empty(), "failures: {:?}", plan.failures);
        assert!(!plan.sites.is_empty());
        let mediated = net.links().filter(|l| l.via_ocs).count();
        let direct = net.links().filter(|l| !l.via_ocs).count();
        assert_eq!(plan.runs.len(), direct + 2 * mediated);
        let used: u32 = plan.sites.iter().map(|s| s.ports_used).sum();
        assert_eq!(used as usize, mediated);
        // Every mediated half is optical (electrical can't cross an OCS).
        for r in plan.runs.iter().filter(|r| r.via_site.is_some()) {
            assert!(r.choice.sku.class.is_optical());
        }
    }

    #[test]
    fn route_counters_count_trees_tree_paths_and_searches() {
        let reg = pd_metrics::global();
        let built = reg.diagnostic_counter("cabling.route.trees");
        let tree_paths = reg.diagnostic_counter("cabling.route.tree_paths");
        let searches = reg.diagnostic_counter("cabling.route.searches");
        let (t0, p0, s0) = (built.get(), tree_paths.get(), searches.get());
        let net = fat_tree(6, Gbps::new(100.0)).unwrap();
        let hall = Hall::new(tight_hall());
        let profile = EquipmentProfile::default();
        let placement =
            Placement::place(&net, &hall, PlacementStrategy::BlockLocal, &profile).unwrap();
        let trees = TrayTrees::new(&hall);
        CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        // Other tests build plans concurrently, so only growth is certain.
        assert!(built.get() > t0);
        assert!(tree_paths.get() > p0);
        assert!(searches.get() > s0, "the tight hall fills its trays");
    }

    /// One tree per source slot, shared by every plan built in the hall.
    #[test]
    fn plans_in_one_hall_share_one_tree_per_source_slot() {
        let net = fat_tree(6, Gbps::new(100.0)).unwrap();
        let (hall, placement) = setup(&net, PlacementStrategy::BlockLocal);
        let trees = TrayTrees::new(&hall);
        let built = |trees: &TrayTrees| trees.trees.iter().filter(|t| t.get().is_some()).count();
        let policy = CablingPolicy::default();
        let plan = CablingPlan::build(&net, &hall, &placement, &policy, &trees);
        let sources: std::collections::HashSet<SlotId> = plan
            .runs
            .iter()
            .filter(|r| r.from_slot != r.to_slot)
            .map(|r| r.from_slot)
            .collect();
        assert_eq!(built(&trees), sources.len());
        let again = CablingPlan::build(&net, &hall, &placement, &policy, &trees);
        assert_eq!(built(&trees), sources.len());
        assert_eq!(again.runs, plan.runs);
    }

    #[test]
    fn zero_port_sites_fail_every_mediated_link_without_panicking() {
        let net = folded_clos(&ClosParams {
            spine_via_panels: true,
            ..ClosParams::default()
        })
        .unwrap();
        let (hall, placement) = setup(&net, PlacementStrategy::BlockLocal);
        let policy = CablingPolicy {
            site_port_capacity: 0,
            ..CablingPolicy::default()
        };
        let plan = CablingPlan::build(&net, &hall, &placement, &policy, &TrayTrees::new(&hall));
        assert!(plan.sites.is_empty());
        let mediated: usize = net
            .links()
            .filter(|l| l.via_ocs)
            .map(|l| usize::from(l.trunking))
            .sum();
        assert!(mediated > 0);
        assert_eq!(plan.failures.len(), mediated);
        assert!(plan
            .failures
            .iter()
            .all(|(_, e)| *e == CablingError::NoIndirectionPorts));
        assert_eq!(plan.runs.len(), net.links().filter(|l| !l.via_ocs).count());
    }

    #[test]
    fn media_histogram_sums_to_runs() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let (hall, placement) = setup(&net, PlacementStrategy::BlockLocal);
        let trees = TrayTrees::new(&hall);
        let plan = CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        let total: usize = plan.media_histogram().values().sum();
        assert_eq!(total, plan.runs.len());
        assert!(plan.distinct_skus() >= 1);
        assert!(plan.mean_routed_length() > Meters::ZERO);
    }

    #[test]
    fn links_per_tray_edge_covers_all_committed_edges() {
        let net = fat_tree(4, Gbps::new(100.0)).unwrap();
        let (hall, placement) = setup(&net, PlacementStrategy::BlockLocal);
        let trees = TrayTrees::new(&hall);
        let plan = CablingPlan::build(&net, &hall, &placement, &CablingPolicy::default(), &trees);
        let per_edge = plan.links_per_tray_edge();
        // Every edge with nonzero fill must appear in the map.
        for e in plan.tray.router.edge_ids() {
            if plan.tray.router.fill_fraction(e) > 0.0 {
                assert!(per_edge.contains_key(&e), "edge {e:?} missing");
            }
        }
    }

    /// Rebuilds `plan`'s tray routes cable by cable with a fresh search per
    /// cable ([`TrayNetwork::route_cable`]): probe, release, commit the
    /// true area, in run order, with a mediated channel's far half searched
    /// while its near half's probe is still on. Returns how many runs took
    /// another path or length than the fresh search gives; a run the fresh
    /// search cannot route at all ends the replay, counting every run from
    /// there on.
    fn replay_mismatches(plan: &CablingPlan, hall: &Hall, policy: &CablingPolicy) -> usize {
        let mut tray = TrayNetwork::build(hall);
        let tails = policy.in_rack_tail * 2.0;
        let mut mismatches = 0;
        let mut i = 0;
        while i < plan.runs.len() {
            let run = &plan.runs[i];
            if run.from_slot == run.to_slot {
                assert!(run.tray_edges.is_empty());
                assert_eq!(run.routed_length, policy.intra_rack_length);
                i += 1;
                continue;
            }
            let channel = &plan.runs[i..i + if run.via_site.is_some() { 2 } else { 1 }];
            let mut paths = Vec::new();
            for r in channel {
                match tray.route_cable(r.from_slot, r.to_slot, PROBE) {
                    Ok(p) => paths.push(p),
                    Err(_) => return mismatches + plan.runs.len() - i,
                }
            }
            for (r, p) in channel.iter().zip(&paths) {
                if r.tray_edges != p.edges || r.routed_length != p.length + tails {
                    mismatches += 1;
                }
            }
            for p in &paths {
                tray.router.release(p, PROBE);
            }
            for (r, p) in channel.iter().zip(&paths) {
                tray.router.commit(p, r.choice.sku.area());
            }
            i += channel.len();
        }
        mismatches
    }

    /// The nine families at 256 servers and 100G, sized as
    /// `pd_core::compare::all_families(256, 100G, 1)` sizes them.
    fn families_256() -> Vec<(&'static str, Network)> {
        let speed = Gbps::new(100.0);
        let built = [
            ("fat-tree", fat_tree(12, speed)),
            (
                "folded-clos",
                folded_clos(&ClosParams {
                    pods: 2,
                    tors_per_pod: 8,
                    aggs_per_pod: 4,
                    spines: 16,
                    servers_per_tor: 16,
                    link_speed: speed,
                    tor_agg_trunking: 1,
                    agg_spine_trunking: 1,
                    spine_via_panels: false,
                    max_pods: None,
                }),
            ),
            ("leaf-spine", gen::leaf_spine(16, 16, 16, 1, speed)),
            (
                "jellyfish",
                gen::jellyfish(&JellyfishParams {
                    tors: 17,
                    network_degree: 16,
                    servers_per_tor: 16,
                    link_speed: speed,
                    seed: 1,
                }),
            ),
            (
                "xpander",
                gen::xpander(&XpanderParams {
                    network_degree: 16,
                    lift: 4,
                    servers_per_tor: 16,
                    link_speed: speed,
                    seed: 1,
                }),
            ),
            (
                "slimfly",
                gen::slimfly(&SlimFlyParams {
                    q: 5,
                    servers_per_tor: 6,
                    link_speed: speed,
                }),
            ),
            (
                "flat-bf",
                gen::flattened_butterfly(&FlattenedButterflyParams {
                    rows: 4,
                    cols: 4,
                    servers_per_tor: 16,
                    link_speed: speed,
                }),
            ),
            (
                "fatclique",
                gen::fatclique(&FatCliqueParams {
                    subclique_size: 4,
                    subcliques_per_clique: 4,
                    cliques: 2,
                    inter_clique_links: 16,
                    servers_per_tor: 16,
                    link_speed: speed,
                }),
            ),
            (
                "direct-connect",
                gen::direct_connect(&DirectConnectParams {
                    blocks: 4,
                    tors_per_block: 4,
                    mids_per_block: 4,
                    uplinks_per_mid: 4,
                    servers_per_tor: 16,
                    link_speed: speed,
                })
                .map(|f| f.network),
            ),
        ];
        built
            .into_iter()
            .map(|(name, net)| (name, net.unwrap()))
            .collect()
    }

    /// Trays that hold a few dozen fibers: routes detour and fill, and some
    /// links find no path at all.
    fn tight_hall() -> HallSpec {
        HallSpec {
            tray_capacity_per_generation: SquareMillimeters::new(400.0),
            tray_generations: 1,
            ..HallSpec::default()
        }
    }

    #[test]
    fn tray_trees_match_a_search_per_cable() {
        let policy = CablingPolicy::default();
        let halls: Vec<(Hall, TrayTrees)> = [HallSpec::default(), tight_hall()]
            .into_iter()
            .map(|spec| {
                let hall = Hall::new(spec);
                let trees = TrayTrees::new(&hall);
                (hall, trees)
            })
            .collect();
        let mut failed = 0;
        for (name, net) in families_256() {
            for (hall, trees) in &halls {
                let placement = Placement::place(
                    &net,
                    hall,
                    PlacementStrategy::BlockLocal,
                    &EquipmentProfile::default(),
                )
                .unwrap();
                let plan = CablingPlan::build(&net, hall, &placement, &policy, trees);
                let mismatches = replay_mismatches(&plan, hall, &policy);
                assert_eq!(
                    mismatches,
                    0,
                    "{name}: {mismatches} of {} runs",
                    plan.runs.len()
                );
                failed += plan.failures.len();
            }
        }
        assert!(failed > 0, "the tight hall never ran out of tray space");
    }

    #[test]
    fn tray_trees_match_a_search_per_cable_through_small_sites() {
        let net = folded_clos(&ClosParams {
            spine_via_panels: true,
            ..ClosParams::default()
        })
        .unwrap();
        let (hall, placement) = setup(&net, PlacementStrategy::BlockLocal);
        let trees = TrayTrees::new(&hall);
        for site_port_capacity in 1..=8 {
            let policy = CablingPolicy {
                site_port_capacity,
                ..CablingPolicy::default()
            };
            let plan = CablingPlan::build(&net, &hall, &placement, &policy, &trees);
            assert!(plan.sites.len() > 1);
            assert_eq!(
                replay_mismatches(&plan, &hall, &policy),
                0,
                "{site_port_capacity}-port sites"
            );
        }
    }

    /// Two rows of three slots with cross trays at columns 0 and 2, every
    /// segment 100 mm². Slot ids are `row * 3 + column`.
    fn two_by_three() -> Hall {
        Hall::new(HallSpec {
            rows: 2,
            slots_per_row: 3,
            cross_tray_every: 2,
            tray_capacity_per_generation: SquareMillimeters::new(100.0),
            tray_generations: 1,
            ..HallSpec::default()
        })
    }

    /// The tray segment between the tray nodes above slots `a` and `b`.
    fn tray_segment(tray: &TrayNetwork, a: SlotId, b: SlotId) -> RouteEdgeId {
        let r = &tray.router;
        let above = |s: SlotId| -> RouteNodeId {
            let drop = tray.drop_node(s).unwrap();
            r.edge_ids()
                .find_map(|e| match r.edge_endpoints(e) {
                    (x, y) if x == drop => Some(y),
                    (x, y) if y == drop => Some(x),
                    _ => None,
                })
                .unwrap()
        };
        let (ta, tb) = (above(a), above(b));
        r.edge_ids()
            .find(|&e| {
                let (x, y) = r.edge_endpoints(e);
                (x, y) == (ta, tb) || (x, y) == (tb, ta)
            })
            .unwrap()
    }

    /// Commits `area` mm² on `edge` alone.
    fn fill(tray: &mut TrayNetwork, edge: RouteEdgeId, area: f64) {
        let path = RoutedPath {
            nodes: Vec::new(),
            edges: vec![edge],
            length: Meters::ZERO,
        };
        tray.router.commit(&path, SquareMillimeters::new(area));
    }

    /// A probe that had to detour while another probe was outstanding,
    /// then both withdrawn: the withdrawal frees the edge the detour
    /// avoided, so the next probe takes the tree path, which is the fresh
    /// search's.
    #[test]
    fn withdrawn_probe_frees_the_tree_path() {
        let hall = two_by_three();
        let trees = TrayTrees::new(&hall);
        let mut tray = PlanTray::new(&hall, &trees);
        let (site, near, far) = (SlotId(0), SlotId(4), SlotId(3));
        let cross = tray_segment(&tray.tray, site, far);
        // Room for one probe more on the column-0 cross tray.
        fill(&mut tray.tray, cross, 86.2);
        let a = tray.probe(near, site).unwrap();
        assert!(a.edges.contains(&cross));
        let b = tray.probe(site, far).unwrap();
        assert!(!b.edges.contains(&cross), "the cross tray is full");
        tray.withdraw(&[&a, &b]);

        let fresh = tray
            .tray
            .router
            .route(
                tray.tray.drop_node(site).unwrap(),
                tray.tray.drop_node(far).unwrap(),
                PROBE,
            )
            .unwrap();
        assert!(fresh.edges.contains(&cross));
        let searches = tray.searches;
        assert_eq!(tray.probe(site, far).unwrap(), fresh);
        assert_eq!(tray.searches, searches, "served from the tree");
    }

    /// The far half of a mediated channel is routed while the near half's
    /// probe is on the tray. When the channel's true areas are smaller than
    /// the probe (SMF at 100G), a later channel can take an edge that this
    /// one could not: each far half is the fresh search's path.
    #[test]
    fn far_half_of_a_mediated_channel_takes_the_fresh_search_path() {
        let hall = two_by_three();
        let trees = TrayTrees::new(&hall);
        let mut tray = PlanTray::new(&hall, &trees);
        let (site, far) = (SlotId(0), SlotId(3));
        let cross = tray_segment(&tray.tray, site, far);
        fill(&mut tray.tray, cross, 86.2);
        // Multimode's 5 m derated reach is too short: every half is SMF.
        let policy = CablingPolicy {
            catalog: CableCatalog {
                reach_derating: 0.05,
                ..CableCatalog::default()
            },
            ..CablingPolicy::default()
        };
        let mut sites = vec![IndirectionSite {
            kind: IndirectionKind::Ocs,
            slot: site,
            port_capacity: 8,
            ports_used: 0,
        }];
        let link = Link {
            id: LinkId(0),
            a: SwitchId(0),
            b: SwitchId(1),
            speed: Gbps::new(100.0),
            trunking: 1,
            via_ocs: true,
        };
        let tails = policy.in_rack_tail * 2.0;
        let mut channel = |tray: &mut PlanTray<'_>, near: SlotId| {
            let mut fresh = tray.tray.clone();
            fresh.route_cable(near, site, PROBE).unwrap();
            let far_half = fresh.route_cable(site, far, PROBE).unwrap();
            let runs = route_mediated(tray, &policy, &mut sites, &link, 0, near, far).unwrap();
            assert_eq!(runs[1].tray_edges, far_half.edges);
            assert_eq!(runs[1].routed_length, far_half.length + tails);
            runs
        };

        // The near half from slot 4 takes the cross tray, the far half
        // detours around it, and then the cross tray has room again.
        let first = channel(&mut tray, SlotId(4));
        assert!(first[0].tray_edges.contains(&cross));
        assert!(first[0].choice.sku.area() < PROBE);
        assert!(!first[1].tray_edges.contains(&cross));
        assert!(tray.tray.router.residual(cross) >= PROBE);

        // The near half from slot 1 stays in row 0, so the far half can
        // now take the cross tray.
        let second = channel(&mut tray, SlotId(1));
        assert!(!second[0].tray_edges.contains(&cross));
        assert!(second[1].tray_edges.contains(&cross));
        assert!(second[1].routed_length < first[1].routed_length);
    }
}
