//! The overhead cable-tray network.
//!
//! Trays run above each rack row at `tray_height`, with perpendicular
//! cross-trays every `cross_tray_every` slots tying the rows together, and a
//! vertical drop from the tray plane down into each rack slot. The result is
//! a capacity-aware routing graph ([`pd_geometry::CapacityRouter`]): cables
//! claim cross-sectional area on every segment they traverse, which is how
//! the paper's §2.1 "provision enough space in cable trays for several
//! generations" constraint becomes checkable.

use crate::hall::{Hall, SlotId};
use pd_geometry::{CapacityRouter, Meters, RouteNodeId, SquareMillimeters};

/// The hall's tray network: a router plus the slot → drop-node mapping.
#[derive(Debug, Clone)]
pub struct TrayNetwork {
    /// The capacity-aware routing graph. Nodes exist at every slot's rack
    /// top (drop) and at every tray junction above slots.
    pub router: CapacityRouter,
    /// For each slot (by dense id), the router node at the *rack top*
    /// (bottom of the vertical drop).
    drops: Vec<RouteNodeId>,
}

impl TrayNetwork {
    /// Builds the tray graph for a hall.
    ///
    /// Geometry per slot: a rack-top node at `z = rack height`, a tray node
    /// directly above at `z = tray_height`, a vertical drop edge between
    /// them, row-tray edges between horizontally adjacent tray nodes, and
    /// cross-tray edges between vertically adjacent rows at every
    /// `cross_tray_every`-th slot column (always including column 0).
    pub fn build(hall: &Hall) -> Self {
        let spec = &hall.spec;
        let mut router = CapacityRouter::new();
        let cap = spec.tray_capacity();
        // Drops are sized like a tray segment: the constraint binds at the
        // rack's cable entry just as in the AWS §3.1 example.
        let rack_top = spec.rack.height;
        let tray_z = spec.tray_height;

        let mut drops = Vec::with_capacity(hall.slot_count());
        let mut tray_nodes = Vec::with_capacity(hall.slot_count());
        for slot in hall.slots() {
            let base = slot.center;
            let drop_node = router.add_node(base.at_height(rack_top));
            let tray_node = router.add_node(base.at_height(tray_z));
            router.add_edge(drop_node, tray_node, tray_z - rack_top, cap);
            drops.push(drop_node);
            tray_nodes.push(tray_node);
        }
        // Row trays.
        for row in 0..spec.rows {
            for index in 1..spec.slots_per_row {
                let a = tray_nodes[row * spec.slots_per_row + index - 1];
                let b = tray_nodes[row * spec.slots_per_row + index];
                router.add_edge(a, b, spec.slot_pitch, cap);
            }
        }
        // Cross trays.
        let every = spec.cross_tray_every.max(1);
        for row in 1..spec.rows {
            for index in (0..spec.slots_per_row).step_by(every) {
                let a = tray_nodes[(row - 1) * spec.slots_per_row + index];
                let b = tray_nodes[row * spec.slots_per_row + index];
                router.add_edge(a, b, spec.row_pitch, cap);
            }
        }
        Self { router, drops }
    }

    /// The rack-top node for a slot.
    pub fn drop_node(&self, slot: SlotId) -> Option<RouteNodeId> {
        self.drops.get(slot.0).copied()
    }

    /// Routes a cable of cross-section `area` between two slots and commits
    /// the capacity. Returns the routed length (tray path only; in-rack tails
    /// are the cabling layer's concern).
    pub fn route_cable(
        &mut self,
        from: SlotId,
        to: SlotId,
        area: SquareMillimeters,
    ) -> Result<pd_geometry::route::RoutedPath, pd_geometry::RouteError> {
        let a = self
            .drop_node(from)
            .ok_or(pd_geometry::RouteError::UnknownNode(
                pd_geometry::RouteNodeId(usize::MAX),
            ))?;
        let b = self
            .drop_node(to)
            .ok_or(pd_geometry::RouteError::UnknownNode(
                pd_geometry::RouteNodeId(usize::MAX),
            ))?;
        self.router.route_and_commit(a, b, area)
    }

    /// Worst tray fill fraction across all segments — the headroom metric
    /// the multi-generation provisioning rule protects.
    pub fn max_fill(&self) -> f64 {
        self.router
            .edge_ids()
            .map(|e| self.router.fill_fraction(e))
            .fold(0.0, f64::max)
    }

    /// Straight-line tray-path lower bound between two slots: Manhattan
    /// distance at tray height plus both drops.
    pub fn path_lower_bound(&self, hall: &Hall, a: SlotId, b: SlotId) -> Option<Meters> {
        let d = hall.slot_distance(a, b)?;
        let drop = hall.spec.tray_height - hall.spec.rack.height;
        Some(d + drop * 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::HallSpec;

    fn net() -> (Hall, TrayNetwork) {
        let hall = Hall::new(HallSpec::small());
        let tn = TrayNetwork::build(&hall);
        (hall, tn)
    }

    #[test]
    fn node_and_edge_counts() {
        let (hall, tn) = net();
        let spec = &hall.spec;
        // 2 nodes per slot.
        assert_eq!(tn.router.node_count(), 2 * hall.slot_count());
        // Edges: drops (32) + row trays 4×7 (28) + cross trays 3 rows × 2
        // columns (0 and 5) = 6.
        let expected = 32 + spec.rows * (spec.slots_per_row - 1) + (spec.rows - 1) * 2;
        assert_eq!(tn.router.edge_count(), expected);
    }

    #[test]
    fn same_row_route_length() {
        let (hall, mut tn) = net();
        let p = tn
            .route_cable(SlotId(0), SlotId(3), SquareMillimeters::new(50.0))
            .unwrap();
        // 3 slots × 0.6 m along the tray + 2 drops of 0.7 m.
        let expect = 3.0 * 0.6 + 2.0 * 0.7;
        assert!((p.length.value() - expect).abs() < 1e-9, "{}", p.length);
        let lb = tn.path_lower_bound(&hall, SlotId(0), SlotId(3)).unwrap();
        assert!((lb - Meters::new(expect)).abs() < Meters::new(1e-9), "{lb}");
    }

    #[test]
    fn cross_row_route_uses_cross_tray() {
        let (_, mut tn) = net();
        // Slot 2 (row 0) to slot 10 (row 1, index 2): nearest cross trays at
        // columns 0 and 5; via column 0: 2×0.6 + 2.4 + 2×0.6 wait — path is
        // tray along row 0 from index 2 to 0 (1.2), cross (2.4), row 1 from
        // 0 to 2 (1.2), plus 2 drops (1.4) = 6.2. Via column 5: same by
        // symmetry (1.8+2.4+1.8+1.4 = 7.4) → expect 6.2.
        let p = tn
            .route_cable(SlotId(2), SlotId(10), SquareMillimeters::new(50.0))
            .unwrap();
        assert!((p.length.value() - 6.2).abs() < 1e-9, "{}", p.length);
    }

    #[test]
    fn capacity_exhaustion_forces_detour() {
        let (_, mut tn) = net();
        let cap = tn.router.residual(tn.router.edge_ids().next().unwrap());
        // Mostly fill the row segment between slots 1 and 2 (and the drops
        // at 1 and 2, which we won't use again).
        let blocker = SquareMillimeters::new(cap.value() * 0.6);
        tn.route_cable(SlotId(1), SlotId(2), blocker).unwrap();
        // A 0→3 cable that no longer fits through segment 1-2 must detour
        // through the next row via the cross trays: strictly longer than
        // the direct 3.2 m path.
        let p = tn
            .route_cable(
                SlotId(0),
                SlotId(3),
                SquareMillimeters::new(cap.value() * 0.5),
            )
            .unwrap();
        assert!(
            p.length > Meters::new(3.2 + 1e-9),
            "detour length {}",
            p.length
        );
        // A third demand that exceeds even the detour's drop capacity fails
        // with a congestion (not disconnection) error.
        let err = tn
            .route_cable(
                SlotId(0),
                SlotId(3),
                SquareMillimeters::new(cap.value() * 0.9),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            pd_geometry::RouteError::NoFeasiblePath {
                connected_ignoring_capacity: true
            }
        ));
    }

    #[test]
    fn fill_metrics_track_commits() {
        let (_, mut tn) = net();
        assert_eq!(tn.max_fill(), 0.0);
        tn.route_cable(SlotId(0), SlotId(7), SquareMillimeters::new(2400.0))
            .unwrap();
        assert!(tn.max_fill() > 0.09 && tn.max_fill() <= 0.11);
    }

    #[test]
    fn unknown_slot_errors() {
        let (_, mut tn) = net();
        assert!(tn
            .route_cable(SlotId(999), SlotId(0), SquareMillimeters::new(1.0))
            .is_err());
    }
}
