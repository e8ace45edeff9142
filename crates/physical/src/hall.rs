//! The instantiated hall: rack slots with floor coordinates.
//!
//! Coordinates: rows run along +x, consecutive rows stack along +y. Slot
//! `(row r, index i)` has its center at
//! `(i × slot_pitch + slot_pitch/2, r × row_pitch + row_pitch/2)`.

use crate::spec::HallSpec;
use pd_geometry::{Meters, Point2};

/// Identifier of a rack slot (dense index: `row × slots_per_row + index`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub usize);

impl std::fmt::Display for SlotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// A slot's location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotRef {
    /// The slot id.
    pub id: SlotId,
    /// Row index.
    pub row: usize,
    /// Position within the row.
    pub index: usize,
    /// Floor-plan center of the slot.
    pub center: Point2,
}

/// An instantiated hall: the spec plus computed slot geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Hall {
    /// The specification this hall was built from.
    pub spec: HallSpec,
    slots: Vec<SlotRef>,
}

impl Hall {
    /// Lays out a hall from a spec.
    pub fn new(spec: HallSpec) -> Self {
        let mut slots = Vec::with_capacity(spec.total_slots());
        for row in 0..spec.rows {
            for index in 0..spec.slots_per_row {
                let id = SlotId(row * spec.slots_per_row + index);
                let center = Point2 {
                    x: spec.slot_pitch * (index as f64 + 0.5),
                    y: spec.row_pitch * (row as f64 + 0.5),
                };
                slots.push(SlotRef {
                    id,
                    row,
                    index,
                    center,
                });
            }
        }
        Self { spec, slots }
    }

    /// All slots in id order.
    pub fn slots(&self) -> &[SlotRef] {
        &self.slots
    }

    /// A slot by id.
    pub fn slot(&self, id: SlotId) -> Option<&SlotRef> {
        self.slots.get(id.0)
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Rectilinear floor distance between two slots — the walking distance
    /// for a technician and the routing lower bound for a cable.
    pub fn slot_distance(&self, a: SlotId, b: SlotId) -> Option<Meters> {
        Some(self.slot(a)?.center.manhattan(self.slot(b)?.center))
    }

    /// Hall bounding dimensions (x extent, y extent).
    pub fn extent(&self) -> (Meters, Meters) {
        (
            self.spec.slot_pitch * self.spec.slots_per_row as f64,
            self.spec.row_pitch * self.spec.rows as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::HallSpec;

    fn hall() -> Hall {
        Hall::new(HallSpec::small()) // 4 rows × 8 slots
    }

    #[test]
    fn slot_layout() {
        let h = hall();
        assert_eq!(h.slot_count(), 32);
        let s0 = h.slot(SlotId(0)).unwrap();
        assert_eq!(s0.row, 0);
        assert_eq!(s0.index, 0);
        assert_eq!(s0.center, Point2::new(0.3, 1.2));
        let s9 = h.slot(SlotId(9)).unwrap();
        assert_eq!(s9.row, 1);
        assert_eq!(s9.index, 1);
    }

    #[test]
    fn slot_distance_manhattan() {
        let h = hall();
        // Slot 0 and slot 1: adjacent in a row, 0.6 m apart.
        let d01 = h.slot_distance(SlotId(0), SlotId(1)).unwrap();
        assert!((d01 - Meters::new(0.6)).abs() < Meters::new(1e-9), "{d01}");
        // Slot 0 and slot 8: adjacent rows, 2.4 m apart.
        let d08 = h.slot_distance(SlotId(0), SlotId(8)).unwrap();
        assert!((d08 - Meters::new(2.4)).abs() < Meters::new(1e-9), "{d08}");
    }

    #[test]
    fn extent_matches_spec() {
        let h = hall();
        let (x, y) = h.extent();
        assert_eq!(x, Meters::new(0.6 * 8.0));
        assert_eq!(y, Meters::new(2.4 * 4.0));
    }
}
