//! Polylines — the geometry of an individual cable run.
//!
//! A cable run is modeled as a 3D polyline: down from the switch port,
//! along the rack, up into the tray, along tray segments, and back down.
//! Two physical questions matter (paper §3.1 and §5.3):
//!
//! 1. **Length** — determines which media can carry the signal (copper reach
//!    limits), which SKU to order, and how much slack the discrete SKU
//!    lengths leave in the tray.
//! 2. **Bends** — every direction change must respect the cable's minimum
//!    bend radius. The paper specifically calls out automation failing to
//!    notice "a space that is just a little too small to accommodate the safe
//!    bending radius of the cable"; [`Polyline::check_bend_radius`] is the
//!    check that a digital twin runs to catch that early.

use crate::point::Point3;
use crate::units::{Meters, Millimeters};

/// An open 3D polyline with at least one vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    vertices: Vec<Point3>,
}

/// One direction change along a polyline, with the clearance available to
/// make the turn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bend {
    /// Index of the interior vertex where the bend occurs.
    pub vertex: usize,
    /// Turn angle in radians: 0 = straight through, π = full reversal.
    pub angle_rad: f64,
    /// Clearance available for the arc: the shorter of the two adjacent
    /// segments. A 90° bend of radius `r` needs `r` of run-in on both sides.
    pub clearance: Meters,
}

/// A bend that violates a cable's minimum bend radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BendViolation {
    /// The offending bend.
    pub bend: Bend,
    /// Clearance the cable would need at this bend.
    pub required: Meters,
}

impl Polyline {
    /// Creates a polyline from vertices.
    ///
    /// # Panics
    /// Panics if `vertices` is empty; a cable run always has at least its
    /// start point.
    pub fn new(vertices: Vec<Point3>) -> Self {
        assert!(!vertices.is_empty(), "polyline needs at least one vertex");
        Self { vertices }
    }

    /// The vertices in order.
    pub fn vertices(&self) -> &[Point3] {
        &self.vertices
    }

    /// First vertex.
    pub fn start(&self) -> Point3 {
        self.vertices[0]
    }

    /// Last vertex.
    pub fn end(&self) -> Point3 {
        *self.vertices.last().expect("non-empty by construction")
    }

    /// Appends a vertex.
    pub fn push(&mut self, p: Point3) {
        self.vertices.push(p);
    }

    /// Total arc length.
    pub fn length(&self) -> Meters {
        self.vertices.windows(2).map(|w| w[0].euclidean(w[1])).sum()
    }

    /// Extracts every bend (direction change above `min_angle_rad`) along the
    /// polyline. Collinear interior vertices produce no bend.
    pub fn bends(&self, min_angle_rad: f64) -> Vec<Bend> {
        let mut out = Vec::new();
        for i in 1..self.vertices.len().saturating_sub(1) {
            let a = self.vertices[i - 1];
            let b = self.vertices[i];
            let c = self.vertices[i + 1];
            let u = b.delta(a);
            let v = c.delta(b);
            let nu = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
            let nv = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            if nu == 0.0 || nv == 0.0 {
                continue; // degenerate duplicate vertex: no defined direction
            }
            let dot = (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) / (nu * nv);
            let angle = dot.clamp(-1.0, 1.0).acos();
            if angle > min_angle_rad {
                out.push(Bend {
                    vertex: i,
                    angle_rad: angle,
                    clearance: Meters::new(nu.min(nv)),
                });
            }
        }
        out
    }

    /// Checks every bend against a cable's minimum bend radius.
    ///
    /// The feasibility model: turning through angle `θ` with bend radius `r`
    /// consumes `r · tan(θ/2)` of straight run-in on each side of the vertex
    /// (the tangent-length of the inscribed arc), so each adjacent segment
    /// must be at least that long. A full reversal (θ = π) is never feasible
    /// for a rigid-radius cable and is always reported.
    pub fn check_bend_radius(&self, min_radius: Millimeters) -> Vec<BendViolation> {
        let r = min_radius.to_meters();
        self.bends(1e-6)
            .into_iter()
            .filter_map(|bend| {
                let half = bend.angle_rad / 2.0;
                // tan(π/2) → ∞ for a full reversal; treat anything near a
                // reversal as requiring infinite clearance.
                let required = if bend.angle_rad > std::f64::consts::PI - 1e-9 {
                    Meters::new(f64::INFINITY)
                } else {
                    Meters::new(r.value() * half.tan())
                };
                (bend.clearance < required).then_some(BendViolation { bend, required })
            })
            .collect()
    }

    /// A straight two-point polyline.
    pub fn straight(a: Point3, b: Point3) -> Self {
        Self::new(vec![a, b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        // 2 m east, then 3 m north: one 90° bend.
        Polyline::new(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
            Point3::new(2.0, 3.0, 0.0),
        ])
    }

    #[test]
    fn length_sums_segments() {
        assert_eq!(l_shape().length(), Meters::new(5.0));
    }

    #[test]
    fn straight_line_has_no_bends() {
        let p = Polyline::new(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(5.0, 0.0, 0.0),
        ]);
        assert!(p.bends(1e-6).is_empty());
    }

    #[test]
    fn right_angle_bend_detected() {
        let bends = l_shape().bends(1e-6);
        assert_eq!(bends.len(), 1);
        let b = bends[0];
        assert_eq!(b.vertex, 1);
        assert!((b.angle_rad - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        assert_eq!(b.clearance, Meters::new(2.0)); // min(2 m, 3 m)
    }

    #[test]
    fn generous_clearance_passes_radius_check() {
        // 40 mm bend radius needs 40·tan(45°) = 40 mm run-in; we have 2 m.
        assert!(l_shape()
            .check_bend_radius(Millimeters::new(40.0))
            .is_empty());
    }

    #[test]
    fn tight_corner_fails_radius_check() {
        // Segments of 30 mm, bend radius 40 mm: required 40 mm > 30 mm.
        let p = Polyline::new(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(0.03, 0.0, 0.0),
            Point3::new(0.03, 0.03, 0.0),
        ]);
        let v = p.check_bend_radius(Millimeters::new(40.0));
        assert_eq!(v.len(), 1);
        assert!((v[0].required.value() - 0.04).abs() < 1e-9);
    }

    #[test]
    fn full_reversal_is_always_infeasible() {
        let p = Polyline::new(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(10.0, 0.0, 0.0),
            Point3::new(0.0, 0.0, 0.0),
        ]);
        let v = p.check_bend_radius(Millimeters::new(1.0));
        assert_eq!(v.len(), 1);
        assert!(v[0].required.value().is_infinite());
    }

    #[test]
    fn duplicate_vertices_do_not_panic() {
        let p = Polyline::new(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
        ]);
        assert!(p.bends(1e-6).is_empty());
        assert_eq!(p.length(), Meters::new(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_polyline_panics() {
        let _ = Polyline::new(vec![]);
    }
}
