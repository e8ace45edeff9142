//! Axis-aligned bounding boxes on the floor plan.
//!
//! Used for rack footprints, keep-out zones (columns, CRAC units), and door
//! apertures, with service clearance added by [`Aabb2::expanded`].

use crate::point::Point2;
use crate::units::Meters;

/// A 2D axis-aligned box, `min` inclusive and `max` inclusive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb2 {
    /// Minimum corner (smallest x and y).
    pub min: Point2,
    /// Maximum corner (largest x and y).
    pub max: Point2,
}

impl Aabb2 {
    /// Builds a box from any two opposite corners.
    pub fn from_corners(a: Point2, b: Point2) -> Self {
        Self {
            min: Point2 {
                x: a.x.min(b.x),
                y: a.y.min(b.y),
            },
            max: Point2 {
                x: a.x.max(b.x),
                y: a.y.max(b.y),
            },
        }
    }

    /// Box width along x.
    pub fn width(&self) -> Meters {
        self.max.x - self.min.x
    }

    /// Box depth along y.
    pub fn depth(&self) -> Meters {
        self.max.y - self.min.y
    }

    /// Geometric center.
    pub fn center(&self) -> Point2 {
        self.min.midpoint(self.max)
    }

    /// True if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Grows the box by `margin` on every side (service clearance).
    pub fn expanded(&self, margin: Meters) -> Self {
        Self {
            min: Point2 {
                x: self.min.x - margin,
                y: self.min.y - margin,
            },
            max: Point2 {
                x: self.max.x + margin,
                y: self.max.y + margin,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(x0: f64, y0: f64, x1: f64, y1: f64) -> Aabb2 {
        Aabb2::from_corners(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    #[test]
    fn corners_normalize() {
        let b = Aabb2::from_corners(Point2::new(3.0, 4.0), Point2::new(1.0, 2.0));
        assert_eq!(b.min, Point2::new(1.0, 2.0));
        assert_eq!(b.max, Point2::new(3.0, 4.0));
    }

    #[test]
    fn size_and_center() {
        let b = boxed(1.0, 1.0, 3.0, 5.0);
        assert_eq!(b.width(), Meters::new(2.0));
        assert_eq!(b.depth(), Meters::new(4.0));
        assert_eq!(b.center(), Point2::new(2.0, 3.0));
    }

    #[test]
    fn contains_boundary() {
        let b = boxed(0.0, 0.0, 2.0, 2.0);
        assert!(b.contains(Point2::new(0.0, 0.0)));
        assert!(b.contains(Point2::new(2.0, 2.0)));
        assert!(b.contains(Point2::new(1.0, 1.0)));
        assert!(!b.contains(Point2::new(2.01, 1.0)));
    }

    #[test]
    fn expanded_adds_margin_all_sides() {
        let b = boxed(1.0, 1.0, 2.0, 2.0).expanded(Meters::new(0.5));
        assert_eq!(b.min, Point2::new(0.5, 0.5));
        assert_eq!(b.max, Point2::new(2.5, 2.5));
    }
}
