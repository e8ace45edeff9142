//! # pd-geometry — spatial substrate for the physnet toolkit
//!
//! Physical deployability is, before anything else, a question of geometry:
//! where things sit on the datacenter floor, how long cable runs are, whether
//! a cable's bend radius survives the path it must take, and whether a tray
//! segment has room left for one more bundle.
//!
//! This crate provides:
//!
//! * strongly-typed physical [`units`] (meters, millimeters, watts, dollars,
//!   hours, …) so that a cable length is never silently added to a cost;
//! * 2D/3D [`point`]s with Euclidean and Manhattan metrics (cables in trays
//!   route rectilinearly, line-of-sight distances are Euclidean);
//! * [`polyline`]s with length, bend-angle extraction, and minimum-bend-radius
//!   feasibility checks (a cable with a 40 mm bend radius cannot turn a sharp
//!   corner in a 30 mm plenum);
//! * a capacity-aware [`route`] graph used to route cables through tray
//!   segments with cross-sectional-area limits.
//!
//! Everything here is deterministic and allocation-light; the crate has no
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod point;
pub mod polyline;
pub mod route;
pub mod units;

pub use point::{Point2, Point3};
pub use polyline::{bend_violations, Polyline};
pub use route::{
    CapacityRouter, EdgeId as RouteEdgeId, NodeId as RouteNodeId, RouteError, ShortestPathTree,
};
pub use units::{
    Db, Dollars, Gbps, Hours, Kilograms, Meters, Millimeters, SquareMillimeters, Watts,
};
