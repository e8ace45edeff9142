//! Strongly-typed physical quantities.
//!
//! Each unit is a transparent newtype over `f64` with the arithmetic that is
//! dimensionally meaningful: quantities of the same unit add and subtract,
//! any quantity scales by a dimensionless `f64`, and a few cross-unit
//! products that the toolkit actually needs (e.g. `Dollars/Meters × Meters`)
//! are provided as named methods rather than operator overloads, so the
//! dimensional bookkeeping stays visible at call sites.
//!
//! All types are `Copy`, ordered (via [`f64::total_cmp`] wrappers where
//! needed), and printable with sensible precision.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared newtype-quantity boilerplate for one unit type.
///
/// This is deliberately a *simple* macro (field access and operator impls
/// only) — the point is to avoid copy-paste drift between twelve unit types,
/// not to be clever.
///
/// Every unit hashes its bit pattern (`self.0.to_bits()`), which is what
/// cache keys over specs need: two values hash alike only if they are the
/// same bits, so a key never merges values that print or compute
/// differently. That is finer than `==` (`-0.0` and `0.0` hash apart, and
/// so do NaNs with different payloads), which is sound because the units
/// are not `Eq` and so never key a `HashMap`.
macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw `f64` value.
            pub const fn new(v: f64) -> Self {
                Self(v)
            }

            /// Returns the raw `f64` value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps into `[lo, hi]`.
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Dimensionless ratio `self / other`.
            ///
            /// Returns `f64::INFINITY` when dividing a positive quantity by
            /// zero, mirroring IEEE semantics; callers that care should check
            /// `other` first.
            pub fn ratio(self, other: Self) -> f64 {
                self.0 / other.0
            }

            /// True if the value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Total ordering comparison (NaN-safe, for sorting).
            pub fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Hash for $name {
            fn hash<H: Hasher>(&self, state: &mut H) {
                self.0.to_bits().hash(state);
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{:.2} {}", self.0, $suffix)
                }
            }
        }
    };
}

quantity!(
    /// A length in meters; the native length unit for floor plans and cable runs.
    Meters,
    "m"
);
quantity!(
    /// A length in millimeters; used for cable diameters and bend radii.
    Millimeters,
    "mm"
);
quantity!(
    /// A cross-sectional area in square millimeters; used for tray fill accounting.
    SquareMillimeters,
    "mm²"
);
quantity!(
    /// Electrical power in watts.
    Watts,
    "W"
);
quantity!(
    /// Mass in kilograms; racks and cable bundles have weight limits.
    Kilograms,
    "kg"
);
quantity!(
    /// Link or path bandwidth in gigabits per second.
    Gbps,
    "Gbps"
);
quantity!(
    /// Money in US dollars (capex or opex).
    Dollars,
    "$"
);
quantity!(
    /// Elapsed or labor time in hours.
    Hours,
    "h"
);
quantity!(
    /// Optical power ratio in decibels; used for insertion-loss budgets.
    Db,
    "dB"
);

impl Meters {
    /// Converts to kilometers as a raw `f64` (used for per-km attenuation).
    pub fn to_km(self) -> f64 {
        self.0 / 1000.0
    }
}

impl Millimeters {
    /// Converts to meters.
    pub fn to_meters(self) -> Meters {
        Meters(self.0 / 1000.0)
    }

    /// Area of a circle with this diameter; the standard model for cable
    /// cross-section when computing tray fill.
    pub fn circle_area(self) -> SquareMillimeters {
        SquareMillimeters(std::f64::consts::PI * (self.0 / 2.0) * (self.0 / 2.0))
    }
}

impl Hours {
    /// Builds a duration from minutes.
    pub fn from_minutes(min: f64) -> Self {
        Hours(min / 60.0)
    }

    /// The duration expressed in 7-day weeks of 8-hour work days (40 h).
    pub fn to_work_weeks(self) -> f64 {
        self.0 / 40.0
    }
}

impl Dollars {
    /// Cost of `len` of something priced per meter.
    pub fn per_meter(rate: f64, len: Meters) -> Self {
        Dollars(rate * len.0)
    }
}

impl Watts {
    /// Energy cost of running this draw for `hours` at `usd_per_kwh`.
    pub fn energy_cost(self, hours: Hours, usd_per_kwh: f64) -> Dollars {
        Dollars(self.0 / 1000.0 * hours.0 * usd_per_kwh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_same_unit() {
        let a = Meters(3.0) + Meters(4.5);
        assert_eq!(a, Meters(7.5));
        assert_eq!(a - Meters(7.5), Meters::ZERO);
    }

    #[test]
    fn scale_by_dimensionless() {
        assert_eq!(Meters(2.0) * 3.0, Meters(6.0));
        assert_eq!(3.0 * Meters(2.0), Meters(6.0));
        assert_eq!(Meters(6.0) / 3.0, Meters(2.0));
    }

    #[test]
    fn sum_iterator() {
        let total: Dollars = [Dollars(1.0), Dollars(2.5), Dollars(3.5)].into_iter().sum();
        assert_eq!(total, Dollars(7.0));
    }

    #[test]
    fn circle_area_matches_formula() {
        // AWS's 6.7 mm OD 100G DAC (paper §3.1): area ≈ 35.26 mm².
        let a = Millimeters(6.7).circle_area();
        assert!((a.value() - 35.2565).abs() < 1e-3, "got {a}");
    }

    #[test]
    fn aws_od_area_ratio_is_2_7x() {
        // The paper's headline cable claim: 11 mm vs 6.7 mm OD is a 2.7×
        // cross-sectional-area increase.
        let r = Millimeters(11.0)
            .circle_area()
            .ratio(Millimeters(6.7).circle_area());
        assert!((r - 2.695).abs() < 0.01, "ratio {r}");
    }

    #[test]
    fn hours_conversions() {
        assert_eq!(Hours::from_minutes(90.0), Hours(1.5));
        assert_eq!(Hours(80.0).to_work_weeks(), 2.0);
    }

    #[test]
    fn watts_energy_cost() {
        // 1 kW for 10 h at $0.10/kWh = $1.
        let c = Watts(1000.0).energy_cost(Hours(10.0), 0.10);
        assert!((c - Dollars(1.0)).abs() < Dollars(1e-12));
    }

    #[test]
    fn display_precision() {
        assert_eq!(format!("{}", Meters(1.2345)), "1.23 m");
        assert_eq!(format!("{:.0}", Dollars(99.9)), "100 $");
    }

    #[test]
    fn ratio_and_clamp() {
        assert_eq!(Meters(6.0).ratio(Meters(2.0)), 3.0);
        assert_eq!(Meters(5.0).clamp(Meters(0.0), Meters(3.0)), Meters(3.0));
        assert_eq!(Meters(2.0).max(Meters(3.0)), Meters(3.0));
        assert_eq!(Meters(2.0).min(Meters(3.0)), Meters(2.0));
    }
}
