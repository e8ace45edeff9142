//! Rack instances: RU slots, weight and power budgets, conjoined pairs.
//!
//! Racks are where abstract switches become physical objects with size,
//! weight, and power draw. The budgets here feed the twin's constraint
//! engine; the `conjoined_with` marker models the §3.1 "atomic unit of
//! network capacity" that is pre-cabled off-site — and that must still fit
//! through the door.

use crate::hall::SlotId;
use crate::spec::RackSpec;
use pd_geometry::{Kilograms, Watts};

/// Identifier of a rack instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

impl std::fmt::Display for RackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// What kind of equipment occupies a rack unit span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EquipmentKind {
    /// A network switch, identified by the abstract switch id's raw value.
    Switch(u32),
    /// A passive patch panel.
    PatchPanel(u32),
    /// An optical circuit switch.
    Ocs(u32),
    /// A server (only modeled in aggregate).
    Server(u32),
    /// Blanking/cable-management filler.
    Filler,
}

/// One installed piece of equipment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackUnit {
    /// What it is.
    pub kind: EquipmentKind,
    /// First rack unit it occupies (0-based from the bottom).
    pub first_ru: u16,
    /// Rack units occupied.
    pub ru_size: u16,
    /// Weight of the unit.
    pub weight: Kilograms,
    /// Power draw of the unit.
    pub power: Watts,
}

/// Errors from rack mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum RackError {
    /// Not enough contiguous rack units.
    NoSpace {
        /// RUs requested.
        requested: u16,
        /// Largest contiguous free span.
        largest_free: u16,
    },
    /// The addition would exceed the weight budget.
    OverWeight {
        /// Weight after the addition.
        would_be: Kilograms,
        /// The limit.
        limit: Kilograms,
    },
    /// The addition would exceed the power budget.
    OverPower {
        /// Power after the addition.
        would_be: Watts,
        /// The limit.
        limit: Watts,
    },
}

impl std::fmt::Display for RackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RackError::NoSpace {
                requested,
                largest_free,
            } => write!(
                f,
                "no contiguous {requested} RU span (largest free: {largest_free})"
            ),
            RackError::OverWeight { would_be, limit } => {
                write!(f, "weight {would_be} exceeds limit {limit}")
            }
            RackError::OverPower { would_be, limit } => {
                write!(f, "power {would_be} exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for RackError {}

/// A rack instance installed in a slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Rack {
    /// Identifier.
    pub id: RackId,
    /// The slot it stands in.
    pub slot: SlotId,
    /// The model spec.
    pub spec: RackSpec,
    /// Installed equipment, sorted by `first_ru`.
    pub units: Vec<RackUnit>,
    /// If this rack was delivered pre-cabled as part of a conjoined
    /// assembly, the partner rack.
    pub conjoined_with: Option<RackId>,
}

impl Rack {
    /// Creates an empty rack in a slot.
    pub fn new(id: RackId, slot: SlotId, spec: RackSpec) -> Self {
        Self {
            id,
            slot,
            spec,
            units: Vec::new(),
            conjoined_with: None,
        }
    }

    /// RUs currently occupied.
    pub fn used_ru(&self) -> u16 {
        self.units.iter().map(|u| u.ru_size).sum()
    }

    /// Total installed weight.
    pub fn total_weight(&self) -> Kilograms {
        self.units.iter().map(|u| u.weight).sum()
    }

    /// Total installed power draw.
    pub fn total_power(&self) -> Watts {
        self.units.iter().map(|u| u.power).sum()
    }

    /// Largest contiguous free RU span.
    pub fn largest_free_span(&self) -> u16 {
        let mut occupied = vec![false; usize::from(self.spec.rack_units)];
        for u in &self.units {
            for ru in u.first_ru..(u.first_ru + u.ru_size).min(self.spec.rack_units) {
                occupied[usize::from(ru)] = true;
            }
        }
        let mut best = 0u16;
        let mut run = 0u16;
        for o in occupied {
            if o {
                run = 0;
            } else {
                run += 1;
                best = best.max(run);
            }
        }
        best
    }

    /// Installs equipment into the lowest contiguous free span that fits,
    /// checking RU, weight, and power budgets.
    pub fn install(
        &mut self,
        kind: EquipmentKind,
        ru_size: u16,
        weight: Kilograms,
        power: Watts,
    ) -> Result<u16, RackError> {
        let first = self.find_span(ru_size).ok_or(RackError::NoSpace {
            requested: ru_size,
            largest_free: self.largest_free_span(),
        })?;
        let would_weight = self.total_weight() + weight;
        if would_weight > self.spec.weight_limit {
            return Err(RackError::OverWeight {
                would_be: would_weight,
                limit: self.spec.weight_limit,
            });
        }
        let would_power = self.total_power() + power;
        if would_power > self.spec.power_limit {
            return Err(RackError::OverPower {
                would_be: would_power,
                limit: self.spec.power_limit,
            });
        }
        self.units.push(RackUnit {
            kind,
            first_ru: first,
            ru_size,
            weight,
            power,
        });
        self.units.sort_by_key(|u| u.first_ru);
        Ok(first)
    }

    /// The installed switches (abstract ids).
    pub fn switch_ids(&self) -> Vec<u32> {
        self.units
            .iter()
            .filter_map(|u| match u.kind {
                EquipmentKind::Switch(id) => Some(id),
                _ => None,
            })
            .collect()
    }

    fn find_span(&self, ru_size: u16) -> Option<u16> {
        let total = self.spec.rack_units;
        if ru_size == 0 || ru_size > total {
            return None;
        }
        let mut occupied = vec![false; usize::from(total)];
        for u in &self.units {
            for ru in u.first_ru..(u.first_ru + u.ru_size).min(total) {
                occupied[usize::from(ru)] = true;
            }
        }
        let mut run_start = 0u16;
        let mut run = 0u16;
        for (i, &o) in occupied.iter().enumerate() {
            if o {
                run = 0;
                run_start = i as u16 + 1;
            } else {
                run += 1;
                if run == ru_size {
                    return Some(run_start);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack() -> Rack {
        Rack::new(RackId(0), SlotId(0), RackSpec::default())
    }

    fn sw(id: u32) -> EquipmentKind {
        EquipmentKind::Switch(id)
    }

    #[test]
    fn install_packs_from_bottom() {
        let mut r = rack();
        let a = r
            .install(sw(1), 2, Kilograms::new(20.0), Watts::new(500.0))
            .unwrap();
        let b = r
            .install(sw(2), 1, Kilograms::new(10.0), Watts::new(300.0))
            .unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 2);
        assert_eq!(r.used_ru(), 3);
        assert_eq!(r.switch_ids(), vec![1, 2]);
    }

    #[test]
    fn freed_gap_is_reused() {
        let mut r = rack();
        r.install(sw(1), 2, Kilograms::new(20.0), Watts::new(500.0))
            .unwrap();
        r.install(sw(2), 2, Kilograms::new(20.0), Watts::new(500.0))
            .unwrap();
        r.install(sw(3), 2, Kilograms::new(20.0), Watts::new(500.0))
            .unwrap();
        r.units.retain(|u| u.first_ru != 2);
        // A 2-RU unit fits back into the gap at RU 2.
        let at = r
            .install(sw(4), 2, Kilograms::new(20.0), Watts::new(500.0))
            .unwrap();
        assert_eq!(at, 2);
    }

    #[test]
    fn no_space_reports_largest_span() {
        let mut r = Rack::new(
            RackId(1),
            SlotId(0),
            RackSpec {
                rack_units: 4,
                ..RackSpec::default()
            },
        );
        r.install(sw(1), 2, Kilograms::new(1.0), Watts::new(1.0))
            .unwrap();
        let err = r
            .install(sw(2), 3, Kilograms::new(1.0), Watts::new(1.0))
            .unwrap_err();
        assert_eq!(
            err,
            RackError::NoSpace {
                requested: 3,
                largest_free: 2
            }
        );
    }

    #[test]
    fn weight_budget_enforced() {
        let mut r = rack();
        let heavy = Kilograms::new(1300.0);
        r.install(sw(1), 1, heavy, Watts::new(1.0)).unwrap();
        let err = r
            .install(sw(2), 1, Kilograms::new(100.0), Watts::new(1.0))
            .unwrap_err();
        assert!(matches!(err, RackError::OverWeight { .. }));
    }

    #[test]
    fn power_budget_enforced() {
        let mut r = rack();
        r.install(sw(1), 1, Kilograms::new(1.0), Watts::new(16_500.0))
            .unwrap();
        let err = r
            .install(sw(2), 1, Kilograms::new(1.0), Watts::new(1000.0))
            .unwrap_err();
        assert!(matches!(err, RackError::OverPower { .. }));
    }

    #[test]
    fn fragmented_rack_finds_first_fit() {
        let mut r = rack();
        // Occupy RU 0-1 and 3-4, leaving a 1-RU hole at 2.
        r.install(sw(1), 2, Kilograms::new(1.0), Watts::new(1.0))
            .unwrap();
        r.install(sw(2), 1, Kilograms::new(1.0), Watts::new(1.0))
            .unwrap(); // at 2
        r.install(sw(3), 2, Kilograms::new(1.0), Watts::new(1.0))
            .unwrap(); // at 3
        r.units.retain(|u| u.first_ru != 2);
        assert_eq!(r.largest_free_span(), 42 - 5);
        let at = r
            .install(sw(4), 1, Kilograms::new(1.0), Watts::new(1.0))
            .unwrap();
        assert_eq!(at, 2, "first-fit should reuse the hole");
    }
}
