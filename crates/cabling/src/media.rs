//! Cable media classes and SKU-specific physical parameters.
//!
//! Calibration sources (each constant's provenance):
//!
//! * **AWS re:Invent 2022 \[10\], quoted in paper §3.1**: 2.5 m intra-rack
//!   DACs went from 6.7 mm OD at 100G to 11 mm OD at 400G (2.7× the
//!   cross-sectional area); AWS moved to active electrical cables (AEC),
//!   thinner and "still cheaper and more reliable than optical intra-rack
//!   cabling".
//! * **Telescent G4 \[49\], paper §3.1**: OCS insertion loss 0.5–1.0 dB.
//! * Reach limits follow IEEE 802.3 copper reach (~3 m passive at 400G,
//!   5–7 m AEC) and SR4/DR4 optics (100 m OM4 multimode, 500 m+ single
//!   mode; we cap SMF at 2 km, the DR reach).
//! * Prices are public list-price magnitudes (2023-era): they matter only
//!   *relatively* (copper ≪ AEC < MMF < SMF per end).

use pd_geometry::{Dollars, Gbps, Meters, Millimeters, SquareMillimeters, Watts};

/// The four cable families the toolkit models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MediaClass {
    /// Passive direct-attach copper. Cheap, zero-power, thick, short.
    DacCopper,
    /// Active electrical cable (retimed copper). Thinner than DAC at high
    /// speeds, modest power, modest cost, intra-rack to few-meter reach.
    ActiveElectrical,
    /// Multimode fiber with SR-class transceivers. 100 m-class reach,
    /// tight loss budget.
    MultimodeFiber,
    /// Singlemode fiber with DR/FR-class transceivers. Long reach, generous
    /// loss budget, most expensive ends.
    SinglemodeFiber,
}

impl MediaClass {
    /// All classes, cheapest-ends first.
    pub const ALL: [MediaClass; 4] = [
        MediaClass::DacCopper,
        MediaClass::ActiveElectrical,
        MediaClass::MultimodeFiber,
        MediaClass::SinglemodeFiber,
    ];

    /// Short display name.
    pub fn short(&self) -> &'static str {
        match self {
            MediaClass::DacCopper => "DAC",
            MediaClass::ActiveElectrical => "AEC",
            MediaClass::MultimodeFiber => "MMF",
            MediaClass::SinglemodeFiber => "SMF",
        }
    }

    /// True for optical media (subject to loss budgets, can traverse
    /// patch panels / OCS).
    pub fn is_optical(&self) -> bool {
        matches!(
            self,
            MediaClass::MultimodeFiber | MediaClass::SinglemodeFiber
        )
    }
}

impl std::fmt::Display for MediaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short())
    }
}

/// Physical and commercial parameters of one (class, speed) cable family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CableSku {
    /// Media class.
    pub class: MediaClass,
    /// Line rate.
    pub speed: Gbps,
    /// Outside diameter of the cable.
    pub od: Millimeters,
    /// Minimum bend radius.
    pub bend_radius: Millimeters,
    /// Maximum electrical/optical reach.
    pub max_reach: Meters,
    /// Cable cost per meter (jacket + conductors/fiber).
    pub cost_per_meter: f64,
    /// Cost of the two ends (connectors or transceiver pair).
    pub ends_cost: Dollars,
    /// Power drawn by the two ends combined.
    pub ends_power: Watts,
    /// Failures in time (failures per 10⁹ device-hours) for the whole
    /// assembly; drives the repair simulator.
    pub fit: f64,
}

impl CableSku {
    /// Cross-sectional area (circular model) — what the cable claims in a
    /// tray and at the rack entry.
    pub fn area(&self) -> SquareMillimeters {
        self.od.circle_area()
    }

    /// Total cost of one cable of `length`.
    pub fn cable_cost(&self, length: Meters) -> Dollars {
        Dollars::per_meter(self.cost_per_meter, length) + self.ends_cost
    }
}

/// The built-in SKU table: per-speed rows for each class.
///
/// Returns `None` if the class does not exist at that speed (e.g. passive
/// DAC above 400G).
pub fn sku(class: MediaClass, speed: Gbps) -> Option<CableSku> {
    let s = speed.value();
    let entry =
        |od: f64, bend: f64, reach: f64, cpm: f64, ends: f64, power: f64, fit: f64| CableSku {
            class,
            speed,
            od: Millimeters::new(od),
            bend_radius: Millimeters::new(bend),
            max_reach: Meters::new(reach),
            cost_per_meter: cpm,
            ends_cost: Dollars::new(ends),
            ends_power: Watts::new(power),
            fit,
        };
    match class {
        MediaClass::DacCopper => match s as u64 {
            // 100G: the AWS 6.7 mm / 2.5 m cable, reach 3 m.
            10 => Some(entry(4.5, 35.0, 7.0, 6.0, 20.0, 0.1, 50.0)),
            25 => Some(entry(5.0, 40.0, 5.0, 8.0, 30.0, 0.1, 50.0)),
            100 => Some(entry(6.7, 55.0, 3.0, 12.0, 60.0, 0.2, 60.0)),
            200 => Some(entry(8.5, 70.0, 3.0, 18.0, 90.0, 0.3, 70.0)),
            // 400G: the AWS 11 mm cable — 2.7× the 100G cross-section.
            400 => Some(entry(11.0, 90.0, 3.0, 28.0, 140.0, 0.4, 80.0)),
            _ => None,
        },
        MediaClass::ActiveElectrical => match s as u64 {
            // AEC keeps the OD near the 100G DAC's even at 400/800G —
            // the §3.1 reason AWS adopted it.
            100 => Some(entry(5.5, 45.0, 7.0, 20.0, 180.0, 7.0, 120.0)),
            200 => Some(entry(6.0, 50.0, 7.0, 26.0, 260.0, 9.0, 130.0)),
            400 => Some(entry(6.5, 55.0, 7.0, 34.0, 380.0, 12.0, 140.0)),
            800 => Some(entry(7.2, 60.0, 5.0, 48.0, 600.0, 16.0, 160.0)),
            _ => None,
        },
        MediaClass::MultimodeFiber => match s as u64 {
            // OM4 MPO trunks; OD is the jacketed multi-fiber cable.
            10 => Some(entry(3.0, 30.0, 300.0, 1.5, 120.0, 2.0, 180.0)),
            25 => Some(entry(3.0, 30.0, 100.0, 1.8, 160.0, 2.4, 180.0)),
            100 => Some(entry(3.8, 30.0, 100.0, 2.5, 400.0, 5.0, 200.0)),
            200 => Some(entry(3.8, 30.0, 100.0, 3.0, 700.0, 9.0, 210.0)),
            400 => Some(entry(4.5, 30.0, 100.0, 4.0, 1300.0, 14.0, 220.0)),
            800 => Some(entry(4.5, 30.0, 60.0, 5.5, 2600.0, 20.0, 240.0)),
            _ => None,
        },
        MediaClass::SinglemodeFiber => match s as u64 {
            // DR/FR-class duplex or parallel SMF.
            10 => Some(entry(2.9, 30.0, 10_000.0, 1.2, 300.0, 2.5, 180.0)),
            25 => Some(entry(2.9, 30.0, 10_000.0, 1.4, 400.0, 3.0, 180.0)),
            100 => Some(entry(2.9, 30.0, 2_000.0, 1.8, 800.0, 8.0, 200.0)),
            200 => Some(entry(2.9, 30.0, 2_000.0, 2.2, 1400.0, 12.0, 210.0)),
            400 => Some(entry(3.0, 30.0, 2_000.0, 2.8, 2400.0, 18.0, 220.0)),
            800 => Some(entry(3.0, 30.0, 2_000.0, 3.8, 4200.0, 26.0, 240.0)),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_diameter_claim_encoded() {
        let dac100 = sku(MediaClass::DacCopper, Gbps::new(100.0)).unwrap();
        let dac400 = sku(MediaClass::DacCopper, Gbps::new(400.0)).unwrap();
        assert_eq!(dac100.od, Millimeters::new(6.7));
        assert_eq!(dac400.od, Millimeters::new(11.0));
        let ratio = dac400.area().ratio(dac100.area());
        assert!((ratio - 2.7).abs() < 0.01, "area ratio {ratio}");
    }

    #[test]
    fn aec_is_thinner_than_dac_at_400g() {
        let dac = sku(MediaClass::DacCopper, Gbps::new(400.0)).unwrap();
        let aec = sku(MediaClass::ActiveElectrical, Gbps::new(400.0)).unwrap();
        assert!(aec.od < dac.od);
        assert!(aec.max_reach > dac.max_reach);
        // …and cheaper per end than optical.
        let mmf = sku(MediaClass::MultimodeFiber, Gbps::new(400.0)).unwrap();
        assert!(aec.ends_cost < mmf.ends_cost);
    }

    #[test]
    fn optics_reach_dominates_copper() {
        for speed in [100.0, 400.0] {
            let s = Gbps::new(speed);
            let dac = sku(MediaClass::DacCopper, s).unwrap();
            let mmf = sku(MediaClass::MultimodeFiber, s).unwrap();
            let smf = sku(MediaClass::SinglemodeFiber, s).unwrap();
            assert!(mmf.max_reach > dac.max_reach);
            assert!(smf.max_reach > mmf.max_reach);
        }
    }

    #[test]
    fn optics_burn_more_end_power() {
        let s = Gbps::new(400.0);
        let dac = sku(MediaClass::DacCopper, s).unwrap();
        let smf = sku(MediaClass::SinglemodeFiber, s).unwrap();
        assert!(smf.ends_power.value() > 10.0 * dac.ends_power.value());
    }

    #[test]
    fn missing_speeds_are_none() {
        assert!(sku(MediaClass::DacCopper, Gbps::new(800.0)).is_none());
        assert!(sku(MediaClass::MultimodeFiber, Gbps::new(1600.0)).is_none());
    }

    #[test]
    fn cable_cost_includes_ends() {
        let s = sku(MediaClass::MultimodeFiber, Gbps::new(100.0)).unwrap();
        let c = s.cable_cost(Meters::new(10.0));
        assert_eq!(c, Dollars::new(2.5 * 10.0 + 400.0));
    }

    #[test]
    fn is_optical_classification() {
        assert!(!MediaClass::DacCopper.is_optical());
        assert!(!MediaClass::ActiveElectrical.is_optical());
        assert!(MediaClass::MultimodeFiber.is_optical());
        assert!(MediaClass::SinglemodeFiber.is_optical());
    }
}
