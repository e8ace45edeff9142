//! The labor task vocabulary.
//!
//! Physical deployment decomposes into tasks a technician performs at a
//! location. This module defines the vocabulary; [`crate::deploy`] lowers a
//! cabling plan into a task graph; [`crate::schedule`] executes it against
//! a technician pool. Durations come from [`crate::calib`].

use crate::calib::LaborCalibration;
use pd_geometry::{Hours, Meters};

/// The kinds of physical work the scheduler knows about.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkKind {
    /// Stand up and power a rack.
    InstallRack,
    /// Install one switch into an already-standing rack.
    InstallSwitch,
    /// Pull one loose cable along a tray route of the given length and
    /// terminate both ends.
    PullLooseCable {
        /// Routed length.
        length: Meters,
    },
    /// Install a pre-built bundle and terminate all members.
    InstallBundle {
        /// Member cables.
        members: usize,
        /// Common length.
        length: Meters,
    },
    /// Link-light / BER test of one link.
    TestLink,
    /// Diagnose + fix one failed first-pass connection.
    Rework,
    /// Move fibers at an OCS/panel rack during a conversion (per-fiber
    /// move; used by the lifecycle crate's conversion planner).
    MoveFiber,
}

impl WorkKind {
    /// Duration of this task under a calibration.
    pub fn duration(&self, calib: &LaborCalibration) -> Hours {
        match self {
            WorkKind::InstallRack => calib.install_rack,
            WorkKind::InstallSwitch => calib.install_switch,
            WorkKind::PullLooseCable { length } => calib.loose_cable_time(*length),
            WorkKind::InstallBundle { members, length } => calib.bundle_time(*members, *length),
            WorkKind::TestLink => calib.test_link,
            WorkKind::Rework => calib.rework_connection,
            // A careful fiber move at a dense panel: locate, unlatch,
            // re-route, latch, verify — comparable to two connect-ends.
            WorkKind::MoveFiber => calib.connect_end * 2.0,
        }
    }

    /// Number of individual connections this task makes (for yield math).
    pub fn connections(&self) -> usize {
        match self {
            WorkKind::PullLooseCable { .. } => 2,
            WorkKind::InstallBundle { members, .. } => members * 2,
            WorkKind::MoveFiber => 1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_positive_and_ordered() {
        let c = LaborCalibration::default();
        let pull = WorkKind::PullLooseCable {
            length: Meters::new(20.0),
        }
        .duration(&c);
        let test = WorkKind::TestLink.duration(&c);
        assert!(pull > test);
        assert!(WorkKind::InstallRack.duration(&c) > WorkKind::InstallSwitch.duration(&c));
        assert!(WorkKind::Rework.duration(&c) > test);
    }

    #[test]
    fn longer_pulls_take_longer() {
        let c = LaborCalibration::default();
        let short = WorkKind::PullLooseCable {
            length: Meters::new(5.0),
        }
        .duration(&c);
        let long = WorkKind::PullLooseCable {
            length: Meters::new(50.0),
        }
        .duration(&c);
        assert!(long > short);
    }

    #[test]
    fn connections_per_task() {
        let pull = WorkKind::PullLooseCable {
            length: Meters::new(5.0),
        };
        assert_eq!(pull.connections(), 2);
        let bundle = WorkKind::InstallBundle {
            members: 16,
            length: Meters::new(5.0),
        };
        assert_eq!(bundle.connections(), 32);
        assert_eq!(WorkKind::TestLink.connections(), 0);
    }
}
