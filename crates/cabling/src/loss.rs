//! Optical insertion-loss budgets.
//!
//! Fiber links have a power budget: transmitter launch power minus receiver
//! sensitivity. Every mated connector, patch panel, OCS port, and kilometer
//! of glass eats part of it. The paper (§3.1) points out the design tension
//! directly: "viable cable lengths can also be reduced by the insertion
//! losses from patch panels and optical circuit switches (e.g., 0.5 dB to
//! 1.0 dB in Telescent's switches). This conflicts with some of the
//! benefits of inserting patch panels or OCSs."
//!
//! Budgets and penalties here are IEEE-ballpark constants, documented per
//! field; what the experiments rely on is the *relative* structure (an OCS
//! hop can push a marginal MMF channel over budget, forcing SMF).

use crate::media::MediaClass;
use pd_geometry::{Db, Meters};

/// Loss contributions of channel elements.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct LossStack {
    /// Loss per mated connector pair (each cable end that lands on a panel,
    /// shelf, or transceiver adds one).
    pub per_connector: Db,
    /// Loss per passive patch panel traversed.
    pub per_patch_panel: Db,
    /// Loss per OCS port traversed (Telescent G4: 0.5–1.0 dB; we use the
    /// midpoint 0.75 dB).
    pub per_ocs: Db,
    /// Multimode fiber attenuation per kilometer (OM4 @ 850 nm ≈ 3 dB/km).
    pub mmf_per_km: Db,
    /// Singlemode fiber attenuation per kilometer (≈ 0.4 dB/km @ 1310 nm).
    pub smf_per_km: Db,
}

impl Default for LossStack {
    fn default() -> Self {
        Self {
            per_connector: Db::new(0.3),
            per_patch_panel: Db::new(0.5),
            per_ocs: Db::new(0.75),
            mmf_per_km: Db::new(3.0),
            smf_per_km: Db::new(0.4),
        }
    }
}

/// The channel budget per media class.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct LossBudget {
    /// Budget for multimode channels (SR4-class ≈ 1.9 dB over OM4).
    pub mmf: Db,
    /// Budget for singlemode channels (DR/FR-class ≈ 4.0–6.3 dB; we use
    /// 4.0, conservative).
    pub smf: Db,
}

impl Default for LossBudget {
    fn default() -> Self {
        Self {
            mmf: Db::new(1.9),
            smf: Db::new(4.0),
        }
    }
}

impl LossStack {
    /// Total channel loss for a fiber path of `length` with the given
    /// intermediate elements. `connectors` counts mated pairs **beyond**
    /// the two transceiver ends (those are inside the budget definition);
    /// each panel and OCS traversal implies its own connectors, so callers
    /// typically pass `panels * 2 + ocs * 2`.
    pub fn channel_loss(
        &self,
        class: MediaClass,
        length: Meters,
        connectors: u32,
        panels: u32,
        ocs: u32,
    ) -> Option<Db> {
        let per_km = match class {
            MediaClass::MultimodeFiber => self.mmf_per_km,
            MediaClass::SinglemodeFiber => self.smf_per_km,
            _ => return None, // electrical media have no optical budget
        };
        Some(
            per_km * length.to_km()
                + self.per_connector * f64::from(connectors)
                + self.per_patch_panel * f64::from(panels)
                + self.per_ocs * f64::from(ocs),
        )
    }

    /// Whether a channel closes (loss within budget).
    pub fn channel_closes(
        &self,
        budget: &LossBudget,
        class: MediaClass,
        length: Meters,
        connectors: u32,
        panels: u32,
        ocs: u32,
    ) -> bool {
        let Some(loss) = self.channel_loss(class, length, connectors, panels, ocs) else {
            return true; // electrical: reach checks are handled elsewhere
        };
        let limit = match class {
            MediaClass::MultimodeFiber => budget.mmf,
            MediaClass::SinglemodeFiber => budget.smf,
            _ => return true,
        };
        loss <= limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_mmf_100m_closes() {
        let stack = LossStack::default();
        let budget = LossBudget::default();
        assert!(stack.channel_closes(
            &budget,
            MediaClass::MultimodeFiber,
            Meters::new(100.0),
            2,
            0,
            0
        ));
    }

    #[test]
    fn ocs_hop_kills_marginal_mmf() {
        // §3.1's conflict: a 100 m MMF channel closes direct, but not
        // through an OCS (0.75 dB + 2 extra connectors = 1.35 dB extra).
        let stack = LossStack::default();
        let budget = LossBudget::default();
        assert!(!stack.channel_closes(
            &budget,
            MediaClass::MultimodeFiber,
            Meters::new(100.0),
            4,
            0,
            1
        ));
        // The same channel on singlemode closes fine.
        assert!(stack.channel_closes(
            &budget,
            MediaClass::SinglemodeFiber,
            Meters::new(100.0),
            4,
            0,
            1
        ));
    }

    #[test]
    fn electrical_media_have_no_budget() {
        let stack = LossStack::default();
        assert!(stack
            .channel_loss(MediaClass::DacCopper, Meters::new(3.0), 0, 0, 0)
            .is_none());
        assert!(stack.channel_closes(
            &LossBudget::default(),
            MediaClass::ActiveElectrical,
            Meters::new(5.0),
            0,
            0,
            0
        ));
    }
}
