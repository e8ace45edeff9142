//! Per-family feasibility-envelope mapping.
//!
//! The paper's envelope idea (§5.2) asks: across how much of the design
//! space does the automation keep working without changes? This module
//! answers the sweep-shaped version of that question: given the search's
//! records, where — walking the target-server axis upward — does each
//! topology family first stop being fully feasible (pipeline `Err`,
//! undeployable report, or a [`pd_twin::envelope::CapabilityEnvelope`]
//! break)?
//!
//! A target size counts as feasible for a family if **any** record at that
//! size is fully feasible ([`PointRecord::feasible`]) — the family can be
//! deployed there under at least one hall/media/seed choice. The boundary
//! is the smallest swept size with records but no feasible one.

use std::collections::BTreeMap;

use crate::record::PointRecord;

/// One family's feasibility boundary along the target-server axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyEnvelope {
    /// Family name.
    pub family: String,
    /// Largest swept target size with a fully feasible point (`None` =
    /// the family was never feasible in this sweep).
    pub max_feasible_servers: Option<usize>,
    /// Smallest swept target size where no point was feasible (`None` =
    /// feasible at every swept size).
    pub first_infeasible_servers: Option<usize>,
    /// A representative reason from the boundary size (first record's
    /// [`PointRecord::infeasibility`] there).
    pub boundary_reason: Option<String>,
}

/// Maps every family present in `records` to its feasibility boundary.
/// Families come back in first-appearance order (the order the space
/// listed them in).
pub fn map_envelopes(records: &[PointRecord]) -> Vec<FamilyEnvelope> {
    let mut families: Vec<String> = Vec::new();
    for r in records {
        if !families.contains(&r.family) {
            families.push(r.family.clone());
        }
    }
    families
        .into_iter()
        .map(|family| {
            // target size → (any feasible, first infeasibility reason).
            let mut sizes: BTreeMap<usize, (bool, Option<String>)> = BTreeMap::new();
            for r in records.iter().filter(|r| r.family == family) {
                let entry = sizes.entry(r.target_servers).or_insert((false, None));
                if r.feasible() {
                    entry.0 = true;
                } else if entry.1.is_none() {
                    entry.1 = r.infeasibility();
                }
            }
            let max_feasible_servers = sizes.iter().rev().find(|(_, v)| v.0).map(|(&s, _)| s);
            let boundary = sizes.iter().find(|(_, v)| !v.0);
            FamilyEnvelope {
                family,
                max_feasible_servers,
                first_infeasible_servers: boundary.map(|(&s, _)| s),
                boundary_reason: boundary.and_then(|(_, v)| v.1.clone()),
            }
        })
        .collect()
}

/// Renders the envelope map as a markdown table.
pub fn render_envelopes(envelopes: &[FamilyEnvelope]) -> String {
    let mut out = String::new();
    out.push_str("| family | max feasible | first break | why |\n|---|---|---|---|\n");
    for e in envelopes {
        let max = e
            .max_feasible_servers
            .map_or("—".to_string(), |s| s.to_string());
        let brk = e
            .first_infeasible_servers
            .map_or("none in sweep".to_string(), |s| s.to_string());
        let why = e.boundary_reason.clone().unwrap_or_else(|| "—".to_string());
        out.push_str(&format!("| {} | {} | {} | {} |\n", e.family, max, brk, why));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PointMetrics, PointRecord, PointStatus};
    use crate::space::{Family, HallVariant, MediaPolicy, Point, TrialProfile};

    fn rec(family: Family, servers: usize, seed: u64, feasible: bool) -> PointRecord {
        let p = Point {
            family,
            servers,
            speed_gbps: 100.0,
            seed,
            hall: HallVariant::Standard,
            media: MediaPolicy::Standard,
            fault_scenarios: 0,
        };
        let mut r = PointRecord::pruned(&p, &TrialProfile::default(), "placeholder");
        r.status = PointStatus::Ok;
        r.metrics = Some(PointMetrics {
            servers_built: servers as u32,
            cost_per_server: 1000.0,
            tco_per_server: 2000.0,
            bisection: 1.0,
            throughput_per_server: 90.0,
            time_to_deploy_h: 40.0,
            fault_mean_retention: None,
            deployable: feasible,
            envelope_breaks: 0,
        });
        r
    }

    #[test]
    fn boundary_is_first_size_with_no_feasible_point() {
        let records = vec![
            rec(Family::FatTree, 128, 1, true),
            rec(Family::FatTree, 256, 1, true),
            // 512: two seeds, both infeasible → the boundary.
            rec(Family::FatTree, 512, 1, false),
            rec(Family::FatTree, 512, 2, false),
            // 1024 feasible again (non-monotone sweeps still report the
            // *first* break).
            rec(Family::FatTree, 1024, 1, true),
        ];
        let envs = map_envelopes(&records);
        assert_eq!(envs.len(), 1);
        let e = &envs[0];
        assert_eq!(e.family, "fat-tree");
        assert_eq!(e.max_feasible_servers, Some(1024));
        assert_eq!(e.first_infeasible_servers, Some(512));
        assert!(e
            .boundary_reason
            .as_deref()
            .unwrap()
            .contains("undeployable"));
    }

    #[test]
    fn any_feasible_point_at_a_size_keeps_it_inside() {
        let records = vec![
            rec(Family::Jellyfish, 256, 1, false),
            rec(Family::Jellyfish, 256, 2, true), // one good seed suffices
        ];
        let envs = map_envelopes(&records);
        assert_eq!(envs[0].max_feasible_servers, Some(256));
        assert_eq!(envs[0].first_infeasible_servers, None);
    }

    #[test]
    fn pruned_and_errored_records_count_as_infeasible() {
        let p = Point {
            family: Family::SlimFly,
            servers: 4096,
            speed_gbps: 100.0,
            seed: 1,
            hall: HallVariant::Standard,
            media: MediaPolicy::Standard,
            fault_scenarios: 0,
        };
        let pruned = PointRecord::pruned(
            &p,
            &TrialProfile::default(),
            "placement: hall capacity exceeded",
        );
        let envs = map_envelopes(&[rec(Family::SlimFly, 512, 1, true), pruned]);
        let e = &envs[0];
        assert_eq!(e.max_feasible_servers, Some(512));
        assert_eq!(e.first_infeasible_servers, Some(4096));
        assert!(e
            .boundary_reason
            .as_deref()
            .unwrap()
            .starts_with("placement:"));
    }

    #[test]
    fn families_report_independently_and_render() {
        let records = vec![
            rec(Family::FatTree, 256, 1, true),
            rec(Family::Xpander, 256, 1, false),
        ];
        let envs = map_envelopes(&records);
        assert_eq!(envs.len(), 2);
        assert_eq!(envs[0].first_infeasible_servers, None);
        assert_eq!(envs[1].max_feasible_servers, None);
        let table = render_envelopes(&envs);
        assert!(
            table.contains("| fat-tree | 256 | none in sweep |"),
            "{table}"
        );
        assert!(table.contains("| xpander | — | 256 |"), "{table}");
    }
}
