//! Abstract "goodness" metrics — the traditional yardsticks the paper says
//! are necessary but not sufficient (§1: "Traditional metrics of network
//! 'goodness' do not account for these costs and constraints").
//!
//! The headline experiment (E6) computes these side-by-side with the
//! physical-deployability metrics to show how the two rankings diverge.

use crate::csr::{self, CsrNet, Masks};
use crate::gen::SplitMix64;
use crate::network::Network;
use pd_geometry::Gbps;

/// The abstract-goodness report for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodnessReport {
    /// Topology label.
    pub label: String,
    /// Switch count.
    pub switches: usize,
    /// Link count.
    pub links: usize,
    /// Server count.
    pub servers: u32,
    /// Hop-count diameter.
    pub diameter: u16,
    /// Mean hop distance between server-bearing switches.
    pub mean_server_distance: f64,
    /// Normalized sampled bisection bandwidth: min sampled balanced-cut
    /// capacity divided by (servers/2 × server port speed). ≥ 1.0 means
    /// full bisection (an upper-bound estimate: the minimum over sampled
    /// random balanced cuts).
    pub bisection_per_server: f64,
    /// Minimum edge-disjoint paths over sampled server-switch pairs.
    pub min_edge_disjoint_paths: usize,
    /// ECMP throughput proxy: per-server throughput (Gbps) under a uniform
    /// all-to-all matrix at the saturation scale factor.
    pub uniform_throughput_per_server: f64,
    /// Spectral gap `d − λ₂` if the network is regular (expander quality);
    /// `None` for irregular networks.
    pub spectral_gap: Option<f64>,
}

/// Random balanced cuts sampled for the bisection estimate.
const BISECTION_SAMPLES: usize = 32;

/// Host pairs sampled for edge-disjoint path counting.
const DISJOINT_PAIRS: usize = 16;

/// Computes the full goodness report on a [`CsrNet`] of `net`, so the
/// executor can thread one dense view through every kernel of an
/// evaluation (bisection cuts, max-flow sampling, power iteration).
/// `seed` drives the cut and pair sampling.
///
/// Diameter, mean host distance and the ECMP throughput proxy all come
/// from `pass`, a [`csr::uniform_healthy`] pass the caller has already run
/// on `view`: one BFS per switch, from bit-parallel sweeps of 64 switches
/// each. A caller that also needs the healthy throughput scale (the
/// resilience baseline, [`failure_resilience_from`]) runs the pass once.
pub fn goodness_from(
    net: &Network,
    view: &CsrNet,
    pass: &csr::HealthyRouting,
    seed: u64,
) -> GoodnessReport {
    let scale = pass.ecmp.throughput_scale();
    let servers = net.server_count();
    let hosts = view.host_switches();
    // Per-server throughput at saturation: each host switch sends
    // (hosts−1) × scale Gbps; divide by its server count.
    let uniform_throughput_per_server = if servers == 0 || !scale.is_finite() {
        0.0
    } else {
        let per_switch_out = (hosts.len().saturating_sub(1)) as f64 * scale;
        let avg_servers_per_switch = f64::from(servers) / hosts.len() as f64;
        per_switch_out / avg_servers_per_switch
    };

    let mut rng = SplitMix64::new(seed);
    let bisection_per_server = sampled_bisection_on(view, BISECTION_SAMPLES, &mut rng);

    let min_edge_disjoint_paths = sampled_min_disjoint_on(view, DISJOINT_PAIRS, &mut rng);

    GoodnessReport {
        label: net.label.clone(),
        switches: net.switch_count(),
        links: net.link_count(),
        servers,
        diameter: pass.diameter,
        // An integer sum, so the mean does not depend on the pair order.
        mean_server_distance: if pass.host_pairs == 0 {
            0.0
        } else {
            pass.host_hops as f64 / pass.host_pairs as f64
        },
        bisection_per_server,
        min_edge_disjoint_paths,
        uniform_throughput_per_server,
        spectral_gap: spectral_gap_regular(view),
    }
}

/// Estimates bisection bandwidth by sampling random balanced partitions of
/// the server-bearing switches and taking the *minimum* observed cut
/// capacity, normalized by `servers/2 × port speed` (i.e. 1.0 = full
/// bisection for the sampled cuts).
///
/// This is an **upper bound** on the true bisection (any sampled cut is a
/// candidate minimum); it is the standard proxy when exact minimum bisection
/// (NP-hard) is out of reach, and sampling noise is controlled by the seed
/// so comparisons across topologies are reproducible.
///
/// Each sampled cut is one shuffle of the host index list plus one dense
/// BFS side-assignment ([`csr::cut_capacity`]): transit switches join the
/// side from which BFS first reaches them, and the crossing capacity is
/// summed in link index order.
fn sampled_bisection_on(view: &CsrNet, samples: usize, rng: &mut SplitMix64) -> f64 {
    let hosts = view.host_switches();
    if hosts.len() < 2 {
        return 0.0;
    }
    let server_speed = view.switch_port_speed(hosts[0]);
    let full = f64::from(view.server_count()) / 2.0 * server_speed;

    let mut side_a = vec![false; view.switch_count()];
    let best = csr::with_scratch(|scratch| {
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(1) {
            let mut shuffled = hosts.clone();
            rng.shuffle(&mut shuffled);
            side_a.fill(false);
            for &h in &shuffled[..shuffled.len() / 2] {
                side_a[h as usize] = true;
            }
            best = best.min(csr::cut_capacity(view, &hosts, &side_a, scratch));
        }
        best
    });
    if full > 0.0 {
        best / full
    } else {
        0.0
    }
}

/// Minimum edge-disjoint path count over sampled host pairs, as
/// unit-capacity max-flow on the shared dense view. Each flow stops at the
/// minimum so far or at the smaller endpoint degree, which bounds it, so
/// the minimum is exact.
fn sampled_min_disjoint_on(view: &CsrNet, pairs: usize, rng: &mut SplitMix64) -> usize {
    let pairs = sample_host_pairs(view, pairs, rng);
    if pairs.is_empty() {
        return 0;
    }
    csr::with_scratch(|scratch| {
        pairs.iter().fold(usize::MAX, |min, &(a, b)| {
            let degree = view.adjacency(a).len().min(view.adjacency(b).len());
            csr::max_flow_capped(view, a, b, None, min.min(degree), scratch)
        })
    })
}

/// `pairs.max(1)` seeded pairs of distinct host switches; none when there
/// are fewer than two hosts.
fn sample_host_pairs(view: &CsrNet, pairs: usize, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
    let hosts = view.host_switches();
    if hosts.len() < 2 {
        return Vec::new();
    }
    (0..pairs.max(1))
        .map(|_| {
            let a = hosts[rng.below(hosts.len())];
            let mut b = hosts[rng.below(hosts.len())];
            while b == a {
                b = hosts[rng.below(hosts.len())];
            }
            (a, b)
        })
        .collect()
}

/// For a `d`-regular network (counting network links only), estimates the
/// second adjacency eigenvalue λ₂ by power iteration on the component
/// orthogonal to the all-ones vector, and returns the spectral gap `d − λ₂`.
/// Returns `None` if the network is not regular.
///
/// Expander graphs (Jellyfish, Xpander, Slim Fly) have large gaps; this is
/// the "attractive theoretical property" of §4.2 that the deployability
/// metrics get weighed against.
pub fn spectral_gap_regular(view: &CsrNet) -> Option<f64> {
    let n = view.switch_count();
    if n < 2 {
        return None;
    }
    // Adjacency rows carry parallel links with multiplicity.
    let d = view.adjacency(0).len();
    if d == 0 || (1..n as u32).any(|u| view.adjacency(u).len() != d) {
        return None;
    }

    // Deterministic pseudo-random start vector, orthogonalized against 1.
    let mut rng = SplitMix64::new(0xDEC0DE);
    let mut v: Vec<f64> = (0..n)
        .map(|_| rng.next_u64() as f64 / u64::MAX as f64 - 0.5)
        .collect();
    let mut lambda = 0.0;
    for _ in 0..300 {
        // Project out the all-ones direction (the λ₁ = d eigenvector).
        let mean = v.iter().sum::<f64>() / n as f64;
        for x in v.iter_mut() {
            *x -= mean;
        }
        // Multiply by adjacency.
        let mut w = vec![0.0; n];
        for (i, &vi) in v.iter().enumerate() {
            for &(j, _) in view.adjacency(i as u32) {
                w[j as usize] += vi;
            }
        }
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-30 {
            return Some(d as f64); // graph so symmetric the residual vanished
        }
        lambda = norm / v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
        for (x, y) in v.iter_mut().zip(&w) {
            *x = y / norm;
        }
    }
    Some(d as f64 - lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{fat_tree, jellyfish, leaf_spine, JellyfishParams};

    /// The goodness report of `net` on `view`, from its own healthy pass.
    fn goodness(net: &Network, view: &CsrNet, seed: u64) -> GoodnessReport {
        let pass = csr::with_scratch(|scratch| csr::uniform_healthy(view, scratch));
        goodness_from(net, view, &pass, seed)
    }

    #[test]
    fn fat_tree_goodness_sane() {
        let n = fat_tree(4, Gbps::new(100.0)).unwrap();
        let g = goodness(&n, &CsrNet::build(&n), 1);
        assert_eq!(g.diameter, 4);
        assert_eq!(g.servers, 16);
        assert_eq!(g.min_edge_disjoint_paths, 2);
        // Fat-tree is full bisection: normalized bisection ≥ 1.
        assert!(
            g.bisection_per_server >= 0.99,
            "got {}",
            g.bisection_per_server
        );
        // Rearrangeably non-blocking: per-server uniform throughput should
        // be near the 100 Gbps NIC rate.
        assert!(
            g.uniform_throughput_per_server >= 50.0,
            "got {}",
            g.uniform_throughput_per_server
        );
        assert!(g.spectral_gap.is_none(), "fat-tree is not regular overall");
    }

    #[test]
    fn jellyfish_has_positive_spectral_gap() {
        let n = jellyfish(&JellyfishParams {
            tors: 40,
            network_degree: 6,
            servers_per_tor: 4,
            link_speed: Gbps::new(100.0),
            seed: 3,
        })
        .unwrap();
        let gap = spectral_gap_regular(&CsrNet::build(&n)).expect("regular");
        // Random 6-regular graphs are near-Ramanujan: λ₂ ≈ 2√5 ≈ 4.47,
        // gap ≈ 1.5; allow a broad band.
        assert!(gap > 0.5 && gap < 6.0, "gap {gap}");
    }

    #[test]
    fn irregular_network_has_no_gap() {
        let n = leaf_spine(4, 2, 8, 1, Gbps::new(100.0)).unwrap();
        assert!(spectral_gap_regular(&CsrNet::build(&n)).is_none());
    }

    #[test]
    fn bisection_sampling_is_deterministic() {
        let n = fat_tree(4, Gbps::new(100.0)).unwrap();
        let view = CsrNet::build(&n);
        let a = sampled_bisection_on(&view, 16, &mut SplitMix64::new(9));
        let b = sampled_bisection_on(&view, 16, &mut SplitMix64::new(9));
        assert_eq!(a, b);
    }

    /// Known answers from the `HashMap`-indexed power iteration this one
    /// replaced, recorded on the same fixtures: the CSR adjacency keeps
    /// `incident_links` order, so every sum runs in the same order.
    #[test]
    fn spectral_gap_matches_pre_csr_known_answers() {
        use crate::gen::{slimfly, xpander, SlimFlyParams, XpanderParams};
        for (name, net, bits) in [
            (
                "jellyfish",
                jellyfish(&JellyfishParams::default()).unwrap(),
                0x4006_f84e_3d8c_2522_u64,
            ),
            (
                "xpander",
                xpander(&XpanderParams::default()).unwrap(),
                0x4007_89d1_4043_cebe,
            ),
            (
                "slimfly",
                slimfly(&SlimFlyParams::default()).unwrap(),
                0x400f_ffff_ffff_ffff,
            ),
        ] {
            let gap = spectral_gap_regular(&CsrNet::build(&net)).expect("regular");
            assert_eq!(gap.to_bits(), bits, "{name}: gap {gap}");
        }
    }

    /// FNV-1a ([`crate::gen::cache_key`]) of the `GoodnessReport` `Debug`
    /// text, recorded while Goodness still ran all-pairs BFS rows, a
    /// uniform `TrafficMatrix` lowered through `IndexedDemands::build` and
    /// ECMP on the given rows: every family of the CSR equivalence
    /// fixtures (whose Slim Fly is the default one), plus the default
    /// Jellyfish and Xpander. `Debug` prints floats round-trip exact, so a
    /// matching hash means every field matches bit for bit.
    #[test]
    fn goodness_matches_pre_fusion_known_answers() {
        use crate::gen::{cache_key, xpander, XpanderParams};
        let mut nets = crate::csr::tests::equivalence_fixtures();
        nets.push((
            "jellyfish-default",
            jellyfish(&JellyfishParams::default()).unwrap(),
        ));
        nets.push((
            "xpander-default",
            xpander(&XpanderParams::default()).unwrap(),
        ));
        let got: Vec<(&str, u64)> = nets
            .iter()
            .map(|(name, net)| {
                let report = goodness(net, &CsrNet::build(net), 1);
                (*name, cache_key(format!("{report:?}").as_bytes()))
            })
            .collect();
        let want: [(&str, u64); 13] = [
            ("fat-tree", 0x49d6_f7a3_e782_74ae),
            ("folded-clos", 0x4a91_004e_ff74_aad7),
            ("leaf-spine", 0xf6ab_925c_0e9f_9779),
            ("vl2", 0xbfea_5b28_5e19_79fa),
            ("jellyfish", 0x91ac_f1eb_3ff9_f1ad),
            ("xpander", 0xa665_5158_50b5_4ad5),
            ("slimfly", 0x1a80_9778_9771_7bf0),
            ("flat-bf", 0x3bdb_6428_7757_3d94),
            ("fatclique", 0x70ea_11f4_a638_ba4e),
            ("direct-connect", 0x44b4_fab7_ce80_5c1c),
            ("parallel-ring", 0x322d_2e30_1b41_b3ee),
            ("jellyfish-default", 0xc909_73df_314f_c9cd),
            ("xpander-default", 0xe5cd_1657_675a_a60a),
        ];
        assert_eq!(got, want);
    }

    /// Capping each sampled max-flow at the running minimum and the
    /// endpoint degrees leaves the minimum as it was, on every family.
    #[test]
    fn capped_min_disjoint_paths_equal_uncapped() {
        for (name, net) in crate::csr::tests::equivalence_fixtures() {
            let view = CsrNet::build(&net);
            for seed in 0..8 {
                let capped =
                    sampled_min_disjoint_on(&view, DISJOINT_PAIRS, &mut SplitMix64::new(seed));
                let pairs = sample_host_pairs(&view, DISJOINT_PAIRS, &mut SplitMix64::new(seed));
                let mut scratch = csr::Scratch::default();
                let uncapped = pairs
                    .iter()
                    .map(|&(a, b)| csr::max_flow(&view, a, b, None, &mut scratch))
                    .min()
                    .unwrap_or(0);
                assert_eq!(capped, uncapped, "{name}, seed {seed}");
            }
        }
    }

    #[test]
    fn mean_distance_positive_and_bounded() {
        let n = fat_tree(4, Gbps::new(100.0)).unwrap();
        let view = CsrNet::build(&n);
        let rows = csr::all_pairs_dist(&view);
        let g = goodness(&n, &view, 1);
        // Mean over ordered pairs of distinct switches.
        let pairs = rows.len() * (rows.len() - 1);
        let m = rows.iter().flatten().map(|&d| f64::from(d)).sum::<f64>() / pairs as f64;
        assert!(m > 1.0 && m <= f64::from(g.diameter));
        assert!(g.mean_server_distance >= 2.0 && g.mean_server_distance <= 4.0);
    }

    #[test]
    fn jellyfish_beats_fat_tree_on_mean_distance_at_equal_gear() {
        // The §4.2 premise: expanders look better on paper. Same switch
        // count (20), same radix budget.
        let ft = fat_tree(4, Gbps::new(100.0)).unwrap();
        let jf = jellyfish(&JellyfishParams {
            tors: 20,
            network_degree: 3,
            servers_per_tor: 1,
            link_speed: Gbps::new(100.0),
            seed: 1,
        })
        .unwrap();
        let gft = goodness(&ft, &CsrNet::build(&ft), 1);
        let gjf = goodness(&jf, &CsrNet::build(&jf), 1);
        assert!(
            gjf.mean_server_distance < gft.mean_server_distance,
            "jellyfish {} vs fat-tree {}",
            gjf.mean_server_distance,
            gft.mean_server_distance
        );
    }
}

/// Throughput retention under random link failures.
///
/// §3.3: physical components "fail relatively often at scale", and designs
/// are judged on how gracefully capacity degrades while repairs are in
/// flight. This metric removes a random `fail_fraction` of links, recomputes
/// the ECMP throughput proxy, and reports retention statistics over
/// `samples` seeded draws. Expander families advertise strong retention —
/// one of the §4.2 "attractive theoretical properties" the deployability
/// metrics get weighed against.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Fraction of links failed per sample.
    pub fail_fraction: f64,
    /// Mean throughput retained (failed scale ÷ healthy scale), over
    /// samples where traffic stayed connected.
    pub mean_retention: f64,
    /// Worst retention observed (0.0 if any sample disconnected traffic).
    pub worst_retention: f64,
    /// Fraction of samples where some demand became unroutable.
    pub disconnect_fraction: f64,
}

/// Computes [`ResilienceReport`] for a network under a uniform server
/// traffic matrix, on a prebuilt [`CsrNet`] of it: one healthy ECMP
/// evaluation for the baseline scale, then [`failure_resilience_from`].
pub fn failure_resilience_on(
    net: &Network,
    view: &CsrNet,
    fail_fraction: f64,
    samples: usize,
    seed: u64,
) -> ResilienceReport {
    debug_assert_eq!(
        view.switch_count(),
        net.switch_count(),
        "the CsrNet must be built from the same network"
    );
    let demands = csr::IndexedDemands::uniform(view, Gbps::new(1.0));
    let healthy = csr::with_scratch(|scratch| csr::ecmp_evaluate(view, &demands, None, scratch));
    failure_resilience_from(
        view,
        healthy.throughput_scale(),
        fail_fraction,
        samples,
        seed,
    )
}

/// [`ResilienceReport`] against `healthy`, the healthy network's uniform
/// throughput scale, which a [`csr::uniform_healthy`] pass gives bit for
/// bit. Each sample masks the failed links on the shared dense view
/// ([`Masks`]); one masked ECMP evaluation yields both the disconnect
/// check (`routable < total demands`) and the degraded throughput scale.
/// The link shuffle is seeded, so per-seed results are stable.
pub fn failure_resilience_from(
    view: &CsrNet,
    healthy: f64,
    fail_fraction: f64,
    samples: usize,
    seed: u64,
) -> ResilienceReport {
    let demands = csr::IndexedDemands::uniform(view, Gbps::new(1.0));
    let fail_count = ((view.link_count() as f64) * fail_fraction).round() as usize;
    let mut rng = SplitMix64::new(seed);
    let mut masks = Masks::healthy(view);

    csr::with_scratch(|scratch| {
        let mut retained_sum = 0.0;
        let mut retained_n = 0usize;
        let mut worst = f64::INFINITY;
        let mut disconnects = 0usize;
        for _ in 0..samples.max(1) {
            let mut ids: Vec<u32> = (0..view.link_count() as u32).collect();
            rng.shuffle(&mut ids);
            masks.link_alive.fill(true);
            for &l in ids.iter().take(fail_count) {
                masks.link_alive[l as usize] = false;
            }
            let outcome = csr::ecmp_evaluate(view, &demands, Some(&masks), scratch);
            if outcome.routable < demands.total {
                disconnects += 1;
                worst = 0.0;
                continue;
            }
            let retention = if healthy > 0.0 && healthy.is_finite() {
                (outcome.throughput_scale() / healthy).min(1.0)
            } else {
                0.0
            };
            retained_sum += retention;
            retained_n += 1;
            worst = worst.min(retention);
        }
        ResilienceReport {
            fail_fraction,
            mean_retention: if retained_n == 0 {
                0.0
            } else {
                retained_sum / retained_n as f64
            },
            worst_retention: if worst.is_finite() { worst } else { 0.0 },
            disconnect_fraction: disconnects as f64 / samples.max(1) as f64,
        }
    })
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::gen::{jellyfish, leaf_spine, JellyfishParams};

    #[test]
    fn zero_failures_retain_everything() {
        let n = leaf_spine(4, 4, 8, 1, Gbps::new(100.0)).unwrap();
        let r = failure_resilience_on(&n, &CsrNet::build(&n), 0.0, 4, 1);
        assert_eq!(r.mean_retention, 1.0);
        assert_eq!(r.disconnect_fraction, 0.0);
    }

    #[test]
    fn more_failures_retain_less() {
        let n = jellyfish(&JellyfishParams {
            tors: 40,
            network_degree: 8,
            servers_per_tor: 4,
            link_speed: Gbps::new(100.0),
            seed: 2,
        })
        .unwrap();
        let light = failure_resilience_on(&n, &CsrNet::build(&n), 0.05, 8, 3);
        let heavy = failure_resilience_on(&n, &CsrNet::build(&n), 0.30, 8, 3);
        assert!(light.mean_retention >= heavy.mean_retention);
        assert!(light.mean_retention > 0.5);
        assert!(light.worst_retention <= light.mean_retention);
    }

    #[test]
    fn expander_retains_more_than_leaf_spine_under_heavy_failures() {
        // The §4.2 "attractive theoretical property" as a measured fact:
        // at equal-ish scale, the expander's rich path diversity degrades
        // more gracefully than the two-tier hierarchy.
        let ls = leaf_spine(16, 4, 8, 1, Gbps::new(100.0)).unwrap();
        let jf = jellyfish(&JellyfishParams {
            tors: 20,
            network_degree: 6,
            servers_per_tor: 7,
            link_speed: Gbps::new(100.0),
            seed: 5,
        })
        .unwrap();
        let r_ls = failure_resilience_on(&ls, &CsrNet::build(&ls), 0.25, 10, 7);
        let r_jf = failure_resilience_on(&jf, &CsrNet::build(&jf), 0.25, 10, 7);
        assert!(
            r_jf.disconnect_fraction <= r_ls.disconnect_fraction
                || r_jf.mean_retention > r_ls.mean_retention,
            "jellyfish {:?} vs leaf-spine {:?}",
            r_jf,
            r_ls
        );
    }

    /// The Goodness stage feeds resilience the healthy pass's scale; on
    /// every family that gives the report `failure_resilience_on` gives.
    #[test]
    fn resilience_from_the_healthy_pass_equals_failure_resilience_on() {
        for (name, n) in crate::csr::tests::equivalence_fixtures() {
            let view = CsrNet::build(&n);
            let pass = csr::with_scratch(|scratch| csr::uniform_healthy(&view, scratch));
            let from = failure_resilience_from(&view, pass.ecmp.throughput_scale(), 0.1, 4, 5);
            let on = failure_resilience_on(&n, &view, 0.1, 4, 5);
            assert_eq!(format!("{from:?}"), format!("{on:?}"), "{name}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let n = leaf_spine(6, 3, 8, 1, Gbps::new(100.0)).unwrap();
        let a = failure_resilience_on(&n, &CsrNet::build(&n), 0.2, 6, 11);
        let b = failure_resilience_on(&n, &CsrNet::build(&n), 0.2, 6, 11);
        assert_eq!(a, b);
    }
}
