//! Property tests for the geometry substrate.
//!
//! Case `i` of every property draws its parameters from
//! `SplitMix64::new(i)`, so a failure message's seed replays that case.

use pd_geometry::route::{EdgeId, RouteError, RoutedPath};
use pd_geometry::{
    CapacityRouter, Meters, Millimeters, Point2, Point3, Polyline, RouteNodeId, SquareMillimeters,
};
use pd_topology::gen::SplitMix64;
use std::collections::BinaryHeap;

const CASES: u64 = 256;

/// Uniform draw from `[lo, hi]`.
fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.next_u64() as f64 / u64::MAX as f64)
}

fn point2(rng: &mut SplitMix64) -> Point2 {
    let x = uniform(rng, -1000.0, 1000.0);
    Point2::new(x, uniform(rng, -1000.0, 1000.0))
}

fn point3(rng: &mut SplitMix64) -> Point3 {
    let x = uniform(rng, -1000.0, 1000.0);
    let y = uniform(rng, -1000.0, 1000.0);
    Point3::new(x, y, uniform(rng, 0.0, 10.0))
}

/// Between `lo` and `hi - 1` random points.
fn points3(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<Point3> {
    let len = lo + rng.below(hi - lo);
    (0..len).map(|_| point3(rng)).collect()
}

/// Triangle inequality for the Euclidean metric.
#[test]
fn euclidean_triangle_inequality() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (a, b, c) = (point2(&mut rng), point2(&mut rng), point2(&mut rng));
        let lhs = a.euclidean(c).value();
        let rhs = a.euclidean(b).value() + b.euclidean(c).value();
        assert!(lhs <= rhs + 1e-9, "case seed {case}");
    }
}

/// Manhattan distance always dominates Euclidean distance.
#[test]
fn manhattan_dominates_euclidean() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (a, b) = (point3(&mut rng), point3(&mut rng));
        assert!(
            a.manhattan(b).value() + 1e-9 >= a.euclidean(b).value(),
            "case seed {case}"
        );
    }
}

/// Unit arithmetic: (a + b) - b == a up to float error.
#[test]
fn unit_add_sub_inverse() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = uniform(&mut rng, -1e6, 1e6);
        let b = uniform(&mut rng, -1e6, 1e6);
        let r = (Meters::new(a) + Meters::new(b)) - Meters::new(b);
        assert!(
            (r.value() - a).abs() <= 1e-6 * (1.0 + a.abs() + b.abs()),
            "case seed {case}"
        );
    }
}

/// Polyline length is invariant under vertex-order reversal.
#[test]
fn polyline_length_reversal_invariant() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let pts = points3(&mut rng, 1, 12);
        let fwd = Polyline::new(pts.clone()).length();
        let mut rev = pts;
        rev.reverse();
        let bwd = Polyline::new(rev).length();
        assert!((fwd - bwd).abs() <= Meters::new(1e-9), "case seed {case}");
    }
}

/// Polyline length is at least the straight-line distance between its
/// endpoints (path inequality).
#[test]
fn polyline_length_at_least_chord() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let p = Polyline::new(points3(&mut rng, 2, 12));
        assert!(
            p.length().value() + 1e-9 >= p.start().euclidean(p.end()).value(),
            "case seed {case}"
        );
    }
}

/// Inserting a collinear midpoint never changes length or adds a bend.
#[test]
fn collinear_subdivision_is_invisible() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (a, b) = (point3(&mut rng), point3(&mut rng));
        let t = uniform(&mut rng, 0.01, 0.99);
        let mid = Point3::new(
            a.x.value() + (b.x.value() - a.x.value()) * t,
            a.y.value() + (b.y.value() - a.y.value()) * t,
            a.z.value() + (b.z.value() - a.z.value()) * t,
        );
        let direct = Polyline::new(vec![a, b]);
        let split = Polyline::new(vec![a, mid, b]);
        assert!(
            (direct.length() - split.length()).abs() <= Meters::new(1e-6),
            "case seed {case}"
        );
        // Bend threshold comfortably above numeric noise.
        assert!(split.bends(1e-3).is_empty(), "case seed {case}");
    }
}

/// A bigger minimum bend radius never yields fewer violations.
#[test]
fn bend_violations_monotone_in_radius() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let p = Polyline::new(points3(&mut rng, 3, 10));
        let r = uniform(&mut rng, 1.0, 500.0);
        let small = p.check_bend_radius(Millimeters::new(r)).len();
        let large = p.check_bend_radius(Millimeters::new(r * 2.0)).len();
        assert!(large >= small, "case seed {case}");
    }
}

/// Builds a random grid-ish routing graph and checks router invariants.
fn grid_router(n: usize) -> (CapacityRouter, Vec<pd_geometry::RouteNodeId>) {
    let mut g = CapacityRouter::new();
    let mut ids = Vec::new();
    for i in 0..n {
        for j in 0..n {
            ids.push(g.add_node(Point3::new(i as f64, j as f64, 0.0)));
        }
    }
    let cap = SquareMillimeters::new(1000.0);
    for i in 0..n {
        for j in 0..n {
            let at = |a: usize, b: usize| ids[a * n + b];
            if i + 1 < n {
                g.add_edge_auto(at(i, j), at(i + 1, j), cap);
            }
            if j + 1 < n {
                g.add_edge_auto(at(i, j), at(i, j + 1), cap);
            }
        }
    }
    (g, ids)
}

/// Routed path length on a unit grid equals Manhattan distance (Dijkstra
/// optimality oracle), and the path is well-formed.
#[test]
fn grid_route_is_optimal() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = 2 + rng.below(6 - 2);
        let (si, di) = (rng.below(25), rng.below(25));
        let (g, ids) = grid_router(n);
        let s = ids[si % ids.len()];
        let d = ids[di % ids.len()];
        let p = g.route(s, d, SquareMillimeters::new(1.0)).unwrap();
        let expect = g.position(s).manhattan(g.position(d));
        assert!(
            (p.length - expect).abs() <= Meters::new(1e-9),
            "case seed {case}"
        );
        assert_eq!(p.nodes.first().copied(), Some(s), "case seed {case}");
        assert_eq!(p.nodes.last().copied(), Some(d), "case seed {case}");
        assert_eq!(p.edges.len() + 1, p.nodes.len(), "case seed {case}");
    }
}

/// Commit then release restores every edge's residual capacity exactly.
#[test]
fn commit_release_restores_residuals() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = 2 + rng.below(5 - 2);
        let (si, di) = (rng.below(16), rng.below(16));
        let demand = uniform(&mut rng, 1.0, 500.0);
        let (mut g, ids) = grid_router(n);
        let s = ids[si % ids.len()];
        let d = ids[di % ids.len()];
        let before: Vec<_> = g.edge_ids().map(|e| g.residual(e)).collect();
        if let Ok(p) = g.route(s, d, SquareMillimeters::new(demand)) {
            g.commit(&p, SquareMillimeters::new(demand));
            g.release(&p, SquareMillimeters::new(demand));
        }
        let after: Vec<_> = g.edge_ids().map(|e| g.residual(e)).collect();
        assert_eq!(before, after, "case seed {case}");
    }
}

/// A path that still fits after more capacity is committed is the path a
/// new search returns, tie-breaks between equal-length grid paths
/// included: commits only take edges away from the search.
#[test]
fn route_is_unchanged_while_its_path_fits() {
    let mut checked = 0;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = 3 + rng.below(4);
        let (mut g, ids) = grid_router(n);
        let s = ids[rng.below(ids.len())];
        let d = ids[rng.below(ids.len())];
        let demand = SquareMillimeters::new(uniform(&mut rng, 1.0, 200.0));
        let first = g.route(s, d, demand).unwrap();
        for _ in 0..12 {
            let edge = RoutedPath {
                nodes: Vec::new(),
                edges: vec![EdgeId(rng.below(g.edge_count()))],
                length: Meters::ZERO,
            };
            g.commit(
                &edge,
                SquareMillimeters::new(uniform(&mut rng, 100.0, 900.0)),
            );
            if g.fits(&first, demand) {
                assert_eq!(
                    g.route(s, d, demand).as_ref(),
                    Ok(&first),
                    "case seed {case}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > CASES as usize, "too few cases kept their path");
}

/// A tray-shaped graph, laid out the way `pd_physical::TrayNetwork` lays
/// out a hall: per slot a drop node and the tray node above it, joined by
/// a drop edge; tray edges along each row; and cross trays between
/// adjacent rows every few columns, always including column 0. Pitches,
/// cross-tray spacing and capacities are drawn from `rng`.
fn tray_router(rng: &mut SplitMix64) -> CapacityRouter {
    let (rows, cols) = (2 + rng.below(4), 2 + rng.below(7));
    let every = 1 + rng.below(cols);
    let (pitch, row_pitch) = (uniform(rng, 0.3, 1.2), uniform(rng, 1.0, 3.0));
    let mut g = CapacityRouter::new();
    let mut cap = || SquareMillimeters::new(uniform(rng, 60.0, 140.0));
    let mut trays = Vec::new();
    for row in 0..rows {
        for col in 0..cols {
            let (x, y) = (col as f64 * pitch, row as f64 * row_pitch);
            let drop = g.add_node(Point3::new(x, y, 2.0));
            let tray = g.add_node(Point3::new(x, y, 2.7));
            g.add_edge(drop, tray, Meters::new(0.7), cap());
            trays.push(tray);
        }
    }
    for row in 0..rows {
        for col in 1..cols {
            let (a, b) = (trays[row * cols + col - 1], trays[row * cols + col]);
            g.add_edge(a, b, Meters::new(pitch), cap());
        }
    }
    for row in 1..rows {
        for col in (0..cols).step_by(every) {
            let (a, b) = (trays[(row - 1) * cols + col], trays[row * cols + col]);
            g.add_edge(a, b, Meters::new(row_pitch), cap());
        }
    }
    g
}

/// The router's search as it was before degree-1 nodes were skipped: every
/// improved node is queued, and the search stops when it pops `dst`. Its
/// adjacency lists are rebuilt in edge-id order, the order `add_edge`
/// appends to them.
fn reference_route(
    g: &CapacityRouter,
    src: RouteNodeId,
    dst: RouteNodeId,
    demand: SquareMillimeters,
) -> Result<RoutedPath, RouteError> {
    #[derive(PartialEq)]
    struct State {
        dist: f64,
        node: RouteNodeId,
    }
    impl Eq for State {}
    impl Ord for State {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .dist
                .total_cmp(&self.dist)
                .then_with(|| other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for State {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = g.node_count();
    let mut adjacency = vec![Vec::new(); n];
    for e in g.edge_ids() {
        let (a, b) = g.edge_endpoints(e);
        adjacency[a.0].push((b, e));
        adjacency[b.0].push((a, e));
    }
    let search = |demand: Option<SquareMillimeters>| {
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(RouteNodeId, EdgeId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.0] = 0.0;
        heap.push(State {
            dist: 0.0,
            node: src,
        });
        while let Some(State { dist: d, node }) = heap.pop() {
            if d > dist[node.0] {
                continue;
            }
            if node == dst {
                break;
            }
            for &(next, eid) in &adjacency[node.0] {
                if demand.is_some_and(|need| g.residual(eid) < need) {
                    continue;
                }
                let nd = d + g.edge_length(eid).value();
                if nd < dist[next.0] {
                    dist[next.0] = nd;
                    prev[next.0] = Some((node, eid));
                    heap.push(State {
                        dist: nd,
                        node: next,
                    });
                }
            }
        }
        (dist, prev)
    };
    let (dist, prev) = search(Some(demand));
    if !dist[dst.0].is_finite() {
        return Err(RouteError::NoFeasiblePath {
            connected_ignoring_capacity: search(None).0[dst.0].is_finite(),
        });
    }
    let mut nodes = vec![dst];
    let mut edges = Vec::new();
    let mut cur = dst;
    while let Some((p, e)) = prev[cur.0] {
        nodes.push(p);
        edges.push(e);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    Ok(RoutedPath {
        nodes,
        edges,
        length: Meters::new(dist[dst.0]),
    })
}

/// On tray-shaped graphs under random commits and releases, some larger
/// and some smaller than the demand: `route` is the reference search, its
/// length equal to the bit, and a path from a shortest-path tree computed
/// before any capacity was used is `route`'s path whenever it still fits.
/// The cabling plan serves its cables from such trees on this rule.
#[test]
fn tree_paths_that_fit_are_the_routes_of_a_fresh_search() {
    let (mut from_tree, mut searched) = (0, 0);
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let mut g = tray_router(&mut rng);
        let demand = SquareMillimeters::new(uniform(&mut rng, 5.0, 30.0));
        let nodes = g.node_count();
        let trees: Vec<_> = (0..3)
            .map(|_| g.shortest_path_tree(RouteNodeId(rng.below(nodes)), demand))
            .collect();
        let mut committed: Vec<(RoutedPath, SquareMillimeters)> = Vec::new();
        for _ in 0..16 {
            let area = SquareMillimeters::new(demand.value() * uniform(&mut rng, 0.2, 2.5));
            if committed.is_empty() || rng.below(3) > 0 {
                let (a, b) = (RouteNodeId(rng.below(nodes)), RouteNodeId(rng.below(nodes)));
                if let Ok(path) = g.route(a, b, SquareMillimeters::ZERO) {
                    g.commit(&path, area);
                    committed.push((path, area));
                }
            } else {
                let (path, held) = committed.swap_remove(rng.below(committed.len()));
                g.release(&path, held.min(area));
            }
            for tree in &trees {
                let dst = RouteNodeId(rng.below(nodes));
                let routed = g.route(tree.source(), dst, demand);
                let reference = reference_route(&g, tree.source(), dst, demand);
                assert_eq!(routed, reference, "case seed {case}");
                if let (Ok(a), Ok(b)) = (&routed, &reference) {
                    assert_eq!(
                        a.length.value().to_bits(),
                        b.length.value().to_bits(),
                        "case seed {case}"
                    );
                }
                match g.tree_path(tree, dst) {
                    Some(path) if g.fits(&path, demand) => {
                        assert_eq!(Ok(path), routed, "case seed {case}");
                        from_tree += 1;
                    }
                    _ => searched += 1,
                }
            }
        }
    }
    assert!(
        from_tree > 1000 && searched > 1000,
        "{from_tree} tree paths, {searched} searches"
    );
}

/// On sparse random graphs whose edges take a few lengths, zero among
/// them, with parallel edges, self-loops and capacities some demands do
/// not fit: `route` is the reference heap search, to the bit, and with
/// nothing committed so are the paths of a shortest-path tree. Zero-length
/// edges reach nodes at the distance being settled, and many nodes tie.
#[test]
fn route_matches_a_heap_search_with_few_and_zero_lengths() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let lengths = [0.0, 0.5, 1.0, 1.5, uniform(&mut rng, 0.1, 2.0)];
        let classes = 1 + rng.below(lengths.len());
        let mut g = CapacityRouter::new();
        let nodes = 2 + rng.below(40);
        for _ in 0..nodes {
            g.add_node(Point3::ORIGIN);
        }
        for _ in 0..nodes + rng.below(3 * nodes) {
            let (a, b) = (RouteNodeId(rng.below(nodes)), RouteNodeId(rng.below(nodes)));
            let length = Meters::new(lengths[rng.below(classes)]);
            g.add_edge(
                a,
                b,
                length,
                SquareMillimeters::new(uniform(&mut rng, 1.0, 10.0)),
            );
        }
        let demand = SquareMillimeters::new(uniform(&mut rng, 0.0, 5.0));
        for _ in 0..8 {
            let src = RouteNodeId(rng.below(nodes));
            let tree = g.shortest_path_tree(src, demand);
            for dst in (0..nodes).map(RouteNodeId) {
                let routed = g.route(src, dst, demand);
                let reference = reference_route(&g, src, dst, demand);
                assert_eq!(routed, reference, "case seed {case}");
                if let Ok(path) = &routed {
                    assert_eq!(
                        path.length.value().to_bits(),
                        reference.as_ref().unwrap().length.value().to_bits(),
                        "case seed {case}"
                    );
                }
                assert_eq!(g.tree_path(&tree, dst), routed.ok(), "case seed {case}");
            }
        }
    }
}
