//! Capacity-aware shortest-path routing over a segment graph.
//!
//! The cable-tray network of a datacenter hall is a sparse graph: nodes are
//! tray junctions and rack drop points, edges are tray segments with a
//! cross-sectional area budget (the paper's §2.1 "provision enough space in
//! cable trays for several generations"). Routing a cable means finding the
//! shortest path whose every segment still has room for the cable's
//! cross-section.
//!
//! The router is a Dijkstra with per-edge residual capacity over its own
//! adjacency list: the tray graph is small (hundreds of nodes), mutation of
//! residual capacity is the common operation, and a self-contained
//! adjacency list keeps the commit/rollback semantics obvious. One search
//! core serves both [`CapacityRouter::route`], which stops at its
//! destination, and [`CapacityRouter::shortest_path_tree`], which settles
//! every node. Degree-1 nodes (a tray's rack drops) are relaxed but never
//! queued: their only neighbour is the node being settled, so their
//! distance is already final.
//!
//! The search queues nodes in one FIFO per distinct edge length, not in a
//! heap. A tray ladder has three lengths (drop, slot pitch, row pitch).
//! Nodes settle in nondecreasing distance, so each FIFO receives its
//! entries in nondecreasing distance too, and the smallest queued distance
//! is at the head of one FIFO. All nodes at that distance are taken from
//! the heads at once and settled in node-id order, which is the (distance,
//! node id) order a heap keyed on both would pop them in. A zero-length
//! edge reaches a node at the distance being settled; it joins that batch
//! in id order. Each node records, as it is improved, the position of the
//! improving edge in its own adjacency list, so a tree needs no lookup
//! afterwards. The buffers live in a per-thread scratch and are reused
//! search after search.
//!
//! A path can be reused instead of searched again. Suppose `route` returned
//! path `P` for a demand, and since then the set of edges that fit the
//! demand has only shrunk. If `P` still [`fits`](CapacityRouter::fits), a
//! new search returns `P` again, down to which of several equal-length
//! paths it picks. The search settles nodes in (distance, node id) order
//! and keeps the first predecessor that reaches a node's final distance;
//! removing edges only raises distances, so it cannot add a predecessor
//! that settles ahead of the one `P` uses. With no capacity committed every
//! edge that can ever fit a demand fits it, so a path from a
//! [`ShortestPathTree`], which is computed as if nothing were committed,
//! is what `route` returns whenever that path still fits. The cabling plan
//! serves its cables that way (`pd_cabling::plan`).

use crate::point::Point3;
use crate::units::{Meters, SquareMillimeters};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Identifier of a node (tray junction or drop point) in a [`CapacityRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of an undirected edge (tray segment) in a [`CapacityRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// Errors returned by [`CapacityRouter::route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No path exists between the endpoints with enough residual capacity.
    ///
    /// Distinguishing "disconnected" from "full" matters operationally: the
    /// first is a design error, the second is the §2.1 tray-generations
    /// problem showing up.
    NoFeasiblePath {
        /// True if a path exists when capacity is ignored — i.e. the failure
        /// is congestion, not disconnection.
        connected_ignoring_capacity: bool,
    },
    /// An endpoint is not a node of this graph.
    UnknownNode(NodeId),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoFeasiblePath {
                connected_ignoring_capacity: true,
            } => write!(f, "no feasible path: all candidate tray segments are full"),
            RouteError::NoFeasiblePath {
                connected_ignoring_capacity: false,
            } => write!(f, "no path: endpoints are in disconnected tray networks"),
            RouteError::UnknownNode(n) => write!(f, "unknown tray node {}", n.0),
        }
    }
}

impl std::error::Error for RouteError {}

#[derive(Debug, Clone)]
struct Edge {
    a: NodeId,
    b: NodeId,
    length: Meters,
    /// Index of `length` in `CapacityRouter::lengths`: the FIFO the search
    /// queues this edge's far node in.
    class: u32,
    capacity: SquareMillimeters,
    used: SquareMillimeters,
}

/// One entry of a node's adjacency list.
#[derive(Debug, Clone, Copy)]
struct Arc {
    /// The neighbour.
    to: u32,
    /// The edge to it.
    edge: u32,
    /// The position of this edge in the neighbour's adjacency list.
    back: u32,
}

impl Edge {
    fn lacks_room(&self, demand: SquareMillimeters) -> bool {
        self.capacity - self.used < demand
    }
}

/// A routed path: the node sequence, the edges traversed, and total length.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedPath {
    /// Node sequence from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Edge sequence, one per hop.
    pub edges: Vec<EdgeId>,
    /// Sum of edge lengths.
    pub length: Meters,
}

/// An undirected segment graph with per-edge area capacity, supporting
/// shortest-feasible-path queries and capacity commits.
#[derive(Debug, Clone, Default)]
pub struct CapacityRouter {
    positions: Vec<Point3>,
    adjacency: Vec<Vec<Arc>>,
    edges: Vec<Edge>,
    /// The distinct edge lengths, in order of first use.
    lengths: Vec<f64>,
}

impl CapacityRouter {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at `pos`, returning its id.
    pub fn add_node(&mut self, pos: Point3) -> NodeId {
        let id = NodeId(self.positions.len());
        self.positions.push(pos);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected segment between `a` and `b` with an explicit
    /// length and area capacity, returning its id.
    ///
    /// # Panics
    /// Panics if either node id is out of range.
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        length: Meters,
        capacity: SquareMillimeters,
    ) -> EdgeId {
        assert!(a.0 < self.positions.len() && b.0 < self.positions.len());
        let id = EdgeId(self.edges.len());
        let bits = length.value().to_bits();
        let class = match self.lengths.iter().position(|l| l.to_bits() == bits) {
            Some(class) => class,
            None => {
                self.lengths.push(length.value());
                self.lengths.len() - 1
            }
        };
        self.edges.push(Edge {
            a,
            b,
            length,
            class: class as u32,
            capacity,
            used: SquareMillimeters::ZERO,
        });
        let (at_a, at_b) = (self.adjacency[a.0].len(), self.adjacency[b.0].len());
        // A self-loop lands twice in one list; its entries point at each
        // other.
        let at_b = if a == b { at_b + 1 } else { at_b };
        self.adjacency[a.0].push(Arc {
            to: b.0 as u32,
            edge: id.0 as u32,
            back: at_b as u32,
        });
        self.adjacency[b.0].push(Arc {
            to: a.0 as u32,
            edge: id.0 as u32,
            back: at_a as u32,
        });
        id
    }

    /// Adds a segment whose length is the Euclidean distance between the
    /// endpoint positions.
    pub fn add_edge_auto(&mut self, a: NodeId, b: NodeId, capacity: SquareMillimeters) -> EdgeId {
        let len = self.positions[a.0].euclidean(self.positions[b.0]);
        self.add_edge(a, b, len, capacity)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Position of a node.
    pub fn position(&self, n: NodeId) -> Point3 {
        self.positions[n.0]
    }

    /// Length of an edge.
    pub fn edge_length(&self, e: EdgeId) -> Meters {
        self.edges[e.0].length
    }

    /// Residual (unused) capacity of an edge.
    pub fn residual(&self, e: EdgeId) -> SquareMillimeters {
        self.edges[e.0].capacity - self.edges[e.0].used
    }

    /// Installed capacity of an edge.
    pub fn capacity(&self, e: EdgeId) -> SquareMillimeters {
        self.edges[e.0].capacity
    }

    /// Occupied area of an edge.
    pub fn used(&self, e: EdgeId) -> SquareMillimeters {
        self.edges[e.0].used
    }

    /// Fill fraction of an edge in `[0, 1+]`.
    pub fn fill_fraction(&self, e: EdgeId) -> f64 {
        self.edges[e.0].used.ratio(self.edges[e.0].capacity)
    }

    /// Endpoints of an edge.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.edges[e.0].a, self.edges[e.0].b)
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Finds the shortest path from `src` to `dst` using only edges with at
    /// least `demand` residual capacity. Does **not** commit the capacity;
    /// call [`Self::commit`] with the returned path to occupy it.
    pub fn route(
        &self,
        src: NodeId,
        dst: NodeId,
        demand: SquareMillimeters,
    ) -> Result<RoutedPath, RouteError> {
        if src.0 >= self.positions.len() {
            return Err(RouteError::UnknownNode(src));
        }
        if dst.0 >= self.positions.len() {
            return Err(RouteError::UnknownNode(dst));
        }
        let path = self.search(
            src,
            Some(dst),
            |edge| edge.lacks_room(demand),
            |search| search.path(self, dst),
        );
        path.ok_or_else(|| RouteError::NoFeasiblePath {
            connected_ignoring_capacity: self.search(
                src,
                Some(dst),
                |_| false,
                |search| search.dist[dst.0].is_finite(),
            ),
        })
    }

    /// The tree of shortest paths from `src` to every node, using only edges
    /// whose installed capacity holds `demand`: the path [`Self::route`]
    /// returns to each node while nothing is committed, for all nodes at
    /// once. Capacity in use does not change it, so every graph with the
    /// same nodes, edges and capacities has the same tree. Read a path back
    /// with [`Self::tree_path`].
    ///
    /// # Panics
    /// Panics if `src` is not a node of this graph.
    pub fn shortest_path_tree(&self, src: NodeId, demand: SquareMillimeters) -> ShortestPathTree {
        // `lacks_room` with nothing used.
        let via = self.search(
            src,
            None,
            |edge| edge.capacity < demand,
            |search| {
                search
                    .back
                    .iter()
                    .map(|&at| {
                        u8::try_from(at)
                            .ok()
                            .filter(|&at| at != NOT_IN_TREE)
                            .unwrap_or(NOT_IN_TREE)
                    })
                    .collect()
            },
        );
        ShortestPathTree { source: src, via }
    }

    /// The path from `tree`'s source to `dst`, or `None` if the tree does
    /// not reach `dst`. Its length is summed edge by edge from the source,
    /// the order the search adds them in, so it equals [`Self::route`]'s
    /// to the bit. `tree` must come from this graph or one with the same
    /// nodes and edges (capacity use may differ).
    pub fn tree_path(&self, tree: &ShortestPathTree, dst: NodeId) -> Option<RoutedPath> {
        let back = |node: NodeId| {
            let at = tree.via.get(node.0).filter(|&&at| at != NOT_IN_TREE)?;
            let arc = self.adjacency.get(node.0)?.get(usize::from(*at))?;
            Some((NodeId(arc.to as usize), EdgeId(arc.edge as usize)))
        };
        // Count the hops first, so the path's vectors are allocated once at
        // their exact size: plans keep a path's edges for every cable.
        let mut hops = 0;
        let mut cur = dst;
        while cur != tree.source {
            cur = back(cur)?.0;
            hops += 1;
            if hops > self.positions.len() {
                return None;
            }
        }
        let mut nodes = vec![dst; hops + 1];
        let mut edges = vec![EdgeId(0); hops];
        for hop in (0..hops).rev() {
            let (prev, edge) = back(nodes[hop + 1])?;
            nodes[hop] = prev;
            edges[hop] = edge;
        }
        let length = edges
            .iter()
            .fold(0.0, |sum, e| sum + self.edges[e.0].length.value());
        Some(RoutedPath {
            nodes,
            edges,
            length: Meters::new(length),
        })
    }

    /// True if every edge of `path` has room for `demand`: the test
    /// [`Self::route`] applies to each edge it may take.
    pub fn fits(&self, path: &RoutedPath, demand: SquareMillimeters) -> bool {
        !path
            .edges
            .iter()
            .any(|e| self.edges[e.0].lacks_room(demand))
    }

    /// Occupies `demand` of capacity along every edge of `path`.
    ///
    /// # Panics
    /// Panics if any edge id in the path is out of range. Over-commit is
    /// permitted (fill fraction may exceed 1.0) so that audits can *measure*
    /// overfill on models imported from bad data, rather than crash — the
    /// constraint engine reports it as a violation.
    pub fn commit(&mut self, path: &RoutedPath, demand: SquareMillimeters) {
        for e in &path.edges {
            self.edges[e.0].used += demand;
        }
    }

    /// Releases `demand` of capacity along every edge of `path` (decom).
    pub fn release(&mut self, path: &RoutedPath, demand: SquareMillimeters) {
        for e in &path.edges {
            let ed = &mut self.edges[e.0];
            ed.used = (ed.used - demand).max(SquareMillimeters::ZERO);
        }
    }

    /// Convenience: route and, on success, immediately commit.
    pub fn route_and_commit(
        &mut self,
        src: NodeId,
        dst: NodeId,
        demand: SquareMillimeters,
    ) -> Result<RoutedPath, RouteError> {
        let path = self.route(src, dst, demand)?;
        self.commit(&path, demand);
        Ok(path)
    }

    /// The search core: Dijkstra from `src` over the edges `skip` is false
    /// for, stopping once `dst`'s distance is final if a `dst` is given;
    /// `read` takes what it needs from the finished search.
    fn search<R>(
        &self,
        src: NodeId,
        dst: Option<NodeId>,
        skip: impl Fn(&Edge) -> bool,
        read: impl FnOnce(&Search) -> R,
    ) -> R {
        thread_local! {
            static SEARCH: RefCell<Search> = RefCell::default();
        }
        SEARCH.with(|cell| {
            let search = &mut *cell.borrow_mut();
            search.run(self, src, dst, skip);
            read(search)
        })
    }
}

/// `Search::back` of a node no edge has reached yet (and of the source).
const UNREACHED: u32 = u32::MAX;

/// One search's buffers, reused by every search on a thread.
#[derive(Default)]
struct Search {
    /// Each node's distance from the source.
    dist: Vec<f64>,
    /// Each node's position, in its own adjacency list, of the edge it was
    /// last improved over.
    back: Vec<u32>,
    /// Per edge-length class, the `(distance, node)` entries queued over an
    /// edge of that length, in push order.
    queues: Vec<VecDeque<(f64, u32)>>,
    /// The nodes at the distance being settled, highest id first.
    batch: Vec<u32>,
}

impl Search {
    fn run(
        &mut self,
        g: &CapacityRouter,
        src: NodeId,
        dst: Option<NodeId>,
        skip: impl Fn(&Edge) -> bool,
    ) {
        let n = g.positions.len();
        let dst = dst.map_or(u32::MAX, |d| d.0 as u32);
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.back.clear();
        self.back.resize(n, UNREACHED);
        if self.queues.len() < g.lengths.len() {
            self.queues.resize_with(g.lengths.len(), VecDeque::new);
        }
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.batch.clear();

        let Search {
            dist,
            back,
            queues,
            batch,
        } = self;
        dist[src.0] = 0.0;
        batch.push(src.0 as u32);
        let mut d = 0.0;
        'search: loop {
            while let Some(node) = batch.pop() {
                if dist[node as usize] < d {
                    continue; // improved since it was queued
                }
                if node == dst {
                    break 'search;
                }
                for arc in &g.adjacency[node as usize] {
                    let edge = &g.edges[arc.edge as usize];
                    if skip(edge) {
                        continue;
                    }
                    let nd = d + edge.length.value();
                    let next = arc.to as usize;
                    if nd < dist[next] {
                        dist[next] = nd;
                        back[next] = arc.back;
                        if g.adjacency[next].len() > 1 {
                            if nd == d {
                                // A zero-length edge: `next` settles in
                                // this batch, in id order.
                                let at = batch.partition_point(|&b| b > arc.to);
                                batch.insert(at, arc.to);
                            } else {
                                queues[edge.class as usize].push_back((nd, arc.to));
                            }
                        } else if arc.to == dst {
                            // A leaf's only neighbour is `node`: settled.
                            break 'search;
                        }
                    }
                }
            }
            // The next distance is the smallest live head.
            d = f64::INFINITY;
            for queue in queues.iter_mut() {
                while let Some(&(qd, node)) = queue.front() {
                    if qd > dist[node as usize] {
                        queue.pop_front(); // stale
                    } else {
                        d = d.min(qd);
                        break;
                    }
                }
            }
            if d == f64::INFINITY {
                break;
            }
            for queue in queues.iter_mut() {
                while let Some(&(_, node)) = queue.front().filter(|&&(qd, _)| qd == d) {
                    batch.push(node);
                    queue.pop_front();
                }
            }
            batch.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// The path the finished search found to `dst`, if it reached it.
    fn path(&self, g: &CapacityRouter, dst: NodeId) -> Option<RoutedPath> {
        let length = self.dist[dst.0];
        if !length.is_finite() {
            return None;
        }
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst.0;
        while self.back[cur] != UNREACHED {
            let arc = g.adjacency[cur][self.back[cur] as usize];
            cur = arc.to as usize;
            nodes.push(NodeId(cur));
            edges.push(EdgeId(arc.edge as usize));
        }
        nodes.reverse();
        edges.reverse();
        Some(RoutedPath {
            nodes,
            edges,
            length: Meters::new(length),
        })
    }
}

/// [`ShortestPathTree`] entry of the source and of every node the tree
/// does not reach.
const NOT_IN_TREE: u8 = u8::MAX;

/// Shortest paths from one source to every node, as
/// [`CapacityRouter::shortest_path_tree`] found them. One byte per node:
/// the position, in that node's adjacency list, of the edge back towards
/// the source. No distances are kept; [`CapacityRouter::tree_path`]
/// re-sums a path's length. A node whose edge back sits past position 254
/// is left out, so a path through it is looked up as missing and the
/// caller searches instead.
#[derive(Debug, PartialEq, Eq)]
pub struct ShortestPathTree {
    source: NodeId,
    via: Vec<u8>,
}

impl ShortestPathTree {
    /// The node every path in the tree starts from.
    pub fn source(&self) -> NodeId {
        self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Square graph:  n0 --1m-- n1
    ///                 |          |
    ///                3m         1m
    ///                 |          |
    ///                n3 --1m-- n2
    fn square() -> (CapacityRouter, [NodeId; 4], [EdgeId; 4]) {
        let mut g = CapacityRouter::new();
        let n0 = g.add_node(Point3::new(0.0, 0.0, 0.0));
        let n1 = g.add_node(Point3::new(1.0, 0.0, 0.0));
        let n2 = g.add_node(Point3::new(1.0, 1.0, 0.0));
        let n3 = g.add_node(Point3::new(0.0, 1.0, 0.0));
        let cap = SquareMillimeters::new(100.0);
        let e0 = g.add_edge(n0, n1, Meters::new(1.0), cap);
        let e1 = g.add_edge(n1, n2, Meters::new(1.0), cap);
        let e2 = g.add_edge(n2, n3, Meters::new(1.0), cap);
        let e3 = g.add_edge(n3, n0, Meters::new(3.0), cap);
        (g, [n0, n1, n2, n3], [e0, e1, e2, e3])
    }

    #[test]
    fn shortest_path_taken() {
        let (g, n, _) = square();
        let p = g.route(n[0], n[3], SquareMillimeters::new(10.0)).unwrap();
        // Around via n1,n2 is 3 m; direct edge is also 3 m; Dijkstra should
        // find 3 m either way.
        assert_eq!(p.length, Meters::new(3.0));
        assert_eq!(p.nodes.first(), Some(&n[0]));
        assert_eq!(p.nodes.last(), Some(&n[3]));
    }

    #[test]
    fn capacity_forces_detour() {
        let (mut g, n, e) = square();
        // Fill the two short edges n0-n1, n1-n2 almost completely.
        g.edges[e[0].0].used = SquareMillimeters::new(95.0);
        g.edges[e[1].0].used = SquareMillimeters::new(95.0);
        let p = g.route(n[0], n[2], SquareMillimeters::new(10.0)).unwrap();
        // Must now go the long way: n0-n3 (3 m) + n3-n2 (1 m) = 4 m.
        assert_eq!(p.length, Meters::new(4.0));
        assert_eq!(p.edges, vec![e[3], e[2]]);
    }

    #[test]
    fn full_graph_reports_congestion_not_disconnection() {
        let (mut g, n, e) = square();
        for eid in e {
            g.edges[eid.0].used = SquareMillimeters::new(100.0);
        }
        let err = g
            .route(n[0], n[2], SquareMillimeters::new(1.0))
            .unwrap_err();
        assert_eq!(
            err,
            RouteError::NoFeasiblePath {
                connected_ignoring_capacity: true
            }
        );
    }

    #[test]
    fn disconnected_graph_reported_as_such() {
        let mut g = CapacityRouter::new();
        let a = g.add_node(Point3::ORIGIN);
        let b = g.add_node(Point3::new(1.0, 0.0, 0.0));
        let err = g.route(a, b, SquareMillimeters::new(1.0)).unwrap_err();
        assert_eq!(
            err,
            RouteError::NoFeasiblePath {
                connected_ignoring_capacity: false
            }
        );
    }

    #[test]
    fn commit_and_release_round_trip() {
        let (mut g, n, _) = square();
        let d = SquareMillimeters::new(60.0);
        let p = g.route_and_commit(n[0], n[2], d).unwrap();
        // The same demand no longer fits on that path...
        let p2 = g.route(n[0], n[2], d).unwrap();
        assert_ne!(p2.edges, p.edges, "second route must avoid committed path");
        // ...until released.
        g.release(&p, d);
        let p3 = g.route(n[0], n[2], d).unwrap();
        assert_eq!(p3.length, p.length);
    }

    #[test]
    fn unknown_node_errors() {
        let (g, _, _) = square();
        let err = g
            .route(NodeId(99), NodeId(0), SquareMillimeters::ZERO)
            .unwrap_err();
        assert_eq!(err, RouteError::UnknownNode(NodeId(99)));
    }

    #[test]
    fn auto_edge_uses_euclidean_length() {
        let mut g = CapacityRouter::new();
        let a = g.add_node(Point3::new(0.0, 0.0, 0.0));
        let b = g.add_node(Point3::new(3.0, 4.0, 0.0));
        let e = g.add_edge_auto(a, b, SquareMillimeters::new(1.0));
        assert_eq!(g.edge_length(e), Meters::new(5.0));
    }

    #[test]
    fn tree_paths_are_the_routes_of_the_empty_graph() {
        let (mut g, n, e) = square();
        // A pendant drop on n2, which the search relaxes but never queues.
        let leaf = g.add_node(Point3::new(1.0, 1.0, 1.0));
        g.add_edge(n[2], leaf, Meters::new(0.5), SquareMillimeters::new(100.0));
        let d = SquareMillimeters::new(10.0);
        let trees = [n[0], n[3], leaf].map(|src| g.shortest_path_tree(src, d));
        for tree in &trees {
            for dst in n.into_iter().chain([leaf]) {
                assert_eq!(g.tree_path(tree, dst), g.route(tree.source(), dst, d).ok());
            }
        }
        // Capacity in use does not change a tree.
        g.edges[e[1].0].used = SquareMillimeters::new(95.0);
        for tree in &trees {
            assert_eq!(&g.shortest_path_tree(tree.source(), d), tree);
        }
    }

    #[test]
    fn tree_leaves_out_what_it_cannot_reach() {
        let (mut g, n, _) = square();
        let island = g.add_node(Point3::new(5.0, 5.0, 0.0));
        let tree = g.shortest_path_tree(n[0], SquareMillimeters::new(1.0));
        assert_eq!(g.tree_path(&tree, island), None);
        assert_eq!(g.tree_path(&tree, NodeId(99)), None);
        let wide = g.shortest_path_tree(n[0], SquareMillimeters::new(101.0));
        assert_eq!(g.tree_path(&wide, n[1]), None);
        assert_eq!(g.tree_path(&wide, n[0]).unwrap().edges, vec![]);
    }

    #[test]
    fn fill_fraction_tracks_commit() {
        let (mut g, n, _) = square();
        let p = g.route(n[0], n[1], SquareMillimeters::new(25.0)).unwrap();
        g.commit(&p, SquareMillimeters::new(25.0));
        assert_eq!(g.fill_fraction(p.edges[0]), 0.25);
        assert_eq!(g.residual(p.edges[0]), SquareMillimeters::new(75.0));
    }
}
