//! Dense compressed-sparse-row graph kernels — the one graph engine behind
//! goodness, resilience, drain, dry-run and fault evaluation.
//!
//! The paper (§1) obliges every evaluation to compute "traditional metrics
//! of network goodness" next to the deployability metrics, and the ROADMAP
//! north star ("as fast as the hardware allows") puts those kernels —
//! all-pairs BFS, exact ECMP splitting, unit-capacity max-flow, sampled
//! cut capacity, per-scenario degraded re-evaluation — on the critical
//! path of every spec. This module gives them a dense substrate:
//!
//! * [`CsrNet`]: a compressed-sparse-row view of a [`Network`], built once
//!   — contiguous `u32` switch/link indices, adjacency as `offsets` +
//!   `(neighbor, link)` target arrays, a per-link capacity array, and
//!   stable id ⇄ index maps. Kernels walk arrays instead of probing
//!   `HashMap<SwitchId, …>`.
//! * [`Scratch`]: every reusable buffer the kernels need (frontier ring,
//!   flow accumulators, the ECMP kernel's alive-only adjacency,
//!   64-destination sweep words and bitmaps, residual capacities,
//!   component marks). [`with_scratch`] checks buffers out of a
//!   thread-local pool so batch workers stop reallocating BFS state on
//!   every call.
//! * [`Masks`]: alive/dead bits per switch and link, so degraded states
//!   are evaluated by masking the shared healthy [`CsrNet`] instead of
//!   cloning the `Network` and removing elements. [`ecmp_evaluate`]
//!   applies the masks once per call, compacting the alive adjacency, so
//!   its BFS checks no masks.
//! * ECMP from one bit-parallel BFS per 64 destinations: each switch holds
//!   one `u64` of "reached by destination `j`" bits, and each level ORs
//!   the neighbours' frontier words over the adjacency, so one pass per
//!   level advances all 64 searches. The level words give, per switch, the
//!   destinations that reach it and, per adjacency entry, the destinations
//!   it goes downhill for. A 64×64 bit transpose turns both kinds of
//!   word into per-destination bitmaps, once per sweep: the switches at
//!   each distance (the split's visiting order) and the downhill entries
//!   (its shortest-path DAG), so the split reads a switch's downhill links
//!   from one or two words instead of scanning its adjacency.
//! * Goodness's healthy routing in one pass ([`uniform_healthy`]): the
//!   ECMP loop over the uniform host matrix also reads each destination's
//!   level bitmaps for the host distances and the diameter, and the other
//!   switches are swept 64 at a time for the diameter. No all-pairs rows,
//!   no demand list.
//!
//! Every kernel runs on its caller's thread. Parallelism belongs to the
//! batch engine, which spreads whole designs over its worker pool.
//!
//! ## Determinism contract
//!
//! Every kernel here is index-deterministic: iteration follows switch /
//! link index order (and adjacency order, which mirrors
//! [`Network::incident_links`]), never hash-map iteration order. All
//! floating-point accumulation happens in that fixed order, so results are
//! byte-stable across processes. The `kernel.csr.*` metrics are
//! Diagnostic-class (see `docs/OBSERVABILITY.md`): cache adoption can skip
//! kernel execution entirely, so run counts are scheduling-dependent by
//! design.

use crate::network::{LinkId, Network, SwitchId};
use pd_geometry::Gbps;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Distance value for unreachable switches in every BFS row.
pub const UNREACHABLE: u16 = u16::MAX;

// ---------------------------------------------------------------------------
// Diagnostic metrics
// ---------------------------------------------------------------------------

struct KernelMetrics {
    builds: Arc<pd_metrics::Counter>,
    bfs_runs: Arc<pd_metrics::Counter>,
    ecmp_runs: Arc<pd_metrics::Counter>,
    maxflow_runs: Arc<pd_metrics::Counter>,
    scratch_reuse: Arc<pd_metrics::Counter>,
}

/// Registry handles, resolved once. All Diagnostic-class: warm
/// artifact-cache runs adopt finished stages and skip kernel execution, so
/// these counts are scheduling-dependent (see `docs/OBSERVABILITY.md`).
fn kernel_metrics() -> &'static KernelMetrics {
    static CELLS: OnceLock<KernelMetrics> = OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = pd_metrics::global();
        KernelMetrics {
            builds: reg.diagnostic_counter("kernel.csr.builds"),
            bfs_runs: reg.diagnostic_counter("kernel.csr.bfs_runs"),
            ecmp_runs: reg.diagnostic_counter("kernel.csr.ecmp_runs"),
            maxflow_runs: reg.diagnostic_counter("kernel.csr.maxflow_runs"),
            scratch_reuse: reg.diagnostic_counter("kernel.csr.scratch_reuse"),
        }
    })
}

// ---------------------------------------------------------------------------
// CsrNet
// ---------------------------------------------------------------------------

/// A compressed-sparse-row view of a [`Network`], built once and shared by
/// every kernel that evaluates the same design (healthy or masked).
///
/// Switch index `i` is the position of the switch in
/// [`Network::switches`] insertion order; link index `l` is the position
/// in [`Network::links`] order. The adjacency of switch `i` lives at
/// `targets[offsets[i] .. offsets[i + 1]]` as `(neighbor_index,
/// link_index)` pairs, in the same order as
/// [`Network::incident_links`], so traversal order is fixed by the
/// `Network`.
#[derive(Debug, Clone)]
pub struct CsrNet {
    switch_ids: Vec<SwitchId>,
    switch_index: HashMap<SwitchId, u32>,
    link_ids: Vec<LinkId>,
    link_index: HashMap<LinkId, u32>,
    /// Endpoint indices `(a, b)` per link, mirroring [`crate::network::Link`].
    ends: Vec<(u32, u32)>,
    /// Total capacity per link (speed × trunking), in Gbps.
    capacity: Vec<f64>,
    /// Server-facing ports per switch.
    server_ports: Vec<u16>,
    /// Port speed per switch, in Gbps.
    port_speed: Vec<f64>,
    /// CSR offsets: adjacency of switch `i` spans
    /// `offsets[i] .. offsets[i+1]` in `targets`.
    offsets: Vec<u32>,
    /// `(neighbor switch index, link index)` pairs.
    targets: Vec<(u32, u32)>,
}

impl CsrNet {
    /// Builds the CSR view of `net`. `O(V + E)`; records one
    /// `kernel.csr.builds` tick.
    pub fn build(net: &Network) -> Self {
        let switch_ids: Vec<SwitchId> = net.switches().map(|s| s.id).collect();
        let switch_index: HashMap<SwitchId, u32> = switch_ids
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let link_ids: Vec<LinkId> = net.links().map(|l| l.id).collect();
        let link_index: HashMap<LinkId, u32> = link_ids
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as u32))
            .collect();
        let ends: Vec<(u32, u32)> = net
            .links()
            .map(|l| (switch_index[&l.a], switch_index[&l.b]))
            .collect();
        let capacity: Vec<f64> = net.links().map(|l| l.capacity().value()).collect();
        let server_ports: Vec<u16> = net.switches().map(|s| s.server_ports).collect();
        let port_speed: Vec<f64> = net.switches().map(|s| s.port_speed.value()).collect();

        let n = switch_ids.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * link_ids.len());
        offsets.push(0u32);
        for &sid in &switch_ids {
            for &lid in net.incident_links(sid) {
                let (Some(&li), Some(link)) = (link_index.get(&lid), net.link(lid)) else {
                    continue;
                };
                let Some(other) = link.try_other(sid) else {
                    continue;
                };
                targets.push((switch_index[&other], li));
            }
            offsets.push(targets.len() as u32);
        }

        kernel_metrics().builds.incr();
        Self {
            switch_ids,
            switch_index,
            link_ids,
            link_index,
            ends,
            capacity,
            server_ports,
            port_speed,
            offsets,
            targets,
        }
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switch_ids.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.link_ids.len()
    }

    /// Switch ids in index order.
    pub fn switch_ids(&self) -> &[SwitchId] {
        &self.switch_ids
    }

    /// Link ids in index order.
    pub fn link_ids(&self) -> &[LinkId] {
        &self.link_ids
    }

    /// Dense index of a switch id.
    pub fn switch_idx(&self, id: SwitchId) -> Option<u32> {
        self.switch_index.get(&id).copied()
    }

    /// Dense index of a link id.
    pub fn link_idx(&self, id: LinkId) -> Option<u32> {
        self.link_index.get(&id).copied()
    }

    /// Endpoint indices `(a, b)` of a link.
    pub fn link_ends(&self, idx: u32) -> (u32, u32) {
        self.ends[idx as usize]
    }

    /// Capacity of a link (Gbps).
    pub fn link_capacity(&self, idx: u32) -> f64 {
        self.capacity[idx as usize]
    }

    /// Server-facing ports of a switch.
    pub fn switch_server_ports(&self, idx: u32) -> u16 {
        self.server_ports[idx as usize]
    }

    /// Port speed of a switch (Gbps).
    pub fn switch_port_speed(&self, idx: u32) -> f64 {
        self.port_speed[idx as usize]
    }

    /// Total server-facing ports.
    pub fn server_count(&self) -> u32 {
        self.server_ports.iter().map(|&p| u32::from(p)).sum()
    }

    /// `(neighbor, link)` adjacency of switch `u`, in
    /// [`Network::incident_links`] order.
    pub fn adjacency(&self, u: u32) -> &[(u32, u32)] {
        self.full_adjacency().of(u)
    }

    fn full_adjacency(&self) -> Adjacency<'_> {
        Adjacency {
            offsets: &self.offsets,
            targets: &self.targets,
        }
    }

    /// Switch indices bearing servers, in index order.
    pub fn host_switches(&self) -> Vec<u32> {
        (0..self.switch_count() as u32)
            .filter(|&i| self.server_ports[i as usize] > 0)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Masks
// ---------------------------------------------------------------------------

/// Alive/dead bits per switch and link, for evaluating degraded states on
/// a shared healthy [`CsrNet`] without cloning the `Network`.
#[derive(Debug, Clone)]
pub struct Masks {
    /// `true` while the switch is up.
    pub switch_alive: Vec<bool>,
    /// `true` while the link is up.
    pub link_alive: Vec<bool>,
}

impl Masks {
    /// Everything alive.
    pub fn healthy(csr: &CsrNet) -> Self {
        Self {
            switch_alive: vec![true; csr.switch_count()],
            link_alive: vec![true; csr.link_count()],
        }
    }
}

#[inline]
fn switch_ok(alive: Option<&Masks>, u: u32) -> bool {
    alive.is_none_or(|m| m.switch_alive[u as usize])
}

#[inline]
fn link_ok(alive: Option<&Masks>, l: u32) -> bool {
    alive.is_none_or(|m| m.link_alive[l as usize])
}

// ---------------------------------------------------------------------------
// Scratch + thread-local pool
// ---------------------------------------------------------------------------

/// Reusable kernel buffers. One `Scratch` serves every kernel in this
/// module; buffers grow to the largest network evaluated on the thread and
/// are then reused allocation-free. Obtain one via [`with_scratch`] (the
/// pooled path) or [`Scratch::default`] (owned).
///
/// Besides the frontier and flow buffers, the ECMP kernels keep two
/// structures here: the alive-only adjacency a masked [`ecmp_evaluate`]
/// compacts once per call (`alive_offsets` / `alive_targets`, laid out
/// like [`CsrNet`]'s), and the bit-parallel BFS of up to 64 destinations
/// (`sweep`: per-switch reach and frontier words and, per destination,
/// bitmaps of the switches at each distance and of the downhill adjacency
/// entries).
#[derive(Debug, Default)]
pub struct Scratch {
    frontier: Vec<u32>,
    inflow: Vec<f64>,
    load: Vec<f64>,
    alive_offsets: Vec<u32>,
    alive_targets: Vec<(u32, u32)>,
    sweep: Sweep,
    residual: Vec<i32>,
    visited: Vec<bool>,
    parent_switch: Vec<u32>,
    parent_link: Vec<u32>,
    parent_dir: Vec<u8>,
    side: Vec<u8>,
    mark: Vec<bool>,
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a [`Scratch`] checked out of this thread's pool,
/// returning it afterwards. Reuse (pool non-empty) ticks
/// `kernel.csr.scratch_reuse`; the first call on a thread allocates.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL.with(|p| p.borrow_mut().pop());
    if scratch.is_some() {
        kernel_metrics().scratch_reuse.incr();
    }
    let mut scratch = scratch.take().unwrap_or_default();
    let out = f(&mut scratch);
    SCRATCH_POOL.with(|p| p.borrow_mut().push(scratch));
    out
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

/// Single-source BFS hop distances into `dist` (length
/// [`CsrNet::switch_count`]); unreachable (or masked-dead) switches get
/// [`UNREACHABLE`]. A dead source leaves the whole row unreachable, as if
/// the switch were removed.
pub fn bfs_fill(
    csr: &CsrNet,
    src: u32,
    alive: Option<&Masks>,
    scratch: &mut Scratch,
    dist: &mut [u16],
) {
    debug_assert_eq!(dist.len(), csr.switch_count());
    dist.fill(UNREACHABLE);
    kernel_metrics().bfs_runs.incr();
    if !switch_ok(alive, src) {
        return;
    }
    dist[src as usize] = 0;
    let frontier = &mut scratch.frontier;
    frontier.clear();
    frontier.push(src);
    let mut head = 0usize;
    while head < frontier.len() {
        let u = frontier[head];
        head += 1;
        let du = dist[u as usize];
        for &(v, l) in csr.adjacency(u) {
            if !link_ok(alive, l) || !switch_ok(alive, v) {
                continue;
            }
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                frontier.push(v);
            }
        }
    }
}

/// All-pairs BFS rows: row `i` is the distance vector from switch index
/// `i`, filled in source-index order from one pooled scratch.
pub fn all_pairs_dist(csr: &CsrNet) -> Vec<Vec<u16>> {
    let n = csr.switch_count();
    let mut dist = vec![vec![UNREACHABLE; n]; n];
    with_scratch(|scratch| {
        for (i, row) in dist.iter_mut().enumerate() {
            bfs_fill(csr, i as u32, None, scratch, row);
        }
    });
    dist
}

// ---------------------------------------------------------------------------
// ECMP
// ---------------------------------------------------------------------------

/// A traffic matrix lowered to dense indices: demand entries grouped by
/// destination, destinations in increasing index order, entries within a
/// destination in matrix order. This is the fixed accumulation order that
/// makes ECMP float sums byte-stable — no `HashMap` iteration anywhere.
///
/// Every entry of the matrix is connected exactly when an outcome's
/// `routable + local` equals the matrix's length: an entry naming an
/// unknown switch is dropped, and one from a switch to itself needs no
/// path, so [`ecmp_evaluate`] never counts it as routable.
#[derive(Debug, Clone, Default)]
pub struct IndexedDemands {
    /// `(dst, sources)` groups; `sources` are `(src, gbps)`.
    pub by_dst: Vec<(u32, Vec<(u32, f64)>)>,
    /// Total demand entries (routable or not).
    pub total: usize,
    /// Entries whose source is their destination.
    pub local: usize,
}

impl IndexedDemands {
    /// Lowers `tm` onto `csr`'s index space. Demands whose endpoints are
    /// unknown to the network are dropped (they can never route).
    pub fn build(csr: &CsrNet, tm: &crate::traffic::TrafficMatrix) -> Self {
        let n = csr.switch_count();
        let mut groups: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let (mut total, mut local) = (0usize, 0usize);
        for d in tm.demands() {
            let (Some(s), Some(t)) = (csr.switch_idx(d.src), csr.switch_idx(d.dst)) else {
                continue;
            };
            groups[t as usize].push((s, d.gbps.value()));
            total += 1;
            local += usize::from(s == t);
        }
        let by_dst = groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(t, g)| (t as u32, g))
            .collect();
        Self {
            by_dst,
            total,
            local,
        }
    }

    /// The uniform all-to-all matrix, `per_pair` from every host switch to
    /// every other, built straight from [`CsrNet::host_switches`]: the same
    /// groups, in the same order, as [`IndexedDemands::build`] makes of
    /// `TrafficMatrix::uniform_servers`, without the id-keyed matrix.
    pub fn uniform(csr: &CsrNet, per_pair: Gbps) -> Self {
        let hosts = csr.host_switches();
        let group = |t: u32| {
            hosts
                .iter()
                .filter(move |&&s| s != t)
                .map(|&s| (s, per_pair.value()))
        };
        let by_dst = hosts
            .iter()
            .map(|&t| (t, group(t).collect::<Vec<_>>()))
            .filter(|(_, g)| !g.is_empty())
            .collect();
        Self {
            by_dst,
            total: hosts.len() * hosts.len().saturating_sub(1),
            local: 0,
        }
    }
}

/// The result of one masked ECMP evaluation: per-link loads live in the
/// caller's scratch; this carries the aggregate facts degraded evaluation
/// needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcmpOutcome {
    /// Largest load ÷ capacity over alive links with positive capacity.
    pub max_utilization: f64,
    /// Demand entries whose endpoints are both alive and connected.
    pub routable: usize,
}

impl EcmpOutcome {
    /// Throughput proxy: the largest scale factor α such that α × demand
    /// fits every link capacity; infinite for an all-zero load.
    pub fn throughput_scale(&self) -> f64 {
        if self.max_utilization == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.max_utilization
        }
    }
}

/// An adjacency in [`CsrNet`]'s layout: the `(neighbor, link)` list of
/// switch `u` is `targets[offsets[u] .. offsets[u + 1]]`.
#[derive(Clone, Copy)]
struct Adjacency<'a> {
    offsets: &'a [u32],
    targets: &'a [(u32, u32)],
}

impl<'a> Adjacency<'a> {
    fn of(self, u: u32) -> &'a [(u32, u32)] {
        let (lo, hi) = (
            self.offsets[u as usize] as usize,
            self.offsets[u as usize + 1] as usize,
        );
        &self.targets[lo..hi]
    }
}

/// Copies the alive part of `csr`'s adjacency into `offsets` / `targets`,
/// keeping adjacency order: entries over dead links or to dead switches
/// are dropped, and a dead switch keeps an empty list.
fn compact_alive<'a>(
    csr: &CsrNet,
    masks: &Masks,
    offsets: &'a mut Vec<u32>,
    targets: &'a mut Vec<(u32, u32)>,
) -> Adjacency<'a> {
    offsets.clear();
    targets.clear();
    offsets.push(0);
    for u in 0..csr.switch_count() as u32 {
        if masks.switch_alive[u as usize] {
            targets.extend(
                csr.adjacency(u).iter().filter(|&&(v, l)| {
                    masks.link_alive[l as usize] && masks.switch_alive[v as usize]
                }),
            );
        }
        offsets.push(targets.len() as u32);
    }
    Adjacency { offsets, targets }
}

/// Most destinations one [`Sweep`] reaches at once: one bit of a `u64`
/// each. It is also the side of the bit blocks [`transpose64`] turns.
const SWEEP_WIDTH: usize = 64;

/// Transposes a 64×64 bit matrix in place: bit `c` of word `r` moves to
/// bit `r` of word `c`. Each of the six rounds swaps the off-diagonal
/// blocks of every diagonal block, from 32×32 quadrants down to single
/// bits, with one shift, XOR and mask per pair of words.
fn transpose64(m: &mut [u64; SWEEP_WIDTH]) {
    let mut width = SWEEP_WIDTH / 2;
    let mut mask = u64::MAX >> width;
    while width != 0 {
        let mut r = 0;
        while r < SWEEP_WIDTH {
            let t = ((m[r] >> width) ^ m[r + width]) & mask;
            m[r] ^= t << width;
            m[r + width] ^= t;
            r = (r + width + 1) & !width;
        }
        width /= 2;
        mask ^= mask << width;
    }
}

/// Transposes each whole 64-word block of `words` in place.
fn transpose_blocks(words: &mut [u64]) {
    for block in words.as_chunks_mut().0 {
        transpose64(block);
    }
}

/// A level-synchronous, bit-parallel BFS from up to [`SWEEP_WIDTH`]
/// destinations at once. Bit `j` of a switch's word stands for the
/// sweep's `j`-th destination.
///
/// A sweep run for the ECMP split also leaves per-destination bitmaps.
/// Switches and adjacency entries are taken in blocks of 64; a block's 64
/// words (one per switch or entry, one bit per destination) are
/// transposed into 64 words of one destination each (one bit per switch
/// or entry of the block), so word `64 b + j` of a transposed array is
/// destination `j`'s word of block `b`.
#[derive(Debug, Default)]
struct Sweep {
    /// Per switch: the destinations that have reached it.
    reached: Vec<u64>,
    /// Per switch, padded to whole blocks: the destinations it is exactly
    /// `level` hops from.
    frontier: Vec<u64>,
    /// Per switch, padded to whole blocks: the destinations it is
    /// `level + 1` hops from.
    next: Vec<u64>,
    /// Per adjacency entry `u → v`, padded to whole blocks and one more
    /// zero block: the destinations `u` is one hop farther from than `v`,
    /// those the entry goes downhill for. Transposed in place once the
    /// sweep ends.
    downhill: Vec<u64>,
    /// The transposed `next` words of every level that grew, in order:
    /// level `d`'s blocks hold the switches exactly `d` hops from each
    /// destination.
    levels: Vec<u64>,
}

impl Sweep {
    /// Runs the sweep from `dsts` over `adj`, which holds alive entries
    /// only, so nothing is mask-checked. Each level ORs every switch's
    /// neighbours' frontier words, which advances every destination by one
    /// hop in one pass over the adjacency; a switch every destination has
    /// reached is skipped. Records one `kernel.csr.bfs_runs` tick per
    /// destination. Returns the largest finite distance to any
    /// destination.
    ///
    /// With `split`, the sweep also keeps what [`ecmp_process_dst`]
    /// reads: the bits a switch gains at a level, ANDed with each
    /// neighbour's frontier word, give the destinations that neighbour is
    /// downhill for; each level's `next` words and, at the end, the
    /// downhill words are transposed into per-destination bitmaps.
    /// Without it, only the depth is found.
    fn run(
        &mut self,
        adj: Adjacency<'_>,
        dsts: impl ExactSizeIterator<Item = u32>,
        split: bool,
    ) -> u16 {
        let k = dsts.len();
        debug_assert!((1..=SWEEP_WIDTH).contains(&k));
        kernel_metrics().bfs_runs.add(k as u64);
        let n = adj.offsets.len() - 1;
        let Sweep {
            reached,
            frontier,
            next,
            downhill,
            levels,
        } = self;
        for words in [&mut *frontier, &mut *next] {
            words.clear();
            words.resize(n.next_multiple_of(SWEEP_WIDTH), 0);
        }
        levels.clear();
        if split {
            downhill.clear();
            let entries = adj.targets.len().next_multiple_of(SWEEP_WIDTH);
            downhill.resize(entries + SWEEP_WIDTH, 0);
        }
        for (j, d) in dsts.enumerate() {
            frontier[d as usize] |= 1 << j;
        }
        reached.clear();
        reached.extend_from_slice(&frontier[..n]);
        let all = u64::MAX >> (SWEEP_WIDTH - k);
        let mut level = 0u16;
        loop {
            let mut grew = false;
            for u in 0..n {
                next[u] = 0;
                if reached[u] == all {
                    continue;
                }
                let (lo, hi) = (adj.offsets[u] as usize, adj.offsets[u + 1] as usize);
                let entries = &adj.targets[lo..hi];
                let gained = entries
                    .iter()
                    .fold(0, |acc, &(v, _)| acc | frontier[v as usize])
                    & !reached[u];
                if gained == 0 {
                    continue;
                }
                grew = true;
                next[u] = gained;
                reached[u] |= gained;
                if !split {
                    continue;
                }
                for (&(v, _), down) in entries.iter().zip(&mut downhill[lo..hi]) {
                    *down |= gained & frontier[v as usize];
                }
            }
            if !grew {
                if split {
                    transpose_blocks(downhill);
                }
                return level;
            }
            level += 1;
            if split {
                let start = levels.len();
                levels.extend_from_slice(next);
                transpose_blocks(&mut levels[start..]);
            }
            std::mem::swap(frontier, next);
        }
    }

    /// Whether switch `u` reaches the sweep's destination `j`.
    fn reaches(&self, u: u32, j: usize) -> bool {
        self.reached[u as usize] >> j & 1 != 0
    }

    /// Levels the last split sweep grew: its largest finite distance.
    fn depth(&self) -> usize {
        self.levels.len() / self.frontier.len()
    }

    /// Destination `j`'s words of the level bitmaps, deepest level first:
    /// one iterator per level, whose word `b` holds the switches of block
    /// `b` at that distance.
    fn levels_of(&self, j: usize) -> impl Iterator<Item = impl Iterator<Item = u64> + '_> + '_ {
        let level_words = self.frontier.len();
        self.levels
            .chunks_exact(level_words)
            .rev()
            .map(move |level| level[j..].iter().step_by(SWEEP_WIDTH).copied())
    }

    /// Destination `j`'s downhill bits of the entries `lo..hi`, at most 64
    /// of them: bit `i` for entry `lo + i`, cut out of the two words
    /// that hold them with one funnel shift.
    fn downhill_window(&self, lo: usize, hi: usize, j: usize) -> u64 {
        let w = lo / SWEEP_WIDTH * SWEEP_WIDTH + j;
        let pair = u128::from(self.downhill[w]) | u128::from(self.downhill[w + SWEEP_WIDTH]) << 64;
        let keep = u64::MAX.checked_shr((SWEEP_WIDTH - (hi - lo)) as u32);
        (pair >> (lo % SWEEP_WIDTH)) as u64 & keep.unwrap_or(0)
    }

    /// Destination `j`'s downhill bits of the entries of block `b` that
    /// lie in `lo..hi`: bit `i` for entry `64 b + i`.
    fn downhill_word(&self, b: usize, lo: usize, hi: usize, j: usize) -> u64 {
        let base = b * SWEEP_WIDTH;
        let (start, end) = (lo.saturating_sub(base), (hi - base).min(SWEEP_WIDTH));
        self.downhill[base + j] & (u64::MAX << start) & (u64::MAX >> (SWEEP_WIDTH - end))
    }
}

/// Calls `f` on the items of `items` in runs of up to [`SWEEP_WIDTH`], in
/// order, with no allocation.
fn in_sweeps<T: Copy + Default>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(&[T])) {
    let mut items = items.into_iter();
    let mut run = [T::default(); SWEEP_WIDTH];
    loop {
        let mut k = 0;
        for item in items.by_ref().take(SWEEP_WIDTH) {
            run[k] = item;
            k += 1;
        }
        if k == 0 {
            return;
        }
        f(&run[..k]);
    }
}

/// Splits the flow toward the sweep's destination `j` (switch `dst`) over
/// all shortest paths (the classic equal-split-per-hop ECMP fluid model),
/// accumulating into `load`. Switches are visited in decreasing distance,
/// ties broken by increasing index: the level bitmaps, deepest first, each
/// read in ascending bit order. That order alone fixes every `inflow`
/// sum. Each switch splits its inflow evenly over its downhill entries,
/// taken in adjacency order from the transposed downhill bitmap: one
/// funnel shift when its adjacency spans at most 64 entries, a loop over
/// the words it covers when it spans more.
fn ecmp_process_dst(
    adj: Adjacency<'_>,
    sweep: &Sweep,
    j: usize,
    dst: u32,
    sources: &[(u32, f64)],
    inflow: &mut Vec<f64>,
    load: &mut [f64],
) {
    inflow.clear();
    inflow.resize(sweep.reached.len(), 0.0);
    for &(src, gbps) in sources {
        if src != dst && sweep.reaches(src, j) {
            inflow[src as usize] += gbps;
        }
    }
    let mut spread = |inflow: &mut [f64], first: usize, mut entries: u64, share: f64| {
        while entries != 0 {
            let (v, l) = adj.targets[first + entries.trailing_zeros() as usize];
            entries &= entries - 1;
            load[l as usize] += share;
            inflow[v as usize] += share;
        }
    };
    for level in sweep.levels_of(j) {
        for (b, mut switches) in level.enumerate() {
            while switches != 0 {
                let u = b * SWEEP_WIDTH + switches.trailing_zeros() as usize;
                switches &= switches - 1;
                let flow = inflow[u];
                if flow <= 0.0 {
                    continue;
                }
                let (lo, hi) = (adj.offsets[u] as usize, adj.offsets[u + 1] as usize);
                if hi - lo <= SWEEP_WIDTH {
                    let down = sweep.downhill_window(lo, hi, j);
                    if down != 0 {
                        spread(inflow, lo, down, flow / f64::from(down.count_ones()));
                    }
                    continue;
                }
                let blocks = lo / SWEEP_WIDTH..hi.div_ceil(SWEEP_WIDTH);
                let count: u32 = blocks
                    .clone()
                    .map(|b| sweep.downhill_word(b, lo, hi, j).count_ones())
                    .sum();
                if count == 0 {
                    continue; // isolated inconsistency; skip rather than panic
                }
                let share = flow / f64::from(count);
                for b in blocks {
                    spread(
                        inflow,
                        b * SWEEP_WIDTH,
                        sweep.downhill_word(b, lo, hi, j),
                        share,
                    );
                }
            }
        }
    }
}

/// Exact ECMP splitting of `demands` over shortest paths in the (possibly
/// masked) network, leaving per-link loads in `scratch` (read them with
/// [`take_loads`] or fold them via the returned [`EcmpOutcome`]).
///
/// With masks, the alive adjacency is first compacted into `scratch`
/// (adjacency order kept), once per call. Destinations are then processed
/// in increasing index order, 64 at a time: one bit-parallel BFS over that
/// alive-only adjacency gives the switches that reach each and,
/// transposed once, each destination's visiting order and shortest-path
/// DAG as bitmaps, so the split neither sorts switches nor rescans the
/// adjacency. Every float accumulation follows index order, so the result
/// is byte-stable across processes and job counts.
pub fn ecmp_evaluate(
    csr: &CsrNet,
    demands: &IndexedDemands,
    alive: Option<&Masks>,
    scratch: &mut Scratch,
) -> EcmpOutcome {
    let mut offsets = std::mem::take(&mut scratch.alive_offsets);
    let mut targets = std::mem::take(&mut scratch.alive_targets);
    let adj = match alive {
        None => csr.full_adjacency(),
        Some(masks) => compact_alive(csr, masks, &mut offsets, &mut targets),
    };
    let groups = demands
        .by_dst
        .iter()
        .filter(|(dst, _)| switch_ok(alive, *dst))
        .map(|(dst, sources)| (*dst, sources.as_slice()));
    let mut routable = 0usize;
    ecmp_per_destination(csr, adj, groups, scratch, |sweep, j, dst, sources| {
        routable += routable_sources(sweep, j, dst, sources);
    });
    scratch.alive_offsets = offsets;
    scratch.alive_targets = targets;
    ecmp_outcome(csr, alive, &scratch.load, routable)
}

/// The loop every ECMP kernel runs: zero the loads, then take the
/// `(dst, sources)` groups in the order given, [`SWEEP_WIDTH`] at a time.
/// One [`Sweep`] over `adj` gives every group's reach bits, visiting
/// order and downhill entries; then, group by group, `visit` looks at the
/// sweep and the group's bit `j`, and [`ecmp_process_dst`] splits the
/// flow. Returns the largest finite distance to any destination.
fn ecmp_per_destination<'s>(
    csr: &CsrNet,
    adj: Adjacency<'_>,
    groups: impl IntoIterator<Item = (u32, &'s [(u32, f64)])>,
    scratch: &mut Scratch,
    mut visit: impl FnMut(&Sweep, usize, u32, &[(u32, f64)]),
) -> u16 {
    kernel_metrics().ecmp_runs.incr();
    let Scratch {
        inflow,
        load,
        sweep,
        ..
    } = scratch;
    load.resize(csr.link_count(), 0.0);
    load.fill(0.0);
    let mut depth = 0u16;
    in_sweeps(groups, |run| {
        depth = depth.max(sweep.run(adj, run.iter().map(|&(dst, _)| dst), true));
        for (j, &(dst, sources)) in run.iter().enumerate() {
            visit(sweep, j, dst, sources);
            ecmp_process_dst(adj, sweep, j, dst, sources, inflow, load);
        }
    });
    depth
}

/// What [`uniform_healthy`] measures in its one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthyRouting {
    /// ECMP of 1 Gbps between every ordered pair of host switches; its
    /// per-link loads stay in the scratch, as [`ecmp_evaluate`]'s do.
    pub ecmp: EcmpOutcome,
    /// Largest finite hop distance between any two switches.
    pub diameter: u16,
    /// Hop distances summed over ordered pairs of distinct, connected host
    /// switches.
    pub host_hops: u64,
    /// Number of those pairs.
    pub host_pairs: u64,
}

/// The healthy network's uniform-traffic routing and distances from one
/// BFS per switch, with no all-pairs rows and no demand list.
///
/// Host switches are the destinations, in increasing index order, so the
/// loop is [`ecmp_evaluate`]'s on the uniform matrix
/// ([`IndexedDemands::uniform`] at 1 Gbps), with one source list of every
/// host shared by all destinations (the split skips a destination's own
/// entry). Each destination's level bitmaps also add its host distances
/// to `host_hops`: `d` times the hosts at level `d`. The loop's deepest
/// level feeds the diameter. The other switches are then swept 64 at a
/// time, for the diameter only, with no downhill words or transposed
/// bitmaps. Loads, outcome and distances equal those of `ecmp_evaluate`
/// and of folds over [`all_pairs_dist`], bit for bit, so
/// `ecmp.throughput_scale()` is also the healthy baseline of
/// [`crate::metrics::failure_resilience_from`].
pub fn uniform_healthy(csr: &CsrNet, scratch: &mut Scratch) -> HealthyRouting {
    let hosts = csr.host_switches();
    let sources: Vec<(u32, f64)> = hosts.iter().map(|&h| (h, 1.0)).collect();
    let groups = hosts.iter().map(|&h| (h, sources.as_slice()));
    let adj = csr.full_adjacency();
    let mut host_bits = vec![0u64; csr.switch_count().div_ceil(SWEEP_WIDTH)];
    for &h in &hosts {
        host_bits[h as usize / SWEEP_WIDTH] |= 1 << (h as usize % SWEEP_WIDTH);
    }
    let (mut host_hops, mut host_pairs) = (0u64, 0u64);
    let mut diameter = ecmp_per_destination(csr, adj, groups, scratch, |sweep, j, _, _| {
        for (d, level) in (1..=sweep.depth() as u64).rev().zip(sweep.levels_of(j)) {
            let at_d: u32 = level
                .zip(&host_bits)
                .map(|(w, h)| (w & h).count_ones())
                .sum();
            host_hops += d * u64::from(at_d);
            host_pairs += u64::from(at_d);
        }
    });
    let others = (0..csr.switch_count() as u32).filter(|&u| csr.switch_server_ports(u) == 0);
    in_sweeps(others, |run| {
        diameter = diameter.max(scratch.sweep.run(adj, run.iter().copied(), false));
    });
    HealthyRouting {
        ecmp: ecmp_outcome(csr, None, &scratch.load, host_pairs as usize),
        diameter,
        host_hops,
        host_pairs,
    }
}

/// Sources other than `dst` itself that reach it (`dst` is the sweep's
/// destination `j`).
fn routable_sources(sweep: &Sweep, j: usize, dst: u32, sources: &[(u32, f64)]) -> usize {
    sources
        .iter()
        .filter(|&&(src, _)| src != dst && sweep.reaches(src, j))
        .count()
}

/// Folds per-link loads into an [`EcmpOutcome`]: the largest load ÷
/// capacity over alive links with positive capacity and load.
fn ecmp_outcome(csr: &CsrNet, alive: Option<&Masks>, load: &[f64], routable: usize) -> EcmpOutcome {
    let mut mlu = 0.0f64;
    for l in 0..csr.link_count() as u32 {
        let cap = csr.link_capacity(l);
        if link_ok(alive, l) && cap > 0.0 && load[l as usize] > 0.0 {
            mlu = mlu.max(load[l as usize] / cap);
        }
    }
    EcmpOutcome {
        max_utilization: mlu,
        routable,
    }
}

/// Copies the per-link loads the last ECMP kernel left in `scratch`.
pub fn take_loads(csr: &CsrNet, scratch: &Scratch) -> Vec<f64> {
    scratch.load[..csr.link_count()].to_vec()
}

// ---------------------------------------------------------------------------
// Max-flow (edge-disjoint paths)
// ---------------------------------------------------------------------------

/// Unit-capacity max-flow between two switch indices (BFS augmentation;
/// each undirected link is one unit in either direction — standard Menger
/// analysis).
pub fn max_flow(
    csr: &CsrNet,
    s: u32,
    t: u32,
    alive: Option<&Masks>,
    scratch: &mut Scratch,
) -> usize {
    max_flow_capped(csr, s, t, alive, usize::MAX, scratch)
}

/// [`max_flow`] that stops augmenting once the flow reaches `cap`, so it
/// returns `min(max_flow, cap)`. A caller that only keeps a minimum over
/// several pairs loses nothing by capping each at the minimum so far.
pub fn max_flow_capped(
    csr: &CsrNet,
    s: u32,
    t: u32,
    alive: Option<&Masks>,
    cap: usize,
    scratch: &mut Scratch,
) -> usize {
    if s == t {
        return 0;
    }
    kernel_metrics().maxflow_runs.incr();
    let (n, m) = (csr.switch_count(), csr.link_count());
    scratch.residual.resize(2 * m, 0);
    for l in 0..m as u32 {
        let cap = i32::from(link_ok(alive, l));
        scratch.residual[2 * l as usize] = cap;
        scratch.residual[2 * l as usize + 1] = cap;
    }
    scratch.visited.resize(n, false);
    scratch.parent_switch.resize(n, 0);
    scratch.parent_link.resize(n, 0);
    scratch.parent_dir.resize(n, 0);

    let mut flow = 0usize;
    while flow < cap {
        // BFS in the residual graph, until it finds `t` (its parent chain
        // is then fixed).
        scratch.visited.fill(false);
        scratch.visited[s as usize] = true;
        let frontier = &mut scratch.frontier;
        frontier.clear();
        frontier.push(s);
        let mut head = 0usize;
        while head < frontier.len() && !scratch.visited[t as usize] {
            let u = frontier[head];
            head += 1;
            for &(v, l) in csr.adjacency(u) {
                let dir = u32::from(csr.link_ends(l).0 != u);
                if v != s
                    && switch_ok(alive, v)
                    && !scratch.visited[v as usize]
                    && scratch.residual[(2 * l + dir) as usize] > 0
                {
                    scratch.visited[v as usize] = true;
                    scratch.parent_switch[v as usize] = u;
                    scratch.parent_link[v as usize] = l;
                    scratch.parent_dir[v as usize] = dir as u8;
                    frontier.push(v);
                }
            }
        }
        if !scratch.visited[t as usize] {
            return flow;
        }
        // Augment by 1 along the parent chain.
        let mut cur = t;
        while cur != s {
            let l = scratch.parent_link[cur as usize];
            let dir = u32::from(scratch.parent_dir[cur as usize]);
            scratch.residual[(2 * l + dir) as usize] -= 1;
            scratch.residual[(2 * l + (dir ^ 1)) as usize] += 1;
            cur = scratch.parent_switch[cur as usize];
        }
        flow += 1;
    }
    flow
}

// ---------------------------------------------------------------------------
// Cuts and components
// ---------------------------------------------------------------------------

/// Capacity crossing a host partition: hosts are pre-assigned to side A
/// (`side_a[h]`) or B, transit switches join the side from which BFS first
/// reaches them (seeding follows `hosts` order, ties → earlier seed), and
/// the crossing capacity is summed in link index order.
pub fn cut_capacity(csr: &CsrNet, hosts: &[u32], side_a: &[bool], scratch: &mut Scratch) -> f64 {
    let n = csr.switch_count();
    scratch.side.resize(n, 0);
    scratch.side.fill(0);
    let frontier = &mut scratch.frontier;
    frontier.clear();
    for &h in hosts {
        scratch.side[h as usize] = if side_a[h as usize] { 1 } else { 2 };
        frontier.push(h);
    }
    let mut head = 0usize;
    while head < frontier.len() {
        let u = frontier[head];
        head += 1;
        let su = scratch.side[u as usize];
        for &(v, _) in csr.adjacency(u) {
            if scratch.side[v as usize] == 0 {
                scratch.side[v as usize] = su;
                frontier.push(v);
            }
        }
    }
    let mut cut = 0.0;
    for l in 0..csr.link_count() as u32 {
        let (a, b) = csr.link_ends(l);
        let (sa, sb) = (scratch.side[a as usize], scratch.side[b as usize]);
        if sa != 0 && sb != 0 && sa != sb {
            cut += csr.link_capacity(l);
        }
    }
    cut
}

/// Server mass of the largest connected component among alive switches.
pub fn largest_component_servers(
    csr: &CsrNet,
    alive: Option<&Masks>,
    scratch: &mut Scratch,
) -> u32 {
    let n = csr.switch_count();
    scratch.mark.resize(n, false);
    scratch.mark.fill(false);
    let mut best = 0u32;
    for root in 0..n as u32 {
        if scratch.mark[root as usize] || !switch_ok(alive, root) {
            continue;
        }
        let mut mass = 0u32;
        let stack = &mut scratch.frontier;
        stack.clear();
        stack.push(root);
        scratch.mark[root as usize] = true;
        while let Some(u) = stack.pop() {
            mass += u32::from(csr.switch_server_ports(u));
            for &(v, l) in csr.adjacency(u) {
                if link_ok(alive, l) && switch_ok(alive, v) && !scratch.mark[v as usize] {
                    scratch.mark[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        best = best.max(mass);
    }
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gen::{fat_tree, leaf_spine};
    use crate::traffic::TrafficMatrix;
    use pd_geometry::Gbps;

    fn net() -> Network {
        fat_tree(4, Gbps::new(100.0)).unwrap()
    }

    #[test]
    fn build_round_trips_ids_and_capacities() {
        let n = net();
        let csr = CsrNet::build(&n);
        assert_eq!(csr.switch_count(), n.switch_count());
        assert_eq!(csr.link_count(), n.link_count());
        for s in n.switches() {
            let i = csr.switch_idx(s.id).expect("indexed");
            assert_eq!(csr.switch_ids()[i as usize], s.id);
            assert_eq!(csr.switch_server_ports(i), s.server_ports);
        }
        for l in n.links() {
            let i = csr.link_idx(l.id).expect("indexed");
            assert_eq!(csr.link_ids()[i as usize], l.id);
            assert_eq!(csr.link_capacity(i), l.capacity().value());
        }
        // Adjacency mirrors incident_links order.
        for s in n.switches() {
            let i = csr.switch_idx(s.id).unwrap();
            let adj: Vec<LinkId> = csr
                .adjacency(i)
                .iter()
                .map(|&(_, l)| csr.link_ids()[l as usize])
                .collect();
            assert_eq!(adj, n.incident_links(s.id));
        }
    }

    /// Masking links is removing them: on every family, with seeded link
    /// sets, BFS rows and ECMP (per-`LinkId` loads bit for bit, `routable`,
    /// `max_utilization`) on the masked view equal those on a copy of the
    /// network with the links removed. Drain and dry-run planning rely on
    /// this to mask instead of clone.
    #[test]
    fn masked_bfs_and_ecmp_match_removal() {
        let mut scratch = Scratch::default();
        for (name, net) in equivalence_fixtures() {
            let csr = CsrNet::build(&net);
            for seed in 0..3 {
                let tm = seeded_traffic(&net, seed);
                let demands = IndexedDemands::build(&csr, &tm);
                let mut rng = crate::gen::SplitMix64::new(seed);
                for percent in [2, 10, 40] {
                    let case = format!("{name}, {percent}% links, seed {seed}");
                    let mut ids: Vec<u32> = (0..csr.link_count() as u32).collect();
                    rng.shuffle(&mut ids);
                    let dead = &ids[..(csr.link_count() * percent).div_ceil(100)];
                    let mut masks = Masks::healthy(&csr);
                    let mut copy = net.clone();
                    for &l in dead {
                        masks.link_alive[l as usize] = false;
                        copy.remove_link(csr.link_ids()[l as usize]).unwrap();
                    }
                    let removed = CsrNet::build(&copy);
                    // Removing links keeps every switch index.
                    assert_eq!(removed.switch_ids(), csr.switch_ids(), "{case}");

                    let mut masked_row = vec![UNREACHABLE; csr.switch_count()];
                    let mut removed_row = vec![UNREACHABLE; csr.switch_count()];
                    for src in 0..csr.switch_count() as u32 {
                        bfs_fill(&csr, src, Some(&masks), &mut scratch, &mut masked_row);
                        bfs_fill(&removed, src, None, &mut scratch, &mut removed_row);
                        assert_eq!(masked_row, removed_row, "{case}: BFS from {src}");
                    }

                    let masked = ecmp_evaluate(&csr, &demands, Some(&masks), &mut scratch);
                    let masked_loads = take_loads(&csr, &scratch);
                    let want = ecmp_evaluate(
                        &removed,
                        &IndexedDemands::build(&removed, &tm),
                        None,
                        &mut scratch,
                    );
                    let want_loads = take_loads(&removed, &scratch);
                    for (l, &load) in masked_loads.iter().enumerate() {
                        let want_load = removed
                            .link_idx(csr.link_ids()[l])
                            .map_or(0.0, |r| want_loads[r as usize]);
                        assert_eq!(load.to_bits(), want_load.to_bits(), "{case}: link {l}");
                    }
                    assert_eq!(masked.routable, want.routable, "{case}: routable");
                    assert_eq!(
                        masked.max_utilization.to_bits(),
                        want.max_utilization.to_bits(),
                        "{case}: max utilization"
                    );
                }
            }
        }
    }

    #[test]
    fn ecmp_outcome_is_deterministic_and_conserves_flow() {
        let n = leaf_spine(2, 4, 4, 1, Gbps::new(100.0)).unwrap();
        let csr = CsrNet::build(&n);
        let hosts = csr.host_switches();
        let tm = TrafficMatrix::single(
            csr.switch_ids()[hosts[0] as usize],
            csr.switch_ids()[hosts[1] as usize],
            Gbps::new(1.0),
        );
        let demands = IndexedDemands::build(&csr, &tm);
        let mut scratch = Scratch::default();
        let a = ecmp_evaluate(&csr, &demands, None, &mut scratch);
        let loads_a = take_loads(&csr, &scratch);
        let b = ecmp_evaluate(&csr, &demands, None, &mut scratch);
        let loads_b = take_loads(&csr, &scratch);
        assert_eq!(a, b);
        assert_eq!(loads_a, loads_b, "float accumulation order must be fixed");
        // 1 Gbps across 4 two-hop paths: every link carries exactly 1/4.
        let total: f64 = loads_a.iter().sum();
        assert!((total - 2.0).abs() < 1e-12, "got {total}");
        for (l, &v) in loads_a.iter().enumerate() {
            assert!((v - 0.25).abs() < 1e-9, "link {l} load {v}");
        }
        assert_eq!(a.routable, 1);
    }

    #[test]
    fn fat_tree_distances() {
        // Fat-tree: ToR↔ToR same pod = 2, cross-pod = 4, diameter 4.
        let n = net();
        let csr = CsrNet::build(&n);
        let rows = all_pairs_dist(&csr);
        assert_eq!(rows.iter().flatten().max(), Some(&4));
        let tors: Vec<(u32, _)> = n
            .switches()
            .filter(|s| s.role == crate::SwitchRole::Tor)
            .map(|s| (csr.switch_idx(s.id).unwrap(), s.block))
            .collect();
        let same_pod = tors
            .iter()
            .skip(1)
            .find(|(_, b)| *b == tors[0].1)
            .unwrap()
            .0;
        let other_pod = tors.iter().find(|(_, b)| *b != tors[0].1).unwrap().0;
        assert_eq!(rows[tors[0].0 as usize][same_pod as usize], 2);
        assert_eq!(rows[tors[0].0 as usize][other_pod as usize], 4);
    }

    #[test]
    fn ecmp_uniform_loads_are_symmetric_on_leaf_spine() {
        let n = leaf_spine(4, 4, 4, 1, Gbps::new(100.0)).unwrap();
        let csr = CsrNet::build(&n);
        let demands =
            IndexedDemands::build(&csr, &TrafficMatrix::uniform_servers(&n, Gbps::new(1.0)));
        let mut scratch = Scratch::default();
        ecmp_evaluate(&csr, &demands, None, &mut scratch);
        // Every leaf-spine link carries the same load by symmetry.
        let loads = take_loads(&csr, &scratch);
        assert!(loads[0] > 0.0);
        for v in &loads {
            assert!(
                (v - loads[0]).abs() < 1e-9,
                "asymmetric: {v} vs {}",
                loads[0]
            );
        }
    }

    #[test]
    fn throughput_scale_inverse_of_mlu() {
        let n = leaf_spine(4, 2, 8, 1, Gbps::new(100.0)).unwrap();
        let csr = CsrNet::build(&n);
        let demands =
            IndexedDemands::build(&csr, &TrafficMatrix::uniform_servers(&n, Gbps::new(1.0)));
        let mut scratch = Scratch::default();
        let outcome = ecmp_evaluate(&csr, &demands, None, &mut scratch);
        let mlu = take_loads(&csr, &scratch)
            .iter()
            .enumerate()
            .map(|(l, load)| load / csr.link_capacity(l as u32))
            .fold(0.0, f64::max);
        assert!(mlu > 0.0);
        assert_eq!(outcome.max_utilization, mlu);
        assert!((outcome.throughput_scale() - 1.0 / mlu).abs() < 1e-12);
    }

    #[test]
    fn max_flow_counts_disjoint_paths() {
        let n = net();
        let csr = CsrNet::build(&n);
        let hosts = csr.host_switches();
        let mut scratch = Scratch::default();
        let k = max_flow(&csr, hosts[0], hosts[7], None, &mut scratch);
        assert_eq!(k, 2, "k=4 fat-tree ToRs have 2 edge-disjoint paths");
        assert_eq!(max_flow(&csr, hosts[0], hosts[0], None, &mut scratch), 0);
    }

    #[test]
    fn dead_switch_disconnects_its_servers() {
        let n = net();
        let csr = CsrNet::build(&n);
        let mut scratch = Scratch::default();
        let all = largest_component_servers(&csr, None, &mut scratch);
        assert_eq!(all, csr.server_count());
        let victim = csr.host_switches()[0];
        let mut masks = Masks::healthy(&csr);
        masks.switch_alive[victim as usize] = false;
        for &(_, l) in csr.adjacency(victim) {
            masks.link_alive[l as usize] = false;
        }
        let degraded = largest_component_servers(&csr, Some(&masks), &mut scratch);
        assert_eq!(
            degraded,
            csr.server_count() - u32::from(csr.switch_server_ports(victim))
        );
    }

    /// Known answers from the id-keyed (HashMap) BFS, ECMP and max-flow
    /// implementations the CSR kernels replaced, run once on the same
    /// fixtures: a k=4 fat-tree and the default seeded Jellyfish. The ECMP
    /// figures are sums of floats, so they match to a relative 1e-9.
    #[test]
    fn kernels_match_pre_csr_known_answers() {
        struct Known {
            net: Network,
            diameter: u16,
            mean_distance: f64,
            ecmp_total: f64,
            ecmp_max: f64,
            disjoint_paths: [usize; 3],
        }
        let fixtures = [
            Known {
                net: net(),
                diameter: 4,
                mean_distance: 2.5894736842105264,
                ecmp_total: 208.0,
                ecmp_max: 7.0,
                disjoint_paths: [2, 2, 2],
            },
            Known {
                net: crate::gen::jellyfish(&crate::gen::JellyfishParams::default()).unwrap(),
                diameter: 4,
                mean_distance: 2.181547619047619,
                ecmp_total: 8796.000000000007,
                ecmp_max: 50.4107142857143,
                disjoint_paths: [8, 8, 8],
            },
        ];
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        for k in &fixtures {
            let csr = CsrNet::build(&k.net);
            let dist = all_pairs_dist(&csr);
            let pairs: Vec<u16> = dist
                .iter()
                .enumerate()
                .flat_map(|(i, row)| row.iter().enumerate().filter(move |&(j, _)| j != i))
                .map(|(_, &d)| d)
                .collect();
            assert_eq!(pairs.iter().max(), Some(&k.diameter));
            let mean = pairs.iter().map(|&d| f64::from(d)).sum::<f64>() / pairs.len() as f64;
            assert_eq!(mean, k.mean_distance);

            let tm = TrafficMatrix::uniform_servers(&k.net, Gbps::new(1.0));
            let demands = IndexedDemands::build(&csr, &tm);
            let mut scratch = Scratch::default();
            ecmp_evaluate(&csr, &demands, None, &mut scratch);
            let loads = take_loads(&csr, &scratch);
            let total: f64 = loads.iter().sum();
            let max = loads.iter().copied().fold(0.0, f64::max);
            assert!(close(total, k.ecmp_total), "ECMP total {total}");
            assert!(close(max, k.ecmp_max), "ECMP max {max}");

            let hosts = csr.host_switches();
            let pairs = [
                (hosts[0], hosts[1]),
                (hosts[0], hosts[hosts.len() - 1]),
                (hosts[1], hosts[hosts.len() / 2]),
            ];
            let flows = pairs.map(|(s, t)| max_flow(&csr, s, t, None, &mut scratch));
            assert_eq!(flows, k.disjoint_paths);
        }
    }

    /// The two-scan ECMP split of one destination that the DAG kernel
    /// replaced, kept as its reference: switches in decreasing distance, ties
    /// by increasing index, and for each switch two mask-checked scans of
    /// its full adjacency, one to count its downhill links and one to
    /// distribute over them in adjacency order.
    fn reference_process_dst(
        csr: &CsrNet,
        dst: u32,
        dist: &[u16],
        sources: &[(u32, f64)],
        alive: Option<&Masks>,
        load: &mut [f64],
    ) {
        let mut inflow = vec![0.0; csr.switch_count()];
        for &(src, gbps) in sources {
            if src != dst && dist[src as usize] != UNREACHABLE {
                inflow[src as usize] += gbps;
            }
        }
        let mut order: Vec<u32> = (0..csr.switch_count() as u32)
            .filter(|&u| dist[u as usize] != UNREACHABLE && dist[u as usize] > 0)
            .collect();
        order.sort_by_key(|&u| (std::cmp::Reverse(dist[u as usize]), u));
        for u in order {
            let flow = inflow[u as usize];
            if flow <= 0.0 {
                continue;
            }
            let du = dist[u as usize];
            let downhill = |&(v, l): &(u32, u32)| {
                link_ok(alive, l) && dist[v as usize] != UNREACHABLE && dist[v as usize] + 1 == du
            };
            let down = csr.adjacency(u).iter().filter(|e| downhill(e)).count();
            if down == 0 {
                continue;
            }
            let share = flow / down as f64;
            for &(v, l) in csr.adjacency(u).iter().filter(|e| downhill(e)) {
                load[l as usize] += share;
                inflow[v as usize] += share;
            }
        }
    }

    /// [`ecmp_evaluate`] before the DAG kernel: a masked [`bfs_fill`] per
    /// destination on the full adjacency, then [`reference_process_dst`]. Returns the
    /// loads and the routable count.
    fn reference_ecmp(
        csr: &CsrNet,
        demands: &IndexedDemands,
        alive: Option<&Masks>,
    ) -> (Vec<f64>, usize) {
        let mut load = vec![0.0; csr.link_count()];
        let mut dist = vec![UNREACHABLE; csr.switch_count()];
        let mut scratch = Scratch::default();
        let mut routable = 0;
        for (dst, sources) in &demands.by_dst {
            if !switch_ok(alive, *dst) {
                continue;
            }
            bfs_fill(csr, *dst, alive, &mut scratch, &mut dist);
            routable += sources
                .iter()
                .filter(|&&(src, _)| dist[src as usize] != UNREACHABLE && src != *dst)
                .count();
            reference_process_dst(csr, *dst, &dist, sources, alive, &mut load);
        }
        (load, routable)
    }

    /// Six switches in a ring with chords and parallel links (two or three
    /// links between one pair), the only case where a switch's DAG list can
    /// hold two edges to the same neighbour.
    fn parallel_ring() -> Network {
        let mut n = Network::new("parallel-ring");
        let s: Vec<SwitchId> = (0..6)
            .map(|i| {
                n.add_switch(
                    format!("s{i}"),
                    crate::SwitchRole::FlatTor,
                    0,
                    16,
                    Gbps::new(100.0),
                    2,
                    None,
                )
            })
            .collect();
        for (a, b, copies) in [
            (0, 1, 2),
            (1, 2, 1),
            (2, 3, 2),
            (3, 4, 1),
            (4, 5, 1),
            (5, 0, 3),
            (0, 3, 1),
            (1, 4, 1),
        ] {
            for _ in 0..copies {
                n.add_link(s[a], s[b], Gbps::new(100.0), 1, false).unwrap();
            }
        }
        n
    }

    /// Small instances of every generator family, plus [`parallel_ring`].
    pub(crate) fn equivalence_fixtures() -> Vec<(&'static str, Network)> {
        use crate::gen::*;
        let speed = Gbps::new(100.0);
        vec![
            ("fat-tree", fat_tree(4, speed).unwrap()),
            (
                "folded-clos",
                folded_clos(&ClosParams {
                    pods: 3,
                    tors_per_pod: 2,
                    aggs_per_pod: 2,
                    spines: 4,
                    servers_per_tor: 4,
                    ..ClosParams::default()
                })
                .unwrap(),
            ),
            ("leaf-spine", leaf_spine(6, 3, 4, 1, speed).unwrap()),
            ("vl2", vl2(4, 4, 4, speed).unwrap()),
            (
                "jellyfish",
                jellyfish(&JellyfishParams {
                    tors: 24,
                    network_degree: 4,
                    seed: 3,
                    ..JellyfishParams::default()
                })
                .unwrap(),
            ),
            (
                "xpander",
                xpander(&XpanderParams {
                    network_degree: 4,
                    lift: 4,
                    ..XpanderParams::default()
                })
                .unwrap(),
            ),
            ("slimfly", slimfly(&SlimFlyParams::default()).unwrap()),
            (
                "flat-bf",
                flattened_butterfly(&FlattenedButterflyParams {
                    rows: 4,
                    cols: 4,
                    ..FlattenedButterflyParams::default()
                })
                .unwrap(),
            ),
            (
                "fatclique",
                fatclique(&FatCliqueParams {
                    subclique_size: 3,
                    subcliques_per_clique: 3,
                    cliques: 3,
                    inter_clique_links: 4,
                    ..FatCliqueParams::default()
                })
                .unwrap(),
            ),
            (
                "direct-connect",
                direct_connect(&DirectConnectParams {
                    blocks: 4,
                    tors_per_block: 2,
                    mids_per_block: 2,
                    uplinks_per_mid: 3,
                    ..DirectConnectParams::default()
                })
                .unwrap()
                .network,
            ),
            ("parallel-ring", parallel_ring()),
        ]
    }

    /// Every ordered host pair with a seeded demand in [0.5, 1.5) Gbps, so
    /// that float sums taken in another order round differently.
    fn seeded_traffic(net: &Network, seed: u64) -> TrafficMatrix {
        let mut rng = crate::gen::SplitMix64::new(seed);
        let mut demands = TrafficMatrix::uniform_servers(net, Gbps::new(1.0))
            .demands()
            .to_vec();
        for d in &mut demands {
            d.gbps = Gbps::new(0.5 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
        }
        TrafficMatrix::from_demands(demands)
    }

    /// The masks the test covers: none, 2/10/40% of links dead, and ~10%
    /// of switches dead, once with their links left alive (the kernel must
    /// drop entries to a dead switch itself) and once with them dead too,
    /// as fault injection sets them.
    fn equivalence_masks(csr: &CsrNet, seed: u64) -> Vec<(String, Option<Masks>)> {
        let mut rng = crate::gen::SplitMix64::new(seed);
        let mut out = vec![("healthy".to_string(), None)];
        for percent in [2, 10, 40] {
            let mut ids: Vec<u32> = (0..csr.link_count() as u32).collect();
            rng.shuffle(&mut ids);
            let mut masks = Masks::healthy(csr);
            for &l in &ids[..(csr.link_count() * percent).div_ceil(100)] {
                masks.link_alive[l as usize] = false;
            }
            out.push((format!("{percent}% links"), Some(masks)));
        }
        for with_links in [false, true] {
            let mut ids: Vec<u32> = (0..csr.switch_count() as u32).collect();
            rng.shuffle(&mut ids);
            let mut masks = Masks::healthy(csr);
            for &s in &ids[..csr.switch_count().div_ceil(10)] {
                masks.switch_alive[s as usize] = false;
                if with_links {
                    for &(_, l) in csr.adjacency(s) {
                        masks.link_alive[l as usize] = false;
                    }
                }
            }
            let what = if with_links {
                "switches and their links"
            } else {
                "switches"
            };
            out.push((format!("10% {what}"), Some(masks)));
        }
        out
    }

    fn bits(loads: &[f64]) -> Vec<u64> {
        loads.iter().map(|x| x.to_bits()).collect()
    }

    /// The DAG kernel gives bit-identical loads and the same routable count
    /// and maximum utilization as the two-scan reference, on every family,
    /// healthy and under link and switch masks.
    #[test]
    fn dag_ecmp_matches_the_two_scan_reference_bit_for_bit() {
        let mut scratch = Scratch::default();
        for (name, net) in equivalence_fixtures() {
            let csr = CsrNet::build(&net);
            for seed in 0..3 {
                let demands = IndexedDemands::build(&csr, &seeded_traffic(&net, seed));
                for (what, masks) in equivalence_masks(&csr, seed) {
                    let case = format!("{name}, {what}, seed {seed}");
                    assert_ecmp_matches_reference(
                        &case,
                        &csr,
                        &demands,
                        masks.as_ref(),
                        &mut scratch,
                    );
                }
            }
        }
    }

    /// A network of `servers.len()` flat switches with those server ports,
    /// one link per `(a, b)`.
    fn small_net(name: &str, servers: &[u16], links: &[(usize, usize)]) -> Network {
        let mut n = Network::new(name);
        let s: Vec<SwitchId> = servers
            .iter()
            .enumerate()
            .map(|(i, &ports)| {
                let role = crate::SwitchRole::FlatTor;
                n.add_switch(format!("s{i}"), role, 0, 16, Gbps::new(100.0), ports, None)
            })
            .collect();
        for &(a, b) in links {
            n.add_link(s[a], s[b], Gbps::new(100.0), 1, false).unwrap();
        }
        n
    }

    /// [`equivalence_fixtures`], plus a network in two components (each
    /// with a switch that has no servers) and networks with no host and
    /// with one.
    fn uniform_fixtures() -> Vec<(&'static str, Network)> {
        let mut nets = equivalence_fixtures();
        nets.push((
            "two-components",
            small_net(
                "two",
                &[2, 2, 0, 2, 0, 2],
                &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)],
            ),
        ));
        nets.push(("no-hosts", small_net("none", &[0, 0, 0], &[(0, 1), (1, 2)])));
        nets.push(("one-host", small_net("one", &[0, 4, 0], &[(0, 1), (1, 2)])));
        nets
    }

    /// The one healthy pass equals what it replaced, on every
    /// [`uniform_fixtures`] network: see [`assert_healthy_pass_matches`].
    #[test]
    fn uniform_healthy_matches_all_pairs_and_reference_ecmp() {
        let mut scratch = Scratch::default();
        for (name, net) in uniform_fixtures() {
            assert_healthy_pass_matches(name, &net, &mut scratch);
        }
    }

    /// [`uniform_healthy`] on `net` against what it replaced: the loads bit
    /// for bit against the two-scan split over [`all_pairs_dist`] rows of
    /// the uniform matrix, the outcome against the fold of those loads, and
    /// the diameter and host hop sum and count against folds of the rows.
    fn assert_healthy_pass_matches(name: &str, net: &Network, scratch: &mut Scratch) {
        let csr = CsrNet::build(net);
        let rows = all_pairs_dist(&csr);
        let demands =
            IndexedDemands::build(&csr, &TrafficMatrix::uniform_servers(net, Gbps::new(1.0)));
        let mut want = vec![0.0; csr.link_count()];
        for (dst, sources) in &demands.by_dst {
            reference_process_dst(&csr, *dst, &rows[*dst as usize], sources, None, &mut want);
        }
        let hosts = csr.host_switches();
        let host_rows = hosts
            .iter()
            .flat_map(|&i| hosts.iter().map(move |&j| (i, j)));
        let host_dists: Vec<u64> = host_rows
            .filter(|&(i, j)| i != j && rows[i as usize][j as usize] != UNREACHABLE)
            .map(|(i, j)| u64::from(rows[i as usize][j as usize]))
            .collect();

        let pass = uniform_healthy(&csr, scratch);
        assert_eq!(
            bits(&take_loads(&csr, scratch)),
            bits(&want),
            "{name}: loads"
        );
        assert_eq!(
            pass.ecmp.max_utilization.to_bits(),
            reference_mlu(&csr, None, &want).to_bits(),
            "{name}: max utilization"
        );
        // Every connected pair of distinct hosts is a routable demand.
        assert_eq!(pass.ecmp.routable, host_dists.len(), "{name}: routable");
        let diameter = rows.iter().flatten().filter(|&&d| d != UNREACHABLE).max();
        assert_eq!(pass.diameter, *diameter.unwrap_or(&0), "{name}: diameter");
        assert_eq!(
            pass.host_hops,
            host_dists.iter().sum::<u64>(),
            "{name}: hop sum"
        );
        assert_eq!(pass.host_pairs, host_dists.len() as u64, "{name}: pairs");
    }

    /// The largest load ÷ capacity over alive links with positive capacity
    /// and load, folded from reference loads.
    fn reference_mlu(csr: &CsrNet, alive: Option<&Masks>, load: &[f64]) -> f64 {
        (0..csr.link_count())
            .filter(|&l| link_ok(alive, l as u32) && csr.capacity[l] > 0.0 && load[l] > 0.0)
            .map(|l| load[l] / csr.capacity[l])
            .fold(0.0, f64::max)
    }

    /// [`ecmp_evaluate`] against [`reference_ecmp`]: loads bit for bit,
    /// `routable`, and `max_utilization` against the fold of the reference
    /// loads.
    fn assert_ecmp_matches_reference(
        case: &str,
        csr: &CsrNet,
        demands: &IndexedDemands,
        masks: Option<&Masks>,
        scratch: &mut Scratch,
    ) {
        let (want, want_routable) = reference_ecmp(csr, demands, masks);
        let outcome = ecmp_evaluate(csr, demands, masks, scratch);
        assert_eq!(
            bits(&take_loads(csr, scratch)),
            bits(&want),
            "{case}: loads"
        );
        assert_eq!(outcome.routable, want_routable, "{case}: routable");
        assert_eq!(
            outcome.max_utilization.to_bits(),
            reference_mlu(csr, masks, &want).to_bits(),
            "{case}: max utilization"
        );
    }

    /// A ring of `hosts` host switches (two server ports each) followed by
    /// `transit` switches without servers, with seeded chords and a second,
    /// parallel link beside every seventh ring link: enough destinations to
    /// fill 64-destination sweeps and spill out of them.
    fn sweep_net(hosts: usize, transit: usize) -> Network {
        let n = hosts + transit;
        let mut servers = vec![2u16; hosts];
        servers.resize(n, 0);
        let mut links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        links.extend((0..n).step_by(7).map(|i| (i, (i + 1) % n)));
        let mut rng = crate::gen::SplitMix64::new(n as u64);
        for _ in 0..n / 2 {
            let (a, b) = (rng.below(n), rng.below(n));
            if a != b {
                links.push((a, b));
            }
        }
        small_net("sweep", &servers, &links)
    }

    /// Two hub switches and `leaves` leaf switches in a ring, every leaf
    /// linked to both hubs and every third one linked to hub 0 twice. Both
    /// hubs and three leaves in four carry servers. Each hub's adjacency
    /// spans more than 64 entries, and the leaves' short ones follow it,
    /// so some of them straddle a 64-entry word boundary.
    fn hub_net(leaves: usize) -> Network {
        let mut servers = vec![2u16, 2];
        servers.extend((0..leaves).map(|i| if i % 4 == 3 { 0 } else { 2 }));
        let leaf = |i: usize| 2 + i % leaves;
        let mut links: Vec<(usize, usize)> = (0..leaves).map(|i| (leaf(i), leaf(i + 1))).collect();
        for i in 0..leaves {
            links.push((0, leaf(i)));
            links.push((1, leaf(i)));
            if i % 3 == 0 {
                links.push((0, leaf(i)));
            }
        }
        small_net("hubs", &servers, &links)
    }

    /// Whether some host switch of `adj` spans more than 64 adjacency
    /// entries (the split's word loop), and whether some spans at most 64
    /// across a 64-entry word boundary (its funnel shift over two words).
    /// Every host switch splits flow toward each other destination it
    /// reaches, so both paths run when both hold.
    fn split_paths(adj: Adjacency<'_>, hosts: &[u32]) -> (bool, bool) {
        let ranges = hosts.iter().map(|&h| {
            let (lo, hi) = (
                adj.offsets[h as usize] as usize,
                adj.offsets[h as usize + 1] as usize,
            );
            (lo, hi)
        });
        let wide = ranges.clone().any(|(lo, hi)| hi - lo > SWEEP_WIDTH);
        let straddling = ranges.clone().any(|(lo, hi)| {
            hi - lo <= SWEEP_WIDTH && hi > lo && lo / SWEEP_WIDTH != (hi - 1) / SWEEP_WIDTH
        });
        (wide, straddling)
    }

    /// Host counts at and around the 64-destination sweep width, one with
    /// more switches without servers than one sweep takes, and
    /// [`hub_net`] (92 hosts), whose adjacency ranges exercise both ways
    /// the split reads a switch's downhill entries.
    fn sweep_fixtures() -> Vec<(String, Network)> {
        let mut nets: Vec<(String, Network)> =
            [(1, 4), (63, 3), (64, 3), (65, 3), (66, 70), (130, 6)]
                .into_iter()
                .map(|(hosts, transit)| (format!("{hosts} hosts"), sweep_net(hosts, transit)))
                .collect();
        nets.push(("hubs".to_string(), hub_net(120)));
        nets
    }

    /// Across sweep boundaries (1, 63, 64, 65, 66, 92 and 130 host
    /// destinations; 70 switches without servers) and across 64-entry
    /// word boundaries of the adjacency ([`hub_net`]), the healthy pass and
    /// healthy ECMP equal the references bit for bit.
    #[test]
    fn healthy_kernels_match_references_across_sweep_boundaries() {
        let mut scratch = Scratch::default();
        for (name, net) in sweep_fixtures() {
            assert_healthy_pass_matches(&name, &net, &mut scratch);
            let csr = CsrNet::build(&net);
            if name == "hubs" {
                let paths = split_paths(csr.full_adjacency(), &csr.host_switches());
                assert_eq!(paths, (true, true), "hubs: (word loop, funnel shift)");
            }
            let demands = IndexedDemands::build(&csr, &seeded_traffic(&net, 5));
            assert_ecmp_matches_reference(&name, &csr, &demands, None, &mut scratch);
        }
    }

    /// Masked ECMP equals the masked reference bit for bit across sweep
    /// and word boundaries: dead host switches inside a sweep (so the
    /// alive destinations of 66 and 130 hosts number 65, 64, 63, 129 and
    /// 127), with and without their links; every link between the two
    /// halves of the ring cut; and a seeded 10% of links down. On
    /// [`hub_net`], the alive adjacency still runs both ways of reading a
    /// switch's downhill entries under every mask.
    #[test]
    fn masked_ecmp_matches_the_reference_across_sweep_boundaries() {
        let mut scratch = Scratch::default();
        let mut alive_counts = Vec::new();
        for (name, net) in sweep_fixtures() {
            let csr = CsrNet::build(&net);
            let n = csr.switch_count() as u32;
            let hosts = csr.host_switches();
            let demands = IndexedDemands::build(&csr, &seeded_traffic(&net, 7));
            let mut cases: Vec<(String, Masks)> = Vec::new();
            let kill_sets: &[&[usize]] = match hosts.len() {
                66 => &[&[5], &[5, 30], &[5, 30, 50]],
                130 => &[&[63], &[0, 63, 64]],
                _ => &[],
            };
            for (kill, with_links) in kill_sets.iter().flat_map(|k| [(k, false), (k, true)]) {
                let mut masks = Masks::healthy(&csr);
                for &h in kill.iter() {
                    masks.switch_alive[hosts[h] as usize] = false;
                    if with_links {
                        for &(_, l) in csr.adjacency(hosts[h]) {
                            masks.link_alive[l as usize] = false;
                        }
                    }
                }
                cases.push((format!("hosts {kill:?} dead, links {with_links}"), masks));
            }
            let mut cut = Masks::healthy(&csr);
            for l in 0..csr.link_count() as u32 {
                let (a, b) = csr.link_ends(l);
                cut.link_alive[l as usize] = (a < n / 2) == (b < n / 2);
            }
            cases.push(("cut in two".to_string(), cut));
            let mut ids: Vec<u32> = (0..csr.link_count() as u32).collect();
            crate::gen::SplitMix64::new(u64::from(n)).shuffle(&mut ids);
            let mut random = Masks::healthy(&csr);
            for &l in &ids[..csr.link_count().div_ceil(10)] {
                random.link_alive[l as usize] = false;
            }
            cases.push(("10% links".to_string(), random));

            for (what, masks) in &cases {
                if name == "hubs" {
                    let (mut offsets, mut targets) = (Vec::new(), Vec::new());
                    let adj = compact_alive(&csr, masks, &mut offsets, &mut targets);
                    let paths = split_paths(adj, &hosts);
                    assert_eq!(
                        paths,
                        (true, true),
                        "hubs, {what}: (word loop, funnel shift)"
                    );
                }
                let alive = hosts
                    .iter()
                    .filter(|&&h| masks.switch_alive[h as usize])
                    .count();
                alive_counts.push(alive);
                let case = format!("{name}, {what} ({alive} alive destinations)");
                assert_ecmp_matches_reference(&case, &csr, &demands, Some(masks), &mut scratch);
            }
        }
        for want in [1, 63, 64, 65, 129] {
            assert!(alive_counts.contains(&want), "no case with {want}");
        }
    }

    /// Bit `c` of word `r` moved to bit `r` of word `c`, one bit at a time.
    fn naive_transpose(m: &[u64; SWEEP_WIDTH]) -> [u64; SWEEP_WIDTH] {
        let mut t = [0u64; SWEEP_WIDTH];
        for (r, &word) in m.iter().enumerate() {
            for (c, out) in t.iter_mut().enumerate() {
                *out |= (word >> c & 1) << r;
            }
        }
        t
    }

    /// [`transpose64`] equals the bit-by-bit transpose on seeded words and
    /// on all-zero, all-ones, diagonal, anti-diagonal and single-bit
    /// matrices, and transposing twice gives the input back.
    #[test]
    fn transpose64_matches_the_bit_by_bit_transpose() {
        let mut cases: Vec<(String, [u64; SWEEP_WIDTH])> = vec![
            ("zero".to_string(), [0; SWEEP_WIDTH]),
            ("ones".to_string(), [u64::MAX; SWEEP_WIDTH]),
            ("diagonal".to_string(), std::array::from_fn(|r| 1 << r)),
            (
                "anti-diagonal".to_string(),
                std::array::from_fn(|r| 1 << (63 - r)),
            ),
        ];
        for (r, c) in [
            (0, 0),
            (0, 63),
            (63, 0),
            (63, 63),
            (5, 40),
            (40, 5),
            (31, 32),
        ] {
            let mut m = [0; SWEEP_WIDTH];
            m[r] = 1 << c;
            cases.push((format!("bit ({r}, {c})"), m));
        }
        for seed in 0..16 {
            let mut rng = crate::gen::SplitMix64::new(seed);
            cases.push((
                format!("seed {seed}"),
                std::array::from_fn(|_| rng.next_u64()),
            ));
        }
        for (name, m) in cases {
            let mut t = m;
            transpose64(&mut t);
            assert_eq!(t, naive_transpose(&m), "{name}");
            transpose64(&mut t);
            assert_eq!(t, m, "{name}: twice");
        }
    }

    /// A sweep run only for its depth (the diameter over switches without
    /// servers) keeps no level bitmaps and writes no downhill words, and
    /// still finds the same depth as a sweep for the split.
    #[test]
    fn depth_only_sweeps_build_no_bitmaps() {
        let net = sweep_net(66, 70);
        let csr = CsrNet::build(&net);
        let mut sweep = Sweep::default();
        let dsts = || (0..SWEEP_WIDTH as u32).map(|i| i * 2);
        let depth = sweep.run(csr.full_adjacency(), dsts(), true);
        assert_eq!(
            sweep.levels.len(),
            usize::from(depth) * sweep.frontier.len()
        );
        let mut fresh = Sweep::default();
        assert_eq!(fresh.run(csr.full_adjacency(), dsts(), false), depth);
        assert!(fresh.levels.is_empty() && fresh.downhill.is_empty());
    }

    /// [`IndexedDemands::uniform`] is the lowering of the uniform
    /// `TrafficMatrix`, group for group and bit for bit.
    #[test]
    fn uniform_demands_equal_the_lowered_uniform_matrix() {
        for (name, net) in uniform_fixtures() {
            let csr = CsrNet::build(&net);
            for per_pair in [1.0, 2.5] {
                let tm = TrafficMatrix::uniform_servers(&net, Gbps::new(per_pair));
                assert_eq!(
                    format!("{:?}", IndexedDemands::uniform(&csr, Gbps::new(per_pair))),
                    format!("{:?}", IndexedDemands::build(&csr, &tm)),
                    "{name}, {per_pair} Gbps"
                );
            }
        }
    }
}
