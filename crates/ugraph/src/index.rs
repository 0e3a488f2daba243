//! Freeze-time reliability index ([`RelIndex`]): certain-edge condensation
//! plus possible-graph decomposition, so repeated queries against one frozen
//! graph skip work whose outcome is the same in **every** possible world.
//!
//! The index is computed once per [`CsrGraph`] and layers three structures:
//!
//! 1. **Certain-SCC condensation.** Edges with `p == 1.0` exist in every
//!    world, so mutual reachability through them is a world-independent
//!    equivalence: the strongly connected components of the deterministic
//!    subgraph (connected components, for undirected graphs) collapse into
//!    *supernodes*. Sampling then runs on the condensed graph — fewer nodes,
//!    fewer arcs — while every surviving arc keeps its **original coin id**,
//!    which is what keeps estimates bit-identical (see below). When nothing
//!    collapses (no certain cycle; in particular, no certain arc at all) the
//!    condensation is the identity: the index then holds no condensed copy
//!    and sampling runs on the original graph.
//! 2. **Possible-graph components + blocks.** Over the graph of edges with
//!    `p > 0` ("possible" edges), connected components are world-independent
//!    *separators*: an s-t query across components is 0.0 in every world and
//!    short-circuits without sampling. For undirected graphs the index
//!    additionally computes the biconnected blocks and the block-cut tree,
//!    so an s-t query prunes to the union of blocks on the tree path between
//!    `s` and `t` — the exact set of nodes that can lie on a simple s-t path.
//! 3. **Reachability closure / per-query BFS.** For directed graphs the
//!    index keeps per-supernode forward/reverse reachability bitsets over
//!    the possible graph (chunked rows, built only while the condensed graph
//!    is small) or falls back to one BFS pair per query. An s-t query prunes
//!    to `fwd(s) ∩ rev(t)`, and short-circuits to 0.0 when `t` is not even
//!    possibly reachable. A component that is strongly connected in the
//!    possible graph (one SCC of the `p > 0` arcs) needs neither: every
//!    node of it lies on some s-t path, so its plans are decided in `O(1)`.
//!
//! ## Why pruning preserves bit-identity
//!
//! Coin flips are stateless: the draw for `(seed, sample, coin)` is a pure
//! hash, independent of *when* — or *whether* — any other coin is flipped
//! (see `relmax-sampling`'s coin module). Removing nodes that provably
//! cannot lie on an s-t path from the traversal changes which coins get
//! hashed, but never the verdict "does this world connect `s` to `t`":
//! every world path survives the restriction, and no new path appears.
//! Condensation is exact for the same reason — certain edges are present in
//! every world, so contracting a certain SCC neither creates nor destroys
//! world connectivity between supernodes, and the per-world hit counts on
//! the condensed graph equal the original counts bit for bit. Estimates are
//! pure functions of those counts, so they match bit for bit too.
//!
//! The index answers *structural* questions only; it never touches the
//! sampled randomness. `RELMAX_INDEX=off` (see [`index_enabled`]) disables
//! the whole layer as an escape hatch.

use crate::csr::CsrGraph;
use crate::{flip_threshold, CoinId, NodeId, ProbGraph};
use std::sync::OnceLock;

/// Largest condensed-graph node count for which the directed reachability
/// closure (per-supernode forward/reverse bitsets) is precomputed. Beyond
/// it, s-t queries fall back to one BFS pair on the condensed graph.
const CLOSURE_NODE_LIMIT: usize = 1024;

/// Arc-count companion to [`CLOSURE_NODE_LIMIT`]: dense small graphs skip
/// the closure too, keeping index construction `O(n + m)`-ish.
const CLOSURE_ARC_LIMIT: usize = 1 << 17;

static ENV_INDEX: OnceLock<bool> = OnceLock::new();

/// Process-wide gate for the reliability index, read once and cached:
/// `RELMAX_INDEX=off` (or `0` / `false`) disables index construction and
/// routing everywhere it is consulted — the escape hatch that restores the
/// plain sample-everything paths. Anything else, or unset, enables it.
///
/// Estimates are bit-identical either way; the index is a pure performance
/// layer. Tests that need both modes in one process attach the index
/// explicitly instead of toggling the environment.
pub fn index_enabled() -> bool {
    *ENV_INDEX.get_or_init(|| match std::env::var("RELMAX_INDEX") {
        Ok(v) => !(v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false")),
        Err(_) => true,
    })
}

/// The persisted form of a [`RelIndex`]: two per-node label arrays, stored
/// as the optional index section of a version-2 `.rgs` snapshot (see
/// [`crate::snapshot`]). Everything else the index holds is derived
/// deterministically from these labels plus the graph itself, so the
/// section stays small and version-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSection {
    /// `super_of[v]` — the certain-SCC supernode of node `v`, numbered
    /// canonically by first appearance in node order (so `super_of[0] == 0`
    /// and id `k + 1` first appears after id `k`).
    pub super_of: Vec<u32>,
    /// `comp_of[v]` — the possible-graph component of node `v`, numbered
    /// canonically by first appearance in node order.
    pub comp_of: Vec<u32>,
}

/// Summary counters for display (`relmax index`) and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Nodes in the original graph.
    pub nodes: usize,
    /// Supernodes after certain-SCC condensation.
    pub supernodes: usize,
    /// Connected components of the possible graph.
    pub components: usize,
    /// Out-side arcs with `p == 1.0` in the original graph.
    pub certain_arcs: usize,
    /// Biconnected blocks of the condensed possible graph (undirected
    /// graphs only; 0 for directed).
    pub blocks: usize,
    /// Whether the directed reachability closure was precomputed.
    pub closure: bool,
}

/// Per-supernode forward/reverse reachability bitsets over the possible
/// graph (directed graphs below [`CLOSURE_NODE_LIMIT`] only).
#[derive(Debug, Clone, PartialEq)]
struct Closure {
    words: usize,
    /// Row `s`: the supernodes possibly reachable *from* `s` (self included).
    fwd: Vec<u64>,
    /// Row `t`: the supernodes that possibly *reach* `t` (self included).
    rev: Vec<u64>,
}

/// Biconnected blocks + block-cut tree of the condensed possible graph
/// (undirected graphs only).
#[derive(Debug, Clone, PartialEq)]
struct Blocks {
    num_blocks: usize,
    /// Member supernodes of each block (each node listed once per block).
    members: Vec<Vec<u32>>,
    /// Supernode → its block-cut tree node: its block id for non-cut
    /// vertices, `num_blocks + cut_index` for cut vertices, `u32::MAX` for
    /// edgeless supernodes.
    attach: Vec<u32>,
    /// Block-cut tree adjacency: blocks `0..num_blocks`, then cut vertices.
    adj: Vec<Vec<u32>>,
}

/// How an s-t query should run, as decided by [`RelIndex::st_plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum StPlan {
    /// `s` and `t` sit in the same certain supernode: the reliability is
    /// exactly 1.0 in every world — no sampling needed.
    Certain,
    /// No possible world connects `s` to `t` (different components, or no
    /// directed possible path): the reliability is exactly 0.0 — no
    /// sampling needed.
    Impossible,
    /// Sample between the mapped endpoints — on the [condensed
    /// graph](RelIndex::condensed), or on the original graph when the
    /// condensation is the identity — with an optional node mask
    /// restricting the traversal to supernodes that can lie on an s-t path
    /// (`None` when the mask would not prune anything).
    Sample {
        /// `s` mapped to its supernode in the condensed graph.
        s: NodeId,
        /// `t` mapped to its supernode in the condensed graph.
        t: NodeId,
        /// Bitset over condensed node ids; `None` disables masking.
        mask: Option<Vec<u64>>,
    },
}

/// Freeze-time reliability index over one [`CsrGraph`] — certain-edge
/// condensation, possible-graph decomposition, and per-query s-t pruning.
///
/// Build it once per frozen graph ([`RelIndex::build`]) and attach it to an
/// estimator or query engine; every structure it exposes is *world
/// independent*, so routing queries through it preserves bit-identical
/// estimates (see the [module docs](self)).
///
/// ```
/// use relmax_ugraph::index::{RelIndex, StPlan};
/// use relmax_ugraph::{NodeId, UncertainGraph};
///
/// let mut g = UncertainGraph::new(5, true);
/// g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap(); // certain cycle 0 <-> 1
/// g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
/// // nodes 3, 4 are a separate component
/// g.add_edge(NodeId(3), NodeId(4), 0.9).unwrap();
///
/// let idx = RelIndex::build(&g.freeze());
/// assert_eq!(idx.num_supernodes(), 4); // {0,1} condensed
/// assert_eq!(idx.num_components(), 2);
/// assert_eq!(idx.st_plan(NodeId(0), NodeId(1)), StPlan::Certain);
/// assert_eq!(idx.st_plan(NodeId(0), NodeId(3)), StPlan::Impossible);
/// assert!(matches!(idx.st_plan(NodeId(0), NodeId(2)), StPlan::Sample { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RelIndex {
    directed: bool,
    nodes: usize,
    coins: usize,
    certain_arcs: usize,
    super_of: Vec<u32>,
    num_super: usize,
    /// Possible-graph component of each supernode.
    comp_of_super: Vec<u32>,
    /// Component sizes, counted in supernodes.
    comp_size: Vec<u32>,
    num_comps: usize,
    /// Directed graphs: whether each possible-graph component is strongly
    /// connected in the possible graph. Every s-t plan inside such a
    /// component samples the whole component, so it needs no traversal.
    /// Empty for undirected graphs.
    comp_strong: Vec<bool>,
    /// The condensed graph over supernodes. `None` when the condensation
    /// is the identity and no plan needs a per-query BFS (undirected, or
    /// every directed plan is decided by the closure or `comp_strong`):
    /// the original graph then serves every purpose, so the index holds
    /// no second copy of it.
    condensed: Option<CsrGraph>,
    closure: Option<Closure>,
    blocks: Option<Blocks>,
}

impl RelIndex {
    /// Build the index for a frozen graph. `O(n + m)` plus, for small
    /// directed graphs (at most `CLOSURE_NODE_LIMIT` supernodes), the
    /// reachability closure.
    pub fn build(csr: &CsrGraph) -> RelIndex {
        let n = csr.num_nodes;
        let raw = if csr.directed {
            sccs_directed(csr, |p| p == 1.0)
        } else {
            certain_components_undirected(csr)
        };
        let (super_of, num_super) = canonicalize(raw, n);
        Self::assemble(csr, super_of, num_super)
    }

    /// Reconstruct the index from its persisted [`IndexSection`], verifying
    /// that the labels are structurally valid for `csr`. The derived
    /// structures (condensed graph, components, blocks, closure) are
    /// rebuilt deterministically, so a round-tripped index equals a freshly
    /// built one.
    pub fn from_section(csr: &CsrGraph, section: &IndexSection) -> Result<RelIndex, String> {
        let n = csr.num_nodes;
        if section.super_of.len() != n || section.comp_of.len() != n {
            return Err(format!(
                "index section sized for {} nodes but the graph has {n}",
                section.super_of.len()
            ));
        }
        // Canonical numbering: id k + 1 first appears only after id k.
        let mut num_super = 0usize;
        for (v, &s) in section.super_of.iter().enumerate() {
            if (s as usize) > num_super {
                return Err(format!("supernode ids are not canonical at node {v}"));
            }
            if (s as usize) == num_super {
                num_super += 1;
            }
        }
        // Undirected certain edges always merge their endpoints; a section
        // violating that cannot have come from this graph.
        if !csr.directed {
            for v in 0..n {
                for a in csr.out_off[v] as usize..csr.out_off[v + 1] as usize {
                    if csr.out_prob[a] == 1.0
                        && section.super_of[v] != section.super_of[csr.out_dst[a] as usize]
                    {
                        return Err(format!(
                            "certain edge ({v}, {}) spans two supernodes",
                            csr.out_dst[a]
                        ));
                    }
                }
            }
        }
        let idx = Self::assemble(csr, section.super_of.clone(), num_super);
        for v in 0..n {
            if section.comp_of[v] != idx.comp_of_super[idx.super_of[v] as usize] {
                return Err(format!(
                    "stored component of node {v} disagrees with the graph"
                ));
            }
        }
        Ok(idx)
    }

    fn assemble(csr: &CsrGraph, super_of: Vec<u32>, num_super: usize) -> RelIndex {
        // An identity condensation equals the original graph up to
        // self-loops, which no structure below depends on: derive
        // everything from `csr` instead of a copy of it.
        let identity = num_super == csr.num_nodes;
        let condensed = (!identity).then(|| build_condensed(csr, &super_of, num_super));
        let g = condensed.as_ref().unwrap_or(csr);
        let (comp_of_super, num_comps) = possible_components(g);
        let mut comp_size = vec![0u32; num_comps];
        for &c in &comp_of_super {
            comp_size[c as usize] += 1;
        }
        let closure = if g.directed
            && num_super <= CLOSURE_NODE_LIMIT
            && g.out_dst.len() <= CLOSURE_ARC_LIMIT
        {
            Some(build_closure(g))
        } else {
            None
        };
        let (blocks, comp_strong) = if g.directed {
            (None, strong_components(g, &comp_of_super, num_comps))
        } else {
            (Some(build_blocks(g)), Vec::new())
        };
        // Only the per-query BFS pair of `directed_mask` walks a graph
        // after construction; an identity index keeps a copy just for it.
        let needs_bfs = closure.is_none() && comp_strong.contains(&false);
        let condensed = match condensed {
            None if needs_bfs => Some(build_condensed(csr, &super_of, num_super)),
            condensed => condensed,
        };
        RelIndex {
            directed: csr.directed,
            nodes: csr.num_nodes,
            coins: csr.coin_prob.len(),
            certain_arcs: csr.out_prob.iter().filter(|&&p| p == 1.0).count(),
            super_of,
            num_super,
            comp_of_super,
            comp_size,
            num_comps,
            comp_strong,
            condensed,
            closure,
            blocks,
        }
    }

    /// The persisted form of this index (see [`IndexSection`]).
    pub fn section(&self) -> IndexSection {
        IndexSection {
            super_of: self.super_of.clone(),
            comp_of: self
                .super_of
                .iter()
                .map(|&s| self.comp_of_super[s as usize])
                .collect(),
        }
    }

    /// Whether this index was built for a graph with these dimensions.
    ///
    /// A cheap identity guard, not a content check: estimators use it to
    /// skip the index when handed a *different* graph shape (most
    /// importantly overlay views, whose coin space is strictly larger than
    /// the base graph's). Callers are responsible for attaching an index
    /// only alongside the graph it was built from.
    pub fn matches(&self, nodes: usize, coins: usize, directed: bool) -> bool {
        self.nodes == nodes && self.coins == coins && self.directed == directed
    }

    /// Nodes in the original graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Supernodes after certain-SCC condensation.
    pub fn num_supernodes(&self) -> usize {
        self.num_super
    }

    /// Connected components of the possible graph.
    pub fn num_components(&self) -> usize {
        self.num_comps
    }

    /// Whether condensation collapsed nothing (every node its own
    /// supernode): [`RelIndex::condensed`] is then `None`, and supernode
    /// ids are the original node ids.
    pub fn is_identity(&self) -> bool {
        self.num_super == self.nodes
    }

    /// The supernode of `v` — a node id of the [condensed
    /// graph](RelIndex::condensed).
    pub fn supernode(&self, v: NodeId) -> NodeId {
        NodeId(self.super_of[v.index()])
    }

    /// The possible-graph component of `v`.
    pub fn component(&self, v: NodeId) -> u32 {
        self.comp_of_super[self.super_of[v.index()] as usize]
    }

    /// Whether `s` and `t` share a possible-graph component. When they do
    /// not, `R(s, t) = 0` exactly.
    pub fn same_component(&self, s: NodeId, t: NodeId) -> bool {
        self.component(s) == self.component(t)
    }

    /// Whether `s` and `t` share a certain supernode. When they do,
    /// `R(s, t) = 1` exactly.
    pub fn same_supernode(&self, s: NodeId, t: NodeId) -> bool {
        self.super_of[s.index()] == self.super_of[t.index()]
    }

    /// The condensed sampling graph over supernodes. Arcs keep their
    /// original probabilities and **coin ids**; intra-supernode edges are
    /// dropped (they never affect reachability between supernodes).
    ///
    /// `None` when the condensation is the [identity](RelIndex::is_identity):
    /// sample the original graph instead, which gives the same verdicts in
    /// every world without a second copy of the graph.
    pub fn condensed(&self) -> Option<&CsrGraph> {
        self.condensed.as_ref().filter(|_| !self.is_identity())
    }

    /// Map per-supernode results back to per-node results: entry `v` is
    /// the value of `v`'s supernode. This is exact for reachability-style
    /// quantities because every node shares its supernode's fate in every
    /// world.
    pub fn expand<T: Clone>(&self, per_super: &[T]) -> Vec<T> {
        assert_eq!(per_super.len(), self.num_super, "expand: wrong input size");
        self.super_of
            .iter()
            .map(|&s| per_super[s as usize].clone())
            .collect()
    }

    /// Decide how an s-t query over the *original* node ids should run.
    /// See [`StPlan`].
    pub fn st_plan(&self, s: NodeId, t: NodeId) -> StPlan {
        let ss = self.super_of[s.index()];
        let tt = self.super_of[t.index()];
        if ss == tt {
            return StPlan::Certain;
        }
        if self.comp_of_super[ss as usize] != self.comp_of_super[tt as usize] {
            return StPlan::Impossible;
        }
        let mask = if self.directed {
            if self.comp_strong[self.comp_of_super[ss as usize] as usize] {
                // Strongly connected: t is possibly reachable and every
                // supernode of the component lies on some s-t path, which
                // is what `directed_mask` would find with two BFS.
                None
            } else {
                match self.directed_mask(ss, tt) {
                    Ok(mask) => mask,
                    Err(Unreachable) => return StPlan::Impossible,
                }
            }
        } else {
            self.undirected_mask(ss, tt)
        };
        StPlan::Sample {
            s: NodeId(ss),
            t: NodeId(tt),
            mask,
        }
    }

    /// Summary counters for display and tests.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            nodes: self.nodes,
            supernodes: self.num_super,
            components: self.num_comps,
            certain_arcs: self.certain_arcs,
            blocks: self.blocks.as_ref().map_or(0, |b| b.num_blocks),
            closure: self.closure.is_some(),
        }
    }

    /// Forward ∩ reverse possible reachability between two supernodes of a
    /// directed graph. `Err(Unreachable)` when `tt` is not possibly
    /// reachable at all; `Ok(None)` when the mask would admit everything
    /// forward-reachable anyway (masking would cost without pruning).
    fn directed_mask(&self, ss: u32, tt: u32) -> Result<Option<Vec<u64>>, Unreachable> {
        let words = self.num_super.div_ceil(64);
        let (fwd, rev);
        let (frow, rrow): (&[u64], &[u64]) = match &self.closure {
            Some(cl) => (
                &cl.fwd[ss as usize * words..][..words],
                &cl.rev[tt as usize * words..][..words],
            ),
            None => {
                let g = self
                    .condensed
                    .as_ref()
                    .expect("an index without a closure keeps its graph for non-strong components");
                fwd = reach_bits(g, ss, false);
                if !bit(&fwd, tt) {
                    return Err(Unreachable);
                }
                rev = reach_bits(g, tt, true);
                (&fwd, &rev)
            }
        };
        if !bit(frow, tt) {
            return Err(Unreachable);
        }
        let mut mask = vec![0u64; words];
        let (mut kept, mut forward) = (0u32, 0u32);
        for w in 0..words {
            mask[w] = frow[w] & rrow[w];
            kept += mask[w].count_ones();
            forward += frow[w].count_ones();
        }
        Ok(if kept == forward { None } else { Some(mask) })
    }

    /// Union of blocks on the block-cut tree path between two supernodes of
    /// an undirected graph — the exact set of supernodes that can lie on a
    /// simple s-t path. `None` when the path covers the whole component.
    fn undirected_mask(&self, ss: u32, tt: u32) -> Option<Vec<u64>> {
        let bl = self.blocks.as_ref()?;
        let (a, b) = (bl.attach[ss as usize], bl.attach[tt as usize]);
        if a == u32::MAX || b == u32::MAX {
            return None;
        }
        // BFS on the block-cut tree from a to b.
        let total = bl.adj.len();
        let mut parent = vec![u32::MAX; total];
        let mut queue = std::collections::VecDeque::new();
        parent[a as usize] = a;
        queue.push_back(a);
        let mut found = a == b;
        while let Some(x) = queue.pop_front() {
            if found {
                break;
            }
            for &y in &bl.adj[x as usize] {
                if parent[y as usize] == u32::MAX {
                    parent[y as usize] = x;
                    if y == b {
                        found = true;
                        break;
                    }
                    queue.push_back(y);
                }
            }
        }
        if !found {
            return None; // same component but no tree path: be conservative
        }
        let words = self.num_super.div_ceil(64);
        let mut mask = vec![0u64; words];
        let mut walk = b;
        loop {
            if (walk as usize) < bl.num_blocks {
                for &v in &bl.members[walk as usize] {
                    mask[v as usize >> 6] |= 1u64 << (v & 63);
                }
            }
            if walk == a {
                break;
            }
            walk = parent[walk as usize];
        }
        // Endpoints are members of path blocks already; set defensively.
        mask[ss as usize >> 6] |= 1u64 << (ss & 63);
        mask[tt as usize >> 6] |= 1u64 << (tt & 63);
        let kept: u32 = mask.iter().map(|w| w.count_ones()).sum();
        let comp = self.comp_of_super[ss as usize] as usize;
        if kept >= self.comp_size[comp] {
            None
        } else {
            Some(mask)
        }
    }
}

/// Marker for "t is not possibly reachable" inside [`RelIndex::st_plan`].
struct Unreachable;

#[inline]
fn bit(words: &[u64], i: u32) -> bool {
    words[i as usize >> 6] >> (i & 63) & 1 == 1
}

/// Renumber arbitrary component labels canonically: first appearance in
/// node order gets the next id. Returns the relabeled array and the count.
fn canonicalize(mut labels: Vec<u32>, n: usize) -> (Vec<u32>, usize) {
    let mut remap = vec![u32::MAX; n];
    let mut next = 0u32;
    for l in labels.iter_mut() {
        let r = &mut remap[*l as usize];
        if *r == u32::MAX {
            *r = next;
            next += 1;
        }
        *l = *r;
    }
    (labels, next as usize)
}

/// Connected components of the `p == 1.0` subgraph of an undirected graph.
fn certain_components_undirected(csr: &CsrGraph) -> Vec<u32> {
    let n = csr.num_nodes;
    let mut label = vec![u32::MAX; n];
    let mut stack = Vec::new();
    let mut next = 0u32;
    for v in 0..n {
        if label[v] != u32::MAX {
            continue;
        }
        label[v] = next;
        stack.push(v as u32);
        while let Some(x) = stack.pop() {
            let xi = x as usize;
            for a in csr.out_off[xi] as usize..csr.out_off[xi + 1] as usize {
                let u = csr.out_dst[a];
                if csr.out_prob[a] == 1.0 && label[u as usize] == u32::MAX {
                    label[u as usize] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    label
}

/// Strongly connected components of the subgraph of arcs whose
/// probability satisfies `keep` (iterative Tarjan): `p == 1.0` gives the
/// certain SCCs, `p > 0.0` those of the possible graph.
fn sccs_directed(csr: &CsrGraph, keep: impl Fn(f64) -> bool) -> Vec<u32> {
    let n = csr.num_nodes;
    let mut disc = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![u32::MAX; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, u32)> = Vec::new();
    let mut timer = 0u32;
    let mut count = 0u32;
    for root in 0..n as u32 {
        if disc[root as usize] != 0 {
            continue;
        }
        timer += 1;
        disc[root as usize] = timer;
        low[root as usize] = timer;
        stack.push(root);
        on_stack[root as usize] = true;
        call.push((root, csr.out_off[root as usize]));
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            let vi = v as usize;
            let end = csr.out_off[vi + 1];
            let mut descended = false;
            while *cursor < end {
                let a = *cursor as usize;
                *cursor += 1;
                if !keep(csr.out_prob[a]) {
                    continue;
                }
                let u = csr.out_dst[a];
                let ui = u as usize;
                if disc[ui] == 0 {
                    timer += 1;
                    disc[ui] = timer;
                    low[ui] = timer;
                    stack.push(u);
                    on_stack[ui] = true;
                    call.push((u, csr.out_off[ui]));
                    descended = true;
                    break;
                } else if on_stack[ui] {
                    low[vi] = low[vi].min(disc[ui]);
                }
            }
            if descended {
                continue;
            }
            call.pop();
            if let Some(&mut (p, _)) = call.last_mut() {
                let pi = p as usize;
                low[pi] = low[pi].min(low[vi]);
            }
            if low[vi] == disc[vi] {
                loop {
                    let w = stack.pop().expect("Tarjan stack holds the SCC");
                    on_stack[w as usize] = false;
                    comp[w as usize] = count;
                    if w == v {
                        break;
                    }
                }
                count += 1;
            }
        }
    }
    comp
}

/// Per possible-graph component of a directed graph: whether it is one
/// strongly connected component of the possible graph.
fn strong_components(g: &CsrGraph, comp_of: &[u32], num_comps: usize) -> Vec<bool> {
    let scc = sccs_directed(g, |p| p > 0.0);
    let mut first = vec![u32::MAX; num_comps];
    let mut strong = vec![true; num_comps];
    for (v, &c) in comp_of.iter().enumerate() {
        let c = c as usize;
        if first[c] == u32::MAX {
            first[c] = scc[v];
        } else if first[c] != scc[v] {
            strong[c] = false;
        }
    }
    strong
}

/// Build the condensed sampling graph: supernodes as nodes, every arc whose
/// endpoints map to different supernodes kept **in original order** with its
/// original probability and coin id, intra-supernode arcs dropped. The coin
/// table is carried over verbatim (coin ids must stay stable), with coin
/// endpoints remapped to supernodes.
fn build_condensed(csr: &CsrGraph, super_of: &[u32], num_super: usize) -> CsrGraph {
    // Members of each supernode in ascending node order.
    let mut start = vec![0u32; num_super + 1];
    for &s in super_of {
        start[s as usize + 1] += 1;
    }
    for i in 0..num_super {
        start[i + 1] += start[i];
    }
    let mut cursor = start.clone();
    let mut members = vec![0u32; csr.num_nodes];
    for (v, &s) in super_of.iter().enumerate() {
        members[cursor[s as usize] as usize] = v as u32;
        cursor[s as usize] += 1;
    }

    let build_side = |off: &[u32], dst: &[u32], prob: &[f64], coin: &[u32]| {
        let mut n_off = Vec::with_capacity(num_super + 1);
        let mut n_dst = Vec::new();
        let mut n_prob = Vec::new();
        let mut n_coin = Vec::new();
        n_off.push(0u32);
        for su in 0..num_super {
            for &v in &members[start[su] as usize..start[su + 1] as usize] {
                let vi = v as usize;
                for a in off[vi] as usize..off[vi + 1] as usize {
                    let d = super_of[dst[a] as usize];
                    if d as usize != su {
                        n_dst.push(d);
                        n_prob.push(prob[a]);
                        n_coin.push(coin[a]);
                    }
                }
            }
            n_off.push(n_dst.len() as u32);
        }
        (n_off, n_dst, n_prob, n_coin)
    };

    let (out_off, out_dst, out_prob, out_coin) =
        build_side(&csr.out_off, &csr.out_dst, &csr.out_prob, &csr.out_coin);
    let out_thresh: Vec<u64> = out_prob.iter().map(|&p| flip_threshold(p)).collect();
    let (in_off, in_dst, in_prob, in_coin) = if csr.directed {
        build_side(&csr.in_off, &csr.in_dst, &csr.in_prob, &csr.in_coin)
    } else {
        (Vec::new(), Vec::new(), Vec::new(), Vec::new())
    };
    let in_thresh: Vec<u64> = in_prob.iter().map(|&p| flip_threshold(p)).collect();
    CsrGraph {
        directed: csr.directed,
        num_nodes: num_super,
        out_off: out_off.into(),
        out_dst: out_dst.into(),
        out_prob: out_prob.into(),
        out_coin: out_coin.into(),
        out_thresh: out_thresh.into(),
        in_off: in_off.into(),
        in_dst: in_dst.into(),
        in_prob: in_prob.into(),
        in_coin: in_coin.into(),
        in_thresh: in_thresh.into(),
        coin_prob: csr.coin_prob.clone(),
        coin_src: csr
            .coin_src
            .iter()
            .map(|&s| super_of[s as usize])
            .collect::<Vec<u32>>()
            .into(),
        coin_dst: csr
            .coin_dst
            .iter()
            .map(|&d| super_of[d as usize])
            .collect::<Vec<u32>>()
            .into(),
    }
}

/// Connected components of the possible graph (`p > 0` arcs, both
/// directions for directed graphs), labeled canonically.
fn possible_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let n = g.num_nodes;
    let mut label = vec![u32::MAX; n];
    let mut stack = Vec::new();
    let mut next = 0u32;
    for v in 0..n {
        if label[v] != u32::MAX {
            continue;
        }
        label[v] = next;
        stack.push(v as u32);
        while let Some(x) = stack.pop() {
            let xi = x as usize;
            let mut visit = |off: &[u32], dst: &[u32], prob: &[f64]| {
                for a in off[xi] as usize..off[xi + 1] as usize {
                    let u = dst[a];
                    if prob[a] > 0.0 && label[u as usize] == u32::MAX {
                        label[u as usize] = next;
                        stack.push(u);
                    }
                }
            };
            visit(&g.out_off, &g.out_dst, &g.out_prob);
            if g.directed {
                visit(&g.in_off, &g.in_dst, &g.in_prob);
            }
        }
        next += 1;
    }
    (label, next as usize)
}

/// Possible-reachability bitset from `start` (forward, or reverse over the
/// in-side). The start node's own bit is set.
fn reach_bits(g: &CsrGraph, start: u32, reverse: bool) -> Vec<u64> {
    let words = g.num_nodes.div_ceil(64);
    let mut seen = vec![0u64; words];
    seen[start as usize >> 6] |= 1u64 << (start & 63);
    let mut stack = vec![start];
    let (off, dst, prob) = if reverse {
        (&g.in_off, &g.in_dst, &g.in_prob)
    } else {
        (&g.out_off, &g.out_dst, &g.out_prob)
    };
    while let Some(x) = stack.pop() {
        let xi = x as usize;
        for a in off[xi] as usize..off[xi + 1] as usize {
            let u = dst[a];
            if prob[a] > 0.0 && !bit(&seen, u) {
                seen[u as usize >> 6] |= 1u64 << (u & 63);
                stack.push(u);
            }
        }
    }
    seen
}

/// Forward/reverse possible-reachability closure (small directed graphs).
fn build_closure(g: &CsrGraph) -> Closure {
    let n = g.num_nodes;
    let words = n.div_ceil(64);
    let mut fwd = vec![0u64; n * words];
    let mut rev = vec![0u64; n * words];
    for v in 0..n as u32 {
        let row = v as usize * words;
        fwd[row..row + words].copy_from_slice(&reach_bits(g, v, false));
        rev[row..row + words].copy_from_slice(&reach_bits(g, v, true));
    }
    Closure { words, fwd, rev }
}

/// Biconnected blocks and block-cut tree of an undirected possible graph
/// (iterative Hopcroft–Tarjan; parallel edges are distinguished by coin id,
/// so a doubled edge correctly forms a biconnected pair, not a bridge).
fn build_blocks(g: &CsrGraph) -> Blocks {
    let n = g.num_nodes;
    let mut disc = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut parent_coin = vec![u32::MAX; n];
    let mut timer = 0u32;
    let mut estack: Vec<(u32, u32)> = Vec::new();
    let mut block_edges: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut call: Vec<(u32, u32)> = Vec::new();
    for root in 0..n as u32 {
        if disc[root as usize] != 0 {
            continue;
        }
        timer += 1;
        disc[root as usize] = timer;
        low[root as usize] = timer;
        call.push((root, g.out_off[root as usize]));
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            let vi = v as usize;
            let end = g.out_off[vi + 1];
            let mut descended = false;
            while *cursor < end {
                let a = *cursor as usize;
                *cursor += 1;
                if g.out_prob[a] == 0.0 {
                    continue;
                }
                let c = g.out_coin[a];
                if c == parent_coin[vi] {
                    // The reverse arc of the tree edge into v: skip exactly
                    // one occurrence, so parallel edges still count.
                    parent_coin[vi] = u32::MAX;
                    continue;
                }
                let u = g.out_dst[a];
                let ui = u as usize;
                if disc[ui] == 0 {
                    timer += 1;
                    disc[ui] = timer;
                    low[ui] = timer;
                    parent_coin[ui] = c;
                    estack.push((v, u));
                    call.push((u, g.out_off[ui]));
                    descended = true;
                    break;
                } else if disc[ui] < disc[vi] {
                    estack.push((v, u));
                    low[vi] = low[vi].min(disc[ui]);
                }
            }
            if descended {
                continue;
            }
            call.pop();
            if let Some(&mut (p, _)) = call.last_mut() {
                let pi = p as usize;
                low[pi] = low[pi].min(low[vi]);
                if low[vi] >= disc[pi] {
                    // (p, v) closes a block: pop through the tree edge.
                    let mut edges = Vec::new();
                    loop {
                        let e = estack.pop().expect("edge stack holds the block");
                        edges.push(e);
                        if e == (p, v) {
                            break;
                        }
                    }
                    block_edges.push(edges);
                }
            }
        }
    }

    // Edge lists -> member sets (deduped with an epoch mark).
    let mut mark = vec![u32::MAX; n];
    let mut members: Vec<Vec<u32>> = Vec::with_capacity(block_edges.len());
    for (b, edges) in block_edges.iter().enumerate() {
        let mut mem = Vec::new();
        for &(x, y) in edges {
            for v in [x, y] {
                if mark[v as usize] != b as u32 {
                    mark[v as usize] = b as u32;
                    mem.push(v);
                }
            }
        }
        mem.sort_unstable();
        members.push(mem);
    }

    let num_blocks = members.len();
    let mut block_count = vec![0u32; n];
    let mut first_block = vec![u32::MAX; n];
    for (b, mem) in members.iter().enumerate() {
        for &v in mem {
            block_count[v as usize] += 1;
            if first_block[v as usize] == u32::MAX {
                first_block[v as usize] = b as u32;
            }
        }
    }
    let mut cut_idx = vec![u32::MAX; n];
    let mut cuts = 0u32;
    for v in 0..n {
        if block_count[v] >= 2 {
            cut_idx[v] = cuts;
            cuts += 1;
        }
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_blocks + cuts as usize];
    for (b, mem) in members.iter().enumerate() {
        for &v in mem {
            if cut_idx[v as usize] != u32::MAX {
                let c = num_blocks as u32 + cut_idx[v as usize];
                adj[b].push(c);
                adj[c as usize].push(b as u32);
            }
        }
    }
    let attach = (0..n)
        .map(|v| {
            if cut_idx[v] != u32::MAX {
                num_blocks as u32 + cut_idx[v]
            } else {
                first_block[v]
            }
        })
        .collect();
    Blocks {
        num_blocks,
        members,
        attach,
        adj,
    }
}

/// A [`ProbGraph`] view that hides every arc whose head is outside an
/// allowed-node bitset.
///
/// Used by index-routed s-t estimation: the mask holds the nodes that can
/// lie on an s-t path, so hiding the rest never changes whether a sampled
/// world connects `s` to `t` — while the kernels' coin flips stay keyed to
/// the same `(seed, sample, coin)` triples (coins are stateless, so
/// *skipping* flips cannot perturb the ones still made). Node ids, coin
/// ids, and `num_nodes` are those of the base graph.
#[derive(Debug, Clone, Copy)]
pub struct PrunedGraph<'a, G: ProbGraph> {
    base: &'a G,
    allowed: &'a [u64],
}

impl<'a, G: ProbGraph> PrunedGraph<'a, G> {
    /// Wrap `base`, admitting only arcs whose target bit is set in
    /// `allowed` (a bitset over node ids, at least `ceil(n / 64)` words).
    pub fn new(base: &'a G, allowed: &'a [u64]) -> Self {
        debug_assert!(allowed.len() >= base.num_nodes().div_ceil(64));
        PrunedGraph { base, allowed }
    }
}

/// Iterator adapter behind [`PrunedGraph`]: filters arcs by target node.
pub struct MaskedArcs<'a, I> {
    inner: I,
    allowed: &'a [u64],
}

impl<T, I: Iterator<Item = (NodeId, T, CoinId)>> Iterator for MaskedArcs<'_, I> {
    type Item = (NodeId, T, CoinId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let allowed = self.allowed;
        self.inner
            .find(|&(u, _, _)| allowed[u.index() >> 6] >> (u.index() & 63) & 1 == 1)
    }
}

impl<G: ProbGraph> ProbGraph for PrunedGraph<'_, G> {
    type OutArcs<'b>
        = MaskedArcs<'b, G::OutArcs<'b>>
    where
        Self: 'b;
    type InArcs<'b>
        = MaskedArcs<'b, G::InArcs<'b>>
    where
        Self: 'b;
    type FlipArcs<'b>
        = MaskedArcs<'b, G::FlipArcs<'b>>
    where
        Self: 'b;

    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    fn num_coins(&self) -> usize {
        self.base.num_coins()
    }

    fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    fn out_arcs(&self, v: NodeId) -> Self::OutArcs<'_> {
        MaskedArcs {
            inner: self.base.out_arcs(v),
            allowed: self.allowed,
        }
    }

    fn in_arcs(&self, v: NodeId) -> Self::InArcs<'_> {
        MaskedArcs {
            inner: self.base.in_arcs(v),
            allowed: self.allowed,
        }
    }

    fn out_flips(&self, v: NodeId) -> Self::FlipArcs<'_> {
        MaskedArcs {
            inner: self.base.out_flips(v),
            allowed: self.allowed,
        }
    }

    fn in_flips(&self, v: NodeId) -> Self::FlipArcs<'_> {
        MaskedArcs {
            inner: self.base.in_flips(v),
            allowed: self.allowed,
        }
    }

    fn coin_prob(&self, c: CoinId) -> f64 {
        self.base.coin_prob(c)
    }

    fn coin_endpoints(&self, c: CoinId) -> (NodeId, NodeId) {
        self.base.coin_endpoints(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UncertainGraph;

    fn freeze(g: &UncertainGraph) -> CsrGraph {
        g.freeze()
    }

    #[test]
    fn directed_certain_cycle_condenses_but_chain_does_not() {
        let mut g = UncertainGraph::new(4, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap(); // one-way certain
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_supernodes(), 3);
        assert_eq!(idx.supernode(NodeId(0)), idx.supernode(NodeId(1)));
        assert_ne!(idx.supernode(NodeId(2)), idx.supernode(NodeId(3)));
        // Canonical numbering: first appearance in node order.
        assert_eq!(idx.supernode(NodeId(0)).0, 0);
        assert_eq!(idx.supernode(NodeId(2)).0, 1);
        assert_eq!(idx.supernode(NodeId(3)).0, 2);
        // One-way certain arc still short-circuits the plan via reachability
        // in the *value* sense: st(2, 3) samples (p==1 arc always present).
        assert!(matches!(
            idx.st_plan(NodeId(2), NodeId(3)),
            StPlan::Sample { .. }
        ));
    }

    #[test]
    fn undirected_certain_edges_merge_components_of_them() {
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_supernodes(), 2);
        assert_eq!(idx.st_plan(NodeId(0), NodeId(2)), StPlan::Certain);
        assert_eq!(idx.num_components(), 1);
        // Condensed graph keeps the uncertain edge with its original coin.
        let c = idx.condensed().expect("two nodes merged");
        assert_eq!(c.num_nodes(), 2);
        let arcs: Vec<_> = c.out_arcs(NodeId(0)).collect();
        assert_eq!(arcs, vec![(NodeId(1), 0.5, 2)]);
    }

    #[test]
    fn cross_component_is_impossible_and_components_are_canonical() {
        let mut g = UncertainGraph::new(5, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(3), NodeId(4), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_components(), 3); // {0,1} {2} {3,4}
        assert_eq!(idx.component(NodeId(0)), 0);
        assert_eq!(idx.component(NodeId(2)), 1);
        assert_eq!(idx.component(NodeId(3)), 2);
        assert_eq!(idx.st_plan(NodeId(0), NodeId(3)), StPlan::Impossible);
        assert_eq!(idx.st_plan(NodeId(1), NodeId(2)), StPlan::Impossible);
        assert!(!idx.same_component(NodeId(0), NodeId(2)));
    }

    #[test]
    fn directed_unreachable_within_component_is_impossible() {
        // 0 -> 1 <- 2: same weak component, but 1 cannot reach 2.
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(2), NodeId(1), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_components(), 1);
        assert_eq!(idx.st_plan(NodeId(1), NodeId(2)), StPlan::Impossible);
        assert_eq!(idx.st_plan(NodeId(0), NodeId(2)), StPlan::Impossible);
        assert!(matches!(
            idx.st_plan(NodeId(0), NodeId(1)),
            StPlan::Sample { .. }
        ));
    }

    #[test]
    fn zero_probability_edges_do_not_connect() {
        let mut g = UncertainGraph::new(2, false);
        g.add_edge(NodeId(0), NodeId(1), 0.0).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_components(), 2);
        assert_eq!(idx.st_plan(NodeId(0), NodeId(1)), StPlan::Impossible);
    }

    #[test]
    fn undirected_block_path_prunes_side_branches() {
        // Path 0-1-2-3 with a pendant 4 off node 1 and a pendant 5 off 3.
        let mut g = UncertainGraph::new(6, false);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 4), (3, 5)] {
            g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
        }
        let idx = RelIndex::build(&freeze(&g));
        let StPlan::Sample { s, t, mask } = idx.st_plan(NodeId(0), NodeId(2)) else {
            panic!("expected a sampling plan");
        };
        assert_eq!((s, t), (NodeId(0), NodeId(2)));
        let mask = mask.expect("side branches should be pruned");
        let allowed: Vec<u32> = (0..6).filter(|&v| bit(&mask, v)).collect();
        // Only the nodes on the 0..2 path survive; 3, 4, 5 are pruned.
        assert_eq!(allowed, vec![0, 1, 2]);
    }

    #[test]
    fn directed_mask_intersects_forward_and_reverse_reach() {
        // Diamond 0 -> {1, 2} -> 3 plus a sink 0 -> 4.
        let mut g = UncertainGraph::new(5, true);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)] {
            g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
        }
        let idx = RelIndex::build(&freeze(&g));
        let StPlan::Sample { mask, .. } = idx.st_plan(NodeId(0), NodeId(3)) else {
            panic!("expected a sampling plan");
        };
        let mask = mask.expect("node 4 cannot lie on a 0-3 path");
        let allowed: Vec<u32> = (0..5).filter(|&v| bit(&mask, v)).collect();
        assert_eq!(allowed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pruned_graph_hides_arcs_into_masked_nodes() {
        let mut g = UncertainGraph::new(3, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        let csr = freeze(&g);
        let allowed = vec![0b011u64]; // nodes 0, 1
        let pg = PrunedGraph::new(&csr, &allowed);
        assert_eq!(pg.num_nodes(), 3);
        let arcs: Vec<_> = pg.out_arcs(NodeId(0)).collect();
        assert_eq!(arcs, vec![(NodeId(1), 0.5, 0)]);
        let flips: Vec<_> = pg.out_flips(NodeId(0)).map(|(u, _, c)| (u, c)).collect();
        assert_eq!(flips, vec![(NodeId(1), 0)]);
    }

    #[test]
    fn section_round_trips_and_detects_tampering() {
        let mut g = UncertainGraph::new(6, true);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        g.add_edge(NodeId(4), NodeId(5), 0.25).unwrap();
        let csr = freeze(&g);
        let idx = RelIndex::build(&csr);
        let section = idx.section();
        let back = RelIndex::from_section(&csr, &section).unwrap();
        assert_eq!(back, idx);

        let mut bad = section.clone();
        bad.comp_of[5] = 0; // lie about the component structure
        assert!(RelIndex::from_section(&csr, &bad).is_err());
        let mut bad = section.clone();
        bad.super_of[0] = 1; // non-canonical numbering
        assert!(RelIndex::from_section(&csr, &bad).is_err());
        let mut bad = section;
        bad.super_of.pop();
        assert!(RelIndex::from_section(&csr, &bad).is_err());
    }

    #[test]
    fn expand_maps_supernode_values_back_to_nodes() {
        let mut g = UncertainGraph::new(3, false);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert_eq!(idx.num_supernodes(), 2);
        // Nodes 0 and 1 share supernode 0; node 2 is supernode 1.
        assert_eq!(idx.expand(&[10u64, 20u64]), vec![10, 10, 20]);
    }

    #[test]
    fn stats_report_counts() {
        let mut g = UncertainGraph::new(4, false);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        let s = RelIndex::build(&freeze(&g)).stats();
        assert_eq!(s.nodes, 4);
        assert_eq!(s.supernodes, 3);
        assert_eq!(s.components, 2);
        assert_eq!(s.certain_arcs, 2); // undirected edge counted on both sides
        assert!(s.blocks >= 1);
        assert!(!s.closure);
    }

    /// `parts` weak components of `size` nodes each. Even parts are a
    /// possible cycle plus chords (strongly connected); odd parts a chain
    /// plus forward chords, closed by a `p = 0` arc that the possible graph
    /// must ignore (not strongly connected). With `certain > 0`, that share
    /// of the arcs has `p = 1` and a certain 2-cycle `0 <-> 1` collapses
    /// the head of every part; with 0 the condensation is the identity.
    fn components_graph(seed: u64, parts: usize, size: usize, certain: f64) -> CsrGraph {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = UncertainGraph::new(parts * size, true);
        for part in 0..parts {
            let base = (part * size) as u32;
            let strong = part % 2 == 0;
            let prob = |rng: &mut StdRng| {
                if rng.gen_bool(certain) {
                    1.0
                } else {
                    rng.gen_range(0.1..0.9)
                }
            };
            for i in 0..size as u32 - 1 {
                let p = if i == 0 && certain > 0.0 {
                    1.0
                } else {
                    prob(&mut rng)
                };
                g.add_edge(NodeId(base + i), NodeId(base + i + 1), p)
                    .unwrap();
            }
            if certain > 0.0 {
                g.add_edge(NodeId(base + 1), NodeId(base), 1.0).unwrap();
            }
            let last = base + size as u32 - 1;
            let close = if strong { prob(&mut rng) } else { 0.0 };
            g.add_edge(NodeId(last), NodeId(base), close).unwrap();
            for _ in 0..size / 2 {
                let a = rng.gen_range(0..size as u32);
                let b = rng.gen_range(0..size as u32);
                let (a, b) = if strong { (a, b) } else { (a.min(b), a.max(b)) };
                if a != b {
                    let p = prob(&mut rng);
                    let _ = g.add_edge(NodeId(base + a), NodeId(base + b), p);
                }
            }
        }
        freeze(&g)
    }

    /// The plan the per-query BFS pair decides, without the closure or the
    /// strong-component check.
    fn bfs_plan(idx: &RelIndex, csr: &CsrGraph, s: NodeId, t: NodeId) -> StPlan {
        let g = idx.condensed().unwrap_or(csr);
        let (ss, tt) = (idx.supernode(s).0, idx.supernode(t).0);
        if ss == tt {
            return StPlan::Certain;
        }
        let fwd = reach_bits(g, ss, false);
        if !bit(&fwd, tt) {
            return StPlan::Impossible;
        }
        let rev = reach_bits(g, tt, true);
        let mask: Vec<u64> = fwd.iter().zip(&rev).map(|(f, r)| f & r).collect();
        StPlan::Sample {
            s: NodeId(ss),
            t: NodeId(tt),
            mask: (mask != fwd).then_some(mask),
        }
    }

    #[test]
    fn strong_component_plans_equal_the_bfs_plans() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Below and above CLOSURE_NODE_LIMIT, identity and condensed.
        for (seed, parts, size, certain) in [
            (1u64, 4usize, 40usize, 0.0),
            (2, 4, 40, 0.15),
            (3, 4, 400, 0.0),
            (4, 5, 300, 0.15),
        ] {
            let csr = components_graph(seed, parts, size, certain);
            let idx = RelIndex::build(&csr);
            assert_eq!(idx.closure.is_some(), parts * size <= CLOSURE_NODE_LIMIT);
            assert_eq!(idx.is_identity(), certain == 0.0, "seed {seed}");
            assert_eq!(idx.comp_strong.len(), parts);
            let strong = idx.comp_strong.iter().filter(|&&x| x).count();
            assert!(
                strong > 0 && strong < parts,
                "seed {seed}: {:?}",
                idx.comp_strong
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut decided, mut masked) = (0, 0);
            for _ in 0..400 {
                let s = rng.gen_range(0..(parts * size) as u32);
                // Mostly pairs inside one component, where plans differ.
                let t = if rng.gen_bool(0.8) {
                    s / size as u32 * size as u32 + rng.gen_range(0..size as u32)
                } else {
                    rng.gen_range(0..(parts * size) as u32)
                };
                let (s, t) = (NodeId(s), NodeId(t));
                let plan = idx.st_plan(s, t);
                assert_eq!(
                    plan,
                    bfs_plan(&idx, &csr, s, t),
                    "seed {seed} ({s:?}, {t:?})"
                );
                let in_strong = idx.comp_strong[idx.component(s) as usize];
                match plan {
                    StPlan::Sample { mask: None, .. } if in_strong => decided += 1,
                    StPlan::Sample { mask: Some(_), .. } => masked += 1,
                    _ => {}
                }
            }
            assert!(decided > 0 && masked > 0, "seed {seed}: {decided} {masked}");
        }
    }

    #[test]
    fn identity_index_holds_no_graph_copy_unless_a_bfs_needs_it() {
        // All strong, above the closure limit: plans never walk a graph.
        let mut g = UncertainGraph::new(2000, true);
        for v in 0..2000u32 {
            g.add_edge(NodeId(v), NodeId((v + 1) % 2000), 0.5).unwrap();
            let _ = g.add_edge(NodeId(v), NodeId((v * 7 + 3) % 2000), 0.25);
        }
        let idx = RelIndex::build(&freeze(&g));
        assert!(idx.is_identity() && idx.closure.is_none());
        assert!(idx.condensed.is_none() && idx.condensed().is_none());
        // A non-strong component above the limit keeps a copy for its
        // BFS pair, yet still samples the original graph.
        let csr = components_graph(5, 4, 400, 0.0);
        let idx = RelIndex::build(&csr);
        assert!(idx.condensed.is_some() && idx.condensed().is_none());
        // Undirected: the block-cut tree decides every plan.
        let mut g = UncertainGraph::new(2000, false);
        for v in 0..1999u32 {
            g.add_edge(NodeId(v), NodeId(v + 1), 0.5).unwrap();
        }
        let idx = RelIndex::build(&freeze(&g));
        assert!(idx.condensed.is_none());
    }

    #[test]
    fn matches_guards_dimensions() {
        let mut g = UncertainGraph::new(2, true);
        g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let idx = RelIndex::build(&freeze(&g));
        assert!(idx.matches(2, 1, true));
        assert!(!idx.matches(2, 2, true)); // overlay view: one extra coin
        assert!(!idx.matches(3, 1, true));
        assert!(!idx.matches(2, 1, false));
    }
}
