//! Incremental feasibility index: the scheduler's shadow state plus
//! O(log N) placement.
//!
//! The naive scheduling cycle rescans and rescores every node per pending
//! pod — O(P·N) filter and scorer evaluations per cycle, quadratic in
//! cluster scale. This module keeps the per-cycle shadow (free vectors,
//! per-(node, app) pod counts) *and* flat segment trees over dense node
//! ids (1-based heap layout, leaves at `cap+i`):
//!
//! * **score trees**, one per recently seen pod shape `(request bits,
//!   app)` — at most `SCORE_TREES`, least recently used reused first.
//!   Leaf `i` holds node `i`'s combined weighted score for that shape
//!   (`-inf` when the node is unready, the request does not fit, or
//!   another filter rejects it); internal nodes hold the maximum and the
//!   number of feasible leaves below them. A left-first descent returns
//!   the exact winner of the sequential "first feasible node, then any
//!   node scoring above `best + 1e-12`" scan, skipping every subtree
//!   whose maximum cannot beat the incumbent;
//! * the **preempt tree**, keyed by `free + Σ bound requests` (every
//!   pod the node could conceivably evict) plus a small margin, with
//!   element-wise max/min aggregates, prunes preemption to nodes that
//!   could free enough capacity at all. A per-node, per-priority
//!   bound-resource census then rejects nodes whose strictly-lower-
//!   priority mass is insufficient before any pod is inspected.
//!
//! **Memoisation.** Every write to a node's shadow goes through
//! `write_leaves`, which appends the node to a change log. A score tree
//! remembers how much of the log it has applied and re-scores only the
//! nodes logged since, O(log N) each; a new tree, or one from an older
//! *epoch* (bumped on rebuild and when the log is truncated at
//! `LOG_ENTRIES_PER_NODE`·N entries), is rebuilt in O(N). The key is
//! sound by construction: filter and score plugins receive only the
//! pod's request and a [`NodeView`](crate::plugins::NodeView) of the node,
//! its shadow free vector and the pod app's count on it — the shape plus
//! exactly the state whose every change is logged.
//!
//! **Exactness contract.** Score-tree leaves are computed by the same
//! calls in the same float order as the naive scan, and the descent
//! reproduces the scan's epsilon tie-break bit-for-bit (see
//! `descend`). The preempt tree and census are *supersets* (the margin
//! absorbs the float drift of incremental adds/subtracts), so they only
//! prune nodes the exact per-node victim scan would reject anyway; the
//! scan itself is shared verbatim with the naive path. The framework
//! cross-checks both claims against the naive scan under
//! `debug_assertions`.
//!
//! The index carries across scheduler cycles: [`FeasibilityIndex::sync`]
//! diffs [`ClusterState`] version counters and refreshes only nodes that
//! changed since the last cycle (bound/evicted/resized/ready-flipped),
//! plus nodes tainted by the previous cycle's own tentative placements,
//! instead of rebuilding the shadow from scratch each cycle.

use std::collections::HashMap;

use evolve_sim::{ClusterState, PodSpec};
use evolve_types::ResourceVec;

/// Added to superset keys (preempt tree, census check) so incremental
/// float drift can never prune a node the exact scan would accept.
/// Semantically negligible: requests are O(10)–O(10⁴) per dimension.
const PRUNE_MARGIN: f64 = 1e-3;

/// Leaf key of a node that must never be enumerated (unready, or padding
/// past the real node count): nothing fits within negative infinity.
const NEG: ResourceVec = ResourceVec::splat(f64::NEG_INFINITY);

/// Score trees kept at once; the least recently queried one is reused
/// for a new pod shape beyond that.
const SCORE_TREES: usize = 8;

/// The change log is dropped (and every score tree goes stale) once it
/// holds this many entries per node.
const LOG_ENTRIES_PER_NODE: usize = 8;

/// The scheduling scan's tie margin: a later node replaces the incumbent
/// only when its score exceeds `best + TIE_EPS`, so the lowest index wins
/// near-ties.
pub(crate) const TIE_EPS: f64 = 1e-12;

/// Epoch of a score tree that holds no leaves yet.
const NO_EPOCH: u64 = u64::MAX;

/// Incremental scheduler shadow + feasibility structures. Owned by the
/// run driver and threaded through
/// [`SchedulerFramework::schedule_cycle_carried`](crate::SchedulerFramework::schedule_cycle_carried)
/// so the per-node mirrors survive between cycles.
#[derive(Debug, Default)]
pub struct FeasibilityIndex {
    n: usize,
    /// Leaf capacity of every tree (`n.next_power_of_two()`).
    cap: usize,
    /// Shadow free capacity per node (cluster truth ± this cycle's
    /// tentative placements and claims).
    free: Vec<ResourceVec>,
    ready: Vec<bool>,
    /// Per-node app → tentative pod count (spread scoring input).
    app_pods: Vec<HashMap<u32, usize>>,
    /// Per-node bound-resource census, sorted by priority ascending.
    census: Vec<Vec<(i32, ResourceVec)>>,
    /// Sum over all census entries per node (preempt-tree key input).
    census_total: Vec<ResourceVec>,
    /// Preempt tree maxima, 1-based heap layout in `[1, 2·cap)`; leaves
    /// at `cap+i`.
    preempt_keys: Vec<ResourceVec>,
    /// Preempt tree minima, same layout.
    preempt_floor: Vec<ResourceVec>,
    node_versions_seen: Vec<u64>,
    global_version_seen: u64,
    synced: bool,
    /// Nodes touched by tentative in-cycle operations; unconditionally
    /// refreshed from cluster truth at the next sync (the plan may only
    /// partially apply, so version diffing alone cannot cover them).
    tainted: Vec<u32>,
    taint_flag: Vec<bool>,
    /// Every node whose leaves were rewritten, in order. A score tree
    /// replays the suffix it has not seen instead of re-scoring all nodes.
    changed: Vec<u32>,
    /// Bumped whenever `changed` stops covering every leaf change since a
    /// tree's last query (rebuild, log truncation); a tree from another
    /// epoch is rebuilt.
    epoch: u64,
    /// Memoised per-shape score trees, at most `SCORE_TREES`.
    trees: Vec<ScoreTree>,
    /// Scorer profile the trees were computed for (see
    /// [`best_scored`](Self::best_scored)).
    profile: u64,
    /// Query counter, the trees' LRU clock.
    queries: u64,
    stale_lookups: u64,
    probes: u64,
    candidates: Vec<usize>,
    stack: Vec<usize>,
    last_tree: usize,
}

/// A score tree's key: the request's exact bit pattern and the app id
/// (the spread scorer's input). Bits, not values, so `-0.0` and `0.0`
/// never share a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ShapeKey {
    request: [u64; 4],
    app: u32,
}

impl ShapeKey {
    fn new(request: &ResourceVec, app: u32) -> Self {
        ShapeKey { request: request.as_array().map(f64::to_bits), app }
    }
}

/// Answer of [`FeasibilityIndex::best_scored`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScoreQuery {
    /// `(score, node)` of the scan winner, `None` when no node is feasible.
    pub best: Option<(f64, usize)>,
    /// Nodes passing every filter.
    pub feasible: u32,
}

/// The memoised scores of one pod shape, in the preempt tree's flat
/// 1-based layout: leaf `cap+i` holds node `i`'s combined score (`-inf`
/// when a filter rejects it), internal nodes the maximum of their
/// children and the number of feasible leaves below them.
#[derive(Debug, Default)]
struct ScoreTree {
    key: ShapeKey,
    /// Index epoch the leaves were computed in.
    epoch: u64,
    /// Prefix of the change log already applied.
    seen: usize,
    last_used: u64,
    max: Vec<f64>,
    feasible: Vec<u32>,
    /// Per node: index of the first failing filter, or the filter count
    /// when the node is feasible.
    class: Vec<usize>,
    /// Per filter: nodes whose first failing filter it is.
    rejected: Vec<u32>,
}

impl ScoreTree {
    /// Re-scores every node and rebuilds the aggregates bottom-up.
    fn rebuild(
        &mut self,
        cap: usize,
        n: usize,
        filters: usize,
        value: &mut impl FnMut(usize) -> (f64, usize),
    ) {
        self.max.clear();
        self.max.resize(2 * cap, f64::NEG_INFINITY);
        self.feasible.clear();
        self.feasible.resize(2 * cap, 0);
        self.class.clear();
        self.rejected.clear();
        self.rejected.resize(filters, 0);
        for i in 0..n {
            let (v, class) = value(i);
            self.max[cap + i] = v;
            self.class.push(class);
            if class < filters {
                self.rejected[class] += 1;
            } else {
                self.feasible[cap + i] = 1;
            }
        }
        for s in (1..cap).rev() {
            self.max[s] = self.max[2 * s].max(self.max[2 * s + 1]);
            self.feasible[s] = self.feasible[2 * s] + self.feasible[2 * s + 1];
        }
    }

    /// Rewrites leaf `i` and its root path.
    fn set(&mut self, cap: usize, i: usize, v: f64, class: usize, filters: usize) {
        let old = std::mem::replace(&mut self.class[i], class);
        if old < filters {
            self.rejected[old] -= 1;
        }
        if class < filters {
            self.rejected[class] += 1;
        }
        let mut s = cap + i;
        self.max[s] = v;
        self.feasible[s] = u32::from(class >= filters);
        s >>= 1;
        while s >= 1 {
            self.max[s] = self.max[2 * s].max(self.max[2 * s + 1]);
            self.feasible[s] = self.feasible[2 * s] + self.feasible[2 * s + 1];
            s >>= 1;
        }
    }
}

impl FeasibilityIndex {
    /// An empty index; the first [`sync`](Self::sync) performs a full
    /// rebuild.
    #[must_use]
    pub fn new() -> Self {
        FeasibilityIndex::default()
    }

    /// Forces the next [`sync`](Self::sync) to rebuild from scratch.
    /// Call after replacing the cluster wholesale (e.g. restoring a
    /// snapshot), where version counters no longer relate to the mirrors.
    pub fn invalidate(&mut self) {
        self.synced = false;
    }

    /// Brings the mirrors up to date with `cluster` and resets the
    /// per-cycle counters. Cost is O(changed nodes) after the first call.
    pub(crate) fn sync(&mut self, cluster: &ClusterState) {
        self.stale_lookups = 0;
        self.probes = 0;
        let n = cluster.nodes().len();
        if !self.synced || n != self.n || cluster.version() < self.global_version_seen {
            self.rebuild(cluster);
            return;
        }
        let tainted = std::mem::take(&mut self.tainted);
        for &i in &tainted {
            self.taint_flag[i as usize] = false;
            self.refresh_node(cluster, i as usize);
        }
        self.tainted = tainted;
        self.tainted.clear();
        if cluster.version() != self.global_version_seen {
            for i in 0..n {
                if cluster.node_version(i) != self.node_versions_seen[i] {
                    self.refresh_node(cluster, i);
                }
            }
            self.global_version_seen = cluster.version();
        }
    }

    fn rebuild(&mut self, cluster: &ClusterState) {
        let n = cluster.nodes().len();
        self.n = n;
        self.cap = n.next_power_of_two().max(1);
        self.free = vec![ResourceVec::ZERO; n];
        self.ready = vec![false; n];
        self.app_pods = vec![HashMap::new(); n];
        self.census = vec![Vec::new(); n];
        self.census_total = vec![ResourceVec::ZERO; n];
        self.preempt_keys = vec![NEG; 2 * self.cap];
        self.preempt_floor = vec![NEG; 2 * self.cap];
        self.node_versions_seen = vec![0; n];
        self.taint_flag = vec![false; n];
        self.tainted.clear();
        for i in 0..n {
            self.refresh_node(cluster, i);
        }
        self.changed.clear();
        self.epoch += 1;
        self.global_version_seen = cluster.version();
        self.synced = true;
    }

    /// Re-derives one node's mirrors from cluster truth. Walks the
    /// node's bound-pod set, not the full pod table (the table keeps
    /// terminal pods and grows with simulation length).
    fn refresh_node(&mut self, cluster: &ClusterState, i: usize) {
        let node = &cluster.nodes()[i];
        self.free[i] = node.free();
        self.ready[i] = node.is_ready();
        self.node_versions_seen[i] = cluster.node_version(i);
        let apps = &mut self.app_pods[i];
        apps.clear();
        let census = &mut self.census[i];
        census.clear();
        let mut total = ResourceVec::ZERO;
        for pod_id in node.pods() {
            let Ok(pod) = cluster.pod(*pod_id) else {
                self.stale_lookups += 1;
                continue;
            };
            debug_assert!(pod.phase.holds_resources());
            *apps.entry(pod.app().raw()).or_insert(0) += 1;
            let prio = pod.spec.priority;
            match census.binary_search_by_key(&prio, |(p, _)| *p) {
                Ok(k) => census[k].1 += pod.spec.request,
                Err(k) => census.insert(k, (prio, pod.spec.request)),
            }
            total += pod.spec.request;
        }
        self.census_total[i] = total;
        self.write_leaves(i);
    }

    /// Recomputes node `i`'s preempt-tree leaf (and its root path) and
    /// logs the node for the score trees.
    fn write_leaves(&mut self, i: usize) {
        let preempt = if self.ready[i] {
            self.free[i] + self.census_total[i] + ResourceVec::splat(PRUNE_MARGIN)
        } else {
            NEG
        };
        set_leaf(&mut self.preempt_keys, &mut self.preempt_floor, self.cap, i, preempt);
        self.changed.push(i as u32);
        if self.changed.len() > LOG_ENTRIES_PER_NODE * self.n {
            self.changed.clear();
            self.epoch += 1;
        }
    }

    fn taint(&mut self, i: usize) {
        if !self.taint_flag[i] {
            self.taint_flag[i] = true;
            self.tainted.push(i as u32);
        }
    }

    /// Shadow free capacity of node `i`.
    pub(crate) fn free(&self, i: usize) -> ResourceVec {
        self.free[i]
    }

    /// Tentative pod count of `app` on node `i`.
    pub(crate) fn app_count(&self, i: usize, app: u32) -> usize {
        self.app_pods[i].get(&app).copied().unwrap_or(0)
    }

    /// Commits a tentative placement into the shadow.
    pub(crate) fn place(&mut self, i: usize, spec: &PodSpec) {
        self.free[i] -= spec.request;
        *self.app_pods[i].entry(spec.kind.app().raw()).or_insert(0) += 1;
        self.write_leaves(i);
        self.taint(i);
    }

    /// Rolls a tentative placement back out of the shadow.
    pub(crate) fn release(&mut self, i: usize, spec: &PodSpec) {
        self.free[i] += spec.request;
        if let Some(c) = self.app_pods[i].get_mut(&spec.kind.app().raw()) {
            *c = c.saturating_sub(1);
        }
        self.write_leaves(i);
        self.taint(i);
    }

    /// Accounts a claimed preemption victim: its capacity frees up in
    /// the shadow and leaves the bound census.
    pub(crate) fn claim_victim(&mut self, i: usize, app: u32, priority: i32, req: &ResourceVec) {
        self.free[i] += *req;
        if let Some(c) = self.app_pods[i].get_mut(&app) {
            *c = c.saturating_sub(1);
        }
        if let Ok(k) = self.census[i].binary_search_by_key(&priority, |(p, _)| *p) {
            self.census[i][k].1 -= *req;
        }
        self.census_total[i] -= *req;
        self.write_leaves(i);
        self.taint(i);
    }

    /// Reverses [`claim_victim`](Self::claim_victim) (gang rollback).
    pub(crate) fn unclaim_victim(&mut self, i: usize, app: u32, priority: i32, req: &ResourceVec) {
        self.free[i] -= *req;
        *self.app_pods[i].entry(app).or_insert(0) += 1;
        match self.census[i].binary_search_by_key(&priority, |(p, _)| *p) {
            Ok(k) => self.census[i][k].1 += *req,
            Err(k) => self.census[i].insert(k, (priority, *req)),
        }
        self.census_total[i] += *req;
        self.write_leaves(i);
        self.taint(i);
    }

    /// Fills [`candidates`](Self::candidates) with a superset of the
    /// nodes where evicting bound pods could make `request` fit,
    /// ascending. Exactness comes from the caller's per-node victim scan.
    pub(crate) fn enumerate_preempt(&mut self, request: &ResourceVec) {
        self.probes += enumerate(
            &self.preempt_keys,
            &self.preempt_floor,
            self.cap,
            self.n,
            request,
            &mut self.stack,
            &mut self.candidates,
        );
    }

    /// The scan winner for a pod of shape `(request, app)`: the node the
    /// sequential "first feasible node, then any node scoring above
    /// `best + TIE_EPS`" scan would choose, from the memoised score tree
    /// of that shape.
    ///
    /// `leaf(i, free, app_pods)` scores node `i` for the shape, or names
    /// the first non-capacity filter (index ≥ 1) that rejects it; it is
    /// called only for ready nodes the request fits. Its answer must
    /// depend on nothing but the shape, the node, and the two shadow
    /// values passed in: those are exactly what `write_leaves` logs.
    /// `profile` identifies the filter and scorer set behind `leaf`; a
    /// different profile drops every tree.
    ///
    /// A new or stale tree costs one `leaf` call per node; otherwise only
    /// the nodes logged since the tree's last query are re-scored.
    pub(crate) fn best_scored(
        &mut self,
        profile: u64,
        request: &ResourceVec,
        app: u32,
        filters: usize,
        mut leaf: impl FnMut(usize, ResourceVec, usize) -> Result<f64, usize>,
    ) -> ScoreQuery {
        if profile != self.profile {
            self.trees.clear();
            self.profile = profile;
        }
        self.queries += 1;
        let key = ShapeKey::new(request, app);
        let slot = match self.trees.iter().position(|t| t.key == key) {
            Some(k) => k,
            None => {
                if self.trees.len() < SCORE_TREES {
                    // Never used, so the least recently used below.
                    self.trees.push(ScoreTree::default());
                }
                let k = (0..self.trees.len())
                    .min_by_key(|&k| self.trees[k].last_used)
                    .expect("at least one tree");
                // The new shape starts stale, so the query rebuilds it
                // (reusing the evicted tree's buffers).
                self.trees[k].key = key;
                self.trees[k].epoch = NO_EPOCH;
                k
            }
        };
        self.last_tree = slot;
        let FeasibilityIndex { n, cap, free, ready, app_pods, changed, epoch, trees, .. } = self;
        let (n, cap) = (*n, *cap);
        let tree = &mut trees[slot];
        tree.last_used = self.queries;
        let mut value = |i: usize| -> (f64, usize) {
            if !ready[i] || !request.fits_within(&free[i]) {
                return (f64::NEG_INFINITY, 0);
            }
            let count = app_pods[i].get(&app).copied().unwrap_or(0);
            match leaf(i, free[i], count) {
                Ok(score) => (score, filters),
                Err(filter) => (f64::NEG_INFINITY, filter),
            }
        };
        if tree.epoch != *epoch || changed.len() - tree.seen >= n {
            tree.rebuild(cap, n, filters, &mut value);
        } else {
            for &i in &changed[tree.seen..] {
                let (v, class) = value(i as usize);
                tree.set(cap, i as usize, v, class, filters);
            }
        }
        tree.epoch = *epoch;
        tree.seen = changed.len();
        let (best, visits) = descend(&tree.max, &tree.feasible, cap, &mut self.stack);
        self.probes += visits;
        ScoreQuery { best, feasible: tree.feasible[1] }
    }

    /// Per-filter rejection counts of the tree the last
    /// [`best_scored`](Self::best_scored) call answered from: entry `k`
    /// counts the nodes whose first failing filter is `k` (entry 0 being
    /// the capacity fit, unready nodes included).
    pub(crate) fn last_rejections(&self) -> &[u32] {
        &self.trees[self.last_tree].rejected
    }

    /// The node list produced by the last `enumerate_*` call.
    pub(crate) fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Whether evicting every bound pod of priority strictly below
    /// `priority` could possibly free room for `request` on node `i`
    /// (superset check; the margin absorbs incremental float drift).
    pub(crate) fn census_could_free(&self, i: usize, priority: i32, request: &ResourceVec) -> bool {
        let mut avail = self.free[i];
        for (p, sum) in &self.census[i] {
            if *p >= priority {
                break;
            }
            avail += *sum;
        }
        request.fits_within(&(avail + ResourceVec::splat(PRUNE_MARGIN)))
    }

    /// Records one failed pod-table lookup (see
    /// [`SchedulePlan::stale_pod_lookups`](crate::SchedulePlan::stale_pod_lookups)).
    pub(crate) fn note_stale(&mut self) {
        self.stale_lookups += 1;
    }

    /// Adds a batch of failed pod-table lookups.
    pub(crate) fn add_stale(&mut self, n: u64) {
        self.stale_lookups += n;
    }

    /// Failed pod-table lookups since the last sync.
    pub(crate) fn stale_lookups(&self) -> u64 {
        self.stale_lookups
    }

    /// Tree-node visits across both trees since the last sync.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Node count the index currently mirrors.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.n
    }
}

/// Writes `key` at leaf `i` and recomputes the max/min aggregates on its
/// root path.
fn set_leaf(
    maxes: &mut [ResourceVec],
    mins: &mut [ResourceVec],
    cap: usize,
    i: usize,
    key: ResourceVec,
) {
    let mut s = cap + i;
    maxes[s] = key;
    mins[s] = key;
    s >>= 1;
    while s >= 1 {
        maxes[s] = maxes[2 * s].max(&maxes[2 * s + 1]);
        mins[s] = mins[2 * s].min(&mins[2 * s + 1]);
        s >>= 1;
    }
}

/// The winner of the sequential scan over the leaves of a score tree, in
/// ascending node order: the first feasible leaf, then any leaf whose
/// score exceeds `best + TIE_EPS`. Returns it with the number of tree
/// nodes visited.
///
/// A left-first descent that skips a subtree exactly when the scan would
/// keep its incumbent through it: with no incumbent, when the subtree has
/// no feasible leaf; otherwise when `max ≤ best + TIE_EPS` (in floats,
/// the scan's own expression). Then no leaf `v ≤ max` can satisfy
/// `v > best + TIE_EPS`, and the incumbent stays unchanged through the
/// whole subtree, so skipping it is exact — near-tie chains included.
fn descend(
    max: &[f64],
    feasible: &[u32],
    cap: usize,
    stack: &mut Vec<usize>,
) -> (Option<(f64, usize)>, u64) {
    let mut best: Option<(f64, usize)> = None;
    let mut visits = 0u64;
    stack.clear();
    stack.push(1);
    while let Some(s) = stack.pop() {
        visits += 1;
        let open = match best {
            None => feasible[s] > 0,
            Some((b, _)) => max[s] > b + TIE_EPS,
        };
        if !open {
            continue;
        }
        if s >= cap {
            best = Some((max[s], s - cap));
            continue;
        }
        // Left child on top: its subtree resolves before the right
        // child's test reads the incumbent.
        stack.push(2 * s + 1);
        stack.push(2 * s);
    }
    (best, visits)
}

/// Pushes every leaf whose key fits `request` into `out`, in ascending
/// node order. Subtrees whose max no longer fits are pruned whole;
/// subtrees whose *min* still fits are emitted whole without descending
/// (padding and unready leaves carry `-inf` keys, so they can never sit
/// inside such a subtree). Returns the number of tree nodes visited (the
/// feasibility-probe count) — O(log N) when the answer is "none" or
/// "all", O(k·log(N/k)) for k scattered matches. Emission itself is a
/// plain index append, not a probe: no capacity comparison happens per
/// emitted leaf.
fn enumerate(
    maxes: &[ResourceVec],
    mins: &[ResourceVec],
    cap: usize,
    n: usize,
    request: &ResourceVec,
    stack: &mut Vec<usize>,
    out: &mut Vec<usize>,
) -> u64 {
    out.clear();
    stack.clear();
    if n == 0 {
        return 0;
    }
    let height = cap.trailing_zeros();
    let mut probes = 0u64;
    stack.push(1);
    while let Some(s) = stack.pop() {
        probes += 1;
        if !request.fits_within(&maxes[s]) {
            continue;
        }
        let h = height - s.ilog2();
        let lo = (s << h) - cap;
        if h == 0 {
            if lo < n {
                out.push(lo);
            }
            continue;
        }
        if request.fits_within(&mins[s]) {
            let hi = lo + (1 << h);
            debug_assert!(hi <= n, "-inf padding floors must block whole-subtree emission");
            out.extend(lo..hi);
            continue;
        }
        // Right child first: the left subtree then resolves fully before
        // the right one, yielding leaves in ascending node order — the
        // order the deterministic lowest-index tie-break depends on.
        stack.push(2 * s + 1);
        stack.push(2 * s);
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_sim::{ClusterConfig, ClusterState, NodeShape, PodKind};
    use evolve_types::{AppId, NodeId, PodId, SimTime};
    use proptest::prelude::*;

    fn cluster(nodes: usize) -> ClusterState {
        ClusterState::new(&ClusterConfig::uniform(
            nodes,
            NodeShape { capacity: ResourceVec::splat(1000.0) },
        ))
    }

    fn spec(app: u32, request: f64, priority: i32) -> PodSpec {
        PodSpec::new(
            PodKind::ServiceReplica { app: AppId::new(app) },
            ResourceVec::splat(request),
            priority,
        )
    }

    fn bind(c: &mut ClusterState, app: u32, request: f64, priority: i32, node: u32) -> PodId {
        let id = c.create_pod(spec(app, request, priority), SimTime::ZERO);
        c.bind_pod(id, NodeId::new(node)).unwrap();
        id
    }

    /// Nodes the capacity fit admits, by linear scan, ascending.
    fn naive_fit(idx: &FeasibilityIndex, request: &ResourceVec) -> Vec<usize> {
        (0..idx.len()).filter(|&i| idx.ready[i] && request.fits_within(&idx.free(i))).collect()
    }

    /// The framework's scan over per-node scores (`None` = infeasible).
    fn scan(leaves: &[Option<f64>]) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, leaf) in leaves.iter().enumerate() {
            if let Some(v) = *leaf {
                if best.is_none_or(|(b, _)| v > b + TIE_EPS) {
                    best = Some((v, i));
                }
            }
        }
        best
    }

    /// Queries `idx` for `(request, app)` under one fixed profile with a
    /// single (capacity) filter; returns the answer, the rejection counts
    /// and the number of leaf calls.
    fn query(
        idx: &mut FeasibilityIndex,
        request: f64,
        app: u32,
        score: impl Fn(usize, ResourceVec, usize) -> f64,
    ) -> (ScoreQuery, Vec<u32>, usize) {
        let mut calls = 0;
        let q = idx.best_scored(1, &ResourceVec::splat(request), app, 1, |i, free, pods| {
            calls += 1;
            Ok(score(i, free, pods))
        });
        (q, idx.last_rejections().to_vec(), calls)
    }

    /// A score tree over `leaves`, built by the production rebuild.
    fn tree_of(leaves: &[Option<f64>]) -> (ScoreTree, usize) {
        let cap = leaves.len().next_power_of_two().max(1);
        let mut tree = ScoreTree::default();
        tree.rebuild(cap, leaves.len(), 1, &mut |i| match leaves[i] {
            Some(v) => (v, 1),
            None => (f64::NEG_INFINITY, 0),
        });
        (tree, cap)
    }

    #[test]
    fn fit_enumeration_matches_linear_scan() {
        let mut c = cluster(13); // odd count exercises tree padding
        for i in 0..13u32 {
            bind(&mut c, i % 3, (f64::from(i) + 1.0) * 70.0, 10, i);
        }
        c.set_node_ready(NodeId::new(5), false).unwrap();
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c);
        for req in [0.0, 100.0, 400.0, 900.0, 950.0, 2000.0] {
            let request = ResourceVec::splat(req);
            let fit = naive_fit(&idx, &request);
            // Score = remaining CPU: the scan prefers the emptiest node.
            let (q, rejected, _) = query(&mut idx, req, 0, |_, free, _| free.cpu() - req);
            assert_eq!(q.feasible as usize, fit.len(), "request {req}");
            assert_eq!(rejected, vec![(13 - fit.len()) as u32], "request {req}");
            let leaves: Vec<Option<f64>> =
                (0..13).map(|i| fit.contains(&i).then(|| idx.free(i).cpu() - req)).collect();
            assert_eq!(q.best, scan(&leaves), "request {req}");
        }
        assert!(idx.probes() > 0);
    }

    #[test]
    fn incremental_sync_matches_rebuild() {
        let mut c = cluster(9);
        for i in 0..9u32 {
            bind(&mut c, i, 100.0 + f64::from(i), 10 + i as i32, i % 9);
        }
        let mut carried = FeasibilityIndex::new();
        carried.sync(&c);
        // Mutate through every hook the cluster versions: bind, terminate,
        // resize, readiness flip.
        let extra = bind(&mut c, 3, 50.0, 99, 2);
        let gone = bind(&mut c, 4, 80.0, 5, 7);
        c.terminate_pod(gone, evolve_sim::PodPhase::Succeeded).unwrap();
        c.set_node_ready(NodeId::new(1), false).unwrap();
        let resized =
            c.create_pod(spec(6, 10.0, 10).with_limit(ResourceVec::splat(400.0)), SimTime::ZERO);
        c.bind_pod(resized, NodeId::new(8)).unwrap();
        c.resize_pod(resized, ResourceVec::splat(300.0)).unwrap();
        let _ = extra;
        // A tree queried before the mutations replays the change log.
        let score = |i: usize, free: ResourceVec, pods: usize| {
            free.cpu() / 1000.0 + 1.0 / (1.0 + pods as f64) + i as f64 * 1e-3
        };
        let before = query(&mut carried, 120.0, 3, score);
        carried.sync(&c);
        let replayed = query(&mut carried, 120.0, 3, score);
        assert!(replayed.2 < before.2, "only changed nodes are re-scored");
        let mut fresh = FeasibilityIndex::new();
        fresh.sync(&c);
        let rebuilt = query(&mut fresh, 120.0, 3, score);
        assert_eq!((replayed.0, &replayed.1), (rebuilt.0, &rebuilt.1));
        assert_eq!(carried.trees[0].max, fresh.trees[0].max);
        assert_eq!(carried.trees[0].feasible, fresh.trees[0].feasible);
        assert_eq!(carried.free, fresh.free);
        assert_eq!(carried.ready, fresh.ready);
        assert_eq!(carried.census, fresh.census);
        assert_eq!(carried.census_total, fresh.census_total);
        assert_eq!(carried.app_pods, fresh.app_pods);
        assert_eq!(carried.preempt_keys, fresh.preempt_keys);
        assert_eq!(carried.preempt_floor, fresh.preempt_floor);
    }

    #[test]
    fn all_feasible_cluster_enumerates_in_constant_probes() {
        // 64 identical empty nodes: the root's min already fits, so the
        // whole leaf range is emitted from a single probe.
        let c = cluster(64);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c);
        idx.enumerate_preempt(&ResourceVec::splat(100.0));
        assert_eq!(idx.candidates(), (0..64).collect::<Vec<_>>());
        assert_eq!(idx.probes(), 1);
    }

    #[test]
    fn tentative_ops_are_reconciled_at_next_sync() {
        let mut c = cluster(4);
        bind(&mut c, 0, 500.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c);
        // A tentative placement the driver then *fails* to apply: no
        // cluster version moves, but the taint list must restore truth.
        let tentative = spec(1, 200.0, 50);
        idx.place(2, &tentative);
        assert_eq!(idx.free(2), ResourceVec::splat(750.0));
        idx.sync(&c);
        assert_eq!(idx.free(2), ResourceVec::splat(950.0));
        assert_eq!(idx.app_count(2, 1), 0);
    }

    #[test]
    fn claim_and_unclaim_round_trip_census() {
        let mut c = cluster(2);
        bind(&mut c, 0, 600.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c);
        let req = ResourceVec::splat(600.0);
        assert!(idx.census_could_free(0, 50, &ResourceVec::splat(900.0)));
        assert!(!idx.census_could_free(0, 10, &ResourceVec::splat(900.0)), "no lower priority");
        idx.claim_victim(0, 0, 10, &req);
        assert_eq!(idx.free(0), ResourceVec::splat(950.0));
        assert!(!idx.census_could_free(0, 50, &ResourceVec::splat(951.0)));
        idx.unclaim_victim(0, 0, 10, &req);
        assert_eq!(idx.free(0), ResourceVec::splat(350.0));
        assert!(idx.census_could_free(0, 50, &ResourceVec::splat(900.0)));
    }

    #[test]
    fn unready_nodes_never_enumerate() {
        let mut c = cluster(3);
        c.set_node_ready(NodeId::new(0), false).unwrap();
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c);
        let (q, rejected, _) = query(&mut idx, 0.0, 0, |_, _, _| 0.5);
        assert_eq!((q.best, q.feasible, rejected), (Some((0.5, 1)), 2, vec![1]));
        idx.enumerate_preempt(&ResourceVec::ZERO);
        assert_eq!(idx.candidates(), &[1, 2]);
    }

    #[test]
    fn single_node_tree_works() {
        let c = cluster(1);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c);
        idx.enumerate_preempt(&ResourceVec::splat(900.0));
        assert_eq!(idx.candidates(), &[0]);
        idx.enumerate_preempt(&ResourceVec::splat(951.0));
        assert!(idx.candidates().is_empty());
        let (q, _, _) = query(&mut idx, 900.0, 0, |_, _, _| 0.25);
        assert_eq!((q.best, q.feasible), (Some((0.25, 0)), 1));
        let (q, rejected, _) = query(&mut idx, 951.0, 0, |_, _, _| 0.25);
        assert_eq!((q.best, q.feasible, rejected), (None, 0, vec![1]));
    }

    #[test]
    fn score_trees_rescore_only_logged_nodes() {
        let mut c = cluster(20);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c);
        let score = |_: usize, free: ResourceVec, pods: usize| free.cpu() - pods as f64;
        assert_eq!(query(&mut idx, 100.0, 1, score).2, 20, "a new tree scores every node");
        assert_eq!(query(&mut idx, 100.0, 1, score).2, 0, "nothing changed");
        idx.place(7, &spec(1, 100.0, 10));
        let (q, _, calls) = query(&mut idx, 100.0, 1, score);
        assert_eq!(calls, 1, "one logged node");
        assert_eq!(q.best.map(|(_, i)| i), Some(0));
        // A different profile drops every tree.
        let mut calls = 0;
        idx.best_scored(2, &ResourceVec::splat(100.0), 1, 1, |_, _, _| {
            calls += 1;
            Ok(0.0)
        });
        assert_eq!(calls, 20);
        // A cluster change reaches the trees through sync's refresh.
        bind(&mut c, 2, 300.0, 10, 3);
        idx.sync(&c);
        let mut calls = 0;
        idx.best_scored(2, &ResourceVec::splat(100.0), 1, 1, |_, _, _| {
            calls += 1;
            Ok(0.0)
        });
        assert!((1..20).contains(&calls), "{calls} re-scored");
    }

    #[test]
    fn score_trees_evict_lru_and_go_stale_on_truncation() {
        let c = cluster(4);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c);
        let score = |_: usize, _: ResourceVec, _: usize| 1.0;
        for shape in 0..SCORE_TREES as u32 {
            assert_eq!(query(&mut idx, 10.0, shape, score).2, 4);
        }
        assert_eq!(query(&mut idx, 10.0, 0, score).2, 0, "shape 0 is memoised");
        assert_eq!(query(&mut idx, 10.0, 99, score).2, 4, "a ninth shape evicts the LRU");
        assert_eq!(idx.trees.len(), SCORE_TREES);
        assert_eq!(query(&mut idx, 10.0, 1, score).2, 4, "shape 1 was the LRU");
        assert_eq!(query(&mut idx, 10.0, 0, score).2, 0);
        // One write per query replays one node, until the write that
        // overflows the log truncates it: that query rebuilds.
        let pod = spec(5, 1.0, 10);
        let mut rebuilds = 0;
        for _ in 0..2 * (LOG_ENTRIES_PER_NODE * 4 + 1) {
            idx.place(2, &pod);
            match query(&mut idx, 10.0, 0, score).2 {
                1 => {}
                4 => rebuilds += 1,
                calls => panic!("{calls} leaf calls for one write"),
            }
            assert!(idx.changed.len() <= LOG_ENTRIES_PER_NODE * 4, "the log stays bounded");
        }
        assert_eq!(rebuilds, 2);
    }

    /// A leaf drawn so that exact ties, values exactly on a previous
    /// value's replacement threshold (`b + TIE_EPS`, in floats) and
    /// chains of increments below `TIE_EPS` are common, plus infeasible
    /// (`None`) and `-inf` leaves.
    fn leaf_of(kind: u32, base: usize, step: u32) -> Option<f64> {
        let mut v = [0.5, 0.75, 0.5 + 3.0 * TIE_EPS][base % 3];
        match kind {
            0 => None,
            1 => Some(f64::NEG_INFINITY),
            2 | 3 => {
                for _ in 0..step {
                    v += TIE_EPS;
                }
                Some(v)
            }
            _ => Some(v + f64::from(step) * 0.4 * TIE_EPS),
        }
    }

    fn arb_leaves() -> impl Strategy<Value = Vec<Option<f64>>> {
        prop::collection::vec(
            ((0u32..6), (0usize..3), (0u32..6)).prop_map(|(k, b, s)| leaf_of(k, b, s)),
            0..70,
        )
    }

    proptest! {
        /// The descent equals the linear epsilon scan, before and after
        /// incremental leaf rewrites.
        #[test]
        fn descent_matches_linear_epsilon_scan(
            initial in arb_leaves(),
            edits in prop::collection::vec(((0usize..70), (0u32..6), (0u32..6)), 0..8),
            edit_base in 0usize..3,
        ) {
            let mut leaves = initial;
            let (mut tree, cap) = tree_of(&leaves);
            let mut stack = Vec::new();
            prop_assert_eq!(descend(&tree.max, &tree.feasible, cap, &mut stack).0, scan(&leaves));
            if leaves.is_empty() {
                return Ok(());
            }
            for (at, kind, step) in edits {
                let i = at % leaves.len();
                let leaf = leaf_of(kind, edit_base, step);
                leaves[i] = leaf;
                let (v, class) = leaf.map_or((f64::NEG_INFINITY, 0), |v| (v, 1));
                tree.set(cap, i, v, class, 1);
                prop_assert_eq!(descend(&tree.max, &tree.feasible, cap, &mut stack).0, scan(&leaves));
            }
            let feasible = leaves.iter().filter(|l| l.is_some()).count() as u32;
            prop_assert_eq!(tree.feasible[1], feasible);
            prop_assert_eq!(tree.rejected[0] + feasible, leaves.len() as u32);
        }
    }
}
