//! Mutable system state: which tasks live on which node, per-node heights
//! (the `h(v)` map that forms the yard's surface), and the static system
//! description (topology, link matrices, task graph, resources).
//!
//! The height map and the imbalance sufficient statistics (`n`, `Σh`, `Σh²`)
//! are maintained *incrementally*: every task add/remove/consume goes
//! through [`SystemState`] mutators that diff the affected node's height, so
//! the per-tick hot path reads heights and the CoV without rebuilding
//! anything — [`SystemState::height_slice`] and [`SystemState::cov`] are
//! allocation-free O(1)/O(0) lookups.

use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::{Task, TaskId};
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::LinkMap;

/// Nodes per word of the node bitsets (the occupancy bitset here, and the
/// engine's down-node set and consume memo, which share its layout).
pub const NODE_WORD: usize = 64;

/// Whether node `i`'s bit is set in a node bitset.
#[inline]
pub(crate) fn node_bit(words: &[u64], i: usize) -> bool {
    words[i / NODE_WORD] >> (i % NODE_WORD) & 1 == 1
}

/// Sets node `i`'s bit in a node bitset to `on`.
#[inline]
pub(crate) fn set_node_bit(words: &mut [u64], i: usize, on: bool) {
    let bit = 1u64 << (i % NODE_WORD);
    if on {
        words[i / NODE_WORD] |= bit;
    } else {
        words[i / NODE_WORD] &= !bit;
    }
}

/// One processor's resident tasks.
#[derive(Debug, Clone, Default)]
pub struct NodeState {
    tasks: Vec<Task>,
    height: f64,
}

impl NodeState {
    /// Resident tasks, in arrival order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total load quantity `h(v) = Σ_k l_{v,k}` (Table 1's `h`).
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Number of resident tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Adds a task.
    pub fn add_task(&mut self, task: Task) {
        self.height += task.size;
        self.tasks.push(task);
    }

    /// Removes and returns the task with the given id, if resident.
    pub fn remove_task(&mut self, id: TaskId) -> Option<Task> {
        let pos = self.tasks.iter().position(|t| t.id == id)?;
        let task = self.tasks.remove(pos);
        self.height -= task.size;
        if self.height < 0.0 {
            self.height = 0.0; // guard against f64 drift
        }
        Some(task)
    }

    /// Whether a task with the given id is resident.
    pub fn has_task(&self, id: TaskId) -> bool {
        self.tasks.iter().any(|t| t.id == id)
    }

    /// Consumes up to `amount` of work from the queue front; completed tasks
    /// are removed entirely (their load leaves the system). Returns the list
    /// of completed task ids and the amount of work actually consumed.
    pub fn consume_work(&mut self, amount: f64) -> (Vec<TaskId>, f64) {
        let mut done = Vec::new();
        let (_, consumed) = self.consume_work_with(amount, |t| done.push(t.id));
        (done, consumed)
    }

    fn consume_work_with(
        &mut self,
        mut amount: f64,
        mut on_done: impl FnMut(&Task),
    ) -> (usize, f64) {
        let mut completed = 0usize;
        let mut consumed = 0.0;
        while amount > 0.0 {
            let Some(front) = self.tasks.first_mut() else { break };
            if front.work > amount {
                front.work -= amount;
                consumed += amount;
                break;
            }
            amount -= front.work;
            consumed += front.work;
            completed += 1;
            let t = self.tasks.remove(0);
            self.height -= t.size;
            on_done(&t);
        }
        if self.height < 0.0 {
            self.height = 0.0;
        }
        (completed, consumed)
    }
}

/// The whole system: static description plus per-node state.
#[derive(Debug, Clone)]
pub struct SystemState {
    /// The interconnection network.
    pub topo: Topology,
    /// The task dependency graph `T`.
    pub task_graph: TaskGraph,
    /// The resource matrix `R`.
    pub resources: ResourceMatrix,
    links: LinkMap,
    nodes: Vec<NodeState>,
    /// Height cache, mirrored exactly from `nodes[i].height()`.
    heights: Vec<f64>,
    /// Occupancy bitset: bit `i % 64` of word `i / 64` is set iff node `i`
    /// holds a task. Flipped only when a count crosses zero, so the node
    /// sweeps read "does node `i` hold work?" 64 nodes per load instead of
    /// striding over [`NodeState`] records (and their task vectors).
    occupied: Vec<u64>,
    /// Each node's smallest resident task size (`+∞` on an empty node),
    /// mirrored from its task list like `heights`: the inert-node
    /// certificate's one per-task input, so a resting node is settled
    /// without walking its tasks. Derived state — never checkpointed,
    /// rebuilt by [`SystemState::restore_node`].
    min_sizes: Vec<f64>,
    /// Total resident task count, maintained incrementally — the round
    /// fast-forward's O(1) "is there any work to consume?" gate.
    resident_tasks: usize,
    /// Incremental `Σh` over all nodes (imbalance sufficient statistic).
    height_sum: f64,
    /// Incremental `Σh²` over all nodes.
    height_sq_sum: f64,
    /// Height mutations since construction — with the peaks below, bounds
    /// the accumulated floating-point drift of the incremental sums.
    stat_ops: u64,
    /// Largest `|Σh|` magnitude the sum has reached.
    stat_peak_sum: f64,
    /// Largest `|Σh²|` magnitude the squared sum has reached (tracked
    /// separately: the two live in different units, and a shared bound
    /// would force the exact fallback whenever `Σh² ≫ Σh`).
    stat_peak_sq: f64,
}

impl SystemState {
    /// Creates a state with empty nodes. It takes the edge-indexed link
    /// attributes as they are; they are immutable afterwards.
    ///
    /// # Panics
    /// Panics if `links` does not hold one entry per edge of `topo`.
    pub fn new(
        topo: Topology,
        links: LinkMap,
        task_graph: TaskGraph,
        resources: ResourceMatrix,
    ) -> Self {
        let n = topo.node_count();
        assert_eq!(
            links.len(),
            topo.edge_count(),
            "link map must hold one entry per edge of the topology"
        );
        SystemState {
            topo,
            task_graph,
            resources,
            links,
            nodes: (0..n).map(|_| NodeState::default()).collect(),
            heights: vec![0.0; n],
            occupied: vec![0; n.div_ceil(NODE_WORD)],
            min_sizes: vec![f64::INFINITY; n],
            resident_tasks: 0,
            height_sum: 0.0,
            height_sq_sum: 0.0,
            stat_ops: 0,
            stat_peak_sum: 0.0,
            stat_peak_sq: 0.0,
        }
    }

    /// Immutable access to a node.
    pub fn node(&self, v: NodeId) -> &NodeState {
        &self.nodes[v.idx()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The edge-indexed link attribute table.
    pub fn links(&self) -> &LinkMap {
        &self.links
    }

    /// Adds a task to node `v`, updating the height cache and imbalance
    /// statistics.
    pub fn add_task(&mut self, v: NodeId, task: Task) {
        let old = self.nodes[v.idx()].height;
        let min = &mut self.min_sizes[v.idx()];
        *min = min.min(task.size);
        self.nodes[v.idx()].add_task(task);
        self.resident_tasks += 1;
        self.sync_occupancy(v.idx());
        self.refresh_height(v, old);
    }

    /// Removes and returns the task with the given id from node `v`, if
    /// resident.
    pub fn remove_task(&mut self, v: NodeId, id: TaskId) -> Option<Task> {
        let old = self.nodes[v.idx()].height;
        let task = self.nodes[v.idx()].remove_task(id);
        if let Some(t) = &task {
            if t.size == self.min_sizes[v.idx()] {
                self.rescan_min(v.idx());
            }
            self.resident_tasks -= 1;
            self.sync_occupancy(v.idx());
            self.refresh_height(v, old);
        }
        task
    }

    /// Consumes up to `amount` of work on node `v`; returns the number of
    /// tasks completed and the work consumed. Allocation-free.
    pub fn consume_work(&mut self, v: NodeId, amount: f64) -> (usize, f64) {
        let (old, min) = (self.nodes[v.idx()].height, self.min_sizes[v.idx()]);
        let mut at_min = false;
        let out = self.nodes[v.idx()].consume_work_with(amount, |t| at_min |= t.size == min);
        if at_min {
            self.rescan_min(v.idx());
        }
        self.resident_tasks -= out.0;
        if out.0 > 0 {
            self.sync_occupancy(v.idx());
        }
        // A completed zero-work task changes the height without consuming
        // anything, so refresh whenever a task completes. A step that only
        // eats into the front task leaves the height bit-identical, and a
        // refresh would then add +0.0 to Σh and Σh² and leave both peaks
        // alone: counting the operation is all that remains of it, which
        // keeps the drift bound (and checkpointed `stat_ops`) exact. Only a
        // negative height, which just a restored checkpoint can carry, lets
        // the zero clamp move the height without a completion.
        let moved = self.nodes[v.idx()].height.to_bits() != old.to_bits();
        if out.0 > 0 || (out.1 > 0.0 && moved) {
            self.refresh_height(v, old);
        } else if out.1 > 0.0 {
            self.stat_ops += 1;
        }
        out
    }

    /// One consume step on every node whose bit is set in `live`, a mask
    /// over occupancy word `w`, in ascending id order: node `i` consumes
    /// `amount × speeds[i]` (just `amount` when `speeds` is empty) when that
    /// is positive. Returns the mask of nodes whose step consumed or
    /// completed something, and the number of tasks completed.
    ///
    /// Exactly [`SystemState::consume_work`] on each node in turn. A step
    /// that completes nothing on a node of non-negative height only eats
    /// into the front task: it leaves the height bit-identical and is
    /// counted as one operation (see `consume_work`), so it runs here in
    /// place on the resident [`Task`] and the word's count is added to
    /// `stat_ops` at once, which is an integer sum. Every other step (a
    /// completion, or a negative restored height the clamp moves) goes
    /// through `consume_work`, so Σh and Σh² still refresh in ascending id
    /// order. Allocation-free.
    pub(crate) fn consume_word(
        &mut self,
        w: usize,
        live: u64,
        amount: f64,
        speeds: &[f64],
    ) -> (u64, usize) {
        let (mut stepped, mut fast, mut completed) = (0u64, 0u64, 0usize);
        let mut bits = live;
        while bits != 0 {
            let bit = bits & bits.wrapping_neg();
            bits ^= bit;
            let i = w * NODE_WORD + bit.trailing_zeros() as usize;
            let scaled = if speeds.is_empty() { amount } else { amount * speeds[i] };
            if scaled.is_nan() || scaled <= 0.0 {
                continue;
            }
            let node = &mut self.nodes[i];
            if node.height >= 0.0 {
                if let Some(front) = node.tasks.first_mut().filter(|t| t.work > scaled) {
                    front.work -= scaled;
                    fast += 1;
                    stepped |= bit;
                    continue;
                }
            }
            let (done, used) = self.consume_work(NodeId(i as u32), scaled);
            completed += done;
            if done > 0 || used > 0.0 {
                stepped |= bit;
            }
        }
        self.stat_ops += fast;
        (stepped, completed)
    }

    /// Refreshes node `i`'s smallest size after a task at that size left.
    /// Every remaining size is at least the old minimum, so the scan stops
    /// at the first task still at it: a removal from a run of equal sizes
    /// (a hotspot of unit tasks) costs one comparison, and only the last
    /// task at the minimum pays a full pass.
    fn rescan_min(&mut self, i: usize) {
        let old = self.min_sizes[i];
        let mut min = f64::INFINITY;
        for t in &self.nodes[i].tasks {
            if t.size == old {
                return;
            }
            min = min.min(t.size);
        }
        self.min_sizes[i] = min;
    }

    /// Sets or clears node `i`'s occupancy bit to match its task list.
    #[inline]
    fn sync_occupancy(&mut self, i: usize) {
        set_node_bit(&mut self.occupied, i, !self.nodes[i].tasks.is_empty());
    }

    #[inline]
    fn refresh_height(&mut self, v: NodeId, old: f64) {
        let new = self.nodes[v.idx()].height;
        self.heights[v.idx()] = new;
        self.height_sum += new - old;
        self.height_sq_sum += new * new - old * old;
        self.stat_ops += 1;
        self.stat_peak_sum = self.stat_peak_sum.max(self.height_sum.abs());
        self.stat_peak_sq = self.stat_peak_sq.max(self.height_sq_sum.abs());
    }

    /// Upper bound on the floating-point drift `peak` can have accumulated:
    /// each of the `stat_ops` updates contributes at most one rounding of a
    /// value bounded by the peak magnitude (×8 safety).
    #[inline]
    fn drift_floor(&self, peak: f64) -> f64 {
        (self.stat_ops as f64 + 1.0) * f64::EPSILON * peak * 8.0
    }

    /// The height map `h(v)` over all nodes — the yard's surface. Borrowed
    /// view of the incrementally maintained cache; no allocation.
    #[inline]
    pub fn height_slice(&self) -> &[f64] {
        &self.heights
    }

    /// The occupancy bitset, [`NODE_WORD`] nodes per word: bit `i % 64` of
    /// word `i / 64` is set iff node `i` holds a task. The node sweeps'
    /// "does node `i` hold work?" gate without touching the node records.
    #[inline]
    pub fn occupied_words(&self) -> &[u64] {
        &self.occupied
    }

    /// Each node's smallest resident task size, `+∞` on an empty node —
    /// the flat input [`LoadBalancer::settle`](crate::balancer::LoadBalancer::settle)
    /// reads instead of the task list.
    #[inline]
    pub fn min_task_sizes(&self) -> &[f64] {
        &self.min_sizes
    }

    /// The height map as an owned vector (prefer
    /// [`SystemState::height_slice`] on hot paths).
    pub fn heights(&self) -> Vec<f64> {
        self.heights.clone()
    }

    /// Coefficient of variation `σ/µ` of the height map, from the
    /// incremental sufficient statistics — no pass over the nodes on the
    /// common path. Matches `Imbalance::of(heights).cov` up to
    /// floating-point accumulation order.
    ///
    /// When the incremental mean or variance is within the accumulated
    /// drift bound (e.g. a surface that has gone flat — `σ/µ` would divide
    /// two ulp-scale artifacts), the result is recomputed exactly from the
    /// height cache in one allocation-free pass.
    pub fn cov(&self) -> f64 {
        let n = self.nodes.len();
        if n == 0 {
            return 0.0;
        }
        let nf = n as f64;
        let mean = self.height_sum / nf;
        let var = self.height_sq_sum / nf - mean * mean;
        if self.height_sum.abs() <= self.drift_floor(self.stat_peak_sum)
            || var * nf <= self.drift_floor(self.stat_peak_sq)
        {
            return self.cov_exact();
        }
        var.sqrt() / mean
    }

    /// Two-pass CoV over the height cache: exact, allocation-free, O(n).
    fn cov_exact(&self) -> f64 {
        let n = self.heights.len();
        if n == 0 {
            return 0.0;
        }
        let nf = n as f64;
        let mean = self.heights.iter().sum::<f64>() / nf;
        if mean.abs() == 0.0 {
            return 0.0;
        }
        let var = self.heights.iter().map(|&h| (h - mean) * (h - mean)).sum::<f64>() / nf;
        var.sqrt() / mean
    }

    /// Mean node height, from the incremental statistics (drift-guarded the
    /// same way as [`SystemState::cov`]).
    pub fn mean_height(&self) -> f64 {
        let n = self.nodes.len();
        if n == 0 {
            return 0.0;
        }
        if self.height_sum.abs() <= self.drift_floor(self.stat_peak_sum) {
            return self.total_load() / n as f64;
        }
        self.height_sum / n as f64
    }

    /// Total resident load (excludes in-flight loads). Exact sum over the
    /// height cache (the incremental `Σh` is reserved for the CoV, where
    /// accumulation drift is tolerable).
    pub fn total_load(&self) -> f64 {
        self.heights.iter().sum()
    }

    /// Total resident task count (exact O(n) sum; the incremental counter
    /// behind [`SystemState::resident_tasks`] is checked against it in the
    /// state tests).
    pub fn total_tasks(&self) -> usize {
        self.nodes.iter().map(NodeState::task_count).sum()
    }

    /// Total resident task count from the incremental counter — O(1), so
    /// the round fast-forward can gate its consumption check per round
    /// without a node sweep.
    #[inline]
    pub fn resident_tasks(&self) -> usize {
        self.resident_tasks
    }

    /// Ids of tasks co-located with (on the same node as) the given node —
    /// input to the `µ_s` affinity sum.
    pub fn colocated_ids(&self, v: NodeId) -> Vec<TaskId> {
        self.nodes[v.idx()].tasks().iter().map(|t| t.id).collect()
    }

    /// Exact snapshot of the incremental imbalance statistics (checkpoint
    /// plumbing). The sums carry the accumulated floating-point history of
    /// every mutation since construction, so a byte-exact resume must
    /// restore them verbatim rather than recompute them from the heights.
    pub fn stat_snapshot(&self) -> StatSnapshot {
        StatSnapshot {
            height_sum: self.height_sum,
            height_sq_sum: self.height_sq_sum,
            stat_ops: self.stat_ops,
            stat_peak_sum: self.stat_peak_sum,
            stat_peak_sq: self.stat_peak_sq,
        }
    }

    /// Overwrites the incremental statistics with a captured
    /// [`SystemState::stat_snapshot`] (checkpoint plumbing; pair with
    /// [`SystemState::restore_node`] for every node).
    pub fn restore_stats(&mut self, s: StatSnapshot) {
        self.height_sum = s.height_sum;
        self.height_sq_sum = s.height_sq_sum;
        self.stat_ops = s.stat_ops;
        self.stat_peak_sum = s.stat_peak_sum;
        self.stat_peak_sq = s.stat_peak_sq;
    }

    /// Replaces node `v`'s resident tasks and height wholesale without
    /// touching the incremental statistics (checkpoint plumbing); the
    /// smallest task size is recomputed from `tasks`. `height`
    /// is the *accumulated* height recorded at capture time — it may differ
    /// from `Σ size` in the last ulp, which is exactly why it is restored
    /// verbatim instead of being recomputed.
    pub fn restore_node(&mut self, v: NodeId, tasks: Vec<Task>, height: f64) {
        let slot = &mut self.nodes[v.idx()];
        self.resident_tasks = self.resident_tasks - slot.tasks.len() + tasks.len();
        self.min_sizes[v.idx()] = tasks.iter().map(|t| t.size).fold(f64::INFINITY, f64::min);
        slot.tasks = tasks;
        slot.height = height;
        self.heights[v.idx()] = height;
        self.sync_occupancy(v.idx());
    }
}

/// The five incremental imbalance statistics of a [`SystemState`], captured
/// exactly for checkpoint/resume (see [`SystemState::stat_snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatSnapshot {
    /// Incremental `Σh`.
    pub height_sum: f64,
    /// Incremental `Σh²`.
    pub height_sq_sum: f64,
    /// Height mutations since construction.
    pub stat_ops: u64,
    /// Largest `|Σh|` magnitude reached.
    pub stat_peak_sum: f64,
    /// Largest `|Σh²|` magnitude reached.
    pub stat_peak_sq: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_topology::links::LinkAttrs;

    fn task(id: u64, size: f64) -> Task {
        Task::new(TaskId(id), size, 0)
    }

    fn small_state() -> SystemState {
        let topo = Topology::ring(4);
        let links = LinkMap::uniform(&topo, LinkAttrs::default());
        SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none())
    }

    #[test]
    fn add_remove_updates_height() {
        let mut n = NodeState::default();
        n.add_task(task(0, 2.0));
        n.add_task(task(1, 3.0));
        assert_eq!(n.height(), 5.0);
        assert_eq!(n.task_count(), 2);
        let t = n.remove_task(TaskId(0)).unwrap();
        assert_eq!(t.size, 2.0);
        assert_eq!(n.height(), 3.0);
        assert!(n.remove_task(TaskId(0)).is_none());
        assert!(n.has_task(TaskId(1)));
    }

    #[test]
    fn consume_work_partial() {
        let mut n = NodeState::default();
        n.add_task(task(0, 2.0));
        let (done, used) = n.consume_work(0.5);
        assert!(done.is_empty());
        assert_eq!(used, 0.5);
        assert_eq!(n.tasks()[0].work, 1.5);
        // Height only drops when the task completes.
        assert_eq!(n.height(), 2.0);
    }

    #[test]
    fn consume_work_completes_tasks_in_order() {
        let mut n = NodeState::default();
        n.add_task(task(0, 1.0));
        n.add_task(task(1, 1.0));
        n.add_task(task(2, 1.0));
        let (done, used) = n.consume_work(2.5);
        assert_eq!(done, vec![TaskId(0), TaskId(1)]);
        assert_eq!(used, 2.5);
        assert_eq!(n.height(), 1.0);
        assert_eq!(n.tasks()[0].work, 0.5);
    }

    #[test]
    fn system_consume_count_matches_node_listing() {
        let mut node = NodeState::default();
        let mut s = small_state();
        for i in 0..3 {
            node.add_task(task(i, 1.0));
            s.add_task(NodeId(0), task(i, 1.0));
        }
        let (done, used_a) = node.consume_work(2.5);
        let (count, used_b) = s.consume_work(NodeId(0), 2.5);
        assert_eq!(done.len(), count);
        assert_eq!(used_a, used_b);
        assert_eq!(node.height(), s.node(NodeId(0)).height());
    }

    #[test]
    fn consume_work_on_empty_node() {
        let mut n = NodeState::default();
        let (done, used) = n.consume_work(1.0);
        assert!(done.is_empty());
        assert_eq!(used, 0.0);
    }

    #[test]
    fn system_heights_and_totals() {
        let mut s = small_state();
        s.add_task(NodeId(0), task(0, 4.0));
        s.add_task(NodeId(2), task(1, 1.0));
        assert_eq!(s.heights(), vec![4.0, 0.0, 1.0, 0.0]);
        assert_eq!(s.height_slice(), &[4.0, 0.0, 1.0, 0.0]);
        assert_eq!(s.total_load(), 5.0);
        assert_eq!(s.total_tasks(), 2);
        assert_eq!(s.colocated_ids(NodeId(0)), vec![TaskId(0)]);
    }

    #[test]
    fn incremental_stats_track_mutations() {
        let mut s = small_state();
        s.add_task(NodeId(0), task(0, 4.0));
        s.add_task(NodeId(1), task(1, 2.0));
        s.add_task(NodeId(1), task(2, 2.0));
        let expect = pp_metrics::imbalance::Imbalance::of(s.height_slice());
        assert!((s.cov() - expect.cov).abs() < 1e-12, "{} vs {}", s.cov(), expect.cov);
        assert!((s.mean_height() - expect.mean).abs() < 1e-12);

        s.remove_task(NodeId(1), TaskId(1)).unwrap();
        s.consume_work(NodeId(0), 4.0); // completes the size-4 task
        let expect = pp_metrics::imbalance::Imbalance::of(s.height_slice());
        assert!((s.cov() - expect.cov).abs() < 1e-12, "{} vs {}", s.cov(), expect.cov);
        assert_eq!(s.heights(), vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_work_task_completion_refreshes_height() {
        // A task can carry load (size) but no work; completing it consumes
        // nothing yet still lowers the height — the cache must follow.
        let mut s = small_state();
        s.add_task(NodeId(1), Task::new(TaskId(0), 2.0, 1).with_work(0.0));
        assert_eq!(s.height_slice()[1], 2.0);
        let (done, used) = s.consume_work(NodeId(1), 1.0);
        assert_eq!((done, used), (1, 0.0));
        assert_eq!(s.height_slice()[1], 0.0);
        assert_eq!(s.total_load(), 0.0);
        assert_eq!(s.cov(), 0.0);
    }

    #[test]
    fn non_completing_consume_step_only_counts_the_operation() {
        let mut s = small_state();
        s.add_task(NodeId(0), task(0, 3.0));
        s.add_task(NodeId(1), task(1, 0.7));
        s.add_task(NodeId(1), task(2, 0.2));
        let before = s.stat_snapshot();
        let heights: Vec<u64> = s.height_slice().iter().map(|h| h.to_bits()).collect();
        assert_eq!(s.consume_work(NodeId(0), 1.25), (0, 1.25));
        let after = s.stat_snapshot();
        assert_eq!(after.stat_ops, before.stat_ops + 1);
        assert_eq!(after.height_sum.to_bits(), before.height_sum.to_bits());
        assert_eq!(after.height_sq_sum.to_bits(), before.height_sq_sum.to_bits());
        assert_eq!(after.stat_peak_sum.to_bits(), before.stat_peak_sum.to_bits());
        assert_eq!(after.stat_peak_sq.to_bits(), before.stat_peak_sq.to_bits());
        let now: Vec<u64> = s.height_slice().iter().map(|h| h.to_bits()).collect();
        assert_eq!(now, heights);
        assert_eq!(s.node(NodeId(0)).tasks()[0].work, 1.75);

        // A completing step still refreshes with the same float operations.
        let old = s.height_slice()[1];
        let new = old - 0.7;
        assert_eq!(s.consume_work(NodeId(1), 0.7), (1, 0.7));
        let done = s.stat_snapshot();
        assert_eq!(done.stat_ops, after.stat_ops + 1);
        assert_eq!(s.height_slice()[1].to_bits(), new.to_bits());
        assert_eq!(done.height_sum.to_bits(), (after.height_sum + (new - old)).to_bits());
        let sq = after.height_sq_sum + (new * new - old * old);
        assert_eq!(done.height_sq_sum.to_bits(), sq.to_bits());
    }

    #[test]
    fn remove_missing_task_is_a_clean_noop() {
        let mut s = small_state();
        s.add_task(NodeId(0), task(0, 1.0));
        let cov = s.cov();
        assert!(s.remove_task(NodeId(2), TaskId(0)).is_none());
        assert_eq!(s.cov(), cov);
        assert_eq!(s.total_load(), 1.0);
    }

    #[test]
    fn empty_system_cov_is_zero() {
        let s = small_state();
        assert_eq!(s.cov(), 0.0);
        assert_eq!(s.mean_height(), 0.0);
        assert_eq!(s.total_load(), 0.0);
    }

    #[test]
    fn restore_round_trips_state_and_stats_exactly() {
        // Drive one state through a mutation history, capture it, replay the
        // capture into a fresh state, and require bit-identical behavior —
        // including the drift-bearing incremental sums.
        let mut s = small_state();
        for i in 0..40u64 {
            s.add_task(NodeId((i % 4) as u32), task(i, 0.1 * (i + 1) as f64));
        }
        for i in (0..40u64).step_by(3) {
            s.remove_task(NodeId((i % 4) as u32), TaskId(i));
        }
        s.consume_work(NodeId(0), 1.7);

        let mut fresh = small_state();
        for v in 0..4 {
            let node = NodeId(v);
            fresh.restore_node(node, s.node(node).tasks().to_vec(), s.node(node).height());
        }
        fresh.restore_stats(s.stat_snapshot());

        assert_eq!(fresh.height_slice(), s.height_slice());
        assert_eq!(fresh.stat_snapshot(), s.stat_snapshot());
        assert_eq!(fresh.cov().to_bits(), s.cov().to_bits());
        assert_eq!(fresh.mean_height().to_bits(), s.mean_height().to_bits());
        assert_eq!(fresh.total_tasks(), s.total_tasks());
        // Subsequent identical mutations keep the two in lockstep.
        s.add_task(NodeId(2), task(99, 0.3));
        fresh.add_task(NodeId(2), task(99, 0.3));
        assert_eq!(fresh.cov().to_bits(), s.cov().to_bits());
        assert_eq!(fresh.stat_snapshot(), s.stat_snapshot());
    }

    #[test]
    fn resident_counter_tracks_every_mutation() {
        let mut s = small_state();
        assert_eq!(s.resident_tasks(), 0);
        for i in 0..12u64 {
            s.add_task(NodeId((i % 4) as u32), task(i, 1.0));
            assert_eq!(s.resident_tasks(), s.total_tasks());
        }
        s.remove_task(NodeId(0), TaskId(0)).unwrap();
        assert_eq!(s.resident_tasks(), 11);
        // A miss changes nothing.
        assert!(s.remove_task(NodeId(0), TaskId(0)).is_none());
        assert_eq!(s.resident_tasks(), 11);
        // Consuming completes two whole unit tasks plus a partial third.
        s.consume_work(NodeId(1), 2.5);
        assert_eq!(s.resident_tasks(), 9);
        assert_eq!(s.resident_tasks(), s.total_tasks());
    }

    #[test]
    fn resident_counter_survives_restore() {
        let mut s = small_state();
        for i in 0..10u64 {
            s.add_task(NodeId((i % 4) as u32), task(i, 0.5));
        }
        s.consume_work(NodeId(2), 0.7);
        let mut fresh = small_state();
        fresh.add_task(NodeId(3), task(99, 9.0)); // pre-restore junk to displace
        for v in 0..4 {
            let node = NodeId(v);
            fresh.restore_node(node, s.node(node).tasks().to_vec(), s.node(node).height());
        }
        fresh.restore_stats(s.stat_snapshot());
        assert_eq!(fresh.resident_tasks(), s.resident_tasks());
        assert_eq!(fresh.resident_tasks(), fresh.total_tasks());
    }

    #[test]
    fn zero_work_completion_decrements_resident_counter() {
        let mut s = small_state();
        s.add_task(NodeId(1), Task::new(TaskId(0), 2.0, 1).with_work(0.0));
        assert_eq!(s.resident_tasks(), 1);
        s.consume_work(NodeId(1), 1.0);
        assert_eq!(s.resident_tasks(), 0);
    }

    /// Asserts that node `i`'s occupancy bit is `task_count() != 0` at
    /// every node, and that the padding bits past the last node are clear;
    /// and that each node's smallest task size is its task list's.
    fn assert_occupancy_mirrors(s: &SystemState, when: &str) {
        for v in 0..s.node_count() {
            let tasks = s.node(NodeId(v as u32)).tasks();
            let min = tasks.iter().map(|t| t.size).fold(f64::INFINITY, f64::min);
            assert_eq!(s.min_task_sizes()[v], min, "smallest size of node {v} {when}");
        }
        let words = s.occupied_words();
        assert_eq!(words.len(), s.node_count().div_ceil(NODE_WORD), "{when}");
        for i in 0..words.len() * NODE_WORD {
            let bit = node_bit(words, i);
            let held = i < s.node_count() && s.node(NodeId(i as u32)).task_count() != 0;
            assert_eq!(bit, held, "occupancy bit of node {i} {when}");
        }
    }

    #[test]
    fn occupancy_bits_mirror_every_mutation_and_restore() {
        let mut s = small_state();
        assert_occupancy_mirrors(&s, "at construction");
        for i in 0..9u64 {
            s.add_task(NodeId((i % 3) as u32), task(i, 1.0));
            assert_occupancy_mirrors(&s, "after an add");
        }
        s.remove_task(NodeId(1), TaskId(1)).unwrap();
        assert_occupancy_mirrors(&s, "after a remove");
        assert!(s.remove_task(NodeId(1), TaskId(1)).is_none()); // miss: no change
        assert_occupancy_mirrors(&s, "after a missed remove");
        s.consume_work(NodeId(0), 2.5); // completes 2, leaves a partial third
        assert_occupancy_mirrors(&s, "after a partial consume");
        s.consume_work(NodeId(2), 3.0); // completes all three: the bit clears
        assert_occupancy_mirrors(&s, "after a draining consume");
        assert_eq!(s.occupied_words(), &[0b0011]);
        for id in [4, 7] {
            s.remove_task(NodeId(1), TaskId(id)).unwrap();
            assert_occupancy_mirrors(&s, "after removing a node's tasks");
        }
        assert_eq!(s.occupied_words(), &[0b0001]);
        // The word kernel flips bits the same way.
        s.add_task(NodeId(3), Task::new(TaskId(20), 1.0, 0).with_work(0.0));
        s.consume_word(0, 0b1001, 0.25, &[]);
        assert_occupancy_mirrors(&s, "after a word consume");
        assert_eq!(s.occupied_words(), &[0b0001]);

        // Restore replaces the bits wholesale along with the tasks.
        let mut fresh = small_state();
        fresh.add_task(NodeId(3), task(99, 9.0)); // junk to displace
        for v in 0..4 {
            let node = NodeId(v);
            fresh.restore_node(node, s.node(node).tasks().to_vec(), s.node(node).height());
            assert_occupancy_mirrors(&fresh, "mid-restore");
        }
        assert_eq!(fresh.occupied_words(), s.occupied_words());
    }

    #[test]
    fn occupancy_words_pad_a_partial_final_word() {
        let topo = Topology::ring(130);
        let links = LinkMap::uniform(&topo, LinkAttrs::default());
        let mut s = SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none());
        for (id, v) in [0u32, 63, 64, 127, 128, 129].into_iter().enumerate() {
            s.add_task(NodeId(v), task(id as u64, 1.0));
        }
        assert_occupancy_mirrors(&s, "over three words");
        assert_eq!(s.occupied_words(), &[1 | 1 << 63, 1 | 1 << 63, 0b11]);
        s.consume_word(2, 0b11, 1.0, &[]);
        assert_eq!(s.occupied_words(), &[1 | 1 << 63, 1 | 1 << 63, 0]);
    }

    #[test]
    fn link_map_is_edge_indexed() {
        let s = small_state();
        assert_eq!(s.links().len(), s.topo.edge_count());
        let e = s.topo.edge_index(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(s.links().get(e), LinkAttrs::default());
    }

    #[test]
    #[should_panic(expected = "one entry per edge")]
    fn link_map_for_another_topology_is_refused() {
        let links = LinkMap::uniform(&Topology::ring(3), LinkAttrs::default());
        let _ =
            SystemState::new(Topology::ring(4), links, TaskGraph::new(), ResourceMatrix::none());
    }
}
