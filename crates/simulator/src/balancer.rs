//! The balancer interface: what any load-balancing policy (the paper's
//! particle-plane algorithm or a baseline) sees and may do.
//!
//! Policies are *node-local*: at each balance tick the engine calls
//! [`LoadBalancer::decide`] once per node that holds a task, with that
//! node's [`NodeView`] (its own tasks plus neighbour heights/link weights —
//! exactly the information a decentralized agent would have). Once per tick,
//! [`LoadBalancer::begin_round`] lets a policy refresh internal per-round
//! state (e.g. the gradient model's propagated pressure map) from the
//! round's global snapshot — modelling the per-round neighbour message
//! exchange those algorithms perform.
//!
//! The paper's in-motion behaviour (a sliding load deciding whether to
//! climb onward at each intermediate node, §5.1) is exposed via
//! [`LoadBalancer::on_arrival`].

use crate::state::SystemState;
use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::{Task, TaskId};
use pp_topology::edgeset::EdgeBitSet;
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::LinkAttrs;
use rand::rngs::StdRng;

/// A node's local view at decision time.
#[derive(Debug)]
pub struct NodeView<'a> {
    /// The deciding node.
    pub node: NodeId,
    /// Its height `h(v_i)`.
    pub height: f64,
    /// Its resident tasks.
    pub tasks: &'a [Task],
    /// Its live neighbours' ids (links currently down are omitted — this is
    /// how fault awareness reaches the policy). Borrowed from the
    /// [`ViewScratch`] the view was built into. The view is
    /// structure-of-arrays: neighbour `k` is `neighbors[k]`, at height
    /// `nbr_heights[k]` over a link of weight `nbr_weights[k]`.
    pub neighbors: &'a [NodeId],
    /// Each live neighbour's current height `h(v_j)`, index-aligned with
    /// `neighbors`.
    pub nbr_heights: &'a [f64],
    /// The paper's link weight `e_{i,j}` (with the engine's constant `c`)
    /// toward each live neighbour, index-aligned with `neighbors`.
    pub nbr_weights: &'a [f64],
    /// The task dependency graph `T`.
    pub task_graph: &'a TaskGraph,
    /// The resource matrix `R`.
    pub resources: &'a ResourceMatrix,
    /// Balance round counter.
    pub round: u64,
    /// Simulation time.
    pub time: f64,
}

/// Reusable backing storage for a [`NodeView`]'s neighbour slices. One
/// instance per decision thread; [`build_view`] overwrites it each call, so
/// steady-state view construction performs no heap allocation.
#[derive(Debug, Default)]
pub struct ViewScratch {
    neighbors: Vec<NodeId>,
    nbr_heights: Vec<f64>,
    nbr_weights: Vec<f64>,
}

impl ViewScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        ViewScratch::default()
    }
}

/// Per-edge link context for view building: edge-indexed attributes,
/// optionally precomputed `e_{i,j}` weights for a fixed `c`, and the set of
/// edges currently down.
#[derive(Debug, Clone, Copy)]
pub struct LinkView<'a> {
    /// Link attributes by edge id (see [`pp_topology::links::LinkMap`]).
    pub attrs: &'a [LinkAttrs],
    /// Precomputed weights by edge id; `None` computes `attrs.weight(c)`
    /// per neighbour (fine for tests, avoided on the engine hot path).
    pub weights: Option<&'a [f64]>,
    /// The constant `c` used when `weights` is `None`.
    pub weight_c: f64,
    /// Edges currently down; `None` means every link is up.
    pub down: Option<&'a EdgeBitSet>,
}

impl<'a> LinkView<'a> {
    /// A link view over `state`'s attribute table with all links up and
    /// weights computed on the fly — the test/diagnostic configuration.
    pub fn all_up(state: &'a SystemState, weight_c: f64) -> Self {
        LinkView { attrs: state.links().attrs(), weights: None, weight_c, down: None }
    }

    /// Whether the edge is currently up.
    #[inline]
    pub fn is_up(&self, e: pp_topology::graph::EdgeId) -> bool {
        self.down.is_none_or(|d| !d.contains(e))
    }
}

/// Global per-round snapshot passed to [`LoadBalancer::begin_round`].
#[derive(Debug)]
pub struct GlobalView<'a> {
    /// The network.
    pub topo: &'a Topology,
    /// Heights of all nodes this round.
    pub heights: &'a [f64],
    /// Balance round counter.
    pub round: u64,
    /// Simulation time.
    pub time: f64,
}

/// A load in flight between nodes.
#[derive(Debug, Clone, Copy)]
pub struct MigratingLoad {
    /// The task being moved.
    pub task: Task,
    /// The balancer-specific energy flag (the paper's potential height `h*`;
    /// baselines may ignore it).
    pub flag: f64,
    /// Hops completed so far.
    pub hops: u32,
    /// The node that originally emitted this migration.
    pub source: NodeId,
}

/// One proposed migration: move `task` to neighbour `to`.
#[derive(Debug, Clone, Copy)]
pub struct MigrationIntent {
    /// The task to move (must be resident on the deciding node).
    pub task: TaskId,
    /// Destination (must be a live neighbour).
    pub to: NodeId,
    /// Energy flag to attach to the load (`h*` after this hop for the
    /// particle-plane balancer; 0 for baselines).
    pub flag: f64,
    /// Predicted heat `E_h` charged for this hop (0 for baselines) —
    /// recorded in the traffic ledger for the heat ≡ traffic experiment.
    pub heat: f64,
}

/// A load-balancing policy.
///
/// `decide`/`on_arrival` take `&self` so the engine may evaluate nodes in
/// parallel; per-round mutable state belongs in `begin_round`.
///
/// **Empty-node contract.** The engine asks only nodes that hold a task to
/// decide. An intent moves one of the deciding node's own tasks, so an
/// empty node has nothing to emit, and a policy must draw nothing from the
/// RNG when `view.tasks` is empty: then not asking an empty node is
/// unobservable — no intent and no RNG stream differs from asking it.
/// Every policy in `pp-core` returns before touching its RNG in that case.
pub trait LoadBalancer: Send + Sync {
    /// Human-readable policy name (used in reports and tables).
    fn name(&self) -> &str;

    /// Per-round refresh from the global snapshot (optional).
    fn begin_round(&mut self, _global: &GlobalView<'_>) {}

    /// Migration decisions for a stationary node at a balance tick. Called
    /// only for a node with at least one resident task (see the empty-node
    /// contract above).
    fn decide(&self, view: &NodeView<'_>, rng: &mut StdRng) -> Vec<MigrationIntent>;

    /// Appends this node's migration decisions to `out` — the allocation-
    /// free form of [`LoadBalancer::decide`] the sweep's hot path uses.
    ///
    /// The engine hands every node of a shard the *same* shard-local arena,
    /// so a policy overriding this writes straight into memory owned by the
    /// worker that owns the shard — no per-node `Vec`, no global-allocator
    /// traffic mid-round. Must append exactly what `decide` would return,
    /// in the same order, with the same RNG draws; the default delegates to
    /// `decide` and is always correct.
    fn decide_into(&self, view: &NodeView<'_>, rng: &mut StdRng, out: &mut Vec<MigrationIntent>) {
        out.extend(self.decide(view, rng));
    }

    /// Whether `decide` is **quiescence-stable**: given a view whose tasks,
    /// heights and live neighbour links are unchanged since a call that
    /// returned no intents, `decide` is guaranteed to (a) return no intents
    /// again and (b) draw nothing from the RNG — regardless of the `round`
    /// and `time` fields, which keep advancing.
    ///
    /// A stable policy's [`LoadBalancer::begin_round`] must additionally be
    /// **effect-free**: no internal state mutation, no RNG, no observable
    /// side effect. The sharded pipeline still calls it every round, but
    /// the event strategy ([`crate::strategy::SimulationStrategy::Event`])
    /// fast-forwards whole quiescent rounds — `begin_round` included — and
    /// byte-exactness of the skip relies on those calls having been no-ops.
    ///
    /// The engine's sharded tick pipeline uses this to skip the decision
    /// sweep over shards whose state (and halo) has not changed, with
    /// byte-identical outcomes. Policies with per-round internal state
    /// (`begin_round`), round-dependent randomness, or RNG draws on the
    /// empty-decision path must return `false` — the default, which is
    /// always safe.
    fn quiescence_stable(&self) -> bool {
        false
    }

    /// Decision for a load arriving at `view.node` mid-flight: `Some` to
    /// forward it onward, `None` to deposit it here. Default: deposit.
    fn on_arrival(
        &self,
        _view: &NodeView<'_>,
        _load: &MigratingLoad,
        _rng: &mut StdRng,
    ) -> Option<MigrationIntent> {
        None
    }

    /// Serializes the policy's *internal dynamic* state for a checkpoint —
    /// anything `begin_round` or `decide` mutates or caches across rounds
    /// (e.g. the gradient model's propagated pressure map). Configuration
    /// that the policy was constructed with must NOT be included: a restore
    /// always targets a policy rebuilt from the same spec.
    ///
    /// The default returns `None` — correct for stateless policies, and the
    /// engine then skips [`LoadBalancer::load_state`] entirely on restore.
    fn save_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restores internal state captured by [`LoadBalancer::save_state`].
    /// Called by [`Engine::restore`](crate::engine::Engine::restore) only
    /// when the checkpoint carries a state value; `nodes` is the engine's
    /// node count, so per-node state can be length-validated. The default
    /// is a no-op `Ok(())`, so stateless policies tolerate checkpoints
    /// written by a (hypothetical) stateful ancestor; stateful policies
    /// must override both methods together and report malformed values as
    /// `Err`, never panic — checkpoint bytes are untrusted input.
    fn load_state(&mut self, _state: &serde::Value, _nodes: usize) -> Result<(), String> {
        Ok(())
    }
}

/// A policy that never moves anything — the "no balancing" control.
#[derive(Debug, Default, Clone)]
pub struct NullBalancer;

impl LoadBalancer for NullBalancer {
    fn name(&self) -> &str {
        "null"
    }

    fn decide(&self, _view: &NodeView<'_>, _rng: &mut StdRng) -> Vec<MigrationIntent> {
        Vec::new()
    }

    fn quiescence_stable(&self) -> bool {
        true
    }
}

/// Builds the [`NodeView`] of `node` into `scratch` (helper shared by the
/// engine and by balancer unit tests).
///
/// The neighbour slices are written into `scratch` and borrowed by the
/// returned view, so steady-state calls allocate nothing. Neighbours and
/// their edge ids come from the topology's CSR slices; link weights are
/// read from the edge-indexed tables in `links` — no hashing anywhere on
/// the path.
pub fn build_view<'a>(
    scratch: &'a mut ViewScratch,
    state: &'a SystemState,
    node: NodeId,
    heights: &'a [f64],
    links: &LinkView<'_>,
    round: u64,
    time: f64,
) -> NodeView<'a> {
    scratch.neighbors.clear();
    scratch.nbr_heights.clear();
    scratch.nbr_weights.clear();
    let nbrs = state.topo.neighbors(node);
    let eids = state.topo.neighbor_edge_ids(node);
    for (&j, &e) in nbrs.iter().zip(eids) {
        if !links.is_up(e) {
            continue;
        }
        let link_weight = match links.weights {
            Some(w) => w[e.idx()],
            None => links.attrs[e.idx()].weight(links.weight_c),
        };
        scratch.neighbors.push(j);
        scratch.nbr_heights.push(heights[j.idx()]);
        scratch.nbr_weights.push(link_weight);
    }
    NodeView {
        node,
        height: heights[node.idx()],
        tasks: state.node(node).tasks(),
        neighbors: &scratch.neighbors,
        nbr_heights: &scratch.nbr_heights,
        nbr_weights: &scratch.nbr_weights,
        task_graph: &state.task_graph,
        resources: &state.resources,
        round,
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_topology::graph::Topology;
    use pp_topology::links::LinkMap;
    use rand::SeedableRng;

    fn ring_state() -> SystemState {
        let topo = Topology::ring(4);
        let links = LinkMap::uniform(&topo, LinkAttrs::default());
        SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none())
    }

    #[test]
    fn null_balancer_does_nothing() {
        let mut state = ring_state();
        state.add_task(NodeId(0), Task::new(TaskId(0), 5.0, 0));
        let mut scratch = ViewScratch::new();
        let heights = state.heights();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(0),
            &heights,
            &LinkView::all_up(&state, 1.0),
            0,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let b = NullBalancer;
        assert!(b.decide(&view, &mut rng).is_empty());
        assert_eq!(b.name(), "null");
    }

    #[test]
    fn view_includes_all_up_neighbors() {
        let state = ring_state();
        let heights = vec![1.0, 2.0, 3.0, 4.0];
        let mut scratch = ViewScratch::new();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(0),
            &heights,
            &LinkView::all_up(&state, 1.0),
            3,
            1.5,
        );
        assert_eq!(view.neighbors.len(), 2);
        assert_eq!(view.round, 3);
        assert_eq!(view.neighbors, [NodeId(1), NodeId(3)]);
        assert_eq!(view.nbr_heights, [2.0, 4.0]);
    }

    #[test]
    fn down_links_hidden_from_view() {
        let state = ring_state();
        let heights = vec![0.0; 4];
        let mut down = EdgeBitSet::new(state.topo.edge_count());
        down.insert(state.topo.edge_index(NodeId(0), NodeId(1)).unwrap());
        let links = LinkView { down: Some(&down), ..LinkView::all_up(&state, 1.0) };
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &state, NodeId(0), &heights, &links, 0, 0.0);
        assert_eq!(view.neighbors, [NodeId(3)]);
    }

    #[test]
    fn scratch_is_reusable_across_nodes() {
        let state = ring_state();
        let heights = vec![0.0; 4];
        let mut scratch = ViewScratch::new();
        for node in [NodeId(0), NodeId(2), NodeId(1)] {
            let view = build_view(
                &mut scratch,
                &state,
                node,
                &heights,
                &LinkView::all_up(&state, 1.0),
                0,
                0.0,
            );
            assert_eq!(view.neighbors.len(), 2);
            assert_eq!(view.node, node);
        }
    }

    #[test]
    fn precomputed_weights_override_on_the_fly() {
        let state = ring_state();
        let heights = vec![0.0; 4];
        let table: Vec<f64> = (0..state.topo.edge_count()).map(|i| 10.0 + i as f64).collect();
        let links = LinkView { weights: Some(&table), ..LinkView::all_up(&state, 1.0) };
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &state, NodeId(0), &heights, &links, 0, 0.0);
        for (&j, &w) in view.neighbors.iter().zip(view.nbr_weights) {
            let e = state.topo.edge_index(NodeId(0), j).unwrap();
            assert_eq!(w, table[e.idx()]);
        }
    }

    #[test]
    fn soa_slices_stay_aligned_with_the_neighbor_ids() {
        let state = ring_state();
        let heights = vec![1.0, 2.0, 3.0, 4.0];
        let mut down = EdgeBitSet::new(state.topo.edge_count());
        down.insert(state.topo.edge_index(NodeId(0), NodeId(1)).unwrap());
        let links = LinkView { down: Some(&down), ..LinkView::all_up(&state, 2.0) };
        let mut scratch = ViewScratch::new();
        for node in [NodeId(0), NodeId(2), NodeId(0)] {
            let view = build_view(&mut scratch, &state, node, &heights, &links, 0, 0.0);
            assert_eq!(view.nbr_heights.len(), view.neighbors.len());
            assert_eq!(view.nbr_weights.len(), view.neighbors.len());
            for (k, &j) in view.neighbors.iter().enumerate() {
                let e = state.topo.edge_index(node, j).unwrap();
                assert_eq!(view.nbr_heights[k].to_bits(), heights[j.idx()].to_bits());
                assert_eq!(
                    view.nbr_weights[k].to_bits(),
                    links.attrs[e.idx()].weight(2.0).to_bits()
                );
            }
        }
    }

    #[test]
    fn default_on_arrival_deposits() {
        let state = ring_state();
        let heights = vec![0.0; 4];
        let mut scratch = ViewScratch::new();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(1),
            &heights,
            &LinkView::all_up(&state, 1.0),
            0,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let load = MigratingLoad {
            task: Task::new(TaskId(9), 1.0, 0),
            flag: 0.0,
            hops: 1,
            source: NodeId(0),
        };
        assert!(NullBalancer.on_arrival(&view, &load, &mut rng).is_none());
    }
}
