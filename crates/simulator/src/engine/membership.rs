//! The churn-and-faults phase: which nodes and links are live. Churn
//! applies at the top of a tick and draws no randomness, so churned runs
//! stay byte-identical across layouts.
//!
//! [`Membership`] is the only writer of the **link mask** — the one edge
//! set node views, launches and [`Membership::live_edge`] consult — and
//! keeps mask = down links ∪ every edge incident to a down node.

use super::sweep::Sweep;
use super::FaultModel;
use crate::balancer::LinkView;
use crate::checkpoint::{Checkpoint, ChurnPrefix};
use crate::churn::{ChurnEvent, ChurnPlan};
use crate::state::{node_bit, set_node_bit, SystemState, NODE_WORD};
use pp_metrics::ledger::digest_word;
use pp_topology::edgeset::EdgeBitSet;
use pp_topology::graph::{EdgeId, NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// Live nodes and links, and the link view built from them.
#[derive(Clone)]
pub(super) struct Membership {
    /// The join/leave schedule, sorted by `(round, node)`; static, so
    /// checkpoints carry only a fingerprint of its applied prefix.
    pub(super) churn: Vec<ChurnEvent>,
    /// Next unapplied entry of `churn`.
    next: usize,
    /// Churned-out nodes, in the occupancy bitset layout.
    down_nodes: Vec<u64>,
    /// Links the fault process holds down.
    down_links: EdgeBitSet,
    /// Down links ∪ edges incident to a down node.
    masked: EdgeBitSet,
    /// Precomputed `e_{i,j}` per edge id for `weight_c`.
    pub(super) weights: Vec<f64>,
    /// The constant `c` in the link weight formula.
    weight_c: f64,
}

impl Membership {
    /// Every node and link up, with `plan` scheduled.
    pub(super) fn new(state: &SystemState, plan: ChurnPlan, weight_c: f64) -> Self {
        let edges = state.topo.edge_count();
        Membership {
            churn: plan.into_events(),
            next: 0,
            down_nodes: vec![0; state.node_count().div_ceil(NODE_WORD)],
            down_links: EdgeBitSet::new(edges),
            masked: EdgeBitSet::new(edges),
            weights: state.links().weights(weight_c),
            weight_c,
        }
    }

    /// The one live-link view every node view is built from.
    pub(super) fn links<'a>(&'a self, state: &'a SystemState) -> LinkView<'a> {
        LinkView {
            attrs: state.links().attrs(),
            weights: Some(&self.weights),
            weight_c: self.weight_c,
            down: (!self.masked.none_set()).then_some(&self.masked),
        }
    }

    /// Whether node `v` is currently part of the system.
    #[inline]
    pub(super) fn node_up(&self, v: NodeId) -> bool {
        !node_bit(&self.down_nodes, v.idx())
    }

    /// The down-node bitset words.
    pub(super) fn down_words(&self) -> &[u64] {
        &self.down_nodes
    }

    /// Links currently down.
    pub(super) fn down_link_count(&self) -> usize {
        self.down_links.count()
    }

    /// Nodes currently churned out.
    pub(super) fn down_node_count(&self) -> usize {
        self.down_nodes.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether a churn event is due at or before `round`.
    #[inline]
    pub(super) fn churn_due(&self, round: u64) -> bool {
        self.churn.get(self.next).is_some_and(|ev| ev.round <= round)
    }

    /// Applies every churn event due at or before `round`, in plan order.
    pub(super) fn apply_churn(&mut self, round: u64, state: &mut SystemState, sweep: &mut Sweep) {
        while self.churn_due(round) {
            let ev = self.churn[self.next];
            self.next += 1;
            if ev.leave {
                self.leave(NodeId(ev.node), state, sweep);
            } else {
                self.join(NodeId(ev.node), &state.topo, sweep);
            }
        }
    }

    /// Takes node `v` out of the system: masks its incident edges and
    /// drains its resident tasks round-robin over the up neighbours
    /// reachable across non-faulted links (ascending node order — the CSR
    /// order every other sweep uses). With no live receiver (every
    /// neighbour down or every incident link faulted) the tasks freeze in
    /// place until the node rejoins; they are not consumed meanwhile.
    fn leave(&mut self, v: NodeId, state: &mut SystemState, sweep: &mut Sweep) {
        set_node_bit(&mut self.down_nodes, v.idx(), true);
        let mut receivers: Vec<NodeId> = Vec::new();
        for (&u, &e) in state.topo.neighbors(v).iter().zip(state.topo.neighbor_edge_ids(v)) {
            self.masked.insert(e);
            if self.node_up(u) && !self.down_links.contains(e) {
                receivers.push(u);
            }
        }
        sweep.mark_node_dirty(&state.topo, v);
        if receivers.is_empty() {
            return;
        }
        let ids: Vec<_> = state.node(v).tasks().iter().map(|t| t.id).collect();
        for (i, id) in ids.into_iter().enumerate() {
            let task = state.remove_task(v, id).expect("drained task is resident");
            state.add_task(receivers[i % receivers.len()], task);
        }
        for &u in &receivers {
            sweep.mark_node_dirty(&state.topo, u);
        }
    }

    /// Brings node `v` back cold: unmasks its incident edges (except those
    /// whose other endpoint is still down, and those the fault process
    /// holds down) and wakes the shards that can observe it.
    fn join(&mut self, v: NodeId, topo: &Topology, sweep: &mut Sweep) {
        set_node_bit(&mut self.down_nodes, v.idx(), false);
        for (&u, &e) in topo.neighbors(v).iter().zip(topo.neighbor_edge_ids(v)) {
            if self.node_up(u) && !self.down_links.contains(e) {
                self.masked.remove(e);
            }
        }
        sweep.mark_node_dirty(topo, v);
    }

    /// The link fault process: every up link goes down with probability
    /// `p_down` and every down link recovers with probability `p_up`, one
    /// engine-stream draw per edge in id order.
    pub(super) fn update_faults(
        &mut self,
        fm: FaultModel,
        rng: &mut StdRng,
        topo: &Topology,
        sweep: &mut Sweep,
    ) {
        for e in 0..topo.edge_count() as u32 {
            let e = EdgeId(e);
            let down = self.down_links.contains(e);
            if rng.gen_bool(if down { fm.p_up } else { fm.p_down }) {
                self.set_link(topo, e, !down);
                let (u, v) = topo.edge_endpoints(e);
                sweep.mark_link_dirty(u, v);
            }
        }
    }

    /// Takes link `e` down or brings it up. The mask lifts only if
    /// neither endpoint is down.
    fn set_link(&mut self, topo: &Topology, e: EdgeId, down: bool) {
        if down {
            self.down_links.insert(e);
            self.masked.insert(e);
            return;
        }
        self.down_links.remove(e);
        let (u, v) = topo.edge_endpoints(e);
        if self.node_up(u) && self.node_up(v) {
            self.masked.remove(e);
        }
    }

    /// The live edge between `u` and `v`, if the edge exists, its link is
    /// up, and neither endpoint has churned out.
    #[inline]
    pub(super) fn live_edge(&self, topo: &Topology, u: NodeId, v: NodeId) -> Option<EdgeId> {
        topo.edge_index(u, v).filter(|&e| !self.masked.contains(e))
    }

    /// Where a load addressed at `v` is deposited: `v` itself when up,
    /// otherwise `v`'s first up neighbour (ascending — the node the load is
    /// physically closest to), otherwise the next up node cyclically.
    pub(super) fn deposit_node(&self, topo: &Topology, v: NodeId) -> NodeId {
        if self.node_up(v) {
            return v;
        }
        let nbr = topo.neighbors(v).iter().copied().find(|&u| self.node_up(u));
        nbr.unwrap_or_else(|| self.next_up_node(topo, v))
    }

    /// The first up node at or after `v` in cyclic node-id order. The
    /// churn plan never empties the system, so this always finds one.
    pub(super) fn next_up_node(&self, topo: &Topology, v: NodeId) -> NodeId {
        let n = topo.node_count() as u32;
        (0..n).map(|step| NodeId((v.0 + step) % n)).find(|&u| self.node_up(u)).unwrap_or(v)
    }

    pub(super) fn capture(&self, cp: &mut Checkpoint) {
        cp.down_words = self.down_links.words().to_vec();
        cp.churn_prefix = prefix(&self.churn[..self.next]);
    }

    /// Membership at a checkpoint: the down links verbatim, the down nodes
    /// replayed from the plan prefix (flags only — the drains are already
    /// in the restored queues), the mask rebuilt from both. The prefix
    /// must be the one the checkpoint applied; the rest of the plan may
    /// differ, so a run resumes under a longer horizon of the same spec.
    pub(super) fn restored(&self, cp: &Checkpoint, topo: &Topology) -> Result<Self, String> {
        let down_links = EdgeBitSet::from_words(topo.edge_count(), cp.down_words.clone())
            .map_err(|e| format!("checkpoint down-link bitset: {e}"))?;
        let mut m = Membership { down_links, next: 0, ..self.clone() };
        m.down_nodes.fill(0);
        while m.churn_due(cp.round) {
            let ev = m.churn[m.next];
            set_node_bit(&mut m.down_nodes, ev.node as usize, ev.leave);
            m.next += 1;
        }
        let ours = prefix(&m.churn[..m.next]);
        if cp.churn_prefix != ours {
            return Err(format!(
                "checkpoint applied {} churn events by round {} (digest {:#x}); this engine's \
                 plan applies {} (digest {:#x})",
                cp.churn_prefix.events, cp.round, cp.churn_prefix.digest, ours.events, ours.digest
            ));
        }
        m.masked = m.down_links.clone();
        let down = &m.down_nodes;
        for v in topo.nodes().filter(|&v| node_bit(down, v.idx())) {
            for &e in topo.neighbor_edge_ids(v) {
                m.masked.insert(e);
            }
        }
        Ok(m)
    }
}

/// The fingerprint of an applied plan prefix: its length and a digest of
/// its events in order.
fn prefix(applied: &[ChurnEvent]) -> ChurnPrefix {
    let digest = applied.iter().fold(0, |h, ev| {
        digest_word(digest_word(h, ev.round), u64::from(ev.node) << 1 | u64::from(ev.leave))
    });
    ChurnPrefix { events: applied.len(), digest }
}

#[cfg(test)]
impl Membership {
    /// Marks node `v` down without masking or draining anything — for
    /// tests that need a frozen node and nothing else.
    pub(super) fn set_down_bit(&mut self, v: usize) {
        set_node_bit(&mut self.down_nodes, v, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::NullBalancer;
    use crate::engine::{Engine, EngineBuilder};
    use pp_tasking::workload::Workload;
    use proptest::prelude::*;

    const ROUNDS: u64 = 40;

    /// Recomputes the mask from scratch — down links ∪ edges incident to a
    /// node the plan prefix has taken down — and checks it against the
    /// kept mask and `live_edge`, edge by edge in both directions.
    fn assert_mask(e: &Engine, plan: &ChurnPlan, step: &str) {
        let (m, topo) = (&e.membership, &e.state.topo);
        let mut down = vec![false; topo.node_count()];
        for ev in plan.events().iter().filter(|ev| ev.round <= e.round) {
            down[ev.node as usize] = ev.leave;
        }
        for v in topo.nodes() {
            assert_eq!(m.node_up(v), !down[v.idx()], "{step}: node {v:?}");
        }
        for (i, &(u, v)) in topo.edge_slice().iter().enumerate() {
            let edge = EdgeId(i as u32);
            let want = m.down_links.contains(edge) || down[u.idx()] || down[v.idx()];
            assert_eq!(m.masked.contains(edge), want, "{step}: mask of edge {i} ({u:?}, {v:?})");
            let live = (!want).then_some(edge);
            assert_eq!(m.live_edge(topo, u, v), live, "{step}: live_edge({u:?}, {v:?})");
            assert_eq!(m.live_edge(topo, v, u), live, "{step}: live_edge({v:?}, {u:?})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of churn rounds (leaves and joins from a
        /// seeded plan), single link flips and checkpoint → restore into a
        /// fresh engine: after every step the mask is exactly down links ∪
        /// edges at down nodes.
        #[test]
        fn mask_is_down_links_plus_edges_at_down_nodes(
            side in 3usize..7,
            leave in 0.0f64..0.3,
            join in 0.0f64..0.6,
            seed in 0u64..10_000,
            ops in prop::collection::vec(0u32..10_000, 1..=90),
        ) {
            let n = side * side;
            let plan = ChurnPlan::markov(n, ROUNDS, leave, join, seed);
            let build = || {
                EngineBuilder::new(Topology::torus(&[side, side]))
                    .workload(Workload::uniform_random(n, 3.0, seed))
                    .balancer(NullBalancer)
                    .churn(plan.clone())
                    .seed(seed)
                    .build()
            };
            let mut e = build();
            assert_mask(&e, &plan, "built");
            for (k, op) in ops.into_iter().enumerate() {
                match op % 4 {
                    // The next round's churn, as the tick applies it.
                    0 if e.round < ROUNDS => {
                        e.round += 1;
                        e.membership.apply_churn(e.round, &mut e.state, &mut e.sweep);
                    }
                    // A checkpoint, restored into a fresh engine.
                    3 => {
                        let cp = e.checkpoint();
                        let mut resumed = build();
                        resumed.restore(&cp).expect("restore");
                        assert_eq!(resumed.membership.masked.words(), e.membership.masked.words());
                        e = resumed;
                    }
                    // One link flips, as the fault process flips it.
                    _ => {
                        let edge = EdgeId(op / 4 % e.state.topo.edge_count() as u32);
                        let down = e.membership.down_links.contains(edge);
                        e.membership.set_link(&e.state.topo, edge, !down);
                    }
                }
                assert_mask(&e, &plan, &format!("step {k} (op {op})"));
            }
        }
    }
}
