//! The particle & plane load balancer (§5) — the paper's contribution.
//!
//! At each balance tick every node treats its loads as objects resting on
//! the local surface: a load may start sliding toward a neighbour if the
//! load-size-corrected gradient beats its static friction (Eq. 1, §5.1).
//! The stochastic arbiter (§5.2) picks among the feasible slopes, hardening
//! over time. A launched load carries its potential-height flag `h*`
//! (initialised to the departure node's height, decremented by `c₀·µ_k·e`
//! per hop) and, on landing, may keep sliding while its energy budget lets
//! it clear a neighbour (`h*' > h(v_j)`) — the inertia that lets loads
//! escape local minima, the paper's key difference from plain gradient
//! methods.
//!
//! One load per link per tick is launched ("assuming that at each time unit
//! only a single load is transferred over a link", §5.1), and both the
//! source and destination heights a node plans with are updated as it
//! commits migrations within the tick (the `tan β` self-correction clause).

use crate::arbiter::Arbiter;
use crate::energy::{hop_heat, updated_flag};
use crate::feasibility::{motion_candidates_soa_into, stationary_candidates_soa_into, Candidate};
use crate::jitter::FrictionJitter;
use crate::params::{kinetic_friction, static_friction, PhysicsConfig};
use pp_sim::balancer::{
    GlobalView, LoadBalancer, MigratingLoad, MigrationIntent, NodeView, RestingNode,
};
use rand::rngs::StdRng;
use std::cell::RefCell;

/// Reusable per-thread buffers for one `decide_into`/`on_arrival`
/// evaluation, so steady-state decision rounds allocate nothing.
/// Thread-local because `decide_into` takes `&self` (the engine may evaluate nodes on a worker pool);
/// each decision thread warms its own set once and reuses it forever.
#[derive(Default)]
struct DecideScratch {
    /// Effective neighbour heights, updated as the tick commits migrations.
    /// A used link's entry is set to `+∞` — one write that both masks the
    /// link (an infinite height can never beat `µ_s`) and spares the
    /// per-task rebuild of a masked pair list the AoS kernel needed.
    h_eff: Vec<f64>,
    /// Feasible-slope output buffer for the arbiter.
    candidates: Vec<Candidate>,
}

thread_local! {
    static SCRATCH: RefCell<DecideScratch> = RefCell::default();
}

/// The round-only terms of a decision, one `exp` each: the jitter
/// amplitude `A(t)` and the arbiter's exploration probability `β(t)`.
#[derive(Debug, Clone, Copy)]
struct RoundTerms {
    round: u64,
    amp: Option<f64>,
    beta: f64,
}

impl RoundTerms {
    fn at(cfg: &PhysicsConfig, arbiter: &Arbiter, round: u64) -> Self {
        let t = round as f64;
        RoundTerms {
            round,
            amp: cfg.jitter.map(|j| j.amplitude_at(t)),
            beta: arbiter.exploration(t),
        }
    }
}

/// The paper's balancer. Construct with [`ParticlePlaneBalancer::new`] or
/// customise the arbiter/ablations via the builder methods.
#[derive(Debug, Clone)]
pub struct ParticlePlaneBalancer {
    cfg: PhysicsConfig,
    arbiter: Arbiter,
    name: String,
    /// The terms of the round `begin_round` last saw. A cache: every
    /// entry equals [`RoundTerms::at`] for its round, so it changes no
    /// decision and needs no checkpoint field.
    terms: RoundTerms,
}

impl ParticlePlaneBalancer {
    /// A balancer with the given physics constants and the default
    /// (stochastic) arbiter.
    pub fn new(cfg: PhysicsConfig) -> Self {
        cfg.validate().expect("invalid physics configuration");
        let arbiter = Arbiter::default();
        let terms = RoundTerms::at(&cfg, &arbiter, 0);
        ParticlePlaneBalancer { cfg, arbiter, name: "particle-plane".into(), terms }
    }

    /// Replaces the arbiter (e.g. [`Arbiter::Deterministic`] for the
    /// ablation).
    pub fn with_arbiter(mut self, arbiter: Arbiter) -> Self {
        self.arbiter = arbiter;
        self.terms = RoundTerms::at(&self.cfg, &arbiter, self.terms.round);
        self
    }

    /// Overrides the display name (used to label ablations in tables).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The physics configuration.
    pub fn config(&self) -> &PhysicsConfig {
        &self.cfg
    }

    /// The arbiter.
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Round `round`'s terms: the ones `begin_round` cached, or computed
    /// afresh for another round (a direct caller, the first events after a
    /// restore) — the same expressions on the same operands, so the same
    /// bits either way.
    #[inline]
    fn terms(&self, round: u64) -> RoundTerms {
        if self.terms.round == round {
            self.terms
        } else {
            RoundTerms::at(&self.cfg, &self.arbiter, round)
        }
    }
}

impl LoadBalancer for ParticlePlaneBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    /// Caches the round's `A(t)` and `β(t)`: effect-free in the
    /// quiescence sense, since a decision reads the cache only for the
    /// round it was filled for.
    fn begin_round(&mut self, global: &GlobalView<'_>) {
        self.terms = RoundTerms::at(&self.cfg, &self.arbiter, global.round);
    }

    /// Without friction jitter the balancer is quiescence-stable, which
    /// lets the engine's sharded pipeline skip sweeps over untouched
    /// shards: candidate sets are pure functions of (tasks, heights, live
    /// links) — `round`/`time` reach the arbiter only *after* a non-empty
    /// candidate set exists — and [`Arbiter::choose`] draws from the RNG
    /// only for 2+ candidates and returns `None` only on an empty set, so
    /// an empty decision implies every candidate set was empty and zero
    /// draws occurred. With jitter enabled `µ_s` takes a per-task draw
    /// every round, so skipping would desync the node's RNG stream.
    fn quiescence_stable(&self) -> bool {
        self.cfg.jitter.is_none()
    }

    /// The inert-node certificate on the node's flat inputs: the engine
    /// asks this before building a view, so a resting node costs one pass
    /// over its CSR neighbours and never walks its task list. It settles a
    /// node with no task or no live link, where
    /// [`LoadBalancer::decide_into`] returns before drawing, and a node
    /// [`provably_inert`] certifies, replaying the sweep's jitter draws.
    fn settle(&self, node: &RestingNode<'_>, rng: &mut StdRng) -> bool {
        if node.tasks == 0 || node.live_neighbors().next().is_none() {
            return true;
        }
        let amp = self.terms(node.round).amp;
        if !provably_inert(&self.cfg, node.height, node.min_size, amp, node.live_neighbors()) {
            return false;
        }
        // Nothing can move, so the only observable effect of the full sweep
        // is its per-task jitter draws (the arbiter draws nothing on an
        // empty candidate set): replay those.
        if let Some(a) = amp {
            FrictionJitter::skip_amp(a, node.tasks, rng);
        }
        true
    }

    /// The full per-task sweep of a stationary node (§5.1): friction, the
    /// jitter draw, Eq. 1's candidate kernel and the arbiter for every
    /// resident task, until each link has carried one load. The engine
    /// calls it only for a node that [`LoadBalancer::settle`] declined.
    /// Intents append to the caller's arena (the engine passes the
    /// shard-local outbox), so the sweep's steady state allocates nothing.
    fn decide_into(&self, view: &NodeView<'_>, rng: &mut StdRng, out: &mut Vec<MigrationIntent>) {
        if view.neighbors.is_empty() || view.tasks.is_empty() {
            return;
        }
        let terms = self.terms(view.round);
        let cfg = &self.cfg;
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let DecideScratch { h_eff, candidates } = scratch;
            // Effective heights: updated as this tick commits migrations so
            // that later decisions see the planned post-transfer surface.
            // One copy of the view's SoA height slice per node; each task's
            // feasibility pass then streams `h_eff` + `nbr_weights` flat,
            // instead of rebuilding a masked pair list per task.
            let mut h_i = view.height;
            h_eff.clear();
            h_eff.extend_from_slice(view.nbr_heights);
            let weights = view.nbr_weights;
            let mut links_left = view.neighbors.len();

            for task in view.tasks {
                if links_left == 0 {
                    break;
                }
                let mut mu_s = static_friction(
                    cfg,
                    task.id,
                    view.node,
                    view.tasks,
                    view.task_graph,
                    view.resources,
                );
                if let Some(a) = terms.amp {
                    mu_s = FrictionJitter::apply_amp(mu_s, a, rng);
                }
                let mu_k = kinetic_friction(cfg, mu_s);
                stationary_candidates_soa_into(
                    cfg, task.size, mu_s, h_i, h_eff, weights, candidates,
                );
                let Some(pick) = self.arbiter.choose_with(candidates, terms.beta, rng) else {
                    continue;
                };
                let e = weights[pick];
                // The flag starts at the departure height h₀ = h_i and pays
                // the first hop's toll up front (§5.1).
                let flag = updated_flag(cfg, h_i, mu_k, e);
                let heat = hop_heat(cfg, mu_k, e, task.size);
                out.push(MigrationIntent { task: task.id, to: view.neighbors[pick], flag, heat });
                h_i -= task.size;
                // One load per link per tick: an infinite effective height
                // masks the used link for the rest of the sweep.
                h_eff[pick] = f64::INFINITY;
                links_left -= 1;
            }
        })
    }

    fn on_arrival(
        &self,
        view: &NodeView<'_>,
        load: &MigratingLoad,
        rng: &mut StdRng,
    ) -> Option<MigrationIntent> {
        let cfg = &self.cfg;
        if !cfg.in_motion || load.hops >= cfg.max_hops || view.neighbors.is_empty() {
            return None;
        }
        let terms = self.terms(view.round);
        // Affinity is evaluated against the tasks resident where the load
        // just landed: dependencies here pull it to rest.
        let mut mu_s = static_friction(
            cfg,
            load.task.id,
            view.node,
            view.tasks,
            view.task_graph,
            view.resources,
        );
        if let Some(a) = terms.amp {
            mu_s = FrictionJitter::apply_amp(mu_s, a, rng);
        }
        let mu_k = kinetic_friction(cfg, mu_s);
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let DecideScratch { candidates, .. } = scratch;
            // The view's SoA slices feed the kernel directly — no pair list.
            motion_candidates_soa_into(
                cfg,
                load.flag,
                mu_k,
                view.nbr_heights,
                view.nbr_weights,
                candidates,
            );
            let pick = self.arbiter.choose_with(candidates, terms.beta, rng)?;
            let e = view.nbr_weights[pick];
            Some(MigrationIntent {
                task: load.task.id,
                to: view.neighbors[pick],
                flag: updated_flag(cfg, load.flag, mu_k, e),
                heat: hop_heat(cfg, mu_k, e, load.task.size),
            })
        })
    }
}

/// The inert-node certificate: `true` only if no resident task of a node
/// at height `h_i` whose smallest task has size `s_min` can pass Eq. 1
/// toward any of its live neighbours `nbrs` (`(h_j, e_j)` pairs) this
/// round, whatever its friction, jitter draw or place in the sweep.
///
/// It bounds every slope the per-task kernel could compute by the
/// steepest one toward any neighbour for the smallest resident task,
/// `B_j = (h_i − h_j − 2·s_min)/e_j`, and every `µ_s` it could compare
/// against by the friction floor `F = µ_base·(1 − A(t))` (`µ_base` without
/// jitter). The bound is exact in floating point, not merely in the reals:
///
/// * until a node emits an intent its `h_i` and effective neighbour
///   heights are the view's, and `2·s ≥ 2·s_min`; `−`, `/` by `e_j > 0` and
///   rounding are all monotone, so each task's slope toward `j` is `≤ B_j`;
/// * every addend of [`static_friction`] is `≥ 0` (validated constants,
///   non-negative dependency and resource weights), so `µ_s ≥ µ_base`;
///   `fl(A·u) ≥ −A` for `u ∈ [−1, 1]`, so the jitter factor is
///   `≥ fl(1 − A) > 0` and a jittered `µ_s` is `≥ F`;
/// * a NaN slope, size or friction never passes `a > µ_s`, and a NaN in
///   `B_j` or `F` fails `B_j ≤ F`, which falls through to the full path.
///
/// So when every `B_j ≤ F`, every task's candidate set is empty.
fn provably_inert(
    cfg: &PhysicsConfig,
    h_i: f64,
    s_min: f64,
    jitter_amp: Option<f64>,
    mut nbrs: impl Iterator<Item = (f64, f64)>,
) -> bool {
    let floor = match jitter_amp {
        Some(a) if a > 0.0 => cfg.mu_s_base * (1.0 - a),
        _ => cfg.mu_s_base,
    };
    // The kernel's own correction expression, at the smallest size.
    let correction = if cfg.self_correction { 2.0 * s_min } else { 0.0 };
    nbrs.all(|(h, e)| (h_i - h - correction) / e <= floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::testutil::decide;
    use pp_sim::balancer::{build_view, LinkView, ViewScratch};
    use pp_sim::engine::EngineBuilder;
    use pp_sim::state::SystemState;
    use pp_tasking::graph::TaskGraph;
    use pp_tasking::resources::ResourceMatrix;
    use pp_tasking::task::{Task, TaskId};
    use pp_topology::edgeset::EdgeBitSet;
    use pp_topology::graph::{EdgeId, NodeId, Topology};
    use pp_topology::links::{LinkAttrs, LinkMap};
    use rand::SeedableRng;

    fn det(cfg: PhysicsConfig) -> ParticlePlaneBalancer {
        ParticlePlaneBalancer::new(cfg).with_arbiter(Arbiter::Deterministic)
    }

    fn ring_state(loads: &[f64]) -> SystemState {
        let topo = Topology::ring(loads.len());
        let links = LinkMap::uniform(&topo, LinkAttrs::default());
        let mut s = SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none());
        let mut id = 0u64;
        for (i, &l) in loads.iter().enumerate() {
            let mut rest = l;
            while rest > 1e-9 {
                let sz = rest.min(1.0);
                s.add_task(NodeId(i as u32), Task::new(TaskId(id), sz, i as u32));
                id += 1;
                rest -= sz;
            }
        }
        s
    }

    #[test]
    fn flat_system_stays_put() {
        let s = ring_state(&[2.0, 2.0, 2.0, 2.0]);
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(0), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let b = det(PhysicsConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(decide(&b, &view, &mut rng).is_empty());
    }

    #[test]
    fn steep_hotspot_emits_one_task_per_link() {
        let s = ring_state(&[8.0, 0.0, 0.0, 0.0]);
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(0), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let b = det(PhysicsConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let intents = decide(&b, &view, &mut rng);
        // Ring node 0 has 2 links; one load per link per tick.
        assert_eq!(intents.len(), 2);
        let dests: Vec<u32> = intents.iter().map(|i| i.to.0).collect();
        assert!(dests.contains(&1) && dests.contains(&3));
        // Flags: h₀ = 8 minus the hop toll µ_k·e = 1·1 (second launch sees
        // h₀ = 7 after the first committed departure).
        assert!(intents.iter().any(|i| (i.flag - 7.0).abs() < 1e-9));
        assert!(intents.iter().any(|i| (i.flag - 6.0).abs() < 1e-9));
        // Heat billed per hop: c₀·g·µ_k·e·l = 1.
        for i in &intents {
            assert!((i.heat - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn shallow_gradient_blocked_by_static_friction() {
        // Difference 3 with µ_s = 1, l = 1, e = 1: a = (3 − 2)/1 = 1, not
        // strictly greater than µ_s ⇒ blocked.
        let s = ring_state(&[4.0, 1.0, 4.0, 1.0]);
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(0), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let b = det(PhysicsConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(decide(&b, &view, &mut rng).is_empty());
    }

    #[test]
    fn task_dependency_holds_tasks_back() {
        // Two co-located heavily-dependent tasks on the hot node refuse to
        // leave; with the dependency removed, they migrate.
        let mut s = ring_state(&[6.0, 0.0, 0.0, 0.0]);
        let mut tg = TaskGraph::new();
        for a in 0..6u64 {
            for b in (a + 1)..6 {
                tg.set_dependency(TaskId(a), TaskId(b), 10.0);
            }
        }
        s.task_graph = tg;
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(0), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let b = det(PhysicsConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(
            decide(&b, &view, &mut rng).is_empty(),
            "µ_s = 1 + 5·10 should block a gradient of (6−0−2)/1 = 4"
        );
    }

    #[test]
    fn resource_pin_blocks_only_pinned_task() {
        let mut s = ring_state(&[8.0, 0.0, 0.0, 0.0]);
        let mut res = ResourceMatrix::none();
        for id in 0..8u64 {
            res.set(TaskId(id), NodeId(0), 100.0);
        }
        s.resources = res;
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(0), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let b = det(PhysicsConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(decide(&b, &view, &mut rng).is_empty());
    }

    #[test]
    fn on_arrival_continues_while_energy_lasts() {
        let s = ring_state(&[0.0, 0.0, 5.0, 0.0]);
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(1), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let b = det(PhysicsConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let load = MigratingLoad {
            task: Task::new(TaskId(99), 1.0, 0),
            flag: 6.0,
            hops: 1,
            source: NodeId(0),
        };
        let fwd = b.on_arrival(&view, &load, &mut rng).expect("should forward");
        // Neighbours of 1 are 0 (h=0) and 2 (h=5). flag' = 6−µ_k·e; µ_k =
        // max(c_µ·µ_s, floor) = 1 (µ_s base 1) ⇒ flag' = 5: node 2 at 5 is
        // not < 5 ⇒ only node 0 feasible.
        assert_eq!(fwd.to, NodeId(0));
        assert!((fwd.flag - 5.0).abs() < 1e-9);
    }

    #[test]
    fn on_arrival_deposits_when_drained() {
        let s = ring_state(&[3.0, 0.0, 3.0, 3.0]);
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(1), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let b = det(PhysicsConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        // flag 0.5: flag' = −0.5 ≤ every neighbour height ⇒ rest here.
        let load = MigratingLoad {
            task: Task::new(TaskId(99), 1.0, 0),
            flag: 0.5,
            hops: 2,
            source: NodeId(0),
        };
        assert!(b.on_arrival(&view, &load, &mut rng).is_none());
    }

    #[test]
    fn in_motion_ablation_never_forwards() {
        let s = ring_state(&[0.0, 0.0, 5.0, 0.0]);
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(1), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let cfg = PhysicsConfig { in_motion: false, ..Default::default() };
        let b = det(cfg);
        let mut rng = StdRng::seed_from_u64(0);
        let load = MigratingLoad {
            task: Task::new(TaskId(99), 1.0, 0),
            flag: 100.0,
            hops: 1,
            source: NodeId(0),
        };
        assert!(b.on_arrival(&view, &load, &mut rng).is_none());
    }

    #[test]
    fn hop_cap_respected() {
        let s = ring_state(&[0.0, 0.0, 0.0, 0.0]);
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(1), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let cfg = PhysicsConfig { max_hops: 3, ..Default::default() };
        let b = det(cfg);
        let mut rng = StdRng::seed_from_u64(0);
        let load = MigratingLoad {
            task: Task::new(TaskId(99), 1.0, 0),
            flag: 100.0,
            hops: 3,
            source: NodeId(0),
        };
        assert!(b.on_arrival(&view, &load, &mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid physics configuration")]
    fn invalid_config_rejected() {
        let _ = ParticlePlaneBalancer::new(PhysicsConfig { c_mu: 0.0, ..Default::default() });
    }

    #[test]
    fn quiescence_stable_unless_jittered() {
        use crate::jitter::FrictionJitter;
        assert!(ParticlePlaneBalancer::new(PhysicsConfig::default()).quiescence_stable());
        let jittered = PhysicsConfig {
            jitter: Some(FrictionJitter::new(0.5, 1.0, 100.0)),
            ..Default::default()
        };
        // Jitter draws from the node RNG every round even when nothing
        // moves, so the sharded skip must stay off.
        assert!(!ParticlePlaneBalancer::new(jittered).quiescence_stable());
    }

    #[test]
    fn empty_decision_draws_nothing_from_the_rng() {
        // The quiescence_stable contract: a decide that returns no intents
        // must leave the RNG stream untouched (the arbiter only draws once
        // a non-empty candidate set exists).
        let s = ring_state(&[2.0, 2.0, 2.0, 2.0]);
        let h = s.heights();
        let mut scratch = ViewScratch::new();
        let view = build_view(&mut scratch, &s, NodeId(0), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
        let b = ParticlePlaneBalancer::new(PhysicsConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut witness = StdRng::seed_from_u64(7);
        assert!(decide(&b, &view, &mut rng).is_empty());
        assert!(decide(&b, &view, &mut rng).is_empty());
        use rand::Rng;
        assert_eq!(rng.gen_range(0.0f64..1.0), witness.gen_range(0.0f64..1.0));
    }

    /// The certificate on a view's inputs.
    fn view_inert(b: &ParticlePlaneBalancer, view: &NodeView<'_>) -> bool {
        let s_min = view.tasks.iter().map(|t| t.size).fold(f64::INFINITY, f64::min);
        let amp = b.cfg.jitter.map(|j| j.amplitude_at(view.round as f64));
        let nbrs = view.nbr_heights.iter().copied().zip(view.nbr_weights.iter().copied());
        provably_inert(&b.cfg, view.height, s_min, amp, nbrs)
    }

    fn intent_bits(out: &[MigrationIntent]) -> Vec<(TaskId, NodeId, u64, u64)> {
        out.iter().map(|i| (i.task, i.to, i.flag.to_bits(), i.heat.to_bits())).collect()
    }

    /// A 4×4 torus drawn from `seed`: 0–6 tasks per node with fractional
    /// sizes (some removed again, so the state's smallest sizes are kept
    /// through removals too), a sparse dependency graph and resource pins,
    /// non-uniform link weights, a few links down and, for half the seeds,
    /// every link of one node down.
    fn random_instance(seed: u64) -> (SystemState, Vec<f64>, EdgeBitSet) {
        use rand::Rng;
        let mut r = StdRng::seed_from_u64(seed);
        let topo = Topology::torus(&[4, 4]);
        let n = topo.node_count();
        let edges = topo.edge_count();
        let links = LinkMap::uniform(&topo, LinkAttrs::default());
        let mut s = SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none());
        let mut id = 0u64;
        for v in 0..n {
            for _ in 0..r.gen_range(0..=6usize) {
                let size = if r.gen_bool(0.3) { 1.0 } else { r.gen_range(0.05..3.0) };
                s.add_task(NodeId(v as u32), Task::new(TaskId(id), size, v as u32));
                id += 1;
            }
            for _ in 0..r.gen_range(0..=1usize) {
                let tasks = s.node(NodeId(v as u32)).tasks();
                if !tasks.is_empty() {
                    let gone = tasks[r.gen_range(0..tasks.len())].id;
                    s.remove_task(NodeId(v as u32), gone);
                }
            }
        }
        let mut tg = TaskGraph::new();
        let mut res = ResourceMatrix::none();
        if id > 1 && r.gen_bool(0.5) {
            for _ in 0..id / 2 {
                let (a, b) = (r.gen_range(0..id), r.gen_range(0..id));
                if a != b {
                    tg.set_dependency(TaskId(a), TaskId(b), r.gen_range(0.0..2.0));
                }
            }
        }
        if id > 0 && r.gen_bool(0.5) {
            for _ in 0..id / 3 {
                let (t, v) = (r.gen_range(0..id), r.gen_range(0..n));
                res.set(TaskId(t), NodeId(v as u32), r.gen_range(0.0..2.0));
            }
        }
        s.task_graph = tg;
        s.resources = res;
        let weights = (0..edges).map(|_| r.gen_range(0.25..3.0)).collect();
        let mut down = EdgeBitSet::new(edges);
        for e in 0..edges {
            if r.gen_bool(0.15) {
                down.insert(EdgeId(e as u32));
            }
        }
        if r.gen_bool(0.5) {
            for &e in s.topo.neighbor_edge_ids(NodeId(r.gen_range(0..n) as u32)) {
                down.insert(e);
            }
        }
        (s, weights, down)
    }

    /// What one certificate check saw among nodes holding tasks.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Certified inert with a live link.
        inert: usize,
        /// Needed the full sweep.
        full: usize,
        /// Settled with every link down.
        all_down: usize,
        /// Settled on a smallest task that is not first in the list.
        min_not_first: usize,
    }

    /// Runs every node of instance `seed` the engine's way (`settle` on the
    /// node's flat inputs, `decide_into` only if it declines) and the
    /// reference way (`decide_into`, the full sweep, for every node). The
    /// intents and RNG states must agree. `settle` must settle exactly the
    /// nodes with no task, no live link or a certificate on the view's
    /// inputs; a settled node's sweep must emit nothing, and a declined
    /// node must have drawn nothing before its sweep.
    fn check_certificate(b: &ParticlePlaneBalancer, seed: u64, round: u64) -> Coverage {
        let (s, weights, down) = random_instance(seed);
        let h = s.heights();
        // Every fourth seed computes link weights on the fly.
        let weights = (!seed.is_multiple_of(4)).then_some(&weights[..]);
        let links = LinkView { weights, down: Some(&down), ..LinkView::all_up(&s, 1.0) };
        let mut cover = Coverage::default();
        let mut scratch = ViewScratch::new();
        for v in 0..s.node_count() {
            let node = NodeId(v as u32);
            let view = build_view(&mut scratch, &s, node, &h, &links, round, 0.0);
            let fresh = StdRng::seed_from_u64(seed ^ (v as u64) << 32);
            let (mut rng, mut witness) = (fresh.clone(), fresh.clone());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            b.decide_into(&view, &mut witness, &mut want);
            let rest = RestingNode::of(&s, node, &h, links, round);
            let settled = b.settle(&rest, &mut rng);
            if settled {
                assert!(want.is_empty(), "seed {seed} node {v}: settled a node that moves");
            } else {
                assert_eq!(rng.state(), fresh.state(), "seed {seed} node {v}: declined, drew");
                b.decide_into(&view, &mut rng, &mut got);
            }
            assert_eq!(intent_bits(&got), intent_bits(&want), "seed {seed} node {v}");
            assert_eq!(rng.state(), witness.state(), "seed {seed} node {v}");

            let live = !view.neighbors.is_empty();
            let inert = live && !view.tasks.is_empty() && view_inert(b, &view);
            let expect = view.tasks.is_empty() || !live || inert;
            assert_eq!(settled, expect, "seed {seed} node {v}");
            if view.tasks.is_empty() {
                continue;
            }
            let min_first = view.tasks[0].size.to_bits() == rest.min_size.to_bits();
            cover.inert += usize::from(inert);
            cover.full += usize::from(!expect);
            cover.all_down += usize::from(!live);
            cover.min_not_first += usize::from(inert && !min_first);
        }
        cover
    }

    /// The balancer for one combination of the soundness test's knobs.
    fn knob_balancer(
        self_correction: bool,
        jitter: u8,
        mu_base: u8,
        stochastic: bool,
    ) -> ParticlePlaneBalancer {
        let cfg = PhysicsConfig {
            self_correction,
            mu_s_base: [0.0, 1.0, 0.35][mu_base as usize],
            jitter: match jitter {
                0 => None,
                1 => Some(FrictionJitter::new(0.0, 1.0, 100.0)),
                _ => Some(FrictionJitter::new(0.3, 1.0, 100.0)),
            },
            ..Default::default()
        };
        let arbiter = if stochastic { Arbiter::default() } else { Arbiter::Deterministic };
        ParticlePlaneBalancer::new(cfg).with_arbiter(arbiter)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        #[test]
        fn certificate_matches_the_full_sweep_bit_for_bit(
            seed in 0u64..u64::MAX,
            self_correction in 0u8..2,
            jitter in 0u8..3,
            mu_base in 0u8..3,
            stochastic in 0u8..2,
            round in 0u64..300,
        ) {
            let b = knob_balancer(self_correction == 1, jitter, mu_base, stochastic == 1);
            check_certificate(&b, seed, round);
        }
    }

    #[test]
    fn certificate_test_exercises_both_paths_for_every_knob() {
        // Guards the property above against passing vacuously: under each
        // knob combination the random instances hold both certified-inert
        // nodes and nodes that need the full sweep.
        for sc in [false, true] {
            for jitter in 0..3 {
                for mu_base in 0..3 {
                    for stochastic in [false, true] {
                        let b = knob_balancer(sc, jitter, mu_base, stochastic);
                        let mut total = Coverage::default();
                        for seed in 0..24 {
                            let c = check_certificate(&b, seed, seed * 7);
                            total.inert += c.inert;
                            total.full += c.full;
                            total.all_down += c.all_down;
                            total.min_not_first += c.min_not_first;
                        }
                        let knobs = (sc, jitter, mu_base, stochastic);
                        let Coverage { inert, full, all_down, min_not_first } = total;
                        assert!(
                            inert > 0 && full > 0 && all_down > 0 && min_not_first > 0,
                            "{knobs:?}: {inert} inert, {full} full, {all_down} all down, \
                             {min_not_first} inert on a smallest task not first"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cached_round_terms_equal_the_direct_expressions_bit_for_bit() {
        let cfg = PhysicsConfig {
            jitter: Some(FrictionJitter::new(0.3, 3.0, 20_000.0)),
            ..PhysicsConfig::default()
        };
        let arbiter = Arbiter::Stochastic { beta0: 0.3, c: 3.0, t_max: 20_000.0 };
        let mut b = ParticlePlaneBalancer::new(cfg).with_arbiter(arbiter);
        let topo = Topology::ring(4);
        let heights = [0.0; 4];
        let bits = |t: RoundTerms| (t.round, t.amp.map(f64::to_bits), t.beta.to_bits());
        for round in 0..100_000u64 {
            b.begin_round(&GlobalView { topo: &topo, heights: &heights, round, time: 0.0 });
            assert_eq!(b.terms.round, round, "begin_round caches its round");
            let t = round as f64;
            let amp = cfg.jitter.map(|j| j.amplitude_at(t).to_bits());
            let direct = (round, amp, arbiter.exploration(t).to_bits());
            assert_eq!(bits(b.terms(round)), direct, "round {round}");
            assert_eq!(bits(RoundTerms::at(&cfg, &arbiter, round)), direct, "round {round}");
        }
        // A view from another round falls back to the direct expressions.
        let t = 7.0;
        let other = b.terms(7);
        assert_eq!(other.amp, Some(cfg.jitter.unwrap().amplitude_at(t)));
        assert_eq!(other.beta.to_bits(), arbiter.exploration(t).to_bits());
    }

    #[test]
    fn certificate_is_tight_at_the_friction_floor() {
        // One unit task on node 0, neighbour 1 at height 0 over a unit link,
        // µ_s = 1: at h_0 = 3 the slope is exactly µ_s (certified, blocked);
        // one ulp higher it beats µ_s (not certified, and the load moves).
        let s = ring_state(&[1.0, 0.0, 0.0, 0.0]);
        let b = det(PhysicsConfig::default());
        for (h0, moves) in [(3.0, false), (3.0 + f64::EPSILON * 2.0, true)] {
            let h = [h0, 0.0, 9.0, 9.0];
            let mut scratch = ViewScratch::new();
            let view =
                build_view(&mut scratch, &s, NodeId(0), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
            assert_eq!(view_inert(&b, &view), !moves, "h_0 = {h0}");
            let mut rng = StdRng::seed_from_u64(0);
            assert_eq!(decide(&b, &view, &mut rng).len(), usize::from(moves), "h_0 = {h0}");
        }
    }

    #[test]
    fn certificate_fires_on_a_converged_dense_sweep_torus() {
        // The dense-sweep shape: a uniform-random torus under annealed
        // jitter, where nearly every decision emits nothing. Once the
        // surface has settled, `settle` must clear most nodes from the
        // engine's own flat state, and each cleared node must still advance
        // its RNG as the full sweep does, one draw per task.
        use pp_tasking::workload::Workload;
        let cfg = PhysicsConfig {
            jitter: Some(FrictionJitter::new(0.3, 1.0, 1e9)),
            ..PhysicsConfig::default()
        };
        let topo = Topology::torus(&[16, 16]);
        let mut engine = EngineBuilder::new(topo)
            .workload(Workload::uniform_random(256, 8.0, 5))
            .balancer(ParticlePlaneBalancer::new(cfg))
            .seed(5)
            .build();
        engine.run_rounds(40);
        let (s, round) = (engine.state(), engine.round());
        let b = ParticlePlaneBalancer::new(cfg);
        let h = s.heights();
        let links = LinkView::all_up(s, 1.0);
        let mut scratch = ViewScratch::new();
        let mut inert = 0;
        for v in 0..s.node_count() {
            let node = NodeId(v as u32);
            let fresh = StdRng::seed_from_u64(v as u64);
            let (mut rng, mut witness) = (fresh.clone(), fresh.clone());
            if !b.settle(&RestingNode::of(s, node, &h, links, round), &mut rng) {
                continue;
            }
            inert += 1;
            let view = build_view(&mut scratch, s, node, &h, &links, round, 0.0);
            let mut out = Vec::new();
            b.decide_into(&view, &mut witness, &mut out);
            assert!(out.is_empty(), "node {v}");
            assert_eq!(rng.state(), witness.state(), "node {v}");
            assert_ne!(rng.state(), fresh.state(), "node {v} drew nothing");
        }
        assert!(
            inert * 10 >= s.node_count() * 9,
            "only {inert}/{} nodes certified inert",
            s.node_count()
        );
    }

    #[test]
    fn jittered_friction_can_flip_borderline_decisions() {
        // Gradient exactly at the deterministic threshold: without jitter
        // nothing moves; with early-time jitter some seeds soften µ_s below
        // the gradient and the transfer fires.
        use crate::jitter::FrictionJitter;
        let s = ring_state(&[4.0, 1.0, 4.0, 1.0]); // a = 1 = µ_s exactly
        let h = s.heights();
        let cfg = PhysicsConfig {
            jitter: Some(FrictionJitter::new(0.5, 1.0, 1e9)),
            ..Default::default()
        };
        let b = det(cfg);
        // Node 0 holds 4 tasks, each drawing its own jitter, so a seed
        // fires unless all four draws harden µ_s: P ≈ 1 − 0.5⁴ ≈ 0.94.
        let mut fired = 0;
        for seed in 0..64 {
            let mut scratch = ViewScratch::new();
            let view =
                build_view(&mut scratch, &s, NodeId(0), &h, &LinkView::all_up(&s, 1.0), 0, 0.0);
            let mut rng = StdRng::seed_from_u64(seed);
            fired += usize::from(!decide(&b, &view, &mut rng).is_empty());
        }
        assert!(fired > 40 && fired < 64, "jitter should fire often but not always: {fired}/64");
    }

    #[test]
    fn jitter_rigid_at_late_rounds() {
        use crate::jitter::FrictionJitter;
        let s = ring_state(&[4.0, 1.0, 4.0, 1.0]);
        let h = s.heights();
        let cfg = PhysicsConfig {
            jitter: Some(FrictionJitter::new(0.5, 5.0, 10.0)),
            ..Default::default()
        };
        let b = det(cfg);
        // At round 10_000 the amplitude is ~0: identical to no jitter.
        for seed in 0..32 {
            let mut scratch = ViewScratch::new();
            let view = build_view(
                &mut scratch,
                &s,
                NodeId(0),
                &h,
                &LinkView::all_up(&s, 1.0),
                10_000,
                0.0,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            assert!(decide(&b, &view, &mut rng).is_empty());
        }
    }
}
