//! The empty-node contract the engine's decision sweep relies on: a policy
//! asked to decide for a node with no resident task emits nothing and
//! draws nothing from the node's RNG. The sweep therefore never asks empty
//! nodes, and this table pins that doing so is unobservable for the
//! paper's balancer (in each configuration that changes its draw pattern)
//! and for every baseline.

use pp_core::arbiter::Arbiter;
use pp_core::balancer::ParticlePlaneBalancer;
use pp_core::baselines::{
    CwnBalancer, DiffusionBalancer, DimensionExchangeBalancer, GradientModelBalancer,
    RandomNeighborBalancer, SenderInitiatedBalancer,
};
use pp_core::jitter::FrictionJitter;
use pp_core::params::PhysicsConfig;
use pp_sim::balancer::{build_view, GlobalView, LinkView, LoadBalancer, ViewScratch};
use pp_sim::state::SystemState;
use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::{Task, TaskId};
use pp_topology::graph::{NodeId, Topology};
use pp_topology::links::{LinkAttrs, LinkMap};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every policy in the workspace, set up so that it would act on an
/// occupied node of the test system (low thresholds, live jitter).
fn policies(topo: &Topology) -> Vec<(&'static str, Box<dyn LoadBalancer>)> {
    let jitter = Some(FrictionJitter::new(0.3, 1.0, 1e9));
    vec![
        ("particle-plane", Box::new(ParticlePlaneBalancer::new(PhysicsConfig::default()))),
        (
            "particle-plane jitter",
            Box::new(ParticlePlaneBalancer::new(PhysicsConfig {
                jitter,
                ..PhysicsConfig::default()
            })),
        ),
        (
            "particle-plane in-motion off",
            Box::new(ParticlePlaneBalancer::new(PhysicsConfig {
                in_motion: false,
                ..PhysicsConfig::default()
            })),
        ),
        (
            "particle-plane deterministic",
            Box::new(
                ParticlePlaneBalancer::new(PhysicsConfig::default())
                    .with_arbiter(Arbiter::Deterministic),
            ),
        ),
        ("cwn", Box::new(CwnBalancer::new(0.5))),
        ("diffusion", Box::new(DiffusionBalancer::optimal(topo))),
        ("dimension-exchange", Box::new(DimensionExchangeBalancer::new(topo))),
        ("gradient-model", Box::new(GradientModelBalancer::new(1.0, 2.0))),
        ("random-neighbor", Box::new(RandomNeighborBalancer::new(0.5))),
        ("sender-initiated", Box::new(SenderInitiatedBalancer::new(1.0, 4.0, 3))),
    ]
}

#[test]
fn empty_node_emits_nothing_and_draws_nothing_for_every_policy() {
    // A 4×4 torus where node 0 is empty and every other node holds unit
    // tasks, its neighbours heavily.
    let topo = Topology::torus(&[4, 4]);
    let links = LinkMap::uniform(&topo, LinkAttrs::default());
    let mut state = SystemState::new(topo.clone(), links, TaskGraph::new(), ResourceMatrix::none());
    let mut id = 0;
    for v in 1..16u32 {
        let count = if topo.neighbors(NodeId(0)).contains(&NodeId(v)) { 9 } else { 2 };
        for _ in 0..count {
            state.add_task(NodeId(v), Task::new(TaskId(id), 1.0, v));
            id += 1;
        }
    }
    let heights = state.heights();
    // The same system seen through a height map that claims node 0 is the
    // tallest: the contract is about resident tasks, not the height.
    let mut tall = heights.clone();
    tall[0] = 100.0;

    let links = LinkView::all_up(&state, 1.0);
    let mut scratch = ViewScratch::new();
    for (name, mut policy) in policies(&topo) {
        for h in [&heights, &tall] {
            for round in [0, 1, 2, 7, 1000] {
                policy.begin_round(&GlobalView { topo: &topo, heights: h, round, time: 0.0 });
                let view =
                    build_view(&mut scratch, &state, NodeId(0), h, &links, round, round as f64);
                assert!(view.tasks.is_empty() && !view.neighbors.is_empty());
                let mut rng = StdRng::seed_from_u64(round + 1);
                let before = rng.state();
                let mut out = Vec::new();
                policy.decide_into(&view, &mut rng, &mut out);
                assert!(out.is_empty(), "{name} (round {round}) emitted {out:?}");
                policy.decide_into(&view, &mut rng, &mut out);
                assert!(out.is_empty(), "{name} (round {round}) emitted on a second call");
                assert_eq!(rng.state(), before, "{name} (round {round}) drew from the RNG");
            }
        }
    }
}
