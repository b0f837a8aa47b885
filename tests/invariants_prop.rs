//! Property-based invariants across the whole stack (proptest): load
//! conservation, no negative heights, determinism, arbiter probability
//! bounds, feasibility strictness, and the energy flag's monotonic decay.

use particle_plane::core::feasibility::stationary_candidates_soa_into;
use particle_plane::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small connected topology chosen by index.
fn topo_from(idx: u8) -> Topology {
    match idx % 5 {
        0 => Topology::ring(8),
        1 => Topology::mesh(&[3, 3]),
        2 => Topology::torus(&[3, 3]),
        3 => Topology::hypercube(3),
        _ => Topology::random(9, 0.2, 7),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn load_conserved_for_any_workload(
        topo_idx in 0u8..5,
        seed in 0u64..1000,
        loads in prop::collection::vec(0.0f64..10.0, 8..=9),
    ) {
        let topo = topo_from(topo_idx);
        let n = topo.node_count();
        let mut l = loads;
        l.resize(n, 1.0);
        let w = Workload::from_loads(&l, 1.0);
        let total = w.total_load();
        let mut engine = EngineBuilder::new(topo)
            .workload(w)
            .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
            .seed(seed)
            .build();
        engine.run_rounds(30);
        prop_assert!((engine.system_load() - total).abs() < 1e-6);
        // Heights can never be negative.
        prop_assert!(engine.heights().iter().all(|&h| h >= 0.0));
    }

    #[test]
    fn balancing_never_hurts_final_cov_much(
        seed in 0u64..200,
        hot in 0usize..9,
    ) {
        let topo = Topology::torus(&[3, 3]);
        let w = Workload::hotspot(9, hot, 27.0);
        let before = Imbalance::of(&w.heights()).cov;
        let mut engine = EngineBuilder::new(topo)
            .workload(w)
            .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
            .seed(seed)
            .build();
        engine.run_rounds(120).drain(200.0);
        let after = engine.report().final_imbalance.cov;
        prop_assert!(after <= before, "cov went {before} -> {after}");
    }

    #[test]
    fn runs_identical_for_identical_seeds(seed in 0u64..500) {
        let run = |s: u64| {
            let topo = Topology::hypercube(3);
            let w = Workload::uniform_random(8, 6.0, 3);
            let mut e = EngineBuilder::new(topo)
                .workload(w)
                .balancer(ParticlePlaneBalancer::new(PhysicsConfig::default()))
                .seed(s)
                .build();
            e.run_rounds(40);
            e.heights()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn arbiter_probabilities_valid(
        beta0 in 0.01f64..0.99,
        c in 0.1f64..10.0,
        t_max in 1.0f64..1000.0,
        t in 0.0f64..2000.0,
        scores in prop::collection::vec(-10.0f64..10.0, 1..6),
    ) {
        let a = Arbiter::Stochastic { beta0, c, t_max };
        let p = a.steepest_probability(&scores, t);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "p = {p}");
        // Annealing: probability of the steepest never decreases with time.
        let p_later = a.steepest_probability(&scores, t + 100.0);
        prop_assert!(p_later >= p - 1e-9);
    }

    #[test]
    fn arbiter_choice_always_among_candidates(
        seed in 0u64..100,
        scores in prop::collection::vec(-5.0f64..5.0, 1..6),
    ) {
        let a = Arbiter::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let cand: Vec<(usize, f64)> = scores.iter().cloned().enumerate().collect();
        let pick = a.choose(&cand, 0.0, &mut rng).unwrap();
        prop_assert!(pick < scores.len());
    }

    #[test]
    fn stationary_feasibility_is_strict_and_monotone(
        h_i in 0.0f64..50.0,
        h_j in 0.0f64..50.0,
        l in 0.1f64..5.0,
        e in 0.1f64..5.0,
        mu_s in 0.0f64..10.0,
    ) {
        let cfg = PhysicsConfig::default();
        let (mut cands, mut cands_stricter) = (Vec::new(), Vec::new());
        stationary_candidates_soa_into(&cfg, l, mu_s, h_i, &[h_j], &[e], &mut cands);
        let a = gradient(&cfg, h_i, h_j, l, e);
        prop_assert_eq!(!cands.is_empty(), a > mu_s);
        // Raising µ_s can only remove candidates.
        stationary_candidates_soa_into(&cfg, l, mu_s + 1.0, h_i, &[h_j], &[e], &mut cands_stricter);
        prop_assert!(cands_stricter.len() <= cands.len());
    }

    #[test]
    fn energy_flag_decays_monotonically(
        flag0 in 0.0f64..100.0,
        mu_k in 0.01f64..5.0,
        hops in prop::collection::vec(0.1f64..3.0, 1..20),
    ) {
        let cfg = PhysicsConfig::default();
        let mut flag = flag0;
        for e in hops {
            let next = updated_flag(&cfg, flag, mu_k, e);
            prop_assert!(next < flag);
            flag = next;
        }
    }

    #[test]
    fn hop_bound_consistent_with_decrement(
        flag0 in 1.0f64..100.0,
        mu_k in 0.05f64..2.0,
        e in 0.1f64..3.0,
    ) {
        let cfg = PhysicsConfig::default();
        let bound = max_hops_bound(&cfg, flag0, 0.0, mu_k, e);
        // Simulate the decay: the number of hops until the flag reaches 0
        // must not exceed the bound.
        let mut flag = flag0;
        let mut hops = 0u32;
        while flag > 0.0 && hops < 100_000 {
            flag = updated_flag(&cfg, flag, mu_k, e);
            hops += 1;
        }
        prop_assert!(hops <= bound, "{hops} > bound {bound}");
    }

    #[test]
    fn link_weight_monotonicities(
        bw in 0.1f64..10.0,
        d in 0.1f64..10.0,
        f in 0.0f64..0.9,
    ) {
        let a = LinkAttrs { bandwidth: bw, distance: d, fault_prob: f };
        let base = a.weight(1.0);
        prop_assert!(base > 0.0);
        // More distance ⇒ heavier; more bandwidth ⇒ lighter; more faults ⇒ heavier.
        let farther = LinkAttrs { distance: d * 2.0, ..a }.weight(1.0);
        prop_assert!(farther > base);
        let faster = LinkAttrs { bandwidth: bw * 2.0, ..a }.weight(1.0);
        prop_assert!(faster < base);
        if f > 0.0 {
            let cleaner = LinkAttrs { fault_prob: 0.0, ..a }.weight(1.0);
            prop_assert!(cleaner <= base);
        }
    }

    #[test]
    fn imbalance_stats_consistent(
        loads in prop::collection::vec(0.0f64..100.0, 1..40),
    ) {
        let im = Imbalance::of(&loads);
        prop_assert!(im.min <= im.mean + 1e-9);
        prop_assert!(im.mean <= im.max + 1e-9);
        prop_assert!(im.spread >= 0.0);
        prop_assert!(im.stddev >= 0.0);
        if im.mean > 0.0 {
            prop_assert!((im.cov - im.stddev / im.mean).abs() < 1e-12);
        }
    }
}
