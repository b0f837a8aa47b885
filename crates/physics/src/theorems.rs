//! Executable statements of the paper's §3.3 results (Corollaries 1–3,
//! Theorem 1), used by the test suite and by claims E3 and E4 of `lab
//! paper` to check the physical model against its own theory.
//!
//! # What is rigorously checkable
//!
//! Theorem 1 (`P_c ≤ h* − µ_k·r` ⇒ not trapped) is a *sufficient energy*
//! condition: when it fails, the object may still escape through a boundary
//! point lower than the peak, and when it holds, real dynamics may still
//! fail to find the exit (oscillation). The *invariants* that can never be
//! violated by a correct implementation are:
//!
//! 1. **Height bound** — the object's height never exceeds its current
//!    potential height `h*` (energy cannot be created);
//! 2. **Radius bound** (Corollary 3) — the object cannot escape a contour
//!    whose escape radius exceeds `h*/µ_k` by more than the slope-geometry
//!    slack (the paper's bound uses the flat-ground distance `d⊥`; on a
//!    slope of gradient `s`, the friction toll per unit ground distance is
//!    reduced by `cos θ ≥ 1/√(1+s²)`, so the certified trapping radius is
//!    `√(1+s_max²)·h*/µ_k`).
//!
//! [`trapping_trial`] checks both and reports a [`TheoremVerdict`].

use crate::contour::{escape_possible, trapping_radius, Contour};
use crate::friction::Friction;
use crate::particle::{Particle, SimConfig, Simulation, StopReason};
use crate::surface::Surface;
use crate::vec::Vec2;

/// Result of checking one trapping experiment against the theory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TheoremVerdict {
    /// Simulation and theory agree.
    Consistent,
    /// An energy invariant was violated (height above `h*`, or escape beyond
    /// the slack-adjusted Corollary 3 radius) — implementation bug.
    Violation,
    /// Theorem 1's energy budget permitted escape but the object stayed —
    /// allowed: the theorem is sufficient-energy only, dynamics may not find
    /// the exit.
    ConservativelyTrapped,
}

/// Outcome of a single trapping trial.
#[derive(Debug, Clone)]
pub struct TrappingTrial {
    /// Potential height `h*` at the start of the trial.
    pub h_star: f64,
    /// Contour peak `P_c`.
    pub peak: f64,
    /// Escape radius `r_{c,p}` from the start position.
    pub escape_radius: f64,
    /// Whether Theorem 1's energy budget permits escape (`P_c ≤ h*−µ_k·r`).
    pub theory_escape_possible: bool,
    /// Whether the simulated object actually left the contour.
    pub escaped: bool,
    /// The verdict (see module docs for what counts as a violation).
    pub verdict: TheoremVerdict,
    /// Where the object came to rest (if it did).
    pub rest_pos: Option<Vec2>,
}

/// Runs an object from rest at `start` on `surface` with `friction` and
/// checks the §3.3 energy invariants against the given `contour`.
///
/// `max_slope` is the largest gradient magnitude the object will encounter;
/// it sets the `cos θ` slack on Corollary 3's radius bound (pass the exact
/// maximum if known, or a safe upper bound).
pub fn trapping_trial<S: Surface>(
    surface: &S,
    friction: Friction,
    config: SimConfig,
    start: Vec2,
    mass: f64,
    contour: &Contour,
    max_slope: f64,
) -> TrappingTrial {
    let mut sim = Simulation::new(surface, friction, config, Particle::at_rest(start, mass));
    let h_star0 = sim.potential_height();
    let peak = contour.peak(surface);
    let r = contour.escape_radius(start);
    let theory = escape_possible(peak, h_star0, friction.mu_k(), r);

    // Height invariant is monitored along the whole run.
    let tol = 1e-6 * (1.0 + h_star0.abs());
    let mut height_violated = false;
    let out = sim.run_until(|s| {
        if s.height() > s.ledger().potential_height_from_ledger() + tol + 1e-2 {
            height_violated = true;
            return true;
        }
        !contour.contains(s.particle().pos)
    });
    let escaped = out.reason == StopReason::Predicate && !height_violated;

    // Corollary 3 with slope slack.
    let slack = (1.0 + max_slope * max_slope).sqrt();
    let certified_trap_radius = slack * trapping_radius(h_star0, friction.mu_k());
    let radius_violated = escaped && r > certified_trap_radius * (1.0 + 1e-9);

    let verdict = if height_violated || radius_violated {
        TheoremVerdict::Violation
    } else if theory && !escaped {
        TheoremVerdict::ConservativelyTrapped
    } else {
        TheoremVerdict::Consistent
    };
    TrappingTrial {
        h_star: h_star0,
        peak,
        escape_radius: r,
        theory_escape_possible: theory,
        escaped,
        verdict,
        rest_pos: (out.reason == StopReason::AtRest).then_some(out.particle.pos),
    }
}

/// Outcome of [`max_travel_check`].
#[derive(Debug, Clone, Copy)]
pub struct TravelCheck {
    /// The Corollary 3 bound `h*/µ_k` (no slack applied).
    pub bound: f64,
    /// Straight-line displacement from start to rest.
    pub displacement: f64,
    /// Total ground path length travelled.
    pub path: f64,
    /// Whether the slack-adjusted bound holds for the displacement.
    pub ok: bool,
}

/// Corollary 3 check on surfaces with heights ≥ 0: displacement from the
/// start can never exceed `√(1+s_max²)·h*/µ_k`.
pub fn max_travel_check<S: Surface>(
    surface: &S,
    friction: Friction,
    config: SimConfig,
    start: Vec2,
    mass: f64,
    max_slope: f64,
) -> TravelCheck {
    let mut sim = Simulation::new(surface, friction, config, Particle::at_rest(start, mass));
    let bound = trapping_radius(sim.potential_height(), friction.mu_k());
    let out = sim.run_until_rest();
    let displacement = start.distance(out.particle.pos);
    let slack = (1.0 + max_slope * max_slope).sqrt();
    TravelCheck {
        bound,
        displacement,
        path: out.ground_distance,
        ok: displacement <= slack * bound * (1.0 + 1e-6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::AnalyticSurface;

    fn crater() -> AnalyticSurface {
        AnalyticSurface::Crater { center: Vec2::ZERO, floor_r: 1.0, rim_r: 2.0, rim_height: 1.0 }
    }

    fn cfg() -> SimConfig {
        SimConfig { g: 10.0, dt: 1e-3, stop_speed: 1e-4, max_steps: 400_000 }
    }

    #[test]
    fn corollary2_friction_traps_inside_crater() {
        // Start on the inner rim below the peak; with strong friction the
        // object cannot leave the crater basin.
        let s = crater();
        let contour = Contour::disc(Vec2::ZERO, 3.0, 0.1);
        let trial = trapping_trial(
            &s,
            Friction::uniform(0.6),
            cfg(),
            Vec2::new(1.6, 0.0),
            1.0,
            &contour,
            1.0,
        );
        assert!(!trial.escaped);
        assert_ne!(trial.verdict, TheoremVerdict::Violation);
    }

    #[test]
    fn corollary1_no_friction_escapes_downhill() {
        // Frictionless object on a slope leaves any finite contour (it keeps
        // gaining speed downhill); Corollary 1 with the contour's exit lower
        // than the start.
        let s = AnalyticSurface::Incline { z0: 5.0, slope: 1.0 };
        let contour = Contour::disc(Vec2::new(4.0, 0.0), 2.0, 0.1);
        let trial = trapping_trial(
            &s,
            Friction::FRICTIONLESS,
            cfg(),
            Vec2::new(4.0, 0.0),
            1.0,
            &contour,
            1.0,
        );
        assert!(trial.escaped);
        assert_eq!(trial.verdict, TheoremVerdict::Consistent);
    }

    #[test]
    fn energy_invariants_hold_on_crater_sweep() {
        let s = crater();
        let contour = Contour::basin(&s, Vec2::ZERO, 0.99, 0.1, 100);
        for mu in [0.05, 0.1, 0.2, 0.4, 0.8] {
            for x0 in [0.2, 0.8, 1.4] {
                let trial = trapping_trial(
                    &s,
                    Friction::uniform(mu),
                    cfg(),
                    Vec2::new(x0, 0.0),
                    1.0,
                    &contour,
                    1.0, // crater rim slope = rim_height/(rim_r−floor_r) = 1
                );
                assert_ne!(trial.verdict, TheoremVerdict::Violation, "µ={mu} x0={x0}: {trial:?}");
            }
        }
    }

    #[test]
    fn corollary3_travel_bound_holds_on_bowl() {
        // Bowl heights are ≥ 0 and the start is on the rim: motion is radial
        // (1-D), so the flat-distance bound with slope slack must hold.
        let s = AnalyticSurface::Bowl { center: Vec2::ZERO, curvature: 0.25 };
        let start = Vec2::new(2.0, 0.0);
        let max_slope = 2.0 * 0.25 * 2.0; // |∇h| at the start radius
        let check = max_travel_check(&s, Friction::new(0.3, 0.3), cfg(), start, 1.0, max_slope);
        assert!(check.ok, "displacement {} > bound {}", check.displacement, check.bound);
        assert!(check.displacement > 0.0);
    }

    #[test]
    fn corollary3_more_friction_shorter_path() {
        // On the 1-D double well, a larger µ_k dissipates faster, so the
        // total path length shrinks.
        let s = AnalyticSurface::DoubleWell { a: 2.0, barrier: 1.0 };
        let run = |mu: f64| {
            let check =
                max_travel_check(&s, Friction::uniform(mu), cfg(), Vec2::new(3.5, 0.0), 1.0, 2.0);
            assert!(check.ok, "µ={mu}: {check:?}");
            check.path
        };
        assert!(run(0.05) > run(0.3), "path not shrinking with friction");
    }

    #[test]
    fn height_never_exceeds_potential_height() {
        // Release into a double well: the object oscillates across the
        // barrier region; its height must stay below h* throughout.
        let s = AnalyticSurface::DoubleWell { a: 2.0, barrier: 2.0 };
        let contour = Contour::disc(Vec2::new(0.0, 0.0), 50.0, 0.5);
        let trial = trapping_trial(
            &s,
            Friction::uniform(0.02),
            cfg(),
            Vec2::new(3.0, 0.0),
            1.0,
            &contour,
            3.0,
        );
        assert_ne!(trial.verdict, TheoremVerdict::Violation);
    }
}
