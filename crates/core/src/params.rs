//! The §4.2 parameter derivations: every physical constant of the particle
//! model expressed as a function of the primary load-balancing parameters
//! (Table 1's dictionary, made executable).
//!
//! | physics | here |
//! |---|---|
//! | `µ_s`   | [`static_friction`]: base + task-affinity + resource-affinity |
//! | `µ_k`   | [`kinetic_friction`]: `c_µ·µ_s` (the paper's `µ_k ∝ µ_s`), floored |
//! | `tan β` | [`gradient`]: `(h_i − h_j − 2l)/e_{i,j}` (load-size-corrected) |
//! | `h`     | the node height, maintained by `pp-sim` |
//! | `e_{i,j}` | `pp-topology::LinkAttrs::weight`, carried in the node view |
//! | `E_h`   | [`crate::energy::hop_heat`] |

use pp_tasking::graph::TaskGraph;
use pp_tasking::resources::ResourceMatrix;
use pp_tasking::task::{Task, TaskId};
use pp_topology::graph::NodeId;

/// Configuration constants of the particle-plane balancer (the paper's
/// "configuration parameters which describe the system's characteristics",
/// §6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicsConfig {
    /// Gravity `g` — scales all energies (default 1; only ratios matter).
    pub g: f64,
    /// Baseline static friction: the minimum gradient any migration must
    /// beat, even for fully independent tasks (the node's "degree of
    /// participation", Table 1).
    pub mu_s_base: f64,
    /// Weight of the task-dependency term `Σ_x T_{k,x}` in `µ_s`.
    pub c_task: f64,
    /// Weight of the resource term `R_{k,i}` in `µ_s`.
    pub c_resource: f64,
    /// `µ_k = c_mu · µ_s` (the paper's `µ_k ∝ µ_s`).
    pub c_mu: f64,
    /// Lower floor for `µ_k`; the convergence proof (Theorem 2 via
    /// Corollary 2) requires `µ_k ≠ 0`.
    pub mu_k_min: f64,
    /// Heat scale `c₀` in `E_h = c₀·g·µ_k·e_{i,j}·l` (the paper's free
    /// constant tuning how much traffic a hop is billed).
    pub c0: f64,
    /// Apply the `−2·l_{i,k}/e_{i,j}` self-correction to `tan β` (accounts
    /// for the height change caused by moving the load itself, §5.1).
    pub self_correction: bool,
    /// Enable in-motion multi-hop forwarding (§5.1's second phase). When
    /// off, every migration is a single hop (ablation).
    pub in_motion: bool,
    /// Hard cap on hops per load (safety net; the energy drain already
    /// bounds travel since `µ_k > 0`).
    pub max_hops: u32,
    /// Optional annealed jitter on `µ_s` (§5.1's "stochastic nature … for
    /// some other parameters which are not too much rigid like µ_s and
    /// µ_k"); `µ_k` inherits it through `µ_k = c_µ·µ_s`.
    pub jitter: Option<crate::jitter::FrictionJitter>,
}

impl Default for PhysicsConfig {
    fn default() -> Self {
        PhysicsConfig {
            g: 1.0,
            mu_s_base: 1.0,
            c_task: 1.0,
            c_resource: 1.0,
            c_mu: 1.0,
            mu_k_min: 0.05,
            c0: 1.0,
            self_correction: true,
            in_motion: true,
            max_hops: 256,
            jitter: None,
        }
    }
}

impl serde::Serialize for PhysicsConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("g".to_string(), self.g.to_value()),
            ("mu_s_base".to_string(), self.mu_s_base.to_value()),
            ("c_task".to_string(), self.c_task.to_value()),
            ("c_resource".to_string(), self.c_resource.to_value()),
            ("c_mu".to_string(), self.c_mu.to_value()),
            ("mu_k_min".to_string(), self.mu_k_min.to_value()),
            ("c0".to_string(), self.c0.to_value()),
            ("self_correction".to_string(), self.self_correction.to_value()),
            ("in_motion".to_string(), self.in_motion.to_value()),
            ("max_hops".to_string(), self.max_hops.to_value()),
            ("jitter".to_string(), self.jitter.as_ref().map(|j| j.to_value()).to_value()),
        ])
    }
}

impl serde::Deserialize for PhysicsConfig {
    /// Lifts a config from JSON. Missing fields fall back to the default,
    /// so a spec only needs to spell out what it overrides.
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let d = PhysicsConfig::default();
        Ok(PhysicsConfig {
            g: v.field_opt("g")?.unwrap_or(d.g),
            mu_s_base: v.field_opt("mu_s_base")?.unwrap_or(d.mu_s_base),
            c_task: v.field_opt("c_task")?.unwrap_or(d.c_task),
            c_resource: v.field_opt("c_resource")?.unwrap_or(d.c_resource),
            c_mu: v.field_opt("c_mu")?.unwrap_or(d.c_mu),
            mu_k_min: v.field_opt("mu_k_min")?.unwrap_or(d.mu_k_min),
            c0: v.field_opt("c0")?.unwrap_or(d.c0),
            self_correction: v.field_opt("self_correction")?.unwrap_or(d.self_correction),
            in_motion: v.field_opt("in_motion")?.unwrap_or(d.in_motion),
            max_hops: v.field_opt("max_hops")?.unwrap_or(d.max_hops),
            jitter: v.field_nullable("jitter")?,
        })
    }
}

impl PhysicsConfig {
    /// Validates constant ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !self.g.is_finite() || self.g <= 0.0 {
            return Err("g must be > 0".into());
        }
        if self.mu_s_base < 0.0 || self.c_task < 0.0 || self.c_resource < 0.0 {
            return Err("friction terms must be ≥ 0".into());
        }
        if self.c_mu <= 0.0 || self.mu_k_min <= 0.0 {
            return Err("µ_k must stay positive (Corollary 2 needs µ_k ≠ 0)".into());
        }
        if !self.c0.is_finite() || self.c0 <= 0.0 {
            return Err("c0 must be > 0".into());
        }
        if let Some(jitter) = &self.jitter {
            jitter.validate()?;
        }
        Ok(())
    }
}

/// `µ_s(l_{i,k}, v_i)` — the static friction of task `k` on node `i`:
///
/// ```text
/// µ_s = µ_base + c_task·Σ_{x on i, x≠k} T_{k,x} + c_res·R_{k,i}
/// ```
///
/// The two proportionalities are the paper's `µ_s ∝ Σ T_{k,x}` (dependency
/// to co-located tasks) and `µ_s ∝ R_{k,i}` (dependency to the node's
/// resources).
pub fn static_friction(
    cfg: &PhysicsConfig,
    task: TaskId,
    node: NodeId,
    colocated: &[Task],
    task_graph: &TaskGraph,
    resources: &ResourceMatrix,
) -> f64 {
    // Walk the task's (usually short) partner list and test co-location,
    // instead of hashing every co-located pair; with no dependencies or no
    // resource pins — the common case — the respective term costs nothing.
    // The graph has no self-edges, so `t != task` needs no explicit check.
    let affinity: f64 = if cfg.c_task == 0.0 || task_graph.is_empty() {
        0.0
    } else {
        task_graph
            .partners_weighted(task)
            .iter()
            .filter(|(p, _)| colocated.iter().any(|t| t.id == *p))
            .map(|&(_, w)| w)
            .sum()
    };
    let resource =
        if cfg.c_resource == 0.0 || resources.is_empty() { 0.0 } else { resources.get(task, node) };
    cfg.mu_s_base + cfg.c_task * affinity + cfg.c_resource * resource
}

/// `µ_k = max(c_µ·µ_s, µ_k_min)` — kinetic friction proportional to static
/// friction, floored away from zero so loads are always eventually trapped
/// (Corollary 2, which Theorem 2's termination argument relies on).
pub fn kinetic_friction(cfg: &PhysicsConfig, mu_s: f64) -> f64 {
    (cfg.c_mu * mu_s).max(cfg.mu_k_min)
}

/// `tan β(v_i, v_j, e_{i,j})` — the slope a stationary load sees toward a
/// neighbour: `(h_i − h_j − 2l)/e` with the `2l` self-correction (or the
/// uncorrected `(h_i − h_j)/e` when disabled).
pub fn gradient(cfg: &PhysicsConfig, h_i: f64, h_j: f64, load: f64, e_ij: f64) -> f64 {
    debug_assert!(e_ij > 0.0, "link weight must be positive");
    let correction = if cfg.self_correction { 2.0 * load } else { 0.0 };
    (h_i - h_j - correction) / e_ij
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PhysicsConfig {
        PhysicsConfig::default()
    }

    #[test]
    fn default_config_is_valid() {
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn physics_config_json_round_trip() {
        use crate::jitter::FrictionJitter;
        use serde::{Deserialize, Serialize};
        let original = PhysicsConfig {
            mu_s_base: 2.5,
            c_mu: 0.75,
            self_correction: false,
            max_hops: 17,
            jitter: Some(FrictionJitter::new(0.3, 3.0, 100.0)),
            ..PhysicsConfig::default()
        };
        let value = original.to_value();
        let back = PhysicsConfig::from_value(&value).expect("lift");
        assert_eq!(back.mu_s_base, original.mu_s_base);
        assert_eq!(back.c_mu, original.c_mu);
        assert_eq!(back.self_correction, original.self_correction);
        assert_eq!(back.max_hops, original.max_hops);
        assert_eq!(back.jitter, original.jitter);
        // Byte-identical on a second lowering.
        assert_eq!(value, back.to_value());
    }

    #[test]
    fn physics_config_partial_json_uses_defaults() {
        use serde::{Deserialize, Value};
        let v = Value::Object(vec![("mu_s_base".to_string(), Value::Float(4.0))]);
        let cfg = PhysicsConfig::from_value(&v).expect("lift");
        assert_eq!(cfg.mu_s_base, 4.0);
        assert_eq!(cfg.c_mu, PhysicsConfig::default().c_mu);
        assert_eq!(cfg.jitter, None);
    }

    #[test]
    fn zero_mu_k_rejected() {
        let bad = PhysicsConfig { c_mu: 0.0, ..cfg() };
        assert!(bad.validate().is_err());
        let bad2 = PhysicsConfig { mu_k_min: 0.0, ..cfg() };
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn independent_task_has_base_friction() {
        let mu = static_friction(
            &cfg(),
            TaskId(0),
            NodeId(0),
            &[],
            &TaskGraph::new(),
            &ResourceMatrix::none(),
        );
        assert_eq!(mu, 1.0);
    }

    #[test]
    fn colocated_dependency_raises_mu_s() {
        let mut tg = TaskGraph::new();
        tg.set_dependency(TaskId(0), TaskId(1), 2.0);
        tg.set_dependency(TaskId(0), TaskId(2), 1.0);
        let colocated = vec![Task::new(TaskId(1), 1.0, 0), Task::new(TaskId(3), 1.0, 0)];
        // Only task 1 is co-located; task 2's weight must not count.
        let mu =
            static_friction(&cfg(), TaskId(0), NodeId(0), &colocated, &tg, &ResourceMatrix::none());
        assert_eq!(mu, 1.0 + 2.0);
    }

    #[test]
    fn own_task_excluded_from_affinity() {
        let mut tg = TaskGraph::new();
        tg.set_dependency(TaskId(0), TaskId(1), 5.0);
        let colocated = vec![Task::new(TaskId(0), 1.0, 0)];
        let mu =
            static_friction(&cfg(), TaskId(0), NodeId(0), &colocated, &tg, &ResourceMatrix::none());
        assert_eq!(mu, 1.0);
    }

    #[test]
    fn resource_dependency_raises_mu_s() {
        let mut res = ResourceMatrix::none();
        res.set(TaskId(0), NodeId(3), 4.0);
        let at_resource_node =
            static_friction(&cfg(), TaskId(0), NodeId(3), &[], &TaskGraph::new(), &res);
        let elsewhere = static_friction(&cfg(), TaskId(0), NodeId(1), &[], &TaskGraph::new(), &res);
        assert_eq!(at_resource_node, 5.0);
        assert_eq!(elsewhere, 1.0);
    }

    #[test]
    fn mu_k_proportional_with_floor() {
        let c = cfg();
        assert_eq!(kinetic_friction(&c, 2.0), 2.0);
        // Floor kicks in for tiny µ_s.
        assert_eq!(kinetic_friction(&c, 0.0), c.mu_k_min);
    }

    #[test]
    fn gradient_with_and_without_correction() {
        let c = cfg();
        assert_eq!(gradient(&c, 10.0, 2.0, 1.0, 2.0), 3.0); // (10−2−2)/2
        let nc = PhysicsConfig { self_correction: false, ..c };
        assert_eq!(gradient(&nc, 10.0, 2.0, 1.0, 2.0), 4.0); // (10−2)/2
    }

    #[test]
    fn gradient_scales_inverse_with_link_weight() {
        let c = cfg();
        let steep = gradient(&c, 10.0, 0.0, 1.0, 1.0);
        let shallow = gradient(&c, 10.0, 0.0, 1.0, 4.0);
        assert!(steep > shallow);
        assert_eq!(steep, 4.0 * shallow);
    }

    #[test]
    fn self_correction_prevents_thrashing_pairs() {
        // Moving load l between two nodes differing by less than 2l would
        // invert the imbalance; the corrected gradient is ≤ 0 there.
        let c = cfg();
        let g = gradient(&c, 5.0, 4.0, 1.0, 1.0); // diff 1 < 2l = 2
        assert!(g <= 0.0);
    }
}
