//! Declarative topology selection: a small, validatable description of
//! which generator to run with which parameters, so experiment harnesses
//! (`pp-scenario`, `pp-lab`) can name a network instead of hand-wiring a
//! constructor call. Mirrors the constructors in [`crate::generators`].

use crate::graph::Topology;

/// The most nodes a valid [`TopologySpec`] may describe: 16× the largest
/// registry scenario (a 1024×1024 torus, 2^20 nodes).
pub const MAX_NODES: usize = 1 << 24;

/// The most links a valid [`TopologySpec`] may describe, counted in closed
/// form by its generator (node pairs for the generators that test every
/// pair): room for a 2-D torus at [`MAX_NODES`].
pub const MAX_LINKS: usize = 1 << 26;

/// A generator choice plus its parameters. [`TopologySpec::build`] runs the
/// corresponding constructor from [`crate::generators`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// k-ary n-dimensional mesh (no wraparound).
    Mesh {
        /// Extent per dimension, e.g. `[8, 8]`.
        dims: Vec<usize>,
    },
    /// k-ary n-dimensional torus (wraparound).
    Torus {
        /// Extent per dimension.
        dims: Vec<usize>,
    },
    /// n-dimensional hypercube (`2^dim` nodes).
    Hypercube {
        /// Dimension.
        dim: usize,
    },
    /// Simple cycle of `n ≥ 3` nodes.
    Ring {
        /// Node count.
        n: usize,
    },
    /// Hub-and-leaves star on `n ≥ 2` nodes.
    Star {
        /// Node count.
        n: usize,
    },
    /// Complete graph on `n` nodes.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Balanced tree: each internal node has `arity` children.
    Tree {
        /// Children per internal node.
        arity: usize,
        /// Levels below the root (0 = a single root).
        depth: usize,
    },
    /// Connected seeded random graph (spanning tree + extra edges with
    /// probability `p`).
    Random {
        /// Node count (≥ 2).
        n: usize,
        /// Extra-edge probability.
        p: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Barabási–Albert preferential-attachment scale-free graph.
    ScaleFree {
        /// Node count (> m).
        n: usize,
        /// Edges each new node attaches with (≥ 1).
        m: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Random geometric graph on the unit square, augmented to
    /// connectivity.
    Geometric {
        /// Node count (≥ 2).
        n: usize,
        /// Link radius (> 0).
        radius: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Checks parameter ranges without building the (possibly large) graph,
    /// including the [`MAX_NODES`] and [`MAX_LINKS`] caps, so an untrusted
    /// spec cannot make the builder loop or allocate without bound.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_params()?;
        let nodes = self.node_count();
        if nodes > MAX_NODES {
            return Err(format!("{} has more than {MAX_NODES} nodes", self.label()));
        }
        let links = self.link_bound(nodes);
        if links > MAX_LINKS {
            return Err(format!("{} needs up to {links} links (cap {MAX_LINKS})", self.label()));
        }
        Ok(())
    }

    /// Closed-form upper bound on the links the generator builds for
    /// `nodes` nodes — for the complete, random and geometric generators,
    /// on the node pairs they test, since each visits every pair.
    fn link_bound(&self, nodes: usize) -> usize {
        match self {
            TopologySpec::Mesh { dims } | TopologySpec::Torus { dims } => nodes * dims.len(),
            TopologySpec::Hypercube { dim } => nodes * dim / 2,
            TopologySpec::Ring { .. } | TopologySpec::Star { .. } | TopologySpec::Tree { .. } => {
                nodes
            }
            TopologySpec::ScaleFree { m, .. } => nodes * m,
            TopologySpec::Complete { .. }
            | TopologySpec::Random { .. }
            | TopologySpec::Geometric { .. } => nodes * nodes.saturating_sub(1) / 2,
        }
    }

    /// The generators' lower bounds and parameter ranges.
    fn validate_params(&self) -> Result<(), String> {
        match self {
            TopologySpec::Mesh { dims } | TopologySpec::Torus { dims } => {
                if dims.is_empty() {
                    return Err("grid needs at least one dimension".into());
                }
                if dims.contains(&0) {
                    return Err("grid dimensions must be ≥ 1".into());
                }
            }
            TopologySpec::Hypercube { dim } => {
                if *dim == 0 {
                    return Err("hypercube dimension must be ≥ 1 (dim 0 is a single \
                                isolated node)"
                        .into());
                }
                if *dim > 20 {
                    return Err(format!("hypercube dimension {dim} unreasonably large"));
                }
            }
            TopologySpec::Ring { n } => {
                if *n < 3 {
                    return Err("a ring needs at least 3 nodes".into());
                }
            }
            TopologySpec::Star { n } => {
                if *n < 2 {
                    return Err("a star needs at least 2 nodes".into());
                }
            }
            TopologySpec::Complete { n } => {
                if *n == 0 {
                    return Err("a complete graph needs at least 1 node".into());
                }
            }
            TopologySpec::Tree { arity, .. } => {
                if *arity == 0 {
                    return Err("tree arity must be ≥ 1".into());
                }
            }
            TopologySpec::Random { n, p, .. } => {
                if *n < 2 {
                    return Err("a random graph needs at least 2 nodes".into());
                }
                if !(0.0..=1.0).contains(p) {
                    return Err(format!("random edge probability {p} not in [0, 1]"));
                }
            }
            TopologySpec::ScaleFree { n, m, .. } => {
                if *m == 0 {
                    return Err("scale-free attachment count m must be ≥ 1".into());
                }
                if *n <= *m {
                    return Err(format!("scale-free graph needs n > m (n={n}, m={m})"));
                }
            }
            TopologySpec::Geometric { n, radius, .. } => {
                if *n < 2 {
                    return Err("a geometric graph needs at least 2 nodes".into());
                }
                if !(*radius > 0.0 && radius.is_finite()) {
                    return Err(format!("geometric radius {radius} must be finite and > 0"));
                }
            }
        }
        Ok(())
    }

    /// Number of nodes the built topology will have. Oversized parameters
    /// saturate instead of overflowing, and tree levels stop being counted
    /// once past [`MAX_NODES`], so this is cheap and safe on any sizes
    /// ([`TopologySpec::validate`] relies on it).
    pub fn node_count(&self) -> usize {
        match self {
            TopologySpec::Mesh { dims } | TopologySpec::Torus { dims } => {
                dims.iter().fold(1, |a, &d| a.saturating_mul(d))
            }
            TopologySpec::Hypercube { dim } => {
                u32::try_from(*dim).ok().and_then(|d| 1usize.checked_shl(d)).unwrap_or(usize::MAX)
            }
            TopologySpec::Ring { n } | TopologySpec::Star { n } | TopologySpec::Complete { n } => {
                *n
            }
            TopologySpec::Tree { arity, depth } => {
                // 1 + a + a² + … + a^depth.
                let (mut total, mut level) = (1usize, 1usize);
                for _ in 0..*depth {
                    if total > MAX_NODES {
                        break;
                    }
                    level = level.saturating_mul(*arity);
                    total = total.saturating_add(level);
                }
                total
            }
            TopologySpec::Random { n, .. }
            | TopologySpec::ScaleFree { n, .. }
            | TopologySpec::Geometric { n, .. } => *n,
        }
    }

    /// Runs the generator.
    ///
    /// # Panics
    /// Panics on invalid parameters; call [`TopologySpec::validate`] first
    /// for a `Result`.
    pub fn build(&self) -> Topology {
        match self {
            TopologySpec::Mesh { dims } => Topology::mesh(dims),
            TopologySpec::Torus { dims } => Topology::torus(dims),
            TopologySpec::Hypercube { dim } => Topology::hypercube(*dim),
            TopologySpec::Ring { n } => Topology::ring(*n),
            TopologySpec::Star { n } => Topology::star(*n),
            TopologySpec::Complete { n } => Topology::complete(*n),
            TopologySpec::Tree { arity, depth } => Topology::tree(*arity, *depth),
            TopologySpec::Random { n, p, seed } => Topology::random(*n, *p, *seed),
            TopologySpec::ScaleFree { n, m, seed } => Topology::scale_free(*n, *m, *seed),
            TopologySpec::Geometric { n, radius, seed } => {
                Topology::random_geometric(*n, *radius, *seed)
            }
        }
    }

    /// Short human-readable label, e.g. `torus 8x8` or `random 64 (p=0.05)`.
    pub fn label(&self) -> String {
        fn dims_label(dims: &[usize]) -> String {
            dims.iter().map(usize::to_string).collect::<Vec<_>>().join("x")
        }
        match self {
            TopologySpec::Mesh { dims } => format!("mesh {}", dims_label(dims)),
            TopologySpec::Torus { dims } => format!("torus {}", dims_label(dims)),
            TopologySpec::Hypercube { dim } => format!("hypercube {dim}"),
            TopologySpec::Ring { n } => format!("ring {n}"),
            TopologySpec::Star { n } => format!("star {n}"),
            TopologySpec::Complete { n } => format!("complete {n}"),
            TopologySpec::Tree { arity, depth } => format!("tree {arity}^{depth}"),
            TopologySpec::Random { n, p, .. } => format!("random {n} (p={p})"),
            TopologySpec::ScaleFree { n, m, .. } => format!("scale-free {n} (m={m})"),
            TopologySpec::Geometric { n, radius, .. } => format!("geometric {n} (r={radius})"),
        }
    }
}

impl serde::Serialize for TopologySpec {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let tagged = |kind: &str, mut fields: Vec<(String, Value)>| {
            let mut entries = vec![("kind".to_string(), Value::Str(kind.to_string()))];
            entries.append(&mut fields);
            Value::Object(entries)
        };
        match self {
            TopologySpec::Mesh { dims } => {
                tagged("mesh", vec![("dims".to_string(), dims.to_value())])
            }
            TopologySpec::Torus { dims } => {
                tagged("torus", vec![("dims".to_string(), dims.to_value())])
            }
            TopologySpec::Hypercube { dim } => {
                tagged("hypercube", vec![("dim".to_string(), dim.to_value())])
            }
            TopologySpec::Ring { n } => tagged("ring", vec![("n".to_string(), n.to_value())]),
            TopologySpec::Star { n } => tagged("star", vec![("n".to_string(), n.to_value())]),
            TopologySpec::Complete { n } => {
                tagged("complete", vec![("n".to_string(), n.to_value())])
            }
            TopologySpec::Tree { arity, depth } => tagged(
                "tree",
                vec![
                    ("arity".to_string(), arity.to_value()),
                    ("depth".to_string(), depth.to_value()),
                ],
            ),
            TopologySpec::Random { n, p, seed } => tagged(
                "random",
                vec![
                    ("n".to_string(), n.to_value()),
                    ("p".to_string(), p.to_value()),
                    ("seed".to_string(), seed.to_value()),
                ],
            ),
            TopologySpec::ScaleFree { n, m, seed } => tagged(
                "scale-free",
                vec![
                    ("n".to_string(), n.to_value()),
                    ("m".to_string(), m.to_value()),
                    ("seed".to_string(), seed.to_value()),
                ],
            ),
            TopologySpec::Geometric { n, radius, seed } => tagged(
                "geometric",
                vec![
                    ("n".to_string(), n.to_value()),
                    ("radius".to_string(), radius.to_value()),
                    ("seed".to_string(), seed.to_value()),
                ],
            ),
        }
    }
}

impl serde::Deserialize for TopologySpec {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let kind: String = v.field("kind")?;
        match kind.as_str() {
            "mesh" => Ok(TopologySpec::Mesh { dims: v.field("dims")? }),
            "torus" => Ok(TopologySpec::Torus { dims: v.field("dims")? }),
            "hypercube" => Ok(TopologySpec::Hypercube { dim: v.field("dim")? }),
            "ring" => Ok(TopologySpec::Ring { n: v.field("n")? }),
            "star" => Ok(TopologySpec::Star { n: v.field("n")? }),
            "complete" => Ok(TopologySpec::Complete { n: v.field("n")? }),
            "tree" => Ok(TopologySpec::Tree { arity: v.field("arity")?, depth: v.field("depth")? }),
            "random" => Ok(TopologySpec::Random {
                n: v.field("n")?,
                p: v.field("p")?,
                seed: v.field("seed")?,
            }),
            "scale-free" => Ok(TopologySpec::ScaleFree {
                n: v.field("n")?,
                m: v.field("m")?,
                seed: v.field("seed")?,
            }),
            "geometric" => Ok(TopologySpec::Geometric {
                n: v.field("n")?,
                radius: v.field("radius")?,
                seed: v.field("seed")?,
            }),
            other => Err(format!("unknown topology kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_direct_constructors() {
        let cases = vec![
            (TopologySpec::Mesh { dims: vec![3, 4] }, Topology::mesh(&[3, 4])),
            (TopologySpec::Torus { dims: vec![4, 4] }, Topology::torus(&[4, 4])),
            (TopologySpec::Hypercube { dim: 3 }, Topology::hypercube(3)),
            (TopologySpec::Ring { n: 7 }, Topology::ring(7)),
            (TopologySpec::Star { n: 5 }, Topology::star(5)),
            (TopologySpec::Complete { n: 5 }, Topology::complete(5)),
            (TopologySpec::Tree { arity: 2, depth: 3 }, Topology::tree(2, 3)),
            (TopologySpec::Random { n: 16, p: 0.1, seed: 3 }, Topology::random(16, 0.1, 3)),
            (TopologySpec::ScaleFree { n: 24, m: 2, seed: 3 }, Topology::scale_free(24, 2, 3)),
            (
                TopologySpec::Geometric { n: 24, radius: 0.3, seed: 3 },
                Topology::random_geometric(24, 0.3, 3),
            ),
        ];
        for (spec, direct) in cases {
            spec.validate().expect("valid spec");
            let built = spec.build();
            assert_eq!(built.node_count(), direct.node_count(), "{}", spec.label());
            assert_eq!(built.edges(), direct.edges(), "{}", spec.label());
            assert_eq!(spec.node_count(), direct.node_count(), "{}", spec.label());
            assert!(built.edges().len() <= spec.link_bound(spec.node_count()), "{}", spec.label());
        }
    }

    #[test]
    fn tree_node_count_closed_form() {
        for (arity, depth) in [(1, 4), (2, 0), (2, 3), (3, 2)] {
            let spec = TopologySpec::Tree { arity, depth };
            assert_eq!(spec.node_count(), spec.build().node_count(), "arity {arity} depth {depth}");
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(TopologySpec::Mesh { dims: vec![] }.validate().is_err());
        assert!(TopologySpec::Torus { dims: vec![4, 0] }.validate().is_err());
        assert!(TopologySpec::Hypercube { dim: 64 }.validate().is_err());
        assert!(TopologySpec::Ring { n: 2 }.validate().is_err());
        assert!(TopologySpec::Star { n: 1 }.validate().is_err());
        assert!(TopologySpec::Tree { arity: 0, depth: 2 }.validate().is_err());
        assert!(TopologySpec::Random { n: 8, p: 1.5, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Random { n: 1, p: 0.5, seed: 0 }.validate().is_err());
        assert!(TopologySpec::ScaleFree { n: 8, m: 0, seed: 0 }.validate().is_err());
        assert!(TopologySpec::ScaleFree { n: 3, m: 3, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Geometric { n: 1, radius: 0.3, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Geometric { n: 8, radius: 0.0, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Geometric { n: 8, radius: f64::NAN, seed: 0 }.validate().is_err());
    }

    #[test]
    fn sizes_are_capped_before_anything_is_built() {
        let side = 1 << 12; // 4096² = MAX_NODES exactly
        assert!(TopologySpec::Torus { dims: vec![side, side] }.validate().is_ok());
        let err = TopologySpec::Torus { dims: vec![side + 1, side] }.validate().unwrap_err();
        assert!(err.contains("more than 16777216 nodes"), "got: {err}");
        // Products and tree levels that overflow `usize` are caught, not
        // wrapped, and a one-child tree of absurd depth stops at the cap.
        let huge = usize::MAX / 2;
        assert!(TopologySpec::Mesh { dims: vec![huge, huge, huge] }.validate().is_err());
        assert!(TopologySpec::Tree { arity: huge, depth: 3 }.validate().is_err());
        assert!(TopologySpec::Tree { arity: 1, depth: huge }.validate().is_err());
        assert!(TopologySpec::Ring { n: MAX_NODES + 1 }.validate().is_err());
        // Generators that test every node pair are capped by pairs: a
        // 12,000-node complete graph would need 72M links.
        assert!(TopologySpec::Complete { n: 11_000 }.validate().is_ok());
        let err = TopologySpec::Complete { n: 12_000 }.validate().unwrap_err();
        assert!(err.contains("links"), "got: {err}");
        assert!(TopologySpec::Random { n: 12_000, p: 0.0, seed: 0 }.validate().is_err());
        assert!(TopologySpec::Geometric { n: 12_000, radius: 0.1, seed: 0 }.validate().is_err());
        assert!(TopologySpec::ScaleFree { n: 1 << 20, m: 1 << 7, seed: 0 }.validate().is_err());
    }

    #[test]
    fn degenerate_hypercube_rejected() {
        // dim 0 is a single isolated node: dimension exchange's edge
        // coloring has no classes to cycle through, so the spec layer
        // refuses to describe it rather than let every downstream balancer
        // define its own behavior.
        let err = TopologySpec::Hypercube { dim: 0 }.validate().unwrap_err();
        assert!(err.contains("≥ 1"), "got: {err}");
        assert!(TopologySpec::Hypercube { dim: 1 }.validate().is_ok());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TopologySpec::Torus { dims: vec![8, 8] }.label(), "torus 8x8");
        assert_eq!(TopologySpec::Hypercube { dim: 6 }.label(), "hypercube 6");
        assert_eq!(TopologySpec::Random { n: 64, p: 0.05, seed: 1 }.label(), "random 64 (p=0.05)");
        assert_eq!(TopologySpec::ScaleFree { n: 64, m: 2, seed: 1 }.label(), "scale-free 64 (m=2)");
        assert_eq!(
            TopologySpec::Geometric { n: 64, radius: 0.2, seed: 1 }.label(),
            "geometric 64 (r=0.2)"
        );
    }
}
