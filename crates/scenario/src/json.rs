//! JSON lowering and lifting for every spec type, over the vendored
//! `serde`/`serde_json` value model. Enums serialize as tagged objects
//! (`{"kind": "...", ...fields}`); structs as plain objects. The pair is
//! exercised by the `spec -> JSON -> spec` round-trip tests.

use crate::spec::{
    ArrivalSpec, BalancerSpec, CheckpointSpec, ChurnSpec, DiffusionAlpha, DurationSpec,
    EngineKnobs, FaultPlanSpec, LinkSpec, ResourceSpec, ScenarioSpec, SpeedSpec, TaskGraphSpec,
    WorkloadSpec,
};
use serde::{Deserialize, Serialize, Value};

/// Builds a tagged object: `{"kind": kind, ...fields}`.
fn tagged(kind: &str, fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    entries.extend(fields);
    Value::Object(entries)
}

/// Shorthand for one object entry.
fn entry<T: Serialize>(key: &str, v: T) -> (String, Value) {
    (key.to_string(), v.to_value())
}

/// Reads the `kind` tag of a tagged object.
fn kind_of(v: &Value) -> Result<String, String> {
    v.field("kind")
}

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            entry("name", &self.name),
            entry("description", &self.description),
            entry("topology", &self.topology),
            entry("links", &self.links),
            entry("workload", &self.workload),
            entry("task_graph", &self.task_graph),
            entry("resources", &self.resources),
            entry("balancer", &self.balancer),
            entry("arrival", &self.arrival),
            entry("faults", self.faults),
        ];
        // Omitted (not null) at the static-membership default, so every
        // spec written before the churn knob existed stays canonical.
        if self.churn != ChurnSpec::None {
            entries.push(entry("churn", self.churn));
        }
        entries.extend([
            entry("speeds", &self.speeds),
            entry("engine", self.engine),
            entry("duration", self.duration),
        ]);
        // Omitted (not null) when off, so pre-checkpoint spec JSON stays
        // canonical byte-for-byte.
        if let Some(ck) = &self.checkpoint {
            entries.push(entry("checkpoint", ck));
        }
        entries.push(entry("seed", self.seed));
        Value::Object(entries)
    }
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        let d = ScenarioSpec::default();
        Ok(ScenarioSpec {
            name: v.field("name")?,
            description: v.field_opt("description")?.unwrap_or_default(),
            topology: v.field("topology")?,
            links: v.field_opt("links")?.unwrap_or_default(),
            workload: v.field_opt("workload")?.unwrap_or(WorkloadSpec::Empty),
            task_graph: v.field_opt("task_graph")?.unwrap_or_default(),
            resources: v.field_opt("resources")?.unwrap_or_default(),
            balancer: v.field_opt("balancer")?.unwrap_or_default(),
            arrival: v.field_opt("arrival")?.unwrap_or_default(),
            faults: v.field_opt("faults")?.unwrap_or_default(),
            churn: v.field_opt("churn")?.unwrap_or_default(),
            speeds: v.field_opt("speeds")?.unwrap_or_default(),
            engine: v.field_opt("engine")?.unwrap_or_default(),
            duration: v.field_opt("duration")?.unwrap_or_default(),
            checkpoint: v.field_opt("checkpoint")?,
            seed: v.field_opt("seed")?.unwrap_or(d.seed),
        })
    }
}

impl Serialize for CheckpointSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![entry("every", self.every), entry("path", &self.path)])
    }
}

impl Deserialize for CheckpointSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(CheckpointSpec { every: v.field("every")?, path: v.field("path")? })
    }
}

impl ScenarioSpec {
    /// Pretty JSON text of the spec.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization is total")
    }

    /// Parses a spec from JSON text (does not validate; call
    /// [`ScenarioSpec::validate`] after).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }
}

impl Serialize for LinkSpec {
    fn to_value(&self) -> Value {
        match *self {
            LinkSpec::Uniform { bandwidth, distance, fault_prob } => tagged(
                "uniform",
                vec![
                    entry("bandwidth", bandwidth),
                    entry("distance", distance),
                    entry("fault_prob", fault_prob),
                ],
            ),
            LinkSpec::Instant => tagged("instant", vec![]),
            LinkSpec::Random { seed, bw, d, f_max } => tagged(
                "random",
                vec![entry("seed", seed), entry("bw", bw), entry("d", d), entry("f_max", f_max)],
            ),
        }
    }
}

impl Deserialize for LinkSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        match kind_of(v)?.as_str() {
            "uniform" => Ok(LinkSpec::Uniform {
                bandwidth: v.field("bandwidth")?,
                distance: v.field("distance")?,
                fault_prob: v.field("fault_prob")?,
            }),
            "instant" => Ok(LinkSpec::Instant),
            "random" => Ok(LinkSpec::Random {
                seed: v.field("seed")?,
                bw: v.field("bw")?,
                d: v.field("d")?,
                f_max: v.field("f_max")?,
            }),
            other => Err(format!("unknown link kind `{other}`")),
        }
    }
}

impl Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        match self {
            WorkloadSpec::Empty => tagged("empty", vec![]),
            WorkloadSpec::Hotspot { node, total, task_size } => tagged(
                "hotspot",
                vec![entry("node", node), entry("total", total), entry("task_size", task_size)],
            ),
            WorkloadSpec::MultiHotspot { nodes, total } => {
                tagged("multi-hotspot", vec![entry("nodes", nodes), entry("total", total)])
            }
            WorkloadSpec::UniformRandom { max_per_node, seed } => tagged(
                "uniform-random",
                vec![entry("max_per_node", max_per_node), entry("seed", seed)],
            ),
            WorkloadSpec::Bimodal { fraction, high, low, seed } => tagged(
                "bimodal",
                vec![
                    entry("fraction", fraction),
                    entry("high", high),
                    entry("low", low),
                    entry("seed", seed),
                ],
            ),
            WorkloadSpec::Ramp { step } => tagged("ramp", vec![entry("step", step)]),
            WorkloadSpec::Zipf { count, base, skew, seed } => tagged(
                "zipf",
                vec![
                    entry("count", count),
                    entry("base", base),
                    entry("skew", skew),
                    entry("seed", seed),
                ],
            ),
            WorkloadSpec::Loads { loads, task_size } => {
                tagged("loads", vec![entry("loads", loads), entry("task_size", task_size)])
            }
            WorkloadSpec::Trace { records } => tagged("trace", vec![entry("records", records)]),
        }
    }
}

impl Deserialize for WorkloadSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        match kind_of(v)?.as_str() {
            "empty" => Ok(WorkloadSpec::Empty),
            "hotspot" => Ok(WorkloadSpec::Hotspot {
                node: v.field("node")?,
                total: v.field("total")?,
                task_size: v.field("task_size")?,
            }),
            "multi-hotspot" => Ok(WorkloadSpec::MultiHotspot {
                nodes: v.field("nodes")?,
                total: v.field("total")?,
            }),
            "uniform-random" => Ok(WorkloadSpec::UniformRandom {
                max_per_node: v.field("max_per_node")?,
                seed: v.field("seed")?,
            }),
            "bimodal" => Ok(WorkloadSpec::Bimodal {
                fraction: v.field("fraction")?,
                high: v.field("high")?,
                low: v.field("low")?,
                seed: v.field("seed")?,
            }),
            "ramp" => Ok(WorkloadSpec::Ramp { step: v.field("step")? }),
            "zipf" => Ok(WorkloadSpec::Zipf {
                count: v.field("count")?,
                base: v.field("base")?,
                skew: v.field("skew")?,
                seed: v.field("seed")?,
            }),
            "loads" => Ok(WorkloadSpec::Loads {
                loads: v.field("loads")?,
                task_size: v.field("task_size")?,
            }),
            "trace" => Ok(WorkloadSpec::Trace { records: v.field("records")? }),
            other => Err(format!("unknown workload kind `{other}`")),
        }
    }
}

impl Serialize for TaskGraphSpec {
    fn to_value(&self) -> Value {
        match *self {
            TaskGraphSpec::None => tagged("none", vec![]),
            TaskGraphSpec::Chain { count, weight } => {
                tagged("chain", vec![entry("count", count), entry("weight", weight)])
            }
        }
    }
}

impl Deserialize for TaskGraphSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        match kind_of(v)?.as_str() {
            "none" => Ok(TaskGraphSpec::None),
            "chain" => {
                Ok(TaskGraphSpec::Chain { count: v.field("count")?, weight: v.field("weight")? })
            }
            other => Err(format!("unknown task-graph kind `{other}`")),
        }
    }
}

impl Serialize for ResourceSpec {
    fn to_value(&self) -> Value {
        match *self {
            ResourceSpec::None => tagged("none", vec![]),
            ResourceSpec::PinFirst { count, node, strength } => tagged(
                "pin-first",
                vec![entry("count", count), entry("node", node), entry("strength", strength)],
            ),
        }
    }
}

impl Deserialize for ResourceSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        match kind_of(v)?.as_str() {
            "none" => Ok(ResourceSpec::None),
            "pin-first" => Ok(ResourceSpec::PinFirst {
                count: v.field("count")?,
                node: v.field("node")?,
                strength: v.field("strength")?,
            }),
            other => Err(format!("unknown resource kind `{other}`")),
        }
    }
}

impl Serialize for BalancerSpec {
    fn to_value(&self) -> Value {
        match self {
            BalancerSpec::ParticlePlane { config, arbiter, name } => tagged(
                "particle-plane",
                vec![
                    entry("config", config),
                    entry("arbiter", arbiter.as_ref().map(|a| a.to_value())),
                    entry("name", name),
                ],
            ),
            BalancerSpec::Diffusion { alpha } => {
                let alpha = match alpha {
                    DiffusionAlpha::Optimal => Value::Str("optimal".to_string()),
                    DiffusionAlpha::Safe => Value::Str("safe".to_string()),
                    DiffusionAlpha::Fixed(a) => Value::Float(*a),
                };
                tagged("diffusion", vec![("alpha".to_string(), alpha)])
            }
            BalancerSpec::DimensionExchange => tagged("dimension-exchange", vec![]),
            BalancerSpec::GradientModel { low, high } => {
                tagged("gradient-model", vec![entry("low", low), entry("high", high)])
            }
            BalancerSpec::Cwn { threshold } => tagged("cwn", vec![entry("threshold", threshold)]),
            BalancerSpec::RandomNeighbor { threshold } => {
                tagged("random-neighbor", vec![entry("threshold", threshold)])
            }
            BalancerSpec::SenderInitiated { t_high, t_accept, probes } => tagged(
                "sender-initiated",
                vec![entry("t_high", t_high), entry("t_accept", t_accept), entry("probes", probes)],
            ),
            BalancerSpec::Null => tagged("null", vec![]),
        }
    }
}

impl Deserialize for BalancerSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        match kind_of(v)?.as_str() {
            "particle-plane" => Ok(BalancerSpec::ParticlePlane {
                config: v.field_opt("config")?.unwrap_or_default(),
                arbiter: v.field_nullable("arbiter")?,
                name: v.field_nullable("name")?,
            }),
            "diffusion" => {
                let alpha = match v.get("alpha") {
                    Some(Value::Str(s)) if s == "optimal" => DiffusionAlpha::Optimal,
                    Some(Value::Str(s)) if s == "safe" => DiffusionAlpha::Safe,
                    Some(other) => DiffusionAlpha::Fixed(
                        other.as_f64().ok_or_else(|| format!("bad diffusion alpha {other:?}"))?,
                    ),
                    None => DiffusionAlpha::Optimal,
                };
                Ok(BalancerSpec::Diffusion { alpha })
            }
            "dimension-exchange" => Ok(BalancerSpec::DimensionExchange),
            "gradient-model" => {
                Ok(BalancerSpec::GradientModel { low: v.field("low")?, high: v.field("high")? })
            }
            "cwn" => Ok(BalancerSpec::Cwn { threshold: v.field("threshold")? }),
            "random-neighbor" => {
                Ok(BalancerSpec::RandomNeighbor { threshold: v.field("threshold")? })
            }
            "sender-initiated" => Ok(BalancerSpec::SenderInitiated {
                t_high: v.field("t_high")?,
                t_accept: v.field("t_accept")?,
                probes: v.field("probes")?,
            }),
            "null" => Ok(BalancerSpec::Null),
            other => Err(format!("unknown balancer kind `{other}`")),
        }
    }
}

impl Serialize for ArrivalSpec {
    fn to_value(&self) -> Value {
        match self {
            ArrivalSpec::Quiescent => tagged("quiescent", vec![]),
            ArrivalSpec::Poisson { rate, size_min, size_max } => tagged(
                "poisson",
                vec![entry("rate", rate), entry("size_min", size_min), entry("size_max", size_max)],
            ),
            ArrivalSpec::Bursty { rate, burst_len, quiet_len, size } => tagged(
                "bursty",
                vec![
                    entry("rate", rate),
                    entry("burst_len", burst_len),
                    entry("quiet_len", quiet_len),
                    entry("size", size),
                ],
            ),
            ArrivalSpec::Diurnal { base_rate, amplitude, period, size_min, size_max } => tagged(
                "diurnal",
                vec![
                    entry("base_rate", base_rate),
                    entry("amplitude", amplitude),
                    entry("period", period),
                    entry("size_min", size_min),
                    entry("size_max", size_max),
                ],
            ),
            ArrivalSpec::MovingHotspot { rate, size, dwell, stride } => tagged(
                "moving-hotspot",
                vec![
                    entry("rate", rate),
                    entry("size", size),
                    entry("dwell", dwell),
                    entry("stride", stride),
                ],
            ),
            ArrivalSpec::Replay { events } => tagged("replay", vec![entry("events", events)]),
        }
    }
}

impl Deserialize for ArrivalSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        match kind_of(v)?.as_str() {
            "quiescent" => Ok(ArrivalSpec::Quiescent),
            "poisson" => Ok(ArrivalSpec::Poisson {
                rate: v.field("rate")?,
                size_min: v.field("size_min")?,
                size_max: v.field("size_max")?,
            }),
            "bursty" => Ok(ArrivalSpec::Bursty {
                rate: v.field("rate")?,
                burst_len: v.field("burst_len")?,
                quiet_len: v.field("quiet_len")?,
                size: v.field("size")?,
            }),
            "diurnal" => Ok(ArrivalSpec::Diurnal {
                base_rate: v.field("base_rate")?,
                amplitude: v.field("amplitude")?,
                period: v.field("period")?,
                size_min: v.field("size_min")?,
                size_max: v.field("size_max")?,
            }),
            "moving-hotspot" => Ok(ArrivalSpec::MovingHotspot {
                rate: v.field("rate")?,
                size: v.field("size")?,
                dwell: v.field("dwell")?,
                stride: v.field("stride")?,
            }),
            "replay" => Ok(ArrivalSpec::Replay { events: v.field("events")? }),
            other => Err(format!("unknown arrival kind `{other}`")),
        }
    }
}

impl Serialize for SpeedSpec {
    fn to_value(&self) -> Value {
        match *self {
            SpeedSpec::Uniform => tagged("uniform", vec![]),
            SpeedSpec::TwoTier { fast_fraction, fast, slow, seed } => tagged(
                "two-tier",
                vec![
                    entry("fast_fraction", fast_fraction),
                    entry("fast", fast),
                    entry("slow", slow),
                    entry("seed", seed),
                ],
            ),
            SpeedSpec::LinearRamp { min, max } => {
                tagged("linear-ramp", vec![entry("min", min), entry("max", max)])
            }
        }
    }
}

impl Deserialize for SpeedSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        match kind_of(v)?.as_str() {
            "uniform" => Ok(SpeedSpec::Uniform),
            "two-tier" => Ok(SpeedSpec::TwoTier {
                fast_fraction: v.field("fast_fraction")?,
                fast: v.field("fast")?,
                slow: v.field("slow")?,
                seed: v.field("seed")?,
            }),
            "linear-ramp" => {
                Ok(SpeedSpec::LinearRamp { min: v.field("min")?, max: v.field("max")? })
            }
            other => Err(format!("unknown speed kind `{other}`")),
        }
    }
}

impl Serialize for FaultPlanSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![entry("model", self.model)])
    }
}

impl Deserialize for FaultPlanSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(FaultPlanSpec { model: v.field_nullable("model")? })
    }
}

impl Serialize for ChurnSpec {
    fn to_value(&self) -> Value {
        match *self {
            ChurnSpec::None => tagged("none", vec![]),
            ChurnSpec::Markov { leave, join, seed } => tagged(
                "markov",
                vec![entry("leave", leave), entry("join", join), entry("seed", seed)],
            ),
        }
    }
}

impl Deserialize for ChurnSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        match kind_of(v)?.as_str() {
            "none" => Ok(ChurnSpec::None),
            "markov" => Ok(ChurnSpec::Markov {
                leave: v.field("leave")?,
                join: v.field("join")?,
                seed: v.field("seed")?,
            }),
            other => Err(format!("unknown churn kind `{other}`")),
        }
    }
}

impl Serialize for EngineKnobs {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            entry("tick", self.tick),
            entry("weight_c", self.weight_c),
            entry("consume_rate", self.consume_rate),
            entry("max_attempts", self.max_attempts),
            entry("shards", self.shards),
            entry("threads", self.threads),
        ])
    }
}

impl Deserialize for EngineKnobs {
    fn from_value(v: &Value) -> Result<Self, String> {
        let d = EngineKnobs::default();
        Ok(EngineKnobs {
            tick: v.field_opt("tick")?.unwrap_or(d.tick),
            weight_c: v.field_opt("weight_c")?.unwrap_or(d.weight_c),
            consume_rate: v.field_opt("consume_rate")?.unwrap_or(d.consume_rate),
            max_attempts: v.field_opt("max_attempts")?.unwrap_or(d.max_attempts),
            shards: v.field_opt("shards")?.unwrap_or(d.shards),
            threads: v.field_opt("threads")?.unwrap_or(d.threads),
        })
    }
}

impl Serialize for DurationSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![entry("rounds", self.rounds), entry("drain", self.drain)])
    }
}

impl Deserialize for DurationSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        let d = DurationSpec::default();
        Ok(DurationSpec {
            rounds: v.field_opt("rounds")?.unwrap_or(d.rounds),
            drain: v.field_opt("drain")?.unwrap_or(d.drain),
        })
    }
}
