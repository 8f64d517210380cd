//! The serve wire format: JSON request parsing and response assembly.
//!
//! Everything travels through [`simkit::json`] — the same dependency-free
//! codec the bench harness emits reports with — so the server adds no
//! serialization dependency. Requests use the workspace's established
//! vocabulary: presets by their table label ([`NetworkKind::label`]),
//! patterns and profiles by their CLI names.
//!
//! A batch is a list of jobs; a job is one sweep (or estimate) request:
//!
//! ```json
//! {
//!   "jobs": [{
//!     "preset": "hetero-phy-full",
//!     "geom": [2, 2, 2, 2],
//!     "profile": "balanced",
//!     "pattern": "uniform",
//!     "rates": [0.02, 0.03, 0.045],
//!     "packet_len": 16,
//!     "spec": "smoke",
//!     "seed": 1,
//!     "backend": "engine",
//!     "warm_start": false
//!   }]
//! }
//! ```
//!
//! Only `preset` and `rates` are required; everything else defaults to
//! the values above. `spec` also accepts an explicit object
//! (`{"warmup": ..., "measure": ..., "drain": ..., "watchdog": ...}`),
//! and `backend: "analytical"` routes the job to the closed-form
//! estimator instead of the engine.
//!
//! A job may instead carry a dependency-driven phase `"workload"` —
//! `"dnn:layers=2,allreduce=ring"` or inline `#hetero-phase-trace` text
//! — in which case it sweeps compute-window `"scales"` (default
//! `[1.0]`) rather than `rates`; each scaled graph is cached under its
//! own fingerprint key.

use chiplet_topo::{Geometry, NodeId};
use chiplet_traffic::{DnnSpec, PhaseGraph, TrafficPattern};
use hetero_if::sim::RunSpec;
use hetero_if::{NetworkKind, SchedulingProfile, SimConfig};
use simkit::json::Json;

/// Which tier computes a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The cycle-accurate engine (cached, bit-exact).
    Engine,
    /// The closed-form analytical estimator (microseconds, with its
    /// documented calibration error attached to the response).
    Analytical,
}

impl Backend {
    /// Wire name.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Engine => "engine",
            Backend::Analytical => "analytical",
        }
    }
}

/// One parsed sweep/estimate job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Network preset.
    pub kind: NetworkKind,
    /// System geometry.
    pub geom: Geometry,
    /// Scheduling profile.
    pub profile: SchedulingProfile,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Injection rates to sweep, flits/cycle/node.
    pub rates: Vec<f64>,
    /// Packet length in flits.
    pub packet_len: u16,
    /// Run schedule (engine backend only).
    pub spec: RunSpec,
    /// Workload + config seed.
    pub seed: u64,
    /// Which tier computes the job.
    pub backend: Backend,
    /// Whether engine points may share one warmed checkpoint (approximate
    /// warm-start mode; cached under distinct keys).
    pub warm_start: bool,
    /// Dependency-driven phase workload, when this is a workload job
    /// (`"workload"`: either `dnn:<spec>` or inline phase-trace text).
    /// Workload jobs sweep `scales`, not `rates`.
    pub workload: Option<PhaseGraph>,
    /// Compute-window scale factors swept by a workload job (each keyed
    /// by the scaled graph's fingerprint). `[1.0]` when omitted.
    pub scales: Vec<f64>,
}

impl JobSpec {
    /// The simulator configuration this job runs with.
    pub fn config(&self) -> SimConfig {
        let mut config = SimConfig::default().with_seed(self.seed);
        config.packet_len = self.packet_len;
        config
    }
}

/// A parsed batch request.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

/// A request that could not be parsed; the message goes back to the
/// client in a 400 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError(pub String);

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ApiError {}

fn err(msg: impl Into<String>) -> ApiError {
    ApiError(msg.into())
}

fn parse_pattern(name: &str) -> Result<TrafficPattern, ApiError> {
    TrafficPattern::ALL
        .iter()
        .copied()
        .find(|p| p.to_string() == name)
        .ok_or_else(|| err(format!("unknown pattern: {name}")))
}

fn parse_profile(name: &str) -> Result<SchedulingProfile, ApiError> {
    match name {
        "performance-first" => Ok(SchedulingProfile::performance_first()),
        "balanced" => Ok(SchedulingProfile::balanced()),
        "energy-efficient" => Ok(SchedulingProfile::energy_efficient()),
        "application-aware" => Ok(SchedulingProfile::application_aware()),
        other => Err(err(format!("unknown profile: {other}"))),
    }
}

fn parse_spec(v: &Json) -> Result<RunSpec, ApiError> {
    if let Some(name) = v.as_str() {
        return match name {
            "paper" => Ok(RunSpec::paper()),
            "quick" => Ok(RunSpec::quick()),
            "smoke" => Ok(RunSpec::smoke()),
            other => Err(err(format!("unknown spec preset: {other}"))),
        };
    }
    if matches!(v, Json::Obj(_)) {
        let field = |key: &str, default: u64| -> Result<u64, ApiError> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => j
                    .as_u64()
                    .ok_or_else(|| err(format!("spec.{key} must be a non-negative integer"))),
            }
        };
        let base = RunSpec::smoke();
        return Ok(RunSpec {
            warmup: field("warmup", base.warmup)?,
            measure: field("measure", base.measure)?,
            drain: field("drain", base.drain)?,
            watchdog: field("watchdog", base.watchdog)?,
            drain_offers: v
                .get("drain_offers")
                .and_then(Json::as_bool)
                .unwrap_or(base.drain_offers),
        });
    }
    Err(err("spec must be a preset name or an object"))
}

fn parse_geom(v: &Json) -> Result<Geometry, ApiError> {
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 4)
        .ok_or_else(|| err("geom must be [chiplets_x, chiplets_y, chip_w, chip_h]"))?;
    let mut dims = [0u16; 4];
    for (slot, j) in dims.iter_mut().zip(arr) {
        let n = j
            .as_u64()
            .filter(|&n| (1..=u64::from(u16::MAX)).contains(&n))
            .ok_or_else(|| err("geom dimensions must be positive integers"))?;
        *slot = n as u16;
    }
    Ok(Geometry::new(dims[0], dims[1], dims[2], dims[3]))
}

fn parse_job(v: &Json) -> Result<JobSpec, ApiError> {
    let preset = v
        .get("preset")
        .and_then(Json::as_str)
        .ok_or_else(|| err("job is missing \"preset\""))?;
    let kind =
        NetworkKind::from_label(preset).ok_or_else(|| err(format!("unknown preset: {preset}")))?;
    let parse_positive_list = |key: &'static str| -> Result<Option<Vec<f64>>, ApiError> {
        let Some(j) = v.get(key) else { return Ok(None) };
        let arr = j
            .as_arr()
            .ok_or_else(|| err(format!("{key} must be an array")))?;
        let list: Vec<f64> = arr
            .iter()
            .map(|j| {
                j.as_f64()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| err(format!("{key} must be positive finite numbers")))
            })
            .collect::<Result<_, _>>()?;
        if list.is_empty() {
            return Err(err(format!("{key} must not be empty")));
        }
        Ok(Some(list))
    };
    let has_workload = v.get("workload").is_some();
    let rates = match parse_positive_list("rates")? {
        Some(r) if has_workload => {
            let _ = r;
            return Err(err("workload jobs sweep \"scales\", not \"rates\""));
        }
        Some(r) => r,
        None if has_workload => Vec::new(),
        None => return Err(err("job is missing \"rates\"")),
    };
    let scales = match parse_positive_list("scales")? {
        Some(_) if !has_workload => {
            return Err(err("\"scales\" requires a \"workload\""));
        }
        Some(s) => s,
        None => vec![1.0],
    };
    let geom = match v.get("geom") {
        Some(g) => parse_geom(g)?,
        None => Geometry::new(2, 2, 2, 2),
    };
    kind.check_geometry(geom).map_err(err)?;
    let workload = match v.get("workload").map(|w| w.as_str()) {
        None => None,
        Some(None) => return Err(err("workload must be a string")),
        Some(Some(text)) => Some(parse_workload(text, geom)?),
    };
    let profile = match v.get("profile").map(|p| p.as_str()) {
        Some(Some(name)) => parse_profile(name)?,
        Some(None) => return Err(err("profile must be a string")),
        None => SchedulingProfile::balanced(),
    };
    let pattern = match v.get("pattern").map(|p| p.as_str()) {
        Some(Some(name)) => parse_pattern(name)?,
        Some(None) => return Err(err("pattern must be a string")),
        None => TrafficPattern::Uniform,
    };
    let packet_len = match v.get("packet_len") {
        None => 16,
        Some(j) => j
            .as_u64()
            .filter(|&n| (1..=u64::from(u16::MAX)).contains(&n))
            .ok_or_else(|| err("packet_len must be a positive integer"))? as u16,
    };
    let spec = match v.get("spec") {
        Some(s) => parse_spec(s)?,
        None => RunSpec::smoke(),
    };
    let seed = match v.get("seed") {
        None => 1,
        Some(j) => j.as_u64().ok_or_else(|| err("seed must be an integer"))?,
    };
    let backend = match v.get("backend").map(|b| b.as_str()) {
        None => Backend::Engine,
        Some(Some("engine")) => Backend::Engine,
        Some(Some("analytical")) => Backend::Analytical,
        Some(Some(other)) => return Err(err(format!("unknown backend: {other}"))),
        Some(None) => return Err(err("backend must be a string")),
    };
    let warm_start = v.get("warm_start").and_then(Json::as_bool).unwrap_or(false);
    if workload.is_some() {
        if backend == Backend::Analytical {
            return Err(err("workload jobs run on the engine backend only"));
        }
        if warm_start {
            return Err(err(
                "warm_start does not apply to workload jobs (phases own their warm-up)",
            ));
        }
    }
    Ok(JobSpec {
        kind,
        geom,
        profile,
        pattern,
        rates,
        packet_len,
        spec,
        seed,
        backend,
        warm_start,
        workload,
        scales,
    })
}

/// Parses the `"workload"` field: `dnn:<spec>` generates the
/// chiplet-mapped DNN phase graph over this geometry's nodes; inline
/// `#hetero-phase-trace` text (as captured by `hetero-sim
/// --capture-trace`) replays bit-identically, once its node ids are
/// checked against the geometry. The server never reads files on the
/// client's behalf.
fn parse_workload(text: &str, geom: Geometry) -> Result<PhaseGraph, ApiError> {
    if let Some(rest) = text.strip_prefix("dnn:") {
        let spec = DnnSpec::parse(rest).map_err(|e| err(format!("bad dnn workload: {e}")))?;
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        Ok(PhaseGraph::dnn(&spec, &nodes))
    } else if text.starts_with("#hetero-phase-trace") {
        let graph =
            PhaseGraph::from_text(text).map_err(|e| err(format!("bad phase trace: {e}")))?;
        graph
            .check_nodes(geom.nodes())
            .map_err(|e| err(format!("bad phase trace: {e}")))?;
        Ok(graph)
    } else {
        Err(err(
            "workload must be dnn:<spec> or inline #hetero-phase-trace text",
        ))
    }
}

impl BatchRequest {
    /// Parses a batch request body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let jobs = v
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("request body needs a \"jobs\" array"))?;
        if jobs.is_empty() {
            return Err(err("\"jobs\" must not be empty"));
        }
        Ok(Self {
            jobs: jobs.iter().map(parse_job).collect::<Result<_, _>>()?,
        })
    }

    /// Parses a batch request from raw text.
    pub fn parse(body: &str) -> Result<Self, ApiError> {
        let v = simkit::json::parse(body).map_err(|e| err(e.to_string()))?;
        Self::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_job_fills_defaults() {
        let batch =
            BatchRequest::parse(r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.02]}]}"#)
                .expect("minimal request parses");
        let job = &batch.jobs[0];
        assert_eq!(job.kind, NetworkKind::UniformParallelMesh);
        assert_eq!(job.rates, vec![0.02]);
        assert_eq!(job.geom.nodes(), 16);
        assert_eq!(job.profile.name, "balanced");
        assert_eq!(job.pattern, TrafficPattern::Uniform);
        assert_eq!(job.packet_len, 16);
        assert_eq!(job.spec, RunSpec::smoke());
        assert_eq!(job.seed, 1);
        assert_eq!(job.backend, Backend::Engine);
        assert!(!job.warm_start);
        assert!(job.workload.is_none());
        assert_eq!(job.scales, vec![1.0]);
    }

    #[test]
    fn workload_job_parses_and_sweeps_scales() {
        let batch = BatchRequest::parse(
            r#"{"jobs": [{
                "preset": "hetero-phy-full",
                "workload": "dnn:layers=1,ranks=4,grad=32",
                "scales": [1, 2.5]
            }]}"#,
        )
        .expect("workload job parses");
        let job = &batch.jobs[0];
        let graph = job.workload.as_ref().expect("graph built");
        assert!(!graph.phases().is_empty());
        assert!(job.rates.is_empty());
        assert_eq!(job.scales, vec![1.0, 2.5]);

        // Inline captured trace text round-trips through the wire field.
        let text = graph.to_text();
        let body = format!(
            r#"{{"jobs": [{{"preset": "hetero-phy-full", "workload": {}}}]}}"#,
            simkit::json::Json::from(text.as_str()).render(),
        );
        let batch2 = BatchRequest::parse(&body).expect("inline trace parses");
        assert_eq!(
            batch2.jobs[0].workload.as_ref().unwrap().fingerprint(),
            graph.fingerprint(),
            "generated and inline-trace workloads share the fingerprint"
        );
    }

    #[test]
    fn workload_job_rejects_conflicting_fields() {
        for (body, needle) in [
            (
                r#"{"jobs": [{"preset": "hetero-phy-full", "workload": "dnn:", "rates": [0.1]}]}"#,
                "scales",
            ),
            (
                r#"{"jobs": [{"preset": "hetero-phy-full", "rates": [0.1], "scales": [2]}]}"#,
                "workload",
            ),
            (
                r#"{"jobs": [{"preset": "hetero-phy-full", "workload": "dnn:layers=0"}]}"#,
                "dnn",
            ),
            (
                r#"{"jobs": [{"preset": "hetero-phy-full", "workload": "mystery"}]}"#,
                "workload",
            ),
            (
                r#"{"jobs": [{"preset": "hetero-phy-full", "workload": "dnn:", "backend": "analytical"}]}"#,
                "engine",
            ),
            (
                r#"{"jobs": [{"preset": "hetero-phy-full", "workload": "dnn:", "warm_start": true}]}"#,
                "warm_start",
            ),
        ] {
            let e = BatchRequest::parse(body).expect_err(body);
            assert!(
                e.0.contains(needle),
                "error {:?} for {body:?} should mention {needle:?}",
                e.0
            );
        }
    }

    #[test]
    fn unbuildable_geometries_are_rejected_on_both_backends() {
        for backend in ["engine", "analytical"] {
            for (preset, geom, needle) in [
                ("uni-parallel-mesh", "[1, 1, 1, 1]", "two nodes"),
                ("hetero-channel-full", "[3, 3, 2, 2]", "power-of-two"),
                ("uni-serial-hypercube", "[3, 1, 2, 2]", "power-of-two"),
            ] {
                let body = format!(
                    r#"{{"jobs": [{{"preset": "{preset}", "geom": {geom}, "rates": [0.02], "backend": "{backend}"}}]}}"#
                );
                let e = BatchRequest::parse(&body).expect_err(&body);
                assert!(
                    e.0.contains(needle) && e.0.contains(preset),
                    "error {:?} for {body:?} should name {preset:?} and {needle:?}",
                    e.0
                );
            }
        }
    }

    #[test]
    fn self_addressed_trace_event_is_rejected() {
        let body = r##"{"jobs": [{"preset": "hetero-phy-full", "workload":
            "#hetero-phase-trace v1\nphase a compute=0 deps=\nev 0,3,3,16,unordered,normal\n"}]}"##;
        let e = BatchRequest::parse(body).expect_err(body);
        assert!(e.0.contains("self-addressed"), "{}", e.0);
    }

    #[test]
    fn out_of_range_trace_node_is_rejected() {
        let body = r##"{"jobs": [{"preset": "hetero-phy-full", "workload":
            "#hetero-phase-trace v1\nphase a compute=0 deps=\nev 0,0,99,16,unordered,normal\n"}]}"##;
        let e = BatchRequest::parse(body).expect_err(body);
        assert!(e.0.contains("16-node"), "{}", e.0);
    }

    #[test]
    fn full_job_round_trips_every_field() {
        let batch = BatchRequest::parse(
            r#"{"jobs": [{
                "preset": "hetero-phy-half",
                "geom": [2, 2, 2, 3],
                "profile": "energy-efficient",
                "pattern": "bit-complement",
                "rates": [0.02, 0.03],
                "packet_len": 8,
                "spec": {"warmup": 100, "measure": 500},
                "seed": 7,
                "backend": "analytical",
                "warm_start": true
            }]}"#,
        )
        .expect("full request parses");
        let job = &batch.jobs[0];
        assert_eq!(job.kind, NetworkKind::HeteroPhyHalf);
        assert_eq!(job.geom.nodes(), 24);
        assert_eq!(job.profile.name, "energy-efficient");
        assert_eq!(job.pattern, TrafficPattern::BitComplement);
        assert_eq!(job.packet_len, 8);
        assert_eq!(job.spec.warmup, 100);
        assert_eq!(job.spec.measure, 500);
        assert_eq!(job.spec.drain, RunSpec::smoke().drain);
        assert_eq!(job.seed, 7);
        assert_eq!(job.backend, Backend::Analytical);
        assert!(job.warm_start);
        // The job config folds in seed and packet length.
        let config = job.config();
        assert_eq!(config.seed, 7);
        assert_eq!(config.packet_len, 8);
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (body, needle) in [
            ("{}", "jobs"),
            (r#"{"jobs": []}"#, "empty"),
            (r#"{"jobs": [{"rates": [0.1]}]}"#, "preset"),
            (
                r#"{"jobs": [{"preset": "warp-drive", "rates": [0.1]}]}"#,
                "preset",
            ),
            (r#"{"jobs": [{"preset": "uni-parallel-mesh"}]}"#, "rates"),
            (
                r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [-1]}]}"#,
                "rates",
            ),
            (
                r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.1], "pattern": "zigzag"}]}"#,
                "pattern",
            ),
            (
                r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.1], "geom": [1]}]}"#,
                "geom",
            ),
            ("{not json", "parse"),
        ] {
            let e = BatchRequest::parse(body).expect_err(body);
            assert!(
                e.0.contains(needle),
                "error {:?} for {body:?} should mention {needle:?}",
                e.0
            );
        }
    }
}
