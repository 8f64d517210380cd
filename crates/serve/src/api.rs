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
//!
//! Decoding fills the defaults and reports wrongly typed fields; every
//! decoded job is then checked by [`JobSpec::validate`], the validator
//! `hetero-sim` runs on the job it builds from its flags.

use chiplet_topo::Geometry;
use chiplet_traffic::{PhaseGraph, TrafficPattern};
use hetero_if::cache::PointDesc;
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

/// One sweep/estimate job: the description of a run's points that both
/// front ends share. `hetero-serve` decodes it from JSON and `hetero-sim`
/// builds it from its flags; either way [`JobSpec::validate`] checks it
/// before anything runs.
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

    /// The cache descriptor of this job's cold engine point at `rate`.
    pub fn point_desc(&self, rate: f64) -> PointDesc {
        PointDesc::new(
            self.kind,
            self.geom,
            self.config(),
            self.profile,
            self.pattern,
            rate,
            self.packet_len,
            self.spec,
        )
    }

    /// The cache descriptor of this job run on the phase workload
    /// `graph` (its own graph or a compute-scaled copy).
    pub fn workload_desc(&self, graph: &PhaseGraph) -> PointDesc {
        self.point_desc(0.0).with_workload(graph)
    }

    /// Checks that every point of the job can run: the preset builds on
    /// the geometry, rates (or a workload's scales) are a non-empty list
    /// of positive finite numbers, packets have at least one flit, and a
    /// workload job runs cold on the engine over nodes the geometry has.
    /// Each message starts with the field it concerns.
    ///
    /// # Errors
    ///
    /// The first check that fails.
    pub fn validate(&self) -> Result<(), ApiError> {
        let g = self.geom;
        self.kind.check_geometry(g).map_err(|e| {
            let dims = [g.chiplets_x(), g.chiplets_y(), g.chip_w(), g.chip_h()];
            err(format!("geom {dims:?}: {e}"))
        })?;
        if self.packet_len == 0 {
            return Err(err("packet_len must be a positive integer"));
        }
        let Some(graph) = &self.workload else {
            return positive_list("rates", &self.rates);
        };
        if !self.rates.is_empty() {
            return Err(err("workload jobs sweep \"scales\", not \"rates\""));
        }
        positive_list("scales", &self.scales)?;
        if self.backend != Backend::Engine {
            return Err(err("workload jobs run on the engine backend only"));
        }
        if self.warm_start {
            return Err(err(
                "warm_start does not apply to workload jobs (phases own their warm-up)",
            ));
        }
        graph
            .check_nodes(g.nodes())
            .map_err(|e| err(format!("workload: {e}")))
    }
}

fn positive_list(key: &str, list: &[f64]) -> Result<(), ApiError> {
    if list.is_empty() {
        return Err(err(format!("{key} must not be empty")));
    }
    if !list.iter().all(|r| r.is_finite() && *r > 0.0) {
        return Err(err(format!("{key} must be positive finite numbers")));
    }
    Ok(())
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

/// The value at `key` as `get` reads it, if the key is present; an error
/// saying `key must be <what>` if it has the wrong type.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, ApiError> {
    v.get(key)
        .map(|j| get(j).ok_or_else(|| err(format!("{key} must be {what}"))))
        .transpose()
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
    if !matches!(v, Json::Obj(_)) {
        return Err(err("spec must be a preset name or an object"));
    }
    let in_spec = |e: ApiError| err(format!("spec.{e}"));
    let num = |key: &str, default: u64| -> Result<u64, ApiError> {
        let n = field(v, key, "a non-negative integer", Json::as_u64).map_err(in_spec)?;
        Ok(n.unwrap_or(default))
    };
    let base = RunSpec::smoke();
    Ok(RunSpec {
        warmup: num("warmup", base.warmup)?,
        measure: num("measure", base.measure)?,
        drain: num("drain", base.drain)?,
        watchdog: num("watchdog", base.watchdog)?,
        drain_offers: field(v, "drain_offers", "a boolean", Json::as_bool)
            .map_err(in_spec)?
            .unwrap_or(base.drain_offers),
    })
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

/// Decodes one job's fields, filling defaults, then validates it.
fn parse_job(v: &Json) -> Result<JobSpec, ApiError> {
    let preset = field(v, "preset", "a string", Json::as_str)?
        .ok_or_else(|| err("job is missing \"preset\""))?;
    let kind =
        NetworkKind::from_label(preset).ok_or_else(|| err(format!("unknown preset: {preset}")))?;
    let geom = match v.get("geom") {
        Some(g) => parse_geom(g)?,
        None => Geometry::new(2, 2, 2, 2),
    };
    let numbers = |key: &str| {
        field(v, key, "an array of numbers", |j| {
            j.as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<f64>>>()
        })
    };
    let workload = field(v, "workload", "a string", Json::as_str)?
        .map(|text| PhaseGraph::parse_workload(text, geom.nodes()).map_err(err))
        .transpose()?;
    if workload.is_none() && v.get("scales").is_some() {
        return Err(err("\"scales\" requires a \"workload\""));
    }
    let profile = match field(v, "profile", "a string", Json::as_str)? {
        Some(name) => SchedulingProfile::from_name(name)
            .ok_or_else(|| err(format!("unknown profile: {name}")))?,
        None => SchedulingProfile::balanced(),
    };
    let pattern = match field(v, "pattern", "a string", Json::as_str)? {
        Some(name) => TrafficPattern::from_name(name)
            .ok_or_else(|| err(format!("unknown pattern: {name}")))?,
        None => TrafficPattern::Uniform,
    };
    let backend = match field(v, "backend", "a string", Json::as_str)? {
        None | Some("engine") => Backend::Engine,
        Some("analytical") => Backend::Analytical,
        Some(other) => return Err(err(format!("unknown backend: {other}"))),
    };
    let job = JobSpec {
        kind,
        geom,
        profile,
        pattern,
        rates: numbers("rates")?.unwrap_or_default(),
        packet_len: field(v, "packet_len", "a positive integer", |j| {
            u16::try_from(j.as_u64()?).ok()
        })?
        .unwrap_or(16),
        spec: v.get("spec").map_or(Ok(RunSpec::smoke()), parse_spec)?,
        seed: field(v, "seed", "an integer", Json::as_u64)?.unwrap_or(1),
        backend,
        warm_start: field(v, "warm_start", "a boolean", Json::as_bool)?.unwrap_or(false),
        workload,
        scales: numbers("scales")?.unwrap_or_else(|| vec![1.0]),
    };
    job.validate()?;
    Ok(job)
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
    fn validate_checks_jobs_built_without_json() {
        let batch =
            BatchRequest::parse(r#"{"jobs": [{"preset": "hetero-phy-full", "rates": [0.1]}]}"#)
                .expect("valid job");
        let job = &batch.jobs[0];
        assert_eq!(job.validate(), Ok(()));
        let graph = PhaseGraph::parse_workload("dnn:layers=1", 16).expect("graph");
        let workload = JobSpec {
            rates: Vec::new(),
            workload: Some(graph),
            ..job.clone()
        };
        assert_eq!(workload.validate(), Ok(()));
        for (bad, needle) in [
            (
                JobSpec {
                    rates: vec![f64::NAN],
                    ..job.clone()
                },
                "rates",
            ),
            (
                JobSpec {
                    rates: vec![-1.0],
                    ..job.clone()
                },
                "rates",
            ),
            (
                JobSpec {
                    packet_len: 0,
                    ..job.clone()
                },
                "packet_len",
            ),
            (
                JobSpec {
                    geom: Geometry::new(1, 1, 1, 1),
                    ..job.clone()
                },
                "geom",
            ),
            (
                JobSpec {
                    rates: vec![0.1],
                    ..workload.clone()
                },
                "scales",
            ),
            (
                JobSpec {
                    scales: vec![0.0],
                    ..workload.clone()
                },
                "scales",
            ),
            (
                JobSpec {
                    geom: Geometry::new(1, 1, 2, 2),
                    ..workload.clone()
                },
                "4-node",
            ),
        ] {
            let e = bad.validate().expect_err(needle);
            assert!(e.0.contains(needle), "{e} should mention {needle:?}");
        }
    }

    #[test]
    fn pattern_names_include_the_printed_hotspot_name() {
        for name in ["uniform-hotspot", "hotspot"] {
            let body = format!(
                r#"{{"jobs": [{{"preset": "hetero-phy-full", "rates": [0.1], "pattern": "{name}"}}]}}"#
            );
            let batch = BatchRequest::parse(&body).expect(name);
            assert_eq!(batch.jobs[0].pattern, TrafficPattern::UniformHotspot);
        }
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
            (
                r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.1], "warm_start": "yes"}]}"#,
                "warm_start",
            ),
            (
                r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.1], "spec": {"drain_offers": 1}}]}"#,
                "spec.drain_offers",
            ),
            (
                r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.1], "packet_len": 0}]}"#,
                "packet_len",
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
