//! The two workloads: how each sets up its system, runs one operation,
//! and checks that operation's output.
//!
//! Every operation takes its inputs from a seed the harness draws from
//! `--seed`, so the same seed repeats a run's inputs exactly.

use crate::Spans;
use chiplet_topo::{Geometry, NodeId};
use chiplet_traffic::{DnnSpec, PacketRequest, PhaseGraph, Workload as Traffic};
use hetero_if::cache::{engine_point, PointDesc};
use hetero_if::golden::{self, Flavor, Scenario, WorkloadKind};
use hetero_if::sim::{run, RunOutcome, RunSpec};
use hetero_if::{Network, NetworkKind, SchedulingProfile, SimConfig};
use hetero_serve::{BatchRequest, SweepService};
use simkit::json::{self, Json};
use simkit::{Cycle, SimRng};

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["dnn64", "serve"];

/// Every preset; each sweep-service request computes a point on each.
const PRESETS: [NetworkKind; 7] = [
    NetworkKind::UniformParallelMesh,
    NetworkKind::UniformSerialTorus,
    NetworkKind::HeteroPhyFull,
    NetworkKind::HeteroPhyHalf,
    NetworkKind::UniformSerialHypercube,
    NetworkKind::HeteroChannelFull,
    NetworkKind::HeteroChannelHalf,
];

/// Per-layer counts summed over the operations of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Operations counted.
    pub ops: u64,
    /// Flits the engine delivered.
    pub flits: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated cycles times node count.
    pub node_cycles: u64,
    /// Cycles in which the engine moved anything.
    pub busy_cycles: u64,
    /// Flits forwarded over links.
    pub flit_hops: u64,
    /// Per-operation mean source-queue wait, summed, cycles.
    pub src_queue_cycles: f64,
    /// Per-operation mean network latency, summed, cycles.
    pub net_latency_cycles: f64,
    /// Sweep-service cache hits.
    pub cache_hits: u64,
    /// Sweep-service points simulated.
    pub computed: u64,
    /// Sweep-service points answered by the analytical estimator.
    pub analytical: u64,
}

/// A workload that counts the packets it offers, so a check can hold the
/// engine to delivering each exactly once.
#[derive(Debug)]
struct Counted<W> {
    inner: W,
    offered: u64,
}

impl<W: Traffic> Traffic for Counted<W> {
    fn poll(&mut self, now: Cycle, out: &mut Vec<PacketRequest>) {
        let before = out.len();
        self.inner.poll(now, out);
        self.offered += (out.len() - before) as u64;
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn observe(&mut self, now: Cycle, delivered_by_tag: &[u64]) {
        self.inner.observe(now, delivered_by_tag);
    }
}

/// The single-threaded engine configuration every workload runs.
fn engine(kind: NetworkKind, geom: Geometry, seed: u64, skip: bool, traced: bool) -> Network {
    let config = SimConfig::default()
        .with_seed(seed)
        .with_shard_threads(1)
        .with_idle_skip(skip);
    let mut net = kind.build(geom, config, SchedulingProfile::balanced());
    if traced {
        net.enable_metrics();
    }
    net
}

/// A DNN training step: per-layer activation shuffles, a ring all-reduce
/// per layer and a barrier, each phase released only when its predecessor
/// has ejected. One operation places the ranks on the nodes in a seeded
/// random order and runs the step to completion.
#[derive(Debug)]
pub struct Dnn {
    kind: NetworkKind,
    geom: Geometry,
    spec: DnnSpec,
}

impl Dnn {
    /// Runs until the last phase ejects: the drain phase keeps polling
    /// the graph, and nothing is excluded as warm-up.
    const RUN: RunSpec = RunSpec {
        warmup: 0,
        measure: 0,
        drain: 2_000_000,
        watchdog: 5_000,
        drain_offers: true,
    };

    /// The network, the placed graph, and the packets the graph defines.
    fn build(&self, seed: u64, skip: bool, traced: bool) -> (Network, Counted<PhaseGraph>, u64) {
        let mut nodes: Vec<NodeId> = (0..self.geom.nodes()).map(NodeId).collect();
        SimRng::seed(seed).shuffle(&mut nodes);
        let inner = PhaseGraph::dnn(&self.spec, &nodes);
        let packets = inner.phases().iter().map(|p| p.events.len() as u64).sum();
        let net = engine(self.kind, self.geom, seed, skip, traced);
        (net, Counted { inner, offered: 0 }, packets)
    }
}

/// The sweep service in process, with one worker and an in-memory cache.
/// One operation is one batch request: JSON text in, JSON text out. Every
/// request asks for a fresh point on each preset, so requests cost about
/// the same whatever their seed.
#[derive(Debug)]
pub struct Serve {
    service: Option<Box<SweepService>>,
    /// Requests served by the current service; keeps fresh keys unique.
    requests: u64,
    /// The previous request's fresh jobs and the points they computed,
    /// which the next request asks for again.
    prev: Vec<(String, Json)>,
}

/// Point fields a cache hit must reproduce exactly.
const POINT_FIELDS: [&str; 8] = [
    "packets",
    "avg_latency",
    "p99_latency",
    "avg_hops",
    "throughput",
    "avg_energy_pj",
    "drained",
    "saturated",
];

impl Serve {
    fn service(&self) -> &SweepService {
        self.service
            .as_ref()
            .expect("the service is set up before the first request")
    }

    /// One 16-node engine job per preset, each at a seeded rate, that no
    /// earlier request asked for.
    fn fresh_jobs(&self, seed: u64) -> Vec<String> {
        let job_seed = (self.requests << 24) | (seed & 0xFF_FFFF);
        let rates = [0.04, 0.06, 0.08, 0.1];
        PRESETS
            .iter()
            .enumerate()
            .map(|(k, kind)| {
                let rate = rates[((seed >> (2 * k + 24)) % 4) as usize];
                format!(
                    r#"{{"preset": "{}", "geom": [2, 2, 2, 2], "rates": [{rate}], "seed": {job_seed}, "spec": "smoke"}}"#,
                    kind.label()
                )
            })
            .collect()
    }

    /// A 256-node analytical latency curve on the hetero-PHY preset. A
    /// curve costs more than all the fresh points together, and two to
    /// three times as much on some presets as on others, so every request
    /// asks for the same one.
    const ANALYTICAL_JOB: &'static str = r#"{"preset": "hetero-phy-full", "geom": [4, 4, 4, 4], "rates": [0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16], "backend": "analytical"}"#;

    /// Serves one request: the fresh engine jobs, the previous request's
    /// jobs again (cache hits) and an analytical curve.
    fn request(&mut self, seed: u64, spans: &mut Spans) -> Done {
        let fresh = self.fresh_jobs(seed);
        let mut jobs = fresh.clone();
        jobs.extend(self.prev.iter().map(|(job, _)| job.clone()));
        jobs.push(Self::ANALYTICAL_JOB.to_string());
        let body = format!(r#"{{"jobs": [{}]}}"#, jobs.join(", "));
        self.requests += 1;
        let service = self.service();
        let batch = match spans.time("serve_parse", || BatchRequest::parse(&body)) {
            Ok(b) => b,
            Err(e) => return Done::Failed(format!("request rejected: {e}")),
        };
        let reply = spans.time("serve_batch", || service.run_batch(&batch));
        let response = spans.time("serve_render", || reply.render());
        Done::Serve { response, fresh }
    }

    /// Checks one response; good fresh points become the next request's
    /// repeated jobs.
    fn check(
        &mut self,
        response: &str,
        fresh: Vec<String>,
        layers: Option<&mut Layers>,
    ) -> Result<(), String> {
        let v = json::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
        let jobs = v
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("response has no jobs")?;
        let asked = fresh.len() + self.prev.len() + 1;
        if jobs.len() != asked {
            return Err(format!("{} jobs answered, {asked} asked", jobs.len()));
        }
        let mut computed = Vec::with_capacity(fresh.len());
        for job in &jobs[..fresh.len()] {
            let point = points(job).first().ok_or("fresh job has no point")?;
            if source(point) != "computed" {
                return Err(format!("fresh job served from {:?}", source(point)));
            }
            if point.get("drained").and_then(Json::as_bool) != Some(true)
                || point.get("packets").and_then(Json::as_u64).unwrap_or(0) == 0
            {
                return Err(format!("fresh point did not drain: {}", point.render()));
            }
            computed.push(point.clone());
        }
        for (job, (_, want)) in jobs[fresh.len()..].iter().zip(&self.prev) {
            let hit = points(job).first().ok_or("repeated job has no point")?;
            if source(hit) != "memory" {
                return Err(format!("repeated job served from {:?}", source(hit)));
            }
            for field in POINT_FIELDS {
                let (a, b) = (hit.get(field), want.get(field));
                if a.map(Json::render) != b.map(Json::render) {
                    return Err(format!("cache hit changed {field}: {a:?} vs {b:?}"));
                }
            }
        }
        let curve = points(&jobs[asked - 1]);
        let sane = |p: &Json| {
            p.get("avg_latency")
                .and_then(Json::as_f64)
                .is_some_and(|l| l.is_finite() && l > 0.0)
        };
        if curve.is_empty() || !curve.iter().all(sane) {
            return Err("analytical curve is empty or has a non-positive latency".into());
        }
        if let Some(l) = layers {
            let cache = v.get("cache");
            let count = |key| {
                cache
                    .and_then(|c| c.get(key))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            l.ops += 1;
            l.cache_hits += count("mem_hits") + count("disk_hits");
            l.computed += count("computed");
            l.analytical += curve.len() as u64;
        }
        self.prev = fresh.into_iter().zip(computed).collect();
        Ok(())
    }

    /// The last fresh points, asked for directly, must be cache hits equal
    /// to direct engine runs of the same descriptors.
    fn reference(&self) -> Result<(), String> {
        if self.prev.is_empty() {
            return Err("no request was served".into());
        }
        for (job, _) in &self.prev {
            let batch = BatchRequest::parse(&format!(r#"{{"jobs": [{job}]}}"#))
                .map_err(|e| format!("a fresh job no longer parses: {e}"))?;
            let j = &batch.jobs[0];
            let desc = PointDesc::new(
                j.kind,
                j.geom,
                j.config(),
                j.profile,
                j.pattern,
                j.rates[0],
                j.packet_len,
                j.spec,
            );
            let (served, source) = self.service().point(&desc);
            if source != "memory" {
                return Err(format!("a served point's key missed the cache ({source})"));
            }
            if served.results != engine_point(&desc).results {
                return Err("a cached point differs from a direct engine run".into());
            }
        }
        Ok(())
    }
}

/// The points a response gives for one job.
fn points(job: &Json) -> &[Json] {
    job.get("points").and_then(Json::as_arr).unwrap_or(&[])
}

/// Where a served point came from (`computed`, `memory`, ...).
fn source(point: &Json) -> &str {
    point.get("source").and_then(Json::as_str).unwrap_or("")
}

/// One benchmark workload.
#[derive(Debug)]
pub enum Workload {
    /// A dependency-driven DNN step.
    Dnn(Dnn),
    /// Sweep-service requests.
    Serve(Serve),
}

/// What one operation left behind for its check.
pub enum Done {
    /// An engine run and the network it ran on.
    Engine {
        net: Box<Network>,
        out: RunOutcome,
        expect: Expect,
    },
    /// A served request.
    Serve {
        response: String,
        fresh: Vec<String>,
    },
    /// The operation could not run.
    Failed(String),
}

/// What a correct engine run delivers: every offered packet, once.
pub struct Expect {
    /// Packets the workload offered.
    offered: u64,
    /// Packets the inputs define up front (a phase graph's), if known.
    defined: Option<u64>,
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Self> {
        Some(match name {
            "dnn64" => Workload::Dnn(Dnn {
                kind: NetworkKind::HeteroChannelFull,
                geom: Geometry::new(4, 4, 2, 2),
                spec: DnnSpec::parse("ranks=16,layers=2,fwd=64,grad=256,compute=32,allreduce=ring")
                    .expect("the benchmark's DNN spec parses"),
            }),
            "serve" => Workload::Serve(Serve {
                service: None,
                requests: 0,
                prev: Vec::new(),
            }),
            _ => return None,
        })
    }

    /// Builds the system under test from scratch: the network and its
    /// inputs, or a fresh service warmed by one request.
    pub fn setup(&mut self, seed: u64) {
        match self {
            Workload::Dnn(d) => {
                std::hint::black_box(d.build(seed, true, false));
            }
            Workload::Serve(s) => {
                let service =
                    SweepService::new(None, 1).expect("an in-memory service always opens");
                s.service = Some(Box::new(service));
                s.requests = 0;
                s.prev.clear();
                let done = s.request(seed, &mut Spans::off());
                if let Done::Serve { response, fresh } = done {
                    // A failed warm-up shows again in the first request.
                    let _ = s.check(&response, fresh, None);
                }
            }
        }
    }

    /// Runs one operation on inputs made from `seed`.
    pub fn op(&mut self, seed: u64, spans: &mut Spans) -> Done {
        let traced = spans.armed();
        match self {
            Workload::Dnn(d) => {
                let (mut net, mut graph, packets) =
                    spans.time("build", || d.build(seed, true, traced));
                let out = spans.time("run", || run(&mut net, &mut graph, Dnn::RUN));
                let expect = Expect {
                    offered: graph.offered,
                    defined: Some(packets),
                };
                Done::Engine {
                    net: Box::new(net),
                    out,
                    expect,
                }
            }
            Workload::Serve(s) => s.request(seed, spans),
        }
    }

    /// Checks one operation's output, adding its counts to `layers` in a
    /// traced run.
    pub fn check(&mut self, done: Done, layers: Option<&mut Layers>) -> Result<(), String> {
        match (self, done) {
            (_, Done::Failed(e)) => Err(e),
            (Workload::Serve(s), Done::Serve { response, fresh }) => {
                s.check(&response, fresh, layers)
            }
            (_, Done::Engine { net, out, expect }) => {
                if let Some(l) = layers {
                    count_engine(l, &net, &out);
                }
                check_engine(&net, &out, &expect)
            }
            (_, Done::Serve { .. }) => Err("a served request from an engine workload".into()),
        }
    }

    /// Checks made once per run, outside the timed loop: a committed
    /// golden fixture of this workload's preset, and the run's output
    /// against a second path that must give the same bits.
    pub fn reference_checks(&self, seed: u64) -> Vec<(&'static str, Result<(), String>)> {
        match self {
            Workload::Dnn(d) => vec![
                (
                    "golden",
                    // The one DNN fixture on this preset uses seed 1.
                    check_golden(Scenario {
                        kind: NetworkKind::HeteroChannelFull,
                        seed: 1,
                        flavor: Flavor::Clean,
                        workload: WorkloadKind::DnnTree,
                    }),
                ),
                (
                    "skip-vs-tick",
                    same_bits([true, false].map(|skip| {
                        let (mut net, mut graph, _) = d.build(seed, skip, false);
                        let out = run(&mut net, &mut graph, Dnn::RUN);
                        (out, net.collector().delivered_flits)
                    })),
                ),
            ],
            Workload::Serve(s) => vec![
                (
                    "golden",
                    // Synthetic fixtures exist for every golden seed.
                    check_golden(Scenario {
                        kind: NetworkKind::UniformParallelMesh,
                        seed: golden::SEEDS[(seed % golden::SEEDS.len() as u64) as usize],
                        flavor: Flavor::Clean,
                        workload: WorkloadKind::Synthetic,
                    }),
                ),
                ("cache-vs-engine", s.reference()),
            ],
        }
    }
}

fn same_bits(runs: [(RunOutcome, u64); 2]) -> Result<(), String> {
    if runs[0] == runs[1] {
        Ok(())
    } else {
        Err("idle-skip and per-cycle ticking gave different results".into())
    }
}

fn check_golden(scenario: Scenario) -> Result<(), String> {
    let path = golden::default_fixture_dir().join(format!("{}.txt", scenario.name()));
    let expected = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    match golden::diff(&expected, &scenario.digest_at_threads(1)) {
        None => Ok(()),
        Some(d) => Err(format!("{} drifted:\n{d}", scenario.name())),
    }
}

fn check_engine(net: &Network, out: &RunOutcome, expect: &Expect) -> Result<(), String> {
    if out.deadlocked || out.fault_stalled || !out.drained {
        return Err(format!(
            "run ended with drained={} deadlocked={} fault_stalled={}",
            out.drained, out.deadlocked, out.fault_stalled
        ));
    }
    if net.live_packets() != 0 || net.flits_in_flight() != 0 {
        return Err("packets or flits left in a drained network".into());
    }
    let delivered = net.collector().delivered_packets;
    if delivered != expect.offered || expect.defined.is_some_and(|d| d != expect.offered) {
        return Err(format!(
            "{delivered} packets delivered, {} offered, {:?} defined by the inputs",
            expect.offered, expect.defined
        ));
    }
    if out.results.packets == 0 || out.results.is_saturated() {
        return Err(format!(
            "{} packets measured, saturated: {}",
            out.results.packets,
            out.results.is_saturated()
        ));
    }
    Ok(())
}

fn count_engine(l: &mut Layers, net: &Network, out: &RunOutcome) {
    let snap = net.metrics_snapshot();
    let cycles = net.now();
    l.ops += 1;
    l.flits += net.collector().delivered_flits;
    l.cycles += cycles;
    l.node_cycles += cycles * u64::from(net.topology().geometry().nodes());
    l.busy_cycles += net.shard_active_cycles().iter().sum::<u64>();
    l.flit_hops += snap.scalar_sum("link_flits_forwarded_total");
    l.src_queue_cycles += out.results.avg_latency - out.results.avg_net_latency;
    l.net_latency_cycles += out.results.avg_net_latency;
}
