//! `hetero-sim`: command-line front end for the hetero-IF simulator.
//!
//! Examples:
//!
//! ```text
//! hetero-sim --network hetero-phy --chiplets 4x4 --chip 4x4 \
//!            --pattern uniform --rate 0.1 --cycles 20000
//! hetero-sim --network hetero-channel --chiplets 8x8 --chip 7x7 \
//!            --pattern bit-complement --rate 0.05 --policy energy-efficient
//! hetero-sim --network serial-torus --chiplets 4x4 --chip 2x2 --sweep --threads 8
//! hetero-sim --network hetero-phy --rate 0.2 --probe links
//! hetero-sim --network hetero-phy --chiplets 4x4 --chip 4x4 --sweep --estimate
//! hetero-sim --calibrate --report calibration.json --threads 8
//! ```
//!
//! Every flag is one row of [`FLAGS`]: `--help`, the parser and the check
//! that rejects a flag the run's mode does not read all read that table.

use chiplet_topo::{Geometry, LinkId, NodeId};
use chiplet_traffic::{PhaseGraph, SyntheticWorkload, TraceWorkload, TrafficPattern, Workload};
use hetero_estimate::{EstimateRequest, Estimator};
use hetero_if::cache::PointDesc;
use hetero_if::presets::NetworkKind;
use hetero_if::sim::{run, run_timeline, run_until, RunOutcome, RunSpec, Sample};
use hetero_if::sweep::default_rate_ladder;
use hetero_if::{FaultScript, Network, SchedulingProfile, SimConfig, SimResults};
use hetero_serve::api::{check_geometry, ApiError, Backend, JobSpec};
use hetero_serve::service::{ServiceStats, SweepService};
use simkit::codec::{ByteReader, ByteWriter, LoadState, SaveState};
use simkit::{Cycle, TraceFilter};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    None,
    Progress,
    Links,
}

// Run modes, one bit each. A run is exactly one mode (`Args::mode`); a
// flag's `Flag::modes` is the set of modes that read it.
const SINGLE: u8 = 1;
const SWEEP: u8 = 1 << 1;
const REPLAY: u8 = 1 << 2;
const WORKLOAD: u8 = 1 << 3;
const ESTIMATE: u8 = 1 << 4;
const ESTIMATE_CYCLE: u8 = 1 << 5;
const CALIBRATE: u8 = 1 << 6;
const ALL: u8 = (1 << 7) - 1;
/// The runs that build one network and run it.
const LIVE: u8 = SINGLE | REPLAY | WORKLOAD;
/// The modes that simulate under the run's [`SimConfig`].
const ENGINE: u8 = LIVE | SWEEP | ESTIMATE_CYCLE | CALIBRATE;
/// Each mode bit's name in `--help` and in errors.
const MODE_NAMES: [&str; 7] = [
    "single runs",
    "--sweep",
    "--replay",
    "--workload/--workload-trace",
    "--estimate",
    "--estimate --backend cycle",
    "--calibrate",
];

/// The `--network` names: the preset, and its halved (pin-constrained)
/// variant if it has one.
#[rustfmt::skip]
const NETWORKS: [(&str, NetworkKind, Option<NetworkKind>); 5] = [
    ("parallel-mesh", NetworkKind::UniformParallelMesh, None),
    ("serial-torus", NetworkKind::UniformSerialTorus, None),
    ("hetero-phy", NetworkKind::HeteroPhyFull, Some(NetworkKind::HeteroPhyHalf)),
    ("serial-hypercube", NetworkKind::UniformSerialHypercube, None),
    ("hetero-channel", NetworkKind::HeteroChannelFull, Some(NetworkKind::HeteroChannelHalf)),
];

/// One command-line flag: everything `--help`, the parser and the mode
/// check know about it.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    /// The value's placeholder; empty for a switch.
    meta: &'static str,
    /// The value parsed before the command line; empty for none.
    default: &'static str,
    /// The [`JobSpec`] field the flag sets: a [`JobSpec::validate`] error
    /// on that field names the flag.
    field: &'static str,
    /// The run modes that read the flag.
    modes: u8,
    /// Whether a `--cache-dir` hit honours the flag (a hit never builds
    /// the network).
    cached: bool,
    /// A flag this one only takes effect with; empty for none.
    needs: &'static str,
    /// A flag this one cannot combine with; empty for none.
    excludes: &'static str,
    /// The `--help` text.
    help: &'static str,
    /// Checks the value and stores it in its typed [`Args`] field; a
    /// switch or a path is read from [`Args::given`] instead.
    set: fn(&mut Args, &str) -> Result<(), String>,
}

/// What a row of [`FLAGS`] does not say: read in every mode, honoured by
/// a cache hit, no default, no value to parse.
#[rustfmt::skip]
const FLAG: Flag = Flag {
    name: "", meta: "", default: "", field: "", modes: ALL, cached: true, needs: "", excludes: "",
    help: "", set: |_, _| Ok(()),
};

/// Every flag `hetero-sim` takes, in `--help` order.
#[rustfmt::skip]
static FLAGS: [Flag; 33] = [
    Flag { name: "--network", meta: "NAME", default: "hetero-phy", field: "kind", modes: ALL & !CALIBRATE,
        help: "parallel-mesh | serial-torus | hetero-phy | serial-hypercube | hetero-channel",
        set: |a, v| { a.job.kind = NETWORKS.iter().find(|n| n.0 == v).ok_or("unknown network")?.1; Ok(()) },
        ..FLAG },
    Flag { name: "--half", field: "kind", modes: ALL & !CALIBRATE, help: "the halved (pin-constrained) hetero-phy or hetero-channel",
        ..FLAG },
    Flag { name: "--chiplets", meta: "CxC", default: "4x4", field: "geom", help: "chiplet grid",
        set: |a, v| { let (x, y) = pair(v)?; a.job.geom = Geometry::new(x, y, a.job.geom.chip_w(), a.job.geom.chip_h()); Ok(()) },
        ..FLAG },
    Flag { name: "--chip", meta: "WxH", default: "4x4", field: "geom", help: "nodes per chiplet",
        set: |a, v| { let (w, h) = pair(v)?; a.job.geom = Geometry::new(a.job.geom.chiplets_x(), a.job.geom.chiplets_y(), w, h); Ok(()) },
        ..FLAG },
    Flag { name: "--pattern", meta: "NAME", default: "uniform", field: "pattern", modes: ALL & !(REPLAY | WORKLOAD),
        help: "uniform | uniform-hotspot (alias hotspot) | bit-shuffle | bit-complement |\n\
               bit-transpose | bit-reverse",
        set: |a, v| { a.job.pattern = TrafficPattern::from_name(v).ok_or("unknown pattern")?; Ok(()) }, ..FLAG },
    Flag { name: "--rate", meta: "R", default: "0.1", field: "rates", modes: SINGLE | ESTIMATE | ESTIMATE_CYCLE,
        excludes: "--sweep", help: "flits/cycle/node",
        set: |a, v| { a.rate = num(v)?; Ok(()) }, ..FLAG },
    Flag { name: "--cycles", meta: "N", default: "20000", field: "spec", modes: ALL & !(ESTIMATE | ESTIMATE_CYCLE),
        help: "measurement cycles (warm-up N/10, at least 100; drain N/2)",
        set: |a, v| { let n: u64 = num(v)?; a.job.spec = RunSpec { warmup: (n / 10).max(100), measure: n,
            drain: n / 2, watchdog: 5_000, drain_offers: false }; Ok(()) }, ..FLAG },
    Flag { name: "--packet", meta: "N", default: "16", field: "packet_len", modes: ALL & !(REPLAY | WORKLOAD),
        help: "flits per packet",
        set: |a, v| { a.job.packet_len = num(v)?; Ok(()) }, ..FLAG },
    Flag { name: "--policy", meta: "NAME", default: "balanced", field: "profile",
        help: "performance-first | balanced | energy-efficient | application-aware",
        set: |a, v| { a.job.profile = SchedulingProfile::from_name(v).ok_or("unknown policy")?; Ok(()) }, ..FLAG },
    Flag { name: "--seed", meta: "N", default: "1", field: "seed", modes: ALL & !ESTIMATE, help: "RNG seed",
        set: |a, v| { a.job.seed = num(v)?; Ok(()) }, ..FLAG },
    Flag { name: "--sweep", modes: SWEEP | ESTIMATE | ESTIMATE_CYCLE,
        help: "sweep injection rates up to saturation instead of one run", ..FLAG },
    Flag { name: "--workload", meta: "dnn:SPEC", field: "workload", modes: WORKLOAD, excludes: "--workload-trace",
        help: "drive the chiplet-mapped DNN training step (SPEC: layers, fwd, grad,\n\
               allreduce=ring|tree, compute, ranks; e.g. dnn:layers=4,allreduce=ring) instead\n\
               of synthetic traffic; a phase releases once its dependencies' packets ejected", ..FLAG },
    Flag { name: "--workload-trace", meta: "FILE", field: "workload", modes: WORKLOAD,
        help: "replay a captured #hetero-phase-trace file bit-identically", ..FLAG },
    Flag { name: "--capture-trace", meta: "FILE", modes: WORKLOAD, cached: false,
        help: "write the phase trace, with observed release cycles, to FILE for replay", ..FLAG },
    Flag { name: "--threads", meta: "N", default: "1", modes: SWEEP | CALIBRATE,
        help: "worker threads for the points (bit-identical for any N)",
        set: |a, v| { a.threads = num(v)?; (a.threads > 0).then_some(()).ok_or(AT_LEAST_1.into()) }, ..FLAG },
    Flag { name: "--shard-threads", meta: "N", modes: ENGINE & !ESTIMATE_CYCLE,
        help: "shard each run's cycle loop over N threads (0 = one per core; default\n\
               $HETERO_SIM_THREADS or 1; bit-identical for any N)",
        set: |a, v| { a.shard_threads = Some(num(v)?); Ok(()) }, ..FLAG },
    Flag { name: "--probe", meta: "KIND", default: "none", modes: LIVE, cached: false,
        help: "none | progress (live/queued/delivered snapshots) | links (busiest links)",
        set: |a, v| { a.probe = pick(v, &[("none", Probe::None), ("progress", Probe::Progress),
            ("links", Probe::Links)])?; Ok(()) }, ..FLAG },
    Flag { name: "--replay", meta: "FILE", modes: REPLAY, cached: false,
        help: "replay a CSV trace (cycle,src,dst,len,class,priority) instead of synthetic traffic",
        ..FLAG },
    Flag { name: "--metrics", meta: "FILE", modes: LIVE, cached: false,
        help: "write the metrics snapshot after the run (.jsonl: JSON lines, else Prometheus)", ..FLAG },
    Flag { name: "--trace", meta: "FILE", modes: LIVE, cached: false,
        help: "record trace events to FILE (.json: Chrome trace_event JSON, else JSON lines)", ..FLAG },
    Flag { name: "--trace-filter", meta: "K", default: "all", modes: LIVE, cached: false, needs: "--trace",
        help: "all | flit | phy | link | fault | barrier | phase, or kind names, comma-joined",
        set: |a, v| { a.trace_filter = TraceFilter::parse(v).ok_or("unknown trace filter")?; Ok(()) }, ..FLAG },
    Flag { name: "--ber", meta: "B", default: "0", modes: ENGINE,
        help: "serial-wire bit error rate in [0, 1) (parallel wires scale along at the\n\
               Table-1 family ratio); arms the CRC/replay retry link layer",
        set: |a, v| { a.ber = num(v)?; (0.0..1.0).contains(&a.ber).then_some(()).ok_or("must be in [0, 1)".into()) },
        ..FLAG },
    Flag { name: "--retry", modes: ENGINE, help: "arm the retry link layer even at BER 0", ..FLAG },
    Flag { name: "--fault-script", meta: "FILE", modes: LIVE, cached: false,
        help: "scripted hard faults (cycle + phy-down/link-down/burst/degrade lines)", ..FLAG },
    Flag { name: "--checkpoint-out", meta: "FILE", modes: SINGLE, cached: false, excludes: "--probe",
        help: "snapshot the run to FILE at the warm-up boundary and continue", ..FLAG },
    Flag { name: "--checkpoint-every", meta: "N", modes: SINGLE, cached: false, needs: "--checkpoint-out",
        help: "snapshot every N cycles instead, each to FILE.<cycle>",
        set: |a, v| { let n = num(v)?; a.checkpoint_every = Some(n); (n > 0).then_some(()).ok_or(AT_LEAST_1.into()) },
        ..FLAG },
    Flag { name: "--checkpoint-in", meta: "FILE", modes: SINGLE, cached: false,
        help: "restore FILE into the identically configured network and resume", ..FLAG },
    Flag { name: "--warm-start", field: "warm_start", modes: SWEEP,
        help: "start every point from one shared, checkpointed warm-up (approximate)",
        set: |a, _| { a.job.warm_start = true; Ok(()) }, ..FLAG },
    Flag { name: "--estimate", modes: ESTIMATE | ESTIMATE_CYCLE,
        help: "estimate with the two-tier model instead of simulating", ..FLAG },
    Flag { name: "--backend", meta: "TIER", default: "analytical", modes: ESTIMATE | ESTIMATE_CYCLE | CALIBRATE,
        help: "analytical (Eq. 2-5 + M/D/1) | cycle (engine micro-runs per link class)",
        set: |a, v| { a.cycle_tier = pick(v, &[("analytical", false), ("cycle", true)])?; Ok(()) }, ..FLAG },
    Flag { name: "--calibrate", modes: CALIBRATE,
        help: "golden engine sweeps vs the analytical tier over every preset on this\n\
               geometry; exits 1 if any preset misses its documented error bound", ..FLAG },
    Flag { name: "--report", meta: "FILE", modes: ESTIMATE | ESTIMATE_CYCLE | CALIBRATE,
        help: "write the curve CSV (--estimate) or the JSON report (--calibrate)", ..FLAG },
    Flag { name: "--cache-dir", meta: "DIR", modes: SINGLE | SWEEP | WORKLOAD,
        help: "serve points from (and store them in) the result store shared with\n\
               hetero-serve, bit-identically", ..FLAG },
];

/// The closing paragraph of `--help`.
const MODE_RULE: &str = "\
A run is one mode: --calibrate, else --estimate, else --sweep, else --replay,
else --workload/--workload-trace, else a single synthetic run. A flag the mode
does not read or a --cache-dir hit cannot honour, or --half on a preset with
no halved variant, exits 2 naming the flag, as does a job hetero-serve rejects.
";

/// The value of `choices` named `v`.
fn pick<T: Copy>(v: &str, choices: &[(&str, T)]) -> Result<T, String> {
    let found = choices.iter().find(|c| c.0 == v).map(|c| c.1);
    found.ok_or_else(|| "not one of the choices".into())
}

const AT_LEAST_1: &str = "must be at least 1";

fn num<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| "not a valid number".into())
}

fn pair(s: &str) -> Result<(u16, u16), String> {
    let (a, b) = s.split_once(['x', 'X']).ok_or("expected AxB")?;
    match (num(a)?, num(b)?) {
        (0, _) | (_, 0) => Err("sides must be positive".into()),
        ab => Ok(ab),
    }
}

/// The modes in `set`, by name.
fn mode_names(set: u8) -> String {
    let in_set = |i: &usize| set & (1 << i) != 0;
    let names: Vec<&str> = (0..7).filter(in_set).map(|i| MODE_NAMES[i]).collect();
    names.join(", ")
}

/// `--help`, rendered from [`FLAGS`].
fn help() -> String {
    let mut out = String::from("usage: hetero-sim [options]\n");
    for f in &FLAGS {
        let notes = [
            (!f.default.is_empty()).then(|| format!("default {}", f.default)),
            (f.modes != ALL).then(|| match f.modes.count_ones() {
                1..=3 => format!("read by {}", mode_names(f.modes)),
                _ => format!("read by every mode but {}", mode_names(ALL & !f.modes)),
            }),
            (!f.cached).then(|| "not with --cache-dir".into()),
            (!f.needs.is_empty()).then(|| format!("needs {}", f.needs)),
            (!f.excludes.is_empty()).then(|| format!("not with {}", f.excludes)),
        ];
        let notes: Vec<String> = notes.into_iter().flatten().collect();
        out += format!("\n  {} {}", f.name, f.meta).trim_end();
        for line in f.help.lines() {
            out += &format!("\n      {line}");
        }
        if !notes.is_empty() {
            out += &format!("\n      [{}]", notes.join("; "));
        }
        out += "\n";
    }
    out + "\n" + MODE_RULE
}

/// Prints `msg` to stderr and exits with `code`.
fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

/// The parsed command line: the points to compute, as the [`JobSpec`]
/// `hetero-serve` runs too, plus the settings of this one run.
#[derive(Debug)]
struct Args {
    /// Preset, geometry, profile, pattern, rates (the `--rate`, or the
    /// ladder under `--sweep`), packet length, schedule, seed, warm-start
    /// and phase workload.
    job: JobSpec,
    /// The `--rate` value, as the run header prints it.
    rate: f64,
    trace_filter: TraceFilter,
    threads: usize,
    shard_threads: Option<usize>,
    probe: Probe,
    ber: f64,
    checkpoint_every: Option<Cycle>,
    /// `--backend cycle`.
    cycle_tier: bool,
    /// Each flag given and its value (empty for a switch).
    given: Vec<(&'static Flag, String)>,
}

impl Args {
    /// The value of flag `name`, if it was given.
    fn value(&self, name: &str) -> Option<&str> {
        let given = self.given.iter().find(|(f, _)| f.name == name);
        given.map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The run mode: the first of these flags given picks it.
    fn mode(&self) -> u8 {
        let picks = [
            ("--calibrate", CALIBRATE),
            ("--estimate", ESTIMATE),
            ("--sweep", SWEEP),
            ("--replay", REPLAY),
            ("--workload", WORKLOAD),
            ("--workload-trace", WORKLOAD),
        ];
        let picked = picks.iter().find(|(flag, _)| self.has(flag));
        match picked.map_or(SINGLE, |p| p.1) {
            ESTIMATE if self.cycle_tier => ESTIMATE_CYCLE,
            mode => mode,
        }
    }
}

/// Parses the command line through [`FLAGS`]: the defaults, then each
/// flag given.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        job: JobSpec {
            kind: NetworkKind::HeteroPhyFull,
            geom: Geometry::new(4, 4, 4, 4),
            profile: SchedulingProfile::balanced(),
            pattern: TrafficPattern::Uniform,
            rates: Vec::new(),
            packet_len: 16,
            spec: RunSpec::smoke(),
            seed: 1,
            backend: Backend::Engine,
            warm_start: false,
            workload: None,
            scales: vec![1.0],
        },
        rate: 0.1,
        trace_filter: TraceFilter::all(),
        threads: 1,
        shard_threads: None,
        probe: Probe::None,
        ber: 0.0,
        checkpoint_every: None,
        cycle_tier: false,
        given: Vec::new(),
    };
    for f in FLAGS.iter().filter(|f| !f.default.is_empty()) {
        (f.set)(&mut a, f.default).expect("flag defaults parse");
    }
    while let Some(name) = argv.next() {
        if name == "--help" || name == "-h" {
            print!("{}", help());
            std::process::exit(0);
        }
        let f = FLAGS.iter().find(|f| f.name == name);
        let f = f.ok_or_else(|| format!("unknown flag: {name}"))?;
        let value = match f.meta {
            "" => String::new(),
            meta => argv
                .next()
                .ok_or_else(|| format!("{name} takes a value: {name} {meta}"))?,
        };
        (f.set)(&mut a, &value).map_err(|e| format!("{name} {value}: {e}"))?;
        // A flag given again replaces its value.
        a.given.retain(|(g, _)| g.name != f.name);
        a.given.push((f, value));
    }
    let net = NETWORKS
        .iter()
        .find(|n| n.1 == a.job.kind)
        .expect("set by --network");
    match (a.has("--half"), net.2) {
        (false, _) => {}
        (true, Some(half)) => a.job.kind = half,
        (true, None) => return Err(format!("--half: {} has no halved variant", net.0)),
    }
    Ok(a)
}

/// Rejects every clash of a flag given with the run, one line each: a
/// mode that does not read it, a `--cache-dir` hit that cannot honour
/// it, a flag it needs missing, a flag it excludes given.
fn check_flags(a: &Args) -> Result<(), String> {
    let (mode, cache) = (a.mode(), a.has("--cache-dir"));
    let mut lines: Vec<String> = Vec::new();
    for (f, _) in &a.given {
        let (name, here, there) = (f.name, mode_names(mode), mode_names(f.modes));
        let clashes = [
            (f.modes & mode == 0).then(|| format!("is read by {there}, not by {here}")),
            (cache && !f.cached).then(|| "is not honoured by a --cache-dir hit".into()),
            (!f.needs.is_empty() && !a.has(f.needs)).then(|| format!("requires {}", f.needs)),
            a.has(f.excludes)
                .then(|| format!("cannot combine with {}", f.excludes)),
        ];
        lines.extend(clashes.into_iter().flatten().map(|c| format!("{name} {c}")));
    }
    lines.is_empty().then_some(()).ok_or(lines.join("\n"))
}

/// A [`JobSpec::validate`] error, led by the flags that set the field
/// the message starts with.
fn flag_error(e: &ApiError) -> String {
    let sets_field = |f: &&Flag| !f.field.is_empty() && e.0.starts_with(f.field);
    let names: Vec<&str> = FLAGS.iter().filter(sets_field).map(|f| f.name).collect();
    match names.is_empty() {
        true => e.to_string(),
        false => format!("{}: {e}", names.join("/")),
    }
}

fn print_results(r: &SimResults) {
    println!("packets delivered   {}", r.packets);
    println!(
        "avg latency         {:.2} cycles (σ {:.2}, max {:.0})",
        r.avg_latency, r.latency_std, r.max_latency
    );
    println!("avg network latency {:.2} cycles", r.avg_net_latency);
    println!("avg hops            {:.2}", r.avg_hops);
    println!("throughput          {:.4} flits/cycle/node", r.throughput);
    println!(
        "energy/packet       {:.0} pJ (on-chip {:.0}, parallel {:.0}, serial {:.0})",
        r.avg_energy_pj, r.avg_onchip_pj, r.avg_parallel_pj, r.avg_serial_pj
    );
    let locked = r.locked_fraction * 100.0;
    println!("baseline-locked     {locked:.2}% of packets");
    if r.is_saturated() {
        let backlog = r.backlog;
        println!("NOTE: the network is saturated at this rate (backlog {backlog})");
    }
}

fn print_outcome(outcome: &RunOutcome) {
    print_results(&outcome.results);
    let r = &outcome.results;
    if r.corrupted_flits > 0 || r.retransmitted_flits > 0 || r.failovers > 0 {
        println!(
            "link integrity      {} flits corrupted, {} retransmitted, {} PHY failovers",
            r.corrupted_flits, r.retransmitted_flits, r.failovers
        );
    }
    if outcome.deadlocked {
        println!(
            "DEADLOCK: no forward progress with live packets; the run was aborted \
             and the results cover only the cycles before the stall"
        );
    }
    if outcome.fault_stalled {
        println!(
            "FAULT STALL: traffic wedged on failed hardware (injected faults); \
             the run was aborted and the results cover only the cycles before \
             the stall"
        );
    }
}

/// Runs one simulation and prints the report `--probe` selects after
/// the results: a progress timeline, or the busiest links.
fn run_with_probes(
    net: &mut Network,
    w: &mut dyn Workload,
    spec: RunSpec,
    probe: Probe,
) -> RunOutcome {
    match probe {
        Probe::None => run(net, w, spec),
        Probe::Progress => {
            let total = spec.warmup + spec.measure + spec.drain;
            let (outcome, samples) = run_timeline(net, w, spec, (total / 20).max(1));
            println!("\nprogress timeline:");
            for line in progress_report(&samples) {
                println!("  {line}");
            }
            outcome
        }
        Probe::Links => {
            let outcome = run(net, w, spec);
            let link_flits = net.link_flits();
            let cycles = net.now().max(1);
            println!("\nbusiest links (of {}):", link_flits.len());
            println!(
                "  {:>6} {:>16} {:>10} {:>12}",
                "link", "route", "flits", "flits/cycle"
            );
            for (li, flits) in busiest_links(&link_flits, 10) {
                let topo = net.topology();
                let (l, rate) = (topo.link(LinkId(li)), flits as f64 / cycles as f64);
                println!(
                    "  {li:>6} {:>7}->{:<7} {flits:>10} {rate:>12.4}",
                    l.src.0, l.dst.0
                );
            }
            outcome
        }
    }
}

/// The progress table: one line per sample, with the delivered-flit rate
/// over the interval since the previous sample.
fn progress_report(samples: &[Sample]) -> Vec<String> {
    let mut out = vec![format!(
        "{:>10} {:>10} {:>10} {:>12} {:>12}",
        "cycle", "live", "queued", "delivered", "flits/cycle"
    )];
    let mut prev: Option<&Sample> = None;
    for s in samples {
        let rate = prev.map_or(0.0, |p| {
            (s.delivered_flits - p.delivered_flits) as f64 / (s.cycle - p.cycle) as f64
        });
        out.push(format!(
            "{:>10} {:>10} {:>10} {:>12} {:>12.3}",
            s.cycle, s.live, s.queued, s.delivered_packets, rate
        ));
        prev = Some(s);
    }
    out
}

/// The `k` links that carried the most flits, as `(link, flits)`:
/// busiest first, ties by ascending link id, idle links left out.
fn busiest_links(link_flits: &[u64], k: usize) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = link_flits
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f > 0)
        .map(|(i, &f)| (i as u32, f))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

fn main() {
    let usage = |e: String| -> ! { die(2, format!("{e}\n(hetero-sim --help lists every flag)")) };
    let mut args = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(e));
    let geom = args.job.geom;
    check_geometry(args.job.kind, geom).unwrap_or_else(|e| die(2, flag_error(&e)));
    args.job.workload = match (args.value("--workload"), args.value("--workload-trace")) {
        (Some(spec), _) => Some(
            PhaseGraph::parse_workload(spec, geom.nodes())
                .unwrap_or_else(|e| die(2, format!("--workload: {e}"))),
        ),
        (None, Some(path)) => Some(
            PhaseGraph::load(path)
                .unwrap_or_else(|e| die(1, format!("cannot load phase trace {path}: {e}"))),
        ),
        (None, None) => None,
    };
    // A phase workload injects from its graph, not at a rate.
    args.job.rates = match (&args.job.workload, args.has("--sweep")) {
        (Some(_), _) => Vec::new(),
        (None, true) => default_rate_ladder(),
        (None, false) => vec![args.rate],
    };
    let job = &args.job;
    job.validate().unwrap_or_else(|e| die(2, flag_error(&e)));
    if args.has("--calibrate") {
        // --calibrate runs every preset on the geometry.
        for kind in hetero_if::golden::ALL_KINDS {
            kind.check_geometry(geom).unwrap_or_else(|e| die(2, e));
        }
    }
    let mut config = job.config();
    if let Some(n) = args.shard_threads {
        config = config.with_shard_threads(n);
    }
    let (requested, chiplets) = (config.resolved_shard_threads(), geom.chiplets() as usize);
    if requested > chiplets {
        eprintln!(
            "warning: {requested} shard threads requested but the {chiplets}-chiplet \
             topology only yields {chiplets} shards; extra threads will not be spawned"
        );
    }
    if args.ber > 0.0 {
        config = config.with_ber(args.ber);
    }
    if args.has("--retry") {
        config = config.with_retry();
    }
    let fault_script = args.value("--fault-script").map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(1, format!("cannot read fault script {path}: {e}")));
        FaultScript::parse(&text).unwrap_or_else(|e| die(1, e))
    });
    check_flags(&args).unwrap_or_else(|e| usage(e));
    match args.mode() {
        CALIBRATE => run_calibration(&args, config),
        ESTIMATE | ESTIMATE_CYCLE => run_estimate(&args, config),
        _ => {}
    }
    // The header names the traffic settings this mode reads.
    let reads = |name: &str| {
        FLAGS
            .iter()
            .any(|f| f.name == name && f.modes & args.mode() != 0)
    };
    let mut header = system(job, reads("--pattern"));
    if reads("--rate") {
        header += &format!(" at {} flits/cycle/node", args.rate);
    }
    println!("{header}, {} policy\n", job.profile.name);
    if args.has("--sweep") {
        run_sweep(&args, config);
    } else if let Some(dir) = args.value("--cache-dir") {
        let graph = job.workload.as_ref();
        let desc = match graph {
            Some(graph) => job.workload_desc(graph),
            None => job.point_desc(args.rate),
        };
        run_cached(&PointDesc { config, ..desc }, graph, dir);
    } else {
        run_live(&args, config, fault_script);
    }
}

/// The system a run header describes: preset, geometry and, when
/// `pattern`, the synthetic traffic pattern.
fn system(job: &JobSpec, pattern: bool) -> String {
    let (g, kind) = (job.geom, job.kind);
    let (chiplets, w, h, nodes) = (g.chiplets(), g.chip_w(), g.chip_h(), g.nodes());
    let system = format!("{kind} — {chiplets} chiplets x ({w}x{h}) = {nodes} nodes");
    match pattern {
        true => format!("{system}, {} traffic", job.pattern),
        false => system,
    }
}

/// A curve table's status column.
fn status(saturated: bool) -> &'static str {
    if saturated {
        "saturated"
    } else {
        "ok"
    }
}

/// `--sweep`: every point runs under the CLI's config (its `--ber`,
/// `--retry` and `--shard-threads`) through the sweep service, in memory
/// or on the `--cache-dir` store.
fn run_sweep(args: &Args, config: SimConfig) {
    let service = open_service(args.value("--cache-dir"), args.threads);
    let mut served = ServiceStats::default();
    let (points, _) = service.sweep(&args.job, config, &mut served);
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "rate", "latency(cy)", "throughput", "status"
    );
    for (p, _) in &points {
        let (r, status) = (&p.results, status(p.results.is_saturated()));
        println!(
            "{:>8.3} {:>12.1} {:>12.4} {status:>10}",
            p.rate, r.avg_latency, r.throughput
        );
    }
    if args.job.warm_start {
        println!(
            "\nwarm-start: {} warm-up cycles saved \
             (one {}-cycle warm-up shared by every point)",
            served.warm_cycles_saved, args.job.spec.warmup
        );
    }
    if let Some(dir) = args.value("--cache-dir") {
        println!(
            "\ncache: {} of {} points simulated and stored, {} served from {dir}",
            served.computed,
            served.points,
            served.hits()
        );
    }
}

/// The traffic of a live run.
enum Live {
    Synthetic(SyntheticWorkload),
    Replay(TraceWorkload),
    Phase(PhaseGraph),
}

/// A single live run — `--replay`, a phase workload or synthetic traffic:
/// builds the network, arms the fault script and observability, runs it,
/// prints the outcome and the traffic's own report, and exports.
fn run_live(args: &Args, config: SimConfig, fault_script: Option<FaultScript>) {
    let job = &args.job;
    let mut live = if let Some(path) = args.value("--replay") {
        let trace = TraceWorkload::load(path)
            .unwrap_or_else(|e| die(1, format!("cannot load trace {path}: {e}")));
        let nodes = job.geom.nodes();
        trace
            .check_nodes(nodes)
            .unwrap_or_else(|e| die(2, format!("trace {path}: {e}")));
        println!(
            "replaying {} events from {path} (horizon {} cycles)",
            trace.len(),
            trace.horizon()
        );
        Live::Replay(trace)
    } else if let Some(graph) = &job.workload {
        println!(
            "phase workload: {} phases, fingerprint {}",
            graph.phases().len(),
            &graph.fingerprint()[..16],
        );
        Live::Phase(graph.clone())
    } else {
        let nodes: Vec<NodeId> = (0..job.geom.nodes()).map(NodeId).collect();
        Live::Synthetic(SyntheticWorkload::new(
            nodes,
            job.pattern,
            args.rate,
            job.packet_len,
            job.seed,
        ))
    };
    let mut net = job.kind.build(job.geom, config, job.profile);
    if let Some(script) = fault_script {
        net.set_fault_script(script);
    }
    enable_observability(&mut net, args);
    // Replayed and phase traffic runs until it is all offered.
    let offered = job.spec.with_drain_offers();
    let outcome = match &mut live {
        Live::Synthetic(w) => {
            if let Some(path) = args.value("--checkpoint-in") {
                read_checkpoint(path, &mut net, w);
            }
            match args.value("--checkpoint-out") {
                Some(path) => run_checkpointed(&mut net, w, job.spec, path, args.checkpoint_every),
                None => run_with_probes(&mut net, w, job.spec, args.probe),
            }
        }
        Live::Replay(w) => run_with_probes(&mut net, w, offered, args.probe),
        Live::Phase(graph) => run_with_probes(&mut net, graph, offered, args.probe),
    };
    print_outcome(&outcome);
    match &live {
        Live::Synthetic(_) => {}
        Live::Replay(_) => {
            if !outcome.drained && !outcome.deadlocked {
                println!("NOTE: the trace did not finish within the configured cycles");
            }
        }
        Live::Phase(graph) => print_phases(&net, graph, args.value("--capture-trace")),
    }
    export_observability(&net, args);
}

/// A phase workload's report: per-phase attribution, then the optional
/// `--capture-trace` of the timed graph for bit-identical replay.
fn print_phases(net: &Network, graph: &PhaseGraph, capture: Option<&str>) {
    if !graph.all_complete() {
        println!("NOTE: the phase graph did not complete within the configured cycles");
    }
    let by_tag = &net.collector().by_tag;
    println!(
        "\n{:>4} {:>12} {:>9} {:>9} {:>12} {:>12}",
        "rel", "phase", "packets", "flits", "avg-lat(cy)", "energy(pJ)"
    );
    for (idx, p) in graph.phases().iter().enumerate() {
        let Some(t) = by_tag.get(idx + 1) else { break };
        let rel = graph.released_at(idx).map_or("-".into(), |c| c.to_string());
        let avg = t.latency_cycles as f64 / t.packets.max(1) as f64;
        let (name, packets, flits, energy) = (&p.name, t.packets, t.flits, t.energy_pj);
        println!("{rel:>4} {name:>12} {packets:>9} {flits:>9} {avg:>12.1} {energy:>12.0}");
    }
    if let Some(path) = capture {
        graph
            .save(path)
            .unwrap_or_else(|e| die(1, format!("cannot write phase trace {path}: {e}")));
        println!(
            "\ncaptured the phase trace ({} phases, fingerprint {}) to {path}",
            graph.phases().len(),
            &graph.fingerprint()[..16],
        );
    }
}

/// `--cache-dir`: serves the run through the sweep service over the
/// content-addressed result store shared with `hetero-serve`. A hit (by
/// any earlier process — server batch or CLI run) skips the simulation
/// entirely and reprints the stored results bit-identically; a miss
/// simulates and stores. `graph` is the phase workload `desc` keys, if any.
fn run_cached(desc: &PointDesc, graph: Option<&PhaseGraph>, dir: &str) {
    let service = open_service(Some(dir), 1);
    let t0 = std::time::Instant::now();
    let (point, source) = match graph {
        Some(graph) => service.phase_point(desc, graph),
        None => service.point(desc),
    };
    let secs = t0.elapsed().as_secs_f64();
    let key = &desc.key().hex()[..16];
    if source == "computed" {
        let what = graph.map_or("", |_| " the phase workload");
        println!("cache miss — simulated{what} in {secs:.3}s and stored as {key} ({dir})");
    } else {
        println!("cache hit ({source}) — served {key} in {secs:.3}s without simulating");
    }
    print_outcome(&point.to_outcome());
}

/// The sweep service over the store in `dir` (in memory without one),
/// fanning points out over `workers` threads.
fn open_service(dir: Option<&str>, workers: usize) -> SweepService {
    let store = dir.unwrap_or_default();
    SweepService::new(dir.map(Into::into), workers)
        .unwrap_or_else(|e| die(1, format!("cannot open cache store {store}: {e}")))
}

/// Builds the `--backend`-selected estimator tier. The cycle-accurate
/// tier micro-runs the engine per link class under the smoke schedule —
/// still orders of magnitude less work than simulating the full system.
fn build_estimator(cycle_tier: bool) -> Estimator {
    match cycle_tier {
        false => Estimator::analytical(),
        true => Estimator::cycle_accurate(RunSpec::smoke()),
    }
}

/// `--estimate`: walk the rate ladder (or the single `--rate`) through
/// the two-tier model and print a sweep-shaped table without ever
/// assembling the network.
fn run_estimate(args: &Args, config: SimConfig) -> ! {
    let job = &args.job;
    let mut est = build_estimator(args.cycle_tier);
    let req = EstimateRequest {
        kind: job.kind,
        geom: job.geom,
        config,
        profile: job.profile,
        pattern: job.pattern,
    };
    let t0 = std::time::Instant::now();
    let curve = est.estimate_sweep(&req, &job.rates);
    let secs = t0.elapsed().as_secs_f64();
    let (policy, classes, links) = (job.profile.name, curve.link_classes, curve.links);
    println!(
        "{}, {policy} policy\nestimated by the {} tier in {secs:.3}s: \
         {classes} link classes over {links} links\n",
        system(job, true),
        curve.backend
    );
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>10}",
        "rate", "latency(cy)", "throughput", "max-util", "status"
    );
    for p in &curve.points {
        let (rate, latency, util) = (p.rate, p.avg_latency, p.max_utilization);
        let (throughput, status) = (p.throughput, status(p.saturated));
        println!("{rate:>8.3} {latency:>12.1} {throughput:>12.4} {util:>9.3} {status:>10}");
    }
    println!(
        "\npredicted saturation {:.3} flits/cycle/node",
        curve.predicted_saturation_rate
    );
    if let Some(path) = args.value("--report") {
        write_file(path, curve.csv());
        println!("wrote {} estimated points to {path}", curve.points.len());
    }
    std::process::exit(0);
}

/// `--calibrate`: golden engine sweeps vs the analytical tier over every
/// paper preset on this geometry, printing the per-preset error table
/// and exiting non-zero when any preset misses its documented bound.
fn run_calibration(args: &Args, config: SimConfig) -> ! {
    let job = &args.job;
    let mut est = build_estimator(args.cycle_tier);
    let report = hetero_estimate::calibrate(
        &mut est,
        job.geom,
        config,
        job.profile,
        job.pattern,
        &default_rate_ladder(),
        job.spec,
        args.threads,
    );
    print!("{}", report.render_table());
    if let Some(path) = args.value("--report") {
        write_file(path, report.to_json());
        println!("wrote the calibration report to {path}");
    }
    std::process::exit(if report.pass { 0 } else { 1 });
}

/// Runs the schedule, halting at the configured snapshot cycles to write
/// checkpoint files, then running the rest (drain included) to the end.
/// With `every == None` a single snapshot is taken at the warm-up
/// boundary and written to `path`; with `Some(n)` a snapshot is taken
/// every `n` cycles up to the end of the measurement window, each written
/// to `path.<cycle>`. A periodic run resumed from a checkpoint skips the
/// snapshot at the restore cycle: it would be a byte copy of the blob
/// the run just read.
fn run_checkpointed(
    net: &mut Network,
    w: &mut SyntheticWorkload,
    spec: RunSpec,
    path: &str,
    every: Option<Cycle>,
) -> RunOutcome {
    let window_end = spec.warmup + spec.measure;
    let halts: Vec<(Cycle, String)> = match every {
        None => vec![(spec.warmup, path.to_string())],
        Some(n) => (1..)
            .map(|k| k * n)
            .take_while(|&h| h < window_end)
            .map(|h| (h, format!("{path}.{h}")))
            .collect(),
    };
    let from = net.now();
    for (halt, file) in halts {
        if halt < from || (every.is_some() && halt == from) {
            continue;
        }
        match run_until(net, w, spec, halt) {
            None => write_checkpoint(&file, net, w),
            Some(outcome) => return outcome, // stalled before the snapshot
        }
    }
    run(net, w, spec)
}

/// CLI checkpoint file layout: `u64-LE engine-blob length | engine blob
/// ([`Network::checkpoint`]) | workload blob` (the synthetic workload's
/// RNG stream position — which is why checkpointing is synthetic-only).
fn write_checkpoint(path: &str, net: &Network, w: &SyntheticWorkload) {
    let engine = net.checkpoint();
    let mut wl = ByteWriter::new();
    w.save_state(&mut wl);
    let wl = wl.into_bytes();
    let mut out = Vec::with_capacity(8 + engine.len() + wl.len());
    out.extend_from_slice(&(engine.len() as u64).to_le_bytes());
    out.extend_from_slice(&engine);
    out.extend_from_slice(&wl);
    write_file(path, &out);
    let (now, bytes) = (net.now(), out.len());
    println!("wrote checkpoint at cycle {now} ({bytes} bytes) to {path}");
}

/// Restores a [`write_checkpoint`] file into a freshly built network and
/// workload. The network must be built from the same configuration and
/// topology as the saving run ([`Network::restore`] verifies this);
/// `--shard-threads` is free to differ.
fn read_checkpoint(path: &str, net: &mut Network, w: &mut SyntheticWorkload) {
    let die = |msg: String| -> ! { die(1, format!("cannot restore checkpoint {path}: {msg}")) };
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(e.to_string()));
    if bytes.len() < 8 {
        die("file too short for the length header".to_string());
    }
    let len = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte slice")) as usize;
    if bytes.len() - 8 < len {
        die("engine blob truncated".to_string());
    }
    net.restore(&bytes[8..8 + len])
        .unwrap_or_else(|e| die(e.to_string()));
    let mut r = ByteReader::new(&bytes[8 + len..]);
    w.load_state(&mut r).unwrap_or_else(|e| die(e.to_string()));
    println!("restored checkpoint at cycle {} from {path}", net.now());
}

/// Trace ring capacity for CLI runs: large enough for tens of thousands
/// of cycles of filtered events; oldest events are evicted past this
/// (the export reports how many).
const TRACE_RING_CAP: usize = 1 << 20;

/// Arms the metrics registry and/or trace ring per the `--metrics` /
/// `--trace` flags, before the run starts.
fn enable_observability(net: &mut Network, args: &Args) {
    if args.has("--metrics") {
        net.enable_metrics();
    }
    if args.has("--trace") {
        net.enable_trace(TRACE_RING_CAP, args.trace_filter);
    }
}

/// Writes the post-run metrics snapshot and trace ring to the paths given
/// by `--metrics` / `--trace`, picking the format from the extension.
fn export_observability(net: &Network, args: &Args) {
    if let Some(path) = args.value("--metrics") {
        let snap = net.metrics_snapshot();
        let mut buf = Vec::new();
        let res = if path.ends_with(".jsonl") {
            snap.to_jsonl(&mut buf)
        } else {
            snap.to_prometheus(&mut buf)
        };
        res.expect("writing to a Vec cannot fail");
        write_file(path, buf);
        println!("wrote {} metrics to {path}", snap.entries().len());
    }
    if let Some(path) = args.value("--trace") {
        let ring = net.trace().expect("tracing was enabled before the run");
        let mut buf = Vec::new();
        let res = if path.ends_with(".json") {
            ring.to_chrome_trace(&mut buf)
        } else {
            ring.to_jsonl(&mut buf)
        };
        res.expect("writing to a Vec cannot fail");
        write_file(path, buf);
        let evicted = match ring.dropped() {
            0 => String::new(),
            n => format!(" ({n} older events evicted)"),
        };
        println!("wrote {} trace events to {path}{evicted}", ring.len());
    }
}

/// Writes `bytes` to `path`, exiting 1 if it cannot.
fn write_file(path: &str, bytes: impl AsRef<[u8]>) {
    std::fs::write(path, bytes).unwrap_or_else(|e| die(1, format!("cannot write {path}: {e}")));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        parse(line.split_whitespace().map(String::from)).expect("parses")
    }

    #[test]
    fn flag_table_is_consistent() {
        let names: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        let help = help();
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(!names[..i].contains(&f.name), "{} is listed twice", f.name);
            assert!(f.modes != 0 && f.modes & !ALL == 0, "{}: modes", f.name);
            let (name, switch) = (f.name, f.meta.is_empty());
            assert!(
                !switch || f.default.is_empty(),
                "{name}: a switch has no default"
            );
            for other in [f.needs, f.excludes] {
                assert!(
                    other.is_empty() || names.contains(&other),
                    "{name}: {other}"
                );
            }
            let heading = |l: &str| l.trim_start().split(' ').next() == Some(name);
            assert!(help.lines().any(heading), "--help lists {name}");
        }
        // The mode-picking flags are read by the modes they pick.
        let picks = [
            ("--calibrate", CALIBRATE),
            ("--estimate", ESTIMATE),
            ("--sweep", SWEEP),
        ];
        for (flag, mode) in picks {
            assert_eq!(args(flag).mode(), mode);
            assert!(check_flags(&args(flag)).is_ok(), "{flag}");
        }
    }

    #[test]
    fn each_flag_the_mode_does_not_read_is_rejected() {
        let a = args("--estimate --backend cycle --ber 1e-3");
        assert_eq!(a.mode(), ESTIMATE_CYCLE);
        assert!(check_flags(&a).is_ok());
        let e = check_flags(&args("--estimate --ber 1e-3")).unwrap_err();
        assert!(
            e.starts_with("--ber is read by") && e.ends_with("not by --estimate"),
            "{e}"
        );
        // Every clash is reported, one line each.
        let e = check_flags(&args("--sweep --cache-dir d --probe links")).unwrap_err();
        assert_eq!(e.lines().count(), 2, "{e}");
        assert!(e.contains("--sweep") && e.contains("--cache-dir"), "{e}");
        assert!(check_flags(&args("--trace-filter flit")).is_err());
        assert!(check_flags(&args("--trace t.json --trace-filter flit")).is_ok());
        assert!(check_flags(&args("--workload dnn: --workload-trace t")).is_err());
    }

    #[test]
    fn values_parse_through_the_table() {
        let a = args("--rate 0.2 --chip 3x2 --rate 0.3 --chiplets 2X4 --cycles 50");
        assert_eq!(a.rate, 0.3, "the last value wins");
        assert_eq!(a.given.len(), 4);
        assert_eq!(a.job.geom, Geometry::new(2, 4, 3, 2));
        assert_eq!(
            (a.job.spec.warmup, a.job.spec.measure, a.job.spec.drain),
            (100, 50, 25)
        );
        let half = args("--half --network hetero-channel");
        assert_eq!(half.job.kind, NetworkKind::HeteroChannelHalf);
        for bad in [
            "--rate",
            "--threads 0",
            "--chip 0x2",
            "--ber 1",
            "--probe all",
            "--nope",
        ] {
            let parsed = parse(bad.split_whitespace().map(String::from));
            assert!(parsed.is_err(), "{bad}");
        }
        let e = parse(
            ["--network", "serial-torus", "--half"]
                .map(String::from)
                .into_iter(),
        );
        assert_eq!(e.unwrap_err(), "--half: serial-torus has no halved variant");
    }

    #[test]
    fn validation_errors_name_the_flags_that_set_the_field() {
        let e = |msg: &str| flag_error(&ApiError(msg.into()));
        assert_eq!(
            e("geom [1, 1, 1, 1]: too small"),
            "--chiplets/--chip: geom [1, 1, 1, 1]: too small"
        );
        assert_eq!(
            e("workload: bad"),
            "--workload/--workload-trace: workload: bad"
        );
        assert_eq!(e("scales must not be empty"), "scales must not be empty");
    }

    #[test]
    fn busiest_links_ranks_by_flits_then_link_id() {
        let flits = [5, 0, 9, 5, 0, 1, 9];
        // Busiest first; equal counts in ascending link id; idle links
        // never appear.
        assert_eq!(
            busiest_links(&flits, 10),
            vec![(2, 9), (6, 9), (0, 5), (3, 5), (5, 1)]
        );
        // Truncated to k.
        assert_eq!(busiest_links(&flits, 3), vec![(2, 9), (6, 9), (0, 5)]);
        assert!(busiest_links(&[0, 0], 4).is_empty());
        assert!(busiest_links(&flits, 0).is_empty());
    }

    #[test]
    fn progress_report_rates_each_interval() {
        let samples: Vec<Sample> = (0..4)
            .map(|i| Sample {
                cycle: i * 10,
                delivered_flits: i * 20,
                ..Sample::default()
            })
            .collect();
        let report = progress_report(&samples);
        assert_eq!(report.len(), 5); // header + 4 rows
        assert!(report[1].trim_end().ends_with("0.000"));
        // Steady 2 flits/cycle shows up in every later interval.
        assert!(report[2..].iter().all(|l| l.trim_end().ends_with("2.000")));
    }
}
