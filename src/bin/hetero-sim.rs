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

use chiplet_topo::{Geometry, LinkId, NodeId};
use chiplet_traffic::{PhaseGraph, SyntheticWorkload, TraceWorkload, TrafficPattern, Workload};
use hetero_estimate::{EstimateRequest, Estimator};
use hetero_if::cache::PointDesc;
use hetero_if::presets::NetworkKind;
use hetero_if::sim::{run, run_timeline, run_until, RunOutcome, RunSpec, Sample};
use hetero_if::sweep::{default_rate_ladder, latency_sweep, latency_sweep_warm_start, SweepPoint};
use hetero_if::{Network, SchedulingProfile, SimConfig, SimResults};
use hetero_serve::api::{ApiError, Backend, JobSpec};
use hetero_serve::service::SweepService;
use simkit::codec::{ByteReader, ByteWriter, LoadState, SaveState};
use simkit::{Cycle, TraceFilter};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeKind {
    None,
    Progress,
    Links,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EstBackend {
    Analytical,
    Cycle,
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
    sweep: bool,
    capture_trace: Option<String>,
    replay: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
    trace_filter: TraceFilter,
    threads: usize,
    shard_threads: Option<usize>,
    probe: ProbeKind,
    ber: f64,
    retry: bool,
    fault_script: Option<String>,
    checkpoint_out: Option<String>,
    checkpoint_in: Option<String>,
    checkpoint_every: Option<Cycle>,
    estimate: bool,
    backend: EstBackend,
    calibrate: bool,
    report: Option<String>,
    cache_dir: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: hetero-sim [options]\n\
         --network    parallel-mesh | serial-torus | hetero-phy |\n\
         \u{20}            serial-hypercube | hetero-channel   (default hetero-phy)\n\
         --chiplets   CxC chiplet grid                     (default 4x4)\n\
         --chip       WxH nodes per chiplet                (default 4x4)\n\
         --pattern    uniform | uniform-hotspot | bit-shuffle |\n\
         \u{20}            bit-complement | bit-transpose | bit-reverse\n\
         \u{20}            (hotspot = uniform-hotspot;          default uniform)\n\
         --rate       flits/cycle/node                     (default 0.1)\n\
         --cycles     measurement cycles                   (default 20000)\n\
         --packet     flits per packet                     (default 16)\n\
         --policy     performance-first | balanced | energy-efficient |\n\
         \u{20}            application-aware                     (default balanced)\n\
         --half       pin-constrained (halved) hetero interfaces\n\
         --seed       RNG seed                             (default 1)\n\
         --sweep      sweep injection rates up to saturation instead of one run\n\
         --workload dnn:SPEC  drive a dependency-released phase workload\n\
         \u{20}            instead of synthetic traffic: the chiplet-mapped DNN\n\
         \u{20}            training step. SPEC is key=value pairs (layers, fwd,\n\
         \u{20}            grad, allreduce=ring|tree, compute, ranks), e.g.\n\
         \u{20}            dnn:layers=4,allreduce=ring. Phases release only\n\
         \u{20}            after their dependencies' packets have all ejected\n\
         --workload-trace FILE  replay a captured phase trace (the versioned\n\
         \u{20}            #hetero-phase-trace format) bit-identically\n\
         --capture-trace FILE  after a --workload/--workload-trace run,\n\
         \u{20}            write the phase trace (with observed release\n\
         \u{20}            cycles as comments) to FILE for later replay\n\
         --threads N  worker threads for --sweep           (default 1;\n\
         \u{20}            results are bit-identical for any N)\n\
         --shard-threads N  shard the cycle loop of a single run across\n\
         \u{20}            N worker threads (0 = auto from the core count;\n\
         \u{20}            default $HETERO_SIM_THREADS or 1; results are\n\
         \u{20}            bit-identical for any N)\n\
         --probe      progress | links | none              (default none)\n\
         \u{20}            progress: periodic live/queued/delivered snapshots\n\
         \u{20}            links: per-link flit counts and utilization\n\
         --replay FILE  replay a CSV trace (cycle,src,dst,len,class,priority)\n\
         \u{20}            instead of synthetic traffic\n\
         --metrics FILE write the metrics snapshot after the run\n\
         \u{20}            (.jsonl -> JSON lines, anything else -> Prometheus text)\n\
         --trace FILE   record cycle-attributed trace events to FILE\n\
         \u{20}            (.json -> Chrome trace_event JSON for Perfetto/\n\
         \u{20}            chrome://tracing, anything else -> JSON lines)\n\
         --trace-filter K  which event kinds to record (default all):\n\
         \u{20}            all | flit | phy | link | fault | barrier | phase,\n\
         \u{20}            or kind names (inject, eject, hop, ...), comma-joined\n\
         --ber B      serial-wire bit error rate (parallel wires scale\n\
         \u{20}            along at the Table-1 family ratio); arms the\n\
         \u{20}            CRC/replay retry link layer          (default 0)\n\
         --retry      arm the retry link layer even at BER 0 (protocol\n\
         \u{20}            overhead in isolation)\n\
         --fault-script FILE  scripted hard faults (cycle + phy-down/\n\
         \u{20}            link-down/burst/degrade lines; see chiplet-fault docs)\n\
         --checkpoint-out FILE  snapshot the run at the warm-up boundary\n\
         \u{20}            to FILE and continue (synthetic traffic only)\n\
         --checkpoint-every N  with --checkpoint-out: snapshot every N\n\
         \u{20}            cycles instead, each to FILE.<cycle>\n\
         --checkpoint-in FILE  restore FILE into the (identically\n\
         \u{20}            configured) network and resume mid-schedule;\n\
         \u{20}            --shard-threads may differ from the saving run\n\
         --warm-start  with --sweep: pay the warm-up once, checkpoint it\n\
         \u{20}            and start every point from the warm state\n\
         \u{20}            (approximate; reports warm-up cycles saved)\n\
         --estimate   estimate instead of simulating: the two-tier model\n\
         \u{20}            walks the sweep ladder (or the single --rate)\n\
         \u{20}            without building the network\n\
         --backend    analytical | cycle      (--estimate tier; default\n\
         \u{20}            analytical: closed-form Eq. 2-5 + M/D/1; cycle:\n\
         \u{20}            engine micro-runs per link class)\n\
         --calibrate  run the calibration gate on this geometry: golden\n\
         \u{20}            engine sweeps vs the analytical tier over every\n\
         \u{20}            preset; exits non-zero if any preset misses its\n\
         \u{20}            documented error bound\n\
         --report FILE  with --estimate: write the curve CSV to FILE;\n\
         \u{20}            with --calibrate: write the JSON report to FILE\n\
         --cache-dir DIR  read/write the content-addressed result store\n\
         \u{20}            shared with hetero-serve: a single synthetic or\n\
         \u{20}            phase-workload run whose configuration was computed\n\
         \u{20}            before (by any process) is served from the store\n\
         \u{20}            bit-identically instead of re-simulated; a miss\n\
         \u{20}            simulates and stores. Prints a cache hit/miss line.\n\
         \n\
         A run is checked before it starts, as hetero-serve checks a job:\n\
         a geometry the preset cannot build, a rate that is not positive\n\
         and finite, or a zero --packet exits 2 naming the flag."
    );
    std::process::exit(2);
}

fn parse_pair(s: &str) -> Option<(u16, u16)> {
    let (a, b) = s.split_once(['x', 'X'])?;
    Some((a.parse().ok()?, b.parse().ok()?)).filter(|&(a, b)| a > 0 && b > 0)
}

fn parse() -> Args {
    let mut network = NetworkKind::HeteroPhyFull;
    let (mut chiplets, mut chip) = ((4, 4), (4, 4));
    let mut cycles: u64 = 20_000;
    let mut half = false;
    let (mut workload, mut workload_trace): (Option<String>, Option<String>) = (None, None);
    let mut a = Args {
        job: JobSpec {
            kind: network,
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
        sweep: false,
        capture_trace: None,
        replay: None,
        metrics: None,
        trace: None,
        trace_filter: TraceFilter::all(),
        threads: 1,
        shard_threads: None,
        probe: ProbeKind::None,
        ber: 0.0,
        retry: false,
        fault_script: None,
        checkpoint_out: None,
        checkpoint_in: None,
        checkpoint_every: None,
        estimate: false,
        backend: EstBackend::Analytical,
        calibrate: false,
        report: None,
        cache_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--network" => {
                network = match val().as_str() {
                    "parallel-mesh" => NetworkKind::UniformParallelMesh,
                    "serial-torus" => NetworkKind::UniformSerialTorus,
                    "hetero-phy" => NetworkKind::HeteroPhyFull,
                    "serial-hypercube" => NetworkKind::UniformSerialHypercube,
                    "hetero-channel" => NetworkKind::HeteroChannelFull,
                    other => {
                        eprintln!("unknown network: {other}");
                        usage()
                    }
                }
            }
            "--chiplets" => chiplets = parse_pair(&val()).unwrap_or_else(|| usage()),
            "--chip" => chip = parse_pair(&val()).unwrap_or_else(|| usage()),
            "--pattern" => {
                let name = val();
                a.job.pattern = TrafficPattern::from_name(&name).unwrap_or_else(|| {
                    eprintln!("--pattern: unknown pattern {name}");
                    usage()
                });
            }
            "--rate" => a.rate = val().parse().unwrap_or_else(|_| usage()),
            "--cycles" => cycles = val().parse().unwrap_or_else(|_| usage()),
            "--packet" => a.job.packet_len = val().parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                let name = val();
                a.job.profile = SchedulingProfile::from_name(&name).unwrap_or_else(|| {
                    eprintln!("--policy: unknown policy {name}");
                    usage()
                });
            }
            "--half" => half = true,
            "--ber" => {
                a.ber = val().parse().unwrap_or_else(|_| usage());
                if !(0.0..1.0).contains(&a.ber) {
                    eprintln!("--ber must be in [0, 1)");
                    usage()
                }
            }
            "--retry" => a.retry = true,
            "--fault-script" => a.fault_script = Some(val()),
            "--seed" => a.job.seed = val().parse().unwrap_or_else(|_| usage()),
            "--sweep" => a.sweep = true,
            "--workload" => workload = Some(val()),
            "--workload-trace" => workload_trace = Some(val()),
            "--capture-trace" => a.capture_trace = Some(val()),
            "--replay" => a.replay = Some(val()),
            "--metrics" => a.metrics = Some(val()),
            "--trace" => a.trace = Some(val()),
            "--trace-filter" => {
                let spec = val();
                a.trace_filter = TraceFilter::parse(&spec).unwrap_or_else(|| {
                    eprintln!("unknown trace filter: {spec}");
                    usage()
                });
            }
            "--threads" => {
                a.threads = val().parse().unwrap_or_else(|_| usage());
                if a.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    usage()
                }
            }
            "--shard-threads" => {
                a.shard_threads = Some(val().parse().unwrap_or_else(|_| usage()));
            }
            "--probe" => {
                a.probe = match val().as_str() {
                    "none" => ProbeKind::None,
                    "progress" => ProbeKind::Progress,
                    "links" => ProbeKind::Links,
                    other => {
                        eprintln!("unknown probe: {other}");
                        usage()
                    }
                }
            }
            "--checkpoint-out" => a.checkpoint_out = Some(val()),
            "--checkpoint-in" => a.checkpoint_in = Some(val()),
            "--checkpoint-every" => {
                a.checkpoint_every = Some(val().parse().unwrap_or_else(|_| usage()));
                if a.checkpoint_every == Some(0) {
                    eprintln!("--checkpoint-every must be at least 1");
                    usage()
                }
            }
            "--warm-start" => a.job.warm_start = true,
            "--estimate" => a.estimate = true,
            "--backend" => {
                a.backend = match val().as_str() {
                    "analytical" => EstBackend::Analytical,
                    "cycle" => EstBackend::Cycle,
                    other => {
                        eprintln!("unknown backend: {other}");
                        usage()
                    }
                }
            }
            "--calibrate" => a.calibrate = true,
            "--report" => a.report = Some(val()),
            "--cache-dir" => a.cache_dir = Some(val()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    a.job.kind = match (half, network) {
        (true, NetworkKind::HeteroPhyFull) => NetworkKind::HeteroPhyHalf,
        (true, NetworkKind::HeteroChannelFull) => NetworkKind::HeteroChannelHalf,
        (_, other) => other,
    };
    a.job.geom = Geometry::new(chiplets.0, chiplets.1, chip.0, chip.1);
    a.job.spec = RunSpec {
        warmup: (cycles / 10).max(100),
        measure: cycles,
        drain: cycles / 2,
        watchdog: 5_000,
        drain_offers: false,
    };
    let nodes = a.job.geom.nodes();
    a.job.workload = match (workload, workload_trace) {
        (Some(_), Some(_)) => {
            eprintln!("--workload and --workload-trace are mutually exclusive");
            std::process::exit(2);
        }
        (Some(text), None) => Some(
            PhaseGraph::parse_workload(&text, nodes).unwrap_or_else(|e| {
                eprintln!("--workload: {e}");
                std::process::exit(2);
            }),
        ),
        (None, Some(path)) => Some(PhaseGraph::load(&path).unwrap_or_else(|e| {
            eprintln!("cannot load phase trace {path}: {e}");
            std::process::exit(1);
        })),
        (None, None) => None,
    };
    // A phase workload injects from its graph, not at a rate.
    a.job.rates = if a.job.workload.is_some() {
        Vec::new()
    } else if a.sweep {
        default_rate_ladder()
    } else {
        vec![a.rate]
    };
    a
}

/// A [`JobSpec::validate`] error, led by the flag that sets the field
/// the message starts with.
fn flag_error(e: &ApiError) -> String {
    const FLAGS: [(&str, &str); 5] = [
        ("rates", "--rate"),
        ("packet_len", "--packet"),
        ("geom", "--chiplets/--chip"),
        ("workload", "--workload/--workload-trace"),
        ("warm_start", "--warm-start"),
    ];
    match FLAGS.iter().find(|(field, _)| e.0.starts_with(field)) {
        Some((_, flag)) => format!("{flag}: {e}"),
        None => e.to_string(),
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
    println!(
        "baseline-locked     {:.2}% of packets",
        r.locked_fraction * 100.0
    );
    if r.is_saturated() {
        println!(
            "NOTE: the network is saturated at this rate (backlog {})",
            r.backlog
        );
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
    probe: ProbeKind,
) -> RunOutcome {
    match probe {
        ProbeKind::None => run(net, w, spec),
        ProbeKind::Progress => {
            let total = spec.warmup + spec.measure + spec.drain;
            let (outcome, samples) = run_timeline(net, w, spec, (total / 20).max(1));
            println!("\nprogress timeline:");
            for line in progress_report(&samples) {
                println!("  {line}");
            }
            outcome
        }
        ProbeKind::Links => {
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
                let l = topo.link(LinkId(li));
                println!(
                    "  {:>6} {:>7}->{:<7} {:>10} {:>12.4}",
                    li,
                    l.src.0,
                    l.dst.0,
                    flits,
                    flits as f64 / cycles as f64
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
    let args = parse();
    let job = &args.job;
    let geom = job.geom;
    if let Err(e) = job.validate() {
        eprintln!("{}", flag_error(&e));
        std::process::exit(2);
    }
    if args.calibrate {
        // --calibrate runs every preset on the geometry.
        for kind in hetero_if::golden::ALL_KINDS {
            if let Err(e) = kind.check_geometry(geom) {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let mut config = job.config();
    if let Some(n) = args.shard_threads {
        config = config.with_shard_threads(n);
    }
    {
        let requested = config.resolved_shard_threads();
        let chiplets = geom.chiplets() as usize;
        if requested > chiplets {
            eprintln!(
                "warning: {requested} shard threads requested but the {chiplets}-chiplet \
                 topology only yields {chiplets} shards; extra threads will not be spawned"
            );
        }
    }
    if args.ber > 0.0 {
        config = config.with_ber(args.ber);
    }
    if args.retry {
        config = config.with_retry();
    }
    let fault_script = args.fault_script.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read fault script {path}: {e}");
            std::process::exit(1);
        });
        hetero_if::FaultScript::parse(&text).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        })
    });
    if args.sweep && fault_script.is_some() {
        eprintln!("--fault-script applies to single runs, not --sweep");
        std::process::exit(2);
    }
    if args.sweep && (args.metrics.is_some() || args.trace.is_some()) {
        eprintln!("--metrics/--trace apply to single runs, not --sweep");
        std::process::exit(2);
    }
    if (args.checkpoint_out.is_some() || args.checkpoint_in.is_some())
        && (args.sweep || args.replay.is_some())
    {
        eprintln!("--checkpoint-out/--checkpoint-in apply to single synthetic runs");
        std::process::exit(2);
    }
    if args.checkpoint_every.is_some() && args.checkpoint_out.is_none() {
        eprintln!("--checkpoint-every requires --checkpoint-out");
        std::process::exit(2);
    }
    if args.checkpoint_out.is_some() && args.probe != ProbeKind::None {
        eprintln!("--checkpoint-out segments the run; probes are not supported alongside it");
        std::process::exit(2);
    }
    if job.warm_start && !args.sweep {
        eprintln!("--warm-start requires --sweep");
        std::process::exit(2);
    }
    let has_phase_workload = job.workload.is_some();
    if has_phase_workload
        && (args.sweep
            || args.replay.is_some()
            || args.estimate
            || args.calibrate
            || args.checkpoint_out.is_some()
            || args.checkpoint_in.is_some())
    {
        // Phase workloads are single closed-loop runs; metrics, traces,
        // probes, fault scripts and --cache-dir all compose with them.
        eprintln!("--workload/--workload-trace drive a single run");
        std::process::exit(2);
    }
    if args.capture_trace.is_some() && !has_phase_workload {
        eprintln!("--capture-trace requires --workload or --workload-trace");
        std::process::exit(2);
    }
    if args.capture_trace.is_some() && args.cache_dir.is_some() {
        eprintln!("--capture-trace needs a live run; a cache hit never simulates");
        std::process::exit(2);
    }
    if args.estimate
        && (args.replay.is_some()
            || args.metrics.is_some()
            || args.trace.is_some()
            || args.checkpoint_out.is_some()
            || args.checkpoint_in.is_some()
            || job.warm_start
            || args.probe != ProbeKind::None)
    {
        eprintln!("--estimate computes a model, not a run; engine-only flags do not apply");
        std::process::exit(2);
    }
    if args.report.is_some() && !(args.estimate || args.calibrate) {
        eprintln!("--report requires --estimate or --calibrate");
        std::process::exit(2);
    }
    if args.cache_dir.is_some()
        && (args.sweep
            || args.replay.is_some()
            || args.estimate
            || args.calibrate
            || fault_script.is_some()
            || args.checkpoint_out.is_some()
            || args.checkpoint_in.is_some()
            || args.metrics.is_some()
            || args.trace.is_some()
            || args.probe != ProbeKind::None)
    {
        // The cache serves finished results: a hit never builds the
        // network, so flags that observe or steer the live run (and
        // fault scripts, which are not part of the cache key) cannot
        // combine with it.
        eprintln!("--cache-dir applies to plain single synthetic or phase-workload runs");
        std::process::exit(2);
    }
    let spec = job.spec;
    if args.calibrate {
        run_calibration(&args, config);
    }
    if args.estimate {
        run_estimate(&args, config);
    }
    println!(
        "{} — {} chiplets x ({}x{}) = {} nodes, {} traffic at {} flits/cycle/node, {} policy\n",
        job.kind,
        geom.chiplets(),
        geom.chip_w(),
        geom.chip_h(),
        geom.nodes(),
        job.pattern,
        args.rate,
        job.profile.name,
    );
    if args.sweep {
        let build = || job.kind.build(geom, config, job.profile);
        let (points, saved): (Vec<SweepPoint>, Cycle) = if job.warm_start {
            let warm = latency_sweep_warm_start(
                build,
                job.pattern,
                &job.rates,
                config.packet_len,
                spec,
                config.seed,
                args.threads,
            );
            (warm.points, warm.warmup_cycles_saved)
        } else {
            let points = latency_sweep(
                build,
                job.pattern,
                &job.rates,
                config.packet_len,
                spec,
                config.seed,
                args.threads,
            );
            (points, 0)
        };
        println!(
            "{:>8} {:>12} {:>12} {:>10}",
            "rate", "latency(cy)", "throughput", "status"
        );
        for p in &points {
            println!(
                "{:>8.3} {:>12.1} {:>12.4} {:>10}",
                p.rate,
                p.results.avg_latency,
                p.results.throughput,
                if p.results.is_saturated() {
                    "saturated"
                } else {
                    "ok"
                }
            );
        }
        if job.warm_start {
            println!(
                "\nwarm-start: {saved} warm-up cycles saved \
                 (one {}-cycle warm-up shared by every point)",
                spec.warmup
            );
        }
    } else if let Some(path) = &args.replay {
        let trace = match TraceWorkload::load(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot load trace {path}: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = trace.check_nodes(geom.nodes()) {
            eprintln!("trace {path}: {e}");
            std::process::exit(2);
        }
        println!(
            "replaying {} events from {path} (horizon {} cycles)",
            trace.len(),
            trace.horizon()
        );
        let mut net = job.kind.build(geom, config, job.profile);
        if let Some(script) = fault_script.clone() {
            net.set_fault_script(script);
        }
        enable_observability(&mut net, &args);
        let mut w: Box<dyn Workload> = Box::new(trace);
        let outcome = run_with_probes(&mut net, w.as_mut(), spec.with_drain_offers(), args.probe);
        print_outcome(&outcome);
        if !outcome.drained && !outcome.deadlocked {
            println!("NOTE: the trace did not finish within the configured cycles");
        }
        export_observability(&net, &args);
    } else if let Some(graph) = &job.workload {
        if let Some(dir) = &args.cache_dir {
            let desc = PointDesc {
                config,
                ..job.workload_desc(graph)
            };
            run_cached(&desc, Some(graph), dir);
        } else {
            run_phase_workload(&args, config, fault_script, graph.clone());
        }
    } else if let Some(dir) = &args.cache_dir {
        let desc = PointDesc {
            config,
            ..job.point_desc(args.rate)
        };
        run_cached(&desc, None, dir);
    } else {
        let mut net = job.kind.build(geom, config, job.profile);
        if let Some(script) = fault_script.clone() {
            net.set_fault_script(script);
        }
        enable_observability(&mut net, &args);
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        let mut w = SyntheticWorkload::new(nodes, job.pattern, args.rate, job.packet_len, job.seed);
        if let Some(path) = &args.checkpoint_in {
            read_checkpoint(path, &mut net, &mut w);
        }
        let outcome = if let Some(path) = &args.checkpoint_out {
            run_checkpointed(&mut net, &mut w, spec, path, args.checkpoint_every)
        } else {
            run_with_probes(&mut net, &mut w, spec, args.probe)
        };
        print_outcome(&outcome);
        export_observability(&net, &args);
    }
}

/// `--cache-dir`: serves the run through the sweep service over the
/// content-addressed result store shared with `hetero-serve`. A hit (by
/// any earlier process — server batch or CLI run) skips the simulation
/// entirely and reprints the stored results bit-identically; a miss
/// simulates and stores. `graph` is the phase workload `desc` keys, if any.
fn run_cached(desc: &PointDesc, graph: Option<&PhaseGraph>, dir: &str) {
    let service = SweepService::new(Some(dir.into()), 1).unwrap_or_else(|e| {
        eprintln!("cannot open cache store {dir}: {e}");
        std::process::exit(1);
    });
    let t0 = std::time::Instant::now();
    let (point, source) = match graph {
        Some(graph) => service.phase_point(desc, graph),
        None => service.point(desc),
    };
    let secs = t0.elapsed().as_secs_f64();
    let key = &desc.key().hex()[..16];
    if source == "computed" {
        let what = if graph.is_some() {
            " the phase workload"
        } else {
            ""
        };
        println!("cache miss — simulated{what} in {secs:.3}s and stored as {key} ({dir})");
    } else {
        println!("cache hit ({source}) — served {key} in {secs:.3}s without simulating");
    }
    print_outcome(&point.to_outcome());
}

/// `--workload`/`--workload-trace`: drive the dependency-released phase
/// graph through a single closed-loop run, print per-phase attribution,
/// and optionally capture the timed trace for bit-identical replay.
fn run_phase_workload(
    args: &Args,
    config: SimConfig,
    fault_script: Option<hetero_if::FaultScript>,
    mut graph: PhaseGraph,
) {
    println!(
        "phase workload: {} phases, fingerprint {}",
        graph.phases().len(),
        &graph.fingerprint()[..16],
    );
    let job = &args.job;
    let mut net = job.kind.build(job.geom, config, job.profile);
    if let Some(script) = fault_script {
        net.set_fault_script(script);
    }
    enable_observability(&mut net, args);
    let spec = job.spec.with_drain_offers();
    let outcome = run_with_probes(&mut net, &mut graph, spec, args.probe);
    print_outcome(&outcome);
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
        let rel = graph
            .released_at(idx)
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{rel:>4} {:>12} {:>9} {:>9} {:>12.1} {:>12.0}",
            p.name,
            t.packets,
            t.flits,
            if t.packets > 0 {
                t.latency_cycles as f64 / t.packets as f64
            } else {
                0.0
            },
            t.energy_pj,
        );
    }
    if let Some(path) = &args.capture_trace {
        graph.save(path).unwrap_or_else(|e| {
            eprintln!("cannot write phase trace {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "\ncaptured the phase trace ({} phases, fingerprint {}) to {path}",
            graph.phases().len(),
            &graph.fingerprint()[..16],
        );
    }
    export_observability(&net, args);
}

/// Builds the `--backend`-selected estimator tier. The cycle-accurate
/// tier micro-runs the engine per link class under the smoke schedule —
/// still orders of magnitude less work than simulating the full system.
fn build_estimator(backend: EstBackend) -> Estimator {
    match backend {
        EstBackend::Analytical => Estimator::analytical(),
        EstBackend::Cycle => Estimator::cycle_accurate(RunSpec::smoke()),
    }
}

/// `--estimate`: walk the rate ladder (or the single `--rate`) through
/// the two-tier model and print a sweep-shaped table without ever
/// assembling the network.
fn run_estimate(args: &Args, config: SimConfig) -> ! {
    let job = &args.job;
    let geom = job.geom;
    let mut est = build_estimator(args.backend);
    let req = EstimateRequest {
        kind: job.kind,
        geom,
        config,
        profile: job.profile,
        pattern: job.pattern,
    };
    let t0 = std::time::Instant::now();
    let curve = est.estimate_sweep(&req, &job.rates);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "{} — {} chiplets x ({}x{}) = {} nodes, {} traffic, {} policy\n\
         estimated by the {} tier in {:.3}s: {} link classes over {} links\n",
        job.kind,
        geom.chiplets(),
        geom.chip_w(),
        geom.chip_h(),
        geom.nodes(),
        job.pattern,
        job.profile.name,
        curve.backend,
        secs,
        curve.link_classes,
        curve.links,
    );
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>10}",
        "rate", "latency(cy)", "throughput", "max-util", "status"
    );
    for p in &curve.points {
        println!(
            "{:>8.3} {:>12.1} {:>12.4} {:>9.3} {:>10}",
            p.rate,
            p.avg_latency,
            p.throughput,
            p.max_utilization,
            if p.saturated { "saturated" } else { "ok" }
        );
    }
    println!(
        "\npredicted saturation {:.3} flits/cycle/node",
        curve.predicted_saturation_rate
    );
    if let Some(path) = &args.report {
        std::fs::write(path, curve.csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {} estimated points to {path}", curve.points.len());
    }
    std::process::exit(0);
}

/// `--calibrate`: golden engine sweeps vs the analytical tier over every
/// paper preset on this geometry, printing the per-preset error table
/// and exiting non-zero when any preset misses its documented bound.
fn run_calibration(args: &Args, config: SimConfig) -> ! {
    let job = &args.job;
    let mut est = build_estimator(args.backend);
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
    if let Some(path) = &args.report {
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote the calibration report to {path}");
    }
    std::process::exit(if report.pass { 0 } else { 1 });
}

/// Runs the schedule, halting at the configured snapshot cycles to write
/// checkpoint files, then running the rest (drain included) to the end.
/// With `every == None` a single snapshot is taken at the warm-up
/// boundary and written to `path`; with `Some(n)` a snapshot is taken
/// every `n` cycles up to the end of the measurement window, each written
/// to `path.<cycle>`.
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
    for (halt, file) in halts {
        if halt < net.now() {
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
    std::fs::write(path, &out).unwrap_or_else(|e| {
        eprintln!("cannot write checkpoint {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote checkpoint at cycle {} ({} bytes) to {path}",
        net.now(),
        out.len()
    );
}

/// Restores a [`write_checkpoint`] file into a freshly built network and
/// workload. The network must be built from the same configuration and
/// topology as the saving run ([`Network::restore`] verifies this);
/// `--shard-threads` is free to differ.
fn read_checkpoint(path: &str, net: &mut Network, w: &mut SyntheticWorkload) {
    let die = |msg: String| -> ! {
        eprintln!("cannot restore checkpoint {path}: {msg}");
        std::process::exit(1);
    };
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
    if args.metrics.is_some() {
        net.enable_metrics();
    }
    if args.trace.is_some() {
        net.enable_trace(TRACE_RING_CAP, args.trace_filter);
    }
}

/// Writes the post-run metrics snapshot and trace ring to the paths given
/// by `--metrics` / `--trace`, picking the format from the extension.
fn export_observability(net: &Network, args: &Args) {
    let die = |path: &str, e: std::io::Error| -> ! {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    };
    if let Some(path) = &args.metrics {
        let snap = net.metrics_snapshot();
        let mut buf: Vec<u8> = Vec::new();
        let res = if path.ends_with(".jsonl") {
            snap.to_jsonl(&mut buf)
        } else {
            snap.to_prometheus(&mut buf)
        };
        res.unwrap_or_else(|e| die(path, e));
        std::fs::write(path, &buf).unwrap_or_else(|e| die(path, e));
        println!("wrote {} metrics to {path}", snap.entries().len());
    }
    if let Some(path) = &args.trace {
        let ring = net.trace().expect("tracing was enabled before the run");
        let mut buf: Vec<u8> = Vec::new();
        let res = if path.ends_with(".json") {
            ring.to_chrome_trace(&mut buf)
        } else {
            ring.to_jsonl(&mut buf)
        };
        res.unwrap_or_else(|e| die(path, e));
        std::fs::write(path, &buf).unwrap_or_else(|e| die(path, e));
        if ring.dropped() > 0 {
            println!(
                "wrote {} trace events to {path} ({} older events evicted)",
                ring.len(),
                ring.dropped()
            );
        } else {
            println!("wrote {} trace events to {path}", ring.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
