//! The simulator's performance gate: a table of A/B comparisons
//! ([`rows`]), each timing two arms of one system on this host through
//! one routine ([`measure`]). No ratio is against a recorded constant.
//!
//! ```text
//! perf_gate [--smoke] [--reps N] [--check-speedup] [--check-overhead]
//!           [--threads LIST] [--out DIR | --no-out]
//! ```
//!
//! `--smoke` first checks the golden traces bit-for-bit. The `--check-*`
//! flags fail on a missed overhead ceiling or speedup floor (the idle-skip
//! row only warns on a 1-core host). `--reps` sets the rounds per row
//! (default 10); `--threads 1,2,4` adds a 1-vs-N shard row per count. The
//! report goes to `DIR/BENCH_perf.json` (default: the repository root).
//!
//! A round runs both arms once, alternating AB and BA, and yields one
//! ratio; the verdict is on the median. Pairing cancels machine drift,
//! alternation a second-run advantage, and the median the rounds a noisy
//! neighbour hits. Arms build untimed and run on the wall clock. Always
//! checked: both arms do the same work (flits, or points answered), the
//! repeated batch is all cache hits, and a warm sweep pays one warm-up.

use chiplet_fault::FaultScript;
use chiplet_topo::{Geometry, NodeId};
use chiplet_traffic::{SyntheticWorkload, TrafficPattern};
use hetero_bench::harness::repo_root;
use hetero_if::golden;
use hetero_if::presets::{medium_system, parsec_system};
use hetero_if::scheduler::SchedulingProfile;
use hetero_if::sim::{run, RunSpec};
use hetero_if::{NetworkKind, SimConfig};
use hetero_serve::api::{Backend, BatchRequest, JobSpec};
use hetero_serve::service::SweepService;
use simkit::json::Json;
use simkit::TraceFilter;
use std::path::PathBuf;
use std::time::Instant;

/// The gated trace filter. Its kinds fire rarely on the clean reference
/// system, so the row prices one filter branch per rejected flit event.
const TRACE_GATE_FILTER: &str = "link,fault,phase";

/// Ring capacity of both trace arms: they differ only in event volume.
const TRACE_RING_CAP: usize = 1 << 16;

/// Every system runs uniform traffic on this preset at this seed.
const PRESET: NetworkKind = NetworkKind::HeteroPhyFull;
const PACKET_LEN: u16 = 16;
const SEED: u64 = 42;

/// Rates of the serve batch (quick schedule).
const SERVE_RATES: [f64; 4] = [0.02, 0.03, 0.04, 0.05];

/// The warm-start sweep: unsaturated points sharing one long warm-up.
const WARM_RATES: [f64; 6] = [0.010, 0.012, 0.014, 0.016, 0.018, 0.020];
const WARM_WARMUP: u64 = 8000;

/// The system a row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum System {
    /// The §8.1.1 medium scale (256 nodes) at rate 0.10, one shard thread.
    Reference,
    /// The §8.1.2 PARSEC scale (64 nodes) at rate 0.002, mostly idle, on
    /// two shard threads so skipped cycles also elide barrier rounds.
    LowRate,
    /// `hetero-serve`'s [`SweepService`] in process on 16 nodes.
    Serve,
}

impl System {
    fn geometry(self) -> Geometry {
        match self {
            System::Reference => medium_system(),
            System::LowRate => parsec_system(),
            System::Serve => Geometry::new(2, 2, 2, 2),
        }
    }
}

/// One arm of a comparison. Engine arms run the row's system on the
/// quick schedule; `Trace*` arms also arm metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Off,
    Metrics,
    Trace,
    TraceFull,
    /// Idle-skip forced off.
    Tick,
    Skip,
    SkipMetrics,
    Shards(usize),
    /// The batch over [`SERVE_RATES`] on a fresh service, one worker per
    /// core; `HotBatch` runs it again on the service it filled.
    ColdBatch,
    HotBatch,
    /// The sweep over [`WARM_RATES`] on a fresh one-worker service, cold
    /// or in warm-start mode.
    ColdSweep,
    WarmSweep,
}

/// How a row turns a round's two timings into its ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// `(B / A − 1) × 100`; its target is a ceiling (`--check-overhead`).
    Pct,
    /// `A / B`; its target is a floor (`--check-speedup`).
    X,
}

/// One A/B comparison; without a target it is reported only.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    name: String,
    system: System,
    arms: [Arm; 2],
    unit: Unit,
    target: Option<f64>,
    /// A miss is only a warning on a 1-core host.
    downgrade_1core: bool,
}

/// The table: every comparison the gate makes, plus one shard-scaling
/// row per `--threads` entry.
fn rows(threads: &[usize]) -> Vec<Row> {
    use {Arm::*, System::*, Unit::*};
    let row = |name: &str, system, arms, unit, target, downgrade_1core| Row {
        name: name.to_string(),
        system,
        arms,
        unit,
        target,
        downgrade_1core,
    };
    #[rustfmt::skip]
    let mut table = vec![
        row("metrics_overhead", Reference, [Off, Metrics], Pct, Some(3.0), false),
        row("trace_overhead", Reference, [Off, Trace], Pct, Some(3.0), false),
        // Retaining every flit event costs work that scales with traffic:
        // the price of the firehose, not a regression.
        row("trace_full_overhead", Reference, [Off, TraceFull], Pct, None, false),
        row("skip_speedup", LowRate, [Tick, Skip], X, Some(3.0), true),
        // Looser than 3%: the registry's merge cost is paid on active
        // cycles, and idle-skip shrinks the run faster than the merges.
        row("lowrate_metrics_overhead", LowRate, [Skip, SkipMetrics], Pct, Some(6.0), false),
        row("cache_speedup", Serve, [ColdBatch, HotBatch], X, Some(10.0), false),
        row("warm_start_speedup", Serve, [ColdSweep, WarmSweep], X, Some(2.0), false),
    ];
    #[rustfmt::skip]
    let scaling = threads.iter().map(|&n| {
        row(&format!("shard_scaling_{n}"), Reference, [Shards(1), Shards(n)], X, None, false)
    });
    table.extend(scaling);
    table
}

/// A one-job batch on the serve system.
fn serve_batch(rates: &[f64], spec: RunSpec, warm_start: bool) -> BatchRequest {
    let job = JobSpec {
        kind: PRESET,
        geom: System::Serve.geometry(),
        profile: SchedulingProfile::balanced(),
        pattern: TrafficPattern::Uniform,
        rates: rates.to_vec(),
        packet_len: PACKET_LEN,
        spec,
        seed: SEED,
        backend: Backend::Engine,
        warm_start,
        workload: None,
        scales: vec![1.0],
    };
    BatchRequest { jobs: vec![job] }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Builds an arm untimed and returns the part to time, to be called
/// once, which yields the work it did: flits delivered by an engine run,
/// points answered by a serve batch. The caller drops the arm's state
/// outside the timed span. Panics when an always-on check fails.
fn prepare(system: System, arm: Arm, base: SimConfig) -> Box<dyn FnMut() -> u64> {
    use Arm::*;
    if system == System::Serve {
        let heavy = RunSpec {
            warmup: WARM_WARMUP,
            measure: 500,
            drain: 500,
            ..RunSpec::quick()
        };
        let (rates, workers, spec) = match arm {
            ColdSweep | WarmSweep => (&WARM_RATES[..], 1, heavy),
            _ => (&SERVE_RATES[..], host_cores(), RunSpec::quick()),
        };
        let service = SweepService::new(None, workers).expect("in-memory service");
        let batch = serve_batch(rates, spec, arm == WarmSweep);
        if arm == HotBatch {
            service.run_batch(&batch);
        }
        return Box::new(move || {
            let before = service.stats();
            service.run_batch(&batch);
            let after = service.stats();
            let points = after.points - before.points;
            let all_hits = after.hits() - before.hits() == points;
            assert!(arm != HotBatch || all_hits, "repeat batch missed the cache");
            let saved = after.warm_cycles_saved;
            let one_warmup = saved == WARM_WARMUP * (WARM_RATES.len() as u64 - 1);
            assert!(arm != WarmSweep || one_warmup, "warm sweep saved {saved}");
            points
        });
    }
    let shards = match arm {
        Shards(n) => n,
        _ if system == System::LowRate => 2,
        _ => 1,
    };
    let config = base.with_shard_threads(shards).with_idle_skip(arm != Tick);
    let geom = system.geometry();
    let mut net = PRESET.build(geom, config, SchedulingProfile::balanced());
    if matches!(arm, Metrics | Trace | TraceFull | SkipMetrics) {
        net.enable_metrics();
    }
    if arm == Trace {
        let filter = TraceFilter::parse(TRACE_GATE_FILTER).expect("gate filter parses");
        net.enable_trace(TRACE_RING_CAP, filter);
    } else if arm == TraceFull {
        net.enable_trace(TRACE_RING_CAP, TraceFilter::all());
    }
    let mut rate = 0.10;
    if system == System::LowRate {
        // Unit-multiplier bursts change no result but give the
        // fast-forward script edges to stop at.
        let bursts = "3000 burst 1 50 link:0\n8000 burst 1 50 link:0";
        net.set_fault_script(FaultScript::parse(bursts).expect("burst script parses"));
        rate = 0.002;
    }
    let nodes = (0..geom.nodes()).map(NodeId).collect();
    let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, rate, PACKET_LEN, SEED);
    Box::new(move || {
        let out = run(&mut net, &mut w, RunSpec::quick());
        assert!(!out.deadlocked && !out.fault_stalled, "{system:?} stalled");
        net.collector().delivered_flits
    })
}

/// A row's timings: one ratio per round, each arm's seconds, its work.
#[derive(Debug, Clone, PartialEq)]
struct Measured {
    ratios: Vec<f64>,
    secs: [Vec<f64>; 2],
    work: u64,
}

/// The one measurement routine: `rounds` rounds, each timing both arms
/// once through `time_arm(i)` (0 = A, 1 = B, returning seconds and
/// work), A first on even rounds and B first on odd ones. Panics if the
/// two arms do different work.
fn measure(rounds: u32, unit: Unit, mut time_arm: impl FnMut(usize) -> (f64, u64)) -> Measured {
    let mut m = Measured {
        ratios: Vec::new(),
        secs: [Vec::new(), Vec::new()],
        work: 0,
    };
    for round in 0..rounds {
        let mut t = [0.0; 2];
        let mut work = [0; 2];
        for i in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
            (t[i], work[i]) = time_arm(i);
            m.secs[i].push(t[i]);
        }
        assert_eq!(work[0], work[1], "both arms of a row must do the same work");
        m.work = work[0];
        m.ratios.push(match unit {
            Unit::Pct => (t[1] / t[0] - 1.0) * 100.0,
            Unit::X => t[0] / t[1],
        });
    }
    m
}

/// `[lower quartile, median, upper quartile]`: the median, and the
/// medians of the halves below and above it (one sample is all three).
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let median = |v: &[f64]| (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    [median(&v[..n / 2]), median(&v), median(&v[n.div_ceil(2)..])]
}

/// `"pass"` or `"fail"` against the row's target; `"warn"` for a miss
/// on a row downgraded on a 1-core host; `"reported"` without a target.
fn verdict(row: &Row, median: f64, cores: usize) -> &'static str {
    let meets = |t| match row.unit {
        Unit::Pct => median < t,
        Unit::X => median >= t,
    };
    match row.target {
        None => "reported",
        Some(t) if meets(t) => "pass",
        Some(_) if row.downgrade_1core && cores == 1 => "warn",
        Some(_) => "fail",
    }
}

/// The report's name for a table value: its lower-case `Debug` form.
fn lower(v: impl std::fmt::Debug) -> Json {
    Json::from(format!("{v:?}").to_lowercase())
}

/// The `BENCH_perf.json` tree: the host, then one entry per row.
fn build_report(cores: usize, cpu_model: &str, results: &[(Row, Measured)]) -> Json {
    let entries = results.iter().map(|(row, m)| {
        let [q1, median, q3] = quartiles(&m.ratios);
        let arm = |i: usize| {
            let secs = quartiles(&m.secs[i])[1];
            let mut o = Json::obj();
            o.set("arm", lower(row.arms[i]))
                .set("median_secs", Json::from(secs))
                .set("work_per_sec", Json::from(m.work as f64 / secs));
            o
        };
        let work_unit = if row.system == System::Serve {
            "points"
        } else {
            "flits"
        };
        let mut e = Json::obj();
        e.set("name", Json::from(row.name.as_str()))
            .set("system", lower(row.system))
            .set("nodes", Json::from(row.system.geometry().nodes()))
            .set("a", arm(0))
            .set("b", arm(1))
            .set("work", Json::from(m.work))
            .set("work_unit", Json::from(work_unit))
            .set("unit", lower(row.unit))
            .set("median", Json::from(median))
            .set("q1", Json::from(q1))
            .set("q3", Json::from(q3))
            .set("rounds", Json::from(m.ratios.len()))
            .set("target", row.target.map_or(Json::Null, Json::from))
            .set("verdict", Json::from(verdict(row, median, cores)));
        e
    });
    let mut doc = Json::obj();
    doc.set("host_cores", Json::from(cores))
        .set("cpu_model", Json::from(cpu_model))
        .set("rows", Json::Arr(entries.collect()));
    doc
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let line = info.lines().find(|l| l.starts_with("model name"));
    let model = line.and_then(|l| l.split_once(':')).map(|(_, m)| m.trim());
    model.unwrap_or("unknown").to_string()
}

struct GateOpts {
    smoke: bool,
    check_speedup: bool,
    check_overhead: bool,
    reps: u32,
    threads: Vec<usize>,
    out_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: perf_gate [--smoke] [--reps N] [--check-speedup] \
                     [--check-overhead] [--threads LIST] [--out DIR | --no-out]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<GateOpts, String> {
    let mut o = GateOpts {
        smoke: false,
        check_speedup: false,
        check_overhead: false,
        reps: 10,
        threads: Vec::new(),
        out_dir: Some(repo_root()),
    };
    while let Some(a) = args.next() {
        let positive = |s: &str| s.trim().parse().ok().filter(|&n| n > 0);
        match a.as_str() {
            "--smoke" => o.smoke = true,
            "--check-speedup" => o.check_speedup = true,
            "--check-overhead" => o.check_overhead = true,
            "--reps" => {
                let reps = args.next().and_then(|s| positive(&s));
                o.reps = reps.ok_or("--reps expects a positive integer")? as u32;
            }
            "--threads" => {
                let list = args.next().unwrap_or_default();
                let threads = list.split(',').map(positive).collect::<Option<_>>();
                o.threads = threads.ok_or("--threads expects positive integers, e.g. 1,2,4")?;
            }
            "--no-out" => o.out_dir = None,
            "--out" => o.out_dir = Some(args.next().ok_or("--out expects a directory")?.into()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        return eprintln!("{USAGE}");
    }
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // Resolve the config (and its environment defaults) once, up front.
    let base = SimConfig::default();
    if opts.smoke {
        let dir = golden::default_fixture_dir();
        print!("perf_gate: golden-trace check ({}) ... ", dir.display());
        match golden::check_dir(&dir) {
            Ok(n) => println!("ok ({n} scenarios bit-identical)"),
            Err(report) => {
                println!("FAILED");
                eprintln!("golden traces drifted:\n{report}");
                std::process::exit(1);
            }
        }
    }

    let (reps, cores) = (opts.reps, host_cores());
    println!("perf_gate: {reps} rounds, {cores} core(s); median [quartiles]");
    let mut results = Vec::new();
    let mut failed = Vec::new();
    for row in rows(&opts.threads) {
        let m = measure(reps, row.unit, |i| {
            let mut timed = prepare(row.system, row.arms[i], base);
            let t0 = Instant::now();
            let work = timed();
            (t0.elapsed().as_secs_f64(), work)
        });
        let [q1, median, q3] = quartiles(&m.ratios);
        let verdict = verdict(&row, median, cores);
        let ([a, b], unit) = (row.arms, row.unit);
        let target = row.target.map(|t| format!(", target {t}"));
        println!(
            "  {:<26} {a:?} -> {b:?}: {median:.2} {unit:?} [{q1:.2}, {q3:.2}]{}: {verdict}",
            row.name,
            target.unwrap_or_default()
        );
        let checked = match row.unit {
            Unit::Pct => opts.check_overhead,
            Unit::X => opts.check_speedup,
        };
        if checked && verdict == "fail" {
            failed.push(row.name.clone());
        }
        results.push((row, m));
    }

    if let Some(dir) = &opts.out_dir {
        let path = dir.join("BENCH_perf.json");
        let json = build_report(cores, &cpu_model(), &results).render();
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("perf_gate: wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if !failed.is_empty() {
        eprintln!("perf_gate: FAILED {}", failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::json::parse;

    fn row(name: &str) -> Row {
        let table = rows(&[1, 4]);
        table.into_iter().find(|r| r.name == name).expect("row")
    }

    #[test]
    fn table_keeps_every_gate_and_its_threshold() {
        use Unit::*;
        for (name, want) in [
            ("metrics_overhead", (Pct, Some(3.0), false)),
            ("trace_overhead", (Pct, Some(3.0), false)),
            ("trace_full_overhead", (Pct, None, false)),
            ("skip_speedup", (X, Some(3.0), true)),
            ("lowrate_metrics_overhead", (Pct, Some(6.0), false)),
            ("cache_speedup", (X, Some(10.0), false)),
            ("warm_start_speedup", (X, Some(2.0), false)),
            ("shard_scaling_4", (X, None, false)),
        ] {
            let r = row(name);
            assert_eq!((r.unit, r.target, r.downgrade_1core), want, "{name}");
        }
        assert_eq!(rows(&[1, 4]).len(), 9);
    }

    #[test]
    fn quartiles_on_odd_and_even_counts() {
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.5, 2.5, 3.5]);
        assert_eq!(quartiles(&[6.0, 2.0, 5.0, 1.0, 4.0, 3.0]), [2.0, 3.5, 5.0]);
    }

    #[test]
    fn rounds_alternate_ab_and_ba() {
        let mut calls = Vec::new();
        let m = measure(4, Unit::X, |i| {
            calls.push(i);
            ([2.0, 1.0][i], 7)
        });
        assert_eq!(calls, [0, 1, 1, 0, 0, 1, 1, 0]);
        assert_eq!(m.secs, [vec![2.0; 4], vec![1.0; 4]]);
        assert_eq!((m.ratios, m.work), (vec![2.0; 4], 7));
    }

    #[test]
    #[should_panic(expected = "same work")]
    fn arms_doing_different_work_fail() {
        measure(1, Unit::Pct, |i| (1.0, i as u64));
    }

    #[test]
    fn one_slowed_round_does_not_change_a_verdict() {
        let mut b_runs = 0;
        let m = measure(10, Unit::Pct, |i| {
            b_runs += i;
            // A 1% overhead, and one round where arm B hits a stall.
            ([1.0, if b_runs == 4 { 1.5 } else { 1.01 }][i], 1)
        });
        assert!(m.ratios.iter().any(|&r| r > 40.0));
        let median = quartiles(&m.ratios)[1];
        assert!((median - 1.0).abs() < 1e-9, "{median}");
        assert_eq!(verdict(&row("metrics_overhead"), median, 2), "pass");
    }

    #[test]
    fn one_core_downgrade_applies_only_to_its_row() {
        let skip = row("skip_speedup");
        assert_eq!(verdict(&skip, 2.0, 1), "warn");
        assert_eq!(verdict(&skip, 2.0, 2), "fail");
        assert_eq!(verdict(&skip, 3.0, 1), "pass");
        assert_eq!(verdict(&row("cache_speedup"), 9.0, 1), "fail");
        assert_eq!(verdict(&row("metrics_overhead"), 3.0, 1), "fail");
        assert_eq!(verdict(&row("trace_full_overhead"), 50.0, 1), "reported");
    }

    #[test]
    fn report_has_one_typed_entry_per_row() {
        let m = Measured {
            ratios: vec![1.0, 5.0, 2.0],
            secs: [vec![0.2, 0.3, 0.25], vec![0.1; 3]],
            work: 1000,
        };
        let results: Vec<_> = rows(&[2]).into_iter().map(|r| (r, m.clone())).collect();
        let doc = parse(&build_report(4, "Some CPU", &results).render()).expect("valid JSON");
        assert_eq!(doc.get("host_cores").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("cpu_model"), Some(&Json::from("Some CPU")));
        let entries = doc.get("rows").and_then(Json::as_arr).expect("rows array");
        assert_eq!(entries.len(), results.len());
        for (e, (row, _)) in entries.iter().zip(&results) {
            let s = |k| e.get(k).and_then(Json::as_str);
            let n = |k| e.get(k).and_then(Json::as_f64);
            assert_eq!(s("name"), Some(row.name.as_str()));
            assert_eq!(["q1", "median", "q3"].map(n), [1.0, 2.0, 5.0].map(Some));
            assert_eq!(["rounds", "work"].map(n), [3.0, 1000.0].map(Some));
            assert_eq!(n("target"), row.target);
            assert_eq!(e.get("target") == Some(&Json::Null), row.target.is_none());
            assert_eq!(s("verdict"), Some(verdict(row, 2.0, 4)));
            let a = e.get("a").expect("arm a");
            assert_eq!(a.get("arm"), Some(&lower(row.arms[0])));
            let n = |k| a.get(k).and_then(Json::as_f64);
            let want = [0.25, 4000.0].map(Some);
            assert_eq!(["median_secs", "work_per_sec"].map(n), want);
        }
    }

    #[test]
    fn out_needs_a_value() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        let o = parse(&["--out", "dir", "--reps", "3"]).unwrap();
        assert_eq!((o.out_dir, o.reps), (Some(PathBuf::from("dir")), 3));
        assert!(parse(&["--out"]).err().is_some_and(|e| e.contains("--out")));
        assert_eq!(parse(&["--no-out"]).unwrap().out_dir, None);
        assert_eq!(parse(&[]).unwrap().out_dir, Some(repo_root()));
    }
}
