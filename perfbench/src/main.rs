//! Benchmark of the hetero-chiplet simulator, its analytical estimator and
//! its sweep service; `README.md` beside this package lists the workloads
//! and metrics.
//!
//! One invocation runs one workload on one thread until its operations
//! have used `--seconds` of on-CPU time, checks every operation's output,
//! and prints one JSON line: the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics of a run with the engine's metrics registry armed
//! and a span recorded around every call into a layer.
//!
//! ```text
//! hetero-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```

mod clock;
mod workloads;

use simkit::SimRng;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Layers, Workload};

/// Set-ups per pass; `setup_s` is the median over these of each one's
/// fastest pass.
const SETUP_REPS: usize = 5;

/// A metric as printed: name, unit, value.
type Metric = (&'static str, &'static str, f64);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans_out,
    })
}

/// One timed call into a layer, on the on-CPU clock.
struct Span {
    name: &'static str,
    pass: usize,
    op: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. Unarmed (the end-to-end runs) it only calls through.
pub struct Spans {
    armed: bool,
    pass: usize,
    op: usize,
    list: Vec<Span>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self {
            armed: false,
            pass: 0,
            op: 0,
            list: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Runs `f`, recording it as a span called `name` inside the current
    /// operation.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.armed {
            return f();
        }
        let start_ns = clock::cpu_ns();
        let r = f();
        self.record(name, start_ns, clock::cpu_ns());
        r
    }

    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.armed {
            self.list.push(Span {
                name,
                pass: self.pass,
                op: self.op,
                start_ns,
                end_ns,
            });
        }
    }

    /// Per operation that entered spans called `name`, the time it spent
    /// in them in its fastest pass, as for `op_cpu_ms`.
    fn per_op_ns(&self, name: &str) -> Vec<u64> {
        let mut best: Vec<u64> = Vec::new();
        let mut group: Option<(usize, usize, u64)> = None;
        let spans = self.list.iter().filter(|s| s.name == name);
        for s in spans.map(Some).chain([None]) {
            match (group, s) {
                (Some((pass, op, ns)), Some(s)) if (pass, op) == (s.pass, s.op) => {
                    group = Some((pass, op, ns + s.end_ns - s.start_ns));
                    continue;
                }
                (Some((_, op, ns)), _) => {
                    if best.len() <= op {
                        best.resize(op + 1, u64::MAX);
                    }
                    best[op] = best[op].min(ns);
                }
                (None, _) => {}
            }
            group = s.map(|s| (s.pass, s.op, s.end_ns - s.start_ns));
        }
        best.retain(|&ns| ns != u64::MAX);
        best
    }

    /// Writes every span as one JSON object per line. Each operation's
    /// root span is called `op`; every other span is its child.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.list {
            let parent = if s.name == "op" { "null" } else { "\"op\"" };
            writeln!(
                w,
                r#"{{"name": "{}", "pass": {}, "op": {}, "parent": {parent}, "start_ns": {}, "end_ns": {}}}"#,
                s.name, s.pass, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// The `q`-quantile of `v`, interpolating between order statistics; 0 for
/// no samples.
fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_unstable();
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (pos - lo as f64)
}

fn end_to_end(op_ns: &[u64], setup_ns: &[u64]) -> Vec<Metric> {
    let cpu_s = op_ns.iter().sum::<u64>() as f64 / 1e9;
    vec![
        ("op_cpu_ms", "ms", quantile(op_ns, 0.5) / 1e6),
        ("ops_per_cpu_s", "1/s", op_ns.len() as f64 / cpu_s),
        ("setup_s", "s", quantile(setup_ns, 0.5) / 1e9),
    ]
}

fn per_layer(op_ns: &[u64], spans: &Spans, l: &Layers) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_op = |x: f64| ratio(x, l.ops as f64);
    let median_ms = |name| quantile(&spans.per_op_ns(name), 0.5) / 1e6;
    // Mean run time of an operation in its fastest pass; the counts are
    // averaged over every execution, which repeats the same work.
    let run = spans.per_op_ns("run");
    let run_ns = ratio(run.iter().sum::<u64>() as f64, run.len() as f64);
    vec![
        ("traced_op_cpu_ms", "ms", quantile(op_ns, 0.5) / 1e6),
        ("build_ms", "ms", median_ms("build")),
        ("run_ms", "ms", median_ms("run")),
        ("serve_parse_ms", "ms", median_ms("serve_parse")),
        ("serve_batch_ms", "ms", median_ms("serve_batch")),
        ("serve_render_ms", "ms", median_ms("serve_render")),
        (
            "flits_per_cpu_s",
            "flits/s",
            ratio(per_op(l.flits as f64), run_ns / 1e9),
        ),
        (
            "ns_per_node_cycle",
            "ns",
            ratio(run_ns, per_op(l.node_cycles as f64)),
        ),
        ("cycles_per_op", "cycles", per_op(l.cycles as f64)),
        (
            "busy_cycle_share",
            "ratio",
            ratio(l.busy_cycles as f64, l.cycles as f64),
        ),
        ("flit_hops_per_op", "count", per_op(l.flit_hops as f64)),
        ("src_queue_cycles", "cycles", per_op(l.src_queue_cycles)),
        ("net_latency_cycles", "cycles", per_op(l.net_latency_cycles)),
        (
            "cache_hits_per_request",
            "count",
            per_op(l.cache_hits as f64),
        ),
        (
            "points_computed_per_request",
            "count",
            per_op(l.computed as f64),
        ),
        (
            "analytical_points_per_request",
            "count",
            per_op(l.analytical as f64),
        ),
    ]
}

/// Passes over the same operations. Other tenants of a shared host slow
/// this one at an unchanged clock by up to half again, in spells of ten
/// to forty seconds; the passes do identical work, spread evenly over
/// [`SPREAD`] times `--seconds` of wall-clock time, and an operation slowed
/// in one pass is rarely slowed in all of them.
const PASSES: usize = 10;

/// Wall-clock span of the passes, in multiples of `--seconds` of on-CPU
/// time. The benchmark sleeps after a pass that ends early.
const SPREAD: f64 = 4.5;

/// What the timed loop measured. Times are on-CPU nanoseconds scaled to
/// the reference core speed ([`clock::to_reference`]).
struct Measured {
    /// Per operation, its time in its fastest pass.
    op_ns: Vec<u64>,
    /// Per operation, its unscaled on-CPU time in its fastest pass.
    raw_op_ns: Vec<u64>,
    /// Per set-up repetition, its time in its fastest pass.
    setup_ns: Vec<u64>,
    /// Per pass, the median calibration loop time.
    calibration_ns: Vec<u64>,
    /// Operations run, over all passes.
    executions: u64,
    /// Operations whose output failed its check.
    failed: u64,
}

/// Folds one pass's times into the fastest so far, index by index.
fn keep_fastest(best: &mut Vec<u64>, pass: impl IntoIterator<Item = u64>) {
    for (i, ns) in pass.into_iter().enumerate() {
        match best.get_mut(i) {
            Some(b) => *b = (*b).min(ns),
            None => best.push(ns),
        }
    }
}

/// Runs [`PASSES`] passes, each starting with [`SETUP_REPS`] set-ups. The
/// first pass draws operation seeds until it has used its share of
/// `--seconds` of on-CPU time; later passes replay the same seeds. Pass
/// `k` starts no earlier than `k / PASSES` of the way through the span. A
/// calibration loop runs between every two set-ups or operations, and
/// each one's time is scaled by the mean of the calibrations around it.
fn measure(wl: &mut Workload, args: &Args, spans: &mut Spans, layers: &mut Layers) -> Measured {
    let wall = Instant::now();
    let span = args.seconds * SPREAD;
    // A starved host must not hold the run past its time limit.
    let wall_cap = Duration::from_secs_f64(span + 10.0);
    let pass_budget_ns = (args.seconds * 1e9 / PASSES as f64) as u64;
    let mut rng = SimRng::seed(args.seed);
    let mut seeds = Vec::new();
    let mut m = Measured {
        op_ns: Vec::new(),
        raw_op_ns: Vec::new(),
        setup_ns: Vec::new(),
        calibration_ns: Vec::new(),
        executions: 0,
        failed: 0,
    };
    for pass in 0..PASSES {
        // Set-up then operation times, and the calibrations before the
        // first, between each two, and after the last.
        let mut times = Vec::with_capacity(SETUP_REPS + seeds.len());
        let mut calibrations = vec![clock::calibration_ns()];
        for _ in 0..SETUP_REPS {
            let t0 = clock::cpu_ns();
            wl.setup(args.seed);
            times.push(clock::cpu_ns() - t0);
            calibrations.push(clock::calibration_ns());
        }
        let mut used_ns = 0;
        for i in 0.. {
            if wall.elapsed() >= wall_cap {
                break;
            }
            if pass == 0 {
                if used_ns >= pass_budget_ns {
                    break;
                }
                seeds.push(rng.next_u64());
            } else if i == seeds.len() {
                break;
            }
            (spans.pass, spans.op) = (pass, i);
            let t0 = clock::cpu_ns();
            let done = wl.op(seeds[i], spans);
            let dt = clock::cpu_ns() - t0;
            calibrations.push(clock::calibration_ns());
            spans.record("op", t0, t0 + dt);
            used_ns += dt;
            times.push(dt);
            m.executions += 1;
            if let Err(e) = wl.check(done, args.trace.then_some(&mut *layers)) {
                m.failed += 1;
                eprintln!(
                    "perfbench: {} pass {pass} operation {i} failed: {e}",
                    args.workload
                );
            }
        }
        m.calibration_ns.push(quantile(&calibrations, 0.5) as u64);
        let scaled: Vec<u64> = times
            .iter()
            .zip(calibrations.windows(2))
            .map(|(&ns, c)| clock::to_reference(ns, (c[0] + c[1]) as f64 / 2.0))
            .collect();
        keep_fastest(&mut m.setup_ns, scaled[..SETUP_REPS].iter().copied());
        keep_fastest(&mut m.op_ns, scaled[SETUP_REPS..].iter().copied());
        keep_fastest(&mut m.raw_op_ns, times[SETUP_REPS..].iter().copied());
        if pass + 1 < PASSES {
            let next = Duration::from_secs_f64(span * (pass + 1) as f64 / PASSES as f64);
            std::thread::sleep(next.saturating_sub(wall.elapsed()));
        }
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut wl) = Workload::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let wall = Instant::now();
    let mut spans = Spans {
        armed: args.trace,
        ..Spans::off()
    };
    let mut layers = Layers::default();
    let m = measure(&mut wl, &args, &mut spans, &mut layers);
    let mut failed = m.failed;
    let mut attempted = m.executions;
    for (what, result) in wl.reference_checks(args.seed) {
        attempted += 1;
        if let Err(e) = result {
            failed += 1;
            eprintln!("perfbench: {} {what} check failed: {e}", args.workload);
        }
    }
    if let Some(path) = &args.spans_out {
        if let Err(e) = spans.write_jsonl(path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let metrics = if args.trace {
        per_layer(&m.op_ns, &spans, &layers)
    } else {
        end_to_end(&m.op_ns, &m.setup_ns)
    };
    let mut correct = failed == 0;
    let mut body = String::new();
    for (i, &(name, unit, value)) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; a value without one is a defect.
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    eprintln!(
        "perfbench: {} seed {}: {} operations x {PASSES} passes, {failed} failed, {:.1} s wall; \
         unscaled median {:.4} ms; calibration {:.4} to {:.4} ms per pass",
        args.workload,
        args.seed,
        m.op_ns.len(),
        wall.elapsed().as_secs_f64(),
        quantile(&m.raw_op_ns, 0.5) / 1e6,
        m.calibration_ns.iter().min().copied().unwrap_or(0) as f64 / 1e6,
        m.calibration_ns.iter().max().copied().unwrap_or(0) as f64 / 1e6,
    );
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{body}}}}}"#
    );
    ExitCode::SUCCESS
}
