//! Injection-rate sweeps: the latency–throughput curves of Figs. 11/13/14.
//!
//! [`latency_sweep`] distributes the points of one curve over a worker
//! pool ([`simkit::par::map`]; one thread = plain sequential loop). Every
//! point is an independent simulation on a fresh network with the same
//! seed, so the result is bit-identical for any thread count: the
//! "stop two points past saturation" rule is applied over the completed
//! points in rate order, and workers skip a point only when enough earlier
//! points are already known saturated that the sequential sweep provably
//! never reaches it.
//!
//! [`latency_sweep_warm_start`] additionally amortizes the warm-up: it
//! pays it once ([`warm_checkpoint`]), and starts every point from the
//! restored state (an approximation — see its docs).

use crate::network::Network;
use crate::results::SimResults;
use crate::sim::{run, run_until, RunSpec};
use chiplet_topo::NodeId;
use chiplet_traffic::{SyntheticWorkload, TrafficPattern};
use simkit::Cycle;
use std::sync::Mutex;

/// One point of a latency–injection curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered injection rate, flits/cycle/node.
    pub rate: f64,
    /// Measured results at that rate.
    pub results: SimResults,
    /// Whether the run drained completely.
    pub drained: bool,
}

/// The synthetic workload of one sweep point on `net`'s nodes.
fn workload(
    net: &Network,
    pattern: TrafficPattern,
    rate: f64,
    packet_len: u16,
    seed: u64,
) -> SyntheticWorkload {
    let nodes: Vec<NodeId> = (0..net.topology().geometry().nodes()).map(NodeId).collect();
    SyntheticWorkload::new(nodes, pattern, rate, packet_len, seed)
}

fn run_point(
    net: &mut Network,
    pattern: TrafficPattern,
    rate: f64,
    packet_len: u16,
    spec: RunSpec,
    seed: u64,
) -> SweepPoint {
    let mut w = workload(net, pattern, rate, packet_len, seed);
    let outcome = run(net, &mut w, spec);
    SweepPoint {
        rate,
        results: outcome.results,
        drained: outcome.drained,
    }
}

/// Sweeps injection rates on fresh networks built by `build`, over a pool
/// of `threads` workers (1 = sequential), stopping two points after
/// saturation (the curves of Fig. 11 end just past the saturation
/// throughput). An empty `rates` list is a no-op returning no points
/// ([`sweep_endpoints`] handles the empty curve without panicking).
///
/// Returns the same points, in the same order, for any `threads`.
pub fn latency_sweep(
    build: impl Fn() -> Network + Sync,
    pattern: TrafficPattern,
    rates: &[f64],
    packet_len: u16,
    spec: RunSpec,
    seed: u64,
    threads: usize,
) -> Vec<SweepPoint> {
    sweep_executor(
        |rate| {
            let mut net = build();
            run_point(&mut net, pattern, rate, packet_len, spec, seed)
        },
        rates,
        threads,
    )
    .0
}

/// The shared sweep machinery behind [`latency_sweep`] and
/// [`latency_sweep_warm_start`]: runs `run_at(rate)` for each rate on a
/// pool of `threads` workers, applies the early-exit rule, and also
/// reports how many points actually executed (the warm-start savings
/// accounting needs the executed count, not the reported one — workers
/// may finish points the truncation later drops).
fn sweep_executor(
    run_at: impl Fn(f64) -> SweepPoint + Sync,
    rates: &[f64],
    threads: usize,
) -> (Vec<SweepPoint>, usize) {
    let jobs: Vec<(usize, f64)> = rates.iter().copied().enumerate().collect();
    let saturated_idx: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let slots = simkit::par::map(&jobs, threads, |&(i, rate)| {
        // Early exit: with two known-saturated points below i, the
        // sequential sweep stops before reaching i.
        let sat = saturated_idx.lock().expect("sweep lock");
        if sat.iter().filter(|&&s| s < i).count() >= 2 {
            return None;
        }
        drop(sat);
        let point = run_at(rate);
        if point.results.is_saturated() {
            saturated_idx.lock().expect("sweep lock").push(i);
        }
        Some(point)
    });
    let executed = slots.iter().flatten().count();
    // Stop two points past saturation. A skipped point ends the curve:
    // the sequential sweep stopped before it.
    let mut out = Vec::new();
    let mut past_saturation = 0;
    for point in slots.into_iter().map_while(|p| p) {
        let saturated = point.results.is_saturated();
        out.push(point);
        if saturated {
            past_saturation += 1;
            if past_saturation >= 2 {
                break;
            }
        }
    }
    (out, executed)
}

/// A warm-started sweep: the points plus how many warm-up cycles the
/// shared checkpoint avoided re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmSweep {
    /// Sweep points, truncated by the sequential early-exit rule.
    pub points: Vec<SweepPoint>,
    /// Warm-up cycles skipped across all executed points thanks to the
    /// shared warm checkpoint. The first warm-up is paid once to build
    /// the checkpoint, so `n` executed points save `warmup × (n − 1)`
    /// cycles over a cold sweep.
    pub warmup_cycles_saved: Cycle,
}

/// Runs the warm-up of a fresh `build()` network at `rate` and
/// checkpoints it ([`Network::checkpoint`]) — the shared starting state
/// of a warm-started sweep. `None` when the warm-up itself ends early
/// (deadlock or fault stall): every cold point would abort the same way,
/// so warm-starting is moot.
pub fn warm_checkpoint(
    build: impl FnOnce() -> Network,
    pattern: TrafficPattern,
    rate: f64,
    packet_len: u16,
    spec: RunSpec,
    seed: u64,
) -> Option<Vec<u8>> {
    let mut net = build();
    let mut w = workload(&net, pattern, rate, packet_len, seed);
    match run_until(&mut net, &mut w, spec, spec.warmup) {
        Some(_) => None,
        None => Some(net.checkpoint()),
    }
}

/// Warm-start variant of [`latency_sweep`]: pays the warm-up once — at
/// the first (lightest) rate — checkpoints the warmed network
/// ([`warm_checkpoint`]) and starts every sweep point from the restored
/// state instead of re-simulating its own warm-up.
///
/// This is an *approximation mode*: each point resumes the warm state
/// reached under the first rate with a fresh workload at its own rate, so
/// results are close to — but not bit-identical with — a cold sweep
/// (whose every point warms up under its own rate). Use it for dense
/// sweeps where warm-up dominates the schedule; [`latency_sweep`] keeps
/// the exact cold semantics.
///
/// Falls back to a cold sweep (`warmup_cycles_saved == 0`) when there is
/// nothing to save (`warmup == 0`, fewer than two rates) or the warm-up
/// run itself ends early (deadlock or fault stall).
#[allow(clippy::too_many_arguments)]
pub fn latency_sweep_warm_start(
    build: impl Fn() -> Network + Sync,
    pattern: TrafficPattern,
    rates: &[f64],
    packet_len: u16,
    spec: RunSpec,
    seed: u64,
    threads: usize,
) -> WarmSweep {
    let blob = if spec.warmup == 0 || rates.len() < 2 {
        None
    } else {
        warm_checkpoint(&build, pattern, rates[0], packet_len, spec, seed)
    };
    let Some(blob) = blob else {
        return WarmSweep {
            points: latency_sweep(build, pattern, rates, packet_len, spec, seed, threads),
            warmup_cycles_saved: 0,
        };
    };
    let (points, executed) = sweep_executor(
        |rate| {
            let mut net = build();
            net.restore(&blob)
                .expect("the warm checkpoint restores into an identically-built network");
            run_point(&mut net, pattern, rate, packet_len, spec, seed)
        },
        rates,
        threads,
    );
    WarmSweep {
        points,
        warmup_cycles_saved: spec.warmup * executed.saturating_sub(1) as Cycle,
    }
}

/// The saturation injection rate: the highest swept rate whose run stayed
/// unsaturated, or `None` if even the first point saturated.
pub fn saturation_rate(points: &[SweepPoint]) -> Option<f64> {
    points
        .iter()
        .filter(|p| !p.results.is_saturated())
        .map(|p| p.rate)
        .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
}

/// The first and last point of a sweep, or `None` for an empty sweep.
///
/// Sweeps over an empty rate list legitimately produce no points (see
/// [`latency_sweep`]); consumers that only care about the curve's
/// endpoints use this instead of bare `first()/last().unwrap()` so the
/// empty case surfaces as a value, not a panic.
pub fn sweep_endpoints(points: &[SweepPoint]) -> Option<(&SweepPoint, &SweepPoint)> {
    Some((points.first()?, points.last()?))
}

/// The default injection-rate ladder of the CLI and the calibration
/// harness: geometric from 0.02 flits/cycle/node with ratio 1.5, capped
/// at 1.2 (a dozen points spanning well past every preset's saturation).
pub fn default_rate_ladder() -> Vec<f64> {
    let mut rates = Vec::new();
    let mut r = 0.02f64;
    while r <= 1.2 {
        rates.push(r);
        r *= 1.5;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::presets::NetworkKind;
    use crate::scheduler::SchedulingProfile;
    use chiplet_topo::Geometry;

    /// The 16-node uniform parallel mesh every sweep test runs on.
    fn mesh() -> Network {
        NetworkKind::UniformParallelMesh.build(
            Geometry::new(2, 2, 2, 2),
            SimConfig::default(),
            SchedulingProfile::balanced(),
        )
    }

    /// A cold uniform-traffic sweep of [`mesh`].
    fn mesh_sweep(rates: &[f64], threads: usize) -> Vec<SweepPoint> {
        let config = SimConfig::default();
        latency_sweep(
            mesh,
            TrafficPattern::Uniform,
            rates,
            config.packet_len,
            RunSpec::smoke(),
            config.seed,
            threads,
        )
    }

    #[test]
    fn mesh_sweep_shows_latency_growth_and_saturation() {
        let rates = [0.02, 0.1, 0.3, 0.6, 1.0, 1.5, 2.0];
        let points = mesh_sweep(&rates, 1);
        assert!(points.len() >= 3);
        // Latency is (weakly) increasing from the first to the last point.
        let Some((first, last)) = sweep_endpoints(&points) else {
            panic!("a non-empty rate list always yields points");
        };
        let (first, last) = (first.results.avg_latency, last.results.avg_latency);
        assert!(last > first, "{first} !< {last}");
        // The sweep stops early once saturated (7 rates offered).
        let final_saturated = points.last().is_some_and(|p| p.results.is_saturated());
        assert!(points.len() < rates.len() || final_saturated);
        let sat = saturation_rate(&points);
        assert!(sat.is_some());
        assert!(sat.is_some_and(|s| s >= 0.02));
    }

    #[test]
    fn parallel_sweep_matches_sequential_exactly() {
        let rates = [0.02, 0.1, 0.3, 0.6, 1.0, 1.5, 2.0];
        let sweep = |threads| mesh_sweep(&rates, threads);
        let sequential = sweep(1);
        for threads in [2, 4, 7] {
            assert_eq!(sweep(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn saturation_rate_of_empty_is_none() {
        assert_eq!(saturation_rate(&[]), None);
        assert!(sweep_endpoints(&[]).is_none());
    }

    #[test]
    fn empty_rate_list_is_a_clean_no_op() {
        let config = SimConfig::default();
        let points = mesh_sweep(&[], 1);
        assert!(points.is_empty());
        assert_eq!(saturation_rate(&points), None);
        assert!(sweep_endpoints(&points).is_none());
        // The warm-start variant degrades to the same clean no-op.
        let warm = latency_sweep_warm_start(
            mesh,
            TrafficPattern::Uniform,
            &[],
            config.packet_len,
            RunSpec::smoke(),
            config.seed,
            2,
        );
        assert!(warm.points.is_empty());
        assert_eq!(warm.warmup_cycles_saved, 0);
    }

    /// A hand-built sweep point: `saturated` drives the backlog-based
    /// branch of [`SimResults::is_saturated`], `latency` the curve shape.
    fn synthetic_point(rate: f64, latency: f64, saturated: bool) -> SweepPoint {
        use crate::network::Collector;
        let mut c = Collector::default();
        for _ in 0..100 {
            c.latency.push(latency);
            c.measured_packets += 1;
            c.measured_flits += 16;
        }
        let backlog = if saturated { 100 } else { 0 };
        SweepPoint {
            rate,
            results: SimResults::from_collector(&c, 16, 1_000, backlog),
            drained: !saturated,
        }
    }

    #[test]
    fn saturation_rate_when_list_ends_exactly_at_saturation() {
        // The last swept rate is the first saturated one: the reported
        // saturation rate is the last *unsaturated* rate, not the knee
        // itself.
        let points = vec![
            synthetic_point(0.1, 50.0, false),
            synthetic_point(0.2, 80.0, false),
            synthetic_point(0.3, 900.0, true),
        ];
        assert_eq!(saturation_rate(&points), Some(0.2));
    }

    #[test]
    fn saturation_rate_with_fewer_than_two_post_saturation_points() {
        // A sweep truncated with only one point past the knee (the run
        // stopped early, or the ladder ran out) still reports the knee.
        let one_past = vec![
            synthetic_point(0.1, 40.0, false),
            synthetic_point(0.2, 2_000.0, true),
        ];
        assert_eq!(saturation_rate(&one_past), Some(0.1));
        // Degenerate: the very first point saturates — no knee to report.
        let none_clean = vec![synthetic_point(0.1, 5_000.0, true)];
        assert_eq!(saturation_rate(&none_clean), None);
    }

    #[test]
    fn saturation_rate_with_non_monotonic_noise_near_knee() {
        // Measurement noise near the knee: an unsaturated point *after* a
        // saturated one (latency dipped below the heuristic). The reported
        // saturation rate is the highest unsaturated rate — the noisy
        // recovery — not the first knee crossing.
        let points = vec![
            synthetic_point(0.1, 60.0, false),
            synthetic_point(0.2, 9_500.0, true),
            synthetic_point(0.3, 8_000.0, false),
            synthetic_point(0.45, 12_000.0, true),
        ];
        assert_eq!(saturation_rate(&points), Some(0.3));
        // And the latency-threshold branch of is_saturated (no backlog,
        // exploded latency) participates in the same logic.
        let exploded = synthetic_point(0.5, 11_000.0, false);
        assert!(exploded.results.is_saturated(), "latency > 10k saturates");
    }

    #[test]
    fn default_rate_ladder_shape() {
        let rates = default_rate_ladder();
        assert_eq!(rates.first().copied(), Some(0.02));
        assert!(rates.iter().all(|&r| r <= 1.2));
        assert!(rates.windows(2).all(|w| (w[1] / w[0] - 1.5).abs() < 1e-12));
        // Spans past every preset's saturation (≥ 1.0 would be ideal, the
        // ladder tops out at 0.02·1.5⁹ ≈ 0.77 < 1.2 ≤ 0.02·1.5¹⁰).
        assert!(rates.last().is_some_and(|&r| r > 0.5));
    }

    #[test]
    fn warm_start_sweep_skips_warmup_and_reports_savings() {
        let config = SimConfig::default();
        let rates = [0.02, 0.08, 0.14];
        let spec = RunSpec::smoke();
        let warm = latency_sweep_warm_start(
            mesh,
            TrafficPattern::Uniform,
            &rates,
            config.packet_len,
            spec,
            config.seed,
            2,
        );
        assert_eq!(warm.points.len(), rates.len());
        // Three executed points share one paid warm-up: two are saved.
        assert_eq!(warm.warmup_cycles_saved, spec.warmup * 2);
        for p in &warm.points {
            assert!(p.results.packets > 0, "rate {} produced no traffic", p.rate);
            assert!(p.drained, "light load must drain at rate {}", p.rate);
        }
        // The curve still behaves like a latency–injection curve.
        let Some((first, last)) = sweep_endpoints(&warm.points) else {
            panic!("warm sweep over three rates yields points");
        };
        assert!(last.results.avg_latency >= first.results.avg_latency * 0.9);
        // Warm-starting is deterministic: the same call reproduces the
        // same points bit-for-bit at any worker count.
        let again = latency_sweep_warm_start(
            mesh,
            TrafficPattern::Uniform,
            &rates,
            config.packet_len,
            spec,
            config.seed,
            1,
        );
        assert_eq!(again.points, warm.points);
    }
}
