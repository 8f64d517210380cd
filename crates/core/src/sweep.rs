//! Injection-rate sweeps: the latency–throughput curves of Figs. 11/13/14.
//!
//! One rule ends every curve: [`until_saturated`] keeps points in rate
//! order and stops two points past saturation (the curves of Fig. 11 end
//! just past the saturation throughput). It consumes a lazily produced
//! sequence, so a sequential caller computes nothing past the cut. Every
//! sweep uses it: [`sweep_points`] runs the points of one curve on a
//! worker pool ([`simkit::par::map`]; one thread = plain sequential loop)
//! and cuts them with it, [`latency_sweep`] runs cold engine points
//! through [`sweep_points`], the analytical estimator cuts its model
//! points with it, and `hetero-serve`'s sweep service runs its cached
//! engine points (cold and warm-started) through [`sweep_points`].
//! [`saturation_rate`] reads the knee off any such curve.
//!
//! Warm-started sweeps pay the warm-up once ([`warm_checkpoint`]) and
//! start every point from the restored state ([`fork_point`]; an
//! approximation — see its docs). The sweep service composes the two.

use crate::cache::CachedPoint;
use crate::network::Network;
use crate::sim::{run, run_until, RunOutcome, RunSpec};
use chiplet_topo::NodeId;
use chiplet_traffic::{SyntheticWorkload, TrafficPattern};
use std::sync::Mutex;

/// One point of a latency–injection curve, as the early-exit rule and
/// [`saturation_rate`] see it.
pub trait CurvePoint {
    /// Offered injection rate, flits/cycle/node.
    fn rate(&self) -> f64;
    /// Whether the network saturated at this rate.
    fn saturated(&self) -> bool;
}

impl CurvePoint for CachedPoint {
    fn rate(&self) -> f64 {
        self.rate
    }

    fn saturated(&self) -> bool {
        self.results.is_saturated()
    }
}

/// A point with something attached (a served point and its source).
impl<P: CurvePoint, T> CurvePoint for (P, T) {
    fn rate(&self) -> f64 {
        self.0.rate()
    }

    fn saturated(&self) -> bool {
        self.0.saturated()
    }
}

/// The early-exit rule of every sweep: takes `points` in rate order and
/// stops after the second saturated one. The sequence is consumed
/// lazily, so nothing past the cut is produced.
pub fn until_saturated<P: CurvePoint>(points: impl IntoIterator<Item = P>) -> Vec<P> {
    let mut out = Vec::new();
    let mut past_saturation = 0;
    for point in points {
        past_saturation += usize::from(point.saturated());
        out.push(point);
        if past_saturation == 2 {
            break;
        }
    }
    out
}

/// Runs `point(rate)` for each rate on a pool of `threads` workers and
/// keeps what [`until_saturated`] keeps. Every point is independent, so
/// the result is the same, in the same order, for any thread count:
/// workers skip a point only when two earlier points are already known
/// saturated, so the sequential sweep provably never reaches it, and a
/// skipped point ends the curve. With more than one worker, points past
/// the cut may still run; `point` sees every one that does.
pub fn sweep_points<P: CurvePoint + Send>(
    rates: &[f64],
    threads: usize,
    point: impl Fn(f64) -> P + Sync,
) -> Vec<P> {
    let jobs: Vec<(usize, f64)> = rates.iter().copied().enumerate().collect();
    let saturated_idx: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let slots = simkit::par::map(&jobs, threads, |&(i, rate)| {
        let sat = saturated_idx.lock().expect("sweep lock");
        if sat.iter().filter(|&&s| s < i).count() >= 2 {
            return None;
        }
        drop(sat);
        let p = point(rate);
        if p.saturated() {
            saturated_idx.lock().expect("sweep lock").push(i);
        }
        Some(p)
    });
    until_saturated(slots.into_iter().map_while(|p| p))
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

/// Runs one synthetic point (`pattern` at `rate`) on `net`, from whatever
/// state `net` is in: fresh for a cold point, restored for a forked one.
pub(crate) fn run_synthetic(
    net: &mut Network,
    pattern: TrafficPattern,
    rate: f64,
    packet_len: u16,
    spec: RunSpec,
    seed: u64,
) -> RunOutcome {
    let mut w = workload(net, pattern, rate, packet_len, seed);
    run(net, &mut w, spec)
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

/// Runs one point forked from a warm checkpoint ([`warm_checkpoint`]):
/// builds the network, restores `blob` into it and runs the point's own
/// workload from the warm state.
///
/// This is an *approximation*: the point resumes the warm state reached
/// under the checkpoint's rate with a fresh workload at its own rate, so
/// its results are close to — but not bit-identical with — a cold point
/// (which warms up under its own rate). Use it for dense sweeps where
/// warm-up dominates the schedule.
pub fn fork_point(
    build: impl FnOnce() -> Network,
    blob: &[u8],
    pattern: TrafficPattern,
    rate: f64,
    packet_len: u16,
    spec: RunSpec,
    seed: u64,
) -> RunOutcome {
    let mut net = build();
    net.restore(blob)
        .expect("the warm checkpoint restores into an identically-built network");
    run_synthetic(&mut net, pattern, rate, packet_len, spec, seed)
}

/// Sweeps injection rates on fresh networks built by `build`, over a pool
/// of `threads` workers (1 = sequential), cut by [`until_saturated`]. An
/// empty `rates` list is a no-op returning no points.
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
) -> Vec<CachedPoint> {
    sweep_points(rates, threads, |rate| {
        let out = run_synthetic(&mut build(), pattern, rate, packet_len, spec, seed);
        CachedPoint::from_outcome(rate, &out)
    })
}

/// The saturation injection rate: the highest swept rate whose point
/// stayed unsaturated, or `None` if even the first point saturated.
pub fn saturation_rate<P: CurvePoint>(points: &[P]) -> Option<f64> {
    points
        .iter()
        .filter(|p| !p.saturated())
        .map(P::rate)
        .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
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
    use crate::results::SimResults;
    use crate::scheduler::SchedulingProfile;
    use chiplet_topo::Geometry;
    use std::cell::Cell;

    /// The 16-node uniform parallel mesh every sweep test runs on.
    fn mesh() -> Network {
        NetworkKind::UniformParallelMesh.build(
            Geometry::new(2, 2, 2, 2),
            SimConfig::default(),
            SchedulingProfile::balanced(),
        )
    }

    /// A cold uniform-traffic sweep of [`mesh`].
    fn mesh_sweep(rates: &[f64], threads: usize) -> Vec<CachedPoint> {
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
        let (first, last) = (&points[0], &points[points.len() - 1]);
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
        assert_eq!(saturation_rate::<CachedPoint>(&[]), None);
    }

    #[test]
    fn empty_rate_list_is_a_clean_no_op() {
        let points = mesh_sweep(&[], 1);
        assert!(points.is_empty());
        assert_eq!(saturation_rate(&points), None);
    }

    /// A hand-built sweep point: `saturated` drives the backlog-based
    /// branch of [`SimResults::is_saturated`], `latency` the curve shape.
    fn synthetic_point(rate: f64, latency: f64, saturated: bool) -> CachedPoint {
        use crate::network::Collector;
        let mut c = Collector::default();
        for _ in 0..100 {
            c.latency.push(latency);
            c.measured_packets += 1;
            c.measured_flits += 16;
        }
        let backlog = if saturated { 100 } else { 0 };
        CachedPoint {
            rate,
            drained: !saturated,
            deadlocked: false,
            fault_stalled: false,
            results: SimResults::from_collector(&c, 16, 1_000, backlog),
        }
    }

    /// A bare curve point: a rate and a saturation verdict.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Bare(f64, bool);

    impl CurvePoint for Bare {
        fn rate(&self) -> f64 {
            self.0
        }

        fn saturated(&self) -> bool {
            self.1
        }
    }

    /// Bare points at rates 1, 2, ... with the given saturation verdicts.
    fn bare(verdicts: &[bool]) -> Vec<Bare> {
        (1..)
            .zip(verdicts)
            .map(|(i, &s)| Bare(i as f64, s))
            .collect()
    }

    #[test]
    fn until_saturated_stops_two_points_past_saturation() {
        let (t, f) = (true, false);
        for (verdicts, kept) in [
            (&[][..], 0),
            (&[f, f, f], 3),
            (&[f, t], 2),
            (&[f, t, t, t, f], 3),
            (&[t, t, f], 2),
            // Noise near the knee: a recovered point between the two
            // saturated ones does not reset the count.
            (&[f, t, f, t, f, t], 4),
        ] {
            let points = bare(verdicts);
            assert_eq!(
                until_saturated(points.clone()),
                points[..kept],
                "{verdicts:?}"
            );
        }
        // The sequence is consumed lazily: nothing past the cut is made.
        let produced = Cell::new(0);
        let points = bare(&[f, t, t, f, f]);
        let lazy = points.iter().inspect(|_| produced.set(produced.get() + 1));
        assert_eq!(until_saturated(lazy.copied()).len(), 3);
        assert_eq!(produced.get(), 3);
    }

    #[test]
    fn sweep_points_cut_like_the_sequential_rule_at_any_thread_count() {
        let (t, f) = (true, false);
        let verdicts = [f, f, t, f, t, t, f, t];
        let points = bare(&verdicts);
        let rates: Vec<f64> = points.iter().map(Bare::rate).collect();
        let want = until_saturated(points.iter().copied());
        assert_eq!(want.len(), 5);
        for threads in 1..=4 {
            let ran = Mutex::new(Vec::new());
            let got = sweep_points(&rates, threads, |rate| {
                ran.lock().unwrap().push(rate);
                points[rate as usize - 1]
            });
            assert_eq!(got, want, "threads={threads}");
            let ran = ran.into_inner().unwrap();
            assert!(ran.len() >= want.len(), "threads={threads}: ran {ran:?}");
            if threads == 1 {
                assert_eq!(
                    ran,
                    rates[..5],
                    "a sequential sweep runs nothing past the cut"
                );
            }
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
}
