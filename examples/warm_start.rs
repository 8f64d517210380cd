//! Warm-start sweeps: amortizing the warm-up with checkpoint/fork.
//!
//! Steady-state latency studies pay a long warm-up before every
//! measurement window so queues and adapter FIFOs reach equilibrium.
//! When a sweep re-runs the same network at many injection rates, that
//! warm-up is re-simulated per point. A warm-start job of the sweep
//! service (`SweepService::sweep`, the path `hetero-sim --sweep
//! --warm-start` and `hetero-serve` run) pays it once: the network is
//! warmed at the lowest rate, snapshotted with `Network::checkpoint`,
//! and every point starts from the restored warm state.
//!
//! This example runs the same warm-up-heavy sweep cold and warm-started
//! and prints both curves, the simulated warm-up cycles saved, and the
//! wall-clock times. The warm mode is an approximation (each point warms
//! under the lowest rate, not its own), so the curves are close but not
//! bit-identical — the printout shows both for comparison.
//!
//! Run with `cargo run --release --example warm_start`.

use hetero_chiplet::heterosys::presets::NetworkKind;
use hetero_chiplet::heterosys::scheduler::SchedulingProfile;
use hetero_chiplet::heterosys::sim::RunSpec;
use hetero_chiplet::topo::Geometry;
use hetero_chiplet::traffic::TrafficPattern;
use hetero_serve::api::{Backend, JobSpec};
use hetero_serve::service::{ServiceStats, SweepService};
use std::time::Instant;

fn main() {
    let job = JobSpec {
        kind: NetworkKind::HeteroPhyFull,
        geom: Geometry::new(2, 2, 4, 4),
        profile: SchedulingProfile::balanced(),
        pattern: TrafficPattern::Uniform,
        rates: vec![0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16],
        packet_len: 16,
        // A steady-state schedule: long warm-up, short measurement
        // window — the regime warm-starting exists for.
        spec: RunSpec {
            warmup: 10_000,
            measure: 2_000,
            drain: 4_000,
            watchdog: 5_000,
            drain_offers: false,
        },
        seed: 1,
        backend: Backend::Engine,
        warm_start: false,
        workload: None,
        scales: vec![1.0],
    };
    let spec = job.spec;
    let service = SweepService::new(None, 1).expect("an in-memory service always opens");

    println!(
        "{} — {} nodes, uniform traffic, warm-up {} / measure {} cycles, {} rates\n",
        job.kind,
        job.geom.nodes(),
        spec.warmup,
        spec.measure,
        job.rates.len()
    );

    let t0 = Instant::now();
    let (cold, _) = service.sweep(&job, job.config(), &mut ServiceStats::default());
    let cold_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let warm_job = JobSpec {
        warm_start: true,
        ..job.clone()
    };
    let mut served = ServiceStats::default();
    let (warm, _) = service.sweep(&warm_job, warm_job.config(), &mut served);
    let warm_secs = t0.elapsed().as_secs_f64();

    println!(
        "{:>8} {:>14} {:>14} {:>12}",
        "rate", "cold lat(cy)", "warm lat(cy)", "delta"
    );
    for ((c, _), (w, _)) in cold.iter().zip(&warm) {
        println!(
            "{:>8.3} {:>14.2} {:>14.2} {:>11.2}%",
            c.rate,
            c.results.avg_latency,
            w.results.avg_latency,
            (w.results.avg_latency / c.results.avg_latency - 1.0) * 100.0
        );
    }
    let saved = served.warm_cycles_saved;
    let total_cold_cycles = (spec.warmup + spec.measure) * cold.len() as u64;
    println!("\ncold:  {cold_secs:.2}s wall, {total_cold_cycles} window cycles simulated");
    println!(
        "warm:  {warm_secs:.2}s wall, {saved} warm-up cycles saved ({:.0}% of the cold window), \
         {:.2}x wall-clock",
        100.0 * saved as f64 / total_cold_cycles as f64,
        cold_secs / warm_secs
    );
}
