//! Warm-start sweeps: amortizing the warm-up with checkpoint/fork.
//!
//! Steady-state latency studies pay a long warm-up before every
//! measurement window so queues and adapter FIFOs reach equilibrium.
//! When a sweep re-runs the same network at many injection rates, that
//! warm-up is re-simulated per point. `latency_sweep_warm_start` pays it
//! once: the network is warmed at the first (lightest) rate, snapshotted
//! with `Network::checkpoint`, and every point starts from the restored
//! warm state.
//!
//! This example runs the same warm-up-heavy sweep cold and warm-started
//! and prints both curves, the simulated warm-up cycles saved, and the
//! wall-clock times. The warm mode is an approximation (each point warms
//! under the first rate, not its own), so the curves are close but not
//! bit-identical — the printout shows both for comparison.
//!
//! Run with `cargo run --release --example warm_start`.

use hetero_chiplet::heterosys::presets::NetworkKind;
use hetero_chiplet::heterosys::scheduler::SchedulingProfile;
use hetero_chiplet::heterosys::sim::RunSpec;
use hetero_chiplet::heterosys::sweep::{latency_sweep, latency_sweep_warm_start};
use hetero_chiplet::heterosys::SimConfig;
use hetero_chiplet::topo::Geometry;
use hetero_chiplet::traffic::TrafficPattern;
use std::time::Instant;

fn main() {
    let geom = Geometry::new(2, 2, 4, 4);
    let config = SimConfig::default();
    let kind = NetworkKind::HeteroPhyFull;
    let rates = [0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16];
    // A steady-state schedule: long warm-up, short measurement window —
    // the regime warm-starting exists for.
    let spec = RunSpec {
        warmup: 10_000,
        measure: 2_000,
        drain: 4_000,
        watchdog: 5_000,
        drain_offers: false,
    };
    let build = || kind.build(geom, config, SchedulingProfile::balanced());

    println!(
        "{} — {} nodes, uniform traffic, warm-up {} / measure {} cycles, {} rates\n",
        kind,
        geom.nodes(),
        spec.warmup,
        spec.measure,
        rates.len()
    );

    let t0 = Instant::now();
    let cold = latency_sweep(
        build,
        TrafficPattern::Uniform,
        &rates,
        config.packet_len,
        spec,
        config.seed,
        1,
    );
    let cold_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let warm = latency_sweep_warm_start(
        build,
        TrafficPattern::Uniform,
        &rates,
        config.packet_len,
        spec,
        config.seed,
        1,
    );
    let warm_secs = t0.elapsed().as_secs_f64();

    println!(
        "{:>8} {:>14} {:>14} {:>12}",
        "rate", "cold lat(cy)", "warm lat(cy)", "delta"
    );
    for (c, w) in cold.iter().zip(&warm.points) {
        println!(
            "{:>8.3} {:>14.2} {:>14.2} {:>11.2}%",
            c.rate,
            c.results.avg_latency,
            w.results.avg_latency,
            (w.results.avg_latency / c.results.avg_latency - 1.0) * 100.0
        );
    }
    let total_cold_cycles = (spec.warmup + spec.measure) * cold.len() as u64;
    println!("\ncold:  {cold_secs:.2}s wall, {total_cold_cycles} window cycles simulated");
    println!(
        "warm:  {warm_secs:.2}s wall, {} warm-up cycles saved ({:.0}% of the cold window), \
         {:.2}x wall-clock",
        warm.warmup_cycles_saved,
        100.0 * warm.warmup_cycles_saved as f64 / total_cold_cycles as f64,
        cold_secs / warm_secs
    );
}
