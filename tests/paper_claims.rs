//! End-to-end checks of the paper's qualitative claims at test-friendly
//! scales. Absolute numbers differ from the paper (different substrate,
//! reduced windows); the *relationships* are what these tests pin down.

use hetero_chiplet::heterosys::presets::NetworkKind;
use hetero_chiplet::heterosys::sim::{run, RunSpec};
use hetero_chiplet::heterosys::sweep::{latency_sweep, saturation_rate};
use hetero_chiplet::heterosys::{SchedulingProfile, SimConfig, SimResults};
use hetero_chiplet::topo::{Geometry, NodeId};
use hetero_chiplet::traffic::{SyntheticWorkload, TrafficPattern};

fn spec() -> RunSpec {
    RunSpec {
        warmup: 300,
        measure: 2_500,
        drain: 4_000,
        watchdog: 3_000,
        drain_offers: false,
    }
}

fn run_uniform(kind: NetworkKind, geom: Geometry, rate: f64) -> SimResults {
    run_uniform_with(kind, geom, rate, SchedulingProfile::balanced())
}

fn run_uniform_with(
    kind: NetworkKind,
    geom: Geometry,
    rate: f64,
    profile: SchedulingProfile,
) -> SimResults {
    let mut net = kind.build(geom, SimConfig::default(), profile);
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, rate, 16, 0xA11CE);
    run(&mut net, &mut w, spec()).results
}

/// Fig. 11's zero-load story: serial interfaces pay their 20-cycle delay,
/// so the uniform-serial torus loses to everything at light load, and the
/// hetero-PHY torus is the fastest of the four.
#[test]
fn hetero_phy_has_best_low_load_latency() {
    let geom = Geometry::new(4, 4, 2, 2);
    let mesh = run_uniform(NetworkKind::UniformParallelMesh, geom, 0.03).avg_latency;
    let torus = run_uniform(NetworkKind::UniformSerialTorus, geom, 0.03).avg_latency;
    let hfull = run_uniform(NetworkKind::HeteroPhyFull, geom, 0.03).avg_latency;
    let hhalf = run_uniform(NetworkKind::HeteroPhyHalf, geom, 0.03).avg_latency;
    assert!(hfull < mesh, "hetero {hfull:.1} !< mesh {mesh:.1}");
    assert!(hfull < torus, "hetero {hfull:.1} !< torus {torus:.1}");
    assert!(
        hfull <= hhalf + 1.0,
        "half bandwidth can't beat full at low load"
    );
    assert!(torus > mesh, "serial delay should dominate at this scale");
}

/// Fig. 11's throughput story on bisection-hostile traffic: the torus
/// wraparounds and extra serial bandwidth raise the saturation point over
/// the plain parallel mesh.
#[test]
fn hetero_phy_saturates_later_than_mesh_on_bit_complement() {
    let geom = Geometry::new(4, 4, 2, 2);
    let rates = [0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0];
    let config = SimConfig::default();
    let sat = |kind: NetworkKind| {
        let pts = latency_sweep(
            || kind.build(geom, config, SchedulingProfile::balanced()),
            TrafficPattern::BitComplement,
            &rates,
            config.packet_len,
            spec(),
            config.seed,
            1,
        );
        saturation_rate(&pts).unwrap_or(0.0)
    };
    let mesh = sat(NetworkKind::UniformParallelMesh);
    let hetero = sat(NetworkKind::HeteroPhyFull);
    assert!(
        hetero > mesh,
        "hetero saturation {hetero} should exceed mesh {mesh}"
    );
}

/// §8.1.2: at scale, the hetero-channel network beats the uniform-parallel
/// mesh on latency (hypercube shortcuts), and the pure serial hypercube on
/// zero-load latency (parallel interfaces near the destination).
#[test]
fn hetero_channel_beats_both_baselines_at_scale() {
    let geom = Geometry::new(4, 4, 4, 4);
    let mesh = run_uniform(NetworkKind::UniformParallelMesh, geom, 0.05).avg_latency;
    let cube = run_uniform(NetworkKind::UniformSerialHypercube, geom, 0.05).avg_latency;
    let hc = run_uniform(NetworkKind::HeteroChannelFull, geom, 0.05).avg_latency;
    assert!(hc < mesh, "hetero-channel {hc:.1} !< mesh {mesh:.1}");
    assert!(hc < cube, "hetero-channel {hc:.1} !< hypercube {cube:.1}");
}

/// §8.1.2: high-radix networks have low per-link bandwidth requirements,
/// so halving the hetero-channel interfaces costs little latency.
#[test]
fn halved_hetero_channel_stays_close_to_full() {
    let geom = Geometry::new(4, 4, 4, 4);
    let full = run_uniform(NetworkKind::HeteroChannelFull, geom, 0.05).avg_latency;
    let half = run_uniform(NetworkKind::HeteroChannelHalf, geom, 0.05).avg_latency;
    assert!(
        half < full * 1.35,
        "half {half:.1} should stay within ~35% of full {full:.1}"
    );
}

/// Fig. 16's energy ordering on the hetero-PHY side: the serial torus is
/// the most energy-hungry; the hetero-PHY torus undercuts both baselines;
/// the energy-efficient policy does not *increase* energy.
#[test]
fn energy_ordering_matches_fig16() {
    let geom = Geometry::new(4, 4, 4, 4);
    let mesh = run_uniform(NetworkKind::UniformParallelMesh, geom, 0.1);
    let torus = run_uniform(NetworkKind::UniformSerialTorus, geom, 0.1);
    let hetero = run_uniform(NetworkKind::HeteroPhyFull, geom, 0.1);
    let hetero_ee = run_uniform_with(
        NetworkKind::HeteroPhyFull,
        geom,
        0.1,
        SchedulingProfile::energy_efficient(),
    );
    assert!(
        torus.avg_energy_pj > mesh.avg_energy_pj,
        "serial most expensive"
    );
    assert!(hetero.avg_energy_pj < torus.avg_energy_pj);
    assert!(hetero.avg_energy_pj < mesh.avg_energy_pj * 1.05);
    assert!(hetero_ee.avg_energy_pj <= hetero.avg_energy_pj * 1.02);
    // Decomposition sanity: mesh burns parallel + on-chip, torus serial.
    assert_eq!(mesh.avg_serial_pj, 0.0);
    assert_eq!(torus.avg_parallel_pj, 0.0);
    assert!(hetero.avg_parallel_pj > 0.0 && hetero.avg_serial_pj > 0.0);
}

/// Table 3's diagonal: the hetero-IF advantage persists across scales (at
/// the 16-node minimum there is nothing left to shortcut, so we only
/// require parity with the mesh there).
#[test]
fn latency_reduction_holds_across_scales() {
    for (geom, strict) in [
        (Geometry::new(2, 2, 2, 2), false),
        (Geometry::new(4, 4, 2, 2), true),
    ] {
        let mesh = run_uniform(NetworkKind::UniformParallelMesh, geom, 0.1).avg_latency;
        let torus = run_uniform(NetworkKind::UniformSerialTorus, geom, 0.1).avg_latency;
        let hetero = run_uniform(NetworkKind::HeteroPhyFull, geom, 0.1).avg_latency;
        let vs_mesh = if strict {
            hetero < mesh
        } else {
            hetero < mesh * 1.10
        };
        assert!(
            vs_mesh && hetero < torus,
            "{}x{} chiplets: hetero {hetero:.1} vs mesh {mesh:.1} / torus {torus:.1}",
            geom.chiplets_x(),
            geom.chiplets_y()
        );
    }
}
