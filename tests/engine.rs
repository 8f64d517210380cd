//! End-to-end checks for the staged engine: probes are pure observers,
//! the active-set scheduler preserves results, and parallel sweeps are
//! bit-identical to sequential ones.

use hetero_chiplet::heterosys::presets::NetworkKind;
use hetero_chiplet::heterosys::sim::{run, run_probed, RunSpec};
use hetero_chiplet::heterosys::sweep::latency_sweep;
use hetero_chiplet::heterosys::{SchedulingProfile, SimConfig, SimResults};
use hetero_chiplet::sim::probe::{
    CsvDeliverySink, JsonlDeliverySink, LinkUtilProbe, Probe, ProgressProbe,
};
use hetero_chiplet::topo::{Geometry, NodeId};
use hetero_chiplet::traffic::{SyntheticWorkload, TrafficPattern};

fn spec() -> RunSpec {
    RunSpec {
        warmup: 200,
        measure: 2_000,
        drain: 1_000,
        watchdog: 2_000,
        drain_offers: false,
    }
}

fn run_once(
    kind: NetworkKind,
    pattern: TrafficPattern,
    rate: f64,
    probes: &mut [&mut dyn Probe],
) -> SimResults {
    let geom = Geometry::new(2, 2, 3, 3);
    let mut net = kind.build(geom, SimConfig::default(), SchedulingProfile::balanced());
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    let mut w = SyntheticWorkload::new(nodes, pattern, rate, 16, 7);
    let out = run_probed(&mut net, &mut w, spec(), probes);
    assert!(!out.deadlocked);
    out.results
}

/// Attaching probes must not perturb the simulation: the results with a
/// full complement of probes are identical to a bare run.
#[test]
fn probes_do_not_change_results() {
    for kind in [
        NetworkKind::UniformParallelMesh,
        NetworkKind::UniformSerialTorus,
        NetworkKind::HeteroPhyFull,
        NetworkKind::HeteroChannelFull,
    ] {
        let bare = run_once(kind, TrafficPattern::Uniform, 0.15, &mut []);
        let mut progress = ProgressProbe::new(64);
        let mut links = LinkUtilProbe::new(4096, 128);
        let mut csv = CsvDeliverySink::new(Vec::new());
        let mut jsonl = JsonlDeliverySink::new(Vec::new());
        let probed = run_once(
            kind,
            TrafficPattern::Uniform,
            0.15,
            &mut [&mut progress, &mut links, &mut csv, &mut jsonl],
        );
        assert_eq!(bare, probed, "{kind:?}: probes perturbed the simulation");
        assert!(!progress.snapshots().is_empty());
        assert!(links.totals().iter().sum::<u64>() > 0);
        assert!(!csv.into_inner().is_empty());
        assert!(!jsonl.into_inner().is_empty());
    }
}

/// The active-set scheduler is an optimization, not a semantic change:
/// two identically-seeded runs agree exactly, including under loads that
/// repeatedly idle and re-wake routers.
#[test]
fn identically_seeded_runs_are_deterministic() {
    for rate in [0.02, 0.4] {
        let a = run_once(
            NetworkKind::HeteroPhyFull,
            TrafficPattern::BitComplement,
            rate,
            &mut [],
        );
        let b = run_once(
            NetworkKind::HeteroPhyFull,
            TrafficPattern::BitComplement,
            rate,
            &mut [],
        );
        assert_eq!(a, b, "rate {rate}: non-deterministic results");
    }
}

/// The per-link flit counts seen by a probe agree with the network's own
/// instrumentation, so skipped (idle) components never drop events.
#[test]
fn link_probe_agrees_with_network_counters() {
    let geom = Geometry::new(2, 2, 3, 3);
    let mut net =
        NetworkKind::HeteroPhyFull.build(geom, SimConfig::default(), SchedulingProfile::balanced());
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.2, 16, 11);
    let mut links = LinkUtilProbe::new(net.topology().links().len(), 100);
    let out = run_probed(&mut net, &mut w, spec(), &mut [&mut links]);
    assert!(!out.deadlocked);
    assert!(out.results.packets > 0);
    assert_eq!(links.totals(), net.link_flits(), "probe missed flit hops");
}

/// `run` is a thin wrapper over `run_probed` with no probes; both entry
/// points produce the same results.
#[test]
fn run_and_run_probed_agree() {
    let geom = Geometry::new(2, 2, 2, 2);
    let build = || {
        NetworkKind::UniformSerialTorus.build(
            geom,
            SimConfig::default(),
            SchedulingProfile::balanced(),
        )
    };
    let workload = || {
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.1, 16, 5)
    };
    let plain = run(&mut build(), &mut workload(), spec());
    let probed = run_probed(&mut build(), &mut workload(), spec(), &mut []);
    assert_eq!(plain.results, probed.results);
    assert_eq!(plain.drained, probed.drained);
    assert_eq!(plain.deadlocked, probed.deadlocked);
}

/// A parallel sweep returns exactly the sequential point list — same
/// truncation past saturation, bit-identical metrics — for any thread
/// count.
#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let geom = Geometry::new(2, 2, 2, 2);
    let rates = [0.05, 0.15, 0.3, 0.6, 1.0, 1.6];
    let config = SimConfig::default();
    let sweep = |threads| {
        latency_sweep(
            || NetworkKind::HeteroPhyFull.build(geom, config, SchedulingProfile::balanced()),
            TrafficPattern::Uniform,
            &rates,
            config.packet_len,
            RunSpec::smoke(),
            config.seed,
            threads,
        )
    };
    let sequential = sweep(1);
    assert!(!sequential.is_empty());
    for threads in [2, 3, 8] {
        assert_eq!(sweep(threads), sequential, "threads={threads}");
    }
}
