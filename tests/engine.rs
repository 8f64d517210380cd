//! End-to-end checks for the staged engine: observation is read-only,
//! the active-set scheduler preserves results, and parallel sweeps are
//! bit-identical to sequential ones.

use hetero_chiplet::heterosys::presets::NetworkKind;
use hetero_chiplet::heterosys::sim::{run, run_timeline, RunSpec};
use hetero_chiplet::heterosys::sweep::latency_sweep;
use hetero_chiplet::heterosys::{SchedulingProfile, SimConfig, SimResults};
use hetero_chiplet::sim::{TraceFilter, TraceKind};
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

fn run_once(kind: NetworkKind, pattern: TrafficPattern, rate: f64) -> SimResults {
    let geom = Geometry::new(2, 2, 3, 3);
    let mut net = kind.build(geom, SimConfig::default(), SchedulingProfile::balanced());
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    let mut w = SyntheticWorkload::new(nodes, pattern, rate, 16, 7);
    let out = run(&mut net, &mut w, spec());
    assert!(!out.deadlocked);
    out.results
}

/// Attaching the observers must not perturb the simulation: a run with
/// the full trace armed and the progress timeline sampled gives results
/// identical to a bare run, and every observer saw traffic.
#[test]
fn probes_do_not_change_results() {
    let geom = Geometry::new(2, 2, 3, 3);
    for kind in [
        NetworkKind::UniformParallelMesh,
        NetworkKind::UniformSerialTorus,
        NetworkKind::HeteroPhyFull,
        NetworkKind::HeteroChannelFull,
    ] {
        let bare = run_once(kind, TrafficPattern::Uniform, 0.15);
        let mut net = kind.build(geom, SimConfig::default(), SchedulingProfile::balanced());
        net.enable_trace(1 << 16, TraceFilter::all());
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.15, 16, 7);
        let (out, samples) = run_timeline(&mut net, &mut w, spec(), 64);
        assert!(!out.deadlocked);
        assert_eq!(
            bare, out.results,
            "{kind:?}: observers perturbed the simulation"
        );
        assert!(!samples.is_empty());
        assert!(net.link_flits().iter().sum::<u64>() > 0);
        let mut jsonl = Vec::new();
        net.trace()
            .expect("tracing enabled")
            .to_jsonl(&mut jsonl)
            .unwrap();
        assert!(!jsonl.is_empty());
    }
}

/// The progress timeline is read-only and path-invariant: on a
/// hetero-PHY system at a low and a mid rate, the samples and the
/// outcome are identical with idle-skip on or off and at one or two
/// shard threads, and the outcome equals a plain `run`'s.
#[test]
fn timeline_is_invariant_across_idle_skip_and_shard_threads() {
    let geom = Geometry::new(2, 2, 2, 2);
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    for rate in [0.02, 0.2] {
        let build = |skip: bool, threads: usize| {
            let config = SimConfig::default()
                .with_idle_skip(skip)
                .with_shard_threads(threads);
            NetworkKind::HeteroPhyFull.build(geom, config, SchedulingProfile::balanced())
        };
        let workload =
            || SyntheticWorkload::new(nodes.clone(), TrafficPattern::Uniform, rate, 16, 7);
        let plain = run(&mut build(true, 1), &mut workload(), spec());
        assert!(plain.results.packets > 0);
        let mut reference = None;
        for skip in [true, false] {
            for threads in [1, 2] {
                let mut net = build(skip, threads);
                let (out, samples) = run_timeline(&mut net, &mut workload(), spec(), 50);
                let at = format!("rate {rate}, skip {skip}, {threads} shard threads");
                assert_eq!(out, plain, "{at}: sampling changed the outcome");
                // Every multiple of the interval up to the last cycle run,
                // drain included.
                assert!(net.now() >= spec().warmup + spec().measure);
                let cycles: Vec<u64> = samples.iter().map(|s| s.cycle).collect();
                let expect: Vec<u64> = (0..net.now()).step_by(50).collect();
                assert_eq!(cycles, expect, "{at}");
                match &reference {
                    None => reference = Some(samples),
                    Some(r) => assert_eq!(&samples, r, "{at}: timeline differs"),
                }
            }
        }
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
        );
        let b = run_once(
            NetworkKind::HeteroPhyFull,
            TrafficPattern::BitComplement,
            rate,
        );
        assert_eq!(a, b, "rate {rate}: non-deterministic results");
    }
}

/// The per-link flit counts the trace sees (one `hop` or `phy_dispatch`
/// event per delivered flit) agree with the network's own counters under
/// idle-skip, so skipped (idle) components never drop flits.
#[test]
fn link_probe_agrees_with_network_counters() {
    let geom = Geometry::new(2, 2, 3, 3);
    let config = SimConfig::default().with_idle_skip(true);
    let mut net = NetworkKind::HeteroPhyFull.build(geom, config, SchedulingProfile::balanced());
    let filter = TraceFilter::only(TraceKind::Hop).union(TraceFilter::only(TraceKind::PhyDispatch));
    net.enable_trace(1 << 22, filter);
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.2, 16, 11);
    let out = run(&mut net, &mut w, spec());
    assert!(!out.deadlocked);
    assert!(out.results.packets > 0);
    let ring = net.trace().expect("tracing enabled");
    assert_eq!(ring.dropped(), 0);
    let link_flits = net.link_flits();
    let mut traced = vec![0u64; link_flits.len()];
    for ev in ring.iter() {
        traced[ev.a as usize] += 1;
    }
    assert_eq!(traced, link_flits, "trace missed flit hops");
}

/// `run` is `run_timeline` without sampling; both entry points produce
/// the same outcome.
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
    let (sampled, _) = run_timeline(&mut build(), &mut workload(), spec(), 100);
    assert_eq!(plain.results, sampled.results);
    assert_eq!(plain.drained, sampled.drained);
    assert_eq!(plain.deadlocked, sampled.deadlocked);
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
