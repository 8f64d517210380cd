//! End-to-end contracts of the dependency-driven phase-workload engine:
//! release semantics observed through a real simulation, bit-identity
//! across every execution path, and the capture → replay → cache-key
//! round trip that makes phase workloads first-class sweep points.

use hetero_chiplet::heterosys::cache::{phase_point, PointDesc};
use hetero_chiplet::heterosys::presets::NetworkKind;
use hetero_chiplet::heterosys::sim::{run, RunSpec};
use hetero_chiplet::heterosys::{SchedulingProfile, SimConfig};
use hetero_chiplet::noc::{OrderClass, Priority};
use hetero_chiplet::topo::{Geometry, NodeId};
use hetero_chiplet::traffic::{DnnSpec, PacketRequest, PhaseGraph, PhaseSpec, TrafficPattern};
use hetero_serve::{Backend, JobSpec};

fn geom() -> Geometry {
    Geometry::new(2, 2, 2, 2)
}

fn dnn_graph() -> PhaseGraph {
    let spec = DnnSpec::parse("ranks=8,layers=2,fwd=32,grad=128,compute=16,allreduce=ring")
        .expect("valid spec");
    let nodes: Vec<NodeId> = (0..geom().nodes()).map(NodeId).collect();
    PhaseGraph::dnn(&spec, &nodes)
}

fn phase_desc(graph: &PhaseGraph, seed: u64) -> PointDesc {
    let job = JobSpec {
        kind: NetworkKind::HeteroPhyFull,
        geom: geom(),
        profile: SchedulingProfile::balanced(),
        pattern: TrafficPattern::Uniform,
        rates: Vec::new(),
        packet_len: 16,
        spec: RunSpec::smoke(),
        seed,
        backend: Backend::Engine,
        warm_start: false,
        workload: None,
        scales: vec![1.0],
    };
    job.workload_desc(graph)
}

/// The release contract, observed through a real engine run: a phase
/// with a dependency is released only *after* the dependency's packets
/// ejected plus its own compute window — never at the same cycle, never
/// early. The per-phase tag statistics must account for every packet
/// the graph injected.
#[test]
fn dependency_release_is_strictly_ordered_through_the_engine() {
    let req = |src: u32, dst: u32| PacketRequest {
        src: NodeId(src),
        dst: NodeId(dst),
        len: 4,
        class: OrderClass::Unordered,
        priority: Priority::Normal,
        tag: 0,
    };
    const COMPUTE: u64 = 50;
    let mut graph = PhaseGraph::new(vec![
        PhaseSpec {
            name: "a".into(),
            deps: vec![],
            compute: 0,
            events: vec![(0, req(0, 5)), (1, req(2, 7))],
        },
        PhaseSpec {
            name: "b".into(),
            deps: vec![0],
            compute: COMPUTE,
            events: vec![(0, req(5, 0))],
        },
    ]);

    let config = SimConfig::default().with_seed(7);
    let mut net =
        NetworkKind::UniformSerialTorus.build(geom(), config, SchedulingProfile::balanced());
    let out = run(&mut net, &mut graph, RunSpec::smoke().with_drain_offers());
    assert!(out.drained, "two tiny phases must drain");
    assert!(graph.all_complete(), "both phases must complete");

    let rel_a = graph.released_at(0).expect("root phase releases");
    let rel_b = graph.released_at(1).expect("dependent phase releases");
    // Phase b waits for a's packets to *eject* (several cycles of
    // network latency after a's release) and then its compute window;
    // release at a + compute would mean the ejection wait was skipped.
    assert!(
        rel_b > rel_a + COMPUTE,
        "b released at {rel_b}, a at {rel_a}: ejection latency missing"
    );

    // Per-phase attribution: tag idx+1 carries exactly the phase's
    // packet count (delivered is ungated by the measurement window).
    let by_tag = &net.collector().by_tag;
    assert_eq!(by_tag.len(), 3, "untagged slot + two phases");
    assert_eq!(by_tag[1].delivered, 2, "phase a delivered packets");
    assert_eq!(by_tag[2].delivered, 1, "phase b delivered packets");
}

/// One DNN all-reduce workload, every execution path: serial, sharded
/// 4 ways, idle-skip on and off. All four runs must agree bit for bit
/// on the results and on every per-phase statistic — the phase engine
/// must not introduce path-dependent behavior the differential suite
/// pins for synthetic traffic.
#[test]
fn phase_run_is_bit_identical_across_serial_sharded_and_idle_skip() {
    let mut outcomes = Vec::new();
    for threads in [1usize, 4] {
        for skip in [false, true] {
            let config = SimConfig::default()
                .with_seed(11)
                .with_shard_threads(threads)
                .with_idle_skip(skip);
            let mut net =
                NetworkKind::HeteroPhyFull.build(geom(), config, SchedulingProfile::balanced());
            let mut graph = dnn_graph();
            let out = run(&mut net, &mut graph, RunSpec::smoke().with_drain_offers());
            assert!(out.drained, "threads {threads} skip {skip} must drain");
            assert!(graph.all_complete());
            let releases: Vec<_> = (0..graph.phases().len())
                .map(|i| graph.released_at(i))
                .collect();
            outcomes.push((
                out.results,
                net.collector().by_tag.clone(),
                releases,
                format!("threads {threads} skip {skip}"),
            ));
        }
    }
    let (base_results, base_tags, base_rel, _) = &outcomes[0];
    for (results, tags, releases, label) in &outcomes[1..] {
        assert_eq!(results, base_results, "{label} diverged on results");
        assert_eq!(tags, base_tags, "{label} diverged on per-phase stats");
        assert_eq!(releases, base_rel, "{label} diverged on release cycles");
    }
}

/// The capture → replay round trip: a graph captured from a live run
/// (timing comments included) reloads to the *same fingerprint*, so a
/// replayed workload shares the generated workload's cache key, and
/// re-running it produces a bit-identical cached point. Scaling the
/// compute windows must re-key.
#[test]
fn capture_replay_shares_the_cache_key_and_the_bits() {
    let generated = dnn_graph();
    let desc = phase_desc(&generated, 3);
    let direct = phase_point(&desc, &mut generated.clone());
    assert!(direct.drained, "the DNN workload must drain");

    // Capture: run live so the graph holds release timing, then save
    // (timing rides along as comments) and reload.
    let mut live = generated.clone();
    let config = SimConfig::default().with_seed(3);
    let mut net = NetworkKind::HeteroPhyFull.build(geom(), config, SchedulingProfile::balanced());
    let out = run(&mut net, &mut live, RunSpec::smoke().with_drain_offers());
    assert!(out.drained);
    let path =
        std::env::temp_dir().join(format!("hetero-phase-capture-{}.hpt", std::process::id()));
    live.save(&path).expect("capture saves");
    let replayed = PhaseGraph::load(&path).expect("capture loads");
    let _ = std::fs::remove_file(&path);

    // Timing comments are excluded from the fingerprint: the captured
    // trace is the same workload, and keys to the same cache entry.
    assert_eq!(replayed.fingerprint(), generated.fingerprint());
    let replay_desc = phase_desc(&replayed, 3);
    assert_eq!(
        replay_desc.key(),
        desc.key(),
        "replay must hit the generated key"
    );

    let replay = phase_point(&replay_desc, &mut replayed.clone());
    assert_eq!(replay, direct, "replayed run must be bit-identical");

    // A rescaled workload is a different point.
    let scaled = generated.clone().with_compute_scale(2.0);
    assert_ne!(phase_desc(&scaled, 3).key(), desc.key());
}
