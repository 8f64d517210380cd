//! Randomized property tests over the core data structures and
//! invariants: geometry arithmetic, routing connectivity, reorder-buffer
//! ordering, pattern permutations, statistics.
//!
//! These were originally proptest strategies; they now draw their cases
//! from the workspace's own deterministic [`SimRng`] so the test suite
//! builds with no registry access. Every case is seeded, so a failure
//! reproduces exactly.

use hetero_chiplet::noc::packet::PacketId;
use hetero_chiplet::noc::{
    Flit, FlitArena, FlitRef, OrderClass, PortCandidate, Priority, Router, RouterEnv,
};
use hetero_chiplet::phy::{HeteroPhyLink, PhyKind, PhyParams, PhyPolicy};
use hetero_chiplet::sim::codec::{ByteReader, ByteWriter};
use hetero_chiplet::sim::stats::Running;
use hetero_chiplet::sim::SimRng;
use hetero_chiplet::topo::routing::for_system;
use hetero_chiplet::topo::{build, Geometry, NodeId, SystemKind};
use hetero_chiplet::traffic::TrafficPattern;

const CASES: u64 = 64;

#[test]
fn geometry_roundtrip() {
    let mut rng = SimRng::seed(0x6E0);
    for _ in 0..CASES {
        let cx = 1 + rng.below(4) as u16;
        let cy = 1 + rng.below(4) as u16;
        let w = 1 + rng.below(5) as u16;
        let h = 1 + rng.below(5) as u16;
        let g = Geometry::new(cx, cy, w, h);
        let id = (rng.below(10_000) % g.nodes() as u64) as u32;
        let n = NodeId(id);
        let c = g.coord(n);
        assert_eq!(g.node_at(c.x, c.y), n);
        let chip = g.chiplet_of(n);
        let l = g.local_coord(n);
        assert_eq!(g.node_in_chiplet(chip, l.x, l.y), n);
        // Interface/core partition is exact.
        assert_ne!(g.is_interface_node(n), g.is_core_node(n));
    }
}

#[test]
fn perimeter_is_exactly_the_interface_set() {
    for w in 1u16..7 {
        for h in 1u16..7 {
            let g = Geometry::new(1, 1, w, h);
            let rim = g.perimeter_nodes(g.chiplet_of(NodeId(0)));
            let expected: Vec<NodeId> = (0..g.nodes())
                .map(NodeId)
                .filter(|&n| g.is_interface_node(n))
                .collect();
            let mut sorted = rim.clone();
            sorted.sort();
            assert_eq!(sorted, expected, "{w}x{h}");
        }
    }
}

#[test]
fn running_stats_match_naive() {
    let mut rng = SimRng::seed(0x57A7);
    for case in 0..CASES {
        let len = 1 + rng.below(200) as usize;
        let xs: Vec<f64> = (0..len).map(|_| (rng.unit() - 0.5) * 2e6).collect();
        let mut s = Running::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            (s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
            "case {case}: mean {} vs naive {mean}",
            s.mean()
        );
        assert!(
            (s.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()),
            "case {case}: variance {} vs naive {var}",
            s.variance()
        );
        assert_eq!(s.count(), xs.len() as u64);
    }
}

#[test]
fn patterns_stay_in_range_and_avoid_self() {
    let mut rng = SimRng::seed(0xA77);
    for _ in 0..CASES {
        let n = 2 + rng.below(3998);
        let seed = rng.below(1000);
        let mut draw = SimRng::seed(seed);
        for p in TrafficPattern::ALL {
            let src = seed % n;
            if let Some(d) = p.dest(src, n, &mut draw) {
                assert!(d < n, "{d} out of range for {p}");
                assert_ne!(d, src, "{p} self-addressed");
            }
        }
    }
}

/// Routing connectivity on randomly-shaped systems: first-candidate
/// walks reach the destination within a generous bound.
#[test]
fn routing_connects_random_pairs() {
    let mut rng = SimRng::seed(0x20575);
    for _ in 0..CASES {
        let cx = 1 + rng.below(3) as u16;
        let cy = 1 + rng.below(3) as u16;
        let w = 2 + rng.below(3) as u16;
        let h = 2 + rng.below(3) as u16;
        let seed = rng.below(10_000);
        let g = Geometry::new(cx, cy, w, h);
        let kinds: &[SystemKind] = if (g.chiplets() as u32).is_power_of_two()
            && g.chiplets() >= 2
            && g.perimeter_nodes(g.chiplet_of(NodeId(0))).len()
                >= (g.chiplets() as u32).trailing_zeros() as usize
        {
            &[
                SystemKind::ParallelMesh,
                SystemKind::SerialTorus,
                SystemKind::HeteroPhyTorus,
                SystemKind::SerialHypercube,
                SystemKind::HeteroChannel,
            ]
        } else {
            &[
                SystemKind::ParallelMesh,
                SystemKind::SerialTorus,
                SystemKind::HeteroPhyTorus,
            ]
        };
        let mut pick = SimRng::seed(seed);
        for &kind in kinds {
            let topo = match kind {
                SystemKind::ParallelMesh => build::parallel_mesh(g),
                SystemKind::SerialTorus => build::serial_torus(g),
                SystemKind::HeteroPhyTorus => build::hetero_phy_torus(g),
                SystemKind::SerialHypercube => build::serial_hypercube(g),
                SystemKind::HeteroChannel => build::hetero_channel(g),
                SystemKind::MultiPackageRow => {
                    build::multi_package(g.chiplets_x(), 1, g.chiplets_y(), g.chip_w(), g.chip_h())
                }
            };
            let routing = for_system(kind, 2);
            let n = g.nodes() as u64;
            let s = NodeId(pick.below(n) as u32);
            let mut d = NodeId(pick.below(n) as u32);
            if d == s {
                d = NodeId((d.0 + 1) % g.nodes());
            }
            // Walk taking the first candidate each hop, honoring the lock
            // rule exactly like the router does.
            let mut cur = s;
            let mut state = hetero_chiplet::topo::RouteState::default();
            let mut cands = Vec::new();
            let bound = 16 * (g.width() + g.height()) as usize + 64;
            let mut hops = 0usize;
            while cur != d {
                cands.clear();
                routing.candidates(&topo, cur, d, &state, &mut cands);
                assert!(!cands.is_empty(), "{kind}: stuck at {cur} toward {d}");
                let pick = cands[0];
                if pick.baseline && cands.iter().any(|c| !c.baseline) {
                    state.baseline_locked = true;
                }
                cur = topo.link(pick.link).dst;
                hops += 1;
                assert!(hops < bound, "{kind}: no progress {s}->{d}");
            }
        }
    }
}

/// The hetero-PHY reorder buffer delivers every packet's flits in
/// order, for arbitrary interleavings of packets across VCs, classes
/// and priorities; on each VC the delivered flits form whole packets
/// back-to-back, head first. Some cases arm BER injection and some fail
/// a PHY mid-stream (the internal retransmissions must keep both
/// rules). Every case also saves the link mid-stream into a byte blob
/// and loads it into a freshly built link with its own arena: the
/// restored link must deliver exactly the original's remaining
/// sequence.
#[test]
fn rob_preserves_per_packet_order() {
    let mut outer = SimRng::seed(0x0B0B);
    let mut corrupted = 0u64;
    for case in 0..CASES {
        let seed = outer.below(5000);
        let npkts = 1 + outer.below(5) as usize;
        let policy = [
            PhyPolicy::PerformanceFirst,
            PhyPolicy::EnergyEfficient,
            PhyPolicy::Balanced { threshold: 8 },
            PhyPolicy::ApplicationAware { threshold: 8 },
        ][outer.index(4)];
        let ber = case % 4 == 1;
        // (cycle, PHY) of a hard failure, restored 40 cycles later.
        let failure = (case % 8 == 3 || case % 8 == 5).then(|| {
            let kind = if case % 16 < 8 {
                PhyKind::Parallel
            } else {
                PhyKind::Serial
            };
            (2 + seed % 20, kind)
        });
        let save_at = 3 + seed % 37;
        let build = || {
            let mut link = HeteroPhyLink::new(PhyParams::full(), policy, 64);
            if ber {
                link.set_fault_injection(SimRng::seed(seed ^ 0xBE4), 0.05, 0.05);
            }
            link
        };
        let mut rng = SimRng::seed(seed);
        let mut link = build();
        let mut arena = FlitArena::new();
        // The restored twin, from `save_at` on, and what each link
        // delivered since then.
        let mut twin: Option<(HeteroPhyLink, FlitArena)> = None;
        let mut after_save: [Vec<(Flit, PhyKind)>; 2] = [Vec::new(), Vec::new()];
        // Packets: random length, class, priority. The upstream router
        // holds an output VC busy until a packet's tail is sent, so per VC
        // packets are pushed back-to-back; across VCs pushes interleave
        // arbitrarily. The test reproduces exactly that discipline.
        let vcs = 2u8;
        let mut pkts: Vec<(u32, u16, OrderClass, Priority, u16)> = (0..npkts)
            .map(|i| {
                let len = 1 + rng.below(16) as u16;
                let class = if rng.chance(0.5) {
                    OrderClass::InOrder
                } else {
                    OrderClass::Unordered
                };
                let pri = if rng.chance(0.2) {
                    Priority::High
                } else {
                    Priority::Normal
                };
                (i as u32, len, class, pri, 0u16)
            })
            .collect();
        // Per-VC packet queues: packet i rides VC i % vcs.
        let mut vc_queue: Vec<Vec<usize>> = vec![Vec::new(); vcs as usize];
        for i in 0..npkts {
            vc_queue[i % vcs as usize].push(i);
        }
        let mut vc_head = vec![0usize; vcs as usize];
        let mut now = 0u64;
        let mut delivered: Vec<Vec<u16>> = vec![Vec::new(); npkts];
        // Per VC, the packet whose flits are being delivered: (pid, next seq).
        let mut vc_open: Vec<Option<(u32, u16)>> = vec![None; vcs as usize];
        loop {
            if now == save_at {
                let mut w = ByteWriter::new();
                link.save_state_with(&arena, &mut w);
                let blob = w.into_bytes();
                let mut restored = build();
                let mut own = FlitArena::new();
                restored
                    .load_state_with(&mut own, &mut ByteReader::new(&blob))
                    .unwrap_or_else(|e| panic!("case {case}: load failed: {e:?}"));
                assert_eq!(own.in_flight(), link.in_flight(), "case {case}");
                twin = Some((restored, own));
            }
            if let Some((at, kind)) = failure {
                let links = std::iter::once(&mut link).chain(twin.as_mut().map(|(l, _)| l));
                for l in links {
                    if now == at {
                        l.fail_phy(kind);
                    } else if now == at + 40 {
                        l.restore_phy(kind);
                    }
                }
            }
            // Push a few flits from randomly chosen VCs (head packet only).
            for _ in 0..3 {
                if let Some((l, _)) = &twin {
                    assert_eq!(l.space(), link.space(), "case {case}");
                }
                if link.space() == 0 {
                    break;
                }
                let vc = rng.index(vcs as usize);
                let Some(&i) = vc_queue[vc].get(vc_head[vc]) else {
                    continue;
                };
                let (pid, len, class, pri, ref mut seq) = pkts[i];
                let flit = Flit::new(PacketId(pid), *seq, vc as u8, *seq + 1 == len);
                *seq += 1;
                if *seq == len {
                    vc_head[vc] += 1;
                }
                link.push(now, arena.alloc(flit), class, pri);
                if let Some((l, a)) = &mut twin {
                    l.push(now, a.alloc(flit), class, pri);
                }
            }
            link.advance(now, &arena, &mut |_| {});
            while let Some((fref, kind)) = link.pop_delivered() {
                let f = arena.free(fref);
                delivered[f.pid.0 as usize].push(f.seq);
                let open = &mut vc_open[f.vc as usize];
                let (pid, seq) = open.unwrap_or((f.pid.0, 0));
                assert_eq!(
                    (f.pid.0, f.seq),
                    (pid, seq),
                    "case {case}: VC {} breaks packet contiguity",
                    f.vc
                );
                *open = (!f.last).then_some((pid, seq + 1));
                if twin.is_some() {
                    after_save[0].push((f, kind));
                }
            }
            if let Some((l, a)) = &mut twin {
                l.advance(now, a, &mut |_| {});
                while let Some((fref, kind)) = l.pop_delivered() {
                    after_save[1].push((a.free(fref), kind));
                }
            }
            now += 1;
            let all_pushed = pkts.iter().all(|p| p.4 == p.1);
            if all_pushed && link.in_flight() == 0 {
                break;
            }
            assert!(now < 20_000, "case {case}: link did not drain");
        }
        for (i, seqs) in delivered.iter().enumerate() {
            let expect: Vec<u16> = (0..pkts[i].1).collect();
            assert_eq!(seqs, &expect, "case {case}: packet {i} out of order");
        }
        assert_eq!(arena.in_flight(), 0, "case {case}: leaked handles");
        if let Some((l, a)) = &twin {
            assert_eq!(l.in_flight(), 0, "case {case}: restored link did not drain");
            assert_eq!(
                a.in_flight(),
                0,
                "case {case}: restored link leaked handles"
            );
            assert_eq!(
                after_save[0], after_save[1],
                "case {case}: restored link diverged from the original"
            );
            assert_eq!(l.retx_flits(), link.retx_flits(), "case {case}");
        }
        if ber {
            corrupted += link.corrupt_flits();
        }
    }
    assert!(corrupted > 0, "the BER cases never corrupted a flit");
}

/// A [`RouterEnv`] for property tests: every packet routes to a
/// deterministic (out port, out VC) derived from its id, capacity is
/// unbounded, and every send/credit callback is tallied so conservation
/// can be checked after the fact. Sent flits are retired from the arena
/// immediately (the "downstream" consumes them) and their out-channel
/// recorded so the driver can return switch credits next cycle.
struct CountingEnv {
    out_ports: u16,
    vcs: u8,
    /// Upstream credits returned per (in port, vc), flat-indexed.
    credits: Vec<u64>,
    /// (out port, out vc) of every flit sent this cycle, in order.
    sent_now: Vec<(u16, u8)>,
    delivered: u64,
    /// Per-out-VC delivery tally (flat `out_port * vcs + vc`).
    per_out_vc: Vec<u64>,
}

impl CountingEnv {
    fn new(in_ports: u16, out_ports: u16, vcs: u8) -> Self {
        Self {
            out_ports,
            vcs,
            credits: vec![0; in_ports as usize * vcs as usize],
            sent_now: Vec::new(),
            delivered: 0,
            per_out_vc: vec![0; out_ports as usize * vcs as usize],
        }
    }
}

impl RouterEnv for CountingEnv {
    fn route(&mut self, pid: PacketId, out: &mut Vec<PortCandidate>) {
        out.push(PortCandidate {
            out_port: (pid.0 as u16) % self.out_ports,
            vc: (pid.0 % self.vcs as u32) as u8,
            baseline: true,
            tier: 0,
        });
    }

    fn out_capacity(&mut self, _out_port: u16) -> u16 {
        u16::MAX
    }

    fn send(&mut self, out_port: u16, fref: FlitRef, arena: &mut FlitArena) {
        let f = arena.free(fref);
        self.sent_now.push((out_port, f.vc));
        self.per_out_vc[out_port as usize * self.vcs as usize + f.vc as usize] += 1;
        self.delivered += 1;
    }

    fn credit(&mut self, in_port: u16, vc: u8) {
        self.credits[in_port as usize * self.vcs as usize + vc as usize] += 1;
    }

    fn note_baseline_lock(&mut self, _pid: PacketId) {}
}

#[test]
fn router_conserves_credits_and_arena_handles() {
    let mut rng = SimRng::seed(0xC4ED17);
    for case in 0..CASES {
        let vcs = 1 + rng.below(3) as u8;
        let in_ports = 1 + rng.below(3) as u16;
        let out_ports = 1 + rng.below(3) as u16;
        let depth = 2 + rng.below(3) as u16;

        let mut router = Router::new(vcs);
        for _ in 0..in_ports {
            router.add_in_port(depth);
        }
        for _ in 0..out_ports {
            router.add_out_port(1 + rng.below(2) as u8, depth, false);
        }
        let mut env = CountingEnv::new(in_ports, out_ports, vcs);
        let mut arena = FlitArena::new();

        // Per input VC: a queue of packet flits to feed, each packet's
        // flits contiguous (wormhole: the upstream VC is held until the
        // tail, so packets on one VC never interleave).
        let flat = in_ports as usize * vcs as usize;
        let mut feeds: Vec<Vec<Flit>> = vec![Vec::new(); flat];
        let mut injected: Vec<u64> = vec![0; flat];
        let mut next_pid = 0u32;
        let mut total = 0u64;
        for feed in feeds.iter_mut() {
            for _ in 0..1 + rng.below(3) {
                let len = 1 + rng.below(4) as u16;
                let pid = PacketId(next_pid);
                next_pid += 1;
                for seq in 0..len {
                    // The VC is rewritten below to the feed's.
                    feed.push(Flit::new(pid, seq, 0, seq + 1 == len));
                    total += 1;
                }
            }
            feed.reverse(); // pop from the back in order
        }

        let mut now = 0u64;
        loop {
            // Return last cycle's switch credits (downstream freed a slot).
            for (op, ov) in env.sent_now.split_off(0) {
                router.add_credit(op, ov);
            }
            // Feed every input VC that has space.
            for p in 0..in_ports {
                for v in 0..vcs {
                    let i = p as usize * vcs as usize + v as usize;
                    while router.in_space(p, v) > 0 {
                        let Some(mut f) = feeds[i].pop() else { break };
                        f.vc = v;
                        let fref = arena.alloc(f);
                        router.receive(p, fref, v);
                        injected[i] += 1;
                    }
                }
            }
            router.step(now, &mut env, &mut arena);
            now += 1;
            if feeds.iter().all(Vec::is_empty) && router.is_quiescent() {
                break;
            }
            assert!(now < 10_000, "case {case}: router did not drain");
        }

        assert_eq!(
            env.delivered, total,
            "case {case}: flits lost or duplicated"
        );
        assert_eq!(arena.in_flight(), 0, "case {case}: arena leaked handles");
        assert_eq!(
            arena.allocated_total(),
            total,
            "case {case}: allocation count drifted from injected flits"
        );
        assert_eq!(
            router.buffered_flits(),
            0,
            "case {case}: stale buffer count"
        );
        // Credit conservation: every flit that left an input VC returned
        // exactly one upstream credit to that VC — no more, no fewer.
        assert_eq!(
            env.credits, injected,
            "case {case}: upstream credits diverge from injected flits"
        );
    }
}

#[test]
fn switch_allocation_never_starves_a_vc() {
    // Four input VCs mapped to four distinct out VCs of one port with
    // crossbar bandwidth 1: all four compete for the switch every cycle.
    // Round-robin SA must keep serving each of them.
    const VCS: u8 = 4;
    const LEN: u16 = 4;
    let mut router = Router::new(VCS);
    router.add_in_port(4);
    router.add_out_port(1, 4, false);
    let mut env = CountingEnv::new(1, 1, VCS);
    let mut arena = FlitArena::new();

    let mut next_seq = [0u16; VCS as usize];
    let mut next_pid = [0u32; VCS as usize];
    for (v, pid) in next_pid.iter_mut().enumerate() {
        *pid = v as u32; // pid % VCS == v keeps the route on out VC v
    }
    let cycles = 800u64;
    for now in 0..cycles {
        for (op, ov) in env.sent_now.split_off(0) {
            router.add_credit(op, ov);
        }
        for v in 0..VCS {
            let i = v as usize;
            while router.in_space(0, v) > 0 {
                let f = Flit::new(
                    PacketId(next_pid[i]),
                    next_seq[i],
                    v,
                    next_seq[i] + 1 == LEN,
                );
                let fref = arena.alloc(f);
                router.receive(0, fref, v);
                next_seq[i] += 1;
                if next_seq[i] == LEN {
                    next_seq[i] = 0;
                    next_pid[i] += VCS as u32;
                }
            }
        }
        router.step(now, &mut env, &mut arena);
    }

    let total: u64 = env.per_out_vc.iter().sum();
    assert!(total >= cycles / 2, "switch badly underutilized: {total}");
    for (v, &n) in env.per_out_vc.iter().enumerate() {
        assert!(
            n >= total / (2 * VCS as u64),
            "VC {v} starved: {n} of {total} flits ({:?})",
            env.per_out_vc
        );
    }
}

#[test]
fn arena_drains_clean_across_presets_and_faults() {
    use hetero_chiplet::heterosys::golden::{scenarios, Flavor};
    use hetero_chiplet::heterosys::sim::{run, RunSpec};
    use hetero_chiplet::heterosys::{FaultScript, SchedulingProfile, SimConfig};
    use hetero_chiplet::phy::PhyKind;
    use hetero_chiplet::traffic::SyntheticWorkload;

    // One scenario per (preset, flavor) pair of the golden matrix is
    // plenty for leak detection; seeds differ from the golden fixtures so
    // this is not just replaying blessed runs.
    let mut picks = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for s in scenarios() {
        if seen.insert(format!("{:?}/{:?}", s.kind, s.flavor)) {
            picks.push(s);
        }
    }
    for s in picks {
        let geom = Geometry::new(2, 2, 2, 2);
        let seed = s.seed + 40; // off the golden fixtures' seeds
        let mut config = SimConfig::default().with_seed(seed);
        if s.flavor == Flavor::BerRetry {
            config = config.with_ber(1e-4).with_retry();
        }
        let mut net = s.kind.build(geom, config, SchedulingProfile::balanced());
        match s.flavor {
            Flavor::Clean | Flavor::BerRetry | Flavor::LinkDown => {}
            Flavor::PhyDown => {
                net.set_fault_script(FaultScript::single_phy_failure(400, PhyKind::Serial));
            }
        }
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        let mut workload = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.12, 16, seed);
        let out = run(&mut net, &mut workload, RunSpec::smoke());
        let label = format!("{:?}/{:?}", s.kind, s.flavor);
        assert!(out.drained, "{label}: run did not drain");
        // Arena invariants at drain: every handle allocated at injection
        // (or re-admission from another shard) was freed at ejection —
        // nothing leaked, nothing double-freed.
        assert_eq!(net.live_packets(), 0, "{label}: live packets after drain");
        assert_eq!(
            net.flits_in_flight(),
            0,
            "{label}: arena leaked flit handles"
        );
        let delivered = net.collector().delivered_flits;
        assert!(
            net.flits_allocated_total() >= delivered,
            "{label}: fewer handles allocated than flits delivered"
        );
    }
}

#[test]
fn rob_occupancy_stays_within_eq1_bound() {
    // Eq. 1: a hetero-PHY link's reorder buffer never holds more than
    // `B_p · (D_s − D_p)` flits waiting on reordering. Sweep bandwidth
    // ratios and latency gaps, lift the capacity backpressure so nothing
    // enforces the bound but the dispatch/arrival dynamics themselves,
    // and probe the occupancy after every cycle's releases.
    let rates: [(u8, u8); 6] = [(1, 1), (1, 2), (2, 1), (2, 4), (4, 2), (3, 3)];
    let gaps: [(u32, u32); 5] = [(5, 5), (5, 10), (5, 20), (2, 32), (10, 40)];
    for (parallel_bw, serial_bw) in rates {
        for (parallel_lat, serial_lat) in gaps {
            let params = PhyParams {
                parallel_bw,
                parallel_lat,
                serial_bw,
                serial_lat,
            };
            let bound = params.rob_capacity() as usize;
            for policy in [
                PhyPolicy::PerformanceFirst,
                PhyPolicy::Balanced { threshold: 8 },
            ] {
                let mut arena = FlitArena::new();
                let mut link = HeteroPhyLink::new(params, policy, 16);
                link.set_rob_capacity(u16::MAX);

                // A saturating single-VC stream of in-order packets: the
                // case Eq. 1 is derived for.
                let (mut pid, mut seq) = (0u32, 0u16);
                const LEN: u16 = 8;
                let mut delivered = 0u64;
                let mut now = 0u64;
                while delivered < 2_000 {
                    while link.space() > 0 {
                        let f = Flit::new(PacketId(pid), seq, 0, seq + 1 == LEN);
                        seq += 1;
                        if seq == LEN {
                            seq = 0;
                            pid += 1;
                        }
                        link.push(now, arena.alloc(f), OrderClass::InOrder, Priority::Normal);
                    }
                    link.advance(now, &arena, &mut |_| {});
                    while let Some((fref, _)) = link.pop_delivered() {
                        arena.free(fref);
                        delivered += 1;
                    }
                    assert!(
                        link.rob_occupancy() <= bound,
                        "B_p={parallel_bw} B_s={serial_bw} D_p={parallel_lat} \
                         D_s={serial_lat} {policy:?}: ROB holds {} waiting flits, \
                         Eq. 1 bound is {bound}",
                        link.rob_occupancy()
                    );
                    now += 1;
                    assert!(now < 50_000, "link made no progress");
                }
                // The watermark may additionally count one cycle's
                // arrivals that drain in the same cycle; beyond that it
                // too sits under the analytical bound.
                assert!(
                    link.rob_watermark() <= bound + params.total_bw() as usize,
                    "B_p={parallel_bw} B_s={serial_bw} D_p={parallel_lat} \
                     D_s={serial_lat} {policy:?}: watermark {} exceeds {bound} + {}",
                    link.rob_watermark(),
                    params.total_bw()
                );
            }
        }
    }
}

/// The `rob_occupancy_max` gauge agrees with the analytical Eq. 1
/// capacity `S_rob = B_p · (D_s − D_p)`: in a full system run with the
/// metrics registry armed, no hetero-PHY link's recorded maximum
/// occupancy exceeds the bound its parameters imply — and under real
/// load the instrumentation actually observes occupancy (the gauges are
/// not vacuously zero).
#[test]
fn rob_gauge_max_respects_eq1_bound() {
    use hetero_chiplet::heterosys::presets::NetworkKind;
    use hetero_chiplet::heterosys::sim::{run, RunSpec};
    use hetero_chiplet::heterosys::{SchedulingProfile, SimConfig};
    use hetero_chiplet::sim::metrics::MetricValue;
    use hetero_chiplet::traffic::SyntheticWorkload;

    let geom = Geometry::new(2, 2, 2, 2);
    for kind in [NetworkKind::HeteroPhyFull, NetworkKind::HeteroPhyHalf] {
        let config = SimConfig::default().with_seed(7);
        let mut net = kind.build(geom, config, SchedulingProfile::balanced());
        net.enable_metrics();
        let bound = net.config().phy_params().rob_capacity() as u64;
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.15, 16, 7);
        let out = run(&mut net, &mut w, RunSpec::smoke());
        assert!(out.drained, "{kind:?}: run did not drain");
        let snap = net.metrics_snapshot();
        let mut gauges = 0usize;
        let mut peak = 0u64;
        for e in snap.entries() {
            if e.spec.name != "rob_occupancy_max" {
                continue;
            }
            let MetricValue::Scalar(v) = e.value else {
                panic!("rob_occupancy_max must be a scalar gauge");
            };
            assert!(
                v <= bound,
                "{kind:?}: gauge {}{} holds {v}, Eq. 1 bound is {bound}",
                e.spec.name,
                e.spec.label_str()
            );
            gauges += 1;
            peak = peak.max(v);
        }
        assert!(gauges > 0, "{kind:?}: no per-link ROB gauges registered");
        assert!(
            peak > 0,
            "{kind:?}: every ROB gauge is zero — instrumentation saw no occupancy"
        );
    }
}

#[test]
fn shard_partition_never_changes_results() {
    use hetero_chiplet::heterosys::sim::{run, RunSpec};
    use hetero_chiplet::heterosys::{NetworkKind, SchedulingProfile, SimConfig};
    use hetero_chiplet::traffic::SyntheticWorkload;

    // Randomized geometries, presets, rates and seeds: the serial
    // (1-shard) engine and the sharded engine at an arbitrary thread
    // count must produce equal `SimResults` — the partition is an
    // execution detail, never an observable.
    let kinds = [
        NetworkKind::UniformParallelMesh,
        NetworkKind::UniformSerialTorus,
        NetworkKind::HeteroPhyFull,
        NetworkKind::HeteroChannelFull,
    ];
    let mut rng = SimRng::seed(0x5AAD);
    for case in 0..12 {
        // Power-of-two chiplet counts keep every preset buildable
        // (hypercube-linked systems require them).
        let cx = 2 * (1 + rng.below(2) as u16);
        let cy = 2 * (1 + rng.below(2) as u16);
        let geom = Geometry::new(cx, cy, 2, 2);
        let kind = kinds[rng.below(kinds.len() as u64) as usize];
        let rate = 0.05 + rng.below(10) as f64 * 0.01;
        let seed = 1000 + rng.below(1 << 20);
        let threads = 2 + rng.below(7) as usize; // 2..=8
        let mut results = Vec::new();
        for t in [1usize, threads] {
            let config = SimConfig::default().with_seed(seed).with_shard_threads(t);
            let mut net = kind.build(geom, config, SchedulingProfile::balanced());
            let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
            let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, rate, 16, seed);
            let out = run(&mut net, &mut w, RunSpec::smoke());
            results.push((out.drained, out.deadlocked, out.results));
        }
        assert_eq!(
            results[0], results[1],
            "case {case}: 1 shard vs {threads} threads diverged \
             ({kind:?}, {cx}x{cy} chiplets, rate {rate}, seed {seed})"
        );
    }
}

/// The idle-skip fast-forward's soundness condition, checked directly:
/// whenever [`Network::next_event`] returns a bound beyond the current
/// cycle, stepping the network through the intervening cycles is a total
/// no-op — no flit moves, nothing is delivered, the activity clock keeps
/// counting idle. A bound that is ever *late* (something acts before it)
/// would mean the fast-forward teleports over real work; this drives the
/// engine cycle by cycle, recomputing the bound after every workload
/// poll, and fails on the first actionable cycle inside a claimed-quiet
/// stretch. Cases cover pending injections, go-back-N retry timeouts and
/// fault-script edges.
#[test]
fn next_event_bound_is_never_late() {
    use hetero_chiplet::heterosys::presets::NetworkKind;
    use hetero_chiplet::heterosys::{
        FaultEvent, FaultScript, FaultTarget, SchedulingProfile, SimConfig, TimedFault,
    };
    use hetero_chiplet::phy::PhyKind;
    use hetero_chiplet::traffic::{SyntheticWorkload, Workload};

    let kinds = [
        NetworkKind::UniformSerialTorus,
        NetworkKind::HeteroPhyFull,
        NetworkKind::HeteroChannelFull,
    ];
    let mut rng = SimRng::seed(0x5C1B);
    for case in 0..10 {
        let geom = Geometry::new(2, 2, 2, 2);
        let kind = kinds[rng.index(kinds.len())];
        // Low rates leave long quiescent stretches — the regime where a
        // late bound would actually be exercised.
        let rate = 0.002 + rng.below(8) as f64 * 0.002;
        let seed = 100 + rng.below(1 << 16);
        let mut config = SimConfig::default().with_seed(seed);
        if case % 2 == 0 {
            // Retry path armed with a BER high enough that go-back-N
            // timeouts land inside otherwise-quiet stretches.
            config = config.with_ber(1e-3).with_retry();
        }
        let mut net = kind.build(geom, config, SchedulingProfile::balanced());
        if case % 3 == 0 {
            net.set_fault_script(FaultScript::new(vec![
                TimedFault {
                    at: 700,
                    target: FaultTarget::All,
                    event: FaultEvent::PhyDown(PhyKind::Serial),
                },
                TimedFault {
                    at: 1400,
                    target: FaultTarget::All,
                    event: FaultEvent::PhyUp(PhyKind::Serial),
                },
            ]));
        }
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, rate, 16, seed);
        let mut buf = Vec::new();
        for _ in 0..2500u64 {
            w.poll(net.now(), &mut buf);
            for req in buf.drain(..) {
                net.offer(req);
            }
            let now = net.now();
            let bound = net.next_event();
            assert!(
                bound >= now,
                "case {case} ({kind:?}): bound {bound} is in the past at {now}"
            );
            let idle_before = net.idle_cycles();
            let delivered_before = net.collector().delivered_flits;
            let live_before = net.live_packets();
            net.step();
            if bound > now {
                // Inside a claimed-quiet stretch the step must change
                // nothing observable: no delivery, no packet state
                // change, and the idle clock advances by exactly one.
                assert_eq!(
                    net.collector().delivered_flits,
                    delivered_before,
                    "case {case} ({kind:?}): delivery at {now}, bound said {bound}"
                );
                assert_eq!(
                    net.live_packets(),
                    live_before,
                    "case {case} ({kind:?}): packet state changed at {now}, \
                     bound said {bound}"
                );
                assert_eq!(
                    net.idle_cycles(),
                    idle_before + 1,
                    "case {case} ({kind:?}): activity at {now}, bound said {bound}"
                );
            }
        }
    }
}

/// Regression fixture for the interaction the next-event bound exists
/// for: a go-back-N retransmission whose retry timeout expires inside a
/// stretch the fast-forward would otherwise skip. With a corrupted flit
/// in the replay window and no other traffic, the network goes quiet
/// until `last_progress + retry_timeout`; the bound must stop the skip
/// there so the retransmit fires on its exact cycle. The run is pinned
/// to actually retransmit, and the skip and tick loops must agree
/// bit-for-bit on every result field.
#[test]
fn retransmit_inside_skipped_stretch_is_bit_identical() {
    use hetero_chiplet::heterosys::presets::NetworkKind;
    use hetero_chiplet::heterosys::sim::{run, RunSpec};
    use hetero_chiplet::heterosys::{SchedulingProfile, SimConfig};
    use hetero_chiplet::traffic::SyntheticWorkload;

    let geom = Geometry::new(2, 2, 2, 2);
    for threads in [1usize, 4] {
        let mut outcomes = Vec::new();
        for skip in [false, true] {
            let config = SimConfig::default()
                .with_seed(0x60BA)
                .with_ber(5e-3)
                .with_retry()
                .with_shard_threads(threads)
                .with_idle_skip(skip);
            let mut net =
                NetworkKind::UniformSerialTorus.build(geom, config, SchedulingProfile::balanced());
            let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
            // A trickle of traffic: single packets with long quiet gaps,
            // so every retry timeout sits in a would-be-skipped stretch.
            let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.004, 16, 0x60BA);
            let out = run(&mut net, &mut w, RunSpec::quick());
            assert!(
                out.results.retransmitted_flits > 0,
                "fixture lost its trigger: no retransmission occurred \
                 (threads {threads}, skip {skip})"
            );
            outcomes.push((out.drained, out.deadlocked, out.results));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "skip vs tick diverged on the retransmit fixture at {threads} thread(s)"
        );
    }
}

/// Collective builders (the phase-workload substrate): the ring and
/// binomial-tree all-reduce of the same logical gradient move identical
/// total flit volume — `2(N−1)·grad` — and the ring schedule loads
/// every rank identically (each rank both sends and receives exactly
/// `2(N−1)·grad/N` flits). Randomized over rank count and gradient
/// size; any asymmetry here would silently bias the Eq. 5 / §5.3
/// scheduling comparisons built on these workloads.
#[test]
fn ring_and_tree_all_reduce_move_identical_totals_and_ring_is_per_rank_uniform() {
    use hetero_chiplet::traffic::collectives::{ring_all_reduce, tree_all_reduce};

    let mut rng = SimRng::seed(0xC011);
    for _ in 0..CASES {
        let n = 2 + rng.below(15) as usize;
        // Keep the gradient divisible by N so ring chunks carry the
        // whole tensor with no rounding remainder.
        let grad = (1 + rng.below(64) as u32) * n as u32;
        let ranks: Vec<NodeId> = (0..n as u32).map(NodeId).collect();

        let ring = ring_all_reduce(&ranks, grad / n as u32, 100, 0);
        let tree = tree_all_reduce(&ranks, u16::try_from(grad).expect("grad fits u16"), 100, 0);

        let volume = |t: &hetero_chiplet::traffic::TraceWorkload| -> u64 {
            t.events().iter().map(|&(_, r)| u64::from(r.len)).sum()
        };
        let expected = 2 * (n as u64 - 1) * u64::from(grad);
        assert_eq!(volume(&ring), expected, "ring volume (n={n}, grad={grad})");
        assert_eq!(volume(&tree), expected, "tree volume (n={n}, grad={grad})");

        // Ring symmetry: identical totals per rank, sent and received.
        let mut sent = vec![0u64; n];
        let mut recv = vec![0u64; n];
        for &(_, r) in ring.events() {
            sent[r.src.0 as usize] += u64::from(r.len);
            recv[r.dst.0 as usize] += u64::from(r.len);
        }
        let per_rank = expected / n as u64;
        assert!(
            sent.iter().chain(&recv).all(|&f| f == per_rank),
            "ring must load every rank with exactly {per_rank} flits each way (n={n})"
        );
    }
}

/// Every round of the shifted all-to-all schedule is a permutation of
/// the ranks: each rank sends exactly once and receives exactly once,
/// never to itself. A round that double-targets a rank would create
/// artificial endpoint contention the algorithm is designed to avoid.
#[test]
fn all_to_all_rounds_are_permutations() {
    use hetero_chiplet::traffic::collectives::all_to_all;
    use std::collections::BTreeMap;

    let mut rng = SimRng::seed(0xA2A);
    for _ in 0..CASES {
        let n = 2 + rng.below(15) as usize;
        let chunk = 1 + rng.below(40) as u32;
        let gap = 1 + rng.below(30);
        let ranks: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let t = all_to_all(&ranks, chunk, gap, 0);

        // The shift identifies the round: round s sends i → (i+s) mod n,
        // so s is recoverable from every packet's (src, dst). Chunking
        // may emit several packets per pair (spilling past short gaps),
        // but each round's *pair set* must be a fixed-point-free
        // permutation scheduled at the round's start cycle.
        let mut rounds: BTreeMap<usize, Vec<(u32, u32, u64)>> = BTreeMap::new();
        for &(at, r) in t.events() {
            assert_ne!(r.src, r.dst, "self-send at {at}");
            let s = (r.dst.0 as usize + n - r.src.0 as usize) % n;
            rounds.entry(s).or_default().push((r.src.0, r.dst.0, at));
        }
        assert_eq!(rounds.len(), n - 1, "n-1 rounds (n={n}, gap={gap})");
        for (s, pairs) in rounds {
            let mut src_seen = vec![false; n];
            let mut dst_seen = vec![false; n];
            let start = (s as u64 - 1) * gap;
            for &(src, dst, at) in &pairs {
                src_seen[src as usize] = true;
                dst_seen[dst as usize] = true;
                assert!(at >= start, "round {s} packet before its start cycle");
            }
            assert!(
                src_seen.iter().all(|&b| b) && dst_seen.iter().all(|&b| b),
                "round {s} is not a permutation (n={n})"
            );
        }
    }
}

/// Barrier rounds are dependency-ordered in the phase-graph form: the
/// DNN builder's `sync<k>` phases form a chain (round k+1 depends on
/// round k), each round's notification jumps by exactly 2^k ranks, and
/// after ⌈log₂N⌉ rounds every rank has transitively heard from every
/// other — the dissemination property that makes it a barrier at all.
#[test]
fn barrier_rounds_are_dependency_ordered_and_disseminate() {
    use hetero_chiplet::traffic::{DnnSpec, PhaseGraph};

    let mut rng = SimRng::seed(0xBA44);
    for _ in 0..CASES / 4 {
        let n = 2 + rng.below(15) as usize;
        let spec = DnnSpec::parse(&format!(
            "ranks={n},layers=1,fwd=8,grad={},compute=4,allreduce=ring",
            8 * n
        ))
        .expect("valid spec");
        let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let graph = PhaseGraph::dnn(&spec, &nodes);

        let sync: Vec<(usize, &hetero_chiplet::traffic::PhaseSpec)> = graph
            .phases()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.name.starts_with("sync"))
            .collect();
        let rounds = usize::BITS as usize - (n - 1).leading_zeros() as usize;
        assert_eq!(sync.len(), rounds, "⌈log₂{n}⌉ barrier rounds");

        // reached[i][j]: rank i's arrival is known transitively at rank j.
        let mut reached: Vec<Vec<bool>> =
            (0..n).map(|i| (0..n).map(|j| j == i).collect()).collect();
        for (k, (idx, phase)) in sync.iter().enumerate() {
            // Chain dependency: each round waits on the phase before it,
            // which for k>0 is the previous sync round.
            assert_eq!(
                phase.deps,
                vec![idx - 1],
                "sync{k} must depend on its predecessor"
            );
            for (at, req) in &phase.events {
                assert_eq!(*at, 0, "barrier notifications fire at release");
                assert_eq!(req.len, 1);
                let (s, d) = (req.src.0 as usize, req.dst.0 as usize);
                assert_eq!(d, (s + (1 << k)) % n, "round {k} jumps 2^{k}");
                // The notification carries everything s has heard so far.
                let known: Vec<usize> = (0..n).filter(|&i| reached[i][s]).collect();
                for i in known {
                    reached[i][d] = true;
                }
            }
        }
        assert!(
            reached.iter().all(|row| row.iter().all(|&b| b)),
            "after {rounds} dependency-ordered rounds every rank must have \
             heard from every other (n={n})"
        );
    }
}
