//! The simulation driver: warm-up, measurement, drain, deadlock watchdog.

use crate::engine::{Hub, ShardedEngine};
use crate::network::{Collector, Fabric, Network};
use crate::results::SimResults;
use chiplet_traffic::{PacketRequest, Workload};
use simkit::Cycle;

/// How long to run each phase of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Warm-up cycles (packets created here are excluded from statistics).
    pub warmup: Cycle,
    /// Measurement cycles.
    pub measure: Cycle,
    /// Maximum extra cycles spent draining in-flight packets after the
    /// measurement window (saturated runs won't drain; their backlog is
    /// reported instead).
    pub drain: Cycle,
    /// Cycles of total inactivity with live packets after which the run
    /// aborts (deadlock watchdog).
    pub watchdog: Cycle,
    /// Whether to keep polling the workload during the drain phase. Set
    /// for trace replays (the trace should finish); open-loop synthetic
    /// workloads must stop offering at the window edge or they would never
    /// drain.
    pub drain_offers: bool,
}

impl RunSpec {
    /// The paper's Table 2 schedule: 100 000 cycles with 10 000 warm-up.
    pub fn paper() -> Self {
        Self {
            warmup: 10_000,
            measure: 90_000,
            drain: 20_000,
            watchdog: 5_000,
            drain_offers: false,
        }
    }

    /// A shape-preserving quick schedule for benches and tests.
    pub fn quick() -> Self {
        Self {
            warmup: 1_000,
            measure: 6_000,
            drain: 6_000,
            watchdog: 5_000,
            drain_offers: false,
        }
    }

    /// An even shorter schedule for unit tests.
    pub fn smoke() -> Self {
        Self {
            warmup: 200,
            measure: 1_500,
            drain: 3_000,
            watchdog: 3_000,
            drain_offers: false,
        }
    }

    /// Enables workload polling during the drain phase (trace replays).
    pub fn with_drain_offers(mut self) -> Self {
        self.drain_offers = true;
        self
    }
}

/// Outcome of a completed run: the results, plus how the run ended.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Aggregated results over the measurement window.
    pub results: SimResults,
    /// Whether every packet was delivered by the end of the drain phase.
    pub drained: bool,
    /// Whether the inactivity watchdog aborted a fault-free run: live
    /// packets made no progress for [`RunSpec::watchdog`] consecutive
    /// cycles with no fault injection active. The routing algorithms in
    /// this workspace are deadlock-free, so a set flag indicates a
    /// configuration or simulator bug; results cover only the cycles
    /// before the abort.
    pub deadlocked: bool,
    /// Whether the watchdog aborted a run with active fault injection
    /// (nonzero BER or a fault script): traffic wedged on failed hardware
    /// — e.g. a homogeneous system that lost its only PHY family — rather
    /// than a routing bug. Mutually exclusive with
    /// [`RunOutcome::deadlocked`].
    pub fault_stalled: bool,
}

/// One progress sample of a [`run_timeline`] run, read at the end of a
/// sampled cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// The sampled cycle.
    pub cycle: Cycle,
    /// Packets alive anywhere (queued or in flight).
    pub live: u64,
    /// Packets waiting in source queues.
    pub queued: u64,
    /// Packets delivered so far (measured or not).
    pub delivered_packets: u64,
    /// Flits delivered so far.
    pub delivered_flits: u64,
}

/// The progress sampler [`drive`] feeds: the sampling interval and the
/// samples taken so far.
pub(crate) struct Timeline {
    every: Cycle,
    samples: Vec<Sample>,
}

/// Runs `workload` on `net` according to `spec`.
///
/// The workload is polled once per cycle through warm-up and measurement;
/// during the drain phase it is polled only until it reports
/// [`Workload::done`] (open-loop synthetic workloads never do, so draining
/// stops offering new traffic at the window edge).
///
/// If the deadlock watchdog fires, the run stops early with
/// [`RunOutcome::deadlocked`] set instead of running out the clock.
///
/// Networks built with [`crate::SimConfig::shard_threads`] > 1 run their
/// cycle loop on a persistent worker pool (one thread per shard); the
/// workload stays on the calling thread, and the outcome is bit-identical
/// to the serial engine's.
pub fn run(net: &mut Network, workload: &mut dyn Workload, spec: RunSpec) -> RunOutcome {
    dispatch(net, workload, spec, None, None).expect("a run without a halt point completes")
}

/// Like [`run`], and also samples the network's progress at the end of
/// every cycle that is a multiple of `every` (clamped to at least 1),
/// through warm-up, measurement and drain.
///
/// Sampling only reads counters, so the outcome is bit-identical to
/// [`run`]'s, and idle-skip stays on: a skipped cycle is sampled like a
/// stepped one.
pub fn run_timeline(
    net: &mut Network,
    workload: &mut dyn Workload,
    spec: RunSpec,
    every: Cycle,
) -> (RunOutcome, Vec<Sample>) {
    let mut timeline = Timeline {
        every: every.max(1),
        samples: Vec::new(),
    };
    let outcome = dispatch(net, workload, spec, None, Some(&mut timeline))
        .expect("a run without a halt point completes");
    (outcome, timeline.samples)
}

/// Like [`run`], but halts at the start of cycle `halt_at` — before that
/// cycle's workload poll — returning `None` with the network parked at a
/// between-cycles boundary, ready for [`Network::checkpoint`].
///
/// The schedule is *resumable*: running a freshly restored network (one
/// whose [`Network::now`] already sits mid-schedule) with the same spec
/// continues exactly where the saved run halted — warm-up cycles already
/// behind the checkpoint are skipped, and the measurement window closes
/// at the same absolute cycle. A halted-then-resumed run is bit-identical
/// to an uninterrupted one (the golden checkpoint matrix pins this).
///
/// Returns `Some(outcome)` when the run ends before reaching `halt_at`
/// (deadlock or fault stall).
///
/// # Panics
///
/// Panics if `halt_at` is in the past or beyond the end of the
/// measurement window (`spec.warmup + spec.measure`) — the drain phase
/// has no well-defined resume point.
pub fn run_until(
    net: &mut Network,
    workload: &mut dyn Workload,
    spec: RunSpec,
    halt_at: Cycle,
) -> Option<RunOutcome> {
    dispatch(net, workload, spec, Some(halt_at), None)
}

fn dispatch(
    net: &mut Network,
    workload: &mut dyn Workload,
    spec: RunSpec,
    halt_at: Option<Cycle>,
    timeline: Option<&mut Timeline>,
) -> Option<RunOutcome> {
    if net.num_shards() > 1 {
        crate::parallel::run_parallel(net, workload, spec, halt_at, timeline)
    } else {
        drive(net, workload, spec, halt_at, timeline)
    }
}

/// One cycle-loop endpoint the driver can run: the serial [`Network`]
/// itself, or the parallel pool leader ([`crate::parallel`]). The two
/// share the fabric, the engine and the hub, and differ only in how they
/// reach the shards and the store: the network through `get_mut`, the
/// leader through locks while its pool is parked. So the
/// warm-up/measure/drain schedule, the watchdog and the progress sampler
/// live in exactly one place — [`drive`] — and every other query is
/// answered once, by a default method over the shared parts.
pub(crate) trait CycleDriver {
    /// The fabric, the engine and the hub.
    fn parts(&self) -> (&Fabric, &ShardedEngine, &Hub);
    fn hub_mut(&mut self) -> &mut Hub;
    fn offer(&mut self, req: PacketRequest);
    fn step(&mut self);
    fn live_packets(&mut self) -> usize;
    /// The earliest cycle ≥ `now` at which the driver can make progress:
    /// a pending delivery, ack or retry timeout on a link, a non-empty
    /// mailbox, an active router or NIC (both pin the bound to `now`), or
    /// the next unapplied fault-script event. [`Cycle::MAX`] when nothing
    /// is scheduled. The bound need not be tight, only never late.
    fn next_event(&mut self) -> Cycle;

    fn now(&self) -> Cycle {
        self.parts().1.now()
    }

    fn queued_packets(&self) -> usize {
        self.parts().1.queued_packets()
    }

    fn collector(&self) -> &Collector {
        &self.parts().2.collector
    }

    fn idle_cycles(&self) -> Cycle {
        self.now() - self.parts().2.last_activity
    }

    fn faults_active(&self) -> bool {
        let (fabric, _, hub) = self.parts();
        let fault = &fabric.wiring.config.fault;
        fault.ber_serial > 0.0 || fault.ber_parallel > 0.0 || !hub.script.is_empty()
    }

    fn start_measurement(&mut self) {
        let now = self.now();
        self.hub_mut().start_measurement(now);
    }

    /// Node count (for per-node result normalization).
    fn nodes(&self) -> u32 {
        let topo = self.parts().0.topo.read().expect("topology lock poisoned");
        topo.geometry().nodes()
    }

    /// Advances the clock one cycle without simulating it. Only sound
    /// when [`Self::next_event`] is in the future: a step on a
    /// fully quiescent network is a total no-op except `now += 1`, so
    /// eliding it is bit-identical to running it. A pool stays parked
    /// through the whole skipped stretch: its workers only read the clock
    /// after a release, so they never see the intermediate values.
    fn tick_idle(&mut self) {
        self.parts().1.tick_idle();
    }

    /// Whether the configuration allows the idle-skip fast path.
    fn skip_enabled(&self) -> bool {
        self.parts().0.wiring.config.idle_skip
    }
}

impl CycleDriver for Network {
    fn parts(&self) -> (&Fabric, &ShardedEngine, &Hub) {
        (&self.fabric, &self.engine, &self.hub)
    }
    fn hub_mut(&mut self) -> &mut Hub {
        &mut self.hub
    }
    fn offer(&mut self, req: PacketRequest) {
        Network::offer(self, req);
    }
    fn step(&mut self) {
        Network::step(self);
    }
    fn live_packets(&mut self) -> usize {
        self.engine.live_packets_mut()
    }
    fn next_event(&mut self) -> Cycle {
        Network::next_event(self)
    }
}

/// The warm-up → measure → drain schedule over any [`CycleDriver`].
///
/// Phase boundaries are *absolute cycles* (`spec.warmup`,
/// `spec.warmup + spec.measure`), not counted loops, so a driver whose
/// clock already sits mid-schedule — a restored checkpoint — resumes in
/// the right phase and runs the same total cycles as an uninterrupted
/// run. On a fresh driver (`now == 0`) this is the classic schedule.
/// `halt_at` stops the run at the start of that cycle (before its
/// workload poll) and returns `None`; the driver is then parked at a
/// between-cycles boundary. A `timeline` is sampled at the end of each
/// of its cycles, whether that cycle was stepped or skipped.
pub(crate) fn drive<D: CycleDriver>(
    net: &mut D,
    workload: &mut dyn Workload,
    spec: RunSpec,
    halt_at: Option<Cycle>,
    mut timeline: Option<&mut Timeline>,
) -> Option<RunOutcome> {
    let initial = net.now();
    if let Some(h) = halt_at {
        assert!(
            h >= initial,
            "halt point {h} is in the past (now = {initial})"
        );
        assert!(
            h <= spec.warmup + spec.measure,
            "halt point {h} is beyond the measurement window"
        );
    }
    let mut buf = Vec::new();
    let mut deadlocked = false;
    let mut fault_stalled = false;
    // Idle-skip: when the driver is quiescent, eliding a cycle's step is
    // bit-identical to running it (the step would be a total no-op except
    // `now += 1`). `skip_until` caches the driver's next-event bound so
    // a long quiescent stretch computes it once, not every cycle; any
    // offer or real step invalidates the cache. The workload is still
    // polled every cycle (its RNG draws are per-cycle) and the halt/
    // watchdog checks below run unchanged, so phase boundaries, halt
    // points and watchdog aborts land on the identical cycles.
    let skip = net.skip_enabled();
    let mut skip_until: Cycle = 0;
    // Ejection feedback for dependency-driven workloads: cumulative
    // per-tag delivered counts copied out of the collector (deliveries
    // merge at the end of cycle T, the workload observes them at the top
    // of T+1, so a dependent phase starts strictly after its
    // predecessor's last ejection). The copy is refreshed only in cycles
    // after a delivery merged; it stays empty for untagged workloads.
    let mut tag_scratch: Vec<u64> = Vec::new();
    let mut tags_as_of = u64::MAX;

    // One cycle: poll (optionally), step or skip, sample, watchdog.
    macro_rules! cycle {
        ($poll:expr) => {{
            if $poll {
                let c = net.collector();
                if c.delivered_packets != tags_as_of {
                    tags_as_of = c.delivered_packets;
                    tag_scratch.clear();
                    tag_scratch.extend(c.by_tag.iter().map(|s| s.delivered));
                }
                workload.observe(net.now(), &tag_scratch);
                workload.poll(net.now(), &mut buf);
                if !buf.is_empty() {
                    skip_until = 0;
                }
                for req in buf.drain(..) {
                    net.offer(req);
                }
            }
            if skip {
                if net.now() >= skip_until {
                    skip_until = net.next_event();
                }
                if net.now() < skip_until {
                    net.tick_idle();
                } else {
                    net.step();
                    skip_until = 0;
                }
            } else {
                net.step();
            }
            if let Some(t) = timeline.as_deref_mut() {
                let cycle = net.now() - 1;
                if cycle.is_multiple_of(t.every) {
                    t.samples.push(Sample {
                        cycle,
                        live: net.live_packets() as u64,
                        queued: net.queued_packets() as u64,
                        delivered_packets: net.collector().delivered_packets,
                        delivered_flits: net.collector().delivered_flits,
                    });
                }
            }
            if net.live_packets() > 0 && net.idle_cycles() > spec.watchdog {
                // Stalling on failed hardware is expected degradation;
                // stalling on healthy hardware is a routing deadlock.
                if net.faults_active() {
                    fault_stalled = true;
                } else {
                    deadlocked = true;
                }
            }
            !(deadlocked || fault_stalled)
        }};
    }

    if initial <= spec.warmup {
        while net.now() < spec.warmup {
            if halt_at == Some(net.now()) {
                return None;
            }
            if !cycle!(true) {
                break;
            }
        }
        if !(deadlocked || fault_stalled)
            && halt_at == Some(spec.warmup)
            && net.now() == spec.warmup
        {
            return None;
        }
        // A resume past the warm-up boundary must NOT re-arm measurement:
        // the restored window already marks the original start.
        net.start_measurement();
    }
    let measure_start = if initial > spec.warmup {
        spec.warmup
    } else {
        net.now()
    };
    let window_end = spec.warmup + spec.measure;
    if !(deadlocked || fault_stalled) {
        while net.now() < window_end {
            if halt_at == Some(net.now()) {
                return None;
            }
            if !cycle!(true) {
                break;
            }
        }
        if !(deadlocked || fault_stalled) && halt_at == Some(window_end) && net.now() == window_end
        {
            return None;
        }
    }
    let cycles = net.now() - measure_start;
    // Backlog at the *end of the measurement window* is the saturation
    // signal: everything offered but not yet delivered.
    let backlog = net.live_packets() as u64;
    let mut drained = net.live_packets() == 0;
    if !(deadlocked || fault_stalled) {
        for _ in 0..spec.drain {
            if net.live_packets() == 0 && (!spec.drain_offers || workload.done()) {
                drained = true;
                break;
            }
            let poll = spec.drain_offers && !workload.done();
            if !cycle!(poll) {
                break;
            }
            drained = net.live_packets() == 0;
        }
    }
    if deadlocked || fault_stalled {
        drained = false;
    }
    let results = SimResults::from_collector(net.collector(), net.nodes(), cycles, backlog);
    Some(RunOutcome {
        results,
        drained,
        deadlocked,
        fault_stalled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use chiplet_topo::{build, routing, Geometry, SystemKind};
    use chiplet_traffic::{SyntheticWorkload, TrafficPattern};

    fn net(kind: SystemKind, geom: Geometry) -> Network {
        let topo = match kind {
            SystemKind::ParallelMesh => build::parallel_mesh(geom),
            SystemKind::SerialTorus => build::serial_torus(geom),
            SystemKind::HeteroPhyTorus => build::hetero_phy_torus(geom),
            SystemKind::SerialHypercube => build::serial_hypercube(geom),
            SystemKind::HeteroChannel => build::hetero_channel(geom),
            SystemKind::MultiPackageRow => build::multi_package(
                geom.chiplets_x(),
                1,
                geom.chiplets_y(),
                geom.chip_w(),
                geom.chip_h(),
            ),
        };
        Network::new(topo, routing::for_system(kind, 2), SimConfig::default())
    }

    #[test]
    fn light_uniform_traffic_runs_and_drains() {
        let geom = Geometry::new(2, 2, 2, 2);
        let mut n = net(SystemKind::ParallelMesh, geom);
        let nodes = (0..geom.nodes()).map(chiplet_topo::NodeId).collect();
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.05, 16, 7);
        let out = run(&mut n, &mut w, RunSpec::smoke());
        assert!(out.drained, "light load must drain");
        assert!(!out.deadlocked);
        assert!(out.results.packets > 10);
        assert!(!out.results.is_saturated());
        assert!(out.results.avg_latency > 10.0);
        assert!(out.results.throughput > 0.0);
        // Percentiles populated and ordered.
        assert!(out.results.p50_latency > 0.0);
        assert!(out.results.p99_latency >= out.results.p50_latency);
        assert!(out.results.p99_latency <= out.results.max_latency + 4.0);
    }

    #[test]
    fn hetero_phy_torus_beats_serial_torus_at_low_load() {
        // The paper's core zero-load claim (Fig. 11): serial-IF tori pay
        // the 20-cycle interface delay; hetero-PHY tori use the parallel
        // PHY for neighbor hops.
        let geom = Geometry::new(2, 2, 2, 2);
        let nodes: Vec<_> = (0..geom.nodes()).map(chiplet_topo::NodeId).collect();
        let lat = |kind| {
            let mut n = net(kind, geom);
            let mut w = SyntheticWorkload::new(nodes.clone(), TrafficPattern::Uniform, 0.02, 16, 7);
            run(&mut n, &mut w, RunSpec::smoke()).results.avg_latency
        };
        let serial = lat(SystemKind::SerialTorus);
        let hetero = lat(SystemKind::HeteroPhyTorus);
        assert!(
            hetero < serial,
            "hetero-PHY {hetero:.1} should beat uniform-serial {serial:.1}"
        );
    }

    #[test]
    fn saturated_run_reports_backlog_not_hang() {
        let geom = Geometry::new(2, 2, 2, 2);
        let mut n = net(SystemKind::ParallelMesh, geom);
        let nodes = (0..geom.nodes()).map(chiplet_topo::NodeId).collect();
        // 3 flits/cycle/node exceeds even the injection bandwidth (2).
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::BitComplement, 3.0, 16, 8);
        let out = run(&mut n, &mut w, RunSpec::smoke());
        // The backlog at the window edge flags saturation (whether or not
        // the drain phase later manages to empty the queues).
        assert!(out.results.is_saturated());
        assert!(out.results.backlog > out.results.packets);
        assert!(!out.deadlocked, "congestion is not deadlock");
    }

    #[test]
    fn hetero_channel_runs_under_uniform_load() {
        let geom = Geometry::new(4, 4, 3, 3);
        let mut n = net(SystemKind::HeteroChannel, geom);
        let nodes = (0..geom.nodes()).map(chiplet_topo::NodeId).collect();
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.1, 16, 9);
        let out = run(&mut n, &mut w, RunSpec::smoke());
        assert!(out.results.packets > 50);
        assert!(
            out.results.avg_serial_pj > 0.0,
            "distant pairs should use the hypercube"
        );
    }

    #[test]
    fn over_tight_watchdog_flags_deadlock_instead_of_panicking() {
        // A serial-torus hop keeps a flit in its 20-cycle delay line with
        // no other activity, so a 3-cycle watchdog must fire — exercising
        // the deadlocked outcome without needing a genuinely broken
        // network.
        let geom = Geometry::new(2, 2, 2, 2);
        let nodes: Vec<_> = (0..geom.nodes()).map(chiplet_topo::NodeId).collect();
        let mut spec = RunSpec::smoke();
        spec.watchdog = 3;
        let mut n = net(SystemKind::SerialTorus, geom);
        let mut w = SyntheticWorkload::new(nodes.clone(), TrafficPattern::Uniform, 0.02, 16, 7);
        let out = run(&mut n, &mut w, spec);
        assert!(out.deadlocked);
        assert!(!out.drained);
        // The same run under a sane watchdog completes.
        let mut n = net(SystemKind::SerialTorus, geom);
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.02, 16, 7);
        let out = run(&mut n, &mut w, RunSpec::smoke());
        assert!(!out.deadlocked);
        assert!(out.drained);
    }
}
