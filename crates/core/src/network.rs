//! Network assembly: routers, media, credit latencies and port maps.
//!
//! A [`Network`] instantiates one router per node of a
//! [`SystemTopology`], one medium per directed link (the lane budget of
//! a plain fixed-latency pipeline for on-chip/parallel/serial links, a
//! retry-guarded pipeline when the fault model is armed, a
//! [`HeteroPhyLink`] for hetero-PHY links), each link's credit return
//! latency, and per-node NICs (injection queues + ejection accounting),
//! then partitions them into chiplet-group shards. The per-cycle
//! execution lives in the engine's `ShardedEngine` (staged cycles
//! over the shards, serial or on a worker pool — see
//! the `parallel` module); this module holds the immutable system
//! description and the statistics [`Collector`].

use crate::config::SimConfig;
use crate::energy::EnergyModel;
use crate::engine::{Hub, ShardedEngine};
use crate::shard::{Medium, MetricIds, Partition, Shard};
use crate::sim::CycleDriver;
use chiplet_fault::{FaultEvent, FaultScript, FaultTarget, TimedFault};
use chiplet_noc::{Lanes, PacketId, RetryLine, Router};
use chiplet_phy::{HeteroPhyLink, PhyKind};
use chiplet_topo::routing::Routing;
use chiplet_topo::{LinkClass, LinkId, SystemTopology};
use chiplet_traffic::PacketRequest;
use simkit::metrics::{MetricKind, MetricsRegistry, MetricsSnapshot};
use simkit::stats::{Histogram, Running};
use simkit::trace::{
    link_event_code, LinkEvent, TraceEvent, TraceFilter, TraceKind, TraceRing, NO_PID,
};
use simkit::{Cycle, SimRng};
use std::sync::RwLock;

/// Everything known about one delivered packet, reported to the
/// [`Collector`] at the cycle its tail flit ejects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DeliveryEvent {
    /// Delivery cycle (tail ejection).
    pub now: Cycle,
    /// Cycle the packet was created (entered its source queue).
    pub created: Cycle,
    /// Cycle its head flit entered the network.
    pub injected: Cycle,
    /// Head-flit hop count.
    pub hops: u32,
    /// Packet length in flits.
    pub len: u16,
    /// Whether the packet was high-priority.
    pub high_priority: bool,
    /// Whether it fell back to the baseline (escape) subnetwork.
    pub baseline_locked: bool,
    /// Workload phase tag (0 = untagged traffic).
    pub tag: u16,
    /// On-chip traversal energy, pJ.
    pub onchip_pj: f64,
    /// Parallel-interface traversal energy, pJ.
    pub parallel_pj: f64,
    /// Serial-interface traversal energy, pJ.
    pub serial_pj: f64,
}

impl DeliveryEvent {
    /// Creation → delivery latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.now - self.created
    }

    /// Injection → delivery latency in cycles.
    pub fn net_latency(&self) -> Cycle {
        self.now - self.injected
    }

    /// Total traversal energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.onchip_pj + self.parallel_pj + self.serial_pj
    }
}

/// Statistics accumulated over delivered packets.
///
/// The engine folds every packet delivery and link-integrity event into
/// it at the end of each cycle, in the serial engine's order.
#[derive(Debug, Default, Clone)]
pub struct Collector {
    /// Total (creation → delivery) packet latency.
    pub latency: Running,
    /// Network (injection → delivery) packet latency.
    pub net_latency: Running,
    /// Latency of high-priority packets only (application-aware
    /// scheduling metrics, §5.3.2).
    pub latency_high: Running,
    /// Latency distribution (4-cycle buckets up to 8192, for percentiles).
    pub latency_hist: Option<Histogram>,
    /// Head-flit hop counts.
    pub hops: Running,
    /// Per-packet total energy, pJ.
    pub energy: Running,
    /// Sum of on-chip energy over measured packets, pJ.
    pub onchip_pj: f64,
    /// Sum of parallel-interface energy, pJ.
    pub parallel_pj: f64,
    /// Sum of serial-interface energy, pJ.
    pub serial_pj: f64,
    /// All packets delivered (measured or not).
    pub delivered_packets: u64,
    /// All flits delivered.
    pub delivered_flits: u64,
    /// Measured packets delivered.
    pub measured_packets: u64,
    /// Measured flits delivered.
    pub measured_flits: u64,
    /// Measured packets that hit the livelock baseline lock.
    pub locked_packets: u64,
    /// Flits the link layer detected as corrupted (CRC mismatch at a
    /// retry receiver, or a hetero-PHY exit).
    pub corrupted_flits: u64,
    /// Flits retransmitted by the retry layer or a hetero-PHY adapter.
    pub retransmitted_flits: u64,
    /// NAKs sent by retry receivers.
    pub retry_naks: u64,
    /// Retry transmitter timeouts (lost-ack recovery).
    pub retry_timeouts: u64,
    /// Hetero-PHY links that kept serving through a PHY hard failure.
    pub failovers: u64,
    /// Scripted hard faults applied (PHY-down, link-down, lane degrade).
    pub faults_applied: u64,
    /// Per-workload-phase statistics, indexed by packet tag. Grown on
    /// demand when a tagged packet (tag ≥ 1) is delivered, so untagged
    /// runs never allocate; element 0 is a placeholder that stays zero.
    pub by_tag: Vec<TagStats>,
}

/// Delivery statistics for one workload phase tag (see
/// [`chiplet_traffic::PacketRequest::tag`]).
///
/// `delivered` counts **every** delivery — it is the dependency-release
/// signal phase workloads key off, so it must not be gated on the
/// measurement window. The remaining fields cover measured packets only,
/// mirroring the collector's aggregate statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TagStats {
    /// All packets delivered with this tag (measured or not).
    pub delivered: u64,
    /// Measured packets delivered.
    pub packets: u64,
    /// Measured flits delivered.
    pub flits: u64,
    /// Sum of measured (creation → delivery) latencies, cycles.
    pub latency_cycles: u64,
    /// Sum of measured per-packet total energy, pJ.
    pub energy_pj: f64,
    /// Measured flit-hops (packet length × head-flit hops) — the
    /// link-occupancy share this phase put on the network.
    pub flit_hops: u64,
}

impl Collector {
    /// Counts one link-integrity event.
    pub(crate) fn on_link_event(&mut self, ev: LinkEvent) {
        match ev {
            LinkEvent::Corrupt => self.corrupted_flits += 1,
            LinkEvent::Retransmit => self.retransmitted_flits += 1,
            LinkEvent::RetryNak => self.retry_naks += 1,
            LinkEvent::RetryTimeout => self.retry_timeouts += 1,
            LinkEvent::Failover => self.failovers += 1,
            LinkEvent::PhyDown | LinkEvent::LinkDown | LinkEvent::Degrade => {
                self.faults_applied += 1
            }
            LinkEvent::PhyUp | LinkEvent::LinkUp => {}
        }
    }

    /// Folds one packet delivery into the running statistics; it counts
    /// as measured when created at or after `measure_from`.
    pub(crate) fn on_packet_delivered(&mut self, ev: &DeliveryEvent, measure_from: Cycle) {
        self.delivered_packets += 1;
        self.delivered_flits += ev.len as u64;
        if ev.tag != 0 {
            let t = ev.tag as usize;
            if self.by_tag.len() <= t {
                self.by_tag.resize(t + 1, TagStats::default());
            }
            self.by_tag[t].delivered += 1;
        }
        if ev.created < measure_from {
            return;
        }
        self.measured_packets += 1;
        self.measured_flits += ev.len as u64;
        let latency = ev.latency() as f64;
        self.latency.push(latency);
        self.latency_hist
            .get_or_insert_with(|| Histogram::new(4.0, 2048))
            .push(latency);
        if ev.high_priority {
            self.latency_high.push(latency);
        }
        self.net_latency.push(ev.net_latency() as f64);
        self.hops.push(ev.hops as f64);
        self.energy.push(ev.total_pj());
        self.onchip_pj += ev.onchip_pj;
        self.parallel_pj += ev.parallel_pj;
        self.serial_pj += ev.serial_pj;
        if ev.baseline_locked {
            self.locked_packets += 1;
        }
        if ev.tag != 0 {
            let s = &mut self.by_tag[ev.tag as usize];
            s.packets += 1;
            s.flits += ev.len as u64;
            s.latency_cycles += ev.latency();
            s.energy_pj += ev.total_pj();
            s.flit_hops += ev.len as u64 * ev.hops as u64;
        }
    }
}

/// The immutable system description a network is assembled from: the
/// topology behind its lock, and the [`Wiring`] every stage reads.
pub(crate) struct Fabric {
    /// Behind a lock so the parallel driver can share it with the worker
    /// pool; the serial path uses `get_mut` and never locks. Only
    /// scripted hard faults ever take the write side (to edit routing
    /// views), and they run while the pool is parked.
    pub topo: RwLock<SystemTopology>,
    pub wiring: Wiring,
}

/// Everything in the [`Fabric`] but the topology: what every stage reads
/// without a lock.
pub(crate) struct Wiring {
    pub routing: Box<dyn Routing>,
    pub config: SimConfig,
    pub energy_model: EnergyModel,
    /// LinkId → the link as the cycle loop reads it.
    pub links: Vec<WiredLink>,
    /// node → ordered outgoing links (out port k+1 = element k).
    pub outport_links: Vec<Vec<LinkId>>,
    /// node → ordered incoming links (in port k+1 = element k).
    pub inport_links: Vec<Vec<LinkId>>,
}

/// One directed link in one dense record: its ends, the router ports it
/// occupies there and its class. A copy of the topology's link table
/// (which scripted faults never change) plus the port maps, so a hop
/// costs one lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WiredLink {
    /// Transmitting router.
    pub src: u32,
    /// Receiving router.
    pub dst: u32,
    /// Input port on `dst` (1-based).
    pub in_port: u16,
    /// Output port on `src` (1-based).
    pub out_port: u16,
    pub class: LinkClass,
}

/// A fully assembled multi-chiplet network simulation: the immutable
/// fabric (topology, routing, config, energy model, port maps) plus its
/// run state.
pub struct Network {
    pub(crate) fabric: Fabric,
    pub(crate) engine: ShardedEngine,
    /// Orchestrator-side state: collector, measurement window, fault
    /// script, merge scratch.
    pub(crate) hub: Hub,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topo = self.topology();
        f.debug_struct("Network")
            .field("kind", &topo.kind())
            .field("nodes", &topo.geometry().nodes())
            .field("shards", &self.engine.nshards())
            .field("now", &self.engine.now())
            .field("live_packets", &self.engine.live_packets())
            .finish()
    }
}

impl Network {
    /// Assembles a network for `topo` with the given routing algorithm.
    ///
    /// The network is partitioned into up to
    /// [`SimConfig::shard_threads`] chiplet-group shards (capped by the
    /// chiplet count); results are bit-identical at every shard count.
    ///
    /// # Panics
    ///
    /// Panics if the routing algorithm requires more VCs than the config
    /// provides.
    pub fn new(topo: SystemTopology, routing: Box<dyn Routing>, config: SimConfig) -> Self {
        assert!(
            config.vcs >= routing.min_vcs(),
            "{} needs {} VCs, config has {}",
            routing.name(),
            routing.min_vcs(),
            config.vcs
        );
        let n = topo.geometry().nodes() as usize;
        let phy = config.phy_params();
        let serial = config.serial_params_scaled();

        let mut routers: Vec<Router> = (0..n).map(|_| Router::new(config.vcs)).collect();
        let mut media = Vec::with_capacity(topo.links().len());
        let mut credit_latency = Vec::with_capacity(topo.links().len());
        let mut links = Vec::with_capacity(topo.links().len());
        let mut outport_links: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        let mut inport_links: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        // Fault machinery: one RNG stream per hetero-PHY injector, one
        // per-link corruption probability for retry-guarded links. Both
        // stay inert (no RNG ever drawn) while every probability is zero.
        let mut inj_rng = SimRng::seed(config.seed ^ 0xB17_E4404);
        let mut link_ps = vec![0.0f64; topo.links().len()];

        // Port 0 on every router: injection (in) / ejection (out).
        for r in routers.iter_mut() {
            r.add_in_port(config.inj_vc_depth);
            r.add_out_port(config.eject_bandwidth, 0, true);
        }

        for link in topo.links() {
            let (bw, lat, in_depth) = match link.class {
                LinkClass::OnChip => (
                    config.onchip.bandwidth,
                    config.onchip.latency,
                    config.onchip_vc_depth,
                ),
                LinkClass::Parallel => (
                    phy.parallel_bw,
                    config.parallel.latency,
                    config.iface_vc_depth,
                ),
                LinkClass::Serial => (serial.bandwidth, serial.latency, config.iface_vc_depth),
                LinkClass::HeteroPhy => (phy.total_bw(), 0, config.iface_vc_depth),
            };
            // Input port on the destination router.
            let in_port = routers[link.dst.index()].add_in_port(in_depth);
            inport_links[link.dst.index()].push(link.id);
            debug_assert_eq!(in_port as usize, inport_links[link.dst.index()].len());
            // Output port on the source router, crediting the destination's
            // buffer depth. The §4.1 higher-radix crossbar lets interface
            // ports take `bw` flits/cycle from the internal ports; without
            // it they are fed at on-chip speed like a traditional router.
            let port_bw = if config.higher_radix_crossbar || !link.class.is_interface() {
                bw
            } else {
                bw.min(config.onchip.bandwidth)
            };
            let out_port = routers[link.src.index()].add_out_port(port_bw, in_depth, false);
            debug_assert_eq!(link.id.index(), links.len(), "links are listed by id");
            links.push(WiredLink {
                src: link.src.0,
                dst: link.dst.0,
                in_port,
                out_port,
                class: link.class,
            });
            outport_links[link.src.index()].push(link.id);
            debug_assert_eq!(out_port as usize, outport_links[link.src.index()].len());
            // The medium. Plain latencies get +1 for the transmission
            // stage; the hetero adapter's dispatch cycle plays that role
            // for hetero-PHY links. With the fault model armed, interface
            // links get the CRC/replay retry layer (error-free it is
            // cycle-for-cycle identical to the plain pipeline) and
            // hetero-PHY links a BER injector; on-chip wires never fault.
            let medium = match link.class {
                LinkClass::HeteroPhy => {
                    let mut l = HeteroPhyLink::new(phy, config.phy_policy, config.adapter_fifo);
                    l.set_bypass_enabled(config.adapter_bypass);
                    if config.fault.armed() {
                        l.set_fault_injection(
                            inj_rng.fork(link.id.index() as u64),
                            config.fault.p_flit_parallel(),
                            config.fault.p_flit_serial(),
                        );
                    }
                    Medium::Hetero(Box::new(l))
                }
                class if config.fault.armed() && class.is_interface() => {
                    link_ps[link.id.index()] = match class {
                        LinkClass::Parallel => config.fault.p_flit_parallel(),
                        _ => config.fault.p_flit_serial(),
                    };
                    Medium::Guarded(Box::new(RetryLine::new(
                        lat + 1,
                        bw,
                        config.fault.retry_timeout,
                    )))
                }
                _ => Medium::Plain(Lanes::new(lat + 1, bw)),
            };
            media.push(medium);
            let credit_lat = match link.class {
                LinkClass::OnChip => config.onchip.latency,
                LinkClass::Parallel | LinkClass::HeteroPhy => config.parallel.latency,
                LinkClass::Serial => serial.latency,
            };
            credit_latency.push(credit_lat.max(1));
        }

        let part = Partition::new(&topo, config.resolved_shard_threads());
        let engine =
            ShardedEngine::new(routers, media, credit_latency, &link_ps, config.seed, part);
        let wiring = Wiring {
            routing,
            config,
            energy_model: EnergyModel::default(),
            links,
            outport_links,
            inport_links,
        };
        Self {
            fabric: Fabric {
                topo: RwLock::new(topo),
                wiring,
            },
            engine,
            hub: Hub::new(),
        }
    }

    /// The topology this network was built from (a read guard; hold it
    /// only briefly — scripted hard faults take the write side).
    pub fn topology(&self) -> impl std::ops::Deref<Target = SystemTopology> + '_ {
        self.fabric.topo.read().expect("topology lock poisoned")
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.fabric.wiring.config
    }

    /// The number of chiplet-group shards the cycle loop runs over
    /// (1 = serial; capped by the topology's chiplet count).
    pub fn num_shards(&self) -> usize {
        self.engine.nshards()
    }

    /// Cycles in which each shard moved something. With one shard this is
    /// the network-wide activity count; with many it shows the per-shard
    /// load balance.
    pub fn shard_active_cycles(&self) -> Vec<u64> {
        self.engine.shard_active_cycles()
    }

    /// Replaces the energy model (default: [`EnergyModel::default`]).
    pub fn set_energy_model(&mut self, m: EnergyModel) {
        self.fabric.wiring.energy_model = m;
    }

    /// Installs a fault script. Events fire as simulated time reaches
    /// them: each is applied at the start of its cycle, before that cycle
    /// is simulated. Replaces any previously installed script; events
    /// already in the past fire on the next step.
    pub fn set_fault_script(&mut self, script: FaultScript) {
        self.hub.script = script;
        self.hub.script_pos = 0;
    }

    /// Whether this run injects faults: a nonzero error rate or a fault
    /// script. A watchdog abort under active faults is a fault stall
    /// (traffic wedged on failed hardware), not a routing deadlock. The
    /// retry layer alone at BER = 0 does not count — it never perturbs an
    /// error-free run.
    pub fn faults_active(&self) -> bool {
        CycleDriver::faults_active(self)
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        CycleDriver::now(self)
    }

    /// The statistics collector.
    pub fn collector(&self) -> &Collector {
        CycleDriver::collector(self)
    }

    /// Flits delivered over each directed link so far (indexed by
    /// [`LinkId`]); divide by `cycles × bandwidth` for utilization.
    pub fn link_flits(&self) -> Vec<u64> {
        self.engine.link_flits()
    }

    /// Starts the measurement window: packets created from now on are
    /// recorded in the measured statistics.
    pub fn start_measurement(&mut self) {
        CycleDriver::start_measurement(self)
    }

    /// Turns the metrics layer on: registers the hot-path metrics (per-
    /// hetero-link ROB occupancy gauges, per-PHY dispatch counters) and
    /// installs a private cell slice in every shard. Until this is
    /// called, no shard holds a slice and every sampling site is a
    /// single `is_some` check. Idempotent; metrics are purely
    /// observational, so results stay bit-identical either way.
    pub fn enable_metrics(&mut self) {
        if self.hub.metrics.is_some() {
            return;
        }
        let mut reg = MetricsRegistry::new();
        let rob_gauge = {
            let topo = self.fabric.topo.get_mut().expect("topology lock poisoned");
            let mut v = vec![None; topo.links().len()];
            for link in topo.links() {
                if link.class == LinkClass::HeteroPhy {
                    let label = link.id.index().to_string();
                    v[link.id.index()] = Some(reg.gauge("rob_occupancy_max", &[("link", &label)]));
                }
            }
            v
        };
        let phy_dispatch = [
            reg.counter("phy_dispatch_total", &[("phy", "parallel")]),
            reg.counter("phy_dispatch_total", &[("phy", "serial")]),
        ];
        let ids = MetricIds {
            rob_gauge,
            phy_dispatch,
        };
        self.engine.set_metrics(&ids, &reg);
        self.hub.metrics = Some(reg);
        self.hub.observe_barriers = true;
    }

    /// Turns structured tracing on: every shard gets an accumulation
    /// buffer and the hub a bounded ring holding the most recent `cap`
    /// events of the kinds in `filter`. Tracing is purely observational —
    /// the golden instrumented matrix pins results bit-identical with it
    /// on or off, at every thread count.
    pub fn enable_trace(&mut self, cap: usize, filter: TraceFilter) {
        self.engine.set_tracing(filter);
        self.hub.trace = Some(TraceRing::new(cap, filter));
        if filter.accepts(TraceKind::Barrier) {
            self.hub.observe_barriers = true;
        }
    }

    /// The trace ring, when tracing is enabled.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.hub.trace.as_ref()
    }

    /// Builds a complete metrics snapshot: the hot-path cells folded over
    /// every shard (ascending shard order), plus every quantity the
    /// engine and collector already maintain (per-link flit counters,
    /// delivery totals, the latency histogram) copied in at zero hot-path
    /// cost. Wall-clock and thread-count-dependent values (per-shard
    /// activity, barrier waits) are marked volatile so
    /// [`MetricsSnapshot::deterministic_lines`] excludes them.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = match &self.hub.metrics {
            Some(reg) => self.engine.fold_shard_metrics(reg),
            None => MetricsSnapshot::default(),
        };
        let c = &self.hub.collector;
        let counter = MetricKind::Counter;
        for (name, value) in [
            ("cycles_total", self.engine.now()),
            ("packets_delivered_total", c.delivered_packets),
            ("flits_delivered_total", c.delivered_flits),
            ("packets_measured_total", c.measured_packets),
            ("flits_measured_total", c.measured_flits),
            ("packets_baseline_locked_total", c.locked_packets),
            ("flits_corrupted_total", c.corrupted_flits),
            ("flits_retransmitted_total", c.retransmitted_flits),
            ("retry_naks_total", c.retry_naks),
            ("retry_timeouts_total", c.retry_timeouts),
            ("failovers_total", c.failovers),
            ("faults_applied_total", c.faults_applied),
        ] {
            snap.push_scalar(name, &[], counter, false, value);
        }
        // Per-phase attribution: emitted only when tagged traffic ran, so
        // untagged runs keep their metric lines byte-identical.
        for (tag, s) in c.by_tag.iter().enumerate().skip(1) {
            let label = tag.to_string();
            let phase = [("phase", label.as_str())];
            for (name, value) in [
                ("phase_packets_delivered_total", s.delivered),
                ("phase_packets_measured_total", s.packets),
                ("phase_flits_measured_total", s.flits),
                ("phase_latency_cycles_total", s.latency_cycles),
                ("phase_energy_pj_total", s.energy_pj.round() as u64),
                ("phase_flit_hops_total", s.flit_hops),
            ] {
                snap.push_scalar(name, &phase, counter, false, value);
            }
        }
        for (li, n) in self.engine.link_flits().iter().enumerate() {
            let label = li.to_string();
            snap.push_scalar(
                "link_flits_forwarded_total",
                &[("link", &label)],
                counter,
                false,
                *n,
            );
        }
        if let Some(h) = &c.latency_hist {
            // Bucket geometry fixed by the collector: 4-cycle buckets.
            snap.push_histogram(
                "packet_latency_cycles",
                &[],
                4.0,
                (0..h.buckets()).map(|i| h.bucket_count(i)).collect(),
                h.overflow(),
            );
        }
        for (sid, n) in self.engine.shard_active_cycles().iter().enumerate() {
            let label = sid.to_string();
            snap.push_scalar(
                "shard_active_cycles",
                &[("shard", &label)],
                counter,
                true,
                *n,
            );
        }
        snap.push_scalar(
            "barrier_wait_ns_total",
            &[],
            counter,
            true,
            self.hub.barrier_wait_ns,
        );
        if let Some(ring) = &self.hub.trace {
            snap.push_scalar("trace_dropped_total", &[], counter, true, ring.dropped());
        }
        snap
    }

    /// Queues a packet for injection at its source NIC.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or a node id is out of range.
    pub fn offer(&mut self, req: PacketRequest) -> PacketId {
        self.engine.offer_mut(req)
    }

    /// Packets alive anywhere in the system (queued, in flight).
    pub fn live_packets(&self) -> usize {
        self.engine.live_packets()
    }

    /// In-flight flits across every shard arena. A drained network (no
    /// live packets) must report zero — anything else is a leaked handle.
    pub fn flits_in_flight(&self) -> usize {
        self.engine.flits_in_flight()
    }

    /// Total flit handles ever allocated across every shard arena.
    pub fn flits_allocated_total(&self) -> u64 {
        self.engine.flits_allocated_total()
    }

    /// Total packets waiting in source queues (not yet fully injected).
    pub fn queued_packets(&self) -> usize {
        CycleDriver::queued_packets(self)
    }

    /// Cycles since anything moved — a growing value with live packets
    /// indicates deadlock (used by the simulation watchdog).
    pub fn idle_cycles(&self) -> Cycle {
        CycleDriver::idle_cycles(self)
    }

    /// The earliest cycle ≥ [`Self::now`] at which this network can make
    /// progress, or [`Cycle::MAX`] if nothing is scheduled: the engine's
    /// own bound (active routers/NICs/mailboxes pin it to now; in-flight
    /// link and credit traffic contributes its earliest due) combined
    /// with the next unapplied fault-script event.
    pub fn next_event(&mut self) -> Cycle {
        let now = self.engine.now();
        let at = self.engine.next_event_mut(now);
        self.hub.next_event(now, at)
    }

    /// Advances the clock one cycle without simulating it. Sound only
    /// while [`Self::next_event`] is in the future — the elided step
    /// would have been a total no-op except the clock advance. The
    /// idle-skip loop in [`crate::sim`] is the caller.
    pub fn tick_idle(&mut self) {
        CycleDriver::tick_idle(self)
    }

    /// Runs one simulation cycle on the calling thread (both phases over
    /// every shard in order — any shard count).
    pub fn step(&mut self) {
        apply_due_faults(&self.fabric.topo, &self.engine, &mut self.hub);
        self.engine.step_serial(&mut self.fabric, &mut self.hub);
    }
}

/// Applies every scripted fault due at or before the current cycle, in
/// script order.
///
/// A free function over the shared pieces so both drivers can call it:
/// the serial path from [`Network::step`], the parallel path from
/// the pool leader between cycles (every shard is locked up front, which
/// is free — the workers are parked whenever this runs).
pub(crate) fn apply_due_faults(
    topo: &RwLock<SystemTopology>,
    engine: &ShardedEngine,
    hub: &mut Hub,
) {
    while let Some(&tf) = hub.script.events().get(hub.script_pos) {
        if tf.at > engine.now() {
            break;
        }
        hub.script_pos += 1;
        apply_fault(topo, engine, hub, tf);
    }
}

/// Resolves one scripted fault's target to concrete links and applies
/// it: hetero-PHY adapters fail over / restore / burst in place; plain
/// and retry-guarded links are blocked, unblocked, burst or lane-capped;
/// hard failures additionally filter the routing tables where the
/// topology allows (the mesh escape network must survive).
fn apply_fault(
    topo: &RwLock<SystemTopology>,
    engine: &ShardedEngine,
    hub: &mut Hub,
    tf: TimedFault,
) {
    let hard = matches!(
        tf.event,
        FaultEvent::PhyDown(_) | FaultEvent::PhyUp(_) | FaultEvent::LinkDown | FaultEvent::LinkUp
    );
    let mut links = std::mem::take(&mut hub.fault_links);
    links.clear();
    {
        let t = topo.read().expect("topology lock poisoned");
        links.extend(t.links().iter().filter_map(|l| {
            let hit = match tf.target {
                FaultTarget::All => l.class.is_interface(),
                FaultTarget::Link(id) => l.id.0 == id,
                FaultTarget::Class(c) => l.class == c,
            };
            hit.then_some(l.id)
        }));
        if hard {
            // Hard failures are physical and bidirectional: take each
            // targeted link's reverse pair along.
            let direct = links.len();
            for i in 0..direct {
                if let Some(rev) = t.reverse_of(links[i]) {
                    if !links.contains(&rev) {
                        links.push(rev);
                    }
                }
            }
            links.sort_by_key(|l| l.0);
        }
    }
    let now = engine.now();
    let mut emitted = std::mem::take(&mut hub.fault_emitted);
    emitted.clear();
    // Set when a hard event actually edits the topology's routing
    // lookup tables; cached routes are stale from that point.
    let mut reroute = false;
    {
        let mut guards: Vec<_> = engine
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned"))
            .collect();
        for &id in &links {
            let li = id.index();
            let sh: &mut Shard = &mut guards[engine.part.link_owner[li] as usize];
            let class = topo.read().expect("topology lock poisoned").link(id).class;
            match tf.event {
                FaultEvent::PhyDown(kind) => match sh.media[li].as_mut().expect("owner") {
                    Medium::Hetero(h) => {
                        h.fail_phy(kind);
                        emitted.push((li as u32, LinkEvent::PhyDown));
                        if !h.phy_down(kind.other()) {
                            // The surviving PHY keeps the link alive.
                            emitted.push((li as u32, LinkEvent::Failover));
                        }
                    }
                    Medium::Plain(_) | Medium::Guarded(_) if class_matches(class, kind) => {
                        sh.faults.set_blocked(li, true);
                        reroute |= topo
                            .write()
                            .expect("topology lock poisoned")
                            .set_pair_down(id, true);
                        emitted.push((li as u32, LinkEvent::PhyDown));
                    }
                    _ => {}
                },
                FaultEvent::PhyUp(kind) => match sh.media[li].as_mut().expect("owner") {
                    Medium::Hetero(h) => {
                        h.restore_phy(kind);
                        emitted.push((li as u32, LinkEvent::PhyUp));
                    }
                    Medium::Plain(_) | Medium::Guarded(_) if class_matches(class, kind) => {
                        sh.faults.set_blocked(li, false);
                        reroute |= topo
                            .write()
                            .expect("topology lock poisoned")
                            .set_pair_down(id, false);
                        emitted.push((li as u32, LinkEvent::PhyUp));
                    }
                    _ => {}
                },
                FaultEvent::LinkDown => {
                    sh.faults.set_blocked(li, true);
                    reroute |= topo
                        .write()
                        .expect("topology lock poisoned")
                        .set_pair_down(id, true);
                    emitted.push((li as u32, LinkEvent::LinkDown));
                }
                FaultEvent::LinkUp => {
                    sh.faults.set_blocked(li, false);
                    reroute |= topo
                        .write()
                        .expect("topology lock poisoned")
                        .set_pair_down(id, false);
                    emitted.push((li as u32, LinkEvent::LinkUp));
                }
                FaultEvent::Burst { mult, duration } => {
                    let until = now + duration;
                    match sh.media[li].as_mut().expect("owner") {
                        Medium::Hetero(h) => h.set_burst(mult, until),
                        _ => sh.faults.set_burst(li, mult, until),
                    }
                }
                FaultEvent::Degrade { lanes } => {
                    sh.faults.set_lane_cap(li, Some(lanes));
                    emitted.push((li as u32, LinkEvent::Degrade));
                }
            }
        }
        if reroute {
            // The routing view changed; drop every cached route in every
            // shard (the tables refill lazily against the new view).
            for g in guards.iter_mut() {
                g.route_table.invalidate();
            }
        }
        // Re-activate every touched stepping medium (via its owner) so
        // the next media pass runs even if the link looked idle. Plain
        // links have nothing to step: their flits are on the wheel.
        for &id in &links {
            let g = &mut guards[engine.part.link_owner[id.index()] as usize];
            if !matches!(g.media[id.index()], Some(Medium::Plain(_))) {
                g.active_media.insert(id.index());
            }
        }
    }
    for &(_, ev) in &emitted {
        hub.collector.on_link_event(ev);
    }
    if let Some(ring) = hub.trace.as_mut() {
        // One event for the scripted fault itself, then one per link
        // transition it caused — both hub-side, so they land in the ring
        // in application order regardless of thread count.
        let target = match tf.target {
            FaultTarget::Link(id) => id,
            _ => u32::MAX,
        };
        ring.push(TraceEvent {
            cycle: now,
            kind: TraceKind::Fault,
            pid: NO_PID,
            a: target,
            b: tf.event.code(),
        });
        for &(li, ev) in &emitted {
            ring.push(TraceEvent {
                cycle: now,
                kind: TraceKind::Link,
                pid: NO_PID,
                a: li,
                b: link_event_code(ev),
            });
        }
    }
    hub.fault_links = links;
    hub.fault_emitted = emitted;
}

/// Whether a homogeneous link of `class` is carried by PHY family `kind`
/// (and therefore dies with it).
fn class_matches(class: LinkClass, kind: PhyKind) -> bool {
    matches!(
        (class, kind),
        (LinkClass::Parallel, PhyKind::Parallel) | (LinkClass::Serial, PhyKind::Serial)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_noc::{OrderClass, Priority};
    use chiplet_topo::{build, routing, Geometry, NodeId, SystemKind};

    fn small_net(kind: SystemKind) -> Network {
        let geom = Geometry::new(2, 2, 2, 2);
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
        let r = routing::for_system(kind, 2);
        Network::new(topo, r, SimConfig::default())
    }

    fn run_until_drained(net: &mut Network, max_cycles: u64) {
        let mut cycles = 0;
        while net.live_packets() > 0 {
            net.step();
            cycles += 1;
            assert!(
                cycles < max_cycles,
                "not drained after {max_cycles} cycles ({} live)",
                net.live_packets()
            );
            assert!(net.idle_cycles() < 2_000, "deadlock suspected");
        }
    }

    #[test]
    fn single_packet_crosses_mesh() {
        let mut net = small_net(SystemKind::ParallelMesh);
        let g = *net.topology().geometry();
        net.offer(PacketRequest::new(g.node_at(0, 0), g.node_at(3, 3), 16));
        run_until_drained(&mut net, 500);
        let c = net.collector();
        assert_eq!(c.delivered_packets, 1);
        assert_eq!(c.delivered_flits, 16);
        assert_eq!(c.measured_packets, 1);
        assert_eq!(c.hops.mean(), 6.0);
        // Zero-load latency sanity: 6 hops, 2 of them parallel interfaces.
        let lat = c.latency.mean();
        assert!(lat > 20.0 && lat < 80.0, "latency {lat}");
    }

    #[test]
    fn every_preset_delivers_all_pairs_sample() {
        use simkit::SimRng;
        for kind in [
            SystemKind::ParallelMesh,
            SystemKind::SerialTorus,
            SystemKind::HeteroPhyTorus,
            SystemKind::SerialHypercube,
            SystemKind::HeteroChannel,
        ] {
            let mut net = small_net(kind);
            let n = net.topology().geometry().nodes() as u64;
            let mut rng = SimRng::seed(99);
            for _ in 0..60 {
                let s = rng.below(n) as u32;
                let mut d = rng.below(n) as u32;
                while d == s {
                    d = rng.below(n) as u32;
                }
                net.offer(PacketRequest::new(NodeId(s), NodeId(d), 16));
            }
            run_until_drained(&mut net, 20_000);
            assert_eq!(net.collector().delivered_packets, 60, "{kind}");
            assert_eq!(net.collector().delivered_flits, 60 * 16, "{kind}");
        }
    }

    #[test]
    fn energy_counters_track_link_classes() {
        let mut net = small_net(SystemKind::ParallelMesh);
        let g = *net.topology().geometry();
        // 1 on-chip hop.
        net.offer(PacketRequest::new(g.node_at(0, 0), g.node_at(1, 0), 4));
        // 1 parallel hop (chiplet boundary).
        net.offer(PacketRequest::new(g.node_at(1, 0), g.node_at(2, 0), 4));
        run_until_drained(&mut net, 1_000);
        let c = net.collector();
        // 4 flits on-chip + 4 flits parallel.
        let expected_onchip = 4.0 * 64.0 * 0.10;
        let expected_parallel = 4.0 * 64.0 * 1.0;
        assert!(
            (c.onchip_pj - expected_onchip).abs() < 1e-9,
            "{}",
            c.onchip_pj
        );
        assert!(
            (c.parallel_pj - expected_parallel).abs() < 1e-9,
            "{}",
            c.parallel_pj
        );
        assert_eq!(c.serial_pj, 0.0);
    }

    #[test]
    fn hetero_phy_uses_serial_under_burst() {
        let mut net = small_net(SystemKind::HeteroPhyTorus);
        let g = *net.topology().geometry();
        // Several flows converge on the boundary router at (1,0): the
        // higher-radix crossbar feeds the interface faster than the
        // parallel PHY drains, so the balanced policy enables the serial
        // PHY (a single source can never exceed the parallel bandwidth).
        for _ in 0..8 {
            net.offer(PacketRequest::new(g.node_at(1, 0), g.node_at(2, 0), 16));
            net.offer(PacketRequest::new(g.node_at(0, 0), g.node_at(3, 0), 16));
            net.offer(PacketRequest::new(g.node_at(1, 1), g.node_at(2, 0), 16));
        }
        run_until_drained(&mut net, 5_000);
        let c = net.collector();
        assert_eq!(c.delivered_packets, 24);
        assert!(
            c.serial_pj > 0.0,
            "balanced policy should spill to serial under convergent bursts"
        );
        assert!(c.parallel_pj > 0.0);
    }

    #[test]
    fn measurement_window_excludes_warmup() {
        let mut net = small_net(SystemKind::ParallelMesh);
        let g = *net.topology().geometry();
        net.offer(PacketRequest::new(g.node_at(0, 0), g.node_at(3, 0), 8));
        for _ in 0..5 {
            net.step();
        }
        net.start_measurement();
        net.offer(PacketRequest::new(g.node_at(0, 1), g.node_at(3, 1), 8));
        run_until_drained(&mut net, 2_000);
        let c = net.collector();
        assert_eq!(c.delivered_packets, 2);
        assert_eq!(c.measured_packets, 1);
    }

    #[test]
    fn unordered_bulk_delivers_completely() {
        let mut net = small_net(SystemKind::HeteroPhyTorus);
        let g = *net.topology().geometry();
        for i in 0..10 {
            net.offer(PacketRequest {
                src: g.node_at(i % 4, 0),
                dst: g.node_at(3 - i % 4, 3),
                len: 16,
                class: OrderClass::Unordered,
                priority: if i % 3 == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                },
                tag: 0,
            });
        }
        run_until_drained(&mut net, 10_000);
        assert_eq!(net.collector().delivered_packets, 10);
    }

    #[test]
    fn delivery_event_derived_metrics() {
        let e = DeliveryEvent {
            now: 100,
            created: 60,
            injected: 70,
            hops: 5,
            len: 16,
            high_priority: false,
            baseline_locked: false,
            tag: 0,
            onchip_pj: 10.0,
            parallel_pj: 20.0,
            serial_pj: 0.0,
        };
        assert_eq!(e.latency(), 40);
        assert_eq!(e.net_latency(), 30);
        assert!((e.total_pj() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn multi_shard_serial_step_matches_single_shard() {
        // The same traffic through a 1-shard and a 4-shard build of the
        // same system must produce identical statistics — the partition
        // is results-invisible by construction.
        let run = |threads: usize| {
            let geom = Geometry::new(2, 2, 2, 2);
            let topo = build::hetero_phy_torus(geom);
            let r = routing::for_system(SystemKind::HeteroPhyTorus, 2);
            let mut net = Network::new(topo, r, SimConfig::default().with_shard_threads(threads));
            let mut rng = SimRng::seed(7);
            let n = geom.nodes() as u64;
            for _ in 0..40 {
                let s = rng.below(n) as u32;
                let mut d = rng.below(n) as u32;
                while d == s {
                    d = rng.below(n) as u32;
                }
                net.offer(PacketRequest::new(NodeId(s), NodeId(d), 16));
            }
            run_until_drained(&mut net, 20_000);
            (
                net.now(),
                net.collector().delivered_packets,
                net.collector().latency.mean(),
                net.collector().hops.mean(),
                net.link_flits(),
            )
        };
        let serial = run(1);
        let sharded = run(4);
        assert!(serial.0 > 0);
        assert_eq!(serial, sharded);
    }

    #[test]
    #[should_panic]
    fn self_addressed_packet_rejected() {
        let mut net = small_net(SystemKind::ParallelMesh);
        let g = *net.topology().geometry();
        net.offer(PacketRequest::new(g.node_at(0, 0), g.node_at(0, 0), 1));
    }
}
