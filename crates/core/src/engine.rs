//! The sharded per-cycle simulation engine.
//!
//! [`ShardedEngine`] owns every mutable piece of a running simulation,
//! split across per-chiplet-group [`Shard`]s (see [`crate::shard`]). Each
//! cycle advances through the same four named stages the original serial
//! engine ran — credits → media → inject → route — but grouped into two
//! phases per shard with a synchronization point between them:
//!
//! 1. **Phase 1** (credits + media): every shard returns the credits and
//!    delivers the plain-link flits due this cycle from its timing wheel,
//!    and steps its active guarded and hetero-PHY media. Flits arriving
//!    at a router owned by another shard are posted to that shard's
//!    mailbox.
//! 2. **Phase 2** (inject + route): every shard drains its inbound flit
//!    mailbox into its routers, then runs its NICs and router pipelines.
//!    Credits for other shards' links are posted back through the credit
//!    mailbox, replayed at the top of the next cycle's phase 1.
//! 3. **Merge**: the orchestrator folds every shard's buffered
//!    observations (deliveries, link events, trace events) into the
//!    [`Collector`] and the trace ring in a canonical order, frees
//!    delivered packet descriptors, and advances the clock.
//!
//! With one shard this degenerates to exactly the serial staged engine.
//! With many shards the phases can run on a worker pool (see
//! [`crate::parallel`]); [`ShardedEngine::step_serial`] runs them on the
//! calling thread. Either way the observable results are bit-identical:
//! the golden-trace matrix pins SimResults equality across every shard
//! and thread count.
//!
//! The immutable description of the system stays in the network's
//! [`Fabric`]; each phase runs against one [`EngineCtx`], the cycle's view
//! of that fabric and of the engine's shared parts.

use crate::network::{Collector, Fabric, Wiring};
use crate::shard::{Delivery, FaultCore, Mail, Medium, MetricIds, Partition, Shard, ShardMetrics};
use crate::wheel::LinkWheel;
use chiplet_fault::FaultScript;
use chiplet_noc::{PacketId, PacketInfo, PacketStore, Router};
use chiplet_topo::{LinkId, SystemTopology};
use chiplet_traffic::PacketRequest;
use simkit::metrics::{MetricsRegistry, MetricsSnapshot};
use simkit::trace::{
    LinkEvent, TraceBuf, TraceEvent, TraceFilter, TraceKind, TraceRing, Tracer, NO_PID,
};
use simkit::Cycle;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, RwLock};

/// One cycle's view: what every shard phase reads and nothing it owns.
/// Built by [`EngineCtx::new`] alone, whichever driver runs the cycle.
pub(crate) struct EngineCtx<'a> {
    pub wiring: &'a Wiring,
    /// The topology, through the caller's guard (or `get_mut`).
    pub topo: &'a SystemTopology,
    /// The cycle being simulated.
    pub now: Cycle,
    /// Packet descriptors, read-only during the phases.
    pub store: &'a PacketStore,
    pub mail: &'a Mail,
    pub part: &'a Partition,
}

impl<'a> EngineCtx<'a> {
    pub fn new(
        wiring: &'a Wiring,
        topo: &'a SystemTopology,
        now: Cycle,
        store: &'a PacketStore,
        mail: &'a Mail,
        part: &'a Partition,
    ) -> Self {
        Self {
            wiring,
            topo,
            now,
            store,
            mail,
            part,
        }
    }
}

/// Orchestrator-side mutable state: everything that is only ever touched
/// while the shards are at rest — the statistics collector and its
/// measurement window, the fault script cursor, the activity clock and
/// the pooled merge scratch.
///
/// Splitting this out of the engine is what lets the parallel driver hand
/// the [`ShardedEngine`] to the worker pool by shared reference while the
/// leader keeps exclusive access to the serial bookkeeping.
#[derive(Debug)]
pub(crate) struct Hub {
    /// The built-in statistics collector.
    pub collector: Collector,
    /// Packets created at or after this cycle count toward the measured
    /// statistics (warm-up exclusion). The collector applies it when a
    /// delivery merges, which is the cycle its tail ejected: the window
    /// only moves between cycles, so that is exact.
    pub measure_from: Cycle,
    /// Last cycle in which any shard reported activity.
    pub last_activity: Cycle,
    /// Scheduled fault events, applied as simulated time passes them.
    pub script: FaultScript,
    /// Next unapplied script event.
    pub script_pos: usize,
    /// Pooled scratch for fault application: targeted links and the link
    /// events they emitted. Kept across calls so fault storms (BER
    /// scripts fire repeatedly) do not allocate.
    pub fault_links: Vec<LinkId>,
    pub fault_emitted: Vec<(u32, LinkEvent)>,
    /// Merge scratch: deliveries as `(per-shard seq, delivery)`.
    del_scratch: Vec<(u32, Delivery)>,
    /// The bounded trace store (`None` unless tracing is enabled).
    /// Shard buffers are folded in here every merge in canonical
    /// stable-by-key order; hub-side events (faults, phase changes,
    /// barrier waits) are pushed directly.
    pub trace: Option<TraceRing>,
    /// Merge scratch: trace events as `(merge key, event)`, used only
    /// when more than one shard contributes (the single-shard path sorts
    /// the shard's own buffer in place).
    trace_scratch: Vec<(u64, TraceEvent)>,
    /// The metrics catalog (`None` unless metrics are enabled). The
    /// per-shard cell slices live inside the shards; snapshots fold them
    /// through this registry.
    pub metrics: Option<MetricsRegistry>,
    /// Leader wall-time spent parked at the phase barriers, nanoseconds,
    /// summed over the run. Wall-clock and thread-count dependent, hence
    /// exported as a volatile metric only.
    pub barrier_wait_ns: u64,
    /// Whether the parallel leader samples barrier wait times (set when
    /// metrics or barrier tracing are on; the serial path ignores it).
    pub observe_barriers: bool,
}

impl Hub {
    pub fn new() -> Self {
        Self {
            collector: Collector::default(),
            measure_from: 0,
            last_activity: 0,
            script: FaultScript::default(),
            script_pos: 0,
            fault_links: Vec::new(),
            fault_emitted: Vec::new(),
            del_scratch: Vec::new(),
            trace: None,
            trace_scratch: Vec::new(),
            metrics: None,
            barrier_wait_ns: 0,
            observe_barriers: false,
        }
    }

    /// Combines the engine's progress bound `at` (see
    /// [`ShardedEngine::next_event`]) with the next unapplied
    /// fault-script event: the earliest cycle ≥ `now` at which anything
    /// can happen, or [`Cycle::MAX`] if nothing is scheduled. Called only
    /// between cycles.
    pub fn next_event(&self, now: Cycle, at: Cycle) -> Cycle {
        match self.script.events().get(self.script_pos) {
            Some(tf) => at.min(tf.at.max(now)),
            None => at,
        }
    }

    /// Opens the measurement window at cycle `now` and traces the
    /// warm-up → measure phase change.
    pub fn start_measurement(&mut self, now: Cycle) {
        self.measure_from = now;
        if let Some(ring) = self.trace.as_mut() {
            ring.push(TraceEvent {
                cycle: now,
                kind: TraceKind::Phase,
                pid: NO_PID,
                a: 1, // warm-up → measure
                b: 0,
            });
        }
    }
}

/// Exclusive access to one shard's state, however the caller holds it:
/// the serial path reaches a `Mutex<Shard>` through `get_mut` (no lock),
/// the parallel leader through a guard it already holds. The merge is
/// written once against this trait, so both drivers fold observations
/// through the same code.
pub(crate) trait ShardMut {
    fn shard(&mut self) -> &mut Shard;
}

impl ShardMut for Mutex<Shard> {
    fn shard(&mut self) -> &mut Shard {
        self.get_mut().expect("shard lock poisoned")
    }
}

impl ShardMut for MutexGuard<'_, Shard> {
    fn shard(&mut self) -> &mut Shard {
        self
    }
}

/// All mutable simulation state, partitioned into shards.
///
/// Interior mutability is layered for the two drivers. The serial path
/// holds `&mut Self`: [`Self::step_serial`], [`Self::offer_mut`],
/// [`Self::next_event_mut`] and [`Self::live_packets_mut`] go through
/// `Mutex::get_mut`/`RwLock::get_mut`, and the mailboxes lock nothing
/// while empty (a single shard never posts to itself), so a one-shard
/// cycle takes no lock and allocates nothing. The parallel path hands
/// `&Self` to the worker pool, where each worker locks exactly its own
/// shard (never contended — shard ownership is static) and reads the
/// store through the `RwLock` (writes happen only in the merge, while
/// workers are parked); its leader uses the locking variants.
pub(crate) struct ShardedEngine {
    /// The static shard layout.
    pub part: Partition,
    /// One shard per partition slot; `shards[s]` is only ever locked by
    /// the worker driving shard `s` (or the orchestrator while the pool
    /// is parked).
    pub shards: Vec<Mutex<Shard>>,
    /// Packet descriptors, shared read-mostly across shards during a
    /// cycle; allocation (offers) and freeing (merge) happen between
    /// phases under the write lock.
    pub store: RwLock<PacketStore>,
    /// Cross-shard flit and credit mailboxes.
    pub mail: Mail,
    /// The current cycle.
    pub now: AtomicU64,
}

impl ShardedEngine {
    /// Distributes the assembled components over `part`'s shards.
    ///
    /// Every shard gets full-length vectors: routers it does not own are
    /// replaced by portless stubs (never activated), media it does not
    /// own by `None`. `credit_latency` gives each link's credit return
    /// delay; together with the plain links' latencies it sizes every
    /// shard's timing wheel. Each shard also builds the *full*
    /// fault core from the same seed — RNG streams are forked by global
    /// link id, so every shard derives the identical stream set and only
    /// the owner of a link ever draws from it. That makes fault draws
    /// independent of the partition, which the golden bit-identity
    /// contract requires.
    pub fn new(
        routers: Vec<Router>,
        media: Vec<Medium>,
        credit_latency: Vec<u32>,
        link_ps: &[f64],
        seed: u64,
        part: Partition,
    ) -> Self {
        let n = routers.len();
        let ns = part.nshards as usize;
        let plain_latency = media.iter().filter_map(|m| match m {
            Medium::Plain(lanes) => Some(lanes.latency()),
            _ => None,
        });
        let span = credit_latency
            .iter()
            .copied()
            .chain(plain_latency)
            .max()
            .unwrap_or(1);
        let mut shards: Vec<Shard> = (0..ns)
            .map(|sid| {
                Shard::new(
                    sid as u16,
                    part.shard_nodes[sid].clone(),
                    n,
                    credit_latency.clone(),
                    LinkWheel::new(span),
                    ns,
                    FaultCore::new(link_ps, seed),
                )
            })
            .collect();
        for (i, r) in routers.into_iter().enumerate() {
            shards[part.node_shard[i] as usize].routers[i] = r;
        }
        for (li, m) in media.into_iter().enumerate() {
            shards[part.link_owner[li] as usize].media[li] = Some(m);
        }
        Self {
            shards: shards.into_iter().map(Mutex::new).collect(),
            store: RwLock::new(PacketStore::new()),
            mail: Mail::new(ns),
            now: AtomicU64::new(0),
            part,
        }
    }

    /// The shard count this engine was partitioned into.
    pub fn nshards(&self) -> usize {
        self.part.nshards as usize
    }

    pub fn now(&self) -> Cycle {
        self.now.load(Relaxed)
    }

    /// Advances the clock one cycle without running the phases (idle-skip:
    /// the caller proved the cycle would be a no-op via
    /// [`Self::next_event`]). Called only between cycles.
    pub fn tick_idle(&self) {
        self.now.fetch_add(1, Relaxed);
    }

    /// Queues a packet for injection at its source NIC. Called only
    /// between cycles (never while a phase is running).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or a node id is out of range.
    pub fn offer(&self, req: PacketRequest) -> PacketId {
        let sid = self.part.node_shard[req.src.index()] as usize;
        Self::enqueue(
            &mut self.store.write().expect("store lock poisoned"),
            &mut self.shards[sid].lock().expect("shard lock poisoned"),
            self.now(),
            req,
        )
    }

    /// [`Self::offer`] for a caller holding the engine exclusively: no
    /// lock.
    pub fn offer_mut(&mut self, req: PacketRequest) -> PacketId {
        let sid = self.part.node_shard[req.src.index()] as usize;
        let now = self.now();
        Self::enqueue(
            self.store.get_mut().expect("store lock poisoned"),
            self.shards[sid].shard(),
            now,
            req,
        )
    }

    fn enqueue(
        store: &mut PacketStore,
        sh: &mut Shard,
        now: Cycle,
        req: PacketRequest,
    ) -> PacketId {
        assert_ne!(req.src, req.dst, "self-addressed packet");
        let pid = store.alloc(
            PacketInfo::new(req.src, req.dst, req.len, req.class, req.priority, now)
                .with_tag(req.tag),
        );
        let src = req.src.index();
        sh.nics[src].queue.push_back(pid);
        sh.active_nics.insert(src);
        pid
    }

    pub fn live_packets(&self) -> usize {
        self.store.read().expect("store lock poisoned").live()
    }

    /// [`Self::live_packets`] without the read lock.
    pub fn live_packets_mut(&mut self) -> usize {
        self.store.get_mut().expect("store lock poisoned").live()
    }

    /// Total packets waiting in source queues (not yet fully injected).
    pub fn queued_packets(&self) -> usize {
        // Unowned NIC slots are empty defaults, so summing every shard's
        // full vector counts each node exactly once.
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("shard lock poisoned")
                    .nics
                    .iter()
                    .map(|nic| nic.pending())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Flits delivered over each directed link so far (summed across
    /// shards; a link's counter only ever grows in its owner).
    pub fn link_flits(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for s in &self.shards {
            let sh = s.lock().expect("shard lock poisoned");
            if out.is_empty() {
                out = sh.link_flits.clone();
            } else {
                for (acc, v) in out.iter_mut().zip(&sh.link_flits) {
                    *acc += v;
                }
            }
        }
        out
    }

    /// In-flight flits across every shard arena (leak checks: a drained
    /// network holds zero).
    pub fn flits_in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").arena.in_flight())
            .sum()
    }

    /// Total flit handles ever allocated, summed across shard arenas.
    pub fn flits_allocated_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("shard lock poisoned")
                    .arena
                    .allocated_total()
            })
            .sum()
    }

    /// The earliest cycle ≥ `now` at which any shard can make progress,
    /// or [`Cycle::MAX`] if the whole engine is drained.
    ///
    /// A non-empty mailbox pins the bound to `now`: posted flits are
    /// delivered at the top of the next phase 2 and posted credits are
    /// replayed next phase 1, both of which count as work. Otherwise the
    /// bound is the minimum over the shards' own [`Shard::next_event`]
    /// bounds. Called only between cycles (shards at rest), like
    /// [`Self::merge`].
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let bounds = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").next_event(now));
        Self::earliest(&self.mail, now, bounds)
    }

    /// [`Self::next_event`] without the shard locks.
    pub fn next_event_mut(&mut self, now: Cycle) -> Cycle {
        let bounds = self.shards.iter_mut().map(|s| s.shard().next_event(now));
        Self::earliest(&self.mail, now, bounds)
    }

    /// The minimum of the per-shard bounds, pinned to `now` by pending
    /// mail. Stops pulling bounds once one reaches `now`.
    fn earliest(mail: &Mail, now: Cycle, shard_bounds: impl Iterator<Item = Cycle>) -> Cycle {
        if !mail.flits.is_empty() || !mail.credits.is_empty() {
            return now;
        }
        let mut at = Cycle::MAX;
        for b in shard_bounds {
            at = at.min(b);
            if at <= now {
                return now;
            }
        }
        at
    }

    /// Cycles in which each shard moved something (per-shard activity
    /// accounting; the deadlock watchdog ORs the same per-cycle flags).
    pub fn shard_active_cycles(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").active_cycles)
            .collect()
    }

    /// Runs one simulation cycle on the calling thread: both phases over
    /// every shard in order, then the merge. Uses `get_mut` throughout,
    /// and the merge folds the shards in place, so the serial path takes
    /// no lock and allocates nothing per cycle.
    pub fn step_serial(&mut self, fabric: &mut Fabric, hub: &mut Hub) {
        let topo = &*fabric.topo.get_mut().expect("topology lock poisoned");
        let Self {
            part,
            shards,
            store,
            mail,
            now,
        } = self;
        {
            let store = &*store.get_mut().expect("store lock poisoned");
            let ctx = EngineCtx::new(&fabric.wiring, topo, now.load(Relaxed), store, mail, part);
            for s in shards.iter_mut() {
                s.shard().phase1(&ctx);
            }
            for s in shards.iter_mut() {
                s.shard().phase2(&ctx);
            }
        }
        Self::merge_shards(
            shards,
            || store.get_mut().expect("store lock poisoned"),
            hub,
            now,
        );
    }

    /// Runs `phase` for shard `sid` from a pool thread: the topology, the
    /// store and the shard are each locked for the phase (uncontended —
    /// every thread holds its own shard, and writers wait for the pool to
    /// park).
    pub fn step_shard(&self, fabric: &Fabric, sid: usize, phase: fn(&mut Shard, &EngineCtx<'_>)) {
        let topo = fabric.topo.read().expect("topology lock poisoned");
        let store = self.store.read().expect("store lock poisoned");
        let ctx = EngineCtx::new(
            &fabric.wiring,
            &topo,
            self.now(),
            &store,
            &self.mail,
            &self.part,
        );
        phase(
            &mut self.shards[sid].lock().expect("shard lock poisoned"),
            &ctx,
        );
    }

    /// Folds every shard's buffered observations into the collector and
    /// the trace ring, frees delivered descriptors, clears the buffers
    /// and advances the clock, marking the cycle active in `hub` if any
    /// shard reported activity.
    ///
    /// Runs with every shard at rest (between cycles). Link events only
    /// bump counters, so their order is immaterial. Deliveries merge in
    /// a canonical order — ascending destination node, tie-broken by the
    /// producing shard's emission sequence — which is exactly the serial
    /// engine's emission order, independent of shard count and worker
    /// scheduling. Freeing descriptors in that same order keeps the
    /// store's slot freelist (and therefore future [`PacketId`]
    /// assignment) bit-identical to the serial engine.
    ///
    /// This is the parallel leader's entry: it locks every shard (free,
    /// the workers are parked). [`Self::step_serial`] reaches the same
    /// [`Self::merge_shards`] through `get_mut` instead.
    pub fn merge(&self, hub: &mut Hub) {
        let mut guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned"))
            .collect();
        Self::merge_shards(
            &mut guards,
            || self.store.write().expect("store lock poisoned"),
            hub,
            &self.now,
        )
    }

    /// The merge itself (see [`Self::merge`]), over shards however they
    /// are held. `store` is called at most once, and only when there are
    /// descriptors to free.
    fn merge_shards<S: ShardMut, G: DerefMut<Target = PacketStore>>(
        shards: &mut [S],
        store: impl FnOnce() -> G,
        hub: &mut Hub,
        clock: &AtomicU64,
    ) {
        hub.del_scratch.clear();
        for s in shards.iter_mut() {
            let g = s.shard();
            for &ev in &g.link_events {
                hub.collector.on_link_event(ev);
            }
            for (seq, d) in g.deliveries.iter().enumerate() {
                hub.del_scratch.push((seq as u32, *d));
            }
        }
        hub.del_scratch
            .sort_unstable_by_key(|&(seq, d)| (d.node, seq));
        if !hub.del_scratch.is_empty() {
            let mut store = store();
            for &(_, d) in hub.del_scratch.iter() {
                hub.collector.on_packet_delivered(&d.ev, hub.measure_from);
                store.free(d.pid);
            }
        }
        if let Some(ring) = hub.trace.as_mut() {
            // A *stable* sort by key reproduces the serial emission
            // order: the key's lane bit puts phase-1 (link) events
            // before phase-2 (node) events, and per key all events come
            // from the one owning shard, whose buffer holds them in
            // program order — which stability preserves. The sort is
            // also the reason this path is affordable with a full
            // unfiltered ring: the per-cycle stream is a concatenation
            // of a few ascending runs (each emission loop walks ids in
            // order), which the stable run-detecting sort merges in
            // near-linear time where a pattern-defeating unstable sort
            // pays full n·log n.
            if let [g] = &mut *shards {
                // Single shard: sort its buffer in place — it is cleared
                // below anyway — and skip the scratch copy entirely.
                if let Tracer::On(buf) = &mut g.shard().tracer {
                    buf.events.sort_by_key(|&(key, _)| key);
                    ring.extend_prefiltered(&buf.events);
                }
            } else {
                hub.trace_scratch.clear();
                for s in shards.iter_mut() {
                    if let Tracer::On(buf) = &s.shard().tracer {
                        hub.trace_scratch.extend_from_slice(&buf.events);
                    }
                }
                hub.trace_scratch.sort_by_key(|&(key, _)| key);
                ring.extend_prefiltered(&hub.trace_scratch);
            }
        }
        let now = clock.load(Relaxed);
        for s in shards.iter_mut() {
            let g = s.shard();
            if g.activity {
                hub.last_activity = now;
                g.active_cycles += 1;
            }
            g.link_events.clear();
            g.deliveries.clear();
            g.tracer.clear();
        }
        clock.store(now + 1, Relaxed);
    }

    /// Turns tracing on in every shard: each gets a fresh buffer bound to
    /// `filter`. Call between runs, never mid-cycle.
    pub fn set_tracing(&mut self, filter: TraceFilter) {
        for s in &mut self.shards {
            let sh = s.get_mut().expect("shard lock poisoned");
            sh.tracer = Tracer::On(TraceBuf::new(filter));
        }
    }

    /// Installs hot-path metric cells in every shard: a shared id map and
    /// a private zeroed slice from `reg`.
    pub fn set_metrics(&mut self, ids: &MetricIds, reg: &MetricsRegistry) {
        for s in &mut self.shards {
            let sh = s.get_mut().expect("shard lock poisoned");
            sh.metrics = Some(ShardMetrics {
                ids: ids.clone(),
                slice: reg.slice(),
            });
        }
    }

    /// Folds every shard's metric slice (ascending shard order) through
    /// `reg` into a snapshot. Shards without metrics contribute nothing.
    pub fn fold_shard_metrics(&self, reg: &MetricsRegistry) -> MetricsSnapshot {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned"))
            .collect();
        reg.fold(
            guards
                .iter()
                .filter_map(|g| g.metrics.as_ref().map(|m| &m.slice)),
        )
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("now", &self.now.load(Relaxed))
            .field("shards", &self.part.nshards)
            .finish()
    }
}
