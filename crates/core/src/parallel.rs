//! The parallel cycle driver: one persistent worker per shard.
//!
//! [`run_parallel`] runs the warm-up/measure/drain schedule of
//! [`crate::sim`] with the two per-cycle phases executed concurrently
//! across shards. The calling thread is both the orchestrator and the
//! driver of shard 0; shards 1.. get scoped worker threads that live for
//! the whole run. Per cycle:
//!
//! ```text
//! leader (shard 0)                  workers (shards 1..)
//! ───────────────────               ─────────────────────
//! poll workload, offer,             parked at gate A
//! pump fault script
//! release A ──────────────────────▶ phase 1 (credits + media)
//! phase 1 (shard 0)                 arrive at gate B
//! wait all at B
//! release B ──────────────────────▶ phase 2 (inject + route)
//! phase 2 (shard 0)                 arrive back at gate A
//! wait all at A
//! merge stats/traces, advance clock (all workers parked)
//! ```
//!
//! The barrier between the phases is what makes cross-shard flit
//! exchange exact: every boundary flit is posted in phase 1 and lands in
//! its destination router at the start of phase 2 — the same point in
//! the cycle the serial media stage would have delivered it. All
//! order-sensitive work (workload polling, fault scripting, stat and
//! trace merging, progress sampling, packet-descriptor free) happens on
//! the leader while every worker is parked, in an order that does not
//! depend on worker scheduling — which is why a run at any thread count
//! is bit-identical to the serial engine (the golden-trace matrix
//! enforces this).
//!
//! Shutdown is cooperative: a `stop` flag doubles as the gates' cancel
//! signal, set on every exit path (normal completion, leader panic,
//! worker panic) by a drop guard, so no thread is ever left parked.

use crate::engine::{EngineCtx, Hub, ShardedEngine};
use crate::network::{apply_due_faults, Collector, Network};
use crate::sim::{drive, CycleDriver, RunOutcome, RunSpec, Timeline};
use chiplet_topo::SystemTopology;
use chiplet_traffic::{PacketRequest, Workload};
use simkit::par::{Gate, PanicSignal};
use simkit::trace::{TraceEvent, TraceKind, NO_PID};
use simkit::Cycle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// The pool's shared synchronization state: the two phase gates, the
/// cooperative stop flag (doubles as the workers' wait-cancel signal) and
/// the worker-death flag (set by a panicking worker's drop guard so the
/// leader stops waiting for an arrival that will never come).
struct Gates {
    a: Gate,
    b: Gate,
    stop: AtomicBool,
    dead: AtomicBool,
}

impl Gates {
    fn new() -> Self {
        Self {
            a: Gate::new(),
            b: Gate::new(),
            stop: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }
}

/// Leader-side drop guard: whatever way the scope exits — normal return
/// or unwind — set `stop` and open both gates so every parked worker
/// wakes, observes the flag and terminates. Without this, a leader panic
/// (or plain return) would strand workers at a gate forever.
struct StopOnDrop<'a>(&'a Gates);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
        self.0.a.release();
        self.0.b.release();
    }
}

/// Runs the schedule with the cycle loop spread over the engine's shards.
/// The workload and the progress timeline never leave the calling
/// thread. A `halt_at` boundary (see [`crate::sim::run_until`]) returns
/// `None` with the pool shut down cleanly and the engine parked at that
/// cycle.
pub(crate) fn run_parallel(
    net: &mut Network,
    workload: &mut dyn Workload,
    spec: RunSpec,
    halt_at: Option<Cycle>,
    timeline: Option<&mut Timeline>,
) -> Option<RunOutcome> {
    // Split the network into the worker-shared immutable description +
    // engine, and the leader-held mutable hub.
    let Network {
        topo,
        routing,
        config,
        energy_model,
        link_out_port,
        link_in_port,
        outport_links,
        inport_links,
        engine,
        hub,
    } = net;
    let engine: &ShardedEngine = engine;
    let routing: &dyn chiplet_topo::routing::Routing = routing.as_ref();
    let nshards = engine.nshards();
    let gates = Gates::new();
    std::thread::scope(|s| {
        let _stop_guard = StopOnDrop(&gates);
        for sid in 1..nshards {
            let gates = &gates;
            let topo: &RwLock<SystemTopology> = topo;
            let config = &*config;
            let energy_model = &*energy_model;
            let link_out_port = &*link_out_port;
            let link_in_port = &*link_in_port;
            let outport_links = &*outport_links;
            let inport_links = &*inport_links;
            s.spawn(move || {
                let _signal = PanicSignal(&gates.dead);
                loop {
                    gates.a.arrive_and_wait(&gates.stop);
                    if gates.stop.load(Ordering::Acquire) {
                        return;
                    }
                    let t = topo.read().expect("topology lock poisoned");
                    let ctx = EngineCtx {
                        topo: &t,
                        routing,
                        config,
                        energy_model,
                        link_out_port,
                        link_in_port,
                        outport_links,
                        inport_links,
                    };
                    let now = engine.now.load(Ordering::Relaxed);
                    let measure_from = engine.measure_from.load(Ordering::Relaxed);
                    {
                        let store = engine.store.read().expect("store lock poisoned");
                        let mut sh = engine.shards[sid].lock().expect("shard lock poisoned");
                        sh.phase1(&ctx, now, &store, &engine.mail, &engine.part);
                    }
                    gates.b.arrive_and_wait(&gates.stop);
                    if gates.stop.load(Ordering::Acquire) {
                        return;
                    }
                    {
                        let store = engine.store.read().expect("store lock poisoned");
                        let mut sh = engine.shards[sid].lock().expect("shard lock poisoned");
                        sh.phase2(&ctx, now, &store, &engine.mail, measure_from, &engine.part);
                    }
                }
            });
        }
        let mut leader = Leader {
            topo,
            routing,
            config,
            energy_model,
            link_out_port,
            link_in_port,
            outport_links,
            inport_links,
            engine,
            hub,
            gates: &gates,
            nworkers: nshards - 1,
        };
        // Establish the invariant every step relies on: all workers
        // parked at gate A before the leader's serial window opens.
        leader.sync(&gates.a);
        drive(&mut leader, workload, spec, halt_at, timeline)
        // _stop_guard drops here, waking and terminating the pool; the
        // scope then joins every worker before returning.
    })
}

/// The pool leader: drives shard 0 itself and the barrier protocol for
/// the rest, and runs every serial step (offers, fault script, merge)
/// while the workers are parked.
struct Leader<'a> {
    topo: &'a RwLock<SystemTopology>,
    routing: &'a dyn chiplet_topo::routing::Routing,
    config: &'a crate::config::SimConfig,
    energy_model: &'a crate::energy::EnergyModel,
    link_out_port: &'a [u16],
    link_in_port: &'a [u16],
    outport_links: &'a [Vec<chiplet_topo::LinkId>],
    inport_links: &'a [Vec<chiplet_topo::LinkId>],
    engine: &'a ShardedEngine,
    hub: &'a mut Hub,
    gates: &'a Gates,
    nworkers: usize,
}

impl Leader<'_> {
    /// Waits until every worker is parked at `gate`; unwinds the pool if
    /// a worker died instead (its panic resurfaces when the scope joins).
    fn sync(&self, gate: &Gate) {
        if !gate.wait_arrived(self.nworkers, &self.gates.dead) {
            self.gates.stop.store(true, Ordering::Release);
            self.gates.a.release();
            self.gates.b.release();
            panic!("a shard worker panicked; aborting the parallel run");
        }
    }

    /// Like [`Leader::sync`], but samples how long the leader waited and
    /// records it as a volatile metric and (optionally) a `barrier` trace
    /// event. Only taken when the observability layer asked for it —
    /// the default path never reads the clock. `which` is 0 for the
    /// phase-1→2 gate (B) and 1 for the end-of-cycle gate (A).
    fn sync_observed(&mut self, which: u32, now: Cycle) {
        let gate = if which == 0 {
            &self.gates.b
        } else {
            &self.gates.a
        };
        if !self.hub.observe_barriers {
            return self.sync(gate);
        }
        let t0 = std::time::Instant::now();
        self.sync(gate);
        let dt = t0.elapsed();
        self.hub.barrier_wait_ns += dt.as_nanos() as u64;
        if let Some(ring) = self.hub.trace.as_mut() {
            ring.push(TraceEvent {
                cycle: now,
                kind: TraceKind::Barrier,
                pid: NO_PID,
                a: which,
                b: dt.as_micros().min(u32::MAX as u128) as u32,
            });
        }
    }
}

impl CycleDriver for Leader<'_> {
    fn now(&self) -> Cycle {
        self.engine.now()
    }

    fn offer(&mut self, req: PacketRequest) {
        // Serial window: every worker is parked at gate A.
        self.engine.offer(req);
    }

    fn step(&mut self) {
        // Safe to lock every shard: the pool is parked at gate A.
        apply_due_faults(self.topo, self.engine, self.hub);
        let now = self.engine.now.load(Ordering::Relaxed);
        let measure_from = self.engine.measure_from.load(Ordering::Relaxed);
        {
            let t = self.topo.read().expect("topology lock poisoned");
            let ctx = EngineCtx {
                topo: &t,
                routing: self.routing,
                config: self.config,
                energy_model: self.energy_model,
                link_out_port: self.link_out_port,
                link_in_port: self.link_in_port,
                outport_links: self.outport_links,
                inport_links: self.inport_links,
            };
            self.gates.a.release();
            {
                let store = self.engine.store.read().expect("store lock poisoned");
                let mut sh = self.engine.shards[0].lock().expect("shard lock poisoned");
                sh.phase1(&ctx, now, &store, &self.engine.mail, &self.engine.part);
            }
            self.sync_observed(0, now);
            self.gates.b.release();
            {
                let store = self.engine.store.read().expect("store lock poisoned");
                let mut sh = self.engine.shards[0].lock().expect("shard lock poisoned");
                sh.phase2(
                    &ctx,
                    now,
                    &store,
                    &self.engine.mail,
                    measure_from,
                    &self.engine.part,
                );
            }
            self.sync_observed(1, now);
        }
        // Serial window again: fold per-shard observations in canonical
        // order and advance the clock.
        if self.engine.merge(self.hub) {
            self.hub.last_activity = now;
        }
        self.engine.now.store(now + 1, Ordering::Relaxed);
    }

    fn live_packets(&mut self) -> usize {
        self.engine.live_packets()
    }

    fn queued_packets(&self) -> usize {
        self.engine.queued_packets()
    }

    fn collector(&self) -> &Collector {
        &self.hub.collector
    }

    fn idle_cycles(&self) -> Cycle {
        self.engine.now() - self.hub.last_activity
    }

    fn faults_active(&self) -> bool {
        self.config.fault.ber_serial > 0.0
            || self.config.fault.ber_parallel > 0.0
            || !self.hub.script.is_empty()
    }

    fn start_measurement(&mut self) {
        self.hub.start_measurement(self.engine);
    }

    fn nodes(&self) -> u32 {
        self.topo
            .read()
            .expect("topology lock poisoned")
            .geometry()
            .nodes()
    }

    fn next_event(&mut self) -> Cycle {
        // Serial window: the pool is parked at gate A, so locking every
        // shard (inside the engine's bound) is free and race-free.
        let now = self.engine.now();
        self.hub.next_event(now, self.engine.next_event(now))
    }

    fn tick_idle(&mut self) {
        // Advance the shared clock without releasing the gates: the
        // workers stay parked through the whole skipped stretch and only
        // ever read the clock after a release, so they never observe the
        // intermediate values.
        self.engine.tick_idle();
    }

    fn skip_enabled(&self) -> bool {
        self.config.idle_skip
    }
}
