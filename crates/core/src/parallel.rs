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

use crate::engine::{Hub, ShardedEngine};
use crate::network::{apply_due_faults, Fabric, Network};
use crate::shard::Shard;
use crate::sim::{drive, CycleDriver, RunOutcome, RunSpec, Timeline};
use chiplet_traffic::{PacketRequest, Workload};
use simkit::par::{Gate, PanicSignal};
use simkit::trace::{TraceEvent, TraceKind, NO_PID};
use simkit::Cycle;
use std::sync::atomic::{AtomicBool, Ordering};

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
    // The workers share the fabric and the engine; the hub stays with
    // the leader.
    let Network {
        fabric,
        engine,
        hub,
    } = net;
    let (fabric, engine): (&Fabric, &ShardedEngine) = (fabric, engine);
    let nshards = engine.nshards();
    let gates = Gates::new();
    std::thread::scope(|s| {
        let _stop_guard = StopOnDrop(&gates);
        for sid in 1..nshards {
            let gates = &gates;
            s.spawn(move || {
                let _signal = PanicSignal(&gates.dead);
                loop {
                    gates.a.arrive_and_wait(&gates.stop);
                    if gates.stop.load(Ordering::Acquire) {
                        return;
                    }
                    engine.step_shard(fabric, sid, Shard::phase1);
                    gates.b.arrive_and_wait(&gates.stop);
                    if gates.stop.load(Ordering::Acquire) {
                        return;
                    }
                    engine.step_shard(fabric, sid, Shard::phase2);
                }
            });
        }
        let mut leader = Leader {
            fabric,
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
    fabric: &'a Fabric,
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
    fn parts(&self) -> (&Fabric, &ShardedEngine, &Hub) {
        (self.fabric, self.engine, self.hub)
    }

    fn hub_mut(&mut self) -> &mut Hub {
        self.hub
    }

    fn offer(&mut self, req: PacketRequest) {
        // Serial window: every worker is parked at gate A.
        self.engine.offer(req);
    }

    fn step(&mut self) {
        // Safe to lock every shard: the pool is parked at gate A.
        apply_due_faults(&self.fabric.topo, self.engine, self.hub);
        let now = self.engine.now();
        self.gates.a.release();
        self.engine.step_shard(self.fabric, 0, Shard::phase1);
        self.sync_observed(0, now);
        self.gates.b.release();
        self.engine.step_shard(self.fabric, 0, Shard::phase2);
        self.sync_observed(1, now);
        // Serial window again: fold per-shard observations in canonical
        // order and advance the clock.
        self.engine.merge(self.hub);
    }

    fn live_packets(&mut self) -> usize {
        self.engine.live_packets()
    }

    fn next_event(&mut self) -> Cycle {
        // Serial window: the pool is parked at gate A, so locking every
        // shard (inside the engine's bound) is free and race-free.
        let now = self.engine.now();
        self.hub.next_event(now, self.engine.next_event(now))
    }
}
