//! Simulation substrate for the hetero-chiplet workspace.
//!
//! This crate holds the small, dependency-light pieces every other crate in
//! the workspace builds on:
//!
//! * [`Cycle`] — the simulated clock domain (all chiplet interfaces are
//!   modeled as behavioral digital circuits of one clock domain, per §7.1 of
//!   the paper).
//! * [`rng::SimRng`] — a deterministic, seedable random-number generator so
//!   every experiment is exactly reproducible.
//! * [`stats`] — streaming statistics (mean/variance/min/max), histograms
//!   and windowed rate meters used to report latency and throughput.
//! * [`active`] — the [`active::ActiveSet`] bitset behind the engine's
//!   skip-idle-components scheduler.
//! * [`par`] — the order-preserving worker pool ([`par::map`]) behind
//!   every independent-job fan-out, and the leader-observable barrier
//!   ([`par::Gate`]) behind the sharded parallel cycle loop.
//! * [`metrics`] — the typed metrics registry: per-shard lock-free
//!   slices folded deterministically at snapshot time, with Prometheus
//!   and JSONL exporters.
//! * [`trace`] — cycle-attributed structured tracing: a zero-cost-when-
//!   disabled [`trace::Tracer`], a bounded [`trace::TraceRing`],
//!   JSONL / Chrome `trace_event` exporters, and the
//!   [`trace::LinkEvent`] link-integrity events the retry and fault
//!   machinery emits.
//! * [`json`] — a dependency-free JSON tree, writer and parser used by the
//!   bench harness so machine-read reports are emitted through a codec
//!   instead of hand-rolled `format!` strings.
//! * [`hash`] — dependency-free SHA-256: the content hash behind the
//!   persistent result cache's keys (the 64-bit FNV fingerprint stays
//!   around for compact in-process labels, but a durable store needs
//!   collision resistance).
//!
//! # Examples
//!
//! ```
//! use simkit::stats::Running;
//!
//! let mut lat = Running::new();
//! for x in [10.0, 12.0, 14.0] {
//!     lat.push(x);
//! }
//! assert_eq!(lat.mean(), 12.0);
//! assert_eq!(lat.count(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod active;
pub mod codec;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod stats;
pub mod trace;

pub use active::ActiveSet;
pub use codec::{ByteReader, ByteWriter, CodecError, LoadState, SaveState};
pub use hash::Sha256;
pub use metrics::{MetricId, MetricKind, MetricsRegistry, MetricsSlice, MetricsSnapshot};
pub use par::Gate;
pub use rng::SimRng;
pub use stats::{Histogram, Running, Windowed};
pub use trace::{LinkEvent, TraceEvent, TraceFilter, TraceKind, TraceRing, Tracer};

/// A simulated clock cycle count.
///
/// All latencies and delays in the workspace are expressed in on-chip clock
/// cycles of the same clock domain, following the paper's simulator
/// methodology (§7.1).
pub type Cycle = u64;
