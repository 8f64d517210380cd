//! Cycle-accurate network-on-chip substrate.
//!
//! This crate implements the simulator microarchitecture of §7.1 of the
//! paper:
//!
//! * [`flit`]/[`packet`] — flits, packets and the packet descriptor store;
//! * [`arena`] — the slab/freelist [`arena::FlitArena`] giving every
//!   in-flight flit a stable home and a copyable 4-byte handle, so router
//!   buffers and channel queues move indices instead of structs and the
//!   steady-state hot path performs no allocation;
//! * [`channel`] — behavioral channel models: a [`channel::DelayLine`]
//!   ("multiple virtual pipeline registers": latency → pipeline stages,
//!   bandwidth → lanes) and its entry half [`channel::Lanes`] for a link
//!   whose in-flight flits live elsewhere;
//! * [`mailbox`] — the double-buffered [`mailbox::ShardMailbox`] carrying
//!   flit and credit values across shard boundaries in the parallel
//!   engine, with a drain order fixed by shard id rather than scheduling;
//! * [`retry`] — a CRC-protected go-back-N retry layer
//!   ([`retry::RetryLine`]) wrapping the same channel geometry, so
//!   link-integrity recovery consumes real bandwidth and latency;
//! * [`router`] — the canonical virtual-channel router with the classic
//!   four-stage pipeline (routing computation → VC allocation → switch
//!   allocation → transmission) and the paper's §4.1 extension: interface
//!   output ports with a **higher-radix crossbar** (multiple internal ports
//!   feed one interface concurrently, capacity = interface bandwidth) and
//!   multi-flit-per-cycle input draining.
//!
//! The router is deliberately independent of topology and of the medium
//! behind each port: the embedding system implements [`router::RouterEnv`]
//! to supply routing candidates (from `chiplet-topo`) and to accept sent
//! flits (plain links, hetero-PHY adapters from `chiplet-phy`, or local
//! ejection).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod channel;
pub mod flit;
pub mod mailbox;
pub mod packet;
pub mod retry;
pub mod router;

pub use arena::{FlitArena, FlitRef, Slab};
pub use channel::{DelayLine, Lanes};
pub use flit::{Flit, OrderClass, Priority};
pub use mailbox::ShardMailbox;
pub use packet::{PacketId, PacketInfo, PacketStore};
pub use retry::RetryLine;
pub use router::{PipelineStage, PortCandidate, Router, RouterEnv};
