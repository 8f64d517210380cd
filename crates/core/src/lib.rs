//! Heterogeneous die-to-die interfaces: the core library.
//!
//! This crate is the paper's contribution layer: it assembles the
//! substrates (`chiplet-noc` routers, `chiplet-topo` topologies and
//! routing, `chiplet-phy` interfaces, `chiplet-traffic` workloads) into
//! runnable multi-chiplet systems and drives the experiments of the
//! MICRO'23 paper *"Heterogeneous Die-to-Die Interfaces: Enabling More
//! Flexible Chiplet Interconnection Systems"*.
//!
//! # Quick start
//!
//! ```
//! use hetero_if::{NetworkKind, SchedulingProfile, SimConfig};
//! use hetero_if::sim::{run, RunSpec};
//! use chiplet_traffic::{SyntheticWorkload, TrafficPattern};
//! use chiplet_topo::NodeId;
//!
//! // A 16-node hetero-PHY torus under light uniform traffic.
//! let geom = chiplet_topo::Geometry::new(2, 2, 2, 2);
//! let mut net = NetworkKind::HeteroPhyFull.build(
//!     geom, SimConfig::default(), SchedulingProfile::balanced());
//! let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
//! let mut workload =
//!     SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.05, 16, 1);
//! let outcome = run(&mut net, &mut workload, RunSpec::smoke());
//! assert!(outcome.results.packets > 0);
//! ```
//!
//! # Layout
//!
//! * [`config`] — Table 2 parameters, full/halved bandwidth modes;
//! * [`network`] — router/link/NIC assembly and the statistics collector;
//! * `engine` / `shard` / `parallel` (internal) — the staged per-cycle
//!   engine: credits → media → inject → route, with active-set
//!   scheduling that skips idle components, partitioned into
//!   chiplet-group shards that can run on a worker pool
//!   ([`SimConfig::shard_threads`]) with bit-identical results;
//! * [`scheduler`] — the §5.3 scheduling profiles;
//! * [`presets`] — the evaluated network kinds and system scales;
//! * [`sim`] — warm-up/measure/drain driver with a deadlock watchdog and
//!   an optional progress timeline ([`sim::run_timeline`]);
//! * [`sweep`] — injection-rate sweeps (latency–throughput curves),
//!   sequential or multi-threaded ([`sweep::latency_sweep`]), and the one
//!   early-exit rule every sweep uses ([`sweep::until_saturated`]);
//! * fault model — [`SimConfig::with_ber`] arms BER-driven corruption and
//!   the CRC/replay retry layer ([`chiplet_fault`] holds the config and
//!   scripts; [`Network::set_fault_script`] schedules hard failures);
//! * [`golden`] — the golden-trace matrix pinning the bit-identity
//!   contract that hot-path optimizations must preserve;
//! * [`cache`] — the content-addressed result cache (SHA-256 over the
//!   canonical point identity; in-memory LRU over an integrity-checked
//!   on-disk store) shared by `hetero-serve`, `hetero-sim --cache-dir`
//!   and the bench harness;
//! * [`checkpoint`] — snapshot-exact save/restore of a running network
//!   ([`Network::checkpoint`] / [`Network::restore`] /
//!   [`Network::fork_with`]), restorable at a different shard count;
//! * [`energy`] — the §8.3 energy model;
//! * [`economy`] — the §10 chiplet-reuse cost model;
//! * [`results`] — aggregated metrics.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod economy;
pub mod energy;
mod engine;
pub mod golden;
pub mod network;
mod parallel;
pub mod presets;
pub mod results;
pub mod scheduler;
mod shard;
pub mod sim;
pub mod sweep;
mod wheel;

pub use cache::{CacheKey, CacheSource, CachedPoint, PointDesc, ResultCache};
pub use checkpoint::CHECKPOINT_VERSION;
pub use chiplet_fault::{FaultConfig, FaultEvent, FaultScript, FaultTarget, TimedFault};
pub use config::{BandwidthMode, SimConfig};
pub use energy::EnergyModel;
pub use network::Network;
pub use presets::NetworkKind;
pub use results::SimResults;
pub use scheduler::SchedulingProfile;
