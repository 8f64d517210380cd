//! Two-tier estimation for hetero-chiplet networks.
//!
//! Full cycle-accurate sweeps answer "where does this network saturate?"
//! at the cost of simulating every cycle of every rate point. This crate
//! answers the same question in microseconds by decomposing the network
//! into per-link workloads (the Parsimon idea applied to chiplet
//! interconnects) and estimating each link class independently behind a
//! pluggable [`LinkSim`] backend:
//!
//! * [`AnalyticalBackend`] — a closed-form model built from the paper's
//!   own equations: Eq. 2 V–t curves ([`chiplet_phy::VtModel`]) for
//!   hetero-PHY service, Eq. 3/4 weighted path lengths for route
//!   decomposition, Eq. 1 ROB occupancy for the reordering penalty and
//!   Eq. 5 channel selection for hetero-channel flow splitting, plus an
//!   M/D/1 contention term fitted per Table-1 interface family.
//! * [`CycleAccurateBackend`] — the ground-truth tier: wraps the real
//!   engine on a reduced two-node scenario per link class and caches the
//!   measured latency per (class, load-bucket).
//!
//! The [`Estimator`] front-end answers the question
//! [`hetero_if::sweep::latency_sweep`] measures: [`Estimator::estimate_sweep`]
//! walks a rate ladder, uses the sweeps' early-exit rule
//! ([`hetero_if::sweep::until_saturated`]) and returns an
//! [`EstimatedCurve`] with a predicted saturation point. The
//! [`calibrate`] module runs both tiers over the paper presets and
//! reports per-preset error against the cycle-accurate golden curves —
//! the calibration gate in `tests/calibration.rs` holds the analytical
//! tier to documented error bounds.
//!
//! # Example
//!
//! ```
//! use hetero_estimate::{Estimator, EstimateRequest};
//! use hetero_if::{NetworkKind, SimConfig, SchedulingProfile};
//! use hetero_if::sweep::default_rate_ladder;
//! use chiplet_topo::Geometry;
//! use chiplet_traffic::TrafficPattern;
//!
//! let req = EstimateRequest {
//!     kind: NetworkKind::HeteroPhyFull,
//!     geom: Geometry::new(2, 2, 2, 2),
//!     config: SimConfig::default(),
//!     profile: SchedulingProfile::balanced(),
//!     pattern: TrafficPattern::Uniform,
//! };
//! let curve = Estimator::analytical().estimate_sweep(&req, &default_rate_ladder());
//! assert!(curve.saturation_rate.is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod calibrate;
pub mod decompose;
pub mod estimator;
pub mod phases;
pub mod workload;

pub use backend::{AnalyticalBackend, CycleAccurateBackend, FitConstants, LinkEstimate, LinkSim};
pub use calibrate::{calibrate, error_bound_pct, CalibrationReport, PresetCalibration};
pub use decompose::{Decomposition, LinkClassGroup, RoutingRole};
pub use estimator::{EstimateRequest, EstimatedCurve, EstimatedPoint, Estimator};
pub use phases::PhaseTrafficSummary;
pub use workload::{ClassKey, LinkWorkload};
