//! Chiplet-system topologies and deadlock-free routing.
//!
//! A multi-chiplet system in this workspace is a grid of identical chiplets,
//! each carrying a 2D-mesh network-on-chip whose perimeter nodes are
//! *interface nodes* (they own die-to-die interfaces, §6.1 of the paper).
//! This crate provides:
//!
//! * [`Geometry`] — node/chiplet coordinate arithmetic;
//! * [`SystemTopology`] and [`build`] — directed link graphs for every
//!   interconnection preset the paper evaluates (uniform-parallel mesh,
//!   uniform-serial torus, hetero-PHY torus, uniform-serial chiplet
//!   hypercube, hetero-channel mesh + hypercube);
//! * [`routing`] — the routing algorithms: negative-first adaptive mesh
//!   routing, torus routing structured per Lemma 1, dimension-ordered
//!   hypercube routing with adaptive channels (the "minus-first"
//!   reproduction of Feng et al., reference 30 of the paper), and **Algorithm 1** for
//!   hetero-channel systems with the paper's livelock restriction;
//! * [`weight`] — the weighted path length of Eq. 3/4;
//! * [`deadlock`] — a channel-dependency-graph acyclicity checker used to
//!   verify Theorem 1 mechanically.
//!
//! # Examples
//!
//! ```
//! use chiplet_topo::{build, Geometry};
//!
//! // 4x4 chiplets, each a 4x4 mesh: the paper's 256-node medium system.
//! let geom = Geometry::new(4, 4, 4, 4);
//! let topo = build::hetero_phy_torus(geom);
//! assert_eq!(topo.geometry().nodes(), 256);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coord;
pub mod deadlock;
pub mod link;
pub mod routing;
pub mod system;
pub mod weight;

pub use coord::{ChipletId, Coord, Geometry, NodeId};
pub use link::{Link, LinkClass, LinkId, LinkKind, MeshDir};
pub use routing::{Candidate, RouteState, RouteTable, Routing};
pub use system::{build, SystemKind, SystemTopology};
pub use weight::{CostWeights, LinkMetrics, PathDag};
