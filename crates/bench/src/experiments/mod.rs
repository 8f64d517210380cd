//! One module per evaluation artifact of the paper.

pub mod ablations;
pub mod energy;
pub mod faults;
pub mod patterns;
pub mod scalability;
pub mod tables;
pub mod traces;
pub mod vt;

use crate::harness::{Opts, Report};
use chiplet_topo::Geometry;
use chiplet_traffic::Workload;
use hetero_if::presets::NetworkKind;
use hetero_if::sim::{run, RunSpec};
use hetero_if::{SchedulingProfile, SimConfig, SimResults};

/// One paper artifact: the name `hetero-bench` selects it by and the
/// experiment producing its report.
pub type Artifact = (&'static str, fn(&Opts) -> Report);

/// Every artifact `hetero-bench` regenerates, in run order. Fig. 19 has
/// two reports under one name.
pub const ARTIFACTS: &[Artifact] = &[
    ("tab01", tables::tab01),
    ("fig08", vt::fig08),
    ("fig11", patterns::fig11),
    ("fig12", traces::fig12),
    ("fig13", traces::fig13),
    ("fig14", patterns::fig14),
    ("fig15", traces::fig15),
    ("tab03", scalability::tab03),
    ("tab04", tables::tab04),
    ("fig16", energy::fig16),
    ("fig17", energy::fig17),
    ("fig18", energy::fig18),
    ("fig19", faults::fig19_ber),
    ("fig19", faults::fig19_failover),
    ("ablations", ablations::ablations),
];

/// Runs one preset network under a workload and returns the results.
pub(crate) fn run_preset(
    kind: NetworkKind,
    geom: Geometry,
    profile: SchedulingProfile,
    workload: &mut dyn Workload,
    spec: RunSpec,
) -> SimResults {
    let mut net = kind.build(geom, SimConfig::default(), profile);
    run(&mut net, workload, spec).results
}

/// The reduced stand-in for the paper's 3136-node wafer-scale system:
/// 4×4 chiplets of 5×5 nodes (400 nodes, 4 hypercube dimensions) — small
/// enough for minutes-scale sweeps, large enough that the mesh diameter
/// clearly exceeds the hypercube diameter.
pub(crate) fn reduced_wafer() -> Geometry {
    Geometry::new(4, 4, 5, 5)
}

/// The reduced stand-in for the 1296-node HPC system: the 256-node medium
/// system.
pub(crate) fn reduced_hpc() -> Geometry {
    hetero_if::presets::medium_system()
}
