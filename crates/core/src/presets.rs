//! The paper's evaluated network presets and system scales.

use crate::config::SimConfig;
use crate::network::Network;
use crate::scheduler::SchedulingProfile;
use chiplet_topo::routing::HypercubeRouting;
use chiplet_topo::routing::{Algorithm1, NegativeFirstMesh, Routing, TorusAdaptive};
use chiplet_topo::{build, ChipletId, Geometry};

/// The networks compared in the evaluation (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Uniform-parallel-IF 2D-mesh (baseline for everything).
    UniformParallelMesh,
    /// Uniform-serial-IF 2D-torus (hetero-PHY baseline).
    UniformSerialTorus,
    /// Hetero-PHY 2D-torus, full interface bandwidth.
    HeteroPhyFull,
    /// Hetero-PHY 2D-torus, halved (pin-constrained) bandwidth.
    HeteroPhyHalf,
    /// Uniform-serial-IF chiplet hypercube (hetero-channel baseline).
    UniformSerialHypercube,
    /// Hetero-channel mesh + hypercube, full bandwidth.
    HeteroChannelFull,
    /// Hetero-channel mesh + hypercube, halved bandwidth.
    HeteroChannelHalf,
}

impl NetworkKind {
    /// The four networks of the hetero-PHY comparison (Figs. 11–13).
    pub const HETERO_PHY_SET: [NetworkKind; 4] = [
        NetworkKind::UniformParallelMesh,
        NetworkKind::UniformSerialTorus,
        NetworkKind::HeteroPhyFull,
        NetworkKind::HeteroPhyHalf,
    ];

    /// The four networks of the hetero-channel comparison (Figs. 14–15).
    pub const HETERO_CHANNEL_SET: [NetworkKind; 4] = [
        NetworkKind::UniformParallelMesh,
        NetworkKind::UniformSerialHypercube,
        NetworkKind::HeteroChannelFull,
        NetworkKind::HeteroChannelHalf,
    ];

    /// Whether this preset uses heterogeneous interfaces.
    pub fn is_hetero(self) -> bool {
        matches!(
            self,
            NetworkKind::HeteroPhyFull
                | NetworkKind::HeteroPhyHalf
                | NetworkKind::HeteroChannelFull
                | NetworkKind::HeteroChannelHalf
        )
    }

    /// Short label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            NetworkKind::UniformParallelMesh => "uni-parallel-mesh",
            NetworkKind::UniformSerialTorus => "uni-serial-torus",
            NetworkKind::HeteroPhyFull => "hetero-phy-full",
            NetworkKind::HeteroPhyHalf => "hetero-phy-half",
            NetworkKind::UniformSerialHypercube => "uni-serial-hypercube",
            NetworkKind::HeteroChannelFull => "hetero-channel-full",
            NetworkKind::HeteroChannelHalf => "hetero-channel-half",
        }
    }

    /// The inverse of [`NetworkKind::label`]: parses a preset from its
    /// table label (the vocabulary the serve API and CLI requests use).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "uni-parallel-mesh" => Some(NetworkKind::UniformParallelMesh),
            "uni-serial-torus" => Some(NetworkKind::UniformSerialTorus),
            "hetero-phy-full" => Some(NetworkKind::HeteroPhyFull),
            "hetero-phy-half" => Some(NetworkKind::HeteroPhyHalf),
            "uni-serial-hypercube" => Some(NetworkKind::UniformSerialHypercube),
            "hetero-channel-full" => Some(NetworkKind::HeteroChannelFull),
            "hetero-channel-half" => Some(NetworkKind::HeteroChannelHalf),
            _ => None,
        }
    }

    /// The configuration this preset actually simulates with: the profile's
    /// PHY policy applied, and the bandwidth mode forced to the preset's
    /// width (uniform baselines always run full-width interfaces; the
    /// `*Half` presets force pin-constrained halved mode). Exposed so
    /// model-based estimators key off exactly the config the engine uses.
    pub fn effective_config(self, config: SimConfig, profile: SchedulingProfile) -> SimConfig {
        let mut config = config.with_policy(profile.phy_policy);
        if !self.is_hetero() {
            // Uniform baselines always run full-width interfaces.
            config.bandwidth_mode = crate::config::BandwidthMode::Full;
        }
        match self {
            NetworkKind::HeteroPhyHalf | NetworkKind::HeteroChannelHalf => {
                config.bandwidth_mode = crate::config::BandwidthMode::Halved;
            }
            NetworkKind::HeteroPhyFull | NetworkKind::HeteroChannelFull => {
                config.bandwidth_mode = crate::config::BandwidthMode::Full;
            }
            _ => {}
        }
        config
    }

    /// Checks that this preset can be built on `geom`, naming the problem
    /// when it cannot: the global grid's width, height and chiplet count
    /// must each fit the 16-bit coordinates [`Geometry`] computes them in,
    /// every system needs at least two nodes, and the hypercube presets
    /// need a power-of-two chiplet count of at least 2 whose chiplet rim
    /// has a node per hypercube dimension. Request parsers call this so a
    /// geometry the topology builders would panic on (or silently wrap)
    /// is rejected up front.
    pub fn check_geometry(self, geom: Geometry) -> Result<(), String> {
        let (cx, cy) = (geom.chiplets_x(), geom.chiplets_y());
        let (w, h) = (geom.chip_w(), geom.chip_h());
        let fits = [(cx, w), (cy, h), (cx, cy)]
            .iter()
            .all(|&(a, b)| a.checked_mul(b).is_some());
        if !fits {
            return Err(format!(
                "{self} on {cx}x{cy} chiplets of {w}x{h} nodes overflows the \
                 16-bit grid (width, height and chiplet count must each be at most {})",
                u16::MAX
            ));
        }
        if geom.nodes() < 2 {
            return Err(format!(
                "{self} needs at least two nodes, got {}",
                geom.nodes()
            ));
        }
        if matches!(
            self,
            NetworkKind::UniformSerialHypercube
                | NetworkKind::HeteroChannelFull
                | NetworkKind::HeteroChannelHalf
        ) {
            let chiplets = geom.chiplets();
            if chiplets < 2 || !chiplets.is_power_of_two() {
                return Err(format!(
                    "{self} needs a power-of-two chiplet count of at least 2, got {chiplets}"
                ));
            }
            let dims = chiplets.trailing_zeros() as usize;
            let rim = geom.perimeter_nodes(ChipletId(0)).len();
            if rim < dims {
                return Err(format!(
                    "{self} needs {dims} rim nodes per chiplet for its hypercube \
                     dimensions, got {rim}"
                ));
            }
        }
        Ok(())
    }

    /// The link graph this preset simulates on `geom` (without the engine
    /// around it — topology-only consumers such as the estimation
    /// subsystem use this to avoid paying for network assembly).
    ///
    /// # Panics
    ///
    /// Panics on geometries [`NetworkKind::check_geometry`] rejects.
    pub fn topology(self, geom: Geometry) -> chiplet_topo::SystemTopology {
        match self {
            NetworkKind::UniformParallelMesh => build::parallel_mesh(geom),
            NetworkKind::UniformSerialTorus => build::serial_torus(geom),
            NetworkKind::HeteroPhyFull | NetworkKind::HeteroPhyHalf => {
                build::hetero_phy_torus(geom)
            }
            NetworkKind::UniformSerialHypercube => build::serial_hypercube(geom),
            NetworkKind::HeteroChannelFull | NetworkKind::HeteroChannelHalf => {
                build::hetero_channel(geom)
            }
        }
    }

    /// Builds the network for this preset on `geom` with `config` and the
    /// given scheduling profile.
    ///
    /// # Panics
    ///
    /// Panics on geometries [`NetworkKind::check_geometry`] rejects.
    pub fn build(self, geom: Geometry, config: SimConfig, profile: SchedulingProfile) -> Network {
        let config = self.effective_config(config, profile);
        let vcs = config.vcs;
        let routing: Box<dyn Routing> = match self {
            NetworkKind::UniformParallelMesh => Box::new(NegativeFirstMesh::new(vcs)),
            NetworkKind::UniformSerialTorus => Box::new(TorusAdaptive::new(vcs)),
            NetworkKind::HeteroPhyFull | NetworkKind::HeteroPhyHalf => {
                Box::new(TorusAdaptive::new(vcs))
            }
            NetworkKind::UniformSerialHypercube => Box::new(HypercubeRouting::new(vcs)),
            NetworkKind::HeteroChannelFull | NetworkKind::HeteroChannelHalf => Box::new(
                Algorithm1::with_serial_weight(vcs, profile.serial_selection_weight),
            ),
        };
        Network::new(self.topology(geom), routing, config)
    }
}

impl std::fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One of the paper's evaluated system scales (Table 3 notation:
/// `chiplets × (chip_w × chip_h)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Table 3 label.
    pub label: &'static str,
    /// The geometry.
    pub geometry: Geometry,
}

/// Every scale of Table 3.
pub fn paper_scales() -> Vec<Scale> {
    vec![
        Scale {
            label: "4x(2x2)",
            geometry: Geometry::new(2, 2, 2, 2),
        },
        Scale {
            label: "16x(2x2)",
            geometry: Geometry::new(4, 4, 2, 2),
        },
        Scale {
            label: "16x(4x4)",
            geometry: Geometry::new(4, 4, 4, 4),
        },
        Scale {
            label: "16x(6x6)",
            geometry: Geometry::new(4, 4, 6, 6),
        },
        Scale {
            label: "64x(7x7)",
            geometry: Geometry::new(8, 8, 7, 7),
        },
    ]
}

/// The medium pattern-evaluation system of §8.1.1: 4×4 chiplets of 4×4
/// nodes (256 nodes).
pub fn medium_system() -> Geometry {
    Geometry::new(4, 4, 4, 4)
}

/// The PARSEC system of §8.1.1: 4×4 chiplets of 2×2 nodes (64 nodes).
pub fn parsec_system() -> Geometry {
    Geometry::new(4, 4, 2, 2)
}

/// The HPC hetero-PHY system of §8.1.1: 6×6 chiplets of 6×6 nodes (1296).
pub fn hpc_system() -> Geometry {
    Geometry::new(6, 6, 6, 6)
}

/// The wafer-scale hetero-channel system of §8.1.2: 8×8 chiplets of 7×7
/// nodes (3136).
pub fn wafer_system() -> Geometry {
    Geometry::new(8, 8, 7, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_match_table3() {
        let s = paper_scales();
        assert_eq!(s.len(), 5);
        let nodes: Vec<u32> = s.iter().map(|x| x.geometry.nodes()).collect();
        assert_eq!(nodes, vec![16, 64, 256, 576, 3136]);
    }

    #[test]
    fn builds_every_preset_small() {
        let geom = Geometry::new(2, 2, 2, 2);
        for kind in [
            NetworkKind::UniformParallelMesh,
            NetworkKind::UniformSerialTorus,
            NetworkKind::HeteroPhyFull,
            NetworkKind::HeteroPhyHalf,
            NetworkKind::UniformSerialHypercube,
            NetworkKind::HeteroChannelFull,
            NetworkKind::HeteroChannelHalf,
        ] {
            let net = kind.build(geom, SimConfig::default(), SchedulingProfile::balanced());
            assert_eq!(net.topology().geometry().nodes(), 16, "{kind}");
        }
    }

    #[test]
    fn check_geometry_rejects_what_the_builders_panic_on() {
        // Multi-node geometries are rejected exactly when the builder
        // panics; single-node ones build but cannot be estimated.
        let mut rejected = 0;
        for dims in 0..81u16 {
            let d = |i: u32| dims / 3u16.pow(i) % 3 + 1;
            let geom = Geometry::new(d(0), d(1), d(2), d(3));
            for kind in crate::golden::ALL_KINDS {
                let built = std::panic::catch_unwind(|| {
                    kind.build(geom, SimConfig::default(), SchedulingProfile::balanced())
                });
                match kind.check_geometry(geom) {
                    Ok(()) => assert!(built.is_ok(), "{kind} on {geom:?} passed but panicked"),
                    Err(e) => {
                        assert!(
                            built.is_err() || geom.nodes() < 2,
                            "{kind} on {geom:?} builds: {e}"
                        );
                        rejected += 1;
                    }
                }
            }
        }
        assert!(rejected > 0);
        // Three well-formed serve requests that used to panic in compute.
        let reject = |kind: NetworkKind, g: [u16; 4], needle: &str| {
            let e = kind
                .check_geometry(Geometry::new(g[0], g[1], g[2], g[3]))
                .expect_err(needle);
            assert!(e.contains(needle), "{e:?} should mention {needle:?}");
        };
        for kind in crate::golden::ALL_KINDS {
            reject(kind, [1, 1, 1, 1], "two nodes");
        }
        reject(NetworkKind::HeteroChannelFull, [3, 3, 2, 2], "power-of-two");
        reject(
            NetworkKind::UniformSerialHypercube,
            [3, 1, 2, 2],
            "power-of-two",
        );
        reject(NetworkKind::HeteroChannelHalf, [4, 4, 1, 1], "rim nodes");
        // Width, height or chiplet count past u16 used to wrap silently.
        for g in [[300, 1, 300, 1], [1, 300, 1, 300], [300, 300, 1, 1]] {
            for kind in crate::golden::ALL_KINDS {
                reject(kind, g, "16-bit");
            }
        }
    }

    #[test]
    fn half_presets_halve_interfaces() {
        let geom = Geometry::new(2, 2, 2, 2);
        let net = NetworkKind::HeteroPhyHalf.build(
            geom,
            SimConfig::default(),
            SchedulingProfile::balanced(),
        );
        assert_eq!(net.config().phy_params().total_bw(), 3);
        let full = NetworkKind::HeteroPhyFull.build(
            geom,
            SimConfig::default(),
            SchedulingProfile::balanced(),
        );
        assert_eq!(full.config().phy_params().total_bw(), 6);
    }

    #[test]
    fn paper_system_sizes() {
        assert_eq!(medium_system().nodes(), 256);
        assert_eq!(parsec_system().nodes(), 64);
        assert_eq!(hpc_system().nodes(), 1296);
        assert_eq!(wafer_system().nodes(), 3136);
    }
}
