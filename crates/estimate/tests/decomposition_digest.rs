//! Pins every bit of the analytical decomposition and curve.
//!
//! One FNV-1a digest over the raw `f64` bits of each [`Decomposition`]
//! field, each link class and each analytical curve point, across every
//! preset × geometry × pattern × profile below. Any change to the
//! shortest-path DAG builder or the flow accumulation that moves a single
//! bit anywhere in the matrix changes the digest.

use chiplet_topo::Geometry;
use chiplet_traffic::TrafficPattern;
use hetero_estimate::{Decomposition, EstimateRequest, Estimator};
use hetero_if::{NetworkKind, SchedulingProfile, SimConfig};

const PRESETS: [NetworkKind; 7] = [
    NetworkKind::UniformParallelMesh,
    NetworkKind::UniformSerialTorus,
    NetworkKind::HeteroPhyFull,
    NetworkKind::HeteroPhyHalf,
    NetworkKind::UniformSerialHypercube,
    NetworkKind::HeteroChannelFull,
    NetworkKind::HeteroChannelHalf,
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }
}

fn absorb(
    h: &mut Fnv,
    kind: NetworkKind,
    geom: Geometry,
    profile: SchedulingProfile,
    pattern: TrafficPattern,
) {
    let config = kind.effective_config(SimConfig::default(), profile);
    let d = Decomposition::analyze(&kind.topology(geom), &config, &profile, pattern);
    h.f64s(&d.unit_loads);
    h.f64s(&d.inj_unit);
    h.f64s(&d.eject_unit);
    h.f64s(&d.eff_bandwidth);
    h.f64(d.total_weight);
    h.f64(d.avg_hops);
    h.f64(d.ser_inv_mean);
    h.u64(d.active_sources as u64);
    h.u64(d.groups.len() as u64);
    for g in &d.groups {
        h.bytes(format!("{:?}", g.key).as_bytes());
        h.u64(g.links.len() as u64);
        h.f64(g.mean_unit_load);
    }

    let req = EstimateRequest {
        kind,
        geom,
        config: SimConfig::default(),
        profile,
        pattern,
    };
    let rates: Vec<f64> = (1..=12).map(|i| f64::from(i) * 0.04).collect();
    let curve = Estimator::analytical().estimate_sweep(&req, &rates);
    h.f64(curve.predicted_saturation_rate);
    h.u64(curve.points.len() as u64);
    for p in &curve.points {
        h.f64(p.rate);
        h.f64(p.avg_latency);
        h.f64(p.avg_hops);
        h.f64(p.throughput);
        h.f64(p.avg_energy_pj);
        h.f64(p.max_utilization);
        h.u64(u64::from(p.saturated));
    }
}

#[test]
fn decomposition_and_curves_are_bit_stable() {
    let geoms = [
        Geometry::new(2, 2, 2, 2),
        Geometry::new(4, 4, 2, 2),
        Geometry::new(2, 4, 3, 2),
    ];
    let profiles = [
        SchedulingProfile::balanced(),
        SchedulingProfile::performance_first(),
    ];
    let hypercube = |k: NetworkKind| {
        matches!(
            k,
            NetworkKind::UniformSerialHypercube
                | NetworkKind::HeteroChannelFull
                | NetworkKind::HeteroChannelHalf
        )
    };
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut configs = 0;
    for kind in PRESETS {
        for geom in geoms {
            if hypercube(kind) && !geom.chiplets().is_power_of_two() {
                continue;
            }
            for pattern in TrafficPattern::ALL {
                for profile in profiles {
                    absorb(&mut h, kind, geom, profile, pattern);
                    configs += 1;
                }
            }
        }
        absorb(
            &mut h,
            kind,
            Geometry::new(4, 4, 4, 4),
            SchedulingProfile::balanced(),
            TrafficPattern::Uniform,
        );
        configs += 1;
    }
    assert_eq!(configs, 259);
    assert_eq!(
        h.0, 0x146e_32d0_3bec_8b44,
        "decomposition digest moved: {:#018x}",
        h.0
    );
}
