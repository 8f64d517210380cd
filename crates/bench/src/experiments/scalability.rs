//! Table 3: average latency reduction of hetero-IF networks across system
//! scales (uniform traffic at 0.1 flits/cycle/node).

use crate::experiments::run_preset;
use crate::harness::{Opts, Report};
use chiplet_topo::NodeId;
use chiplet_traffic::{SyntheticWorkload, TrafficPattern};
use hetero_if::presets::{paper_scales, NetworkKind};
use hetero_if::SchedulingProfile;

const RATE: f64 = 0.1;

/// The networks evaluated at scale index `i` (hetero-channel only exists
/// at the three largest scales — Table 3 shows "/" below that).
fn kinds_at(i: usize) -> Vec<NetworkKind> {
    let mut kinds = vec![
        NetworkKind::UniformParallelMesh,
        NetworkKind::UniformSerialTorus,
        NetworkKind::HeteroPhyFull,
    ];
    if i >= 2 {
        kinds.push(NetworkKind::UniformSerialHypercube);
        kinds.push(NetworkKind::HeteroChannelFull);
    }
    kinds
}

fn avg_latency(kind: NetworkKind, geom: chiplet_topo::Geometry, opts: &Opts) -> f64 {
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, RATE, 16, 0x7AB3);
    run_preset(
        kind,
        geom,
        SchedulingProfile::balanced(),
        &mut w,
        opts.spec(),
    )
    .avg_latency
}

fn reduction(hetero: f64, baseline: f64) -> f64 {
    (1.0 - hetero / baseline) * 100.0
}

/// Regenerates Table 3.
pub fn tab03(opts: &Opts) -> Report {
    let mut r = Report::new("tab03_scalability");
    r.line("Table 3: avg latency reduction of hetero-IF vs uniform-parallel / uniform-serial");
    r.line(format!(
        "{:<10} {:>24} {:>24}",
        "scale", "Hetero-PHY", "Hetero-Channel"
    ));
    r.csv("scale,nodes,phy_vs_parallel_pct,phy_vs_serial_pct,hc_vs_parallel_pct,hc_vs_serial_pct");
    // Every (scale, network) latency is an independent run; compute them
    // all on the worker pool, then format the table sequentially so the
    // report does not depend on `--threads`.
    let scales = paper_scales();
    let jobs: Vec<(NetworkKind, chiplet_topo::Geometry)> = scales
        .iter()
        .enumerate()
        .flat_map(|(i, s)| kinds_at(i).into_iter().map(move |k| (k, s.geometry)))
        .collect();
    let mut latencies = simkit::par::map(&jobs, opts.threads, |&(kind, geom)| {
        avg_latency(kind, geom, opts)
    })
    .into_iter();
    let mut lat = || latencies.next().expect("one latency per (scale, network)");
    for (i, scale) in scales.iter().enumerate() {
        let geom = scale.geometry;
        let mesh = lat();
        let torus = lat();
        let hphy = lat();
        let phy_cell = format!(
            "{:>10.1}% / {:>9.1}%",
            reduction(hphy, mesh),
            reduction(hphy, torus)
        );
        // The paper evaluates hetero-channel only at the three largest
        // scales (Table 3 shows "/" for the small ones).
        let (hc_cell, hc_csv) = if i >= 2 {
            let cube = lat();
            let hc = lat();
            (
                format!(
                    "{:>10.1}% / {:>9.1}%",
                    reduction(hc, mesh),
                    reduction(hc, cube)
                ),
                format!("{:.1},{:.1}", reduction(hc, mesh), reduction(hc, cube)),
            )
        } else {
            (format!("{:>24}", "/"), ",".to_string())
        };
        r.line(format!("{:<10} {:>24} {}", scale.label, phy_cell, hc_cell));
        r.csv(format!(
            "{},{},{:.1},{:.1},{}",
            scale.label,
            geom.nodes(),
            reduction(hphy, mesh),
            reduction(hphy, torus),
            hc_csv
        ));
    }
    r.line("(positive = hetero-IF is faster; paper reports 9.6%–46.4% reductions)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        assert!((reduction(80.0, 100.0) - 20.0).abs() < 1e-9);
        assert!(reduction(120.0, 100.0) < 0.0);
    }
}
