//! Fig. 19 (beyond the paper): link-integrity curves.
//!
//! Two artifacts from the fault subsystem:
//!
//! * `fig19_latency_vs_ber` — average/p99 latency and retry traffic as the
//!   raw serial-wire bit error rate sweeps from 0 to 1e-4, for the
//!   uniform-serial torus and the hetero-PHY torus (both with the
//!   CRC/replay retry layer armed);
//! * `fig19_failover` — delivered-flit throughput over time while every
//!   parallel PHY hard-fails mid-measurement: the hetero-PHY system
//!   shifts onto its serial PHYs and keeps serving, the homogeneous
//!   parallel mesh wedges its cross-chiplet traffic.

use crate::harness::{Opts, Report};
use chiplet_fault::FaultScript;
use chiplet_phy::PhyKind;
use chiplet_topo::{Geometry, NodeId};
use chiplet_traffic::{SyntheticWorkload, TrafficPattern};
use hetero_if::presets::NetworkKind;
use hetero_if::sim::{run, run_timeline, RunOutcome};
use hetero_if::{SchedulingProfile, SimConfig};

/// The swept raw serial-wire bit error rates (BER 0 measures the armed
/// retry layer's overhead in isolation).
pub const BER_POINTS: [f64; 5] = [0.0, 1e-7, 1e-6, 1e-5, 1e-4];

fn geometry(opts: &Opts) -> Geometry {
    if opts.full {
        Geometry::new(4, 4, 4, 4)
    } else {
        Geometry::new(2, 2, 4, 4)
    }
}

fn workload(geom: Geometry, seed: u64) -> SyntheticWorkload {
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.05, 16, seed)
}

fn run_at_ber(kind: NetworkKind, geom: Geometry, ber: f64, opts: &Opts) -> RunOutcome {
    let config = if ber > 0.0 {
        SimConfig::default().with_seed(7).with_ber(ber)
    } else {
        SimConfig::default().with_seed(7).with_retry()
    };
    let mut net = kind.build(geom, config, SchedulingProfile::balanced());
    let mut w = workload(geom, 7);
    run(&mut net, &mut w, opts.spec())
}

/// The latency-vs-BER curve for the serial torus and the hetero-PHY torus.
pub fn fig19_ber(opts: &Opts) -> Report {
    let mut r = Report::new("fig19_latency_vs_ber");
    let geom = geometry(opts);
    r.line(format!(
        "Fig. 19a: latency vs raw serial-wire BER ({} nodes, uniform 0.05 \
         flits/cycle/node, CRC/replay retry armed)",
        geom.nodes()
    ));
    r.line(format!(
        "{:>8} {:>14} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "ber", "system", "avg(cy)", "p99(cy)", "corrupted", "retx", "drained"
    ));
    r.csv(
        "ber,system,avg_latency,p99_latency,throughput,corrupted_flits,retransmitted_flits,drained",
    );
    let systems = [
        (NetworkKind::UniformSerialTorus, "serial-torus"),
        (NetworkKind::HeteroPhyFull, "hetero-phy"),
    ];
    let jobs: Vec<(f64, NetworkKind, &str)> = BER_POINTS
        .iter()
        .flat_map(|&ber| systems.iter().map(move |&(k, name)| (ber, k, name)))
        .collect();
    let outcomes = simkit::par::map(&jobs, opts.threads, |&(ber, kind, name)| {
        (ber, name, run_at_ber(kind, geom, ber, opts))
    });
    for (ber, name, out) in &outcomes {
        let res = &out.results;
        r.line(format!(
            "{:>8.0e} {:>14} {:>9.1} {:>9.1} {:>10} {:>10} {:>8}",
            ber,
            name,
            res.avg_latency,
            res.p99_latency,
            res.corrupted_flits,
            res.retransmitted_flits,
            out.drained
        ));
        r.csv(format!(
            "{ber:e},{name},{:.2},{:.2},{:.5},{},{},{}",
            res.avg_latency,
            res.p99_latency,
            res.throughput,
            res.corrupted_flits,
            res.retransmitted_flits,
            out.drained
        ));
    }
    r
}

/// Throughput over time through a scripted hard failure of every parallel
/// PHY at one third of the measurement window.
pub fn fig19_failover(opts: &Opts) -> Report {
    let mut r = Report::new("fig19_failover");
    let geom = geometry(opts);
    let spec = opts.spec();
    let fail_at = spec.warmup + spec.measure / 3;
    let bin = (spec.measure / 40).max(1);
    r.line(format!(
        "Fig. 19b: delivered flits per cycle while every parallel PHY \
         hard-fails at cycle {fail_at} ({} nodes)",
        geom.nodes()
    ));
    r.line(format!(
        "{:>10} {:>12} {:>14}",
        "cycle", "hetero-phy", "parallel-mesh"
    ));
    r.csv("cycle,hetero_phy_flits_per_cycle,parallel_mesh_flits_per_cycle");
    let series: Vec<Vec<(u64, u64)>> = simkit::par::map(
        &[NetworkKind::HeteroPhyFull, NetworkKind::UniformParallelMesh],
        opts.threads,
        |&kind| {
            let mut net = kind.build(
                geom,
                SimConfig::default().with_seed(7),
                SchedulingProfile::balanced(),
            );
            net.set_fault_script(FaultScript::single_phy_failure(fail_at, PhyKind::Parallel));
            let mut w = workload(geom, 7);
            let (out, samples) = run_timeline(&mut net, &mut w, spec, bin);
            r_note(kind, &out);
            samples
                .iter()
                .map(|s| (s.cycle, s.delivered_flits))
                .collect()
        },
    );
    let (hetero, mesh) = (&series[0], &series[1]);
    let mut prev = (0u64, 0u64);
    for i in 0..hetero.len().min(mesh.len()) {
        let cycle = hetero[i].0;
        let h_rate = (hetero[i].1 - prev.0) as f64 / bin as f64;
        let m_rate = (mesh[i].1 - prev.1) as f64 / bin as f64;
        prev = (hetero[i].1, mesh[i].1);
        r.line(format!("{cycle:>10} {h_rate:>12.2} {m_rate:>14.2}"));
        r.csv(format!("{cycle},{h_rate:.3},{m_rate:.3}"));
    }
    r
}

/// Prints a one-line outcome note for a failover run (threads may
/// interleave these; each line is atomic).
fn r_note(kind: NetworkKind, out: &RunOutcome) {
    eprintln!(
        "  {kind}: drained={} fault_stalled={} failovers={} backlog={}",
        out.drained, out.fault_stalled, out.results.failovers, out.results.backlog
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_curve_covers_the_grid_and_stays_ordered() {
        let opts = Opts::default();
        let r = fig19_ber(&opts);
        // Header + 5 BER points x 2 systems.
        assert_eq!(r.csv_text().lines().count(), 1 + BER_POINTS.len() * 2);
        // Every run at the swept error rates must still deliver.
        assert!(!r.csv_text().contains("false"), "{}", r.csv_text());
    }

    #[test]
    fn failover_timeline_shows_hetero_surviving() {
        let opts = Opts::default();
        let r = fig19_failover(&opts);
        let csv = r.csv_text();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert!(rows.len() >= 10);
        // After the failure point the hetero system keeps delivering.
        let spec = opts.spec();
        let fail_at = spec.warmup + spec.measure / 3;
        let late: Vec<(f64, f64)> = rows
            .iter()
            .filter_map(|row| {
                let mut f = row.split(',');
                let cycle: u64 = f.next()?.parse().ok()?;
                let h: f64 = f.next()?.parse().ok()?;
                let m: f64 = f.next()?.parse().ok()?;
                (cycle > fail_at + 500).then_some((h, m))
            })
            .collect();
        assert!(!late.is_empty());
        let h_sum: f64 = late.iter().map(|&(h, _)| h).sum();
        let m_sum: f64 = late.iter().map(|&(_, m)| m).sum();
        assert!(
            h_sum > 2.0 * m_sum,
            "hetero {h_sum:.1} should dominate mesh {m_sum:.1} after failover"
        );
    }
}
