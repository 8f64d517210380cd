//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **ROB capacity** (Eq. 1): an adapter-level sweep showing that
//!    capacities below `B_p · (D_s − D_p)` throttle throughput while the
//!    Eq. 1 size is sufficient (§4.3: "around 10 flits ... close to a
//!    typical packet size").
//! 2. **Balanced-policy threshold** (§5.3.1/§7.3): latency and serial-PHY
//!    usage across thresholds.
//! 3. **Higher-radix interface crossbar** (§4.1): the hetero router vs a
//!    traditional router feeding interfaces at on-chip bandwidth.
//! 4. **Parallel-PHY bypass** (§4.2): tail latency of high-priority
//!    packets with and without the bypass.

use crate::harness::{Opts, Report};
use chiplet_noc::packet::PacketId;
use chiplet_noc::{Flit, FlitArena, OrderClass, Priority};
use chiplet_phy::{HeteroPhyLink, PhyParams, PhyPolicy};
use chiplet_topo::{Geometry, NodeId};
use chiplet_traffic::{SyntheticWorkload, TrafficPattern};
use hetero_if::presets::NetworkKind;
use hetero_if::sim::run;
use hetero_if::{SchedulingProfile, SimConfig};

/// Ablation 1: reorder-buffer capacity sweep on one saturated link.
fn rob_capacity(r: &mut Report) {
    let params = PhyParams::full();
    r.line(format!(
        "[1] ROB capacity (Eq. 1 size = {} flits): saturated link; the\n    deliverable-admission rule keeps throughput at combined bandwidth,\n    and the watermark shows Eq. 1 is the real occupancy bound",
        params.rob_capacity()
    ));
    r.line(format!(
        "{:>10} {:>14} {:>12}",
        "capacity", "flits/cycle", "watermark"
    ));
    for cap in [4u16, 8, 15, 30, 60, 120] {
        let mut arena = FlitArena::new();
        let mut link = HeteroPhyLink::new(params, PhyPolicy::PerformanceFirst, 64);
        link.set_rob_capacity(cap);
        let cycles = 2_000u64;
        let mut pushed = 0u32;
        let mut delivered = 0u64;
        // Alternate packets across two VCs, 16 flits each, kept saturated.
        let mut seq = [0u16; 2];
        let mut pid = [0u32, 1u32];
        for now in 0..cycles {
            while link.space() > 0 {
                let vc = if seq[0] <= seq[1] { 0 } else { 1 };
                let flit = Flit::new(PacketId(pid[vc]), seq[vc], vc as u8, seq[vc] == 15);
                link.push(
                    now,
                    arena.alloc(flit),
                    OrderClass::InOrder,
                    Priority::Normal,
                );
                seq[vc] += 1;
                if seq[vc] == 16 {
                    seq[vc] = 0;
                    pid[vc] += 2;
                    pushed += 1;
                }
            }
            link.advance(now, &arena, &mut |_| {});
            while let Some((fref, _)) = link.pop_delivered() {
                arena.free(fref);
                delivered += 1;
            }
        }
        let _ = pushed;
        r.line(format!(
            "{:>10} {:>14.2} {:>12}",
            cap,
            delivered as f64 / cycles as f64,
            link.rob_watermark()
        ));
        r.csv(format!(
            "rob_capacity,{cap},{:.3},{}",
            delivered as f64 / cycles as f64,
            link.rob_watermark()
        ));
    }
}

/// Ablation 2: balanced-policy threshold sweep at system level.
fn balanced_threshold(r: &mut Report, opts: &Opts) {
    r.line("[2] balanced-policy threshold (TX FIFO occupancy enabling the serial PHY)");
    r.line(format!(
        "{:>10} {:>14} {:>16} {:>14}",
        "threshold", "latency(cy)", "serial pJ/pkt", "energy(pJ)"
    ));
    let geom = Geometry::new(4, 4, 2, 2);
    for thr in [1u16, 4, 8, 12, 16] {
        let mut profile = SchedulingProfile::balanced();
        profile.phy_policy = PhyPolicy::Balanced { threshold: thr };
        let mut net = NetworkKind::HeteroPhyFull.build(geom, SimConfig::default(), profile);
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::Uniform, 0.35, 16, 11);
        let res = run(&mut net, &mut w, opts.spec()).results;
        r.line(format!(
            "{:>10} {:>14.1} {:>16.0} {:>14.0}",
            thr, res.avg_latency, res.avg_serial_pj, res.avg_energy_pj
        ));
        r.csv(format!(
            "balanced_threshold,{thr},{:.2},{:.1},{:.1}",
            res.avg_latency, res.avg_serial_pj, res.avg_energy_pj
        ));
    }
}

/// Ablation 3: §4.1 higher-radix crossbar on/off.
fn crossbar(r: &mut Report, opts: &Opts) {
    r.line("[3] higher-radix interface crossbar (§4.1) under convergent load");
    r.line(format!(
        "{:>14} {:>14} {:>14} {:>12}",
        "crossbar", "latency(cy)", "throughput", "saturated"
    ));
    let geom = Geometry::new(4, 4, 2, 2);
    for (name, config) in [
        ("higher-radix", SimConfig::default()),
        (
            "traditional",
            SimConfig::default().without_higher_radix_crossbar(),
        ),
    ] {
        let mut net =
            NetworkKind::HeteroPhyFull.build(geom, config, SchedulingProfile::performance_first());
        let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
        // Bisection-hostile traffic beyond saturation: the metric that
        // matters is accepted throughput (§4.1 is about bandwidth
        // utilization, not zero-load latency).
        let mut w = SyntheticWorkload::new(nodes, TrafficPattern::BitComplement, 1.2, 16, 12);
        let res = run(&mut net, &mut w, opts.spec()).results;
        r.line(format!(
            "{:>14} {:>14.1} {:>14.4} {:>12}",
            name,
            res.avg_latency,
            res.throughput,
            res.is_saturated()
        ));
        r.csv(format!(
            "crossbar,{name},{:.2},{:.5},{}",
            res.avg_latency,
            res.throughput,
            res.is_saturated()
        ));
    }
}

/// Ablation 4: §4.2 parallel-PHY bypass on/off — a controlled link-level
/// experiment: a high-priority single-flit packet arrives behind a bulk
/// backlog of varying depth; the bypass lets it jump the TX queue onto the
/// parallel PHY.
fn bypass(r: &mut Report, _opts: &Opts) {
    r.line("[4] parallel-PHY bypass (§4.2): high-priority delivery time vs backlog");
    r.line(format!(
        "{:>10} {:>16} {:>16} {:>10}",
        "backlog", "bypass on (cy)", "bypass off (cy)", "saved"
    ));
    for backlog in [4u16, 8, 16, 32, 48] {
        let mut results = [0u64; 2];
        for (i, enabled) in [true, false].into_iter().enumerate() {
            let mut arena = FlitArena::new();
            let mut link = HeteroPhyLink::new(
                PhyParams::full(),
                PhyPolicy::ApplicationAware { threshold: 8 },
                64,
            );
            link.set_bypass_enabled(enabled);
            for s in 0..backlog {
                link.push(
                    0,
                    arena.alloc(Flit::new(PacketId(1), s, 0, s + 1 == backlog)),
                    OrderClass::Unordered,
                    Priority::Normal,
                );
            }
            link.push(
                0,
                arena.alloc(Flit::new(PacketId(2), 0, 1, true)),
                OrderClass::Unordered,
                Priority::High,
            );
            'outer: for now in 1..500u64 {
                link.advance(now, &arena, &mut |_| {});
                while let Some((fref, _)) = link.pop_delivered() {
                    if arena.free(fref).pid.0 == 2 {
                        results[i] = now;
                        break 'outer;
                    }
                }
            }
        }
        r.line(format!(
            "{:>10} {:>16} {:>16} {:>10}",
            backlog,
            results[0],
            results[1],
            results[1] as i64 - results[0] as i64
        ));
        r.csv(format!("bypass,{backlog},{},{}", results[0], results[1]));
    }
}

/// Runs all four ablations.
pub fn ablations(opts: &Opts) -> Report {
    let mut r = Report::new("ablations");
    r.line("Ablation studies (design choices of §4–§5)");
    r.csv("study,setting,metric1,metric2,metric3");
    rob_capacity(&mut r);
    balanced_threshold(&mut r, opts);
    crossbar(&mut r, opts);
    bypass(&mut r, opts);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rob_sweep_shows_throttling_then_plateau() {
        let mut r = Report::new("t");
        rob_capacity(&mut r);
        // Parse the CSV rows: throughput at cap 4 must be below cap 120.
        let rows: Vec<(u16, f64)> = r
            .csv_text()
            .lines()
            .filter(|l| l.starts_with("rob_capacity"))
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                (f[1].parse().unwrap(), f[2].parse().unwrap())
            })
            .collect();
        assert_eq!(rows.len(), 6);
        // The deliverable-admission rule keeps throughput near the combined
        // bandwidth at every capacity...
        for (cap, thr) in &rows {
            assert!(*thr > 5.5, "cap {cap}: throughput {thr}");
        }
    }
}
