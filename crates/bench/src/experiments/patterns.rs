//! Figs. 11 and 14: latency vs injection rate over the six traffic
//! patterns, for hetero-PHY and hetero-channel systems.

use crate::experiments::reduced_wafer;
use crate::harness::{fmt_latency, Opts, Report};
use chiplet_topo::Geometry;
use chiplet_traffic::TrafficPattern;
use hetero_if::presets::{medium_system, wafer_system, NetworkKind};
use hetero_if::sweep::{latency_sweep, saturation_rate};
use hetero_if::{SchedulingProfile, SimConfig};

fn pattern_figure(
    name: &str,
    title: &str,
    nets: &[NetworkKind],
    geom: Geometry,
    rates: &[f64],
    opts: &Opts,
) -> Report {
    let mut r = Report::new(name);
    r.line(format!(
        "{title} — {} chiplets × ({}×{}) = {} nodes",
        geom.chiplets(),
        geom.chip_w(),
        geom.chip_h(),
        geom.nodes()
    ));
    r.csv("pattern,network,rate,avg_latency,throughput,saturated");
    // Every (pattern, network) curve is an independent sweep; fan them out
    // over the worker pool and format sequentially afterwards, so the
    // report is byte-identical for any `--threads` value.
    let jobs: Vec<(TrafficPattern, NetworkKind)> = TrafficPattern::ALL
        .iter()
        .flat_map(|&p| nets.iter().map(move |&n| (p, n)))
        .collect();
    let config = SimConfig::default();
    let mut sweeps = simkit::par::map(&jobs, opts.threads, |&(pattern, net)| {
        latency_sweep(
            || net.build(geom, config, SchedulingProfile::balanced()),
            pattern,
            rates,
            config.packet_len,
            opts.spec(),
            config.seed,
            1,
        )
    })
    .into_iter();
    for pattern in TrafficPattern::ALL {
        r.line(format!("== {pattern} =="));
        let mut header = format!("{:>6}", "rate");
        for net in nets {
            header.push_str(&format!(" {:>22}", net.label()));
        }
        r.line(header);
        let mut curves = Vec::new();
        for net in nets {
            let pts = sweeps.next().expect("one sweep per (pattern, network)");
            for p in &pts {
                r.csv(format!(
                    "{pattern},{},{},{:.2},{:.5},{}",
                    net.label(),
                    p.rate,
                    p.results.avg_latency,
                    p.results.throughput,
                    p.results.is_saturated()
                ));
            }
            curves.push(pts);
        }
        for (i, &rate) in rates.iter().enumerate() {
            let mut line = format!("{rate:>6.3}");
            let mut any = false;
            for pts in &curves {
                match pts.get(i) {
                    Some(p) => {
                        line.push_str(&format!(
                            " {:>22}",
                            fmt_latency(p.results.avg_latency, p.results.is_saturated())
                        ));
                        any = true;
                    }
                    None => line.push_str(&format!(" {:>22}", "-")),
                }
            }
            if any {
                r.line(line);
            }
        }
        let mut sat_line = String::from("  saturation rate:");
        for (net, pts) in nets.iter().zip(&curves) {
            sat_line.push_str(&format!(
                " {}={}",
                net.label(),
                saturation_rate(pts).map_or("<min".into(), |s| format!("{s:.2}")),
            ));
        }
        r.line(sat_line);
        r.line("  (* = saturated)");
    }
    r
}

/// Fig. 11: hetero-PHY networks on the 256-node medium system.
pub fn fig11(opts: &Opts) -> Report {
    let rates: &[f64] = if opts.full {
        &[0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85, 1.0]
    } else {
        &[0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8]
    };
    pattern_figure(
        "fig11_patterns",
        "Fig. 11: hetero-PHY latency vs injection rate",
        &NetworkKind::HETERO_PHY_SET,
        medium_system(),
        rates,
        opts,
    )
}

/// Fig. 14: hetero-channel networks on the wafer-scale system (reduced to
/// 400 nodes by default; `--full` uses the paper's 3136 nodes).
pub fn fig14(opts: &Opts) -> Report {
    let geom = if opts.full {
        wafer_system()
    } else {
        reduced_wafer()
    };
    let rates: &[f64] = if opts.full {
        &[0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6]
    } else {
        &[0.02, 0.05, 0.1, 0.2, 0.3, 0.45]
    };
    pattern_figure(
        "fig14_hc_patterns",
        "Fig. 14: hetero-channel latency vs injection rate",
        &NetworkKind::HETERO_CHANNEL_SET,
        geom,
        rates,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny smoke configuration shared by the test suite (full figures
    /// are exercised by the binaries).
    #[test]
    fn pattern_figure_smoke() {
        let opts = Opts::default();
        let r = pattern_figure(
            "smoke",
            "smoke",
            &[NetworkKind::UniformParallelMesh, NetworkKind::HeteroPhyFull],
            Geometry::new(2, 2, 2, 2),
            &[0.05, 0.3],
            &Opts {
                full: false,
                ..opts
            },
        );
        assert!(r.text().contains("uniform"));
        assert!(r.csv_text().lines().count() >= 2 * 2 * 2);
    }

    /// The report is byte-identical for any worker-pool size.
    #[test]
    fn pattern_figure_is_thread_invariant() {
        let figure = |threads| {
            pattern_figure(
                "smoke",
                "smoke",
                &[NetworkKind::UniformParallelMesh, NetworkKind::HeteroPhyFull],
                Geometry::new(2, 2, 2, 2),
                &[0.05, 0.3],
                &Opts {
                    threads,
                    ..Opts::default()
                },
            )
        };
        let sequential = figure(1);
        let parallel = figure(4);
        assert_eq!(sequential.text(), parallel.text());
        assert_eq!(sequential.csv_text(), parallel.csv_text());
    }
}
