//! Benchmark harness regenerating every table and figure of the paper.
//!
//! One binary, `hetero-bench <artifact...|all>`, reproduces the MICRO'23
//! hetero-IF paper's evaluation artifacts from the
//! [`experiments::ARTIFACTS`] table, printing the same rows/series the
//! paper reports and writing a CSV per report under `results/`. Runs
//! default to a *reduced but shape-preserving* configuration (smaller
//! cycle counts and, for the wafer-scale systems, a smaller chiplet grid)
//! so the whole suite completes in minutes; pass `--full` for the paper's
//! exact scales and the Table 2 schedule (hours of wall clock). Output is
//! byte-identical for any `--threads N`.
//!
//! | Artifact | CSV | Paper content |
//! |---|---|---|
//! | `tab01` | `tab01_interfaces` | Table 1 — interface specifications |
//! | `fig08` | `fig08_vt` | Fig. 8 — V–t curves |
//! | `fig11` | `fig11_patterns` | Fig. 11 — hetero-PHY latency vs injection |
//! | `fig12` | `fig12_parsec` | Fig. 12 — hetero-PHY on PARSEC traces |
//! | `fig13` | `fig13_hpc` | Fig. 13 — hetero-PHY on HPC traces |
//! | `fig14` | `fig14_hc_patterns` | Fig. 14 — hetero-channel latency vs injection |
//! | `fig15` | `fig15_hc_hpc` | Fig. 15 — hetero-channel on HPC traces |
//! | `tab03` | `tab03_scalability` | Table 3 — latency reduction across scales |
//! | `tab04` | `tab04_synthesis` | Table 4 — post-synthesis analysis |
//! | `fig16` | `fig16_energy_uniform` | Fig. 16 — energy under uniform traffic |
//! | `fig17` | `fig17_energy_hpc` | Fig. 17 — energy under MOC traces |
//! | `fig18` | `fig18_local_scale` | Fig. 18 — energy vs local-communication scale |
//! | `fig19` | `fig19_latency_vs_ber`, `fig19_failover` | Fig. 19 (beyond the paper) — latency vs BER, throughput through PHY failover |
//! | `ablations` | `ablations` | ROB capacity, balanced threshold, higher-radix crossbar, bypass |
//!
//! The second binary, `perf_gate`, is the simulator's own performance
//! gate (see `EXPERIMENTS.md`).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{Opts, Report};
