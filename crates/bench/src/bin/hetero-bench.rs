//! Regenerates the paper's tables and figures (see hetero-bench crate
//! docs for the artifact list).
//!
//! Usage: `cargo run --release -p hetero-bench --bin hetero-bench --
//! <artifact...|all> [--full] [--out DIR | --no-out] [--threads N]`
//!
//! Reports print to stdout in table order, separated by blank lines; the
//! per-artifact wall time goes to stderr.

use hetero_bench::experiments::ARTIFACTS;
use hetero_bench::harness::USAGE;
use hetero_bench::Opts;
use std::time::Instant;

fn main() {
    let (opts, names) = Opts::from_args();
    if names.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    for name in &names {
        if name != "all" && !ARTIFACTS.iter().any(|(n, _)| n == name) {
            let mut known: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
            known.dedup();
            eprintln!(
                "unknown artifact: {name} (known: {} or all)",
                known.join(" ")
            );
            std::process::exit(2);
        }
    }
    let selected = ARTIFACTS
        .iter()
        .filter(|(n, _)| names.iter().any(|want| want == "all" || want == n));
    for (i, (name, experiment)) in selected.enumerate() {
        if i > 0 {
            println!();
        }
        let t = Instant::now();
        experiment(&opts).finish(&opts);
        eprintln!("[{name} took {:.1?}]", t.elapsed());
    }
}
