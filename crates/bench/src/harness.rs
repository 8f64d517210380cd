//! Shared experiment plumbing: CLI options, report printing, CSV output.

use hetero_if::sim::RunSpec;
use std::fs;
use std::path::PathBuf;

/// The command line of the `hetero-bench` artifact runner.
pub const USAGE: &str =
    "usage: hetero-bench <artifact...|all> [--full] [--out DIR | --no-out] [--threads N]";

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Run at the paper's exact scale and schedule instead of the reduced
    /// default.
    pub full: bool,
    /// Directory for CSV output (`results/` by default; `-` disables).
    pub out_dir: Option<PathBuf>,
    /// Worker threads for independent simulation jobs (results are
    /// identical for any value; 1 = fully sequential).
    pub threads: usize,
}

impl Opts {
    /// Parses `--full` / `--out <dir>` / `--no-out` / `--threads <n>` from
    /// `std::env::args`, returning the options and the positional
    /// arguments (the artifact names) in order.
    pub fn from_args() -> (Self, Vec<String>) {
        let mut full = false;
        let mut out_dir = Some(default_out_dir());
        let mut threads = 1;
        let mut names = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => full = true,
                "--no-out" => out_dir = None,
                "--out" => {
                    out_dir = args.next().map(PathBuf::from);
                }
                "--threads" => {
                    threads = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| {
                            eprintln!("--threads expects a positive integer");
                            std::process::exit(2);
                        });
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other if other.starts_with('-') => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
                name => names.push(name.to_string()),
            }
        }
        let opts = Self {
            full,
            out_dir,
            threads,
        };
        (opts, names)
    }

    /// The reduced-by-default run schedule (`--full` → the paper's
    /// 100k-cycle Table 2 schedule).
    pub fn spec(&self) -> RunSpec {
        if self.full {
            RunSpec::paper()
        } else {
            RunSpec::quick()
        }
    }
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            full: false,
            out_dir: None,
            threads: 1,
        }
    }
}

/// The default CSV directory: `results/` next to the workspace root
/// (located via `CARGO_MANIFEST_DIR`, so `cargo bench`/`cargo run` agree
/// regardless of their working directory).
pub fn default_out_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|ws| ws.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// A textual report plus its machine-readable CSV twin.
#[derive(Debug, Default, Clone)]
pub struct Report {
    name: String,
    lines: Vec<String>,
    csv: Vec<String>,
}

impl Report {
    /// Creates an empty report named after the artifact (e.g. `fig11`).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            lines: Vec::new(),
            csv: Vec::new(),
        }
    }

    /// The artifact name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one human-readable line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Appends one CSV row (include a header row first).
    pub fn csv(&mut self, s: impl Into<String>) {
        self.csv.push(s.into());
    }

    /// The human-readable report text.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }

    /// The CSV body.
    pub fn csv_text(&self) -> String {
        self.csv.join("\n")
    }

    /// Prints the report and writes `<out>/<name>.csv` when requested.
    pub fn finish(&self, opts: &Opts) {
        println!("{}", self.text());
        if let Some(dir) = &opts.out_dir {
            if !self.csv.is_empty() {
                if let Err(e) = fs::create_dir_all(dir).and_then(|_| {
                    fs::write(dir.join(format!("{}.csv", self.name)), self.csv_text())
                }) {
                    eprintln!("warning: could not write CSV for {}: {e}", self.name);
                }
            }
        }
    }
}

/// Formats a latency value, flagging saturation.
pub fn fmt_latency(lat: f64, saturated: bool) -> String {
    if saturated {
        format!("{lat:>9.1}*")
    } else {
        format!("{lat:>9.1} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("x");
        r.line("a");
        r.line("b");
        r.csv("h1,h2");
        assert_eq!(r.text(), "a\nb");
        assert_eq!(r.csv_text(), "h1,h2");
        assert_eq!(r.name(), "x");
    }

    #[test]
    fn default_opts_are_quiet() {
        let o = Opts::default();
        assert!(!o.full);
        assert!(o.out_dir.is_none());
        assert_eq!(o.spec(), RunSpec::quick());
    }

    #[test]
    fn latency_formatting() {
        assert!(fmt_latency(12.0, true).contains('*'));
        assert!(!fmt_latency(12.0, false).contains('*'));
    }
}
