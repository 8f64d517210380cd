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
    /// Directory for CSV output (`results/` by default; `None` after
    /// `--no-out`).
    pub out_dir: Option<PathBuf>,
    /// Worker threads for independent simulation jobs (results are
    /// identical for any value; 1 = fully sequential).
    pub threads: usize,
}

impl Opts {
    /// Parses the process arguments with [`Opts::parse`], printing the
    /// usage and exiting 0 on `--help`, or exiting 2 on a parse error.
    pub fn from_args() -> (Self, Vec<String>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Self::parse(args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Parses `--full` / `--out <dir>` / `--no-out` / `--threads <n>`,
    /// returning the options and the positional arguments (the artifact
    /// names) in order.
    ///
    /// # Errors
    ///
    /// An unknown flag, or a flag missing its value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<(Self, Vec<String>), String> {
        let mut opts = Self {
            full: false,
            out_dir: Some(default_out_dir()),
            threads: 1,
        };
        let mut names = Vec::new();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--no-out" => opts.out_dir = None,
                "--out" => {
                    opts.out_dir = Some(args.next().ok_or("--out expects a directory")?.into())
                }
                "--threads" => {
                    opts.threads = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--threads expects a positive integer")?;
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown argument: {other}\n{USAGE}"));
                }
                name => names.push(name.to_string()),
            }
        }
        Ok((opts, names))
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

/// The repository root (located via `CARGO_MANIFEST_DIR`, so
/// `cargo run` agrees regardless of its working directory).
pub fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// The default CSV directory: `results/` under the repository root.
pub fn default_out_dir() -> PathBuf {
    repo_root().join("results")
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
    fn out_needs_a_value() {
        let parse = |args: &[&str]| Opts::parse(args.iter().map(|a| a.to_string()));
        let (o, names) = parse(&["fig08", "--out", "dir"]).unwrap();
        assert_eq!(o.out_dir, Some(PathBuf::from("dir")));
        assert_eq!(names, ["fig08"]);
        let e = parse(&["fig08", "--out"]).expect_err("a trailing --out has no directory");
        assert!(e.contains("--out"), "{e}");
        assert_eq!(parse(&["--no-out"]).unwrap().0.out_dir, None);
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn latency_formatting() {
        assert!(fmt_latency(12.0, true).contains('*'));
        assert!(!fmt_latency(12.0, false).contains('*'));
    }
}
