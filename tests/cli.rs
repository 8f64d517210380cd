//! The `hetero-sim` command line, driven as a process: invalid points
//! exit 2 with a message naming the flag (never a panic), every printed
//! pattern name is accepted, and a `--cache-dir` run stores exactly the
//! point the sweep service serves for the equivalent job.

use chiplet_topo::Geometry;
use chiplet_traffic::{PhaseGraph, TrafficPattern};
use hetero_if::cache::{engine_point, phase_point};
use hetero_if::sim::RunSpec;
use hetero_if::{NetworkKind, SchedulingProfile};
use hetero_serve::api::{Backend, BatchRequest, JobSpec};
use hetero_serve::service::SweepService;
use simkit::json::Json;
use std::process::{Command, Output};

const SMALL: [&str; 4] = ["--chiplets", "2x2", "--chip", "2x2"];

fn hetero_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetero-sim"))
        .args(args)
        .output()
        .expect("hetero-sim runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

#[test]
fn invalid_points_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["--packet", "0"][..], "--packet"),
        (&["--rate", "-1"], "--rate"),
        (&["--rate", "nan"], "--rate"),
        (&["--pattern", "zigzag"], "--pattern"),
        (&["--chiplets", "1x1", "--chip", "1x1"], "--chiplets"),
    ] {
        let out = hetero_sim(&[&SMALL[..], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?}: {stderr:?} should name {flag}"
        );
    }
}

#[test]
fn printed_hotspot_name_and_its_alias_both_run() {
    for name in ["uniform-hotspot", "hotspot"] {
        let out = hetero_sim(&[&SMALL[..], &["--cycles", "300", "--pattern", name]].concat());
        assert!(out.status.success(), "--pattern {name}: {out:?}");
        assert!(stdout(&out).contains("uniform-hotspot traffic"), "{out:?}");
    }
}

/// The job the CLI runs for `SMALL --cycles 600 --seed 5`, as serve
/// would decode it.
fn small_job() -> JobSpec {
    JobSpec {
        kind: NetworkKind::HeteroPhyFull,
        geom: Geometry::new(2, 2, 2, 2),
        profile: SchedulingProfile::balanced(),
        pattern: TrafficPattern::Uniform,
        rates: vec![0.1],
        packet_len: 16,
        spec: RunSpec {
            warmup: 100,
            measure: 600,
            drain: 300,
            watchdog: 5_000,
            drain_offers: false,
        },
        seed: 5,
        backend: Backend::Engine,
        warm_start: false,
        workload: None,
        scales: vec![1.0],
    }
}

/// The one point of a one-job response: its source and packet count.
fn served(service: &SweepService, job: JobSpec) -> (String, u64) {
    let resp = service.run_batch(&BatchRequest { jobs: vec![job] });
    let point = &resp.get("jobs").unwrap().as_arr().unwrap()[0]
        .get("points")
        .unwrap()
        .as_arr()
        .unwrap()[0];
    (
        point
            .get("source")
            .and_then(Json::as_str)
            .unwrap()
            .to_string(),
        point.get("packets").and_then(Json::as_u64).unwrap(),
    )
}

/// The `packets delivered` figure a run printed.
fn printed_packets(out: &Output) -> u64 {
    let text = stdout(out);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("packets delivered"))
        .unwrap_or_else(|| panic!("no packet count in {text}"));
    line.trim().parse().expect("packet count")
}

#[test]
fn cli_cache_entries_are_disk_hits_for_the_equivalent_job() {
    let dir = std::env::temp_dir().join(format!("hetero-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("UTF-8 temp path");
    let run = ["--cycles", "600", "--seed", "5", "--cache-dir", cache];
    let dnn = "dnn:ranks=4,layers=1,grad=32";

    let synthetic = hetero_sim(&[&SMALL[..], &run].concat());
    assert!(synthetic.status.success(), "{synthetic:?}");
    assert!(stdout(&synthetic).contains("cache miss"));
    let workload = hetero_sim(&[&SMALL[..], &run, &["--workload", dnn]].concat());
    assert!(workload.status.success(), "{workload:?}");
    assert!(stdout(&workload).contains("cache miss"));

    let service = SweepService::new(Some(dir.clone()), 1).expect("store opens");
    let (source, packets) = served(&service, small_job());
    assert_eq!(source, "disk");
    assert_eq!(packets, printed_packets(&synthetic));
    // The stored bits are the engine's.
    let desc = small_job().point_desc(0.1);
    assert_eq!(service.point(&desc).0, engine_point(&desc));

    let graph = PhaseGraph::parse_workload(dnn, 16).expect("dnn workload");
    let job = JobSpec {
        rates: Vec::new(),
        workload: Some(graph.clone()),
        ..small_job()
    };
    let desc = job.workload_desc(&graph);
    let (source, packets) = served(&service, job);
    assert_eq!(source, "disk");
    assert_eq!(packets, printed_packets(&workload));
    assert_eq!(
        service.phase_point(&desc, &graph).0,
        phase_point(&desc, &mut graph.clone())
    );

    let _ = std::fs::remove_dir_all(&dir);
}
