//! The `hetero-sim` command line, driven as a process: invalid points and
//! flags the run's mode does not read exit 2 with a message naming the
//! flag (never a panic), every printed pattern name is accepted, a
//! `--cache-dir` run (single or `--sweep`) stores exactly the points the
//! sweep service serves for the equivalent job, and a warm-started
//! sweep's saved-cycles line does not depend on `--threads`.

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
    let dir = std::env::temp_dir().join(format!("hetero-cli-invalid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("UTF-8 temp path")
            .to_string()
    };
    let (faults, trace, out_file) = (path("faults.txt"), path("trace.csv"), path("out"));
    std::fs::write(&faults, "200 phy-down parallel\n").expect("fault script");
    std::fs::write(&trace, "0,0,1,4,inorder,normal\n").expect("replay trace");
    let (f, t, o) = (faults.as_str(), trace.as_str(), out_file.as_str());
    let dnn = "dnn:ranks=4,layers=1,grad=32";
    for (args, flag) in [
        // Points the job validator rejects.
        (&["--packet", "0"][..], "--packet"),
        (&["--rate", "-1"], "--rate"),
        (&["--rate", "nan"], "--rate"),
        (&["--pattern", "zigzag"], "--pattern"),
        (&["--chiplets", "1x1", "--chip", "1x1"], "--chiplets"),
        (&["--chiplets", "300x1", "--chip", "300x1"], "--chiplets"),
        // Flag combinations rejected since the mode checks were written
        // out by hand; each names the flag it named then.
        (&["--sweep", "--fault-script", f], "--fault-script"),
        (&["--sweep", "--metrics", o], "--metrics"),
        (&["--sweep", "--trace", o], "--trace"),
        (&["--sweep", "--checkpoint-out", o], "--checkpoint-out"),
        (&["--replay", o, "--checkpoint-in", o], "--checkpoint-in"),
        (&["--checkpoint-every", "100"], "--checkpoint-every"),
        (
            &["--checkpoint-out", o, "--probe", "links"],
            "--checkpoint-out",
        ),
        (&["--warm-start"], "--warm-start"),
        (&["--workload", dnn, "--sweep"], "--workload"),
        (&["--capture-trace", o], "--capture-trace"),
        (
            &["--workload", dnn, "--capture-trace", o, "--cache-dir", o],
            "--capture-trace",
        ),
        (&["--estimate", "--metrics", o], "--metrics"),
        (&["--report", o], "--report"),
        (&["--cache-dir", o, "--probe", "links"], "--cache-dir"),
        (&["--workload", dnn, "--workload-trace", o], "--workload"),
        // Flags the selected mode used to drop without a word.
        (&["--sweep", "--replay", o], "--replay"),
        (&["--sweep", "--probe", "links"], "--probe"),
        (&["--estimate", "--fault-script", f], "--fault-script"),
        (&["--calibrate", "--fault-script", f], "--fault-script"),
        (&["--calibrate", "--metrics", o], "--metrics"),
        (&["--calibrate", "--trace", o], "--trace"),
        (&["--calibrate", "--checkpoint-out", o], "--checkpoint-out"),
        (&["--trace-filter", "flit"], "--trace-filter"),
        (&["--backend", "cycle"], "--backend"),
        (&["--threads", "2"], "--threads"),
        (&["--network", "parallel-mesh", "--half"], "--half"),
        (&["--network", "serial-torus", "--half"], "--half"),
        (&["--network", "serial-hypercube", "--half"], "--half"),
        (&["--estimate", "--ber", "1e-3"], "--ber"),
        (&["--estimate", "--retry"], "--retry"),
        (&["--estimate", "--shard-threads", "2"], "--shard-threads"),
        // Point flags the selected mode used to drop without a word.
        (&["--calibrate", "--network", "serial-torus"], "--network"),
        (&["--calibrate", "--half"], "--half"),
        (&["--replay", t, "--pattern", "bit-complement"], "--pattern"),
        (
            &["--workload", dnn, "--pattern", "bit-complement"],
            "--pattern",
        ),
        (&["--sweep", "--rate", "0.7"], "--rate"),
        (&["--replay", t, "--rate", "0.3"], "--rate"),
        (&["--workload", dnn, "--rate", "0.3"], "--rate"),
        (&["--calibrate", "--rate", "0.5"], "--rate"),
        (&["--estimate", "--sweep", "--rate", "0.3"], "--rate"),
        (
            &[
                "--estimate",
                "--backend",
                "cycle",
                "--sweep",
                "--rate",
                "0.3",
            ],
            "--rate",
        ),
        (&["--estimate", "--cycles", "777"], "--cycles"),
        (
            &["--estimate", "--backend", "cycle", "--cycles", "777"],
            "--cycles",
        ),
        (&["--replay", t, "--packet", "4"], "--packet"),
        (&["--workload", dnn, "--packet", "4"], "--packet"),
        (&["--estimate", "--seed", "9"], "--seed"),
    ] {
        // `--cycles 300` keeps a wrongly accepted run short; `--estimate`
        // does not read it, so those rows go without it and each is
        // rejected for its own flag alone.
        let cycles: &[&str] = if args.contains(&"--estimate") {
            &[]
        } else {
            &["--cycles", "300"]
        };
        let out = hetero_sim(&[&SMALL[..], cycles, args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?}: {stderr:?} should name {flag}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn sweep_reruns_from_the_store_without_simulating() {
    let dir = std::env::temp_dir().join(format!("hetero-cli-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("UTF-8 temp path");
    let run = [
        &SMALL[..],
        &["--cycles", "300", "--sweep", "--cache-dir", cache],
    ]
    .concat();
    // The rate table, and the cache summary line after it.
    let sweep = || {
        let out = hetero_sim(&run);
        assert!(out.status.success(), "{out:?}");
        let text = stdout(&out);
        let (table, summary) = text.split_once("\ncache: ").expect("a cache summary");
        (table.to_string(), summary.trim().to_string())
    };
    let (first, stored) = sweep();
    let (second, served) = sweep();
    assert_eq!(second, first, "the rerun prints the same table");
    let points = first
        .lines()
        .filter(|l| l.ends_with(" ok") || l.ends_with("saturated"));
    let n = points.count();
    assert!(n > 0, "{first}");
    assert!(
        stored.starts_with(&format!("{n} of {n} points simulated")),
        "{stored}"
    );
    assert!(
        served.starts_with(&format!("0 of {n} points simulated and stored, {n} served")),
        "{served}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_savings_count_only_the_kept_points() {
    // The 64-node bit-complement sweep stops two points past saturation,
    // at 10 of the ladder's 11 rates. A second worker may still run the
    // 11th; its fork saves nothing the printed curve shows, so the line
    // reads the same at any thread count.
    for threads in ["1", "2"] {
        let out = hetero_sim(&[
            "--network",
            "parallel-mesh",
            "--chiplets",
            "2x2",
            "--chip",
            "4x4",
            "--pattern",
            "bit-complement",
            "--cycles",
            "3000",
            "--sweep",
            "--warm-start",
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "{out:?}");
        let text = stdout(&out);
        assert!(
            text.contains("warm-start: 2700 warm-up cycles saved"),
            "--threads {threads}: {text}"
        );
    }
}

#[test]
fn a_resumed_periodic_run_does_not_resave_its_input_blob() {
    let dir = std::env::temp_dir().join(format!("hetero-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("UTF-8 temp path")
            .to_string()
    };
    let (every, resumed) = (path("every.bin"), path("resumed.bin"));
    let run = [
        &SMALL[..],
        &[
            "--network",
            "hetero-phy",
            "--rate",
            "0.1",
            "--cycles",
            "1000",
        ],
        &["--shard-threads", "1", "--checkpoint-every", "100"],
    ]
    .concat();
    let out = hetero_sim(&[&run[..], &["--checkpoint-out", &every]].concat());
    assert!(out.status.success(), "{out:?}");
    let input = format!("{every}.200");
    let out = hetero_sim(
        &[
            &run[..],
            &["--checkpoint-in", &input, "--checkpoint-out", &resumed],
        ]
        .concat(),
    );
    assert!(out.status.success(), "{out:?}");
    assert!(
        !stdout(&out).contains(&format!("{resumed}.200")),
        "{}",
        stdout(&out)
    );
    assert!(!std::path::Path::new(&format!("{resumed}.200")).exists());
    let read = |p: String| std::fs::read(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
    assert_eq!(read(format!("{resumed}.300")), read(format!("{every}.300")));
    let _ = std::fs::remove_dir_all(&dir);
}
