//! Integration coverage for the content-addressed result cache that
//! backs `hetero-serve` and `hetero-sim --cache-dir`.
//!
//! The cache's whole value rests on three properties checked here from
//! the outside, through the public API:
//!
//! * **key stability** — the `canonical_string → SHA-256` derivation is
//!   an on-disk format shared across processes and builds. A pinned
//!   key below fails loudly if anything in the derivation drifts, which
//!   must be answered with a `CACHE_FORMAT_VERSION` bump, never an
//!   update of the pinned hex alone;
//! * **integrity** — a corrupted or truncated store entry must be
//!   rejected *and transparently recomputed*, not served;
//! * **fidelity** — a point served from the cache (memory or a
//!   reopened disk store) is bit-identical to a direct engine run, for
//!   every preset/seed of the golden matrix.

use chiplet_topo::{Geometry, NodeId};
use chiplet_traffic::TrafficPattern;
use hetero_if::cache::{engine_point, PointDesc};
use hetero_if::golden;
use hetero_if::sim::RunSpec;
use hetero_if::{NetworkKind, SchedulingProfile, SimConfig};
use hetero_serve::api::{Backend, BatchRequest, JobSpec};
use hetero_serve::service::SweepService;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hetero-serve-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reference_desc() -> PointDesc {
    PointDesc::new(
        NetworkKind::UniformParallelMesh,
        Geometry::new(2, 2, 2, 2),
        SimConfig::default(),
        SchedulingProfile::balanced(),
        TrafficPattern::Uniform,
        0.05,
        16,
        RunSpec::smoke(),
    )
}

/// The key derivation is an on-disk wire format: every process that
/// opens a shared `--cache-dir` must derive the same hex for the same
/// point, today and after a rebuild. Pinning the exact canonical string
/// and its SHA-256 makes any drift a loud, reviewed decision (bump
/// `CACHE_FORMAT_VERSION`, which re-keys every entry) instead of a
/// silent cache-invalidation bug.
#[test]
fn cache_key_derivation_is_pinned() {
    let desc = reference_desc();
    assert_eq!(
        desc.canonical_string(),
        "point-v1;kind=uni-parallel-mesh;geom=2x2x2x2;profile=balanced;pattern=uniform;\
         rate=0.05;plen=16;spec=200/1500/3000/3000/false;variant=;config[vcs=2;plen=16;\
         depth=32/64/32;inj=2;eject=4;onchip=2@1;parallel=2@5;serial=4@20;mode=full;\
         policy=Balanced { threshold: 8 };fifo=16;radix=true;bypass=true;seed=205593575;\
         ber=0e0/0e0;retry=false;retry_timeout=0]"
    );
    assert_eq!(
        desc.key().hex(),
        "cc2bba7c323edd2d0dc2068dca8b04f2d27e75305153aafb7db8146a99230323"
    );
    // Scheduling-only knobs (shard threads) must not perturb the key:
    // a sweep sharded 4 ways shares its cache with a serial one.
    let sharded = PointDesc {
        config: SimConfig::default().with_shard_threads(4),
        ..reference_desc()
    };
    assert_eq!(sharded.key(), desc.key());
}

/// A corrupted on-disk entry is rejected by the integrity checks and
/// recomputed — the caller sees a correct result either way, plus a
/// diagnostic counter, never garbage.
#[test]
fn corrupt_store_entry_is_rejected_and_recomputed() {
    let dir = tmp_dir("corrupt");
    let desc = reference_desc();

    let service = SweepService::new(Some(dir.clone()), 1).expect("cache opens");
    let (original, src) = service.point(&desc);
    assert_eq!(src, "computed");
    drop(service);

    // Flip one payload bit in the single .hcr entry under the store.
    let entry = find_entry(&dir);
    let mut bytes = std::fs::read(&entry).expect("entry readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&entry, &bytes).expect("entry rewritable");

    // A fresh process over the same store must not serve the damaged
    // entry: it recomputes, counts the rejection, and heals the store.
    let service = SweepService::new(Some(dir.clone()), 1).expect("cache reopens");
    let (healed, src) = service.point(&desc);
    assert_eq!(src, "computed", "corrupt entry must not hit");
    assert_eq!(service.stats().corrupt_rejected, 1);
    assert_eq!(healed, original, "recomputed point matches the original");

    // The rewritten entry now round-trips again.
    let service = SweepService::new(Some(dir.clone()), 1).expect("cache reopens again");
    let (served, src) = service.point(&desc);
    assert_eq!(src, "disk");
    assert_eq!(served, original);

    let _ = std::fs::remove_dir_all(&dir);
}

fn find_entry(dir: &std::path::Path) -> std::path::PathBuf {
    let mut entries = Vec::new();
    for shard in std::fs::read_dir(dir).expect("store dir lists") {
        let shard = shard.expect("dir entry").path();
        if !shard.is_dir() {
            continue;
        }
        for f in std::fs::read_dir(&shard).expect("shard dir lists") {
            let f = f.expect("dir entry").path();
            if f.extension().is_some_and(|e| e == "hcr") {
                entries.push(f);
            }
        }
    }
    assert_eq!(entries.len(), 1, "exactly one store entry expected");
    entries.pop().expect("one entry")
}

/// N identical concurrent requests against the service run exactly one
/// simulation; everyone else joins the in-flight compute or hits the
/// cache the leader populated.
#[test]
fn concurrent_identical_requests_compute_exactly_once() {
    let service = Arc::new(SweepService::new(None, 1).expect("in-memory service"));
    let job = JobSpec {
        kind: NetworkKind::UniformParallelMesh,
        geom: Geometry::new(2, 2, 2, 2),
        profile: SchedulingProfile::balanced(),
        pattern: TrafficPattern::Uniform,
        rates: vec![0.05],
        packet_len: 16,
        spec: RunSpec::smoke(),
        seed: 1,
        backend: Backend::Engine,
        warm_start: false,
        workload: None,
        scales: vec![1.0],
    };
    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let service = Arc::clone(&service);
            let batch = BatchRequest {
                jobs: vec![job.clone()],
            };
            scope.spawn(move || service.run_batch(&batch));
        }
    });
    let stats = service.stats();
    assert_eq!(stats.computed, 1, "exactly one simulation ran");
    assert_eq!(stats.points, THREADS as u64);
    assert_eq!(
        stats.dedup_joins + stats.hits(),
        (THREADS - 1) as u64,
        "the other {} requests joined in flight or hit the cache",
        THREADS - 1
    );
}

/// Every preset/seed of the 30-scenario golden matrix, served through
/// the cache — computed, then from a reopened on-disk store — is
/// bit-identical to a direct engine run of the same point. `CachedPoint`
/// equality compares every result field (floats by value, which for
/// identical bits is exact), so this is the cache-fidelity contract
/// over the full preset surface.
#[test]
fn cached_results_bit_identical_to_direct_runs_across_golden_matrix() {
    let dir = tmp_dir("golden");
    // The phase-workload scenarios are keyed by workload fingerprint,
    // not by (pattern, rate); the capture/replay cache-key contract for
    // them lives in `phase_workload.rs`. This test pins the classic
    // synthetic surface.
    let scenarios: Vec<_> = golden::scenarios()
        .into_iter()
        .filter(|s| s.workload == golden::WorkloadKind::Synthetic)
        .collect();
    assert_eq!(
        scenarios.len(),
        30,
        "the synthetic golden matrix is 30 scenarios"
    );

    // The matrix repeats (kind, seed) pairs across fault flavors; the
    // scenario name as the key variant keeps all 30 points distinct
    // while exercising the same engine configuration surface.
    let descs: Vec<PointDesc> = scenarios
        .iter()
        .map(|s| {
            PointDesc::new(
                s.kind,
                Geometry::new(2, 2, 2, 2),
                SimConfig::default().with_seed(s.seed),
                SchedulingProfile::balanced(),
                TrafficPattern::Uniform,
                0.04,
                16,
                RunSpec::smoke(),
            )
            .with_variant(s.name())
        })
        .collect();

    let service = SweepService::new(Some(dir.clone()), 1).expect("cache opens");
    let mut direct = Vec::new();
    for desc in &descs {
        let (cached, src) = service.point(desc);
        assert_eq!(src, "computed");
        let fresh = engine_point(desc);
        assert_eq!(cached, fresh, "direct rerun of {}", desc.canonical_string());
        direct.push(fresh);
    }
    drop(service);

    // A fresh cache over the same directory: every point comes off disk
    // (codec round trip included) and still matches bit for bit.
    let service = SweepService::new(Some(dir.clone()), 1).expect("cache reopens");
    for (desc, fresh) in descs.iter().zip(&direct) {
        let (cached, src) = service.point(desc);
        assert_eq!(src, "disk");
        assert_eq!(&cached, fresh, "disk reload of {}", desc.canonical_string());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The flits a run delivers are deterministic, so the sanity anchor for
/// the matrix above: distinct scenarios produce distinct points (the
/// cache is not serving one result for everything).
#[test]
fn distinct_points_key_and_cache_distinctly() {
    let service = SweepService::new(None, 1).expect("in-memory service");
    let a = reference_desc();
    let b = PointDesc {
        config: SimConfig::default().with_seed(2),
        ..reference_desc()
    };
    assert_ne!(a.key(), b.key());
    let (pa, _) = service.point(&a);
    let (pb, _) = service.point(&b);
    assert_ne!(pa, pb, "different seeds simulate different outcomes");
    let nodes: Vec<NodeId> = (0..a.geom.nodes()).map(NodeId).collect();
    assert_eq!(nodes.len(), 16);
}
