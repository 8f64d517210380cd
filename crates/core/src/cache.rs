//! Content-addressed simulation-result cache.
//!
//! The engine is bit-deterministic: a [`SimConfig`] plus a network
//! preset, geometry, scheduling profile, workload and run schedule maps
//! to exactly one [`SimResults`], forever. That makes every simulation
//! point perfectly cacheable — the only hard part is the key. This module
//! derives it canonically: [`PointDesc::canonical_string`] concatenates
//! every behavior-affecting input (the config's own
//! [`SimConfig::canonical_key`] plus the point-level fields the config
//! does not carry) and [`PointDesc::key`] hashes that string with SHA-256
//! ([`simkit::hash`]). The old 64-bit FNV fingerprint stays for report
//! labels; a persistent store shared across processes needs the full 256
//! bits.
//!
//! The cache itself is two-level:
//!
//! * [`MemLru`] — an in-memory LRU for the hot working set;
//! * [`DiskStore`] — an on-disk content-addressed store
//!   (`<root>/<2-hex-prefix>/<64-hex>.hcr`), written atomically (temp
//!   file + rename) and read back through a CRC-32- and key-checked
//!   binary codec, so a torn write or bit rot surfaces as a rejected
//!   entry and a recompute, never as a wrong result.
//!
//! [`ResultCache`] stacks the two. Every front end reaches it through the
//! `hetero-serve` sweep service: the job server, the `hetero-sim
//! --cache-dir` CLI path and the serve benchmark all key their points with
//! [`PointDesc`] and compute misses with [`engine_point`] or
//! [`phase_point`], so a result computed by any of them is a hit for all
//! of them.

use crate::config::SimConfig;
use crate::presets::NetworkKind;
use crate::results::SimResults;
use crate::scheduler::SchedulingProfile;
use crate::sim::{run, RunOutcome, RunSpec};
use crate::sweep::run_synthetic;
use chiplet_topo::Geometry;
use chiplet_traffic::{PhaseGraph, TrafficPattern};
use simkit::codec::{crc32, ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use simkit::hash::{sha256, to_hex};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

/// Version tag of the canonical key derivation *and* the on-disk entry
/// format. Bump when either changes: old entries then simply never match
/// (key change) or fail the magic check (format change) and are
/// recomputed.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Magic prefixing every on-disk entry (`HCR` + format version digit).
const MAGIC: &[u8; 4] = b"HCR1";

/// A 256-bit content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub [u8; 32]);

impl CacheKey {
    /// Lowercase hex rendering (the on-disk file stem).
    pub fn hex(&self) -> String {
        to_hex(&self.0)
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Everything that identifies one simulation point. Two descriptors with
/// equal [`PointDesc::canonical_string`]s produce bit-identical results;
/// the cache stores and serves on exactly that contract.
#[derive(Debug, Clone)]
pub struct PointDesc {
    /// Network preset.
    pub kind: NetworkKind,
    /// System geometry.
    pub geom: Geometry,
    /// Simulator configuration (normalized through
    /// [`NetworkKind::effective_config`] before keying, so a preset that
    /// forces a bandwidth mode keys the same whichever way the caller
    /// spelled it).
    pub config: SimConfig,
    /// Scheduling profile.
    pub profile: SchedulingProfile,
    /// Synthetic traffic pattern.
    pub pattern: TrafficPattern,
    /// Offered injection rate, flits/cycle/node.
    pub rate: f64,
    /// Packet length in flits.
    pub packet_len: u16,
    /// Run schedule.
    pub spec: RunSpec,
    /// Free-form discriminator for anything the fields above do not
    /// carry: a fault-script text, a warm-start tag (`warm@<rate>`), an
    /// estimator backend. Empty for a plain cold engine run. Callers MUST
    /// fold in anything that changes results.
    pub variant: String,
}

impl PointDesc {
    /// A plain cold engine point (empty variant).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: NetworkKind,
        geom: Geometry,
        config: SimConfig,
        profile: SchedulingProfile,
        pattern: TrafficPattern,
        rate: f64,
        packet_len: u16,
        spec: RunSpec,
    ) -> Self {
        Self {
            kind,
            geom,
            config,
            profile,
            pattern,
            rate,
            packet_len,
            spec,
            variant: String::new(),
        }
    }

    /// Returns the descriptor with `variant` replaced.
    pub fn with_variant(mut self, variant: impl Into<String>) -> Self {
        self.variant = variant.into();
        self
    }

    /// Keys this point on a dependency-driven phase workload instead of
    /// the synthetic pattern: the variant becomes
    /// `workload@<fingerprint>`, folding the graph's canonical text —
    /// every phase, dependency, compute window and event — into the
    /// cache identity. A generated DNN graph and its captured-and-
    /// replayed trace share a fingerprint and therefore a key; a
    /// compute-scaled copy gets a new one automatically.
    ///
    /// This is the one place the workload-key rule lives: the synthetic
    /// fields are inert for such points, so they are pinned (`Uniform`,
    /// rate 0, the default packet length in both the descriptor and its
    /// config) whatever the caller passed, and the schedule drains
    /// offers, which is how a phase workload runs.
    pub fn with_workload(mut self, graph: &PhaseGraph) -> Self {
        let plen = SimConfig::default().packet_len;
        self.pattern = TrafficPattern::Uniform;
        self.rate = 0.0;
        self.packet_len = plen;
        self.config.packet_len = plen;
        self.spec = self.spec.with_drain_offers();
        self.with_variant(format!("workload@{}", graph.fingerprint()))
    }

    /// The canonical, human-readable identity string this point is keyed
    /// on: a versioned, fixed-order concatenation of every
    /// behavior-affecting input. Floats are rendered with Rust's
    /// shortest round-trip `Display`, so distinct bit patterns render
    /// distinctly.
    pub fn canonical_string(&self) -> String {
        let config = self.kind.effective_config(self.config, self.profile);
        format!(
            "point-v{};kind={};geom={}x{}x{}x{};profile={};pattern={};rate={};plen={};\
             spec={}/{}/{}/{}/{};variant={};config[{}]",
            CACHE_FORMAT_VERSION,
            self.kind.label(),
            self.geom.chiplets_x(),
            self.geom.chiplets_y(),
            self.geom.chip_w(),
            self.geom.chip_h(),
            self.profile.name,
            self.pattern,
            self.rate,
            self.packet_len,
            self.spec.warmup,
            self.spec.measure,
            self.spec.drain,
            self.spec.watchdog,
            self.spec.drain_offers,
            self.variant,
            config.canonical_key(),
        )
    }

    /// The SHA-256 cache key of [`PointDesc::canonical_string`].
    pub fn key(&self) -> CacheKey {
        CacheKey(sha256(self.canonical_string().as_bytes()))
    }
}

/// One cached simulation outcome: the full [`RunOutcome`] surface plus
/// the rate it was measured at.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPoint {
    /// Offered injection rate.
    pub rate: f64,
    /// Whether the run drained completely.
    pub drained: bool,
    /// Watchdog abort on healthy hardware.
    pub deadlocked: bool,
    /// Watchdog abort on injected faults.
    pub fault_stalled: bool,
    /// The measured results.
    pub results: SimResults,
}

impl CachedPoint {
    /// Wraps a completed run outcome.
    pub fn from_outcome(rate: f64, out: &RunOutcome) -> Self {
        Self {
            rate,
            drained: out.drained,
            deadlocked: out.deadlocked,
            fault_stalled: out.fault_stalled,
            results: out.results.clone(),
        }
    }

    /// The equivalent run outcome.
    pub fn to_outcome(&self) -> RunOutcome {
        RunOutcome {
            results: self.results.clone(),
            drained: self.drained,
            deadlocked: self.deadlocked,
            fault_stalled: self.fault_stalled,
        }
    }
}

impl SaveState for CachedPoint {
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_f64(self.rate);
        w.put_bool(self.drained);
        w.put_bool(self.deadlocked);
        w.put_bool(self.fault_stalled);
        self.results.save_state(w);
    }
}

impl LoadState for CachedPoint {
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.rate = r.get_f64()?;
        self.drained = r.get_bool()?;
        self.deadlocked = r.get_bool()?;
        self.fault_stalled = r.get_bool()?;
        self.results.load_state(r)?;
        Ok(())
    }
}

/// Computes the descriptor's point with the engine: build the preset
/// network, run the synthetic workload, wrap the outcome. This is the
/// compute half of a cold cache miss — callers with extra state to
/// install (a warm checkpoint) supply their own compute and a matching
/// [`PointDesc::variant`].
pub fn engine_point(desc: &PointDesc) -> CachedPoint {
    let mut net = desc.kind.build(desc.geom, desc.config, desc.profile);
    let out = run_synthetic(
        &mut net,
        desc.pattern,
        desc.rate,
        desc.packet_len,
        desc.spec,
        desc.config.seed,
    );
    CachedPoint::from_outcome(desc.rate, &out)
}

/// Computes a phase-workload point: the same preset build as
/// [`engine_point`], but driving `graph` (reset to its pristine state
/// first, so a reused graph never leaks a previous run's release
/// cursor). Pair with [`PointDesc::with_workload`] so the graph's
/// fingerprint is part of the key.
pub fn phase_point(desc: &PointDesc, graph: &mut PhaseGraph) -> CachedPoint {
    let mut net = desc.kind.build(desc.geom, desc.config, desc.profile);
    graph.reset();
    let out = run(&mut net, graph, desc.spec);
    CachedPoint::from_outcome(desc.rate, &out)
}

/// Where a served point came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// In-memory LRU hit.
    Memory,
    /// On-disk store hit (promoted to memory).
    Disk,
    /// Freshly computed (and stored).
    Computed,
}

/// Cache traffic counters (monotonic; the serve layer mirrors them into
/// its metrics registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-memory LRU.
    pub mem_hits: u64,
    /// Lookups served from the on-disk store.
    pub disk_hits: u64,
    /// Entries written to the on-disk store.
    pub stored: u64,
    /// On-disk entries rejected by the integrity checks (bad magic, CRC,
    /// key mismatch or truncation) and treated as misses.
    pub corrupt_rejected: u64,
    /// Disk writes that failed (the computed result is still returned
    /// and kept in memory).
    pub store_errors: u64,
}

/// A fixed-capacity LRU keyed by [`CacheKey`].
///
/// Implementation note: recency is a monotone stamp per entry and
/// eviction scans for the minimum. Eviction is O(n) — but n is the
/// configured capacity (thousands), evictions only happen past it, and a
/// scan over a flat map is cheap next to the multi-millisecond
/// simulations being cached.
#[derive(Debug)]
pub struct MemLru {
    cap: usize,
    clock: u64,
    map: HashMap<CacheKey, (u64, CachedPoint)>,
}

impl MemLru {
    /// An LRU holding at most `cap` entries (`cap == 0` disables it).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            clock: 0,
            map: HashMap::new(),
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the LRU is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedPoint> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(stamp, v)| {
            *stamp = clock;
            v.clone()
        })
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry when over capacity.
    pub fn put(&mut self, key: CacheKey, value: CachedPoint) {
        if self.cap == 0 {
            return;
        }
        self.clock += 1;
        self.map.insert(key, (self.clock, value));
        while self.map.len() > self.cap {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
                .expect("non-empty map has a minimum");
            self.map.remove(&oldest);
        }
    }
}

/// Why a disk-store read did not produce a point.
#[derive(Debug)]
pub enum StoreError {
    /// The entry exists but failed an integrity check; the detail names
    /// which one.
    Corrupt(&'static str),
    /// Filesystem error other than not-found.
    Io(io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Corrupt(why) => write!(f, "corrupt cache entry: {why}"),
            StoreError::Io(e) => write!(f, "cache store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The on-disk content-addressed store.
///
/// Layout: `<root>/<first two hex digits>/<64 hex digits>.hcr`, one file
/// per point, sharded over 256 subdirectories so no single directory
/// grows unboundedly. Entry format:
///
/// ```text
/// "HCR1" | crc32(rest) u32-LE | key (32 bytes) | CachedPoint codec bytes
/// ```
///
/// Writes go to a `.tmp` sibling first and are published with an atomic
/// rename, so readers never observe a torn entry; the CRC and embedded
/// key catch anything that slips through (bit rot, manual tampering, a
/// hash-prefix collision in the file name).
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Distinguishes concurrent writers' temp files.
    write_seq: std::sync::atomic::AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            write_seq: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The entry path for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        let hex = key.hex();
        self.root.join(&hex[..2]).join(format!("{hex}.hcr"))
    }

    /// Reads the entry for `key`. `Ok(None)` is a clean miss; `Err` is a
    /// rejected (corrupt) or unreadable entry — callers treat it as a
    /// miss and recompute, and the recompute's write replaces the bad
    /// entry.
    pub fn load(&self, key: &CacheKey) -> Result<Option<CachedPoint>, StoreError> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        Self::decode(key, &bytes).map(Some)
    }

    fn decode(key: &CacheKey, bytes: &[u8]) -> Result<CachedPoint, StoreError> {
        if bytes.len() < 4 + 4 + 32 {
            return Err(StoreError::Corrupt("truncated header"));
        }
        if &bytes[..4] != MAGIC {
            return Err(StoreError::Corrupt("bad magic"));
        }
        let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
        let rest = &bytes[8..];
        if crc32(rest) != crc {
            return Err(StoreError::Corrupt("CRC mismatch"));
        }
        if rest[..32] != key.0 {
            return Err(StoreError::Corrupt("key mismatch"));
        }
        let mut point = CachedPoint {
            rate: 0.0,
            drained: false,
            deadlocked: false,
            fault_stalled: false,
            results: SimResults::zeroed(),
        };
        let mut r = ByteReader::new(&rest[32..]);
        point
            .load_state(&mut r)
            .map_err(|_| StoreError::Corrupt("payload decode failed"))?;
        if r.remaining() != 0 {
            return Err(StoreError::Corrupt("trailing bytes after payload"));
        }
        Ok(point)
    }

    /// Writes the entry for `key` atomically (temp file + rename).
    pub fn store(&self, key: &CacheKey, point: &CachedPoint) -> io::Result<()> {
        let path = self.entry_path(key);
        let dir = path.parent().expect("entry paths have a shard directory");
        std::fs::create_dir_all(dir)?;
        let mut body = ByteWriter::new();
        point.save_state(&mut body);
        let body = body.into_bytes();
        let mut rest = Vec::with_capacity(32 + body.len());
        rest.extend_from_slice(&key.0);
        rest.extend_from_slice(&body);
        let mut blob = Vec::with_capacity(8 + rest.len());
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&crc32(&rest).to_le_bytes());
        blob.extend_from_slice(&rest);
        let seq = self
            .write_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(".{}.{}.{}.tmp", key.hex(), std::process::id(), seq));
        std::fs::write(&tmp, &blob)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// The two-level result cache: in-memory LRU over an optional on-disk
/// content-addressed store.
#[derive(Debug)]
pub struct ResultCache {
    mem: MemLru,
    disk: Option<DiskStore>,
    /// Traffic counters.
    pub stats: CacheStats,
}

/// Default in-memory LRU capacity.
pub const DEFAULT_MEM_CAP: usize = 4096;

impl ResultCache {
    /// A memory-only cache with the default capacity.
    pub fn in_memory() -> Self {
        Self::new(DEFAULT_MEM_CAP, None)
    }

    /// A cache over the on-disk store rooted at `dir`, with the default
    /// in-memory capacity.
    pub fn with_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Self::new(DEFAULT_MEM_CAP, Some(DiskStore::open(dir)?)))
    }

    /// A cache with an explicit LRU capacity and optional disk store.
    pub fn new(mem_cap: usize, disk: Option<DiskStore>) -> Self {
        Self {
            mem: MemLru::new(mem_cap),
            disk,
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up in both levels, counting the hit/miss and promoting
    /// disk hits into memory. Corrupt disk entries are rejected, counted
    /// and reported as a miss.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<(CachedPoint, CacheSource)> {
        if let Some(p) = self.mem.get(key) {
            self.stats.mem_hits += 1;
            return Some((p, CacheSource::Memory));
        }
        if let Some(disk) = &self.disk {
            match disk.load(key) {
                Ok(Some(p)) => {
                    self.stats.disk_hits += 1;
                    self.mem.put(*key, p.clone());
                    return Some((p, CacheSource::Disk));
                }
                Ok(None) => {}
                Err(_) => self.stats.corrupt_rejected += 1,
            }
        }
        None
    }

    /// Inserts `point` under `key` into both levels. Disk write failures
    /// are counted, not fatal — the result is still served and cached in
    /// memory.
    pub fn insert(&mut self, key: CacheKey, point: &CachedPoint) {
        self.mem.put(key, point.clone());
        if let Some(disk) = &self.disk {
            match disk.store(&key, point) {
                Ok(()) => self.stats.stored += 1,
                Err(_) => self.stats.store_errors += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_desc(rate: f64) -> PointDesc {
        PointDesc::new(
            NetworkKind::UniformParallelMesh,
            Geometry::new(2, 2, 2, 2),
            SimConfig::default().with_shard_threads(1),
            SchedulingProfile::balanced(),
            TrafficPattern::Uniform,
            rate,
            16,
            RunSpec::smoke(),
        )
    }

    #[test]
    fn canonical_string_covers_every_point_field() {
        let base = small_desc(0.05);
        let base_key = base.key();
        let mut spec2 = RunSpec::smoke();
        spec2.measure += 1;
        let variants: Vec<PointDesc> = vec![
            PointDesc {
                kind: NetworkKind::UniformSerialTorus,
                ..base.clone()
            },
            PointDesc {
                geom: Geometry::new(2, 2, 2, 3),
                ..base.clone()
            },
            PointDesc {
                profile: SchedulingProfile::performance_first(),
                ..base.clone()
            },
            PointDesc {
                pattern: TrafficPattern::BitComplement,
                ..base.clone()
            },
            PointDesc {
                rate: 0.06,
                ..base.clone()
            },
            PointDesc {
                packet_len: 8,
                ..base.clone()
            },
            PointDesc {
                spec: spec2,
                ..base.clone()
            },
            base.clone().with_variant("warm@0.02"),
            PointDesc {
                config: SimConfig::default().with_seed(9),
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.key(), base_key, "{}", v.canonical_string());
        }
        // Scheduling-only knobs do not perturb the key.
        let sharded = PointDesc {
            config: base.config.with_shard_threads(4),
            ..base.clone()
        };
        assert_eq!(sharded.key(), base_key);
    }

    #[test]
    fn preset_normalization_keys_equal_configs_equal() {
        // HeteroPhyHalf forces halved mode; spelling it on the config
        // explicitly must key identically.
        let a = PointDesc {
            kind: NetworkKind::HeteroPhyHalf,
            ..small_desc(0.05)
        };
        let b = PointDesc {
            config: a.config.halved(),
            ..a.clone()
        };
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn workload_variant_keys_on_the_graph_fingerprint() {
        use chiplet_topo::NodeId;
        use chiplet_traffic::DnnSpec;
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let spec = DnnSpec::parse("ranks=4,layers=1").unwrap();
        let graph = PhaseGraph::dnn(&spec, &nodes);
        let base = small_desc(0.0);
        let keyed = base.clone().with_workload(&graph);
        assert_ne!(keyed.key(), base.key());
        // A regenerated identical graph keys the same; a compute-scaled
        // one keys differently.
        assert_eq!(
            base.clone()
                .with_workload(&PhaseGraph::dnn(&spec, &nodes))
                .key(),
            keyed.key()
        );
        assert_ne!(
            base.clone()
                .with_workload(&graph.clone().with_compute_scale(2.0))
                .key(),
            keyed.key()
        );
        // The synthetic fields are inert for a workload point: whatever
        // pattern and rate the caller passed, the key is the same.
        let inert = PointDesc {
            pattern: TrafficPattern::BitComplement,
            ..small_desc(0.3)
        };
        assert_eq!(inert.with_workload(&graph).key(), keyed.key());
    }

    #[test]
    fn phase_point_is_deterministic_and_cacheable() {
        use chiplet_topo::NodeId;
        use chiplet_traffic::DnnSpec;
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let spec = DnnSpec::parse("ranks=4,layers=1,grad=32").unwrap();
        let mut graph = PhaseGraph::dnn(&spec, &nodes);
        let desc = small_desc(0.0).with_workload(&graph);
        assert!(desc.spec.drain_offers, "phase workloads drain their offers");
        let a = phase_point(&desc, &mut graph);
        // Reuse the same graph object: phase_point resets it.
        let b = phase_point(&desc, &mut graph);
        assert_eq!(a, b, "phase points are bit-deterministic");
        assert!(a.drained);

        let mut cache = ResultCache::in_memory();
        assert!(cache.lookup(&desc.key()).is_none());
        cache.insert(desc.key(), &a);
        let (second, src) = cache.lookup(&desc.key()).expect("cache hit");
        assert_eq!(src, CacheSource::Memory);
        assert_eq!(second, a);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = MemLru::new(2);
        let p = engine_point(&small_desc(0.02));
        let k = |b: u8| CacheKey([b; 32]);
        lru.put(k(1), p.clone());
        lru.put(k(2), p.clone());
        assert!(lru.get(&k(1)).is_some()); // refresh 1 → 2 is now oldest
        lru.put(k(3), p.clone());
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&k(2)).is_none(), "LRU entry 2 evicted");
        assert!(lru.get(&k(1)).is_some());
        assert!(lru.get(&k(3)).is_some());
    }

    #[test]
    fn disk_round_trip_is_bit_exact_and_corruption_is_rejected() {
        let dir = std::env::temp_dir().join(format!("hcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).expect("store opens");
        let desc = small_desc(0.05);
        let key = desc.key();
        let point = engine_point(&desc);
        store.store(&key, &point).expect("store writes");
        let back = store.load(&key).expect("entry readable").expect("hit");
        assert_eq!(back, point, "bit-exact round trip");

        // Truncation → rejected.
        let path = store.entry_path(&key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(store.load(&key), Err(StoreError::Corrupt(_))));

        // Flipped payload bit → CRC rejects.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(store.load(&key), Err(StoreError::Corrupt(_))));

        // Intact bytes under the wrong name → key mismatch rejects.
        let other = small_desc(0.06).key();
        let other_path = store.entry_path(&other);
        std::fs::create_dir_all(other_path.parent().unwrap()).unwrap();
        std::fs::write(&other_path, &bytes).unwrap();
        assert!(matches!(store.load(&other), Err(StoreError::Corrupt(_))));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_and_insert_count_and_serve_each_level() {
        let dir = std::env::temp_dir().join(format!("hcache-levels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let desc = small_desc(0.05);
        let key = desc.key();

        let mut cache = ResultCache::with_dir(&dir).expect("cache opens");
        assert!(cache.lookup(&key).is_none());
        let first = engine_point(&desc);
        cache.insert(key, &first);
        assert_eq!(cache.stats.stored, 1);
        let (second, src) = cache.lookup(&key).expect("hit");
        assert_eq!(src, CacheSource::Memory);
        assert_eq!(second, first);

        // A fresh cache over the same directory — a "process restart" —
        // hits the disk level, bit-identically.
        let mut cache2 = ResultCache::with_dir(&dir).expect("cache reopens");
        let (third, src) = cache2.lookup(&key).expect("hit");
        assert_eq!(src, CacheSource::Disk);
        assert_eq!(third, first);
        assert_eq!(cache2.stats.disk_hits, 1);
        // ...and the promoted entry now hits memory.
        let (_, src) = cache2.lookup(&key).expect("hit");
        assert_eq!(src, CacheSource::Memory);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
