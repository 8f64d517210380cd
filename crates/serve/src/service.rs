//! The sweep service: cache-fronted, dedup-aware, warm-start-scheduling
//! job execution.
//!
//! One [`SweepService`] instance is shared by every connection (and every
//! test thread). The execution path for an engine point is:
//!
//! 1. **Cache** — look the point's [`PointDesc::key`] up in the two-level
//!    [`ResultCache`] (memory, then disk). A hit is served without
//!    simulating anything.
//! 2. **Dedup** — on a miss, claim the key in the in-flight table. If
//!    another thread is already computing the same key, block on its
//!    entry and adopt the result when it lands: N concurrent identical
//!    requests run exactly one simulation.
//! 3. **Compute** — the claiming thread runs the engine (outside every
//!    lock), inserts the result into both cache levels, publishes it to
//!    any waiters and releases the claim. A compute that panics releases
//!    its claim too, and the waiters retry instead of blocking forever.
//!    An async job ([`SweepService::submit`]) whose batch panics finishes
//!    with a `{"state": "failed", "error": ...}` body.
//!
//! Engine sweeps ([`SweepService::sweep`]) fan their rate points out over
//! a bounded worker pool ([`SweepService::workers`] threads) through
//! [`hetero_if::sweep::sweep_points`], so they stop two points past
//! saturation by the rule every sweep uses. Jobs that opt into warm-start
//! mode pay the warm-up once per (preset, config, pattern, lowest-rate)
//! group, checkpoint the warmed network
//! ([`hetero_if::sweep::warm_checkpoint`]) and fork every point that
//! misses the cache from the restored state
//! ([`hetero_if::sweep::fork_point`]) — the points are keyed under a
//! distinct `warm@<rate0>/w<warmup>` variant because warm-started results
//! are an approximation of, not identical to, cold runs. `hetero-sim
//! --sweep` runs through the same path.
//!
//! Every cache/dedup/scheduling event increments a counter in a
//! [`simkit::metrics::MetricsRegistry`] slice; [`SweepService::snapshot`]
//! folds it and the existing Prometheus/JSONL exporters render it.

use crate::api::{Backend, BatchRequest, JobSpec};
use chiplet_traffic::PhaseGraph;
use hetero_estimate::{error_bound_pct, EstimateRequest, Estimator};
use hetero_if::cache::{
    engine_point, phase_point, CacheKey, CacheSource, CachedPoint, PointDesc, ResultCache,
};
use hetero_if::sweep::{fork_point, sweep_points, warm_checkpoint};
use hetero_if::SimConfig;
use simkit::json::Json;
use simkit::metrics::{MetricId, MetricsRegistry, MetricsSlice, MetricsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Where a served point came from, in wire vocabulary.
fn source_label(src: CacheSource) -> &'static str {
    match src {
        CacheSource::Memory => "memory",
        CacheSource::Disk => "disk",
        CacheSource::Computed => "computed",
    }
}

/// One in-flight computation: waiters block on the condvar until the
/// leader settles it — with the point, or with `None` if the leader's
/// compute unwound.
#[derive(Debug, Default)]
struct InFlight {
    slot: Mutex<Option<Option<CachedPoint>>>,
    ready: Condvar,
}

impl InFlight {
    fn settle(&self, point: Option<CachedPoint>) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(point);
        self.ready.notify_all();
    }

    /// Blocks until the leader settles: the point, or `None` when the
    /// leader gave up and the caller should retry.
    fn wait(&self) -> Option<CachedPoint> {
        let mut slot = self.slot.lock().expect("in-flight slot");
        loop {
            if let Some(p) = slot.as_ref() {
                return p.clone();
            }
            slot = self.ready.wait(slot).expect("in-flight wait");
        }
    }
}

/// A leader's registered compute claim. Dropping it removes the claim
/// from the in-flight table and settles the waiters with `point` — still
/// `None` if the compute panicked, so they retry instead of hanging.
struct Claim<'a> {
    table: &'a Mutex<HashMap<CacheKey, Arc<InFlight>>>,
    key: CacheKey,
    entry: Arc<InFlight>,
    point: Option<CachedPoint>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.table
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        self.entry.settle(self.point.take());
    }
}

/// Registered metric handles (all counters).
#[derive(Debug, Clone, Copy)]
struct Ids {
    requests: MetricId,
    jobs: MetricId,
    points: MetricId,
    mem_hits: MetricId,
    disk_hits: MetricId,
    computed: MetricId,
    dedup_joins: MetricId,
    corrupt_rejected: MetricId,
    store_errors: MetricId,
    warm_forks: MetricId,
    warm_cycles_saved: MetricId,
    analytical_points: MetricId,
}

/// Service counters: a point-in-time copy of the shared ones
/// ([`SweepService::stats`]), or the tally of what one batch served (its
/// response's cache summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Batches executed.
    pub requests: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Engine points served (any source).
    pub points: u64,
    /// Points served from the in-memory LRU.
    pub mem_hits: u64,
    /// Points served from the on-disk store.
    pub disk_hits: u64,
    /// Points actually simulated.
    pub computed: u64,
    /// Points adopted from another thread's identical in-flight compute.
    pub dedup_joins: u64,
    /// On-disk entries rejected by the integrity checks.
    pub corrupt_rejected: u64,
    /// Warm-start checkpoint forks (one per warm group whose returned
    /// points forked).
    pub warm_forks: u64,
    /// Warm-up cycles the returned points' forks avoided re-simulating.
    pub warm_cycles_saved: u64,
    /// Points served by the analytical estimator.
    pub analytical_points: u64,
}

impl ServiceStats {
    /// Cache hits, both levels (dedup joins are not cache hits).
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Hit rate over engine points, in [0, 1]; 0 when nothing was served.
    pub fn hit_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.hits() as f64 / self.points as f64
        }
    }

    /// Tallies one served point by its source label.
    fn count(&mut self, source: &str) {
        self.points += 1;
        match source {
            "memory" => self.mem_hits += 1,
            "disk" => self.disk_hits += 1,
            "computed" => self.computed += 1,
            _ => self.dedup_joins += 1,
        }
    }
}

/// Finished async results kept for polling. Past this many, the oldest
/// finished job is evicted and its id polls like an unknown one.
const MAX_FINISHED_JOBS: usize = 256;

/// The async job table: id → rendered result (None while running).
#[derive(Debug, Default)]
struct JobTable {
    results: HashMap<u64, Option<String>>,
    /// Finished ids, oldest first; running jobs are never listed.
    finished: VecDeque<u64>,
}

impl JobTable {
    /// Records `id`'s result, evicting the oldest finished job past
    /// [`MAX_FINISHED_JOBS`].
    fn finish(&mut self, id: u64, rendered: String) {
        self.results.insert(id, Some(rendered));
        self.finished.push_back(id);
        if self.finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.results.remove(&oldest);
            }
        }
    }
}

/// The shared job-execution engine behind the HTTP front end (and usable
/// directly, as the tests and the bench harness do).
#[derive(Debug)]
pub struct SweepService {
    cache: Mutex<ResultCache>,
    inflight: Mutex<HashMap<CacheKey, Arc<InFlight>>>,
    registry: MetricsRegistry,
    slice: Mutex<MetricsSlice>,
    ids: Ids,
    /// Worker threads a job's points fan out over.
    workers: usize,
    jobs: Mutex<JobTable>,
    next_job: AtomicU64,
}

impl SweepService {
    /// A service over an optional on-disk cache directory, fanning each
    /// job out over `workers` threads (clamped to at least 1).
    pub fn new(cache_dir: Option<PathBuf>, workers: usize) -> io::Result<Self> {
        let cache = match cache_dir {
            Some(dir) => ResultCache::with_dir(dir)?,
            None => ResultCache::in_memory(),
        };
        let mut registry = MetricsRegistry::new();
        let ids = Ids {
            requests: registry.counter("serve_requests_total", &[]),
            jobs: registry.counter("serve_jobs_total", &[]),
            points: registry.counter("serve_points_total", &[]),
            mem_hits: registry.counter("serve_cache_hits_total", &[("level", "memory")]),
            disk_hits: registry.counter("serve_cache_hits_total", &[("level", "disk")]),
            computed: registry.counter("serve_points_computed_total", &[]),
            dedup_joins: registry.counter("serve_dedup_joins_total", &[]),
            corrupt_rejected: registry.counter("serve_cache_corrupt_rejected_total", &[]),
            store_errors: registry.counter("serve_cache_store_errors_total", &[]),
            warm_forks: registry.counter("serve_warm_forks_total", &[]),
            warm_cycles_saved: registry.counter("serve_warm_cycles_saved_total", &[]),
            analytical_points: registry.counter("serve_analytical_points_total", &[]),
        };
        let slice = registry.slice();
        Ok(Self {
            cache: Mutex::new(cache),
            inflight: Mutex::new(HashMap::new()),
            registry,
            slice: Mutex::new(slice),
            ids,
            workers: workers.max(1),
            jobs: Mutex::new(JobTable::default()),
            next_job: AtomicU64::new(1),
        })
    }

    /// The configured fan-out width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn count(&self, id: MetricId, v: u64) {
        self.slice.lock().expect("metrics slice").add(id, v);
    }

    /// A folded snapshot of every service metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slice = self.slice.lock().expect("metrics slice");
        self.registry.fold([&*slice])
    }

    /// The service counters as plain numbers.
    pub fn stats(&self) -> ServiceStats {
        let slice = self.slice.lock().expect("metrics slice");
        ServiceStats {
            requests: slice.get(self.ids.requests),
            jobs: slice.get(self.ids.jobs),
            points: slice.get(self.ids.points),
            mem_hits: slice.get(self.ids.mem_hits),
            disk_hits: slice.get(self.ids.disk_hits),
            computed: slice.get(self.ids.computed),
            dedup_joins: slice.get(self.ids.dedup_joins),
            corrupt_rejected: slice.get(self.ids.corrupt_rejected),
            warm_forks: slice.get(self.ids.warm_forks),
            warm_cycles_saved: slice.get(self.ids.warm_cycles_saved),
            analytical_points: slice.get(self.ids.analytical_points),
        }
    }

    /// The metrics in Prometheus text exposition format (`GET /metrics`).
    pub fn prometheus(&self) -> String {
        let mut out = Vec::new();
        self.snapshot()
            .to_prometheus(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("prometheus text is UTF-8")
    }

    /// The metrics as JSONL, one object per metric.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.snapshot()
            .to_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("jsonl text is UTF-8")
    }

    /// Serves one point: cache, then dedup, then `compute`. The label
    /// names the source (`memory` / `disk` / `computed` / `dedup`).
    fn cached_point(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> CachedPoint,
    ) -> (CachedPoint, &'static str) {
        self.count(self.ids.points, 1);
        let mut claim = loop {
            let waiter = {
                let mut inflight = self.inflight.lock().expect("in-flight table");
                // Look up under the in-flight lock: a leader that finished
                // just before already cached the point and dropped its
                // claim. One lookup per attempt, so a corrupt disk entry
                // is read and counted once.
                if let Some(hit) = self.cache_hit(&key) {
                    return hit;
                }
                match inflight.get(&key) {
                    Some(entry) => Arc::clone(entry),
                    None => {
                        let entry = Arc::new(InFlight::default());
                        inflight.insert(key, Arc::clone(&entry));
                        break Claim {
                            table: &self.inflight,
                            key,
                            entry,
                            point: None,
                        };
                    }
                }
            };
            if let Some(p) = waiter.wait() {
                self.count(self.ids.dedup_joins, 1);
                return (p, "dedup");
            }
            // The leader's compute panicked: race to claim the key afresh.
        };
        // We hold the claim: compute outside every lock.
        let point = compute();
        {
            let mut cache = self.cache.lock().expect("result cache");
            cache.insert(key, &point);
            let store_errors = cache.stats.store_errors;
            let corrupt = cache.stats.corrupt_rejected;
            drop(cache);
            self.sync_cache_error_counters(store_errors, corrupt);
        }
        self.count(self.ids.computed, 1);
        claim.point = Some(point.clone());
        drop(claim);
        (point, "computed")
    }

    /// A cache hit for `key`, counted and labelled by level.
    fn cache_hit(&self, key: &CacheKey) -> Option<(CachedPoint, &'static str)> {
        let (p, src) = self.cache.lock().expect("result cache").lookup(key)?;
        self.count(self.hit_id(src), 1);
        Some((p, source_label(src)))
    }

    fn hit_id(&self, src: CacheSource) -> MetricId {
        match src {
            CacheSource::Memory => self.ids.mem_hits,
            _ => self.ids.disk_hits,
        }
    }

    /// Mirrors the cache's error counters (absolute values) into the
    /// monotonic metric cells.
    fn sync_cache_error_counters(&self, store_errors: u64, corrupt: u64) {
        let mut slice = self.slice.lock().expect("metrics slice");
        let have = slice.get(self.ids.store_errors);
        if store_errors > have {
            slice.add(self.ids.store_errors, store_errors - have);
        }
        let have = slice.get(self.ids.corrupt_rejected);
        if corrupt > have {
            slice.add(self.ids.corrupt_rejected, corrupt - have);
        }
    }

    /// Serves one cold engine point. `hetero-sim --cache-dir` serves its
    /// synthetic runs through this too.
    pub fn point(&self, desc: &PointDesc) -> (CachedPoint, &'static str) {
        self.cached_point(desc.key(), || engine_point(desc))
    }

    /// Serves one phase-workload point: `desc` keys it (see
    /// [`PointDesc::with_workload`]) and a miss runs `graph`. The twin of
    /// [`SweepService::point`] that `hetero-sim --workload --cache-dir`
    /// serves through.
    pub fn phase_point(&self, desc: &PointDesc, graph: &PhaseGraph) -> (CachedPoint, &'static str) {
        self.cached_point(desc.key(), || phase_point(desc, &mut graph.clone()))
    }

    /// Runs one phase-workload job: every compute-window scale is an
    /// independent cached point, keyed on the scaled graph's fingerprint
    /// (`variant=workload@<sha256>`), fanned out over the worker pool. A
    /// scale of 1.0 keys identically to a direct
    /// `hetero-sim --workload --cache-dir` run of the same graph.
    fn run_workload_job(
        &self,
        job: &JobSpec,
        graph: &PhaseGraph,
    ) -> Vec<(f64, CachedPoint, &'static str)> {
        simkit::par::map(&job.scales, self.workers, |&scale| {
            let scaled = graph.clone().with_compute_scale(scale);
            let (p, src) = self.phase_point(&job.workload_desc(&scaled), &scaled);
            (scale, p, src)
        })
    }

    /// Serves an engine sweep of `job` with every point run under
    /// `config`: the job's own [`JobSpec::config`] for a served job, with
    /// `hetero-sim`'s run flags laid over it for the CLI. The points fan
    /// out over the worker pool and stop two points past saturation
    /// ([`sweep_points`]); each is served through the cache like
    /// [`SweepService::point`].
    ///
    /// In warm-start mode all points share the warm-up paid once at the
    /// lowest rate and fork from one checkpoint, built by the first point
    /// that misses the cache (a fully hot job forks nothing). They are
    /// keyed under a `warm@<rate0>/w<warmup>` variant: their results
    /// approximate cold runs. With no warm-up, or no second rate to share
    /// it with, the sweep runs cold; if the warm-up itself aborts
    /// (deadlock, fault stall), the missed points run cold under the warm
    /// keys — the abort is a property of the group, so every process
    /// agrees.
    ///
    /// Tallies the kept points' sources and the warm-up cycles their forks
    /// saved into `served`: points a worker ran past the cut count in the
    /// service-wide counters but not here, so the tally is the same for
    /// any worker count. Returns the kept points and whether they were
    /// warm-started.
    pub fn sweep(
        &self,
        job: &JobSpec,
        config: SimConfig,
        served: &mut ServiceStats,
    ) -> (Vec<(CachedPoint, &'static str)>, bool) {
        let warm = job.warm_start && job.spec.warmup > 0 && job.rates.len() > 1;
        let rate0 = job.rates.iter().copied().fold(f64::INFINITY, f64::min);
        let variant = if warm {
            format!("warm@{}/w{}", rate0, job.spec.warmup)
        } else {
            String::new()
        };
        let desc = |rate| PointDesc {
            config,
            variant: variant.clone(),
            ..job.point_desc(rate)
        };
        let build = || job.kind.build(job.geom, config, job.profile);
        let (pattern, packet_len, spec) = (job.pattern, job.packet_len, job.spec);
        let blob = OnceLock::new();
        // Each point: (the served point and its source, whether it forked).
        let points = sweep_points(&job.rates, self.workers, |rate| {
            let desc = desc(rate);
            let mut forked = false;
            let point = self.cached_point(desc.key(), || {
                let warm_blob = warm.then(|| {
                    blob.get_or_init(|| {
                        warm_checkpoint(build, pattern, rate0, packet_len, spec, config.seed)
                    })
                });
                let Some(Some(blob)) = warm_blob else {
                    return engine_point(&desc);
                };
                forked = true;
                let out = fork_point(build, blob, pattern, rate, packet_len, spec, config.seed);
                CachedPoint::from_outcome(rate, &out)
            });
            (point, forked)
        });
        let forks = points.iter().filter(|(_, forked)| *forked).count() as u64;
        if forks > 0 {
            // The first fork paid the warm-up that the others skip.
            let saved = spec.warmup * (forks - 1);
            self.count(self.ids.warm_forks, 1);
            self.count(self.ids.warm_cycles_saved, saved);
            served.warm_forks += 1;
            served.warm_cycles_saved += saved;
        }
        let points: Vec<_> = points.into_iter().map(|(point, _)| point).collect();
        for (_, src) in &points {
            served.count(src);
        }
        (points, warm && !matches!(blob.get(), Some(None)))
    }

    fn engine_point_json(point: &CachedPoint, src: &'static str) -> Json {
        let r = &point.results;
        let mut j = Json::obj();
        j.set("rate", Json::from(point.rate))
            .set("source", Json::from(src))
            .set("drained", Json::from(point.drained))
            .set("deadlocked", Json::from(point.deadlocked))
            .set("fault_stalled", Json::from(point.fault_stalled))
            .set("packets", Json::from(r.packets))
            .set("avg_latency", Json::from(r.avg_latency))
            .set("p99_latency", Json::from(r.p99_latency))
            .set("avg_hops", Json::from(r.avg_hops))
            .set("throughput", Json::from(r.throughput))
            .set("avg_energy_pj", Json::from(r.avg_energy_pj))
            .set("saturated", Json::from(r.is_saturated()));
        j
    }

    /// Runs one job, tallies the points it served into `served` and
    /// renders its report.
    fn run_job(&self, job: &JobSpec, served: &mut ServiceStats) -> Json {
        self.count(self.ids.jobs, 1);
        let mut report = Json::obj();
        report
            .set("preset", Json::from(job.kind.label()))
            .set("backend", Json::from(job.backend.label()))
            .set("profile", Json::from(job.profile.name))
            .set("pattern", Json::from(job.pattern.to_string()))
            .set("seed", Json::from(job.seed));
        match job.backend {
            Backend::Analytical => {
                let req = EstimateRequest {
                    kind: job.kind,
                    geom: job.geom,
                    config: job.config(),
                    profile: job.profile,
                    pattern: job.pattern,
                };
                let curve = Estimator::analytical().estimate_sweep(&req, &job.rates);
                self.count(self.ids.analytical_points, curve.points.len() as u64);
                let points: Vec<Json> = curve
                    .points
                    .iter()
                    .map(|p| {
                        let mut j = Json::obj();
                        j.set("rate", Json::from(p.rate))
                            .set("source", Json::from("analytical"))
                            .set("avg_latency", Json::from(p.avg_latency))
                            .set("avg_hops", Json::from(p.avg_hops))
                            .set("throughput", Json::from(p.throughput))
                            .set("avg_energy_pj", Json::from(p.avg_energy_pj))
                            .set("saturated", Json::from(p.saturated));
                        j
                    })
                    .collect();
                report
                    .set("points", Json::Arr(points))
                    .set(
                        "saturation_rate",
                        curve.saturation_rate.map_or(Json::Null, Json::from),
                    )
                    .set(
                        "predicted_saturation_rate",
                        Json::from(curve.predicted_saturation_rate),
                    )
                    // The analytical tier is a model: attach its
                    // documented calibration error so clients can judge
                    // whether the speed/accuracy trade fits their use.
                    .set("error_bound_pct", Json::from(error_bound_pct(job.kind)));
            }
            Backend::Engine => {
                if let Some(graph) = &job.workload {
                    let points = self.run_workload_job(job, graph);
                    for (_, _, src) in &points {
                        served.count(src);
                    }
                    let rendered: Vec<Json> = points
                        .iter()
                        .map(|(scale, p, src)| {
                            let mut j = Self::engine_point_json(p, src);
                            j.set("scale", Json::from(*scale));
                            j
                        })
                        .collect();
                    report
                        .set("points", Json::Arr(rendered))
                        .set("workload_fingerprint", Json::from(graph.fingerprint()))
                        .set("phases", Json::from(graph.phases().len() as u64));
                    return report;
                }
                let (points, warm) = self.sweep(job, job.config(), served);
                let rendered: Vec<Json> = points
                    .iter()
                    .map(|(p, src)| Self::engine_point_json(p, src))
                    .collect();
                report
                    .set("points", Json::Arr(rendered))
                    .set("warm_start", Json::from(warm));
            }
        }
        report
    }

    /// Runs a whole batch synchronously and renders the response body.
    pub fn run_batch(&self, batch: &BatchRequest) -> Json {
        let started = Instant::now();
        self.count(self.ids.requests, 1);
        let mut served = ServiceStats::default();
        let jobs: Vec<Json> = batch
            .jobs
            .iter()
            .map(|j| self.run_job(j, &mut served))
            .collect();
        let mut cache = Json::obj();
        cache
            .set("points", Json::from(served.points))
            .set("mem_hits", Json::from(served.mem_hits))
            .set("disk_hits", Json::from(served.disk_hits))
            .set("computed", Json::from(served.computed))
            .set("dedup_joins", Json::from(served.dedup_joins))
            .set("hit_rate", Json::from(served.hit_rate()));
        let mut resp = Json::obj();
        resp.set("jobs", Json::Arr(jobs))
            .set("cache", cache)
            .set("warm_cycles_saved", Json::from(served.warm_cycles_saved))
            .set(
                "elapsed_ms",
                Json::from(started.elapsed().as_secs_f64() * 1e3),
            );
        resp
    }

    /// Submits a batch for asynchronous execution; the returned id is
    /// pollable via [`SweepService::job_result`].
    pub fn submit(self: &Arc<Self>, batch: BatchRequest) -> u64 {
        self.spawn_job(move |service| service.run_batch(&batch))
    }

    /// Registers a job as running and computes its body on a new thread.
    /// A body that panics finishes the job with an error body instead of
    /// leaving it running forever.
    fn spawn_job(self: &Arc<Self>, body: impl FnOnce(&Self) -> Json + Send + 'static) -> u64 {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.jobs
            .lock()
            .expect("job table")
            .results
            .insert(id, None);
        let service = Arc::clone(self);
        std::thread::spawn(move || {
            let rendered = match std::panic::catch_unwind(AssertUnwindSafe(|| body(&service))) {
                Ok(result) => result.render(),
                Err(payload) => {
                    let why = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic".into());
                    let mut j = Json::obj();
                    j.set("state", Json::from("failed"))
                        .set("error", Json::from(format!("batch panicked: {why}")));
                    j.render()
                }
            };
            service.jobs.lock().expect("job table").finish(id, rendered);
        });
        id
    }

    /// Polls an async job: `None` = unknown (or evicted) id,
    /// `Some(None)` = still running, `Some(Some(body))` = finished.
    pub fn job_result(&self, id: u64) -> Option<Option<String>> {
        self.jobs
            .lock()
            .expect("job table")
            .results
            .get(&id)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_if::sim::RunSpec;
    use hetero_if::sweep::latency_sweep;
    use hetero_if::{NetworkKind, SchedulingProfile};

    fn smoke_job(rates: &[f64], warm: bool) -> JobSpec {
        JobSpec {
            kind: NetworkKind::UniformParallelMesh,
            geom: chiplet_topo::Geometry::new(2, 2, 2, 2),
            profile: SchedulingProfile::balanced(),
            pattern: chiplet_traffic::TrafficPattern::Uniform,
            rates: rates.to_vec(),
            packet_len: 16,
            spec: RunSpec::smoke(),
            seed: 1,
            backend: Backend::Engine,
            warm_start: warm,
            workload: None,
            scales: vec![1.0],
        }
    }

    #[test]
    fn workload_job_caches_per_scale_and_rehits() {
        use chiplet_topo::NodeId;
        use chiplet_traffic::{DnnSpec, PhaseGraph};
        let service = SweepService::new(None, 2).expect("service");
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let spec = DnnSpec::parse("ranks=4,layers=1,grad=32").unwrap();
        let mut job = smoke_job(&[], false);
        job.kind = NetworkKind::HeteroPhyFull;
        job.workload = Some(PhaseGraph::dnn(&spec, &nodes));
        job.scales = vec![1.0, 2.0];
        let batch = BatchRequest {
            jobs: vec![job.clone()],
        };
        let cold = service.run_batch(&batch);
        let jobs = cold.get("jobs").unwrap().as_arr().unwrap();
        assert!(jobs[0].get("workload_fingerprint").is_some());
        let points = jobs[0].get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].get("scale").and_then(Json::as_f64), Some(1.0));
        assert_eq!(points[1].get("scale").and_then(Json::as_f64), Some(2.0));
        for p in points {
            assert_eq!(p.get("drained").and_then(Json::as_bool), Some(true));
        }
        // computed == 2 proves the two scales keyed distinctly (one
        // entry could have served both otherwise); a re-run is all hits.
        assert_eq!(service.stats().computed, 2, "one run per scale");
        let hot = service.run_batch(&batch);
        let cache = hot.get("cache").unwrap();
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(1.0));
        assert_eq!(service.stats().computed, 2, "nothing recomputed");
    }

    #[test]
    fn workload_key_ignores_the_inert_pattern() {
        let service = SweepService::new(None, 1).expect("service");
        let job = r#""preset": "hetero-phy-full", "workload": "dnn:ranks=4,layers=1,grad=32""#;
        let source = |body: String| {
            let batch = BatchRequest::parse(&body).expect("workload job parses");
            let resp = service.run_batch(&batch);
            let jobs = resp.get("jobs").unwrap().as_arr().unwrap();
            let points = jobs[0].get("points").unwrap().as_arr().unwrap();
            points[0]
                .get("source")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(source(format!(r#"{{"jobs": [{{{job}}}]}}"#)), "computed");
        assert_eq!(
            source(format!(
                r#"{{"jobs": [{{{job}, "pattern": "bit-complement"}}]}}"#
            )),
            "memory"
        );
    }

    #[test]
    fn point_counts_and_serves_each_level() {
        let dir = std::env::temp_dir().join(format!("serve-levels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let desc = smoke_job(&[0.05], false).point_desc(0.05);

        let service = SweepService::new(Some(dir.clone()), 1).expect("service");
        let (first, src) = service.point(&desc);
        assert_eq!(src, "computed");
        assert_eq!(service.stats().computed, 1);
        let (second, src) = service.point(&desc);
        assert_eq!(src, "memory");
        assert_eq!(second, first);

        // A fresh service over the same directory — a "process restart" —
        // hits the disk level, bit-identically.
        let service2 = SweepService::new(Some(dir.clone()), 1).expect("service reopens");
        let (third, src) = service2.point(&desc);
        assert_eq!(src, "disk");
        assert_eq!(third, first);
        assert_eq!(service2.stats().disk_hits, 1);
        // ...and the promoted entry now hits memory.
        let (_, src) = service2.point(&desc);
        assert_eq!(src, "memory");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_batch_is_all_hits() {
        let service = SweepService::new(None, 2).expect("service");
        let batch = BatchRequest {
            jobs: vec![smoke_job(&[0.02, 0.03], false)],
        };
        let cold = service.run_batch(&batch);
        let cold_cache = cold.get("cache").expect("cache section");
        assert_eq!(cold_cache.get("computed").and_then(Json::as_u64), Some(2));
        assert_eq!(cold_cache.get("hit_rate").and_then(Json::as_f64), Some(0.0));
        let hot = service.run_batch(&batch);
        let hot_cache = hot.get("cache").expect("cache section");
        assert_eq!(hot_cache.get("computed").and_then(Json::as_u64), Some(0));
        assert_eq!(hot_cache.get("mem_hits").and_then(Json::as_u64), Some(2));
        assert_eq!(hot_cache.get("hit_rate").and_then(Json::as_f64), Some(1.0));
        // The responses carry identical physics: same points, only the
        // source labels differ.
        let point = |resp: &Json, i: usize| -> Vec<(String, Json)> {
            let Json::Obj(fields) = resp.get("jobs").unwrap().as_arr().unwrap()[0]
                .get("points")
                .unwrap()
                .as_arr()
                .unwrap()[i]
                .clone()
            else {
                panic!("point is an object")
            };
            fields.into_iter().filter(|(k, _)| k != "source").collect()
        };
        assert_eq!(point(&cold, 0), point(&hot, 0));
        assert_eq!(point(&cold, 1), point(&hot, 1));
    }

    #[test]
    fn concurrent_identical_requests_compute_exactly_once() {
        let service = Arc::new(SweepService::new(None, 1).expect("service"));
        let desc = |rate| {
            let job = smoke_job(&[rate], false);
            job.point_desc(rate)
        };
        const THREADS: usize = 8;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let service = Arc::clone(&service);
                scope.spawn(move || service.point(&desc(0.05)));
            }
        });
        let stats = service.stats();
        assert_eq!(stats.computed, 1, "exactly one simulation ran");
        assert_eq!(
            stats.dedup_joins + stats.mem_hits,
            (THREADS - 1) as u64,
            "everyone else joined the in-flight compute or hit the cache"
        );
        assert_eq!(stats.points, THREADS as u64);
    }

    #[test]
    fn panicked_compute_does_not_wedge_its_key() {
        use std::sync::mpsc;
        use std::time::Duration;
        let service = Arc::new(SweepService::new(None, 1).expect("service"));
        let desc = smoke_job(&[0.05], false).point_desc(0.05);
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            service.cached_point(desc.key(), || panic!("compute failed"))
        }));
        assert!(panicked.is_err(), "the compute's panic reaches its caller");
        // An identical request afterwards must claim the key afresh, not
        // wait forever on the dead leader's claim.
        let (tx, rx) = mpsc::channel();
        let retry = Arc::clone(&service);
        let request = std::thread::spawn(move || tx.send(retry.point(&desc).1));
        let src = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the request after a panicked compute returned");
        request
            .join()
            .expect("request thread")
            .expect("receiver alive");
        assert_eq!(src, "computed");
        assert_eq!(service.stats().computed, 1);
    }

    #[test]
    fn warm_job_forks_once_and_caches_under_warm_keys() {
        let service = SweepService::new(None, 2).expect("service");
        let job = smoke_job(&[0.02, 0.03, 0.045], true);
        let batch = BatchRequest {
            jobs: vec![job.clone()],
        };
        let resp = service.run_batch(&batch);
        let jobs = resp.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(
            jobs[0].get("warm_start").and_then(Json::as_bool),
            Some(true)
        );
        let stats = service.stats();
        assert_eq!(stats.warm_forks, 1, "one checkpoint fork for the group");
        assert_eq!(stats.computed, 3);
        assert_eq!(
            stats.warm_cycles_saved,
            job.spec.warmup * 2,
            "three points share one paid warm-up"
        );
        assert_eq!(
            resp.get("warm_cycles_saved").and_then(Json::as_u64),
            Some(job.spec.warmup * 2)
        );
        // Re-running the warm job is all hits (warm keys are stable)...
        let again = service.run_batch(&batch);
        let cache = again.get("cache").unwrap();
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(1.0));
        assert_eq!(service.stats().warm_forks, 1, "no new fork for a hot job");
        assert_eq!(
            again.get("warm_cycles_saved").and_then(Json::as_u64),
            Some(0)
        );
        // ...forking is deterministic: one worker forks the same bits as
        // two...
        let points = |service: &SweepService| -> Vec<CachedPoint> {
            let served = &mut ServiceStats::default();
            let (points, warm) = service.sweep(&job, job.config(), served);
            assert!(warm);
            points.into_iter().map(|(p, _)| p).collect()
        };
        let solo = SweepService::new(None, 1).expect("service");
        assert_eq!(points(&solo), points(&service));
        // ...and a cold job over the same rates does NOT alias them.
        let cold = BatchRequest {
            jobs: vec![smoke_job(&[0.02, 0.03, 0.045], false)],
        };
        let cold_resp = service.run_batch(&cold);
        assert_eq!(
            cold_resp
                .get("cache")
                .unwrap()
                .get("computed")
                .and_then(Json::as_u64),
            Some(3),
            "cold points are keyed separately from warm points"
        );
    }

    #[test]
    fn engine_job_stops_past_saturation_like_latency_sweep() {
        let rates = [0.1, 0.5, 0.8, 1.2, 1.6, 2.0];
        let mut job = smoke_job(&rates, false);
        job.pattern = chiplet_traffic::TrafficPattern::BitComplement;
        let config = job.config();
        let want = latency_sweep(
            || job.kind.build(job.geom, config, job.profile),
            job.pattern,
            &rates,
            job.packet_len,
            job.spec,
            config.seed,
            1,
        );
        assert!(want.len() < rates.len(), "the rate list saturates");
        let want_rates: Vec<f64> = want.iter().map(|p| p.rate).collect();
        for workers in [1, 2] {
            let service = SweepService::new(None, workers).expect("service");
            let resp = service.run_batch(&BatchRequest {
                jobs: vec![job.clone()],
            });
            let points = resp.get("jobs").unwrap().as_arr().unwrap()[0]
                .get("points")
                .unwrap()
                .as_arr()
                .unwrap();
            let rates: Vec<f64> = points
                .iter()
                .filter_map(|p| p.get("rate")?.as_f64())
                .collect();
            assert_eq!(rates, want_rates, "workers={workers}");
            // The served points are latency_sweep's, bit for bit.
            for p in &want {
                let (hit, src) = service.point(&job.point_desc(p.rate));
                assert_eq!((&hit, src), (p, "memory"), "workers={workers}");
            }
        }
    }

    #[test]
    fn a_batch_counts_only_the_points_it_served() {
        // Two concurrent one-job batches ask for the same point: the
        // leader computes it and the joiner adopts it in flight. Each
        // response's summary counts its own point, not the other's.
        let service = Arc::new(SweepService::new(None, 1).expect("service"));
        let mut job = smoke_job(&[0.05], false);
        job.spec = RunSpec::quick();
        let key = job.point_desc(0.05).key();
        let batch = BatchRequest { jobs: vec![job] };
        let leader = {
            let (service, batch) = (Arc::clone(&service), batch.clone());
            std::thread::spawn(move || service.run_batch(&batch))
        };
        while !service.inflight.lock().unwrap().contains_key(&key) && !leader.is_finished() {
            std::thread::yield_now();
        }
        let joiner = service.run_batch(&batch);
        let leader = leader.join().expect("leader batch");
        let source = |resp: &Json| {
            let job = &resp.get("jobs").unwrap().as_arr().unwrap()[0];
            let point = &job.get("points").unwrap().as_arr().unwrap()[0];
            point
                .get("source")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(source(&leader), "computed");
        assert_eq!(
            source(&joiner),
            "dedup",
            "the second batch joined in flight"
        );
        let summary = |resp: &Json| {
            let cache = resp.get("cache").unwrap();
            ["computed", "dedup_joins", "points"].map(|k| cache.get(k).and_then(Json::as_u64))
        };
        assert_eq!(summary(&leader), [Some(1), Some(0), Some(1)]);
        assert_eq!(summary(&joiner), [Some(0), Some(1), Some(1)]);
    }

    #[test]
    fn analytical_backend_attaches_calibration_error() {
        let service = SweepService::new(None, 1).expect("service");
        let mut job = smoke_job(&[0.02, 0.03], false);
        job.backend = Backend::Analytical;
        let resp = service.run_batch(&BatchRequest { jobs: vec![job] });
        let j = &resp.get("jobs").unwrap().as_arr().unwrap()[0];
        assert_eq!(j.get("backend").and_then(Json::as_str), Some("analytical"));
        let bound = j
            .get("error_bound_pct")
            .and_then(Json::as_f64)
            .expect("calibration error attached");
        assert!(bound > 0.0 && bound < 100.0, "bound {bound}");
        assert!(j.get("points").unwrap().as_arr().unwrap().len() == 2);
        assert_eq!(service.stats().analytical_points, 2);
        assert_eq!(service.stats().computed, 0, "no engine run");
    }

    #[test]
    fn metrics_export_contains_serve_counters() {
        let service = SweepService::new(None, 1).expect("service");
        let batch = BatchRequest {
            jobs: vec![smoke_job(&[0.02], false)],
        };
        service.run_batch(&batch);
        service.run_batch(&batch);
        let prom = service.prometheus();
        assert!(prom.contains("# TYPE serve_points_total counter"));
        assert!(prom.contains("serve_points_total 2"));
        assert!(prom.contains("serve_cache_hits_total{level=\"memory\"} 1"));
        assert!(prom.contains("serve_points_computed_total 1"));
        let jsonl = service.metrics_jsonl();
        assert!(jsonl.contains("\"name\":\"serve_requests_total\""));
    }

    /// Polls `id` until it finishes; fails if it never does.
    fn poll_finished(service: &SweepService, id: u64) -> String {
        for _ in 0..600 {
            match service.job_result(id) {
                Some(Some(body)) => return body,
                Some(None) => std::thread::sleep(std::time::Duration::from_millis(10)),
                None => panic!("submitted job vanished"),
            }
        }
        panic!("async job never finished")
    }

    #[test]
    fn async_job_whose_batch_panics_finishes_with_an_error() {
        let service = Arc::new(SweepService::new(None, 1).expect("service"));
        let id = service.spawn_job(|_| panic!("batch exploded"));
        let body = poll_finished(&service, id);
        let parsed = simkit::json::parse(&body).expect("error body is JSON");
        assert_eq!(parsed.get("state").and_then(Json::as_str), Some("failed"));
        let error = parsed.get("error").and_then(Json::as_str).expect("error");
        assert!(error.contains("batch exploded"), "{error}");
        // The service keeps answering after the panic.
        let next = service.submit(BatchRequest {
            jobs: vec![smoke_job(&[0.02], false)],
        });
        let ok = simkit::json::parse(&poll_finished(&service, next)).expect("JSON");
        assert!(ok.get("jobs").is_some());
    }

    #[test]
    fn job_table_evicts_the_oldest_finished_result_never_a_running_job() {
        let service = Arc::new(SweepService::new(None, 1).expect("service"));
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let running = service.spawn_job(move |_| {
            gate.recv().expect("released");
            Json::from("slow")
        });
        let done: Vec<u64> = (0..=MAX_FINISHED_JOBS)
            .map(|i| {
                let id = service.spawn_job(move |_| Json::from(i as u64));
                poll_finished(&service, id);
                id
            })
            .collect();
        // One result too many: the oldest finished id is gone and polls
        // exactly like an id never issued; the running job stays.
        assert_eq!(service.job_result(done[0]), None);
        assert_eq!(service.job_result(running), Some(None));
        assert!(done[1..].iter().all(|&id| service.job_result(id).is_some()));
        // Finishing the slow job evicts the next-oldest finished one.
        release.send(()).expect("release");
        poll_finished(&service, running);
        assert_eq!(service.job_result(done[1]), None);
        assert!(service.job_result(done[2]).is_some());
    }

    #[test]
    fn async_submit_completes_and_is_pollable() {
        let service = Arc::new(SweepService::new(None, 1).expect("service"));
        let id = service.submit(BatchRequest {
            jobs: vec![smoke_job(&[0.02], false)],
        });
        assert_eq!(service.job_result(999_999), None, "unknown id");
        let body = poll_finished(&service, id);
        let parsed = simkit::json::parse(&body).expect("job result is JSON");
        assert!(parsed.get("jobs").is_some());
    }
}
