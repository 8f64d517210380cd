//! Dependency-driven phase-graph workloads.
//!
//! Real accelerator workloads are not open loops: a DNN training step is
//! a DAG of compute and communication *phases* where the all-reduce of
//! layer N's gradients cannot start before the backward pass consumed
//! layer N+1's, and the next iteration's forward pass waits on the
//! weight update. Open-loop traces time-stamp every packet up front and
//! therefore cannot model this feedback — on a slow interface the trace
//! keeps injecting and the queues grow, where the real application would
//! simply stall.
//!
//! [`PhaseGraph`] closes the loop: each [`PhaseSpec`] carries a list of
//! predecessor phases, a compute window, and packet events at *relative*
//! cycles. A phase is **released** only once every predecessor is
//! **complete** — fully injected and every packet's tail flit ejected,
//! as reported back by the engine through [`Workload::observe`] — plus
//! the phase's compute window (the rank-local work between receiving
//! predecessor data and starting to communicate). Packets are stamped
//! with the emitting phase's tag (`index + 1`), which is also how the
//! statistics layer attributes per-phase latency/energy/link-occupancy.
//!
//! Deliveries merge at the end of cycle T and are observed at the top of
//! cycle T+1, so a dependent phase starts *strictly after* its
//! predecessors' last ejection — on a slower interface the whole graph
//! stretches out instead of queueing up, exactly like the application.
//!
//! The module also provides:
//!
//! * [`PhaseGraph::dnn`] — a chiplet-mapped DNN training step (per-layer
//!   forward tensor shuffles, per-layer backward gradient all-reduce as
//!   dependency-chained ring steps or tree rounds, a final
//!   dependency-ordered dissemination barrier), parameterized by
//!   [`DnnSpec`];
//! * a versioned on-disk **phase trace** format
//!   ([`PhaseGraph::to_text`] / [`PhaseGraph::from_text`]): capture a
//!   graph from a live run (release timings ride along as comments) and
//!   replay it bit-identically;
//! * [`PhaseGraph::fingerprint`] — a SHA-256 over the canonical text
//!   (timing comments excluded), the token result caches fold into their
//!   keys so a generated workload and its captured replay share a cache
//!   entry.

use crate::collectives::{
    barrier_round_edges, ceil_log2, control, push_bulk, ring_step_edges, tree_round_edges,
};
use crate::trace::{parse_row, write_row, PacketRequest, ParseTraceError, Workload};
use chiplet_topo::NodeId;
use simkit::codec::{ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use simkit::hash::sha256_hex;
use simkit::{ActiveSet, Cycle};

/// The on-disk phase-trace format header. Version bumps on any change
/// to the line grammar.
pub const PHASE_TRACE_HEADER: &str = "#hetero-phase-trace v1";

/// One phase of a [`PhaseGraph`]: a named unit of communication released
/// after its dependencies complete plus a compute window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Human-readable name (metric labels use the tag, names are for
    /// reports and the trace format). Must not contain whitespace.
    pub name: String,
    /// Indices of phases that must complete before this one is released.
    /// Each must be smaller than this phase's own index (the vector
    /// order is a topological order, which makes cycles unrepresentable).
    pub deps: Vec<usize>,
    /// Rank-local compute cycles between the last dependency completing
    /// and this phase's cycle 0.
    pub compute: Cycle,
    /// Packet events at cycles relative to the phase release. The `tag`
    /// field is ignored; packets are stamped with `index + 1` at
    /// injection.
    pub events: Vec<(Cycle, PacketRequest)>,
}

/// Per-phase runtime state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PhaseRt {
    /// Absolute release cycle, once all dependencies completed.
    released_at: Option<Cycle>,
    /// Next uninjected event.
    cursor: usize,
    /// Fully injected and every packet ejected (empty phases: released
    /// and the compute window elapsed).
    complete: bool,
}

impl PhaseRt {
    const fn fresh() -> Self {
        Self {
            released_at: None,
            cursor: 0,
            complete: false,
        }
    }
}

/// A dependency-driven DAG of communication phases (see the module
/// docs). Implements [`Workload`]; drive it with drain-offers enabled
/// (`RunSpec::with_drain_offers`) so the drain phase keeps polling until
/// the whole graph has injected.
///
/// The per-cycle calls visit only the dependency frontier: each phase
/// counts its incomplete dependencies, a completing phase decrements its
/// dependents' counts, and two bitsets name the phases
/// [`Workload::poll`] and [`Workload::observe`] have work for. All of it
/// is derived from `phases` and `rt` and rebuilt whenever `rt` is
/// replaced, so only `rt` is saved.
#[derive(Debug, Clone)]
pub struct PhaseGraph {
    phases: Vec<PhaseSpec>,
    rt: Vec<PhaseRt>,
    /// Dependents of phase `i`, as
    /// `dependents[dependents_at[i]..dependents_at[i + 1]]` (a phase
    /// listing a dependency twice appears twice).
    dependents_at: Vec<usize>,
    dependents: Vec<usize>,
    /// Incomplete dependencies per phase, counted like `dependents`.
    unmet: Vec<u32>,
    /// Incomplete phases whose dependencies are complete and that still
    /// have to be released, inject, or (with no events) complete.
    to_poll: ActiveSet,
    /// Incomplete phases with events, all injected, waiting on delivery.
    to_observe: ActiveSet,
    /// Phases not yet released and fully injected; [`Workload::done`]
    /// once it reaches zero.
    pending: usize,
}

impl PhaseGraph {
    /// Builds a graph from topologically ordered phase specs.
    ///
    /// # Panics
    ///
    /// Panics if a dependency index is not smaller than its phase's own
    /// index, a name is empty or contains whitespace, or there are more
    /// than `u16::MAX - 1` phases (the tag space).
    pub fn new(phases: Vec<PhaseSpec>) -> Self {
        assert!(
            phases.len() < u16::MAX as usize,
            "phase count exceeds the u16 tag space"
        );
        for (idx, p) in phases.iter().enumerate() {
            assert!(
                !p.name.is_empty() && !p.name.contains(char::is_whitespace),
                "phase {idx}: name must be non-empty and whitespace-free"
            );
            for &d in &p.deps {
                assert!(
                    d < idx,
                    "phase {idx} ({}): dependency {d} is not an earlier phase \
                     (specs must be topologically ordered)",
                    p.name
                );
            }
        }
        let n = phases.len();
        let mut dependents_at = vec![0usize; n + 1];
        for p in &phases {
            for &d in &p.deps {
                dependents_at[d + 1] += 1;
            }
        }
        for i in 0..n {
            dependents_at[i + 1] += dependents_at[i];
        }
        let mut dependents = vec![0usize; dependents_at[n]];
        let mut fill = dependents_at.clone();
        for (idx, p) in phases.iter().enumerate() {
            for &d in &p.deps {
                dependents[fill[d]] = idx;
                fill[d] += 1;
            }
        }
        let mut g = Self {
            phases,
            rt: vec![PhaseRt::fresh(); n],
            dependents_at,
            dependents,
            unmet: vec![0; n],
            to_poll: ActiveSet::new(n),
            to_observe: ActiveSet::new(n),
            pending: 0,
        };
        g.derive();
        g
    }

    /// Rebuilds the frontier from `rt`, which must be consistent (see
    /// [`LoadState`] for the rules).
    fn derive(&mut self) {
        self.to_poll.clear();
        self.to_observe.clear();
        self.pending = 0;
        for (idx, (p, rt)) in self.phases.iter().zip(&self.rt).enumerate() {
            let unmet = p.deps.iter().filter(|&&d| !self.rt[d].complete).count();
            self.unmet[idx] = unmet as u32;
            let injected = rt.cursor == p.events.len();
            if rt.released_at.is_none() || !injected {
                self.pending += 1;
            }
            if rt.complete {
                continue;
            }
            if injected && !p.events.is_empty() {
                self.to_observe.insert(idx);
            } else if unmet == 0 {
                self.to_poll.insert(idx);
            }
        }
    }

    /// Marks phase `idx` complete and moves every dependent whose last
    /// dependency this was onto the poll frontier.
    fn complete(&mut self, idx: usize) {
        self.rt[idx].complete = true;
        for &d in &self.dependents[self.dependents_at[idx]..self.dependents_at[idx + 1]] {
            self.unmet[d] -= 1;
            if self.unmet[d] == 0 {
                self.to_poll.insert(d);
            }
        }
    }

    /// The phase specs, in topological order.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Checks that every event names nodes of a `nodes`-node system.
    ///
    /// # Errors
    ///
    /// Names the first event whose source or destination is out of range.
    pub fn check_nodes(&self, nodes: u32) -> Result<(), String> {
        let reqs = self
            .phases
            .iter()
            .flat_map(|p| p.events.iter().map(|(_, r)| r));
        crate::trace::check_node_range(reqs, nodes)
    }

    /// The tag stamped on phase `idx`'s packets (`idx + 1`; 0 is
    /// reserved for untagged traffic).
    pub fn tag_of(idx: usize) -> u16 {
        (idx + 1) as u16
    }

    /// The absolute cycle phase `idx` was released at, if it has been.
    pub fn released_at(&self, idx: usize) -> Option<Cycle> {
        self.rt[idx].released_at
    }

    /// Whether phase `idx` has completed (all packets ejected).
    pub fn phase_complete(&self, idx: usize) -> bool {
        self.rt[idx].complete
    }

    /// Whether every phase has completed. The lowest incomplete phase,
    /// if any, has only complete dependencies and so sits on one of the
    /// frontiers; both are empty exactly when everything completed.
    pub fn all_complete(&self) -> bool {
        self.to_poll.is_empty() && self.to_observe.is_empty()
    }

    /// Resets the runtime state so the same graph can be replayed.
    pub fn reset(&mut self) {
        for r in &mut self.rt {
            *r = PhaseRt::fresh();
        }
        self.derive();
    }

    /// Scales every phase's compute window by `factor` (the sweep axis
    /// hetero-serve exposes: the same communication DAG under faster or
    /// slower local compute). Uses the same 32.32 fixed-point snap as
    /// [`crate::TraceWorkload::rescaled`], so the mapping is exact and
    /// platform-independent. Returns a fresh (unreleased) graph.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn with_compute_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "compute scale factor must be positive");
        let scale = (factor * (1u64 << 32) as f64).round() as u128;
        for p in &mut self.phases {
            let scaled = (p.compute as u128 * scale + (1u128 << 31)) >> 32;
            p.compute = scaled.min(Cycle::MAX as u128) as Cycle;
        }
        self.reset();
        self
    }

    /// A chiplet-mapped DNN training step over `nodes` (see [`DnnSpec`]).
    ///
    /// Phase structure, in dependency order:
    ///
    /// 1. `fwd<l>` per layer — the activation tensor shuffle: every rank
    ///    sends `fwd_flits` to the rank holding the next layer's shard
    ///    (a ring shift that rotates with the layer index), chained
    ///    layer-by-layer;
    /// 2. `bwd<l>.ar<s>` per layer in *reverse* order — the gradient
    ///    all-reduce, expanded into dependency-chained steps:
    ///    2(N−1) ring steps of `grad_flits / N` chunks
    ///    ([`AllReduceAlgo::Ring`]) or 2⌈log₂N⌉ binomial-tree rounds of
    ///    full `grad_flits` messages ([`AllReduceAlgo::Tree`]) — each
    ///    step released only when the previous step's packets ejected,
    ///    which is what makes the collective *synchronous* instead of a
    ///    time-stamped burst;
    /// 3. `sync<k>` — ⌈log₂N⌉ dissemination-barrier rounds of 1-flit
    ///    high-priority messages, dependency-ordered.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 ranks participate.
    pub fn dnn(spec: &DnnSpec, nodes: &[NodeId]) -> Self {
        let ranks: Vec<NodeId> = match spec.ranks {
            Some(r) => nodes.iter().copied().take(r as usize).collect(),
            None => nodes.to_vec(),
        };
        let n = ranks.len();
        assert!(n >= 2, "a DNN workload needs at least two ranks");
        let mut phases: Vec<PhaseSpec> = Vec::new();
        let mut prev: Option<usize> = None;
        let push = |phases: &mut Vec<PhaseSpec>,
                    prev: &mut Option<usize>,
                    name: String,
                    compute: Cycle,
                    events: Vec<(Cycle, PacketRequest)>| {
            let idx = phases.len();
            phases.push(PhaseSpec {
                name,
                deps: prev.iter().copied().collect(),
                compute,
                events,
            });
            *prev = Some(idx);
        };
        // Forward: per-layer activation shuffle, rotating with the layer.
        for l in 0..spec.layers {
            let shift = (l as usize % (n - 1)) + 1;
            let mut events = Vec::new();
            for i in 0..n {
                push_bulk(
                    &mut events,
                    0,
                    ranks[i],
                    ranks[(i + shift) % n],
                    spec.fwd_flits,
                );
            }
            push(
                &mut phases,
                &mut prev,
                format!("fwd{l}"),
                spec.compute,
                events,
            );
        }
        // Backward: per-layer gradient all-reduce, reverse layer order.
        for l in (0..spec.layers).rev() {
            match spec.all_reduce {
                AllReduceAlgo::Ring => {
                    let chunk = (spec.grad_flits / n as u32).max(1);
                    for step in 0..2 * (n - 1) {
                        let mut events = Vec::new();
                        for (i, j) in ring_step_edges(n) {
                            push_bulk(&mut events, 0, ranks[i], ranks[j], chunk);
                        }
                        // The compute window models the local backward
                        // pass; the steps inside one all-reduce are pure
                        // communication.
                        let compute = if step == 0 { spec.compute } else { 0 };
                        push(
                            &mut phases,
                            &mut prev,
                            format!("bwd{l}.ar{step}"),
                            compute,
                            events,
                        );
                    }
                }
                AllReduceAlgo::Tree => {
                    let rounds = ceil_log2(n);
                    for r in 0..2 * rounds {
                        let (k, broadcast) = if r < rounds {
                            (r, false)
                        } else {
                            (2 * rounds - 1 - r, true)
                        };
                        let mut events = Vec::new();
                        for (i, j) in tree_round_edges(n, k, broadcast) {
                            push_bulk(&mut events, 0, ranks[i], ranks[j], spec.grad_flits);
                        }
                        let compute = if r == 0 { spec.compute } else { 0 };
                        push(
                            &mut phases,
                            &mut prev,
                            format!("bwd{l}.ar{r}"),
                            compute,
                            events,
                        );
                    }
                }
            }
        }
        // Weight-update barrier: dependency-ordered dissemination rounds.
        for k in 0..ceil_log2(n) {
            let events = barrier_round_edges(n, k)
                .into_iter()
                .map(|(i, j)| (0, control(ranks[i], ranks[j])))
                .collect();
            let compute = if k == 0 { spec.compute } else { 0 };
            push(&mut phases, &mut prev, format!("sync{k}"), compute, events);
        }
        Self::new(phases)
    }

    /// Serializes the graph in the canonical phase-trace text format
    /// (version [`PHASE_TRACE_HEADER`]): one `phase` line per phase
    /// followed by its `ev` lines. Deterministic; carries no timing, so
    /// it is also the [`PhaseGraph::fingerprint`] pre-image.
    pub fn to_text(&self) -> String {
        let mut out = String::from(PHASE_TRACE_HEADER);
        out.push('\n');
        for p in &self.phases {
            let deps = p
                .deps
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "phase {} compute={} deps={}\n",
                p.name, p.compute, deps
            ));
            for &(t, r) in &p.events {
                out.push_str("ev ");
                write_row(&mut out, t, &r);
            }
        }
        out
    }

    /// Like [`PhaseGraph::to_text`] with the observed release cycle of
    /// every released phase appended as `#` comments — what
    /// `--capture-trace` writes after a live run. Comments are ignored
    /// by [`PhaseGraph::from_text`] and excluded from the fingerprint,
    /// so a captured trace replays onto the *same* cache key as the
    /// generated workload it was captured from.
    pub fn to_text_with_timing(&self) -> String {
        let mut out = self.to_text();
        for (idx, rt) in self.rt.iter().enumerate() {
            if let Some(at) = rt.released_at {
                out.push_str(&format!(
                    "# released {} {} at cycle {at}\n",
                    idx, self.phases[idx].name
                ));
            }
        }
        out
    }

    /// Parses the phase-trace text format. Comment lines (`#`, beyond
    /// the mandatory version header) and blank lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] naming the offending line for a
    /// missing/unsupported header, a malformed `phase`/`ev` line, a
    /// self-addressed `ev`, an `ev` before any `phase`, or a dependency
    /// index that is not an earlier phase. Node ids are checked against
    /// a system separately, by [`PhaseGraph::check_nodes`].
    pub fn from_text(s: &str) -> Result<Self, ParseTraceError> {
        let mut phases: Vec<PhaseSpec> = Vec::new();
        let mut saw_header = false;
        for (lineno, raw) in s.lines().enumerate() {
            let line = raw.trim();
            let err = |what: String| ParseTraceError {
                line: lineno + 1,
                reason: what,
            };
            if !saw_header {
                if line.is_empty() {
                    continue;
                }
                if line != PHASE_TRACE_HEADER {
                    return Err(err(format!(
                        "expected header '{PHASE_TRACE_HEADER}', found '{line}'"
                    )));
                }
                saw_header = true;
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("phase ") {
                let mut f = rest.split_whitespace();
                let name = f.next().ok_or_else(|| err("missing phase name".into()))?;
                let compute = f
                    .next()
                    .and_then(|s| s.strip_prefix("compute="))
                    .and_then(|s| s.parse::<Cycle>().ok())
                    .ok_or_else(|| err("bad compute= field".into()))?;
                let deps_str = f
                    .next()
                    .and_then(|s| s.strip_prefix("deps="))
                    .ok_or_else(|| err("bad deps= field".into()))?;
                let mut deps = Vec::new();
                for d in deps_str.split(',').filter(|d| !d.is_empty()) {
                    let d: usize = d.parse().map_err(|_| err("bad dependency index".into()))?;
                    if d >= phases.len() {
                        return Err(err(format!(
                            "dependency {d} is not an earlier phase (this is phase {})",
                            phases.len()
                        )));
                    }
                    deps.push(d);
                }
                if f.next().is_some() {
                    return Err(err("trailing fields on phase line".into()));
                }
                phases.push(PhaseSpec {
                    name: name.to_string(),
                    deps,
                    compute,
                    events: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("ev ") {
                let p = phases
                    .last_mut()
                    .ok_or_else(|| err("ev line before any phase line".into()))?;
                let ev = parse_row(rest).map_err(|e| err(format!("bad ev line: {e}")))?;
                p.events.push(ev);
            } else {
                return Err(err(format!("unrecognized line '{line}'")));
            }
        }
        if !saw_header {
            return Err(ParseTraceError {
                line: 1,
                reason: format!("empty input: expected header '{PHASE_TRACE_HEADER}'"),
            });
        }
        Ok(Self::new(phases))
    }

    /// Reads a workload description for a `nodes`-node system: either
    /// `dnn:<spec>` (or a bare `dnn`), which generates [`PhaseGraph::dnn`]
    /// over every node, or phase-trace text starting with
    /// [`PHASE_TRACE_HEADER`], whose node ids are checked against the
    /// system.
    ///
    /// # Errors
    ///
    /// Names what is wrong: an unknown family, a bad DNN spec, fewer than
    /// two ranks, a malformed trace or an out-of-range node.
    pub fn parse_workload(text: &str, nodes: u32) -> Result<Self, String> {
        if let Some(rest) = text.strip_prefix("dnn:").or((text == "dnn").then_some("")) {
            let spec = DnnSpec::parse(rest).map_err(|e| format!("bad dnn workload: {e}"))?;
            if nodes < 2 {
                return Err("bad dnn workload: it needs at least two ranks".into());
            }
            let nodes: Vec<NodeId> = (0..nodes).map(NodeId).collect();
            Ok(Self::dnn(&spec, &nodes))
        } else if text.starts_with("#hetero-phase-trace") {
            let graph = Self::from_text(text).map_err(|e| format!("bad phase trace: {e}"))?;
            graph
                .check_nodes(nodes)
                .map_err(|e| format!("bad phase trace: {e}"))?;
            Ok(graph)
        } else {
            Err("workload must be dnn:<spec> or #hetero-phase-trace text".into())
        }
    }

    /// Writes the phase trace (with timing comments, when the graph has
    /// run) to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text_with_timing())
    }

    /// Reads a phase trace from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files and a parse error
    /// (wrapped as `InvalidData`) for malformed content.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_text(&s)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// SHA-256 (hex) of the canonical phase-trace text. Two graphs with
    /// the same structure — whether generated or replayed from a capture
    /// — share a fingerprint; anything that changes the traffic (an
    /// event, a dependency, a compute window) changes it. Result caches
    /// fold this into their point keys.
    pub fn fingerprint(&self) -> String {
        sha256_hex(self.to_text().as_bytes())
    }
}

impl Workload for PhaseGraph {
    fn observe(&mut self, _now: Cycle, delivered_by_tag: &[u64]) {
        let mut from = 0;
        while let Some(idx) = self.to_observe.next_from(from) {
            from = idx + 1;
            let expected = self.phases[idx].events.len() as u64;
            let tag = Self::tag_of(idx) as usize;
            let delivered = delivered_by_tag.get(tag).copied().unwrap_or(0);
            debug_assert!(delivered <= expected);
            if delivered == expected {
                self.to_observe.remove(idx);
                self.complete(idx);
            }
        }
    }

    fn poll(&mut self, now: Cycle, out: &mut Vec<PacketRequest>) {
        // Ascending index order, re-reading the frontier each step: deps
        // always point backwards, so a chain of zero-cost phases (empty
        // events, zero compute) cascades within a single poll instead of
        // costing a cycle per link.
        let mut from = 0;
        while let Some(idx) = self.to_poll.next_from(from) {
            from = idx + 1;
            let p = &self.phases[idx];
            let rt = &mut self.rt[idx];
            let at = match rt.released_at {
                Some(at) => at,
                None => {
                    let at = now + p.compute;
                    rt.released_at = Some(at);
                    if p.events.is_empty() {
                        self.pending -= 1;
                    }
                    at
                }
            };
            if now < at {
                continue;
            }
            let tag = Self::tag_of(idx);
            while let Some(&(rel, req)) = p.events.get(rt.cursor) {
                if at + rel > now {
                    break;
                }
                out.push(req.with_tag(tag));
                rt.cursor += 1;
            }
            if p.events.is_empty() {
                self.to_poll.remove(idx);
                self.complete(idx);
            } else if rt.cursor == p.events.len() {
                self.pending -= 1;
                self.to_poll.remove(idx);
                self.to_observe.insert(idx);
            }
        }
    }

    fn done(&self) -> bool {
        // "Nothing further to offer" for the drain loop: every phase has
        // been released and fully injected. Completion of the *last*
        // phases still needs their packets to eject, which the drain
        // loop's live-packet check covers.
        self.pending == 0
    }
}

impl SaveState for PhaseGraph {
    /// Runtime cursors only — the phase structure is configuration the
    /// resuming run rebuilds from the same spec/trace (mirroring
    /// [`crate::SyntheticWorkload`]'s RNG-only snapshot).
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.rt.len());
        for rt in &self.rt {
            w.put_bool(rt.complete);
            match rt.released_at {
                Some(at) => {
                    w.put_bool(true);
                    w.put_u64(at);
                }
                None => w.put_bool(false),
            }
            w.put_usize(rt.cursor);
        }
    }
}

impl LoadState for PhaseGraph {
    /// Overlays saved runtime state, which must be one a run can reach:
    /// every cursor within its phase's events, nothing injected before
    /// release, completion only after release and full injection, and no
    /// release before every dependency completed. Anything else is
    /// [`CodecError::Corrupt`] and leaves the graph unchanged.
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        let n = r.get_usize()?;
        if n != self.rt.len() {
            return Err(CodecError::Mismatch(format!(
                "saved workload has {n} phases, this graph has {}",
                self.rt.len()
            )));
        }
        let mut rts = Vec::with_capacity(n);
        for _ in 0..n {
            let complete = r.get_bool()?;
            let released_at = if r.get_bool()? {
                Some(r.get_u64()?)
            } else {
                None
            };
            let cursor = r.get_usize()?;
            rts.push(PhaseRt {
                released_at,
                cursor,
                complete,
            });
        }
        for (p, rt) in self.phases.iter().zip(&rts) {
            if rt.cursor > p.events.len() {
                return Err(CodecError::Corrupt("phase event cursor past its events"));
            }
            if rt.released_at.is_none() && rt.cursor > 0 {
                return Err(CodecError::Corrupt("unreleased phase has injected events"));
            }
            if rt.complete && (rt.released_at.is_none() || rt.cursor < p.events.len()) {
                return Err(CodecError::Corrupt(
                    "phase complete before it fully injected",
                ));
            }
            if rt.released_at.is_some() && p.deps.iter().any(|&d| !rts[d].complete) {
                return Err(CodecError::Corrupt(
                    "phase released before its dependencies completed",
                ));
            }
        }
        self.rt = rts;
        self.derive();
        Ok(())
    }
}

/// Which all-reduce algorithm [`PhaseGraph::dnn`] expands the per-layer
/// gradient reduction into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllReduceAlgo {
    /// Bandwidth-optimal 2(N−1)-step ring of `grad/N` chunks.
    Ring,
    /// Latency-optimal 2⌈log₂N⌉-round binomial tree of full messages.
    Tree,
}

/// Parameters of the [`PhaseGraph::dnn`] generator, parsed from the CLI
/// spec string `dnn:key=value,...`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnnSpec {
    /// Model layers (default 2).
    pub layers: u32,
    /// Activation flits each rank shuffles forward per layer (default 64).
    pub fwd_flits: u32,
    /// Gradient flits per rank per layer (default 256).
    pub grad_flits: u32,
    /// All-reduce expansion (default ring).
    pub all_reduce: AllReduceAlgo,
    /// Compute window in cycles between dependent phases (default 32).
    pub compute: Cycle,
    /// Participating ranks: the first `ranks` nodes of the network
    /// (default: every node).
    pub ranks: Option<u32>,
}

impl Default for DnnSpec {
    fn default() -> Self {
        Self {
            layers: 2,
            fwd_flits: 64,
            grad_flits: 256,
            all_reduce: AllReduceAlgo::Ring,
            compute: 32,
            ranks: None,
        }
    }
}

impl DnnSpec {
    /// Parses `key=value` pairs separated by commas: `layers`, `fwd`,
    /// `grad`, `allreduce` (`ring`|`tree`), `compute`, `ranks`. An empty
    /// string yields the defaults.
    ///
    /// # Errors
    ///
    /// A description of the first bad pair.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = Self::default();
        for pair in s.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, found '{pair}'"))?;
            let num = |v: &str| -> Result<u32, String> {
                v.parse().map_err(|_| format!("bad value for {k}: '{v}'"))
            };
            match k {
                "layers" => {
                    spec.layers = num(v)?;
                    if spec.layers == 0 {
                        return Err("layers must be at least 1".into());
                    }
                }
                "fwd" => spec.fwd_flits = num(v)?.max(1),
                "grad" => spec.grad_flits = num(v)?.max(1),
                "allreduce" => {
                    spec.all_reduce = match v {
                        "ring" => AllReduceAlgo::Ring,
                        "tree" => AllReduceAlgo::Tree,
                        _ => return Err(format!("bad allreduce '{v}' (ring|tree)")),
                    }
                }
                "compute" => spec.compute = num(v)? as Cycle,
                "ranks" => {
                    let r = num(v)?;
                    if r < 2 {
                        return Err("ranks must be at least 2".into());
                    }
                    spec.ranks = Some(r);
                }
                _ => return Err(format!("unknown dnn spec key '{k}'")),
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_noc::Priority;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn two_phase_chain() -> PhaseGraph {
        PhaseGraph::new(vec![
            PhaseSpec {
                name: "a".into(),
                deps: vec![],
                compute: 0,
                events: vec![(0, PacketRequest::new(NodeId(0), NodeId(1), 4))],
            },
            PhaseSpec {
                name: "b".into(),
                deps: vec![0],
                compute: 5,
                events: vec![(0, PacketRequest::new(NodeId(1), NodeId(0), 4))],
            },
        ])
    }

    #[test]
    fn successor_waits_for_delivery_plus_compute() {
        let mut g = two_phase_chain();
        let mut out = Vec::new();
        g.poll(0, &mut out);
        assert_eq!(out.len(), 1, "root phase injects immediately");
        assert_eq!(out[0].tag, 1);
        out.clear();
        // No deliveries observed: phase b stays unreleased.
        for now in 1..10 {
            g.observe(now, &[0, 0]);
            g.poll(now, &mut out);
        }
        assert!(out.is_empty(), "b must not inject before a ejects");
        assert!(!g.done());
        // Phase a's packet ejects; observed at cycle 10.
        g.observe(10, &[0, 1]);
        assert!(g.phase_complete(0));
        g.poll(10, &mut out);
        assert!(out.is_empty(), "compute window delays b");
        assert_eq!(g.released_at(1), Some(15));
        for now in 11..=15 {
            g.observe(now, &[0, 1]);
            g.poll(now, &mut out);
        }
        assert_eq!(out.len(), 1, "b injects at release + 0");
        assert_eq!(out[0].tag, 2);
        assert!(g.done());
    }

    #[test]
    fn zero_cost_phase_chains_cascade_in_one_poll() {
        let mut g = PhaseGraph::new(vec![
            PhaseSpec {
                name: "sync0".into(),
                deps: vec![],
                compute: 0,
                events: vec![],
            },
            PhaseSpec {
                name: "sync1".into(),
                deps: vec![0],
                compute: 0,
                events: vec![(0, PacketRequest::new(NodeId(0), NodeId(1), 1))],
            },
        ]);
        let mut out = Vec::new();
        g.poll(7, &mut out);
        assert_eq!(
            out.len(),
            1,
            "empty phase completes and releases its successor"
        );
        assert_eq!(out[0].tag, 2);
    }

    #[test]
    fn diamond_dependencies_wait_for_both_parents() {
        let leg = |src: u32, dst: u32| vec![(0, PacketRequest::new(NodeId(src), NodeId(dst), 1))];
        let mut g = PhaseGraph::new(vec![
            PhaseSpec {
                name: "root".into(),
                deps: vec![],
                compute: 0,
                events: leg(0, 1),
            },
            PhaseSpec {
                name: "left".into(),
                deps: vec![0],
                compute: 0,
                events: leg(1, 2),
            },
            PhaseSpec {
                name: "right".into(),
                deps: vec![0],
                compute: 0,
                events: leg(1, 3),
            },
            PhaseSpec {
                name: "join".into(),
                deps: vec![1, 2],
                compute: 0,
                events: leg(2, 0),
            },
        ]);
        let mut out = Vec::new();
        g.poll(0, &mut out);
        out.clear();
        g.observe(1, &[0, 1]); // root ejected
        g.poll(1, &mut out);
        assert_eq!(out.len(), 2, "both legs release together");
        out.clear();
        g.observe(2, &[0, 1, 1, 0]); // only left ejected
        g.poll(2, &mut out);
        assert!(out.is_empty(), "join waits for the right leg");
        g.observe(3, &[0, 1, 1, 1]);
        g.poll(3, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, 4);
    }

    #[test]
    #[should_panic(expected = "not an earlier phase")]
    fn forward_dependency_is_rejected() {
        PhaseGraph::new(vec![PhaseSpec {
            name: "a".into(),
            deps: vec![0],
            compute: 0,
            events: vec![],
        }]);
    }

    #[test]
    fn dnn_ring_phase_structure() {
        let spec = DnnSpec::parse("layers=2,ranks=4,grad=64,allreduce=ring").unwrap();
        let g = PhaseGraph::dnn(&spec, &nodes(8));
        // 2 fwd + 2 layers * 2*(4-1) ring steps + ceil(log2 4) sync.
        assert_eq!(g.phases().len(), 2 + 2 * 6 + 2);
        // Every non-root phase depends on exactly the previous phase.
        for (idx, p) in g.phases().iter().enumerate() {
            if idx == 0 {
                assert!(p.deps.is_empty());
            } else {
                assert_eq!(p.deps, vec![idx - 1]);
            }
        }
        // Ring steps move grad/n = 16 flits per rank per step.
        let ar = &g.phases()[2];
        assert!(ar.name.starts_with("bwd1.ar"));
        let per_rank: u64 = ar
            .events
            .iter()
            .filter(|(_, r)| r.src == NodeId(0))
            .map(|(_, r)| r.len as u64)
            .sum();
        assert_eq!(per_rank, 16);
        // Sync rounds are 1-flit high-priority control messages.
        let sync = g.phases().last().unwrap();
        assert!(sync.name.starts_with("sync"));
        for (_, r) in &sync.events {
            assert_eq!(r.len, 1);
            assert_eq!(r.priority, Priority::High);
        }
    }

    #[test]
    fn dnn_tree_uses_log_rounds() {
        let spec = DnnSpec::parse("layers=1,ranks=8,allreduce=tree,grad=16").unwrap();
        let g = PhaseGraph::dnn(&spec, &nodes(8));
        // 1 fwd + 2*log2(8) tree rounds + log2(8) sync.
        assert_eq!(g.phases().len(), 1 + 6 + 3);
        // Reduce round 0: 4 edges; final broadcast round mirrors it.
        assert_eq!(g.phases()[1].events.len(), 4);
        assert_eq!(g.phases()[6].events.len(), 4);
    }

    #[test]
    fn text_round_trip_and_fingerprint_stability() {
        let spec = DnnSpec::parse("layers=1,ranks=4").unwrap();
        let g = PhaseGraph::dnn(&spec, &nodes(4));
        let text = g.to_text();
        assert!(text.starts_with(PHASE_TRACE_HEADER));
        let back = PhaseGraph::from_text(&text).unwrap();
        assert_eq!(g.phases(), back.phases());
        assert_eq!(g.fingerprint(), back.fingerprint());
        // Timing comments do not perturb parsing or the fingerprint.
        let mut ran = g.clone();
        let mut out = Vec::new();
        ran.poll(0, &mut out);
        let captured = ran.to_text_with_timing();
        assert!(captured.contains("# released"));
        let replay = PhaseGraph::from_text(&captured).unwrap();
        assert_eq!(replay.fingerprint(), g.fingerprint());
        // Any structural change moves the fingerprint.
        let scaled = g.clone().with_compute_scale(2.0);
        assert_ne!(scaled.fingerprint(), g.fingerprint());
    }

    #[test]
    fn text_rejects_malformed_input() {
        for (bad, what) in [
            ("phase a compute=1 deps=", "expected header"),
            (
                &format!("{PHASE_TRACE_HEADER}\nev 0,0,1,1,inorder,normal\n"),
                "ev line before any phase",
            ),
            (
                &format!("{PHASE_TRACE_HEADER}\nphase a compute=1 deps=1\n"),
                "not an earlier phase",
            ),
            (
                &format!("{PHASE_TRACE_HEADER}\nphase a compute=x deps=\n"),
                "bad compute",
            ),
            (
                &format!("{PHASE_TRACE_HEADER}\nphase a compute=1 deps=\nev 0,0,1\n"),
                "expected 6",
            ),
            (
                &format!(
                    "{PHASE_TRACE_HEADER}\nphase a compute=1 deps=\nev 0,3,3,16,unordered,normal\n"
                ),
                "self-addressed",
            ),
            ("", "empty input"),
        ] {
            let e = PhaseGraph::from_text(bad).unwrap_err();
            assert!(e.reason.contains(what), "'{bad}' -> {e}");
        }
    }

    #[test]
    fn node_range_check_covers_every_phase() {
        let g = PhaseGraph::from_text(&format!(
            "{PHASE_TRACE_HEADER}\nphase a compute=1 deps=\nev 0,0,1,4,inorder,normal\n\
             phase b compute=1 deps=0\nev 0,0,99,4,inorder,normal\n"
        ))
        .unwrap();
        assert_eq!(g.check_nodes(100), Ok(()));
        let e = g.check_nodes(16).unwrap_err();
        assert!(e.contains("0 -> 99"), "{e}");
    }

    #[test]
    fn save_load_state_round_trip() {
        let mut g = two_phase_chain();
        let mut out = Vec::new();
        g.poll(0, &mut out);
        g.observe(4, &[0, 1]);
        g.poll(4, &mut out);
        let mut w = ByteWriter::new();
        g.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = two_phase_chain();
        fresh.load_state(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(fresh.released_at(0), g.released_at(0));
        assert_eq!(fresh.released_at(1), g.released_at(1));
        assert_eq!(fresh.phase_complete(0), g.phase_complete(0));
        assert_eq!(fresh.done(), g.done());
    }

    #[test]
    fn restoring_an_earlier_state_rewinds_past_completed_phases() {
        let mut g = two_phase_chain();
        let mut w = ByteWriter::new();
        g.save_state(&mut w);
        let start = w.into_bytes();
        // Run the chain to completion.
        let mut out = Vec::new();
        g.poll(0, &mut out);
        g.observe(4, &[0, 1]);
        for now in 4..=9 {
            g.poll(now, &mut out);
        }
        g.observe(12, &[0, 1, 1]);
        assert!(g.all_complete());
        // Loading the start state must make phase 0 live again.
        g.load_state(&mut ByteReader::new(&start)).unwrap();
        out.clear();
        g.poll(0, &mut out);
        assert_eq!(out.len(), 1, "phase 0 injects again");
        assert_eq!(out[0].tag, 1);
        // And `reset` rewinds the same way.
        g.observe(4, &[0, 1]);
        g.poll(4, &mut out);
        g.reset();
        out.clear();
        g.poll(0, &mut out);
        assert_eq!(out.len(), 1, "phase 0 injects after reset");
    }

    /// The scan scheduler the frontier replaced, kept as the reference:
    /// every call visits every phase.
    struct ScanGraph {
        phases: Vec<PhaseSpec>,
        rt: Vec<PhaseRt>,
    }

    impl ScanGraph {
        fn observe(&mut self, delivered_by_tag: &[u64]) {
            for (idx, rt) in self.rt.iter_mut().enumerate() {
                let p = &self.phases[idx];
                if rt.complete || p.events.is_empty() || rt.cursor < p.events.len() {
                    continue;
                }
                let tag = PhaseGraph::tag_of(idx) as usize;
                if delivered_by_tag.get(tag).copied().unwrap_or(0) == p.events.len() as u64 {
                    rt.complete = true;
                }
            }
        }

        fn poll(&mut self, now: Cycle, out: &mut Vec<PacketRequest>) {
            for idx in 0..self.phases.len() {
                if self.rt[idx].complete {
                    continue;
                }
                if self.rt[idx].released_at.is_none()
                    && self.phases[idx].deps.iter().all(|&d| self.rt[d].complete)
                {
                    self.rt[idx].released_at = Some(now + self.phases[idx].compute);
                }
                let Some(at) = self.rt[idx].released_at else {
                    continue;
                };
                if now < at {
                    continue;
                }
                let p = &self.phases[idx];
                let rt = &mut self.rt[idx];
                while let Some(&(rel, req)) = p.events.get(rt.cursor) {
                    if at + rel > now {
                        break;
                    }
                    out.push(req.with_tag(PhaseGraph::tag_of(idx)));
                    rt.cursor += 1;
                }
                if p.events.is_empty() {
                    rt.complete = true;
                }
            }
        }

        fn done(&self) -> bool {
            self.rt
                .iter()
                .zip(&self.phases)
                .all(|(rt, p)| rt.released_at.is_some() && rt.cursor == p.events.len())
        }

        fn all_complete(&self) -> bool {
            self.rt.iter().all(|r| r.complete)
        }
    }

    /// A random topologically ordered DAG: 0–3 dependencies per phase
    /// (repeats allowed, as the trace format allows them), empty phases
    /// and zero compute windows common enough that releases cascade
    /// within one poll.
    fn random_specs(rng: &mut simkit::SimRng) -> Vec<PhaseSpec> {
        let n = 1 + rng.index(12);
        (0..n)
            .map(|idx| {
                let ndeps = if idx == 0 { 0 } else { rng.index(4) };
                let deps = (0..ndeps).map(|_| rng.index(idx)).collect();
                let compute = if rng.chance(0.5) { 0 } else { rng.below(4) };
                let mut events: Vec<(Cycle, PacketRequest)> = (0..rng.index(4))
                    .map(|_| {
                        let src = rng.index(4) as u32;
                        let dst = (src + 1 + rng.index(3) as u32) % 4;
                        let len = 1 + rng.index(3) as u16;
                        (
                            rng.below(4),
                            PacketRequest::new(NodeId(src), NodeId(dst), len),
                        )
                    })
                    .collect();
                events.sort_by_key(|&(t, _)| t);
                PhaseSpec {
                    name: format!("p{idx}"),
                    deps,
                    compute,
                    events,
                }
            })
            .collect()
    }

    #[test]
    fn frontier_matches_the_scan_scheduler_on_random_dags() {
        let mut rng = simkit::SimRng::seed(0xF40_7713);
        for case in 0..400 {
            let specs = random_specs(&mut rng);
            let mut reference = ScanGraph {
                phases: specs.clone(),
                rt: vec![PhaseRt::fresh(); specs.len()],
            };
            let mut g = PhaseGraph::new(specs.clone());
            // Cumulative deliveries per tag, fed by a random-latency
            // network: every emitted packet ejects 1–5 cycles later.
            let mut delivered = vec![0u64; specs.len() + 1];
            let mut in_flight: Vec<(Cycle, usize)> = Vec::new();
            let restore_at = rng.below(30);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for now in 0..400 {
                if now == restore_at {
                    let mut w = ByteWriter::new();
                    g.save_state(&mut w);
                    g = PhaseGraph::new(specs.clone());
                    g.load_state(&mut ByteReader::new(&w.into_bytes())).unwrap();
                }
                g.observe(now, &delivered);
                reference.observe(&delivered);
                got.clear();
                want.clear();
                g.poll(now, &mut got);
                reference.poll(now, &mut want);
                let ctx = format!("case {case} cycle {now}");
                assert_eq!(got, want, "{ctx}: requests");
                assert_eq!(g.rt, reference.rt, "{ctx}: runtime state");
                assert_eq!(g.done(), reference.done(), "{ctx}: done");
                assert_eq!(
                    g.all_complete(),
                    reference.all_complete(),
                    "{ctx}: all_complete"
                );
                for r in &got {
                    in_flight.push((now + 1 + rng.below(5), r.tag as usize));
                }
                in_flight.retain(|&(at, tag)| {
                    if at == now {
                        delivered[tag] += 1;
                    }
                    at > now
                });
                if reference.all_complete() {
                    break;
                }
            }
            assert!(
                reference.all_complete(),
                "case {case} must run to completion"
            );
        }
    }

    /// Saves `g`'s state with phase `idx`'s runtime fields replaced.
    fn edited_blob(g: &PhaseGraph, idx: usize, edit: impl FnOnce(&mut PhaseRt)) -> Vec<u8> {
        let mut edited = g.clone();
        edit(&mut edited.rt[idx]);
        let mut w = ByteWriter::new();
        edited.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn load_state_rejects_states_no_run_reaches() {
        // Phase 0 has released and injected its one event; phase 1 waits.
        let mut g = two_phase_chain();
        g.poll(0, &mut Vec::new());
        for (what, blob) in [
            (
                "cursor past the events",
                edited_blob(&g, 0, |rt| rt.cursor = 2),
            ),
            (
                "events injected before release",
                edited_blob(&g, 1, |rt| rt.cursor = 1),
            ),
            (
                "complete before fully injected",
                edited_blob(&g, 1, |rt| rt.complete = true),
            ),
            (
                "released on an incomplete dependency",
                edited_blob(&g, 1, |rt| rt.released_at = Some(3)),
            ),
        ] {
            let mut target = two_phase_chain();
            let e = target
                .load_state(&mut ByteReader::new(&blob))
                .expect_err(what);
            assert!(matches!(e, CodecError::Corrupt(_)), "{what}: {e:?}");
            assert_eq!(target.released_at(0), None, "{what}: graph left unchanged");
        }
        // The unedited state still loads.
        let blob = edited_blob(&g, 0, |_| {});
        let mut target = two_phase_chain();
        target.load_state(&mut ByteReader::new(&blob)).unwrap();
        assert!(target.done() == g.done() && target.released_at(0) == Some(0));
    }

    #[test]
    fn compute_scale_is_exact_and_resets_runtime() {
        let mut g = two_phase_chain();
        let mut out = Vec::new();
        g.poll(0, &mut out);
        let g2 = g.with_compute_scale(2.0);
        assert_eq!(g2.phases()[1].compute, 10);
        assert_eq!(g2.released_at(0), None, "scaling resets the runtime");
    }

    #[test]
    fn dnn_spec_parse_errors() {
        assert!(DnnSpec::parse("").is_ok());
        assert!(DnnSpec::parse("layers=3,allreduce=tree,compute=10").is_ok());
        for bad in [
            "layers=0",
            "ranks=1",
            "allreduce=mesh",
            "layers",
            "speed=9",
            "layers=x",
        ] {
            assert!(DnnSpec::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn parse_workload_reads_both_families_and_names_the_problem() {
        let spec = DnnSpec::parse("ranks=4,layers=1").unwrap();
        let generated = PhaseGraph::parse_workload("dnn:ranks=4,layers=1", 16).unwrap();
        assert_eq!(
            generated.fingerprint(),
            PhaseGraph::dnn(&spec, &nodes(16)).fingerprint()
        );
        let bare = PhaseGraph::parse_workload("dnn", 16).unwrap();
        assert_eq!(
            bare.fingerprint(),
            PhaseGraph::dnn(&DnnSpec::default(), &nodes(16)).fingerprint()
        );
        let replayed = PhaseGraph::parse_workload(&generated.to_text(), 16).unwrap();
        assert_eq!(replayed.fingerprint(), generated.fingerprint());
        for (text, nodes, needle) in [
            ("dnn:layers=0", 16, "dnn"),
            ("dnn:", 1, "two ranks"),
            ("mystery", 16, "workload"),
            ("#hetero-phase-trace v2\n", 16, "phase trace"),
            (
                "#hetero-phase-trace v1\nphase a compute=0 deps=\nev 0,0,99,16,unordered,normal\n",
                16,
                "16-node",
            ),
        ] {
            let e = PhaseGraph::parse_workload(text, nodes).expect_err(text);
            assert!(
                e.contains(needle),
                "{e:?} for {text:?} should mention {needle:?}"
            );
        }
    }
}
