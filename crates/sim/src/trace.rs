//! Cycle-attributed structured tracing.
//!
//! This module is the storage and export half of the observability layer:
//! a compact [`TraceEvent`] record, a per-shard accumulation buffer behind
//! the two-state [`Tracer`] enum, and the bounded [`TraceRing`] the engine
//! hub folds per-cycle shard buffers into. The emission sites live in the
//! NoC and core crates; everything here is mechanism.
//!
//! # Zero cost when disabled
//!
//! The hot path holds a [`Tracer`], not an `Option<Box<dyn ...>>`: every
//! emission site calls [`Tracer::emit`], which is `#[inline]` and reduces
//! to a single enum-discriminant check when the tracer is [`Tracer::Off`].
//! No allocation, no virtual dispatch, no captured state — the disabled
//! path is a predictable never-taken branch. Tracing is also purely
//! observational: events are copied out of simulation state, never fed
//! back, so results are bit-identical with tracing on or off (the golden
//! instrumented matrix enforces this).
//!
//! # Deterministic merge order
//!
//! In the sharded engine each shard buffers its own events during a cycle;
//! the leader folds them into the ring in the serial merge window with a
//! **stable** sort by merge key. The key is lane-encoded by
//! [`link_key`]/[`node_key`] so that within one cycle every phase-1 event
//! (link traversal, PHY dispatch, retry) sorts before every phase-2 event
//! (inject and router pipeline stages) — the order the serial engine
//! emits them in. Per `(lane, id)` all events come from the single owning
//! shard and sit in its buffer in program order, which the stable sort
//! preserves for equal keys — the same total order an explicit per-event
//! sequence number would give, without storing one. The merged stream is
//! therefore identical at any thread count.

use crate::codec::{ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use crate::Cycle;
use std::io::{self, Write};

/// What a single trace event describes.
///
/// The discriminant doubles as the deterministic tie-break between event
/// kinds and as the bit index inside a [`TraceFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A packet's head flit entered the network at its source NIC.
    /// `a` = source node, `b` = destination node.
    Inject = 0,
    /// Routing computation produced output-port candidates for a head
    /// flit. `a` = node, `b` = candidate count.
    RouteCompute = 1,
    /// VC allocation granted a head flit an output virtual channel.
    /// `a` = node, `b` = 1 if the grant fell back to the baseline
    /// (escape) subnetwork, else 0.
    VcAlloc = 2,
    /// Switch allocation + traversal: a flit won the crossbar and left
    /// the router. `a` = node, `b` = output port.
    SwitchTraverse = 3,
    /// A packet's tail flit ejected at its destination.
    /// `a` = destination node, `b` = head-flit hop count.
    Eject = 4,
    /// A flit crossed a link (delivered by the medium).
    /// `a` = link id, `b` = 1 for a head flit, else 0.
    Hop = 5,
    /// A hetero-PHY adapter dispatched a flit onto one of its PHYs.
    /// `a` = link id, `b` = PHY lane (0 = parallel, 1 = serial).
    PhyDispatch = 6,
    /// A link-integrity event (corruption, NAK, retransmit, failover,
    /// scripted up/down). `a` = link id, `b` = [`LinkEvent`]
    /// code (see [`link_event_code`]).
    Link = 7,
    /// A scripted fault was applied. `a` = link id (or `u32::MAX` for
    /// all-links targets), `b` = fault code from the fault crate.
    Fault = 8,
    /// The leader waited at a shard barrier. `a` = barrier index
    /// (0 = phase gate B, 1 = phase gate A), `b` = wait in microseconds
    /// (saturating). Wall-clock, hence inherently nondeterministic —
    /// excluded from cross-thread trace comparisons.
    Barrier = 9,
    /// The run changed phase (warm-up → measure → drain).
    /// `a` = phase code (0/1/2), `b` unused.
    Phase = 10,
}

/// Number of distinct [`TraceKind`] discriminants.
pub const TRACE_KINDS: usize = 11;

impl TraceKind {
    /// Stable lower-case name used by exporters and `--trace-filter`.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Inject => "inject",
            TraceKind::RouteCompute => "route_compute",
            TraceKind::VcAlloc => "vc_alloc",
            TraceKind::SwitchTraverse => "switch_traverse",
            TraceKind::Eject => "eject",
            TraceKind::Hop => "hop",
            TraceKind::PhyDispatch => "phy_dispatch",
            TraceKind::Link => "link",
            TraceKind::Fault => "fault",
            TraceKind::Barrier => "barrier",
            TraceKind::Phase => "phase",
        }
    }

    /// All kinds, in discriminant order.
    pub fn all() -> [TraceKind; TRACE_KINDS] {
        [
            TraceKind::Inject,
            TraceKind::RouteCompute,
            TraceKind::VcAlloc,
            TraceKind::SwitchTraverse,
            TraceKind::Eject,
            TraceKind::Hop,
            TraceKind::PhyDispatch,
            TraceKind::Link,
            TraceKind::Fault,
            TraceKind::Barrier,
            TraceKind::Phase,
        ]
    }
}

/// One trace record: what happened, when, and to whom.
///
/// The payload is deliberately three bare integers (`pid`, `a`, `b`)
/// whose meaning depends on [`TraceEvent::kind`] — see the [`TraceKind`]
/// variant docs. Keeping the record `Copy` and pointer-free is what lets
/// the ring and per-shard buffers run allocation-free at steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event occurred in.
    pub cycle: Cycle,
    /// Event kind; gives `pid`/`a`/`b` their meaning.
    pub kind: TraceKind,
    /// Packet id for flit-lifecycle events, `u32::MAX` when not
    /// packet-attributed (link/fault/barrier/phase events).
    pub pid: u32,
    /// First payload field (see [`TraceKind`]).
    pub a: u32,
    /// Second payload field (see [`TraceKind`]).
    pub b: u32,
}

/// Sentinel `pid` for events not attributed to a packet.
pub const NO_PID: u32 = u32::MAX;

/// A set of [`TraceKind`]s to record, as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter(u16);

impl TraceFilter {
    /// Record every kind.
    pub fn all() -> Self {
        TraceFilter((1u16 << TRACE_KINDS) - 1)
    }

    /// Record nothing (useful as a fold identity).
    pub fn none() -> Self {
        TraceFilter(0)
    }

    /// A filter containing exactly `kind`.
    pub fn only(kind: TraceKind) -> Self {
        TraceFilter(1u16 << kind as u8)
    }

    /// Union of two filters.
    pub fn union(self, other: TraceFilter) -> Self {
        TraceFilter(self.0 | other.0)
    }

    /// Whether `kind` should be recorded.
    #[inline]
    pub fn accepts(self, kind: TraceKind) -> bool {
        self.0 & (1u16 << kind as u8) != 0
    }

    /// Parses a `--trace-filter` argument: `all`, a group name
    /// (`flit` = the inject→eject lifecycle, `phy`, `link`, `fault`,
    /// `barrier`, `phase`), a single kind name, or a comma-separated
    /// union of any of those. Returns `None` on an unknown token.
    pub fn parse(s: &str) -> Option<Self> {
        let mut f = TraceFilter::none();
        for tok in s.split(',') {
            let tok = tok.trim();
            let part = match tok {
                "" => continue,
                "all" => TraceFilter::all(),
                "flit" => TraceFilter::only(TraceKind::Inject)
                    .union(TraceFilter::only(TraceKind::RouteCompute))
                    .union(TraceFilter::only(TraceKind::VcAlloc))
                    .union(TraceFilter::only(TraceKind::SwitchTraverse))
                    .union(TraceFilter::only(TraceKind::Eject))
                    .union(TraceFilter::only(TraceKind::Hop)),
                "phy" => TraceFilter::only(TraceKind::PhyDispatch),
                "link" => TraceFilter::only(TraceKind::Link),
                "fault" => {
                    TraceFilter::only(TraceKind::Fault).union(TraceFilter::only(TraceKind::Link))
                }
                "barrier" => TraceFilter::only(TraceKind::Barrier),
                "phase" => TraceFilter::only(TraceKind::Phase),
                name => TraceFilter::only(*TraceKind::all().iter().find(|k| k.name() == name)?),
            };
            f = f.union(part);
        }
        if f == TraceFilter::none() {
            None
        } else {
            Some(f)
        }
    }
}

/// A link-integrity event observed on one directed link.
///
/// Emitted by the fault-injection and retry machinery: wire corruption,
/// go-back-N recovery traffic, and scripted fault transitions. The
/// engine counts them in its collector and traces them as
/// [`TraceKind::Link`] events; the protocol state machines run
/// identically whether anyone listens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkEvent {
    /// A flit was corrupted on the wire (detected by the receiver's CRC).
    Corrupt,
    /// The receiver requested a go-back-N replay (NAK).
    RetryNak,
    /// The transmitter replayed one flit from its replay buffer.
    Retransmit,
    /// The transmitter's retry timeout expired and forced a replay.
    RetryTimeout,
    /// A scripted hard failure took one PHY of a link down.
    PhyDown,
    /// A scripted event restored a previously failed PHY.
    PhyUp,
    /// A scripted hard failure took a whole link down.
    LinkDown,
    /// A scripted event restored a previously downed link.
    LinkUp,
    /// A hetero-PHY adapter shifted traffic onto its surviving PHY.
    Failover,
    /// A scripted lane degrade reduced a link's bandwidth.
    Degrade,
}

/// Stable numeric code for a [`LinkEvent`], carried in the `b` field of
/// [`TraceKind::Link`] events.
pub fn link_event_code(ev: LinkEvent) -> u32 {
    use LinkEvent as E;
    match ev {
        E::Corrupt => 0,
        E::RetryNak => 1,
        E::Retransmit => 2,
        E::RetryTimeout => 3,
        E::PhyDown => 4,
        E::PhyUp => 5,
        E::LinkDown => 6,
        E::LinkUp => 7,
        E::Failover => 8,
        E::Degrade => 9,
    }
}

/// Stable name for a [`link_event_code`] value, used by exporters.
pub fn link_event_name(code: u32) -> &'static str {
    match code {
        0 => "corrupt",
        1 => "retry_nak",
        2 => "retransmit",
        3 => "retry_timeout",
        4 => "phy_down",
        5 => "phy_up",
        6 => "link_down",
        7 => "link_up",
        8 => "failover",
        9 => "degrade",
        _ => "unknown",
    }
}

/// Merge key for an event observed on a link: lane 0, ordered by link id.
///
/// Link-lane events are emitted in phase 1 (credits + media) of the
/// sharded cycle; sorting them below every node-lane key reproduces the
/// serial engine's phase order within a cycle.
#[inline]
pub fn link_key(li: u32) -> u64 {
    li as u64
}

/// Merge key for an event observed at a node: lane 1, ordered by node id.
///
/// Node-lane events (inject and the router pipeline) are emitted in
/// phase 2, after every link-lane event of the same cycle.
#[inline]
pub fn node_key(node: u32) -> u64 {
    (1u64 << 32) | node as u64
}

/// One shard's trace accumulation buffer for the current cycle.
///
/// Events are stored with their merge `key`; the hub **stably** sorts the
/// concatenation of all shard buffers by key before appending to the
/// ring. No per-event sequence number is stored: within one buffer,
/// events appear in emission (program) order, every key belongs to
/// exactly one owning shard, and a stable sort preserves the relative
/// order of equal keys — together that reproduces exactly the
/// `(key, seq)` order an explicit sequence counter would. Keeping the
/// record at 32 bytes (down from 40 with a counter) is a measurable win:
/// the full-trace hot path pushes, copies and sorts every one of these.
/// The buffer is drained with [`Tracer::clear`] every cycle, so its
/// capacity reaches a high-water mark and then stops allocating.
#[derive(Debug)]
pub struct TraceBuf {
    filter: TraceFilter,
    /// `(merge key, event)` pairs for this cycle, in emission order.
    pub events: Vec<(u64, TraceEvent)>,
}

impl TraceBuf {
    /// A new empty buffer recording kinds accepted by `filter`.
    pub fn new(filter: TraceFilter) -> Self {
        TraceBuf {
            filter,
            events: Vec::new(),
        }
    }
}

/// The per-shard tracer: either entirely off (the common case, a single
/// never-taken branch per emission site) or accumulating into a
/// [`TraceBuf`].
#[derive(Debug)]
pub enum Tracer {
    /// Tracing disabled; [`Tracer::emit`] is a no-op.
    Off,
    /// Tracing enabled; events matching the buffer's filter accumulate.
    On(TraceBuf),
}

impl Tracer {
    /// Records one event (if tracing is on and the filter accepts it).
    ///
    /// `key` must come from [`link_key`] or [`node_key`] so the hub's
    /// merge reproduces serial emission order.
    #[inline]
    pub fn emit(&mut self, key: u64, cycle: Cycle, kind: TraceKind, pid: u32, a: u32, b: u32) {
        if let Tracer::On(buf) = self {
            if buf.filter.accepts(kind) {
                buf.events.push((
                    key,
                    TraceEvent {
                        cycle,
                        kind,
                        pid,
                        a,
                        b,
                    },
                ));
            }
        }
    }

    /// Whether tracing is enabled.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Tracer::On(_))
    }

    /// Drops this cycle's events (which also restarts the implicit
    /// sequence numbering). Called by the hub after folding the buffer
    /// into the ring.
    pub fn clear(&mut self) {
        if let Tracer::On(buf) = self {
            buf.events.clear();
        }
    }
}

/// The bounded, hub-owned trace store.
///
/// Holds the most recent `cap` events; older events are evicted and
/// counted in [`TraceRing::dropped`], so a long run keeps the tail of
/// the story (usually the interesting part — the fault window, the
/// drain) at a fixed memory ceiling.
///
/// Storage is a flat circular `Vec` of bare events. Every event the
/// filter accepts is stored exactly once, so the ring's cost is a copy
/// stream whose *destination footprint* is `cap × 32 B`; as long as that
/// stays cache-resident the copy is nearly free, while rings much larger
/// than the last-level working set pay main-memory store bandwidth for
/// every event. (Two alternatives measured worse or no better on the
/// full-firehose perf-gate path: a `VecDeque` ring's per-event
/// `pop_front`/`push_back` pair, and an O(1)-append design that steals
/// whole per-cycle batches — the steal just moves the same cold-memory
/// traffic onto the emission side, because the donor buffers rotate
/// through `cap`-worth of memory instead of staying hot.) While the
/// ring is still filling, events live at `buf[0..len]` in order; once
/// full, `head` marks the oldest slot and the logical order is
/// `buf[head..] ++ buf[..head]`.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    filter: TraceFilter,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped (0 before).
    head: usize,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `cap` events of the kinds in `filter`.
    pub fn new(cap: usize, filter: TraceFilter) -> Self {
        let cap = cap.max(1);
        TraceRing {
            cap,
            filter,
            buf: Vec::with_capacity(cap.min(1 << 16)),
            head: 0,
            dropped: 0,
        }
    }

    /// The ring's kind filter (shared with the per-shard buffers).
    pub fn filter(&self) -> TraceFilter {
        self.filter
    }

    /// Appends one already-filtered event, evicting the oldest if full.
    #[inline]
    fn push_unchecked(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Appends one event, evicting the oldest if the ring is full.
    /// Applies the filter, so hub-side emitters don't have to.
    pub fn push(&mut self, ev: TraceEvent) {
        if !self.filter.accepts(ev.kind) {
            return;
        }
        self.push_unchecked(ev);
    }

    /// Appends a sorted merge batch of **already filtered** events (the
    /// per-shard buffers apply the same filter the ring was armed with),
    /// keyed exactly as the merge scratch holds them. Semantically
    /// identical to pushing each event through [`TraceRing::push`] minus
    /// the filter re-check; the copy runs in contiguous runs so the
    /// inner loops are branch- and bounds-check-free.
    pub fn extend_prefiltered(&mut self, events: &[(u64, TraceEvent)]) {
        let cap = self.cap;
        // Fill phase: append until the ring reaches capacity.
        let mut i = 0;
        while self.buf.len() < cap {
            match events.get(i) {
                Some(&(_, ev)) => {
                    self.buf.push(ev);
                    i += 1;
                }
                None => return,
            }
        }
        let mut rem = &events[i..];
        if rem.is_empty() {
            return;
        }
        self.dropped += rem.len() as u64;
        // A batch longer than the ring would overwrite its own leading
        // events within this call; only the final `cap` survive.
        if rem.len() >= cap {
            rem = &rem[rem.len() - cap..];
            self.head = 0;
            for (slot, &(_, ev)) in self.buf.iter_mut().zip(rem) {
                *slot = ev;
            }
            return;
        }
        // Wrapped phase: overwrite in contiguous runs from `head`.
        let mut head = self.head;
        while !rem.is_empty() {
            let run = (cap - head).min(rem.len());
            for (slot, &(_, ev)) in self.buf[head..head + run].iter_mut().zip(&rem[..run]) {
                *slot = ev;
            }
            head += run;
            if head == cap {
                head = 0;
            }
            rem = &rem[run..];
        }
        self.head = head;
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The raw filter bits, used by the checkpoint codec to verify the
    /// restore target was armed with the same filter.
    pub fn filter_bits(&self) -> u16 {
        self.filter.0
    }

    /// Writes the ring as JSON Lines: one object per event, oldest
    /// first, fields `cycle`/`kind`/`pid`/`a`/`b` (`pid` omitted for
    /// non-packet events).
    pub fn to_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        for ev in self.iter() {
            write!(
                w,
                "{{\"cycle\":{},\"kind\":\"{}\"",
                ev.cycle,
                ev.kind.name()
            )?;
            if ev.pid != NO_PID {
                write!(w, ",\"pid\":{}", ev.pid)?;
            }
            writeln!(w, ",\"a\":{},\"b\":{}}}", ev.a, ev.b)?;
        }
        Ok(())
    }

    /// Writes the ring in Chrome `trace_event` JSON array format,
    /// viewable in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`.
    ///
    /// Cycles map to microsecond timestamps (1 cycle = 1 µs on the
    /// viewer timeline). Flit-lifecycle events render as 1-cycle slices
    /// on a per-packet track (`tid` = packet id); everything else
    /// renders as instant events on a per-kind track.
    pub fn to_chrome_trace(&self, w: &mut dyn Write) -> io::Result<()> {
        write!(w, "[")?;
        let mut first = true;
        for ev in self.iter() {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            let lifecycle = ev.pid != NO_PID;
            if lifecycle {
                write!(
                    w,
                    "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
                     \"pid\":1,\"tid\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
                    ev.kind.name(),
                    ev.cycle,
                    ev.pid,
                    ev.a,
                    ev.b
                )?;
            } else {
                let name: &str = if ev.kind == TraceKind::Link {
                    link_event_name(ev.b)
                } else {
                    ev.kind.name()
                };
                write!(
                    w,
                    "\n{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"g\",\
                     \"pid\":2,\"tid\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
                    name, ev.cycle, ev.kind as u8, ev.a, ev.b
                )?;
            }
        }
        writeln!(w, "\n]")?;
        Ok(())
    }
}

impl SaveState for TraceRing {
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.cap);
        w.put_u16(self.filter.0);
        w.put_u64(self.dropped);
        w.put_usize(self.buf.len());
        for ev in self.iter() {
            w.put_u64(ev.cycle);
            w.put_u8(ev.kind as u8);
            w.put_u32(ev.pid);
            w.put_u32(ev.a);
            w.put_u32(ev.b);
        }
    }
}

impl LoadState for TraceRing {
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        let cap = r.get_usize()?;
        let filter = r.get_u16()?;
        if cap != self.cap || filter != self.filter.0 {
            return Err(CodecError::Mismatch(format!(
                "trace ring armed as cap={} filter={:#x}, checkpoint has cap={cap} \
                 filter={filter:#x}",
                self.cap, self.filter.0
            )));
        }
        self.dropped = r.get_u64()?;
        let n = r.get_usize()?;
        if n > cap {
            return Err(CodecError::Corrupt("trace ring length"));
        }
        self.buf.clear();
        self.head = 0;
        for _ in 0..n {
            let cycle = r.get_u64()?;
            let kind_raw = r.get_u8()?;
            let kind = *TraceKind::all()
                .get(kind_raw as usize)
                .ok_or(CodecError::Corrupt("trace kind"))?;
            let pid = r.get_u32()?;
            let a = r.get_u32()?;
            let b = r.get_u32()?;
            self.buf.push(TraceEvent {
                cycle,
                kind,
                pid,
                a,
                b,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parses_groups_kinds_and_unions() {
        let all = TraceFilter::parse("all").unwrap();
        for k in TraceKind::all() {
            assert!(all.accepts(k));
        }
        let flit = TraceFilter::parse("flit").unwrap();
        assert!(flit.accepts(TraceKind::Inject));
        assert!(flit.accepts(TraceKind::Hop));
        assert!(!flit.accepts(TraceKind::Link));
        let one = TraceFilter::parse("phy_dispatch").unwrap();
        assert!(one.accepts(TraceKind::PhyDispatch));
        assert!(!one.accepts(TraceKind::Inject));
        let union = TraceFilter::parse("flit,fault").unwrap();
        assert!(union.accepts(TraceKind::Eject));
        assert!(union.accepts(TraceKind::Fault));
        assert!(union.accepts(TraceKind::Link));
        assert!(TraceFilter::parse("bogus").is_none());
        assert!(TraceFilter::parse("").is_none());
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::Off;
        t.emit(link_key(0), 1, TraceKind::Hop, NO_PID, 0, 1);
        assert!(!t.is_on());
    }

    #[test]
    fn on_tracer_applies_filter_and_preserves_order() {
        let mut t = Tracer::On(TraceBuf::new(TraceFilter::parse("flit").unwrap()));
        t.emit(node_key(3), 5, TraceKind::Inject, 7, 3, 9);
        t.emit(link_key(1), 5, TraceKind::Link, NO_PID, 1, 0);
        t.emit(node_key(3), 5, TraceKind::Eject, 7, 3, 2);
        let Tracer::On(buf) = &t else { unreachable!() };
        assert_eq!(buf.events.len(), 2);
        assert_eq!(buf.events[0].1.kind, TraceKind::Inject);
        assert_eq!(buf.events[1].1.kind, TraceKind::Eject);
        t.clear();
        let Tracer::On(buf) = &t else { unreachable!() };
        assert!(buf.events.is_empty());
    }

    #[test]
    fn key_lanes_order_links_before_nodes() {
        assert!(link_key(u32::MAX) < node_key(0));
        assert!(node_key(2) < node_key(3));
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = TraceRing::new(2, TraceFilter::all());
        for c in 0..5u64 {
            r.push(TraceEvent {
                cycle: c,
                kind: TraceKind::Hop,
                pid: NO_PID,
                a: 0,
                b: 0,
            });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
    }

    /// Bulk append must be indistinguishable from per-event pushes:
    /// same surviving events, same drop count, in every overflow regime.
    #[test]
    fn bulk_append_matches_per_event_pushes() {
        let ev = |c: u64| TraceEvent {
            cycle: c,
            kind: TraceKind::Hop,
            pid: NO_PID,
            a: 0,
            b: 0,
        };
        // Batches sized to hit: no eviction, partial eviction, and a
        // batch larger than the whole ring.
        for batch_sizes in [vec![2usize, 1], vec![3, 3], vec![9]] {
            let mut pushed = TraceRing::new(4, TraceFilter::all());
            let mut bulk = TraceRing::new(4, TraceFilter::all());
            let mut c = 0u64;
            for n in batch_sizes {
                let mut batch: Vec<(u64, TraceEvent)> = (0..n)
                    .map(|_| {
                        c += 1;
                        (0u64, ev(c))
                    })
                    .collect();
                for &(_, e) in &batch {
                    pushed.push(e);
                }
                bulk.extend_prefiltered(&batch);
                batch.clear();
            }
            assert_eq!(bulk.dropped(), pushed.dropped());
            assert_eq!(bulk.len(), pushed.len());
            let a: Vec<u64> = bulk.iter().map(|e| e.cycle).collect();
            let b: Vec<u64> = pushed.iter().map(|e| e.cycle).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn exporters_emit_valid_shapes() {
        let mut r = TraceRing::new(8, TraceFilter::all());
        r.push(TraceEvent {
            cycle: 10,
            kind: TraceKind::Inject,
            pid: 4,
            a: 0,
            b: 3,
        });
        r.push(TraceEvent {
            cycle: 11,
            kind: TraceKind::Link,
            pid: NO_PID,
            a: 2,
            b: 8,
        });
        let mut jsonl = Vec::new();
        r.to_jsonl(&mut jsonl).unwrap();
        let s = String::from_utf8(jsonl).unwrap();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("\"kind\":\"inject\""));
        assert!(s.lines().nth(1).unwrap().starts_with('{'));
        let mut chrome = Vec::new();
        r.to_chrome_trace(&mut chrome).unwrap();
        let s = String::from_utf8(chrome).unwrap();
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"failover\""));
    }
}
