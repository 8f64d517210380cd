//! The workload interface and replayable trace container.

use chiplet_noc::{OrderClass, Priority};
use chiplet_topo::NodeId;
use simkit::Cycle;
use std::fmt::Write as _;

/// A packet the workload wants injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRequest {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub len: u16,
    /// Ordering class.
    pub class: OrderClass,
    /// Scheduling priority.
    pub priority: Priority,
    /// Workload phase tag (0 = untagged). Phase-graph workloads stamp
    /// their packets with the emitting phase's tag so the engine can
    /// report per-phase delivery counts back through
    /// [`Workload::observe`] and attribute per-phase statistics.
    pub tag: u16,
}

impl PacketRequest {
    /// A normal in-order packet.
    pub fn new(src: NodeId, dst: NodeId, len: u16) -> Self {
        Self {
            src,
            dst,
            len,
            class: OrderClass::InOrder,
            priority: Priority::Normal,
            tag: 0,
        }
    }

    /// Stamps the request with a workload phase tag.
    pub fn with_tag(mut self, tag: u16) -> Self {
        self.tag = tag;
        self
    }
}

/// A source of traffic, polled once per simulated cycle.
pub trait Workload: std::fmt::Debug {
    /// Appends the packets created at cycle `now`. Must be called with
    /// non-decreasing `now`.
    fn poll(&mut self, now: Cycle, out: &mut Vec<PacketRequest>);

    /// Whether the workload has no further packets to offer (always `false`
    /// for open-loop synthetic traffic).
    fn done(&self) -> bool {
        false
    }

    /// Eject feedback from the engine, delivered once per cycle *before*
    /// [`Workload::poll`]: `delivered_by_tag[tag]` is the cumulative
    /// number of packets with that [`PacketRequest::tag`] whose tail flit
    /// has ejected (index 0 is the untagged slot and stays 0 — untagged
    /// deliveries are not tracked per tag). The slice only grows as
    /// higher tags are first delivered, so it may be shorter than the
    /// highest tag a workload has emitted. Open-loop workloads
    /// ignore this; dependency-driven workloads use it to release
    /// successor phases strictly after their predecessors' packets have
    /// all left the network.
    fn observe(&mut self, _now: Cycle, _delivered_by_tag: &[u64]) {}
}

/// A pre-materialized, time-sorted trace.
///
/// # Examples
///
/// ```
/// use chiplet_traffic::{PacketRequest, TraceWorkload, Workload};
/// use chiplet_topo::NodeId;
///
/// let mut t = TraceWorkload::new(vec![
///     (0, PacketRequest::new(NodeId(0), NodeId(1), 1)),
///     (5, PacketRequest::new(NodeId(1), NodeId(0), 9)),
/// ]);
/// let mut out = Vec::new();
/// t.poll(0, &mut out);
/// assert_eq!(out.len(), 1);
/// t.poll(4, &mut out);
/// assert_eq!(out.len(), 1);
/// t.poll(5, &mut out);
/// assert_eq!(out.len(), 2);
/// assert!(t.done());
/// ```
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    events: Vec<(Cycle, PacketRequest)>,
    next: usize,
}

impl TraceWorkload {
    /// Creates a trace from `(time, packet)` events; sorts them by time.
    pub fn new(mut events: Vec<(Cycle, PacketRequest)>) -> Self {
        events.sort_by_key(|&(t, _)| t);
        Self { events, next: 0 }
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the last event, or 0 for an empty trace.
    pub fn horizon(&self) -> Cycle {
        self.events.last().map_or(0, |&(t, _)| t)
    }

    /// Checks that every event names nodes of a `nodes`-node system.
    ///
    /// # Errors
    ///
    /// Names the first event whose source or destination is out of range.
    pub fn check_nodes(&self, nodes: u32) -> Result<(), String> {
        check_node_range(self.events.iter().map(|(_, r)| r), nodes)
    }

    /// Rescales event times by `factor` (e.g. 0.5 halves all gaps — the
    /// "injection scale" axis of Figs. 13/15).
    ///
    /// The scaling is computed in 32.32 fixed point (`factor` is snapped
    /// to the nearest 1/2³² before applying), so the mapping is a single
    /// exact integer multiply per event: monotone in `t`, free of the
    /// accumulated f64 drift that used to let near-tied events land in
    /// different orders on different platforms, and exact for cycle
    /// values beyond 2⁵³ where `t as f64` itself loses precision. Events
    /// that collapse onto the same cycle keep their relative order, so a
    /// rescaled trace survives a CSV save/load round trip bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn rescaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "time scale factor must be positive");
        // Snap the factor to 32.32 fixed point once; each event time is
        // then an exact u128 multiply with round-half-up.
        let scale = (factor * (1u64 << 32) as f64).round() as u128;
        for (t, _) in &mut self.events {
            let scaled = (*t as u128 * scale + (1u128 << 31)) >> 32;
            *t = scaled.min(Cycle::MAX as u128) as Cycle;
        }
        // A monotone mapping of a sorted list stays sorted; the stable
        // sort is a no-op that only documents the invariant.
        self.events.sort_by_key(|&(t, _)| t);
        self.next = 0;
        self
    }

    /// Iterates over all events (for analysis/tests).
    pub fn events(&self) -> &[(Cycle, PacketRequest)] {
        &self.events
    }

    /// Serializes the trace as CSV (`cycle,src,dst,len,class,priority`) —
    /// a portable interchange format for captured or synthesized traces.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cycle,src,dst,len,class,priority\n");
        for &(t, r) in &self.events {
            write_row(&mut out, t, &r);
        }
        out
    }

    /// Parses a trace from the CSV format of [`TraceWorkload::to_csv`].
    ///
    /// Rows may arrive unsorted (they are stably sorted by cycle), with
    /// one exception: a file that is *both* out of order *and* contains a
    /// duplicated cycle value is rejected. Equal-cycle events inject in
    /// row order, so in a sorted file (what [`TraceWorkload::to_csv`]
    /// writes) that order is the producer's intent — but once rows are
    /// shuffled, the relative order of equal-cycle events is a
    /// file-position accident and silently sorting would pick an
    /// arbitrary injection order. The error names the first out-of-order
    /// line so the producer can re-sort deliberately.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] naming the offending line when a row is
    /// malformed or self-addressed, or the ordering is ambiguous as
    /// described above. Node ids are checked against a system
    /// separately, by [`TraceWorkload::check_nodes`].
    pub fn from_csv(s: &str) -> Result<Self, ParseTraceError> {
        let mut events = Vec::new();
        let mut cycles_seen: std::collections::HashSet<Cycle> = std::collections::HashSet::new();
        let mut prev_cycle: Option<Cycle> = None;
        let mut out_of_order: Option<(usize, Cycle)> = None; // (line, cycle)
        let mut duplicate: Option<Cycle> = None;
        for (lineno, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (lineno == 0 && line.starts_with("cycle")) {
                continue;
            }
            let (t, req) = parse_row(line).map_err(|reason| ParseTraceError {
                line: lineno + 1,
                reason: reason.to_string(),
            })?;
            if !cycles_seen.insert(t) && duplicate.is_none() {
                duplicate = Some(t);
            }
            if prev_cycle.is_some_and(|p| t < p) && out_of_order.is_none() {
                out_of_order = Some((lineno + 1, t));
            }
            prev_cycle = Some(t);
            events.push((t, req));
        }
        if let (Some((line, t)), Some(dup)) = (out_of_order, duplicate) {
            return Err(ParseTraceError {
                line,
                reason: format!(
                    "cycle {t} is out of order and the trace duplicates cycle {dup}: \
                     the injection order of equal-cycle rows is ambiguous; sort the trace"
                ),
            });
        }
        Ok(Self::new(events))
    }

    /// Writes the trace to a CSV file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Reads a trace from a CSV file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files and a parse error
    /// (wrapped as `InvalidData`) for malformed content.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_csv(&s)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// The one node-range check for replayed traffic: every request's source
/// and destination must be a node of a `nodes`-node system. Trace files
/// carry raw node ids, so a trace captured on a larger system (or edited
/// by hand) can name nodes the system being built does not have.
///
/// # Errors
///
/// Names the first request with an out-of-range endpoint.
pub(crate) fn check_node_range<'a>(
    reqs: impl IntoIterator<Item = &'a PacketRequest>,
    nodes: u32,
) -> Result<(), String> {
    for r in reqs {
        if r.src.0 >= nodes || r.dst.0 >= nodes {
            return Err(format!(
                "packet {} -> {} names a node outside this {nodes}-node system",
                r.src.0, r.dst.0
            ));
        }
    }
    Ok(())
}

/// Appends one packet row, `cycle,src,dst,len,class,priority`, and a
/// newline: a line of [`TraceWorkload::to_csv`] and the body of a phase
/// trace's `ev` line.
pub(crate) fn write_row(out: &mut String, t: Cycle, r: &PacketRequest) {
    let class = match r.class {
        OrderClass::InOrder => "inorder",
        OrderClass::Unordered => "unordered",
    };
    let priority = match r.priority {
        Priority::Normal => "normal",
        Priority::High => "high",
    };
    let _ = writeln!(
        out,
        "{t},{},{},{},{class},{priority}",
        r.src.0, r.dst.0, r.len
    );
}

/// Parses one packet row written by [`write_row`] (no newline). A row is
/// rejected for a wrong field count, an unparsable number, a
/// self-addressed or zero-length packet, or a class or priority outside
/// the vocabulary; the error says which, for the caller to place.
pub(crate) fn parse_row(row: &str) -> Result<(Cycle, PacketRequest), &'static str> {
    let f: Vec<&str> = row.split(',').collect();
    let [t, src, dst, len, class, priority] = f[..] else {
        return Err("expected 6 fields");
    };
    let t: Cycle = t.parse().map_err(|_| "bad cycle")?;
    let src = NodeId(src.parse().map_err(|_| "bad src")?);
    let dst = NodeId(dst.parse().map_err(|_| "bad dst")?);
    if src == dst {
        return Err("self-addressed packet");
    }
    let len: u16 = len.parse().map_err(|_| "bad len")?;
    if len == 0 {
        return Err("zero-length packet");
    }
    let req = PacketRequest {
        src,
        dst,
        len,
        class: match class {
            "inorder" => OrderClass::InOrder,
            "unordered" => OrderClass::Unordered,
            _ => return Err("bad class"),
        },
        priority: match priority {
            "normal" => Priority::Normal,
            "high" => Priority::High,
            _ => return Err("bad priority"),
        },
        tag: 0,
    };
    Ok((t, req))
}

/// A malformed trace row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

impl Workload for TraceWorkload {
    fn poll(&mut self, now: Cycle, out: &mut Vec<PacketRequest>) {
        while let Some(&(t, req)) = self.events.get(self.next) {
            if t > now {
                break;
            }
            out.push(req);
            self.next += 1;
        }
    }

    fn done(&self) -> bool {
        self.next >= self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsorted_events_get_sorted() {
        let t = TraceWorkload::new(vec![
            (9, PacketRequest::new(NodeId(0), NodeId(1), 1)),
            (3, PacketRequest::new(NodeId(1), NodeId(2), 1)),
        ]);
        assert_eq!(t.events()[0].0, 3);
        assert_eq!(t.horizon(), 9);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn rescale_halves_times() {
        let t = TraceWorkload::new(vec![
            (10, PacketRequest::new(NodeId(0), NodeId(1), 1)),
            (20, PacketRequest::new(NodeId(0), NodeId(1), 1)),
        ])
        .rescaled(0.5);
        assert_eq!(t.events()[0].0, 5);
        assert_eq!(t.events()[1].0, 10);
    }

    #[test]
    fn rescale_then_csv_roundtrip_reproduces_event_cycles() {
        // The old f64 multiply accumulated drift that could land
        // near-tied events on different cycles (or in different orders)
        // per platform; the fixed-point mapping is exact, monotone and
        // survives the save/load round trip bit-identically.
        let events: Vec<_> = (0..200u64)
            .map(|i| (i * 7 + 3, PacketRequest::new(NodeId(0), NodeId(1), 1)))
            .collect();
        let t = TraceWorkload::new(events).rescaled(1.0 / 3.0);
        for w in t.events().windows(2) {
            assert!(w[0].0 <= w[1].0, "rescale must stay monotone");
        }
        let back = TraceWorkload::from_csv(&t.to_csv()).unwrap();
        assert_eq!(t.events(), back.events());
    }

    #[test]
    fn rescale_power_of_two_factors_are_exact_beyond_f64_precision() {
        // 2^60 is not representable exactly once multiplied by an f64
        // factor in the naive scheme; the 32.32 fixed-point path is.
        let big = 1u64 << 60;
        let t = TraceWorkload::new(vec![
            (big, PacketRequest::new(NodeId(0), NodeId(1), 1)),
            (big + 4, PacketRequest::new(NodeId(1), NodeId(0), 1)),
        ])
        .rescaled(0.25);
        assert_eq!(t.events()[0].0, big >> 2);
        assert_eq!(t.events()[1].0, (big + 4) >> 2);
    }

    #[test]
    fn csv_rejects_out_of_order_rows_with_duplicate_cycles() {
        let csv = "cycle,src,dst,len,class,priority\n\
                   5,0,1,1,inorder,normal\n\
                   3,1,2,1,inorder,normal\n\
                   5,2,3,1,inorder,normal\n";
        let e = TraceWorkload::from_csv(csv).unwrap_err();
        assert_eq!(e.line, 3, "error names the first out-of-order line");
        assert!(e.reason.contains("ambiguous"), "{e}");
    }

    #[test]
    fn csv_accepts_unsorted_unique_and_sorted_duplicate_cycles() {
        // Unsorted without duplicates: the sort is unambiguous.
        let t =
            TraceWorkload::from_csv("5,0,1,1,inorder,normal\n3,1,2,1,inorder,normal\n").unwrap();
        assert_eq!(t.events()[0].0, 3);
        // Sorted with duplicates: row order is the producer's intent.
        let t = TraceWorkload::from_csv(
            "3,0,1,1,inorder,normal\n3,1,2,1,inorder,normal\n5,2,3,1,inorder,normal\n",
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[0].1.src, NodeId(0));
        assert_eq!(t.events()[1].1.src, NodeId(1));
    }

    #[test]
    fn csv_roundtrip_preserves_everything() {
        let t = TraceWorkload::new(vec![
            (
                3,
                PacketRequest {
                    src: NodeId(1),
                    dst: NodeId(2),
                    len: 16,
                    class: OrderClass::Unordered,
                    priority: Priority::High,
                    tag: 0,
                },
            ),
            (7, PacketRequest::new(NodeId(4), NodeId(5), 1)),
        ]);
        let back = TraceWorkload::from_csv(&t.to_csv()).unwrap();
        assert_eq!(t.events(), back.events());
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        for (bad, reason) in [
            ("1,2,3", "expected 6 fields"),
            ("x,1,2,3,inorder,normal", "bad cycle"),
            ("1,1,2,0,inorder,normal", "zero-length packet"),
            ("1,1,2,3,sideways,normal", "bad class"),
            ("1,1,2,3,inorder,urgent", "bad priority"),
            ("1,3,3,16,unordered,normal", "self-addressed"),
        ] {
            let e = TraceWorkload::from_csv(bad).unwrap_err();
            assert!(e.reason.contains(reason), "{bad} -> {e}");
            assert!(e.to_string().contains("trace line"));
        }
    }

    #[test]
    fn node_range_check_names_the_offending_packet() {
        let t =
            TraceWorkload::from_csv("0,0,15,4,inorder,normal\n1,0,99,4,inorder,normal\n").unwrap();
        assert_eq!(t.check_nodes(100), Ok(()));
        let e = t.check_nodes(16).unwrap_err();
        assert!(e.contains("0 -> 99") && e.contains("16-node"), "{e}");
        let t = TraceWorkload::from_csv("0,16,1,4,inorder,normal\n").unwrap();
        assert!(t.check_nodes(16).is_err());
    }

    #[test]
    fn csv_skips_header_and_blank_lines() {
        let t =
            TraceWorkload::from_csv("cycle,src,dst,len,class,priority\n\n5,0,1,2,inorder,normal\n")
                .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].0, 5);
    }

    #[test]
    fn poll_is_cumulative_and_done_flags() {
        let mut t = TraceWorkload::new(vec![
            (1, PacketRequest::new(NodeId(0), NodeId(1), 1)),
            (1, PacketRequest::new(NodeId(2), NodeId(3), 1)),
        ]);
        assert!(!t.done());
        let mut out = Vec::new();
        t.poll(1, &mut out);
        assert_eq!(out.len(), 2);
        assert!(t.done());
    }
}
