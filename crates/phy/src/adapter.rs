//! The cycle-level hetero-PHY interface (§4.2, §7.3).
//!
//! One [`HeteroPhyLink`] models a *directed* hetero-PHY channel between two
//! routers:
//!
//! ```text
//!  router SA ──► TX multi-width FIFO ──► dispatch ──► parallel PHY ─┐
//!               (main + bypass queues)     stage  ──► serial  PHY ──┤
//!                                                                   ▼
//!  downstream input buffer ◄── delivered ◄── reorder buffer (RX) ◄──┘
//! ```
//!
//! * The **TX front-end** (§4.2 fetch/decode/dispatch/issue) is a FIFO that
//!   accepts several flits per cycle from the higher-radix crossbar
//!   (§8.2's multi-width FIFO) plus a bypass queue for high-priority
//!   packets, which may only jump onto the *parallel* PHY.
//! * The **dispatch stage** picks a PHY per flit according to a
//!   [`PhyPolicy`], tagging in-order flits with sequence numbers.
//! * Each **PHY** is a bandwidth-limited pipeline (latency → stages,
//!   bandwidth → lanes, §7.1).
//! * The **RX reorder buffer** releases in-order flits strictly by sequence
//!   number; unordered/bypass flits are released as soon as their own
//!   packet's earlier flits have been released (per-packet order is always
//!   preserved — wormhole routers require body flits to follow their
//!   head). Its capacity follows Eq. 1, `S_rob = B_p · (D_s − D_p)`.

use crate::policy::PhyPolicy;
use chiplet_noc::{Flit, OrderClass, Priority};
use simkit::codec::{ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use simkit::trace::LinkEvent;
use simkit::{Cycle, SimRng};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for `u32` packet-id keys (the reorder buffer
/// probes these maps several times per delivered flit; SipHash is
/// overkill for already-well-distributed slab indices). Lookup-only —
/// the maps are never iterated, so hash quality cannot affect results.
#[derive(Debug, Default)]
struct PidHasher(u64);

impl Hasher for PidHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Which PHY a flit crossed (drives the energy model, §8.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhyKind {
    /// The parallel (AIB-like) PHY.
    Parallel,
    /// The serial (SerDes-like) PHY.
    Serial,
}

/// Bandwidth/latency of the two PHYs of a hetero-PHY interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhyParams {
    /// Parallel PHY bandwidth in flits/cycle.
    pub parallel_bw: u8,
    /// Parallel PHY delay in cycles.
    pub parallel_lat: u32,
    /// Serial PHY bandwidth in flits/cycle.
    pub serial_bw: u8,
    /// Serial PHY delay in cycles.
    pub serial_lat: u32,
}

impl PhyParams {
    /// Table 2 defaults: parallel 2 flits/cycle @ 5 cycles, serial
    /// 4 flits/cycle @ 20 cycles.
    pub fn full() -> Self {
        Self {
            parallel_bw: 2,
            parallel_lat: 5,
            serial_bw: 4,
            serial_lat: 20,
        }
    }

    /// The pin-constrained halved variant (§7.2): serial 2, parallel 1.
    pub fn halved() -> Self {
        Self {
            parallel_bw: 1,
            parallel_lat: 5,
            serial_bw: 2,
            serial_lat: 20,
        }
    }

    /// Combined bandwidth of both PHYs in flits/cycle.
    pub fn total_bw(&self) -> u8 {
        self.parallel_bw + self.serial_bw
    }

    /// Eq. 1: worst-case reorder-buffer capacity
    /// `S_rob = B_p · (D_s − D_p)` (assumes `D_p ≤ D_s`, guaranteed by the
    /// parallel-only bypass rule).
    pub fn rob_capacity(&self) -> u16 {
        let gap = self.serial_lat.saturating_sub(self.parallel_lat);
        (self.parallel_bw as u32 * gap).max(1) as u16
    }

    /// The Eq. 2 V–t fold of this interface in flit/cycle units: each PHY
    /// contributes `V(t) = B · (t − D)` and the hetero interface sums the
    /// two curves. [`crate::model::HeteroVt::time_for`] then answers "how
    /// long does a burst of `v` flits take to cross this interface" —
    /// the steady-state transfer model analytical estimators build on.
    pub fn vt(&self) -> crate::model::HeteroVt {
        crate::model::HeteroVt {
            parallel: crate::model::VtModel::new(self.parallel_bw as f64, self.parallel_lat as f64),
            serial: crate::model::VtModel::new(self.serial_bw as f64, self.serial_lat as f64),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Tagged {
    flit: Flit,
    /// Sequence number for in-order flits; `None` for unordered/bypass.
    sn: Option<u64>,
    kind: PhyKind,
    /// Whether this transmission was corrupted on the wire (detected by
    /// CRC at the PHY exit; the flit is then retransmitted internally).
    corrupt: bool,
}

/// Per-link BER fault injector: each PHY transmission is corrupted with a
/// per-PHY flit error probability, optionally amplified during a scripted
/// burst window.
#[derive(Debug)]
struct Injector {
    p_parallel: f64,
    p_serial: f64,
    rng: SimRng,
    burst_mult: f64,
    burst_until: Cycle,
}

impl Injector {
    fn decide(&mut self, kind: PhyKind, now: Cycle) -> bool {
        let base = match kind {
            PhyKind::Parallel => self.p_parallel,
            PhyKind::Serial => self.p_serial,
        };
        let p = if now < self.burst_until {
            (base * self.burst_mult).min(1.0)
        } else {
            base
        };
        self.rng.chance(p)
    }
}

/// A bandwidth-limited pipeline for tagged flits (the PHY itself).
#[derive(Debug, Clone)]
struct PhyPipe {
    latency: u32,
    bandwidth: u8,
    q: VecDeque<(Cycle, Tagged)>,
    sent_cycle: Cycle,
    sent_count: u8,
}

impl PhyPipe {
    fn new(latency: u32, bandwidth: u8) -> Self {
        Self {
            latency,
            bandwidth,
            q: VecDeque::new(),
            sent_cycle: Cycle::MAX,
            sent_count: 0,
        }
    }

    fn free(&self, now: Cycle) -> u8 {
        if self.sent_cycle == now {
            // saturating: a lane-degrade event may shrink the bandwidth
            // mid-cycle, below what was already sent.
            self.bandwidth.saturating_sub(self.sent_count)
        } else {
            self.bandwidth
        }
    }

    fn send(&mut self, now: Cycle, t: Tagged) {
        if self.sent_cycle != now {
            self.sent_cycle = now;
            self.sent_count = 0;
        }
        debug_assert!(self.sent_count < self.bandwidth);
        self.sent_count += 1;
        self.q.push_back((now + self.latency as Cycle, t));
    }

    fn pop_ready(&mut self, now: Cycle) -> Option<Tagged> {
        match self.q.front() {
            Some(&(at, _)) if at <= now => self.q.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    fn peek_ready(&self, now: Cycle) -> Option<&Tagged> {
        match self.q.front() {
            Some(&(at, ref t)) if at <= now => Some(t),
            _ => None,
        }
    }

    fn in_flight(&self) -> usize {
        self.q.len()
    }
}

/// Receive-side reorder buffer.
///
/// Two ordering rules are enforced simultaneously:
///
/// * the *class* rule — strict sequence numbers for in-order flits,
///   per-packet flit order for unordered/bypass flits;
/// * the *contiguity* gate — the downstream router's input VC holds whole
///   packets back-to-back (wormhole invariant), so a flit may only be
///   released on VC `v` if its packet is the one currently open on `v`
///   (or `v` is free and the flit is a head). Without the gate, a bypass
///   head could overtake the tail of an earlier packet sharing its VC.
#[derive(Debug, Default)]
struct Rob {
    pending: Vec<Tagged>,
    next_sn: u64,
    /// Per-packet delivered-flit counts for unordered/bypass packets.
    pkt_progress: HashMap<u32, u16, BuildHasherDefault<PidHasher>>,
    /// Packet currently open (head delivered, tail not yet), VC-indexed.
    open: Vec<Option<u32>>,
    watermark: usize,
}

impl Rob {
    fn insert(&mut self, t: Tagged) {
        self.pending.push(t);
        self.watermark = self.watermark.max(self.pending.len());
    }

    /// Whether `t` could be released right now (used for the full-ROB
    /// admission rule: an immediately-deliverable flit never has to wait
    /// for capacity, so a full reorder buffer can never wedge the link).
    fn would_deliver(&self, t: &Tagged) -> bool {
        let gate_ok = match self.open.get(t.flit.vc as usize).copied().flatten() {
            Some(pid) => pid == t.flit.pid.0,
            None => t.flit.is_head(),
        };
        let order_ok = match t.sn {
            Some(sn) => sn == self.next_sn,
            None => {
                let done = self.pkt_progress.get(&t.flit.pid.0).copied().unwrap_or(0);
                t.flit.seq == done
            }
        };
        gate_ok && order_ok
    }

    /// Moves every releasable flit into `out`.
    fn drain(&mut self, out: &mut VecDeque<(Flit, PhyKind)>) {
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.pending.len() {
                let t = self.pending[i];
                let gate_ok = match self.open.get(t.flit.vc as usize).copied().flatten() {
                    Some(pid) => pid == t.flit.pid.0,
                    None => t.flit.is_head(),
                };
                let order_ok = match t.sn {
                    Some(sn) => sn == self.next_sn,
                    None => {
                        let done = self.pkt_progress.get(&t.flit.pid.0).copied().unwrap_or(0);
                        t.flit.seq == done
                    }
                };
                if gate_ok && order_ok {
                    if let Some(sn) = t.sn {
                        debug_assert_eq!(sn, self.next_sn);
                        self.next_sn += 1;
                    } else if t.flit.last {
                        self.pkt_progress.remove(&t.flit.pid.0);
                    } else {
                        *self.pkt_progress.entry(t.flit.pid.0).or_insert(0) += 1;
                    }
                    if t.flit.last {
                        if let Some(slot) = self.open.get_mut(t.flit.vc as usize) {
                            *slot = None;
                        }
                    } else if t.flit.is_head() {
                        let vc = t.flit.vc as usize;
                        if self.open.len() <= vc {
                            self.open.resize(vc + 1, None);
                        }
                        self.open[vc] = Some(t.flit.pid.0);
                    }
                    out.push_back((t.flit, t.kind));
                    self.pending.swap_remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// One directed hetero-PHY channel: TX adapter, two PHYs, RX reorder
/// buffer.
///
/// # Examples
///
/// ```
/// use chiplet_phy::{HeteroPhyLink, PhyParams, PhyPolicy};
/// use chiplet_noc::{Flit, OrderClass, Priority};
/// use chiplet_noc::packet::PacketId;
///
/// let mut link = HeteroPhyLink::new(PhyParams::full(),
///                                   PhyPolicy::PerformanceFirst, 16);
/// let f = Flit { pid: PacketId(0), seq: 0, vc: 0, last: true };
/// link.push(0, f, OrderClass::InOrder, Priority::Normal);
/// for now in 1..=7 {
///     link.advance(now);
/// }
/// // One flit, dispatched to the parallel PHY (5 cycles + dispatch).
/// let (out, kind) = link.pop_delivered().expect("delivered");
/// assert_eq!(out, f);
/// assert_eq!(kind, chiplet_phy::PhyKind::Parallel);
/// ```
#[derive(Debug)]
pub struct HeteroPhyLink {
    params: PhyParams,
    policy: PhyPolicy,
    fifo_capacity: u16,
    main: VecDeque<(Flit, OrderClass, Priority)>,
    bypass: VecDeque<Flit>,
    next_sn: u64,
    parallel: PhyPipe,
    serial: PhyPipe,
    rob: Rob,
    rob_capacity: u16,
    delivered: VecDeque<(Flit, PhyKind)>,
    parallel_flits: u64,
    serial_flits: u64,
    bypass_enabled: bool,
    injector: Option<Injector>,
    /// Corrupted transmissions awaiting internal retransmission (the
    /// adapter holds the copy, so recovery is local to the link).
    retx: VecDeque<Tagged>,
    parallel_down: bool,
    serial_down: bool,
    corrupt_flits: u64,
    retx_flits: u64,
}

impl HeteroPhyLink {
    /// Creates a link with the given PHYs, dispatch `policy` and TX FIFO
    /// capacity (§8.2 uses a 16-deep FIFO).
    ///
    /// # Panics
    ///
    /// Panics if `fifo_capacity == 0`, any bandwidth is zero, or the
    /// parallel PHY is slower than the serial one (the bypass rule requires
    /// `D_p ≤ D_s`).
    pub fn new(params: PhyParams, policy: PhyPolicy, fifo_capacity: u16) -> Self {
        assert!(fifo_capacity > 0, "TX FIFO needs capacity");
        assert!(params.parallel_bw > 0 && params.serial_bw > 0);
        assert!(
            params.parallel_lat <= params.serial_lat,
            "bypass is only sound when the parallel path is not slower (§4.2)"
        );
        Self {
            // Eq. 1 covers reorder waiting; the extra slack absorbs flits
            // gated on per-VC packet contiguity (bounded by a few packets).
            rob_capacity: params.rob_capacity() + 64,
            parallel: PhyPipe::new(params.parallel_lat.max(1), params.parallel_bw),
            serial: PhyPipe::new(params.serial_lat.max(1), params.serial_bw),
            params,
            policy,
            fifo_capacity,
            main: VecDeque::new(),
            bypass: VecDeque::new(),
            next_sn: 0,
            rob: Rob::default(),
            delivered: VecDeque::new(),
            parallel_flits: 0,
            serial_flits: 0,
            bypass_enabled: true,
            injector: None,
            retx: VecDeque::new(),
            parallel_down: false,
            serial_down: false,
            corrupt_flits: 0,
            retx_flits: 0,
        }
    }

    /// Arms BER fault injection: each transmission over a PHY is corrupted
    /// with the given per-flit probability, drawn from `rng` (fork one
    /// stream per link for deterministic runs). Corrupted flits are
    /// detected at the PHY exit and retransmitted internally — the link
    /// still delivers exactly once, in order, at the cost of bandwidth and
    /// latency.
    pub fn set_fault_injection(&mut self, rng: SimRng, p_parallel: f64, p_serial: f64) {
        self.injector = Some(Injector {
            p_parallel,
            p_serial,
            rng,
            burst_mult: 1.0,
            burst_until: 0,
        });
    }

    /// Opens a transient error burst: until cycle `until`, injected error
    /// probabilities are multiplied by `mult`. No-op unless
    /// [`Self::set_fault_injection`] armed the injector.
    pub fn set_burst(&mut self, mult: f64, until: Cycle) {
        if let Some(inj) = &mut self.injector {
            inj.burst_mult = mult;
            inj.burst_until = until;
        }
    }

    /// Hard-fails one PHY: flits in flight on it are lost to the wire and
    /// queued for retransmission, and dispatch shifts onto the surviving
    /// PHY until [`Self::restore_phy`].
    pub fn fail_phy(&mut self, kind: PhyKind) {
        let pipe = match kind {
            PhyKind::Parallel => {
                self.parallel_down = true;
                &mut self.parallel
            }
            PhyKind::Serial => {
                self.serial_down = true;
                &mut self.serial
            }
        };
        while let Some((_, t)) = pipe.q.pop_front() {
            self.retx.push_back(t);
        }
    }

    /// Brings a previously failed PHY back into service.
    pub fn restore_phy(&mut self, kind: PhyKind) {
        match kind {
            PhyKind::Parallel => self.parallel_down = false,
            PhyKind::Serial => self.serial_down = false,
        }
    }

    /// Whether `kind` is currently hard-failed.
    pub fn phy_down(&self, kind: PhyKind) -> bool {
        match kind {
            PhyKind::Parallel => self.parallel_down,
            PhyKind::Serial => self.serial_down,
        }
    }

    /// Degrades (or restores) the lane count of one PHY, e.g. after a
    /// scripted lane-failure event.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth == 0` (use [`Self::fail_phy`] for total loss).
    pub fn set_phy_bandwidth(&mut self, kind: PhyKind, bandwidth: u8) {
        assert!(bandwidth > 0, "degrade to zero lanes is a hard PHY failure");
        match kind {
            PhyKind::Parallel => self.parallel.bandwidth = bandwidth,
            PhyKind::Serial => self.serial.bandwidth = bandwidth,
        }
    }

    /// Corrupted transmissions detected so far.
    pub fn corrupt_flits(&self) -> u64 {
        self.corrupt_flits
    }

    /// Internal retransmissions performed so far.
    pub fn retx_flits(&self) -> u64 {
        self.retx_flits
    }

    /// Overrides the reorder-buffer capacity (ablation; the default is
    /// Eq. 1 plus contiguity-gating slack). Too-small capacities throttle
    /// the serial PHY — arrivals stall at the PHY exit until the ROB
    /// drains — rather than losing flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn set_rob_capacity(&mut self, capacity: u16) {
        assert!(capacity > 0, "the reorder buffer needs capacity");
        self.rob_capacity = capacity;
    }

    /// Enables/disables the high-priority parallel-PHY bypass (§4.2);
    /// when disabled, high-priority packets queue like everyone else
    /// (ablation knob).
    pub fn set_bypass_enabled(&mut self, enabled: bool) {
        self.bypass_enabled = enabled;
    }

    /// The PHY parameters.
    pub fn params(&self) -> PhyParams {
        self.params
    }

    /// The dispatch policy.
    pub fn policy(&self) -> PhyPolicy {
        self.policy
    }

    /// Free TX FIFO slots (the router's `out_capacity` for this port).
    pub fn space(&self) -> u16 {
        self.fifo_capacity - (self.main.len() + self.bypass.len()) as u16
    }

    /// Accepts one flit from the router crossbar.
    ///
    /// High-priority packets enter the bypass queue (parallel PHY only);
    /// everything else enters the main queue.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full (callers must check [`Self::space`]).
    pub fn push(&mut self, _now: Cycle, flit: Flit, class: OrderClass, priority: Priority) {
        assert!(self.space() > 0, "hetero-PHY TX FIFO overflow");
        if priority == Priority::High && self.bypass_enabled {
            self.bypass.push_back(flit);
        } else {
            self.main.push_back((flit, class, priority));
        }
    }

    /// Runs one cycle: dispatch from the TX queues into the PHYs, collect
    /// PHY arrivals into the reorder buffer, release in-order flits.
    pub fn advance(&mut self, now: Cycle) {
        self.advance_observed(now, &mut |_| {});
    }

    fn decide_corrupt(&mut self, kind: PhyKind, now: Cycle) -> bool {
        match &mut self.injector {
            Some(inj) => inj.decide(kind, now),
            None => false,
        }
    }

    /// Whether `kind` can accept a flit right now (in service, lane free).
    fn avail(&self, kind: PhyKind, now: Cycle) -> bool {
        !self.phy_down(kind) && self.pipe(kind).free(now) > 0
    }

    fn send_on(&mut self, now: Cycle, kind: PhyKind, mut t: Tagged) {
        t.kind = kind;
        t.corrupt = self.decide_corrupt(kind, now);
        match kind {
            PhyKind::Parallel => {
                self.parallel_flits += 1;
                self.parallel.send(now, t);
            }
            PhyKind::Serial => {
                self.serial_flits += 1;
                self.serial.send(now, t);
            }
        }
    }

    /// [`Self::advance`] with an observer for link-integrity events
    /// (corruption detections and internal retransmissions).
    pub fn advance_observed(&mut self, now: Cycle, events: &mut dyn FnMut(LinkEvent)) {
        // Retransmissions first: recovery traffic gets lane priority, on
        // the original PHY when it survives, else on the other one.
        while let Some(&t) = self.retx.front() {
            let other = match t.kind {
                PhyKind::Parallel => PhyKind::Serial,
                PhyKind::Serial => PhyKind::Parallel,
            };
            let kind = if self.avail(t.kind, now) {
                t.kind
            } else if self.avail(other, now) {
                other
            } else {
                break;
            };
            self.retx.pop_front();
            self.retx_flits += 1;
            events(LinkEvent::Retransmit);
            self.send_on(now, kind, t);
        }
        // Bypass queue: early dispatch, parallel PHY only (§4.2) — unless
        // the parallel PHY is hard-failed, in which case survival trumps
        // the bypass rule and the serial PHY carries it.
        loop {
            let kind = if self.avail(PhyKind::Parallel, now) {
                PhyKind::Parallel
            } else if self.parallel_down && self.avail(PhyKind::Serial, now) {
                PhyKind::Serial
            } else {
                break;
            };
            let Some(flit) = self.bypass.pop_front() else {
                break;
            };
            self.send_on(
                now,
                kind,
                Tagged {
                    flit,
                    sn: None,
                    kind,
                    corrupt: false,
                },
            );
        }
        // Main queue, FIFO order.
        while let Some(&(flit, class, priority)) = self.main.front() {
            let plan = self.policy.plan(self.main.len(), class, priority);
            let (first, second) = if plan.prefer_serial {
                (PhyKind::Serial, PhyKind::Parallel)
            } else {
                (PhyKind::Parallel, PhyKind::Serial)
            };
            // Survival trumps policy: a down preferred PHY always allows
            // failing over to the other one.
            let kind = if self.avail(first, now) {
                first
            } else if (plan.allow_other || self.phy_down(first)) && self.avail(second, now) {
                second
            } else {
                break;
            };
            self.main.pop_front();
            let sn = (class == OrderClass::InOrder).then(|| {
                let sn = self.next_sn;
                self.next_sn += 1;
                sn
            });
            self.send_on(
                now,
                kind,
                Tagged {
                    flit,
                    sn,
                    kind,
                    corrupt: false,
                },
            );
        }
        // RX: collect arrivals and release. A full ROB stalls arrivals at
        // the PHY exits *except* for flits that are immediately
        // deliverable — admitting those cannot grow the buffer (they drain
        // in the same cycle) and guarantees the in-order stream can always
        // make progress, so the link never wedges however small the ROB.
        // Corrupted arrivals never enter the ROB: the CRC check at the PHY
        // exit diverts them to the retransmission queue.
        loop {
            let mut progressed = false;
            for kind in [PhyKind::Parallel, PhyKind::Serial] {
                loop {
                    let pipe = match kind {
                        PhyKind::Parallel => &self.parallel,
                        PhyKind::Serial => &self.serial,
                    };
                    let admit = match pipe.peek_ready(now) {
                        None => false,
                        Some(t) => {
                            t.corrupt
                                || self.rob.len() < self.rob_capacity as usize
                                || self.rob.would_deliver(t)
                        }
                    };
                    if !admit {
                        break;
                    }
                    let pipe = match kind {
                        PhyKind::Parallel => &mut self.parallel,
                        PhyKind::Serial => &mut self.serial,
                    };
                    let mut t = pipe.pop_ready(now).expect("peeked");
                    if t.corrupt {
                        self.corrupt_flits += 1;
                        events(LinkEvent::Corrupt);
                        t.corrupt = false;
                        self.retx.push_back(t);
                    } else {
                        self.rob.insert(t);
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
            self.rob.drain(&mut self.delivered);
        }
        self.rob.drain(&mut self.delivered);
    }

    fn pipe(&self, kind: PhyKind) -> &PhyPipe {
        match kind {
            PhyKind::Parallel => &self.parallel,
            PhyKind::Serial => &self.serial,
        }
    }

    /// Pops the next delivered flit (ready for the downstream input
    /// buffer), along with the PHY it crossed.
    pub fn pop_delivered(&mut self) -> Option<(Flit, PhyKind)> {
        self.delivered.pop_front()
    }

    /// Flits anywhere inside the link (TX queues, PHYs, ROB, delivery
    /// queue) — used for drain detection.
    pub fn in_flight(&self) -> usize {
        self.main.len()
            + self.bypass.len()
            + self.parallel.in_flight()
            + self.serial.in_flight()
            + self.rob.len()
            + self.delivered.len()
            + self.retx.len()
    }

    /// Flits dispatched to the parallel PHY so far.
    pub fn parallel_flits(&self) -> u64 {
        self.parallel_flits
    }

    /// Flits dispatched to the serial PHY so far.
    pub fn serial_flits(&self) -> u64 {
        self.serial_flits
    }

    /// Highest reorder-buffer occupancy observed.
    pub fn rob_watermark(&self) -> usize {
        self.rob.watermark
    }

    /// Current reorder-buffer occupancy (probe).
    ///
    /// Sampled after [`Self::advance`] this counts only flits genuinely
    /// waiting on reordering — everything releasable has already drained —
    /// which is the quantity Eq. 1 bounds by `B_p · (D_s − D_p)`.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }
}

fn save_tagged(t: &Tagged, w: &mut ByteWriter) {
    t.flit.save_state(w);
    match t.sn {
        None => w.put_bool(false),
        Some(sn) => {
            w.put_bool(true);
            w.put_u64(sn);
        }
    }
    w.put_u8(match t.kind {
        PhyKind::Parallel => 0,
        PhyKind::Serial => 1,
    });
    w.put_bool(t.corrupt);
}

fn load_tagged(r: &mut ByteReader) -> Result<Tagged, CodecError> {
    let flit = Flit::read_from(r)?;
    let sn = if r.get_bool()? {
        Some(r.get_u64()?)
    } else {
        None
    };
    let kind = match r.get_u8()? {
        0 => PhyKind::Parallel,
        1 => PhyKind::Serial,
        _ => return Err(CodecError::Corrupt("phy kind")),
    };
    let corrupt = r.get_bool()?;
    Ok(Tagged {
        flit,
        sn,
        kind,
        corrupt,
    })
}

impl PhyPipe {
    /// Bandwidth is serialized alongside the queue because lane-degrade
    /// fault events mutate it mid-run; latency stays static config.
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_u8(self.bandwidth);
        w.put_u64(self.sent_cycle);
        w.put_u8(self.sent_count);
        w.put_usize(self.q.len());
        for (at, t) in &self.q {
            w.put_u64(*at);
            save_tagged(t, w);
        }
    }

    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        let bw = r.get_u8()?;
        if bw == 0 {
            return Err(CodecError::Corrupt("phy bandwidth"));
        }
        self.bandwidth = bw;
        self.sent_cycle = r.get_u64()?;
        self.sent_count = r.get_u8()?;
        let n = r.get_usize()?;
        self.q.clear();
        for _ in 0..n {
            let at = r.get_u64()?;
            let t = load_tagged(r)?;
            self.q.push_back((at, t));
        }
        Ok(())
    }
}

impl SaveState for HeteroPhyLink {
    /// Serializes every dynamic field of the link: TX queues, both PHY
    /// pipelines (including fault-degraded lane counts), the reorder
    /// buffer (progress map written in sorted packet-id order so the
    /// blob is canonical), the retransmission queue, injector RNG/burst
    /// state, hard-failure flags and counters. Static configuration
    /// (params, policy, FIFO/ROB capacity, injector error rates) is the
    /// restore target's job to rebuild.
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.main.len());
        for (flit, class, priority) in &self.main {
            flit.save_state(w);
            w.put_u8(match class {
                OrderClass::InOrder => 0,
                OrderClass::Unordered => 1,
            });
            w.put_u8(match priority {
                Priority::Normal => 0,
                Priority::High => 1,
            });
        }
        w.put_usize(self.bypass.len());
        for flit in &self.bypass {
            flit.save_state(w);
        }
        w.put_u64(self.next_sn);
        self.parallel.save_state(w);
        self.serial.save_state(w);
        // Reorder buffer.
        w.put_usize(self.rob.pending.len());
        for t in &self.rob.pending {
            save_tagged(t, w);
        }
        w.put_u64(self.rob.next_sn);
        let mut progress: Vec<(u32, u16)> = self
            .rob
            .pkt_progress
            .iter()
            .map(|(&pid, &done)| (pid, done))
            .collect();
        progress.sort_unstable();
        w.put_usize(progress.len());
        for (pid, done) in progress {
            w.put_u32(pid);
            w.put_u16(done);
        }
        w.put_usize(self.rob.open.len());
        for slot in &self.rob.open {
            match slot {
                None => w.put_bool(false),
                Some(pid) => {
                    w.put_bool(true);
                    w.put_u32(*pid);
                }
            }
        }
        w.put_usize(self.rob.watermark);
        w.put_usize(self.delivered.len());
        for (flit, kind) in &self.delivered {
            flit.save_state(w);
            w.put_u8(match kind {
                PhyKind::Parallel => 0,
                PhyKind::Serial => 1,
            });
        }
        w.put_u64(self.parallel_flits);
        w.put_u64(self.serial_flits);
        match &self.injector {
            None => w.put_bool(false),
            Some(inj) => {
                w.put_bool(true);
                for word in inj.rng.state() {
                    w.put_u64(word);
                }
                w.put_f64(inj.burst_mult);
                w.put_u64(inj.burst_until);
            }
        }
        w.put_usize(self.retx.len());
        for t in &self.retx {
            save_tagged(t, w);
        }
        w.put_bool(self.parallel_down);
        w.put_bool(self.serial_down);
        w.put_u64(self.corrupt_flits);
        w.put_u64(self.retx_flits);
    }
}

impl LoadState for HeteroPhyLink {
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        let n = r.get_usize()?;
        self.main.clear();
        for _ in 0..n {
            let flit = Flit::read_from(r)?;
            let class = match r.get_u8()? {
                0 => OrderClass::InOrder,
                1 => OrderClass::Unordered,
                _ => return Err(CodecError::Corrupt("order class")),
            };
            let priority = match r.get_u8()? {
                0 => Priority::Normal,
                1 => Priority::High,
                _ => return Err(CodecError::Corrupt("priority")),
            };
            self.main.push_back((flit, class, priority));
        }
        let n = r.get_usize()?;
        self.bypass.clear();
        for _ in 0..n {
            self.bypass.push_back(Flit::read_from(r)?);
        }
        self.next_sn = r.get_u64()?;
        self.parallel.load_state(r)?;
        self.serial.load_state(r)?;
        let n = r.get_usize()?;
        self.rob.pending.clear();
        for _ in 0..n {
            self.rob.pending.push(load_tagged(r)?);
        }
        self.rob.next_sn = r.get_u64()?;
        let n = r.get_usize()?;
        self.rob.pkt_progress.clear();
        for _ in 0..n {
            let pid = r.get_u32()?;
            let done = r.get_u16()?;
            self.rob.pkt_progress.insert(pid, done);
        }
        let n = r.get_usize()?;
        self.rob.open.clear();
        for _ in 0..n {
            let slot = if r.get_bool()? {
                Some(r.get_u32()?)
            } else {
                None
            };
            self.rob.open.push(slot);
        }
        self.rob.watermark = r.get_usize()?;
        let n = r.get_usize()?;
        self.delivered.clear();
        for _ in 0..n {
            let flit = Flit::read_from(r)?;
            let kind = match r.get_u8()? {
                0 => PhyKind::Parallel,
                1 => PhyKind::Serial,
                _ => return Err(CodecError::Corrupt("phy kind")),
            };
            self.delivered.push_back((flit, kind));
        }
        self.parallel_flits = r.get_u64()?;
        self.serial_flits = r.get_u64()?;
        if r.get_bool()? {
            let Some(inj) = &mut self.injector else {
                return Err(CodecError::Mismatch(
                    "checkpoint carries BER injector state but the restore \
                     target has no injector armed"
                        .into(),
                ));
            };
            let mut state = [0u64; 4];
            for word in &mut state {
                *word = r.get_u64()?;
            }
            inj.rng = SimRng::from_state(state);
            inj.burst_mult = r.get_f64()?;
            inj.burst_until = r.get_u64()?;
        } else if self.injector.is_some() {
            return Err(CodecError::Mismatch(
                "restore target has a BER injector armed but the checkpoint \
                 carries none"
                    .into(),
            ));
        }
        let n = r.get_usize()?;
        self.retx.clear();
        for _ in 0..n {
            self.retx.push_back(load_tagged(r)?);
        }
        self.parallel_down = r.get_bool()?;
        self.serial_down = r.get_bool()?;
        self.corrupt_flits = r.get_u64()?;
        self.retx_flits = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_noc::packet::PacketId;

    fn flit(pid: u32, seq: u16, len: u16) -> Flit {
        flit_vc(pid, seq, len, 0)
    }

    /// Concurrent packets always ride distinct VCs (the upstream router's
    /// out-VC stays busy until the tail), so tests model that.
    fn flit_vc(pid: u32, seq: u16, len: u16, vc: u8) -> Flit {
        Flit {
            pid: PacketId(pid),
            seq,
            vc,
            last: seq + 1 == len,
        }
    }

    fn drain_all(link: &mut HeteroPhyLink, upto: Cycle) -> Vec<(Flit, PhyKind)> {
        let mut out = Vec::new();
        for now in 0..=upto {
            link.advance(now);
            while let Some(d) = link.pop_delivered() {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn eq1_rob_capacity() {
        assert_eq!(PhyParams::full().rob_capacity(), 2 * 15);
        assert_eq!(PhyParams::halved().rob_capacity(), 15);
    }

    #[test]
    fn eq2_vt_bridge_matches_params() {
        let vt = PhyParams::full().vt();
        // Before the parallel delay nothing has arrived.
        assert_eq!(vt.volume(5.0), 0.0);
        // Between the delays only the parallel PHY contributes.
        assert_eq!(vt.volume(10.0), 2.0 * 5.0);
        // Past both delays the slopes add: 2 + 4 flits/cycle.
        assert!((vt.volume(30.0) - (2.0 * 25.0 + 4.0 * 10.0)).abs() < 1e-9);
        // A 16-flit packet crosses faster than the serial PHY alone.
        assert!(vt.time_for(16.0) < 20.0 + 16.0 / 4.0);
    }

    #[test]
    fn performance_first_uses_both_phys_and_reorders() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 32);
        for s in 0..16u16 {
            link.push(0, flit(1, s, 16), OrderClass::InOrder, Priority::Normal);
        }
        let out = drain_all(&mut link, 60);
        assert_eq!(out.len(), 16);
        // Delivered strictly in seq order despite two paths.
        for (i, (f, _)) in out.iter().enumerate() {
            assert_eq!(f.seq, i as u16);
        }
        assert!(link.serial_flits() > 0, "serial PHY should carry load");
        assert!(link.parallel_flits() > 0);
        assert!(link.rob_watermark() > 0, "parallel flits waited in the ROB");
        assert!(link.rob_watermark() <= PhyParams::full().rob_capacity() as usize + 16);
    }

    #[test]
    fn energy_efficient_never_touches_serial() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::EnergyEfficient, 32);
        for s in 0..8u16 {
            link.push(0, flit(1, s, 8), OrderClass::InOrder, Priority::Normal);
        }
        let out = drain_all(&mut link, 30);
        assert_eq!(out.len(), 8);
        assert_eq!(link.serial_flits(), 0);
        assert!(out.iter().all(|&(_, k)| k == PhyKind::Parallel));
    }

    #[test]
    fn balanced_enables_serial_only_under_load() {
        // Light load: below threshold, parallel only.
        let mut light =
            HeteroPhyLink::new(PhyParams::full(), PhyPolicy::Balanced { threshold: 8 }, 32);
        for s in 0..4u16 {
            light.push(0, flit(1, s, 4), OrderClass::InOrder, Priority::Normal);
        }
        drain_all(&mut light, 30);
        assert_eq!(light.serial_flits(), 0);
        // Heavy burst: queue exceeds threshold → serial joins.
        let mut heavy =
            HeteroPhyLink::new(PhyParams::full(), PhyPolicy::Balanced { threshold: 8 }, 32);
        for s in 0..32u16 {
            heavy.push(0, flit(1, s, 32), OrderClass::InOrder, Priority::Normal);
        }
        drain_all(&mut heavy, 80);
        assert!(heavy.serial_flits() > 0);
    }

    #[test]
    fn zero_load_latency_is_parallel_latency_plus_dispatch() {
        let mut link =
            HeteroPhyLink::new(PhyParams::full(), PhyPolicy::Balanced { threshold: 8 }, 16);
        link.push(0, flit(1, 0, 1), OrderClass::InOrder, Priority::Normal);
        // Dispatch happens at cycle 1, arrival at 1 + 5 = 6.
        for now in 1..6 {
            link.advance(now);
            assert!(link.pop_delivered().is_none(), "too early at {now}");
        }
        link.advance(6);
        assert!(link.pop_delivered().is_some());
    }

    #[test]
    fn bypass_overtakes_queued_in_order_traffic() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::EnergyEfficient, 64);
        // Fill the main queue with a long in-order packet...
        for s in 0..32u16 {
            link.push(0, flit(1, s, 32), OrderClass::InOrder, Priority::Normal);
        }
        // ...then a single-flit high-priority packet on its own VC.
        link.push(
            0,
            flit_vc(2, 0, 1, 1),
            OrderClass::Unordered,
            Priority::High,
        );
        let out = drain_all(&mut link, 100);
        assert_eq!(out.len(), 33);
        let pos_hot = out.iter().position(|(f, _)| f.pid.0 == 2).unwrap();
        assert!(
            pos_hot < 8,
            "high-priority flit should bypass the backlog (delivered at {pos_hot})"
        );
        // All flits of packet 1 still in order.
        let seqs: Vec<u16> = out
            .iter()
            .filter(|(f, _)| f.pid.0 == 1)
            .map(|(f, _)| f.seq)
            .collect();
        assert_eq!(seqs, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn unordered_packets_keep_internal_order() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 64);
        for s in 0..8u16 {
            link.push(0, flit(5, s, 8), OrderClass::Unordered, Priority::Normal);
        }
        let out = drain_all(&mut link, 60);
        let seqs: Vec<u16> = out.iter().map(|(f, _)| f.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_packets_each_keep_order() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 64);
        // Two packets interleaved flit-by-flit on distinct VCs, as a 2-VC
        // crossbar produces.
        for s in 0..8u16 {
            link.push(
                0,
                flit_vc(1, s, 8, 0),
                OrderClass::InOrder,
                Priority::Normal,
            );
            link.push(
                0,
                flit_vc(2, s, 8, 1),
                OrderClass::Unordered,
                Priority::Normal,
            );
        }
        let out = drain_all(&mut link, 80);
        assert_eq!(out.len(), 16);
        for pid in [1u32, 2u32] {
            let seqs: Vec<u16> = out
                .iter()
                .filter(|(f, _)| f.pid.0 == pid)
                .map(|(f, _)| f.seq)
                .collect();
            assert_eq!(seqs, (0..8).collect::<Vec<_>>(), "packet {pid}");
        }
    }

    #[test]
    fn space_accounts_both_queues() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 4);
        assert_eq!(link.space(), 4);
        link.push(0, flit(1, 0, 2), OrderClass::InOrder, Priority::Normal);
        link.push(0, flit(9, 0, 1), OrderClass::Unordered, Priority::High);
        assert_eq!(link.space(), 2);
        assert_eq!(link.in_flight(), 2);
    }

    #[test]
    fn throughput_approaches_combined_bandwidth() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 64);
        // Keep the FIFO saturated for 100 cycles.
        let mut pushed = 0u16;
        let mut delivered = 0usize;
        for now in 0..200 {
            while link.space() > 0 && pushed < 600 {
                // Independent single-flit packets keep the stream saturated.
                link.push(
                    now,
                    flit(1000 + pushed as u32, 0, 1),
                    OrderClass::Unordered,
                    Priority::Normal,
                );
                pushed += 1;
            }
            link.advance(now);
            while link.pop_delivered().is_some() {
                delivered += 1;
            }
        }
        // 6 flits/cycle nominal; expect well above parallel-only (2/cycle).
        assert!(
            delivered > 400,
            "only {delivered} flits in 200 cycles (expected near 6/cycle)"
        );
    }

    #[test]
    #[should_panic]
    fn push_past_capacity_panics() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 1);
        link.push(0, flit(1, 0, 2), OrderClass::InOrder, Priority::Normal);
        link.push(0, flit(1, 1, 2), OrderClass::InOrder, Priority::Normal);
    }

    #[test]
    fn injected_corruption_recovers_exactly_once_in_order() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 64);
        link.set_fault_injection(simkit::SimRng::seed(11), 0.2, 0.2);
        for s in 0..32u16 {
            link.push(0, flit(1, s, 32), OrderClass::InOrder, Priority::Normal);
        }
        let out = drain_all(&mut link, 400);
        let seqs: Vec<u16> = out.iter().map(|(f, _)| f.seq).collect();
        assert_eq!(seqs, (0..32).collect::<Vec<_>>());
        assert!(link.corrupt_flits() > 0, "20% flit error rate must corrupt");
        assert_eq!(link.corrupt_flits(), link.retx_flits());
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn parallel_phy_failure_fails_over_to_serial() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::EnergyEfficient, 64);
        for s in 0..16u16 {
            link.push(0, flit(1, s, 16), OrderClass::InOrder, Priority::Normal);
        }
        // Let a few flits commit to the parallel wire, then kill it.
        link.advance(0);
        let before_serial = link.serial_flits();
        link.fail_phy(PhyKind::Parallel);
        let out = drain_all_from(&mut link, 1, 200);
        let seqs: Vec<u16> = out.iter().map(|(f, _)| f.seq).collect();
        assert_eq!(seqs, (0..16).collect::<Vec<_>>(), "no loss, no reorder");
        // Energy-efficient policy never touches serial — the failover did.
        assert!(link.serial_flits() > before_serial);
        assert!(link.retx_flits() > 0, "wire-lost flits were retransmitted");
        assert!(out.iter().skip(4).all(|&(_, k)| k == PhyKind::Serial));
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn bypass_redirects_to_serial_when_parallel_down() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 64);
        link.fail_phy(PhyKind::Parallel);
        link.push(
            0,
            flit_vc(2, 0, 1, 1),
            OrderClass::Unordered,
            Priority::High,
        );
        let out = drain_all(&mut link, 60);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, PhyKind::Serial);
    }

    #[test]
    fn both_phys_down_stalls_without_loss() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 64);
        link.fail_phy(PhyKind::Parallel);
        link.fail_phy(PhyKind::Serial);
        for s in 0..4u16 {
            link.push(0, flit(1, s, 4), OrderClass::InOrder, Priority::Normal);
        }
        for now in 0..50 {
            link.advance(now);
            assert!(link.pop_delivered().is_none());
        }
        assert_eq!(link.in_flight(), 4, "flits wait, nothing is dropped");
        // Service returns: traffic completes in order.
        link.restore_phy(PhyKind::Serial);
        let out = drain_all_from(&mut link, 50, 150);
        let seqs: Vec<u16> = out.iter().map(|(f, _)| f.seq).collect();
        assert_eq!(seqs, (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn lane_degrade_throttles_but_delivers() {
        let mut link = HeteroPhyLink::new(PhyParams::full(), PhyPolicy::PerformanceFirst, 64);
        link.set_phy_bandwidth(PhyKind::Serial, 1);
        link.set_phy_bandwidth(PhyKind::Parallel, 1);
        let mut pushed = 0u16;
        let mut delivered = 0usize;
        for now in 0..100 {
            while link.space() > 0 && pushed < 300 {
                link.push(
                    now,
                    flit(1000 + pushed as u32, 0, 1),
                    OrderClass::Unordered,
                    Priority::Normal,
                );
                pushed += 1;
            }
            link.advance(now);
            while link.pop_delivered().is_some() {
                delivered += 1;
            }
        }
        // 2 flits/cycle nominal after the degrade (down from 6).
        assert!(delivered > 120 && delivered < 220, "delivered {delivered}");
    }

    fn drain_all_from(link: &mut HeteroPhyLink, from: Cycle, upto: Cycle) -> Vec<(Flit, PhyKind)> {
        let mut out = Vec::new();
        for now in from..=upto {
            link.advance(now);
            while let Some(d) = link.pop_delivered() {
                out.push(d);
            }
        }
        out
    }
}
