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
//! * Each **PHY** is a [`DelayLine`] (latency → stages, bandwidth → lanes,
//!   §7.1).
//! * The **RX reorder buffer** releases in-order flits strictly by sequence
//!   number; unordered/bypass flits are released as soon as their own
//!   packet's earlier flits have been released (per-packet order is always
//!   preserved — wormhole routers require body flits to follow their
//!   head). Its capacity follows Eq. 1, `S_rob = B_p · (D_s − D_p)`.
//!
//! Like every other medium, the link carries [`FlitRef`] handles: a flit
//! stays in the caller's [`FlitArena`] from injection to ejection, and
//! [`HeteroPhyLink::advance`] and the checkpoint codec borrow that arena
//! to read (or, on restore, re-admit) the flits behind the handles.

use crate::policy::PhyPolicy;
use chiplet_noc::{DelayLine, Flit, FlitArena, FlitRef, OrderClass, Priority};
use simkit::codec::{ByteReader, ByteWriter, CodecError, SaveState};
use simkit::trace::LinkEvent;
use simkit::{Cycle, SimRng};
use std::collections::VecDeque;

/// Which PHY a flit crossed (drives the energy model, §8.3). The
/// discriminant indexes the link's per-PHY arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhyKind {
    /// The parallel (AIB-like) PHY.
    Parallel,
    /// The serial (SerDes-like) PHY.
    Serial,
}

impl PhyKind {
    /// The other PHY of the pair.
    pub fn other(self) -> Self {
        match self {
            PhyKind::Parallel => PhyKind::Serial,
            PhyKind::Serial => PhyKind::Parallel,
        }
    }

    fn read_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(PhyKind::Parallel),
            1 => Ok(PhyKind::Serial),
            _ => Err(CodecError::Corrupt("phy kind")),
        }
    }
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
    fref: FlitRef,
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
    /// Base flit error probability, indexed by [`PhyKind`].
    p: [f64; 2],
    rng: SimRng,
    burst_mult: f64,
    burst_until: Cycle,
}

impl Injector {
    fn decide(&mut self, kind: PhyKind, now: Cycle) -> bool {
        let base = self.p[kind as usize];
        let p = if now < self.burst_until {
            (base * self.burst_mult).min(1.0)
        } else {
            base
        };
        self.rng.chance(p)
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
///
/// The gate is also why per-packet progress lives in the per-VC `open`
/// slots: a packet with released flits is always the packet open on its
/// VC.
#[derive(Debug, Default)]
struct Rob {
    pending: Vec<Tagged>,
    next_sn: u64,
    /// Per VC, the packet currently open (head released, tail not yet)
    /// and how many of its flits were released by the class rule's
    /// per-packet order (always 0 for in-order packets).
    open: Vec<Option<(u32, u16)>>,
    watermark: usize,
}

impl Rob {
    fn insert(&mut self, t: Tagged) {
        self.pending.push(t);
        self.watermark = self.watermark.max(self.pending.len());
    }

    /// Whether `t` (carrying flit `f`) may be released right now. Also the
    /// full-ROB admission rule: an immediately-deliverable flit never has
    /// to wait for capacity, so a full reorder buffer can never wedge the
    /// link.
    fn releasable(&self, t: &Tagged, f: Flit) -> bool {
        let done = match self.open.get(f.vc as usize).copied().flatten() {
            Some((pid, done)) if pid == f.pid.0 => done,
            None if f.is_head() => 0,
            _ => return false,
        };
        match t.sn {
            Some(sn) => sn == self.next_sn,
            None => f.seq == done,
        }
    }

    /// Moves every releasable flit into `out`.
    fn drain(&mut self, arena: &FlitArena, out: &mut VecDeque<(FlitRef, PhyKind)>) {
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.pending.len() {
                let t = self.pending[i];
                let f = arena.get(t.fref);
                if !self.releasable(&t, f) {
                    i += 1;
                    continue;
                }
                if t.sn.is_some() {
                    self.next_sn += 1;
                }
                let vc = f.vc as usize;
                if f.last {
                    if let Some(slot) = self.open.get_mut(vc) {
                        *slot = None;
                    }
                } else {
                    if self.open.len() <= vc {
                        self.open.resize(vc + 1, None);
                    }
                    let done = self.open[vc].map_or(0, |(_, done)| done);
                    self.open[vc] = Some((f.pid.0, done + t.sn.is_none() as u16));
                }
                out.push_back((t.fref, t.kind));
                self.pending.swap_remove(i);
                progressed = true;
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
/// use chiplet_noc::{Flit, FlitArena, OrderClass, Priority};
/// use chiplet_noc::packet::PacketId;
///
/// let mut arena = FlitArena::new();
/// let mut link = HeteroPhyLink::new(PhyParams::full(),
///                                   PhyPolicy::PerformanceFirst, 16);
/// let f = Flit::new(PacketId(0), 0, 0, true);
/// link.push(0, arena.alloc(f), OrderClass::InOrder, Priority::Normal);
/// for now in 1..=7 {
///     link.advance(now, &arena, &mut |_| {});
/// }
/// // One flit, dispatched to the parallel PHY (5 cycles + dispatch).
/// let (out, kind) = link.pop_delivered().expect("delivered");
/// assert_eq!(arena.free(out), f);
/// assert_eq!(kind, chiplet_phy::PhyKind::Parallel);
/// ```
#[derive(Debug)]
pub struct HeteroPhyLink {
    params: PhyParams,
    policy: PhyPolicy,
    fifo_capacity: u16,
    main: VecDeque<(FlitRef, OrderClass, Priority)>,
    bypass: VecDeque<FlitRef>,
    next_sn: u64,
    /// The two PHYs, indexed by [`PhyKind`].
    phys: [DelayLine<Tagged>; 2],
    /// Hard-failure flags, indexed by [`PhyKind`].
    down: [bool; 2],
    /// Flits dispatched per PHY, indexed by [`PhyKind`].
    dispatched: [u64; 2],
    rob: Rob,
    rob_capacity: u16,
    delivered: VecDeque<(FlitRef, PhyKind)>,
    bypass_enabled: bool,
    injector: Option<Injector>,
    /// Corrupted or wire-lost transmissions awaiting internal
    /// retransmission (recovery is local to the link).
    retx: VecDeque<Tagged>,
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
        assert!(
            params.parallel_lat <= params.serial_lat,
            "bypass is only sound when the parallel path is not slower (§4.2)"
        );
        Self {
            // Eq. 1 covers reorder waiting; the extra slack absorbs flits
            // gated on per-VC packet contiguity (bounded by a few packets).
            rob_capacity: params.rob_capacity() + 64,
            phys: [
                DelayLine::new(params.parallel_lat.max(1), params.parallel_bw),
                DelayLine::new(params.serial_lat.max(1), params.serial_bw),
            ],
            params,
            policy,
            fifo_capacity,
            main: VecDeque::new(),
            bypass: VecDeque::new(),
            next_sn: 0,
            down: [false; 2],
            dispatched: [0; 2],
            rob: Rob::default(),
            delivered: VecDeque::new(),
            bypass_enabled: true,
            injector: None,
            retx: VecDeque::new(),
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
            p: [p_parallel, p_serial],
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
        self.down[kind as usize] = true;
        let phy = &mut self.phys[kind as usize];
        while let Some(t) = phy.pop_ready(Cycle::MAX) {
            self.retx.push_back(t);
        }
    }

    /// Brings a previously failed PHY back into service.
    pub fn restore_phy(&mut self, kind: PhyKind) {
        self.down[kind as usize] = false;
    }

    /// Whether `kind` is currently hard-failed.
    pub fn phy_down(&self, kind: PhyKind) -> bool {
        self.down[kind as usize]
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

    /// Accepts one flit handle from the router crossbar.
    ///
    /// High-priority packets enter the bypass queue (parallel PHY only);
    /// everything else enters the main queue.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full (callers must check [`Self::space`]).
    pub fn push(&mut self, _now: Cycle, fref: FlitRef, class: OrderClass, priority: Priority) {
        assert!(self.space() > 0, "hetero-PHY TX FIFO overflow");
        if priority == Priority::High && self.bypass_enabled {
            self.bypass.push_back(fref);
        } else {
            self.main.push_back((fref, class, priority));
        }
    }

    /// Whether `kind` can accept a flit right now (in service, lane free).
    fn avail(&self, kind: PhyKind, now: Cycle) -> bool {
        !self.down[kind as usize] && self.phys[kind as usize].capacity(now) > 0
    }

    fn send_on(&mut self, now: Cycle, kind: PhyKind, fref: FlitRef, sn: Option<u64>) {
        let corrupt = self
            .injector
            .as_mut()
            .is_some_and(|inj| inj.decide(kind, now));
        self.dispatched[kind as usize] += 1;
        let t = Tagged {
            fref,
            sn,
            kind,
            corrupt,
        };
        let sent = self.phys[kind as usize].try_send(now, t);
        debug_assert!(sent, "dispatch onto a PHY with no free lane");
    }

    /// Runs one cycle: dispatch from the TX queues into the PHYs, collect
    /// PHY arrivals into the reorder buffer, release in-order flits.
    /// `arena` holds the flits behind the link's handles; `events`
    /// observes link-integrity events (corruption detections and internal
    /// retransmissions).
    pub fn advance(&mut self, now: Cycle, arena: &FlitArena, events: &mut dyn FnMut(LinkEvent)) {
        // Retransmissions first: recovery traffic gets lane priority, on
        // the original PHY when it survives, else on the other one.
        while let Some(&t) = self.retx.front() {
            let kind = if self.avail(t.kind, now) {
                t.kind
            } else if self.avail(t.kind.other(), now) {
                t.kind.other()
            } else {
                break;
            };
            self.retx.pop_front();
            self.retx_flits += 1;
            events(LinkEvent::Retransmit);
            self.send_on(now, kind, t.fref, t.sn);
        }
        // Bypass queue: early dispatch, parallel PHY only (§4.2) — unless
        // the parallel PHY is hard-failed, in which case survival trumps
        // the bypass rule and the serial PHY carries it.
        loop {
            let kind = if self.avail(PhyKind::Parallel, now) {
                PhyKind::Parallel
            } else if self.phy_down(PhyKind::Parallel) && self.avail(PhyKind::Serial, now) {
                PhyKind::Serial
            } else {
                break;
            };
            let Some(fref) = self.bypass.pop_front() else {
                break;
            };
            self.send_on(now, kind, fref, None);
        }
        // Main queue, FIFO order.
        while let Some(&(fref, class, priority)) = self.main.front() {
            let plan = self.policy.plan(self.main.len(), class, priority);
            let first = if plan.prefer_serial {
                PhyKind::Serial
            } else {
                PhyKind::Parallel
            };
            // Survival trumps policy: a down preferred PHY always allows
            // failing over to the other one.
            let kind = if self.avail(first, now) {
                first
            } else if (plan.allow_other || self.phy_down(first)) && self.avail(first.other(), now) {
                first.other()
            } else {
                break;
            };
            self.main.pop_front();
            let sn = (class == OrderClass::InOrder).then(|| {
                let sn = self.next_sn;
                self.next_sn += 1;
                sn
            });
            self.send_on(now, kind, fref, sn);
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
            for phy in 0..2 {
                while let Some(&t) = self.phys[phy].peek_ready(now) {
                    let admit = t.corrupt
                        || self.rob.len() < self.rob_capacity as usize
                        || self.rob.releasable(&t, arena.get(t.fref));
                    if !admit {
                        break;
                    }
                    self.phys[phy].pop_ready(now);
                    if t.corrupt {
                        self.corrupt_flits += 1;
                        events(LinkEvent::Corrupt);
                        self.retx.push_back(Tagged {
                            corrupt: false,
                            ..t
                        });
                    } else {
                        self.rob.insert(t);
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
            self.rob.drain(arena, &mut self.delivered);
        }
        self.rob.drain(arena, &mut self.delivered);
    }

    /// Pops the next delivered flit handle (ready for the downstream
    /// input buffer), along with the PHY it crossed.
    pub fn pop_delivered(&mut self) -> Option<(FlitRef, PhyKind)> {
        self.delivered.pop_front()
    }

    /// Flit handles anywhere inside the link (TX queues, PHYs, ROB,
    /// retransmission and delivery queues) — used for drain detection
    /// and arena accounting.
    pub fn in_flight(&self) -> usize {
        self.main.len()
            + self.bypass.len()
            + self.phys.iter().map(DelayLine::in_flight).sum::<usize>()
            + self.rob.len()
            + self.delivered.len()
            + self.retx.len()
    }

    /// Flits dispatched to the parallel PHY so far.
    pub fn parallel_flits(&self) -> u64 {
        self.dispatched[PhyKind::Parallel as usize]
    }

    /// Flits dispatched to the serial PHY so far.
    pub fn serial_flits(&self) -> u64 {
        self.dispatched[PhyKind::Serial as usize]
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

    /// Serializes every dynamic field of the link, writing each flit by
    /// value from `arena`: TX queues, both PHY pipelines, the reorder
    /// buffer (per-packet progress as a list sorted by packet id, so the
    /// blob is canonical), the retransmission queue, injector RNG/burst
    /// state, hard-failure flags and counters. Static configuration
    /// (params, policy, FIFO/ROB capacity, injector error rates) is the
    /// restore target's job to rebuild; each PHY's lane count is written
    /// only so a restore can check it.
    pub fn save_state_with(&self, arena: &FlitArena, w: &mut ByteWriter) {
        let save_tagged = |t: &Tagged, w: &mut ByteWriter| {
            arena.get(t.fref).save_state(w);
            match t.sn {
                None => w.put_bool(false),
                Some(sn) => {
                    w.put_bool(true);
                    w.put_u64(sn);
                }
            }
            w.put_u8(t.kind as u8);
            w.put_bool(t.corrupt);
        };
        w.put_usize(self.main.len());
        for &(fref, class, priority) in &self.main {
            arena.get(fref).save_state(w);
            w.put_u8(class as u8);
            w.put_u8(priority as u8);
        }
        w.put_usize(self.bypass.len());
        for &fref in &self.bypass {
            arena.get(fref).save_state(w);
        }
        w.put_u64(self.next_sn);
        for phy in &self.phys {
            w.put_u8(phy.bandwidth());
            phy.save_state_with(w, save_tagged);
        }
        // Reorder buffer.
        w.put_usize(self.rob.pending.len());
        for t in &self.rob.pending {
            save_tagged(t, w);
        }
        w.put_u64(self.rob.next_sn);
        let mut progress: Vec<(u32, u16)> = self
            .rob
            .open
            .iter()
            .flatten()
            .copied()
            .filter(|&(_, done)| done > 0)
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
                Some((pid, _)) => {
                    w.put_bool(true);
                    w.put_u32(*pid);
                }
            }
        }
        w.put_usize(self.rob.watermark);
        w.put_usize(self.delivered.len());
        for &(fref, kind) in &self.delivered {
            arena.get(fref).save_state(w);
            w.put_u8(kind as u8);
        }
        for n in self.dispatched {
            w.put_u64(n);
        }
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
        for down in self.down {
            w.put_bool(down);
        }
        w.put_u64(self.corrupt_flits);
        w.put_u64(self.retx_flits);
    }

    /// Overlays state written by [`Self::save_state_with`], re-admitting
    /// every flit into `arena`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Mismatch`] when the blob's PHY lane counts or
    /// injector presence differ from this link's build;
    /// [`CodecError::Corrupt`] on malformed data, including per-packet
    /// reorder progress for a packet that is not open on any VC.
    pub fn load_state_with(
        &mut self,
        arena: &mut FlitArena,
        r: &mut ByteReader,
    ) -> Result<(), CodecError> {
        fn load_tagged(r: &mut ByteReader, arena: &mut FlitArena) -> Result<Tagged, CodecError> {
            let fref = arena.alloc(Flit::read_from(r)?);
            let sn = if r.get_bool()? {
                Some(r.get_u64()?)
            } else {
                None
            };
            let kind = PhyKind::read_from(r)?;
            let corrupt = r.get_bool()?;
            Ok(Tagged {
                fref,
                sn,
                kind,
                corrupt,
            })
        }
        let n = r.get_usize()?;
        self.main.clear();
        for _ in 0..n {
            let fref = arena.alloc(Flit::read_from(r)?);
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
            self.main.push_back((fref, class, priority));
        }
        let n = r.get_usize()?;
        self.bypass.clear();
        for _ in 0..n {
            self.bypass.push_back(arena.alloc(Flit::read_from(r)?));
        }
        self.next_sn = r.get_u64()?;
        for phy in &mut self.phys {
            let bw = r.get_u8()?;
            if bw != phy.bandwidth() {
                return Err(CodecError::Mismatch(format!(
                    "checkpoint PHY has {bw} lanes but the restore target has {}",
                    phy.bandwidth()
                )));
            }
            phy.load_state_with(r, |r| load_tagged(r, arena))?;
        }
        let n = r.get_usize()?;
        self.rob.pending.clear();
        for _ in 0..n {
            self.rob.pending.push(load_tagged(r, arena)?);
        }
        self.rob.next_sn = r.get_u64()?;
        let n = r.get_usize()?;
        let mut progress = Vec::new();
        for _ in 0..n {
            progress.push((r.get_u32()?, r.get_u16()?));
        }
        let n = r.get_usize()?;
        self.rob.open.clear();
        for _ in 0..n {
            let slot = if r.get_bool()? {
                Some((r.get_u32()?, 0))
            } else {
                None
            };
            self.rob.open.push(slot);
        }
        for (pid, done) in progress {
            let slot = self
                .rob
                .open
                .iter_mut()
                .flatten()
                .find(|(open, _)| *open == pid)
                .ok_or(CodecError::Corrupt(
                    "reorder progress for a packet not open",
                ))?;
            slot.1 = done;
        }
        self.rob.watermark = r.get_usize()?;
        let n = r.get_usize()?;
        self.delivered.clear();
        for _ in 0..n {
            let fref = arena.alloc(Flit::read_from(r)?);
            self.delivered.push_back((fref, PhyKind::read_from(r)?));
        }
        for n in &mut self.dispatched {
            *n = r.get_u64()?;
        }
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
            self.retx.push_back(load_tagged(r, arena)?);
        }
        for down in &mut self.down {
            *down = r.get_bool()?;
        }
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
        Flit::new(PacketId(pid), seq, vc, seq + 1 == len)
    }

    /// A link plus the arena its flits live in.
    struct Rig {
        link: HeteroPhyLink,
        arena: FlitArena,
    }

    impl Rig {
        fn new(policy: PhyPolicy, fifo: u16) -> Self {
            Self {
                link: HeteroPhyLink::new(PhyParams::full(), policy, fifo),
                arena: FlitArena::new(),
            }
        }

        fn push(&mut self, f: Flit, class: OrderClass, priority: Priority) {
            let fref = self.arena.alloc(f);
            self.link.push(0, fref, class, priority);
        }

        /// Advances one cycle and retires every delivered flit.
        fn step(&mut self, now: Cycle) -> Vec<(Flit, PhyKind)> {
            self.link.advance(now, &self.arena, &mut |_| {});
            std::iter::from_fn(|| self.link.pop_delivered())
                .map(|(fref, kind)| (self.arena.free(fref), kind))
                .collect()
        }

        fn run(&mut self, from: Cycle, upto: Cycle) -> Vec<(Flit, PhyKind)> {
            (from..=upto).flat_map(|now| self.step(now)).collect()
        }
    }

    fn seqs(out: &[(Flit, PhyKind)]) -> Vec<u16> {
        out.iter().map(|(f, _)| f.seq).collect()
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
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 32);
        for s in 0..16u16 {
            rig.push(flit(1, s, 16), OrderClass::InOrder, Priority::Normal);
        }
        let out = rig.run(0, 60);
        // Delivered strictly in seq order despite two paths.
        assert_eq!(seqs(&out), (0..16).collect::<Vec<_>>());
        let link = &rig.link;
        assert!(link.serial_flits() > 0, "serial PHY should carry load");
        assert!(link.parallel_flits() > 0);
        assert!(link.rob_watermark() > 0, "parallel flits waited in the ROB");
        assert!(link.rob_watermark() <= PhyParams::full().rob_capacity() as usize + 16);
        assert_eq!(rig.arena.in_flight(), 0, "every handle came back out");
    }

    #[test]
    fn energy_efficient_never_touches_serial() {
        let mut rig = Rig::new(PhyPolicy::EnergyEfficient, 32);
        for s in 0..8u16 {
            rig.push(flit(1, s, 8), OrderClass::InOrder, Priority::Normal);
        }
        let out = rig.run(0, 30);
        assert_eq!(out.len(), 8);
        assert_eq!(rig.link.serial_flits(), 0);
        assert!(out.iter().all(|&(_, k)| k == PhyKind::Parallel));
    }

    #[test]
    fn balanced_enables_serial_only_under_load() {
        // Light load: below threshold, parallel only.
        let mut light = Rig::new(PhyPolicy::Balanced { threshold: 8 }, 32);
        for s in 0..4u16 {
            light.push(flit(1, s, 4), OrderClass::InOrder, Priority::Normal);
        }
        light.run(0, 30);
        assert_eq!(light.link.serial_flits(), 0);
        // Heavy burst: queue exceeds threshold → serial joins.
        let mut heavy = Rig::new(PhyPolicy::Balanced { threshold: 8 }, 32);
        for s in 0..32u16 {
            heavy.push(flit(1, s, 32), OrderClass::InOrder, Priority::Normal);
        }
        heavy.run(0, 80);
        assert!(heavy.link.serial_flits() > 0);
    }

    #[test]
    fn zero_load_latency_is_parallel_latency_plus_dispatch() {
        let mut rig = Rig::new(PhyPolicy::Balanced { threshold: 8 }, 16);
        rig.push(flit(1, 0, 1), OrderClass::InOrder, Priority::Normal);
        // Dispatch happens at cycle 1, arrival at 1 + 5 = 6.
        for now in 1..6 {
            assert!(rig.step(now).is_empty(), "too early at {now}");
        }
        assert_eq!(rig.step(6).len(), 1);
    }

    #[test]
    fn bypass_overtakes_queued_in_order_traffic() {
        let mut rig = Rig::new(PhyPolicy::EnergyEfficient, 64);
        // Fill the main queue with a long in-order packet...
        for s in 0..32u16 {
            rig.push(flit(1, s, 32), OrderClass::InOrder, Priority::Normal);
        }
        // ...then a single-flit high-priority packet on its own VC.
        rig.push(flit_vc(2, 0, 1, 1), OrderClass::Unordered, Priority::High);
        let out = rig.run(0, 100);
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
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 64);
        for s in 0..8u16 {
            rig.push(flit(5, s, 8), OrderClass::Unordered, Priority::Normal);
        }
        assert_eq!(seqs(&rig.run(0, 60)), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_packets_each_keep_order() {
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 64);
        // Two packets interleaved flit-by-flit on distinct VCs, as a 2-VC
        // crossbar produces.
        for s in 0..8u16 {
            rig.push(flit_vc(1, s, 8, 0), OrderClass::InOrder, Priority::Normal);
            rig.push(flit_vc(2, s, 8, 1), OrderClass::Unordered, Priority::Normal);
        }
        let out = rig.run(0, 80);
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
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 4);
        assert_eq!(rig.link.space(), 4);
        rig.push(flit(1, 0, 2), OrderClass::InOrder, Priority::Normal);
        rig.push(flit(9, 0, 1), OrderClass::Unordered, Priority::High);
        assert_eq!(rig.link.space(), 2);
        assert_eq!(rig.link.in_flight(), 2);
    }

    #[test]
    fn throughput_approaches_combined_bandwidth() {
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 64);
        // Keep the FIFO saturated for 100 cycles.
        let mut pushed = 0u16;
        let mut delivered = 0usize;
        for now in 0..200 {
            while rig.link.space() > 0 && pushed < 600 {
                // Independent single-flit packets keep the stream saturated.
                rig.push(
                    flit(1000 + pushed as u32, 0, 1),
                    OrderClass::Unordered,
                    Priority::Normal,
                );
                pushed += 1;
            }
            delivered += rig.step(now).len();
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
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 1);
        rig.push(flit(1, 0, 2), OrderClass::InOrder, Priority::Normal);
        rig.push(flit(1, 1, 2), OrderClass::InOrder, Priority::Normal);
    }

    #[test]
    fn injected_corruption_recovers_exactly_once_in_order() {
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 64);
        rig.link
            .set_fault_injection(simkit::SimRng::seed(11), 0.2, 0.2);
        for s in 0..32u16 {
            rig.push(flit(1, s, 32), OrderClass::InOrder, Priority::Normal);
        }
        let out = rig.run(0, 400);
        assert_eq!(seqs(&out), (0..32).collect::<Vec<_>>());
        let link = &rig.link;
        assert!(link.corrupt_flits() > 0, "20% flit error rate must corrupt");
        assert_eq!(link.corrupt_flits(), link.retx_flits());
        assert_eq!(link.in_flight(), 0);
        assert_eq!(rig.arena.in_flight(), 0);
    }

    #[test]
    fn parallel_phy_failure_fails_over_to_serial() {
        let mut rig = Rig::new(PhyPolicy::EnergyEfficient, 64);
        for s in 0..16u16 {
            rig.push(flit(1, s, 16), OrderClass::InOrder, Priority::Normal);
        }
        // Let a few flits commit to the parallel wire, then kill it.
        assert!(rig.step(0).is_empty());
        let before_serial = rig.link.serial_flits();
        rig.link.fail_phy(PhyKind::Parallel);
        let out = rig.run(1, 200);
        assert_eq!(
            seqs(&out),
            (0..16).collect::<Vec<_>>(),
            "no loss, no reorder"
        );
        let link = &rig.link;
        // Energy-efficient policy never touches serial — the failover did.
        assert!(link.serial_flits() > before_serial);
        assert!(link.retx_flits() > 0, "wire-lost flits were retransmitted");
        assert!(out.iter().skip(4).all(|&(_, k)| k == PhyKind::Serial));
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn bypass_redirects_to_serial_when_parallel_down() {
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 64);
        rig.link.fail_phy(PhyKind::Parallel);
        rig.push(flit_vc(2, 0, 1, 1), OrderClass::Unordered, Priority::High);
        let out = rig.run(0, 60);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, PhyKind::Serial);
    }

    #[test]
    fn both_phys_down_stalls_without_loss() {
        let mut rig = Rig::new(PhyPolicy::PerformanceFirst, 64);
        rig.link.fail_phy(PhyKind::Parallel);
        rig.link.fail_phy(PhyKind::Serial);
        for s in 0..4u16 {
            rig.push(flit(1, s, 4), OrderClass::InOrder, Priority::Normal);
        }
        for now in 0..50 {
            assert!(rig.step(now).is_empty());
        }
        assert_eq!(rig.link.in_flight(), 4, "flits wait, nothing is dropped");
        // Service returns: traffic completes in order.
        rig.link.restore_phy(PhyKind::Serial);
        assert_eq!(seqs(&rig.run(50, 150)), (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn load_rejects_a_lane_count_the_build_does_not_have() {
        let rig = Rig::new(PhyPolicy::PerformanceFirst, 16);
        let mut w = ByteWriter::new();
        rig.link.save_state_with(&rig.arena, &mut w);
        let blob = w.into_bytes();
        let mut halved = HeteroPhyLink::new(PhyParams::halved(), PhyPolicy::PerformanceFirst, 16);
        let err = halved
            .load_state_with(&mut FlitArena::new(), &mut ByteReader::new(&blob))
            .unwrap_err();
        assert!(matches!(err, CodecError::Mismatch(_)), "{err:?}");
    }
}
