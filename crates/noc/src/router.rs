//! The virtual-channel router.
//!
//! Canonical four-stage VC router (§7.1): **RC** (routing computation, one
//! cycle) → **VA** (virtual-channel allocation, one cycle) → **SA/ST**
//! (switch allocation + traversal). The transmission stage lives in the
//! [`crate::channel::DelayLine`] behind each output port.
//!
//! §4.1 heterogeneous-router extension: an output port has a per-cycle
//! crossbar capacity equal to its link bandwidth, so *multiple* input VCs
//! can feed one interface port in the same cycle (higher-radix crossbar),
//! and one input VC can drain several flits per cycle into a wide
//! interface. Only interface ports need this; on-chip ports simply have
//! capacity = on-chip bandwidth.
//!
//! The router knows nothing about topology or media. The embedding network
//! provides a [`RouterEnv`] that computes routing candidates (mapped to
//! output-port indices), accepts transmitted flits, and returns credits
//! upstream.

use crate::arena::{FlitArena, FlitRef};
use crate::flit::Flit;
use crate::packet::PacketId;
use simkit::codec::{ByteReader, ByteWriter, CodecError, SaveState};
use simkit::Cycle;
use std::collections::VecDeque;

/// A routing candidate mapped to this router's output ports.
///
/// Mirrors `chiplet_topo::routing::Candidate` with the link resolved to an
/// output-port index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortCandidate {
    /// Output port index.
    pub out_port: u16,
    /// Virtual channel on that port.
    pub vc: u8,
    /// Whether this channel belongs to the baseline escape subfunction.
    pub baseline: bool,
    /// Preference tier (0 first).
    pub tier: u8,
}

/// A stage of the router pipeline, reported through
/// [`RouterEnv::on_pipeline`] so an embedding system can trace per-packet
/// progress without the router knowing anything about tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    /// Routing computation produced candidates (`info` = candidate count).
    RouteCompute,
    /// VC allocation granted an output channel (`info` = 1 if the grant
    /// fell back to the baseline escape subnetwork while adaptive
    /// candidates existed, else 0).
    VcAlloc,
    /// Switch allocation + traversal moved a head flit out of the router
    /// (`info` = output port index).
    SwitchTraverse,
}

/// The router's window onto the rest of the system.
pub trait RouterEnv {
    /// Computes routing candidates for packet `pid` standing at this router
    /// and appends them to `out` (already mapped to output ports).
    fn route(&mut self, pid: PacketId, out: &mut Vec<PortCandidate>);

    /// Remaining acceptance capacity of the medium behind `out_port` at the
    /// current cycle (link lanes or adapter FIFO space).
    fn out_capacity(&mut self, out_port: u16) -> u16;

    /// Hands a flit to the medium behind `out_port` (counts toward the next
    /// [`Self::out_capacity`] call). The router lends the arena through the
    /// call so the environment can read the flit or retire its handle at
    /// ejection.
    fn send(&mut self, out_port: u16, fref: FlitRef, arena: &mut FlitArena);

    /// Returns one credit to the upstream side of `in_port`.
    fn credit(&mut self, in_port: u16, vc: u8);

    /// Called when `pid` was granted a baseline channel although adaptive
    /// candidates existed (congestion fallback): sets the packet's
    /// livelock lock (§6.2 channel-switching restriction).
    fn note_baseline_lock(&mut self, pid: PacketId);

    /// Observation hook: packet `pid` passed pipeline stage `stage` this
    /// cycle (`info` is stage-specific, see [`PipelineStage`]). Defaults
    /// to a no-op, so environments that don't trace pay nothing — the
    /// empty body is monomorphized into [`Router::step`] and the calls
    /// vanish.
    #[inline]
    fn on_pipeline(&mut self, _stage: PipelineStage, _pid: PacketId, _info: u32) {}
}

/// VC pipeline stage tags, one byte per input VC record. The payload a
/// tag makes valid (stamp, grant) sits in the same record.
const TAG_IDLE: u8 = 0;
const TAG_ROUTED: u8 = 1;
const TAG_ACTIVE: u8 = 2;

/// Words a [`VcSet`] holds in place: 128 flat VCs (16 ports of 8 VCs).
/// Wider routers spill the rest to the heap.
const INLINE_WORDS: usize = 2;

/// A set of flat (in port, vc) indices, one bit each. The router keeps
/// one per pipeline stage so VA, RC and SA visit exactly the VCs they can
/// act on instead of testing every tag. The first [`INLINE_WORDS`] words
/// live in the set itself, so a visit loads its word from the router's
/// own cache lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct VcSet {
    inline: [u64; INLINE_WORDS],
    /// Words past the inline ones, for indices of `64 * INLINE_WORDS`
    /// and up.
    spill: Vec<u64>,
}

impl VcSet {
    /// Makes room for indices below `n`.
    fn grow(&mut self, n: usize) {
        let words = n.div_ceil(64).saturating_sub(INLINE_WORDS);
        self.spill.resize(words, 0);
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        match self.inline.get(w) {
            Some(&bits) => bits,
            None => self.spill[w - INLINE_WORDS],
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        match self.inline.get_mut(w) {
            Some(bits) => bits,
            None => &mut self.spill[w - INLINE_WORDS],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        *self.word_mut(i / 64) |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        *self.word_mut(i / 64) &= !(1 << (i % 64));
    }

    /// A cursor over the members in `from..to`, ascending.
    #[inline]
    fn members(&self, from: usize, to: usize) -> Members {
        if from >= to {
            return Members {
                w: 0,
                bits: 0,
                to: 0,
            };
        }
        let w = from / 64;
        let bits = self.word(w) & (!0u64 << (from % 64));
        Members { w, bits, to }
    }

    /// The smallest member in `from..to`, if any.
    #[cfg(test)]
    fn next_in(&self, from: usize, to: usize) -> Option<usize> {
        self.members(from, to).next(self)
    }
}

/// A cursor over the members of a [`VcSet`] in a range. It keeps the
/// unvisited bits of its current word, so a member costs one bit scan;
/// it reads a word of the set when it reaches it. Between steps the set
/// may change at indices the cursor has passed, which is all a stage
/// visit changes, so the cursor visits what a fresh scan would.
struct Members {
    w: usize,
    bits: u64,
    to: usize,
}

impl Members {
    #[inline]
    fn next(&mut self, set: &VcSet) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let i = self.w * 64 + self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return (i < self.to).then_some(i);
            }
            self.w += 1;
            if self.w * 64 >= self.to {
                return None;
            }
            self.bits = set.word(self.w);
        }
    }
}

/// A stage's rotating round-robin start over `n` flat VCs. `turns`
/// counts the router's steps (it is what a checkpoint saves); `at` is
/// `turns % n`, kept by increment so a step divides nothing.
#[derive(Debug, Clone, Copy, Default)]
struct Rotor {
    turns: usize,
    at: usize,
}

impl Rotor {
    fn new(turns: usize, n: usize) -> Self {
        let at = turns.checked_rem(n).unwrap_or(0);
        Self { turns, at }
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        self.turns = self.turns.wrapping_add(1);
        self.at += 1;
        if self.at == n || self.turns == 0 {
            self.at = 0;
        }
    }
}

/// One input VC, flat over (in port, vc) at index `p * vcs + v`: its
/// pipeline stage with the payload the stage makes valid, its buffer and
/// its routing candidates. A stage visit reads and writes this record
/// alone.
#[derive(Debug, Clone)]
struct InVc {
    /// Ground truth for the VC's stage; the router's stage sets mirror it.
    tag: u8,
    /// Granted output VC, valid while the tag is [`TAG_ACTIVE`].
    grant_vc: u8,
    /// Granted output port, valid while the tag is [`TAG_ACTIVE`].
    grant_port: u16,
    /// Buffer depth of the VC's input port.
    depth: u16,
    /// The VC's input port, for the upstream credit.
    port: u16,
    /// RC/VA cycle stamp: `Routed`'s computed-at or `Active`'s
    /// granted-at cycle. The two states are mutually exclusive, so one
    /// field serves both ("did this stage already run this cycle").
    stamp: Cycle,
    q: VecDeque<FlitRef>,
    /// Routing candidates computed at RC. Valid only while the tag is
    /// `Routed` or `Active`; cleared and refilled in place on the next RC
    /// so the steady state allocates nothing.
    cands: Vec<PortCandidate>,
}

/// One output VC, flat over (out port, vc) at index `p * vcs + v`.
#[derive(Debug, Clone, Copy)]
struct OutVc {
    busy: bool,
    /// The port's local-ejection flag, kept beside the credits so VA
    /// scores a candidate from this record alone.
    unlimited_credits: bool,
    credits: u16,
}

impl OutVc {
    /// Whether VA may grant this VC.
    #[inline]
    fn allocatable(self) -> bool {
        !self.busy && self.has_credit()
    }

    /// Whether SA may send one more flit on this VC.
    #[inline]
    fn has_credit(self) -> bool {
        self.unlimited_credits || self.credits > 0
    }
}

#[derive(Debug, Clone)]
struct OutPort {
    bandwidth: u8,
    /// Flits sent through the port in cycle `used_at`; any other cycle
    /// has used none, so the count resets on the port's first use in a
    /// cycle instead of every port being cleared each SA stage.
    used_now: u8,
    used_at: Cycle,
}

impl OutPort {
    /// Flits the port has sent this cycle (`now`), starting the count
    /// afresh when the port was last used in an earlier cycle.
    #[inline]
    fn used(&mut self, now: Cycle) -> u8 {
        if self.used_at != now {
            self.used_at = now;
            self.used_now = 0;
        }
        self.used_now
    }
}

/// An input-buffered virtual-channel router.
///
/// Build with [`Router::new`], then [`Router::add_in_port`] /
/// [`Router::add_out_port`]; drive with [`Router::receive`],
/// [`Router::add_credit`] and one [`Router::step`] per cycle.
#[derive(Debug)]
pub struct Router {
    vcs: u8,
    /// Input VC records, flat over (in port, vc).
    ins: Vec<InVc>,
    /// Output VC state, flat over (out port, vc).
    out_vcs: Vec<OutVc>,
    out_ports: Vec<OutPort>,
    va_rr: Rotor,
    sa_rr: Rotor,
    // O(1) occupancy counters so the per-cycle pipeline stages and the
    // engine's quiescence checks never rescan every VC buffer. Invariants:
    // `buffered` = total queued flits; `routed_vcs` / `active_vcs` = VCs in
    // the matching state; `idle_with_flits` = idle VCs with a waiting head.
    buffered: u32,
    routed_vcs: u32,
    active_vcs: u32,
    idle_with_flits: u32,
    // The members behind the last three counters, as bitsets over the
    // flat index: VA scans `routed`, RC `idle_head`, SA `active`. Derived
    // state: rebuilt from the tags and queues on restore, never saved.
    routed: VcSet,
    active: VcSet,
    idle_head: VcSet,
}

impl Router {
    /// Creates a router whose links carry `vcs` virtual channels.
    ///
    /// # Panics
    ///
    /// Panics if `vcs == 0`.
    pub fn new(vcs: u8) -> Self {
        assert!(vcs > 0, "need at least one virtual channel");
        Self {
            vcs,
            ins: Vec::new(),
            out_vcs: Vec::new(),
            out_ports: Vec::new(),
            va_rr: Rotor::default(),
            sa_rr: Rotor::default(),
            buffered: 0,
            routed_vcs: 0,
            active_vcs: 0,
            idle_with_flits: 0,
            routed: VcSet::default(),
            active: VcSet::default(),
            idle_head: VcSet::default(),
        }
    }

    /// Virtual channels per link.
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// Adds an input port whose VC buffers hold `depth` flits each; returns
    /// its index.
    pub fn add_in_port(&mut self, depth: u16) -> u16 {
        assert!(depth > 0, "VC buffers hold at least one flit");
        let port = self.in_ports();
        for _ in 0..self.vcs {
            self.ins.push(InVc {
                tag: TAG_IDLE,
                grant_vc: 0,
                grant_port: 0,
                depth,
                port,
                stamp: 0,
                q: VecDeque::new(),
                cands: Vec::new(),
            });
        }
        let n = self.ins.len();
        self.va_rr = Rotor::new(self.va_rr.turns, n);
        self.sa_rr = Rotor::new(self.sa_rr.turns, n);
        self.routed.grow(n);
        self.active.grow(n);
        self.idle_head.grow(n);
        port
    }

    /// Adds an output port with per-cycle crossbar capacity `bandwidth` and
    /// `downstream_depth` initial credits per VC; returns its index.
    ///
    /// `unlimited_credits` marks local-ejection ports whose consumer never
    /// backpressures.
    pub fn add_out_port(
        &mut self,
        bandwidth: u8,
        downstream_depth: u16,
        unlimited_credits: bool,
    ) -> u16 {
        assert!(bandwidth > 0, "output ports move at least one flit/cycle");
        self.out_ports.push(OutPort {
            bandwidth,
            used_now: 0,
            used_at: Cycle::MAX,
        });
        let ov = OutVc {
            busy: false,
            unlimited_credits,
            credits: downstream_depth,
        };
        self.out_vcs
            .extend(std::iter::repeat_n(ov, self.vcs as usize));
        (self.out_ports.len() - 1) as u16
    }

    /// Number of input ports.
    pub fn in_ports(&self) -> u16 {
        (self.ins.len() / self.vcs as usize) as u16
    }

    /// Number of output ports.
    pub fn out_ports(&self) -> u16 {
        self.out_ports.len() as u16
    }

    #[inline]
    fn flat(&self, port: u16, vc: u8) -> usize {
        port as usize * self.vcs as usize + vc as usize
    }

    /// Free slots in input buffer (`in_port`, `vc`).
    ///
    /// # Panics
    ///
    /// Panics if the port or VC index is out of range.
    #[inline]
    pub fn in_space(&self, in_port: u16, vc: u8) -> u16 {
        let ivc = &self.ins[self.flat(in_port, vc)];
        ivc.depth - ivc.q.len() as u16
    }

    /// Whether input VC (`in_port`, `vc`) currently holds no packet (idle
    /// state and empty buffer) — used by injection to claim a VC.
    #[inline]
    pub fn in_vc_idle(&self, in_port: u16, vc: u8) -> bool {
        let ivc = &self.ins[self.flat(in_port, vc)];
        ivc.tag == TAG_IDLE && ivc.q.is_empty()
    }

    /// Accepts a flit into input buffer (`in_port`, `vc`). `vc` must be
    /// the VC field of the flit behind `fref` — callers already hold the
    /// flit (they just drained it from a channel or built it at
    /// injection), so the router does not re-read the arena.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the buffer overflows — a flow-control bug.
    #[inline]
    pub fn receive(&mut self, in_port: u16, fref: FlitRef, vc: u8) {
        let i = self.flat(in_port, vc);
        let ivc = &mut self.ins[i];
        debug_assert!(
            ivc.q.len() < ivc.depth as usize,
            "input buffer overflow at port {in_port} vc {vc}",
        );
        if ivc.q.is_empty() && ivc.tag == TAG_IDLE {
            self.idle_with_flits += 1;
            self.idle_head.insert(i);
        }
        ivc.q.push_back(fref);
        self.buffered += 1;
    }

    /// Restores one credit to output channel (`out_port`, `vc`).
    #[inline]
    pub fn add_credit(&mut self, out_port: u16, vc: u8) {
        let i = self.flat(out_port, vc);
        self.out_vcs[i].credits += 1;
    }

    /// Total flits buffered in all input VCs. O(1).
    pub fn buffered_flits(&self) -> usize {
        self.buffered as usize
    }

    /// Whether every input VC is idle and empty. O(1).
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        self.buffered == 0 && self.routed_vcs == 0 && self.active_vcs == 0
    }

    fn flat_len(&self) -> usize {
        self.ins.len()
    }

    /// Runs one cycle of the router pipeline: VA (on candidates computed in
    /// an earlier cycle), RC (for new heads), then SA/ST. The arena is the
    /// home of every buffered flit's fields; the router reads packet
    /// identity through it and rewrites the VC tag at switch traversal.
    ///
    /// Each stage visits only the members of its bitset: VA and SA in
    /// round-robin order from their rotating start, RC in ascending
    /// order. A visit changes the stage membership of the visited VC
    /// alone, so the visit order, and every grant, is the one a full scan
    /// of the tags would produce.
    pub fn step<E: RouterEnv + ?Sized>(&mut self, now: Cycle, env: &mut E, arena: &mut FlitArena) {
        let n = self.flat_len();
        if n == 0 {
            return;
        }

        // --- VC allocation -------------------------------------------------
        if self.routed_vcs > 0 {
            let start = self.va_rr.at;
            for (lo, hi) in [(start, n), (0, start)] {
                let mut members = self.routed.members(lo, hi);
                while let Some(cur) = members.next(&self.routed) {
                    self.allocate_vc(cur, now, env, arena);
                }
            }
        }
        self.va_rr.advance(n);

        // --- Routing computation -------------------------------------------
        if self.idle_with_flits > 0 {
            let mut members = self.idle_head.members(0, n);
            while let Some(cur) = members.next(&self.idle_head) {
                self.compute_route(cur, now, env, arena);
            }
        }

        // --- Switch allocation + traversal ---------------------------------
        if self.active_vcs > 0 {
            let start = self.sa_rr.at;
            for (lo, hi) in [(start, n), (0, start)] {
                let mut members = self.active.members(lo, hi);
                while let Some(cur) = members.next(&self.active) {
                    self.traverse(cur, now, env, arena);
                }
            }
        }
        self.sa_rr.advance(n);
    }

    /// VA for routed VC `cur`: scans tiers in preference order and, within
    /// the winning tier, grants the allocatable candidate with the most
    /// credits.
    #[inline]
    fn allocate_vc<E: RouterEnv + ?Sized>(
        &mut self,
        cur: usize,
        now: Cycle,
        env: &mut E,
        arena: &FlitArena,
    ) {
        let vcs = self.vcs as usize;
        let ivc = &mut self.ins[cur];
        if ivc.stamp >= now {
            return; // RC happened this cycle; VA next cycle.
        }
        let mut best: Option<(PortCandidate, u32)> = None;
        for c in ivc.cands.iter() {
            let ov = self.out_vcs[c.out_port as usize * vcs + c.vc as usize];
            if !ov.allocatable() {
                continue;
            }
            let score = if ov.unlimited_credits {
                u32::MAX
            } else {
                ov.credits as u32
            };
            match best {
                Some((b, s)) if (b.tier, u32::MAX - s) <= (c.tier, u32::MAX - score) => {}
                _ => best = Some((*c, score)),
            }
        }
        let Some((grant, _)) = best else {
            return;
        };
        let had_adaptive = ivc.cands.iter().any(|c| !c.baseline);
        let head = *ivc.q.front().expect("routed VC has a head flit");
        let pid = arena.get(head).pid;
        ivc.tag = TAG_ACTIVE;
        ivc.stamp = now;
        ivc.grant_port = grant.out_port;
        ivc.grant_vc = grant.vc;
        self.out_vcs[grant.out_port as usize * vcs + grant.vc as usize].busy = true;
        self.routed_vcs -= 1;
        self.active_vcs += 1;
        self.routed.remove(cur);
        self.active.insert(cur);
        let fallback = grant.baseline && had_adaptive;
        if fallback {
            env.note_baseline_lock(pid);
        }
        env.on_pipeline(PipelineStage::VcAlloc, pid, fallback as u32);
    }

    /// RC for idle VC `cur`, whose queue holds a head flit.
    #[inline]
    fn compute_route<E: RouterEnv + ?Sized>(
        &mut self,
        cur: usize,
        now: Cycle,
        env: &mut E,
        arena: &FlitArena,
    ) {
        let ivc = &mut self.ins[cur];
        let front = *ivc.q.front().expect("idle VC with a head has a flit");
        let head = arena.get(front);
        debug_assert!(head.is_head(), "non-head flit at idle VC front");
        let pid = head.pid;
        ivc.cands.clear();
        env.route(pid, &mut ivc.cands);
        debug_assert!(
            !ivc.cands.is_empty(),
            "routing returned no candidates for {pid:?}"
        );
        env.on_pipeline(PipelineStage::RouteCompute, pid, ivc.cands.len() as u32);
        ivc.tag = TAG_ROUTED;
        ivc.stamp = now;
        self.idle_with_flits -= 1;
        self.routed_vcs += 1;
        self.idle_head.remove(cur);
        self.routed.insert(cur);
    }

    /// SA/ST for active VC `cur`: moves flits to its granted output while
    /// the port, the downstream credits and the medium allow, releasing
    /// the VC after the tail.
    #[inline]
    fn traverse<E: RouterEnv + ?Sized>(
        &mut self,
        cur: usize,
        now: Cycle,
        env: &mut E,
        arena: &mut FlitArena,
    ) {
        let ivc = &mut self.ins[cur];
        if ivc.stamp >= now {
            return; // VA happened this cycle; SA next cycle.
        }
        let (out_port, out_vc) = (ivc.grant_port, ivc.grant_vc);
        let oi = out_port as usize * self.vcs as usize + out_vc as usize;
        let in_vc = (cur - ivc.port as usize * self.vcs as usize) as u8;
        let op = &mut self.out_ports[out_port as usize];
        let ov = &mut self.out_vcs[oi];
        // Crossbar slots the port has left this cycle.
        let mut room = op.bandwidth - op.used(now);
        while room > 0 && ov.has_credit() && env.out_capacity(out_port) > 0 {
            let Some(fref) = ivc.q.pop_front() else {
                break;
            };
            self.buffered -= 1;
            let flit = arena.get_mut(fref);
            flit.vc = out_vc;
            let last = flit.last;
            let pid = flit.pid;
            let head = flit.is_head();
            if head {
                // Before `send`, so a local ejection recorded inside
                // `send` traces after its switch traversal.
                env.on_pipeline(PipelineStage::SwitchTraverse, pid, out_port as u32);
            }
            env.send(out_port, fref, arena);
            env.credit(ivc.port, in_vc);
            op.used_now += 1;
            room -= 1;
            if !ov.unlimited_credits {
                ov.credits -= 1;
            }
            if last {
                ov.busy = false;
                ivc.tag = TAG_IDLE;
                self.active_vcs -= 1;
                self.active.remove(cur);
                if !ivc.q.is_empty() {
                    self.idle_with_flits += 1;
                    self.idle_head.insert(cur);
                }
                break;
            }
        }
    }

    /// Downstream credits currently held by output channel
    /// (`out_port`, `vc`) — exposed for the restore validator's credit
    /// conservation check.
    pub fn out_vc_credits(&self, out_port: u16, vc: u8) -> u16 {
        self.out_vcs[self.flat(out_port, vc)].credits
    }

    /// Flits queued in input buffer (`in_port`, `vc`).
    pub fn in_occupancy(&self, in_port: u16, vc: u8) -> usize {
        self.ins[self.flat(in_port, vc)].q.len()
    }

    /// Serializes the router's dynamic state. Buffered flits are written
    /// *by value* (resolved through `arena`): flit handles are
    /// shard-local and unobservable, so a restore target re-admits the
    /// values into whatever arena owns this router then — which is what
    /// lets a checkpoint restore at a different shard count.
    pub fn save_state_with(&self, arena: &FlitArena, w: &mut ByteWriter) {
        w.put_usize(self.va_rr.turns);
        w.put_usize(self.sa_rr.turns);
        w.put_u32(self.buffered);
        w.put_u32(self.routed_vcs);
        w.put_u32(self.active_vcs);
        w.put_u32(self.idle_with_flits);
        for ivc in &self.ins {
            // The tag/payload wire layout predates the per-VC records; a
            // checkpoint written by the enum-state router restores here
            // byte-for-byte.
            match ivc.tag {
                TAG_IDLE => w.put_u8(0),
                TAG_ROUTED => {
                    w.put_u8(1);
                    w.put_u64(ivc.stamp);
                }
                _ => {
                    w.put_u8(2);
                    w.put_u16(ivc.grant_port);
                    w.put_u8(ivc.grant_vc);
                    w.put_u64(ivc.stamp);
                }
            }
            w.put_usize(ivc.q.len());
            for &fref in &ivc.q {
                arena.get(fref).save_state(w);
            }
            w.put_usize(ivc.cands.len());
            for c in &ivc.cands {
                w.put_u16(c.out_port);
                w.put_u8(c.vc);
                w.put_bool(c.baseline);
                w.put_u8(c.tier);
            }
        }
        for ov in &self.out_vcs {
            w.put_bool(ov.busy);
            w.put_u16(ov.credits);
        }
    }

    /// Overlays state written by [`Self::save_state_with`] onto this
    /// freshly built router, admitting buffered flits into `arena`.
    pub fn load_state_with(
        &mut self,
        arena: &mut FlitArena,
        r: &mut ByteReader,
    ) -> Result<(), CodecError> {
        let n = self.flat_len();
        self.va_rr = Rotor::new(r.get_usize()?, n);
        self.sa_rr = Rotor::new(r.get_usize()?, n);
        let buffered = r.get_u32()?;
        let routed_vcs = r.get_u32()?;
        let active_vcs = r.get_u32()?;
        let idle_with_flits = r.get_u32()?;
        let (out_ports, vcs) = (self.out_ports.len() as u16, self.vcs);
        for ivc in &mut self.ins {
            match r.get_u8()? {
                0 => {
                    ivc.tag = TAG_IDLE;
                    ivc.stamp = 0;
                }
                1 => {
                    ivc.tag = TAG_ROUTED;
                    ivc.stamp = r.get_u64()?;
                }
                2 => {
                    let out_port = r.get_u16()?;
                    let out_vc = r.get_u8()?;
                    let granted_at = r.get_u64()?;
                    if out_port >= out_ports || out_vc >= vcs {
                        return Err(CodecError::Corrupt("active VC target"));
                    }
                    ivc.tag = TAG_ACTIVE;
                    ivc.stamp = granted_at;
                    ivc.grant_port = out_port;
                    ivc.grant_vc = out_vc;
                }
                _ => return Err(CodecError::Corrupt("VC state tag")),
            };
            let qlen = r.get_usize()?;
            if qlen > ivc.depth as usize {
                return Err(CodecError::Corrupt("VC buffer overflow"));
            }
            ivc.q.clear();
            for _ in 0..qlen {
                let flit = Flit::read_from(r)?;
                ivc.q.push_back(arena.alloc(flit));
            }
            let clen = r.get_usize()?;
            ivc.cands.clear();
            for _ in 0..clen {
                ivc.cands.push(PortCandidate {
                    out_port: r.get_u16()?,
                    vc: r.get_u8()?,
                    baseline: r.get_bool()?,
                    tier: r.get_u8()?,
                });
            }
        }
        for ov in &mut self.out_vcs {
            ov.busy = r.get_bool()?;
            ov.credits = r.get_u16()?;
        }
        for op in &mut self.out_ports {
            op.used_at = Cycle::MAX; // no flit sent in any cycle still to run
        }
        self.buffered = buffered;
        self.routed_vcs = routed_vcs;
        self.active_vcs = active_vcs;
        self.idle_with_flits = idle_with_flits;
        (self.routed, self.active, self.idle_head) = self.stage_sets();
        self.check_invariants()
            .map_err(|_| CodecError::Corrupt("router counters"))
    }

    /// The routed, active and idle-with-head sets as the tags and queues
    /// define them.
    fn stage_sets(&self) -> (VcSet, VcSet, VcSet) {
        let mut sets = (VcSet::default(), VcSet::default(), VcSet::default());
        for set in [&mut sets.0, &mut sets.1, &mut sets.2] {
            set.grow(self.flat_len());
        }
        for (i, ivc) in self.ins.iter().enumerate() {
            match ivc.tag {
                TAG_ROUTED => sets.0.insert(i),
                TAG_ACTIVE => sets.1.insert(i),
                _ if !ivc.q.is_empty() => sets.2.insert(i),
                _ => {}
            }
        }
        sets
    }

    /// Recomputes the O(1) occupancy counters, the stage bitsets and the
    /// out-VC busy set from the ground-truth states and buffers, and
    /// compares them to the maintained values — the rhdl-style
    /// restored-state validator for the router layer.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut buffered = 0u32;
        let mut routed = 0u32;
        let mut active = 0u32;
        let mut idle_with_flits = 0u32;
        let mut busy = vec![false; self.out_vcs.len()];
        for (i, ivc) in self.ins.iter().enumerate() {
            buffered += ivc.q.len() as u32;
            match ivc.tag {
                TAG_IDLE => {
                    if !ivc.q.is_empty() {
                        idle_with_flits += 1;
                    }
                }
                TAG_ROUTED => {
                    routed += 1;
                    if ivc.q.is_empty() {
                        return Err(format!("routed VC {i} has no head flit"));
                    }
                }
                TAG_ACTIVE => {
                    active += 1;
                    let (out_port, out_vc) = (ivc.grant_port, ivc.grant_vc);
                    let bi = self.flat(out_port, out_vc);
                    if busy[bi] {
                        return Err(format!(
                            "two active VCs target out port {out_port} vc {out_vc}"
                        ));
                    }
                    busy[bi] = true;
                }
                t => return Err(format!("VC {i} has unknown tag {t}")),
            }
        }
        for (i, (ov, &expect)) in self.out_vcs.iter().zip(&busy).enumerate() {
            if ov.busy != expect {
                let (p, v) = (i / self.vcs as usize, i % self.vcs as usize);
                return Err(format!(
                    "out port {p} vc {v} busy={} but {} active VC targets it",
                    ov.busy,
                    if expect { "an" } else { "no" }
                ));
            }
        }
        if buffered != self.buffered
            || routed != self.routed_vcs
            || active != self.active_vcs
            || idle_with_flits != self.idle_with_flits
        {
            return Err(format!(
                "counter drift: buffered {}/{}, routed {}/{}, active {}/{}, \
                 idle_with_flits {}/{}",
                self.buffered,
                buffered,
                self.routed_vcs,
                routed,
                self.active_vcs,
                active,
                self.idle_with_flits,
                idle_with_flits
            ));
        }
        let (routed, active, idle_head) = self.stage_sets();
        if routed != self.routed || active != self.active || idle_head != self.idle_head {
            return Err("stage bitsets disagree with the tags and queues".into());
        }
        let n = self.flat_len();
        for (stage, rr) in [("VA", self.va_rr), ("SA", self.sa_rr)] {
            if rr.at != Rotor::new(rr.turns, n).at {
                return Err(format!(
                    "{stage} round-robin start {} is not {} mod {n}",
                    rr.at, rr.turns
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Flit;
    use crate::packet::PacketId;

    /// A test environment: one route for everything, capture sends/credits.
    struct MockEnv {
        cands: Vec<PortCandidate>,
        capacity: Vec<u16>,
        sent: Vec<(u16, Flit)>,
        credits: Vec<(u16, u8)>,
        locks: Vec<PacketId>,
    }

    impl MockEnv {
        fn new(cands: Vec<PortCandidate>, out_ports: usize, cap: u16) -> Self {
            Self {
                cands,
                capacity: vec![cap; out_ports],
                sent: Vec::new(),
                credits: Vec::new(),
                locks: Vec::new(),
            }
        }

        fn reset_cycle(&mut self, cap: u16) {
            for c in &mut self.capacity {
                *c = cap;
            }
        }
    }

    impl RouterEnv for MockEnv {
        fn route(&mut self, _pid: PacketId, out: &mut Vec<PortCandidate>) {
            out.extend_from_slice(&self.cands);
        }
        fn out_capacity(&mut self, out_port: u16) -> u16 {
            self.capacity[out_port as usize]
        }
        fn send(&mut self, out_port: u16, fref: FlitRef, arena: &mut FlitArena) {
            assert!(self.capacity[out_port as usize] > 0);
            self.capacity[out_port as usize] -= 1;
            // The mock models both media and ejection: the flit leaves the
            // arena-managed world here.
            self.sent.push((out_port, arena.free(fref)));
        }
        fn credit(&mut self, in_port: u16, vc: u8) {
            self.credits.push((in_port, vc));
        }
        fn note_baseline_lock(&mut self, pid: PacketId) {
            self.locks.push(pid);
        }
    }

    fn flit(pid: u32, seq: u16, len: u16) -> Flit {
        Flit::new(PacketId(pid), seq, 0, seq + 1 == len)
    }

    /// Admits a flit into the arena and hands it to the router.
    fn recv(r: &mut Router, arena: &mut FlitArena, in_port: u16, f: Flit) {
        let fref = arena.alloc(f);
        r.receive(in_port, fref, f.vc);
    }

    fn one_port_router(bw: u8) -> Router {
        let mut r = Router::new(2);
        r.add_in_port(16);
        r.add_out_port(bw, 8, false);
        r
    }

    #[test]
    fn pipeline_takes_three_cycles_to_first_send() {
        let mut arena = FlitArena::new();
        let mut r = one_port_router(2);
        let mut env = MockEnv::new(
            vec![PortCandidate {
                out_port: 0,
                vc: 0,
                baseline: true,
                tier: 2,
            }],
            1,
            2,
        );
        for s in 0..4u16 {
            recv(&mut r, &mut arena, 0, flit(1, s, 4));
        }
        // Cycle 0: RC. Cycle 1: VA. Cycle 2: SA moves up to bw flits.
        r.step(0, &mut env, &mut arena);
        assert!(env.sent.is_empty());
        env.reset_cycle(2);
        r.step(1, &mut env, &mut arena);
        assert!(env.sent.is_empty());
        env.reset_cycle(2);
        r.step(2, &mut env, &mut arena);
        assert_eq!(env.sent.len(), 2);
        env.reset_cycle(2);
        r.step(3, &mut env, &mut arena);
        assert_eq!(env.sent.len(), 4);
        // Tail sent → VC released, credits returned for all 4 flits.
        assert_eq!(env.credits.len(), 4);
        assert!(r.is_quiescent());
    }

    #[test]
    fn credits_backpressure_switch() {
        let mut arena = FlitArena::new();
        let mut r = Router::new(2);
        r.add_in_port(16);
        r.add_out_port(2, 2, false); // only 2 downstream slots
        let mut env = MockEnv::new(
            vec![PortCandidate {
                out_port: 0,
                vc: 0,
                baseline: true,
                tier: 2,
            }],
            1,
            99,
        );
        for s in 0..4u16 {
            recv(&mut r, &mut arena, 0, flit(1, s, 4));
        }
        for now in 0..6 {
            env.reset_cycle(99);
            r.step(now, &mut env, &mut arena);
        }
        // Only 2 flits could leave (2 credits, never returned).
        assert_eq!(env.sent.len(), 2);
        r.add_credit(0, 0);
        env.reset_cycle(99);
        r.step(6, &mut env, &mut arena);
        assert_eq!(env.sent.len(), 3);
    }

    #[test]
    fn out_vc_busy_until_tail_prevents_interleaving() {
        let mut arena = FlitArena::new();
        let mut r = Router::new(1); // single VC: second packet must wait
        r.add_in_port(16);
        r.add_in_port(16);
        r.add_out_port(1, 16, false);
        let mut env = MockEnv::new(
            vec![PortCandidate {
                out_port: 0,
                vc: 0,
                baseline: true,
                tier: 2,
            }],
            1,
            1,
        );
        for s in 0..3u16 {
            recv(&mut r, &mut arena, 0, flit(1, s, 3));
        }
        for s in 0..3u16 {
            recv(&mut r, &mut arena, 1, flit(2, s, 3));
        }
        for now in 0..20 {
            env.reset_cycle(1);
            r.step(now, &mut env, &mut arena);
        }
        assert_eq!(env.sent.len(), 6);
        // All flits of one packet precede the other's.
        let pids: Vec<u32> = env.sent.iter().map(|(_, f)| f.pid.0).collect();
        let first = pids[0];
        assert_eq!(&pids[..3], &[first; 3]);
        assert_ne!(pids[3], first);
        assert_eq!(&pids[3..], &[pids[3]; 3]);
    }

    #[test]
    fn higher_radix_port_accepts_two_inputs_same_cycle() {
        let mut arena = FlitArena::new();
        let mut r = Router::new(2);
        r.add_in_port(16);
        r.add_in_port(16);
        r.add_out_port(4, 16, false); // wide interface port (§4.1)
        let mut env = MockEnv::new(
            vec![
                PortCandidate {
                    out_port: 0,
                    vc: 0,
                    baseline: true,
                    tier: 2,
                },
                PortCandidate {
                    out_port: 0,
                    vc: 1,
                    baseline: true,
                    tier: 2,
                },
            ],
            1,
            4,
        );
        for s in 0..2u16 {
            recv(&mut r, &mut arena, 0, flit(1, s, 2));
            recv(&mut r, &mut arena, 1, flit(2, s, 2));
        }
        for now in 0..3 {
            env.reset_cycle(4);
            r.step(now, &mut env, &mut arena);
        }
        // At cycle 2 both packets stream concurrently through the wide port.
        assert_eq!(env.sent.len(), 4);
        let cycle2_pids: std::collections::HashSet<u32> =
            env.sent.iter().map(|(_, f)| f.pid.0).collect();
        assert_eq!(cycle2_pids.len(), 2);
    }

    #[test]
    fn baseline_grant_with_adaptive_present_sets_lock() {
        let mut arena = FlitArena::new();
        // Adaptive candidate on port 1 vc1 is blocked (0 credits), so VA
        // falls back to the baseline escape and must set the livelock lock.
        let mut env = MockEnv::new(
            vec![
                PortCandidate {
                    out_port: 1,
                    vc: 1,
                    baseline: false,
                    tier: 0,
                },
                PortCandidate {
                    out_port: 0,
                    vc: 0,
                    baseline: true,
                    tier: 2,
                },
            ],
            2,
            2,
        );
        let mut r = Router::new(2);
        r.add_in_port(16);
        r.add_out_port(2, 8, false);
        r.add_out_port(2, 0, false); // adaptive port starts with 0 credits
        recv(&mut r, &mut arena, 0, flit(7, 0, 1));
        r.step(0, &mut env, &mut arena); // RC
        r.step(1, &mut env, &mut arena); // VA → baseline grant → lock
        assert_eq!(env.locks, vec![PacketId(7)]);
    }

    #[test]
    fn adaptive_preferred_when_allocatable() {
        let mut arena = FlitArena::new();
        let mut r = Router::new(2);
        r.add_in_port(16);
        r.add_out_port(2, 8, false);
        r.add_out_port(2, 8, false);
        let mut env = MockEnv::new(
            vec![
                PortCandidate {
                    out_port: 1,
                    vc: 1,
                    baseline: false,
                    tier: 0,
                },
                PortCandidate {
                    out_port: 0,
                    vc: 0,
                    baseline: true,
                    tier: 2,
                },
            ],
            2,
            2,
        );
        recv(&mut r, &mut arena, 0, flit(7, 0, 1));
        for now in 0..3 {
            env.reset_cycle(2);
            r.step(now, &mut env, &mut arena);
        }
        assert!(env.locks.is_empty());
        assert_eq!(env.sent.len(), 1);
        assert_eq!(env.sent[0].0, 1, "adaptive port preferred");
        assert_eq!(env.sent[0].1.vc, 1, "flit re-tagged to granted VC");
    }

    #[test]
    fn unlimited_ejection_port_never_starves() {
        let mut arena = FlitArena::new();
        let mut r = Router::new(2);
        r.add_in_port(4);
        r.add_out_port(2, 0, true); // ejection: zero "credits" but unlimited
        let mut env = MockEnv::new(
            vec![PortCandidate {
                out_port: 0,
                vc: 0,
                baseline: true,
                tier: 2,
            }],
            1,
            2,
        );
        for s in 0..4u16 {
            recv(&mut r, &mut arena, 0, flit(3, s, 4));
        }
        for now in 0..5 {
            env.reset_cycle(2);
            r.step(now, &mut env, &mut arena);
        }
        assert_eq!(env.sent.len(), 4);
    }

    #[test]
    fn vc_set_visits_members_of_a_range_in_ascending_order() {
        let mut set = VcSet::default();
        set.grow(130);
        for i in [0, 63, 64, 100, 129] {
            set.insert(i);
        }
        let visit = |set: &VcSet, from: usize, to: usize| {
            let mut got = Vec::new();
            let mut from = from;
            while let Some(i) = set.next_in(from, to) {
                got.push(i);
                from = i + 1;
            }
            got
        };
        assert_eq!(visit(&set, 0, 130), [0, 63, 64, 100, 129]);
        assert_eq!(visit(&set, 64, 129), [64, 100]);
        assert_eq!(visit(&set, 1, 63), [] as [usize; 0]);
        assert_eq!(visit(&set, 5, 5), [] as [usize; 0]);
        set.remove(64);
        assert_eq!(visit(&set, 63, 101), [63, 100]);
    }

    #[test]
    fn vc_set_round_robin_crosses_into_the_spill_words() {
        let n = 64 * INLINE_WORDS + 72;
        let mut set = VcSet::default();
        set.grow(n);
        assert_eq!(set.spill.len(), 2, "two words past the inline ones");
        let members = [
            3,
            64 * INLINE_WORDS - 1,
            64 * INLINE_WORDS,
            150,
            191,
            192,
            n - 1,
        ];
        for i in members {
            set.insert(i);
        }
        let visit = |set: &VcSet, from: usize, to: usize| {
            let mut got = Vec::new();
            let mut from = from;
            while let Some(i) = set.next_in(from, to) {
                got.push(i);
                from = i + 1;
            }
            got
        };
        // A round-robin pass from each start visits every member once,
        // in rotated order, whichever word the start falls in.
        for start in [0, 100, 64 * INLINE_WORDS - 1, 64 * INLINE_WORDS, 170, n - 1] {
            let mut got = visit(&set, start, n);
            got.extend(visit(&set, 0, start));
            let mut want: Vec<usize> = members.iter().copied().filter(|&i| i >= start).collect();
            want.extend(members.iter().copied().filter(|&i| i < start));
            assert_eq!(got, want, "start {start}");
        }
        set.remove(64 * INLINE_WORDS);
        set.remove(192);
        assert_eq!(visit(&set, 127, 193), [127, 150, 191]);
        assert_eq!(visit(&set, 193, n), [n - 1]);
    }

    /// A randomized environment for the stress test: random candidate
    /// sets, per-cycle medium capacities and delayed credit returns.
    struct StressEnv {
        rng: simkit::rng::SimRng,
        vcs: u8,
        /// Output ports; the last is an unlimited ejection port.
        out_ports: u16,
        capacity: Vec<u16>,
        now: Cycle,
        sent: u64,
        /// Credits due back to the router: `(due, out port, vc)`.
        returns: Vec<(Cycle, u16, u8)>,
    }

    impl RouterEnv for StressEnv {
        fn route(&mut self, _pid: PacketId, out: &mut Vec<PortCandidate>) {
            let extra = self.rng.below(3) as usize;
            for k in 0..=extra {
                out.push(PortCandidate {
                    out_port: self.rng.below(self.out_ports as u64) as u16,
                    vc: self.rng.below(self.vcs as u64) as u8,
                    baseline: k == 0 || self.rng.chance(0.3),
                    tier: self.rng.below(3) as u8,
                });
            }
        }
        fn out_capacity(&mut self, out_port: u16) -> u16 {
            self.capacity[out_port as usize]
        }
        fn send(&mut self, out_port: u16, fref: FlitRef, arena: &mut FlitArena) {
            assert!(self.capacity[out_port as usize] > 0, "send past capacity");
            self.capacity[out_port as usize] -= 1;
            let f = arena.free(fref);
            self.sent += 1;
            if out_port + 1 < self.out_ports {
                let due = self.now + 1 + self.rng.below(4);
                self.returns.push((due, out_port, f.vc));
            }
        }
        fn credit(&mut self, _in_port: u16, _vc: u8) {}
        fn note_baseline_lock(&mut self, _pid: PacketId) {}
    }

    #[test]
    fn random_traffic_keeps_every_invariant() {
        // 18 in ports x 4 VCs = 72 flat slots, so the stage bitsets span
        // two words and the round-robin starts cross the word boundary.
        let (in_ports, vcs, out_ports) = (18u16, 4u8, 5u16);
        for seed in 0..4u64 {
            let mut rng = simkit::rng::SimRng::seed(seed);
            let mut arena = FlitArena::new();
            let mut r = Router::new(vcs);
            for p in 0..in_ports {
                r.add_in_port(2 + p % 4);
            }
            for p in 0..out_ports {
                let last = p + 1 == out_ports;
                r.add_out_port(1 + (p % 3) as u8, 3, last);
            }
            let mut env = StressEnv {
                rng: rng.fork(1),
                vcs,
                out_ports,
                capacity: vec![0; out_ports as usize],
                now: 0,
                sent: 0,
                returns: Vec::new(),
            };
            // Per input VC: the packet being delivered (pid, next seq, len).
            let mut feeding: Vec<Option<(u32, u16, u16)>> = vec![None; r.flat_len()];
            let mut next_pid = 0u32;
            let mut received = 0u64;
            for now in 0..3000 {
                env.now = now;
                for _ in 0..rng.below(6) {
                    let p = rng.below(in_ports as u64) as u16;
                    let v = rng.below(vcs as u64) as u8;
                    if r.in_space(p, v) == 0 {
                        continue;
                    }
                    let slot = &mut feeding[p as usize * vcs as usize + v as usize];
                    let (pid, seq, len) = *slot.get_or_insert_with(|| {
                        next_pid += 1;
                        (next_pid, 0, 1 + rng.below(5) as u16)
                    });
                    let f = Flit::new(PacketId(pid), seq, v, seq + 1 == len);
                    *slot = (!f.last).then_some((pid, seq + 1, len));
                    let fref = arena.alloc(f);
                    r.receive(p, fref, v);
                    received += 1;
                }
                let mut i = 0;
                while i < env.returns.len() {
                    if env.returns[i].0 <= now {
                        let (_, port, vc) = env.returns.swap_remove(i);
                        r.add_credit(port, vc);
                    } else {
                        i += 1;
                    }
                }
                for c in &mut env.capacity {
                    *c = rng.below(4) as u16;
                }
                r.step(now, &mut env, &mut arena);
                if let Err(e) = r.check_invariants() {
                    panic!("seed {seed} cycle {now}: {e}");
                }
                assert_eq!(received, env.sent + r.buffered_flits() as u64);
            }
            assert!(env.sent > 1000, "seed {seed}: traffic flowed");
        }
    }

    /// Drives a router of `in_ports` x `vcs` inputs and `out_ports`
    /// outputs (the last an unlimited ejection port) with random traffic
    /// from `seed` for `cycles` cycles, checking every invariant and flit
    /// conservation after each step; `each` then sees the cycle, the
    /// router and the arena. Returns the flits sent.
    fn drive_random_traffic(
        seed: u64,
        (in_ports, vcs, out_ports): (u16, u8, u16),
        cycles: Cycle,
        mut each: impl FnMut(Cycle, &Router, &FlitArena),
    ) -> u64 {
        let mut rng = simkit::rng::SimRng::seed(seed);
        let mut arena = FlitArena::new();
        let mut r = Router::new(vcs);
        for p in 0..in_ports {
            r.add_in_port(2 + p % 4);
        }
        for p in 0..out_ports {
            r.add_out_port(1 + (p % 3) as u8, 3, p + 1 == out_ports);
        }
        let mut env = StressEnv {
            rng: rng.fork(1),
            vcs,
            out_ports,
            capacity: vec![0; out_ports as usize],
            now: 0,
            sent: 0,
            returns: Vec::new(),
        };
        // Per input VC: the packet being delivered (pid, next seq, len).
        let mut feeding: Vec<Option<(u32, u16, u16)>> =
            vec![None; in_ports as usize * vcs as usize];
        let (mut next_pid, mut received) = (0u32, 0u64);
        for now in 0..cycles {
            env.now = now;
            // Denser than the 72-slot test so large geometries stay busy.
            for _ in 0..rng.below(4 + in_ports as u64 / 4) {
                let p = rng.below(in_ports as u64) as u16;
                let v = rng.below(vcs as u64) as u8;
                if r.in_space(p, v) == 0 {
                    continue;
                }
                let slot = &mut feeding[p as usize * vcs as usize + v as usize];
                let (pid, seq, len) = *slot.get_or_insert_with(|| {
                    next_pid += 1;
                    (next_pid, 0, 1 + rng.below(5) as u16)
                });
                let f = Flit::new(PacketId(pid), seq, v, seq + 1 == len);
                *slot = (!f.last).then_some((pid, seq + 1, len));
                r.receive(p, arena.alloc(f), v);
                received += 1;
            }
            env.returns.retain(|&(due, port, vc)| {
                let ready = due <= now;
                if ready {
                    r.add_credit(port, vc);
                }
                !ready
            });
            for c in &mut env.capacity {
                *c = rng.below(4) as u16;
            }
            r.step(now, &mut env, &mut arena);
            if let Err(e) = r.check_invariants() {
                panic!("seed {seed} cycle {now}: {e}");
            }
            assert_eq!(received, env.sent + r.buffered_flits() as u64);
            each(now, &r, &arena);
        }
        env.sent
    }

    fn saved(r: &Router, arena: &FlitArena) -> Vec<u8> {
        let mut w = ByteWriter::new();
        r.save_state_with(arena, &mut w);
        w.into_bytes()
    }

    #[test]
    fn wide_router_keeps_every_invariant_and_restores_exactly() {
        // 40 in ports x 4 VCs = 160 flat slots: past the stage sets'
        // inline words, so the round-robin ranges run into the spill.
        let geometry = (40u16, 4u8, 7u16);
        for seed in 0..2u64 {
            let sent = drive_random_traffic(seed, geometry, 2000, |now, r, arena| {
                if now % 250 != 0 {
                    return;
                }
                let blob = saved(r, arena);
                let mut fresh = Router::new(geometry.1);
                for p in 0..geometry.0 {
                    fresh.add_in_port(2 + p % 4);
                }
                for p in 0..geometry.2 {
                    fresh.add_out_port(1 + (p % 3) as u8, 3, p + 1 == geometry.2);
                }
                let mut fresh_arena = FlitArena::new();
                fresh
                    .load_state_with(&mut fresh_arena, &mut ByteReader::new(&blob))
                    .expect("saved state restores");
                assert_eq!(saved(&fresh, &fresh_arena), blob, "cycle {now}");
            });
            assert!(sent > 5000, "seed {seed}: traffic flowed");
        }
    }

    /// The checkpoint bytes of a router under random traffic, one SHA-256
    /// over the saved state at every 100th cycle. The wire layout is part
    /// of the checkpoint format: a change to the router's memory layout
    /// must leave these digests alone.
    #[test]
    fn saved_state_bytes_are_pinned() {
        let pinned = [
            (
                (18u16, 4u8, 5u16),
                0u64,
                "897db622e2e2cc2229c3d1891a0593c76cc16cadb86db37db508680e2aea6a47",
            ),
            (
                (18, 4, 5),
                1,
                "b00345a3c5f576873bbbcbb8a1f6e616ab1c05f0abccb8806e8b439da8683691",
            ),
            (
                (40, 4, 7),
                0,
                "505d23809d8511336424301a36d4b092a53bfbfd3c8a41651e107409565b5416",
            ),
            (
                (5, 2, 5),
                3,
                "0fc2ffb4667d4c251aa7ef9e4be34574fbdd00678b59a9a9274281e5bf562dec",
            ),
        ];
        for (geometry, seed, want) in pinned {
            let mut h = simkit::hash::Sha256::new();
            drive_random_traffic(seed, geometry, 1500, |now, r, arena| {
                if now % 100 == 0 {
                    h.update(&saved(r, arena));
                }
            });
            let got = simkit::hash::to_hex(&h.finalize());
            assert_eq!(got, want, "geometry {geometry:?} seed {seed}");
        }
    }

    #[test]
    fn in_space_and_receive_accounting() {
        let mut arena = FlitArena::new();
        let mut r = Router::new(2);
        r.add_in_port(3);
        assert_eq!(r.in_space(0, 0), 3);
        recv(&mut r, &mut arena, 0, flit(1, 0, 2));
        assert_eq!(r.in_space(0, 0), 2);
        assert_eq!(r.in_space(0, 1), 3);
        assert!(!r.in_vc_idle(0, 0) || r.buffered_flits() == 1);
        assert_eq!(r.buffered_flits(), 1);
    }
}
