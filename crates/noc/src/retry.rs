//! A CRC-protected go-back-N retry link layer.
//!
//! [`RetryLine`] wraps the behavioral channel model of [`DelayLine`]
//! (latency → pipeline stages, bandwidth → lanes) with the link-integrity
//! machinery real die-to-die interfaces ship (UCIe-class CRC + replay):
//!
//! * every flit is framed with a link sequence number (`lseq`) and a
//!   CRC-16/CCITT over its identity, and a copy is retained in a replay
//!   buffer until cumulatively acknowledged;
//! * the receiver checks the CRC and the sequence number: corrupted or
//!   out-of-sequence frames are dropped and a NAK carrying the expected
//!   `lseq` is returned (rate-limited by a cooldown so one error burst
//!   produces one replay, not a NAK storm);
//! * a NAK — or a retry timeout, should the NAK itself be lost to the
//!   cooldown — rewinds the transmitter to the oldest unacknowledged flit
//!   and replays from there (go-back-N), with every retransmission
//!   consuming real lanes, so recovery costs real bandwidth and latency;
//! * acknowledgements travel on a clean sideband with the same latency
//!   (control symbols are heavily protected in real link layers, so the
//!   model corrupts forward data frames only).
//!
//! With an error-free wire (`corrupt` always false) the line is
//! cycle-for-cycle identical to a [`DelayLine`] of the same geometry: the
//! replay buffer is sized so that steady-state acknowledgements always pop
//! entries before the buffer can bind, and no NAK or timeout ever fires.
//!
//! [`DelayLine`]: crate::DelayLine

use crate::arena::{FlitArena, FlitRef};
use crate::flit::Flit;
use simkit::codec::{ByteReader, ByteWriter, CodecError, SaveState};
use simkit::trace::LinkEvent;
use simkit::Cycle;
use std::collections::VecDeque;

/// Computes the CRC-16/CCITT-FALSE checksum of `bytes` (poly `0x1021`,
/// init `0xFFFF`), the classic link-layer frame check.
pub fn crc16(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in bytes {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The frame check over one link frame: flit identity plus link sequence.
fn frame_crc(flit: &Flit, lseq: u64) -> u16 {
    let mut bytes = [0u8; 16];
    bytes[..4].copy_from_slice(&flit.pid.0.to_le_bytes());
    bytes[4..6].copy_from_slice(&flit.seq.to_le_bytes());
    bytes[6] = flit.vc;
    bytes[7] = flit.last as u8;
    bytes[8..].copy_from_slice(&lseq.to_le_bytes());
    crc16(&bytes)
}

/// One framed flit on the wire. Carries the arena handle; the flit's
/// fields stay in the [`FlitArena`] while the frame is in flight.
#[derive(Debug, Clone, Copy)]
struct LinkFlit {
    fref: FlitRef,
    lseq: u64,
    crc: u16,
}

/// One acknowledgement symbol on the return sideband.
#[derive(Debug, Clone, Copy)]
enum AckMsg {
    /// Cumulative: every frame with `lseq < upto` arrived intact.
    Ack(u64),
    /// Go-back-N request: replay from `from`.
    Nak(u64),
}

/// A fixed-latency, bandwidth-limited flit pipeline with CRC detection and
/// go-back-N replay.
///
/// The interface mirrors [`DelayLine`](crate::DelayLine) — [`Self::capacity`],
/// [`Self::try_send`], per-cycle advancement, delivery draining — with two
/// differences: `try_send` takes the wire's corruption verdict for this
/// transmission, and the per-cycle [`Self::advance`] needs a corruption
/// oracle (for retransmissions) and an event sink.
///
/// Flits travel as [`FlitRef`] arena handles. The replay buffer keeps
/// flit *values* (its copies outlive the original handle, which may
/// already be ejected downstream by the time a replay fires), so a
/// retransmission admits a fresh handle and the receiver retires the
/// handles of corrupted, duplicate and out-of-sequence frames.
///
/// # Examples
///
/// ```
/// use chiplet_noc::arena::FlitArena;
/// use chiplet_noc::retry::RetryLine;
/// use chiplet_noc::flit::Flit;
/// use chiplet_noc::packet::PacketId;
///
/// let mut arena = FlitArena::new();
/// let mut line = RetryLine::new(5, 2, 64);
/// let f = Flit::new(PacketId(0), 0, 0, true);
/// let fref = arena.alloc(f);
/// assert!(line.try_send(10, fref, &arena, false));
/// line.advance(15, &mut arena, &mut || false, &mut |_| {});
/// let mut got = Vec::new();
/// line.drain_delivered(|r| got.push(arena.free(r)));
/// assert_eq!(got, vec![f]);
/// ```
#[derive(Debug, Clone)]
pub struct RetryLine {
    latency: u32,
    bandwidth: u8,
    retry_timeout: Cycle,
    nak_cooldown: Cycle,
    // Transmitter.
    next_lseq: u64,
    replay: VecDeque<(u64, Flit)>,
    replay_cap: usize,
    rewind: Option<u64>,
    last_progress: Cycle,
    sent_cycle: Cycle,
    sent_count: u8,
    // Wire.
    fwd: VecDeque<(Cycle, LinkFlit)>,
    acks: VecDeque<(Cycle, AckMsg)>,
    // Receiver.
    rx_expected: u64,
    nak_cooldown_until: Cycle,
    delivered: VecDeque<FlitRef>,
    // Counters.
    retransmits: u64,
    corrupt_seen: u64,
}

impl RetryLine {
    /// Creates a retry line with `latency` cycles of delay, `bandwidth`
    /// lanes and a replay timeout of `retry_timeout` cycles without
    /// transmitter progress (clamped up to one ack round-trip plus slack,
    /// below which it would fire spuriously on an error-free wire).
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0` or `bandwidth == 0`.
    pub fn new(latency: u32, bandwidth: u8, retry_timeout: Cycle) -> Self {
        assert!(latency > 0, "a channel has at least one cycle of latency");
        assert!(bandwidth > 0, "a channel has at least one lane");
        let rtt = 2 * latency as Cycle;
        Self {
            latency,
            bandwidth,
            retry_timeout: retry_timeout.max(rtt + 2),
            nak_cooldown: rtt + 2,
            next_lseq: 0,
            replay: VecDeque::new(),
            // A frame sent at `t` is cumulatively acked (and popped from
            // replay) at `t + 2·latency`, before that cycle's new sends, so
            // steady-state occupancy never exceeds `bandwidth · 2·latency`;
            // the slack keeps the bound from ever throttling an error-free
            // wire.
            replay_cap: bandwidth as usize * (2 * latency as usize + 4),
            rewind: None,
            last_progress: 0,
            sent_cycle: Cycle::MAX,
            sent_count: 0,
            fwd: VecDeque::new(),
            acks: VecDeque::new(),
            rx_expected: 0,
            nak_cooldown_until: 0,
            delivered: VecDeque::new(),
            retransmits: 0,
            corrupt_seen: 0,
        }
    }

    /// The configured latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// The configured bandwidth in flits/cycle.
    pub fn bandwidth(&self) -> u8 {
        self.bandwidth
    }

    /// Total retransmitted frames so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Total corrupted frames detected by the receiver so far.
    pub fn corrupt_seen(&self) -> u64 {
        self.corrupt_seen
    }

    fn lanes_free(&self, now: Cycle) -> u8 {
        if self.sent_cycle == now {
            self.bandwidth - self.sent_count
        } else {
            self.bandwidth
        }
    }

    fn take_lane(&mut self, now: Cycle) {
        if self.sent_cycle != now {
            self.sent_cycle = now;
            self.sent_count = 0;
        }
        self.sent_count += 1;
    }

    /// How many more new flits can enter at cycle `now`.
    ///
    /// Zero while a replay is in progress: go-back-N dedicates the wire to
    /// retransmissions so frames reach the receiver in `lseq` order.
    pub fn capacity(&self, now: Cycle) -> u8 {
        if self.rewind.is_some() {
            return 0;
        }
        let replay_space = (self.replay_cap - self.replay.len()).min(u8::MAX as usize) as u8;
        self.lanes_free(now).min(replay_space)
    }

    /// Enqueues the flit behind `fref` at cycle `now` if a lane and replay
    /// space are free; `corrupt` is the wire's verdict for this
    /// transmission (the frame arrives with a broken CRC when true).
    /// Returns whether it was accepted — on `false` the handle stays with
    /// the caller.
    pub fn try_send(
        &mut self,
        now: Cycle,
        fref: FlitRef,
        arena: &FlitArena,
        corrupt: bool,
    ) -> bool {
        if self.capacity(now) == 0 {
            return false;
        }
        self.take_lane(now);
        let flit = arena.get(fref);
        let lseq = self.next_lseq;
        self.next_lseq += 1;
        self.replay.push_back((lseq, flit));
        self.last_progress = now;
        let crc = frame_crc(&flit, lseq) ^ if corrupt { 0xFFFF } else { 0 };
        self.fwd
            .push_back((now + self.latency as Cycle, LinkFlit { fref, lseq, crc }));
        true
    }

    fn send_nak(&mut self, now: Cycle, events: &mut dyn FnMut(LinkEvent)) {
        if now >= self.nak_cooldown_until {
            self.nak_cooldown_until = now + self.nak_cooldown;
            self.acks
                .push_back((now + self.latency as Cycle, AckMsg::Nak(self.rx_expected)));
            events(LinkEvent::RetryNak);
        }
    }

    /// Advances the line to cycle `now`: processes arrived acknowledgement
    /// symbols, fires the retry timeout, retransmits while rewinding, and
    /// receives arrived frames (CRC + sequence check) into the delivery
    /// queue. `corrupt` is drawn once per retransmitted frame; `events`
    /// observes link-integrity events.
    ///
    /// Call once per cycle, then [`Self::drain_delivered`].
    pub fn advance(
        &mut self,
        now: Cycle,
        arena: &mut FlitArena,
        corrupt: &mut dyn FnMut() -> bool,
        events: &mut dyn FnMut(LinkEvent),
    ) {
        // 1. Acknowledgement sideband.
        while let Some(&(at, msg)) = self.acks.front() {
            if at > now {
                break;
            }
            self.acks.pop_front();
            match msg {
                AckMsg::Ack(upto) => {
                    while self.replay.front().is_some_and(|&(l, _)| l < upto) {
                        self.replay.pop_front();
                        self.last_progress = now;
                    }
                    if let Some(next) = self.rewind {
                        if next < upto {
                            self.rewind = (upto < self.next_lseq).then_some(upto);
                        }
                    }
                }
                AckMsg::Nak(from) => {
                    if self.rewind.is_none()
                        && self.replay.front().is_some_and(|&(l, _)| l <= from)
                        && from < self.next_lseq
                    {
                        self.rewind = Some(from);
                        self.last_progress = now;
                    }
                }
            }
        }
        // 2. Retry timeout: no transmitter progress for too long (a NAK
        // lost to the cooldown window, or every ack genuinely stalled).
        if self.rewind.is_none()
            && !self.replay.is_empty()
            && now.saturating_sub(self.last_progress) > self.retry_timeout
        {
            self.rewind = self.replay.front().map(|&(l, _)| l);
            self.last_progress = now;
            events(LinkEvent::RetryTimeout);
        }
        // 3. Replay: retransmissions compete for the same lanes as new
        // sends (capacity() is zero while rewinding, so they get them all).
        while let Some(next) = self.rewind {
            if self.lanes_free(now) == 0 {
                break;
            }
            let front = match self.replay.front() {
                Some(&(l, _)) => l,
                None => {
                    self.rewind = None;
                    break;
                }
            };
            let idx = (next.max(front) - front) as usize;
            match self.replay.get(idx) {
                Some(&(lseq, flit)) => {
                    self.take_lane(now);
                    let crc = frame_crc(&flit, lseq) ^ if corrupt() { 0xFFFF } else { 0 };
                    // A replay is a fresh transmission: the original handle
                    // may already be retired downstream, so admit a new one.
                    let fref = arena.alloc(flit);
                    self.fwd
                        .push_back((now + self.latency as Cycle, LinkFlit { fref, lseq, crc }));
                    self.retransmits += 1;
                    self.last_progress = now;
                    events(LinkEvent::Retransmit);
                    let after = lseq + 1;
                    self.rewind = (after < self.next_lseq).then_some(after);
                }
                None => {
                    self.rewind = None;
                    break;
                }
            }
        }
        // 4. Receiver: CRC first, then the go-back-N sequence check.
        // Dropped frames retire their handles — the replay buffer holds
        // the surviving copy of the flit.
        while let Some(&(at, lf)) = self.fwd.front() {
            if at > now {
                break;
            }
            self.fwd.pop_front();
            let flit = arena.get(lf.fref);
            if lf.crc != frame_crc(&flit, lf.lseq) {
                arena.free(lf.fref);
                self.corrupt_seen += 1;
                events(LinkEvent::Corrupt);
                self.send_nak(now, events);
            } else if lf.lseq < self.rx_expected {
                // Duplicate from a rewind that overshot: drop silently.
                arena.free(lf.fref);
            } else if lf.lseq > self.rx_expected {
                // Gap: an earlier frame was dropped.
                arena.free(lf.fref);
                self.send_nak(now, events);
            } else {
                self.delivered.push_back(lf.fref);
                self.rx_expected += 1;
                let ack_at = now + self.latency as Cycle;
                match self.acks.back_mut() {
                    Some((at, AckMsg::Ack(upto))) if *at == ack_at => *upto = self.rx_expected,
                    _ => self.acks.push_back((ack_at, AckMsg::Ack(self.rx_expected))),
                }
            }
        }
    }

    /// Delivers every received-intact flit to `sink`, in link order.
    pub fn drain_delivered(&mut self, mut sink: impl FnMut(FlitRef)) {
        while let Some(fref) = self.delivered.pop_front() {
            sink(fref);
        }
    }

    /// Frames and symbols still owed work: in-flight, awaiting delivery,
    /// awaiting acknowledgement. The medium is idle only at zero.
    pub fn in_flight(&self) -> usize {
        self.fwd.len() + self.delivered.len() + self.replay.len() + self.acks.len()
    }

    /// The earliest cycle ≥ `now` at which [`Self::advance`] would do
    /// anything, or [`Cycle::MAX`] when the line is fully drained. An
    /// in-progress rewind or an undrained delivery queue means "now";
    /// otherwise the bound is the earliest of the forward wire's front,
    /// the ack sideband's front, and — while unacknowledged frames sit in
    /// the replay buffer — the retry-timeout deadline
    /// (`last_progress + retry_timeout + 1`, the first cycle at which
    /// `now - last_progress > retry_timeout`). This is the line's
    /// contribution to the engine's idle-skip next-event bound; skipping
    /// to any earlier cycle leaves the line bit-identical.
    pub fn next_event_at(&self, now: Cycle) -> Cycle {
        if self.rewind.is_some() || !self.delivered.is_empty() {
            return now;
        }
        let mut at = Cycle::MAX;
        if let Some(&(t, _)) = self.fwd.front() {
            at = at.min(t);
        }
        if let Some(&(t, _)) = self.acks.front() {
            at = at.min(t);
        }
        if !self.replay.is_empty() {
            at = at.min(self.last_progress + self.retry_timeout + 1);
        }
        at
    }

    /// Arena handles this line currently holds (forward frames plus the
    /// undrained delivery queue) — the restore validator's per-shard
    /// handle accounting uses this.
    pub fn held_handles(&self) -> usize {
        self.fwd.len() + self.delivered.len()
    }

    /// Serializes the full go-back-N window state. Forward frames are
    /// written as flit *values* plus a corruption bit (the frame CRC is
    /// a pure function of the flit and `lseq`, so only "was it broken on
    /// the wire" needs a bit); replay copies are values already.
    pub fn save_state_with(&self, arena: &FlitArena, w: &mut ByteWriter) {
        w.put_u64(self.next_lseq);
        match self.rewind {
            None => w.put_bool(false),
            Some(l) => {
                w.put_bool(true);
                w.put_u64(l);
            }
        }
        w.put_u64(self.last_progress);
        w.put_u64(self.sent_cycle);
        w.put_u8(self.sent_count);
        w.put_u64(self.rx_expected);
        w.put_u64(self.nak_cooldown_until);
        w.put_u64(self.retransmits);
        w.put_u64(self.corrupt_seen);
        w.put_usize(self.replay.len());
        for &(lseq, flit) in &self.replay {
            w.put_u64(lseq);
            flit.save_state(w);
        }
        w.put_usize(self.fwd.len());
        for &(at, lf) in &self.fwd {
            let flit = arena.get(lf.fref);
            w.put_u64(at);
            w.put_u64(lf.lseq);
            flit.save_state(w);
            w.put_bool(lf.crc != frame_crc(&flit, lf.lseq));
        }
        w.put_usize(self.acks.len());
        for &(at, msg) in &self.acks {
            w.put_u64(at);
            match msg {
                AckMsg::Ack(upto) => {
                    w.put_u8(0);
                    w.put_u64(upto);
                }
                AckMsg::Nak(from) => {
                    w.put_u8(1);
                    w.put_u64(from);
                }
            }
        }
        w.put_usize(self.delivered.len());
        for &fref in &self.delivered {
            arena.get(fref).save_state(w);
        }
    }

    /// Overlays state written by [`Self::save_state_with`], re-admitting
    /// forward-frame and delivered flits into `arena`.
    pub fn load_state_with(
        &mut self,
        arena: &mut FlitArena,
        r: &mut ByteReader,
    ) -> Result<(), CodecError> {
        self.next_lseq = r.get_u64()?;
        self.rewind = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        self.last_progress = r.get_u64()?;
        self.sent_cycle = r.get_u64()?;
        self.sent_count = r.get_u8()?;
        self.rx_expected = r.get_u64()?;
        self.nak_cooldown_until = r.get_u64()?;
        self.retransmits = r.get_u64()?;
        self.corrupt_seen = r.get_u64()?;
        let n = r.get_usize()?;
        if n > self.replay_cap {
            return Err(CodecError::Corrupt("replay buffer length"));
        }
        self.replay.clear();
        for _ in 0..n {
            let lseq = r.get_u64()?;
            let flit = Flit::read_from(r)?;
            self.replay.push_back((lseq, flit));
        }
        let n = r.get_usize()?;
        self.fwd.clear();
        for _ in 0..n {
            let at = r.get_u64()?;
            let lseq = r.get_u64()?;
            let flit = Flit::read_from(r)?;
            let broken = r.get_bool()?;
            let crc = frame_crc(&flit, lseq) ^ if broken { 0xFFFF } else { 0 };
            let fref = arena.alloc(flit);
            self.fwd.push_back((at, LinkFlit { fref, lseq, crc }));
        }
        let n = r.get_usize()?;
        self.acks.clear();
        for _ in 0..n {
            let at = r.get_u64()?;
            let msg = match r.get_u8()? {
                0 => AckMsg::Ack(r.get_u64()?),
                1 => AckMsg::Nak(r.get_u64()?),
                _ => return Err(CodecError::Corrupt("ack tag")),
            };
            self.acks.push_back((at, msg));
        }
        let n = r.get_usize()?;
        self.delivered.clear();
        for _ in 0..n {
            let flit = Flit::read_from(r)?;
            self.delivered.push_back(arena.alloc(flit));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::DelayLine;
    use crate::packet::PacketId;
    use simkit::SimRng;

    /// Admits a flit and sends it; panics if the line refuses.
    fn send(line: &mut RetryLine, arena: &mut FlitArena, now: Cycle, f: Flit, corrupt: bool) {
        let fref = arena.alloc(f);
        assert!(line.try_send(now, fref, arena, corrupt));
    }

    fn flit(seq: u16) -> Flit {
        Flit::new(PacketId(3), seq, 0, false)
    }

    /// Run both lines lock-step with no corruption; deliveries must match
    /// cycle for cycle.
    #[test]
    fn error_free_matches_delay_line_cycle_for_cycle() {
        let mut arena = FlitArena::new();
        let mut plain = DelayLine::new(4, 2);
        let mut retry = RetryLine::new(4, 2, 64);
        let mut seq = 0u16;
        for now in 0..200u64 {
            retry.advance(now, &mut arena, &mut || false, &mut |_| {});
            let a: Vec<_> = std::iter::from_fn(|| plain.pop_ready(now)).collect();
            let mut b = Vec::new();
            retry.drain_delivered(|r| b.push(arena.free(r)));
            assert_eq!(a, b, "cycle {now}");
            if now % 3 != 2 {
                let n = plain.capacity(now).min(retry.capacity(now));
                assert_eq!(plain.capacity(now), retry.capacity(now), "cycle {now}");
                for _ in 0..n {
                    assert!(plain.try_send(now, flit(seq)));
                    send(&mut retry, &mut arena, now, flit(seq), false);
                    seq += 1;
                }
            }
        }
        assert_eq!(retry.retransmits(), 0);
        assert_eq!(retry.corrupt_seen(), 0);
    }

    #[test]
    fn single_corruption_is_replayed_in_order() {
        let mut arena = FlitArena::new();
        let mut line = RetryLine::new(3, 1, 64);
        // First transmission of flit 0 is corrupted on the wire.
        send(&mut line, &mut arena, 0, flit(0), true);
        send(&mut line, &mut arena, 1, flit(1), false);
        let mut got = Vec::new();
        let mut naks = 0;
        for now in 0..40u64 {
            line.advance(now, &mut arena, &mut || false, &mut |ev| {
                if ev == LinkEvent::RetryNak {
                    naks += 1;
                }
            });
            line.drain_delivered(|r| got.push(arena.free(r).seq));
        }
        assert_eq!(got, vec![0, 1]);
        assert_eq!(line.corrupt_seen(), 1);
        assert!(line.retransmits() >= 2, "go-back-N replays both frames");
        assert_eq!(naks, 1, "cooldown limits one burst to one NAK");
        assert_eq!(line.in_flight(), 0);
        assert_eq!(arena.in_flight(), 0, "every dropped frame retired");
    }

    #[test]
    fn random_corruption_delivers_exactly_once_in_order() {
        for seed in [1u64, 7, 42] {
            let mut arena = FlitArena::new();
            let mut rng = SimRng::seed(seed);
            let mut line = RetryLine::new(5, 2, 64);
            let mut sent = 0u16;
            let mut got = Vec::new();
            let total = 300u16;
            let mut now = 0u64;
            while got.len() < total as usize {
                line.advance(now, &mut arena, &mut || rng.chance(0.05), &mut |_| {});
                line.drain_delivered(|r| got.push(arena.free(r).seq));
                while sent < total && line.capacity(now) > 0 {
                    let corrupt = rng.chance(0.05);
                    send(&mut line, &mut arena, now, flit(sent), corrupt);
                    sent += 1;
                }
                now += 1;
                assert!(now < 100_000, "seed {seed}: no forward progress");
            }
            let expect: Vec<u16> = (0..total).collect();
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn timeout_recovers_when_nak_is_suppressed() {
        let mut arena = FlitArena::new();
        let mut line = RetryLine::new(2, 1, 16);
        // Two corrupt frames back to back: the first draws the only NAK of
        // the cooldown window; make that NAK's replay corrupt too, so only
        // the timeout can recover.
        send(&mut line, &mut arena, 0, flit(0), true);
        let mut timeouts = 0;
        let mut got = Vec::new();
        let mut first_retx_corrupted = false;
        for now in 0..200u64 {
            line.advance(
                now,
                &mut arena,
                &mut || {
                    if !first_retx_corrupted {
                        first_retx_corrupted = true;
                        true
                    } else {
                        false
                    }
                },
                &mut |ev| {
                    if ev == LinkEvent::RetryTimeout {
                        timeouts += 1;
                    }
                },
            );
            line.drain_delivered(|r| got.push(arena.free(r).seq));
        }
        assert_eq!(got, vec![0]);
        assert!(timeouts >= 1, "timeout must fire when NAKs are suppressed");
        assert_eq!(line.in_flight(), 0);
        assert_eq!(arena.in_flight(), 0);
    }

    #[test]
    fn rewind_blocks_new_sends_until_replay_completes() {
        let mut arena = FlitArena::new();
        let mut line = RetryLine::new(2, 2, 64);
        send(&mut line, &mut arena, 0, flit(0), true);
        send(&mut line, &mut arena, 0, flit(1), false);
        // Corruption detected at cycle 2, NAK arrives at 4, rewind starts.
        for now in 1..=4u64 {
            line.advance(now, &mut arena, &mut || false, &mut |_| {});
        }
        assert_eq!(line.capacity(4), 0, "replay owns the wire");
        let mut got = Vec::new();
        for now in 5..30u64 {
            line.advance(now, &mut arena, &mut || false, &mut |_| {});
            line.drain_delivered(|r| got.push(arena.free(r).seq));
        }
        assert_eq!(got, vec![0, 1]);
        assert!(line.capacity(30) > 0);
    }

    #[test]
    fn crc16_matches_reference_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    /// At every cycle of a lossy run, stepping `advance` at exactly the
    /// reported next-event cycle does the same thing stepping every cycle
    /// would — the bound is never later than the first actionable cycle.
    #[test]
    fn next_event_bound_is_never_late() {
        let mut arena = FlitArena::new();
        let mut rng = SimRng::seed(0x5EED);
        let mut line = RetryLine::new(4, 2, 32);
        let mut sent = 0u16;
        let mut got = Vec::new();
        let mut now = 0u64;
        while got.len() < 60 {
            let bound = line.next_event_at(now);
            if bound > now {
                // The line claims nothing happens before `bound`: a probe
                // advance one cycle early must neither deliver nor emit.
                let probe_at = (bound - 1).max(now);
                let mut fired = false;
                let mut probe = line.clone();
                probe.advance(probe_at, &mut arena, &mut || false, &mut |_| {
                    fired = true;
                });
                let mut delivered = 0;
                probe.drain_delivered(|r| {
                    arena.free(r);
                    delivered += 1;
                });
                assert!(!fired && delivered == 0, "cycle {now}: bound {bound} late");
            }
            line.advance(now, &mut arena, &mut || rng.chance(0.08), &mut |_| {});
            line.drain_delivered(|r| got.push(arena.free(r).seq));
            while sent < 60 && line.capacity(now) > 0 {
                let corrupt = rng.chance(0.08);
                send(&mut line, &mut arena, now, flit(sent), corrupt);
                sent += 1;
            }
            now += 1;
            assert!(now < 50_000, "no forward progress");
        }
        // Run the tail of the ack sideband dry, then the bound must relax
        // to "never".
        while line.in_flight() > 0 {
            line.advance(now, &mut arena, &mut || false, &mut |_| {});
            line.drain_delivered(|r| {
                arena.free(r);
            });
            now += 1;
            assert!(now < 50_000, "acks never drained");
        }
        assert_eq!(line.next_event_at(now), Cycle::MAX, "drained line is idle");
    }
}
