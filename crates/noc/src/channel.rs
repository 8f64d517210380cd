//! Behavioral channel models.
//!
//! §7.1 of the paper models off-chip interfaces as "multiple virtual
//! pipeline registers" in the on-chip clock domain: the larger the
//! bandwidth, the more concurrency (lanes); the larger the latency, the
//! more pipeline stages. [`DelayLine`] implements exactly that: at most
//! `bandwidth` flits may enter per cycle, and each emerges `latency` cycles
//! later, in order. [`CreditLine`] is the reverse-direction twin carrying
//! credits, with the same latency — this reproduces the cross-chiplet
//! flow-control feedback lag the paper compensates with larger interface
//! buffers.

use crate::flit::Flit;
use simkit::codec::{ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use simkit::Cycle;
use std::collections::VecDeque;

/// A fixed-latency, bandwidth-limited, in-order flit pipeline.
///
/// Generic over the payload so it can carry flit structs directly or the
/// 4-byte [`crate::arena::FlitRef`] handles the engine's hot path uses;
/// anything `Copy` works.
///
/// # Examples
///
/// ```
/// use chiplet_noc::channel::DelayLine;
/// use chiplet_noc::flit::Flit;
/// use chiplet_noc::packet::PacketId;
///
/// let mut line = DelayLine::new(5, 2);
/// let f = Flit { pid: PacketId(0), seq: 0, vc: 0, last: true };
/// assert!(line.try_send(10, f));
/// assert!(line.pop_ready(14).is_none());
/// assert_eq!(line.pop_ready(15), Some(f));
/// ```
#[derive(Debug, Clone)]
pub struct DelayLine<T: Copy = Flit> {
    latency: u32,
    bandwidth: u8,
    q: VecDeque<(Cycle, T)>,
    sent_cycle: Cycle,
    sent_count: u8,
}

impl<T: Copy> DelayLine<T> {
    /// Creates a line with `latency` cycles of delay and `bandwidth` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0` or `bandwidth == 0`.
    pub fn new(latency: u32, bandwidth: u8) -> Self {
        assert!(latency > 0, "a channel has at least one cycle of latency");
        assert!(bandwidth > 0, "a channel has at least one lane");
        Self {
            latency,
            bandwidth,
            q: VecDeque::new(),
            sent_cycle: Cycle::MAX,
            sent_count: 0,
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

    /// How many more flits can enter at cycle `now`.
    pub fn capacity(&self, now: Cycle) -> u8 {
        if self.sent_cycle == now {
            self.bandwidth - self.sent_count
        } else {
            self.bandwidth
        }
    }

    /// Enqueues `flit` at cycle `now` if a lane is free; returns whether it
    /// was accepted.
    pub fn try_send(&mut self, now: Cycle, flit: T) -> bool {
        if self.sent_cycle != now {
            self.sent_cycle = now;
            self.sent_count = 0;
        }
        if self.sent_count >= self.bandwidth {
            return false;
        }
        self.sent_count += 1;
        self.q.push_back((now + self.latency as Cycle, flit));
        true
    }

    /// Pops the next flit whose delivery time has arrived, if any.
    #[inline]
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        match self.q.front() {
            Some(&(at, _)) if at <= now => self.q.pop_front().map(|(_, f)| f),
            _ => None,
        }
    }

    /// The next flit whose delivery time has arrived, left in the line.
    #[inline]
    pub fn peek_ready(&self, now: Cycle) -> Option<&T> {
        match self.q.front() {
            Some((at, t)) if *at <= now => Some(t),
            _ => None,
        }
    }

    /// Delivers every flit whose time has arrived to `sink`, in order.
    ///
    /// Equivalent to looping [`Self::pop_ready`], as a single call site
    /// for per-hop accounting (the engine counts and traces each
    /// delivery as a flit hop).
    pub fn drain_ready(&mut self, now: Cycle, mut sink: impl FnMut(T)) {
        while let Some(flit) = self.pop_ready(now) {
            sink(flit);
        }
    }

    /// Flits currently in flight.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.q.len()
    }

    /// The cycle the earliest queued flit becomes deliverable, or
    /// [`Cycle::MAX`] when the line is empty. The fixed latency makes the
    /// queue nondecreasing in arrival time, so the front is the minimum —
    /// this is the line's contribution to the engine's next-event bound.
    #[inline]
    pub fn next_ready_at(&self) -> Cycle {
        self.q.front().map_or(Cycle::MAX, |&(at, _)| at)
    }

    /// Iterates the queued payloads in delivery order (checkpoint and
    /// invariant accounting; does not consume).
    pub fn iter_in_flight(&self) -> impl Iterator<Item = &T> {
        self.q.iter().map(|(_, t)| t)
    }

    /// Serializes the line's dynamic state, writing each queued payload
    /// via `f`. Latency and bandwidth are static config, rebuilt by the
    /// restore target, not saved.
    pub fn save_state_with(&self, w: &mut ByteWriter, mut f: impl FnMut(&T, &mut ByteWriter)) {
        w.put_u64(self.sent_cycle);
        w.put_u8(self.sent_count);
        w.put_usize(self.q.len());
        for (at, t) in &self.q {
            w.put_u64(*at);
            f(t, w);
        }
    }

    /// Overlays state written by [`Self::save_state_with`], reading each
    /// payload via `f`.
    pub fn load_state_with(
        &mut self,
        r: &mut ByteReader,
        mut f: impl FnMut(&mut ByteReader) -> Result<T, CodecError>,
    ) -> Result<(), CodecError> {
        self.sent_cycle = r.get_u64()?;
        self.sent_count = r.get_u8()?;
        let n = r.get_usize()?;
        self.q.clear();
        for _ in 0..n {
            let at = r.get_u64()?;
            let t = f(r)?;
            self.q.push_back((at, t));
        }
        Ok(())
    }
}

/// The reverse-direction credit pipeline of a link.
///
/// Carries `(vc)` tokens back to the transmitter with the link's latency.
#[derive(Debug, Clone)]
pub struct CreditLine {
    latency: u32,
    q: VecDeque<(Cycle, u8)>,
}

impl CreditLine {
    /// Creates a credit line with `latency` cycles of delay.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`.
    pub fn new(latency: u32) -> Self {
        assert!(latency > 0, "credit return takes at least one cycle");
        Self {
            latency,
            q: VecDeque::new(),
        }
    }

    /// Sends one credit for `vc` at cycle `now` (credits are never dropped).
    #[inline]
    pub fn send(&mut self, now: Cycle, vc: u8) {
        self.q.push_back((now + self.latency as Cycle, vc));
    }

    /// Pops the next credit whose arrival time has come, if any.
    #[inline]
    pub fn pop_ready(&mut self, now: Cycle) -> Option<u8> {
        match self.q.front() {
            Some(&(at, _)) if at <= now => self.q.pop_front().map(|(_, vc)| vc),
            _ => None,
        }
    }

    /// Credits currently in flight.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.q.len()
    }

    /// The cycle the earliest pending credit arrives, or [`Cycle::MAX`]
    /// when none is pending (next-event bound; see
    /// [`DelayLine::next_ready_at`]).
    #[inline]
    pub fn next_ready_at(&self) -> Cycle {
        self.q.front().map_or(Cycle::MAX, |&(at, _)| at)
    }

    /// Iterates pending credits as `(arrival cycle, vc)` in order.
    pub fn iter_pending(&self) -> impl Iterator<Item = &(Cycle, u8)> {
        self.q.iter()
    }
}

impl SaveState for CreditLine {
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.q.len());
        for &(at, vc) in &self.q {
            w.put_u64(at);
            w.put_u8(vc);
        }
    }
}

impl LoadState for CreditLine {
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        let n = r.get_usize()?;
        self.q.clear();
        for _ in 0..n {
            let at = r.get_u64()?;
            let vc = r.get_u8()?;
            self.q.push_back((at, vc));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;

    fn flit(seq: u16) -> Flit {
        Flit {
            pid: PacketId(9),
            seq,
            vc: 1,
            last: false,
        }
    }

    #[test]
    fn bandwidth_limits_per_cycle() {
        let mut line = DelayLine::new(3, 2);
        assert_eq!(line.capacity(0), 2);
        assert!(line.try_send(0, flit(0)));
        assert!(line.try_send(0, flit(1)));
        assert_eq!(line.capacity(0), 0);
        assert!(!line.try_send(0, flit(2)));
        // Next cycle the lanes free up.
        assert_eq!(line.capacity(1), 2);
        assert!(line.try_send(1, flit(2)));
    }

    #[test]
    fn delivery_is_in_order_after_latency() {
        let mut line = DelayLine::new(4, 2);
        line.try_send(0, flit(0));
        line.try_send(0, flit(1));
        line.try_send(1, flit(2));
        assert!(line.pop_ready(3).is_none());
        assert_eq!(line.pop_ready(4).unwrap().seq, 0);
        assert_eq!(line.pop_ready(4).unwrap().seq, 1);
        assert!(line.pop_ready(4).is_none()); // flit 2 arrives at 5
        assert_eq!(line.pop_ready(5).unwrap().seq, 2);
        assert_eq!(line.in_flight(), 0);
    }

    #[test]
    fn late_pop_still_delivers_in_order() {
        let mut line = DelayLine::new(1, 4);
        for s in 0..4 {
            line.try_send(0, flit(s));
        }
        let seqs: Vec<_> = std::iter::from_fn(|| line.pop_ready(100))
            .map(|f| f.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drain_ready_matches_pop_ready() {
        let mut a = DelayLine::new(2, 4);
        let mut b = a.clone();
        for s in 0..3 {
            a.try_send(0, flit(s));
            b.try_send(0, flit(s));
        }
        let mut drained = Vec::new();
        a.drain_ready(2, |f| drained.push(f.seq));
        let popped: Vec<_> = std::iter::from_fn(|| b.pop_ready(2))
            .map(|f| f.seq)
            .collect();
        assert_eq!(drained, popped);
        assert_eq!(drained, vec![0, 1, 2]);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn credit_line_roundtrip() {
        let mut c = CreditLine::new(5);
        c.send(10, 1);
        c.send(10, 0);
        assert!(c.pop_ready(14).is_none());
        assert_eq!(c.pop_ready(15), Some(1));
        assert_eq!(c.pop_ready(15), Some(0));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_latency_rejected() {
        DelayLine::<Flit>::new(0, 1);
    }

    #[test]
    fn next_ready_at_tracks_the_front() {
        let mut line = DelayLine::new(4, 2);
        assert_eq!(line.next_ready_at(), Cycle::MAX);
        line.try_send(10, flit(0));
        line.try_send(12, flit(1));
        assert_eq!(line.next_ready_at(), 14);
        assert_eq!(line.pop_ready(14).unwrap().seq, 0);
        assert_eq!(line.next_ready_at(), 16);
        let mut c = CreditLine::new(3);
        assert_eq!(c.next_ready_at(), Cycle::MAX);
        c.send(5, 1);
        assert_eq!(c.next_ready_at(), 8);
    }
}
