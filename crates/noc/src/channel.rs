//! Behavioral channel models.
//!
//! §7.1 of the paper models off-chip interfaces as "multiple virtual
//! pipeline registers" in the on-chip clock domain: the larger the
//! bandwidth, the more concurrency (lanes); the larger the latency, the
//! more pipeline stages. [`DelayLine`] implements exactly that: at most
//! `bandwidth` flits may enter per cycle, and each emerges `latency` cycles
//! later, in order. [`Lanes`] is its entry half alone — the per-cycle lane
//! budget and the latency — for a caller that keeps the flits in flight
//! somewhere else (the engine holds every plain link's flits, and every
//! link's returning credits, in one per-shard timing wheel).

use crate::flit::Flit;
use simkit::codec::{ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use simkit::Cycle;
use std::collections::VecDeque;

/// The lane accounting of a fixed-latency link: how many flits may still
/// enter this cycle, and how many cycles each one takes to arrive.
///
/// # Examples
///
/// ```
/// use chiplet_noc::channel::Lanes;
///
/// let mut lanes = Lanes::new(5, 2);
/// assert_eq!(lanes.try_take(10), Some(15));
/// assert_eq!(lanes.try_take(10), Some(15));
/// assert_eq!(lanes.try_take(10), None, "both lanes used this cycle");
/// assert_eq!(lanes.capacity(11), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Lanes {
    latency: u32,
    bandwidth: u8,
    sent_cycle: Cycle,
    sent_count: u8,
}

impl Lanes {
    /// Creates `bandwidth` lanes of `latency` cycles.
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

    /// Takes one lane at cycle `now` if one is free, returning the cycle
    /// the flit entering it arrives.
    #[inline]
    pub fn try_take(&mut self, now: Cycle) -> Option<Cycle> {
        if self.sent_cycle != now {
            self.sent_cycle = now;
            self.sent_count = 0;
        }
        if self.sent_count >= self.bandwidth {
            return None;
        }
        self.sent_count += 1;
        Some(now + self.latency as Cycle)
    }
}

impl SaveState for Lanes {
    /// The dynamic half only; latency and bandwidth are static config the
    /// restore target rebuilds.
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.sent_cycle);
        w.put_u8(self.sent_count);
    }
}

impl LoadState for Lanes {
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        self.sent_cycle = r.get_u64()?;
        self.sent_count = r.get_u8()?;
        Ok(())
    }
}

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
/// let f = Flit::new(PacketId(0), 0, 0, true);
/// assert!(line.try_send(10, f));
/// assert!(line.pop_ready(14).is_none());
/// assert_eq!(line.pop_ready(15), Some(f));
/// ```
#[derive(Debug, Clone)]
pub struct DelayLine<T: Copy = Flit> {
    lanes: Lanes,
    q: VecDeque<(Cycle, T)>,
}

impl<T: Copy> DelayLine<T> {
    /// Creates a line with `latency` cycles of delay and `bandwidth` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0` or `bandwidth == 0`.
    pub fn new(latency: u32, bandwidth: u8) -> Self {
        Self {
            lanes: Lanes::new(latency, bandwidth),
            q: VecDeque::new(),
        }
    }

    /// The configured latency in cycles.
    pub fn latency(&self) -> u32 {
        self.lanes.latency()
    }

    /// The configured bandwidth in flits/cycle.
    pub fn bandwidth(&self) -> u8 {
        self.lanes.bandwidth()
    }

    /// How many more flits can enter at cycle `now`.
    pub fn capacity(&self, now: Cycle) -> u8 {
        self.lanes.capacity(now)
    }

    /// Enqueues `flit` at cycle `now` if a lane is free; returns whether it
    /// was accepted.
    pub fn try_send(&mut self, now: Cycle, flit: T) -> bool {
        match self.lanes.try_take(now) {
            Some(at) => {
                self.q.push_back((at, flit));
                true
            }
            None => false,
        }
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

    /// Flits currently in flight.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.q.len()
    }

    /// Serializes the line's dynamic state, writing each queued payload
    /// via `f`. Latency and bandwidth are static config, rebuilt by the
    /// restore target, not saved.
    pub fn save_state_with(&self, w: &mut ByteWriter, mut f: impl FnMut(&T, &mut ByteWriter)) {
        self.lanes.save_state(w);
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
        self.lanes.load_state(r)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;

    fn flit(seq: u16) -> Flit {
        Flit::new(PacketId(9), seq, 1, false)
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
    #[should_panic]
    fn zero_latency_rejected() {
        DelayLine::<Flit>::new(0, 1);
    }
}
