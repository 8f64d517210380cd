//! The per-shard timing wheel for fixed-latency link traffic.
//!
//! A plain link is a pure delay: a flit sent at cycle `t` arrives at
//! `t + latency`, and a credit returned over any link arrives a fixed
//! credit latency later. Neither needs per-link state beyond the lane
//! budget, so a shard keeps all of them in one [`LinkWheel`]: buckets
//! indexed by due cycle modulo the wheel size, each holding the flits and
//! credits due then in the order they were sent. A cycle drains exactly
//! one bucket, and the next-event bound is the first non-empty bucket —
//! links with nothing due cost nothing.
//!
//! The wheel size is the largest latency among the built links, rounded
//! up to a power of two so a bucket index is a mask (21 cycles with the
//! default configuration, so 32 buckets). Every entry in a bucket is
//! then due on the bucket's next turn. Latencies beyond [`MAX_SLOTS`] do
//! not grow the wheel: such
//! an entry carries its due cycle and simply stays in its bucket for the
//! turns that come before it (draining keeps entries that are not yet
//! due), which bounds the wheel's memory for any configured latency.

use chiplet_noc::FlitRef;
use simkit::Cycle;

/// The most buckets a wheel has, whatever the configured latencies (a
/// power of two).
pub(crate) const MAX_SLOTS: u32 = 1024;

/// One entry: `item` travelling over link `link`, due at cycle `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Due<T> {
    pub at: Cycle,
    pub link: u32,
    pub item: T,
}

#[derive(Debug, Default)]
struct Slot {
    flits: Vec<Due<FlitRef>>,
    credits: Vec<Due<u8>>,
}

/// Every flit on a shard's plain links and every credit on its way back
/// to one of the shard's transmitters, bucketed by due cycle.
///
/// The default wheel has no buckets and holds nothing; it only stands in
/// while a shard lends its wheel out.
#[derive(Debug, Default)]
pub(crate) struct LinkWheel {
    slots: Vec<Slot>,
    flits: usize,
    credits: usize,
}

impl LinkWheel {
    /// A wheel for links whose longest latency is `max_latency` cycles.
    pub fn new(max_latency: u32) -> Self {
        let n = max_latency.clamp(1, MAX_SLOTS).next_power_of_two();
        Self {
            slots: (0..n).map(|_| Slot::default()).collect(),
            flits: 0,
            credits: 0,
        }
    }

    #[inline]
    fn slot(&mut self, at: Cycle) -> &mut Slot {
        let mask = self.slots.len() - 1;
        &mut self.slots[at as usize & mask]
    }

    /// Flits in flight on plain links.
    pub fn flits(&self) -> usize {
        self.flits
    }

    /// Schedules flit `fref` to arrive over `link` at cycle `at`.
    #[inline]
    pub fn push_flit(&mut self, at: Cycle, link: u32, fref: FlitRef) {
        self.slot(at).flits.push(Due {
            at,
            link,
            item: fref,
        });
        self.flits += 1;
    }

    /// Schedules a credit for `vc` to reach `link`'s transmitter at `at`.
    #[inline]
    pub fn push_credit(&mut self, at: Cycle, link: u32, vc: u8) {
        self.slot(at).credits.push(Due { at, link, item: vc });
        self.credits += 1;
    }

    /// Hands every flit due at or before `now` in this cycle's bucket to
    /// `f` as `(link, flit)`, in send order.
    #[inline]
    pub fn drain_flits(&mut self, now: Cycle, mut f: impl FnMut(u32, FlitRef)) {
        let due = &mut self.slot(now).flits;
        let before = due.len();
        due.retain(|d| {
            if d.at > now {
                return true;
            }
            f(d.link, d.item);
            false
        });
        let drained = before - due.len();
        self.flits -= drained;
    }

    /// Hands every credit due at or before `now` in this cycle's bucket
    /// to `f` as `(link, vc)`, in send order.
    #[inline]
    pub fn drain_credits(&mut self, now: Cycle, mut f: impl FnMut(u32, u8)) {
        let due = &mut self.slot(now).credits;
        let before = due.len();
        due.retain(|d| {
            if d.at > now {
                return true;
            }
            f(d.link, d.item);
            false
        });
        let drained = before - due.len();
        self.credits -= drained;
    }

    /// A lower bound on the earliest due cycle, never below `now`, or
    /// [`Cycle::MAX`] when the wheel is empty: the first non-empty bucket
    /// at or after `now`. Exact while no latency exceeds the wheel size.
    pub fn next_due(&self, now: Cycle) -> Cycle {
        if self.flits + self.credits == 0 {
            return Cycle::MAX;
        }
        let mask = self.slots.len() - 1;
        (now..now + self.slots.len() as Cycle)
            .find(|&at| {
                let s = &self.slots[at as usize & mask];
                !s.flits.is_empty() || !s.credits.is_empty()
            })
            .unwrap_or(Cycle::MAX)
    }

    /// Every flit entry, in no particular cross-bucket order but in send
    /// order within a bucket (checkpoint and invariant accounting).
    pub fn flit_entries(&self) -> impl Iterator<Item = &Due<FlitRef>> {
        self.slots.iter().flat_map(|s| &s.flits)
    }

    /// Every credit entry, ordered like [`Self::flit_entries`].
    pub fn credit_entries(&self) -> impl Iterator<Item = &Due<u8>> {
        self.slots.iter().flat_map(|s| &s.credits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_noc::{Flit, FlitArena, PacketId};

    fn handles(n: u16) -> Vec<FlitRef> {
        let mut arena = FlitArena::new();
        (0..n)
            .map(|seq| {
                arena.alloc(Flit {
                    pid: PacketId(0),
                    seq,
                    vc: 0,
                    last: false,
                })
            })
            .collect()
    }

    #[test]
    fn entries_arrive_on_their_cycle_in_send_order() {
        let mut w = LinkWheel::new(4);
        let h = handles(3);
        w.push_flit(13, 7, h[0]);
        w.push_credit(12, 2, 1);
        w.push_flit(13, 3, h[1]);
        w.push_flit(14, 7, h[2]);
        w.push_credit(12, 2, 0);
        assert_eq!(w.next_due(11), 12);
        let mut got = Vec::new();
        w.drain_credits(11, |l, vc| got.push((l, vc)));
        assert!(got.is_empty());
        w.drain_credits(12, |l, vc| got.push((l, vc)));
        assert_eq!(got, vec![(2, 1), (2, 0)]);
        assert_eq!(w.next_due(13), 13);
        let mut flits = Vec::new();
        w.drain_flits(13, |l, f| flits.push((l, f)));
        assert_eq!(flits, vec![(7, h[0]), (3, h[1])]);
        assert_eq!(w.flits(), 1);
        w.drain_flits(14, |l, f| flits.push((l, f)));
        assert_eq!(flits.last(), Some(&(7, h[2])));
        assert_eq!(w.next_due(15), Cycle::MAX);
    }

    #[test]
    fn latencies_beyond_the_ceiling_keep_memory_bounded_and_arrive_on_time() {
        // A latency far past the ceiling must not size the wheel by it.
        let mut w = LinkWheel::new(u32::MAX);
        assert_eq!(w.slots.len(), MAX_SLOTS as usize);
        let h = handles(2);
        let far = 5 * MAX_SLOTS as Cycle + 3;
        w.push_flit(far, 1, h[0]);
        w.push_flit(3, 2, h[1]);
        w.push_credit(far + 1, 1, 0);
        let mut seen = Vec::new();
        let mut credits = Vec::new();
        let mut now = 0;
        // Walk the skip loop's way: jump to each bound, drain, repeat.
        while w.flits() + w.credits > 0 {
            now = w.next_due(now);
            assert!(now <= far + 1, "the bound is never late");
            w.drain_credits(now, |l, vc| credits.push((now, l, vc)));
            w.drain_flits(now, |l, f| seen.push((now, l, f)));
            now += 1;
        }
        assert_eq!(seen, vec![(3, 2, h[1]), (far, 1, h[0])]);
        assert_eq!(credits, vec![(far + 1, 1, 0)]);
    }
}
