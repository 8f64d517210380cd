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
//! then due on the bucket's next turn, so such an *exact* wheel drains a
//! bucket whole, in send order, without looking at the due cycles.
//! Latencies beyond [`MAX_SLOTS`] do not grow the wheel: such an entry
//! carries its due cycle and simply stays in its bucket for the turns
//! that come before it (the drain of a wheel built for them keeps
//! entries that are not yet due), which bounds the wheel's memory for
//! any configured latency.

use chiplet_noc::FlitRef;
use simkit::codec::CodecError;
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
    /// Whether every built latency fits the wheel: each entry is then
    /// due on its bucket's next turn and a drain takes the whole bucket.
    exact: bool,
    flits: usize,
    credits: usize,
}

impl LinkWheel {
    /// A wheel for links whose longest latency is `max_latency` cycles.
    pub fn new(max_latency: u32) -> Self {
        let n = max_latency.clamp(1, MAX_SLOTS).next_power_of_two();
        Self {
            slots: (0..n).map(|_| Slot::default()).collect(),
            exact: max_latency <= MAX_SLOTS,
            flits: 0,
            credits: 0,
        }
    }

    #[inline]
    fn slot(&mut self, at: Cycle) -> &mut Slot {
        let mask = self.slots.len() - 1;
        &mut self.slots[at as usize & mask]
    }

    /// Checks the due cycle `at` of an entry about to be restored into a
    /// run paused at cycle `now`: nothing can be due before `now`, and on
    /// an exact wheel nothing a full turn or more ahead (it would surface
    /// a turn early).
    pub fn check_restored(&self, now: Cycle, at: Cycle) -> Result<(), CodecError> {
        if at < now {
            return Err(CodecError::Corrupt(
                "link entry due before the checkpoint cycle",
            ));
        }
        if self.exact && at - now >= self.slots.len() as Cycle {
            return Err(CodecError::Corrupt(
                "link entry due beyond the wheel's span",
            ));
        }
        Ok(())
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
    pub fn drain_flits(&mut self, now: Cycle, f: impl FnMut(u32, FlitRef)) {
        let mask = self.slots.len() - 1;
        let due = &mut self.slots[now as usize & mask].flits;
        self.flits -= drain_due(due, now, self.exact, f);
    }

    /// Hands every credit due at or before `now` in this cycle's bucket
    /// to `f` as `(link, vc)`, in send order.
    #[inline]
    pub fn drain_credits(&mut self, now: Cycle, f: impl FnMut(u32, u8)) {
        let mask = self.slots.len() - 1;
        let due = &mut self.slots[now as usize & mask].credits;
        self.credits -= drain_due(due, now, self.exact, f);
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

/// Hands the entries of bucket `due` that are due at `now` to `f` in
/// send order and returns how many it handed over. On an `exact` wheel
/// that is the whole bucket; otherwise entries for a later turn stay.
#[inline]
fn drain_due<T: Copy>(
    due: &mut Vec<Due<T>>,
    now: Cycle,
    exact: bool,
    mut f: impl FnMut(u32, T),
) -> usize {
    let before = due.len();
    if exact {
        for d in due.drain(..) {
            debug_assert_eq!(d.at, now, "an exact wheel holds one turn");
            f(d.link, d.item);
        }
        return before;
    }
    due.retain(|d| {
        if d.at > now {
            return true;
        }
        f(d.link, d.item);
        false
    });
    before - due.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_noc::{Flit, FlitArena, PacketId};

    fn handles(n: u16) -> Vec<FlitRef> {
        let mut arena = FlitArena::new();
        (0..n)
            .map(|seq| arena.alloc(Flit::new(PacketId(0), seq, 0, false)))
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
    fn an_exact_wheel_drains_whole_buckets_in_send_order() {
        let mut w = LinkWheel::new(21);
        assert!(w.exact, "default latencies fit the wheel");
        assert_eq!(w.slots.len(), 32);
        let h = handles(4);
        // Interleave links and kinds; a bucket keeps each kind in send
        // order, whichever link an entry travels.
        w.push_flit(40, 9, h[0]);
        w.push_credit(40, 2, 3);
        w.push_flit(40, 1, h[1]);
        w.push_flit(41, 1, h[2]);
        w.push_credit(40, 7, 0);
        w.push_flit(40, 9, h[3]);
        w.push_credit(40, 2, 1);
        let mut flits = Vec::new();
        let mut credits = Vec::new();
        w.drain_credits(40, |l, vc| credits.push((l, vc)));
        w.drain_flits(40, |l, f| flits.push((l, f)));
        assert_eq!(flits, vec![(9, h[0]), (1, h[1]), (9, h[3])]);
        assert_eq!(credits, vec![(2, 3), (7, 0), (2, 1)]);
        assert_eq!((w.flits(), w.credits), (1, 0));
        assert_eq!(w.next_due(41), 41);
        w.drain_flits(41, |l, f| flits.push((l, f)));
        assert_eq!(flits.last(), Some(&(1, h[2])));
        assert_eq!(w.next_due(42), Cycle::MAX);
    }

    #[test]
    fn restore_refuses_entries_the_wheel_cannot_keep() {
        let w = LinkWheel::new(21);
        let span = w.slots.len() as Cycle;
        // One turn ahead is the farthest a saved entry can be due.
        assert_eq!(w.check_restored(100, 100), Ok(()));
        assert_eq!(w.check_restored(100, 100 + span - 1), Ok(()));
        assert_eq!(
            w.check_restored(100, 99),
            Err(CodecError::Corrupt(
                "link entry due before the checkpoint cycle"
            ))
        );
        assert_eq!(
            w.check_restored(100, 100 + span),
            Err(CodecError::Corrupt(
                "link entry due beyond the wheel's span"
            ))
        );
        // A wheel built for latencies past the ceiling keeps far entries.
        let far = LinkWheel::new(u32::MAX);
        assert!(!far.exact);
        assert_eq!(
            far.check_restored(100, 100 + 7 * MAX_SLOTS as Cycle),
            Ok(())
        );
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
