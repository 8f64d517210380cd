//! Double-buffered cross-shard mailboxes.
//!
//! The sharded engine exchanges values between shards in two hops: a
//! producer accumulates messages in a *local* out-buffer during its phase
//! (zero synchronization), then flushes the whole buffer into its
//! `(producer, consumer)` slot with one lock acquisition; the consumer
//! drains all slots addressed to it in the *next* phase, after a barrier.
//! The out-buffer/slot pair is the double buffer: a slot is only ever
//! written in one phase and read in the other, so the per-slot mutexes
//! are never contended — they exist to make the container [`Sync`] and
//! to publish the buffered values across the barrier.
//!
//! Each consumer also has a pending-message count, bumped by every flush
//! or push addressed to it and dropped by its drain. An empty drain and
//! [`ShardMailbox::is_empty`] read only these counts and lock nothing, so
//! a one-shard engine, which never posts to itself, never takes a slot
//! lock. The slot locks are taken only where messages actually cross
//! shards, and by the checkpoint paths ([`ShardMailbox::push`],
//! [`ShardMailbox::for_each`], [`ShardMailbox::clear`]).
//!
//! Determinism: [`ShardMailbox::drain`] visits slots in ascending
//! producer order, so the consumer observes messages in an order that
//! depends only on the static shard layout — never on worker scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An `n × n` grid of single-producer/single-consumer message slots.
///
/// # Examples
///
/// ```
/// use chiplet_noc::mailbox::ShardMailbox;
///
/// let mail: ShardMailbox<u32> = ShardMailbox::new(2);
/// let mut out = vec![7, 8];
/// mail.append(1, 0, &mut out); // shard 1 flushes to shard 0
/// assert!(out.is_empty());
/// let mut got = Vec::new();
/// mail.drain(0, |producer, v| got.push((producer, v)));
/// assert_eq!(got, [(1, 7), (1, 8)]);
/// assert!(mail.is_empty());
/// ```
#[derive(Debug)]
pub struct ShardMailbox<T> {
    n: usize,
    slots: Vec<Mutex<Vec<T>>>,
    /// Messages buffered for each consumer, across all its slots. Each
    /// update is a `Release`, paired with the `Acquire` load in
    /// [`Self::drain`] and [`Self::is_empty`]; the slot mutex itself
    /// publishes the messages.
    pending: Vec<AtomicUsize>,
}

impl<T> ShardMailbox<T> {
    /// Creates an empty mailbox grid for `n` shards.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a mailbox needs at least one shard");
        Self {
            n,
            slots: (0..n * n).map(|_| Mutex::new(Vec::new())).collect(),
            pending: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Number of shards the grid was built for.
    pub fn shards(&self) -> usize {
        self.n
    }

    #[inline]
    fn slot(&self, producer: usize, consumer: usize) -> &Mutex<Vec<T>> {
        &self.slots[producer * self.n + consumer]
    }

    /// Flushes `buf` into the `(producer, consumer)` slot, leaving `buf`
    /// empty (capacity retained for reuse). One lock acquisition per
    /// flush, none when `buf` is empty.
    pub fn append(&self, producer: usize, consumer: usize, buf: &mut Vec<T>) {
        if buf.is_empty() {
            return;
        }
        let n = buf.len();
        self.slot(producer, consumer)
            .lock()
            .expect("mailbox slot poisoned")
            .append(buf);
        self.pending[consumer].fetch_add(n, Ordering::Release);
    }

    /// Drains every message addressed to `consumer`, visiting producers in
    /// ascending order and preserving each producer's send order. Costs
    /// one atomic load, and takes no lock, when nothing is pending.
    pub fn drain(&self, consumer: usize, mut f: impl FnMut(usize, T)) {
        if self.pending[consumer].load(Ordering::Acquire) == 0 {
            return;
        }
        let mut drained = 0;
        for producer in 0..self.n {
            let mut slot = self
                .slot(producer, consumer)
                .lock()
                .expect("mailbox slot poisoned");
            drained += slot.len();
            for msg in slot.drain(..) {
                f(producer, msg);
            }
        }
        self.pending[consumer].fetch_sub(drained, Ordering::Release);
    }

    /// Visits every buffered message without draining it, in ascending
    /// `(producer, consumer)` slot order, preserving each slot's send
    /// order. Checkpointing uses this to serialize in-transit messages
    /// (credits crossing the cycle boundary) non-destructively.
    pub fn for_each(&self, mut f: impl FnMut(usize, usize, &T)) {
        for producer in 0..self.n {
            for consumer in 0..self.n {
                let slot = self
                    .slot(producer, consumer)
                    .lock()
                    .expect("mailbox slot poisoned");
                for msg in slot.iter() {
                    f(producer, consumer, msg);
                }
            }
        }
    }

    /// Empties every slot (checkpoint restore overlays a fresh message
    /// population).
    pub fn clear(&self) {
        for (i, slot) in self.slots.iter().enumerate() {
            let mut slot = slot.lock().expect("mailbox slot poisoned");
            self.pending[i % self.n].fetch_sub(slot.len(), Ordering::Release);
            slot.clear();
        }
    }

    /// Pushes a single message into the `(producer, consumer)` slot
    /// (restore path; the hot path uses [`Self::append`]).
    pub fn push(&self, producer: usize, consumer: usize, msg: T) {
        self.slot(producer, consumer)
            .lock()
            .expect("mailbox slot poisoned")
            .push(msg);
        self.pending[consumer].fetch_add(1, Ordering::Release);
    }

    /// Messages currently buffered across all slots. Between engine
    /// cycles this must be zero (everything flushed in one phase is
    /// drained in the next).
    pub fn in_transit(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.lock().expect("mailbox slot poisoned").len())
            .sum()
    }

    /// Whether no message is buffered anywhere in the grid. Reads the
    /// per-consumer pending counts only; takes no lock.
    pub fn is_empty(&self) -> bool {
        self.pending.iter().all(|p| p.load(Ordering::Acquire) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_visits_producers_in_ascending_order() {
        let mail: ShardMailbox<u32> = ShardMailbox::new(3);
        // Flush out of producer order; drain must still come back sorted.
        mail.append(2, 1, &mut vec![20, 21]);
        mail.append(0, 1, &mut vec![1]);
        let mut got = Vec::new();
        mail.drain(1, |p, v| got.push((p, v)));
        assert_eq!(got, [(0, 1), (2, 20), (2, 21)]);
    }

    #[test]
    fn slots_are_pairwise_independent() {
        let mail: ShardMailbox<u8> = ShardMailbox::new(2);
        mail.append(0, 1, &mut vec![1]);
        mail.append(1, 0, &mut vec![2]);
        let mut to0 = Vec::new();
        mail.drain(0, |_, v| to0.push(v));
        assert_eq!(to0, [2]);
        assert_eq!(mail.in_transit(), 1, "the 0→1 message is untouched");
    }

    #[test]
    fn append_reuses_the_callers_buffer() {
        let mail: ShardMailbox<u64> = ShardMailbox::new(1);
        let mut buf = Vec::with_capacity(16);
        buf.extend([1, 2, 3]);
        let cap = buf.capacity();
        mail.append(0, 0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap, "flush drains, it does not realloc");
        assert_eq!(mail.in_transit(), 3);
    }

    #[test]
    fn is_empty_tracks_in_transit_through_every_operation() {
        let mail: ShardMailbox<u32> = ShardMailbox::new(3);
        let agrees = |mail: &ShardMailbox<u32>| {
            assert_eq!(mail.is_empty(), mail.in_transit() == 0);
        };
        agrees(&mail);
        assert!(mail.is_empty());
        mail.append(0, 2, &mut vec![1, 2, 3]);
        agrees(&mail);
        mail.append(1, 2, &mut Vec::new());
        agrees(&mail);
        // The restore path pushes one message at a time.
        mail.push(2, 1, 9);
        agrees(&mail);
        mail.push(1, 1, 8);
        agrees(&mail);
        mail.drain(2, |_, _| {});
        agrees(&mail);
        assert!(!mail.is_empty(), "consumer 1 still holds two messages");
        let mut got = Vec::new();
        mail.drain(1, |p, v| got.push((p, v)));
        assert_eq!(got, [(1, 8), (2, 9)]);
        agrees(&mail);
        assert!(mail.is_empty());
        mail.append(2, 0, &mut vec![4]);
        mail.push(0, 0, 5);
        agrees(&mail);
        mail.clear();
        agrees(&mail);
        assert!(mail.is_empty());
        // A drain with nothing pending visits nothing.
        mail.drain(0, |_, _| panic!("nothing was posted"));
        agrees(&mail);
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        let _ = ShardMailbox::<u8>::new(0);
    }
}
