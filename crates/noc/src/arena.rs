//! Slab allocators for the simulator's hot path.
//!
//! The per-cycle pipeline moves enormous numbers of flits through router
//! buffers, delay lines and retry queues. [`Slab`] is the common
//! freelist-recycling store behind both the packet descriptors
//! ([`crate::packet::PacketStore`]) and the [`FlitArena`]: slots are
//! reused in LIFO order, so a long simulation touches a small, hot region
//! of memory and never allocates in steady state.
//!
//! [`FlitArena`] gives every in-flight flit a stable home and a copyable
//! 4-byte handle ([`FlitRef`]). Queues throughout the network hold
//! handles, not flit structs; the arena is the single place a flit's
//! fields live while it traverses routers and wires. A handle is
//! allocated at injection, freed at ejection (or when the flit leaves the
//! arena — posted to another shard, or dropped by the retry layer's
//! receiver), and never reused while its flit is still in
//! flight — the freelist discipline guarantees it, and the live counter
//! makes leaks observable: a drained network must report
//! [`FlitArena::in_flight`] of zero.

use crate::flit::Flit;
use simkit::codec::{ByteReader, ByteWriter, CodecError};

/// A recycling slab: values keep their index for life, freed indices are
/// reused LIFO.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<T>,
    free: Vec<u32>,
    live: usize,
    allocated_total: u64,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            allocated_total: 0,
        }
    }

    /// Stores `value`, recycling a freed slot when available, and returns
    /// its index.
    #[inline]
    pub fn alloc(&mut self, value: T) -> u32 {
        self.live += 1;
        self.allocated_total += 1;
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = value;
            i
        } else {
            self.slots.push(value);
            (self.slots.len() - 1) as u32
        }
    }

    /// The value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index was never allocated.
    #[inline]
    pub fn get(&self, index: u32) -> &T {
        &self.slots[index as usize]
    }

    /// Mutable access to the value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index was never allocated.
    #[inline]
    pub fn get_mut(&mut self, index: u32) -> &mut T {
        &mut self.slots[index as usize]
    }

    /// Releases `index` for reuse. The slot's value stays in place (and
    /// unreadable by contract) until the next [`Slab::alloc`] overwrites
    /// it.
    #[inline]
    pub fn free(&mut self, index: u32) {
        debug_assert!(!self.free.contains(&index), "double free of slot {index}");
        self.free.push(index);
        self.live -= 1;
    }

    /// Slots currently allocated and not freed.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total allocations ever made.
    #[inline]
    pub fn allocated_total(&self) -> u64 {
        self.allocated_total
    }

    /// Overwrites the lifetime-allocation counter (checkpoint restore).
    pub fn set_allocated_total(&mut self, v: u64) {
        self.allocated_total = v;
    }

    /// Serializes the slab exactly — slot array length, freelist order,
    /// lifetime counter and every *live* slot's value (via `f`). Free
    /// slots hold stale, contractually unreadable values, so they are
    /// not written.
    ///
    /// Exact freelist order matters when slot indices are observable:
    /// packet ids surface in traces, so `PacketStore` must recycle ids
    /// in the saved order to stay bit-identical after a restore.
    pub fn save_state_with(&self, w: &mut ByteWriter, mut f: impl FnMut(&T, &mut ByteWriter)) {
        w.put_usize(self.slots.len());
        w.put_usize(self.free.len());
        for &i in &self.free {
            w.put_u32(i);
        }
        w.put_u64(self.allocated_total);
        let mut is_free = vec![false; self.slots.len()];
        for &i in &self.free {
            is_free[i as usize] = true;
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if !is_free[i] {
                f(slot, w);
            }
        }
    }

    /// Rebuilds the slab from [`Self::save_state_with`] output. Free
    /// slots are filled with `dummy()` placeholders (never read before
    /// the next overwrite, by the slab contract).
    pub fn load_state_with(
        &mut self,
        r: &mut ByteReader,
        mut f: impl FnMut(&mut ByteReader) -> Result<T, CodecError>,
        dummy: impl Fn() -> T,
    ) -> Result<(), CodecError> {
        let slots = r.get_usize()?;
        let nfree = r.get_usize()?;
        if nfree > slots {
            return Err(CodecError::Corrupt("slab freelist length"));
        }
        let mut free = Vec::with_capacity(nfree);
        let mut is_free = vec![false; slots];
        for _ in 0..nfree {
            let i = r.get_u32()?;
            if (i as usize) >= slots || is_free[i as usize] {
                return Err(CodecError::Corrupt("slab freelist entry"));
            }
            is_free[i as usize] = true;
            free.push(i);
        }
        self.allocated_total = r.get_u64()?;
        self.slots.clear();
        for freed in &is_free {
            if *freed {
                self.slots.push(dummy());
            } else {
                self.slots.push(f(r)?);
            }
        }
        self.free = free;
        self.live = slots - nfree;
        Ok(())
    }
}

/// A copyable handle to a flit living in a [`FlitArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitRef(pub u32);

impl FlitRef {
    /// The raw slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The home of every in-flight flit.
///
/// # Examples
///
/// ```
/// use chiplet_noc::arena::FlitArena;
/// use chiplet_noc::flit::Flit;
/// use chiplet_noc::packet::PacketId;
///
/// let mut arena = FlitArena::new();
/// let f = Flit::new(PacketId(0), 0, 0, true);
/// let r = arena.alloc(f);
/// assert_eq!(arena.get(r), f);
/// arena.get_mut(r).vc = 1;
/// assert_eq!(arena.free(r).vc, 1);
/// assert_eq!(arena.in_flight(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlitArena {
    slab: Slab<Flit>,
}

impl FlitArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits `flit` into the arena and returns its handle.
    #[inline]
    pub fn alloc(&mut self, flit: Flit) -> FlitRef {
        FlitRef(self.slab.alloc(flit))
    }

    /// The flit behind `r` (copied out; flits are 8 bytes).
    #[inline]
    pub fn get(&self, r: FlitRef) -> Flit {
        *self.slab.get(r.0)
    }

    /// Mutable access to the flit behind `r` (the VC field is rewritten
    /// at every hop).
    #[inline]
    pub fn get_mut(&mut self, r: FlitRef) -> &mut Flit {
        self.slab.get_mut(r.0)
    }

    /// Retires `r`, returning its flit. The handle must not be used
    /// again.
    #[inline]
    pub fn free(&mut self, r: FlitRef) -> Flit {
        let f = *self.slab.get(r.0);
        self.slab.free(r.0);
        f
    }

    /// Flits currently in the arena. A drained network must be at zero.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.slab.live()
    }

    /// Total flits ever admitted.
    #[inline]
    pub fn allocated_total(&self) -> u64 {
        self.slab.allocated_total()
    }

    /// Overwrites the lifetime-admission counter.
    ///
    /// Flit handles are *not* observable (traces and results carry
    /// packet ids, never `FlitRef` values), so a checkpoint stores
    /// in-flight flits by value and re-admits them into fresh arenas on
    /// restore — which is what makes restoring at a different shard
    /// count possible. Only the global admission total is preserved,
    /// via this setter.
    pub fn set_allocated_total(&mut self, v: u64) {
        self.slab.set_allocated_total(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;

    fn flit(seq: u16) -> Flit {
        Flit::new(PacketId(1), seq, 0, false)
    }

    #[test]
    fn slab_recycles_lifo() {
        let mut s = Slab::new();
        let a = s.alloc(10);
        let b = s.alloc(20);
        assert_ne!(a, b);
        s.free(a);
        s.free(b);
        assert_eq!(s.alloc(30), b, "LIFO reuse");
        assert_eq!(s.alloc(40), a);
        assert_eq!(*s.get(a), 40);
        assert_eq!(s.live(), 2);
        assert_eq!(s.allocated_total(), 4);
    }

    #[test]
    fn live_handles_are_distinct() {
        let mut arena = FlitArena::new();
        let mut live = Vec::new();
        // Interleave allocs and frees; the live set must never contain a
        // duplicated handle and must track content faithfully.
        for round in 0..50u16 {
            live.push(arena.alloc(flit(round)));
            if round % 3 == 0 {
                let r = live.remove((round as usize * 7) % live.len());
                arena.free(r);
            }
            for (i, &a) in live.iter().enumerate() {
                for &b in &live[i + 1..] {
                    assert_ne!(a, b, "handle reuse while in flight");
                }
            }
        }
        assert_eq!(arena.in_flight(), live.len());
        for r in live.drain(..) {
            arena.free(r);
        }
        assert_eq!(arena.in_flight(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught() {
        let mut arena = FlitArena::new();
        let r = arena.alloc(flit(0));
        arena.free(r);
        arena.free(r);
    }
}
