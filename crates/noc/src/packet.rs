//! Packet descriptors and their recycled store.
//!
//! Flits carry a [`PacketId`] and their own link-traversal counts; the
//! descriptor holds routing state, timestamps and the per-class flit-hop
//! totals the energy model (§8.3) aggregates. Descriptor slots are
//! recycled after the tail flit is ejected, so long simulations run in
//! bounded memory.
//!
//! Identity fields (`src`, `dst`, `len`, `class`, `priority`, `created`)
//! are plain — they are fixed at allocation. The few fields written
//! while the packet is in flight are atomics, so the sharded engine's
//! workers can reach descriptors through a shared `&PacketStore`, but
//! each has exactly one writer and is written with a plain store:
//! `injected` by the source shard at injection, `baseline_locked`
//! monotonically by whichever router falls back to the baseline route,
//! and the hop totals plus `ejected` by the destination shard alone, in
//! [`PacketInfo::eject`]. A flit counts its own hops on the way (see
//! [`Flit`]), and ejection — in flit order, at one node — folds each
//! flit's counts into the totals, so no shard read-modify-writes a
//! descriptor another shard can touch. Relaxed ordering suffices
//! because every cross-shard read is separated from the writes by a
//! cycle barrier.

use crate::arena::Slab;
use crate::flit::{Flit, OrderClass, Priority};
use chiplet_topo::{NodeId, RouteState};
use simkit::codec::{ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use simkit::Cycle;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, Ordering};

/// Identifier of a live packet; an index into the [`PacketStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u32);

impl PacketId {
    /// The raw slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Everything the network needs to know about one packet.
#[derive(Debug)]
pub struct PacketInfo {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits (≥ 1).
    pub len: u16,
    /// Ordering class (reorder-buffer vs bypass at hetero-PHY receivers).
    pub class: OrderClass,
    /// Scheduling priority.
    pub priority: Priority,
    /// Cycle the workload created the packet (queueing included in latency).
    pub created: Cycle,
    /// Workload phase tag (0 = untagged). Phase-graph workloads stamp
    /// their packets so deliveries can be attributed back to the emitting
    /// phase; synthetic and trace traffic leaves it 0.
    pub tag: u16,
    /// Cycle the head flit entered the source router (written once by the
    /// source shard at injection).
    pub injected: AtomicU64,
    /// Algorithm 1's baseline lock (monotonic false→true).
    pub baseline_locked: AtomicBool,
    /// Hops taken by the head flit (set when the head ejects).
    pub hops: AtomicU32,
    /// Flit-traversals over on-chip links, by the flits ejected so far.
    pub onchip_flits: AtomicU32,
    /// Flit-traversals over parallel interface PHYs, by the flits
    /// ejected so far.
    pub parallel_flits: AtomicU32,
    /// Flit-traversals over serial interface PHYs, by the flits ejected
    /// so far.
    pub serial_flits: AtomicU32,
    /// Flits ejected at the destination so far.
    pub ejected: AtomicU16,
}

impl PacketInfo {
    /// Creates a descriptor for a packet generated at `created`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        len: u16,
        class: OrderClass,
        priority: Priority,
        created: Cycle,
    ) -> Self {
        assert!(len >= 1, "packets have at least one flit");
        Self {
            src,
            dst,
            len,
            class,
            priority,
            created,
            tag: 0,
            injected: AtomicU64::new(0),
            baseline_locked: AtomicBool::new(false),
            hops: AtomicU32::new(0),
            onchip_flits: AtomicU32::new(0),
            parallel_flits: AtomicU32::new(0),
            serial_flits: AtomicU32::new(0),
            ejected: AtomicU16::new(0),
        }
    }

    /// Sets the workload phase tag.
    pub fn with_tag(mut self, tag: u16) -> Self {
        self.tag = tag;
        self
    }

    /// Ejects `flit` at the destination: folds its hop counts into the
    /// totals (the head's also into `hops`) and counts it ejected.
    /// Returns how many flits had ejected before it.
    ///
    /// Only the destination shard calls this, one flit at a time, so
    /// plain loads and stores suffice (see the module docs).
    #[inline]
    pub fn eject(&self, flit: &Flit) -> u16 {
        let fold = |total: &AtomicU32, n: u32| {
            total.store(total.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        };
        let [onchip, parallel, serial] = flit.hops.map(u32::from);
        fold(&self.onchip_flits, onchip);
        fold(&self.parallel_flits, parallel);
        fold(&self.serial_flits, serial);
        if flit.is_head() {
            fold(&self.hops, onchip + parallel + serial);
        }
        let prev = self.ejected.load(Ordering::Relaxed);
        self.ejected.store(prev + 1, Ordering::Relaxed);
        prev
    }

    /// The livelock/deadlock routing state (Algorithm 1's baseline lock)
    /// as the value type the routing layer consumes.
    #[inline]
    pub fn route_state(&self) -> RouteState {
        RouteState {
            baseline_locked: self.baseline_locked.load(Ordering::Relaxed),
        }
    }
}

impl Clone for PacketInfo {
    fn clone(&self) -> Self {
        Self {
            src: self.src,
            dst: self.dst,
            len: self.len,
            class: self.class,
            priority: self.priority,
            created: self.created,
            tag: self.tag,
            injected: AtomicU64::new(self.injected.load(Ordering::Relaxed)),
            baseline_locked: AtomicBool::new(self.baseline_locked.load(Ordering::Relaxed)),
            hops: AtomicU32::new(self.hops.load(Ordering::Relaxed)),
            onchip_flits: AtomicU32::new(self.onchip_flits.load(Ordering::Relaxed)),
            parallel_flits: AtomicU32::new(self.parallel_flits.load(Ordering::Relaxed)),
            serial_flits: AtomicU32::new(self.serial_flits.load(Ordering::Relaxed)),
            ejected: AtomicU16::new(self.ejected.load(Ordering::Relaxed)),
        }
    }
}

/// A slab of packet descriptors with slot recycling.
///
/// # Examples
///
/// ```
/// use chiplet_noc::packet::{PacketInfo, PacketStore};
/// use chiplet_noc::flit::{OrderClass, Priority};
/// use chiplet_topo::NodeId;
///
/// let mut store = PacketStore::new();
/// let pid = store.alloc(PacketInfo::new(
///     NodeId(0), NodeId(5), 16, OrderClass::InOrder, Priority::Normal, 0,
/// ));
/// assert_eq!(store.get(pid).dst, NodeId(5));
/// store.free(pid);
/// assert_eq!(store.live(), 0);
/// ```
#[derive(Debug, Default)]
pub struct PacketStore {
    slab: Slab<PacketInfo>,
}

impl PacketStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot for `info`, recycling a freed one when available.
    #[inline]
    pub fn alloc(&mut self, info: PacketInfo) -> PacketId {
        PacketId(self.slab.alloc(info))
    }

    /// The descriptor of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    #[inline]
    pub fn get(&self, pid: PacketId) -> &PacketInfo {
        self.slab.get(pid.0)
    }

    /// Mutable descriptor of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    #[inline]
    pub fn get_mut(&mut self, pid: PacketId) -> &mut PacketInfo {
        self.slab.get_mut(pid.0)
    }

    /// Releases a slot for reuse. The caller must ensure no flits of the
    /// packet remain in flight.
    #[inline]
    pub fn free(&mut self, pid: PacketId) {
        self.slab.free(pid.0);
    }

    /// Packets currently alive (allocated and not freed).
    #[inline]
    pub fn live(&self) -> usize {
        self.slab.live()
    }

    /// Total packets ever allocated.
    pub fn created_total(&self) -> u64 {
        self.slab.allocated_total()
    }

    /// Builds the flit sequence of packet `pid` (used by injection).
    pub fn flits(&self, pid: PacketId) -> impl Iterator<Item = Flit> + '_ {
        let len = self.get(pid).len;
        (0..len).map(move |seq| Flit::new(pid, seq, 0, seq + 1 == len))
    }
}

fn save_info(info: &PacketInfo, w: &mut ByteWriter) {
    w.put_u32(info.src.0);
    w.put_u32(info.dst.0);
    w.put_u16(info.len);
    w.put_u8(match info.class {
        OrderClass::InOrder => 0,
        OrderClass::Unordered => 1,
    });
    w.put_u8(match info.priority {
        Priority::Normal => 0,
        Priority::High => 1,
    });
    w.put_u64(info.created);
    w.put_u16(info.tag);
    // Atomics are saved as plain values: a checkpoint is only ever taken
    // in the serial merge window, where no shard holds a reference.
    w.put_u64(info.injected.load(Ordering::Relaxed));
    w.put_bool(info.baseline_locked.load(Ordering::Relaxed));
    w.put_u32(info.hops.load(Ordering::Relaxed));
    w.put_u32(info.onchip_flits.load(Ordering::Relaxed));
    w.put_u32(info.parallel_flits.load(Ordering::Relaxed));
    w.put_u32(info.serial_flits.load(Ordering::Relaxed));
    w.put_u16(info.ejected.load(Ordering::Relaxed));
}

fn load_info(r: &mut ByteReader) -> Result<PacketInfo, CodecError> {
    let src = NodeId(r.get_u32()?);
    let dst = NodeId(r.get_u32()?);
    let len = r.get_u16()?;
    if len == 0 {
        return Err(CodecError::Corrupt("packet length"));
    }
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
    let created = r.get_u64()?;
    let mut info = PacketInfo::new(src, dst, len, class, priority, created);
    info.tag = r.get_u16()?;
    info.injected.store(r.get_u64()?, Ordering::Relaxed);
    info.baseline_locked.store(r.get_bool()?, Ordering::Relaxed);
    info.hops.store(r.get_u32()?, Ordering::Relaxed);
    info.onchip_flits.store(r.get_u32()?, Ordering::Relaxed);
    info.parallel_flits.store(r.get_u32()?, Ordering::Relaxed);
    info.serial_flits.store(r.get_u32()?, Ordering::Relaxed);
    info.ejected.store(r.get_u16()?, Ordering::Relaxed);
    Ok(info)
}

impl SaveState for PacketStore {
    /// Serializes the store *exactly*, including freelist order: packet
    /// ids are observable (they surface in traces and delivery events),
    /// so a restored run must recycle ids in the saved order to stay
    /// bit-identical.
    fn save_state(&self, w: &mut ByteWriter) {
        self.slab.save_state_with(w, save_info);
    }
}

impl LoadState for PacketStore {
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        self.slab.load_state_with(r, load_info, || {
            PacketInfo::new(
                NodeId(0),
                NodeId(1),
                1,
                OrderClass::InOrder,
                Priority::Normal,
                0,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_topo::LinkClass;

    fn info(len: u16) -> PacketInfo {
        PacketInfo::new(
            NodeId(1),
            NodeId(2),
            len,
            OrderClass::InOrder,
            Priority::Normal,
            7,
        )
    }

    #[test]
    fn alloc_free_recycles_slots() {
        let mut s = PacketStore::new();
        let a = s.alloc(info(4));
        let b = s.alloc(info(4));
        assert_ne!(a, b);
        assert_eq!(s.live(), 2);
        s.free(a);
        let c = s.alloc(info(8));
        assert_eq!(c, a, "slot should be recycled");
        assert_eq!(s.get(c).len, 8);
        assert_eq!(s.live(), 2);
        assert_eq!(s.created_total(), 3);
    }

    #[test]
    fn flit_sequence_shape() {
        let mut s = PacketStore::new();
        let p = s.alloc(info(3));
        let flits: Vec<_> = s.flits(p).collect();
        assert_eq!(flits.len(), 3);
        assert!(flits[0].is_head());
        assert!(!flits[0].last && !flits[1].last && flits[2].last);
        assert_eq!(flits[1].seq, 1);
    }

    #[test]
    fn single_flit_packet() {
        let mut s = PacketStore::new();
        let p = s.alloc(info(1));
        let flits: Vec<_> = s.flits(p).collect();
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head() && flits[0].last);
    }

    #[test]
    fn route_state_tracks_the_lock() {
        let p = info(1);
        assert!(!p.route_state().baseline_locked);
        p.baseline_locked.store(true, Ordering::Relaxed);
        assert!(p.route_state().baseline_locked);
        let copy = p.clone();
        assert!(copy.route_state().baseline_locked);
        assert_eq!(copy.len, p.len);
    }

    #[test]
    fn ejection_folds_every_flit_and_the_heads_hops() {
        let mut s = PacketStore::new();
        let p = s.alloc(info(3));
        let mut flits: Vec<Flit> = s.flits(p).collect();
        // The head took 2 on-chip hops and a serial one; the body and
        // tail were rerouted over the parallel PHY instead.
        for f in &mut flits {
            f.count_hop(LinkClass::OnChip);
            f.count_hop(LinkClass::OnChip);
            f.count_hop(if f.is_head() {
                LinkClass::Serial
            } else {
                LinkClass::Parallel
            });
        }
        let info = s.get(p);
        for (k, f) in flits.iter().enumerate() {
            assert_eq!(info.eject(f), k as u16);
        }
        assert_eq!(info.hops.load(Ordering::Relaxed), 3);
        assert_eq!(info.onchip_flits.load(Ordering::Relaxed), 6);
        assert_eq!(info.parallel_flits.load(Ordering::Relaxed), 2);
        assert_eq!(info.serial_flits.load(Ordering::Relaxed), 1);
        assert_eq!(info.ejected.load(Ordering::Relaxed), 3);
    }

    #[test]
    #[should_panic]
    fn zero_length_rejected() {
        info(0);
    }
}
