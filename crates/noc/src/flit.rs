//! Flits: the flow-control units packets are segmented into.

use crate::packet::PacketId;
use chiplet_topo::LinkClass;
use simkit::codec::{ByteReader, ByteWriter, CodecError, SaveState};

/// Delivery-ordering class of a packet (§4.2).
///
/// In-order packets carry sequence tags through hetero-PHY interfaces and
/// wait in the reorder buffer; unordered packets may use the parallel-PHY
/// bypass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderClass {
    /// Must be delivered in per-link order (e.g. coherence traffic).
    #[default]
    InOrder,
    /// May overtake earlier packets at a hetero-PHY receiver (bulk data).
    Unordered,
}

/// Scheduling priority of a packet (application-aware scheduling, §5.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Default priority.
    #[default]
    Normal,
    /// Latency-critical: preferred onto the parallel PHY and dispatched
    /// early through the bypass.
    High,
}

/// One flit in flight.
///
/// Flits carry their identity and their own link-traversal counts;
/// everything else (source, destination, timestamps, routing state) lives
/// in the packet descriptor, looked up via [`PacketId`]. The `vc` field
/// names the virtual channel of the link the flit is *currently*
/// traversing and is rewritten at every hop.
///
/// `hops` counts the links this flit has crossed so far by class,
/// indexed by [`LinkClass`] as `usize` (on-chip, parallel, serial; a
/// hetero-PHY crossing counts under the PHY that carried it). The shard
/// that delivers the flit off a link bumps the count on the flit it
/// holds, so no shared per-packet state is touched per hop; the
/// destination folds the counts into the packet descriptor at ejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub pid: PacketId,
    /// Position within the packet (0 = head).
    pub seq: u16,
    /// Virtual channel on the current link.
    pub vc: u8,
    /// Whether this is the tail flit.
    pub last: bool,
    /// Links crossed so far, by [`LinkClass`] index.
    pub hops: [u16; 3],
}

impl Flit {
    /// A flit of packet `pid` at position `seq` that has crossed no link
    /// yet.
    #[inline]
    pub fn new(pid: PacketId, seq: u16, vc: u8, last: bool) -> Self {
        Self {
            pid,
            seq,
            vc,
            last,
            hops: [0; 3],
        }
    }

    /// Whether this is the head flit.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// Counts one crossing of a link of `class`: on-chip, parallel or
    /// serial (a hetero-PHY crossing is counted under the PHY that
    /// carried it, so `HeteroPhy` itself is out of range).
    #[inline]
    pub fn count_hop(&mut self, class: LinkClass) {
        self.hops[class as usize] += 1;
    }

    /// Decodes a flit written by its [`SaveState`] impl.
    pub fn read_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(Flit {
            pid: PacketId(r.get_u32()?),
            seq: r.get_u16()?,
            vc: r.get_u8()?,
            last: r.get_bool()?,
            hops: [r.get_u16()?, r.get_u16()?, r.get_u16()?],
        })
    }
}

impl SaveState for Flit {
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.pid.0);
        w.put_u16(self.seq);
        w.put_u8(self.vc);
        w.put_bool(self.last);
        for n in self.hops {
            w.put_u16(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_and_tail() {
        let head = Flit::new(PacketId(0), 0, 0, false);
        assert!(head.is_head());
        assert!(!head.last);
        let single = Flit::new(PacketId(0), 0, 0, true);
        assert!(single.is_head() && single.last);
    }

    #[test]
    fn hop_counts_round_trip_through_the_codec() {
        let mut f = Flit::new(PacketId(0x0102_0304), 9, 3, true);
        f.count_hop(LinkClass::OnChip);
        f.count_hop(LinkClass::OnChip);
        f.count_hop(LinkClass::Parallel);
        for _ in 0..700 {
            f.count_hop(LinkClass::Serial);
        }
        assert_eq!(f.hops, [2, 1, 700]);
        let mut w = ByteWriter::new();
        f.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(Flit::read_from(&mut r).unwrap(), f);
        assert_eq!(r.remaining(), 0, "the codec reads back every byte it wrote");
        // A blob cut inside the counts is truncated, not misread.
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert!(Flit::read_from(&mut r).is_err());
    }

    #[test]
    fn defaults() {
        assert_eq!(OrderClass::default(), OrderClass::InOrder);
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::High > Priority::Normal);
    }
}
