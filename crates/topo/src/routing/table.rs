//! Cached route tables: RC-stage lookups instead of per-packet walks.
//!
//! Routing functions in this workspace are pure: for a fixed topology the
//! candidate list depends only on (current node, destination, per-packet
//! channel-class state — the [`RouteState::baseline_locked`] flag). A
//! [`RouteTable`] memoizes those lists so the router's RC stage costs a
//! hash lookup plus a slice copy instead of an algorithm walk per packet
//! head.
//!
//! Entries store `(start, len)` windows into one shared candidate pool, so
//! the table itself performs no per-entry allocation once warm. Tables
//! fill lazily on first use at every scale: a run only ever looks up the
//! `(node, destination)` pairs its packets actually visit, a small
//! fraction of the all-pairs table, and a smaller table probes faster.
//!
//! The cache must be [`RouteTable::invalidate`]d whenever the topology's
//! routing view changes — hard fault events that take links out of (or
//! back into) the lookup tables. The embedding network does this in its
//! fault-application path.

use super::{Candidate, RouteState, Routing};
use crate::coord::NodeId;
use crate::system::SystemTopology;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Finalizer-style hasher for the table's precomputed `u64` keys: one
/// multiply, no byte loop. The keys are dense bit-packs, so a single
/// odd-constant multiplication spreads them well.
#[derive(Debug, Default, Clone)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by RouteTable).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    start: u32,
    len: u32,
}

/// A memoized routing function: `(cur, dst, lock-class) → [Candidate]`.
#[derive(Debug, Default)]
pub struct RouteTable {
    map: HashMap<u64, Entry, BuildHasherDefault<KeyHasher>>,
    pool: Vec<Candidate>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

fn key(cur: NodeId, dst: NodeId, state: &RouteState) -> u64 {
    ((cur.0 as u64) << 33) | ((dst.0 as u64) << 1) | state.baseline_locked as u64
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized candidate list for a packet at `cur` destined to
    /// `dst` with channel-class state `state`, computing and caching it on
    /// first use.
    pub fn lookup(
        &mut self,
        routing: &dyn Routing,
        topo: &SystemTopology,
        cur: NodeId,
        dst: NodeId,
        state: &RouteState,
    ) -> &[Candidate] {
        let k = key(cur, dst, state);
        // A plain `entry()` would borrow `map` for the whole arm; the
        // two-step form keeps the hot hit path to one probe.
        if let Some(e) = self.map.get(&k) {
            self.hits += 1;
            let (start, len) = (e.start as usize, e.len as usize);
            return &self.pool[start..start + len];
        }
        self.misses += 1;
        let start = self.pool.len();
        routing.candidates(topo, cur, dst, state, &mut self.pool);
        let e = Entry {
            start: start as u32,
            len: (self.pool.len() - start) as u32,
        };
        self.map.insert(k, e);
        &self.pool[start..start + e.len as usize]
    }

    /// Drops every cached entry. Call when the topology's routing view
    /// changes (hard fault events editing the lookup tables).
    pub fn invalidate(&mut self) {
        self.map.clear();
        self.pool.clear();
        self.invalidations += 1;
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Times the table was invalidated.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{for_system, Routing};
    use crate::{build, Geometry, SystemKind};

    fn setup() -> (SystemTopology, Box<dyn Routing>) {
        let topo = build::parallel_mesh(Geometry::new(2, 2, 2, 2));
        let routing = for_system(SystemKind::ParallelMesh, 2);
        (topo, routing)
    }

    #[test]
    fn lookup_matches_direct_computation() {
        let (topo, routing) = setup();
        let mut table = RouteTable::new();
        let n = topo.geometry().nodes();
        for cur in 0..n {
            for dst in 0..n {
                if cur == dst {
                    continue;
                }
                for locked in [false, true] {
                    let state = RouteState {
                        baseline_locked: locked,
                    };
                    let mut direct = Vec::new();
                    routing.candidates(&topo, NodeId(cur), NodeId(dst), &state, &mut direct);
                    let cached =
                        table.lookup(routing.as_ref(), &topo, NodeId(cur), NodeId(dst), &state);
                    assert_eq!(cached, &direct[..], "{cur}->{dst} locked={locked}");
                    // Second lookup must hit and return the same slice.
                    let again =
                        table.lookup(routing.as_ref(), &topo, NodeId(cur), NodeId(dst), &state);
                    assert_eq!(again, &direct[..]);
                }
            }
        }
        assert!(table.hits() > 0);
        assert_eq!(table.misses(), (n as u64) * (n as u64 - 1) * 2);
    }

    #[test]
    fn invalidate_recomputes_after_topology_change() {
        // A torus, so routes offer wraparound candidates — the adaptive
        // links that set_pair_down actually accepts (mesh escape links
        // are refused).
        let mut topo = build::serial_torus(Geometry::new(2, 2, 2, 2));
        let routing = for_system(SystemKind::SerialTorus, 2);
        let mut table = RouteTable::new();
        let state = RouteState::default();
        let n = topo.geometry().nodes();
        let mut failable = None;
        'search: for cur in 0..n {
            for dst in 0..n {
                if cur == dst {
                    continue;
                }
                let cands = table.lookup(routing.as_ref(), &topo, NodeId(cur), NodeId(dst), &state);
                for c in cands {
                    if !matches!(topo.link(c.link).kind, crate::link::LinkKind::Mesh { .. }) {
                        failable = Some((NodeId(cur), NodeId(dst), c.link));
                        break 'search;
                    }
                }
            }
        }
        let (cur, dst, downed) = failable.expect("torus routes offer wrap candidates");
        assert!(topo.set_pair_down(downed, true));
        table.invalidate();
        assert!(table.is_empty());
        let after = table.lookup(routing.as_ref(), &topo, cur, dst, &state);
        assert!(
            !after.iter().any(|c| c.link == downed),
            "downed link must leave the recomputed route"
        );
        assert_eq!(table.invalidations(), 1);
    }

    #[test]
    fn keys_do_not_collide_across_lock_classes() {
        let a = key(NodeId(1), NodeId(2), &RouteState::default());
        let b = key(
            NodeId(1),
            NodeId(2),
            &RouteState {
                baseline_locked: true,
            },
        );
        assert_ne!(a, b);
        assert_ne!(key(NodeId(2), NodeId(1), &RouteState::default()), a);
    }
}
