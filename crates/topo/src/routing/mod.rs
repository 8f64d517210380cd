//! Routing algorithms for multi-chiplet interconnection networks.
//!
//! All algorithms here follow the structure of §2.3/§6.2 of the paper
//! (Lemma 1 / Theorem 1): a *baseline* routing subfunction on a channel
//! subset `C₀` that is connected and deadlock-free (negative-first routing
//! on a mesh subnetwork, or dimension-ordered hypercube traversal), plus
//! *adaptive* channels (higher virtual channels, wraparound links, serial
//! hypercube links) that may be used freely while they lie on an optional
//! path to the destination.
//!
//! Livelock is prevented by the paper's channel-switching restriction: when
//! a packet is forced onto the baseline subnetwork by congestion, its
//! [`RouteState::baseline_locked`] flag is set and it thereafter only uses
//! baseline channels (or adaptive channels of the very links the baseline
//! function offers), so it reaches its destination in a bounded number of
//! hops.
//!
//! A routing function returns an ordered list of [`Candidate`]s. The order
//! encodes scheduling preference (Eq. 5 subnetwork selection for
//! hetero-channel systems): the router's VC allocator considers earlier
//! tiers first and falls back to the baseline escape channels last.

mod algorithm1;
mod express;
mod hypercube;
mod negative_first;
mod table;
mod torus;

pub use algorithm1::Algorithm1;
pub use express::ExpressMesh;
pub use hypercube::HypercubeRouting;
pub use negative_first::NegativeFirstMesh;
pub use table::RouteTable;
pub use torus::TorusAdaptive;

use crate::coord::{Coord, NodeId};
use crate::link::{LinkId, MeshDir};
use crate::system::{SystemKind, SystemTopology};

/// Per-packet routing state carried in the packet descriptor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteState {
    /// Set once the packet has been forced onto the baseline subnetwork by
    /// congestion; from then on it follows baseline paths only (livelock
    /// restriction of §6.2).
    pub baseline_locked: bool,
}

/// One candidate output channel: a link plus a virtual channel on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The outgoing link.
    pub link: LinkId,
    /// The virtual channel on that link.
    pub vc: u8,
    /// Whether this channel belongs to the baseline (escape) subfunction
    /// `R₀ ⊆ C₀`.
    pub baseline: bool,
    /// Preference tier: 0 = preferred adaptive (Eq. 5 choice), 1 = other
    /// adaptive, 2 = baseline escape. The allocator scans tiers in order.
    pub tier: u8,
}

/// A routing function `R(x, y)` producing candidate output channels.
///
/// Implementations are stateless w.r.t. packets; all per-packet state lives
/// in [`RouteState`].
pub trait Routing: std::fmt::Debug + Send + Sync {
    /// Human-readable algorithm name.
    fn name(&self) -> &str;

    /// Appends the candidate output channels for a packet at `cur` destined
    /// to `dst` (`cur != dst`), in preference order.
    ///
    /// An empty result means the packet is undeliverable — a routing bug;
    /// callers may panic.
    fn candidates(
        &self,
        topo: &SystemTopology,
        cur: NodeId,
        dst: NodeId,
        state: &RouteState,
        out: &mut Vec<Candidate>,
    );

    /// Minimum number of virtual channels per link this algorithm needs.
    fn min_vcs(&self) -> u8 {
        2
    }
}

/// Builds the routing algorithm the paper pairs with each topology preset.
///
/// # Panics
///
/// Panics if `vcs` is below the algorithm's minimum.
pub fn for_system(kind: SystemKind, vcs: u8) -> Box<dyn Routing> {
    let r: Box<dyn Routing> = match kind {
        SystemKind::ParallelMesh => Box::new(NegativeFirstMesh::new(vcs)),
        SystemKind::SerialTorus | SystemKind::HeteroPhyTorus => Box::new(TorusAdaptive::new(vcs)),
        SystemKind::SerialHypercube => Box::new(HypercubeRouting::new(vcs)),
        SystemKind::HeteroChannel => Box::new(Algorithm1::new(vcs)),
        SystemKind::MultiPackageRow => Box::new(ExpressMesh::new(vcs)),
    };
    assert!(
        vcs >= r.min_vcs(),
        "{} needs at least {} virtual channels, got {vcs}",
        r.name(),
        r.min_vcs()
    );
    r
}

/// Negative-first direction set for a minimal mesh route from `cur` to
/// `dst`: while any negative (west/south) move is needed only negative
/// moves are offered; afterwards the positive ones. Fully adaptive and
/// deadlock-free without virtual channels (turn model).
pub(crate) fn negative_first_dirs(cur: Coord, dst: Coord) -> impl Iterator<Item = MeshDir> {
    let mut dirs = [None, None];
    if dst.x < cur.x || dst.y < cur.y {
        if dst.x < cur.x {
            dirs[0] = Some(MeshDir::West);
        }
        if dst.y < cur.y {
            dirs[1] = Some(MeshDir::South);
        }
    } else {
        if dst.x > cur.x {
            dirs[0] = Some(MeshDir::East);
        }
        if dst.y > cur.y {
            dirs[1] = Some(MeshDir::North);
        }
    }
    dirs.into_iter().flatten()
}

/// All productive (manhattan-distance-reducing) mesh directions.
pub(crate) fn productive_dirs(cur: Coord, dst: Coord) -> impl Iterator<Item = MeshDir> {
    let mut dirs = [None, None];
    dirs[0] = if dst.x < cur.x {
        Some(MeshDir::West)
    } else if dst.x > cur.x {
        Some(MeshDir::East)
    } else {
        None
    };
    dirs[1] = if dst.y < cur.y {
        Some(MeshDir::South)
    } else if dst.y > cur.y {
        Some(MeshDir::North)
    } else {
        None
    };
    dirs.into_iter().flatten()
}

/// Emits the baseline negative-first candidates (`vc0` of the mesh links)
/// plus, when `locked`, the adaptive VCs of those same links (the only
/// adaptive channels the livelock restriction still allows).
pub(crate) fn emit_negative_first(
    topo: &SystemTopology,
    cur: NodeId,
    dst: NodeId,
    vcs: u8,
    locked: bool,
    out: &mut Vec<Candidate>,
) {
    let g = topo.geometry();
    let (c, d) = (g.coord(cur), g.coord(dst));
    for dir in negative_first_dirs(c, d) {
        if let Some(link) = topo.mesh_out(cur, dir) {
            if locked {
                for vc in 1..vcs {
                    out.push(Candidate {
                        link,
                        vc,
                        baseline: false,
                        tier: 1,
                    });
                }
            }
            out.push(Candidate {
                link,
                vc: 0,
                baseline: true,
                tier: 2,
            });
        }
    }
}

/// Finds the node in `ports` nearest to `from` by on-chip manhattan
/// distance (ties broken by node id). Returns `None` if `ports` is empty.
pub(crate) fn nearest_port(
    topo: &SystemTopology,
    from: NodeId,
    ports: &[NodeId],
) -> Option<NodeId> {
    let g = topo.geometry();
    let fc = g.coord(from);
    ports
        .iter()
        .copied()
        .min_by_key(|&p| (g.coord(p).manhattan(fc), p.0))
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::coord::Geometry;
    use simkit::SimRng;

    /// Walks a packet from `src` to `dst` by always taking the first
    /// candidate (or a random one when `rng` is given), asserting progress
    /// within `max_hops`. Returns the link path.
    pub fn walk(
        topo: &SystemTopology,
        routing: &dyn Routing,
        src: NodeId,
        dst: NodeId,
        max_hops: usize,
        mut rng: Option<&mut SimRng>,
    ) -> Vec<LinkId> {
        let mut cur = src;
        let mut state = RouteState::default();
        let mut path = Vec::new();
        let mut cands = Vec::new();
        while cur != dst {
            assert!(
                path.len() <= max_hops,
                "{}: no progress from {src} to {dst} within {max_hops} hops (at {cur})",
                routing.name()
            );
            cands.clear();
            routing.candidates(topo, cur, dst, &state, &mut cands);
            assert!(
                !cands.is_empty(),
                "{}: empty candidate set at {cur} for {dst}",
                routing.name()
            );
            let pick = match rng.as_deref_mut() {
                Some(r) => cands[r.index(cands.len())],
                None => cands[0],
            };
            if pick.baseline && cands.iter().any(|c| !c.baseline) {
                state.baseline_locked = true;
            }
            path.push(pick.link);
            cur = topo.link(pick.link).dst;
        }
        path
    }

    /// Exhaustively checks connectivity of a routing algorithm on all
    /// ordered node pairs of a (small) system.
    pub fn check_all_pairs(topo: &SystemTopology, routing: &dyn Routing, max_hops: usize) {
        let n = topo.geometry().nodes();
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    walk(topo, routing, NodeId(s), NodeId(d), max_hops, None);
                }
            }
        }
    }

    /// Random-walk connectivity check (candidates chosen at random) over
    /// sampled pairs — exercises the adaptive channels too.
    pub fn check_random_pairs(
        topo: &SystemTopology,
        routing: &dyn Routing,
        pairs: usize,
        max_hops: usize,
        seed: u64,
    ) {
        let mut rng = SimRng::seed(seed);
        let n = topo.geometry().nodes() as u64;
        for _ in 0..pairs {
            let s = NodeId(rng.below(n) as u32);
            let mut d = NodeId(rng.below(n) as u32);
            while d == s {
                d = NodeId(rng.below(n) as u32);
            }
            walk(topo, routing, s, d, max_hops, Some(&mut rng));
        }
    }

    pub fn small_geom() -> Geometry {
        Geometry::new(2, 2, 3, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Geometry;
    use crate::system::build;

    #[test]
    fn negative_first_dirs_cases() {
        let at = Coord::new(2, 2);
        // Pure negative.
        let d: Vec<_> = negative_first_dirs(at, Coord::new(0, 0)).collect();
        assert_eq!(d, vec![MeshDir::West, MeshDir::South]);
        // Mixed: negative first only.
        let d: Vec<_> = negative_first_dirs(at, Coord::new(4, 0)).collect();
        assert_eq!(d, vec![MeshDir::South]);
        // Pure positive.
        let d: Vec<_> = negative_first_dirs(at, Coord::new(4, 4)).collect();
        assert_eq!(d, vec![MeshDir::East, MeshDir::North]);
        // Aligned.
        let d: Vec<_> = negative_first_dirs(at, Coord::new(2, 4)).collect();
        assert_eq!(d, vec![MeshDir::North]);
    }

    #[test]
    fn productive_dirs_cases() {
        let at = Coord::new(2, 2);
        let d: Vec<_> = productive_dirs(at, Coord::new(4, 0)).collect();
        assert_eq!(d, vec![MeshDir::East, MeshDir::South]);
        let d: Vec<_> = productive_dirs(at, Coord::new(2, 2)).collect();
        assert!(d.is_empty());
    }

    #[test]
    fn factory_builds_each_kind() {
        let kinds = [
            (SystemKind::ParallelMesh, "negative-first"),
            (SystemKind::SerialTorus, "torus-adaptive"),
            (SystemKind::HeteroPhyTorus, "torus-adaptive"),
            (SystemKind::SerialHypercube, "minus-first-hypercube"),
            (SystemKind::HeteroChannel, "algorithm1-hetero-channel"),
        ];
        for (k, name) in kinds {
            let r = for_system(k, 2);
            assert_eq!(r.name(), name);
        }
    }

    #[test]
    fn nearest_port_prefers_close_and_low_id() {
        let g = Geometry::new(2, 2, 3, 3);
        let t = build::parallel_mesh(g);
        let ports = vec![g.node_at(0, 0), g.node_at(2, 0), g.node_at(0, 2)];
        let from = g.node_at(1, 0);
        // distances: 1, 1, 3 → tie between first two, lower id wins.
        assert_eq!(nearest_port(&t, from, &ports), Some(g.node_at(0, 0)));
        assert_eq!(nearest_port(&t, from, &[]), None);
    }
}
