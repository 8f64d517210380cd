//! One shard of the partitioned network: state, phases, router window.
//!
//! The network is partitioned into chiplet-group **shards**. Every shard
//! owns the routers of its nodes and the media + credit returns of the
//! links *leaving* those nodes (link owner = shard of `link.src`), plus
//! private copies of everything a cycle touches: a [`FlitArena`], a
//! route table, a [`LinkWheel`] for fixed-latency traffic, active sets,
//! per-link fault streams and NICs. A cycle runs in two phases per shard:
//!
//! * [`Shard::phase1`] — replay inbound cross-shard credits, then the
//!   credit and media stages. Flits arriving over an owned link whose
//!   destination router lives in another shard are *not* delivered
//!   locally: their stat counters are charged here (the owner is the
//!   serial engine's accounting site) and the flit value is posted to
//!   the destination shard's mailbox.
//! * [`Shard::phase2`] — drain inbound cross-shard flits into the local
//!   routers (exactly where the serial engine's media stage would have
//!   put them, before any router steps), then the inject and route
//!   stages. Credits for flits forwarded out of non-owned in-links are
//!   posted to the owning shard's mailbox, to be replayed next cycle.
//!
//! A barrier between the phases guarantees each mailbox slot is written
//! in one phase and read in the other. Determinism rests on three rules:
//! RNG streams are forked per *global* link id at build time (every
//! shard derives the identical stream set; only the owner ever draws),
//! mailboxes drain in ascending producer-shard order, and all
//! order-sensitive observations (deliveries, link events) are buffered
//! here and merged by the orchestrator in a scheduling-independent
//! order.

use crate::energy::EnergyModel;
use crate::engine::EngineCtx;
use crate::network::DeliveryEvent;
use crate::wheel::LinkWheel;
use chiplet_noc::router::PipelineStage;
use chiplet_noc::{
    Flit, FlitArena, FlitRef, Lanes, PacketId, PacketInfo, PortCandidate, RetryLine, Router,
    RouterEnv, ShardMailbox,
};
use chiplet_phy::{HeteroPhyLink, PhyKind};
use chiplet_topo::routing::RouteTable;
use chiplet_topo::{LinkClass, LinkId, NodeId, SystemTopology};
use simkit::codec::{ByteReader, ByteWriter, CodecError};
use simkit::metrics::{MetricId, MetricsSlice};
use simkit::trace::{link_event_code, link_key, node_key, LinkEvent, TraceKind, Tracer, NO_PID};
use simkit::{ActiveSet, Cycle, SimRng};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;

/// One directed link's physical medium.
#[derive(Debug)]
pub(crate) enum Medium {
    /// A plain fixed-latency pipeline (on-chip, parallel or serial link):
    /// only its lane budget lives here; the flits in flight are in the
    /// owner shard's [`LinkWheel`].
    Plain(Lanes),
    /// A plain pipeline wrapped in the CRC/replay retry link layer (built
    /// for interface links when the fault model is armed; error-free it is
    /// cycle-for-cycle identical to [`Medium::Plain`]).
    Guarded(Box<RetryLine>),
    /// A hetero-PHY adapter (parallel + serial PHYs with scheduling).
    Hetero(Box<HeteroPhyLink>),
}

impl Medium {
    /// Flits held by a medium that steps on the active-media set (a plain
    /// link holds none: its flits are on the wheel).
    fn in_flight(&self) -> usize {
        match self {
            Medium::Plain(_) => 0,
            Medium::Guarded(line) => line.in_flight(),
            Medium::Hetero(h) => h.in_flight(),
        }
    }

    /// The earliest cycle ≥ `now` at which this medium can act (deliver a
    /// flit, emit an ack/nak, or fire a retry timeout), or [`Cycle::MAX`]
    /// if it is drained. The hetero-PHY adapter schedules internally every
    /// cycle while loaded, so it pins the bound to `now` whenever any flit
    /// is in flight — conservative but exact for the skip loop's purposes
    /// (a loaded adapter link keeps its shard active anyway).
    fn next_event_at(&self, now: Cycle) -> Cycle {
        match self {
            Medium::Plain(_) => Cycle::MAX,
            Medium::Guarded(line) => line.next_event_at(now),
            Medium::Hetero(h) => {
                if h.in_flight() > 0 {
                    now
                } else {
                    Cycle::MAX
                }
            }
        }
    }
}

/// Per-link fault-injection state: one RNG stream and corruption
/// probability per directed link, plus the mutable fault flags scripted
/// events toggle (blocked links, error bursts, lane caps).
///
/// Links with zero probability never draw from their RNG
/// ([`SimRng::chance`] short-circuits at `p <= 0`), so an unarmed core is
/// results-invisible. Every shard builds the full core from the same
/// `(seed, global link id)` forks — the streams are static, so the owner
/// shard's draws are identical whatever the partition.
#[derive(Debug)]
pub(crate) struct FaultCore {
    links: Vec<LinkFault>,
}

#[derive(Debug)]
struct LinkFault {
    rng: SimRng,
    /// Base per-flit corruption probability.
    p: f64,
    burst_mult: f64,
    burst_until: Cycle,
    blocked: bool,
    lane_cap: Option<u8>,
}

impl LinkFault {
    fn draw(&mut self, now: Cycle) -> bool {
        let p = if now < self.burst_until {
            (self.p * self.burst_mult).min(1.0)
        } else {
            self.p
        };
        self.rng.chance(p)
    }
}

impl FaultCore {
    /// Builds the core with per-link corruption probabilities `ps`,
    /// forking one RNG stream per link from `seed`.
    pub fn new(ps: &[f64], seed: u64) -> Self {
        let mut base = SimRng::seed(seed ^ 0xFA_0175);
        Self {
            links: ps
                .iter()
                .enumerate()
                .map(|(i, &p)| LinkFault {
                    rng: base.fork(i as u64),
                    p,
                    burst_mult: 1.0,
                    burst_until: 0,
                    blocked: false,
                    lane_cap: None,
                })
                .collect(),
        }
    }

    fn draw(&mut self, li: usize, now: Cycle) -> bool {
        self.links[li].draw(now)
    }

    pub fn blocked(&self, li: usize) -> bool {
        self.links[li].blocked
    }

    pub fn set_blocked(&mut self, li: usize, blocked: bool) {
        self.links[li].blocked = blocked;
    }

    pub fn set_burst(&mut self, li: usize, mult: f64, until: Cycle) {
        self.links[li].burst_mult = mult;
        self.links[li].burst_until = until;
    }

    pub fn set_lane_cap(&mut self, li: usize, cap: Option<u8>) {
        self.links[li].lane_cap = cap;
    }

    fn lane_cap(&self, li: usize) -> Option<u8> {
        self.links[li].lane_cap
    }

    /// Serializes one link's fault state (checkpoint LINK section). The
    /// RNG stream position matters even when `p == 0` at build time: a
    /// scripted burst may arm draws later.
    pub fn save_link(&self, li: usize, w: &mut ByteWriter) {
        let lf = &self.links[li];
        for word in lf.rng.state() {
            w.put_u64(word);
        }
        w.put_f64(lf.p);
        w.put_f64(lf.burst_mult);
        w.put_u64(lf.burst_until);
        w.put_bool(lf.blocked);
        match lf.lane_cap {
            Some(cap) => {
                w.put_bool(true);
                w.put_u8(cap);
            }
            None => w.put_bool(false),
        }
    }

    /// Decodes one link's fault state written by [`Self::save_link`].
    pub fn read_link(r: &mut ByteReader) -> Result<LinkFaultSnap, CodecError> {
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.get_u64()?;
        }
        let p = r.get_f64()?;
        let burst_mult = r.get_f64()?;
        let burst_until = r.get_u64()?;
        let blocked = r.get_bool()?;
        let lane_cap = if r.get_bool()? {
            Some(r.get_u8()?)
        } else {
            None
        };
        Ok(LinkFaultSnap {
            rng,
            p,
            burst_mult,
            burst_until,
            blocked,
            lane_cap,
        })
    }

    /// Overlays a decoded link-fault snapshot. Restore applies the same
    /// snapshot to *every* shard's core (each shard holds the full core;
    /// only the owner draws, so identical copies keep the partition
    /// results-invisible).
    pub fn apply_link(&mut self, li: usize, s: &LinkFaultSnap) {
        let lf = &mut self.links[li];
        lf.rng = SimRng::from_state(s.rng);
        lf.p = s.p;
        lf.burst_mult = s.burst_mult;
        lf.burst_until = s.burst_until;
        lf.blocked = s.blocked;
        lf.lane_cap = s.lane_cap;
    }
}

/// A decoded [`LinkFault`] (checkpoint restore intermediary; read once,
/// applied to every shard's [`FaultCore`] copy).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkFaultSnap {
    rng: [u64; 4],
    p: f64,
    burst_mult: f64,
    burst_until: Cycle,
    /// Whether the link was hard-down at save time (restore replays the
    /// topology edit and route-table invalidation for these).
    pub blocked: bool,
    lane_cap: Option<u8>,
}

/// The static shard layout: which shard owns each node and link.
///
/// Nodes are grouped by chiplet (contiguous chiplet-id ranges), so every
/// cross-shard link is an interface link and intra-chiplet traffic never
/// leaves its shard. A link is owned by the shard of its *source* node:
/// the owner advances the medium (phase 1) and replays returned credits
/// into the source router (credit stage).
#[derive(Debug)]
pub(crate) struct Partition {
    /// Shard count (`min(threads, chiplets)`, at least 1).
    pub nshards: u16,
    /// node index → owning shard.
    pub node_shard: Vec<u16>,
    /// link index → owning shard (= shard of the link's source node).
    pub link_owner: Vec<u16>,
    /// shard → its nodes, ascending.
    pub shard_nodes: Vec<Vec<NodeId>>,
}

impl Partition {
    /// Splits `topo` into up to `threads` chiplet-group shards.
    pub fn new(topo: &SystemTopology, threads: usize) -> Self {
        let geom = topo.geometry();
        let chiplets = (geom.chiplets() as usize).max(1);
        let nshards = threads.clamp(1, chiplets) as u16;
        let nodes = geom.nodes() as usize;
        let mut node_shard = vec![0u16; nodes];
        let mut shard_nodes = vec![Vec::new(); nshards as usize];
        for (i, slot) in node_shard.iter_mut().enumerate() {
            let c = geom.chiplet_of(NodeId(i as u32)).index();
            let s = ((c * nshards as usize) / chiplets) as u16;
            *slot = s;
            shard_nodes[s as usize].push(NodeId(i as u32));
        }
        let link_owner = topo
            .links()
            .iter()
            .map(|l| node_shard[l.src.index()])
            .collect();
        Self {
            nshards,
            node_shard,
            link_owner,
            shard_nodes,
        }
    }
}

/// A flit crossing a shard boundary, by value (the producer freed its
/// arena handle; the consumer re-admits into its own arena).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitMsg {
    /// Global index of the link the flit arrived over.
    pub li: u32,
    /// The flit itself.
    pub flit: Flit,
}

/// A credit issued by a non-owner shard for a link's input buffer,
/// replayed onto the owner's wheel next cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditMsg {
    /// Global index of the credited link.
    pub li: u32,
    /// The freed virtual channel.
    pub vc: u8,
}

/// The cross-shard mailbox pair: boundary flits (flushed in phase 1,
/// drained in phase 2) and boundary credits (flushed in phase 2, drained
/// in the next cycle's phase 1).
#[derive(Debug)]
pub(crate) struct Mail {
    pub flits: ShardMailbox<FlitMsg>,
    pub credits: ShardMailbox<CreditMsg>,
}

impl Mail {
    pub fn new(nshards: usize) -> Self {
        Self {
            flits: ShardMailbox::new(nshards),
            credits: ShardMailbox::new(nshards),
        }
    }
}

/// A buffered packet delivery, merged (and its descriptor slot freed) by
/// the orchestrator in ascending-node order — the serial route-stage
/// order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delivery {
    /// Destination node (the merge sort key).
    pub node: u32,
    /// The delivered packet (freed at merge).
    pub pid: PacketId,
    /// What the collector records for it.
    pub ev: DeliveryEvent,
}

/// The hot-path metric handles every shard shares: which registry cell a
/// given observation lands in. Built once at enable time by the network;
/// cloned into each shard next to its private [`MetricsSlice`].
#[derive(Debug, Clone)]
pub(crate) struct MetricIds {
    /// Per-link ROB-occupancy high-water gauge (hetero-PHY links only).
    pub rob_gauge: Vec<Option<MetricId>>,
    /// Per-PHY dispatch counters, indexed `[parallel, serial]`.
    pub phy_dispatch: [MetricId; 2],
}

/// One shard's metrics state: the shared id map plus its private slice.
/// Wrapped in `Option` on the shard so the disabled path costs one
/// `is_some` check at each (already rare) sampling site.
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    pub ids: MetricIds,
    pub slice: MetricsSlice,
}

#[derive(Debug, Clone, Copy)]
struct InjectState {
    pid: PacketId,
    next_seq: u16,
    vc: u8,
    len: u16,
}

#[derive(Debug, Default)]
pub(crate) struct Nic {
    pub queue: VecDeque<PacketId>,
    cur: Option<InjectState>,
}

impl Nic {
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || self.cur.is_some()
    }

    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.cur.is_some())
    }

    /// Serializes the NIC's dynamic state: the backlog of queued packet
    /// ids plus the in-progress injection cursor.
    pub fn save_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.queue.len());
        for pid in &self.queue {
            w.put_u32(pid.0);
        }
        match self.cur {
            Some(st) => {
                w.put_bool(true);
                w.put_u32(st.pid.0);
                w.put_u16(st.next_seq);
                w.put_u8(st.vc);
                w.put_u16(st.len);
            }
            None => w.put_bool(false),
        }
    }

    /// Overlays state written by [`Self::save_state`].
    pub fn load_state(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        let n = r.get_usize()?;
        self.queue.clear();
        for _ in 0..n {
            self.queue.push_back(PacketId(r.get_u32()?));
        }
        self.cur = if r.get_bool()? {
            Some(InjectState {
                pid: PacketId(r.get_u32()?),
                next_seq: r.get_u16()?,
                vc: r.get_u8()?,
                len: r.get_u16()?,
            })
        } else {
            None
        };
        Ok(())
    }
}

/// One shard's mutable simulation state.
///
/// Vectors are full-length (indexed by global node/link id) with only the
/// owned entries populated — unowned routers are portless stubs that are
/// never activated, unowned media slots are `None`. This keeps every
/// stage's indexing identical to the serial engine at the cost of
/// `O(nshards)` stub storage.
///
/// Aligned to two cache lines so that shards side by side in the engine
/// never share a line: each pool thread writes its shard's fields on
/// every flit, and reads them through the router environment.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Shard {
    pub id: u16,
    /// Owned nodes, ascending (stat sums, restore validation).
    pub nodes: Vec<NodeId>,
    pub routers: Vec<Router>,
    pub media: Vec<Option<Medium>>,
    /// Link → cycles a credit takes back to the transmitter (global map).
    pub credit_latency: Vec<u32>,
    /// Flits on owned plain links and credits returning to owned
    /// transmitters, by due cycle.
    pub wheel: LinkWheel,
    pub faults: FaultCore,
    pub nics: Vec<Nic>,
    /// Flits delivered over each owned directed link.
    pub link_flits: Vec<u64>,
    /// The home of every in-flight flit this shard holds.
    pub arena: FlitArena,
    /// Memoized routes for packets currently at an owned node.
    pub route_table: RouteTable,
    pub active_routers: ActiveSet,
    /// Owned guarded and hetero-PHY media with work (plain links are on
    /// the wheel instead).
    pub active_media: ActiveSet,
    pub active_nics: ActiveSet,
    /// Reused drain buffer for the active sets.
    ids: Vec<usize>,
    /// Reused buffer for the flits one active medium delivers in a cycle,
    /// with the hetero-PHY lane each came off.
    arrivals: Vec<(FlitRef, Option<PhyKind>)>,
    /// Per-consumer out-buffers, flushed to the mailboxes once per phase.
    out_flits: Vec<Vec<FlitMsg>>,
    out_credits: Vec<Vec<CreditMsg>>,
    /// Order-sensitive observations, merged by the orchestrator.
    pub deliveries: Vec<Delivery>,
    pub link_events: Vec<LinkEvent>,
    /// Structured trace events for this cycle ([`Tracer::Off`] unless the
    /// network enabled tracing; folded into the hub ring at merge).
    pub tracer: Tracer,
    /// Hot-path metric cells (`None` unless the network enabled metrics).
    pub metrics: Option<ShardMetrics>,
    /// Whether anything moved this cycle (deadlock-watchdog input).
    pub activity: bool,
    /// Cycles in which this shard had activity (per-shard quiescence
    /// accounting; the watchdog ORs `activity` across shards).
    pub active_cycles: u64,
}

impl Shard {
    pub fn new(
        id: u16,
        nodes: Vec<NodeId>,
        node_count: usize,
        credit_latency: Vec<u32>,
        wheel: LinkWheel,
        nshards: usize,
        faults: FaultCore,
    ) -> Self {
        let link_count = credit_latency.len();
        Self {
            id,
            nodes,
            routers: (0..node_count).map(|_| Router::new(1)).collect(),
            media: (0..link_count).map(|_| None).collect(),
            credit_latency,
            wheel,
            faults,
            nics: (0..node_count).map(|_| Nic::default()).collect(),
            link_flits: vec![0; link_count],
            arena: FlitArena::new(),
            route_table: RouteTable::new(),
            active_routers: ActiveSet::new(node_count),
            active_media: ActiveSet::new(link_count),
            active_nics: ActiveSet::new(node_count),
            ids: Vec::new(),
            arrivals: Vec::new(),
            out_flits: (0..nshards).map(|_| Vec::new()).collect(),
            out_credits: (0..nshards).map(|_| Vec::new()).collect(),
            deliveries: Vec::new(),
            link_events: Vec::new(),
            tracer: Tracer::Off,
            metrics: None,
            activity: false,
            active_cycles: 0,
        }
    }

    /// Whether every per-cycle scratch buffer is empty. True exactly at
    /// the between-cycles checkpoint boundary: out-buffers are flushed
    /// within their phase and observation buffers are cleared at merge,
    /// so none of them carry state a checkpoint would need.
    pub fn scratch_empty(&self) -> bool {
        self.out_flits.iter().all(Vec::is_empty)
            && self.out_credits.iter().all(Vec::is_empty)
            && self.deliveries.is_empty()
            && self.link_events.is_empty()
    }

    /// The earliest cycle ≥ `now` at which this shard can make progress,
    /// or [`Cycle::MAX`] if nothing is scheduled.
    ///
    /// Active routers and NICs act *every* cycle (pipeline stages and
    /// injection have no future timestamp), so either being non-empty
    /// pins the bound to `now`. The wheel and the active media are
    /// timed: the wheel's first non-empty bucket and each medium's own
    /// due bound the next delivery, credit, ack, or retry timeout. The
    /// bound is what the idle-skip loop uses — it never needs to be
    /// tight, only never *late*.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if !self.active_routers.is_empty() || !self.active_nics.is_empty() {
            return now;
        }
        let mut at = self.wheel.next_due(now);
        for li in self.active_media.iter() {
            let m = self.media[li].as_ref().expect("unowned active medium");
            at = at.min(m.next_event_at(now));
        }
        at
    }

    /// Phase 1 of a cycle: inbound credit replay → credit stage → media
    /// stage → boundary-flit flush.
    pub fn phase1(&mut self, ctx: &EngineCtx<'_>) {
        let now = ctx.now;
        self.activity = false;
        let sid = self.id as usize;
        {
            // Replay credits the consumer shards issued in last cycle's
            // phase 2 as sent then: due `now - 1 + latency`, exactly what
            // the serial engine's direct send gave them. Latency ≥ 1, so
            // nothing replayed was due before this cycle. (No message can
            // exist at cycle 0.)
            let Shard {
                wheel,
                credit_latency,
                ..
            } = self;
            ctx.mail.credits.drain(sid, |_, m: CreditMsg| {
                let at = now - 1 + credit_latency[m.li as usize] as Cycle;
                wheel.push_credit(at, m.li, m.vc);
            });
        }
        self.stage_credits(ctx);
        self.stage_media(ctx);
        for (consumer, out) in self.out_flits.iter_mut().enumerate() {
            ctx.mail.flits.append(sid, consumer, out);
        }
    }

    /// Phase 2 of a cycle: inbound flit delivery → inject stage → route
    /// stage → boundary-credit flush.
    pub fn phase2(&mut self, ctx: &EngineCtx<'_>) {
        let sid = self.id as usize;
        {
            // Boundary flits land in the destination router before it
            // routes this cycle — the same point in the cycle the serial
            // media stage would have delivered them.
            let Shard {
                routers,
                arena,
                active_routers,
                activity,
                ..
            } = self;
            ctx.mail.flits.drain(sid, |_, m: FlitMsg| {
                let link = &ctx.wiring.links[m.li as usize];
                let dst = link.dst as usize;
                let fref = arena.alloc(m.flit);
                routers[dst].receive(link.in_port, fref, m.flit.vc);
                active_routers.insert(dst);
                *activity = true;
            });
        }
        self.stage_inject(ctx);
        self.stage_route(ctx);
        for (consumer, out) in self.out_credits.iter_mut().enumerate() {
            ctx.mail.credits.append(sid, consumer, out);
        }
    }

    /// Credits due this cycle are restored to the transmitting router.
    fn stage_credits(&mut self, ctx: &EngineCtx<'_>) {
        let Shard { wheel, routers, .. } = self;
        wheel.drain_credits(ctx.now, |li, vc| {
            // Credits top up counters only; they cannot give a quiescent
            // router work, so no router activation here.
            let link = &ctx.wiring.links[li as usize];
            routers[link.src as usize].add_credit(link.out_port, vc);
        });
    }

    /// Media deliver arrived flits: the wheel hands over the plain-link
    /// flits due this cycle, then every active guarded or hetero-PHY
    /// medium steps and hands over what it delivered.
    fn stage_media(&mut self, ctx: &EngineCtx<'_>) {
        let now = ctx.now;
        // `deliver` needs the whole shard; the wheel goes back right after.
        let mut wheel = std::mem::take(&mut self.wheel);
        wheel.drain_flits(now, |li, fref| self.deliver(ctx, li as usize, fref, None));
        self.wheel = wheel;

        let mut ids = std::mem::take(&mut self.ids);
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.active_media.drain_into(&mut ids);
        for &li in &ids {
            let Shard {
                media,
                active_media,
                activity,
                faults,
                arena,
                link_events,
                tracer,
                metrics,
                ..
            } = self;
            let medium = media[li].as_mut().expect("stepping unowned medium");
            let mut ev = |e: LinkEvent| {
                link_events.push(e);
                tracer.emit(
                    link_key(li as u32),
                    now,
                    TraceKind::Link,
                    NO_PID,
                    li as u32,
                    link_event_code(e),
                );
                if e == LinkEvent::Retransmit {
                    // Recovery traffic is forward progress: it must
                    // hold the deadlock watchdog off.
                    *activity = true;
                }
            };
            match &mut *medium {
                // Plain links never join the set; their flits are on the
                // wheel.
                Medium::Plain(_) => {}
                Medium::Guarded(line) => {
                    let lf = &mut faults.links[li];
                    line.advance(now, arena, &mut || lf.draw(now), &mut ev);
                    line.drain_delivered(|fref| arrivals.push((fref, None)));
                }
                Medium::Hetero(h) => {
                    h.advance(now, arena, &mut ev);
                    while let Some((fref, lane)) = h.pop_delivered() {
                        arrivals.push((fref, Some(lane)));
                    }
                    if let Some(m) = metrics.as_mut() {
                        if let Some(id) = m.ids.rob_gauge[li] {
                            // Sampled after `advance`, matching the
                            // occupancy definition the Eq. 1 bound is
                            // checked against.
                            m.slice.raise(id, h.rob_occupancy() as u64);
                        }
                    }
                }
            }
            if medium.in_flight() > 0 {
                active_media.insert(li);
            }
            for (fref, phy) in arrivals.drain(..) {
                self.deliver(ctx, li, fref, phy);
            }
        }
        self.arrivals = arrivals;
        self.ids = ids;
    }

    /// Hands a flit that arrived over owned link `li` to its destination:
    /// the input buffer when the destination router is owned, the
    /// destination shard's mailbox otherwise. The per-link accounting
    /// happens here, at the owner — the serial engine's accounting site —
    /// and the flit counts the hop itself. `phy` names the hetero-PHY
    /// adapter lane the flit came off, if any.
    #[inline]
    fn deliver(&mut self, ctx: &EngineCtx<'_>, li: usize, fref: FlitRef, phy: Option<PhyKind>) {
        let link = &ctx.wiring.links[li];
        let dst = link.dst as usize;
        let class = match phy {
            None => link.class,
            Some(PhyKind::Parallel) => LinkClass::Parallel,
            Some(PhyKind::Serial) => LinkClass::Serial,
        };
        let flit = self.arena.get_mut(fref);
        flit.count_hop(class);
        let flit = *flit;
        self.link_flits[li] += 1;
        let (kind, arg) = match phy {
            None => (TraceKind::Hop, flit.is_head() as u32),
            Some(lane) => {
                if let Some(m) = self.metrics.as_mut() {
                    m.slice.add(m.ids.phy_dispatch[lane as usize], 1);
                }
                (TraceKind::PhyDispatch, lane as u32)
            }
        };
        self.tracer.emit(
            link_key(li as u32),
            ctx.now,
            kind,
            flit.pid.0,
            li as u32,
            arg,
        );
        let dst_shard = ctx.part.node_shard[dst];
        if dst_shard == self.id {
            self.routers[dst].receive(link.in_port, fref, flit.vc);
            self.active_routers.insert(dst);
        } else {
            let flit = self.arena.free(fref);
            self.out_flits[dst_shard as usize].push(FlitMsg {
                li: li as u32,
                flit,
            });
        }
        self.activity = true;
    }

    /// NICs stream queued packets into injection ports.
    fn stage_inject(&mut self, ctx: &EngineCtx<'_>) {
        let (now, store, config) = (ctx.now, ctx.store, &ctx.wiring.config);
        let mut ids = std::mem::take(&mut self.ids);
        self.active_nics.drain_into(&mut ids);
        for &node in &ids {
            let nic = &mut self.nics[node];
            let router = &mut self.routers[node];
            let mut budget = config.inj_bandwidth;
            while budget > 0 {
                if nic.cur.is_none() {
                    let Some(&pid) = nic.queue.front() else { break };
                    let Some(vc) = (0..config.vcs).find(|&v| router.in_vc_idle(0, v)) else {
                        break;
                    };
                    nic.queue.pop_front();
                    nic.cur = Some(InjectState {
                        pid,
                        next_seq: 0,
                        vc,
                        len: store.get(pid).len,
                    });
                }
                let st = nic.cur.as_mut().expect("just set");
                let mut moved = false;
                while budget > 0 && st.next_seq < st.len && router.in_space(0, st.vc) > 0 {
                    if st.next_seq == 0 {
                        let info = store.get(st.pid);
                        info.injected.store(now, Relaxed);
                        self.tracer.emit(
                            node_key(node as u32),
                            now,
                            TraceKind::Inject,
                            st.pid.0,
                            node as u32,
                            info.dst.index() as u32,
                        );
                    }
                    let fref = self.arena.alloc(Flit::new(
                        st.pid,
                        st.next_seq,
                        st.vc,
                        st.next_seq + 1 == st.len,
                    ));
                    router.receive(0, fref, st.vc);
                    self.active_routers.insert(node);
                    st.next_seq += 1;
                    budget -= 1;
                    moved = true;
                    self.activity = true;
                }
                if st.next_seq == st.len {
                    nic.cur = None;
                } else if !moved {
                    break;
                }
            }
            if nic.has_work() {
                self.active_nics.insert(node);
            }
        }
        self.ids = ids;
    }

    /// Every active owned router runs its RC/VA/SA pipeline.
    fn stage_route(&mut self, ctx: &EngineCtx<'_>) {
        let mut ids = std::mem::take(&mut self.ids);
        self.active_routers.drain_into(&mut ids);
        // The routers and the arena step outside the shard the environment
        // borrows; both go back after the sweep.
        let mut routers = std::mem::take(&mut self.routers);
        let mut arena = std::mem::take(&mut self.arena);
        // One environment for the whole sweep; only the per-node fields
        // are rewritten between routers.
        let mut env = ShardEnv {
            ctx,
            shard: self,
            node: NodeId(0),
            outport_link: &[],
            inport_link: &[],
            eject_budget: 0,
        };
        for &node in &ids {
            let router = &mut routers[node];
            if router.is_quiescent() {
                continue;
            }
            env.node = NodeId(node as u32);
            env.outport_link = &ctx.wiring.outport_links[node];
            env.inport_link = &ctx.wiring.inport_links[node];
            env.eject_budget = ctx.wiring.config.eject_bandwidth as u16;
            router.step(ctx.now, &mut env, &mut arena);
            if !router.is_quiescent() {
                env.shard.active_routers.insert(node);
            }
        }
        self.routers = routers;
        self.arena = arena;
        self.ids = ids;
    }
}

/// The router's window onto its shard during [`Shard::stage_route`]: the
/// cycle's view, the shard (its routers and arena set aside), and the
/// node being stepped.
struct ShardEnv<'a> {
    ctx: &'a EngineCtx<'a>,
    shard: &'a mut Shard,
    node: NodeId,
    /// out_port (1-based; 0 is ejection) → LinkId, per this node.
    outport_link: &'a [LinkId],
    /// in_port (1-based; 0 is injection) → LinkId, per this node.
    inport_link: &'a [LinkId],
    eject_budget: u16,
}

impl RouterEnv for ShardEnv<'_> {
    #[inline]
    fn route(&mut self, pid: PacketId, out: &mut Vec<PortCandidate>) {
        let ctx = self.ctx;
        let info = ctx.store.get(pid);
        if info.dst == self.node {
            for vc in 0..ctx.wiring.config.vcs {
                out.push(PortCandidate {
                    out_port: 0,
                    vc,
                    baseline: true,
                    tier: 0,
                });
            }
            return;
        }
        let state = info.route_state();
        let cands = self.shard.route_table.lookup(
            ctx.wiring.routing.as_ref(),
            ctx.topo,
            self.node,
            info.dst,
            &state,
        );
        debug_assert!(
            !cands.is_empty(),
            "no route from {} to {}",
            self.node,
            info.dst
        );
        for c in cands {
            // Links leaving this node occupy out ports 1.. in adjacency
            // order; the network precomputed the link → out-port map.
            let port = ctx.wiring.links[c.link.index()].out_port;
            debug_assert_eq!(
                self.outport_link[(port - 1) as usize],
                c.link,
                "candidate link leaves this node"
            );
            out.push(PortCandidate {
                out_port: port,
                vc: c.vc,
                baseline: c.baseline,
                tier: c.tier,
            });
        }
    }

    #[inline]
    fn out_capacity(&mut self, out_port: u16) -> u16 {
        if out_port == 0 {
            return self.eject_budget;
        }
        let link = self.outport_link[(out_port - 1) as usize];
        let li = link.index();
        let (now, sh) = (self.ctx.now, &mut *self.shard);
        if sh.faults.blocked(li) {
            return 0; // hard-failed link: nothing enters (upstream stalls)
        }
        let cap = match sh.media[li].as_mut().expect("out over unowned link") {
            Medium::Plain(lanes) => lanes.capacity(now) as u16,
            Medium::Guarded(line) => line.capacity(now) as u16,
            Medium::Hetero(h) => h.space(),
        };
        match sh.faults.lane_cap(li) {
            Some(lanes) => cap.min(lanes as u16),
            None => cap,
        }
    }

    #[inline]
    fn send(&mut self, out_port: u16, fref: FlitRef, arena: &mut FlitArena) {
        let (ctx, now) = (self.ctx, self.ctx.now);
        let sh = &mut *self.shard;
        sh.activity = true;
        if out_port == 0 {
            debug_assert!(self.eject_budget > 0);
            self.eject_budget -= 1;
            let flit = arena.free(fref);
            let info = ctx.store.get(flit.pid);
            debug_assert_eq!(info.dst, self.node, "flit ejected at wrong node");
            let prev = info.eject(&flit);
            debug_assert_eq!(prev, flit.seq, "out-of-order ejection");
            if flit.last {
                debug_assert_eq!(prev + 1, info.len, "flit loss detected");
                let ev = delivery_event(now, info, &ctx.wiring.energy_model);
                sh.tracer.emit(
                    node_key(self.node.0),
                    now,
                    TraceKind::Eject,
                    flit.pid.0,
                    self.node.0,
                    ev.hops,
                );
                // The descriptor slot is freed at merge, in ascending-node
                // order across shards — the serial free order, keeping
                // PacketId recycling bit-identical.
                sh.deliveries.push(Delivery {
                    node: self.node.0,
                    pid: flit.pid,
                    ev,
                });
            }
            return;
        }
        let link = self.outport_link[(out_port - 1) as usize];
        let li = link.index();
        match sh.media[li].as_mut().expect("send over unowned link") {
            Medium::Plain(lanes) => {
                let at = lanes.try_take(now);
                debug_assert!(at.is_some(), "plain link over capacity");
                if let Some(at) = at {
                    sh.wheel.push_flit(at, link.0, fref);
                }
                return;
            }
            Medium::Guarded(line) => {
                // Corruption strikes the wire at transmission time; the
                // receiver's CRC catches it and the replay buffer recovers.
                let corrupt = sh.faults.draw(li, now);
                let ok = line.try_send(now, fref, arena, corrupt);
                debug_assert!(ok, "guarded link over capacity");
            }
            Medium::Hetero(h) => {
                let info = ctx.store.get(arena.get(fref).pid);
                h.push(now, fref, info.class, info.priority);
            }
        }
        sh.active_media.insert(li);
    }

    #[inline]
    fn credit(&mut self, in_port: u16, vc: u8) {
        if in_port == 0 {
            return; // injection port: the NIC reads buffer space directly
        }
        let link = self.inport_link[(in_port - 1) as usize];
        let li = link.index();
        let owner = self.ctx.part.link_owner[li];
        let sh = &mut *self.shard;
        if owner == sh.id {
            let at = self.ctx.now + sh.credit_latency[li] as Cycle;
            sh.wheel.push_credit(at, link.0, vc);
        } else {
            // The link's transmitter lives in its source shard; post the
            // credit for replay at the top of the next cycle.
            sh.out_credits[owner as usize].push(CreditMsg { li: li as u32, vc });
        }
    }

    #[inline]
    fn note_baseline_lock(&mut self, pid: PacketId) {
        self.ctx.store.get(pid).baseline_locked.store(true, Relaxed);
    }

    #[inline]
    fn on_pipeline(&mut self, stage: PipelineStage, pid: PacketId, info: u32) {
        let kind = match stage {
            PipelineStage::RouteCompute => TraceKind::RouteCompute,
            PipelineStage::VcAlloc => TraceKind::VcAlloc,
            PipelineStage::SwitchTraverse => TraceKind::SwitchTraverse,
        };
        self.shard.tracer.emit(
            node_key(self.node.0),
            self.ctx.now,
            kind,
            pid.0,
            self.node.0,
            info,
        );
    }
}

/// Builds the collector-facing summary of a packet at tail ejection.
fn delivery_event(now: Cycle, info: &PacketInfo, energy_model: &EnergyModel) -> DeliveryEvent {
    let e = energy_model.packet(info);
    DeliveryEvent {
        now,
        created: info.created,
        injected: info.injected.load(Relaxed),
        hops: info.hops.load(Relaxed),
        len: info.len,
        high_priority: info.priority == chiplet_noc::Priority::High,
        baseline_locked: info.baseline_locked.load(Relaxed),
        tag: info.tag,
        onchip_pj: e.onchip_pj,
        parallel_pj: e.parallel_pj,
        serial_pj: e.serial_pj,
    }
}
