//! Snapshot-exact checkpoint and restore for a running [`Network`].
//!
//! A checkpoint serializes every piece of *dynamic* simulation state —
//! router VC buffers, in-flight flits, packet descriptors (with their
//! exact freelist order, so future [`chiplet_noc::PacketId`] assignment
//! is bit-identical), NIC queues, retry windows, hetero-PHY adapters,
//! per-link fault RNG streams, in-transit cross-shard credits, the
//! statistics collector and (when armed) the trace ring and metric
//! cells — into a versioned, checksummed binary blob using the
//! hand-rolled codec in [`simkit::codec`].
//!
//! Static configuration is deliberately **not** serialized. The restore
//! target is rebuilt from the same topology, routing algorithm, config
//! and fault script as the saved run; [`Network::restore`] then overlays
//! the dynamic state. Two fingerprints in the header (config with
//! `shard_threads` zeroed, topology link list) reject mismatched
//! targets up front. Because the blob indexes state by *global* node
//! and link ids — never by shard — the target may be partitioned over a
//! **different** shard count: saving walks entities through their old
//! owner shard, loading dispatches to the new owner. The golden
//! fixture matrix pins that a restored run's results and merged
//! trace/metrics are bit-identical to the uncheckpointed run at every
//! thread count.
//!
//! # Boundary
//!
//! Checkpoints are taken **between cycles** (after a merge). At that
//! boundary the cross-shard flit mailbox is provably empty (flushed in
//! phase 1, drained in phase 2 of the same cycle) and all per-cycle
//! scratch is clear; the only in-transit state is the credit mailbox
//! (flushed in phase 2, replayed next cycle), which is serialized in a
//! canonical per-link order.
//!
//! # Blob layout (version [`CHECKPOINT_VERSION`])
//!
//! ```text
//! "HCPT" | version u32 | crc32(payload) u32 | payload
//! payload := META ENGN COLL PKTS NODE LINK ACTV CRDT OBSV
//! ```
//!
//! Each section is tagged and length-prefixed
//! ([`simkit::codec::ByteWriter::begin_section`]) so misalignment is
//! caught at a layer boundary instead of decoding garbage downstream.

use crate::network::{Collector, Network};
use crate::shard::{CreditMsg, FaultCore, LinkFaultSnap, Medium, Shard};
use crate::wheel::Due;
use chiplet_noc::{Flit, FlitRef};
use chiplet_topo::{LinkClass, LinkId, SystemTopology};
use simkit::codec::{crc32, ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use simkit::hash::fnv1a64;
use simkit::metrics::MetricKind;
use simkit::stats::Histogram;
use std::sync::atomic::Ordering::Relaxed;

/// Checkpoint blob format version. Bump on **any** layout change to the
/// blob (including section contents), and record the bump in
/// `CHANGELOG.md` — CI rejects version drift without a changelog entry.
pub const CHECKPOINT_VERSION: u32 = 3;

const MAGIC: [u8; 4] = *b"HCPT";
const SEC_META: [u8; 4] = *b"META";
const SEC_ENGINE: [u8; 4] = *b"ENGN";
const SEC_COLLECTOR: [u8; 4] = *b"COLL";
const SEC_PACKETS: [u8; 4] = *b"PKTS";
const SEC_NODES: [u8; 4] = *b"NODE";
const SEC_LINKS: [u8; 4] = *b"LINK";
const SEC_ACTIVE: [u8; 4] = *b"ACTV";
const SEC_CREDITS: [u8; 4] = *b"CRDT";
const SEC_OBSERVE: [u8; 4] = *b"OBSV";

/// Fingerprint of everything in the config that must match between save
/// and restore. `shard_threads` is zeroed and `idle_skip` cleared first:
/// the whole point of the global-entity blob layout is that the
/// partition may differ, and the skip loop is an engine-time strategy
/// that never touches simulation state — a blob saved mid-skip must
/// restore into a plain ticking engine and vice versa.
fn config_fingerprint(config: &crate::config::SimConfig) -> u64 {
    let mut c = *config;
    c.shard_threads = 0;
    c.idle_skip = false;
    fnv1a64(format!("{c:?}").as_bytes())
}

fn class_code(class: LinkClass) -> u8 {
    match class {
        LinkClass::OnChip => 0,
        LinkClass::Parallel => 1,
        LinkClass::Serial => 2,
        LinkClass::HeteroPhy => 3,
    }
}

/// Fingerprint of the topology's *fault-invariant* shape: node count
/// plus every link's endpoints and class. Up/down state is excluded on
/// purpose — hard faults edit the topology's routing view before a
/// save, and restore replays those edits from the serialized per-link
/// fault flags.
fn topo_fingerprint(topo: &SystemTopology) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u32(topo.geometry().nodes());
    w.put_usize(topo.links().len());
    for l in topo.links() {
        w.put_u32(l.src.0);
        w.put_u32(l.dst.0);
        w.put_u8(class_code(l.class));
    }
    fnv1a64(&w.into_bytes())
}

fn save_collector(c: &Collector, w: &mut ByteWriter) {
    c.latency.save_state(w);
    c.net_latency.save_state(w);
    c.latency_high.save_state(w);
    match &c.latency_hist {
        Some(h) => {
            w.put_bool(true);
            h.save_state(w);
        }
        None => w.put_bool(false),
    }
    c.hops.save_state(w);
    c.energy.save_state(w);
    w.put_f64(c.onchip_pj);
    w.put_f64(c.parallel_pj);
    w.put_f64(c.serial_pj);
    for v in [
        c.delivered_packets,
        c.delivered_flits,
        c.measured_packets,
        c.measured_flits,
        c.locked_packets,
        c.corrupted_flits,
        c.retransmitted_flits,
        c.retry_naks,
        c.retry_timeouts,
        c.failovers,
        c.faults_applied,
    ] {
        w.put_u64(v);
    }
    w.put_usize(c.by_tag.len());
    for s in &c.by_tag {
        w.put_u64(s.delivered);
        w.put_u64(s.packets);
        w.put_u64(s.flits);
        w.put_u64(s.latency_cycles);
        w.put_f64(s.energy_pj);
        w.put_u64(s.flit_hops);
    }
}

fn load_collector(c: &mut Collector, r: &mut ByteReader) -> Result<(), CodecError> {
    c.latency.load_state(r)?;
    c.net_latency.load_state(r)?;
    c.latency_high.load_state(r)?;
    c.latency_hist = if r.get_bool()? {
        // Bucket geometry fixed by the collector: 4-cycle buckets.
        let mut h = Histogram::new(4.0, 2048);
        h.load_state(r)?;
        Some(h)
    } else {
        None
    };
    c.hops.load_state(r)?;
    c.energy.load_state(r)?;
    c.onchip_pj = r.get_f64()?;
    c.parallel_pj = r.get_f64()?;
    c.serial_pj = r.get_f64()?;
    for v in [
        &mut c.delivered_packets,
        &mut c.delivered_flits,
        &mut c.measured_packets,
        &mut c.measured_flits,
        &mut c.locked_packets,
        &mut c.corrupted_flits,
        &mut c.retransmitted_flits,
        &mut c.retry_naks,
        &mut c.retry_timeouts,
        &mut c.failovers,
        &mut c.faults_applied,
    ] {
        *v = r.get_u64()?;
    }
    let tags = r.get_usize()?;
    c.by_tag.clear();
    c.by_tag.reserve(tags);
    for _ in 0..tags {
        c.by_tag.push(crate::network::TagStats {
            delivered: r.get_u64()?,
            packets: r.get_u64()?,
            flits: r.get_u64()?,
            latency_cycles: r.get_u64()?,
            energy_pj: r.get_f64()?,
            flit_hops: r.get_u64()?,
        });
    }
    Ok(())
}

fn medium_tag(m: &Medium) -> u8 {
    match m {
        Medium::Plain(_) => 0,
        Medium::Guarded(_) => 1,
        Medium::Hetero(_) => 2,
    }
}

/// The leading run of `pending` on link `li`, advancing `pending` past it.
fn take_link<'a, T>(pending: &mut &'a [Due<T>], li: usize) -> &'a [Due<T>] {
    let n = pending.iter().take_while(|d| d.link as usize == li).count();
    let (run, rest) = pending.split_at(n);
    *pending = rest;
    run
}

impl Network {
    /// Serializes the complete dynamic simulation state into a
    /// versioned, checksummed blob.
    ///
    /// Must be called between cycles (any point outside
    /// [`Network::step`], which is all a caller can reach). The blob
    /// restores onto a freshly built network with the same config
    /// (ignoring `shard_threads`), topology, routing and fault script —
    /// see [`Network::restore`].
    ///
    /// # Panics
    ///
    /// Panics if internal between-cycles invariants do not hold
    /// (a non-empty cross-shard flit mailbox or per-cycle scratch),
    /// which cannot happen through the public API.
    pub fn checkpoint(&self) -> Vec<u8> {
        assert!(
            self.engine.mail.flits.is_empty(),
            "checkpoint must be taken between cycles: flit mailbox not empty"
        );
        let guards: Vec<_> = self
            .engine
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned"))
            .collect();
        for g in &guards {
            assert!(
                g.scratch_empty(),
                "checkpoint must be taken between cycles: shard scratch not empty"
            );
        }
        let part = &self.engine.part;
        let topo = self.fabric.topo.read().expect("topology lock poisoned");
        let nodes = part.node_shard.len();
        let links = part.link_owner.len();

        let mut w = ByteWriter::new();

        let t = w.begin_section(SEC_META);
        w.put_u64(config_fingerprint(&self.fabric.wiring.config));
        w.put_u64(topo_fingerprint(&topo));
        w.put_u32(nodes as u32);
        w.put_u32(links as u32);
        w.end_section(t);

        let t = w.begin_section(SEC_ENGINE);
        w.put_u64(self.engine.now.load(Relaxed));
        w.put_u64(self.hub.measure_from);
        w.put_u64(self.hub.last_activity);
        w.put_usize(self.hub.script_pos);
        w.put_u64(guards.iter().map(|g| g.arena.allocated_total()).sum());
        w.put_u64(guards.iter().map(|g| g.active_cycles).sum());
        w.put_u64(self.hub.barrier_wait_ns);
        w.end_section(t);

        let t = w.begin_section(SEC_COLLECTOR);
        save_collector(&self.hub.collector, &mut w);
        w.end_section(t);

        let t = w.begin_section(SEC_PACKETS);
        self.engine
            .store
            .read()
            .expect("store lock poisoned")
            .save_state(&mut w);
        w.end_section(t);

        // Global entity walk: each node/link serialized through its
        // *owner* shard, in ascending global id order. Loading dispatches
        // by the target's (possibly different) partition.
        let t = w.begin_section(SEC_NODES);
        for i in 0..nodes {
            let g = &*guards[part.node_shard[i] as usize];
            g.routers[i].save_state_with(&g.arena, &mut w);
            g.nics[i].save_state(&mut w);
        }
        w.end_section(t);

        // A plain link's flits and every link's returning credits live on
        // the owner's wheel; the blob records them per link, as the
        // pipeline and credit queues the link would otherwise own:
        // ascending link, then arrival order. A link's entries sit in one
        // shard's wheel, within a bucket in send order, so a stable sort
        // by `(link, due)` restores each queue exactly.
        let mut flits: Vec<Due<FlitRef>> = guards
            .iter()
            .flat_map(|g| g.wheel.flit_entries().copied())
            .collect();
        flits.sort_by_key(|d| (d.link, d.at));
        let mut credits: Vec<Due<u8>> = guards
            .iter()
            .flat_map(|g| g.wheel.credit_entries().copied())
            .collect();
        credits.sort_by_key(|d| (d.link, d.at));
        let (mut flits_left, mut credits_left) = (&flits[..], &credits[..]);
        let t = w.begin_section(SEC_LINKS);
        for li in 0..links {
            let g = &*guards[part.link_owner[li] as usize];
            let m = g.media[li].as_ref().expect("owner holds the medium");
            w.put_u8(medium_tag(m));
            match m {
                Medium::Plain(lanes) => {
                    lanes.save_state(&mut w);
                    let run = take_link(&mut flits_left, li);
                    w.put_usize(run.len());
                    for d in run {
                        w.put_u64(d.at);
                        g.arena.get(d.item).save_state(&mut w);
                    }
                }
                Medium::Guarded(line) => line.save_state_with(&g.arena, &mut w),
                Medium::Hetero(h) => h.save_state_with(&g.arena, &mut w),
            }
            let run = take_link(&mut credits_left, li);
            w.put_usize(run.len());
            for d in run {
                w.put_u64(d.at);
                w.put_u8(d.item);
            }
            w.put_u64(g.link_flits[li]);
            g.faults.save_link(li, &mut w);
        }
        w.end_section(t);

        // Active sets as global sorted member lists (each entry only ever
        // set by its owner, so the per-shard sets are disjoint). Links
        // with wheel entries count as active media (plain links with
        // flits in flight) and as active credit returns, the membership
        // per-link queues behind active sets had.
        let t = w.begin_section(SEC_ACTIVE);
        let mut members = Vec::new();
        let mut scratch = Vec::new();
        for pick in [0usize, 1, 2, 3] {
            members.clear();
            match pick {
                1 => members.extend(flits.iter().map(|d| d.link as usize)),
                2 => members.extend(credits.iter().map(|d| d.link as usize)),
                _ => {}
            }
            for g in &guards {
                match pick {
                    0 => g.active_routers.members_into(&mut scratch),
                    1 => g.active_media.members_into(&mut scratch),
                    2 => {}
                    _ => g.active_nics.members_into(&mut scratch),
                }
                members.append(&mut scratch);
            }
            members.sort_unstable();
            members.dedup();
            w.put_usize(members.len());
            for &m in &members {
                w.put_u32(m as u32);
            }
        }
        w.end_section(t);

        // In-transit cross-shard credits, canonicalized to (link id,
        // per-link send order). Per-link order is what replay semantics
        // (and a later re-checkpoint of the link's returning credits)
        // depend on; cross-link order within the mailbox is immaterial
        // because each credit is replayed onto its own link.
        let t = w.begin_section(SEC_CREDITS);
        let mut msgs: Vec<(u32, u32, u8)> = Vec::new();
        let mut seq = vec![0u32; links];
        self.engine.mail.credits.for_each(|_, _, m: &CreditMsg| {
            let s = seq[m.li as usize];
            seq[m.li as usize] += 1;
            msgs.push((m.li, s, m.vc));
        });
        msgs.sort_unstable();
        w.put_usize(msgs.len());
        for (li, _, vc) in msgs {
            w.put_u32(li);
            w.put_u8(vc);
        }
        w.end_section(t);

        // Observability: the trace ring verbatim; metric cells folded to
        // one merged slice (counters sum, gauges max) — per-shard splits
        // are partition-dependent, the fold is not.
        let t = w.begin_section(SEC_OBSERVE);
        match &self.hub.trace {
            Some(ring) => {
                w.put_bool(true);
                ring.save_state(&mut w);
            }
            None => w.put_bool(false),
        }
        match &self.hub.metrics {
            Some(reg) => {
                w.put_bool(true);
                let mut folded = vec![0u64; reg.specs().len()];
                for g in &guards {
                    if let Some(m) = &g.metrics {
                        for (acc, (&cell, spec)) in folded
                            .iter_mut()
                            .zip(m.slice.cells().iter().zip(reg.specs()))
                        {
                            match spec.kind {
                                // Histograms are snapshot-derived, never
                                // hot-path cells; sum is the safe fold.
                                MetricKind::Counter | MetricKind::Histogram => *acc += cell,
                                MetricKind::Gauge => *acc = (*acc).max(cell),
                            }
                        }
                    }
                }
                w.put_usize(folded.len());
                for v in folded {
                    w.put_u64(v);
                }
            }
            None => w.put_bool(false),
        }
        w.end_section(t);

        let payload = w.into_bytes();
        let mut blob = ByteWriter::new();
        blob.put_bytes(&MAGIC);
        blob.put_u32(CHECKPOINT_VERSION);
        blob.put_u32(crc32(&payload));
        blob.put_bytes(&payload);
        blob.into_bytes()
    }

    /// Overlays a checkpoint blob onto this freshly built network.
    ///
    /// The target must be built from the same topology, routing
    /// algorithm, config (ignoring `shard_threads` — restoring into a
    /// different shard count is supported and bit-identical) and with
    /// the same fault script and instrumentation
    /// ([`Network::enable_trace`] / [`Network::enable_metrics`]) armed
    /// as the saved run. Call [`Network::set_fault_script`] *before*
    /// `restore` — the blob carries the script cursor.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] / [`CodecError::BadVersion`] /
    /// [`CodecError::BadChecksum`] / [`CodecError::Truncated`] for a
    /// damaged or foreign blob; [`CodecError::Mismatch`] when the blob
    /// is well-formed but the target differs (config, topology,
    /// instrumentation arming, or not freshly built); and
    /// [`CodecError::Corrupt`] / [`CodecError::BadSection`] when a
    /// decoded value is out of range. On error the target is left in an
    /// unspecified state — rebuild it before retrying.
    pub fn restore(&mut self, blob: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(blob);
        if r.get_bytes(4)? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CodecError::BadVersion {
                found: version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let crc = r.get_u32()?;
        let payload = r.get_bytes(r.remaining())?;
        if crc32(payload) != crc {
            return Err(CodecError::BadChecksum);
        }
        if self.engine.now() != 0 || self.engine.live_packets() != 0 {
            return Err(CodecError::Mismatch(
                "restore target must be a freshly built network (cycle 0, no traffic)".into(),
            ));
        }
        let mut r = ByteReader::new(payload);

        r.expect_section(SEC_META)?;
        let config_fp = r.get_u64()?;
        let topo_fp = r.get_u64()?;
        let nodes = r.get_u32()? as usize;
        let links = r.get_u32()? as usize;
        {
            let topo = self.fabric.topo.get_mut().expect("topology lock poisoned");
            if config_fp != config_fingerprint(&self.fabric.wiring.config) {
                return Err(CodecError::Mismatch(
                    "checkpoint was taken under a different configuration".into(),
                ));
            }
            if topo_fp != topo_fingerprint(topo) {
                return Err(CodecError::Mismatch(
                    "checkpoint was taken on a different topology".into(),
                ));
            }
        }
        if nodes != self.engine.part.node_shard.len() || links != self.engine.part.link_owner.len()
        {
            return Err(CodecError::Mismatch(
                "checkpoint entity counts do not match the rebuilt system".into(),
            ));
        }

        r.expect_section(SEC_ENGINE)?;
        let now = r.get_u64()?;
        let measure_from = r.get_u64()?;
        let last_activity = r.get_u64()?;
        let script_pos = r.get_usize()?;
        let alloc_total = r.get_u64()?;
        let active_cycles = r.get_u64()?;
        let barrier_wait_ns = r.get_u64()?;
        if script_pos > self.hub.script.events().len() {
            return Err(CodecError::Mismatch(
                "fault-script cursor beyond the installed script (install the saved run's \
                 script before restoring)"
                    .into(),
            ));
        }

        r.expect_section(SEC_COLLECTOR)?;
        load_collector(&mut self.hub.collector, &mut r)?;

        r.expect_section(SEC_PACKETS)?;
        self.engine
            .store
            .get_mut()
            .expect("store lock poisoned")
            .load_state(&mut r)?;

        r.expect_section(SEC_NODES)?;
        for i in 0..nodes {
            let owner = self.engine.part.node_shard[i] as usize;
            let sh = self.engine.shards[owner]
                .get_mut()
                .expect("shard lock poisoned");
            let Shard {
                routers,
                nics,
                arena,
                ..
            } = &mut *sh;
            routers[i].load_state_with(arena, &mut r)?;
            nics[i].load_state(&mut r)?;
        }

        r.expect_section(SEC_LINKS)?;
        let mut fault_snaps: Vec<LinkFaultSnap> = Vec::with_capacity(links);
        for li in 0..links {
            let owner = self.engine.part.link_owner[li] as usize;
            let sh = self.engine.shards[owner]
                .get_mut()
                .expect("shard lock poisoned");
            let Shard {
                media,
                wheel,
                link_flits,
                arena,
                ..
            } = &mut *sh;
            let tag = r.get_u8()?;
            let m = media[li].as_mut().expect("owner holds the medium");
            match (tag, m) {
                (0, Medium::Plain(lanes)) => {
                    lanes.load_state(&mut r)?;
                    for _ in 0..r.get_usize()? {
                        let at = r.get_u64()?;
                        wheel.check_restored(now, at)?;
                        let flit = Flit::read_from(&mut r)?;
                        wheel.push_flit(at, li as u32, arena.alloc(flit));
                    }
                }
                (1, Medium::Guarded(line)) => line.load_state_with(arena, &mut r)?,
                (2, Medium::Hetero(h)) => h.load_state_with(arena, &mut r)?,
                (t @ 0..=2, _) => {
                    return Err(CodecError::Mismatch(format!(
                        "link {li}: checkpoint medium kind {t} does not match the rebuilt medium"
                    )))
                }
                _ => return Err(CodecError::Corrupt("medium kind tag")),
            }
            for _ in 0..r.get_usize()? {
                let at = r.get_u64()?;
                wheel.check_restored(now, at)?;
                let vc = r.get_u8()?;
                if vc >= self.fabric.wiring.config.vcs {
                    return Err(CodecError::Corrupt("returning credit names a missing VC"));
                }
                wheel.push_credit(at, li as u32, vc);
            }
            link_flits[li] = r.get_u64()?;
            fault_snaps.push(FaultCore::read_link(&mut r)?);
        }
        // Every shard holds the full fault core; overlay each link's
        // snapshot on all copies so the streams stay partition-invisible.
        for s in &mut self.engine.shards {
            let sh = s.get_mut().expect("shard lock poisoned");
            for (li, snap) in fault_snaps.iter().enumerate() {
                sh.faults.apply_link(li, snap);
            }
        }

        r.expect_section(SEC_ACTIVE)?;
        for s in &mut self.engine.shards {
            let sh = s.get_mut().expect("shard lock poisoned");
            sh.active_routers.clear();
            sh.active_media.clear();
            sh.active_nics.clear();
        }
        for pick in [0usize, 1, 2, 3] {
            let n = r.get_usize()?;
            let (cap, by_node) = match pick {
                0 => (nodes, true),
                1 | 2 => (links, false),
                _ => (nodes, true),
            };
            for _ in 0..n {
                let i = r.get_u32()? as usize;
                if i >= cap {
                    return Err(CodecError::Corrupt("active-set member out of range"));
                }
                let owner = if by_node {
                    self.engine.part.node_shard[i] as usize
                } else {
                    self.engine.part.link_owner[i] as usize
                };
                let sh = self.engine.shards[owner]
                    .get_mut()
                    .expect("shard lock poisoned");
                match pick {
                    0 => sh.active_routers.insert(i),
                    // Plain links and credit returns are scheduled by
                    // their wheel entries, loaded above.
                    1 if !matches!(sh.media[i], Some(Medium::Plain(_))) => {
                        sh.active_media.insert(i)
                    }
                    1 | 2 => {}
                    _ => sh.active_nics.insert(i),
                }
            }
        }

        r.expect_section(SEC_CREDITS)?;
        self.engine.mail.flits.clear();
        self.engine.mail.credits.clear();
        let n = r.get_usize()?;
        for _ in 0..n {
            let li = r.get_u32()? as usize;
            let vc = r.get_u8()?;
            if li >= links {
                return Err(CodecError::Corrupt("credit message link out of range"));
            }
            if vc >= self.fabric.wiring.config.vcs {
                return Err(CodecError::Corrupt("credit message names a missing VC"));
            }
            // Producer = shard of the link's destination router (the
            // crediting side); consumer = the link's owner, which replays
            // the credit onto its wheel next phase 1.
            let dst = self.fabric.wiring.links[li].dst as usize;
            let producer = self.engine.part.node_shard[dst] as usize;
            let consumer = self.engine.part.link_owner[li] as usize;
            self.engine
                .mail
                .credits
                .push(producer, consumer, CreditMsg { li: li as u32, vc });
        }

        r.expect_section(SEC_OBSERVE)?;
        let has_trace = r.get_bool()?;
        match (&mut self.hub.trace, has_trace) {
            (Some(ring), true) => ring.load_state(&mut r)?,
            (None, true) => {
                return Err(CodecError::Mismatch(
                    "checkpoint carries a trace ring but tracing is not enabled on the \
                     restore target"
                        .into(),
                ))
            }
            (Some(_), false) => {
                return Err(CodecError::Mismatch(
                    "tracing is enabled on the restore target but the checkpoint carries no \
                     trace ring"
                        .into(),
                ))
            }
            (None, false) => {}
        }
        let has_metrics = r.get_bool()?;
        match (&self.hub.metrics, has_metrics) {
            (Some(reg), true) => {
                let n = r.get_usize()?;
                if n != reg.specs().len() {
                    return Err(CodecError::Mismatch(
                        "checkpoint metric catalog size differs from the restore target".into(),
                    ));
                }
                let mut folded = Vec::with_capacity(n);
                for _ in 0..n {
                    folded.push(r.get_u64()?);
                }
                // Write the merged cells into shard 0 and zero the rest:
                // the fold (sum / max with zeros) reproduces the totals.
                for (sid, s) in self.engine.shards.iter_mut().enumerate() {
                    let sh = s.get_mut().expect("shard lock poisoned");
                    let m = sh.metrics.as_mut().expect("metrics armed on every shard");
                    if sid == 0 {
                        m.slice.cells_mut().copy_from_slice(&folded);
                    } else {
                        m.slice.cells_mut().fill(0);
                    }
                }
            }
            (None, true) => {
                return Err(CodecError::Mismatch(
                    "checkpoint carries metric cells but metrics are not enabled on the \
                     restore target"
                        .into(),
                ))
            }
            (Some(_), false) => {
                return Err(CodecError::Mismatch(
                    "metrics are enabled on the restore target but the checkpoint carries \
                     no cells"
                        .into(),
                ))
            }
            (None, false) => {}
        }
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after final section"));
        }

        // Lifetime-allocation counter: loading re-admitted exactly the
        // in-flight handles; charge the difference to shard 0 so the
        // global sum (the observable quantity) matches the saved run.
        let current: u64 = self
            .engine
            .shards
            .iter_mut()
            .map(|s| {
                s.get_mut()
                    .expect("shard lock poisoned")
                    .arena
                    .allocated_total()
            })
            .sum();
        if alloc_total < current {
            return Err(CodecError::Corrupt("arena lifetime-allocation counter"));
        }
        {
            let sh = self.engine.shards[0]
                .get_mut()
                .expect("shard lock poisoned");
            let base = sh.arena.allocated_total();
            sh.arena.set_allocated_total(base + (alloc_total - current));
            sh.active_cycles = active_cycles;
        }

        // Replay hard-fault topology edits (the routing view is not
        // serialized; it is a pure function of the blocked set) and drop
        // any route cached against the unfaulted view.
        let blocked: Vec<LinkId> = fault_snaps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.blocked)
            .map(|(li, _)| LinkId(li as u32))
            .collect();
        if !blocked.is_empty() {
            let topo = self.fabric.topo.get_mut().expect("topology lock poisoned");
            for &id in &blocked {
                topo.set_pair_down(id, true);
            }
            for s in &mut self.engine.shards {
                s.get_mut()
                    .expect("shard lock poisoned")
                    .route_table
                    .invalidate();
            }
        }

        self.engine.now.store(now, Relaxed);
        self.hub.measure_from = measure_from;
        self.hub.last_activity = last_activity;
        self.hub.script_pos = script_pos;
        self.hub.barrier_wait_ns = barrier_wait_ns;

        self.validate_invariants().map_err(CodecError::Mismatch)?;
        Ok(())
    }

    /// Clones this network's current state into `n` independent copies,
    /// each built by `build` and overlaid with one shared checkpoint of
    /// `self` — the warm-start primitive: warm one network up, then fork
    /// it into divergent sweep points without re-simulating the warmup.
    ///
    /// `build` must produce networks restore-compatible with `self`
    /// (same topology/routing/config modulo `shard_threads`); a builder
    /// closure is taken because `Network` itself is not `Clone` (the
    /// routing strategy is a trait object).
    ///
    /// # Errors
    ///
    /// Whatever [`Network::restore`] reports for a mismatched `build`.
    pub fn fork_with<F>(&self, n: usize, mut build: F) -> Result<Vec<Network>, CodecError>
    where
        F: FnMut() -> Network,
    {
        let blob = self.checkpoint();
        (0..n)
            .map(|_| {
                let mut net = build();
                net.restore(&blob)?;
                Ok(net)
            })
            .collect()
    }

    /// Structural invariant check over the full engine state, run after
    /// every restore (and available to tests): per-router counter and
    /// credit consistency, per-VC credit conservation on plain links
    /// (counting the flits and credits on the shards' wheels), arena
    /// occupancy == live handles held by routers, wheels and link
    /// pipelines, and an empty cross-shard flit mailbox.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate_invariants(&self) -> Result<(), String> {
        if !self.engine.mail.flits.is_empty() {
            return Err("cross-shard flit mailbox not empty between cycles".into());
        }
        let guards: Vec<_> = self
            .engine
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned"))
            .collect();
        let part = &self.engine.part;
        let vcs = self.fabric.wiring.config.vcs as usize;

        for (sid, g) in guards.iter().enumerate() {
            for &node in &g.nodes {
                let i = node.index();
                g.routers[i]
                    .check_invariants()
                    .map_err(|e| format!("shard {sid} router {i}: {e}"))?;
            }
        }

        // Per-VC credit conservation on plain links: transmitter credits
        // + flits on the wheel + receiver buffer occupancy + credits in
        // flight back (wheel + cross-shard mailbox) must equal the
        // receiver's buffer depth. Checked per link before the per-shard
        // handle totals, so a lost flit or credit names its link.
        let mut in_line = vec![0usize; part.link_owner.len() * vcs];
        let mut returning = vec![0usize; part.link_owner.len() * vcs];
        self.engine.mail.credits.for_each(|_, _, m| {
            returning[m.li as usize * vcs + m.vc as usize] += 1;
        });
        for g in &guards {
            for d in g.wheel.flit_entries() {
                let (li, vc) = (d.link as usize, g.arena.get(d.item).vc);
                if vc as usize >= vcs {
                    return Err(format!("link {li}: flit on missing vc {vc} in the wheel"));
                }
                in_line[li * vcs + vc as usize] += 1;
            }
            for d in g.wheel.credit_entries() {
                returning[d.link as usize * vcs + d.item as usize] += 1;
            }
        }
        for (li, link) in self.fabric.wiring.links.iter().enumerate() {
            let g = &guards[part.link_owner[li] as usize];
            if !matches!(g.media[li], Some(Medium::Plain(_))) {
                continue;
            }
            let depth = match link.class {
                LinkClass::OnChip => self.fabric.wiring.config.onchip_vc_depth,
                _ => self.fabric.wiring.config.iface_vc_depth,
            } as usize;
            let (s, d) = (link.src as usize, link.dst as usize);
            let src = &guards[part.node_shard[s] as usize].routers[s];
            let dst = &guards[part.node_shard[d] as usize].routers[d];
            for vc in 0..self.fabric.wiring.config.vcs {
                let credits = src.out_vc_credits(link.out_port, vc) as usize;
                let on_wire = in_line[li * vcs + vc as usize];
                let occupancy = dst.in_occupancy(link.in_port, vc);
                let back = returning[li * vcs + vc as usize];
                let total = credits + on_wire + occupancy + back;
                if total != depth {
                    return Err(format!(
                        "link {li} vc {vc}: credit conservation violated \
                         ({credits} credits + {on_wire} in line + {occupancy} buffered + \
                         {back} returning != depth {depth})"
                    ));
                }
            }
        }

        // Per-shard handle accounting: every arena handle is held by
        // exactly one router VC buffer, wheel entry, retry window
        // (forward frames + delivered queue) or hetero-PHY adapter.
        for (sid, g) in guards.iter().enumerate() {
            let mut held = g.wheel.flits();
            for &node in &g.nodes {
                held += g.routers[node.index()].buffered_flits();
            }
            for m in g.media.iter().flatten() {
                held += match m {
                    Medium::Plain(_) => 0,
                    Medium::Guarded(line) => line.held_handles(),
                    Medium::Hetero(h) => h.in_flight(),
                };
            }
            if g.arena.in_flight() != held {
                return Err(format!(
                    "shard {sid}: arena holds {} flits but routers/links account for {held}",
                    g.arena.in_flight()
                ));
            }
        }

        // Descriptor sanity: NIC backlogs can never exceed the live
        // descriptor population.
        let queued: usize = guards
            .iter()
            .map(|g| g.nics.iter().map(|nic| nic.pending()).sum::<usize>())
            .sum();
        let live = self
            .engine
            .store
            .read()
            .expect("store lock poisoned")
            .live();
        if queued > live {
            return Err(format!(
                "{queued} packets queued at NICs but only {live} descriptors live"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use chiplet_topo::{build, routing, Geometry, SystemKind};
    use chiplet_traffic::PacketRequest;
    use simkit::trace::TraceFilter;

    fn mesh_net(threads: usize) -> Network {
        let geom = Geometry::new(2, 2, 2, 2);
        let topo = build::parallel_mesh(geom);
        let r = routing::for_system(SystemKind::ParallelMesh, 2);
        Network::new(topo, r, SimConfig::default().with_shard_threads(threads))
    }

    fn inject_and_step(net: &mut Network, cycles: u64) {
        let g = *net.topology().geometry();
        for i in 0..6u16 {
            net.offer(PacketRequest::new(
                g.node_at(i % 4, 0),
                g.node_at(3 - i % 4, 3),
                16,
            ));
        }
        for _ in 0..cycles {
            net.step();
        }
    }

    #[test]
    fn round_trip_mid_flight_continues_bit_identically() {
        let mut a = mesh_net(1);
        inject_and_step(&mut a, 10);
        assert!(a.flits_in_flight() > 0, "flits should be mid-flight");
        let blob = a.checkpoint();
        let mut b = mesh_net(1);
        b.restore(&blob).unwrap();
        assert_eq!(a.now(), b.now());
        for _ in 0..2_000 {
            if a.live_packets() == 0 && b.live_packets() == 0 {
                break;
            }
            a.step();
            b.step();
            assert_eq!(a.live_packets(), b.live_packets());
        }
        assert_eq!(a.live_packets(), 0, "run should drain");
        let (ca, cb) = (a.collector(), b.collector());
        assert_eq!(ca.delivered_packets, cb.delivered_packets);
        assert_eq!(ca.latency.mean().to_bits(), cb.latency.mean().to_bits());
        assert_eq!(a.link_flits(), b.link_flits());
        assert_eq!(a.flits_allocated_total(), b.flits_allocated_total());
    }

    #[test]
    fn restore_into_different_shard_count() {
        let mut a = mesh_net(1);
        inject_and_step(&mut a, 10);
        let blob = a.checkpoint();
        let mut b = mesh_net(4);
        b.restore(&blob).unwrap();
        assert_eq!(b.num_shards(), 4, "partition comes from the target");
        while a.live_packets() > 0 {
            a.step();
        }
        while b.live_packets() > 0 {
            b.step();
        }
        assert_eq!(
            a.collector().delivered_packets,
            b.collector().delivered_packets
        );
        assert_eq!(a.link_flits(), b.link_flits());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn header_rejects_garbage_truncation_and_drift() {
        let mut a = mesh_net(1);
        inject_and_step(&mut a, 5);
        let blob = a.checkpoint();
        assert_eq!(
            mesh_net(1).restore(b"not a checkpoint").unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            mesh_net(1).restore(&blob[..8]).unwrap_err(),
            CodecError::Truncated
        );
        assert_eq!(
            mesh_net(1).restore(&blob[..blob.len() - 3]).unwrap_err(),
            CodecError::BadChecksum
        );
        let mut flipped = blob.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            mesh_net(1).restore(&flipped).unwrap_err(),
            CodecError::BadChecksum
        );
        let mut drift = blob;
        drift[4] ^= 0xFF;
        assert!(matches!(
            mesh_net(1).restore(&drift).unwrap_err(),
            CodecError::BadVersion { .. }
        ));
    }

    /// Version 2 blobs carry flits without their hop counts and in-flight
    /// packets with partial totals; they must be refused, not misread.
    #[test]
    fn version_2_blobs_are_refused() {
        let mut a = mesh_net(1);
        inject_and_step(&mut a, 5);
        let mut blob = a.checkpoint();
        assert_eq!(blob[4..8], CHECKPOINT_VERSION.to_le_bytes());
        blob[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            mesh_net(1).restore(&blob).unwrap_err(),
            CodecError::BadVersion {
                found: 2,
                expected: 3
            }
        );
    }

    #[test]
    fn mismatched_targets_rejected() {
        let mut a = mesh_net(1);
        inject_and_step(&mut a, 5);
        let blob = a.checkpoint();
        // Different config (seed participates in the fingerprint).
        let geom = Geometry::new(2, 2, 2, 2);
        let topo = build::parallel_mesh(geom);
        let r = routing::for_system(SystemKind::ParallelMesh, 2);
        let mut cfg = SimConfig::default();
        cfg.seed ^= 1;
        let mut other = Network::new(topo, r, cfg);
        assert!(matches!(
            other.restore(&blob).unwrap_err(),
            CodecError::Mismatch(_)
        ));
        // Not freshly built.
        let mut warm = mesh_net(1);
        inject_and_step(&mut warm, 3);
        assert!(matches!(
            warm.restore(&blob).unwrap_err(),
            CodecError::Mismatch(_)
        ));
        // Instrumentation armed on the target but absent from the blob.
        let mut traced = mesh_net(1);
        traced.enable_trace(1024, TraceFilter::all());
        assert!(matches!(
            traced.restore(&blob).unwrap_err(),
            CodecError::Mismatch(_)
        ));
    }

    #[test]
    fn validator_names_the_link_of_a_lost_wheel_flit_or_credit() {
        for lose_credit in [false, true] {
            let mut net = mesh_net(1);
            inject_and_step(&mut net, 12);
            net.validate_invariants().unwrap();
            let sh = net.engine.shards[0].get_mut().unwrap();
            let wheel = &mut sh.wheel;
            // Take every entry of one due cycle off the wheel and put all
            // but the first back.
            let link = if lose_credit {
                let at = wheel.credit_entries().next().expect("credits returning").at;
                let mut due = Vec::new();
                wheel.drain_credits(at, |l, vc| due.push((l, vc)));
                for &(l, vc) in &due[1..] {
                    wheel.push_credit(at, l, vc);
                }
                due[0].0
            } else {
                let at = wheel.flit_entries().next().expect("flits in flight").at;
                let mut due = Vec::new();
                wheel.drain_flits(at, |l, f| due.push((l, f)));
                for &(l, f) in &due[1..] {
                    wheel.push_flit(at, l, f);
                }
                due[0].0
            };
            let e = net.validate_invariants().unwrap_err();
            assert!(
                e.contains(&format!("link {link} ")),
                "lost {} on link {link}: {e}",
                if lose_credit { "credit" } else { "flit" }
            );
        }
    }

    #[test]
    fn fork_with_spawns_identical_copies() {
        let mut a = mesh_net(1);
        inject_and_step(&mut a, 10);
        let forks = a.fork_with(2, || mesh_net(2)).unwrap();
        assert_eq!(forks.len(), 2);
        for f in &forks {
            assert_eq!(f.now(), a.now());
            assert_eq!(f.live_packets(), a.live_packets());
            f.validate_invariants().unwrap();
        }
    }
}
