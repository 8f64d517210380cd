//! Network decomposition: from a topology + traffic spec to per-link
//! workloads and link equivalence classes.
//!
//! The pass runs one shortest-path DAG per source node (two for
//! hetero-channel systems, which route each pair over the parallel mesh
//! *or* the serial hypercube per Eq. 5) and pushes the pattern's
//! destination weights through the DAG with Brandes-style path counting:
//! every minimal route carries an equal share, matching the adaptive
//! routers' load balancing in expectation. The result is rate-independent
//! — per-link loads under injection rate `r` are `r * unit_load`.

use crate::workload::{load_bucket, ClassKey, LinkWorkload};
use chiplet_topo::weight::PathDag;
use chiplet_topo::{Link, LinkClass, LinkId, LinkKind, NodeId, SystemKind, SystemTopology};
use chiplet_traffic::TrafficPattern;
use hetero_if::{Network, SchedulingProfile, SimConfig};

/// Cost of a direct hop in the shortest-path DAGs: hops are priced in
/// exact 1/64-hop units, so equal-length routes tie exactly.
const HOP: u32 = 64;

/// Tie-break bias against wraparound and express links: the engine's
/// adaptive routers prefer direct mesh moves when a long-reach link saves
/// no hops, while an unbiased shortest-path DAG would split such ties
/// half onto the 20-cycle serial wrap. Small enough (one 1/64-hop unit
/// per hop) to never override a genuinely shorter long-reach route on any feasible
/// diameter.
const LONG_REACH_TIE_BIAS: u32 = 1;

/// Share of a *tied* Eq. 5 pair (`#H_P == w · #H_S`) routed over the
/// serial hypercube tier. Algorithm 1 resolves ties to the mesh at the
/// selection level, but its mesh mode still offers the serial shortcut as
/// a lower-tier adaptive candidate whenever the packet stands on a useful
/// hypercube port, and under load the engine measurably diverts traffic
/// onto it (fitted against per-link flit counters; see EXPERIMENTS.md).
const TIE_DIVERSION: f64 = 0.04;

/// Hop cost with the long-reach tie bias applied, in 1/64-hop units.
fn hop_cost(link: &Link) -> u32 {
    match link.kind {
        LinkKind::Wrap { .. } | LinkKind::Express { .. } => HOP + LONG_REACH_TIE_BIAS,
        _ => HOP,
    }
}

/// Structural role of a link in the topology (direction- and
/// dimension-agnostic: a north mesh link and an east mesh link see the
/// same physics under symmetric traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RoutingRole {
    /// Neighbor mesh link (on-chip or chiplet-boundary).
    Mesh,
    /// Torus wraparound link.
    Wrap,
    /// Chiplet-hypercube dimension link.
    Hypercube,
    /// Multi-package express link.
    Express,
}

impl RoutingRole {
    /// The role of a concrete link.
    pub fn of(link: &Link) -> Self {
        match link.kind {
            LinkKind::Mesh { .. } => RoutingRole::Mesh,
            LinkKind::Wrap { .. } => RoutingRole::Wrap,
            LinkKind::Hypercube { .. } => RoutingRole::Hypercube,
            LinkKind::Express { .. } => RoutingRole::Express,
        }
    }
}

/// One link equivalence class: all links sharing a [`ClassKey`], with the
/// mean per-unit-rate load the backend estimates the class at.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkClassGroup {
    /// The clustering key.
    pub key: ClassKey,
    /// Members, ascending by link id.
    pub links: Vec<LinkId>,
    /// Mean unit load over the members (flits/cycle per unit injection
    /// rate).
    pub mean_unit_load: f64,
}

/// The rate-independent decomposition of one (topology, config, pattern)
/// triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Node count of the system.
    pub nodes: u32,
    /// Per-link offered load per unit injection rate, flits/cycle
    /// (indexed by [`LinkId`]).
    pub unit_loads: Vec<f64>,
    /// Per-node injected packet weight (flit load on the injection port
    /// per unit rate).
    pub inj_unit: Vec<f64>,
    /// Per-node ejected packet weight (flit load on the ejection port per
    /// unit rate).
    pub eject_unit: Vec<f64>,
    /// Total pattern weight `sum_s sum_d w[s][d]` (packets per injection
    /// opportunity across the system).
    pub total_weight: f64,
    /// Sources with any traffic (hotspot patterns idle the cold 90%).
    pub active_sources: usize,
    /// Expected head-flit hop count per packet.
    pub avg_hops: f64,
    /// Expected inverse bottleneck bandwidth per packet, including the
    /// injection and ejection ports: multiplied by `packet_len - 1` this
    /// is the wormhole serialization tail.
    pub ser_inv_mean: f64,
    /// Per-link *effective* capacity for queueing and saturation
    /// (indexed by [`LinkId`]). Interface links between the same chiplet
    /// pair pool their widths: the adaptive routers (Algorithm 1's tier
    /// selection, the torus wrap/direct choice) steer packets onto a
    /// sibling link when the preferred one backs up, so congestion is
    /// governed by the pair's aggregate load over its aggregate width.
    /// Each pooled link gets `eff_bw = U_l * sum(bw) / sum(U)`, which
    /// makes its utilization equal the pool's. Unpooled links (on-chip
    /// wires, sole interfaces) keep their class bandwidth.
    pub eff_bandwidth: Vec<f64>,
    /// Link equivalence classes, sorted by key.
    pub groups: Vec<LinkClassGroup>,
}

/// The capacity in flits/cycle the engine gives a link of `class` under
/// `config` (mirrors the medium construction in `hetero_if::network`).
/// Hetero-PHY links report the *policy-usable* width: the
/// energy-efficient policy parks the serial PHY.
pub fn class_bandwidth(config: &SimConfig, class: LinkClass) -> f64 {
    let phy = config.phy_params();
    match class {
        LinkClass::OnChip => config.onchip.bandwidth as f64,
        LinkClass::Parallel => phy.parallel_bw as f64,
        LinkClass::Serial => config.serial_params_scaled().bandwidth as f64,
        LinkClass::HeteroPhy => match config.phy_policy {
            chiplet_phy::PhyPolicy::EnergyEfficient => phy.parallel_bw as f64,
            _ => phy.total_bw() as f64,
        },
    }
}

/// The propagation delay in cycles of a link of `class` under `config`
/// (before the +1 transmission stage). Hetero-PHY links report the
/// parallel-path delay; the Eq. 2 blend is the backend's job.
pub fn class_base_latency(config: &SimConfig, class: LinkClass) -> f64 {
    match class {
        LinkClass::OnChip => config.onchip.latency as f64,
        LinkClass::Parallel => config.parallel.latency as f64,
        LinkClass::Serial => config.serial.latency as f64,
        LinkClass::HeteroPhy => config.parallel.latency as f64,
    }
}

impl Decomposition {
    /// Decomposes `topo` under `config`'s traffic spec (`config` must be
    /// the *effective* config, i.e. [`hetero_if::NetworkKind::effective_config`]).
    pub fn analyze(
        topo: &SystemTopology,
        config: &SimConfig,
        profile: &SchedulingProfile,
        pattern: TrafficPattern,
    ) -> Self {
        let n = topo.geometry().nodes() as usize;
        assert!(n >= 2, "estimation needs at least two nodes");
        let nl = topo.links().len();
        let hetero_channel = topo.kind() == SystemKind::HeteroChannel;
        let inv_inj = 1.0 / (config.inj_bandwidth.max(1) as f64);
        let inv_eject = 1.0 / (config.eject_bandwidth.max(1) as f64);

        let mut acc = Accumulator {
            topo,
            unit_loads: vec![0.0; nl],
            inj_unit: vec![0.0; n],
            eject_unit: vec![0.0; n],
            total_weight: 0.0,
            active_sources: 0,
            ser_num: 0.0,
            inv_bw: topo
                .links()
                .iter()
                .map(|l| 1.0 / class_bandwidth(config, l.class).max(1e-9))
                .collect(),
            inv_inj,
            inv_eject,
            invb: vec![0.0; n],
            delta: vec![0.0; n],
        };

        let mut dag = PathDag::default();
        let mut row = vec![0.0f64; n];
        let mut row_mesh = vec![0.0f64; n];
        let mut row_serial = vec![0.0f64; n];
        for s in 0..n {
            pattern.dest_weights(s as u64, n as u64, &mut row);
            let row_sum: f64 = row.iter().sum();
            if row_sum <= 0.0 {
                continue;
            }
            acc.active_sources += 1;
            acc.inj_unit[s] = row_sum;
            acc.total_weight += row_sum;
            if hetero_channel {
                // Eq. 5 per pair: parallel mesh when the chiplet-mesh
                // distance stays within `w` times the hypercube distance,
                // serial hypercube otherwise; exact ties route mostly mesh
                // with the `TIE_DIVERSION` share on the serial shortcut.
                // The mesh tier never uses hypercube links; the serial
                // tier never uses the inter-chiplet parallel mesh.
                let g = *topo.geometry();
                let src = NodeId(s as u32);
                let w = profile.serial_selection_weight;
                for d in 0..n {
                    let dst = NodeId(d as u32);
                    let (mesh_share, serial_share) =
                        if row[d] <= 0.0 || g.chiplet_of(src) == g.chiplet_of(dst) {
                            (1.0, 0.0)
                        } else {
                            let hp = g.chiplet_mesh_hops(src, dst) as f64;
                            let hs = w * g.chiplet_hamming(src, dst) as f64;
                            if hp > hs + 1e-9 {
                                (0.0, 1.0)
                            } else if (hp - hs).abs() <= 1e-9 {
                                (1.0 - TIE_DIVERSION, TIE_DIVERSION)
                            } else {
                                (1.0, 0.0)
                            }
                        };
                    row_mesh[d] = row[d] * mesh_share;
                    row_serial[d] = row[d] * serial_share;
                }
                dag.rebuild(topo, src, |l| {
                    (!matches!(l.kind, LinkKind::Hypercube { .. })).then_some(hop_cost(l))
                });
                acc.push(&dag, s, &row_mesh);
                dag.rebuild(topo, src, |l| {
                    (l.class != LinkClass::Parallel).then_some(hop_cost(l))
                });
                acc.push(&dag, s, &row_serial);
            } else {
                dag.rebuild(topo, NodeId(s as u32), |l| Some(hop_cost(l)));
                acc.push(&dag, s, &row);
            }
        }

        let total_weight = acc.total_weight.max(f64::MIN_POSITIVE);
        let total_load: f64 = acc.unit_loads.iter().sum();
        let groups = cluster(topo, &acc.unit_loads);
        let eff_bandwidth = pooled_bandwidth(topo, config, &acc.unit_loads);
        Self {
            nodes: n as u32,
            avg_hops: total_load / total_weight,
            ser_inv_mean: acc.ser_num / total_weight,
            unit_loads: acc.unit_loads,
            eff_bandwidth,
            inj_unit: acc.inj_unit,
            eject_unit: acc.eject_unit,
            total_weight: acc.total_weight,
            active_sources: acc.active_sources,
            groups,
        }
    }

    /// Convenience: decomposes a built [`Network`] (topology + effective
    /// config come from the network itself).
    pub fn of_network(net: &Network, profile: &SchedulingProfile, pattern: TrafficPattern) -> Self {
        Self::analyze(&net.topology(), net.config(), profile, pattern)
    }

    /// The [`LinkWorkload`] of one equivalence class at injection rate
    /// `rate` flits/cycle/node.
    pub fn class_workload(
        &self,
        config: &SimConfig,
        group: &LinkClassGroup,
        rate: f64,
    ) -> LinkWorkload {
        let eff_bw = group
            .links
            .iter()
            .map(|l| self.eff_bandwidth[l.index()])
            .sum::<f64>()
            / group.links.len().max(1) as f64;
        LinkWorkload {
            class: group.key.class,
            offered: rate * group.mean_unit_load,
            packet_len: config.packet_len,
            bandwidth: eff_bw,
            base_latency: class_base_latency(config, group.key.class),
            feed_bw: config
                .inj_bandwidth
                .max(1)
                .min(config.onchip.bandwidth.max(1)) as f64,
            phy: matches!(group.key.class, LinkClass::HeteroPhy).then(|| config.phy_params()),
            policy: config.phy_policy,
        }
    }

    /// The highest per-unit-rate *effective* resource utilization in the
    /// system — over links (against `link_derate * bw`) and the
    /// injection/ejection ports (against `port_derate * bw`). The
    /// predicted saturation rate is `rho_sat / max_unit_utilization`.
    pub fn max_unit_utilization(
        &self,
        config: &SimConfig,
        link_derate: f64,
        port_derate: f64,
    ) -> f64 {
        let inj = port_derate * config.inj_bandwidth.max(1) as f64;
        let eject = port_derate * config.eject_bandwidth.max(1) as f64;
        let mut max = 0.0f64;
        for g in &self.groups {
            for &l in &g.links {
                let bw = (link_derate * self.eff_bandwidth[l.index()]).max(1e-9);
                max = max.max(self.unit_loads[l.index()] / bw);
            }
        }
        for s in 0..self.nodes as usize {
            max = max.max(self.inj_unit[s] / inj);
            max = max.max(self.eject_unit[s] / eject);
        }
        max
    }
}

/// Per-source accumulation state shared by the mesh/serial/global passes.
struct Accumulator<'a> {
    topo: &'a SystemTopology,
    unit_loads: Vec<f64>,
    inj_unit: Vec<f64>,
    eject_unit: Vec<f64>,
    total_weight: f64,
    active_sources: usize,
    ser_num: f64,
    inv_bw: Vec<f64>,
    inv_inj: f64,
    inv_eject: f64,
    invb: Vec<f64>,
    delta: Vec<f64>,
}

impl Accumulator<'_> {
    /// Pushes the weight row through `dag` (destinations with zero weight
    /// contribute nothing): Brandes backward accumulation for link loads
    /// and a forward pass for the expected inverse bottleneck bandwidth.
    fn push(&mut self, dag: &PathDag, src: usize, row: &[f64]) {
        // Forward: expected inverse bottleneck bandwidth to every settled
        // node, averaging over the equal-share route choice.
        for &v in &dag.order {
            let v = v.index();
            if v == src {
                self.invb[v] = 0.0;
                continue;
            }
            let mut num = 0.0;
            for &lid in &dag.preds[v] {
                let link = &self.topo.links()[lid.index()];
                let u = link.src.index();
                num += dag.sigma[u] * self.invb[u].max(self.inv_bw[lid.index()]);
            }
            self.invb[v] = num / dag.sigma[v].max(f64::MIN_POSITIVE);
        }
        // Backward: delta[v] = selected weight terminating at or flowing
        // through v; each predecessor takes its sigma share.
        for &v in &dag.order {
            self.delta[v.index()] = 0.0;
        }
        for &v in dag.order.iter().rev() {
            let v = v.index();
            let w_term = if v != src && row[v] > 0.0 {
                self.eject_unit[v] += row[v];
                self.ser_num += row[v] * self.invb[v].max(self.inv_inj).max(self.inv_eject);
                row[v]
            } else {
                0.0
            };
            let flow = w_term + self.delta[v];
            if flow <= 0.0 || v == src {
                continue;
            }
            let sigma_v = dag.sigma[v].max(f64::MIN_POSITIVE);
            for &lid in &dag.preds[v] {
                let link = &self.topo.links()[lid.index()];
                let share = flow * dag.sigma[link.src.index()] / sigma_v;
                self.unit_loads[lid.index()] += share;
                self.delta[link.src.index()] += share;
            }
        }
    }
}

/// Pools the capacity of interface links connecting the same chiplet
/// pair (see [`Decomposition::eff_bandwidth`]): within each pool, every
/// loaded link's effective width is scaled so its utilization equals the
/// pooled utilization, crediting idle sibling-tier capacity to the
/// loaded tier the way the engine's adaptive tier selection does.
fn pooled_bandwidth(topo: &SystemTopology, config: &SimConfig, unit_loads: &[f64]) -> Vec<f64> {
    let mut eff: Vec<f64> = topo
        .links()
        .iter()
        .map(|l| class_bandwidth(config, l.class))
        .collect();
    let g = topo.geometry();
    let mut pools: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, l) in topo.links().iter().enumerate() {
        if l.class == LinkClass::OnChip {
            continue;
        }
        let key = (g.chiplet_of(l.src).index(), g.chiplet_of(l.dst).index());
        pools.entry(key).or_default().push(i);
    }
    for members in pools.values() {
        if members.len() < 2 {
            continue;
        }
        let load: f64 = members.iter().map(|&i| unit_loads[i]).sum();
        if load <= 0.0 {
            continue;
        }
        let width: f64 = members.iter().map(|&i| eff[i]).sum();
        for &i in members {
            if unit_loads[i] > 0.0 {
                eff[i] = unit_loads[i] * width / load;
            }
        }
    }
    eff
}

/// Groups links into equivalence classes by [`ClassKey`].
fn cluster(topo: &SystemTopology, unit_loads: &[f64]) -> Vec<LinkClassGroup> {
    let mut by_key: std::collections::BTreeMap<ClassKey, Vec<LinkId>> =
        std::collections::BTreeMap::new();
    for link in topo.links() {
        let key = ClassKey {
            class: link.class,
            role: RoutingRole::of(link),
            degree: topo.out_links(link.src).len().min(u8::MAX as usize) as u8,
            load_bucket: load_bucket(unit_loads[link.id.index()]),
        };
        by_key.entry(key).or_default().push(link.id);
    }
    by_key
        .into_iter()
        .map(|(key, links)| {
            let mean =
                links.iter().map(|l| unit_loads[l.index()]).sum::<f64>() / links.len() as f64;
            LinkClassGroup {
                key,
                links,
                mean_unit_load: mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_topo::{build, Geometry};
    use hetero_if::NetworkKind;

    fn decompose(kind: NetworkKind, pattern: TrafficPattern) -> (Decomposition, SimConfig) {
        let geom = Geometry::new(2, 2, 2, 2);
        let profile = SchedulingProfile::balanced();
        let config = kind.effective_config(SimConfig::default(), profile);
        let topo = kind.topology(geom);
        (
            Decomposition::analyze(&topo, &config, &profile, pattern),
            config,
        )
    }

    #[test]
    fn flow_is_conserved_end_to_end() {
        for kind in [
            NetworkKind::UniformParallelMesh,
            NetworkKind::UniformSerialTorus,
            NetworkKind::HeteroPhyFull,
            NetworkKind::UniformSerialHypercube,
            NetworkKind::HeteroChannelFull,
        ] {
            let (d, _) = decompose(kind, TrafficPattern::Uniform);
            let inj: f64 = d.inj_unit.iter().sum();
            let eject: f64 = d.eject_unit.iter().sum();
            assert!(
                (inj - eject).abs() < 1e-6 && (inj - d.total_weight).abs() < 1e-6,
                "{kind}: injected {inj} vs ejected {eject} vs total {}",
                d.total_weight
            );
            assert!(d.avg_hops >= 1.0, "{kind}: avg hops {}", d.avg_hops);
        }
    }

    #[test]
    fn uniform_mesh_hops_match_lattice_expectation() {
        // 4x4 global mesh under uniform traffic: E[hops] for d != s is
        // 2 * E|dx| over the uniform 4-point line = 2 * (1.25 * 16/15).
        let (d, _) = decompose(NetworkKind::UniformParallelMesh, TrafficPattern::Uniform);
        let expect = 2.0 * 1.25 * 16.0 / 15.0;
        assert!(
            (d.avg_hops - expect).abs() < 0.05,
            "avg hops {} vs lattice {expect}",
            d.avg_hops
        );
    }

    #[test]
    fn hotspot_idles_cold_sources() {
        let (d, _) = decompose(
            NetworkKind::UniformParallelMesh,
            TrafficPattern::UniformHotspot,
        );
        assert!(d.active_sources < d.nodes as usize);
        assert!(d.active_sources >= 1);
        for (s, w) in d.inj_unit.iter().enumerate() {
            let hot = TrafficPattern::is_hot(s as u64, d.nodes as u64);
            assert_eq!(*w > 0.0, hot, "node {s}");
        }
    }

    #[test]
    fn hetero_channel_splits_tiers_per_eq5() {
        // Eq. 5 with the balanced weight gives no 2x2-chiplet pair a
        // strict serial preference (every pair ties); a 4x4-chiplet
        // system has far pairs that go strictly serial.
        let geom = Geometry::new(4, 4, 2, 2);
        let profile = SchedulingProfile::balanced();
        let kind = NetworkKind::HeteroChannelFull;
        let config = kind.effective_config(SimConfig::default(), profile);
        let topo = kind.topology(geom);
        let d = Decomposition::analyze(&topo, &config, &profile, TrafficPattern::Uniform);
        let mut mesh_load = 0.0;
        let mut hyper_load = 0.0;
        for l in topo.links() {
            match RoutingRole::of(l) {
                RoutingRole::Hypercube => hyper_load += d.unit_loads[l.id.index()],
                _ => mesh_load += d.unit_loads[l.id.index()],
            }
        }
        assert!(mesh_load > 0.0, "mesh tier unused");
        assert!(hyper_load > 0.0, "hypercube tier unused");

        // The small system's pairs are all ties: the mesh tier dominates
        // but the opportunistic serial shortcut carries its fitted share.
        let (small, _) = decompose(kind, TrafficPattern::Uniform);
        let small_topo = kind.topology(Geometry::new(2, 2, 2, 2));
        let mut small_mesh = 0.0;
        let mut small_hyper = 0.0;
        for l in small_topo.links() {
            match RoutingRole::of(l) {
                RoutingRole::Hypercube => small_hyper += small.unit_loads[l.id.index()],
                _ => small_mesh += small.unit_loads[l.id.index()],
            }
        }
        assert!(
            small_hyper > 0.0 && small_hyper < small_mesh,
            "tied pairs divert a minority share: hyper {small_hyper} vs mesh {small_mesh}"
        );
    }

    #[test]
    fn clustering_covers_every_link_once() {
        let (d, _) = decompose(NetworkKind::HeteroPhyFull, TrafficPattern::Uniform);
        let topo = NetworkKind::HeteroPhyFull.topology(Geometry::new(2, 2, 2, 2));
        let covered: usize = d.groups.iter().map(|g| g.links.len()).sum();
        assert_eq!(covered, topo.links().len());
        // Symmetric system + symmetric traffic: far fewer classes than links.
        assert!(
            d.groups.len() * 2 <= topo.links().len(),
            "{} classes for {} links",
            d.groups.len(),
            topo.links().len()
        );
    }

    #[test]
    fn of_network_matches_topology_analysis() {
        let geom = Geometry::new(2, 2, 2, 2);
        let profile = SchedulingProfile::balanced();
        let kind = NetworkKind::UniformSerialTorus;
        let net = kind.build(geom, SimConfig::default(), profile);
        let via_net = Decomposition::of_network(&net, &profile, TrafficPattern::Uniform);
        let config = kind.effective_config(SimConfig::default(), profile);
        let direct = Decomposition::analyze(
            &build::serial_torus(geom),
            &config,
            &profile,
            TrafficPattern::Uniform,
        );
        assert_eq!(via_net, direct);
    }
}
