//! Aggregated simulation results.

use crate::network::Collector;
use simkit::codec::{ByteReader, ByteWriter, CodecError, LoadState, SaveState};
use simkit::Cycle;

/// The outcome of one simulation run, aggregated over the measurement
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResults {
    /// Node count of the simulated system.
    pub nodes: u32,
    /// Measured cycles.
    pub cycles: Cycle,
    /// Measured packets delivered.
    pub packets: u64,
    /// Average packet latency, creation → delivery (cycles).
    pub avg_latency: f64,
    /// Latency standard deviation (Fig. 12 reports variance).
    pub latency_std: f64,
    /// Worst measured latency.
    pub max_latency: f64,
    /// Median latency (upper bucket edge, 4-cycle resolution).
    pub p50_latency: f64,
    /// 99th-percentile latency (upper bucket edge; +inf if in overflow).
    pub p99_latency: f64,
    /// Average network latency, injection → delivery (cycles).
    pub avg_net_latency: f64,
    /// Average latency of high-priority packets (0 when none were sent).
    pub avg_high_latency: f64,
    /// Worst latency among high-priority packets (0 when none were sent).
    pub max_high_latency: f64,
    /// Average head-flit hop count.
    pub avg_hops: f64,
    /// Accepted throughput in flits/cycle/node.
    pub throughput: f64,
    /// Average per-packet energy, pJ.
    pub avg_energy_pj: f64,
    /// Average per-packet on-chip energy, pJ.
    pub avg_onchip_pj: f64,
    /// Average per-packet parallel-interface energy, pJ.
    pub avg_parallel_pj: f64,
    /// Average per-packet serial-interface energy, pJ.
    pub avg_serial_pj: f64,
    /// Fraction of measured packets that hit the livelock baseline lock.
    pub locked_fraction: f64,
    /// Packets still alive (queued or in flight) at the end of the
    /// measurement window — a large backlog relative to `packets`
    /// indicates saturation.
    pub backlog: u64,
    /// Flits the link layer detected as corrupted over the whole run
    /// (zero unless fault injection is active).
    pub corrupted_flits: u64,
    /// Flits retransmitted by the retry layer or hetero-PHY adapters over
    /// the whole run.
    pub retransmitted_flits: u64,
    /// Hetero-PHY links that kept serving through a PHY hard failure.
    pub failovers: u64,
}

impl SimResults {
    /// Builds results from a network collector.
    pub fn from_collector(c: &Collector, nodes: u32, cycles: Cycle, backlog: u64) -> Self {
        let pkts = c.measured_packets.max(1) as f64;
        Self {
            nodes,
            cycles,
            packets: c.measured_packets,
            avg_latency: c.latency.mean(),
            latency_std: c.latency.std_dev(),
            max_latency: if c.latency.count() > 0 {
                c.latency.max()
            } else {
                0.0
            },
            p50_latency: c.latency_hist.as_ref().map_or(0.0, |h| h.percentile(50.0)),
            p99_latency: c.latency_hist.as_ref().map_or(0.0, |h| h.percentile(99.0)),
            avg_net_latency: c.net_latency.mean(),
            avg_high_latency: c.latency_high.mean(),
            max_high_latency: if c.latency_high.count() > 0 {
                c.latency_high.max()
            } else {
                0.0
            },
            avg_hops: c.hops.mean(),
            throughput: c.measured_flits as f64 / (cycles.max(1) as f64 * nodes as f64),
            avg_energy_pj: c.energy.mean(),
            avg_onchip_pj: c.onchip_pj / pkts,
            avg_parallel_pj: c.parallel_pj / pkts,
            avg_serial_pj: c.serial_pj / pkts,
            locked_fraction: c.locked_packets as f64 / pkts,
            backlog,
            corrupted_flits: c.corrupted_flits,
            retransmitted_flits: c.retransmitted_flits,
            failovers: c.failovers,
        }
    }

    /// Saturation heuristic: the network failed to accept the offered
    /// load — fewer than 85 % of the packets offered in the measurement
    /// window were delivered by its end — or latencies exploded.
    pub fn is_saturated(&self) -> bool {
        let offered = self.packets + self.backlog;
        (offered > 0 && (self.packets as f64) < 0.85 * offered as f64)
            || self.avg_latency > 10_000.0
    }

    /// Average interface (parallel + serial) energy per packet, pJ.
    pub fn avg_interface_pj(&self) -> f64 {
        self.avg_parallel_pj + self.avg_serial_pj
    }

    /// CSV header matching [`SimResults::csv_row`].
    pub fn csv_header() -> &'static str {
        "nodes,cycles,packets,avg_latency,latency_std,avg_net_latency,avg_hops,\
         throughput,avg_energy_pj,onchip_pj,parallel_pj,serial_pj,locked_frac,backlog"
    }

    /// One CSV row of the results.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.2},{:.2},{:.2},{:.2},{:.5},{:.1},{:.1},{:.1},{:.1},{:.4},{}",
            self.nodes,
            self.cycles,
            self.packets,
            self.avg_latency,
            self.latency_std,
            self.avg_net_latency,
            self.avg_hops,
            self.throughput,
            self.avg_energy_pj,
            self.avg_onchip_pj,
            self.avg_parallel_pj,
            self.avg_serial_pj,
            self.locked_fraction,
            self.backlog,
        )
    }
}

/// Results persist bit-exactly through the deterministic codec: every
/// `f64` travels as its raw bits, so a cached result deserializes to the
/// same bits the engine produced (the result-cache contract; the golden
/// cache test pins this across all 35 fixtures).
impl SaveState for SimResults {
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.nodes);
        w.put_u64(self.cycles);
        w.put_u64(self.packets);
        w.put_f64(self.avg_latency);
        w.put_f64(self.latency_std);
        w.put_f64(self.max_latency);
        w.put_f64(self.p50_latency);
        w.put_f64(self.p99_latency);
        w.put_f64(self.avg_net_latency);
        w.put_f64(self.avg_high_latency);
        w.put_f64(self.max_high_latency);
        w.put_f64(self.avg_hops);
        w.put_f64(self.throughput);
        w.put_f64(self.avg_energy_pj);
        w.put_f64(self.avg_onchip_pj);
        w.put_f64(self.avg_parallel_pj);
        w.put_f64(self.avg_serial_pj);
        w.put_f64(self.locked_fraction);
        w.put_u64(self.backlog);
        w.put_u64(self.corrupted_flits);
        w.put_u64(self.retransmitted_flits);
        w.put_u64(self.failovers);
    }
}

impl LoadState for SimResults {
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.nodes = r.get_u32()?;
        self.cycles = r.get_u64()?;
        self.packets = r.get_u64()?;
        self.avg_latency = r.get_f64()?;
        self.latency_std = r.get_f64()?;
        self.max_latency = r.get_f64()?;
        self.p50_latency = r.get_f64()?;
        self.p99_latency = r.get_f64()?;
        self.avg_net_latency = r.get_f64()?;
        self.avg_high_latency = r.get_f64()?;
        self.max_high_latency = r.get_f64()?;
        self.avg_hops = r.get_f64()?;
        self.throughput = r.get_f64()?;
        self.avg_energy_pj = r.get_f64()?;
        self.avg_onchip_pj = r.get_f64()?;
        self.avg_parallel_pj = r.get_f64()?;
        self.avg_serial_pj = r.get_f64()?;
        self.locked_fraction = r.get_f64()?;
        self.backlog = r.get_u64()?;
        self.corrupted_flits = r.get_u64()?;
        self.retransmitted_flits = r.get_u64()?;
        self.failovers = r.get_u64()?;
        Ok(())
    }
}

impl SimResults {
    /// An all-zero placeholder for [`LoadState`] deserialization.
    pub fn zeroed() -> Self {
        Self {
            nodes: 0,
            cycles: 0,
            packets: 0,
            avg_latency: 0.0,
            latency_std: 0.0,
            max_latency: 0.0,
            p50_latency: 0.0,
            p99_latency: 0.0,
            avg_net_latency: 0.0,
            avg_high_latency: 0.0,
            max_high_latency: 0.0,
            avg_hops: 0.0,
            throughput: 0.0,
            avg_energy_pj: 0.0,
            avg_onchip_pj: 0.0,
            avg_parallel_pj: 0.0,
            avg_serial_pj: 0.0,
            locked_fraction: 0.0,
            backlog: 0,
            corrupted_flits: 0,
            retransmitted_flits: 0,
            failovers: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector_with(packets: u64) -> Collector {
        let mut c = Collector::default();
        for i in 0..packets {
            c.latency.push(100.0 + i as f64);
            c.net_latency.push(90.0);
            c.hops.push(5.0);
            c.energy.push(500.0);
            c.measured_packets += 1;
            c.measured_flits += 16;
            c.onchip_pj += 100.0;
            c.parallel_pj += 300.0;
            c.serial_pj += 100.0;
        }
        c
    }

    #[test]
    fn aggregation_math() {
        let c = collector_with(10);
        let r = SimResults::from_collector(&c, 64, 1000, 0);
        assert_eq!(r.packets, 10);
        assert!((r.avg_latency - 104.5).abs() < 1e-9);
        assert!((r.throughput - 160.0 / (1000.0 * 64.0)).abs() < 1e-12);
        assert!((r.avg_onchip_pj - 100.0).abs() < 1e-9);
        assert!((r.avg_interface_pj() - 400.0).abs() < 1e-9);
        assert!(!r.is_saturated());
    }

    #[test]
    fn saturation_flags() {
        let c = collector_with(10);
        let r = SimResults::from_collector(&c, 64, 1000, 1_000);
        assert!(r.is_saturated());
        // Keeping up with the offered load is not saturation.
        let ok = SimResults::from_collector(&c, 64, 1000, 1);
        assert!(!ok.is_saturated());
    }

    #[test]
    fn csv_roundtrip_shape() {
        let c = collector_with(3);
        let r = SimResults::from_collector(&c, 16, 100, 2);
        let row = r.csv_row();
        assert_eq!(
            row.split(',').count(),
            SimResults::csv_header().split(',').count()
        );
    }

    #[test]
    fn empty_collector_is_safe() {
        let c = Collector::default();
        let r = SimResults::from_collector(&c, 16, 100, 0);
        assert_eq!(r.packets, 0);
        assert_eq!(r.avg_latency, 0.0);
        assert_eq!(r.max_latency, 0.0);
    }
}
