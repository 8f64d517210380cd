//! Simulation configuration (Table 2 of the paper).

use chiplet_fault::FaultConfig;
use chiplet_phy::{PhyParams, PhyPolicy};

/// Bandwidth/latency of one uniform link class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Flits per cycle.
    pub bandwidth: u8,
    /// Propagation delay in cycles (the transmission stage adds one more).
    pub latency: u32,
}

/// Whether hetero-IF interfaces run at full width or pin-constrained
/// halved width (§7.2: "the halved hetero-IF combines two halved standard
/// interfaces to restrict the total number of I/O pins").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandwidthMode {
    /// Serial 4 + parallel 2 flits/cycle.
    Full,
    /// Serial 2 + parallel 1 flits/cycle.
    Halved,
}

impl std::fmt::Display for BandwidthMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BandwidthMode::Full => "full",
            BandwidthMode::Halved => "half",
        })
    }
}

/// The simulator configuration. Defaults reproduce Table 2.
///
/// Buffer sizes are per virtual channel, matching Fig. 9(b)'s "two separate
/// buffers (virtual channels) at each input port" reading of Table 2's
/// "input buffer size" rows; interface buffers are deeper to cover the
/// credit round trip over long links (§7.1's feedback-lag buffer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Virtual channels per link.
    pub vcs: u8,
    /// Default packet length in flits (used by synthetic workloads).
    pub packet_len: u16,
    /// Input VC buffer depth for on-chip links, flits.
    pub onchip_vc_depth: u16,
    /// Input VC buffer depth for interface links, flits.
    pub iface_vc_depth: u16,
    /// Injection VC buffer depth, flits.
    pub inj_vc_depth: u16,
    /// Injection port bandwidth, flits/cycle.
    pub inj_bandwidth: u8,
    /// Ejection port bandwidth, flits/cycle (sized so local delivery never
    /// bottlenecks a wide interface; the paper leaves this unspecified).
    pub eject_bandwidth: u8,
    /// On-chip link parameters.
    pub onchip: LinkParams,
    /// Parallel interface parameters.
    pub parallel: LinkParams,
    /// Serial interface parameters.
    pub serial: LinkParams,
    /// Hetero-IF width mode.
    pub bandwidth_mode: BandwidthMode,
    /// Hetero-PHY dispatch policy.
    pub phy_policy: PhyPolicy,
    /// Hetero-PHY TX FIFO depth (§8.2 uses 16).
    pub adapter_fifo: u16,
    /// §4.1 higher-radix crossbar at interface ports: when `true`
    /// (default) multiple internal ports can feed one interface
    /// concurrently up to its full bandwidth; when `false` interface
    /// ports are fed at on-chip bandwidth like a traditional router
    /// (ablation knob — shows why the heterogeneous router exists).
    pub higher_radix_crossbar: bool,
    /// §4.2 parallel-PHY bypass for high-priority packets (ablation knob).
    pub adapter_bypass: bool,
    /// RNG seed for workloads built from this config.
    pub seed: u64,
    /// Shard-thread count for the parallel cycle loop. `1` runs the
    /// engine serially on the calling thread; `0` resolves to the host's
    /// available parallelism; `N > 1` partitions the network into up to
    /// `N` chiplet-group shards driven by a persistent worker pool.
    /// Results are bit-identical at every value — this knob only trades
    /// wall-clock time. The default honors the `HETERO_SIM_THREADS`
    /// environment variable (read once per process) and falls back to 1.
    pub shard_threads: usize,
    /// Idle-skip: when the whole network is quiescent, the run loop
    /// elides engine steps up to the computed next-event cycle instead
    /// of ticking empty routers. A skipped cycle is provably a total
    /// state no-op, so results are bit-identical either way — this knob
    /// only trades wall-clock time (like `shard_threads`, it is excluded
    /// from [`SimConfig::canonical_key`]). The default honors the
    /// `HETERO_SIM_SKIP` environment variable (read once per process;
    /// `0` disables) and falls back to enabled.
    pub idle_skip: bool,
    /// Fault-model knobs (BER injection and the retry link layer). The
    /// default is fully off, in which case the network is built — and
    /// runs — bit-identically to a build without the fault subsystem.
    pub fault: FaultConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            vcs: 2,
            packet_len: 16,
            onchip_vc_depth: 32,
            iface_vc_depth: 64,
            inj_vc_depth: 32,
            inj_bandwidth: 2,
            eject_bandwidth: 4,
            onchip: LinkParams {
                bandwidth: 2,
                latency: 1,
            },
            parallel: LinkParams {
                bandwidth: 2,
                latency: 5,
            },
            serial: LinkParams {
                bandwidth: 4,
                latency: 20,
            },
            bandwidth_mode: BandwidthMode::Full,
            phy_policy: PhyPolicy::Balanced { threshold: 8 },
            adapter_fifo: 16,
            higher_radix_crossbar: true,
            adapter_bypass: true,
            seed: 0xC41_1BE7,
            shard_threads: default_shard_threads(),
            idle_skip: default_idle_skip(),
            fault: FaultConfig::default(),
        }
    }
}

/// The process-wide default for [`SimConfig::shard_threads`]: the
/// `HETERO_SIM_THREADS` environment variable when set to a valid count
/// (`0` = auto), else 1 (serial). Cached so every `SimConfig::default()`
/// in a run agrees even if the environment is mutated mid-process.
fn default_shard_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("HETERO_SIM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1)
    })
}

/// The process-wide default for [`SimConfig::idle_skip`]: disabled when
/// the `HETERO_SIM_SKIP` environment variable is set to `0`, else
/// enabled. Cached once per process like the thread default, so a run's
/// configs agree even if the environment is mutated mid-process.
fn default_idle_skip() -> bool {
    static DEFAULT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("HETERO_SIM_SKIP")
            .map(|v| v.trim() != "0")
            .unwrap_or(true)
    })
}

impl SimConfig {
    /// The halved-bandwidth (pin-constrained) variant of this config.
    pub fn halved(mut self) -> Self {
        self.bandwidth_mode = BandwidthMode::Halved;
        self
    }

    /// Replaces the hetero-PHY dispatch policy.
    pub fn with_policy(mut self, policy: PhyPolicy) -> Self {
        self.phy_policy = policy;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables the §4.1 higher-radix interface crossbar (ablation).
    pub fn without_higher_radix_crossbar(mut self) -> Self {
        self.higher_radix_crossbar = false;
        self
    }

    /// Disables the §4.2 parallel-PHY bypass (ablation).
    pub fn without_bypass(mut self) -> Self {
        self.adapter_bypass = false;
        self
    }

    /// Replaces the shard-thread count (0 = auto from core count).
    ///
    /// An explicit override always wins over the `HETERO_SIM_THREADS`
    /// pin that seeded [`SimConfig::default`] — in particular, a network
    /// built with this override and then fed a checkpoint
    /// ([`crate::Network::restore`]) runs at *this* shard count, not the
    /// saving run's and not the environment's (`tests/env_pin.rs` pins
    /// this; checkpoints are shard-count-portable by design).
    pub fn with_shard_threads(mut self, threads: usize) -> Self {
        self.shard_threads = threads;
        self
    }

    /// Replaces the idle-skip setting (results are bit-identical either
    /// way; `false` forces the per-cycle ticking loop — the differential
    /// fuzz suite uses this to compare the two in one process).
    pub fn with_idle_skip(mut self, skip: bool) -> Self {
        self.idle_skip = skip;
        self
    }

    /// [`SimConfig::shard_threads`] with `0` resolved to the host's
    /// available parallelism.
    pub fn resolved_shard_threads(&self) -> usize {
        if self.shard_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.shard_threads
        }
    }

    /// Replaces the fault-model block.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Sweeps the serial-wire BER (parallel wires scale along at the
    /// Table-1 family ratio) with the retry layer armed.
    pub fn with_ber(self, ber: f64) -> Self {
        self.with_fault(FaultConfig::with_ber(ber))
    }

    /// Arms the retry link layer at the current error rates (protocol
    /// overhead is measurable even at BER = 0).
    pub fn with_retry(mut self) -> Self {
        self.fault.retry = true;
        self
    }

    /// A canonical, human-readable key of every behavior-affecting field,
    /// in a fixed order with normalized values (`shard_threads` and
    /// `idle_skip` are excluded — they only trade wall-clock time and
    /// never change results). Two configs with equal keys produce bit-identical
    /// simulations on the same topology; estimation caches and
    /// calibration reports key on this.
    pub fn canonical_key(&self) -> String {
        format!(
            "vcs={};plen={};depth={}/{}/{};inj={};eject={};onchip={}@{};parallel={}@{};\
             serial={}@{};mode={};policy={:?};fifo={};radix={};bypass={};seed={};\
             ber={:e}/{:e};retry={};retry_timeout={}",
            self.vcs,
            self.packet_len,
            self.onchip_vc_depth,
            self.iface_vc_depth,
            self.inj_vc_depth,
            self.inj_bandwidth,
            self.eject_bandwidth,
            self.onchip.bandwidth,
            self.onchip.latency,
            self.parallel.bandwidth,
            self.parallel.latency,
            self.serial.bandwidth,
            self.serial.latency,
            self.bandwidth_mode,
            self.phy_policy,
            self.adapter_fifo,
            self.higher_radix_crossbar,
            self.adapter_bypass,
            self.seed,
            self.fault.ber_serial,
            self.fault.ber_parallel,
            self.fault.retry,
            self.fault.retry_timeout,
        )
    }

    /// A 64-bit FNV-1a fingerprint of [`SimConfig::canonical_key`]: a
    /// compact config identity for reports and caches.
    pub fn fingerprint(&self) -> u64 {
        simkit::hash::fnv1a64(self.canonical_key().as_bytes())
    }

    /// The hetero-PHY parameters under the current bandwidth mode.
    pub fn phy_params(&self) -> PhyParams {
        match self.bandwidth_mode {
            BandwidthMode::Full => PhyParams {
                parallel_bw: self.parallel.bandwidth,
                parallel_lat: self.parallel.latency,
                serial_bw: self.serial.bandwidth,
                serial_lat: self.serial.latency,
            },
            BandwidthMode::Halved => PhyParams {
                parallel_bw: (self.parallel.bandwidth / 2).max(1),
                parallel_lat: self.parallel.latency,
                serial_bw: (self.serial.bandwidth / 2).max(1),
                serial_lat: self.serial.latency,
            },
        }
    }

    /// Serial link parameters under the current bandwidth mode (hetero-IF
    /// systems also halve their serial-only wraparound links, §8.1.1).
    pub fn serial_params_scaled(&self) -> LinkParams {
        match self.bandwidth_mode {
            BandwidthMode::Full => self.serial,
            BandwidthMode::Halved => LinkParams {
                bandwidth: (self.serial.bandwidth / 2).max(1),
                latency: self.serial.latency,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = SimConfig::default();
        assert_eq!(c.packet_len, 16);
        assert_eq!(c.vcs, 2);
        assert_eq!(c.onchip.bandwidth, 2);
        assert_eq!(c.onchip.latency, 1);
        assert_eq!(c.parallel.bandwidth, 2);
        assert_eq!(c.parallel.latency, 5);
        assert_eq!(c.serial.bandwidth, 4);
        assert_eq!(c.serial.latency, 20);
    }

    #[test]
    fn halved_mode_halves_interfaces_only() {
        let c = SimConfig::default().halved();
        let p = c.phy_params();
        assert_eq!(p.parallel_bw, 1);
        assert_eq!(p.serial_bw, 2);
        assert_eq!(p.parallel_lat, 5);
        assert_eq!(c.onchip.bandwidth, 2, "on-chip links unaffected");
        assert_eq!(c.serial_params_scaled().bandwidth, 2);
    }

    #[test]
    fn full_mode_passthrough() {
        let c = SimConfig::default();
        let p = c.phy_params();
        assert_eq!(p.total_bw(), 6);
        assert_eq!(c.serial_params_scaled(), c.serial);
    }

    #[test]
    fn shard_threads_builder_and_resolution() {
        let c = SimConfig::default().with_shard_threads(4);
        assert_eq!(c.shard_threads, 4);
        assert_eq!(c.resolved_shard_threads(), 4);
        let auto = SimConfig::default().with_shard_threads(0);
        assert!(auto.resolved_shard_threads() >= 1, "auto resolves to cores");
    }

    #[test]
    fn canonical_key_separates_behavior_from_scheduling() {
        let a = SimConfig::default();
        // shard_threads and idle_skip never affect results, so neither is
        // part of the key.
        let b = SimConfig::default().with_shard_threads(8);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = SimConfig::default().with_idle_skip(!a.idle_skip);
        assert_eq!(a.canonical_key(), c.canonical_key());
        assert_eq!(a.fingerprint(), c.fingerprint());
        // Every behavior knob perturbs the key.
        for other in [
            SimConfig::default().halved(),
            SimConfig::default().with_seed(7),
            SimConfig::default().with_ber(1e-9),
            SimConfig::default().with_retry(),
            SimConfig::default().without_bypass(),
            SimConfig::default().without_higher_radix_crossbar(),
        ] {
            assert_ne!(a.canonical_key(), other.canonical_key());
            assert_ne!(a.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn fault_builders() {
        assert!(!SimConfig::default().fault.armed());
        assert!(SimConfig::default().with_retry().fault.armed());
        let c = SimConfig::default().with_ber(1e-6);
        assert!(c.fault.armed());
        assert_eq!(c.fault.ber_serial, 1e-6);
        assert!(c.fault.ber_parallel < 1e-6);
    }
}
