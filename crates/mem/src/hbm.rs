use pade_sim::{Cycle, Frequency, TrafficCounts};

/// HBM2 configuration (Table III defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of 64-bit pseudo channels.
    pub channels: usize,
    /// Banks per pseudo channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes (per pseudo channel).
    pub row_bytes: u64,
    /// Per-channel bandwidth in GB/s (64-bit @ 2 Gbps = 16 GB/s).
    pub channel_gbps: f64,
    /// Burst length in bytes (`BL = 4 × 64b` = 32 B).
    pub burst_bytes: u64,
    /// Row-cycle time (activate→activate) in nanoseconds.
    pub t_rc_ns: f64,
    /// Column access latency on a row hit, in nanoseconds.
    pub t_cl_ns: f64,
    /// Core clock used to express all timing in accelerator cycles.
    pub clock: Frequency,
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self {
            channels: 16,
            banks_per_channel: 16,
            row_bytes: 2048,
            channel_gbps: 16.0,
            burst_bytes: 32,
            t_rc_ns: 50.0,
            t_cl_ns: 15.0,
            clock: Frequency::default(),
        }
    }
}

impl HbmConfig {
    /// Aggregate peak bandwidth across all channels, bytes per second.
    #[must_use]
    pub fn peak_bandwidth_bytes_per_s(&self) -> f64 {
        self.channels as f64 * self.channel_gbps * 1e9
    }

    /// Bytes one channel can move per core cycle at peak.
    #[must_use]
    pub fn bytes_per_cycle_per_channel(&self) -> f64 {
        self.channel_gbps * 1e9 / self.clock.hz()
    }

    /// Bus occupancy (core cycles) of transferring `bytes` on one channel,
    /// burst-quantized.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> Cycle {
        let bursts = bytes.div_ceil(self.burst_bytes).max(1);
        let cycles = (bursts * self.burst_bytes) as f64 / self.bytes_per_cycle_per_channel();
        Cycle(cycles.ceil() as u64)
    }

    /// Row-cycle time in core cycles.
    #[must_use]
    pub fn t_rc(&self) -> Cycle {
        self.clock.cycles_from_ns(self.t_rc_ns)
    }

    /// Row-hit access latency in core cycles.
    #[must_use]
    pub fn t_cl(&self) -> Cycle {
        self.clock.cycles_from_ns(self.t_cl_ns)
    }
}

/// Physical location of an access: channel, bank and row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysLoc {
    /// Pseudo-channel index.
    pub channel: usize,
    /// Bank index within the channel.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

/// Outcome of a single [`HbmModel::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is fully on chip.
    pub complete: Cycle,
    /// Whether the access hit the open row buffer.
    pub row_hit: bool,
}

#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

#[derive(Debug, Clone, Default)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: Cycle,
}

/// Per-bank row-buffer timing model of the HBM2 stack.
///
/// The model captures what the paper's evaluation exercises: row-buffer
/// locality under different data layouts, per-channel bus serialization,
/// and the activate latency that the OOE engine must hide. Refresh and
/// command-bus contention are below the noise floor of the studies and are
/// not modeled.
#[derive(Debug, Clone)]
pub struct HbmModel {
    config: HbmConfig,
    /// `config.t_rc()`, `config.t_cl()` and the bus time of one burst,
    /// converted from nanoseconds once instead of on every access.
    t_rc: Cycle,
    t_cl: Cycle,
    burst_transfer: Cycle,
    channels: Vec<Channel>,
    traffic: TrafficCounts,
    row_hits: u64,
    row_misses: u64,
    busy_cycles: u64,
}

impl HbmModel {
    /// Creates an idle HBM stack.
    #[must_use]
    pub fn new(config: HbmConfig) -> Self {
        let channels = (0..config.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); config.banks_per_channel],
                bus_free_at: Cycle::ZERO,
            })
            .collect();
        Self {
            config,
            t_rc: config.t_rc(),
            t_cl: config.t_cl(),
            burst_transfer: config.transfer_cycles(config.burst_bytes),
            channels,
            traffic: TrafficCounts::default(),
            row_hits: 0,
            row_misses: 0,
            busy_cycles: 0,
        }
    }

    /// The configuration the model was built with.
    #[must_use]
    pub fn config(&self) -> &HbmConfig {
        &self.config
    }

    /// Performs a read of `bytes` at `loc`, issued at cycle `now`.
    /// Returns the completion time and whether the open row was hit.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is outside the configured geometry.
    pub fn access(&mut self, loc: PhysLoc, bytes: u64, now: Cycle) -> AccessResult {
        assert!(loc.channel < self.config.channels, "channel {} out of range", loc.channel);
        let (t_rc, t_cl) = (self.t_rc, self.t_cl);
        let transfer = if bytes <= self.config.burst_bytes {
            self.burst_transfer
        } else {
            self.config.transfer_cycles(bytes)
        };
        let ch = &mut self.channels[loc.channel];
        assert!(loc.bank < ch.banks.len(), "bank {} out of range", loc.bank);
        let bank = &mut ch.banks[loc.bank];

        let start = now.max(bank.busy_until);
        let (latency, row_hit) = match bank.open_row {
            Some(r) if r == loc.row => (t_cl, true),
            _ => {
                bank.open_row = Some(loc.row);
                (t_rc, false)
            }
        };
        if row_hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
            self.traffic.dram_row_activations += 1;
        }
        // Column accesses pipeline behind one another; only the data burst
        // occupies the channel bus exclusively.
        let data_start = (start + latency).max(ch.bus_free_at);
        let complete = data_start + transfer;
        bank.busy_until = data_start;
        ch.bus_free_at = complete;
        self.busy_cycles += transfer.0;

        let bursts = bytes.div_ceil(self.config.burst_bytes).max(1);
        self.traffic.dram_bursts += bursts;
        self.traffic.dram_read_bytes += bursts * self.config.burst_bytes;
        AccessResult { complete, row_hit }
    }

    /// Accounts a write of `bytes` (writes in the studied workloads are the
    /// small output tensors; they are charged for traffic but not modeled
    /// for latency).
    pub fn write(&mut self, bytes: u64) {
        self.traffic.dram_write_bytes += bytes;
        self.traffic.dram_bursts += bytes.div_ceil(self.config.burst_bytes).max(1);
    }

    /// Accumulated traffic counters.
    #[must_use]
    pub fn traffic(&self) -> TrafficCounts {
        self.traffic
    }

    /// Row-buffer hit rate over all accesses so far (1.0 when idle).
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            1.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Fraction of peak bandwidth actually used over `elapsed` cycles.
    #[must_use]
    pub fn bandwidth_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == Cycle::ZERO {
            return 0.0;
        }
        let moved = self.traffic.dram_total_bytes() as f64;
        let peak = self.config.bytes_per_cycle_per_channel()
            * self.config.channels as f64
            * elapsed.0 as f64;
        (moved / peak).min(1.0)
    }

    /// Analytic streaming time for `bytes` spread over all channels with a
    /// given expected row-hit fraction — used by baseline models that do not
    /// need per-request simulation.
    #[must_use]
    pub fn stream_cycles(&self, bytes: u64, row_hit_fraction: f64) -> Cycle {
        let row_hit_fraction = row_hit_fraction.clamp(0.0, 1.0);
        let per_channel = bytes as f64 / self.config.channels as f64;
        let transfer = per_channel / self.config.bytes_per_cycle_per_channel();
        // Misses that cannot be pipelined behind transfers add tRC each.
        let activate_cost = (per_channel / self.config.row_bytes as f64)
            * (1.0 - row_hit_fraction)
            * self.t_rc.0 as f64;
        Cycle((transfer + activate_cost).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(channel: usize, bank: usize, row: u64) -> PhysLoc {
        PhysLoc { channel, bank, row }
    }

    #[test]
    fn default_config_matches_table_iii() {
        let c = HbmConfig::default();
        assert_eq!(c.channels, 16);
        assert!((c.peak_bandwidth_bytes_per_s() - 256e9).abs() < 1e6);
        assert_eq!(c.t_rc(), Cycle(40)); // 50 ns @ 800 MHz
        assert_eq!(c.burst_bytes, 32);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut hbm = HbmModel::new(HbmConfig::default());
        let miss = hbm.access(loc(0, 0, 1), 32, Cycle(0));
        let hit = hbm.access(loc(0, 0, 1), 32, miss.complete);
        assert!(!miss.row_hit);
        assert!(hit.row_hit);
        let miss_latency = miss.complete.0;
        let hit_latency = hit.complete.0 - miss.complete.0;
        assert!(hit_latency < miss_latency, "{hit_latency} !< {miss_latency}");
    }

    #[test]
    fn switching_rows_evicts_open_row() {
        let mut hbm = HbmModel::new(HbmConfig::default());
        hbm.access(loc(0, 0, 1), 32, Cycle(0));
        let other = hbm.access(loc(0, 0, 2), 32, Cycle(1000));
        assert!(!other.row_hit);
        let back = hbm.access(loc(0, 0, 1), 32, Cycle(2000));
        assert!(!back.row_hit, "returning to an evicted row must re-activate");
        assert_eq!(hbm.traffic().dram_row_activations, 3);
    }

    #[test]
    fn different_banks_do_not_conflict_on_rows() {
        let mut hbm = HbmModel::new(HbmConfig::default());
        hbm.access(loc(0, 0, 1), 32, Cycle(0));
        hbm.access(loc(0, 1, 2), 32, Cycle(0));
        let a = hbm.access(loc(0, 0, 1), 32, Cycle(500));
        let b = hbm.access(loc(0, 1, 2), 32, Cycle(500));
        assert!(a.row_hit && b.row_hit);
    }

    #[test]
    fn channel_bus_serializes_transfers() {
        let mut hbm = HbmModel::new(HbmConfig::default());
        // Two accesses to different banks, same channel, same issue time:
        // the second must finish after the first (shared bus).
        let a = hbm.access(loc(0, 0, 1), 256, Cycle(0));
        let b = hbm.access(loc(0, 1, 1), 256, Cycle(0));
        assert!(b.complete > a.complete);
        // Different channels proceed independently.
        let mut hbm2 = HbmModel::new(HbmConfig::default());
        let c = hbm2.access(loc(0, 0, 1), 256, Cycle(0));
        let d = hbm2.access(loc(1, 0, 1), 256, Cycle(0));
        assert_eq!(c.complete, d.complete);
    }

    #[test]
    fn traffic_is_burst_quantized() {
        let mut hbm = HbmModel::new(HbmConfig::default());
        hbm.access(loc(0, 0, 0), 8, Cycle(0)); // sub-burst read still moves 32 B
        assert_eq!(hbm.traffic().dram_read_bytes, 32);
        assert_eq!(hbm.traffic().dram_bursts, 1);
        hbm.write(100);
        assert_eq!(hbm.traffic().dram_write_bytes, 100);
        assert_eq!(hbm.traffic().dram_bursts, 1 + 4);
    }

    #[test]
    fn bandwidth_utilization_bounded() {
        let mut hbm = HbmModel::new(HbmConfig::default());
        for i in 0..100u64 {
            hbm.access(loc((i % 16) as usize, 0, 0), 32, Cycle(i));
        }
        let u = hbm.bandwidth_utilization(Cycle(200));
        assert!(u > 0.0 && u <= 1.0);
        assert_eq!(hbm.bandwidth_utilization(Cycle::ZERO), 0.0);
    }

    #[test]
    fn access_timing_uses_the_configured_constants() {
        // A lone miss completes after tRC plus the burst-quantized bus
        // time; a hit on the now-open row after tCL plus the same. The
        // cached per-model constants must equal the config's conversions.
        let odd =
            HbmConfig { t_rc_ns: 33.3, t_cl_ns: 7.1, channel_gbps: 7.0, ..Default::default() };
        for (config, bytes) in [HbmConfig::default(), odd]
            .into_iter()
            .flat_map(|c| [0u64, 1, 32, 33, 256].map(|b| (c, b)))
        {
            let mut hbm = HbmModel::new(config);
            let transfer = config.transfer_cycles(bytes);
            let miss = hbm.access(loc(3, 2, 7), bytes, Cycle(100));
            assert!(!miss.row_hit);
            assert_eq!(miss.complete, Cycle(100) + config.t_rc() + transfer, "miss, {bytes} B");
            let issue = miss.complete + Cycle(1000);
            let hit = hbm.access(loc(3, 2, 7), bytes, issue);
            assert!(hit.row_hit);
            assert_eq!(hit.complete, issue + config.t_cl() + transfer, "hit, {bytes} B");
        }
    }

    #[test]
    fn stream_cycles_scale_with_bytes_and_hits() {
        let hbm = HbmModel::new(HbmConfig::default());
        let fast = hbm.stream_cycles(1 << 20, 1.0);
        let slow = hbm.stream_cycles(1 << 20, 0.0);
        assert!(slow > fast);
        let double = hbm.stream_cycles(2 << 20, 1.0);
        assert!(double.0 >= fast.0 * 2 - 2);
    }
}
