//! Fabric configuration: latency/bandwidth profile and delay injection.

/// How (and whether) the simulated fabric injects real wall-clock delay for
/// each network operation.
///
/// Cost accounting (round-trip counters and modeled nanoseconds) always
/// happens; delay injection only controls whether the calling thread actually
/// waits.  Wall-clock experiments inject delays so the relative cost of cache
/// misses, chain walks and reconfiguration shows up in what they measure;
/// CPU-cost measurements run with [`DelayMode::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayMode {
    /// Account costs only; never block the caller.
    None,
    /// Busy-spin for `modeled_ns * numerator / denominator` nanoseconds.
    ///
    /// Busy-spinning (rather than sleeping) keeps sub-microsecond delays
    /// meaningful; the scale factor lets experiments compress time.
    BusySpin {
        /// Scale numerator.
        numerator: u32,
        /// Scale denominator.
        denominator: u32,
    },
    /// Block the calling thread with `std::thread::sleep` for
    /// `modeled_ns * numerator / denominator` nanoseconds.
    ///
    /// Sleeping models a thread parked on a synchronous verb
    /// completion: the CPU is *free* while the "network" works, so
    /// concurrent client threads overlap their fabric waits even on a
    /// host with fewer cores than threads. Kernel timer granularity
    /// (tens of µs) makes every delay at least that long, so every
    /// operation is uniformly fabric-bound. Use [`DelayMode::BusySpin`]
    /// when sub-microsecond fidelity matters more than overlap.
    Sleep {
        /// Scale numerator.
        numerator: u32,
        /// Scale denominator.
        denominator: u32,
    },
}

impl DelayMode {
    /// Full-fidelity busy-spin delay (scale 1/1).
    pub const fn full() -> Self {
        DelayMode::BusySpin {
            numerator: 1,
            denominator: 1,
        }
    }

    /// Full-fidelity sleeping delay (scale 1/1), for experiments where
    /// fabric waits should overlap across threads instead of burning CPU.
    pub const fn sleeping() -> Self {
        DelayMode::Sleep {
            numerator: 1,
            denominator: 1,
        }
    }

    /// Scale a modeled duration into an injected duration, if any.
    pub fn injected_ns(&self, modeled_ns: u64) -> u64 {
        match *self {
            DelayMode::None => 0,
            DelayMode::BusySpin {
                numerator,
                denominator,
            }
            | DelayMode::Sleep {
                numerator,
                denominator,
            } => {
                if denominator == 0 {
                    0
                } else {
                    modeled_ns.saturating_mul(u64::from(numerator)) / u64::from(denominator)
                }
            }
        }
    }

    /// `true` if the injected delay blocks the thread without consuming
    /// the CPU (so concurrent workers overlap their waits).
    pub fn yields_cpu(&self) -> bool {
        matches!(self, DelayMode::Sleep { .. })
    }
}

/// Latency/bandwidth profile of the simulated interconnect.
///
/// Defaults follow the paper's testbed: Mellanox FDR ConnectX-3 at 56 Gbps
/// (~7 GB/s usable), one-sided verb latency of ~2 µs and two-sided RPC latency
/// of ~4 µs (the paper cites a 1–20 µs network latency range, at least 10×
/// higher than PM/DRAM access latency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Base latency of a one-sided READ/WRITE/CAS round trip, in nanoseconds.
    pub one_sided_latency_ns: u64,
    /// Base latency of a two-sided RPC round trip, in nanoseconds.
    pub rpc_latency_ns: u64,
    /// Usable link bandwidth in bytes per second (per KN link).
    pub bandwidth_bytes_per_sec: u64,
    /// Aggregate bandwidth of the DPM-side network port(s) in bytes/second.
    ///
    /// The paper's setup has a single DPM pool whose ingress bandwidth
    /// (~7 GB/s) eventually caps aggregate write throughput.
    pub dpm_bandwidth_bytes_per_sec: u64,
    /// Whether calls inject real delay.
    pub delay: DelayMode,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            one_sided_latency_ns: 2_000,
            rpc_latency_ns: 4_000,
            bandwidth_bytes_per_sec: 7_000_000_000,
            dpm_bandwidth_bytes_per_sec: 7_000_000_000,
            delay: DelayMode::None,
        }
    }
}

impl FabricConfig {
    /// Modeled time for a one-sided operation moving `bytes` bytes.
    pub fn one_sided_ns(&self, bytes: usize) -> u64 {
        self.one_sided_latency_ns + self.transfer_ns(bytes)
    }

    /// Modeled time for a two-sided RPC moving `bytes` bytes total.
    pub fn rpc_ns(&self, bytes: usize) -> u64 {
        self.rpc_latency_ns + self.transfer_ns(bytes)
    }

    /// Serialization (wire transfer) time for `bytes` bytes.
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        if self.bandwidth_bytes_per_sec == 0 {
            return 0;
        }
        (bytes as u64).saturating_mul(1_000_000_000) / self.bandwidth_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = FabricConfig::default();
        assert_eq!(c.one_sided_latency_ns, 2_000);
        assert_eq!(c.bandwidth_bytes_per_sec, 7_000_000_000);
        assert_eq!(c.delay, DelayMode::None);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let c = FabricConfig::default();
        assert!(c.one_sided_ns(1_000_000) > c.one_sided_ns(64));
        // 7 GB/s -> 1 MB takes ~143 us
        let ns = c.transfer_ns(1_000_000);
        assert!(
            ns > 100_000 && ns < 200_000,
            "unexpected transfer time {ns}"
        );
    }

    #[test]
    fn delay_mode_scaling() {
        assert_eq!(DelayMode::None.injected_ns(10_000), 0);
        assert_eq!(DelayMode::full().injected_ns(10_000), 10_000);
        let half = DelayMode::BusySpin {
            numerator: 1,
            denominator: 2,
        };
        assert_eq!(half.injected_ns(10_000), 5_000);
        let zero_den = DelayMode::BusySpin {
            numerator: 1,
            denominator: 0,
        };
        assert_eq!(zero_den.injected_ns(10_000), 0);
    }

    #[test]
    fn zero_bandwidth_means_no_transfer_cost() {
        let c = FabricConfig {
            bandwidth_bytes_per_sec: 0,
            ..FabricConfig::default()
        };
        assert_eq!(c.transfer_ns(1 << 20), 0);
        assert_eq!(c.one_sided_ns(1 << 20), c.one_sided_latency_ns);
    }
}
