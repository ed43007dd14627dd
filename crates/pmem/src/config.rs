//! Pool configuration.

/// Configuration of a [`crate::PmemPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmemConfig {
    /// Total pool capacity in bytes. Rounded up to a multiple of 8.
    pub capacity_bytes: u64,
    /// When `true`, every store records its cache line as dirty until
    /// [`crate::PmemPool::persist`] + [`crate::PmemPool::drain`] are called,
    /// and [`crate::PmemPool::simulate_crash`] destroys unpersisted lines.
    ///
    /// Tracking costs a mutex acquisition per store, so it is enabled for
    /// correctness tests and disabled for throughput benchmarks.
    pub track_persistence: bool,
}

impl Default for PmemConfig {
    fn default() -> Self {
        PmemConfig {
            // The paper's DPM uses 110 GB; the default here is laptop-sized.
            capacity_bytes: 256 << 20,
            track_persistence: false,
        }
    }
}

impl PmemConfig {
    /// A small pool with persistence tracking on, convenient for unit tests.
    pub fn small_for_tests() -> Self {
        PmemConfig {
            capacity_bytes: 4 << 20,
            track_persistence: true,
        }
    }

    /// A pool of the given capacity with default settings.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        PmemConfig {
            capacity_bytes,
            ..PmemConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = PmemConfig::with_capacity(1 << 20);
        assert_eq!(c.capacity_bytes, 1 << 20);
        assert!(!c.track_persistence);
        assert!(PmemConfig::small_for_tests().track_persistence);
    }
}
