//! Posted one-sided reads: many verbs in flight, one wait per list.
//!
//! A real RDMA NIC keeps many one-sided READs of a queue pair outstanding
//! at once, and a thread that posts a list of them polls their completions
//! together (Kalia et al., "Design Guidelines for High Performance RDMA
//! Systems", USENIX ATC '16; FaRM, NSDI '14). A [`PostedReads`] list models
//! that for the reads of one KN request slice. Each operation's reads form
//! a [`ReadChain`]: every read of a chain depends on the one before it (a
//! bucket hop needs the previous bucket's `next` pointer, an entry read
//! needs the index slot), so the chain numbers them by **dependency
//! level** 0, 1, 2, … Reads of different chains at the same level are
//! independent and travel together.
//!
//! [`PostedReads::wait`] injects one delay for the whole list:
//!
//! ```text
//! Σ over levels  one_sided_latency_ns × ⌈reads at the level / 16⌉
//!                + transfer_ns(bytes read at the level)
//! ```
//!
//! where 16 is [`OUTSTANDING_READS`]. A lone verb is a list of one chain of
//! one read, so it costs exactly [`FabricConfig::one_sided_ns`], and
//! [`Nic::one_sided_read`] is that list: there is one accounting path.
//! Round-trip and byte counters are charged per verb as it is posted;
//! [`NicStats::modeled_ns`](crate::NicStats::modeled_ns) is charged the
//! waited time when the list waits.
//!
//! [`FabricConfig::one_sided_ns`]: crate::FabricConfig::one_sided_ns

use crate::nic::Nic;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// One-sided READs a queue pair keeps outstanding before the next one
/// waits for a completion: ConnectX-3's limit, the NIC whose latency and
/// bandwidth [`FabricConfig`](crate::FabricConfig)'s defaults model. A
/// level with more reads than this pays one latency per started group of
/// 16.
pub const OUTSTANDING_READS: u64 = 16;

/// Dependency levels a list tracks. A chain deeper than this (a P-CLHT
/// chain of many overflow buckets) pays for each further read on its own,
/// one full [`FabricConfig::one_sided_ns`](crate::FabricConfig::one_sided_ns)
/// after another.
const LEVELS: usize = 8;

/// The reads posted at one dependency level.
#[derive(Debug, Clone, Copy, Default)]
struct Level {
    reads: u64,
    bytes: usize,
}

/// A list of posted one-sided reads on one [`Nic`], waited for once. See
/// the module docs for the cost model.
///
/// It lives on its caller's stack and never allocates. Dropping a list
/// with reads still posted waits for them, so no read goes unaccounted.
#[derive(Debug)]
pub struct PostedReads<'n> {
    nic: &'n Nic,
    levels: [Level; LEVELS],
    /// Levels in use: `levels[..depth]`; 0 when nothing is posted.
    depth: usize,
    /// Modeled time of the reads past the last tracked level.
    serial_ns: u64,
}

impl<'n> PostedReads<'n> {
    /// An empty list on `nic`.
    pub fn new(nic: &'n Nic) -> Self {
        PostedReads {
            nic,
            levels: [Level::default(); LEVELS],
            depth: 0,
            serial_ns: 0,
        }
    }

    /// Start one operation's chain of dependent reads; its first read is
    /// at level 0.
    pub fn chain(&mut self) -> ReadChain<'_, 'n> {
        ReadChain {
            list: self,
            level: 0,
        }
    }

    /// Modeled time of what is posted: the formula of the module docs.
    fn modeled_ns(&self) -> u64 {
        let config = self.nic.config();
        self.levels[..self.depth]
            .iter()
            .map(|l| {
                config.one_sided_latency_ns * l.reads.div_ceil(OUTSTANDING_READS)
                    + config.transfer_ns(l.bytes)
            })
            .sum::<u64>()
            + self.serial_ns
    }

    /// Wait for every posted read: inject one delay of their modeled time
    /// (per the NIC's [`DelayMode`](crate::DelayMode)), charge it to
    /// [`NicStats::modeled_ns`](crate::NicStats::modeled_ns) and empty the
    /// list. Returns the modeled time; an empty list returns zero at once,
    /// without reading the clock.
    pub fn wait(&mut self) -> Duration {
        if self.depth == 0 {
            return Duration::ZERO;
        }
        let ns = self.modeled_ns();
        self.levels[..self.depth].fill(Level::default());
        self.depth = 0;
        self.serial_ns = 0;
        self.nic.account_and_delay(ns)
    }

    /// Post a read of `bytes` at dependency level `level`, charging its
    /// round trip and bytes now.
    fn post(&mut self, level: usize, bytes: usize) {
        let counters = self.nic.counters();
        counters.one_sided_reads.fetch_add(1, Ordering::Relaxed);
        counters
            .bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
        match self.levels.get_mut(level) {
            Some(l) => {
                l.reads += 1;
                l.bytes += bytes;
                self.depth = self.depth.max(level + 1);
            }
            None => self.serial_ns += self.nic.config().one_sided_ns(bytes),
        }
    }
}

impl Drop for PostedReads<'_> {
    fn drop(&mut self) {
        self.wait();
    }
}

/// One operation's dependent reads on a [`PostedReads`] list: each read is
/// one level deeper than the one before it.
#[derive(Debug)]
pub struct ReadChain<'l, 'n> {
    list: &'l mut PostedReads<'n>,
    level: usize,
}

impl ReadChain<'_, '_> {
    /// Post a one-sided READ of `bytes` bytes that depends on every read
    /// this chain posted before.
    pub fn read(&mut self, bytes: usize) {
        self.list.post(self.level, bytes);
        self.level += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DelayMode, FabricConfig};
    use std::time::Instant;

    fn nic() -> Nic {
        Nic::new(FabricConfig::default())
    }

    #[test]
    fn a_one_read_list_costs_one_one_sided_read() {
        let nic = nic();
        for bytes in [8, 64, 128, 4096, 1 << 20] {
            let mut list = PostedReads::new(&nic);
            list.chain().read(bytes);
            let expected = nic.config().one_sided_ns(bytes);
            assert_eq!(list.modeled_ns(), expected, "{bytes} B");
            assert_eq!(list.wait(), Duration::from_nanos(expected));
        }
        let before = nic.snapshot();
        assert_eq!(
            nic.one_sided_read(100),
            Duration::from_nanos(nic.config().one_sided_ns(100))
        );
        let delta = nic.snapshot().since(&before);
        assert_eq!((delta.one_sided_reads, delta.bytes_read), (1, 100));
        assert_eq!(delta.modeled_ns, nic.config().one_sided_ns(100));
    }

    #[test]
    fn thirty_two_independent_reads_cost_two_latencies_plus_their_bytes() {
        let nic = nic();
        let mut list = PostedReads::new(&nic);
        for _ in 0..32 {
            list.chain().read(128);
        }
        let c = nic.config();
        let expected = 2 * c.one_sided_latency_ns + c.transfer_ns(32 * 128);
        assert_eq!(list.modeled_ns(), expected);
        // A 33rd read starts a third group of outstanding reads.
        list.chain().read(128);
        assert_eq!(
            list.modeled_ns(),
            3 * c.one_sided_latency_ns + c.transfer_ns(33 * 128)
        );
    }

    #[test]
    fn levels_add() {
        let nic = nic();
        let c = *nic.config();
        let mut list = PostedReads::new(&nic);
        // Two misses (bucket, then entry) beside a shortcut hit (value).
        for _ in 0..2 {
            let mut miss = list.chain();
            miss.read(64);
            miss.read(200);
        }
        list.chain().read(100);
        let expected = c.one_sided_latency_ns
            + c.transfer_ns(64 + 64 + 100)
            + c.one_sided_latency_ns
            + c.transfer_ns(400);
        assert_eq!(list.modeled_ns(), expected);
        // One chain of dependent reads costs what its reads cost one by one,
        // however deep it goes.
        list.wait();
        let mut deep = list.chain();
        for _ in 0..LEVELS + 3 {
            deep.read(64);
        }
        let per_key = (LEVELS as u64 + 3) * c.one_sided_ns(64);
        assert_eq!(list.modeled_ns(), per_key);
    }

    #[test]
    fn counters_are_per_verb_and_modeled_ns_is_the_waited_time() {
        let nic = nic();
        let mut list = PostedReads::new(&nic);
        for _ in 0..4 {
            list.chain().read(64);
        }
        let posted = nic.snapshot();
        assert_eq!((posted.one_sided_reads, posted.bytes_read), (4, 256));
        assert_eq!(posted.modeled_ns, 0, "charged when the list waits");
        let waited = list.wait();
        let s = nic.snapshot();
        assert_eq!(s.modeled_ns, waited.as_nanos() as u64);
        assert_eq!(s.modeled_ns, nic.config().one_sided_ns(256));
        // An empty list waits for nothing and charges nothing.
        assert_eq!(list.wait(), Duration::ZERO);
        assert_eq!(nic.snapshot(), s);
        // Dropping a list waits for what it still holds.
        list.chain().read(8);
        drop(list);
        let dropped = nic.snapshot().since(&s);
        assert_eq!(dropped.modeled_ns, nic.config().one_sided_ns(8));
    }

    #[test]
    fn delay_mode_none_waits_zero() {
        let nic = Nic::new(FabricConfig {
            one_sided_latency_ns: 10_000_000_000, // 10 s per level
            delay: DelayMode::None,
            ..FabricConfig::default()
        });
        let start = Instant::now();
        let mut list = PostedReads::new(&nic);
        list.chain().read(64);
        assert_eq!(
            list.wait(),
            Duration::from_nanos(nic.config().one_sided_ns(64))
        );
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_busy_spin_list_waits_once_for_all_its_reads() {
        let nic = Nic::new(FabricConfig {
            one_sided_latency_ns: 100_000, // 100 µs, so the test is robust
            delay: DelayMode::full(),
            ..FabricConfig::default()
        });
        let mut list = PostedReads::new(&nic);
        for _ in 0..16 {
            list.chain().read(8);
        }
        let start = Instant::now();
        let waited = list.wait();
        assert!(start.elapsed() >= Duration::from_micros(90));
        assert!(waited < Duration::from_micros(200), "{waited:?}");
    }
}
