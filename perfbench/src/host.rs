//! Host-speed correction.
//!
//! The reference host is a shared VM whose speed drifts by a third or more
//! over minutes, while the benchmark's own medians only remove jitter
//! within a run. So every run also times a fixed probe: dependent loads
//! through a table, then hash-map inserts and lookups, the two kinds of
//! work the solvers spend their time on. End-to-end times are reported
//! scaled by [`REFERENCE_PROBE_S`] over the run's median probe time: the
//! time the run would have taken on the reference host at its usual
//! speed. The probe is the benchmark's own code, so a change to the
//! program leaves it alone.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// A fixed reference for the probe's time: its median on the reference
/// host (2 vCPUs) in a slow hour. The probe read 0.04–0.07 s there, so
/// corrected times read up to 1.75× wall time in fast hours.
pub const REFERENCE_PROBE_S: f64 = 0.07;
/// Entries of the probe's table (32 MB of `u32`).
const TABLE: usize = 1 << 23;
/// Dependent loads per probe.
const LOADS: usize = 200_000;
/// Hash-map keys per probe.
const KEYS: u64 = 150_000;

/// The probe's `k`-th hash-map key.
fn key(k: u64) -> u64 {
    k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20
}

/// A probe and the times it has taken. Its memory is allocated once, so
/// sampling does not change the allocator's state under the program.
#[derive(Debug)]
pub struct HostProbe {
    next: Vec<u32>,
    map: HashMap<u64, u64>,
    times: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

impl HostProbe {
    /// A probe over a table holding one random cycle through all entries
    /// (Sattolo's algorithm), so every load depends on the one before.
    pub fn new() -> HostProbe {
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut rng = rasc_devtools::Rng::new(0x9e37_79b9);
        for i in (1..TABLE).rev() {
            next.swap(i, rng.gen_range(0..i));
        }
        HostProbe {
            next,
            map: HashMap::with_capacity(KEYS as usize),
            times: Vec::new(),
        }
    }

    /// Times one pass of the probe.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut at = 0usize;
        for _ in 0..LOADS {
            at = self.next[at] as usize;
        }
        // `clear` keeps the map's capacity: no allocation while sampling.
        self.map.clear();
        for k in 0..KEYS {
            *self.map.entry(key(k)).or_default() += k;
        }
        let found: u64 = (0..KEYS).filter_map(|k| self.map.get(&key(k))).sum();
        black_box((at, found));
        self.times.push(start.elapsed().as_secs_f64());
    }

    /// The median probe time in seconds (0 before any sample).
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times)
    }

    /// How much slower the host ran than the reference: the median probe
    /// time over [`REFERENCE_PROBE_S`] (1 before any sample).
    pub fn slowdown(&self) -> f64 {
        if self.times.is_empty() {
            1.0
        } else {
            self.median_s() / REFERENCE_PROBE_S
        }
    }
}
