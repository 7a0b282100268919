//! The host-speed probe: a fixed piece of work whose time tracks the speed
//! the host lends the benchmark at that moment.
//!
//! On a small shared host the CPU the benchmark runs on moves between a fast
//! and a slow state as other tenants come and go, for a minute or more at a
//! time. On the 2-vCPU host the benchmark was written on, a 32,768-pair
//! `filter_stream` call took 33 to 40 ms in the fast state and 60 to 70 ms in
//! the slow ones, and a 32-second run often sat wholly in one state, so ten
//! runs of the same code spread by a third of their median. A latency-bound
//! loop (a multiply chain) barely slowed; work that keeps many ALU operations
//! in flight, as the filter kernels do, slowed by 1.6 to 1.75 times.
//!
//! The probe is such work: GateKeeper-like shift, XOR, fold and AND passes
//! over 512 fixed pseudo-random 2-bit-encoded pairs, all in L1 cache. Its
//! inputs come from a constant seed, never the run's, and its code is the
//! benchmark's own, so it does the same work in every run of every commit.
//! The workloads time it between their operations, outside every timed
//! region, and report each timing scaled to the host speed at which the
//! probe takes [`NOMINAL_PROBE_S`] (see [`speed`]).

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the 2-vCPU host the benchmark was written on, in its
/// fast state. Reported timings are scaled to this host speed.
pub const NOMINAL_PROBE_S: f64 = 1.3e-3;

/// Pairs the probe works through per pass.
const PROBE_PAIRS: usize = 512;
/// Passes per probe: about 1.3 ms in the fast state.
const PASSES: usize = 36;
/// Shifted masks per pair, as GateKeeper at e = 5 builds them.
const MASKS: u32 = 11;

/// 100 bp in 2 bits per base, padded to four words.
type Encoded = [u64; 4];

/// The probe's fixed inputs.
pub struct HostProbe {
    pairs: Vec<(Encoded, Encoded)>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Builds the probe's inputs from a constant seed.
    pub fn new() -> HostProbe {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pairs = (0..PROBE_PAIRS)
            .map(|_| {
                let read = [next(), next(), next(), next()];
                let mut reference = read;
                for word in &mut reference {
                    *word ^= next() & next() & next();
                }
                (read, reference)
            })
            .collect();
        HostProbe { pairs }
    }

    /// Times the probe, in seconds. A probe that meets a stall of the host
    /// counts it, as the operation beside it does.
    pub fn measure(&self) -> f64 {
        let start = Instant::now();
        for _ in 0..PASSES {
            black_box(self.pass(black_box(&self.pairs)));
        }
        start.elapsed().as_secs_f64()
    }

    /// One pass: for every pair, the AND of its amended shifted masks, and
    /// the count of bits left.
    fn pass(&self, pairs: &[(Encoded, Encoded)]) -> u64 {
        let mut total = 0u64;
        for (read, reference) in pairs {
            let mut folded = [u64::MAX; 4];
            for mask in 0..MASKS {
                let shift = 2 * mask.div_ceil(2);
                for word in 0..4 {
                    let shifted = if shift == 0 {
                        read[word]
                    } else if mask % 2 == 1 {
                        let carry = if word == 0 {
                            0
                        } else {
                            read[word - 1] >> (64 - shift)
                        };
                        (read[word] << shift) | carry
                    } else {
                        let carry = read.get(word + 1).map_or(0, |w| w << (64 - shift));
                        (read[word] >> shift) | carry
                    };
                    let diff = shifted ^ reference[word];
                    let bases = (diff | (diff >> 1)) & 0x5555_5555_5555_5555;
                    let amended =
                        bases | ((bases >> 2) & (bases << 2)) | ((bases >> 4) & (bases << 2));
                    folded[word] &= amended;
                }
            }
            total += folded
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>();
        }
        total
    }
}

/// How much faster the host is now than at the nominal speed, as it bears
/// on a workload of the given `sensitivity`: 1 when the probe took
/// [`NOMINAL_PROBE_S`], below 1 on a slower host.
///
/// A workload's sensitivity is the exponent relating its own slow-down to
/// the probe's: 1 for work that slows exactly as the probe does, 0 for work
/// the host's state does not touch.
pub fn speed(probe_s: f64, sensitivity: f64) -> f64 {
    (NOMINAL_PROBE_S / probe_s).powf(sensitivity)
}
