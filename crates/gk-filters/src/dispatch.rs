//! One decision dispatch for every execution path.
//!
//! The paper decides every pair with one kernel; where the 2-bit packing
//! happens (host or device) only changes the transfer, never the decision
//! (§3.4). [`decide`] is the single place that maps a [`FilterKind`] to its
//! block kernel and fans 256-pair blocks out over the current worker pool. The multicore CPU backend, the simulated GPU's device stage
//! and the filters' own `filter_batch` overrides all call it, so their
//! decisions cannot drift apart.

use crate::gatekeeper::GateKeeperConfig;
use crate::magnet::magnet_filter_block_slices;
use crate::shouji::shouji_filter_block_slices;
use crate::simd::{gatekeeper_filter_block_slices, SimdMode};
use crate::sneaky_snake::sneaky_snake_filter_block_slices;
use crate::traits::FilterDecision;
use gk_seq::pairs::SequencePair;
use gk_seq::raw::RawPairSlice;
use rayon::prelude::*;
use std::str::FromStr;

/// Pairs handed to one block task: large enough to amortise the
/// struct-of-arrays transpose, small enough to keep the work-stealing queue
/// full. Every path cuts blocks at the same offsets, which is what keeps the
/// batched service, the offline harness and the simulator bit-identical.
pub(crate) const BLOCK_PAIRS: usize = 256;

/// Which pre-alignment filter to run.
///
/// This is the dispatch key of [`decide`] and the service-facing name of the
/// four lane-widened filters; it travels over the wire as a one-byte code
/// (see [`FilterKind::code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// The improved GateKeeper of this paper (leading/trailing-bit fix, §3.4).
    GateKeeper,
    /// MAGNET (Alser et al. 2017): greedy longest-zero-segment extraction.
    Magnet,
    /// Shouji (Alser et al. 2019): sliding-window neighborhood map.
    Shouji,
    /// SneakySnake (Alser et al. 2020): single-net-routing greedy lower bound.
    SneakySnake,
}

impl FilterKind {
    /// Every filter kind, in wire-code order.
    pub const ALL: [FilterKind; 4] = [
        FilterKind::GateKeeper,
        FilterKind::Magnet,
        FilterKind::Shouji,
        FilterKind::SneakySnake,
    ];

    /// Stable one-byte wire code (`gk-seq::frame` request framing).
    pub fn code(self) -> u8 {
        match self {
            FilterKind::GateKeeper => 0,
            FilterKind::Magnet => 1,
            FilterKind::Shouji => 2,
            FilterKind::SneakySnake => 3,
        }
    }

    /// Inverse of [`FilterKind::code`].
    pub fn from_code(code: u8) -> Option<FilterKind> {
        FilterKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Short label for flags, tables and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            FilterKind::GateKeeper => "gatekeeper",
            FilterKind::Magnet => "magnet",
            FilterKind::Shouji => "shouji",
            FilterKind::SneakySnake => "sneaky-snake",
        }
    }
}

impl std::fmt::Display for FilterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FilterKind {
    type Err = String;

    fn from_str(s: &str) -> Result<FilterKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "gatekeeper" | "gk" => Ok(FilterKind::GateKeeper),
            "magnet" => Ok(FilterKind::Magnet),
            "shouji" => Ok(FilterKind::Shouji),
            "sneaky-snake" | "sneakysnake" | "ss" => Ok(FilterKind::SneakySnake),
            other => Err(format!(
                "unknown filter kind {other:?} (expected gatekeeper, magnet, shouji or sneaky-snake)"
            )),
        }
    }
}

/// A borrowed, index-addressed run of `(read, reference)` pairs: what
/// [`decide`] reads. Owned pair slices and the raw transfer arena both
/// provide it, so no path copies its pairs into another layout to decide.
pub trait PairView: Sync {
    /// Number of pairs in the view.
    fn pair_count(&self) -> usize;

    /// Pair `i` as raw ASCII `(read, reference)` slices.
    fn pair(&self, i: usize) -> (&[u8], &[u8]);
}

impl PairView for [SequencePair] {
    fn pair_count(&self) -> usize {
        self.len()
    }

    fn pair(&self, i: usize) -> (&[u8], &[u8]) {
        (&self[i].read, &self[i].reference)
    }
}

impl PairView for RawPairSlice<'_> {
    fn pair_count(&self) -> usize {
        self.len()
    }

    fn pair(&self, i: usize) -> (&[u8], &[u8]) {
        (self.read(i), self.reference(i))
    }
}

/// Decides every pair of `pairs` with filter `kind` at edit threshold
/// `threshold`, returning decisions in input order.
///
/// The pairs are cut into 256-pair blocks that run as tasks on the current
/// worker pool; each block gathers its own slice vector and runs the kind's
/// block kernel (lane-parallel in [`SimdMode::Lanes`], the per-bit
/// `*_reference` twins in [`SimdMode::Scalar`]). `mode` is resolved once
/// here, never per block. Decisions are byte-identical across modes and pool
/// sizes.
pub fn decide<P>(kind: FilterKind, threshold: u32, pairs: &P, mode: SimdMode) -> Vec<FilterDecision>
where
    P: PairView + ?Sized,
{
    let mode = mode.resolve();
    let gatekeeper = GateKeeperConfig::gpu(threshold);
    let total = pairs.pair_count();
    (0..total.div_ceil(BLOCK_PAIRS))
        .into_par_iter()
        .flat_map(|block| {
            let start = block * BLOCK_PAIRS;
            let slices: Vec<(&[u8], &[u8])> = (start..(start + BLOCK_PAIRS).min(total))
                .map(|i| pairs.pair(i))
                .collect();
            match kind {
                FilterKind::GateKeeper => {
                    gatekeeper_filter_block_slices(&slices, &gatekeeper, mode)
                }
                FilterKind::Magnet => magnet_filter_block_slices(&slices, threshold, mode),
                FilterKind::Shouji => shouji_filter_block_slices(&slices, threshold, mode),
                FilterKind::SneakySnake => {
                    sneaky_snake_filter_block_slices(&slices, threshold, mode)
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::decision_digest;
    use gk_seq::datasets::DatasetProfile;
    use gk_seq::raw::RawPairBatch;

    #[test]
    fn owned_and_raw_views_decide_alike() {
        let mut profile = DatasetProfile::set3();
        profile.undefined_fraction = 0.05;
        let pairs = profile.generate(3 * BLOCK_PAIRS + 17, 0xd1).pairs;
        let raw = RawPairBatch::from_pairs(&pairs);
        for kind in FilterKind::ALL {
            for mode in [SimdMode::Lanes, SimdMode::Scalar] {
                let owned = decide(kind, 4, pairs.as_slice(), mode);
                let arena = decide(kind, 4, &raw.view(), mode);
                assert_eq!(owned.len(), pairs.len());
                assert_eq!(
                    decision_digest(&owned),
                    decision_digest(&arena),
                    "{kind} / {mode}"
                );
            }
        }
    }
}
