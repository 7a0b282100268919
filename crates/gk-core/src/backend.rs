//! Filter execution behind one trait — the seam the service layer
//! (`gk-serve`) dispatches through.
//!
//! [`FilterBackend`] takes a [`FilterJob`] — filter kind, edit threshold,
//! read-pair slice — and returns per-pair [`FilterDecision`]s in input order.
//! [`CpuSimdBackend`] is the one implementation the daemon serves through: it
//! runs [`decide`], the same dispatch the simulated GPU pipeline decides with,
//! so where a pair is filtered changes only its timing, never its decision
//! (§3.4). Harnesses and tests wrap it to time or hold calls.
//!
//! # Example
//!
//! ```
//! use gk_core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
//! use gk_seq::pairs::SequencePair;
//!
//! let backend = CpuSimdBackend::new(2);
//! let pairs = vec![
//!     SequencePair::new(&b"ACGTACGT"[..], &b"ACGTACGT"[..]),
//!     SequencePair::new(&b"ACGTACGT"[..], &b"TGCATGCA"[..]),
//! ];
//! let decisions = backend.run(&FilterJob::new(FilterKind::GateKeeper, 2, &pairs));
//! assert!(decisions[0].accepted);
//! assert!(!decisions[1].accepted);
//! ```

use gk_filters::decide;
use gk_filters::simd::SimdMode;
use gk_filters::traits::FilterDecision;
use gk_seq::pairs::SequencePair;
use std::sync::Arc;

/// The filter a job asks for; defined next to [`decide`] in `gk-filters`,
/// which maps every kind to its block kernel.
pub use gk_filters::FilterKind;

/// One unit of backend work: a contiguous block of pairs, all filtered with
/// the same kind and threshold (the batcher's coalescing key). Read lengths
/// may differ from pair to pair.
#[derive(Debug, Clone, Copy)]
pub struct FilterJob<'a> {
    /// Which filter to run.
    pub kind: FilterKind,
    /// Edit-distance threshold `e`.
    pub threshold: u32,
    /// The pairs to filter, decisions returned in this order.
    pub pairs: &'a [SequencePair],
}

impl<'a> FilterJob<'a> {
    /// Builds a job.
    pub fn new(kind: FilterKind, threshold: u32, pairs: &'a [SequencePair]) -> FilterJob<'a> {
        FilterJob {
            kind,
            threshold,
            pairs,
        }
    }
}

/// A filter execution substrate the service layer can dispatch to.
///
/// Implementations must be deterministic: the same job yields the same
/// decision vector (this is what the service-equivalence suite digests), and
/// decisions must be positionally independent so the dynamic batcher can
/// split and concatenate jobs freely.
pub trait FilterBackend: Send + Sync {
    /// Short name for logs and bench reports (`cpu-simd` for
    /// [`CpuSimdBackend`]).
    fn name(&self) -> &str;

    /// Filters every pair of the job, returning decisions in input order.
    fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision>;
}

/// Multicore SIMD-lane backend, and the multicore CPU baseline of the
/// throughput comparison (Table 2): all four filters through [`decide`] on
/// its work-stealing pool. Harnesses that report CPU throughput time
/// [`FilterBackend::run`] at the call site.
pub struct CpuSimdBackend {
    /// `None` runs on the caller's current pool (the fallback when a
    /// dedicated pool cannot be built — real rayon's builder can fail on
    /// resource exhaustion even though the shim's never does).
    pool: Option<Arc<rayon::ThreadPool>>,
    mode: SimdMode,
}

impl CpuSimdBackend {
    /// Builds a backend with its own `threads`-wide pool.
    pub fn new(threads: usize) -> CpuSimdBackend {
        match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            Ok(pool) => CpuSimdBackend::with_pool(Arc::new(pool)),
            Err(_) => CpuSimdBackend {
                pool: None,
                mode: SimdMode::Auto.resolve(),
            },
        }
    }

    /// Builds a backend over an existing shared pool.
    pub fn with_pool(pool: Arc<rayon::ThreadPool>) -> CpuSimdBackend {
        CpuSimdBackend {
            pool: Some(pool),
            mode: SimdMode::Auto.resolve(),
        }
    }

    /// Overrides the SIMD mode (resolved once here, like the filter structs).
    pub fn with_simd_mode(mut self, mode: SimdMode) -> CpuSimdBackend {
        self.mode = mode.resolve();
        self
    }
}

impl FilterBackend for CpuSimdBackend {
    fn name(&self) -> &str {
        "cpu-simd"
    }

    fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
        let filter = || decide(job.kind, job.threshold, job.pairs, self.mode);
        match &self.pool {
            Some(pool) => pool.install(filter),
            None => filter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterConfig;
    use crate::gpu::GateKeeperGpu;
    use crate::multi_gpu::MultiGpuGateKeeper;
    use gk_filters::traits::decision_digest;
    use gk_gpusim::device::DeviceSpec;
    use gk_gpusim::topology::TopologyKind;
    use gk_seq::datasets::DatasetProfile;
    use gk_seq::pairs::PairSet;

    fn sample_pairs(count: usize) -> Vec<SequencePair> {
        DatasetProfile::set3().generate(count, 0x5e12_7a01).pairs
    }

    #[test]
    fn filter_kind_codes_round_trip() {
        for kind in FilterKind::ALL {
            assert_eq!(FilterKind::from_code(kind.code()), Some(kind));
            assert_eq!(kind.as_str().parse::<FilterKind>(), Ok(kind));
        }
        assert_eq!(FilterKind::from_code(17), None);
        assert!("nope".parse::<FilterKind>().is_err());
    }

    /// GateKeeper through the backend, as the service runs it.
    fn served_gatekeeper(pairs: &[SequencePair], threshold: u32) -> u64 {
        let decisions =
            CpuSimdBackend::new(2).run(&FilterJob::new(FilterKind::GateKeeper, threshold, pairs));
        assert_eq!(decisions.len(), pairs.len());
        decision_digest(&decisions)
    }

    #[test]
    fn gpu_backend_matches_direct_filter_set() {
        let pairs = sample_pairs(600);
        let read_len = pairs[0].read_len();
        let gpu = GateKeeperGpu::with_default_device(FilterConfig::new(read_len, 2));
        let direct = gpu
            .filter_set(&PairSet::new("direct", read_len, pairs.clone()))
            .decisions;
        assert_eq!(served_gatekeeper(&pairs, 2), decision_digest(&direct));
    }

    #[test]
    fn cpu_backend_matches_topology_aware_multi_gpu() {
        let pairs = sample_pairs(700);
        let config = FilterConfig::new(pairs[0].read_len(), 3)
            .with_topology(TopologyKind::SharedRoot)
            .with_topology_aware(true);
        let multi = MultiGpuGateKeeper::new(DeviceSpec::gtx_1080_ti(), 4, config);
        let direct = multi.filter_set(&pairs).decisions;
        assert_eq!(served_gatekeeper(&pairs, 3), decision_digest(&direct));
    }

    #[test]
    fn split_jobs_concatenate_to_the_whole() {
        let pairs = sample_pairs(500);
        let backend = CpuSimdBackend::new(2);
        let whole = backend.run(&FilterJob::new(FilterKind::Shouji, 4, &pairs));
        let mut stitched = Vec::new();
        for part in pairs.chunks(170) {
            stitched.extend(backend.run(&FilterJob::new(FilterKind::Shouji, 4, part)));
        }
        assert_eq!(decision_digest(&whole), decision_digest(&stitched));
    }
}
