//! # gk-core
//!
//! The GateKeeper-GPU *system*: everything the paper's Methods section (§3)
//! describes around the filtering algorithm itself.
//!
//! * [`config`] — compile-time-style configuration (read length, error threshold,
//!   encoding actor) and the system-configuration step of §3.1 that sizes batches
//!   from the device's free global memory.
//! * [`gpu`] — [`gpu::GateKeeperGpu`]: batched filtering on the simulated device
//!   (unified-memory buffers, memAdvise + prefetch streams, one filtration per
//!   thread, kernel/filter time split, host- or device-side encoding).
//! * [`pipeline`] — the chunked, triple-buffered batch pipeline: chunk planning,
//!   the stream-overlap scheduler (encode+H2D next chunk ∥ kernel current chunk ∥
//!   D2H previous chunk), and overlapped-versus-serialized reporting.
//! * [`multi_gpu`] — [`multi_gpu::MultiGpuGateKeeper`]: round-robin chunk sharding
//!   across several devices with the paper's timing conventions.
//! * [`timing`] — timing breakdowns and the "billions of filtrations in 40 minutes"
//!   throughput metric used throughout §5.2.
//! * [`backend`] — [`backend::FilterBackend`], the dispatch seam of the
//!   `gk-serve` filter-as-a-service daemon, and [`backend::CpuSimdBackend`],
//!   the one backend it serves through. The same backend is the multicore CPU
//!   baseline of the throughput comparison (Table 2); harnesses time its `run`
//!   in real wall-clock time.
//!
//! The filtering *algorithm* (masks, amendment, boundary fix) lives in
//! `gk-filters`, and every path here decides through its one dispatch,
//! [`gk_filters::decide`]. This crate wires those decisions into the execution
//! substrate from `gk-gpusim`, which only attaches modelled time to them.

#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod gpu;
pub mod multi_gpu;
pub mod pipeline;
pub mod timing;

pub use backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
pub use config::{EncodingActor, FilterConfig, SystemConfig};
pub use gpu::{FilterRun, GateKeeperGpu};
pub use multi_gpu::{DeviceAssignment, MultiGpuGateKeeper, MultiGpuRun, MultiGpuSchedule};
pub use pipeline::{
    ChunkPlan, PipelineReport, PipelineSchedule, StreamFilterRun, MIN_CONTENDED_CHUNK_PAIRS,
};
pub use timing::{billions_in_40_minutes, pairs_per_second, InterconnectReport, TimingBreakdown};

/// The multicore CPU baseline of Table 2 is [`CpuSimdBackend`] on its own
/// pool; these tests pin its decisions on a generated pair set.
#[cfg(test)]
mod cpu {
    mod tests {
        use crate::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
        use gk_filters::{FilterDecision, GateKeeperGpuFilter, PreAlignmentFilter, SimdMode};
        use gk_seq::datasets::DatasetProfile;
        use gk_seq::pairs::PairSet;

        fn small_set() -> PairSet {
            DatasetProfile::set3().generate(2_000, 11)
        }

        fn gatekeeper(
            backend: &CpuSimdBackend,
            threshold: u32,
            pairs: &PairSet,
        ) -> Vec<FilterDecision> {
            backend.run(&FilterJob::new(
                FilterKind::GateKeeper,
                threshold,
                &pairs.pairs,
            ))
        }

        #[test]
        fn decisions_cover_every_pair_in_order() {
            let pairs = small_set();
            let decisions = gatekeeper(&CpuSimdBackend::new(2), 5, &pairs);
            assert_eq!(decisions.len(), pairs.len());
            let filter = GateKeeperGpuFilter::new(5);
            for (i, (pair, decision)) in pairs.pairs.iter().zip(&decisions).enumerate() {
                assert_eq!(
                    *decision,
                    filter.filter_pair(&pair.read, &pair.reference),
                    "pair {i}"
                );
            }
        }

        #[test]
        fn undefined_pairs_pass_through() {
            let mut profile = DatasetProfile::set3();
            profile.undefined_fraction = 0.2;
            let pairs = profile.generate(500, 3);
            let decisions = gatekeeper(&CpuSimdBackend::new(2), 5, &pairs);
            let undefined_decisions = decisions.iter().filter(|d| d.undefined).count();
            assert_eq!(undefined_decisions, pairs.undefined_count());
            assert!(decisions.iter().filter(|d| d.undefined).all(|d| d.accepted));
        }

        #[test]
        fn thread_count_does_not_change_decisions() {
            let pairs = small_set();
            let single = gatekeeper(&CpuSimdBackend::new(1), 5, &pairs);
            let multi = gatekeeper(&CpuSimdBackend::new(4), 5, &pairs);
            assert_eq!(single, multi);
        }

        #[test]
        fn simd_mode_does_not_change_decisions() {
            let mut profile = DatasetProfile::set3();
            profile.undefined_fraction = 0.1;
            let pairs = profile.generate(1_500, 17);
            for threshold in [0u32, 2, 5] {
                let lanes = CpuSimdBackend::new(2).with_simd_mode(SimdMode::Lanes);
                let scalar = CpuSimdBackend::new(2).with_simd_mode(SimdMode::Scalar);
                assert_eq!(
                    gatekeeper(&lanes, threshold, &pairs),
                    gatekeeper(&scalar, threshold, &pairs),
                    "e = {threshold}"
                );
            }
        }

        #[test]
        fn accepted_count_matches_decisions() {
            let pairs = small_set();
            let decisions = gatekeeper(&CpuSimdBackend::new(2), 5, &pairs);
            let accepted = decisions.iter().filter(|d| d.accepted).count();
            assert_eq!(
                accepted,
                GateKeeperGpuFilter::new(5).count_accepted(&pairs.pairs)
            );
            assert!(accepted > 0);
            assert!(accepted < pairs.len());
        }
    }
}
