//! Golden pins for the simulated GPU model: `GateKeeperGpu::filter_set` on a
//! fixed-seed Set 3 sample (with undefined pairs), on a Pascal and a Kepler
//! device, in both encoding actors. The simulator only attaches modelled time
//! and traffic to the decisions, so every `TimingBreakdown` component (the
//! measured `host_wall_seconds` aside), the unified-memory counters, the
//! batch count and the per-chunk loads must stay bit-identical whenever the
//! way a chunk is prepared or decided changes. The values hold under every
//! `GK_SIMD` mode and `RAYON_NUM_THREADS` setting.

use gatekeeper_gpu::core::{EncodingActor, FilterConfig, GateKeeperGpu, TimingBreakdown};
use gatekeeper_gpu::filters::traits::decision_digest;
use gatekeeper_gpu::gpusim::device::DeviceSpec;
use gatekeeper_gpu::gpusim::memory::MemoryStats;
use gatekeeper_gpu::gpusim::topology::ChunkLoad;
use gatekeeper_gpu::seq::datasets::DatasetProfile;

/// Decision digest shared by every case: the model never changes decisions.
const DECISION_DIGEST: u64 = 0xe3abaa1035999909;

struct Golden {
    device: DeviceSpec,
    encoding: EncodingActor,
    timing: TimingBreakdown,
    memory_stats: MemoryStats,
    batches: usize,
    chunk_loads: Vec<ChunkLoad>,
}

fn load(host_seconds: f64, h2d_bytes: [u64; 2], kernel_seconds: f64, d2h_bytes: u64) -> ChunkLoad {
    ChunkLoad {
        host_seconds,
        h2d_bytes,
        kernel_seconds,
        d2h_bytes,
    }
}

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            device: DeviceSpec::gtx_1080_ti(),
            encoding: EncodingActor::Host,
            timing: TimingBreakdown {
                host_prep_seconds: 0.0007499999999999999,
                encode_seconds: 0.0025,
                encode_device_seconds: 0.0,
                transfer_seconds: 3.1187817258883246e-5,
                kernel_seconds: 9.723987020728998e-5,
                readback_seconds: 0.0,
                overlapped_seconds: Some(0.003304863619819543),
                host_wall_seconds: 0.0,
            },
            memory_stats: MemoryStats {
                bytes_to_device: 393216,
                bytes_to_host: 0,
                page_faults: 0,
                prefetched_pages: 6,
                transfer_seconds: 3.1187817258883246e-5,
            },
            batches: 3,
            chunk_loads: vec![
                load(0.0013, [65536, 65536], 3.680836950007927e-5, 0),
                load(0.0013, [65536, 65536], 3.675569814655146e-5, 0),
                load(0.00065, [65536, 65536], 2.3675802560659253e-5, 0),
            ],
        },
        Golden {
            device: DeviceSpec::gtx_1080_ti(),
            encoding: EncodingActor::Device,
            timing: TimingBreakdown {
                host_prep_seconds: 0.0007499999999999999,
                encode_seconds: 0.0,
                encode_device_seconds: 7.023051028753897e-6,
                transfer_seconds: 5.197969543147208e-5,
                kernel_seconds: 0.00010426292123604387,
                readback_seconds: 0.0,
                overlapped_seconds: Some(0.0008270744820332652),
                host_wall_seconds: 0.0,
            },
            memory_stats: MemoryStats {
                bytes_to_device: 655360,
                bytes_to_host: 0,
                page_faults: 0,
                prefetched_pages: 10,
                transfer_seconds: 5.197969543147208e-5,
            },
            batches: 3,
            chunk_loads: vec![
                load(0.0003, [131072, 131072], 3.9610402993889244e-5, 0),
                load(0.0003, [131072, 131072], 3.955773164036143e-5, 0),
                load(0.00015, [65536, 65536], 2.5094786601793203e-5, 0),
            ],
        },
        Golden {
            device: DeviceSpec::tesla_k20x(),
            encoding: EncodingActor::Host,
            timing: TimingBreakdown {
                host_prep_seconds: 0.0007499999999999999,
                encode_seconds: 0.0025,
                encode_device_seconds: 0.0,
                transfer_seconds: 0.00018144,
                kernel_seconds: 0.00021944736315113284,
                readback_seconds: 0.0,
                overlapped_seconds: Some(0.0033593892421898567),
                host_wall_seconds: 0.0,
            },
            memory_stats: MemoryStats {
                bytes_to_device: 393216,
                bytes_to_host: 0,
                page_faults: 6,
                prefetched_pages: 0,
                transfer_seconds: 0.00018144000000000002,
            },
            batches: 3,
            chunk_loads: vec![
                load(0.0013, [0, 0], 0.00014582307508536222, 0),
                load(0.0013, [0, 0], 0.00014567504587591397, 0),
                load(0.00065, [0, 0], 0.00010938924218985668, 0),
            ],
        },
        Golden {
            device: DeviceSpec::tesla_k20x(),
            encoding: EncodingActor::Device,
            timing: TimingBreakdown {
                host_prep_seconds: 0.0007499999999999999,
                encode_seconds: 0.0,
                encode_device_seconds: 1.978701802719635e-5,
                transfer_seconds: 0.00030240000000000003,
                kernel_seconds: 0.00023923438117832917,
                readback_seconds: 0.0,
                overlapped_seconds: Some(0.000927456384049864),
                host_wall_seconds: 0.0,
            },
            memory_stats: MemoryStats {
                bytes_to_device: 655360,
                bytes_to_host: 0,
                page_faults: 10,
                prefetched_pages: 0,
                transfer_seconds: 0.00030240000000000003,
            },
            batches: 3,
            chunk_loads: vec![
                load(0.0003, [0, 0], 0.0002141779971284652, 0),
                load(0.0003, [0, 0], 0.00021402996791901696, 0),
                load(0.00015, [0, 0], 0.000113426416130847, 0),
            ],
        },
    ]
}

#[test]
fn simulated_output_matches_the_pinned_model() {
    let mut profile = DatasetProfile::set3();
    profile.undefined_fraction = 0.05;
    let set = profile.generate(2_500, 0x601d);
    for golden in goldens() {
        let config = FilterConfig::new(100, 4)
            .with_encoding(golden.encoding)
            .with_chunk_pairs(1_000)
            .with_overlap(true);
        let label = format!("{} / {:?}", golden.device.name, golden.encoding);
        let run = GateKeeperGpu::new(golden.device, config).filter_set(&set);
        assert_eq!(decision_digest(&run.decisions), DECISION_DIGEST, "{label}");
        // `TimingBreakdown` equality covers every simulated component and
        // skips the measured wall clock.
        assert_eq!(run.timing, golden.timing, "{label}");
        assert_eq!(run.memory_stats, golden.memory_stats, "{label}");
        assert_eq!(run.batches, golden.batches, "{label}");
        assert_eq!(run.chunk_loads, golden.chunk_loads, "{label}");
    }
}
