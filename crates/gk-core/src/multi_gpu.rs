//! Multi-GPU GateKeeper: chunk sharding across several devices, with an
//! optional topology-aware scheduler.
//!
//! Setup 1 of the paper attaches eight GTX 1080 Ti boards to one host; the
//! multi-GPU experiments (Figure 8, Sup. Tables S.21–S.23) show kernel-time
//! throughput scaling almost linearly with the device count (especially in the
//! host-encoded mode) while filter-time throughput grows more slowly because the
//! host-side preparation and the shared PCIe complex do not scale.
//!
//! The **naive** sharder (the paper's §3.1 convention, and the default) reuses
//! the [`crate::pipeline`] chunk planner: the pair set is cut into pipeline
//! chunks and chunk *i* goes to device *i mod n* (with the chunk size capped at
//! `⌈total / n⌉` so every device gets work). Timing conventions follow
//! §3.1/§4.3: the workload is balanced across devices, the reported multi-GPU
//! kernel time is the slowest device's kernel time, and the host-side costs
//! (preparation, encoding) are paid once.
//!
//! The **topology-aware** scheduler ([`FilterConfig::topology_aware`]) reads
//! the interconnect wiring ([`FilterConfig::topology`]) and moves three levers,
//! none of which changes any decision:
//!
//! 1. **weighted shares** — contiguous per-device spans proportional to each
//!    device's estimated service rate (its effective link bandwidth and kernel
//!    rate), via [`gk_gpusim::topology::weighted_partition`];
//! 2. **per-device encoding actor** — each device gets whichever of
//!    host/device encode minimizes its estimated pipeline bottleneck on *its*
//!    link (raw uploads are ~4× the packed words, so a starved link can flip
//!    the paper's device-encode preference);
//! 3. **contention-aware chunks** — per-device chunk sizes shrink by the
//!    link's sharer count ([`ChunkPlan::with_link_sharers`]) so transfers
//!    interleave into the gaps other devices' host-prep stages leave open
//!    instead of colliding in one serialized burst.
//!
//! Every run also replays its per-device chunk loads through
//! [`gk_gpusim::topology::simulate_contended`] — once on the configured
//! topology and once on its private-link twin — and reports both in
//! [`MultiGpuRun::interconnect`]. The pre-existing kernel/filter-time fields
//! never include contention, so all earlier numbers stay bit-for-bit intact.

use crate::config::{EncodingActor, FilterConfig};
use crate::gpu::{FilterRun, GateKeeperGpu};
use crate::pipeline::{ChunkPlan, BUFFER_SLOTS};
use crate::timing::InterconnectReport;
use gk_gpusim::device::DeviceSpec;
use gk_gpusim::memory::MemoryStats;
use gk_gpusim::multi::MultiGpu;
use gk_gpusim::topology::{simulate_contended, weighted_partition, ChunkLoad, Topology};
use gk_seq::pairs::SequencePair;
use serde::{Deserialize, Serialize};

/// Result of a multi-GPU filtering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiGpuRun {
    /// Per-pair decisions in input order.
    pub decisions: Vec<gk_filters::FilterDecision>,
    /// Number of devices used.
    pub devices: usize,
    /// Multi-GPU kernel time: the slowest device's summed kernel time.
    pub kernel_seconds: f64,
    /// Host-observed filter time for the whole run.
    pub filter_seconds: f64,
    /// Per-device filter runs (for detailed reporting).
    pub per_device: Vec<FilterRun>,
    /// Contended-versus-private interconnect replay of the run's chunk loads.
    /// Purely additive reporting: `kernel_seconds` and `filter_seconds` above
    /// keep the paper's free-overlap conventions regardless of topology.
    pub interconnect: InterconnectReport,
}

impl MultiGpuRun {
    /// Number of accepted pairs.
    pub fn accepted(&self) -> usize {
        self.decisions.iter().filter(|d| d.accepted).count()
    }

    /// Combined unified-memory statistics across devices.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for run in &self.per_device {
            total.bytes_to_device += run.memory_stats.bytes_to_device;
            total.bytes_to_host += run.memory_stats.bytes_to_host;
            total.page_faults += run.memory_stats.page_faults;
            total.prefetched_pages += run.memory_stats.prefetched_pages;
            total.transfer_seconds += run.memory_stats.transfer_seconds;
        }
        total
    }
}

/// One device's slice of a multi-GPU schedule: the pair ranges it filters (in
/// order) and the exact per-device configuration its pipeline runs with. The
/// naive sharder hands every device the caller's configuration verbatim; the
/// topology-aware scheduler overrides the encoding actor and chunk size per
/// device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceAssignment {
    /// Half-open `[start, end)` pair ranges fed to this device's pipeline.
    pub ranges: Vec<(usize, usize)>,
    /// The configuration this device's [`GateKeeperGpu`] is built with.
    pub config: FilterConfig,
}

impl DeviceAssignment {
    /// Pairs assigned to this device.
    pub fn pairs(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }
}

/// A complete shard plan: the interconnect topology plus one
/// [`DeviceAssignment`] per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiGpuSchedule {
    /// The interconnect the devices hang off.
    pub topology: Topology,
    /// Whether the topology-aware scheduler produced the assignments.
    pub aware: bool,
    /// Per-device work and configuration, indexed like the device list.
    pub assignments: Vec<DeviceAssignment>,
}

impl MultiGpuSchedule {
    /// Total pairs covered by every assignment.
    pub fn total_pairs(&self) -> usize {
        self.assignments.iter().map(|a| a.pairs()).sum()
    }
}

/// Modelled per-pair stage costs of one device under a candidate encoding
/// actor, from the same constants the pipeline charges. `bottleneck_seconds`
/// is the pipeline's steady-state limiter including the *shared* host (one
/// host preps/encodes for all `device_count` streams, so its per-pair cost
/// scales with the device count); `device_seconds` is the device-local limiter
/// (link transfer at the device's effective bandwidth vs. kernel), which is
/// what the weighted split balances across heterogeneous links.
fn estimated_pair_cost(
    device: &DeviceSpec,
    config: &FilterConfig,
    encoding: EncodingActor,
    effective_bw_gb_s: f64,
    device_count: usize,
) -> (f64, f64) {
    let words = config.words_per_sequence() as f64;
    let masks = (2 * config.threshold as u64 + 1) as f64;
    let host_per_pair = crate::gpu::HOST_PREP_SECONDS_PER_PAIR
        + match encoding {
            EncodingActor::Host => {
                2.0 * config.read_len as f64 / crate::gpu::HOST_ENCODE_BASES_PER_SECOND
            }
            EncodingActor::Device => 0.0,
        };
    let host_shared = host_per_pair * device_count as f64;
    let h2d_bytes = match encoding {
        EncodingActor::Host => 2.0 * words * 4.0,
        EncodingActor::Device => 2.0 * config.read_len as f64,
    };
    let h2d = h2d_bytes / (effective_bw_gb_s * 1e9);
    let encode_cycles = match encoding {
        EncodingActor::Device => gk_gpusim::encode::encode_cycles(2 * config.read_len as u64),
        EncodingActor::Host => 0,
    } as f64;
    let kernel_cycles = crate::gpu::CYCLES_BASE as f64
        + masks * words * crate::gpu::CYCLES_PER_MASK_WORD as f64
        + encode_cycles;
    let kernel = kernel_cycles / device.peak_ops_per_second();
    let device_seconds = h2d.max(kernel);
    (host_shared.max(device_seconds), device_seconds)
}

/// GateKeeper-GPU spread over several devices.
#[derive(Debug, Clone)]
pub struct MultiGpuGateKeeper {
    context: MultiGpu,
    config: FilterConfig,
}

impl MultiGpuGateKeeper {
    /// Creates a multi-GPU filter over `device_count` copies of `device`.
    pub fn new(
        device: DeviceSpec,
        device_count: usize,
        config: FilterConfig,
    ) -> MultiGpuGateKeeper {
        MultiGpuGateKeeper {
            context: MultiGpu::homogeneous(device, device_count),
            config,
        }
    }

    /// Creates a multi-GPU filter over an explicit (possibly heterogeneous)
    /// device list.
    pub fn with_devices(devices: Vec<DeviceSpec>, config: FilterConfig) -> MultiGpuGateKeeper {
        MultiGpuGateKeeper {
            context: MultiGpu::from_devices(devices),
            config,
        }
    }

    /// Number of devices in the context.
    pub fn device_count(&self) -> usize {
        self.context.device_count()
    }

    /// The devices.
    pub fn devices(&self) -> &[DeviceSpec] {
        self.context.devices()
    }

    /// The filter configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// The interconnect topology selected by [`FilterConfig::topology`], built
    /// over this context's device list.
    pub fn topology(&self) -> Topology {
        Topology::build(self.config.topology, self.context.devices())
    }

    /// The chunk-to-device assignment for `total` pairs: the single-GPU pipeline
    /// chunk plan, with the chunk size capped at `⌈total / devices⌉` so a small
    /// set still spreads across every device, sharded round-robin.
    pub fn shard_plan(&self, total: usize) -> (ChunkPlan, Vec<Vec<(usize, usize)>>) {
        let devices = self.context.device_count();
        let probe = GateKeeperGpu::new(self.context.devices()[0].clone(), self.config);
        let mut plan = probe.chunk_plan();
        if devices > 1 && total > 0 {
            plan.chunk_pairs = plan.chunk_pairs.min(total.div_ceil(devices)).max(1);
        }
        let assignment = plan.round_robin(total, devices);
        (plan, assignment)
    }

    /// The shard plan for `total` pairs on the configured topology: the naive
    /// round-robin split when [`FilterConfig::topology_aware`] is off, the
    /// weighted/encoding/chunk-tuned plan when it is on. Either way the
    /// assignments partition `0..total` exactly, so decisions never depend on
    /// the scheduler.
    pub fn schedule(&self, total: usize) -> MultiGpuSchedule {
        self.schedule_for(&self.topology(), total)
    }

    /// Like [`MultiGpuGateKeeper::schedule`], but over an explicit topology
    /// (which must describe this context's devices) instead of the one named
    /// by [`FilterConfig::topology`].
    pub fn schedule_for(&self, topology: &Topology, total: usize) -> MultiGpuSchedule {
        assert_eq!(
            topology.device_count(),
            self.context.device_count(),
            "topology must describe this context's devices"
        );
        let aware = self.config.topology_aware;
        let assignments = if aware {
            self.aware_assignments(topology, total)
        } else {
            let (_, assignment) = self.shard_plan(total);
            assignment
                .into_iter()
                .map(|ranges| DeviceAssignment {
                    ranges,
                    config: self.config,
                })
                .collect()
        };
        MultiGpuSchedule {
            topology: topology.clone(),
            aware,
            assignments,
        }
    }

    /// The topology-aware assignments: per-device encoding actor by estimated
    /// bottleneck, contiguous spans weighted by the inverse device-local cost,
    /// and chunk sizes shrunk by each link's sharer count.
    fn aware_assignments(&self, topology: &Topology, total: usize) -> Vec<DeviceAssignment> {
        let devices = self.context.devices();
        let count = devices.len();
        let mut configs = Vec::with_capacity(count);
        let mut weights = Vec::with_capacity(count);
        for (index, device) in devices.iter().enumerate() {
            let bandwidth = topology.effective_bandwidth_gb_per_s(index);
            // Start from the caller's preference so ties never flip the actor.
            let mut best = self.config.encoding;
            let mut best_cost = estimated_pair_cost(device, &self.config, best, bandwidth, count);
            for candidate in [EncodingActor::Device, EncodingActor::Host] {
                if candidate == best {
                    continue;
                }
                let cost = estimated_pair_cost(device, &self.config, candidate, bandwidth, count);
                if cost.0 < best_cost.0 {
                    best = candidate;
                    best_cost = cost;
                }
            }
            weights.push(1.0 / best_cost.1.max(1e-18));
            configs.push(self.config.with_encoding(best));
        }
        weighted_partition(total, &weights)
            .into_iter()
            .zip(configs)
            .enumerate()
            .map(|(index, ((start, end), config))| {
                let span = end - start;
                let mut plan = GateKeeperGpu::new(devices[index].clone(), config).chunk_plan();
                if span > 0 {
                    plan.chunk_pairs = plan.chunk_pairs.min(span).max(1);
                }
                let plan = plan.with_link_sharers(topology.sharers(index));
                DeviceAssignment {
                    ranges: if span > 0 {
                        vec![(start, end)]
                    } else {
                        Vec::new()
                    },
                    config: config.with_chunk_pairs(plan.chunk_pairs),
                }
            })
            .collect()
    }

    /// Filters a run of pairs across all devices on the configured topology.
    pub fn filter_set(&self, pairs: &[SequencePair]) -> MultiGpuRun {
        self.run_schedule(&self.schedule(pairs.len()), pairs)
    }

    /// Filters a run of pairs across all devices on an explicit topology.
    pub fn filter_set_on(&self, topology: &Topology, pairs: &[SequencePair]) -> MultiGpuRun {
        self.run_schedule(&self.schedule_for(topology, pairs.len()), pairs)
    }

    /// Runs a schedule: each device pipelines its share under its assigned
    /// configuration. The shares are independent, so they are processed
    /// sequentially here while the timing combines them as if they ran
    /// concurrently (which they do on real hardware).
    pub fn run_schedule(&self, schedule: &MultiGpuSchedule, pairs: &[SequencePair]) -> MultiGpuRun {
        let mut per_device = Vec::with_capacity(schedule.assignments.len());
        let mut decisions = vec![gk_filters::FilterDecision::accept(0); pairs.len()];
        for (device_spec, assignment) in self
            .context
            .devices()
            .iter()
            .zip(schedule.assignments.iter())
        {
            let gpu = GateKeeperGpu::new(device_spec.clone(), assignment.config);
            let run = gpu.filter_chunks(
                assignment
                    .ranges
                    .iter()
                    .map(|&(start, end)| &pairs[start..end]),
            );
            let mut cursor = 0usize;
            for &(start, end) in &assignment.ranges {
                decisions[start..end]
                    .copy_from_slice(&run.decisions[cursor..cursor + (end - start)]);
                cursor += end - start;
            }
            per_device.push(run);
        }

        // Kernel time: slowest device (§4.3). Filter time: the host pays preparation
        // and encoding once (they are not duplicated per device on real hardware —
        // the host fills one buffer per device from the same pass), then the devices
        // transfer and compute concurrently, so the device-side part is the slowest
        // device's pipeline time beyond those host stages (its overlapped makespan
        // when stream overlap is on, its transfer + kernel + readback sum otherwise).
        let kernel_seconds = per_device
            .iter()
            .map(|r| r.kernel_seconds())
            .fold(0.0, f64::max);
        let host_once: f64 = per_device
            .iter()
            .map(|r| r.timing.host_prep_seconds + r.timing.encode_seconds)
            .sum();
        let device_side = per_device
            .iter()
            .map(|r| {
                (r.filter_seconds() - r.timing.host_prep_seconds - r.timing.encode_seconds).max(0.0)
            })
            .fold(0.0, f64::max);
        let filter_seconds = host_once + device_side;

        // Replay the exact per-chunk loads through the contended timeline
        // (configured topology) and its private-link twin. This is additive
        // reporting: nothing above depends on it.
        let loads: Vec<Vec<ChunkLoad>> = per_device
            .iter()
            .map(|run| run.chunk_loads.clone())
            .collect();
        let interconnect = InterconnectReport {
            topology: schedule.topology.label().to_string(),
            aware: schedule.aware,
            contended: simulate_contended(&schedule.topology, &loads, BUFFER_SLOTS),
            uncontended: simulate_contended(
                &schedule.topology.to_independent(),
                &loads,
                BUFFER_SLOTS,
            ),
        };

        MultiGpuRun {
            decisions,
            devices: self.context.device_count(),
            kernel_seconds,
            filter_seconds,
            per_device,
            interconnect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncodingActor;
    use crate::timing::{pairs_per_second, TimingBreakdown};
    use gk_gpusim::topology::{LinkSpec, TopologyKind};
    use gk_seq::datasets::DatasetProfile;
    use gk_seq::pairs::PairSet;

    fn pairs(count: usize) -> PairSet {
        DatasetProfile::set3().generate(count, 321)
    }

    /// Timing breakdown accumulated across a run's devices.
    fn summed_timing(run: &MultiGpuRun) -> TimingBreakdown {
        let mut total = TimingBreakdown::default();
        for device_run in &run.per_device {
            total.accumulate(&device_run.timing);
        }
        total
    }

    fn multi(devices: usize, encoding: EncodingActor) -> MultiGpuGateKeeper {
        MultiGpuGateKeeper::new(
            DeviceSpec::gtx_1080_ti(),
            devices,
            FilterConfig::new(100, 2).with_encoding(encoding),
        )
    }

    #[test]
    fn multi_gpu_decisions_match_single_gpu() {
        let set = pairs(2_000);
        let single = multi(1, EncodingActor::Device).filter_set(&set.pairs);
        let eight = multi(8, EncodingActor::Device).filter_set(&set.pairs);
        assert_eq!(single.decisions, eight.decisions);
        assert_eq!(eight.devices, 8);
        assert_eq!(eight.per_device.len(), 8);
    }

    #[test]
    fn kernel_time_improves_with_more_devices() {
        let set = pairs(4_000);
        let one = multi(1, EncodingActor::Host).filter_set(&set.pairs);
        let four = multi(4, EncodingActor::Host).filter_set(&set.pairs);
        let eight = multi(8, EncodingActor::Host).filter_set(&set.pairs);
        assert!(four.kernel_seconds < one.kernel_seconds);
        assert!(eight.kernel_seconds < four.kernel_seconds);
    }

    #[test]
    fn filter_time_scales_sublinearly_because_of_host_costs() {
        let set = pairs(4_000);
        let one = multi(1, EncodingActor::Host).filter_set(&set.pairs);
        let eight = multi(8, EncodingActor::Host).filter_set(&set.pairs);
        let kernel_speedup = one.kernel_seconds / eight.kernel_seconds;
        let filter_speedup = one.filter_seconds / eight.filter_seconds;
        assert!(filter_speedup >= 1.0);
        assert!(
            filter_speedup < kernel_speedup,
            "filter speedup {filter_speedup} should trail kernel speedup {kernel_speedup}"
        );
    }

    #[test]
    fn scaling_points_report_increasing_kernel_throughput() {
        let set = pairs(3_000);
        let mut last = 0.0;
        for devices in [1usize, 2, 4] {
            let run = multi(devices, EncodingActor::Host).filter_set(&set.pairs);
            assert_eq!(run.devices, devices);
            let kernel_pairs_per_second = pairs_per_second(set.len(), run.kernel_seconds);
            assert!(kernel_pairs_per_second > last, "devices = {devices}");
            last = kernel_pairs_per_second;
        }
    }

    #[test]
    fn round_robin_sharding_covers_every_pair_once() {
        let filter = multi(3, EncodingActor::Device);
        let (plan, assignment) = filter.shard_plan(10_000);
        assert_eq!(assignment.len(), 3);
        let mut covered = vec![false; 10_000];
        for (start, end) in assignment.iter().flatten() {
            for flag in &mut covered[*start..*end] {
                assert!(!*flag, "pair covered twice");
                *flag = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        // The cap keeps every device busy even when the pipeline chunk is huge.
        assert!(plan.chunk_pairs <= 10_000usize.div_ceil(3));
        assert!(assignment.iter().all(|ranges| !ranges.is_empty()));
    }

    #[test]
    fn overlap_reduces_multi_gpu_filter_time_without_changing_decisions() {
        let set = pairs(4_000);
        let config = FilterConfig::new(100, 2)
            .with_encoding(EncodingActor::Host)
            .with_chunk_pairs(250);
        let serialized =
            MultiGpuGateKeeper::new(DeviceSpec::gtx_1080_ti(), 4, config).filter_set(&set.pairs);
        let overlapped =
            MultiGpuGateKeeper::new(DeviceSpec::gtx_1080_ti(), 4, config.with_overlap(true))
                .filter_set(&set.pairs);
        assert_eq!(serialized.decisions, overlapped.decisions);
        assert_eq!(serialized.kernel_seconds, overlapped.kernel_seconds);
        assert!(overlapped.filter_seconds < serialized.filter_seconds);
    }

    #[test]
    fn device_encode_shards_identically_to_host_encode() {
        // The encoding actor must be transparent to the round-robin
        // sharding: same decisions on 1 and 4 devices, in both modes, and the
        // host-paid-once accounting still holds (device mode pays no host
        // encode at all).
        let set = pairs(3_000);
        let host = multi(4, EncodingActor::Host).filter_set(&set.pairs);
        let device = multi(4, EncodingActor::Device).filter_set(&set.pairs);
        let single_device = multi(1, EncodingActor::Device).filter_set(&set.pairs);
        assert_eq!(host.decisions, device.decisions);
        assert_eq!(device.decisions, single_device.decisions);
        for run in &device.per_device {
            assert_eq!(run.timing.encode_seconds, 0.0);
            assert!(run.timing.encode_device_seconds > 0.0);
            assert!(run.pipeline.device_encode);
        }
        let host_total = summed_timing(&host);
        let device_total = summed_timing(&device);
        assert!(host_total.encode_seconds > 0.0);
        assert_eq!(device_total.encode_seconds, 0.0);
        assert!(device_total.encode_device_seconds > 0.0);
    }

    #[test]
    fn accepted_counts_are_consistent() {
        let set = pairs(1_000);
        let run = multi(3, EncodingActor::Device).filter_set(&set.pairs);
        assert_eq!(
            run.accepted(),
            run.decisions.iter().filter(|d| d.accepted).count()
        );
        let combined = run.memory_stats();
        assert!(combined.bytes_to_device > 0);
    }

    #[test]
    fn timing_accumulation_covers_all_devices() {
        let set = pairs(1_000);
        let run = multi(2, EncodingActor::Device).filter_set(&set.pairs);
        let total = summed_timing(&run);
        assert!(total.kernel_seconds >= run.kernel_seconds);
    }

    #[test]
    fn naive_runs_on_private_links_replay_without_contention() {
        let set = pairs(1_000);
        let run = multi(2, EncodingActor::Device).filter_set(&set.pairs);
        assert_eq!(run.interconnect.topology, "private");
        assert!(!run.interconnect.aware);
        // Private links are their own uncontended twin: identical makespan,
        // zero time spent waiting for a link.
        assert_eq!(
            run.interconnect.contended.makespan_seconds,
            run.interconnect.uncontended.makespan_seconds
        );
        assert_eq!(run.interconnect.link_wait_seconds(), 0.0);
        assert_eq!(run.interconnect.contention_penalty_seconds(), 0.0);
        assert!(run.interconnect.makespan_seconds() > 0.0);
    }

    #[test]
    fn shared_root_contention_shows_up_only_in_the_replay() {
        let set = pairs(4_000);
        let private = multi(4, EncodingActor::Device).filter_set(&set.pairs);
        let shared = MultiGpuGateKeeper::new(
            DeviceSpec::gtx_1080_ti(),
            4,
            FilterConfig::new(100, 2)
                .with_encoding(EncodingActor::Device)
                .with_topology(TopologyKind::SharedRoot),
        )
        .filter_set(&set.pairs);
        // The topology knob adds reporting; every pre-existing field is
        // bit-for-bit what the private-link run produced.
        assert_eq!(private.decisions, shared.decisions);
        assert_eq!(private.kernel_seconds, shared.kernel_seconds);
        assert_eq!(private.filter_seconds, shared.filter_seconds);
        for (a, b) in private.per_device.iter().zip(shared.per_device.iter()) {
            assert_eq!(a.timing, b.timing);
            assert_eq!(a.chunk_loads, b.chunk_loads);
        }
        // …but the replay sees four uploads colliding on one root complex.
        assert_eq!(shared.interconnect.topology, "shared");
        assert!(shared.interconnect.contention_penalty_seconds() > 0.0);
        assert!(shared.interconnect.contention_slowdown() > 1.0);
        assert!(shared.interconnect.link_wait_seconds() > 0.0);
    }

    #[test]
    fn aware_scheduler_beats_naive_on_a_crowded_shared_root() {
        let set = pairs(40_000);
        let base = FilterConfig::new(100, 2)
            .with_encoding(EncodingActor::Device)
            .with_topology(TopologyKind::SharedRoot);
        let naive =
            MultiGpuGateKeeper::new(DeviceSpec::gtx_1080_ti(), 8, base).filter_set(&set.pairs);
        let aware =
            MultiGpuGateKeeper::new(DeviceSpec::gtx_1080_ti(), 8, base.with_topology_aware(true))
                .filter_set(&set.pairs);
        assert_eq!(naive.decisions, aware.decisions);
        assert!(
            aware.interconnect.makespan_seconds() < naive.interconnect.makespan_seconds(),
            "aware {} should beat naive {}",
            aware.interconnect.makespan_seconds(),
            naive.interconnect.makespan_seconds()
        );
    }

    #[test]
    fn a_starved_link_flips_the_encoding_actor_to_host() {
        let filter = MultiGpuGateKeeper::new(
            DeviceSpec::gtx_1080_ti(),
            2,
            FilterConfig::new(100, 2)
                .with_encoding(EncodingActor::Device)
                .with_topology_aware(true),
        );
        let starved = Topology::custom(
            "starved",
            vec![LinkSpec {
                name: "slow".to_string(),
                bandwidth_gb_per_s: 0.05,
            }],
            vec![0, 0],
        );
        // Raw uploads are ~4x the packed words, so on a starved link the
        // scheduler packs on the host despite the extra host time.
        let schedule = filter.schedule_for(&starved, 2_000);
        for assignment in &schedule.assignments {
            assert_eq!(assignment.config.encoding, EncodingActor::Host);
        }
        // On the paper's PCIe complex the device-encode preference holds.
        for assignment in &filter.schedule(2_000).assignments {
            assert_eq!(assignment.config.encoding, EncodingActor::Device);
        }
        // The flip retunes the plan, never the decisions.
        let set = pairs(2_000);
        let flipped = filter.filter_set_on(&starved, &set.pairs);
        let baseline = filter.filter_set(&set.pairs);
        assert_eq!(flipped.decisions, baseline.decisions);
    }

    #[test]
    fn aware_schedules_partition_exactly_even_for_mixed_devices() {
        let filter = MultiGpuGateKeeper::with_devices(
            vec![
                DeviceSpec::gtx_1080_ti(),
                DeviceSpec::tesla_k20x(),
                DeviceSpec::gtx_1080_ti(),
            ],
            FilterConfig::new(100, 2)
                .with_topology(TopologyKind::SharedRoot)
                .with_topology_aware(true),
        );
        for total in [0usize, 1, 7, 997, 10_001] {
            let schedule = filter.schedule(total);
            assert_eq!(schedule.total_pairs(), total);
            let mut cursor = 0usize;
            for assignment in &schedule.assignments {
                for &(start, end) in &assignment.ranges {
                    assert_eq!(start, cursor, "total {total}");
                    assert!(end > start, "total {total}");
                    cursor = end;
                }
            }
            assert_eq!(cursor, total, "total {total}");
        }
    }

    #[test]
    fn aware_chunks_shrink_by_the_sharer_count() {
        let base = FilterConfig::new(100, 2)
            .with_encoding(EncodingActor::Device)
            .with_topology(TopologyKind::SharedRoot)
            .with_topology_aware(true);
        let filter = MultiGpuGateKeeper::new(DeviceSpec::gtx_1080_ti(), 8, base);
        let schedule = filter.schedule(40_000);
        // 5_000 pairs per device, split eight ways on the shared root.
        for assignment in &schedule.assignments {
            assert_eq!(assignment.pairs(), 5_000);
            assert_eq!(assignment.config.chunk_pairs, 625);
        }
    }
}
