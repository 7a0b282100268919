//! `filter-stream`: the paper's Table 2 path. Set 3 pairs (100 bp, low edit)
//! go through GateKeeper at e = 5 via `GateKeeperGpu::filter_stream` with
//! device encoding, the paper's default.
//!
//! One operation is one `filter_stream` call over a stream of
//! [`OP_PAIRS`] pairs fed as two batches. The pairs of every operation are
//! generated before timing starts; each call receives a fresh copy of one of
//! [`SLOTS`] distinct pair sets, made outside the timed region.
//!
//! `GateKeeperGpu::new` takes well under a microsecond, and its time moves
//! by half between processes with the load of the host. So one short set-up
//! sample is taken after every call, beside the host probe, and `setup_s` is
//! their median over the whole run.
//!
//! A traced run traces every other call, so a change in the host's speed
//! during the run hits traced and untraced calls alike and the gap between
//! them is the cost of tracing.

use crate::host::HostProbe;
use crate::measure::{
    median, overhead, setup_sample, Fault, Metrics, Outcome, Plan, Samples, Sensitivity,
};
use crate::probe;
use crate::trace::{self, Tracer};
use gk_core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
use gk_core::config::FilterConfig;
use gk_core::gpu::GateKeeperGpu;
use gk_core::StreamFilterRun;
use gk_filters::traits::{decision_digest, FilterDecision};
use gk_gpusim::device::DeviceSpec;
use gk_seq::datasets::DatasetProfile;
use gk_seq::pairs::SequencePair;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pairs per `filter_stream` call: one kernel batch, small enough that a
/// 32-second run holds close to a thousand calls.
const OP_PAIRS: usize = 32_768;
/// Distinct pair sets the operations cycle through.
const SLOTS: usize = 8;
const READ_LEN: usize = 100;
const THRESHOLD: u32 = 5;
/// How long one sample of `GateKeeperGpu::new` repeats it.
const GPU_SETUP_SAMPLE: Duration = Duration::from_millis(1);
/// How this workload's timings follow the host probe's.
const SENSITIVITY: Sensitivity = Sensitivity {
    timing: 1.0,
    setup: 1.0,
};

/// The simulated-device figures of one call; they must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Simulated {
    kernel_s: f64,
    filter_s: f64,
    h2d_bytes: u64,
}

impl Simulated {
    fn of(run: &StreamFilterRun) -> Simulated {
        Simulated {
            kernel_s: run.kernel_seconds(),
            filter_s: run.filter_seconds(),
            h2d_bytes: run.memory_stats.bytes_to_device,
        }
    }
}

struct Slot {
    pairs: Vec<SequencePair>,
    digest: u64,
}

/// The filter both in-process workloads use: GateKeeper at e = 5 on 100 bp
/// pairs, device encoding, on the paper's GTX 1080 Ti.
pub fn gpu() -> GateKeeperGpu {
    GateKeeperGpu::new(
        DeviceSpec::gtx_1080_ti(),
        FilterConfig::new(READ_LEN, THRESHOLD).with_device_encode(true),
    )
}

/// One sample of the time [`gpu`]'s constructor takes, in seconds.
pub fn gpu_setup_sample() -> f64 {
    setup_sample(GPU_SETUP_SAMPLE, gpu, drop)
}

/// The stream one call consumes: a fresh copy of the slot, in two batches.
fn stream_of(pairs: &[SequencePair]) -> Vec<Vec<SequencePair>> {
    let (a, b) = pairs.split_at(pairs.len() / 2);
    vec![a.to_vec(), b.to_vec()]
}

/// Runs one call and returns its result, the decisions the sink received and
/// the call's wall time. Only the call itself is timed. When traced, the
/// operation (copy plus call) and the call get one span each.
fn call(
    gpu: &GateKeeperGpu,
    pairs: &[SequencePair],
    trace: Option<(&Tracer, u64)>,
) -> (StreamFilterRun, Vec<FilterDecision>, f64) {
    let op =
        trace.map(|(tracer, request)| (tracer, tracer.open("bench.op", None, request), request));
    let stream = stream_of(pairs);
    let mut decisions = Vec::with_capacity(pairs.len());
    let start_ns = op.map_or(0, |(tracer, ..)| tracer.now_ns());
    let start = Instant::now();
    let run = gpu.filter_stream_with(stream, |_, chunk| decisions.extend_from_slice(chunk));
    let wall = start.elapsed().as_secs_f64();
    if let Some((tracer, id, request)) = op {
        tracer.record(
            "gk-core.filter_stream",
            start_ns,
            tracer.now_ns(),
            Some(id),
            request,
        );
        tracer.close(id);
    }
    (run, decisions, wall)
}

/// Runs the workload.
pub fn run(plan: &Plan, seed: u64, traced: bool) -> Outcome {
    let op_pairs = plan.size(OP_PAIRS, 64);
    let slot_count = plan.size(SLOTS, 2);
    let profile = DatasetProfile::set3();
    let all = profile.generate(op_pairs * slot_count, seed).pairs;
    let reference = CpuSimdBackend::with_pool(Arc::clone(&plan.pool));
    let slots: Vec<Slot> = all
        .chunks(op_pairs)
        .map(|pairs| Slot {
            digest: decision_digest(&reference.run(&FilterJob::new(
                FilterKind::GateKeeper,
                THRESHOLD,
                pairs,
            ))),
            pairs: pairs.to_vec(),
        })
        .collect();
    drop(all);
    crate::measure::reset_peak_rss();

    let mut out = Outcome {
        inputs: format!("{slot_count} slots of {op_pairs} Set 3 pairs"),
        ..Outcome::default()
    };
    let gpu_filter = gpu();

    // Warm-up pass over every slot: fixes each slot's simulated figures and
    // the per-call counts, all of which later calls must repeat.
    let mut expected_sim = Vec::with_capacity(slots.len());
    let (mut pairs, mut rejected, mut kernel_batches) = (0usize, 0usize, 0usize);
    let mut total_sim = Simulated {
        kernel_s: 0.0,
        filter_s: 0.0,
        h2d_bytes: 0,
    };
    for (index, slot) in slots.iter().enumerate() {
        let (run, decisions, _) = call(&gpu_filter, &slot.pairs, None);
        check(&mut out, index, slot, &decisions, false);
        let sim = Simulated::of(&run);
        total_sim.kernel_s += sim.kernel_s;
        total_sim.filter_s += sim.filter_s;
        total_sim.h2d_bytes += sim.h2d_bytes;
        expected_sim.push(sim);
        pairs += run.pairs;
        rejected += run.rejected();
        kernel_batches += run.batches;
    }
    out.simulated
        .insert("gk-gpusim.sim_kernel_s", total_sim.kernel_s);
    out.simulated
        .insert("gk-gpusim.sim_filter_s", total_sim.filter_s);
    out.simulated
        .insert("gk-gpusim.h2d_bytes", total_sim.h2d_bytes as f64);

    // Returns the samples of untraced calls, then of traced ones, each with
    // the host probe and a set-up sample taken after it. Each pair set gets
    // two calls in a row; when traced, the second is traced.
    let host = HostProbe::new();
    let phase = |out: &mut Outcome, tracer: Option<&Tracer>| {
        let mut samples: [Samples; 2] = Default::default();
        crate::measure::run_for(plan.seconds, |i| {
            let slot_index = (i / 2) % slots.len();
            let slot = &slots[slot_index];
            let tracer = tracer.filter(|_| i % 2 == 1);
            let (run, mut decisions, wall) =
                call(&gpu_filter, &slot.pairs, tracer.map(|t| (t, i as u64)));
            out.attempted += 1;
            let s = &mut samples[usize::from(tracer.is_some())];
            s.latencies.push(wall);
            s.pair_rates.push(run.pairs as f64 / wall);
            s.read_rates.push(run.pairs as f64 / wall);
            if plan.fault == Fault::WrongOutput && i == 0 {
                decisions[0].accepted = !decisions[0].accepted;
            }
            check(out, i, slot, &decisions, true);
            if Simulated::of(&run) != expected_sim[slot_index] {
                out.fail(format!(
                    "call {i}: simulated figures differ from an earlier call on the same pairs"
                ));
            }
            let probe_s = host.measure();
            s.probes.push(probe_s);
            s.setup.push((gpu_setup_sample(), probe_s));
        });
        samples
    };

    if !traced {
        let [samples, _] = phase(&mut out, None);
        out.end_to_end(&samples, SENSITIVITY);
        return out;
    }

    let tracer = Tracer::new();
    let [untraced, traced_samples] = phase(&mut out, Some(&tracer));
    let spans = tracer.take();
    let (stream_s, calls) = trace::total(&spans, "gk-core.filter_stream");
    let stream_pairs = (calls * op_pairs) as f64;

    // The probes see the stream batches exactly as `filter_stream` receives them.
    let batches: Vec<&[SequencePair]> = slots
        .iter()
        .flat_map(|s| {
            let (a, b) = s.pairs.split_at(s.pairs.len() / 2);
            [a, b]
        })
        .collect();
    let mut m = Metrics::new();
    m.insert("gk-seq.raw_gather_ns_per_pair", probe::raw_gather(&batches));
    m.insert("gk-seq.soa_encode_ns_per_pair", probe::soa_encode(&batches));
    m.insert(
        "gk-filters.gatekeeper_ns_per_pair",
        probe::gatekeeper(&batches, THRESHOLD),
    );
    m.insert("gk-filters.reject_ratio", rejected as f64 / pairs as f64);
    m.insert("gk-core.stream_ns_per_pair", 1e9 * stream_s / stream_pairs);
    m.insert(
        "gk-core.batches",
        kernel_batches as f64 / slots.len() as f64,
    );
    m.extend(out.simulated.iter().map(|(k, v)| (*k, *v)));
    overhead(&mut m, &untraced, &traced_samples, SENSITIVITY);
    m.insert("bench.spans", spans.len() as f64);
    let probes = [untraced.probes, traced_samples.probes].concat();
    m.insert("bench.host_probe_us", 1e6 * median(&probes));
    out.metrics = m;
    out.spans = spans;
    out
}

/// Checks one call's decisions against the `cpu-simd` backend's digest over
/// the same pairs.
fn check(out: &mut Outcome, call: usize, slot: &Slot, decisions: &[FilterDecision], counted: bool) {
    let ok = decisions.len() == slot.pairs.len() && decision_digest(decisions) == slot.digest;
    if !ok {
        if counted {
            out.failed += 1;
        }
        out.fail(format!(
            "call {call}: decision digest {:#018x} over {} decisions differs from the cpu-simd \
             digest {:#018x} over {} pairs",
            decision_digest(decisions),
            decisions.len(),
            slot.digest,
            slot.pairs.len()
        ));
    }
}
