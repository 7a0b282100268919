//! `map-reads`: the paper's Table 5 path. 100 bp Illumina-profile reads are
//! mapped at e = 5 against a repeat-rich synthetic chromosome built from the
//! seed, through `ReadMapper::map_reads` with `PreFilter::Gpu` (device
//! encode).
//!
//! One operation is one `map_reads` call over [`OP_READS`] reads; the calls
//! cycle through [`SLOTS`] distinct read sets generated before timing. Each
//! call's records must equal a `PreFilter::None` mapping of the same reads,
//! which is the paper's zero-false-reject property. A traced run traces
//! every other call, as `filter-stream` does.

use crate::filter_stream::{gpu, gpu_setup_sample};
use crate::host::HostProbe;
use crate::measure::{median, overhead, Fault, Metrics, Outcome, Plan, Samples, Sensitivity};
use crate::trace::Tracer;
use gk_mapper::pipeline::{MapperConfig, MappingOutcome, PreFilter, ReadMapper};
use gk_mapper::record::MappingRecord;
use gk_mapper::seeding::candidates_for_read;
use gk_mapper::KmerIndex;
use gk_seq::fastq::FastqRecord;
use gk_seq::reference::{Reference, ReferenceBuilder};
use gk_seq::simulate::{ErrorProfile, ReadSimulator};
use std::hint::black_box;
use std::time::Instant;

/// Length of the synthetic chromosome in bases.
const GENOME: usize = 4_000_000;
/// Reads per `map_reads` call.
const OP_READS: usize = 1_000;
/// Distinct read sets the calls cycle through.
const SLOTS: usize = 16;
const READ_LEN: usize = 100;
const THRESHOLD: u32 = 5;
/// Times `ReadMapper::new` is measured; the median is reported.
const SETUP_REPS: usize = 9;
/// How this workload's timings follow the host probe's.
const SENSITIVITY: Sensitivity = Sensitivity {
    timing: 0.8,
    setup: 0.35,
};

struct Slot {
    reads: Vec<FastqRecord>,
    expected: Vec<MappingRecord>,
}

fn reference(length: usize, seed: u64) -> Reference {
    ReferenceBuilder::new(length)
        .seed(seed)
        .name("chrSim")
        .repeat_fraction(0.4)
        .repeat_family_copies(16)
        .repeat_divergence(0.10)
        .n_gaps(2, length / 500)
        .build()
}

/// Builds the mapper [`SETUP_REPS`] times and keeps the last one; returns it
/// with the set-up samples: each build plus one sample of
/// `GateKeeperGpu::new`, with the host probe taken after them. Each build
/// gets its own copy of the reference, made outside the timed region after
/// the previous mapper is dropped, so only one index is alive at a time, as
/// in the program.
fn build_mapper(
    reference: Reference,
    config: MapperConfig,
    host: &HostProbe,
) -> (ReadMapper, Vec<(f64, f64)>) {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut input = reference;
    loop {
        let start = Instant::now();
        let mapper = ReadMapper::new(input, config);
        let build_s = start.elapsed().as_secs_f64();
        setup.push((build_s + gpu_setup_sample(), host.measure()));
        if setup.len() == SETUP_REPS {
            return (mapper, setup);
        }
        input = mapper.reference().clone();
    }
}

/// Runs the workload.
pub fn run(plan: &Plan, seed: u64, traced: bool) -> Outcome {
    let genome = plan.size(GENOME, 100_000);
    let op_reads = plan.size(OP_READS, 50);
    let slot_count = plan.size(SLOTS, 2);
    let reference = reference(genome, seed);
    let reads: Vec<FastqRecord> = ReadSimulator::new(READ_LEN, ErrorProfile::illumina())
        .seed(seed ^ 0x6D61_7073)
        .simulate(&reference, op_reads * slot_count)
        .iter()
        .map(|r| r.to_fastq())
        .collect();
    let config = MapperConfig::new(THRESHOLD);
    crate::measure::reset_peak_rss();

    let mut out = Outcome {
        inputs: format!("{genome} bp chromosome, {slot_count} slots of {op_reads} reads"),
        ..Outcome::default()
    };
    let host = HostProbe::new();
    let (mapper, setup) = build_mapper(reference, config, &host);
    let filter = PreFilter::Gpu(gpu());

    let slots: Vec<Slot> = reads
        .chunks(op_reads)
        .map(|chunk| Slot {
            expected: mapper.map_reads(chunk, &PreFilter::None).records,
            reads: chunk.to_vec(),
        })
        .collect();

    // Warm-up pass: fixes each slot's counts and simulated figures, which
    // every later call on the slot must repeat.
    let mut expected_sim = Vec::with_capacity(slots.len());
    let (mut candidates, mut verified, mut rejected, mut mappings) = (0u64, 0u64, 0u64, 0u64);
    let (mut sim_kernel_s, mut sim_filter_s) = (0.0, 0.0);
    for (index, slot) in slots.iter().enumerate() {
        let outcome = mapper.map_reads(&slot.reads, &filter);
        check(&mut out, index, slot, &outcome.records, false);
        let s = outcome.stats;
        candidates += s.candidate_pairs;
        verified += s.verification_pairs;
        rejected += s.rejected_pairs;
        mappings += s.mappings;
        sim_kernel_s += s.filter_kernel_seconds;
        sim_filter_s += s.filter_seconds;
        expected_sim.push((s.filter_kernel_seconds, s.filter_seconds));
    }
    out.simulated.insert("gk-gpusim.sim_kernel_s", sim_kernel_s);
    out.simulated.insert("gk-gpusim.sim_filter_s", sim_filter_s);

    // A phase returns the samples of untraced calls, then of traced ones,
    // and the per-call means of the stage seconds (prep, filter wall, verify,
    // and other: total minus the three) and the verified pairs. Each read set
    // gets two calls in a row; when traced, the second is traced.
    let phase = |out: &mut Outcome, tracer: Option<&Tracer>| {
        let mut samples: [Samples; 2] = Default::default();
        samples[0].setup.clone_from(&setup);
        let mut stages = [0.0f64; 4];
        let mut stage_pairs = 0u64;
        let mut calls = 0usize;
        crate::measure::run_for(plan.seconds, |i| {
            let slot_index = (i / 2) % slots.len();
            let slot = &slots[slot_index];
            let timed = || {
                let start = Instant::now();
                let outcome: MappingOutcome = mapper.map_reads(&slot.reads, &filter);
                (outcome, start.elapsed().as_secs_f64())
            };
            let tracer = tracer.filter(|_| i % 2 == 1);
            let (mut outcome, wall) = match tracer {
                None => timed(),
                Some(tracer) => {
                    let op = tracer.open("bench.op", None, i as u64);
                    let result = tracer.span("gk-mapper.map_reads", Some(op), i as u64, timed);
                    tracer.close(op);
                    result
                }
            };
            out.attempted += 1;
            calls += 1;
            let s = outcome.stats;
            let sample = &mut samples[usize::from(tracer.is_some())];
            sample.latencies.push(wall);
            sample.pair_rates.push(s.candidate_pairs as f64 / wall);
            sample.read_rates.push(s.reads as f64 / wall);
            sample.probes.push(host.measure());
            stages[0] += s.preprocessing_seconds;
            stages[1] += s.filter_wall_seconds;
            stages[2] += s.verification_seconds;
            stages[3] += (s.total_seconds
                - s.preprocessing_seconds
                - s.filter_wall_seconds
                - s.verification_seconds)
                .max(0.0);
            stage_pairs += s.verification_pairs;
            if plan.fault == Fault::WrongOutput && i == 0 {
                outcome.records.pop();
            }
            check(out, i, slot, &outcome.records, true);
            if (s.filter_kernel_seconds, s.filter_seconds) != expected_sim[slot_index] {
                out.fail(format!(
                    "call {i}: simulated figures differ from an earlier call on the same reads"
                ));
            }
        });
        let per_call = stages.map(|total| total / calls as f64);
        (samples, per_call, stage_pairs as f64 / calls as f64)
    };

    if !traced {
        let ([samples, _], ..) = phase(&mut out, None);
        out.end_to_end(&samples, SENSITIVITY);
        return out;
    }

    let tracer = Tracer::new();
    let ([untraced, traced_samples], stages, pairs_per_call) = phase(&mut out, Some(&tracer));
    let spans = tracer.take();

    let mut m = Metrics::new();
    m.insert(
        "gk-filters.reject_ratio",
        rejected as f64 / candidates as f64,
    );
    m.insert("gk-core.filter_wall_s", stages[1]);
    m.insert(
        "gk-mapper.seed_us_per_read",
        seed_us_per_read(mapper.reference(), &slots, &config),
    );
    m.insert("gk-mapper.prep_s", stages[0]);
    m.insert("gk-mapper.other_s", stages[3]);
    m.insert(
        "gk-mapper.candidates_per_read",
        candidates as f64 / (slots.len() * op_reads) as f64,
    );
    let builds: Vec<f64> = setup.iter().map(|&(seconds, _)| seconds).collect();
    m.insert("gk-mapper.index_build_s", median(&builds));
    m.insert("gk-align.verify_s", stages[2]);
    m.insert("gk-align.verify_pairs", verified as f64);
    m.insert(
        "gk-align.verify_ns_per_pair",
        1e9 * stages[2] / pairs_per_call,
    );
    m.insert("gk-align.verify_yield", mappings as f64 / verified as f64);
    m.extend(out.simulated.iter().map(|(k, v)| (*k, *v)));
    overhead(&mut m, &untraced, &traced_samples, SENSITIVITY);
    m.insert("bench.spans", spans.len() as f64);
    let probes = [untraced.probes, traced_samples.probes].concat();
    m.insert("bench.host_probe_us", 1e6 * median(&probes));
    out.metrics = m;
    out.spans = spans;
    out
}

/// `candidates_for_read` per read over the slots' reads, against an index
/// built here (the mapper keeps its own private). Median of five passes.
fn seed_us_per_read(reference: &Reference, slots: &[Slot], config: &MapperConfig) -> f64 {
    let index = KmerIndex::build(reference);
    let reads: Vec<&FastqRecord> = slots.iter().flat_map(|s| &s.reads).take(4_000).collect();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for read in &reads {
                black_box(candidates_for_read(
                    black_box(&read.sequence),
                    &index,
                    &config.seeding,
                ));
            }
            start.elapsed().as_secs_f64() * 1e6 / reads.len() as f64
        })
        .collect();
    median(&passes)
}

/// Checks one call's records against the unfiltered mapping of its reads.
fn check(out: &mut Outcome, call: usize, slot: &Slot, records: &[MappingRecord], counted: bool) {
    if records != slot.expected.as_slice() {
        if counted {
            out.failed += 1;
        }
        out.fail(format!(
            "call {call}: {} mapping records differ from the {} of the unfiltered mapping",
            records.len(),
            slot.expected.len()
        ));
    }
}
