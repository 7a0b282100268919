//! Layer probes of traced runs: the benchmark calls one layer's public
//! function directly on the workload's own inputs and times it, for the
//! layers the workloads reach only from inside the program (gather, lane
//! encode, frame codec, filter kernels).
//!
//! Every probe runs [`REPS`] passes over at most [`PROBE_PAIRS`] pairs on the
//! calling thread and reports the median pass in nanoseconds per pair.

use crate::measure::median;
use gk_filters::gatekeeper::GateKeeperConfig;
use gk_filters::simd::SimdMode;
use gk_filters::{gatekeeper_filter_block, sneaky_snake_filter_block};
use gk_seq::frame::{read_frame, write_frame, Frame};
use gk_seq::pairs::{SequencePair, SoaGroup};
use gk_seq::raw::RawPairBatch;
use std::hint::black_box;
use std::time::Instant;

/// Passes per probe; the median pass is reported.
const REPS: usize = 5;
/// Most pairs one pass covers.
const PROBE_PAIRS: usize = 32_768;
/// Pairs per kernel block, as the `cpu-simd` backend cuts them.
const BLOCK_PAIRS: usize = 256;

/// Median over [`REPS`] passes of `pass()`'s seconds per pair, in ns.
fn ns_per_pair(pairs: usize, mut pass: impl FnMut()) -> f64 {
    if pairs == 0 {
        return 0.0;
    }
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64() * 1e9 / pairs as f64
        })
        .collect();
    median(&samples)
}

/// `batches` cut to at most [`PROBE_PAIRS`] pairs in total.
fn limit<'a>(batches: &[&'a [SequencePair]]) -> Vec<&'a [SequencePair]> {
    let mut left = PROBE_PAIRS;
    let mut out = Vec::new();
    for batch in batches {
        if left == 0 {
            break;
        }
        let take = batch.len().min(left);
        out.push(&batch[..take]);
        left -= take;
    }
    out
}

fn count(batches: &[&[SequencePair]]) -> usize {
    batches.iter().map(|b| b.len()).sum()
}

/// `RawPairBatch::from_pairs` over each batch (the device-encode gather).
pub fn raw_gather(batches: &[&[SequencePair]]) -> f64 {
    let batches = limit(batches);
    ns_per_pair(count(&batches), || {
        for batch in &batches {
            black_box(RawPairBatch::from_pairs(black_box(batch)));
        }
    })
}

/// `SoaGroup::encode_slices_into` over 4-pair groups, one reused group.
pub fn soa_encode(batches: &[&[SequencePair]]) -> f64 {
    let batches = limit(batches);
    let groups: Vec<Vec<(&[u8], &[u8])>> = batches
        .iter()
        .flat_map(|b| b.chunks(4))
        .map(|g| {
            g.iter()
                .map(|p| (p.read.as_slice(), p.reference.as_slice()))
                .collect()
        })
        .collect();
    let mut group = SoaGroup::scratch();
    ns_per_pair(count(&batches), || {
        for g in &groups {
            black_box(group.encode_slices_into(black_box(g)));
        }
    })
}

/// `gatekeeper_filter_block` on 256-pair blocks, lanes mode, one thread.
pub fn gatekeeper(batches: &[&[SequencePair]], threshold: u32) -> f64 {
    let batches = limit(batches);
    let config = GateKeeperConfig::gpu(threshold);
    ns_per_pair(count(&batches), || {
        for block in batches.iter().flat_map(|b| b.chunks(BLOCK_PAIRS)) {
            black_box(gatekeeper_filter_block(
                black_box(block),
                &config,
                SimdMode::Lanes,
            ));
        }
    })
}

/// `sneaky_snake_filter_block` on 256-pair blocks, lanes mode, one thread.
pub fn sneaky_snake(batches: &[&[SequencePair]], threshold: u32) -> f64 {
    let batches = limit(batches);
    ns_per_pair(count(&batches), || {
        for block in batches.iter().flat_map(|b| b.chunks(BLOCK_PAIRS)) {
            black_box(sneaky_snake_filter_block(
                black_box(block),
                threshold,
                SimdMode::Lanes,
            ));
        }
    })
}

/// `write_frame` then `read_frame` of every frame through an in-memory
/// buffer: `(encode, decode)` in ns per pair the frames carry.
pub fn frame_codec(frames: &[Frame], pairs: usize) -> (f64, f64) {
    let mut buffer = Vec::with_capacity(1 << 20);
    let encode = ns_per_pair(pairs, || {
        for frame in frames {
            buffer.clear();
            write_frame(&mut buffer, black_box(frame)).expect("writing to a Vec cannot fail");
            black_box(&buffer);
        }
    });
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|frame| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, frame).expect("writing to a Vec cannot fail");
            bytes
        })
        .collect();
    let decode = ns_per_pair(pairs, || {
        for bytes in &encoded {
            let frame = read_frame(&mut black_box(bytes.as_slice())).expect("frame decodes");
            black_box(frame);
        }
    });
    (encode, decode)
}
