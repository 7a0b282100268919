//! SIMD-vs-scalar CPU throughput comparison — the acceptance harness of the
//! lane-parallel filter kernels.
//!
//! Runs the Table 2 CPU row (100 bp, e = 4) twice per pool size for **all
//! four** lane-parallel filters — GateKeeper, MAGNET, Shouji, SneakySnake —
//! once on the lane-parallel SIMD path (`SimdMode::Lanes`, blocks of pairs
//! transposed into the struct-of-arrays layout and filtered four lanes at a
//! time) and once on the scalar reference (`SimdMode::Scalar`, the per-bit /
//! per-byte historical baselines). Each filter's run **hard-asserts** that the
//! two decision streams are FNV-digest-identical and that the lane path clears
//! the 4x end-to-end speedup bar on the single-thread row, then prints a
//! Markdown comparison table between `<!-- simd-vs-scalar:begin/end -->`
//! markers so CI can lift it straight into the job summary. Every leg times
//! `CpuSimdBackend::run` on a shared pool; the pool's thread count and the
//! host's `available_parallelism` are printed as separate fields, since a
//! 12-thread pool on a 2-core host still runs on 2 cores.
//!
//! The three non-GateKeeper filters run on a quarter-size set: their scalar
//! baselines walk bases one at a time (MAGNET's differential leg runs per-bit
//! reference primitives), so a full-size scalar leg would dominate the bench's
//! wall clock without sharpening the comparison.
//!
//! Usage: `cargo run --release -p gk-bench --bin simd_speedup
//!         [--pairs N] [--full] [--help]`

use std::time::Instant;

use gk_bench::datasets::throughput_set;
use gk_bench::runner::{available_parallelism, shared_pool, speedup, ThroughputPoint};
use gk_bench::table::fmt;
use gk_bench::{HarnessArgs, SETUP1};
use gk_core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
use gk_filters::{decision_digest, SimdMode};
use gk_seq::pairs::PairSet;

struct ModeRun {
    point: ThroughputPoint,
    digest: u64,
    accepted: usize,
}

/// One leg: wall-clock `CpuSimdBackend::run` for `kind` on the shared pool of
/// `threads` workers. The backend fuses encoding into its block kernels, so
/// kernel time equals filter time.
fn measure(
    kind: FilterKind,
    set: &PairSet,
    threshold: u32,
    threads: usize,
    mode: SimdMode,
) -> ModeRun {
    let backend = CpuSimdBackend::with_pool(shared_pool(threads)).with_simd_mode(mode);
    let job = FilterJob::new(kind, threshold, &set.pairs);
    let start = Instant::now();
    let decisions = backend.run(&job);
    let seconds = start.elapsed().as_secs_f64();
    ModeRun {
        point: ThroughputPoint::new(set.len(), seconds, seconds),
        digest: decision_digest(&decisions),
        accepted: decisions.iter().filter(|d| d.accepted).count(),
    }
}

fn summary_row(
    filter: &str,
    threads: usize,
    mode: &str,
    run: &ModeRun,
    speedup_col: Option<f64>,
) -> String {
    format!(
        "| {filter} | {threads} | {mode} | `{:#018x}` | {} | {} | {} |",
        run.digest,
        fmt(run.point.filter_seconds, 4),
        fmt(run.point.filter_mps, 2),
        speedup_col
            .map(|s| format!("{}x", fmt(s, 2)))
            .unwrap_or_else(|| "baseline".to_string()),
    )
}

fn report_pair(
    name: &str,
    threads: usize,
    scalar: &ModeRun,
    lanes: &ModeRun,
    rows: &mut Vec<String>,
) -> f64 {
    assert_eq!(
        lanes.digest, scalar.digest,
        "{name}: decision streams diverged between SIMD modes on {threads} pool thread(s) — lane-kernel bug"
    );
    assert_eq!(lanes.accepted, scalar.accepted, "{name}");

    let end_to_end = speedup(scalar.point.filter_seconds, lanes.point.filter_seconds);
    println!("--- {name}, {threads} pool thread(s) ---");
    println!(
        "decisions    : byte-identical (digest {:#018x}, {} accepted)",
        lanes.digest, lanes.accepted
    );
    println!(
        "scalar       : filter {} s ({} Mpairs/s)",
        fmt(scalar.point.filter_seconds, 4),
        fmt(scalar.point.filter_mps, 2)
    );
    println!(
        "lanes        : filter {} s ({} Mpairs/s)",
        fmt(lanes.point.filter_seconds, 4),
        fmt(lanes.point.filter_mps, 2)
    );
    println!(
        "end-to-end   : {}x speedup (filter time)\n",
        fmt(end_to_end, 2)
    );
    rows.push(summary_row(name, threads, "scalar", scalar, None));
    rows.push(summary_row(name, threads, "lanes", lanes, Some(end_to_end)));
    end_to_end
}

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(if args.full { 1_000_000 } else { 200_000 });
    let threshold = 4u32;
    let read_len = 100usize;
    let set = throughput_set(read_len, pairs);
    let widened_pairs = (pairs / 4).max(1);
    let widened_set = throughput_set(read_len, widened_pairs);
    let pool_sizes = [1usize, SETUP1.cpu_cores];
    let host_threads = available_parallelism();

    println!(
        "SIMD-vs-scalar comparison across all four filters ({read_len} bp, e = {threshold}, \
         {pairs} pairs for GateKeeper, {widened_pairs} for MAGNET/Shouji/SneakySnake)"
    );
    println!("Lane path: 4-lane struct-of-arrays blocks over 64-bit words; scalar path: per-bit / per-byte reference kernels.");
    println!(
        "Pool threads: {pool_sizes:?}; host available_parallelism: {host_threads} \
         (pool threads beyond it share cores)\n"
    );

    // Throwaway warmup so neither measured mode pays first-touch costs
    // (worker spawn-up, allocator warm-up).
    for &threads in &pool_sizes {
        let _ = measure(
            FilterKind::GateKeeper,
            &set,
            threshold,
            threads,
            SimdMode::Lanes,
        );
    }

    let mut rows = Vec::new();
    // Single-thread end-to-end speedups, one per filter — each must clear 4x.
    let mut bars: Vec<(&str, f64)> = Vec::new();

    let legs = [
        (FilterKind::GateKeeper, "GateKeeper", &set),
        (FilterKind::Magnet, "MAGNET", &widened_set),
        (FilterKind::Shouji, "Shouji", &widened_set),
        (FilterKind::SneakySnake, "SneakySnake", &widened_set),
    ];
    for (kind, name, leg_set) in legs {
        for &threads in &pool_sizes {
            let scalar = measure(kind, leg_set, threshold, threads, SimdMode::Scalar);
            let lanes = measure(kind, leg_set, threshold, threads, SimdMode::Lanes);
            let end_to_end = report_pair(name, threads, &scalar, &lanes, &mut rows);
            if threads == 1 {
                bars.push((name, end_to_end));
            }
        }
    }

    for (name, single) in &bars {
        assert!(
            *single >= 4.0,
            "{name}: lane path must clear the 4x end-to-end bar over the scalar baseline \
             on the single-thread row, measured {single:.2}x"
        );
    }

    // Markdown block for the CI job summary (lifted verbatim by the workflow).
    println!("<!-- simd-vs-scalar:begin -->");
    println!(
        "### `simd_speedup` SIMD-vs-scalar comparison ({read_len} bp, e = {threshold}, \
         {pairs} pairs; widened filters on {widened_pairs}; host available_parallelism \
         {host_threads})"
    );
    println!();
    println!("| filter | pool threads | mode | decisions digest | filter s | Mpairs/s | speedup |");
    println!("|---|---|---|---|---|---|---|");
    for row in &rows {
        println!("{row}");
    }
    println!();
    let bar_summary = bars
        .iter()
        .map(|(name, s)| format!("{name} **{}x**", fmt(*s, 2)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "Decisions byte-identical across modes for every filter: **yes**; \
         single-thread end-to-end speedups (bar: 4x each): {bar_summary}."
    );
    println!("<!-- simd-vs-scalar:end -->");
}
