//! Figure S.12 (and Sup. Table S.16) — effect of an increasing error threshold on
//! the *filter time* of 12-core GateKeeper-CPU versus single-GPU GateKeeper-GPU
//! (250 bp pairs): the CPU's filter time grows almost linearly with `e`, the GPU's
//! stays flat.
//!
//! Usage: `cargo run --release -p gk-bench --bin figS12_error_threshold [--pairs N]`

use gk_bench::datasets::throughput_set;
use gk_bench::runner::{available_parallelism, cpu_throughput_with_mode, gpu_throughput};
use gk_bench::table::{fmt, Table};
use gk_bench::{HarnessArgs, SETUP1, SETUP2};
use gk_core::config::EncodingActor;

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(20_000);
    let set = throughput_set(250, pairs);

    println!("Figure S.12 / Table S.16: effect of the error threshold on filter time (250bp, {pairs} pairs)");
    println!("Times in seconds; the paper's absolute values are for 30M pairs, so only the growth trend is comparable.");
    println!(
        "CPU column: pool threads {}; host available_parallelism {}\n",
        SETUP1.cpu_cores,
        available_parallelism()
    );

    let mut table = Table::new(vec![
        "e",
        "12-thread CPU (s)",
        "Setup1 device-enc GPU (s)",
        "Setup1 host-enc GPU (s)",
        "Setup2 device-enc GPU (s)",
    ]);

    for e in [0u32, 1, 2, 4, 6, 8, 10] {
        let cpu = cpu_throughput_with_mode(&set, e, SETUP1.cpu_cores, args.simd_mode());
        let s1_dev = gpu_throughput(&SETUP1, 1, &set, e, EncodingActor::Device);
        let s1_host = gpu_throughput(&SETUP1, 1, &set, e, EncodingActor::Host);
        let s2_dev = gpu_throughput(&SETUP2, 1, &set, e, EncodingActor::Device);
        table.row(vec![
            e.to_string(),
            fmt(cpu.filter_seconds, 3),
            fmt(s1_dev.filter_seconds, 3),
            fmt(s1_host.filter_seconds, 3),
            fmt(s2_dev.filter_seconds, 3),
        ]);
    }

    table.print();
    println!("Expected shape (paper): the CPU column grows roughly linearly with e (~7x from e=0 to e=10),");
    println!("while every GPU column stays essentially flat.");
}
