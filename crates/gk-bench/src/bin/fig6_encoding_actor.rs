//! Figure 6 (and Sup. Tables S.17–S.19, Figures S.13/S.14) — effect of the encoding
//! actor (host vs device) on single-GPU filtering throughput as the error threshold
//! grows, by kernel time and by filter time.
//!
//! Both columns decide the same way and differ in the modelled actor: the
//! device rows upload raw reads and pack inside the fused encode+filter
//! kernel, the host rows pay a host encode stage before the (4× smaller)
//! transfer.
//!
//! Usage: `cargo run --release -p gk-bench --bin fig6_encoding_actor [--pairs N] [--full]`

use gk_bench::datasets::throughput_set;
use gk_bench::runner::gpu_throughput;
use gk_bench::table::{fmt, Table};
use gk_bench::{HarnessArgs, SETUP1, SETUP2};
use gk_core::config::EncodingActor;

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(40_000);

    println!("Figure 6 / Tables S.17-S.19: effect of the encoding actor on single-GPU throughput");
    println!("(millions of filtrations per second, {pairs} pairs per point)\n");

    let read_lengths: Vec<usize> = if args.full {
        vec![100, 150, 250]
    } else {
        vec![100]
    };

    for read_len in read_lengths {
        let set = throughput_set(read_len, pairs);
        let thresholds: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6];
        for setup in [SETUP1, SETUP2] {
            let mut table = Table::new(vec![
                "e",
                "Device-enc kernel",
                "Device-enc filter",
                "Host-enc kernel",
                "Host-enc filter",
            ])
            .with_title(format!("{read_len}bp — {}", setup.name));
            for &e in &thresholds {
                let device = gpu_throughput(&setup, 1, &set, e, EncodingActor::Device);
                let host = gpu_throughput(&setup, 1, &set, e, EncodingActor::Host);
                table.row(vec![
                    e.to_string(),
                    fmt(device.kernel_mps, 1),
                    fmt(device.filter_mps, 1),
                    fmt(host.kernel_mps, 1),
                    fmt(host.filter_mps, 1),
                ]);
            }
            table.print();
        }
    }

    println!("Expected shape (paper): host encoding always wins on kernel-time throughput (the gap is largest");
    println!("at small e), device encoding wins on filter-time throughput, and the filter-time curves are flat in e.");
}
