//! Table 2 (and Sup. Tables S.13–S.15) — filtering throughput of GateKeeper-CPU
//! (1 and 12 cores) versus GateKeeper-GPU (1 and 8 GPUs, host- and device-encoded)
//! in both setups, by kernel time and filter time, in billions of filtrations per
//! 40 minutes.
//!
//! Usage: `cargo run --release -p gk-bench --bin table2_throughput [--pairs N] [--full]`
//! (`--full` adds the 150 bp and 250 bp tables, i.e. S.14 and S.15.)

use gk_bench::datasets::throughput_set;
use gk_bench::runner::{available_parallelism, cpu_throughput_with_mode, gpu_throughput};
use gk_bench::table::{fmt, Table};
use gk_bench::{HarnessArgs, SETUP1, SETUP2};
use gk_core::config::EncodingActor;

fn main() {
    let args = HarnessArgs::parse();
    let pairs = args.pairs(60_000);

    let configurations: Vec<(usize, Vec<u32>)> = if args.full {
        vec![(100, vec![2, 5]), (150, vec![4, 10]), (250, vec![6, 10])]
    } else {
        vec![(100, vec![2, 5])]
    };

    for (read_len, thresholds) in configurations {
        println!(
            "Table 2{}: filtering throughput for {read_len}bp sequences ({pairs} pairs, scaled units)",
            if read_len == 100 { "" } else { " (supplementary)" }
        );
        println!("Throughput unit: billions of filtrations in 40 minutes (B/40min)");
        println!(
            "CPU columns: pool threads 1 and {}; host available_parallelism {}\n",
            SETUP1.cpu_cores,
            available_parallelism()
        );

        let set = throughput_set(read_len, pairs);
        for setup in [SETUP1, SETUP2] {
            let mut table = Table::new(vec![
                "Metric",
                "e",
                "CPU 1-thread",
                "CPU 12-thread",
                "Dev-enc 1-GPU",
                "Dev-enc 8-GPU",
                "Host-enc 1-GPU",
                "Host-enc 8-GPU",
            ])
            .with_title(format!("{} ({})", setup.name, setup.device().name));

            for &e in &thresholds {
                let cpu1 = cpu_throughput_with_mode(&set, e, 1, args.simd_mode());
                let cpu12 = cpu_throughput_with_mode(&set, e, setup.cpu_cores, args.simd_mode());
                let dev1 = gpu_throughput(&setup, 1, &set, e, EncodingActor::Device);
                let host1 = gpu_throughput(&setup, 1, &set, e, EncodingActor::Host);
                let (dev8, host8) = if setup.max_devices >= 8 {
                    (
                        Some(gpu_throughput(&setup, 8, &set, e, EncodingActor::Device)),
                        Some(gpu_throughput(&setup, 8, &set, e, EncodingActor::Host)),
                    )
                } else {
                    (None, None)
                };

                let na = "NA".to_string();
                table.row(vec![
                    "kt (B/40min)".into(),
                    e.to_string(),
                    fmt(cpu1.kernel_b40, 2),
                    fmt(cpu12.kernel_b40, 2),
                    fmt(dev1.kernel_b40, 1),
                    dev8.map(|p| fmt(p.kernel_b40, 1))
                        .unwrap_or_else(|| na.clone()),
                    fmt(host1.kernel_b40, 1),
                    host8
                        .map(|p| fmt(p.kernel_b40, 1))
                        .unwrap_or_else(|| na.clone()),
                ]);
                table.row(vec![
                    "ft (B/40min)".into(),
                    e.to_string(),
                    fmt(cpu1.filter_b40, 2),
                    fmt(cpu12.filter_b40, 2),
                    fmt(dev1.filter_b40, 2),
                    dev8.map(|p| fmt(p.filter_b40, 2))
                        .unwrap_or_else(|| na.clone()),
                    fmt(host1.filter_b40, 2),
                    host8
                        .map(|p| fmt(p.filter_b40, 2))
                        .unwrap_or_else(|| na.clone()),
                ]);
            }
            table.print();
        }
        println!("Expected shape (paper): GPU kernel-time throughput is 1-2 orders of magnitude above the CPU;");
        println!("host encoding wins on kernel time, device encoding wins on filter time; Setup 2 trails Setup 1.\n");
    }
}
