//! Criterion bench: work-stealing pool scaling on the host-side hot paths.
//!
//! With the real parallel backend in `shims/rayon`, the CPU GateKeeper
//! baseline and host 2-bit encoding should scale with the thread count; this
//! bench sweeps 1/2/4/8 threads over the same batch so the speedup (and the
//! honesty of the GPU-vs-CPU comparisons in Tables 2/4/5) is directly
//! observable. The 1-thread row is the sequential fallback.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gk_bench::runner::shared_pool;
use gk_core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
use gk_seq::datasets::DatasetProfile;
use gk_seq::pairs::encode_pair_batch;
use std::hint::black_box;

fn bench_pool_scaling(c: &mut Criterion) {
    let pairs = DatasetProfile::set3().generate(8_192, 42);
    let mut group = c.benchmark_group("parallel_pool");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pairs.len() as u64));

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("gatekeeper_cpu", format!("{threads}t")),
            &threads,
            |b, &threads| {
                // Reuse the process-wide pool for this thread count: the bench
                // measures filtering, not worker spawn-up (and repeated
                // Criterion samples must not leak one pool per iteration).
                let backend = CpuSimdBackend::with_pool(shared_pool(threads));
                let job = FilterJob::new(FilterKind::GateKeeper, 4, &pairs.pairs);
                b.iter(|| black_box(&backend).run(black_box(&job)).len())
            },
        );
    }

    group.bench_function("encode_pair_batch/pool", |b| {
        b.iter(|| encode_pair_batch(black_box(&pairs.pairs)).len())
    });
    group.finish();
}

criterion_group!(benches, bench_pool_scaling);
criterion_main!(benches);
