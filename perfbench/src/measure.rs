//! Measurement helpers shared by the workloads: quantiles, set-up sampling,
//! peak resident memory, and the metric catalogue every run reports from.

use crate::host;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pairs_per_s", "1/s"),
    ("reads_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer a
/// workload does not call reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("gk-seq.raw_gather_ns_per_pair", "ns"),
    ("gk-seq.soa_encode_ns_per_pair", "ns"),
    ("gk-seq.frame_encode_ns_per_pair", "ns"),
    ("gk-seq.frame_decode_ns_per_pair", "ns"),
    ("gk-filters.gatekeeper_ns_per_pair", "ns"),
    ("gk-filters.sneaky_snake_ns_per_pair", "ns"),
    ("gk-filters.reject_ratio", "ratio"),
    ("gk-gpusim.sim_kernel_s", "s"),
    ("gk-gpusim.sim_filter_s", "s"),
    ("gk-gpusim.h2d_bytes", "B"),
    ("gk-core.stream_ns_per_pair", "ns"),
    ("gk-core.batches", "count"),
    ("gk-core.filter_wall_s", "s"),
    ("gk-core.backend_busy_s", "s"),
    ("gk-core.backend_share", "ratio"),
    ("gk-core.backend_ns_per_pair", "ns"),
    ("gk-mapper.seed_us_per_read", "us"),
    ("gk-mapper.prep_s", "s"),
    ("gk-mapper.candidates_per_read", "count"),
    ("gk-mapper.other_s", "s"),
    ("gk-mapper.index_build_s", "s"),
    ("gk-align.verify_s", "s"),
    ("gk-align.verify_pairs", "count"),
    ("gk-align.verify_ns_per_pair", "ns"),
    ("gk-align.verify_yield", "ratio"),
    ("gk-serve.submit_us_p50", "us"),
    ("gk-serve.batches", "count"),
    ("gk-serve.segments_per_batch", "count"),
    ("gk-serve.pairs_per_batch", "count"),
    ("gk-serve.flush_size", "count"),
    ("gk-serve.flush_timer", "count"),
    ("gk-serve.flush_idle", "count"),
    ("gk-serve.rejected", "count"),
    ("bench.traced_pairs_per_s", "1/s"),
    ("bench.untraced_pairs_per_s", "1/s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans", "count"),
    ("bench.host_probe_us", "us"),
];

/// Metric name → value. Ordered so reports compare line by line.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How a workload runs: its duration, input scale and thread pool.
#[derive(Debug, Clone)]
pub struct Plan {
    /// How long the measured phase lasts (split in two when `serve-mixed`
    /// is traced).
    pub seconds: f64,
    /// Input scale: `1.0` for a real run, small for the self-test.
    pub scale: f64,
    /// Worker threads of every pool the run builds.
    pub threads: usize,
    /// The run's pool of `threads` workers; the workload runs inside it.
    pub pool: std::sync::Arc<rayon::ThreadPool>,
    /// A fault to inject (self-test only), so a broken gate shows as a
    /// failed check instead of passing vacuously.
    pub fault: Fault,
}

/// A fault the self-test injects into a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// None: a real run.
    None,
    /// Flip one output decision, or drop one mapping record, before the
    /// checks.
    WrongOutput,
    /// `serve-mixed` only: count one request as sent without sending it, as
    /// if its frame were lost, so its reply never comes and the server's
    /// accounting disagrees with the client's.
    LostRequest,
}

impl Plan {
    /// `full` scaled down by `scale`, never below `min`.
    pub fn size(&self, full: usize, min: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(min)
    }
}

/// What one workload run produced, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (stream calls, `map_reads` calls or requests).
    pub attempted: u64,
    /// Operations whose output failed its check or that errored.
    pub failed: u64,
    /// Descriptions of every failed check; empty when all passed.
    pub check_failures: Vec<String>,
    /// Measured metrics (end-to-end for untraced runs, per-layer for traced).
    pub metrics: Metrics,
    /// Model output of the simulated device, kept apart from measurements.
    pub simulated: Metrics,
    /// Spans recorded by a traced run.
    pub spans: Vec<crate::trace::Span>,
    /// Client connections the load used (0 for in-process workloads).
    pub connections: usize,
    /// The input sizes, which with the seed determine the simulated figures.
    pub inputs: String,
    /// Latency samples behind the percentiles of an untraced run.
    pub latency_samples: usize,
    /// The end-to-end metrics of an untraced run as measured, before they
    /// are scaled to the nominal host speed.
    pub measured: Metrics,
    /// Median host-probe time over the measured phase, in seconds.
    pub probe_s: f64,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, message: String) {
        self.check_failures.push(message);
    }

    /// Fills in the end-to-end metrics of an untraced phase, scaled to the
    /// nominal host speed for a workload of the given `sensitivity`, and
    /// keeps them as measured for the report.
    pub fn end_to_end(&mut self, samples: &Samples, sensitivity: Sensitivity) {
        (self.metrics, self.latency_samples) = samples.end_to_end(Some(sensitivity));
        self.measured = samples.end_to_end(None).0;
        self.probe_s = median(&samples.probes);
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 if empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One sample of how long `build` takes, in seconds: the mean over as many
/// repeats as fill `min_sample` (at least one), so microsecond constructors
/// are not lost in timer noise. `teardown` receives each built value outside
/// the timed region.
pub fn setup_sample<T>(
    min_sample: Duration,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> f64 {
    let mut elapsed = Duration::ZERO;
    let mut count = 0u32;
    while count == 0 || elapsed < min_sample {
        let start = Instant::now();
        let value = build();
        elapsed += start.elapsed();
        count += 1;
        teardown(value);
    }
    elapsed.as_secs_f64() / f64::from(count)
}

/// Resets the kernel's resident-set high-water mark (`clear_refs` 5), so the
/// peak reported later covers only what happens after the inputs exist. A
/// kernel without `clear_refs` keeps the peak of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Probe times an operation's scaling draws on: the operation's own and
/// those of its neighbours, [`PROBE_WINDOW`] in all.
const PROBE_WINDOW: usize = 9;

/// `probes` smoothed by a centred running median over [`PROBE_WINDOW`]
/// entries. The host's states last seconds, far longer than the window, so
/// the median follows them, while one probe that met a short stall no longer
/// rescales its operation alone. Unsmoothed, ten `filter-stream` runs gave
/// p90 a spread of 0.12 where the unscaled figure spread 0.07.
fn smoothed(probes: &[f64]) -> Vec<f64> {
    let half = PROBE_WINDOW / 2;
    (0..probes.len())
        .map(|i| median(&probes[i.saturating_sub(half)..(i + half + 1).min(probes.len())]))
        .collect()
}

/// How a workload's timings follow the host probe's: the exponents
/// [`host::speed`] takes, one for the measured phase and one for set-up.
/// Each was measured on the host the benchmark was written on, as the
/// logarithm of the workload's slow-down over that of the probe between the
/// host's fast and slow states.
#[derive(Debug, Clone, Copy)]
pub struct Sensitivity {
    /// Exponent for the rates and latencies of the measured phase.
    pub timing: f64,
    /// Exponent for the set-up samples.
    pub setup: f64,
}

/// Per-operation samples of a measured phase, each with the host-probe time
/// taken beside it (see [`crate::host`]).
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of each operation in seconds.
    pub latencies: Vec<f64>,
    /// Latencies grouped by round; when present, each percentile is the
    /// median over rounds of the round's percentile, and `latencies` is
    /// unused.
    pub latency_slices: Vec<Vec<f64>>,
    /// Pairs decided per second, one value per operation or round.
    pub pair_rates: Vec<f64>,
    /// Reads processed per second, one value per operation or round.
    pub read_rates: Vec<f64>,
    /// The probe time beside each operation or round, in seconds: entry `i`
    /// belongs to entry `i` of the rates and of `latencies` or
    /// `latency_slices`.
    pub probes: Vec<f64>,
    /// Set-up samples: seconds, and the probe time beside them.
    pub setup: Vec<(f64, f64)>,
}

impl Samples {
    /// The end-to-end metrics, and the number of latency samples they rest
    /// on. With a [`Sensitivity`], every timing is scaled to the nominal host
    /// speed ([`host::speed`]); without, the figures are as measured.
    pub fn end_to_end(&self, sensitivity: Option<Sensitivity>) -> (Metrics, usize) {
        let speed = |probe_s: f64, pick: fn(Sensitivity) -> f64| {
            sensitivity.map_or(1.0, |s| host::speed(probe_s, pick(s)))
        };
        let speeds: Vec<f64> = smoothed(&self.probes)
            .into_iter()
            .map(|p| speed(p, |s| s.timing))
            .collect();
        let at_nominal =
            |rates: &[f64]| -> Vec<f64> { rates.iter().zip(&speeds).map(|(r, s)| r / s).collect() };
        let setup_probes: Vec<f64> = self.setup.iter().map(|&(_, p)| p).collect();
        let setup: Vec<f64> = self
            .setup
            .iter()
            .zip(smoothed(&setup_probes))
            .map(|(&(t, _), p)| t * speed(p, |s| s.setup))
            .collect();
        let mut m = Metrics::new();
        m.insert("setup_s", median(&setup));
        m.insert("pairs_per_s", median(&at_nominal(&self.pair_rates)));
        m.insert("reads_per_s", median(&at_nominal(&self.read_rates)));
        let percentile = |q: f64| {
            if self.latency_slices.is_empty() {
                let scaled: Vec<f64> = self
                    .latencies
                    .iter()
                    .zip(&speeds)
                    .map(|(l, s)| l * s)
                    .collect();
                return quantile(&scaled, q);
            }
            let per_slice: Vec<f64> = self
                .latency_slices
                .iter()
                .zip(&speeds)
                .map(|(l, s)| quantile(l, q) * s)
                .collect();
            median(&per_slice)
        };
        m.insert("p50_ms", 1e3 * percentile(0.5));
        m.insert("p90_ms", 1e3 * percentile(0.9));
        m.insert("peak_rss_mb", peak_rss_mb());
        let samples =
            self.latencies.len() + self.latency_slices.iter().map(Vec::len).sum::<usize>();
        (m, samples)
    }
}

/// Loops `op` until `seconds` of wall time have passed (at least once).
/// `op` receives the iteration index.
pub fn run_for(seconds: f64, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// Records the median pair rates of untraced and traced operations, scaled to
/// the nominal host speed, and the tracing overhead between them as a
/// percentage of the untraced rate.
pub fn overhead(m: &mut Metrics, untraced: &Samples, traced: &Samples, sensitivity: Sensitivity) {
    let rate = |samples: &Samples| samples.end_to_end(Some(sensitivity)).0["pairs_per_s"];
    let (untraced, traced) = (rate(untraced), rate(traced));
    m.insert("bench.untraced_pairs_per_s", untraced);
    m.insert("bench.traced_pairs_per_s", traced);
    m.insert(
        "bench.trace_overhead_pct",
        100.0 * (untraced - traced) / untraced,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_takes_the_median_of_neighbours() {
        let probes = [1.0, 1.0, 9.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        let smooth = smoothed(&probes);
        assert_eq!(smooth[2], 1.0);
        assert_eq!(smooth[10], 2.0);
        assert_eq!(smooth.len(), probes.len());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
