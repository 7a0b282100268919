//! The repository's benchmark: offline filtering, read mapping and the
//! filter service, each with its output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <filter-stream|map-reads|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. An untraced
//! run (`--trace 0`) reports the end-to-end metrics; a traced run reports
//! the per-layer metrics, from spans the benchmark records around its calls
//! into each layer, with the tracing overhead measured against the untraced
//! calls (or, on `serve-mixed`, an untraced phase) of the same run. A full
//! report (provenance, simulated-device figures, failed checks) goes to
//! `perfbench/out/`, with the spans of a traced run beside it. The exit code
//! is 0 only when every check passed.
//! The process runs on one CPU with one malloc arena, and scales every
//! end-to-end timing to a nominal host speed with a probe timed beside the
//! operations ([`host`]). `perfbench/README.md` describes the workloads and
//! what each metric should move.

mod filter_stream;
mod host;
mod map_reads;
mod measure;
mod probe;
mod serve_mixed;
mod trace;

use measure::{Fault, Metrics, Outcome, Plan, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["filter-stream", "map-reads", "serve-mixed"];

/// Where reports, spans and simulated-figure records are written, relative
/// to the directory the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = argv.iter().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload inside the plan's pool.
pub fn run_workload(name: &str, plan: &Plan, seed: u64, traced: bool) -> Outcome {
    plan.pool.install(|| match name {
        "filter-stream" => filter_stream::run(plan, seed, traced),
        "map-reads" => map_reads::run(plan, seed, traced),
        "serve-mixed" => serve_mixed::run(plan, seed, traced),
        other => panic!("unknown workload {other}"),
    })
}

/// Builds the plan for a run: one pool of `threads` workers.
pub fn plan(seconds: f64, scale: f64, threads: usize, fault: Fault) -> Plan {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build the benchmark's thread pool");
    Plan {
        seconds,
        scale,
        threads,
        pool: Arc::new(pool),
        fault,
    }
}

/// CPU sets as `sched_setaffinity` takes them: 1024 bits, as glibc's
/// `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins the process to the CPU it is running on, before it starts any
/// thread, so every thread it starts later inherits that one CPU. Returns
/// the CPU, or `None` when the platform refuses.
///
/// On a small shared host, work spread over two CPUs waits on wake-ups
/// across CPUs whose cost follows the load of other tenants: unpinned,
/// `serve-mixed` ran 0.72 to 1.05 Mpairs/s in four runs where pinned runs
/// gave 0.58 to 0.67. On one CPU the threads hand work over by context
/// switch, a cost of the program's own.
fn pin_to_one_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the CPU
    // number of the calling thread.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask: CpuSet = [0; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised `cpu_set_t`-sized buffer whose
    // size is passed alongside it; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    (status == 0).then_some(cpu)
}

/// glibc's `M_ARENA_MAX` parameter of `mallopt`.
const M_ARENA_MAX: i32 = -8;

/// Gives every thread the one malloc arena, before any thread exists.
///
/// With an arena per thread, how much memory each arena kept depended on how
/// the threads' allocations interleaved: `serve-mixed`'s peak resident set
/// read 18.2 MB in every run on a slow host and 20.4 MB on a fast one, 12%
/// apart, against a bound of 10%. One arena costs nothing on one CPU, where
/// the arenas' only gain, less lock contention between CPUs, cannot arise.
fn one_malloc_arena() {
    // SAFETY: `mallopt` only sets an allocator parameter, and no other
    // thread exists yet to race with it.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Fills in the metric list the run mode reports (layers a workload does not
/// call read 0), flags non-finite values, and renders the result line.
/// Returns the line and whether every check passed.
pub fn result_line(outcome: &mut Outcome, traced: bool) -> (String, bool) {
    let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut line = String::from("{\"correct\": ");
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => {
                outcome.fail(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            outcome.fail(format!("metric {name} is not finite"));
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    if outcome.attempted == 0 {
        outcome.fail("no operation was attempted".into());
    }
    let correct = outcome.check_failures.is_empty();
    let _ = write!(
        line,
        "{correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    (line, correct)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {}",
                json_string(k),
                if v.is_finite() { *v } else { 0.0 }
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The commit of the checkout, read from `.git` when the benchmark runs in a
/// git work tree; `unknown` otherwise.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Compares the run's simulated figures with the record an earlier run of
/// the same workload, seed and input sizes left, or leaves the first record.
fn check_simulated(outcome: &mut Outcome, workload: &str, seed: u64) {
    let path = PathBuf::from(OUT_DIR).join(format!("simulated-{workload}-seed{seed}.txt"));
    let header = format!("# inputs: {}\n", outcome.inputs);
    let mut record = header.clone();
    for (name, value) in &outcome.simulated {
        let _ = writeln!(record, "{name} {:#018x}", value.to_bits());
    }
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.starts_with(&header) && earlier != record => outcome.fail(format!(
            "simulated figures differ from an earlier run with seed {seed} (see {})",
            path.display()
        )),
        Ok(earlier) if earlier == record => {}
        _ => {
            if let Err(err) = std::fs::write(&path, record) {
                eprintln!("perfbench: cannot record simulated figures: {err}");
            }
        }
    }
}

fn write_report(
    args: &Args,
    argv: &[String],
    plan: &Plan,
    host: (usize, Option<usize>),
    outcome: &Outcome,
) {
    let (cores, pinned_cpu) = host;
    let pinned_cpu = pinned_cpu.map_or("null".to_string(), |cpu| cpu.to_string());
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let argv_json: Vec<String> = argv.iter().map(|a| json_string(a)).collect();
    let failures: Vec<String> = outcome
        .check_failures
        .iter()
        .map(|f| json_string(f))
        .collect();
    let report = format!(
        "{{\n  \"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"inputs\": {}, \"cores\": {cores}, \"pinned_cpu\": {pinned_cpu}, \"pool_threads\": {}, \"connections\": {}, \
         \"commit\": {}, \"argv\": [{}]}},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"failed_checks\": [{}],\n  \"latency_samples\": {},\n  \"spans\": {},\n  \
         \"host_probe_s\": {},\n  \"nominal_probe_s\": {},\n  \"reported\": {},\n  \
         \"as_measured\": {},\n  \"simulated\": {}\n}}\n",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&outcome.inputs),
        plan.threads,
        outcome.connections,
        json_string(&commit()),
        argv_json.join(", "),
        outcome.attempted,
        outcome.failed,
        failures.join(", "),
        outcome.latency_samples,
        outcome.spans.len(),
        outcome.probe_s,
        host::NOMINAL_PROBE_S,
        json_metrics(&outcome.metrics),
        json_metrics(&outcome.measured),
        json_metrics(&outcome.simulated),
    );
    let dir = Path::new(OUT_DIR);
    let write = |name: String, text: &str| {
        if let Err(err) = std::fs::write(dir.join(&name), text) {
            eprintln!("perfbench: cannot write {name}: {err}");
        }
    };
    write(format!("{stem}.json"), &report);
    if args.trace {
        write(
            format!("{stem}.spans.jsonl"),
            &trace::to_json_lines(&outcome.spans),
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned_cpu = pin_to_one_cpu();
    one_malloc_arena();
    let plan = plan(args.seconds, 1.0, 1, Fault::None);
    let mut outcome = run_workload(&args.workload, &plan, args.seed, args.trace);
    if let Err(err) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {err}");
    }
    check_simulated(&mut outcome, &args.workload, args.seed);
    let (line, correct) = result_line(&mut outcome, args.trace);
    write_report(&args, &argv, &plan, (cores, pinned_cpu), &outcome);
    for failure in &outcome.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod selftest;
