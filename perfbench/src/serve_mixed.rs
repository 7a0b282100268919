//! `serve-mixed`: `gk-serve` over localhost TCP with the `cpu-simd` backend.
//!
//! A closed loop: one generator thread keeps [`WINDOW`] requests of
//! [`REQ_PAIRS`] pairs in flight across two pipelined connections, one tenant
//! each, and consumes replies in submission order, as a mapper thread waiting
//! for its batches would. Three of every four requests are GateKeeper on
//! Set 3 (100 bp, e = 5); the fourth is SneakySnake on Set 7 (150 bp, e = 7),
//! so two coalescing keys and two kernels share the run.
//!
//! The measured phase is a run of rounds. A round keeps the window full for
//! [`SLICE`], then stops sending and waits for every reply, so the service
//! is idle when the host probe is timed after it (see [`crate::host`]). A
//! round's throughput is the pairs it got answered over its wall time.
//! Throughput, p50 and p90 are each the median over rounds of the round's
//! figure, so a burst of load from outside the benchmark moves a few rounds,
//! not the result. Latency runs from just before `submit` to the reply.
//!
//! Every request must get its reply by [`REPLY_SLACK`] after its round ends;
//! one that does not is lost and fails the run. After each phase the client's
//! counts are compared with the server's own (`GkServer::stats()`).

use crate::host::HostProbe;
use crate::measure::{
    median, overhead, setup_sample, Fault, Metrics, Outcome, Plan, Samples, Sensitivity,
};
use crate::probe;
use crate::trace::{self, Tracer};
use gk_core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
use gk_filters::traits::{decision_digest, FilterDecision};
use gk_seq::datasets::DatasetProfile;
use gk_seq::frame::{decision_word, Frame, RequestFrame, ResponseFrame, ResponseStatus};
use gk_seq::pairs::SequencePair;
use gk_serve::batcher::{BatcherConfig, BatcherStats};
use gk_serve::client::{GkClient, PendingReply, Reply};
use gk_serve::server::GkServer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pairs per request.
const REQ_PAIRS: usize = 256;
/// Requests in flight.
const WINDOW: usize = 16;
/// Client connections, one tenant each.
const CONNECTIONS: usize = 2;
/// Distinct requests the generator cycles through.
const POOL: usize = 64;
/// How long a round keeps the window full.
const SLICE: Duration = Duration::from_millis(500);
/// Longest a request may wait in the batcher for coalescing partners.
const DEADLINE: Duration = Duration::from_millis(2);
/// Requests sent, checked and discarded before a phase measures.
const WARMUP_REQUESTS: usize = 64;
/// Set-up samples taken before, and again after, the measured phase.
const SETUP_REPS: usize = 101;
/// How long one set-up sample repeats start, connect and stop. A single start
/// took either about 80 or about 190 us, as the new threads happened to be
/// scheduled on the one CPU, in shares that moved between runs; the median
/// of single starts jumped between the two and spread by 0.4 over ten runs.
/// A sample that averages a dozen starts does not.
const SETUP_SAMPLE: Duration = Duration::from_millis(2);
/// How long past the end of a round (or of the warm-up) the generator waits
/// for outstanding replies before it counts them as lost.
const REPLY_SLACK: Duration = Duration::from_secs(5);
/// How this workload's timings follow the host probe's.
const SENSITIVITY: Sensitivity = Sensitivity {
    timing: 0.8,
    setup: 1.0,
};

/// One request of the pool and the digest the direct backend gives it.
struct Job {
    kind: FilterKind,
    threshold: u32,
    pairs: Vec<SequencePair>,
    expected: Vec<FilterDecision>,
}

/// The service and its clients, torn down together.
struct Service {
    server: GkServer,
    clients: Vec<GkClient>,
}

impl Service {
    fn start(backend: Arc<dyn FilterBackend>) -> Service {
        let config = BatcherConfig::default().with_executors(1);
        let server = GkServer::start("127.0.0.1:0", backend, config).expect("bind a local port");
        let clients = (0..CONNECTIONS)
            .map(|tenant| {
                GkClient::connect_as(server.local_addr(), tenant as u32).expect("connect locally")
            })
            .collect();
        Service { server, clients }
    }

    fn stop(self) -> BatcherStats {
        let stats = self.server.stats();
        self.server.shutdown();
        drop(self.clients);
        stats
    }
}

/// Times each call into the `cpu-simd` backend as a span, for traced runs.
struct TimedBackend {
    inner: CpuSimdBackend,
    tracer: Tracer,
    calls: AtomicU64,
    pairs: AtomicU64,
}

impl FilterBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, job: &FilterJob<'_>) -> Vec<FilterDecision> {
        // Relaxed: both counters are statistics, read after the server's
        // threads are joined.
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        self.pairs
            .fetch_add(job.pairs.len() as u64, Ordering::Relaxed);
        self.tracer
            .span("gk-core.backend_run", None, call, || self.inner.run(job))
    }
}

/// Client-side reply counts. A lost reply is in none of the four outcomes.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    submitted: u64,
    ok: u64,
    rejected: u64,
    cancelled: u64,
    errored: u64,
}

impl Tally {
    fn answered(&self) -> u64 {
        self.ok + self.rejected + self.cancelled + self.errored
    }
}

struct InFlight {
    /// `None` when the request never left the client (the lost-request
    /// fault), so no reply can come.
    pending: Option<std::io::Result<PendingReply>>,
    job: usize,
    sent: Instant,
    request_span: Option<trace::SpanId>,
}

/// Runs the workload.
pub fn run(plan: &Plan, seed: u64, traced: bool) -> Outcome {
    let req_pairs = plan.size(REQ_PAIRS, 16);
    let pool = plan.size(POOL, 8);
    let set3 = DatasetProfile::set3()
        .generate(req_pairs * pool, seed)
        .pairs;
    let set7 = DatasetProfile::set7()
        .generate(req_pairs * pool / 4, seed ^ 0x7365_7437)
        .pairs;
    let direct = CpuSimdBackend::with_pool(Arc::clone(&plan.pool));
    let jobs: Vec<Job> = (0..pool)
        .map(|j| {
            let (kind, threshold, pairs) = if j % 4 == 3 {
                let k = j / 4;
                (
                    FilterKind::SneakySnake,
                    7,
                    &set7[k * req_pairs..(k + 1) * req_pairs],
                )
            } else {
                (
                    FilterKind::GateKeeper,
                    5,
                    &set3[j * req_pairs..(j + 1) * req_pairs],
                )
            };
            Job {
                kind,
                threshold,
                expected: direct.run(&FilterJob::new(kind, threshold, pairs)),
                pairs: pairs.to_vec(),
            }
        })
        .collect();
    drop((set3, set7));
    crate::measure::reset_peak_rss();

    let mut out = Outcome {
        connections: CONNECTIONS,
        inputs: format!("{pool} requests of {req_pairs} pairs"),
        ..Outcome::default()
    };
    let cpu_simd = || Arc::new(CpuSimdBackend::new(plan.threads));
    let host = HostProbe::new();
    // Set-up is sampled before and after the measured phase, so a slow
    // spell of the host during either does not decide `setup_s`.
    let setup_samples = |samples: &mut Samples| {
        for _ in 0..SETUP_REPS {
            let start = || Service::start(cpu_simd());
            let seconds = setup_sample(SETUP_SAMPLE, start, |service| {
                service.stop();
            });
            samples.setup.push((seconds, host.measure()));
        }
    };

    if !traced {
        let mut setup = Samples::default();
        setup_samples(&mut setup);
        let (mut samples, _) = phase(plan, &jobs, cpu_simd(), plan.seconds, None, &host, &mut out);
        setup_samples(&mut samples);
        samples.setup.append(&mut setup.setup);
        out.end_to_end(&samples, SENSITIVITY);
        return out;
    }

    let (untraced, _) = phase(
        plan,
        &jobs,
        cpu_simd(),
        plan.seconds / 2.0,
        None,
        &host,
        &mut out,
    );

    let tracer = Tracer::new();
    let backend = Arc::new(TimedBackend {
        inner: CpuSimdBackend::new(plan.threads),
        tracer: tracer.clone(),
        calls: AtomicU64::new(0),
        pairs: AtomicU64::new(0),
    });
    let phase_start = tracer.now_ns();
    let (traced_samples, stats) = phase(
        plan,
        &jobs,
        backend.clone(),
        plan.seconds / 2.0,
        Some(&tracer),
        &host,
        &mut out,
    );
    let phase_s = (tracer.now_ns() - phase_start) as f64 * 1e-9;
    let spans = tracer.take();

    let (busy_s, _) = trace::total(&spans, "gk-core.backend_run");
    let backend_pairs = backend.pairs.load(Ordering::Relaxed) as f64; // Relaxed: server threads are joined.
    let submit_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "gk-serve.submit")
        .map(|s| s.seconds() * 1e6)
        .collect();
    let gk: Vec<&[SequencePair]> = jobs
        .iter()
        .filter(|j| j.kind == FilterKind::GateKeeper)
        .map(|j| j.pairs.as_slice())
        .collect();
    let ss: Vec<&[SequencePair]> = jobs
        .iter()
        .filter(|j| j.kind == FilterKind::SneakySnake)
        .map(|j| j.pairs.as_slice())
        .collect();
    let all: Vec<&[SequencePair]> = jobs.iter().map(|j| j.pairs.as_slice()).collect();
    let (frame_encode, frame_decode) = frame_probe(&jobs);
    let decided: usize = jobs.iter().map(|j| j.expected.len()).sum();
    let rejected = jobs
        .iter()
        .flat_map(|j| &j.expected)
        .filter(|d| !d.accepted)
        .count();
    let batches = stats.batches.max(1) as f64;

    let mut m = Metrics::new();
    m.insert("gk-seq.soa_encode_ns_per_pair", probe::soa_encode(&all));
    m.insert("gk-seq.frame_encode_ns_per_pair", frame_encode);
    m.insert("gk-seq.frame_decode_ns_per_pair", frame_decode);
    m.insert(
        "gk-filters.gatekeeper_ns_per_pair",
        probe::gatekeeper(&gk, 5),
    );
    m.insert(
        "gk-filters.sneaky_snake_ns_per_pair",
        probe::sneaky_snake(&ss, 7),
    );
    m.insert("gk-filters.reject_ratio", rejected as f64 / decided as f64);
    m.insert("gk-core.backend_busy_s", busy_s);
    m.insert("gk-core.backend_share", busy_s / phase_s);
    m.insert("gk-core.backend_ns_per_pair", 1e9 * busy_s / backend_pairs);
    m.insert("gk-serve.submit_us_p50", median(&submit_us));
    m.insert("gk-serve.batches", stats.batches as f64);
    m.insert(
        "gk-serve.segments_per_batch",
        stats.batched_segments as f64 / batches,
    );
    m.insert(
        "gk-serve.pairs_per_batch",
        stats.batched_pairs as f64 / batches,
    );
    m.insert("gk-serve.flush_size", stats.flush_size as f64);
    m.insert("gk-serve.flush_timer", stats.flush_timer as f64);
    m.insert("gk-serve.flush_idle", stats.flush_idle as f64);
    m.insert("gk-serve.rejected", stats.rejected as f64);
    overhead(&mut m, &untraced, &traced_samples, SENSITIVITY);
    m.insert("bench.spans", spans.len() as f64);
    let probes = [untraced.probes, traced_samples.probes].concat();
    m.insert("bench.host_probe_us", 1e6 * median(&probes));
    out.metrics = m;
    out.spans = spans;
    out
}

/// Starts a service over `backend`, drives the closed loop on it for
/// `seconds`, stops it, and checks the client's counts against the server's.
fn phase(
    plan: &Plan,
    jobs: &[Job],
    backend: Arc<dyn FilterBackend>,
    seconds: f64,
    tracer: Option<&Tracer>,
    host: &HostProbe,
    out: &mut Outcome,
) -> (Samples, BatcherStats) {
    let service = Service::start(backend);
    let (samples, tally) = closed_loop(plan, jobs, &service, seconds, tracer, host, out);
    let stats = service.stop();
    account(out, &tally, &stats);
    (samples, stats)
}

/// Fails the run unless every request got its reply, and the server admitted
/// or rejected every request the client sent and cancelled what it saw
/// cancelled. `tally` covers the whole phase, warm-up included.
fn account(out: &mut Outcome, tally: &Tally, stats: &BatcherStats) {
    if tally.answered() != tally.submitted {
        out.fail(format!(
            "{} ok + {} rejected + {} cancelled + {} errored != {} submitted",
            tally.ok, tally.rejected, tally.cancelled, tally.errored, tally.submitted
        ));
    }
    if stats.admitted + stats.rejected != tally.submitted
        || stats.rejected != tally.rejected
        || stats.cancelled != tally.cancelled
    {
        out.fail(format!(
            "the server admitted {} and rejected {} requests and cancelled {}, but the client \
             sent {} and saw {} rejected and {} cancelled",
            stats.admitted,
            stats.rejected,
            stats.cancelled,
            tally.submitted,
            tally.rejected,
            tally.cancelled
        ));
    }
}

/// The generator's side of a phase: what it sends next, and its counts.
struct Generator<'a> {
    plan: &'a Plan,
    jobs: &'a [Job],
    service: &'a Service,
    tracer: Option<&'a Tracer>,
    next: usize,
    tally: Tally,
}

impl Generator<'_> {
    /// Keeps [`WINDOW`] requests in flight while `more(sent, elapsed)` holds,
    /// then waits for every reply, until `give_up` at the latest. Returns the
    /// pairs answered, the latencies of the answered requests and the
    /// round's wall time.
    fn round(
        &mut self,
        more: impl Fn(usize, Duration) -> bool,
        give_up: Instant,
        out: &mut Outcome,
    ) -> (u64, Vec<f64>, f64) {
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
        let (mut pairs, mut latencies) = (0u64, Vec::new());
        let start = Instant::now();
        let mut sent = 0usize;
        loop {
            while inflight.len() < WINDOW && more(sent, start.elapsed()) {
                inflight.push_back(self.send());
                sent += 1;
            }
            let Some(flight) = inflight.pop_front() else {
                break;
            };
            let job_pairs = self.jobs[flight.job].pairs.len() as u64;
            let (plan, jobs, tracer) = (self.plan, self.jobs, self.tracer);
            if let Some(latency) = finish(plan, jobs, flight, give_up, &mut self.tally, out, tracer)
            {
                pairs += job_pairs;
                latencies.push(latency);
            }
        }
        (pairs, latencies, start.elapsed().as_secs_f64())
    }

    /// Submits the next request of the pool.
    fn send(&mut self) -> InFlight {
        let job_index = self.next % self.jobs.len();
        let job = &self.jobs[job_index];
        let client = &self.service.clients[self.next % self.service.clients.len()];
        let request = self.next as u64;
        let request_span = self
            .tracer
            .map(|t| t.open("gk-serve.request", None, request));
        let sent = Instant::now();
        let submit = || client.submit(job.kind, job.threshold, DEADLINE, job.pairs.clone());
        let pending = if self.plan.fault == Fault::LostRequest && self.next == 0 {
            None
        } else {
            Some(match self.tracer {
                None => submit(),
                Some(t) => t.span("gk-serve.submit", request_span, request, submit),
            })
        };
        self.tally.submitted += 1;
        self.next += 1;
        InFlight {
            pending,
            job: job_index,
            sent,
            request_span,
        }
    }
}

/// Drives the closed loop in rounds for `seconds` after a warm-up, checking
/// every reply against the direct backend's decisions for the same request,
/// and times the host probe after each round. Returns the measured samples
/// and the client's counts over the whole phase, warm-up included.
fn closed_loop(
    plan: &Plan,
    jobs: &[Job],
    service: &Service,
    seconds: f64,
    tracer: Option<&Tracer>,
    host: &HostProbe,
    out: &mut Outcome,
) -> (Samples, Tally) {
    let mut generator = Generator {
        plan,
        jobs,
        service,
        tracer,
        next: 0,
        tally: Tally::default(),
    };
    let warm_up = |sent: usize, _: Duration| sent < WARMUP_REQUESTS;
    generator.round(warm_up, Instant::now() + REPLY_SLACK, out);
    let warmup = generator.tally;

    // A phase shorter than one round (the self-test) is one round.
    let slice = SLICE.min(Duration::from_secs_f64(seconds));
    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.pair_rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let give_up = Instant::now() + slice + REPLY_SLACK;
        let (pairs, latencies, wall) = generator.round(|_, elapsed| elapsed < slice, give_up, out);
        let rate = pairs as f64 / wall;
        samples.pair_rates.push(rate);
        samples.read_rates.push(rate);
        samples.latency_slices.push(latencies);
        samples.probes.push(host.measure());
    }

    let tally = generator.tally;
    let measured = tally.submitted - warmup.submitted;
    out.attempted += measured;
    out.failed += measured - (tally.ok - warmup.ok);
    (samples, tally)
}

/// Waits until `give_up` at the latest for one reply and checks it; returns
/// its latency when it carries the expected decisions. A reply that does not
/// come in time is lost: it fails the run and is counted in no outcome.
fn finish(
    plan: &Plan,
    jobs: &[Job],
    flight: InFlight,
    give_up: Instant,
    tally: &mut Tally,
    out: &mut Outcome,
    tracer: Option<&Tracer>,
) -> Option<f64> {
    let reply = match flight.pending {
        Some(Ok(pending)) => {
            pending.wait_timeout(give_up.saturating_duration_since(Instant::now()))
        }
        Some(Err(err)) => Err(err),
        None => Ok(None),
    };
    let latency = flight.sent.elapsed().as_secs_f64();
    if let (Some(t), Some(span)) = (tracer, flight.request_span) {
        t.close(span);
    }
    let job = &jobs[flight.job];
    let ok = match reply {
        Ok(Some(Reply::Decisions(mut decisions))) => {
            if plan.fault == Fault::WrongOutput && tally.ok == 0 {
                decisions[0].accepted = !decisions[0].accepted;
            }
            let matches = decisions.len() == job.expected.len()
                && decision_digest(&decisions) == decision_digest(&job.expected);
            if !matches {
                out.fail(format!(
                    "a {} reply's decision digest differs from the direct backend's",
                    job.kind
                ));
            }
            matches
        }
        Ok(Some(Reply::Rejected { .. })) => {
            tally.rejected += 1;
            return None;
        }
        Ok(Some(Reply::Cancelled)) => {
            tally.cancelled += 1;
            return None;
        }
        Ok(Some(Reply::Error(message))) => {
            out.fail(format!("server error reply: {message}"));
            false
        }
        Ok(None) => {
            out.fail(format!(
                "a {} request got no reply within {} s of the end of its round",
                job.kind,
                REPLY_SLACK.as_secs()
            ));
            return None;
        }
        Err(err) => {
            out.fail(format!("a request's submit or connection failed: {err}"));
            false
        }
    };
    if ok {
        tally.ok += 1;
        Some(latency)
    } else {
        tally.errored += 1;
        None
    }
}

/// Times `write_frame` and `read_frame` on the pool's request frames and the
/// matching response frames through an in-memory buffer.
fn frame_probe(jobs: &[Job]) -> (f64, f64) {
    let mut frames = Vec::with_capacity(2 * jobs.len());
    for (id, job) in jobs.iter().enumerate() {
        frames.push(Frame::Request(RequestFrame {
            id: id as u64,
            tenant: (id % CONNECTIONS) as u32,
            kind: job.kind.code(),
            threshold: job.threshold,
            deadline_micros: DEADLINE.as_micros() as u64,
            pairs: job.pairs.clone(),
        }));
        frames.push(Frame::Response(ResponseFrame {
            id: id as u64,
            status: ResponseStatus::Ok,
            retry_after_micros: 0,
            decisions: job
                .expected
                .iter()
                .map(|d| decision_word(d.estimated_edits, d.accepted, d.undefined))
                .collect(),
            message: String::new(),
        }));
    }
    let pairs: usize = jobs.iter().map(|j| j.pairs.len()).sum();
    probe::frame_codec(&frames, pairs)
}
