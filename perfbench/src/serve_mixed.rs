//! `serve-mixed`: an in-process `lc_serve::Server` on loopback driven by
//! the benchmark's own open-loop Poisson generator with loadgen's op mix
//! (70% pack, 20% unpack, 7% stat, 3% salvage) over three SP payloads.
//!
//! Every request is timed from its *due* time, so a stall that delays
//! later sends counts against them; how late the generator itself ran
//! is reported separately. Goodput counts completed, verified ok
//! responses only.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lc_chaos::fs::MAX_ATTEMPTS;
use lc_parallel::{CancelToken, Pool};
use lc_serve::client::Client;
use lc_serve::{
    ErrorKind, ExecContext, MemGovernor, Op, Request, Response, ServeConfig, ServeSummary, Server,
};

use crate::report::{nproc, Outcome};
use crate::stats::{percentile_sorted, sorted, tail_percentile};
use crate::trace::Tracer;
use crate::{Run, Setups};

/// Offered load, requests per second: half the knee measured on the
/// reference box, the highest rate whose p99 stays within 10 ms (see
/// README.md).
pub const RATE_RPS: f64 = 300.0;

/// Pipeline of every `pack` request and of the pre-encoded archives
/// (the `sp-speed` preset, shared with archive-bulk).
const PIPELINE: &str = "TCMS_4 DIFF_4 RZE_4";

/// Untimed warm-up load before each measured one, seconds.
const WARMUP_S: f64 = 0.5;

/// Windows of the measured load whose tail percentiles the p99 takes
/// the median of. At 300 rps over 25 s a window holds 1,500 requests,
/// so its p99 has 15 beyond it.
const TAIL_WINDOWS: usize = 5;

/// Per-request deadline handed to the server.
const DEADLINE_MS: u32 = 2_000;

/// Seed streams for arrival times and the op/size draws.
const STREAM_GAPS: u64 = 3;
const STREAM_MIX: u64 = 4;

/// Payloads: (SP file, scale denominator) → 65,536 B, 69,236 B and
/// 121,484 B, i.e. 4–8 chunks each.
const PAYLOADS: [(&str, u32); 3] = [("msg_bt", 8192), ("num_brain", 1024), ("obs_error", 256)];

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset of the due time from the start of the run.
    pub due: Duration,
    /// Operation.
    pub op: Op,
    /// Index into the payload corpus.
    pub size: usize,
}

/// The seeded open-loop schedule: a Poisson process at `rate` over
/// `seconds`, conditioned on its expected count, i.e. `rate × seconds`
/// arrivals at sorted uniform times. Conditioning keeps the offered
/// load identical across seeds; the seed moves only when requests
/// bunch up and which op and payload each one carries (loadgen's mix).
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let n = (rate * seconds).round() as u64;
    let mut due: Vec<f64> = (0..n)
        .map(|i| crate::rng::unit(crate::rng::draw(seed, STREAM_GAPS, i)) * seconds)
        .collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .zip(0..)
        .map(|(t, i)| {
            let mix = crate::rng::draw(seed, STREAM_MIX, i);
            let op = match mix % 100 {
                0..=69 => Op::Pack,
                70..=89 => Op::Unpack,
                90..=96 => Op::Stat,
                _ => Op::Salvage,
            };
            Arrival {
                due: Duration::from_secs_f64(t),
                op,
                size: (mix >> 8) as usize % PAYLOADS.len(),
            }
        })
        .collect()
}

/// How one request ended at the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Ok response.
    Ok,
    /// Structured error response.
    Err,
    /// No termination received: retries exhausted or transport failure.
    Failed,
}

/// The client's verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Termination.
    pub status: Status,
    /// The response was checked and is right (ok responses only).
    pub correct: bool,
    /// Some attempt was shed.
    pub shed: bool,
    /// Attempts beyond the first.
    pub retries: u32,
    /// The error was `deadline_exceeded`.
    pub deadline: bool,
    /// Length of the ok response's body.
    pub body_len: usize,
}

/// One request's timeline.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What was sent.
    pub arrival: Arrival,
    /// When it was due.
    pub due: Instant,
    /// When a client thread started sending it.
    pub sent: Instant,
    /// When its termination arrived.
    pub done: Instant,
    /// What the client made of it.
    pub verdict: Verdict,
}

impl Sample {
    /// Latency from the due time in ms; a request that did not end
    /// correct and ok misses every limit (infinite).
    pub fn latency_ms(&self) -> f64 {
        if self.good() {
            (self.done - self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Ok and verified, never shed.
    pub fn good(&self) -> bool {
        self.verdict.status == Status::Ok && self.verdict.correct && !self.verdict.shed
    }
}

/// The open-loop generator: `threads` client threads take arrivals in order,
/// sleep until each is due, and call `exchange`, one request in flight
/// per thread. A thread that is still busy when the next arrival falls
/// due sends it late; the lateness is part of that request's latency.
/// Each request records a `serve.request` span (due → done) and a
/// `serve.send` span (send → done).
pub fn drive<F>(
    arrivals: &[Arrival],
    threads: usize,
    tr: &Tracer,
    exchange: F,
) -> (Instant, Vec<Sample>)
where
    F: Fn(usize, &Arrival) -> Verdict + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(a) = arrivals.get(i) else { break };
                let due = start + a.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let verdict = exchange(i, a);
                let done = Instant::now();
                tr.record("serve.request", due, done);
                tr.record("serve.send", sent, done);
                samples
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(Sample {
                        arrival: *a,
                        due,
                        sent,
                        done,
                        verdict,
                    });
            });
        }
    });
    (
        start,
        samples.into_inner().unwrap_or_else(|p| p.into_inner()),
    )
}

/// Request payloads and their verified archives.
struct Corpus {
    raw: Vec<Vec<u8>>,
    archives: Vec<Vec<u8>>,
}

impl Corpus {
    fn build(pool: &Pool) -> Corpus {
        let pipe = lc_components::parse_pipeline(PIPELINE).expect("serve pipeline parses");
        let raw: Vec<Vec<u8>> = pool.map(PAYLOADS.len(), |i| {
            let (name, d) = PAYLOADS[i];
            let file = lc_data::file_by_name(name).expect("SP file exists");
            lc_data::generate(file, lc_data::Scale::denominator(d))
        });
        let archives: Vec<Vec<u8>> = raw
            .iter()
            .map(|r| lc_core::archive::encode(&pipe, r, pool))
            .collect();
        for (r, a) in raw.iter().zip(&archives) {
            let back = lc_core::archive::decode(a, lc_components::lookup, pool);
            assert!(
                back.as_deref() == Ok(&r[..]),
                "reference archive does not round-trip"
            );
        }
        Corpus { raw, archives }
    }

    fn request(&self, a: &Arrival) -> Request {
        let (pipeline, payload) = match a.op {
            Op::Pack => (PIPELINE.to_string(), self.raw[a.size].clone()),
            _ => (String::new(), self.archives[a.size].clone()),
        };
        Request {
            op: a.op,
            deadline_ms: DEADLINE_MS,
            pipeline,
            payload,
        }
    }

    /// Is `body` the right ok response to `a`? Pack output must equal
    /// the verified reference archive or, failing that, decode back to
    /// the payload.
    fn check(&self, a: &Arrival, body: &[u8]) -> bool {
        let raw = &self.raw[a.size];
        match a.op {
            Op::Pack => {
                body == self.archives[a.size]
                    || lc_core::archive::decode(body, lc_components::lookup, &Pool::new(1))
                        .is_ok_and(|b| b == *raw)
            }
            Op::Unpack | Op::Salvage => body == &raw[..],
            Op::Stat => {
                std::str::from_utf8(body)
                    .ok()
                    .and_then(|s| lc_json::Value::parse(s).ok())
                    .and_then(|v| v["original_len"].as_u64())
                    == Some(raw.len() as u64)
            }
            Op::Debug => false,
        }
    }
}

/// One request with loadgen's retry policy: sheds and transport
/// failures are retried after the server's hint, up to
/// `lc_chaos::fs::MAX_ATTEMPTS` attempts.
fn exchange(client: &Client, corpus: &Corpus, seq: usize, a: &Arrival) -> Verdict {
    let req = corpus.request(a);
    let mut v = Verdict {
        status: Status::Failed,
        correct: false,
        shed: false,
        retries: 0,
        deadline: false,
        body_len: 0,
    };
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            v.retries += 1;
        }
        match client.request_once(&req, (seq as u64) << 8 | u64::from(attempt)) {
            Ok(Response::Ok(body)) => {
                v.status = Status::Ok;
                v.correct = corpus.check(a, &body);
                v.body_len = body.len();
                return v;
            }
            Ok(Response::Err { kind, .. }) => {
                v.status = Status::Err;
                v.deadline = kind == ErrorKind::DeadlineExceeded;
                return v;
            }
            Ok(Response::Shed { retry_after_ms }) => {
                v.shed = true;
                std::thread::sleep(Duration::from_millis(retry_after_ms.into()));
            }
            Err(_) => {}
        }
    }
    v
}

/// A running in-process server.
struct Live {
    addr: SocketAddr,
    drain: CancelToken,
    handle: Option<JoinHandle<ServeSummary>>,
    cfg: ServeConfig,
    corpus: Corpus,
}

impl Live {
    fn start(pool: &Pool) -> Live {
        let corpus = Corpus::build(pool);
        let cfg = ServeConfig {
            pool_threads: nproc(),
            ..Default::default()
        };
        let drain = CancelToken::new();
        let server = Server::bind(cfg.clone(), drain.clone()).expect("bind loopback server");
        let addr = server.local_addr().expect("bound address");
        let handle = Some(std::thread::spawn(move || server.run()));
        Live {
            addr,
            drain,
            handle,
            cfg,
            corpus,
        }
    }

    /// Drain the server and return its accounting.
    fn finish(mut self) -> ServeSummary {
        self.drain.cancel();
        self.handle
            .take()
            .expect("server joined once")
            .join()
            .expect("server thread panicked")
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.drain.cancel();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Client-side tallies over a set of samples.
struct Tally {
    sent: u64,
    ok: u64,
    errs: u64,
    failed: u64,
    bad: u64,
    shed: u64,
    retries: u64,
    deadline: u64,
}

fn tally(samples: &[Sample]) -> Tally {
    let count = |f: &dyn Fn(&Sample) -> bool| samples.iter().filter(|s| f(s)).count() as u64;
    Tally {
        sent: samples.len() as u64,
        ok: count(&|s| s.verdict.status == Status::Ok),
        errs: count(&|s| s.verdict.status == Status::Err),
        failed: count(&|s| s.verdict.status == Status::Failed),
        bad: count(&|s| !s.good()),
        shed: count(&|s| s.verdict.shed),
        retries: samples.iter().map(|s| u64::from(s.verdict.retries)).sum(),
        deadline: count(&|s| s.verdict.deadline),
    }
}

/// Drive the live server for `seconds` on the seed's schedule.
fn load(live: &Live, run: &Run, seconds: f64, tr: &Tracer) -> (Instant, Vec<Sample>) {
    let client = Client::new(live.addr);
    let arrivals = schedule(run.seed, RATE_RPS, seconds);
    drive(&arrivals, nproc(), tr, |seq, a| {
        exchange(&client, &live.corpus, seq, a)
    })
}

fn context(live: &Live, out: &mut Outcome) {
    out.context(
        "corpus_bytes",
        live.corpus.raw.iter().map(|r| r.len() as u64).sum::<u64>(),
    );
    out.context(
        "chunks",
        live.corpus
            .raw
            .iter()
            .map(|r| r.len().div_ceil(lc_core::CHUNK_SIZE) as u64)
            .sum::<u64>(),
    );
    out.context("server_threads", live.cfg.worker_threads as u64);
    out.context("pool_threads", live.cfg.pool_threads as u64);
    out.context("client_threads", nproc() as u64);
    out.context("offered_rps", RATE_RPS);
}

/// Check the client and server accounting identities over every load
/// the server saw, and count each request that was not ok, verified
/// and unshed as failed.
fn account(loads: &[&[Sample]], summary: &ServeSummary, out: &mut Outcome) -> Tally {
    let all: Vec<Sample> = loads.concat();
    let t = tally(&all);
    out.ops(t.sent, t.bad, || {
        format!(
            "serve-mixed: {} of {} requests not ok+verified ({} errs, {} failed, {} shed)",
            t.bad, t.sent, t.errs, t.failed, t.shed
        )
    });
    out.op(t.sent == t.ok + t.errs + t.failed, || {
        "serve-mixed: client accounting sent != ok + errs + failed".into()
    });
    let attempts = t.sent + t.retries;
    out.op(
        summary.accounted() && !summary.hard_aborted && summary.requests_in <= attempts,
        || format!("serve-mixed: server accounting broken for {attempts} attempts: {summary:?}"),
    );
    t
}

/// p50 and the tail percentile of due-to-done latency.
fn latency(samples: &[Sample]) -> (f64, f64, f64) {
    let lat = sorted(samples.iter().map(Sample::latency_ms).collect());
    let (q, tail) = tail_percentile(&lat, 99.0);
    (percentile_sorted(&lat, 50.0), q, tail)
}

/// The p99: the load is cut into [`TAIL_WINDOWS`] equal windows of
/// due time over `seconds` after `start`, and this is the median of the
/// windows' tail percentiles. A host stall that lasts a fraction of a
/// second fills one window's tail; pooled over the run it would set
/// the p99 of the whole run. Returns the lowest percentile a window
/// used and the median.
fn windowed_tail(samples: &[Sample], start: Instant, seconds: f64) -> (f64, f64) {
    let mut windows = vec![Vec::new(); TAIL_WINDOWS];
    for s in samples {
        let at = (s.due - start).as_secs_f64() / seconds * TAIL_WINDOWS as f64;
        windows[(at as usize).min(TAIL_WINDOWS - 1)].push(*s);
    }
    let tails: Vec<(f64, f64)> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let (_, q, tail) = latency(w);
            (q, tail)
        })
        .collect();
    let q = tails.iter().map(|t| t.0).fold(100.0, f64::min);
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (q, crate::stats::median(&values))
}

/// Median over the good `op` requests of payload bytes ÷ latency from
/// the due time, in MB/s: how fast a client sees its data packed
/// (`Pack`) or unpacked (`Unpack`).
fn client_mb_s(samples: &[Sample], corpus: &Corpus, op: Op) -> f64 {
    let rates: Vec<f64> = samples
        .iter()
        .filter(|s| s.arrival.op == op && s.good())
        .map(|s| corpus.raw[s.arrival.size].len() as f64 / 1e6 / (s.latency_ms() / 1e3))
        .collect();
    crate::stats::median(&rates)
}

/// Payload bytes ÷ pack response bytes over the payloads packed, each
/// payload counted once (its mean response length), so the figure
/// does not depend on how often the seed drew each payload.
fn pack_ratio(samples: &[Sample], corpus: &Corpus) -> f64 {
    let (mut raw, mut packed) = (0.0, 0.0);
    for (k, r) in corpus.raw.iter().enumerate() {
        let lens: Vec<f64> = samples
            .iter()
            .filter(|s| s.arrival.op == Op::Pack && s.arrival.size == k && s.good())
            .map(|s| s.verdict.body_len as f64)
            .collect();
        if !lens.is_empty() {
            raw += r.len() as f64;
            packed += lens.iter().sum::<f64>() / lens.len() as f64;
        }
    }
    raw / packed
}

/// Untraced run: the end-to-end metrics.
pub fn run(run: &Run, out: &mut Outcome) {
    let pool = Pool::new(nproc());
    let (mut setups, live) = Setups::start(|| Live::start(&pool));
    context(&live, out);
    // Warm-up: the first connections and allocations, checked but
    // not timed.
    let (_, warm) = load(&live, run, WARMUP_S, &Tracer::new(false));
    let (start, samples) = load(&live, run, run.seconds, &run.trace);
    let encode_mb_s = client_mb_s(&samples, &live.corpus, Op::Pack);
    let decode_mb_s = client_mb_s(&samples, &live.corpus, Op::Unpack);
    let ratio = pack_ratio(&samples, &live.corpus);
    let summary = live.finish();
    // The load cannot be paused, so the second burst of set-ups comes
    // after it.
    setups.burst();
    let wall = samples
        .iter()
        .map(|s| s.done)
        .max()
        .map_or(1e-9, |end| (end - start).as_secs_f64());
    account(&[&warm, &samples], &summary, out);
    let t = tally(&samples);
    let (p50, _, pooled) = latency(&samples);
    let (q, tail) = windowed_tail(&samples, start, run.seconds);
    out.metric("setup_s", setups.median(), "s");
    out.context("setups", setups.count() as u64);
    out.metric("encode_mb_s", encode_mb_s, "MB/s");
    out.metric("decode_mb_s", decode_mb_s, "MB/s");
    out.metric("ratio", ratio, "x");
    out.metric("p50_ms", p50, "ms");
    out.metric("ops_per_s", (t.sent - t.bad) as f64 / wall, "1/s");
    out.context("n", t.sent);
    // The tail is recorded but not a gated metric: on a shared host it
    // is not steady from one run to the next (see README.md).
    out.context("p99_ms", tail);
    out.context("p99_ms.windows", TAIL_WINDOWS as u64);
    out.context("p99_ms.percentile", q);
    out.context("p99_ms.pooled", pooled);
}

/// Traced run: the serve layer's metrics over `seconds` of load, and,
/// when this is the run's `own` workload, the tracing overhead (half
/// the load untraced, half traced).
pub fn traced(run: &Run, seconds: f64, own: bool, out: &mut Outcome) {
    let tr = &run.trace;
    let pool = Pool::new(nproc());
    let live = Live::start(&pool);
    if own {
        context(&live, out);
    }
    let (_, warm) = load(&live, run, WARMUP_S, &Tracer::new(false));
    let (plain_start, plain, plain_s) = if own {
        let (start, samples) = load(&live, run, seconds / 2.0, &Tracer::new(false));
        (start, samples, seconds / 2.0)
    } else {
        (Instant::now(), Vec::new(), 0.0)
    };
    let traced_s = seconds - plain_s;
    let (traced_start, traced) = load(&live, run, traced_s, tr);

    // exec::execute in-process, no socket: per op over the three
    // payloads, and over the schedule's own mix for the wire gap.
    for op in [Op::Pack, Op::Unpack, Op::Stat, Op::Salvage] {
        let arrivals: Vec<Arrival> = (0..45)
            .map(|i| Arrival {
                due: Duration::ZERO,
                op,
                size: i % PAYLOADS.len(),
            })
            .collect();
        let name = format!("serve.exec.{}", op.label());
        execute_in_process(tr, &name, &live.corpus, &arrivals, out);
    }
    let mix: Vec<Arrival> = schedule(run.seed, RATE_RPS, seconds)
        .into_iter()
        .take(300)
        .collect();
    execute_in_process(tr, "serve.exec.mix", &live.corpus, &mix, out);
    let summary = live.finish();

    let t = account(&[&warm, &plain, &traced], &summary, out);
    if own {
        out.metric(
            "trace.overhead_frac",
            latency(&traced).0 / latency(&plain).0 - 1.0,
            "frac",
        );
    }
    for op in ["pack", "unpack", "stat", "salvage"] {
        let ms = tr.median_secs(&format!("serve.exec.{op}")) * 1e3;
        out.metric(format!("serve.exec.{op}_ms"), ms, "ms");
    }
    out.metric(
        "serve.wire_ms",
        wire_ms(
            tr.median_secs("serve.send") * 1e3,
            tr.median_secs("serve.exec.mix") * 1e3,
        ),
        "ms",
    );
    // The tail from the untraced half when there is one.
    let (q, tail) = if own {
        windowed_tail(&plain, plain_start, plain_s)
    } else {
        windowed_tail(&traced, traced_start, traced_s)
    };
    out.metric("serve.p99_ms", tail, "ms");
    out.context("serve.p99_ms.percentile", q);
    let late = sorted(plain.iter().chain(&traced).map(Sample::late_ms).collect());
    out.metric("serve.late_ms", tail_percentile(&late, 99.0).1, "ms");
    out.metric("serve.shed_frac", t.shed as f64 / t.sent as f64, "frac");
    out.metric("serve.retries", t.retries as f64, "count");
    out.metric("serve.deadline_exceeded", t.deadline as f64, "count");
    out.metric(
        "serve.accepted_per_sent",
        summary.requests_in as f64 / (t.sent + t.retries) as f64,
        "frac",
    );
    out.context("serve.n", t.sent);
}

/// `wire_ms`: what a request spends outside `exec::execute` — framing,
/// TCP, admission and queueing — as request p50 minus execute p50.
pub fn wire_ms(request_p50_ms: f64, execute_p50_ms: f64) -> f64 {
    request_p50_ms - execute_p50_ms
}

/// Run `exec::execute` in-process, no socket, for each of `arrivals`
/// under a span called `name`, checking every response.
fn execute_in_process(
    tr: &Tracer,
    name: &str,
    corpus: &Corpus,
    arrivals: &[Arrival],
    out: &mut Outcome,
) {
    let ctx = ExecContext {
        pool: Pool::new(nproc()),
        max_decoded_bytes: ServeConfig::default().max_decoded_bytes,
        mem: MemGovernor::new(None),
    };
    for a in arrivals {
        let req = corpus.request(a);
        let span = tr.span(name);
        let resp = lc_serve::execute(&req, &lc_components::lookup, &ctx, &CancelToken::new());
        span.end();
        let ok = matches!(&resp, Response::Ok(body) if corpus.check(a, body));
        out.op(ok, || {
            format!("serve {name}: {:?} gave a wrong response", a.op)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok() -> Verdict {
        Verdict {
            status: Status::Ok,
            correct: true,
            shed: false,
            retries: 0,
            deadline: false,
            body_len: 0,
        }
    }

    fn at(ms: u64) -> Arrival {
        Arrival {
            due: Duration::from_millis(ms),
            op: Op::Pack,
            size: 0,
        }
    }

    #[test]
    fn a_stall_makes_later_requests_late_and_counts_from_due_time() {
        // Five requests all due at t=0, one client thread, 20 ms each:
        // request k is sent >= 20k ms late and completes >= 20(k+1) ms
        // after it was due.
        let arrivals: Vec<Arrival> = (0..5).map(|_| at(0)).collect();
        let (_, mut samples) = drive(&arrivals, 1, &Tracer::new(false), |_, _| {
            std::thread::sleep(Duration::from_millis(20));
            ok()
        });
        samples.sort_by_key(|s| s.sent);
        for (k, s) in samples.iter().enumerate() {
            assert!(
                s.late_ms() >= 20.0 * k as f64 - 1.0,
                "k={k} late {}",
                s.late_ms()
            );
            assert!(s.latency_ms() >= 20.0 * (k + 1) as f64 - 1.0);
        }
    }

    #[test]
    fn an_idle_generator_sends_on_time() {
        let arrivals = [at(0), at(40), at(80)];
        let (_, samples) = drive(&arrivals, 1, &Tracer::new(false), |_, _| ok());
        for s in &samples {
            // Sleep overshoot only; far below the 40 ms gaps.
            assert!(s.late_ms() < 15.0, "late {}", s.late_ms());
        }
    }

    #[test]
    fn failed_or_shed_requests_miss_every_latency_limit() {
        let now = Instant::now();
        let mut s = Sample {
            arrival: at(0),
            due: now,
            sent: now,
            done: now + Duration::from_millis(3),
            verdict: ok(),
        };
        assert!((s.latency_ms() - 3.0).abs() < 1e-9);
        s.verdict.shed = true;
        assert_eq!(s.latency_ms(), f64::INFINITY);
        s.verdict = Verdict {
            status: Status::Failed,
            ..ok()
        };
        assert_eq!(s.latency_ms(), f64::INFINITY);
    }

    #[test]
    fn schedule_is_seeded_poisson_with_loadgen_mix() {
        let a = schedule(1, 1000.0, 10.0);
        assert_eq!(a, schedule(1, 1000.0, 10.0));
        assert_ne!(a, schedule(2, 1000.0, 10.0));
        assert_eq!(a.len(), 10_000);
        // Exponential gaps: about 63% of them are shorter than the mean.
        let short = a
            .windows(2)
            .filter(|w| w[1].due - w[0].due < Duration::from_millis(1));
        let share = short.count() as f64 / 9_999.0;
        assert!((share - 0.632).abs() < 0.03, "short-gap share {share}");
        let packs = a.iter().filter(|x| x.op == Op::Pack).count() as f64 / a.len() as f64;
        assert!((packs - 0.70).abs() < 0.03, "pack share {packs}");
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn one_stalled_window_does_not_set_the_windowed_tail() {
        // 5 windows of 1 s, 1,500 requests each at 2 ms; in the last
        // window a stall makes 100 requests take 50 ms.
        let start = Instant::now();
        let samples: Vec<Sample> = (0..7500u64)
            .map(|i| {
                let due = start + Duration::from_micros(i * 2_000 / 3);
                let ms = if i >= 7400 { 50 } else { 2 };
                Sample {
                    arrival: at(0),
                    due,
                    sent: due,
                    done: due + Duration::from_millis(ms),
                    verdict: ok(),
                }
            })
            .collect();
        assert!(latency(&samples).2 > 40.0, "pooled p99 is the stall");
        let (q, tail) = windowed_tail(&samples, start, 5.0);
        assert_eq!(q, 99.0);
        assert!((tail - 2.0).abs() < 1e-6, "windowed {tail}");
    }

    #[test]
    fn pack_ratio_counts_each_payload_once() {
        let corpus = Corpus::build(&Pool::new(1));
        let now = Instant::now();
        let pack = |size, body_len| Sample {
            arrival: Arrival {
                due: Duration::ZERO,
                op: Op::Pack,
                size,
            },
            due: now,
            sent: now,
            done: now + Duration::from_millis(2),
            verdict: Verdict { body_len, ..ok() },
        };
        let lens: Vec<usize> = corpus.raw.iter().map(|r| r.len() / 2).collect();
        let raw: usize = corpus.raw.iter().map(Vec::len).sum();
        let want = raw as f64 / lens.iter().sum::<usize>() as f64;
        // Payload 0 drawn ten times as often as the others.
        let mut samples: Vec<Sample> = (0..10).map(|_| pack(0, lens[0])).collect();
        samples.push(pack(1, lens[1]));
        samples.push(pack(2, lens[2]));
        assert!((pack_ratio(&samples, &corpus) - want).abs() < 1e-12);
        // Client MB/s: payload bytes over the 2 ms from due to done.
        let mb_s = client_mb_s(&samples, &corpus, Op::Pack);
        assert!((mb_s - corpus.raw[0].len() as f64 / 1e6 / 2e-3).abs() < 1e-6);
    }

    #[test]
    fn wire_time_is_request_minus_execute() {
        assert_eq!(wire_ms(3.5, 1.25), 2.25);
    }
}
