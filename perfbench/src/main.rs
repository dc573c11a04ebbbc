//! The repository benchmark. One command runs one workload, checks every
//! output, and prints one JSON result line; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload archive-bulk|campaign-sweep|serve-mixed
//!           --seed N --seconds S --trace 0|1 [--lc PATH]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from an untraced run of
//! the workload. `--trace 1` reports every per-layer metric from a
//! traced run: the workload's own layers over `--seconds`, with the
//! tracing overhead, then the other workloads' layers over a quarter of
//! that each, so that every traced run reports every layer.

mod archive_bulk;
mod campaign_sweep;
mod report;
mod rng;
mod serve_mixed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;
use trace::Tracer;

/// The workloads, by `BENCHMARK.json` name.
const WORKLOADS: [&str; 3] = ["archive-bulk", "campaign-sweep", "serve-mixed"];

/// Share of `--seconds` a traced run gives each workload other than
/// its own.
const OTHER_TRACED_SHARE: f64 = 0.25;

/// Set-ups timed back to back at the start of a run, at least.
const SETUPS: usize = 15;

/// Least time spent on the set-ups at the start of a run.
const SETUP_SECONDS: f64 = 1.0;

/// Least set-up time in one sample. A sample is the mean of as many
/// back-to-back set-ups as fill it.
const SAMPLE_SECONDS: f64 = 0.025;

/// What every workload gets.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Span recorder (on for `--trace 1`).
    pub trace: Tracer,
    /// The built `lc` binary.
    pub lc: PathBuf,
    /// Scratch directory for this run, removed at exit.
    pub tmp: PathBuf,
}

/// Times a workload's set-up; `setup_s` is the median of the samples
/// a run takes.
///
/// A set-up timed only in one burst reads the host's speed at one
/// moment, which on a shared host can differ by 1.5× from one run to
/// the next. So besides the burst at the start, each workload times
/// more set-ups later in the run: between its measured steps, or in a
/// second burst after them. Each extra set-up's result is dropped at
/// once.
///
/// A set-up of a few milliseconds takes one of two times, about 1.5×
/// apart, on the shared host, and the share of each changes from run
/// to run; a median of single set-ups flips between the two. So one
/// sample is the mean of at least [`SAMPLE_SECONDS`] of back-to-back
/// set-ups, and the median is taken over samples.
pub struct Setups<F> {
    setup: F,
    samples: Vec<f64>,
    count: usize,
}

impl<T, F: FnMut() -> T> Setups<F> {
    /// The first burst; its last result is the run's.
    pub fn start(setup: F) -> (Self, T) {
        let mut s = Setups {
            setup,
            samples: Vec::new(),
            count: 0,
        };
        let last = s.timed(SETUPS, SETUP_SECONDS);
        (s, last)
    }

    /// Take at least `samples` samples and for at least `secs`; return
    /// the last set-up's result. Earlier results are dropped, untimed,
    /// before the next set-up starts, so at most one is alive.
    fn timed(&mut self, samples: usize, secs: f64) -> T {
        let begin = Instant::now();
        let mut last = None;
        for n in 1.. {
            let (mut busy, mut k) = (0.0, 0);
            while k == 0 || busy < SAMPLE_SECONDS {
                drop(last.take());
                let t0 = Instant::now();
                last = Some((self.setup)());
                busy += t0.elapsed().as_secs_f64();
                k += 1;
            }
            self.samples.push(busy / k as f64);
            self.count += k;
            if n >= samples && begin.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
        last.expect("at least one set-up")
    }

    /// Another burst like the first. Drop the run's own result first
    /// when two alive at once would change what the run measures.
    pub fn burst(&mut self) {
        drop(self.timed(SETUPS, SETUP_SECONDS));
    }

    /// One more sample, and more until `secs` have passed.
    pub fn sample(&mut self, secs: f64) {
        drop(self.timed(1, secs));
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// Set-ups timed so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Share of `total_s` not covered by the `covered_s` parts: the time a
/// layer spends outside its measured children.
pub fn gap_frac(total_s: f64, covered_s: &[f64]) -> f64 {
    1.0 - covered_s.iter().sum::<f64>() / total_s
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    lc: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = campaign_sweep::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut lc = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("lc");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--lc" => lc = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        lc,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: Tracer::new(args.trace),
        lc: args.lc,
        tmp,
    };
    let mut out = Outcome::default();
    report::machine_context(&mut out);
    out.context("workload", args.workload.as_str());
    out.context("seed", run.seed);
    out.context("seconds", run.seconds);
    out.context("trace", u64::from(args.trace));
    if args.trace {
        let others = WORKLOADS.iter().filter(|&&w| w != args.workload);
        for w in std::iter::once(&args.workload.as_str()).chain(others) {
            let own = *w == args.workload;
            let seconds = if own {
                run.seconds
            } else {
                run.seconds * OTHER_TRACED_SHARE
            };
            match *w {
                "archive-bulk" => archive_bulk::traced(&run, seconds, own, &mut out),
                "campaign-sweep" => campaign_sweep::traced(&run, seconds, own, &mut out),
                _ => serve_mixed::traced(&run, seconds, own, &mut out),
            }
        }
    } else {
        match args.workload.as_str() {
            "archive-bulk" => archive_bulk::run(&run, &mut out),
            "campaign-sweep" => campaign_sweep::run(&run, &mut out),
            _ => serve_mixed::run(&run, &mut out),
        }
    }
    if !args.trace {
        out.metric("ok_frac", out.ok_frac(), "frac");
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    let _ = std::fs::remove_dir_all(&run.tmp);
    let _ = std::fs::remove_dir(".bench_tmp");

    // The full record (result + context), kept on disk.
    let path = format!(
        ".bench_out/{}.seed{}.trace{}.json",
        args.workload,
        run.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, out.record().pretty()));
    if let Err(e) = saved {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{}",
        lc_json::Value::object([("context", lc_json::Value::Object(out.context.clone()))]).dump()
    );
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_the_uncovered_share() {
        // 1-thread archive 2.0 s; stages 1.2 s and CRC 0.3 s cover 75%.
        assert!((gap_frac(2.0, &[1.2, 0.3]) - 0.25).abs() < 1e-12);
        // Children that outrun the parent (noise) give a negative gap,
        // reported as measured rather than clamped.
        assert!(gap_frac(1.0, &[0.8, 0.3]) < 0.0);
    }

    #[test]
    fn setups_keep_the_last_result_and_average_short_set_ups() {
        let mut n = 0;
        let (mut setups, last) = Setups::start(|| {
            n += 1;
            std::thread::sleep(std::time::Duration::from_millis(5));
            n
        });
        let burst = setups.count();
        assert_eq!(last, burst);
        // 5 ms set-ups: about five to a 25 ms sample.
        assert!(setups.samples.len() >= SETUPS);
        assert!(burst >= 4 * setups.samples.len());
        let before = (burst, setups.samples.len());
        setups.sample(0.0);
        assert_eq!(setups.samples.len(), before.1 + 1);
        assert!(setups.count() >= before.0 + 4);
        setups.burst();
        assert!(setups.samples.len() >= before.1 + 1 + SETUPS);
        assert!(setups.median() >= 0.005);
    }
}
