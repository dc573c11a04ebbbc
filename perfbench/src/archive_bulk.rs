//! `archive-bulk`: the whole synthetic SP dataset at 1/16 scale through
//! `lc_core::archive::encode` and `decode` on an `nproc`-thread pool,
//! with three shipped presets. The traced run adds the layers beneath
//! (kernels, stage chain, CRC, 1-thread archive, pool dispatch and
//! look-back scan) and the built `lc` binary above.

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use lc_core::{archive, checksum, Component, KernelStats, Pipeline, CHUNK_SIZE};
use lc_data::{Scale, SP_FILES};
use lc_parallel::Pool;

use crate::report::{nproc, Outcome};
use crate::trace::Tracer;
use crate::{gap_frac, Run, Setups};

/// The presets measured, in report order.
pub const PRESETS: [&str; 3] = ["sp-speed", "sp-ratio", "generic"];

/// Components timed by the kernel layer.
pub const KERNELS: [&str; 11] = [
    "TCMS_4", "DIFF_4", "RZE_4", "DBESF_4", "DIFFMS_4", "RARE_4", "BIT_1", "DIFF_1", "RZE_1",
    "RLE_4", "TUPL8_4",
];

/// Dataset scale: 1/16 of the paper's SP sizes (~60 MB).
const SCALE: u32 = 16;

/// The seed shuffles the dataset in windows of this many bytes (64 chunks).
const WINDOW: usize = 64 * CHUNK_SIZE;

/// Seed stream for the window order.
const STREAM_WINDOWS: u64 = 1;

/// The end-to-end loop runs at least this many timed rounds.
const MIN_ROUNDS: usize = 3;

/// Rounds of the traced run's stage / CRC / 1-thread archive turns.
const LAYER_ROUNDS: usize = 3;

/// The 13 SP files at 1/16, cut into windows and concatenated in the
/// seed's order. Generated on `pool`, one file per task.
pub fn corpus(seed: u64, pool: &Pool) -> Vec<u8> {
    let files = pool.map(SP_FILES.len(), |i| {
        lc_data::generate(&SP_FILES[i], Scale::denominator(SCALE))
    });
    let windows: Vec<&[u8]> = files.iter().flat_map(|f| f.chunks(WINDOW)).collect();
    let mut out = Vec::with_capacity(files.iter().map(Vec::len).sum());
    for i in crate::rng::permutation(seed, STREAM_WINDOWS, windows.len()) {
        out.extend_from_slice(windows[i]);
    }
    out
}

fn pipelines() -> Vec<Pipeline> {
    PRESETS
        .iter()
        .map(|p| lc_components::presets::preset(p).expect("shipped preset parses"))
        .collect()
}

/// Timings of the end-to-end loop: per preset, and per round.
struct Pass {
    enc: Vec<Vec<f64>>,
    dec: Vec<Vec<f64>>,
    archive_bytes: Vec<u64>,
    /// Wall time of each timed round, checks included.
    rounds: Vec<f64>,
}

impl Pass {
    fn enc_median(&self, p: usize) -> f64 {
        crate::stats::median(&self.enc[p])
    }

    fn dec_median(&self, p: usize) -> f64 {
        crate::stats::median(&self.dec[p])
    }

    fn enc_total(&self) -> f64 {
        (0..PRESETS.len()).map(|p| self.enc_median(p)).sum()
    }

    fn dec_total(&self) -> f64 {
        (0..PRESETS.len()).map(|p| self.dec_median(p)).sum()
    }
}

/// Encode, stat and decode every preset round after round for
/// `seconds`, checking every output. One untimed warm-up round first.
fn e2e_loop(input: &[u8], pool: &Pool, seconds: f64, tr: &Tracer, out: &mut Outcome) -> Pass {
    let pipes = pipelines();
    let threads = pool.threads();
    let names: Vec<(String, String)> = PRESETS
        .iter()
        .map(|p| {
            (
                format!("archive.{p}.enc.{threads}t"),
                format!("archive.{p}.dec.{threads}t"),
            )
        })
        .collect();
    let mut pass = Pass {
        enc: vec![Vec::new(); PRESETS.len()],
        dec: vec![Vec::new(); PRESETS.len()],
        archive_bytes: vec![0; PRESETS.len()],
        rounds: Vec::new(),
    };
    let start = Instant::now();
    let mut round = 0usize;
    loop {
        let round_start = Instant::now();
        for (p, pipe) in pipes.iter().enumerate() {
            let span = tr.span(&names[p].0);
            let arc = archive::encode(pipe, input, pool);
            let enc_s = span.end();
            let earlier = pass.archive_bytes[p];
            out.op(earlier == 0 || earlier == arc.len() as u64, || {
                format!(
                    "archive-bulk {}: archive is {} B, earlier rounds {earlier} B",
                    PRESETS[p],
                    arc.len()
                )
            });
            pass.archive_bytes[p] = arc.len() as u64;
            let (dec_s, verdict) = decode_checked(&arc, input, pool, tr, &names[p].1);
            out.op(verdict.is_ok(), || {
                format!("archive-bulk {}: {}", PRESETS[p], verdict.unwrap_err())
            });
            if round > 0 {
                pass.enc[p].push(enc_s);
                pass.dec[p].push(dec_s);
            }
        }
        if round > 0 {
            pass.rounds.push(round_start.elapsed().as_secs_f64());
        }
        round += 1;
        if round > MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            break pass;
        }
    }
}

/// Decode `arc` under the span `name`. Ok only when `stat` (the
/// header) reports the input's length and the decode is byte-exact.
fn decode_checked(
    arc: &[u8],
    input: &[u8],
    pool: &Pool,
    tr: &Tracer,
    name: &str,
) -> (f64, Result<(), String>) {
    let stat_len = archive::parse_header(arc).map(|h| h.original_len);
    let span = tr.span(name);
    let back = archive::decode(arc, lc_components::lookup, pool);
    let secs = span.end();
    let verdict = match back {
        _ if stat_len != Ok(input.len() as u64) => Err(format!(
            "stat says {stat_len:?} for {} input bytes",
            input.len()
        )),
        Ok(b) if b == input => Ok(()),
        Ok(_) => Err("decode is not byte-exact".to_string()),
        Err(e) => Err(format!("decode failed: {e}")),
    };
    (secs, verdict)
}

/// Untraced run: the end-to-end metrics.
pub fn run(run: &Run, out: &mut Outcome) {
    let pool = Pool::new(nproc());
    let (mut setups, input) = Setups::start(|| corpus(run.seed, &pool));
    context(&input, &pool, out);
    let pass = e2e_loop(&input, &pool, run.seconds, &run.trace, out);
    let bytes = input.len() as f64 * PRESETS.len() as f64;
    let chunks = input.len().div_ceil(CHUNK_SIZE);
    // The second burst of set-ups comes after the rounds, with the
    // run's corpus dropped: a second 60 MB corpus alive next to it
    // would raise peak_rss_mb.
    drop(input);
    setups.burst();
    let archive_total: u64 = pass.archive_bytes.iter().sum();
    out.metric("setup_s", setups.median(), "s");
    out.context("setups", setups.count() as u64);
    out.metric("encode_mb_s", bytes / pass.enc_total() / 1e6, "MB/s");
    out.metric("decode_mb_s", bytes / pass.dec_total() / 1e6, "MB/s");
    out.metric("ratio", bytes / archive_total as f64, "x");
    out.metric("p50_ms", crate::stats::median(&pass.rounds) * 1e3, "ms");
    // An operation is one chunk's round trip through one preset.
    let ops = (chunks * PRESETS.len() * pass.rounds.len()) as f64;
    out.metric("ops_per_s", ops / pass.rounds.iter().sum::<f64>(), "1/s");
    out.context("rounds", pass.rounds.len() as u64);
    for (p, name) in PRESETS.iter().enumerate() {
        out.context(&format!("archive_bytes.{name}"), pass.archive_bytes[p]);
    }
}

fn context(input: &[u8], pool: &Pool, out: &mut Outcome) {
    out.context("corpus_bytes", input.len() as u64);
    out.context("chunks", input.len().div_ceil(CHUNK_SIZE) as u64);
    out.context("pool_threads", pool.threads() as u64);
}

/// Traced run: the archive path's layers, from kernels up to the built
/// `lc`, with the end-to-end loop traced for `seconds`. When this is
/// the run's `own` workload, the loop is split in half untraced, half
/// traced for the tracing overhead.
pub fn traced(run: &Run, seconds: f64, own: bool, out: &mut Outcome) {
    let tr = &run.trace;
    let n = nproc();
    let pool = Pool::new(n);
    let input = corpus(run.seed, &pool);
    if own {
        context(&input, &pool, out);
    }
    let mb = input.len() as f64 / 1e6;

    let pass = if own {
        let plain = e2e_loop(&input, &pool, seconds / 2.0, &Tracer::new(false), out);
        let pass = e2e_loop(&input, &pool, seconds / 2.0, tr, out);
        let plain_s = plain.enc_total() + plain.dec_total();
        out.metric(
            "trace.overhead_frac",
            (pass.enc_total() + pass.dec_total()) / plain_s - 1.0,
            "frac",
        );
        pass
    } else {
        e2e_loop(&input, &pool, seconds, tr, out)
    };

    let chunks: Vec<&[u8]> = input.chunks(CHUNK_SIZE).collect();
    kernel_layer(tr, &chunks, out);

    let one = Pool::new(1);
    let pipes = pipelines();
    let mut stage_sizes = Vec::new();
    for (p, name) in PRESETS.iter().enumerate() {
        let stages = pipes[p].stages();
        let encoded = stage_chain(stages, &chunks, name, out);
        if p == 0 {
            stage_sizes = encoded.iter().map(|(e, _)| e.len() as u64).collect();
        }
        let arc = archive::encode(&pipes[p], &input, &one);
        let mut crc = Vec::with_capacity(LAYER_ROUNDS);
        // The stage chain, the CRC passes and the 1-thread archive take
        // turns round by round, so a drift in machine speed hits the
        // parts and the whole alike and the gap stays meaningful.
        for _ in 0..LAYER_ROUNDS {
            time_stage_encode(tr, &format!("stage.{name}.enc"), stages, &chunks);
            let (_, ok) = time_stage_decode(tr, &format!("stage.{name}.dec"), stages, &encoded);
            out.op(ok, || format!("stage {name}: chain decode failed"));
            // CRC as the archive spends it: per chunk, then the whole stream.
            let span = tr.span("checksum.crc32.chunks");
            for c in &chunks {
                black_box(checksum::crc32(c));
            }
            let chunks_s = span.end();
            let span = tr.span("checksum.crc32");
            black_box(checksum::crc32(&input));
            crc.push(chunks_s + span.end());
            let span = tr.span(&format!("archive.{name}.enc.1t"));
            black_box(archive::encode(&pipes[p], &input, &one));
            span.end();
            let (_, verdict) =
                decode_checked(&arc, &input, &one, tr, &format!("archive.{name}.dec.1t"));
            out.op(verdict.is_ok(), || {
                format!("archive-bulk {name} at 1 thread: {}", verdict.unwrap_err())
            });
        }
        let stage_enc = tr.median_secs(&format!("stage.{name}.enc"));
        let stage_dec = tr.median_secs(&format!("stage.{name}.dec"));
        let crc_s = crate::stats::median(&crc);
        let enc_1t = tr.median_secs(&format!("archive.{name}.enc.1t"));
        let dec_1t = tr.median_secs(&format!("archive.{name}.dec.1t"));
        let enc_nt = pass.enc_median(p);
        let dec_nt = pass.dec_median(p);
        out.metric(format!("stage.{name}.enc_mb_s"), mb / stage_enc, "MB/s");
        out.metric(format!("stage.{name}.dec_mb_s"), mb / stage_dec, "MB/s");
        out.metric(format!("archive.{name}.enc_mb_s"), mb / enc_nt, "MB/s");
        out.metric(format!("archive.{name}.dec_mb_s"), mb / dec_nt, "MB/s");
        out.metric(format!("archive.{name}.enc_1t_mb_s"), mb / enc_1t, "MB/s");
        out.metric(format!("archive.{name}.dec_1t_mb_s"), mb / dec_1t, "MB/s");
        out.metric(
            format!("archive.{name}.enc_gap_frac"),
            gap_frac(enc_1t, &[stage_enc, crc_s]),
            "frac",
        );
        out.metric(
            format!("archive.{name}.dec_gap_frac"),
            gap_frac(dec_1t, &[stage_dec, crc_s]),
            "frac",
        );
        out.metric(
            format!("archive.{name}.scaling"),
            (enc_1t + dec_1t) / ((enc_nt + dec_nt) * n as f64),
            "frac",
        );
    }
    out.metric(
        "checksum.crc32_mb_s",
        mb / tr.median_secs("checksum.crc32"),
        "MB/s",
    );

    parallel_layer(tr, &pool, &stage_sizes, out);
    cli_layer(run, &input, &pipes[0], &pool, out);
}

/// Single-thread `Component::encode_chunk` / `decode_chunk` over every
/// chunk, appending into one retained buffer so the loop allocates
/// nothing after the first pass.
fn kernel_layer(tr: &Tracer, chunks: &[&[u8]], out: &mut Outcome) {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mb = total as f64 / 1e6;
    let mut enc = Vec::with_capacity(2 * total);
    let mut dec = Vec::with_capacity(total);
    let mut ends = Vec::with_capacity(chunks.len());
    for name in KERNELS {
        let comp: Arc<dyn Component> = lc_components::lookup(name).expect("kernel exists");
        let mut stats = KernelStats::new();
        enc.clear();
        ends.clear();
        let span = tr.span(&format!("kernels.{name}.enc"));
        for c in chunks {
            comp.encode_chunk(c, &mut enc, &mut stats);
            ends.push(enc.len());
        }
        let enc_s = span.end();
        dec.clear();
        let mut ok = true;
        let span = tr.span(&format!("kernels.{name}.dec"));
        let mut from = 0;
        for &end in &ends {
            ok &= comp
                .decode_chunk(&enc[from..end], &mut dec, &mut stats)
                .is_ok();
            from = end;
        }
        let dec_s = span.end();
        let exact = ok && chunks.iter().map(|c| c.len()).sum::<usize>() == dec.len() && {
            let mut at = 0;
            chunks.iter().all(|c| {
                at += c.len();
                dec[at - c.len()..at] == **c
            })
        };
        out.op(exact, || {
            format!("kernels {name}: decode is not byte-exact")
        });
        out.metric(format!("kernels.{name}.enc_mb_s"), mb / enc_s, "MB/s");
        out.metric(format!("kernels.{name}.dec_mb_s"), mb / dec_s, "MB/s");
    }
}

/// One chunk after the stage chain, with the stages that applied.
pub type Staged = (Vec<u8>, Vec<bool>);

/// Untimed: run the preset's chain over every chunk through
/// `encode_stage`, check that `decode_stage` inverts it, and report the
/// share of stages applied (the copy-on-expand waste ratio).
fn stage_chain(
    stages: &[Arc<dyn Component>],
    chunks: &[&[u8]],
    name: &str,
    out: &mut Outcome,
) -> Vec<Staged> {
    let (encoded, applied, ok) = encode_chain(stages, chunks);
    out.op(ok, || {
        format!("stage {name}: chain decode is not byte-exact")
    });
    out.metric(
        format!("stage.{name}.applied_frac"),
        applied as f64 / (chunks.len() * stages.len()) as f64,
        "frac",
    );
    encoded
}

/// Run `stages` over every chunk through `encode_stage` and invert each
/// chunk through `decode_stage`. Returns the encoded chunks, the number
/// of stages that applied, and whether every chunk came back exact.
pub fn encode_chain(stages: &[Arc<dyn Component>], chunks: &[&[u8]]) -> (Vec<Staged>, usize, bool) {
    let mut stats = KernelStats::new();
    let mut applied = 0usize;
    let mut ok = true;
    let encoded: Vec<Staged> = chunks
        .iter()
        .map(|c| {
            let mut cur = c.to_vec();
            let mut mask = Vec::with_capacity(stages.len());
            for s in stages {
                let mut next = Vec::new();
                let a = lc_core::encode_stage(s.as_ref(), &cur, &mut next, &mut stats);
                if a {
                    cur = next;
                    applied += 1;
                }
                mask.push(a);
            }
            let mut back = cur.clone();
            for (s, &a) in stages.iter().zip(&mask).rev() {
                if a {
                    let mut next = Vec::new();
                    ok &= lc_core::decode_stage(s.as_ref(), &back, &mut next, &mut stats).is_ok();
                    back = next;
                }
            }
            ok &= back == *c;
            (cur, mask)
        })
        .collect();
    (encoded, applied, ok)
}

/// The chain per chunk through `encode_stage` on one thread, under the
/// span `name`, ping-ponging between two retained buffers exactly like
/// a pool worker's scratch arena. Returns the seconds taken.
pub fn time_stage_encode(
    tr: &Tracer,
    name: &str,
    stages: &[Arc<dyn Component>],
    chunks: &[&[u8]],
) -> f64 {
    let mut ping = Vec::new();
    let mut pong = Vec::new();
    let mut stats = KernelStats::new();
    let span = tr.span(name);
    for c in chunks {
        ping.clear();
        ping.extend_from_slice(c);
        for s in stages {
            if lc_core::encode_stage(s.as_ref(), &ping, &mut pong, &mut stats) {
                std::mem::swap(&mut ping, &mut pong);
            }
        }
        black_box(&ping);
    }
    span.end()
}

/// The inverse chain per chunk through `decode_stage`, as above.
/// Returns the seconds taken and whether every stage decoded.
pub fn time_stage_decode(
    tr: &Tracer,
    name: &str,
    stages: &[Arc<dyn Component>],
    encoded: &[Staged],
) -> (f64, bool) {
    let mut ping = Vec::new();
    let mut pong = Vec::new();
    let mut stats = KernelStats::new();
    let mut ok = true;
    let span = tr.span(name);
    for (enc, mask) in encoded {
        ping.clear();
        ping.extend_from_slice(enc);
        for (s, &a) in stages.iter().zip(mask).rev() {
            if a {
                ok &= lc_core::decode_stage(s.as_ref(), &ping, &mut pong, &mut stats).is_ok();
                std::mem::swap(&mut ping, &mut pong);
            }
        }
        black_box(&ping);
    }
    (span.end(), ok)
}

/// `Pool::run` dispatch over the serve chunk counts (4–8 empty tasks)
/// and `parallel_exclusive_scan` over the corpus's chunk sizes.
fn parallel_layer(tr: &Tracer, pool: &Pool, sizes: &[u64], out: &mut Outcome) {
    for _ in 0..200 {
        for tasks in 4..=8 {
            let span = tr.span("parallel.dispatch");
            pool.run(tasks, |i| {
                black_box(i);
            });
            span.end();
        }
    }
    out.metric(
        "parallel.dispatch_us",
        tr.median_secs("parallel.dispatch") * 1e6,
        "us",
    );
    let expect: u64 = sizes.iter().sum();
    let mut ok = true;
    for _ in 0..50 {
        let span = tr.span("parallel.scan");
        let (prefix, total) = lc_parallel::scan::parallel_exclusive_scan(pool, sizes);
        span.end();
        ok &= total == expect
            && prefix
                .last()
                .is_none_or(|&l| l + sizes[sizes.len() - 1] == total);
    }
    out.op(ok, || "parallel: exclusive scan total is wrong".into());
    out.metric(
        "parallel.scan_ns_per_chunk",
        tr.median_secs("parallel.scan") * 1e9 / sizes.len() as f64,
        "ns",
    );
}

/// The built `lc pack` / `lc unpack` on a file of the corpus with
/// `sp-speed`: file I/O plus process start on top of the archive.
fn cli_layer(run: &Run, input: &[u8], sp_speed: &Pipeline, pool: &Pool, out: &mut Outcome) {
    let tr = &run.trace;
    let dir = run.tmp.join("cli");
    std::fs::create_dir_all(&dir).expect("create cli scratch dir");
    let raw = dir.join("corpus.sp");
    let packed = dir.join("corpus.lc");
    let back = dir.join("corpus.out");
    std::fs::write(&raw, input).expect("write cli input");
    let reference = archive::encode(sp_speed, input, pool);
    let lc = |args: &[&Path], name: &str| -> bool {
        let span = tr.span(name);
        let status = Command::new(&run.lc)
            .arg(args[0])
            .args(&args[1..])
            .stdout(Stdio::null())
            .status();
        span.end();
        status.is_ok_and(|s| s.success())
    };
    for _ in 0..3 {
        let packed_ok = lc(
            &[
                Path::new("pack"),
                Path::new("--preset"),
                Path::new("sp-speed"),
                &raw,
                &packed,
            ],
            "cli.pack",
        );
        let unpacked_ok = lc(&[Path::new("unpack"), &packed, &back], "cli.unpack");
        let same_archive = std::fs::read(&packed).is_ok_and(|b| b == reference);
        let exact = std::fs::read(&back).is_ok_and(|b| b == input);
        out.op(packed_ok && unpacked_ok && same_archive && exact, || {
            format!(
                "cli: pack ok {packed_ok}, unpack ok {unpacked_ok}, archive matches library {same_archive}, round trip exact {exact}"
            )
        });
    }
    let mb = input.len() as f64 / 1e6;
    out.metric("cli.pack_mb_s", mb / tr.median_secs("cli.pack"), "MB/s");
    out.metric("cli.unpack_mb_s", mb / tr.median_secs("cli.unpack"), "MB/s");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_input() -> Vec<u8> {
        let f = lc_data::file_by_name("obs_info").expect("SP file exists");
        lc_data::generate(f, Scale::tiny())
    }

    #[test]
    fn checker_accepts_a_good_archive_and_rejects_a_corrupted_one() {
        let pool = Pool::new(2);
        let tr = Tracer::new(false);
        let input = small_input();
        let pipe = lc_components::presets::preset("sp-speed").unwrap();
        let arc = archive::encode(&pipe, &input, &pool);
        assert_eq!(decode_checked(&arc, &input, &pool, &tr, "d").1, Ok(()));

        let mut flipped = arc.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(decode_checked(&flipped, &input, &pool, &tr, "d").1.is_err());

        // A well-formed archive of other bytes fails the round trip.
        let mut other = input.clone();
        other[100] ^= 1;
        let arc_other = archive::encode(&pipe, &other, &pool);
        assert!(decode_checked(&arc_other, &input, &pool, &tr, "d")
            .1
            .is_err());

        // A truncated archive fails at stat.
        assert!(decode_checked(&arc[..10], &input, &pool, &tr, "d")
            .1
            .is_err());
    }

    #[test]
    fn seeds_reorder_windows_of_the_same_bytes() {
        let pool = Pool::new(2);
        let a = corpus(1, &pool);
        let b = corpus(2, &pool);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        assert_eq!(a, corpus(1, &pool));
        // Same bytes, other order: the byte histograms agree.
        let histogram = |v: &[u8]| {
            let mut h = [0u64; 256];
            for &b in v {
                h[b as usize] += 1;
            }
            h
        };
        assert_eq!(histogram(&a), histogram(&b));
    }
}
