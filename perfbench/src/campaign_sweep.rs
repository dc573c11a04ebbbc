//! `campaign-sweep`: the paper's characterization path. A journaled
//! `lc_study::run_campaign_with` over the TCMS+TUPL+DIFF+RLE+RZE space,
//! all 13 SP files at 1/8192 in the seed's order, O1+O3, default sweep
//! and prune mode, then publishing what `reproduce` publishes: every
//! figure (CSV + SVG), `run.json` and `EXPERIMENTS.md`.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{Direction, OptLevel};
use lc_chaos::fs::{atomic_write, SyncPolicy};
use lc_core::checksum::crc32;
use lc_core::{Component, KernelStats, CHUNK_SIZE};
use lc_data::{Scale, SP_FILES};
use lc_json::Value;
use lc_study::{
    figures, merge_shards, report, run_campaign_with, CampaignOptions, CampaignOutcome, FigId,
    Measurements, PruneMode, PrunePlan, ShardSpec, Space, StudyConfig,
};

use lc_parallel::Pool;

use crate::archive_bulk::{encode_chain, time_stage_decode, time_stage_encode, Staged};
use crate::report::{nproc, Outcome};
use crate::trace::Tracer;
use crate::{stats, Run, Setups};

/// Families of the swept space (3,872 pipelines).
pub const FAMILIES: [&str; 5] = ["TCMS", "TUPL", "DIFF", "RLE", "RZE"];

/// Input scale: 1/8192 of the paper's sizes.
const SCALE: u32 = 8192;

/// Seed stream for the file order.
const STREAM_FILES: u64 = 2;

/// Set-up time sampled between two repetitions, seconds.
const BETWEEN_REPS_SETUP_S: f64 = 0.1;

/// Time spent between two repetitions on round trips of the inputs
/// through the campaign's best pipeline, seconds. The host's speed
/// moves within seconds, so a run samples it in a window between
/// every two repetitions, several seconds in all.
const BETWEEN_REPS_ROUND_TRIP_S: f64 = 0.5;

/// The seed whose `run.json` digest is recorded with the benchmark.
pub const DEFAULT_SEED: u64 = 1;

/// CRC-32 of `run.json` for [`DEFAULT_SEED`], recorded when the
/// benchmark was defined. A program change that alters any measured
/// number, figure statistic or finding changes this digest.
pub const DEFAULT_SEED_RUN_JSON_CRC32: u32 = 0x4d5f_abc9;

/// The campaign for `seed`: the 13 files in the seed's order.
pub fn config(seed: u64) -> StudyConfig {
    let order = crate::rng::permutation(seed, STREAM_FILES, SP_FILES.len());
    StudyConfig {
        space: Space::restricted_to_families(&FAMILIES),
        scale: Scale::denominator(SCALE),
        threads: nproc(),
        files: order.into_iter().map(|i| &SP_FILES[i]).collect(),
        opt_levels: vec![OptLevel::O1, OptLevel::O3],
        verify: false,
    }
}

/// Check a `run.json` against the recorded digest, when one applies.
/// `Err` names both digests.
pub fn check_digest(seed: u64, run_json: &str) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let got = crc32(run_json.as_bytes());
    if got == DEFAULT_SEED_RUN_JSON_CRC32 {
        Ok(())
    } else {
        Err(format!(
            "run.json crc32 {got:08x} differs from the recorded {DEFAULT_SEED_RUN_JSON_CRC32:08x}"
        ))
    }
}

/// Write every figure, `run.json` and `EXPERIMENTS.md` into `dir` the
/// way `reproduce` does; returns the `run.json` text.
fn publish(m: &Measurements, dir: &Path) -> String {
    let write = |name: &str, bytes: &[u8]| {
        atomic_write(&dir.join(name), bytes, SyncPolicy::default())
            .unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
    };
    let mut figs = Vec::new();
    for id in FigId::ALL {
        let fig = figures::figure(m, id);
        write(
            &format!("fig{:02}.csv", id.number()),
            figures::to_csv(&fig).as_bytes(),
        );
        write(
            &format!("fig{:02}.svg", id.number()),
            lc_study::svg::figure_svg(&fig).as_bytes(),
        );
        figs.push(fig);
    }
    let run_json = report::to_json(m, &figs);
    write("run.json", run_json.as_bytes());
    write(
        "EXPERIMENTS.md",
        report::experiments_markdown(m, &figs).as_bytes(),
    );
    run_json
}

/// One campaign plus its publication.
struct Rep {
    wall_s: f64,
    execute_s: f64,
    run_json: String,
    outcome: CampaignOutcome,
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create campaign scratch dir");
}

/// Run the campaign once in a fresh `dir` (journaled when `journal`),
/// publish, and time both phases under spans.
fn rep(sc: &StudyConfig, dir: &Path, journal: bool, tr: &Tracer) -> Rep {
    fresh_dir(dir);
    let opts = CampaignOptions {
        journal: journal.then(|| dir.join("journal.jsonl")),
        ..Default::default()
    };
    let root = tr.span("campaign.rep");
    let span = tr.span("campaign.execute");
    let outcome = run_campaign_with(sc, &opts).expect("campaign journal failed");
    let execute_s = span.end();
    let span = tr.span("campaign.publish");
    let run_json = publish(&outcome.measurements, dir);
    span.end();
    Rep {
        wall_s: root.end(),
        execute_s,
        run_json,
        outcome,
    }
}

/// Check one repetition: complete, nothing quarantined, and the same
/// `run.json` as the first repetition (and the recorded digest).
fn check_rep(seed: u64, units: usize, first: &str, r: &Rep, out: &mut Outcome) {
    let o = &r.outcome;
    let digest = check_digest(seed, &r.run_json);
    out.op(
        !o.interrupted
            && o.quarantined.is_empty()
            && o.executed_units == units
            && r.run_json == first
            && digest.is_ok(),
        || {
            format!(
                "campaign-sweep: interrupted {}, {} quarantined, {} of {units} units, run.json same as first rep {}, {}",
                o.interrupted,
                o.quarantined.len(),
                o.executed_units,
                r.run_json == first,
                digest.err().unwrap_or_else(|| "digest ok".into())
            )
        },
    );
}

/// What a series of repetitions keeps: every wall time, and the last
/// repetition whole (earlier ones are dropped as soon as they are
/// checked, so memory does not grow with the repetition count).
struct Reps {
    walls: Vec<f64>,
    last: Rep,
}

impl Reps {
    fn median_wall(&self) -> f64 {
        crate::stats::median(&self.walls)
    }
}

/// Repeat the campaign for `seconds` (at least twice), checking each
/// repetition against the first, and call `between` with the first
/// repetition and `out` between repetitions.
fn reps(
    run: &Run,
    sc: &StudyConfig,
    seconds: f64,
    tr: &Tracer,
    between: &mut dyn FnMut(&Rep, &mut Outcome),
    out: &mut Outcome,
) -> Reps {
    let dir = run.tmp.join("campaign");
    let start = std::time::Instant::now();
    let first = rep(sc, &dir, true, tr);
    check_rep(run.seed, units(sc), &first.run_json, &first, out);
    let mut walls = vec![first.wall_s];
    let mut last = None;
    while walls.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        between(&first, out);
        let r = rep(sc, &dir, true, tr);
        check_rep(run.seed, units(sc), &first.run_json, &r, out);
        walls.push(r.wall_s);
        last = Some(r);
    }
    Reps {
        walls,
        last: last.expect("at least two repetitions"),
    }
}

/// Work units of one campaign: one per (file, stage-1 component).
fn units(sc: &StudyConfig) -> usize {
    sc.files.len() * sc.space.components.len()
}

fn work(sc: &StudyConfig) -> f64 {
    (sc.space.len() * sc.files.len()) as f64
}

/// The campaign's set-up: its config and its 13 inputs, generated on
/// `pool`, one file per task.
fn setup(seed: u64, pool: &Pool) -> (StudyConfig, Vec<Vec<u8>>) {
    let sc = config(seed);
    let inputs = pool.map(sc.files.len(), |i| lc_data::generate(sc.files[i], sc.scale));
    (sc, inputs)
}

/// The pipeline with the best dataset-level compression ratio the
/// campaign measured, and that ratio.
fn best_pipeline(m: &Measurements) -> (String, f64) {
    let best = (0..m.space.len())
        .max_by(|&a, &b| m.ratio(a).total_cmp(&m.ratio(b)))
        .expect("space is not empty");
    (m.space.describe(m.space.id_at(best)), m.ratio(best))
}

/// Round trips of the campaign's inputs through its best pipeline, per
/// chunk through `encode_stage` / `decode_stage` as the campaign's own
/// runner calls them: no archive container or CRC. Each of `nproc`
/// pool threads makes the whole pass, so every core is busy. (A single
/// thread reads the speed of the one core the scheduler keeps it on,
/// which on a shared host differs from one process to the next.)
struct StageTrips {
    pool: Pool,
    stages: Vec<Arc<dyn Component>>,
    encoded: Vec<Staged>,
    /// Per pass over the inputs on every thread: encode and decode
    /// seconds.
    enc: Vec<f64>,
    dec: Vec<f64>,
}

impl StageTrips {
    fn new() -> Self {
        Self {
            pool: Pool::new(nproc()),
            stages: Vec::new(),
            encoded: Vec::new(),
            enc: Vec::new(),
            dec: Vec::new(),
        }
    }

    /// Passes over `inputs` for at least `secs` (at least one), with the
    /// best pipeline of `first`. The first call also checks that the
    /// pipeline round-trips every chunk byte-exact.
    fn sample(&mut self, first: &Rep, inputs: &[Vec<u8>], secs: f64, out: &mut Outcome) {
        let chunks: Vec<&[u8]> = inputs.iter().flat_map(|i| i.chunks(CHUNK_SIZE)).collect();
        if self.stages.is_empty() {
            let (text, _) = best_pipeline(&first.outcome.measurements);
            let pipe = lc_components::parse_pipeline(&text).expect("campaign pipeline parses");
            self.stages = pipe.stages().to_vec();
            let (encoded, _, exact) = encode_chain(&self.stages, &chunks);
            out.op(exact, || {
                format!("campaign-sweep: best pipeline {text} does not round-trip")
            });
            self.encoded = encoded;
        }
        let tr = Tracer::new(false);
        let threads = self.pool.threads();
        let begin = Instant::now();
        loop {
            let t0 = Instant::now();
            self.pool.run(threads, |_| {
                time_stage_encode(&tr, "", &self.stages, &chunks);
            });
            self.enc.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let ok = self.pool.map(threads, |_| {
                time_stage_decode(&tr, "", &self.stages, &self.encoded).1
            });
            self.dec.push(t0.elapsed().as_secs_f64());
            out.op(ok.iter().all(|&k| k), || {
                "campaign-sweep: best pipeline failed to decode".into()
            });
            if begin.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
    }
}

fn context(sc: &StudyConfig, inputs: &[Vec<u8>], out: &mut Outcome) {
    out.context(
        "corpus_bytes",
        inputs.iter().map(|i| i.len() as u64).sum::<u64>(),
    );
    out.context(
        "chunks",
        sc.files
            .iter()
            .map(|f| sc.scale.bytes_for(f).div_ceil(CHUNK_SIZE) as u64)
            .sum::<u64>(),
    );
    out.context("pipelines", sc.space.len() as u64);
    out.context(
        "files",
        Value::array(sc.files.iter().map(|f| Value::from(f.name))),
    );
    out.context("pool_threads", sc.threads as u64);
}

/// Untraced run: the end-to-end metrics.
pub fn run(run: &Run, out: &mut Outcome) {
    let pool = Pool::new(nproc());
    let (mut setups, (sc, inputs)) = Setups::start(|| setup(run.seed, &pool));
    context(&sc, &inputs, out);
    let mut trips = StageTrips::new();
    let done = reps(
        run,
        &sc,
        run.seconds,
        &run.trace,
        &mut |first, out| {
            setups.sample(BETWEEN_REPS_SETUP_S);
            trips.sample(first, &inputs, BETWEEN_REPS_ROUND_TRIP_S, out);
        },
        out,
    );
    // Every pool thread encodes (decodes) every input once per pass.
    let mb = (inputs.iter().map(Vec::len).sum::<usize>() * nproc()) as f64 / 1e6;
    let (best, ratio) = best_pipeline(&done.last.outcome.measurements);
    out.metric("setup_s", setups.median(), "s");
    out.context("setups", setups.count() as u64);
    out.metric("encode_mb_s", mb / stats::median(&trips.enc), "MB/s");
    out.metric("decode_mb_s", mb / stats::median(&trips.dec), "MB/s");
    out.metric("ratio", ratio, "x");
    out.metric("p50_ms", done.median_wall() * 1e3, "ms");
    // An operation is one (pipeline, file) cell of the sweep.
    out.metric("ops_per_s", work(&sc) / done.median_wall(), "1/s");
    out.context("best_pipeline", best);
    out.context("round_trip_passes", trips.enc.len() as u64);
    out.context("reps", done.walls.len() as u64);
    out.context(
        "wall_s",
        lc_json::Value::array(done.walls.iter().map(|&w| w.into())),
    );
    out.context(
        "run_json_crc32",
        format!("{:08x}", crc32(done.last.run_json.as_bytes())),
    );
    let _ = std::fs::remove_dir_all(run.tmp.join("campaign"));
}

/// Traced run: campaign, cost-model and shard layers, with campaign
/// repetitions traced for `seconds`. When this is the run's `own`
/// workload, half the repetitions run untraced first, for the tracing
/// overhead on the repetition wall time.
pub fn traced(run: &Run, seconds: f64, own: bool, out: &mut Outcome) {
    let tr = &run.trace;
    let (sc, inputs) = setup(run.seed, &Pool::new(nproc()));
    if own {
        context(&sc, &inputs, out);
    }
    let dir = run.tmp.join("campaign");

    let warm = rep(&sc, &dir, true, &Tracer::new(false));
    check_rep(run.seed, units(&sc), &warm.run_json, &warm, out);
    drop(warm);
    let traced = if own {
        let untraced = Tracer::new(false);
        let plain = reps(run, &sc, seconds / 2.0, &untraced, &mut |_, _| {}, out);
        let traced = reps(run, &sc, seconds / 2.0, tr, &mut |_, _| {}, out);
        out.metric(
            "trace.overhead_frac",
            traced.median_wall() / plain.median_wall() - 1.0,
            "frac",
        );
        traced
    } else {
        reps(run, &sc, seconds, tr, &mut |_, _| {}, out)
    };

    let span = tr.span("campaign.plan");
    black_box(PrunePlan::for_space(&sc.space, PruneMode::default()));
    span.end();
    out.metric(
        "campaign.plan_ms",
        tr.median_secs("campaign.plan") * 1e3,
        "ms",
    );
    let execute_s = tr.median_secs("campaign.execute");
    out.metric("campaign.execute_s", execute_s, "s");
    out.metric(
        "campaign.publish_s",
        tr.median_secs("campaign.publish"),
        "s",
    );
    let last = &traced.last;
    let cache = &last.outcome.cache;
    out.metric("campaign.prefix_hit_rate", cache.hit_rate(), "frac");
    out.metric(
        "campaign.prefix_resident_mb",
        cache.peak_resident_mb(),
        "MiB",
    );
    out.metric(
        "campaign.pruned_pipelines",
        last.outcome.prune.pruned_pipelines as f64,
        "count",
    );
    journal_metrics(&dir.join("journal.jsonl"), out);

    let unjournaled = rep(&sc, &dir, false, tr);
    check_rep(run.seed, units(&sc), &last.run_json, &unjournaled, out);
    out.metric(
        "campaign.journal_overhead_s",
        execute_s - unjournaled.execute_s,
        "s",
    );

    gpu_sim_layer(tr, &sc, last, execute_s, out);
    shard_layer(run, &sc, &last.run_json, execute_s, out);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Unit timings and size from the last journal.
fn journal_metrics(path: &Path, out: &mut Outcome) {
    let text = std::fs::read_to_string(path).expect("read campaign journal");
    let mut unit_ms = Vec::new();
    let mut stage_ms = [0.0f64; 3];
    for line in text.lines() {
        let Ok(v) = Value::parse(line) else { continue };
        if v.get("kind").and_then(Value::as_str) != Some("unit") {
            continue;
        }
        let timing = &v["timing"];
        unit_ms.push(timing["elapsed_ms"].as_f64().unwrap_or(0.0));
        for (s, total) in stage_ms.iter_mut().enumerate() {
            *total += timing["stage_ms"][s].as_f64().unwrap_or(0.0);
        }
    }
    let sorted = crate::stats::sorted(unit_ms);
    out.op(!sorted.is_empty(), || {
        "campaign-sweep: journal has no unit records".into()
    });
    if sorted.is_empty() {
        return;
    }
    out.metric(
        "campaign.unit_ms.p50",
        crate::stats::percentile_sorted(&sorted, 50.0),
        "ms",
    );
    out.metric("campaign.unit_ms.max", sorted[sorted.len() - 1], "ms");
    // Stage 1 is left out: the journal floors each unit's stage times
    // to whole milliseconds, and stage 1 takes less than 1 ms per unit,
    // so its sum always reads 0. Stages 2 and 3 read low by the same
    // flooring.
    for (s, total) in stage_ms.iter().enumerate().skip(1) {
        out.metric(format!("campaign.stage_ms.s{}", s + 1), *total, "ms");
    }
    out.metric("campaign.journal_mb", text.len() as f64 / 1e6, "MB");
}

/// `gpu_sim::pipeline_time` per call, with kernel counters from a real
/// chunk, and its estimated share of campaign execute time.
fn gpu_sim_layer(tr: &Tracer, sc: &StudyConfig, last: &Rep, execute_s: f64, out: &mut Outcome) {
    let chunk = lc_data::generate(&SP_FILES[0], sc.scale);
    let chunk = &chunk[..CHUNK_SIZE];
    let pipe = lc_components::presets::preset("sp-speed").expect("shipped preset parses");
    let mut stats = Vec::new();
    let mut cur = chunk.to_vec();
    for s in pipe.stages() {
        let mut k = KernelStats::new();
        let mut next = Vec::new();
        if lc_core::encode_stage(s.as_ref(), &cur, &mut next, &mut k) {
            cur = next;
        }
        stats.push(k);
    }
    let configs = &last.outcome.measurements.configs;
    const ROUNDS: usize = 2000;
    let span = tr.span("gpu_sim.pipeline_time");
    for _ in 0..ROUNDS {
        for cfg in configs {
            black_box(gpu_sim::pipeline_time(
                cfg,
                Direction::Encode,
                black_box(&stats),
                1,
                CHUNK_SIZE as u64,
                cur.len() as u64,
            ));
        }
    }
    let ns = span.end() * 1e9 / (ROUNDS * configs.len()) as f64;
    out.metric("gpu_sim.pipeline_time_ns", ns, "ns");
    // One call per measured pipeline, file, platform and direction.
    let calls = (sc.space.len() - last.outcome.prune.pruned_pipelines) as f64
        * sc.files.len() as f64
        * configs.len() as f64
        * 2.0;
    out.metric("gpu_sim.est_share", calls * ns / 1e9 / execute_s, "frac");
}

/// The same sweep as two in-process shards, merged and resumed; the
/// fused `run.json` must be byte-identical to the direct one.
fn shard_layer(run: &Run, sc: &StudyConfig, direct: &str, execute_s: f64, out: &mut Outcome) {
    let tr = &run.trace;
    let dir = run.tmp.join("shards");
    fresh_dir(&dir);
    let mut sharded_s = 0.0;
    for index in 0..2 {
        let spec = ShardSpec { index, count: 2 };
        let opts = CampaignOptions {
            journal: Some(dir.join(spec.journal_file())),
            shard: Some(spec),
            ..Default::default()
        };
        let span = tr.span("shard.run");
        run_campaign_with(sc, &opts).expect("shard campaign failed");
        sharded_s += span.end();
    }
    let merged = dir.join("journal.jsonl");
    let span = tr.span("shard.merge");
    let report = merge_shards(&dir, &merged);
    let merge_s = span.end();
    let span = tr.span("shard.resume");
    let fused = run_campaign_with(
        sc,
        &CampaignOptions {
            journal: Some(merged),
            resume: true,
            ..Default::default()
        },
    )
    .expect("resume from merged journal failed");
    sharded_s += merge_s + span.end();
    let fused_json = publish(&fused.measurements, &dir);
    out.op(
        report.is_ok() && fused.executed_units == 0 && fused_json == direct,
        || {
            format!(
                "shard: merge {:?}, {} units re-executed, run.json identical {}",
                report.as_ref().err(),
                fused.executed_units,
                fused_json == direct
            )
        },
    );
    out.metric("shard.merge_ms", merge_s * 1e3, "ms");
    out.metric("shard.overhead_vs_single", sharded_s / execute_s, "x");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_check_rejects_a_mismatched_run_json() {
        let err = check_digest(DEFAULT_SEED, "{\"pipelines\": 1}").unwrap_err();
        assert!(err.contains("differs from the recorded"), "{err}");
        // Other seeds have no recorded digest; repetition identity
        // within the run is their check.
        assert!(check_digest(DEFAULT_SEED + 1, "anything").is_ok());
    }

    #[test]
    fn seeds_reorder_the_files_only() {
        let a = config(1);
        let b = config(2);
        let names = |sc: &StudyConfig| sc.files.iter().map(|f| f.name).collect::<Vec<_>>();
        assert_ne!(names(&a), names(&b));
        let mut sa = names(&a);
        let mut sb = names(&b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        assert_eq!(a.space.len(), 3872);
    }
}
