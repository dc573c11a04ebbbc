//! Chunked archive format and the parallel encode/decode drivers.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"LCRP"                      4 bytes
//! version u8 (= 3)                    1 byte
//! stage count u8                      1 byte
//! per stage: name_len u8, name bytes
//! original length u64                 8 bytes
//! CRC-32 of the original input u32    4 bytes
//! chunk count u32                     4 bytes
//! per chunk (v3, 9 bytes): mask u8, stored_len u32, chunk CRC-32 u32
//!   (mask bit s = stage s was applied; the CRC covers the chunk's
//!    ORIGINAL uncompressed bytes, so it validates the recovered
//!    plaintext — catching payload damage and decoder bugs alike)
//! payloads, concatenated in chunk order
//! ```
//!
//! Two older layouts are still read, never written:
//!
//! * LCRP version 2: 5-byte table entries without the per-chunk CRC;
//! * LCRS version 2, the stream format `lc compress --stream` used to
//!   write: magic `b"LCRS"`, version, the same stage names, then batches
//!   of `u32 count` + `count` v2 table entries + payloads, a zero count,
//!   and a trailer of `u64` original length + `u32` CRC-32.
//!
//! Neither carries per-chunk CRCs, so per-chunk integrity and salvage
//! degrade to structural-only detection for them.
//!
//! Encoders. [`encode`], [`encode_with_stats`] and [`encode_cancellable`]
//! build the archive in memory in one pass over the input: chunks are
//! encoded in parallel and each chunk's payload offset is produced by the
//! decoupled look-back scan from `lc-parallel`, mirroring how the GPU
//! encoder propagates cumulative compressed sizes between thread blocks
//! (paper §6.1). The worker that encoded a chunk copies its stored bytes
//! straight to that offset in the archive buffer, so each chunk is copied
//! once. Each chunk's original bytes are checksummed once; the
//! whole-input CRC is folded from those chunk CRCs
//! ([`crate::checksum::crc32_combine_op`]), not computed in a second pass.
//! [`encode_windowed`] writes the same bytes from a reader of known
//! length while holding only [`WINDOW_CHUNKS`] chunks in memory: it
//! appends each window's payloads and seeks back once at the end to write
//! the chunk table and the whole-input CRC.
//!
//! Decoders. One per-chunk core serves three entry points. It recomputes
//! chunk start offsets with a prefix scan over the chunk table —
//! mirroring the GPU decoder's block prefix sum — then decodes chunks in
//! parallel straight into their fixed output regions, checksumming each
//! (and checking it against its table CRC in v3) and fencing each against
//! decoder panics. The whole-output CRC is folded from the chunk CRCs,
//! as on encode; only a salvage that lost chunks checksums the assembled
//! output again, since its zero-filled regions have no chunk CRC:
//!
//! * [`decode`] is all-or-nothing: any damage is a hard [`DecodeError`],
//!   and the lowest-index faulty chunk names it;
//! * [`decode_with`] adds the [`DecodeOptions`] bound (decompression-bomb
//!   guard) and cancel token;
//! * [`salvage`] takes the same options but degrades per chunk: it
//!   zero-fills the regions of chunks that do not validate and reports
//!   them in a [`SalvageReport`] instead of aborting.
//!
//! Copy-on-expand: a reducer stage whose output for some chunk is not
//! strictly smaller than its input is skipped for that chunk — the input
//! bytes are forwarded unchanged and the chunk's mask bit stays clear, so
//! the decoder performs no work for that stage (paper §6.4; this is what
//! makes RLE_1/2/8 decode quickly on 4-byte float data while RLE_4 must
//! actually decompress). Non-reducers never change the size and are always
//! applied.

use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lc_parallel::{CancelToken, DisjointSlice, LookbackScan, Pool};
use lc_telemetry::{span, ArgValue, Span};

use crate::chunk::{chunk_count, chunk_range, CHUNK_SIZE};
use crate::component::Component;
use crate::error::DecodeError;
use crate::pipeline::Pipeline;
use crate::scratch::Scratch;
use crate::stats::{KernelStats, PipelineStats, StageStats};

/// Archive magic bytes.
pub const MAGIC: [u8; 4] = *b"LCRP";
/// Current format version (2 added the whole-input CRC-32; 3 added a
/// per-chunk CRC-32 to the table, enabling chunk-granular salvage).
pub const VERSION: u8 = 3;
/// Oldest format version the decoder still accepts.
pub const MIN_VERSION: u8 = 2;
/// Maximum number of stages representable in the per-chunk mask.
pub const MAX_STAGES: usize = 8;
/// Bytes per chunk-table entry in format v2: mask u8 + stored_len u32.
pub const TABLE_ENTRY_V2: usize = 5;
/// Bytes per chunk-table entry in format v3: v2 fields + chunk CRC-32.
pub const TABLE_ENTRY_V3: usize = 9;
/// Chunks [`encode_windowed`] holds in memory at once (4 MiB of input).
pub const WINDOW_CHUNKS: usize = 256;
/// Magic bytes of the legacy LCRS v2 stream format (read-only).
const STREAM_MAGIC: [u8; 4] = *b"LCRS";

/// Parsed archive header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archive {
    /// Format version this archive was serialized with (2 or 3).
    pub version: u8,
    /// Stage component names in encode order.
    pub stage_names: Vec<String>,
    /// Uncompressed length in bytes.
    pub original_len: u64,
    /// CRC-32 of the original input (verified after decode).
    pub crc32: u32,
    /// Number of chunks.
    pub chunks: u32,
    /// Byte offset where the per-chunk table starts.
    pub table_offset: usize,
    /// Byte offset where payloads start.
    pub payload_offset: usize,
}

impl Archive {
    /// Bytes per chunk-table entry for this archive's format version.
    pub fn entry_size(&self) -> usize {
        if self.version >= 3 {
            TABLE_ENTRY_V3
        } else {
            TABLE_ENTRY_V2
        }
    }
}

/// Outcome of one unrecoverable chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFault {
    /// Index of the chunk that could not be recovered.
    pub chunk: u32,
    /// Why it could not be recovered.
    pub error: DecodeError,
}

/// What [`salvage`] managed to recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Chunks decoded and (for v3) validated against their per-chunk CRC.
    pub recovered: u32,
    /// Chunks whose output region was zero-filled instead.
    pub lost: u32,
    /// One entry per lost chunk, in chunk order.
    pub errors: Vec<ChunkFault>,
    /// Whether the assembled output matched the whole-archive CRC-32.
    /// Always `false` when chunks were lost; for v2 archives a `false`
    /// here with zero losses means value-level damage the 5-byte table
    /// cannot localize.
    pub archive_crc_ok: bool,
}

impl SalvageReport {
    /// True when every chunk decoded and the whole-archive CRC matched.
    pub fn is_clean(&self) -> bool {
        self.lost == 0 && self.archive_crc_ok
    }
}

/// Caller-chosen limits for [`decode_with`] and [`salvage`]. The default
/// bounds nothing and never cancels, which is what [`decode`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeOptions<'a> {
    /// Refuse archives declaring more output than this before allocating
    /// it: a hostile archive can declare an arbitrary length, and an
    /// unbounded decode would allocate it.
    pub max_decoded_bytes: Option<u64>,
    /// Polled at every chunk claim and once more after the last chunk;
    /// once it trips the decode fails with
    /// [`DecodeError::Cancelled`]. This is how an `lc-serve` request
    /// deadline stops a decode.
    pub cancel: Option<&'a CancelToken>,
}

/// Result of [`encode_with_stats`].
#[derive(Debug, Clone)]
pub struct EncodeResult {
    /// The serialized archive.
    pub archive: Vec<u8>,
    /// Per-stage execution statistics.
    pub stats: PipelineStats,
}

struct ChunkOutcome {
    /// Bytes the chunk occupies in the payload region.
    stored: u32,
    mask: u8,
    /// CRC-32 of the chunk's original (uncompressed) bytes.
    crc: u32,
    stage_records: Vec<StageRecord>,
}

#[derive(Clone, Copy, Default)]
struct StageRecord {
    kernel: KernelStats,
    applied: bool,
    bytes_in: u64,
    bytes_out: u64,
}

/// Encode `input` with `pipeline`, returning only the archive bytes.
///
/// The component library lives in the `lc-components` crate; any
/// [`Component`] implementation works:
///
/// ```
/// use std::sync::Arc;
/// use lc_core::{Component, ComponentKind, Complexity, DecodeError,
///               KernelStats, Pipeline, SpanClass, WorkClass};
/// use lc_parallel::Pool;
///
/// /// A toy mutator: XOR every byte with 0x5A.
/// struct Xor;
/// impl Component for Xor {
///     fn name(&self) -> &'static str { "XOR_1" }
///     fn kind(&self) -> ComponentKind { ComponentKind::Mutator }
///     fn word_size(&self) -> usize { 1 }
///     fn complexity(&self) -> Complexity {
///         Complexity::new(WorkClass::N, SpanClass::Const, WorkClass::N, SpanClass::Const)
///     }
///     fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, _: &mut KernelStats) {
///         out.extend(input.iter().map(|b| b ^ 0x5A));
///     }
///     fn decode_chunk(&self, input: &[u8], out: &mut Vec<u8>, _: &mut KernelStats)
///         -> Result<(), DecodeError>
///     {
///         out.extend(input.iter().map(|b| b ^ 0x5A));
///         Ok(())
///     }
/// }
///
/// let resolve = |name: &str| (name == "XOR_1").then(|| Arc::new(Xor) as Arc<dyn Component>);
/// let pipeline = Pipeline::parse("XOR_1", resolve).unwrap();
/// let pool = Pool::new(2);
/// let data = vec![42u8; 100_000];
/// let archive = lc_core::archive::encode(&pipeline, &data, &pool);
/// let back = lc_core::archive::decode(&archive, resolve, &pool).unwrap();
/// assert_eq!(back, data);
/// ```
pub fn encode(pipeline: &Pipeline, input: &[u8], pool: &Pool) -> Vec<u8> {
    encode_with_stats(pipeline, input, pool).archive
}

/// Encode `input` with `pipeline`, returning the archive and statistics.
///
/// # Panics
///
/// Panics if the pipeline has more than [`MAX_STAGES`] stages.
pub fn encode_with_stats(pipeline: &Pipeline, input: &[u8], pool: &Pool) -> EncodeResult {
    match encode_inner(pipeline, input, pool, None) {
        Some(r) => r,
        // invariant: with no cancel token the pool drains every chunk.
        None => unreachable!("uncancellable encode reported cancellation"),
    }
}

/// Like [`encode_with_stats`], but workers poll `cancel` at every chunk
/// claim and the encode stops at the next claim boundary once it trips.
/// Returns `None` when cancelled — there is no partial archive; the
/// caller (an `lc-serve` request whose deadline fired) reports
/// `deadline_exceeded` and drops the scratch work on the floor.
///
/// Cancellation is deadlock-safe with respect to the decoupled look-back
/// scan: workers only stop *between* claims, every claimed chunk still
/// publishes its scan entry, and `scan.total()` is consulted only on the
/// not-cancelled path where all chunks have published.
pub fn encode_cancellable(
    pipeline: &Pipeline,
    input: &[u8],
    pool: &Pool,
    cancel: &CancelToken,
) -> Option<EncodeResult> {
    encode_inner(pipeline, input, pool, Some(cancel))
}

fn encode_inner(
    pipeline: &Pipeline,
    input: &[u8],
    pool: &Pool,
    cancel: Option<&CancelToken>,
) -> Option<EncodeResult> {
    let set = StageSet::for_encode(pipeline);
    let n_chunks = chunk_count(input.len());
    let mut enc_span = span!("archive.encode", bytes = input.len(), chunks = n_chunks);
    let mut head = Vec::new();
    push_header(&mut head, set.stages, input.len() as u64, 0, n_chunks);
    let crc_at = head.len() - 8;
    let payload_at = head.len() + n_chunks * TABLE_ENTRY_V3;
    // Stored chunks never exceed their input, so the input length bounds
    // the payload. Zero-allocated and truncated afterwards: the pages
    // the payloads do not reach are never committed.
    let mut archive = vec![0u8; payload_at + input.len()];
    let (outcomes, payload_total) =
        encode_chunks(&set, input, 0, &mut archive[payload_at..], pool, cancel)?;
    let crc = extend_crc(0, outcomes.iter().map(|o| o.crc), input.len());
    head[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    push_table(&mut head, &outcomes);
    archive[..payload_at].copy_from_slice(&head);
    archive.truncate(payload_at + payload_total);

    let mut stage_stats = empty_stage_stats(set.stages);
    add_stage_records(&mut stage_stats, &outcomes);
    let stats = finish_encode(
        &mut enc_span,
        &set,
        stage_stats,
        input.len() as u64,
        payload_total as u64,
        archive.len() as u64,
    );
    Some(EncodeResult { archive, stats })
}

/// Encode exactly `len` bytes read from `input` into `output`, holding
/// only [`WINDOW_CHUNKS`] chunks in memory at a time. The bytes written
/// equal [`encode`]'s on the same input.
///
/// The header and a zeroed chunk table go out first; each window's
/// payloads are appended as soon as the window is encoded, while the
/// whole-input CRC runs along. One seek back at the end writes the CRC
/// and the chunk table. Returns the archive's length in bytes and the
/// per-stage statistics.
///
/// An input that ends before `len` bytes, or holds more than `len`, is an
/// error: the archive's length and chunk count are fixed up front, so a
/// short archive is never written as if it were complete.
///
/// # Panics
///
/// Panics if the pipeline has more than [`MAX_STAGES`] stages.
pub fn encode_windowed<R: Read, W: Write + Seek>(
    pipeline: &Pipeline,
    input: &mut R,
    len: u64,
    output: &mut W,
    pool: &Pool,
) -> std::io::Result<(u64, PipelineStats)> {
    let set = StageSet::for_encode(pipeline);
    let n_chunks = chunk_count(len as usize);
    let mut enc_span = span!("archive.encode", bytes = len, chunks = n_chunks);
    let start = output.stream_position()?;
    let mut header = Vec::new();
    push_header(&mut header, set.stages, len, 0, n_chunks);
    // What is only known at the end is rewritten from here on: the
    // whole-input CRC, then the chunk count and the chunk table.
    let patch_at = header.len() - 8;
    let mut patch = header[patch_at..].to_vec();
    header.resize(header.len() + n_chunks * TABLE_ENTRY_V3, 0);
    output.write_all(&header)?;

    let mut window = vec![0u8; (WINDOW_CHUNKS * CHUNK_SIZE).min(len as usize)];
    let mut payload = vec![0u8; window.len()];
    let mut crc = 0;
    let mut stage_stats = empty_stage_stats(set.stages);
    let mut payload_total = 0usize;
    let mut done = 0u64;
    while done < len {
        let take = (len - done).min(window.len() as u64) as usize;
        let filled = &mut window[..take];
        input.read_exact(filled).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => std::io::Error::new(
                e.kind(),
                format!("input ended before its declared {len} bytes"),
            ),
            _ => e,
        })?;
        let first_chunk = (done / CHUNK_SIZE as u64) as usize;
        let (outcomes, window_total) =
            encode_chunks(&set, filled, first_chunk, &mut payload, pool, None)
                .expect("uncancellable encode completes"); // invariant: no cancel token
        output.write_all(&payload[..window_total])?;
        crc = extend_crc(crc, outcomes.iter().map(|o| o.crc), filled.len());
        push_table(&mut patch, &outcomes);
        add_stage_records(&mut stage_stats, &outcomes);
        payload_total += window_total;
        done += filled.len() as u64;
    }
    if input.read(&mut [0u8; 1])? != 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("input holds more than its declared {len} bytes"),
        ));
    }
    patch[..4].copy_from_slice(&crc.to_le_bytes());
    output.seek(SeekFrom::Start(start + patch_at as u64))?;
    output.write_all(&patch)?;
    let archive_len = output.seek(SeekFrom::End(0))? - start;
    let stats = finish_encode(
        &mut enc_span,
        &set,
        stage_stats,
        len,
        payload_total as u64,
        archive_len,
    );
    Ok((archive_len, stats))
}

/// Every chunk of `input` through the pipeline in parallel (one pool
/// task per chunk, like one thread block per chunk on the GPU), each
/// worker copying its chunk's stored bytes straight to the offset the
/// decoupled look-back scan hands it in `payload`, which must hold at
/// least `input.len()` bytes. Returns the outcomes and the payload
/// total, or `None` when cancelled. `first_chunk` is the index of
/// `input`'s first chunk within the whole archive, for traces.
///
/// # Panics
///
/// Panics if a stage grew a chunk past its input length: copy-on-expand
/// bounds every reducer, and non-reducers must keep a chunk's size.
fn encode_chunks(
    set: &StageSet<'_>,
    input: &[u8],
    first_chunk: usize,
    payload: &mut [u8],
    pool: &Pool,
    cancel: Option<&CancelToken>,
) -> Option<(Vec<ChunkOutcome>, usize)> {
    let n_chunks = chunk_count(input.len());
    let mut outcomes: Vec<Option<ChunkOutcome>> = Vec::new();
    outcomes.resize_with(n_chunks, || None);
    let scan = LookbackScan::new(n_chunks);
    let capacity = payload.len();
    let base = payload.as_mut_ptr() as usize;
    {
        let outcome_slots = DisjointSlice::new(&mut outcomes);
        // Each worker owns one Scratch arena for its whole claim stream:
        // stage buffers are allocated once per worker, not once per chunk.
        let encode_task = |scratch: &mut Scratch, i: usize| {
            let chunk = &input[chunk_range(i, input.len())];
            let (outcome, stored) = encode_one_chunk(set, chunk, first_chunk + i, scratch);
            // Publish this chunk's stored size; receive the cumulative size
            // of all prior chunks (decoupled look-back, as on the GPU).
            let offset = scan.publish(i, stored.len() as u64) as usize;
            // Checked after publishing, so a failing chunk never leaves
            // its successors waiting on its scan entry.
            assert!(
                stored.len() <= chunk.len() && offset + stored.len() <= capacity,
                "chunk {i} stored {} bytes for {} input bytes",
                stored.len(),
                chunk.len()
            );
            // SAFETY: the scan hands every chunk a range disjoint from
            // every other chunk's, and the assert keeps it in `payload`.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    stored.as_ptr(),
                    (base as *mut u8).add(offset),
                    stored.len(),
                );
                // The pool claims each index at most once.
                *outcome_slots.get_mut(i) = Some(outcome);
            }
        };
        match cancel {
            Some(c) => pool.run_with_state_cancellable(n_chunks, c, Scratch::new, encode_task),
            None => pool.run_with_state(n_chunks, Scratch::new, encode_task),
        }
    }
    // The cancellation check must precede `scan.total()`: a cancelled run
    // leaves unclaimed chunks unpublished, and `total()` asserts that
    // every participant has published. The token is monotonic, so "not
    // cancelled here" proves every chunk was claimed and completed.
    if cancel.is_some_and(|c| c.is_cancelled()) {
        return None;
    }
    let payload_total = scan.total() as usize;
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("chunk encoded")) // invariant: the pool fills every slot
        .collect();
    Some((outcomes, payload_total))
}

/// Extend `crc`, the CRC-32 of everything before some run of chunks, by
/// those chunks' CRCs in chunk order (`len` bytes in total): zlib's
/// `crc32_combine`, with one operator for full chunks and its own for a
/// shorter last one.
fn extend_crc(mut crc: u32, chunk_crcs: impl IntoIterator<Item = u32>, len: usize) -> u32 {
    let full = crate::checksum::crc32_combine_gen(CHUNK_SIZE as u64);
    for (i, chunk_crc) in chunk_crcs.into_iter().enumerate() {
        let n = chunk_range(i, len).len();
        let op = if n == CHUNK_SIZE {
            full
        } else {
            crate::checksum::crc32_combine_gen(n as u64)
        };
        crc = crate::checksum::crc32_combine_op(crc, chunk_crc, op);
    }
    crc
}

/// Serialize the archive header up to and including the chunk count.
fn push_header(
    out: &mut Vec<u8>,
    stages: &[Arc<dyn Component>],
    original_len: u64,
    crc: u32,
    n_chunks: usize,
) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(stages.len() as u8);
    for s in stages {
        let name = s.name().as_bytes();
        out.push(name.len() as u8);
        out.extend_from_slice(name);
    }
    out.extend_from_slice(&original_len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&(n_chunks as u32).to_le_bytes());
}

/// Append one v3 chunk-table entry per outcome.
fn push_table(out: &mut Vec<u8>, outcomes: &[ChunkOutcome]) {
    for o in outcomes {
        out.push(o.mask);
        out.extend_from_slice(&o.stored.to_le_bytes());
        out.extend_from_slice(&o.crc.to_le_bytes());
    }
}

fn empty_stage_stats(stages: &[Arc<dyn Component>]) -> Vec<StageStats> {
    stages
        .iter()
        .map(|s| StageStats {
            component: s.name().to_string(),
            ..Default::default()
        })
        .collect()
}

fn add_stage_records(stage_stats: &mut [StageStats], outcomes: &[ChunkOutcome]) {
    for o in outcomes {
        for (st, rec) in stage_stats.iter_mut().zip(&o.stage_records) {
            st.kernel.merge(&rec.kernel);
            if rec.applied {
                st.chunks_applied += 1;
                st.bytes_in += rec.bytes_in;
                st.bytes_out += rec.bytes_out;
            } else {
                st.chunks_skipped += 1;
            }
        }
    }
}

/// Close an encode: per-stage statistics plus the `archive.encode.*`
/// counters and span argument.
fn finish_encode(
    span: &mut Span,
    set: &StageSet<'_>,
    stages: Vec<StageStats>,
    bytes_in: u64,
    payload_total: u64,
    archive_len: u64,
) -> PipelineStats {
    let chunks = chunk_count(bytes_in as usize) as u64;
    if set.telemetry {
        span.arg("archive_bytes", archive_len);
        lc_telemetry::counter("archive.encode.calls").add(1);
        lc_telemetry::counter("archive.encode.bytes_in").add(bytes_in);
        lc_telemetry::counter("archive.encode.bytes_out").add(archive_len);
        lc_telemetry::counter("archive.encode.chunks").add(chunks);
    }
    PipelineStats {
        stages,
        chunks,
        uncompressed_bytes: bytes_in,
        compressed_bytes: payload_total + chunks * TABLE_ENTRY_V3 as u64,
    }
}

/// Which buffer currently holds the chunk bytes: the caller's input
/// slice (no copy was made) or one of the two arena buffers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Live {
    Input,
    A,
    B,
}

impl Live {
    /// The arena buffer the *next* applied stage writes into: input
    /// feeds `a`, and the two arena buffers ping-pong.
    fn advance(self) -> Self {
        match self {
            Live::Input | Live::B => Live::A,
            Live::A => Live::B,
        }
    }
}

/// Pre-resolved per-component cost-attribution handles: one registry
/// lookup per archive call instead of per chunk×stage. `bytes` counts
/// every byte a component was fed; `ns` holds the distribution of its
/// per-chunk kernel time; `kernel` counts chunks under the SIMD tier
/// (`scalar`/`sse2`/`avx2`) the component's kernels dispatch to on this
/// machine. Together they are the
/// `component.<name>.<dir>.{bytes,ns,kernel.<variant>}` metrics that the
/// `lc report` cost-center table ranks.
struct StageCost {
    bytes: &'static lc_telemetry::Counter,
    ns: &'static lc_telemetry::Histogram,
    kernel: &'static lc_telemetry::Counter,
}

/// What every chunk task of one archive call shares: the stages and,
/// when telemetry is on, their cost-attribution handles.
struct StageSet<'a> {
    stages: &'a [Arc<dyn Component>],
    /// Hoisted once per call: chunk/stage instrumentation branches on
    /// this bool, so a disabled-telemetry call pays one relaxed load.
    telemetry: bool,
    costs: Vec<StageCost>,
}

impl<'a> StageSet<'a> {
    fn new(stages: &'a [Arc<dyn Component>], dir: &str) -> Self {
        let telemetry = lc_telemetry::active();
        let costs = if !telemetry {
            Vec::new()
        } else {
            stages
                .iter()
                .map(|c| {
                    let n = c.name();
                    let k = c.kernel_variant().label();
                    StageCost {
                        bytes: lc_telemetry::counter(&format!("component.{n}.{dir}.bytes")),
                        ns: lc_telemetry::histogram(&format!("component.{n}.{dir}.ns")),
                        kernel: lc_telemetry::counter(&format!("component.{n}.{dir}.kernel.{k}")),
                    }
                })
                .collect()
        };
        Self {
            stages,
            telemetry,
            costs,
        }
    }

    fn for_encode(pipeline: &'a Pipeline) -> Self {
        let stages = pipeline.stages();
        assert!(
            stages.len() <= MAX_STAGES,
            "pipeline has {} stages; archive mask supports at most {MAX_STAGES}",
            stages.len()
        );
        Self::new(stages, "encode")
    }

    /// A stage span with a histogram, or a disabled one (whose `args`
    /// are never built).
    fn stage_span(
        &self,
        cat: &'static str,
        comp: &dyn Component,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) -> Span {
        if !self.telemetry {
            return Span::disabled();
        }
        let mut sp = Span::begin(cat, comp.name(), args());
        sp.with_histogram();
        sp
    }

    /// Attribute one chunk's kernel cost for stage `s`, started at `t0`.
    fn charge(&self, s: usize, bytes_in: u64, t0: u64) {
        if self.telemetry {
            let c = &self.costs[s];
            c.bytes.add(bytes_in);
            c.ns.record(lc_telemetry::now_ns().saturating_sub(t0));
            c.kernel.add(1);
        }
    }

    fn now(&self) -> u64 {
        if self.telemetry {
            lc_telemetry::now_ns()
        } else {
            0
        }
    }
}

/// Run one chunk through every stage; returns its table record and a
/// view of its stored bytes (the arena's last output, or the chunk itself
/// when every stage was skipped).
fn encode_one_chunk<'s>(
    set: &StageSet<'_>,
    chunk: &'s [u8],
    chunk_index: usize,
    scratch: &'s mut Scratch,
) -> (ChunkOutcome, &'s [u8]) {
    let crc = crate::checksum::crc32(chunk);
    let mut mask = 0u8;
    let mut stage_records = Vec::with_capacity(set.stages.len());
    // The first stage reads the caller's chunk slice directly — no
    // defensive copy; subsequent stages ping-pong between the arena
    // buffers. Disjoint field borrows keep input and output separate.
    let mut live = Live::Input;
    for (s, comp) in set.stages.iter().enumerate() {
        let bytes_in = match live {
            Live::Input => chunk.len(),
            Live::A => scratch.a.len(),
            Live::B => scratch.b.len(),
        };
        let mut rec = StageRecord {
            bytes_in: bytes_in as u64,
            ..Default::default()
        };
        let mut sp = set.stage_span("stage.encode", comp.as_ref(), || {
            vec![
                ("chunk", ArgValue::from(chunk_index)),
                ("bytes_in", ArgValue::from(rec.bytes_in)),
            ]
        });
        let t0 = set.now();
        let applied = match live {
            Live::Input => {
                crate::scratch::encode_stage(comp.as_ref(), chunk, &mut scratch.a, &mut rec.kernel)
            }
            Live::A => crate::scratch::encode_stage(
                comp.as_ref(),
                &scratch.a,
                &mut scratch.b,
                &mut rec.kernel,
            ),
            Live::B => crate::scratch::encode_stage(
                comp.as_ref(),
                &scratch.b,
                &mut scratch.a,
                &mut rec.kernel,
            ),
        };
        // Attribute the kernel's cost to the component even when the
        // output was discarded (copy-on-expand): the work happened.
        set.charge(s, rec.bytes_in, t0);
        rec.applied = applied;
        rec.bytes_out = if applied {
            let written = match live.advance() {
                Live::A => scratch.a.len(),
                _ => scratch.b.len(),
            };
            written as u64
        } else {
            rec.bytes_in
        };
        sp.arg("applied", applied);
        sp.arg("bytes_out", rec.bytes_out);
        drop(sp);
        stage_records.push(rec);
        if applied {
            mask |= 1 << s;
            live = live.advance();
        }
    }
    let stored: &[u8] = match live {
        Live::Input => chunk,
        Live::A => &scratch.a,
        Live::B => &scratch.b,
    };
    let outcome = ChunkOutcome {
        stored: stored.len() as u32,
        mask,
        crc,
        stage_records,
    };
    (outcome, stored)
}

/// Read a little-endian u32 at `at`; caller must have bounds-checked.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Bounds-checked reader over untrusted bytes: running off the end is a
/// [`DecodeError::Truncated`] naming the field, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        match self.pos.checked_add(n) {
            Some(end) if end <= self.bytes.len() => {
                let field = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(field)
            }
            _ => Err(DecodeError::Truncated { context }),
        }
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(le_u32(self.take(4, context)?, 0))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8, context)?);
        Ok(u64::from_le_bytes(raw))
    }

    /// Stage count and names, shared by both container layouts.
    fn stage_names(&mut self) -> Result<Vec<String>, DecodeError> {
        let n_stages = self.u8("stage count")? as usize;
        if n_stages == 0 || n_stages > MAX_STAGES {
            return Err(DecodeError::Corrupt {
                context: "stage count",
            });
        }
        (0..n_stages)
            .map(|_| {
                let len = self.u8("stage name length")? as usize;
                let name = self.take(len, "stage name")?;
                std::str::from_utf8(name)
                    .map(str::to_string)
                    .map_err(|_| DecodeError::Corrupt {
                        context: "stage name utf8",
                    })
            })
            .collect()
    }
}

/// Parse just the header of an archive.
///
/// Accepts format versions [`MIN_VERSION`]..=[`VERSION`]. Every field
/// read is bounds-checked against untrusted input: malformed bytes yield
/// a [`DecodeError`], never a panic.
pub fn parse_header(bytes: &[u8]) -> Result<Archive, DecodeError> {
    let mut r = Cursor { bytes, pos: 0 };
    if r.take(4, "magic")? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u8("version")?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(DecodeError::BadVersion(version));
    }
    let stage_names = r.stage_names()?;
    let original_len = r.u64("original length")?;
    let crc32 = r.u32("checksum")?;
    let chunks = r.u32("chunk count")?;
    if chunks as u64 != chunk_count(original_len as usize) as u64 {
        return Err(DecodeError::Corrupt {
            context: "chunk count vs length",
        });
    }
    let mut header = Archive {
        version,
        stage_names,
        original_len,
        crc32,
        chunks,
        table_offset: r.pos,
        payload_offset: 0,
    };
    let table_len =
        (chunks as usize)
            .checked_mul(header.entry_size())
            .ok_or(DecodeError::Truncated {
                context: "chunk table",
            })?;
    r.take(table_len, "chunk table")?;
    header.payload_offset = r.pos;
    Ok(header)
}

/// Where each chunk of an archive (or legacy stream) lives and what it
/// must decode to: everything the per-chunk core needs, whatever the
/// container.
struct Layout {
    stage_names: Vec<String>,
    original_len: u64,
    crc32: u32,
    masks: Vec<u8>,
    /// Absolute offset of each chunk's payload within the input bytes.
    offsets: Vec<u64>,
    sizes: Vec<u64>,
    /// Per-chunk CRC-32 of the original bytes; `None` without a v3 table.
    crcs: Option<Vec<u32>>,
    /// Where the input ends when nothing is missing or trailing.
    end: u64,
}

fn parse_layout(bytes: &[u8], pool: &Pool) -> Result<Layout, DecodeError> {
    if bytes.starts_with(&STREAM_MAGIC) {
        return parse_stream_layout(bytes);
    }
    let header = parse_header(bytes)?;
    let table = bytes[header.table_offset..header.payload_offset].chunks_exact(header.entry_size());
    let masks = table.clone().map(|e| e[0]).collect();
    let sizes: Vec<u64> = table.clone().map(|e| le_u32(e, 1) as u64).collect();
    let crcs = (header.version >= 3).then(|| table.map(|e| le_u32(e, 5)).collect());
    // Chunk payload start offsets: a prefix scan, as in the GPU decoder.
    let (mut offsets, payload_total) = lc_parallel::scan::parallel_exclusive_scan(pool, &sizes);
    let base = header.payload_offset as u64;
    offsets.iter_mut().for_each(|o| *o += base);
    Ok(Layout {
        stage_names: header.stage_names,
        original_len: header.original_len,
        crc32: header.crc32,
        masks,
        offsets,
        sizes,
        crcs,
        end: base + payload_total,
    })
}

/// Walk a legacy LCRS v2 stream's batches. Batches are framed by their
/// own tables, so a truncated or mis-framed stream is a hard error.
fn parse_stream_layout(bytes: &[u8]) -> Result<Layout, DecodeError> {
    let mut r = Cursor { bytes, pos: 4 };
    let version = r.u8("version")?;
    if version != 2 {
        return Err(DecodeError::BadVersion(version));
    }
    let stage_names = r.stage_names()?;
    let (mut masks, mut offsets, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let n = r.u32("batch chunk count")? as usize;
        if n == 0 {
            break;
        }
        let table = r.take(n.saturating_mul(TABLE_ENTRY_V2), "chunk table")?;
        let mut payload_len = 0usize;
        for e in table.chunks_exact(TABLE_ENTRY_V2) {
            let size = le_u32(e, 1) as usize;
            masks.push(e[0]);
            offsets.push(r.pos.saturating_add(payload_len) as u64);
            sizes.push(size as u64);
            payload_len = payload_len.saturating_add(size);
        }
        r.take(payload_len, "batch payload")?;
    }
    let original_len = r.u64("trailer length")?;
    let crc32 = r.u32("trailer checksum")?;
    if masks.len() != chunk_count(original_len as usize) {
        return Err(DecodeError::Corrupt {
            context: "chunk count vs length",
        });
    }
    Ok(Layout {
        stage_names,
        original_len,
        crc32,
        masks,
        offsets,
        sizes,
        crcs: None,
        end: r.pos as u64,
    })
}

/// Decode an archive, resolving stage names through `resolve`.
pub fn decode<R>(bytes: &[u8], resolve: R, pool: &Pool) -> Result<Vec<u8>, DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    decode_with(bytes, resolve, pool, &DecodeOptions::default())
}

/// [`decode`] under `opts`: refuse archives declaring more than
/// `max_decoded_bytes` before allocating their output, and stop with
/// [`DecodeError::Cancelled`] once `cancel` trips. Any damage is a hard
/// error; with several damaged chunks it names the lowest-index one,
/// whatever the pool size.
pub fn decode_with<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
    opts: &DecodeOptions<'_>,
) -> Result<Vec<u8>, DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    decode_chunks(bytes, resolve, pool, opts, false).map(|(out, _)| out)
}

/// Best-effort decode of a damaged archive, under the same `opts` as
/// [`decode_with`].
///
/// Where [`decode`] aborts on the first fault, this decodes every chunk
/// independently and degrades per chunk:
///
/// * a chunk whose payload extent lies (partly) beyond the available
///   bytes — mid-stream truncation — is lost as `Truncated`;
/// * a chunk whose decoder returns an error is lost with that error;
/// * a chunk whose decoder **panics** is lost as `Corrupt`;
/// * a v3 chunk whose decoded bytes miss their per-chunk CRC is lost as
///   `ChunkChecksumMismatch`.
///
/// Lost chunks' output regions are zero-filled, so the returned buffer
/// always has the declared length with recovered chunks at their exact
/// offsets. Hard errors remain only for damage that makes per-chunk
/// recovery meaningless (unusable header or chunk table, an unknown
/// component), for the size bound and for cancellation.
///
/// Without per-chunk CRCs (v2 archives, LCRS streams) only structural
/// faults are detectable per chunk; value-level damage shows up solely as
/// `archive_crc_ok == false` in the report.
pub fn salvage<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
    opts: &DecodeOptions<'_>,
) -> Result<(Vec<u8>, SalvageReport), DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    decode_chunks(bytes, resolve, pool, opts, true)
}

/// The one decode core behind [`decode_with`] (`salvage == false`) and
/// [`salvage`].
fn decode_chunks<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
    opts: &DecodeOptions<'_>,
    salvage: bool,
) -> Result<(Vec<u8>, SalvageReport), DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let layout = parse_layout(bytes, pool)?;
    if let Some(limit) = opts.max_decoded_bytes {
        if layout.original_len > limit {
            return Err(DecodeError::TooLarge {
                declared: layout.original_len,
                limit,
            });
        }
    }
    let stages: Vec<Arc<dyn Component>> = layout
        .stage_names
        .iter()
        .map(|n| resolve(n).ok_or_else(|| DecodeError::UnknownComponent(n.clone())))
        .collect::<Result<_, _>>()?;
    let set = StageSet::new(&stages, "decode");
    let n_chunks = layout.masks.len();
    let name = if salvage {
        "archive.decode_salvage"
    } else {
        "archive.decode"
    };
    let mut dec_span = span!(name, bytes = bytes.len(), chunks = n_chunks);
    // Strict decode wants every byte accounted for; salvage takes what
    // is there and loses the chunks whose payload is missing.
    if !salvage && layout.end != bytes.len() as u64 {
        return Err(DecodeError::Corrupt {
            context: "payload size",
        });
    }

    let original_len = layout.original_len as usize;
    let mut out = vec![0u8; original_len];
    let out_base = out.as_mut_ptr() as usize;
    // Each decoded chunk's CRC-32, folded into the whole-output CRC below.
    let mut crcs = vec![0u32; n_chunks];
    let crc_slots = DisjointSlice::new(&mut crcs);
    let cancel = opts.cancel;
    // Strict decode reports the lowest-index fault. Chunks above the
    // lowest fault seen so far are skipped; chunks below it always run,
    // so the answer does not depend on worker timing.
    let lowest_fault = AtomicUsize::new(usize::MAX);
    let (_, mut errors) = pool.fold(
        n_chunks,
        || (Scratch::new(), Vec::new()),
        |(scratch, errors): &mut (Scratch, Vec<ChunkFault>), i| {
            // Deadline/shutdown poll at the chunk boundary: already-claimed
            // chunks complete, remaining claims drain without work.
            if cancel.is_some_and(|c| c.is_cancelled())
                || (!salvage && i > lowest_fault.load(Ordering::Relaxed))
            {
                return;
            }
            match decode_one(&set, &layout, bytes, i, scratch) {
                // SAFETY: chunk output regions tile `out` disjointly, and
                // the pool claims each index (CRC slot) at most once.
                Ok((decoded, crc)) => unsafe {
                    std::ptr::copy_nonoverlapping(
                        decoded.as_ptr(),
                        (out_base as *mut u8).add(i * CHUNK_SIZE),
                        decoded.len(),
                    );
                    *crc_slots.get_mut(i) = crc;
                },
                Err(error) => {
                    lowest_fault.fetch_min(i, Ordering::Relaxed);
                    errors.push(ChunkFault {
                        chunk: i as u32,
                        error,
                    });
                }
            }
        },
        |(s, mut a), (_, b)| {
            a.extend(b);
            (s, a)
        },
    );
    // A deadline that fires after the last chunk still counts: the
    // caller has stopped waiting for this output.
    if cancel.is_some_and(|c| c.is_cancelled()) {
        return Err(DecodeError::Cancelled);
    }
    errors.sort_by_key(|f| f.chunk);
    if !salvage && !errors.is_empty() {
        return Err(errors.swap_remove(0).error);
    }
    // Integrity: the decoded output must match the recorded CRC — this is
    // what turns "plausible but wrong bytes" that no per-chunk check
    // caught into a hard error (strict) or `archive_crc_ok == false`.
    // With every chunk decoded, the output is exactly the decoded chunks
    // in order, so folding their CRCs gives the output's CRC without a
    // second pass; only zero-filled lost chunks need one.
    let actual = if errors.is_empty() {
        extend_crc(0, crcs, original_len)
    } else {
        crate::checksum::crc32(&out)
    };
    if !salvage && actual != layout.crc32 {
        return Err(DecodeError::ChecksumMismatch {
            expected: layout.crc32,
            actual,
        });
    }
    if set.telemetry && !salvage {
        dec_span.arg("decoded_bytes", out.len());
        lc_telemetry::counter("archive.decode.calls").add(1);
        lc_telemetry::counter("archive.decode.bytes_in").add(bytes.len() as u64);
        lc_telemetry::counter("archive.decode.bytes_out").add(out.len() as u64);
        lc_telemetry::counter("archive.decode.chunks").add(n_chunks as u64);
    }
    let lost = errors.len() as u32;
    let report = SalvageReport {
        recovered: n_chunks as u32 - lost,
        lost,
        errors,
        archive_crc_ok: actual == layout.crc32,
    };
    Ok((out, report))
}

/// Decode chunk `i` into the worker's arena and validate it against its
/// per-chunk CRC where the container has one, returning a view of the
/// recovered bytes and their CRC-32.
fn decode_one<'s>(
    set: &StageSet<'_>,
    layout: &Layout,
    bytes: &'s [u8],
    i: usize,
    scratch: &'s mut Scratch,
) -> Result<(&'s [u8], u32), DecodeError> {
    let start = layout.offsets[i] as usize;
    let payload = start
        .checked_add(layout.sizes[i] as usize)
        .and_then(|end| bytes.get(start..end))
        .ok_or(DecodeError::Truncated {
            context: "chunk payload",
        })?;
    let expected_len = chunk_range(i, layout.original_len as usize).len();
    // Decoders must not panic, but one that does loses only its chunk.
    let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let scratch = scratch; // moved in, so the view may outlive the call
        decode_chunk_into(set, layout.masks[i], payload, expected_len, i, scratch)
    }))
    .unwrap_or(Err(DecodeError::Corrupt {
        context: "decoder panicked",
    }))?;
    let actual = crate::checksum::crc32(decoded);
    if let Some(crcs) = &layout.crcs {
        if actual != crcs[i] {
            return Err(DecodeError::ChunkChecksumMismatch {
                chunk: i as u32,
                expected: crcs[i],
                actual,
            });
        }
    }
    Ok((decoded, actual))
}

/// Decode one chunk into the worker's arena, returning a borrowed view
/// of the recovered bytes.
///
/// The first inverse stage reads the stored payload slice directly (no
/// defensive copy); subsequent stages ping-pong between the arena
/// buffers. For a chunk whose mask is empty — every stage skipped by
/// copy-on-expand — the returned slice *is* `payload`: decode of such a
/// chunk touches no buffer at all and the caller copies the stored
/// bytes straight into the output region.
fn decode_chunk_into<'s>(
    set: &StageSet<'_>,
    mask: u8,
    payload: &'s [u8],
    expected_len: usize,
    chunk_index: usize,
    scratch: &'s mut Scratch,
) -> Result<&'s [u8], DecodeError> {
    let mut kernel = KernelStats::new();
    let mut live = Live::Input;
    // Inverse transformations in reverse order (paper Fig. 1).
    for (s, comp) in set.stages.iter().enumerate().rev() {
        if mask & (1 << s) == 0 {
            // Stage skipped during encode (copy-on-expand): nothing to
            // undo. Record a zero-duration span so traces show the skip.
            set.stage_span("stage.decode", comp.as_ref(), || {
                vec![
                    ("chunk", ArgValue::from(chunk_index)),
                    ("skipped", ArgValue::from(true)),
                ]
            });
            continue;
        }
        let bytes_in = match live {
            Live::Input => payload.len(),
            Live::A => scratch.a.len(),
            Live::B => scratch.b.len(),
        };
        let mut sp = set.stage_span("stage.decode", comp.as_ref(), || {
            vec![
                ("chunk", ArgValue::from(chunk_index)),
                ("bytes_in", ArgValue::from(bytes_in)),
            ]
        });
        let t0 = set.now();
        let stage_result = match live {
            Live::Input => {
                crate::scratch::decode_stage(comp.as_ref(), payload, &mut scratch.a, &mut kernel)
            }
            Live::A => {
                crate::scratch::decode_stage(comp.as_ref(), &scratch.a, &mut scratch.b, &mut kernel)
            }
            Live::B => {
                crate::scratch::decode_stage(comp.as_ref(), &scratch.b, &mut scratch.a, &mut kernel)
            }
        };
        set.charge(s, bytes_in as u64, t0);
        stage_result?;
        live = live.advance();
        let bytes_out = match live {
            Live::A => scratch.a.len(),
            _ => scratch.b.len(),
        };
        sp.arg("bytes_out", bytes_out);
    }
    let cur: &[u8] = match live {
        Live::Input => payload,
        Live::A => &scratch.a,
        Live::B => &scratch.b,
    };
    if cur.len() != expected_len {
        return Err(DecodeError::LengthMismatch {
            expected: expected_len as u64,
            actual: cur.len() as u64,
        });
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Complexity, ComponentKind};
    use crate::pipeline::test_support::{AddOne, DropTrailingZeros};

    fn resolver(name: &str) -> Option<Arc<dyn Component>> {
        match name {
            "ADD1_1" => Some(Arc::new(AddOne)),
            "DTZ_1" => Some(Arc::new(DropTrailingZeros)),
            _ => None,
        }
    }

    /// Stands in for `DTZ_1` at decode time and panics if ever asked to
    /// undo a chunk.
    struct PanickingDtz;

    impl Component for PanickingDtz {
        fn name(&self) -> &'static str {
            "DTZ_1"
        }
        fn kind(&self) -> ComponentKind {
            ComponentKind::Reducer
        }
        fn word_size(&self) -> usize {
            1
        }
        fn complexity(&self) -> Complexity {
            DropTrailingZeros.complexity()
        }
        fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
            DropTrailingZeros.encode_chunk(input, out, stats);
        }
        fn decode_chunk(
            &self,
            _: &[u8],
            _: &mut Vec<u8>,
            _: &mut KernelStats,
        ) -> Result<(), DecodeError> {
            panic!("DTZ_1 decode ran");
        }
    }

    fn panicking_resolver(name: &str) -> Option<Arc<dyn Component>> {
        match name {
            "DTZ_1" => Some(Arc::new(PanickingDtz)),
            other => resolver(other),
        }
    }

    fn pipeline() -> Pipeline {
        Pipeline::parse("ADD1_1 DTZ_1", resolver).unwrap()
    }

    fn roundtrip(input: &[u8]) {
        let pool = Pool::new(4);
        let archive = encode(&pipeline(), input, &pool);
        let out = decode(&archive, resolver, &pool).unwrap();
        assert_eq!(out, input);
    }

    fn bounded(max: u64) -> DecodeOptions<'static> {
        DecodeOptions {
            max_decoded_bytes: Some(max),
            cancel: None,
        }
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_single_byte() {
        roundtrip(&[42]);
    }

    #[test]
    fn roundtrip_one_exact_chunk() {
        let data: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_many_chunks_with_tail() {
        let data: Vec<u8> = (0..CHUNK_SIZE * 7 + 333).map(|i| (i % 13) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn compressible_data_shrinks() {
        // AddOne maps 0xFF -> 0x00, so trailing 0xFF bytes become zeros that
        // DTZ drops.
        let mut data = vec![1u8; 1000];
        data.extend(vec![0xFFu8; CHUNK_SIZE - 1000]);
        let pool = Pool::new(2);
        let res = encode_with_stats(&pipeline(), &data, &pool);
        assert!(res.archive.len() < data.len());
        assert_eq!(res.stats.stages[1].chunks_applied, 1);
        let out = decode(&res.archive, resolver, &pool).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn incompressible_chunk_skips_reducer() {
        // No trailing zeros after AddOne: DTZ adds an 8-byte header and
        // expands, so the framework must skip it.
        let data: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 200) as u8 + 1).collect();
        let pool = Pool::new(2);
        let res = encode_with_stats(&pipeline(), &data, &pool);
        assert_eq!(res.stats.stages[1].chunks_skipped, 1);
        assert_eq!(res.stats.stages[1].chunks_applied, 0);
        // Mutator still applied.
        assert_eq!(res.stats.stages[0].chunks_applied, 1);
        let out = decode(&res.archive, resolver, &pool).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn skipped_stage_does_no_decode_work() {
        // DTZ is skipped on every chunk, so a DTZ decoder that panics on
        // any call is never reached.
        let data = incompressible(2);
        let pool = Pool::new(2);
        let archive = encode(&pipeline(), &data, &pool);
        assert_eq!(decode(&archive, panicking_resolver, &pool).unwrap(), data);
    }

    #[test]
    fn strict_decode_fences_decoder_panics() {
        let mut data = vec![1u8; 1000];
        data.extend(vec![0xFFu8; CHUNK_SIZE - 1000]);
        let pool = Pool::new(2);
        let archive = encode(&pipeline(), &data, &pool);
        assert_eq!(
            decode(&archive, panicking_resolver, &pool).unwrap_err(),
            DecodeError::Corrupt {
                context: "decoder panicked"
            }
        );
        let (_, report) = salvage(
            &archive,
            panicking_resolver,
            &pool,
            &DecodeOptions::default(),
        )
        .unwrap();
        assert_eq!((report.recovered, report.lost), (0, 1));
    }

    #[test]
    fn bad_magic_rejected() {
        let pool = Pool::new(1);
        let err = decode(b"NOPExxxx", resolver, &pool).unwrap_err();
        assert_eq!(err, DecodeError::BadMagic);
    }

    #[test]
    fn truncated_header_rejected() {
        let pool = Pool::new(1);
        let archive = encode(&pipeline(), &[1, 2, 3], &pool);
        for cut in 1..archive.len().min(24) {
            let err = decode(&archive[..cut], resolver, &pool);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_component_rejected() {
        let pool = Pool::new(1);
        let archive = encode(&pipeline(), &[1, 2, 3], &pool);
        let err = decode(&archive, |_| None::<Arc<dyn Component>>, &pool).unwrap_err();
        assert!(matches!(err, DecodeError::UnknownComponent(_)));
    }

    #[test]
    fn corrupted_payload_is_an_error_not_a_panic() {
        let mut data = vec![1u8; 1000];
        data.extend(vec![0xFFu8; CHUNK_SIZE - 1000]);
        let pool = Pool::new(2);
        let mut archive = encode(&pipeline(), &data, &pool);
        let len = archive.len();
        archive[len - 20..len].fill(0xAB);
        // Structural damage errors early; value-only damage is caught by
        // the CRC. Either way: an error, never a panic or silent corruption.
        assert!(decode(&archive, resolver, &pool).is_err());
    }

    #[test]
    fn version_mismatch_rejected() {
        let pool = Pool::new(1);
        let mut archive = encode(&pipeline(), &[1, 2, 3], &pool);
        archive[4] = 99;
        assert_eq!(
            decode(&archive, resolver, &pool).unwrap_err(),
            DecodeError::BadVersion(99)
        );
    }

    #[test]
    fn header_parse_reports_fields() {
        let pool = Pool::new(1);
        let data = vec![7u8; CHUNK_SIZE + 5];
        let archive = encode(&pipeline(), &data, &pool);
        let h = parse_header(&archive).unwrap();
        assert_eq!(h.version, VERSION);
        assert_eq!(h.entry_size(), TABLE_ENTRY_V3);
        assert_eq!(h.stage_names, vec!["ADD1_1", "DTZ_1"]);
        assert_eq!(h.original_len, data.len() as u64);
        assert_eq!(h.chunks, 2);
    }

    /// Incompressible multi-chunk input: DTZ skips every chunk, so each
    /// chunk's payload is exactly CHUNK_SIZE AddOne'd bytes — flipping a
    /// payload byte damages exactly one chunk, with no structural error.
    fn incompressible(chunks: usize) -> Vec<u8> {
        (0..CHUNK_SIZE * chunks)
            .map(|i| (i % 200) as u8 + 1)
            .collect()
    }

    /// Rewrite a v3 archive as v2 (drop per-chunk CRCs) to exercise the
    /// backward-compatibility path.
    fn downgrade_to_v2(archive: &[u8]) -> Vec<u8> {
        let h = parse_header(archive).unwrap();
        assert_eq!(h.version, 3);
        let mut v2 = Vec::with_capacity(archive.len());
        v2.extend_from_slice(&archive[..4]);
        v2.push(2);
        v2.extend_from_slice(&archive[5..h.table_offset]);
        for i in 0..h.chunks as usize {
            let at = h.table_offset + i * TABLE_ENTRY_V3;
            v2.extend_from_slice(&archive[at..at + TABLE_ENTRY_V2]);
        }
        v2.extend_from_slice(&archive[h.payload_offset..]);
        v2
    }

    #[test]
    fn v2_archives_still_decode() {
        let pool = Pool::new(4);
        let data = incompressible(3);
        let v2 = downgrade_to_v2(&encode(&pipeline(), &data, &pool));
        let h = parse_header(&v2).unwrap();
        assert_eq!(h.version, 2);
        assert_eq!(h.entry_size(), TABLE_ENTRY_V2);
        assert_eq!(decode(&v2, resolver, &pool).unwrap(), data);
    }

    #[test]
    fn chunk_crc_localizes_value_damage() {
        let data = incompressible(4);
        let clean = encode(&pipeline(), &data, &Pool::new(4));
        let h = parse_header(&clean).unwrap();
        for damaged in [&[1usize, 3][..], &[1, 2, 3]] {
            let mut archive = clean.clone();
            // Every chunk stored at full size (DTZ skipped): chunk i's
            // payload starts i*CHUNK_SIZE into the payload region.
            for &i in damaged {
                archive[h.payload_offset + i * CHUNK_SIZE + 100] ^= 0xFF;
            }
            // The lowest damaged chunk is the answer on every pool size.
            for threads in [1, 2, 4] {
                match decode(&archive, resolver, &Pool::new(threads)).unwrap_err() {
                    DecodeError::ChunkChecksumMismatch { chunk, .. } => {
                        assert_eq!(chunk, 1, "{damaged:?}, {threads} threads")
                    }
                    other => panic!("expected ChunkChecksumMismatch, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn header_crc_is_checked_against_the_folded_chunk_crcs() {
        let pool = Pool::new(2);
        let mut data = incompressible(3);
        data.extend(vec![0xFFu8; 100]); // a short last chunk
        let mut archive = encode(&pipeline(), &data, &pool);
        let h = parse_header(&archive).unwrap();
        assert_eq!(h.crc32, crate::checksum::crc32(&data));
        // The CRC field sits just before the chunk count; the chunk table
        // and payloads stay intact, so every chunk CRC still matches.
        archive[h.table_offset - 8] ^= 0x01;
        assert!(matches!(
            decode(&archive, resolver, &pool).unwrap_err(),
            DecodeError::ChecksumMismatch { actual, .. } if actual == h.crc32
        ));
        let (out, report) = salvage(&archive, resolver, &pool, &DecodeOptions::default()).unwrap();
        assert_eq!(out, data);
        assert_eq!((report.lost, report.archive_crc_ok), (0, false));
    }

    #[test]
    fn salvage_clean_archive_is_clean() {
        let pool = Pool::new(4);
        let data = incompressible(3);
        let archive = encode(&pipeline(), &data, &pool);
        let (out, report) = salvage(&archive, resolver, &pool, &DecodeOptions::default()).unwrap();
        assert_eq!(out, data);
        assert!(report.is_clean());
        assert_eq!(report.recovered, 3);
        assert_eq!(report.lost, 0);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn salvage_loses_exactly_the_damaged_chunks() {
        let pool = Pool::new(4);
        let data = incompressible(5);
        let mut archive = encode(&pipeline(), &data, &pool);
        let h = parse_header(&archive).unwrap();
        for damaged in [1usize, 3] {
            archive[h.payload_offset + damaged * CHUNK_SIZE + 7] ^= 0x55;
        }
        let (out, report) = salvage(&archive, resolver, &pool, &DecodeOptions::default()).unwrap();
        assert_eq!(report.recovered, 3);
        assert_eq!(report.lost, 2);
        assert!(!report.archive_crc_ok);
        assert_eq!(
            report.errors.iter().map(|f| f.chunk).collect::<Vec<_>>(),
            vec![1, 3]
        );
        for i in 0..5 {
            let r = chunk_range(i, data.len());
            if i == 1 || i == 3 {
                assert!(out[r].iter().all(|&b| b == 0), "chunk {i} zero-filled");
            } else {
                assert_eq!(out[r.clone()], data[r], "chunk {i} recovered");
            }
        }
    }

    #[test]
    fn salvage_survives_mid_stream_truncation() {
        let pool = Pool::new(4);
        let data = incompressible(4);
        let archive = encode(&pipeline(), &data, &pool);
        let h = parse_header(&archive).unwrap();
        // Cut inside chunk 2's payload: chunks 0 and 1 stay whole, chunk 2
        // is partial, chunk 3 is gone.
        let cut = &archive[..h.payload_offset + 2 * CHUNK_SIZE + 10];
        let (out, report) = salvage(cut, resolver, &pool, &DecodeOptions::default()).unwrap();
        assert_eq!(report.recovered, 2);
        assert_eq!(report.lost, 2);
        assert!(report
            .errors
            .iter()
            .all(|f| matches!(f.error, DecodeError::Truncated { .. })));
        assert_eq!(out[..2 * CHUNK_SIZE], data[..2 * CHUNK_SIZE]);
        assert!(out[2 * CHUNK_SIZE..].iter().all(|&b| b == 0));
    }

    #[test]
    fn salvage_v2_reports_value_damage_via_archive_crc_only() {
        let pool = Pool::new(4);
        let data = incompressible(3);
        let mut v2 = downgrade_to_v2(&encode(&pipeline(), &data, &pool));
        let h = parse_header(&v2).unwrap();
        v2[h.payload_offset + CHUNK_SIZE + 9] ^= 0x01;
        let (_, report) = salvage(&v2, resolver, &pool, &DecodeOptions::default()).unwrap();
        // Without per-chunk CRCs the damaged chunk decodes "successfully";
        // only the whole-archive CRC betrays the corruption.
        assert_eq!(report.lost, 0);
        assert!(!report.archive_crc_ok);
        assert!(!report.is_clean());
    }

    #[test]
    fn bounded_decode_rejects_bombs_before_allocating() {
        let pool = Pool::new(2);
        let data = incompressible(2);
        let archive = encode(&pipeline(), &data, &pool);
        let err =
            decode_with(&archive, resolver, &pool, &bounded(data.len() as u64 - 1)).unwrap_err();
        assert_eq!(
            err,
            DecodeError::TooLarge {
                declared: data.len() as u64,
                limit: data.len() as u64 - 1,
            }
        );
        assert_eq!(
            decode_with(&archive, resolver, &pool, &bounded(data.len() as u64)).unwrap(),
            data
        );
        let err = salvage(&archive, resolver, &pool, &bounded(16)).unwrap_err();
        assert!(matches!(err, DecodeError::TooLarge { .. }));
    }

    #[test]
    fn cancelled_decode_and_salvage_stop() {
        let pool = Pool::new(2);
        let archive = encode(&pipeline(), &incompressible(3), &pool);
        let cancel = CancelToken::new();
        cancel.cancel();
        let opts = DecodeOptions {
            max_decoded_bytes: None,
            cancel: Some(&cancel),
        };
        assert_eq!(
            decode_with(&archive, resolver, &pool, &opts).unwrap_err(),
            DecodeError::Cancelled
        );
        assert_eq!(
            salvage(&archive, resolver, &pool, &opts).unwrap_err(),
            DecodeError::Cancelled
        );
    }

    fn windowed(data: &[u8], len: u64) -> std::io::Result<Vec<u8>> {
        let mut out = std::io::Cursor::new(Vec::new());
        let (written, stats) =
            encode_windowed(&pipeline(), &mut &data[..], len, &mut out, &Pool::new(2))?;
        assert_eq!(written, out.get_ref().len() as u64);
        assert_eq!(stats.uncompressed_bytes, len);
        Ok(out.into_inner())
    }

    #[test]
    fn windowed_writer_matches_in_memory_encode() {
        let pool = Pool::new(2);
        let window = WINDOW_CHUNKS * CHUNK_SIZE;
        for len in [0, 1, CHUNK_SIZE, window, window + CHUNK_SIZE + 17] {
            let mut data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            // Trailing 0xFF bytes turn into zeros DTZ can drop, so masks
            // differ between chunks.
            data.iter_mut().skip(len / 2).for_each(|b| *b = 0xFF);
            let res = encode_with_stats(&pipeline(), &data, &pool);
            let mut out = std::io::Cursor::new(Vec::new());
            let (_, stats) =
                encode_windowed(&pipeline(), &mut &data[..], len as u64, &mut out, &pool).unwrap();
            assert_eq!(out.into_inner(), res.archive, "len {len}");
            assert_eq!(
                format!("{stats:?}"),
                format!("{:?}", res.stats),
                "len {len}"
            );
        }
    }

    #[test]
    fn windowed_writer_refuses_a_wrong_length() {
        let data = incompressible(2);
        let n = data.len() as u64;
        assert!(windowed(&data, n).is_ok());
        let short = windowed(&data, n + 1).unwrap_err();
        assert_eq!(short.kind(), std::io::ErrorKind::UnexpectedEof);
        let long = windowed(&data, n - 1).unwrap_err();
        assert_eq!(long.kind(), std::io::ErrorKind::InvalidData);
    }
}
