//! The common component interface.
//!
//! Every LC transformation — mutator, shuffler, predictor, or reducer — is
//! given a block of input data (one chunk) and transforms it into a block
//! of output data that feeds the next stage (paper §1, Fig. 1). Only
//! reducers may change the data size.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::contract::Contract;
use crate::error::DecodeError;
use crate::stats::KernelStats;

/// The four component categories of paper Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// Computationally transforms each value in place (DBEFS, DBESF, TCMS,
    /// TCNB). Never changes the size.
    Mutator,
    /// Rearranges values without computing on them (BIT, TUPL). Never
    /// changes the size.
    Shuffler,
    /// Replaces values with prediction residuals (DIFF, DIFFMS, DIFFNB).
    /// Never changes the size.
    Predictor,
    /// Exploits redundancy to shrink the data (CLOG, HCLOG, RARE, RAZE,
    /// RLE, RRE, RZE). The only kind that can compress.
    Reducer,
}

impl ComponentKind {
    /// All four kinds, in the paper's Table 1 column order.
    pub const ALL: [ComponentKind; 4] = [
        ComponentKind::Mutator,
        ComponentKind::Shuffler,
        ComponentKind::Predictor,
        ComponentKind::Reducer,
    ];

    /// Lower-case label used in figures ("mutator", ...).
    pub fn label(&self) -> &'static str {
        match self {
            ComponentKind::Mutator => "mutator",
            ComponentKind::Shuffler => "shuffler",
            ComponentKind::Predictor => "predictor",
            ComponentKind::Reducer => "reducer",
        }
    }
}

/// Asymptotic work of one direction of a component (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Θ(n) in the number of words.
    N,
    /// Θ(n log w) — only BIT.
    NLogW,
}

/// Asymptotic span (critical path) of one direction (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanClass {
    /// Θ(1).
    Const,
    /// Θ(log w) — only BIT.
    LogW,
    /// Θ(log n) — components built on intra-chunk scans.
    LogN,
}

/// Work/span complexities of a component's encoder and decoder,
/// mirroring paper Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Complexity {
    /// Encoder work.
    pub enc_work: WorkClass,
    /// Encoder span.
    pub enc_span: SpanClass,
    /// Decoder work.
    pub dec_work: WorkClass,
    /// Decoder span.
    pub dec_span: SpanClass,
}

impl Complexity {
    /// Convenience constructor.
    pub const fn new(
        enc_work: WorkClass,
        enc_span: SpanClass,
        dec_work: WorkClass,
        dec_span: SpanClass,
    ) -> Self {
        Self {
            enc_work,
            enc_span,
            dec_work,
            dec_span,
        }
    }
}

/// Which code path a component's inner loops dispatch to at runtime.
///
/// `Scalar` covers both the naive reference loops and the
/// autovectorization-shaped portable kernels; `Sse2`/`Avx2` mean an
/// explicit `std::arch` kernel was selected by runtime CPUID detection.
/// The ordering is by capability, so `min`/`max` pick the weaker/stronger
/// tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelVariant {
    /// Portable Rust (reference loops or autovectorizable fallbacks).
    Scalar,
    /// Explicit 128-bit `std::arch` kernel (baseline on x86-64).
    Sse2,
    /// Explicit 256-bit `std::arch` kernel (runtime-detected).
    Avx2,
}

impl KernelVariant {
    /// Label used in telemetry counter names and `lc report`.
    pub fn label(&self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Sse2 => "sse2",
            KernelVariant::Avx2 => "avx2",
        }
    }
}

/// Sentinel: the runtime cap has not been set, fall back to `LC_KERNELS`.
const CAP_UNSET: u8 = u8::MAX;

static CAP: AtomicU8 = AtomicU8::new(CAP_UNSET);
static ENV_CAP: OnceLock<KernelVariant> = OnceLock::new();
static DETECTED: OnceLock<KernelVariant> = OnceLock::new();

/// Strongest tier the running CPU supports (cached CPUID probe).
pub fn detected_tier() -> KernelVariant {
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelVariant::Avx2
            } else if std::arch::is_x86_feature_detected!("sse2") {
                KernelVariant::Sse2
            } else {
                KernelVariant::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelVariant::Scalar
    })
}

/// Cap requested through the `LC_KERNELS` environment variable.
fn env_cap() -> KernelVariant {
    *ENV_CAP.get_or_init(|| match std::env::var("LC_KERNELS").as_deref() {
        Ok("scalar") => KernelVariant::Scalar,
        Ok("sse2") => KernelVariant::Sse2,
        // Unset, "avx2", or anything unrecognized: no cap. An unknown
        // value must not silently disable SIMD in production.
        _ => KernelVariant::Avx2,
    })
}

/// The tier every explicit-SIMD kernel dispatches to on this machine
/// right now: `min(detected CPU features, configured cap)`. The
/// component kernels and the CRC-32 in [`crate::checksum`] read this one
/// cap.
pub fn tier() -> KernelVariant {
    let cap = match CAP.load(Ordering::Relaxed) {
        CAP_UNSET => env_cap(),
        0 => KernelVariant::Scalar,
        1 => KernelVariant::Sse2,
        _ => KernelVariant::Avx2,
    };
    detected_tier().min(cap)
}

/// Cap the dispatch tier at runtime, overriding `LC_KERNELS`.
///
/// `set_tier_cap(KernelVariant::Scalar)` forces every kernel onto the
/// portable path; `set_tier_cap(KernelVariant::Avx2)` removes the cap
/// (detection still applies). Takes effect for all subsequent kernel
/// calls process-wide.
pub fn set_tier_cap(cap: KernelVariant) {
    CAP.store(cap as u8, Ordering::Relaxed);
}

/// A data transformation with a common chunk-in/chunk-out interface.
///
/// Implementations must be pure (no interior mutability observable across
/// calls) and exactly invertible: for every input chunk,
/// `decode_chunk(encode_chunk(x)) == x`.
///
/// `encode_chunk`/`decode_chunk` append to `out` without clearing it, so a
/// caller can prepend its own framing; the framework always passes an empty
/// buffer.
pub trait Component: Send + Sync {
    /// Canonical name, e.g. `"DIFFMS_4"` or `"TUPL2_1"`.
    fn name(&self) -> &'static str;

    /// Which of the four categories this component belongs to.
    fn kind(&self) -> ComponentKind;

    /// Word granularity in bytes (the `i` suffix): 1, 2, 4, or 8.
    fn word_size(&self) -> usize;

    /// Tuple size `k` for TUPL components; `None` for everything else.
    fn tuple_size(&self) -> Option<usize> {
        None
    }

    /// Work/span complexities (paper Table 2).
    fn complexity(&self) -> Complexity;

    /// Machine-readable contract (see [`crate::contract`]). The default is
    /// the conservative inference from `kind()`/`word_size()` — correct
    /// for any well-behaved component but claiming no algebraic structure;
    /// library components override it with precise claims, every one of
    /// which `lc-analyze` checks against the implementation.
    fn contract(&self) -> Contract {
        Contract::inferred(self.kind(), self.word_size())
    }

    /// Transform one chunk for compression. Appends the transformed bytes
    /// to `out` and accumulates kernel counters into `stats`.
    fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats);

    /// Invert [`Component::encode_chunk`]. Appends exactly the original
    /// bytes to `out`.
    ///
    /// Returns an error when `input` is not a valid encoding (corrupt
    /// archive); implementations must never panic on malformed input.
    fn decode_chunk(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        stats: &mut KernelStats,
    ) -> Result<(), DecodeError>;

    /// Which kernel variant this component's encode/decode inner loops
    /// dispatch to on this machine. The default — components without
    /// explicit `std::arch` kernels — is [`KernelVariant::Scalar`].
    ///
    /// Cost-attribution callers record this per stage so a silent
    /// regression to the fallback path (wrong CPU, `LC_KERNELS=scalar`
    /// leaking into production) is visible in `lc report`.
    fn kernel_variant(&self) -> KernelVariant {
        KernelVariant::Scalar
    }

    /// Transform a batch of chunks for compression: element-wise
    /// [`Component::encode_chunk`] over `inputs[i]` → `outs[i]`.
    ///
    /// Outputs keep per-chunk append semantics (each `outs[i]` is appended
    /// to, never cleared) so copy-on-expand decisions stay per chunk, and
    /// `stats` accumulates exactly the sum of the per-chunk counters — a
    /// batch call must be indistinguishable from `inputs.len()` single
    /// calls in both bytes and op statistics. The default delegates
    /// chunk-by-chunk; implementations may override to amortize dispatch
    /// or share scratch state across the batch.
    ///
    /// Panics (debug) when `inputs` and `outs` lengths differ.
    fn encode_batch(&self, inputs: &[&[u8]], outs: &mut [Vec<u8>], stats: &mut KernelStats) {
        debug_assert_eq!(inputs.len(), outs.len(), "batch arity mismatch");
        for (input, out) in inputs.iter().zip(outs.iter_mut()) {
            self.encode_chunk(input, out, stats);
        }
    }

    /// Invert [`Component::encode_batch`]: element-wise
    /// [`Component::decode_chunk`] over `inputs[i]` → `outs[i]`.
    ///
    /// Stops at the first corrupt chunk and returns its error; chunks
    /// before it are fully decoded, chunks after it are untouched. Same
    /// batch-equals-sum-of-singles stats contract as `encode_batch`.
    fn decode_batch(
        &self,
        inputs: &[&[u8]],
        outs: &mut [Vec<u8>],
        stats: &mut KernelStats,
    ) -> Result<(), DecodeError> {
        debug_assert_eq!(inputs.len(), outs.len(), "batch arity mismatch");
        for (input, out) in inputs.iter().zip(outs.iter_mut()) {
            self.decode_chunk(input, out, stats)?;
        }
        Ok(())
    }
}

/// Family identifier: a component name with its word-size suffix stripped
/// (e.g. `"RLE_4"` → `"RLE"`, `"TUPL2_1"` → `"TUPL"`).
///
/// The paper's per-component figures (Figs. 8–13) group by family.
pub fn family_of(name: &str) -> &str {
    let base = name.split('_').next().unwrap_or(name);
    if let Some(stripped) = base.strip_prefix("TUPL") {
        if stripped.chars().all(|c| c.is_ascii_digit()) {
            return "TUPL";
        }
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_never_exceeds_detection_and_cap_lowers_it() {
        let t = tier();
        assert!(t <= detected_tier());
        set_tier_cap(KernelVariant::Scalar);
        assert_eq!(tier(), KernelVariant::Scalar);
        // set_tier_cap(Avx2) overrides LC_KERNELS entirely (docs above).
        set_tier_cap(KernelVariant::Avx2);
        assert_eq!(tier(), detected_tier());
        // Restore the env-derived default: other tests in this binary
        // dispatch, and an LC_KERNELS pin must keep applying to them.
        CAP.store(CAP_UNSET, Ordering::Relaxed);
        assert_eq!(tier(), detected_tier().min(env_cap()));
    }

    #[test]
    fn kind_labels() {
        assert_eq!(ComponentKind::Mutator.label(), "mutator");
        assert_eq!(ComponentKind::Reducer.label(), "reducer");
        assert_eq!(ComponentKind::ALL.len(), 4);
    }

    #[test]
    fn family_strips_word_size() {
        assert_eq!(family_of("RLE_4"), "RLE");
        assert_eq!(family_of("DBEFS_8"), "DBEFS");
        assert_eq!(family_of("BIT_1"), "BIT");
    }

    #[test]
    fn family_merges_tuple_sizes() {
        assert_eq!(family_of("TUPL2_1"), "TUPL");
        assert_eq!(family_of("TUPL8_4"), "TUPL");
    }

    #[test]
    fn family_of_bare_name() {
        assert_eq!(family_of("RLE"), "RLE");
    }
}
