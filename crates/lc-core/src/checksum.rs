//! CRC-32 (IEEE 802.3) integrity checksums.
//!
//! Bit-flip fault injection shows that a corrupted archive can decode
//! "successfully" into different bytes (e.g. a flipped value inside an
//! RLE literal region is indistinguishable from data). The archive
//! therefore records a CRC-32 of the original input (and, since format
//! v3, of every chunk); the decoder verifies them and turns silent
//! corruption into a [`crate::DecodeError::ChecksumMismatch`].
//!
//! Implemented from scratch (reflected polynomial `0xEDB8_8320`) — no
//! dependency needed. [`Crc32::update`] has two paths with one digest:
//!
//! * **PCLMULQDQ folding** on x86-64 for inputs of [`CLMUL_MIN`] bytes
//!   or more: four 128-bit lanes are folded forward 64 bytes at a time
//!   with carry-less multiplies, collapsed into one lane, and reduced to
//!   32 bits with a Barrett reduction (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009).
//!   Chosen by CPUID under the kernel tier cap
//!   ([`crate::component::tier`]): `LC_KERNELS=scalar` or Miri selects
//!   the portable path.
//! * **slice-by-8** everywhere else and for the sub-16-byte tail: eight
//!   256-entry tables fold eight input bytes per step, eight independent
//!   lookups XORed together instead of eight in sequence.
//!
//! The archive checksums each chunk once per direction, on the chunk's
//! original bytes. The whole-input CRC is not a second pass: it is
//! folded from the chunk CRCs with [`crc32_combine_op`] (zlib's
//! `crc32_combine`), which costs a few dozen shifts per chunk whatever
//! the chunk's size. So every byte the archive touches is checksummed
//! once per direction.
//!
//! The byte-at-a-time loop is kept as [`Crc32::update_scalar`];
//! differential tests assert all three paths produce identical digests
//! at every length, alignment and stream split.

/// Shortest input [`Crc32::update`] hands to the PCLMULQDQ path: the
/// fold-by-4 loop needs four 16-byte lanes to start and one more block
/// of 64 to be worth its set-up.
pub const CLMUL_MIN: usize = 128;

/// Reflected CRC polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight lazily built 256-entry CRC tables.
///
/// `t[0]` is the classic byte-at-a-time table; `t[k][i]` extends the
/// lookup to a byte `k` positions earlier in the 8-byte word
/// (`t[k][i] = (t[k-1][i] >> 8) ^ t[0][t[k-1][i] & 0xFF]`).
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes: PCLMULQDQ folding when the CPU and the tier cap
    /// allow it and `data` holds at least [`CLMUL_MIN`] bytes, slice-by-8
    /// otherwise. Digest-identical to [`Crc32::update_scalar`] at every
    /// split point, so streaming callers may mix chunk sizes freely.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if clmul::available() {
            // SAFETY: `available()` checked PCLMULQDQ by CPUID, and SSE2
            // is baseline x86-64: the features `clmul::update` is
            // compiled for.
            self.state = unsafe { clmul::update(self.state, data) };
            return;
        }
        self.state = slice_by_8(self.state, data);
    }

    /// Absorb bytes one at a time — the reference implementation both
    /// fast paths are differentially tested against.
    pub fn update_scalar(&mut self, data: &[u8]) {
        let t = &tables()[0];
        for &b in data {
            self.state = t[((self.state ^ u32::from(b)) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// Final digest.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Slice-by-8 over the 8-byte body, byte-at-a-time over the tail, from
/// and to the pre-inverted register value.
fn slice_by_8(mut state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut words = data.chunks_exact(8);
    for w in words.by_ref() {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = t[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The PCLMULQDQ folding kernel. The fold constants are `x^e mod P(x)`,
/// bit-reflected as the CRC is and shifted left one bit: `K1`/`K2` with
/// `e = 512 ± 32` fold a lane over one 64-byte step of four lanes,
/// `K3`/`K4` with `e = 128 ± 32` over one lane, and `K5` with `e = 64`
/// takes 96 bits to 64. `P_X` and `U_PRIME` are `P(x)` and
/// `⌊x^64 / P(x)⌋` for the Barrett reduction.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::*;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Whether the CPU has the instructions and the tier cap allows an
    /// explicit SIMD kernel.
    pub(super) fn available() -> bool {
        crate::component::tier() > crate::component::KernelVariant::Scalar
            && std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// Absorb `data` into the pre-inverted register `state`. Inputs
    /// shorter than [`super::CLMUL_MIN`] go to slice-by-8, as does the
    /// sub-16-byte tail. Callers must have checked [`available`].
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        if data.len() < super::CLMUL_MIN {
            return super::slice_by_8(state, data);
        }
        // Four lanes; the register enters as the first lane's low word.
        let mut x3 = _mm_xor_si128(load(data, 0), _mm_cvtsi32_si128(state as i32));
        let mut x2 = load(data, 16);
        let mut x1 = load(data, 32);
        let mut x0 = load(data, 48);
        let mut at = 64;
        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() - at >= 64 {
            x3 = fold(x3, load(data, at), k1k2);
            x2 = fold(x2, load(data, at + 16), k1k2);
            x1 = fold(x1, load(data, at + 32), k1k2);
            x0 = fold(x0, load(data, at + 48), k1k2);
            at += 64;
        }
        // Collapse the four lanes into one, then fold in the remaining
        // whole 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while data.len() - at >= 16 {
            x = fold(x, load(data, at), k3k4);
            at += 16;
        }
        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 → 32 bits: T1 = ⌊R mod x^32⌋·µ,
        // T2 = ⌊T1 mod x^32⌋·P, CRC = (R ^ T2) / x^32 (reflected).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let state = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
        super::slice_by_8(state, &data[at..])
    }

    /// Unaligned load of `data[at..at + 16]`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(data: &[u8], at: usize) -> __m128i {
        let block = &data[at..at + 16];
        // SAFETY: `block` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Fold lane `a` forward over the distance `keys` encodes and add
    /// the block `b` that lands there.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }
}

/// `a · b mod P(x)` over reflected polynomials (`1 << 31` is `x^0`).
fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// The operator that appends `len2` bytes in [`crc32_combine_op`]:
/// `x^(8·len2) mod P(x)`, by square-and-multiply over `x^(2^k)`.
pub fn crc32_combine_gen(len2: u64) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut sq = 1u32 << 30; // x^1, squared once per bit of `8·len2`
    for _ in 0..3 {
        sq = multmodp(sq, sq);
    }
    let mut n = len2;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(sq, p);
        }
        sq = multmodp(sq, sq);
        n >>= 1;
    }
    p
}

/// The CRC-32 of `A ‖ B` from `crc1 = crc32(A)`, `crc2 = crc32(B)` and
/// `op = crc32_combine_gen(B.len())`. Callers appending many pieces of
/// one length build `op` once.
pub fn crc32_combine_op(crc1: u32, crc2: u32, op: u32) -> u32 {
    multmodp(op, crc1) ^ crc2
}

/// The CRC-32 of `A ‖ B` from the two pieces' CRCs and `len2 = B.len()`
/// (zlib's `crc32_combine`).
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    crc32_combine_op(crc1, crc2, crc32_combine_gen(len2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let mut c = Crc32::new();
        for part in data.chunks(97) {
            c.update(part);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    /// xorshift64*: deterministic pseudo-random bytes for the
    /// differential test, no RNG dependency needed.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// The register after absorbing `data` from `state`, by every path
    /// this machine can run, labelled.
    fn every_path(state: u32, data: &[u8]) -> Vec<(&'static str, u32)> {
        let mut scalar = Crc32 { state };
        scalar.update_scalar(data);
        let mut dispatched = Crc32 { state };
        dispatched.update(data);
        #[allow(unused_mut)]
        let mut paths = vec![
            ("scalar", scalar.state),
            ("slice-by-8", slice_by_8(state, data)),
            ("update", dispatched.state),
        ];
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: PCLMULQDQ was just detected; SSE2 is baseline x86-64.
            paths.push(("clmul", unsafe { clmul::update(state, data) }));
        }
        paths
    }

    fn assert_paths_agree(state: u32, data: &[u8], what: &str) {
        let paths = every_path(state, data);
        for &(name, digest) in &paths[1..] {
            assert_eq!(digest, paths[0].1, "{name} vs scalar at {what}");
        }
    }

    #[test]
    fn every_path_matches_scalar_at_every_length_and_offset() {
        // Every length to 300 crosses the CLMUL_MIN threshold, every
        // count of whole 16-byte blocks after the fold-by-4 loop and
        // every tail length; 16 KiB ± 1 is a chunk. Offsets 0..16 start
        // the vector loads at every alignment.
        let lens = (0..=300usize).chain([16 * 1024 - 1, 16 * 1024, 16 * 1024 + 1]);
        for (s, len) in lens.enumerate() {
            let data = random_bytes(0x9E37_79B9_7F4A_7C15 ^ s as u64, len + 16);
            for offset in 0..16 {
                let slice = &data[offset..offset + len];
                assert_paths_agree(0xFFFF_FFFF, slice, &format!("len={len} offset={offset}"));
            }
        }
    }

    #[test]
    fn every_path_matches_scalar_across_stream_splits() {
        let data = random_bytes(42, 4096);
        let splits = [
            0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 127, 128, 129, 1000, 3968, 4095, 4096,
        ];
        let mut whole = Crc32::new();
        whole.update_scalar(&data);
        for split in splits {
            let mut first = Crc32::new();
            first.update_scalar(&data[..split]);
            // Each path resumes from a mid-stream register.
            assert_paths_agree(first.state, &data[split..], &format!("split {split}"));
            let mut streamed = Crc32::new();
            streamed.update(&data[..split]);
            streamed.update(&data[split..]);
            assert_eq!(streamed.finish(), whole.finish(), "split at {split}");
        }
    }

    #[test]
    fn combine_equals_one_shot_over_random_splits() {
        for seed in 0..64u64 {
            let data = random_bytes(seed, 1 + (seed as usize * 977) % 6000);
            // Cut points with repeats, so some pieces are empty.
            let mut cuts: Vec<usize> = random_bytes(seed ^ 0xC0FF_EE00, 6)
                .iter()
                .map(|&b| b as usize * data.len() / 255)
                .chain([0, data.len()])
                .collect();
            cuts.sort_unstable();
            let mut crc = 0;
            for piece in cuts.windows(2) {
                let piece = &data[piece[0]..piece[1]];
                crc = crc32_combine(crc, crc32(piece), piece.len() as u64);
            }
            assert_eq!(crc, crc32(&data), "seed {seed} cuts {cuts:?}");
        }
    }

    #[test]
    fn combine_with_one_operator_per_piece_length() {
        // The archive's shape: equal pieces share one operator, and a
        // shorter last piece gets its own.
        let data = random_bytes(7, 10 * 1000 + 333);
        let full = crc32_combine_gen(1000);
        let mut crc = 0;
        for piece in data.chunks(1000) {
            let op = if piece.len() == 1000 {
                full
            } else {
                crc32_combine_gen(piece.len() as u64)
            };
            crc = crc32_combine_op(crc, crc32(piece), op);
        }
        assert_eq!(crc, crc32(&data));
        // Empty pieces on either side are identities.
        assert_eq!(crc32_combine(0, crc, data.len() as u64), crc);
        assert_eq!(crc32_combine(crc, crc32(b""), 0), crc);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..4096).map(|i| (i * 7 % 256) as u8).collect();
        let reference = crc32(&data);
        for pos in (0..data.len()).step_by(127) {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[pos] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "missed flip at {pos}.{bit}");
            }
        }
    }
}
