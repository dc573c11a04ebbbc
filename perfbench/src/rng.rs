//! Seeded draws. Every input choice the benchmark makes — window order,
//! file order, arrival times, request mix — comes from here, so one
//! `--seed` reproduces one set of inputs.

use lc_chaos::splitmix64;

/// The `i`-th 64-bit draw of stream `stream` under `seed`.
pub fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)) ^ i)
}

/// Uniform in `[0, 1)`.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (draw(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(1, 7, 50);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, permutation(1, 7, 50));
        assert_ne!(a, permutation(2, 7, 50));
        assert_ne!(a, permutation(1, 8, 50));
    }
}
