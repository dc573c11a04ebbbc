//! Vectorized inner-loop kernels with runtime CPUID dispatch.
//!
//! This module is the single audited home of every `unsafe` block in the
//! component library (an xtask lint enforces the confinement). Each
//! kernel family exposes:
//!
//! * a **portable** implementation — safe, autovectorization-shaped Rust
//!   that is also the semantic reference (Miri-clean by construction);
//! * optional **explicit SIMD** implementations (`std::arch` SSE2/AVX2)
//!   selected at runtime by CPUID detection;
//! * an `apply`-style dispatching entry point plus a `*_with(variant, …)`
//!   twin that forces a specific tier — the hook the differential tests
//!   use to prove every SIMD kernel bitwise-equal to its scalar twin;
//! * a `variant::<W>()` probe reporting which tier dispatch selects, so
//!   components can answer [`lc_core::Component::kernel_variant`] and the
//!   cost-attribution layer can tag `component.<name>.*` rows.
//!
//! # Dispatch model
//!
//! The selected tier is `min(detected, cap)` where `detected` comes from
//! `is_x86_feature_detected!` (cached) and `cap` defaults to the
//! `LC_KERNELS` environment variable (`scalar` | `sse2` | `avx2`; unset
//! means "no cap"). [`set_tier_cap`] lowers the cap at runtime — used by
//! the equivalence tests and by operators who need to pin the portable
//! path. On non-x86_64 targets everything resolves to
//! [`Variant::Scalar`]. Both functions are defined in `lc-core`, whose
//! CRC-32 honours the same cap.
//!
//! # Safety audit boundary
//!
//! All `unsafe` here is of exactly two shapes: (1) calling a
//! `#[target_feature]` function after the matching runtime detection, and
//! (2) unaligned vector loads/stores through raw pointers whose bounds
//! are checked by the surrounding loop (`i + STEP <= len`). Kernels never
//! allocate, never transmute, and write only into caller-provided slices
//! that are sized before the call. Everything else in the crate is
//! `#![deny(unsafe_code)]`-clean.
#![allow(unsafe_code)]

pub mod bitmap;
pub mod bitplane;
pub mod diff;
pub mod pointwise;
pub mod rle;
pub mod tuple;

pub use lc_core::KernelVariant as Variant;

/// The tier cap lives in `lc-core` next to [`Variant`], so the component
/// kernels and the archive's CRC-32 read one `LC_KERNELS` setting.
pub use lc_core::component::{set_tier_cap, tier};

use lc_core::component::detected_tier as detected;

/// Every tier currently reachable through dispatch, weakest first.
///
/// The differential tests iterate this list to compare each reachable
/// SIMD tier against the portable reference on the same inputs.
pub fn available() -> Vec<Variant> {
    let mut v = vec![Variant::Scalar];
    if tier() >= Variant::Sse2 {
        v.push(Variant::Sse2);
    }
    if tier() >= Variant::Avx2 {
        v.push(Variant::Avx2);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_is_monotone_from_scalar() {
        let avail = available();
        assert_eq!(avail[0], Variant::Scalar);
        for pair in avail.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
