//! Property tests pinning the SIMD micro-kernel tiers to the naive
//! reference and to each other.
//!
//! Two layers of guarantee:
//!
//! * **Numerical** — every *detected* tier (scalar, avx2, avx512) agrees
//!   with `dgemm_naive`/`sgemm_naive` within floating-point tolerance on
//!   adversarially-shaped problems.
//! * **Bitwise** — every detected tier produces *bit-identical* output
//!   to the forced-scalar packed core, and the multi-lane driver is
//!   bit-identical at any lane count. All micro-kernels accumulate each
//!   element as fused multiply-adds in ascending-k order, so tier choice
//!   and row banding must never change a single bit.
//!
//! The blocked Cholesky panel kernels (`potrf`, `trsm`) carry the same
//! two guarantees — bitwise across tiers and lane counts — and are
//! checked numerically against their `*_unblocked` oracles.
//!
//! Sizes straddle every blocking boundary of the tiles (heights 4 and 8,
//! widths 4 to 32) plus `NB = 64`, `MC = 128` and `KC = 256`. The whole file also
//! runs in CI under `VERSA_SIMD=scalar`, which exercises the same
//! properties with dispatch pinned to the portable fallback.

use proptest::prelude::*;
use versa_kernels::gemm::{
    dgemm_blocked, dgemm_naive, dgemm_packed, dgemm_packed_scalar, dgemm_packed_tier,
    dgemm_parallel, sgemm_naive, sgemm_packed, sgemm_packed_scalar, sgemm_packed_tier,
};
use versa_kernels::potrf::{
    dpotrf, dpotrf_tier, dpotrf_unblocked, spotrf, spotrf_tier, spotrf_unblocked,
};
use versa_kernels::simd::{self, Tier};
use versa_kernels::trsm::{
    dtrsm_right_lower_trans, dtrsm_right_lower_trans_par, dtrsm_right_lower_trans_tier,
    dtrsm_right_lower_trans_unblocked, strsm_right_lower_trans, strsm_right_lower_trans_par,
    strsm_right_lower_trans_tier, strsm_right_lower_trans_unblocked,
};
use versa_kernels::verify::{random_matrix_f32, random_matrix_f64, spd_matrix_f32, spd_matrix_f64};

/// Sizes around the micro-tile edges (8, 16, 32, 48), the dispatch
/// threshold (16), NB (64), MC (128) and KC (256), each ±1, plus a
/// uniform small range.
fn adversarial_n() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(15usize),
        Just(16usize),
        Just(17usize),
        Just(31usize),
        Just(32usize),
        Just(33usize),
        Just(47usize),
        Just(48usize),
        Just(49usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(127usize),
        Just(128usize),
        Just(129usize),
        Just(255usize),
        Just(257usize),
        (1usize..48).prop_map(|v| v),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    // Every detected tier matches the naive triple loop numerically.
    #[test]
    fn every_tier_matches_naive_f64(n in adversarial_n(), seed in 0u64..1_000_000) {
        let a = random_matrix_f64(n, seed);
        let b = random_matrix_f64(n, seed.wrapping_add(1));
        let mut want = random_matrix_f64(n, seed.wrapping_add(2));
        let c0 = want.clone();
        dgemm_naive(&a, &b, &mut want, n);
        for tier in simd::detected_tiers() {
            let mut got = c0.clone();
            prop_assert!(dgemm_packed_tier(tier, &a, &b, &mut got, n));
            for i in 0..n * n {
                let tol = 1e-11 * want[i].abs().max(1.0);
                prop_assert!(
                    (want[i] - got[i]).abs() <= tol,
                    "tier {:?} n={} elem {}: naive {} vs tier {}",
                    tier, n, i, want[i], got[i]
                );
            }
        }
    }

    // Every detected tier matches the naive triple loop numerically (f32).
    #[test]
    fn every_tier_matches_naive_f32(n in adversarial_n(), seed in 0u64..1_000_000) {
        let a = random_matrix_f32(n, seed);
        let b = random_matrix_f32(n, seed.wrapping_add(1));
        let mut want = vec![0.25f32; n * n];
        let c0 = want.clone();
        sgemm_naive(&a, &b, &mut want, n);
        for tier in simd::detected_tiers() {
            let mut got = c0.clone();
            prop_assert!(sgemm_packed_tier(tier, &a, &b, &mut got, n));
            for i in 0..n * n {
                let tol = 5e-3 * want[i].abs().max(1.0);
                prop_assert!(
                    (want[i] - got[i]).abs() <= tol,
                    "tier {:?} n={} elem {}: naive {} vs tier {}",
                    tier, n, i, want[i], got[i]
                );
            }
        }
    }

    // The bitwise contract: every detected SIMD tier is bit-identical
    // to the forced-scalar packed core on every shape.
    #[test]
    fn tiers_are_bitwise_identical_f64(n in adversarial_n(), seed in 0u64..1_000_000) {
        let a = random_matrix_f64(n, seed);
        let b = random_matrix_f64(n, seed.wrapping_add(1));
        let c0 = random_matrix_f64(n, seed.wrapping_add(2));
        let mut scalar = c0.clone();
        dgemm_packed_scalar(&a, &b, &mut scalar, n);
        for tier in simd::detected_tiers() {
            let mut got = c0.clone();
            prop_assert!(dgemm_packed_tier(tier, &a, &b, &mut got, n));
            prop_assert_eq!(&scalar, &got, "tier {:?} diverged bitwise at n={}", tier, n);
        }
        // The dispatched entry point (whatever tier is active, including
        // env-pinned runs) honours the same contract.
        let mut dispatched = c0.clone();
        dgemm_packed(&a, &b, &mut dispatched, n);
        prop_assert_eq!(&scalar, &dispatched);
    }

    // The bitwise contract for f32 tiers and the dispatched entry.
    #[test]
    fn tiers_are_bitwise_identical_f32(n in adversarial_n(), seed in 0u64..1_000_000) {
        let a = random_matrix_f32(n, seed);
        let b = random_matrix_f32(n, seed.wrapping_add(1));
        let c0 = random_matrix_f32(n, seed.wrapping_add(2));
        let mut scalar = c0.clone();
        sgemm_packed_scalar(&a, &b, &mut scalar, n);
        for tier in simd::detected_tiers() {
            let mut got = c0.clone();
            prop_assert!(sgemm_packed_tier(tier, &a, &b, &mut got, n));
            prop_assert_eq!(&scalar, &got, "tier {:?} diverged bitwise at n={}", tier, n);
        }
        let mut dispatched = c0.clone();
        sgemm_packed(&a, &b, &mut dispatched, n);
        prop_assert_eq!(&scalar, &dispatched);
    }

    // Lane banding never changes a bit, at any lane count — including
    // lane counts that exceed the row count. The reference is the
    // serial single-core dispatch (`dgemm_blocked`), which the parallel
    // entry must match at *every* size: below the banding threshold it
    // takes the identical serial path, above it the bands must
    // reproduce the serial accumulation order exactly.
    #[test]
    fn parallel_is_bitwise_identical_at_any_lane_count(
        n in prop_oneof![Just(17usize), Just(129usize), Just(200usize), (1usize..64).prop_map(|v| v)],
        lanes in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let a = random_matrix_f64(n, seed);
        let b = random_matrix_f64(n, seed.wrapping_add(1));
        let c0 = random_matrix_f64(n, seed.wrapping_add(2));
        let mut serial = c0.clone();
        dgemm_blocked(&a, &b, &mut serial, n);
        let mut par = c0.clone();
        dgemm_parallel(&a, &b, &mut par, n, lanes);
        prop_assert_eq!(&serial, &par, "banding over {} lanes diverged at n={}", lanes, n);
    }
}

/// An unavailable tier must refuse cleanly and leave `C` untouched.
#[test]
fn unavailable_tier_is_refused_without_touching_c() {
    let detected = simd::detected_tiers();
    for tier in [Tier::Scalar, Tier::Avx2, Tier::Avx512] {
        if detected.contains(&tier) {
            continue;
        }
        let n = 24;
        let a = random_matrix_f64(n, 1);
        let b = random_matrix_f64(n, 2);
        let c0 = random_matrix_f64(n, 3);
        let mut c = c0.clone();
        assert!(!dgemm_packed_tier(tier, &a, &b, &mut c, n));
        assert_eq!(c0, c, "refused tier {tier:?} must not modify C");
    }
}

/// Panel-kernel sizes: around the column-block width (64), its
/// multiples and the small-tile threshold.
const PANEL_N: [usize; 15] = [1, 7, 15, 16, 17, 31, 33, 63, 64, 65, 127, 129, 255, 256, 257];

/// Up to one column block (64) the blocked kernels run the oracle's
/// exact per-element arithmetic, so they must match it bitwise.
const SINGLE_BLOCK_N: usize = 64;

/// `(L, A)` for an `n × n` solve: a Cholesky factor and a random right
/// hand side.
fn trsm_inputs_f64(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut l = spd_matrix_f64(n, n as u64);
    dpotrf_unblocked(&mut l, n).unwrap();
    (l, random_matrix_f64(n, n as u64 + 1))
}

fn trsm_inputs_f32(n: usize) -> (Vec<f32>, Vec<f32>) {
    let mut l = spd_matrix_f32(n, n as u64);
    spotrf_unblocked(&mut l, n).unwrap();
    (l, random_matrix_f32(n, n as u64 + 1))
}

/// Blocked `potrf`/`trsm` are bit-identical on every detected tier, the
/// forced-scalar core and the dispatched entry.
#[test]
fn panel_kernels_are_bitwise_identical_across_tiers() {
    for n in PANEL_N {
        let a64 = spd_matrix_f64(n, 3);
        let mut scalar64 = a64.clone();
        dpotrf_tier(Tier::Scalar, &mut scalar64, n).unwrap().unwrap();
        let a32 = spd_matrix_f32(n, 3);
        let mut scalar32 = a32.clone();
        spotrf_tier(Tier::Scalar, &mut scalar32, n).unwrap().unwrap();
        let (l64, b64) = trsm_inputs_f64(n);
        let mut xscalar64 = b64.clone();
        assert!(dtrsm_right_lower_trans_tier(Tier::Scalar, &l64, &mut xscalar64, n));
        let (l32, b32) = trsm_inputs_f32(n);
        let mut xscalar32 = b32.clone();
        assert!(strsm_right_lower_trans_tier(Tier::Scalar, &l32, &mut xscalar32, n));
        for tier in simd::detected_tiers() {
            let mut got = a64.clone();
            dpotrf_tier(tier, &mut got, n).unwrap().unwrap();
            assert_eq!(scalar64, got, "dpotrf tier {tier} diverged at n={n}");
            let mut got = a32.clone();
            spotrf_tier(tier, &mut got, n).unwrap().unwrap();
            assert_eq!(scalar32, got, "spotrf tier {tier} diverged at n={n}");
            let mut got = b64.clone();
            assert!(dtrsm_right_lower_trans_tier(tier, &l64, &mut got, n));
            assert_eq!(xscalar64, got, "dtrsm tier {tier} diverged at n={n}");
            let mut got = b32.clone();
            assert!(strsm_right_lower_trans_tier(tier, &l32, &mut got, n));
            assert_eq!(xscalar32, got, "strsm tier {tier} diverged at n={n}");
        }
        let mut got = a64.clone();
        dpotrf(&mut got, n).unwrap();
        assert_eq!(scalar64, got, "dispatched dpotrf diverged at n={n}");
        let mut got = a32.clone();
        spotrf(&mut got, n).unwrap();
        assert_eq!(scalar32, got, "dispatched spotrf diverged at n={n}");
        let mut got = b64.clone();
        dtrsm_right_lower_trans(&l64, &mut got, n);
        assert_eq!(xscalar64, got, "dispatched dtrsm diverged at n={n}");
        let mut got = b32.clone();
        strsm_right_lower_trans(&l32, &mut got, n);
        assert_eq!(xscalar32, got, "dispatched strsm diverged at n={n}");
    }
}

/// Row banding never changes a bit of the blocked solve, at 1–4 lanes.
#[test]
fn panel_trsm_is_bitwise_identical_at_any_lane_count() {
    for n in PANEL_N {
        let (l64, b64) = trsm_inputs_f64(n);
        let mut serial64 = b64.clone();
        dtrsm_right_lower_trans(&l64, &mut serial64, n);
        let (l32, b32) = trsm_inputs_f32(n);
        let mut serial32 = b32.clone();
        strsm_right_lower_trans(&l32, &mut serial32, n);
        for lanes in 1..=4 {
            let mut par = b64.clone();
            dtrsm_right_lower_trans_par(&l64, &mut par, n, lanes);
            assert_eq!(serial64, par, "dtrsm over {lanes} lanes diverged at n={n}");
            let mut par = b32.clone();
            strsm_right_lower_trans_par(&l32, &mut par, n, lanes);
            assert_eq!(serial32, par, "strsm over {lanes} lanes diverged at n={n}");
        }
    }
}

fn assert_near_f64(oracle: &[f64], got: &[f64], tol: f64, what: &str, n: usize) {
    if n <= SINGLE_BLOCK_N {
        assert_eq!(oracle, got, "{what} differs bitwise from its oracle at n={n}");
    }
    for (i, (&o, &g)) in oracle.iter().zip(got).enumerate() {
        assert!((o - g).abs() <= tol * o.abs().max(1.0), "{what} n={n} elem {i}: oracle {o} vs {g}");
    }
}

fn assert_near_f32(oracle: &[f32], got: &[f32], tol: f32, what: &str, n: usize) {
    if n <= SINGLE_BLOCK_N {
        assert_eq!(oracle, got, "{what} differs bitwise from its oracle at n={n}");
    }
    for (i, (&o, &g)) in oracle.iter().zip(got).enumerate() {
        assert!((o - g).abs() <= tol * o.abs().max(1.0), "{what} n={n} elem {i}: oracle {o} vs {g}");
    }
}

/// The blocked kernels agree with the unblocked loops they replace.
#[test]
fn panel_kernels_match_the_unblocked_oracles() {
    for n in PANEL_N {
        let a = spd_matrix_f64(n, 21);
        let (mut oracle, mut got) = (a.clone(), a);
        dpotrf_unblocked(&mut oracle, n).unwrap();
        dpotrf(&mut got, n).unwrap();
        assert_near_f64(&oracle, &got, 1e-10, "dpotrf", n);

        let a = spd_matrix_f32(n, 21);
        let (mut oracle, mut got) = (a.clone(), a);
        spotrf_unblocked(&mut oracle, n).unwrap();
        spotrf(&mut got, n).unwrap();
        assert_near_f32(&oracle, &got, 1e-4, "spotrf", n);

        let (l, b) = trsm_inputs_f64(n);
        let (mut oracle, mut got) = (b.clone(), b);
        dtrsm_right_lower_trans_unblocked(&l, &mut oracle, n);
        dtrsm_right_lower_trans(&l, &mut got, n);
        assert_near_f64(&oracle, &got, 1e-10, "dtrsm", n);

        let (l, b) = trsm_inputs_f32(n);
        let (mut oracle, mut got) = (b.clone(), b);
        strsm_right_lower_trans_unblocked(&l, &mut oracle, n);
        strsm_right_lower_trans(&l, &mut got, n);
        assert_near_f32(&oracle, &got, 1e-4, "strsm", n);
    }
}
