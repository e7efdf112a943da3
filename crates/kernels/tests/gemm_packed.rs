//! Property tests for the packed register-blocked GEMM core.
//!
//! Sizes are drawn adversarially around every blocking boundary the
//! packed path has: the micro-tiles (4 or 8 rows tall), the small-tile
//! dispatch threshold (64), the `MC = 128` row block and the `KC = 256`
//! panel depth — plus a uniform range of small sizes. Case counts are
//! kept modest because the naive reference is O(n³) in debug builds.

use proptest::prelude::*;
use versa_kernels::gemm::{
    dgemm_naive, dgemm_nt_sub_packed, dgemm_packed, sgemm_naive, sgemm_nt_sub_packed, sgemm_packed,
};
use versa_kernels::verify::{random_matrix_f32, random_matrix_f64};

/// Sizes straddling each blocking boundary: micro-tile (8), dispatch
/// threshold (64), MC (128) and KC (256), each ±1.
fn adversarial_n() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(127usize),
        Just(128usize),
        Just(129usize),
        Just(255usize),
        Just(256usize),
        Just(257usize),
        (1usize..48).prop_map(|v| v),
    ]
}

/// `C0 − A·Bᵀ` by explicit dot products (f64 reference).
fn nt_sub_reference(a: &[f64], b: &[f64], c0: &[f64], n: usize) -> Vec<f64> {
    let mut out = c0.to_vec();
    for i in 0..n {
        for j in 0..n {
            let mut dot = 0.0;
            for k in 0..n {
                dot += a[i * n + k] * b[j * n + k];
            }
            out[i * n + j] -= dot;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    #[test]
    fn packed_matches_naive_f64(n in adversarial_n(), seed in 0u64..1_000_000) {
        let a = random_matrix_f64(n, seed);
        let b = random_matrix_f64(n, seed.wrapping_add(1));
        let mut want = random_matrix_f64(n, seed.wrapping_add(2));
        let mut got = want.clone();
        dgemm_naive(&a, &b, &mut want, n);
        dgemm_packed(&a, &b, &mut got, n);
        for i in 0..n * n {
            let tol = 1e-11 * want[i].abs().max(1.0);
            prop_assert!(
                (want[i] - got[i]).abs() <= tol,
                "n={} elem {}: naive {} vs packed {}", n, i, want[i], got[i]
            );
        }
    }

    #[test]
    fn packed_matches_naive_f32(n in adversarial_n(), seed in 0u64..1_000_000) {
        let a = random_matrix_f32(n, seed);
        let b = random_matrix_f32(n, seed.wrapping_add(1));
        let mut want = vec![0.5f32; n * n];
        let mut got = want.clone();
        sgemm_naive(&a, &b, &mut want, n);
        sgemm_packed(&a, &b, &mut got, n);
        for i in 0..n * n {
            // f32 sums of up to KC+ terms: allow a looser relative slack.
            let tol = 5e-3 * want[i].abs().max(1.0);
            prop_assert!(
                (want[i] - got[i]).abs() <= tol,
                "n={} elem {}: naive {} vs packed {}", n, i, want[i], got[i]
            );
        }
    }

    #[test]
    fn nt_sub_packed_matches_reference_f64(n in adversarial_n(), seed in 0u64..1_000_000) {
        let a = random_matrix_f64(n, seed);
        let b = random_matrix_f64(n, seed.wrapping_add(3));
        let c0 = random_matrix_f64(n, seed.wrapping_add(4));
        let want = nt_sub_reference(&a, &b, &c0, n);
        let mut got = c0;
        dgemm_nt_sub_packed(&a, &b, &mut got, n);
        for i in 0..n * n {
            let tol = 1e-11 * want[i].abs().max(1.0);
            prop_assert!(
                (want[i] - got[i]).abs() <= tol,
                "n={} elem {}: reference {} vs packed {}", n, i, want[i], got[i]
            );
        }
    }

    #[test]
    fn nt_sub_packed_matches_reference_f32(n in adversarial_n(), seed in 0u64..1_000_000) {
        let a = random_matrix_f32(n, seed);
        let b = random_matrix_f32(n, seed.wrapping_add(3));
        let c0 = random_matrix_f32(n, seed.wrapping_add(4));
        let a64: Vec<f64> = a.iter().map(|&v| v as f64).collect();
        let b64: Vec<f64> = b.iter().map(|&v| v as f64).collect();
        let c064: Vec<f64> = c0.iter().map(|&v| v as f64).collect();
        let want = nt_sub_reference(&a64, &b64, &c064, n);
        let mut got = c0;
        sgemm_nt_sub_packed(&a, &b, &mut got, n);
        for i in 0..n * n {
            let tol = 5e-3 * want[i].abs().max(1.0);
            prop_assert!(
                (f64::from(got[i]) - want[i]).abs() <= tol,
                "n={} elem {}: reference {} vs packed {}", n, i, want[i], got[i]
            );
        }
    }
}
