//! Cross-kernel integration: composing `potrf` + `trsm` + `syrk` +
//! `gemm_nt` tile-by-tile must equal the full-matrix factorization —
//! the numerical foundation the Cholesky application rests on.

use proptest::prelude::*;
use versa_kernels::exec::LanePool;
use versa_kernels::verify::{assert_close_f64, max_abs_diff_f64, spd_matrix_f64};
use versa_kernels::{gemm, potrf, syrk, trsm};

/// Right-looking tiled Cholesky over `nb × nb` tiles of `bs × bs`.
fn tiled_cholesky(full: &[f64], n: usize, bs: usize) -> Vec<f64> {
    assert_eq!(n % bs, 0);
    let nb = n / bs;
    // Cut into tiles.
    let mut tiles: Vec<Vec<f64>> = (0..nb * nb)
        .map(|idx| {
            let (ti, tj) = (idx / nb, idx % nb);
            let mut t = vec![0.0; bs * bs];
            for r in 0..bs {
                let src = (ti * bs + r) * n + tj * bs;
                t[r * bs..r * bs + bs].copy_from_slice(&full[src..src + bs]);
            }
            t
        })
        .collect();

    for k in 0..nb {
        {
            let t = &mut tiles[k * nb + k];
            potrf::dpotrf(t, bs).expect("diagonal tile must stay positive definite");
        }
        for i in (k + 1)..nb {
            let l = tiles[k * nb + k].clone();
            trsm::dtrsm_right_lower_trans(&l, &mut tiles[i * nb + k], bs);
        }
        for i in (k + 1)..nb {
            let a = tiles[i * nb + k].clone();
            syrk::dsyrk_lower(&a, &mut tiles[i * nb + i], bs);
            for j in (k + 1)..i {
                let b = tiles[j * nb + k].clone();
                gemm::dgemm_nt_sub(&a, &b, &mut tiles[i * nb + j], bs);
            }
        }
    }

    // Reassemble the lower triangle.
    let mut l = vec![0.0; n * n];
    for ti in 0..nb {
        for tj in 0..=ti {
            let t = &tiles[ti * nb + tj];
            for r in 0..bs {
                for c in 0..bs {
                    let (gi, gj) = (ti * bs + r, tj * bs + c);
                    if gj <= gi {
                        l[gi * n + gj] = t[r * bs + c];
                    }
                }
            }
        }
    }
    l
}

fn full_cholesky(full: &[f64], n: usize) -> Vec<f64> {
    let mut l = full.to_vec();
    potrf::dpotrf(&mut l, n).expect("SPD input");
    // Keep only the lower triangle (dpotrf already zeroes the upper).
    l
}

#[test]
fn tiled_equals_full_factorization() {
    for (n, bs) in [(8usize, 2usize), (16, 4), (32, 8), (48, 16), (64, 16)] {
        let a = spd_matrix_f64(n, 1000 + n as u64);
        let tiled = tiled_cholesky(&a, n, bs);
        let full = full_cholesky(&a, n);
        let err = max_abs_diff_f64(&tiled, &full);
        assert!(err < 1e-8, "n={n} bs={bs}: tiled vs full deviates by {err}");
    }
}

#[test]
fn tiled_factor_reconstructs_the_input() {
    let (n, bs) = (32, 8);
    let a = spd_matrix_f64(n, 7);
    let l = tiled_cholesky(&a, n, bs);
    let mut recon = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            for k in 0..=i.min(j) {
                recon[i * n + j] += l[i * n + k] * l[j * n + k];
            }
        }
    }
    assert_close_f64(&recon, &a, 1e-8);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    #[test]
    fn tiled_cholesky_property(seed in 0u64..10_000, nb in 1usize..5) {
        let bs = 4;
        let n = nb * bs;
        let a = spd_matrix_f64(n, seed);
        let tiled = tiled_cholesky(&a, n, bs);
        let full = full_cholesky(&a, n);
        prop_assert!(max_abs_diff_f64(&tiled, &full) < 1e-8);
    }

    #[test]
    fn gemm_variants_agree(seed in 0u64..10_000, n in 1usize..40) {
        use versa_kernels::verify::random_matrix_f64;
        let a = random_matrix_f64(n, seed);
        let b = random_matrix_f64(n, seed + 1);
        let c0 = random_matrix_f64(n, seed + 2);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        let mut c3 = c0.clone();
        gemm::dgemm_naive(&a, &b, &mut c1, n);
        gemm::dgemm_blocked(&a, &b, &mut c2, n);
        gemm::dgemm_parallel_on(&LanePool::new(3), &a, &b, &mut c3, n);
        prop_assert!(max_abs_diff_f64(&c1, &c2) < 1e-10);
        prop_assert!(max_abs_diff_f64(&c1, &c3) < 1e-10);
    }

    #[test]
    fn trsm_inverts_what_gemm_applies(seed in 0u64..10_000, n in 1usize..24) {
        use versa_kernels::verify::random_matrix_f64;
        // X := A · L^{-T}; then X · L^T must give back A.
        let mut l = spd_matrix_f64(n, seed);
        potrf::dpotrf(&mut l, n).unwrap();
        let a = random_matrix_f64(n, seed + 9);
        let mut x = a.clone();
        trsm::dtrsm_right_lower_trans(&l, &mut x, n);
        // recon = X · L^T  (i.e. recon[i][j] = Σ_k x[i][k] · l[j][k]).
        let mut recon = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    recon[i * n + j] += x[i * n + k] * l[j * n + k];
                }
            }
        }
        prop_assert!(max_abs_diff_f64(&recon, &a) < 1e-7);
    }
}
