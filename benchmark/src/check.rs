//! Output checks, written against the inputs alone: plain loops in f64,
//! none of the kernels under test.

use crate::gen::{spd_entry, Rng};

/// Entries sampled by each residual check.
pub const SAMPLED_ENTRIES: usize = 4096;

/// Largest deviation of a tiled `C = A·B` (row-major `nb × nb` tiles of
/// `bs × bs`) from a serial recomputation: [`SAMPLED_ENTRIES`] entries
/// recomputed exactly, plus one Freivalds product `C·x` vs `A·(B·x)`
/// that touches every entry of every tile (its error is scaled by
/// `1/√n` to stay comparable with a per-entry error).
pub fn matmul_max_error(
    nb: usize,
    bs: usize,
    a: &[Vec<f64>],
    b: &[Vec<f64>],
    c: &[Vec<f64>],
    seed: u64,
) -> f64 {
    let n = nb * bs;
    let at = |m: &[Vec<f64>], r: usize, col: usize| {
        m[(r / bs) * nb + col / bs][(r % bs) * bs + col % bs]
    };
    let mut rng = Rng::new(seed);
    let mut worst = 0.0f64;
    for _ in 0..SAMPLED_ENTRIES {
        let (r, col) = (rng.below(n), rng.below(n));
        let expect: f64 = (0..n).map(|k| at(a, r, k) * at(b, k, col)).sum();
        worst = worst.max((expect - at(c, r, col)).abs());
    }
    let x: Vec<f64> = (0..n)
        .map(|_| if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 })
        .collect();
    let times = |m: &[Vec<f64>], v: &[f64]| -> Vec<f64> {
        let mut out = vec![0.0; n];
        for ti in 0..nb {
            for tj in 0..nb {
                let tile = &m[ti * nb + tj];
                for r in 0..bs {
                    let row = &tile[r * bs..(r + 1) * bs];
                    out[ti * bs + r] += row
                        .iter()
                        .zip(&v[tj * bs..(tj + 1) * bs])
                        .map(|(p, q)| p * q)
                        .sum::<f64>();
                }
            }
        }
        out
    };
    let (lhs, rhs) = (times(c, &x), times(a, &times(b, &x)));
    let freivalds = lhs
        .iter()
        .zip(&rhs)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    worst.max(freivalds / (n as f64).sqrt())
}

/// Largest `|L·Lᵀ − A|` over [`SAMPLED_ENTRIES`] sampled lower-triangle
/// entries (a quarter of them on the diagonal), `A` being the
/// [`spd_entry`] matrix of `seed` and `L` the factor tiles.
pub fn cholesky_max_residual(
    n: usize,
    bs: usize,
    matrix_seed: u64,
    factor: &[Vec<f32>],
    seed: u64,
) -> f64 {
    let nb = n / bs;
    let l =
        |r: usize, col: usize| factor[(r / bs) * nb + col / bs][(r % bs) * bs + col % bs] as f64;
    let mut rng = Rng::new(seed);
    let mut worst = 0.0f64;
    for s in 0..SAMPLED_ENTRIES {
        let i = rng.below(n);
        let j = if s % 4 == 0 { i } else { rng.below(i + 1) };
        let dot: f64 = (0..=j).map(|k| l(i, k) * l(j, k)).sum();
        worst = worst.max((dot - spd_entry(n, matrix_seed, i, j) as f64).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{spd_tile_f32, tile_f64};

    #[test]
    fn matmul_check_accepts_the_product_and_rejects_a_bad_tile() {
        let (nb, bs) = (2, 8);
        let n = nb * bs;
        let tiles = |off: u64| -> Vec<Vec<f64>> {
            (0..nb * nb).map(|t| tile_f64(bs, off + t as u64)).collect()
        };
        let (a, b) = (tiles(100), tiles(200));
        let at =
            |m: &[Vec<f64>], r: usize, c: usize| m[(r / bs) * nb + c / bs][(r % bs) * bs + c % bs];
        let mut c = vec![vec![0.0; bs * bs]; nb * nb];
        for r in 0..n {
            for col in 0..n {
                c[(r / bs) * nb + col / bs][(r % bs) * bs + col % bs] =
                    (0..n).map(|k| at(&a, r, k) * at(&b, k, col)).sum();
            }
        }
        assert!(matmul_max_error(nb, bs, &a, &b, &c, 1) < 1e-12);
        c[3][5] += 1e-3;
        assert!(
            matmul_max_error(nb, bs, &a, &b, &c, 1) > 1e-5,
            "Freivalds sees a single bad entry"
        );
    }

    #[test]
    fn cholesky_check_accepts_a_factor_and_rejects_the_input() {
        let (n, bs) = (32, 8);
        let nb = n / bs;
        let mut m = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                m[i * n + j] = spd_entry(n, 9, i, j) as f64;
            }
        }
        for j in 0..n {
            for k in 0..j {
                for i in j..n {
                    m[i * n + j] -= m[i * n + k] * m[j * n + k];
                }
            }
            let d = m[j * n + j].sqrt();
            for i in j..n {
                m[i * n + j] /= d;
            }
        }
        let factor: Vec<Vec<f32>> = (0..nb * nb)
            .map(|t| {
                let (ti, tj) = (t / nb, t % nb);
                (0..bs * bs)
                    .map(|e| m[(ti * bs + e / bs) * n + tj * bs + e % bs] as f32)
                    .collect()
            })
            .collect();
        assert!(cholesky_max_residual(n, bs, 9, &factor, 2) < 1e-3);
        let unfactored: Vec<Vec<f32>> = (0..nb * nb)
            .map(|t| spd_tile_f32(n, bs, 9, t / nb, t % nb))
            .collect();
        assert!(cholesky_max_residual(n, bs, 9, &unfactored, 2) > 1.0);
    }
}
