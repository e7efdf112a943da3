//! PBPI computational loops.
//!
//! PBPI (paper §V-B3) is "a parallel implementation of a Bayesian
//! phylogenetic inference method for DNA sequence data" built on Markov
//! chain Monte Carlo sampling. Its per-generation run time is dominated
//! by three computational loops over the site-pattern arrays; the paper
//! taskifies the first two (GPU + SMP versions) and keeps the third on
//! the SMP.
//!
//! The loops implemented here preserve the *computational shape* that
//! drives the paper's result — loop 3 consumes loop 2's output on the
//! host every generation, forcing data back from the GPU:
//!
//! 1. [`loop1_propagate`] — per-site conditional-likelihood propagation
//!    along a branch: each site's 4-state vector is multiplied by a 4×4
//!    transition matrix.
//! 2. [`loop2_combine`] — pointwise combination of two children's
//!    partials into the parent's partial.
//! 3. [`loop3_loglik`] — log-likelihood reduction over sites (the paper's
//!    SMP-only loop): `Σ log(Σ_s π_s · partial[site][s])`.

use crate::chunk_ranges;
use crate::exec::{LaneExec, ScopedExec};

/// Number of nucleotide states.
pub const STATES: usize = 4;

/// A 4×4 transition-probability matrix for one branch (row-major).
pub(crate) type TransitionMatrix = [f64; STATES * STATES];

/// Build a Jukes–Cantor-style transition matrix for branch length `t`.
/// Rows sum to 1 for any `t ≥ 0`.
pub fn jukes_cantor(t: f64) -> TransitionMatrix {
    assert!(t >= 0.0, "branch length must be non-negative");
    let e = (-4.0 / 3.0 * t).exp();
    let same = 0.25 + 0.75 * e;
    let diff = 0.25 - 0.25 * e;
    let mut m = [diff; STATES * STATES];
    for s in 0..STATES {
        m[s * STATES + s] = same;
    }
    m
}

/// Loop 1: propagate conditional likelihoods along a branch.
/// `out[site][s] = Σ_z p[s][z] · input[site][z]`, banded over `exec`'s
/// lanes.
///
/// # Panics
/// Panics if slices are shorter than `sites * STATES`.
pub fn loop1_propagate_on(
    exec: &dyn LaneExec,
    p: &TransitionMatrix,
    input: &[f64],
    out: &mut [f64],
    sites: usize,
) {
    assert!(input.len() >= sites * STATES && out.len() >= sites * STATES);
    let body = |input: &[f64], out: &mut [f64], range: std::ops::Range<usize>| {
        for site in range {
            let v = &input[site * STATES..site * STATES + STATES];
            let o = &mut out[site * STATES..site * STATES + STATES];
            for s in 0..STATES {
                let row = &p[s * STATES..s * STATES + STATES];
                o[s] = row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3];
            }
        }
    };
    if exec.lanes() <= 1 || sites < 1024 {
        return body(input, out, 0..sites);
    }
    let body = &body;
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    let mut rest: &mut [f64] = &mut out[..sites * STATES];
    for band in chunk_ranges(sites, exec.lanes()) {
        let rows = band.len();
        let (mine, r) = rest.split_at_mut(rows * STATES);
        rest = r;
        let inp = &input[band.start * STATES..band.end * STATES];
        jobs.push(Box::new(move || body(inp, mine, 0..rows)));
    }
    exec.run_batch(jobs);
}

/// Loop 1 over `lanes` ad-hoc scoped threads — the legacy entry point for
/// callers without a persistent lane pool.
///
/// # Panics
/// Panics if slices are shorter than `sites * STATES`.
pub fn loop1_propagate(
    p: &TransitionMatrix,
    input: &[f64],
    out: &mut [f64],
    sites: usize,
    lanes: usize,
) {
    loop1_propagate_on(&ScopedExec::new(lanes), p, input, out, sites)
}

/// Loop 2: combine two children's partials into the parent:
/// `out[site][s] = left[site][s] · right[site][s]`, banded over `exec`'s
/// lanes.
///
/// # Panics
/// Panics if slices are shorter than `sites * STATES`.
pub fn loop2_combine_on(
    exec: &dyn LaneExec,
    left: &[f64],
    right: &[f64],
    out: &mut [f64],
    sites: usize,
) {
    let n = sites * STATES;
    assert!(left.len() >= n && right.len() >= n && out.len() >= n);
    if exec.lanes() <= 1 || sites < 1024 {
        for i in 0..n {
            out[i] = left[i] * right[i];
        }
        return;
    }
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    let mut rest: &mut [f64] = &mut out[..n];
    for band in chunk_ranges(sites, exec.lanes()) {
        let lo = band.start * STATES;
        let hi = band.end * STATES;
        let (mine, r) = rest.split_at_mut(hi - lo);
        rest = r;
        let (l, rgt) = (&left[lo..hi], &right[lo..hi]);
        jobs.push(Box::new(move || {
            for i in 0..mine.len() {
                mine[i] = l[i] * rgt[i];
            }
        }));
    }
    exec.run_batch(jobs);
}

/// Loop 2 over `lanes` ad-hoc scoped threads — the legacy entry point for
/// callers without a persistent lane pool.
///
/// # Panics
/// Panics if slices are shorter than `sites * STATES`.
pub fn loop2_combine(left: &[f64], right: &[f64], out: &mut [f64], sites: usize, lanes: usize) {
    loop2_combine_on(&ScopedExec::new(lanes), left, right, out, sites)
}

/// Loop 3: log-likelihood reduction over sites with uniform stationary
/// frequencies: `Σ_site ln(0.25 · Σ_s partial[site][s])`. Sites whose
/// likelihood underflows to zero are clamped to `f64::MIN_POSITIVE`.
///
/// # Panics
/// Panics if `partial.len() < sites * STATES`.
pub fn loop3_loglik(partial: &[f64], sites: usize) -> f64 {
    assert!(partial.len() >= sites * STATES);
    let mut acc = 0.0;
    for site in 0..sites {
        let v = &partial[site * STATES..site * STATES + STATES];
        let site_lik = 0.25 * (v[0] + v[1] + v[2] + v[3]);
        acc += site_lik.max(f64::MIN_POSITIVE).ln();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_partials(sites: usize) -> Vec<f64> {
        vec![0.25; sites * STATES]
    }

    #[test]
    fn jukes_cantor_rows_are_distributions() {
        for t in [0.0, 0.01, 0.1, 1.0, 100.0] {
            let m = jukes_cantor(t);
            for s in 0..STATES {
                let row_sum: f64 = m[s * STATES..s * STATES + STATES].iter().sum();
                assert!((row_sum - 1.0).abs() < 1e-12, "t={t}: row {s} sums to {row_sum}");
                assert!(m[s * STATES..s * STATES + STATES].iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn zero_branch_length_is_identity() {
        let m = jukes_cantor(0.0);
        let input: Vec<f64> = (0..8).map(|i| i as f64 / 10.0).collect();
        let mut out = vec![0.0; 8];
        loop1_propagate(&m, &input, &mut out, 2, 1);
        for i in 0..8 {
            assert!((out[i] - input[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn infinite_branch_goes_to_equilibrium() {
        let m = jukes_cantor(1000.0);
        let input = [1.0, 0.0, 0.0, 0.0]; // site certainly in state A
        let mut out = [0.0; 4];
        loop1_propagate(&m, &input, &mut out, 1, 1);
        for (s, &v) in out.iter().enumerate() {
            assert!((v - 0.25).abs() < 1e-6, "state {s}: {v}");
        }
    }

    #[test]
    fn loop1_parallel_matches_serial() {
        let sites = 5000;
        let m = jukes_cantor(0.3);
        let input: Vec<f64> = (0..sites * STATES).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        let mut a = vec![0.0; sites * STATES];
        let mut b = vec![0.0; sites * STATES];
        loop1_propagate(&m, &input, &mut a, sites, 1);
        loop1_propagate(&m, &input, &mut b, sites, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn loop2_is_pointwise_product() {
        let sites = 3;
        let l: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let r = vec![2.0; 12];
        let mut out = vec![0.0; 12];
        loop2_combine(&l, &r, &mut out, sites, 1);
        for i in 0..12 {
            assert_eq!(out[i], l[i] * 2.0);
        }
    }

    #[test]
    fn loop2_parallel_matches_serial() {
        let sites = 4096;
        let l: Vec<f64> = (0..sites * STATES).map(|i| (i % 13) as f64).collect();
        let r: Vec<f64> = (0..sites * STATES).map(|i| (i % 7) as f64).collect();
        let mut a = vec![0.0; sites * STATES];
        let mut b = vec![0.0; sites * STATES];
        loop2_combine(&l, &r, &mut a, sites, 1);
        loop2_combine(&l, &r, &mut b, sites, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn loop3_of_uniform_partials() {
        let sites = 100;
        // Each site: 0.25 * (4 * 0.25) = 0.25 → ln(0.25) per site.
        let ll = loop3_loglik(&uniform_partials(sites), sites);
        assert!((ll - 100.0 * 0.25f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn loop3_clamps_underflow() {
        let partial = vec![0.0; STATES];
        let ll = loop3_loglik(&partial, 1);
        assert!(ll.is_finite());
        assert!(ll < -700.0, "clamped to ln(MIN_POSITIVE) ≈ -744");
    }

    #[test]
    fn full_generation_pipeline_is_sane() {
        // loop1 on both children → loop2 → loop3; likelihood must be a
        // finite negative number and improve as branches shorten.
        let sites = 256;
        let tip: Vec<f64> = uniform_partials(sites);
        let eval = |t: f64| {
            let m = jukes_cantor(t);
            let mut left = vec![0.0; sites * STATES];
            let mut right = vec![0.0; sites * STATES];
            loop1_propagate(&m, &tip, &mut left, sites, 1);
            loop1_propagate(&m, &tip, &mut right, sites, 1);
            let mut parent = vec![0.0; sites * STATES];
            loop2_combine(&left, &right, &mut parent, sites, 1);
            loop3_loglik(&parent, sites)
        };
        let ll = eval(0.1);
        assert!(ll.is_finite() && ll < 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_branch_length_rejected() {
        let _ = jukes_cantor(-0.5);
    }
}
