//! `kernels.*` probes: the serial tile kernels at bs=256, the tile size
//! of both native workloads.

use super::collect;
use crate::gen::{spd_tile_f32, tile_f64};
use crate::metrics::Samples;
use std::time::{Duration, Instant};
use versa_kernels::{gemm, potrf, syrk, trsm};

const BS: usize = 256;

/// GFLOP/s of `op`, one call per sample.
fn gflops(budget: Duration, flops: f64, mut op: impl FnMut()) -> Vec<f64> {
    op();
    collect(budget, || {
        let t = Instant::now();
        op();
        flops / t.elapsed().as_secs_f64() / 1e9
    })
}

pub fn run(budget: Duration, samples: &mut Samples) {
    let bs3 = (BS * BS * BS) as f64;
    let (a, b) = (tile_f64(BS, 1), tile_f64(BS, 2));
    let mut c = vec![0.0f64; BS * BS];
    samples.set_samples(
        "kernels.dgemm_packed_gflops_bs256",
        &gflops(budget, 2.0 * bs3, || gemm::dgemm_packed(&a, &b, &mut c, BS)),
    );
    samples.set_samples(
        "kernels.dgemm_naive_gflops_bs256",
        &gflops(budget, 2.0 * bs3, || gemm::dgemm_naive(&a, &b, &mut c, BS)),
    );
    // One dgemm tile task: 2·bs³ flops over three bs² f64 tiles. Computed
    // from the sizes, not measured — cache misses are not in it.
    samples.set(
        "kernels.flops_per_byte_bs256",
        2.0 * bs3 / (3.0 * (BS * BS * 8) as f64),
    );

    let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
    let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
    let mut cf = vec![0.0f32; BS * BS];
    samples.set_samples(
        "kernels.sgemm_nt_sub_gflops_bs256",
        &gflops(budget, 2.0 * bs3, || {
            gemm::sgemm_nt_sub(&af, &bf, &mut cf, BS)
        }),
    );
    samples.set_samples(
        "kernels.ssyrk_gflops_bs256",
        &gflops(budget, bs3, || syrk::ssyrk_lower(&af, &mut cf, BS)),
    );

    // potrf and trsm work in place: each call starts from a fresh copy
    // (256 KB, noise next to bs³ flops) so values neither decay nor blow up.
    let spd = spd_tile_f32(BS, BS, 7, 0, 0);
    let mut l = spd.clone();
    samples.set_samples(
        "kernels.spotrf_gflops_bs256",
        &gflops(budget, bs3 / 3.0, || {
            l.copy_from_slice(&spd);
            potrf::spotrf(&mut l, BS).expect("probe tile is SPD");
        }),
    );
    let mut x = af.clone();
    samples.set_samples(
        "kernels.strsm_gflops_bs256",
        &gflops(budget, bs3, || {
            x.copy_from_slice(&af);
            trsm::strsm_right_lower_trans(&l, &mut x, BS);
        }),
    );
}
