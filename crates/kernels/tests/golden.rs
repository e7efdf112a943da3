//! Bit-for-bit pins on the packed kernels.
//!
//! * **Golden hashes** — each kernel runs once at bs = 256 on seeded
//!   inputs, and the FNV-1a hash of its output's bit patterns must equal
//!   the value recorded with the column-oriented SIMD tiles that came
//!   before the row-oriented ones. All tiers are bitwise identical, so
//!   the same hashes hold under every `VERSA_SIMD` setting.
//! * **Poisoned scratch** — the packing buffers are reused per thread
//!   without being cleared, so a call must never read what an earlier
//!   call left behind. A large call on NaN inputs fills the calling
//!   thread's buffers with NaN; ragged calls after it must still match,
//!   bit for bit, the same calls on a fresh thread.

use versa_kernels::gemm::{dgemm_packed, sgemm_nt_sub};
use versa_kernels::potrf::{spotrf, spotrf_unblocked};
use versa_kernels::syrk::ssyrk_lower;
use versa_kernels::trsm::strsm_right_lower_trans;
use versa_kernels::verify::{random_matrix_f32, random_matrix_f64, spd_matrix_f32};

const BS: usize = 256;

/// 64-bit FNV-1a over the little-endian bytes of each element's bits.
fn fnv1a(bits: impl Iterator<Item = u64>, width: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in bits {
        for byte in &word.to_le_bytes()[..width] {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn hash_f64(xs: &[f64]) -> u64 {
    fnv1a(xs.iter().map(|v| v.to_bits()), 8)
}

fn hash_f32(xs: &[f32]) -> u64 {
    fnv1a(xs.iter().map(|v| u64::from(v.to_bits())), 4)
}

/// The five kernels' outputs on seeded `n × n` inputs, hashed. `n` is
/// `BS` for the golden test; the poisoned-scratch test reuses the same
/// calls at ragged sizes.
fn kernel_hashes(n: usize) -> [(&'static str, u64); 5] {
    let a = random_matrix_f64(n, 1);
    let b = random_matrix_f64(n, 2);
    let mut c = random_matrix_f64(n, 3);
    dgemm_packed(&a, &b, &mut c, n);

    let (af, bf) = (random_matrix_f32(n, 4), random_matrix_f32(n, 5));
    let mut nt = random_matrix_f32(n, 6);
    sgemm_nt_sub(&af, &bf, &mut nt, n);

    let mut syrk = spd_matrix_f32(n, 8);
    ssyrk_lower(&random_matrix_f32(n, 7), &mut syrk, n);

    let mut l = spd_matrix_f32(n, 9);
    spotrf_unblocked(&mut l, n).expect("SPD input");
    let mut x = random_matrix_f32(n, 10);
    strsm_right_lower_trans(&l, &mut x, n);

    let mut f = spd_matrix_f32(n, 11);
    spotrf(&mut f, n).expect("SPD input");

    [
        ("dgemm_packed", hash_f64(&c)),
        ("sgemm_nt_sub", hash_f32(&nt)),
        ("ssyrk_lower", hash_f32(&syrk)),
        ("strsm_right_lower_trans", hash_f32(&x)),
        ("spotrf", hash_f32(&f)),
    ]
}

#[test]
fn bs256_outputs_match_their_golden_hashes() {
    const GOLDEN: [(&str, u64); 5] = [
        ("dgemm_packed", 0x2b2d_43a9_2561_a1bc),
        ("sgemm_nt_sub", 0xf9c3_0a64_2dd6_8fb2),
        ("ssyrk_lower", 0x3b2c_388f_b4b7_c476),
        ("strsm_right_lower_trans", 0xf3c9_756a_e8a0_4686),
        ("spotrf", 0x8856_ae00_d5b1_f95b),
    ];
    let got = kernel_hashes(BS);
    let wrong: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, want)| g.1 != want.1)
        .map(|((name, h), (_, want))| format!("{name}: {h:#018x} (golden {want:#018x})"))
        .collect();
    assert!(wrong.is_empty(), "output hashes changed:\n{}", wrong.join("\n"));
}

/// Fill both of this thread's buffer pools (f64 and f32, a packed `B`
/// and an `A` block each) with NaN: run calls larger than any size below
/// on NaN inputs.
fn poison_this_threads_scratch() {
    let n = 300;
    let nan64 = vec![f64::NAN; n * n];
    let nan32 = vec![f32::NAN; n * n];
    dgemm_packed(&nan64, &nan64, &mut nan64.clone(), n);
    sgemm_nt_sub(&nan32, &nan32, &mut nan32.clone(), n);
    ssyrk_lower(&nan32, &mut nan32.clone(), n);
}

#[test]
fn reused_scratch_never_leaks_into_results() {
    for n in [7usize, 17, 33, 65, 129] {
        let fresh = std::thread::spawn(move || kernel_hashes(n)).join().expect("fresh thread");
        poison_this_threads_scratch();
        assert_eq!(kernel_hashes(n), fresh, "n={n}: stale scratch changed a result");
    }
}
