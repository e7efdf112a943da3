//! Kernel-tier and native-engine performance baseline.
//!
//! Measures the GEMM tiers in GFLOP/s — naive, the packed
//! register-blocked core forced to the scalar micro-kernel, one row per
//! *detected* SIMD micro-kernel tier (avx2, avx512), the
//! runtime-dispatched `dgemm_packed`, and the multi-lane packed tier —
//! next to `fma_peak`, the host's single-thread FMA rate at the
//! dispatched tier's vector width, measured in the same interleaved
//! rounds. Then the Cholesky panel kernels (`strsm`, `spotrf`) at bs=256,
//! blocked and unblocked, and the native engine end-to-end on small
//! matmul and Cholesky instances in tasks/sec. Writes the numbers as
//! JSON.
//!
//! Usage:
//! ```text
//! perf_baseline [--quick] [--check] [--crossover] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--quick` shrinks the GEMM size and rep count for CI smoke runs.
//! * `--check` turns the run into a regression gate. Same-run *ratio*
//!   gates always apply (they are immune to host speed): the packed
//!   scalar core must beat naive, the dispatched kernel must not lose
//!   to the best tier measured in the same process, on a SIMD tier the
//!   dispatched kernel must reach a floor share of `fma_peak`, and the
//!   blocked `strsm`/`spotrf` must beat their unblocked oracles by 3×
//!   on every tier. In full (non
//!   `--quick`) mode the measured tiers are additionally compared
//!   against the committed baseline JSON with a generous tolerance —
//!   shared-host day-to-day variance is large, so the absolute gate only
//!   catches collapses, while the ratio gates catch dispatch and
//!   code-structure regressions. On failure the process exits non-zero
//!   and the baseline file is left untouched.
//! * `--crossover` prints the small-n naive/packed sweep used to set the
//!   `PACK_MIN_N` dispatch threshold, then exits (no JSON).
//!
//! Regenerate the committed baseline with:
//! `cargo run --release -p versa-bench --bin perf_baseline`.

use std::hint::black_box;
use std::time::Instant;
use versa_apps::cholesky::{self, CholeskyConfig, CholeskyVariant};
use versa_apps::matmul::{self, MatmulConfig, MatmulVariant};
use versa_core::SchedulerKind;
use versa_kernels::gemm::{
    dgemm_naive, dgemm_packed, dgemm_packed_scalar, dgemm_packed_tier, dgemm_parallel,
};
use versa_kernels::simd::{self, Tier};
use versa_kernels::verify::{random_matrix_f32, random_matrix_f64, spd_matrix_f32};
use versa_kernels::{potrf, trsm};
use versa_runtime::NativeConfig;

struct TierResult {
    name: String,
    n: usize,
    seconds: f64,
    gflops: f64,
}

type GemmFn = Box<dyn Fn(&[f64], &[f64], &mut [f64], usize)>;

struct TierSpec {
    name: String,
    f: GemmFn,
}

/// Best-of-`rounds` wall time per tier, measured **interleaved**: each
/// round times every tier once before the next round starts. Shared
/// hosts swing clock speed on multi-millisecond scales — longer than a
/// whole best-of window for one fast tier — so back-to-back per-tier
/// loops can time one tier entirely inside a slow phase and wreck the
/// `--check` ratio gates. Interleaving gives every tier a shot at the
/// same fast windows.
fn measure_tiers(specs: &[TierSpec], n: usize, rounds: usize) -> Vec<TierResult> {
    let a = random_matrix_f64(n, 1);
    let b = random_matrix_f64(n, 2);
    let mut c = vec![0.0; n * n];
    for s in specs {
        (s.f)(&a, &b, &mut c, n); // warm-up (faults pages, primes caches)
    }
    let mut best = vec![f64::INFINITY; specs.len()];
    for _ in 0..rounds {
        for (i, s) in specs.iter().enumerate() {
            let t0 = Instant::now();
            (s.f)(&a, &b, &mut c, n);
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
        }
    }
    specs
        .iter()
        .zip(best)
        .map(|(s, seconds)| {
            let gflops = 2.0 * (n as f64).powi(3) / seconds / 1e9;
            eprintln!("  {:<16} n={n:<5} {seconds:8.4}s  {gflops:7.2} GFLOP/s", s.name);
            TierResult { name: s.name.clone(), n, seconds, gflops }
        })
        .collect()
}

/// Independent accumulator vectors in the `fma_peak` loop. Keeping two
/// FMA ports busy through a 4-cycle latency takes 8; AVX-512 runs 16
/// (its 32 registers hold them), AVX2 12 (16 registers minus the two
/// operands and headroom).
const FMA_CHAINS_AVX512: usize = 16;
const FMA_CHAINS_AVX2: usize = 12;

/// Generate one `fma_peak` loop: about `flops` floating-point operations
/// as independent chains of `x ← x·a + b` on full-width `f64` vectors,
/// the most one core can issue. Returns a value that depends on every
/// chain, so none is optimized away.
#[cfg(target_arch = "x86_64")]
macro_rules! fma_loop {
    ($name:ident, $feature:literal, $chains:expr, $lanes:literal, $vec:ty,
     $set1:ident, $fmadd:ident, $add:ident, $store:ident) => {
        #[target_feature(enable = $feature)]
        fn $name(flops: f64) -> f64 {
            use std::arch::x86_64::*;
            let (a, b) = ($set1(black_box(1.0 - 1e-9)), $set1(black_box(1e-9)));
            let mut acc: [$vec; $chains] = [$set1(1.0); $chains];
            for _ in 0..(flops / (2 * $chains * $lanes) as f64) as usize {
                for v in &mut acc {
                    *v = $fmadd(*v, a, b);
                }
            }
            let mut sum = $set1(0.0);
            for v in acc {
                sum = $add(sum, v);
            }
            let mut out = [0.0f64; $lanes];
            // SAFETY: `out` holds exactly one vector.
            unsafe { $store(out.as_mut_ptr(), sum) };
            out.iter().sum()
        }
    };
}

#[cfg(target_arch = "x86_64")]
fma_loop!(fma_avx512, "avx512f", FMA_CHAINS_AVX512, 8, __m512d, _mm512_set1_pd, _mm512_fmadd_pd,
    _mm512_add_pd, _mm512_storeu_pd);
#[cfg(target_arch = "x86_64")]
fma_loop!(fma_avx2, "avx2,fma", FMA_CHAINS_AVX2, 4, __m256d, _mm256_set1_pd, _mm256_fmadd_pd,
    _mm256_add_pd, _mm256_storeu_pd);

/// The `fma_peak` row for a SIMD `tier`: the FMA loop at the tier's
/// width, run for a GEMM's worth of flops (2n³) so that its GFLOP/s is
/// the host's single-thread FMA peak. `None` on the scalar tier, whose
/// vector width is LLVM's choice.
fn fma_peak(tier: Tier) -> Option<TierSpec> {
    let run: fn(f64) -> f64 = match tier {
        // SAFETY (both arms): dispatch only settles on a tier the CPU
        // was detected to support, so its features are present.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => |flops| unsafe { fma_avx512(flops) },
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => |flops| unsafe { fma_avx2(flops) },
        _ => return None,
    };
    Some(TierSpec {
        name: "fma_peak".into(),
        f: Box::new(move |_, _, _, n| {
            black_box(run(2.0 * (n as f64).powi(3)));
        }),
    })
}

/// Least share of `fma_peak` the dispatched packed kernel must reach
/// under `--check` on a SIMD tier: a same-run ratio, immune to host
/// speed. Set 5 points under the lowest of 10 runs on an avx512 host.
const MIN_PEAK_SHARE: f64 = 0.40;

/// Tile size of the panel-kernel rows: the native workloads' tile.
const PANEL_BS: usize = 256;

/// Least blocked/unblocked speedup `--check` accepts for each panel
/// kernel: a same-run ratio, immune to host speed. On a SIMD tier the
/// blocked kernels measure 6–11×; on the scalar tier 4.6–10×.
const MIN_PANEL_SPEEDUP: f64 = 3.0;

/// The f32 panel kernels at `PANEL_BS`, blocked and unblocked, timed
/// best-of-`rounds` and interleaved like [`measure_tiers`]. Each call
/// starts from a fresh copy of its input, since both work in place.
fn measure_panels(rounds: usize) -> Vec<TierResult> {
    let n = PANEL_BS;
    let spd = spd_matrix_f32(n, 7);
    let mut l = spd.clone();
    potrf::spotrf(&mut l, n).expect("SPD input");
    let rhs = random_matrix_f32(n, 8);
    let n3 = (n * n * n) as f64;
    let (mut x_blocked, mut x_unblocked) = (rhs.clone(), rhs.clone());
    let (mut f_blocked, mut f_unblocked) = (spd.clone(), spd.clone());
    type PanelFn<'a> = Box<dyn FnMut() + 'a>;
    let mut ops: Vec<(&str, f64, PanelFn)> = vec![
        ("strsm_blocked", n3, Box::new(|| {
            x_blocked.copy_from_slice(&rhs);
            trsm::strsm_right_lower_trans(&l, &mut x_blocked, n);
        })),
        ("strsm_unblocked", n3, Box::new(|| {
            x_unblocked.copy_from_slice(&rhs);
            trsm::strsm_right_lower_trans_unblocked(&l, &mut x_unblocked, n);
        })),
        ("spotrf_blocked", n3 / 3.0, Box::new(|| {
            f_blocked.copy_from_slice(&spd);
            potrf::spotrf(&mut f_blocked, n).expect("SPD input");
        })),
        ("spotrf_unblocked", n3 / 3.0, Box::new(|| {
            f_unblocked.copy_from_slice(&spd);
            potrf::spotrf_unblocked(&mut f_unblocked, n).expect("SPD input");
        })),
    ];
    for (_, _, f) in &mut ops {
        f();
    }
    let mut best = vec![f64::INFINITY; ops.len()];
    for _ in 0..rounds {
        for (i, (_, _, f)) in ops.iter_mut().enumerate() {
            let t0 = Instant::now();
            f();
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
        }
    }
    ops.iter()
        .zip(best)
        .map(|((name, flops, _), seconds)| {
            let gflops = flops / seconds / 1e9;
            eprintln!("  {name:<16} n={n:<5} {seconds:8.4}s  {gflops:7.2} GFLOP/s");
            TierResult { name: name.to_string(), n, seconds, gflops }
        })
        .collect()
}

/// Blocked over unblocked speedup of panel kernel `kernel`.
fn panel_speedup(tiers: &[TierResult], kernel: &str) -> f64 {
    let rate = |suffix: &str| {
        tier_gflops(tiers, &format!("{kernel}_{suffix}")).map_or(0.0, |t| t.gflops)
    };
    rate("blocked") / rate("unblocked")
}

struct NativeResult {
    app: &'static str,
    tasks: u64,
    seconds: f64,
    tasks_per_sec: f64,
}

fn native_matmul(app: &'static str, variant: MatmulVariant, quick: bool) -> NativeResult {
    let cfg = if quick {
        MatmulConfig { n: 128, bs: 32 }
    } else {
        MatmulConfig { n: 256, bs: 64 }
    };
    let (report, _data) =
        matmul::run_native(cfg, variant, SchedulerKind::versioning(), NativeConfig::new(2, 1), 5);
    let seconds = report.makespan.as_secs_f64();
    let result = NativeResult {
        app,
        tasks: report.tasks_executed,
        seconds,
        tasks_per_sec: report.tasks_executed as f64 / seconds,
    };
    eprintln!(
        "  native {:<12} {:4} tasks {:8.4}s  {:8.1} tasks/s",
        result.app, result.tasks, result.seconds, result.tasks_per_sec
    );
    result
}

fn native_cholesky(quick: bool) -> NativeResult {
    let cfg = if quick {
        CholeskyConfig { n: 128, bs: 32 }
    } else {
        CholeskyConfig { n: 256, bs: 64 }
    };
    let (report, _data) = cholesky::run_native(
        cfg,
        CholeskyVariant::PotrfHybrid,
        SchedulerKind::versioning(),
        NativeConfig::new(2, 1),
        5,
    );
    let seconds = report.makespan.as_secs_f64();
    let result = NativeResult {
        app: "cholesky",
        tasks: report.tasks_executed,
        seconds,
        tasks_per_sec: report.tasks_executed as f64 / seconds,
    };
    eprintln!(
        "  native {:<12} {:4} tasks {:8.4}s  {:8.1} tasks/s",
        result.app, result.tasks, result.seconds, result.tasks_per_sec
    );
    result
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Extract `(name, gflops)` rows from a committed baseline JSON without
/// a JSON dependency: the file is machine-written by this binary, so a
/// line-oriented scan of the `kernel_tiers` array is reliable.
fn parse_committed_tiers(text: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find("\"kernel_tiers\"") else { return Vec::new() };
    let Some(len) = text[start..].find(']') else { return Vec::new() };
    let mut out = Vec::new();
    for obj in text[start..start + len].split('{').skip(1) {
        let name = obj
            .split("\"name\":")
            .nth(1)
            .and_then(|r| r.split('"').nth(1))
            .map(str::to_string);
        let gflops = obj
            .split("\"gflops\":")
            .nth(1)
            .and_then(|r| r.trim_start().split(['}', ',']).next())
            .and_then(|v| v.trim().parse::<f64>().ok());
        if let (Some(n), Some(g)) = (name, gflops) {
            out.push((n, g));
        }
    }
    out
}

fn tier_gflops<'a>(tiers: &'a [TierResult], name: &str) -> Option<&'a TierResult> {
    tiers.iter().find(|t| t.name == name)
}

/// Same-run ratio gates plus (full mode) the committed-baseline bands.
/// Returns the list of violated gates.
fn check(tiers: &[TierResult], quick: bool, baseline_path: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let naive = tier_gflops(tiers, "naive").map(|t| t.gflops).unwrap_or(0.0);
    let scalar = tier_gflops(tiers, "packed_scalar").map(|t| t.gflops).unwrap_or(0.0);
    let packed = tier_gflops(tiers, "packed").map(|t| t.gflops).unwrap_or(0.0);

    // Gate 1: register blocking + packing must clearly beat the naive
    // triple loop, whatever the host (measured ≥ 2× even on the slowest
    // scalar-only machines; 1.2 leaves noise room).
    if scalar < 1.2 * naive {
        failures.push(format!(
            "packed_scalar ({scalar:.2} GF/s) < 1.2× naive ({naive:.2} GF/s)"
        ));
    }
    // Gate 2: runtime dispatch must not lose to the forced-scalar core —
    // if the active tier is scalar the two are the same code, so this
    // catches dispatch-layer overhead regressions.
    if packed < 0.85 * scalar {
        failures.push(format!(
            "dispatched packed ({packed:.2} GF/s) < 0.85× packed_scalar ({scalar:.2} GF/s)"
        ));
    }
    // Gate 3: in auto mode, dispatch must pick (at least) the best
    // detected SIMD tier. Skipped when the tier is pinned via the env
    // knobs — the per-tier rows still measure every detected kernel, so
    // a pinned run would otherwise always "lose" to the best tier.
    let pinned = std::env::var_os("VERSA_SIMD").is_some()
        || std::env::var_os("VERSA_FORCE_SCALAR").is_some();
    let best_simd = tiers
        .iter()
        .filter(|t| t.name.starts_with("packed_avx"))
        .map(|t| t.gflops)
        .fold(0.0f64, f64::max);
    // 0.75: the two rows run identical code when dispatch is right, but
    // they are timed minutes apart and shared-host frequency swings of
    // ~20% between best-of reps are routine; a wrong tier choice shows
    // up as a 2–3× gap, far below this band.
    if !pinned && best_simd > 0.0 && packed < 0.75 * best_simd {
        failures.push(format!(
            "dispatched packed ({packed:.2} GF/s) < 0.75× best SIMD tier ({best_simd:.2} GF/s)"
        ));
    }

    // Gate 4: on a SIMD tier the dispatched kernel must reach a floor
    // share of the host's FMA peak, measured in the same rounds.
    if let Some(peak) = tier_gflops(tiers, "fma_peak").map(|t| t.gflops) {
        if packed < MIN_PEAK_SHARE * peak {
            failures.push(format!(
                "dispatched packed ({packed:.2} GF/s) < {MIN_PEAK_SHARE}× fma_peak \
                 ({peak:.2} GF/s)"
            ));
        }
    }

    // Gate 5: the blocked panel kernels must keep their lead over the
    // unblocked oracles.
    for kernel in ["strsm", "spotrf"] {
        let speedup = panel_speedup(tiers, kernel);
        if speedup.is_nan() || speedup < MIN_PANEL_SPEEDUP {
            failures.push(format!(
                "{kernel} blocked/unblocked speedup {speedup:.2}× < {MIN_PANEL_SPEEDUP}×"
            ));
        }
    }

    if !quick {
        // Absolute bands vs the committed baseline. Shared hosts swing
        // ~2× day to day, so the band only catches collapses (a tier
        // falling to less than half its committed rate); the ratio gates
        // above carry the fine-grained signal.
        match std::fs::read_to_string(baseline_path) {
            Ok(text) => {
                for (name, committed) in parse_committed_tiers(&text) {
                    let Some(measured) = tier_gflops(tiers, &name) else {
                        // Tier in the committed file but not measurable
                        // here (e.g. avx512 row on an avx2 host): skip.
                        eprintln!("  check: skipping '{name}' (not measured on this host)");
                        continue;
                    };
                    if measured.gflops < 0.5 * committed {
                        failures.push(format!(
                            "{name}: {:.2} GF/s < 0.5× committed {committed:.2} GF/s",
                            measured.gflops
                        ));
                    }
                }
            }
            Err(e) => eprintln!("  check: no committed baseline at {baseline_path} ({e}); ratio gates only"),
        }
    }
    failures
}

/// Print the small-n dispatch-crossover sweep that sets `PACK_MIN_N`.
fn crossover() {
    eprintln!("small-n crossover (best of 200 reps, µs/call):");
    eprintln!("  {:>4}  {:>10}  {:>10}  winner", "n", "naive", "packed");
    for n in [4usize, 8, 10, 12, 16, 24, 32, 48, 64] {
        let a = random_matrix_f64(n, 1);
        let b = random_matrix_f64(n, 2);
        let mut c = vec![0.0; n * n];
        let mut best = [f64::INFINITY; 2];
        for (i, f) in [dgemm_naive as fn(&[f64], &[f64], &mut [f64], usize), dgemm_packed]
            .iter()
            .enumerate()
        {
            f(&a, &b, &mut c, n);
            for _ in 0..200 {
                let t0 = Instant::now();
                f(&a, &b, &mut c, n);
                best[i] = best[i].min(t0.elapsed().as_secs_f64());
            }
        }
        let winner = if best[0] <= best[1] { "naive" } else { "packed" };
        eprintln!("  {n:>4}  {:>10.3}  {:>10.3}  {winner}", best[0] * 1e6, best[1] * 1e6);
    }
    eprintln!("(PACK_MIN_N in gemm.rs is set from this sweep)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let do_check = args.iter().any(|a| a == "--check");
    if args.iter().any(|a| a == "--crossover") {
        crossover();
        return;
    }
    let arg_after = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let baseline_path = arg_after("--baseline").unwrap_or_else(|| out_path.clone());

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Quick rounds are cheap (~10 ms each at n=256); best-of-5 plus
    // interleaving is what keeps the `--check` gates stable on shared
    // hosts.
    let (n, reps): (usize, usize) = if quick { (256, 5) } else { (1024, 3) };
    eprintln!("GEMM tiers (f64, n={n}, simd={}, cores_visible={cores}):", simd::active_tier().name());

    let mut specs: Vec<TierSpec> = vec![
        TierSpec { name: "naive".into(), f: Box::new(dgemm_naive) },
        TierSpec { name: "packed_scalar".into(), f: Box::new(dgemm_packed_scalar) },
    ];
    for tier in simd::detected_tiers() {
        if tier == Tier::Scalar {
            continue;
        }
        specs.push(TierSpec {
            name: format!("packed_{}", tier.name()),
            f: Box::new(move |a, b, c, n| {
                assert!(dgemm_packed_tier(tier, a, b, c, n));
            }),
        });
    }
    specs.push(TierSpec { name: "packed".into(), f: Box::new(dgemm_packed) });
    specs.push(TierSpec {
        name: "packed_4lanes".into(),
        f: Box::new(|a, b, c, n| dgemm_parallel(a, b, c, n, 4)),
    });
    specs.extend(fma_peak(simd::active_tier()));
    let mut tiers = measure_tiers(&specs, n, reps);
    eprintln!("Cholesky panel kernels (f32, n={PANEL_BS}):");
    tiers.extend(measure_panels(if quick { 5 } else { 20 }));

    let naive = tier_gflops(&tiers, "naive").unwrap().gflops;
    let packed = tier_gflops(&tiers, "packed").unwrap().gflops;
    let scalar = tier_gflops(&tiers, "packed_scalar").unwrap().gflops;
    let share_of_peak = tier_gflops(&tiers, "fma_peak").map(|t| packed / t.gflops);
    eprintln!("packed vs naive speedup: {:.2}x", packed / naive);
    eprintln!("packed vs packed_scalar speedup: {:.2}x", packed / scalar);
    if let Some(share) = share_of_peak {
        eprintln!("packed share of fma_peak: {share:.3}");
    }
    let (strsm_speedup, spotrf_speedup) =
        (panel_speedup(&tiers, "strsm"), panel_speedup(&tiers, "spotrf"));
    eprintln!("strsm blocked vs unblocked speedup: {strsm_speedup:.2}x");
    eprintln!("spotrf blocked vs unblocked speedup: {spotrf_speedup:.2}x");

    if do_check {
        let failures = check(&tiers, quick, &baseline_path);
        if !failures.is_empty() {
            eprintln!("perf check FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("perf check passed");
    }

    eprintln!("native engine end-to-end:");
    let native = [
        native_matmul("matmul", MatmulVariant::Hybrid, quick),
        native_matmul("matmul_wide", MatmulVariant::Wide, quick),
        native_cholesky(quick),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generated_by\": \"perf_baseline\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str(&format!("  \"gemm_n\": {n},\n"));
    json.push_str(&format!("  \"cores_visible\": {cores},\n"));
    json.push_str(&format!("  \"simd_active\": \"{}\",\n", json_escape(simd::active_tier().name())));
    json.push_str(&format!(
        "  \"simd_detected\": [{}],\n",
        simd::detected_tiers()
            .iter()
            .map(|t| format!("\"{}\"", t.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"kernel_tiers\": [\n");
    for (i, t) in tiers.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"seconds\": {:.6}, \"gflops\": {:.3}}}{}\n",
            json_escape(&t.name),
            t.n,
            t.seconds,
            t.gflops,
            if i + 1 < tiers.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"packed_vs_naive_speedup\": {:.3},\n", packed / naive));
    json.push_str(&format!(
        "  \"packed_share_of_peak\": {},\n",
        share_of_peak.map_or("null".to_string(), |s| format!("{s:.3}"))
    ));
    json.push_str(&format!(
        "  \"packed_vs_scalar_speedup\": {:.3},\n",
        packed / scalar
    ));
    json.push_str(&format!("  \"strsm_blocked_speedup\": {strsm_speedup:.3},\n"));
    json.push_str(&format!("  \"spotrf_blocked_speedup\": {spotrf_speedup:.3},\n"));
    json.push_str("  \"native\": [\n");
    for (i, r) in native.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"app\": \"{}\", \"tasks\": {}, \"seconds\": {:.6}, \"tasks_per_sec\": {:.2}}}{}\n",
            json_escape(r.app),
            r.tasks,
            r.seconds,
            r.tasks_per_sec,
            if i + 1 < native.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
