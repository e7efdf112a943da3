//! Reusable [`JobSpec`] factories over the paper's applications — the
//! bridge between the one-shot app builders and the `versa-serve`
//! multi-job service.
//!
//! Each factory's build closure registers its templates *idempotently*
//! (looked up by name first), so any number of jobs submitted to one
//! service share a single template — and therefore a single learned
//! execution profile: the cross-job warmth the service exists for. The
//! finish closure reads results back, optionally verifies them against
//! a serial recomputation, and frees every allocation the job made.

use crate::{cholesky, matmul};
use versa_core::VersionId;
use versa_mem::DataId;
use versa_runtime::Runtime;
use versa_serve::{FinishFn, JobSpec};

/// Idempotent template registration + native kernel binding for the
/// hybrid matmul. First registration wins; later jobs reuse it.
fn ensure_matmul_native(rt: &mut Runtime, bs: usize) -> versa_core::TemplateId {
    if let Some(t) = rt.templates().by_name("matmul_tile") {
        return t;
    }
    let template = matmul::register(rt, matmul::MatmulVariant::Hybrid);
    rt.bind_native(template, VersionId(0), move |ctx| {
        let exec = ctx.exec();
        let (reads, c) = ctx.f64_reads_and_mut(&[0, 1], 2);
        versa_kernels::gemm::dgemm_parallel_on(exec, reads[0], reads[1], c, bs);
    });
    rt.bind_native(template, VersionId(1), move |ctx| {
        let (reads, c) = ctx.f64_reads_and_mut(&[0, 1], 2);
        versa_kernels::gemm::dgemm_blocked(reads[0], reads[1], c, bs);
    });
    rt.bind_native(template, VersionId(2), move |ctx| {
        let (reads, c) = ctx.f64_reads_and_mut(&[0, 1], 2);
        versa_kernels::gemm::dgemm_naive(reads[0], reads[1], c, bs);
    });
    template
}

/// A native hybrid matmul job: random `A`/`B` tiles, `nb³` gemm tasks.
/// With `verify`, the finish closure recomputes `C` serially and fails
/// the job on any deviation — keep dimensions small when verifying.
/// All tiles are freed at completion either way.
///
/// Every job built by this factory must use the same `bs` (the kernels
/// bound at first registration close over it).
pub fn matmul_native_job(config: matmul::MatmulConfig, seed: u64, verify: bool) -> JobSpec {
    let name = format!("matmul-{}x{}", config.n, config.bs);
    JobSpec::new(name, move |rt| {
        let bs = config.bs;
        let nb = config.nb();
        let template = ensure_matmul_native(rt, bs);
        let mut mk = |off: u64| -> Vec<DataId> {
            (0..nb * nb)
                .map(|t| {
                    let tile = versa_kernels::verify::random_matrix_f64(bs, seed + off + t as u64);
                    rt.alloc_from_f64(&tile)
                })
                .collect()
        };
        let a = mk(1_000);
        let b = mk(2_000);
        let c: Vec<DataId> = (0..nb * nb).map(|_| rt.alloc_from_f64(&vec![0.0; bs * bs])).collect();
        matmul::submit_tasks(rt, template, nb, &a, &b, &c);
        let finish: FinishFn = Box::new(move |rt| {
            let result = if verify {
                let read = |ids: &[DataId], rt: &mut Runtime| -> Vec<Vec<f64>> {
                    ids.iter().map(|&t| rt.read_f64(t)).collect()
                };
                let data = matmul::NativeMatmulData {
                    nb,
                    bs,
                    a: read(&a, rt),
                    b: read(&b, rt),
                    c: read(&c, rt),
                };
                let err = data.max_error();
                if err < 1e-9 {
                    Ok(())
                } else {
                    Err(format!("matmul verification failed: max error {err:e}"))
                }
            } else {
                Ok(())
            };
            for id in a.iter().chain(&b).chain(&c) {
                rt.free(*id);
            }
            result
        });
        finish
    })
}

fn ensure_cholesky_native(
    rt: &mut Runtime,
    bs: usize,
) -> (versa_core::TemplateId, versa_core::TemplateId, versa_core::TemplateId, versa_core::TemplateId)
{
    if let (Some(p), Some(t), Some(s), Some(g)) = (
        rt.templates().by_name("potrf"),
        rt.templates().by_name("trsm"),
        rt.templates().by_name("syrk"),
        rt.templates().by_name("gemm"),
    ) {
        return (p, t, s, g);
    }
    let variant = cholesky::CholeskyVariant::PotrfHybrid;
    let templates = cholesky::register(rt, variant);
    cholesky::bind_native(rt, templates, variant, bs);
    templates
}

/// A native hybrid Cholesky job over a random SPD matrix. With
/// `verify`, the finish closure checks `L·Lᵀ` against the input. Tiles
/// are freed at completion. As with [`matmul_native_job`], every job
/// from this factory must share one `bs`.
pub fn cholesky_native_job(config: cholesky::CholeskyConfig, seed: u64, verify: bool) -> JobSpec {
    let name = format!("cholesky-{}x{}", config.n, config.bs);
    JobSpec::new(name, move |rt| {
        let (n, bs, nb) = (config.n, config.bs, config.nb());
        let templates = ensure_cholesky_native(rt, bs);
        let full = versa_kernels::verify::spd_matrix_f32(n, seed);
        let tiles: Vec<DataId> = (0..nb * nb)
            .map(|idx| {
                let (ti, tj) = (idx / nb, idx % nb);
                let mut t = vec![0.0f32; bs * bs];
                for r in 0..bs {
                    let src = (ti * bs + r) * n + tj * bs;
                    t[r * bs..r * bs + bs].copy_from_slice(&full[src..src + bs]);
                }
                rt.alloc_from_f32(&t)
            })
            .collect();
        cholesky::submit_tasks(rt, templates, nb, &tiles);
        let finish: FinishFn = Box::new(move |rt| {
            let result = if verify {
                let factor: Vec<Vec<f32>> = tiles.iter().map(|&t| rt.read_f32(t)).collect();
                let data = cholesky::NativeCholeskyData { n, bs, nb, input: full, factor };
                let err = data.max_error();
                let tolerance = 5e-2 * n as f32;
                if err < tolerance {
                    Ok(())
                } else {
                    Err(format!("cholesky verification failed: max error {err}"))
                }
            } else {
                Ok(())
            };
            for id in &tiles {
                rt.free(*id);
            }
            result
        });
        finish
    })
}

/// Idempotent registration of the tiny AXPY template: two SMP versions
/// (a strided and a sequential loop), so the versioning scheduler has a
/// real choice to learn even on a CPU-only service. Both native kernels
/// and simulated cost models are bound, so the factory drives either
/// engine.
fn ensure_tiny_axpy(rt: &mut Runtime) -> versa_core::TemplateId {
    if let Some(t) = rt.templates().by_name("tiny_axpy") {
        return t;
    }
    let template = rt
        .template("tiny_axpy")
        .main("axpy_unrolled", &[versa_core::DeviceKind::Smp])
        .version("axpy_serial", &[versa_core::DeviceKind::Smp])
        .register();
    rt.bind_cost(template, VersionId(0), |_| std::time::Duration::from_micros(2));
    rt.bind_cost(template, VersionId(1), |_| std::time::Duration::from_micros(3));
    rt.bind_native(template, VersionId(0), |ctx| {
        let (reads, y) = ctx.f64_reads_and_mut(&[0], 1);
        let x = reads[0];
        let mut chunks_y = y.chunks_exact_mut(4);
        let mut chunks_x = x.chunks_exact(4);
        for (cy, cx) in chunks_y.by_ref().zip(chunks_x.by_ref()) {
            cy[0] += 2.0 * cx[0];
            cy[1] += 2.0 * cx[1];
            cy[2] += 2.0 * cx[2];
            cy[3] += 2.0 * cx[3];
        }
        for (yi, xi) in chunks_y.into_remainder().iter_mut().zip(chunks_x.remainder()) {
            *yi += 2.0 * *xi;
        }
    });
    rt.bind_native(template, VersionId(1), |ctx| {
        let (reads, y) = ctx.f64_reads_and_mut(&[0], 1);
        for (yi, xi) in y.iter_mut().zip(reads[0]) {
            *yi += 2.0 * *xi;
        }
    });
    template
}

/// A tiny native job — two allocations, a two-task AXPY chain — whose
/// cost is dominated by runtime bookkeeping, not kernel time. This is
/// the unit of the `serve_throughput` bench: pushing many of these
/// through a service measures admission/scheduling/recycling overhead
/// rather than arithmetic. Frees its allocations at completion.
pub fn tiny_axpy_job(elems: usize, seed: u64) -> JobSpec {
    JobSpec::new("tiny-axpy", move |rt| {
        let template = ensure_tiny_axpy(rt);
        let x: Vec<f64> = (0..elems).map(|i| ((seed + i as u64) % 97) as f64).collect();
        let x = rt.alloc_from_f64(&x);
        let y = rt.alloc_from_f64(&vec![1.0; elems]);
        // A dependent chain: the second task waits on the first's inout.
        rt.task(template).read(x).read_write(y).submit();
        rt.task(template).read(x).read_write(y).submit();
        let finish: FinishFn = Box::new(move |rt| {
            rt.free(x);
            rt.free(y);
            Ok(())
        });
        finish
    })
}
