//! PBPI — Bayesian phylogenetic inference by MCMC sampling (paper §V-B3).
//!
//! Each MCMC generation processes the site-pattern arrays through three
//! computational loops; the site arrays are partitioned into chunks and
//! each (loop, chunk) pair is a task:
//!
//! * `update` (SMP) — the MCMC proposal: rewrites the per-chunk input
//!   arrays. Reads the previous generation's log-likelihood, which
//!   serializes generations — this is why "memory transfers cannot be
//!   overlapped properly due to data dependences".
//! * `loop1` — conditional-likelihood propagation (two branch tasks per
//!   chunk). GPU and/or SMP versions per application variant.
//! * `loop2` — partial combination. GPU and/or SMP versions.
//! * `loop3` (SMP only) — per-chunk log-likelihood reduction; its
//!   SMP-only placement forces loop2's output back to host memory every
//!   generation.
//! * `reduce` (SMP) — combines per-chunk log-likelihoods into the
//!   generation's total.

use crate::calib;
use versa_core::{DeviceKind, SchedulerKind, TemplateId, VersionId};
use versa_kernels::pbpi as kern;
use versa_mem::DataId;
use versa_runtime::{NativeConfig, RunReport, Runtime, RuntimeConfig};
use versa_sim::PlatformConfig;

/// Which loop-1/loop-2 implementations the application exposes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PbpiVariant {
    /// `pbpi-smp`: SMP versions only — data never leaves the host.
    Smp,
    /// `pbpi-gpu`: GPU versions only for loops 1–2 (loop 3 stays SMP).
    Gpu,
    /// `pbpi-hyb`: both implementations for loops 1–2.
    Hybrid,
}

impl PbpiVariant {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PbpiVariant::Smp => "pbpi-smp",
            PbpiVariant::Gpu => "pbpi-gpu",
            PbpiVariant::Hybrid => "pbpi-hyb",
        }
    }
}

/// Problem dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PbpiConfig {
    /// Number of site chunks (tasks per loop per generation).
    pub chunks: usize,
    /// Sites per chunk; each site carries 4 f64 states.
    pub sites_per_chunk: usize,
    /// MCMC generations.
    pub generations: usize,
}

impl PbpiConfig {
    /// Paper-scale data set: 64 × 65536 sites → 2 MB per chunk array,
    /// ≈ 640 MB live data (the paper's 500 MB class), 100 generations.
    pub fn paper() -> PbpiConfig {
        PbpiConfig { chunks: 64, sites_per_chunk: 65536, generations: 100 }
    }

    /// Reduced size for fast tests.
    pub fn quick() -> PbpiConfig {
        PbpiConfig { chunks: 4, sites_per_chunk: 2048, generations: 3 }
    }

    /// Bytes of one chunk's partial array (4 f64 states per site).
    pub(crate) fn chunk_bytes(&self) -> u64 {
        (self.sites_per_chunk * kern::STATES * 8) as u64
    }

    /// Total sites processed per loop per generation.
    pub fn sites(&self) -> usize {
        self.chunks * self.sites_per_chunk
    }

    /// Tasks submitted per generation (2×loop1 + update + loop2 + loop3
    /// per chunk, plus the reduce).
    pub fn tasks_per_generation(&self) -> usize {
        5 * self.chunks + 1
    }
}

/// Templates and data handles of a built PBPI instance.
pub struct PbpiApp {
    /// The MCMC proposal task (SMP).
    pub update: TemplateId,
    /// Loop 1 version set.
    pub loop1: TemplateId,
    /// Loop 2 version set.
    pub loop2: TemplateId,
    /// Loop 3 (SMP-only).
    pub loop3: TemplateId,
    /// The per-generation reduction (SMP).
    pub reduce: TemplateId,
    /// Problem dimensions.
    pub config: PbpiConfig,
    /// Total log-likelihood cell (8 bytes, host-resident).
    pub ll_total: DataId,
}

fn hybrid_template(
    rt: &mut Runtime,
    name: &str,
    variant: PbpiVariant,
) -> TemplateId {
    match variant {
        PbpiVariant::Smp => rt
            .template(name)
            .main(&format!("{name}_smp"), &[DeviceKind::Smp])
            .register(),
        PbpiVariant::Gpu => rt
            .template(name)
            .main(&format!("{name}_cuda"), &[DeviceKind::Cuda])
            .register(),
        PbpiVariant::Hybrid => rt
            .template(name)
            .main(&format!("{name}_cuda"), &[DeviceKind::Cuda])
            .version(&format!("{name}_smp"), &[DeviceKind::Smp])
            .register(),
    }
}

/// Register the five templates and bind simulation costs (site
/// throughputs from [`calib`], with sites recovered from each task's
/// data set size).
pub(crate) fn register(
    rt: &mut Runtime,
    variant: PbpiVariant,
) -> (TemplateId, TemplateId, TemplateId, TemplateId, TemplateId) {
    let update = rt
        .template("pbpi_update")
        .main("pbpi_update_smp", &[DeviceKind::Smp])
        .register();
    let loop1 = hybrid_template(rt, "pbpi_loop1", variant);
    let loop2 = hybrid_template(rt, "pbpi_loop2", variant);
    let loop3 = rt
        .template("pbpi_loop3")
        .main("pbpi_loop3_smp", &[DeviceKind::Smp])
        .register();
    let reduce = rt
        .template("pbpi_reduce")
        .main("pbpi_reduce_smp", &[DeviceKind::Smp])
        .register();

    // Sites from data set size: loop1 touches 2 chunk arrays (64 B/site
    // across both), loop2 touches 3 (96 B/site), loop3 one array + the
    // 8-byte output, update the ll cell + 2 arrays.
    let l1_sites = |s: u64| s as f64 / 64.0;
    let l2_sites = |s: u64| s as f64 / 96.0;
    let l3_sites = |s: u64| s as f64 / 32.0;

    rt.bind_cost(update, VersionId(0), move |s| {
        calib::duration_at(s as f64 / 64.0, 500.0e6)
    });
    let (main_rate1, main_rate2) = match variant {
        PbpiVariant::Smp => (calib::SMP_PBPI_LOOP1, calib::SMP_PBPI_LOOP2),
        _ => (calib::GPU_PBPI_LOOP1, calib::GPU_PBPI_LOOP2),
    };
    rt.bind_cost(loop1, VersionId(0), move |s| calib::duration_at(l1_sites(s), main_rate1));
    rt.bind_cost(loop2, VersionId(0), move |s| calib::duration_at(l2_sites(s), main_rate2));
    if variant == PbpiVariant::Hybrid {
        rt.bind_cost(loop1, VersionId(1), move |s| {
            calib::duration_at(l1_sites(s), calib::SMP_PBPI_LOOP1)
        });
        rt.bind_cost(loop2, VersionId(1), move |s| {
            calib::duration_at(l2_sites(s), calib::SMP_PBPI_LOOP2)
        });
    }
    rt.bind_cost(loop3, VersionId(0), move |s| {
        calib::duration_at(l3_sites(s), calib::SMP_PBPI_LOOP3)
    });
    rt.bind_cost(reduce, VersionId(0), |_| std::time::Duration::from_micros(20));

    (update, loop1, loop2, loop3, reduce)
}

/// Allocate chunk arrays and submit all generations' task graphs.
pub fn build(rt: &mut Runtime, config: PbpiConfig, variant: PbpiVariant) -> PbpiApp {
    let (update, loop1, loop2, loop3, reduce) = register(rt, variant);
    let cb = config.chunk_bytes();
    let alloc = |rt: &mut Runtime| -> Vec<DataId> {
        (0..config.chunks).map(|_| rt.alloc_bytes(cb)).collect()
    };
    let tip_l = alloc(rt);
    let tip_r = alloc(rt);
    let part_l = alloc(rt);
    let part_r = alloc(rt);
    let comb = alloc(rt);
    let ll: Vec<DataId> = (0..config.chunks).map(|_| rt.alloc_bytes(8)).collect();
    let ll_total = rt.alloc_bytes(8);

    for _gen in 0..config.generations {
        for c in 0..config.chunks {
            rt.task(update).read(ll_total).write(tip_l[c]).write(tip_r[c]).submit();
        }
        for c in 0..config.chunks {
            rt.task(loop1).read(tip_l[c]).write(part_l[c]).submit();
            rt.task(loop1).read(tip_r[c]).write(part_r[c]).submit();
        }
        for c in 0..config.chunks {
            rt.task(loop2).read(part_l[c]).read(part_r[c]).write(comb[c]).submit();
        }
        for c in 0..config.chunks {
            rt.task(loop3).read(comb[c]).write(ll[c]).submit();
        }
        let mut reducer = rt.task(reduce);
        for &cell in ll.iter().take(config.chunks) {
            reducer = reducer.read(cell);
        }
        reducer.write(ll_total).submit();
    }

    PbpiApp { update, loop1, loop2, loop3, reduce, config, ll_total }
}

/// One-call simulated run.
pub fn run_sim(
    config: PbpiConfig,
    variant: PbpiVariant,
    scheduler: SchedulerKind,
    platform: PlatformConfig,
) -> RunReport {
    let mut rt = Runtime::simulated(RuntimeConfig::with_scheduler(scheduler), platform);
    let _app = build(&mut rt, config, variant);
    rt.run().expect("run failed")
}

/// Native PBPI: real likelihood kernels over real arrays. Returns the
/// report and the final total log-likelihood.
pub fn run_native(
    config: PbpiConfig,
    variant: PbpiVariant,
    scheduler: SchedulerKind,
    native: NativeConfig,
) -> (RunReport, f64) {
    let mut rt = Runtime::native(RuntimeConfig::with_scheduler(scheduler), native);
    let (update, loop1, loop2, loop3, reduce) = register(&mut rt, variant);
    let sites = config.sites_per_chunk;

    // The proposal rewrites the tips with a fixed deterministic pattern
    // (arg0 = ll_total [read], arg1/arg2 = tip chunks [write]).
    let update_kernel = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        for arg in 1..=2 {
            let tip = ctx.f64_mut(arg);
            for (i, v) in tip.iter_mut().enumerate() {
                *v = 0.2 + 0.6 * ((i.wrapping_mul(2654435761) % 1000) as f64 / 1000.0);
            }
        }
    };
    // Loop 1: arg0 = tip [read], arg1 = partial [write].
    let loop1_kernel = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let p = kern::jukes_cantor(0.1);
        let exec = ctx.exec();
        let (reads, out) = ctx.f64_reads_and_mut(&[0], 1);
        kern::loop1_propagate_on(exec, &p, reads[0], out, sites);
    };
    // Loop 2: arg0/arg1 = partials [read], arg2 = combined [write].
    let loop2_kernel = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let exec = ctx.exec();
        let (reads, out) = ctx.f64_reads_and_mut(&[0, 1], 2);
        kern::loop2_combine_on(exec, reads[0], reads[1], out, sites);
    };
    // Loop 3: arg0 = combined [read], arg1 = ll cell [write].
    let loop3_kernel = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let ll = kern::loop3_loglik(ctx.f64(0), sites);
        ctx.f64_mut(1)[0] = ll;
    };
    // Reduce: args 0..chunks = ll cells [read], last = total [write].
    let reduce_kernel = move |ctx: &mut versa_runtime::KernelCtx<'_>| {
        let n = ctx.arg_count() - 1;
        let total: f64 = (0..n).map(|i| ctx.f64(i)[0]).sum();
        ctx.f64_mut(n)[0] = total;
    };

    rt.bind_native(update, VersionId(0), update_kernel);
    rt.bind_native(loop1, VersionId(0), loop1_kernel);
    rt.bind_native(loop2, VersionId(0), loop2_kernel);
    if variant == PbpiVariant::Hybrid {
        rt.bind_native(loop1, VersionId(1), loop1_kernel);
        rt.bind_native(loop2, VersionId(1), loop2_kernel);
    }
    rt.bind_native(loop3, VersionId(0), loop3_kernel);
    rt.bind_native(reduce, VersionId(0), reduce_kernel);

    let app = build_with_registered(
        &mut rt,
        config,
        (update, loop1, loop2, loop3, reduce),
    );
    let report = rt.run().expect("run failed");
    let ll_total = rt.read_f64(app.ll_total)[0];
    (report, ll_total)
}

/// The expected total log-likelihood for the deterministic native
/// kernels above, computed serially (for verification).
pub fn native_reference_ll(config: PbpiConfig) -> f64 {
    let sites = config.sites_per_chunk;
    let mut tip = vec![0.0f64; sites * kern::STATES];
    for (i, v) in tip.iter_mut().enumerate() {
        *v = 0.2 + 0.6 * ((i.wrapping_mul(2654435761) % 1000) as f64 / 1000.0);
    }
    let p = kern::jukes_cantor(0.1);
    let mut part = vec![0.0; sites * kern::STATES];
    kern::loop1_propagate(&p, &tip, &mut part, sites, 1);
    let mut comb = vec![0.0; sites * kern::STATES];
    kern::loop2_combine(&part, &part, &mut comb, sites, 1);
    let per_chunk = kern::loop3_loglik(&comb, sites);
    per_chunk * config.chunks as f64
}

/// `build` against already-registered templates (shared by native/sim
/// paths).
fn build_with_registered(
    rt: &mut Runtime,
    config: PbpiConfig,
    (update, loop1, loop2, loop3, reduce): (TemplateId, TemplateId, TemplateId, TemplateId, TemplateId),
) -> PbpiApp {
    let cb = config.chunk_bytes();
    let alloc = |rt: &mut Runtime| -> Vec<DataId> {
        (0..config.chunks).map(|_| rt.alloc_bytes(cb)).collect()
    };
    let tip_l = alloc(rt);
    let tip_r = alloc(rt);
    let part_l = alloc(rt);
    let part_r = alloc(rt);
    let comb = alloc(rt);
    let ll: Vec<DataId> = (0..config.chunks).map(|_| rt.alloc_bytes(8)).collect();
    let ll_total = rt.alloc_bytes(8);

    for _gen in 0..config.generations {
        for c in 0..config.chunks {
            rt.task(update).read(ll_total).write(tip_l[c]).write(tip_r[c]).submit();
        }
        for c in 0..config.chunks {
            rt.task(loop1).read(tip_l[c]).write(part_l[c]).submit();
            rt.task(loop1).read(tip_r[c]).write(part_r[c]).submit();
        }
        for c in 0..config.chunks {
            rt.task(loop2).read(part_l[c]).read(part_r[c]).write(comb[c]).submit();
        }
        for c in 0..config.chunks {
            rt.task(loop3).read(comb[c]).write(ll[c]).submit();
        }
        let mut reducer = rt.task(reduce);
        for &cell in ll.iter().take(config.chunks) {
            reducer = reducer.read(cell);
        }
        reducer.write(ll_total).submit();
    }

    PbpiApp { update, loop1, loop2, loop3, reduce, config, ll_total }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_500mb_class() {
        let c = PbpiConfig::paper();
        assert_eq!(c.chunk_bytes(), 2 * 1024 * 1024);
        // 5 live arrays of chunks × 2 MB ≈ 640 MB.
        let live = 5 * c.chunks as u64 * c.chunk_bytes();
        assert!(live > 400 * 1024 * 1024 && live < 800 * 1024 * 1024);
    }

    #[test]
    fn task_budget_per_generation() {
        let c = PbpiConfig::quick();
        assert_eq!(c.tasks_per_generation(), 5 * 4 + 1);
    }

    #[test]
    fn variant_labels() {
        assert_eq!(PbpiVariant::Smp.label(), "pbpi-smp");
        assert_eq!(PbpiVariant::Gpu.label(), "pbpi-gpu");
        assert_eq!(PbpiVariant::Hybrid.label(), "pbpi-hyb");
    }
}
