//! Simulated platform description.

use crate::FaultPlan;
use std::time::Duration;

/// One host↔device interconnect link (PCIe-class).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Per-transfer fixed latency (setup + driver overhead).
    pub latency: Duration,
    /// Whether the device has independent upload/download DMA engines
    /// (full duplex): host→device and device→host transfers then overlap
    /// instead of serializing on one engine. The M2090 has dual copy
    /// engines, so this defaults to `true`.
    pub duplex: bool,
}

impl LinkConfig {
    /// Time for one transfer of `bytes` bytes over this link.
    pub(crate) fn transfer_time(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        // PCIe 2.0 x16 as on MinoTauro: ~6 GB/s sustained, ~15 µs setup,
        // dual copy engines.
        LinkConfig { bandwidth: 6.0e9, latency: Duration::from_micros(15), duplex: true }
    }
}

/// One simulated *remote node* in a multi-node cluster topology: a
/// bundle of SMP workers reached over a NIC link (versa-net's
/// coordinator/worker clusters, in virtual time).
///
/// Remote node `j` (0-based) occupies memory space
/// `MemSpace::device(gpus + j)` — its *mirror space* — and its NIC is
/// modelled exactly like a PCIe link: finite bandwidth, per-transfer
/// latency, optional duplex DMA. The scheduler prices it with the same
/// learned-bandwidth bids it uses for GPU links.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimNode {
    /// SMP workers the node contributes.
    pub smp_workers: usize,
    /// The host↔node network link.
    pub nic: LinkConfig,
}

impl SimNode {
    /// A node with `smp_workers` workers behind a default NIC
    /// (10 GbE-class: 1.25 GB/s, 50 µs setup, full duplex).
    pub fn new(smp_workers: usize) -> SimNode {
        SimNode {
            smp_workers,
            nic: LinkConfig {
                bandwidth: 1.25e9,
                latency: Duration::from_micros(50),
                duplex: true,
            },
        }
    }
}

/// Description of the simulated heterogeneous node.
///
/// The defaults model the paper's evaluation platform (§V-A1): a
/// MinoTauro node with two Xeon E5649 6-core sockets and two NVIDIA
/// M2090 GPUs. Peak numbers are used only for GFLOP/s normalization in
/// reports ("one SMP core represents less than 1% of the machine's peak
/// performance and one GPU represents around 45%", §V-B1).
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformConfig {
    /// Number of SMP worker threads (the paper sweeps 1–8; the node has
    /// 12 cores).
    pub smp_workers: usize,
    /// Number of GPU devices, each driven by one worker (the paper uses
    /// 1 or 2).
    pub gpus: usize,
    /// Host↔GPU link, one per GPU.
    pub link: LinkConfig,
    /// Whether GPUs can copy directly to each other. When `false`,
    /// device-to-device traffic is staged through the host (two hops on
    /// the links) but still accounted once as *Device Tx*, mirroring the
    /// paper's accounting.
    pub gpu_p2p: bool,
    /// Device memory per GPU in bytes, or `None` for an unbounded
    /// device memory (the default: the paper's working sets fit the
    /// M2090's 6 GB). When set, the runtime manages each GPU memory as
    /// an LRU cache: filling it evicts the least-recently-used tiles,
    /// writing back sole copies first.
    pub gpu_mem_capacity: Option<u64>,
    /// Double-precision peak of one GPU in GFLOP/s (M2090: 665).
    pub gpu_peak_gflops: f64,
    /// Double-precision peak of one SMP core in GFLOP/s (E5649: ~10).
    pub smp_core_peak_gflops: f64,
    /// RNG seed for execution-time noise; same seed ⇒ identical run.
    pub seed: u64,
    /// Per-GPU speed multipliers on kernel durations (1.0 = nominal;
    /// 2.0 = that GPU is twice as slow). Empty means all GPUs nominal.
    /// Lets experiments model mixed-generation nodes — and expose that
    /// the paper's per-*version* profiles cannot distinguish two
    /// different-speed devices of the same kind.
    pub gpu_speed_factors: Vec<f64>,
    /// Fault-injection plan: which simulated executions fail and with
    /// what probability. Empty by default (no faults); decisions are
    /// drawn from a dedicated RNG stream seeded from `seed`, so the
    /// same seed and plan reproduce the identical failure pattern.
    pub faults: FaultPlan,
    /// Remote nodes in a simulated cluster (empty by default: a classic
    /// single-node platform). Node `j` contributes `smp_workers` workers
    /// behind its own NIC link and occupies `MemSpace::device(gpus + j)`.
    pub nodes: Vec<SimNode>,
}

impl PlatformConfig {
    /// The paper's MinoTauro node with a chosen worker mix.
    pub fn minotauro(smp_workers: usize, gpus: usize) -> PlatformConfig {
        PlatformConfig { smp_workers, gpus, ..PlatformConfig::default() }
    }

    /// Total worker count (SMP + one per GPU + remote-node workers).
    pub(crate) fn worker_count(&self) -> usize {
        self.smp_workers + self.gpus + self.remote_worker_count()
    }

    /// Workers contributed by remote nodes only.
    pub(crate) fn remote_worker_count(&self) -> usize {
        self.nodes.iter().map(|n| n.smp_workers).sum()
    }

    /// Speed multiplier of the `i`-th GPU (1.0 when not configured).
    pub fn gpu_speed_factor(&self, gpu: usize) -> f64 {
        self.gpu_speed_factors.get(gpu).copied().unwrap_or(1.0)
    }

    /// Validate internal consistency (at least one worker, sane rates).
    pub fn validate(&self) -> Result<(), String> {
        if self.worker_count() == 0 {
            return Err("platform has no workers".into());
        }
        if self.link.bandwidth <= 0.0 {
            return Err("link bandwidth must be positive".into());
        }
        if self.gpu_peak_gflops <= 0.0 || self.smp_core_peak_gflops <= 0.0 {
            return Err("peak rates must be positive".into());
        }
        if self.gpu_speed_factors.iter().any(|&f| f <= 0.0) {
            return Err("GPU speed factors must be positive".into());
        }
        for (j, node) in self.nodes.iter().enumerate() {
            if node.smp_workers == 0 {
                return Err(format!("remote node {j} has no workers"));
            }
            if node.nic.bandwidth <= 0.0 {
                return Err(format!("remote node {j} NIC bandwidth must be positive"));
            }
        }
        self.faults.validate(self.nodes.len())?;
        Ok(())
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            smp_workers: 8,
            gpus: 2,
            link: LinkConfig::default(),
            gpu_p2p: false,
            gpu_mem_capacity: None,
            gpu_peak_gflops: 665.0,
            smp_core_peak_gflops: 10.1,
            seed: 0x5eed_c0de,
            gpu_speed_factors: Vec::new(),
            faults: FaultPlan::default(),
            nodes: Vec::new(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::assertions_on_constants)] // pins the calibrated platform ratios
mod tests {
    use super::*;

    #[test]
    fn default_models_minotauro() {
        let p = PlatformConfig::default();
        assert_eq!(p.gpus, 2);
        assert!(p.validate().is_ok());
        // Paper §V-B1: one SMP core < 1% of peak, one GPU ≈ 45%.
        let peak =
            p.gpus as f64 * p.gpu_peak_gflops + p.smp_workers as f64 * p.smp_core_peak_gflops;
        assert!(p.smp_core_peak_gflops / peak < 0.01);
        let gpu_share = p.gpu_peak_gflops / peak;
        assert!(gpu_share > 0.40 && gpu_share < 0.50, "gpu share {gpu_share}");
    }

    #[test]
    fn minotauro_preset_sets_worker_mix() {
        let p = PlatformConfig::minotauro(4, 1);
        assert_eq!(p.smp_workers, 4);
        assert_eq!(p.gpus, 1);
        assert_eq!(p.worker_count(), 5);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let link =
            LinkConfig { bandwidth: 1e9, latency: Duration::from_micros(10), duplex: true };
        let t1 = link.transfer_time(1_000_000); // 1 ms + 10 µs
        assert_eq!(t1, Duration::from_micros(1010));
        let t0 = link.transfer_time(0);
        assert_eq!(t0, Duration::from_micros(10), "latency-only for empty transfer");
    }

    #[test]
    fn validation_catches_bad_configs() {
        let p = PlatformConfig { smp_workers: 0, gpus: 0, ..Default::default() };
        assert!(p.validate().is_err());
        let mut p = PlatformConfig::default();
        p.link.bandwidth = 0.0;
        assert!(p.validate().is_err());
        let p = PlatformConfig { gpu_peak_gflops: -1.0, ..Default::default() };
        assert!(p.validate().is_err());
        let p = PlatformConfig { gpu_speed_factors: vec![1.0, 0.0], ..Default::default() };
        assert!(p.validate().is_err());
        assert_eq!(PlatformConfig::default().gpu_speed_factor(7), 1.0);
    }
}
