//! Virtual-time DMA engine.
//!
//! OmpSs overlaps data transfers with task execution and prefetches task
//! data (paper §V-A2: "we configured OmpSs to overlap data transfers with
//! task execution. We also combined this feature with prefetching task
//! data"). The [`TransferEngine`] models this: each GPU owns a link with
//! finite bandwidth (and, like the M2090's dual copy engines, optionally
//! independent upload/download DMA engines); a transfer occupies its
//! engine(s) for a bandwidth-proportional window, cannot start before its
//! source bytes exist, and completes independently of what the
//! destination worker is computing — so transfers for queued tasks
//! proceed while earlier tasks run.

use crate::PlatformConfig;
use versa_mem::{DataId, IdMap, MemSpace, Transfer, TransferKind, TransferStats};
use versa_trace::Ts;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Host → device (upload engine).
    Up,
    /// Device → host (download engine).
    Down,
}

/// Virtual-time transfer scheduler + accountant.
///
/// Device index space: `0..gpus` are GPU PCIe links, `gpus..gpus+nodes`
/// are remote-node NIC links. Each device index owns its own
/// [`crate::LinkConfig`], so a slow 10 GbE NIC and a fast PCIe lane
/// coexist and the scheduler observes their different latencies.
#[derive(Debug)]
pub struct TransferEngine {
    /// When each device's upload engine is next free.
    up_free: Vec<Ts>,
    /// When each device's download engine is next free.
    down_free: Vec<Ts>,
    /// When each (allocation, space) copy's bytes physically exist.
    /// Absent entries mean "since simulation start" (initial host data).
    ready: IdMap<(DataId, MemSpace), Ts>,
    stats: TransferStats,
    /// Per-device link, indexed by `MemSpace::device_index`.
    links: Vec<crate::LinkConfig>,
    p2p: bool,
}

impl TransferEngine {
    /// Engine for a platform description.
    pub fn new(platform: &PlatformConfig) -> TransferEngine {
        let mut links = vec![platform.link; platform.gpus];
        links.extend(platform.nodes.iter().map(|n| n.nic));
        let engines = links.len();
        TransferEngine {
            up_free: vec![Ts::ZERO; engines],
            down_free: vec![Ts::ZERO; engines],
            ready: IdMap::default(),
            stats: TransferStats::default(),
            links,
            p2p: platform.gpu_p2p,
        }
    }

    /// Accumulated transfer statistics (paper Figs. 7/10/13).
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }

    /// When the copy of `data` in `space` is physically usable.
    pub fn ready_at(&self, data: DataId, space: MemSpace) -> Ts {
        self.ready.get(&(data, space)).copied().unwrap_or(Ts::ZERO)
    }

    /// Declare that a task (or the user) produced `data` in `space` at
    /// `time` — e.g. a kernel finishing on a GPU, or an SMP task writing
    /// host memory.
    pub fn mark_produced(&mut self, data: DataId, space: MemSpace, time: Ts) {
        self.ready.insert((data, space), time);
    }

    /// The DMA engines a transfer occupies: `(device index, direction)`,
    /// the source's download engine before the destination's upload one.
    fn engines_of(t: &Transfer) -> impl Iterator<Item = (usize, Dir)> + Clone {
        let down = t.from.device_index().map(|d| (usize::from(d), Dir::Down));
        let up = t.to.device_index().map(|d| (usize::from(d), Dir::Up));
        assert!(down.is_some() || up.is_some(), "host-to-host transfer");
        down.into_iter().chain(up)
    }

    fn engine_free(&self, dev: usize, dir: Dir) -> Ts {
        if self.links[dev].duplex {
            match dir {
                Dir::Up => self.up_free[dev],
                Dir::Down => self.down_free[dev],
            }
        } else {
            // One engine serves both directions.
            self.up_free[dev].max(self.down_free[dev])
        }
    }

    fn occupy(&mut self, dev: usize, dir: Dir, until: Ts) {
        if self.links[dev].duplex {
            match dir {
                Dir::Up => self.up_free[dev] = until,
                Dir::Down => self.down_free[dev] = until,
            }
        } else {
            self.up_free[dev] = until;
            self.down_free[dev] = until;
        }
    }

    /// Schedule one transfer requested at `now`; returns its completion
    /// time and records it in the statistics.
    ///
    /// Start time respects: the request time, the availability of the
    /// source bytes, and the occupancy of every involved DMA engine. A
    /// GPU↔GPU copy occupies the source's download engine and the
    /// destination's upload engine; without peer-to-peer support it
    /// additionally pays a double (staged-through-host) transfer time,
    /// while still being accounted once as *Device Tx*.
    pub fn schedule(&mut self, t: &Transfer, now: Ts) -> Ts {
        let kind = t.kind();
        let engines = Self::engines_of(t);
        let src_ready = self.ready_at(t.data, t.from);
        let mut start = now.max(src_ready);
        for (dev, dir) in engines.clone() {
            start = start.max(self.engine_free(dev, dir));
        }
        let hops = if kind == TransferKind::Device && !self.p2p { 2 } else { 1 };
        // A transfer is limited by its slowest involved link (a GPU→node
        // copy cannot beat the NIC no matter how fast PCIe is).
        let link_time = engines
            .clone()
            .map(|(dev, _)| self.links[dev].transfer_time(t.bytes))
            .max()
            .expect("a transfer involves at least one link");
        let duration = link_time * hops;
        let end = start + duration;
        for (dev, dir) in engines {
            self.occupy(dev, dir, end);
        }
        self.ready.insert((t.data, t.to), end);
        self.stats.record(kind, t.bytes);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn engine_with(duplex: bool) -> TransferEngine {
        let mut p = PlatformConfig::minotauro(2, 2);
        // Round numbers: 1 GB/s, zero latency.
        p.link = crate::LinkConfig { bandwidth: 1e9, latency: Duration::ZERO, duplex };
        TransferEngine::new(&p)
    }

    fn engine() -> TransferEngine {
        engine_with(true)
    }

    fn tx(data: u32, from: MemSpace, to: MemSpace, bytes: u64) -> Transfer {
        Transfer { data: DataId(data), from, to, bytes }
    }

    const HOST: MemSpace = MemSpace::HOST;

    #[test]
    fn input_transfer_takes_bandwidth_time() {
        let mut e = engine();
        let end = e.schedule(&tx(0, HOST, MemSpace::device(0), 1_000_000), Ts::ZERO);
        assert_eq!(end, Ts(1_000_000)); // 1 MB at 1 GB/s = 1 ms
        assert_eq!(e.stats().input_bytes, 1_000_000);
        assert_eq!(e.ready_at(DataId(0), MemSpace::device(0)), end);
    }

    #[test]
    fn same_engine_serializes_different_links_overlap() {
        let mut e = engine();
        let a = e.schedule(&tx(0, HOST, MemSpace::device(0), 1_000_000), Ts::ZERO);
        let b = e.schedule(&tx(1, HOST, MemSpace::device(0), 1_000_000), Ts::ZERO);
        assert_eq!(b, a + Duration::from_millis(1), "same upload engine: serialized");
        let c = e.schedule(&tx(2, HOST, MemSpace::device(1), 1_000_000), Ts::ZERO);
        assert_eq!(c, Ts(1_000_000), "other GPU's link: concurrent");
    }

    #[test]
    fn duplex_overlaps_upload_and_download() {
        let mut e = engine();
        e.mark_produced(DataId(1), MemSpace::device(0), Ts::ZERO);
        let up = e.schedule(&tx(0, HOST, MemSpace::device(0), 1_000_000), Ts::ZERO);
        let down = e.schedule(&tx(1, MemSpace::device(0), HOST, 1_000_000), Ts::ZERO);
        assert_eq!(up, Ts(1_000_000));
        assert_eq!(down, Ts(1_000_000), "dual copy engines run both directions at once");
    }

    #[test]
    fn simplex_serializes_upload_and_download() {
        let mut e = engine_with(false);
        e.mark_produced(DataId(1), MemSpace::device(0), Ts::ZERO);
        let up = e.schedule(&tx(0, HOST, MemSpace::device(0), 1_000_000), Ts::ZERO);
        let down = e.schedule(&tx(1, MemSpace::device(0), HOST, 1_000_000), Ts::ZERO);
        assert_eq!(up, Ts(1_000_000));
        assert_eq!(down, Ts(2_000_000), "one engine serves both directions");
    }

    #[test]
    fn transfer_waits_for_source_production() {
        let mut e = engine();
        e.mark_produced(DataId(0), MemSpace::device(0), Ts(5_000_000));
        let end = e.schedule(&tx(0, MemSpace::device(0), HOST, 1_000_000), Ts::ZERO);
        assert_eq!(end, Ts(6_000_000), "starts only after the kernel wrote it");
        assert_eq!(e.stats().output_bytes, 1_000_000);
    }

    #[test]
    fn device_to_device_without_p2p_pays_double() {
        let mut e = engine(); // p2p = false by default
        e.mark_produced(DataId(0), MemSpace::device(0), Ts::ZERO);
        let end =
            e.schedule(&tx(0, MemSpace::device(0), MemSpace::device(1), 1_000_000), Ts::ZERO);
        assert_eq!(end, Ts(2_000_000));
        assert_eq!(e.stats().device_bytes, 1_000_000, "accounted once");
        // Source's download engine and destination's upload engine are
        // busy until `end`; the destination's *download* engine is free.
        let up1 = e.schedule(&tx(1, HOST, MemSpace::device(1), 1_000_000), Ts::ZERO);
        assert_eq!(up1, Ts(3_000_000), "dev1 upload engine was occupied");
        e.mark_produced(DataId(2), MemSpace::device(1), Ts::ZERO);
        let down1 = e.schedule(&tx(2, MemSpace::device(1), HOST, 1_000_000), Ts::ZERO);
        assert_eq!(down1, Ts(1_000_000), "dev1 download engine was free");
    }

    #[test]
    fn device_to_device_with_p2p_is_single_hop() {
        let mut p = PlatformConfig::minotauro(0, 2);
        p.link = crate::LinkConfig { bandwidth: 1e9, latency: Duration::ZERO, duplex: true };
        p.gpu_p2p = true;
        let mut e = TransferEngine::new(&p);
        e.mark_produced(DataId(0), MemSpace::device(0), Ts::ZERO);
        let end =
            e.schedule(&tx(0, MemSpace::device(0), MemSpace::device(1), 1_000_000), Ts::ZERO);
        assert_eq!(end, Ts(1_000_000));
    }

    #[test]
    fn latency_is_charged_per_transfer() {
        let mut p = PlatformConfig::minotauro(1, 1);
        p.link = crate::LinkConfig {
            bandwidth: 1e9,
            latency: Duration::from_micros(10),
            duplex: true,
        };
        let mut e = TransferEngine::new(&p);
        let end = e.schedule(&tx(0, HOST, MemSpace::device(0), 1_000_000), Ts::ZERO);
        assert_eq!(end, Ts(1_010_000));
    }

    #[test]
    fn initial_host_data_is_ready_at_zero() {
        let e = engine();
        assert_eq!(e.ready_at(DataId(7), HOST), Ts::ZERO);
    }

    /// 2 GPUs on a 1 GB/s PCIe link + 1 remote node on a 10× slower NIC.
    fn cluster_engine() -> TransferEngine {
        let mut p = PlatformConfig::minotauro(2, 2);
        p.link = crate::LinkConfig { bandwidth: 1e9, latency: Duration::ZERO, duplex: true };
        let mut node = crate::SimNode::new(2);
        node.nic =
            crate::LinkConfig { bandwidth: 1e8, latency: Duration::ZERO, duplex: true };
        p.nodes = vec![node];
        TransferEngine::new(&p)
    }

    #[test]
    fn nic_link_is_priced_separately_from_pcie() {
        let mut e = cluster_engine();
        let pcie = e.schedule(&tx(0, HOST, MemSpace::device(0), 1_000_000), Ts::ZERO);
        assert_eq!(pcie, Ts(1_000_000), "1 MB over PCIe at 1 GB/s");
        // Device index 2 = remote node 1's mirror space, behind the NIC.
        let nic = e.schedule(&tx(1, HOST, MemSpace::device(2), 1_000_000), Ts::ZERO);
        assert_eq!(nic, Ts(10_000_000), "same bytes over a 10× slower NIC");
        assert_eq!(e.stats().input_bytes, 2_000_000);
    }

    #[test]
    fn nic_and_pcie_links_are_independent_engines() {
        let mut e = cluster_engine();
        let a = e.schedule(&tx(0, HOST, MemSpace::device(0), 1_000_000), Ts::ZERO);
        let b = e.schedule(&tx(1, HOST, MemSpace::device(2), 1_000_000), Ts::ZERO);
        assert_eq!(a, Ts(1_000_000));
        assert_eq!(b, Ts(10_000_000), "NIC shipment does not queue behind PCIe");
        // But two shipments to the same node share its NIC.
        let c = e.schedule(&tx(2, HOST, MemSpace::device(2), 1_000_000), Ts::ZERO);
        assert_eq!(c, Ts(20_000_000), "same NIC upload engine: serialized");
    }

    #[test]
    fn gpu_to_node_is_limited_by_the_slower_link() {
        let mut e = cluster_engine(); // p2p = false: staged through host
        e.mark_produced(DataId(0), MemSpace::device(0), Ts::ZERO);
        let end =
            e.schedule(&tx(0, MemSpace::device(0), MemSpace::device(2), 1_000_000), Ts::ZERO);
        // Two hops, each priced at the slower (NIC) link time.
        assert_eq!(end, Ts(20_000_000));
        assert_eq!(e.stats().device_bytes, 1_000_000, "accounted once as Device Tx");
    }
}
