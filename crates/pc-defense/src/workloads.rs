//! The paper's I/O-heavy measurement workloads (§VII-a): a `dd`-style
//! file copy, a TCP receiver with tiny payloads, and an Nginx-like
//! request server.

use pc_cache::{
    CacheGeometry, CacheOp, CacheStats, Cycles, DdioMode, Hierarchy, MemoryStats, OpBuffer, OpSink,
    PhysAddr, SlicedCache,
};
use pc_net::EthernetFrame;
use pc_nic::{DriverConfig, IgbDriver, PageAllocator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// First page of the application's hot region (disjoint from the NIC
/// allocator and the attacker pool regions).
const APP_FIRST_PAGE: u64 = 1 << 22;

/// What a workload run measured.
#[derive(Copy, Clone, Debug)]
pub struct WorkloadMetrics {
    /// Simulated cycles the run took.
    pub elapsed_cycles: Cycles,
    /// LLC statistics over the run.
    pub llc: CacheStats,
    /// Memory-controller traffic over the run.
    pub mem: MemoryStats,
    /// Work units completed (requests, packets, lines).
    pub units: u64,
}

impl WorkloadMetrics {
    /// Work units per second of simulated time.
    pub fn units_per_second(&self) -> f64 {
        self.units as f64 / (self.elapsed_cycles as f64 / pc_net::CPU_FREQ_HZ as f64)
    }

    /// Kilo-requests per second — Figure 14's y-axis.
    pub fn krps(&self) -> f64 {
        self.units_per_second() / 1_000.0
    }
}

/// A self-contained machine for defense benchmarking: hierarchy + driver
/// (no attacker).
#[derive(Clone, Debug)]
pub struct Workbench {
    h: Hierarchy,
    driver: IgbDriver,
    rng: SmallRng,
    tx_cursor: u64,
    /// Reusable op batch for the workload inner loops (cleared per
    /// batch, capacity carried).
    ops: OpBuffer,
}

impl Workbench {
    /// The seeded machine parts — one definition shared by
    /// [`Workbench::new`] and [`Workbench::reset`] so a reused bench
    /// can never drift from a freshly built one.
    fn build(
        geometry: CacheGeometry,
        mode: DdioMode,
        driver_cfg: DriverConfig,
        seed: u64,
    ) -> (Hierarchy, IgbDriver, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let llc = SlicedCache::new(geometry, mode);
        let h = Hierarchy::with_llc(llc);
        let driver = IgbDriver::new(driver_cfg, PageAllocator::new(seed ^ 0xd15c), &mut rng);
        (h, driver, rng)
    }

    /// Builds a bench with the given LLC geometry and DDIO mode.
    pub fn new(
        geometry: CacheGeometry,
        mode: DdioMode,
        driver_cfg: DriverConfig,
        seed: u64,
    ) -> Self {
        let (h, driver, rng) = Workbench::build(geometry, mode, driver_cfg, seed);
        Workbench {
            h,
            driver,
            rng,
            tx_cursor: 0,
            ops: OpBuffer::new(),
        }
    }

    /// The paper's baseline machine in the requested mode.
    pub fn paper_machine(mode: DdioMode, seed: u64) -> Self {
        Workbench::new(
            CacheGeometry::xeon_e5_2660(),
            mode,
            DriverConfig::paper_defaults(),
            seed,
        )
    }

    /// Rebuilds this bench in place, behaviourally identical to
    /// `*self = Workbench::new(…)` but keeping the op-batch capacity.
    /// Fleet tenants reuse one bench per worker thread; resetting
    /// instead of rebuilding keeps per-tenant setup at clears rather
    /// than allocations.
    pub fn reset(
        &mut self,
        geometry: CacheGeometry,
        mode: DdioMode,
        driver_cfg: DriverConfig,
        seed: u64,
    ) {
        let (h, driver, rng) = Workbench::build(geometry, mode, driver_cfg, seed);
        self.h = h;
        self.driver = driver;
        self.rng = rng;
        self.tx_cursor = 0;
        // `ops` is cleared at every use site; only capacity survives.
    }

    /// [`Workbench::reset`] to the paper's baseline machine.
    pub fn reset_paper_machine(&mut self, mode: DdioMode, seed: u64) {
        self.reset(
            CacheGeometry::xeon_e5_2660(),
            mode,
            DriverConfig::paper_defaults(),
            seed,
        );
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// Mutable hierarchy access.
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.h
    }

    /// The NIC driver.
    pub fn driver(&self) -> &IgbDriver {
        &self.driver
    }

    /// Resets LLC/memory statistics before a measurement phase.
    pub fn reset_stats(&mut self) {
        self.h.reset_stats();
    }

    fn snapshot(&self, t0: Cycles, units: u64) -> WorkloadMetrics {
        WorkloadMetrics {
            elapsed_cycles: self.h.now() - t0,
            llc: self.h.llc().stats(),
            mem: self.h.memory_stats(),
            units,
        }
    }

    /// Runs one Nginx-like request and returns its service time in
    /// cycles: receive the HTTP request frame, touch the working set,
    /// build the response, and let the NIC fetch it.
    ///
    /// Everything after the receive is emitted as one op batch per
    /// request (compute gap as the first op's lead, then the random
    /// working-set reads and the response write/DMA-read pairs) and
    /// replayed through [`Hierarchy::run_ops`] — byte-identical to the
    /// per-access walk, since the random lines are drawn before the
    /// replay and the RNG never observes the hierarchy. A request's
    /// ~630 ops stay below the sharding threshold, so they replay
    /// inline, with each op's LLC row prefetched a few ops ahead: the
    /// random working-set reads would otherwise stall on host cache
    /// misses (this loop is Figure 16's dominant cost).
    pub fn nginx_request(&mut self, cfg: &NginxConfig) -> Cycles {
        let t0 = self.h.now();
        let frame = EthernetFrame::clamped(cfg.request_bytes);
        self.driver.receive(&mut self.h, frame, &mut self.rng);
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        ops.advance(cfg.compute_cycles);
        let ws_lines = (cfg.working_set_bytes / 64) as u64;
        for _ in 0..cfg.reads_per_request {
            let line = self.rng.gen_range(0..ws_lines);
            ops.op(CacheOp::read(PhysAddr::new(
                APP_FIRST_PAGE * 4096 + line * 64,
            )));
        }
        // Response buffer: a rotating region the NIC DMA-reads out.
        let tx_base = (APP_FIRST_PAGE + (1 << 16)) * 4096;
        for b in 0..u64::from(cfg.response_blocks) {
            let addr = PhysAddr::new(tx_base + ((self.tx_cursor + b) % 4096) * 64);
            ops.op(CacheOp::write(addr));
            ops.op(CacheOp::io_read(addr));
        }
        self.h.run_ops(&ops);
        self.ops = ops;
        self.tx_cursor = (self.tx_cursor + u64::from(cfg.response_blocks)) % 4096;
        self.h.now() - t0
    }
}

/// Nginx workload parameters.
#[derive(Copy, Clone, Debug)]
pub struct NginxConfig {
    /// Bytes of hot application data (index structures, page cache).
    pub working_set_bytes: usize,
    /// Random working-set reads per request.
    pub reads_per_request: usize,
    /// Cache blocks of response handed to the NIC.
    pub response_blocks: u32,
    /// Size of the incoming request frame.
    pub request_bytes: u32,
    /// Pure compute per request (parsing, TLS, templating) in cycles —
    /// work that exercises neither the LLC nor the NIC.
    pub compute_cycles: u64,
}

impl NginxConfig {
    /// A static-content server with a multi-MiB hot set.
    pub fn paper_defaults() -> Self {
        NginxConfig {
            working_set_bytes: 24 << 20,
            reads_per_request: 600,
            response_blocks: 16,
            request_bytes: 192,
            compute_cycles: 0,
        }
    }
}

impl Default for NginxConfig {
    fn default() -> Self {
        NginxConfig::paper_defaults()
    }
}

/// Runs `requests` Nginx-like requests back to back (closed loop) and
/// reports throughput — the Figure 14 measurement.
pub fn nginx(bench: &mut Workbench, cfg: &NginxConfig, requests: u64) -> WorkloadMetrics {
    bench.reset_stats();
    let t0 = bench.h.now();
    for _ in 0..requests {
        bench.nginx_request(cfg);
    }
    bench.snapshot(t0, requests)
}

/// `dd`-style file copy: the disk controller DMAs `megabytes` of source
/// data in, the CPU copies it, and the controller DMAs the destination
/// back out.
///
/// The copy loop is pure op emission (no mid-loop clock reads, no RNG),
/// so it batches in large chunks and replays through the sharded engine
/// wherever `PC_BENCH_THREADS` allows — the first defense workload on
/// the slice-parallel fast path end to end.
pub fn file_copy(bench: &mut Workbench, megabytes: u64) -> WorkloadMetrics {
    bench.reset_stats();
    let t0 = bench.h.now();
    let lines = megabytes * (1 << 20) / 64;
    let src = (APP_FIRST_PAGE + (1 << 17)) * 4096;
    let dst = (APP_FIRST_PAGE + (1 << 18)) * 4096;
    // 4 ops per copied line, so a chunk fills the workspace op-scratch
    // cap exactly (64 Ki ops per replay): far above the shard
    // threshold, small enough to keep the scratch cache-friendly.
    const CHUNK_LINES: u64 = pc_cache::ops::OP_SCRATCH_CAP / 4;
    let mut ops = std::mem::take(&mut bench.ops);
    let mut first = 0;
    while first < lines {
        ops.clear();
        for i in first..(first + CHUNK_LINES).min(lines) {
            let s = PhysAddr::new(src + i * 64);
            let d = PhysAddr::new(dst + i * 64);
            ops.op(CacheOp::io_write(s)); // disk read DMA
            ops.op(CacheOp::read(s));
            ops.op(CacheOp::write(d));
            ops.op(CacheOp::io_read(d)); // disk write DMA
        }
        bench.h.run_ops(&ops);
        first += CHUNK_LINES;
    }
    bench.ops = ops;
    bench.snapshot(t0, lines)
}

/// Frames per [`tcp_recv`] burst: enough for a burst's op stream
/// (~4 ops per min-sized frame, app read included) to clear the
/// sharded-dispatch threshold when worker threads exist. Burst
/// boundaries never change results — the receive path is batch- and
/// thread-invariant.
const TCP_RECV_BURST: u64 = 2_048;

/// A program that constantly receives TCP packets with 8-byte payloads
/// (64-byte frames) and touches each payload once.
///
/// The receiver rides the driver's burst engine with a **frame-extension
/// hook**: each frame's application payload read is emitted into the
/// same op batch as the frame's own traffic
/// ([`IgbDriver::receive_burst_with`]), so the whole burst — DMA
/// writes, driver reads *and* app reads — replays as one shardable
/// stream instead of dropping to a per-access read between frames.
/// Byte-identical to the per-frame walk (`tests` pin it).
pub fn tcp_recv(bench: &mut Workbench, packets: u64) -> WorkloadMetrics {
    bench.reset_stats();
    let t0 = bench.h.now();
    let frame = EthernetFrame::min_sized();
    let frames = vec![frame; packets.min(TCP_RECV_BURST) as usize];
    let mut left = packets;
    while left > 0 {
        let burst = left.min(TCP_RECV_BURST) as usize;
        let events = bench.driver.receive_burst_with(
            &mut bench.h,
            &frames[..burst],
            &mut bench.rng,
            // The application reads the payload out of the skb.
            |meta, ops| ops.op(CacheOp::read(meta.buffer_addr)),
        );
        // Plus the deferred stack reads, if any (no-DDIO path; min-sized
        // frames never defer, but the contract is kept for any frame).
        for ev in events {
            for (_, addr) in ev.deferred_reads {
                bench.h.cpu_read(addr);
            }
        }
        left -= burst as u64;
    }
    bench.snapshot(t0, packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(mode: DdioMode) -> Workbench {
        Workbench::paper_machine(mode, 77)
    }

    #[test]
    fn nginx_makes_progress_and_reports() {
        let mut b = bench(DdioMode::enabled());
        let m = nginx(&mut b, &NginxConfig::paper_defaults(), 200);
        assert_eq!(m.units, 200);
        assert!(m.elapsed_cycles > 0);
        assert!(m.krps() > 0.0);
        assert!(m.llc.cpu_accesses() > 0);
    }

    /// The pre-burst tcp_recv: one streaming receive and one per-access
    /// app read per packet — the equivalence reference for the fused
    /// burst path.
    fn tcp_recv_per_frame(bench: &mut Workbench, packets: u64) -> WorkloadMetrics {
        bench.reset_stats();
        let t0 = bench.h.now();
        let frame = EthernetFrame::min_sized();
        for _ in 0..packets {
            let ev = bench.driver.receive(&mut bench.h, frame, &mut bench.rng);
            bench.h.cpu_read(ev.buffer_addr);
            for (_, addr) in ev.deferred_reads {
                bench.h.cpu_read(addr);
            }
        }
        bench.snapshot(t0, packets)
    }

    #[test]
    fn tcp_recv_burst_matches_per_frame_walk() {
        // The fused burst (frame ops + app reads in one batch) must be
        // byte-identical to the per-frame walk in every DDIO mode:
        // metrics, final clock, LLC statistics and memory traffic.
        for mode in [
            DdioMode::Disabled,
            DdioMode::enabled(),
            DdioMode::adaptive(),
        ] {
            let mut fused = bench(mode);
            let mut reference = bench(mode);
            let m_fused = tcp_recv(&mut fused, 3_000);
            let m_ref = tcp_recv_per_frame(&mut reference, 3_000);
            assert_eq!(m_fused.elapsed_cycles, m_ref.elapsed_cycles, "{mode:?}");
            assert_eq!(m_fused.llc, m_ref.llc, "{mode:?}");
            assert_eq!(m_fused.mem, m_ref.mem, "{mode:?}");
            assert_eq!(fused.h.now(), reference.h.now(), "{mode:?}");
            assert_eq!(
                fused.driver.ring().page_addresses(),
                reference.driver.ring().page_addresses(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn ddio_reduces_memory_traffic_for_tcp_recv() {
        let mut with = bench(DdioMode::enabled());
        let mut without = bench(DdioMode::Disabled);
        let m_with = tcp_recv(&mut with, 3_000);
        let m_without = tcp_recv(&mut without, 3_000);
        assert!(
            m_with.mem.total() < m_without.mem.total(),
            "DDIO {} vs no-DDIO {}",
            m_with.mem.total(),
            m_without.mem.total()
        );
    }

    #[test]
    fn ddio_reduces_memory_traffic_for_file_copy() {
        let mut with = bench(DdioMode::enabled());
        let mut without = bench(DdioMode::Disabled);
        let m_with = file_copy(&mut with, 2);
        let m_without = file_copy(&mut without, 2);
        assert!(m_with.mem.total() < m_without.mem.total());
        assert!(
            m_with.elapsed_cycles < m_without.elapsed_cycles,
            "DDIO must be faster"
        );
    }

    #[test]
    fn adaptive_partition_is_close_to_ddio_on_nginx() {
        let mut ddio = bench(DdioMode::enabled());
        let mut adaptive = bench(DdioMode::adaptive());
        let cfg = NginxConfig::paper_defaults();
        // Warm up both, then measure.
        nginx(&mut ddio, &cfg, 100);
        nginx(&mut adaptive, &cfg, 100);
        let m_ddio = nginx(&mut ddio, &cfg, 400);
        let m_adaptive = nginx(&mut adaptive, &cfg, 400);
        let loss = 1.0 - m_adaptive.krps() / m_ddio.krps();
        assert!(
            loss < 0.10,
            "adaptive partition lost {:.1}% throughput (paper: <2.7%)",
            loss * 100.0
        );
    }

    #[test]
    fn randomization_slows_the_driver() {
        let mut plain = bench(DdioMode::enabled());
        let full_cfg = DriverConfig {
            randomize: pc_nic::RandomizeMode::EveryPacket,
            ..DriverConfig::paper_defaults()
        };
        let mut randomized = Workbench::new(
            CacheGeometry::xeon_e5_2660(),
            DdioMode::enabled(),
            full_cfg,
            77,
        );
        let m_plain = tcp_recv(&mut plain, 2_000);
        let m_rand = tcp_recv(&mut randomized, 2_000);
        assert!(m_rand.elapsed_cycles > m_plain.elapsed_cycles);
    }

    #[test]
    fn reset_bench_matches_a_fresh_one() {
        // A bench dirtied by one workload then reset must measure
        // exactly like a freshly built bench — the contract TenantScratch
        // reuse in the fleet driver rests on.
        let mut reused = bench(DdioMode::enabled());
        nginx(&mut reused, &NginxConfig::paper_defaults(), 50);
        for (mode, seed) in [
            (DdioMode::Disabled, 3u64),
            (DdioMode::adaptive(), 19),
            (DdioMode::enabled(), 77),
        ] {
            reused.reset_paper_machine(mode, seed);
            let mut fresh = Workbench::paper_machine(mode, seed);
            let m_reused = tcp_recv(&mut reused, 1_500);
            let m_fresh = tcp_recv(&mut fresh, 1_500);
            assert_eq!(m_reused.elapsed_cycles, m_fresh.elapsed_cycles, "{mode:?}");
            assert_eq!(m_reused.llc, m_fresh.llc, "{mode:?}");
            assert_eq!(m_reused.mem, m_fresh.mem, "{mode:?}");
            assert_eq!(reused.h.now(), fresh.h.now(), "{mode:?}");
            assert_eq!(
                reused.driver.ring().page_addresses(),
                fresh.driver.ring().page_addresses(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn metrics_rates_are_finite() {
        let mut b = bench(DdioMode::enabled());
        let m = tcp_recv(&mut b, 100);
        assert!(m.units_per_second().is_finite());
        assert!(m.units_per_second() > 0.0);
    }
}
