//! Batched receive ↔ per-access receive equivalence.
//!
//! [`IgbDriver::receive`] replays each frame's memory traffic as one op
//! batch; [`IgbDriver::receive_scalar`] points the same emitter at the
//! hierarchy, access by access. The two must be **byte-identical** in
//! everything observable — per-frame [`RxEvent`]s (deferred-read due
//! times included), the cycle clock, LLC and memory statistics, ring
//! page placement, reallocation counts and defense overheads — for
//! every DDIO mode × randomization defense, under whatever
//! `PC_BENCH_THREADS` setting the suite runs with (CI runs it at 1 and
//! 4). This is the contract that lets the heaviest end-to-end workloads
//! (ring recovery, fingerprinting, the covert channel) ride the batched
//! engine without perturbing a single figure.

use pc_cache::{CacheGeometry, DdioMode, Hierarchy};
use pc_nic::{DriverConfig, IgbDriver, PageAllocator, RandomizeMode, RxEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A deterministic frame-size mix crossing the copybreak in both
/// directions: minimum, small, copybreak-exact, just-over, MTU.
fn frame_sizes() -> Vec<u32> {
    (0..600u32)
        .map(|i| match i % 5 {
            0 => 64,
            1 => 128,
            2 => 256,
            3 => 257,
            _ => 1514,
        })
        .collect()
}

fn all_modes() -> [DdioMode; 3] {
    [
        DdioMode::Disabled,
        DdioMode::enabled(),
        DdioMode::adaptive(),
    ]
}

fn all_randomize() -> [RandomizeMode; 4] {
    [
        RandomizeMode::Off,
        RandomizeMode::EveryPacket,
        RandomizeMode::EveryNPackets(64),
        RandomizeMode::EveryNPackets(7),
    ]
}

/// One machine: hierarchy + driver + rng, both sides built from the
/// same seeds so any divergence is the replay path's fault.
fn machine(
    mode: DdioMode,
    randomize: RandomizeMode,
    remote_p: f64,
) -> (Hierarchy, IgbDriver, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(0x19b);
    let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), mode);
    let cfg = DriverConfig {
        ring_size: 32,
        randomize,
        ..DriverConfig::paper_defaults()
    };
    let alloc = PageAllocator::new(0xa110c).with_remote_probability(remote_p);
    let drv = IgbDriver::new(cfg, alloc, &mut rng);
    (h, drv, rng)
}

#[test]
fn batched_receive_is_byte_identical_to_per_access_receive() {
    for mode in all_modes() {
        for randomize in all_randomize() {
            let (mut h_b, mut drv_b, mut rng_b) = machine(mode, randomize, 0.05);
            let (mut h_s, mut drv_s, mut rng_s) = machine(mode, randomize, 0.05);
            for (i, &bytes) in frame_sizes().iter().enumerate() {
                let frame = pc_net::EthernetFrame::new(bytes).expect("legal size");
                let ev_b: RxEvent = drv_b.receive(&mut h_b, frame, &mut rng_b);
                let ev_s: RxEvent = drv_s.receive_scalar(&mut h_s, frame, &mut rng_s);
                assert_eq!(
                    ev_b, ev_s,
                    "event diverged: frame {i} {mode:?} {randomize:?}"
                );
                assert_eq!(
                    h_b.now(),
                    h_s.now(),
                    "clock diverged: frame {i} {mode:?} {randomize:?}"
                );
            }
            assert_eq!(
                h_b.llc().stats(),
                h_s.llc().stats(),
                "{mode:?} {randomize:?}"
            );
            for slice in 0..h_b.llc().geometry().slices() {
                assert_eq!(
                    h_b.llc().slice_stats(slice),
                    h_s.llc().slice_stats(slice),
                    "per-slice stats diverged: {mode:?} {randomize:?} slice {slice}"
                );
            }
            assert_eq!(
                h_b.memory_stats(),
                h_s.memory_stats(),
                "{mode:?} {randomize:?}"
            );
            assert_eq!(
                drv_b.ring().page_addresses(),
                drv_s.ring().page_addresses(),
                "ring placement diverged: {mode:?} {randomize:?}"
            );
            assert_eq!(drv_b.packets_received(), drv_s.packets_received());
            assert_eq!(drv_b.reallocations(), drv_s.reallocations());
            assert_eq!(
                drv_b.defense_overhead_cycles(),
                drv_s.defense_overhead_cycles(),
                "{mode:?} {randomize:?}"
            );
        }
    }
}

/// The buffer contents the frames left behind must agree too — residency
/// is what the spy observes, so it gets its own check over every block
/// the largest frame touches.
#[test]
fn residency_after_mixed_traffic_is_identical() {
    for mode in all_modes() {
        let (mut h_b, mut drv_b, mut rng_b) = machine(mode, RandomizeMode::Off, 0.0);
        let (mut h_s, mut drv_s, mut rng_s) = machine(mode, RandomizeMode::Off, 0.0);
        let mut touched = Vec::new();
        for &bytes in frame_sizes().iter().take(200) {
            let frame = pc_net::EthernetFrame::new(bytes).expect("legal size");
            let ev = drv_b.receive(&mut h_b, frame, &mut rng_b);
            drv_s.receive_scalar(&mut h_s, frame, &mut rng_s);
            for b in 0..u64::from(ev.blocks) {
                touched.push(ev.buffer_addr.add_blocks(b));
            }
        }
        for addr in touched {
            assert_eq!(
                h_b.llc().contains(addr),
                h_s.llc().contains(addr),
                "residency diverged at {addr} in {mode:?}"
            );
        }
    }
}
