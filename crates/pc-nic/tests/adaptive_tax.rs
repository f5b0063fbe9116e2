//! The adaptive-partitioning driver tax, enforced.
//!
//! Adaptive DDIO re-evaluates the I/O partition as frames arrive; the
//! incremental (dirty-set) evaluator is sized by one number: adaptive ÷
//! enabled ns/packet on [`IgbDriver::receive`]. The target is ≤ 4×
//! (the full-scan evaluator it replaced cost ~15×). This file holds the
//! one timing test so that no other test in its binary competes with it
//! for the CPU.

use pc_cache::{CacheGeometry, DdioMode, Hierarchy};
use pc_net::EthernetFrame;
use pc_nic::{DriverConfig, IgbDriver, PageAllocator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Frames per timed pass.
const PACKETS: usize = 20_000;
/// Timed passes per mode, after one untimed warm-up pass.
const PASSES: usize = 5;
/// Adaptive ÷ enabled ns/packet must stay at or below this.
const MAX_TAX: f64 = 4.0;

/// One driver on a paper-geometry hierarchy in `mode`.
struct Bed {
    h: Hierarchy,
    drv: IgbDriver,
    rng: SmallRng,
}

impl Bed {
    fn new(mode: DdioMode) -> Self {
        let mut rng = SmallRng::seed_from_u64(0xd21f);
        let drv = IgbDriver::new(
            DriverConfig::paper_defaults(),
            PageAllocator::new(7),
            &mut rng,
        );
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), mode);
        Self { h, drv, rng }
    }

    /// Receives every frame once; returns ns/packet.
    fn pass(&mut self, frames: &[EthernetFrame]) -> f64 {
        let t = Instant::now();
        for &f in frames {
            self.drv.receive(&mut self.h, f, &mut self.rng);
        }
        t.elapsed().as_nanos() as f64 / frames.len() as f64
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
fn adaptive_driver_tax_is_at_most_four() {
    // The copybreak crossed in both directions, MTU frames included.
    let frames: Vec<EthernetFrame> = (0..PACKETS)
        .map(|i| EthernetFrame::clamped([64, 128, 256, 257, 1514][i % 5]))
        .collect();
    let mut enabled = Bed::new(DdioMode::enabled());
    let mut adaptive = Bed::new(DdioMode::adaptive());
    enabled.pass(&frames);
    adaptive.pass(&frames);
    // Interleaved, so a burst of host noise lands on both modes.
    let (mut e, mut a) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        e.push(enabled.pass(&frames));
        a.push(adaptive.pass(&frames));
    }
    let (e, a) = (median(e), median(a));
    assert!(e.is_finite() && e > 0.0, "enabled ns/packet {e}");
    assert!(a.is_finite() && a > 0.0, "adaptive ns/packet {a}");
    let tax = a / e;
    eprintln!("adaptive driver tax: {tax:.2}x ({a:.1} / {e:.1} ns/packet, target <= {MAX_TAX})");
    assert!(
        tax <= MAX_TAX,
        "adaptive ÷ enabled driver ns/packet = {tax:.2} > {MAX_TAX}"
    );
}
