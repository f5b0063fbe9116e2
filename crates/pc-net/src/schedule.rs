//! Arrival scheduling: turning a size generator plus a rate into a
//! time-stamped frame stream, including the high-rate reordering effect.
//!
//! Figure 12d of the paper shows the chasing receiver's error rate jumping
//! at 640 kbps "because at that speed the packets start to arrive
//! out-of-order at the receive side". [`ArrivalSchedule`] reproduces that:
//! above a configurable utilization threshold, adjacent frames swap with a
//! probability that grows with utilization.

use crate::flow::FlowTuple;
use crate::frame::EthernetFrame;
use crate::generator::SizeGenerator;
use crate::linerate::LineRate;
use rand::rngs::SmallRng;
use rand::Rng;

/// A frame with its arrival time in CPU cycles.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct ScheduledFrame {
    /// Cycle at which the NIC receives the frame.
    pub at: u64,
    /// The frame itself.
    pub frame: EthernetFrame,
    /// The transport flow the frame belongs to (RSS steering input;
    /// the default all-zero tuple is the legacy single flow).
    pub flow: FlowTuple,
}

impl ScheduledFrame {
    /// A frame on the legacy (default) flow.
    pub fn new(at: u64, frame: EthernetFrame) -> Self {
        ScheduledFrame {
            at,
            frame,
            flow: FlowTuple::default(),
        }
    }
}

/// Builds time-stamped arrival streams.
///
/// ```
/// use pc_net::{ArrivalSchedule, ConstantSize, LineRate};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let frames = ArrivalSchedule::new(LineRate::gigabit())
///     .frames_per_second(100_000)
///     .generate(&mut ConstantSize::blocks(3), 0, 50, &mut rng);
/// assert_eq!(frames.len(), 50);
/// assert!(frames.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[derive(Copy, Clone, Debug)]
pub struct ArrivalSchedule {
    line: LineRate,
    frames_per_second: Option<u64>,
    jitter_frac: f64,
    reorder_utilization: f64,
    reorder_prob_max: f64,
}

impl ArrivalSchedule {
    /// A schedule on `line`, initially at full line rate with mild jitter
    /// and reordering beyond 80 % utilization.
    pub fn new(line: LineRate) -> Self {
        ArrivalSchedule {
            line,
            frames_per_second: None,
            jitter_frac: 0.05,
            reorder_utilization: 0.8,
            reorder_prob_max: 0.08,
        }
    }

    /// Caps the sender to `fps` frames per second (still bounded by the
    /// line rate).
    ///
    /// # Panics
    ///
    /// Panics if `fps` is zero.
    pub fn frames_per_second(mut self, fps: u64) -> Self {
        assert!(fps > 0, "frame rate must be non-zero");
        self.frames_per_second = Some(fps);
        self
    }

    /// Sets inter-arrival jitter as a fraction of the nominal gap.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is negative or ≥ 1.
    pub fn jitter(mut self, frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0, 1)"
        );
        self.jitter_frac = frac;
        self
    }

    /// Configures reordering: above `utilization` (fraction of line rate),
    /// adjacent frames swap with probability scaling up to `max_prob`.
    ///
    /// # Panics
    ///
    /// Panics if arguments are outside `[0, 1]`.
    pub fn reordering(mut self, utilization: f64, max_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&max_prob),
            "probability must be in [0, 1]"
        );
        self.reorder_utilization = utilization;
        self.reorder_prob_max = max_prob;
        self
    }

    /// Link utilization of `fps` frames of `bytes` size, in `[0, ∞)`.
    fn utilization(&self, bytes: u32, fps: u64) -> f64 {
        let line_fps = self.line.max_frames_per_second(bytes).max(1);
        fps as f64 / line_fps as f64
    }

    /// Generates `count` arrivals starting at cycle `start`.
    pub fn generate<G: SizeGenerator + ?Sized>(
        &self,
        gen: &mut G,
        start: u64,
        count: usize,
        rng: &mut SmallRng,
    ) -> Vec<ScheduledFrame> {
        let mut out = Vec::with_capacity(count);
        let mut t = start;
        for _ in 0..count {
            let frame = gen.next_frame(rng);
            // Flow assignment never draws from `rng`: the shared
            // schedule stream is pinned by pre-RSS goldens.
            let flow = gen.next_flow();
            let nominal = match self.frames_per_second {
                Some(fps) => self.line.cycles_at_rate(frame.bytes(), fps),
                None => self.line.cycles_for(frame),
            };
            let gap = if self.jitter_frac > 0.0 {
                let j = 1.0 + rng.gen_range(-self.jitter_frac..=self.jitter_frac);
                ((nominal as f64) * j).max(1.0) as u64
            } else {
                nominal
            };
            t += gap;
            out.push(ScheduledFrame { at: t, frame, flow });
        }
        self.apply_reordering(&mut out, rng);
        out
    }

    /// Swaps adjacent arrivals with a utilization-dependent probability,
    /// then re-sorts timestamps so the stream stays causally ordered while
    /// the *content* order is perturbed (which is exactly what breaks the
    /// chasing receiver's synchronization).
    fn apply_reordering(&self, frames: &mut [ScheduledFrame], rng: &mut SmallRng) {
        if frames.len() < 2 {
            return;
        }
        let fps = match self.frames_per_second {
            Some(fps) => fps,
            None => return, // full line rate: modeled as a well-paced sender
        };
        let avg_bytes = (frames
            .iter()
            .map(|f| u64::from(f.frame.bytes()))
            .sum::<u64>()
            / frames.len() as u64) as u32;
        let util = self.utilization(avg_bytes, fps);
        if util <= self.reorder_utilization {
            return;
        }
        let severity = ((util - self.reorder_utilization)
            / (1.0 - self.reorder_utilization).max(1e-9))
        .min(1.0);
        let p = self.reorder_prob_max * severity;
        for i in 1..frames.len() {
            if rng.gen_bool(p) {
                // The *content* (frame and its flow) swaps; the
                // timestamps stay put, keeping the stream sorted.
                let (a, b) = (frames[i - 1], frames[i]);
                frames[i - 1].frame = b.frame;
                frames[i - 1].flow = b.flow;
                frames[i].frame = a.frame;
                frames[i].flow = a.flow;
            }
        }
    }
}

/// Merges two already-sorted arrival streams into one sorted stream
/// (trojan traffic + background noise).
pub fn merge_schedules(
    mut a: Vec<ScheduledFrame>,
    mut b: Vec<ScheduledFrame>,
) -> Vec<ScheduledFrame> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        if a[ia].at <= b[ib].at {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out.extend(a.drain(ia..));
    out.extend(b.drain(ib..));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ConstantSize;
    use crate::linerate::CPU_FREQ_HZ;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    #[test]
    fn timestamps_monotone() {
        let s = ArrivalSchedule::new(LineRate::gigabit()).frames_per_second(200_000);
        let frames = s.generate(&mut ConstantSize::blocks(2), 100, 1000, &mut rng());
        assert!(frames.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(frames[0].at > 100);
    }

    #[test]
    fn rate_is_respected_on_average() {
        let s = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(100_000)
            .jitter(0.0);
        let frames = s.generate(&mut ConstantSize::blocks(1), 0, 100, &mut rng());
        let span = frames.last().unwrap().at - frames[0].at;
        let avg_gap = span / 99;
        assert_eq!(avg_gap, CPU_FREQ_HZ / 100_000);
    }

    #[test]
    fn line_rate_caps_requested_rate() {
        // 10M fps of MTU frames is impossible on 1 GbE.
        let s = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(10_000_000)
            .jitter(0.0);
        let mut gen = ConstantSize::new(EthernetFrame::mtu_sized());
        let frames = s.generate(&mut gen, 0, 10, &mut rng());
        let gap = frames[1].at - frames[0].at;
        assert_eq!(gap, LineRate::gigabit().cycles_per_frame(1514));
    }

    #[test]
    fn low_utilization_keeps_order() {
        let mut sizes = crate::generator::CyclingSizes::new(vec![
            EthernetFrame::with_blocks(1),
            EthernetFrame::with_blocks(2),
            EthernetFrame::with_blocks(3),
        ]);
        let s = ArrivalSchedule::new(LineRate::gigabit()).frames_per_second(1_000);
        let frames = s.generate(&mut sizes, 0, 30, &mut rng());
        let blocks: Vec<u32> = frames.iter().map(|f| f.frame.cache_blocks()).collect();
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(*b, (i as u32 % 3) + 1, "low-rate stream must stay in order");
        }
    }

    #[test]
    fn high_utilization_reorders_some_frames() {
        let mut sizes = crate::generator::CyclingSizes::new(vec![
            EthernetFrame::with_blocks(1),
            EthernetFrame::with_blocks(2),
            EthernetFrame::with_blocks(3),
        ]);
        // 64-byte-class frames at ~1.4M fps ≈ full utilization of 1 GbE.
        let s = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(1_400_000)
            .reordering(0.5, 0.2);
        let frames = s.generate(&mut sizes, 0, 3000, &mut rng());
        let out_of_place = frames
            .iter()
            .enumerate()
            .filter(|(i, f)| f.frame.cache_blocks() != (*i as u32 % 3) + 1)
            .count();
        assert!(
            out_of_place > 0,
            "expected some reordering at high utilization"
        );
    }

    #[test]
    fn flows_travel_with_their_frames_through_reordering() {
        use crate::flow::FlowTuple;
        use crate::generator::FlowCycle;
        // Distinct sizes per flow, so a swap that moved a frame
        // without its flow is detectable: every 2-block frame is
        // client 0, every 3-block frame client 1, and so on.
        let sizes = crate::generator::CyclingSizes::new(vec![
            EthernetFrame::with_blocks(2),
            EthernetFrame::with_blocks(3),
            EthernetFrame::with_blocks(4),
        ]);
        let mut gen = FlowCycle::clients(sizes, 3, 80);
        let s = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(1_400_000)
            .reordering(0.5, 0.2);
        let frames = s.generate(&mut gen, 0, 3000, &mut rng());
        let mut moved = 0;
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(
                f.flow,
                FlowTuple::client(u64::from(f.frame.cache_blocks()) - 2, 80),
                "flow must ride with its frame through swaps"
            );
            if f.frame.cache_blocks() != (i as u32 % 3) + 2 {
                moved += 1;
            }
        }
        assert!(moved > 0, "the high-rate stream did reorder");
    }

    #[test]
    fn flow_assignment_never_shifts_the_schedule_rng() {
        // A flow-cycled generator and its plain inner generator must
        // produce identical (at, frame) streams from identical RNGs.
        let s = ArrivalSchedule::new(LineRate::gigabit()).frames_per_second(200_000);
        let plain = s.generate(&mut ConstantSize::blocks(2), 0, 200, &mut rng());
        let cycled = s.generate(
            &mut crate::generator::FlowCycle::clients(ConstantSize::blocks(2), 8, 80),
            0,
            200,
            &mut rng(),
        );
        assert_eq!(plain.len(), cycled.len());
        for (p, c) in plain.iter().zip(&cycled) {
            assert_eq!((p.at, p.frame), (c.at, c.frame));
            assert!(p.flow.is_legacy());
            assert!(!c.flow.is_legacy());
        }
    }

    #[test]
    fn merge_keeps_global_order() {
        let s = ArrivalSchedule::new(LineRate::gigabit()).frames_per_second(100_000);
        let a = s.generate(&mut ConstantSize::blocks(1), 0, 50, &mut rng());
        let b = s.generate(&mut ConstantSize::blocks(4), 37, 50, &mut rng());
        let merged = merge_schedules(a, b);
        assert_eq!(merged.len(), 100);
        assert!(merged.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
