//! RSS determinism suite: the multi-queue delivery contract through
//! the public API.
//!
//! Two pillars, matching the TestBed module docs (the bed's own tests
//! pin multi-queue delivery against a per-access reference, and the CI
//! determinism legs byte-diff whole runs across thread counts):
//!
//! * **Steering is pure**: which queue a flow lands on is a function of
//!   `(seed, flow tuple)` alone — no RNG stream, no timing.
//! * **Queue count 1 is the pre-RSS model**: flow tags are inert on a
//!   single-queue bed, so every pre-RSS golden replays unchanged.

use pc_core::{TestBed, TestBedConfig};
use pc_net::{ArrivalSchedule, FlowCycle, FlowTuple, LineRate, ScheduledFrame, UniformSizes};
use pc_nic::RssConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A flow-tagged arrival schedule: `count` frames of mixed sizes from
/// `clients` synthetic clients at 150k fps.
fn flow_schedule(clients: u64, count: usize, seed: u64) -> Vec<ScheduledFrame> {
    let mut gen = FlowCycle::clients(UniformSizes::full_range(), clients, 80);
    let mut rng = SmallRng::seed_from_u64(seed);
    ArrivalSchedule::new(LineRate::gigabit())
        .frames_per_second(150_000)
        .generate(&mut gen, 1, count, &mut rng)
}

/// Runs one schedule to completion on a fresh bed.
fn run(cfg: TestBedConfig, schedule: Vec<ScheduledFrame>) -> TestBed {
    let mut tb = TestBed::new(cfg);
    tb.enqueue(schedule);
    tb.drain();
    tb
}

#[test]
fn steering_is_a_pure_function_of_seed_and_flow() {
    for queues in [2usize, 4, 8] {
        let a = RssConfig::new(queues, 2020);
        let b = RssConfig::new(queues, 2020);
        for i in 0..512 {
            let flow = FlowTuple::client(i, 80);
            assert_eq!(a.steer(flow), b.steer(flow), "queues {queues}, flow {i}");
        }
    }
}

#[test]
fn rss_spreads_client_flows_over_every_queue() {
    let tb = run(
        TestBedConfig::paper_baseline().with_seed(5).with_queues(4),
        flow_schedule(64, 600, 11),
    );
    for q in 0..4 {
        assert!(
            tb.queue_driver(q).packets_received() > 0,
            "queue {q} never received a frame from 64 client flows"
        );
    }
    assert_eq!(
        tb.packets_received_total(),
        600,
        "every frame lands on exactly one queue"
    );
}

#[test]
fn single_queue_makes_flow_tags_inert() {
    // The pre-RSS golden contract: on a 1-queue bed, a flow-tagged
    // schedule behaves exactly like the same schedule with the tags
    // stripped (the legacy all-zero flow), because steering never
    // draws RNG and everything lands on queue 0 either way.
    let tagged = flow_schedule(16, 500, 33);
    let stripped: Vec<ScheduledFrame> = tagged
        .iter()
        .map(|sf| ScheduledFrame::new(sf.at, sf.frame))
        .collect();
    let cfg = TestBedConfig::paper_baseline().with_seed(99).with_queues(1);
    let a = run(cfg, tagged);
    let b = run(cfg, stripped);
    assert_eq!(a.records(), b.records());
    assert_eq!(a.now(), b.now());
    assert_eq!(a.hierarchy().llc().stats(), b.hierarchy().llc().stats());
    assert_eq!(
        a.queue_driver(0).packets_received(),
        b.queue_driver(0).packets_received()
    );
}

#[test]
fn legacy_schedules_leave_extra_queues_idle() {
    // Schedules with no flow tags pin to queue 0 at any queue count, so
    // widening the NIC cannot disturb single-ring experiments.
    let legacy: Vec<ScheduledFrame> = flow_schedule(1, 300, 7)
        .into_iter()
        .map(|sf| ScheduledFrame::new(sf.at, sf.frame))
        .collect();
    let narrow = run(
        TestBedConfig::paper_baseline().with_seed(1).with_queues(1),
        legacy.clone(),
    );
    let wide = run(
        TestBedConfig::paper_baseline().with_seed(1).with_queues(4),
        legacy,
    );
    assert_eq!(narrow.records(), wide.records());
    assert_eq!(narrow.now(), wide.now());
    assert_eq!(
        narrow.hierarchy().llc().stats(),
        wide.hierarchy().llc().stats()
    );
    for q in 1..4 {
        assert_eq!(wide.queue_driver(q).packets_received(), 0, "queue {q} idle");
    }
}
