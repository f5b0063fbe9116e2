//! Differential fuzz of the op-stream IR's fast path against the
//! per-access oracle.
//!
//! Every other equivalence suite in the workspace reaches the replay
//! through *driver-shaped* traffic (pc-nic frame bursts, monitor
//! primes). This one feeds it raw, adversarial [`CacheOp`] streams —
//! mixed access kinds, random leads, skewed slice distributions — and
//! pins every entry point byte-identical to the oracle on each:
//!
//! * **batch** — emit into an [`OpBuffer`], replay via
//!   [`Hierarchy::run_ops`] (the decode-ahead, prefetching walk);
//! * **streaming** — the one-pass [`Hierarchy::applier`] sink;
//! * **oracle** — the per-access path (the hierarchy is itself an
//!   [`OpSink`]).
//!
//! Each stream also replays through [`Hierarchy::run_trace`], in every
//! [`DdioMode`], and a second round over the *same* hierarchies catches
//! divergence that only shows up in carried state (LRU clocks, defense
//! clocks).
//!
//! Decoded walks ([`Hierarchy::run_walk`], the spy's prime and probe
//! entry point) get the same treatment: each walk replays forward and
//! reverse against `run_trace` over the same reads and one
//! [`Hierarchy::cpu_read`] per address.

use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, CacheOp, CacheStats, DdioMode, Hierarchy, OpBuffer,
    OpSink, PhysAddr, SlicedCache, TraceSummary, WalkOrder,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministically generates one fuzz stream: `len` ops, `io_pct`%
/// DMA writes, a lead on roughly one op in eight, and `skew_pct`% of
/// addresses confined to a tiny conflict region (so some slices see
/// far more traffic than others).
fn fuzz_stream(seed: u64, len: usize, io_pct: u32, skew_pct: u32) -> Vec<CacheOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let line = if rng.gen_range(0..100) < skew_pct {
                rng.gen_range(0..64u64) // one hot region: heavy conflicts
            } else {
                rng.gen_range(0..(1 << 16)) // broad region: every slice
            };
            let kind = match rng.gen_range(0..100u32) {
                p if p < io_pct => AccessKind::IoWrite,
                p if p < io_pct + 10 => AccessKind::IoRead,
                p if p < io_pct + 30 => AccessKind::CpuWrite,
                _ => AccessKind::CpuRead,
            };
            let lead = if rng.gen_range(0..8u32) == 0 {
                rng.gen_range(1..500u64)
            } else {
                0
            };
            CacheOp::new(PhysAddr::new(line * 64), kind).after(lead)
        })
        .collect()
}

fn modes() -> [DdioMode; 3] {
    [
        DdioMode::Disabled,
        DdioMode::enabled(),
        DdioMode::Adaptive(AdaptiveConfig {
            period: 16,
            ..AdaptiveConfig::paper_defaults()
        }),
    ]
}

/// Per-slice statistics — the strictest observable aggregate (pins
/// adaptation period boundaries and hit/miss placement per shard).
fn slice_stats(h: &Hierarchy) -> Vec<CacheStats> {
    (0..h.llc().geometry().slices())
        .map(|s| h.llc().slice_stats(s))
        .collect()
}

/// Asserts two hierarchies are observationally identical for `ops`:
/// clock, memory traffic, per-slice statistics, and residency of every
/// touched line.
fn assert_identical(a: &Hierarchy, b: &Hierarchy, ops: &[CacheOp], what: &str) {
    assert_eq!(a.now(), b.now(), "{what}: clock");
    assert_eq!(a.memory_stats(), b.memory_stats(), "{what}: memory");
    assert_eq!(slice_stats(a), slice_stats(b), "{what}: per-slice stats");
    for op in ops {
        assert_eq!(
            a.llc().contains(op.addr),
            b.llc().contains(op.addr),
            "{what}: residency of {:?}",
            op.addr
        );
    }
}

/// Replays every round (with a trailing advance) through `run_ops`,
/// the applier, `run_trace` and the per-access oracle, asserting
/// byte-identity after each; later rounds run over the carried state
/// of earlier ones.
fn run_all_engines(geom: CacheGeometry, mode: DdioMode, rounds: &[Vec<CacheOp>], trailing: u64) {
    let mut batch = Hierarchy::new(geom, mode);
    let mut streaming = Hierarchy::new(geom, mode);
    let mut oracle = Hierarchy::new(geom, mode);
    let mut traced = Hierarchy::new(geom, mode);
    for ops in rounds {
        // Batch: one OpBuffer replay.
        let mut buf = OpBuffer::new();
        for &op in ops {
            buf.op(op);
        }
        buf.advance(trailing);
        let sum = batch.run_ops(&buf);
        assert_eq!(sum.accesses, ops.len() as u64);

        // Streaming: the applier sink, totals flushed on drop.
        {
            let mut sink = streaming.applier();
            for &op in ops {
                sink.op(op);
            }
            sink.advance(trailing);
        }

        // Oracle: per-access, the hierarchy as the sink.
        for &op in ops {
            oracle.op(op);
        }
        oracle.advance(trailing);

        assert_identical(&batch, &oracle, ops, "batch vs oracle");
        assert_identical(&streaming, &oracle, ops, "streaming vs oracle");

        // The unbuffered trace replay.
        traced.run_trace(ops.iter().copied());
        traced.advance(trailing);
        assert_identical(&traced, &oracle, ops, "run_trace vs oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized streams on the tiny geometry: every mode, two rounds
    /// over carried state.
    #[test]
    fn engines_agree_on_fuzzed_streams(
        seed in 0u64..u64::MAX,
        io_pct in 0u32..60,
        skew_pct in 0u32..100,
        len in 64usize..1500,
    ) {
        for mode in modes() {
            let rounds = [
                fuzz_stream(seed, len, io_pct, skew_pct),
                fuzz_stream(seed ^ 0x9e37, len / 2 + 1, io_pct, 100 - skew_pct),
            ];
            run_all_engines(CacheGeometry::tiny(), mode, &rounds, seed % 701);
        }
    }

    /// Long streams on the paper geometry: 6000 ops spread over all
    /// eight slices, so every shard's carried state is exercised.
    #[test]
    fn engines_agree_on_long_streams(
        seed in 0u64..u64::MAX,
        skew_pct in 0u32..100,
    ) {
        let rounds = [fuzz_stream(seed, 6000, 25, skew_pct)];
        for mode in modes() {
            run_all_engines(CacheGeometry::xeon_e5_2660(), mode, &rounds, 17);
        }
    }

    /// Short streams on the paper geometry exercise the `run_ops`
    /// walk's decode-ahead ring (8 lines, decoded 8 ops ahead) on the
    /// geometry whose rows it hints. The lengths pin the ring's edges —
    /// an empty buffer holding only its trailing advance, a stream
    /// shorter than the ring (never decoded ahead), one just past it
    /// (decoded ahead once), and 16 and 17 (the ring wraps twice) — and
    /// random lengths sweep the rest of the inline range, in every mode.
    #[test]
    fn inline_replay_agrees_on_the_paper_geometry(
        seed in 0u64..u64::MAX,
        io_pct in 0u32..60,
        skew_pct in 0u32..100,
        long in 10usize..4096,
    ) {
        for mode in modes() {
            let rounds: Vec<Vec<CacheOp>> = [0usize, 1, 7, 8, 9, 16, 17, long]
                .iter()
                .enumerate()
                .map(|(k, &len)| fuzz_stream(seed ^ k as u64, len, io_pct, skew_pct))
                .collect();
            run_all_engines(CacheGeometry::xeon_e5_2660(), mode, &rounds, 5);
        }
    }
}

/// A walk over `len` lines drawn from the first `span` lines of memory:
/// it spans several sets, and a small span makes its lines conflict.
fn walk_addrs(seed: u64, len: usize, span: u64) -> Vec<PhysAddr> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| PhysAddr::new(rng.gen_range(0..span) * 64))
        .collect()
}

/// The reference for a decoded walk: one `cpu_read` per address, in
/// order, folded into the summary a replay reports.
fn read_one_at_a_time(h: &mut Hierarchy, addrs: &[PhysAddr]) -> TraceSummary {
    let before = h.memory_stats();
    let mut sum = TraceSummary::default();
    for &a in addrs {
        let lat = h.cpu_read(a);
        sum.accesses += 1;
        sum.hits += u64::from(lat == h.latencies().llc_hit);
        sum.cycles += lat;
    }
    sum.dram_reads = h.memory_stats().reads - before.reads;
    sum.dram_writes = h.memory_stats().writes - before.writes;
    sum
}

/// Four rounds over carried state: fuzzed traffic (issued per access on
/// all three machines), then one walk replayed forward and reverse by
/// `run_walk`, by `run_trace` over the same reads and by one `cpu_read`
/// per address, compared after every replay.
fn walk_engines_agree(
    geom: CacheGeometry,
    mode: DdioMode,
    seed: u64,
    len: usize,
    span: u64,
    io_pct: u32,
) {
    let mut walked = Hierarchy::new(geom, mode);
    let mut traced = Hierarchy::new(geom, mode);
    let mut oracle = Hierarchy::new(geom, mode);
    for round in 0..4u64 {
        let traffic = fuzz_stream(seed.wrapping_add(round), 64, io_pct, 50);
        for h in [&mut walked, &mut traced, &mut oracle] {
            for &op in &traffic {
                h.op(op);
            }
        }
        let addrs = walk_addrs(seed ^ round, len, span);
        let walk = walked.llc().decode_walk(&addrs);
        let touched: Vec<CacheOp> = traffic
            .iter()
            .copied()
            .chain(addrs.iter().map(|&a| CacheOp::read(a)))
            .collect();
        for order in [WalkOrder::Forward, WalkOrder::Reverse] {
            let mut seq = addrs.clone();
            if order == WalkOrder::Reverse {
                seq.reverse();
            }
            let what = format!("{mode:?} round {round} {order:?}");
            let want = read_one_at_a_time(&mut oracle, &seq);
            assert_eq!(walked.run_walk(&walk, order), want, "{what}: run_walk");
            let trace = traced.run_trace(seq.iter().map(|&a| CacheOp::read(a)));
            assert_eq!(trace, want, "{what}: run_trace");
            assert_identical(&walked, &oracle, &touched, &format!("{what}: run_walk"));
            assert_identical(&traced, &oracle, &touched, &format!("{what}: run_trace"));
        }
    }
    if matches!(mode, DdioMode::Adaptive(_)) {
        assert!(
            oracle.llc().stats().defense_evals > 0,
            "the walks must cross adaptive period boundaries"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Decoded walks on both geometries, every mode: walks of
    /// 1..200 lines cross the adaptive period (16 accesses per slice)
    /// mid-walk, and the traffic between them evicts walked lines.
    #[test]
    fn decoded_walks_agree_with_run_trace_and_per_access_reads(
        seed in 0u64..u64::MAX,
        len in 1usize..200,
        span in 8u64..4096,
        io_pct in 10u32..60,
    ) {
        for geom in [CacheGeometry::tiny(), CacheGeometry::xeon_e5_2660()] {
            for mode in modes() {
                walk_engines_agree(geom, mode, seed, len, span, io_pct);
            }
        }
    }
}

#[test]
#[should_panic(expected = "walk decoded for another cache geometry")]
fn a_walk_replayed_on_another_geometry_panics() {
    let paper = SlicedCache::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
    let walk = paper.decode_walk(&[PhysAddr::new(0x1000)]);
    let mut tiny = Hierarchy::new(CacheGeometry::tiny(), DdioMode::enabled());
    tiny.run_walk(&walk, WalkOrder::Forward);
}

/// Empty streams and lead-only buffers: the degenerate windows the
/// burst paths can produce.
#[test]
fn degenerate_streams_are_identical() {
    for mode in modes() {
        let mut batch = Hierarchy::new(CacheGeometry::tiny(), mode);
        let mut oracle = Hierarchy::new(CacheGeometry::tiny(), mode);
        let mut buf = OpBuffer::new();
        buf.advance(123); // trailing advance, no ops at all
        let sum = batch.run_ops(&buf);
        assert_eq!(sum.accesses, 0);
        assert_eq!(sum.cycles, 123);
        oracle.advance(123);
        assert_identical(&batch, &oracle, &[], "lead-only buffer");
    }
}
