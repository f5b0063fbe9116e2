//! Differential fuzz of the op-stream IR's three replay engines.
//!
//! Every other equivalence suite in the workspace reaches these engines
//! through *driver-shaped* traffic (pc-nic frame bursts, monitor
//! primes). This one feeds them raw, adversarial [`CacheOp`] streams —
//! mixed access kinds, random leads, skewed slice distributions — and
//! pins the three engines byte-identical on each:
//!
//! * **batch** — emit into an [`OpBuffer`], replay via
//!   [`Hierarchy::run_ops`] (sharded where big enough);
//! * **streaming** — the one-pass [`Hierarchy::applier`] sink;
//! * **oracle** — the per-access path (the hierarchy is itself an
//!   [`OpSink`]).
//!
//! Each stream also replays through [`Hierarchy::run_trace_threads`] at
//! {1, 2, 4} workers, across every [`DdioMode`] × [`ReplacementPolicy`]
//! (`Random` included, so per-slice RNG streams are exercised), and a
//! second round over the *same* hierarchies catches divergence that
//! only shows up in carried state (LRU clocks, defense clocks, RNG).

use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, CacheOp, CacheStats, DdioMode, Hierarchy, OpBuffer,
    OpSink, PhysAddr, ReplacementPolicy, SlicedCache,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministically generates one fuzz stream: `len` ops, `io_pct`%
/// DMA writes, a lead on roughly one op in eight, and `skew_pct`% of
/// addresses confined to a tiny conflict region (so some slices see
/// far more traffic than others — the shard dispatcher's worst case).
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

fn policies() -> [ReplacementPolicy; 3] {
    [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ]
}

fn hierarchy(geom: CacheGeometry, mode: DdioMode, policy: ReplacementPolicy) -> Hierarchy {
    Hierarchy::with_llc(SlicedCache::with_policy_and_seed(geom, mode, policy, 0xf22))
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

/// Replays every round (with a trailing advance) on all three engines
/// and the pinned-thread variants, asserting byte-identity after each;
/// later rounds run over the carried state of earlier ones.
fn run_all_engines(
    geom: CacheGeometry,
    mode: DdioMode,
    policy: ReplacementPolicy,
    rounds: &[Vec<CacheOp>],
    trailing: u64,
) {
    let mut batch = hierarchy(geom, mode, policy);
    let mut streaming = hierarchy(geom, mode, policy);
    let mut oracle = hierarchy(geom, mode, policy);
    let mut pinned: Vec<Hierarchy> = [1usize, 2, 4]
        .iter()
        .map(|_| hierarchy(geom, mode, policy))
        .collect();
    for ops in rounds {
        // Batch: one OpBuffer replay (sharded when it crosses the
        // dispatch threshold).
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

        // Pinned worker counts through the sharded trace replay.
        for (h, &threads) in pinned.iter_mut().zip(&[1usize, 2, 4]) {
            h.run_trace_threads(ops, threads);
            h.advance(trailing);
        }
        for (h, threads) in pinned.iter().zip([1usize, 2, 4]) {
            assert_identical(h, &oracle, ops, &format!("threads={threads} vs oracle"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized streams on the tiny geometry: every mode × policy,
    /// two rounds over carried state.
    #[test]
    fn engines_agree_on_fuzzed_streams(
        seed in 0u64..u64::MAX,
        io_pct in 0u32..60,
        skew_pct in 0u32..100,
        len in 64usize..1500,
    ) {
        for mode in modes() {
            for policy in policies() {
                let rounds = [
                    fuzz_stream(seed, len, io_pct, skew_pct),
                    fuzz_stream(seed ^ 0x9e37, len / 2 + 1, io_pct, 100 - skew_pct),
                ];
                run_all_engines(CacheGeometry::tiny(), mode, policy, &rounds, seed % 701);
            }
        }
    }

    /// Long streams on the paper geometry cross the sharded-dispatch
    /// threshold (4096 ops), so the batch engine actually fans out on
    /// multi-core hosts while the oracle stays sequential.
    #[test]
    fn engines_agree_past_the_shard_threshold(
        seed in 0u64..u64::MAX,
        skew_pct in 0u32..100,
    ) {
        let rounds = [fuzz_stream(seed, 6000, 25, skew_pct)];
        for mode in modes() {
            run_all_engines(
                CacheGeometry::xeon_e5_2660(),
                mode,
                ReplacementPolicy::Lru,
                &rounds,
                17,
            );
        }
    }

    /// Short streams on the paper geometry stay below the sharding
    /// threshold, so the batch engine is the inline `run_ops` walk with
    /// its prefetch lookahead (8 ops ahead), on the geometry whose rows
    /// it hints. The lengths straddle the lookahead distance — a stream
    /// shorter than it never prefetches, one just past it prefetches
    /// once — and random lengths sweep the rest of the inline range, in
    /// every mode × policy (`TreePlru` and `Random` keep no stamp
    /// array, so the hint must skip it).
    #[test]
    fn inline_replay_agrees_on_the_paper_geometry(
        seed in 0u64..u64::MAX,
        io_pct in 0u32..60,
        skew_pct in 0u32..100,
        long in 10usize..4096,
    ) {
        for mode in modes() {
            for policy in policies() {
                let rounds: Vec<Vec<CacheOp>> = [1usize, 7, 8, 9, long]
                    .iter()
                    .enumerate()
                    .map(|(k, &len)| fuzz_stream(seed ^ k as u64, len, io_pct, skew_pct))
                    .collect();
                run_all_engines(CacheGeometry::xeon_e5_2660(), mode, policy, &rounds, 5);
            }
        }
    }

    /// Packed-vs-unpacked round trip: every op pushed through the
    /// 8-byte [`OpBuffer`] encoding decodes back to itself modulo line
    /// quantization. Leads are drawn to straddle the inline/escape
    /// boundary (0..=14 inline, 15.. escaped) so both encodings and the
    /// escape cursor's ordering are fuzz-pinned, not just unit-tested.
    #[test]
    fn packed_ops_round_trip_through_the_buffer(
        seed in 0u64..u64::MAX,
        len in 1usize..3000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut buf = OpBuffer::new();
        let mut want = Vec::with_capacity(len);
        for _ in 0..len {
            let addr = PhysAddr::new(rng.gen::<u64>() >> rng.gen_range(0..32));
            let kind = match rng.gen_range(0..4u32) {
                0 => AccessKind::CpuRead,
                1 => AccessKind::CpuWrite,
                2 => AccessKind::IoWrite,
                _ => AccessKind::IoRead,
            };
            // Half the draws hug the escape threshold (lead 15), the
            // rest sweep the full magnitude range.
            let lead = if rng.gen_bool(0.5) {
                rng.gen_range(0..31u64)
            } else {
                rng.gen::<u64>() >> rng.gen_range(0..64)
            };
            let op = CacheOp::new(addr, kind).after(lead);
            want.push(CacheOp { addr: addr.line_base(), ..op });
            buf.op(op);
        }
        let got: Vec<CacheOp> = buf.iter().collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(buf.len(), len);
    }
}

/// Empty streams and lead-only buffers: the degenerate windows the
/// burst paths can produce.
#[test]
fn degenerate_streams_are_identical() {
    for mode in modes() {
        let mut batch = hierarchy(CacheGeometry::tiny(), mode, ReplacementPolicy::Lru);
        let mut oracle = hierarchy(CacheGeometry::tiny(), mode, ReplacementPolicy::Lru);
        let mut buf = OpBuffer::new();
        buf.advance(123); // trailing advance, no ops at all
        let sum = batch.run_ops(&buf);
        assert_eq!(sum.accesses, 0);
        assert_eq!(sum.cycles, 123);
        oracle.advance(123);
        assert_identical(&batch, &oracle, &[], "lead-only buffer");
    }
}
