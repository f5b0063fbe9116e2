//! Seeded single-point fault injection: the invariant catalog made
//! executable.
//!
//! The reproduction's determinism story rests on differential suites —
//! op-fuzz rounds, driver batch equivalence, test-bed engine
//! equivalence, scenario goldens — that compare independent engines
//! byte for byte. A suite that has never caught a divergence proves
//! nothing; this module gives it something to catch. Each
//! [`FaultSite`] names one single-point mutation of one engine (an
//! off-by-one, a dropped flush, a skipped update), armed globally via
//! [`arm`] or the `PC_FAULT` environment variable and consulted by a
//! hook at the mutation site. The kill-matrix harness
//! (`repro fault-matrix`, `fault_kill` tests) arms every site in turn
//! and asserts at least one suite kills each mutant.
//!
//! ## Arming rules
//!
//! * At most one site is armed at a time, process-globally.
//! * The hot-path predicates ([`fires`], [`fires_keyed`]) check a
//!   single relaxed atomic first; when nothing is armed they cost one
//!   load and a predictable branch — the negative-control suites pin
//!   that arming hooks perturb nothing.
//! * Every site mutates exactly **one** engine, so the differential
//!   suites always have a clean engine to differ against. Sites whose
//!   hook sits in substrate shared by several engines (the shard hit
//!   path, the deferred-read queue) additionally require an
//!   [`Engine`] context tag, set by the engine driver via
//!   [`engine_scope`]; without the matching tag the site never fires.
//! * Firing is deterministic. *Counter* sites fire exactly once, on
//!   the `nth` consultation after arming (`nth` derived from the
//!   fault seed when not given). *Keyed* sites fire as a pure
//!   function of the consulted key — `mix_seed(seed, key) % m == 0` —
//!   so parallel engines fire identically under any thread schedule.
//!
//! ## Adding a site
//!
//! When a new engine joins an equivalence class, give it a site here:
//! add a variant, extend [`FaultSite::ALL`] and the `match` tables
//! (name, kind, engine, description), hook the mutation into the new
//! engine behind [`fires`]/[`fires_keyed`], and add the site to the
//! kill harness — the matrix then proves the suites notice when that
//! engine, and only that engine, misbehaves.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Which replay engine a fault mutates (and therefore which context
/// tag its hook requires when the hook sits in shared substrate).
///
/// The per-access oracle deliberately has no variant: it is the clean
/// reference every differential suite compares against, so no catalog
/// site ever mutates it.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Engine {
    /// The batched replay paths (`run_ops`, `run_trace_threads`, the
    /// slice-sharded dispatcher and the buffered short loop).
    Batch,
    /// The streaming [`crate::OpApplier`].
    Streaming,
    /// The test bed's windowed (burst) receive engine.
    WindowedRx,
}

/// How a site decides to fire (see the module-level arming rules).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum FiringKind {
    /// Fires exactly once, on the `nth` consultation after arming.
    Counter,
    /// Fires whenever `mix_seed(seed, key) % modulus == 0` — a pure
    /// function of the consulted key, schedule-independent.
    Keyed,
}

/// The catalog of single-point mutations. Each variant names one
/// injection site in one engine; the doc comment on each is the
/// invariant the site falsifies.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum FaultSite {
    /// `CacheStats::merge` adds one extra CPU hit — the per-slice
    /// shard totals no longer sum to what a shared counter set would
    /// have seen. Counter-fired at the aggregation layer (merged
    /// [`crate::SlicedCache::stats`]), so only merged totals lie;
    /// per-slice stats stay truthful.
    StatOffByOne,
    /// [`crate::OpApplier`]'s drop skips flushing its accumulated
    /// clock/memory deltas — the streaming engine silently loses its
    /// tail. Counter-fired, streaming engine only.
    DroppedFlush,
    /// The shard hit path skips the LRU touch for keyed tags — batch
    /// replay ages lines the oracle refreshes, so eviction order
    /// drifts. Keyed on the line tag; requires the [`Engine::Batch`]
    /// context tag (the hook sits in the shared shard substrate).
    StaleLru,
    /// The slice-sharded dispatcher bins keyed addresses into the
    /// neighbouring slice — the undocumented hash and the shard
    /// partition disagree. Keyed on the raw address; lexically
    /// batch-only (the binning loop exists nowhere else).
    SwappedSliceBin,
    /// [`crate::OpBuffer`] skews keyed ops' leads by +13 cycles — the
    /// buffered batch's clock walks away from the per-access oracle's.
    /// Keyed on the raw address; buffered producers only.
    CorruptedLead,
    /// The deferred-read queue drops one due payload read instead of
    /// executing it — the windowed engine loses a memory access the
    /// per-frame engine performs. Counter-fired; requires the
    /// [`Engine::WindowedRx`] context tag.
    DroppedDeferredRead,
    /// A shard skips one adaptive-defense period evaluation — the
    /// streaming engine's defense clock crosses a boundary without
    /// re-evaluating. Keyed on the shard's defense clock; requires
    /// the [`Engine::Streaming`] context tag.
    SkippedDefenseEval,
    /// The burst window collector elides the cut it must make while
    /// deferred reads are pending, fusing later frames into the
    /// current window — pending payload reads then replay after
    /// traffic they should precede. Counter-fired, windowed engine
    /// only.
    BurstFlushElision,
    /// The adaptive defense's incremental bookkeeping stamps a keyed
    /// set's dirty epoch without pushing it onto the dirty worklist —
    /// the set silently skips its period evaluation while later writes
    /// think it is queued. Keyed on the slice-local set index; requires
    /// the [`Engine::Batch`] context tag (the hook sits in the shared
    /// shard substrate).
    StaleDirtySet,
    /// A shard's period evaluation skips the epoch bump that retires
    /// last period's dirty stamps — sets touched last period falsely
    /// appear already-queued, so their next I/O write never re-enters
    /// them into the worklist. Keyed on the shard's defense clock;
    /// requires the [`Engine::Streaming`] context tag.
    SkippedEpochBump,
    /// The packed 8-byte `CacheOp` decode truncates a keyed escaped
    /// lead to the largest inline value — the buffered batch's clock
    /// falls short of the per-access oracle's. Keyed on the packed op
    /// word; lexically buffered-decode-only (streaming and oracle
    /// engines never decode).
    TruncatedLead,
    /// The segmented replay swaps keyed neighbouring segments' cycle
    /// subtotals — totals (and the final clock) stay right, but a
    /// consumer reconstructing per-segment clocks (the fused window's
    /// gap max, deferred-read dues) reads the wrong boundary. Keyed on
    /// the segment index; lexically segmented-replay-only.
    SwappedSegmentSubtotal,
    /// The fused receive path files a keyed deferred payload read under
    /// the *previous* segment's index — its due time reconstructs from
    /// the wrong segment base, so the read replays earlier than the
    /// per-frame engine performs it. Keyed on the deferral's segment
    /// index; lexically fused-receive-only.
    StaleDeferredSegmentIndex,
    /// The monitor's fused cross-epoch sample inverts a keyed target's
    /// classification (misses become `accesses - misses`) — the fused
    /// batch aggregate disagrees with the per-target probe walk it
    /// summarizes. Keyed on the target index; lexically
    /// fused-sample-only.
    CrossEpochMisclassify,
    /// The RSS steer routes a keyed flow to the *next* queue index —
    /// frames land in the wrong ring, so per-queue ring order, page
    /// placement and RNG streams all diverge from the steering
    /// contract. Keyed on the flow tuple's digest; lexically
    /// steer-only (`pc-nic`'s `rss.rs`), and inert at queue count 1
    /// (`(q+1) % 1 == q`), so armed single-queue runs stay byte-exact.
    SwappedQueueSteer,
    /// The attacker pool's eviction-set memo serves a keyed target's
    /// hit with the neighbouring slice's set (when that set is
    /// memoized) — memoized sets drift from the memo-free oracle walk.
    /// Keyed on the target's `(set, slice)`; lexically memo-lookup-only
    /// (`pc-probe`'s `pool.rs`), and a fill never fires, so only hits
    /// are mutated.
    StaleEvictionMemo,
}

impl FaultSite {
    /// Every catalog entry, in matrix order.
    pub const ALL: [FaultSite; 16] = [
        FaultSite::StatOffByOne,
        FaultSite::DroppedFlush,
        FaultSite::StaleLru,
        FaultSite::SwappedSliceBin,
        FaultSite::CorruptedLead,
        FaultSite::DroppedDeferredRead,
        FaultSite::SkippedDefenseEval,
        FaultSite::BurstFlushElision,
        FaultSite::StaleDirtySet,
        FaultSite::SkippedEpochBump,
        FaultSite::TruncatedLead,
        FaultSite::SwappedSegmentSubtotal,
        FaultSite::StaleDeferredSegmentIndex,
        FaultSite::CrossEpochMisclassify,
        FaultSite::SwappedQueueSteer,
        FaultSite::StaleEvictionMemo,
    ];

    /// The site's kebab-case name (the `PC_FAULT` spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::StatOffByOne => "stat-off-by-one",
            FaultSite::DroppedFlush => "dropped-flush",
            FaultSite::StaleLru => "stale-lru",
            FaultSite::SwappedSliceBin => "swapped-slice-bin",
            FaultSite::CorruptedLead => "corrupted-lead",
            FaultSite::DroppedDeferredRead => "dropped-deferred-read",
            FaultSite::SkippedDefenseEval => "skipped-defense-eval",
            FaultSite::BurstFlushElision => "burst-flush-elision",
            FaultSite::StaleDirtySet => "stale-dirty-set",
            FaultSite::SkippedEpochBump => "skipped-epoch-bump",
            FaultSite::TruncatedLead => "truncated-lead",
            FaultSite::SwappedSegmentSubtotal => "swapped-segment-subtotal",
            FaultSite::StaleDeferredSegmentIndex => "stale-deferred-segment-index",
            FaultSite::CrossEpochMisclassify => "cross-epoch-misclassify",
            FaultSite::SwappedQueueSteer => "swapped-queue-steer",
            FaultSite::StaleEvictionMemo => "stale-eviction-memo",
        }
    }

    /// Parses a kebab-case site name.
    pub fn parse(s: &str) -> Result<FaultSite, String> {
        FaultSite::ALL
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown fault site `{s}`; known sites: {}",
                    names.join(", ")
                )
            })
    }

    /// How the site fires (see [`FiringKind`]).
    pub fn kind(self) -> FiringKind {
        match self {
            FaultSite::StatOffByOne
            | FaultSite::DroppedFlush
            | FaultSite::DroppedDeferredRead
            | FaultSite::BurstFlushElision => FiringKind::Counter,
            FaultSite::StaleLru
            | FaultSite::SwappedSliceBin
            | FaultSite::CorruptedLead
            | FaultSite::SkippedDefenseEval
            | FaultSite::StaleDirtySet
            | FaultSite::SkippedEpochBump
            | FaultSite::TruncatedLead
            | FaultSite::SwappedSegmentSubtotal
            | FaultSite::StaleDeferredSegmentIndex
            | FaultSite::CrossEpochMisclassify
            | FaultSite::SwappedQueueSteer
            | FaultSite::StaleEvictionMemo => FiringKind::Keyed,
        }
    }

    /// The engine-context tag the site's hook requires, for hooks in
    /// substrate shared by several engines. `None` means the hook's
    /// location is already unique to one engine.
    pub fn required_engine(self) -> Option<Engine> {
        match self {
            FaultSite::StaleLru | FaultSite::StaleDirtySet => Some(Engine::Batch),
            FaultSite::SkippedDefenseEval | FaultSite::SkippedEpochBump => Some(Engine::Streaming),
            FaultSite::DroppedDeferredRead => Some(Engine::WindowedRx),
            _ => None,
        }
    }

    /// One-line description of the mutation, for the kill-matrix
    /// report and docs.
    pub fn description(self) -> &'static str {
        match self {
            FaultSite::StatOffByOne => "stats merge adds one extra CPU hit",
            FaultSite::DroppedFlush => "streaming applier drop loses its flush",
            FaultSite::StaleLru => "batch shard hit skips the LRU touch",
            FaultSite::SwappedSliceBin => "sharded dispatch bins into the wrong slice",
            FaultSite::CorruptedLead => "buffered op lead skewed by +13 cycles",
            FaultSite::DroppedDeferredRead => "windowed rx drops one due payload read",
            FaultSite::SkippedDefenseEval => "streaming shard skips a defense evaluation",
            FaultSite::BurstFlushElision => "window collector elides the deferred-pending cut",
            FaultSite::StaleDirtySet => "batch shard stamps a set dirty without queueing it",
            FaultSite::SkippedEpochBump => "streaming shard keeps last period's dirty stamps live",
            FaultSite::TruncatedLead => "packed op decode truncates an escaped lead",
            FaultSite::SwappedSegmentSubtotal => {
                "segmented replay swaps neighbouring segment subtotals"
            }
            FaultSite::StaleDeferredSegmentIndex => {
                "fused receive files a deferred read under the previous segment"
            }
            FaultSite::CrossEpochMisclassify => {
                "fused monitor sample inverts one target's classification"
            }
            FaultSite::SwappedQueueSteer => "RSS steer routes a flow to the next queue",
            FaultSite::StaleEvictionMemo => "eviction-set memo hit serves the next slice's set",
        }
    }

    fn index(self) -> u64 {
        FaultSite::ALL.iter().position(|&s| s == self).unwrap() as u64
    }
}

/// A parsed, armable fault: which site, which seed, and (optionally)
/// an explicit firing parameter — the consultation index for counter
/// sites, the key modulus for keyed sites. When `nth` is `None` the
/// parameter is derived from the seed, so `site:seed` alone already
/// names a concrete mutant.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct FaultSpec {
    /// The catalog entry to mutate.
    pub site: FaultSite,
    /// Seed for the firing decision (trigger derivation / key hash).
    pub seed: u64,
    /// Explicit firing parameter; derived from the seed when absent.
    pub nth: Option<u64>,
}

impl FaultSpec {
    /// Parses `<site>:<seed>[:<nth>]` (the `PC_FAULT` format),
    /// rejecting anything malformed with a message naming the problem.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut parts = s.split(':');
        let site = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| "empty fault spec; expected <site>:<seed>[:<nth>]".to_string())?;
        let site = FaultSite::parse(site)?;
        let seed = parts.next().ok_or_else(|| {
            format!("fault spec `{s}` is missing a seed; expected <site>:<seed>[:<nth>]")
        })?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("fault seed `{seed}` is not a non-negative integer"))?;
        let nth = match parts.next() {
            None => None,
            Some(n) => Some(
                n.parse::<u64>()
                    .map_err(|_| format!("fault nth `{n}` is not a non-negative integer"))?,
            ),
        };
        if let Some(extra) = parts.next() {
            return Err(format!(
                "fault spec `{s}` has trailing field `{extra}`; expected <site>:<seed>[:<nth>]"
            ));
        }
        Ok(FaultSpec { site, seed, nth })
    }

    /// The resolved firing parameter: the explicit `nth` (clamped to
    /// at least 1), else derived from the seed — counter sites fire on
    /// consultation 1..=4, keyed sites use a modulus in 5..=13.
    pub fn resolved_param(&self) -> u64 {
        match self.nth {
            Some(n) => n.max(1),
            None => match self.site.kind() {
                FiringKind::Counter => {
                    1 + pc_par::mix_seed(self.seed, 0xFA_0100 + self.site.index()) % 4
                }
                FiringKind::Keyed => {
                    5 + pc_par::mix_seed(self.seed, 0xFA_0200 + self.site.index()) % 9
                }
            },
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.site.name(), self.seed)?;
        if let Some(n) = self.nth {
            write!(f, ":{n}")?;
        }
        Ok(())
    }
}

// The armed fault, split for the hot path: ARMED is the only load a
// disarmed process ever pays; the rest is read behind it. SPEC mirrors
// the same state for introspection (current()).
static ARMED: AtomicBool = AtomicBool::new(false);
static SITE: AtomicU8 = AtomicU8::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);
static PARAM: AtomicU64 = AtomicU64::new(0);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static SPEC: Mutex<Option<FaultSpec>> = Mutex::new(None);

fn spec_slot() -> std::sync::MutexGuard<'static, Option<FaultSpec>> {
    // The slot only holds a Copy spec; a poisoned lock (a test that
    // panicked mid-arm) can't leave it inconsistent.
    SPEC.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms `spec`, replacing any previously armed fault and resetting the
/// consultation counter (so counter sites fire freshly per arming).
pub fn arm(spec: FaultSpec) {
    let mut slot = spec_slot();
    ARMED.store(false, Ordering::SeqCst);
    SITE.store(spec.site.index() as u8 + 1, Ordering::SeqCst);
    SEED.store(spec.seed, Ordering::SeqCst);
    PARAM.store(spec.resolved_param(), Ordering::SeqCst);
    EVENTS.store(0, Ordering::SeqCst);
    *slot = Some(spec);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms whatever fault is armed (a no-op when none is).
pub fn disarm() {
    let mut slot = spec_slot();
    ARMED.store(false, Ordering::SeqCst);
    SITE.store(0, Ordering::SeqCst);
    *slot = None;
}

/// The currently armed fault, if any.
pub fn current() -> Option<FaultSpec> {
    *spec_slot()
}

/// How many times the armed site's predicate has been consulted since
/// arming (counter sites only; keyed sites don't count). Harness
/// diagnostics: a mutant that "survived" with zero consultations was
/// never reached, which is a harness bug, not a suite gap.
pub fn consultations() -> u64 {
    EVENTS.load(Ordering::SeqCst)
}

/// Arms from the `PC_FAULT` environment variable if set, returning the
/// armed spec (`Ok(None)` when unset). A malformed value — non-UTF-8
/// included — is an `Err` with a one-line `PC_FAULT: …` message and
/// arms nothing; callers must not carry on, since a fault that
/// silently fails to arm would fake a surviving mutant.
pub fn arm_from_env() -> Result<Option<FaultSpec>, String> {
    let Some(v) = std::env::var_os("PC_FAULT") else {
        return Ok(None);
    };
    let spec = FaultSpec::parse(&v.to_string_lossy()).map_err(|e| format!("PC_FAULT: {e}"))?;
    arm(spec);
    Ok(Some(spec))
}

/// Guard for golden refreshes: `Err` when a fault is armed (in-process
/// or via `PC_FAULT`), so `PC_BLESS=1` refuses to bless mutated
/// snapshots.
pub fn bless_guard() -> Result<(), String> {
    if let Some(spec) = current() {
        return Err(format!(
            "refusing to bless goldens while fault `{spec}` is armed"
        ));
    }
    if let Some(v) = std::env::var_os("PC_FAULT") {
        return Err(format!(
            "refusing to bless goldens while PC_FAULT={} is set",
            v.to_string_lossy()
        ));
    }
    Ok(())
}

thread_local! {
    static ENGINE_CTX: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// RAII guard that tags the current thread as running inside `engine`
/// (see [`engine_scope`]); restores the previous tag on drop.
#[derive(Debug)]
pub struct EngineScope {
    prev: u8,
    active: bool,
}

impl Drop for EngineScope {
    fn drop(&mut self) {
        if self.active {
            ENGINE_CTX.set(self.prev);
        }
    }
}

/// Tags the current thread as running inside `engine` until the
/// returned guard drops. Engine drivers whose replay shares substrate
/// with other engines set this so shared-path sites can target one
/// engine; when no fault is armed the guard is inert (one atomic
/// load, no TLS write).
pub fn engine_scope(engine: Engine) -> EngineScope {
    if !ARMED.load(Ordering::Relaxed) {
        return EngineScope {
            prev: 0,
            active: false,
        };
    }
    let tag = engine as u8 + 1;
    let prev = ENGINE_CTX.replace(tag);
    EngineScope { prev, active: true }
}

fn engine_ctx_matches(required: Engine) -> bool {
    ENGINE_CTX.get() == required as u8 + 1
}

/// Hot-path predicate for counter sites: `true` exactly when `site` is
/// armed, its engine context (if any) is active, and this is the
/// resolved `nth` consultation since arming. One relaxed load when
/// nothing is armed.
#[inline]
pub fn fires(site: FaultSite) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    fires_slow(site, None)
}

/// Hot-path predicate for keyed sites: `true` exactly when `site` is
/// armed, its engine context (if any) is active, and
/// `mix_seed(seed, key)` lands on the resolved modulus — a pure
/// function of `key`, schedule-independent. One relaxed load when
/// nothing is armed.
#[inline]
pub fn fires_keyed(site: FaultSite, key: u64) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    fires_slow(site, Some(key))
}

#[cold]
fn fires_slow(site: FaultSite, key: Option<u64>) -> bool {
    if SITE.load(Ordering::Relaxed) != site.index() as u8 + 1 {
        return false;
    }
    if let Some(required) = site.required_engine() {
        if !engine_ctx_matches(required) {
            return false;
        }
    }
    match key {
        Some(k) => {
            let m = PARAM.load(Ordering::Relaxed).max(1);
            pc_par::mix_seed(SEED.load(Ordering::Relaxed), k).is_multiple_of(m)
        }
        None => EVENTS.fetch_add(1, Ordering::Relaxed) + 1 == PARAM.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fault state is process-global; every test that arms must
    // hold this lock so libtest's parallel runner can't interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parser_accepts_site_seed_and_optional_nth() {
        let spec = FaultSpec::parse("stale-lru:7").unwrap();
        assert_eq!(spec.site, FaultSite::StaleLru);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.nth, None);
        let spec = FaultSpec::parse("dropped-flush:0:3").unwrap();
        assert_eq!(spec.site, FaultSite::DroppedFlush);
        assert_eq!(spec.nth, Some(3));
        assert_eq!(spec.to_string(), "dropped-flush:0:3");
    }

    #[test]
    fn parser_rejects_malformed_specs_with_clear_errors() {
        let unknown = FaultSpec::parse("no-such-site:1").unwrap_err();
        assert!(unknown.contains("unknown fault site `no-such-site`"));
        assert!(
            unknown.contains("stat-off-by-one"),
            "error lists the catalog: {unknown}"
        );
        assert!(FaultSpec::parse("")
            .unwrap_err()
            .contains("empty fault spec"));
        assert!(FaultSpec::parse("stale-lru")
            .unwrap_err()
            .contains("missing a seed"));
        assert!(FaultSpec::parse("stale-lru:x")
            .unwrap_err()
            .contains("not a non-negative integer"));
        assert!(FaultSpec::parse("stale-lru:1:y")
            .unwrap_err()
            .contains("not a non-negative integer"));
        assert!(FaultSpec::parse("stale-lru:1:2:3")
            .unwrap_err()
            .contains("trailing field"));
    }

    #[test]
    fn every_site_name_round_trips_through_the_parser() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()).unwrap(), site);
            let spec = FaultSpec::parse(&format!("{}:42", site.name())).unwrap();
            assert_eq!(spec.site, site);
        }
    }

    #[test]
    fn counter_sites_fire_exactly_once_on_the_nth_consultation() {
        let _g = serialized();
        arm(FaultSpec {
            site: FaultSite::DroppedFlush,
            seed: 0,
            nth: Some(3),
        });
        let fired: Vec<bool> = (0..6).map(|_| fires(FaultSite::DroppedFlush)).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(consultations(), 6);
        // Re-arming resets the one-shot.
        arm(FaultSpec {
            site: FaultSite::DroppedFlush,
            seed: 0,
            nth: Some(1),
        });
        assert!(fires(FaultSite::DroppedFlush));
        disarm();
        assert!(!fires(FaultSite::DroppedFlush));
    }

    #[test]
    fn keyed_sites_are_pure_in_the_key_and_respect_the_armed_site() {
        let _g = serialized();
        arm(FaultSpec {
            site: FaultSite::CorruptedLead,
            seed: 11,
            nth: Some(5),
        });
        let hits: Vec<u64> = (0..200u64)
            .filter(|&k| fires_keyed(FaultSite::CorruptedLead, k))
            .collect();
        assert!(!hits.is_empty(), "a 1-in-5 keyed site hits within 200 keys");
        for &k in &hits {
            assert!(fires_keyed(FaultSite::CorruptedLead, k), "pure in key");
        }
        // A different (un-armed) site never fires.
        assert!((0..200u64).all(|k| !fires_keyed(FaultSite::SwappedSliceBin, k)));
        disarm();
    }

    #[test]
    fn context_gated_sites_need_their_engine_scope() {
        let _g = serialized();
        arm(FaultSpec {
            site: FaultSite::StaleLru,
            seed: 3,
            nth: Some(1), // modulus 1: fires on every key, context permitting
        });
        assert!(!fires_keyed(FaultSite::StaleLru, 0), "no scope, no fire");
        {
            let _scope = engine_scope(Engine::Streaming);
            assert!(!fires_keyed(FaultSite::StaleLru, 0), "wrong engine");
            {
                let _inner = engine_scope(Engine::Batch);
                assert!(fires_keyed(FaultSite::StaleLru, 0));
            }
            assert!(
                !fires_keyed(FaultSite::StaleLru, 0),
                "inner scope restored the outer tag"
            );
        }
        disarm();
    }

    #[test]
    fn seed_derived_params_are_in_range_and_seed_dependent() {
        for site in FaultSite::ALL {
            let mut params = std::collections::BTreeSet::new();
            for seed in 0..32 {
                let p = FaultSpec {
                    site,
                    seed,
                    nth: None,
                }
                .resolved_param();
                match site.kind() {
                    FiringKind::Counter => assert!((1..=4).contains(&p), "{site:?} {p}"),
                    FiringKind::Keyed => assert!((5..=13).contains(&p), "{site:?} {p}"),
                }
                params.insert(p);
            }
            assert!(params.len() > 1, "{site:?}: params vary with the seed");
        }
    }

    #[test]
    fn bless_guard_rejects_an_armed_fault() {
        let _g = serialized();
        assert!(bless_guard().is_ok());
        arm(FaultSpec {
            site: FaultSite::StatOffByOne,
            seed: 1,
            nth: None,
        });
        let err = bless_guard().unwrap_err();
        assert!(
            err.contains("refusing to bless") && err.contains("stat-off-by-one:1"),
            "{err}"
        );
        disarm();
        assert!(bless_guard().is_ok());
    }
}
