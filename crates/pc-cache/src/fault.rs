//! Seeded single-point fault injection: the invariant catalog made
//! executable.
//!
//! The reproduction's determinism story rests on differential suites —
//! the LLC against its independent [`crate::reference::ReferenceCache`],
//! op-fuzz rounds, driver batch equivalence, the test bed against its
//! per-access reference, scenario goldens — that compare independent engines
//! byte for byte. A suite that has never caught a divergence proves
//! nothing; this module gives it something to catch. Each
//! [`FaultSite`] names one single-point mutation of one engine (an
//! off-by-one, a dropped flush, a skipped update), armed globally via
//! [`arm`] (`repro` arms the `PC_FAULT` spec it parses with
//! [`FaultSpec::parse`]) and consulted by a
//! hook at the mutation site. The kill-matrix harness (pc-bench's
//! `faultmatrix`, behind `repro fault-matrix` and the `fault_kill*`
//! tests) arms every site in turn and asserts at least one suite kills
//! each mutant.
//!
//! ## Arming rules
//!
//! * At most one site is armed at a time, process-globally.
//! * The hot-path predicates ([`fires`], [`fires_keyed`]) check a
//!   single relaxed atomic first; when nothing is armed they cost one
//!   load and a predictable branch — the negative-control suites pin
//!   that arming hooks perturb nothing.
//! * A site fires wherever its hook's code runs, as a real defect
//!   would. Most hooks sit in code unique to one engine, so the
//!   differential suites have a clean engine to differ against. The
//!   four shard-substrate sites (`stale-lru`, `skipped-defense-eval`,
//!   `stale-dirty-set`, `skipped-epoch-bump`) mutate the fast path and
//!   the per-access oracle alike; only a model that shares none of the
//!   shard's code, [`crate::reference::ReferenceCache`], can out-vote
//!   them. `dropped-deferred-read` hooks a queue both receive paths
//!   share, but its counter fires once per arming, so of two paths
//!   driven in lockstep exactly one is mutated.
//! * Firing is deterministic. *Counter* sites fire exactly once, on
//!   the `nth` consultation after arming (`nth` derived from the
//!   fault seed when not given). *Keyed* sites fire as a pure
//!   function of the consulted key — `mix_seed(seed, key) % m == 0` —
//!   so a keyed site mutates the same keys in every run, whatever the
//!   experiment-level thread count.
//! * Every firing of either kind is counted ([`firings`]), so the kill
//!   matrix can tell a mutant no suite noticed from one that never
//!   happened.
//!
//! ## Adding a site
//!
//! When a new engine joins an equivalence class, give it a site here:
//! add a variant, extend [`FaultSite::ALL`] and the `match` tables
//! (name, kind, salt), hook the mutation into the new engine behind
//! [`fires`]/[`fires_keyed`], and make sure a kill-harness suite
//! compares that engine with a model that does not share the hooked
//! code — the matrix then proves the suites notice when it
//! misbehaves.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

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
    /// clock/memory deltas — the streaming applier silently loses its
    /// tail. Counter-fired, applier only.
    DroppedFlush,
    /// The shard hit path skips the LRU touch for keyed tags — the LLC
    /// ages lines the reference model refreshes, so eviction order
    /// drifts. Keyed on the line tag; the hook sits in the shard
    /// substrate every engine shares.
    StaleLru,
    /// [`crate::OpBuffer`] skews keyed ops' leads by +13 cycles — the
    /// buffered batch's clock walks away from the per-access oracle's.
    /// Keyed on the raw address; buffered producers only.
    CorruptedLead,
    /// The deferred-read queue drops one due payload read instead of
    /// executing it — the receive path loses a memory access the
    /// per-access reference performs. Counter-fired, so it fires once
    /// per arming: of a bed and a reference driven in lockstep, exactly
    /// one loses the read.
    DroppedDeferredRead,
    /// A shard skips one adaptive-defense period evaluation — the
    /// shard's defense clock crosses a boundary without re-evaluating.
    /// Keyed on the shard's defense clock; shard substrate.
    SkippedDefenseEval,
    /// The adaptive defense's incremental bookkeeping stamps a keyed
    /// set's dirty epoch without pushing it onto the dirty worklist —
    /// the set silently skips its period evaluation while later writes
    /// think it is queued. Keyed on the slice-local set index; shard
    /// substrate.
    StaleDirtySet,
    /// A shard's period evaluation skips the epoch bump that retires
    /// last period's dirty stamps — sets touched last period falsely
    /// appear already-queued, so their next I/O write never re-enters
    /// them into the worklist. Keyed on the shard's dirty epoch; shard
    /// substrate.
    SkippedEpochBump,
    /// The RSS steer routes a keyed flow to the *next* queue index —
    /// frames land in the wrong ring, so per-queue ring order, page
    /// placement and driver RNG streams all diverge from the steering
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
    pub const ALL: [FaultSite; 10] = [
        FaultSite::StatOffByOne,
        FaultSite::DroppedFlush,
        FaultSite::StaleLru,
        FaultSite::CorruptedLead,
        FaultSite::DroppedDeferredRead,
        FaultSite::SkippedDefenseEval,
        FaultSite::StaleDirtySet,
        FaultSite::SkippedEpochBump,
        FaultSite::SwappedQueueSteer,
        FaultSite::StaleEvictionMemo,
    ];

    /// The site's kebab-case name (the `PC_FAULT` spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::StatOffByOne => "stat-off-by-one",
            FaultSite::DroppedFlush => "dropped-flush",
            FaultSite::StaleLru => "stale-lru",
            FaultSite::CorruptedLead => "corrupted-lead",
            FaultSite::DroppedDeferredRead => "dropped-deferred-read",
            FaultSite::SkippedDefenseEval => "skipped-defense-eval",
            FaultSite::StaleDirtySet => "stale-dirty-set",
            FaultSite::SkippedEpochBump => "skipped-epoch-bump",
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
            FaultSite::StatOffByOne | FaultSite::DroppedFlush | FaultSite::DroppedDeferredRead => {
                FiringKind::Counter
            }
            FaultSite::StaleLru
            | FaultSite::CorruptedLead
            | FaultSite::SkippedDefenseEval
            | FaultSite::StaleDirtySet
            | FaultSite::SkippedEpochBump
            | FaultSite::SwappedQueueSteer
            | FaultSite::StaleEvictionMemo => FiringKind::Keyed,
        }
    }

    /// Position in [`FaultSite::ALL`]: the armed-site encoding.
    fn index(self) -> u64 {
        FaultSite::ALL.iter().position(|&s| s == self).unwrap() as u64
    }

    /// Per-site salt of the seed-derived firing parameter. Frozen, not
    /// positional: retiring a catalog entry shifts [`FaultSite::index`],
    /// and a positional salt would silently turn every later site's
    /// `site:seed` into a different mutant. A new site takes a salt no
    /// other site has used (retired: 3, 7, 10, 11, 12 and 13).
    fn param_salt(self) -> u64 {
        match self {
            FaultSite::StatOffByOne => 0,
            FaultSite::DroppedFlush => 1,
            FaultSite::StaleLru => 2,
            FaultSite::CorruptedLead => 4,
            FaultSite::DroppedDeferredRead => 5,
            FaultSite::SkippedDefenseEval => 6,
            FaultSite::StaleDirtySet => 8,
            FaultSite::SkippedEpochBump => 9,
            FaultSite::SwappedQueueSteer => 14,
            FaultSite::StaleEvictionMemo => 15,
        }
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
                    1 + pc_par::mix_seed(self.seed, 0xFA_0100 + self.site.param_salt()) % 4
                }
                FiringKind::Keyed => {
                    5 + pc_par::mix_seed(self.seed, 0xFA_0200 + self.site.param_salt()) % 9
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
static FIRINGS: AtomicU64 = AtomicU64::new(0);
static SPEC: Mutex<Option<FaultSpec>> = Mutex::new(None);

fn spec_slot() -> std::sync::MutexGuard<'static, Option<FaultSpec>> {
    // The slot only holds a Copy spec; a poisoned lock (a test that
    // panicked mid-arm) can't leave it inconsistent.
    SPEC.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms `spec`, replacing any previously armed fault and resetting the
/// consultation and firing counters (so counter sites fire freshly per
/// arming).
pub fn arm(spec: FaultSpec) {
    let mut slot = spec_slot();
    ARMED.store(false, Ordering::SeqCst);
    SITE.store(spec.site.index() as u8 + 1, Ordering::SeqCst);
    SEED.store(spec.seed, Ordering::SeqCst);
    PARAM.store(spec.resolved_param(), Ordering::SeqCst);
    EVENTS.store(0, Ordering::SeqCst);
    FIRINGS.store(0, Ordering::SeqCst);
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

/// How many times the armed site has fired since arming, counter and
/// keyed sites alike. Harness diagnostics: a mutant that "survived"
/// with zero firings was *inert* — a counter site consulted fewer than
/// `nth` times, or a keyed site whose `mix_seed(seed, key) % m` hit no
/// consulted key — so no suite could have seen it: a harness or
/// key-space gap, not a suite gap.
pub fn firings() -> u64 {
    FIRINGS.load(Ordering::SeqCst)
}

/// Guard for golden refreshes: `Err` when a fault is armed, so
/// `PC_BLESS=1` refuses to bless mutated snapshots.
pub fn bless_guard() -> Result<(), String> {
    match current() {
        Some(spec) => Err(format!(
            "refusing to bless goldens while fault `{spec}` is armed"
        )),
        None => Ok(()),
    }
}

/// Hot-path predicate for counter sites: `true` exactly when `site` is
/// armed and this is the resolved `nth` consultation since arming. One relaxed load when
/// nothing is armed.
#[inline]
pub fn fires(site: FaultSite) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    fires_slow(site, None)
}

/// Hot-path predicate for keyed sites: `true` exactly when `site` is
/// armed and `mix_seed(seed, key)` lands on the resolved modulus — a pure
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
    let fired = match key {
        Some(k) => {
            let m = PARAM.load(Ordering::Relaxed).max(1);
            pc_par::mix_seed(SEED.load(Ordering::Relaxed), k).is_multiple_of(m)
        }
        None => EVENTS.fetch_add(1, Ordering::Relaxed) + 1 == PARAM.load(Ordering::Relaxed),
    };
    if fired {
        FIRINGS.fetch_add(1, Ordering::Relaxed);
    }
    fired
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
        assert_eq!(firings(), 1);
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
        assert!((0..200u64).all(|k| !fires_keyed(FaultSite::SwappedQueueSteer, k)));
        assert_eq!(
            firings(),
            2 * hits.len() as u64,
            "every keyed firing counts"
        );
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

    /// `site:seed` names the same mutant across catalog edits: the
    /// seed-derived parameter of every site at seeds 0–2 is pinned to
    /// the values it had while the catalog still held 16 sites.
    #[test]
    fn seed_derived_params_survive_catalog_edits() {
        let pinned: [(FaultSite, [u64; 3]); 10] = [
            (FaultSite::StatOffByOne, [2, 2, 3]),
            (FaultSite::DroppedFlush, [2, 4, 4]),
            (FaultSite::StaleLru, [10, 8, 5]),
            (FaultSite::CorruptedLead, [6, 11, 7]),
            (FaultSite::DroppedDeferredRead, [2, 4, 1]),
            (FaultSite::SkippedDefenseEval, [11, 9, 12]),
            (FaultSite::StaleDirtySet, [10, 13, 5]),
            (FaultSite::SkippedEpochBump, [13, 13, 10]),
            (FaultSite::SwappedQueueSteer, [9, 6, 12]),
            (FaultSite::StaleEvictionMemo, [13, 7, 6]),
        ];
        assert_eq!(
            pinned.map(|(site, _)| site),
            FaultSite::ALL,
            "every site pinned"
        );
        for (site, want) in pinned {
            let got = [0, 1, 2].map(|seed| {
                FaultSpec {
                    site,
                    seed,
                    nth: None,
                }
                .resolved_param()
            });
            assert_eq!(got, want, "{site:?}");
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
