//! The web-fingerprinting side channel (§V).
//!
//! The spy chases packets while a victim's browser loads a page, giving
//! it a vector of (cache-block-granular) packet sizes over time. Offline,
//! the attacker builds one *representative trace* per site of interest —
//! the point-wise average of training captures — and classifies live
//! captures with a cross-correlation score (the paper's "simple
//! correlation-based classifier").

use crate::chasing::ChasingSpy;
use crate::testbed::{TestBed, TestBedConfig};
use pc_cache::Cycles;
use pc_net::{
    ArrivalSchedule, EthernetFrame, LineRate, LoginOutcome, LoginTraceSource, TraceReplay,
    WebsiteProfile,
};
use pc_probe::AddressPool;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A captured trace: size classes (1..=4 blocks, 4 = "4 or more") of the
/// first `len` packets of a page load.
pub type SizeTrace = Vec<u8>;

/// How the fingerprint experiments drive the capture.
#[derive(Copy, Clone, Debug)]
pub struct CaptureConfig {
    /// Packets per capture (the paper plots/classifies the first 100).
    pub trace_len: usize,
    /// Victim traffic rate in frames/second.
    pub packet_rate_fps: u64,
    /// Spy probe interval in cycles while waiting on a buffer.
    pub probe_interval: Cycles,
    /// Samples to wait before declaring a packet missed.
    pub max_wait_samples: usize,
}

impl CaptureConfig {
    /// Defaults suited to a browser page load over 1 GbE.
    pub fn paper_defaults() -> Self {
        CaptureConfig {
            trace_len: 100,
            packet_rate_fps: 20_000,
            probe_interval: 15_000,
            max_wait_samples: 40,
        }
    }
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig::paper_defaults()
    }
}

/// The ground-truth size classes of a frame list (what tcpdump would
/// show, clamped to the spy's 4-block ceiling).
pub fn true_size_classes(frames: &[EthernetFrame], len: usize) -> SizeTrace {
    frames
        .iter()
        .take(len)
        .map(|f| f.cache_blocks().min(4) as u8)
        .collect()
}

/// Captures one page load through the cache: enqueues the victim's
/// frames and chases them with `spy`, returning the observed size-class
/// trace (padded with 1s if packets were missed).
pub fn capture_trace(
    tb: &mut TestBed,
    spy: &mut ChasingSpy,
    frames: &[EthernetFrame],
    cfg: &CaptureConfig,
) -> SizeTrace {
    spy.prime_all(tb);
    let mut rng = SmallRng::seed_from_u64(tb.now() ^ 0xf1f0);
    let mut gen = TraceReplay::new(frames.iter().map(|f| f.bytes()).collect());
    let schedule = ArrivalSchedule::new(LineRate::gigabit())
        .frames_per_second(cfg.packet_rate_fps)
        .generate(&mut gen, tb.now() + 50_000, frames.len(), &mut rng);
    tb.enqueue(schedule);

    let mut trace = Vec::with_capacity(cfg.trace_len);
    let mut attempts = 0usize;
    while trace.len() < cfg.trace_len && attempts < cfg.trace_len * 2 {
        attempts += 1;
        if let Some(obs) = spy.observe_next(tb, cfg.probe_interval, cfg.max_wait_samples) {
            trace.push(obs.size_class);
        }
        if tb.pending_frames() == 0 && trace.len() < cfg.trace_len {
            break;
        }
    }
    trace.resize(cfg.trace_len, 1);
    trace
}

/// Normalized cross-correlation at lag 0..`max_lag` between a trace and
/// a representative; the classification score.
pub fn cross_correlation_score(trace: &[u8], representative: &[f64], max_lag: usize) -> f64 {
    if trace.is_empty() || representative.is_empty() {
        return 0.0;
    }
    let t: Vec<f64> = trace.iter().map(|&v| f64::from(v)).collect();
    let mut best = f64::MIN;
    for lag in 0..=max_lag {
        let n = t.len().saturating_sub(lag).min(representative.len());
        if n == 0 {
            break;
        }
        let a = &t[lag..lag + n];
        let b = &representative[..n];
        let ma = a.iter().sum::<f64>() / n as f64;
        let mb = b.iter().sum::<f64>() / n as f64;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for i in 0..n {
            let da = a[i] - ma;
            let db = b[i] - mb;
            cov += da * db;
            va += da * da;
            vb += db * db;
        }
        let denom = (va * vb).sqrt();
        let score = if denom < 1e-12 { 0.0 } else { cov / denom };
        best = best.max(score);
    }
    best
}

/// A trained classifier: one representative (point-wise average) trace
/// per class.
#[derive(Clone, Debug)]
pub struct CorrelationClassifier {
    names: Vec<String>,
    representatives: Vec<Vec<f64>>,
    max_lag: usize,
}

impl CorrelationClassifier {
    /// Trains from labelled traces: `training[class]` is a list of
    /// captures of that class.
    ///
    /// # Panics
    ///
    /// Panics if classes and names differ in count, or any class has no
    /// training traces.
    pub fn train(names: Vec<String>, training: &[Vec<SizeTrace>], max_lag: usize) -> Self {
        assert_eq!(names.len(), training.len(), "one name per class");
        let representatives = training
            .iter()
            .map(|traces| {
                assert!(!traces.is_empty(), "class with no training traces");
                let len = traces.iter().map(Vec::len).max().expect("non-empty");
                let mut avg = vec![0.0f64; len];
                for t in traces {
                    for (i, &v) in t.iter().enumerate() {
                        avg[i] += f64::from(v);
                    }
                }
                for (i, a) in avg.iter_mut().enumerate() {
                    let count = traces.iter().filter(|t| t.len() > i).count().max(1);
                    *a /= count as f64;
                }
                avg
            })
            .collect();
        CorrelationClassifier {
            names,
            representatives,
            max_lag,
        }
    }

    /// Class names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The representative vector for class `idx`.
    pub fn representative(&self, idx: usize) -> &[f64] {
        &self.representatives[idx]
    }

    /// Classifies a trace, returning the best class index and its score.
    pub fn classify(&self, trace: &[u8]) -> (usize, f64) {
        let mut best = (0usize, f64::MIN);
        for (i, rep) in self.representatives.iter().enumerate() {
            let score = cross_correlation_score(trace, rep, self.max_lag);
            if score > best.1 {
                best = (i, score);
            }
        }
        best
    }
}

/// A nearest-neighbor classifier under edit distance.
///
/// The paper uses a correlation classifier on (size, timing) vectors and
/// notes that better classifiers only improve the attack. Our synthetic
/// page loads perturb traces with *insertions and deletions*
/// (retransmissions, drops), which destroys positional alignment — the
/// failure mode cross-correlation cannot absorb. Edit distance is the
/// natural alignment-free metric for the same size-class strings, so the
/// closed-world evaluation uses this classifier; see EXPERIMENTS.md.
#[derive(Clone, Debug)]
pub struct EditDistanceClassifier {
    names: Vec<String>,
    training: Vec<Vec<SizeTrace>>,
}

impl EditDistanceClassifier {
    /// Stores the labelled training captures.
    ///
    /// # Panics
    ///
    /// Panics if names and classes differ in count or a class is empty.
    pub fn train(names: Vec<String>, training: Vec<Vec<SizeTrace>>) -> Self {
        assert_eq!(names.len(), training.len(), "one name per class");
        assert!(
            training.iter().all(|t| !t.is_empty()),
            "every class needs at least one training trace"
        );
        EditDistanceClassifier { names, training }
    }

    /// Class names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Classifies by nearest training trace; returns `(class index,
    /// distance)`.
    pub fn classify(&self, trace: &[u8]) -> (usize, usize) {
        let mut best = (0usize, usize::MAX);
        for (ci, traces) in self.training.iter().enumerate() {
            for t in traces {
                let d = crate::levenshtein::levenshtein(trace, t);
                if d < best.1 {
                    best = (ci, d);
                }
            }
        }
        best
    }
}

/// Result of a closed-world evaluation run.
#[derive(Clone, Debug)]
pub struct FingerprintAccuracy {
    /// Fraction of trials classified correctly.
    pub accuracy: f64,
    /// Trials evaluated.
    pub trials: usize,
    /// Confusion matrix: `confusion[truth][predicted]`.
    pub confusion: Vec<Vec<usize>>,
}

/// Trains and evaluates the closed-world fingerprinting attack on a set
/// of site profiles, capturing every trace through the cache side
/// channel on fresh test beds.
///
/// `bed_config` selects DDIO on/off — the experiment behind the paper's
/// 89.7 % (DDIO) vs 86.5 % (no DDIO) numbers.
///
/// Every capture (site × training run, then site × trial) is an
/// independent page load on a fresh test bed with its own RNG stream
/// derived via [`pc_par::stream_seed`] (the `Capture` domain) from
/// `(seed, salt)`, so the whole
/// site×trial grid fans out over worker threads with ordered collection
/// — the same per-repetition-seed contract the `pc-bench` experiments
/// use. `PC_BENCH_THREADS=1` forces sequential capture; results are
/// identical either way.
pub fn evaluate_closed_world(
    bed_config: TestBedConfig,
    sites: &[WebsiteProfile],
    training_per_site: usize,
    trials_per_site: usize,
    noise: f64,
    capture: &CaptureConfig,
    seed: u64,
) -> FingerprintAccuracy {
    let pool = AddressPool::allocate(seed ^ 0xf00d, 16384);

    let capture_one = |site: usize, salt: u64| {
        // A fresh bed per page load: the victim machine's ring state
        // differs per session; the spy re-syncs each time. The page-load
        // noise stream is a pure function of (seed, salt), never of the
        // schedule that ran this capture.
        let mut rng =
            SmallRng::seed_from_u64(pc_par::stream_seed(seed, pc_par::SeedDomain::Capture, salt));
        let mut tb = TestBed::new(bed_config.with_seed(seed ^ salt));
        let mut spy = ChasingSpy::for_ring(tb.hierarchy().llc(), &pool, tb.driver());
        let frames = sites[site].page_load(noise, &mut rng);
        capture_trace(&mut tb, &mut spy, &frames, capture)
    };

    // Train: one job per (site, training run), collected in input order
    // and regrouped per site.
    let train_jobs: Vec<(usize, u64)> = (0..sites.len())
        .flat_map(|si| (0..training_per_site).map(move |t| (si, (si * 1000 + t) as u64)))
        .collect();
    let mut captured =
        pc_par::parallel_map(train_jobs, |(si, salt)| capture_one(si, salt)).into_iter();
    let training: Vec<Vec<SizeTrace>> = (0..sites.len())
        .map(|_| captured.by_ref().take(training_per_site).collect())
        .collect();
    let classifier = EditDistanceClassifier::train(
        sites.iter().map(|s| s.name().to_owned()).collect(),
        training,
    );

    // Evaluate: one job per (site, trial); classification happens on the
    // worker too (the classifier is immutable shared state).
    let eval_jobs: Vec<(usize, u64)> = (0..sites.len())
        .flat_map(|si| (0..trials_per_site).map(move |t| (si, (0x5a5a + si * 7717 + t) as u64)))
        .collect();
    let predictions = pc_par::parallel_map(eval_jobs, |(si, salt)| {
        let trace = capture_one(si, salt);
        (si, classifier.classify(&trace).0)
    });

    let mut confusion = vec![vec![0usize; sites.len()]; sites.len()];
    let mut correct = 0usize;
    let mut trials = 0usize;
    for (si, pred) in predictions {
        confusion[si][pred] += 1;
        correct += usize::from(pred == si);
        trials += 1;
    }
    FingerprintAccuracy {
        accuracy: correct as f64 / trials.max(1) as f64,
        trials,
        confusion,
    }
}

/// The Figure 13 experiment: original vs recovered size traces for a
/// successful and an unsuccessful hotcrp login.
///
/// Returns `(original, recovered)` for the requested outcome.
pub fn login_trace_pair(
    bed_config: TestBedConfig,
    outcome: LoginOutcome,
    capture: &CaptureConfig,
    seed: u64,
) -> (SizeTrace, SizeTrace) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let source = LoginTraceSource::hotcrp();
    let frames = source.trace(outcome, capture.trace_len, 0.05, &mut rng);
    let original = true_size_classes(&frames, capture.trace_len);

    let pool = AddressPool::allocate(seed ^ 0xf00d, 16384);
    let mut tb = TestBed::new(bed_config.with_seed(seed));
    let mut spy = ChasingSpy::for_ring(tb.hierarchy().llc(), &pool, tb.driver());
    let recovered = capture_trace(&mut tb, &mut spy, &frames, capture);
    (original, recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_net::ClosedWorld;

    #[test]
    fn correlation_prefers_the_matching_representative() {
        let rep_a: Vec<f64> = vec![4.0, 4.0, 1.0, 1.0, 4.0, 1.0, 4.0, 4.0];
        let rep_b: Vec<f64> = vec![1.0, 1.0, 4.0, 4.0, 1.0, 4.0, 1.0, 1.0];
        let trace_a: Vec<u8> = vec![4, 4, 1, 1, 4, 1, 4, 4];
        assert!(
            cross_correlation_score(&trace_a, &rep_a, 2)
                > cross_correlation_score(&trace_a, &rep_b, 2)
        );
    }

    #[test]
    fn correlation_tolerates_small_shifts() {
        let rep: Vec<f64> = vec![1.0, 4.0, 4.0, 1.0, 4.0, 1.0, 1.0, 4.0, 2.0, 3.0];
        let shifted: Vec<u8> = vec![2, 1, 4, 4, 1, 4, 1, 1, 4, 2]; // lag 1
        assert!(cross_correlation_score(&shifted, &rep, 3) > 0.8);
    }

    #[test]
    fn classifier_separates_synthetic_classes() {
        let a: SizeTrace = vec![4, 4, 4, 1, 1, 1, 4, 4, 4, 1];
        let b: SizeTrace = vec![1, 1, 4, 4, 1, 1, 4, 4, 1, 1];
        let clf = CorrelationClassifier::train(
            vec!["a".into(), "b".into()],
            &[vec![a.clone(), a.clone()], vec![b.clone(), b.clone()]],
            2,
        );
        assert_eq!(clf.classify(&a).0, 0);
        assert_eq!(clf.classify(&b).0, 1);
        assert_eq!(clf.names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn true_size_classes_clamp_at_four() {
        let frames = vec![
            EthernetFrame::with_blocks(1),
            EthernetFrame::with_blocks(3),
            EthernetFrame::mtu_sized(),
        ];
        assert_eq!(true_size_classes(&frames, 3), vec![1, 3, 4]);
    }

    #[test]
    fn captured_trace_tracks_original() {
        // One page load, captured through the cache, must correlate far
        // better with its own ground truth than with a different site's.
        let world = ClosedWorld::paper_five_sites();
        let mut rng = SmallRng::seed_from_u64(31);
        let cfg = CaptureConfig {
            trace_len: 60,
            ..CaptureConfig::paper_defaults()
        };
        let mut bed_cfg = TestBedConfig::paper_baseline().with_seed(9);
        bed_cfg.driver.ring_size = 32; // fast setup
        let pool = AddressPool::allocate(77, 16384);

        let frames_a = world.sites()[0].page_load(0.02, &mut rng);
        let frames_b = world.sites()[1].page_load(0.02, &mut rng);
        let truth_a: Vec<f64> = true_size_classes(&frames_a, 60)
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        let truth_b: Vec<f64> = true_size_classes(&frames_b, 60)
            .iter()
            .map(|&v| f64::from(v))
            .collect();

        let mut tb = TestBed::new(bed_cfg);
        let mut spy = ChasingSpy::for_ring(tb.hierarchy().llc(), &pool, tb.driver());
        let captured = capture_trace(&mut tb, &mut spy, &frames_a, &cfg);

        let self_score = cross_correlation_score(&captured, &truth_a, 4);
        let cross_score = cross_correlation_score(&captured, &truth_b, 4);
        assert!(
            self_score > cross_score,
            "captured trace correlates better with the wrong site \
             (self {self_score:.3} vs cross {cross_score:.3})"
        );
        assert!(
            self_score > 0.5,
            "self correlation too weak: {self_score:.3}"
        );
    }

    #[test]
    fn warm_pool_spy_captures_like_a_cold_pool_spy() {
        // Spies built on a warm pool take their sets from the memo
        // (partly for bed 4's ring, wholly for bed 3's second capture);
        // each must capture exactly what a spy walking a fresh pool does.
        let world = ClosedWorld::paper_five_sites();
        let frames = world.sites()[2].page_load(0.02, &mut SmallRng::seed_from_u64(5));
        let cfg = CaptureConfig {
            trace_len: 40,
            ..CaptureConfig::paper_defaults()
        };
        let mut bed_cfg = TestBedConfig::paper_baseline();
        bed_cfg.driver.ring_size = 32;
        let capture = |pool: &AddressPool, bed_seed: u64| {
            let mut tb = TestBed::new(bed_cfg.with_seed(bed_seed));
            let mut spy = ChasingSpy::for_ring(tb.hierarchy().llc(), pool, tb.driver());
            capture_trace(&mut tb, &mut spy, &frames, &cfg)
        };
        let warm = AddressPool::allocate(78, 16384);
        for bed_seed in [3, 4, 3] {
            let cold = AddressPool::allocate(78, 16384);
            assert_eq!(
                capture(&warm, bed_seed),
                capture(&cold, bed_seed),
                "bed seed {bed_seed}"
            );
        }
    }

    #[test]
    fn login_outcomes_are_distinguishable() {
        let cfg = CaptureConfig {
            trace_len: 100,
            ..CaptureConfig::paper_defaults()
        };
        let mut bed_cfg = TestBedConfig::paper_baseline();
        bed_cfg.driver.ring_size = 32;
        let (orig_ok, rec_ok) = login_trace_pair(bed_cfg, LoginOutcome::Successful, &cfg, 41);
        let (orig_bad, rec_bad) = login_trace_pair(bed_cfg, LoginOutcome::Unsuccessful, &cfg, 42);
        let rep_ok: Vec<f64> = orig_ok.iter().map(|&v| f64::from(v)).collect();
        let rep_bad: Vec<f64> = orig_bad.iter().map(|&v| f64::from(v)).collect();
        // Each recovered trace matches its own outcome better.
        assert!(
            cross_correlation_score(&rec_ok, &rep_ok, 4)
                > cross_correlation_score(&rec_ok, &rep_bad, 4)
        );
        assert!(
            cross_correlation_score(&rec_bad, &rep_bad, 4)
                > cross_correlation_score(&rec_bad, &rep_ok, 4)
        );
    }
}
