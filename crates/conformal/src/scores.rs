//! Precomputed nonconformity scores.
//!
//! Every calibration strategy in this crate starts from the same quantity:
//! the upper-bound nonconformity score `sᵢ = yᵢ − ŷᵢ` per head. Re-deriving
//! those scores (and the predictions behind them) once per variant and per
//! miscoverage level is what made the post-training calibrate phase scale
//! with `variants × ε-levels` — exactly the cost conformalized matrix
//! completion identifies as the practical bottleneck. This module computes
//! the scores **once** (chunk-parallel over the `pitot_linalg::par` pool),
//! partitions them by pool and sorts them once, and lets every downstream
//! fit — split and pooled CQR — consume the precomputed slices: fitting
//! at one more ε becomes a rank lookup instead of a fresh predict + sort.

use crate::pooled::PredictionSet;
use pitot_linalg::{par, quantile_higher_sorted};
use std::collections::BTreeMap;

/// Computes per-head upper-bound scores `s[h][i] = targets[i] − preds[h][i]`,
/// chunk-parallel over observations.
///
/// Results are bitwise identical across `PITOT_THREADS` (each element is
/// computed independently).
///
/// # Panics
///
/// Panics if any head's length differs from `targets`.
pub(crate) fn upper_scores(preds: &[Vec<f32>], targets: &[f32]) -> Vec<Vec<f32>> {
    preds
        .iter()
        .enumerate()
        .map(|(h, head)| {
            assert_eq!(head.len(), targets.len(), "head {h} length mismatch");
            let mut out = vec![0.0f32; targets.len()];
            par::parallel_for_rows(&mut out, 1, 4096, |start, chunk| {
                for (i, s) in chunk.iter_mut().enumerate() {
                    let k = start + i;
                    *s = targets[k] - head[k];
                }
            });
            out
        })
        .collect()
}

/// One calibration set's scores, partitioned by pool and sorted — computed
/// once, consumed by every `(variant, ε)` fit.
///
/// The set keeps the scores of some of its model's heads: every head when
/// built by [`ScoredCalibration::new`], and a served window's kept heads
/// when it is a [`WindowedScores`] view or a lowered
/// [`crate::MergeableWindow`]. [`CalibrationView::n_heads`] is the model's
/// head count either way, and every lookup names a head by its model head
/// id.
///
/// Equality is elementwise over the kept head ids and the sorted score
/// slices, so two instances compare equal exactly when every downstream
/// rank lookup agrees bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCalibration {
    /// The model's head count, kept or not.
    pub(crate) n_heads: usize,
    /// The model head ids whose scores are kept, ascending.
    pub(crate) heads: Vec<usize>,
    /// Per kept head: every score, ascending.
    pub(crate) global_sorted: Vec<Vec<f32>>,
    /// Pool key → per-kept-head ascending scores for that pool.
    pub(crate) pool_sorted: BTreeMap<usize, Vec<Vec<f32>>>,
    pub(crate) n: usize,
}

/// The column of model head `head` among the ascending kept head ids
/// `heads`.
///
/// # Panics
///
/// Panics, naming the head, if it is not kept.
pub(crate) fn kept_column(heads: &[usize], head: usize) -> usize {
    heads
        .iter()
        .position(|&h| h == head)
        .unwrap_or_else(|| panic!("head {head} is not kept (kept heads: {heads:?})"))
}

impl ScoredCalibration {
    /// Scores, partitions, and sorts a calibration set, keeping every head.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or internally inconsistent: no heads, or
    /// a head or the pool keys not matching the targets in length.
    pub fn new(calibration: &PredictionSet<'_>) -> Self {
        assert!(
            !calibration.targets_log.is_empty(),
            "cannot calibrate on an empty set"
        );
        calibration.validate();
        let scores = upper_scores(calibration.predictions, calibration.targets_log);
        let n_heads = scores.len();

        let mut pool_sorted: BTreeMap<usize, Vec<Vec<f32>>> = BTreeMap::new();
        for (i, &pool) in calibration.pools.iter().enumerate() {
            let per_head = pool_sorted
                .entry(pool)
                .or_insert_with(|| vec![Vec::new(); n_heads]);
            for (h, head_scores) in scores.iter().enumerate() {
                per_head[h].push(head_scores[i]);
            }
        }
        let mut global_sorted = scores;
        for head in &mut global_sorted {
            head.sort_by(|a, b| a.total_cmp(b));
        }
        for per_head in pool_sorted.values_mut() {
            for head in per_head.iter_mut() {
                head.sort_by(|a, b| a.total_cmp(b));
            }
        }
        Self {
            n_heads,
            heads: (0..n_heads).collect(),
            global_sorted,
            pool_sorted,
            n: calibration.targets_log.len(),
        }
    }

    /// Number of calibration observations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the calibration set is empty (never true for a constructed
    /// instance).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The full sorted score slice for one head (global pool), e.g. for a
    /// split-conformal sweep via
    /// [`crate::SplitConformal::from_sorted_scores`].
    ///
    /// # Panics
    ///
    /// Panics, naming the head, if model head `head` is not kept.
    pub fn sorted_scores(&self, head: usize) -> &[f32] {
        &self.global_sorted[kept_column(&self.heads, head)]
    }
}

/// What [`PooledConformal::fit_scored`] reads from a calibration set: its
/// head count, its pools, and one order statistic per `(pool, head)`.
///
/// [`ScoredCalibration`] answers from its pre-sorted slices; a merged
/// [`crate::MergeableWindow`] answers straight from its replica runs, so a
/// fleet fit never materialises the union. Both take the rank from
/// [`pitot_linalg::quantile_higher_rank`], so they answer bitwise alike
/// over the same scores.
pub trait CalibrationView {
    /// Number of heads of the model the scores came from (kept or not).
    fn n_heads(&self) -> usize;

    /// Pool keys present, ascending, with their observation counts.
    fn pool_sizes(&self) -> impl Iterator<Item = (usize, usize)> + '_;

    /// Conformal offset γ for model head `head` at miscoverage `eps`, over
    /// the whole set (`pool = None`) or one pool: the `⌈(n+1)(1−ε)⌉`-th
    /// smallest score under `total_cmp`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is absent, the head is not kept (naming it), or
    /// `eps ∉ (0, 1)`.
    fn gamma(&self, pool: Option<usize>, head: usize, eps: f32) -> f32;
}

impl CalibrationView for ScoredCalibration {
    fn n_heads(&self) -> usize {
        self.n_heads
    }

    fn pool_sizes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pool_sorted.iter().map(|(&k, v)| (k, v[0].len()))
    }

    /// A rank lookup in the pre-sorted scores.
    fn gamma(&self, pool: Option<usize>, head: usize, eps: f32) -> f32 {
        assert!(eps > 0.0 && eps < 1.0, "miscoverage {eps} outside (0,1)");
        let column = kept_column(&self.heads, head);
        let sorted = match pool {
            None => &self.global_sorted[column],
            Some(key) => &self.pool_sorted.get(&key).expect("unknown pool")[column],
        };
        quantile_higher_sorted(sorted, 1.0 - eps)
    }
}

/// A sliding-window calibration set maintained incrementally.
///
/// Online serving recalibrates on the most recent `capacity` observations
/// (the moving calibration set of Gui et al.'s conformalized matrix
/// completion): every arriving observation pushes one score per kept head
/// and evicts the oldest once the window is full. Rather than re-scoring
/// and re-sorting the whole window per event, this type keeps the same
/// sorted global/per-pool slices a [`ScoredCalibration`] holds and edits
/// them in place. While the window fills, a push is one binary-search
/// insert per kept head and run; once it is full, the arriving score takes
/// the evicted one's place by one shift of the run between their positions
/// (in the global runs always, and in the pool runs when both entries share
/// a pool), `O(heads · log n)` comparisons instead of an `O(heads · n log
/// n)` re-sort.
///
/// A window keeps the heads a fit will read, not necessarily every head of
/// its model: [`WindowedScores::new`] keeps them all, and
/// [`WindowedScores::with_heads`] keeps a listed subset (a server keeps
/// head 0 and the heads its selection policy serves). Its sorted view then
/// equals the matching columns of an all-heads window over the same stream,
/// bit for bit, and answers every lookup by model head id.
///
/// The maintained state is **bitwise identical** to
/// `ScoredCalibration::new` on the current window contents (property-tested
/// below), so every downstream `fit_scored` — and therefore every served
/// bound — is exactly what a from-scratch refit would produce.
#[derive(Debug, Clone)]
pub struct WindowedScores {
    capacity: usize,
    /// Oldest-first ring of `(per-kept-head scores, pool)` entries.
    ring: std::collections::VecDeque<(Vec<f32>, usize)>,
    /// The incrementally maintained sorted view.
    pub(crate) scored: ScoredCalibration,
    /// Total pushes ever (a monotone per-window logical clock; see
    /// [`WindowedScores::clock`]).
    pub(crate) clock: u64,
}

impl WindowedScores {
    /// An empty window holding at most `capacity` observations with
    /// `n_heads` scores each: every head kept.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `n_heads` is zero.
    pub fn new(capacity: usize, n_heads: usize) -> Self {
        let heads: Vec<usize> = (0..n_heads).collect();
        Self::with_heads(capacity, n_heads, &heads)
    }

    /// An empty window holding at most `capacity` observations of a
    /// `n_heads`-head model, keeping one score per head of `heads` (model
    /// head ids, ascending).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, `heads` is empty, or `heads` is not
    /// strictly ascending below `n_heads`.
    pub fn with_heads(capacity: usize, n_heads: usize, heads: &[usize]) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(!heads.is_empty(), "at least one head required");
        assert!(
            heads.windows(2).all(|p| p[0] < p[1]) && heads[heads.len() - 1] < n_heads,
            "kept heads {heads:?} are not ascending head ids of a {n_heads}-head model"
        );
        Self {
            capacity,
            // Pre-size modest windows; effectively unbounded ones grow.
            ring: std::collections::VecDeque::with_capacity(capacity.min(4096) + 1),
            scored: ScoredCalibration {
                n_heads,
                heads: heads.to_vec(),
                global_sorted: vec![Vec::new(); heads.len()],
                pool_sorted: BTreeMap::new(),
                n: 0,
            },
            clock: 0,
        }
    }

    /// Total observations ever pushed (not just currently retained): a
    /// monotone logical clock. Because pushes are the only mutation and
    /// each push also performs any due eviction, a window's contents are a
    /// pure function of its stream prefix of length `clock` — which is what
    /// lets [`crate::MergeableWindow`] snapshots supersede one another
    /// without tombstones.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advances the clock to `to` without pushing, for rebuilds that
    /// replace the window's contents wholesale (e.g. re-scoring every entry
    /// under a fine-tuned model): bumping the rebuilt window past the old
    /// one's clock makes its [`crate::MergeableWindow`] snapshots supersede
    /// every snapshot of the pre-rebuild state.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not strictly greater than the current clock (a
    /// stale clock would let old snapshots shadow the rebuilt window).
    pub fn advance_clock(&mut self, to: u64) {
        assert!(
            to > self.clock,
            "clock must advance: {to} is not past {}",
            self.clock
        );
        self.clock = to;
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.scored.n
    }

    /// Whether the window holds no observations yet.
    pub fn is_empty(&self) -> bool {
        self.scored.n == 0
    }

    /// Whether the window has reached capacity (pushes now evict).
    pub fn is_full(&self) -> bool {
        self.scored.n == self.capacity
    }

    /// Maximum number of observations retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of heads of the model the scores come from (kept or not).
    pub fn n_heads(&self) -> usize {
        self.scored.n_heads
    }

    /// The model head ids whose scores the window keeps, ascending: the
    /// order of every entry's scores.
    pub fn heads(&self) -> &[usize] {
        &self.scored.heads
    }

    /// Pushes one observation given its log-space predictions for each kept
    /// head (in [`WindowedScores::heads`] order) and its log-space target,
    /// evicting the oldest observation if the window is full. Returns the
    /// evicted entry's pool key, if any.
    ///
    /// # Panics
    ///
    /// Panics if `head_preds` does not match the kept head count.
    pub fn push(&mut self, head_preds: &[f32], target_log: f32, pool: usize) -> Option<usize> {
        assert_eq!(
            head_preds.len(),
            self.heads().len(),
            "score/head count mismatch"
        );
        let score = |c: usize| target_log - head_preds[c];
        if self.is_full() {
            Some(self.slide(pool, score))
        } else {
            self.fill((0..head_preds.len()).map(score).collect(), pool);
            None
        }
    }

    /// [`WindowedScores::push`] with precomputed scores `s[c] = y − ŷ[c]`,
    /// one per kept head.
    ///
    /// # Panics
    ///
    /// Panics if `scores` does not match the kept head count. Debug builds
    /// also assert every score is finite — a NaN or infinity must be
    /// screened *before* the window boundary, never sorted into it.
    pub fn push_scores(&mut self, scores: Vec<f32>, pool: usize) -> Option<usize> {
        assert_eq!(
            scores.len(),
            self.heads().len(),
            "score/head count mismatch"
        );
        if self.is_full() {
            Some(self.slide(pool, |c| scores[c]))
        } else {
            self.fill(scores, pool);
            None
        }
    }

    /// A push into a window that is not full: one sorted insert per kept
    /// head into the global run and into the pool's.
    fn fill(&mut self, entry: Vec<f32>, pool: usize) {
        debug_assert_finite(entry.iter().copied());
        let scored = &mut self.scored;
        for (run, &s) in scored.global_sorted.iter_mut().zip(&entry) {
            insert_sorted(run, s);
        }
        let runs = scored
            .pool_sorted
            .entry(pool)
            .or_insert_with(|| vec![Vec::new(); entry.len()]);
        for (run, &s) in runs.iter_mut().zip(&entry) {
            insert_sorted(run, s);
        }
        scored.n += 1;
        self.ring.push_back((entry, pool));
        self.clock += 1;
    }

    /// A push into a full window, where kept head `c` of the arriving entry
    /// scores `score(c)`: the arriving score replaces the evicted one in
    /// each global run, and in each pool run when both entries share a
    /// pool, by one shift ([`replace_sorted`]); otherwise it is removed from
    /// the evicted entry's pool and inserted into its own. The arriving
    /// entry reuses the evicted entry's storage. Returns the evicted
    /// entry's pool key.
    fn slide(&mut self, pool: usize, score: impl Fn(usize) -> f32) -> usize {
        let (mut entry, old_pool) = self.ring.pop_front().expect("full window is non-empty");
        debug_assert_finite((0..entry.len()).map(&score));
        let scored = &mut self.scored;
        for (c, run) in scored.global_sorted.iter_mut().enumerate() {
            replace_sorted(run, entry[c], score(c));
        }
        if old_pool == pool {
            let runs = scored
                .pool_sorted
                .get_mut(&pool)
                .expect("evicted entry's pool is present");
            for (c, run) in runs.iter_mut().enumerate() {
                replace_sorted(run, entry[c], score(c));
            }
        } else {
            let runs = scored
                .pool_sorted
                .get_mut(&old_pool)
                .expect("evicted entry's pool is present");
            for (run, &s) in runs.iter_mut().zip(&entry) {
                remove_sorted(run, s);
            }
            // `ScoredCalibration::new` only creates keys for pools present
            // in the set; drop emptied pools so the views stay identical.
            if runs[0].is_empty() {
                scored.pool_sorted.remove(&old_pool);
            }
            let runs = scored
                .pool_sorted
                .entry(pool)
                .or_insert_with(|| vec![Vec::new(); entry.len()]);
            for (c, run) in runs.iter_mut().enumerate() {
                insert_sorted(run, score(c));
            }
        }
        for (c, s) in entry.iter_mut().enumerate() {
            *s = score(c);
        }
        self.ring.push_back((entry, pool));
        self.clock += 1;
        old_pool
    }

    /// The maintained sorted-score view, ready for
    /// [`crate::PooledConformal::fit_scored`] or
    /// [`crate::SplitConformal::from_sorted_scores`].
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (an empty calibration set has no
    /// quantiles).
    pub fn scored(&self) -> &ScoredCalibration {
        assert!(!self.is_empty(), "cannot calibrate on an empty window");
        &self.scored
    }

    /// Oldest-first iterator over the window's `(scores, pool)` entries,
    /// one score per kept head.
    pub fn entries(&self) -> impl Iterator<Item = (&[f32], usize)> + '_ {
        self.ring.iter().map(|(s, p)| (s.as_slice(), *p))
    }
}

/// A NaN entering the sorted views would corrupt every later `total_cmp`
/// partition point and poison every served quantile; callers own upstream
/// validation (see the ingest guard in `pitot-serve`), but the window
/// boundary is the last line.
fn debug_assert_finite(mut scores: impl Iterator<Item = f32>) {
    debug_assert!(
        scores.all(f32::is_finite),
        "non-finite nonconformity score pushed into calibration window"
    );
}

/// Inserts `s` keeping `v` ascending under `total_cmp` (ties appended after
/// their equals, matching a stable sort of equal float bits).
fn insert_sorted(v: &mut Vec<f32>, s: f32) {
    let i = v.partition_point(|x| x.total_cmp(&s).is_le());
    v.insert(i, s);
}

/// Removes one occurrence of `s` from ascending `v`.
fn remove_sorted(v: &mut Vec<f32>, s: f32) {
    let i = v.partition_point(|x| x.total_cmp(&s).is_lt());
    debug_assert!(
        i < v.len() && v[i].total_cmp(&s).is_eq(),
        "evicted score missing from sorted slice"
    );
    v.remove(i);
}

/// Replaces one occurrence of `old` in ascending `v` by `new`, keeping `v`
/// ascending: the scores between the two positions shift one place toward
/// `old`'s, by one `copy_within`. Scores equal under `total_cmp` have equal
/// bits, so the result is bitwise a remove of `old` then an insert of
/// `new`.
fn replace_sorted(v: &mut [f32], old: f32, new: f32) {
    let i = v.partition_point(|x| x.total_cmp(&old).is_lt());
    debug_assert!(
        i < v.len() && v[i].total_cmp(&old).is_eq(),
        "evicted score missing from sorted slice"
    );
    if new.total_cmp(&old).is_ge() {
        // `v[i]` is `old ≤ new`, so `new` lands past it.
        let j = i + v[i..].partition_point(|x| x.total_cmp(&new).is_le());
        v.copy_within(i + 1..j, i);
        v[j - 1] = new;
    } else {
        let j = v[..i].partition_point(|x| x.total_cmp(&new).is_le());
        v.copy_within(j..i, j + 1);
        v[j] = new;
    }
}

/// A fully prepared ε-sweep calibration: the pre-scored calibration half
/// plus an owned copy of the selection half's predictions.
///
/// Every offline calibration is one of these: `pitot::calibrate` builds it
/// from any predictor's predictions of the two holdout halves, once, and
/// [`SweepCalibration::fit`] then fits pooled CQR at any number of
/// miscoverage levels without touching a model again.
#[derive(Debug, Clone)]
pub struct SweepCalibration {
    scored: ScoredCalibration,
    sel_preds: Vec<Vec<f32>>,
    sel_targets: Vec<f32>,
    sel_pools: Vec<usize>,
    xis: Vec<f32>,
}

impl SweepCalibration {
    /// Scores the calibration set and takes ownership of the selection
    /// half. `xis` gives each head's training quantile (for
    /// [`HeadSelection::NaiveXi`]).
    ///
    /// # Panics
    ///
    /// Panics if the calibration set is empty or internally inconsistent.
    pub fn new(
        calibration: &PredictionSet<'_>,
        sel_preds: Vec<Vec<f32>>,
        sel_targets: Vec<f32>,
        sel_pools: Vec<usize>,
        xis: Vec<f32>,
    ) -> Self {
        Self {
            scored: ScoredCalibration::new(calibration),
            sel_preds,
            sel_targets,
            sel_pools,
            xis,
        }
    }

    /// Fits pooled CQR at one miscoverage level from the precomputed
    /// scores — a rank lookup plus head selection.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ (0, 1)`.
    pub fn fit(&self, epsilon: f32, selection: HeadSelection) -> PooledConformal {
        PooledConformal::fit_scored(
            &self.scored,
            &PredictionSet {
                predictions: &self.sel_preds,
                targets_log: &self.sel_targets,
                pools: &self.sel_pools,
            },
            &self.xis,
            selection,
            epsilon,
        )
    }

    /// The pre-sorted calibration scores.
    pub fn scored(&self) -> &ScoredCalibration {
        &self.scored
    }
}

use crate::pooled::{HeadSelection, PooledConformal};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_conformal::calibrate_gamma;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let preds: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let targets: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.5)).collect();
        let pools: Vec<usize> = (0..n).map(|i| i % 3).collect();
        (preds, targets, pools)
    }

    #[test]
    fn scores_match_serial_subtraction() {
        let (preds, targets, _) = synthetic(501, 1);
        let scores = upper_scores(&preds, &targets);
        for (h, head) in scores.iter().enumerate() {
            for (i, &s) in head.iter().enumerate() {
                assert_eq!(s, targets[i] - preds[h][i]);
            }
        }
    }

    #[test]
    fn sorted_gammas_match_unsorted_calibration() {
        let (preds, targets, pools) = synthetic(400, 2);
        let set = PredictionSet {
            predictions: &preds,
            targets_log: &targets,
            pools: &pools,
        };
        let scored = ScoredCalibration::new(&set);
        let raw = upper_scores(&preds, &targets);
        for eps in [0.02f32, 0.1, 0.25] {
            for h in 0..3 {
                assert_eq!(scored.gamma(None, h, eps), calibrate_gamma(&raw[h], eps));
                for pool in 0..3usize {
                    let pool_scores: Vec<f32> = (0..targets.len())
                        .filter(|&i| pools[i] == pool)
                        .map(|i| raw[h][i])
                        .collect();
                    assert_eq!(
                        scored.gamma(Some(pool), h, eps),
                        calibrate_gamma(&pool_scores, eps),
                        "pool {pool} head {h} eps {eps}"
                    );
                }
            }
        }
    }

    /// From-scratch [`ScoredCalibration`] over the last `window` entries of
    /// a `(preds, target, pool)` stream.
    fn scratch_over_window(
        stream: &[(Vec<f32>, f32, usize)],
        window: usize,
    ) -> Option<ScoredCalibration> {
        let tail = &stream[stream.len().saturating_sub(window)..];
        if tail.is_empty() {
            return None;
        }
        let n_heads = tail[0].0.len();
        let preds: Vec<Vec<f32>> = (0..n_heads)
            .map(|h| tail.iter().map(|(p, _, _)| p[h]).collect())
            .collect();
        let targets: Vec<f32> = tail.iter().map(|(_, t, _)| *t).collect();
        let pools: Vec<usize> = tail.iter().map(|(_, _, p)| *p).collect();
        Some(ScoredCalibration::new(&PredictionSet {
            predictions: &preds,
            targets_log: &targets,
            pools: &pools,
        }))
    }

    proptest::proptest! {
        /// After EVERY push of a random stream — duplicate scores, a
        /// drifting pool mix, a window smaller than the stream — the
        /// incrementally maintained view must equal a from-scratch
        /// [`ScoredCalibration::new`] on the same window contents, bitwise
        /// (elementwise PartialEq over the sorted slices).
        #[test]
        fn windowed_refresh_is_bitwise_identical_to_scratch_fit(
            seed in 0u64..40,
            window in 1usize..40,
            n in 1usize..120,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37));
            let n_heads = 1 + (seed as usize % 3);
            let mut win = WindowedScores::new(window, n_heads);
            let mut stream: Vec<(Vec<f32>, f32, usize)> = Vec::new();
            for i in 0..n {
                // Quantized values force duplicate scores; the pool mix
                // drifts so pools appear and empty out over the stream.
                let preds: Vec<f32> = (0..n_heads)
                    .map(|_| (rng.gen_range(-8i32..8) as f32) * 0.25)
                    .collect();
                let target = (rng.gen_range(-8i32..8) as f32) * 0.25;
                let pool = if i < n / 2 { i % 2 } else { 2 + i % 2 };
                win.push(&preds, target, pool);
                stream.push((preds, target, pool));

                let scratch = scratch_over_window(&stream, window).unwrap();
                proptest::prop_assert_eq!(win.scored(), &scratch, "diverged after push {}", i);
            }
            proptest::prop_assert_eq!(win.len(), window.min(n));
            proptest::prop_assert_eq!(win.is_full(), n >= window);
        }
    }

    #[test]
    fn windowed_gammas_match_scratch_after_eviction() {
        // End-to-end: the γ a served bound would use is identical whether
        // the window was maintained incrementally or rebuilt from scratch.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut win = WindowedScores::new(64, 2);
        let mut stream = Vec::new();
        for i in 0..300 {
            let preds = vec![rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)];
            let target = rng.gen_range(-1.0f32..1.5);
            let pool = i % 3;
            win.push(&preds, target, pool);
            stream.push((preds, target, pool));
        }
        let scratch = scratch_over_window(&stream, 64).unwrap();
        for eps in [0.02f32, 0.1, 0.3] {
            for h in 0..2 {
                assert_eq!(
                    win.scored().gamma(None, h, eps),
                    scratch.gamma(None, h, eps)
                );
                for pool in 0..3 {
                    assert_eq!(
                        win.scored().gamma(Some(pool), h, eps),
                        scratch.gamma(Some(pool), h, eps)
                    );
                }
            }
        }
        // The ring preserves arrival order of the survivors.
        let tail = &stream[stream.len() - 64..];
        for ((got, pool), want) in win.entries().zip(tail) {
            let want_scores: Vec<f32> = want.0.iter().map(|p| want.1 - p).collect();
            assert_eq!(got, want_scores.as_slice());
            assert_eq!(pool, want.2);
        }
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_refuses_to_calibrate() {
        let win = WindowedScores::new(8, 1);
        let _ = win.scored();
    }

    fn mismatched(n_preds: usize, n_pools: usize) -> ScoredCalibration {
        let preds = vec![vec![0.0f32; n_preds]];
        let targets = vec![0.5f32; 40];
        let pools = vec![0usize; n_pools];
        ScoredCalibration::new(&PredictionSet {
            predictions: &preds,
            targets_log: &targets,
            pools: &pools,
        })
    }

    #[test]
    #[should_panic(expected = "pool key length mismatch")]
    fn pools_shorter_than_targets_are_rejected() {
        mismatched(40, 39);
    }

    #[test]
    #[should_panic(expected = "pool key length mismatch")]
    fn pools_longer_than_targets_are_rejected() {
        mismatched(40, 41);
    }

    #[test]
    #[should_panic(expected = "head 0 length mismatch")]
    fn a_head_not_matching_the_targets_is_rejected() {
        mismatched(39, 40);
    }

    #[test]
    fn pool_sizes_partition_the_set() {
        let (preds, targets, pools) = synthetic(301, 3);
        let set = PredictionSet {
            predictions: &preds,
            targets_log: &targets,
            pools: &pools,
        };
        let scored = ScoredCalibration::new(&set);
        let total: usize = scored.pool_sizes().map(|(_, n)| n).sum();
        assert_eq!(total, 301);
        assert_eq!(scored.len(), 301);
        assert_eq!(scored.n_heads(), 3);
    }

    /// Every kept score of a sorted view as bits, in lookup order: its
    /// head ids, then per kept head its global run, then per pool each
    /// kept head's run. Bits tell `-0.0` from `0.0`, which `==` does not.
    fn view_bits(scored: &ScoredCalibration) -> Vec<Vec<u32>> {
        let bits = |run: &Vec<f32>| run.iter().map(|s| s.to_bits()).collect::<Vec<u32>>();
        let mut out = vec![scored.heads.iter().map(|&h| h as u32).collect()];
        out.extend(scored.global_sorted.iter().map(bits));
        for (&pool, runs) in &scored.pool_sorted {
            out.push(vec![pool as u32]);
            out.extend(runs.iter().map(bits));
        }
        out
    }

    /// The columns `heads` of an all-heads view: what a window keeping
    /// those heads must hold.
    fn columns_of(all: &ScoredCalibration, heads: &[usize]) -> ScoredCalibration {
        let pick = |runs: &Vec<Vec<f32>>| heads.iter().map(|&h| runs[h].clone()).collect();
        ScoredCalibration {
            n_heads: all.n_heads,
            heads: heads.to_vec(),
            global_sorted: pick(&all.global_sorted),
            pool_sorted: all.pool_sorted.iter().map(|(&k, v)| (k, pick(v))).collect(),
            n: all.n,
        }
    }

    /// A fit as `(pool, head, γ bits)`: the fallback, then every pool.
    fn fit_bits(c: &PooledConformal) -> Vec<(Option<usize>, usize, u32)> {
        std::iter::once((None, c.calibration_for(usize::MAX)))
            .chain(c.pool_calibrations().iter().map(|(&k, &p)| (Some(k), p)))
            .map(|(k, p)| (k, p.head, p.gamma.to_bits()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 128, ..Default::default() })]
        /// A window keeping some heads holds, after every push, the
        /// matching columns of an all-heads window over the same stream,
        /// bit for bit — entries, global runs and pool runs — while scores
        /// repeat (`-0.0` beside `0.0` among them), pools appear and empty
        /// out, and evictions cross pools. A fit on it equals the all-heads
        /// fit under `NaiveXi` and `SingleHead` at every ε whose head it
        /// keeps.
        #[test]
        fn kept_head_windows_are_columns_of_the_all_heads_window(
            seed in 0u64..1_000_000,
            window in 1usize..48,
            n in 1usize..160,
        ) {
            const GRID: [f32; 8] = [-0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n_heads = rng.gen_range(1usize..=8);
            let heads: Vec<usize> = std::iter::once(0)
                .chain((1..n_heads).filter(|_| rng.gen_bool(0.3)))
                .collect();
            let xis: Vec<f32> = (0..n_heads).map(|h| 0.5 + 0.49 * h as f32 / 8.0).collect();
            let mut all = WindowedScores::new(window, n_heads);
            let mut kept = WindowedScores::with_heads(window, n_heads, &heads);
            let no_selection = PredictionSet { predictions: &[], targets_log: &[], pools: &[] };
            for i in 0..n {
                let scores: Vec<f32> = (0..n_heads).map(|_| GRID[rng.gen_range(0..8)]).collect();
                // The pool mix drifts, so pools appear and empty out.
                let pool = (i * 4 / n) + rng.gen_range(0..2);
                let evicted = all.push_scores(scores.clone(), pool);
                let kept_scores = heads.iter().map(|&h| scores[h]).collect();
                proptest::prop_assert_eq!(kept.push_scores(kept_scores, pool), evicted);
                let want = columns_of(all.scored(), &heads);
                proptest::prop_assert_eq!(view_bits(kept.scored()), view_bits(&want), "push {}", i);
                for ((got, p), (full, q)) in kept.entries().zip(all.entries()) {
                    let want: Vec<u32> = heads.iter().map(|&h| full[h].to_bits()).collect();
                    let got: Vec<u32> = got.iter().map(|s| s.to_bits()).collect();
                    proptest::prop_assert_eq!((got, p), (want, q));
                }
                proptest::prop_assert_eq!(kept.clock(), all.clock());
                for eps in [0.02f32, 0.1, 0.25, 0.5, 0.9] {
                    for selection in [HeadSelection::NaiveXi, HeadSelection::SingleHead] {
                        let head = selection.fixed_head(&xis, eps).expect("a fixed head");
                        if !heads.contains(&head) {
                            continue;
                        }
                        let fit = |view: &ScoredCalibration| {
                            fit_bits(&PooledConformal::fit_scored(view, &no_selection, &xis, selection, eps))
                        };
                        proptest::prop_assert_eq!(fit(kept.scored()), fit(all.scored()));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "head 3 is not kept (kept heads: [0, 2])")]
    fn gamma_of_an_unkept_head_panics_naming_it() {
        let mut w = WindowedScores::with_heads(8, 4, &[0, 2]);
        w.push(&[0.1, 0.2], 0.5, 0);
        let _ = w.scored().gamma(None, 3, 0.1);
    }

    #[test]
    #[should_panic(expected = "head 1 is not kept")]
    fn sorted_scores_of_an_unkept_head_panics_naming_it() {
        let mut w = WindowedScores::with_heads(8, 4, &[0, 2]);
        w.push(&[0.1, 0.2], 0.5, 0);
        let _ = w.scored().sorted_scores(1);
    }

    #[test]
    #[should_panic(expected = "are not ascending head ids of a 4-head model")]
    fn kept_heads_must_be_ascending_model_heads() {
        let _ = WindowedScores::with_heads(8, 4, &[0, 4]);
    }
}
