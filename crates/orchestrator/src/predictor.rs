//! Runtime predictors: the oracle, the scaling baseline, and Pitot.
//!
//! A placement policy never sees the ground truth; it sees a
//! [`RuntimePredictor`] answering "how long would workload `i` take on
//! platform `j` while `K` runs there?" — optionally with an upper bound at a
//! target miscoverage. The three implementations span the design space the
//! experiments compare:
//!
//! - [`OraclePredictor`] cheats with the simulator's ground truth (the
//!   unachievable floor);
//! - [`ScalingPredictor`] uses only the log-linear difficulty×speed baseline,
//!   which is interference-blind (what a naive orchestrator would ship);
//! - [`PitotPredictor`] wraps a trained Pitot model and, when fitted with
//!   conformal bounds, exposes calibrated runtime budgets.

use pitot::{Matrix, ScalingBaseline, TowerCache, TrainedPitot};
use pitot_conformal::PooledConformal;
use pitot_testbed::{Dataset, Observation, Testbed, MAX_INTERFERERS};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// Reusable rows of runtime queries, each "`workload` on `platform` next to
/// `interferers`", for one batched [`RuntimePredictor`] read.
///
/// Every row's interferers live in one flat buffer, so a caller that clears
/// and refills the same batch stops allocating once the buffers have grown
/// to its largest batch.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    rows: Vec<QueryRow>,
    ids: Vec<u32>,
}

/// One row of a [`QueryBatch`]: its interferers are `ids[start..end]`.
#[derive(Debug, Clone, Copy)]
struct QueryRow {
    workload: u32,
    platform: usize,
    start: usize,
    end: usize,
}

impl QueryBatch {
    /// Removes every row, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.ids.clear();
    }

    /// Appends the row "`workload` on `platform` next to `interferers`".
    pub fn push(
        &mut self,
        workload: u32,
        platform: usize,
        interferers: impl IntoIterator<Item = u32>,
    ) {
        let start = self.ids.len();
        self.ids.extend(interferers);
        self.rows.push(QueryRow {
            workload,
            platform,
            start,
            end: self.ids.len(),
        });
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows in push order, as `(workload, platform, interferers)`.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, usize, &[u32])> + '_ {
        self.rows
            .iter()
            .map(|r| (r.workload, r.platform, &self.ids[r.start..r.end]))
    }
}

/// Answers runtime queries for placement decisions.
///
/// Implementations must be deterministic *per query* in the orchestration
/// loop sense: repeated identical queries during one simulation may return
/// the same value (the oracle's Monte-Carlo bound is seeded per-predictor).
pub trait RuntimePredictor {
    /// Point estimate, in seconds, of `workload` on `platform` while the
    /// workloads in `interferers` run there simultaneously.
    fn predict_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64;

    /// Runtime budget, in seconds, sufficient with the predictor's configured
    /// confidence. Defaults to the point estimate (no uncertainty model).
    fn bound_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        self.predict_s(workload, platform, interferers)
    }

    /// [`RuntimePredictor::predict_s`] for every row of `batch`, written to
    /// `out` (cleared first) in row order. The default asks
    /// [`RuntimePredictor::predict_s`] once per row, in row order; a
    /// predictor that can answer a batch in one pass overrides it with the
    /// same values.
    fn predict_batch_s(&self, batch: &QueryBatch, out: &mut Vec<f64>) {
        out.clear();
        out.extend(batch.iter().map(|(w, p, k)| self.predict_s(w, p, k)));
    }

    /// [`RuntimePredictor::bound_s`] for every row of `batch`, written to
    /// `out` (cleared first) in row order. The default asks
    /// [`RuntimePredictor::bound_s`] once per row, in row order, so a
    /// predictor whose bound draws from a seeded stream (the oracle's
    /// Monte-Carlo rollouts) sees the same call sequence batched or not.
    fn bound_batch_s(&self, batch: &QueryBatch, out: &mut Vec<f64>) {
        out.clear();
        out.extend(batch.iter().map(|(w, p, k)| self.bound_s(w, p, k)));
    }

    /// Short display name for reports.
    fn name(&self) -> &str;
}

/// Ground-truth predictor: clean runtime plus the true interference slowdown.
///
/// Its bound is the empirical `1 − ε` quantile over Monte-Carlo rollouts of
/// the true noise model — the best any predictor could do. Only simulations
/// may construct this; prediction code cannot reach the ground truth.
#[derive(Debug)]
pub struct OraclePredictor<'a> {
    testbed: &'a Testbed,
    epsilon: f32,
    mc_samples: usize,
    rng: RefCell<ChaCha8Rng>,
}

impl<'a> OraclePredictor<'a> {
    /// Oracle with a 90%-confidence bound.
    pub fn new(testbed: &'a Testbed) -> Self {
        Self::with_epsilon(testbed, 0.1)
    }

    /// Oracle bounding at miscoverage `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ (0, 1)`.
    pub fn with_epsilon(testbed: &'a Testbed, epsilon: f32) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        Self {
            testbed,
            epsilon,
            mc_samples: 64,
            rng: RefCell::new(ChaCha8Rng::seed_from_u64(0x0AC1_E0AC)),
        }
    }

    fn clean_log(&self, workload: u32, platform: usize, interferers: &[u32]) -> f32 {
        let ws = self.testbed.workloads();
        let w = &ws[workload as usize];
        let others: Vec<&pitot_testbed::Workload> =
            interferers.iter().map(|&k| &ws[k as usize]).collect();
        let truth = self.testbed.truth();
        truth.clean_log_runtime(w, workload as usize, platform)
            + truth.interference_log_slowdown(w, &others, platform)
    }
}

impl RuntimePredictor for OraclePredictor<'_> {
    fn predict_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        self.clean_log(workload, platform, interferers).exp() as f64
    }

    fn bound_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        let ws = self.testbed.workloads();
        let w = &ws[workload as usize];
        let others: Vec<&pitot_testbed::Workload> =
            interferers.iter().map(|&k| &ws[k as usize]).collect();
        let others_idx: Vec<usize> = interferers.iter().map(|&k| k as usize).collect();
        let truth = self.testbed.truth();
        let rng = &mut *self.rng.borrow_mut();
        let mut samples: Vec<f32> = (0..self.mc_samples)
            .map(|_| {
                truth.sample_log_runtime(w, workload as usize, &others, &others_idx, platform, rng)
            })
            .collect();
        samples.sort_by(f32::total_cmp);
        let rank = (((1.0 - self.epsilon) * self.mc_samples as f32).ceil() as usize)
            .clamp(1, self.mc_samples);
        samples[rank - 1].exp() as f64
    }

    fn name(&self) -> &str {
        "oracle"
    }
}

/// Interference-blind predictor from the log-linear scaling baseline alone
/// (paper Eq 2): what an orchestrator would use if it only kept per-workload
/// and per-platform geometric means.
/// It has no uncertainty model, so its bound is its point estimate.
#[derive(Debug, Clone)]
pub struct ScalingPredictor {
    scaling: ScalingBaseline,
}

impl ScalingPredictor {
    /// Wraps a fitted scaling baseline.
    pub fn new(scaling: ScalingBaseline) -> Self {
        Self { scaling }
    }
}

impl RuntimePredictor for ScalingPredictor {
    fn predict_s(&self, workload: u32, platform: usize, _interferers: &[u32]) -> f64 {
        self.scaling.log_baseline(workload as usize, platform).exp() as f64
    }

    fn name(&self) -> &str {
        "scaling-baseline"
    }
}

/// Pitot-backed predictor with optional conformal bounds.
///
/// Tower outputs are computed once at construction and reused for every
/// query (the paper's ≈400 kFLOP inference cost is dominated by the
/// towers, which are shared across queries here). Every read looks its
/// inner products up in the completed-matrix tables of that tower cache
/// ([`TrainedPitot::lookup_log_heads_into`]), filling a (platform, head)'s
/// table the first time a row needs it, so once a site's tables are
/// filled a row costs a few lookups and adds per head. A batched read,
/// such as the rows of one placement decision, is one pass over query rows
/// and a prediction matrix the predictor reuses, scoring one head per row:
/// the median head for a point, and for a bound the head the row's pool is
/// calibrated on. A single-row read is a batch of one, so both answer
/// bitwise alike, and bitwise as [`TrainedPitot::predict_log_heads_into`]
/// would.
pub struct PitotPredictor<'a> {
    trained: &'a TrainedPitot,
    towers: TowerCache,
    bounds: Option<PooledConformal>,
    reads: RefCell<Reads>,
    name: String,
}

/// The reused buffers of one read pass: query rows (their interferer
/// buffers kept across refills) and the row-major prediction matrix.
#[derive(Default)]
struct Reads {
    rows: Vec<Observation>,
    preds: Matrix,
}

impl<'a> PitotPredictor<'a> {
    /// Point-prediction-only predictor (bounds fall back to the median head).
    pub fn new(trained: &'a TrainedPitot, dataset: &Dataset) -> Self {
        Self::with(trained, dataset, None, "pitot")
    }

    /// Predictor whose [`RuntimePredictor::bound_s`] answers with calibrated
    /// conformal budgets.
    pub fn with_bounds(
        trained: &'a TrainedPitot,
        dataset: &Dataset,
        bounds: PooledConformal,
    ) -> Self {
        Self::with(trained, dataset, Some(bounds), "pitot+conformal")
    }

    fn with(
        trained: &'a TrainedPitot,
        dataset: &Dataset,
        bounds: Option<PooledConformal>,
        name: &str,
    ) -> Self {
        Self {
            trained,
            towers: trained.tower_cache(dataset),
            bounds,
            reads: RefCell::default(),
            name: name.to_string(),
        }
    }

    /// The one read pass: refills the reused query rows, scores one head
    /// of each row in one [`TrainedPitot::lookup_log_heads_into`] pass,
    /// then hands each row's answer in seconds to `answer`, in row order. A
    /// `bounded` read answers with the runtime budget: the calibrated
    /// bound, read from the head its pool is calibrated on, or the median
    /// head without bounds. Any other read answers with the median head.
    fn read<'q>(
        &self,
        queries: impl IntoIterator<Item = (u32, usize, &'q [u32])>,
        bounded: bool,
        mut answer: impl FnMut(f64),
    ) {
        let reads = &mut *self.reads.borrow_mut();
        let mut n = 0;
        for (workload, platform, interferers) in queries {
            if n == reads.rows.len() {
                reads.rows.push(Observation {
                    workload: 0,
                    platform: 0,
                    interferers: Vec::new(),
                    runtime_s: 1.0, // unused by prediction
                });
            }
            let row = &mut reads.rows[n];
            row.workload = workload;
            row.platform = u32::try_from(platform).expect("platform index outside the catalog");
            row.interferers.clear();
            row.interferers.extend_from_slice(interferers);
            n += 1;
        }
        let rows = &reads.rows[..n];
        let bounds = self.bounds.as_ref().filter(|_| bounded);
        // Pools were calibrated per interference count; deeper co-location
        // than the training envelope reuses the deepest pool.
        let pool_of = |o: &Observation| o.interferers.len().min(MAX_INTERFERERS);
        self.trained.lookup_log_heads_into(
            &self.towers,
            rows,
            &[],
            |o| bounds.map_or(0, |b| b.calibration_for(pool_of(o)).head),
            &mut reads.preds,
        );
        for (o, head) in rows.iter().zip(reads.preds.iter_rows()) {
            let log_s = match bounds {
                Some(b) => head[0] + b.calibration_for(pool_of(o)).gamma,
                None => head[0],
            };
            answer(log_s.exp() as f64);
        }
    }
}

impl RuntimePredictor for PitotPredictor<'_> {
    fn predict_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        let mut out = f64::NAN;
        self.read([(workload, platform, interferers)], false, |s| out = s);
        out
    }

    fn bound_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        let mut out = f64::NAN;
        self.read([(workload, platform, interferers)], true, |s| out = s);
        out
    }

    fn predict_batch_s(&self, batch: &QueryBatch, out: &mut Vec<f64>) {
        out.clear();
        self.read(batch.iter(), false, |s| out.push(s));
    }

    fn bound_batch_s(&self, batch: &QueryBatch, out: &mut Vec<f64>) {
        out.clear();
        self.read(batch.iter(), true, |s| out.push(s));
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for PitotPredictor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PitotPredictor")
            .field("name", &self.name)
            .field("has_bounds", &self.bounds.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitot::{train, PitotConfig};
    use pitot_conformal::HeadSelection;
    use pitot_testbed::{split::Split, TestbedConfig};

    fn testbed() -> Testbed {
        Testbed::generate(&TestbedConfig::small())
    }

    #[test]
    fn query_batch_rows_round_trip_and_clear_keeps_capacity() {
        let mut batch = QueryBatch::default();
        assert!(batch.is_empty());
        batch.push(3, 1, [4, 5]);
        batch.push(0, 2, []);
        batch.push(7, 0, [7]);
        let rows: Vec<_> = batch.iter().collect();
        assert_eq!(
            rows,
            vec![(3, 1, &[4, 5][..]), (0, 2, &[][..]), (7, 0, &[7][..])]
        );
        assert_eq!(batch.len(), 3);
        let capacity = (batch.rows.capacity(), batch.ids.capacity());
        batch.clear();
        assert!(batch.is_empty() && batch.iter().next().is_none());
        assert_eq!((batch.rows.capacity(), batch.ids.capacity()), capacity);
    }

    #[test]
    fn default_batch_reads_follow_row_order() {
        // The oracle's bound consumes a seeded stream: a batched read must
        // draw exactly what the same single-row reads in row order draw.
        let tb = testbed();
        let mut batch = QueryBatch::default();
        for w in 0..6u32 {
            batch.push(w, (w % 3) as usize, (0..w % 4).map(|k| (k + w) % 10));
        }
        let single = OraclePredictor::with_epsilon(&tb, 0.1);
        let want: Vec<f64> = batch
            .iter()
            .map(|(w, p, k)| single.bound_s(w, p, k))
            .collect();
        let mut got = vec![f64::NAN; 2];
        OraclePredictor::with_epsilon(&tb, 0.1).bound_batch_s(&batch, &mut got);
        assert_eq!(got, want);
        let want: Vec<f64> = batch
            .iter()
            .map(|(w, p, k)| single.predict_s(w, p, k))
            .collect();
        single.predict_batch_s(&batch, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn oracle_prediction_matches_truth() {
        let tb = testbed();
        let oracle = OraclePredictor::new(&tb);
        let truth = tb.truth();
        let w = &tb.workloads()[0];
        let expected = truth.clean_log_runtime(w, 0, 0).exp() as f64;
        let got = oracle.predict_s(0, 0, &[]);
        assert!((got - expected).abs() / expected < 1e-5);
    }

    #[test]
    fn oracle_bound_exceeds_prediction() {
        let tb = testbed();
        let oracle = OraclePredictor::with_epsilon(&tb, 0.05);
        for w in 0..5u32 {
            let p = oracle.predict_s(w, 0, &[1, 2]);
            let b = oracle.bound_s(w, 0, &[1, 2]);
            assert!(b >= p * 0.8, "bound {b} far below prediction {p}");
        }
    }

    #[test]
    fn oracle_sees_interference() {
        let tb = testbed();
        let oracle = OraclePredictor::new(&tb);
        // Find a pair with nonzero slowdown somewhere.
        let mut seen_slowdown = false;
        'outer: for p in 0..tb.platforms().len() {
            for w in 0..tb.workloads().len().min(20) as u32 {
                let solo = oracle.predict_s(w, p, &[]);
                let busy = oracle.predict_s(w, p, &[(w + 1) % 10, (w + 2) % 10, (w + 3) % 10]);
                if busy > solo * 1.05 {
                    seen_slowdown = true;
                    break 'outer;
                }
            }
        }
        assert!(seen_slowdown, "oracle never showed interference slowdown");
    }

    #[test]
    fn scaling_predictor_is_interference_blind() {
        let tb = testbed();
        let ds = tb.collect_dataset();
        let split = Split::stratified(&ds, 0.5, 0);
        let scaling = ScalingBaseline::fit(&ds, &split.train);
        let pred = ScalingPredictor::new(scaling);
        assert_eq!(pred.predict_s(0, 0, &[]), pred.predict_s(0, 0, &[1, 2, 3]));
    }

    #[test]
    fn pitot_predictor_matches_trained_model() {
        let tb = testbed();
        let ds = tb.collect_dataset();
        let split = Split::stratified(&ds, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 120;
        let trained = train(&ds, &split, &cfg);
        let pred = PitotPredictor::new(&trained, &ds);

        // Query matching a real observation must agree with the dataset path.
        let oi = split.test[0];
        let o = &ds.observations[oi];
        let expected = trained.predict_runtime(&ds, &[oi])[0] as f64;
        let got = pred.predict_s(o.workload, o.platform as usize, &o.interferers);
        assert!(
            (got - expected).abs() / expected < 1e-4,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn pitot_batched_reads_match_row_by_row_reads_bitwise() {
        let tb = testbed();
        let ds = tb.collect_dataset();
        let split = Split::stratified(&ds, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = pitot::Objective::Quantiles(vec![0.5, 0.9, 0.95]);
        cfg.steps = 60;
        let trained = train(&ds, &split, &cfg);
        let bounds = trained.fit_bounds(&ds, 0.1, HeadSelection::TightestOnValidation);
        let nw = ds.n_workloads as u32;
        let mut batch = QueryBatch::default();
        for w in 0..40u32 {
            // Up to five interferers: past the deepest calibrated pool too.
            let depth = w % 6;
            batch.push(
                w % nw,
                (w as usize * 7) % ds.n_platforms,
                (0..depth).map(|k| (w + 3 * k + 1) % nw),
            );
        }
        for pred in [
            PitotPredictor::new(&trained, &ds),
            PitotPredictor::with_bounds(&trained, &ds, bounds),
        ] {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut got = vec![f64::NAN; 3];
            pred.predict_batch_s(&batch, &mut got);
            let want: Vec<f64> = batch
                .iter()
                .map(|(w, p, k)| pred.predict_s(w, p, k))
                .collect();
            assert_eq!(bits(&got), bits(&want), "{} points", pred.name());
            pred.bound_batch_s(&batch, &mut got);
            let want: Vec<f64> = batch
                .iter()
                .map(|(w, p, k)| pred.bound_s(w, p, k))
                .collect();
            assert_eq!(bits(&got), bits(&want), "{} bounds", pred.name());
        }
    }

    #[test]
    fn pitot_reads_are_the_full_row_answers_bitwise() {
        // Every read scores the median head and, for a bound, the one head
        // its pool is calibrated on: each answer must be bitwise what the
        // every-head row gives, with and without bounds, under a fit whose
        // pools pick different heads.
        let tb = testbed();
        let ds = tb.collect_dataset();
        let split = Split::stratified(&ds, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = pitot::Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        cfg.steps = 200;
        let trained = train(&ds, &split, &cfg);
        let bounds = [0.1f32, 0.05, 0.2, 0.02, 0.3]
            .into_iter()
            .map(|eps| trained.fit_bounds(&ds, eps, HeadSelection::TightestOnValidation))
            .find(|b| {
                let mut heads = b.pool_calibrations().values().map(|c| c.head);
                let first = heads.next();
                heads.any(|h| Some(h) != first)
            })
            .expect("some ε picks different heads in different pools");
        let towers = trained.tower_cache(&ds);
        let nw = ds.n_workloads as u32;
        let mut batch = QueryBatch::default();
        for w in 0..40u32 {
            batch.push(
                w % nw,
                (w as usize * 5) % ds.n_platforms,
                (0..w % 6).map(|k| (w + 2 * k + 1) % nw),
            );
        }
        // The every-head row of each query.
        let mut row = Matrix::default();
        let full: Vec<Vec<f32>> = batch
            .iter()
            .map(|(w, p, k)| {
                let o = Observation {
                    workload: w,
                    platform: p as u32,
                    interferers: k.to_vec(),
                    runtime_s: 1.0,
                };
                trained.predict_log_runtime_into(&towers, &[o], &mut row);
                row.row(0).to_vec()
            })
            .collect();
        let pools = batch.iter().map(|(_, _, k)| k.len().min(MAX_INTERFERERS));
        let points: Vec<u64> = full
            .iter()
            .map(|h| f64::from(h[0].exp()).to_bits())
            .collect();
        let calibrated: Vec<u64> = full
            .iter()
            .zip(pools)
            .map(|(h, pool)| f64::from(bounds.bound_log(h, pool).exp()).to_bits())
            .collect();
        for (pred, budgets) in [
            (PitotPredictor::new(&trained, &ds), &points),
            (
                PitotPredictor::with_bounds(&trained, &ds, bounds.clone()),
                &calibrated,
            ),
        ] {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut got = Vec::new();
            pred.predict_batch_s(&batch, &mut got);
            assert_eq!(&bits(&got), &points, "{} points", pred.name());
            pred.bound_batch_s(&batch, &mut got);
            assert_eq!(&bits(&got), budgets, "{} budgets", pred.name());
            let single: Vec<f64> = batch
                .iter()
                .map(|(w, p, k)| pred.bound_s(w, p, k))
                .collect();
            assert_eq!(&bits(&single), budgets, "{} single budgets", pred.name());
        }
    }

    #[test]
    fn pitot_bounds_dominate_median_for_busy_platforms() {
        let tb = testbed();
        let ds = tb.collect_dataset();
        let split = Split::stratified(&ds, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = pitot::Objective::Quantiles(vec![0.5, 0.9, 0.95]);
        cfg.steps = 250;
        let trained = train(&ds, &split, &cfg);
        let bounds = trained.fit_bounds(&ds, 0.1, HeadSelection::TightestOnValidation);
        let pred = PitotPredictor::with_bounds(&trained, &ds, bounds);
        let mut above = 0usize;
        let mut total = 0usize;
        for w in 0..20u32 {
            let point = pred.predict_s(w, 0, &[21, 22]);
            let bound = pred.bound_s(w, 0, &[21, 22]);
            total += 1;
            if bound >= point {
                above += 1;
            }
        }
        assert!(
            above * 10 >= total * 8,
            "bounds above median only {above}/{total}"
        );
    }
}
