//! The streaming prediction server.

use crate::config::ServeConfig;
use crate::drift::CoverageMonitor;
use crate::guard::{self, GuardStats, IngestGuard, QuarantineCause, QuarantineRecord};
use crate::WatchdogIncident;
use pitot::{TowerCache, TrainContext, TrainedPitot};
use pitot_conformal::{
    CalibrationView, HeadSelection, MergeableWindow, PooledConformal, PredictionSet, WindowedScores,
};
use pitot_linalg::Matrix;
use pitot_orchestrator::QueryBatch;
use pitot_testbed::{split::Split, Dataset, Observation};
use std::collections::VecDeque;
use std::sync::Arc;

/// One input to the serving loop, delivered at a simulated timestamp.
/// Reads are not events: they are answered synchronously by
/// [`PitotServer::query_now`] and [`PitotServer::query_batch`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A measured runtime arrives from the cluster (a completed job, a
    /// benchmark rerun, a telemetry sample).
    Observe(Observation),
}

/// A served prediction: point estimate plus calibrated upper bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Correlation id; every answer carries `0`.
    pub id: u64,
    /// Point estimate in seconds (head 0: the median / squared head).
    pub point_s: f32,
    /// Runtime budget in seconds sufficient with probability `1 − ε`.
    pub bound_s: f32,
    /// Calibration pool the bound came from.
    pub pool: usize,
    /// Whether the answer was served in degraded mode: the served
    /// calibration is the honestly widened local-window fallback a fleet
    /// installs into a replica whose calibration went stale beyond
    /// [`ServeConfig::staleness_threshold`]. Always `false` outside a fleet
    /// and while staleness tracking is disabled.
    pub degraded: bool,
}

/// Prequential feedback for one arriving observation: how the bound served
/// *before* seeing the runtime fared against it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedFeedback {
    /// Whether the served bound covered the realized runtime.
    pub covered: bool,
    /// The served log-space bound.
    pub bound_log: f32,
    /// The realized log runtime.
    pub target_log: f32,
    /// Whether this arrival refit the served calibration (on the refresh
    /// cadence, or after a watchdog rollback that purged something). Never
    /// set on a fleet replica, whose calibration only changes through the
    /// fleet's installs.
    pub refreshed: bool,
    /// Whether this arrival triggered a warm-start fine-tune.
    pub fine_tuned: bool,
    /// Whether the judged bound was served in degraded (stale-fallback)
    /// mode — see [`Prediction::degraded`].
    pub degraded: bool,
}

/// What one [`PitotServer::on_event`] call produced.
#[derive(Debug, Clone, Default)]
pub struct ServeResponse {
    /// Present iff the event was an observation **accepted** by ingest
    /// (quarantined observations are never judged, windowed, or
    /// monitored, so they produce no prequential feedback).
    pub observed: Option<ObservedFeedback>,
    /// Present iff the event was an observation ingest quarantined (see
    /// [`crate::GuardStats`]): a runtime that is not a positive finite
    /// duration, on any server, or a MAD-screen outlier while
    /// [`ServeConfig::ingest_guard`] is on.
    pub quarantined: Option<QuarantineRecord>,
}

/// Counters for a serving session.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Observations consumed.
    pub observations: usize,
    /// Queries answered.
    pub queries: usize,
    /// Conformal refreshes performed.
    pub refreshes: usize,
    /// Warm-start fine-tunes performed.
    pub fine_tunes: usize,
    /// Prequentially covered observations (served bound ≥ realized runtime).
    pub covered: usize,
    /// Observations judged prequentially (denominator for coverage).
    pub bounded: usize,
    /// Observations judged under a degraded (stale-fallback) calibration.
    pub degraded_bounded: usize,
    /// Degraded-mode judged observations the fallback bound covered.
    pub degraded_covered: usize,
}

impl ServeStats {
    /// Prequential empirical coverage over the whole session (`NaN` before
    /// any observation).
    pub fn coverage(&self) -> f32 {
        if self.bounded == 0 {
            f32::NAN
        } else {
            self.covered as f32 / self.bounded as f32
        }
    }
}

/// A calibration as a server serves it: the fit, and whether it is the
/// widened stale-mode fallback a fleet installs into a replica cut off from
/// fresh calibrations. A fleet replica's server and the concurrent read
/// path's snapshot of it share one `Arc`.
#[derive(Debug)]
pub(crate) struct Served {
    pub(crate) conformal: PooledConformal,
    pub(crate) degraded: bool,
}

impl Served {
    /// A calibration served at its nominal miscoverage.
    pub(crate) fn fresh(conformal: PooledConformal) -> Arc<Self> {
        Arc::new(Self {
            conformal,
            degraded: false,
        })
    }
}

/// Fits a served calibration on a view of window scores: one rank-select
/// per `(pool, head)`. Every calibration this crate fits comes from here: a
/// standalone refresh, a fleet's stale-local fallback, and its coordinator,
/// gossip and retry fits. The fit reads no selection set, because
/// [`ServeConfig::validate`] admits only the policies that need none (see
/// [`ServeConfig::selection`]).
pub(crate) fn fit_served<C: CalibrationView>(
    view: &C,
    xis: &[f32],
    selection: HeadSelection,
    epsilon: f32,
) -> PooledConformal {
    let no_selection_set = PredictionSet {
        predictions: &[],
        targets_log: &[],
        pools: &[],
    };
    PooledConformal::fit_scored(view, &no_selection_set, xis, selection, epsilon)
}

/// The head the served bound of `pool` is read from, out of `n_heads`: the
/// head the served calibration picked for the pool, or, before the first
/// calibration exists, the highest head — conservative but uncalibrated.
pub(crate) fn bound_head(served: Option<&Served>, pool: usize, n_heads: usize) -> usize {
    served.map_or(n_heads - 1, |s| s.conformal.calibration_for(pool).head)
}

/// Log-space `(bound, degraded)` under the served calibration, from the
/// prediction of `pool`'s [`bound_head`].
fn served_bound(served: Option<&Served>, head_pred: f32, pool: usize) -> (f32, bool) {
    match served {
        Some(s) => (
            head_pred + s.conformal.calibration_for(pool).gamma,
            s.degraded,
        ),
        None => (head_pred, false),
    }
}

/// The [`Prediction`] for one query's `[head 0, bound head]` log-runtime
/// pair (see [`TrainedPitot::predict_log_heads_into`]) under the
/// served calibration: the one constructor of every answer, on a standalone
/// server and on the concurrent runtime's read path alike.
pub(crate) fn prediction(served: Option<&Served>, pair: &[f32], pool: usize) -> Prediction {
    let (bound, degraded) = served_bound(served, pair[1], pool);
    Prediction {
        id: 0,
        point_s: pair[0].exp(),
        bound_s: bound.exp(),
        pool,
        degraded,
    }
}

/// A query row as the read path scores it: an observation whose index
/// fields the model reads (the runtime is a placeholder). Refill it with
/// [`refill`], which keeps its interferer buffer, so reused rows stop
/// allocating once warm.
pub(crate) fn query_row() -> Observation {
    Observation {
        workload: 0,
        platform: 0,
        interferers: Vec::new(),
        runtime_s: 1.0, // unused by prediction
    }
}

/// Overwrites a query row's index fields in place.
pub(crate) fn refill(row: &mut Observation, workload: u32, platform: u32, interferers: &[u32]) {
    row.workload = workload;
    row.platform = platform;
    row.interferers.clear();
    row.interferers.extend_from_slice(interferers);
}

/// A placement platform index as a catalog id.
///
/// # Panics
///
/// Panics if the index does not fit one.
pub(crate) fn catalog_id(platform: usize) -> u32 {
    u32::try_from(platform).expect("platform index outside the catalog")
}

/// The rows of `batch` with each platform index as a catalog id
/// ([`catalog_id`], which panics as the rows are drawn).
pub(crate) fn catalog_rows(batch: &QueryBatch) -> impl Iterator<Item = (u32, u32, &[u32])> {
    batch
        .iter()
        .map(|(workload, platform, interferers)| (workload, catalog_id(platform), interferers))
}

/// The log-runtime columns a read scores per row.
#[derive(Debug, Clone, Copy)]
enum Columns {
    /// Head 0, then the head the row's pool bound reads (a bound head of 0
    /// scores nothing more): the pair a [`Prediction`] is built from.
    PointAndBound,
    /// Head 0 alone.
    Point,
    /// The head the row's pool bound reads, alone.
    Bound,
}

/// Where a read's inner products come from: computed from the tower
/// outputs, or looked up in the tower cache's tables (see
/// [`TrainedPitot::lookup_log_heads_into`]). Both answer bitwise alike.
#[derive(Debug, Clone, Copy)]
enum Products {
    Computed,
    LookedUp,
}

/// What the window's score ring cannot give back about one entry.
#[derive(Debug, Clone)]
struct WindowEntry {
    /// The log runtime, for a watchdog rollback's audit. `NaN` for an entry
    /// restored from a summary: its runtime never reached this instance.
    target_log: f32,
    /// Index into the server's (growing) dataset, for a fine-tune's
    /// rescore; `None` when fine-tuning is disabled and arrivals are not
    /// recorded.
    obs_idx: Option<usize>,
}

/// The streaming prediction service (see the crate docs for the full
/// architecture).
///
/// Holds its model, the dataset (arrivals are appended so fine-tunes can
/// train on them), the cached tower outputs, the sliding calibration
/// window, and the currently served calibration. The window keeps a score
/// for the heads a fit reads ([`PitotServer::kept_heads`]), and an
/// arriving observation scores only those and the head its judged bound
/// reads. The model, dataset and tower cache sit behind `Arc`s, so the
/// replicas of a fleet share one copy of each; only a fine-tune's append
/// and compaction copy the dataset, and a fine-tune installs a fresh model
/// and cache. Everything is deterministic: the same event sequence yields
/// bitwise-identical predictions and fine-tune trajectories.
pub struct PitotServer {
    cfg: ServeConfig,
    dataset: Arc<Dataset>,
    /// Observation count of the dataset the server was built with; streamed
    /// arrivals are appended after this index (and compacted back to it).
    base_len: usize,
    trained: Arc<TrainedPitot>,
    towers: Arc<TowerCache>,
    xis: Vec<f32>,
    window: WindowedScores,
    raw: VecDeque<WindowEntry>,
    conformal: Option<Arc<Served>>,
    /// Window clock at the last install/refresh of `conformal` (staleness
    /// is measured against it; `None` until the first calibration exists).
    installed_clock: Option<u64>,
    monitor: CoverageMonitor,
    ctx: Option<TrainContext>,
    ctx_seen: usize,
    /// Dataset indices of streamed observations (fine-tune pool).
    seen: Vec<usize>,
    seen_isolation: usize,
    since_refresh: usize,
    since_tune: usize,
    /// The reads' query rows, reused across calls.
    reads: Vec<Observation>,
    /// The observation batch being scored, reused across batches.
    arrivals: Vec<Observation>,
    /// Row-major `rows × heads` log-runtime predictions of the latest
    /// scoring pass (a read, an observation batch, a seed or a rescore),
    /// reused across passes.
    preds: Matrix,
    now_s: f64,
    stats: ServeStats,
    guard: IngestGuard,
    /// Watchdog firings, newest last (bounded like the quarantine ring).
    incidents: Vec<WatchdogIncident>,
}

impl std::fmt::Debug for PitotServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PitotServer")
            .field("epsilon", &self.cfg.epsilon)
            .field("window_len", &self.window.len())
            .field("has_conformal", &self.conformal.is_some())
            .field("has_ctx", &self.ctx.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PitotServer {
    /// Minimum streamed isolation observations before a fine-tune may run
    /// (the training loop requires a non-empty isolation batch pool).
    pub const MIN_FINE_TUNE_ISOLATION: usize = 8;

    /// Builds a server around a trained model and the dataset it will
    /// stream against. The calibration window starts empty — prime it with
    /// [`PitotServer::seed_calibration`] (or let arriving observations fill
    /// it; until the first refresh, bounds fall back to the highest
    /// quantile head, uncalibrated).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new(trained: TrainedPitot, dataset: Dataset, cfg: ServeConfig) -> Self {
        cfg.validate();
        let heads = cfg.kept_heads(&trained.model.config().objective.xis());
        let towers = Arc::new(trained.tower_cache(&dataset));
        Self::shared(Arc::new(trained), Arc::new(dataset), towers, cfg, &heads)
    }

    /// A server over shared model state whose window keeps `heads`, as the
    /// fleet core builds every replica (with the fleet's kept heads). A
    /// server over compressed `towers` must not fine-tune, which fleet
    /// validation guarantees.
    pub(crate) fn shared(
        trained: Arc<TrainedPitot>,
        dataset: Arc<Dataset>,
        towers: Arc<TowerCache>,
        cfg: ServeConfig,
        heads: &[usize],
    ) -> Self {
        cfg.validate();
        let xis = trained.model.config().objective.xis();
        let n_heads = trained.model.n_heads();
        let window = WindowedScores::with_heads(cfg.window, n_heads, heads);
        let monitor = CoverageMonitor::new(
            cfg.epsilon,
            cfg.drift_window,
            ServeConfig::DRIFT_Z,
            cfg.drift_min,
        );
        let since_tune = cfg.fine_tune_cooldown;
        let base_len = dataset.observations.len();
        let guard = IngestGuard::new(ServeConfig::QUARANTINE_RETAIN);
        Self {
            cfg,
            dataset,
            base_len,
            trained,
            towers,
            xis,
            window,
            raw: VecDeque::new(),
            conformal: None,
            installed_clock: None,
            monitor,
            ctx: None,
            ctx_seen: 0,
            seen: Vec::new(),
            seen_isolation: 0,
            since_refresh: 0,
            since_tune,
            reads: Vec::new(),
            arrivals: Vec::new(),
            preds: Matrix::default(),
            now_s: f64::NEG_INFINITY,
            stats: ServeStats::default(),
            guard,
            incidents: Vec::new(),
        }
    }

    /// Primes the calibration window from existing dataset indices (e.g.
    /// the trained split's validation half) and fits the first served
    /// calibration. Seeded entries do not count as streamed observations:
    /// they neither feed the drift monitor nor join the fine-tune pool.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty or contains an out-of-range index.
    pub fn seed_calibration(&mut self, idx: &[usize]) {
        assert!(!idx.is_empty(), "cannot seed from an empty index set");
        // Seed from the window-capacity *suffix* so the most recent
        // capacity-many entries of `idx` survive.
        let tail = &idx[idx.len().saturating_sub(self.cfg.window)..];
        let obs: Vec<&Observation> = tail
            .iter()
            .map(|&i| &self.dataset.observations[i])
            .collect();
        let mut preds = std::mem::take(&mut self.preds);
        self.score_kept(&obs, &mut preds);
        for (&i, row) in tail.iter().zip(preds.iter_rows()) {
            let o = &self.dataset.observations[i];
            let pool = self.cfg.pool_key(o.interferers.len());
            self.window_push(row, o.log_runtime(), pool, Some(i));
        }
        self.preds = preds;
        self.refresh();
    }

    /// Scores the kept heads of `obs` in one pass into `preds`: row `b`
    /// holds the kept heads of `obs[b]`, then a copy of its head 0 (a row
    /// of the observation pass with no bound head to add).
    fn score_kept(&self, obs: &[&Observation], preds: &mut Matrix) {
        self.trained
            .predict_log_heads_into(&self.towers, obs, self.window.heads(), |_| 0, preds);
    }

    /// Pushes one entry into the sliding window and its record ring, given
    /// a row of the observation pass (its leading kept-head columns are the
    /// entry's predictions). The record ring's eviction is driven by
    /// [`WindowedScores::push`]'s return value, so the two rings cannot
    /// drift apart.
    fn window_push(&mut self, row: &[f32], target_log: f32, pool: usize, obs_idx: Option<usize>) {
        let kept = self.window.heads().len();
        let evicted = self.window.push(&row[..kept], target_log, pool);
        self.raw.push_back(WindowEntry {
            target_log,
            obs_idx,
        });
        if evicted.is_some() {
            self.raw.pop_front();
        }
        // The record ring and the score window must never drift apart (the
        // rollback and rescore paths zip them); two length reads per push
        // are cheap enough to check unconditionally.
        assert_eq!(self.raw.len(), self.window.len());
    }

    /// Consumes one event at simulated time `at_s` (must be monotone
    /// non-decreasing across calls).
    ///
    /// # Panics
    ///
    /// Panics if the clock runs backwards, or an observation references an
    /// out-of-catalog workload, platform, or interferer. An observed
    /// runtime that is not positive and finite does not panic: it is
    /// quarantined into the audited side buffer (see
    /// [`PitotServer::guard_stats`]), guarded or not.
    pub fn on_event(&mut self, at_s: f64, event: Event) -> ServeResponse {
        let Event::Observe(obs) = event;
        let mut resp = None;
        self.observe_batch([(at_s, obs)], |r| resp = Some(r));
        resp.expect("a batch of one has one response")
    }

    /// Consumes a batch of timestamped observations: one
    /// [`TrainedPitot::predict_log_heads_into`] pass scores each arrival's
    /// kept heads ([`PitotServer::kept_heads`]) and the head its judged
    /// bound reads into the reused matrix, then each is applied in order
    /// and its response passed to `respond`. [`on_event`](Self::on_event)
    /// is a batch of one; the concurrent runtime hands each replica its
    /// share of a lane batch. Batched prediction is bitwise a batch of one
    /// (a pinned property), so both see identical state transitions.
    pub(crate) fn observe_batch(
        &mut self,
        batch: impl IntoIterator<Item = (f64, Observation)>,
        mut respond: impl FnMut(ServeResponse),
    ) {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for (at_s, obs) in batch {
            // Nothing below reads the clock, so it advances here; scoring
            // indexes the catalog, so screen it first.
            self.tick(at_s);
            self.check_catalog(obs.workload, obs.platform, &obs.interferers);
            arrivals.push(obs);
        }
        let mut preds = std::mem::take(&mut self.preds);
        let served = self.conformal.as_deref();
        let (cfg, n_heads) = (&self.cfg, self.trained.model.n_heads());
        self.trained.predict_log_heads_into(
            &self.towers,
            &arrivals,
            self.window.heads(),
            |o| bound_head(served, cfg.pool_key(o.interferers.len()), n_heads),
            &mut preds,
        );
        for (obs, row) in arrivals.drain(..).zip(preds.iter_rows()) {
            respond(self.on_observation(obs, row));
        }
        self.arrivals = arrivals;
        self.preds = preds;
    }

    /// Applies one scored observation, given its row of the observation
    /// pass: a prediction per kept head, then the bound head's.
    fn on_observation(&mut self, obs: Observation, row: &[f32]) -> ServeResponse {
        self.stats.observations += 1;
        let pool = self.cfg.pool_key(obs.interferers.len());
        let target_log = obs.log_runtime();

        // 0. Ingest screen: a corrupt runtime (on every server) or, while
        // the ingest guard is on, a score far outside the window's robust
        // MAD band is quarantined *before* being judged — corrupt telemetry
        // must poison neither the calibration window nor the coverage
        // statistics the watchdog trusts. Head 0 is the first kept head.
        let score = target_log - row[0];
        let screened = IngestGuard::runtime_cause(obs.runtime_s)
            .map(|cause| (cause, None))
            .or_else(|| {
                (self.cfg.ingest_guard
                    && self.cfg.guard_mad_k > 0.0
                    && self.window.len() >= self.cfg.guard_min_n
                    && guard::is_mad_outlier(
                        self.window.scored().sorted_scores(0),
                        score,
                        self.cfg.guard_mad_k,
                    ))
                .then_some((QuarantineCause::MadOutlier, Some(score)))
            });
        if let Some((cause, score)) = screened {
            let at = self.stats.observations as u64;
            let record = self.guard.quarantine(at, obs.runtime_s, score, cause);
            return ServeResponse {
                quarantined: Some(record),
                ..ServeResponse::default()
            };
        }

        // 1. Prequential judgement against the *currently served* bound.
        // The pass scored the bound head of the calibration served when the
        // batch was scored. An earlier arrival of the batch may have refit
        // it since, and a refit reads a kept head.
        let served = self.conformal.as_deref();
        let head = bound_head(served, pool, self.window.n_heads());
        let kept = self.window.heads();
        let head_pred = row[kept.iter().position(|&h| h == head).unwrap_or(kept.len())];
        let (bound_log, degraded) = served_bound(served, head_pred, pool);
        let covered = target_log <= bound_log;
        self.monitor.push(covered);
        self.stats.bounded += 1;
        if covered {
            self.stats.covered += 1;
        }
        if degraded {
            self.stats.degraded_bounded += 1;
            if covered {
                self.stats.degraded_covered += 1;
            }
        }

        // 2. Record the arrival for fine-tuning (when enabled).
        let obs_idx = if self.cfg.fine_tune_steps > 0 {
            if obs.interferers.is_empty() {
                self.seen_isolation += 1;
            }
            let observations = &mut Arc::make_mut(&mut self.dataset).observations;
            observations.push(obs);
            let i = observations.len() - 1;
            self.seen.push(i);
            Some(i)
        } else {
            None
        };

        // 3. Slide the calibration window, then bound the fine-tune pool.
        self.window_push(row, target_log, pool, obs_idx);
        self.maybe_compact_streamed();

        // 4. Refresh the served calibration on cadence.
        self.since_refresh += 1;
        let mut refreshed = self.since_refresh >= self.cfg.refresh_every;
        if refreshed {
            self.refresh();
        }

        // 4b. Miscoverage watchdog: poisoning the ingest screen missed
        // shows up as sustained undercoverage on *accepted* telemetry —
        // quarantine-rollback the window.
        if self.cfg.watchdog_z > 0.0
            && self
                .monitor
                .undercovering_by(self.cfg.watchdog_z, self.cfg.watchdog_min)
        {
            refreshed |= self.watchdog_rollback();
        }

        // 5. Fine-tune when the monitor says the model itself drifted.
        self.since_tune += 1;
        let fine_tuned = self.should_fine_tune() && self.fine_tune();

        ServeResponse {
            observed: Some(ObservedFeedback {
                covered,
                bound_log,
                target_log,
                refreshed,
                fine_tuned,
                degraded,
            }),
            ..ServeResponse::default()
        }
    }

    /// Answers one query immediately — the single-row read a fleet replica
    /// makes for a deadline query: a [`PitotServer::query_batch`] of one,
    /// counted in [`ServeStats::queries`]. Once warm, the read reuses the
    /// server's query row and prediction matrix and allocates nothing.
    pub fn query_now(&mut self, workload: u32, platform: u32, interferers: &[u32]) -> Prediction {
        let mut answer = None;
        self.read(
            [(workload, platform, interferers)],
            Columns::PointAndBound,
            Products::Computed,
        );
        self.answer_reads(|p| answer = Some(p));
        answer.expect("a batch of one has one answer")
    }

    /// Answers every row of `rows` in one prediction pass, passing each
    /// answer to `answer` in row order: bitwise each row's
    /// [`PitotServer::query_now`] answer, and counted per row in
    /// [`ServeStats::queries`]. The pass computes its inner products, as
    /// `query_now` does; a placement decision through
    /// [`crate::ServingPredictor`] makes the same read with each one looked
    /// up in the tower cache's tables. Once warm, it reuses the server's
    /// query rows and prediction matrix and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a row's platform index does not fit a catalog id.
    pub fn query_batch(&mut self, rows: &QueryBatch, answer: impl FnMut(Prediction)) {
        self.read(
            catalog_rows(rows),
            Columns::PointAndBound,
            Products::Computed,
        );
        self.answer_reads(answer);
    }

    /// The served bound, in seconds, of every row of `rows`, passed to
    /// `bound_s` in row order: the [`PitotServer::query_batch`] pass scoring
    /// only the head each row's pool bound reads, with every inner product
    /// looked up in the tower cache's tables
    /// ([`TrainedPitot::lookup_log_heads_into`]), so each answer is bitwise
    /// that row's [`Prediction::bound_s`]. The bound read of
    /// [`crate::ServingPredictor`]; counted per row in
    /// [`ServeStats::queries`].
    pub(crate) fn lookup_bounds<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (u32, u32, &'a [u32])>,
        mut bound_s: impl FnMut(f32),
    ) {
        self.read(rows, Columns::Bound, Products::LookedUp);
        let served = self.conformal.as_deref();
        for (o, bound) in self.reads.iter().zip(self.preds.iter_rows()) {
            let pool = self.cfg.pool_key(o.interferers.len());
            bound_s(served_bound(served, bound[0], pool).0.exp());
        }
    }

    /// The point estimate, in seconds, of every row of `rows`, passed to
    /// `point_s` in row order: the [`PitotServer::lookup_bounds`] pass
    /// scoring head 0 instead, so each answer is bitwise that row's
    /// [`Prediction::point_s`]. Counted per row in [`ServeStats::queries`].
    pub(crate) fn lookup_points<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (u32, u32, &'a [u32])>,
        mut point_s: impl FnMut(f32),
    ) {
        self.read(rows, Columns::Point, Products::LookedUp);
        for point in self.preds.iter_rows() {
            point_s(point[0].exp());
        }
    }

    /// The one read pass: refills the reused query rows and makes a single
    /// [`TrainedPitot::predict_log_heads_into`] over them into the reused
    /// matrix, or its [`TrainedPitot::lookup_log_heads_into`] twin, scoring
    /// the `columns` of each row. Counts the rows in
    /// [`ServeStats::queries`].
    fn read<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (u32, u32, &'a [u32])>,
        columns: Columns,
        products: Products,
    ) {
        let mut n = 0;
        for (workload, platform, interferers) in rows {
            if n == self.reads.len() {
                self.reads.push(query_row());
            }
            refill(&mut self.reads[n], workload, platform, interferers);
            n += 1;
        }
        let served = self.conformal.as_deref();
        let (cfg, n_heads) = (&self.cfg, self.trained.model.n_heads());
        let heads: &[usize] = match columns {
            Columns::PointAndBound => &[0],
            Columns::Point | Columns::Bound => &[],
        };
        let bound_head = |o: &Observation| match columns {
            Columns::Point => 0,
            Columns::PointAndBound | Columns::Bound => {
                bound_head(served, cfg.pool_key(o.interferers.len()), n_heads)
            }
        };
        let (rows, preds) = (&self.reads[..n], &mut self.preds);
        match products {
            Products::Computed => {
                self.trained
                    .predict_log_heads_into(&self.towers, rows, heads, bound_head, preds)
            }
            Products::LookedUp => {
                self.trained
                    .lookup_log_heads_into(&self.towers, rows, heads, bound_head, preds)
            }
        }
        self.stats.queries += n;
    }

    /// Answers each row of the last [`read`](Self::read) under the served
    /// calibration, in order (the prediction matrix holds that read's rows).
    fn answer_reads(&self, mut answer: impl FnMut(Prediction)) {
        let served = self.conformal.as_deref();
        for (o, pair) in self.reads.iter().zip(self.preds.iter_rows()) {
            answer(prediction(
                served,
                pair,
                self.cfg.pool_key(o.interferers.len()),
            ));
        }
    }

    /// Session counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The currently served model.
    pub fn trained(&self) -> &TrainedPitot {
        &self.trained
    }

    /// The currently served calibration (absent until the window first
    /// refreshes).
    pub fn conformal(&self) -> Option<&PooledConformal> {
        self.conformal.as_deref().map(|s| &s.conformal)
    }

    /// The served calibration with its degraded tag, as shared with a
    /// fleet's read path.
    pub(crate) fn served(&self) -> Option<&Arc<Served>> {
        self.conformal.as_ref()
    }

    /// Replaces the served calibration with an externally fitted one — the
    /// install path a fleet coordinator uses after merging replica windows
    /// (see [`crate::FleetServer`]). The local window keeps accumulating;
    /// a later local refresh (if the refresh cadence ever fires) would
    /// overwrite this, so fleet deployments set
    /// [`ServeConfig::refresh_every`] to `usize::MAX` and let the
    /// coordinator own every refresh.
    pub fn install_calibration(&mut self, conformal: PooledConformal) {
        self.install(Served::fresh(conformal));
    }

    /// [`install_calibration`](Self::install_calibration) of a shared,
    /// possibly degraded calibration — every change a fleet makes to a
    /// replica's served calibration goes through here.
    pub(crate) fn install(&mut self, served: Arc<Served>) {
        self.conformal = Some(served);
        // An install resets staleness: the calibration is current as of
        // everything this window has seen.
        self.installed_clock = Some(self.window.clock());
    }

    /// Pushes since the served calibration was installed or refreshed (the
    /// eviction clock's distance): the staleness a fleet's stale-local
    /// fallback triggers on. `0` while no calibration is installed.
    pub fn staleness(&self) -> u64 {
        match self.installed_clock {
            Some(c) => self.window.clock().saturating_sub(c),
            None => 0,
        }
    }

    /// Rebuilds the calibration window of a **fresh** server from a merged
    /// summary's per-replica entries (see
    /// [`pitot_conformal::MergeableWindow::replica_entries`]) — the warm
    /// crash-recovery path: a rejoining replica replays the coordinator's
    /// held snapshot of its pre-crash window instead of starting cold.
    /// Each entry holds one score per head of [`PitotServer::kept_heads`],
    /// in order, as a run of a window keeping the same heads replays.
    ///
    /// Restored entries are scores only: every calibration fit on them is
    /// bitwise the fit on the originals, but no observation or runtime
    /// behind them reached this instance. A watchdog rollback audits a
    /// purged restored entry with a `NaN` runtime, and a fine-tune could
    /// not re-predict them — hence the restriction below. The window clock
    /// is advanced to `clock` so coordinator unchanged-window skips and
    /// snapshot supersession stay consistent across the crash.
    ///
    /// # Panics
    ///
    /// Panics if the server has already seen window entries, if `entries`
    /// exceeds the window capacity, if an entry does not hold one score per
    /// kept head, or if the config fine-tunes.
    pub fn restore_window(&mut self, entries: Vec<pitot_conformal::ReplayEntry>, clock: u64) {
        assert!(
            self.window.is_empty() && self.raw.is_empty(),
            "restore_window requires a fresh server (window already has \
             {} entries)",
            self.window.len()
        );
        assert!(
            entries.len() <= self.cfg.window,
            "restore_window got {} entries for a window of capacity {}",
            entries.len(),
            self.cfg.window
        );
        assert!(
            self.cfg.fine_tune_steps == 0,
            "restore_window restores scores only: a fine-tune would have \
             to re-predict entries with no observation behind them (fleet \
             mode forbids fine-tuning already)"
        );
        for (scores, pool) in entries {
            self.raw.push_back(WindowEntry {
                target_log: f32::NAN,
                obs_idx: None,
            });
            self.window.push_scores(scores, pool);
        }
        assert_eq!(self.raw.len(), self.window.len());
        if clock > self.window.clock() {
            self.window.advance_clock(clock);
        }
    }

    /// Snapshots the server's calibration window as a mergeable summary
    /// under the given replica id — the message a replica sends its fleet
    /// coordinator. Its run holds the sorted slices of the kept heads
    /// ([`PitotServer::kept_heads`]) and names them; cost is a copy of those
    /// slices, with no re-sorting.
    pub fn window_summary(&self, replica: u64) -> MergeableWindow {
        MergeableWindow::snapshot(replica, &self.window)
    }

    /// The model head ids the calibration window keeps a score for,
    /// ascending: head 0, the head [`ServeConfig::selection`] picks at
    /// [`ServeConfig::epsilon`] and, while
    /// [`ServeConfig::staleness_threshold`] is nonzero, the head it picks
    /// at the stale fallback's widened miscoverage. Derived from the config
    /// and the model's training quantiles, never set. Every fit on the
    /// window, and every fleet fit on its summaries, reads only these; a
    /// bound served from another head (an installed fit that picked one,
    /// or the uncalibrated highest head) is scored per arrival beside them.
    pub fn kept_heads(&self) -> &[usize] {
        self.window.heads()
    }

    /// The calibration window's logical clock (advances on every push and
    /// on wholesale rebuilds): a coordinator compares it against the clock
    /// of its last-merged snapshot to skip re-snapshotting an unchanged
    /// window.
    pub fn window_clock(&self) -> u64 {
        self.window.clock()
    }

    /// Rolling prequential coverage over the drift monitor's window.
    pub fn rolling_coverage(&self) -> f32 {
        self.monitor.coverage()
    }

    /// Observations currently in the calibration window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The server's (growing) dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The simulated clock's current position (`-∞` before any event).
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    fn check_catalog(&self, workload: u32, platform: u32, interferers: &[u32]) {
        assert!(
            (workload as usize) < self.dataset.n_workloads,
            "workload {workload} outside the catalog"
        );
        assert!(
            (platform as usize) < self.dataset.n_platforms,
            "platform {platform} outside the catalog"
        );
        for &k in interferers {
            assert!(
                (k as usize) < self.dataset.n_workloads,
                "interferer {k} outside the catalog"
            );
        }
    }

    /// Advances the simulated clock to `at_s`.
    fn tick(&mut self, at_s: f64) {
        assert!(
            at_s >= self.now_s,
            "simulated clock ran backwards: {at_s} after {}",
            self.now_s
        );
        self.now_s = at_s;
    }

    /// The miscoverage watchdog's quarantine-rollback rescore: re-screen
    /// every window entry against the window's own robust median/MAD
    /// (which tolerate up to half the window being poisoned), purge the
    /// failures into the quarantine audit, rebuild the window from the
    /// survivors with its clock advanced past every snapshot of the
    /// poisoned state (so fleet coordinators supersede it on the next
    /// merge), and restart the coverage monitor so the post-rollback bounds
    /// are judged on fresh outcomes only. Every firing — even one that
    /// purges nothing, which means the undercoverage was drift, not poison
    /// — is recorded as a [`WatchdogIncident`].
    ///
    /// Returns whether it refit the served calibration on the scrubbed
    /// window: a server that owns its refreshes does so whenever something
    /// was purged. A fleet replica (`refresh_every = usize::MAX`) never
    /// does — its fleet's next install picks up the scrubbed window.
    fn watchdog_rollback(&mut self) -> bool {
        let at = self.stats.observations as u64;
        let coverage = self.monitor.coverage();
        self.guard.record_watchdog_fire();
        let (med, sigma) = guard::robust_scale(self.window.scored().sorted_scores(0));
        let k = self.cfg.guard_mad_k;
        // A degenerate scale estimate keeps everything (see
        // `guard::robust_scale`).
        let purge = |scores: &[f32]| sigma > 0.0 && (scores[0] - med).abs() > k * sigma;
        let purged = self.window.entries().filter(|(s, _)| purge(s)).count();
        if purged > 0 {
            let old_clock = self.window.clock();
            let mut window = WindowedScores::with_heads(
                self.cfg.window,
                self.window.n_heads(),
                self.window.heads(),
            );
            let mut raw = VecDeque::with_capacity(self.raw.len() - purged);
            for ((scores, pool), e) in self.window.entries().zip(std::mem::take(&mut self.raw)) {
                if purge(scores) {
                    self.guard.quarantine(
                        at,
                        e.target_log.exp(),
                        Some(scores[0]),
                        QuarantineCause::WatchdogRollback,
                    );
                } else {
                    window.push_scores(scores.to_vec(), pool);
                    raw.push_back(e);
                }
            }
            window.advance_clock(old_clock + 1);
            self.window = window;
            self.raw = raw;
        }
        let refit = purged > 0 && self.cfg.refresh_every != usize::MAX;
        if refit {
            self.refresh();
        }
        self.monitor.reset();
        self.incidents.push(WatchdogIncident {
            at,
            coverage,
            purged,
            kept: self.raw.len(),
        });
        if self.incidents.len() > ServeConfig::QUARANTINE_RETAIN {
            self.incidents.remove(0);
        }
        refit
    }

    /// Cumulative quarantine counters (the zero-silent-drops ledger). While
    /// [`ServeConfig::ingest_guard`] is off, only the runtime causes
    /// (`nonfinite_runtimes`, `nonpositive_runtimes`) can count.
    pub fn guard_stats(&self) -> GuardStats {
        self.guard.stats()
    }

    /// The bounded quarantine audit ring, oldest first (capped at
    /// [`ServeConfig::QUARANTINE_RETAIN`]; the counters in
    /// [`PitotServer::guard_stats`] are never truncated).
    pub fn quarantine_records(&self) -> impl Iterator<Item = &QuarantineRecord> + '_ {
        self.guard.records()
    }

    /// Miscoverage-watchdog firings, oldest first (bounded like the
    /// quarantine ring).
    pub fn watchdog_incidents(&self) -> &[WatchdogIncident] {
        &self.incidents
    }

    /// Refits the served calibration from the window — rank lookups over
    /// the incrementally maintained sorted scores.
    fn refresh(&mut self) {
        self.since_refresh = 0;
        if self.window.is_empty() {
            return;
        }
        self.install(Served::fresh(self.fit_window(self.cfg.epsilon)));
        self.stats.refreshes += 1;
    }

    /// Fits a calibration on the current (non-empty) window at the given
    /// miscoverage — the shared engine of [`PitotServer::refresh`] (at the
    /// configured ε) and a fleet's stale-local fallback (at the widened ε).
    pub(crate) fn fit_window(&self, epsilon: f32) -> PooledConformal {
        fit_served(self.window.scored(), &self.xis, self.cfg.selection, epsilon)
    }

    fn should_fine_tune(&self) -> bool {
        self.cfg.fine_tune_steps > 0
            && self.since_tune >= self.cfg.fine_tune_cooldown
            && self.seen_isolation >= Self::MIN_FINE_TUNE_ISOLATION
            && self.monitor.undercovering()
    }

    /// The fine-tune pool's retention bound (never below the calibration
    /// window, whose members must keep valid dataset indices).
    fn retain_bound(&self) -> usize {
        self.cfg.fine_tune_retain.max(self.cfg.window)
    }

    /// Keeps the server's memory bounded for long-lived sessions: once the
    /// streamed fine-tune pool reaches twice its retention bound, the older
    /// half of the appended observations is dropped from the dataset copy
    /// and every retained index is shifted down (amortized O(1) per
    /// event). The training context is invalidated — its cached residual
    /// targets and batch pools reference pre-compaction indices — and is
    /// rebuilt by the next fine-tune.
    fn maybe_compact_streamed(&mut self) {
        let bound = self.retain_bound();
        if self.cfg.fine_tune_steps == 0 || self.seen.len() < bound.saturating_mul(2) {
            return;
        }
        let dropped = self.seen.len() - bound;
        // Streamed arrivals are appended in order, so `seen` is exactly
        // `base_len..base_len + n`: compaction is one contiguous drain.
        Arc::make_mut(&mut self.dataset)
            .observations
            .drain(self.base_len..self.base_len + dropped);
        self.seen = (self.base_len..self.base_len + bound).collect();
        self.seen_isolation = self
            .seen
            .iter()
            .filter(|&&i| self.dataset.observations[i].interferers.is_empty())
            .count();
        for e in &mut self.raw {
            if let Some(idx) = &mut e.obs_idx {
                if *idx >= self.base_len {
                    // Window members are among the most recent `window` ≤
                    // `bound` arrivals, so every one of them survived.
                    debug_assert!(*idx >= self.base_len + dropped);
                    *idx -= dropped;
                }
            }
        }
        self.ctx = None;
        self.ctx_seen = 0;
    }

    /// Warm-start fine-tune on the streamed observations: reuse (or
    /// rebuild) the [`TrainContext`] and [`TrainContext::resume`] for the
    /// configured budget, then refresh towers, re-score the window under
    /// the updated model, and restart the drift monitor. Returns whether a
    /// fine-tune actually ran (it is deferred while the trainable history —
    /// streamed observations *older than the calibration window* — is still
    /// too thin to train on).
    fn fine_tune(&mut self) -> bool {
        self.since_tune = 0;
        let need_rebuild = match &self.ctx {
            None => true,
            Some(_) => self.seen.len() as f32 >= self.ctx_seen as f32 * ServeConfig::REBUILD_GROWTH,
        };
        if need_rebuild {
            let split = self.online_split();
            let train_isolation = split
                .train
                .iter()
                .filter(|&&i| self.dataset.observations[i].interferers.is_empty())
                .count();
            if train_isolation < Self::MIN_FINE_TUNE_ISOLATION {
                // Not enough pre-window history yet; recalibration alone
                // carries the stream until it accumulates. No fine-tune
                // ran, so don't burn a full cooldown — retry once another
                // drift-window's worth of arrivals is in.
                self.since_tune = self
                    .cfg
                    .fine_tune_cooldown
                    .saturating_sub(self.cfg.drift_min.max(1));
                return false;
            }
            // Frozen offsets for known entities keep the residual space —
            // and the calibration window — comparable across updates; new
            // entities get proper baseline offsets.
            let scaling = self.trained.scaling.extend(&self.dataset, &split.train);
            let mut cfg = self.trained.model.config().clone();
            cfg.steps = self.cfg.fine_tune_steps;
            cfg.eval_every = cfg.eval_every.min(self.cfg.fine_tune_steps.max(1));
            self.ctx = Some(TrainContext::warm_start(
                self.trained.model.clone(),
                scaling,
                &self.dataset,
                &split,
                &cfg,
            ));
            self.ctx_seen = self.seen.len();
        }
        let ctx = self.ctx.as_mut().expect("context just ensured");
        ctx.resume(&self.dataset, self.cfg.fine_tune_steps);
        self.trained = Arc::new(ctx.finish());
        // A fine-tuning server is dense: fleet replicas, the only
        // compressed servers, never fine-tune.
        self.towers = Arc::new(self.trained.tower_cache(&self.dataset));
        self.stats.fine_tunes += 1;
        self.rescore_window();
        self.refresh();
        self.monitor.reset();
        true
    }

    /// Split over the streamed observations. The current calibration
    /// window — the most recent `cfg.window` arrivals — is held **out** of
    /// training: after the update those points re-score the served bounds,
    /// and training on them would bias their residuals small (in-sample
    /// scores ⇒ too-tight γ, voiding the calibration-never-trains
    /// separation). They double as the checkpoint-validation sample
    /// instead. Because the split is frozen at context build and the
    /// window only moves forward, later `resume()` calls on the same
    /// context can never train on a current window member either.
    fn online_split(&self) -> Split {
        let held_out = self.seen.len().min(self.cfg.window);
        let cut = self.seen.len() - held_out;
        Split {
            train: self.seen[..cut].to_vec(),
            val: self.seen[cut..].to_vec(),
            test: Vec::new(),
            train_fraction: 1.0,
            seed: self.trained.split.seed,
        }
    }

    /// Re-predicts every window member's kept heads under the (updated)
    /// model so the window's scores match the model that will serve them.
    /// Each entry keeps its pool, read from the score ring.
    fn rescore_window(&mut self) {
        if self.raw.is_empty() {
            return;
        }
        let obs: Vec<&Observation> = self
            .raw
            .iter()
            .map(|e| {
                let i = e.obs_idx.expect("fine-tune path records dataset indices");
                &self.dataset.observations[i]
            })
            .collect();
        let mut preds = std::mem::take(&mut self.preds);
        self.score_kept(&obs, &mut preds);
        let kept = self.window.heads();
        let mut window = WindowedScores::with_heads(self.cfg.window, self.window.n_heads(), kept);
        let entries = self.raw.iter().zip(self.window.entries());
        for ((e, (_, pool)), row) in entries.zip(preds.iter_rows()) {
            window.push(&row[..kept.len()], e.target_log, pool);
        }
        self.preds = preds;
        // The rebuilt window must supersede the old one in any fleet
        // coordinator's merged view: advance its clock past every snapshot
        // taken of the pre-rescore state.
        window.advance_clock(self.window.clock() + 1);
        self.window = window;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitot::{train, Objective, PitotConfig};
    use pitot_conformal::ScoredCalibration;
    use pitot_testbed::{Testbed, TestbedConfig};

    /// A small dataset, its split, and a tiny quantile model trained from
    /// `seed`.
    fn fixture(seed: u64) -> (Dataset, Split, TrainedPitot) {
        let dataset = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&dataset, 0.6, 0);
        let mut model = PitotConfig::tiny().with_seed(seed);
        model.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        model.steps = 300;
        let trained = train(&dataset, &split, &model);
        (dataset, split, trained)
    }

    #[test]
    fn a_watchdog_firing_that_purges_nothing_reports_no_refresh() {
        let (dataset, split, trained) = fixture(0);
        let mut cfg = ServeConfig::guarded(0.1);
        cfg.window = 128;
        cfg.refresh_every = 1 << 20; // the server owns its refreshes; none falls due
        cfg.watchdog_z = 1.0;
        cfg.watchdog_min = 32;
        cfg.guard_mad_k = 20.0;
        let mut server = PitotServer::new(trained, dataset.clone(), cfg);
        server.seed_calibration(&split.val);

        // Drift, not poison: every runtime grows by e^0.5, well inside a
        // 20-MAD rollback band, so the watchdog fires and purges nothing.
        for (t, &i) in split.test.iter().take(300).enumerate() {
            let mut obs = dataset.observations[i].clone();
            obs.runtime_s *= 0.5f32.exp();
            let fb = server.on_event(t as f64, Event::Observe(obs)).observed;
            if let Some(incident) = server.watchdog_incidents().first() {
                assert_eq!(incident.purged, 0, "{incident:?}");
                assert!(!fb.expect("the firing arrival was judged").refreshed);
                assert_eq!(server.stats().refreshes, 1, "only the seed refit");
                return;
            }
        }
        panic!("the watchdog never fired");
    }

    #[test]
    fn a_rollback_audits_a_restored_entry_without_a_runtime() {
        let (dataset, split, trained) = fixture(0);
        let mut cfg = ServeConfig::guarded(0.1);
        cfg.window = 128;
        cfg.guard_min_n = 10_000; // no ingest screen: only the rollback purges
        cfg.guard_mad_k = 3.0;
        cfg.watchdog_z = 0.5;
        cfg.watchdog_min = 32;
        // Honest window scores in arrival order, the newest 40% shifted 10
        // low: far enough past the 3-MAD band that a 40% cluster inflates.
        let mut donor = PitotServer::new(trained.clone(), dataset.clone(), cfg.clone());
        donor.seed_calibration(&split.val);
        let mut entries: Vec<_> = donor
            .window
            .entries()
            .map(|(scores, pool)| (scores.to_vec(), pool))
            .collect();
        assert_eq!(entries.len(), 128);
        let poisoned = entries.len() * 2 / 5;
        let cut = entries.len() - poisoned;
        for (scores, _) in &mut entries[cut..] {
            scores.iter_mut().for_each(|s| *s -= 10.0);
        }
        let mut server = PitotServer::new(trained, dataset.clone(), cfg);
        server.restore_window(entries, donor.window_clock());

        // The honest stream the restored scores came from: the poisoned
        // bounds undercover it, so the watchdog fires before any poisoned
        // entry is evicted.
        for (t, &i) in split.val.iter().enumerate() {
            server.on_event(t as f64, Event::Observe(dataset.observations[i].clone()));
            if !server.watchdog_incidents().is_empty() {
                break;
            }
        }
        let incident = server
            .watchdog_incidents()
            .first()
            .expect("the watchdog fired");
        assert_eq!(incident.purged, poisoned, "{incident:?}");
        let runtimes: Vec<f32> = server
            .quarantine_records()
            .filter(|r| r.cause == QuarantineCause::WatchdogRollback)
            .map(QuarantineRecord::runtime_s)
            .collect();
        assert_eq!(runtimes.len(), poisoned);
        assert!(runtimes.iter().all(|r| r.is_nan()), "{runtimes:?}");
    }

    #[test]
    fn a_rescore_equals_a_window_built_from_scratch_under_the_new_model() {
        let (dataset, split, trained) = fixture(0);
        let mut cfg = ServeConfig::at(0.1);
        cfg.window = 128;
        cfg.fine_tune_steps = 10;
        let mut server = PitotServer::new(trained, dataset.clone(), cfg);
        // Seeded entries index the base dataset; streamed ones were appended.
        server.seed_calibration(&split.val);
        for (t, &i) in split.test.iter().take(64).enumerate() {
            server.on_event(t as f64, Event::Observe(dataset.observations[i].clone()));
        }
        assert!(server.window.is_full());
        assert_eq!(server.stats().fine_tunes, 0);

        let (_, _, other) = fixture(7);
        server.towers = Arc::new(other.tower_cache(&server.dataset));
        server.trained = Arc::new(other);
        let clock = server.window_clock();
        server.rescore_window();

        // The oracle scores each member's every head as a batch of one and
        // keeps the server's heads.
        let heads = server.kept_heads().to_vec();
        let mut oracle = WindowedScores::with_heads(128, server.window.n_heads(), &heads);
        let mut row = Matrix::default();
        for e in &server.raw {
            let obs = &server.dataset.observations[e.obs_idx.expect("recorded")];
            let pool = server.cfg.pool_key(obs.interferers.len());
            server
                .trained
                .predict_log_runtime_into(&server.towers, &[obs], &mut row);
            let kept: Vec<f32> = heads.iter().map(|&h| row.row(0)[h]).collect();
            oracle.push(&kept, obs.log_runtime(), pool);
        }
        // Entries in order, then every kept head's sorted scores, as bits.
        let bits = |w: &WindowedScores| {
            let to_bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            let entries: Vec<_> = w.entries().map(|(s, pool)| (to_bits(s), pool)).collect();
            let sorted: Vec<_> = w
                .heads()
                .iter()
                .map(|&h| to_bits(w.scored().sorted_scores(h)))
                .collect();
            (entries, sorted)
        };
        assert_eq!(bits(&server.window), bits(&oracle));
        assert_eq!(server.window.scored(), oracle.scored(), "per-pool slices");
        assert_eq!(server.window_clock(), clock + 1);
    }

    /// A server whose window keeps every head: the oracle a kept-heads
    /// server is pinned to.
    fn all_heads(trained: &TrainedPitot, dataset: &Dataset, cfg: &ServeConfig) -> PitotServer {
        let heads: Vec<usize> = (0..trained.model.n_heads()).collect();
        PitotServer::shared(
            Arc::new(trained.clone()),
            Arc::new(dataset.clone()),
            Arc::new(trained.tower_cache(dataset)),
            cfg.clone(),
            &heads,
        )
    }

    /// Feeds `stream` to a kept-heads server in batches of the given sizes
    /// (cycled) and to its all-heads oracle one arrival at a time, so the
    /// oracle judges each arrival with the head its calibration reads at
    /// that moment, and checks after every batch that both responded alike
    /// to each arrival and serve the same calibration, and that their fits
    /// at ε (and, while staleness tracking keeps its head, at the stale
    /// fallback's ε) agree. Compares `Debug` forms, which print every float
    /// exactly.
    fn assert_kept_heads_match_the_oracle(
        server: &mut PitotServer,
        oracle: &mut PitotServer,
        stream: &[Observation],
        batches: &[usize],
    ) {
        assert_eq!(oracle.kept_heads().len(), server.trained.model.n_heads());
        let mut fits = vec![server.cfg.epsilon];
        if server.cfg.staleness_threshold > 0 {
            fits.push(server.cfg.epsilon * ServeConfig::STALE_EPSILON_FACTOR);
        }
        let (mut at, mut sizes) = (0, batches.iter().cycle());
        while at < stream.len() {
            let end = (at + sizes.next().expect("cycled")).min(stream.len());
            let batch = || (at..end).map(|t| (t as f64, stream[t].clone()));
            let (mut got, mut want) = (Vec::new(), Vec::new());
            server.observe_batch(batch(), |r| got.push(format!("{r:?}")));
            for arrival in batch() {
                oracle.observe_batch([arrival], |r| want.push(format!("{r:?}")));
            }
            assert_eq!(got, want, "arrivals {at}..{end}");
            assert_eq!(
                format!("{:?}", server.conformal()),
                format!("{:?}", oracle.conformal()),
                "served calibration after arrival {end}"
            );
            if !server.window.is_empty() {
                for &eps in &fits {
                    assert_eq!(
                        format!("{:?}", server.fit_window(eps)),
                        format!("{:?}", oracle.fit_window(eps)),
                        "fit at {eps} after arrival {end}"
                    );
                }
            }
            at = end;
        }
    }

    #[test]
    fn an_unguarded_server_matches_the_all_heads_oracle() {
        // Arrivals before the first calibration read the uncalibrated
        // highest head, which the window does not keep; the window then
        // fills and slides through pool changes.
        let (dataset, split, trained) = fixture(0);
        let mut cfg = ServeConfig::at(0.1);
        cfg.window = 96;
        cfg.staleness_threshold = cfg.drift_min;
        let mut server = PitotServer::new(trained.clone(), dataset.clone(), cfg.clone());
        assert_eq!(
            server.kept_heads(),
            [0, 2, 3],
            "ε 0.1 reads ξ 0.9, ε 0.05 reads ξ 0.95"
        );
        let mut oracle = all_heads(&trained, &dataset, &cfg);
        let stream: Vec<Observation> = split.test[..400]
            .iter()
            .map(|&i| dataset.observations[i].clone())
            .collect();
        assert_kept_heads_match_the_oracle(&mut server, &mut oracle, &stream, &[1]);
        assert_eq!(server.stats().refreshes, 400);
    }

    #[test]
    fn a_guarded_server_whose_watchdog_fires_matches_the_all_heads_oracle() {
        let (dataset, split, trained) = fixture(0);
        let mut cfg = ServeConfig::guarded(0.1);
        cfg.window = 128;
        cfg.guard_min_n = 10_000; // no ingest screen: only the rollback purges
        cfg.guard_mad_k = 3.0;
        cfg.watchdog_z = 0.5;
        cfg.watchdog_min = 32;
        // Each server restores its own donor's window with the newest 40%
        // of the scores shifted 10 low, so the watchdog fires on the honest
        // stream they came from.
        let poisoned = |donor: &mut PitotServer, fresh: &mut PitotServer| {
            donor.seed_calibration(&split.val);
            let mut entries: Vec<_> = donor
                .window
                .entries()
                .map(|(scores, pool)| (scores.to_vec(), pool))
                .collect();
            let cut = entries.len() - entries.len() * 2 / 5;
            for (scores, _) in &mut entries[cut..] {
                scores.iter_mut().for_each(|s| *s -= 10.0);
            }
            fresh.restore_window(entries, donor.window_clock());
        };
        let mut server = PitotServer::new(trained.clone(), dataset.clone(), cfg.clone());
        poisoned(
            &mut PitotServer::new(trained.clone(), dataset.clone(), cfg.clone()),
            &mut server,
        );
        let mut oracle = all_heads(&trained, &dataset, &cfg);
        poisoned(&mut all_heads(&trained, &dataset, &cfg), &mut oracle);
        let stream: Vec<Observation> = split.val[..300]
            .iter()
            .map(|&i| dataset.observations[i].clone())
            .collect();
        assert_kept_heads_match_the_oracle(&mut server, &mut oracle, &stream, &[1]);
        let incidents = server.watchdog_incidents();
        assert!(incidents.iter().any(|i| i.purged > 0), "{incidents:?}");
        assert_eq!(
            format!("{incidents:?}"),
            format!("{:?}", oracle.watchdog_incidents())
        );
        let records = |s: &PitotServer| format!("{:?}", s.quarantine_records().collect::<Vec<_>>());
        assert_eq!(records(&server), records(&oracle));
    }

    #[test]
    fn an_installed_fit_on_unkept_heads_matches_the_all_heads_oracle() {
        // A fit selected on a validation set, whose pools read heads the
        // window does not keep: each arrival scores its pool's head beside
        // the kept ones until a refresh replaces the fit, mid-batch too.
        let (dataset, split, trained) = fixture(0);
        let mut cfg = ServeConfig::at(0.1);
        cfg.window = 128;
        cfg.refresh_every = 8;
        let (cal, val) = split.val.split_at(split.val.len() / 2);
        let set = |idx: &[usize], preds| {
            let targets = idx
                .iter()
                .map(|&i| dataset.observations[i].log_runtime())
                .collect();
            let pools = idx
                .iter()
                .map(|&i| cfg.pool_key(dataset.observations[i].interferers.len()))
                .collect();
            (preds, targets, pools)
        };
        let (cal_preds, cal_targets, cal_pools): (Vec<Vec<f32>>, Vec<f32>, Vec<usize>) =
            set(cal, trained.predict_log_runtime(&dataset, cal));
        let (mut val_preds, val_targets, val_pools): (Vec<Vec<f32>>, Vec<f32>, Vec<usize>) =
            set(val, trained.predict_log_runtime(&dataset, val));
        // Lower head 1 on pool 0 and head 3 elsewhere, far enough that
        // those bounds overprovision nothing on validation.
        for (i, &pool) in val_pools.iter().enumerate() {
            val_preds[if pool == 0 { 1 } else { 3 }][i] -= 10.0;
        }
        let view = |p: &[Vec<f32>], t: &[f32], k: &[usize]| {
            ScoredCalibration::new(&PredictionSet {
                predictions: p,
                targets_log: t,
                pools: k,
            })
        };
        let fit = PooledConformal::fit_scored(
            &view(&cal_preds, &cal_targets, &cal_pools),
            &PredictionSet {
                predictions: &val_preds,
                targets_log: &val_targets,
                pools: &val_pools,
            },
            &trained.model.config().objective.xis(),
            HeadSelection::TightestOnValidation,
            0.1,
        );
        let mut server = PitotServer::new(trained.clone(), dataset.clone(), cfg.clone());
        let mut oracle = all_heads(&trained, &dataset, &cfg);
        let heads = server.kept_heads().to_vec();
        let read: Vec<usize> = std::iter::once(fit.calibration_for(usize::MAX).head)
            .chain(fit.pool_calibrations().values().map(|p| p.head))
            .collect();
        assert!(
            read.iter().any(|h| !heads.contains(h)),
            "{read:?} vs kept {heads:?}"
        );
        for s in [&mut server, &mut oracle] {
            s.seed_calibration(&split.val);
            s.install_calibration(fit.clone());
        }
        let stream: Vec<Observation> = split.test[..200]
            .iter()
            .map(|&i| dataset.observations[i].clone())
            .collect();
        // Batches straddle the refresh cadence, so a batch scored under the
        // installed fit is judged partly under its refit.
        assert_kept_heads_match_the_oracle(&mut server, &mut oracle, &stream, &[5, 1, 11, 3]);
    }
}
