//! Training loop (paper Sec 3.6 / App B.3).
//!
//! Pitot is trained with AdaMax over a weighted multi-objective loss:
//! a fixed-size batch is drawn from every interference mode each step
//! (isolation plus 2/3/4-way), the no-interference objective has weight 1.0,
//! and the interference objective weight β is split equally across modes.
//! Every `eval_every` steps the model is evaluated on (a sample of) the
//! validation set and the best checkpoint is retained.
//!
//! The loop is split into a [`TrainContext`] (scaling fit, model init,
//! pools, cached residual targets — the fixed per-`train()` setup) and
//! [`TrainContext::fit`] / [`TrainContext::resume`] which run optimizer
//! steps. Warm-start and fine-tune runs build the context once and keep
//! stepping, amortizing the setup cost that otherwise dominates short runs.

use crate::completed::{Source, Tables};
use crate::config::{InterferenceMode, LossSpace, Objective, PitotConfig};
use crate::model::{rows_into, PitotModel, TowerOutputs};
use crate::scaling::ScalingBaseline;
use pitot_linalg::{Matrix, Scratch};
use pitot_nn::{pinball_loss_into, squared_loss_into, GradPlane, Optimizer};
use pitot_testbed::{split::Split, Dataset, Observation, MAX_INTERFERERS};
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// One validation checkpoint record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainProgress {
    /// Optimizer step at which validation ran.
    pub step: usize,
    /// Weighted validation loss.
    pub val_loss: f32,
}

/// Pre-computed tower outputs for repeated query prediction (see
/// [`TrainedPitot::tower_cache`]), with the memo of the completed matrix
/// that lookup reads fill ([`TrainedPitot::lookup_log_heads_into`]): per
/// (platform, head), a table of the inner products the prediction kernel
/// reads, filled the first time a lookup read touches it.
///
/// The fields are private and a cache never changes after it is built, so
/// no table outlives the towers it was filled from. A new model (a
/// fine-tune, a compression level) gets a new cache, whose tables start
/// empty.
#[derive(Debug, Clone)]
pub struct TowerCache {
    /// Workload tower output (`Nw × r·n_heads`).
    w: Matrix,
    /// Platform tower output (`Np × r·(1+2s)`).
    p_full: Matrix,
    tables: Tables,
}

impl TowerCache {
    /// A cache over tower outputs, with empty tables.
    pub(crate) fn new(w: Matrix, p_full: Matrix) -> Self {
        Self {
            w,
            p_full,
            tables: Tables::default(),
        }
    }

    /// The workload tower output (`Nw × r·n_heads`).
    #[cfg(test)]
    pub(crate) fn w(&self) -> &Matrix {
        &self.w
    }

    /// The platform tower output (`Np × r·(1+2s)`).
    #[cfg(test)]
    pub(crate) fn p_full(&self) -> &Matrix {
        &self.p_full
    }
}

/// A trained Pitot model with its scaling baseline and training history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedPitot {
    /// Best-validation model checkpoint.
    pub model: PitotModel,
    /// The scaling baseline the residuals are anchored to.
    pub scaling: ScalingBaseline,
    /// Validation-loss history.
    pub history: Vec<TrainProgress>,
    /// The split this model was trained on (kept for conformal fitting).
    pub split: Split,
}

/// Trains Pitot on `split.train`, checkpointing on `split.val`.
///
/// # Panics
///
/// Panics if the split has no usable training data for the configured
/// interference mode.
pub fn train(dataset: &Dataset, split: &Split, config: &PitotConfig) -> TrainedPitot {
    let mut ctx = TrainContext::new(dataset, split, config);
    ctx.fit(dataset);
    ctx.finish()
}

/// Continues training from an existing model state (online learning: the
/// paper's Conclusion names efficient online updates as the main extension;
/// warm-starting from the deployed checkpoint converges in a fraction of the
/// from-scratch step budget when new observations arrive).
///
/// The scaling baseline is *kept fixed* so the residual space — and any
/// conformal calibration downstream — stays comparable across updates.
///
/// # Panics
///
/// Panics if the split has no usable training data for the configured
/// interference mode.
pub fn train_from(
    model: PitotModel,
    scaling: ScalingBaseline,
    dataset: &Dataset,
    split: &Split,
    config: &PitotConfig,
) -> TrainedPitot {
    let mut ctx = TrainContext::warm_start(model, scaling, dataset, split, config);
    ctx.fit(dataset);
    ctx.finish()
}

/// Reusable buffers for one optimizer step.
///
/// Every matrix, gradient plane, and index vector the step needs is
/// allocated once here and recycled in place, so the steady-state training
/// step — forward, backward, **and the fused AdaMax update** — performs
/// **zero matrix/plane allocations** (asserted by the
/// `steady_state_steps_are_matrix_alloc_free` test below via
/// `pitot_linalg::alloc_count`).
struct StepBuffers {
    towers: TowerOutputs,
    d_w: Matrix,
    d_p: Matrix,
    grads: GradPlane,
    scratch: Scratch,
    batch: Vec<usize>,
    targets: Vec<f32>,
    preds: Vec<Vec<f32>>,
    d_pred: Vec<Vec<f32>>,
    /// Interference inner products shared between predict and gradient
    /// accumulation within one mode batch.
    mcache: Vec<f32>,
    /// Batched prediction buffer for validation evaluation.
    eval_preds: Matrix,
    eval_obs: Vec<(usize, usize)>,
}

impl StepBuffers {
    fn new(model: &PitotModel, dataset: &Dataset) -> Self {
        let (d_w, d_p) = model.zero_output_grads(dataset);
        Self {
            towers: TowerOutputs::new(),
            d_w,
            d_p,
            grads: GradPlane::zeros_like(model.store()),
            scratch: Scratch::new(),
            batch: Vec::new(),
            targets: Vec::new(),
            preds: Vec::new(),
            d_pred: Vec::new(),
            mcache: Vec::new(),
            eval_preds: Matrix::zeros(0, 0),
            eval_obs: Vec::new(),
        }
    }
}

/// Everything a training run sets up **once**: the initialized model, the
/// scaling baseline, per-mode batch pools, the validation sample, cached
/// residual targets, optimizer state, and all step buffers.
///
/// [`TrainContext::fit`] runs the configured step budget;
/// [`TrainContext::resume`] keeps stepping (same RNG stream, same optimizer
/// moments), so `fit(a)` followed by `resume(b)` takes exactly the same
/// **parameter trajectory** as one `fit(a + b)` run (asserted bitwise by
/// `resume_matches_fresh_training_bitwise`). Checkpoint *evaluations*
/// differ at the boundary: every `fit`/`resume` call ends with one, so the
/// split run may retain a boundary-step checkpoint the fused run never
/// evaluated — evaluation reads the model without touching it, so the
/// trajectory itself is unaffected.
pub struct TrainContext {
    model: PitotModel,
    scaling: ScalingBaseline,
    config: PitotConfig,
    opt: Box<dyn Optimizer>,
    rng: ChaCha8Rng,
    mode_pools: Vec<Vec<usize>>,
    mode_weights: [f32; MAX_INTERFERERS + 1],
    val_idx: Vec<usize>,
    /// `residual_targets[i]` is the training target for observation `i`
    /// under the configured loss space — precomputed once so the hot loop
    /// never recomputes `ln` per sample.
    residual_targets: Vec<f32>,
    /// Per-head training quantiles, cached so checkpoint evaluation does
    /// not clone the objective's ξ vector once per checkpoint.
    eval_xis: Vec<f32>,
    bufs: StepBuffers,
    history: Vec<TrainProgress>,
    best: Option<(f32, PitotModel)>,
    step: usize,
    split: Split,
}

impl TrainContext {
    /// Fixed setup for a from-scratch run: fits the scaling baseline,
    /// initializes the model, and prepares every reusable buffer.
    ///
    /// # Panics
    ///
    /// Panics if the split has no usable training data for the configured
    /// interference mode.
    pub fn new(dataset: &Dataset, split: &Split, config: &PitotConfig) -> Self {
        config.validate();
        let model = PitotModel::new(config, dataset);
        let scaling = ScalingBaseline::fit(dataset, &split.train);
        Self::warm_start(model, scaling, dataset, split, config)
    }

    /// Fixed setup around an existing model + baseline (warm start / online
    /// update). The baseline is kept as given so the residual space stays
    /// comparable across updates.
    ///
    /// # Panics
    ///
    /// Panics if the split has no usable training data for the configured
    /// interference mode.
    pub fn warm_start(
        model: PitotModel,
        scaling: ScalingBaseline,
        dataset: &Dataset,
        split: &Split,
        config: &PitotConfig,
    ) -> Self {
        config.validate();
        let opt = config.optimizer.build(config.learning_rate);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(0x7EA1_BA7C));

        // Mode index pools. Mode 0 = isolation; modes 1..=3 = k interferers.
        let mode_pools: Vec<Vec<usize>> = (0..=MAX_INTERFERERS)
            .map(|k| match config.interference {
                InterferenceMode::Discard if k > 0 => Vec::new(),
                _ => split.train_mode(dataset, k),
            })
            .collect();
        assert!(
            !mode_pools[0].is_empty(),
            "no interference-free training observations in split"
        );
        let mode_weights = mode_weights(config);

        // Validation sample (capped for single-core speed), per mode.
        let val_idx = {
            let mut per_mode: Vec<usize> = Vec::new();
            let mut by_mode: Vec<Vec<usize>> = (0..=MAX_INTERFERERS).map(|_| Vec::new()).collect();
            for &i in &split.val {
                by_mode[dataset.observations[i].interferers.len()].push(i);
            }
            for pool in &mut by_mode {
                pool.shuffle(&mut rng);
                let cap = if config.val_cap == 0 {
                    pool.len()
                } else {
                    config.val_cap
                };
                per_mode.extend(pool.iter().take(cap));
            }
            per_mode
        };

        let residual_targets = dataset
            .observations
            .iter()
            .map(|o| model.residual_target(o, &scaling))
            .collect();

        let bufs = StepBuffers::new(&model, dataset);
        let eval_xis = config.objective.xis();
        Self {
            model,
            scaling,
            config: config.clone(),
            opt,
            rng,
            mode_pools,
            mode_weights,
            val_idx,
            residual_targets,
            eval_xis,
            bufs,
            history: Vec::new(),
            best: None,
            step: 0,
            split: split.clone(),
        }
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// The model in its *current* (last-step) state — not the
    /// best-validation checkpoint, which [`TrainContext::finish`] selects.
    pub fn model(&self) -> &PitotModel {
        &self.model
    }

    /// Mutable access to the live model — the hook compression uses to
    /// install a pruning mask before (or between) training runs; the mask
    /// is then re-applied after every optimizer step, so resumed and fresh
    /// runs stay on identical trajectories.
    pub fn model_mut(&mut self) -> &mut PitotModel {
        &mut self.model
    }

    /// The configuration this context was built with (`config.steps` is the
    /// [`TrainContext::fit`] budget; [`TrainContext::resume`] ignores it).
    pub fn config(&self) -> &PitotConfig {
        &self.config
    }

    /// The scaling baseline the residual space is anchored to (fixed for
    /// the lifetime of the context).
    pub fn scaling(&self) -> &ScalingBaseline {
        &self.scaling
    }

    /// The split the context draws batches and checkpoints from.
    pub fn split(&self) -> &Split {
        &self.split
    }

    /// Runs the configured step budget (`config.steps`), evaluating every
    /// `eval_every` steps. No-op if the budget has already been consumed.
    pub fn fit(&mut self, dataset: &Dataset) {
        let target = self.config.steps.max(self.step);
        self.run_until(dataset, target);
    }

    /// Continues training for `extra_steps` more steps — same RNG stream,
    /// same optimizer moments, identical parameter trajectory to a fresh
    /// run of the combined budget (plus one extra checkpoint evaluation at
    /// the boundary step; see the type-level docs). The online-update
    /// path: no scaling refit, no buffer reallocation, no model re-init.
    pub fn resume(&mut self, dataset: &Dataset, extra_steps: usize) {
        let target = self.step + extra_steps;
        self.run_until(dataset, target);
    }

    fn run_until(&mut self, dataset: &Dataset, target: usize) {
        while self.step < target {
            self.step += 1;
            training_step(
                &mut self.model,
                dataset,
                &self.residual_targets,
                &self.config,
                &self.mode_pools,
                &self.mode_weights,
                &mut self.rng,
                self.opt.as_mut(),
                &mut self.bufs,
            );

            if self.step.is_multiple_of(self.config.eval_every) || self.step == target {
                let val_loss = evaluate_loss_cached(
                    &self.model,
                    &self.residual_targets,
                    dataset,
                    &self.val_idx,
                    &self.config,
                    &self.eval_xis,
                    &mut self.bufs.towers,
                    &mut self.bufs.eval_preds,
                    &mut self.bufs.eval_obs,
                );
                self.history.push(TrainProgress {
                    step: self.step,
                    val_loss,
                });
                let better = self.best.as_ref().is_none_or(|(b, _)| val_loss < *b);
                if better {
                    self.best = Some((val_loss, self.model.clone()));
                }
            }
        }
    }

    /// Packages the best-validation checkpoint (falling back to the current
    /// model if no evaluation has run) into a [`TrainedPitot`].
    pub fn finish(&self) -> TrainedPitot {
        let model = match &self.best {
            Some((_, m)) => m.clone(),
            None => self.model.clone(),
        };
        TrainedPitot {
            model,
            scaling: self.scaling.clone(),
            history: self.history.clone(),
            split: self.split.clone(),
        }
    }
}

/// One full optimizer step: dense tower pass, per-mode batches, output-side
/// gradient accumulation, tower backprop, fused parameter-plane update. All
/// working memory lives in `bufs`.
#[allow(clippy::too_many_arguments)]
fn training_step<R: Rng + ?Sized>(
    model: &mut PitotModel,
    dataset: &Dataset,
    residual_targets: &[f32],
    config: &PitotConfig,
    mode_pools: &[Vec<usize>],
    mode_weights: &[f32; MAX_INTERFERERS + 1],
    rng: &mut R,
    opt: &mut dyn Optimizer,
    bufs: &mut StepBuffers,
) {
    model.forward_towers_with(dataset, &mut bufs.towers);
    bufs.d_w.fill(0.0);
    bufs.d_p.fill(0.0);

    for (k, pool) in mode_pools.iter().enumerate() {
        if pool.is_empty() || mode_weights[k] == 0.0 {
            continue;
        }
        bufs.batch.clear();
        bufs.batch
            .extend((0..config.batch_per_mode).map(|_| pool[rng.gen_range(0..pool.len())]));
        bufs.targets.clear();
        bufs.targets
            .extend(bufs.batch.iter().map(|&i| residual_targets[i]));
        model.predict_into_cached(
            &bufs.towers.w,
            &bufs.towers.p_full,
            dataset,
            &bufs.batch,
            &mut bufs.preds,
            &mut bufs.mcache,
        );
        loss_gradients_into(
            config,
            &bufs.preds,
            &bufs.targets,
            mode_weights[k],
            &mut bufs.d_pred,
        );
        model.accumulate_grads(
            &bufs.towers,
            dataset,
            &bufs.batch,
            &bufs.d_pred,
            &mut bufs.d_w,
            &mut bufs.d_p,
            &bufs.mcache,
        );
    }

    model.backward_towers_with(
        &bufs.towers,
        &bufs.d_w,
        &bufs.d_p,
        &mut bufs.grads,
        &mut bufs.scratch,
    );
    opt.step(&mut [model.params_mut()], &[bufs.grads.as_slice()]);
    // Structured pruning: an installed mask is re-applied after every
    // optimizer step so pruned weights stay exactly zero through training
    // (no-op when no mask is installed).
    model.store_mut().apply_mask();
}

/// Per-mode objective weights (paper App B.3 / D.2): isolation gets 1.0,
/// interference modes share β equally.
fn mode_weights(config: &PitotConfig) -> [f32; MAX_INTERFERERS + 1] {
    let mut w = [0.0f32; MAX_INTERFERERS + 1];
    w[0] = 1.0;
    match config.interference {
        InterferenceMode::Discard => {}
        _ => {
            for wk in w.iter_mut().skip(1) {
                *wk = config.interference_weight / MAX_INTERFERERS as f32;
            }
        }
    }
    w
}

/// Computes `∂L/∂ŷ` per head for a batch, scaled by the mode weight, into
/// reusable per-head buffers.
fn loss_gradients_into(
    config: &PitotConfig,
    preds: &[Vec<f32>],
    targets: &[f32],
    weight: f32,
    out: &mut Vec<Vec<f32>>,
) {
    let head_scale = weight / preds.len() as f32;
    out.resize_with(preds.len(), Vec::new);
    match &config.objective {
        Objective::Squared => {
            for (p, g) in preds.iter().zip(out.iter_mut()) {
                squared_loss_into(p, targets, g);
                for v in g.iter_mut() {
                    *v *= head_scale;
                }
            }
        }
        Objective::Quantiles(xis) => {
            for ((p, &xi), g) in preds.iter().zip(xis).zip(out.iter_mut()) {
                pinball_loss_into(p, targets, xi, g);
                for v in g.iter_mut() {
                    *v *= head_scale;
                }
            }
        }
    }
}

/// Weighted loss over an index set (validation checkpointing): one tower
/// pass into the reusable step buffers, one row-parallel batched
/// prediction, then per-mode mean losses accumulated in a single sweep over
/// cached residual targets. Every buffer (towers, prediction matrix, the
/// mode/index pair list, the ξ vector) is caller-owned and recycled, so a
/// steady-state checkpoint evaluation allocates nothing (asserted by
/// `steady_state_steps_are_matrix_alloc_free`).
#[allow(clippy::too_many_arguments)]
fn evaluate_loss_cached(
    model: &PitotModel,
    residual_targets: &[f32],
    dataset: &Dataset,
    idx: &[usize],
    config: &PitotConfig,
    xis: &[f32],
    towers: &mut TowerOutputs,
    preds: &mut Matrix,
    obs_buf: &mut Vec<(usize, usize)>,
) -> f32 {
    if idx.is_empty() {
        return f32::INFINITY;
    }
    // Reuses the training tower buffers; the next step overwrites them with
    // a fresh dense pass anyway.
    model.forward_towers_with(dataset, towers);
    model.predict_batch_into(
        &towers.w,
        &towers.p_full,
        idx.len(),
        |b| &dataset.observations[idx[b]],
        preds,
    );
    // (mode, observation-index) pairs, reused across evaluations.
    obs_buf.clear();
    obs_buf.extend(
        idx.iter()
            .map(|&i| (dataset.observations[i].interferers.len(), i)),
    );

    let weights = mode_weights(config);
    let n_heads = model.n_heads();
    let mut total = 0.0f32;
    let mut total_w = 0.0f32;
    for k in 0..=MAX_INTERFERERS {
        if weights[k] == 0.0 {
            continue;
        }
        let mut mode_loss = 0.0f64;
        let mut count = 0usize;
        for (b, &(mode, oi)) in obs_buf.iter().enumerate() {
            if mode != k {
                continue;
            }
            count += 1;
            let target = residual_targets[oi];
            let row = preds.row(b);
            for (h, &p) in row.iter().enumerate() {
                let e = p - target;
                let l = match &config.objective {
                    Objective::Squared => e * e,
                    Objective::Quantiles(_) => {
                        let xi = xis[h];
                        if e >= 0.0 {
                            // prediction above target: weight (1 − ξ).
                            (1.0 - xi) * e
                        } else {
                            -xi * e
                        }
                    }
                };
                mode_loss += l as f64;
            }
        }
        if count == 0 {
            continue;
        }
        // Mean over the mode's observations, then mean over heads — matching
        // the training objective's reduction.
        let mode_mean = (mode_loss / count as f64) as f32 / n_heads as f32;
        total += weights[k] * mode_mean;
        total_w += weights[k];
    }
    if total_w > 0.0 {
        total / total_w
    } else {
        f32::INFINITY
    }
}

impl TrainedPitot {
    /// Warm-start continuation: trains further on a (possibly updated) split
    /// with a reduced step budget (online-learning extension).
    ///
    /// Offsets of already-seen entities in the scaling baseline stay frozen,
    /// so the residual space — and any conformal calibration — remains
    /// comparable for them; entities appearing for the *first* time (a new
    /// device's platforms, a new workload) get proper baseline offsets via
    /// [`ScalingBaseline::extend`]. Without that extension a new platform
    /// would carry a multi-nat baseline error that no short warm start could
    /// absorb.
    pub fn fine_tune(&self, dataset: &Dataset, split: &Split, steps: usize) -> TrainedPitot {
        let mut cfg = self.model.config().clone();
        cfg.steps = steps;
        cfg.eval_every = cfg.eval_every.min(steps.max(1));
        let scaling = self.scaling.extend(dataset, &split.train);
        let mut ctx = TrainContext::warm_start(self.model.clone(), scaling, dataset, split, &cfg);
        ctx.fit(dataset);
        ctx.finish()
    }

    /// Serializes the full trained state (model, baseline, history, split)
    /// to JSON for deployment or archival.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trained model serializes")
    }

    /// Restores a trained state serialized by [`TrainedPitot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Per-head log-runtime predictions for the given observations: the
    /// transpose of one [`TrainedPitot::predict_log_runtime_into`] pass
    /// over the dense towers, for callers that want one vector per head.
    ///
    /// For the default log-residual loss this is `log C̄ + ŷ`; the other loss
    /// spaces are mapped back to log runtime accordingly.
    pub fn predict_log_runtime(&self, dataset: &Dataset, idx: &[usize]) -> Vec<Vec<f32>> {
        self.log_heads(&self.tower_cache(dataset), dataset, idx)
    }

    /// Pre-computes both tower outputs for repeated query prediction.
    ///
    /// Tower evaluation is the expensive part of inference (two MLP passes
    /// over every entity); query-heavy callers such as the orchestrator
    /// compute the towers once per model and reuse them for every placement
    /// decision via [`TrainedPitot::predict_log_runtime_into`].
    pub fn tower_cache(&self, dataset: &Dataset) -> TowerCache {
        let (w, p_full) = self.model.infer_towers(dataset);
        TowerCache::new(w, p_full)
    }

    /// Log-runtime predictions for arbitrary (possibly synthetic)
    /// observations, written into `out` as a row-major `obs.len() × heads`
    /// matrix: row `b` holds every head's prediction for `obs[b]`.
    ///
    /// Only the index fields of each observation are read, so callers may
    /// construct "what if" queries that were never measured; `towers` may
    /// be the dense cache or a compressed one. One row-parallel pass
    /// predicts the residuals, maps each row to log runtime, and, under
    /// [`PitotConfig::rearrange_quantiles`], sorts the row (the
    /// per-observation form of [`pitot_conformal::rearrange_heads`]). Reuse
    /// `out` across calls and the pass allocates nothing once `out` has
    /// held a batch this large. Results are bitwise identical across
    /// `PITOT_THREADS`.
    pub fn predict_log_runtime_into<O: Borrow<Observation> + Sync>(
        &self,
        towers: &TowerCache,
        obs: &[O],
        out: &mut Matrix,
    ) {
        self.log_rows_into(towers, obs.len(), |b| obs[b].borrow(), out);
    }

    /// [`TrainedPitot::predict_log_runtime_into`] over dataset indices.
    pub(crate) fn log_rows(&self, towers: &TowerCache, dataset: &Dataset, idx: &[usize]) -> Matrix {
        let mut rows = Matrix::zeros(0, 0);
        self.log_rows_into(
            towers,
            idx.len(),
            |b| &dataset.observations[idx[b]],
            &mut rows,
        );
        rows
    }

    /// [`TrainedPitot::log_rows`] transposed to one vector per head.
    pub(crate) fn log_heads(
        &self,
        towers: &TowerCache,
        dataset: &Dataset,
        idx: &[usize],
    ) -> Vec<Vec<f32>> {
        let rows = self.log_rows(towers, dataset, idx);
        (0..rows.cols())
            .map(|h| rows.iter_rows().map(|row| row[h]).collect())
            .collect()
    }

    /// The every-head log-runtime read: one row-parallel pass that scores
    /// each row's heads, maps them to log runtime and, under
    /// rearrangement, sorts them.
    fn log_rows_into<'o>(
        &self,
        towers: &TowerCache,
        n: usize,
        row: impl Fn(usize) -> &'o Observation + Sync,
        out: &mut Matrix,
    ) {
        let products = self.model.computed(&towers.w, &towers.p_full);
        rows_into(n, self.model.n_heads(), out, |b, y| {
            self.every_head_row(&products, row(b), y)
        });
    }

    /// Every head's log-runtime prediction for `o` into `y`, sorted under
    /// rearrangement.
    fn every_head_row(&self, products: &impl Source, o: &Observation, y: &mut [f32]) {
        let n_heads = self.model.n_heads();
        self.model.predict_row(products, o, 0..n_heads, y);
        self.to_log_runtime(o, y);
        if self.model.config().rearrange_quantiles {
            // `total_cmp` is a total order, so the sorted row is
            // unique: bitwise what the stable per-head sort gives.
            y.sort_unstable_by(f32::total_cmp);
        }
    }

    /// The read of the heads a caller needs: one row per observation of
    /// `obs`, written into `out` as an `obs.len() × (heads.len() + 1)`
    /// log-runtime matrix whose row `b` holds the heads `heads` in order,
    /// then the head `bound_head(obs[b])`. Each value is bitwise that head's
    /// column of the [`TrainedPitot::predict_log_runtime_into`] row, but
    /// only the named heads are scored: a bound head already in `heads` is
    /// copied, not scored twice. A head of a row with `n ≥ 1` interferers
    /// costs `1 + s(n + 1)` length-r dot products (an isolated row, one),
    /// so at 8 heads and s = 2 an
    /// arity-3 row of a served answer (`heads = [0]`, the point head, plus
    /// the head its bound adds its offset to, the one
    /// [`PooledConformal::calibration_for`](pitot_conformal::PooledConformal::calibration_for)
    /// names for the row's pool) takes 18 instead of the every-head read's
    /// 72, and a read of the bound alone (`heads = []`) takes 9. A serving
    /// window's observation passes its kept heads as `heads`.
    /// [`TrainedPitot::lookup_log_heads_into`] is the same read with every
    /// dot product looked up instead.
    ///
    /// Under [`PitotConfig::rearrange_quantiles`] the per-row sort mixes
    /// heads, so every head is scored and sorted first and the named columns
    /// are kept. Reuse `out` across calls and the read allocates nothing
    /// once `out` has held a batch this large. Results are bitwise
    /// identical across `PITOT_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is not strictly ascending below the head count, or
    /// if a row indexes outside the catalog `towers` was built over.
    pub fn predict_log_heads_into<O: Borrow<Observation> + Sync>(
        &self,
        towers: &TowerCache,
        obs: &[O],
        heads: &[usize],
        bound_head: impl Fn(&Observation) -> usize + Sync,
        out: &mut Matrix,
    ) {
        let products = self.model.computed(&towers.w, &towers.p_full);
        self.log_heads_into(&products, obs, heads, bound_head, out);
    }

    /// [`TrainedPitot::predict_log_heads_into`], bitwise, with every inner
    /// product looked up in the completed matrix `towers` memoizes instead
    /// of computed: the read of a caller whose rows fall on few platforms,
    /// such as a placement decision on a site.
    ///
    /// The first read of a row on platform `j` scored by head `h` fills
    /// that (platform, head)'s table: for every workload, the `1 + 2s`
    /// inner products `⟨wᵢ, pⱼ⟩`, `⟨wᵢ, vₛ⁽ᵗ⁾⟩` and `⟨wᵢ, v_g⁽ᵗ⁾⟩`, each
    /// from the same `dot` call on the same slices as the computed read
    /// (1,260 B at 63 workloads and s = 2). From then on a head of a row
    /// with `n ≥ 1` interferers is `1 + s(n + 1)` lookups and adds, summed
    /// in the computed read's order. Tables live as long as `towers`, and a
    /// new model's cache starts with none. Once its tables are filled, a
    /// read allocates nothing more than the computed read does.
    ///
    /// # Panics
    ///
    /// Panics as [`TrainedPitot::predict_log_heads_into`] does, with the
    /// same messages, and if `towers` was first read through tables by a
    /// model with another head count.
    pub fn lookup_log_heads_into<O: Borrow<Observation> + Sync>(
        &self,
        towers: &TowerCache,
        obs: &[O],
        heads: &[usize],
        bound_head: impl Fn(&Observation) -> usize + Sync,
        out: &mut Matrix,
    ) {
        let computed = self.model.computed(&towers.w, &towers.p_full);
        let products = towers.tables.looked_up(computed, self.model.n_heads());
        self.log_heads_into(&products, obs, heads, bound_head, out);
    }

    /// The head-list read of [`TrainedPitot::predict_log_heads_into`] from
    /// either source of inner products.
    fn log_heads_into<O: Borrow<Observation> + Sync>(
        &self,
        products: &impl Source,
        obs: &[O],
        heads: &[usize],
        bound_head: impl Fn(&Observation) -> usize + Sync,
        out: &mut Matrix,
    ) {
        let n_heads = self.model.n_heads();
        assert!(
            heads.windows(2).all(|p| p[0] < p[1]) && heads.last().is_none_or(|&h| h < n_heads),
            "read heads {heads:?} are not ascending head ids of a {n_heads}-head model"
        );
        let (n, k) = (obs.len(), heads.len());
        let row = |b: usize| obs[b].borrow();
        // A one-head row is its own sort.
        if self.model.config().rearrange_quantiles && n_heads > 1 {
            // Rows hold every sorted head before their columns are picked.
            let stride = n_heads.max(k + 1);
            rows_into(n, stride, out, |b, y| {
                let o = row(b);
                self.every_head_row(products, o, &mut y[..n_heads]);
                let bound = y[bound_head(o)];
                // `heads` ascends, so column `c` reads `y[heads[c]]` before
                // any column at or past `heads[c]` is written.
                for (c, &h) in heads.iter().enumerate() {
                    y[c] = y[h];
                }
                y[k] = bound;
            });
            // Compact the rows to `k + 1` columns in place: row `b` lands
            // at or before its own start, so no row is overwritten before
            // it is moved.
            let data = out.as_mut_slice();
            for b in 1..n {
                data.copy_within(b * stride..b * stride + k + 1, b * (k + 1));
            }
            out.resize(n, k + 1);
            return;
        }
        let model = &self.model;
        rows_into(n, k + 1, out, |b, y| {
            let o = row(b);
            let h = bound_head(o);
            // An empty list (a bound or point read alone) and a one-head
            // list (a served answer's `[0]`) are scored from arrays, whose
            // length the kernel's per-head loop is compiled for: a slice of
            // one costs the read ~15% in a microbenchmark.
            match (heads, heads.iter().position(|&listed| listed == h)) {
                (&[], _) => model.predict_row(products, o, [h], y),
                (&[only], Some(_)) => {
                    model.predict_row(products, o, [only], &mut y[..1]);
                    y[1] = y[0];
                }
                (&[only], None) => model.predict_row(products, o, [only, h], y),
                (_, Some(c)) => {
                    model.predict_row(products, o, heads.iter().copied(), &mut y[..k]);
                    y[k] = y[c];
                }
                (_, None) => model.predict_row(products, o, heads.iter().copied().chain([h]), y),
            }
            self.to_log_runtime(o, y);
        });
    }

    /// Maps one row of residuals predicted for `o` to log runtime in
    /// place.
    fn to_log_runtime(&self, o: &Observation, y_row: &mut [f32]) {
        let base = self
            .scaling
            .log_baseline(o.workload as usize, o.platform as usize);
        for y in y_row {
            *y = match self.model.config().loss_space {
                LossSpace::LogResidual => base + *y,
                LossSpace::Log => *y,
                LossSpace::NaiveProportional => {
                    // ŷ is a linear-space ratio; clamp to stay in the log
                    // domain.
                    base + y.max(1e-6).ln()
                }
            };
        }
    }

    /// Point predictions in seconds (head 0; the only head under
    /// [`Objective::Squared`]).
    pub fn predict_runtime(&self, dataset: &Dataset, idx: &[usize]) -> Vec<f32> {
        self.log_rows(&self.tower_cache(dataset), dataset, idx)
            .iter_rows()
            .map(|row| row[0].exp())
            .collect()
    }

    /// Mean absolute percentage error on the given observations (per
    /// interference count: [`crate::mape_by_mode`]). Returns `NaN` when
    /// `idx` is empty.
    pub fn mape(&self, dataset: &Dataset, idx: &[usize]) -> f32 {
        if idx.is_empty() {
            return f32::NAN;
        }
        let actual: Vec<f32> = idx
            .iter()
            .map(|&i| dataset.observations[i].runtime_s)
            .collect();
        crate::eval::mape(&self.predict_runtime(dataset, idx), &actual)
    }

    /// The step/loss trace recorded during training.
    pub fn final_val_loss(&self) -> f32 {
        self.history
            .iter()
            .map(|p| p.val_loss)
            .fold(f32::INFINITY, f32::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitot_testbed::{Testbed, TestbedConfig};
    use std::collections::BTreeSet;

    fn setup() -> (Dataset, Split) {
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&ds, 0.6, 0);
        (ds, split)
    }

    /// [`setup`]'s dataset and split, generated once per test binary.
    fn fixture() -> &'static (Dataset, Split) {
        static FIXTURE: std::sync::OnceLock<(Dataset, Split)> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(setup)
    }

    #[test]
    fn training_reduces_validation_loss() {
        let (ds, split) = setup();
        let trained = train(&ds, &split, &PitotConfig::tiny());
        let first = trained.history.first().unwrap().val_loss;
        let best = trained.final_val_loss();
        assert!(
            best < first,
            "validation loss did not improve: first {first}, best {best}"
        );
    }

    #[test]
    fn trained_model_beats_scaling_baseline_on_mape() {
        let (ds, split) = setup();
        let trained = train(&ds, &split, &PitotConfig::tiny());
        let by_mode = crate::mape_by_mode(&trained, &ds, &split.test);
        let mape = by_mode[0].expect("isolation test data");
        // The scaling baseline alone leaves the pair-affinity structure
        // unexplained; the tiny model should land comfortably under 60%.
        assert!(mape < 0.6, "isolation MAPE {mape}");
        assert!(mape > 0.0);
        // One prediction pass split by arity is each mode's own MAPE.
        for (k, got) in by_mode.into_iter().enumerate() {
            let mode: Vec<usize> = split
                .test
                .iter()
                .copied()
                .filter(|&i| ds.observations[i].interferers.len() == k)
                .collect();
            let want = trained.mape(&ds, &mode);
            assert_eq!(got.map(f32::to_bits), Some(want.to_bits()), "mode {k}");
        }
    }

    #[test]
    fn discard_mode_trains_without_interference_data() {
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.interference = InterferenceMode::Discard;
        cfg.steps = 100;
        let trained = train(&ds, &split, &cfg);
        assert!(trained.final_val_loss().is_finite());
    }

    #[test]
    fn quantile_training_orders_heads() {
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.95]);
        cfg.steps = 400;
        let trained = train(&ds, &split, &cfg);
        let preds = trained.predict_log_runtime(&ds, &split.test[..200.min(split.test.len())]);
        // The 95th-percentile head should usually predict above the median
        // head after training.
        let above = preds[0]
            .iter()
            .zip(&preds[1])
            .filter(|(med, hi)| hi >= med)
            .count();
        assert!(
            above as f32 / preds[0].len() as f32 > 0.7,
            "only {above}/{} hi-quantile predictions above median",
            preds[0].len()
        );
    }

    #[test]
    fn serialization_round_trip_preserves_predictions() {
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 80;
        let trained = train(&ds, &split, &cfg);
        let restored = TrainedPitot::from_json(&trained.to_json()).unwrap();
        let idx: Vec<usize> = split.test.iter().copied().take(20).collect();
        assert_eq!(
            trained.predict_log_runtime(&ds, &idx),
            restored.predict_log_runtime(&ds, &idx)
        );
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(TrainedPitot::from_json("not json").is_err());
    }

    #[test]
    fn fine_tuning_does_not_regress() {
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 250;
        let trained = train(&ds, &split, &cfg);
        let tuned = trained.fine_tune(&ds, &split, 150);
        let idx = split.test[..2000.min(split.test.len())].to_vec();
        let before = crate::mape_by_mode(&trained, &ds, &idx)[0].expect("isolation data");
        let after = crate::mape_by_mode(&tuned, &ds, &idx)[0].expect("isolation data");
        assert!(
            after <= before * 1.1,
            "fine-tuning regressed: {before} → {after}"
        );
    }

    #[test]
    fn fine_tuning_adapts_to_new_observations() {
        // Warm-start on a split with more data must be at least as good as
        // the stale model, with far fewer steps than training from scratch.
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let early = Split::stratified(&ds, 0.2, 0);
        let late = Split::stratified(&ds, 0.7, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 300;
        let stale = train(&ds, &early, &cfg);
        let tuned = stale.fine_tune(&ds, &late, 150);
        let idx: Vec<usize> = late
            .test
            .iter()
            .copied()
            .filter(|&i| ds.observations[i].interferers.is_empty())
            .take(2000)
            .collect();
        let m_stale = stale.mape(&ds, &idx);
        let m_tuned = tuned.mape(&ds, &idx);
        assert!(
            m_tuned <= m_stale * 1.05,
            "online update should help: stale {m_stale}, tuned {m_tuned}"
        );
    }

    #[test]
    fn resume_matches_fresh_training_bitwise() {
        // fit(a) + resume(b) must take exactly the same parameter trajectory
        // as one fit(a + b) run: same RNG stream, same optimizer moments,
        // same evaluation side effects on the model (none).
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 90;

        let mut split_run = TrainContext::new(&ds, &split, &cfg);
        split_run.fit(&ds); // 90 steps
        split_run.resume(&ds, 70); // 70 more

        let mut cfg_full = cfg.clone();
        cfg_full.steps = 160;
        let mut full_run = TrainContext::new(&ds, &split, &cfg_full);
        full_run.fit(&ds);

        assert_eq!(split_run.steps_taken(), full_run.steps_taken());
        assert_eq!(
            split_run.model().store().params(),
            full_run.model().store().params(),
            "warm-start resume diverged from the fresh run"
        );
    }

    #[test]
    fn pruning_mask_survives_serde_and_resume() {
        // A pruning mask installed on the parameter plane must (a) hold
        // pruned weights at exactly zero through training, (b) keep
        // fit(a)+resume(b) bitwise identical to fit(a+b), and (c) survive a
        // serde round trip of the store.
        fn install_mask(ctx: &mut TrainContext) {
            let ranges: Vec<pitot_nn::ParamRange> = ctx
                .model()
                .fw()
                .layers()
                .iter()
                .chain(ctx.model().fp().layers())
                .map(pitot_nn::Linear::weight_range)
                .collect();
            let store = ctx.model_mut().store_mut();
            for r in ranges {
                store.prune_window_by_magnitude(r, 0.5);
            }
        }

        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 60;

        let mut split_run = TrainContext::new(&ds, &split, &cfg);
        install_mask(&mut split_run);
        split_run.fit(&ds);
        split_run.resume(&ds, 50);

        let mut cfg_full = cfg.clone();
        cfg_full.steps = 110;
        let mut full_run = TrainContext::new(&ds, &split, &cfg_full);
        install_mask(&mut full_run);
        full_run.fit(&ds);

        assert_eq!(
            split_run.model().store().params(),
            full_run.model().store().params(),
            "masked resume diverged from the fresh masked run"
        );

        let store = split_run.model().store();
        let mask = store.mask().expect("mask installed");
        let pruned: Vec<f32> = mask
            .iter()
            .zip(store.params())
            .filter(|(&m, _)| m == 0)
            .map(|(_, &p)| p)
            .collect();
        assert!(!pruned.is_empty(), "sparsity 0.5 must prune something");
        assert!(
            pruned.iter().all(|&p| p == 0.0),
            "a pruned weight re-grew during training"
        );

        // Mask and plane round-trip through serde together.
        let json = serde_json::to_string(store).expect("store serializes");
        let restored: pitot_nn::ParamStore = serde_json::from_str(&json).expect("store restores");
        assert_eq!(restored.mask(), store.mask());
        assert_eq!(restored.params(), store.params());
        // A pre-mask checkpoint (no `mask` field) still deserializes.
        let legacy = serde_json::to_string(full_run.model().store()).expect("serializes");
        let stripped = {
            let mut v: serde_json::Value = serde_json::from_str(&legacy).unwrap();
            v.as_object_mut().unwrap().remove("mask");
            serde_json::to_string(&v).unwrap()
        };
        let legacy_store: pitot_nn::ParamStore =
            serde_json::from_str(&stripped).expect("legacy store restores");
        assert_eq!(legacy_store.mask(), None);
    }

    #[test]
    fn layer_normalized_towers_train() {
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.tower_layer_norm = true;
        cfg.steps = 200;
        let trained = train(&ds, &split, &cfg);
        assert!(trained.final_val_loss().is_finite());
        let idx: Vec<usize> = split.test.iter().copied().take(200).collect();
        let mape = trained.mape(&ds, &idx);
        assert!(mape.is_finite() && mape < 2.0, "LN-tower MAPE {mape}");
        // The serialized checkpoint round-trips the layer-norm parameters.
        let restored = TrainedPitot::from_json(&trained.to_json()).unwrap();
        assert_eq!(
            trained.predict_log_runtime(&ds, &idx[..10]),
            restored.predict_log_runtime(&ds, &idx[..10])
        );
    }

    #[test]
    fn rearrangement_removes_head_crossing() {
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        cfg.steps = 200;
        let trained = train(&ds, &split, &cfg);
        let idx: Vec<usize> = split.test.iter().copied().take(1500).collect();
        let raw = trained.predict_log_runtime(&ds, &idx);
        let raw_crossing = pitot_conformal::crossing_rate(&raw);

        let mut cfg2 = cfg.clone();
        cfg2.rearrange_quantiles = true;
        let mut trained2 = trained.clone();
        // Same weights, only the config flag differs.
        trained2.model = {
            let mut m = trained.model.clone();
            m.set_config(cfg2);
            m
        };
        let fixed = trained2.predict_log_runtime(&ds, &idx);
        assert_eq!(pitot_conformal::crossing_rate(&fixed), 0.0);
        // At 200 steps heads are under-trained, so some crossing exists to fix.
        assert!(raw_crossing >= 0.0);
        // Rearrangement permutes values per observation; the multiset of
        // head predictions for observation 0 must be preserved.
        let mut a: Vec<f32> = raw.iter().map(|h| h[0]).collect();
        let mut b: Vec<f32> = fixed.iter().map(|h| h[0]).collect();
        a.sort_by(f32::total_cmp);
        b.sort_by(f32::total_cmp);
        assert_eq!(a, b);
    }

    #[test]
    fn row_major_predictions_are_the_transposed_per_head_predictions() {
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        cfg.steps = 40;
        let raw = train(&ds, &split, &cfg);
        let towers = raw.tower_cache(&ds);
        let mut sorted = raw.clone();
        sorted.model.set_config(PitotConfig {
            rearrange_quantiles: true,
            ..cfg
        });
        let idx = &split.test[..65];
        let obs: Vec<&Observation> = idx.iter().map(|&i| &ds.observations[i]).collect();
        // Row-major bits of per-head predictions.
        let rows_of = |heads: &[Vec<f32>]| -> Vec<Vec<u32>> {
            (0..heads[0].len())
                .map(|b| heads.iter().map(|h| h[b].to_bits()).collect())
                .collect()
        };
        let mut out = Matrix::zeros(0, 0);
        for n in [0, 1, 65] {
            // The unsorted heads rearranged by the conformal crate: the
            // reference for the per-row sort.
            let mut rearranged = raw.predict_log_runtime(&ds, &idx[..n]);
            assert!(n < 65 || pitot_conformal::crossing_rate(&rearranged) > 0.0);
            pitot_conformal::rearrange_heads(&mut rearranged);
            for (t, reference) in [(&raw, None), (&sorted, Some(rearranged))] {
                t.predict_log_runtime_into(&towers, &obs[..n], &mut out);
                assert_eq!(out.shape(), (n, 4));
                let rows: Vec<Vec<u32>> = out
                    .iter_rows()
                    .map(|r| r.iter().map(|y| y.to_bits()).collect())
                    .collect();
                let heads = t.predict_log_runtime(&ds, &idx[..n]);
                assert_eq!(rows, rows_of(&heads), "n = {n}");
                if let Some(r) = reference {
                    assert_eq!(rows, rows_of(&r), "n = {n}");
                }
                // Each row is its observation's row when scored alone.
                let mut alone = Matrix::zeros(0, 0);
                for (b, row) in rows.iter().enumerate() {
                    t.predict_log_runtime_into(&towers, &obs[b..=b], &mut alone);
                    let bits: Vec<u32> = alone.row(0).iter().map(|y| y.to_bits()).collect();
                    assert_eq!(row, &bits, "row {b} of {n}");
                }
            }
        }
    }

    /// A model of `n_heads` heads with random tower outputs over the shared
    /// fixture, under the given interference mode, loss space and
    /// rearrangement, and 40 random query rows of arity 0–3.
    #[allow(clippy::too_many_arguments)]
    fn random_read(
        seed: u64,
        aware: usize,
        n_heads: usize,
        space: usize,
        rearrange: usize,
        r: usize,
        s: usize,
    ) -> (TrainedPitot, TowerCache, Vec<Observation>) {
        static FIXTURE: std::sync::OnceLock<(Dataset, Split, ScalingBaseline)> =
            std::sync::OnceLock::new();
        let (ds, split, scaling) = FIXTURE.get_or_init(|| {
            let (ds, split) = setup();
            let scaling = ScalingBaseline::fit(&ds, &split.train);
            (ds, split, scaling)
        });
        let cfg = PitotConfig {
            embed_dim: r,
            interference_types: s,
            interference: [InterferenceMode::Ignore, InterferenceMode::Aware][aware],
            loss_space: [
                LossSpace::LogResidual,
                LossSpace::Log,
                LossSpace::NaiveProportional,
            ][space],
            rearrange_quantiles: rearrange == 1,
            objective: Objective::Quantiles(
                (1..=n_heads)
                    .map(|h| h as f32 / (n_heads + 1) as f32)
                    .collect(),
            ),
            ..PitotConfig::tiny()
        };
        let trained = TrainedPitot {
            model: PitotModel::new(&cfg, ds),
            scaling: scaling.clone(),
            history: Vec::new(),
            split: split.clone(),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut fill = |rows: usize, cols: usize| {
            let mut m = Matrix::zeros(rows, cols);
            for v in m.as_mut_slice() {
                *v = rng.gen_range(-1.0f32..1.0);
            }
            m
        };
        let towers = TowerCache::new(
            fill(ds.n_workloads, r * n_heads),
            fill(ds.n_platforms, r * (1 + 2 * s)),
        );
        let obs: Vec<Observation> = (0..40)
            .map(|b| Observation {
                workload: rng.gen_range(0..ds.n_workloads as u32),
                platform: rng.gen_range(0..ds.n_platforms as u32),
                interferers: (0..b % 4)
                    .map(|_| rng.gen_range(0..ds.n_workloads as u32))
                    .collect(),
                runtime_s: 1.0,
            })
            .collect();
        (trained, towers, obs)
    }

    proptest::proptest! {
        /// The point-and-bound read (`heads = [0]`) is bitwise the `[head
        /// 0, bound head]` columns of the every-head read: random tower
        /// outputs, `Aware` and `Ignore`, arity 0–3, 1, 2 or 8 heads, every
        /// loss space, and rearrangement on or off. Bound heads vary per
        /// row and include 0.
        #[test]
        fn point_bound_read_is_two_columns_of_the_every_head_read(
            seed in 0u64..u64::MAX,
            aware in 0usize..2,
            heads in 0usize..3,
            space in 0usize..3,
            rearrange in 0usize..2,
            r in 1usize..12,
            s in 1usize..4,
        ) {
            let n_heads = [1, 2, 8][heads];
            let (trained, towers, obs) = random_read(seed, aware, n_heads, space, rearrange, r, s);
            let bound_head = |o: &Observation| (o.workload + o.platform) as usize % n_heads;
            let mut full = Matrix::zeros(0, 0);
            trained.predict_log_runtime_into(&towers, &obs, &mut full);
            let mut pairs = Matrix::zeros(0, 0);
            trained.predict_log_heads_into(&towers, &obs, &[0], bound_head, &mut pairs);
            proptest::prop_assert_eq!(pairs.shape(), (obs.len(), 2));
            for (b, o) in obs.iter().enumerate() {
                let row = full.row(b);
                let want = [row[0].to_bits(), row[bound_head(o)].to_bits()];
                let got = [pairs.row(b)[0].to_bits(), pairs.row(b)[1].to_bits()];
                proptest::prop_assert_eq!(got, want, "row {} ({:?})", b, o.interferers);
            }
        }

        /// A read of any ascending head list plus a per-row head is bitwise
        /// those columns of the every-head read: lists from empty to every
        /// head, with the row's head inside the list or outside it, over the
        /// same random models as the point-and-bound read. Every case also
        /// reads the empty list.
        #[test]
        fn head_list_read_is_columns_of_the_every_head_read(
            seed in 0u64..u64::MAX,
            aware in 0usize..2,
            heads in 0usize..3,
            space in 0usize..3,
            rearrange in 0usize..2,
            r in 1usize..12,
            s in 1usize..4,
        ) {
            let n_heads = [1, 2, 8][heads];
            let (trained, towers, obs) = random_read(seed, aware, n_heads, space, rearrange, r, s);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4EAD);
            let list: Vec<usize> = (0..n_heads).filter(|_| rng.gen_bool(0.5)).collect();
            let bound_head = |o: &Observation| (o.workload * 3 + o.platform) as usize % n_heads;
            let mut full = Matrix::zeros(0, 0);
            trained.predict_log_runtime_into(&towers, &obs, &mut full);
            let mut read = Matrix::zeros(0, 0);
            // The drawn list, and the empty list of a bound read alone.
            for list in [list, Vec::new()] {
                trained.predict_log_heads_into(&towers, &obs, &list, bound_head, &mut read);
                proptest::prop_assert_eq!(read.shape(), (obs.len(), list.len() + 1));
                for (b, o) in obs.iter().enumerate() {
                    let row = full.row(b);
                    let want: Vec<u32> = list
                        .iter()
                        .chain([bound_head(o)].iter())
                        .map(|&h| row[h].to_bits())
                        .collect();
                    let got: Vec<u32> = read.row(b).iter().map(|y| y.to_bits()).collect();
                    proptest::prop_assert_eq!(got, want, "row {} heads {:?}", b, list);
                }
            }
        }
    }

    proptest::proptest! {
        /// The lookup read is bitwise the computed read: random untrained
        /// models under every interference mode, four interference
        /// activations, rearrangement on or off, and dense, int8 and
        /// pruned-int8 towers. Rows carry 0..=`MAX_INTERFERERS`
        /// interferers from a pool of five workloads, so ids repeat within
        /// a row. Every head is read as a listed head and as a row's bound
        /// head, alone (the empty list) and next to listed heads. Each
        /// (platform, head) table is filled once: a second pass fills none.
        #[test]
        fn lookup_read_is_the_computed_read_bitwise(
            seed in 0u64..u64::MAX,
            mode in 0usize..3,
            activation in 0usize..4,
            heads in 0usize..3,
            rearrange in 0usize..2,
            towers in 0usize..3,
            r in 1usize..12,
            s in 1usize..4,
        ) {
            use crate::{CompressionSpec, InterferenceMode::*};
            use pitot_nn::Activation;
            let n_heads = [1, 2, 8][heads];
            let (ds, split) = fixture();
            let cfg = PitotConfig {
                seed,
                embed_dim: r,
                interference_types: s,
                interference: [Ignore, Aware, Discard][mode],
                interference_activation: [
                    Activation::LeakyRelu(0.1),
                    Activation::Gelu,
                    Activation::Tanh,
                    Activation::Relu,
                ][activation],
                rearrange_quantiles: rearrange == 1,
                objective: Objective::Quantiles(
                    (1..=n_heads)
                        .map(|h| h as f32 / (n_heads + 1) as f32)
                        .collect(),
                ),
                ..PitotConfig::tiny()
            };
            let trained = TrainedPitot {
                model: PitotModel::new(&cfg, ds),
                scaling: ScalingBaseline::fit(ds, &split.train),
                history: Vec::new(),
                split: split.clone(),
            };
            let spec = [
                CompressionSpec::none(),
                CompressionSpec::int8(),
                CompressionSpec::pruned_int8(0.3),
            ][towers];
            let cache = trained.compressed_tower_cache(ds, &spec);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7AB1E);
            let obs: Vec<Observation> = (0..48)
                .map(|b| Observation {
                    workload: rng.gen_range(0..ds.n_workloads as u32),
                    platform: rng.gen_range(0..ds.n_platforms as u32),
                    interferers: (0..b % (MAX_INTERFERERS + 1))
                        .map(|_| rng.gen_range(0..5))
                        .collect(),
                    runtime_s: 1.0,
                })
                .collect();
            let every: Vec<usize> = (0..n_heads).collect();
            let bits = |m: &Matrix| m.as_slice().iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            let (mut computed, mut looked_up) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            let before = crate::tables_filled();
            for pass in 0..2 {
                for shift in 0..n_heads {
                    let bound_head = |o: &Observation| (o.workload as usize + shift) % n_heads;
                    for list in [&every[..], &[0][..], &[][..]] {
                        trained.predict_log_heads_into(&cache, &obs, list, bound_head, &mut computed);
                        trained.lookup_log_heads_into(&cache, &obs, list, bound_head, &mut looked_up);
                        proptest::prop_assert_eq!(looked_up.shape(), computed.shape());
                        proptest::prop_assert_eq!(
                            bits(&looked_up),
                            bits(&computed),
                            "heads {:?}, shift {}",
                            list,
                            shift
                        );
                    }
                }
                let platforms: BTreeSet<u32> = obs.iter().map(|o| o.platform).collect();
                proptest::prop_assert_eq!(
                    crate::tables_filled() - before,
                    (platforms.len() * n_heads) as u64,
                    "pass {}",
                    pass
                );
            }
        }
    }

    #[test]
    fn steady_state_steps_are_matrix_alloc_free() {
        // After a short warmup (buffers sized, optimizer moment planes
        // allocated), the training step must recycle every buffer: the
        // counter in pitot_linalg::alloc_count — which also tracks the
        // parameter/gradient/moment planes via record_buffer — stays at zero
        // across further steps. This covers the FULL optimizer step
        // (forward, backward, and the fused AdaMax plane update) AND a
        // checkpoint evaluation: the eval path indexes the dataset through
        // `predict_batch_into`'s row accessor and reuses the step buffers'
        // prediction matrix and mode/index list, so once sized it allocates
        // nothing either.
        let (ds, split) = setup();
        let cfg = PitotConfig::tiny();
        let mut ctx = TrainContext::new(&ds, &split, &cfg);

        let raw_steps = |ctx: &mut TrainContext, n: usize| {
            for _ in 0..n {
                training_step(
                    &mut ctx.model,
                    &ds,
                    &ctx.residual_targets,
                    &ctx.config,
                    &ctx.mode_pools,
                    &ctx.mode_weights,
                    &mut ctx.rng,
                    ctx.opt.as_mut(),
                    &mut ctx.bufs,
                );
            }
        };
        let checkpoint_eval = |ctx: &mut TrainContext| {
            evaluate_loss_cached(
                &ctx.model,
                &ctx.residual_targets,
                &ds,
                &ctx.val_idx,
                &ctx.config,
                &ctx.eval_xis,
                &mut ctx.bufs.towers,
                &mut ctx.bufs.eval_preds,
                &mut ctx.bufs.eval_obs,
            )
        };
        raw_steps(&mut ctx, 3); // warmup: sizes every buffer, allocates moments
        let warm_loss = checkpoint_eval(&mut ctx); // warmup: sizes eval buffers
        pitot_linalg::alloc_count::reset();
        raw_steps(&mut ctx, 5);
        let loss = checkpoint_eval(&mut ctx);
        assert_eq!(
            pitot_linalg::alloc_count::matrix_allocs(),
            0,
            "steady-state training steps + checkpoint eval must not allocate \
             matrix or plane buffers"
        );
        assert!(warm_loss.is_finite() && loss.is_finite());
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let (ds, split) = setup();
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 60;
        let a = train(&ds, &split, &cfg);
        let b = train(&ds, &split, &cfg);
        assert_eq!(a.history, b.history);
    }
}
