//! Serving-loop configuration.

use pitot_conformal::HeadSelection;

/// Knobs for a [`crate::PitotServer`].
///
/// The defaults serve bounds at the given miscoverage with a 512-observation
/// sliding window refreshed on every arrival, arity-keyed calibration pools,
/// and fine-tuning disabled (set [`ServeConfig::fine_tune_steps`] to opt
/// in). Settings no deployment varies are associated constants instead of
/// fields: [`ServeConfig::DRIFT_Z`], [`ServeConfig::REBUILD_GROWTH`],
/// [`ServeConfig::STALE_EPSILON_FACTOR`] and
/// [`ServeConfig::QUARANTINE_RETAIN`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target miscoverage ε of the served upper bounds.
    pub epsilon: f32,
    /// Sliding calibration window capacity (observations retained).
    pub window: usize,
    /// Conformal refresh cadence: refit the served calibration after this
    /// many observations (1 = every arrival; refreshes are rank lookups
    /// over the incrementally maintained window, so 1 is affordable).
    /// `usize::MAX` leaves every refresh to an outside installer, as fleet
    /// replicas do: the server then also skips the refit after a watchdog
    /// rollback.
    pub refresh_every: usize,
    /// Key calibration pools by interference arity (the paper's pooling);
    /// `false` uses one global pool — e.g. to isolate the effect of
    /// windowing in comparisons.
    pub pool_by_arity: bool,
    /// Quantile-head selection policy for the served calibration:
    /// [`HeadSelection::SingleHead`] or [`HeadSelection::NaiveXi`] (the
    /// default). [`HeadSelection::TightestOnValidation`] is rejected. The
    /// paper selects heads on a validation split kept apart from the
    /// calibration split, and a server has only its window: selecting on
    /// the scores it calibrates on breaks their exchangeability with the
    /// next observation, and with it the coverage guarantee.
    ///
    /// The policy also decides which heads a calibration window keeps a
    /// score for: head 0, the head the policy picks at
    /// [`ServeConfig::epsilon`] and, while staleness tracking is on, the
    /// head it picks at the stale fallback's widened miscoverage (see
    /// [`crate::PitotServer::kept_heads`]). Every fit a server or its fleet
    /// makes reads only those.
    pub selection: HeadSelection,
    /// Rolling prequential-coverage window the drift detector watches.
    pub drift_window: usize,
    /// Minimum monitored observations before drift can fire.
    pub drift_min: usize,
    /// Optimizer steps per drift-triggered warm-start fine-tune
    /// (`0` disables fine-tuning; recalibration alone still runs).
    pub fine_tune_steps: usize,
    /// Streamed observations retained as the fine-tune training pool. The
    /// server's dataset copy is compacted to the most recent
    /// `fine_tune_retain.max(window)` arrivals once it exceeds that bound,
    /// so a long-lived server's memory stays bounded; older observations
    /// are forgotten (the model has already absorbed them through earlier
    /// fine-tunes).
    pub fine_tune_retain: usize,
    /// Minimum observations between fine-tunes (lets the refreshed
    /// calibration and monitor re-fill before judging the updated model).
    pub fine_tune_cooldown: usize,
    /// Fleet replicas' staleness tolerance of a served calibration, in
    /// local window pushes (the eviction clock): at the first merge tick
    /// after more than this many observations arrive without a newer
    /// install, the fleet degrades the replica to a fallback calibration
    /// fit on its own window at the widened miscoverage
    /// `epsilon ×` [`ServeConfig::STALE_EPSILON_FACTOR`], and refits the
    /// fallback whenever it grows as old. `0` (the default) disables
    /// staleness tracking — the installed calibration is trusted forever.
    /// A standalone [`crate::PitotServer`] ignores it.
    pub staleness_threshold: usize,
    /// Switch of the trustworthy-telemetry ingest guard's MAD outlier
    /// screen (below), which then runs on every arrival. Runtimes are
    /// screened on every server either way: a non-finite or non-positive
    /// runtime is **quarantined** into the audited side buffer (see
    /// [`crate::GuardStats`]), never panicked on. Off by default: ingest
    /// then trusts the scale of its telemetry.
    pub ingest_guard: bool,
    /// Robust outlier screen: an arriving observation whose head-0
    /// nonconformity score `s` satisfies
    /// `|s − median| > guard_mad_k · 1.4826 · MAD` over the current
    /// window is quarantined. `0.0` disables the screen (the finite/bounds
    /// checks still run).
    /// Default 8.0 — far enough out that honest drift passes and only
    /// scale-class corruption trips it.
    pub guard_mad_k: f32,
    /// Minimum window occupancy before the MAD screen judges arrivals (a
    /// near-empty window has no robust scale estimate). Default 64.
    pub guard_min_n: usize,
    /// Miscoverage watchdog: fires when prequential coverage over the
    /// drift window falls below `1 − ε − watchdog_z·√(ε(1−ε)/n)`,
    /// triggering a quarantine-rollback rescore of the calibration window
    /// (poisoned entries are purged by the MAD screen, the rebuilt
    /// window's clock advances past every poisoned snapshot, and the
    /// served calibration is refit on it — by the fleet's next install, on
    /// a fleet replica). `0.0` (the
    /// default) disables the watchdog. Requires the ingest guard and MAD
    /// screen to be enabled. Typical: 4.0 — strictly wider slack than
    /// [`ServeConfig::DRIFT_Z`] so model drift retrains before poisoning
    /// rolls back.
    pub watchdog_z: f32,
    /// Minimum judged observations before the watchdog can fire (and,
    /// because firing resets the coverage monitor, the minimum spacing
    /// between consecutive firings). Default 128.
    pub watchdog_min: usize,
}

impl ServeConfig {
    /// Binomial-slack multiplier of the drift monitor: drift fires when
    /// rolling coverage falls below `1 − ε − z·√(ε(1−ε)/n)`.
    pub const DRIFT_Z: f32 = 3.0;

    /// Growth factor of the streamed set that rebuilds a fine-tune's
    /// training context: the first fine-tune builds one with
    /// [`pitot::TrainContext::warm_start`], a compaction drops it, and once
    /// the streamed set has grown by this factor since the last build the
    /// next fine-tune builds afresh (folding the new arrivals into the
    /// batch pools). Between rebuilds, fine-tunes are
    /// [`pitot::TrainContext::resume`] calls.
    pub const REBUILD_GROWTH: f32 = 1.5;

    /// Miscoverage multiplier of a fleet replica's stale-fallback
    /// calibration: the fallback fits at `epsilon × 0.5`, honestly
    /// *widening* intervals to reflect that the local window is a shard,
    /// not the fleet (see [`ServeConfig::staleness_threshold`]).
    pub const STALE_EPSILON_FACTOR: f32 = 0.5;

    /// Quarantine audit records and watchdog incidents retained (bounded
    /// rings; the per-cause *counters* are cumulative and never truncated).
    pub const QUARANTINE_RETAIN: usize = 256;

    /// Defaults at miscoverage `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ (0, 1)`.
    pub fn at(epsilon: f32) -> Self {
        let cfg = Self {
            epsilon,
            window: 512,
            refresh_every: 1,
            pool_by_arity: true,
            selection: HeadSelection::NaiveXi,
            drift_window: 256,
            drift_min: 64,
            fine_tune_steps: 0,
            fine_tune_retain: 8192,
            fine_tune_cooldown: 256,
            staleness_threshold: 0,
            ingest_guard: false,
            guard_mad_k: 8.0,
            guard_min_n: 64,
            watchdog_z: 0.0,
            watchdog_min: 128,
        };
        cfg.validate();
        cfg
    }

    /// [`ServeConfig::at`] with the full trustworthy-telemetry posture on:
    /// ingest guard, MAD screen, and the miscoverage watchdog at
    /// `watchdog_z = 4.0`.
    pub fn guarded(epsilon: f32) -> Self {
        let cfg = Self {
            ingest_guard: true,
            watchdog_z: 4.0,
            ..Self::at(epsilon)
        };
        cfg.validate();
        cfg
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε, a zero window or cadence, the
    /// [`HeadSelection::TightestOnValidation`] policy (see
    /// [`ServeConfig::selection`]), or an inconsistent drift, staleness,
    /// guard or watchdog setting.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "ServeConfig.epsilon = {} is outside (0,1): the target \
             miscoverage must be a strict probability (typical values: \
             0.05, 0.1, 0.2)",
            self.epsilon
        );
        assert!(
            self.window > 0,
            "ServeConfig.window = 0 is invalid: the sliding calibration \
             window must retain at least 1 observation (default: 512)"
        );
        assert!(
            self.refresh_every > 0,
            "ServeConfig.refresh_every = 0 is invalid: the conformal \
             refresh cadence must be at least 1 observation (1 = refresh \
             on every arrival, the default)"
        );
        assert!(
            self.selection != HeadSelection::TightestOnValidation,
            "ServeConfig.selection = TightestOnValidation is invalid: a \
             server calibrates on its sliding window and has no separate \
             selection set, and selecting heads on the calibration scores \
             voids the coverage guarantee; use HeadSelection::SingleHead or \
             HeadSelection::NaiveXi (the default)"
        );
        assert!(
            self.drift_window > 0,
            "ServeConfig.drift_window = 0 is invalid: the drift detector's \
             rolling coverage window must hold at least 1 observation \
             (default: 256)"
        );
        assert!(
            self.fine_tune_retain > 0,
            "ServeConfig.fine_tune_retain = 0 is invalid: the fine-tune \
             training pool must retain at least 1 observation (default: \
             8192; to disable fine-tuning set fine_tune_steps = 0 instead)"
        );
        assert!(
            self.staleness_threshold == 0 || self.staleness_threshold >= self.drift_min,
            "ServeConfig.staleness_threshold = {} is invalid: a nonzero \
             staleness tolerance below drift_min = {} would degrade to a \
             local fallback fit on fewer observations than the drift \
             monitor itself trusts; use staleness_threshold ≥ drift_min, \
             or 0 to disable staleness tracking (the default)",
            self.staleness_threshold,
            self.drift_min
        );
        assert!(
            self.guard_mad_k.is_finite() && self.guard_mad_k >= 0.0,
            "ServeConfig.guard_mad_k = {} is invalid: the MAD outlier \
             multiplier must be finite and ≥ 0 (0.0 disables the screen; \
             default: 8.0)",
            self.guard_mad_k
        );
        assert!(
            !self.ingest_guard || self.guard_min_n >= 1,
            "ServeConfig.guard_min_n = 0 is invalid while ingest_guard is \
             on: the MAD screen needs at least 1 windowed observation for \
             a scale estimate (default: 64; or set ingest_guard = false)"
        );
        assert!(
            self.watchdog_z.is_finite() && self.watchdog_z >= 0.0,
            "ServeConfig.watchdog_z = {} is invalid: the watchdog's \
             binomial-slack multiplier must be finite and ≥ 0 (0.0 \
             disables the watchdog; typical: 4.0)",
            self.watchdog_z
        );
        assert!(
            self.watchdog_z == 0.0 || self.ingest_guard,
            "ServeConfig.watchdog_z = {} is invalid while ingest_guard = \
             false: the watchdog's quarantine-rollback rescore purges \
             entries through the guard's MAD screen, so enable \
             ingest_guard = true (or set watchdog_z = 0.0 to disable the \
             watchdog)",
            self.watchdog_z
        );
        assert!(
            self.watchdog_z == 0.0 || self.guard_mad_k > 0.0,
            "ServeConfig.guard_mad_k = 0 is invalid while watchdog_z = {} \
             > 0: a rollback with the MAD screen disabled would purge \
             nothing and re-fire forever; use guard_mad_k > 0 (default: \
             8.0) or watchdog_z = 0.0",
            self.watchdog_z
        );
        assert!(
            self.watchdog_z == 0.0 || self.watchdog_min >= 1,
            "ServeConfig.watchdog_min = 0 is invalid while watchdog_z = {} \
             > 0: the watchdog must see at least 1 judged observation \
             before rolling back a window (default: 128; or set watchdog_z \
             = 0.0)",
            self.watchdog_z
        );
    }

    /// The heads a calibration window keeps, ascending, for a model trained
    /// at the quantiles `xis`: head 0 (the point head, which the MAD screen
    /// and the watchdog read), the head [`ServeConfig::selection`] picks at
    /// `epsilon`, and, while `staleness_threshold > 0`, the head it picks at
    /// `epsilon × STALE_EPSILON_FACTOR` — every head a served fit reads. The
    /// pick is [`HeadSelection::fixed_head`], the one a fit makes.
    pub(crate) fn kept_heads(&self, xis: &[f32]) -> Vec<usize> {
        let pick = |epsilon: f32| {
            self.selection
                .fixed_head(xis, epsilon)
                .expect("a valid serving selection picks a fixed head")
        };
        let mut heads = vec![0, pick(self.epsilon)];
        if self.staleness_threshold > 0 {
            heads.push(pick(self.epsilon * Self::STALE_EPSILON_FACTOR));
        }
        heads.sort_unstable();
        heads.dedup();
        heads
    }

    /// The calibration pool of an observation with `arity` interferers.
    pub(crate) fn pool_key(&self, arity: usize) -> usize {
        if self.pool_by_arity {
            arity.min(pitot_testbed::MAX_INTERFERERS)
        } else {
            0
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::at(0.1)
    }
}

/// Knobs for a [`crate::FleetServer`]: per-replica serving config plus the
/// coordinator's merge cadence and admission policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-replica serving configuration. The replica-local refresh cadence
    /// is ignored (the coordinator owns every refresh); `window` is the
    /// *per-replica* window, so the fleet calibration set holds up to
    /// `replicas × window` observations.
    pub serve: ServeConfig,
    /// Number of replica servers (disjoint event shards).
    pub replicas: usize,
    /// Coordinator merge cadence: merge replica summaries and reinstall the
    /// fleet calibration after this many fleet-wide observations.
    pub merge_every: usize,
    /// SLO-aware admission policy for deadline queries.
    pub admission: crate::admission::AdmissionConfig,
    /// Per-replica tower compression, the serving stack's one compression
    /// setting: empty (the default) serves every replica dense; otherwise
    /// one [`pitot::CompressionSpec`] per replica (`len() == replicas`).
    /// Each replica calibrates and predicts through its level's tower
    /// cache, so intervals widen to absorb the compression error and
    /// coverage holds at every level. The fleet builds one cache per
    /// distinct spec, shared by its replicas. Mixed fleets are fine: the
    /// merged fleet calibration pools their scores, which stay exchangeable
    /// within each replica's shard.
    pub compression: Vec<pitot::CompressionSpec>,
}

impl FleetConfig {
    /// Defaults at miscoverage `epsilon` with the given replica count:
    /// per-replica windows of 256 and a merge every 32 observations.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ (0, 1)` or `replicas` is zero.
    pub fn at(epsilon: f32, replicas: usize) -> Self {
        let mut serve = ServeConfig::at(epsilon);
        serve.window = 256;
        let cfg = Self {
            serve,
            replicas,
            merge_every: 32,
            admission: crate::admission::AdmissionConfig::default(),
            compression: Vec::new(),
        };
        cfg.validate();
        cfg
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an invalid serve or admission config, a zero replica
    /// count or merge cadence, or enabled fine-tuning: a replica
    /// fine-tune refits its served calibration from the local window alone
    /// (and diverges its model from its peers'), which would silently
    /// replace the installed fleet calibration between merges. Per-site
    /// models sharing the window protocol are a future multi-model-routing
    /// direction, not supported here.
    pub fn validate(&self) {
        self.serve.validate();
        self.admission.validate();
        assert!(
            self.replicas > 0,
            "FleetConfig.replicas = 0 is invalid: a fleet needs at least 1 \
             replica server (default: 4)"
        );
        assert!(
            self.merge_every > 0,
            "FleetConfig.merge_every = 0 is invalid: the coordinator merge \
             cadence must be at least 1 fleet-wide observation (default: 32)"
        );
        assert!(
            self.serve.fine_tune_steps == 0,
            "FleetConfig.serve.fine_tune_steps = {} is not supported in \
             fleet mode: a per-replica fine-tune would silently override \
             the installed fleet calibration between merges; keep \
             fine_tune_steps = 0 in fleet mode (single-server PitotServer \
             supports fine-tuning)",
            self.serve.fine_tune_steps
        );
        assert!(
            self.compression.is_empty() || self.compression.len() == self.replicas,
            "FleetConfig.compression has {} entries for {} replicas: the \
             per-replica compression vector must either be empty (every \
             replica dense, the default) or hold exactly one \
             CompressionSpec per replica",
            self.compression.len(),
            self.replicas
        );
        for spec in &self.compression {
            spec.validate();
        }
    }

    /// The compression spec replica `r` serves under ([`CompressionSpec`
    /// ][pitot::CompressionSpec]`::none()` when the vector is empty).
    pub fn replica_compression(&self, r: usize) -> pitot::CompressionSpec {
        self.compression
            .get(r)
            .copied()
            .unwrap_or_else(pitot::CompressionSpec::none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServeConfig::default().validate();
        ServeConfig::at(0.05).validate();
    }

    #[test]
    #[should_panic(expected = "outside (0,1)")]
    fn rejects_bad_epsilon() {
        let _ = ServeConfig::at(1.5);
    }

    #[test]
    #[should_panic(expected = "ServeConfig.window = 0 is invalid")]
    fn rejects_zero_window() {
        let c = ServeConfig {
            window: 0,
            ..ServeConfig::default()
        };
        c.validate();
    }

    #[test]
    fn fleet_defaults_validate() {
        FleetConfig::at(0.1, 4).validate();
    }

    #[test]
    #[should_panic(expected = "fine_tune_steps = 0 in fleet mode")]
    fn fleet_rejects_fine_tuning() {
        let mut c = FleetConfig::at(0.1, 2);
        c.serve.fine_tune_steps = 10;
        c.validate();
    }

    /// Validation messages must name the offending field, show its value,
    /// and point at the allowed alternatives — an operator reading the
    /// panic alone should know what to change.
    #[test]
    fn validation_messages_name_field_value_and_alternatives() {
        use std::panic::catch_unwind;
        fn message<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> String {
            let err = catch_unwind(f).expect_err("must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .expect("panic carries a message")
        }

        // A fleet rejects it through its serve config.
        let m = message(|| {
            let mut c = FleetConfig::at(0.1, 2);
            c.serve.selection = HeadSelection::TightestOnValidation;
            c.validate();
        });
        assert!(m.contains("ServeConfig.selection"), "field: {m}");
        assert!(m.contains("TightestOnValidation"), "offending value: {m}");
        assert!(
            m.contains("HeadSelection::SingleHead") && m.contains("HeadSelection::NaiveXi"),
            "alternatives: {m}"
        );

        let m = message(|| {
            let mut c = FleetConfig::at(0.1, 2);
            c.serve.fine_tune_steps = 10;
            c.validate();
        });
        assert!(
            m.contains("FleetConfig.serve.fine_tune_steps"),
            "field: {m}"
        );
        assert!(m.contains("10"), "offending value: {m}");
        assert!(m.contains("fine_tune_steps = 0"), "fix: {m}");

        let m = message(|| {
            let mut c = FleetConfig::at(0.1, 2);
            c.replicas = 0;
            c.validate();
        });
        assert!(m.contains("FleetConfig.replicas = 0"), "{m}");

        let m = message(|| {
            let mut c = FleetConfig::at(0.1, 2);
            c.merge_every = 0;
            c.validate();
        });
        assert!(m.contains("FleetConfig.merge_every = 0"), "{m}");

        let m = message(|| {
            let _ = ServeConfig::at(1.5);
        });
        assert!(m.contains("ServeConfig.epsilon = 1.5"), "{m}");
        assert!(
            m.contains("0.05") || m.contains("0.1"),
            "typical values: {m}"
        );

        let m = message(|| {
            let c = ServeConfig {
                staleness_threshold: 8,
                drift_min: 64,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.staleness_threshold = 8"), "{m}");
        assert!(m.contains("drift_min = 64"), "constraint source: {m}");
        assert!(m.contains("≥ drift_min"), "fix: {m}");

        // --- trustworthy-telemetry guard/watchdog knobs (PR 8) ---
        let m = message(|| {
            let c = ServeConfig {
                guard_mad_k: -1.0,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.guard_mad_k = -1"), "{m}");
        assert!(m.contains("8.0"), "default: {m}");

        let m = message(|| {
            let c = ServeConfig {
                ingest_guard: true,
                guard_min_n: 0,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.guard_min_n = 0"), "{m}");
        assert!(m.contains("ingest_guard = false"), "alternative: {m}");

        let m = message(|| {
            let c = ServeConfig {
                watchdog_z: f32::NAN,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.watchdog_z = NaN"), "{m}");

        let m = message(|| {
            let c = ServeConfig {
                ingest_guard: false,
                watchdog_z: 4.0,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.watchdog_z = 4"), "{m}");
        assert!(m.contains("ingest_guard = true"), "fix: {m}");

        let m = message(|| {
            let c = ServeConfig {
                ingest_guard: true,
                watchdog_z: 4.0,
                guard_mad_k: 0.0,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.guard_mad_k = 0"), "{m}");
        assert!(m.contains("watchdog_z = 4"), "constraint source: {m}");

        let m = message(|| {
            let c = ServeConfig {
                ingest_guard: true,
                watchdog_z: 4.0,
                watchdog_min: 0,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.watchdog_min = 0"), "{m}");
        assert!(m.contains("watchdog_z = 0.0"), "alternative: {m}");

        // --- compressed-tower knobs ---
        let m = message(|| {
            let mut c = FleetConfig::at(0.1, 3);
            c.compression = vec![pitot::CompressionSpec::int8(); 2];
            c.validate();
        });
        assert!(
            m.contains("FleetConfig.compression has 2 entries for 3 replicas"),
            "{m}"
        );
        assert!(m.contains("empty"), "alternative: {m}");
    }

    /// A compressed fleet validates per replica.
    #[test]
    fn compression_knob_edges_validate() {
        let mut f = FleetConfig::at(0.1, 2);
        f.compression = vec![
            pitot::CompressionSpec::none(),
            pitot::CompressionSpec::pruned(0.3),
        ];
        f.validate();
        assert!(f.replica_compression(0).is_none());
        assert_eq!(f.replica_compression(1).sparsity, 0.3);
        // Empty vector: every replica dense.
        let f = FleetConfig::at(0.1, 2);
        assert!(f.replica_compression(1).is_none());
    }

    /// The guarded preset and the guard knobs' accepted edges validate:
    /// screen disabled under a live guard, watchdog off with guard on,
    /// and the full posture.
    #[test]
    fn guard_knob_edges_validate() {
        ServeConfig::guarded(0.1).validate();
        let c = ServeConfig {
            ingest_guard: true,
            guard_mad_k: 0.0, // finite/bounds checks only
            ..ServeConfig::default()
        };
        c.validate();
        let c = ServeConfig {
            ingest_guard: true,
            guard_min_n: 1,
            watchdog_z: 4.0,
            watchdog_min: 1,
            ..ServeConfig::default()
        };
        c.validate();
        // Guard knobs are inert while the guard is off.
        let c = ServeConfig {
            ingest_guard: false,
            guard_min_n: 0,
            ..ServeConfig::default()
        };
        c.validate();
    }

    /// The staleness knob's accepted edge: exactly drift_min validates
    /// (disabled, `0`, is the default).
    #[test]
    fn staleness_knob_edges_validate() {
        let c = ServeConfig {
            staleness_threshold: 64,
            drift_min: 64,
            ..ServeConfig::default()
        };
        c.validate();
    }
}
