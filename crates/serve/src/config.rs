//! Serving-loop configuration.

use pitot_conformal::HeadSelection;

/// Knobs for a [`crate::PitotServer`].
///
/// The defaults serve bounds at the given miscoverage with a 512-observation
/// sliding window refreshed on every arrival, micro-batches of 16 queries,
/// arity-keyed calibration pools, and fine-tuning disabled (set
/// [`ServeConfig::fine_tune_steps`] to opt in).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target miscoverage ε of the served upper bounds.
    pub epsilon: f32,
    /// Sliding calibration window capacity (observations retained).
    pub window: usize,
    /// Conformal refresh cadence: refit the served calibration after this
    /// many observations (1 = every arrival; refreshes are rank lookups
    /// over the incrementally maintained window, so 1 is affordable).
    pub refresh_every: usize,
    /// Queries buffered before a batched prediction pass answers them all.
    pub microbatch: usize,
    /// Key calibration pools by interference arity (the paper's pooling);
    /// `false` uses one global pool — e.g. to isolate the effect of
    /// windowing in comparisons.
    pub pool_by_arity: bool,
    /// Quantile-head selection policy for the served calibration. With
    /// [`HeadSelection::TightestOnValidation`] the window doubles as the
    /// selection set (a streaming approximation of the paper's dedicated
    /// selection half).
    pub selection: HeadSelection,
    /// Rolling prequential-coverage window the drift detector watches.
    pub drift_window: usize,
    /// Binomial-slack multiplier: drift fires when rolling coverage falls
    /// below `1 − ε − z·√(ε(1−ε)/n)`.
    pub drift_z: f32,
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
    /// Rebuild the training context (folding newly arrived observations
    /// into the batch pools) once the arrived set has grown by this factor
    /// since the last build; between rebuilds, fine-tunes are pure
    /// [`pitot::TrainContext::resume`] calls.
    pub rebuild_growth: f32,
    /// Staleness tolerance of an installed calibration, in local window
    /// pushes (the eviction clock): once more than this many observations
    /// arrive after an [`crate::PitotServer::install_calibration`] /
    /// refresh without a newer install, the server degrades to a local
    /// fallback calibration fit on its own window at the widened
    /// miscoverage `epsilon × stale_epsilon_factor`. `0` (the default)
    /// disables staleness tracking — the installed calibration is trusted
    /// forever. Only meaningful when installs come from outside (fleet
    /// mode); a self-refreshing server never goes stale.
    pub staleness_threshold: usize,
    /// Miscoverage multiplier of the stale-fallback calibration, in
    /// `(0, 1]`: the fallback fits at `epsilon × stale_epsilon_factor`,
    /// honestly *widening* intervals to reflect that the local window is a
    /// shard, not the fleet (1.0 = no widening; default 0.5 halves ε).
    pub stale_epsilon_factor: f32,
    /// Master switch of the trustworthy-telemetry ingest guard. When on,
    /// non-finite/non-positive runtimes are **quarantined** into the
    /// audited side buffer (see [`crate::GuardStats`]) instead of
    /// panicking, and the MAD outlier screen (below) runs on every
    /// arrival. When off (the default), ingest trusts its telemetry and a
    /// corrupt runtime panics at the event boundary — the fail-stop
    /// posture of PR 7.
    pub ingest_guard: bool,
    /// Robust outlier screen: an arriving observation whose head-0
    /// nonconformity score `s` satisfies
    /// `|s − median| > guard_mad_k · 1.4826 · MAD` over the current
    /// window is quarantined. `0.0` disables the screen (the finite/bounds
    /// checks still run while [`ServeConfig::ingest_guard`] is on).
    /// Default 8.0 — far enough out that honest drift passes and only
    /// scale-class corruption trips it.
    pub guard_mad_k: f32,
    /// Minimum window occupancy before the MAD screen judges arrivals (a
    /// near-empty window has no robust scale estimate). Default 64.
    pub guard_min_n: usize,
    /// Quarantine audit records retained (a bounded ring; the per-cause
    /// *counters* are cumulative and never truncated). Default 256.
    pub quarantine_retain: usize,
    /// Miscoverage watchdog: fires when prequential coverage over the
    /// drift window falls below `1 − ε − watchdog_z·√(ε(1−ε)/n)`,
    /// triggering a quarantine-rollback rescore of the calibration window
    /// (poisoned entries are purged by the MAD screen and the rebuilt
    /// window's clock advances past every poisoned snapshot). `0.0` (the
    /// default) disables the watchdog. Requires the ingest guard and MAD
    /// screen to be enabled. Typical: 4.0 — strictly wider slack than
    /// `drift_z` so model drift retrains before poisoning rolls back.
    pub watchdog_z: f32,
    /// Minimum judged observations before the watchdog can fire (and,
    /// because firing resets the coverage monitor, the minimum spacing
    /// between consecutive firings). Default 128.
    pub watchdog_min: usize,
    /// Tower compression served by this server (int8 and/or magnitude
    /// pruning; see [`pitot::CompressionSpec`]). The server calibrates on
    /// the *compressed* model's residuals, so coverage holds at every
    /// level — intervals widen to absorb the compression error.
    /// Incompatible with fine-tuning: a warm-start retrain would re-grow
    /// pruned weights and move int8-rounded weights off their grids.
    pub compression: pitot::CompressionSpec,
}

impl ServeConfig {
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
            microbatch: 16,
            pool_by_arity: true,
            selection: HeadSelection::NaiveXi,
            drift_window: 256,
            drift_z: 3.0,
            drift_min: 64,
            fine_tune_steps: 0,
            fine_tune_retain: 8192,
            fine_tune_cooldown: 256,
            rebuild_growth: 1.5,
            staleness_threshold: 0,
            stale_epsilon_factor: 0.5,
            ingest_guard: false,
            guard_mad_k: 8.0,
            guard_min_n: 64,
            quarantine_retain: 256,
            watchdog_z: 0.0,
            watchdog_min: 128,
            compression: pitot::CompressionSpec::none(),
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
    /// Panics on an out-of-range ε, a zero window/cadence/micro-batch, or a
    /// rebuild growth factor below 1.
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
            self.microbatch > 0,
            "ServeConfig.microbatch = 0 is invalid: the micro-batch must \
             hold at least 1 query (1 = no batching; default: 16)"
        );
        assert!(
            self.drift_window > 0,
            "ServeConfig.drift_window = 0 is invalid: the drift detector's \
             rolling coverage window must hold at least 1 observation \
             (default: 256)"
        );
        assert!(
            self.drift_z >= 0.0,
            "ServeConfig.drift_z = {} is invalid: the binomial-slack \
             multiplier must be non-negative (0.0 = fire on any dip below \
             1 − ε; default: 3.0)",
            self.drift_z
        );
        assert!(
            self.fine_tune_retain > 0,
            "ServeConfig.fine_tune_retain = 0 is invalid: the fine-tune \
             training pool must retain at least 1 observation (default: \
             8192; to disable fine-tuning set fine_tune_steps = 0 instead)"
        );
        assert!(
            self.rebuild_growth >= 1.0,
            "ServeConfig.rebuild_growth = {} is invalid: the context \
             rebuild factor must be ≥ 1 (1.0 = rebuild on every fine-tune; \
             default: 1.5)",
            self.rebuild_growth
        );
        assert!(
            self.stale_epsilon_factor > 0.0 && self.stale_epsilon_factor <= 1.0,
            "ServeConfig.stale_epsilon_factor = {} is invalid: the \
             degraded-mode miscoverage multiplier must be in (0, 1] (the \
             fallback fits at ε × factor, so values > 1 would *narrow* \
             stale bounds; 1.0 = no widening, default: 0.5; set \
             staleness_threshold = 0 to disable the fallback entirely)",
            self.stale_epsilon_factor
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
            !self.ingest_guard || self.quarantine_retain >= 1,
            "ServeConfig.quarantine_retain = 0 is invalid while \
             ingest_guard is on: quarantining must never be silent, so the \
             audit ring must retain at least 1 record (default: 256; or \
             set ingest_guard = false)"
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
        self.compression.validate();
        assert!(
            self.compression.is_none() || self.fine_tune_steps == 0,
            "ServeConfig.fine_tune_steps = {} is invalid while compression \
             = {:?}: a warm-start fine-tune re-grows pruned weights and \
             moves int8-rounded weights off their grids, invalidating the compressed \
             model the calibration was fit on; keep fine_tune_steps = 0 on \
             compressed servers, or serve dense \
             (compression = CompressionSpec::none()) to fine-tune",
            self.fine_tune_steps,
            self.compression.level,
        );
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
    /// Per-replica tower compression: empty (the default) serves every
    /// replica dense; otherwise one [`pitot::CompressionSpec`] per replica
    /// (`len() == replicas`). Mixed fleets are fine — each replica
    /// calibrates and predicts through its own (possibly compressed) tower
    /// cache; the merged fleet calibration pools their scores, which stay
    /// exchangeable within each replica's shard. The per-replica serve
    /// config's `compression` field is ignored in fleet mode — this vector
    /// is the single source of truth.
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
    /// count or merge cadence, the
    /// [`HeadSelection::TightestOnValidation`] policy — the coordinator
    /// fits on merged score summaries and has no fleet-wide selection set,
    /// so fleets must use [`HeadSelection::SingleHead`] or
    /// [`HeadSelection::NaiveXi`] — or enabled fine-tuning: a replica
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
            self.serve.selection != HeadSelection::TightestOnValidation,
            "FleetConfig.serve.selection = TightestOnValidation is not \
             supported in fleet mode: the coordinator fits on merged score \
             summaries and has no selection set; use HeadSelection::SingleHead \
             or HeadSelection::NaiveXi instead"
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
    #[should_panic(expected = "no selection set")]
    fn fleet_rejects_tightest_selection() {
        let mut c = FleetConfig::at(0.1, 2);
        c.serve.selection = HeadSelection::TightestOnValidation;
        c.validate();
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

        let m = message(|| {
            let mut c = FleetConfig::at(0.1, 2);
            c.serve.selection = HeadSelection::TightestOnValidation;
            c.validate();
        });
        assert!(m.contains("FleetConfig.serve.selection"), "field: {m}");
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
                rebuild_growth: 0.5,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.rebuild_growth = 0.5"), "{m}");

        let m = message(|| {
            let c = ServeConfig {
                stale_epsilon_factor: 1.5,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.stale_epsilon_factor = 1.5"), "{m}");
        assert!(m.contains("(0, 1]"), "valid range: {m}");
        assert!(m.contains("staleness_threshold = 0"), "alternative: {m}");

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
                ingest_guard: true,
                quarantine_retain: 0,
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.quarantine_retain = 0"), "{m}");
        assert!(m.contains("never be silent"), "rationale: {m}");

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
            let c = ServeConfig {
                fine_tune_steps: 10,
                compression: pitot::CompressionSpec::int8(),
                ..ServeConfig::default()
            };
            c.validate();
        });
        assert!(m.contains("ServeConfig.fine_tune_steps = 10"), "field: {m}");
        assert!(m.contains("Int8"), "offending value: {m}");
        assert!(m.contains("CompressionSpec::none()"), "alternative: {m}");

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

    /// Compressed serving composes with everything except fine-tuning; a
    /// compressed fleet validates per replica.
    #[test]
    fn compression_knob_edges_validate() {
        let c = ServeConfig {
            compression: pitot::CompressionSpec::pruned_int8(0.5),
            ..ServeConfig::default()
        };
        c.validate();
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
            quarantine_retain: 1,
            watchdog_z: 4.0,
            watchdog_min: 1,
            ..ServeConfig::default()
        };
        c.validate();
        // Guard knobs are inert while the guard is off.
        let c = ServeConfig {
            ingest_guard: false,
            guard_min_n: 0,
            quarantine_retain: 0,
            ..ServeConfig::default()
        };
        c.validate();
    }

    /// The staleness knobs' accepted edges: disabled, exactly drift_min,
    /// and a factor of exactly 1 all validate.
    #[test]
    fn staleness_knob_edges_validate() {
        let c = ServeConfig {
            staleness_threshold: 0,
            stale_epsilon_factor: 1.0,
            ..ServeConfig::default()
        };
        c.validate();
        let c = ServeConfig {
            staleness_threshold: 64,
            drift_min: 64,
            ..ServeConfig::default()
        };
        c.validate();
    }
}
