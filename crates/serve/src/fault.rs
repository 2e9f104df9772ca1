//! Deterministic fault injection for fleet serving.
//!
//! A [`FaultPlan`] is a *schedule*, not a process: every fault is keyed to
//! the fleet-wide observation counter (a logical clock), and every
//! probabilistic choice (dropped or delayed merge summaries, retry jitter)
//! is drawn from one seeded RNG in the fleet's single-threaded control
//! path. The same plan and seed therefore produce bitwise-identical
//! decision sequences regardless of `PITOT_THREADS` — chaos runs are as
//! replayable as clean ones, which is what lets CI diff decision digests
//! across thread counts with faults enabled.
//!
//! The plan covers the failure domains `docs/RESILIENCE.md` walks through:
//!
//! - **Replica crashes** ([`ReplicaCrash`]): a replica disappears at one
//!   observation count and rejoins at a later one. Its shard's
//!   observations are lost while it is down; deadline queries fail over to
//!   the next live replica. On rejoin it replays the coordinator's held
//!   window summary ([`pitot_conformal::MergeableWindow::replica_entries`])
//!   and rejoins *warm*.
//! - **Coordinator outages** ([`CoordinatorOutage`]): merge rounds that
//!   fall inside an outage window cannot reach the coordinator. Replicas
//!   degrade gracefully: pairwise gossip merges of their window summaries
//!   (when [`FaultPlan::gossip_during_outage`] is on) keep calibrations
//!   near the union fit; otherwise staleness-triggered local fallback
//!   (see `ServeConfig::staleness_threshold`) serves honestly widened
//!   local bounds.
//! - **Lossy merges** ([`FaultPlan::drop_prob`] /
//!   [`FaultPlan::delay_prob`]): a replica's summary can be dropped (the
//!   coordinator retries with bounded exponential backoff) or delayed by a
//!   few rounds (it is absorbed late; the CRDT clock makes late delivery
//!   harmless).
//! - **Data faults** (fail-*noisy*, not fail-stop): observations whose
//!   runtimes are corrupted to NaN/Inf/zero/negative
//!   ([`FaultPlan::corrupt_prob`]), seeded scale-outlier bursts that
//!   multiply runtimes by `e^{log_scale}` for a few consecutive
//!   observations ([`FaultPlan::outlier_bursts`]), replayed stale
//!   summaries ([`FaultPlan::replay_prob`]), clock-skewed snapshots
//!   ([`FaultPlan::skew_prob`]), and a [`ByzantineReplica`] whose emitted
//!   summaries are tampered (via
//!   [`pitot_conformal::MergeableWindow::corrupt_run`]). Corrupted
//!   telemetry is *injected upstream of* the ingest guard and summary
//!   integrity checks, so the guarded arm of a chaos run exercises the
//!   full detect-quarantine-audit path.
//!
//! Data-fault draws come from a **second** seeded RNG, distinct from the
//! control-path RNG: injecting telemetry noise must not perturb the
//! drop/delay/gossip decision stream, and — because a muted and a
//! corrupt Byzantine replica consume identical data-fault draws — a
//! tamper-everything arm can be pinned bitwise against a never-delivers
//! oracle arm.
//!
//! Site failures mid-job are the orchestrator's half of the story — see
//! `pitot_orchestrator::SiteFault` for killing and re-queuing running jobs
//! in [`pitot_orchestrator::ClusterSim`].

/// One replica crash/rejoin cycle, scheduled on the fleet-wide observation
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaCrash {
    /// Replica index that crashes.
    pub replica: usize,
    /// Fleet-wide observation count at which the replica goes down.
    pub at: usize,
    /// Fleet-wide observation count at which it rejoins (warm, by replaying
    /// the coordinator's held window summary). Must be `> at`.
    pub rejoin_at: usize,
}

/// One coordinator outage window: merge rounds scheduled in
/// `[from, until)` (fleet-wide observation counts) cannot reach the
/// coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorOutage {
    /// First fleet-wide observation count inside the outage.
    pub from: usize,
    /// First fleet-wide observation count after the outage. Must be
    /// `> from`.
    pub until: usize,
}

/// One replica that stops being honest: from a scheduled observation
/// count onward, every summary it emits is tampered (or, in the oracle
/// mode, silently withheld).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineReplica {
    /// Replica index that turns Byzantine.
    pub replica: usize,
    /// Fleet-wide observation count from which its summaries misbehave.
    pub from: usize,
    /// Oracle mode: consume exactly the same data-fault RNG draws as the
    /// tampering replica would, but emit *nothing*. Because the summary
    /// integrity layer rejects every tampered summary, a fleet with a
    /// tampering replica must install bitwise-identical calibrations to
    /// its muted twin — the pin the `ext-poison` experiment asserts.
    pub mute: bool,
}

/// A deterministic, seeded fault schedule for a `FleetServer` (see the
/// module docs). [`FaultPlan::none`] is the failure-free identity;
/// builder-style methods add faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the control-path RNG behind drops, delays, retry jitter,
    /// and gossip pairings.
    pub seed: u64,
    /// Scheduled replica crash/rejoin cycles.
    pub crashes: Vec<ReplicaCrash>,
    /// Scheduled coordinator outage windows.
    pub outages: Vec<CoordinatorOutage>,
    /// Probability that a replica's summary is dropped in a coordinator
    /// merge round (retried with backoff). In `[0, 1)`.
    pub drop_prob: f32,
    /// Probability that a replica's summary is delayed (absorbed a few
    /// rounds late) instead of arriving in its round. In `[0, 1)`.
    pub delay_prob: f32,
    /// Maximum delay, in merge rounds, of a delayed summary (the actual
    /// delay is drawn uniformly from `1..=delay_rounds_max`). Must be ≥ 1
    /// when [`FaultPlan::delay_prob`] > 0.
    pub delay_rounds_max: usize,
    /// Whether replicas run pairwise gossip merge rounds while the
    /// coordinator is unreachable (the graceful-degradation ladder's
    /// middle rung; disable to measure staleness fallback alone).
    pub gossip_during_outage: bool,
    /// Probability that an observation's reported runtime is corrupted to
    /// a non-finite or non-positive value (NaN, +∞, 0, −1, cycling
    /// deterministically). In `[0, 1)`.
    pub corrupt_prob: f32,
    /// Probability that an observation *starts* a scale-outlier burst
    /// (while a burst is live, no new one starts). In `[0, 1)`.
    pub outlier_prob: f32,
    /// Log-space shift applied to runtimes inside an outlier burst:
    /// `runtime ← runtime · e^{outlier_log_scale}`. Must be finite and
    /// nonzero when [`FaultPlan::outlier_prob`] > 0; negative values
    /// shrink runtimes (the direction that silently *under*-covers an
    /// unguarded window).
    pub outlier_log_scale: f32,
    /// Maximum burst length in observations (the actual length is drawn
    /// uniformly from `1..=outlier_burst_max`). Must be ≥ 1 when
    /// [`FaultPlan::outlier_prob`] > 0.
    pub outlier_burst_max: usize,
    /// Probability that, in a coordinator merge round, a replica's fresh
    /// summary is replaced by a replay of its last accepted one (a
    /// duplicated/stale delivery, rejected and counted by the integrity
    /// layer). In `[0, 1)`.
    pub replay_prob: f32,
    /// Probability that a replica's summary arrives with its snapshot
    /// clock skewed implausibly far forward (rejected and counted by the
    /// integrity layer). In `[0, 1)`.
    pub skew_prob: f32,
    /// The scheduled Byzantine replica, if any (see [`ByzantineReplica`]).
    pub byzantine: Option<ByzantineReplica>,
}

impl FaultPlan {
    /// Base retry backoff in fleet-wide observations after a dropped
    /// summary: attempt `k` waits `RETRY_BACKOFF << k` observations, plus
    /// seeded jitter in `0..RETRY_BACKOFF`.
    pub const RETRY_BACKOFF: usize = 4;

    /// Retry attempts per dropped summary before the coordinator gives up
    /// until the next scheduled merge round (bounded retry, not a retry
    /// storm).
    pub const MAX_RETRIES: u32 = 3;

    /// The failure-free plan: no crashes, no outages, lossless merges.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            crashes: Vec::new(),
            outages: Vec::new(),
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_rounds_max: 1,
            gossip_during_outage: true,
            corrupt_prob: 0.0,
            outlier_prob: 0.0,
            outlier_log_scale: 0.0,
            outlier_burst_max: 1,
            replay_prob: 0.0,
            skew_prob: 0.0,
            byzantine: None,
        }
    }

    /// Adds one replica crash/rejoin cycle.
    pub fn crash(mut self, replica: usize, at: usize, rejoin_at: usize) -> Self {
        self.crashes.push(ReplicaCrash {
            replica,
            at,
            rejoin_at,
        });
        self
    }

    /// Adds one coordinator outage window over `[from, until)`.
    pub fn coordinator_outage(mut self, from: usize, until: usize) -> Self {
        self.outages.push(CoordinatorOutage { from, until });
        self
    }

    /// Sets the per-round summary drop probability.
    pub fn drop_summaries(mut self, prob: f32) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Sets the per-round summary delay probability and maximum delay.
    pub fn delay_summaries(mut self, prob: f32, max_rounds: usize) -> Self {
        self.delay_prob = prob;
        self.delay_rounds_max = max_rounds;
        self
    }

    /// Sets the per-observation runtime-corruption probability (NaN/∞/0/−1).
    pub fn corrupt_observations(mut self, prob: f32) -> Self {
        self.corrupt_prob = prob;
        self
    }

    /// Sets the scale-outlier burst schedule: start probability, log-space
    /// shift per corrupted runtime, and maximum burst length.
    pub fn outlier_bursts(mut self, prob: f32, log_scale: f32, max_len: usize) -> Self {
        self.outlier_prob = prob;
        self.outlier_log_scale = log_scale;
        self.outlier_burst_max = max_len;
        self
    }

    /// Sets the per-round stale-summary replay probability.
    pub fn replay_summaries(mut self, prob: f32) -> Self {
        self.replay_prob = prob;
        self
    }

    /// Sets the per-round clock-skew probability.
    pub fn skew_clocks(mut self, prob: f32) -> Self {
        self.skew_prob = prob;
        self
    }

    /// Schedules `replica` to emit tampered summaries from observation
    /// `from` onward.
    pub fn byzantine_replica(mut self, replica: usize, from: usize) -> Self {
        self.byzantine = Some(ByzantineReplica {
            replica,
            from,
            mute: false,
        });
        self
    }

    /// The oracle twin of [`FaultPlan::byzantine_replica`]: same RNG
    /// draws, but the replica's summaries are withheld instead of
    /// tampered (see [`ByzantineReplica::mute`]).
    pub fn mute_replica(mut self, replica: usize, from: usize) -> Self {
        self.byzantine = Some(ByzantineReplica {
            replica,
            from,
            mute: true,
        });
        self
    }

    /// Whether any fault is actually scheduled (a [`FaultPlan::none`] plan
    /// exercises only the bookkeeping).
    pub fn is_trivial(&self) -> bool {
        self.crashes.is_empty()
            && self.outages.is_empty()
            && self.drop_prob == 0.0
            && self.delay_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.outlier_prob == 0.0
            && self.replay_prob == 0.0
            && self.skew_prob == 0.0
            && self.byzantine.is_none()
    }

    /// Observation delay before retry attempt `attempt` (0-based, below
    /// [`FaultPlan::MAX_RETRIES`]) of a dropped summary:
    /// `(RETRY_BACKOFF << attempt) + jitter`.
    ///
    /// `jitter` is the caller's seeded draw from `0..RETRY_BACKOFF`;
    /// keeping the draw at the call site keeps all RNG consumption in the
    /// fleet's single-threaded control path.
    pub(crate) fn retry_delay(attempt: u32, jitter: usize) -> usize {
        (Self::RETRY_BACKOFF << attempt) + jitter
    }

    /// Whether `obs` (a fleet-wide observation count) falls inside a
    /// scheduled coordinator outage.
    pub fn coordinator_down_at(&self, obs: usize) -> bool {
        self.outages.iter().any(|o| o.from <= obs && obs < o.until)
    }

    /// Checks internal consistency. `replicas` is the fleet size the plan
    /// will be installed into (crash targets must exist).
    ///
    /// # Panics
    ///
    /// Panics naming the offending field when a crash targets a
    /// nonexistent replica or rejoins before it went down, two crash
    /// windows of one replica overlap, an outage is empty or inverted, a
    /// probability leaves `[0, 1)`, or a delay or burst knob is zero (or
    /// a burst scale is not finite and nonzero) while its probability is
    /// nonzero.
    pub fn validate(&self, replicas: usize) {
        for (k, c) in self.crashes.iter().enumerate() {
            assert!(
                c.replica < replicas,
                "FaultPlan.crashes[{k}].replica = {} is invalid: the fleet \
                 has {replicas} replicas (valid indices: 0..{replicas})",
                c.replica
            );
            assert!(
                c.rejoin_at > c.at,
                "FaultPlan.crashes[{k}].rejoin_at = {} is invalid: a \
                 replica must rejoin strictly after it crashes (crash at = \
                 {}; use rejoin_at > at, or drop the crash entry)",
                c.rejoin_at,
                c.at
            );
            for (j, other) in self.crashes.iter().enumerate().skip(k + 1) {
                if other.replica == c.replica {
                    let disjoint = other.at >= c.rejoin_at || c.at >= other.rejoin_at;
                    assert!(
                        disjoint,
                        "FaultPlan.crashes[{j}] overlaps crashes[{k}] for \
                         replica {}: crash windows of one replica must be \
                         disjoint (separate [at, rejoin_at) intervals)",
                        c.replica
                    );
                }
            }
        }
        for (k, o) in self.outages.iter().enumerate() {
            assert!(
                o.until > o.from,
                "FaultPlan.outages[{k}].until = {} is invalid: an outage \
                 window must be non-empty (from = {}; use until > from, or \
                 drop the outage)",
                o.until,
                o.from
            );
        }
        assert!(
            (0.0..1.0).contains(&self.drop_prob),
            "FaultPlan.drop_prob = {} is invalid: the summary drop \
             probability must be in [0, 1) (1.0 would mean no merge ever \
             succeeds; 0.0 disables drops)",
            self.drop_prob
        );
        assert!(
            (0.0..1.0).contains(&self.delay_prob),
            "FaultPlan.delay_prob = {} is invalid: the summary delay \
             probability must be in [0, 1) (0.0 disables delays)",
            self.delay_prob
        );
        assert!(
            self.delay_prob == 0.0 || self.delay_rounds_max >= 1,
            "FaultPlan.delay_rounds_max = 0 is invalid while delay_prob = \
             {} > 0: a delayed summary must be due within ≥ 1 merge round \
             (default: 1; or set delay_prob = 0.0 to disable delays)",
            self.delay_prob
        );
        assert!(
            (0.0..1.0).contains(&self.corrupt_prob),
            "FaultPlan.corrupt_prob = {} is invalid: the runtime corruption \
             probability must be in [0, 1) (1.0 would leave no clean \
             telemetry to calibrate on; 0.0 disables corruption)",
            self.corrupt_prob
        );
        assert!(
            (0.0..1.0).contains(&self.outlier_prob),
            "FaultPlan.outlier_prob = {} is invalid: the outlier-burst \
             start probability must be in [0, 1) (0.0 disables bursts)",
            self.outlier_prob
        );
        assert!(
            self.outlier_prob == 0.0
                || (self.outlier_log_scale.is_finite() && self.outlier_log_scale != 0.0),
            "FaultPlan.outlier_log_scale = {} is invalid while outlier_prob \
             = {} > 0: burst runtimes are multiplied by e^log_scale, so the \
             shift must be finite and nonzero (e.g. -2.0 shrinks runtimes \
             ~7.4x; or set outlier_prob = 0.0 to disable bursts)",
            self.outlier_log_scale,
            self.outlier_prob
        );
        assert!(
            self.outlier_prob == 0.0 || self.outlier_burst_max >= 1,
            "FaultPlan.outlier_burst_max = 0 is invalid while outlier_prob \
             = {} > 0: a burst must span ≥ 1 observation (default: 1; or \
             set outlier_prob = 0.0 to disable bursts)",
            self.outlier_prob
        );
        assert!(
            (0.0..1.0).contains(&self.replay_prob),
            "FaultPlan.replay_prob = {} is invalid: the stale-summary \
             replay probability must be in [0, 1) (0.0 disables replays)",
            self.replay_prob
        );
        assert!(
            (0.0..1.0).contains(&self.skew_prob),
            "FaultPlan.skew_prob = {} is invalid: the clock-skew \
             probability must be in [0, 1) (0.0 disables skew)",
            self.skew_prob
        );
        if let Some(b) = self.byzantine {
            assert!(
                b.replica < replicas,
                "FaultPlan.byzantine.replica = {} is invalid: the fleet has \
                 {replicas} replicas (valid indices: 0..{replicas})",
                b.replica
            );
        }
    }
}

/// What put a fleet into a degraded window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedCause {
    /// A replica was down (its shard's observations were lost and its
    /// queries failed over).
    ReplicaCrash {
        /// The crashed replica's index.
        replica: usize,
    },
    /// The coordinator was unreachable (merge rounds fell back to gossip
    /// or replicas went stale).
    CoordinatorOutage,
}

/// One degraded window's audit record: what was lost, and how the bounds
/// and admission decisions fared while the fault was live. Attribution is
/// to the **most recently opened** still-open window when several overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedWindow {
    /// What opened the window.
    pub cause: DegradedCause,
    /// Fleet-wide observation count at fault onset.
    pub from_obs: usize,
    /// Fleet-wide observation count at which recovery completed (rejoin
    /// for a crash; the first successful coordinator round after the
    /// outage cleared). `None` while the window is still open.
    pub until_obs: Option<usize>,
    /// Observations judged prequentially while the window was open.
    pub bounded: usize,
    /// Judged observations the served bound covered.
    pub covered: usize,
    /// Observations lost outright (routed to a down replica).
    pub lost_observations: usize,
    /// Admission decisions taken on degraded (stale-fallback) calibrations
    /// while the window was open.
    pub degraded_decisions: usize,
    /// Queries shed while the window was open.
    pub shed: usize,
    /// Admitted queries resolved as SLO misses while the window was open.
    pub slo_missed: usize,
}

impl DegradedWindow {
    /// Coverage of the served bounds inside this window (`NaN` if nothing
    /// was judged).
    pub fn coverage(&self) -> f32 {
        if self.bounded == 0 {
            f32::NAN
        } else {
            self.covered as f32 / self.bounded as f32
        }
    }
}

/// Why the coordinator (or a gossip partner) refused to absorb a window
/// summary. The first four map one-to-one onto
/// [`pitot_conformal::SummaryFault`] — structural lies the checksum and
/// sanity checks catch; the last four are screens the receiver runs on
/// top: which heads the summary's runs keep, who it speaks for, and whether
/// its clock is plausible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RejectCause {
    /// The summary's recomputed checksum did not match its claimed one.
    BadChecksum,
    /// A score segment contained a NaN or infinity.
    NonFiniteScore,
    /// A score segment claimed to be sorted but was not.
    UnsortedRun,
    /// The summary's claimed cardinalities disagreed with its segments.
    CardinalityLie,
    /// The summary's clock was not newer than the last accepted one from
    /// the same replica on a freshness-guaranteed path (a duplicated or
    /// replayed send).
    Replayed,
    /// The summary's clock was implausibly far ahead of anything the fleet
    /// has observed.
    SkewedClock,
    /// The summary did not hold exactly one run keyed by its sender, so
    /// absorbing it could replace another replica's held run.
    ForeignRun,
    /// A run verified but keeps a head list other than the fleet's
    /// ([`crate::PitotServer::kept_heads`]), so a fleet fit could meet a
    /// run lacking the head it reads.
    ForeignHeads,
}

impl RejectCause {
    /// Maps a structural verification failure onto its audit cause.
    pub fn from_fault(fault: pitot_conformal::SummaryFault) -> Self {
        match fault {
            pitot_conformal::SummaryFault::ChecksumMismatch => Self::BadChecksum,
            pitot_conformal::SummaryFault::NonFiniteScore => Self::NonFiniteScore,
            pitot_conformal::SummaryFault::UnsortedRun => Self::UnsortedRun,
            pitot_conformal::SummaryFault::CardinalityMismatch => Self::CardinalityLie,
        }
    }
}

/// One rejected window summary's audit record: which replica's summary was
/// refused, when, and why — the reject-and-count half of the trust
/// boundary (the other half being that nothing rejected is ever absorbed,
/// so a Byzantine replica degrades only itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RejectedSummary {
    /// The replica whose summary (or gossip view segment) was at fault.
    pub replica: usize,
    /// Fleet-wide observation count when the rejection happened.
    pub at_obs: usize,
    /// Why it was refused.
    pub cause: RejectCause,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    fn message<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> String {
        let err = catch_unwind(f).expect_err("must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic carries a message")
    }

    #[test]
    fn trivial_plan_validates_and_knows_it() {
        let p = FaultPlan::none(7);
        p.validate(4);
        assert!(p.is_trivial());
        assert!(!p.coordinator_down_at(0));
        let p = FaultPlan::none(7)
            .crash(1, 10, 20)
            .coordinator_outage(5, 9)
            .drop_summaries(0.2)
            .delay_summaries(0.1, 2);
        p.validate(4);
        assert!(!p.is_trivial());
        assert!(p.coordinator_down_at(5) && p.coordinator_down_at(8));
        assert!(!p.coordinator_down_at(9));
    }

    /// Each rejection names the offending field, its value, and the valid
    /// alternative — the PR 6 convention, one regression test per rule.
    #[test]
    fn rejects_out_of_range_crash_replica() {
        let m = message(|| FaultPlan::none(0).crash(4, 0, 1).validate(4));
        assert!(m.contains("FaultPlan.crashes[0].replica = 4"), "{m}");
        assert!(m.contains("0..4"), "valid alternatives: {m}");
    }

    #[test]
    fn rejects_rejoin_before_crash() {
        let m = message(|| FaultPlan::none(0).crash(0, 10, 10).validate(2));
        assert!(m.contains("FaultPlan.crashes[0].rejoin_at = 10"), "{m}");
        assert!(m.contains("rejoin_at > at"), "fix: {m}");
    }

    #[test]
    fn rejects_overlapping_crashes_of_one_replica() {
        let m = message(|| {
            FaultPlan::none(0)
                .crash(1, 10, 30)
                .crash(1, 20, 40)
                .validate(2)
        });
        assert!(
            m.contains("FaultPlan.crashes[1] overlaps crashes[0]"),
            "{m}"
        );
        assert!(m.contains("disjoint"), "fix: {m}");
        // Disjoint cycles for the same replica are fine.
        FaultPlan::none(0)
            .crash(1, 10, 20)
            .crash(1, 20, 40)
            .validate(2);
    }

    #[test]
    fn rejects_empty_outage() {
        let m = message(|| FaultPlan::none(0).coordinator_outage(5, 5).validate(1));
        assert!(m.contains("FaultPlan.outages[0].until = 5"), "{m}");
        assert!(m.contains("until > from"), "fix: {m}");
    }

    #[test]
    fn rejects_certain_drop() {
        let m = message(|| FaultPlan::none(0).drop_summaries(1.0).validate(1));
        assert!(m.contains("FaultPlan.drop_prob = 1"), "{m}");
        assert!(m.contains("[0, 1)"), "valid range: {m}");
    }

    #[test]
    fn rejects_out_of_range_delay_prob() {
        let m = message(|| FaultPlan::none(0).delay_summaries(-0.5, 2).validate(1));
        assert!(m.contains("FaultPlan.delay_prob = -0.5"), "{m}");
        assert!(m.contains("[0, 1)"), "valid range: {m}");
    }

    #[test]
    fn rejects_zero_delay_bound_with_delays_enabled() {
        let m = message(|| FaultPlan::none(0).delay_summaries(0.5, 0).validate(1));
        assert!(m.contains("FaultPlan.delay_rounds_max = 0"), "{m}");
        assert!(m.contains("delay_prob = 0.0"), "alternative: {m}");
        // Zero is fine while delays are disabled.
        FaultPlan::none(0).delay_summaries(0.0, 0).validate(1);
    }

    #[test]
    fn data_fault_plan_validates_and_is_not_trivial() {
        let p = FaultPlan::none(3)
            .corrupt_observations(0.05)
            .outlier_bursts(0.02, -2.0, 6)
            .replay_summaries(0.1)
            .skew_clocks(0.1)
            .byzantine_replica(2, 100);
        p.validate(4);
        assert!(!p.is_trivial());
        // Each data fault alone also breaks triviality.
        assert!(!FaultPlan::none(0).corrupt_observations(0.1).is_trivial());
        assert!(!FaultPlan::none(0).outlier_bursts(0.1, 1.0, 2).is_trivial());
        assert!(!FaultPlan::none(0).replay_summaries(0.1).is_trivial());
        assert!(!FaultPlan::none(0).skew_clocks(0.1).is_trivial());
        assert!(!FaultPlan::none(0).mute_replica(0, 0).is_trivial());
    }

    #[test]
    fn rejects_certain_corruption() {
        let m = message(|| FaultPlan::none(0).corrupt_observations(1.0).validate(1));
        assert!(m.contains("FaultPlan.corrupt_prob = 1"), "{m}");
        assert!(m.contains("[0, 1)"), "valid range: {m}");
    }

    #[test]
    fn rejects_out_of_range_outlier_prob() {
        let m = message(|| FaultPlan::none(0).outlier_bursts(-0.1, 1.0, 2).validate(1));
        assert!(m.contains("FaultPlan.outlier_prob = -0.1"), "{m}");
        assert!(m.contains("[0, 1)"), "valid range: {m}");
    }

    #[test]
    fn rejects_zero_outlier_scale_with_bursts_enabled() {
        let m = message(|| FaultPlan::none(0).outlier_bursts(0.1, 0.0, 2).validate(1));
        assert!(m.contains("FaultPlan.outlier_log_scale = 0"), "{m}");
        assert!(m.contains("outlier_prob = 0.0"), "alternative: {m}");
        // NaN scale is rejected too; zero scale is fine while disabled.
        let m = message(|| {
            FaultPlan::none(0)
                .outlier_bursts(0.1, f32::NAN, 2)
                .validate(1)
        });
        assert!(m.contains("FaultPlan.outlier_log_scale = NaN"), "{m}");
        FaultPlan::none(0).outlier_bursts(0.0, 0.0, 0).validate(1);
    }

    #[test]
    fn rejects_zero_burst_length_with_bursts_enabled() {
        let m = message(|| FaultPlan::none(0).outlier_bursts(0.1, 1.0, 0).validate(1));
        assert!(m.contains("FaultPlan.outlier_burst_max = 0"), "{m}");
        assert!(m.contains("outlier_prob = 0.0"), "alternative: {m}");
    }

    #[test]
    fn rejects_out_of_range_replay_and_skew_probs() {
        let m = message(|| FaultPlan::none(0).replay_summaries(1.5).validate(1));
        assert!(m.contains("FaultPlan.replay_prob = 1.5"), "{m}");
        let m = message(|| FaultPlan::none(0).skew_clocks(1.5).validate(1));
        assert!(m.contains("FaultPlan.skew_prob = 1.5"), "{m}");
    }

    #[test]
    fn rejects_out_of_range_byzantine_replica() {
        let m = message(|| FaultPlan::none(0).byzantine_replica(4, 10).validate(4));
        assert!(m.contains("FaultPlan.byzantine.replica = 4"), "{m}");
        assert!(m.contains("0..4"), "valid alternatives: {m}");
    }

    #[test]
    fn degraded_window_coverage_is_guarded() {
        let w = DegradedWindow {
            cause: DegradedCause::CoordinatorOutage,
            from_obs: 0,
            until_obs: None,
            bounded: 0,
            covered: 0,
            lost_observations: 0,
            degraded_decisions: 0,
            shed: 0,
            slo_missed: 0,
        };
        assert!(w.coverage().is_nan());
        let w = DegradedWindow {
            bounded: 4,
            covered: 3,
            ..w
        };
        assert!((w.coverage() - 0.75).abs() < 1e-6);
    }
}
