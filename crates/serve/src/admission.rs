//! SLO-aware admission control driven by conformal upper bounds.
//!
//! This is the first place the served intervals themselves make a control
//! decision rather than just being reported: a query arrives carrying a
//! deadline, and the admission queue compares the deadline against the
//! *conformal upper edge* of the predicted runtime. If even the calibrated
//! worst case fits the budget, the query is admitted — and the coverage
//! guarantee transfers directly: among admitted jobs, at most ≈ε should
//! overrun their deadlines. If the bound does not fit, the job is shed
//! *before* it burns cluster time it cannot pay back, which is exactly the
//! C-Koordinator-style interference-aware QoS argument for large co-located
//! clusters.
//!
//! The queue also enforces a backlog cap: admitted-but-unresolved work is
//! bounded, so a burst cannot pile unbounded latency behind an honest
//! per-job feasibility check. Memory is bounded on both sides: admitted
//! records are capped by the backlog, and shed audit records — which may
//! never see a realized runtime, since shed jobs are never executed — are
//! retained FIFO up to [`AdmissionConfig::max_shed_pending`].

use std::collections::BTreeMap;

/// The admission queue's two caps: on admitted-but-unresolved work, and
/// on the shed records it keeps for the audit.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum admitted-but-unresolved queries; beyond it, queries are shed
    /// with [`ShedReason::QueueFull`] regardless of feasibility.
    pub max_backlog: usize,
    /// Maximum *shed* decisions retained for the would-have-met/missed
    /// audit. A shed query is never executed, so in a real deployment its
    /// realized runtime may simply never arrive — without a bound the
    /// pending map would grow by one entry per unresolved shed forever.
    /// While more than this many shed records are unresolved, the oldest
    /// unresolved one is dropped, whatever its reason (an infeasibility
    /// shed's audit is forfeited and counted in
    /// [`AdmissionStats::shed_unaudited`]); resolved ones take no room.
    pub max_shed_pending: usize,
}

impl AdmissionConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero backlog cap or a zero shed-audit cap.
    pub fn validate(&self) {
        assert!(
            self.max_backlog > 0,
            "AdmissionConfig.max_backlog = 0 is invalid: the backlog cap \
             must be at least 1 admitted-but-unresolved query (use a large \
             value like the default 1024 to effectively disable shedding \
             on backlog)"
        );
        assert!(
            self.max_shed_pending > 0,
            "AdmissionConfig.max_shed_pending = 0 is invalid: the shed \
             audit retention cap must be at least 1 record (use a large \
             value like the default 4096 to audit more sheds)"
        );
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_backlog: 1024,
            max_shed_pending: 4096,
        }
    }
}

/// Why a query was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The conformal upper bound exceeds the deadline: even the
    /// calibrated worst case cannot meet the SLO.
    DeadlineInfeasible,
    /// The admitted backlog is at capacity.
    QueueFull,
}

/// One admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The query was admitted: its bound fits the deadline and backlog.
    Admit,
    /// The query was shed.
    Shed(ShedReason),
}

impl AdmissionDecision {
    /// Whether the decision admitted the query.
    pub fn admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admit)
    }
}

/// Counters over a session of admission decisions and their resolutions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted.
    pub admitted: usize,
    /// Queries shed because the bound exceeded the deadline.
    pub shed_infeasible: usize,
    /// Queries shed because the backlog was full.
    pub shed_queue_full: usize,
    /// Admitted queries whose realized runtime met the deadline.
    pub slo_met: usize,
    /// Admitted queries whose realized runtime overran the deadline.
    pub slo_missed: usize,
    /// Infeasibility-shed queries that would in fact have met their
    /// deadline (work the conservatism of the bound gave up). Only
    /// [`ShedReason::DeadlineInfeasible`] sheds feed this audit — a
    /// [`ShedReason::QueueFull`] shed says nothing about the bound.
    pub shed_would_have_met: usize,
    /// Infeasibility-shed queries that would indeed have missed (sheds the
    /// bound got right).
    pub shed_would_have_missed: usize,
    /// Infeasibility-shed queries whose audit record was evicted before a
    /// realized runtime arrived (see [`AdmissionConfig::max_shed_pending`]).
    /// A [`ShedReason::QueueFull`] record holds a slot and is evicted in
    /// turn too, but it was never going to be audited, so it is not counted
    /// here. Every infeasibility shed is thus in exactly one place:
    /// `shed_would_have_met + shed_would_have_missed + shed_unaudited`
    /// plus the infeasible sheds still pending is `shed_infeasible`.
    pub shed_unaudited: usize,
    /// Queries admitted on a *degraded* bound — one served under stale or
    /// local-fallback calibration (see [`AdmissionQueue::decide`]). Subset
    /// of
    /// [`AdmissionStats::admitted`].
    pub degraded_admitted: usize,
    /// Queries shed (for any reason) while the bound was degraded. Subset
    /// of [`AdmissionStats::shed`].
    pub degraded_shed: usize,
    /// Degraded-admitted queries that met their deadline. Subset of
    /// [`AdmissionStats::slo_met`].
    pub degraded_slo_met: usize,
    /// Degraded-admitted queries that overran their deadline — the SLO
    /// loss attributable to deciding on degraded calibrations. Subset of
    /// [`AdmissionStats::slo_missed`].
    pub degraded_slo_missed: usize,
}

impl AdmissionStats {
    /// Total decisions taken.
    pub fn decisions(&self) -> usize {
        self.admitted + self.shed()
    }

    /// Total queries shed, for any reason.
    pub fn shed(&self) -> usize {
        self.shed_infeasible + self.shed_queue_full
    }

    /// Fraction of decisions that shed the query (`NaN` before any
    /// decision).
    pub fn shed_rate(&self) -> f32 {
        if self.decisions() == 0 {
            f32::NAN
        } else {
            self.shed() as f32 / self.decisions() as f32
        }
    }

    /// SLO attainment among *resolved admitted* queries: the fraction that
    /// finished within their deadline (`NaN` before any resolution). With
    /// an honest ε-calibrated bound this should sit near `1 − ε` or above
    /// (bounds are one-sided: jobs that finish early also attain).
    pub fn attainment(&self) -> f32 {
        let n = self.slo_met + self.slo_missed;
        if n == 0 {
            f32::NAN
        } else {
            self.slo_met as f32 / n as f32
        }
    }
}

/// One tracked query awaiting its realized runtime.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Decision sequence number — distinguishes a reused query id's fresh
    /// record from a stale `shed_order` entry for the same id.
    seq: u64,
    decision: AdmissionDecision,
    deadline_s: f64,
    /// Whether the bound behind the decision was degraded (stale or
    /// local-fallback calibration) — resolves into the degraded SLO audit.
    degraded: bool,
}

/// Whether the shed record `(id, seq)` is still pending: the decision may
/// have been resolved already, and the id may even have been reused since.
fn is_live(pending: &BTreeMap<u64, Pending>, id: u64, seq: u64) -> bool {
    pending.get(&id).is_some_and(|p| p.seq == seq)
}

/// The admission queue: decides admit/shed per query and scores decisions
/// once realized runtimes arrive.
///
/// Deterministic: decisions depend only on the supplied bound, deadline,
/// and the queue's own state.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    stats: AdmissionStats,
    pending: BTreeMap<u64, Pending>,
    /// Shed `(id, seq)` pairs in decision order, for FIFO eviction of
    /// audit records (may reference already-resolved decisions; eviction
    /// skips entries whose seq no longer matches, and the queue is
    /// compacted to its live entries when it reaches twice the cap).
    shed_order: std::collections::VecDeque<(u64, u64)>,
    /// Shed records still pending: the count the cap bounds.
    live_sheds: usize,
    next_seq: u64,
    backlog: usize,
}

impl AdmissionQueue {
    /// An empty queue under the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: AdmissionConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            stats: AdmissionStats::default(),
            pending: BTreeMap::new(),
            shed_order: std::collections::VecDeque::new(),
            live_sheds: 0,
            next_seq: 0,
            backlog: 0,
        }
    }

    /// Decides one query: admit iff the backlog has room and
    /// `bound_s ≤ deadline_s`. The decision is recorded under `id` for
    /// later [`AdmissionQueue::resolve`].
    ///
    /// Pass `degraded = true` when the bound came from a stale or
    /// local-fallback calibration (see `Prediction::degraded` in the serve
    /// loop). The tag does not change the decision; it routes the decision
    /// — and its later resolution — into the `degraded_*` counters so
    /// degraded-mode SLO loss is attributable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already pending, or `bound_s`/`deadline_s` is not
    /// finite.
    pub fn decide(
        &mut self,
        id: u64,
        bound_s: f64,
        deadline_s: f64,
        degraded: bool,
    ) -> AdmissionDecision {
        assert!(bound_s.is_finite(), "bound {bound_s} must be finite");
        assert!(
            deadline_s.is_finite(),
            "deadline {deadline_s} must be finite"
        );
        assert!(
            !self.pending.contains_key(&id),
            "query id {id} is already pending"
        );
        let decision = if self.backlog >= self.cfg.max_backlog {
            self.stats.shed_queue_full += 1;
            AdmissionDecision::Shed(ShedReason::QueueFull)
        } else if bound_s > deadline_s {
            self.stats.shed_infeasible += 1;
            AdmissionDecision::Shed(ShedReason::DeadlineInfeasible)
        } else {
            self.stats.admitted += 1;
            self.backlog += 1;
            AdmissionDecision::Admit
        };
        if degraded {
            if decision.admitted() {
                self.stats.degraded_admitted += 1;
            } else {
                self.stats.degraded_shed += 1;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(
            id,
            Pending {
                seq,
                decision,
                deadline_s,
                degraded,
            },
        );
        if !decision.admitted() {
            // Shed queries are never executed, so their realized runtime
            // may never arrive: bound how many audit records we hold.
            self.shed_order.push_back((id, seq));
            self.live_sheds += 1;
            while self.live_sheds > self.cfg.max_shed_pending {
                let (old_id, old_seq) = self.shed_order.pop_front().expect("a live shed is queued");
                if is_live(&self.pending, old_id, old_seq) {
                    let evicted = self.pending.remove(&old_id).expect("a live record");
                    self.live_sheds -= 1;
                    if evicted.decision == AdmissionDecision::Shed(ShedReason::DeadlineInfeasible) {
                        self.stats.shed_unaudited += 1;
                    }
                }
            }
            // Compacting as the queue reaches twice the cap, not past it,
            // keeps its buffer from doubling beyond that.
            if self.shed_order.len() >= 2 * self.cfg.max_shed_pending {
                let pending = &self.pending;
                self.shed_order
                    .retain(|&(id, seq)| is_live(pending, id, seq));
            }
        }
        decision
    }

    /// Scores a pending decision against the realized runtime: admitted
    /// queries count toward SLO attainment, infeasibility-shed queries
    /// toward the runtime-bound audit (a queue-full shed says nothing
    /// about the bound and is not audited). Returns whether the query had
    /// been admitted, or `None` if `id` was never decided (or already
    /// resolved, or its shed record was evicted).
    pub fn resolve(&mut self, id: u64, realized_s: f64) -> Option<bool> {
        let p = self.pending.remove(&id)?;
        if !p.decision.admitted() {
            self.live_sheds -= 1;
        }
        let met = realized_s <= p.deadline_s;
        match p.decision {
            AdmissionDecision::Admit => {
                self.backlog -= 1;
                if met {
                    self.stats.slo_met += 1;
                    if p.degraded {
                        self.stats.degraded_slo_met += 1;
                    }
                } else {
                    self.stats.slo_missed += 1;
                    if p.degraded {
                        self.stats.degraded_slo_missed += 1;
                    }
                }
            }
            AdmissionDecision::Shed(ShedReason::DeadlineInfeasible) => {
                if met {
                    self.stats.shed_would_have_met += 1;
                } else {
                    self.stats.shed_would_have_missed += 1;
                }
            }
            AdmissionDecision::Shed(ShedReason::QueueFull) => {}
        }
        Some(p.decision.admitted())
    }

    /// Decision counters so far.
    pub fn stats(&self) -> &AdmissionStats {
        &self.stats
    }

    /// Admitted-but-unresolved queries.
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Queries decided but not yet resolved (admitted or shed).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::btree_map::Entry;

    #[test]
    fn feasible_bounds_admit_and_resolve() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        assert_eq!(q.decide(1, 2.0, 5.0, false), AdmissionDecision::Admit);
        assert_eq!(q.backlog(), 1);
        assert_eq!(q.resolve(1, 3.0), Some(true));
        assert_eq!(q.backlog(), 0);
        assert_eq!(q.stats().slo_met, 1);
        assert_eq!(q.stats().attainment(), 1.0);
    }

    #[test]
    fn infeasible_bounds_shed_and_audit() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        assert_eq!(
            q.decide(1, 6.0, 5.0, false),
            AdmissionDecision::Shed(ShedReason::DeadlineInfeasible)
        );
        // The bound was conservative: the job would have made it.
        assert_eq!(q.resolve(1, 4.0), Some(false));
        assert_eq!(q.stats().shed_would_have_met, 1);
        // A correct shed.
        q.decide(2, 9.0, 5.0, false);
        q.resolve(2, 8.0);
        assert_eq!(q.stats().shed_would_have_missed, 1);
        assert_eq!(q.stats().shed_rate(), 1.0);
    }

    #[test]
    fn queue_full_sheds_are_not_bound_audited() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            max_backlog: 1,
            ..AdmissionConfig::default()
        });
        q.decide(1, 1.0, 5.0, false); // fills the backlog
        assert_eq!(
            q.decide(2, 1.0, 5.0, false),
            AdmissionDecision::Shed(ShedReason::QueueFull)
        );
        // A capacity shed of a feasible query must not read as bound
        // conservatism.
        assert_eq!(q.resolve(2, 1.0), Some(false));
        assert_eq!(q.stats().shed_would_have_met, 0);
        assert_eq!(q.stats().shed_would_have_missed, 0);
        assert_eq!(q.stats().shed_queue_full, 1);
    }

    #[test]
    fn reused_ids_do_not_evict_fresh_shed_records() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            max_shed_pending: 2,
            ..AdmissionConfig::default()
        });
        // Shed id 7, resolve it (stale entry for seq 1 stays in the FIFO),
        // then legally reuse id 7 for a fresh shed.
        q.decide(7, 9.0, 5.0, false);
        assert_eq!(q.resolve(7, 1.0), Some(false));
        q.decide(7, 9.0, 5.0, false);
        // One more shed pushes the stale (7, old-seq) entry past the cap:
        // it must be skipped (seq mismatch), not matched against the fresh
        // id-7 record — only 2 audit records are actually live.
        q.decide(8, 9.0, 5.0, false);
        assert_eq!(q.stats().shed_unaudited, 0);
        assert_eq!(q.resolve(7, 1.0), Some(false), "fresh record survived");
        assert_eq!(q.stats().shed_would_have_met, 2);
    }

    #[test]
    fn a_resolved_shed_frees_its_audit_slot() {
        // Cap 2: with B resolved, only A and C are unresolved, so C evicts
        // nothing and A keeps its audit.
        let mut q = AdmissionQueue::new(AdmissionConfig {
            max_shed_pending: 2,
            ..AdmissionConfig::default()
        });
        q.decide(1, 9.0, 5.0, false);
        q.decide(2, 9.0, 5.0, false);
        assert_eq!(q.resolve(2, 1.0), Some(false));
        q.decide(3, 9.0, 5.0, false);
        assert_eq!(q.stats().shed_unaudited, 0);
        assert_eq!(q.pending(), 2);
        assert_eq!(q.resolve(1, 1.0), Some(false), "A was evicted");
        assert_eq!(q.resolve(3, 1.0), Some(false));
        assert_eq!(q.stats().shed_would_have_met, 3);
    }

    #[test]
    fn evicted_queue_full_records_are_not_counted_unaudited() {
        // Cap 1 on both: id 2 is shed queue-full, then id 3's infeasible
        // shed evicts it, oldest first; id 4's evicts id 3.
        let mut q = AdmissionQueue::new(AdmissionConfig {
            max_backlog: 1,
            max_shed_pending: 1,
        });
        assert_eq!(q.decide(1, 1.0, 5.0, false), AdmissionDecision::Admit);
        assert_eq!(
            q.decide(2, 1.0, 5.0, false),
            AdmissionDecision::Shed(ShedReason::QueueFull)
        );
        assert_eq!(q.resolve(1, 1.0), Some(true));
        assert_eq!(
            q.decide(3, 9.0, 5.0, false),
            AdmissionDecision::Shed(ShedReason::DeadlineInfeasible)
        );
        assert_eq!(q.resolve(2, 1.0), None, "the queue-full record was evicted");
        assert_eq!(q.stats().shed_unaudited, 0);
        q.decide(4, 9.0, 5.0, false);
        assert_eq!(q.resolve(3, 1.0), None, "the infeasible record was evicted");
        assert_eq!(q.resolve(4, 1.0), Some(false));
        let s = *q.stats();
        assert_eq!(s.shed_unaudited, 1);
        assert_eq!(
            s.shed_would_have_met + s.shed_would_have_missed + s.shed_unaudited,
            s.shed_infeasible
        );
    }

    #[test]
    fn backlog_cap_sheds_even_feasible_queries() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            max_backlog: 2,
            ..AdmissionConfig::default()
        });
        q.decide(1, 1.0, 5.0, false);
        q.decide(2, 1.0, 5.0, false);
        assert_eq!(
            q.decide(3, 1.0, 5.0, false),
            AdmissionDecision::Shed(ShedReason::QueueFull)
        );
        // Resolving frees a slot.
        q.resolve(1, 1.0);
        assert_eq!(q.decide(4, 1.0, 5.0, false), AdmissionDecision::Admit);
    }

    #[test]
    fn unknown_resolutions_are_ignored() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        assert_eq!(q.resolve(42, 1.0), None);
        q.decide(1, 1.0, 2.0, false);
        assert_eq!(q.resolve(1, 1.0), Some(true));
        assert_eq!(q.resolve(1, 1.0), None, "double resolve is a no-op");
    }

    #[test]
    fn shed_audit_records_are_bounded() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            max_shed_pending: 4,
            ..AdmissionConfig::default()
        });
        // 10 infeasible queries, never resolved: only the 4 newest audit
        // records survive; the rest are counted unaudited.
        for id in 0..10u64 {
            q.decide(id, 9.0, 5.0, false);
        }
        assert_eq!(q.pending(), 4);
        assert_eq!(q.stats().shed_unaudited, 6);
        // Evicted ids resolve as unknown; retained ones still audit.
        assert_eq!(q.resolve(0, 1.0), None);
        assert_eq!(q.resolve(9, 1.0), Some(false));
        assert_eq!(q.stats().shed_would_have_met, 1);
        // Admitted queries are never evicted by the shed cap.
        q.decide(100, 1.0, 5.0, false);
        for id in 200..220u64 {
            q.decide(id, 9.0, 5.0, false);
        }
        assert_eq!(q.resolve(100, 1.0), Some(true));
    }

    #[test]
    fn shed_eviction_is_strictly_oldest_first() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            max_shed_pending: 3,
            ..AdmissionConfig::default()
        });
        for id in 10..15u64 {
            q.decide(id, 9.0, 5.0, false);
        }
        // Cap 3, five sheds: exactly the two oldest (10, 11) were evicted,
        // in that order, and the three newest survive with their audits.
        assert_eq!(q.stats().shed_unaudited, 2);
        assert_eq!(q.resolve(10, 1.0), None, "oldest must go first");
        assert_eq!(q.resolve(11, 1.0), None, "second-oldest goes second");
        for id in 12..15u64 {
            assert_eq!(q.resolve(id, 1.0), Some(false), "id {id} evicted early");
        }
        assert_eq!(q.stats().shed_would_have_met, 3);
        // A resolved mid-FIFO record leaves a stale entry: overflow skips
        // it (no unaudited count) and keeps evicting oldest-first among
        // the *live* records.
        for id in 20..23u64 {
            q.decide(id, 9.0, 5.0, false);
        }
        assert_eq!(q.resolve(20, 1.0), Some(false)); // stale (20, seq) stays queued
        q.decide(23, 9.0, 5.0, false); // overflow pops the stale entry, evicts nothing
        assert_eq!(q.stats().shed_unaudited, 2);
        q.decide(24, 9.0, 5.0, false); // now 21 is the oldest live record
        assert_eq!(q.stats().shed_unaudited, 3);
        assert_eq!(q.resolve(21, 1.0), None, "21 evicted before 22");
        assert_eq!(q.resolve(22, 1.0), Some(false), "22 must outlive 21");
    }

    #[test]
    fn config_errors_name_field_and_value() {
        use std::panic::catch_unwind;
        let message = |cfg: AdmissionConfig| -> String {
            let err = catch_unwind(move || cfg.validate()).expect_err("must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .expect("panic carries a message")
        };
        let m = message(AdmissionConfig {
            max_backlog: 0,
            ..AdmissionConfig::default()
        });
        assert!(m.contains("AdmissionConfig.max_backlog"), "{m}");
        assert!(m.contains("1024"), "names the sane default: {m}");
        let m = message(AdmissionConfig {
            max_shed_pending: 0,
            ..AdmissionConfig::default()
        });
        assert!(m.contains("AdmissionConfig.max_shed_pending"), "{m}");
    }

    #[test]
    fn degraded_decisions_audit_separately() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        // A clean admit and a clean shed touch no degraded counter.
        assert_eq!(q.decide(1, 2.0, 5.0, false), AdmissionDecision::Admit);
        q.decide(2, 9.0, 5.0, false);
        q.resolve(1, 3.0);
        q.resolve(2, 1.0);
        assert_eq!(q.stats().degraded_admitted, 0);
        assert_eq!(q.stats().degraded_shed, 0);
        // Degraded admit that meets, degraded admit that misses, degraded
        // shed: each lands in its own counter AND the base counters.
        assert_eq!(q.decide(3, 2.0, 5.0, true), AdmissionDecision::Admit);
        assert_eq!(q.decide(4, 2.0, 5.0, true), AdmissionDecision::Admit);
        assert_eq!(
            q.decide(5, 9.0, 5.0, true),
            AdmissionDecision::Shed(ShedReason::DeadlineInfeasible)
        );
        q.resolve(3, 3.0);
        q.resolve(4, 7.0);
        let s = *q.stats();
        assert_eq!(s.degraded_admitted, 2);
        assert_eq!(s.degraded_shed, 1);
        assert_eq!(s.degraded_slo_met, 1);
        assert_eq!(s.degraded_slo_missed, 1);
        assert_eq!(s.admitted, 3, "degraded counters are subsets");
        assert_eq!(s.slo_missed, 1);
        assert_eq!(s.shed_infeasible, 2);
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn duplicate_ids_are_rejected() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        q.decide(1, 1.0, 2.0, false);
        q.decide(1, 1.0, 2.0, false);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Whole decide/resolve sequences against a naive reference: a map
        /// of the pending decisions by id and a backlog counter. Ids come
        /// from a pool of six, so they are reused, resolved in any order,
        /// resolved twice and resolved before they were ever decided. Bounds,
        /// deadlines and realized runtimes share a coarse grid, so every
        /// comparison also lands on equality.
        #[test]
        fn whole_sequences_match_a_naive_reference(
            max_backlog in 1usize..5,
            max_shed_pending in 1usize..5,
            ops in proptest::collection::vec(0u64..u64::MAX, 0..160),
        ) {
            let mut q = AdmissionQueue::new(AdmissionConfig {
                max_backlog,
                max_shed_pending,
            });
            // Each pending decision, with the number of sheds decided
            // before it if it is a shed.
            let mut pending: BTreeMap<u64, (AdmissionDecision, Option<usize>)> = BTreeMap::new();
            let (mut backlog, mut decided, mut sheds, mut resolved_admits) = (0, 0, 0, 0);
            let grid = |bits: u64| 0.5 * (bits % 8) as f64;
            for op in ops {
                let id = op % 6;
                let (bound_s, deadline_s) = (grid(op >> 4), grid(op >> 7));
                if (op >> 3) & 1 == 1 {
                    // Unknown, repeated and evicted ids resolve to `None`.
                    let want = pending.remove(&id).map(|(d, _)| d.admitted());
                    proptest::prop_assert_eq!(q.resolve(id, grid(op >> 10)), want);
                    if want == Some(true) {
                        backlog -= 1;
                        resolved_admits += 1;
                    }
                } else if let Entry::Vacant(slot) = pending.entry(id) {
                    let want = if backlog >= max_backlog {
                        AdmissionDecision::Shed(ShedReason::QueueFull)
                    } else if bound_s > deadline_s {
                        AdmissionDecision::Shed(ShedReason::DeadlineInfeasible)
                    } else {
                        AdmissionDecision::Admit
                    };
                    let got = q.decide(id, bound_s, deadline_s, (op >> 13) & 1 == 1);
                    proptest::prop_assert_eq!(got, want);
                    proptest::prop_assert_eq!(
                        got.admitted(),
                        backlog < max_backlog && bound_s <= deadline_s
                    );
                    decided += 1;
                    if want.admitted() {
                        backlog += 1;
                        slot.insert((want, None));
                    } else {
                        slot.insert((want, Some(sheds)));
                        sheds += 1;
                        // While more than `max_shed_pending` shed records
                        // are pending, the oldest pending one is evicted,
                        // whatever its reason.
                        while pending.values().filter(|r| r.1.is_some()).count() > max_shed_pending {
                            let (&oldest, _) = pending
                                .iter()
                                .filter(|(_, r)| r.1.is_some())
                                .min_by_key(|(_, r)| r.1)
                                .expect("a pending shed");
                            pending.remove(&oldest);
                        }
                    }
                }

                let s = *q.stats();
                proptest::prop_assert_eq!(q.backlog(), backlog);
                proptest::prop_assert_eq!(q.pending(), pending.len());
                proptest::prop_assert_eq!(
                    decided,
                    s.admitted + s.shed_infeasible + s.shed_queue_full
                );
                proptest::prop_assert_eq!(s.decisions(), decided);
                proptest::prop_assert_eq!(s.slo_met + s.slo_missed, resolved_admits);
                // The shed ledger: every infeasibility shed was audited,
                // evicted unaudited, or is still pending.
                let pending_infeasible = pending
                    .values()
                    .filter(|(d, _)| *d == AdmissionDecision::Shed(ShedReason::DeadlineInfeasible))
                    .count();
                proptest::prop_assert_eq!(
                    s.shed_would_have_met
                        + s.shed_would_have_missed
                        + s.shed_unaudited
                        + pending_infeasible,
                    s.shed_infeasible
                );
                proptest::prop_assert!(s.degraded_admitted <= s.admitted);
                proptest::prop_assert!(s.degraded_shed <= s.shed());
                proptest::prop_assert!(s.degraded_slo_met <= s.slo_met);
                proptest::prop_assert!(s.degraded_slo_missed <= s.slo_missed);
            }
        }
    }
}
