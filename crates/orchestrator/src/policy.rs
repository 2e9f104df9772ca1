//! Placement policies: from load balancing to deadline-aware budgeting.
//!
//! [`PlacementPolicy`] is the pluggable decision interface the simulator
//! drives: given a job, a [`ClusterView`], and a [`RuntimePredictor`], pick
//! a platform. The built-in [`BaselinePolicy`] family covers the spectrum of
//! how much information a policy uses:
//!
//! - [`BaselinePolicy::random`] ignores everything (the lower bar);
//! - [`BaselinePolicy::least_loaded`] balances co-location counts without
//!   predictions (what naive orchestrators do);
//! - [`BaselinePolicy::greedy_fastest`] minimizes the *predicted* runtime
//!   given current co-residents — latency-optimal if predictions were exact;
//! - [`BaselinePolicy::deadline_aware`] uses runtime *bounds*: it only
//!   considers platforms where the bound fits the job's deadline and where
//!   adding the job does not push any co-resident's bounded completion past
//!   its own deadline, then picks the feasible platform with the smallest
//!   bound. With Pitot's conformal bounds at miscoverage ε, each accepted
//!   placement misses its deadline with probability ≲ ε.
//!
//! Richer risk-scoring policies (interference-delta-aware conformal
//! placement) live in the `pitot-sched` crate and implement the same trait.
//!
//! Contract: a policy returns `None` only when no platform has a free slot.
//! If nothing is feasible the deadline-aware policy degrades to the smallest
//! bound ("least bad") rather than stalling the queue.

use crate::job::Job;
use crate::predictor::RuntimePredictor;
use crate::sim::ClusterView;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A pluggable placement strategy.
///
/// Implementations are stateful (`&mut self`) so randomized policies can
/// carry their RNG and tracing wrappers can record decisions; determinism is
/// still required — the same sequence of `place` calls on a fresh policy
/// must yield the same decisions, independent of wall clock, thread count,
/// or allocation addresses. The simulator relies on this to keep whole runs
/// bitwise-reproducible.
///
/// A policy walks the view's entries and answers with the
/// [`PlatformLoad::platform`] of the one it picks, never with an entry's
/// position: the simulator's view holds only its site's platforms. An
/// answer naming no entry with a free slot places nothing, and the job
/// waits in the queue.
///
/// Contract: return `None` only when no entry of the view has a free slot;
/// returning `None` while the cluster is idle deadlocks the pending queue
/// and panics the simulator.
///
/// [`PlatformLoad::platform`]: crate::PlatformLoad::platform
pub trait PlacementPolicy {
    /// Chooses a platform for `job`, by catalog index, or `None` if every
    /// platform of the view is full.
    fn place(
        &mut self,
        job: &Job,
        view: &ClusterView,
        predictor: &dyn RuntimePredictor,
    ) -> Option<usize>;

    /// Display name (used in reports and the simulator's deadlock panic).
    fn name(&self) -> &str;
}

// Boxed policies are policies too, so `Box<dyn PlacementPolicy>` lineups
// compose with generic wrappers (e.g. tracing) without unboxing.
impl<P: PlacementPolicy + ?Sized> PlacementPolicy for Box<P> {
    fn place(
        &mut self,
        job: &Job,
        view: &ClusterView,
        predictor: &dyn RuntimePredictor,
    ) -> Option<usize> {
        (**self).place(job, view, predictor)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The placement strategies compared in the orchestration experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Uniformly random platform with a free slot.
    Random,
    /// Fewest co-located jobs, ties broken by platform index.
    LeastLoaded,
    /// Smallest predicted runtime given current co-residents.
    GreedyFastest,
    /// Smallest *bound* among platforms where the placement is
    /// deadline-feasible for the job and all co-residents.
    DeadlineAware,
}

impl PolicyKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Random => "random",
            PolicyKind::LeastLoaded => "least-loaded",
            PolicyKind::GreedyFastest => "greedy-fastest",
            PolicyKind::DeadlineAware => "deadline-aware",
        }
    }
}

/// The built-in baseline policies (randomized kinds carry their RNG).
#[derive(Debug, Clone)]
pub struct BaselinePolicy {
    kind: PolicyKind,
    rng: ChaCha8Rng,
    /// A co-resident's interferer set under a deadline-aware placement,
    /// reused across reads.
    others: Vec<u32>,
}

impl BaselinePolicy {
    /// Uniformly random placement.
    pub fn random(seed: u64) -> Self {
        Self::of_kind(PolicyKind::Random, seed)
    }

    /// Fewest-co-residents placement.
    pub fn least_loaded() -> Self {
        Self::of_kind(PolicyKind::LeastLoaded, 0)
    }

    /// Minimum-predicted-runtime placement.
    pub fn greedy_fastest() -> Self {
        Self::of_kind(PolicyKind::GreedyFastest, 0)
    }

    /// Bound-driven deadline-feasible placement.
    pub fn deadline_aware() -> Self {
        Self::of_kind(PolicyKind::DeadlineAware, 0)
    }

    /// Policy constructor from a kind (random policies get `seed`).
    pub fn of_kind(kind: PolicyKind, seed: u64) -> Self {
        Self {
            kind,
            rng: ChaCha8Rng::seed_from_u64(seed),
            others: Vec::new(),
        }
    }

    /// The policy's strategy.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Deadline-aware placement: feasibility for the new job *and* for every
    /// job it would slow down, then smallest bound among the feasible.
    ///
    /// It reads row by row, not in one batch: the oracle's bound draws from
    /// a seeded stream in call order, and the co-resident check stops at
    /// the first disturbed resident, so a batched read would ask for other
    /// rows in another order and change the `ext-orchestration` placements.
    fn place_deadline_aware(
        &mut self,
        job: &Job,
        view: &ClusterView,
        predictor: &dyn RuntimePredictor,
    ) -> Option<usize> {
        let mut best_feasible: Option<(f64, usize)> = None;
        let mut best_any: Option<(f64, usize)> = None;

        for load in view.platforms.iter().filter(|l| l.free_slots > 0) {
            let p = load.platform;
            let bound = predictor.bound_s(job.workload, p, &load.running);
            if best_any.is_none_or(|(b, _)| bound < b) {
                best_any = Some((bound, p));
            }

            // The job itself must fit its budget…
            if bound > job.deadline_s {
                continue;
            }
            // …and no co-resident may be pushed past its own deadline. The
            // co-resident's remaining runtime is approximated by its full
            // bounded runtime under the new set (every other resident, then
            // the new job), scaled by remaining work.
            let others = &mut self.others;
            let disturbs = load.running.iter().enumerate().any(|(slot, &other)| {
                others.clear();
                others.extend(
                    load.running
                        .iter()
                        .enumerate()
                        .filter(|&(s, _)| s != slot)
                        .map(|(_, &w)| w),
                );
                others.push(job.workload);
                let full_bound = predictor.bound_s(other, p, others);
                let remaining = full_bound * load.remaining_frac[slot];
                view.now_s + remaining > load.due_s[slot]
            });
            if disturbs {
                continue;
            }
            if best_feasible.is_none_or(|(b, _)| bound < b) {
                best_feasible = Some((bound, p));
            }
        }

        best_feasible.or(best_any).map(|(_, p)| p)
    }
}

impl PlacementPolicy for BaselinePolicy {
    /// Walks the view's free entries in order, keeping the first of equal
    /// minima, so ties break to the lowest platform of a view in ascending
    /// catalog order. `Random` draws the index of a free entry, one draw
    /// per decision with a free slot.
    fn place(
        &mut self,
        job: &Job,
        view: &ClusterView,
        predictor: &dyn RuntimePredictor,
    ) -> Option<usize> {
        let mut free = view.platforms.iter().filter(|l| l.free_slots > 0);
        let pick = match self.kind {
            PolicyKind::Random => {
                let n_free = free.clone().count();
                if n_free == 0 {
                    return None;
                }
                free.nth(self.rng.gen_range(0..n_free))
            }
            PolicyKind::LeastLoaded => free.min_by_key(|l| l.running.len()),
            // One read per candidate.
            PolicyKind::GreedyFastest => free
                .map(|l| (l, predictor.predict_s(job.workload, l.platform, &l.running)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(l, _)| l),
            PolicyKind::DeadlineAware => return self.place_deadline_aware(job, view, predictor),
        };
        pick.map(|l| l.platform)
    }

    fn name(&self) -> &str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::PlatformLoad;

    /// A predictor whose per-platform runtimes are table-driven, for policy
    /// unit tests that need exact control.
    struct TablePredictor {
        /// `runtime[p]` returned for every workload; interference adds 1s per
        /// interferer.
        runtime: Vec<f64>,
        /// Extra margin added by `bound_s`.
        margin: f64,
    }

    impl RuntimePredictor for TablePredictor {
        fn predict_s(&self, _w: u32, p: usize, interferers: &[u32]) -> f64 {
            self.runtime[p] + interferers.len() as f64
        }
        fn bound_s(&self, w: u32, p: usize, interferers: &[u32]) -> f64 {
            self.predict_s(w, p, interferers) + self.margin
        }
        fn name(&self) -> &str {
            "table"
        }
    }

    fn empty_view(n: usize) -> ClusterView {
        ClusterView {
            now_s: 0.0,
            platforms: (0..n)
                .map(|platform| PlatformLoad {
                    platform,
                    running: vec![],
                    remaining_frac: vec![],
                    due_s: vec![],
                    free_slots: 4,
                })
                .collect(),
        }
    }

    fn job(deadline: f64) -> Job {
        Job {
            id: 0,
            workload: 0,
            arrival_s: 0.0,
            deadline_s: deadline,
        }
    }

    #[test]
    fn greedy_picks_fastest_platform() {
        let pred = TablePredictor {
            runtime: vec![5.0, 1.0, 3.0],
            margin: 0.0,
        };
        let mut policy = BaselinePolicy::greedy_fastest();
        assert_eq!(policy.place(&job(10.0), &empty_view(3), &pred), Some(1));
    }

    #[test]
    fn greedy_accounts_for_interference_via_predictor() {
        let pred = TablePredictor {
            runtime: vec![1.0, 1.5],
            margin: 0.0,
        };
        let mut view = empty_view(2);
        // Platform 0 is nominally faster but has two co-residents (+2s).
        view.platforms[0].running = vec![7, 8];
        view.platforms[0].remaining_frac = vec![0.5, 0.5];
        view.platforms[0].due_s = vec![100.0, 100.0];
        let mut policy = BaselinePolicy::greedy_fastest();
        assert_eq!(policy.place(&job(10.0), &view, &pred), Some(1));
    }

    /// Answers as its table and records the platform of every read.
    struct Recording {
        table: TablePredictor,
        reads: std::cell::RefCell<Vec<usize>>,
    }

    impl RuntimePredictor for Recording {
        fn predict_s(&self, w: u32, p: usize, interferers: &[u32]) -> f64 {
            self.reads.borrow_mut().push(p);
            self.table.predict_s(w, p, interferers)
        }
        fn bound_s(&self, w: u32, p: usize, interferers: &[u32]) -> f64 {
            self.reads.borrow_mut().push(p);
            self.table.bound_s(w, p, interferers)
        }
        fn name(&self) -> &str {
            "recording"
        }
    }

    #[test]
    fn greedy_reads_each_candidate_once_per_decision() {
        let pred = Recording {
            table: TablePredictor {
                runtime: vec![5.0, 1.0, 3.0, 1.0, 0.5],
                margin: 0.0,
            },
            reads: Default::default(),
        };
        let mut view = empty_view(5);
        // The fastest platform is full, so it is no candidate.
        view.platforms[4].free_slots = 0;
        let mut policy = BaselinePolicy::greedy_fastest();
        // Platforms 1 and 3 tie; the first minimum wins.
        assert_eq!(policy.place(&job(10.0), &view, &pred), Some(1));
        assert_eq!(*pred.reads.borrow(), [0, 1, 2, 3]);
    }

    #[test]
    fn least_loaded_balances() {
        let pred = TablePredictor {
            runtime: vec![1.0, 1.0],
            margin: 0.0,
        };
        let mut view = empty_view(2);
        view.platforms[0].running = vec![3];
        view.platforms[0].remaining_frac = vec![0.2];
        view.platforms[0].due_s = vec![9.0];
        let mut policy = BaselinePolicy::least_loaded();
        assert_eq!(policy.place(&job(10.0), &view, &pred), Some(1));
    }

    #[test]
    fn deadline_aware_respects_job_budget() {
        // Platform 0 is fast but its bound misses the deadline; platform 1 is
        // slower yet feasible.
        let pred = TablePredictor {
            runtime: vec![4.0, 5.0],
            margin: 3.0,
        };
        // deadline 6: bound on p0 = 7 (infeasible), p1 = 8 (infeasible) →
        // falls back to smallest bound (p0).
        let mut policy = BaselinePolicy::deadline_aware();
        assert_eq!(policy.place(&job(6.0), &empty_view(2), &pred), Some(0));
        // deadline 7.5: p0 bound 7 feasible, p1 bound 8 infeasible.
        assert_eq!(policy.place(&job(7.5), &empty_view(2), &pred), Some(0));
    }

    #[test]
    fn deadline_aware_protects_co_residents() {
        let pred = TablePredictor {
            runtime: vec![1.0, 2.0],
            margin: 0.0,
        };
        let mut view = empty_view(2);
        // Platform 0 hosts a job that due in 1.1s with full work remaining;
        // adding ours would make its bound 1×(1+1 interferer)=2 > 1.1.
        view.platforms[0].running = vec![5];
        view.platforms[0].remaining_frac = vec![1.0];
        view.platforms[0].due_s = vec![1.1];
        let mut policy = BaselinePolicy::deadline_aware();
        // Our job fits both (deadline 10), but platform 0 would break job 5.
        assert_eq!(policy.place(&job(10.0), &view, &pred), Some(1));
    }

    #[test]
    fn all_policies_return_none_when_full() {
        let pred = TablePredictor {
            runtime: vec![1.0],
            margin: 0.0,
        };
        let mut view = empty_view(1);
        view.platforms[0].free_slots = 0;
        for mut policy in [
            BaselinePolicy::random(0),
            BaselinePolicy::least_loaded(),
            BaselinePolicy::greedy_fastest(),
            BaselinePolicy::deadline_aware(),
        ] {
            assert_eq!(policy.place(&job(1.0), &view, &pred), None);
        }
    }

    #[test]
    fn baselines_answer_platform_ids_not_entry_positions() {
        // A sparse site: entry k is platform 10k + 3, and platform 23 (the
        // third entry) is fastest and emptiest.
        let mut runtime = vec![9.0; 64];
        runtime[23] = 1.0;
        let pred = TablePredictor {
            runtime,
            margin: 0.0,
        };
        let mut view = empty_view(6);
        for (k, load) in view.platforms.iter_mut().enumerate() {
            load.platform = 10 * k + 3;
            if load.platform != 23 {
                load.running = vec![1];
                load.remaining_frac = vec![0.5];
                load.due_s = vec![1e9];
            }
        }
        view.platforms[5].free_slots = 0;
        for kind in [
            PolicyKind::LeastLoaded,
            PolicyKind::GreedyFastest,
            PolicyKind::DeadlineAware,
        ] {
            let mut policy = BaselinePolicy::of_kind(kind, 0);
            assert_eq!(policy.place(&job(10.0), &view, &pred), Some(23), "{kind:?}");
        }
        // Random draws the index of a free entry and answers its platform:
        // the same draws over a view with ids equal to positions pick the
        // entries at the same places.
        let mut dense = empty_view(6);
        dense.platforms[5].free_slots = 0;
        let picks = |view: &ClusterView| {
            let mut policy = BaselinePolicy::random(5);
            (0..40)
                .map(|_| policy.place(&job(1.0), view, &pred).unwrap())
                .collect::<Vec<_>>()
        };
        let sparse = picks(&view);
        assert!(sparse.iter().all(|&p| p % 10 == 3 && p < 50));
        let positions: Vec<usize> = sparse.iter().map(|p| p / 10).collect();
        assert_eq!(positions, picks(&dense));
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let pred = TablePredictor {
            runtime: vec![1.0; 8],
            margin: 0.0,
        };
        let view = empty_view(8);
        let picks = |seed| {
            let mut p = BaselinePolicy::random(seed);
            (0..20)
                .map(|_| p.place(&job(1.0), &view, &pred).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(42), picks(42));
        assert_ne!(picks(42), picks(43));
    }
}
