//! Event-driven cluster simulation with rate-based interference.
//!
//! Jobs execute according to the testbed's ground-truth physics: a job's
//! *work* is its measured isolation runtime on the platform it was placed on
//! (including measurement noise), and while co-located with the set `K` it
//! progresses at rate `exp(−slowdown(w, K, p))` — the same contention model
//! that generated the training data. Placement policies therefore live in
//! exactly the world Pitot was trained to predict: a policy that ignores
//! interference overcommits platforms and watches deadlines slip.
//!
//! The simulation alternates between two events — the next job arrival and
//! the earliest completion under current progress rates — advancing all
//! remaining-work counters between events. Jobs that cannot be placed on
//! arrival (every platform at capacity) wait in a FIFO queue that drains on
//! completions.

use crate::job::{Job, JobStream};
use crate::policy::PlacementPolicy;
use crate::predictor::RuntimePredictor;
use crate::report::{JobOutcome, SimReport};
use pitot_testbed::{Observation, Testbed, Workload, MAX_INTERFERERS};
use std::collections::VecDeque;

#[cfg(test)]
mod reference;

/// Default per-platform co-location capacity. Matches the data-collection
/// envelope (4-way sets: one primary + [`pitot_testbed::MAX_INTERFERERS`]
/// interferers), so predictors are never asked to extrapolate beyond the
/// interference arities they saw.
pub const DEFAULT_CAPACITY: usize = 4;

/// A scheduled failure window for one platform: the platform goes dark at
/// `at_s` (every job running there is killed and re-queued) and accepts
/// placements again from `restore_s` on. Pure data on the simulated clock —
/// the same plan always produces the same run.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteFault {
    /// Platform index that fails.
    pub platform: usize,
    /// Simulated time the failure begins.
    pub at_s: f64,
    /// Simulated time the platform accepts jobs again (must exceed `at_s`).
    pub restore_s: f64,
}

/// A job currently executing on some platform.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// The submitted job.
    pub job: Job,
    /// Remaining work in seconds-of-solo-execution on this platform.
    pub remaining_work: f64,
    /// Total work assigned at placement.
    pub total_work: f64,
    /// Absolute time the job started executing.
    pub started_s: f64,
    /// Workloads co-resident on the platform when this job was placed — the
    /// interferer set the placement decision was predicted against, and the
    /// one an observation logged at completion reports.
    pub interferers_at_start: Vec<u32>,
}

impl RunningJob {
    /// Fraction of the job's work still outstanding, in `[0, 1]`.
    pub fn remaining_frac(&self) -> f64 {
        if self.total_work <= 0.0 {
            0.0
        } else {
            (self.remaining_work / self.total_work).clamp(0.0, 1.0)
        }
    }
}

/// One platform's load at a placement decision, as placement policies see
/// it.
#[derive(Debug, Clone, Default)]
pub struct PlatformLoad {
    /// The platform's catalog index: what a policy answers to place here,
    /// and what a predictor reads rows on.
    pub platform: usize,
    /// Workload indices currently running on the platform.
    pub running: Vec<u32>,
    /// Remaining-work fraction of each running job (parallel to `running`).
    pub remaining_frac: Vec<f64>,
    /// Absolute due time of each running job (parallel to `running`).
    pub due_s: Vec<f64>,
    /// Free co-location slots.
    pub free_slots: usize,
}

/// Cluster snapshot at a placement decision.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Current simulation time.
    pub now_s: f64,
    /// The platforms a job may be placed on, each naming its catalog index
    /// in [`PlatformLoad::platform`]. [`ClusterSim`] holds one entry per
    /// platform of its site, in ascending catalog order, so an entry's
    /// position is not its platform: a policy walks the entries and answers
    /// with the `platform` of the one it picks.
    pub platforms: Vec<PlatformLoad>,
}

/// The simulator: owns per-platform run queues and replays a [`JobStream`].
///
/// A run simulates its site, not the catalog: its run queues, progress
/// rates, fault flags and [`ClusterView`] hold one entry per site platform,
/// in ascending catalog order, and events advance, rate and complete jobs
/// on those platforms only. A platform's catalog index is read where the
/// testbed's ground truth, an [`Observation`] or a job's outcome in
/// [`SimReport::outcomes`] needs it. A policy answers a catalog index,
/// which the run maps back to its site slot; an answer off the site places
/// nothing.
#[derive(Debug)]
pub struct ClusterSim<'a> {
    testbed: &'a Testbed,
    capacity: usize,
    /// The platforms that accept jobs, ascending: an edge *site* within the
    /// full catalog ([`ClusterSim::restrict_to`]), or every platform. A
    /// run's per-platform state is indexed by position in this list.
    site: Vec<usize>,
    /// Multiplier on every sampled isolation runtime (1.0 = the testbed's
    /// ground truth). Lets experiments inject covariate drift — e.g. the
    /// serving experiments' `e^0.3` runtime shift — into the closed loop
    /// without regenerating the testbed.
    work_scale: f64,
    /// Scheduled platform failure windows (validated, per-platform disjoint).
    faults: Vec<SiteFault>,
}

impl<'a> ClusterSim<'a> {
    /// Simulator with [`DEFAULT_CAPACITY`] co-location slots per platform.
    pub fn new(testbed: &'a Testbed) -> Self {
        Self::with_capacity(testbed, DEFAULT_CAPACITY)
    }

    /// Simulator with an explicit per-platform capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(testbed: &'a Testbed, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            testbed,
            capacity,
            site: (0..testbed.platforms().len()).collect(),
            work_scale: 1.0,
            faults: Vec::new(),
        }
    }

    /// Scales every sampled isolation runtime by `scale` — drift injection
    /// for closed-loop experiments (e.g. `scale = e^0.3` reproduces the
    /// serving experiments' runtime shift inside the simulator).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn with_work_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "work scale must be finite and positive, got {scale}"
        );
        self.work_scale = scale;
        self
    }

    /// Restricts placement to the given platform indices — a deployment
    /// site of a few devices rather than the whole catalog. A realistic
    /// edge site has tens of slots, which is what makes co-location (and
    /// interference-aware prediction) unavoidable under load.
    ///
    /// # Panics
    ///
    /// Panics if `platforms` is empty or contains an out-of-range index.
    pub fn restrict_to(mut self, platforms: &[usize]) -> Self {
        assert!(
            !platforms.is_empty(),
            "site must contain at least one platform"
        );
        let n = self.testbed.platforms().len();
        for &p in platforms {
            assert!(p < n, "platform index {p} out of range");
        }
        self.site = platforms.to_vec();
        self.site.sort_unstable();
        self.site.dedup();
        self
    }

    /// Injects scheduled platform failures into the run: at each fault's
    /// `at_s` the platform goes dark, every job running there is killed and
    /// pushed back to the head of the pending queue (fail-stop: progress is
    /// lost, the re-placed job restarts from scratch, possibly elsewhere),
    /// and the platform offers zero free slots until `restore_s`. Preempted
    /// jobs are counted in [`SimReport::preemptions`]. Fault transitions are
    /// ordinary simulation events, so runs stay deterministic. A fault on a
    /// platform outside the site kills nothing and closes no slot, but its
    /// transitions stay events: the queue is retried at them as at any
    /// other.
    ///
    /// # Panics
    ///
    /// Panics if a fault names a platform outside the testbed, has an empty
    /// window (`restore_s <= at_s`), has a non-finite or negative `at_s`, or
    /// overlaps another fault window on the same platform.
    pub fn with_site_faults(mut self, faults: Vec<SiteFault>) -> Self {
        let n = self.testbed.platforms().len();
        for (k, f) in faults.iter().enumerate() {
            assert!(
                f.platform < n,
                "SiteFault[{k}].platform = {} is outside the testbed; valid indices: 0..{n}",
                f.platform
            );
            assert!(
                f.at_s.is_finite() && f.at_s >= 0.0,
                "SiteFault[{k}].at_s = {} must be a finite simulated time ≥ 0",
                f.at_s
            );
            assert!(
                f.restore_s.is_finite() && f.restore_s > f.at_s,
                "SiteFault[{k}].restore_s = {} does not end a failure that begins at at_s = {}; \
                 a fault window must be non-empty (use restore_s > at_s)",
                f.restore_s,
                f.at_s
            );
        }
        let mut by_platform: Vec<(usize, f64, f64)> = faults
            .iter()
            .map(|f| (f.platform, f.at_s, f.restore_s))
            .collect();
        by_platform.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite times"));
        for w in by_platform.windows(2) {
            let (p0, a0, r0) = w[0];
            let (p1, a1, _) = w[1];
            assert!(
                p0 != p1 || a1 >= r0,
                "SiteFault windows [{a0}, {r0}) and [{a1}, ..) on platform {p0} overlap; \
                 fault windows for one platform must be disjoint (merge them or stagger restore_s)"
            );
        }
        self.faults = faults;
        self
    }

    /// Partitions `n_platforms` into `sites` disjoint round-robin platform
    /// sets, each suitable for [`ClusterSim::restrict_to`]. Round-robin
    /// (rather than contiguous) assignment spreads each device class over
    /// every site, so per-site hardware mixes stay comparable — the
    /// multi-site layout a serving fleet shards its replicas over (one
    /// [`ClusterSim`] per site, one serving replica per site, disjoint
    /// completion streams by construction).
    ///
    /// # Panics
    ///
    /// Panics if `sites` is zero or exceeds `n_platforms` (a site must hold
    /// at least one platform).
    pub fn partition_sites(n_platforms: usize, sites: usize) -> Vec<Vec<usize>> {
        assert!(sites > 0, "at least one site required");
        assert!(
            sites <= n_platforms,
            "{sites} sites cannot partition {n_platforms} platforms"
        );
        let mut out = vec![Vec::with_capacity(n_platforms.div_ceil(sites)); sites];
        for p in 0..n_platforms {
            out[p % sites].push(p);
        }
        out
    }

    /// Replays `stream` under `policy` + `predictor`, returning the report.
    ///
    /// Deterministic: work sampling uses a seed derived from the job id.
    ///
    /// # Panics
    ///
    /// Panics if a policy refuses to place a job while the cluster is
    /// otherwise idle (a policy contract violation that would deadlock the
    /// queue).
    pub fn run(
        &mut self,
        stream: &JobStream,
        policy: &mut dyn PlacementPolicy,
        predictor: &dyn RuntimePredictor,
    ) -> SimReport {
        self.run_with_observer(stream, policy, predictor, &mut |_, _| {})
    }

    /// [`ClusterSim::run`] that additionally reports every completed job
    /// back as an [`Observation`] — the closed serving loop: the predictor
    /// places jobs, the cluster executes them, and realized runtimes flow
    /// back so an online predictor (e.g. `pitot-serve`) can recalibrate its
    /// bounds and fine-tune its model mid-stream.
    ///
    /// The observation's `interferers` are the co-residents *at placement
    /// time* (what the predictor was actually asked about, truncated to the
    /// training envelope of [`MAX_INTERFERERS`]) and its `runtime_s` is the
    /// realized wall-clock execution time — co-residency churn between
    /// placement and completion lands in the measurement noise, exactly as
    /// it would for a real orchestrator's logs. The observer runs at the
    /// completion's simulation time (second argument), before queued jobs
    /// are drained, so feedback is available to the very next placement.
    ///
    /// # Panics
    ///
    /// Panics as [`ClusterSim::run`].
    pub fn run_with_observer(
        &mut self,
        stream: &JobStream,
        policy: &mut dyn PlacementPolicy,
        predictor: &dyn RuntimePredictor,
        observer: &mut dyn FnMut(Observation, f64),
    ) -> SimReport {
        // Every per-platform buffer below is indexed by site slot: the
        // position of the platform in `self.site`.
        let n_site = self.site.len();
        let mut running: Vec<Vec<RunningJob>> = vec![Vec::new(); n_site];
        let mut pending: VecDeque<Job> = VecDeque::new();
        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(stream.len());
        let mut busy_platform_time = 0.0f64;
        let mut now = 0.0f64;
        let mut preemptions = 0usize;

        // Fault windows become ordinary simulation events: (time, site slot,
        // goes_down), time-sorted, consumed once each. A fault off the site
        // has no slot and changes nothing but the event times.
        let mut transitions: Vec<(f64, Option<usize>, bool)> = self
            .faults
            .iter()
            .flat_map(|f| {
                let slot = self.site.binary_search(&f.platform).ok();
                [(f.at_s, slot, true), (f.restore_s, slot, false)]
            })
            .collect();
        transitions.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut next_tr = 0usize;
        let mut down = vec![false; n_site];

        let mut arrivals = stream.jobs().iter().peekable();
        // Reused across events: every site platform's progress rates, kept
        // current as its running set changes, and the view every placement
        // decision reads, refilled in place.
        let mut rates = Rates::new(self.testbed, n_site);
        let mut view = ClusterView {
            now_s: now,
            platforms: self
                .site
                .iter()
                .map(|&platform| PlatformLoad {
                    platform,
                    ..PlatformLoad::default()
                })
                .collect(),
        };

        #[derive(Clone, Copy, PartialEq)]
        enum Kind {
            Fault,
            Arrival,
            Completion,
        }

        loop {
            let next_arrival = arrivals.peek().map(|j| j.arrival_s);
            let next_completion = rates.earliest_completion(&running, now);
            let next_fault = transitions.get(next_tr).map(|t| t.0);

            // Earliest event wins; on ties faults apply first (an arrival at
            // the instant a platform dies must see it dark), then arrivals.
            let mut event: Option<(f64, Kind)> = None;
            for (t, kind) in [
                (next_fault, Kind::Fault),
                (next_arrival, Kind::Arrival),
                (next_completion, Kind::Completion),
            ] {
                if let Some(t) = t {
                    if event.is_none_or(|(bt, _)| t < bt) {
                        event = Some((t, kind));
                    }
                }
            }
            let Some((event_time, kind)) = event else {
                break;
            };

            // Advance the site's running jobs to the event time.
            let dt = event_time - now;
            if dt > 0.0 {
                for (jobs, rates) in running.iter_mut().zip(&rates.per_slot) {
                    if jobs.is_empty() {
                        continue;
                    }
                    busy_platform_time += dt;
                    for (job, rate) in jobs.iter_mut().zip(rates) {
                        job.remaining_work = (job.remaining_work - dt * rate).max(0.0);
                    }
                }
            }
            now = event_time;

            match kind {
                Kind::Fault => {
                    let (_, slot, goes_down) = transitions[next_tr];
                    next_tr += 1;
                    if let Some(slot) = slot {
                        down[slot] = goes_down;
                        if goes_down {
                            // Fail-stop: kill everything on the platform and
                            // re-queue at the head (oldest preempted job
                            // first) so recovery placement prefers them.
                            let killed = std::mem::take(&mut running[slot]);
                            rates.rerate(slot, self.site[slot], &running[slot]);
                            preemptions += killed.len();
                            for rj in killed.into_iter().rev() {
                                pending.push_front(rj.job);
                            }
                        }
                    }
                }
                Kind::Arrival => {
                    let job = arrivals.next().expect("peeked arrival");
                    if !self.try_place(
                        job.clone(),
                        &mut running,
                        &mut rates,
                        &mut view,
                        policy,
                        predictor,
                        now,
                        &down,
                    ) {
                        pending.push_back(job.clone());
                    }
                }
                Kind::Completion => {
                    // Complete every job that has (numerically) finished.
                    for (slot, jobs) in running.iter_mut().enumerate() {
                        let pidx = self.site[slot];
                        let before = jobs.len();
                        let mut k = 0;
                        while k < jobs.len() {
                            if jobs[k].remaining_work <= 1e-12 {
                                let done = jobs.swap_remove(k);
                                let mut interferers = done.interferers_at_start;
                                interferers.truncate(MAX_INTERFERERS);
                                observer(
                                    Observation {
                                        workload: done.job.workload,
                                        platform: pidx as u32,
                                        interferers,
                                        runtime_s: (now - done.started_s).max(1e-6) as f32,
                                    },
                                    now,
                                );
                                outcomes.push(JobOutcome::new(done.job, pidx, now));
                            } else {
                                k += 1;
                            }
                        }
                        if jobs.len() < before {
                            rates.rerate(slot, pidx, jobs);
                        }
                    }
                }
            }
            if kind != Kind::Arrival {
                // Capacity changed (a completion or a restore opened slots,
                // preempted jobs may fit elsewhere): drain the FIFO queue
                // while the head job places.
                while let Some(job) = pending.front() {
                    if self.try_place(
                        job.clone(),
                        &mut running,
                        &mut rates,
                        &mut view,
                        policy,
                        predictor,
                        now,
                        &down,
                    ) {
                        pending.pop_front();
                    } else {
                        break;
                    }
                }
            }

            // Deadlock guard: an idle cluster must accept the queue head —
            // unless a fault transition is still pending, in which case the
            // queue legitimately waits for a platform to come back.
            if pending.front().is_some()
                && arrivals.peek().is_none()
                && running.iter().all(Vec::is_empty)
                && next_tr >= transitions.len()
            {
                assert!(
                    down.contains(&false),
                    "fault plan leaves every allowed platform dark with jobs still queued; \
                     add a SiteFault restore_s before the last arrival drains"
                );
                panic!(
                    "policy {} refused to place job {} on an idle cluster",
                    policy.name(),
                    pending.front().expect("non-empty queue").id
                );
            }
        }

        let mut report = SimReport::from_outcomes(outcomes, now, busy_platform_time, n_site);
        report.preemptions = preemptions;
        report
    }

    /// Attempts to place `job`, refilling `view` for the decision; returns
    /// whether it started running. A pick counts only where it names a site
    /// platform (found by binary search over the ascending site) that the
    /// view offered a free slot; any other answer places nothing.
    #[allow(clippy::too_many_arguments)]
    fn try_place(
        &self,
        job: Job,
        running: &mut [Vec<RunningJob>],
        rates: &mut Rates<'a>,
        view: &mut ClusterView,
        policy: &mut dyn PlacementPolicy,
        predictor: &dyn RuntimePredictor,
        now: f64,
        down: &[bool],
    ) -> bool {
        self.refill_view(view, running, now, down);
        let placed = policy.place(&job, view, predictor).and_then(|pidx| {
            let slot = self.site.binary_search(&pidx).ok()?;
            (view.platforms[slot].free_slots > 0).then_some(slot)
        });
        let Some(slot) = placed else {
            return false;
        };
        let pidx = self.site[slot];
        let work = self.sample_work(&job, pidx);
        let jobs = &mut running[slot];
        let interferers_at_start = jobs.iter().map(|r| r.job.workload).collect();
        jobs.push(RunningJob {
            job,
            remaining_work: work,
            total_work: work,
            started_s: now,
            interferers_at_start,
        });
        rates.rerate(slot, pidx, jobs);
        true
    }

    /// True isolation runtime on `pidx`, with measurement noise,
    /// deterministic in the job id.
    fn sample_work(&self, job: &Job, pidx: usize) -> f64 {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(
            0x509B_ED00 ^ (job.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let w = &self.testbed.workloads()[job.workload as usize];
        self.testbed
            .truth()
            .sample_log_runtime(w, job.workload as usize, &[], &[], pidx, &mut rng)
            .exp() as f64
            * self.work_scale
    }

    /// Overwrites every entry of `view`, one per site slot, with the
    /// cluster at `now`, keeping every buffer's capacity.
    fn refill_view(
        &self,
        view: &mut ClusterView,
        running: &[Vec<RunningJob>],
        now: f64,
        down: &[bool],
    ) {
        view.now_s = now;
        for ((load, jobs), &down) in view.platforms.iter_mut().zip(running).zip(down) {
            load.running.clear();
            load.running.extend(jobs.iter().map(|j| j.job.workload));
            load.remaining_frac.clear();
            load.remaining_frac
                .extend(jobs.iter().map(RunningJob::remaining_frac));
            load.due_s.clear();
            load.due_s.extend(jobs.iter().map(|j| j.job.due_s()));
            load.free_slots = if down {
                0
            } else {
                self.capacity.saturating_sub(jobs.len())
            };
        }
    }
}

/// Every site platform's progress rates, kept current for its running
/// jobs. A job's rate depends on nothing but its platform's running set, so
/// a platform's rates are recomputed (all of them, in slot order) exactly
/// when that set changes: on a placement, a completion or a fault kill.
#[derive(Debug)]
struct Rates<'a> {
    testbed: &'a Testbed,
    /// `per_slot[s][k]`: the progress rate of `running[s][k]`, the `k`-th
    /// job on the platform of site slot `s`.
    per_slot: Vec<Vec<f64>>,
    /// The co-residents of the job being rated.
    others: Vec<&'a Workload>,
}

impl<'a> Rates<'a> {
    /// No job running on any of `n_site` site platforms.
    fn new(testbed: &'a Testbed, n_site: usize) -> Self {
        Self {
            testbed,
            per_slot: vec![Vec::new(); n_site],
            others: Vec::new(),
        }
    }

    /// Rates every job of `jobs`, the running set of site slot `slot`
    /// (catalog platform `pidx`), given its current co-residents.
    fn rerate(&mut self, slot: usize, pidx: usize, jobs: &[RunningJob]) {
        let ws = self.testbed.workloads();
        let truth = self.testbed.truth();
        let rates = &mut self.per_slot[slot];
        rates.clear();
        for (k, rj) in jobs.iter().enumerate() {
            self.others.clear();
            self.others.extend(
                jobs.iter()
                    .enumerate()
                    .filter(|(s, _)| *s != k)
                    .map(|(_, o)| &ws[o.job.workload as usize]),
            );
            let w = &ws[rj.job.workload as usize];
            rates.push((-truth.interference_log_slowdown(w, &self.others, pidx) as f64).exp());
        }
    }

    /// Earliest completion time of a running job, under the current rates.
    fn earliest_completion(&self, running: &[Vec<RunningJob>], now: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (jobs, rates) in running.iter().zip(&self.per_slot) {
            for (job, rate) in jobs.iter().zip(rates) {
                let t = now + job.remaining_work / rate.max(1e-12);
                if best.is_none_or(|bt| t < bt) {
                    best = Some(t);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BaselinePolicy;
    use crate::predictor::OraclePredictor;
    use pitot_testbed::TestbedConfig;

    fn setup() -> Testbed {
        Testbed::generate(&TestbedConfig::small())
    }

    #[test]
    fn all_jobs_complete() {
        let tb = setup();
        let jobs = JobStream::generate(&tb, 120, 1.0, 0);
        let oracle = OraclePredictor::new(&tb);
        let mut sim = ClusterSim::new(&tb);
        let report = sim.run(&jobs, &mut BaselinePolicy::greedy_fastest(), &oracle);
        assert_eq!(report.completed, 120);
        assert!(report.makespan_s >= jobs.jobs().last().unwrap().arrival_s);
    }

    #[test]
    fn responses_are_positive_and_finite() {
        let tb = setup();
        let jobs = JobStream::generate(&tb, 60, 0.5, 1);
        let oracle = OraclePredictor::new(&tb);
        let mut sim = ClusterSim::new(&tb);
        let report = sim.run(&jobs, &mut BaselinePolicy::least_loaded(), &oracle);
        for o in &report.outcomes {
            assert!(o.response_s > 0.0 && o.response_s.is_finite());
            assert!(o.completed_s >= 0.0);
        }
    }

    #[test]
    fn capacity_is_respected_under_burst() {
        // All jobs arrive at effectively the same time; with capacity 1 the
        // completions must serialize per platform.
        let tb = setup();
        let jobs = JobStream::generate(&tb, 40, 1e-6, 2);
        let oracle = OraclePredictor::new(&tb);
        let mut sim = ClusterSim::with_capacity(&tb, 1);
        let report = sim.run(&jobs, &mut BaselinePolicy::random(7), &oracle);
        assert_eq!(report.completed, 40);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let tb = setup();
        let jobs = JobStream::generate(&tb, 50, 1.0, 3);
        let oracle = OraclePredictor::new(&tb);
        let a = ClusterSim::new(&tb).run(&jobs, &mut BaselinePolicy::greedy_fastest(), &oracle);
        let b = ClusterSim::new(&tb).run(&jobs, &mut BaselinePolicy::greedy_fastest(), &oracle);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.violations, b.violations);
        assert!((a.mean_response_s - b.mean_response_s).abs() < 1e-12);
    }

    #[test]
    fn greedy_oracle_beats_random_on_response_time() {
        let tb = setup();
        let jobs = JobStream::generate(&tb, 150, 0.8, 4);
        let oracle = OraclePredictor::new(&tb);
        let fast = ClusterSim::new(&tb).run(&jobs, &mut BaselinePolicy::greedy_fastest(), &oracle);
        let rand = ClusterSim::new(&tb).run(&jobs, &mut BaselinePolicy::random(1), &oracle);
        assert!(
            fast.mean_response_s < rand.mean_response_s,
            "greedy {} should beat random {}",
            fast.mean_response_s,
            rand.mean_response_s
        );
    }

    #[test]
    fn site_partition_is_disjoint_balanced_and_complete() {
        let sites = ClusterSim::partition_sites(10, 3);
        assert_eq!(sites.len(), 3);
        let mut seen = [false; 10];
        for site in &sites {
            assert!(!site.is_empty());
            assert!(site.len().abs_diff(10 / 3) <= 1);
            for &p in site {
                assert!(!seen[p], "platform {p} in two sites");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // Each site feeds restrict_to directly.
        let tb = setup();
        let n = tb.platforms().len();
        for site in ClusterSim::partition_sites(n, 2) {
            let _ = ClusterSim::new(&tb).restrict_to(&site);
        }
    }

    #[test]
    fn restriction_confines_placement_to_the_site() {
        let tb = setup();
        let site: Vec<usize> = (0..6).collect();
        let jobs = JobStream::generate(&tb, 60, 0.2, 9);
        let oracle = OraclePredictor::new(&tb);
        let mut sim = ClusterSim::new(&tb).restrict_to(&site);
        let report = sim.run(&jobs, &mut BaselinePolicy::greedy_fastest(), &oracle);
        assert_eq!(report.completed, 60);
        for o in &report.outcomes {
            assert!(
                site.contains(&o.platform),
                "job escaped the site: {}",
                o.platform
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn restriction_rejects_bad_platform() {
        let tb = setup();
        let _ = ClusterSim::new(&tb).restrict_to(&[usize::MAX]);
    }

    #[test]
    fn observer_sees_every_completion_with_valid_observations() {
        let tb = setup();
        let jobs = JobStream::generate(&tb, 80, 0.05, 11);
        let oracle = OraclePredictor::new(&tb);
        // A three-platform site under a bursty stream forces co-location.
        let mut sim = ClusterSim::new(&tb).restrict_to(&[0, 1, 2]);
        let mut seen: Vec<Observation> = Vec::new();
        let mut last_t = 0.0f64;
        let report = sim.run_with_observer(
            &jobs,
            &mut BaselinePolicy::least_loaded(),
            &oracle,
            &mut |obs, now| {
                assert!(now >= last_t, "observer times must be monotone");
                last_t = now;
                seen.push(obs);
            },
        );
        assert_eq!(seen.len(), report.completed);
        let n_platforms = tb.platforms().len() as u32;
        let n_workloads = tb.workloads().len() as u32;
        let mut with_interference = 0usize;
        for o in &seen {
            assert!(o.workload < n_workloads);
            assert!(o.platform < n_platforms);
            assert!(o.interferers.len() <= MAX_INTERFERERS);
            assert!(o.runtime_s > 0.0 && o.runtime_s.is_finite());
            if !o.interferers.is_empty() {
                with_interference += 1;
            }
        }
        // A bursty stream on a loaded cluster must co-locate sometimes —
        // otherwise the closed loop never exercises interference feedback.
        assert!(with_interference > 0, "no co-located completions observed");
    }

    #[test]
    fn observer_side_effects_do_not_perturb_the_simulation() {
        // The observer is a pure tap: whatever it does with the
        // observations it receives, the simulation's outcomes must be
        // identical to a run with a no-op observer.
        let tb = setup();
        let jobs = JobStream::generate(&tb, 60, 0.5, 12);
        let oracle = OraclePredictor::new(&tb);
        let a = ClusterSim::new(&tb).run_with_observer(
            &jobs,
            &mut BaselinePolicy::greedy_fastest(),
            &oracle,
            &mut |_, _| {},
        );
        let mut sink: Vec<(Observation, f64)> = Vec::new();
        let b = ClusterSim::new(&tb).run_with_observer(
            &jobs,
            &mut BaselinePolicy::greedy_fastest(),
            &oracle,
            &mut |obs, now| sink.push((obs, now)),
        );
        assert_eq!(sink.len(), a.completed);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.violations, b.violations);
        assert!((a.mean_response_s - b.mean_response_s).abs() < 1e-12);
        assert!((a.makespan_s - b.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn site_fault_preempts_requeues_and_still_completes_everything() {
        let tb = setup();
        // A small site under a steady stream, with one platform dying
        // mid-run: its jobs must be preempted, re-queued, and finish
        // elsewhere (or after restore) — none may be lost.
        let jobs = JobStream::generate(&tb, 80, 0.2, 21);
        let oracle = OraclePredictor::new(&tb);
        let mut sim = ClusterSim::new(&tb)
            .restrict_to(&[0, 1, 2])
            .with_site_faults(vec![SiteFault {
                platform: 1,
                at_s: 2.0,
                restore_s: 60.0,
            }]);
        let report = sim.run(&jobs, &mut BaselinePolicy::least_loaded(), &oracle);
        assert_eq!(report.completed, 80, "preempted jobs must not be lost");
        assert!(
            report.preemptions > 0,
            "the fault never caught a running job"
        );
        // No completion may land on the dark platform inside its window.
        for o in &report.outcomes {
            assert!(
                !(o.platform == 1 && o.completed_s > 2.0 && o.completed_s < 60.0),
                "job {} completed on platform 1 at {:.2}s while it was down",
                o.job.id,
                o.completed_s
            );
        }
    }

    #[test]
    fn whole_site_outage_waits_for_restore_without_deadlocking() {
        let tb = setup();
        // Every allowed platform dark over a window that spans arrivals:
        // the queue must wait for the restore, not trip the deadlock guard.
        let jobs = JobStream::generate(&tb, 30, 0.1, 22);
        let oracle = OraclePredictor::new(&tb);
        let faults = vec![
            SiteFault {
                platform: 0,
                at_s: 1.0,
                restore_s: 50.0,
            },
            SiteFault {
                platform: 1,
                at_s: 1.0,
                restore_s: 50.0,
            },
        ];
        let mut sim = ClusterSim::new(&tb)
            .restrict_to(&[0, 1])
            .with_site_faults(faults);
        let report = sim.run(&jobs, &mut BaselinePolicy::least_loaded(), &oracle);
        assert_eq!(report.completed, 30);
        assert!(
            report.makespan_s >= 50.0,
            "work cannot finish before restore"
        );
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let tb = setup();
        let jobs = JobStream::generate(&tb, 60, 0.3, 23);
        let oracle = OraclePredictor::new(&tb);
        let faults = || {
            vec![SiteFault {
                platform: 2,
                at_s: 3.0,
                restore_s: 20.0,
            }]
        };
        let a = ClusterSim::new(&tb).with_site_faults(faults()).run(
            &jobs,
            &mut BaselinePolicy::greedy_fastest(),
            &oracle,
        );
        let b = ClusterSim::new(&tb).with_site_faults(faults()).run(
            &jobs,
            &mut BaselinePolicy::greedy_fastest(),
            &oracle,
        );
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.violations, b.violations);
        assert!((a.mean_response_s - b.mean_response_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "valid indices")]
    fn fault_validation_rejects_unknown_platform() {
        let tb = setup();
        let _ = ClusterSim::new(&tb).with_site_faults(vec![SiteFault {
            platform: usize::MAX,
            at_s: 0.0,
            restore_s: 1.0,
        }]);
    }

    #[test]
    #[should_panic(expected = "restore_s > at_s")]
    fn fault_validation_rejects_empty_window() {
        let tb = setup();
        let _ = ClusterSim::new(&tb).with_site_faults(vec![SiteFault {
            platform: 0,
            at_s: 5.0,
            restore_s: 5.0,
        }]);
    }

    #[test]
    #[should_panic(expected = "must be disjoint")]
    fn fault_validation_rejects_overlapping_windows() {
        let tb = setup();
        let _ = ClusterSim::new(&tb).with_site_faults(vec![
            SiteFault {
                platform: 0,
                at_s: 0.0,
                restore_s: 10.0,
            },
            SiteFault {
                platform: 0,
                at_s: 5.0,
                restore_s: 15.0,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "finite simulated time")]
    fn fault_validation_rejects_negative_start() {
        let tb = setup();
        let _ = ClusterSim::new(&tb).with_site_faults(vec![SiteFault {
            platform: 0,
            at_s: -1.0,
            restore_s: 1.0,
        }]);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let tb = setup();
        let jobs = JobStream::generate(&tb, 80, 0.5, 5);
        let oracle = OraclePredictor::new(&tb);
        let report = ClusterSim::new(&tb).run(&jobs, &mut BaselinePolicy::least_loaded(), &oracle);
        assert!(report.utilization >= 0.0 && report.utilization <= 1.0);
        assert!(report.utilization > 0.0);
    }

    #[test]
    fn utilization_divides_by_the_site_not_the_catalog() {
        // One job on a one-platform site: the platform is busy from the
        // job's arrival to its completion, out of a makespan that ends there.
        let tb = setup();
        assert!(tb.platforms().len() > 1);
        let jobs = JobStream::generate(&tb, 1, 1.0, 31);
        let oracle = OraclePredictor::new(&tb);
        let report = ClusterSim::new(&tb).restrict_to(&[3]).run(
            &jobs,
            &mut BaselinePolicy::least_loaded(),
            &oracle,
        );
        let done = &report.outcomes[0];
        assert_eq!(done.platform, 3);
        assert!(done.job.arrival_s > 0.0);
        assert_eq!(
            report.utilization,
            (done.completed_s - done.job.arrival_s) / done.completed_s
        );
    }
}
