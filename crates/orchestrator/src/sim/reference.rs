//! The simulator's loop as it stood before it simulated only the site: each
//! event rates every running job afresh and walks every catalog platform,
//! and each decision refills a view of every catalog platform, off-site
//! ones with zero free slots. Kept as the oracle the site-sized,
//! cached-rate loop is pinned to, bitwise.

use super::*;
use crate::policy::{BaselinePolicy, PolicyKind};
use crate::predictor::OraclePredictor;
use pitot_testbed::TestbedConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

impl ClusterSim<'_> {
    /// [`ClusterSim::run_with_observer`] as every event walking the whole
    /// catalog ran it, with the busy platform-time its report's utilization
    /// divides (by the catalog's size, as that loop did).
    fn run_reference(
        &mut self,
        stream: &JobStream,
        policy: &mut dyn PlacementPolicy,
        predictor: &dyn RuntimePredictor,
        observer: &mut dyn FnMut(Observation, f64),
    ) -> (SimReport, f64) {
        let n_platforms = self.testbed.platforms().len();
        let mut allowed = vec![false; n_platforms];
        for &p in &self.site {
            allowed[p] = true;
        }
        let mut running: Vec<Vec<RunningJob>> = vec![Vec::new(); n_platforms];
        let mut pending: VecDeque<Job> = VecDeque::new();
        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(stream.len());
        let mut busy_platform_time = 0.0f64;
        let mut now = 0.0f64;
        let mut preemptions = 0usize;

        let mut transitions: Vec<(f64, usize, bool)> = self
            .faults
            .iter()
            .flat_map(|f| [(f.at_s, f.platform, true), (f.restore_s, f.platform, false)])
            .collect();
        transitions.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut next_tr = 0usize;
        let mut down = vec![false; n_platforms];

        let mut arrivals = stream.jobs().iter().peekable();
        let mut rates = EventRates::default();
        let mut view = ClusterView {
            now_s: now,
            platforms: (0..n_platforms)
                .map(|platform| PlatformLoad {
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
            rates.fill(self.testbed, &running);
            let next_arrival = arrivals.peek().map(|j| j.arrival_s);
            let next_completion = rates.earliest_completion(&running, now);
            let next_fault = transitions.get(next_tr).map(|t| t.0);

            let mut event: Option<(f64, Kind)> = None;
            for (t, kind) in [
                (next_fault, Kind::Fault),
                (next_arrival, Kind::Arrival),
                (next_completion.map(|(c, _, _)| c), Kind::Completion),
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

            let dt = event_time - now;
            if dt > 0.0 {
                for (pidx, jobs) in running.iter_mut().enumerate() {
                    if jobs.is_empty() {
                        continue;
                    }
                    busy_platform_time += dt;
                    for (job, rate) in jobs.iter_mut().zip(&rates.per_platform[pidx]) {
                        job.remaining_work = (job.remaining_work - dt * rate).max(0.0);
                    }
                }
                now = event_time;
            } else {
                now = event_time;
            }

            match kind {
                Kind::Fault => {
                    let (_, pidx, goes_down) = transitions[next_tr];
                    next_tr += 1;
                    down[pidx] = goes_down;
                    if goes_down {
                        let killed = std::mem::take(&mut running[pidx]);
                        preemptions += killed.len();
                        for rj in killed.into_iter().rev() {
                            pending.push_front(rj.job);
                        }
                    }
                    while let Some(job) = pending.front() {
                        let job = job.clone();
                        if self.try_place_reference(
                            job,
                            &mut running,
                            &mut view,
                            policy,
                            predictor,
                            now,
                            &down,
                            &allowed,
                        ) {
                            pending.pop_front();
                        } else {
                            break;
                        }
                    }
                }
                Kind::Arrival => {
                    let job = arrivals.next().expect("peeked arrival").clone();
                    if !self.try_place_reference(
                        job.clone(),
                        &mut running,
                        &mut view,
                        policy,
                        predictor,
                        now,
                        &down,
                        &allowed,
                    ) {
                        pending.push_back(job);
                    }
                }
                Kind::Completion => {
                    for (pidx, jobs) in running.iter_mut().enumerate() {
                        let mut slot = 0;
                        while slot < jobs.len() {
                            if jobs[slot].remaining_work <= 1e-12 {
                                let done = jobs.swap_remove(slot);
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
                                slot += 1;
                            }
                        }
                    }
                    while let Some(job) = pending.front() {
                        let job = job.clone();
                        if self.try_place_reference(
                            job,
                            &mut running,
                            &mut view,
                            policy,
                            predictor,
                            now,
                            &down,
                            &allowed,
                        ) {
                            pending.pop_front();
                        } else {
                            break;
                        }
                    }
                }
            }

            if pending.front().is_some()
                && arrivals.peek().is_none()
                && running.iter().all(|r| r.is_empty())
                && next_tr >= transitions.len()
            {
                assert!(
                    down.iter().enumerate().any(|(p, &d)| !d && allowed[p]),
                    "fault plan leaves every allowed platform dark with jobs still queued"
                );
                panic!(
                    "policy {} refused to place job {} on an idle cluster",
                    policy.name(),
                    pending.front().expect("non-empty queue").id
                );
            }
        }

        let mut report = SimReport::from_outcomes(outcomes, now, busy_platform_time, n_platforms);
        report.preemptions = preemptions;
        (report, busy_platform_time)
    }

    #[allow(clippy::too_many_arguments)]
    fn try_place_reference(
        &self,
        job: Job,
        running: &mut [Vec<RunningJob>],
        view: &mut ClusterView,
        policy: &mut dyn PlacementPolicy,
        predictor: &dyn RuntimePredictor,
        now: f64,
        down: &[bool],
        allowed: &[bool],
    ) -> bool {
        self.refill_view_reference(view, running, now, down, allowed);
        match policy.place(&job, view, predictor) {
            Some(pidx) if running[pidx].len() < self.capacity && allowed[pidx] && !down[pidx] => {
                let work = self.sample_work(&job, pidx);
                let interferers_at_start = running[pidx].iter().map(|r| r.job.workload).collect();
                running[pidx].push(RunningJob {
                    job,
                    remaining_work: work,
                    total_work: work,
                    started_s: now,
                    interferers_at_start,
                });
                true
            }
            _ => false,
        }
    }

    fn refill_view_reference(
        &self,
        view: &mut ClusterView,
        running: &[Vec<RunningJob>],
        now: f64,
        down: &[bool],
        allowed: &[bool],
    ) {
        view.now_s = now;
        for (pidx, (load, jobs)) in view.platforms.iter_mut().zip(running).enumerate() {
            load.running.clear();
            load.running.extend(jobs.iter().map(|j| j.job.workload));
            load.remaining_frac.clear();
            load.remaining_frac
                .extend(jobs.iter().map(RunningJob::remaining_frac));
            load.due_s.clear();
            load.due_s.extend(jobs.iter().map(|j| j.job.due_s()));
            load.free_slots = if allowed[pidx] && !down[pidx] {
                self.capacity.saturating_sub(jobs.len())
            } else {
                0
            };
        }
    }
}

/// Every busy platform's progress rates, refilled once per event.
#[derive(Debug, Default)]
struct EventRates<'a> {
    per_platform: Vec<Vec<f64>>,
    others: Vec<&'a Workload>,
}

impl<'a> EventRates<'a> {
    fn fill(&mut self, testbed: &'a Testbed, running: &[Vec<RunningJob>]) {
        let ws = testbed.workloads();
        let truth = testbed.truth();
        self.per_platform.resize_with(running.len(), Vec::new);
        for (pidx, (rates, jobs)) in self.per_platform.iter_mut().zip(running).enumerate() {
            if jobs.is_empty() {
                continue;
            }
            rates.clear();
            for (slot, rj) in jobs.iter().enumerate() {
                self.others.clear();
                self.others.extend(
                    jobs.iter()
                        .enumerate()
                        .filter(|(s, _)| *s != slot)
                        .map(|(_, o)| &ws[o.job.workload as usize]),
                );
                let w = &ws[rj.job.workload as usize];
                rates.push((-truth.interference_log_slowdown(w, &self.others, pidx) as f64).exp());
            }
        }
    }

    fn earliest_completion(
        &self,
        running: &[Vec<RunningJob>],
        now: f64,
    ) -> Option<(f64, usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (pidx, jobs) in running.iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            for (slot, (job, rate)) in jobs.iter().zip(&self.per_platform[pidx]).enumerate() {
                let t = now + job.remaining_work / rate.max(1e-12);
                if best.is_none_or(|(bt, _, _)| t < bt) {
                    best = Some((t, pidx, slot));
                }
            }
        }
        best
    }
}

fn shared_testbed() -> &'static Testbed {
    static TB: OnceLock<Testbed> = OnceLock::new();
    TB.get_or_init(|| Testbed::generate(&TestbedConfig::small()))
}

/// One run of `stream` under a fresh copy of `policy` and the oracle: its
/// report, its busy platform-time (the reference loop's; `NaN` for the
/// site loop, which does not return it) and its observer stream.
fn replay(
    sim: &mut ClusterSim<'_>,
    stream: &JobStream,
    policy: &BaselinePolicy,
    reference: bool,
) -> (SimReport, f64, Vec<(Observation, f64)>) {
    let oracle = OraclePredictor::new(sim.testbed);
    let mut seen = Vec::new();
    let mut observer = |obs: Observation, now: f64| seen.push((obs, now));
    let mut policy = policy.clone();
    let (report, busy) = if reference {
        sim.run_reference(stream, &mut policy, &oracle, &mut observer)
    } else {
        let report = sim.run_with_observer(stream, &mut policy, &oracle, &mut observer);
        (report, f64::NAN)
    };
    (report, busy, seen)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The site-sized loop with cached rates replays the catalog loop that
    /// rates every job on every event: the same outcomes, the same observer
    /// stream and the same report, bit for bit, over contiguous, strided,
    /// single-platform and unrestricted sites, capacities 1–4, work scales,
    /// every baseline policy, fault windows that kill a running job, and
    /// fault windows on platforms off the site, which kill nothing but are
    /// still events. Utilization is the busy platform-time over makespan ×
    /// site size.
    #[test]
    fn site_loop_replays_the_catalog_loop_bitwise(
        n in 1usize..60,
        stream_seed in 0u64..u64::MAX,
        interarrival in 0.01f64..0.8,
        site_kind in 0usize..4,
        first in 0usize..1_000,
        len in 2usize..9,
        stride in 2usize..50,
        capacity in 1usize..5,
        kind in 0usize..4,
        policy_seed in 0u64..1_000,
        n_faults in 0usize..3,
        n_off_site in 0usize..3,
        fault_picks in 0u64..u64::MAX,
        work_scale in 0.3f64..3.0,
    ) {
        let tb = shared_testbed();
        let n_platforms = tb.platforms().len();
        let first = first % n_platforms;
        // A strided site is listed in descending order, then its first
        // platform again: a site is a set.
        let site: Option<Vec<usize>> = match site_kind {
            0 => Some((first..first + len).map(|p| p % n_platforms).collect()),
            1 => Some(
                (0..len)
                    .rev()
                    .chain([len - 1])
                    .map(|k| (first + k * stride) % n_platforms)
                    .collect(),
            ),
            2 => Some(vec![first]),
            _ => None,
        };
        let stream = JobStream::generate(tb, n, interarrival, stream_seed);
        let kind = [
            PolicyKind::Random,
            PolicyKind::LeastLoaded,
            PolicyKind::GreedyFastest,
            PolicyKind::DeadlineAware,
        ][kind];
        let policy = BaselinePolicy::of_kind(kind, policy_seed);
        let sim = || {
            let sim = ClusterSim::with_capacity(tb, capacity).with_work_scale(work_scale);
            match &site {
                Some(site) => sim.restrict_to(site),
                None => sim,
            }
        };

        // Each fault darkens the platform of a completed job of the
        // fault-free run halfway through that job's run, so it kills at
        // least that job (the faulted run is the fault-free one until its
        // first fault). Windows on one platform stay disjoint.
        let (free_report, _, fault_free) = replay(&mut sim(), &stream, &policy, true);
        let mut rng = TestRng::from_state(fault_picks);
        let mut faults: Vec<SiteFault> = Vec::new();
        let push = |faults: &mut Vec<SiteFault>, fault: SiteFault| {
            if faults.iter().all(|f| {
                f.platform != fault.platform
                    || fault.restore_s <= f.at_s
                    || fault.at_s >= f.restore_s
            }) {
                faults.push(fault);
            }
        };
        for _ in 0..n_faults {
            let (obs, done_s) = &fault_free[rng.below(0, fault_free.len())];
            let at_s = done_s - f64::from(obs.runtime_s) / 2.0;
            let restore_s = at_s + 0.01 + 20.0 * rng.unit();
            let platform = obs.platform as usize;
            push(&mut faults, SiteFault { platform, at_s, restore_s });
        }
        let killing = faults.len();
        // Off-site windows fall anywhere in the fault-free run.
        if let Some(site) = &site {
            for _ in 0..n_off_site {
                let platform = rng.below(0, n_platforms);
                let at_s = free_report.makespan_s * rng.unit();
                let restore_s = at_s + 0.01 + 20.0 * rng.unit();
                if !site.contains(&platform) {
                    push(&mut faults, SiteFault { platform, at_s, restore_s });
                }
            }
        }

        let (want, busy, want_seen) =
            replay(&mut sim().with_site_faults(faults.clone()), &stream, &policy, true);
        let (got, _, got_seen) =
            replay(&mut sim().with_site_faults(faults.clone()), &stream, &policy, false);

        prop_assert_eq!(got.completed, n);
        prop_assert!(killing == 0 || got.preemptions > 0, "no fault killed a job");
        prop_assert_eq!(format!("{got_seen:?}"), format!("{want_seen:?}"));
        let site_len = site.as_ref().map_or(n_platforms, |s| {
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            s.len()
        });
        let platform_time = want.makespan_s * site_len as f64;
        prop_assert_eq!(
            got.utilization.to_bits(),
            (busy / platform_time).to_bits(),
            "utilization is busy platform-time over makespan × {} site platforms",
            site_len
        );
        prop_assert!(got.utilization > 0.0 && got.utilization <= 1.0);
        let want = SimReport {
            utilization: got.utilization,
            ..want
        };
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}

/// Answers a platform off the site the first time it is asked to place
/// each job whose id is a multiple of three, and as its inner baseline
/// otherwise. Records every answer.
struct OffSiteFirst {
    inner: BaselinePolicy,
    off_site: usize,
    answers: Vec<(usize, Option<usize>)>,
}

impl PlacementPolicy for OffSiteFirst {
    fn place(
        &mut self,
        job: &Job,
        view: &ClusterView,
        predictor: &dyn RuntimePredictor,
    ) -> Option<usize> {
        let asked = self.answers.iter().any(|&(id, _)| id == job.id);
        let answer = if job.id.is_multiple_of(3) && !asked {
            Some(self.off_site)
        } else {
            self.inner.place(job, view, predictor)
        };
        self.answers.push((job.id, answer));
        answer
    }

    fn name(&self) -> &str {
        "off-site-first"
    }
}

/// A policy that answers a platform off the site places nothing: the job
/// waits in the queue and is offered again at the next completion or
/// fault, as in the catalog loop, whose view offered no slot there.
#[test]
fn an_off_site_answer_waits_as_in_the_catalog_loop() {
    let tb = shared_testbed();
    let run = |sim: &mut ClusterSim<'_>, stream: &JobStream, reference: bool| {
        let oracle = OraclePredictor::new(tb);
        let mut policy = OffSiteFirst {
            inner: BaselinePolicy::least_loaded(),
            off_site: 10,
            answers: Vec::new(),
        };
        let mut seen = Vec::new();
        let mut observer = |obs: Observation, now: f64| seen.push((obs, now));
        let report = if reference {
            sim.run_reference(stream, &mut policy, &oracle, &mut observer)
                .0
        } else {
            sim.run_with_observer(stream, &mut policy, &oracle, &mut observer)
        };
        (
            format!("{:?}", report.outcomes),
            format!("{seen:?}"),
            policy.answers,
        )
    };

    // Two jobs on a one-slot site: job 0 waits while job 1, arriving
    // later, runs, and is placed at job 1's completion.
    let two = JobStream::generate(tb, 2, 1.0, 4);
    let mut sim = ClusterSim::with_capacity(tb, 1).restrict_to(&[3]);
    let (outcomes, _, answers) = run(&mut sim, &two, false);
    assert_eq!(answers, [(0, Some(10)), (1, Some(3)), (0, Some(3))]);
    assert_eq!(outcomes, run(&mut sim, &two, true).0);

    // A burst on a sparse site, against the catalog loop.
    let burst = JobStream::generate(tb, 60, 0.05, 5);
    let sim = || ClusterSim::with_capacity(tb, 2).restrict_to(&[2, 9, 30]);
    let got = run(&mut sim(), &burst, false);
    let want = run(&mut sim(), &burst, true);
    assert_eq!(got.2.iter().filter(|a| a.1 == Some(10)).count(), 20);
    assert_eq!(got, want);
}
