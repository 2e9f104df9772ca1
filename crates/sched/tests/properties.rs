//! Property tests for the scheduling layer: the greedy risk scorers must
//! match a brute-force oracle on every randomized cluster view, and whole
//! closed-loop runs must be decision-for-decision reproducible.

use pitot_orchestrator::{
    BaselinePolicy, ClusterSim, ClusterView, Job, JobStream, OraclePredictor, PlacementPolicy,
    PlatformLoad, QueryBatch, RuntimePredictor,
};
use pitot_sched::{risk, ConformalGreedy, PointGreedy, Signal, Traced};
use pitot_testbed::{Testbed, TestbedConfig};
use proptest::prelude::*;
use std::cell::RefCell;
use std::sync::OnceLock;

/// A deterministic pseudo-random predictor: runtimes are a hash of
/// (workload, platform, interferer multiset), so every property case
/// exercises a different but reproducible prediction surface. Interferers
/// are order-insensitive (summed), mirroring real predictors.
struct HashPredictor;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

impl RuntimePredictor for HashPredictor {
    fn predict_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        let set: u64 = interferers
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_add(mix(u64::from(w) + 1)));
        let h = mix(u64::from(workload) ^ (platform as u64) << 20 ^ set);
        // Map into (0.5, 10.5) seconds.
        0.5 + (h % 10_000) as f64 / 1_000.0
    }
    fn bound_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        // A distinct (still deterministic) margin so UpperEdge and Point
        // genuinely disagree.
        let m = mix(u64::from(workload).wrapping_mul(31) ^ platform as u64);
        self.predict_s(workload, platform, interferers) * (1.1 + (m % 100) as f64 / 200.0)
    }
    fn name(&self) -> &str {
        "hash"
    }
}

/// Brute-force oracle: an independent, naive transcription of the risk
/// definition — score every platform with a free slot, return the platform
/// id of the first argmin in view order. Any divergence from
/// `risk_argmin`'s single-pass scan is a bug in one of them.
fn oracle_place(
    job: &Job,
    view: &ClusterView,
    predictor: &dyn RuntimePredictor,
    signal: Signal,
) -> Option<usize> {
    let read = |w: u32, p: usize, set: &[u32]| match signal {
        Signal::UpperEdge => predictor.bound_s(w, p, set),
        Signal::Point => predictor.predict_s(w, p, set),
    };
    let mut best: Option<(f64, usize)> = None;
    for load in &view.platforms {
        if load.free_slots == 0 {
            continue;
        }
        let p = load.platform;
        let mut score = read(job.workload, p, &load.running);
        for slot in 0..load.running.len() {
            let without: Vec<u32> = (0..load.running.len())
                .filter(|&s| s != slot)
                .map(|s| load.running[s])
                .collect();
            let mut with: Vec<u32> = without.clone();
            with.push(job.workload);
            let delta = read(load.running[slot], p, &with) - read(load.running[slot], p, &without);
            score += (delta * load.remaining_frac[slot]).max(0.0);
        }
        if best.is_none_or(|(b, _)| score < b) {
            best = Some((score, p));
        }
    }
    best.map(|(_, p)| p)
}

/// Platforms in the testbed catalog the views draw their ids from.
const CATALOG: usize = 220;

/// Deterministically expands a drawn seed into a random cluster view: up
/// to 6 platforms whose ids are an ascending random subset of the
/// catalog (so an entry's position is not its platform), up to 3
/// residents each, arbitrary remaining fractions, and some platforms full
/// (`free_slots == 0`).
fn build_view(seed: u64) -> ClusterView {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(state)
    };
    let n_platforms = 1 + (next() % 6) as usize;
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < n_platforms {
        ids.insert((next() % CATALOG as u64) as usize);
    }
    let platforms = ids
        .into_iter()
        .map(|platform| {
            let n_residents = (next() % 4) as usize;
            let running: Vec<u32> = (0..n_residents).map(|_| (next() % 12) as u32).collect();
            let remaining_frac: Vec<f64> = (0..n_residents)
                .map(|_| (next() % 101) as f64 / 100.0)
                .collect();
            let due_s = vec![1e9; n_residents];
            PlatformLoad {
                platform,
                running,
                remaining_frac,
                due_s,
                // 0 makes the platform full.
                free_slots: (next() % 4) as usize,
            }
        })
        .collect();
    ClusterView {
        now_s: (next() % 1000) as f64 / 10.0,
        platforms,
    }
}

fn job_of(workload: u32) -> Job {
    Job {
        id: 0,
        workload,
        arrival_s: 0.0,
        deadline_s: 100.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn conformal_greedy_matches_brute_force_oracle(
        view_seed in 0u64..1_000_000,
        workload in 0u32..12,
    ) {
        let view = build_view(view_seed);
        let job = job_of(workload);
        let got = ConformalGreedy::new().place(&job, &view, &HashPredictor);
        let want = oracle_place(&job, &view, &HashPredictor, Signal::UpperEdge);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn point_greedy_matches_brute_force_oracle(
        view_seed in 0u64..1_000_000,
        workload in 0u32..12,
    ) {
        let view = build_view(view_seed);
        let job = job_of(workload);
        let got = PointGreedy::new().place(&job, &view, &HashPredictor);
        let want = oracle_place(&job, &view, &HashPredictor, Signal::Point);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn risk_argmin_returns_none_only_when_full(view_seed in 0u64..1_000_000, workload in 0u32..12) {
        let view = build_view(view_seed);
        let job = job_of(workload);
        let got = risk::risk_argmin(
            &job,
            &view,
            &HashPredictor,
            Signal::UpperEdge,
            &mut QueryBatch::default(),
            &mut Vec::new(),
            &mut Vec::new(),
        );
        let any_free = view.platforms.iter().any(|p| p.free_slots > 0);
        prop_assert_eq!(got.is_some(), any_free);
        if let Some(p) = got {
            let picked = view.platforms.iter().find(|l| l.platform == p);
            prop_assert!(picked.is_some_and(|l| l.free_slots > 0), "answered platform {}", p);
        }
    }
}

/// One predictor read: `(workload, platform, interferers)`.
type Row = (u32, usize, Vec<u32>);

/// Answers as [`HashPredictor`] and records every read: each single-row
/// call, and the rows of each batch call.
#[derive(Default)]
struct Recording {
    singles: RefCell<Vec<Row>>,
    batches: RefCell<Vec<Vec<Row>>>,
}

impl Recording {
    fn single(&self, workload: u32, platform: usize, interferers: &[u32]) {
        self.singles
            .borrow_mut()
            .push((workload, platform, interferers.to_vec()));
    }

    fn batch(&self, batch: &QueryBatch) {
        let rows = batch.iter().map(|(w, p, k)| (w, p, k.to_vec())).collect();
        self.batches.borrow_mut().push(rows);
    }
}

impl RuntimePredictor for Recording {
    fn predict_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        self.single(workload, platform, interferers);
        HashPredictor.predict_s(workload, platform, interferers)
    }
    fn bound_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        self.single(workload, platform, interferers);
        HashPredictor.bound_s(workload, platform, interferers)
    }
    fn predict_batch_s(&self, batch: &QueryBatch, out: &mut Vec<f64>) {
        self.batch(batch);
        HashPredictor.predict_batch_s(batch, out);
    }
    fn bound_batch_s(&self, batch: &QueryBatch, out: &mut Vec<f64>) {
        self.batch(batch);
        HashPredictor.bound_batch_s(batch, out);
    }
    fn name(&self) -> &str {
        "recording"
    }
}

/// The rows `oracle_place` reads, in the order the batched scan pushes
/// them. Per candidate the oracle reads the job's own row, then each
/// resident's delta as `with − without` (left operand first). The scan
/// pushes each resident's row without the newcomer before the row with it.
fn scan_order(oracle_rows: &[Row], view: &ClusterView) -> Vec<Row> {
    let mut rows = oracle_rows.iter().cloned();
    let mut want = Vec::new();
    for load in view.platforms.iter().filter(|l| l.free_slots > 0) {
        want.extend(rows.next());
        for _ in &load.running {
            let (with, without) = (rows.next(), rows.next());
            want.extend(without.into_iter().chain(with));
        }
    }
    assert!(rows.next().is_none(), "unconsumed oracle rows");
    want
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// `ConformalGreedy` and `PointGreedy` read the predictor once per
    /// decision: one batch holding exactly the oracle's rows, no single-row
    /// call, and no read at all when every platform is full.
    #[test]
    fn greedy_policies_make_one_batched_read_per_decision(
        view_seed in 0u64..1_000_000,
        workload in 0u32..12,
    ) {
        let view = build_view(view_seed);
        let job = job_of(workload);
        let any_free = view.platforms.iter().any(|p| p.free_slots > 0);
        for signal in [Signal::UpperEdge, Signal::Point] {
            let oracle = Recording::default();
            let want = oracle_place(&job, &view, &oracle, signal);
            let reads = Recording::default();
            let got = match signal {
                Signal::UpperEdge => ConformalGreedy::new().place(&job, &view, &reads),
                Signal::Point => PointGreedy::new().place(&job, &view, &reads),
            };
            prop_assert_eq!(got, want);
            prop_assert!(reads.singles.borrow().is_empty());
            let batches = reads.batches.into_inner();
            prop_assert_eq!(batches.len(), usize::from(any_free));
            let rows = batches.into_iter().next().unwrap_or_default();
            prop_assert_eq!(rows, scan_order(&oracle.singles.borrow(), &view));
        }
    }
}

fn shared_testbed() -> &'static Testbed {
    static TB: OnceLock<Testbed> = OnceLock::new();
    TB.get_or_init(|| Testbed::generate(&TestbedConfig::small()))
}

/// Whole closed-loop runs are decision-for-decision reproducible: the same
/// stream, policy, and predictor yield bitwise-identical traces (the
/// in-process half of the determinism claim; CI diffs digests across
/// `PITOT_THREADS` settings cross-process, since the thread count is
/// latched at first use).
#[test]
fn closed_loop_traces_are_reproducible() {
    let tb = shared_testbed();
    let jobs = JobStream::generate_with_deadlines(tb, 80, 0.05, (1.3, 3.0), 17);
    let run = || {
        // A fresh oracle per run: its Monte-Carlo bound consumes a seeded
        // RNG stream, so reproducibility is per-instance, not per-call.
        let oracle = OraclePredictor::with_epsilon(tb, 0.1);
        let mut traced = Traced::new(ConformalGreedy::new());
        let report =
            ClusterSim::new(tb)
                .restrict_to(&[0, 1, 2, 3])
                .run(&jobs, &mut traced, &oracle);
        (
            report.completed,
            traced.decisions().to_vec(),
            traced.digest(),
        )
    };
    let (ca, da, ha) = run();
    let (cb, db, hb) = run();
    assert_eq!(ca, 80);
    assert_eq!(ca, cb);
    assert_eq!(da, db);
    assert_eq!(ha, hb);
    // And the trace is exactly one decision per placement attempt: at
    // least one per job (requeues may add more).
    assert!(da.len() >= 80);
}

/// On a sparse site, whose platform ids are not their positions in the
/// view, every decision of a traced `ConformalGreedy` run names a site
/// platform, and every job completes there.
#[test]
fn sparse_site_decisions_land_on_the_site() {
    let tb = shared_testbed();
    assert_eq!(tb.platforms().len(), CATALOG);
    let site = [3, 17, 40, 101, 150, 219];
    let jobs = JobStream::generate_with_deadlines(tb, 120, 0.02, (1.3, 3.0), 29);
    let oracle = OraclePredictor::with_epsilon(tb, 0.1);
    let mut traced = Traced::new(ConformalGreedy::new());
    let report = ClusterSim::new(tb)
        .restrict_to(&site)
        .run(&jobs, &mut traced, &oracle);
    assert_eq!(report.completed, 120);
    assert!(traced.decisions().len() >= 120);
    for &(id, decision) in traced.decisions() {
        assert!(
            decision.is_none_or(|p| site.contains(&p)),
            "job {id} placed off the site on {decision:?}"
        );
    }
    let used: std::collections::BTreeSet<usize> =
        report.outcomes.iter().map(|o| o.platform).collect();
    assert!(used.iter().all(|p| site.contains(p)), "{used:?}");
    assert!(
        used.len() > 1,
        "the burst co-locates on one platform: {used:?}"
    );
}

/// The conformal scorer must actually use the bound: on a view where the
/// point estimate and the upper edge disagree about the best platform,
/// `ConformalGreedy` and `PointGreedy` diverge.
#[test]
fn upper_edge_and_point_signals_can_disagree() {
    struct Skewed;
    impl RuntimePredictor for Skewed {
        fn predict_s(&self, _w: u32, p: usize, _i: &[u32]) -> f64 {
            // Platform 0 looks faster on points…
            [1.0, 2.0][p]
        }
        fn bound_s(&self, _w: u32, p: usize, _i: &[u32]) -> f64 {
            // …but its tail is much heavier.
            [9.0, 3.0][p]
        }
        fn name(&self) -> &str {
            "skewed"
        }
    }
    let view = ClusterView {
        now_s: 0.0,
        platforms: (0..2)
            .map(|platform| PlatformLoad {
                platform,
                running: vec![],
                remaining_frac: vec![],
                due_s: vec![],
                free_slots: 1,
            })
            .collect(),
    };
    let job = job_of(0);
    assert_eq!(PointGreedy::new().place(&job, &view, &Skewed), Some(0));
    assert_eq!(ConformalGreedy::new().place(&job, &view, &Skewed), Some(1));
}

/// Sched policies drive the simulator through the same trait as the
/// baselines — mixed lineups run side by side.
#[test]
fn sched_policies_complete_job_streams() {
    let tb = shared_testbed();
    let jobs = JobStream::generate_with_deadlines(tb, 60, 0.1, (1.3, 3.0), 3);
    let oracle = OraclePredictor::with_epsilon(tb, 0.1);
    let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(ConformalGreedy::new()),
        Box::new(PointGreedy::new()),
        Box::new(BaselinePolicy::least_loaded()),
        Box::new(BaselinePolicy::random(7)),
        Box::new(BaselinePolicy::deadline_aware()),
    ];
    for policy in &mut policies {
        let report = ClusterSim::new(tb).restrict_to(&[0, 1, 2, 3, 4, 5]).run(
            &jobs,
            policy.as_mut(),
            &oracle,
        );
        assert_eq!(report.completed, 60, "{}", policy.name());
    }
}
