//! The serving scoring path: a batched read answers every row exactly as
//! the single-row read does, a read that looks its inner products up in a
//! tower cache's tables answers exactly as one that computes them, and
//! once warm, no read and no observation allocates a matrix.
//!
//! Every row a server scores is one head-list pass into buffers its scorer
//! keeps. `PitotServer::query_now` (a batch of one) and
//! `PitotServer::query_batch`, `FleetServer::deadline_query` (each
//! replica's `query_now`), `ConcurrentFleet`'s ingress read path, and an
//! arriving observation through `PitotServer::on_event`,
//! `FleetServer::observe` (each replica's `on_event`) or
//! `ConcurrentFleet::run_trace` (each replica's share of a lane batch)
//! compute their inner products. Every read of `ServingPredictor`, the
//! placement predictor, looks them up in the server's completed-matrix
//! tables.

use pitot::{train, CompressionSpec, Matrix, Objective, PitotConfig, TowerCache, TrainedPitot};
use pitot_conformal::{HeadSelection, PooledConformal};
use pitot_orchestrator::{
    ClusterView, Job, PlacementPolicy, PlatformLoad, QueryBatch, RuntimePredictor,
};
use pitot_sched::ConformalGreedy;
use pitot_serve::{
    ConcurrentConfig, ConcurrentFleet, DeadlineQuery, Event, FaultPlan, FleetConfig, FleetServer,
    PitotServer, Prediction, ServeConfig, ServingPredictor, TraceEvent, TraceOutcome,
};
use pitot_testbed::{split::Split, Dataset, Observation, Testbed, TestbedConfig, MAX_INTERFERERS};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::OnceLock;

fn fixture() -> &'static (Dataset, Split, TrainedPitot) {
    static FIXTURE: OnceLock<(Dataset, Split, TrainedPitot)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&dataset, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        cfg.steps = 200;
        let trained = train(&dataset, &split, &cfg);
        (dataset, split, trained)
    })
}

/// A server seeded from the validation split, behind a shared handle.
fn seeded_server() -> Rc<RefCell<PitotServer>> {
    let (dataset, split, trained) = fixture();
    let mut server = PitotServer::new(trained.clone(), dataset.clone(), ServeConfig::at(0.1));
    server.seed_calibration(&split.val);
    Rc::new(RefCell::new(server))
}

/// Expands `seed` into `n` in-catalog rows with 0..=`MAX_INTERFERERS`
/// interferers each. Interferers come from a small id pool, so rows repeat
/// ids, and about a quarter of the rows duplicate an earlier row.
fn build_rows(seed: u64, n: usize) -> QueryBatch {
    let (dataset, ..) = fixture();
    let mut rng = TestRng::from_state(seed);
    let mut rows: Vec<(u32, usize, Vec<u32>)> = Vec::with_capacity(n);
    for _ in 0..n {
        if !rows.is_empty() && rng.below(0, 4) == 0 {
            let again = rows[rng.below(0, rows.len())].clone();
            rows.push(again);
            continue;
        }
        let workload = rng.below(0, dataset.n_workloads) as u32;
        let platform = rng.below(0, dataset.n_platforms);
        let interferers = (0..rng.below(0, MAX_INTERFERERS + 1))
            .map(|_| rng.below(0, 6) as u32)
            .collect();
        rows.push((workload, platform, interferers));
    }
    let mut batch = QueryBatch::default();
    for (w, p, k) in rows {
        batch.push(w, p, k);
    }
    batch
}

thread_local! {
    static SERVER: Rc<RefCell<PitotServer>> = seeded_server();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A batched read is bitwise the single-row reads of its rows, and it
    /// counts one query per row.
    #[test]
    fn batched_reads_equal_single_row_reads(seed in 0u64..u64::MAX, n in 0usize..41) {
        let server = SERVER.with(Rc::clone);
        let predictor = ServingPredictor::new(Rc::clone(&server));
        let batch = build_rows(seed, n);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let queries = || server.borrow().stats().queries;

        let mut got = vec![f64::NAN; 3];
        let before = queries();
        predictor.bound_batch_s(&batch, &mut got);
        prop_assert_eq!(queries() - before, n);
        let want: Vec<f64> = batch.iter().map(|(w, p, k)| predictor.bound_s(w, p, k)).collect();
        prop_assert_eq!(bits(&got), bits(&want));

        let before = queries();
        predictor.predict_batch_s(&batch, &mut got);
        prop_assert_eq!(queries() - before, n);
        let want: Vec<f64> = batch.iter().map(|(w, p, k)| predictor.predict_s(w, p, k)).collect();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// The answer the every-head row of `(workload, platform, interferers)`
/// gives under `conformal`: the served bound reads the pool's calibrated
/// head, or the highest head before any calibration exists. The oracle the
/// two-head reads are pinned to.
fn full_row_answer(conformal: Option<&PooledConformal>, row: (u32, usize, &[u32])) -> Prediction {
    let (dataset, _, trained) = fixture();
    static TOWERS: OnceLock<TowerCache> = OnceLock::new();
    let towers = TOWERS.get_or_init(|| trained.tower_cache(dataset));
    every_head_answer(trained, towers, conformal, row)
}

/// [`full_row_answer`] of `trained` read through `towers`.
fn every_head_answer(
    trained: &TrainedPitot,
    towers: &TowerCache,
    conformal: Option<&PooledConformal>,
    (workload, platform, interferers): (u32, usize, &[u32]),
) -> Prediction {
    let query = Observation {
        workload,
        platform: platform as u32,
        interferers: interferers.to_vec(),
        runtime_s: 1.0,
    };
    let mut row = Matrix::default();
    trained.predict_log_runtime_into(towers, &[query], &mut row);
    let heads = row.row(0);
    // `ServeConfig::at` pools by arity.
    let pool = interferers.len().min(MAX_INTERFERERS);
    let bound = match conformal {
        Some(c) => c.bound_log(heads, pool),
        None => heads[heads.len() - 1],
    };
    Prediction {
        id: 0,
        point_s: heads[0].exp(),
        bound_s: bound.exp(),
        pool,
        degraded: false,
    }
}

/// A prediction's fields, floats as bits.
fn answer_bits(p: &Prediction) -> (u64, u32, u32, usize, bool) {
    (
        p.id,
        p.point_s.to_bits(),
        p.bound_s.to_bits(),
        p.pool,
        p.degraded,
    )
}

/// A `TightestOnValidation` calibration of the fixture whose pools read
/// their bounds from different heads.
fn tightest_with_mixed_heads() -> PooledConformal {
    let (dataset, _, trained) = fixture();
    [0.1f32, 0.05, 0.2, 0.02, 0.3]
        .into_iter()
        .map(|eps| trained.fit_bounds(dataset, eps, HeadSelection::TightestOnValidation))
        .find(|c| {
            let heads: BTreeSet<usize> = c.pool_calibrations().values().map(|p| p.head).collect();
            heads.len() > 1
        })
        .expect("some ε picks different heads in different pools")
}

/// A point read through `ServingPredictor`, batched or of one row, scores
/// head 0 alone, yet answers bitwise the `point_s` of `query_batch` over
/// the same rows, and counts one query per row: before any calibration,
/// under `NaiveXi`, and under a `TightestOnValidation` fit whose pools read
/// different bound heads.
#[test]
fn point_reads_answer_as_the_query_batch_points() {
    let (dataset, split, trained) = fixture();
    let server = Rc::new(RefCell::new(PitotServer::new(
        trained.clone(),
        dataset.clone(),
        ServeConfig::at(0.1),
    )));
    let predictor = ServingPredictor::new(Rc::clone(&server));
    let queries = || server.borrow().stats().queries;
    let check = |stage: &str| {
        for n in [0, 1, 40] {
            let batch = build_rows(0x9017 + n as u64, n);
            let mut want = Vec::new();
            server
                .borrow_mut()
                .query_batch(&batch, |p| want.push(f64::from(p.point_s).to_bits()));

            let mut got = vec![f64::NAN; 3];
            let before = queries();
            predictor.predict_batch_s(&batch, &mut got);
            assert_eq!(queries() - before, n, "batched point read counts, {stage}");
            let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "batched point read, {n} rows, {stage}");

            let before = queries();
            let single: Vec<u64> = batch
                .iter()
                .map(|(w, p, k)| predictor.predict_s(w, p, k).to_bits())
                .collect();
            assert_eq!(
                queries() - before,
                n,
                "single-row point read counts, {stage}"
            );
            assert_eq!(single, want, "single-row point read, {n} rows, {stage}");
        }
    };
    check("before any calibration");
    server.borrow_mut().seed_calibration(&split.val);
    check("NaiveXi");
    server
        .borrow_mut()
        .install_calibration(tightest_with_mixed_heads());
    check("TightestOnValidation");
}

/// `query_now`, `query_batch` and a `ConcurrentFleet` deadline read score
/// two heads per row; each answer is bitwise the every-head row's, before
/// any calibration exists, under `NaiveXi`, and after installing a
/// `TightestOnValidation` fit whose pools pick different heads.
#[test]
fn two_head_reads_answer_as_the_every_head_row() {
    let (dataset, split, trained) = fixture();
    let batch = build_rows(0x5EED, 40);
    let tightest = tightest_with_mixed_heads();

    let mut server = PitotServer::new(trained.clone(), dataset.clone(), ServeConfig::at(0.1));
    let check = |server: &mut PitotServer, stage: &str| {
        let want: Vec<_> = batch
            .iter()
            .map(|row| answer_bits(&full_row_answer(server.conformal(), row)))
            .collect();
        let mut got = Vec::new();
        server.query_batch(&batch, |p| got.push(answer_bits(&p)));
        assert_eq!(got, want, "query_batch, {stage}");
        let single: Vec<_> = batch
            .iter()
            .map(|(w, p, k)| answer_bits(&server.query_now(w, p as u32, k)))
            .collect();
        assert_eq!(single, want, "query_now, {stage}");
    };
    check(&mut server, "before any calibration");
    server.seed_calibration(&split.val);
    assert_eq!(ServeConfig::at(0.1).selection, HeadSelection::NaiveXi);
    check(&mut server, "NaiveXi");
    server.install_calibration(tightest);
    check(&mut server, "TightestOnValidation");

    let ccfg = ConcurrentConfig {
        fleet: FleetConfig::at(0.1, 3),
        workers: Some(1),
    };
    let mut conc = ConcurrentFleet::new(trained.clone(), dataset, ccfg);
    // Ids run on across calls: the admission queue rejects a reused one.
    let queries = |first: u64| -> Vec<TraceEvent> {
        batch
            .iter()
            .zip(first..)
            .map(|((workload, platform, interferers), id)| {
                TraceEvent::Deadline(DeadlineQuery {
                    id,
                    workload,
                    platform: platform as u32,
                    interferers: interferers.to_vec(),
                    deadline_s: 1.0,
                })
            })
            .collect()
    };
    let fleet_check = |conc: &mut ConcurrentFleet, first: u64, stage: &str| {
        let want: Vec<_> = batch
            .iter()
            .map(|row| answer_bits(&full_row_answer(conc.fleet_conformal(), row)))
            .collect();
        let got: Vec<_> = conc
            .run_trace(&queries(first))
            .iter()
            .map(|o| match o {
                TraceOutcome::Decided(d) => answer_bits(&d.prediction),
                other => panic!("a deadline query was not decided: {other:?}"),
            })
            .collect();
        assert_eq!(got, want, "ConcurrentFleet, {stage}");
    };
    fleet_check(&mut conc, 0, "before any calibration");
    conc.seed_calibration(&split.val);
    assert!(conc.fleet_conformal().is_some(), "seeding fits the fleet");
    fleet_check(&mut conc, batch.len() as u64, "NaiveXi");
}

/// Through a server that fine-tunes mid-stream, every `ServingPredictor`
/// read (point and bound, single-row and batched) is bitwise the every-head
/// row of the server's current model, read from a tower cache built fresh
/// for the check. Reads before each fine-tune fill the old cache's tables
/// for the same rows, so a table that outlived its towers would answer for
/// the old model.
#[test]
fn serving_reads_follow_each_fine_tune_bit_for_bit() {
    let (dataset, split, trained) = fixture();
    let mut cfg = ServeConfig::at(0.1);
    cfg.window = 100;
    cfg.drift_window = 80;
    cfg.drift_min = 40;
    cfg.fine_tune_steps = 20;
    cfg.fine_tune_cooldown = 150;
    // As in the streaming drift tests: with no local refresh the drift
    // stays visible to the monitor, which fires the fine-tunes.
    cfg.refresh_every = usize::MAX;
    let mut server = PitotServer::new(trained.clone(), dataset.clone(), cfg);
    server.seed_calibration(&split.val);
    let server = Rc::new(RefCell::new(server));
    let predictor = ServingPredictor::new(Rc::clone(&server));
    let batch = build_rows(0xF1E7, 30);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let check = |stage: &str| {
        let (points, bounds): (Vec<f64>, Vec<f64>) = {
            let s = server.borrow();
            let towers = s.trained().tower_cache(s.dataset());
            batch
                .iter()
                .map(|row| {
                    let p = every_head_answer(s.trained(), &towers, s.conformal(), row);
                    (f64::from(p.point_s), f64::from(p.bound_s))
                })
                .unzip()
        };
        let mut got = Vec::new();
        predictor.predict_batch_s(&batch, &mut got);
        assert_eq!(bits(&got), bits(&points), "batched points, {stage}");
        predictor.bound_batch_s(&batch, &mut got);
        assert_eq!(bits(&got), bits(&bounds), "batched bounds, {stage}");
        let single: Vec<f64> = batch
            .iter()
            .map(|(w, p, k)| predictor.predict_s(w, p, k))
            .collect();
        assert_eq!(bits(&single), bits(&points), "single points, {stage}");
        let single: Vec<f64> = batch
            .iter()
            .map(|(w, p, k)| predictor.bound_s(w, p, k))
            .collect();
        assert_eq!(bits(&single), bits(&bounds), "single bounds, {stage}");
    };
    check("after seeding");
    let mut checked_after = 0;
    for (t, &i) in split.test.iter().take(1200).enumerate() {
        let mut obs = dataset.observations[i].clone();
        // The world runs slower than the model learned, then slower
        // still.
        obs.runtime_s *= if t < 500 { 0.6f32 } else { 1.4 }.exp();
        let tuned = server
            .borrow_mut()
            .on_event(t as f64, Event::Observe(obs))
            .observed
            .expect("every arrival is judged")
            .fine_tuned;
        if tuned || t % 100 == 0 {
            let tunes = server.borrow().stats().fine_tunes;
            check(&format!("event {t}, after {tunes} fine-tunes"));
            checked_after += usize::from(tuned);
        }
    }
    assert!(checked_after >= 2, "{checked_after} fine-tunes checked");
}

/// The fleet computes every inner product: traces of a `FleetServer` and
/// of a one-lane `ConcurrentFleet` (which runs on the calling thread) fill
/// no completed-matrix table on this thread. Each trace seeds, answers
/// deadline queries, resolves them and takes observations, through a crash
/// of a compressed replica and its rejoin. A placement read on the same
/// thread does fill tables, so the count is live.
#[test]
fn fleet_traces_fill_no_table() {
    let (dataset, split, trained) = fixture();
    let mut cfg = FleetConfig::at(0.1, 3);
    cfg.serve.window = 64;
    cfg.compression = vec![
        CompressionSpec::none(),
        CompressionSpec::int8(),
        CompressionSpec::none(),
    ];
    let plan = FaultPlan::none(7).crash(1, 30, 70);
    let filled = pitot::tables_filled;
    let before = filled();

    let mut fleet = FleetServer::with_faults(trained.clone(), dataset, cfg.clone(), plan.clone());
    fleet.seed_calibration(&split.val);
    for (t, q) in deadline_queries(0, 120).into_iter().enumerate() {
        let (id, realized_s) = (q.id, q.deadline_s / 2.0);
        fleet.deadline_query(q);
        fleet.resolve(id, realized_s);
        fleet.observe(t as f64, dataset.observations[split.test[t]].clone());
    }
    assert!(fleet.stats().recoveries >= 1, "the replica rejoined");
    assert_eq!(filled(), before, "FleetServer");

    let ccfg = ConcurrentConfig {
        fleet: cfg,
        workers: Some(1),
    };
    let mut conc = ConcurrentFleet::with_faults(trained.clone(), dataset, ccfg, plan);
    conc.seed_calibration(&split.val);
    let trace: Vec<TraceEvent> = deadline_queries(0, 120)
        .into_iter()
        .zip(&split.test)
        .flat_map(|(q, &i)| {
            let resolve = TraceEvent::Resolve {
                id: q.id,
                realized_s: q.deadline_s / 2.0,
            };
            let observe = TraceEvent::Observe(dataset.observations[i].clone());
            [TraceEvent::Deadline(q), resolve, observe]
        })
        .collect();
    conc.run_trace(&trace);
    assert!(conc.stats().recoveries >= 1, "the replica rejoined");
    assert_eq!(filled(), before, "ConcurrentFleet");

    ServingPredictor::new(seeded_server()).bound_s(0, 0, &[1]);
    assert!(filled() > before, "a placement read fills its tables");
}

/// The message of the panic `f` raises.
fn panic_message(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("the panic carries a message")
}

/// A table read of an out-of-catalog workload, platform or interferer
/// panics with the computed read's message, whether it reads a point or a
/// bound, one row or a batch.
#[test]
fn table_reads_of_out_of_catalog_rows_panic_as_computed_reads_do() {
    let (dataset, ..) = fixture();
    let (nw, np) = (dataset.n_workloads as u32, dataset.n_platforms as u32);
    for (workload, platform, interferers) in
        [(nw, 0, vec![]), (0, np, vec![1]), (0, 0, vec![1, nw])]
    {
        let computed = panic_message(|| {
            seeded_server()
                .borrow_mut()
                .query_now(workload, platform, &interferers);
        });
        let row = || {
            let mut batch = QueryBatch::default();
            batch.push(0, 0, []);
            batch.push(workload, platform as usize, interferers.iter().copied());
            batch
        };
        for read in ["bound_s", "predict_s", "bound_batch_s", "predict_batch_s"] {
            let message = panic_message(|| {
                let predictor = ServingPredictor::new(seeded_server());
                let (p, mut out) = (platform as usize, Vec::new());
                match read {
                    "bound_s" => out.push(predictor.bound_s(workload, p, &interferers)),
                    "predict_s" => out.push(predictor.predict_s(workload, p, &interferers)),
                    "bound_batch_s" => predictor.bound_batch_s(&row(), &mut out),
                    _ => predictor.predict_batch_s(&row(), &mut out),
                }
            });
            assert_eq!(
                message, computed,
                "{read} of {workload}/{platform}/{interferers:?}"
            );
        }
    }
}

/// Deadline queries over the first test observations, ids from `first`.
fn deadline_queries(first: u64, n: usize) -> Vec<DeadlineQuery> {
    let (dataset, split, _) = fixture();
    split.test[..n]
        .iter()
        .zip(first..)
        .map(|(&i, id)| {
            let o = &dataset.observations[i];
            DeadlineQuery {
                id,
                workload: o.workload,
                platform: o.platform,
                interferers: o.interferers.clone(),
                deadline_s: f64::from(o.runtime_s) * 2.0,
            }
        })
        .collect()
}

/// Matrix allocations `f` makes on this thread.
fn matrix_allocs(f: impl FnOnce()) -> u64 {
    pitot_linalg::alloc_count::reset();
    f();
    pitot_linalg::alloc_count::matrix_allocs()
}

/// After one warm-up pass sizes each scorer's buffers, no read path and no
/// observation path allocates a matrix: not a placement decision through a
/// serving predictor, not `query_now`, not an observation through
/// `PitotServer::on_event`, not a fleet deadline query, not an observation
/// through `FleetServer::observe`, not the concurrent fleet's ingress
/// answering deadline queries and resolves, and not its lanes retiring
/// observations. The concurrent fleet runs inline (one lane), so the
/// ingress retires every lane batch on this thread, where the counter is.
#[test]
fn warm_reads_allocate_no_matrix() {
    let (dataset, split, trained) = fixture();
    // Ten test observations from `first`, stamped with their stream index.
    let arrivals = |first: usize| {
        split.test[first..first + 10]
            .iter()
            .enumerate()
            .map(move |(t, &i)| ((first + t) as f64, dataset.observations[i].clone()))
    };
    let rows: Vec<(u32, u32, Vec<u32>)> = split.test[..10]
        .iter()
        .map(|&i| {
            let o = &dataset.observations[i];
            (o.workload, o.platform, o.interferers.clone())
        })
        .collect();

    let server = seeded_server();
    let predictor = ServingPredictor::new(Rc::clone(&server));
    let view = ClusterView {
        now_s: 0.0,
        platforms: (0..6)
            .map(|p| PlatformLoad {
                platform: p as usize,
                running: vec![p, p + 1],
                remaining_frac: vec![0.7, 0.3],
                due_s: vec![1e9; 2],
                free_slots: 1,
            })
            .collect(),
    };
    let job = Job {
        id: 0,
        workload: 3,
        arrival_s: 0.0,
        deadline_s: 1e9,
    };
    let mut policy = ConformalGreedy::new();
    let decide = |policy: &mut ConformalGreedy| policy.place(&job, &view, &predictor);
    // The warm-up decision fills its site's tables; the next one reads
    // them.
    let tables = pitot::tables_filled();
    let warm = decide(&mut policy);
    assert!(pitot::tables_filled() > tables, "the warm-up fills tables");
    let mut again = None;
    assert_eq!(matrix_allocs(|| again = decide(&mut policy)), 0, "place");
    assert_eq!(again, warm);

    let query = |server: &mut PitotServer| {
        for (w, p, k) in &rows {
            server.query_now(*w, *p, k);
        }
    };
    query(&mut server.borrow_mut());
    assert_eq!(
        matrix_allocs(|| query(&mut server.borrow_mut())),
        0,
        "query_now"
    );

    let observe = |server: &mut PitotServer, first: usize| {
        for (at, obs) in arrivals(first) {
            let observed = server.on_event(at, Event::Observe(obs)).observed;
            assert!(observed.is_some(), "every arrival is judged");
        }
    };
    observe(&mut server.borrow_mut(), 0);
    assert_eq!(
        matrix_allocs(|| observe(&mut server.borrow_mut(), 10)),
        0,
        "PitotServer::on_event"
    );

    let mut cfg = FleetConfig::at(0.1, 3);
    cfg.serve.window = 64;
    let mut fleet = FleetServer::new(trained.clone(), dataset, cfg.clone());
    fleet.seed_calibration(&split.val);
    let decide_all = |fleet: &mut FleetServer, first: u64| {
        for q in deadline_queries(first, 10) {
            let (id, realized_s) = (q.id, q.deadline_s / 2.0);
            fleet.deadline_query(q);
            fleet.resolve(id, realized_s);
        }
    };
    decide_all(&mut fleet, 0);
    assert_eq!(
        matrix_allocs(|| decide_all(&mut fleet, 10)),
        0,
        "deadline_query"
    );

    let observe_all = |fleet: &mut FleetServer, first: usize| {
        for (at, obs) in arrivals(first) {
            let (_, feedback) = fleet.observe(at, obs);
            assert!(feedback.is_some(), "every arrival is judged");
        }
    };
    observe_all(&mut fleet, 0);
    assert_eq!(
        matrix_allocs(|| observe_all(&mut fleet, 10)),
        0,
        "FleetServer::observe"
    );

    let ccfg = ConcurrentConfig {
        fleet: cfg,
        workers: Some(1),
    };
    let mut conc = ConcurrentFleet::new(trained.clone(), dataset, ccfg);
    conc.seed_calibration(&split.val);
    let trace = |first: u64| -> Vec<TraceEvent> {
        deadline_queries(first, 10)
            .into_iter()
            .flat_map(|q| {
                let resolve = TraceEvent::Resolve {
                    id: q.id,
                    realized_s: q.deadline_s / 2.0,
                };
                [TraceEvent::Deadline(q), resolve]
            })
            .collect()
    };
    conc.run_trace(&trace(0));
    let warm_trace = trace(10);
    assert_eq!(
        matrix_allocs(|| {
            conc.run_trace(&warm_trace);
        }),
        0,
        "ConcurrentFleet::run_trace"
    );

    let observations = |first: usize| -> Vec<TraceEvent> {
        arrivals(first)
            .map(|(_, obs)| TraceEvent::Observe(obs))
            .collect()
    };
    conc.run_trace(&observations(0));
    let warm_observations = observations(10);
    let mut outcomes = Vec::new();
    assert_eq!(
        matrix_allocs(|| outcomes = conc.run_trace(&warm_observations)),
        0,
        "ConcurrentFleet lane retire"
    );
    assert!(
        outcomes.iter().all(|o| matches!(
            o,
            TraceOutcome::Observed {
                feedback: Some(_),
                ..
            }
        )),
        "every arrival is judged"
    );
}
