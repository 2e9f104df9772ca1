//! Behavioural tests for the streaming serving loop: stationary coverage,
//! determinism, drift-triggered fine-tuning, and the closed loop with the
//! placement simulator.

use pitot::{train, Objective, PitotConfig, TrainedPitot};
use pitot_orchestrator::{BaselinePolicy, JobStream, RuntimePredictor};
use pitot_serve::{
    run_closed_loop, Event, PitotServer, QuarantineCause, ServeConfig, ServingPredictor,
};
use pitot_testbed::{split::Split, Dataset, Testbed, TestbedConfig};
use rand::{seq::SliceRandom, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;

fn fixture() -> (Testbed, Dataset, Split, TrainedPitot) {
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    let split = Split::stratified(&dataset, 0.6, 0);
    let mut cfg = PitotConfig::tiny();
    cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
    cfg.steps = 400;
    let trained = train(&dataset, &split, &cfg);
    (testbed, dataset, split, trained)
}

/// Shuffled test indices: an exchangeable (stationary) stream.
fn stationary_stream(split: &Split, n: usize, seed: u64) -> Vec<usize> {
    let mut idx = split.test.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    idx.truncate(n);
    idx
}

#[test]
fn stationary_stream_holds_coverage_within_binomial_slack() {
    let (_tb, dataset, split, trained) = fixture();
    let eps = 0.1f32;
    let mut cfg = ServeConfig::at(eps);
    cfg.window = 400;
    cfg.refresh_every = 1;
    let mut server = PitotServer::new(trained, dataset.clone(), cfg);
    server.seed_calibration(&split.val);

    let stream = stationary_stream(&split, 3000, 7);
    for (t, &i) in stream.iter().enumerate() {
        let obs = dataset.observations[i].clone();
        let fb = server
            .on_event(t as f64, Event::Observe(obs))
            .observed
            .expect("observation feedback");
        assert!(fb.bound_log.is_finite());
    }

    let stats = server.stats();
    assert_eq!(stats.bounded, stream.len());
    assert_eq!(stats.refreshes, stream.len() + 1); // +1 for the seed refresh
    assert!(server.window_len() <= 400);

    // Exchangeable stream ⇒ prequential coverage within binomial slack of
    // nominal (both the rolling window and the full session).
    let n = stats.bounded as f32;
    let slack = 3.5 * (eps * (1.0 - eps) / n).sqrt() + 0.01;
    let cov = stats.coverage();
    assert!(
        cov >= 1.0 - eps - slack,
        "session coverage {cov} below {} - {slack}",
        1.0 - eps
    );
    // No pathological over-coverage either (the window should adapt, not
    // inflate): stay under ~1 − ε/4.
    assert!(
        cov <= 1.0 - eps / 4.0,
        "session coverage {cov} suspiciously high"
    );
}

#[test]
fn identical_event_sequences_are_bitwise_deterministic() {
    let (_tb, dataset, split, trained) = fixture();
    let build = |trained: TrainedPitot| {
        let mut cfg = ServeConfig::at(0.1);
        cfg.window = 128;
        let mut s = PitotServer::new(trained, dataset.clone(), cfg);
        s.seed_calibration(&split.val);
        s
    };
    let mut a = build(trained.clone());
    let mut b = build(trained);

    let stream = stationary_stream(&split, 400, 3);
    for (t, &i) in stream.iter().enumerate() {
        let ev = Event::Observe(dataset.observations[i].clone());
        let fa = a.on_event(t as f64, ev.clone()).observed.unwrap();
        let fb = b.on_event(t as f64, ev).observed.unwrap();
        assert_eq!(fa, fb, "feedback diverged at event {t}");
    }
    let qa = a.query_now(0, 0, &[1, 2]);
    let qb = b.query_now(0, 0, &[1, 2]);
    assert_eq!(qa, qb);
}

#[test]
fn runtime_drift_fires_fine_tune_and_recovers_coverage() {
    // The cluster slows down mid-stream (thermal throttling: every runtime
    // grows by e^0.6). A static model+calibration under-covers; the drift
    // detector must fire, the warm-start fine-tune must run, and the
    // post-update loop must recover coverage.
    let (_tb, dataset, split, trained) = fixture();
    let eps = 0.1f32;
    let mut cfg = ServeConfig::at(eps);
    cfg.window = 300;
    cfg.drift_window = 150;
    cfg.drift_min = 60;
    cfg.fine_tune_steps = 60;
    cfg.fine_tune_cooldown = 150;
    // Freeze recalibration so recovery must come from the fine-tune path
    // (drift detection watches the served bounds either way). A huge
    // cadence means the only refreshes are the seed's and the
    // post-fine-tune one.
    cfg.refresh_every = usize::MAX;
    let mut server = PitotServer::new(trained, dataset.clone(), cfg);
    server.seed_calibration(&split.val);

    let stream = stationary_stream(&split, 2500, 11);
    let drift = 0.6f32;
    let mut pre_drift_miss = 0usize;
    let mut post_events = 0usize;
    let mut post_covered = 0usize;
    for (t, &i) in stream.iter().enumerate() {
        let mut obs = dataset.observations[i].clone();
        obs.runtime_s *= drift.exp(); // the world got slower
        let fb = server
            .on_event(t as f64, Event::Observe(obs))
            .observed
            .unwrap();
        if server.stats().fine_tunes == 0 && !fb.covered {
            pre_drift_miss += 1;
        }
        if server.stats().fine_tunes > 0 && !fb.fine_tuned {
            post_events += 1;
            if fb.covered {
                post_covered += 1;
            }
        }
    }

    let stats = server.stats();
    assert!(
        stats.fine_tunes >= 1,
        "drift detector never fired a fine-tune (misses before: {pre_drift_miss})"
    );
    // The detector fires as soon as drift_min outcomes are in, so the
    // pre-fine-tune stretch is short — but it must show real misses.
    assert!(
        pre_drift_miss > 15,
        "drifted stream should miss the stale bounds often, got {pre_drift_miss}"
    );
    assert!(
        post_events > 300,
        "not enough post-fine-tune stream to judge"
    );
    let post_cov = post_covered as f32 / post_events as f32;
    // The fine-tune + window re-score must restore coverage to near
    // nominal (generous slack: the model absorbs the shift imperfectly and
    // the re-scored window carries mixed pre/post-update scores).
    assert!(
        post_cov >= 1.0 - eps - 0.08,
        "post-fine-tune coverage {post_cov} did not recover"
    );
}

#[test]
fn fine_tune_disabled_never_touches_the_model() {
    let (_tb, dataset, split, trained) = fixture();
    let before = trained.model.store().params().to_vec();
    let mut cfg = ServeConfig::at(0.1);
    cfg.fine_tune_steps = 0;
    let mut server = PitotServer::new(trained, dataset.clone(), cfg);
    server.seed_calibration(&split.val);
    for (t, &i) in stationary_stream(&split, 500, 5).iter().enumerate() {
        let mut obs = dataset.observations[i].clone();
        obs.runtime_s *= 3.0; // heavy drift, but fine-tuning is off
        server.on_event(t as f64, Event::Observe(obs));
    }
    assert_eq!(server.stats().fine_tunes, 0);
    assert_eq!(server.trained().model.store().params(), &before[..]);
    // The dataset copy must not have grown either (arrivals are only
    // recorded when they can be trained on).
    assert_eq!(
        server.dataset().observations.len(),
        dataset.observations.len()
    );
}

#[test]
fn fine_tune_pool_compaction_bounds_memory_and_keeps_tuning() {
    // A long-lived server with fine-tuning enabled must not grow without
    // bound: the streamed pool compacts to the retention bound, indices
    // stay valid across compactions, and fine-tunes keep working after.
    let (_tb, dataset, split, trained) = fixture();
    let base = dataset.observations.len();
    let mut cfg = ServeConfig::at(0.1);
    cfg.window = 100;
    cfg.drift_window = 80;
    cfg.drift_min = 40;
    cfg.fine_tune_steps = 20;
    cfg.fine_tune_cooldown = 200;
    cfg.fine_tune_retain = 200;
    // Freeze recalibration (as in the drift test) so sustained drift keeps
    // the monitor firing instead of being absorbed by the window.
    cfg.refresh_every = usize::MAX;
    let mut server = PitotServer::new(trained, dataset.clone(), cfg);
    server.seed_calibration(&split.val);

    let mut last_tune_at = 0usize;
    for (t, &i) in stationary_stream(&split, 1500, 13).iter().enumerate() {
        let mut obs = dataset.observations[i].clone();
        // Drift escalates mid-stream, after compaction has happened at
        // ~400 arrivals, so a fine-tune must also run post-compaction.
        let drift = if t < 600 { 0.6f32 } else { 1.4 };
        obs.runtime_s *= drift.exp();
        let fb = server
            .on_event(t as f64, Event::Observe(obs))
            .observed
            .unwrap();
        if fb.fine_tuned {
            last_tune_at = t;
        }
        // Invariant at every step: the dataset copy never exceeds the base
        // plus twice the retention bound (compaction triggers at 2×).
        assert!(
            server.dataset().observations.len() <= base + 400,
            "dataset grew past the retention bound at event {t}: {}",
            server.dataset().observations.len()
        );
    }
    // 1500 streamed events with retention 200 ⇒ compaction definitely ran,
    // and fine-tunes still fired across compaction boundaries.
    assert!(server.dataset().observations.len() < base + 1500);
    assert!(
        server.stats().fine_tunes >= 2,
        "expected fine-tunes on both drift levels, got {}",
        server.stats().fine_tunes
    );
    assert!(
        last_tune_at > 600,
        "no fine-tune ran after compaction (last at {last_tune_at})"
    );
    let cov = server.stats().coverage();
    assert!((0.0..=1.0).contains(&cov));
}

#[test]
fn closed_loop_feeds_every_completion_back() {
    let (tb, dataset, split, trained) = fixture();
    let mut cfg = ServeConfig::at(0.1);
    cfg.window = 200;
    let mut server = PitotServer::new(trained, dataset, cfg);
    server.seed_calibration(&split.val);
    let server = Rc::new(RefCell::new(server));

    let jobs = JobStream::generate(&tb, 120, 0.2, 21);
    let site: Vec<usize> = (0..5).collect();
    let report = run_closed_loop(
        &tb,
        &jobs,
        &mut BaselinePolicy::deadline_aware(),
        &server,
        Some(&site),
    );
    assert_eq!(report.completed, 120);

    let server = server.borrow();
    let stats = server.stats();
    // Every completion streamed back in and was judged prequentially.
    assert_eq!(stats.observations, 120);
    assert_eq!(stats.bounded, 120);
    // Placement decisions queried the live server, and every row a policy
    // reads is counted as one query, whichever read path answered it.
    assert!(stats.queries >= 120, "queries {}", stats.queries);
    assert!(stats.refreshes > 100, "refreshes {}", stats.refreshes);
    // The loop's bounds stay sane: rolling coverage is a valid fraction.
    let cov = stats.coverage();
    assert!((0.0..=1.0).contains(&cov));
}

/// A calibration change that is not an event — seeding a server, or an
/// install into it — shows in the very next `ServingPredictor` read.
#[test]
fn serving_predictor_reads_the_calibration_a_seed_or_install_set() {
    let (_tb, dataset, split, trained) = fixture();
    let o = &dataset.observations[split.test[0]];
    let (w, p, k) = (o.workload, o.platform, o.interferers.as_slice());
    let server = Rc::new(RefCell::new(PitotServer::new(
        trained.clone(),
        dataset.clone(),
        ServeConfig::at(0.1),
    )));
    let predictor = ServingPredictor::new(Rc::clone(&server));
    let served = || f64::from(server.borrow_mut().query_now(w, p, k).bound_s);

    let uncalibrated = predictor.bound_s(w, p as usize, k);
    server.borrow_mut().seed_calibration(&split.val);
    let seeded = predictor.bound_s(w, p as usize, k);
    assert_eq!(seeded.to_bits(), served().to_bits(), "after a seed");
    assert_ne!(seeded, uncalibrated, "seeding must change this bound");

    let mut wider = PitotServer::new(trained, dataset.clone(), ServeConfig::at(0.3));
    wider.seed_calibration(&split.val);
    let wider = wider.conformal().expect("seeded").clone();
    server.borrow_mut().install_calibration(wider);
    let installed = predictor.bound_s(w, p as usize, k);
    assert_eq!(installed.to_bits(), served().to_bits(), "after an install");
    assert_ne!(installed, seeded, "the install must change this bound");
}

#[test]
fn unguarded_server_quarantines_corrupt_runtimes() {
    // Runtimes are screened on every server: an unguarded one quarantines
    // a zero, negative, NaN or infinite runtime as a typed, counted record,
    // and its window, monitor and judged count stay as they were.
    let (_tb, dataset, split, trained) = fixture();
    let cfg = ServeConfig::at(0.1);
    assert!(!cfg.ingest_guard);
    let mut server = PitotServer::new(trained.clone(), dataset.clone(), cfg.clone());
    server.seed_calibration(&split.val);
    let mut twin = PitotServer::new(trained, dataset.clone(), cfg);
    twin.seed_calibration(&split.val);
    let valid = &split.test[..4];
    for (t, &i) in valid.iter().enumerate() {
        let obs = dataset.observations[i].clone();
        server.on_event(t as f64, Event::Observe(obs.clone()));
        twin.on_event(t as f64, Event::Observe(obs));
    }
    let state = |s: &PitotServer| {
        (
            s.window_summary(0),
            s.window_clock(),
            s.rolling_coverage().to_bits(),
            s.stats().bounded,
            s.stats().covered,
        )
    };
    let before = state(&server);

    let next = dataset.observations[split.test[4]].clone();
    let corrupt = [
        (0.0, QuarantineCause::NonPositiveRuntime),
        (-1.0, QuarantineCause::NonPositiveRuntime),
        (f32::NAN, QuarantineCause::NonFiniteRuntime),
        (f32::INFINITY, QuarantineCause::NonFiniteRuntime),
    ];
    for (k, &(runtime_s, cause)) in corrupt.iter().enumerate() {
        let mut obs = next.clone();
        obs.runtime_s = runtime_s;
        let resp = server.on_event(4.0, Event::Observe(obs));
        assert!(resp.observed.is_none(), "a corrupt runtime was judged");
        let record = resp.quarantined.expect("a corrupt runtime is quarantined");
        assert_eq!(record.cause, cause);
        assert_eq!(record.runtime_bits, runtime_s.to_bits());
        assert_eq!(record.score, None, "a runtime cause carries no score");
        assert_eq!(record.at, (valid.len() + k + 1) as u64);
    }
    let g = server.guard_stats();
    assert!(g.is_consistent(), "{g:?}");
    assert_eq!(
        (
            g.quarantined,
            g.nonpositive_runtimes,
            g.nonfinite_runtimes,
            g.mad_outliers,
            g.watchdog_purged,
            g.watchdog_fires
        ),
        (4, 2, 2, 0, 0, 0)
    );
    assert_eq!(server.quarantine_records().count(), 4);
    assert_eq!(server.stats().observations, valid.len() + corrupt.len());
    assert!(
        state(&server) == before,
        "a quarantined runtime touched the window, monitor or judged counts"
    );

    // The next valid observation is judged exactly as on a server that
    // never saw the corrupt ones.
    let resp = server.on_event(5.0, Event::Observe(next.clone()));
    let want = twin.on_event(5.0, Event::Observe(next));
    assert!(resp.quarantined.is_none());
    assert!(resp.observed.is_some());
    assert_eq!(resp.observed, want.observed);
    assert_eq!(server.window_summary(0), twin.window_summary(0));
    assert_eq!(server.stats().bounded, twin.stats().bounded);
}
