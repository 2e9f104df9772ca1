//! Conformal placement closed-loop (extension): does scheduling on the
//! interval *edge* beat scheduling on the point estimate — or on nothing?
//!
//! `ext-orchestration` showed calibrated bounds help a deadline-aware
//! admission rule; this experiment closes the remaining loop and puts the
//! bound inside the *placement* decision itself. Four `pitot-sched`
//! policies race on the same drifted job stream:
//!
//! - **conformal-greedy** — risk argmin over the conformal upper edge,
//!   including the predicted interference delta induced on residents;
//! - **point-greedy** — the same risk structure read at the point estimate;
//! - **least-loaded** / **random** — prediction-free baselines.
//!
//! Every arm drives a live [`PitotServer`] through `ServingPredictor`: each
//! completion streams back as an observation, so the sliding calibration
//! window recalibrates mid-run and the very next placement sees the new
//! edge. The stream runs `DRIFT_LOG` (0.3) nats slower than the data the
//! model trained on (the PR 4 drift scenario) — exactly the regime where a
//! frozen point estimate lies and a recalibrating bound does not.
//!
//! Expected shape: conformal-greedy attains the most deadlines (the edge
//! absorbs drift that the point estimate silently eats), point-greedy sits
//! between it and the prediction-free baselines, and prequential coverage
//! recovers to ≈ 1−ε within a few segments as drifted scores displace the
//! warm calibration seed.
//!
//! Coverage is judged in *completion* order (that is when the runtime is
//! revealed), which puts a known artifact at each end of the trajectory:
//! the first segments show the genuine drift dip while the window turns
//! over, and the final segment is the backlog drain, whose completions are
//! selected for being the slowest stragglers — an order-statistic bias that
//! depresses measured coverage for every policy equally. The headline
//! coverage claim is therefore pinned on the adapted steady-state segments
//! between the two.

use crate::harness::Harness;
use crate::report::{Figure, Point, Series};
use crate::serving::{segment_coverage, DRIFT_LOG, SEGMENTS};
use pitot::{Objective, PitotConfig};
use pitot_orchestrator::{BaselinePolicy, ClusterSim, JobStream, PlacementPolicy};
use pitot_sched::{ConformalGreedy, PointGreedy};
use pitot_serve::{Event, PitotServer, ServeConfig, ServingPredictor};
use std::cell::RefCell;
use std::rc::Rc;

/// Jobs per simulation at each harness scale (mirrors `ext-orchestration`).
fn stream_len(h: &Harness) -> usize {
    match h.scale {
        crate::harness::Scale::Fast => 400,
        crate::harness::Scale::Full => 2000,
    }
}

/// The four policy arms, in report order.
const ARMS: [&str; 4] = ["conformal-greedy", "point-greedy", "least-loaded", "random"];

/// Builds the policy for one arm. Fresh per replicate so randomized
/// policies re-seed deterministically.
fn policy_for(arm: usize, rep: usize) -> Box<dyn PlacementPolicy> {
    match arm {
        0 => Box::new(ConformalGreedy::new()),
        1 => Box::new(PointGreedy::new()),
        2 => Box::new(BaselinePolicy::least_loaded()),
        _ => Box::new(BaselinePolicy::random(0xC0FF_EE00 ^ rep as u64)),
    }
}

/// Per-arm accumulators across replicates.
struct ArmAgg {
    slo: Vec<f32>,
    makespan: Vec<f32>,
    response: Vec<f32>,
    cov: Vec<Vec<f32>>,
}

/// Extension figure: closed-loop makespan, SLO attainment, and prequential
/// interval coverage per placement policy under runtime drift, at ε = 0.1.
pub fn ext_sched(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "ext-sched",
        "Conformal risk-minimizing placement under drift (extension)",
    );
    let eps = 0.1f32;
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    };
    let n_jobs = stream_len(h);
    let interarrival = 0.02;

    // The same dozen-platform edge site as ext-orchestration: small enough
    // that co-location pressure makes the interference delta term matter.
    let n_platforms = h.testbed.platforms().len();
    let site: Vec<usize> = (0..n_platforms).step_by(n_platforms.div_ceil(12)).collect();

    let mut agg: Vec<ArmAgg> = ARMS
        .iter()
        .map(|_| ArmAgg {
            slo: Vec::new(),
            makespan: Vec::new(),
            response: Vec::new(),
            cov: vec![Vec::new(); SEGMENTS],
        })
        .collect();

    for rep in 0..h.replicates {
        let split = h.split(0.5, rep);
        let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
        let jobs = JobStream::generate_with_deadlines(
            &h.testbed,
            n_jobs,
            interarrival,
            (1.3, 3.0),
            rep as u64,
        );

        for arm in 0..ARMS.len() {
            // A fresh server per arm: each policy earns its own calibration
            // trajectory (placements decide which cells get observed). The
            // stream is short (one observation per job), so the window must
            // be small enough to fully turn over to drifted scores mid-run;
            // one global pool keeps every quantile well-sampled.
            let mut serve_cfg = ServeConfig::at(eps);
            serve_cfg.window = 128;
            serve_cfg.pool_by_arity = false;
            let mut server = PitotServer::new(trained.clone(), h.dataset.clone(), serve_cfg);
            server.seed_calibration(&split.val);
            let server = Rc::new(RefCell::new(server));
            let predictor = ServingPredictor::new(Rc::clone(&server));
            let mut policy = policy_for(arm, rep);

            let mut covered: Vec<bool> = Vec::with_capacity(n_jobs);
            let report = ClusterSim::new(&h.testbed)
                .restrict_to(&site)
                // The whole stream runs e^DRIFT_LOG slower than the
                // training data — the sustained-co-location slowdown of
                // the serving experiments, now inside the placement loop.
                .with_work_scale(f64::from(DRIFT_LOG).exp())
                .run_with_observer(&jobs, policy.as_mut(), &predictor, &mut |obs, now| {
                    let mut srv = server.borrow_mut();
                    let at = now.max(srv.now_s());
                    let fb = srv
                        .on_event(at, Event::Observe(obs))
                        .observed
                        .expect("observation feedback");
                    covered.push(fb.covered);
                });

            let a = &mut agg[arm];
            a.slo.push(1.0 - report.violation_rate() as f32);
            a.makespan.push(report.makespan_s as f32);
            a.response.push(report.mean_response_s as f32);
            for (s, cov) in segment_coverage(&covered).into_iter().enumerate() {
                a.cov[s].push(cov);
            }
        }
    }

    for (arm, a) in agg.into_iter().enumerate() {
        let label = ARMS[arm];
        for (metric, values) in [
            ("SLO attainment", a.slo),
            ("makespan (s)", a.makespan),
            ("mean response (s)", a.response),
        ] {
            fig.series.push(Series {
                label: label.into(),
                panel: "policies".into(),
                metric: metric.into(),
                points: vec![Point::from_replicates(0.0, values)],
            });
        }
        fig.series.push(Series {
            label: label.into(),
            panel: format!("prequential coverage (ε={eps})"),
            metric: "empirical coverage".into(),
            points: a
                .cov
                .into_iter()
                .enumerate()
                .map(|(s, values)| Point::from_replicates(s as f32, values))
                .collect(),
        });
    }

    fig.notes.push(format!(
        "{n_jobs} jobs, mean inter-arrival {interarrival}s, deadlines 1.3–3.0× median, \
         site of {} platforms, runtimes drifted by e^{DRIFT_LOG}",
        site.len()
    ));
    fig.notes.push(
        "each arm drives a live PitotServer: completions recalibrate the sliding window \
         mid-run, so later placements see drift-adjusted bounds"
            .into(),
    );
    fig.notes.push(
        "coverage is judged in completion order: early segments show the drift-adaptation \
         dip, and the final segment is the backlog drain (completion order selects the \
         slowest stragglers, depressing measured coverage for every policy equally); the \
         adapted steady state is the middle segments"
            .into(),
    );
    fig.notes.push(format!("nominal coverage: {}", 1.0 - eps));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn conformal_placement_beats_prediction_free_baselines() {
        let h = Harness::new(Scale::Fast);
        let fig = ext_sched(&h);
        let metric = |label: &str, metric: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label && s.metric == metric)
                .unwrap_or_else(|| panic!("{label}/{metric} missing"))
                .points[0]
                .mean
        };
        let slo_conformal = metric("conformal-greedy", "SLO attainment");
        let slo_random = metric("random", "SLO attainment");
        let slo_least = metric("least-loaded", "SLO attainment");

        // Headline: scheduling on the calibrated edge attains more
        // deadlines than prediction-free placement under drift.
        assert!(
            slo_conformal > slo_random,
            "conformal-greedy SLO {slo_conformal} should beat random {slo_random}"
        );
        assert!(
            slo_conformal > slo_least,
            "conformal-greedy SLO {slo_conformal} should beat least-loaded {slo_least}"
        );

        // The served intervals stay honest while driving placement: once
        // the sliding window has turned over to drifted scores, coverage is
        // back at nominal. The steady state is the middle segments — the
        // first segments are the genuine drift dip, and the last segment is
        // the backlog drain, where completion order selects the slowest
        // stragglers (an order-statistic artifact hitting every policy
        // equally; see the figure notes).
        let cov_points = &fig
            .series
            .iter()
            .find(|s| s.label == "conformal-greedy" && s.metric == "empirical coverage")
            .expect("coverage series present")
            .points;
        let steady = &cov_points[2..SEGMENTS - 1];
        let steady_cov = steady.iter().map(|p| p.mean).sum::<f32>() / steady.len() as f32;
        assert!(
            steady_cov >= 0.88,
            "steady-state coverage {steady_cov} below 0.88 at ε=0.1"
        );
    }
}
