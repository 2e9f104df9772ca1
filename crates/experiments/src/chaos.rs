//! Degraded-mode fleet serving under injected faults (extension).
//!
//! `ext-fleet` established that a merged-window fleet matches centralized
//! calibration when everything is healthy. This experiment asks the
//! operational question that actually decides whether the fleet is
//! deployable: **what do the bounds cost when things break?** The same
//! drift stream is replayed through a 3-replica fleet while a seeded
//! [`pitot_serve::FaultPlan`] injects a full coordinator outage with a
//! replica crash/rejoin inside it, plus lossy merge summaries throughout.
//!
//! Three arms isolate the degradation ladder:
//!
//! - **no faults** — the `ext-fleet` baseline under this stream;
//! - **chaos (gossip)** — during the outage replicas run pairwise gossip
//!   CRDT merges, so calibrations track the live union;
//! - **chaos (stale fallback)** — gossip disabled; replicas cross the
//!   staleness threshold and serve honestly *widened* local fallback
//!   bounds instead.
//!
//! Expected shape: coverage in the degraded segments stays bounded (the
//! acceptance floor is 0.80 at ε = 0.1 — gossip keeps bounds near the
//! union fit, and the widened fallback over-covers by construction) and
//! recovers to ≥ 0.88 once the faults clear and the crashed replica has
//! rejoined warm. Chaos runs are replayable: the per-arm decision digest
//! is bitwise-stable for a fixed fault seed regardless of `PITOT_THREADS`
//! (re-verified per run here, and diffed across thread counts in CI via
//! the `chaos` example).

use crate::digest::Digest;
use crate::harness::Harness;
use crate::report::{Figure, Point, Series};
use crate::serving::{weighted_stream, DRIFT_LOG, SEGMENTS, SHIFT_MIX, WARM_MIX};
use pitot::{Objective, PitotConfig};
use pitot_conformal::HeadSelection;
use pitot_serve::{
    AdmissionConfig, DeadlineQuery, FaultPlan, FleetConfig, FleetServer, ServeConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Fleet size; the fault plan crashes replica 1 of these.
const REPLICAS: usize = 3;
/// Coordinator merge cadence (fleet-wide observations).
const MERGE_EVERY: usize = 16;
/// Per-replica sliding window. Small enough that the union window has
/// fully turned over to shifted scores before the faults begin, so the
/// degraded segments measure fault effects, not drift adaptation.
const WINDOW: usize = 128;
/// Deadline multiplier range on the realized runtime (as `ext-fleet`).
const DEADLINE_MULT: (f32, f32) = (0.75, 3.0);
/// Seed of every arm's fault-plan RNG (drops, delays, retry jitter,
/// gossip pairings). CI replays the `chaos` example under different
/// `PITOT_THREADS` with this seed and diffs the decision digests.
pub const FAULT_SEED: u64 = 0xC4A0_5EED;

/// The fault schedule, scaled to an `n`-event stream: a coordinator
/// outage over `[0.45n, 0.70n)`, replica 1 crashing at `0.50n` and
/// rejoining warm at `0.65n` (inside the outage), and 10%/5% of merge
/// summaries dropped/delayed throughout.
pub fn fault_plan(n: usize, gossip: bool) -> FaultPlan {
    let mut plan = FaultPlan::none(FAULT_SEED)
        .coordinator_outage((45 * n) / 100, (70 * n) / 100)
        .crash(1, n / 2, (65 * n) / 100)
        .drop_summaries(0.10)
        .delay_summaries(0.05, 2);
    plan.gossip_during_outage = gossip;
    plan
}

/// Segment indices (of the stream's 8 equal slices) that overlap the
/// fault schedule for
/// an `n`-event stream — where coverage is allowed to degrade (bounded).
pub fn degraded_segments(n: usize) -> Vec<usize> {
    let seg = n.div_ceil(SEGMENTS).max(1);
    let (from, until) = ((45 * n) / 100, (70 * n) / 100);
    (0..SEGMENTS)
        .filter(|s| s * seg < until && (s + 1) * seg > from)
        .collect()
}

fn fleet_config(eps: f32, stale_fallback: bool) -> FleetConfig {
    let mut serve = ServeConfig::at(eps);
    serve.window = WINDOW;
    serve.pool_by_arity = false;
    serve.selection = HeadSelection::NaiveXi;
    serve.fine_tune_steps = 0;
    if stale_fallback {
        // Cross into widened local fallback after one drift_min worth of
        // un-refreshed observations (the validation floor).
        serve.staleness_threshold = serve.drift_min;
    }
    FleetConfig {
        serve,
        replicas: REPLICAS,
        merge_every: MERGE_EVERY,
        admission: AdmissionConfig::default(),
        compression: Vec::new(),
    }
}

/// One arm's outcomes over the chaos stream.
struct ArmOutcome {
    /// Per-event coverage; `None` where the observation was lost to a
    /// down replica.
    flags: Vec<Option<bool>>,
    /// FNV-1a over every admission decision, failover flag, served bound,
    /// and coverage flag — the replayability witness.
    digest: u64,
    stats: pitot_serve::FleetStats,
    audit_coverages: Vec<f32>,
}

fn run_arm(
    fleet: &mut FleetServer,
    h: &Harness,
    stream: &[usize],
    rng: &mut ChaCha8Rng,
) -> ArmOutcome {
    let mut digest = Digest::new();
    let mut flags = Vec::with_capacity(stream.len());
    for (t, &i) in stream.iter().enumerate() {
        let mut obs = h.dataset.observations[i].clone();
        obs.runtime_s *= DRIFT_LOG.exp();
        let mult = rng.gen_range(DEADLINE_MULT.0..DEADLINE_MULT.1);
        let deadline_s = f64::from(obs.runtime_s) * f64::from(mult);
        let out = fleet.deadline_query(DeadlineQuery {
            id: t as u64,
            workload: obs.workload,
            platform: obs.platform,
            interferers: obs.interferers.clone(),
            deadline_s,
        });
        digest.push(&[u8::from(out.decision.admitted()), u8::from(out.failover)]);
        digest.push(&out.prediction.bound_s.to_bits().to_le_bytes());
        fleet.resolve(t as u64, f64::from(obs.runtime_s));
        let (_, fb) = fleet.observe(t as f64, obs);
        digest.push(&[fb.as_ref().map_or(2, |f| u8::from(f.covered))]);
        flags.push(fb.map(|f| f.covered));
    }
    ArmOutcome {
        flags,
        digest: digest.value(),
        stats: fleet.stats(),
        audit_coverages: fleet
            .degraded_audit()
            .iter()
            .map(|w| w.coverage())
            .collect(),
    }
}

/// Per-segment coverage over the *judged* events (lost observations — a
/// down replica's shard — are excluded from the denominator).
fn segment_coverage_judged(flags: &[Option<bool>]) -> Vec<f32> {
    let seg = flags.len().div_ceil(SEGMENTS).max(1);
    flags
        .chunks(seg)
        .map(|c| {
            let judged: Vec<bool> = c.iter().filter_map(|&f| f).collect();
            judged.iter().filter(|&&b| b).count() as f32 / judged.len().max(1) as f32
        })
        .collect()
}

/// Extension figure: coverage over the chaos stream for a faulted fleet
/// (coordinator outage + replica crash + lossy merges) against the
/// fault-free baseline, with per-degraded-window audit coverages and the
/// replayability digests, at ε = 0.1.
pub fn ext_chaos(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "ext-chaos",
        "Fleet serving under injected faults: crash/rejoin, coordinator outage, gossip vs \
         stale fallback (extension)",
    );
    let eps = 0.1f32;
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    };
    let (warm_n, shift_n) = match h.scale {
        crate::harness::Scale::Fast => (600usize, 1600usize),
        crate::harness::Scale::Full => (1500, 4000),
    };

    struct ArmSpec {
        label: &'static str,
        faulted: bool,
        gossip: bool,
    }
    let specs = [
        ArmSpec {
            label: "no faults",
            faulted: false,
            gossip: true,
        },
        ArmSpec {
            label: "chaos (gossip)",
            faulted: true,
            gossip: true,
        },
        ArmSpec {
            label: "chaos (stale fallback)",
            faulted: true,
            gossip: false,
        },
    ];
    struct ArmAgg {
        cov: Vec<Vec<f32>>,
        audit_cov: Vec<Vec<f32>>,
        shed: Vec<f32>,
        lost: usize,
        recoveries: usize,
        gossip_rounds: usize,
        fallback_refits: usize,
    }
    let mut agg: Vec<ArmAgg> = specs
        .iter()
        .map(|_| ArmAgg {
            cov: vec![Vec::new(); SEGMENTS],
            audit_cov: Vec::new(),
            shed: Vec::new(),
            lost: 0,
            recoveries: 0,
            gossip_rounds: 0,
            fallback_refits: 0,
        })
        .collect();

    for rep in 0..h.replicates {
        let split = h.split(0.5, rep);
        let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
        let mut rng = ChaCha8Rng::seed_from_u64(0xC4A0_5000 ^ rep as u64);
        let warm = weighted_stream(&h.dataset, &split.test, &WARM_MIX, warm_n, &mut rng);
        let shifted = weighted_stream(&h.dataset, &split.test, &SHIFT_MIX, shift_n, &mut rng);

        for (a, spec) in specs.iter().enumerate() {
            let run = |arm_seed: u64| {
                let fleet_cfg = fleet_config(eps, spec.faulted && !spec.gossip);
                let mut fleet = if spec.faulted {
                    FleetServer::with_faults(
                        trained.clone(),
                        &h.dataset,
                        fleet_cfg,
                        fault_plan(shift_n, spec.gossip),
                    )
                } else {
                    FleetServer::new(trained.clone(), &h.dataset, fleet_cfg)
                };
                fleet.seed_calibration(&warm);
                let mut arm_rng = ChaCha8Rng::seed_from_u64(arm_seed);
                run_arm(&mut fleet, h, &shifted, &mut arm_rng)
            };
            let arm_seed = (0xC4A0_5D00 + a as u64) ^ (rep as u64) << 8;
            let out = run(arm_seed);
            if spec.faulted && rep == 0 {
                // Replayability: the same fault seed must reproduce the
                // decision digest bitwise (the cross-PITOT_THREADS half of
                // this property is CI's digest diff on the example).
                let replay = run(arm_seed);
                assert_eq!(
                    out.digest, replay.digest,
                    "{}: chaos replay diverged for a fixed fault seed",
                    spec.label
                );
            }
            for (s, cov) in segment_coverage_judged(&out.flags).into_iter().enumerate() {
                agg[a].cov[s].push(cov);
            }
            for (w, &c) in out.audit_coverages.iter().enumerate() {
                if agg[a].audit_cov.len() <= w {
                    agg[a].audit_cov.push(Vec::new());
                }
                if c.is_finite() {
                    agg[a].audit_cov[w].push(c);
                }
            }
            agg[a].shed.push(out.stats.admission.shed_rate());
            agg[a].lost += out.stats.lost_observations;
            agg[a].recoveries += out.stats.recoveries;
            agg[a].gossip_rounds += out.stats.gossip_rounds;
            agg[a].fallback_refits += out.stats.fallback_refits;
            fig.notes.push(format!(
                "{} rep={rep}: digest={:016x} lost={} recoveries={} gossip_rounds={} \
                 fallback_refits={} dropped={} retried={} giveups={}",
                spec.label,
                out.digest,
                out.stats.lost_observations,
                out.stats.recoveries,
                out.stats.gossip_rounds,
                out.stats.fallback_refits,
                out.stats.dropped_summaries,
                out.stats.retried_summaries,
                out.stats.merge_giveups,
            ));
        }
    }

    for (spec, arm) in specs.iter().zip(agg) {
        fig.series.push(Series {
            label: spec.label.into(),
            panel: format!("coverage over chaos stream (ε={eps})"),
            metric: "empirical coverage (judged events)".into(),
            points: arm
                .cov
                .into_iter()
                .enumerate()
                .map(|(s, values)| Point::from_replicates(s as f32, values))
                .collect(),
        });
        if !arm.audit_cov.is_empty() {
            fig.series.push(Series {
                label: spec.label.into(),
                panel: "degraded-window coverage (audit)".into(),
                metric: "coverage inside fault window".into(),
                points: arm
                    .audit_cov
                    .into_iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_empty())
                    .map(|(w, values)| Point::from_replicates(w as f32, values))
                    .collect(),
            });
        }
        fig.series.push(Series {
            label: spec.label.into(),
            panel: "shed rate (whole stream)".into(),
            metric: "fraction shed".into(),
            points: vec![Point::from_replicates(0.0, arm.shed)],
        });
    }
    fig.notes.push(format!(
        "fault schedule over the {shift_n}-event shifted stream: coordinator outage \
         [{}, {}), replica 1 crashes at {} and rejoins warm at {}, 10%/5% of merge \
         summaries dropped/delayed throughout (fault seed {FAULT_SEED:#x})",
        (45 * shift_n) / 100,
        (70 * shift_n) / 100,
        shift_n / 2,
        (65 * shift_n) / 100,
    ));
    fig.notes.push(format!(
        "degraded segments (fault overlap): {:?}; acceptance: coverage ≥ 0.80 there and \
         ≥ 0.88 in the final (post-clearance) segment at ε = {eps}",
        degraded_segments(shift_n)
    ));
    fig.notes.push(format!("nominal coverage: {}", 1.0 - eps));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn chaos_coverage_degrades_bounded_and_recovers() {
        let h = Harness::new(Scale::Fast);
        let fig = ext_chaos(&h);
        let cov_panel = format!("coverage over chaos stream (ε={})", 0.1);
        let shift_n = 1600;
        let degraded = degraded_segments(shift_n);
        assert!(!degraded.is_empty(), "fault schedule overlaps no segment");
        for label in ["chaos (gossip)", "chaos (stale fallback)"] {
            let series = fig
                .series_for(label, &cov_panel)
                .unwrap_or_else(|| panic!("{label} missing"));
            // Acceptance: coverage never drops below 0.80 in any degraded
            // segment at ε = 0.1 …
            for &s in &degraded {
                let cov = series.points[s].mean;
                assert!(
                    cov >= 0.80,
                    "{label}: degraded segment {s} coverage {cov} below 0.80"
                );
            }
            // … and recovers to ≥ 0.88 after fault clearance.
            let last = series.points.last().expect("segments present").mean;
            assert!(
                last >= 0.88,
                "{label}: post-clearance coverage {last} below 0.88"
            );
        }
        // The faulted arms actually exercised their ladder rung.
        let note = |needle: &str| {
            assert!(
                fig.notes.iter().any(|n| n.contains(needle)),
                "no note matches {needle}"
            );
        };
        note("digest=");
        let gossip_note = fig
            .notes
            .iter()
            .find(|n| n.starts_with("chaos (gossip) rep=0"))
            .expect("gossip arm note");
        assert!(
            !gossip_note.contains("gossip_rounds=0 "),
            "gossip arm never gossiped: {gossip_note}"
        );
        assert!(
            gossip_note.contains("recoveries=1"),
            "crashed replica never rejoined: {gossip_note}"
        );
        let stale_note = fig
            .notes
            .iter()
            .find(|n| n.starts_with("chaos (stale fallback) rep=0"))
            .expect("stale arm note");
        assert!(
            !stale_note.contains("fallback_refits=0 "),
            "stale arm never fell back: {stale_note}"
        );
    }

    #[test]
    fn degraded_segment_map_matches_schedule() {
        // 8 segments of 200 over 1600 events; faults span [720, 1120).
        assert_eq!(degraded_segments(1600), vec![3, 4, 5]);
        // The final segment is always clean — recovery is measurable.
        assert!(!degraded_segments(1600).contains(&(SEGMENTS - 1)));
    }
}
