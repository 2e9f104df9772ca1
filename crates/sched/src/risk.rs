//! Conformal risk scoring for placement decisions.
//!
//! The score of placing a job on a candidate platform has two parts:
//!
//! 1. **own risk** — the predicted runtime of the job itself, given the
//!    platform's *current co-location set* (the set the prediction model
//!    was trained to condition on);
//! 2. **induced risk** — the interference *delta* the placement inflicts on
//!    jobs already running there: for each resident, the predicted runtime
//!    with the new job added minus without it, scaled by the resident's
//!    remaining-work fraction (a job about to finish barely suffers; a job
//!    that just started absorbs the full slowdown).
//!
//! Both parts are read from the same [`RuntimePredictor`] in one batched
//! call per decision — which edge of its predictive distribution they read
//! is the [`Signal`]: the conformal **upper edge** is the calibrated worst
//! case the paper argues is the actionable quantity, while the **point**
//! prediction is the ablation that shows what the interval edge buys.

use pitot_orchestrator::{ClusterView, Job, QueryBatch, RuntimePredictor};
use std::iter::once;

/// Which edge of the predictive distribution drives the risk score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// The conformal upper edge ([`RuntimePredictor::bound_s`]): at
    /// miscoverage ε, the realized runtime exceeds it with probability
    /// ≲ ε, so minimizing it minimizes a calibrated worst case.
    UpperEdge,
    /// The point prediction ([`RuntimePredictor::predict_s`]): optimal if
    /// predictions were exact, blind to their uncertainty.
    Point,
}

/// The risk-minimizing candidate among the view's platforms with a free
/// slot, answered by its catalog index ([`PlatformLoad::platform`]), or
/// `None` when every platform is full. Candidates are scanned in view
/// order and only a strictly smaller risk displaces the incumbent, so ties
/// break to the first entry: the lowest platform index of a view in
/// ascending catalog order, as the simulator builds it. The decision is a
/// pure function of the view — no RNG, no iteration-order sensitivity.
///
/// A candidate's risk under `signal` is the job's own predicted runtime
/// next to the platform's residents, plus the interference delta the
/// placement induces on them: for each resident, its runtime with the new
/// job minus without it, scaled by its remaining-work fraction and clamped
/// at zero (a placement is never credited for *speeding up* a resident,
/// which only a miscalibrated predictor would claim). Seconds of resident
/// slowdown trade one-for-one against seconds of the job's own runtime.
///
/// Every row the decision needs goes into `rows` first, in scan order, on
/// the candidate's platform: per candidate, the job's own row, then each
/// resident's row without and with the newcomer. That pass is the one walk
/// over the view: it records each candidate's position in the view in
/// `candidates`, in ascending order. One batched read fills `reads`, and
/// the risks are folded from it over `candidates`. All three buffers are
/// the caller's, so a policy that keeps them allocates nothing per decision
/// once they have grown. No read is made when every platform is full.
///
/// # Panics
///
/// Panics if the predictor answers a different number of rows than asked.
///
/// [`PlatformLoad::platform`]: pitot_orchestrator::PlatformLoad::platform
pub fn risk_argmin(
    job: &Job,
    view: &ClusterView,
    predictor: &dyn RuntimePredictor,
    signal: Signal,
    rows: &mut QueryBatch,
    reads: &mut Vec<f64>,
    candidates: &mut Vec<usize>,
) -> Option<usize> {
    rows.clear();
    candidates.clear();
    for (entry, load) in view.platforms.iter().enumerate() {
        if load.free_slots == 0 {
            continue;
        }
        candidates.push(entry);
        let p = load.platform;
        rows.push(job.workload, p, load.running.iter().copied());
        // The resident's interferer set after the placement is everyone on
        // the platform except itself, plus the new job; before, just
        // everyone except itself. The difference isolates the new job's
        // contribution through the model's interference dot-product path.
        for (slot, &resident) in load.running.iter().enumerate() {
            let others = load
                .running
                .iter()
                .enumerate()
                .filter(move |&(s, _)| s != slot)
                .map(|(_, &w)| w);
            rows.push(resident, p, others.clone());
            rows.push(resident, p, others.chain(once(job.workload)));
        }
    }
    if rows.is_empty() {
        return None;
    }
    match signal {
        Signal::UpperEdge => predictor.bound_batch_s(rows, reads),
        Signal::Point => predictor.predict_batch_s(rows, reads),
    }
    assert_eq!(
        reads.len(),
        rows.len(),
        "{} answered {} of {} rows",
        predictor.name(),
        reads.len(),
        rows.len()
    );

    let mut next = reads.iter().copied();
    let mut read = || next.next().expect("one read per row");
    let mut best: Option<(f64, usize)> = None;
    for &entry in candidates.iter() {
        let load = &view.platforms[entry];
        let own = read();
        let mut induced = 0.0f64;
        for frac in &load.remaining_frac[..load.running.len()] {
            let before = read();
            let after = read();
            induced += ((after - before) * frac).max(0.0);
        }
        let risk = own + induced;
        if best.is_none_or(|(b, _)| risk.total_cmp(&b).is_lt()) {
            best = Some((risk, load.platform));
        }
    }
    best.map(|(_, p)| p)
}
