//! Decision tracing: record every placement and fold it into a digest.
//!
//! The workspace invariant is that everything — training, calibration, and
//! now placement — is bitwise-deterministic across `PITOT_THREADS`. For
//! placement that claim is checked end-to-end: wrap any policy in
//! [`Traced`], run the closed loop, and compare [`Traced::digest`] values
//! between runs. CI runs the `sched` example under `PITOT_THREADS=1` and
//! the default thread count and diffs the printed digests (the thread count
//! is latched process-wide at first use, so the comparison must be
//! cross-process).

use pitot_orchestrator::{ClusterView, Job, PlacementPolicy, RuntimePredictor};

/// A policy wrapper that records `(job id, decision)` for every `place`
/// call. The wrapper is decision-transparent: it forwards to the inner
/// policy and never alters the choice.
#[derive(Debug, Clone)]
pub struct Traced<P> {
    inner: P,
    name: String,
    decisions: Vec<(usize, Option<usize>)>,
}

impl<P: PlacementPolicy> Traced<P> {
    /// Wraps `inner`, starting with an empty trace.
    pub fn new(inner: P) -> Self {
        let name = format!("traced({})", inner.name());
        Self {
            inner,
            name,
            decisions: Vec::new(),
        }
    }

    /// The recorded `(job id, chosen platform)` sequence, in call order.
    pub fn decisions(&self) -> &[(usize, Option<usize>)] {
        &self.decisions
    }

    /// FNV-1a digest of the decision sequence. Two runs that made the same
    /// placements in the same order produce the same digest, so a single
    /// `u64` printed per run suffices to compare whole closed-loop
    /// executions across processes (and thread counts).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &(id, decision) in &self.decisions {
            eat(id as u64);
            eat(decision.map_or(u64::MAX, |p| p as u64));
        }
        h
    }
}

impl<P: PlacementPolicy> PlacementPolicy for Traced<P> {
    fn place(
        &mut self,
        job: &Job,
        view: &ClusterView,
        predictor: &dyn RuntimePredictor,
    ) -> Option<usize> {
        let decision = self.inner.place(job, view, predictor);
        self.decisions.push((job.id, decision));
        decision
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitot_orchestrator::{BaselinePolicy, PlatformLoad};

    struct Flat;
    impl RuntimePredictor for Flat {
        fn predict_s(&self, _w: u32, _p: usize, _i: &[u32]) -> f64 {
            1.0
        }
        fn name(&self) -> &str {
            "flat"
        }
    }

    fn view(n: usize) -> ClusterView {
        ClusterView {
            now_s: 0.0,
            platforms: (0..n)
                .map(|platform| PlatformLoad {
                    platform,
                    running: vec![],
                    remaining_frac: vec![],
                    due_s: vec![],
                    free_slots: 1,
                })
                .collect(),
        }
    }

    fn job(id: usize) -> Job {
        Job {
            id,
            workload: 0,
            arrival_s: 0.0,
            deadline_s: 10.0,
        }
    }

    #[test]
    fn trace_records_every_decision_and_digest_is_stable() {
        let run = || {
            let mut traced = Traced::new(BaselinePolicy::least_loaded());
            for id in 0..5 {
                let _ = traced.place(&job(id), &view(3), &Flat);
            }
            (traced.decisions().to_vec(), traced.digest())
        };
        let (da, ha) = run();
        let (db, hb) = run();
        assert_eq!(da.len(), 5);
        assert_eq!(da, db);
        assert_eq!(ha, hb);
    }

    #[test]
    fn different_decisions_change_the_digest() {
        let mut a = Traced::new(BaselinePolicy::least_loaded());
        let mut b = Traced::new(BaselinePolicy::least_loaded());
        let _ = a.place(&job(0), &view(2), &Flat);
        let _ = b.place(&job(1), &view(2), &Flat);
        assert_ne!(a.digest(), b.digest());
    }
}
