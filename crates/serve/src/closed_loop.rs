//! Closing the loop with the placement simulator.

use crate::server::{catalog_id, catalog_rows, Event, PitotServer};
use pitot_orchestrator::{
    ClusterSim, JobStream, PlacementPolicy, QueryBatch, RuntimePredictor, SimReport,
};
use pitot_testbed::Testbed;
use std::cell::RefCell;
use std::rc::Rc;

/// [`RuntimePredictor`] view of a shared [`PitotServer`]: placement
/// policies query the server's live model and live calibration, so every
/// refresh or fine-tune the serving loop performs changes the very next
/// placement decision.
///
/// Every read is answered by the server as it stands, with no answer
/// cached in between, so a seed, an install or a refresh shows in the very
/// next answer. A read looks its inner products up in the completed-matrix
/// tables of the server's tower cache
/// ([`pitot::TrainedPitot::lookup_log_heads_into`]): a decision's rows fall
/// on the few platforms of a site, so after the first decisions fill those
/// platforms' tables, a row is a few lookups and adds per head instead of
/// as many length-r dot products. A fine-tune installs a new cache, whose
/// tables start empty. A bound read, of one row or of a batch such as the
/// rows of one `pitot-sched` placement decision, is one prediction pass
/// over buffers the server reuses that scores only the head each row's
/// pool bound reads, bitwise equal row by row to the
/// [`crate::Prediction::bound_s`] of [`PitotServer::query_now`]. A point
/// read is the same pass scoring head 0 alone, bitwise the
/// [`crate::Prediction::point_s`] of those reads.
/// Every read counts one query per row in [`crate::ServeStats::queries`].
pub struct ServingPredictor {
    server: Rc<RefCell<PitotServer>>,
    name: String,
}

impl ServingPredictor {
    /// Wraps a shared server handle.
    pub fn new(server: Rc<RefCell<PitotServer>>) -> Self {
        Self {
            server,
            name: "pitot-serve".to_string(),
        }
    }
}

impl RuntimePredictor for ServingPredictor {
    fn predict_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        let mut point_s = f32::NAN;
        self.server.borrow_mut().lookup_points(
            [(workload, catalog_id(platform), interferers)],
            |p| {
                point_s = p;
            },
        );
        f64::from(point_s)
    }

    fn bound_s(&self, workload: u32, platform: usize, interferers: &[u32]) -> f64 {
        let mut bound_s = f32::NAN;
        self.server.borrow_mut().lookup_bounds(
            [(workload, catalog_id(platform), interferers)],
            |b| {
                bound_s = b;
            },
        );
        f64::from(bound_s)
    }

    fn predict_batch_s(&self, batch: &QueryBatch, out: &mut Vec<f64>) {
        out.clear();
        self.server
            .borrow_mut()
            .lookup_points(catalog_rows(batch), |p| out.push(f64::from(p)));
    }

    fn bound_batch_s(&self, batch: &QueryBatch, out: &mut Vec<f64>) {
        out.clear();
        self.server
            .borrow_mut()
            .lookup_bounds(catalog_rows(batch), |b| out.push(f64::from(b)));
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for ServingPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingPredictor")
            .field("name", &self.name)
            .finish()
    }
}

/// Runs the placement simulator closed-loop against a serving instance:
/// the server's calibrated bounds drive placements, and every completion
/// streams back into the server as an [`Event::Observe`] at its completion
/// time — recalibrating (and possibly fine-tuning) the predictor mid-run.
///
/// `site` optionally restricts placement to a platform subset (a realistic
/// edge site, where co-location pressure makes interference matter).
/// Returns the simulator's report; serving-side effects (coverage,
/// refreshes, fine-tunes) are on the server's [`PitotServer::stats`].
///
/// # Panics
///
/// Panics as [`ClusterSim::run`] does, or if the server handle is already
/// mutably borrowed.
pub fn run_closed_loop(
    testbed: &Testbed,
    stream: &JobStream,
    policy: &mut dyn PlacementPolicy,
    server: &Rc<RefCell<PitotServer>>,
    site: Option<&[usize]>,
) -> SimReport {
    let predictor = ServingPredictor::new(Rc::clone(server));
    let mut sim = match site {
        Some(platforms) => ClusterSim::new(testbed).restrict_to(platforms),
        None => ClusterSim::new(testbed),
    };
    sim.run_with_observer(stream, policy, &predictor, &mut |obs, now| {
        let mut server = server.borrow_mut();
        // The simulation clock starts at 0; if the server already served an
        // earlier session (warm-up queries, a previous run), keep its clock
        // monotone by clamping.
        let at = now.max(server.now_s());
        server.on_event(at, Event::Observe(obs));
    })
}
