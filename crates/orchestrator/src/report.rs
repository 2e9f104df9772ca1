//! Simulation outcome aggregation.

use crate::job::Job;
use serde::{Deserialize, Serialize};

/// Outcome of one completed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The submitted job.
    pub job: Job,
    /// Platform it ran on.
    pub platform: usize,
    /// Absolute completion time.
    pub completed_s: f64,
    /// Completion minus arrival.
    pub response_s: f64,
    /// Whether the deadline was missed.
    pub violated: bool,
}

impl JobOutcome {
    /// Builds an outcome from the completion time.
    pub fn new(job: Job, platform: usize, completed_s: f64) -> Self {
        let response_s = completed_s - job.arrival_s;
        let violated = completed_s > job.due_s() + 1e-9;
        Self {
            job,
            platform,
            completed_s,
            response_s,
            violated,
        }
    }

    /// Slack at completion (positive = finished early).
    pub fn slack_s(&self) -> f64 {
        self.job.due_s() - self.completed_s
    }
}

/// Aggregate metrics for one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Number of jobs that completed.
    pub completed: usize,
    /// Number of deadline violations.
    pub violations: usize,
    /// Mean response time (completion − arrival) in seconds.
    pub mean_response_s: f64,
    /// 99th-percentile response time in seconds.
    pub p99_response_s: f64,
    /// Mean completion slack in seconds (positive = early).
    pub mean_slack_s: f64,
    /// Busy-platform-time over total platform-time: makespan × the
    /// platforms the run could place on (its site, for a
    /// [`crate::ClusterSim::restrict_to`] run).
    pub utilization: f64,
    /// Time of the last completion.
    pub makespan_s: f64,
    /// Completed jobs per second of makespan.
    pub throughput: f64,
    /// Jobs killed and re-queued by a site failure
    /// ([`crate::ClusterSim::with_site_faults`]); zero in fault-free runs.
    #[serde(default)]
    pub preemptions: usize,
    /// Per-job outcomes (arrival order not guaranteed).
    pub outcomes: Vec<JobOutcome>,
}

impl SimReport {
    /// Aggregates per-job outcomes into a report; `n_platforms` counts the
    /// platforms that could hold a job.
    pub fn from_outcomes(
        outcomes: Vec<JobOutcome>,
        makespan_s: f64,
        busy_platform_time: f64,
        n_platforms: usize,
    ) -> Self {
        let completed = outcomes.len();
        let violations = outcomes.iter().filter(|o| o.violated).count();
        let mean = |f: &dyn Fn(&JobOutcome) -> f64| {
            if completed == 0 {
                0.0
            } else {
                outcomes.iter().map(f).sum::<f64>() / completed as f64
            }
        };
        let mean_response_s = mean(&|o| o.response_s);
        let mean_slack_s = mean(&|o| o.slack_s());
        let mut responses: Vec<f64> = outcomes.iter().map(|o| o.response_s).collect();
        responses.sort_by(f64::total_cmp);
        let p99_response_s = if responses.is_empty() {
            0.0
        } else {
            responses
                [((responses.len() as f64 * 0.99).ceil() as usize).clamp(1, responses.len()) - 1]
        };
        let platform_time = makespan_s * n_platforms as f64;
        Self {
            completed,
            violations,
            mean_response_s,
            p99_response_s,
            mean_slack_s,
            utilization: if platform_time > 0.0 {
                busy_platform_time / platform_time
            } else {
                0.0
            },
            makespan_s,
            throughput: if makespan_s > 0.0 {
                completed as f64 / makespan_s
            } else {
                0.0
            },
            preemptions: 0,
            outcomes,
        }
    }

    /// Fraction of completed jobs that missed their deadline.
    pub fn violation_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.violations as f64 / self.completed as f64
        }
    }
}

/// Named simulation results, for experiment tables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PolicyComparison {
    rows: Vec<(String, SimReport)>,
}

impl PolicyComparison {
    /// Empty comparison.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named run.
    pub fn push(&mut self, label: impl Into<String>, report: SimReport) {
        self.rows.push((label.into(), report));
    }

    /// The collected rows.
    pub fn rows(&self) -> &[(String, SimReport)] {
        &self.rows
    }

    /// Renders a fixed-width comparison table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>9} {:>10} {:>12} {:>12} {:>8}\n",
            "policy/predictor", "completed", "violations", "viol. rate", "mean resp", "util"
        );
        for (label, r) in &self.rows {
            out.push_str(&format!(
                "{:<34} {:>9} {:>10} {:>11.1}% {:>11.2}s {:>7.1}%\n",
                label,
                r.completed,
                r.violations,
                100.0 * r.violation_rate(),
                r.mean_response_s,
                100.0 * r.utilization,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: usize, arrival: f64, deadline: f64, completed: f64) -> JobOutcome {
        JobOutcome::new(
            Job {
                id,
                workload: 0,
                arrival_s: arrival,
                deadline_s: deadline,
            },
            0,
            completed,
        )
    }

    #[test]
    fn violations_counted_exactly() {
        let outcomes = vec![
            outcome(0, 0.0, 1.0, 0.5),  // ok
            outcome(1, 0.0, 1.0, 1.5),  // violated
            outcome(2, 1.0, 2.0, 2.9),  // ok (due at 3.0)
            outcome(3, 1.0, 0.5, 10.0), // violated
        ];
        let r = SimReport::from_outcomes(outcomes, 10.0, 5.0, 2);
        assert_eq!(r.completed, 4);
        assert_eq!(r.violations, 2);
        assert!((r.violation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = SimReport::from_outcomes(vec![], 0.0, 0.0, 4);
        assert_eq!(r.completed, 0);
        assert_eq!(r.violation_rate(), 0.0);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.throughput, 0.0);
    }

    #[test]
    fn p99_is_near_the_max() {
        let outcomes: Vec<JobOutcome> = (0..100)
            .map(|i| outcome(i, 0.0, 1000.0, (i + 1) as f64))
            .collect();
        let r = SimReport::from_outcomes(outcomes, 100.0, 50.0, 1);
        assert!((r.p99_response_s - 99.0).abs() < 1e-9);
        assert!((r.mean_response_s - 50.5).abs() < 1e-9);
    }

    #[test]
    fn slack_sign_matches_violation() {
        let ok = outcome(0, 0.0, 2.0, 1.0);
        assert!(ok.slack_s() > 0.0 && !ok.violated);
        let late = outcome(1, 0.0, 2.0, 3.0);
        assert!(late.slack_s() < 0.0 && late.violated);
    }

    #[test]
    fn comparison_table_renders_all_rows() {
        let mut cmp = PolicyComparison::new();
        cmp.push(
            "a",
            SimReport::from_outcomes(vec![outcome(0, 0.0, 1.0, 0.5)], 1.0, 0.5, 1),
        );
        cmp.push("b", SimReport::from_outcomes(vec![], 0.0, 0.0, 1));
        let table = cmp.to_table();
        assert!(table.contains("a") && table.contains("b"));
        assert_eq!(table.lines().count(), 3);
    }
}
