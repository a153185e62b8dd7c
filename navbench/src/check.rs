//! Per-operation correctness checks. Every navigation, event and oracle
//! comparison is one attempted operation; any violated expectation makes it
//! a failed one.

use escudo_apps::{Expectation, Verdict};
use escudo_browser::{Page, PolicyMode};

/// Failure descriptions kept for the report (the count is always exact).
const KEPT_FAILURES: usize = 8;

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that violated at least one expectation.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `problem` is `None` when every check held.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(problem);
            }
        }
    }

    /// Adds another tally (a second client thread's).
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for failure in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(failure);
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Collects the problems of one operation.
#[derive(Debug, Default)]
pub struct Problems(Vec<String>);

impl Problems {
    /// Notes `what` unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// `None` when every requirement held, else the joined descriptions.
    #[must_use]
    pub fn into_problem(self, operation: &str) -> Option<String> {
        (!self.0.is_empty()).then(|| format!("{operation}: {}", self.0.join("; ")))
    }
}

/// The outermost ring the workloads' own application scripts run in; any
/// script there must succeed in both modes.
const APP_RING: u16 = 1;

/// Checks the parts every loaded page must satisfy: the expected document
/// came back (its marker element is present, which an error page lacks),
/// every application script at or inside [`APP_RING`] succeeded, and every
/// subresource fetch completed with a 2xx status.
pub fn check_page(problems: &mut Problems, page: &Page, marker_id: &str) {
    problems.require(page.document.get_element_by_id(marker_id).is_some(), || {
        format!("{}: marker #{marker_id} missing", page.url)
    });
    for outcome in &page.script_outcomes {
        if outcome.ring.level() <= APP_RING {
            problems.require(outcome.succeeded(), || {
                format!(
                    "{}: app script in {} failed: {:?}",
                    page.url, outcome.ring, outcome.result
                )
            });
        }
    }
    for sub in &page.subresources {
        problems.require(sub.succeeded(), || {
            format!(
                "{}: subresource {} -> {:?} {:?}",
                page.url, sub.url, sub.status, sub.error
            )
        });
    }
}

/// Checks an observed verdict against its declared per-mode expectation.
pub fn check_verdict(
    problems: &mut Problems,
    expectation: Expectation,
    mode: PolicyMode,
    succeeded: bool,
    what: &str,
) {
    let expected = expectation.expected(mode);
    let observed = Verdict::from_success(succeeded);
    problems.require(observed == expected, || {
        format!("{what} under {mode:?}: expected {expected}, observed {observed}")
    });
}
