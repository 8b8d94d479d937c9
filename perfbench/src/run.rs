//! Shared run bookkeeping: op tally, output checks, fidelity sums and the
//! per-run context every workload receives.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use reveil_defense::DefenseVerdict;
use reveil_eval::ScenarioResult;
use reveil_unlearn::UnlearnReport;

use crate::trace::Tracer;

/// What one invocation was asked to do.
pub struct Ctx {
    /// Workload seed; every spec seed derives from it.
    pub seed: u64,
    /// Target length of the timed phase.
    pub seconds: f64,
    /// Executor worker count (`REVEIL_THREADS`).
    pub workers: usize,
    /// Span recorder (disabled on untraced runs).
    pub tracer: Tracer,
}

/// Attempted and failed ops, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (error, panic, or a failed output check).
    pub failed: u64,
    /// One line per failure (printed to stderr, capped).
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one op with its check outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.fail(1, note);
        }
    }

    /// Records `n` ops that all failed for one reason (a failed batch call
    /// fails every op it carried).
    pub fn fail_all(&mut self, n: u64, note: String) {
        self.attempted += n;
        self.fail(n, note);
    }

    /// Adds `other`'s ops and notes; returns how many of them succeeded.
    pub fn absorb(&mut self, other: Tally) -> u64 {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
        other.attempted - other.failed.min(other.attempted)
    }

    /// Marks `n` already-attempted ops as failed.
    pub fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T, E: std::fmt::Display>(
    what: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("{what}: {e}")),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Err(format!("{what}: panicked: {msg}"))
        }
    }
}

/// A percentage the program reports must be finite and within [0, 100].
pub fn check_pct(what: &str, value: f32) -> Result<(), String> {
    if value.is_finite() && (0.0..=100.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{what} = {value} is not a percentage"))
    }
}

/// BA and ASR must both be percentages.
pub fn check_result(what: &str, r: &ScenarioResult) -> Result<(), String> {
    check_pct(&format!("{what} BA"), r.ba)?;
    check_pct(&format!("{what} ASR"), r.asr)
}

/// A verdict's score must be finite.
pub fn check_verdict(what: &str, v: &DefenseVerdict) -> Result<(), String> {
    if v.score.is_finite() {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} score {} is not finite",
            v.defense, v.score
        ))
    }
}

/// An unlearning report must be internally consistent.
pub fn check_report(what: &str, r: &UnlearnReport, shards: usize) -> Result<(), String> {
    if r.samples_retrained > r.samples_full_retrain {
        return Err(format!(
            "{what}: retrained {} samples, more than a full retrain ({})",
            r.samples_retrained, r.samples_full_retrain
        ));
    }
    if r.shards_affected > shards {
        return Err(format!(
            "{what}: {} shards affected of {shards}",
            r.shards_affected
        ));
    }
    Ok(())
}

/// Bitwise equality of two results (parity checks compare bits, so a
/// changed rounding is a mismatch even when the values print the same).
pub fn same_result(a: &ScenarioResult, b: &ScenarioResult) -> bool {
    a.ba.to_bits() == b.ba.to_bits() && a.asr.to_bits() == b.asr.to_bits()
}

/// Bitwise equality of two verdicts.
pub fn same_verdict(a: &DefenseVerdict, b: &DefenseVerdict) -> bool {
    a.defense == b.defense
        && a.score.to_bits() == b.score.to_bits()
        && a.threshold.to_bits() == b.threshold.to_bits()
        && a.detected == b.detected
}

/// Attack-fidelity sums over the models a workload measured.
#[derive(Debug, Default, Clone)]
pub struct Fidelity {
    /// Benign accuracy of every measured model.
    pub ba: Vec<f64>,
    /// ASR of poison-only (cr = 0) models.
    pub asr_poison: Vec<f64>,
    /// ASR of camouflaged (cr > 0) models before unlearning.
    pub asr_concealed: Vec<f64>,
    /// ASR of providers after the unlearning request.
    pub asr_restored: Vec<f64>,
    /// Per camouflaged-cell audit: whether the detector missed it.
    pub evaded: Vec<bool>,
}

impl Fidelity {
    /// Adds one monolithic model measured before unlearning.
    pub fn add_cell(&mut self, cr: f32, r: &ScenarioResult) {
        self.ba.push(f64::from(r.ba));
        if cr == 0.0 {
            self.asr_poison.push(f64::from(r.asr));
        } else {
            self.asr_concealed.push(f64::from(r.asr));
        }
    }
}

/// Everything a workload measured, turned into metrics by `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Op tally over every round (and the traced replay).
    pub tally: Tally,
    /// Ops completed per second of each untraced round's timed phase
    /// (unstolen time, see `clock`).
    pub round_rates: Vec<f64>,
    /// Unstolen time of the untraced timed phases, against `--seconds`.
    pub timed_secs: f64,
    /// Set-up time of each untraced round (unstolen time).
    pub setup_secs: Vec<f64>,
    /// Fidelity of the first round (later rounds must match it bit for bit).
    pub fidelity: Fidelity,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_batch_fails_every_op_it_carried() {
        let mut round = Tally::default();
        round.op(Ok(()));
        round.fail_all(96, "audit_all: empty evidence".to_string());
        round.op(Err("bad report".to_string()));
        let mut run = Tally::default();
        assert_eq!(run.absorb(round), 1);
        assert_eq!((run.attempted, run.failed, run.notes.len()), (98, 97, 2));
    }

    #[test]
    fn panics_and_errors_become_messages() {
        let panicked = guarded("fit", || -> Result<(), String> { panic!("loss diverged") });
        assert_eq!(panicked.unwrap_err(), "fit: panicked: loss diverged");
        let failed = guarded("craft", || Err::<(), _>("too few samples"));
        assert_eq!(failed.unwrap_err(), "craft: too few samples");
        assert_eq!(guarded("ok", || Ok::<_, String>(3)), Ok(3));
    }

    #[test]
    fn output_checks() {
        assert!(check_pct("ba", 100.0).is_ok());
        assert!(check_pct("ba", f32::NAN).is_err());
        assert!(check_pct("asr", 100.5).is_err());
        let report = UnlearnReport {
            shards_affected: 2,
            slices_retrained: 3,
            samples_retrained: 10,
            samples_full_retrain: 20,
        };
        assert!(check_report("sisa", &report, 2).is_ok());
        assert!(check_report("sisa", &report, 1).is_err());
        let over = UnlearnReport {
            samples_retrained: 21,
            ..report
        };
        assert!(check_report("sisa", &over, 2).is_err());
    }
}
