//! One benchmark run's result: operations attempted and failed, and the
//! named metrics, printed as the single JSON line that ends the output.

use std::fmt::Write as _;

/// A run's tallies and metrics, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts `attempted` operations of which `failed` failed, were
    /// refused or produced wrong output.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one failed operation with the reason, printed to stderr.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    /// Keeps a diagnostic line for stderr (the first few are printed).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a metric. A non-finite value cannot be reported and
    /// counts as a failure.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
    }

    /// Operations attempted so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether every operation succeeded and at least one ran.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Diagnostic lines kept by [`Report::note`] and [`Report::fail`].
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// A human-readable table, one metric per line.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<36} {value:>16.6} {unit}");
        }
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        out
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// Values print with every digit Rust's shortest round-trip form
    /// carries.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_full_precision() {
        let mut r = Report::default();
        r.tally(3, 0);
        r.metric("pass_s.p50", 1.0 / 3.0, "s");
        r.metric("store.records", 7.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"pass_s.p50\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}, \
             \"store.records\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let mut r = Report::default();
        assert!(!r.correct(), "a run that attempted nothing is not correct");
        r.tally(10, 0);
        assert!(r.correct());
        r.metric("ratio", f64::NAN, "ratio");
        assert!(!r.correct());
        assert_eq!((r.attempted(), r.failed()), (11, 1));
        assert!(
            !r.json().contains("\"ratio\""),
            "a non-finite value is not printed"
        );
    }
}
