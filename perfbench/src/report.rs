//! What a run reports, and the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result: the metrics of its mode (end-to-end untraced,
/// per-layer traced), the operation counts, and every failed check.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Free-form lines printed before the result (attribution tables,
    /// placement, calibration).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Report `value`, or fail the run when a percentile was refused.
    pub fn put(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        if value.is_none() {
            self.failures
                .push(format!("{name}: too few samples for the percentile"));
        }
        self.metric(name, value.unwrap_or(f64::NAN), unit);
    }

    /// Record a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
            && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// The metrics as one JSON object, name → `{"value", "unit"}`, every
/// digit kept; a value that is not finite is written as `null`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(m.name),
            json_string(m.unit)
        );
    }
    out.push('}');
    out
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("p50_us", 512.125_000_1, "us");
        o.metric("setup_s", 0.1, "s");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 512.1250001, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}"
        );
        o.check(false, || "broken".into());
        assert!(!o.correct());
    }

    #[test]
    fn non_finite_values_and_odd_strings_stay_valid_json() {
        let metrics = [Metric {
            name: "x",
            value: f64::NAN,
            unit: "1/s",
        }];
        assert_eq!(
            metrics_json(&metrics),
            "{\"x\": {\"value\": null, \"unit\": \"1/s\"}}"
        );
        assert_eq!(
            json_string("a \"b\" \\ c\n\u{1}é"),
            "\"a \\\"b\\\" \\\\ c\\n\\u0001é\""
        );
    }
}
