//! The result line and the informational lines before it.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(key, JSON value)` facts printed as `# key value` lines.
    pub info: Vec<(String, String)>,
    /// Traced runs: per thread, summed span self time and the traced wall
    /// time measured apart from the spans (seconds).
    pub self_time: Vec<(String, f64, f64)>,
}

/// A finite number as JSON (non-finite values are a bug in the caller).
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// A string as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A flat JSON object from `(key, JSON value)` pairs.
pub fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Report {
    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    format!(
                        "{{\"value\": {}, \"unit\": {}}}",
                        num(m.value),
                        string(m.unit)
                    ),
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            object(&metrics)
        )
    }
}
