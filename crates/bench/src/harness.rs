//! The machine-readable result writer the self-asserting benches share.

/// A flat, insertion-ordered JSON object for machine-readable benchmark
/// results (e.g. `BENCH_parallel.json`), written without any external
/// serializer. Keys render in insertion order so the output is diffable.
#[derive(Debug, Default)]
pub struct JsonReport {
    fields: Vec<(String, String)>,
}

impl JsonReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, key: &str, rendered: String) -> &mut Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds a float field (non-finite values render as `null`).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let rendered = if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        };
        self.push(key, rendered)
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.push(key, v.to_string())
    }

    /// Adds a boolean field.
    pub fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.push(key, v.to_string())
    }

    /// Adds a string field (quotes, backslashes, and control characters
    /// are escaped).
    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        let mut escaped = String::with_capacity(v.len() + 2);
        for c in v.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    escaped.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => escaped.push(c),
            }
        }
        self.push(key, format!("\"{escaped}\""))
    }

    /// Adds a float array field (curves: one value per sweep point;
    /// non-finite values render as `null`).
    pub fn num_list(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs
            .iter()
            .map(|v| {
                if v.is_finite() {
                    format!("{v:.3}")
                } else {
                    "null".to_string()
                }
            })
            .collect();
        self.push(key, format!("[{}]", items.join(", ")))
    }

    /// Adds an integer array field.
    pub fn int_list(&mut self, key: &str, vs: &[u64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(u64::to_string).collect();
        self.push(key, format!("[{}]", items.join(", ")))
    }

    /// Renders the report as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let comma = if i + 1 == self.fields.len() { "" } else { "," };
            out.push_str(&format!("  \"{k}\": {v}{comma}\n"));
        }
        out.push('}');
        out.push('\n');
        out
    }

    /// Writes the rendered report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::JsonReport;

    #[test]
    fn json_report_renders_scalars_and_lists() {
        let mut r = JsonReport::new();
        r.num("a", 1.5)
            .int("b", 2)
            .flag("c", true)
            .text("d", "x\"y")
            .num_list("curve", &[0.25, f64::NAN, 2.0])
            .int_list("counts", &[1, 2, 3]);
        let out = r.render();
        assert!(out.contains("\"a\": 1.500,"), "{out}");
        assert!(out.contains("\"curve\": [0.250, null, 2.000],"), "{out}");
        assert!(out.contains("\"counts\": [1, 2, 3]\n"), "{out}");
        assert!(out.contains("\"d\": \"x\\\"y\","), "{out}");
        // Insertion order is preserved.
        assert!(out.find("\"a\"").unwrap() < out.find("\"curve\"").unwrap());
    }
}
