//! What one child process reports to its parent: one JSON line on stdout.

use crate::json::Value;

/// One line of the span table: a kind's calls and corrected self time.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRow {
    pub name: String,
    pub layer: String,
    pub count: u64,
    pub self_ms: f64,
    /// Share of the traced region's attributed time (0 for spans outside it).
    pub share: f64,
}

/// What a traced child adds to its result.
#[derive(Clone, Debug, PartialEq)]
pub struct TracedPart {
    /// Every per-layer metric by name.
    pub layers: Vec<(String, f64)>,
    pub spans: Vec<SpanRow>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct ChildResult {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Simulated requests in the timed region.
    pub requests: u64,
    /// Refused allocations, uncovered machines' requests, panicked tasks.
    pub failed: u64,
    pub peak_rss_mb: f64,
    pub sim_digest: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    pub traced: Option<TracedPart>,
}

impl ChildResult {
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("setup_s".to_string(), Value::Num(self.setup_s)),
            ("timed_s".to_string(), Value::Num(self.timed_s)),
            ("requests".to_string(), Value::Num(self.requests as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("peak_rss_mb".to_string(), Value::Num(self.peak_rss_mb)),
            // A u64 does not fit a JSON number.
            (
                "sim_digest".to_string(),
                Value::str(format!("{:016x}", self.sim_digest)),
            ),
            (
                "problems".to_string(),
                Value::Arr(self.problems.iter().map(Value::str).collect()),
            ),
        ];
        if let Some(t) = &self.traced {
            let layers = t.layers.iter().map(|(k, v)| (k.clone(), Value::Num(*v)));
            pairs.push(("layers".to_string(), Value::Obj(layers.collect())));
            pairs.push(("spans".to_string(), spans_json(&t.spans)));
        }
        Value::Obj(pairs)
    }

    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<ChildResult, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("child result lacks number `{k}`"))
        };
        let traced = match v.get("layers").and_then(Value::as_obj) {
            None => None,
            Some(layers) => Some(TracedPart {
                layers: layers
                    .iter()
                    .map(|(k, v)| match v.as_f64() {
                        Some(v) => Ok((k.clone(), v)),
                        None => Err(format!("layer metric `{k}` is not a number")),
                    })
                    .collect::<Result<_, String>>()?,
                spans: v
                    .get("spans")
                    .and_then(Value::as_arr)
                    .ok_or("child result lacks `spans`")?
                    .iter()
                    .map(span_row)
                    .collect::<Result<_, String>>()?,
            }),
        };
        Ok(ChildResult {
            setup_s: num("setup_s")?,
            timed_s: num("timed_s")?,
            requests: num("requests")? as u64,
            failed: num("failed")? as u64,
            peak_rss_mb: num("peak_rss_mb")?,
            sim_digest: v
                .get("sim_digest")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("child result lacks hex `sim_digest`")?,
            problems: v
                .get("problems")
                .and_then(Value::as_arr)
                .ok_or("child result lacks `problems`")?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            traced,
        })
    }
}

fn span_row(v: &Value) -> Result<SpanRow, String> {
    let text = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let num = |k: &str| v.get(k).and_then(Value::as_f64);
    (|| {
        Some(SpanRow {
            name: text("name")?,
            layer: text("layer")?,
            count: num("count")? as u64,
            self_ms: num("self_ms")?,
            share: num("share")?,
        })
    })()
    .ok_or_else(|| format!("malformed span row {}", v.render()))
}

pub fn spans_json(rows: &[SpanRow]) -> Value {
    let row = |r: &SpanRow| {
        Value::obj([
            ("name", Value::str(&r.name)),
            ("layer", Value::str(&r.layer)),
            ("count", Value::Num(r.count as f64)),
            ("self_ms", Value::Num(r.self_ms)),
            ("share", Value::Num(r.share)),
        ])
    };
    Value::Arr(rows.iter().map(row).collect())
}
