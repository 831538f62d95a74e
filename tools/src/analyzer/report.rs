//! Findings and the machine-readable `analysis.json` writer.
//!
//! The JSON is hand-rolled (the workspace is hermetic — no serde) and
//! deterministic by construction: findings arrive pre-sorted from the rule
//! engine, per-rule counts live in a `BTreeMap`, and paths are
//! repo-relative with forward slashes. Two runs over the same tree must be
//! byte-identical; a regression test holds us to that.

use std::collections::BTreeMap;

/// One finding: a rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name, e.g. `"concurrency-readiness"`.
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
    /// The trimmed source line the finding sits on.
    pub excerpt: String,
}

/// A complete analyzer run.
#[derive(Debug)]
pub struct Analysis {
    /// How many files were lexed and modelled.
    pub files_scanned: usize,
    /// Unsuppressed findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// Per-rule finding counts over all eleven rules (zeros included), sorted
    /// by rule name.
    pub fn rule_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for r in super::rules::ALL_RULES {
            counts.insert(r.name(), 0);
        }
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Serializes the run as `analysis.json`. Deterministic: no maps with
    /// randomized order, no timestamps, no absolute paths.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096 + self.findings.len() * 256);
        s.push_str("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"total_findings\": {},\n", self.findings.len()));
        s.push_str("  \"rule_counts\": {\n");
        let counts = self.rule_counts();
        for (i, (rule, n)) in counts.iter().enumerate() {
            let comma = if i + 1 < counts.len() { "," } else { "" };
            s.push_str(&format!("    \"{rule}\": {n}{comma}\n"));
        }
        s.push_str("  },\n");
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            s.push_str("\n    {");
            s.push_str(&format!("\"rule\": \"{}\", ", esc(f.rule)));
            s.push_str(&format!("\"file\": \"{}\", ", esc(&f.file)));
            s.push_str(&format!("\"line\": {}, ", f.line));
            s.push_str(&format!("\"col\": {}, ", f.col));
            s.push_str(&format!("\"message\": \"{}\", ", esc(&f.message)));
            s.push_str(&format!("\"excerpt\": \"{}\"", esc(f.excerpt.trim())));
            s.push_str(&format!("}}{comma}"));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// JSON string escaping for the characters that can occur in Rust source
/// excerpts and messages.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_counts_cover_all_rules_with_zeros() {
        let a = Analysis {
            files_scanned: 0,
            findings: vec![],
        };
        assert_eq!(a.rule_counts().len(), 11);
        assert!(a.rule_counts().values().all(|&n| n == 0));
    }

    #[test]
    fn escaping_handles_quotes_and_backslashes() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
