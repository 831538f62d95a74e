//! Plain-text table formatting for the `repro` harness output.
//!
//! Every figure/table reproduction prints its paper-vs-measured table
//! through these helpers; `crates/bench/tests/data/repro_quick.txt` pins
//! what `repro all` prints at quick scale.

/// A simple fixed-width table builder.
///
/// # Example
///
/// ```
/// use wsc_fleet::report::Table;
///
/// let mut t = Table::new(vec!["metric", "paper", "measured"]);
/// t.row(vec!["throughput %".into(), "+1.4".into(), "+1.6".into()]);
/// let s = t.render();
/// assert!(s.contains("throughput %"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&line(&self.headers));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a signed percentage with two decimals (`+1.40` / `-3.40`).
pub fn pct(v: f64) -> String {
    format!("{v:+.2}")
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer-cell".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("---"));
        // Columns align: '1' and '2' start at the same offset.
        let off1 = lines[2].find('1').expect("digit present");
        let off2 = lines[3].find('2').expect("digit present");
        assert_eq!(off1, off2);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one".into()]);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(1.4), "+1.40");
        assert_eq!(pct(-3.4), "-3.40");
    }
}
