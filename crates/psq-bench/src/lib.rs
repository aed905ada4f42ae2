//! Shared plumbing for the experiment binaries and Criterion benches.
//!
//! Every table and figure of the paper has a binary under `src/bin/` that
//! regenerates it (the README's "Workspace map" places this crate).  Those
//! binaries share the small reporting toolkit in this crate: an aligned
//! text [`Table`] for stdout, a serialisable [`ExperimentRecord`] for the
//! machine-readable dump the `report` binary prints, and a couple of
//! formatting helpers.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A paper-versus-measured data point emitted by an experiment binary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment identifier, e.g. `"table1/K=8/upper"` or `"figure1/stage-E"`.
    pub id: String,
    /// Human-readable description of the quantity.
    pub description: String,
    /// The value reported by the paper, if the paper states one.
    pub paper: Option<f64>,
    /// The value this reproduction measured.
    pub measured: f64,
    /// Unit or normalisation, e.g. `"coefficient of sqrt(N)"`.
    pub unit: String,
}

impl ExperimentRecord {
    /// Relative deviation from the paper value (`None` when the paper states
    /// no number for this quantity).
    pub fn relative_error(&self) -> Option<f64> {
        self.paper.map(|p| {
            if p == 0.0 {
                self.measured.abs()
            } else {
                ((self.measured - p) / p).abs()
            }
        })
    }
}

/// Serialises experiment records as pretty JSON (one array), for inclusion in
/// the repository's experiment log.
pub fn records_to_json(records: &[ExperimentRecord]) -> String {
    serde_json::to_string_pretty(records).expect("experiment records serialise")
}

/// A fixed-width text table for experiment output.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are already formatted).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
            .collect();
        let _ = writeln!(out, "| {} |", header_line.join(" | "));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", rule.join("-|-"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with `digits` decimal places.
pub fn fmt_f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats a float in scientific notation with 3 significant digits.
pub fn fmt_sci(x: f64) -> String {
    format!("{x:.3e}")
}

/// Formats `2^e` sizes compactly (`"2^20"`).
pub fn fmt_pow2(exponent: u32) -> String {
    format!("2^{exponent}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["K", "upper", "lower"]);
        t.push_row(vec!["2".into(), "0.555".into(), "0.230".into()]);
        t.push_row(vec!["32".into(), "0.725".into(), "0.647".into()]);
        let rendered = t.render();
        assert!(rendered.contains("## Demo"));
        assert!(rendered.contains("| 2 "));
        assert!(rendered.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_is_rejected() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![ExperimentRecord {
            id: "table1/K=2/upper".into(),
            description: "optimised upper-bound coefficient".into(),
            paper: Some(0.555),
            measured: 0.5554,
            unit: "coefficient of sqrt(N)".into(),
        }];
        let json = records_to_json(&records);
        let back: Vec<ExperimentRecord> = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, records);
        assert!(back[0].relative_error().expect("paper value") < 1e-2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(0.12345, 3), "0.123");
        assert_eq!(fmt_pow2(20), "2^20");
        assert!(fmt_sci(1234.5).contains('e'));
    }
}
