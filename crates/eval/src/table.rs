//! Plain-text table rendering for experiment reports.
//!
//! The scenario lab renders each row's `tables.md` with this, so the
//! output can be pasted straight into `EXPERIMENTS.md` next to the
//! paper's tables.

use std::fmt;

/// A simple column-aligned table with a header row.
///
/// ```
/// use fuiov_eval::table::Table;
/// let mut t = Table::new(&["method", "accuracy"]);
/// t.row(&["ours".to_string(), "0.859".to_string()]);
/// let text = t.to_string();
/// assert!(text.contains("ours"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "Table: need at least one column");
        Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "Table: cell count mismatch"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    /// Column-aligned plain text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                write!(f, "{cell:<w$}", w = w)?;
                if i + 1 < cols {
                    write!(f, "  ")?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        write_row(f, &rule)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new(&["method", "acc"]);
        t.row(&["retraining".into(), "0.873".into()]);
        t.row(&["ours".into(), "0.859".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("method"));
        assert!(lines[2].contains("retraining"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn renders_markdown() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |\n|---|---|\n| 1 | 2 |\n"));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn mismatched_row_panics() {
        Table::new(&["only"]).row(&["a".into(), "b".into()]);
    }
}
