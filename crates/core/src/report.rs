//! Plain-text table rendering for experiment reports.
//!
//! `gsim repro` prints each of the paper's tables and figures as a
//! fixed-width text table built with [`TextTable`].

use std::fmt::Write as _;

/// A simple fixed-width text table: set a header, push rows, render.
///
/// # Example
///
/// ```
/// use gsim_core::report::TextTable;
///
/// let mut t = TextTable::new(vec!["bench", "error (%)"]);
/// t.row(vec!["dct".into(), "4.2".into()]);
/// let s = t.render();
/// assert!(s.contains("bench"));
/// assert!(s.contains("dct"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
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

    /// Renders the table with aligned columns and a header separator.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        let all = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                width[i] = width[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String]| {
            let mut line = String::new();
            for (i, w) in width.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:>w$}  ");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * cols.saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats an IPC value with one decimal.
pub fn ipc(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a ratio (speedups, correction factors) with two decimals.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "long-header"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // header, separator, 2 rows
        assert!(lines[1].starts_with('-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec![]);
        let s = t.render();
        assert!(s.contains('2'));
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(12.34), "12.3");
        assert_eq!(ipc(1000.06), "1000.1");
        assert_eq!(ratio(9.333), "9.33");
    }
}
