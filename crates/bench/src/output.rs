//! Report formatting and CSV output for the experiment harness.

use std::fs;
use std::path::{Path, PathBuf};

/// Where experiment artifacts are written.
#[derive(Debug, Clone)]
pub struct OutputDir {
    root: PathBuf,
}

impl OutputDir {
    /// Creates (if needed) and wraps an output directory.
    pub fn new(root: impl AsRef<Path>) -> std::io::Result<OutputDir> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(OutputDir { root })
    }

    /// Writes a CSV file: the comma-separated `header` line, then one
    /// line per comma-separated row.
    pub fn write_csv(
        &self,
        name: &str,
        header: &str,
        rows: impl IntoIterator<Item = String>,
    ) -> std::io::Result<()> {
        let mut text = format!("{header}\n");
        for row in rows {
            text.push_str(&row);
            text.push('\n');
        }
        fs::write(self.root.join(name), text)
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }
}

/// A fixed-width text table that prints like the paper's tables.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: ToString>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
        self
    }

    /// Renders with per-column widths.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats an `f64` compactly for tables.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["term", "pages"]);
        t.row(vec!["stockmarket".into(), "1".into()]);
        t.row(vec!["x".into(), "114".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].contains("term"));
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join("buffir-output-test");
        let out = OutputDir::new(&dir).unwrap();
        out.write_csv("t.csv", "a,b", ["1,2".to_string()]).unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.123456), "0.123");
        assert_eq!(fnum(12.34), "12.3");
        // {:.0} rounds half-to-even.
        assert_eq!(fnum(1234.5), "1234");
        assert_eq!(fnum(1234.6), "1235");
    }
}
