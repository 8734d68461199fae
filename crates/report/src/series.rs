//! Numeric figure series, printable and exportable as TSV.

use std::io;
use std::path::Path;

/// A named set of columns of equal length — the data behind one figure.
///
/// ```
/// use sixgen_report::Series;
/// let mut s = Series::new("fig4", vec!["budget", "hits", "dealiased"]);
/// s.push(vec![100_000.0, 5.2e6, 4.1e4]);
/// s.push(vec![200_000.0, 9.9e6, 6.0e4]);
/// assert_eq!(s.len(), 2);
/// assert!(s.to_tsv().starts_with("budget\thits\tdealiased\n"));
/// ```
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Series {
    /// Creates an empty series with named columns.
    pub fn new(name: impl Into<String>, columns: Vec<impl Into<String>>) -> Series {
        Series {
            name: name.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// The series name (used for file naming).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column labels.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the value count differs from the column count.
    pub fn push(&mut self, row: Vec<f64>) -> &mut Self {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// One column's values by label.
    pub fn column(&self, label: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == label)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }

    /// Tab-separated export: a header line then one line per row. Numbers
    /// print in shortest-roundtrip form.
    pub fn to_tsv(&self) -> String {
        let mut out = self.columns.join("\t");
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<name>.tsv`, creating the directory if needed, and
    /// returns the path written.
    pub fn write_tsv_file(&self, dir: impl AsRef<Path>) -> io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.tsv", self.name));
        std::fs::write(&path, self.to_tsv())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_format() {
        let mut s = Series::new("test", vec!["x", "y"]);
        s.push(vec![1.0, 2.5]);
        s.push(vec![3.0, 4.0]);
        assert_eq!(s.to_tsv(), "x\ty\n1\t2.5\n3\t4\n");
        assert_eq!(s.name(), "test");
        assert_eq!(s.columns(), &["x".to_owned(), "y".to_owned()]);
        assert_eq!(s.rows().len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn column_extraction() {
        let mut s = Series::new("t", vec!["a", "b"]);
        s.push(vec![1.0, 10.0]);
        s.push(vec![2.0, 20.0]);
        assert_eq!(s.column("b"), Some(vec![10.0, 20.0]));
        assert_eq!(s.column("missing"), None);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sixgen-series-{}", std::process::id()));
        let mut s = Series::new("fig-test", vec!["x"]);
        s.push(vec![42.0]);
        let path = s.write_tsv_file(&dir).unwrap();
        assert!(path.ends_with("fig-test.tsv"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n42\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_rejected() {
        Series::new("t", vec!["a", "b"]).push(vec![1.0]);
    }
}
