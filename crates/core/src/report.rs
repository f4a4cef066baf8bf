//! Report emitters: markdown tables and CSV.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// A simple rectangular table with named columns.
///
/// # Examples
///
/// ```
/// use jetsim::report::Table;
///
/// let mut table = Table::new(["precision", "throughput"]);
/// table.row(["int8", "396.7"]);
/// table.row(["fp16", "260.0"]);
/// assert!(table.to_markdown().contains("| int8 | 396.7 |"));
/// assert_eq!(table.to_csv().lines().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders CSV (values containing commas or quotes are quoted).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

/// Formats a float with sensible precision for tables (3 significant
/// decimals below 10, 1 decimal above).
pub fn fmt_num(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_structure() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(["x"]);
        t.row(["a,b"]);
        t.row(["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn save_and_read_back() {
        let dir = std::env::temp_dir().join("jetsim_report_test");
        let path = dir.join("t.csv");
        let mut t = Table::new(["h"]);
        t.row(["v"]);
        t.save_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "h\nv\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fmt_num_scales() {
        assert_eq!(fmt_num(1234.5), "1234");
        assert_eq!(fmt_num(42.34), "42.3");
        assert_eq!(fmt_num(3.17159), "3.17");
    }

    #[test]
    fn empty_table() {
        let t = Table::new(["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(format!("{t}"), t.to_markdown());
    }
}
