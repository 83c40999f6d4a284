//! Plain-text and CSV output for experiment results.
//!
//! Each binary prints the paper-style rows/series to stdout and writes a
//! CSV under `target/experiments/` for plotting.

use std::fs;
use std::path::PathBuf;

use crate::chaosfs::{atomic_write, ChaosSite};

/// Directory experiment CSVs are written to (`target/experiments`),
/// created on demand.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be
/// created — a failure here would otherwise surface only as every
/// subsequent CSV/telemetry write failing with a confusing "no such
/// directory".
pub fn experiments_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target").join("experiments");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A simple column-aligned table that can be printed and exported.
///
/// # Examples
///
/// ```
/// use accu_experiments::output::Table;
///
/// let mut t = Table::new(["Network", "Nodes"]);
/// t.row(["Facebook".to_string(), "4000".to_string()]);
/// let s = t.render();
/// assert!(s.contains("Facebook"));
/// ```
#[derive(Debug, Clone, Default)]
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

    /// Appends a row (padded/truncated to the header width).
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The table rendered as a CSV string (header line plus one line
    /// per row) — what [`Table::write_csv`] puts on disk, exposed so
    /// harnesses can compare results byte-for-byte without touching
    /// the filesystem.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_line(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&csv_line(row));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV into `target/experiments/<name>.csv` and
    /// returns the path. The file is replaced atomically (temp sibling,
    /// then rename and fsync), so a crash mid-write never leaves a torn
    /// result CSV.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = experiments_dir()?.join(format!("{name}.csv"));
        atomic_write(&path, self.to_csv_string().as_bytes(), &ChaosSite::none())?;
        Ok(path)
    }
}

fn csv_line(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Formats a float compactly for table cells.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Builds a series table: one `x` column plus one column per named
/// series, with every series sampled at the same `xs`.
///
/// # Panics
///
/// Panics if a series length differs from `xs`.
pub fn series_table(x_name: &str, xs: &[f64], series: &[(&str, Vec<f64>)]) -> Table {
    let mut headers = vec![x_name.to_string()];
    headers.extend(series.iter().map(|(n, _)| n.to_string()));
    let mut t = Table::new(headers);
    for (i, &x) in xs.iter().enumerate() {
        let mut row = vec![fnum(x)];
        for (name, ys) in series {
            assert_eq!(ys.len(), xs.len(), "series {name} length mismatch");
            row.push(fnum(ys[i]));
        }
        t.row(row);
    }
    t
}

/// Downsamples indices `0..len` to at most `max_points` evenly spaced
/// points, always keeping the last index. Used to print a 500-point
/// series as a readable table.
pub fn downsample_indices(len: usize, max_points: usize) -> Vec<usize> {
    if len == 0 || max_points == 0 {
        return Vec::new();
    }
    if len <= max_points {
        return (0..len).collect();
    }
    let step = len as f64 / max_points as f64;
    let mut idx: Vec<usize> = (0..max_points)
        .map(|i| (i as f64 * step) as usize)
        .collect();
    if *idx.last().unwrap() != len - 1 {
        idx.push(len - 1);
    }
    idx.dedup();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_padding() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(vec!["x"]); // short row padded
        t.row(vec!["yy".to_string(), "zz".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_line(&["a".into(), "b,c".into()]), "a,\"b,c\"");
        assert_eq!(csv_line(&["say \"hi\"".into()]), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_string_matches_file_format() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1".to_string(), "x,y".to_string()]);
        assert_eq!(t.to_csv_string(), "a,b\n1,\"x,y\"\n");
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.1234), "0.123");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(1234.5), "1234");
        assert_eq!(fnum(-0.5), "-0.500");
    }

    #[test]
    fn series_table_shapes() {
        let t = series_table("k", &[1.0, 2.0], &[("abm", vec![3.0, 4.0])]);
        let s = t.render();
        assert!(s.contains("abm"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_table_validates_lengths() {
        series_table("k", &[1.0, 2.0], &[("abm", vec![3.0])]);
    }

    #[test]
    fn downsampling() {
        assert_eq!(downsample_indices(5, 10), vec![0, 1, 2, 3, 4]);
        let idx = downsample_indices(500, 20);
        assert!(idx.len() <= 21);
        assert_eq!(*idx.last().unwrap(), 499);
        assert_eq!(idx[0], 0);
        assert!(downsample_indices(0, 5).is_empty());
        assert!(downsample_indices(5, 0).is_empty());
    }
}
