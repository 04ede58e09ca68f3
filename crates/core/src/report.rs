//! Plain-text table rendering for the benchmark binaries, and the timing
//! columns every tuning result line starts with.

use std::fmt;

use crate::pipeline::TunedWorkload;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

/// Formats a float with sensible precision for tables.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats seconds the way the paper's search column does (e.g. `324.8s`).
pub fn fmt_secs(v: f64) -> String {
    format!("{v:.1}s")
}

/// The timing columns of a tuned result: architecture, device time,
/// device GFlop/s and GFlop/s with transfers. `tune`, `replay` and the
/// daemon each append their own tail, so a replayed plan prints the same
/// columns as the search that produced it.
pub fn fmt_timing(tuned: &TunedWorkload) -> String {
    format!(
        "{:12} {:>10} us device  {:>8} GF device  {:>8} GF w/transfers",
        tuned.arch_name,
        fmt_f(tuned.gpu_seconds * 1e6),
        fmt_f(tuned.gflops_device()),
        fmt_f(tuned.gflops()),
    )
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        if !self.title.is_empty() {
            writeln!(f, "== {} ==", self.title)?;
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "| {} |", padded.join(" | "))
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "gflops"]);
        t.row(vec!["lg3".into(), fmt_f(42.74)]);
        t.row(vec!["eqn1".into(), fmt_f(1.99)]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("42.74"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f(3556.0), "3556");
        assert_eq!(fmt_f(0.63), "0.630");
        assert_eq!(fmt_secs(324.84), "324.8s");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
