//! Minimal fixed-width table formatting for the reproduction reports.

/// A simple left-aligned text table with a header row.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, cell) in cells.iter().enumerate() {
                s.push_str(cell);
                let pad = widths[c].saturating_sub(cell.chars().count());
                s.push_str(&" ".repeat(pad));
                if c + 1 < cells.len() {
                    s.push_str("  ");
                }
            }
            s.trim_end().to_owned()
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a rate with 4 decimals.
#[must_use]
pub fn rate(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats an interval `[lo, hi]` with 4 decimals.
#[must_use]
pub fn interval(lo: f64, hi: f64) -> String {
    format!("[{lo:.4}, {hi:.4}]")
}

/// The ✓/✗ mark of a claim that holds or fails.
#[must_use]
pub fn mark(ok: bool) -> &'static str {
    if ok {
        "✓"
    } else {
        "✗"
    }
}

/// A section header.
#[must_use]
pub fn section(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["xx".into(), "y".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "a   bbbb");
        assert_eq!(lines[2], "xx  y");
    }

    #[test]
    fn helpers() {
        assert_eq!(rate(0.5), "0.5000");
        assert_eq!(interval(0.2, 0.25), "[0.2000, 0.2500]");
        assert_eq!((mark(true), mark(false)), ("✓", "✗"));
        assert!(section("Table 1").contains("Table 1"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new(&["a"]).row(&[]);
    }
}
