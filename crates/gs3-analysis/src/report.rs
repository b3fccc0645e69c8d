//! Typed tables for the experiment binaries: one row model, two views —
//! aligned plain text ([`Table::render`]) and JSON ([`Table::write_json`]).

use std::fmt::Write as _;

use gs3_core::json::JsonWriter;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count.
    Int(u64),
    /// A measurement: [`num`] in text, shortest round-trip in JSON.
    Num(f64),
    /// A number shown with exactly this many decimals in both views.
    Fixed(f64, usize),
    /// A label.
    Text(String),
    /// No value (the event never happened): `-` in text, `null` in JSON.
    Missing,
}

impl Cell {
    /// A measurement, or [`Cell::Missing`].
    #[must_use]
    pub fn opt(x: Option<f64>) -> Cell {
        x.map_or(Cell::Missing, Cell::Num)
    }

    /// A number with exactly `decimals` decimals, or [`Cell::Missing`].
    #[must_use]
    pub fn opt_fixed(x: Option<f64>, decimals: usize) -> Cell {
        x.map_or(Cell::Missing, |x| Cell::Fixed(x, decimals))
    }

    fn text(&self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Num(x) => num(*x),
            Cell::Fixed(x, decimals) => format!("{x:.decimals$}"),
            Cell::Text(s) => s.clone(),
            Cell::Missing => "-".to_string(),
        }
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Cell::Int(v) => w.u64(*v),
            Cell::Num(x) => w.f64(*x),
            Cell::Fixed(x, decimals) => w.fixed(*x, *decimals),
            Cell::Text(s) => w.str(s),
            Cell::Missing => w.null(),
        };
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

/// A table of typed cells under column headers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (shorter rows are padded with missing cells).
    pub fn row<C: Into<Cell>, I: IntoIterator<Item = C>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<Cell> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), Cell::Missing);
        self.rows.push(row);
        self
    }

    /// Renders with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let rows: Vec<Vec<String>> = self.rows.iter().map(|r| r.iter().map(Cell::text).collect()).collect();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Writes the rows as a JSON array of objects keyed by column header.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| {
            for row in &self.rows {
                w.object(|w| {
                    for (header, cell) in self.headers.iter().zip(row) {
                        cell.write_json(w.key(header));
                    }
                });
            }
        });
    }
}

/// Formats a float compactly for tables (3 significant decimals, or
/// scientific for very small magnitudes).
#[must_use]
pub fn num(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_core::json;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["a", "bbb"]);
        t.row([Cell::Int(1), Cell::Int(2)]).row([Cell::Int(333), Cell::Int(4)]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a'));
        assert!(lines[1].starts_with('-'));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(["x", "y", "z"]);
        t.row([Cell::Int(1)]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(0.5), "0.500");
        assert_eq!(num(1234.7), "1235");
        assert!(num(1e-6).contains('e'));
    }

    #[test]
    fn typed_cells_render_and_write_the_same_row() {
        let mut t = Table::new(["n", "x", "λ", "label", "never"]);
        let label = |s: &str| Cell::Text(s.to_string());
        t.row([Cell::Int(7), Cell::Num(0.1234), Cell::Fixed(0.005_35, 5), label("on"), Cell::opt(None)]);
        t.row([Cell::Int(8), Cell::Num(2.5e-9), Cell::Fixed(96.4, 0), label("off"), Cell::opt(Some(4.0))]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[2].split_whitespace().collect::<Vec<_>>(), ["7", "0.123", "0.00535", "on", "-"]);
        assert_eq!(lines[3].split_whitespace().collect::<Vec<_>>(), ["8", "2.50e-9", "96", "off", "4.000"]);

        let doc = json::to_string(|w| t.write_json(w));
        assert_eq!(
            doc,
            r#"[{"n":7,"x":0.1234,"λ":0.00535,"label":"on","never":null},{"n":8,"x":2.5e-9,"λ":96,"label":"off","never":4.0}]"#
        );
        let back = json::parse(&doc).unwrap();
        let row = &back.as_arr().unwrap()[0];
        assert_eq!(row.get("never"), Some(&json::JsonValue::Null), "missing → null");
        assert_eq!(row.get("n").and_then(json::JsonValue::as_u64), Some(7));
    }
}
