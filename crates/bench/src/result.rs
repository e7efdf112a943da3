//! Typed figure results and text-table rendering.

use std::fmt;

/// One table cell: a label or a numeric value (kept numeric so shape
/// tests can assert on it).
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A numeric value printed with the given number of decimals.
    Num(f64, usize),
}

impl Cell {
    /// Text cell helper.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// Numeric cell with one decimal.
    pub(crate) fn num(v: f64) -> Cell {
        Cell::Num(v, 1)
    }

    /// Numeric cell with custom precision.
    pub fn num_p(v: f64, decimals: usize) -> Cell {
        Cell::Num(v, decimals)
    }

    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(v, d) => format!("{v:.*}", d),
        }
    }
}

/// A regenerated table or figure: title, column headers, typed rows and
/// free-form notes (the paper's observations the table supports).
#[derive(Clone, Debug)]
pub struct FigureResult {
    /// Identifier, e.g. `"fig6"`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each row has `headers.len()` cells.
    pub rows: Vec<Vec<Cell>>,
    /// Notes printed below the table.
    pub notes: Vec<String>,
}

impl FigureResult {
    /// New empty result.
    pub fn new(id: &'static str, title: impl Into<String>, headers: &[&str]) -> FigureResult {
        FigureResult {
            id,
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity does not match the headers.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch in {}", self.id);
        self.rows.push(row);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for FigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    write!(f, "{:<w$}", c, w = widths[i])?;
                } else {
                    write!(f, "  {:>w$}", c, w = widths[i])?;
                }
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &rendered {
            line(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureResult {
        let mut r = FigureResult::new("figX", "sample", &["config", "a", "b"]);
        r.push_row(vec![Cell::text("1G/1S"), Cell::num(302.0), Cell::num_p(0.123, 3)]);
        r.push_row(vec![Cell::text("2G/8S"), Cell::num(641.5), Cell::num(9.0)]);
        r.note("a note");
        r
    }

    #[test]
    fn display_renders_aligned_table() {
        let s = sample().to_string();
        assert!(s.contains("== figX — sample =="));
        assert!(s.contains("302.0"));
        assert!(s.contains("0.123"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut r = FigureResult::new("figY", "t", &["a", "b"]);
        r.push_row(vec![Cell::num(1.0)]);
    }
}
