//! The one result type every suite returns: a [`Table`] of typed
//! columns and rows.
//!
//! A column carries its printed header, its key in a BENCH record, its
//! width and alignment, and whether its values are deterministic or
//! read off a clock. A row holds one [`Cell`] per column and
//! may carry named [`PerfSnapshot`]s, which only the record writer
//! prints. [`crate::render::render`] turns a table into the
//! fixed-width text both the goldens and the CLI show, and
//! [`crate::perf_json::record`] into one `BENCH_nocmap.json` record.

use std::time::Duration;

use nocmap::perf::PerfSnapshot;

/// Whether a column's values are fixed by the workload or read off a
/// clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Identical at any `noc-par` width and on any machine.
    Deterministic,
    /// Wall-clock: machine- and load-dependent.
    Wall,
}

/// One column of a [`Table`]: its header (a section whose headers are
/// all empty prints no header line), its field name in a BENCH record,
/// its minimum width and alignment, and whether it is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub(crate) header: &'static str,
    pub(crate) key: &'static str,
    pub(crate) width: usize,
    pub(crate) left: bool,
    pub(crate) kind: Kind,
}

impl Column {
    /// A left-aligned deterministic column.
    pub const fn left(header: &'static str, key: &'static str, width: usize) -> Column {
        Column {
            header,
            key,
            width,
            left: true,
            kind: Kind::Deterministic,
        }
    }

    /// A right-aligned deterministic column.
    pub const fn right(header: &'static str, key: &'static str, width: usize) -> Column {
        Column {
            header,
            key,
            width,
            left: false,
            kind: Kind::Deterministic,
        }
    }

    /// A right-aligned wall-clock column.
    pub const fn wall(header: &'static str, key: &'static str, width: usize) -> Column {
        Column {
            kind: Kind::Wall,
            ..Column::right(header, key, width)
        }
    }
}

/// One typed value.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Cell {
    /// An exact count or cost.
    Int(u128),
    /// A real shown with `decimals` places followed by `unit` (`""`,
    /// `"%"`, `"x"`); recorded at the same precision, without the unit.
    Real {
        /// The value.
        value: f64,
        /// Decimal places, shown and recorded.
        decimals: usize,
        /// Suffix of the shown text.
        unit: &'static str,
    },
    /// A label, token or list.
    Text(String),
    /// A duration, shown as `{:?}` and recorded in milliseconds.
    Time(Duration),
    /// No value (the point failed or does not apply): shown as the
    /// given text, recorded as `null`.
    Missing(&'static str),
}

impl Cell {
    /// `value` with `decimals` places.
    pub fn real(value: f64, decimals: usize) -> Cell {
        Cell::Real {
            value,
            decimals,
            unit: "",
        }
    }

    /// A count, or `missing` when there is none.
    pub fn count(value: Option<usize>, missing: &'static str) -> Cell {
        value.map_or(Cell::Missing(missing), Cell::from)
    }

    /// The printed text.
    pub(crate) fn text(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Real {
                value,
                decimals,
                unit,
            } => format!("{value:.decimals$}{unit}"),
            Cell::Text(s) => s.clone(),
            Cell::Time(d) => format!("{d:?}"),
            Cell::Missing(s) => (*s).to_string(),
        }
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u128)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(u128::from(n))
    }
}

impl From<u128> for Cell {
    fn from(n: u128) -> Cell {
        Cell::Int(n)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<Duration> for Cell {
    fn from(d: Duration) -> Cell {
        Cell::Time(d)
    }
}

/// One row: a cell per column, plus op-counter snapshots by name,
/// which only BENCH records print.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub(crate) cells: Vec<Cell>,
    pub(crate) ops: Vec<(&'static str, PerfSnapshot)>,
}

/// A run of rows under one header line, printed below `-- heading --`
/// when it has one (every section but the first).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Section {
    pub(crate) heading: Option<String>,
    pub(crate) columns: Vec<Column>,
    pub(crate) rows: Vec<Row>,
}

/// The result of one suite: a title (printed as `== title ==`) and one
/// or more sections. Every row has one cell per column of its section.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub(crate) title: String,
    pub(crate) sections: Vec<Section>,
}

impl Table {
    /// An empty table with one section of `columns`.
    pub fn new(title: impl Into<String>, columns: Vec<Column>) -> Table {
        Table {
            title: title.into(),
            sections: vec![Section {
                heading: None,
                columns,
                rows: Vec::new(),
            }],
        }
    }

    /// Starts a new section; later rows go into it.
    pub fn section(&mut self, heading: String, columns: Vec<Column>) {
        self.sections.push(Section {
            heading: Some(heading),
            columns,
            rows: Vec::new(),
        });
    }

    /// Appends a row of `cells` to the last section.
    pub fn push(&mut self, cells: Vec<Cell>) {
        self.push_with_ops(cells, Vec::new());
    }

    /// Appends a row of `cells` carrying op-counter snapshots.
    ///
    /// # Panics
    ///
    /// When `cells` does not hold one cell per column of the last
    /// section.
    pub fn push_with_ops(&mut self, cells: Vec<Cell>, ops: Vec<(&'static str, PerfSnapshot)>) {
        let section = self.sections.last_mut().expect("a table has a section");
        assert_eq!(cells.len(), section.columns.len(), "{}", self.title);
        section.rows.push(Row { cells, ops });
    }

    /// Every row with its section's columns, in print order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&[Column], &Row)> {
        self.sections
            .iter()
            .flat_map(|s| s.rows.iter().map(move |r| (s.columns.as_slice(), r)))
    }

    /// The cell under column `key` in row `row` (counted over all
    /// sections).
    #[cfg(test)]
    pub(crate) fn cell(&self, row: usize, key: &str) -> Option<&Cell> {
        let (columns, row) = self.rows().nth(row)?;
        let at = columns.iter().position(|c| c.key == key)?;
        row.cells.get(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_print_their_type() {
        assert_eq!(Cell::from(42usize).text(), "42");
        assert_eq!(Cell::real(0.25, 3).text(), "0.250");
        let pct = Cell::Real {
            value: 51.44,
            decimals: 1,
            unit: "%",
        };
        assert_eq!(pct.text(), "51.4%");
        assert_eq!(Cell::count(None, "fail").text(), "fail");
        assert_eq!(Cell::from(Duration::from_millis(3)).text(), "3ms");
    }

    #[test]
    fn cells_are_found_by_key_across_sections() {
        let mut t = Table::new("T", vec![Column::left("bench", "bench", 8)]);
        t.push(vec!["D1".into()]);
        t.section("more".into(), vec![Column::right("n", "n", 4)]);
        t.push(vec![7usize.into()]);
        assert_eq!(t.cell(0, "bench"), Some(&Cell::from("D1")));
        assert_eq!(t.cell(1, "n"), Some(&Cell::Int(7)));
        assert_eq!(t.cell(1, "bench"), None);
        assert_eq!(t.rows().count(), 2);
    }
}
