//! The one text renderer: any [`Table`] as the fixed-width text the
//! CLI prints.
//!
//! The workspace golden tests (`tests/flow_goldens.rs`) diff these
//! renderings against the captured outputs under `tests/goldens/`, so
//! do not change a space here without re-pinning the goldens.

use crate::table::{Column, Table};

/// Renders `table`: a blank line and `== title ==`, then per section
/// an optional `-- heading --`, a header line (unless every header is
/// empty) and one line per row. Cells are padded to their column's
/// width and joined by one space.
pub fn render(table: &Table) -> String {
    let mut out = format!("\n== {} ==\n", table.title);
    for section in &table.sections {
        if let Some(heading) = &section.heading {
            out.push_str(&format!("\n-- {heading} --\n"));
        }
        let columns = &section.columns;
        if columns.iter().any(|c| !c.header.is_empty()) {
            line(
                &mut out,
                columns,
                columns.iter().map(|c| c.header.to_string()),
            );
        }
        for row in &section.rows {
            line(&mut out, columns, row.cells.iter().map(|c| c.text()));
        }
    }
    out
}

fn line(out: &mut String, columns: &[Column], texts: impl Iterator<Item = String>) {
    let cells: Vec<String> = columns
        .iter()
        .zip(texts)
        .map(|(c, t)| {
            if c.left {
                format!("{t:<0$}", c.width)
            } else {
                format!("{t:>0$}", c.width)
            }
        })
        .collect();
    out.push_str(&cells.join(" "));
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;

    #[test]
    fn comparison_table_shape() {
        let mut t = Table::new(
            "T",
            vec![
                Column::left("bench", "bench", 8),
                Column::right("ours", "ours", 8),
                Column::right("WC", "wc", 8),
                Column::right("ours/WC", "ours_wc", 12),
            ],
        );
        t.push(vec![
            "D1".into(),
            4usize.into(),
            16usize.into(),
            Cell::real(0.25, 3),
        ]);
        t.push(vec![
            "D2".into(),
            Cell::count(None, "fail"),
            4usize.into(),
            Cell::Missing("-"),
        ]);
        let table = render(&t);
        assert!(table.starts_with("\n== T ==\nbench        ours       WC      ours/WC\n"));
        assert!(table.contains("D1              4       16        0.250"));
        assert!(table.contains("fail"));
        assert!(table.ends_with('\n'));
    }

    #[test]
    fn be_burst_table_lists_models() {
        let mut t = Table::new(
            "B",
            vec![
                Column::left("model", "model", 10),
                Column::right("hops", "hops", 5),
                Column::right("mean lat", "mean_latency_cycles", 9),
            ],
        );
        t.push(vec!["constant".into(), 2usize.into(), Cell::real(6.5, 1)]);
        assert_eq!(
            render(&t),
            "\n== B ==\nmodel       hops  mean lat\nconstant       2       6.5\n"
        );
    }

    #[test]
    fn sections_print_under_their_heading() {
        // A later section prints under its heading with its own header;
        // one with no headers prints rows only (headline prose).
        let mut t = Table::new("B", vec![Column::left("model", "model", 10)]);
        t.push(vec!["constant".into()]);
        t.section("more".into(), vec![Column::left("", "line", 0)]);
        t.push(vec!["mean lat 6.5".into()]);
        assert_eq!(
            render(&t),
            "\n== B ==\nmodel     \nconstant  \n\n-- more --\nmean lat 6.5\n"
        );
    }
}
