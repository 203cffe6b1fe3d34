//! Experiment reports: text tables and collected series.
//!
//! The benchmark harness binaries (`euler-bench`, one per paper table/figure)
//! assemble a [`Report`] and print it; the same structure can be serialised to
//! JSON for post-processing or plotting.

use crate::series::Series;
use serde::{Deserialize, Serialize};

/// A rectangular text table with a header row.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each row has one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics in debug builds if the arity does not match.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.columns.len(), "row arity must match columns");
        self.rows.push(cells);
    }

    /// Appends a row built from displayable values.
    pub fn row<T: std::fmt::Display>(&mut self, cells: &[T]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A full experiment report: free-form notes, tables, and series.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Report {
    /// Experiment identifier, e.g. `"fig5_scaling"`.
    pub experiment: String,
    /// Free-form notes (parameters, scale factors, substitutions).
    pub notes: Vec<String>,
    /// Tables in presentation order.
    pub tables: Vec<Table>,
    /// Series in presentation order.
    pub series: Vec<Series>,
}

impl Report {
    /// Creates an empty report for the named experiment.
    pub fn new(experiment: impl Into<String>) -> Self {
        Report { experiment: experiment.into(), ..Default::default() }
    }

    /// Adds a note line.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(text.into());
        self
    }

    /// Adds a table.
    pub fn add_table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Adds a series.
    pub fn add_series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Renders the whole report as text (notes, tables, series TSV blocks).
    pub fn render(&self) -> String {
        let mut out = format!("### Experiment: {}\n", self.experiment);
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for t in &self.tables {
            out.push('\n');
            out.push_str(&t.render());
        }
        for s in &self.series {
            out.push('\n');
            out.push_str(&s.to_tsv());
        }
        out
    }

    /// Serialises the report to pretty JSON.
    pub fn to_json(&self) -> String {
        use crate::json::Value;
        let tables = self
            .tables
            .iter()
            .map(|t| {
                Value::obj(vec![
                    ("title", Value::str(&t.title)),
                    ("columns", Value::str_arr(&t.columns)),
                    ("rows", Value::Arr(t.rows.iter().map(Value::str_arr).collect())),
                ])
            })
            .collect();
        let series = self
            .series
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", Value::str(&s.name)),
                    (
                        "points",
                        Value::Arr(
                            s.points
                                .iter()
                                .map(|p| {
                                    Value::obj(vec![
                                        ("label", Value::str(&p.label)),
                                        ("x", Value::Num(p.x)),
                                        ("y", Value::Num(p.y)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::obj(vec![
            ("experiment", Value::str(&self.experiment)),
            ("notes", Value::str_arr(&self.notes)),
            ("tables", Value::Arr(tables)),
            ("series", Value::Arr(series)),
        ])
        .to_pretty()
    }

    /// Parses a report serialised by [`Report::to_json`]. Returns `None` on
    /// malformed input.
    pub fn from_json(text: &str) -> Option<Report> {
        use crate::json::{parse, Value};
        fn strings(v: &Value) -> Option<Vec<String>> {
            v.as_arr()?.iter().map(|s| s.as_str().map(String::from)).collect()
        }
        let root = parse(text)?;
        let mut report = Report::new(root.get("experiment")?.as_str()?);
        report.notes = strings(root.get("notes")?)?;
        for t in root.get("tables")?.as_arr()? {
            report.tables.push(Table {
                title: t.get("title")?.as_str()?.to_string(),
                columns: strings(t.get("columns")?)?,
                rows: t.get("rows")?.as_arr()?.iter().map(strings).collect::<Option<_>>()?,
            });
        }
        for s in root.get("series")?.as_arr()? {
            let mut series = Series::new(s.get("name")?.as_str()?);
            for p in s.get("points")?.as_arr()? {
                series.points.push(crate::series::DataPoint {
                    label: p.get("label")?.as_str()?.to_string(),
                    x: p.get("x")?.as_f64()?,
                    y: p.get("y")?.as_f64()?,
                });
            }
            report.series.push(series);
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_aligns_columns() {
        let mut t = Table::new("Table 1", &["Graph", "|V|", "|E|"]);
        t.row(&["G20/P2", "20M", "212M"]);
        t.row(&["G50/P8", "49M", "529M"]);
        let s = t.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("G20/P2"));
        assert_eq!(t.rows.len(), 2);
        // Header and both rows appear on separate lines.
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn report_render_contains_everything() {
        let mut r = Report::new("fig5_scaling");
        r.note("scale=0.01 of the paper sizes");
        let mut t = Table::new("times", &["graph", "minutes"]);
        t.row(&["G20_P2", "11.2"]);
        r.add_table(t);
        let mut s = Series::new("total");
        s.push("G20_P2", 2.0, 11.2);
        r.add_series(s);
        let text = r.render();
        assert!(text.contains("fig5_scaling"));
        assert!(text.contains("scale=0.01"));
        assert!(text.contains("11.2"));
        assert!(text.contains("# series: total"));
    }

    #[test]
    fn report_json_roundtrip() {
        let mut r = Report::new("exp");
        r.note("n");
        let mut t = Table::new("t", &["a"]);
        t.row(&["cell with \"quotes\""]);
        r.add_table(t);
        let mut s = Series::new("series");
        s.push("p", 1.5, -2.0);
        r.add_series(s);
        let json = r.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back.experiment, "exp");
        assert_eq!(back.notes, vec!["n".to_string()]);
        assert_eq!(back.tables, r.tables);
        assert_eq!(back.series, r.series);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("empty", &["a", "b"]);
        let s = t.render();
        assert!(s.contains('a'));
        assert!(t.rows.is_empty());
    }
}
