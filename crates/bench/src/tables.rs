//! Minimal ASCII table rendering for experiment output, and the JSON
//! provenance document `experiments --json` writes.

use serde::Value;
use std::fmt::Write as _;

/// A titled table with aligned columns.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (i, cell) in cells.iter().enumerate() {
                if !first {
                    out.push_str("  ");
                }
                first = false;
                let _ = write!(out, "{:>width$}", cell, width = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table as a JSON object `{title, headers, rows}`.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("title".into(), Value::Str(self.title.clone())),
            ("headers".into(), strings(&self.headers)),
            (
                "rows".into(),
                Value::Arr(self.rows.iter().map(|row| strings(row)).collect()),
            ),
        ])
    }
}

fn strings(cells: &[String]) -> Value {
    Value::Arr(cells.iter().cloned().map(Value::Str).collect())
}

/// The provenance document of a run: `[[id, [table, …]], …]`, one entry
/// per experiment family in the order they ran.
pub fn provenance(runs: &[(String, Vec<Table>)]) -> Value {
    Value::Arr(
        runs.iter()
            .map(|(id, tables)| {
                Value::Arr(vec![
                    Value::Str(id.clone()),
                    Value::Arr(tables.iter().map(Table::to_value).collect()),
                ])
            })
            .collect(),
    )
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "333333".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn provenance_json_is_pinned() {
        let mut demo = Table::new("demo", &["a", "b"]);
        demo.row(vec!["1".into(), "x \"y\"".into()]);
        demo.row(vec!["2".into(), "z".into()]);
        let empty = Table::new("empty", &["only"]);
        let doc = provenance(&[("exp-a".into(), vec![demo]), ("exp-b".into(), vec![empty])]);
        assert_eq!(
            serde_json::to_string(&doc).expect("print"),
            r#"[["exp-a",[{"title":"demo","headers":["a","b"],"rows":[["1","x \"y\""],["2","z"]]}]],["exp-b",[{"title":"empty","headers":["only"],"rows":[]}]]]"#
        );
        let pretty = r#"[
  [
    "exp-a",
    [
      {
        "title": "demo",
        "headers": [
          "a",
          "b"
        ],
        "rows": [
          [
            "1",
            "x \"y\""
          ],
          [
            "2",
            "z"
          ]
        ]
      }
    ]
  ],
  [
    "exp-b",
    [
      {
        "title": "empty",
        "headers": [
          "only"
        ],
        "rows": []
      }
    ]
  ]
]"#;
        assert_eq!(serde_json::to_string_pretty(&doc).expect("print"), pretty);
    }
}
