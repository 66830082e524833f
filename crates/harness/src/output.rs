//! Result persistence and report generation.
//!
//! Each generated figure is written as CSV (plot-ready) and collected
//! into a JSON results file; `render_experiments_md` builds the
//! paper-vs-measured report that becomes EXPERIMENTS.md.

use crate::reference::{for_figure, Provenance};
use crate::shape::ShapeResult;
use apm_core::json::{self, Json, JsonError};
use apm_core::report::Table;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A serializable snapshot of one generated figure.
#[derive(Clone, Debug)]
pub struct FigureResult {
    pub id: String,
    pub title: String,
    pub row_label: String,
    pub unit: String,
    pub columns: Vec<String>,
    pub rows: Vec<String>,
    pub cells: Vec<Vec<Option<f64>>>,
    /// Shape check outcomes: (claim, pass, detail).
    pub checks: Vec<(String, bool, String)>,
}

impl FigureResult {
    /// Captures a table plus its shape checks.
    pub fn capture(id: &str, table: &Table, checks: &[ShapeResult]) -> FigureResult {
        FigureResult {
            id: id.to_string(),
            title: table.title.clone(),
            row_label: table.row_label.clone(),
            unit: table.unit.clone(),
            columns: table.columns.clone(),
            rows: table.rows.clone(),
            cells: table.cells.clone(),
            checks: checks
                .iter()
                .map(|c| (c.claim.to_string(), c.pass, c.detail.clone()))
                .collect(),
        }
    }

    /// Rebuilds the table.
    pub fn to_table(&self) -> Table {
        Table {
            title: self.title.clone(),
            row_label: self.row_label.clone(),
            unit: self.unit.clone(),
            columns: self.columns.clone(),
            rows: self.rows.clone(),
            cells: self.cells.clone(),
        }
    }
}

/// The full results file.
#[derive(Clone, Debug, Default)]
pub struct ResultsFile {
    /// Profile description (scale, window).
    pub profile: String,
    pub figures: Vec<FigureResult>,
}

fn strings(values: &[String]) -> Json {
    Json::Arr(values.iter().map(|s| Json::Str(s.clone())).collect())
}

fn string_list(value: &Json, what: &str) -> Result<Vec<String>, JsonError> {
    value
        .as_arr()
        .ok_or_else(|| shape_err(what))?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| shape_err(what))
        })
        .collect()
}

fn shape_err(what: &str) -> JsonError {
    JsonError {
        msg: format!("missing or mistyped field `{what}`"),
        offset: 0,
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    obj.get(key).ok_or_else(|| shape_err(key))
}

impl FigureResult {
    fn to_value(&self) -> Json {
        let cells = Json::Arr(
            self.cells
                .iter()
                .map(|row| {
                    Json::Arr(
                        row.iter()
                            .map(|c| c.map_or(Json::Null, Json::Num))
                            .collect(),
                    )
                })
                .collect(),
        );
        let checks = Json::Arr(
            self.checks
                .iter()
                .map(|(claim, pass, detail)| {
                    Json::Arr(vec![
                        Json::Str(claim.clone()),
                        Json::Bool(*pass),
                        Json::Str(detail.clone()),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            ("row_label".into(), Json::Str(self.row_label.clone())),
            ("unit".into(), Json::Str(self.unit.clone())),
            ("columns".into(), strings(&self.columns)),
            ("rows".into(), strings(&self.rows)),
            ("cells".into(), cells),
            ("checks".into(), checks),
        ])
    }

    fn from_value(value: &Json) -> Result<FigureResult, JsonError> {
        let text = |key: &str| -> Result<String, JsonError> {
            field(value, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| shape_err(key))
        };
        let cells = field(value, "cells")?
            .as_arr()
            .ok_or_else(|| shape_err("cells"))?
            .iter()
            .map(|row| {
                row.as_arr()
                    .ok_or_else(|| shape_err("cells"))?
                    .iter()
                    .map(|cell| match cell {
                        Json::Null => Ok(None),
                        Json::Num(v) => Ok(Some(*v)),
                        Json::Bool(_) | Json::Str(_) | Json::Arr(_) | Json::Obj(_) => {
                            Err(shape_err("cells"))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let checks = field(value, "checks")?
            .as_arr()
            .ok_or_else(|| shape_err("checks"))?
            .iter()
            .map(|check| {
                let parts = check.as_arr().ok_or_else(|| shape_err("checks"))?;
                match parts {
                    [Json::Str(claim), Json::Bool(pass), Json::Str(detail)] => {
                        Ok((claim.clone(), *pass, detail.clone()))
                    }
                    _ => Err(shape_err("checks")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FigureResult {
            id: text("id")?,
            title: text("title")?,
            row_label: text("row_label")?,
            unit: text("unit")?,
            columns: string_list(field(value, "columns")?, "columns")?,
            rows: string_list(field(value, "rows")?, "rows")?,
            cells,
            checks,
        })
    }
}

impl ResultsFile {
    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        let doc = Json::Obj(vec![
            ("profile".into(), Json::Str(self.profile.clone())),
            (
                "figures".into(),
                Json::Arr(self.figures.iter().map(FigureResult::to_value).collect()),
            ),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        text
    }

    /// Loads from JSON.
    pub fn from_json(text: &str) -> Result<ResultsFile, JsonError> {
        let doc = json::parse(text)?;
        let profile = field(&doc, "profile")?
            .as_str()
            .ok_or_else(|| shape_err("profile"))?
            .to_string();
        let figures = field(&doc, "figures")?
            .as_arr()
            .ok_or_else(|| shape_err("figures"))?
            .iter()
            .map(FigureResult::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultsFile { profile, figures })
    }
}

/// Writes one figure's CSV and returns the path written.
pub fn write_csv(dir: &Path, id: &str, table: &Table) -> io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.csv"));
    fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Writes a Chrome trace-event JSON document (load it in Perfetto or
/// `chrome://tracing`) and returns the path written. The text comes from
/// the exporter in [`crate::obs::chrome`] (`repro trace`).
pub fn write_chrome_trace(dir: &Path, id: &str, json: &str) -> io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.trace.json"));
    fs::write(&path, json)?;
    Ok(path)
}

/// Writes a gnuplot script that plots a figure's CSV the way the paper
/// draws it (throughput linear, latencies on a log axis), and returns
/// the script path. Run with `gnuplot results/<id>.gp` to get a PNG.
pub fn write_gnuplot(dir: &Path, id: &str, table: &Table) -> io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.gp"));
    let logscale = if table.unit.contains("ms") {
        "set logscale y\n"
    } else {
        ""
    };
    let mut plots = Vec::new();
    for (i, col) in table.columns.iter().enumerate() {
        plots.push(format!(
            "'{id}.csv' using {}:xtic(1) with linespoints title '{col}'",
            i + 2
        ));
    }
    let script = format!(
        "set datafile separator ','\n\
         set key outside\n\
         set title \"{title}\"\n\
         set xlabel '{xlabel}'\n\
         set ylabel '{unit}'\n\
         {logscale}set term pngcairo size 900,540\n\
         set output '{id}.png'\n\
         set style data linespoints\n\
         plot {plots}\n",
        title = table.title.replace('"', ""),
        xlabel = table.row_label,
        unit = table.unit,
        plots = plots.join(", \\\n     ")
    );
    fs::write(&path, script)?;
    Ok(path)
}

/// Renders the paper-vs-measured markdown report.
pub fn render_experiments_md(results: &ResultsFile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        out,
        "Generated by `repro all` ({}). Absolute numbers come from a calibrated\n\
         simulator (see DESIGN.md); the comparison targets *shape*: orderings,\n\
         scaling factors, crossovers. Reference values marked `fig` are read\n\
         off the paper's log-scale plots (±50 %).\n",
        results.profile
    );
    let mut total_checks = 0usize;
    let mut passed_checks = 0usize;
    for figure in &results.figures {
        let _ = writeln!(out, "## {}\n", figure.title);
        let _ = writeln!(out, "```text\n{}```\n", figure.to_table().render());
        let refs = for_figure(&figure.id);
        if !refs.is_empty() {
            let _ = writeln!(
                out,
                "| store | {} | paper | measured | src |",
                figure.row_label
            );
            let _ = writeln!(out, "|---|---|---|---|---|");
            for r in refs {
                let measured = figure
                    .to_table()
                    .get(r.row, r.store)
                    .map_or("-".to_string(), |v| format!("{v:.3}"));
                let tag = match r.provenance {
                    Provenance::Text => "text",
                    Provenance::Figure => "fig",
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {tag}: {} |",
                    r.store, r.row, r.value, measured, r.source
                );
            }
            let _ = writeln!(out);
        }
        if !figure.checks.is_empty() {
            let _ = writeln!(out, "Shape checks:\n");
            for (claim, pass, detail) in &figure.checks {
                total_checks += 1;
                if *pass {
                    passed_checks += 1;
                }
                let mark = if *pass { "PASS" } else { "FAIL" };
                let _ = writeln!(out, "- [{mark}] {claim} — {detail}");
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(
        out,
        "---\n\n**Shape checks passed: {passed_checks}/{total_checks}**"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Figure 3: Throughput for Workload R", "nodes", "ops/sec");
        t.columns = vec!["cassandra".into(), "hbase".into()];
        t.push_row("1", vec![Some(25_000.0), Some(2_500.0)]);
        t.push_row("12", vec![Some(180_000.0), Some(30_000.0)]);
        t
    }

    #[test]
    fn figure_result_roundtrips_through_json() {
        let checks = vec![ShapeResult {
            claim: "x",
            pass: true,
            detail: "ok".into(),
        }];
        let fig = FigureResult::capture("fig3", &sample_table(), &checks);
        let file = ResultsFile {
            profile: "test".into(),
            figures: vec![fig],
        };
        let parsed = ResultsFile::from_json(&file.to_json()).expect("roundtrip");
        assert_eq!(parsed.figures.len(), 1);
        assert_eq!(
            parsed.figures[0].to_table().get("1", "cassandra"),
            Some(25_000.0)
        );
        assert!(parsed.figures[0].checks[0].1);
    }

    #[test]
    fn markdown_report_contains_tables_refs_and_checks() {
        let checks = vec![ShapeResult {
            claim: "claim-a",
            pass: false,
            detail: "d".into(),
        }];
        let fig = FigureResult::capture("fig3", &sample_table(), &checks);
        let file = ResultsFile {
            profile: "scale 0.005".into(),
            figures: vec![fig],
        };
        let md = render_experiments_md(&file);
        assert!(md.contains("Figure 3"));
        assert!(md.contains("25000"));
        assert!(
            md.contains("more than 50K"),
            "fig3 reference rows must appear"
        );
        assert!(md.contains("[FAIL] claim-a"));
        assert!(md.contains("Shape checks passed: 0/1"));
    }

    #[test]
    fn gnuplot_script_references_every_series() {
        let dir = std::env::temp_dir().join("apm_harness_gp_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_gnuplot(&dir, "fig3", &sample_table()).expect("write");
        let script = std::fs::read_to_string(path).expect("read back");
        assert!(script.contains("fig3.csv"));
        assert!(script.contains("'cassandra'") && script.contains("'hbase'"));
        assert!(script.contains("set output 'fig3.png'"));
        // Throughput figures are linear; latency figures log-scale.
        assert!(!script.contains("logscale"));
        let mut lat = sample_table();
        lat.unit = "ms".into();
        let p2 = write_gnuplot(&dir, "fig4", &lat).expect("write");
        assert!(std::fs::read_to_string(p2)
            .unwrap()
            .contains("set logscale y"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_writing_creates_files() {
        let dir = std::env::temp_dir().join("apm_harness_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_csv(&dir, "fig3", &sample_table()).expect("write");
        let content = std::fs::read_to_string(path).expect("read back");
        assert!(content.starts_with("nodes,cassandra,hbase"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
