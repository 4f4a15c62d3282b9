//! Renders recorded `results/*.json` rows into EXPERIMENTS.md,
//! replacing the `<!-- RESULTS:TAG -->` placeholders with markdown
//! tables. Rerun after regenerating any figure:
//!
//! ```text
//! cargo run --release -p geyser-bench --bin render_experiments
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Deserialize;

#[derive(Deserialize)]
struct Row {
    workload: String,
    technique: String,
    metrics: BTreeMap<String, f64>,
}

/// Renders the rows as markdown, one table per run of consecutive rows
/// sharing a metric set (a file such as `ablations.json` holds several
/// studies with different columns).
fn render_tables(rows: &[Row]) -> String {
    if rows.is_empty() {
        return "(no data recorded)\n".to_string();
    }
    rows.chunk_by(|a, b| a.metrics.keys().eq(b.metrics.keys()))
        .map(render_table)
        .collect::<Vec<_>>()
        .join("\n")
}

fn render_table(rows: &[Row]) -> String {
    let metric_names: Vec<&String> = rows[0].metrics.keys().collect();
    let mut out = String::new();
    let _ = write!(out, "| workload | technique |");
    for m in &metric_names {
        let _ = write!(out, " {m} |");
    }
    out.push('\n');
    let _ = write!(out, "|---|---|");
    for _ in &metric_names {
        let _ = write!(out, "---|");
    }
    out.push('\n');
    for row in rows {
        let _ = write!(out, "| {} | {} |", row.workload, row.technique);
        for m in &metric_names {
            let v = row.metrics.get(*m).copied().unwrap_or(f64::NAN);
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, " {} |", v as i64);
            } else {
                let _ = write!(out, " {v:.4} |");
            }
        }
        out.push('\n');
    }
    out
}

fn main() {
    let mappings = [
        ("FIG12", "results/fig12.json"),
        ("FIG13", "results/fig13.json"),
        ("FIG14", "results/fig14.json"),
        ("FIG15", "results/fig15.json"),
        ("FIG16", "results/fig16.json"),
        ("FIG17", "results/fig17.json"),
        ("FIG18", "results/fig18.json"),
        ("FIDELITY", "results/fidelity.json"),
        ("ATOMLOSS", "results/atom_loss.json"),
        ("SCALING", "results/sec6_scaling.json"),
        ("ABLATIONS", "results/ablations.json"),
    ];
    let path = "EXPERIMENTS.md";
    let mut doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md exists");
    let mut rendered = 0;
    for (tag, file) in mappings {
        let marker = format!("<!-- RESULTS:{tag} -->");
        if !doc.contains(&marker) {
            continue;
        }
        let Ok(body) = std::fs::read_to_string(file) else {
            println!("skipping {tag}: {file} not found");
            continue;
        };
        let rows: Vec<Row> = match serde_json::from_str(&body) {
            Ok(r) => r,
            Err(e) => {
                println!("skipping {tag}: {e}");
                continue;
            }
        };
        // Idempotent replacement: everything between the marker and
        // the next section heading (or EOF) is regenerated.
        let Some(start) = doc.find(&marker) else {
            continue;
        };
        let content_start = start + marker.len();
        let rest = &doc[content_start..];
        let end = rest.find("\n## ").map_or(doc.len(), |p| content_start + p);
        let replacement = format!("\n\n{}", render_tables(&rows));
        doc.replace_range(content_start..end, &replacement);
        rendered += 1;
    }
    std::fs::write(path, doc).expect("EXPERIMENTS.md is writable");
    println!("rendered {rendered} sections into {path}");
}
