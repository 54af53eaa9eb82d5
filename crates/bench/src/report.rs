//! Text-table and CSV rendering of experiment results.
//!
//! The `repro` binary prints paper-style tables to stdout and mirrors each
//! experiment into `results/<exp>.csv` so plots can be regenerated with
//! any tool.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::experiments::{Fig2, Fig3aRow, Fig3bcRow, FigKRow, FigShuffleRow, RanksRow, Tab1Row};

/// Render bytes as a human-friendly quantity.
pub fn human_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1} {}", UNITS[u])
}

/// Simple fixed-width table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Write as CSV to `path` (directories created as needed).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        writeln!(
            f,
            "{}",
            self.header
                .iter()
                .map(|s| esc(s))
                .collect::<Vec<_>>()
                .join(",")
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{}",
                row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(",")
            )?;
        }
        f.flush()
    }
}

/// Figure 2 as a table.
pub fn fig2_table(f: &Fig2) -> Table {
    let mut t = Table::new(&["selection", "max receive (chunks)"]);
    t.row(vec!["naive".into(), f.naive_max.to_string()]);
    t.row(vec![
        format!("load-aware {:?}", f.shuffle),
        f.shuffled_max.to_string(),
    ]);
    t
}

/// Figure 3(a) as a table.
pub fn fig3a_table(rows: &[Fig3aRow]) -> Table {
    let mut t = Table::new(&[
        "config",
        "total",
        "no-dedup",
        "local-dedup",
        "coll-dedup",
        "local %",
        "coll %",
    ]);
    for r in rows {
        let pct = r.percent();
        t.row(vec![
            r.config.clone(),
            human_bytes(r.total_bytes as f64),
            human_bytes(r.unique_bytes[0] as f64),
            human_bytes(r.unique_bytes[1] as f64),
            human_bytes(r.unique_bytes[2] as f64),
            format!("{:.1}", pct[1]),
            format!("{:.1}", pct[2]),
        ]);
    }
    t
}

/// Figures 3(b)/(c) as a table.
pub fn fig3bc_table(rows: &[Fig3bcRow]) -> Table {
    let mut t = Table::new(&[
        "procs",
        "local-dedup (s)",
        "coll K=2 (s)",
        "coll K=4 (s)",
        "coll K=6 (s)",
    ]);
    for r in rows {
        t.row(vec![
            r.procs.to_string(),
            format!("{:.2}", r.local_seconds),
            format!("{:.2}", r.coll_seconds[0]),
            format!("{:.2}", r.coll_seconds[1]),
            format!("{:.2}", r.coll_seconds[2]),
        ]);
    }
    t
}

/// Table I as a table.
pub fn tab1_table(rows: &[Tab1Row]) -> Table {
    let mut t = Table::new(&[
        "# of processes",
        "no-dedup",
        "local-dedup",
        "coll-dedup",
        "baseline",
    ]);
    for r in rows {
        t.row(vec![
            r.procs.to_string(),
            format!("{:.0}s", r.completion[0]),
            format!("{:.0}s", r.completion[1]),
            format!("{:.0}s", r.completion[2]),
            format!("{:.0}s", r.baseline),
        ]);
    }
    t
}

/// Figures 4(a,b)/5(a,b) as a table.
pub fn fig_k_table(rows: &[FigKRow]) -> Table {
    let mut t = Table::new(&[
        "K",
        "no-dedup ovh (s)",
        "local ovh (s)",
        "coll ovh (s)",
        "no-dedup avg/max sent",
        "local avg/max sent",
        "coll avg/max sent",
    ]);
    for r in rows {
        let sent = |i: usize| {
            format!(
                "{} / {}",
                human_bytes(r.avg_sent[i]),
                human_bytes(r.max_sent[i])
            )
        };
        t.row(vec![
            r.k.to_string(),
            format!("{:.0}", r.overhead_seconds[0]),
            format!("{:.0}", r.overhead_seconds[1]),
            format!("{:.0}", r.overhead_seconds[2]),
            sent(0),
            sent(1),
            sent(2),
        ]);
    }
    t
}

/// Figures 4(c)/5(c) as a table.
pub fn fig_shuffle_table(rows: &[FigShuffleRow]) -> Table {
    let mut t = Table::new(&[
        "K",
        "no-shuffle max recv",
        "shuffle max recv",
        "reduction %",
    ]);
    for r in rows {
        t.row(vec![
            r.k.to_string(),
            human_bytes(r.no_shuffle_max_recv),
            human_bytes(r.shuffle_max_recv),
            format!("{:.1}", r.reduction_percent()),
        ]);
    }
    t
}

/// The ranks sweep as a table: measured wire/parity
/// traffic next to the `crates/sim` prediction and whether the two agree
/// within the noise band.
pub fn ranks_table(rows: &[RanksRow]) -> Table {
    let mut t = Table::new(&[
        "ranks",
        "strategy",
        "wall (s)",
        "wire meas/pred",
        "parity meas/pred",
        "dev %",
        "in band",
        "modeled (s)",
    ]);
    for r in rows {
        t.row(vec![
            r.ranks.to_string(),
            r.strategy.clone(),
            format!("{:.2}", r.wall_seconds),
            format!(
                "{} / {}",
                human_bytes(r.measured_wire_bytes as f64),
                human_bytes(r.predicted_wire_bytes as f64)
            ),
            format!(
                "{} / {}",
                human_bytes(r.measured_parity_bytes as f64),
                human_bytes(r.predicted_parity_bytes as f64)
            ),
            format!("{:.1}", r.deviation_pct),
            if r.sim_within_band { "yes" } else { "NO" }.into(),
            format!("{:.2}", r.modeled_seconds),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512.0), "512.0 B");
        assert_eq!(human_bytes(2048.0), "2.0 KiB");
        assert_eq!(human_bytes(3.5 * 1024.0 * 1024.0), "3.5 MiB");
        assert_eq!(human_bytes(1e13), "9.1 TiB");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbb"]);
        t.row(vec!["10".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("bbb"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let dir = std::env::temp_dir().join("replidedup-csv-test");
        let path = dir.join("t.csv");
        let mut t = Table::new(&["x,y", "z"]);
        t.row(vec!["a\"b".into(), "c".into()]);
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("\"x,y\",z\n"));
        assert!(content.contains("\"a\"\"b\",c"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fig2_table_shape() {
        let f = crate::experiments::fig2();
        let t = fig2_table(&f);
        let s = t.render();
        assert!(s.contains("200"));
        assert!(s.contains("110"));
    }
}
