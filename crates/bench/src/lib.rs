//! # mcb-bench — the experiment harness
//!
//! One bench target per table/figure of the paper (see DESIGN.md §4 for
//! the experiment index). Targets named `tab_*` / `fig_*` are plain
//! binaries (`harness = false`) that deterministically regenerate their
//! artifact — run them all with `cargo bench`, or one with
//! `cargo bench --bench tab_select`. Targets named `crit_*` are wall-clock
//! benchmarks of the simulator itself, timed with the self-contained
//! [`timing`] harness (no external benchmarking framework).
//!
//! Every table is printed to stdout *and* written as CSV under
//! `target/experiments/`, so EXPERIMENTS.md rows can be re-derived
//! mechanically.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A printable, CSV-exportable experiment table.
pub struct Table {
    name: &'static str,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table; `name` becomes the CSV filename.
    pub fn new(name: &'static str, title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            name,
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringify with `format!`).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}\n", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout and write `target/experiments/<name>.csv`.
    pub fn emit(&self) {
        println!("{}", self.render());
        // Resolve against the workspace target dir regardless of the cwd
        // cargo bench uses for bench binaries.
        let dir = std::env::var("CARGO_TARGET_DIR")
            .map_or_else(
                |_| {
                    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                        .join("..")
                        .join("..")
                        .join("target")
                },
                PathBuf::from,
            )
            .join("experiments");
        if fs::create_dir_all(&dir).is_ok() {
            let mut csv = self.headers.join(",") + "\n";
            for row in &self.rows {
                csv.push_str(&row.join(","));
                csv.push('\n');
            }
            let path = dir.join(format!("{}.csv", self.name));
            if fs::write(&path, csv).is_ok() {
                println!("[csv written to {}]\n", path.display());
            }
        }
    }
}

/// Format a ratio to two decimals (the "measured / bound" columns).
pub fn ratio(measured: u64, bound: f64) -> String {
    if bound == 0.0 {
        "-".into()
    } else {
        format!("{:.2}", measured as f64 / bound)
    }
}

/// Minimal wall-clock measurement harness for the `crit_*` targets.
///
/// Runs a closure a configurable number of times after a warmup pass and
/// reports min / median / mean. Deliberately tiny: the `crit_*` benches
/// compare backends and watch for order-of-magnitude regressions, not
/// microsecond-level noise, so a full statistics framework is unnecessary
/// (and unavailable — the build is dependency-free by design).
pub mod timing {
    use std::time::{Duration, Instant};

    /// Summary statistics over the collected samples.
    #[derive(Debug, Clone, Copy)]
    pub struct Stats {
        /// Fastest sample.
        pub min: Duration,
        /// Middle sample (lower median for even counts).
        pub median: Duration,
        /// Arithmetic mean of all samples.
        pub mean: Duration,
        /// Number of samples taken.
        pub samples: usize,
    }

    impl Stats {
        /// `other.median / self.median` — how many times faster `self` is.
        pub fn speedup_over(&self, other: &Stats) -> f64 {
            other.median.as_secs_f64() / self.median.as_secs_f64()
        }

        /// Summarize a non-empty set of timed samples.
        pub fn from_samples(mut times: Vec<Duration>) -> Stats {
            assert!(!times.is_empty(), "need at least one sample");
            times.sort_unstable();
            let total: Duration = times.iter().sum();
            Stats {
                min: times[0],
                median: times[(times.len() - 1) / 2],
                mean: total / times.len() as u32,
                samples: times.len(),
            }
        }
    }

    /// Wall-clock of one call to `f`.
    pub fn time_once<R>(f: impl FnOnce() -> R) -> Duration {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed()
    }

    /// Time `f` over `samples` runs (after one untimed warmup run).
    pub fn measure<R>(samples: usize, mut f: impl FnMut() -> R) -> Stats {
        assert!(samples > 0, "need at least one sample");
        std::hint::black_box(f());
        Stats::from_samples((0..samples).map(|_| time_once(&mut f)).collect())
    }

    /// Render a duration with a sensible unit for table cells.
    pub fn fmt_duration(d: Duration) -> String {
        let s = d.as_secs_f64();
        if s >= 1.0 {
            format!("{s:.3}s")
        } else if s >= 1e-3 {
            format!("{:.3}ms", s * 1e3)
        } else {
            format!("{:.1}us", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", "Demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("long_header"));
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("t", "Demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(10, 4.0), "2.50");
        assert_eq!(ratio(10, 0.0), "-");
    }
}
