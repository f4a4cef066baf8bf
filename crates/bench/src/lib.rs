//! Figure-regeneration harnesses for the ISPASS 2025 Jetson paper.
//!
//! Every table and figure of the paper's evaluation has a function in
//! [`figures`] that reruns the underlying experiment on the simulated
//! platforms and prints the same rows/series the paper reports. The
//! `repro` binary is the front door (`repro --list`, `repro fig06_concurrent_orin`);
//! `repro_all` runs the lot in parallel and writes `results/*.csv` plus
//! a summary. The `bench` binary regenerates or checks the committed
//! `BENCH_*.json` baselines under the one rule in [`baseline`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod baseline;
pub mod figures;

use std::path::PathBuf;

use jetsim::report::Table;

/// Where harness binaries drop their CSV output.
pub fn results_dir() -> PathBuf {
    std::env::var_os("JETSIM_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// A named harness entry: the constructor for one table/figure.
pub type Harness = fn() -> FigureResult;

/// One regenerated table/figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier, e.g. `fig06`.
    pub id: &'static str,
    /// Human title matching the paper's caption.
    pub title: &'static str,
    /// Named tables (a figure may have several panels).
    pub tables: Vec<(String, Table)>,
}

impl FigureResult {
    /// Prints the figure to stdout in markdown.
    pub fn print(&self) {
        println!("## {} — {}\n", self.id, self.title);
        for (name, table) in &self.tables {
            println!("### {name}\n\n{table}");
        }
    }

    /// Saves every panel as `results/<id>_<panel>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_csv(&self) -> std::io::Result<()> {
        for (name, table) in &self.tables {
            let slug: String = name
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            table.save_csv(results_dir().join(format!("{}_{slug}.csv", self.id)))?;
        }
        Ok(())
    }
}
