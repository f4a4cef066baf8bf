//! Runs every table/figure harness (in parallel, sharing the
//! process-wide engine cache), then the paper oracle
//! ([`jetsim::observations`]), and writes results/ + a summary.
use std::fmt::Write as _;

fn main() -> std::io::Result<()> {
    let wall = std::time::Instant::now();
    let mut summary = String::from("# jetsim — regenerated tables and figures\n\n");
    let mut figures = jetsim_bench::figures::all_parallel();
    let checks = jetsim::observations::check_all();
    figures.push(jetsim_bench::FigureResult {
        id: "observations",
        title: "The paper's anchors and boxed observations, checked",
        tables: vec![("checks".to_string(), jetsim::observations::table(&checks))],
    });
    for fig in figures {
        fig.print();
        fig.save_csv()?;
        writeln!(summary, "## {} — {}\n", fig.id, fig.title).unwrap();
        for (name, table) in &fig.tables {
            writeln!(summary, "### {name}\n\n{table}").unwrap();
        }
    }
    std::fs::create_dir_all(jetsim_bench::results_dir())?;
    std::fs::write(jetsim_bench::results_dir().join("summary.md"), summary)?;
    let cache = jetsim_trt::EngineCache::global().stats();
    println!(
        "\nresults written to {} in {:.1}s (engine cache: {} built, {} hits, {:.0}% hit rate)",
        jetsim_bench::results_dir().display(),
        wall.elapsed().as_secs_f64(),
        cache.misses,
        cache.hits,
        cache.hit_rate() * 100.0,
    );
    Ok(())
}
