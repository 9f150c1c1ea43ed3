//! Extension: the fig13 headline micro-slice replayed down a halving
//! scale ladder — 128 → 64 → … → `--scale` — ending, at `--scale 1`, at
//! the paper's full 4 GiB stacked + 12 GiB off-chip machine (~256 Mi
//! tracked lines).
//!
//! This is a *capacity* experiment, not a throughput one: the instruction
//! slice stays fixed and calibrated-small while the memory system grows
//! 128-fold, and the per-rung resident-set gauges (current / peak RSS,
//! bytes per tracked line) in the ladder table show that the
//! permutation-coded LLT, the sparse lazy page tables and the streaming
//! trace path keep host memory flat. On the deepest rung the
//! `--trace-out` path streams ring-evicted epochs to `PATH.epochs/`
//! instead of holding them in memory.
//!
//! Calibration: `--cores` / `--instructions` / `--bench` left at the
//! experiment defaults are replaced by the micro-slice values (2 cores,
//! 300 k instructions, `mcf`); pass non-default values to size the slice
//! by hand.

use cameo_bench::{fullscale, outln, print_header, Cli, SpeedupGrid};
use cameo_sim::report::Table;

/// Formats an optional byte gauge as MiB for the ladder table.
fn mib(bytes: Option<u64>) -> String {
    bytes.map_or_else(
        || "n/a".to_owned(),
        |b| format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
    )
}

fn main() {
    let cli = fullscale::calibrate(Cli::parse());
    print_header("Extension — full-scale ladder (fig13 micro-slice)", &cli);
    let kinds = fullscale::kinds();
    let rungs = fullscale::ladder(cli.config.scale);
    let deepest = *rungs
        .last()
        .expect("the ladder always ends at the requested scale");

    let mut ladder_table = Table::new(vec![
        "scale".to_owned(),
        "stacked".to_owned(),
        "tracked lines".to_owned(),
        "gmean CAMEO".to_owned(),
        "rss now MiB".to_owned(),
        "rss peak MiB".to_owned(),
        "B/line".to_owned(),
    ]);
    // Only the deepest rung traces; check its path before any rung runs.
    cli.prepare_trace_out();
    let mut last: Option<(Cli, SpeedupGrid)> = None;
    for &scale in &rungs {
        let mut rung = cli.clone();
        rung.config.scale = scale;
        if scale != deepest {
            // The trace describes the deepest (headline) rung only.
            rung.trace_out = None;
        }
        let grid = SpeedupGrid::collect(&kinds, &rung);
        let tracked_lines = rung.config.total_memory().lines();
        let peak = fullscale::peak_rss_bytes();
        let per_line = peak.map(|b| b as f64 / tracked_lines as f64);
        ladder_table.row(vec![
            format!("1/{scale}"),
            rung.config.stacked().to_string(),
            tracked_lines.to_string(),
            format!("{:.2}x", grid.gmean_all(3)),
            mib(fullscale::current_rss_bytes()),
            mib(peak),
            per_line.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.2}")),
        ]);
        if scale == deepest {
            rung.emit_trace("ext_fullscale", &grid.report);
            last = Some((rung, grid));
        }
    }

    outln!("Extension — resident set down the scale ladder\n");
    cli.emit(&ladder_table);
    let (rung, grid) = last.expect("the ladder ran at least its deepest rung");
    outln!(
        "\nFull-scale rung (scale 1/{}) — speedup with stacked memory\n",
        rung.config.scale
    );
    cli.emit(&grid.speedup_table());
    if !cli.csv {
        outln!("\nGmean ALL:\n{}", grid.gmean_chart());
    }
    outln!(
        "\npaper machine at --scale 1: 4 GiB stacked + 12 GiB off-chip; a flat \
         resident set well under the stacked capacity is the pass condition \
         (the rss peak MiB column above)"
    );
}
