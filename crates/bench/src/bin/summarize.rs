//! One-stop dashboard: runs a benchmark through every organization and
//! prints the full picture — speedups with bars, service breakdown,
//! bandwidth, latency histogram, prediction cases.
//!
//! ```text
//! cargo run --release -p cameo-bench --bin summarize -- --bench gcc
//! ```
//!
//! With `--trace-json PATH` the binary instead reads a `--trace-out`
//! JSONL event dump, validates every line (and the `PATH.chrome.json`
//! sibling when present), and prints the per-epoch tables — swap rate,
//! LLP accuracy and stacked service rate over simulated time — without
//! simulating.

use cameo::llp::PredictionCase;
use cameo_bench::{print_header, usage_error, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;
use cameo_sim::report::{bar_chart, ratio, Table};
use cameo_sim::RunStats;

fn latency_histogram(stats: &RunStats) -> String {
    let mut out = String::new();
    let max = stats.latency_histogram.iter().max().copied().unwrap_or(0);
    if max == 0 {
        return out;
    }
    for (k, &count) in stats.latency_histogram.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let width = (count as f64 / max as f64 * 40.0).round() as usize;
        out.push_str(&format!(
            "  {:>9}+ cyc  {} {}\n",
            1u64 << k,
            "▉".repeat(width.max(1)),
            count
        ));
    }
    out
}

/// Strips `--trace-json PATH` from the argument list; in that mode the
/// artifact is tabulated and the process exits without simulating.
fn artifact_modes(args: Vec<String>) -> Vec<String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--trace-json" {
            let path = it
                .next()
                .unwrap_or_else(|| usage_error("--trace-json: needs a value"));
            trace_json_mode(std::path::Path::new(&path));
            std::process::exit(0);
        }
        rest.push(arg);
    }
    rest
}

/// Validates a `--trace-out` JSONL dump (and its Chrome-trace sibling,
/// when present) and prints the per-epoch tables.
fn trace_json_mode(path: &std::path::Path) {
    use cameo_bench::trace_export;
    let lines = trace_export::read_trace_jsonl(path).unwrap_or_else(|e| panic!("{e}"));
    let (mut points, mut events, mut epochs) = (0u64, 0u64, 0u64);
    for line in lines.iter().skip(1) {
        match line.get("kind").and_then(|k| k.as_str()) {
            Some("point") => points += 1,
            Some("event") => events += 1,
            Some("epoch") => epochs += 1,
            other => panic!("{}: unknown record kind {other:?}", path.display()),
        }
    }
    eprintln!(
        "[trace] {}: {points} traced point(s), {events} retained event(s), {epochs} epoch row(s)",
        path.display()
    );
    let chrome = trace_export::chrome_path(path);
    if chrome.exists() {
        let text = std::fs::read_to_string(&chrome)
            .unwrap_or_else(|e| panic!("reading {}: {e}", chrome.display()));
        let doc = cameo_sim::checkpoint::Json::parse(&text)
            .unwrap_or_else(|e| panic!("parsing {}: {e}", chrome.display()));
        match doc.get("traceEvents") {
            Some(cameo_sim::checkpoint::Json::Arr(items)) => {
                eprintln!(
                    "[trace] {}: {} trace event(s)",
                    chrome.display(),
                    items.len()
                );
            }
            other => panic!(
                "{}: traceEvents missing or not an array: {other:?}",
                chrome.display()
            ),
        }
    }
    println!("Epoch breakdown — {}\n", path.display());
    print!("{}", trace_export::epoch_table(&lines));
}

fn main() {
    let mut cli = Cli::from_args(artifact_modes(std::env::args().skip(1).collect()))
        .unwrap_or_else(|e| usage_error(&e));
    // The dashboard covers one benchmark: the first one named, or the
    // suite's first.
    cli.benches.truncate(1);
    let bench = cli.benches[0];
    print_header("summary", &cli);
    println!(
        "== {} ({}, L3 MPKI {}, footprint {:.1} GB full-scale) ==\n",
        bench.name,
        bench.category,
        bench.mpki,
        bench.footprint.as_gib()
    );

    let kinds = [
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::TlmFreq,
        OrgKind::cameo_default(),
        OrgKind::DoubleUse,
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);
    cli.emit_trace("summarize", &grid.report);
    let baseline = &grid.baselines[bench.name];
    let runs: Vec<(OrgKind, &RunStats)> = std::iter::once((OrgKind::Baseline, baseline))
        .chain(kinds.into_iter().zip(&grid.runs[bench.name]))
        .collect();

    // Speedup bars.
    let bars: Vec<(String, f64)> = runs
        .iter()
        .skip(1)
        .map(|(k, s)| (k.label().to_owned(), s.speedup_over(baseline)))
        .collect();
    println!("speedup over baseline:\n{}", bar_chart(&bars, 40));

    // Detail table.
    let mut table = Table::new(vec![
        "design",
        "CPI",
        "stacked%",
        "avg lat",
        "faults",
        "stacked BW",
        "off-chip BW",
        "storage BW",
    ]);
    for (kind, s) in &runs {
        let n = s.bandwidth.normalized_to(&baseline.bandwidth);
        table.row(vec![
            kind.label().to_owned(),
            format!("{:.2}", s.cpi()),
            format!("{:.0}", s.stacked_service_rate().unwrap_or(0.0) * 100.0),
            format!("{:.0}", s.avg_read_latency().unwrap_or(0.0)),
            s.faults.to_string(),
            ratio(n.stacked),
            ratio(n.off_chip),
            ratio(n.storage),
        ]);
    }
    cli.emit(&table);

    // CAMEO internals.
    if let Some((_, cameo_run)) = runs
        .iter()
        .find(|(k, _)| matches!(k, OrgKind::Cameo { .. }))
    {
        if let Some(cases) = cameo_run.cases {
            println!("\nCAMEO prediction cases (Table III taxonomy):");
            use PredictionCase::*;
            for (label, case) in [
                (
                    "stacked, predicted stacked  (fast)",
                    StackedPredictedStacked,
                ),
                (
                    "stacked, predicted off-chip (wasted BW)",
                    StackedPredictedOffChip,
                ),
                (
                    "off-chip, predicted stacked (slow)",
                    OffChipPredictedStacked,
                ),
                (
                    "off-chip, predicted right   (fast)",
                    OffChipPredictedCorrect,
                ),
                (
                    "off-chip, predicted wrong   (slow+BW)",
                    OffChipPredictedWrong,
                ),
            ] {
                println!(
                    "  {label:<42} {:>5.1}%",
                    cases.fraction(case).unwrap_or(0.0) * 100.0
                );
            }
            println!(
                "  overall accuracy: {:.1}%",
                cases.accuracy().unwrap_or(0.0) * 100.0
            );
        }
        println!("\nCAMEO read-latency distribution:");
        print!("{}", latency_histogram(cameo_run));
    }
}
