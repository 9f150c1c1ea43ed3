//! Extension experiment: frequency-filtered swapping (the combination the
//! paper sketches at the end of Section VI-D — "CAMEO can retain lines from
//! only heavily used pages in stacked DRAM").
//!
//! Compares base CAMEO against hot-pages-only swapping at several
//! thresholds: the filter trades first-touch hit rate for reduced swap
//! churn, which pays off exactly on the streaming-heavy workloads where
//! base CAMEO's install traffic hurts.
//!
//! Points run through the sweep harness, so `--jobs` and `--chunk` apply.
//! The filtered organizations are built untraced, so `--trace-out` is an
//! error here.

use cameo::{LltDesign, PredictorKind, SwapPolicy};
use cameo_bench::{outln, print_header, usage_error, Cli};
use cameo_sim::checkpoint::PointRecord;
use cameo_sim::experiments::{build_org, OrgKind};
use cameo_sim::harness::{run_sweep_with, PointOutcome, SweepOptions, SweepPoint};
use cameo_sim::org::{CameoOrg, MemoryOrganization};
use cameo_sim::report::Table;
use cameo_sim::{RunStats, SystemConfig};

/// Swap-filter thresholds swept, one column each.
const THRESHOLDS: [u8; 3] = [2, 4, 8];

/// Sweep key of `bench`'s CAMEO point filtered at `threshold`.
fn filter_key(bench: &str, threshold: u8) -> String {
    format!("{bench}::CAMEO-filter{threshold}")
}

/// Statistics of a completed point; a failed point ends the binary, as a
/// missing column would.
fn done(outcome: &PointOutcome) -> &RunStats {
    match &outcome.record {
        PointRecord::Done { stats, .. } => stats,
        PointRecord::Failed { error, .. } => {
            panic!("point {} failed: {error}", outcome.point.key)
        }
    }
}

fn main() {
    let cli = Cli::parse();
    if cli.trace_out.is_some() {
        usage_error("--trace-out: ext_swap_filter runs untraced organizations and writes no trace");
    }
    print_header("Extension — frequency-filtered swapping", &cli);

    // Per benchmark: the baseline, base CAMEO, then one filtered CAMEO per
    // threshold.
    let mut points = Vec::new();
    for bench in &cli.benches {
        points.push(SweepPoint::new(bench.name, OrgKind::Baseline));
        points.push(SweepPoint::new(bench.name, OrgKind::cameo_default()));
        for threshold in THRESHOLDS {
            points.push(
                SweepPoint::new(bench.name, OrgKind::cameo_default())
                    .with_key(filter_key(bench.name, threshold)),
            );
        }
    }
    let build = |point: &SweepPoint, cfg: &SystemConfig| -> Box<dyn MemoryOrganization> {
        let filter = THRESHOLDS
            .into_iter()
            .find(|&t| point.key == filter_key(&point.bench, t));
        match filter {
            Some(threshold) => Box::new(
                CameoOrg::new(
                    cfg.stacked(),
                    cfg.off_chip(),
                    LltDesign::CoLocated,
                    PredictorKind::Llp,
                    cfg.cores,
                    cfg.llp_entries,
                    cfg.seed ^ 0xBEEF,
                )
                .with_swap_policy(SwapPolicy::HotPagesOnly { threshold }),
            ),
            None => {
                let bench = cameo_workloads::by_name(&point.bench)
                    .expect("the harness resolved the benchmark before building the organization");
                build_org(&bench, point.kind, cfg)
            }
        }
    };
    eprintln!(
        "[sweep] {} points across {} worker(s)",
        points.len(),
        cli.jobs.max(1)
    );
    let opts = SweepOptions {
        config: cli.config,
        jobs: cli.jobs,
        chunk_accesses: cli.chunk,
        ..SweepOptions::default()
    };
    let report = run_sweep_with(&points, &opts, None, &build)
        .unwrap_or_else(|e| panic!("sweep failed before any checkpointing: {e}"));

    let mut headers = vec!["bench".to_owned(), "CAMEO".to_owned()];
    headers.extend(THRESHOLDS.iter().map(|t| format!("filter(>= {t})")));
    let mut table = Table::new(headers);
    let per_bench = 2 + THRESHOLDS.len();
    for (bench, outcomes) in cli.benches.iter().zip(report.outcomes.chunks(per_bench)) {
        let baseline = done(&outcomes[0]);
        let mut row = vec![bench.name.to_owned()];
        row.extend(
            outcomes[1..]
                .iter()
                .map(|o| format!("{:.2}x", done(o).speedup_over(baseline))),
        );
        table.row(row);
    }
    outln!("Frequency-filtered CAMEO — speedup over baseline\n");
    cli.emit(&table);
    outln!(
        "\nA 48 KB page-activity filter (64K x 6-bit counters) gates swaps;\n\
         higher thresholds swap less and keep streaming data from churning\n\
         the stacked contents."
    );
}
