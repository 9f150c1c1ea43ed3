//! Golden-conformance route for `ext_fullscale`: the binary's exact point
//! set (the fig13 headline micro-slice, baseline included, built by
//! `SpeedupGrid::points` under its column-indexed keys) replayed at the
//! micro configuration through the grid's own builder and byte-compared
//! against a checked-in reference.
//!
//! This mirrors the fig09/fig12/fig13 golden suite in
//! `tests/end_to_end.rs`: per point, the byte-exact checkpoint record and
//! a trace-totals line, so drift in either simulated results or event
//! emission fails loudly. Accept an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cameo-bench --test golden_fullscale
//! git diff crates/bench/tests/golden/   # review, then commit
//! ```

use std::path::PathBuf;

use cameo_bench::{build_point, fullscale, Column, SpeedupGrid};
use cameo_sim::checkpoint::{render_record, Json};
use cameo_sim::harness::{run_sweep_traced_with, SweepOptions, SweepPoint, SweepReport};
use cameo_sim::trace::{SharedSink, TraceData, TraceOptions};
use cameo_sim::SystemConfig;

/// The micro configuration shared with the root golden suite: small
/// enough for every `cargo test`, large enough that every design swaps,
/// predicts and migrates.
fn micro() -> SweepOptions {
    SweepOptions {
        config: SystemConfig {
            scale: 512,
            cores: 2,
            instructions_per_core: 60_000,
            seed: 42,
            ..SystemConfig::default()
        },
        // One attempt, serial: a golden must fail, not retry-and-drift.
        max_attempts: 1,
        jobs: 1,
        ..SweepOptions::default()
    }
}

/// The point set `ext_fullscale` runs at every rung: the calibration
/// benchmark against baseline plus the headline columns.
fn fullscale_points() -> Vec<SweepPoint> {
    let benches = vec![cameo_workloads::require("mcf").expect("suite benchmark")];
    SpeedupGrid::points(&benches, &fullscale::kinds().map(Column::from))
}

/// Event-recording totals rendered as one JSON line (the same shape as
/// the root golden suite's totals line).
fn totals_line(key: &str, trace: &TraceData) -> String {
    let t = trace.totals();
    Json::Obj(vec![
        ("key".to_owned(), Json::Str(key.to_owned())),
        ("events".to_owned(), Json::U64(trace.event_count())),
        ("epochs".to_owned(), Json::U64(trace.epochs.epoch_count())),
        ("swaps".to_owned(), Json::U64(t.swaps)),
        ("llt_probes".to_owned(), Json::U64(t.llt_probes)),
        ("predicts".to_owned(), Json::U64(t.predicts)),
        ("predicts_correct".to_owned(), Json::U64(t.predicts_correct)),
        ("stacked_serviced".to_owned(), Json::U64(t.stacked_serviced)),
        (
            "off_chip_serviced".to_owned(),
            Json::U64(t.off_chip_serviced),
        ),
        ("row_hits".to_owned(), Json::U64(t.row_hits)),
        ("row_closed".to_owned(), Json::U64(t.row_closed)),
        ("row_conflicts".to_owned(), Json::U64(t.row_conflicts)),
        ("migrated_pages".to_owned(), Json::U64(t.migrated_pages)),
        ("recovery_actions".to_owned(), Json::U64(t.recovery_actions)),
    ])
    .render()
}

/// Renders a finished sweep to the golden text: alternating checkpoint
/// record and trace-totals lines, in canonical point order.
fn render_report(report: &SweepReport) -> String {
    let mut out = String::new();
    for outcome in &report.outcomes {
        out.push_str(&render_record(&outcome.point.key, &outcome.record));
        out.push('\n');
        let trace = outcome
            .trace
            .as_ref()
            .expect("fresh serial traced sweeps record every point");
        out.push_str(&totals_line(&outcome.point.key, trace));
        out.push('\n');
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fullscale.jsonl")
}

/// The `ext_fullscale` micro-slice is bit-stable at micro scale.
#[test]
fn golden_fullscale_conformance() {
    let report = run_sweep_traced_with(&fullscale_points(), &micro(), None, &|point, config| {
        build_point(
            point,
            config,
            Some(SharedSink::new(TraceOptions::default())),
        )
    })
    .expect("mcf resolves and the micro config is valid");
    let rendered = render_report(&report);
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading golden {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test -p cameo-bench --test golden_fullscale",
            path.display()
        )
    });
    if rendered != expected {
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "golden fullscale drifted at line {}: simulated results or \
                 event counts changed; if intentional, regenerate with \
                 UPDATE_GOLDEN=1 and review the diff (DESIGN.md §11)",
                i + 1
            );
        }
        panic!(
            "golden fullscale: line count changed ({} now vs {} expected)",
            rendered.lines().count(),
            expected.lines().count()
        );
    }
}
