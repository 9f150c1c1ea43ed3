//! Golden-conformance route for `ext_designs`: the binary's exact point
//! set (the org × device design matrix over the calibration benchmark,
//! baseline included, under the device-encoded key scheme of
//! `designs::sweep_points`) replayed at the micro configuration and
//! byte-compared against a checked-in reference.
//!
//! This mirrors the fig09/fig12/fig13 and fullscale golden suites: per
//! point, the byte-exact checkpoint record and a trace-totals line, so
//! drift in either simulated results or event emission fails loudly.
//! Accept an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cameo-bench --test golden_designs
//! git diff crates/bench/tests/golden/   # review, then commit
//! ```

use std::path::PathBuf;

use cameo_bench::designs::{self, device_of_key};
use cameo_sim::checkpoint::{render_record, Json};
use cameo_sim::experiments::build_org_traced_on;
use cameo_sim::harness::{run_sweep_traced_with, SweepOptions, SweepPoint, SweepReport};
use cameo_sim::trace::{SharedSink, TraceData, TraceOptions};
use cameo_sim::SystemConfig;

/// The micro configuration shared with the other golden suites: small
/// enough for every `cargo test`, large enough that every design swaps,
/// predicts, caches and migrates.
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

/// The point set `ext_designs` runs: the flat baseline plus the full
/// design matrix on the calibration benchmark, under device-encoded keys.
fn design_points() -> Vec<SweepPoint> {
    let benches = vec![cameo_workloads::require("mcf").expect("suite benchmark")];
    designs::sweep_points(&benches, &designs::designs())
}

/// Runs the design point set with tracing armed, building each point per
/// its `(organization, device)` pair exactly as `ext_designs` does.
fn run_design_sweep(opts: &SweepOptions) -> SweepReport {
    run_sweep_traced_with(&design_points(), opts, None, &|point, config| {
        let bench = cameo_workloads::require(&point.bench).expect("suite benchmark");
        let sink = SharedSink::new(TraceOptions::default());
        let org = build_org_traced_on(
            &bench,
            point.kind,
            device_of_key(&point.key),
            config,
            sink.clone(),
        );
        (org, Some(sink))
    })
    .expect("mcf resolves and the micro config is valid")
}

/// Event-recording totals rendered as one JSON line (the same shape as
/// the other golden suites' totals line).
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
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/designs.jsonl")
}

/// The `ext_designs` micro-sweep is bit-stable at micro scale.
#[test]
fn golden_designs_conformance() {
    let report = run_design_sweep(&micro());
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
             regenerate with: UPDATE_GOLDEN=1 cargo test -p cameo-bench --test golden_designs",
            path.display()
        )
    });
    if rendered != expected {
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "golden designs drifted at line {}: simulated results or \
                 event counts changed; if intentional, regenerate with \
                 UPDATE_GOLDEN=1 and review the diff (DESIGN.md §17)",
                i + 1
            );
        }
        panic!(
            "golden designs: line count changed ({} now vs {} expected)",
            rendered.lines().count(),
            expected.lines().count()
        );
    }
}

/// The acceptance-criterion determinism check: the design sweep's report
/// is bit-identical at any `--jobs` / `--chunk` combination.
#[test]
fn design_sweep_is_identical_at_any_jobs_and_chunk() {
    let serial = run_design_sweep(&micro());
    let chunked = run_design_sweep(&SweepOptions {
        jobs: 4,
        chunk_accesses: Some(64),
        ..micro()
    });
    assert_eq!(serial, chunked, "jobs/chunk must be invisible in results");
    assert_eq!(render_report(&serial), render_report(&chunked));
}
