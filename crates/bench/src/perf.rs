//! The machine-readable host-performance artifact (`BENCH_sweep.json`).
//!
//! Every sweep binary can emit one JSON document (via `--bench-json PATH`,
//! see [`crate::Cli::emit_perf`]) recording how fast the *host* chewed
//! through the sweep: wall-clock per point and per sweep, and simulated
//! accesses/sec and cycles/sec throughput gauges. Checked-in artifacts
//! give future perf work a trajectory to regress against; `summarize
//! --perf-json PATH` renders any artifact as a table.
//!
//! Schema (`cameo-bench-sweep/1`): one object with sweep identity
//! (`sweep`, `jobs`, `config`), sweep totals (`wall_nanos`,
//! `sim_accesses`, `sim_cycles`, `accesses_per_sec`, `cycles_per_sec`,
//! `completed`/`failed`/`resumed`), host memory gauges
//! (`peak_rss_bytes`, `bytes_per_tracked_line` — `null` off Linux), and
//! a `point_metrics` array with one object per point (`key`,
//! `wall_nanos`, `accesses`, `cycles`, `resumed`). Simulated counters
//! are exact `u64`s; only derived rates are floats.

use std::path::Path;

use cameo_sim::checkpoint::{Json, PointRecord};
use cameo_sim::harness::{PointOutcome, SweepReport};
use cameo_sim::report::Table;
use cameo_sim::SystemConfig;

/// Schema identifier embedded in every artifact.
pub const SCHEMA: &str = "cameo-bench-sweep/1";

/// Peak resident-set size of this process in bytes, from the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`).
///
/// The kernel tracks the true peak continuously, so a single read at
/// artifact-write time covers the whole run — no sampling cadence to
/// miss a transient spike. `None` where procfs is absent (non-Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    status_field_kb("VmHWM:")
}

/// Current resident-set size of this process in bytes, from
/// `/proc/self/statm` (resident pages × page size).
///
/// This is the cheap per-sample gauge — one small procfs read — that the
/// memory-flatness checks sample at epoch boundaries. `None` where
/// procfs is absent (non-Linux).
pub fn current_rss_bytes() -> Option<u64> {
    let pages = statm_resident_pages()?;
    Some(pages * page_size_bytes())
}

fn statm_resident_pages() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

fn status_field_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// The system page size, inferred once by ratioing `VmRSS` (exact kB)
/// against the `statm` resident page count — procfs exposes no direct
/// page-size field and the build pulls in no libc crate for `sysconf`.
/// Rounded to the nearest power of two (the two reads race against
/// allocation, so the raw ratio jitters); falls back to 4 KiB.
fn page_size_bytes() -> u64 {
    static PAGE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *PAGE.get_or_init(|| {
        let inferred = || {
            let pages = statm_resident_pages()?;
            let rss = status_field_kb("VmRSS:")?;
            if pages == 0 {
                return None;
            }
            let ratio = rss / pages;
            if ratio == 0 {
                return None;
            }
            let floor = 1u64 << (63 - ratio.leading_zeros());
            let ceil = floor << 1;
            Some(if ratio - floor < ceil - ratio { floor } else { ceil })
        };
        inferred().unwrap_or(4096)
    })
}

/// Per-point load imbalance: the ratio of the slowest to the fastest
/// point's wall time, over points completed fresh in this run.
///
/// A ratio near 1 means the points cost about the same; a large ratio
/// means one point dominated the sweep's wall clock. `None` with fewer
/// than two fresh completed points, or when a point's wall time is zero
/// (clock granularity) — a ratio against ~0 ns is noise, not signal. Resumed
/// points are excluded: they re-ran only the tail of their work, so
/// their wall times are not comparable to fresh points'.
pub fn imbalance(report: &SweepReport) -> Option<f64> {
    let walls = report
        .outcomes
        .iter()
        .filter(|o| !o.resumed && matches!(o.record, PointRecord::Done { .. }))
        .map(|o| o.wall_nanos);
    let (min, max, n) = walls.fold((u64::MAX, 0u64, 0u64), |(lo, hi, n), w| {
        (lo.min(w), hi.max(w), n + 1)
    });
    (n >= 2 && min > 0).then(|| max as f64 / min as f64)
}

/// Builds the artifact document for a finished sweep.
pub fn sweep_json(
    sweep_name: &str,
    jobs: usize,
    config: &SystemConfig,
    report: &SweepReport,
) -> Json {
    let rate = |quantity: u64, wall_nanos: u64| {
        if wall_nanos > 0 {
            Json::F64(quantity as f64 / (wall_nanos as f64 / 1e9))
        } else {
            Json::Null
        }
    };
    let point_metrics: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| point_json(o, &rate))
        .collect();
    // The memory gauges: what the run peaked at, and what that peak
    // costs per simulated 64-byte line at this scale — the number the
    // full-scale work drives toward flat-and-small.
    let peak_rss = peak_rss_bytes();
    let tracked_lines = config.total_memory().lines();
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("sweep".into(), Json::Str(sweep_name.into())),
        ("jobs".into(), Json::U64(jobs as u64)),
        (
            "config".into(),
            Json::Obj(vec![
                ("scale".into(), Json::U64(config.scale)),
                ("cores".into(), Json::U64(u64::from(config.cores))),
                (
                    "instructions_per_core".into(),
                    Json::U64(config.instructions_per_core),
                ),
                ("seed".into(), Json::U64(config.seed)),
            ]),
        ),
        ("points".into(), Json::U64(report.outcomes.len() as u64)),
        ("completed".into(), Json::U64(report.completed() as u64)),
        ("failed".into(), Json::U64(report.failed() as u64)),
        ("resumed".into(), Json::U64(report.resumed() as u64)),
        ("wall_nanos".into(), Json::U64(report.wall_nanos)),
        ("sim_accesses".into(), Json::U64(report.sim_accesses())),
        ("sim_cycles".into(), Json::U64(report.sim_cycles())),
        (
            "accesses_per_sec".into(),
            rate(report.sim_accesses(), report.wall_nanos),
        ),
        (
            "cycles_per_sec".into(),
            rate(report.sim_cycles(), report.wall_nanos),
        ),
        (
            "imbalance".into(),
            imbalance(report).map_or(Json::Null, Json::F64),
        ),
        (
            "peak_rss_bytes".into(),
            peak_rss.map_or(Json::Null, Json::U64),
        ),
        (
            "bytes_per_tracked_line".into(),
            match (peak_rss, tracked_lines) {
                (Some(rss), lines) if lines > 0 => Json::F64(rss as f64 / lines as f64),
                _ => Json::Null,
            },
        ),
        ("point_metrics".into(), Json::Arr(point_metrics)),
    ])
}

fn point_json(outcome: &PointOutcome, rate: &impl Fn(u64, u64) -> Json) -> Json {
    let mut fields = vec![
        ("key".into(), Json::Str(outcome.point.key.clone())),
        ("resumed".into(), Json::Bool(outcome.resumed)),
        ("wall_nanos".into(), Json::U64(outcome.wall_nanos)),
    ];
    match &outcome.record {
        PointRecord::Done { stats, .. } => {
            fields.push(("accesses".into(), Json::U64(stats.accesses())));
            fields.push(("cycles".into(), Json::U64(stats.execution_cycles)));
            fields.push((
                "accesses_per_sec".into(),
                rate(stats.accesses(), outcome.wall_nanos),
            ));
        }
        PointRecord::Failed { error, .. } => {
            fields.push(("error".into(), Json::Str(error.clone())));
        }
    }
    Json::Obj(fields)
}

/// Renders and writes the artifact for a finished sweep.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_sweep_json(
    path: &Path,
    sweep_name: &str,
    jobs: usize,
    config: &SystemConfig,
    report: &SweepReport,
) -> std::io::Result<()> {
    let mut text = sweep_json(sweep_name, jobs, config, report).render();
    text.push('\n');
    std::fs::write(path, text)
}

/// Reads an artifact back into its [`Json`] document.
///
/// # Errors
///
/// Returns a description of the I/O or parse failure.
pub fn read_sweep_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn u64_of(json: &Json, key: &str) -> u64 {
    match json.get(key) {
        Some(Json::U64(v)) => *v,
        _ => 0,
    }
}

fn str_of<'j>(json: &'j Json, key: &str) -> &'j str {
    match json.get(key) {
        Some(Json::Str(s)) => s,
        _ => "?",
    }
}

fn seconds(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn rate_cell(quantity: u64, wall_nanos: u64) -> String {
    if wall_nanos == 0 {
        return "-".to_owned();
    }
    format!("{:.0}", quantity as f64 / seconds(wall_nanos))
}

/// Renders an artifact as a per-point throughput / wall-time table with a
/// sweep-total footer row.
pub fn perf_table(doc: &Json) -> Table {
    let mut table = Table::new(vec![
        "point".to_owned(),
        "wall s".to_owned(),
        "accesses".to_owned(),
        "acc/s".to_owned(),
        "note".to_owned(),
    ]);
    if let Some(Json::Arr(points)) = doc.get("point_metrics") {
        for p in points {
            let note = if matches!(p.get("resumed"), Some(Json::Bool(true))) {
                "resumed"
            } else if p.get("error").is_some() {
                "FAILED"
            } else {
                ""
            };
            table.row(vec![
                str_of(p, "key").to_owned(),
                format!("{:.3}", seconds(u64_of(p, "wall_nanos"))),
                u64_of(p, "accesses").to_string(),
                rate_cell(u64_of(p, "accesses"), u64_of(p, "wall_nanos")),
                note.to_owned(),
            ]);
        }
    }
    let wall = u64_of(doc, "wall_nanos");
    let imbalance_note = match doc.get("imbalance") {
        Some(Json::F64(r)) => format!(" / imbalance {r:.2}x"),
        _ => String::new(),
    };
    let rss_note = match doc.get("peak_rss_bytes") {
        Some(Json::U64(rss)) => {
            let per_line = match doc.get("bytes_per_tracked_line") {
                Some(Json::F64(b)) => format!(" ({b:.2} B/line)"),
                _ => String::new(),
            };
            format!(" / peak rss {:.1} MiB{per_line}", *rss as f64 / f64::from(1 << 20))
        }
        _ => String::new(),
    };
    table.row(vec![
        format!(
            "TOTAL ({}, --jobs {})",
            str_of(doc, "sweep"),
            u64_of(doc, "jobs")
        ),
        format!("{:.3}", seconds(wall)),
        u64_of(doc, "sim_accesses").to_string(),
        rate_cell(u64_of(doc, "sim_accesses"), wall),
        format!(
            "{} done / {} failed / {} resumed{imbalance_note}{rss_note}",
            u64_of(doc, "completed"),
            u64_of(doc, "failed"),
            u64_of(doc, "resumed"),
        ),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_sim::experiments::OrgKind;
    use cameo_sim::harness::{run_sweep, SweepOptions, SweepPoint};

    fn tiny_report() -> (SweepReport, SystemConfig) {
        let config = SystemConfig {
            scale: 8192,
            cores: 2,
            instructions_per_core: 20_000,
            warmup_fraction: 0.2,
            ..SystemConfig::default()
        };
        let opts = SweepOptions {
            config,
            max_attempts: 1,
            ..SweepOptions::default()
        };
        let points = [SweepPoint::new("astar", OrgKind::Baseline)];
        (
            run_sweep(&points, &opts, None).expect("no checkpoint I/O involved"),
            config,
        )
    }

    #[test]
    fn artifact_round_trips_and_tabulates() {
        let (report, config) = tiny_report();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_bench_sweep_{}.json", std::process::id()));
        write_sweep_json(&path, "unit-test", 2, &config, &report).expect("tmp write");
        let doc = read_sweep_json(&path).expect("artifact parses");
        assert_eq!(str_of(&doc, "schema"), SCHEMA);
        assert_eq!(str_of(&doc, "sweep"), "unit-test");
        assert_eq!(u64_of(&doc, "jobs"), 2);
        assert_eq!(u64_of(&doc, "points"), 1);
        assert_eq!(u64_of(&doc, "completed"), 1);
        assert_eq!(u64_of(&doc, "sim_accesses"), report.sim_accesses());
        assert!(u64_of(&doc, "wall_nanos") > 0);
        assert!(matches!(doc.get("accesses_per_sec"), Some(Json::F64(v)) if *v > 0.0));

        let rendered = perf_table(&doc).to_string();
        assert!(rendered.contains("astar::Baseline"), "{rendered}");
        assert!(rendered.contains("TOTAL"), "{rendered}");
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    #[test]
    fn imbalance_is_max_over_min_of_fresh_completed_walls() {
        let config = SystemConfig {
            scale: 8192,
            cores: 2,
            instructions_per_core: 20_000,
            warmup_fraction: 0.2,
            ..SystemConfig::default()
        };
        let opts = SweepOptions {
            config,
            max_attempts: 1,
            ..SweepOptions::default()
        };
        let points = [
            SweepPoint::new("astar", OrgKind::Baseline),
            SweepPoint::new("mcf", OrgKind::Baseline),
        ];
        let mut report = run_sweep(&points, &opts, None).expect("no checkpoint I/O involved");
        report.outcomes[0].wall_nanos = 100;
        report.outcomes[1].wall_nanos = 250;
        assert_eq!(imbalance(&report), Some(2.5));

        let doc = sweep_json("unit-test", 1, &config, &report);
        assert!(matches!(doc.get("imbalance"), Some(Json::F64(v)) if *v == 2.5));
        let rendered = perf_table(&doc).to_string();
        assert!(rendered.contains("imbalance 2.50x"), "{rendered}");

        // A resumed point is excluded, leaving one fresh point: no ratio.
        report.outcomes[1].resumed = true;
        assert_eq!(imbalance(&report), None);

        // Zero-wall points (clock granularity) yield no ratio either.
        report.outcomes[1].resumed = false;
        report.outcomes[1].wall_nanos = 0;
        assert_eq!(imbalance(&report), None);
    }

    /// On Linux the procfs probes yield sane, ordered values and the
    /// artifact carries both memory gauges (elsewhere they render null).
    #[test]
    fn rss_gauges_land_in_the_artifact() {
        let (report, config) = tiny_report();
        let doc = sweep_json("unit-test", 1, &config, &report);
        if cfg!(target_os = "linux") {
            let peak = peak_rss_bytes().expect("procfs present on Linux");
            let current = current_rss_bytes().expect("procfs present on Linux");
            // A test process is at least a megabyte and the high-water
            // mark can never undercut the current residency (beyond the
            // jitter of two non-atomic procfs reads).
            assert!(peak > 1 << 20, "peak {peak} bytes is implausibly small");
            assert!(current > 1 << 20);
            assert!(peak * 2 >= current, "peak {peak} < current {current}");
            assert!(u64_of(&doc, "peak_rss_bytes") > 0);
            let per_line = match doc.get("bytes_per_tracked_line") {
                Some(Json::F64(b)) => *b,
                other => panic!("bytes_per_tracked_line missing: {other:?}"),
            };
            let expected = u64_of(&doc, "peak_rss_bytes") as f64
                / config.total_memory().lines() as f64;
            assert!((per_line - expected).abs() < 1e-6);
            let rendered = perf_table(&doc).to_string();
            assert!(rendered.contains("peak rss"), "{rendered}");
            assert!(rendered.contains("B/line"), "{rendered}");
        } else {
            assert_eq!(doc.get("peak_rss_bytes"), Some(&Json::Null));
        }
    }

    #[test]
    fn unreadable_artifact_is_an_error_value() {
        let missing = std::env::temp_dir().join("cameo_bench_sweep_nonexistent.json");
        assert!(read_sweep_json(&missing).is_err());
    }
}
