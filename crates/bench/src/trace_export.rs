//! Trace exporters: JSONL event/epoch dumps and Chrome-trace output.
//!
//! A sweep run with `--trace-out PATH` (any figure binary) arms the
//! recording sink and writes two artifacts when it finishes:
//!
//! * `PATH` — JSONL, one self-contained object per line:
//!
//!   ```text
//!   {"schema":"cameo-trace-events/1","sweep":"fig12_llp","points":9}
//!   {"kind":"point","key":"mcf::#0","events":812,"retained":812,"dropped":0,"epoch_cycles":100000}
//!   {"kind":"event","key":"mcf::#0","cycle":512,"name":"swap","group":7}
//!   {"kind":"epoch","key":"mcf::#0","epoch":0,"start_cycle":0,"swaps":31,...}
//!   ```
//!
//!   Event lines carry the typed payload of each [`TraceEvent`] variant
//!   under its stable [`TraceEvent::name`]; epoch lines carry every
//!   [`EpochCounters`] field. `summarize --trace-json PATH` parses the
//!   file back and prints the per-epoch tables.
//!
//! * `PATH.chrome.json` — a Chrome-trace (`chrome://tracing` /
//!   <https://ui.perfetto.dev>) document: one "process" per design point
//!   (named by its key), instant events for the retained raw stream, and
//!   per-epoch counter tracks for service mix, swaps and prediction
//!   accuracy. Timestamps are simulated cycles.
//!
//! Counters are exact `u64`s end to end — both formats ride on the
//! dependency-free [`Json`] codec from [`cameo_sim::checkpoint`].
//!
//! This module is the one place trace events are serialized: one schema,
//! one writer, no drift.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use cameo_sim::checkpoint::Json;
use cameo_sim::harness::SweepReport;
use cameo_sim::report::Table;
use cameo_sim::trace::{EpochCounters, TraceData};
use cameo_types::{Cycle, TraceEvent};

/// Schema identifier on the JSONL header line.
pub const SCHEMA: &str = "cameo-trace-events/1";

/// The Chrome-trace sibling of a JSONL dump path: `PATH.chrome.json`.
pub fn chrome_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".chrome.json");
    PathBuf::from(name)
}

/// The typed payload of one event, as JSON object fields.
fn event_fields(event: &TraceEvent) -> Vec<(String, Json)> {
    match event {
        TraceEvent::Swap { group } | TraceEvent::LltProbe { group } => {
            vec![("group".into(), Json::U64(*group))]
        }
        TraceEvent::LlpPredict { correct } => vec![("correct".into(), Json::Bool(*correct))],
        TraceEvent::RecoveryAction { kind } => {
            vec![("action".into(), Json::Str(kind.label().into()))]
        }
        TraceEvent::PageMigration { pages } => {
            vec![("pages".into(), Json::U64(u64::from(*pages)))]
        }
        TraceEvent::RowBufferOutcome {
            stacked,
            hits,
            closed,
            conflicts,
        } => vec![
            ("stacked".into(), Json::Bool(*stacked)),
            ("hits".into(), Json::U64(u64::from(*hits))),
            ("closed".into(), Json::U64(u64::from(*closed))),
            ("conflicts".into(), Json::U64(u64::from(*conflicts))),
        ],
        TraceEvent::Service { stacked } => vec![("stacked".into(), Json::Bool(*stacked))],
    }
}

/// One JSONL event line.
fn event_line(key: &str, now: Cycle, event: &TraceEvent) -> Json {
    let mut fields = vec![
        ("kind".to_owned(), Json::Str("event".into())),
        ("key".to_owned(), Json::Str(key.to_owned())),
        ("cycle".to_owned(), Json::U64(now.raw())),
        ("name".to_owned(), Json::Str(event.name().into())),
    ];
    fields.extend(event_fields(event));
    Json::Obj(fields)
}

/// Every counter of one epoch, as JSON object fields.
fn counter_fields(c: &EpochCounters) -> Vec<(String, Json)> {
    [
        ("swaps", c.swaps),
        ("llt_probes", c.llt_probes),
        ("predicts", c.predicts),
        ("predicts_correct", c.predicts_correct),
        ("stacked_serviced", c.stacked_serviced),
        ("off_chip_serviced", c.off_chip_serviced),
        ("row_hits", c.row_hits),
        ("row_closed", c.row_closed),
        ("row_conflicts", c.row_conflicts),
        ("migrated_pages", c.migrated_pages),
        ("recovery_actions", c.recovery_actions),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), Json::U64(v)))
    .collect()
}

/// One JSONL epoch line.
fn epoch_line(key: &str, index: u64, epoch_cycles: u64, c: &EpochCounters) -> Json {
    let mut fields = vec![
        ("kind".to_owned(), Json::Str("epoch".into())),
        ("key".to_owned(), Json::Str(key.to_owned())),
        ("epoch".to_owned(), Json::U64(index)),
        (
            "start_cycle".to_owned(),
            Json::U64(index.saturating_mul(epoch_cycles)),
        ),
    ];
    fields.extend(counter_fields(c));
    Json::Obj(fields)
}

/// The merged counters of every epoch the bounded ring evicted before the
/// run finished, as one summary line — written ahead of the retained
/// epoch lines so the file still accounts for the whole run.
fn spilled_line(key: &str, spilled_epochs: u64, c: &EpochCounters) -> Json {
    let mut fields = vec![
        ("kind".to_owned(), Json::Str("epoch_spill".into())),
        ("key".to_owned(), Json::Str(key.to_owned())),
        ("spilled_epochs".to_owned(), Json::U64(spilled_epochs)),
    ];
    fields.extend(counter_fields(c));
    Json::Obj(fields)
}

/// Returns a spill hook for [`cameo_sim::trace::SharedSink::with_spill`]
/// that appends one epoch JSONL line (same shape as the dump's `"epoch"`
/// lines, keyed by `key`) to `path` per evicted epoch, flushed per line
/// so a kill loses nothing.
///
/// This is how a paper-scale run streams its epoch series to disk while
/// the in-memory ring stays bounded: the spill file holds the evicted
/// prefix, the end-of-run dump holds the retained tail. The file and its
/// directory are created at the first evicted epoch, so a run whose ring
/// never fills leaves no file behind. If they cannot be created, the hook
/// says so once on stderr and the point keeps ring-only retention.
pub fn epoch_spill_writer(
    path: PathBuf,
    key: &str,
    epoch_cycles: u64,
) -> cameo_sim::trace::EpochSpillFn {
    let key = key.to_owned();
    // `None` until the first eviction; `Some(None)` once creating failed.
    let mut file: Option<Option<std::io::BufWriter<std::fs::File>>> = None;
    Box::new(move |index, c: &EpochCounters| {
        let file = file.get_or_insert_with(|| {
            let created = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::File::create(&path));
            created
                .map_err(|e| eprintln!("[trace] spill writer {}: {e}", path.display()))
                .ok()
                .map(std::io::BufWriter::new)
        });
        if let Some(file) = file {
            // Spills are rare (one per epoch beyond the cap); flushing each
            // line keeps the file whole no matter when the run dies.
            let _ = writeln!(
                file,
                "{}",
                epoch_line(&key, index, epoch_cycles, c).render()
            );
            let _ = file.flush();
        }
    })
}

/// One Chrome-trace instant event (`ph: "i"`).
fn chrome_instant(pid: u64, now: Cycle, event: &TraceEvent) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(event.name().into())),
        ("ph".into(), Json::Str("i".into())),
        ("ts".into(), Json::U64(now.raw())),
        ("pid".into(), Json::U64(pid)),
        ("tid".into(), Json::U64(0)),
        ("s".into(), Json::Str("t".into())),
        ("args".into(), Json::Obj(event_fields(event))),
    ])
}

/// One Chrome-trace counter sample (`ph: "C"`).
fn chrome_counter(pid: u64, name: &str, ts: u64, series: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str("C".into())),
        ("ts".into(), Json::U64(ts)),
        ("pid".into(), Json::U64(pid)),
        ("args".into(), Json::Obj(series)),
    ])
}

/// The Chrome-trace events of one point's recording.
fn chrome_events_of(pid: u64, key: &str, trace: &TraceData, out: &mut Vec<Json>) {
    out.push(Json::Obj(vec![
        ("name".into(), Json::Str("process_name".into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::U64(pid)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(key.to_owned()))]),
        ),
    ]));
    for (now, event) in &trace.events {
        out.push(chrome_instant(pid, *now, event));
    }
    let epoch_cycles = trace.epochs.epoch_cycles();
    for (i, c) in trace.epochs.retained() {
        let ts = i.saturating_mul(epoch_cycles);
        out.push(chrome_counter(
            pid,
            "serviced",
            ts,
            vec![
                ("stacked".into(), Json::U64(c.stacked_serviced)),
                ("off_chip".into(), Json::U64(c.off_chip_serviced)),
            ],
        ));
        out.push(chrome_counter(
            pid,
            "swaps",
            ts,
            vec![("swaps".into(), Json::U64(c.swaps))],
        ));
        if c.predicts > 0 {
            out.push(chrome_counter(
                pid,
                "llp_accuracy_pct",
                ts,
                vec![(
                    "correct".into(),
                    Json::F64(c.prediction_accuracy().unwrap_or(0.0) * 100.0),
                )],
            ));
        }
    }
}

/// Writes the JSONL dump to `path` and the Chrome-trace document to
/// [`chrome_path`]`(path)` for every traced point in the report.
///
/// Points without a recording (failed, resumed, or from an untraced
/// sweep) contribute nothing; a fully untraced report still produces
/// valid (headers-only) artifacts.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_trace_artifacts(
    path: &Path,
    sweep_name: &str,
    report: &SweepReport,
) -> std::io::Result<()> {
    let mut jsonl = std::io::BufWriter::new(std::fs::File::create(path)?);
    let header = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("sweep".into(), Json::Str(sweep_name.into())),
        ("points".into(), Json::U64(report.outcomes.len() as u64)),
    ]);
    writeln!(jsonl, "{}", header.render())?;
    let mut chrome_events = Vec::new();
    for (pid, outcome) in report.outcomes.iter().enumerate() {
        let Some(trace) = &outcome.trace else {
            continue;
        };
        let key = &outcome.point.key;
        let point = Json::Obj(vec![
            ("kind".into(), Json::Str("point".into())),
            ("key".into(), Json::Str(key.clone())),
            ("events".into(), Json::U64(trace.event_count())),
            ("retained".into(), Json::U64(trace.events.len() as u64)),
            ("dropped".into(), Json::U64(trace.dropped_events)),
            (
                "epoch_cycles".into(),
                Json::U64(trace.epochs.epoch_cycles()),
            ),
        ]);
        writeln!(jsonl, "{}", point.render())?;
        for (now, event) in &trace.events {
            writeln!(jsonl, "{}", event_line(key, *now, event).render())?;
        }
        let epoch_cycles = trace.epochs.epoch_cycles();
        if trace.epochs.spilled_epochs() > 0 {
            let line = spilled_line(
                key,
                trace.epochs.spilled_epochs(),
                trace.epochs.spilled_totals(),
            );
            writeln!(jsonl, "{}", line.render())?;
        }
        for (i, c) in trace.epochs.retained() {
            writeln!(jsonl, "{}", epoch_line(key, i, epoch_cycles, c).render())?;
        }
        chrome_events_of(pid as u64, key, trace, &mut chrome_events);
    }
    jsonl.flush()?;

    let chrome = Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(chrome_events)),
        ("displayTimeUnit".into(), Json::Str("ns".into())),
    ]);
    let mut text = chrome.render();
    text.push('\n');
    std::fs::write(chrome_path(path), text)
}

/// Reads a JSONL dump back, validating every line, and returns the parsed
/// line objects.
///
/// # Errors
///
/// Returns a description naming the first malformed line — unlike the
/// checkpoint loader, a trace dump is written in one piece, so *any*
/// corruption is an error.
pub fn read_trace_jsonl(path: &Path) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            Json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        lines.push(value);
    }
    match lines
        .first()
        .and_then(|h| h.get("schema"))
        .and_then(Json::as_str)
    {
        Some(SCHEMA) => Ok(lines),
        other => Err(format!(
            "{}: header schema is {other:?}, want {SCHEMA:?}",
            path.display()
        )),
    }
}

fn u64_of(json: &Json, key: &str) -> u64 {
    match json.get(key) {
        Some(Json::U64(v)) => *v,
        _ => 0,
    }
}

fn pct(numer: u64, denom: u64) -> String {
    if denom == 0 {
        return "-".to_owned();
    }
    format!("{:.1}", numer as f64 / denom as f64 * 100.0)
}

/// Renders the epoch lines of a parsed dump as a per-point, per-epoch
/// table: service mix, swap rate, prediction accuracy, row-buffer hits.
pub fn epoch_table(lines: &[Json]) -> Table {
    let mut table = Table::new(vec![
        "point".to_owned(),
        "epoch".to_owned(),
        "serviced".to_owned(),
        "stacked%".to_owned(),
        "swaps".to_owned(),
        "LLP acc%".to_owned(),
        "row hit%".to_owned(),
        "migr".to_owned(),
        "recov".to_owned(),
    ]);
    for line in lines {
        if line.get("kind").and_then(Json::as_str) != Some("epoch") {
            continue;
        }
        let stacked = u64_of(line, "stacked_serviced");
        let serviced = stacked + u64_of(line, "off_chip_serviced");
        let row_hits = u64_of(line, "row_hits");
        let row_total = row_hits + u64_of(line, "row_closed") + u64_of(line, "row_conflicts");
        table.row(vec![
            line.get("key")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            u64_of(line, "epoch").to_string(),
            serviced.to_string(),
            pct(stacked, serviced),
            u64_of(line, "swaps").to_string(),
            pct(u64_of(line, "predicts_correct"), u64_of(line, "predicts")),
            pct(row_hits, row_total),
            u64_of(line, "migrated_pages").to_string(),
            u64_of(line, "recovery_actions").to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_sim::experiments::OrgKind;
    use cameo_sim::harness::{run_sweep_traced_with, SweepOptions, SweepPoint};
    use cameo_sim::trace::{SharedSink, TraceOptions};
    use cameo_sim::SystemConfig;

    fn traced_report() -> SweepReport {
        let opts = SweepOptions {
            config: SystemConfig {
                scale: 8192,
                cores: 2,
                instructions_per_core: 20_000,
                warmup_fraction: 0.2,
                ..SystemConfig::default()
            },
            max_attempts: 1,
            ..SweepOptions::default()
        };
        let points = [
            SweepPoint::new("astar", OrgKind::cameo_default()),
            SweepPoint::new("astar", OrgKind::Baseline),
        ];
        run_sweep_traced_with(&points, &opts, None, &|point, config| {
            crate::build_point(
                point,
                config,
                Some(SharedSink::new(TraceOptions::default())),
            )
        })
        .expect("no checkpoint I/O involved")
    }

    #[test]
    fn artifacts_round_trip_and_tabulate() {
        let report = traced_report();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_trace_dump_{}.jsonl", std::process::id()));
        write_trace_artifacts(&path, "unit-test", &report).expect("tmp write");

        let lines = read_trace_jsonl(&path).expect("every JSONL line parses");
        assert_eq!(
            lines[0].get("sweep").and_then(Json::as_str),
            Some("unit-test")
        );
        let kinds: Vec<&str> = lines
            .iter()
            .skip(1)
            .filter_map(|l| l.get("kind").and_then(Json::as_str))
            .collect();
        assert!(kinds.contains(&"point"));
        assert!(kinds.contains(&"event"));
        assert!(kinds.contains(&"epoch"));
        // CAMEO emitted service events; their payloads survive the trip.
        assert!(lines.iter().any(|l| {
            l.get("kind").and_then(Json::as_str) == Some("event")
                && l.get("name").and_then(Json::as_str) == Some("service")
        }));

        let rendered = epoch_table(&lines).to_string();
        assert!(rendered.contains("astar::CAMEO"), "{rendered}");

        let chrome = chrome_path(&path);
        let doc = Json::parse(&std::fs::read_to_string(&chrome).expect("chrome sibling written"))
            .expect("chrome document parses");
        match doc.get("traceEvents") {
            Some(Json::Arr(events)) => {
                assert!(!events.is_empty());
                assert!(events
                    .iter()
                    .any(|e| { e.get("ph").and_then(Json::as_str) == Some("C") }));
                assert!(events
                    .iter()
                    .any(|e| { e.get("ph").and_then(Json::as_str) == Some("M") }));
            }
            other => panic!("traceEvents missing: {other:?}"),
        }
        std::fs::remove_file(&path).expect("tmp cleanup");
        std::fs::remove_file(&chrome).expect("tmp cleanup");
    }

    #[test]
    fn bad_schema_and_corrupt_lines_are_errors() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_trace_bad_{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"schema\":\"other/9\"}\n").expect("tmp write");
        assert!(read_trace_jsonl(&path)
            .expect_err("wrong schema")
            .contains("schema"));
        std::fs::write(
            &path,
            format!("{{\"schema\":\"{SCHEMA}\"}}\n{{\"kind\":\"ev"),
        )
        .expect("tmp write");
        assert!(read_trace_jsonl(&path)
            .expect_err("truncated line")
            .contains("line 2"));
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    #[test]
    fn chrome_path_appends_suffix() {
        assert_eq!(
            chrome_path(Path::new("/tmp/fig12.trace")),
            PathBuf::from("/tmp/fig12.trace.chrome.json")
        );
    }

    /// A spill writer creates its directory and file at the first evicted
    /// epoch, so a run whose ring never fills leaves nothing on disk.
    #[test]
    fn spill_file_appears_at_the_first_eviction() {
        let dir = std::env::temp_dir().join(format!("cameo_spill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("mcf___0.jsonl");
        let mut spill = epoch_spill_writer(path.clone(), "mcf::#0", 100);
        assert!(!dir.exists(), "nothing is created before an epoch spills");
        spill(3, &EpochCounters::default());
        spill(4, &EpochCounters::default());
        let text = std::fs::read_to_string(&path).expect("the first eviction created the file");
        std::fs::remove_dir_all(&dir).expect("tmp cleanup");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).expect("spilled lines are JSON");
        assert_eq!(first.get("key").and_then(Json::as_str), Some("mcf::#0"));
    }
}
