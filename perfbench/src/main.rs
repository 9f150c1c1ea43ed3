//! `perfbench`: one pass of a benchmark workload through the CAMEO
//! simulator's public API, printed as one JSON record on stdout.
//!
//! ```text
//! perfbench run    --workload NAME --seed N [--size full|tiny] [--serial]
//! perfbench trace  --workload NAME --seed N [--size full|tiny] [--spans PATH]
//! perfbench replay --workload NAME --seed N [--size full|tiny]
//! ```
//!
//! `run` is an untraced pass in the workload's measured configuration;
//! `--serial` runs it point after point instead of through the sweep
//! harness. `trace` is a traced serial pass. `replay` replays the
//! workload's Baseline and CAMEO points through standalone layers.
//! `run.py` next to this crate builds it, runs passes, checks their
//! results and reports the metrics.

mod drive;
mod host;
mod json;
mod layers;
mod replay;
mod shim;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use cameo_sim::RunStats;

use crate::drive::{run_harness, run_serial, Pass, PointRun};
use crate::host::{mib, peak_rss_bytes, Clock};
use crate::json::Json;
use crate::replay::{replay_point, replayable, Replay};
use crate::shim::{Phases, Probe};
use crate::workload::{Size, Workload};

/// A traced pass samples one access in this many.
const SAMPLE_EVERY: u64 = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Trace,
    Replay,
}

struct Args {
    mode: Mode,
    workload: &'static Workload,
    seed: u64,
    size: Size,
    serial: bool,
    spans: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench run|trace|replay --workload NAME --seed N \
                     [--size full|tiny] [--serial] [--spans PATH]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mode = match args.next().as_deref() {
        Some("run") => Mode::Run,
        Some("trace") => Mode::Trace,
        Some("replay") => Mode::Replay,
        _ => return Err(USAGE.to_owned()),
    };
    let mut workload = None;
    let mut seed = None;
    let mut size = Size::Full;
    let mut serial = false;
    let mut spans = None;
    while let Some(flag) = args.next() {
        if flag == "--serial" {
            serial = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--size" => {
                size = Size::parse(&value).ok_or_else(|| format!("unknown size {value}"))?
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        size,
        serial,
        spans,
    })
}

/// Every public field of a point's statistics.
fn stats_json(s: &RunStats) -> Json {
    let b = &s.bandwidth;
    Json::obj()
        .with("org", s.org.as_str())
        .with("bench", s.bench.as_str())
        .with("execution_cycles", s.execution_cycles)
        .with("instructions", s.instructions)
        .with("demand_reads", s.demand_reads)
        .with("demand_writes", s.demand_writes)
        .with("serviced_stacked", s.serviced_stacked)
        .with("serviced_off_chip", s.serviced_off_chip)
        .with("faults", s.faults)
        .with(
            "bandwidth",
            vec![b.stacked_bytes, b.off_chip_bytes, b.storage_bytes],
        )
        .with("cases", s.cases.map(|c| c.to_array().to_vec()))
        .with("migrated_pages", s.migrated_pages)
        .with("read_latency_sum", s.read_latency_sum)
        .with("latency_histogram", s.latency_histogram.to_vec())
}

/// The conservation checks `RunStats::audit` makes under `deep-audit`,
/// recomputed from public fields.
fn conservation(s: &RunStats) -> Result<(), String> {
    let serviced = s.serviced_stacked + s.serviced_off_chip;
    if serviced > s.demand_reads {
        return Err(format!(
            "serviced reads {serviced} exceed demand reads {}",
            s.demand_reads
        ));
    }
    let histogram: u64 = s.latency_histogram.iter().sum();
    if histogram != s.demand_reads {
        return Err(format!(
            "latency histogram counts {histogram} reads, demand reads are {}",
            s.demand_reads
        ));
    }
    Ok(())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn phases_json(p: &Phases) -> Json {
    Json::obj()
        .with("build_s", secs(p.build))
        .with("prefill_s", secs(p.prefill))
        .with("warmup_s", secs(p.warmup))
        .with("measured_s", secs(p.measured))
}

/// A point's record, and its statistics if every check passed.
fn point_json(run: &PointRun) -> (Json, Option<&RunStats>) {
    let checked = match (&run.outcome, &run.log) {
        (Err(e), _) => Err(e.clone()),
        (Ok(_), None) => Err("the organization shim left no log".to_owned()),
        (Ok(_), Some(log)) if !log.complete => {
            Err("the session ended without reading final statistics".to_owned())
        }
        (Ok(stats), Some(_)) => conservation(stats).map(|()| stats),
    };
    let mut j = Json::obj()
        .with("key", run.point.key.as_str())
        .with("bench", run.point.bench.as_str())
        .with("org", run.point.kind.label())
        .with("ok", checked.is_ok())
        .with("error", checked.as_ref().err().cloned())
        .with("busy_s", secs(run.busy_ns));
    if let Some(log) = &run.log {
        j.set("phases", phases_json(&log.phases));
        j.set("accesses", log.accesses);
    }
    if let Ok(stats) = &run.outcome {
        j.set("stats", stats_json(stats));
    }
    (j, checked.ok())
}

/// A pass's record: its points, phase accounting and host metrics.
/// `setup + warmup + measured + residue = jobs × wall`; the residue is
/// harness and between-point time (and, with several jobs, idle
/// workers).
fn pass_json(pass: &Pass) -> Json {
    let mut phases = Phases::default();
    let mut measured_accesses = 0u64;
    let mut serviced = 0u64;
    let mut busy = 0u64;
    let mut points = Vec::with_capacity(pass.points.len());
    for run in &pass.points {
        let (j, ok) = point_json(run);
        points.push(j);
        busy += run.busy_ns;
        if let (Some(stats), Some(log)) = (ok, &run.log) {
            phases.add(&log.phases);
            measured_accesses += stats.accesses();
            serviced += log.accesses;
        }
    }
    let capacity = pass.wall_ns as f64 * pass.jobs as f64;
    let residue = capacity - phases.total() as f64;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    Json::obj()
        .with("jobs", pass.jobs)
        .with("wall_s", secs(pass.wall_ns))
        .with("setup_s", secs(phases.setup()))
        .with(
            "phases",
            phases_json(&phases).with("residue_s", residue / 1e9),
        )
        .with("measured_accesses", measured_accesses)
        .with(
            "measured_ns_per_access",
            per(phases.measured, measured_accesses),
        )
        .with(
            "efficiency",
            if capacity > 0.0 {
                busy as f64 / capacity
            } else {
                0.0
            },
        )
        .with("busy_ns_per_access", per(busy, serviced))
        .with("points", Json::Arr(points))
}

fn replay_json(key: &str, replay: &Result<Replay, String>) -> Json {
    let j = Json::obj().with("key", key);
    match replay {
        Err(e) => j.with("ok", false).with("error", e.as_str()),
        Ok(r) => {
            let error = (!r.matches()).then(|| {
                r.first_mismatch.clone().unwrap_or_else(|| {
                    "replayed bus traffic differs from the organization's".to_owned()
                })
            });
            j.with("ok", error.is_none())
                .with("error", error)
                .with("accesses", r.accesses)
                .with("mismatches", r.mismatches)
                .with("stats", stats_json(&r.stats))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cfg = w.config(args.seed, args.size);
    let points = w.points();
    let mut record = Json::obj()
        .with(
            "mode",
            match args.mode {
                Mode::Run => "run",
                Mode::Trace => "trace",
                Mode::Replay => "replay",
            },
        )
        .with("workload", w.name)
        .with("seed", args.seed)
        .with(
            "size",
            match args.size {
                Size::Full => "full",
                Size::Tiny => "tiny",
            },
        );
    match args.mode {
        Mode::Run => {
            let pass = if w.jobs > 1 && !args.serial {
                match run_harness(&points, &cfg, w.jobs, w.chunk) {
                    Ok(pass) => pass,
                    Err(e) => {
                        eprintln!("perfbench: sweep failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                run_serial(&points, &cfg, None, 0)
            };
            record.set("pass", pass_json(&pass));
        }
        Mode::Trace => {
            let clock = Clock::new();
            let read_ns = clock.read_cost_ns();
            let probe = Probe::new(clock);
            let pass = run_serial(&points, &cfg, Some(&probe), SAMPLE_EVERY);
            if let Some(path) = &args.spans {
                match layers::write_spans(path, w.name, &pass, &clock) {
                    Ok(n) => record.set("spans_written", n),
                    Err(e) => {
                        eprintln!("perfbench: writing {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            let samples: usize = pass
                .points
                .iter()
                .filter_map(|r| r.log.as_ref())
                .map(|l| l.samples.len())
                .sum();
            record.set(
                "layers",
                layers::pass_layers(&pass, probe.prefill_list_ns(), read_ns),
            );
            record.set("read_cost_ns", read_ns);
            record.set("every", SAMPLE_EVERY);
            record.set("samples", samples);
            record.set("pass", pass_json(&pass));
        }
        Mode::Replay => {
            let clock = Clock::new();
            let read_ns = clock.read_cost_ns();
            let mut matched = Vec::new();
            let mut replays = Vec::new();
            for point in points.iter().filter(|p| replayable(p.kind)) {
                let replay = replay_point(point, &cfg, &clock);
                replays.push(replay_json(&point.key, &replay));
                matched.extend(replay.ok().filter(Replay::matches));
            }
            record.set("layers", layers::replay_layers(&matched, read_ns));
            record.set("replays", Json::Arr(replays));
        }
    }
    record.set("peak_rss_mib", peak_rss_bytes().map(mib));
    println!("{record}");
    ExitCode::SUCCESS
}
