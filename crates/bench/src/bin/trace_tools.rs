//! Trace tooling: record benchmark miss streams to `.cameotrace` files,
//! inspect them, and replay them through any memory organization.
//!
//! ```text
//! trace_tools record <bench> <out-file> [--events N] [--scale N] [--seed N]
//! trace_tools info   <file>
//! trace_tools replay <file> [--org cameo|cache|baseline]
//! ```

use cameo_bench::outln;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use cameo_sim::experiments::{build_org, OrgKind};
use cameo_sim::runner::Runner;
use cameo_sim::SystemConfig;
use cameo_trace::{TraceFile, TraceWriter};
use cameo_workloads::{require, MissStream, TraceConfig, TraceGenerator};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_tools record <bench> <out-file> [--events N] [--scale N] [--seed N]\n  \
         trace_tools info <file>\n  trace_tools replay <file> [--org cameo|cache|baseline]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The argument after flag `name` in `args`, `None` when the flag is
/// absent. A flag without a value is an error, never the default.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(i + 1).ok_or(format!("{name} needs a value"))?;
    Ok(Some(value))
}

/// The unsigned integer value of flag `name` in `args`, or `default` when
/// the flag is absent. A value that does not parse is an error.
fn flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    flag_value(args, name)?.map_or(Ok(default), |value| {
        value
            .parse()
            .map_err(|_| format!("{name} {value}: not an unsigned integer"))
    })
}

fn record(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (name, path) = match (args.first(), args.get(1)) {
        (Some(n), Some(p)) => (n.clone(), p.clone()),
        _ => return Err("record needs <bench> <out-file>".into()),
    };
    let spec = require(&name)?;
    let events = flag(args, "--events", 100_000)?;
    let scale = flag(args, "--scale", 128)?;
    let seed = flag(args, "--seed", 42)?;
    if scale == 0 {
        return Err("--scale 0: the scale factor must be at least 1".into());
    }
    if events == 0 {
        return Err("--events 0: a trace needs at least one event to replay".into());
    }
    let mut generator = TraceGenerator::new(
        spec,
        TraceConfig {
            scale,
            seed,
            core_offset_pages: 0,
        },
    );
    let sink = BufWriter::new(File::create(&path)?);
    TraceWriter::record(sink, &name, &mut generator, events)?;
    outln!("recorded {events} events of {name} (scale 1/{scale}, seed {seed}) to {path}");
    Ok(())
}

fn info(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("info needs <file>")?;
    let trace = TraceFile::read(BufReader::new(File::open(path)?))?;
    let reads = trace.events.iter().filter(|e| !e.is_write).count();
    let instructions: u64 = trace.events.iter().map(|e| e.gap_instructions).sum();
    let pages: cameo_types::DetHashSet<u64> =
        trace.events.iter().map(|e| e.line.page().raw()).collect();
    outln!("name:        {}", trace.name);
    outln!("events:      {}", trace.events.len());
    outln!("reads:       {reads}");
    outln!("writes:      {}", trace.events.len() - reads);
    outln!(
        "mpki:        {:.1}",
        trace.events.len() as f64 * 1000.0 / instructions.max(1) as f64
    );
    outln!(
        "pages:       {} touched / {} footprint",
        pages.len(),
        trace.footprint_pages
    );
    Ok(())
}

fn replay(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("replay needs <file>")?;
    let kind = match flag_value(args, "--org")? {
        None | Some("cameo") => OrgKind::cameo_default(),
        Some("cache") => OrgKind::AlloyCache,
        Some("baseline") => OrgKind::Baseline,
        Some(other) => return Err(format!("unknown org {other}").into()),
    };
    let trace = TraceFile::read(BufReader::new(File::open(path)?))?;
    let spec = require(&trace.name)?;
    let config = SystemConfig {
        cores: 1,
        instructions_per_core: 2_000_000,
        ..SystemConfig::default()
    };
    let mut org = build_org(&spec, kind, &config);
    let replay: Box<dyn MissStream> = Box::new(trace.into_replay());
    let stats = Runner::new(spec, &config)?.run_with_streams(org.as_mut(), vec![replay]);
    outln!(
        "{} on {}: CPI {:.2}, {} reads ({:.0}% stacked), avg latency {:.0} cycles, {} faults",
        kind.label(),
        stats.bench,
        stats.cpi(),
        stats.demand_reads,
        stats.stacked_service_rate().unwrap_or(0.0) * 100.0,
        stats.avg_read_latency().unwrap_or(0.0),
        stats.faults,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_or_fail_loudly() {
        assert_eq!(flag(&args("mcf out"), "--events", 7), Ok(7));
        assert_eq!(
            flag(&args("mcf out --events 1000"), "--events", 7),
            Ok(1000)
        );
        for bad in ["1e3", "-5", "ten", ""] {
            let line = format!("mcf out --events {bad}");
            assert!(flag(&args(&line), "--events", 7).is_err(), "{line}");
        }
        assert_eq!(
            flag_value(&args("t --org cache"), "--org"),
            Ok(Some("cache"))
        );
        assert_eq!(flag_value(&args("t"), "--org"), Ok(None));
        assert!(flag_value(&args("t --org"), "--org").is_err());
    }

    #[test]
    fn zero_scale_or_events_is_an_error_not_a_panic() {
        for flag in ["--scale", "--events"] {
            // A directory that does not exist: should the check regress,
            // creating the output file fails instead of writing one.
            let line = format!("mcf no-such-dir/never-written.cameotrace {flag} 0");
            let err = record(&args(&line)).unwrap_err();
            assert!(err.to_string().contains(&format!("{flag} 0")), "{err}");
        }
    }
}
