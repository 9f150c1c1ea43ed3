//! Integration: record a trace, replay it through the full system, and
//! check the replayed run agrees with a live-generated one.

use cameo_repro::sim::experiments::{build_org, OrgKind};
use cameo_repro::sim::runner::{trace_configs, Runner};
use cameo_repro::sim::SystemConfig;
use cameo_repro::trace::{TraceFile, TraceWriter};
use cameo_repro::workloads::{require, MissStream, TraceGenerator};

fn config() -> SystemConfig {
    SystemConfig {
        scale: 512,
        cores: 2,
        instructions_per_core: 120_000,
        ..SystemConfig::default()
    }
}

/// Replaying recorded streams feeds the organization the *same events* as
/// the live generators; the only divergence allowed is OS page placement
/// (the prefill orders differ: contiguous ranges vs. sorted touched
/// pages), which perturbs frame assignment and hence exact cycle counts.
#[test]
fn replay_reproduces_live_run() {
    let cfg = config();
    let bench = require("xalancbmk").expect("suite benchmark");

    // Live run.
    let mut live_org = build_org(&bench, OrgKind::cameo_default(), &cfg);
    let live = Runner::new(bench, &cfg)
        .expect("valid test config")
        .run(live_org.as_mut());

    // Record each core's stream with ample headroom, then replay.
    let events_per_core = cfg.expected_events_per_core(bench.mpki) * 2;
    let streams: Vec<Box<dyn MissStream>> = trace_configs(&bench, &cfg)
        .into_iter()
        .map(|tc| {
            let mut generator = TraceGenerator::new(bench, tc);
            let bytes =
                TraceWriter::record(Vec::new(), bench.name, &mut generator, events_per_core)
                    .expect("record");
            Box::new(TraceFile::parse(&bytes).expect("parse").into_replay()) as Box<dyn MissStream>
        })
        .collect();
    let mut replay_org = build_org(&bench, OrgKind::cameo_default(), &cfg);
    let replayed = Runner::new(bench, &cfg)
        .expect("valid test config")
        .run_with_streams(replay_org.as_mut(), streams);

    // Identical event streams: demand counts agree up to the warmup
    // boundary, whose exact event index shifts with timing interleaving.
    let close = |a: u64, b: u64, what: &str| {
        let diff = a.abs_diff(b);
        assert!(diff * 100 <= a.max(b).max(1) * 2, "{what}: {a} vs {b}");
    };
    close(live.demand_reads, replayed.demand_reads, "reads");
    close(live.demand_writes, replayed.demand_writes, "writes");
    // Placement-order divergence perturbs timing only slightly.
    let cycle_ratio = replayed.execution_cycles as f64 / live.execution_cycles as f64;
    assert!(
        (0.85..=1.15).contains(&cycle_ratio),
        "cycle ratio {cycle_ratio:.3}"
    );
    let live_rate = live.stacked_service_rate().unwrap();
    let replay_rate = replayed.stacked_service_rate().unwrap();
    assert!(
        (live_rate - replay_rate).abs() < 0.05,
        "stacked rate {live_rate:.3} vs {replay_rate:.3}"
    );
}

/// A short recording wraps around and the run still completes with sane
/// statistics (wrapping re-plays the same working set, which is a valid —
/// highly cyclic — workload).
#[test]
fn short_recording_wraps_and_completes() {
    let cfg = config();
    let bench = require("astar").expect("suite benchmark");
    let mut generator = TraceGenerator::new(bench, trace_configs(&bench, &cfg)[0]);
    // astar at this config produces ~220 events per core: a 50-event
    // recording must wrap several times.
    let bytes = TraceWriter::record(Vec::new(), bench.name, &mut generator, 50).expect("record");
    let replay = TraceFile::parse(&bytes).expect("parse").into_replay();
    let mut org = build_org(&bench, OrgKind::AlloyCache, &cfg);
    let single_core = SystemConfig { cores: 1, ..cfg };
    let stats = Runner::new(bench, &single_core)
        .expect("valid test config")
        .run_with_streams(org.as_mut(), vec![Box::new(replay)]);
    assert!(stats.demand_reads + stats.demand_writes > 50); // must have wrapped
    assert!(stats.execution_cycles > 0);
    // A cyclic 500-event working set is tiny: the cache should end up
    // servicing nearly everything.
    assert!(stats.stacked_service_rate().unwrap() > 0.8);
}

/// The prefill contract: replay prefill covers exactly the pages the
/// recording touches.
#[test]
fn replay_prefill_matches_touched_pages() {
    let cfg = config();
    let bench = require("sphinx3").expect("suite benchmark");
    let mut generator = TraceGenerator::new(bench, trace_configs(&bench, &cfg)[1]);
    let bytes = TraceWriter::record(Vec::new(), bench.name, &mut generator, 2_000).expect("record");
    let trace = TraceFile::parse(&bytes).expect("parse");
    let touched: cameo_repro::types::DetHashSet<u64> =
        trace.events.iter().map(|e| e.line.page().raw()).collect();
    let replay = trace.into_replay();
    let prefill: cameo_repro::types::DetHashSet<u64> = MissStream::prefill_pages(&replay)
        .into_iter()
        .map(cameo_repro::types::PageAddr::raw)
        .collect();
    assert_eq!(touched, prefill);
}
