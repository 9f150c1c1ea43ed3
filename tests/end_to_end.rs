//! End-to-end integration tests spanning all crates: every organization
//! driven by real workload traces through the full runner.

use cameo_repro::sim::experiments::{build_org, run_benchmark, OrgKind};
use cameo_repro::sim::runner::Runner;
use cameo_repro::sim::SystemConfig;
use cameo_repro::workloads::{require, suite};

fn quick() -> SystemConfig {
    SystemConfig {
        scale: 512,
        cores: 2,
        instructions_per_core: 150_000,
        ..SystemConfig::default()
    }
}

fn all_kinds() -> Vec<OrgKind> {
    use cameo_repro::cameo::{LltDesign, PredictorKind};
    vec![
        OrgKind::Baseline,
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::TlmFreq,
        OrgKind::TlmOracle,
        OrgKind::Cameo {
            llt: LltDesign::Ideal,
            predictor: PredictorKind::SerialAccess,
        },
        OrgKind::Cameo {
            llt: LltDesign::Embedded,
            predictor: PredictorKind::SerialAccess,
        },
        OrgKind::Cameo {
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::SerialAccess,
        },
        OrgKind::cameo_default(),
        OrgKind::Cameo {
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::Perfect,
        },
        OrgKind::DoubleUse,
    ]
}

#[test]
fn every_org_runs_every_category() {
    let cfg = quick();
    for bench in [
        require("astar").expect("suite benchmark"),
        require("zeusmp").expect("suite benchmark"),
    ] {
        for kind in all_kinds() {
            let stats = run_benchmark(&bench, kind, &cfg);
            assert!(
                stats.execution_cycles > 0,
                "{} {}",
                bench.name,
                kind.label()
            );
            assert!(stats.demand_reads > 0, "{} {}", bench.name, kind.label());
            assert_eq!(
                stats.demand_reads,
                stats.serviced_stacked + stats.serviced_off_chip + stats.faults_on_reads(),
                "{} {}: service counts must partition reads",
                bench.name,
                kind.label()
            );
        }
    }
}

/// Service counts partition: reads = stacked + off-chip + fault-serviced.
trait FaultReads {
    fn faults_on_reads(&self) -> u64;
}
impl FaultReads for cameo_repro::sim::RunStats {
    fn faults_on_reads(&self) -> u64 {
        self.demand_reads - self.serviced_stacked - self.serviced_off_chip
    }
}

#[test]
fn runs_are_deterministic_across_kinds() {
    let cfg = quick();
    let bench = require("soplex").expect("suite benchmark");
    for kind in [OrgKind::cameo_default(), OrgKind::TlmDynamic] {
        let a = run_benchmark(&bench, kind, &cfg);
        let b = run_benchmark(&bench, kind, &cfg);
        assert_eq!(a.execution_cycles, b.execution_cycles, "{}", kind.label());
        assert_eq!(a.bandwidth, b.bandwidth, "{}", kind.label());
        assert_eq!(a.faults, b.faults, "{}", kind.label());
    }
}

#[test]
fn seeds_change_results() {
    let bench = require("soplex").expect("suite benchmark");
    let a = run_benchmark(&bench, OrgKind::Baseline, &quick());
    let cfg_b = SystemConfig {
        seed: 1234,
        ..quick()
    };
    let b = run_benchmark(&bench, OrgKind::Baseline, &cfg_b);
    assert_ne!(a.execution_cycles, b.execution_cycles);
}

#[test]
fn visible_capacity_ordering() {
    // Cache < CAMEO(CoLocated) < TLM == DoubleUse: the capacity story of
    // Figure 1.
    let cfg = quick();
    let bench = require("astar").expect("suite benchmark");
    let cap = |kind| build_org(&bench, kind, &cfg).visible_capacity();
    let cache = cap(OrgKind::AlloyCache);
    let cameo = cap(OrgKind::cameo_default());
    let tlm = cap(OrgKind::TlmStatic);
    let double = cap(OrgKind::DoubleUse);
    assert!(cache < cameo, "cache {cache} !< cameo {cameo}");
    assert!(cameo < tlm, "cameo {cameo} !< tlm {tlm}");
    assert_eq!(tlm, double);
    assert_eq!(cache, cfg.off_chip());
    assert_eq!(tlm, cfg.total_memory());
}

#[test]
fn capacity_workload_prefers_capacity_designs() {
    // A footprint far beyond off-chip memory: designs that add visible
    // capacity must beat the cache, which cannot reduce paging.
    let cfg = SystemConfig {
        scale: 512,
        cores: 2,
        instructions_per_core: 400_000,
        ..SystemConfig::default()
    };
    let bench = require("lbm").expect("suite benchmark");
    let baseline = run_benchmark(&bench, OrgKind::Baseline, &cfg);
    let cache = run_benchmark(&bench, OrgKind::AlloyCache, &cfg);
    let cameo = run_benchmark(&bench, OrgKind::cameo_default(), &cfg);
    assert!(
        cameo.faults < baseline.faults,
        "CAMEO faults {} !< baseline {}",
        cameo.faults,
        baseline.faults
    );
    let cache_speedup = cache.speedup_over(&baseline);
    let cameo_speedup = cameo.speedup_over(&baseline);
    assert!(
        cameo_speedup > cache_speedup,
        "CAMEO {cameo_speedup:.2} !> Cache {cache_speedup:.2} on a capacity workload"
    );
}

#[test]
fn warmup_region_is_excluded() {
    let bench = require("astar").expect("suite benchmark");
    let cfg = quick();
    let mut org = build_org(&bench, OrgKind::Baseline, &cfg);
    let stats = Runner::new(bench, &cfg)
        .expect("valid test config")
        .run(org.as_mut());
    // Measured instructions are per-core and strictly less than the budget
    // (a warmup fraction was carved out).
    assert!(stats.instructions < cfg.instructions_per_core);
    assert!(stats.instructions > cfg.instructions_per_core / 2);
}

#[test]
fn whole_suite_loads_and_classifies() {
    let s = suite();
    assert_eq!(s.len(), 17);
    let capacity = s
        .iter()
        .filter(|b| b.category == cameo_repro::workloads::Category::CapacityLimited)
        .count();
    assert_eq!(capacity, 6);
}

/// Golden-conformance suite: micro versions of the fig09 / fig12 / fig13
/// sweeps replayed against checked-in reference reports (`tests/golden/`).
///
/// Each golden file holds, per sweep point, the byte-exact checkpoint
/// record (every simulated counter, rendered through the same codec the
/// resume path trusts) *and* a totals line from the event-trace recording,
/// so any drift in simulated results **or** in emitted event counts fails
/// the diff loudly. To accept an intentional change:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test end_to_end golden_
/// git diff tests/golden/   # review every changed counter, then commit
/// ```
///
/// The update path and review policy are documented in DESIGN.md §11.
mod golden {
    use std::path::PathBuf;

    use cameo_repro::cameo::{LltDesign, PredictorKind};
    use cameo_repro::sim::checkpoint::{render_record, Json};
    use cameo_repro::sim::experiments::{build_org_traced, OrgKind};
    use cameo_repro::sim::harness::{run_sweep_traced_with, SweepOptions, SweepPoint, SweepReport};
    use cameo_repro::sim::trace::{SharedSink, TraceData, TraceOptions};
    use cameo_repro::sim::SystemConfig;

    /// The micro configuration shared by every golden sweep: small enough
    /// to re-run on each `cargo test`, large enough that every design
    /// swaps, predicts and migrates.
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

    /// Event-recording totals rendered as one JSON line; folding the
    /// counters into the golden means a new/removed emission site changes
    /// the file even when the simulated stats are untouched.
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

    fn golden_path(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name)
    }

    /// Runs the micro sweep and byte-compares it against the named golden
    /// (or rewrites the golden under `UPDATE_GOLDEN=1`).
    fn check_golden(name: &str, kinds: &[OrgKind]) {
        let opts = micro();
        let points: Vec<SweepPoint> = kinds
            .iter()
            .map(|&kind| SweepPoint::new("mcf", kind))
            .collect();
        let report = run_sweep_traced_with(&points, &opts, None, &|point, config| {
            let bench = cameo_repro::workloads::require(&point.bench).expect("suite benchmark");
            let sink = SharedSink::new(TraceOptions::default());
            (
                build_org_traced(&bench, point.kind, config, sink.clone()),
                Some(sink),
            )
        })
        .expect("mcf resolves and the micro config is valid");
        let rendered = render_report(&report);
        let path = golden_path(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &rendered)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "reading golden {}: {e}\n\
                 regenerate with: UPDATE_GOLDEN=1 cargo test --test end_to_end golden_",
                path.display()
            )
        });
        if rendered != expected {
            for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
                assert_eq!(
                    got,
                    want,
                    "golden {name} drifted at line {}: simulated results or \
                     event counts changed; if intentional, regenerate with \
                     UPDATE_GOLDEN=1 and review the diff (DESIGN.md §11)",
                    i + 1
                );
            }
            panic!(
                "golden {name}: line count changed ({} now vs {} expected)",
                rendered.lines().count(),
                expected.lines().count()
            );
        }
    }

    /// Figure 9 micro-sweep (LLT designs, serial access) is bit-stable.
    #[test]
    fn golden_fig09_conformance() {
        check_golden(
            "fig09.jsonl",
            &[
                OrgKind::Cameo {
                    llt: LltDesign::Embedded,
                    predictor: PredictorKind::SerialAccess,
                },
                OrgKind::Cameo {
                    llt: LltDesign::Sram,
                    predictor: PredictorKind::SerialAccess,
                },
                OrgKind::Cameo {
                    llt: LltDesign::CoLocated,
                    predictor: PredictorKind::SerialAccess,
                },
                OrgKind::Cameo {
                    llt: LltDesign::Ideal,
                    predictor: PredictorKind::SerialAccess,
                },
            ],
        );
    }

    /// Figure 12 micro-sweep (SAM / LLP / Perfect prediction) is bit-stable.
    #[test]
    fn golden_fig12_conformance() {
        check_golden(
            "fig12.jsonl",
            &[
                OrgKind::Cameo {
                    llt: LltDesign::CoLocated,
                    predictor: PredictorKind::SerialAccess,
                },
                OrgKind::Cameo {
                    llt: LltDesign::CoLocated,
                    predictor: PredictorKind::Llp,
                },
                OrgKind::Cameo {
                    llt: LltDesign::CoLocated,
                    predictor: PredictorKind::Perfect,
                },
            ],
        );
    }

    /// Figure 13 micro-sweep (the headline designs) is bit-stable.
    #[test]
    fn golden_fig13_conformance() {
        check_golden(
            "fig13.jsonl",
            &[
                OrgKind::AlloyCache,
                OrgKind::TlmStatic,
                OrgKind::TlmDynamic,
                OrgKind::cameo_default(),
                OrgKind::DoubleUse,
            ],
        );
    }
}
