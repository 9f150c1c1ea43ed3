//! Extension experiment: metadata fault rate × recovery policy.
//!
//! Sweeps seeded transient faults on the stacked-DRAM metadata path (LLT /
//! LEAD bit flips, plus optional dropped and delayed responses) against the
//! recovery policies of `cameo::recovery`: `none` (faults land unchecked),
//! `ecc` (SECDED detect+correct on metadata reads) and `full` (ECC plus
//! retry, LLT scrub and degradation latch). The headline result: with recovery
//! enabled, CAMEO at realistic flip rates completes with zero invariant
//! violations and IPC within a few percent of the fault-free run.
//!
//! Points run through the crash-isolated sweep harness, so a policy that
//! lets corruption escape (e.g. `none` under `deep-audit`) is recorded as a
//! failed point instead of killing the sweep. Pass `--checkpoint PATH` to
//! make the sweep resumable: re-invoking after a kill skips finished
//! points. The checkpoint opens with the run's system configuration and
//! each point's key names all three fault rates, so a re-run under other
//! shared flags (`--seed`, `--scale`, ...) is refused with one `error:`
//! line (status 2), and one under other rates runs its points afresh.
//!
//! Extra flags on top of the shared set (see `cameo_bench::Cli`):
//!
//! ```text
//! --rates A,B,C      flip rates in ppm of metadata reads (default 0,100,1000,10000)
//! --drop-ppm N       dropped-response rate in ppm (default 0)
//! --delay-ppm N      delayed-response rate in ppm (default 0)
//! --checkpoint PATH  JSONL checkpoint enabling kill-and-resume
//! ```
//!
//! Without `--bench` the sweep runs a single benchmark (mcf) — the grid is
//! rates × policies, so the full Table II suite is opt-in.

#[cfg(feature = "faults")]
fn main() {
    faulted::main();
}

#[cfg(not(feature = "faults"))]
fn main() {
    eprintln!(
        "ext_faults requires the fault-injection layer to be compiled in:\n\n    \
         cargo run --release -p cameo-bench --features faults --bin ext_faults\n"
    );
    std::process::exit(2);
}

/// Flags this binary adds on top of the shared `Cli` set.
#[cfg(any(feature = "faults", test))]
struct FaultFlags {
    rates: Vec<u32>,
    drop_ppm: u32,
    delay_ppm: u32,
    checkpoint: Option<std::path::PathBuf>,
    explicit_bench: bool,
    rest: Vec<String>,
}

/// Splits this binary's flags off `args`, passing the rest through for
/// `Cli::from_args`.
///
/// # Errors
///
/// Returns `"<flag>: <reason>"` for a missing value or one that does not
/// parse, as `Cli::from_args` does for the shared flags.
#[cfg(any(feature = "faults", test))]
fn parse_flags(args: impl IntoIterator<Item = String>) -> Result<FaultFlags, String> {
    use cameo_bench::{flag_value, outln};

    let mut flags = FaultFlags {
        rates: vec![0, 100, 1_000, 10_000],
        drop_ppm: 0,
        delay_ppm: 0,
        checkpoint: None,
        explicit_bench: false,
        rest: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rates" => {
                let list: String = flag_value(&mut it, &arg)?;
                flags.rates = list
                    .split(',')
                    .map(|rate| {
                        let rate = rate.trim();
                        rate.parse()
                            .map_err(|e| format!("--rates: invalid value {rate:?} ({e})"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--drop-ppm" => flags.drop_ppm = flag_value(&mut it, &arg)?,
            "--delay-ppm" => flags.delay_ppm = flag_value(&mut it, &arg)?,
            "--checkpoint" => flags.checkpoint = Some(flag_value(&mut it, &arg)?),
            "--help" | "-h" => {
                outln!(
                    "flags: --rates A,B,C --drop-ppm N --delay-ppm N --checkpoint PATH\n\
                     plus the shared set: --scale N --cores N --instructions N --seed N \
                     --mlp N --bench NAME (repeatable) --jobs N --quick --csv"
                );
                std::process::exit(0);
            }
            _ => {
                if arg == "--bench" {
                    flags.explicit_bench = true;
                }
                flags.rest.push(arg);
            }
        }
    }
    // The fault-free reference row every delta is computed against.
    if !flags.rates.contains(&0) {
        flags.rates.insert(0, 0);
    }
    Ok(flags)
}

#[cfg(feature = "faults")]
mod faulted {
    use std::sync::{Arc, Mutex};

    use cameo::recovery::{RecoveryConfig, RecoveryStats};
    use cameo::{LltDesign, PredictorKind};
    use cameo_bench::{outln, print_header, usage_error, Cli};
    use cameo_memsim::faults::{FaultConfig, FaultStats};
    use cameo_sim::experiments::OrgKind;
    use cameo_sim::harness::{run_sweep_with, SweepOptions, SweepPoint};
    use cameo_sim::org::{CameoOrg, MemoryOrganization, OrgResult};
    use cameo_sim::report::Table;
    use cameo_sim::SystemConfig;
    use cameo_types::{Access, ByteSize, Cycle, DetHashMap, PageAddr};
    use cameo_workloads::BenchSpec;

    /// Recovery/fault counters harvested from a point's controller after
    /// its run — the harness owns and drops the organization, so the
    /// wrapper below writes them out on drop.
    struct PointReport {
        recovery: RecoveryStats,
        faults: FaultStats,
        degraded: bool,
    }

    // Shared across sweep workers: the builder closure must be `Sync`, and
    // points on different threads deposit their reports concurrently.
    type Sink = Arc<Mutex<DetHashMap<String, PointReport>>>;

    /// Locks the sink, tolerating poison: a panicking point is unwound by
    /// the harness and its partial report is still worth keeping.
    fn lock_sink(sink: &Sink) -> std::sync::MutexGuard<'_, DetHashMap<String, PointReport>> {
        match sink.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// [`CameoOrg`] plus an exit report: on drop (normal completion or
    /// panic unwind alike) the controller's fault and recovery counters are
    /// deposited in the shared sink, keyed by sweep point. Retries
    /// overwrite, so the sink holds the final attempt of each point.
    struct ReportingOrg {
        inner: CameoOrg,
        key: String,
        sink: Sink,
    }

    impl Drop for ReportingOrg {
        fn drop(&mut self) {
            let c = self.inner.controller();
            lock_sink(&self.sink).insert(
                self.key.clone(),
                PointReport {
                    recovery: *c.recovery_stats(),
                    faults: *c.stacked().fault_stats(),
                    degraded: c.degraded(),
                },
            );
        }
    }

    impl MemoryOrganization for ReportingOrg {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn access(&mut self, now: Cycle, access: &Access) -> OrgResult {
            self.inner.access(now, access)
        }
        fn visible_capacity(&self) -> ByteSize {
            self.inner.visible_capacity()
        }
        fn bandwidth(&self) -> cameo_sim::BandwidthReport {
            self.inner.bandwidth()
        }
        fn faults(&self) -> u64 {
            self.inner.faults()
        }
        fn service_counts(&self) -> (u64, u64) {
            self.inner.service_counts()
        }
        fn prediction_cases(&self) -> Option<cameo::PredictionCaseCounts> {
            self.inner.prediction_cases()
        }
        fn prefill(&mut self, page: PageAddr) {
            self.inner.prefill(page);
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats();
        }
    }

    /// A point's checkpoint key: every fault rate it runs under, since a
    /// checkpoint answers points by key.
    fn point_key(
        bench: &str,
        rate: u32,
        flags: &super::FaultFlags,
        policy: RecoveryConfig,
    ) -> String {
        format!(
            "{bench}@flip{rate}@drop{}@delay{}@{}",
            flags.drop_ppm,
            flags.delay_ppm,
            policy.label()
        )
    }

    /// Entry point of the feature-gated binary (see the module docs).
    pub fn main() {
        let flags =
            super::parse_flags(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));
        let cli = Cli::from_args(flags.rest.clone()).unwrap_or_else(|e| usage_error(&e));
        print_header("Extension — metadata faults × recovery policy", &cli);
        // The grid is rates × policies; default to one benchmark so the
        // full suite stays opt-in via --bench.
        let benches: Vec<BenchSpec> = if flags.explicit_bench {
            cli.benches.clone()
        } else {
            vec![cameo_workloads::require("mcf").expect("mcf is in the Table II suite")]
        };
        let policies = [
            RecoveryConfig::none(),
            RecoveryConfig::ecc_only(),
            RecoveryConfig::full(),
        ];

        let mut points = Vec::new();
        let mut grid: DetHashMap<String, (u32, RecoveryConfig)> = DetHashMap::default();
        for bench in &benches {
            for &rate in &flags.rates {
                for &policy in &policies {
                    let key = point_key(bench.name, rate, &flags, policy);
                    grid.insert(key.clone(), (rate, policy));
                    points
                        .push(SweepPoint::new(bench.name, OrgKind::cameo_default()).with_key(key));
                }
            }
        }

        let sink: Sink = Sink::default();
        let build = |point: &SweepPoint, cfg: &SystemConfig| -> Box<dyn MemoryOrganization> {
            let (rate, policy) = *grid
                .get(&point.key)
                .expect("every sweep point key was entered into the grid");
            let fault_cfg = FaultConfig {
                flip_ppm: rate,
                drop_ppm: flags.drop_ppm,
                delay_ppm: flags.delay_ppm,
                delay_cycles: 200,
                outage: None,
            };
            let org = CameoOrg::new(
                cfg.stacked(),
                cfg.off_chip(),
                LltDesign::CoLocated,
                PredictorKind::Llp,
                cfg.cores,
                cfg.llp_entries,
                cfg.seed ^ 0xBEEF,
            )
            .with_fault_injection(fault_cfg, cfg.seed ^ u64::from(rate).rotate_left(17))
            .with_recovery(policy);
            Box::new(ReportingOrg {
                inner: org,
                key: point.key.clone(),
                sink: Arc::clone(&sink),
            })
        };

        let opts = SweepOptions {
            config: cli.config,
            jobs: cli.jobs,
            chunk_accesses: cli.chunk,
            ..SweepOptions::default()
        };
        // The only sweep-fatal errors are the checkpoint's: one written
        // under other flags, a corrupt one, or failed I/O.
        let report = run_sweep_with(&points, &opts, flags.checkpoint.as_deref(), &build)
            .unwrap_or_else(|e| usage_error(&format!("--checkpoint: {e}")));

        let mut headers = vec!["bench".to_owned(), "flip ppm".to_owned()];
        headers.extend(policies.iter().map(|p| format!("{} CPI (dIPC)", p.label())));
        let mut table = Table::new(headers);
        for bench in &benches {
            let reference = report
                .stats_of(&point_key(bench.name, 0, &flags, RecoveryConfig::none()))
                .map(cameo_sim::RunStats::cpi);
            for &rate in &flags.rates {
                let mut row = vec![bench.name.to_owned(), format!("{rate}")];
                for &policy in &policies {
                    let cell = match report.stats_of(&point_key(bench.name, rate, &flags, policy)) {
                        Some(stats) => {
                            let cpi = stats.cpi();
                            match reference {
                                Some(base) => {
                                    format!("{cpi:.3} ({:+.1}%)", (base / cpi - 1.0) * 100.0)
                                }
                                None => format!("{cpi:.3}"),
                            }
                        }
                        None => "failed".to_owned(),
                    };
                    row.push(cell);
                }
                table.row(row);
            }
        }
        outln!("Metadata faults vs. recovery policy — CPI and IPC delta vs fault-free\n");
        cli.emit(&table);

        outln!("\nRecovery activity (final attempt of each freshly-run point):");
        let reports = lock_sink(&sink);
        for point in &points {
            let Some(r) = reports.get(&point.key) else {
                continue; // resumed from checkpoint: never built this run
            };
            if r.faults.total() == 0 && r.recovery.retries == 0 {
                continue;
            }
            outln!(
                "  {:<28} flips {} (corrected {}, escaped {})  drops {} \
                 (recovered {}, lost {})  scrubs {}{}",
                point.key,
                r.faults.flips,
                r.recovery.ecc_corrected,
                r.recovery.flips_escaped,
                r.faults.drops,
                r.recovery.drops_recovered,
                r.recovery.drops_unrecovered,
                r.recovery.scrubs,
                if r.degraded {
                    "  [degraded to SAM]"
                } else {
                    ""
                },
            );
        }
        outln!(
            "\n{} completed, {} failed, {} resumed from checkpoint.",
            report.completed(),
            report.failed(),
            report.resumed(),
        );
        if let Some(path) = &flags.checkpoint {
            outln!(
                "Checkpoint at {} — re-run the same command after a kill to \
                 resume without recomputing finished points.",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_flags;

    fn parse(s: &str) -> Result<super::FaultFlags, String> {
        parse_flags(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn own_flags_parse_and_pass_the_rest_through() {
        let flags =
            parse("--rates 100,1000 --drop-ppm 5 --delay-ppm 7 --checkpoint f.ckpt --quick")
                .expect("valid flags");
        // The fault-free reference row is always swept.
        assert_eq!(flags.rates, vec![0, 100, 1000]);
        assert_eq!((flags.drop_ppm, flags.delay_ppm), (5, 7));
        assert_eq!(
            flags.checkpoint.as_deref(),
            Some(std::path::Path::new("f.ckpt"))
        );
        assert_eq!(flags.rest, vec!["--quick"]);
        assert!(!flags.explicit_bench);
    }

    #[test]
    fn malformed_rates_are_an_error() {
        let err = parse("--rates x").err().expect("x is not a rate");
        assert!(err.starts_with("--rates: invalid value \"x\""), "{err}");
        let err = parse("--rates 0,,10").err().expect("an empty rate");
        assert!(err.starts_with("--rates: invalid value \"\""), "{err}");
    }

    #[test]
    fn malformed_ppm_values_are_errors() {
        let err = parse("--drop-ppm lots").err().expect("not a number");
        assert!(
            err.starts_with("--drop-ppm: invalid value \"lots\""),
            "{err}"
        );
        let err = parse("--delay-ppm -1").err().expect("negative");
        assert!(
            err.starts_with("--delay-ppm: invalid value \"-1\""),
            "{err}"
        );
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in ["--rates", "--drop-ppm", "--delay-ppm", "--checkpoint"] {
            let err = parse(&format!("--quick {flag}")).err().expect("no value");
            assert_eq!(err, format!("{flag}: needs a value"));
        }
    }
}
