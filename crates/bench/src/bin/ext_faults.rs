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
//! points.
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

#[cfg(feature = "faults")]
mod faulted {
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};

    use cameo::recovery::{RecoveryConfig, RecoveryStats};
    use cameo::{LltDesign, PredictorKind};
    use cameo_bench::{print_header, usage_error, Cli};
    use cameo_memsim::faults::{FaultConfig, FaultStats};
    use cameo_sim::experiments::OrgKind;
    use cameo_sim::harness::{run_sweep_with, SweepOptions, SweepPoint};
    use cameo_sim::org::{CameoOrg, MemoryOrganization, OrgResult};
    use cameo_sim::report::Table;
    use cameo_sim::SystemConfig;
    use cameo_types::{Access, ByteSize, Cycle, DetHashMap, PageAddr};
    use cameo_workloads::BenchSpec;

    /// Flags this binary adds on top of the shared `Cli` set.
    struct FaultFlags {
        rates: Vec<u32>,
        drop_ppm: u32,
        delay_ppm: u32,
        checkpoint: Option<PathBuf>,
        explicit_bench: bool,
        rest: Vec<String>,
    }

    fn parse_flags() -> FaultFlags {
        let mut flags = FaultFlags {
            rates: vec![0, 100, 1_000, 10_000],
            drop_ppm: 0,
            delay_ppm: 0,
            checkpoint: None,
            explicit_bench: false,
            rest: Vec::new(),
        };
        let mut it = std::env::args().skip(1);
        let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            it.next().unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--rates" => {
                    flags.rates = need(&mut it, "--rates")
                        .split(',')
                        .map(|r| r.trim().parse().expect("--rates takes ppm integers"))
                        .collect();
                }
                "--drop-ppm" => {
                    flags.drop_ppm = need(&mut it, "--drop-ppm").parse().expect("--drop-ppm");
                }
                "--delay-ppm" => {
                    flags.delay_ppm = need(&mut it, "--delay-ppm").parse().expect("--delay-ppm");
                }
                "--checkpoint" => {
                    flags.checkpoint = Some(PathBuf::from(need(&mut it, "--checkpoint")));
                }
                "--help" | "-h" => {
                    println!(
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
        flags
    }

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

    fn point_key(bench: &str, rate: u32, policy: RecoveryConfig) -> String {
        format!("{bench}@flip{rate}@{}", policy.label())
    }

    /// Entry point of the feature-gated binary (see the module docs).
    pub fn main() {
        let flags = parse_flags();
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
                    let key = point_key(bench.name, rate, policy);
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
        let report = match run_sweep_with(&points, &opts, flags.checkpoint.as_deref(), &build) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sweep aborted: {e}");
                std::process::exit(1);
            }
        };

        let mut headers = vec!["bench".to_owned(), "flip ppm".to_owned()];
        headers.extend(policies.iter().map(|p| format!("{} CPI (dIPC)", p.label())));
        let mut table = Table::new(headers);
        for bench in &benches {
            let reference = report
                .stats_of(&point_key(bench.name, 0, RecoveryConfig::none()))
                .map(cameo_sim::RunStats::cpi);
            for &rate in &flags.rates {
                let mut row = vec![bench.name.to_owned(), format!("{rate}")];
                for &policy in &policies {
                    let cell = match report.stats_of(&point_key(bench.name, rate, policy)) {
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
        println!("Metadata faults vs. recovery policy — CPI and IPC delta vs fault-free\n");
        cli.emit(&table);

        println!("\nRecovery activity (final attempt of each freshly-run point):");
        let reports = lock_sink(&sink);
        for point in &points {
            let Some(r) = reports.get(&point.key) else {
                continue; // resumed from checkpoint: never built this run
            };
            if r.faults.total() == 0 && r.recovery.retries == 0 {
                continue;
            }
            println!(
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
        println!(
            "\n{} completed, {} failed, {} resumed from checkpoint.",
            report.completed(),
            report.failed(),
            report.resumed(),
        );
        if let Some(path) = &flags.checkpoint {
            println!(
                "Checkpoint at {} — re-run the same command after a kill to \
                 resume without recomputing finished points.",
                path.display()
            );
        }
    }
}
