//! Shared harness for the figure/table binaries.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --scale N          capacity scale factor (default 128)
//! --cores N          rate-mode cores (default 8)
//! --instructions N   measured+warmup instructions per core (default 12M)
//! --seed N           deterministic seed (default 42)
//! --bench NAME       restrict to one benchmark (repeatable)
//! --jobs N           parallel sweep workers (default: all host cores; 0 = auto)
//! --chunk N          step each point's event loop N accesses at a time
//!                    (default: off, one step per point)
//! --trace-out PATH   arm event tracing; write PATH (JSONL) + PATH.chrome.json
//! --quick            small smoke-test configuration
//! --csv              emit CSV instead of an aligned table
//! ```
//!
//! and prints the regenerated rows/series of one paper table or figure.
//! Results are deterministic at any `--jobs` value: points are
//! independent and the harness reassembles them in canonical order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use cameo_sim::checkpoint::PointRecord;
use cameo_sim::experiments::{gmean, OrgKind};
use cameo_sim::harness::{
    run_sweep, run_sweep_traced_spilling, EpochSpillFactory, SweepOptions, SweepPoint, SweepReport,
};
use cameo_sim::report::Table;
use cameo_sim::trace::TraceOptions;
use cameo_sim::{RunStats, SystemConfig};
use cameo_workloads::{suite, BenchSpec, Category};

pub mod ablations;
pub mod designs;
pub mod fullscale;
pub mod trace_export;

/// Parsed command line shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct Cli {
    /// System configuration assembled from the flags.
    pub config: SystemConfig,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// The benchmarks to run.
    pub benches: Vec<BenchSpec>,
    /// Sweep worker threads (`--jobs`; defaults to the host's available
    /// parallelism).
    pub jobs: usize,
    /// Chunked execution: simulated accesses per event-loop step
    /// (`--chunk`); `None` drives each point to completion in one go.
    pub chunk: Option<u64>,
    /// Where to write the JSONL event dump (`--trace-out`); the
    /// Chrome-trace sibling lands next to it. `None` keeps the sweep on
    /// the no-op sink — tracing compiled to nothing.
    pub trace_out: Option<PathBuf>,
}

impl Cli {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut config = SystemConfig::default();
        let mut csv = false;
        let mut names: Vec<String> = Vec::new();
        let mut jobs = 0usize; // 0 = auto (available parallelism)
        let mut chunk = None;
        let mut trace_out = None;
        let mut it = args.into_iter();
        let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            it.next().unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => config.scale = need(&mut it, "--scale").parse().expect("--scale"),
                "--cores" => config.cores = need(&mut it, "--cores").parse().expect("--cores"),
                "--instructions" => {
                    config.instructions_per_core = need(&mut it, "--instructions")
                        .parse()
                        .expect("--instructions");
                }
                "--seed" => config.seed = need(&mut it, "--seed").parse().expect("--seed"),
                "--mlp" => config.mlp = need(&mut it, "--mlp").parse().expect("--mlp"),
                "--ipc" => config.ipc = need(&mut it, "--ipc").parse().expect("--ipc"),
                "--bench" => names.push(need(&mut it, "--bench")),
                "--jobs" => jobs = need(&mut it, "--jobs").parse().expect("--jobs"),
                "--chunk" => chunk = Some(need(&mut it, "--chunk").parse().expect("--chunk")),
                "--trace-out" => {
                    trace_out = Some(PathBuf::from(need(&mut it, "--trace-out")));
                }
                "--quick" => {
                    config.scale = 512;
                    config.cores = 2;
                    config.instructions_per_core = 200_000;
                }
                "--csv" => csv = true,
                "--help" | "-h" => {
                    println!(
                        "flags: --scale N --cores N --instructions N --seed N --mlp N \
                         --bench NAME (repeatable) --jobs N --chunk N --trace-out PATH \
                         --quick --csv"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid configuration from CLI flags: {e}"));
        let benches = if names.is_empty() {
            suite()
        } else {
            names
                .iter()
                .map(|n| cameo_workloads::require(n).unwrap_or_else(|e| panic!("{e}")))
                .collect()
        };
        if jobs == 0 {
            jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        }
        Self {
            config,
            csv,
            benches,
            jobs,
            chunk,
            trace_out,
        }
    }

    /// Writes the `--trace-out` JSONL and Chrome-trace artifacts for a
    /// traced sweep, if the flag was given; a no-op otherwise.
    pub fn emit_trace(&self, sweep_name: &str, report: &SweepReport) {
        if let Some(path) = &self.trace_out {
            trace_export::write_trace_artifacts(path, sweep_name, report)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!(
                "[trace] wrote {} and {}",
                path.display(),
                trace_export::chrome_path(path).display()
            );
        }
    }

    /// Prints a table in the selected format.
    pub fn emit(&self, table: &Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else {
            print!("{table}");
        }
    }
}

/// All per-benchmark runs of one experiment: `results[bench][kind]`.
pub struct SpeedupGrid {
    /// The organizations compared, in column order.
    pub kinds: Vec<OrgKind>,
    /// Per-benchmark baseline stats.
    pub baselines: BTreeMap<String, RunStats>,
    /// Per-benchmark, per-organization stats.
    pub runs: BTreeMap<String, Vec<RunStats>>,
    /// Benchmark order.
    pub order: Vec<BenchSpec>,
    /// The underlying sweep report, carrying the per-point trace
    /// recordings [`Cli::emit_trace`] writes out.
    pub report: SweepReport,
}

impl SpeedupGrid {
    /// Runs the baseline plus every `kind` for every benchmark in `cli`
    /// through the sweep harness, across [`Cli::jobs`] workers.
    ///
    /// # Panics
    ///
    /// Panics if any design point fails — figure binaries want broken
    /// points loud, not silently missing columns.
    pub fn collect(kinds: &[OrgKind], cli: &Cli) -> Self {
        Self::collect_spilling(kinds, cli, TraceOptions::default(), &|_| None)
    }

    /// [`SpeedupGrid::collect`], with explicit trace options and a
    /// per-point epoch-spill factory for the streaming flat-memory path:
    /// when `--trace-out` is armed, epochs evicted from the bounded
    /// retention ring are handed to the hook `spill` returns for the
    /// point instead of accumulating in the sink (see
    /// [`cameo_sim::trace::EpochSeries`]).
    ///
    /// # Panics
    ///
    /// Panics if any design point fails, like [`SpeedupGrid::collect`].
    pub fn collect_spilling(
        kinds: &[OrgKind],
        cli: &Cli,
        trace_opts: TraceOptions,
        spill: &EpochSpillFactory<'_>,
    ) -> Self {
        // Column-indexed keys: stable for checkpoints and immune to two
        // columns sharing an organization label.
        let mut points = Vec::with_capacity(cli.benches.len() * (kinds.len() + 1));
        for bench in &cli.benches {
            points.push(
                SweepPoint::new(bench.name, OrgKind::Baseline)
                    .with_key(format!("{}::#base", bench.name)),
            );
            for (col, kind) in kinds.iter().enumerate() {
                points.push(
                    SweepPoint::new(bench.name, *kind).with_key(format!("{}::#{col}", bench.name)),
                );
            }
        }
        eprintln!(
            "[sweep] {} points ({} benches x {} orgs) across {} worker(s)",
            points.len(),
            cli.benches.len(),
            kinds.len() + 1,
            cli.jobs.max(1),
        );
        let opts = SweepOptions {
            config: cli.config,
            max_attempts: 1,
            jobs: cli.jobs,
            chunk_accesses: cli.chunk,
            ..SweepOptions::default()
        };
        // `--trace-out` arms the recording sink; results are bit-identical
        // either way (the harness guarantees report equality).
        let report = if cli.trace_out.is_some() {
            run_sweep_traced_spilling(&points, &opts, None, trace_opts, spill)
        } else {
            run_sweep(&points, &opts, None)
        }
        .unwrap_or_else(|e| panic!("sweep failed before any checkpointing: {e}"));

        let mut outcomes = report.outcomes.iter();
        let mut take = || {
            let outcome = outcomes
                .next()
                .expect("the report has one outcome per submitted point");
            match &outcome.record {
                PointRecord::Done { stats, .. } => (**stats).clone(),
                PointRecord::Failed { error, .. } => {
                    panic!("design point {} failed: {error}", outcome.point.key)
                }
            }
        };
        let mut baselines = BTreeMap::new();
        let mut runs = BTreeMap::new();
        for bench in &cli.benches {
            let base = take();
            let row: Vec<RunStats> = kinds.iter().map(|_| take()).collect();
            baselines.insert(bench.name.to_owned(), base);
            runs.insert(bench.name.to_owned(), row);
        }
        Self {
            kinds: kinds.to_vec(),
            baselines,
            runs,
            order: cli.benches.clone(),
            report,
        }
    }

    /// Speedup of `kind` (by column index) on `bench`.
    pub fn speedup(&self, bench: &str, col: usize) -> f64 {
        self.runs[bench][col].speedup_over(&self.baselines[bench])
    }

    /// Renders the classic per-benchmark speedup table with per-category
    /// and overall geometric means (the layout of Figures 2, 9, 12, 13,
    /// 15).
    pub fn speedup_table(&self) -> Table {
        let mut headers = vec!["bench".to_owned(), "category".to_owned()];
        headers.extend(self.kinds.iter().map(|k| k.label().to_owned()));
        let mut table = Table::new(headers);
        for bench in &self.order {
            let mut row = vec![bench.name.to_owned(), bench.category.to_string()];
            for col in 0..self.kinds.len() {
                row.push(format!("{:.2}x", self.speedup(bench.name, col)));
            }
            table.row(row);
        }
        for (label, filter) in [
            ("Gmean Capacity", Some(Category::CapacityLimited)),
            ("Gmean Latency", Some(Category::LatencyLimited)),
            ("Gmean ALL", None),
        ] {
            let selected: Vec<&BenchSpec> = self
                .order
                .iter()
                .filter(|b| filter.is_none_or(|c| b.category == c))
                .collect();
            if selected.is_empty() {
                continue;
            }
            let mut row = vec![label.to_owned(), String::new()];
            for col in 0..self.kinds.len() {
                let g = gmean(selected.iter().map(|b| self.speedup(b.name, col)))
                    .expect("non-empty category");
                row.push(format!("{g:.2}x"));
            }
            table.row(row);
        }
        table
    }

    /// Geometric-mean speedup of one column over all benchmarks.
    pub fn gmean_all(&self, col: usize) -> f64 {
        gmean(self.order.iter().map(|b| self.speedup(b.name, col))).expect("benchmarks present")
    }

    /// ASCII bar chart of the overall geometric means — a terminal
    /// rendition of the figure's summary bars.
    pub fn gmean_chart(&self) -> String {
        let rows: Vec<(String, f64)> = self
            .kinds
            .iter()
            .enumerate()
            .map(|(col, kind)| (kind.label().to_owned(), self.gmean_all(col)))
            .collect();
        cameo_sim::report::bar_chart(&rows, 40)
    }
}

/// Prints the standard experiment header (configuration echo) to stderr.
pub fn print_header(what: &str, cli: &Cli) {
    eprintln!(
        "== {what} | scale 1/{} ({} stacked + {} off-chip), {} cores, {} instr/core, seed {} ==",
        cli.config.scale,
        cli.config.stacked(),
        cli.config.off_chip(),
        cli.config.cores,
        cli.config.instructions_per_core,
        cli.config.seed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Cli {
        Cli::from_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn defaults() {
        let cli = args("");
        assert_eq!(cli.config.scale, 128);
        assert_eq!(cli.benches.len(), 17);
        assert!(!cli.csv);
    }

    #[test]
    fn flags_parse() {
        let cli = args("--scale 128 --cores 4 --instructions 1000000 --seed 7 --csv");
        assert_eq!(cli.config.scale, 128);
        assert_eq!(cli.config.cores, 4);
        assert_eq!(cli.config.instructions_per_core, 1_000_000);
        assert_eq!(cli.config.seed, 7);
        assert!(cli.csv);
    }

    #[test]
    fn bench_filter() {
        let cli = args("--bench mcf --bench milc");
        let names: Vec<&str> = cli.benches.iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["mcf", "milc"]);
    }

    #[test]
    fn quick_mode() {
        let cli = args("--quick");
        assert_eq!(cli.config.scale, 512);
        assert_eq!(cli.config.cores, 2);
    }

    #[test]
    fn chunk_parses_and_defaults_off() {
        assert_eq!(args("--chunk 50000").chunk, Some(50_000));
        assert_eq!(args("").chunk, None);
    }

    #[test]
    fn jobs_parse() {
        assert_eq!(args("--jobs 3").jobs, 3);
        // `--jobs 0` (and the default) resolve to the host parallelism,
        // which is always at least one worker.
        assert!(args("--jobs 0").jobs >= 1);
        assert!(args("").jobs >= 1);
    }

    #[test]
    fn trace_out_parses_and_defaults_off() {
        let cli = args("--trace-out /tmp/fig.trace");
        assert_eq!(
            cli.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/fig.trace"))
        );
        assert!(args("").trace_out.is_none());
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_bench_rejected() {
        args("--bench nosuch");
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_rejected() {
        args("--frobnicate");
    }
}
