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
//! A malformed flag prints `error: <flag>: <reason>` and exits 2.
//! Results are deterministic at any `--jobs` value: points are
//! independent and the harness reassembles them in canonical order.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::str::FromStr;

use cameo_sim::checkpoint::PointRecord;
use cameo_sim::experiments::{build_org_on, build_org_traced_on, gmean, OrgKind};
use cameo_sim::harness::{
    run_sweep_traced_with, SweepOptions, SweepPoint, SweepReport, TracedBuild,
};
use cameo_sim::report::Table;
use cameo_sim::trace::{SharedSink, TraceOptions};
use cameo_sim::{RunStats, SystemConfig};
use cameo_types::DeviceKind;
use cameo_workloads::{suite, BenchSpec, Category};

/// Prints to stdout through [`write_stdout`], like `print!`.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// Prints a line to stdout through [`write_stdout`], like `println!`.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub mod ablations;
pub mod designs;
pub mod fullscale;
pub mod trace_export;

/// Writes to stdout: the one route by which the figure binaries print
/// (through [`out!`] and [`outln!`]). A reader that closed the pipe early,
/// as `| head` does, ends the process quietly with status 0, where
/// `print!` would panic; any other write error prints `error: stdout: ...`
/// and exits 1.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: stdout: {e}");
        std::process::exit(1);
    }
}

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
    /// Parses `std::env::args`; on a malformed flag, prints the error and
    /// exits with [`usage_error`].
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses an explicit argument list (testable).
    ///
    /// # Errors
    ///
    /// Returns `"<flag>: <reason>"` for a flag without its value, a value
    /// that does not parse, an unknown flag or benchmark, and a value the
    /// resulting [`SystemConfig::validate`] rejects.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut config = SystemConfig::default();
        let mut csv = false;
        let mut benches = Vec::new();
        let mut jobs = 0usize; // 0 = auto (available parallelism)
        let mut chunk = None;
        let mut trace_out = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => config.scale = flag_value(&mut it, &flag)?,
                "--cores" => config.cores = flag_value(&mut it, &flag)?,
                "--instructions" => config.instructions_per_core = flag_value(&mut it, &flag)?,
                "--seed" => config.seed = flag_value(&mut it, &flag)?,
                "--mlp" => config.mlp = flag_value(&mut it, &flag)?,
                "--ipc" => config.ipc = flag_value(&mut it, &flag)?,
                "--bench" => {
                    let name: String = flag_value(&mut it, &flag)?;
                    benches
                        .push(cameo_workloads::require(&name).map_err(|e| format!("{flag}: {e}"))?);
                }
                "--jobs" => jobs = flag_value(&mut it, &flag)?,
                "--chunk" => chunk = Some(flag_value(&mut it, &flag)?),
                "--trace-out" => trace_out = Some(flag_value(&mut it, &flag)?),
                "--quick" => {
                    config.scale = 512;
                    config.cores = 2;
                    config.instructions_per_core = 200_000;
                }
                "--csv" => csv = true,
                "--help" | "-h" => {
                    outln!(
                        "flags: --scale N --cores N --instructions N --seed N --mlp N \
                         --bench NAME (repeatable) --jobs N --chunk N --trace-out PATH \
                         --quick --csv"
                    );
                    std::process::exit(0);
                }
                _ => return Err(format!("{flag}: unknown flag")),
            }
            // Checked after every flag, so a rejected value is reported
            // against the flag that set it.
            config.validate().map_err(|e| format!("{flag}: {e}"))?;
        }
        if benches.is_empty() {
            benches = suite();
        }
        if jobs == 0 {
            jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        }
        Ok(Self {
            config,
            csv,
            benches,
            jobs,
            chunk,
            trace_out,
        })
    }

    /// Creates the `--trace-out` file, if the flag was given, keeping what
    /// it holds until [`Cli::emit_trace`] writes it. A binary that traces
    /// calls this before its first point runs ([`SpeedupGrid::collect`]
    /// does), so a path that cannot be written stops it with
    /// `error: --trace-out: ...` and [`usage_error`]'s status rather than
    /// after the sweep; a binary that never traces never touches the path.
    pub fn prepare_trace_out(&self) {
        let Some(path) = &self.trace_out else {
            return;
        };
        let created = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path);
        if let Err(e) = created {
            usage_error(&format!(
                "--trace-out: cannot create {}: {e}",
                path.display()
            ));
        }
    }

    /// Writes the `--trace-out` JSONL and Chrome-trace artifacts for a
    /// traced sweep, if the flag was given; a no-op otherwise. A write
    /// that fails anyway prints `error: --trace-out: ...` and exits with
    /// [`usage_error`].
    pub fn emit_trace(&self, sweep_name: &str, report: &SweepReport) {
        if let Some(path) = &self.trace_out {
            trace_export::write_trace_artifacts(path, sweep_name, report).unwrap_or_else(|e| {
                usage_error(&format!("--trace-out: writing {}: {e}", path.display()))
            });
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
            out!("{}", table.to_csv());
        } else {
            out!("{table}");
        }
    }
}

/// Takes the value of `flag` off the argument list and parses it.
///
/// # Errors
///
/// Returns `"<flag>: needs a value"` when the list has ended, and
/// `"<flag>: invalid value ..."` when the value does not parse.
pub fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = args
        .next()
        .ok_or_else(|| format!("{flag}: needs a value"))?;
    raw.parse()
        .map_err(|e| format!("{flag}: invalid value {raw:?} ({e})"))
}

/// Prints `error: <message>` to stderr and exits with status 2, the
/// figure binaries' usage-error status.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// One column of a [`SpeedupGrid`]: an organization, on the flat Table I
/// devices unless the column names a device model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Column {
    /// The memory organization under test.
    pub kind: OrgKind,
    /// The device model the column names. A column that names one is
    /// labelled and keyed `<org>@<device>`; one that does not runs on the
    /// flat devices, is labelled by its organization and keyed by its
    /// column index.
    pub device: Option<DeviceKind>,
}

impl From<OrgKind> for Column {
    fn from(kind: OrgKind) -> Self {
        Self { kind, device: None }
    }
}

impl Column {
    /// Column header: `"<org>"`, or `"<org>@<device>"` when the column
    /// names its device.
    pub fn label(&self) -> String {
        match self.device {
            Some(device) => format!("{}@{}", self.kind.label(), device.label()),
            None => self.kind.label().to_owned(),
        }
    }
}

/// Builds one grid point's organization on the device its key names
/// (the `@<device>` suffix [`SpeedupGrid::points`] gives a column that
/// names one; flat otherwise), emitting into `sink` when one is armed.
/// [`SpeedupGrid::collect`] sweeps through it, and so do the goldens that
/// pin what the binaries run.
///
/// # Panics
///
/// Panics if the point's benchmark is not in the Table II suite; the
/// harness resolves it before calling a builder.
pub fn build_point(
    point: &SweepPoint,
    config: &SystemConfig,
    sink: Option<SharedSink>,
) -> TracedBuild {
    let bench = cameo_workloads::by_name(&point.bench)
        .expect("the harness resolved the benchmark before building the organization");
    let device = designs::device_of_key(&point.key);
    let org = match &sink {
        Some(sink) => build_org_traced_on(&bench, point.kind, device, config, sink.clone()),
        None => build_org_on(&bench, point.kind, device, config),
    };
    (org, sink)
}

/// All per-benchmark runs of one experiment: `runs[bench][column]`, plus
/// each benchmark's flat off-chip baseline.
pub struct SpeedupGrid {
    /// The columns compared, in order.
    pub columns: Vec<Column>,
    /// Per-benchmark baseline stats.
    pub baselines: BTreeMap<String, RunStats>,
    /// Per-benchmark, per-column stats.
    pub runs: BTreeMap<String, Vec<RunStats>>,
    /// Benchmark order.
    pub order: Vec<BenchSpec>,
    /// The underlying sweep report, carrying the per-point trace
    /// recordings [`Cli::emit_trace`] writes out.
    pub report: SweepReport,
}

impl SpeedupGrid {
    /// The grid's point set: per benchmark, the flat baseline under
    /// `"<bench>::#base"`, then each column under `"<bench>::#<col>"` or,
    /// when the column names its device, `"<bench>::<org>@<device>"`.
    /// Column-indexed keys stay unique even when two columns share an
    /// organization label.
    pub fn points(benches: &[BenchSpec], columns: &[Column]) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(benches.len() * (columns.len() + 1));
        for bench in benches {
            points.push(
                SweepPoint::new(bench.name, OrgKind::Baseline)
                    .with_key(format!("{}::#base", bench.name)),
            );
            for (col, column) in columns.iter().enumerate() {
                let suffix = match column.device {
                    Some(_) => column.label(),
                    None => format!("#{col}"),
                };
                points.push(
                    SweepPoint::new(bench.name, column.kind)
                        .with_key(format!("{}::{suffix}", bench.name)),
                );
            }
        }
        points
    }

    /// Runs the baseline plus every column for every benchmark in `cli`
    /// through the sweep harness, across [`Cli::jobs`] workers, stepping
    /// points [`Cli::chunk`] accesses at a time.
    ///
    /// `--trace-out PATH` arms a recording sink per point; epochs its
    /// bounded ring evicts stream to `PATH.epochs/`
    /// ([`fullscale::epoch_spill_factory`]). The results are bit-identical
    /// either way. A `--trace-out` file that cannot be created ends the
    /// process through [`Cli::prepare_trace_out`] before any point runs.
    ///
    /// # Panics
    ///
    /// Panics if any point fails — figure binaries want broken points
    /// loud, not silently missing columns.
    pub fn collect<C: Into<Column> + Copy>(columns: &[C], cli: &Cli) -> Self {
        cli.prepare_trace_out();
        let columns: Vec<Column> = columns.iter().map(|&c| c.into()).collect();
        let points = Self::points(&cli.benches, &columns);
        eprintln!(
            "[sweep] {} points ({} benches x {} orgs) across {} worker(s)",
            points.len(),
            cli.benches.len(),
            columns.len() + 1,
            cli.jobs.max(1),
        );
        let opts = SweepOptions {
            config: cli.config,
            max_attempts: 1,
            jobs: cli.jobs,
            chunk_accesses: cli.chunk,
            ..SweepOptions::default()
        };
        let trace_opts = TraceOptions::default();
        let spill = cli
            .trace_out
            .as_deref()
            .map(|path| fullscale::epoch_spill_factory(path, trace_opts.epoch_cycles));
        let report = run_sweep_traced_with(&points, &opts, None, &|point, config| {
            let sink = spill
                .as_ref()
                .map(|spill| SharedSink::with_spill(trace_opts, spill(point)));
            build_point(point, config, sink)
        })
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
            let row: Vec<RunStats> = columns.iter().map(|_| take()).collect();
            baselines.insert(bench.name.to_owned(), base);
            runs.insert(bench.name.to_owned(), row);
        }
        Self {
            columns,
            baselines,
            runs,
            order: cli.benches.clone(),
            report,
        }
    }

    /// Speedup of a column (by index) on `bench`, over its flat off-chip
    /// baseline.
    pub fn speedup(&self, bench: &str, col: usize) -> f64 {
        self.runs[bench][col].speedup_over(&self.baselines[bench])
    }

    /// Renders the classic per-benchmark speedup table with per-category
    /// and overall geometric means (the layout of Figures 2, 9, 12, 13,
    /// 15).
    pub fn speedup_table(&self) -> Table {
        let mut headers = vec!["bench".to_owned(), "category".to_owned()];
        headers.extend(self.columns.iter().map(Column::label));
        let mut table = Table::new(headers);
        for bench in &self.order {
            let mut row = vec![bench.name.to_owned(), bench.category.to_string()];
            for col in 0..self.columns.len() {
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
            for col in 0..self.columns.len() {
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
            .columns
            .iter()
            .enumerate()
            .map(|(col, column)| (column.label(), self.gmean_all(col)))
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

    fn parse(s: &str) -> Result<Cli, String> {
        Cli::from_args(s.split_whitespace().map(str::to_owned))
    }

    fn args(s: &str) -> Cli {
        parse(s).expect("valid flags")
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
    fn unknown_bench_rejected() {
        let err = parse("--bench nosuch").expect_err("nosuch is not in the suite");
        assert!(err.starts_with("--bench: unknown benchmark"), "{err}");
    }

    #[test]
    fn unknown_flag_rejected() {
        assert_eq!(
            parse("--frobnicate").expect_err("not a flag"),
            "--frobnicate: unknown flag"
        );
    }

    /// A malformed, missing or rejected value is an error naming its
    /// flag, not a panic.
    #[test]
    fn bad_values_are_errors_naming_their_flag() {
        let err = parse("--scale x").expect_err("x is not a number");
        assert!(err.starts_with("--scale: invalid value \"x\""), "{err}");
        assert_eq!(
            parse("--quick --jobs").expect_err("--jobs has no value"),
            "--jobs: needs a value"
        );
        let err = parse("--ipc nan").expect_err("validate rejects a NaN IPC");
        assert!(err.starts_with("--ipc: "), "{err}");
    }
}
