//! Crash-isolated, resumable batch harness for design-point sweeps.
//!
//! A figure-scale experiment is a grid of (benchmark × organization)
//! points, each minutes of simulation. One misbehaving point must not take
//! the sweep down, and a killed sweep must not recompute finished points.
//! The harness therefore runs every point:
//!
//! * under [`std::panic::catch_unwind`], so a panic (including `deep-audit`
//!   violations) is recorded as a [`PointRecord::Failed`] and the sweep
//!   continues;
//! * with an optional cycle-budget watchdog
//!   ([`SweepOptions::watchdog_cycles`]), so a point that stops making
//!   progress is cut off deterministically;
//! * appending each outcome to a JSONL checkpoint
//!   ([`crate::checkpoint`]), so re-invoking the sweep under the same
//!   configuration resumes (and one under another is refused).
//!
//! Points are independent (each builds its own organization and streams
//! from the per-point configuration), so the harness also runs them in
//! parallel: [`SweepOptions::jobs`] workers claim points off a shared
//! cursor (the crate's scoped-thread `pool`), outcomes funnel through one
//! internally synchronized [`checkpoint::Writer`], and the report is
//! assembled in canonical input order — a parallel sweep's
//! [`SweepReport`] compares equal to the serial one, and its checkpoint
//! resumes identically (the on-disk record *order* is completion order,
//! which [`checkpoint::load`] never depends on).
//!
//! Host-side wall-clock per point is recorded alongside — see
//! [`PointOutcome::wall_nanos`] — but deliberately excluded from report
//! equality, which covers simulated results only.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use cameo_workloads::{BenchSpec, TraceGenerator};

use crate::checkpoint::{self, PointRecord};
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::experiments::{build_org, OrgKind};
use crate::org::MemoryOrganization;
use crate::runner::{RunSession, Runner, SessionStatus};
use crate::stats::RunStats;
use crate::trace::{SharedSink, TraceData};

/// One design point of a sweep: a benchmark and an organization.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepPoint {
    /// Stable identity of the point across sweep invocations — the
    /// checkpoint key. Defaults to `"<bench>::<org label>"`.
    pub key: String,
    /// Benchmark name (resolved against the Table II suite at run time).
    pub bench: String,
    /// Organization to build for the point.
    pub kind: OrgKind,
}

impl SweepPoint {
    /// A point keyed by `"<bench>::<org label>"`.
    pub fn new(bench: &str, kind: OrgKind) -> Self {
        Self {
            key: format!("{bench}::{}", kind.label()),
            bench: bench.to_owned(),
            kind,
        }
    }

    /// The same point under a caller-chosen key — needed when one sweep
    /// runs the same (bench, org) pair under different externally-imposed
    /// conditions (e.g. fault rates), which the key must distinguish.
    pub fn with_key(mut self, key: impl Into<String>) -> Self {
        self.key = key.into();
        self
    }
}

/// Sweep-wide policy knobs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SweepOptions {
    /// Base configuration for every point.
    pub config: SystemConfig,
    /// Attempts per point, each at the configured scale; at least 1.
    /// The simulator is deterministic, so a point that fails once fails
    /// again: the default of 1 records it and moves on.
    pub max_attempts: u32,
    /// Abort a point whose issue clock passes this many cycles (see
    /// [`Runner::try_run`]). `None` disables the watchdog.
    pub watchdog_cycles: Option<u64>,
    /// Worker threads running points concurrently. `0` and `1` both mean
    /// serial (the library default — CLIs typically pass the host's
    /// available parallelism). Results are bit-identical at any job
    /// count: points are independent and the report is assembled in
    /// input order.
    pub jobs: usize,
    /// Cap each [`crate::runner::RunSession::step`] at this many post-L3
    /// accesses. The worker that claimed the point steps it chunk after
    /// chunk until it completes. Results are bit-identical at any chunk
    /// size: a chunk boundary pauses the event loop, never reorders it.
    /// `None` (the default) runs every point in one step.
    pub chunk_accesses: Option<u64>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            config: SystemConfig::default(),
            max_attempts: 1,
            watchdog_cycles: None,
            jobs: 1,
            chunk_accesses: None,
        }
    }
}

/// Outcome of one point in a finished sweep.
///
/// Equality ignores [`PointOutcome::wall_nanos`] and
/// [`PointOutcome::trace`]: two outcomes are equal when their *simulated*
/// results agree, which is what the serial ↔ parallel determinism
/// guarantee covers — and what lets a traced report compare equal to an
/// untraced one (the tracing-is-free contract).
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// The point this outcome belongs to.
    pub point: SweepPoint,
    /// What happened.
    pub record: PointRecord,
    /// Whether the record came from the checkpoint instead of being run.
    pub resumed: bool,
    /// Host wall-clock spent producing the record, in nanoseconds
    /// (all attempts included; `0` for resumed points).
    pub wall_nanos: u64,
    /// The event recording of the successful attempt, when the sweep ran
    /// through [`run_sweep_traced_with`] with an armed sink. `None` for
    /// untraced sweeps, failed points, and resumed points (the checkpoint
    /// stores results only — its format is unchanged by tracing).
    pub trace: Option<TraceData>,
}

impl PartialEq for PointOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.point == other.point && self.record == other.record && self.resumed == other.resumed
    }
}

/// Everything a finished sweep produced.
///
/// Equality compares the outcomes, which ignore their host-side fields
/// (see [`PointOutcome`]).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SweepReport {
    /// Per-point outcomes, in input order.
    pub outcomes: Vec<PointOutcome>,
}

impl SweepReport {
    /// Statistics of a completed point, by key.
    pub fn stats_of(&self, key: &str) -> Option<&RunStats> {
        self.outcomes.iter().find_map(|o| match &o.record {
            PointRecord::Done { stats, .. } if o.point.key == key => Some(stats.as_ref()),
            _ => None,
        })
    }

    /// Event recording of a freshly-run traced point, by key.
    pub fn trace_of(&self, key: &str) -> Option<&TraceData> {
        self.outcomes
            .iter()
            .find(|o| o.point.key == key)
            .and_then(|o| o.trace.as_ref())
    }

    /// Number of points that completed (freshly or resumed).
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.record, PointRecord::Done { .. }))
            .count()
    }

    /// Number of points that failed every attempt.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.completed()
    }

    /// Number of points answered from the checkpoint without re-running.
    pub fn resumed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.resumed).count()
    }
}

/// Builds the organization for one point. Custom builders let a sweep vary
/// conditions the [`OrgKind`] enum does not encode (fault injection,
/// swap-policy variants, ...). `Sync` because sweep workers call the
/// builder concurrently — share mutable sinks behind a `Mutex`.
pub type OrgBuilder<'b> =
    dyn Fn(&SweepPoint, &SystemConfig) -> Box<dyn MemoryOrganization> + Sync + 'b;

/// An organization plus the armed sink it emits into, when tracing.
/// Builders that run untraced return `None` for the sink.
pub type TracedBuild = (Box<dyn MemoryOrganization>, Option<SharedSink>);

/// Builds the organization *and* its trace sink for one point — the
/// builder shape every sweep path funnels through, taken by
/// [`run_sweep_traced_with`] from sweeps that arm their own sinks or
/// whose points encode axes [`OrgKind`] alone cannot (e.g. the
/// design-comparison sweep's device axis riding in the point key).
/// `Sync` because sweep workers call the builder concurrently.
pub type TracedOrgBuilder<'b> = dyn Fn(&SweepPoint, &SystemConfig) -> TracedBuild + Sync + 'b;

/// Runs a sweep with the default organization builder
/// ([`build_org`]).
///
/// # Errors
///
/// Returns [`SimError::CheckpointIo`] on checkpoint I/O failure and
/// [`SimError::Checkpoint`] on a corrupt checkpoint or one written under
/// a different configuration (see [`checkpoint::resume`]). Per-point
/// failures do *not* abort the sweep; they are recorded in the report.
pub fn run_sweep(
    points: &[SweepPoint],
    opts: &SweepOptions,
    checkpoint_path: Option<&Path>,
) -> Result<SweepReport, SimError> {
    run_sweep_with(points, opts, checkpoint_path, &|point, config| {
        // The bench was resolved before the builder is called; an identity
        // fallback keeps the builder infallible.
        let bench = cameo_workloads::by_name(&point.bench)
            .expect("run_sweep resolved the benchmark before building the organization");
        build_org(&bench, point.kind, config)
    })
}

/// Runs a sweep with a caller-provided organization builder.
///
/// Points already recorded as done in the checkpoint are skipped; failed
/// or missing points run for up to [`SweepOptions::max_attempts`]
/// attempts, each isolated with `catch_unwind` and bounded by the
/// watchdog, across [`SweepOptions::jobs`] workers. Every fresh outcome
/// is appended to the checkpoint the moment it completes (through one
/// shared [`checkpoint::Writer`]), so a kill at any instant loses at
/// most the in-flight points. The report lists outcomes in input order
/// regardless of completion order.
///
/// # Errors
///
/// Returns [`SimError::CheckpointIo`] on checkpoint I/O failure and
/// [`SimError::Checkpoint`] on a corrupt checkpoint or one written under
/// a different configuration, the only sweep-fatal conditions. Under
/// concurrency an append failure stops further claims; in-flight points
/// finish but the sweep returns the error.
pub fn run_sweep_with(
    points: &[SweepPoint],
    opts: &SweepOptions,
    checkpoint_path: Option<&Path>,
    build: &OrgBuilder<'_>,
) -> Result<SweepReport, SimError> {
    run_sweep_traced_with(points, opts, checkpoint_path, &|point, config| {
        (build(point, config), None)
    })
}

/// Runs a sweep with a caller-provided *traced* builder: the caller
/// constructs both the organization and (optionally) the armed
/// [`SharedSink`] it emits into, so the sink's options, and any hook
/// that streams evicted epochs to disk
/// ([`SharedSink::with_spill`]), are the builder's choice, as are axes
/// the [`OrgKind`] enum does not encode (the device model of a
/// design-comparison point). The builder runs once per attempt, so each
/// attempt records into a fresh sink, and the recording of a successful
/// fresh point lands on [`PointOutcome::trace`].
///
/// The simulated results are bit-identical to an untraced sweep's — the
/// reports compare equal, and the checkpoint format is unchanged
/// (resumed points simply carry no recording).
///
/// This is the sweep engine — resume lookup, work queue, crash
/// isolation, checkpoint appends — that [`run_sweep`] and
/// [`run_sweep_with`] call with their builders wrapped.
///
/// # Errors
///
/// Returns [`SimError::CheckpointIo`] on checkpoint I/O failure and
/// [`SimError::Checkpoint`] on a corrupt checkpoint or one written under
/// a different configuration (see [`checkpoint::resume`]). Per-point
/// failures do *not* abort the sweep; they are recorded in the report.
pub fn run_sweep_traced_with(
    points: &[SweepPoint],
    opts: &SweepOptions,
    checkpoint_path: Option<&Path>,
    build: &TracedOrgBuilder<'_>,
) -> Result<SweepReport, SimError> {
    // The sweep appends to the checkpoint it resumes from, so a torn
    // trailing record (killed mid-append) must be truncated away first —
    // plain `load` would leave the unterminated tail for the first fresh
    // append to corrupt — and records are matched by key alone, so the
    // file must have been written under this sweep's configuration.
    let (resume, writer) = match checkpoint_path {
        Some(path) => {
            let (records, writer) = checkpoint::resume(path, &opts.config)?;
            (records, Some(writer))
        }
        None => Default::default(),
    };
    let _quiet = QuietPanics::install();

    // Canonical-order slots: resumed points are answered immediately;
    // the rest are indexed into the work queue.
    let mut slots: Vec<Option<PointOutcome>> = points
        .iter()
        .map(|point| match resume.get(&point.key) {
            Some(record @ PointRecord::Done { .. }) => Some(PointOutcome {
                point: point.clone(),
                record: record.clone(),
                resumed: true,
                wall_nanos: 0,
                trace: None,
            }),
            _ => None,
        })
        .collect();
    let pending: Vec<usize> = (0..points.len()).filter(|&i| slots[i].is_none()).collect();

    // One mutex-guarded result cell per pending point: workers write
    // disjoint cells, so contention is zero and completion order never
    // reaches the report.
    type ResultCell = Mutex<Option<(PointRecord, u64, Option<TraceData>)>>;
    let results: Vec<ResultCell> = pending.iter().map(|_| Mutex::new(None)).collect();
    let checkpoint_failure: Mutex<Option<SimError>> = Mutex::new(None);
    crate::pool::for_each(opts.jobs.max(1), pending.len(), |n, cancel| {
        let point = &points[pending[n]];
        #[expect(
            clippy::disallowed_methods,
            reason = "per-point wall time: recorded as `wall_nanos` beside the \
                      deterministic `PointRecord`, excluded from report equality \
                      and golden comparisons"
        )]
        let point_start = Instant::now();
        let (record, trace) = run_point(point, opts, build);
        let appended = writer
            .as_ref()
            .map_or(Ok(()), |writer| writer.append(&point.key, &record));
        match appended {
            Ok(()) => {
                let wall_nanos =
                    u64::try_from(point_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                *lock(&results[n]) = Some((record, wall_nanos, trace));
            }
            Err(e) => {
                *lock(&checkpoint_failure) = Some(e);
                cancel.cancel();
            }
        }
    });
    if let Some(e) = lock(&checkpoint_failure).take() {
        return Err(e);
    }

    for (n, &i) in pending.iter().enumerate() {
        let (record, wall_nanos, trace) = lock(&results[n])
            .take()
            .expect("an uncancelled pool runs every pending point to completion");
        slots[i] = Some(PointOutcome {
            point: points[i].clone(),
            record,
            resumed: false,
            wall_nanos,
            trace,
        });
    }
    let outcomes = slots
        .into_iter()
        .map(|slot| slot.expect("every slot is either resumed or filled by its worker"))
        .collect();
    Ok(SweepReport { outcomes })
}

/// Locks a mutex, continuing through poisoning: sweep state behind these
/// mutexes is written atomically (one `Option` store), so a panicking
/// worker cannot leave it half-updated.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A live attempt: the organization under test, its optional trace sink,
/// and the paused event-loop session that resumes them.
struct ActiveRun {
    org: Box<dyn MemoryOrganization>,
    sink: Option<SharedSink>,
    session: RunSession<TraceGenerator>,
}

/// Runs one point to its terminal record on the calling worker: up to
/// [`SweepOptions::max_attempts`] crash-isolated attempts at the
/// configured scale, each stepped through chunks of at most
/// [`SweepOptions::chunk_accesses`] accesses. Every point failure is a
/// [`PointRecord::Failed`].
fn run_point(
    point: &SweepPoint,
    opts: &SweepOptions,
    build: &TracedOrgBuilder<'_>,
) -> (PointRecord, Option<TraceData>) {
    let bench = match cameo_workloads::require(&point.bench) {
        Ok(bench) => bench,
        Err(e) => {
            // Deterministic configuration error: retrying cannot help.
            let error = SimError::from(e).to_string();
            return (PointRecord::Failed { attempts: 1, error }, None);
        }
    };
    let budget = opts.chunk_accesses.map_or(u64::MAX, |c| c.max(1));
    let max_attempts = opts.max_attempts.max(1);
    let mut error = String::new();
    for attempt in 1..=max_attempts {
        let mut active = match begin_attempt(point, &bench, &opts.config, build) {
            Ok(active) => active,
            Err(e) => {
                error = e.to_string();
                continue;
            }
        };
        loop {
            match step_attempt(point, &mut active, opts.watchdog_cycles, budget) {
                Ok(SessionStatus::Running) => {}
                Ok(SessionStatus::Complete(stats)) => {
                    let trace = active.sink.map(|sink| sink.take());
                    return (
                        PointRecord::Done {
                            attempts: attempt,
                            stats,
                        },
                        trace,
                    );
                }
                Err(e) => {
                    error = e.to_string();
                    break;
                }
            }
        }
    }
    (
        PointRecord::Failed {
            attempts: max_attempts,
            error,
        },
        None,
    )
}

/// Crash-isolated start of one attempt: builds the organization (and
/// sink) and runs the prefill transient, parking the session before its
/// first access. The builder arms a fresh sink per call, so a failed
/// attempt's partial recording is simply dropped with its organization —
/// the surviving recording covers exactly the successful run.
fn begin_attempt(
    point: &SweepPoint,
    bench: &BenchSpec,
    config: &SystemConfig,
    build: &TracedOrgBuilder<'_>,
) -> Result<ActiveRun, SimError> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        // Validate before building: a builder may divide by (or size a
        // table from) a field only `Runner::new` checks.
        let runner = Runner::new(*bench, config)?;
        let (mut org, sink) = build(point, config);
        let session = runner.start(org.as_mut())?;
        Ok(ActiveRun { org, sink, session })
    }));
    attempt.unwrap_or_else(|payload| {
        Err(SimError::PointPanicked {
            key: point.key.clone(),
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Crash-isolated advance of a live attempt by at most `budget` accesses.
fn step_attempt(
    point: &SweepPoint,
    active: &mut ActiveRun,
    watchdog_cycles: Option<u64>,
    budget: u64,
) -> Result<SessionStatus, SimError> {
    let ActiveRun { org, session, .. } = active;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        session.step(org.as_mut(), watchdog_cycles, budget)
    }));
    outcome.unwrap_or_else(|payload| {
        Err(SimError::PointPanicked {
            key: point.key.clone(),
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Extracts the human-readable panic message, when there is one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The process-global panic hook, as stored by `std::panic::take_hook`.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// RAII guard replacing the process panic hook with a silent one for the
/// duration of a sweep, so crash-isolated points do not spray backtraces.
struct QuietPanics {
    previous: Option<PanicHook>,
}

impl QuietPanics {
    fn install() -> Self {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        Self {
            previous: Some(previous),
        }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            std::panic::set_hook(previous);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::build_org_traced;
    use crate::org::OrgResult;
    use crate::stats::BandwidthReport;
    use crate::trace::TraceOptions;
    use cameo_types::{Access, ByteSize, Cycle, PageAddr};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn quick_opts() -> SweepOptions {
        SweepOptions {
            config: SystemConfig {
                scale: 8192,
                cores: 2,
                instructions_per_core: 20_000,
                warmup_fraction: 0.2,
                ..Default::default()
            },
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// An organization that panics after a fixed number of accesses —
    /// stands in for any buggy design point.
    #[derive(Debug)]
    struct FuseOrg {
        remaining: u64,
        /// Counts the organization live from build to drop, when a test
        /// watches how many points are in flight at once.
        _live: Option<LiveGuard>,
    }

    /// Organizations currently alive, and the most ever alive at once.
    #[derive(Debug, Default)]
    struct LiveCount {
        live: AtomicUsize,
        peak: AtomicUsize,
    }

    #[derive(Debug)]
    struct LiveGuard(Arc<LiveCount>);

    impl LiveGuard {
        fn new(count: &Arc<LiveCount>) -> Self {
            let live = count.live.fetch_add(1, Ordering::SeqCst) + 1;
            count.peak.fetch_max(live, Ordering::SeqCst);
            Self(Arc::clone(count))
        }
    }

    impl Drop for LiveGuard {
        fn drop(&mut self) {
            self.0.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl MemoryOrganization for FuseOrg {
        fn name(&self) -> &'static str {
            "Fuse"
        }
        fn access(&mut self, now: Cycle, _access: &Access) -> OrgResult {
            assert!(self.remaining > 0, "fuse blew: injected test failure");
            self.remaining -= 1;
            OrgResult {
                completion: now + Cycle::new(10),
                serviced_by: cameo_types::ServiceLocation::OffChip,
                faulted: false,
            }
        }
        fn visible_capacity(&self) -> ByteSize {
            ByteSize::from_gib(1)
        }
        fn bandwidth(&self) -> BandwidthReport {
            BandwidthReport::default()
        }
        fn faults(&self) -> u64 {
            0
        }
        fn service_counts(&self) -> (u64, u64) {
            (0, 0)
        }
        fn prediction_cases(&self) -> Option<cameo::PredictionCaseCounts> {
            None
        }
        fn prefill(&mut self, _page: PageAddr) {}
        fn reset_stats(&mut self) {}
    }

    #[test]
    fn sweep_completes_all_points() {
        let points = [
            SweepPoint::new("astar", OrgKind::Baseline),
            SweepPoint::new("astar", OrgKind::cameo_default()),
        ];
        let report = run_sweep(&points, &quick_opts(), None).expect("no checkpoint I/O involved");
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.resumed(), 0);
        assert!(report.stats_of("astar::CAMEO").is_some());
        assert!(report.stats_of("astar::Baseline").is_some());
    }

    #[test]
    fn panicking_point_is_isolated_and_recorded() {
        let points = [
            SweepPoint::new("astar", OrgKind::Baseline).with_key("ok-before"),
            SweepPoint::new("astar", OrgKind::Baseline).with_key("explodes"),
            SweepPoint::new("astar", OrgKind::Baseline).with_key("ok-after"),
        ];
        let report = run_sweep_with(&points, &quick_opts(), None, &|point, config| {
            if point.key == "explodes" {
                // The quick config issues ~60 post-L3 accesses; a 20-access
                // fuse reliably blows mid-run rather than never.
                Box::new(FuseOrg {
                    remaining: 20,
                    _live: None,
                })
            } else {
                build_org(
                    &cameo_workloads::require(&point.bench).expect("suite benchmark"),
                    point.kind,
                    config,
                )
            }
        })
        .expect("no checkpoint I/O involved");
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        match &report.outcomes[1].record {
            PointRecord::Failed { attempts, error } => {
                assert_eq!(*attempts, 1);
                assert!(error.contains("fuse blew"), "{error}");
            }
            other => panic!("expected failure record, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_bounds_runaway_points() {
        let points = [SweepPoint::new("astar", OrgKind::Baseline)];
        let opts = SweepOptions {
            watchdog_cycles: Some(50),
            ..quick_opts()
        };
        let report = run_sweep(&points, &opts, None).expect("no checkpoint I/O involved");
        assert_eq!(report.failed(), 1);
        match &report.outcomes[0].record {
            PointRecord::Failed { error, .. } => {
                assert!(error.contains("watchdog"), "{error}");
            }
            other => panic!("expected watchdog failure, got {other:?}"),
        }
    }

    #[test]
    fn unknown_benchmark_fails_without_retries() {
        let opts = SweepOptions {
            max_attempts: 5,
            ..quick_opts()
        };
        let points = [SweepPoint::new("notabench", OrgKind::Baseline)];
        let report = run_sweep(&points, &opts, None).expect("no checkpoint I/O involved");
        match &report.outcomes[0].record {
            PointRecord::Failed { attempts, error } => {
                assert_eq!(*attempts, 1, "deterministic errors must not retry");
                assert!(error.contains("notabench"), "{error}");
            }
            other => panic!("expected failure record, got {other:?}"),
        }
    }

    /// The simulator is deterministic, so a point that panics panics
    /// again: under default options it is built exactly once, at the
    /// configured scale, and recorded as failed after that one attempt.
    #[test]
    fn failing_point_is_built_once_at_configured_scale_by_default() {
        let opts = SweepOptions {
            config: quick_opts().config,
            ..SweepOptions::default()
        };
        let builds = Mutex::new(Vec::new());
        let points = [SweepPoint::new("astar", OrgKind::Baseline)];
        let report = run_sweep_with(&points, &opts, None, &|_, config| {
            lock(&builds).push(config.scale);
            Box::new(FuseOrg {
                remaining: 10,
                _live: None,
            })
        })
        .expect("no checkpoint I/O involved");
        assert_eq!(
            builds.into_inner().expect("the sweep has returned"),
            vec![opts.config.scale]
        );
        match &report.outcomes[0].record {
            PointRecord::Failed { attempts, error } => {
                assert_eq!(*attempts, 1);
                assert!(error.contains("fuse blew"), "{error}");
            }
            other => panic!("expected failure record, got {other:?}"),
        }
    }

    /// A worker steps the point it claimed to completion before claiming
    /// another, so however finely points are chunked, no more than `jobs`
    /// organizations are ever alive at once — which keeps a sweep's peak
    /// memory at `jobs` points' worth.
    #[test]
    fn live_points_never_exceed_jobs() {
        let opts = SweepOptions {
            jobs: 2,
            chunk_accesses: Some(4),
            ..quick_opts()
        };
        let count = Arc::new(LiveCount::default());
        let points: Vec<SweepPoint> = (0..8)
            .map(|i| SweepPoint::new("astar", OrgKind::Baseline).with_key(format!("p{i}")))
            .collect();
        let report = run_sweep_with(&points, &opts, None, &|_, _| {
            Box::new(FuseOrg {
                remaining: u64::MAX,
                _live: Some(LiveGuard::new(&count)),
            })
        })
        .expect("no checkpoint I/O involved");
        assert_eq!(report.completed(), points.len());
        assert_eq!(count.live.load(Ordering::SeqCst), 0, "every org dropped");
        let peak = count.peak.load(Ordering::SeqCst);
        assert!(peak <= opts.jobs, "{peak} organizations alive at once");
    }

    /// The tentpole determinism guarantee: the same sweep run serially
    /// and with 4 workers produces an equal [`SweepReport`] (stats,
    /// order, resume flags) and checkpoints that replay identically.
    #[test]
    fn parallel_sweep_matches_serial() {
        let points = [
            SweepPoint::new("astar", OrgKind::Baseline),
            SweepPoint::new("astar", OrgKind::cameo_default()),
            SweepPoint::new("milc", OrgKind::Baseline),
            SweepPoint::new("milc", OrgKind::AlloyCache),
            SweepPoint::new("mcf", OrgKind::cameo_default()),
        ];
        let dir = std::env::temp_dir();
        let serial_path = dir.join(format!("cameo_sweep_det_s_{}.jsonl", std::process::id()));
        let parallel_path = dir.join(format!("cameo_sweep_det_p_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&parallel_path);

        let serial =
            run_sweep(&points, &quick_opts(), Some(&serial_path)).expect("tmp dir is writable");
        let parallel_opts = SweepOptions {
            jobs: 4,
            ..quick_opts()
        };
        let parallel =
            run_sweep(&points, &parallel_opts, Some(&parallel_path)).expect("tmp dir is writable");

        assert_eq!(serial, parallel);
        assert_eq!(parallel.completed(), points.len());
        for (outcome, point) in parallel.outcomes.iter().zip(&points) {
            assert_eq!(outcome.point.key, point.key, "canonical order preserved");
        }
        // Checkpoint replay: on-disk record order may differ (completion
        // order), but the loaded key → record maps must be identical.
        let serial_map = checkpoint::load(&serial_path).expect("serial checkpoint loads");
        let parallel_map = checkpoint::load(&parallel_path).expect("parallel checkpoint loads");
        assert_eq!(serial_map, parallel_map);
        std::fs::remove_file(&serial_path).expect("tmp cleanup");
        std::fs::remove_file(&parallel_path).expect("tmp cleanup");
    }

    /// Kill-and-resume under parallelism: a checkpoint holding a subset
    /// of the points (as a killed parallel sweep leaves behind) resumes
    /// those and computes the rest, with the same stats as an
    /// uninterrupted serial run.
    #[test]
    fn parallel_resume_completes_partial_checkpoint() {
        let points = [
            SweepPoint::new("astar", OrgKind::Baseline),
            SweepPoint::new("astar", OrgKind::cameo_default()),
            SweepPoint::new("milc", OrgKind::Baseline),
            SweepPoint::new("milc", OrgKind::cameo_default()),
        ];
        let truth = run_sweep(&points, &quick_opts(), None).expect("no checkpoint I/O involved");

        // A "killed" sweep finished two arbitrary points (parallel
        // completion order is arbitrary — use the 2nd and 4th).
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_sweep_kill_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (_, writer) =
            checkpoint::resume(&path, &quick_opts().config).expect("tmp dir is writable");
        for i in [1, 3] {
            writer
                .append(&truth.outcomes[i].point.key, &truth.outcomes[i].record)
                .expect("tmp dir is writable");
        }

        let resumed_opts = SweepOptions {
            jobs: 4,
            ..quick_opts()
        };
        let resumed =
            run_sweep(&points, &resumed_opts, Some(&path)).expect("checkpoint is readable");
        assert_eq!(resumed.resumed(), 2);
        assert_eq!(resumed.completed(), points.len());
        for point in &points {
            assert_eq!(
                resumed.stats_of(&point.key),
                truth.stats_of(&point.key),
                "{} differs after resume",
                point.key
            );
        }
        // The completed checkpoint now resumes everything.
        let replayed = run_sweep_with(&points, &resumed_opts, Some(&path), &|point, _| {
            panic!("point {} should have been resumed", point.key)
        })
        .expect("checkpoint is readable");
        assert_eq!(replayed.resumed(), points.len());
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    /// A panicking point stays isolated when it runs on a worker thread.
    #[test]
    fn parallel_sweep_isolates_panicking_points() {
        let points = [
            SweepPoint::new("astar", OrgKind::Baseline).with_key("ok-1"),
            SweepPoint::new("astar", OrgKind::Baseline).with_key("explodes"),
            SweepPoint::new("astar", OrgKind::Baseline).with_key("ok-2"),
        ];
        let opts = SweepOptions {
            jobs: 3,
            ..quick_opts()
        };
        let report = run_sweep_with(&points, &opts, None, &|point, config| {
            if point.key == "explodes" {
                Box::new(FuseOrg {
                    remaining: 20,
                    _live: None,
                })
            } else {
                build_org(
                    &cameo_workloads::require(&point.bench).expect("suite benchmark"),
                    point.kind,
                    config,
                )
            }
        })
        .expect("no checkpoint I/O involved");
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        assert!(matches!(
            report.outcomes[1].record,
            PointRecord::Failed { .. }
        ));
    }

    /// Fresh points carry the host wall-clock spent producing them.
    #[test]
    fn per_point_wall_clock_is_recorded() {
        let points = [SweepPoint::new("astar", OrgKind::Baseline)];
        let report = run_sweep(&points, &quick_opts(), None).expect("no checkpoint I/O involved");
        assert!(report.outcomes[0].wall_nanos > 0);
    }

    /// Arming the recording sink must not perturb simulated results: a
    /// traced sweep's report compares equal to the untraced one, fresh
    /// traced points carry recordings, and untraced organizations come
    /// back with an empty (but present) recording.
    #[test]
    fn traced_sweep_matches_untraced_and_records() {
        let points = [
            SweepPoint::new("astar", OrgKind::cameo_default()),
            SweepPoint::new("astar", OrgKind::Baseline),
        ];
        let plain = run_sweep(&points, &quick_opts(), None).expect("no checkpoint I/O involved");
        let traced = run_sweep_traced_with(&points, &quick_opts(), None, &|point, config| {
            let bench = cameo_workloads::require(&point.bench).expect("suite benchmark");
            let sink = SharedSink::new(TraceOptions::default());
            let org = build_org_traced(&bench, point.kind, config, sink.clone());
            (org, Some(sink))
        })
        .expect("no checkpoint I/O involved");
        assert_eq!(plain, traced, "tracing must not change simulated results");
        assert!(plain.trace_of("astar::CAMEO").is_none());
        let recording = traced
            .trace_of("astar::CAMEO")
            .expect("fresh traced points carry a recording");
        assert!(recording.totals().serviced() > 0);
        let baseline = traced
            .trace_of("astar::Baseline")
            .expect("untraced organizations still return their armed sink");
        assert_eq!(baseline.event_count(), 0, "Baseline has no emission sites");
    }

    #[test]
    fn checkpoint_resume_skips_done_points() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_sweep_resume_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let points = [
            SweepPoint::new("astar", OrgKind::Baseline),
            SweepPoint::new("astar", OrgKind::cameo_default()),
        ];
        let opts = quick_opts();
        let first = run_sweep(&points, &opts, Some(&path)).expect("checkpoint dir is writable");
        assert_eq!(first.completed(), 2);
        assert_eq!(first.resumed(), 0);

        // Second invocation: every point must come from the checkpoint.
        // The builder panics if called, proving nothing re-ran.
        let second = run_sweep_with(&points, &opts, Some(&path), &|point, _| {
            panic!("point {} should have been resumed", point.key)
        })
        .expect("checkpoint is readable");
        assert_eq!(second.completed(), 2);
        assert_eq!(second.resumed(), 2);
        assert_eq!(
            second.stats_of("astar::Baseline"),
            first.stats_of("astar::Baseline")
        );
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    /// Records are matched to points by key alone, so a checkpoint
    /// written under one configuration must not answer a sweep under
    /// another: the refusal names the first field that differs, leaves
    /// the file as it was, and the first configuration still resumes
    /// every point.
    #[test]
    fn checkpoint_of_another_configuration_is_refused() {
        let path =
            std::env::temp_dir().join(format!("cameo_sweep_config_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let points = [
            SweepPoint::new("astar", OrgKind::Baseline),
            SweepPoint::new("milc", OrgKind::Baseline),
        ];
        let a = quick_opts();
        let first = run_sweep(&points, &a, Some(&path)).expect("tmp dir is writable");
        assert_eq!(first.completed(), 2);
        let written = std::fs::read_to_string(&path).expect("checkpoint readable");

        let b = SweepOptions {
            config: SystemConfig {
                seed: a.config.seed + 1,
                ..a.config
            },
            ..a
        };
        let err = run_sweep_with(&points, &b, Some(&path), &|point, _| {
            panic!("point {} ran under a refused checkpoint", point.key)
        })
        .expect_err("a different seed is refused");
        match &err {
            SimError::Checkpoint(detail) => assert!(
                detail.contains("different configuration: seed is 42 there, 43 here"),
                "{detail}"
            ),
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
        assert_eq!(
            std::fs::read_to_string(&path).expect("checkpoint readable"),
            written,
            "a refused resume leaves the file as it was"
        );

        let again = run_sweep_with(&points, &a, Some(&path), &|point, _| {
            panic!("point {} should have been resumed", point.key)
        })
        .expect("the writing configuration resumes");
        assert_eq!(again.resumed(), points.len());
        for point in &points {
            assert_eq!(again.stats_of(&point.key), first.stats_of(&point.key));
        }
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    #[test]
    fn failed_points_are_retried_on_resume() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_sweep_refail_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let points = [SweepPoint::new("astar", OrgKind::Baseline)];
        let opts = quick_opts();
        let broken = run_sweep_with(&points, &opts, Some(&path), &|_, _| {
            Box::new(FuseOrg {
                remaining: 5,
                _live: None,
            })
        })
        .expect("checkpoint dir is writable");
        assert_eq!(broken.failed(), 1);
        // Re-invoking with a working builder re-runs the failed point.
        let fixed = run_sweep(&points, &opts, Some(&path)).expect("checkpoint is readable");
        assert_eq!(fixed.completed(), 1);
        assert_eq!(fixed.resumed(), 0);
        std::fs::remove_file(&path).expect("tmp cleanup");
    }
}
