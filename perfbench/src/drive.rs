//! Drives a workload's points through the simulator's public API: either
//! serially, point after point through `RunSession`, or through the
//! sweep harness with its worker pool and chunk scheduling.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use cameo_sim::checkpoint::PointRecord;
use cameo_sim::experiments::build_org;
use cameo_sim::harness::{run_sweep_with, SweepOptions, SweepPoint};
use cameo_sim::runner::{trace_configs, RunSession, SessionStatus};
use cameo_sim::{MemoryOrganization, RunStats, SimError, SystemConfig};
use cameo_workloads::{BenchSpec, MissStream, TraceGenerator};

use crate::host::{current_rss_bytes, since};
use crate::shim::{log_slot, LogSlot, OrgShim, PointLog, Probe, StreamShim};

/// Watchdog: a point whose simulated clock passes this many cycles per
/// instruction of its slice is cut off as failed. Real runs stay orders
/// of magnitude below it, even when every miss pages.
const WATCHDOG_CPI: u64 = 100_000;

/// The cycle budget of a point under `cfg`.
pub fn watchdog_cycles(cfg: &SystemConfig) -> u64 {
    cfg.instructions_per_core.saturating_mul(WATCHDOG_CPI)
}

/// One point of a finished pass.
#[derive(Debug)]
pub struct PointRun {
    /// The point.
    pub point: SweepPoint,
    /// Its statistics, or why it failed (panic, watchdog, error).
    pub outcome: Result<RunStats, String>,
    /// What the organization shim measured, if it ran.
    pub log: Option<PointLog>,
    /// When the point started (its build).
    pub started: Instant,
    /// Host time the point kept a worker busy, in nanoseconds.
    pub busy_ns: u64,
    /// Resident-set growth across build and prefill, in bytes (serial
    /// passes only).
    pub rss_growth: Option<u64>,
}

/// One pass over every point of a workload.
#[derive(Debug)]
pub struct Pass {
    /// Workers the pass ran on.
    pub jobs: usize,
    /// Host wall time of the whole pass, in nanoseconds.
    pub wall_ns: u64,
    /// Per-point results, in canonical order.
    pub points: Vec<PointRun>,
}

fn take_log(slot: &LogSlot) -> Option<PointLog> {
    match slot.lock() {
        Ok(mut guard) => guard.take(),
        Err(poisoned) => poisoned.into_inner().take(),
    }
}

/// Builds, prefills and runs one point to completion over `streams`.
/// Returns the statistics and the resident set once set-up is done.
fn run_point<S: MissStream>(
    bench: &BenchSpec,
    cfg: &SystemConfig,
    shim: &mut OrgShim,
    streams: Vec<S>,
) -> Result<(RunStats, Option<u64>), SimError> {
    let mut session = RunSession::new(bench, cfg, shim, streams)?;
    let rss = current_rss_bytes();
    match session.step(shim, Some(watchdog_cycles(cfg)), u64::MAX)? {
        SessionStatus::Complete(stats) => Ok((*stats, rss)),
        SessionStatus::Running => unreachable!("an unbounded step returns only at completion"),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Runs `points` one after another on this thread. With a `probe`, the
/// organization and every stream are traced, sampling one access in
/// `every`.
pub fn run_serial(
    points: &[SweepPoint],
    cfg: &SystemConfig,
    probe: Option<&Arc<Probe>>,
    every: u64,
) -> Pass {
    let start = Instant::now();
    let runs = points
        .iter()
        .map(|point| {
            let slot = log_slot();
            let rss_before = current_rss_bytes();
            let point_start = Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let bench = cameo_workloads::require(&point.bench).map_err(SimError::from)?;
                let org = build_org(&bench, point.kind, cfg);
                let mut shim = OrgShim::new(org, since(point_start), None, slot.clone());
                let configs = trace_configs(&bench, cfg);
                match probe {
                    None => {
                        let streams = configs
                            .into_iter()
                            .map(|tc| TraceGenerator::new(bench, tc))
                            .collect();
                        run_point(&bench, cfg, &mut shim, streams)
                    }
                    Some(probe) => {
                        shim = shim.traced(Arc::clone(probe), every);
                        let streams = (0u16..)
                            .zip(configs)
                            .map(|(core, tc)| {
                                StreamShim::new(
                                    TraceGenerator::new(bench, tc),
                                    core,
                                    Arc::clone(probe),
                                )
                            })
                            .collect();
                        run_point(&bench, cfg, &mut shim, streams)
                    }
                }
            }));
            let outcome = match attempt {
                Ok(Ok(done)) => Ok(done),
                Ok(Err(e)) => Err(e.to_string()),
                Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
            };
            let busy_ns = since(point_start);
            let (outcome, rss_growth) = match outcome {
                Ok((stats, rss_after)) => (
                    Ok(stats),
                    rss_after
                        .zip(rss_before)
                        .map(|(after, before)| after.saturating_sub(before)),
                ),
                Err(e) => (Err(e), None),
            };
            PointRun {
                point: point.clone(),
                outcome,
                log: take_log(&slot),
                started: point_start,
                busy_ns,
                rss_growth,
            }
        })
        .collect();
    Pass {
        jobs: 1,
        wall_ns: since(start),
        points: runs,
    }
}

/// Runs `points` through the sweep harness on `jobs` workers with
/// `chunk`-access scheduling chunks, the way the figure binaries do.
///
/// # Errors
///
/// Returns the harness's sweep-fatal error; per-point failures land in
/// the pass instead.
pub fn run_harness(
    points: &[SweepPoint],
    cfg: &SystemConfig,
    jobs: usize,
    chunk: Option<u64>,
) -> Result<Pass, SimError> {
    let slots: Vec<LogSlot> = points.iter().map(|_| log_slot()).collect();
    let index: BTreeMap<&str, usize> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.key.as_str(), i))
        .collect();
    let opts = SweepOptions {
        config: *cfg,
        max_attempts: 1,
        watchdog_cycles: Some(watchdog_cycles(cfg)),
        jobs,
        chunk_accesses: chunk,
        ..SweepOptions::default()
    };
    let build = |point: &SweepPoint, config: &SystemConfig| -> Box<dyn MemoryOrganization> {
        let start = Instant::now();
        let bench = cameo_workloads::require(&point.bench)
            .expect("the harness resolves the benchmark before building");
        let org = build_org(&bench, point.kind, config);
        let slot = Arc::clone(&slots[index[point.key.as_str()]]);
        Box::new(OrgShim::new(org, since(start), chunk, slot))
    };
    let start = Instant::now();
    let report = run_sweep_with(points, &opts, None, &build)?;
    let wall_ns = since(start);
    let runs = report
        .outcomes
        .into_iter()
        .zip(&slots)
        .map(|(outcome, slot)| PointRun {
            outcome: match outcome.record {
                PointRecord::Done { stats, .. } => Ok(*stats),
                PointRecord::Failed { error, .. } => Err(error),
            },
            point: outcome.point,
            log: take_log(slot),
            started: start,
            busy_ns: outcome.wall_nanos,
            rss_growth: None,
        })
        .collect();
    Ok(Pass {
        jobs: jobs.max(1),
        wall_ns,
        points: runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Size, Workload};

    #[test]
    fn chunked_pool_pass_matches_serial_and_accounts_busy_time() {
        let w = Workload::by_name("sweep-fig13").expect("known workload");
        let cfg = w.config(3, Size::Tiny);
        let points = w.points();
        let serial = run_serial(&points, &cfg, None, 0);
        let pooled = run_harness(&points, &cfg, 2, Some(1_000)).expect("no checkpoint to fail");
        for (s, p) in serial.points.iter().zip(&pooled.points) {
            assert_eq!(s.outcome, p.outcome, "{}", s.point.key);
            let (sl, pl) = (s.log.as_ref().expect("log"), p.log.as_ref().expect("log"));
            assert!(sl.complete && pl.complete);
            assert_eq!(sl.accesses, pl.accesses);
            // Phases count busy time only, so they fit in the worker time
            // the harness charged the point.
            assert!(pl.phases.total() <= p.busy_ns, "{}", p.point.key);
            assert!(pl.phases.measured > 0 && pl.phases.warmup > 0);
        }
    }

    #[test]
    fn traced_pass_samples_measured_accesses_and_keeps_results() {
        let w = Workload::by_name("steady-gcc").expect("known workload");
        let cfg = w.config(3, Size::Tiny);
        let points = w.points();
        let plain = run_serial(&points, &cfg, None, 0);
        let probe = Probe::new(crate::host::Clock::new());
        let traced = run_serial(&points, &cfg, Some(&probe), 16);
        for (a, b) in plain.points.iter().zip(&traced.points) {
            assert_eq!(a.outcome, b.outcome);
            let log = b.log.as_ref().expect("log");
            let measured: Vec<_> = log.samples.iter().filter(|s| s.measured).collect();
            assert!(!measured.is_empty());
            for s in measured {
                assert!(s.t0 <= s.t1 && s.t1 <= s.t4);
                assert!(!s.has_stream() || (s.t1 <= s.t2 && s.t2 <= s.t3 && s.t3 <= s.t4));
            }
        }
        assert!(probe.prefill_list_ns() > 0);
    }
}
