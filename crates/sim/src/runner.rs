//! The multi-core event loop driving an organization with rate-mode
//! workload copies.

use std::ops::Range;

use cameo_types::{Access, AccessKind, CoreId, Cycle, PageAddr};
use cameo_workloads::{BenchSpec, MissEvent, MissStream, TraceConfig, TraceGenerator};

use crate::config::SystemConfig;
use crate::core_model::CoreTimeline;
use crate::error::SimError;
use crate::org::MemoryOrganization;
use crate::stats::RunStats;

/// Drives `cores` rate-mode copies of one benchmark through a memory
/// organization and produces [`RunStats`] for the post-warmup region.
///
/// Event ordering is global: the core with the earliest next-issue time
/// goes next, so device-level contention between cores is modeled
/// faithfully.
pub struct Runner<'a> {
    bench: BenchSpec,
    config: &'a SystemConfig,
}

struct CoreState<S> {
    timeline: CoreTimeline,
    stream: S,
    pending: MissEvent,
    /// `timeline.cycles_for(pending.gap_instructions)`, computed once.
    pending_cycles: u64,
}

/// The key of a core that retired all of its instructions. Every live
/// key sits strictly below it ([`IssueKeys::set`] refuses a time that
/// would not).
const RETIRED: u64 = u64::MAX;

/// The cores' projected issue times as one packed key per core,
/// `time << core_bits | core` (`core_bits` the bits the core count
/// needs), or [`RETIRED`]. Keys order by time first and core second, so
/// the smallest key is the `(time, core)` lexicographic minimum, ties to
/// the lower core: the event interleaving every golden pins depends on
/// that order. [`IssueKeys::earliest`] is a branch-free minimum over the
/// keys and [`IssueKeys::set`] one store.
struct IssueKeys {
    /// One key per core, padded with [`RETIRED`] to a multiple of four.
    keys: Box<[u64]>,
    core_bits: u32,
    /// The latest time a key can carry below [`RETIRED`].
    max_time: u64,
}

impl IssueKeys {
    /// Keys for `cores` cores, all retired.
    fn new(cores: usize) -> Self {
        let core_bits = usize::BITS - cores.saturating_sub(1).leading_zeros();
        Self {
            keys: vec![RETIRED; cores.next_multiple_of(4)].into_boxed_slice(),
            core_bits,
            max_time: (RETIRED >> core_bits) - 1,
        }
    }

    /// Index of the core with the earliest projected issue time, ties to
    /// the lowest index, or `None` once every core is retired.
    ///
    /// Four running minima, one per key index modulo four, in scalar
    /// registers. The vectorized reduction a plain `min` fold compiles to
    /// reads the key [`IssueKeys::set`] just stored as half of a 16-byte
    /// load, which store forwarding cannot serve; on steady-gcc that stall
    /// gave back nearly all of the gain over the winner tree.
    #[inline]
    fn earliest(&self) -> Option<usize> {
        let mut lanes = [RETIRED; 4];
        for group in self.keys.chunks_exact(4) {
            lanes[0] = lanes[0].min(group[0]);
            lanes[1] = lanes[1].min(group[1]);
            lanes[2] = lanes[2].min(group[2]);
            lanes[3] = lanes[3].min(group[3]);
        }
        let min = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
        (min != RETIRED).then_some((min & ((1 << self.core_bits) - 1)) as usize)
    }

    /// Sets core `core`'s projected issue time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IssueTimeOverflow`] if `time` does not fit a
    /// key below [`RETIRED`].
    #[inline]
    fn set(&mut self, core: usize, time: Cycle) -> Result<(), SimError> {
        if time.raw() > self.max_time {
            return Err(SimError::IssueTimeOverflow {
                core,
                cycle: time.raw(),
                limit: self.max_time,
            });
        }
        self.keys[core] = time.raw() << self.core_bits | core as u64;
        Ok(())
    }

    /// Marks core `core` retired.
    #[inline]
    fn retire(&mut self, core: usize) {
        self.keys[core] = RETIRED;
    }
}

/// Per-core trace configurations for one benchmark under `config`.
///
/// Table II footprints are totals over all rate-mode copies: each core owns
/// `footprint / cores`, in a disjoint virtual range. Exposed so that
/// profiling passes (TLM-Oracle) generate exactly the streams the timed run
/// will see.
pub fn trace_configs(bench: &BenchSpec, config: &SystemConfig) -> Vec<TraceConfig> {
    let per_core_pages =
        (bench.footprint.scale_down(config.scale).pages() / u64::from(config.cores)).max(1);
    (0..config.cores)
        .map(|core| TraceConfig {
            scale: config.scale * u64::from(config.cores),
            seed: config
                .seed
                .wrapping_mul(0x9E37)
                .wrapping_add(u64::from(core)),
            core_offset_pages: u64::from(core) * per_core_pages,
        })
        .collect()
}

impl<'a> Runner<'a> {
    /// Creates a runner for one benchmark under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is invalid (see
    /// [`SystemConfig::validate`]), or [`SimError::InvalidSpec`] if the
    /// benchmark cannot drive a generator (see [`BenchSpec::validate`]).
    pub fn new(bench: BenchSpec, config: &'a SystemConfig) -> Result<Self, SimError> {
        config.validate()?;
        bench.validate()?;
        Ok(Self { bench, config })
    }

    fn build_streams(&self) -> Vec<TraceGenerator> {
        trace_configs(&self.bench, self.config)
            .into_iter()
            .map(|tc| TraceGenerator::new(self.bench, tc))
            .collect()
    }

    /// Runs the benchmark's synthetic rate-mode streams to completion and
    /// returns the measured-region statistics.
    ///
    /// # Panics
    ///
    /// Panics on internal invariant violations, or if the organization
    /// reports a completion past the event order's range
    /// ([`SimError::IssueTimeOverflow`]); prefer [`Runner::try_run`] in
    /// batch settings.
    pub fn run(&self, org: &mut dyn MemoryOrganization) -> RunStats {
        self.try_run(org, None)
            .expect("an unbudgeted run fails only on an issue time past the key range")
    }

    /// Runs with caller-provided per-core miss streams — e.g. recorded
    /// traces replayed through `cameo-trace` — instead of the synthetic
    /// generators. Heterogeneous stream sets can be passed as
    /// `Vec<Box<dyn MissStream>>`; concrete types dispatch statically.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty, or as [`Runner::run`] does.
    pub fn run_with_streams<S: MissStream>(
        &self,
        org: &mut dyn MemoryOrganization,
        streams: Vec<S>,
    ) -> RunStats {
        self.try_run_with_streams(org, streams, None)
            .expect("an unbudgeted run was handed streams and keyed every issue time")
    }

    /// Like [`Runner::run`], with an optional cycle-budget watchdog: if any
    /// core's issue clock passes `budget_cycles` before all cores retire
    /// their instructions, the run aborts with
    /// [`SimError::WatchdogExpired`] instead of spinning forever on a
    /// misbehaving organization.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WatchdogExpired`] when the budget trips, or
    /// [`SimError::IssueTimeOverflow`] when a core's projected issue time
    /// passes the event order's range.
    pub fn try_run(
        &self,
        org: &mut dyn MemoryOrganization,
        budget_cycles: Option<u64>,
    ) -> Result<RunStats, SimError> {
        self.try_run_with_streams(org, self.build_streams(), budget_cycles)
    }

    /// Fallible core of the runner: caller-provided streams plus the
    /// optional cycle-budget watchdog of [`Runner::try_run`]. Generic over
    /// the stream type so the synthetic-trace path ([`Runner::try_run`])
    /// monomorphizes on [`TraceGenerator`] and dispatches `next_event`
    /// statically instead of through a `Box<dyn MissStream>` vtable.
    ///
    /// One unbounded [`RunSession::step`]: the chunked and unchunked
    /// paths share every instruction of the event loop, which is what
    /// makes chunked results bit-identical to this one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyStreams`] if `streams` is empty,
    /// [`SimError::WatchdogExpired`] when the budget trips, or
    /// [`SimError::IssueTimeOverflow`] when a core's projected issue time
    /// passes the event order's range.
    pub fn try_run_with_streams<S: MissStream>(
        &self,
        org: &mut dyn MemoryOrganization,
        streams: Vec<S>,
        budget_cycles: Option<u64>,
    ) -> Result<RunStats, SimError> {
        let mut session = RunSession::new(&self.bench, self.config, org, streams)?;
        match session.step(org, budget_cycles, u64::MAX)? {
            SessionStatus::Complete(stats) => Ok(*stats),
            SessionStatus::Running => {
                unreachable!("an unbounded step only returns once every core retired")
            }
        }
    }

    /// Starts a resumable session over the synthetic rate-mode streams:
    /// the chunked-sweep entry point. The caller drives it with bounded
    /// [`RunSession::step`] calls (possibly from different threads in
    /// turn) until it completes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is invalid.
    pub fn start(
        &self,
        org: &mut dyn MemoryOrganization,
    ) -> Result<RunSession<TraceGenerator>, SimError> {
        RunSession::new(&self.bench, self.config, org, self.build_streams())
    }
}

/// Pages per `prefill_batch` call of [`prefill_interleaved`].
const PREFILL_CHUNK: usize = 4096;

/// One stream's prefill pages: the range it reports, or else its list.
enum PrefillPages {
    Range(Range<u64>),
    List(Vec<PageAddr>),
}

impl PrefillPages {
    fn of<S: MissStream>(stream: &S) -> Self {
        match stream.prefill_range() {
            Some(range) => Self::Range(range),
            None => Self::List(stream.prefill_pages()),
        }
    }

    fn len(&self) -> u64 {
        match self {
            Self::Range(range) => range.end.saturating_sub(range.start),
            Self::List(list) => list.len() as u64,
        }
    }

    /// Page `i`, if the stream has that many.
    fn get(&self, i: u64) -> Option<PageAddr> {
        match self {
            Self::Range(range) => (i < self.len()).then(|| PageAddr::new(range.start + i)),
            Self::List(list) => usize::try_from(i).ok().and_then(|i| list.get(i)).copied(),
        }
    }
}

/// Pre-touches every stream's prefill pages through `org`, round-robin
/// across the streams (page `i` of every stream that has one, then page
/// `i + 1`), in `prefill_batch` calls of at most [`PREFILL_CHUNK`] pages.
/// Only streams without a [`MissStream::prefill_range`] are listed, so a
/// generator's footprint costs no host memory here. The order, and with
/// it every placement decision, is the per-page loop's.
fn prefill_interleaved<S: MissStream>(streams: &[S], org: &mut dyn MemoryOrganization) {
    let sources: Vec<PrefillPages> = streams.iter().map(PrefillPages::of).collect();
    let longest = sources.iter().map(PrefillPages::len).max().unwrap_or(0);
    let mut chunk = Vec::with_capacity(PREFILL_CHUNK);
    for i in 0..longest {
        for source in &sources {
            if let Some(page) = source.get(i) {
                chunk.push(page);
                if chunk.len() == PREFILL_CHUNK {
                    org.prefill_batch(&chunk);
                    chunk.clear();
                }
            }
        }
    }
    if !chunk.is_empty() {
        org.prefill_batch(&chunk);
    }
}

/// What a bounded [`RunSession::step`] left behind.
#[derive(Debug)]
pub enum SessionStatus {
    /// The access budget ran out with cores still active; step again.
    Running,
    /// Every core retired its instructions; the session is finished and
    /// must not be stepped again. Boxed: the stats dwarf the `Running`
    /// arm, and they head straight into [`PointRecord::Done`], which
    /// stores them boxed anyway.
    ///
    /// [`PointRecord::Done`]: crate::checkpoint::PointRecord::Done
    Complete(Box<RunStats>),
}

/// A paused, resumable run: the complete state of the runner's event loop
/// between two post-L3 accesses.
///
/// Produced by [`Runner::start`] (or [`RunSession::new`] with explicit
/// streams) after the prefill transient; each [`RunSession::step`] then
/// services at most `max_accesses` events. The loop body is the *same
/// code* the one-shot [`Runner::try_run_with_streams`] path executes, so
/// a run split into chunks of any size retires the identical event
/// sequence and produces bit-identical [`RunStats`] — the property the
/// chunked sweep engine's determinism guarantee rests on. The session
/// owns no organization: the caller passes `org` to every step.
pub struct RunSession<S> {
    bench: String,
    cores: Vec<CoreState<S>>,
    next_issue: IssueKeys,
    warmup_instr: u64,
    /// Cores that have retired `warmup_instr` instructions; the measured
    /// region starts when all have.
    warm_cores: usize,
    total_instr: u64,
    /// Divisor for the per-core instruction average (`cfg.cores`).
    core_count: u64,
    measuring: bool,
    measure_offsets: Vec<Cycle>,
    measure_instr_start: Vec<u64>,
    demand_reads: u64,
    demand_writes: u64,
    faults: u64,
    serviced_stacked: u64,
    serviced_off_chip: u64,
    read_latency_sum: u64,
    latency_histogram: [u64; 24],
}

impl<S: MissStream> RunSession<S> {
    /// Validates the configuration, runs the prefill transient through
    /// `org`, and parks the event loop before its first access.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on an invalid configuration,
    /// [`SimError::EmptyStreams`] if `streams` is empty, and
    /// [`SimError::IssueTimeOverflow`] if a stream's first gap ends past
    /// the event order's range.
    pub fn new(
        bench: &BenchSpec,
        cfg: &SystemConfig,
        org: &mut dyn MemoryOrganization,
        streams: Vec<S>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if streams.is_empty() {
            return Err(SimError::EmptyStreams);
        }
        let warmup_instr = (cfg.instructions_per_core as f64 * cfg.warmup_fraction) as u64;
        let total_instr = cfg.instructions_per_core;

        // The measured slice starts mid-execution: pre-touch every page of
        // every copy (interleaved across cores so residency is fair when
        // the footprint exceeds memory) to absorb the compulsory-fault
        // transient that the paper's 20 B-instruction slices amortize away.
        prefill_interleaved(&streams, org);

        let cores: Vec<CoreState<S>> = streams
            .into_iter()
            .map(|mut stream| {
                let pending = stream.next_event();
                let timeline = CoreTimeline::new(cfg.ipc, cfg.mlp);
                CoreState {
                    pending_cycles: timeline.cycles_for(pending.gap_instructions),
                    timeline,
                    stream,
                    pending,
                }
            })
            .collect();

        // Per-core projected issue times. The projection includes
        // MLP-window stalls so device accesses are generated in
        // (approximately) nondecreasing time order.
        let mut next_issue = IssueKeys::new(cores.len());
        for (i, c) in cores.iter().enumerate() {
            next_issue.set(i, c.timeline.projected_issue(c.pending_cycles))?;
        }

        let core_len = cores.len();
        Ok(Self {
            bench: bench.name.to_owned(),
            cores,
            next_issue,
            warmup_instr,
            warm_cores: 0,
            total_instr,
            core_count: u64::from(cfg.cores),
            measuring: warmup_instr == 0,
            measure_offsets: vec![Cycle::ZERO; core_len],
            measure_instr_start: vec![0; core_len],
            demand_reads: 0,
            demand_writes: 0,
            faults: 0,
            serviced_stacked: 0,
            serviced_off_chip: 0,
            read_latency_sum: 0,
            latency_histogram: [0u64; 24],
        })
    }

    /// Services up to `max_accesses` post-L3 events, then pauses.
    ///
    /// Must be called with the same organization the session was created
    /// over. After [`SessionStatus::Complete`] the session is spent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WatchdogExpired`] when any core's issue clock
    /// passes `budget_cycles` — the budget is over the *simulated* clock,
    /// which is monotonic across steps, so passing the same budget to
    /// every step bounds the whole run exactly as the one-shot path does.
    /// Returns [`SimError::IssueTimeOverflow`] when a core's projected
    /// issue time passes the range of its event-order key.
    pub fn step(
        &mut self,
        org: &mut dyn MemoryOrganization,
        budget_cycles: Option<u64>,
        max_accesses: u64,
    ) -> Result<SessionStatus, SimError> {
        let mut remaining = max_accesses;
        while remaining > 0 {
            let Some(idx) = self.next_issue.earliest() else {
                return Ok(SessionStatus::Complete(Box::new(self.finish(org))));
            };
            remaining -= 1;
            let finished_instructions;
            {
                let core = &mut self.cores[idx];
                let event = core.pending;
                let was_cold = core.timeline.instructions() < self.warmup_instr;
                core.timeline
                    .advance(event.gap_instructions, core.pending_cycles);
                if was_cold && core.timeline.instructions() >= self.warmup_instr {
                    self.warm_cores += 1;
                }
                let issue = core.timeline.issue();
                if let Some(budget) = budget_cycles {
                    if issue.raw() > budget {
                        return Err(SimError::WatchdogExpired {
                            budget_cycles: budget,
                            retired_instructions: core.timeline.instructions(),
                        });
                    }
                }
                let access = Access {
                    core: CoreId(idx as u16),
                    line: event.line,
                    pc: event.pc,
                    kind: if event.is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                };
                let result = org.access(issue, &access);
                if result.faulted {
                    // The OS runs; the core resumes when the page is in.
                    core.timeline.block_until(result.completion);
                    if self.measuring {
                        self.faults += 1;
                    }
                } else {
                    core.timeline.complete(result.completion, !event.is_write);
                }
                if self.measuring {
                    if event.is_write {
                        self.demand_writes += 1;
                    } else {
                        self.demand_reads += 1;
                        let lat = result.completion.saturating_sub(issue).raw();
                        self.read_latency_sum += lat;
                        self.latency_histogram[crate::stats::latency_bucket(lat)] += 1;
                        match result.serviced_by {
                            cameo_types::ServiceLocation::Stacked => self.serviced_stacked += 1,
                            cameo_types::ServiceLocation::OffChip => self.serviced_off_chip += 1,
                            cameo_types::ServiceLocation::Storage => {}
                        }
                    }
                }
                finished_instructions = core.timeline.instructions();
            }

            // Warmup boundary: once every core has crossed it, zero the
            // counters and record per-core time offsets.
            if !self.measuring && self.warm_cores == self.cores.len() {
                self.measuring = true;
                org.reset_stats();
                for (i, c) in self.cores.iter().enumerate() {
                    self.measure_offsets[i] = c.timeline.time();
                    self.measure_instr_start[i] = c.timeline.instructions();
                }
            }

            if finished_instructions < self.total_instr {
                let core = &mut self.cores[idx];
                core.pending = core.stream.next_event();
                core.pending_cycles = core.timeline.cycles_for(core.pending.gap_instructions);
                self.next_issue
                    .set(idx, core.timeline.projected_issue(core.pending_cycles))?;
            } else {
                self.next_issue.retire(idx);
            }
        }
        if self.next_issue.earliest().is_none() {
            // The budget ran out exactly at retirement; finish now rather
            // than making the caller pay a whole extra chunk round-trip.
            return Ok(SessionStatus::Complete(Box::new(self.finish(org))));
        }
        Ok(SessionStatus::Running)
    }

    /// Drains the timelines and assembles the measured-region statistics.
    fn finish(&mut self, org: &mut dyn MemoryOrganization) -> RunStats {
        // Instructions are reported as the per-core average so that CPI is
        // a per-core figure (rate-mode variance across copies is
        // negligible, as the paper notes).
        let mut execution_cycles = 0u64;
        let mut instructions_total = 0u64;
        for (i, core) in self.cores.iter_mut().enumerate() {
            let end = core.timeline.drain();
            execution_cycles =
                execution_cycles.max(end.saturating_sub(self.measure_offsets[i]).raw());
            instructions_total += core.timeline.instructions() - self.measure_instr_start[i];
        }
        let instructions = instructions_total / self.core_count;

        let stats = RunStats {
            org: org.name().to_owned(),
            bench: self.bench.clone(),
            execution_cycles: execution_cycles.max(1),
            instructions: instructions.max(1),
            demand_reads: self.demand_reads,
            demand_writes: self.demand_writes,
            serviced_stacked: self.serviced_stacked,
            serviced_off_chip: self.serviced_off_chip,
            faults: self.faults,
            bandwidth: org.bandwidth(),
            cases: org.prediction_cases(),
            migrated_pages: org.migrated_pages(),
            read_latency_sum: self.read_latency_sum,
            latency_histogram: self.latency_histogram,
        };
        #[cfg(feature = "deep-audit")]
        #[expect(
            clippy::panic,
            reason = "inconsistent counters make every derived metric garbage; \
                      aborting the audited run is the point"
        )]
        if let Err(violation) = stats.audit() {
            panic!("deep-audit: run statistics inconsistent: {violation}");
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::BaselineOrg;

    fn quick_config() -> SystemConfig {
        SystemConfig {
            scale: 4096,
            cores: 2,
            instructions_per_core: 50_000,
            warmup_fraction: 0.2,
            ..Default::default()
        }
    }

    fn runner<'a>(name: &str, cfg: &'a SystemConfig) -> Runner<'a> {
        let bench = cameo_workloads::require(name).expect("suite benchmark");
        Runner::new(bench, cfg).expect("test config is valid")
    }

    /// The linear scan that the winner tree, and then the packed keys,
    /// replaced; a retired core holds [`RETIRED`].
    fn earliest_by_scan(next_issue: &[u64]) -> Option<usize> {
        let mut best = RETIRED;
        let mut idx = None;
        for (i, &t) in next_issue.iter().enumerate() {
            if t < best {
                best = t;
                idx = Some(i);
            }
        }
        idx
    }

    #[test]
    fn issue_keys_match_the_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        for cores in 1..=40usize {
            let mut keys = IssueKeys::new(cores);
            let max_time = keys.max_time;
            let mut times = vec![RETIRED; cores];
            assert_eq!(keys.earliest(), None);
            for _ in 0..400 {
                let i = rng.gen_range(0..cores);
                // Times from a small range so ties are common, or at the
                // top of the key range; one draw in five retires the core.
                times[i] = match rng.gen_range(0..10u32) {
                    0 | 1 => RETIRED,
                    2 => max_time - rng.gen_range(0..3u64),
                    _ => rng.gen_range(0..6u64),
                };
                if times[i] == RETIRED {
                    keys.retire(i);
                } else {
                    keys.set(i, Cycle::new(times[i]))
                        .expect("inside the key range");
                }
                assert_eq!(keys.earliest(), earliest_by_scan(&times), "{times:?}");
            }
            for i in 0..cores {
                keys.retire(i);
            }
            assert_eq!(keys.earliest(), None);
            let err = keys.set(cores - 1, Cycle::new(max_time + 1));
            assert_eq!(
                err,
                Err(SimError::IssueTimeOverflow {
                    core: cores - 1,
                    cycle: max_time + 1,
                    limit: max_time,
                })
            );
        }
    }

    /// An organization whose every access completes at one fixed cycle.
    struct CompletesAt(Cycle);

    impl MemoryOrganization for CompletesAt {
        fn name(&self) -> &'static str {
            "CompletesAt"
        }
        fn access(&mut self, _now: Cycle, _access: &Access) -> crate::org::OrgResult {
            crate::org::OrgResult {
                completion: self.0,
                serviced_by: cameo_types::ServiceLocation::OffChip,
                faulted: false,
            }
        }
        fn visible_capacity(&self) -> cameo_types::ByteSize {
            cameo_types::ByteSize::from_gib(1)
        }
        fn bandwidth(&self) -> crate::stats::BandwidthReport {
            crate::stats::BandwidthReport::default()
        }
        fn faults(&self) -> u64 {
            0
        }
        fn service_counts(&self) -> (u64, u64) {
            (0, 0)
        }
        fn prefill(&mut self, _page: cameo_types::PageAddr) {}
        fn reset_stats(&mut self) {}
    }

    /// A read that completes past the key range fills a one-slot window,
    /// so the core's next projected issue cannot be keyed: the run stops
    /// with the typed error instead of misordering cores.
    #[test]
    fn completion_past_the_key_range_is_a_typed_error() {
        let cfg = SystemConfig {
            mlp: 1,
            ..quick_config()
        };
        // Two cores: one core bit, so times up to 2^63 - 2 fit.
        let limit = (u64::MAX >> 1) - 1;
        let mut org = CompletesAt(Cycle::new(limit + 1));
        let err = runner("astar", &cfg)
            .try_run(&mut org, None)
            .expect_err("the completion is past the key range");
        assert!(
            matches!(
                err,
                SimError::IssueTimeOverflow { cycle, limit: l, .. }
                    if cycle == limit + 1 && l == limit
            ),
            "{err}"
        );
    }

    /// An organization that records the pages of every prefill call.
    #[derive(Default)]
    struct PrefillRecorder {
        batches: Vec<Vec<PageAddr>>,
    }

    impl MemoryOrganization for PrefillRecorder {
        fn name(&self) -> &'static str {
            "PrefillRecorder"
        }
        fn access(&mut self, now: Cycle, _access: &Access) -> crate::org::OrgResult {
            crate::org::OrgResult {
                completion: now,
                serviced_by: cameo_types::ServiceLocation::OffChip,
                faulted: false,
            }
        }
        fn visible_capacity(&self) -> cameo_types::ByteSize {
            cameo_types::ByteSize::from_gib(1)
        }
        fn bandwidth(&self) -> crate::stats::BandwidthReport {
            crate::stats::BandwidthReport::default()
        }
        fn faults(&self) -> u64 {
            0
        }
        fn service_counts(&self) -> (u64, u64) {
            (0, 0)
        }
        fn prefill(&mut self, page: PageAddr) {
            self.batches.push(vec![page]);
        }
        fn prefill_batch(&mut self, pages: &[PageAddr]) {
            self.batches.push(pages.to_vec());
        }
        fn reset_stats(&mut self) {}
    }

    /// A stream that only lists its prefill pages, scattered rather than
    /// a range, as a recorded-trace replay does.
    struct ListedPages(Vec<PageAddr>);

    impl MissStream for ListedPages {
        fn next_event(&mut self) -> MissEvent {
            MissEvent {
                gap_instructions: 1,
                line: self.0[0].first_line(),
                pc: 0,
                is_write: false,
            }
        }
        fn footprint_pages(&self) -> u64 {
            self.0.len() as u64
        }
        fn prefill_pages(&self) -> Vec<PageAddr> {
            self.0.clone()
        }
    }

    /// The prefill order the runner materialized before it streamed it:
    /// every stream's list, then one interleaved copy of them.
    fn retired_interleave(streams: &[Box<dyn MissStream>]) -> Vec<PageAddr> {
        let lists: Vec<Vec<PageAddr>> = streams.iter().map(MissStream::prefill_pages).collect();
        let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
        let mut interleaved = Vec::new();
        for i in 0..longest {
            for list in &lists {
                if let Some(page) = list.get(i) {
                    interleaved.push(*page);
                }
            }
        }
        interleaved
    }

    /// Streams of unequal lengths, two generators reporting ranges around
    /// one listed stream, prefill in the retired interleave's order, in
    /// full chunks and one short last one.
    #[test]
    fn streamed_prefill_matches_the_retired_interleave() {
        let cfg = quick_config();
        let generator = |name: &str, scale: u64, offset: u64| -> Box<dyn MissStream> {
            let bench = cameo_workloads::require(name).expect("suite benchmark");
            let tc = TraceConfig {
                scale,
                seed: 1,
                core_offset_pages: offset,
            };
            Box::new(TraceGenerator::new(bench, tc))
        };
        let listed = (0..1500u64)
            .map(|i| PageAddr::new(1_000_000 + i * 7 % 1501))
            .collect();
        let streams = vec![
            generator("mcf", 2048, 0),
            Box::new(ListedPages(listed)),
            generator("gcc", 256, 500_000),
        ];
        let lengths: Vec<u64> = streams.iter().map(MissStream::footprint_pages).collect();
        assert!(
            lengths[0] > lengths[2] && lengths[2] > lengths[1],
            "{lengths:?}"
        );
        assert!(streams[0].prefill_range().is_some() && streams[1].prefill_range().is_none());
        let want = retired_interleave(&streams);
        assert!(want.len() > 2 * PREFILL_CHUNK, "{}", want.len());

        let mut org = PrefillRecorder::default();
        let bench = cameo_workloads::require("gcc").expect("suite benchmark");
        RunSession::new(&bench, &cfg, &mut org, streams).expect("valid session");
        let (last, full) = org.batches.split_last().expect("prefill ran");
        assert!(full.iter().all(|b| b.len() == PREFILL_CHUNK));
        assert!(!last.is_empty() && last.len() <= PREFILL_CHUNK);
        assert_eq!(org.batches.concat(), want);
    }

    #[test]
    fn baseline_run_produces_sane_stats() {
        let cfg = quick_config();
        let mut org = BaselineOrg::new(cfg.off_chip(), cfg.seed);
        let stats = runner("astar", &cfg).run(&mut org);
        assert!(stats.execution_cycles > 0);
        assert!(stats.instructions > 0);
        assert!(stats.demand_reads > 0);
        assert_eq!(stats.serviced_stacked, 0); // baseline has no stacked DRAM
                                               // Base IPC is 2 in the default config: CPI floor is 0.5.
        assert!(stats.cpi() > 0.5);
    }

    #[test]
    fn deterministic_runs() {
        let cfg = quick_config();
        let mut a = BaselineOrg::new(cfg.off_chip(), cfg.seed);
        let mut b = BaselineOrg::new(cfg.off_chip(), cfg.seed);
        let sa = runner("astar", &cfg).run(&mut a);
        let sb = runner("astar", &cfg).run(&mut b);
        assert_eq!(sa.execution_cycles, sb.execution_cycles);
        assert_eq!(sa.demand_reads, sb.demand_reads);
        assert_eq!(sa.bandwidth, sb.bandwidth);
    }

    #[test]
    fn warmup_reduces_measured_instructions() {
        let cfg = quick_config();
        let mut org = BaselineOrg::new(cfg.off_chip(), cfg.seed);
        let stats = runner("astar", &cfg).run(&mut org);
        let expected_total = cfg.instructions_per_core;
        assert!(stats.instructions < expected_total);
        assert!(stats.instructions > expected_total / 2);
    }

    #[test]
    fn invalid_config_is_a_value_not_a_panic() {
        let cfg = SystemConfig {
            scale: 0,
            ..Default::default()
        };
        let bench = cameo_workloads::require("astar").expect("suite benchmark");
        let err = Runner::new(bench, &cfg).err().expect("zero scale rejected");
        assert!(err.to_string().contains("scale must be positive"));
    }

    #[test]
    fn invalid_spec_is_a_value_not_a_panic() {
        use cameo_workloads::InvalidSpec;
        let cfg = quick_config();
        let gcc = cameo_workloads::require("gcc").expect("suite benchmark");
        let reject = |edit: fn(&mut BenchSpec)| {
            let mut bench = gcc;
            edit(&mut bench);
            match Runner::new(bench, &cfg) {
                Err(SimError::InvalidSpec(e)) => e,
                Err(other) => panic!("wrong error: {other}"),
                Ok(_) => panic!("invalid spec accepted"),
            }
        };
        // Every gap would be u64::MAX: one instruction, zero reads.
        assert_eq!(reject(|b| b.mpki = 0.0), InvalidSpec::Mpki(0.0));
        assert_eq!(
            reject(|b| b.mpki = 1e-300),
            InvalidSpec::GapOverflow(1e-300)
        );
        // Every gap would be 1: MPKI 1000 in disguise.
        assert_eq!(reject(|b| b.mpki = -5.0), InvalidSpec::Mpki(-5.0));
        assert!(matches!(reject(|b| b.mpki = f64::NAN), InvalidSpec::Mpki(m) if m.is_nan()));
        // `pc_of` would divide by zero.
        let err = reject(|b| b.behavior.pc_pool = 0);
        assert!(
            matches!(
                err,
                InvalidSpec::Knob {
                    name: "pc_pool",
                    ..
                }
            ),
            "{err}"
        );
        let err = reject(|b| b.behavior.write_fraction = 2.0);
        assert!(
            SimError::from(err).to_string().contains("write_fraction"),
            "{err}"
        );
    }

    #[test]
    fn watchdog_trips_on_tiny_budget() {
        let cfg = quick_config();
        let mut org = BaselineOrg::new(cfg.off_chip(), cfg.seed);
        let err = runner("astar", &cfg)
            .try_run(&mut org, Some(10))
            .expect_err("a 10-cycle budget cannot cover the run");
        assert!(matches!(
            err,
            crate::error::SimError::WatchdogExpired {
                budget_cycles: 10,
                ..
            }
        ));
        // A generous budget completes normally.
        let stats = runner("astar", &cfg)
            .try_run(
                &mut BaselineOrg::new(cfg.off_chip(), cfg.seed),
                Some(u64::MAX),
            )
            .expect("u64::MAX budget never trips");
        assert!(stats.demand_reads > 0);
    }

    #[test]
    fn empty_streams_rejected() {
        let cfg = quick_config();
        let mut org = BaselineOrg::new(cfg.off_chip(), cfg.seed);
        let err = runner("astar", &cfg)
            .try_run_with_streams(
                &mut org,
                Vec::<cameo_workloads::TraceGenerator>::new(),
                None,
            )
            .expect_err("no streams to drive");
        assert_eq!(err, crate::error::SimError::EmptyStreams);
    }
}
