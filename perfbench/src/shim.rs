//! Outside-in timing shims. Each wraps a real layer behind the
//! simulator's own public trait (`MemoryOrganization`, `MissStream`), so
//! the runner calls through the shim without knowing it is there. The
//! simulator itself is not instrumented.
//!
//! The organization shim always splits a point's busy host time into
//! phases. When tracing, it also samples one access in `every` and
//! records a span for that access's `org.access` call. The stream shim
//! records the `next_event` call that follows, and the next access's
//! entry closes the runner's span. All three spans share the sampled
//! access's id.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cameo::PredictionCaseCounts;
use cameo_sim::{BandwidthReport, MemoryOrganization, OrgResult};
use cameo_types::{Access, ByteSize, Cycle, PageAddr};
use cameo_workloads::{MissEvent, MissStream};

use crate::host::{since, Clock};

/// Busy host time of one point per phase, in nanoseconds.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Phases {
    /// Organization construction.
    pub build: u64,
    /// From the end of construction to the first simulated access:
    /// stream construction, prefill lists and `RunSession::new`.
    pub prefill: u64,
    /// From the first access to the warmup boundary (`reset_stats`).
    pub warmup: u64,
    /// From the warmup boundary to session completion.
    pub measured: u64,
}

impl Phases {
    /// Time before the first simulated access.
    pub fn setup(&self) -> u64 {
        self.build + self.prefill
    }

    /// All four phases.
    pub fn total(&self) -> u64 {
        self.setup() + self.warmup + self.measured
    }

    /// Adds another point's phases.
    pub fn add(&mut self, other: &Phases) {
        self.build += other.build;
        self.prefill += other.prefill;
        self.warmup += other.warmup;
        self.measured += other.measured;
    }
}

/// One sampled access cycle, as offsets from the probe's clock epoch.
/// Its spans are the runner's `[t0, t4]`, with two children: the
/// organization's `[t0, t1]` and the stream's `[t2, t3]`. The stream
/// span is absent (`t2 == t3 == 0`) when the core retired.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The access id: the access's ordinal within its point.
    pub id: u64,
    /// Whether the access lies in the measured region.
    pub measured: bool,
    /// `org.access` entry; start of the runner's span.
    pub t0: u64,
    /// `org.access` exit.
    pub t1: u64,
    /// `next_event` entry.
    pub t2: u64,
    /// `next_event` exit.
    pub t3: u64,
    /// The next access's entry; end of the runner's span.
    pub t4: u64,
}

impl Sample {
    /// Raw `org.access` span.
    pub fn org_ns(&self) -> u64 {
        self.t1 - self.t0
    }

    /// Raw `next_event` span (0 when absent).
    pub fn stream_ns(&self) -> u64 {
        self.t3 - self.t2
    }

    /// Whether a `next_event` call was recorded.
    pub fn has_stream(&self) -> bool {
        self.t3 > 0
    }

    /// Raw span of the whole access cycle.
    pub fn cycle_ns(&self) -> u64 {
        self.t4 - self.t0
    }
}

/// State shared between one point's organization shim and its stream
/// shims. Atomics rather than cells because an organization must be
/// `Send`; every access is from the thread driving the point.
#[derive(Debug)]
pub struct Probe {
    /// The clock all spans are read from.
    clock: Clock,
    /// Core whose next `next_event` call belongs to the pending sample.
    armed: AtomicU64,
    t2: AtomicU64,
    t3: AtomicU64,
    /// Host time inside `MissStream::prefill_pages`, summed over streams.
    prefill_list_ns: AtomicU64,
}

const DISARMED: u64 = u64::MAX;

impl Probe {
    /// A probe reading `clock`.
    pub fn new(clock: Clock) -> Arc<Self> {
        Arc::new(Self {
            clock,
            armed: AtomicU64::new(DISARMED),
            t2: AtomicU64::new(0),
            t3: AtomicU64::new(0),
            prefill_list_ns: AtomicU64::new(0),
        })
    }

    /// Host time spent generating prefill lists so far.
    pub fn prefill_list_ns(&self) -> u64 {
        self.prefill_list_ns.load(Relaxed)
    }

    /// Takes the recorded `next_event` span and disarms.
    fn take_stream(&self) -> (u64, u64) {
        self.armed.store(DISARMED, Relaxed);
        (self.t2.swap(0, Relaxed), self.t3.swap(0, Relaxed))
    }
}

/// Sampling state of a traced organization shim.
#[derive(Debug)]
struct Tracer {
    probe: Arc<Probe>,
    every: u64,
    countdown: u64,
    pending: Option<Sample>,
    samples: Vec<Sample>,
}

impl Tracer {
    fn access(
        &mut self,
        org: &mut dyn MemoryOrganization,
        now: Cycle,
        access: &Access,
        id: u64,
        measured: bool,
    ) -> OrgResult {
        if let Some(mut sample) = self.pending.take() {
            sample.t4 = self.probe.clock.now();
            (sample.t2, sample.t3) = self.probe.take_stream();
            self.samples.push(sample);
        }
        if self.countdown > 0 {
            self.countdown -= 1;
            return org.access(now, access);
        }
        // `every >= 2`, so the access that closes this sample is never
        // itself sampled.
        self.countdown = self.every - 1;
        let t0 = self.probe.clock.now();
        let result = org.access(now, access);
        let t1 = self.probe.clock.now();
        self.probe.armed.store(u64::from(access.core.0), Relaxed);
        self.pending = Some(Sample {
            id,
            measured,
            t0,
            t1,
            t2: 0,
            t3: 0,
            t4: 0,
        });
        result
    }
}

/// What an organization shim reports when it is dropped.
#[derive(Clone, Debug, Default)]
pub struct PointLog {
    /// Busy host time per phase.
    pub phases: Phases,
    /// Whether the session reached completion (the warmup boundary was
    /// seen and the final statistics were read).
    pub complete: bool,
    /// Accesses serviced, warmup and measured.
    pub accesses: u64,
    /// Host time inside the organization's `prefill_batch`.
    pub org_prefill_ns: u64,
    /// Sampled access cycles (traced shims only).
    pub samples: Vec<Sample>,
}

/// Where a shim leaves its [`PointLog`]: the caller keeps one clone of
/// the slot, the shim (possibly owned by a sweep worker) the other.
pub type LogSlot = Arc<Mutex<Option<PointLog>>>;

/// A fresh, empty slot.
pub fn log_slot() -> LogSlot {
    Arc::new(Mutex::new(None))
}

/// Times a wrapped organization from the outside.
///
/// Chunked sweeps run a point as a series of `step` calls of exactly
/// `chunk` accesses each, possibly on different workers with waits in
/// between. The shim therefore counts only busy time: each chunk runs
/// from its first access's entry to its last access's exit, and the
/// final chunk ends when the runner reads the final statistics.
pub struct OrgShim {
    inner: Box<dyn MemoryOrganization>,
    slot: LogSlot,
    chunk: u64,
    accesses: u64,
    /// Access count at which the next chunk opens.
    next_open: u64,
    /// Start of the running busy segment: the open chunk's first access,
    /// or the warmup boundary if that came later.
    segment: Option<Instant>,
    built: Instant,
    measuring: bool,
    phases: Phases,
    org_prefill_ns: u64,
    /// When the runner read the final statistics (a `&self` call, hence
    /// the cell).
    finished: Cell<Option<Instant>>,
    tracer: Option<Tracer>,
}

impl OrgShim {
    /// Wraps `inner`, whose construction took `build_ns`. `chunk` is the
    /// scheduling chunk in accesses (`None`: one piece).
    pub fn new(
        inner: Box<dyn MemoryOrganization>,
        build_ns: u64,
        chunk: Option<u64>,
        slot: LogSlot,
    ) -> Self {
        Self {
            inner,
            slot,
            chunk: chunk.unwrap_or(u64::MAX).max(1),
            accesses: 0,
            next_open: 0,
            segment: None,
            built: Instant::now(),
            measuring: false,
            phases: Phases {
                build: build_ns,
                ..Phases::default()
            },
            org_prefill_ns: 0,
            finished: Cell::new(None),
            tracer: None,
        }
    }

    /// Samples one access in `every` (at least 2) into spans read from
    /// `probe`'s clock.
    #[must_use]
    pub fn traced(mut self, probe: Arc<Probe>, every: u64) -> Self {
        let every = every.max(2);
        self.tracer = Some(Tracer {
            probe,
            every,
            countdown: every - 1,
            pending: None,
            samples: Vec::new(),
        });
        self
    }

    fn charge(&mut self, end: Instant) {
        if let Some(start) = self.segment.take() {
            let ns = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            if self.measuring {
                self.phases.measured += ns;
            } else {
                self.phases.warmup += ns;
            }
        }
    }
}

impl MemoryOrganization for OrgShim {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn access(&mut self, now: Cycle, access: &Access) -> OrgResult {
        if self.accesses == self.next_open {
            let start = Instant::now();
            if self.accesses == 0 {
                self.phases.prefill =
                    u64::try_from(start.duration_since(self.built).as_nanos()).unwrap_or(u64::MAX);
            }
            self.segment = Some(start);
            self.next_open = self.next_open.saturating_add(self.chunk);
        }
        let id = self.accesses;
        self.accesses += 1;
        let result = match self.tracer.as_mut() {
            None => self.inner.access(now, access),
            Some(tracer) => tracer.access(self.inner.as_mut(), now, access, id, self.measuring),
        };
        if self.accesses == self.next_open {
            self.charge(Instant::now());
        }
        result
    }

    fn visible_capacity(&self) -> ByteSize {
        self.inner.visible_capacity()
    }

    fn bandwidth(&self) -> BandwidthReport {
        // The runner reads the final statistics once the last core
        // retires; that read closes the measured region.
        if self.measuring && self.finished.get().is_none() {
            self.finished.set(Some(Instant::now()));
        }
        self.inner.bandwidth()
    }

    fn faults(&self) -> u64 {
        self.inner.faults()
    }

    fn service_counts(&self) -> (u64, u64) {
        self.inner.service_counts()
    }

    fn prediction_cases(&self) -> Option<PredictionCaseCounts> {
        self.inner.prediction_cases()
    }

    fn migrated_pages(&self) -> u64 {
        self.inner.migrated_pages()
    }

    fn prefill(&mut self, page: PageAddr) {
        self.inner.prefill(page);
    }

    fn prefill_batch(&mut self, pages: &[PageAddr]) {
        let start = Instant::now();
        self.inner.prefill_batch(pages);
        self.org_prefill_ns += since(start);
    }

    fn reset_stats(&mut self) {
        let boundary = Instant::now();
        self.charge(boundary);
        self.measuring = true;
        self.segment = Some(boundary);
        self.inner.reset_stats();
    }
}

impl Drop for OrgShim {
    fn drop(&mut self) {
        let finished = self.finished.get();
        if let Some(end) = finished {
            self.charge(end);
        }
        let log = PointLog {
            phases: self.phases,
            complete: finished.is_some(),
            accesses: self.accesses,
            org_prefill_ns: self.org_prefill_ns,
            samples: self
                .tracer
                .as_mut()
                .map(|t| std::mem::take(&mut t.samples))
                .unwrap_or_default(),
        };
        // A poisoned slot only means another shim panicked mid-write of
        // its own log; this write is whole either way.
        let mut slot = match self.slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *slot = Some(log);
    }
}

/// Times one core's miss stream from the outside: the `next_event` call
/// of a sampled access, and every `prefill_pages` call.
pub struct StreamShim<S> {
    inner: S,
    core: u64,
    probe: Arc<Probe>,
}

impl<S> StreamShim<S> {
    /// Wraps core `core`'s stream.
    pub fn new(inner: S, core: u16, probe: Arc<Probe>) -> Self {
        Self {
            inner,
            core: u64::from(core),
            probe,
        }
    }
}

impl<S: MissStream> MissStream for StreamShim<S> {
    fn next_event(&mut self) -> MissEvent {
        if self.probe.armed.load(Relaxed) != self.core {
            return self.inner.next_event();
        }
        let t2 = self.probe.clock.now();
        let event = self.inner.next_event();
        let t3 = self.probe.clock.now();
        self.probe.t2.store(t2, Relaxed);
        self.probe.t3.store(t3, Relaxed);
        event
    }

    fn footprint_pages(&self) -> u64 {
        self.inner.footprint_pages()
    }

    fn prefill_pages(&self) -> Vec<PageAddr> {
        let start = Instant::now();
        let pages = self.inner.prefill_pages();
        self.probe.prefill_list_ns.fetch_add(since(start), Relaxed);
        pages
    }
}
