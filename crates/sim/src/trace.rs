//! Epoch aggregation of [`TraceEvent`]s and the armed recording sink.
//!
//! The tracing subsystem has two halves: the typed events and the
//! zero-overhead [`TraceSink`] trait live in `cameo-types` (so every
//! simulation crate can emit without depending on this one), while the
//! *armed* machinery lives here — [`SharedSink`] records events behind an
//! `Arc<Mutex<_>>` so a cloned handle can stay with the caller while the
//! organization it traces is boxed into `dyn MemoryOrganization`, and
//! [`EpochSeries`] folds the stream into per-epoch counters (swap rate,
//! LLP accuracy, stacked service share over time).
//!
//! # Examples
//!
//! ```
//! use cameo_sim::trace::{SharedSink, TraceOptions};
//! use cameo_types::{Cycle, TraceEvent, TraceSink};
//!
//! let mut sink = SharedSink::new(TraceOptions::default());
//! let handle = sink.clone();
//! sink.emit(Cycle::new(5), TraceEvent::Swap { group: 3 });
//! let data = handle.take();
//! assert_eq!(data.totals().swaps, 1);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use cameo_types::{Cycle, TraceEvent, TraceSink};

/// Default cap on retained epochs — generous enough that every short and
/// medium run (goldens, quick sweeps, CI smokes) keeps its full series,
/// while a paper-scale run spanning millions of epochs stays flat at
/// ~360 KiB of counters per point.
pub const DEFAULT_MAX_EPOCHS: usize = 4096;

/// A hook fed each epoch the bounded ring evicts, with its absolute
/// index. Boxed so a sweep can hand every point its own JSONL appender.
pub type EpochSpillFn = Box<dyn FnMut(u64, &EpochCounters) + Send>;

/// How an armed trace run aggregates and retains events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceOptions {
    /// Simulated cycles per aggregation epoch.
    pub epoch_cycles: u64,
    /// Whether to retain the raw `(cycle, event)` stream (bounded by
    /// `max_events`) in addition to the epoch counters.
    pub capture_events: bool,
    /// Cap on retained raw events; later events only feed the epoch
    /// counters and bump [`TraceData::dropped_events`].
    pub max_events: usize,
    /// Cap on retained epochs. Older epochs spill out of the ring —
    /// merged into running totals (and streamed to the sink's spill
    /// hook, when armed) — so a run of any length holds at most this
    /// many [`EpochCounters`] in memory.
    pub max_epochs: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            epoch_cycles: 100_000,
            capture_events: true,
            max_events: 10_000,
            max_epochs: DEFAULT_MAX_EPOCHS,
        }
    }
}

/// Event counters folded over one epoch (or, via [`TraceData::totals`],
/// over a whole run).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EpochCounters {
    /// Congruence-group swaps.
    pub swaps: u64,
    /// LLT probes (LEAD reads, embedded lookups).
    pub llt_probes: u64,
    /// Location/hit predictions made.
    pub predicts: u64,
    /// Predictions that matched the verified outcome.
    pub predicts_correct: u64,
    /// Demand reads serviced by stacked DRAM.
    pub stacked_serviced: u64,
    /// Demand reads serviced by off-chip DRAM.
    pub off_chip_serviced: u64,
    /// Row-buffer hits across both devices.
    pub row_hits: u64,
    /// Closed-row misses across both devices.
    pub row_closed: u64,
    /// Row conflicts across both devices.
    pub row_conflicts: u64,
    /// Pages moved by OS-level migration batches.
    pub migrated_pages: u64,
    /// Fault-recovery actions taken.
    pub recovery_actions: u64,
}

impl EpochCounters {
    /// Folds one event into the counters.
    pub fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Swap { .. } => self.swaps += 1,
            TraceEvent::LltProbe { .. } => self.llt_probes += 1,
            TraceEvent::LlpPredict { correct } => {
                self.predicts += 1;
                if *correct {
                    self.predicts_correct += 1;
                }
            }
            TraceEvent::RecoveryAction { .. } => self.recovery_actions += 1,
            TraceEvent::PageMigration { pages } => self.migrated_pages += u64::from(*pages),
            TraceEvent::RowBufferOutcome {
                hits,
                closed,
                conflicts,
                ..
            } => {
                self.row_hits += u64::from(*hits);
                self.row_closed += u64::from(*closed);
                self.row_conflicts += u64::from(*conflicts);
            }
            TraceEvent::Service { stacked } => {
                if *stacked {
                    self.stacked_serviced += 1;
                } else {
                    self.off_chip_serviced += 1;
                }
            }
        }
    }

    /// Accumulates another epoch's counters.
    pub fn merge(&mut self, other: &EpochCounters) {
        self.swaps += other.swaps;
        self.llt_probes += other.llt_probes;
        self.predicts += other.predicts;
        self.predicts_correct += other.predicts_correct;
        self.stacked_serviced += other.stacked_serviced;
        self.off_chip_serviced += other.off_chip_serviced;
        self.row_hits += other.row_hits;
        self.row_closed += other.row_closed;
        self.row_conflicts += other.row_conflicts;
        self.migrated_pages += other.migrated_pages;
        self.recovery_actions += other.recovery_actions;
    }

    /// Demand reads serviced this epoch.
    pub fn serviced(&self) -> u64 {
        self.stacked_serviced + self.off_chip_serviced
    }

    /// Fraction of predictions that were correct, if any were made.
    pub fn prediction_accuracy(&self) -> Option<f64> {
        (self.predicts > 0).then(|| self.predicts_correct as f64 / self.predicts as f64)
    }

    /// Fraction of serviced reads that stacked DRAM answered.
    pub fn stacked_service_rate(&self) -> Option<f64> {
        (self.serviced() > 0).then(|| self.stacked_serviced as f64 / self.serviced() as f64)
    }

    /// Swaps per serviced read — the migration-rate gauge over time.
    pub fn swap_rate(&self) -> Option<f64> {
        (self.serviced() > 0).then(|| self.swaps as f64 / self.serviced() as f64)
    }
}

/// Per-epoch counters, indexed by `cycle / epoch_cycles` with gaps filled
/// by zeroed epochs.
///
/// Retention is a bounded ring: at most `max_epochs` recent epochs stay
/// resident. An epoch pushed out of the window is *spilled* — merged into
/// running totals (so [`EpochSeries::totals`] and
/// [`EpochSeries::epoch_count`] cover the whole run) and handed to the
/// caller's spill hook, which is how a paper-scale run streams its epoch
/// series to disk instead of accumulating it. Runs shorter than the cap
/// behave exactly as an unbounded series did.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EpochSeries {
    epoch_cycles: u64,
    max_epochs: usize,
    /// Absolute index of `ring[0]` — equivalently, how many epochs have
    /// been spilled.
    base: u64,
    ring: VecDeque<EpochCounters>,
    /// Every spilled epoch, merged.
    spilled: EpochCounters,
}

impl EpochSeries {
    /// Creates an empty series with the given epoch length (clamped to at
    /// least 1 cycle) and the default retention cap.
    pub fn new(epoch_cycles: u64) -> Self {
        Self::with_capacity(epoch_cycles, DEFAULT_MAX_EPOCHS)
    }

    /// Creates an empty series retaining at most `max_epochs` epochs
    /// (clamped to at least 1).
    pub fn with_capacity(epoch_cycles: u64, max_epochs: usize) -> Self {
        Self {
            epoch_cycles: epoch_cycles.max(1),
            max_epochs: max_epochs.max(1),
            base: 0,
            ring: VecDeque::new(),
            spilled: EpochCounters::default(),
        }
    }

    /// The epoch length in simulated cycles.
    pub fn epoch_cycles(&self) -> u64 {
        self.epoch_cycles
    }

    /// Total epochs the run has covered, spilled ones included.
    pub fn epoch_count(&self) -> u64 {
        self.base + self.ring.len() as u64
    }

    /// How many epochs have been spilled out of the retention window.
    pub fn spilled_epochs(&self) -> u64 {
        self.base
    }

    /// The merged counters of every spilled epoch.
    pub fn spilled_totals(&self) -> &EpochCounters {
        &self.spilled
    }

    /// The retained window: `(absolute index, counters)` pairs, earliest
    /// first. For runs shorter than the cap this is the whole series.
    pub fn retained(&self) -> impl Iterator<Item = (u64, &EpochCounters)> {
        self.ring
            .iter()
            .enumerate()
            .map(|(i, c)| (self.base + i as u64, c))
    }

    /// Whole-run counters: spilled and retained epochs merged.
    pub fn totals(&self) -> EpochCounters {
        let mut total = self.spilled;
        for epoch in &self.ring {
            total.merge(epoch);
        }
        total
    }

    /// Folds one event into the epoch covering `now`, discarding spilled
    /// epochs (they still reach the running totals).
    pub fn record(&mut self, now: Cycle, event: &TraceEvent) {
        self.record_spilling(now, event, &mut |_, _| {});
    }

    /// Folds one event into the epoch covering `now`, handing each epoch
    /// that falls out of the retention window to `spill` (with its
    /// absolute index) before it is discarded.
    ///
    /// An event older than the window — possible only with a cap smaller
    /// than the reordering depth of the emitter — merges straight into
    /// the spilled totals: never lost, just not attributable to a
    /// resident epoch anymore.
    pub fn record_spilling(
        &mut self,
        now: Cycle,
        event: &TraceEvent,
        spill: &mut dyn FnMut(u64, &EpochCounters),
    ) {
        let idx = now.raw() / self.epoch_cycles;
        if idx < self.base {
            self.spilled.record(event);
            return;
        }
        while self.epoch_count() <= idx {
            self.ring.push_back(EpochCounters::default());
            if self.ring.len() > self.max_epochs {
                let evicted = self
                    .ring
                    .pop_front()
                    .expect("ring is non-empty: an epoch was just pushed");
                spill(self.base, &evicted);
                self.spilled.merge(&evicted);
                self.base += 1;
            }
        }
        let slot = usize::try_from(idx - self.base).expect("ring length is bounded by max_epochs");
        self.ring[slot].record(event);
    }
}

/// Events per [`EventBuffer`] block. 1024 pairs is ~16 KB per block —
/// large enough to amortize the per-block allocation, small enough that a
/// short recording does not reserve a `max_events`-sized arena up front.
const EVENT_BLOCK: usize = 1024;

/// Arena-backed raw event stream: a list of fixed-capacity blocks instead
/// of one contiguous `Vec`.
///
/// A growing `Vec` doubles by reallocate-and-copy, so a near-cap recording
/// copies every retained event O(log n) times and briefly holds 1.5× the
/// stream in memory mid-reallocation — per in-flight sweep point, with the
/// worker pool keeping several points' recordings alive at once.
/// Blocks never move once allocated: a push is amortized one pointer bump,
/// and memory grows in `EVENT_BLOCK` steps instead of doubling.
///
/// Iterate with `for (now, event) in &buffer` (emission order).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct EventBuffer {
    blocks: Vec<Vec<(Cycle, TraceEvent)>>,
    len: usize,
}

impl EventBuffer {
    /// Retained events across all blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one event, opening a fresh block when the last is full.
    fn push(&mut self, now: Cycle, event: TraceEvent) {
        if self.blocks.last().is_none_or(|b| b.len() == EVENT_BLOCK) {
            self.blocks.push(Vec::with_capacity(EVENT_BLOCK));
        }
        let block = self
            .blocks
            .last_mut()
            .expect("a block exists: one was pushed above when absent or full");
        block.push((now, event));
        self.len += 1;
    }

    /// The retained `(cycle, event)` pairs in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &(Cycle, TraceEvent)> {
        self.blocks.iter().flatten()
    }
}

impl<'a> IntoIterator for &'a EventBuffer {
    type Item = &'a (Cycle, TraceEvent);
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Vec<(Cycle, TraceEvent)>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.iter().flatten()
    }
}

/// Everything an armed trace run recorded: the epoch series, the bounded
/// raw event stream, and how many events overflowed the retention cap.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceData {
    /// Per-epoch aggregated counters.
    pub epochs: EpochSeries,
    /// Raw `(cycle, event)` pairs, in emission order, capped at
    /// [`TraceOptions::max_events`].
    pub events: EventBuffer,
    /// Events that exceeded the cap (still counted in `epochs`).
    pub dropped_events: u64,
    opts: TraceOptions,
}

impl TraceData {
    /// Creates an empty recording with the given options.
    pub fn new(opts: TraceOptions) -> Self {
        Self {
            epochs: EpochSeries::with_capacity(opts.epoch_cycles, opts.max_epochs),
            events: EventBuffer::default(),
            dropped_events: 0,
            opts,
        }
    }

    /// The options this recording was made with.
    pub fn options(&self) -> &TraceOptions {
        &self.opts
    }

    /// Folds one event into the recording.
    pub fn record(&mut self, now: Cycle, event: TraceEvent) {
        self.record_spilling(now, event, &mut |_, _| {});
    }

    /// Folds one event into the recording, handing epochs evicted from
    /// the bounded ring to `spill` (see [`EpochSeries::record_spilling`]).
    pub fn record_spilling(
        &mut self,
        now: Cycle,
        event: TraceEvent,
        spill: &mut dyn FnMut(u64, &EpochCounters),
    ) {
        self.epochs.record_spilling(now, &event, spill);
        if self.opts.capture_events {
            if self.events.len() < self.opts.max_events {
                self.events.push(now, event);
            } else {
                self.dropped_events += 1;
            }
        }
    }

    /// Whole-run counters: every epoch merged, spilled ones included.
    pub fn totals(&self) -> EpochCounters {
        self.epochs.totals()
    }

    /// Total events folded into the recording (retained or not).
    pub fn event_count(&self) -> u64 {
        self.events.len() as u64 + self.dropped_events
    }
}

/// An armed [`TraceSink`] whose recording is shared between the emitting
/// organization (boxed into `dyn MemoryOrganization`) and the harness that
/// reads the result back out.
///
/// Cloning shares the underlying [`TraceData`]; [`SharedSink::take`]
/// extracts it, leaving an empty recording behind.
///
/// A sink armed with [`SharedSink::with_spill`] additionally streams
/// every epoch the bounded ring evicts to the hook, so a long run's
/// epoch series reaches disk incrementally while memory stays flat.
#[derive(Clone)]
pub struct SharedSink {
    data: Arc<Mutex<TraceData>>,
    spill: Option<Arc<Mutex<EpochSpillFn>>>,
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink")
            .field("data", &self.data)
            .field("spill_armed", &self.spill.is_some())
            .finish()
    }
}

impl SharedSink {
    /// Creates an armed sink with an empty recording.
    pub fn new(opts: TraceOptions) -> Self {
        Self {
            data: Arc::new(Mutex::new(TraceData::new(opts))),
            spill: None,
        }
    }

    /// Creates an armed sink that feeds ring-evicted epochs to `spill`
    /// (shared by every clone).
    pub fn with_spill(opts: TraceOptions, spill: EpochSpillFn) -> Self {
        Self {
            data: Arc::new(Mutex::new(TraceData::new(opts))),
            spill: Some(Arc::new(Mutex::new(spill))),
        }
    }

    /// Extracts the recording, resetting this sink (and every clone) to an
    /// empty one with the same options.
    pub fn take(&self) -> TraceData {
        let mut guard = self
            .data
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let opts = *guard.options();
        std::mem::replace(&mut guard, TraceData::new(opts))
    }

    /// Runs `f` against the live recording without extracting it.
    pub fn with<R>(&self, f: impl FnOnce(&TraceData) -> R) -> R {
        let guard = self
            .data
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&guard)
    }
}

impl TraceSink for SharedSink {
    const ENABLED: bool = true;

    fn emit(&mut self, now: Cycle, event: TraceEvent) {
        // Evictions are collected under the data lock and written after
        // releasing it, so the (rare) spill I/O never extends the window
        // in which the hot recording path is blocked. `Vec::new` does not
        // allocate, and most emits evict nothing.
        let mut evicted: Vec<(u64, EpochCounters)> = Vec::new();
        {
            let mut guard = self
                .data
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match &self.spill {
                Some(_) => guard.record_spilling(now, event, &mut |idx, c| {
                    evicted.push((idx, *c));
                }),
                None => guard.record(now, event),
            }
        }
        if let Some(spill) = &self.spill {
            if !evicted.is_empty() {
                let mut hook = spill
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for (idx, counters) in &evicted {
                    hook(*idx, counters);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_index_by_cycle_and_fill_gaps() {
        let mut series = EpochSeries::new(100);
        series.record(Cycle::new(5), &TraceEvent::Swap { group: 1 });
        series.record(Cycle::new(350), &TraceEvent::Swap { group: 2 });
        assert_eq!(series.epoch_count(), 4);
        assert_eq!(series.spilled_epochs(), 0);
        let retained: Vec<(u64, EpochCounters)> = series.retained().map(|(i, c)| (i, *c)).collect();
        assert_eq!(retained.len(), 4);
        assert_eq!(retained[0].0, 0);
        assert_eq!(retained[0].1.swaps, 1);
        assert_eq!(retained[1].1.swaps, 0);
        assert_eq!(retained[3].1.swaps, 1);
    }

    /// The bounded ring evicts the oldest epochs — in order, with their
    /// absolute indices — while totals and the epoch count keep covering
    /// the whole run.
    #[test]
    fn ring_spills_oldest_epochs_but_totals_cover_the_run() {
        let mut series = EpochSeries::with_capacity(10, 4);
        let mut spilled: Vec<(u64, u64)> = Vec::new();
        for epoch in 0..10u64 {
            series.record_spilling(
                Cycle::new(epoch * 10),
                &TraceEvent::Swap { group: epoch },
                &mut |idx, c| spilled.push((idx, c.swaps)),
            );
        }
        assert_eq!(series.epoch_count(), 10);
        assert_eq!(series.spilled_epochs(), 6);
        assert_eq!(
            spilled,
            vec![(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]
        );
        assert_eq!(series.spilled_totals().swaps, 6);
        assert_eq!(series.totals().swaps, 10);
        let retained: Vec<u64> = series.retained().map(|(i, _)| i).collect();
        assert_eq!(retained, vec![6, 7, 8, 9]);
    }

    /// An event older than the retention window merges into the spilled
    /// totals instead of vanishing.
    #[test]
    fn late_events_behind_the_window_reach_the_totals() {
        let mut series = EpochSeries::with_capacity(10, 2);
        series.record(Cycle::new(90), &TraceEvent::Swap { group: 0 });
        assert!(series.spilled_epochs() > 0);
        series.record(Cycle::new(0), &TraceEvent::Swap { group: 1 });
        assert_eq!(series.totals().swaps, 2);
        assert_eq!(series.epoch_count(), 10);
    }

    /// A spill-armed sink streams evicted epochs to its hook while the
    /// recording keeps whole-run totals.
    #[test]
    fn shared_sink_streams_evicted_epochs_to_the_spill_hook() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let hook_seen = Arc::clone(&seen);
        let mut sink = SharedSink::with_spill(
            TraceOptions {
                epoch_cycles: 10,
                capture_events: false,
                max_events: 0,
                max_epochs: 2,
            },
            Box::new(move |idx, c: &EpochCounters| {
                hook_seen.lock().expect("test hook").push((idx, c.swaps));
            }),
        );
        for epoch in 0..5u64 {
            sink.emit(Cycle::new(epoch * 10), TraceEvent::Swap { group: epoch });
        }
        assert_eq!(
            *seen.lock().expect("test hook"),
            vec![(0, 1), (1, 1), (2, 1)]
        );
        let data = sink.take();
        assert_eq!(data.totals().swaps, 5);
        assert_eq!(data.epochs.epoch_count(), 5);
        assert_eq!(data.epochs.spilled_epochs(), 3);
    }

    #[test]
    fn counters_fold_every_variant() {
        let mut c = EpochCounters::default();
        c.record(&TraceEvent::Swap { group: 0 });
        c.record(&TraceEvent::LltProbe { group: 0 });
        c.record(&TraceEvent::LlpPredict { correct: true });
        c.record(&TraceEvent::LlpPredict { correct: false });
        c.record(&TraceEvent::Service { stacked: true });
        c.record(&TraceEvent::Service { stacked: false });
        c.record(&TraceEvent::PageMigration { pages: 3 });
        c.record(&TraceEvent::RowBufferOutcome {
            stacked: true,
            hits: 2,
            closed: 1,
            conflicts: 1,
        });
        c.record(&TraceEvent::RecoveryAction {
            kind: cameo_types::RecoveryKind::Scrub,
        });
        assert_eq!(c.swaps, 1);
        assert_eq!(c.llt_probes, 1);
        assert_eq!(c.predicts, 2);
        assert_eq!(c.predicts_correct, 1);
        assert_eq!(c.prediction_accuracy(), Some(0.5));
        assert_eq!(c.stacked_service_rate(), Some(0.5));
        assert_eq!(c.swap_rate(), Some(0.5));
        assert_eq!(c.migrated_pages, 3);
        assert_eq!(c.row_hits, 2);
        assert_eq!(c.row_closed, 1);
        assert_eq!(c.row_conflicts, 1);
        assert_eq!(c.recovery_actions, 1);
    }

    #[test]
    fn event_cap_spills_into_dropped_but_epochs_keep_counting() {
        let mut data = TraceData::new(TraceOptions {
            epoch_cycles: 10,
            capture_events: true,
            max_events: 2,
            max_epochs: DEFAULT_MAX_EPOCHS,
        });
        for i in 0..5u64 {
            data.record(Cycle::new(i), TraceEvent::Swap { group: i });
        }
        assert_eq!(data.events.len(), 2);
        assert_eq!(data.dropped_events, 3);
        assert_eq!(data.event_count(), 5);
        assert_eq!(data.totals().swaps, 5);
    }

    #[test]
    fn shared_sink_clones_share_and_take_resets() {
        let mut sink = SharedSink::new(TraceOptions::default());
        let handle = sink.clone();
        sink.emit(Cycle::new(1), TraceEvent::Service { stacked: true });
        assert_eq!(handle.with(|d| d.totals().stacked_serviced), 1);
        let taken = handle.take();
        assert_eq!(taken.totals().stacked_serviced, 1);
        assert_eq!(sink.take().totals().stacked_serviced, 0);
    }
}
