//! Typed simulator events and the zero-overhead [`TraceSink`] abstraction.
//!
//! Simulation components emit [`TraceEvent`]s through a generic
//! [`TraceSink`] parameter. The default sink is [`NopSink`], whose
//! associated `ENABLED` constant is `false`: every emission site is
//! guarded by `if S::ENABLED { ... }`, so with the default sink the
//! guard is a compile-time constant and the entire tracing path — the
//! event construction included — is removed by monomorphization. An
//! armed sink (e.g. the epoch aggregator in `cameo-sim`) flips the
//! constant and receives every event with its emission cycle.
//!
//! # Examples
//!
//! ```
//! use cameo_types::{Cycle, NopSink, TraceEvent, TraceSink, VecSink};
//!
//! fn component<S: TraceSink>(now: Cycle, sink: &mut S) {
//!     if S::ENABLED {
//!         sink.emit(now, TraceEvent::Swap { group: 7 });
//!     }
//! }
//!
//! let mut nop = NopSink;              // compiles to nothing
//! component(Cycle::new(10), &mut nop);
//! let mut rec = VecSink::default();   // records everything
//! component(Cycle::new(10), &mut rec);
//! assert_eq!(rec.events.len(), 1);
//! ```

use crate::cycle::Cycle;

/// What a fault-recovery policy did in response to one unreliable read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryKind {
    /// SECDED corrected a single-bit flip on a metadata word.
    EccCorrect,
    /// A dropped response timed out and was retried.
    Retry,
    /// A dropped response was recovered by a successful retry.
    DropRecovered,
    /// Retries were exhausted; the drop went unrecovered.
    DropUnrecovered,
    /// A bit flip escaped (no ECC) and reached the consumer.
    FlipEscaped,
    /// A broken LLT entry was scrubbed (rebuilt from data lines).
    Scrub,
    /// The controller latched into degraded serial-access mode.
    Degrade,
}

impl RecoveryKind {
    /// Stable lowercase label, used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryKind::EccCorrect => "ecc_correct",
            RecoveryKind::Retry => "retry",
            RecoveryKind::DropRecovered => "drop_recovered",
            RecoveryKind::DropUnrecovered => "drop_unrecovered",
            RecoveryKind::FlipEscaped => "flip_escaped",
            RecoveryKind::Scrub => "scrub",
            RecoveryKind::Degrade => "degrade",
        }
    }
}

/// One fine-grained simulator event, emitted as it happens.
///
/// The variants cover the behaviours CAMEO's correctness and performance
/// arguments rest on: congruence-group swaps, LLT indirection probes, LLP
/// predictions with their outcome, fault-recovery actions, TLM page
/// migration batches, DRAM row-buffer outcomes, and which device serviced
/// each demand read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A congruence-group swap brought an off-chip line into stacked DRAM.
    Swap {
        /// The congruence group that swapped.
        group: u64,
    },
    /// A Line Location Table probe (LEAD read, Embedded lookup or SRAM
    /// access) resolved a group's permutation.
    LltProbe {
        /// The congruence group probed.
        group: u64,
    },
    /// A location predictor made a prediction that was then verified.
    LlpPredict {
        /// Whether the prediction matched the verified location.
        correct: bool,
    },
    /// A fault-recovery policy acted on an unreliable metadata read.
    RecoveryAction {
        /// What the policy did.
        kind: RecoveryKind,
    },
    /// An OS-level page-migration batch moved pages between regions.
    PageMigration {
        /// Pages moved in this batch.
        pages: u32,
    },
    /// Row-buffer outcome deltas of one demand access on one device.
    RowBufferOutcome {
        /// `true` for the stacked device, `false` for off-chip.
        stacked: bool,
        /// Row-buffer hits this access added.
        hits: u16,
        /// Closed-row misses this access added.
        closed: u16,
        /// Row conflicts this access added.
        conflicts: u16,
    },
    /// One demand read was serviced.
    Service {
        /// `true` when stacked DRAM serviced it, `false` for off-chip.
        stacked: bool,
    },
}

impl TraceEvent {
    /// Stable lowercase event name, used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Swap { .. } => "swap",
            TraceEvent::LltProbe { .. } => "llt_probe",
            TraceEvent::LlpPredict { .. } => "llp_predict",
            TraceEvent::RecoveryAction { .. } => "recovery_action",
            TraceEvent::PageMigration { .. } => "page_migration",
            TraceEvent::RowBufferOutcome { .. } => "row_buffer",
            TraceEvent::Service { .. } => "service",
        }
    }
}

/// A consumer of [`TraceEvent`]s, threaded through the simulator as a
/// generic parameter.
///
/// Implementations with `ENABLED == false` must treat [`TraceSink::emit`]
/// as unreachable; emission sites guard on the constant, so a disabled
/// sink's `emit` body is never monomorphized into the hot path.
///
/// `Send` is a supertrait: sinks live inside memory organizations, and the
/// chunked sweep engine migrates a paused organization (sink and all) to
/// whichever worker resumes its point.
pub trait TraceSink: Send {
    /// Whether emission sites should construct and emit events. A
    /// compile-time constant so the disabled path folds away entirely.
    const ENABLED: bool;

    /// Consumes one event emitted at simulated time `now`.
    fn emit(&mut self, now: Cycle, event: TraceEvent);
}

/// The default sink: tracing disabled, zero overhead.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NopSink;

impl TraceSink for NopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _now: Cycle, _event: TraceEvent) {}
}

/// A simple recording sink for tests: collects `(cycle, event)` pairs.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// Every event emitted, in emission order.
    pub events: Vec<(Cycle, TraceEvent)>,
}

impl TraceSink for VecSink {
    const ENABLED: bool = true;

    fn emit(&mut self, now: Cycle, event: TraceEvent) {
        self.events.push((now, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_sink_is_disabled() {
        const { assert!(!NopSink::ENABLED) };
        // Emit is callable and does nothing (sites never call it, but the
        // trait contract must hold if one does).
        NopSink.emit(Cycle::new(1), TraceEvent::Swap { group: 0 });
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut sink = VecSink::default();
        sink.emit(Cycle::new(5), TraceEvent::Service { stacked: true });
        sink.emit(Cycle::new(9), TraceEvent::LlpPredict { correct: false });
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].0, Cycle::new(5));
        assert_eq!(sink.events[1].1, TraceEvent::LlpPredict { correct: false });
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TraceEvent::Swap { group: 3 }.name(), "swap");
        assert_eq!(
            TraceEvent::RecoveryAction {
                kind: RecoveryKind::Scrub
            }
            .name(),
            "recovery_action"
        );
        assert_eq!(RecoveryKind::EccCorrect.label(), "ecc_correct");
        assert_eq!(RecoveryKind::Degrade.label(), "degrade");
    }
}
