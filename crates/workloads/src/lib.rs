//! Synthetic SPEC CPU2006-like memory trace generators (paper Table II).
//!
//! The paper drives its memory system with post-L3 miss streams from
//! 20-billion-instruction SPEC slices in 32-copy rate mode. Those traces
//! are proprietary; this crate substitutes parameterized generators that
//! reproduce the properties the memory system reacts to:
//!
//! * **Miss density** — inter-miss instruction gaps are geometric with mean
//!   `1000 / MPKI`, matching each benchmark's Table II L3 MPKI.
//! * **Footprint** — virtual addresses span the benchmark's Table II
//!   footprint (scaled by the same factor as the memory capacities), which
//!   determines paging pressure.
//! * **Temporal locality** — a hot subset of pages absorbs most accesses
//!   (tunable fraction/probability), which sets the stacked-DRAM service
//!   rate that line migration can harvest.
//! * **Spatial locality** — a streaming component walks lines sequentially,
//!   and non-streamed accesses touch only a benchmark-specific fraction of
//!   each page's lines ("page density"; e.g. milc uses ~10 of 64 lines),
//!   which is what makes page-granularity TLM migration wasteful.
//! * **PC behavior** — accesses carry instruction addresses drawn from a
//!   small per-stream pool, giving the PC↔location correlation the Line
//!   Location Predictor exploits.
//!
//! # Examples
//!
//! ```
//! use cameo_workloads::{suite, TraceConfig, TraceGenerator};
//!
//! let spec = cameo_workloads::by_name("milc").unwrap();
//! let mut gen = TraceGenerator::new(spec, TraceConfig { scale: 64, seed: 1, core_offset_pages: 0 });
//! let ev = gen.next_event();
//! assert!(ev.gap_instructions >= 1);
//! assert_eq!(suite().len(), 17);
//! ```

mod generator;
mod suite;

pub use generator::{MissEvent, TraceConfig, TraceGenerator};
pub use suite::{
    by_name, require, suite, Behavior, BenchSpec, Category, InvalidSpec, UnknownBenchmark,
};

/// A source of post-L3 miss events — implemented by the synthetic
/// [`TraceGenerator`] and by recorded-trace replayers (`cameo-trace`), so
/// the simulation driver can run from either.
pub trait MissStream {
    /// Produces the next miss event. Streams are infinite from the
    /// runner's perspective; finite recordings wrap around.
    fn next_event(&mut self) -> MissEvent;

    /// Virtual footprint of this stream in pages (used for page prefill).
    fn footprint_pages(&self) -> u64;

    /// The virtual pages this stream will touch, for the runner's
    /// mid-slice prefill. Generators return their contiguous range;
    /// recorded traces return the distinct pages they contain.
    fn prefill_pages(&self) -> Vec<cameo_types::PageAddr> {
        (0..self.footprint_pages())
            .map(cameo_types::PageAddr::new)
            .collect()
    }

    /// [`MissStream::prefill_pages`] as the range of page numbers they
    /// form, in the same order, so the runner can step through them
    /// without a list; `None` (the default) when the stream does not say.
    /// Generators return their contiguous range.
    fn prefill_range(&self) -> Option<std::ops::Range<u64>> {
        None
    }
}

/// Boxed streams forward to their contents, so heterogeneous stream sets
/// (`Vec<Box<dyn MissStream>>`) satisfy generic `S: MissStream` bounds
/// while homogeneous sets stay fully devirtualized.
impl<M: MissStream + ?Sized> MissStream for Box<M> {
    fn next_event(&mut self) -> MissEvent {
        (**self).next_event()
    }

    fn footprint_pages(&self) -> u64 {
        (**self).footprint_pages()
    }

    fn prefill_pages(&self) -> Vec<cameo_types::PageAddr> {
        (**self).prefill_pages()
    }

    fn prefill_range(&self) -> Option<std::ops::Range<u64>> {
        (**self).prefill_range()
    }
}

impl MissStream for TraceGenerator {
    #[inline]
    fn next_event(&mut self) -> MissEvent {
        TraceGenerator::next_event(self)
    }

    fn footprint_pages(&self) -> u64 {
        TraceGenerator::footprint_pages(self)
    }

    fn prefill_pages(&self) -> Vec<cameo_types::PageAddr> {
        let offset = self.offset_pages();
        (offset..offset + TraceGenerator::footprint_pages(self))
            .map(cameo_types::PageAddr::new)
            .collect()
    }

    fn prefill_range(&self) -> Option<std::ops::Range<u64>> {
        let offset = self.offset_pages();
        Some(offset..offset + TraceGenerator::footprint_pages(self))
    }
}
