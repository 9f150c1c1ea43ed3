//! Shared foundation types for the CAMEO reproduction.
//!
//! Every other crate in the workspace builds on the newtypes defined here:
//! addresses at line and page granularity ([`LineAddr`], [`PageAddr`]),
//! simulated time ([`Cycle`]), capacities ([`ByteSize`]), and the memory
//! request descriptor ([`Access`]) that flows from the core model through the
//! last-level cache into the memory organization under test.
//!
//! The paper simulates a physical address space made of two device regions —
//! die-stacked DRAM and commodity off-chip DRAM. [`MemKind`] names the
//! region, and the constants [`LINE_BYTES`] / [`PAGE_BYTES`] pin the paper's
//! 64-byte line and 4 KiB page granularities.
//!
//! # Examples
//!
//! ```
//! use cameo_types::{ByteSize, LineAddr, LINE_BYTES};
//!
//! let stacked = ByteSize::from_mib(64);
//! assert_eq!(stacked.lines(), 64 * 1024 * 1024 / LINE_BYTES as u64);
//! let line = LineAddr::new(12345);
//! assert_eq!(line.page().first_line().raw(), 12288);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod capacity;
mod cycle;
mod device;
mod divisor;
mod events;
mod hash;
mod packed;
mod request;

pub use addr::{
    LineAddr, PageAddr, PhysLineAddr, PhysPageAddr, LINES_PER_PAGE, LINE_BYTES, PAGE_BYTES,
};
pub use capacity::ByteSize;
pub use cycle::Cycle;
pub use device::DeviceKind;
pub use divisor::Divisor;
pub use events::{NopSink, RecoveryKind, TraceEvent, TraceSink, VecSink};
pub use hash::{DetBuildHasher, DetHashMap, DetHashSet, DetHasher, SplitMix64};
pub use packed::PackedBits;
pub use request::{Access, AccessKind, CoreId, MemKind, ServiceLocation};
