//! Bank/channel DRAM timing model for the CAMEO reproduction.
//!
//! Models the two DRAM devices of the paper's Table I:
//!
//! * **Stacked DRAM** — 16 channels, 16 banks/channel, 128-bit bus at
//!   1.6 GHz (DDR 3.2 GHz), 9-9-9-36 timing.
//! * **Off-chip DRAM** — 8 channels, 8 banks/channel, 64-bit bus at 800 MHz
//!   (DDR 1.6 GHz), 9-9-9-36 timing.
//!
//! The model tracks per-bank row-buffer state (hit / closed miss / conflict)
//! and per-channel data-bus occupancy, which is what creates the bandwidth
//! contention the paper's conclusions rest on: stacked DRAM offers roughly
//! half the latency and ~8× the peak bandwidth of the off-chip device, and
//! page-granularity migration (TLM-Dynamic) saturates both.
//!
//! Either device can additionally be configured as a **tiered-latency**
//! (TL-DRAM) part via [`TlDramParams`]: each bank's rows split into a fast
//! near segment and a slower far segment, with a
//! [`Dram::promote_row_to_near`] hook for hot-page placement policies.
//! A `tl_dram: None` config is bit-identical to the flat device.
//!
//! Latency is expressed in CPU cycles of the 3.2 GHz cores so that all crates
//! share one clock domain.
//!
//! # Examples
//!
//! ```
//! use cameo_memsim::{Dram, DramConfig};
//! use cameo_types::{ByteSize, Cycle};
//!
//! let mut stacked = Dram::new(DramConfig::stacked(ByteSize::from_mib(64)));
//! let done = stacked.read_line(Cycle::ZERO, 0);
//! assert!(done > Cycle::ZERO);
//! assert_eq!(stacked.stats().demand_reads, 1);
//! ```

// A hot-path crate: a panic here aborts a whole design point, so
// every one that is meant to stay names its invariant in an `#[expect]`.
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]

mod config;
mod device;
#[cfg(feature = "faults")]
pub mod faults;
pub mod specs;
mod stats;

pub use config::{DramConfig, DramTimings, RefreshParams, RowPolicy, TlDramParams};
pub use device::{Dram, RowBufferOutcome};
pub use stats::DramStats;
