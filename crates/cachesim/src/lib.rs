//! Cache models for the CAMEO reproduction.
//!
//! Two substrates live here:
//!
//! * [`SetAssocCache`] — a generic set-associative, write-back cache with
//!   LRU replacement, used for the paper's 32 MB, 16-way shared L3
//!   (see [`L3Config`]).
//! * [`alloy`] — the state-of-the-art **Alloy Cache** (Qureshi & Loh,
//!   MICRO 2012) that the paper uses as its hardware DRAM-cache baseline:
//!   a direct-mapped, line-granularity cache that stores tag-and-data
//!   (TAD) units in stacked DRAM, plus the PC-indexed memory-access
//!   predictor that decides whether to probe the cache serially or fetch
//!   from memory in parallel.
//!
//! The structures here are *state only*; the timing glue that charges DRAM
//! cycles for TAD reads and fills lives in the `cameo-sim` organization
//! layer, keeping the device models reusable.
//!
//! # Examples
//!
//! ```
//! use cameo_cachesim::{L3Config, SetAssocCache};
//!
//! let mut l3 = SetAssocCache::new(L3Config::paper().scaled(64));
//! let line = cameo_types::LineAddr::new(42);
//! assert!(!l3.access(line, false).hit); // cold miss
//! assert!(l3.access(line, false).hit); // now resident
//! ```

// A hot-path crate: a panic here aborts a whole design point, so
// every one that is meant to stay names its invariant in an `#[expect]`.
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod alloy;
mod set_assoc;

pub use set_assoc::{
    AccessOutcome, CacheConfig, CacheStats, Eviction, L3Config, Replacement, SetAssocCache,
};
