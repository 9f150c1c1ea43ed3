//! Full-system simulation driver for the CAMEO reproduction.
//!
//! Ties together the substrates — DRAM timing ([`cameo_memsim`]), caches
//! ([`cameo_cachesim`]), the OS ([`cameo_vmem`]), the CAMEO controller
//! ([`cameo`]) and the workload generators ([`cameo_workloads`]) — into the
//! experiment harness that regenerates every table and figure of the paper:
//!
//! * [`SystemConfig`] — the paper's Table I system, scaled for tractable
//!   simulation;
//! * [`org`] — one [`MemoryOrganization`] per design point: Baseline,
//!   Alloy Cache, TLM-Static/Dynamic/Freq/Oracle, CAMEO (any LLT design ×
//!   any predictor) and the idealistic DoubleUse;
//! * [`Runner`](runner::Runner) — the multi-core event loop with an
//!   MLP-bounded core timing model;
//! * [`RunStats`] — execution time, service breakdown, per-device
//!   bandwidth, paging and prediction-case counters;
//! * [`energy`] — the normalized power / EDP model of Figure 14;
//! * [`experiments`] — one-call experiment entry points used by the bench
//!   binaries;
//! * [`l3_stream`] — an explicit-L3 trace mode where the post-L3 stream
//!   emerges from the cache model instead of being generated directly;
//! * [`report`] — plain-text/CSV table formatting;
//! * [`trace`] — the armed event sink and epoch aggregation for the
//!   zero-overhead tracing subsystem defined in [`cameo_types`].
//!
//! # Examples
//!
//! ```no_run
//! use cameo_sim::experiments::{run_benchmark, OrgKind};
//! use cameo_sim::SystemConfig;
//!
//! let config = SystemConfig::default();
//! let bench = cameo_workloads::require("astar").expect("astar is in the Table II suite");
//! let baseline = run_benchmark(&bench, OrgKind::Baseline, &config);
//! let cameo = run_benchmark(&bench, OrgKind::cameo_default(), &config);
//! println!("speedup: {:.2}x", cameo.speedup_over(&baseline));
//! ```

// A hot-path crate: a panic here aborts a whole design point, so
// every one that is meant to stay names its invariant in an `#[expect]`.
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod checkpoint;
mod config;
mod core_model;
pub mod energy;
mod error;
pub mod experiments;
pub mod harness;
pub mod l3_stream;
pub mod org;
mod pool;
pub mod report;
pub mod runner;
mod stats;
pub mod trace;

pub use config::{ConfigError, SystemConfig};
pub use core_model::CoreTimeline;
pub use error::SimError;
pub use org::{MemoryOrganization, OrgResult};
pub use stats::{BandwidthReport, RunStats};
