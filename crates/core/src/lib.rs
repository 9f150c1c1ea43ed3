//! CAMEO: a CAche-like MEmory Organization (Chou, Jaleel & Qureshi,
//! MICRO 2014) — the primary contribution of the reproduced paper.
//!
//! CAMEO makes die-stacked DRAM part of the OS-visible address space while
//! managing it in hardware at cache-line granularity:
//!
//! * the combined line space is partitioned into [**congruence
//!   groups**](congruence) of `ratio` lines that all map to the same
//!   stacked-DRAM location;
//! * on an access to an off-chip line, CAMEO **swaps** it with the
//!   stacked-resident line of its group, so exactly one copy of every line
//!   exists and hot lines migrate into fast memory;
//! * a [**Line Location Table**](llt) tracks the resulting permutation of
//!   each group; three hardware designs are modeled ([`LltDesign`]):
//!   `Ideal` (free oracle), `Embedded` (LLT in a reserved stacked region,
//!   serializing every access) and `CoLocated` (the LLT entry travels with
//!   the stacked data line as a 66-byte LEAD);
//! * a [**Line Location Predictor**](llp) — per-core, PC-indexed tables of
//!   2-bit last-location registers — lets off-chip accesses launch in
//!   parallel with the verifying stacked probe instead of serializing
//!   behind it.
//!
//! The [`Cameo`] controller glues these to the two DRAM timing models from
//! [`cameo_memsim`] and accounts for the prediction-outcome taxonomy of the
//! paper's Table III.
//!
//! # Examples
//!
//! ```
//! use cameo::{Cameo, CameoConfig, LltDesign, PredictorKind};
//! use cameo_types::{Access, ByteSize, CoreId, Cycle, LineAddr};
//!
//! let mut cameo = Cameo::new(CameoConfig {
//!     stacked: ByteSize::from_mib(1),
//!     off_chip: ByteSize::from_mib(3),
//!     llt: LltDesign::CoLocated,
//!     predictor: PredictorKind::Llp,
//!     cores: 2,
//!     llp_entries: 256,
//! });
//! let access = Access::read(CoreId(0), LineAddr::new(49_999), 0x400b00);
//! let result = cameo.access(Cycle::ZERO, &access);
//! assert!(result.completion > Cycle::ZERO);
//! ```

// A hot-path crate: a panic here aborts a whole design point, so
// every one that is meant to stay names its invariant in an `#[expect]`.
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]

#[cfg(feature = "deep-audit")]
pub mod audit;
pub mod congruence;
mod controller;
pub mod latency_model;
pub mod llp;
pub mod llt;
#[cfg(feature = "faults")]
pub mod recovery;
pub mod swap_filter;

pub use controller::{
    AccessResult, Cameo, CameoConfig, CameoStats, LltDesign, PredictorKind, SRAM_LLT_CYCLES,
};
pub use llp::{LineLocationPredictor, PredictionCase, PredictionCaseCounts};
pub use llt::{LineLocationTable, LltEntry, Slot};
pub use swap_filter::SwapPolicy;
