//! OS virtual-memory substrate for the CAMEO reproduction.
//!
//! The paper's evaluation depends on a modeled operating system in three
//! places:
//!
//! 1. **Demand paging** — workload footprints can exceed visible memory
//!    (Capacity-Limited workloads); each fault costs 32 µs (100 K cycles at
//!    3.2 GHz) of SSD latency and moves 4 KiB pages to/from storage. The
//!    victim page is chosen with a clock algorithm after probing five
//!    random frames for a free one (Section III-A).
//! 2. **Two-Level Memory (TLM)** — when stacked DRAM is part of the OS
//!    address space, physical frames split into a fast (stacked) and a slow
//!    (off-chip) region, and the [`tlm`] policies decide which pages live
//!    where: `Static` (random), `Dynamic` (swap-on-touch),
//!    `Freq` (epoch-based hottest-page promotion), `Oracle` (profiled).
//! 3. **Capacity accounting** — baseline and Cache configurations only see
//!    off-chip capacity; TLM/CAMEO see the sum; the idealized DoubleUse
//!    sees the sum *and* keeps the cache.
//!
//! # Examples
//!
//! ```
//! use cameo_vmem::{Region, Vmm, VmmConfig};
//! use cameo_types::{ByteSize, PageAddr};
//!
//! let mut vmm = Vmm::new(VmmConfig {
//!     stacked: ByteSize::from_pages(0),
//!     off_chip: ByteSize::from_pages(16),
//!     placement: cameo_vmem::Placement::Random,
//!     seed: 7,
//! });
//! let t = vmm.translate(PageAddr::new(3), false);
//! assert!(t.fault.is_some()); // first touch always faults
//! let again = vmm.translate(PageAddr::new(3), false);
//! assert!(again.fault.is_none());
//! assert_eq!(t.phys, again.phys);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frames;
mod page_table;
pub mod tlm;
mod vmm;

pub use frames::{FrameAllocator, FrameId, Region};
pub use vmm::{FaultInfo, Placement, TranslateOutcome, Vmm, VmmConfig, VmmStats};

/// Page-fault service latency from the paper: 32 µs on an SSD at 3.2 GHz.
pub const PAGE_FAULT_CYCLES: u64 = 100_000;
