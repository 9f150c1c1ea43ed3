//! Memory organizations: one implementation per design point the paper
//! compares.
//!
//! | Organization | Visible memory | Stacked DRAM role |
//! |---|---|---|
//! | [`BaselineOrg`] | off-chip only | absent |
//! | [`AlloyCacheOrg`] | off-chip only | hardware cache (Alloy) |
//! | [`LohHillCacheOrg`] | off-chip only | hardware cache (Loh-Hill + MissMap) |
//! | [`TlmOrg`] (Static/Dynamic/Freq/Oracle) | stacked + off-chip | OS-managed fast region |
//! | [`MemCacheOrg`] | split of stacked + off-chip | part OS memory, part hardware cache |
//! | [`CameoOrg`] | stacked + off-chip − LLT reserve | hardware-swapped memory |
//! | [`DoubleUseOrg`] | stacked + off-chip | cache *and* extra capacity (idealistic) |
//!
//! Every organization owns its devices and OS state and exposes the single
//! [`MemoryOrganization::access`] entry point the runner drives.

mod alloy_org;
mod baseline;
mod cameo_org;
mod double_use;
mod lh_org;
mod memcache_org;
mod paging;
mod tlm_org;

pub use alloy_org::AlloyCacheOrg;
pub use baseline::BaselineOrg;
pub use cameo_org::CameoOrg;
pub use double_use::DoubleUseOrg;
pub use lh_org::LohHillCacheOrg;
pub use memcache_org::MemCacheOrg;
pub use tlm_org::{TlmOrg, TlmPolicy};

use cameo::PredictionCaseCounts;
use cameo_types::{Access, ByteSize, Cycle, ServiceLocation};

use crate::stats::BandwidthReport;

/// Result of one organization-level access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OrgResult {
    /// Cycle the demanded data is available to the core.
    pub completion: Cycle,
    /// Where the demand was serviced.
    pub serviced_by: ServiceLocation,
    /// Whether a page fault was taken on the way.
    pub faulted: bool,
}

/// A complete memory system under test: OS + devices + management policy.
///
/// Accesses carry *virtual* line addresses; the organization performs its
/// own translation, paging, and device routing.
///
/// `Send` is a supertrait, so a caller may build an organization on one
/// thread and run it on another. The sweep harness does not: each worker
/// builds, steps and drops the organization of the point it claimed.
pub trait MemoryOrganization: Send {
    /// Short label for reports (e.g. `"CAMEO"`, `"TLM-Dynamic"`).
    fn name(&self) -> &'static str;

    /// Services one post-L3 request issued at `now`.
    fn access(&mut self, now: Cycle, access: &Access) -> OrgResult;

    /// OS-visible memory capacity.
    fn visible_capacity(&self) -> ByteSize;

    /// Bus traffic accumulated since the last stats reset.
    fn bandwidth(&self) -> BandwidthReport;

    /// Page faults since the last stats reset.
    fn faults(&self) -> u64;

    /// Demand reads serviced by (stacked, off-chip) since the last reset.
    fn service_counts(&self) -> (u64, u64);

    /// Location-prediction case counters, if this organization predicts.
    fn prediction_cases(&self) -> Option<PredictionCaseCounts> {
        None
    }

    /// Pages moved by migration since the last reset.
    fn migrated_pages(&self) -> u64 {
        0
    }

    /// Pre-touches a virtual page at zero cost, as if the workload had
    /// already been running before the simulated slice (the paper measures
    /// mid-execution slices, so memory starts populated). When the
    /// footprint exceeds visible memory the prefill itself evicts, leaving
    /// the genuine capacity-miss behaviour to the timed run; what it
    /// removes is the compulsory-fault transient that a short slice would
    /// otherwise overstate.
    fn prefill(&mut self, page: cameo_types::PageAddr);

    /// Pre-touches a batch of virtual pages, in slice order, with
    /// per-page effects identical to calling [`Self::prefill`] on each.
    /// Organizations backed by a [`cameo_vmem::Vmm`] override this with
    /// one batched translation call so the (large) prefill transient
    /// pays the dispatch cost once per batch instead of per page. The
    /// runner hands over its prefill order in batches of 4096 pages.
    fn prefill_batch(&mut self, pages: &[cameo_types::PageAddr]) {
        for &page in pages {
            self.prefill(page);
        }
    }

    /// Clears all counters while keeping residency/mapping state — called
    /// when the measured region begins after warmup.
    fn reset_stats(&mut self);
}
