//! Frequency-filtered swapping — the combination the paper sketches at the
//! end of Section VI-D: *"if page frequency information is available, CAMEO
//! can retain lines from only heavily used pages in stacked DRAM."*
//!
//! A small table of saturating page-activity counters (in the spirit of
//! CHOP's filter cache) tracks recently touched pages; a line is only
//! swapped into stacked DRAM once its page's counter crosses a threshold.
//! Cold streaming data then passes through without evicting hot lines,
//! trading some hit rate on first-touch streams for less swap churn.

use cameo_types::LineAddr;

/// How the controller decides whether an off-chip hit is worth swapping in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SwapPolicy {
    /// The paper's base CAMEO: every off-chip demand read swaps.
    #[default]
    Always,
    /// Swap only lines of pages whose recent activity crossed `threshold`
    /// (frequency information the paper assumes a page-activity tracker
    /// provides).
    HotPagesOnly {
        /// Accesses a page must accumulate before its lines are promoted.
        threshold: u8,
    },
}

/// Off-chip reads between two halvings of the activity counters.
const DECAY_PERIOD: u64 = 65_536;

/// Counters in the controller's activity table: 64 K × 6 bits (48 KB),
/// big enough that aliasing does not make every page look hot at
/// memory-scale footprints.
const FILTER_ENTRIES: usize = 64 * 1024;

/// The state [`SwapPolicy::HotPagesOnly`] keeps: its threshold, a
/// page-activity table and the decay clock. [`SwapPolicy::Always`] reads
/// no count, so a controller under it holds none of this.
#[derive(Clone, Debug)]
pub(crate) struct HotPageFilter {
    threshold: u8,
    table: PageActivityTable,
    reads_since_decay: u64,
}

impl HotPageFilter {
    /// An empty filter promoting pages at `threshold` accesses.
    pub(crate) fn new(threshold: u8) -> Self {
        Self {
            threshold,
            table: PageActivityTable::new(FILTER_ENTRIES),
            reads_since_decay: 0,
        }
    }

    /// The policy this filter implements.
    pub(crate) fn policy(&self) -> SwapPolicy {
        SwapPolicy::HotPagesOnly {
            threshold: self.threshold,
        }
    }

    /// Records one off-chip read of `line` (halving every counter once per
    /// [`DECAY_PERIOD`] reads) and decides whether it swaps in.
    pub(crate) fn admit(&mut self, line: LineAddr) -> bool {
        self.reads_since_decay += 1;
        if self.reads_since_decay >= DECAY_PERIOD {
            self.reads_since_decay = 0;
            self.table.decay();
        }
        self.table.record(line) >= self.threshold
    }
}

/// A direct-mapped table of 6-bit page-activity counters.
///
/// Aliasing is deliberate (it is a filter, not a directory): two pages
/// sharing an entry pool their heat, which errs toward promoting — the
/// safe direction.
///
/// # Examples
///
/// ```
/// use cameo::swap_filter::PageActivityTable;
/// use cameo_types::LineAddr;
///
/// let mut table = PageActivityTable::new(1024);
/// let line = LineAddr::new(12345);
/// assert_eq!(table.record(line), 1);
/// assert_eq!(table.record(line), 2);
/// ```
#[derive(Clone, Debug)]
pub struct PageActivityTable {
    counters: Vec<u8>,
}

const COUNTER_MAX: u8 = 63;

impl PageActivityTable {
    /// Creates a table with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        Self {
            counters: vec![0; entries],
        }
    }

    fn index(&self, line: LineAddr) -> usize {
        let page = line.page().raw();
        // Cheap multiplicative hash against pathological striding.
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & (self.counters.len() - 1)
    }

    /// Records one access to `line`'s page and returns the updated count.
    pub fn record(&mut self, line: LineAddr) -> u8 {
        let idx = self.index(line);
        self.counters[idx] = (self.counters[idx] + 1).min(COUNTER_MAX);
        self.counters[idx]
    }

    /// Current count for `line`'s page.
    pub fn count(&self, line: LineAddr) -> u8 {
        self.counters[self.index(line)]
    }

    /// Halves all counters (periodic decay keeps "hot" recent).
    pub fn decay(&mut self) {
        for c in &mut self.counters {
            *c /= 2;
        }
    }

    /// Storage in bits (6 bits per counter).
    pub fn storage_bits(&self) -> usize {
        self.counters.len() * 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_saturate() {
        let mut t = PageActivityTable::new(64);
        let line = LineAddr::new(99);
        for _ in 0..100 {
            t.record(line);
        }
        assert_eq!(t.count(line), COUNTER_MAX);
    }

    #[test]
    fn lines_of_same_page_share_a_counter() {
        let mut t = PageActivityTable::new(64);
        t.record(LineAddr::new(0));
        assert_eq!(t.count(LineAddr::new(63)), 1); // same page
    }

    #[test]
    fn decay_halves() {
        let mut t = PageActivityTable::new(64);
        let line = LineAddr::new(7);
        for _ in 0..8 {
            t.record(line);
        }
        t.decay();
        assert_eq!(t.count(line), 4);
    }

    #[test]
    fn storage_is_small() {
        // 1024 entries × 6 bits = 768 bytes: filter-cache scale.
        assert_eq!(PageActivityTable::new(1024).storage_bits(), 6144);
    }

    #[test]
    fn default_policy_is_always() {
        assert_eq!(SwapPolicy::default(), SwapPolicy::Always);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        PageActivityTable::new(100);
    }
}
