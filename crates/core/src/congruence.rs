//! Congruence-group address arithmetic (paper Section IV-A).
//!
//! With `N` lines of stacked DRAM and a total visible space of `ratio × N`
//! lines, every requested line address decomposes into a *group*
//! (`line % N` — the paper's "bottom log2(N) bits") and a *way*
//! (`line / N`). All lines of a group contend for the single stacked slot
//! of that group, exactly like lines contending for a set in a cache.
//! `N` is a run-time value and need not be a power of two, so the map
//! divides through a precomputed [`Divisor`] rather than a hardware
//! divide on every access.

use cameo_types::{Divisor, LineAddr};

use crate::llt::Slot;

/// Maps requested line addresses to (congruence group, way) pairs and back.
///
/// # Examples
///
/// ```
/// use cameo::congruence::CongruenceMap;
/// use cameo_types::LineAddr;
///
/// let map = CongruenceMap::new(1024, 4);
/// let line = LineAddr::new(3 * 1024 + 17);
/// assert_eq!(map.split(line), (17, 3)); // (group, way)
/// assert_eq!(map.line_of(17, 3), line);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CongruenceMap {
    groups: Divisor,
    ratio: u8,
}

impl CongruenceMap {
    /// Creates a map with `groups` congruence groups (the stacked line
    /// count) and `ratio` ways per group (total / stacked capacity).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or `ratio < 2` (a ratio of 1 would mean
    /// no off-chip memory and nothing to swap).
    pub fn new(groups: u64, ratio: u8) -> Self {
        assert!(groups > 0, "need at least one congruence group");
        assert!(ratio >= 2, "ratio must be at least 2");
        Self {
            groups: Divisor::new(groups),
            ratio,
        }
    }

    /// Number of congruence groups (== stacked lines).
    #[inline]
    pub fn groups(&self) -> u64 {
        self.groups.get()
    }

    /// Reduces `x` modulo the group count (`x % groups`).
    #[inline]
    pub fn wrap(&self, x: u64) -> u64 {
        self.groups.remainder(x)
    }

    /// Lines per congruence group.
    #[inline]
    pub fn ratio(&self) -> u8 {
        self.ratio
    }

    /// Total visible lines (`groups × ratio`).
    #[inline]
    pub fn total_lines(&self) -> u64 {
        self.groups() * u64::from(self.ratio)
    }

    /// `(group, way)` of a requested line from one quotient: the group is
    /// `line % groups`, the way `line / groups`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is outside the visible space.
    #[inline]
    pub fn split(&self, line: LineAddr) -> (u64, u8) {
        debug_assert!(line.raw() < self.total_lines(), "line out of space");
        let (way, group) = self.groups.div_rem(line.raw());
        // way = line / groups < ratio ≤ 15 (checked above), so it fits a u8.
        (group, way as u8)
    }

    /// Reconstructs the requested line address of `(group, way)`.
    ///
    /// # Panics
    ///
    /// Panics if `group` or `way` is out of range.
    #[inline]
    pub fn line_of(&self, group: u64, way: u8) -> LineAddr {
        assert!(group < self.groups(), "group out of range");
        assert!(way < self.ratio, "way out of range");
        let line = LineAddr::new(u64::from(way) * self.groups() + group);
        #[cfg(feature = "deep-audit")]
        assert!(
            self.split(line) == (group, way),
            "deep-audit: congruence decomposition does not round-trip for \
             (group {group}, way {way})"
        );
        line
    }

    /// Device-local line a physical slot of `group` refers to: slot 0 is
    /// stacked-DRAM line `group`; slot `k ≥ 1` is off-chip line
    /// `(k−1) × groups + group`.
    #[inline]
    pub fn device_line(&self, group: u64, slot: Slot) -> u64 {
        match slot.raw() {
            0 => group,
            k => u64::from(k - 1) * self.groups() + group,
        }
    }
}

/// Divides by 31 using the residue trick the paper's footnote 5 describes
/// (31 = 32 − 1), suitable for a few adders in hardware: repeatedly add the
/// quotient's spill until the remainder settles.
///
/// This is the hardware model of the LEAD index in the 31-LEADs-per-row
/// co-located layout, and matches `x / 31` exactly; the simulator itself
/// divides by the constant, which the compiler turns into a multiply.
///
/// # Examples
///
/// ```
/// use cameo::congruence::div31;
///
/// assert_eq!(div31(0), 0);
/// assert_eq!(div31(30), 0);
/// assert_eq!(div31(31), 1);
/// assert_eq!(div31(123_456_789), 123_456_789 / 31);
/// ```
pub fn div31(x: u64) -> u64 {
    // q ≈ x/32 + x/32² + x/32³ ... converges because 1/31 = Σ 1/32^k.
    let mut q = 0u64;
    let mut r = x;
    while r >= 31 {
        let step = r >> 5; // r / 32
        let step = step.max(1);
        q += step;
        r -= step * 31;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_way_round_trip() {
        let map = CongruenceMap::new(128, 4);
        for raw in [0u64, 1, 127, 128, 300, 511] {
            let line = LineAddr::new(raw);
            let (g, w) = map.split(line);
            assert_eq!(map.line_of(g, w), line);
        }
    }

    #[test]
    fn paper_example_four_lines_per_group() {
        // 4 GB stacked, 12 GB off-chip: groups = stacked lines, ratio 4.
        let map = CongruenceMap::new(4, 4);
        // Lines A, B, C, D of Figure 4 are ways 0..4 of one group.
        let a = map.line_of(2, 0);
        let b = map.line_of(2, 1);
        let ((group_a, way_a), (group_b, way_b)) = (map.split(a), map.split(b));
        assert_eq!(group_a, group_b);
        assert_ne!(way_a, way_b);
    }

    #[test]
    fn device_lines() {
        let map = CongruenceMap::new(100, 4);
        assert_eq!(map.device_line(7, Slot::new(0)), 7); // stacked
        assert_eq!(map.device_line(7, Slot::new(1)), 7); // first off-chip third
        assert_eq!(map.device_line(7, Slot::new(2)), 107);
        assert_eq!(map.device_line(7, Slot::new(3)), 207);
    }

    #[test]
    fn split_matches_group_and_way_at_any_group_count() {
        // MemCache splits and the tiny test machines give group counts
        // that are not powers of two.
        for groups in [1u64, 3, 100, 1024, 3 * 1024 + 7] {
            let map = CongruenceMap::new(groups, 4);
            for raw in [0, 1, groups - 1, groups, 2 * groups + 1, 4 * groups - 1] {
                let line = LineAddr::new(raw);
                assert_eq!(map.split(line), (raw % groups, (raw / groups) as u8));
                assert_eq!(map.wrap(raw), raw % groups);
            }
        }
    }

    #[test]
    fn total_lines() {
        assert_eq!(CongruenceMap::new(10, 4).total_lines(), 40);
    }

    #[test]
    #[should_panic(expected = "ratio must be at least 2")]
    fn degenerate_ratio_rejected() {
        CongruenceMap::new(10, 1);
    }

    #[test]
    #[should_panic(expected = "way out of range")]
    fn way_bounds_checked() {
        CongruenceMap::new(10, 4).line_of(0, 4);
    }

    #[test]
    fn div31_matches_division() {
        for x in 0..10_000u64 {
            assert_eq!(div31(x), x / 31, "x = {x}");
        }
        for x in [u64::MAX, u64::MAX / 2, 1 << 40, (1 << 40) - 1] {
            assert_eq!(div31(x), x / 31, "x = {x}");
        }
    }
}
