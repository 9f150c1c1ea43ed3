//! The Line Location Table (paper Section IV-B): per-group permutation of
//! line locations.
//!
//! Each congruence group's entry records, for every way of the group, the
//! physical *slot* the way's line currently occupies. Slot 0 is the group's
//! stacked-DRAM location; slots `1..ratio` are its off-chip locations. The
//! entry is always a permutation — swapping preserves the
//! exactly-one-copy-of-every-line invariant that distinguishes CAMEO from a
//! cache.

use cameo_types::{DetHashMap, LineAddr, PackedBits};

use crate::congruence::CongruenceMap;

/// A physical slot within a congruence group. Slot 0 is stacked DRAM.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Slot(u8);

impl Slot {
    /// The stacked-DRAM slot of every group.
    pub const STACKED: Slot = Slot(0);

    /// Wraps a raw slot index.
    #[inline]
    pub const fn new(raw: u8) -> Self {
        Self(raw)
    }

    /// Returns the raw slot index.
    #[inline]
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Whether this is the group's stacked-DRAM slot.
    #[inline]
    pub const fn is_stacked(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_stacked() {
            f.write_str("slot0(stacked)")
        } else {
            write!(f, "slot{}(off-chip)", self.0)
        }
    }
}

/// One LLT entry: the way→slot permutation of a congruence group, packed
/// four bits per way (supports ratios up to 8; the paper's configuration
/// uses ratio 4 with two bits per way and one byte per entry).
///
/// # Examples
///
/// ```
/// use cameo::llt::{LltEntry, Slot};
///
/// let mut e = LltEntry::identity(4);
/// assert_eq!(e.slot_of(2), Slot::new(2));
/// e.promote(2); // swap way 2 into the stacked slot
/// assert_eq!(e.slot_of(2), Slot::STACKED);
/// assert_eq!(e.slot_of(0), Slot::new(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LltEntry {
    packed: u32,
    ratio: u8,
}

impl LltEntry {
    /// The identity permutation: way `i` at slot `i`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= ratio <= 8`.
    pub fn identity(ratio: u8) -> Self {
        assert!((2..=8).contains(&ratio), "ratio must be in 2..=8");
        let mut packed = 0u32;
        for way in 0..ratio {
            packed |= u32::from(way) << (way * 4);
        }
        Self { packed, ratio }
    }

    /// Ways in this entry's group.
    #[inline]
    pub fn ratio(&self) -> u8 {
        self.ratio
    }

    /// Physical slot of `way`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `way` is out of range.
    #[inline]
    pub fn slot_of(&self, way: u8) -> Slot {
        debug_assert!(way < self.ratio, "way out of range");
        Slot(((self.packed >> (way * 4)) & 0xF) as u8)
    }

    /// Way currently occupying `slot` (the inverse permutation).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn way_at(&self, slot: Slot) -> u8 {
        assert!(slot.0 < self.ratio, "slot out of range");
        (0..self.ratio)
            .find(|&w| self.slot_of(w) == slot)
            .expect("entry is a permutation")
    }

    fn set_slot(&mut self, way: u8, slot: Slot) {
        let shift = way * 4;
        self.packed = (self.packed & !(0xF << shift)) | (u32::from(slot.0) << shift);
    }

    /// Swaps `way` into the stacked slot (slot 0), displacing whichever way
    /// was there into `way`'s old slot. Returns the displaced way and the
    /// slot it moved to.
    ///
    /// Calling this on a way already in the stacked slot is a no-op and
    /// returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn promote(&mut self, way: u8) -> Option<(u8, Slot)> {
        assert!(way < self.ratio, "way out of range");
        let old_slot = self.slot_of(way);
        if old_slot.is_stacked() {
            return None;
        }
        let displaced = self.way_at(Slot::STACKED);
        self.set_slot(way, Slot::STACKED);
        self.set_slot(displaced, old_slot);
        #[cfg(feature = "deep-audit")]
        assert!(
            self.is_permutation(),
            "deep-audit: promote({way}) broke the permutation invariant: {self:?}"
        );
        Some((displaced, old_slot))
    }

    /// Checks the permutation invariant (every slot held by exactly one
    /// way). Intended for tests and debug assertions.
    pub fn is_permutation(&self) -> bool {
        let mut seen = 0u16;
        for way in 0..self.ratio {
            let s = self.slot_of(way).0;
            if s >= self.ratio || seen & (1 << s) != 0 {
                return false;
            }
            seen |= 1 << s;
        }
        true
    }

    /// Flips one bit of the packed encoding, modeling a transient metadata
    /// fault that escaped correction. The index is folded into the nibbles
    /// the entry actually uses, so every flip is observable — and, because
    /// a permutation differs from every other permutation in at least two
    /// nibble values, a single-bit flip always breaks
    /// [`LltEntry::is_permutation`].
    #[cfg(feature = "faults")]
    pub fn flip_bit(&mut self, bit: u8) {
        self.packed ^= 1 << (bit % (self.ratio * 4));
    }

    /// Serializes to the byte the paper stores per entry (two bits per way,
    /// valid only for ratio ≤ 4).
    ///
    /// # Panics
    ///
    /// Panics if `ratio > 4`.
    pub fn to_paper_byte(&self) -> u8 {
        assert!(self.ratio <= 4, "paper encoding is two bits per way");
        let mut b = 0u8;
        for way in 0..self.ratio {
            b |= self.slot_of(way).0 << (way * 2);
        }
        b
    }

    /// The raw packed nibbles. The structure-of-arrays table stores only
    /// this word per group; the ratio is table-wide.
    #[inline]
    pub(crate) fn packed_bits(&self) -> u32 {
        self.packed
    }

    /// Reassembles an entry from its packed word and the table's ratio.
    #[inline]
    pub(crate) fn from_packed(packed: u32, ratio: u8) -> Self {
        Self { packed, ratio }
    }
}

/// `n!` for the group sizes the table supports (`n <= 8`).
fn factorial(n: u8) -> u32 {
    (1..=u32::from(n)).product()
}

/// Decodes a Lehmer (factorial-number-system) index into the packed
/// nibble word of the permutation it names. Index 0 is the identity.
fn packed_of_lehmer(mut index: u32, ratio: u8) -> u32 {
    let mut remaining: Vec<u8> = (0..ratio).collect();
    let mut packed = 0u32;
    for way in 0..ratio {
        let base = factorial(ratio - 1 - way);
        let digit = (index / base) as usize;
        index %= base;
        let slot = remaining.remove(digit);
        packed |= u32::from(slot) << (way * 4);
    }
    packed
}

/// Bits needed to name any of the `ratio!` permutations of a group:
/// 1 bit at ratio 2, 5 bits at the paper's ratio 4, 16 bits at ratio 8.
fn lehmer_bits(ratio: u8) -> u8 {
    let max = factorial(ratio) - 1;
    if max == 0 {
        1
    } else {
        (32 - max.leading_zeros()) as u8
    }
}

/// The full Line Location Table: one entry per congruence group,
/// initialized to the identity mapping (paper Figure 5's starting state).
///
/// Storage is a *permutation-index* table: a ratio-`r` group can only ever
/// hold one of the `r!` way→slot permutations, so the store keeps a
/// Lehmer index per group — ⌈log₂ r!⌉ bits (5 bits at the paper's ratio
/// 4, against 16 for the packed nibbles and 32 for a whole word) —
/// bit-packed into a [`PackedBits`] store. A table-wide decode LUT (`r!`
/// entries, ≤ 160 KiB at ratio 8) turns an index back into the packed
/// nibble word in one load, and its inverse map re-encodes updated
/// entries. At the paper's full scale (64 M ratio-4 groups) this is
/// ~40 MiB of host memory instead of 256 MiB. [`LltEntry`] remains the
/// manipulation API; [`LineLocationTable::entry`] materializes one *by
/// value* on demand, and `entry()`/`locate()` behave exactly as they did
/// over the nibble store.
///
/// Fault injection can leave a group holding a *non*-permutation, which
/// no index can name; those groups are parked verbatim in a sparse
/// override map until a scrub restores a real permutation.
///
/// This is the *contents* of the table; where those contents physically
/// live (SRAM, a reserved stacked region, or co-located LEADs) — and what
/// latency that costs — is decided by the controller's
/// [`LltDesign`](crate::LltDesign).
#[derive(Clone, Debug)]
pub struct LineLocationTable {
    map: CongruenceMap,
    /// Lehmer indices, `lehmer_bits(ratio)` bits per group.
    store: PackedBits,
    /// Lehmer index → packed nibble word; `decode[0]` is the identity.
    decode: Vec<u32>,
    /// Packed nibble word → Lehmer index (the inverse of `decode`).
    encode: DetHashMap<u32, u32>,
    ratio: u8,
    swaps: u64,
    /// Groups whose entry is not a permutation (fault injection only):
    /// raw packed nibble words, consulted before the index store.
    #[cfg(feature = "faults")]
    corrupted: DetHashMap<u64, u32>,
}

impl LineLocationTable {
    /// Creates an identity-mapped table for `map`.
    pub fn new(map: CongruenceMap) -> Self {
        let ratio = map.ratio();
        let perms = factorial(ratio);
        let decode: Vec<u32> = (0..perms).map(|i| packed_of_lehmer(i, ratio)).collect();
        let mut encode = DetHashMap::default();
        for (i, &packed) in decode.iter().enumerate() {
            encode.insert(packed, i as u32);
        }
        debug_assert_eq!(decode[0], LltEntry::identity(ratio).packed_bits());
        // Identity is index 0, so the zeroed store *is* the initial state.
        let store = PackedBits::new(map.groups(), u32::from(lehmer_bits(ratio)));
        Self {
            map,
            store,
            decode,
            encode,
            ratio,
            swaps: 0,
            #[cfg(feature = "faults")]
            corrupted: DetHashMap::default(),
        }
    }

    /// The congruence mapping this table is built over.
    #[inline]
    pub fn congruence(&self) -> &CongruenceMap {
        &self.map
    }

    /// Total swaps performed since construction.
    #[inline]
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The effective packed nibble word of `group`: the corruption
    /// override when fault injection has broken the permutation, else the
    /// decoded index.
    #[inline]
    fn packed_of(&self, group: u64) -> u32 {
        #[cfg(feature = "faults")]
        if !self.corrupted.is_empty() {
            if let Some(&packed) = self.corrupted.get(&group) {
                return packed;
            }
        }
        self.decode[self.store.get(group) as usize]
    }

    /// Stores a packed nibble word for `group`: permutations re-encode to
    /// their index; anything else (reachable only through fault
    /// injection) parks in the override map.
    fn write_packed(&mut self, group: u64, packed: u32) {
        if let Some(&index) = self.encode.get(&packed) {
            self.store.set(group, index);
            #[cfg(feature = "faults")]
            self.corrupted.remove(&group);
        } else {
            #[cfg(feature = "faults")]
            self.corrupted.insert(group, packed);
            #[cfg(not(feature = "faults"))]
            unreachable!("only permutations are written without the faults feature");
        }
    }

    /// Entry of `group`, materialized by value from the index store.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[inline]
    pub fn entry(&self, group: u64) -> LltEntry {
        LltEntry::from_packed(self.packed_of(group), self.ratio)
    }

    /// Physical slot of a requested line: a bit-field extract, one decode
    /// LUT load and a nibble extract — the hot path of every post-L3
    /// access.
    #[inline]
    pub fn locate(&self, line: LineAddr) -> Slot {
        let (group, way) = self.map.split(line);
        self.locate_in(group, way)
    }

    /// Physical slot of `way` in `group`: [`LineLocationTable::locate`]
    /// for a caller that has already split the line.
    #[inline]
    pub fn locate_in(&self, group: u64, way: u8) -> Slot {
        Slot::new(((self.packed_of(group) >> (way * 4)) & 0xF) as u8)
    }

    /// Swaps `line` into its group's stacked slot, returning the requested
    /// address of the displaced line and the off-chip slot it moved to, or
    /// `None` if `line` was already stacked-resident.
    pub fn promote(&mut self, line: LineAddr) -> Option<(LineAddr, Slot)> {
        let (group, way) = self.map.split(line);
        let mut entry = self.entry(group);
        let (displaced_way, slot) = entry.promote(way)?;
        self.write_packed(group, entry.packed_bits());
        self.swaps += 1;
        Some((self.map.line_of(group, displaced_way), slot))
    }

    /// Corrupts one bit of `group`'s entry, modeling an uncorrected
    /// metadata fault reaching the table.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[cfg(feature = "faults")]
    pub fn corrupt_entry_bit(&mut self, group: u64, bit: u8) {
        let mut entry = self.entry(group);
        entry.flip_bit(bit);
        self.write_packed(group, entry.packed_bits());
    }

    /// Overwrites `group`'s entry wholesale — the final step of a scrub
    /// that re-derived the true permutation from the group's data-line
    /// tags.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range, or if `entry` was built for a
    /// different ratio than this table's.
    #[cfg(feature = "faults")]
    pub fn restore_entry(&mut self, group: u64, entry: LltEntry) {
        assert_eq!(
            entry.ratio(),
            self.ratio,
            "restored entry must match the table's ratio"
        );
        self.write_packed(group, entry.packed_bits());
    }

    /// Fraction of groups still in their identity mapping (useful to watch
    /// swap churn in experiments).
    pub fn identity_fraction(&self) -> f64 {
        let identity = self.decode[0];
        let n = (0..self.map.groups())
            .filter(|&g| self.packed_of(g) == identity)
            .count();
        n as f64 / self.map.groups() as f64
    }

    /// Storage the table would occupy with the paper's one-byte entries.
    pub fn storage_bytes(&self) -> u64 {
        self.map.groups()
    }

    /// Bits of host storage per group in the permutation-index encoding
    /// (5 at the paper's ratio 4).
    pub fn index_bits(&self) -> u8 {
        self.store.bits() as u8
    }

    /// Host bytes actually resident for the table's per-group state (the
    /// bit-packed index store; the decode LUT and its inverse are
    /// table-wide constants independent of group count).
    pub fn host_resident_bytes(&self) -> u64 {
        self.store.host_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_entry() {
        let e = LltEntry::identity(4);
        for w in 0..4 {
            assert_eq!(e.slot_of(w), Slot::new(w));
            assert_eq!(e.way_at(Slot::new(w)), w);
        }
        assert!(e.is_permutation());
        assert_eq!(e.to_paper_byte(), 0b11_10_01_00);
    }

    #[test]
    fn promote_swaps_with_stacked() {
        let mut e = LltEntry::identity(4);
        let (displaced, slot) = e.promote(3).expect("way 3 was off-chip");
        assert_eq!(displaced, 0);
        assert_eq!(slot, Slot::new(3));
        assert_eq!(e.slot_of(3), Slot::STACKED);
        assert_eq!(e.slot_of(0), Slot::new(3));
        assert!(e.is_permutation());
        // Promoting the stacked way is a no-op.
        assert_eq!(e.promote(3), None);
    }

    #[test]
    fn figure5_request_sequence() {
        // Paper Figure 5: identity; request B (way 1) → A and B swap;
        // request D (way 3) → B and D swap; B ends at D's old slot.
        let mut e = LltEntry::identity(4);
        e.promote(1);
        assert_eq!(e.slot_of(1), Slot::STACKED); // B in stacked
        assert_eq!(e.slot_of(0), Slot::new(1)); // A at B's old slot
        e.promote(3);
        assert_eq!(e.slot_of(3), Slot::STACKED); // D in stacked
        assert_eq!(e.slot_of(1), Slot::new(3)); // B moved within off-chip
        assert_eq!(e.slot_of(0), Slot::new(1));
        assert_eq!(e.slot_of(2), Slot::new(2)); // C untouched
        assert!(e.is_permutation());
    }

    #[test]
    fn table_locate_and_promote() {
        let map = CongruenceMap::new(8, 4);
        let mut llt = LineLocationTable::new(map);
        let line = map.line_of(5, 2);
        assert_eq!(llt.locate(line), Slot::new(2));
        let (displaced, slot) = llt.promote(line).expect("off-chip line");
        assert_eq!(displaced, map.line_of(5, 0));
        assert_eq!(slot, Slot::new(2));
        assert_eq!(llt.locate(line), Slot::STACKED);
        assert_eq!(llt.locate(displaced), Slot::new(2));
        assert_eq!(llt.swaps(), 1);
    }

    #[test]
    fn identity_fraction_decreases() {
        let map = CongruenceMap::new(4, 4);
        let mut llt = LineLocationTable::new(map);
        assert_eq!(llt.identity_fraction(), 1.0);
        llt.promote(map.line_of(0, 1));
        assert_eq!(llt.identity_fraction(), 0.75);
    }

    #[test]
    fn storage_is_one_byte_per_group() {
        // At the paper's scale (64 M groups) this is the 64 MB table of
        // Section IV-C; here verified on a small instance.
        let map = CongruenceMap::new(4096, 4);
        let llt = LineLocationTable::new(map);
        assert_eq!(llt.storage_bytes(), 4096);
    }

    #[test]
    fn slot_display() {
        assert_eq!(Slot::STACKED.to_string(), "slot0(stacked)");
        assert_eq!(Slot::new(2).to_string(), "slot2(off-chip)");
    }

    #[test]
    #[should_panic(expected = "ratio must be in 2..=8")]
    fn huge_ratio_rejected() {
        LltEntry::identity(9);
    }

    #[test]
    fn lehmer_codec_is_a_bijection_over_permutations() {
        for ratio in 2..=8u8 {
            let perms = factorial(ratio);
            let mut seen = std::collections::HashSet::new();
            for i in 0..perms {
                let packed = packed_of_lehmer(i, ratio);
                let entry = LltEntry::from_packed(packed, ratio);
                assert!(entry.is_permutation(), "index {i} at ratio {ratio}");
                assert!(seen.insert(packed), "index {i} collides at ratio {ratio}");
            }
        }
        // Index 0 is the identity at every ratio (the zeroed store is the
        // initial table state).
        for ratio in 2..=8u8 {
            assert_eq!(
                packed_of_lehmer(0, ratio),
                LltEntry::identity(ratio).packed_bits()
            );
        }
    }

    #[test]
    fn index_width_matches_group_factorial() {
        let widths = [
            (2u8, 1u8),
            (3, 3),
            (4, 5),
            (5, 7),
            (6, 10),
            (7, 13),
            (8, 16),
        ];
        for (ratio, bits) in widths {
            assert_eq!(lehmer_bits(ratio), bits, "ratio {ratio}");
        }
    }

    #[test]
    fn host_storage_shrinks_to_index_bits() {
        // 4096 ratio-4 groups: 5 bits each = 20480 bits = 321 words
        // (+ guard) against 16 KiB of packed nibbles before the recode.
        let llt = LineLocationTable::new(CongruenceMap::new(4096, 4));
        assert_eq!(llt.index_bits(), 5);
        assert_eq!(
            llt.host_resident_bytes(),
            (4096 * 5u64).div_ceil(64) * 8 + 8
        );
        assert!(llt.host_resident_bytes() < 4096 * 4 / 2);
        // The paper-model gauge is unchanged: one byte per group.
        assert_eq!(llt.storage_bytes(), 4096);
    }

    /// The nibble-packed store this PR replaced, kept verbatim as the
    /// reference model: one u32 of packed way→slot nibbles per group.
    struct NibbleTable {
        map: CongruenceMap,
        packed: Vec<u32>,
        ratio: u8,
    }

    impl NibbleTable {
        fn new(map: CongruenceMap) -> Self {
            let ratio = map.ratio();
            let identity = LltEntry::identity(ratio).packed_bits();
            Self {
                map,
                packed: vec![identity; map.groups() as usize],
                ratio,
            }
        }

        fn entry(&self, group: u64) -> LltEntry {
            LltEntry::from_packed(self.packed[group as usize], self.ratio)
        }

        fn locate(&self, line: LineAddr) -> Slot {
            let (group, way) = self.map.split(line);
            Slot::new(((self.packed[group as usize] >> (way * 4)) & 0xF) as u8)
        }

        fn promote(&mut self, line: LineAddr) -> Option<(LineAddr, Slot)> {
            let (group, way) = self.map.split(line);
            let mut entry = self.entry(group);
            let (displaced_way, slot) = entry.promote(way)?;
            self.packed[group as usize] = entry.packed_bits();
            Some((self.map.line_of(group, displaced_way), slot))
        }

        fn identity_fraction(&self) -> f64 {
            let identity = LltEntry::identity(self.ratio).packed_bits();
            let n = self.packed.iter().filter(|&&p| p == identity).count();
            n as f64 / self.packed.len() as f64
        }
    }

    proptest::proptest! {
        /// The permutation-index table is observation-equivalent to the
        /// nibble table over arbitrary promote sequences: every locate,
        /// every entry, every promote return value, and the identity
        /// fraction agree, at every ratio (1-bit through 16-bit indices,
        /// covering word-straddling bit fields).
        #[test]
        fn permutation_index_matches_nibble_table(
            ratio in 2u8..=8,
            groups in 1u64..50,
            ops in proptest::collection::vec((0u64..50, 0u8..8), 0..200),
        ) {
            let map = CongruenceMap::new(groups, ratio);
            let mut coded = LineLocationTable::new(map);
            let mut nibble = NibbleTable::new(map);
            for (g, w) in ops {
                let line = map.line_of(g % groups, w % ratio);
                proptest::prop_assert_eq!(coded.promote(line), nibble.promote(line));
                proptest::prop_assert_eq!(coded.locate(line), nibble.locate(line));
            }
            for g in 0..groups {
                proptest::prop_assert_eq!(coded.entry(g), nibble.entry(g));
                proptest::prop_assert!(coded.entry(g).is_permutation());
            }
            for w in 0..ratio {
                let line = map.line_of(groups - 1, w);
                proptest::prop_assert_eq!(coded.locate(line), nibble.locate(line));
            }
            proptest::prop_assert_eq!(coded.identity_fraction(), nibble.identity_fraction());
        }
    }

    #[cfg(feature = "faults")]
    mod faults {
        use super::*;

        /// Corrupted (non-permutation) entries cannot be index-coded; the
        /// override map must carry them verbatim and drain on restore.
        #[test]
        fn corrupt_entries_round_trip_through_overrides() {
            let map = CongruenceMap::new(16, 4);
            let mut llt = LineLocationTable::new(map);
            let before = llt.entry(3);
            llt.corrupt_entry_bit(3, 2);
            let corrupt = llt.entry(3);
            assert_ne!(corrupt, before);
            assert!(!corrupt.is_permutation());
            // Reads of the corrupted group see the raw flipped word; other
            // groups are untouched.
            assert_eq!(llt.locate(map.line_of(3, 0)), corrupt.slot_of(0));
            assert_eq!(llt.entry(4), LltEntry::identity(4));
            llt.restore_entry(3, before);
            assert_eq!(llt.entry(3), before);
            assert!(llt.corrupted.is_empty(), "restore must drain the override");
        }

        /// A second flip of the same bit restores the permutation, which
        /// must migrate back from the override map into the index store.
        #[test]
        fn double_flip_returns_to_the_index_store() {
            let map = CongruenceMap::new(8, 4);
            let mut llt = LineLocationTable::new(map);
            llt.corrupt_entry_bit(5, 7);
            assert!(!llt.corrupted.is_empty());
            llt.corrupt_entry_bit(5, 7);
            assert!(llt.corrupted.is_empty());
            assert_eq!(llt.entry(5), LltEntry::identity(4));
        }
    }
}
