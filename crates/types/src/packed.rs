//! A fixed-length array of narrow unsigned fields, bit-packed into words.

/// `len` unsigned fields of `bits` bits each (`1..=32`), packed
/// little-endian within and across `u64` words, plus one guard word so a
/// read of a field that straddles two words never indexes past the end.
///
/// The store starts zeroed, and a zeroed `Vec` is allocated without
/// touching its pages: a table whose empty state is all-zero fields costs
/// host memory only for the words a write has reached. The LLT keeps a
/// permutation index per congruence group here, and the Alloy directory a
/// tag and dirty bit per set.
///
/// # Examples
///
/// ```
/// use cameo_types::PackedBits;
///
/// let mut store = PackedBits::new(100, 5);
/// store.set(12, 0b10110); // bits 60..65: straddles words 0 and 1
/// assert_eq!(store.get(12), 0b10110);
/// assert_eq!(store.get(11), 0);
/// assert_eq!(store.host_bytes(), (100 * 5u64).div_ceil(64) * 8 + 8);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PackedBits {
    words: Vec<u64>,
    len: u64,
    bits: u32,
}

impl PackedBits {
    /// A zeroed store of `len` fields, `bits` wide each.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 32`, or if the store would not fit the
    /// host's address space.
    pub fn new(len: u64, bits: u32) -> Self {
        assert!(
            (1..=32).contains(&bits),
            "packed fields are 1 to 32 bits wide (got {bits})"
        );
        let words = len
            .checked_mul(u64::from(bits))
            .map(|total| total.div_ceil(64) + 1)
            .and_then(|words| usize::try_from(words).ok())
            .expect("the packed store fits the host's address space");
        Self {
            words: vec![0; words],
            len,
            bits,
        }
    }

    /// Width of every field, in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Host bytes the store's words occupy, guard word included.
    pub fn host_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Field `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is out of range.
    #[inline]
    pub fn get(&self, i: u64) -> u32 {
        debug_assert!(i < self.len, "packed field {i} out of range");
        let bits = u64::from(self.bits);
        let pos = i * bits;
        let word = (pos >> 6) as usize;
        let shift = (pos & 63) as u32;
        let mask = (1u64 << bits) - 1;
        let mut v = self.words[word] >> shift;
        if u64::from(shift) + bits > 64 {
            // Straddles into the next word (shift > 0 here, so 64 - shift
            // is a valid shift amount).
            v |= self.words[word + 1] << (64 - shift);
        }
        (v & mask) as u32
    }

    /// Sets field `i` to `value`, keeping its low `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is out of range or `value` does not
    /// fit the field.
    #[inline]
    pub fn set(&mut self, i: u64, value: u32) {
        debug_assert!(i < self.len, "packed field {i} out of range");
        let bits = u64::from(self.bits);
        let mask = (1u64 << bits) - 1;
        debug_assert!(
            u64::from(value) <= mask,
            "{value} does not fit a {bits}-bit field"
        );
        let value = u64::from(value) & mask;
        let pos = i * bits;
        let word = (pos >> 6) as usize;
        let shift = (pos & 63) as u32;
        self.words[word] = (self.words[word] & !(mask << shift)) | (value << shift);
        if u64::from(shift) + bits > 64 {
            let spill = 64 - shift;
            self.words[word + 1] = (self.words[word + 1] & !(mask >> spill)) | (value >> spill);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    /// Every width from 1 to 32 bits agrees with a plain `Vec<u64>` of
    /// masked values, over random writes concentrated on the fields that
    /// straddle a word boundary, and a write never disturbs a neighbour.
    #[test]
    fn matches_a_plain_vector_at_every_width() {
        let mut rng = SplitMix64::new(0xB175);
        for bits in 1..=32u32 {
            let len = 3 * 64 + 7;
            let mut store = PackedBits::new(len, bits);
            let mut model = vec![0u64; len as usize];
            let mask = (1u64 << bits) - 1;
            let straddling: Vec<u64> = (0..len)
                .filter(|&i| (i * u64::from(bits)) % 64 + u64::from(bits) > 64)
                .collect();
            assert_eq!(
                straddling.is_empty(),
                64 % bits == 0,
                "{bits}-bit fields straddle exactly when they do not divide a word"
            );
            for step in 0..4_000u32 {
                let i = if step % 2 == 0 && !straddling.is_empty() {
                    straddling[(rng.next_u64() % straddling.len() as u64) as usize]
                } else {
                    rng.next_u64() % len
                };
                let value = rng.next_u64() & mask;
                store.set(i, value as u32);
                model[i as usize] = value;
                for j in i.saturating_sub(1)..(i + 2).min(len) {
                    assert_eq!(
                        u64::from(store.get(j)),
                        model[j as usize],
                        "{bits}-bit field {j}"
                    );
                }
            }
            for (i, &want) in model.iter().enumerate() {
                assert_eq!(u64::from(store.get(i as u64)), want, "{bits}-bit field {i}");
            }
            // All-ones, then zero, at the last field of the store.
            store.set(len - 1, mask as u32);
            assert_eq!(u64::from(store.get(len - 1)), mask);
            store.set(len - 1, 0);
            assert_eq!(store.get(len - 1), 0);
        }
    }

    #[test]
    fn sizes_to_the_field_width_plus_a_guard_word() {
        assert_eq!(PackedBits::new(0, 3).host_bytes(), 8);
        // 512 Ki 3-bit fields: 192 KiB, plus the guard word.
        let store = PackedBits::new(512 * 1024, 3);
        assert_eq!(store.host_bytes(), 192 * 1024 + 8);
        assert_eq!(store.bits(), 3);
    }

    #[test]
    #[should_panic(expected = "1 to 32 bits")]
    fn zero_width_rejected() {
        PackedBits::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "1 to 32 bits")]
    fn over_wide_fields_rejected() {
        PackedBits::new(4, 33);
    }
}
