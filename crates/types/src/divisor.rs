//! Exact division by a run-time invariant divisor without a hardware
//! divide.

/// A non-zero `u64` divisor, preprocessed so that dividing any `u64` by it
/// costs one multiply-high, two shifts, an add and a subtract instead of
/// a hardware divide (tens of cycles on the hosts the simulator targets).
///
/// This is the round-up method of Granlund and Montgomery ("Division by
/// Invariant Integers using Multiplication", PLDI 1994, Fig. 4.1). With
/// `ℓ = ⌈log2 d⌉` and `m = ⌊2^64 (2^ℓ − d) / d⌋ + 1`, the quotient of every
/// `u64` numerator `n` is
///
/// ```text
/// t = ⌊m n / 2^64⌋,    n / d = (t + ((n − t) >> min(ℓ, 1))) >> max(ℓ − 1, 0)
/// ```
///
/// `m` is the low 64 bits of the 65-bit reciprocal `2^64 + m`; the halved
/// `n − t` folds its top bit back in without overflowing. The method is
/// exact for every divisor in `1..=u64::MAX` and every numerator, powers of
/// two included (there `m = 1`, `t = 0` and the two shifts add up to ℓ), so
/// there is no special case to keep in step with the general one.
///
/// # Examples
///
/// ```
/// use cameo_types::Divisor;
///
/// let groups = Divisor::new(3 * 1024);
/// assert_eq!(groups.quotient(100_000), 100_000 / 3072);
/// assert_eq!(groups.remainder(100_000), 100_000 % 3072);
/// assert_eq!(groups.div_rem(u64::MAX), (u64::MAX / 3072, u64::MAX % 3072));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Divisor {
    divisor: u64,
    magic: u64,
    shift1: u32,
    shift2: u32,
}

impl Divisor {
    /// Preprocesses `divisor` (one 128-bit division, done once).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be non-zero");
        // ℓ = ⌈log2 d⌉: 0 for d = 1, 64 for d > 2^63.
        let log = u64::BITS - (divisor - 1).leading_zeros();
        let span = (1u128 << log) - u128::from(divisor);
        // m < 2^64 because d > 2^(ℓ−1); the cast keeps every bit.
        let magic = ((span << 64) / u128::from(divisor) + 1) as u64;
        Self {
            divisor,
            magic,
            shift1: log.min(1),
            shift2: log.saturating_sub(1),
        }
    }

    /// The divisor itself.
    #[inline]
    pub fn get(self) -> u64 {
        self.divisor
    }

    /// `n / divisor`, exactly.
    #[inline]
    pub fn quotient(self, n: u64) -> u64 {
        let t = ((u128::from(n) * u128::from(self.magic)) >> 64) as u64;
        (t + ((n - t) >> self.shift1)) >> self.shift2
    }

    /// `n % divisor`, exactly.
    #[inline]
    pub fn remainder(self, n: u64) -> u64 {
        self.div_rem(n).1
    }

    /// `(n / divisor, n % divisor)` from one quotient.
    #[inline]
    pub fn div_rem(self, n: u64) -> (u64, u64) {
        let q = self.quotient(n);
        (q, n - q * self.divisor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    /// Numerators every divisor is checked at: the ends of the range, the
    /// neighbours of the divisor and its first multiples, and the powers
    /// of two where the multiply-high's carry handling changes.
    fn edge_numerators(d: u64) -> Vec<u64> {
        let mut ns = vec![0, 1, 2, 3, u64::MAX, u64::MAX - 1, u64::MAX / 2];
        for k in [1u64, 2, 3, 1 << 20] {
            let m = d.saturating_mul(k);
            ns.extend([m.saturating_sub(1), m, m.saturating_add(1)]);
        }
        let top = u64::MAX - u64::MAX % d;
        ns.extend([top, top.saturating_sub(1), top.saturating_sub(d)]);
        for shift in [31u32, 32, 63] {
            let p = 1u64 << shift;
            ns.extend([p - 1, p, p + 1]);
        }
        ns
    }

    fn check(d: u64, rng: &mut SplitMix64) {
        let divisor = Divisor::new(d);
        assert_eq!(divisor.get(), d);
        // Spread random numerators over every magnitude, not only the top
        // one a uniform draw almost always lands in.
        let random: Vec<u64> = (0..24).map(|i| rng.next_u64() >> (i * 64 / 24)).collect();
        for n in edge_numerators(d).into_iter().chain(random) {
            assert_eq!(divisor.quotient(n), n / d, "{n} / {d}");
            assert_eq!(divisor.remainder(n), n % d, "{n} % {d}");
            assert_eq!(divisor.div_rem(n), (n / d, n % d), "{n} divmod {d}");
        }
    }

    /// The reciprocal matches hardware `/` and `%` for every small
    /// divisor, every power of two with its neighbours, `u64::MAX`, and
    /// random divisors of every magnitude.
    #[test]
    fn matches_hardware_division() {
        let mut rng = SplitMix64::new(0x5EED);
        for d in 1..=4096u64 {
            check(d, &mut rng);
        }
        for shift in 0..64u32 {
            let p = 1u64 << shift;
            for d in [p - 1, p, p + 1] {
                if d > 0 {
                    check(d, &mut rng);
                }
            }
        }
        check(u64::MAX, &mut rng);
        check(u64::MAX - 1, &mut rng);
        for i in 0..4096u32 {
            let d = (rng.next_u64() >> (i % 64)).max(1);
            check(d, &mut rng);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rejected() {
        Divisor::new(0);
    }
}
