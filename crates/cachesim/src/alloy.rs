//! The Alloy Cache (Qureshi & Loh, MICRO 2012): the paper's hardware
//! DRAM-cache baseline.
//!
//! Alloy organizes stacked DRAM as a *direct-mapped*, line-granularity cache
//! whose tag is co-located with its data line as a TAD (tag-and-data) unit,
//! streamed out in a single burst. A *memory access predictor* (MAP-I:
//! instruction-address indexed) guesses whether a request will hit; on a
//! predicted miss the off-chip access is launched in parallel with the TAD
//! probe instead of serializing behind it.
//!
//! This module holds the cache *state* — the [`AlloyDirectory`] tag array
//! and the [`HitPredictor`] — while the organization layer in `cameo-sim`
//! charges DRAM timing for TAD reads, fills and writebacks.

use cameo_types::{CoreId, Cycle, Divisor, LineAddr, PackedBits, TraceEvent, TraceSink};

use crate::Eviction;

/// Bytes streamed per TAD access: 64 B data + 8 B tag, padded to the
/// burst-of-five (80 B) transfer the paper uses for co-located metadata.
pub const TAD_BYTES: u32 = 80;

/// Direct-mapped tag directory of an Alloy cache.
///
/// One entry ("set") per stacked-DRAM data line. Mapping is
/// `set = line % sets`, `tag = line / sets`, mirroring the congruence-group
/// mapping CAMEO itself uses, which makes Alloy-vs-CAMEO comparisons
/// apples-to-apples.
///
/// Each set is a [`PackedBits`] field holding `tag + 1` above a dirty bit,
/// 0 when empty, exactly as wide as the largest tag of the line space the
/// directory fronts needs: 3 bits per set when that space is three times
/// the cache, as on the paper's 1:3 machine.
///
/// # Examples
///
/// ```
/// use cameo_cachesim::alloy::AlloyDirectory;
/// use cameo_types::LineAddr;
///
/// let mut dir = AlloyDirectory::new(1024, 7 * 1024);
/// let line = LineAddr::new(5000);
/// assert!(!dir.probe(line)); // cold
/// dir.fill(line, false);
/// assert!(dir.probe(line));
/// ```
#[derive(Clone, Debug)]
pub struct AlloyDirectory {
    /// The set count, preprocessed for exact division: MemCache's cache
    /// regions are rarely a power of two.
    sets: Divisor,
    /// Size of the line space the directory fronts: a fill of a line at or
    /// past it is rejected, so every stored tag fits its field.
    lines: u64,
    /// One packed TAD per set: 0 when empty, otherwise `tag + 1` shifted
    /// above [`DIRTY`]. The zeroed store is an empty directory, so pages
    /// no fill has reached are never touched.
    tads: PackedBits,
}

/// Dirty flag of a packed TAD, below `tag + 1`.
const DIRTY: u32 = 1;

/// Widest `tag + 1` a set can hold: the store's 32-bit fields less the
/// dirty bit.
const MAX_KEY_BITS: u32 = 31;

impl AlloyDirectory {
    /// Creates an empty directory with `sets` entries (one per stacked data
    /// line) in front of a space of `lines` lines: off-chip memory for
    /// Alloy, stacked plus off-chip for DoubleUse, the off-chip region for
    /// MemCache's cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `lines` is zero, or if a tag of the space does
    /// not fit 31 bits (the space spans 2^31 − 1 times the cache or more).
    pub fn new(sets: u64, lines: u64) -> Self {
        assert!(sets > 0, "alloy cache must have at least one set");
        assert!(lines > 0, "alloy cache must front at least one line");
        let max_key = (lines - 1) / sets + 1;
        let key_bits = u64::BITS - max_key.leading_zeros();
        assert!(
            key_bits <= MAX_KEY_BITS,
            "alloy tag {} overflows the packed directory: memory must span fewer \
             than 2^31 - 1 times the {sets} cached lines",
            max_key - 1,
        );
        Self {
            sets: Divisor::new(sets),
            lines,
            tads: PackedBits::new(sets, key_bits + 1),
        }
    }

    /// Number of sets (stacked data lines).
    #[inline]
    pub fn sets(&self) -> u64 {
        self.sets.get()
    }

    /// Set index a line maps to — the stacked-DRAM location of its TAD.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> u64 {
        self.sets.remainder(line.raw())
    }

    /// The set `line` maps to and the `tag + 1` it would hold there. A line
    /// outside the space gets a key no set holds.
    #[inline]
    fn locate(&self, line: LineAddr) -> (u64, u64) {
        let (tag, set) = self.sets.div_rem(line.raw());
        (set, tag + 1)
    }

    /// `tag + 1` held by `tad` (0 for an empty set).
    #[inline]
    fn key_of(tad: u32) -> u64 {
        u64::from(tad >> 1)
    }

    /// Returns whether `line` is currently resident (does not modify state).
    pub fn probe(&self, line: LineAddr) -> bool {
        let (set, key) = self.locate(line);
        Self::key_of(self.tads.get(set)) == key
    }

    /// Marks a resident line dirty; returns `false` if the line is absent.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let (set, key) = self.locate(line);
        let tad = self.tads.get(set);
        let resident = Self::key_of(tad) == key;
        if resident {
            self.tads.set(set, tad | DIRTY);
        }
        resident
    }

    /// Installs `line`, returning the displaced victim (direct-mapped, so at
    /// most one) for writeback handling.
    ///
    /// # Panics
    ///
    /// Panics if `line` is outside the line space the directory was built
    /// to front.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction> {
        assert!(
            line.raw() < self.lines,
            "alloy fill of line {line} outside the {}-line space the directory fronts",
            self.lines
        );
        let (set, key) = self.locate(line);
        let old = self.tads.get(set);
        // The assert above bounds the key by the field width.
        self.tads
            .set(set, ((key as u32) << 1) | if dirty { DIRTY } else { 0 });
        let old_key = Self::key_of(old);
        // An empty set has no victim, and re-filling the same line is not
        // an eviction.
        (old_key != 0 && old_key != key).then(|| Eviction {
            line: LineAddr::new((old_key - 1) * self.sets() + set),
            dirty: old & DIRTY != 0,
        })
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        (0..self.sets())
            .filter(|&set| self.tads.get(set) != 0)
            .count()
    }

    /// Drops `line` from the cache if resident (e.g. because its physical
    /// frame was recycled by the OS), returning whether it was dirty. No
    /// writeback is implied — callers decide what the dirtiness means.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, key) = self.locate(line);
        let tad = self.tads.get(set);
        (Self::key_of(tad) == key).then(|| {
            self.tads.set(set, 0);
            tad & DIRTY != 0
        })
    }
}

/// Route chosen by the hit predictor for an incoming request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredictedRoute {
    /// Probe the DRAM cache first (serial).
    Cache,
    /// Launch the off-chip access in parallel with the probe.
    Memory,
}

/// MAP-I style hit predictor: per-core tables of 3-bit saturating counters
/// indexed by a hash of the missing instruction's PC.
///
/// Counter value at or above the midpoint predicts a cache *hit* (route
/// [`PredictedRoute::Cache`]); below it predicts a miss and the memory is
/// accessed in parallel.
///
/// # Examples
///
/// ```
/// use cameo_cachesim::alloy::{HitPredictor, PredictedRoute};
/// use cameo_types::CoreId;
///
/// let mut p = HitPredictor::new(4, 256);
/// let core = CoreId(0);
/// for _ in 0..4 {
///     p.train(core, 0x400100, false); // repeated misses
/// }
/// assert_eq!(p.predict(core, 0x400100), PredictedRoute::Memory);
/// ```
#[derive(Clone, Debug)]
pub struct HitPredictor {
    entries_per_core: usize,
    /// 3-bit saturating counters, one table per core, flattened.
    counters: Vec<u8>,
}

const COUNTER_MAX: u8 = 7;
const COUNTER_INIT: u8 = 4; // weakly predict hit: serial probe is the safe default

impl HitPredictor {
    /// Creates per-core predictor tables.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `entries_per_core` is zero, or if
    /// `entries_per_core` is not a power of two (the index is a mask).
    pub fn new(cores: u16, entries_per_core: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            entries_per_core.is_power_of_two(),
            "table size must be a power of two"
        );
        Self {
            entries_per_core,
            counters: vec![COUNTER_INIT; usize::from(cores) * entries_per_core],
        }
    }

    fn index(&self, core: CoreId, pc: u64) -> usize {
        let slot = (pc >> 2) as usize & (self.entries_per_core - 1);
        usize::from(core.0) * self.entries_per_core + slot
    }

    /// Predicts the route for a request from `core` at instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the configured core count.
    pub fn predict(&self, core: CoreId, pc: u64) -> PredictedRoute {
        if self.counters[self.index(core, pc)] >= 4 {
            PredictedRoute::Cache
        } else {
            PredictedRoute::Memory
        }
    }

    /// Trains the predictor with the observed outcome.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the configured core count.
    pub fn train(&mut self, core: CoreId, pc: u64, was_hit: bool) {
        let idx = self.index(core, pc);
        let c = &mut self.counters[idx];
        if was_hit {
            *c = (*c + 1).min(COUNTER_MAX);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Storage cost in bits (3 bits per counter), for overhead reporting.
    pub fn storage_bits(&self) -> usize {
        self.counters.len() * 3
    }

    /// Trains the predictor like [`HitPredictor::train`] and, with tracing
    /// armed, emits an [`TraceEvent::LlpPredict`] event recording whether
    /// the pre-training prediction routed this request correctly (a
    /// predicted-hit that hit, or a predicted-miss that missed).
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the configured core count.
    pub fn train_traced<S: TraceSink>(
        &mut self,
        core: CoreId,
        pc: u64,
        was_hit: bool,
        now: Cycle,
        sink: &mut S,
    ) {
        if S::ENABLED {
            let predicted_hit = self.predict(core, pc) == PredictedRoute::Cache;
            sink.emit(
                now,
                TraceEvent::LlpPredict {
                    correct: predicted_hit == was_hit,
                },
            );
        }
        self.train(core, pc, was_hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflicts() {
        let mut dir = AlloyDirectory::new(8, 64);
        let a = LineAddr::new(3);
        let b = LineAddr::new(11); // same set 3
        dir.fill(a, true);
        let evicted = dir.fill(b, false).expect("conflict eviction");
        assert_eq!(evicted.line, a);
        assert!(evicted.dirty);
        assert!(dir.probe(b));
        assert!(!dir.probe(a));
    }

    #[test]
    fn refill_same_line_is_not_eviction() {
        let mut dir = AlloyDirectory::new(8, 64);
        let a = LineAddr::new(3);
        dir.fill(a, false);
        assert_eq!(dir.fill(a, true), None);
    }

    #[test]
    fn mark_dirty_only_when_resident() {
        let mut dir = AlloyDirectory::new(8, 64);
        let a = LineAddr::new(5);
        assert!(!dir.mark_dirty(a));
        dir.fill(a, false);
        assert!(dir.mark_dirty(a));
        let evicted = dir.fill(LineAddr::new(13), false).expect("eviction");
        assert!(evicted.dirty);
    }

    /// The retired directory: one `Option<Tad>` per set.
    struct ModelDirectory {
        sets: u64,
        entries: Vec<Option<(u64, bool)>>,
    }

    impl ModelDirectory {
        fn probe(&self, line: u64) -> bool {
            self.entries[(line % self.sets) as usize]
                .is_some_and(|(tag, _)| tag == line / self.sets)
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            match &mut self.entries[(line % self.sets) as usize] {
                Some((tag, dirty)) if *tag == line / self.sets => {
                    *dirty = true;
                    true
                }
                _ => false,
            }
        }

        fn fill(&mut self, line: u64, dirty: bool) -> Option<Eviction> {
            let set = line % self.sets;
            let victim = self.entries[set as usize].map(|(tag, dirty)| Eviction {
                line: LineAddr::new(tag * self.sets + set),
                dirty,
            });
            self.entries[set as usize] = Some((line / self.sets, dirty));
            victim.filter(|v| v.line.raw() != line)
        }

        fn invalidate(&mut self, line: u64) -> Option<bool> {
            let set = (line % self.sets) as usize;
            match self.entries[set] {
                Some((tag, dirty)) if tag == line / self.sets => {
                    self.entries[set] = None;
                    Some(dirty)
                }
                _ => None,
            }
        }
    }

    /// The packed directory agrees with the `Option` model over line
    /// spaces whose largest `tag + 1` needs every width from 1 to 31 bits,
    /// and its sets are exactly that width plus the dirty bit.
    #[test]
    fn packed_directory_matches_the_option_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for key_bits in 1..=MAX_KEY_BITS {
            for sets in [1u64, 2, 3, 7, 64, 1000] {
                // The largest key with `key_bits` bits, reached by a space
                // that ends anywhere inside its last tag's span of sets.
                let max_key = (1u64 << key_bits) - 1;
                let lines = (max_key - 1) * sets + rng.gen_range(1..=sets);
                let mut dir = AlloyDirectory::new(sets, lines);
                assert_eq!(dir.tads.bits(), key_bits + 1, "{lines} lines / {sets} sets");
                let mut model = ModelDirectory {
                    sets,
                    entries: vec![None; sets as usize],
                };
                // Lines from a span of a few tags per set, so hits, conflicts
                // and re-fills are all common; plus the space's last lines.
                let low = lines.min(sets * 4);
                let high = lines - lines.min(sets * 2);
                for _ in 0..4_000 {
                    let line = if rng.gen_range(0..8u32) == 0 {
                        rng.gen_range(high..lines)
                    } else {
                        rng.gen_range(0..low)
                    };
                    let addr = LineAddr::new(line);
                    match rng.gen_range(0..4u32) {
                        0 => assert_eq!(dir.probe(addr), model.probe(line), "probe {line}"),
                        1 => {
                            let (got, want) = (dir.mark_dirty(addr), model.mark_dirty(line));
                            assert_eq!(got, want, "mark {line}");
                        }
                        2 => {
                            let dirty = rng.gen_bool(0.5);
                            assert_eq!(
                                dir.fill(addr, dirty),
                                model.fill(line, dirty),
                                "fill {line}"
                            );
                        }
                        _ => {
                            let (got, want) = (dir.invalidate(addr), model.invalidate(line));
                            assert_eq!(got, want, "drop {line}");
                        }
                    }
                }
                assert_eq!(dir.occupancy(), model.entries.iter().flatten().count());
                // A line past the space is never resident.
                assert!(!dir.probe(LineAddr::new(lines + sets * 4)));
            }
        }
    }

    /// The paper's 1:3 machine at scale 1/128: 512 Ki sets over an
    /// off-chip space three times as large need tags 0..=2, so 2 bits of
    /// `tag + 1` and a dirty bit, 192 KiB where a `u32` per set took 2 MiB.
    #[test]
    fn paper_ratio_takes_three_bits_per_set() {
        let sets = 512 * 1024;
        let dir = AlloyDirectory::new(sets, 3 * sets);
        assert_eq!(dir.tads.bits(), 3);
        assert_eq!(dir.tads.host_bytes(), 192 * 1024 + 8);
        // DoubleUse fronts stacked + off-chip: tags 0..=3 need one bit more.
        assert_eq!(AlloyDirectory::new(sets, 4 * sets).tads.bits(), 4);
    }

    #[test]
    #[should_panic(expected = "outside the 32-line space")]
    fn line_outside_the_space_rejected() {
        let mut dir = AlloyDirectory::new(4, 32);
        dir.fill(LineAddr::new(32), false);
    }

    /// A space whose last tag is 2^31 − 1, one more than the widest,
    /// overflows at construction, before any fill.
    #[test]
    #[should_panic(expected = "overflows the packed directory")]
    fn oversized_tag_rejected() {
        AlloyDirectory::new(4, ((1u64 << MAX_KEY_BITS) - 1) * 4 + 1);
    }

    #[test]
    fn occupancy() {
        let mut dir = AlloyDirectory::new(4, 16);
        assert_eq!(dir.occupancy(), 0);
        dir.fill(LineAddr::new(0), false);
        dir.fill(LineAddr::new(1), false);
        dir.fill(LineAddr::new(4), false); // evicts line 0
        assert_eq!(dir.occupancy(), 2);
    }

    #[test]
    fn predictor_learns_miss_streams() {
        let mut p = HitPredictor::new(2, 64);
        let core = CoreId(1);
        assert_eq!(p.predict(core, 0x1000), PredictedRoute::Cache); // default
        for _ in 0..8 {
            p.train(core, 0x1000, false);
        }
        assert_eq!(p.predict(core, 0x1000), PredictedRoute::Memory);
        for _ in 0..8 {
            p.train(core, 0x1000, true);
        }
        assert_eq!(p.predict(core, 0x1000), PredictedRoute::Cache);
    }

    #[test]
    fn predictor_tables_are_per_core() {
        let mut p = HitPredictor::new(2, 64);
        for _ in 0..8 {
            p.train(CoreId(0), 0x1000, false);
        }
        assert_eq!(p.predict(CoreId(0), 0x1000), PredictedRoute::Memory);
        assert_eq!(p.predict(CoreId(1), 0x1000), PredictedRoute::Cache);
    }

    #[test]
    fn storage_overhead_is_small() {
        let p = HitPredictor::new(8, 256);
        // 8 cores x 256 entries x 3 bits = 768 bytes.
        assert_eq!(p.storage_bits(), 8 * 256 * 3);
        assert!(p.storage_bits() / 8 < 1024);
    }

    #[test]
    fn traced_training_scores_the_pre_training_route() {
        use cameo_types::{NopSink, VecSink};
        let mut p = HitPredictor::new(1, 64);
        let mut sink = VecSink::default();
        // Default weakly predicts hit: a hit outcome is correct, a miss is not.
        p.train_traced(CoreId(0), 0x2000, true, Cycle::new(5), &mut sink);
        for _ in 0..8 {
            p.train(CoreId(0), 0x2000, false);
        }
        p.train_traced(CoreId(0), 0x2000, false, Cycle::new(9), &mut sink);
        assert_eq!(
            sink.events,
            vec![
                (Cycle::new(5), TraceEvent::LlpPredict { correct: true }),
                (Cycle::new(9), TraceEvent::LlpPredict { correct: true }),
            ]
        );
        // The no-op sink path trains identically.
        let mut q = HitPredictor::new(1, 64);
        q.train_traced(CoreId(0), 0x2000, true, Cycle::new(5), &mut NopSink);
        assert_eq!(q.predict(CoreId(0), 0x2000), PredictedRoute::Cache);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_table_rejected() {
        HitPredictor::new(1, 100);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn empty_directory_rejected() {
        AlloyDirectory::new(0, 16);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn empty_line_space_rejected() {
        AlloyDirectory::new(4, 0);
    }
}
