//! The trace generator: turns a [`BenchSpec`]'s locality model into a
//! deterministic post-L3 miss stream.

use cameo_types::{LineAddr, LINES_PER_PAGE};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::suite::BenchSpec;

/// Configuration of one generator instance (one core's copy in rate mode).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceConfig {
    /// Capacity scale factor shared with the memory configuration (the
    /// footprint is divided by it).
    pub scale: u64,
    /// RNG seed; distinct per core for distinct-but-statistically-identical
    /// rate-mode copies.
    pub seed: u64,
    /// Virtual-page offset of this copy, so rate-mode copies occupy
    /// disjoint address ranges (the paper's virtual-to-physical mapping
    /// "ensures that multiple benchmarks do not map to the same physical
    /// address").
    pub core_offset_pages: u64,
}

/// One L3 miss: how many instructions retired since the previous miss, and
/// the (virtual) access itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MissEvent {
    /// Instructions executed since the previous miss on the same core.
    pub gap_instructions: u64,
    /// Virtual line address.
    pub line: LineAddr,
    /// Instruction address that caused the miss.
    pub pc: u64,
    /// Whether this is a write (dirty writeback / store miss).
    pub is_write: bool,
}

/// Events drawn per [`TraceGenerator::refill`].
const BLOCK: usize = 16;

/// Deterministic synthetic miss-stream generator for one benchmark copy.
///
/// See the crate docs for the modeled properties. Streams, hot-set reuse
/// and uniform cold accesses are mixed according to the benchmark's
/// [`Behavior`](crate::Behavior).
///
/// Events are drawn 16 at a time into a ring that
/// [`TraceGenerator::next_event`] pops; the stream is exactly the one a
/// generator drawing each event on demand produces.
///
/// # Examples
///
/// ```
/// use cameo_workloads::{by_name, TraceConfig, TraceGenerator};
///
/// let spec = by_name("libquantum").unwrap();
/// let mut gen = TraceGenerator::new(spec, TraceConfig { scale: 64, seed: 9, core_offset_pages: 0 });
/// let events: Vec<_> = (0..100).map(|_| gen.next_event()).collect();
/// assert!(events.iter().all(|e| e.gap_instructions >= 1));
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    spec: BenchSpec,
    cfg: TraceConfig,
    rng: SmallRng,
    /// Scaled footprint in pages (at least one).
    pages: u64,
    hot_pages: u64,
    /// Lines used per page (spatial density), at least one.
    used_lines: u64,
    mean_gap: f64,
    /// The behavior's stream, hot-access and write probabilities as
    /// [`threshold`]s.
    stream_threshold: u64,
    hot_threshold: u64,
    write_threshold: u64,
    // Sequential-stream state.
    stream_page: u64,
    stream_line: u64,
    stream_remaining: u64,
    stream_pc: u64,
    // Cold-walk state: a pointer-walker dwells on a page for several
    // misses (its spatial locality) before moving to the next one, walking
    // the page's used lines in order.
    cold_page: u64,
    cold_remaining: u64,
    cold_pc: u64,
    cold_line: u64,
    // Hot-set dwell state.
    hot_page: u64,
    /// `window_start(hot_page)`.
    hot_window: u64,
    hot_remaining: u64,
    hot_pc: u64,
    /// Drawn events; `block[next..]` are still to be popped.
    block: [MissEvent; BLOCK],
    next: usize,
    // Running counters for calibration checks, advanced at pop time.
    instructions: u64,
    misses: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.scale` is zero or if `spec` is invalid (see
    /// [`BenchSpec::validate`]).
    pub fn new(spec: BenchSpec, cfg: TraceConfig) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid benchmark spec: {e}");
        }
        let pages = spec.scaled_footprint(cfg.scale).pages().max(1);
        let hot_pages = ((pages as f64 * spec.behavior.hot_fraction) as u64).max(1);
        let used_lines =
            ((LINES_PER_PAGE as f64 * spec.behavior.page_density).round() as u64).clamp(1, 64);
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xCA3E0_CA3E0);
        let stream_page = rng.gen_range(0..pages);
        Self {
            spec,
            cfg,
            rng,
            pages,
            hot_pages,
            used_lines,
            mean_gap: 1000.0 / spec.mpki,
            stream_threshold: threshold(spec.behavior.stream_prob),
            hot_threshold: threshold(spec.behavior.hot_access_prob),
            write_threshold: threshold(spec.behavior.write_fraction),
            stream_page,
            stream_line: 0,
            stream_remaining: 0,
            stream_pc: 0,
            cold_page: 0,
            cold_remaining: 0,
            cold_pc: 0,
            cold_line: 0,
            hot_page: 0,
            hot_window: 0,
            hot_remaining: 0,
            hot_pc: 0,
            block: [MissEvent {
                gap_instructions: 0,
                line: LineAddr::new(0),
                pc: 0,
                is_write: false,
            }; BLOCK],
            next: BLOCK,
            instructions: 0,
            misses: 0,
        }
    }

    /// The benchmark this generator models.
    #[inline]
    pub fn spec(&self) -> &BenchSpec {
        &self.spec
    }

    /// Scaled footprint in pages.
    #[inline]
    pub fn footprint_pages(&self) -> u64 {
        self.pages
    }

    /// Virtual-page offset of this copy (rate-mode address partitioning).
    #[inline]
    pub fn offset_pages(&self) -> u64 {
        self.cfg.core_offset_pages
    }

    /// Running MPKI of the generated stream (sanity check against Table
    /// II); `None` before the first event.
    pub fn observed_mpki(&self) -> Option<f64> {
        (self.instructions > 0).then(|| self.misses as f64 * 1000.0 / self.instructions as f64)
    }

    /// Pops the next miss event, drawing a new block when the ring is empty.
    #[inline]
    pub fn next_event(&mut self) -> MissEvent {
        let i = if self.next < BLOCK {
            self.next
        } else {
            self.refill();
            0
        };
        let event = self.block[i];
        self.next = i + 1;
        self.instructions += event.gap_instructions;
        self.misses += 1;
        event
    }

    /// Draws the next [`BLOCK`] events in stream order, then computes
    /// their gaps in a second pass so the `ln` calls run back to back.
    ///
    /// Each event's first draw is its gap's uniform and the gap feeds
    /// nothing else in the event, so the RNG stream is consumed exactly as
    /// when every event is drawn whole, one at a time.
    #[inline(never)]
    fn refill(&mut self) {
        let mut uniforms = [0.0f64; BLOCK];
        for (i, u) in uniforms.iter_mut().enumerate() {
            *u = self.rng.gen_range(f64::EPSILON..1.0);
            self.block[i] = self.draw_access();
        }
        let mean_gap = self.mean_gap;
        for (event, u) in self.block.iter_mut().zip(uniforms) {
            event.gap_instructions = gap_of(mean_gap, u);
        }
        self.next = 0;
    }

    /// Draws an event's access, everything after its gap's uniform; the
    /// gap is left zero.
    fn draw_access(&mut self) -> MissEvent {
        let (page, line_in_page, pc) = if chance(&mut self.rng, self.stream_threshold) {
            self.next_stream()
        } else if chance(&mut self.rng, self.hot_threshold) {
            self.next_hot()
        } else {
            self.next_cold()
        };
        let is_write = chance(&mut self.rng, self.write_threshold);
        let line = LineAddr::new(
            (self.cfg.core_offset_pages + page) * LINES_PER_PAGE as u64 + line_in_page,
        );
        MissEvent {
            gap_instructions: 0,
            line,
            pc,
            is_write,
        }
    }

    fn pc_of(&self, pool_slot: usize) -> u64 {
        // Synthetic code region: 4-byte spaced "instructions".
        0x0040_0000 + (pool_slot as u64 % self.spec.behavior.pc_pool as u64) * 4
    }

    fn next_stream(&mut self) -> (u64, u64, u64) {
        if self.stream_remaining == 0 {
            // Start a new stream at a random page with a fresh loop PC.
            self.stream_page = self.rng.gen_range(0..self.pages);
            self.stream_line = 0;
            self.stream_remaining = self.rng.gen_range(64..512);
            let slot = self.rng.gen_range(0..4.min(self.spec.behavior.pc_pool));
            self.stream_pc = self.pc_of(slot);
        }
        self.stream_remaining -= 1;
        let out = (self.stream_page, self.stream_line, self.stream_pc);
        self.stream_line += 1;
        if self.stream_line >= LINES_PER_PAGE as u64 {
            self.stream_line = 0;
            self.stream_page = (self.stream_page + 1) % self.pages;
        }
        out
    }

    /// Slot ranges inside the PC pool: streams use the first few slots;
    /// hot-set loops and cold walkers split the remainder. Keeping them
    /// disjoint mirrors real programs, where the instructions that traverse
    /// a resident working set are not the ones paging through cold data —
    /// the separation is what makes PC-indexed last-location prediction
    /// effective (paper Section V-B).
    fn hot_pc_slot(&self, page: u64) -> usize {
        let span = ((self.spec.behavior.pc_pool.saturating_sub(4)) / 2).max(1);
        4 + (page % span as u64) as usize
    }

    fn cold_pc_slot(&self, page: u64) -> usize {
        let span = ((self.spec.behavior.pc_pool.saturating_sub(4)) / 2).max(1);
        4 + span + (page % span as u64) as usize
    }

    /// A skewed pick within the hot set: quadratic rank skew concentrates
    /// accesses on the hottest pages without a full Zipf sampler; short
    /// dwells model loop iterations touching a few lines of a page.
    fn next_hot(&mut self) -> (u64, u64, u64) {
        if self.hot_remaining == 0 {
            let u: f64 = self.rng.gen();
            self.hot_page = ((u * u) * self.hot_pages as f64) as u64 % self.hot_pages;
            self.hot_remaining = self.rng.gen_range(1..=4);
            self.hot_pc = self.pc_of(self.hot_pc_slot(self.hot_page));
            self.hot_window = self.window_start(self.hot_page);
        }
        self.hot_remaining -= 1;
        // A line within the page's used-lines window (partial page usage).
        let line = self.hot_window + self.rng.gen_range(0..self.used_lines);
        (self.hot_page, line, self.hot_pc)
    }

    /// A cold walker: picks a page uniformly over the footprint and dwells
    /// on it for several misses — a walker has spatial locality within a
    /// page even when the page itself is cold — before moving on. Lines
    /// are visited in order from the page's used-window start, so repeated
    /// visits re-walk the same prefix (the way real traversals re-walk the
    /// same fields of a record).
    fn next_cold(&mut self) -> (u64, u64, u64) {
        if self.cold_remaining == 0 {
            self.cold_page = self.rng.gen_range(0..self.pages);
            self.cold_remaining = self.rng.gen_range(2..=self.used_lines.max(2));
            self.cold_pc = self.pc_of(self.cold_pc_slot(self.cold_page));
            self.cold_line = self.window_start(self.cold_page);
        }
        self.cold_remaining -= 1;
        let line = self.cold_line.min(63);
        self.cold_line += 1;
        (self.cold_page, line, self.cold_pc)
    }

    /// Start of the page's deterministic used-lines window (partial page
    /// usage: only `used_lines` of the 64 lines are ever touched).
    fn window_start(&self, page: u64) -> u64 {
        let window = LINES_PER_PAGE as u64 - self.used_lines;
        if window == 0 {
            0
        } else {
            (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % (window + 1)
        }
    }
}

/// Geometric inter-miss gap with mean `mean_gap` from the uniform
/// `u ∈ [ε, 1)`.
#[inline]
fn gap_of(mean_gap: f64, u: f64) -> u64 {
    ((-mean_gap * u.ln()) as u64).max(1)
}

/// The largest gap a generator at `mpki` can draw: the one at `u = ε`,
/// `(1000 / mpki) · ln(1/ε)` (saturating at `u64::MAX`).
pub(crate) fn largest_gap(mpki: f64) -> u64 {
    gap_of(1000.0 / mpki, f64::EPSILON)
}

/// The integer form of `gen_bool(p)`: the vendored `rand` draws
/// `k = next_u64() >> 11` and returns `k·2⁻⁵³ < p`. For an integer `k`
/// that holds exactly when `k < ⌈p·2⁵³⌉`, and `p·2⁵³` is exact in `f64`
/// (a power-of-two scale), so `k < threshold(p)` is the same decision.
/// `p` is a knob [`Behavior::validate`](crate::Behavior::validate)
/// checked to lie in `[0, 1]`, as `gen_bool` asserts.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// `rng.gen_bool(p)` for the `p` whose [`threshold`] is `threshold`: the
/// same draw from the stream, compared in integers.
#[inline]
fn chance(rng: &mut SmallRng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::by_name;
    use std::collections::HashSet;

    fn generator(name: &str) -> TraceGenerator {
        generator_for(by_name(name).unwrap())
    }

    fn generator_for(spec: BenchSpec) -> TraceGenerator {
        TraceGenerator::new(
            spec,
            TraceConfig {
                scale: 64,
                seed: 7,
                core_offset_pages: 0,
            },
        )
    }

    #[test]
    fn threshold_draws_equal_gen_bool() {
        let mut ps = vec![0.0, 1.0, 0.5, 0.1, 0.3, 1e-300, 1.0 - f64::EPSILON, 0.25];
        ps.extend(crate::suite().iter().flat_map(|s| {
            let b = s.behavior;
            [b.stream_prob, b.hot_access_prob, b.write_fraction]
        }));
        for (i, p) in ps.into_iter().enumerate() {
            let t = threshold(p);
            let mut a = SmallRng::seed_from_u64(i as u64);
            let mut b = a.clone();
            for _ in 0..20_000 {
                assert_eq!(chance(&mut a, t), b.gen_bool(p), "p = {p}");
            }
            // At the boundary: the largest draw below the threshold is a
            // hit and the threshold itself is a miss.
            let unit = 1.0 / (1u64 << 53) as f64;
            if t > 0 {
                assert!(((t - 1) as f64) * unit < p, "p = {p}");
            }
            if t < 1 << 53 {
                assert!((t as f64) * unit >= p, "p = {p}");
            }
        }
    }

    /// The retired draw-per-call `next_event`: one event's gap uniform,
    /// its access and its write flag, drawn straight from `g`'s RNG and
    /// walker state without touching the ring.
    fn reference_next(g: &mut TraceGenerator) -> MissEvent {
        let u: f64 = g.rng.gen_range(f64::EPSILON..1.0);
        let gap = ((-g.mean_gap * u.ln()) as u64).max(1);
        let (page, line_in_page, pc) = if chance(&mut g.rng, g.stream_threshold) {
            g.next_stream()
        } else if chance(&mut g.rng, g.hot_threshold) {
            g.next_hot()
        } else {
            g.next_cold()
        };
        let is_write = chance(&mut g.rng, g.write_threshold);
        MissEvent {
            gap_instructions: gap,
            line: LineAddr::new(
                (g.cfg.core_offset_pages + page) * LINES_PER_PAGE as u64 + line_in_page,
            ),
            pc,
            is_write,
        }
    }

    #[test]
    fn ring_matches_one_event_at_a_time() {
        for spec in crate::suite() {
            for seed in [7, 42] {
                let cfg = TraceConfig {
                    scale: 64,
                    seed,
                    core_offset_pages: 3,
                };
                let mut ring = TraceGenerator::new(spec, cfg);
                let mut reference = TraceGenerator::new(spec, cfg);
                let (mut instructions, mut misses) = (0u64, 0u64);
                let mut clone = None;
                for i in 0..10_000 {
                    let want = reference_next(&mut reference);
                    assert_eq!(
                        ring.next_event(),
                        want,
                        "{} seed {seed} event {i}",
                        spec.name
                    );
                    instructions += want.gap_instructions;
                    misses += 1;
                    assert_eq!(
                        ring.observed_mpki(),
                        Some(misses as f64 * 1000.0 / instructions as f64),
                        "{} seed {seed} event {i}",
                        spec.name
                    );
                    // Mid-block: 5003 popped events leave 5 of a block queued.
                    if i == 5_002 {
                        clone = Some((ring.clone(), reference.clone()));
                    }
                }
                let (mut ring, mut reference) = clone.expect("cloned mid-run");
                for i in 0..100 {
                    let want = reference_next(&mut reference);
                    assert_eq!(ring.next_event(), want, "{} clone event {i}", spec.name);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid benchmark spec: mpki")]
    fn invalid_spec_rejected() {
        let mut spec = by_name("gcc").unwrap();
        spec.mpki = 0.0;
        generator_for(spec);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = generator("mcf");
        let mut b = generator("mcf");
        for _ in 0..1000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = by_name("mcf").unwrap();
        let mut a = TraceGenerator::new(
            spec,
            TraceConfig {
                scale: 64,
                seed: 1,
                core_offset_pages: 0,
            },
        );
        let mut b = TraceGenerator::new(
            spec,
            TraceConfig {
                scale: 64,
                seed: 2,
                core_offset_pages: 0,
            },
        );
        let ea: Vec<_> = (0..100).map(|_| a.next_event()).collect();
        let eb: Vec<_> = (0..100).map(|_| b.next_event()).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn mpki_matches_table2() {
        for name in ["mcf", "libquantum", "astar", "gcc"] {
            let mut g = generator(name);
            for _ in 0..50_000 {
                g.next_event();
            }
            let target = g.spec().mpki;
            let observed = g.observed_mpki().unwrap();
            let err = (observed - target).abs() / target;
            assert!(err < 0.05, "{name}: observed {observed:.2} vs {target}");
        }
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let mut g = generator("sphinx3");
        let pages = g.footprint_pages();
        for _ in 0..10_000 {
            let e = g.next_event();
            assert!(e.line.page().raw() < pages);
        }
    }

    #[test]
    fn core_offset_separates_copies() {
        let spec = by_name("astar").unwrap();
        let mk = |offset| {
            TraceGenerator::new(
                spec,
                TraceConfig {
                    scale: 64,
                    seed: 3,
                    core_offset_pages: offset,
                },
            )
        };
        let mut a = mk(0);
        let pages = a.footprint_pages();
        let mut b = mk(pages);
        let pa: HashSet<u64> = (0..5000)
            .map(|_| a.next_event().line.page().raw())
            .collect();
        let pb: HashSet<u64> = (0..5000)
            .map(|_| b.next_event().line.page().raw())
            .collect();
        assert!(pa.is_disjoint(&pb));
    }

    #[test]
    fn page_density_respected() {
        // milc must touch few distinct lines per page; libquantum touches
        // essentially all.
        let count_density = |name: &str| {
            let mut g = generator(name);
            let mut lines_by_page: std::collections::HashMap<u64, HashSet<u64>> =
                Default::default();
            for _ in 0..200_000 {
                let e = g.next_event();
                lines_by_page
                    .entry(e.line.page().raw())
                    .or_default()
                    .insert(e.line.offset_in_page() as u64);
            }
            // Average distinct lines among well-touched pages.
            let touched: Vec<_> = lines_by_page
                .values()
                .filter(|s| s.len() > 1)
                .map(|s| s.len() as f64)
                .collect();
            touched.iter().sum::<f64>() / touched.len() as f64
        };
        let milc = count_density("milc");
        let libq = count_density("libquantum");
        assert!(milc < 16.0, "milc density too high: {milc}");
        assert!(libq > 32.0, "libquantum density too low: {libq}");
    }

    #[test]
    fn writes_present_but_minority() {
        let mut g = generator("gcc");
        let writes = (0..10_000).filter(|_| g.next_event().is_write).count();
        assert!(writes > 1000 && writes < 5000, "writes = {writes}");
    }

    #[test]
    fn pcs_come_from_small_pool() {
        let mut g = generator("libquantum");
        let pcs: HashSet<u64> = (0..10_000).map(|_| g.next_event().pc).collect();
        assert!(pcs.len() <= g.spec().behavior.pc_pool);
    }

    #[test]
    fn gap_mean_tracks_mpki() {
        // The geometric inter-miss gap must average ~1000/MPKI.
        let mut g = generator("omnetpp"); // MPKI 20.5
        let n = 100_000;
        let total: u64 = (0..n).map(|_| g.next_event().gap_instructions).sum();
        let mean = total as f64 / f64::from(n);
        let expected = 1000.0 / 20.5;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean gap {mean:.1} vs expected {expected:.1}"
        );
    }

    #[test]
    fn streams_are_sequential() {
        // libquantum is ~95% streaming: consecutive events are mostly
        // line+1 of the previous one.
        let mut g = generator("libquantum");
        let mut sequential = 0;
        let mut prev = g.next_event().line.raw();
        let n = 20_000;
        for _ in 0..n {
            let cur = g.next_event().line.raw();
            if cur == prev + 1 {
                sequential += 1;
            }
            prev = cur;
        }
        assert!(
            f64::from(sequential) / f64::from(n) > 0.8,
            "only {sequential}/{n} sequential"
        );
    }

    #[test]
    fn cold_walk_revisits_same_prefix() {
        // Two dwells on the same cold page start at the same line (the
        // walker re-walks the record's fields), which is what lets
        // last-time location prediction work on cold data. Use a pure-cold
        // behavior so every event comes from the cold walker.
        let mut spec = by_name("mcf").unwrap();
        spec.behavior.stream_prob = 0.0;
        spec.behavior.hot_access_prob = 0.0;
        let mut g = TraceGenerator::new(
            spec,
            TraceConfig {
                scale: 8192,
                seed: 5,
                core_offset_pages: 0,
            },
        );
        let mut first_lines: std::collections::HashMap<u64, u64> = Default::default();
        let mut prefix_repeats = 0;
        let mut revisits = 0;
        let mut prev_page = u64::MAX;
        for _ in 0..100_000 {
            let e = g.next_event();
            let page = e.line.page().raw();
            if page != prev_page {
                match first_lines.entry(page) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(e.line.offset_in_page() as u64);
                    }
                    std::collections::hash_map::Entry::Occupied(o) => {
                        revisits += 1;
                        if *o.get() == e.line.offset_in_page() as u64 {
                            prefix_repeats += 1;
                        }
                    }
                }
            }
            prev_page = page;
        }
        assert!(revisits > 50, "not enough revisits to judge: {revisits}");
        assert!(
            f64::from(prefix_repeats) / f64::from(revisits) > 0.9,
            "{prefix_repeats}/{revisits} prefix repeats"
        );
    }

    #[test]
    fn hot_set_concentrates_accesses() {
        let mut g = generator("astar"); // strong hot set
        let pages = g.footprint_pages();
        let mut counts: std::collections::HashMap<u64, u64> = Default::default();
        for _ in 0..100_000 {
            *counts.entry(g.next_event().line.page().raw()).or_insert(0) += 1;
        }
        // The top 30% of pages must absorb well over half the accesses.
        let mut by_count: Vec<u64> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = by_count.iter().take((pages as usize * 3 / 10).max(1)).sum();
        let total: u64 = by_count.iter().sum();
        assert!(top as f64 / total as f64 > 0.6);
    }
}
