//! The analytic core timing model: fixed base IPC plus memory stalls under
//! bounded memory-level parallelism.

use cameo_types::Cycle;

/// Timeline of one core.
///
/// The core retires instructions at `ipc` until it issues a memory request;
/// up to `mlp` read requests may be outstanding concurrently (modeling the
/// out-of-order window), after which the core stalls until the oldest
/// completes. Writes are posted and never stall the core; page faults stall
/// it completely (the OS runs).
///
/// # Examples
///
/// ```
/// use cameo_sim::CoreTimeline;
/// use cameo_types::Cycle;
///
/// let mut core = CoreTimeline::new(1.0, 2);
/// core.advance(100, core.cycles_for(100));
/// let t = core.issue();
/// assert_eq!(t, Cycle::new(100));
/// core.complete_read(t + Cycle::new(50));
/// ```
#[derive(Clone, Debug)]
pub struct CoreTimeline {
    time: Cycle,
    ipc: f64,
    /// `k` when `ipc == 2^k` for `0 <= k <= 62`, else 0.
    ipc_log2: u32,
    /// Counts below this take [`CoreTimeline::cycles_for`]'s exact shift:
    /// `2^53` when `ipc == 2^ipc_log2`, else 0.
    shift_below: u64,
    /// The MLP window: a ring of exactly `mlp` slots holding the
    /// outstanding reads' completion times, oldest at `head`.
    window: Box<[Cycle]>,
    head: usize,
    /// Outstanding reads, at most `window.len()`.
    len: usize,
    instructions: u64,
    stall_cycles: u64,
}

impl CoreTimeline {
    /// Creates a core at cycle zero.
    ///
    /// # Panics
    ///
    /// Panics unless `ipc` is positive and finite, or if `mlp == 0`.
    pub fn new(ipc: f64, mlp: usize) -> Self {
        assert!(
            ipc > 0.0 && ipc.is_finite(),
            "IPC must be positive and finite"
        );
        assert!(mlp > 0, "MLP must be positive");
        let ipc_log2 = (0..=62).find(|&k| ipc == (1u64 << k) as f64);
        Self {
            time: Cycle::ZERO,
            ipc,
            ipc_log2: ipc_log2.unwrap_or(0),
            shift_below: if ipc_log2.is_some() { 1 << 53 } else { 0 },
            window: vec![Cycle::ZERO; mlp].into_boxed_slice(),
            head: 0,
            len: 0,
            instructions: 0,
            stall_cycles: 0,
        }
    }

    /// Current core time.
    #[inline]
    pub fn time(&self) -> Cycle {
        self.time
    }

    /// Instructions retired so far.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Cycles spent stalled waiting on memory.
    #[inline]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Cycles `instructions` take at the base IPC: `⌈instructions / ipc⌉`,
    /// bit-identical to `(instructions as f64 / ipc).ceil() as u64`.
    ///
    /// At `ipc == 2^k` and `instructions < 2^53`, both the count and its
    /// quotient by `2^k` are exact in `f64`, so the ceiling is the integer
    /// `(instructions + 2^k - 1) >> k`. Otherwise the ceiling is taken on
    /// the float quotient in integers (truncate, then add one if a
    /// fraction was cut), so the SSE2 baseline makes no `ceil` library
    /// call.
    #[inline]
    pub fn cycles_for(&self, instructions: u64) -> u64 {
        if instructions < self.shift_below {
            let k = self.ipc_log2;
            return (instructions + (1 << k) - 1) >> k;
        }
        let q = instructions as f64 / self.ipc;
        // `as` saturates at u64::MAX, where `ceil() as u64` does too.
        let t = q as u64;
        t.saturating_add(u64::from((t as f64) < q))
    }

    /// Retires `instructions`, which take `cycles` at the base IPC (from
    /// [`CoreTimeline::cycles_for`]).
    #[inline]
    pub fn advance(&mut self, instructions: u64, cycles: u64) {
        self.instructions += instructions;
        self.time += Cycle::new(cycles);
    }

    /// Ring index `i` wrapped once: every caller passes `i < 2 * mlp`.
    #[inline]
    fn wrap(&self, i: usize) -> usize {
        let n = self.window.len();
        if i >= n {
            i - n
        } else {
            i
        }
    }

    /// Whether the window is full, and the cycle the next request must
    /// wait for: the oldest read's completion if so, else cycle zero,
    /// which delays nothing. A select, not a branch: the stale slot at
    /// `head` of an open window is read and discarded.
    #[inline]
    fn next_wait(&self) -> (bool, Cycle) {
        let full = self.len == self.window.len();
        let oldest = self.window[self.head];
        (full, if full { oldest } else { Cycle::ZERO })
    }

    /// Predicts when a request following `cycles` more cycles of execution
    /// (from [`CoreTimeline::cycles_for`]) would issue, accounting for an
    /// MLP-window stall — without changing any state. The runner uses this
    /// as its global event-ordering key so that device accesses are
    /// generated in nondecreasing time order.
    #[inline]
    pub fn projected_issue(&self, cycles: u64) -> Cycle {
        (self.time + Cycle::new(cycles)).later(self.next_wait().1)
    }

    /// Returns the cycle at which the next memory request can issue,
    /// stalling the core first if the MLP window is full. A full window
    /// frees its oldest slot, so a completion can always be recorded
    /// after an issue.
    #[inline]
    pub fn issue(&mut self) -> Cycle {
        let (full, wait) = self.next_wait();
        let start = self.time.later(wait);
        self.stall_cycles += (start - self.time).raw();
        self.time = start;
        self.head = self.wrap(self.head + usize::from(full));
        self.len -= usize::from(full);
        start
    }

    /// Records the completion of the request just issued: a read holds a
    /// window slot until `completion`, a write is posted and holds none.
    /// The completion is written into the first free slot either way and
    /// counted only for a read, so neither case branches.
    ///
    /// # Panics
    ///
    /// Panics if the window is full; [`CoreTimeline::issue`] frees a slot.
    #[inline]
    pub(crate) fn complete(&mut self, completion: Cycle, is_read: bool) {
        assert!(self.len < self.window.len(), "MLP window full: issue first");
        let tail = self.wrap(self.head + self.len);
        self.window[tail] = completion;
        self.len += usize::from(is_read);
    }

    /// Records an outstanding demand read completing at `completion`.
    ///
    /// # Panics
    ///
    /// Panics if the window is full; [`CoreTimeline::issue`] frees a slot.
    #[inline]
    pub fn complete_read(&mut self, completion: Cycle) {
        self.complete(completion, true);
    }

    /// Stalls the core completely until `until` (page-fault servicing).
    pub fn block_until(&mut self, until: Cycle) {
        if until > self.time {
            self.stall_cycles += (until - self.time).raw();
            self.time = until;
        }
        // The OS ran; all overlapped requests have long completed.
        self.len = 0;
    }

    /// Drains outstanding requests, returning the cycle the core finally
    /// goes idle. Call at end of simulation.
    pub fn drain(&mut self) -> Cycle {
        for i in 0..self.len {
            self.time = self.time.later(self.window[self.wrap(self.head + i)]);
        }
        self.len = 0;
        self.time
    }

    /// Resets time and counters (used when the measurement region starts
    /// after warmup): the core restarts at cycle zero with an empty window.
    pub fn reset(&mut self) {
        self.time = Cycle::ZERO;
        self.len = 0;
        self.instructions = 0;
        self.stall_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_by_ipc() {
        let mut c = CoreTimeline::new(2.0, 4);
        c.advance(100, c.cycles_for(100));
        assert_eq!(c.time(), Cycle::new(50));
        assert_eq!(c.instructions(), 100);
    }

    #[test]
    fn mlp_window_stalls_when_full() {
        let mut c = CoreTimeline::new(1.0, 2);
        let t0 = c.issue();
        c.complete_read(t0 + Cycle::new(100));
        let t1 = c.issue();
        c.complete_read(t1 + Cycle::new(100));
        // Third issue must wait for the first completion.
        let t2 = c.issue();
        assert_eq!(t2, Cycle::new(100));
        assert_eq!(c.stall_cycles(), 100);
    }

    #[test]
    fn no_stall_when_window_free() {
        let mut c = CoreTimeline::new(1.0, 4);
        c.advance(10, 10);
        let t = c.issue();
        assert_eq!(t, Cycle::new(10));
        assert_eq!(c.stall_cycles(), 0);
    }

    #[test]
    fn block_until_clears_window() {
        let mut c = CoreTimeline::new(1.0, 2);
        c.complete_read(Cycle::new(1_000_000));
        c.block_until(Cycle::new(100_000));
        assert_eq!(c.time(), Cycle::new(100_000));
        // Window cleared: next issue does not wait on the old read.
        assert_eq!(c.issue(), Cycle::new(100_000));
    }

    #[test]
    fn drain_waits_for_laggards() {
        let mut c = CoreTimeline::new(1.0, 4);
        c.complete_read(Cycle::new(500));
        c.complete_read(Cycle::new(300));
        assert_eq!(c.drain(), Cycle::new(500));
    }

    #[test]
    fn projected_issue_matches_actual_issue() {
        let mut c = CoreTimeline::new(2.0, 2);
        // Window empty: projection is time + gap/ipc.
        assert_eq!(c.projected_issue(c.cycles_for(100)), Cycle::new(50));
        // Fill the window with slow completions.
        let t0 = c.issue();
        c.complete_read(t0 + Cycle::new(1000));
        let t1 = c.issue();
        c.complete_read(t1 + Cycle::new(2000));
        // Projection must account for the oldest outstanding read.
        let projected = c.projected_issue(c.cycles_for(10));
        c.advance(10, c.cycles_for(10));
        let actual = c.issue();
        assert_eq!(projected, actual);
        assert_eq!(actual, Cycle::new(1000));
    }

    #[test]
    fn projected_issue_is_pure() {
        let mut c = CoreTimeline::new(1.0, 4);
        c.advance(42, 42);
        let before = c.time();
        let _ = c.projected_issue(7);
        let _ = c.projected_issue(7);
        assert_eq!(c.time(), before);
        assert_eq!(c.instructions(), 42);
    }

    #[test]
    fn cycles_for_matches_float_ceil() {
        let gaps = [
            0u64,
            1,
            2,
            3,
            7,
            48,
            1_000,
            123_456_789,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            (1 << 53) + 3,
            (1 << 60) + 12_345,
            u64::MAX - 1,
            u64::MAX,
        ];
        let ipcs = [
            2.0,
            1.0,
            4.0,
            8.0,
            (1u64 << 40) as f64,
            (1u64 << 62) as f64,
            (1u64 << 63) as f64,
            0.5,
            0.7,
            1.5,
            3.0,
            2.5,
            0.1,
            0.3,
            1e-300,
            1e300,
        ];
        for ipc in ipcs {
            let c = CoreTimeline::new(ipc, 1);
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let random = std::iter::repeat_with(|| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state >> (state % 64)
            });
            for gap in gaps.into_iter().chain(random.take(2_000)) {
                let want = (gap as f64 / ipc).ceil() as u64;
                assert_eq!(c.cycles_for(gap), want, "gap {gap} at ipc {ipc}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_ipc_rejected() {
        CoreTimeline::new(f64::INFINITY, 1);
    }

    #[test]
    #[should_panic(expected = "MLP window full")]
    fn completing_into_a_full_window_panics() {
        let mut c = CoreTimeline::new(1.0, 2);
        c.complete_read(Cycle::new(10));
        c.complete_read(Cycle::new(20));
        c.complete(Cycle::new(30), false);
    }

    /// The `VecDeque` window the ring replaced, kept as the reference the
    /// ring must match step for step.
    struct DequeWindow {
        time: Cycle,
        mlp: usize,
        outstanding: std::collections::VecDeque<Cycle>,
        stall_cycles: u64,
    }

    impl DequeWindow {
        fn new(mlp: usize) -> Self {
            Self {
                time: Cycle::ZERO,
                mlp,
                outstanding: std::collections::VecDeque::new(),
                stall_cycles: 0,
            }
        }

        fn projected_issue(&self, cycles: u64) -> Cycle {
            let t = self.time + Cycle::new(cycles);
            match self.outstanding.front() {
                Some(&oldest) if self.outstanding.len() >= self.mlp => t.later(oldest),
                _ => t,
            }
        }

        fn issue(&mut self) -> Cycle {
            if self.outstanding.len() >= self.mlp {
                if let Some(oldest) = self.outstanding.pop_front() {
                    if oldest > self.time {
                        self.stall_cycles += (oldest - self.time).raw();
                        self.time = oldest;
                    }
                }
            }
            self.time
        }

        fn block_until(&mut self, until: Cycle) {
            if until > self.time {
                self.stall_cycles += (until - self.time).raw();
                self.time = until;
            }
            self.outstanding.clear();
        }

        fn drain(&mut self) -> Cycle {
            while let Some(c) = self.outstanding.pop_front() {
                if c > self.time {
                    self.time = c;
                }
            }
            self.time
        }
    }

    /// Random sequences of every operation at `mlp` 1..=8: the ring keeps
    /// the deque's time, stall cycles and projection after every step.
    /// Completions are recorded only with a slot free, as the runner
    /// records them after an issue.
    #[test]
    fn ring_window_matches_the_deque() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(29);
        for mlp in 1..=8 {
            let mut ring = CoreTimeline::new(1.0, mlp);
            let mut deque = DequeWindow::new(mlp);
            for _ in 0..20_000 {
                match rng.gen_range(0..100u32) {
                    0..=24 => {
                        let cycles = rng.gen_range(0..60);
                        ring.advance(cycles, cycles);
                        deque.time += Cycle::new(cycles);
                    }
                    25..=49 => assert_eq!(ring.issue(), deque.issue()),
                    50..=84 if deque.outstanding.len() < mlp => {
                        // Completions may land before the current time.
                        let completion = (deque.time + Cycle::new(rng.gen_range(0..500)))
                            .saturating_sub(Cycle::new(100));
                        let is_read = rng.gen_bool(0.7);
                        if rng.gen_bool(0.5) && is_read {
                            ring.complete_read(completion);
                        } else {
                            ring.complete(completion, is_read);
                        }
                        if is_read {
                            deque.outstanding.push_back(completion);
                        }
                    }
                    85..=90 => {
                        let until = deque.time + Cycle::new(rng.gen_range(0..300));
                        let until = until.saturating_sub(Cycle::new(150));
                        ring.block_until(until);
                        deque.block_until(until);
                    }
                    91..=95 => assert_eq!(ring.drain(), deque.drain()),
                    96..=97 => {
                        ring.reset();
                        deque = DequeWindow::new(mlp);
                    }
                    _ => {}
                }
                assert_eq!(ring.time(), deque.time);
                assert_eq!(ring.stall_cycles(), deque.stall_cycles);
                let cycles = rng.gen_range(0..200);
                assert_eq!(ring.projected_issue(cycles), deque.projected_issue(cycles));
            }
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = CoreTimeline::new(1.0, 2);
        c.advance(100, 100);
        c.complete_read(Cycle::new(1000));
        c.reset();
        assert_eq!(c.time(), Cycle::ZERO);
        assert_eq!(c.instructions(), 0);
        assert_eq!(c.issue(), Cycle::ZERO);
    }
}
