//! The scoped-thread worker pool behind parallel sweeps.
//!
//! This is the one module in the workspace that creates threads (enforced
//! by the `thread-spawn` xtask lint), and it only ever creates *scoped*
//! threads: workers borrow the sweep's points, options and builder
//! directly, and [`std::thread::scope`] guarantees they are joined before
//! the sweep returns — no detached thread can outlive the data it
//! borrows or leak past a sweep.
//!
//! Work distribution is a single shared atomic cursor over `0..count`:
//! each worker claims the next index with `fetch_add` and runs that task
//! to completion, until the range is exhausted or the pool is cancelled.
//! Dynamic claiming keeps every worker busy while unclaimed tasks remain,
//! however uneven their runtimes; a worker that finds the range exhausted
//! exits, so at most `jobs` tasks are ever in flight.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Cooperative cancellation flag shared by the pool and its tasks.
///
/// A task that hits a pool-fatal condition (e.g. the sweep's checkpoint
/// file stops accepting writes) calls [`Cancel::cancel`]; workers finish
/// their in-flight task and stop claiming new ones.
#[derive(Debug, Default)]
pub(crate) struct Cancel {
    flag: AtomicBool,
}

impl Cancel {
    /// Requests that the pool stop claiming new tasks.
    pub(crate) fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Runs `task(0..count)` across at most `jobs` scoped worker threads and
/// returns once every claimed task has finished. Each index is claimed
/// exactly once; after [`Cancel::cancel`], unclaimed indices are skipped.
///
/// With `jobs <= 1` (or a single task) the tasks run inline on the
/// calling thread, in index order — byte-for-byte the serial code path,
/// no threads.
pub(crate) fn for_each<F>(jobs: usize, count: usize, task: F)
where
    F: Fn(usize, &Cancel) + Sync,
{
    let cancel = Cancel::default();
    let next = AtomicUsize::new(0);
    // The claim itself is the whole protocol: `fetch_add` hands out each
    // index once, task results flow through the caller's own cells, and
    // the scope join publishes them.
    let claim = || {
        if cancel.is_cancelled() {
            return None;
        }
        let n = next.fetch_add(1, Ordering::Relaxed);
        (n < count).then_some(n)
    };
    let workers = jobs.min(count);
    if workers <= 1 {
        while let Some(n) = claim() {
            task(n, &cancel);
        }
        return;
    }
    std::thread::scope(|scope| {
        for w in 0..workers {
            let claim = &claim;
            let cancel = &cancel;
            let task = &task;
            std::thread::Builder::new()
                .name(format!("cameo-sweep-{w}"))
                .spawn_scoped(scope, move || {
                    while let Some(n) = claim() {
                        task(n, cancel);
                    }
                })
                .expect("spawning a scoped worker fails only on OS thread exhaustion");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    fn run_and_collect(jobs: usize, count: usize) -> Vec<usize> {
        let seen = Mutex::new(Vec::new());
        for_each(jobs, count, |n, _| {
            seen.lock()
                .expect("no test task panics while recording")
                .push(n);
        });
        seen.into_inner()
            .expect("all workers joined before inspection")
    }

    #[test]
    fn every_index_runs_exactly_once() {
        for jobs in [1, 2, 4, 7] {
            let seen = run_and_collect(jobs, 23);
            assert_eq!(seen.len(), 23, "jobs={jobs}");
            let distinct: BTreeSet<usize> = seen.iter().copied().collect();
            assert_eq!(distinct, (0..23).collect(), "jobs={jobs}");
        }
    }

    #[test]
    fn serial_path_preserves_order() {
        // jobs=1 must be the exact serial loop: in-order, same thread.
        let seen = run_and_collect(1, 10);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_task_ranges() {
        assert!(run_and_collect(4, 0).is_empty());
        assert_eq!(run_and_collect(4, 1), vec![0]);
    }

    #[test]
    fn cancel_stops_new_claims() {
        let seen = Mutex::new(Vec::new());
        // Serial pool: cancelling in the first task must leave the rest
        // unclaimed, deterministically.
        for_each(1, 100, |n, cancel| {
            seen.lock()
                .expect("no test task panics while recording")
                .push(n);
            cancel.cancel();
        });
        assert_eq!(seen.into_inner().expect("pool returned"), vec![0]);
    }

    #[test]
    fn parallel_cancel_bounds_claims() {
        let ran = AtomicUsize::new(0);
        for_each(4, 1000, |_, cancel| {
            ran.fetch_add(1, Ordering::Relaxed);
            cancel.cancel();
        });
        // At most one in-flight task per worker after the first cancel.
        assert!(ran.load(Ordering::Relaxed) <= 4);
    }
}
