//! Unseeded fixture proving the `thread-spawn` worker-pool exemption:
//! this file's path ends in `crates/sim/src/pool.rs`, the one location
//! allowed to create threads, so the bare spawns below must produce no
//! diagnostics (note: no `seeded:` markers anywhere in this file).

/// The worker pool itself may call `thread::spawn` without findings.
pub fn pool_spawns() {
    std::thread::spawn(|| {});
    let handle = thread::spawn(|| 42);
    drop(handle);
}

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Registered atomic-protocol sites produce no findings in this file
/// (suppressed: atomic-protocol): the concurrency pass's table declares
/// `flag.store`/`flag.load` and the claim cursor's `next.fetch_add`
/// (Relaxed) for paths ending in `crates/sim/src/pool.rs`.
pub fn registered(flag: &AtomicBool, next: &AtomicUsize) -> usize {
    flag.store(true, Ordering::Release);
    let cancelled = flag.load(Ordering::Acquire);
    next.fetch_add(1, Ordering::Relaxed) + usize::from(cancelled)
}
