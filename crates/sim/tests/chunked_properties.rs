//! Property tests for chunked sweep execution.
//!
//! A worker may step the point it claimed through chunks of at most
//! [`SweepOptions::chunk_accesses`] accesses, pausing the event loop
//! between them, while other workers run other points. None of that is
//! allowed to show up in the results: for *any* combination of chunk
//! size, worker count, and configuration seed, the assembled
//! [`SweepReport`] and the checkpoint contents must be byte-identical to
//! a serial, unchunked run — and a killed sweep must converge to the same
//! results on resume.

use cameo_sim::checkpoint;
use cameo_sim::experiments::OrgKind;
use cameo_sim::harness::{run_sweep, SweepOptions, SweepPoint};
use cameo_sim::SystemConfig;
use proptest::prelude::*;

fn opts(seed: u64, jobs: usize, chunk: Option<u64>) -> SweepOptions {
    SweepOptions {
        config: SystemConfig {
            scale: 8192,
            cores: 2,
            instructions_per_core: 20_000,
            warmup_fraction: 0.2,
            seed,
            ..SystemConfig::default()
        },
        max_attempts: 1,
        jobs,
        chunk_accesses: chunk,
        ..SweepOptions::default()
    }
}

fn points() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new("astar", OrgKind::Baseline),
        SweepPoint::new("astar", OrgKind::cameo_default()),
        SweepPoint::new("milc", OrgKind::AlloyCache),
        SweepPoint::new("mcf", OrgKind::cameo_default()),
    ]
}

/// A scratch checkpoint path unique to this process and label.
fn scratch(label: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cameo_chunked_{label}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Chunked parallel execution is invisible in the results: report and
    /// checkpoint map equal the serial unchunked run's at any (chunk,
    /// jobs, seed).
    #[test]
    fn chunked_parallel_sweep_is_bit_identical_to_serial(
        seed in 1u64..1000,
        jobs in prop_oneof![Just(1usize), Just(2), Just(4)],
        chunk in prop_oneof![Just(None), Just(Some(1u64)), Just(Some(7)), Just(Some(64))],
    ) {
        let points = points();
        let serial_path = scratch("serial");
        let chunked_path = scratch("par");

        let serial = run_sweep(&points, &opts(seed, 1, None), Some(&serial_path))
            .expect("tmp dir is writable");
        let chunked = run_sweep(&points, &opts(seed, jobs, chunk), Some(&chunked_path))
            .expect("tmp dir is writable");

        prop_assert_eq!(&serial, &chunked);
        prop_assert_eq!(chunked.completed(), points.len());
        for (outcome, point) in chunked.outcomes.iter().zip(&points) {
            prop_assert_eq!(&outcome.point.key, &point.key, "canonical order preserved");
        }
        // The checkpoint's key → record map must replay identically.
        let serial_map = checkpoint::load(&serial_path).expect("serial checkpoint loads");
        let chunked_map = checkpoint::load(&chunked_path).expect("chunked checkpoint loads");
        prop_assert_eq!(serial_map, chunked_map);
        std::fs::remove_file(&serial_path).expect("tmp cleanup");
        std::fs::remove_file(&chunked_path).expect("tmp cleanup");
    }

    /// Kill-and-resume: a checkpoint left behind by a killed sweep —
    /// finished records, even a torn half-written tail — resumes under
    /// chunked parallel execution to the same stats as an uninterrupted
    /// run.
    #[test]
    fn chunked_kill_and_resume_converges(
        seed in 1u64..1000,
        jobs in prop_oneof![Just(2usize), Just(4)],
        torn_tail in prop_oneof![Just(false), Just(true)],
    ) {
        let points = points();
        let truth = run_sweep(&points, &opts(seed, 1, None), None)
            .expect("no checkpoint I/O involved");

        // Forge the kill artifact: points 1 and 3 finished, points 0 and
        // 2 did not.
        let path = scratch("kill");
        for i in [1usize, 3] {
            checkpoint::append(&path, &truth.outcomes[i].point.key, &truth.outcomes[i].record)
                .expect("tmp dir is writable");
        }
        if torn_tail {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("tmp file reopens");
            write!(file, "{{\"key\":\"mcf::").expect("tmp write");
        }

        let resumed = run_sweep(&points, &opts(seed, jobs, Some(16)), Some(&path))
            .expect("checkpoint is readable");
        prop_assert_eq!(resumed.resumed(), 2, "only terminal records resume");
        prop_assert_eq!(resumed.completed(), points.len());
        for point in &points {
            prop_assert_eq!(
                resumed.stats_of(&point.key),
                truth.stats_of(&point.key),
                "{} differs after resume",
                &point.key
            );
        }
        std::fs::remove_file(&path).expect("tmp cleanup");
    }
}
