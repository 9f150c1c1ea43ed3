//! Typed errors for the simulation driver.
//!
//! The runner and the batch harness report failures as values instead of
//! panicking, so a sweep over many design points can record what went wrong
//! with one point and keep going (see [`crate::harness`]).

use cameo_workloads::{InvalidSpec, UnknownBenchmark};

use crate::config::ConfigError;

/// Anything that can go wrong while setting up or driving a simulation.
#[derive(Clone, PartialEq, Debug)]
pub enum SimError {
    /// The [`crate::SystemConfig`] failed validation.
    Config(ConfigError),
    /// A benchmark name did not resolve against the Table II suite.
    UnknownBenchmark(UnknownBenchmark),
    /// The [`cameo_workloads::BenchSpec`] cannot drive a generator.
    InvalidSpec(InvalidSpec),
    /// `run_with_streams` was handed an empty stream list.
    EmptyStreams,
    /// The cycle-budget watchdog tripped: a core's issue clock passed the
    /// budget before every core retired its instructions.
    WatchdogExpired {
        /// The configured budget, in cycles.
        budget_cycles: u64,
        /// Instructions the offending core had retired when it tripped.
        retired_instructions: u64,
    },
    /// A core's projected issue time does not fit the runner's event-order
    /// key: the organization reported a completion far past any real run.
    IssueTimeOverflow {
        /// The core whose issue time overflowed.
        core: usize,
        /// The projected issue cycle.
        cycle: u64,
        /// The latest cycle a key can carry at this core count.
        limit: u64,
    },
    /// A design point panicked inside the crash-isolated harness.
    PointPanicked {
        /// The design-point key (`bench::org`).
        key: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A design point failed on every allowed attempt.
    PointExhausted {
        /// The design-point key (`bench::org`).
        key: String,
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// Rendering of the last attempt's error.
        last_error: String,
    },
    /// The sweep checkpoint file is corrupt before its last line, or was
    /// written under a different configuration than the sweep's.
    Checkpoint(String),
    /// A checkpoint (or journal) file failed an I/O operation, with the
    /// [`std::io::ErrorKind`] preserved so callers can tell persistent
    /// conditions (disk full = `StorageFull`/`QuotaExceeded`, short
    /// write = `WriteZero`) from transient ones instead of parsing a
    /// rendered message.
    CheckpointIo {
        /// The file involved.
        path: String,
        /// The operation that failed (`"open"`, `"append"`, `"flush"`,
        /// `"read"`, `"truncate"`).
        op: &'static str,
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Rendering of the underlying OS error.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid system configuration: {e}"),
            SimError::UnknownBenchmark(e) => e.fmt(f),
            SimError::InvalidSpec(e) => write!(f, "invalid benchmark spec: {e}"),
            SimError::EmptyStreams => f.write_str("need at least one miss stream"),
            SimError::WatchdogExpired {
                budget_cycles,
                retired_instructions,
            } => write!(
                f,
                "cycle-budget watchdog expired: {retired_instructions} instructions \
                 retired within the {budget_cycles}-cycle budget"
            ),
            SimError::IssueTimeOverflow { core, cycle, limit } => write!(
                f,
                "core {core}'s projected issue cycle {cycle} is past the event order's \
                 range (at most {limit})"
            ),
            SimError::PointPanicked { key, message } => {
                write!(f, "design point {key} panicked: {message}")
            }
            SimError::PointExhausted {
                key,
                attempts,
                last_error,
            } => write!(
                f,
                "design point {key} failed after {attempts} attempts; last error: {last_error}"
            ),
            SimError::Checkpoint(detail) => write!(f, "invalid checkpoint: {detail}"),
            SimError::CheckpointIo {
                path,
                op,
                kind,
                detail,
            } => write!(f, "checkpoint {op} on {path} failed ({kind:?}): {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<UnknownBenchmark> for SimError {
    fn from(e: UnknownBenchmark) -> Self {
        SimError::UnknownBenchmark(e)
    }
}

impl From<InvalidSpec> for SimError {
    fn from(e: InvalidSpec) -> Self {
        SimError::InvalidSpec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_detail() {
        let e = SimError::from(ConfigError::ZeroScale);
        assert!(e.to_string().contains("scale must be positive"));
        let e = SimError::WatchdogExpired {
            budget_cycles: 500,
            retired_instructions: 42,
        };
        assert!(e.to_string().contains("500"));
        let e = SimError::PointExhausted {
            key: "astar::CAMEO".into(),
            attempts: 3,
            last_error: "boom".into(),
        };
        assert!(e.to_string().contains("astar::CAMEO") && e.to_string().contains("boom"));
    }

    #[test]
    fn checkpoint_io_preserves_the_kind() {
        let e = SimError::CheckpointIo {
            path: "/tmp/x.jsonl".into(),
            op: "append",
            kind: std::io::ErrorKind::WriteZero,
            detail: "short write".into(),
        };
        assert!(e.to_string().contains("append"));
        assert!(e.to_string().contains("WriteZero"));
        assert!(matches!(
            e,
            SimError::CheckpointIo {
                kind: std::io::ErrorKind::WriteZero,
                ..
            }
        ));
    }

    #[test]
    fn unknown_benchmark_converts() {
        let err = cameo_workloads::require("nope").expect_err("not a suite name");
        let sim: SimError = err.into();
        assert!(sim.to_string().contains("nope"));
    }
}
