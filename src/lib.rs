//! Umbrella crate for the CAMEO reproduction workspace.
//!
//! Re-exports every subsystem under one roof so examples, integration tests
//! and downstream users can depend on a single crate:
//!
//! * [`types`] — shared newtypes (addresses, cycles, capacities, requests);
//! * [`memsim`] — bank/channel DRAM timing models (Table I devices);
//! * [`cachesim`] — the L3 model and the Alloy DRAM cache;
//! * [`vmem`] — the OS substrate: paging and TLM migration policies;
//! * [`cameo`] — the paper's contribution: congruence groups, the Line
//!   Location Table, the Line Location Predictor, and the controller;
//! * [`workloads`] — the synthetic Table II workload suite;
//! * [`sim`] — full-system organizations, runner, statistics, energy model
//!   and the experiment entry points;
//! * [`trace`] — binary miss-trace recording and replay.
//!
//! # Examples
//!
//! ```
//! use cameo_repro::cameo::{Cameo, CameoConfig, LltDesign, PredictorKind};
//! use cameo_repro::types::{Access, ByteSize, CoreId, Cycle, LineAddr};
//!
//! let mut controller = Cameo::new(CameoConfig {
//!     stacked: ByteSize::from_mib(1),
//!     off_chip: ByteSize::from_mib(3),
//!     llt: LltDesign::CoLocated,
//!     predictor: PredictorKind::Llp,
//!     cores: 1,
//!     llp_entries: 256,
//! });
//! let r = controller.access(
//!     Cycle::ZERO,
//!     &Access::read(CoreId(0), LineAddr::new(20_000), 0x400100),
//! );
//! assert!(r.completion > Cycle::ZERO);
//! ```

pub use cameo;
pub use cameo_cachesim as cachesim;
pub use cameo_memsim as memsim;
pub use cameo_sim as sim;
pub use cameo_trace as trace;
pub use cameo_types as types;
pub use cameo_vmem as vmem;
pub use cameo_workloads as workloads;

// Fixture tests of the workspace's lint configuration: each compiles a
// one-file crate under `[workspace.lints]` and `clippy.toml` and checks
// which lints reject it (DESIGN.md §8 maps each rule to its lint).
#[cfg(test)]
#[path = "lint_fixtures/engine.rs"]
mod engine;
#[cfg(test)]
#[path = "lint_fixtures/passes/mod.rs"]
mod passes;
#[cfg(test)]
#[path = "lint_fixtures/rules.rs"]
mod rules;
