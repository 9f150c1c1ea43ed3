//! Workspace automation tasks, following the cargo-xtask convention.
//!
//! One task: `lint`, a zero-dependency semantic workspace analyzer
//! enforcing repository invariants that rustc and clippy do not know
//! about. The per-line rules ([`rules`]) cover panic-freedom of
//! hot-path crates, the typed-address discipline of `cameo-types`, doc
//! coverage, thread-creation and trace-printing discipline; the semantic
//! passes ([`passes`]) read a shared cross-file model ([`model`]) to
//! check run-to-run determinism, the atomic-ordering protocol table, and
//! the crate-layering DAG. Findings are gated against a checked-in
//! baseline ([`baseline`]) — deny-by-default in both directions. Run it
//! as
//!
//! ```text
//! cargo xtask lint                    # gate findings against the baseline
//! cargo xtask lint --json             # emit the cameo-lint/1 document
//! cargo xtask lint --fixtures         # lint the seeded fixtures (exits 1)
//! cargo xtask lint --update-baseline  # regenerate lint-baseline.json
//! ```
//!
//! The `xtask` alias lives in `.cargo/config.toml`. See `rules` for the
//! line-rule set and the `// lint: allow(<rule>)` escape hatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod json;
pub mod model;
pub mod passes;
pub mod rules;
pub mod scanner;

pub use engine::lint_workspace;
pub use rules::Diagnostic;
