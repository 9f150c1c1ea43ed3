//! Workspace automation tasks, following the cargo-xtask convention.
//!
//! One task: `lint`, a zero-dependency semantic workspace analyzer
//! enforcing repository invariants that rustc and clippy do not know
//! about. The per-line rules ([`rules`]) cover panic-freedom of
//! hot-path crates, the typed-address discipline of `cameo-types`, doc
//! coverage, thread-creation and trace-printing discipline; the semantic
//! passes ([`passes`]) read a shared cross-file model ([`model`]) to
//! check run-to-run determinism, the atomic-ordering protocol table, and
//! the crate-layering DAG. Every finding fails the lint; the only way to
//! accept one is an in-place `// lint: allow(<rule>)` carrying its
//! reason. Run it as
//!
//! ```text
//! cargo xtask lint             # lint the workspace (exits 1 on findings)
//! cargo xtask lint --fixtures  # lint the seeded fixtures (exits 1)
//! ```
//!
//! The `xtask` alias lives in `.cargo/config.toml`. See `rules` for the
//! line-rule set and the `// lint: allow(<rule>)` escape hatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod model;
pub mod passes;
pub mod rules;
pub mod scanner;

pub use engine::lint_workspace;
pub use rules::Diagnostic;
