//! Workspace-wide rules, grouped by the property they protect.

mod concurrency;
mod determinism;
mod layering;
