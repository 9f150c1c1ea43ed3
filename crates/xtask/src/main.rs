//! CLI entry point for `cargo xtask`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::engine::{lint_model, scan_workspace};
use xtask::passes::concurrency;

/// Exit code for usage / IO errors (violations exit with 1).
const USAGE_ERROR: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown task `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(USAGE_ERROR)
        }
    }
}

const USAGE: &str = "\
Workspace automation tasks.

Usage: cargo xtask <task>

Tasks:
  lint [--fixtures]   Run the semantic workspace analyzer: per-line rules
                      (no-panic, addr-cast, missing-docs, thread-spawn,
                      trace-print) plus the determinism, concurrency, and
                      layering passes. Any finding fails, and so does an
                      ATOMIC_PROTOCOL_TABLE entry that matches no site.
  help                Show this message.

Lint options:
  --fixtures          Lint the seeded violation fixtures instead of the
                      workspace (must exit non-zero).

Suppress a finding in place with `// lint: allow(<rule>)` (or
`# lint: allow(<rule>)` in Cargo.toml) on the same line or alone on the
line above, and say why in the same comment.
";

/// Runs the analyzer over the workspace (or the fixture tree) and fails
/// on any finding.
fn lint(flags: &[String]) -> ExitCode {
    let mut fixtures = false;
    for flag in flags {
        if flag == "--fixtures" {
            fixtures = true;
        } else {
            eprintln!("error: unknown flag `{flag}` for `lint`");
            return ExitCode::from(USAGE_ERROR);
        }
    }
    let Some(workspace_root) = workspace_root() else {
        eprintln!("error: cannot locate the workspace root (no Cargo.toml found)");
        return ExitCode::from(USAGE_ERROR);
    };
    let root = if fixtures {
        workspace_root.join("crates/xtask/fixtures")
    } else {
        workspace_root
    };

    let model = match scan_workspace(&root) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    let diags = lint_model(&model);
    // The atomic-protocol table describes the workspace; the fixture tree
    // holds only a few of its sites, so only a workspace lint checks it.
    let stale_protocol = if fixtures {
        Vec::new()
    } else {
        concurrency::unmatched_entries(&model)
    };

    for d in &diags {
        println!("{d}");
    }
    for entry in &stale_protocol {
        println!(
            "{}: error[stale-protocol]: `ATOMIC_PROTOCOL_TABLE` entry \
             `{}.{}` matches no site; delete it from \
             crates/xtask/src/passes/concurrency.rs",
            entry.file, entry.receiver, entry.method
        );
    }
    if diags.is_empty() && stale_protocol.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask lint: {} finding(s), {} stale protocol entr(ies)",
            diags.len(),
            stale_protocol.len()
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest when built
/// in-tree, else the nearest ancestor of the current directory holding a
/// `Cargo.toml` with a `[workspace]` table.
fn workspace_root() -> Option<PathBuf> {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Some(root) = compiled.parent().and_then(|p| p.parent()) {
        if root.join("Cargo.toml").is_file() {
            return Some(root.to_path_buf());
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
