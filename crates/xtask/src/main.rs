//! CLI entry point for `cargo xtask`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::baseline::{self, Baseline};
use xtask::engine::{lint_model, scan_workspace, LintOptions};
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
  lint [options]      Run the semantic workspace analyzer: per-line rules
                      (no-panic, addr-cast, missing-docs, thread-spawn,
                      trace-print) plus the determinism, concurrency, and
                      layering passes. Findings are gated against the
                      checked-in lint-baseline.json: anything fresh fails,
                      and so does a stale baseline entry.
  help                Show this message.

Lint options:
  --fixtures          Lint the seeded violation fixtures instead of the
                      workspace (no baseline; must exit non-zero).
  --json              Emit the findings as a cameo-lint/1 JSON document on
                      stdout instead of human-readable lines.
  --jobs N            Scan worker threads (default: cores, capped at 8).
                      Output is identical at any value.
  --baseline PATH     Baseline file (default: <root>/lint-baseline.json).
  --update-baseline   Rewrite the baseline to accept the current findings,
                      preserving reasons of surviving entries.

Suppress a finding in place with `// lint: allow(<rule>)` (or
`# lint: allow(<rule>)` in Cargo.toml) on the same line or alone on the
line above, and say why in the same comment; use the baseline for
findings whose justification does not belong next to the code.
";

/// Parsed `lint` flags.
struct LintFlags {
    fixtures: bool,
    json: bool,
    jobs: Option<usize>,
    baseline: Option<PathBuf>,
    update_baseline: bool,
}

impl LintFlags {
    fn parse(flags: &[String]) -> Result<LintFlags, String> {
        let mut parsed = LintFlags {
            fixtures: false,
            json: false,
            jobs: None,
            baseline: None,
            update_baseline: false,
        };
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--fixtures" => parsed.fixtures = true,
                "--json" => parsed.json = true,
                "--update-baseline" => parsed.update_baseline = true,
                "--jobs" => {
                    let value = it.next().ok_or("`--jobs` needs a value")?;
                    let jobs: usize = value
                        .parse()
                        .map_err(|_| format!("`--jobs {value}` is not a number"))?;
                    if jobs == 0 {
                        return Err("`--jobs` must be at least 1".to_string());
                    }
                    parsed.jobs = Some(jobs);
                }
                "--baseline" => {
                    let value = it.next().ok_or("`--baseline` needs a path")?;
                    parsed.baseline = Some(PathBuf::from(value));
                }
                other => return Err(format!("unknown flag `{other}` for `lint`")),
            }
        }
        if parsed.fixtures && parsed.update_baseline {
            return Err("`--fixtures` has no baseline to update".to_string());
        }
        Ok(parsed)
    }
}

/// Runs the analyzer over the workspace (or the fixture tree) and gates
/// the findings against the baseline.
fn lint(flags: &[String]) -> ExitCode {
    let flags = match LintFlags::parse(flags) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    let Some(workspace_root) = workspace_root() else {
        eprintln!("error: cannot locate the workspace root (no Cargo.toml found)");
        return ExitCode::from(USAGE_ERROR);
    };
    let root = if flags.fixtures {
        workspace_root.join("crates/xtask/fixtures")
    } else {
        workspace_root.clone()
    };

    let opts = LintOptions {
        jobs: flags.jobs.unwrap_or_else(xtask::engine::default_jobs),
    };
    let model = match scan_workspace(&root, &opts) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    let diags = lint_model(&model);
    // The atomic-protocol table describes the workspace; the fixture tree
    // holds only a few of its sites, so only a workspace lint checks it.
    let stale_protocol = if flags.fixtures {
        Vec::new()
    } else {
        concurrency::unmatched_entries(&model)
    };

    // The fixture tree is linted without a baseline: every seed must fire.
    let baseline_path = if flags.fixtures {
        None
    } else {
        Some(
            flags
                .baseline
                .unwrap_or_else(|| workspace_root.join(baseline::BASELINE_FILE)),
        )
    };
    let baseline = match &baseline_path {
        Some(path) => match Baseline::load(path) {
            Ok(baseline) => baseline,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(USAGE_ERROR);
            }
        },
        None => Baseline::default(),
    };

    if flags.update_baseline {
        let path = baseline_path.expect("--fixtures with --update-baseline is rejected above");
        let updated = baseline.regenerate(&diags);
        if let Err(e) = std::fs::write(&path, updated.render()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(USAGE_ERROR);
        }
        println!(
            "xtask lint: baseline {} now accepts {} finding(s)",
            path.display(),
            updated.entries.len()
        );
        return ExitCode::SUCCESS;
    }

    let check = baseline.check(&diags);
    if flags.json {
        print!("{}", baseline::render_findings(&check));
    } else {
        for d in &check.fresh {
            println!("{d}");
        }
        for entry in &check.stale {
            println!(
                "{}:{}: error[stale-baseline]: accepted `{}` finding no longer \
                 occurs; regenerate with `cargo xtask lint --update-baseline`",
                entry.path, entry.line, entry.rule
            );
        }
        for entry in &stale_protocol {
            println!(
                "{}: error[stale-protocol]: `ATOMIC_PROTOCOL_TABLE` entry \
                 `{}.{}` matches no site; delete it from \
                 crates/xtask/src/passes/concurrency.rs",
                entry.file, entry.receiver, entry.method
            );
        }
    }
    let clean = check.fresh.is_empty() && check.stale.is_empty() && stale_protocol.is_empty();
    if !flags.json {
        if clean {
            println!(
                "xtask lint: clean ({} accepted by baseline)",
                check.accepted.len()
            );
        } else {
            println!(
                "xtask lint: {} fresh finding(s), {} stale baseline entr(ies), \
                 {} stale protocol entr(ies)",
                check.fresh.len(),
                check.stale.len(),
                stale_protocol.len()
            );
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
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
