//! Workspace walking, scanning, and pass dispatch for `cargo xtask lint`.
//!
//! The engine lints `src/` trees only: `crates/<name>/src/**/*.rs` plus the
//! root package's `src/**/*.rs`. Integration tests, benches, examples, and
//! the vendored dependency stand-ins under `vendor/` are out of scope —
//! the rules encode invariants of the simulator's own API surface and hot
//! paths, not of test scaffolding. Manifests (`crates/*/Cargo.toml` and
//! the root package manifest) are additionally parsed for the layering
//! pass.
//!
//! Output is deterministic: files are scanned in one sorted list, and
//! diagnostics are sorted by (path, line, rule) at the end.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::model::{self, FileFacts, WorkspaceModel};
use crate::passes::{concurrency, determinism, layering};
use crate::rules::{check_file, Diagnostic, FileClass};
use crate::scanner::SourceFile;

/// Crates whose `src/` is a simulated hot path: `no-panic` applies.
pub const HOT_PATH_CRATES: [&str; 4] = ["core", "sim", "memsim", "cachesim"];

/// The one crate allowed to do raw address math: it defines the typed
/// address layer everything else must go through.
pub const ADDR_EXEMPT_CRATE: &str = "types";

/// The [`FileClass`] for files of crate `name` (`""` = root package).
fn class_for(name: &str) -> FileClass {
    FileClass {
        hot_path: HOT_PATH_CRATES.contains(&name),
        addr_exempt: name == ADDR_EXEMPT_CRATE,
    }
}

/// Lints every in-scope source file under `root`, returning diagnostics
/// in deterministic (path, line, rule) order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_model(&scan_workspace(root)?))
}

/// Scans every in-scope source file and manifest under `root` into the
/// cross-file model the passes read.
pub fn scan_workspace(root: &Path) -> io::Result<WorkspaceModel> {
    let files = workspace_files(root)?
        .iter()
        .map(|(path, crate_dir, class)| scan_one(root, path, crate_dir, *class))
        .collect::<io::Result<_>>()?;
    Ok(WorkspaceModel {
        files,
        manifests: model::load_manifests(root),
    })
}

/// Runs the per-line rules and every pass over `model`, returning
/// diagnostics in deterministic (path, line, rule) order.
pub fn lint_model(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for file in &model.files {
        diagnostics.extend(check_file(&file.path, file.class, &file.src));
    }
    diagnostics.extend(determinism::run(model));
    diagnostics.extend(concurrency::run(model));
    diagnostics.extend(layering::run(model));
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diagnostics
}

/// The sorted in-scope file list: absolute path, owning crate directory,
/// and line-rule class.
fn workspace_files(root: &Path) -> io::Result<Vec<(PathBuf, String, FileClass)>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in read_sorted(&crates_dir)? {
            let src = entry.join("src");
            if src.is_dir() {
                let name = entry
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                collect_rs(&src, &name, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, "", &mut files)?;
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Scans a single file into [`FileFacts`] with a workspace-relative
/// display path.
fn scan_one(root: &Path, path: &Path, crate_dir: &str, class: FileClass) -> io::Result<FileFacts> {
    let text = fs::read_to_string(path)?;
    let display = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    Ok(FileFacts::extract(
        display,
        crate_dir.to_string(),
        class,
        SourceFile::parse(&text),
    ))
}

/// Recursively collects `.rs` files under `dir`, tagged with the owning
/// crate directory name.
fn collect_rs(
    dir: &Path,
    crate_dir: &str,
    out: &mut Vec<(PathBuf, String, FileClass)>,
) -> io::Result<()> {
    for path in read_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, crate_dir, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path, crate_dir.to_string(), class_for(crate_dir)));
        }
    }
    Ok(())
}

/// Directory entries in deterministic (sorted) order.
fn read_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn xtask_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }

    fn workspace_root() -> PathBuf {
        xtask_dir()
            .parent()
            .and_then(Path::parent)
            .expect("crates/xtask sits two levels below the workspace root")
            .to_path_buf()
    }

    /// Every marker file in the fixture tree: `.rs` sources plus the
    /// crate manifests (layer-dag seeds live in `Cargo.toml`).
    fn fixture_marker_files(root: &Path) -> Vec<PathBuf> {
        let mut files = Vec::new();
        let crates = root.join("crates");
        for entry in read_sorted(&crates).expect("fixtures/crates exists") {
            let manifest = entry.join("Cargo.toml");
            if manifest.is_file() {
                files.push(manifest);
            }
            let src = entry.join("src");
            if src.is_dir() {
                let mut rs = Vec::new();
                collect_rs(&src, "", &mut rs).expect("fixture src readable");
                files.extend(rs.into_iter().map(|(p, _, _)| p));
            }
        }
        files
    }

    /// Parses `seeded: a, b` / `suppressed: rule` markers out of one
    /// fixture file. Rules are comma-separated so one line can seed two
    /// co-firing rules.
    fn markers(text: &str, tag: &str) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if let Some(pos) = line.find(tag) {
                for rule in line[pos + tag.len()..].split(',') {
                    let rule = rule.trim_matches(|c: char| !(c.is_alphanumeric() || c == '-'));
                    if !rule.is_empty() {
                        out.push((i + 1, rule.to_string()));
                    }
                }
            }
        }
        out
    }

    /// The fixture tree seeds one violation per `seeded: <rule>` marker
    /// (comma-separated when rules co-fire on a line). The linter must
    /// find exactly the marked (line, rule) pairs: every diagnostic on a
    /// marked line, every marked line diagnosed. `suppressed: <rule>`
    /// markers document deliberate negatives (allow directives, exempt
    /// files, registered atomics) and must stay silent — which the
    /// exact-match assertion already enforces; here they also pin the
    /// corpus shape: every rule has positives AND a suppression.
    #[test]
    fn fixtures_are_caught_exactly() {
        let root = xtask_dir().join("fixtures");
        let diags = lint_workspace(&root).expect("fixture tree under crates/xtask is readable");
        assert!(!diags.is_empty(), "fixtures must produce violations");

        let mut expected = BTreeSet::new();
        let mut seeded_by_rule: BTreeMap<String, usize> = BTreeMap::new();
        let mut suppressed_by_rule: BTreeMap<String, usize> = BTreeMap::new();
        for path in fixture_marker_files(&root) {
            let text = std::fs::read_to_string(&path).expect("fixture file is readable");
            let rel = path.strip_prefix(&root).unwrap_or(&path).to_path_buf();
            for (line, rule) in markers(&text, "seeded: ") {
                *seeded_by_rule.entry(rule.clone()).or_default() += 1;
                expected.insert((rel.clone(), line, rule));
            }
            for (_, rule) in markers(&text, "suppressed: ") {
                *suppressed_by_rule.entry(rule).or_default() += 1;
            }
        }

        let found: BTreeSet<_> = diags
            .iter()
            .map(|d| (d.path.clone(), d.line, d.rule.to_string()))
            .collect();
        let missed: Vec<_> = expected.difference(&found).collect();
        let spurious: Vec<_> = found.difference(&expected).collect();
        assert!(
            missed.is_empty() && spurious.is_empty(),
            "lint/fixture mismatch\n  missed: {missed:?}\n  spurious: {spurious:?}"
        );

        // Corpus shape: the semantic rules each need ≥2 positives and ≥1
        // documented suppression; the whole corpus stays ≥45 seeds.
        let total: usize = seeded_by_rule.values().sum();
        assert!(total >= 45, "fixture corpus shrank to {total} seeds (< 45)");
        for rule in [
            "det-hash",
            "wall-clock",
            "unordered-iter",
            "atomic-protocol",
            "lock-unwrap",
            "lock-unwind",
            "layer-dag",
            "feature-gate",
        ] {
            assert!(
                seeded_by_rule.get(rule).copied().unwrap_or(0) >= 2,
                "rule {rule} needs at least 2 seeded positives"
            );
            assert!(
                suppressed_by_rule.get(rule).copied().unwrap_or(0) >= 1,
                "rule {rule} needs at least 1 documented suppression"
            );
        }
    }

    /// The real workspace must lint clean — no finding, no
    /// atomic-protocol table entry without a site. This makes `cargo test`
    /// enforce the lint gate even where CI scripts are not used.
    #[test]
    fn workspace_lints_clean() {
        let model = scan_workspace(&workspace_root()).expect("workspace sources are readable");
        let unmatched = concurrency::unmatched_entries(&model);
        assert!(
            unmatched.is_empty(),
            "ATOMIC_PROTOCOL_TABLE entries match no site:\n{unmatched:?}"
        );
        let diags = lint_model(&model);
        assert!(
            diags.is_empty(),
            "workspace has lint findings:\n{}",
            diags
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
