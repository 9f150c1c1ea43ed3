//! The lightweight cross-file workspace model shared by all lint passes.
//!
//! The per-line scanner ([`crate::scanner`]) sees one file at a time;
//! the semantic passes (determinism, concurrency, layering) need facts
//! that span files and manifests: which crate a file belongs to, the
//! `use` edges between crates, which features each `Cargo.toml`
//! declares, and where function bodies begin and end. This module
//! extracts those facts once per file — [`FileFacts`] — and assembles
//! them with the parsed manifests into a [`WorkspaceModel`] that every
//! pass reads.
//!
//! Extraction is token-shaped, not a full parse, in the same spirit as
//! the scanner: it handles the declaration forms this workspace uses and
//! anything misclassified can be silenced with an allow directive.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::rules::FileClass;
use crate::scanner::SourceFile;

/// A function body span (0-based line indexes, inclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub start: usize,
    /// Line of the closing brace.
    pub end: usize,
}

/// One `use cameo_*` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// 0-based line index of the declaration.
    pub line: usize,
    /// The leading crate identifier (e.g. `cameo_sim`).
    pub krate: String,
}

/// Everything the passes need to know about one source file.
#[derive(Debug)]
pub struct FileFacts {
    /// Workspace-relative path (as shown in diagnostics).
    pub path: PathBuf,
    /// Directory name of the owning crate (`""` for the root package).
    pub crate_dir: String,
    /// Line-rule classification (hot path / address exempt).
    pub class: FileClass,
    /// The scanned source.
    pub src: SourceFile,
    /// Non-test function spans, in declaration order.
    pub fns: Vec<FnSpan>,
    /// `use cameo_*` edges out of this file.
    pub uses: Vec<UseDecl>,
    /// `feature = "…"` gate names, with their 0-based lines.
    pub cfg_features: Vec<(usize, String)>,
}

impl FileFacts {
    /// Extracts all per-file facts from a scanned source.
    pub fn extract(path: PathBuf, crate_dir: String, class: FileClass, src: SourceFile) -> Self {
        let fns = extract_fns(&src);
        let uses = extract_uses(&src);
        let cfg_features = extract_cfg_features(&src);
        FileFacts {
            path,
            crate_dir,
            class,
            src,
            fns,
            uses,
            cfg_features,
        }
    }

    /// The innermost function span containing 0-based line `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start <= idx && idx <= f.end)
            .max_by_key(|f| f.start)
    }
}

/// One parsed `Cargo.toml`.
#[derive(Debug, Default)]
pub struct ManifestInfo {
    /// Workspace-relative path of the manifest.
    pub path: PathBuf,
    /// Directory name of the crate (`""` for the root package).
    pub crate_dir: String,
    /// `package.name`, when present.
    pub package: String,
    /// `[dependencies]` keys, with their 0-based lines.
    pub deps: Vec<(usize, String)>,
    /// `[dev-dependencies]` keys, with their 0-based lines.
    pub dev_deps: Vec<(usize, String)>,
    /// `[features]` keys.
    pub features: Vec<String>,
    /// Per-line `# lint: allow(<rule>)` directives.
    pub allows: Vec<(usize, Vec<String>)>,
}

impl ManifestInfo {
    /// Parses the TOML subset workspace manifests use: `[section]`
    /// headers and `key = value` entries. Values are never interpreted —
    /// only the keys and their sections matter to the passes.
    pub fn parse(path: PathBuf, crate_dir: String, text: &str) -> Self {
        let mut info = ManifestInfo {
            path,
            crate_dir,
            ..ManifestInfo::default()
        };
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let allows = crate::scanner::comment_allow_directives(raw);
            if !allows.is_empty() {
                info.allows.push((idx, allows));
            }
            // Strip the comment tail before reading keys.
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                section = rest
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .trim()
                    .to_string();
                continue;
            }
            let Some(eq) = line.find('=') else { continue };
            let key = line[..eq].trim().trim_matches('"');
            // `foo.workspace = true` names the dependency `foo`.
            let key = key.split('.').next().unwrap_or(key).trim().to_string();
            if key.is_empty() {
                continue;
            }
            match section.as_str() {
                "package" if key == "name" => {
                    info.package = line[eq + 1..].trim().trim_matches('"').to_string();
                }
                "dependencies" => info.deps.push((idx, key)),
                "dev-dependencies" => info.dev_deps.push((idx, key)),
                "features" => info.features.push(key),
                _ => {}
            }
        }
        info
    }

    /// Whether `rule` is suppressed on 0-based manifest line `idx` (same
    /// placement rules as source files: on the line, or alone above it).
    pub fn allowed(&self, idx: usize, rule: &str) -> bool {
        let hit = |line: usize| {
            self.allows
                .iter()
                .any(|(l, rules)| *l == line && rules.iter().any(|r| r == rule))
        };
        hit(idx) || (idx > 0 && hit(idx - 1))
    }
}

/// The assembled model every pass runs against.
#[derive(Debug)]
pub struct WorkspaceModel {
    /// Per-file facts, in deterministic path order.
    pub files: Vec<FileFacts>,
    /// Parsed manifests, keyed by crate directory name.
    pub manifests: BTreeMap<String, ManifestInfo>,
}

/// Maps a Cargo package name to its crate directory under `crates/`.
pub fn dir_for_package(name: &str) -> Option<&'static str> {
    Some(match name {
        "cameo-types" => "types",
        "cameo-memsim" => "memsim",
        "cameo-cachesim" => "cachesim",
        "cameo-vmem" => "vmem",
        "cameo" => "core",
        "cameo-workloads" => "workloads",
        "cameo-sim" => "sim",
        "cameo-trace" => "trace",
        "cameo-bench" => "bench",
        "xtask" => "xtask",
        _ => return None,
    })
}

/// Maps a `use` crate identifier to its crate directory under `crates/`.
pub fn dir_for_ident(ident: &str) -> Option<&'static str> {
    Some(match ident {
        "cameo_types" => "types",
        "cameo_memsim" => "memsim",
        "cameo_cachesim" => "cachesim",
        "cameo_vmem" => "vmem",
        "cameo" => "core",
        "cameo_workloads" => "workloads",
        "cameo_sim" => "sim",
        "cameo_trace" => "trace",
        "cameo_bench" => "bench",
        _ => return None,
    })
}

/// Whether the char before byte `pos` of `code` continues an identifier
/// (i.e. `pos` is NOT at a word boundary).
pub fn ident_before(code: &str, pos: usize) -> bool {
    code[..pos]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Collects non-test function spans by brace-matching from each `fn`
/// keyword. Bodyless declarations (trait methods) produce no span.
fn extract_fns(src: &SourceFile) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        let mut from = 0;
        while let Some(rel) = code[from..].find("fn ") {
            let pos = from + rel;
            from = pos + 3;
            if ident_before(code, pos) {
                continue;
            }
            let name: String = code[pos + 3..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            if let Some(end) = body_end(src, i, pos) {
                spans.push(FnSpan {
                    name,
                    start: i,
                    end,
                });
            }
        }
    }
    spans
}

/// Line of the `}` closing the body opened after (`start_line`,
/// `start_col`), or `None` for a bodyless declaration.
fn body_end(src: &SourceFile, start_line: usize, start_col: usize) -> Option<usize> {
    let mut depth: i64 = 0;
    let mut seen_open = false;
    for j in start_line..src.lines.len() {
        let code = src.lines[j].code.as_str();
        let tail = if j == start_line {
            &code[start_col..]
        } else {
            code
        };
        for c in tail.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => {
                    depth -= 1;
                    if seen_open && depth <= 0 {
                        return Some(j);
                    }
                }
                ';' if !seen_open && depth == 0 => return None,
                _ => {}
            }
        }
    }
    None
}

/// Collects `use cameo_*` (and `pub use cameo_*`) declarations.
fn extract_uses(src: &SourceFile) -> Vec<UseDecl> {
    let mut uses = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        let trimmed = line.code.trim_start();
        let rest = trimmed
            .strip_prefix("pub use ")
            .or_else(|| trimmed.strip_prefix("pub(crate) use "))
            .or_else(|| trimmed.strip_prefix("use "));
        let Some(rest) = rest else { continue };
        let ident: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.starts_with("cameo") {
            uses.push(UseDecl {
                line: i,
                krate: ident,
            });
        }
    }
    uses
}

/// Collects `feature = "name"` gate names from attribute / `cfg!` lines.
///
/// Names live in the *raw* text (the scanner blanks literal bodies), so a
/// line only contributes when its code half really contains a blanked
/// `feature = ""` occurrence — comments and doc text never match.
fn extract_cfg_features(src: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        let gated = occurrences(&line.code, "feature");
        if gated == 0 {
            continue;
        }
        let mut taken = 0;
        let raw = line.raw.as_str();
        let mut from = 0;
        while taken < gated {
            let Some(rel) = raw[from..].find("feature") else {
                break;
            };
            let mut pos = from + rel + "feature".len();
            from = pos;
            let rest = raw[pos..].trim_start();
            pos += raw[pos..].len() - rest.len();
            let Some(rest) = rest.strip_prefix('=') else {
                taken += 1;
                continue;
            };
            pos += 1;
            let rest2 = rest.trim_start();
            pos += rest.len() - rest2.len();
            let Some(body) = rest2.strip_prefix('"') else {
                taken += 1;
                continue;
            };
            pos += 1;
            let name: String = body.chars().take_while(|c| *c != '"').collect();
            let _ = pos;
            if !name.is_empty() {
                out.push((i, name));
            }
            taken += 1;
        }
    }
    out
}

/// Number of non-overlapping `needle` occurrences in `haystack`.
fn occurrences(haystack: &str, needle: &str) -> usize {
    let mut count = 0;
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        count += 1;
        from += rel + needle.len();
    }
    count
}

/// Loads the manifest of each `crates/*` directory (plus the root
/// package manifest when present), keyed by crate directory name.
pub fn load_manifests(root: &Path) -> BTreeMap<String, ManifestInfo> {
    let mut manifests = BTreeMap::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let dir = entry.path();
            let manifest = dir.join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&manifest) else {
                continue;
            };
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let rel = manifest
                .strip_prefix(root)
                .unwrap_or(&manifest)
                .to_path_buf();
            manifests.insert(name.clone(), ManifestInfo::parse(rel, name, text.as_str()));
        }
    }
    let root_manifest = root.join("Cargo.toml");
    if let Ok(text) = std::fs::read_to_string(&root_manifest) {
        if text.contains("[package]") {
            manifests.insert(
                String::new(),
                ManifestInfo::parse(PathBuf::from("Cargo.toml"), String::new(), &text),
            );
        }
    }
    manifests
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAIN: FileClass = FileClass {
        hot_path: false,
        addr_exempt: false,
    };

    fn facts(src: &str) -> FileFacts {
        FileFacts::extract(
            PathBuf::from("t.rs"),
            "sim".to_string(),
            PLAIN,
            SourceFile::parse(src),
        )
    }

    #[test]
    fn fn_spans_cover_bodies_and_skip_declarations() {
        let f = facts("fn a() {\n body();\n}\ntrait T {\n fn decl(&self);\n}\nfn b() { x(); }");
        let names: Vec<&str> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!((f.fns[0].start, f.fns[0].end), (0, 2));
        assert_eq!((f.fns[1].start, f.fns[1].end), (6, 6));
    }

    #[test]
    fn enclosing_fn_prefers_the_innermost() {
        let f = facts("fn outer() {\n fn inner() {\n  x();\n }\n y();\n}");
        assert_eq!(f.enclosing_fn(2).map(|s| s.name.as_str()), Some("inner"));
        assert_eq!(f.enclosing_fn(4).map(|s| s.name.as_str()), Some("outer"));
        assert!(f.enclosing_fn(7).is_none());
    }

    #[test]
    fn test_functions_have_no_spans() {
        let f = facts("#[cfg(test)]\nmod tests {\n fn t() { x(); }\n}\nfn hot() {}");
        let names: Vec<&str> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["hot"]);
    }

    #[test]
    fn use_edges_capture_cameo_crates_only() {
        let f = facts(
            "use std::fmt;\nuse cameo_sim::pool;\npub use cameo::Llt;\nuse cameo_types::{A, B};",
        );
        let crates: Vec<&str> = f.uses.iter().map(|u| u.krate.as_str()).collect();
        assert_eq!(crates, ["cameo_sim", "cameo", "cameo_types"]);
        assert_eq!(f.uses[0].line, 1);
    }

    #[test]
    fn cfg_features_read_names_from_raw_text() {
        let f = facts(
            "#[cfg(feature = \"faults\")]\nfn a() {}\n// feature = \"comment-only\"\nif cfg!(feature = \"deep-audit\") {}",
        );
        assert_eq!(
            f.cfg_features,
            vec![(0, "faults".to_string()), (3, "deep-audit".to_string())]
        );
    }

    #[test]
    fn manifest_parse_reads_sections_keys_and_allows() {
        let text = "\
[package]\nname = \"cameo-sim\"\n\n[dependencies]\ncameo-types = { workspace = true }\nrand.workspace = true\n\n[dev-dependencies]\nproptest.workspace = true\n\n[features]\ndeep-audit = []\nfaults = [\"cameo/faults\"] # lint: allow(layer-dag)\n";
        let m = ManifestInfo::parse(PathBuf::from("Cargo.toml"), "sim".into(), text);
        assert_eq!(m.package, "cameo-sim");
        let deps: Vec<&str> = m.deps.iter().map(|(_, d)| d.as_str()).collect();
        assert_eq!(deps, ["cameo-types", "rand"]);
        let dev: Vec<&str> = m.dev_deps.iter().map(|(_, d)| d.as_str()).collect();
        assert_eq!(dev, ["proptest"]);
        assert_eq!(m.features, ["deep-audit", "faults"]);
        assert!(m.allowed(12, "layer-dag"));
        assert!(!m.allowed(4, "layer-dag"));
    }

    #[test]
    fn manifest_allow_on_line_above_applies() {
        let text = "[dependencies]\n# lint: allow(layer-dag) — bridge crate\ncameo-sim = { path = \"x\" }\n";
        let m = ManifestInfo::parse(PathBuf::from("Cargo.toml"), "core".into(), text);
        assert!(m.allowed(2, "layer-dag"));
    }

    #[test]
    fn package_name_and_ident_maps_agree() {
        for (pkg, ident) in [
            ("cameo-types", "cameo_types"),
            ("cameo", "cameo"),
            ("cameo-sim", "cameo_sim"),
            ("cameo-bench", "cameo_bench"),
        ] {
            assert_eq!(dir_for_package(pkg), dir_for_ident(ident));
        }
        assert_eq!(dir_for_package("rand"), None);
        assert_eq!(dir_for_ident("serde"), None);
    }
}
