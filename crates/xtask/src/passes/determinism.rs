//! Determinism pass: sweeps must be bit-identical at any `--jobs`.
//!
//! Three rules, all aimed at the reproducibility contract of
//! `SweepReport` (DESIGN.md §10):
//!
//! * `det-hash` — constructing a default-hasher `HashMap`/`HashSet`.
//!   std's SipHash keys are randomized per process, so iteration order —
//!   and anything derived from it — differs between runs. Simulator maps
//!   use `DetHashMap`/`DetHashSet` from `cameo-types` (stable FxHash)
//!   instead. The one exemption is the module that *defines* the
//!   deterministic hasher.
//! * `wall-clock` — reading the host clock (`Instant::now`,
//!   `SystemTime::now`). Wall-clock values are inherently
//!   non-reproducible and must stay out of report equality (`wall_nanos`
//!   is excluded from `PartialEq`), so every read needs an in-source
//!   `// lint: allow(wall-clock)` with its justification.
//! * `unordered-iter` — iterating a default-hasher map in the
//!   report-producing crates (`sim`, `bench`), where element order can
//!   reach a `SweepReport`, a printed table, or a checkpoint. The pass
//!   tracks local declarations of default-hasher collections per file
//!   and flags `.iter()`/`.keys()`/`.values()`/`.drain()`/`for … in`
//!   over them.

use std::collections::BTreeSet;

use crate::model::{ident_before, FileFacts, WorkspaceModel};
use crate::rules::Diagnostic;

/// Rule name: default-hasher hash collection construction.
pub const DET_HASH: &str = "det-hash";
/// Rule name: host wall-clock reads.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule name: unordered-map iteration in the report-producing crates.
pub const UNORDERED_ITER: &str = "unordered-iter";

/// The module defining the deterministic hasher may name std's types.
pub const DET_HASH_EXEMPT_FILE: &str = "crates/types/src/hash.rs";

/// Crates where map iteration order can reach a report.
pub const REPORT_CRATES: [&str; 2] = ["sim", "bench"];

/// Construction tokens that pick std's randomized default hasher.
const DET_HASH_TOKENS: [&str; 5] = [
    "HashMap::new",
    "HashMap::with_capacity",
    "HashSet::new",
    "HashSet::with_capacity",
    "RandomState",
];

/// Host-clock read tokens.
const WALL_CLOCK_TOKENS: [&str; 2] = ["Instant::now", "SystemTime::now"];

/// Iteration adaptors whose order is the map's bucket order.
const ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Runs the determinism pass over the whole model.
pub fn run(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &model.files {
        check_file(file, &mut out);
    }
    out
}

/// Runs the pass over one file's facts.
pub fn check_file(file: &FileFacts, out: &mut Vec<Diagnostic>) {
    let hash_exempt = file.path.ends_with(DET_HASH_EXEMPT_FILE);
    let report_crate = REPORT_CRATES.contains(&file.crate_dir.as_str());
    let tracked = report_crate.then(|| tracked_map_names(file));
    for (idx, line) in file.src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut report = |rule: &'static str, message: String| {
            if !file.src.allowed(idx, rule) {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: idx + 1,
                    rule,
                    message,
                });
            }
        };
        if !hash_exempt {
            if let Some(token) = first_token(&line.code, &DET_HASH_TOKENS) {
                report(
                    DET_HASH,
                    format!(
                        "`{token}` selects std's per-process randomized hasher; use \
                         `DetHashMap`/`DetHashSet` from `cameo-types` (stable seed) \
                         so iteration order is reproducible, or justify with an allow"
                    ),
                );
            }
        }
        if let Some(token) = first_token(&line.code, &WALL_CLOCK_TOKENS) {
            report(
                WALL_CLOCK,
                format!(
                    "`{token}` reads the host clock; wall-clock values are \
                     non-reproducible and must never feed simulated state or \
                     report equality"
                ),
            );
        }
        if let Some(tracked) = &tracked {
            if let Some(name) = iterated_map(&line.code, tracked) {
                report(
                    UNORDERED_ITER,
                    format!(
                        "iterating default-hasher map `{name}` in a report-producing \
                         crate; element order is nondeterministic — collect and sort, \
                         or declare it as `DetHashMap`/`DetHashSet`"
                    ),
                );
            }
        }
    }
}

/// First matching token on a code line, honoring a word boundary before.
fn first_token<'t>(code: &str, tokens: &[&'t str]) -> Option<&'t str> {
    for token in tokens {
        let mut from = 0;
        while let Some(rel) = code[from..].find(token) {
            let pos = from + rel;
            if !ident_before(code, pos) {
                return Some(token);
            }
            from = pos + token.len();
        }
    }
    None
}

/// Names of locals/fields declared as default-hasher collections in this
/// file: `name: HashMap<…>` annotations and `name = HashMap::new()`-style
/// initializations (same for `HashSet`, `with_capacity`).
fn tracked_map_names(file: &FileFacts) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in &file.src.lines {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        for token in [
            "HashMap<",
            "HashSet<",
            "HashMap::new",
            "HashMap::with_capacity",
            "HashSet::new",
            "HashSet::with_capacity",
        ] {
            let mut from = 0;
            while let Some(rel) = code[from..].find(token) {
                let pos = from + rel;
                from = pos + token.len();
                if ident_before(code, pos) {
                    continue; // `DetHashMap<…>` and friends
                }
                let sep = if token.ends_with('<') { ':' } else { '=' };
                if let Some(name) = declared_name(code, pos, sep) {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// Walks left from a collection token to the declared identifier:
/// `name: [path::]HashMap<` or `name = [path::]HashMap::new`.
fn declared_name(code: &str, token_pos: usize, sep: char) -> Option<String> {
    let bytes = code.as_bytes();
    let mut k = token_pos;
    // Skip any qualifying path (`std::collections::`).
    while k > 0 {
        let c = bytes[k - 1] as char;
        if c.is_alphanumeric() || c == '_' || c == ':' {
            k -= 1;
        } else {
            break;
        }
    }
    while k > 0 && bytes[k - 1] == b' ' {
        k -= 1;
    }
    if k == 0 || bytes[k - 1] != sep as u8 {
        return None;
    }
    k -= 1;
    // For `:` the separator is a single colon (a `::` path was consumed
    // above, so a stray second colon means this was not an annotation).
    if sep == ':' && k > 0 && bytes[k - 1] == b':' {
        return None;
    }
    while k > 0 && bytes[k - 1] == b' ' {
        k -= 1;
    }
    let end = k;
    while k > 0 {
        let c = bytes[k - 1] as char;
        if c.is_alphanumeric() || c == '_' {
            k -= 1;
        } else {
            break;
        }
    }
    (k < end).then(|| code[k..end].to_string())
}

/// The tracked map iterated on this line, if any: either through an
/// iteration adaptor or as the tail of a `for … in` loop.
fn iterated_map(code: &str, tracked: &BTreeSet<String>) -> Option<String> {
    for name in tracked {
        for method in ITER_METHODS {
            let pat = format!("{name}{method}");
            let mut from = 0;
            while let Some(rel) = code[from..].find(&pat) {
                let pos = from + rel;
                if !ident_before(code, pos) {
                    return Some(name.clone());
                }
                from = pos + pat.len();
            }
        }
    }
    // `for pat in name` / `in &name` / `in &mut name`.
    let for_pos = code.find("for ")?;
    let in_rel = code[for_pos..].find(" in ")?;
    let tail = code[for_pos + in_rel + " in ".len()..]
        .trim_start()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start();
    let ident: String = tail
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    tracked.contains(&ident).then_some(ident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileClass;
    use crate::scanner::SourceFile;
    use std::path::PathBuf;

    fn check(path: &str, crate_dir: &str, src: &str) -> Vec<Diagnostic> {
        let facts = FileFacts::extract(
            PathBuf::from(path),
            crate_dir.to_string(),
            FileClass {
                hot_path: false,
                addr_exempt: false,
            },
            SourceFile::parse(src),
        );
        let mut out = Vec::new();
        check_file(&facts, &mut out);
        out
    }

    #[test]
    fn default_hasher_construction_is_flagged() {
        for src in [
            "fn f() { let m: HashMap<u64, u64> = HashMap::new(); }",
            "fn f() { let s = std::collections::HashSet::with_capacity(8); }",
            "fn f() { let h = RandomState::new(); }",
        ] {
            let d = check("crates/core/src/x.rs", "core", src);
            assert_eq!(d.len(), 1, "{src}");
            assert_eq!(d[0].rule, DET_HASH);
        }
    }

    #[test]
    fn det_collections_and_exempt_file_pass() {
        assert!(check(
            "crates/core/src/x.rs",
            "core",
            "fn f() { let m: DetHashMap<u64, u64> = DetHashMap::default(); }"
        )
        .is_empty());
        assert!(check(
            "crates/types/src/hash.rs",
            "types",
            "pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;\nfn f() { let m = HashMap::new(); }"
        )
        .iter()
        .all(|d| d.rule != DET_HASH));
    }

    #[test]
    fn wall_clock_reads_are_flagged_outside_perf() {
        let src = "fn f() { let t = Instant::now(); let s = std::time::SystemTime::now(); }";
        let d = check("crates/sim/src/x.rs", "sim", src);
        assert_eq!(d.iter().filter(|d| d.rule == WALL_CLOCK).count(), 1); // one per line
    }

    #[test]
    fn wall_clock_allow_suppresses() {
        let src = "fn f() { let t = Instant::now(); } // lint: allow(wall-clock)";
        assert!(check("crates/sim/src/x.rs", "sim", src).is_empty());
    }

    #[test]
    fn unordered_iteration_flagged_in_report_crates_only() {
        let src = "fn f() {\n let mut m: HashMap<u64, u64> = HashMap::new();\n for (k, v) in &m { use_(k, v); }\n let t: u64 = m.values().sum();\n}";
        let d = check("crates/sim/src/x.rs", "sim", src);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            [DET_HASH, UNORDERED_ITER, UNORDERED_ITER],
            "decl flagged once, both iterations flagged"
        );
        // Outside the report crates only the construction is flagged.
        let d = check("crates/core/src/x.rs", "core", src);
        assert_eq!(d.iter().filter(|d| d.rule == UNORDERED_ITER).count(), 0);
    }

    #[test]
    fn iteration_over_det_and_btree_maps_is_fine() {
        let src = "fn f() {\n let mut m: DetHashMap<u64, u64> = DetHashMap::default();\n let b: BTreeMap<u64, u64> = BTreeMap::new();\n for (k, v) in &m {}\n for x in b.values() {}\n}";
        assert!(check("crates/sim/src/x.rs", "sim", src).is_empty());
    }

    #[test]
    fn lookup_only_maps_are_not_flagged_for_iteration() {
        let src = "fn f() {\n let mut m: HashMap<u64, u64> = HashMap::new();\n m.insert(1, 2);\n let v = m.get(&1);\n}";
        let d = check("crates/sim/src/x.rs", "sim", src);
        assert_eq!(d.iter().filter(|d| d.rule == UNORDERED_ITER).count(), 0);
    }
}
