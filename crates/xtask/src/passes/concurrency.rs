//! Concurrency pass: atomics follow a declared protocol, locks are
//! poison-safe, and guards never straddle an unwind boundary.
//!
//! * `atomic-protocol` — every `Ordering::…` in non-test code must match
//!   an entry of [`ATOMIC_PROTOCOL`], the workspace's declared table of
//!   atomic call sites. The table records *why* each ordering is
//!   sufficient; a new atomic (or a changed ordering) fails the lint
//!   until it is registered with a justification, and an entry that no
//!   site matches any more fails the workspace lint too
//!   ([`unmatched_entries`]), so the table never documents a protocol
//!   the code has dropped. This is the static counterpart of the TSan CI
//!   job: TSan checks the executions we happen to run, the table makes
//!   the intended protocol reviewable.
//! * `lock-unwrap` — bare `.lock().unwrap()`. A panicking worker poisons
//!   the mutex, and every later `.unwrap()` then panics too, cascading a
//!   single fault across the sweep. Recover from poisoning explicitly
//!   (`PoisonError::into_inner`) or state the invariant with `.expect`.
//! * `lock-unwind` — a `catch_unwind` below a `.lock(` in the same
//!   function body. A `MutexGuard` held across the unwind boundary is
//!   poisoned by any panic inside it, which defeats the harness's
//!   crash-isolation contract (the sweep must keep running). Drop the
//!   guard first, or move the lock inside the isolated closure.

use crate::model::{FileFacts, WorkspaceModel};
use crate::rules::Diagnostic;

/// Rule name: unregistered atomic ordering.
pub const ATOMIC_PROTOCOL: &str = "atomic-protocol";
/// Rule name: bare `.lock().unwrap()`.
pub const LOCK_UNWRAP: &str = "lock-unwrap";
/// Rule name: lock held across `catch_unwind`.
pub const LOCK_UNWIND: &str = "lock-unwind";

/// One registered atomic call site.
#[derive(Debug, Clone, Copy)]
pub struct AtomicUse {
    /// Workspace-relative file suffix the site lives in.
    pub file: &'static str,
    /// Receiver identifier (last path segment, e.g. `flag` for
    /// `self.flag.store(…)`).
    pub receiver: &'static str,
    /// Atomic method name (`load`, `store`, `fetch_add`, …).
    pub method: &'static str,
    /// Orderings this site is allowed to use.
    pub orderings: &'static [&'static str],
    /// Why these orderings are sufficient — the protocol documentation.
    pub why: &'static str,
}

/// The declared atomic protocol of the workspace.
///
/// Every non-test `Ordering::…` use must match one entry. Keep the
/// justifications honest: they are the reviewable memory-ordering
/// design, mirrored in DESIGN.md §13.
pub const ATOMIC_PROTOCOL_TABLE: &[AtomicUse] = &[
    AtomicUse {
        file: "crates/sim/src/pool.rs",
        receiver: "flag",
        method: "store",
        orderings: &["Release"],
        why: "cancellation publish: pairs with the Acquire load in \
              `Cancel::is_cancelled`, ordering the cancel cause before the flag",
    },
    AtomicUse {
        file: "crates/sim/src/pool.rs",
        receiver: "flag",
        method: "load",
        orderings: &["Acquire"],
        why: "cancellation observe: pairs with the Release store in `Cancel::cancel`",
    },
    AtomicUse {
        file: "crates/sim/src/pool.rs",
        receiver: "next",
        method: "fetch_add",
        orderings: &["Relaxed"],
        why: "sweep claim cursor: `fetch_add` hands out each point index once; \
              no other memory is published through it, because results flow \
              through per-point mutex cells and the `thread::scope` join",
    },
];

/// Atomic method names, longest-first so substrings never shadow.
const ATOMIC_METHODS: [&str; 14] = [
    "compare_exchange_weak",
    "compare_exchange",
    "fetch_update",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "store",
    "load",
    "swap",
];

/// The atomic ordering variants (`std::sync::atomic::Ordering`).
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs the concurrency pass over the whole model.
pub fn run(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &model.files {
        check_file(file, &mut out);
    }
    out
}

/// Runs the pass over one file's facts.
pub fn check_file(file: &FileFacts, out: &mut Vec<Diagnostic>) {
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
        for (pos, ordering) in ordering_sites(&line.code) {
            let site = call_site(&line.code, pos);
            if !is_registered(&file.path, site.as_ref(), ordering) {
                let shown = site.as_ref().map_or_else(
                    || format!("`Ordering::{ordering}`"),
                    |(r, m)| format!("`{r}.{m}(… Ordering::{ordering})`"),
                );
                report(
                    ATOMIC_PROTOCOL,
                    format!(
                        "{shown} is not in the declared atomic protocol; register \
                         it with a justification in `ATOMIC_PROTOCOL_TABLE` \
                         (crates/xtask/src/passes/concurrency.rs) or fix the ordering"
                    ),
                );
            }
        }
        if line.code.contains(".lock().unwrap()") || line.code.contains(".lock() .unwrap()") {
            report(
                LOCK_UNWRAP,
                "bare `.lock().unwrap()` cascades mutex poisoning across workers; \
                 recover with `PoisonError::into_inner` or state the invariant \
                 with `.expect(…)`"
                    .to_string(),
            );
        }
    }
    check_lock_across_unwind(file, out);
}

/// Byte positions and variant names of `Ordering::X` tokens on a line.
fn ordering_sites(code: &str) -> Vec<(usize, &'static str)> {
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find("Ordering::") {
        let pos = from + rel;
        let after = &code[pos + "Ordering::".len()..];
        from = pos + "Ordering::".len();
        for variant in ORDERINGS {
            if let Some(tail) = after.strip_prefix(variant) {
                let next = tail.chars().next();
                if !next.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    sites.push((pos, variant));
                }
                break;
            }
        }
    }
    sites
}

/// The `(receiver, method)` of the atomic call whose argument list holds
/// the ordering at byte `ord_pos`, parsed from the text to its left.
fn call_site(code: &str, ord_pos: usize) -> Option<(String, String)> {
    let head = &code[..ord_pos];
    let mut best: Option<(usize, &str)> = None;
    for method in ATOMIC_METHODS {
        let pat = format!(".{method}(");
        let mut from = 0;
        while let Some(rel) = head[from..].find(&pat) {
            let pos = from + rel;
            from = pos + 1;
            if best.is_none_or(|(b, _)| pos > b) {
                best = Some((pos, method));
            }
        }
    }
    let (pos, method) = best?;
    let bytes = head.as_bytes();
    let mut k = pos;
    while k > 0 {
        let c = bytes[k - 1] as char;
        if c.is_alphanumeric() || c == '_' || c == '.' || c == ':' {
            k -= 1;
        } else {
            break;
        }
    }
    let receiver = head[k..pos]
        .rsplit(['.', ':'])
        .find(|s| !s.is_empty())?
        .to_string();
    Some((receiver, method.to_string()))
}

/// Whether `(file, site, ordering)` matches a protocol-table entry.
fn is_registered(path: &std::path::Path, site: Option<&(String, String)>, ordering: &str) -> bool {
    ATOMIC_PROTOCOL_TABLE
        .iter()
        .any(|entry| entry_matches(entry, path, site, ordering))
}

/// Whether one protocol-table entry covers `(file, site, ordering)`.
fn entry_matches(
    entry: &AtomicUse,
    path: &std::path::Path,
    site: Option<&(String, String)>,
    ordering: &str,
) -> bool {
    site.is_some_and(|(receiver, method)| {
        path.ends_with(entry.file)
            && entry.receiver == receiver
            && entry.method == method
            && entry.orderings.contains(&ordering)
    })
}

/// Protocol-table entries that no non-test site in `model` matches: the
/// table would document a protocol the code has dropped. Only meaningful
/// against the real workspace (the fixture tree holds a few of the
/// sites), so the CLI and the workspace self-test check it there.
pub fn unmatched_entries(model: &WorkspaceModel) -> Vec<&'static AtomicUse> {
    let mut matched = [false; ATOMIC_PROTOCOL_TABLE.len()];
    for file in &model.files {
        for line in file.src.lines.iter().filter(|line| !line.in_test) {
            for (pos, ordering) in ordering_sites(&line.code) {
                let site = call_site(&line.code, pos);
                for (entry, hit) in ATOMIC_PROTOCOL_TABLE.iter().zip(matched.iter_mut()) {
                    *hit |= entry_matches(entry, &file.path, site.as_ref(), ordering);
                }
            }
        }
    }
    ATOMIC_PROTOCOL_TABLE
        .iter()
        .zip(matched)
        .filter_map(|(entry, hit)| (!hit).then_some(entry))
        .collect()
}

/// Flags every `catch_unwind` that sits below a `.lock(` in the same
/// (innermost) function body.
fn check_lock_across_unwind(file: &FileFacts, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(catch_pos) = find_bounded(&line.code, "catch_unwind") else {
            continue;
        };
        let Some(span) = file.enclosing_fn(idx) else {
            continue;
        };
        let lock_before = (span.start..=idx).any(|j| {
            let code = &file.src.lines[j].code;
            match code.find(".lock(") {
                Some(pos) => j < idx || pos < catch_pos,
                None => false,
            }
        });
        if lock_before && !file.src.allowed(idx, LOCK_UNWIND) {
            out.push(Diagnostic {
                path: file.path.clone(),
                line: idx + 1,
                rule: LOCK_UNWIND,
                message: format!(
                    "`catch_unwind` below a `.lock(` in fn `{}`; a guard held \
                     across the unwind boundary is poisoned by any panic inside \
                     it — drop the guard first or lock inside the closure",
                    span.name
                ),
            });
        }
    }
}

/// Position of `needle` in `code` at a word boundary, if any.
fn find_bounded(code: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let pos = from + rel;
        from = pos + needle.len();
        let before = crate::model::ident_before(code, pos);
        let after = code[pos + needle.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !before && !after {
            return Some(pos);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileFacts;
    use crate::rules::FileClass;
    use crate::scanner::SourceFile;
    use std::path::PathBuf;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let facts = FileFacts::extract(
            PathBuf::from(path),
            "sim".to_string(),
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

    const POOL_SITES: &str = "fn f(&self) {\n self.flag.store(true, Ordering::Release);\n let c = self.flag.load(Ordering::Acquire);\n let n = next.fetch_add(1, Ordering::Relaxed);\n}";

    #[test]
    fn registered_pool_protocol_is_clean() {
        assert!(check("crates/sim/src/pool.rs", POOL_SITES).is_empty());
    }

    fn model_of(files: &[(&str, &str)]) -> WorkspaceModel {
        WorkspaceModel {
            files: files
                .iter()
                .map(|(path, src)| {
                    FileFacts::extract(
                        PathBuf::from(path),
                        "sim".to_string(),
                        FileClass {
                            hot_path: false,
                            addr_exempt: false,
                        },
                        SourceFile::parse(src),
                    )
                })
                .collect(),
            manifests: std::collections::BTreeMap::new(),
        }
    }

    #[test]
    fn table_entry_without_a_matching_site_is_unmatched() {
        let all = model_of(&[("crates/sim/src/pool.rs", POOL_SITES)]);
        assert!(unmatched_entries(&all).is_empty());

        // Dropping the cursor from the pool leaves its entry behind; the
        // same site in a test module or another file does not match it.
        let pool_without_cursor = "fn f(&self) {\n self.flag.store(true, Ordering::Release);\n let c = self.flag.load(Ordering::Acquire);\n}\n#[cfg(test)]\nmod tests {\n fn t() { next.fetch_add(1, Ordering::Relaxed); }\n}";
        let cursor_elsewhere = "fn scan() { let i = next.fetch_add(1, Ordering::Relaxed); }";
        let stale = model_of(&[
            ("crates/sim/src/pool.rs", pool_without_cursor),
            ("crates/sim/src/harness.rs", cursor_elsewhere),
        ]);
        let unmatched = unmatched_entries(&stale);
        assert_eq!(unmatched.len(), 1);
        assert_eq!(
            (
                unmatched[0].file,
                unmatched[0].receiver,
                unmatched[0].method
            ),
            ("crates/sim/src/pool.rs", "next", "fetch_add")
        );
        // A file the table names but the tree lacks leaves every one of
        // its entries unmatched.
        assert_eq!(
            unmatched_entries(&model_of(&[(
                "crates/sim/src/harness.rs",
                cursor_elsewhere
            )]))
            .len(),
            ATOMIC_PROTOCOL_TABLE.len()
        );
    }

    #[test]
    fn unregistered_ordering_or_site_is_flagged() {
        // Registered receiver+method, wrong ordering.
        let d = check(
            "crates/sim/src/pool.rs",
            "fn f(&self) { self.flag.store(true, Ordering::SeqCst); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, ATOMIC_PROTOCOL);
        // Unregistered receiver.
        let d = check(
            "crates/sim/src/pool.rs",
            "fn f() { other.store(1, Ordering::Release); }",
        );
        assert_eq!(d.len(), 1);
        // Registered site but wrong file.
        let d = check(
            "crates/sim/src/harness.rs",
            "fn f(&self) { self.flag.store(true, Ordering::Release); }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn compare_exchange_checks_both_orderings() {
        let d = check(
            "crates/sim/src/pool.rs",
            "fn f() { c.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire); }",
        );
        assert_eq!(d.len(), 2, "both orderings unregistered");
    }

    #[test]
    fn bare_ordering_token_without_call_is_flagged_and_allowable() {
        let d = check(
            "crates/sim/src/x.rs",
            "fn f() { let o = Ordering::SeqCst; }",
        );
        assert_eq!(d.len(), 1);
        assert!(check(
            "crates/sim/src/x.rs",
            "// lint: allow(atomic-protocol)\nfn g() { let o = Ordering::SeqCst; }"
        )
        .is_empty());
    }

    #[test]
    fn cmp_ordering_variants_do_not_match() {
        assert!(check(
            "crates/sim/src/x.rs",
            "fn f() { a.cmp(&b).then(Ordering::Less); use std::sync::atomic::Ordering; }"
        )
        .is_empty());
    }

    #[test]
    fn lock_unwrap_is_flagged() {
        let d = check("crates/sim/src/x.rs", "fn f() { *m.lock().unwrap() }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, LOCK_UNWRAP);
        assert!(check(
            "crates/sim/src/x.rs",
            "fn f() { m.lock().expect(\"held only for the push below\") }"
        )
        .is_empty());
    }

    #[test]
    fn lock_above_catch_unwind_in_same_fn_is_flagged() {
        let src = "fn f(m: &Mutex<u64>) {\n let g = m.lock().expect(\"state is one atomic Option store\");\n let r = catch_unwind(|| work());\n drop(g);\n}";
        let d = check("crates/sim/src/x.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == LOCK_UNWIND).count(), 1);
        assert_eq!(
            d.iter().find(|d| d.rule == LOCK_UNWIND).map(|d| d.line),
            Some(3)
        );
    }

    #[test]
    fn lock_and_catch_in_separate_fns_are_fine() {
        let src = "fn locked(m: &Mutex<u64>) -> u64 { *m.lock().expect(\"single-store state never torn\") }\nfn isolated() { let _ = catch_unwind(|| work()); }";
        assert!(check("crates/sim/src/x.rs", src)
            .iter()
            .all(|d| d.rule != LOCK_UNWIND));
    }

    #[test]
    fn lock_inside_the_isolated_closure_is_fine() {
        let src = "fn f(m: &Mutex<u64>) {\n let r = catch_unwind(|| *m.lock().expect(\"closure-scoped guard dropped before unwind\"));\n}";
        assert!(check("crates/sim/src/x.rs", src)
            .iter()
            .all(|d| d.rule != LOCK_UNWIND));
    }

    #[test]
    fn lock_unwind_allow_suppresses() {
        let src = "fn f(m: &Mutex<u64>) {\n let g = m.lock().expect(\"guard reused across the isolated probe\");\n // lint: allow(lock-unwind)\n let r = catch_unwind(|| work());\n}";
        assert!(check("crates/sim/src/x.rs", src)
            .iter()
            .all(|d| d.rule != LOCK_UNWIND));
    }

    #[test]
    fn protocol_table_entries_are_well_formed() {
        for entry in ATOMIC_PROTOCOL_TABLE {
            assert!(
                !entry.why.is_empty(),
                "{}: justification required",
                entry.file
            );
            assert!(!entry.orderings.is_empty());
            assert!(ATOMIC_METHODS.contains(&entry.method));
            for o in entry.orderings {
                assert!(ORDERINGS.contains(o));
            }
        }
    }
}
