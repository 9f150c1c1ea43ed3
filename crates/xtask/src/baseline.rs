//! The `cameo-lint/1` diagnostics document and the accepted-findings
//! baseline.
//!
//! `cargo xtask lint --json` emits a `cameo-lint/1` document: the full
//! sorted finding list, each entry marked `accepted` when the checked-in
//! baseline covers it. CI is deny-by-default: a finding outside the
//! baseline fails the build, and so does a stale baseline entry that no
//! longer matches anything (stale entries hide drift — regenerate with
//! `cargo xtask lint --update-baseline`).
//!
//! The baseline (`lint-baseline.json` at the workspace root, schema
//! `cameo-lint-baseline/1`) is the ledger of findings the repository has
//! *decided to live with*; every entry carries a `reason`. Prefer an
//! in-source `// lint: allow(<rule>)` when the justification belongs
//! next to the code; prefer a baseline entry when annotating the source
//! would be noise (e.g. the per-point wall-clock read). Both are
//! reviewable records — the lint never suppresses silently.
//!
//! Serialization is canonical (two-space indent, fixed key order, sorted
//! entries, trailing newline), so the baseline round-trips byte-for-byte
//! through parse → render; a self-test pins that.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::rules::Diagnostic;

/// Schema tag of the diagnostics document.
pub const LINT_SCHEMA: &str = "cameo-lint/1";
/// Schema tag of the baseline file.
pub const BASELINE_SCHEMA: &str = "cameo-lint-baseline/1";
/// Baseline file name, relative to the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// One accepted finding in the baseline ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name.
    pub rule: String,
    /// Why this finding is accepted rather than fixed.
    pub reason: String,
}

impl BaselineEntry {
    fn key(&self) -> (&str, usize, &str) {
        (&self.path, self.line, &self.rule)
    }
}

/// The parsed baseline ledger.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Accepted findings, kept in canonical (path, line, rule) order.
    pub entries: Vec<BaselineEntry>,
}

/// Splitting `diags` against a baseline: what is new, what the baseline
/// covers, and which entries no longer match anything.
#[derive(Debug, Default)]
pub struct BaselineCheck {
    /// Findings with no baseline entry — these fail the lint.
    pub fresh: Vec<Diagnostic>,
    /// Findings covered by the baseline.
    pub accepted: Vec<Diagnostic>,
    /// Baseline entries matching no current finding — these also fail.
    pub stale: Vec<BaselineEntry>,
}

impl Baseline {
    /// Loads the baseline from `path`. A missing file is an empty
    /// baseline (deny-by-default); a malformed file is an error.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Baseline::default()),
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses a `cameo-lint-baseline/1` document.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text)?;
        let schema = doc.get("schema").and_then(Value::as_str);
        if schema != Some(BASELINE_SCHEMA) {
            return Err(format!(
                "schema is {schema:?}, expected {BASELINE_SCHEMA:?}"
            ));
        }
        let accepted = doc
            .get("accepted")
            .and_then(Value::as_arr)
            .ok_or("missing `accepted` array")?;
        let mut entries = Vec::with_capacity(accepted.len());
        for (i, entry) in accepted.iter().enumerate() {
            let field = |name: &str| {
                entry
                    .get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("entry {i}: missing string `{name}`"))
            };
            let line = entry
                .get("line")
                .and_then(Value::as_u64)
                .ok_or(format!("entry {i}: missing integer `line`"))?;
            entries.push(BaselineEntry {
                path: field("path")?,
                line: usize::try_from(line).map_err(|_| format!("entry {i}: line overflow"))?,
                rule: field("rule")?,
                reason: field("reason")?,
            });
        }
        Ok(Baseline { entries })
    }

    /// Renders the canonical byte-exact form (`parse(render(b)) == b`
    /// and `render(parse(t)) == t` for canonical `t`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{BASELINE_SCHEMA}\",");
        if self.entries.is_empty() {
            out.push_str("  \"accepted\": []\n");
        } else {
            out.push_str("  \"accepted\": [\n");
            for (i, entry) in self.entries.iter().enumerate() {
                out.push_str("    {\n");
                let _ = writeln!(out, "      \"path\": \"{}\",", json::escape(&entry.path));
                let _ = writeln!(out, "      \"line\": {},", entry.line);
                let _ = writeln!(out, "      \"rule\": \"{}\",", json::escape(&entry.rule));
                let _ = writeln!(out, "      \"reason\": \"{}\"", json::escape(&entry.reason));
                out.push_str(if i + 1 < self.entries.len() {
                    "    },\n"
                } else {
                    "    }\n"
                });
            }
            out.push_str("  ]\n");
        }
        out.push_str("}\n");
        out
    }

    /// Splits `diags` into fresh / accepted and reports stale entries.
    pub fn check(&self, diags: &[Diagnostic]) -> BaselineCheck {
        let mut result = BaselineCheck::default();
        let mut matched = vec![false; self.entries.len()];
        for diag in diags {
            let key = (diag_path(diag), diag.line, diag.rule);
            let hit = self.entries.iter().position(|e| {
                (e.path.as_str(), e.line, e.rule.as_str()) == (key.0.as_str(), key.1, key.2)
            });
            match hit {
                Some(i) => {
                    matched[i] = true;
                    result.accepted.push(diag.clone());
                }
                None => result.fresh.push(diag.clone()),
            }
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if !matched[i] {
                result.stale.push(entry.clone());
            }
        }
        result
    }

    /// Rebuilds the baseline from the current findings, carrying over
    /// reasons from matching old entries: the exact key first, then the
    /// first unclaimed same-(path, rule) entry — line drift. The drift
    /// fallback applies only while the (path, rule) pair has as many
    /// findings as entries: once one of them is gone, a moved finding
    /// cannot be told from the removed one, so it gets the TODO reason
    /// rather than a possibly wrong one.
    pub fn regenerate(&self, diags: &[Diagnostic]) -> Baseline {
        let mut claimed = vec![false; self.entries.len()];
        let mut entries: Vec<BaselineEntry> = diags
            .iter()
            .map(|diag| {
                let path = diag_path(diag);
                let exact = self.entries.iter().position(|e| {
                    (e.path.as_str(), e.line, e.rule.as_str())
                        == (path.as_str(), diag.line, diag.rule)
                });
                let pick = exact.or_else(|| {
                    let same = |e: &BaselineEntry| e.path == path && e.rule == diag.rule;
                    let findings = diags
                        .iter()
                        .filter(|d| d.rule == diag.rule && diag_path(d) == path)
                        .count();
                    if self.entries.iter().filter(|e| same(e)).count() != findings {
                        return None;
                    }
                    self.entries
                        .iter()
                        .enumerate()
                        .position(|(i, e)| !claimed[i] && same(e))
                });
                let reason = match pick {
                    Some(i) => {
                        claimed[i] = true;
                        self.entries[i].reason.clone()
                    }
                    None => "TODO: justify this accepted finding or fix it".to_string(),
                };
                BaselineEntry {
                    path,
                    line: diag.line,
                    rule: diag.rule.to_string(),
                    reason,
                }
            })
            .collect();
        entries.sort_by(|a, b| a.key().cmp(&b.key()));
        entries.dedup();
        Baseline { entries }
    }
}

/// A diagnostic's path as the baseline stores it (forward slashes).
fn diag_path(diag: &Diagnostic) -> String {
    diag.path
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Renders the `cameo-lint/1` diagnostics document: every finding in
/// canonical order, marked with its baseline acceptance.
pub fn render_findings(check: &BaselineCheck) -> String {
    let mut findings: Vec<(&Diagnostic, bool)> = check
        .fresh
        .iter()
        .map(|d| (d, false))
        .chain(check.accepted.iter().map(|d| (d, true)))
        .collect();
    findings.sort_by(|(a, _), (b, _)| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{LINT_SCHEMA}\",");
    if findings.is_empty() {
        out.push_str("  \"findings\": []\n");
    } else {
        out.push_str("  \"findings\": [\n");
        for (i, (diag, accepted)) in findings.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(
                out,
                "      \"path\": \"{}\",",
                json::escape(&diag_path(diag))
            );
            let _ = writeln!(out, "      \"line\": {},", diag.line);
            let _ = writeln!(out, "      \"rule\": \"{}\",", json::escape(diag.rule));
            let _ = writeln!(
                out,
                "      \"message\": \"{}\",",
                json::escape(&diag.message)
            );
            let _ = writeln!(out, "      \"accepted\": {accepted}");
            out.push_str(if i + 1 < findings.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n");
    }
    out.push_str("}\n");
    out
}

/// Validates that `text` is a well-formed `cameo-lint/1` document,
/// returning the number of findings. Used by the self-tests.
pub fn validate_findings(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(LINT_SCHEMA) {
        return Err(format!("schema tag is not {LINT_SCHEMA:?}"));
    }
    let findings = doc
        .get("findings")
        .and_then(Value::as_arr)
        .ok_or("missing `findings` array")?;
    for (i, f) in findings.iter().enumerate() {
        for key in ["path", "rule", "message"] {
            if f.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("finding {i}: missing string `{key}`"));
            }
        }
        if f.get("line").and_then(Value::as_u64).is_none() {
            return Err(format!("finding {i}: missing integer `line`"));
        }
        if !matches!(f.get("accepted"), Some(Value::Bool(_))) {
            return Err(format!("finding {i}: missing bool `accepted`"));
        }
    }
    Ok(findings.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn diag(path: &str, line: usize, rule: &'static str) -> Diagnostic {
        Diagnostic {
            path: PathBuf::from(path),
            line,
            rule,
            message: format!("finding at {path}:{line}"),
        }
    }

    fn entry(path: &str, line: usize, rule: &str, reason: &str) -> BaselineEntry {
        BaselineEntry {
            path: path.to_string(),
            line,
            rule: rule.to_string(),
            reason: reason.to_string(),
        }
    }

    #[test]
    fn render_parse_round_trips_byte_identically() {
        for baseline in [
            Baseline::default(),
            Baseline {
                entries: vec![
                    entry(
                        "crates/sim/src/harness.rs",
                        351,
                        "wall-clock",
                        "perf metric",
                    ),
                    entry(
                        "crates/sim/src/harness.rs",
                        387,
                        "wall-clock",
                        "perf \"quoted\"",
                    ),
                ],
            },
        ] {
            let text = baseline.render();
            let reparsed = Baseline::parse(&text).expect("rendered baseline parses");
            assert_eq!(reparsed, baseline);
            assert_eq!(reparsed.render(), text, "byte-identical round trip");
        }
    }

    #[test]
    fn check_splits_fresh_accepted_stale() {
        let baseline = Baseline {
            entries: vec![
                entry("a.rs", 1, "wall-clock", "ok"),
                entry("gone.rs", 9, "det-hash", "was fixed"),
            ],
        };
        let diags = [diag("a.rs", 1, "wall-clock"), diag("b.rs", 2, "det-hash")];
        let check = baseline.check(&diags);
        assert_eq!(check.accepted.len(), 1);
        assert_eq!(check.fresh.len(), 1);
        assert_eq!(check.fresh[0].path, PathBuf::from("b.rs"));
        assert_eq!(check.stale.len(), 1);
        assert_eq!(check.stale[0].path, "gone.rs");
    }

    #[test]
    fn regenerate_preserves_reasons_across_line_drift() {
        let old = Baseline {
            entries: vec![entry("a.rs", 10, "wall-clock", "sweep timer")],
        };
        let new = old.regenerate(&[diag("a.rs", 14, "wall-clock")]);
        assert_eq!(new.entries.len(), 1);
        assert_eq!(new.entries[0].line, 14);
        assert_eq!(new.entries[0].reason, "sweep timer");
        let fresh = old.regenerate(&[diag("c.rs", 1, "det-hash")]);
        assert!(fresh.entries[0].reason.starts_with("TODO"));
    }

    /// Two entries share a (path, rule); the first finding goes away and
    /// the second moves. The survivor must not inherit the deleted
    /// entry's reason: with the count changed, it gets the TODO reason.
    #[test]
    fn regenerate_does_not_hand_a_removed_entrys_reason_to_a_survivor() {
        let old = Baseline {
            entries: vec![
                entry("a.rs", 10, "wall-clock", "sweep timer"),
                entry("a.rs", 40, "wall-clock", "point timer"),
            ],
        };
        let new = old.regenerate(&[diag("a.rs", 35, "wall-clock")]);
        assert_eq!(new.entries.len(), 1);
        assert_eq!(new.entries[0].line, 35);
        assert!(
            new.entries[0].reason.starts_with("TODO"),
            "{}",
            new.entries[0].reason
        );
        // An unmoved survivor still keeps its own reason by exact key.
        let kept = old.regenerate(&[diag("a.rs", 40, "wall-clock")]);
        assert_eq!(kept.entries[0].reason, "point timer");
    }

    #[test]
    fn findings_document_validates() {
        let baseline = Baseline {
            entries: vec![entry("a.rs", 1, "wall-clock", "ok")],
        };
        let check = baseline.check(&[diag("a.rs", 1, "wall-clock"), diag("b.rs", 2, "det-hash")]);
        let text = render_findings(&check);
        assert_eq!(validate_findings(&text), Ok(2));
        assert!(validate_findings("{}").is_err());
        assert!(validate_findings("{\"schema\": \"cameo-lint/1\"}").is_err());
    }

    #[test]
    fn missing_baseline_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/lint-baseline.json"))
            .expect("missing file is an empty baseline");
        assert!(b.entries.is_empty());
    }
}
