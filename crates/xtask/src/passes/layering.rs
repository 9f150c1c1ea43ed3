//! Layering pass: the crate DAG and feature-gate consistency.
//!
//! * `layer-dag` — the workspace layers as `types → core / memsim /
//!   cachesim / vmem → sim → bench`, with `workloads` and `trace` as
//!   leaf-adjacent utility crates. [`ALLOWED_DEPS`] is the transitive
//!   reduction every crate must respect; both `[dependencies]` entries
//!   in each `Cargo.toml` and `use cameo_*` edges in source are checked
//!   against it. Dev-dependencies are exempt (tests may reach wider),
//!   and non-`cameo` dependencies (the vendored stand-ins) are ignored.
//! * `feature-gate` — every `feature = "…"` gate in a crate's sources
//!   must name a feature its own `Cargo.toml` declares. A typo'd gate
//!   (`#[cfg(feature = "fault")]`) silently compiles the guarded code
//!   out of every build — exactly the failure mode the `faults` /
//!   `deep-audit` plumbing cannot afford. Crates without a manifest in
//!   the lint root (some fixture trees) are skipped.

use crate::model::{dir_for_ident, dir_for_package, WorkspaceModel};
use crate::rules::Diagnostic;

/// Rule name: crate dependency outside the declared DAG.
pub const LAYER_DAG: &str = "layer-dag";
/// Rule name: `cfg(feature = …)` naming an undeclared feature.
pub const FEATURE_GATE: &str = "feature-gate";

/// The declared crate DAG: each crate directory and the crate
/// directories it may depend on. Self-edges are always allowed.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("types", &[]),
    ("memsim", &["types"]),
    ("cachesim", &["types", "memsim"]),
    ("vmem", &["types"]),
    ("core", &["types", "memsim"]),
    ("workloads", &["types"]),
    ("trace", &["types", "workloads"]),
    (
        "sim",
        &["types", "memsim", "cachesim", "vmem", "core", "workloads"],
    ),
    (
        "bench",
        &[
            "types",
            "memsim",
            "cachesim",
            "vmem",
            "core",
            "workloads",
            "sim",
            "trace",
        ],
    ),
    ("xtask", &[]),
    // The root package re-exports the whole stack.
    (
        "",
        &[
            "types",
            "memsim",
            "cachesim",
            "vmem",
            "core",
            "workloads",
            "sim",
            "trace",
        ],
    ),
];

/// The dependency dirs crate `dir` may use, or `None` when the crate is
/// not part of the declared DAG (then nothing is checked).
fn allowed_for(dir: &str) -> Option<&'static [&'static str]> {
    ALLOWED_DEPS
        .iter()
        .find(|(d, _)| *d == dir)
        .map(|(_, deps)| *deps)
}

/// Runs the layering pass over the whole model.
pub fn run(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_manifests(model, &mut out);
    check_use_graph(model, &mut out);
    check_feature_gates(model, &mut out);
    out
}

/// `[dependencies]` entries must respect the DAG.
fn check_manifests(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    for manifest in model.manifests.values() {
        let Some(allowed) = allowed_for(&manifest.crate_dir) else {
            continue;
        };
        for (idx, dep) in &manifest.deps {
            let Some(dep_dir) = dir_for_package(dep) else {
                continue; // vendored / external dependency
            };
            if dep_dir == manifest.crate_dir || allowed.contains(&dep_dir) {
                continue;
            }
            if manifest.allowed(*idx, LAYER_DAG) {
                continue;
            }
            out.push(Diagnostic {
                path: manifest.path.clone(),
                line: idx + 1,
                rule: LAYER_DAG,
                message: format!(
                    "crate `{}` must not depend on `{dep}`: the declared DAG is \
                     types → core/memsim/cachesim/vmem → sim → bench (see \
                     `ALLOWED_DEPS` in crates/xtask/src/passes/layering.rs)",
                    if manifest.crate_dir.is_empty() {
                        "<root>"
                    } else {
                        &manifest.crate_dir
                    }
                ),
            });
        }
    }
}

/// `use cameo_*` edges must respect the DAG.
fn check_use_graph(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    for file in &model.files {
        let Some(allowed) = allowed_for(&file.crate_dir) else {
            continue;
        };
        for decl in &file.uses {
            let Some(dep_dir) = dir_for_ident(&decl.krate) else {
                continue;
            };
            if dep_dir == file.crate_dir || allowed.contains(&dep_dir) {
                continue;
            }
            if file.src.lines[decl.line].in_test || file.src.allowed(decl.line, LAYER_DAG) {
                continue;
            }
            out.push(Diagnostic {
                path: file.path.clone(),
                line: decl.line + 1,
                rule: LAYER_DAG,
                message: format!(
                    "`use {}` crosses the crate DAG: `{}` may depend on {} only",
                    decl.krate,
                    if file.crate_dir.is_empty() {
                        "<root>"
                    } else {
                        &file.crate_dir
                    },
                    if allowed.is_empty() {
                        "no workspace crate".to_string()
                    } else {
                        format!("{{{}}}", allowed.join(", "))
                    }
                ),
            });
        }
    }
}

/// `cfg(feature = "…")` gates must name declared features.
fn check_feature_gates(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    for file in &model.files {
        let Some(manifest) = model.manifests.get(&file.crate_dir) else {
            continue;
        };
        for (idx, feature) in &file.cfg_features {
            if manifest.features.iter().any(|f| f == feature) {
                continue;
            }
            if file.src.lines[*idx].in_test || file.src.allowed(*idx, FEATURE_GATE) {
                continue;
            }
            out.push(Diagnostic {
                path: file.path.clone(),
                line: idx + 1,
                rule: FEATURE_GATE,
                message: format!(
                    "feature gate `{feature}` is not declared in {}; a typo'd gate \
                     silently compiles the guarded code out of every build",
                    manifest.path.display()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FileFacts, ManifestInfo, WorkspaceModel};
    use crate::rules::FileClass;
    use crate::scanner::SourceFile;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    const PLAIN: FileClass = FileClass {
        hot_path: false,
        addr_exempt: false,
    };

    fn file(path: &str, crate_dir: &str, src: &str) -> FileFacts {
        FileFacts::extract(
            PathBuf::from(path),
            crate_dir.to_string(),
            PLAIN,
            SourceFile::parse(src),
        )
    }

    fn manifest(crate_dir: &str, text: &str) -> (String, ManifestInfo) {
        (
            crate_dir.to_string(),
            ManifestInfo::parse(
                PathBuf::from(format!("crates/{crate_dir}/Cargo.toml")),
                crate_dir.to_string(),
                text,
            ),
        )
    }

    fn model(files: Vec<FileFacts>, manifests: Vec<(String, ManifestInfo)>) -> WorkspaceModel {
        WorkspaceModel {
            files,
            manifests: manifests.into_iter().collect::<BTreeMap<_, _>>(),
        }
    }

    #[test]
    fn upward_use_edge_is_flagged() {
        let m = model(
            vec![file(
                "crates/types/src/addr.rs",
                "types",
                "use cameo_sim::harness;\nuse std::fmt;\nuse cameo_types::PageAddr;",
            )],
            vec![],
        );
        let d = run(&m);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, LAYER_DAG);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn downward_and_self_edges_are_fine() {
        let m = model(
            vec![file(
                "crates/sim/src/harness.rs",
                "sim",
                "use cameo::Llt;\nuse cameo_types::Cycle;\nuse cameo_sim::pool;",
            )],
            vec![],
        );
        assert!(run(&m).is_empty());
    }

    #[test]
    fn manifest_dep_outside_dag_is_flagged_and_allowable() {
        let bad = "[package]\nname = \"cameo-cachesim\"\n\n[dependencies]\ncameo-types = { workspace = true }\ncameo-sim = { workspace = true }\n";
        let m = model(vec![], vec![manifest("cachesim", bad)]);
        let d = run(&m);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 6);
        let allowed = "[dependencies]\ncameo-sim = { workspace = true } # lint: allow(layer-dag)\n";
        let m = model(vec![], vec![manifest("cachesim", allowed)]);
        assert!(run(&m).is_empty());
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let text = "[dev-dependencies]\ncameo-sim = { workspace = true }\n";
        let m = model(vec![], vec![manifest("types", text)]);
        assert!(run(&m).is_empty());
    }

    #[test]
    fn unknown_crates_are_skipped() {
        let m = model(
            vec![file(
                "crates/mystery/src/lib.rs",
                "mystery",
                "use cameo_sim::pool;",
            )],
            vec![],
        );
        assert!(run(&m).is_empty());
    }

    #[test]
    fn undeclared_feature_gate_is_flagged() {
        let text = "[package]\nname = \"cameo-sim\"\n\n[features]\ndeep-audit = []\nfaults = []\n";
        let m = model(
            vec![file(
                "crates/sim/src/lib.rs",
                "sim",
                "#[cfg(feature = \"quantum\")]\nfn q() {}\n#[cfg(feature = \"faults\")]\nfn f() {}",
            )],
            vec![manifest("sim", text)],
        );
        let d = run(&m);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, FEATURE_GATE);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn feature_gate_allow_and_missing_manifest_skip() {
        let text = "[features]\nfaults = []\n";
        let m = model(
            vec![
                file(
                    "crates/sim/src/lib.rs",
                    "sim",
                    "// lint: allow(feature-gate)\n#[cfg(feature = \"prototype\")]\nfn p() {}",
                ),
                file(
                    "crates/ghost/src/lib.rs",
                    "ghost",
                    "#[cfg(feature = \"anything\")]\nfn a() {}",
                ),
            ],
            vec![manifest("sim", text)],
        );
        assert!(run(&m).is_empty());
    }
}
