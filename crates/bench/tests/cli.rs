//! `--trace-out` as the figure binaries see it: a binary that traces
//! checks the path before its first point runs, and one that never traces
//! leaves the path alone.

use std::path::PathBuf;
use std::process::Command;

/// A per-test temporary directory, removed first if a run left it.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cameo-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn uncreatable_trace_out_stops_a_traced_sweep_before_any_point() {
    let path = temp_dir("uncreatable").join("missing").join("x.trace");
    let out = Command::new(env!("CARGO_BIN_EXE_fig14_energy"))
        .args(["--quick", "--bench", "mcf", "--trace-out"])
        .arg(&path)
        .output()
        .expect("fig14_energy starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: --trace-out: cannot create ")),
        "{stderr}"
    );
    assert!(!stderr.contains("[sweep]"), "a point ran: {stderr}");
}

#[test]
fn binary_that_never_traces_leaves_trace_out_untouched() {
    let dir = temp_dir("untraced");
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let path = dir.join("t.trace");
    let out = Command::new(env!("CARGO_BIN_EXE_table1_config"))
        .arg("--trace-out")
        .arg(&path)
        .output()
        .expect("table1_config starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!path.exists(), "table1_config created {}", path.display());
    std::fs::remove_dir_all(&dir).expect("temporary directory removed");
}
