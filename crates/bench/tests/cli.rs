//! The figure binaries' command line as a shell sees it: a binary that
//! traces checks the `--trace-out` path before its first point runs, one
//! that never traces leaves the path alone, one that runs untraced
//! organizations rejects it, and a reader that closes stdout early ends a
//! binary quietly.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};

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

#[test]
fn untraced_sweep_rejects_trace_out() {
    let path = temp_dir("swap-filter").join("sf.trace");
    let out = Command::new(env!("CARGO_BIN_EXE_ext_swap_filter"))
        .args(["--quick", "--bench", "mcf", "--trace-out"])
        .arg(&path)
        .output()
        .expect("ext_swap_filter starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: --trace-out: ")),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a table was printed");
    assert!(!path.exists(), "ext_swap_filter created {}", path.display());
}

/// `ext_ablations --csv | head -1`: the binary is still computing its
/// later tables when the reader goes away, and must end with status 0
/// and no broken-pipe panic.
#[test]
fn closed_stdout_ends_the_binary_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ext_ablations"))
        .args(["--quick", "--csv"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ext_ablations starts");
    let mut first = String::new();
    // The reader is dropped at the end of this statement, closing the pipe
    // after one line.
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .expect("the first line arrives");
    assert!(first.starts_with("DRAM fidelity knobs"), "{first}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr is readable");
    let status = child.wait().expect("ext_ablations exits");
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
}

/// A scale that is not a power of two, or is past the largest one every
/// organization builds at, stops a binary at its flags: one
/// `error: --scale: ...` line and status 2, before any point runs (a
/// scale of 3 once passed the flags and panicked in CAMEO's constructor).
#[test]
fn invalid_scale_is_an_error_line_before_any_point() {
    for (bin, scale) in [
        (env!("CARGO_BIN_EXE_fig13_speedup"), "3"),
        (env!("CARGO_BIN_EXE_fig13_speedup"), "96"),
        (env!("CARGO_BIN_EXE_ext_designs"), "524288"),
    ] {
        let out = Command::new(bin)
            .args(["--quick", "--bench", "mcf", "--scale", scale])
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} --scale {scale}: {stderr}"
        );
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{stderr}");
        assert!(
            errors[0].starts_with(&format!(
                "error: --scale: scale {scale} must be a power of two"
            )),
            "{stderr}"
        );
        assert!(!stderr.contains("[sweep]"), "a point ran: {stderr}");
        assert!(out.stdout.is_empty(), "a table was printed");
    }
}

/// An `mlp` above `SystemConfig::MAX_MLP` stops a binary at its flags:
/// one `error: --mlp: ...` line and status 2, before any point runs (2^60
/// once passed the flags and every point panicked allocating its window).
#[test]
fn mlp_above_the_cap_is_an_error_line_before_any_point() {
    let mlp = "1152921504606846976";
    let out = Command::new(env!("CARGO_BIN_EXE_fig13_speedup"))
        .args(["--quick", "--bench", "mcf", "--jobs", "1", "--mlp", mlp])
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].starts_with(&format!("error: --mlp: MLP {mlp} is above the largest")),
        "{stderr}"
    );
    assert!(!stderr.contains("[sweep]"), "a point ran: {stderr}");
    assert!(out.stdout.is_empty(), "a table was printed");
}
