//! Compiles one-file fixture crates under the workspace's lint
//! configuration and reports what fails the gate.
//!
//! A fixture is compiled the way Cargo compiles a workspace member: with
//! the workspace edition, the `[workspace.lints]` levels of the root
//! `Cargo.toml` and the `--check-cfg` arguments for its declared
//! features. [`Gate::Build`] runs `rustc`, as `cargo build` does;
//! [`Gate::Clippy`] runs `clippy-driver` with the root `clippy.toml` and
//! `-D warnings`, as CI's `cargo clippy --workspace --all-targets -- -D
//! warnings` does. Both binaries are taken from the toolchain whose
//! `cargo` built these tests.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The workspace root, which holds `Cargo.toml` and `clippy.toml`.
const ROOT: &str = env!("CARGO_MANIFEST_DIR");
/// The root manifest, read for the workspace edition and lint levels.
const MANIFEST: &str = include_str!("../../Cargo.toml");
/// A hot-path crate root, read for its crate-level lint attribute.
const HOT_PATH_ROOT: &str = include_str!("../../crates/core/src/lib.rs");

/// What a fixture that passes its gate reports.
pub(crate) const NONE: [&str; 0] = [];

/// Which check a fixture is held to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Gate {
    /// `cargo build`: rustc with the workspace's lint levels.
    Build,
    /// CI's clippy command: clippy-driver with the lint levels,
    /// `clippy.toml` and `-D warnings`.
    Clippy,
}

/// A one-file crate to compile.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fixture<'a> {
    gate: Gate,
    src: &'a str,
    hot_path: bool,
    test: bool,
    features: &'a [&'a str],
}

impl<'a> Fixture<'a> {
    /// `src` as a library crate, held to [`Gate::Build`].
    pub(crate) fn build(src: &'a str) -> Self {
        Self {
            gate: Gate::Build,
            src,
            hot_path: false,
            test: false,
            features: &[],
        }
    }

    /// `src` as a library crate, held to [`Gate::Clippy`].
    pub(crate) fn clippy(src: &'a str) -> Self {
        Self {
            gate: Gate::Clippy,
            ..Self::build(src)
        }
    }

    /// Compiles under the crate-root lint attribute of the hot-path
    /// crates, taken from `crates/core/src/lib.rs`.
    pub(crate) fn hot_path(self) -> Self {
        Self {
            hot_path: true,
            ..self
        }
    }

    /// Compiles as the library's unit-test target, as `--all-targets`
    /// does.
    pub(crate) fn test(self) -> Self {
        Self { test: true, ..self }
    }

    /// Declares `features`, as a manifest's `[features]` table does.
    pub(crate) fn features(self, features: &'a [&'a str]) -> Self {
        Self { features, ..self }
    }

    /// Compiles the fixture and returns, in the order the compiler
    /// reports them, the lint names and error codes that fail its gate.
    pub(crate) fn lints(&self) -> Vec<String> {
        let mut src = String::from("//! Lint fixture.\n");
        if self.hot_path {
            src.push_str(hot_path_attribute());
            src.push('\n');
        }
        src.push_str(self.src);

        let tool = toolchain_bin(match self.gate {
            Gate::Build => "rustc",
            Gate::Clippy => "clippy-driver",
        });
        let out = out_dir();
        let mut cmd = Command::new(&tool);
        cmd.current_dir(&out)
            .env("CLIPPY_CONF_DIR", ROOT)
            .args(["--crate-name", "fixture", "--crate-type", "lib"])
            .args(["--edition", edition(), "--emit=metadata"])
            .args(["--error-format=json", "--out-dir"])
            .arg(&out)
            .args(["--check-cfg", "cfg(docsrs,test)", "--check-cfg"])
            .arg(feature_check_cfg(self.features))
            .args(lint_flags());
        if self.test {
            cmd.arg("--test");
        }
        if let Gate::Clippy = self.gate {
            cmd.args(["-D", "warnings"]);
        }
        let mut child = cmd
            .arg("-")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot run {}: {e}", tool.display()));
        child
            .stdin
            .take()
            .expect("stdin is piped")
            .write_all(src.as_bytes())
            .expect("the compiler reads the whole fixture from stdin");
        let output = child.wait_with_output().expect("the compiler exits");
        std::fs::remove_dir_all(&out).expect("the output directory is ours");
        String::from_utf8_lossy(&output.stderr)
            .lines()
            .filter_map(failing_code)
            .collect()
    }
}

/// The lint name or error code of one JSON diagnostic, if it is an error.
fn failing_code(diagnostic: &str) -> Option<String> {
    let (_, rest) = diagnostic.split_once(r#""code":{"code":""#)?;
    let (code, rest) = rest.split_once('"')?;
    let (_, level) = rest.split_once(r#""level":""#)?;
    level.starts_with("error\"").then(|| code.to_string())
}

/// A binary of the toolchain whose `cargo` built these tests.
fn toolchain_bin(name: &str) -> PathBuf {
    Path::new(env!("CARGO")).with_file_name(name)
}

/// A fresh output directory for the calling test's compiles.
fn out_dir() -> PathBuf {
    let test = std::thread::current()
        .name()
        .unwrap_or("main")
        .replace("::", "-");
    let dir =
        std::env::temp_dir().join(format!("cameo-lint-fixture-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the temp directory is writable");
    dir
}

/// The `--check-cfg` argument Cargo passes for a crate's `features`.
fn feature_check_cfg(features: &[&str]) -> String {
    let values: Vec<String> = features.iter().map(|f| format!("\"{f}\"")).collect();
    format!("cfg(feature, values({}))", values.join(", "))
}

/// The hot-path crates' `#![warn(...)]` crate-root attribute.
fn hot_path_attribute() -> &'static str {
    HOT_PATH_ROOT
        .lines()
        .find(|line| line.starts_with("#![warn(clippy::panic"))
        .expect("crates/core/src/lib.rs warns on panic macros at its root")
}

/// The `key = value` lines of one `[table]` of the root manifest.
fn manifest_table(header: &str) -> impl Iterator<Item = (&'static str, &'static str)> {
    let header = format!("[{header}]");
    MANIFEST
        .lines()
        .skip_while(move |line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(key, value)| (key.trim(), value.trim()))
}

/// The workspace edition.
fn edition() -> &'static str {
    manifest_table("workspace.package")
        .find(|(key, _)| *key == "edition")
        .map(|(_, value)| value.trim_matches('"'))
        .expect("[workspace.package] sets the edition")
}

/// The lint flags Cargo derives from `[workspace.lints]`.
fn lint_flags() -> Vec<String> {
    let mut flags = Vec::new();
    for (tool, prefix) in [("rust", ""), ("clippy", "clippy::")] {
        for (name, level) in manifest_table(&format!("workspace.lints.{tool}")) {
            let flag = match level {
                "\"forbid\"" => "-F",
                "\"deny\"" => "-D",
                "\"warn\"" => "-W",
                "\"allow\"" => "-A",
                _ => panic!("[workspace.lints.{tool}] {name} = {level}: expected a quoted level"),
            };
            flags.extend([flag.to_string(), format!("{prefix}{name}")]);
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixture that passes every gate: documented, deterministic,
    /// panic-free and undisturbed by host time.
    const CLEAN: &str = "use std::collections::BTreeMap;\n\
        /// Counts the distinct keys.\n\
        pub fn count(keys: &[u64]) -> usize {\n    \
            let map: BTreeMap<u64, ()> = keys.iter().map(|&k| (k, ())).collect();\n    \
            map.len()\n\
        }\n";

    #[test]
    fn fixtures_are_caught_exactly() {
        assert_eq!(Fixture::build(CLEAN).lints(), NONE);
        assert_eq!(Fixture::clippy(CLEAN).hot_path().lints(), NONE);
        // One seeded violation per rule the stock lints enforce, each
        // caught by exactly its lint or error code.
        let seeded = [
            (
                "missing-docs",
                Fixture::build("pub fn frob() {}"),
                "missing_docs",
            ),
            (
                "feature-gate",
                Fixture::build("#[cfg(feature = \"fault\")]\n/// Gated.\npub fn gated() {}")
                    .features(&["faults"]),
                "unexpected_cfgs",
            ),
            ("layer-dag", Fixture::build("use cameo_sim as _;"), "E0432"),
            (
                "no-panic",
                Fixture::clippy(
                    "/// First.\npub fn first(x: &[u8]) -> u8 {\n    panic!(\"{x:?}\")\n}",
                )
                .hot_path(),
                "clippy::panic",
            ),
            (
                "thread-spawn",
                Fixture::clippy(
                    "/// Detaches.\npub fn detach() {\n    std::thread::spawn(|| {});\n}",
                ),
                "clippy::disallowed_methods",
            ),
            (
                "det-hash",
                Fixture::clippy(
                    "/// Counts.\npub fn count(keys: &[u64]) -> usize {\n    \
                     keys.iter().collect::<std::collections::HashSet<_>>().len()\n}",
                ),
                "clippy::disallowed_types",
            ),
            (
                "wall-clock",
                Fixture::clippy(
                    "/// Stamps.\npub fn stamp() -> std::time::SystemTime {\n    \
                     std::time::SystemTime::now()\n}",
                ),
                "clippy::disallowed_methods",
            ),
        ];
        for (rule, fixture, lint) in seeded {
            assert_eq!(fixture.lints(), [lint], "{rule}");
        }
    }
}
