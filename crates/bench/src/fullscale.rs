//! Full-scale ladder support for the `ext_fullscale` binary.
//!
//! The paper's headline figure (fig13) is normally replayed at the scaled
//! default capacity (1/128). This module drives the same comparison down a
//! halving ladder of scales — 128 → 64 → … → the requested `--scale` — so
//! the repository can demonstrate that the permutation-coded LLT, the
//! sparse lazy page tables and the streaming trace path together keep a
//! **full paper-scale** run (`--scale 1`: 4 GiB stacked + 12 GiB off-chip,
//! ~256 Mi tracked lines) inside a flat, laptop-sized resident set.
//!
//! The point set per rung is the fig13 micro-slice: the headline
//! organizations over a calibrated short instruction slice. The slice is
//! deliberately small — the experiment measures *capacity* behaviour
//! (bytes of host memory per tracked line, via the procfs RSS gauges
//! [`peak_rss_bytes`] and [`current_rss_bytes`]), not throughput, so the
//! instruction budget stays fixed while the memory system underneath
//! grows 128-fold.

use std::path::{Path, PathBuf};

use cameo_sim::experiments::OrgKind;
use cameo_sim::harness::SweepPoint;
use cameo_sim::trace::EpochSpillFn;
use cameo_sim::SystemConfig;

use crate::{trace_export, Cli};

/// The scale every ladder starts from: the default experiment capacity.
pub const LADDER_TOP: u64 = 128;

/// Calibrated micro-slice cores: enough for cross-core interleaving
/// without inflating the fixed instruction budget.
pub const MICRO_CORES: u16 = 2;

/// Calibrated micro-slice instruction budget per core. Small by design:
/// the ladder varies *capacity*, and the slice only has to exercise every
/// design's swap/predict/migrate machinery at each rung.
pub const MICRO_INSTRUCTIONS: u64 = 300_000;

/// The fig13 headline organizations, in column order. `ext_fullscale`
/// runs exactly this set at every rung, and the golden-conformance test
/// replays it at micro scale — change one, regenerate the other.
pub fn kinds() -> [OrgKind; 5] {
    [
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::cameo_default(),
        OrgKind::DoubleUse,
    ]
}

/// The halving scale ladder from [`LADDER_TOP`] down to `target`
/// (inclusive). A `target` at or above the top yields a single rung, and
/// a target off the power-of-two grid becomes the final rung after the
/// last larger power of two.
pub fn ladder(target: u64) -> Vec<u64> {
    let mut rungs = Vec::new();
    let mut scale = LADDER_TOP;
    while scale > target {
        rungs.push(scale);
        scale /= 2;
    }
    rungs.push(target);
    rungs
}

/// Applies the micro-slice calibration to a parsed [`Cli`]: fields still
/// at the *experiment default* (16 cores, 12 M instructions, the full
/// 17-benchmark suite) are replaced with the calibrated slice
/// ([`MICRO_CORES`], [`MICRO_INSTRUCTIONS`], `mcf` only). Any explicitly
/// non-default flag wins, so `--cores 4 --instructions 1000000 --bench
/// milc` still sizes the slice by hand.
///
/// # Panics
///
/// Panics only if the built-in calibration benchmark vanished from the
/// suite, which would be a workload-table bug.
pub fn calibrate(mut cli: Cli) -> Cli {
    let default = SystemConfig::default();
    if cli.config.cores == default.cores {
        cli.config.cores = MICRO_CORES;
    }
    if cli.config.instructions_per_core == default.instructions_per_core {
        cli.config.instructions_per_core = MICRO_INSTRUCTIONS;
    }
    if cli.benches.len() == cameo_workloads::suite().len() {
        cli.benches = vec![cameo_workloads::require("mcf")
            .expect("the calibration benchmark mcf is part of the Table II suite")];
    }
    cli
}

/// Peak resident-set size of this process in bytes, from the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`).
///
/// The kernel tracks the true peak continuously, so a single read after a
/// rung covers the whole run so far — no sampling cadence to miss a
/// transient spike. `None` where procfs is absent (non-Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    status_field_kb("VmHWM:")
}

/// Current resident-set size of this process in bytes, from
/// `/proc/self/statm` (resident pages × page size).
///
/// This is the cheap per-sample gauge — one small procfs read — that the
/// memory-flatness checks sample at epoch boundaries. `None` where
/// procfs is absent (non-Linux).
pub fn current_rss_bytes() -> Option<u64> {
    let pages = statm_resident_pages()?;
    Some(pages * page_size_bytes())
}

fn statm_resident_pages() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

fn status_field_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// The system page size, inferred once by ratioing `VmRSS` (exact kB)
/// against the `statm` resident page count — procfs exposes no direct
/// page-size field and the build pulls in no libc crate for `sysconf`.
/// Rounded to the nearest power of two (the two reads race against
/// allocation, so the raw ratio jitters); falls back to 4 KiB.
fn page_size_bytes() -> u64 {
    static PAGE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *PAGE.get_or_init(|| {
        let inferred = || {
            let pages = statm_resident_pages()?;
            let rss = status_field_kb("VmRSS:")?;
            if pages == 0 {
                return None;
            }
            let ratio = rss / pages;
            if ratio == 0 {
                return None;
            }
            let floor = 1u64 << (63 - ratio.leading_zeros());
            let ceil = floor << 1;
            Some(if ratio - floor < ceil - ratio {
                floor
            } else {
                ceil
            })
        };
        inferred().unwrap_or(4096)
    })
}

/// A sweep-point key reduced to a filesystem-safe stem (alphanumerics
/// kept, everything else mapped to `_`).
pub fn sanitize_key(key: &str) -> String {
    key.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The sibling directory that holds per-point spilled-epoch files for a
/// `--trace-out PATH` run: `PATH.epochs/`.
pub fn epochs_dir(trace_out: &Path) -> PathBuf {
    let mut os = trace_out.as_os_str().to_owned();
    os.push(".epochs");
    PathBuf::from(os)
}

/// Builds the per-point epoch-spill factory for the streaming trace path:
/// each sweep point gets its own JSONL writer under
/// [`epochs_dir`]`(trace_out)`, so epochs evicted from the bounded
/// retention ring reach disk incrementally instead of accumulating in the
/// sink (see `cameo_sim::harness::run_sweep_traced_spilling`). Retries of
/// a point recreate (truncate) its file, keeping attempts unmixed.
///
/// # Errors
///
/// Returns the error from creating the epochs directory. A failure to
/// open one point's writer later is reported to stderr and that point
/// falls back to ring-only retention rather than failing the sweep.
pub fn epoch_spill_factory(
    trace_out: &Path,
    epoch_cycles: u64,
) -> std::io::Result<impl Fn(&SweepPoint) -> Option<EpochSpillFn> + Sync> {
    let dir = epochs_dir(trace_out);
    std::fs::create_dir_all(&dir)?;
    Ok(move |point: &SweepPoint| {
        let path = dir.join(format!("{}.jsonl", sanitize_key(&point.key)));
        match trace_export::epoch_spill_writer(&path, &point.key, epoch_cycles) {
            Ok(writer) => Some(writer),
            Err(e) => {
                eprintln!("[trace] spill writer {}: {e}", path.display());
                None
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_halves_to_the_target() {
        assert_eq!(ladder(1), vec![128, 64, 32, 16, 8, 4, 2, 1]);
        assert_eq!(ladder(16), vec![128, 64, 32, 16]);
        assert_eq!(ladder(128), vec![128]);
        assert_eq!(ladder(512), vec![512]);
        // Off-grid targets become the final rung.
        assert_eq!(ladder(100), vec![128, 100]);
    }

    #[test]
    fn calibrate_fills_defaults_and_keeps_explicit_flags() {
        let args = |s: &str| Cli::from_args(s.split_whitespace().map(str::to_owned));
        let c = calibrate(args("--scale 16"));
        assert_eq!(c.config.cores, MICRO_CORES);
        assert_eq!(c.config.instructions_per_core, MICRO_INSTRUCTIONS);
        assert_eq!(c.config.scale, 16);
        let names: Vec<&str> = c.benches.iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["mcf"]);

        let c = calibrate(args("--cores 4 --instructions 1000000 --bench milc"));
        assert_eq!(c.config.cores, 4);
        assert_eq!(c.config.instructions_per_core, 1_000_000);
        let names: Vec<&str> = c.benches.iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["milc"]);
    }

    /// On Linux the procfs probes yield sane, ordered values (elsewhere
    /// both gauges are absent).
    #[test]
    fn rss_gauges_are_sane() {
        if !cfg!(target_os = "linux") {
            assert_eq!(peak_rss_bytes(), None);
            return;
        }
        let peak = peak_rss_bytes().expect("procfs present on Linux");
        let current = current_rss_bytes().expect("procfs present on Linux");
        // A test process is at least a megabyte and the high-water
        // mark can never undercut the current residency (beyond the
        // jitter of two non-atomic procfs reads).
        assert!(peak > 1 << 20, "peak {peak} bytes is implausibly small");
        assert!(current > 1 << 20);
        assert!(peak * 2 >= current, "peak {peak} < current {current}");
    }

    #[test]
    fn keys_sanitize_to_filesystem_stems() {
        assert_eq!(sanitize_key("mcf::#base"), "mcf___base");
        assert_eq!(sanitize_key("mcf::#3"), "mcf___3");
    }

    #[test]
    fn epochs_dir_is_a_sibling_of_the_trace() {
        assert_eq!(
            epochs_dir(Path::new("/tmp/full.trace")),
            PathBuf::from("/tmp/full.trace.epochs")
        );
    }
}
