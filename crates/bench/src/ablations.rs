//! Ablations of the design choices the evaluation rests on, printed by
//! the `ext_ablations` binary:
//!
//! - the DRAM row-buffer policy and refresh model (DESIGN.md §6), as the
//!   average latency of one streaming read pattern;
//! - the LLP table size (the paper settles on 256 entries per core), as
//!   prediction accuracy on one trace;
//! - the TLM-Freq epoch length, as speedup over the baseline and pages
//!   migrated.
//!
//! Each is a single deterministic run: no sweep, no `--jobs`, no host
//! timing.

use cameo::{Cameo, CameoConfig, LltDesign, PredictorKind};
use cameo_memsim::{Dram, DramConfig, RefreshParams, RowPolicy};
use cameo_sim::experiments::{run_benchmark, OrgKind};
use cameo_sim::SystemConfig;
use cameo_types::{Access, AccessKind, ByteSize, CoreId, Cycle};
use cameo_workloads::{require, TraceConfig, TraceGenerator};

/// Reads in the DRAM streaming pattern.
pub const DRAM_STREAM_READS: u64 = 10_000;

/// Cycles between consecutive reads of the DRAM streaming pattern.
pub const DRAM_STREAM_INTERVAL: u64 = 20;

/// The LLP table sizes compared, in entries per core.
pub const LLP_ENTRIES: [usize; 4] = [1, 64, 256, 1024];

/// Misses driven through the controller per LLP table size.
pub const LLP_EVENTS: usize = 100_000;

/// Bits per Line Location Register at the paper's ratio of 4 (one of four
/// slots), so a table of `n` entries costs `2n` bits per core.
pub const LLR_BITS: usize = 2;

/// The TLM-Freq epoch lengths compared, in accesses between rebalances.
pub const TLM_EPOCHS: [u64; 3] = [5_000, 20_000, 80_000];

/// Instructions per core of the TLM-Freq runs: about 290 K accesses over
/// both cores, 200 K of them measured, so even the longest of
/// [`TLM_EPOCHS`] rebalances inside the measured region (at 300 K
/// instructions, about 14 K accesses, the 20 K and 80 K epochs never
/// fired).
pub const TLM_INSTRUCTIONS: u64 = 6_000_000;

/// Average latency, in CPU cycles, of [`DRAM_STREAM_READS`] reads of
/// consecutive lines of a 96 MiB off-chip device, one issued every
/// [`DRAM_STREAM_INTERVAL`] cycles.
pub fn dram_stream_latency(row_policy: RowPolicy, refresh: Option<RefreshParams>) -> f64 {
    let mut config = DramConfig::off_chip(ByteSize::from_mib(96));
    config.row_policy = row_policy;
    config.refresh = refresh;
    let mut dram = Dram::new(config);
    let mut now = Cycle::ZERO;
    let mut sum = 0u64;
    for line in 0..DRAM_STREAM_READS {
        let done = dram.read_line(now, line);
        sum += (done - now).raw();
        now += Cycle::new(DRAM_STREAM_INTERVAL);
    }
    sum as f64 / DRAM_STREAM_READS as f64
}

/// LLP prediction accuracy (0–1) with `entries` LLRs per core: a
/// one-core CAMEO controller (4 MiB stacked, 12 MiB off-chip, Co-Located
/// LLT) serves [`LLP_EVENTS`] omnetpp misses (scale 1/512, seed 7), each
/// issued when the previous one completes.
pub fn llp_accuracy(entries: usize) -> f64 {
    let mut cameo = Cameo::new(CameoConfig {
        stacked: ByteSize::from_mib(4),
        off_chip: ByteSize::from_mib(12),
        llt: LltDesign::CoLocated,
        predictor: PredictorKind::Llp,
        cores: 1,
        llp_entries: entries,
    });
    let mut generator = TraceGenerator::new(
        require("omnetpp").expect("omnetpp is in the suite"),
        TraceConfig {
            scale: 512,
            seed: 7,
            core_offset_pages: 0,
        },
    );
    let mut now = Cycle::ZERO;
    for _ in 0..LLP_EVENTS {
        let e = generator.next_event();
        let access = Access {
            core: CoreId(0),
            line: e.line,
            pc: e.pc,
            kind: if e.is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        };
        now = cameo.access(now, &access).completion;
    }
    cameo.stats().cases.accuracy().unwrap_or(0.0)
}

/// The system the TLM-Freq epochs run on: scale 1/512, two cores,
/// [`TLM_INSTRUCTIONS`] per core.
fn tlm_config(freq_epoch: u64) -> SystemConfig {
    SystemConfig {
        scale: 512,
        cores: 2,
        instructions_per_core: TLM_INSTRUCTIONS,
        freq_epoch,
        ..SystemConfig::default()
    }
}

/// One TLM-Freq epoch row: speedup over the baseline and pages migrated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochRow {
    /// Accesses between rebalances.
    pub epoch: u64,
    /// TLM-Freq's speedup over the baseline on the same configuration.
    pub speedup: f64,
    /// Pages moved by rebalances in the measured region.
    pub migrated_pages: u64,
}

/// Runs xalancbmk under TLM-Freq at every [`TLM_EPOCHS`] length, against
/// one baseline run (the epoch does not affect the baseline).
pub fn tlm_epochs() -> Vec<EpochRow> {
    let bench = require("xalancbmk").expect("xalancbmk is in the suite");
    let baseline = run_benchmark(&bench, OrgKind::Baseline, &tlm_config(TLM_EPOCHS[0]));
    TLM_EPOCHS
        .iter()
        .map(|&epoch| {
            let freq = run_benchmark(&bench, OrgKind::TlmFreq, &tlm_config(epoch));
            EpochRow {
                epoch,
                speedup: freq.speedup_over(&baseline),
                migrated_pages: freq.migrated_pages,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_page_and_refresh_slow_streaming() {
        let open = dram_stream_latency(RowPolicy::OpenPage, None);
        let closed = dram_stream_latency(RowPolicy::ClosedPage, None);
        let refreshed = dram_stream_latency(RowPolicy::OpenPage, Some(RefreshParams::ddr3()));
        assert!(closed > open, "closed page {closed} <= open page {open}");
        assert!(
            refreshed >= open,
            "DDR3 refresh {refreshed} < refresh off {open}"
        );
    }

    #[test]
    fn a_256_entry_llp_beats_a_single_register() {
        let one = llp_accuracy(1);
        let paper = llp_accuracy(256);
        assert!(paper > one, "256 entries {paper} <= 1 entry {one}");
    }

    #[test]
    fn every_tlm_epoch_migrates() {
        for row in tlm_epochs() {
            assert!(row.migrated_pages > 0, "{row:?} never migrated a page");
        }
    }
}
