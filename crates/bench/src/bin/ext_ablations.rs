//! Ablations of the design choices the evaluation rests on: the DRAM
//! row-buffer policy and refresh model, the LLP table size and the
//! TLM-Freq epoch length (see `cameo_bench::ablations` for each setup).

use cameo_bench::ablations::{
    dram_stream_latency, llp_accuracy, tlm_epochs, DRAM_STREAM_INTERVAL, DRAM_STREAM_READS,
    LLP_ENTRIES, LLP_EVENTS, LLR_BITS, TLM_INSTRUCTIONS,
};
use cameo_bench::{outln, Cli};
use cameo_memsim::{RefreshParams, RowPolicy};
use cameo_sim::report::Table;

fn main() {
    let cli = Cli::parse();

    let mut dram = Table::new(vec!["row policy", "refresh", "avg latency (cycles)"]);
    // The paper's device (open page, no refresh), then one knob at a time.
    for (policy, policy_label, refresh, refresh_label) in [
        (RowPolicy::OpenPage, "open page", None, "off"),
        (RowPolicy::ClosedPage, "closed page", None, "off"),
        (
            RowPolicy::OpenPage,
            "open page",
            Some(RefreshParams::ddr3()),
            "DDR3",
        ),
    ] {
        dram.row(vec![
            policy_label.to_owned(),
            refresh_label.to_owned(),
            format!("{:.1}", dram_stream_latency(policy, refresh)),
        ]);
    }
    outln!(
        "DRAM fidelity knobs — {DRAM_STREAM_READS} consecutive-line reads of a 96 MiB \
         off-chip device, one every {DRAM_STREAM_INTERVAL} cycles\n"
    );
    cli.emit(&dram);

    let mut llp = Table::new(vec!["entries/core", "storage (bits/core)", "accuracy"]);
    for entries in LLP_ENTRIES {
        llp.row(vec![
            entries.to_string(),
            (entries * LLR_BITS).to_string(),
            format!("{:.1}%", llp_accuracy(entries) * 100.0),
        ]);
    }
    outln!(
        "\nLLP table size — {LLP_EVENTS} omnetpp misses through one CAMEO core \
         (4 MiB stacked, 12 MiB off-chip, Co-Located LLT)\n"
    );
    cli.emit(&llp);

    let mut tlm = Table::new(vec!["epoch (accesses)", "speedup", "migrated pages"]);
    for row in tlm_epochs() {
        tlm.row(vec![
            row.epoch.to_string(),
            format!("{:.2}x", row.speedup),
            row.migrated_pages.to_string(),
        ]);
    }
    outln!(
        "\nTLM-Freq epoch — xalancbmk, scale 1/512, 2 cores x {TLM_INSTRUCTIONS} \
         instructions, speedup over Baseline\n"
    );
    cli.emit(&tlm);
}
