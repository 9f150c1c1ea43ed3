//! Table I: the baseline system configuration, echoed from the live model
//! (full scale and at the selected simulation scale).

use cameo_bench::{outln, Cli};
use cameo_memsim::DramConfig;
use cameo_sim::report::Table;
use cameo_sim::SystemConfig;

fn main() {
    let cli = Cli::parse();
    let cfg = &cli.config;
    let stacked = DramConfig::stacked(cfg.stacked());
    let off = DramConfig::off_chip(cfg.off_chip());

    let mut table = Table::new(vec!["parameter", "paper (Table I)", "this run"]);
    let mut row = |a: &str, b: String, c: String| table.row(vec![a.to_owned(), b, c]);
    row("cores", "32".into(), cfg.cores.to_string());
    row(
        "core width",
        "2-wide OoO".into(),
        format!("MLP={} analytic", cfg.mlp),
    );
    row(
        "frequency",
        "3.2 GHz".into(),
        "3.2 GHz (cycle units)".into(),
    );
    row(
        "L3 cache",
        "32MB, 16-way, 24 cycles".into(),
        format!(
            "{} (scaled 1/{})",
            cameo_cachesim::L3Config::scaled(cfg.scale).capacity,
            cfg.scale
        ),
    );
    row(
        "stacked DRAM",
        format!(
            "{} / 16 ch / 16 banks / 128-bit",
            SystemConfig::FULL_STACKED
        ),
        format!(
            "{} / {} ch / {} banks / {}-bit",
            cfg.stacked(),
            stacked.channels,
            stacked.banks_per_channel,
            stacked.bytes_per_beat * 8
        ),
    );
    row(
        "off-chip DRAM",
        format!("{} / 8 ch / 8 banks / 64-bit", SystemConfig::FULL_OFF_CHIP),
        format!(
            "{} / {} ch / {} banks / {}-bit",
            cfg.off_chip(),
            off.channels,
            off.banks_per_channel,
            off.bytes_per_beat * 8
        ),
    );
    row(
        "DRAM timing",
        "tCAS-tRCD-tRP-tRAS 9-9-9-36 (bus cycles)".into(),
        format!(
            "9-9-9-36; CAS = {} / {} CPU cycles (stacked / off-chip)",
            stacked.timings.cas_cpu(),
            off.timings.cas_cpu()
        ),
    );
    row(
        "page-fault latency",
        "32 us (100K cycles), SSD".into(),
        format!("{} cycles", cameo_vmem::PAGE_FAULT_CYCLES),
    );
    outln!("Table I — baseline system configuration\n");
    cli.emit(&table);
}
