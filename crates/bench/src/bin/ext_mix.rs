//! Extension experiment: heterogeneous workload mixes.
//!
//! The paper evaluates homogeneous rate mode (every core runs the same
//! benchmark). Real consolidated systems mix workloads — e.g. a
//! capacity-hungry tenant next to latency-sensitive ones — which stresses
//! exactly the capacity-vs-locality trade-off CAMEO targets: the cache
//! gives the capacity tenant nothing, while TLM gives the latency tenants
//! little. Cores here run *different* benchmarks (cycling through the
//! `--bench` list, default a capacity+latency mix).

use cameo_bench::{outln, print_header, Cli};
use cameo_sim::experiments::{build_org, OrgKind};
use cameo_sim::report::Table;
use cameo_sim::runner::{trace_configs, Runner};
use cameo_sim::{RunStats, SystemConfig};
use cameo_workloads::{require, BenchSpec, MissStream, TraceConfig, TraceGenerator};

/// Builds one stream per core, cycling through the mix, with disjoint
/// virtual address ranges.
fn mix_streams(mix: &[BenchSpec], config: &SystemConfig) -> Vec<Box<dyn MissStream>> {
    let mut offset = 0u64;
    (0..config.cores)
        .map(|core| {
            let bench = mix[usize::from(core) % mix.len()];
            // Reuse the per-copy footprint sizing of homogeneous rate mode.
            let per_core = trace_configs(&bench, config)[0];
            let tc = TraceConfig {
                core_offset_pages: offset,
                seed: per_core.seed.wrapping_add(u64::from(core)),
                ..per_core
            };
            let generator = TraceGenerator::new(bench, tc);
            offset += generator.footprint_pages() + 1;
            Box::new(generator) as Box<dyn MissStream>
        })
        .collect()
}

fn run_mix(mix: &[BenchSpec], kind: OrgKind, config: &SystemConfig) -> RunStats {
    let mut org = build_org(&mix[0], kind, config);
    Runner::new(mix[0], config)
        .expect("CLI configuration was validated at parse time")
        .run_with_streams(org.as_mut(), mix_streams(mix, config))
}

fn main() {
    let mut cli = Cli::parse();
    // Default mix: capacity-hungry tenants (mcf on half the cores — their
    // combined footprint exceeds visible memory) sharing the machine with
    // latency-sensitive ones.
    if cli.benches.len() == 17 {
        cli.benches = ["mcf", "gcc", "mcf", "omnetpp"]
            .iter()
            .map(|n| require(n).expect("mix members are Table II suite benchmarks"))
            .collect();
    }
    print_header("Extension — heterogeneous mix", &cli);
    let names: Vec<&str> = cli.benches.iter().map(|b| b.name).collect();
    outln!(
        "mix (assigned round-robin over {} cores): {}\n",
        cli.config.cores,
        names.join(" + ")
    );

    let baseline = run_mix(&cli.benches, OrgKind::Baseline, &cli.config);
    let mut table = Table::new(vec![
        "design",
        "speedup",
        "stacked%",
        "avg latency",
        "faults",
    ]);
    for kind in [
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::cameo_default(),
        OrgKind::DoubleUse,
    ] {
        eprintln!("[run] {}", kind.label());
        let stats = run_mix(&cli.benches, kind, &cli.config);
        table.row(vec![
            kind.label().to_owned(),
            format!("{:.2}x", stats.speedup_over(&baseline)),
            format!("{:.0}", stats.stacked_service_rate().unwrap_or(0.0) * 100.0),
            format!("{:.0}", stats.avg_read_latency().unwrap_or(0.0)),
            stats.faults.to_string(),
        ]);
    }
    outln!("Heterogeneous mix — speedup over the no-stacked baseline\n");
    cli.emit(&table);
}
