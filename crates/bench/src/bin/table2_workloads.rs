//! Table II: workload characteristics — verifies the synthetic generators
//! hit each benchmark's configured MPKI / footprint / spatial locality.

use cameo_bench::{outln, print_header, Cli};
use cameo_sim::report::Table;
use cameo_sim::runner::trace_configs;
use cameo_sim::SystemConfig;
use cameo_types::{DetHashMap, DetHashSet};
use cameo_workloads::TraceGenerator;

fn main() {
    let cli = Cli::parse();
    print_header("Table II — workload characteristics", &cli);
    let events = 100_000u64;

    let mut table = Table::new(vec![
        "bench",
        "category",
        "L3 MPKI (paper)",
        "MPKI (observed)",
        "footprint (paper)",
        "footprint (scaled)",
        "lines/page used",
    ]);
    for bench in &cli.benches {
        // One rate-mode copy is representative (copies are iid).
        let tc = trace_configs(bench, &cli.config)[0];
        let mut generator = TraceGenerator::new(*bench, tc);
        let mut lines_by_page: DetHashMap<u64, DetHashSet<usize>> = DetHashMap::default();
        for _ in 0..events {
            let e = generator.next_event();
            lines_by_page
                .entry(e.line.page().raw())
                .or_default()
                .insert(e.line.offset_in_page());
        }
        let revisited: Vec<usize> = lines_by_page
            .values()
            .filter(|s| s.len() > 1)
            .map(DetHashSet::len)
            .collect();
        let density = if revisited.is_empty() {
            f64::NAN
        } else {
            revisited.iter().sum::<usize>() as f64 / revisited.len() as f64
        };
        table.row(vec![
            bench.name.to_owned(),
            bench.category.to_string(),
            format!("{:.1}", bench.mpki),
            format!("{:.1}", generator.observed_mpki().unwrap_or(f64::NAN)),
            format!("{:.1}GB", bench.footprint.as_gib()),
            format!(
                "{:.1}MiB",
                bench.scaled_footprint(cli.config.scale).as_mib()
            ),
            format!("{density:.0}/64"),
        ]);
    }
    cli.emit(&table);
    outln!(
        "\nclassification rule: Capacity-Limited iff footprint > {} baseline memory",
        SystemConfig::FULL_OFF_CHIP
    );
}
