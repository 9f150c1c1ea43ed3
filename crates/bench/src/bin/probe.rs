//! Latency-distribution probe for calibration: runs one organization with
//! one benchmark through the real runner and prints the demand-read latency
//! histogram.

use cameo_bench::{outln, Cli};
use cameo_sim::experiments::{build_org, OrgKind};
use cameo_sim::runner::Runner;

fn main() {
    let cli = Cli::parse();
    let bench = cli.benches[0];
    for kind in [OrgKind::Baseline, OrgKind::cameo_default()] {
        let mut org = build_org(&bench, kind, &cli.config);
        let stats = Runner::new(bench, &cli.config)
            .expect("CLI configuration was validated at parse time")
            .run(org.as_mut());
        outln!(
            "{} {}: reads {}, avg latency {:.0}, faults {}",
            bench.name,
            kind.label(),
            stats.demand_reads,
            stats.avg_read_latency().unwrap_or(0.0),
            stats.faults
        );
        for (k, count) in stats.latency_histogram.iter().enumerate() {
            if *count > 0 {
                outln!("  2^{k:<2} ({:>8}+ cyc): {count}", 1u64 << k);
            }
        }
    }
}
