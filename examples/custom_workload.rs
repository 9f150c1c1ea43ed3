//! Define a workload that is not in the SPEC suite and run it through the
//! full system — the `BenchSpec`/`Behavior` types are public exactly so
//! downstream users can model their own applications.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use cameo_repro::sim::experiments::{run_benchmark, OrgKind};
use cameo_repro::sim::SystemConfig;
use cameo_repro::types::ByteSize;
use cameo_repro::workloads::{Behavior, BenchSpec, Category};

fn main() {
    // A key-value store: a large, mostly cold keyspace with a skewed hot
    // set (the classic 90/10 rule), sparse page usage (values are small),
    // and write-heavy traffic.
    let kv_store = BenchSpec {
        name: "kvstore",
        category: Category::CapacityLimited,
        mpki: 22.0,
        footprint: ByteSize::from_gib(20),
        behavior: Behavior {
            hot_fraction: 0.10,
            hot_access_prob: 0.90,
            stream_prob: 0.05,
            page_density: 0.25,
            write_fraction: 0.40,
            pc_pool: 96,
        },
    };
    kv_store
        .validate()
        .expect("the kvstore spec's knobs are in range");

    let config = SystemConfig {
        cores: 8,
        instructions_per_core: 4_000_000,
        ..SystemConfig::default()
    };
    println!(
        "kvstore: {:.0} GB keyspace (scaled to {:.0} MiB), 90/10 hot set, 40% writes\n",
        kv_store.footprint.as_gib(),
        kv_store.footprint.scale_down(config.scale).as_mib(),
    );

    let baseline = run_benchmark(&kv_store, OrgKind::Baseline, &config);
    println!(
        "{:<12} {:>8} {:>9} {:>8}",
        "design", "speedup", "stacked%", "faults"
    );
    for kind in [
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::cameo_default(),
    ] {
        let run = run_benchmark(&kv_store, kind, &config);
        println!(
            "{:<12} {:>7.2}x {:>8.0}% {:>8}",
            kind.label(),
            run.speedup_over(&baseline),
            run.stacked_service_rate().unwrap_or(0.0) * 100.0,
            run.faults,
        );
    }
    println!(
        "\nThe skewed hot set is exactly CAMEO's case: line-granularity \
         swapping captures the hot keys in stacked DRAM while the cold \
         keyspace still counts toward memory capacity."
    );
}
