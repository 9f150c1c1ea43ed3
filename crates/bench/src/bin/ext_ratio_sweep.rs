//! Extension experiment: stacked-DRAM fraction sweep.
//!
//! The paper's introduction argues stacked DRAM will grow to "a quarter or
//! even half of the overall capacity" and evaluates the quarter point
//! (congruence ratio 4). This sweep holds total memory constant and varies
//! the stacked share — ratio 2 (half), 4 (quarter, the paper's point) and
//! 8 (eighth) — showing how CAMEO's advantage moves with the split.
//!
//! Every (bench, ratio, organization) cell is an independent sweep point
//! run through the crash-isolated harness, so the grid parallelizes across
//! `--jobs` workers with results identical to a serial run.

use cameo::{LltDesign, PredictorKind};
use cameo_bench::{outln, print_header, Cli};
use cameo_sim::experiments::OrgKind;
use cameo_sim::harness::{run_sweep_with, SweepOptions, SweepPoint};
use cameo_sim::org::{AlloyCacheOrg, BaselineOrg, CameoOrg, MemoryOrganization};
use cameo_sim::report::Table;
use cameo_sim::{RunStats, SystemConfig};
use cameo_types::{ByteSize, DetHashMap};

/// The three columns of each ratio: the split's own baseline (off-chip
/// share alone), Alloy-style cache, and CAMEO.
#[derive(Clone, Copy)]
enum Variant {
    Base,
    Cache,
    Cameo,
}

const VARIANTS: [(&str, Variant); 3] = [
    ("base", Variant::Base),
    ("cache", Variant::Cache),
    ("cameo", Variant::Cameo),
];

fn main() {
    let cli = Cli::parse();
    print_header("Extension — stacked fraction sweep", &cli);
    let total = cli.config.total_memory();
    let ratios = [2u64, 4, 8];

    let mut points = Vec::new();
    let mut grid: DetHashMap<String, (u64, Variant)> = DetHashMap::default();
    for bench in &cli.benches {
        for ratio in ratios {
            for (tag, variant) in VARIANTS {
                let key = format!("{}@r{ratio}::{tag}", bench.name);
                grid.insert(key.clone(), (ratio, variant));
                // The org kind is a placeholder: the custom builder below
                // decides the organization from the grid entry.
                points.push(SweepPoint::new(bench.name, OrgKind::Baseline).with_key(key));
            }
        }
    }
    eprintln!(
        "[sweep] {} points ({} benches x {} ratios x {} orgs) across {} worker(s)",
        points.len(),
        cli.benches.len(),
        ratios.len(),
        VARIANTS.len(),
        cli.jobs.max(1),
    );

    let build = |point: &SweepPoint, cfg: &SystemConfig| -> Box<dyn MemoryOrganization> {
        let (ratio, variant) = *grid
            .get(&point.key)
            .expect("every sweep point key was entered into the grid");
        let stacked = ByteSize::from_bytes(total.bytes() / ratio);
        let off_chip = total - stacked;
        match variant {
            Variant::Base => Box::new(BaselineOrg::new(off_chip, cfg.seed ^ 0xBEEF)),
            Variant::Cache => Box::new(AlloyCacheOrg::new(
                stacked,
                off_chip,
                cfg.cores,
                cfg.seed ^ 0xBEEF,
            )),
            Variant::Cameo => Box::new(CameoOrg::new(
                stacked,
                off_chip,
                LltDesign::CoLocated,
                PredictorKind::Llp,
                cfg.cores,
                cfg.llp_entries,
                cfg.seed ^ 0xBEEF,
            )),
        }
    };

    let opts = SweepOptions {
        config: cli.config,
        max_attempts: 1,
        jobs: cli.jobs,
        chunk_accesses: cli.chunk,
        ..SweepOptions::default()
    };
    let report = match run_sweep_with(&points, &opts, None, &build) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep aborted: {e}");
            std::process::exit(1);
        }
    };
    let stats_of = |bench: &str, ratio: u64, tag: &str| -> &RunStats {
        report
            .stats_of(&format!("{bench}@r{ratio}::{tag}"))
            .unwrap_or_else(|| panic!("design point {bench}@r{ratio}::{tag} failed"))
    };

    let mut headers = vec!["bench".to_owned()];
    for r in ratios {
        headers.push(format!("cache 1/{r}"));
        headers.push(format!("CAMEO 1/{r}"));
    }
    let mut table = Table::new(headers);
    for bench in &cli.benches {
        let mut row = vec![bench.name.to_owned()];
        for ratio in ratios {
            let baseline = stats_of(bench.name, ratio, "base");
            let cache = stats_of(bench.name, ratio, "cache");
            let cameo_stats = stats_of(bench.name, ratio, "cameo");
            row.push(format!("{:.2}x", cache.speedup_over(baseline)));
            row.push(format!("{:.2}x", cameo_stats.speedup_over(baseline)));
        }
        table.row(row);
    }
    outln!(
        "Stacked fraction sweep — total memory fixed at {total}, speedups vs a\n\
         baseline with only that split's off-chip share\n"
    );
    cli.emit(&table);
    outln!(
        "\nAs the stacked share grows, a cache forfeits ever more OS-visible\n\
         capacity; CAMEO's advantage widens — the paper's core motivation."
    );
}
