//! Figure 14: normalized power and energy-delay product for each design.

use cameo_bench::{print_header, Cli, SpeedupGrid};
use cameo_sim::energy::{edp, power};
use cameo_sim::experiments::{gmean, OrgKind};
use cameo_sim::report::Table;

fn main() {
    let cli = Cli::parse();
    print_header("Figure 14 — power and EDP", &cli);
    let kinds = [
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::cameo_default(),
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);

    let mut table = Table::new(vec!["design", "power (norm.)", "EDP (norm.)"]);
    for (col, kind) in kinds.iter().enumerate() {
        let mut powers = Vec::new();
        let mut edps = Vec::new();
        for bench in &grid.order {
            let base = &grid.baselines[bench.name];
            let run = &grid.runs[bench.name][col];
            let p = power(run, base, bench.category).total()
                / power(base, base, bench.category).total();
            powers.push(p);
            edps.push(edp(run, base, bench.category));
        }
        table.row(vec![
            kind.label().to_owned(),
            format!("{:.2}x", gmean(powers).expect("benchmarks present")),
            format!("{:.2}x", gmean(edps).expect("benchmarks present")),
        ]);
    }
    println!("Figure 14 — power and energy-delay product, normalized to baseline\n");
    cli.emit(&table);
    cli.emit_trace("fig14_energy", &grid.report);
    println!(
        "\npaper (overall): power Cache +14%, CAMEO +37%, TLM-Dynamic +51%;\n\
         EDP Cache -4%, TLM-Static -21%, CAMEO -49% (lower is better)"
    );
}
