//! Design-comparison support for the `ext_designs` binary: competing
//! memory organizations crossed with device models, ranked by
//! geometric-mean speedup over the off-chip baseline.
//!
//! The paper compares organizations on one fixed device (the flat
//! Table I DRAMs). This module makes both axes first-class: every
//! design column is an `(organization, device)` pair, the device rides
//! in the sweep-point key (`"mcf::MemCache@50@tldram"`), and the grid
//! ranks all columns by their overall geometric mean — the answer to
//! "which design wins, and does tiering the stacked die change it?".

use std::collections::BTreeMap;

use cameo_sim::checkpoint::PointRecord;
use cameo_sim::experiments::{build_org_on, build_org_traced_on, gmean, OrgKind};
use cameo_sim::harness::{run_sweep_traced_with, SweepOptions, SweepPoint, SweepReport};
use cameo_sim::report::Table;
use cameo_sim::trace::{SharedSink, TraceOptions};
use cameo_sim::RunStats;
use cameo_types::DeviceKind;
use cameo_workloads::BenchSpec;

use crate::Cli;

/// One column of the design-comparison sweep: an organization on a
/// device model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DesignPoint {
    /// The memory organization under test.
    pub kind: OrgKind,
    /// The device model it runs on.
    pub device: DeviceKind,
}

impl DesignPoint {
    /// Column label and key suffix: `"<org>@<device>"`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.kind.label(), self.device.label())
    }
}

/// The design matrix `ext_designs` sweeps: CAMEO, the Alloy cache,
/// dynamic two-level memory, and the MemCache hybrid at three split
/// ratios — each on the flat Table I devices and on the tiered-latency
/// stacked die. The golden-conformance test replays exactly this set at
/// micro scale — change one, regenerate the other.
pub fn designs() -> Vec<DesignPoint> {
    let kinds = [
        OrgKind::cameo_default(),
        OrgKind::AlloyCache,
        OrgKind::TlmDynamic,
        OrgKind::MemCache { split_percent: 25 },
        OrgKind::MemCache { split_percent: 50 },
        OrgKind::MemCache { split_percent: 75 },
    ];
    let mut all = Vec::with_capacity(kinds.len() * DeviceKind::all().len());
    for kind in kinds {
        for device in DeviceKind::all() {
            all.push(DesignPoint { kind, device });
        }
    }
    all
}

/// Recovers the device axis from a design sweep-point key: the suffix
/// after the last `@` (`"mcf::MemCache@50@tldram"` → tiered). Keys
/// without a device suffix — the `"<bench>::#base"` baseline — run on
/// the flat devices.
pub fn device_of_key(key: &str) -> DeviceKind {
    key.rsplit_once('@')
        .and_then(|(_, label)| DeviceKind::parse(label))
        .unwrap_or_default()
}

/// The design sweep's point set: per benchmark, the flat baseline under
/// `"<bench>::#base"` followed by every design column under its
/// device-encoded key `"<bench>::<org>@<device>"`.
pub fn sweep_points(benches: &[BenchSpec], designs: &[DesignPoint]) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(benches.len() * (designs.len() + 1));
    for bench in benches {
        points.push(
            SweepPoint::new(bench.name, OrgKind::Baseline)
                .with_key(format!("{}::#base", bench.name)),
        );
        for design in designs {
            points.push(SweepPoint::new(bench.name, design.kind).with_key(format!(
                "{}::{}",
                bench.name,
                design.label()
            )));
        }
    }
    points
}

/// All per-benchmark runs of the design comparison:
/// `runs[bench][column]` under the column order of [`DesignGrid::designs`].
pub struct DesignGrid {
    /// The design columns, in sweep order.
    pub designs: Vec<DesignPoint>,
    /// Per-benchmark flat-baseline stats.
    pub baselines: BTreeMap<String, RunStats>,
    /// Per-benchmark, per-column stats.
    pub runs: BTreeMap<String, Vec<RunStats>>,
    /// Benchmark order.
    pub order: Vec<BenchSpec>,
    /// The underlying sweep report (wall-clock and throughput gauges).
    pub report: SweepReport,
}

impl DesignGrid {
    /// Runs the baseline plus every design column for every benchmark in
    /// `cli` through the sweep harness, across [`Cli::jobs`] workers.
    /// `--trace-out` arms per-point recording sinks; results are
    /// bit-identical either way (the harness guarantees report equality).
    ///
    /// # Panics
    ///
    /// Panics if any design point fails — the comparison wants broken
    /// designs loud, not silently missing columns.
    pub fn collect(designs: &[DesignPoint], cli: &Cli) -> Self {
        let points = sweep_points(&cli.benches, designs);
        eprintln!(
            "[sweep] {} points ({} benches x {} designs + baseline) across {} worker(s)",
            points.len(),
            cli.benches.len(),
            designs.len(),
            cli.jobs.max(1),
        );
        let opts = SweepOptions {
            config: cli.config,
            max_attempts: 1,
            jobs: cli.jobs,
            chunk_accesses: cli.chunk,
            ..SweepOptions::default()
        };
        let traced = cli.trace_out.is_some();
        let report = run_sweep_traced_with(&points, &opts, None, &|point, config| {
            let bench = cameo_workloads::require(&point.bench)
                .expect("sweep_points draws benchmarks from the Table II suite");
            let device = device_of_key(&point.key);
            if traced {
                let sink = SharedSink::new(TraceOptions::default());
                let org = build_org_traced_on(&bench, point.kind, device, config, sink.clone());
                (org, Some(sink))
            } else {
                (build_org_on(&bench, point.kind, device, config), None)
            }
        })
        .unwrap_or_else(|e| panic!("design sweep failed before any checkpointing: {e}"));

        let mut outcomes = report.outcomes.iter();
        let mut take = || {
            let outcome = outcomes
                .next()
                .expect("the report has one outcome per submitted point");
            match &outcome.record {
                PointRecord::Done { stats, .. } => (**stats).clone(),
                PointRecord::Failed { error, .. } => {
                    panic!("design point {} failed: {error}", outcome.point.key)
                }
            }
        };
        let mut baselines = BTreeMap::new();
        let mut runs = BTreeMap::new();
        for bench in &cli.benches {
            let base = take();
            let row: Vec<RunStats> = designs.iter().map(|_| take()).collect();
            baselines.insert(bench.name.to_owned(), base);
            runs.insert(bench.name.to_owned(), row);
        }
        Self {
            designs: designs.to_vec(),
            baselines,
            runs,
            order: cli.benches.clone(),
            report,
        }
    }

    /// Speedup of a design column (by index) on `bench`, over the flat
    /// off-chip baseline.
    pub fn speedup(&self, bench: &str, col: usize) -> f64 {
        self.runs[bench][col].speedup_over(&self.baselines[bench])
    }

    /// Geometric-mean speedup of one column over all benchmarks.
    pub fn gmean_all(&self, col: usize) -> f64 {
        gmean(self.order.iter().map(|b| self.speedup(b.name, col))).expect("benchmarks present")
    }

    /// Per-benchmark speedup table, one column per design.
    pub fn speedup_table(&self) -> Table {
        let mut headers = vec!["bench".to_owned()];
        headers.extend(self.designs.iter().map(DesignPoint::label));
        let mut table = Table::new(headers);
        for bench in &self.order {
            let mut row = vec![bench.name.to_owned()];
            for col in 0..self.designs.len() {
                row.push(format!("{:.2}x", self.speedup(bench.name, col)));
            }
            table.row(row);
        }
        table
    }

    /// Columns ranked by overall geometric mean, best first. Ties (to
    /// the displayed precision and beyond) break on column order, so the
    /// ranking is deterministic.
    pub fn ranking(&self) -> Vec<(DesignPoint, f64)> {
        let mut ranked: Vec<(DesignPoint, f64)> = self
            .designs
            .iter()
            .enumerate()
            .map(|(col, design)| (*design, self.gmean_all(col)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked
    }

    /// Per-benchmark MemCache split preference on the flat devices: the
    /// split that measured fastest next to the split the benchmark's
    /// workload category predicts
    /// ([`BenchSpec::preferred_memcache_split`]) — capacity-limited rows
    /// should want memory (75), latency-limited rows cache (25).
    pub fn split_preference_table(&self) -> Table {
        let splits: Vec<(usize, u8)> = self
            .designs
            .iter()
            .enumerate()
            .filter_map(|(col, d)| match (d.kind, d.device) {
                (OrgKind::MemCache { split_percent }, DeviceKind::Flat) => {
                    Some((col, split_percent))
                }
                _ => None,
            })
            .collect();
        let mut table = Table::new(vec![
            "bench".to_owned(),
            "category".to_owned(),
            "best split".to_owned(),
            "predicted".to_owned(),
            "agrees".to_owned(),
        ]);
        for bench in &self.order {
            let (_, best) = splits
                .iter()
                .copied()
                .max_by(|a, b| {
                    self.speedup(bench.name, a.0)
                        .partial_cmp(&self.speedup(bench.name, b.0))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("the design matrix carries MemCache splits");
            let predicted = bench.preferred_memcache_split();
            table.row(vec![
                bench.name.to_owned(),
                bench.category.to_string(),
                format!("{best}%"),
                format!("{predicted}%"),
                if best == predicted { "yes" } else { "no" }.to_owned(),
            ]);
        }
        table
    }

    /// The ranked summary table: rank, design, device, gmean speedup.
    pub fn ranking_table(&self) -> Table {
        let mut table = Table::new(vec![
            "rank".to_owned(),
            "design".to_owned(),
            "device".to_owned(),
            "gmean".to_owned(),
        ]);
        for (rank, (design, g)) in self.ranking().into_iter().enumerate() {
            table.row(vec![
                format!("{}", rank + 1),
                design.kind.label().to_owned(),
                design.device.label().to_owned(),
                format!("{g:.2}x"),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_both_axes() {
        let all = designs();
        assert_eq!(all.len(), 12, "6 organizations x 2 devices");
        for device in DeviceKind::all() {
            assert_eq!(all.iter().filter(|d| d.device == device).count(), 6);
        }
        // Labels are unique — they double as checkpoint key suffixes.
        let mut labels: Vec<String> = all.iter().map(DesignPoint::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn device_recovers_from_keys() {
        assert_eq!(device_of_key("mcf::CAMEO@tldram"), DeviceKind::TlDram);
        assert_eq!(device_of_key("mcf::MemCache@50@flat"), DeviceKind::Flat);
        assert_eq!(device_of_key("mcf::MemCache@75@tldram"), DeviceKind::TlDram);
        assert_eq!(device_of_key("mcf::#base"), DeviceKind::Flat);
    }

    #[test]
    fn point_set_is_baseline_plus_columns() {
        let benches = vec![cameo_workloads::require("mcf").expect("suite benchmark")];
        let points = sweep_points(&benches, &designs());
        assert_eq!(points.len(), 13);
        assert_eq!(points[0].key, "mcf::#base");
        assert_eq!(points[1].key, "mcf::CAMEO@flat");
        assert_eq!(points[2].key, "mcf::CAMEO@tldram");
        assert_eq!(points[12].key, "mcf::MemCache@75@tldram");
    }
}
