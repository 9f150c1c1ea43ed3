//! Design-comparison support for the `ext_designs` binary: competing
//! memory organizations crossed with device models, ranked by
//! geometric-mean speedup over the off-chip baseline.
//!
//! The paper compares organizations on one fixed device (the flat
//! Table I DRAMs). This module makes both axes first-class: every
//! design column is an `(organization, device)` pair, the device rides
//! in the sweep-point key (`"mcf::MemCache@50@tldram"`), and the tables
//! here render a [`SpeedupGrid`] of those columns, ranking them by their
//! overall geometric mean — the answer to "which design wins, and does
//! tiering the stacked die change it?".

use cameo_sim::experiments::OrgKind;
use cameo_sim::report::Table;
use cameo_types::DeviceKind;

use crate::{Column, SpeedupGrid};

/// The design matrix `ext_designs` sweeps: CAMEO, the Alloy cache,
/// dynamic two-level memory, and the MemCache hybrid at three split
/// ratios — each on the flat Table I devices and on the tiered-latency
/// stacked die. The golden-conformance test replays exactly this set at
/// micro scale — change one, regenerate the other.
pub fn designs() -> Vec<Column> {
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
            all.push(Column {
                kind,
                device: Some(device),
            });
        }
    }
    all
}

/// Recovers the device axis from a sweep-point key: the suffix after the
/// last `@` (`"mcf::MemCache@50@tldram"` → tiered). Keys without a device
/// suffix — the `"<bench>::#base"` baseline and the column-indexed
/// `"<bench>::#<col>"` points — run on the flat devices.
pub fn device_of_key(key: &str) -> DeviceKind {
    key.rsplit_once('@')
        .and_then(|(_, label)| DeviceKind::parse(label))
        .unwrap_or_default()
}

/// Per-benchmark speedup table, one column per design.
pub fn speedup_table(grid: &SpeedupGrid) -> Table {
    let mut headers = vec!["bench".to_owned()];
    headers.extend(grid.columns.iter().map(Column::label));
    let mut table = Table::new(headers);
    for bench in &grid.order {
        let mut row = vec![bench.name.to_owned()];
        for col in 0..grid.columns.len() {
            row.push(format!("{:.2}x", grid.speedup(bench.name, col)));
        }
        table.row(row);
    }
    table
}

/// Per-benchmark MemCache split preference on the flat devices: the split
/// that measured fastest next to the split the benchmark's workload
/// category predicts ([`cameo_workloads::BenchSpec::preferred_memcache_split`])
/// — capacity-limited rows should want memory (75), latency-limited rows
/// cache (25).
///
/// # Panics
///
/// Panics if the grid has no MemCache column on the flat devices.
pub fn split_preference_table(grid: &SpeedupGrid) -> Table {
    let splits: Vec<(usize, u8)> = grid
        .columns
        .iter()
        .enumerate()
        .filter_map(|(col, c)| match (c.kind, c.device.unwrap_or_default()) {
            (OrgKind::MemCache { split_percent }, DeviceKind::Flat) => Some((col, split_percent)),
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
    for bench in &grid.order {
        let (_, best) = splits
            .iter()
            .copied()
            .max_by(|a, b| {
                grid.speedup(bench.name, a.0)
                    .partial_cmp(&grid.speedup(bench.name, b.0))
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

/// The ranked summary table: rank, design, device, gmean speedup, best
/// first. Ties (to the displayed precision and beyond) break on column
/// order, so the ranking is deterministic.
pub fn ranking_table(grid: &SpeedupGrid) -> Table {
    let mut ranked: Vec<(&Column, f64)> = grid
        .columns
        .iter()
        .enumerate()
        .map(|(col, column)| (column, grid.gmean_all(col)))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut table = Table::new(vec![
        "rank".to_owned(),
        "design".to_owned(),
        "device".to_owned(),
        "gmean".to_owned(),
    ]);
    for (rank, (column, g)) in ranked.into_iter().enumerate() {
        table.row(vec![
            format!("{}", rank + 1),
            column.kind.label().to_owned(),
            column.device.unwrap_or_default().label().to_owned(),
            format!("{g:.2}x"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_both_axes() {
        let all = designs();
        assert_eq!(all.len(), 12, "6 organizations x 2 devices");
        for device in DeviceKind::all() {
            assert_eq!(all.iter().filter(|d| d.device == Some(device)).count(), 6);
        }
        // Labels are unique — they double as checkpoint key suffixes.
        let mut labels: Vec<String> = all.iter().map(Column::label).collect();
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
        let points = SpeedupGrid::points(&benches, &designs());
        assert_eq!(points.len(), 13);
        assert_eq!(points[0].key, "mcf::#base");
        assert_eq!(points[1].key, "mcf::CAMEO@flat");
        assert_eq!(points[2].key, "mcf::CAMEO@tldram");
        assert_eq!(points[12].key, "mcf::MemCache@75@tldram");
    }
}
