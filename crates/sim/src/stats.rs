//! Run-level statistics: the raw material for every table and figure.

use cameo::PredictionCaseCounts;

/// Bytes moved on each bus during the measured region (the paper's
/// Table IV numerators).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BandwidthReport {
    /// Stacked-DRAM bus bytes (reads + writes).
    pub stacked_bytes: u64,
    /// Off-chip DRAM bus bytes.
    pub off_chip_bytes: u64,
    /// Storage (SSD) bytes.
    pub storage_bytes: u64,
}

impl BandwidthReport {
    /// Normalizes each bus to the baseline, as in Table IV: off-chip and
    /// storage to the baseline's same bus, and stacked to the baseline's
    /// *off-chip* bus (the baseline has no stacked DRAM to divide by).
    /// A ratio is `None` when the baseline bus moved zero bytes.
    pub fn normalized_to(&self, baseline: &BandwidthReport) -> NormalizedBandwidth {
        let div = |a: u64, b: u64| (b > 0).then(|| a as f64 / b as f64);
        NormalizedBandwidth {
            stacked: div(self.stacked_bytes, baseline.off_chip_bytes),
            off_chip: div(self.off_chip_bytes, baseline.off_chip_bytes),
            storage: div(self.storage_bytes, baseline.storage_bytes),
        }
    }
}

/// Bandwidth normalized to a baseline run (Table IV rows).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NormalizedBandwidth {
    /// Stacked traffic over baseline off-chip traffic.
    pub stacked: Option<f64>,
    /// Off-chip traffic over baseline off-chip traffic.
    pub off_chip: Option<f64>,
    /// Storage traffic over baseline storage traffic.
    pub storage: Option<f64>,
}

/// Everything measured in one simulation run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunStats {
    /// Organization label.
    pub org: String,
    /// Benchmark name.
    pub bench: String,
    /// Execution time of the measured region (max over cores).
    pub execution_cycles: u64,
    /// Instructions retired in the measured region (per-core average).
    pub instructions: u64,
    /// Demand reads serviced.
    pub demand_reads: u64,
    /// Writes serviced.
    pub demand_writes: u64,
    /// Demand reads serviced by stacked DRAM.
    pub serviced_stacked: u64,
    /// Demand reads serviced by off-chip DRAM.
    pub serviced_off_chip: u64,
    /// Page faults in the measured region.
    pub faults: u64,
    /// Bus traffic.
    pub bandwidth: BandwidthReport,
    /// Prediction-case taxonomy (CAMEO runs only).
    pub cases: Option<PredictionCaseCounts>,
    /// Pages moved by TLM migration.
    pub migrated_pages: u64,
    /// Sum of (completion − issue) over measured demand reads, for average
    /// read-latency reporting.
    pub read_latency_sum: u64,
    /// Log2-bucketed demand-read latency histogram: bucket `k` counts reads
    /// with latency in `[2^k, 2^(k+1))` cycles (bucket 0 is `< 2`).
    pub latency_histogram: [u64; 24],
}

/// Bucket index of a latency value in [`RunStats::latency_histogram`].
#[inline]
pub fn latency_bucket(latency: u64) -> usize {
    (63 - (latency | 1).leading_zeros()).min(23) as usize
}

impl RunStats {
    /// Cycles per instruction of the measured region.
    ///
    /// # Panics
    ///
    /// Panics if no instructions were measured.
    pub fn cpi(&self) -> f64 {
        assert!(self.instructions > 0, "no instructions measured");
        self.execution_cycles as f64 / self.instructions as f64
    }

    /// Speedup of this run relative to `baseline` (the paper's figure of
    /// merit): ratio of baseline to this run's cycles-per-instruction.
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        baseline.cpi() / self.cpi()
    }

    /// Total demand accesses (reads + writes) in the measured region —
    /// the numerator of the host-side accesses/sec throughput gauge.
    pub fn accesses(&self) -> u64 {
        self.demand_reads + self.demand_writes
    }

    /// Fraction of demand reads serviced by stacked DRAM.
    pub fn stacked_service_rate(&self) -> Option<f64> {
        (self.demand_reads > 0).then(|| self.serviced_stacked as f64 / self.demand_reads as f64)
    }

    /// Average demand-read latency in cycles (includes queueing, excludes
    /// page-fault reads).
    pub fn avg_read_latency(&self) -> Option<f64> {
        (self.demand_reads > 0).then(|| self.read_latency_sum as f64 / self.demand_reads as f64)
    }

    /// Verifies counter conservation: stacked- plus off-chip-serviced reads
    /// never exceed demand reads (some organizations service reads from
    /// other storage, so `≤` rather than `==`), and the latency histogram
    /// accounts for every demand read exactly once.
    #[cfg(feature = "deep-audit")]
    pub fn audit(&self) -> Result<(), String> {
        let serviced = self.serviced_stacked + self.serviced_off_chip;
        if serviced > self.demand_reads {
            return Err(format!(
                "serviced reads ({} stacked + {} off-chip) exceed demand \
                 reads ({})",
                self.serviced_stacked, self.serviced_off_chip, self.demand_reads
            ));
        }
        let histogram_total: u64 = self.latency_histogram.iter().sum();
        if histogram_total != self.demand_reads {
            return Err(format!(
                "latency histogram counts {histogram_total} reads but \
                 {} were demanded",
                self.demand_reads
            ));
        }
        Ok(())
    }
}

/// Geometric mean of an iterator of positive values; `None` when empty.
pub fn gmean<I: IntoIterator<Item = f64>>(values: I) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "gmean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, instructions: u64) -> RunStats {
        RunStats {
            org: "test".into(),
            bench: "test".into(),
            execution_cycles: cycles,
            instructions,
            demand_reads: 10,
            demand_writes: 2,
            serviced_stacked: 7,
            serviced_off_chip: 3,
            faults: 0,
            bandwidth: BandwidthReport::default(),
            cases: None,
            migrated_pages: 0,
            read_latency_sum: 0,
            latency_histogram: [0; 24],
        }
    }

    #[test]
    fn cpi_and_speedup() {
        let base = stats(2000, 1000);
        let fast = stats(1000, 1000);
        assert_eq!(base.cpi(), 2.0);
        assert_eq!(fast.speedup_over(&base), 2.0);
        assert_eq!(base.speedup_over(&base), 1.0);
    }

    #[test]
    fn speedup_normalizes_instruction_counts() {
        // Same per-instruction cost, different measured lengths: speedup 1.
        let a = stats(2000, 1000);
        let b = stats(4000, 2000);
        assert!((b.speedup_over(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn service_rate() {
        assert_eq!(stats(1, 1).stacked_service_rate(), Some(0.7));
    }

    #[test]
    fn gmean_basics() {
        assert_eq!(gmean([]), None);
        let g = gmean([1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_buckets() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(4), 2);
        assert_eq!(latency_bucket(100_000), 16);
        assert_eq!(latency_bucket(u64::MAX), 23); // clamped to the last bucket
    }

    #[test]
    fn bandwidth_normalization() {
        let base = BandwidthReport {
            stacked_bytes: 0,
            off_chip_bytes: 1000,
            storage_bytes: 500,
        };
        let c = BandwidthReport {
            stacked_bytes: 1930,
            off_chip_bytes: 550,
            storage_bytes: 500,
        };
        let n = c.normalized_to(&base);
        assert_eq!(n.stacked, Some(1.93));
        assert_eq!(n.off_chip, Some(0.55));
        assert_eq!(n.storage, Some(1.0));
    }
}
