//! The abstract latency analysis of the paper's Figure 8.
//!
//! A single request serviced in isolation, with stacked DRAM costing one
//! unit and off-chip DRAM two units. `H` is a line resident in stacked
//! memory, `M` one resident off-chip. This closed-form model is what the
//! `fig08_llt_latency` bench binary prints; the cycle-level controller in
//! [`crate::Cameo`] is the executable counterpart.

/// Latency of one stacked-DRAM access, in abstract units.
pub const STACKED_UNIT: u32 = 1;

/// Latency of one off-chip access, in abstract units.
pub const OFF_CHIP_UNIT: u32 = 2;

/// Cycles to run a SECDED syndrome check and correct a single flipped bit
/// of an LLT/LEAD metadata word — a short combinational path plus a mux,
/// comparable to a couple of pipeline stages at 3.2 GHz.
pub const ECC_CORRECT_CYCLES: u64 = 6;

/// Cycles the controller waits before declaring a DRAM response lost and
/// eligible for retry. Far above any legitimate queued completion time at
/// simulated load, far below the watchdog horizon.
pub const DROP_TIMEOUT_CYCLES: u64 = 1_000;

/// Base backoff between retry attempts of a dropped response; attempt `n`
/// waits `n` times this.
pub const RETRY_BACKOFF_CYCLES: u64 = 50;

/// The memory-system designs compared in Figure 8.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LatencyDesign {
    /// No stacked DRAM: every access is off-chip.
    Baseline,
    /// Zero-cost oracle LLT.
    IdealLlt,
    /// LLT stored in a reserved stacked region; every access pays the
    /// lookup first.
    EmbeddedLlt,
    /// LLT entry co-located with the stacked data line (LEAD).
    CoLocatedLlt,
    /// Co-Located LLT plus a correct off-chip location prediction
    /// (the LLT lookup overlaps the off-chip fetch).
    CoLocatedPredicted,
}

impl LatencyDesign {
    /// All designs, in Figure 8's presentation order.
    pub const ALL: [LatencyDesign; 5] = [
        LatencyDesign::Baseline,
        LatencyDesign::IdealLlt,
        LatencyDesign::EmbeddedLlt,
        LatencyDesign::CoLocatedLlt,
        LatencyDesign::CoLocatedPredicted,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            LatencyDesign::Baseline => "Baseline (no stacked)",
            LatencyDesign::IdealLlt => "Ideal-LLT",
            LatencyDesign::EmbeddedLlt => "Embedded-LLT",
            LatencyDesign::CoLocatedLlt => "Co-Located LLT",
            LatencyDesign::CoLocatedPredicted => "Co-Located LLT + correct LLP",
        }
    }
}

/// Latency in abstract units for a request whose line is stacked-resident
/// (`resident_stacked = true`, case H) or off-chip (case M).
pub fn latency_units(design: LatencyDesign, resident_stacked: bool) -> u32 {
    match (design, resident_stacked) {
        // No stacked DRAM: the H case cannot arise; both are off-chip.
        (LatencyDesign::Baseline, _) => OFF_CHIP_UNIT,
        (LatencyDesign::IdealLlt, true) => STACKED_UNIT,
        (LatencyDesign::IdealLlt, false) => OFF_CHIP_UNIT,
        // Lookup (stacked) then data.
        (LatencyDesign::EmbeddedLlt, true) => STACKED_UNIT + STACKED_UNIT,
        (LatencyDesign::EmbeddedLlt, false) => STACKED_UNIT + OFF_CHIP_UNIT,
        // LEAD probe returns entry + data in one transfer when resident.
        (LatencyDesign::CoLocatedLlt, true) => STACKED_UNIT,
        (LatencyDesign::CoLocatedLlt, false) => STACKED_UNIT + OFF_CHIP_UNIT,
        // Parallel verify: max(probe, off-chip fetch).
        (LatencyDesign::CoLocatedPredicted, true) => STACKED_UNIT,
        (LatencyDesign::CoLocatedPredicted, false) => STACKED_UNIT.max(OFF_CHIP_UNIT),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_values() {
        use LatencyDesign::*;
        // The exact unit numbers from Figure 8's bars.
        assert_eq!(latency_units(Baseline, false), 2);
        assert_eq!(latency_units(IdealLlt, true), 1);
        assert_eq!(latency_units(IdealLlt, false), 2);
        assert_eq!(latency_units(EmbeddedLlt, true), 2);
        assert_eq!(latency_units(EmbeddedLlt, false), 3);
        assert_eq!(latency_units(CoLocatedLlt, true), 1);
        assert_eq!(latency_units(CoLocatedLlt, false), 3);
        assert_eq!(latency_units(CoLocatedPredicted, false), 2);
    }

    #[test]
    fn colocated_beats_embedded_on_hits() {
        use LatencyDesign::*;
        assert!(latency_units(CoLocatedLlt, true) < latency_units(EmbeddedLlt, true));
    }

    #[test]
    fn prediction_recovers_ideal_miss_latency() {
        use LatencyDesign::*;
        assert_eq!(
            latency_units(CoLocatedPredicted, false),
            latency_units(IdealLlt, false)
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: cameo_types::DetHashSet<_> =
            LatencyDesign::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(labels.len(), LatencyDesign::ALL.len());
    }
}
