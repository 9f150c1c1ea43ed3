//! Runtime invariant auditing (compiled only with the `deep-audit`
//! feature).
//!
//! CAMEO's correctness rests on a small set of structural invariants that
//! no single unit test can pin down across arbitrary access interleavings:
//!
//! * every [`LltEntry`](crate::llt::LltEntry) is a **bijection** between
//!   ways and slots — the exactly-one-copy property that distinguishes
//!   CAMEO from a cache (paper Section IV-B);
//! * consequently exactly **one line per congruence group** is
//!   stacked-resident (holds slot 0);
//! * the congruence decomposition **round-trips**: every line address maps
//!   to a `(group, way)` pair that reconstructs the same address;
//! * controller counters **conserve**: stacked- and off-chip-serviced
//!   reads partition demand reads, prediction cases never outnumber reads,
//!   and swaps never exceed off-chip-serviced reads (a swap is only ever
//!   triggered by an off-chip demand read).
//!
//! The [`InvariantAuditor`] provides the sampling schedule: property tests
//! audit after *every* event ([`InvariantAuditor::always`]), while release
//! simulations sample every N events to keep the O(groups) LLT sweep off
//! the critical path. The checks themselves are free functions returning
//! [`AuditError`] so callers choose between propagating and aborting.

use std::fmt;

use crate::congruence::CongruenceMap;
use crate::controller::CameoStats;
use crate::llt::LineLocationTable;

/// A violated invariant, with enough detail to debug the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Short name of the invariant that failed.
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.detail
        )
    }
}

impl std::error::Error for AuditError {}

/// Decides *when* to audit: every `interval`-th call to
/// [`InvariantAuditor::tick`] returns `true`.
///
/// The default used by the controller is [`InvariantAuditor::sampled`];
/// tests that want a check after every mutation use
/// [`InvariantAuditor::always`].
#[derive(Debug, Clone)]
pub struct InvariantAuditor {
    interval: u64,
    since_last: u64,
    audits: u64,
}

/// Default sampling interval of release simulations: frequent enough to
/// catch drift within a benchmark, rare enough that the O(groups) sweep
/// does not dominate runtime.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1024;

impl InvariantAuditor {
    /// Audits on every tick.
    pub fn always() -> Self {
        Self::every(1)
    }

    /// Audits at the release-simulation sampling rate.
    pub fn sampled() -> Self {
        Self::every(DEFAULT_SAMPLE_INTERVAL)
    }

    /// Audits every `interval`-th tick.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn every(interval: u64) -> Self {
        assert!(interval > 0, "audit interval must be at least 1");
        Self {
            interval,
            since_last: 0,
            audits: 0,
        }
    }

    /// Registers one event; returns `true` when an audit is due.
    pub fn tick(&mut self) -> bool {
        self.since_last += 1;
        if self.since_last >= self.interval {
            self.since_last = 0;
            self.audits += 1;
            true
        } else {
            false
        }
    }

    /// Number of audits signalled so far.
    pub fn audits(&self) -> u64 {
        self.audits
    }
}

impl Default for InvariantAuditor {
    fn default() -> Self {
        Self::sampled()
    }
}

/// Verifies that every LLT entry is a bijection and that exactly one way
/// per congruence group occupies the stacked slot.
pub fn check_llt(llt: &LineLocationTable) -> Result<(), AuditError> {
    let groups = llt.congruence().groups();
    for group in 0..groups {
        let entry = llt.entry(group);
        if !entry.is_permutation() {
            return Err(AuditError {
                invariant: "llt-bijection",
                detail: format!("group {group} entry is not a way↔slot bijection: {entry:?}"),
            });
        }
        let stacked_ways = (0..entry.ratio())
            .filter(|&w| entry.slot_of(w).is_stacked())
            .count();
        if stacked_ways != 1 {
            return Err(AuditError {
                invariant: "one-stacked-line-per-group",
                detail: format!(
                    "group {group} has {stacked_ways} stacked-resident ways, expected 1"
                ),
            });
        }
    }
    Ok(())
}

/// Verifies the congruence round-trip `line_of(split(l)) == l`
/// over a deterministic sample of the line space (exhaustive when the space
/// has at most 4096 lines).
pub fn check_congruence(map: &CongruenceMap) -> Result<(), AuditError> {
    let total = map.total_lines();
    let step = (total / 4096).max(1);
    let mut raw = 0u64;
    while raw < total {
        let line = cameo_types::LineAddr::new(raw);
        let (group, way) = map.split(line);
        let back = map.line_of(group, way);
        if back != line {
            return Err(AuditError {
                invariant: "congruence-round-trip",
                detail: format!(
                    "line {raw} decomposes to (group {group}, way {way}) but \
                     reconstructs to {}",
                    back.raw()
                ),
            });
        }
        raw += step;
    }
    Ok(())
}

/// Verifies controller counter conservation. `swaps_since_reset` is the
/// LLT swap count re-baselined at the last stats reset (the swap counter
/// itself is mapping state and survives resets).
pub fn check_stats(stats: &CameoStats, swaps_since_reset: u64) -> Result<(), AuditError> {
    let serviced = stats.serviced_stacked + stats.serviced_off_chip;
    if serviced != stats.demand_reads {
        return Err(AuditError {
            invariant: "reads-partitioned",
            detail: format!(
                "serviced_stacked {} + serviced_off_chip {} != demand_reads {}",
                stats.serviced_stacked, stats.serviced_off_chip, stats.demand_reads
            ),
        });
    }
    if stats.cases.total() > stats.demand_reads {
        return Err(AuditError {
            invariant: "cases-bounded-by-reads",
            detail: format!(
                "prediction cases {} exceed demand reads {}",
                stats.cases.total(),
                stats.demand_reads
            ),
        });
    }
    if swaps_since_reset > stats.serviced_off_chip {
        return Err(AuditError {
            invariant: "swaps-bounded-by-off-chip-reads",
            detail: format!(
                "{swaps_since_reset} swaps since reset exceed {} off-chip-serviced reads",
                stats.serviced_off_chip
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auditor_schedules() {
        let mut a = InvariantAuditor::every(3);
        let fired: Vec<bool> = (0..7).map(|_| a.tick()).collect();
        assert_eq!(fired, [false, false, true, false, false, true, false]);
        assert_eq!(a.audits(), 2);
        let mut always = InvariantAuditor::always();
        assert!(always.tick() && always.tick());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_interval_rejected() {
        InvariantAuditor::every(0);
    }

    #[test]
    fn clean_llt_passes() {
        let map = CongruenceMap::new(16, 4);
        let mut llt = LineLocationTable::new(map);
        check_llt(&llt).expect("identity table is a bijection");
        llt.promote(map.line_of(3, 2));
        check_llt(&llt).expect("promotion preserves the bijection");
    }

    #[test]
    fn congruence_round_trips() {
        for ratio in 2..=8u8 {
            let map = CongruenceMap::new(64, ratio);
            check_congruence(&map).expect("decomposition must round-trip");
        }
        // A space larger than the exhaustive bound exercises sampling.
        let big = CongruenceMap::new(1 << 16, 4);
        check_congruence(&big).expect("sampled round-trip over a large space");
    }

    #[test]
    fn stats_conservation() {
        let mut s = CameoStats {
            demand_reads: 10,
            serviced_stacked: 7,
            serviced_off_chip: 3,
            ..CameoStats::default()
        };
        check_stats(&s, 3).expect("balanced counters pass");
        check_stats(&s, 4).expect_err("swaps cannot exceed off-chip reads");
        s.serviced_stacked = 8;
        let err = check_stats(&s, 0).expect_err("reads no longer partitioned");
        assert_eq!(err.invariant, "reads-partitioned");
        assert!(err.to_string().contains("reads-partitioned"));
    }
}
