//! The CAMEO memory controller: glues the LLT design and the location
//! predictor to the two DRAM timing models.

#[cfg(not(feature = "faults"))]
use cameo_memsim::Dram;
use cameo_memsim::DramConfig;

#[cfg(feature = "faults")]
use cameo_types::RecoveryKind;
use cameo_types::{Access, ByteSize, Cycle, LineAddr, MemKind, NopSink, TraceEvent, TraceSink};

use crate::congruence::CongruenceMap;
use crate::llp::{LineLocationPredictor, PredictionCase, PredictionCaseCounts};
use crate::llt::{LineLocationTable, Slot};
use crate::swap_filter::{HotPageFilter, SwapPolicy};

/// The device type the controller drives: the fault-injecting wrapper when
/// the `faults` feature is compiled in (inert until
/// [`Cameo::inject_faults`] arms it), the bare timing model otherwise.
#[cfg(feature = "faults")]
pub type Device = cameo_memsim::faults::FaultyDevice;

/// The device type the controller drives: the bare DRAM timing model.
#[cfg(not(feature = "faults"))]
pub type Device = Dram;

/// Transfer size of one LEAD (66 bytes of payload, moved as a burst of five
/// — 80 bytes — on the 16-byte stacked bus; paper Section IV-D).
pub const LEAD_BYTES: u32 = 66;

/// Transfer size of one data line on a device bus.
const LINE_BYTES: u32 = cameo_types::LINE_BYTES as u32;

/// Where the Line Location Table physically lives (paper Section IV-C/D).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LltDesign {
    /// Zero-latency, zero-storage oracle — an upper bound.
    Ideal,
    /// The paper's Figure 6(a) strawman: the whole table in on-chip SRAM.
    /// Lookups cost an L3-like [`SRAM_LLT_CYCLES`] before every memory
    /// access but no DRAM traffic. The paper dismisses it as impractical —
    /// the 64 MB table would displace the entire L3 — but it is the
    /// cleanest latency reference between Ideal and Embedded, so it is
    /// modeled here.
    Sram,
    /// Table stored in a reserved region of stacked DRAM; every access
    /// serializes behind the table read.
    Embedded,
    /// Entry co-located with the group's stacked data line as a LEAD; a
    /// stacked-resident access needs one probe, an off-chip access pays
    /// serialization unless predicted.
    CoLocated,
}

/// Lookup latency of the (impractical) SRAM-resident LLT: the paper notes
/// it would be "as high as the L3 cache (24 cycles)".
pub const SRAM_LLT_CYCLES: u64 = 24;

/// How the controller decides whether to launch the off-chip access in
/// parallel (paper Section V).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredictorKind {
    /// Serial Access Memory: always probe stacked first (equivalently,
    /// always predict "stacked").
    SerialAccess,
    /// The paper's PC-indexed last-location predictor.
    Llp,
    /// Oracle that always predicts the true location.
    Perfect,
}

/// Configuration of a CAMEO memory system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CameoConfig {
    /// Stacked-DRAM capacity (defines the congruence-group count).
    pub stacked: ByteSize,
    /// Off-chip capacity; must be a multiple of `stacked`.
    pub off_chip: ByteSize,
    /// LLT hardware design.
    pub llt: LltDesign,
    /// Location-prediction scheme (only meaningful for
    /// [`LltDesign::CoLocated`]; other designs ignore it).
    pub predictor: PredictorKind,
    /// Number of cores (one predictor table each).
    pub cores: u16,
    /// LLP entries per core table (power of two).
    pub llp_entries: usize,
}

/// Activity counters of the controller, including the Table III prediction
/// taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CameoStats {
    /// Demand reads serviced.
    pub demand_reads: u64,
    /// Writes serviced.
    pub demand_writes: u64,
    /// Demand reads serviced by stacked DRAM.
    pub serviced_stacked: u64,
    /// Demand reads serviced by off-chip DRAM.
    pub serviced_off_chip: u64,
    /// Useless parallel off-chip fetches (prediction cases 2 and 5).
    pub wasted_off_chip_fetches: u64,
    /// Prediction-case counters (reads under the Co-Located design).
    pub cases: PredictionCaseCounts,
}

impl CameoStats {
    /// Fraction of demand reads serviced by stacked DRAM.
    pub fn stacked_service_rate(&self) -> Option<f64> {
        (self.demand_reads > 0).then(|| self.serviced_stacked as f64 / self.demand_reads as f64)
    }
}

/// Result of one access through the controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Cycle the demanded data is available.
    pub completion: Cycle,
    /// Device that serviced the demand.
    pub serviced_by: MemKind,
    /// Prediction classification, when a prediction was made.
    pub case: Option<PredictionCase>,
}

/// The CAMEO controller (paper Sections IV and V).
///
/// Owns the two DRAM devices, the LLT contents, and the predictor; exposes a
/// single [`Cameo::access`] entry point that charges all timing and swap
/// traffic.
///
/// Swap writes (install of the promoted line, writeback of the demoted
/// line, LLT update) are issued as *posted* traffic: they occupy banks and
/// buses — creating back-pressure for later accesses — but do not extend
/// the completion time of the access that triggered them, mirroring the
/// paper's use of existing writeback/fill queues.
///
/// The `S` parameter is the [`TraceSink`] receiving typed events. The
/// default [`NopSink`] has `ENABLED == false`, so every emission site —
/// guarded by `if S::ENABLED` — monomorphizes away and the untraced
/// controller is byte-for-byte the pre-tracing hot path.
#[derive(Clone, Debug)]
pub struct Cameo<S: TraceSink = NopSink> {
    config: CameoConfig,
    map: CongruenceMap,
    llt: LineLocationTable,
    llp: LineLocationPredictor,
    stacked: Device,
    off_chip: Device,
    stats: CameoStats,
    /// [`SwapPolicy::HotPagesOnly`]'s filter; `None` under
    /// [`SwapPolicy::Always`], which swaps on every off-chip read.
    hot_filter: Option<HotPageFilter>,
    #[cfg(feature = "faults")]
    recovery: crate::recovery::RecoveryState,
    #[cfg(feature = "deep-audit")]
    auditor: crate::audit::InvariantAuditor,
    /// LLT swap count at the last stats reset: the swap counter is mapping
    /// state and survives [`Cameo::reset_stats`], so conservation checks
    /// must compare against this baseline.
    #[cfg(feature = "deep-audit")]
    swaps_at_reset: u64,
    sink: S,
}

impl Cameo {
    /// Builds a CAMEO system with identity-mapped lines and tracing
    /// disabled (the [`NopSink`] — zero overhead).
    ///
    /// # Panics
    ///
    /// Panics if `off_chip` is not a positive multiple of `stacked`, or if
    /// the resulting ratio exceeds 8, or if `cores == 0`, or if
    /// `llp_entries` is not a power of two.
    pub fn new(config: CameoConfig) -> Self {
        Self::with_sink(config, NopSink)
    }
}

impl<S: TraceSink> Cameo<S> {
    /// Builds a CAMEO system with identity-mapped lines, emitting
    /// [`TraceEvent`]s into `sink`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Cameo::new`].
    pub fn with_sink(config: CameoConfig, sink: S) -> Self {
        Self::with_sink_on(
            config,
            DramConfig::stacked(config.stacked),
            DramConfig::off_chip(config.off_chip),
            sink,
        )
    }

    /// Builds a CAMEO system on explicit device models — the seam that
    /// lets ablations swap in non-Table-I devices (tiered-latency
    /// TL-DRAM, closed-page policies, refresh) without touching the
    /// controller. [`Cameo::with_sink`] delegates here with the paper's
    /// Table I devices.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Cameo::new`], plus the device capacities must
    /// match the controller configuration (the congruence map is sized
    /// from `config`, and a mismatched device would silently alias rows).
    pub fn with_sink_on(
        config: CameoConfig,
        stacked_dev: DramConfig,
        off_chip_dev: DramConfig,
        sink: S,
    ) -> Self {
        assert_eq!(
            stacked_dev.capacity, config.stacked,
            "stacked device capacity must match the controller configuration"
        );
        assert_eq!(
            off_chip_dev.capacity, config.off_chip,
            "off-chip device capacity must match the controller configuration"
        );
        let stacked_lines = config.stacked.lines();
        let off_lines = config.off_chip.lines();
        assert!(stacked_lines > 0, "stacked capacity must be non-zero");
        assert!(
            off_lines > 0 && off_lines.is_multiple_of(stacked_lines),
            "off-chip capacity must be a positive multiple of stacked capacity"
        );
        let ratio = 1 + off_lines / stacked_lines;
        assert!(ratio <= 8, "congruence ratio {ratio} exceeds supported 8");
        let map = CongruenceMap::new(stacked_lines, ratio as u8);
        Self {
            map,
            llt: LineLocationTable::new(map),
            llp: LineLocationPredictor::for_ratio(config.cores, config.llp_entries, ratio as u8),
            stacked: Device::new(stacked_dev),
            off_chip: Device::new(off_chip_dev),
            stats: CameoStats::default(),
            config,
            hot_filter: None,
            #[cfg(feature = "faults")]
            recovery: crate::recovery::RecoveryState::new(crate::recovery::RecoveryConfig::none()),
            #[cfg(feature = "deep-audit")]
            auditor: crate::audit::InvariantAuditor::sampled(),
            #[cfg(feature = "deep-audit")]
            swaps_at_reset: 0,
            sink,
        }
    }

    /// Selects the swap policy (default [`SwapPolicy::Always`]). The
    /// frequency-filtered variant is the extension the paper sketches at
    /// the end of Section VI-D; selecting it starts its activity counters
    /// at zero.
    pub fn set_swap_policy(&mut self, policy: SwapPolicy) {
        self.hot_filter = match policy {
            SwapPolicy::Always => None,
            SwapPolicy::HotPagesOnly { threshold } => Some(HotPageFilter::new(threshold)),
        };
    }

    /// The active swap policy.
    pub fn swap_policy(&self) -> SwapPolicy {
        self.hot_filter
            .as_ref()
            .map_or(SwapPolicy::Always, HotPageFilter::policy)
    }

    /// Decides whether an off-chip hit on `line` should be swapped into
    /// stacked DRAM, recording page activity when a filter reads it.
    #[inline]
    fn should_swap(&mut self, line: LineAddr) -> bool {
        self.hot_filter
            .as_mut()
            .is_none_or(|filter| filter.admit(line))
    }

    /// The configuration this controller was built with.
    #[inline]
    pub fn config(&self) -> &CameoConfig {
        &self.config
    }

    /// Controller counters (service locations, prediction cases).
    #[inline]
    pub fn stats(&self) -> &CameoStats {
        &self.stats
    }

    /// The stacked-DRAM device (for bandwidth accounting).
    #[inline]
    pub fn stacked(&self) -> &Device {
        &self.stacked
    }

    /// The off-chip DRAM device (for bandwidth accounting).
    #[inline]
    pub fn off_chip(&self) -> &Device {
        &self.off_chip
    }

    /// Arms both devices with seeded fault injection: the stacked device
    /// gets the full configuration (its LEAD/LLT metadata is what flips and
    /// outages threaten), the off-chip device only the transport faults
    /// (drops/delays) — its data lines are ECC-protected end to end and it
    /// holds no location metadata.
    #[cfg(feature = "faults")]
    pub fn inject_faults(&mut self, cfg: cameo_memsim::faults::FaultConfig, seed: u64) {
        self.stacked.arm(cfg, seed);
        self.off_chip
            .arm(cfg.transport_only(), seed ^ 0x5EED_F417_0FFC_419B);
    }

    /// Selects the recovery policy applied to injected faults (default
    /// [`crate::recovery::RecoveryConfig::none`]). Resets recovery
    /// counters and the degradation latch.
    #[cfg(feature = "faults")]
    pub fn set_recovery(&mut self, cfg: crate::recovery::RecoveryConfig) {
        self.recovery = crate::recovery::RecoveryState::new(cfg);
    }

    /// Counters of recovery actions taken since [`Cameo::set_recovery`].
    #[cfg(feature = "faults")]
    pub fn recovery_stats(&self) -> &crate::recovery::RecoveryStats {
        self.recovery.stats()
    }

    /// Whether the controller has degraded to serial access because
    /// metadata became unreliable.
    #[cfg(feature = "faults")]
    pub fn degraded(&self) -> bool {
        self.recovery.degraded()
    }

    /// The Line Location Table contents.
    #[inline]
    pub fn llt(&self) -> &LineLocationTable {
        &self.llt
    }

    /// Resets controller and device counters, keeping all mapping state
    /// (used when the measured region starts after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CameoStats::default();
        self.stacked.reset_stats();
        self.off_chip.reset_stats();
        #[cfg(feature = "deep-audit")]
        {
            self.swaps_at_reset = self.llt.swaps();
        }
    }

    /// Overrides the audit sampling schedule (default: sampled every
    /// [`crate::audit::DEFAULT_SAMPLE_INTERVAL`] accesses). Property tests
    /// use [`crate::audit::InvariantAuditor::always`] to audit after every
    /// access.
    #[cfg(feature = "deep-audit")]
    pub fn set_auditor(&mut self, auditor: crate::audit::InvariantAuditor) {
        self.auditor = auditor;
    }

    /// Verifies every audit invariant immediately, regardless of the
    /// sampling schedule: LLT bijections, one stacked line per group,
    /// congruence round-trip, and counter conservation.
    #[cfg(feature = "deep-audit")]
    pub fn audit_now(&self) -> Result<(), crate::audit::AuditError> {
        crate::audit::check_llt(&self.llt)?;
        crate::audit::check_congruence(&self.map)?;
        crate::audit::check_stats(&self.stats, self.llt.swaps() - self.swaps_at_reset)
    }

    /// Charges the DRAM traffic of faulting a 4 KiB page *in* at requested
    /// physical page `page_first_line`: a bulk write to the device that
    /// holds the page's identity location (all 64 lines of a page share one
    /// way, so they home to one device; individual lines that have been
    /// swapped elsewhere make this an approximation of the device split,
    /// not of the total bytes).
    pub fn bulk_page_write(&mut self, now: Cycle, page_first_line: LineAddr) {
        let (group, way) = self.map.split(page_first_line);
        if way == 0 {
            self.stacked
                .access(now, group, true, cameo_types::PAGE_BYTES as u32);
        } else {
            let dev = u64::from(way - 1) * self.map.groups() + group;
            self.off_chip
                .access(now, dev, true, cameo_types::PAGE_BYTES as u32);
        }
    }

    /// Charges the DRAM traffic of reading a dirty 4 KiB page *out* before
    /// eviction to storage. Same device-homing rule as
    /// [`Cameo::bulk_page_write`].
    pub fn bulk_page_read(&mut self, now: Cycle, page_first_line: LineAddr) {
        let (group, way) = self.map.split(page_first_line);
        if way == 0 {
            self.stacked
                .access(now, group, false, cameo_types::PAGE_BYTES as u32);
        } else {
            let dev = u64::from(way - 1) * self.map.groups() + group;
            self.off_chip
                .access(now, dev, false, cameo_types::PAGE_BYTES as u32);
        }
    }

    /// OS-visible capacity: total memory minus what the LLT design reserves
    /// (none for Ideal, `stacked/64` for Embedded — the 64 MB table of the
    /// paper's 4 GB + 12 GB system — and `stacked/32` for Co-Located, the
    /// one-line-in-32 sacrificed per row for LEAD storage).
    pub fn visible_capacity(&self) -> ByteSize {
        let total = self.config.stacked + self.config.off_chip;
        let reserve = match self.config.llt {
            // Ideal is free; SRAM spends on-chip storage, not memory space.
            LltDesign::Ideal | LltDesign::Sram => ByteSize::ZERO,
            LltDesign::Embedded => self.config.stacked.scale_down(64),
            LltDesign::CoLocated => self.config.stacked.scale_down(32),
        };
        total - reserve
    }

    /// Device line of the LEAD for `group` under the co-located layout:
    /// 31 LEADs per 32-line row, via the paper's `X + X/31` fixup
    /// (footnote 5, modeled by [`div31`](crate::congruence::div31)),
    /// wrapped to the device size.
    #[inline]
    fn lead_line(&self, group: u64) -> u64 {
        self.map.wrap(group + group / 31)
    }

    /// Device line of the Embedded-LLT entry for `group`: one-byte entries,
    /// 64 per line, in the reserved region at the start of the device.
    fn embedded_llt_line(&self, group: u64) -> u64 {
        group / 64
    }

    /// Services one post-LLC request, charging all timing and swap traffic.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line lies outside the visible space.
    pub fn access(&mut self, now: Cycle, access: &Access) -> AccessResult {
        debug_assert!(
            access.line.raw() < self.map.total_lines(),
            "line outside memory space"
        );
        if access.kind.is_write() {
            self.stats.demand_writes += 1;
            return self.write(now, access);
        }
        self.stats.demand_reads += 1;
        let rows_before = if S::ENABLED {
            Some((
                row_counters(self.stacked.stats()),
                row_counters(self.off_chip.stats()),
            ))
        } else {
            None
        };
        let result = match self.config.llt {
            LltDesign::Ideal => self.read_ideal(now, access.line),
            LltDesign::Sram => self.read_ideal(now + Cycle::new(SRAM_LLT_CYCLES), access.line),
            LltDesign::Embedded => self.read_embedded(now, access.line),
            LltDesign::CoLocated => self.read_co_located(now, access),
        };
        match result.serviced_by {
            MemKind::Stacked => self.stats.serviced_stacked += 1,
            MemKind::OffChip => self.stats.serviced_off_chip += 1,
        }
        if S::ENABLED {
            self.sink.emit(
                now,
                TraceEvent::Service {
                    stacked: result.serviced_by == MemKind::Stacked,
                },
            );
            if let Some((stacked_before, off_before)) = rows_before {
                self.emit_row_delta(now, true, stacked_before);
                self.emit_row_delta(now, false, off_before);
            }
        }
        #[cfg(feature = "deep-audit")]
        if self.auditor.tick() {
            if let Err(violation) = self.audit_now() {
                // An audit failure is a simulator bug; continuing would
                // corrupt every number downstream. lint: allow(no-panic)
                panic!("deep-audit: {violation}");
            }
        }
        result
    }

    /// Emits the row-buffer outcome delta one demand access produced on one
    /// device. Only called with tracing armed (`S::ENABLED`); silent when
    /// the access opened no row on that device.
    fn emit_row_delta(&mut self, now: Cycle, stacked: bool, before: (u64, u64, u64)) {
        let stats = if stacked {
            self.stacked.stats()
        } else {
            self.off_chip.stats()
        };
        let (hits, closed, conflicts) = (
            stats.row_hits - before.0,
            stats.row_closed - before.1,
            stats.row_conflicts - before.2,
        );
        if hits + closed + conflicts == 0 {
            return;
        }
        let clamp = |v: u64| u16::try_from(v).unwrap_or(u16::MAX);
        self.sink.emit(
            now,
            TraceEvent::RowBufferOutcome {
                stacked,
                hits: clamp(hits),
                closed: clamp(closed),
                conflicts: clamp(conflicts),
            },
        );
    }

    /// Performs the swap bookkeeping after an off-chip demand read: promote
    /// the line in the LLT, install it in stacked DRAM, write the displaced
    /// line to the vacated off-chip slot. `victim_in_hand` is true when the
    /// displaced line's data already arrived with a LEAD probe.
    fn swap_after_off_chip_read(
        &mut self,
        at: Cycle,
        line: LineAddr,
        group: u64,
        vacated: Slot,
        victim_in_hand: bool,
    ) {
        // Corrupted, unrepaired metadata cannot be trusted to swap: the
        // entry's inverse permutation is undefined. Leave the line where
        // it is; the audit layer (or a later scrub) reports the damage.
        #[cfg(feature = "faults")]
        if !self.llt.entry(group).is_permutation() {
            return;
        }
        let promoted = self.llt.promote(line);
        debug_assert!(promoted.is_some(), "line was off-chip; promote must swap");
        if S::ENABLED {
            self.sink.emit(at, TraceEvent::Swap { group });
        }
        if !victim_in_hand {
            // Read the displaced line out of stacked DRAM before overwriting.
            self.stacked.read_line(at, group);
        }
        match self.config.llt {
            LltDesign::Ideal | LltDesign::Sram => {
                self.stacked.write_line(at, group);
            }
            LltDesign::Embedded => {
                self.stacked.write_line(at, group);
                // Update the table entry in the reserved region.
                self.stacked.write_line(at, self.embedded_llt_line(group));
            }
            LltDesign::CoLocated => {
                // One LEAD write carries both the data and the entry.
                self.stacked
                    .access(at, self.lead_line(group), true, LEAD_BYTES);
            }
        }
        // Install the displaced line into the slot the requested line left.
        self.off_chip
            .write_line(at, self.map.device_line(group, vacated));
    }

    /// Reads the metadata line backing `group`'s LLT entry (the LEAD or
    /// the embedded-table line). With fault injection compiled in, the
    /// read goes through the recovery policy: drops are retried, flips are
    /// ECC-corrected or — when they escape — applied to the in-table entry
    /// and, if scrubbing is enabled, repaired from the group's data-line
    /// tags before the entry is trusted.
    fn meta_read(&mut self, now: Cycle, group: u64, line: u64, bytes: u32) -> Cycle {
        if S::ENABLED {
            self.sink.emit(now, TraceEvent::LltProbe { group });
        }
        #[cfg(not(feature = "faults"))]
        {
            let _ = group;
            self.stacked.access(now, line, false, bytes)
        }
        #[cfg(feature = "faults")]
        {
            let (done, escaped) =
                self.recovery
                    .read_meta(&mut self.stacked, now, line, bytes, &mut self.sink);
            if let Some(bit) = escaped {
                self.recovery.save_truth(group, self.llt.entry(group));
                self.llt.corrupt_entry_bit(group, bit);
            }
            if self.recovery.scrub_enabled() && !self.llt.entry(group).is_permutation() {
                return self.scrub_group(done, group);
            }
            done
        }
    }

    /// Rebuilds `group`'s permutation from the address tags its data lines
    /// carry: reads every slot of the group (one stacked line, `ratio - 1`
    /// off-chip lines), then rewrites the repaired metadata where the
    /// active LLT design stores it. Returns when the repaired entry is
    /// usable.
    #[cfg(feature = "faults")]
    fn scrub_group(&mut self, now: Cycle, group: u64) -> Cycle {
        let ratio = self.map.ratio();
        let mut done =
            self.recovery
                .read_data(&mut self.stacked, now, group, LINE_BYTES, &mut self.sink);
        for slot in 1..ratio {
            let line = self.map.device_line(group, Slot::new(slot));
            done = done.later(self.recovery.read_data(
                &mut self.off_chip,
                now,
                line,
                LINE_BYTES,
                &mut self.sink,
            ));
        }
        match self.config.llt {
            LltDesign::CoLocated => {
                self.stacked
                    .access(done, self.lead_line(group), true, LEAD_BYTES);
            }
            LltDesign::Embedded => {
                self.stacked.write_line(done, self.embedded_llt_line(group));
            }
            // No DRAM-resident copy to rewrite.
            LltDesign::Ideal | LltDesign::Sram => {}
        }
        let restored = self
            .recovery
            .take_truth(group)
            .expect("a scrub only triggers after a corruption that saved the entry");
        self.llt.restore_entry(group, restored);
        self.recovery.record_scrub();
        if S::ENABLED {
            self.sink.emit(
                done,
                TraceEvent::RecoveryAction {
                    kind: RecoveryKind::Scrub,
                },
            );
        }
        done
    }

    /// Demand-reads a data line from the stacked device. Under fault
    /// injection, drops/delays go through the recovery policy; data-line
    /// bit flips are absorbed by the device's in-band ECC.
    fn stacked_data_read(&mut self, now: Cycle, line: u64) -> Cycle {
        #[cfg(not(feature = "faults"))]
        {
            self.stacked.read_line(now, line)
        }
        #[cfg(feature = "faults")]
        {
            self.recovery
                .read_data(&mut self.stacked, now, line, LINE_BYTES, &mut self.sink)
        }
    }

    /// Demand-reads a data line from the off-chip device (same recovery
    /// semantics as [`Cameo::stacked_data_read`]).
    fn off_chip_data_read(&mut self, now: Cycle, line: u64) -> Cycle {
        #[cfg(not(feature = "faults"))]
        {
            self.off_chip.read_line(now, line)
        }
        #[cfg(feature = "faults")]
        {
            self.recovery
                .read_data(&mut self.off_chip, now, line, LINE_BYTES, &mut self.sink)
        }
    }

    fn read_ideal(&mut self, now: Cycle, line: LineAddr) -> AccessResult {
        let (group, way) = self.map.split(line);
        let slot = self.llt.locate_in(group, way);
        if slot.is_stacked() {
            AccessResult {
                completion: self.stacked_data_read(now, group),
                serviced_by: MemKind::Stacked,
                case: None,
            }
        } else {
            let completion = self.off_chip_data_read(now, self.map.device_line(group, slot));
            if self.should_swap(line) {
                self.swap_after_off_chip_read(now, line, group, slot, false);
            }
            AccessResult {
                completion,
                serviced_by: MemKind::OffChip,
                case: None,
            }
        }
    }

    fn read_embedded(&mut self, now: Cycle, line: LineAddr) -> AccessResult {
        let (group, way) = self.map.split(line);
        let table_line = self.embedded_llt_line(group);
        let lookup_done = self.meta_read(now, group, table_line, LINE_BYTES);
        let slot = self.llt.locate_in(group, way);
        if slot.is_stacked() {
            AccessResult {
                completion: self.stacked_data_read(lookup_done, group),
                serviced_by: MemKind::Stacked,
                case: None,
            }
        } else {
            let completion =
                self.off_chip_data_read(lookup_done, self.map.device_line(group, slot));
            if self.should_swap(line) {
                self.swap_after_off_chip_read(lookup_done, line, group, slot, false);
            }
            AccessResult {
                completion,
                serviced_by: MemKind::OffChip,
                case: None,
            }
        }
    }

    fn read_co_located(&mut self, now: Cycle, access: &Access) -> AccessResult {
        let line = access.line;
        let (group, way) = self.map.split(line);
        let predicted = match self.config.predictor {
            PredictorKind::SerialAccess => Slot::STACKED,
            PredictorKind::Llp => self.llp.predict(access.core, access.pc),
            PredictorKind::Perfect => self.llt.locate_in(group, way),
        };
        // Once metadata has proven unreliable, stop trusting predictions:
        // probe stacked first like SAM and never launch parallel fetches.
        #[cfg(feature = "faults")]
        let predicted = if self.recovery.degraded() {
            Slot::STACKED
        } else {
            predicted
        };
        // Clamp predictions outside this configuration's ratio (can happen
        // when a smaller ratio reuses a trained table) to serial access.
        let predicted = if predicted.raw() >= self.map.ratio() {
            Slot::STACKED
        } else {
            predicted
        };

        // The verifying LEAD probe always happens; it is the read that
        // returns the entry, so the true location is resolved after it —
        // including any corruption or scrub the probe suffered. The probe
        // and the parallel fetch below both issue at `now` on independent
        // devices, so code order does not affect timing.
        let lead = self.lead_line(group);
        let probe_done = self.meta_read(now, group, lead, LEAD_BYTES);
        let actual = self.llt.locate_in(group, way);
        let case = PredictionCase::classify(predicted, actual);
        self.stats.cases.record(case);
        if S::ENABLED {
            self.sink.emit(
                now,
                TraceEvent::LlpPredict {
                    correct: case.is_accurate(),
                },
            );
        }
        if case.wastes_bandwidth() {
            self.stats.wasted_off_chip_fetches += 1;
        }
        if matches!(self.config.predictor, PredictorKind::Llp) {
            self.llp.train(access.core, access.pc, actual);
        }

        // A predicted-off-chip fetch launches in parallel with the probe.
        // A fetch the LLT verification disproves is squashed at the bank
        // queue: it wastes bus bandwidth (Table IV) but does not hold a
        // bank against later demand reads.
        let parallel_fetch = (!predicted.is_stacked()).then(|| {
            let target = self.map.device_line(group, predicted);
            if case == PredictionCase::OffChipPredictedCorrect {
                self.off_chip_data_read(now, target)
            } else {
                self.off_chip.read_squashed(now, target)
            }
        });

        let (completion, serviced_by) = match case {
            PredictionCase::StackedPredictedStacked | PredictionCase::StackedPredictedOffChip => {
                (probe_done, MemKind::Stacked)
            }
            PredictionCase::OffChipPredictedCorrect => {
                let fetch = parallel_fetch.expect("off-chip prediction fetched");
                // Data usable once the LLT entry has verified the prediction.
                (probe_done.later(fetch), MemKind::OffChip)
            }
            PredictionCase::OffChipPredictedStacked | PredictionCase::OffChipPredictedWrong => {
                // Serialized correct fetch after the probe reveals the slot.
                let fetch =
                    self.off_chip_data_read(probe_done, self.map.device_line(group, actual));
                (fetch, MemKind::OffChip)
            }
        };
        if serviced_by == MemKind::OffChip && self.should_swap(line) {
            // The LEAD probe already delivered the displaced line's data.
            self.swap_after_off_chip_read(now, line, group, actual, true);
        }
        AccessResult {
            completion,
            serviced_by,
            case: Some(case),
        }
    }

    /// Writes (LLC dirty writebacks) update the line in place — a line
    /// being evicted from the LLC is not evidence of reuse, so CAMEO does
    /// not promote on writes.
    fn write(&mut self, now: Cycle, access: &Access) -> AccessResult {
        let (group, way) = self.map.split(access.line);
        let slot = self.llt.locate_in(group, way);
        // The write's location lookup is free training data for the LLP.
        if matches!(self.config.predictor, PredictorKind::Llp) {
            self.llp.train(access.core, access.pc, slot);
        }
        let (completion, serviced_by) = match self.config.llt {
            LltDesign::Ideal | LltDesign::Sram => {
                let start = if self.config.llt == LltDesign::Sram {
                    now + Cycle::new(SRAM_LLT_CYCLES)
                } else {
                    now
                };
                if slot.is_stacked() {
                    (self.stacked.write_line(start, group), MemKind::Stacked)
                } else {
                    (
                        self.off_chip
                            .write_line(start, self.map.device_line(group, slot)),
                        MemKind::OffChip,
                    )
                }
            }
            LltDesign::Embedded => {
                let table_line = self.embedded_llt_line(group);
                let lookup = self.meta_read(now, group, table_line, LINE_BYTES);
                if slot.is_stacked() {
                    (self.stacked.write_line(lookup, group), MemKind::Stacked)
                } else {
                    (
                        self.off_chip
                            .write_line(lookup, self.map.device_line(group, slot)),
                        MemKind::OffChip,
                    )
                }
            }
            LltDesign::CoLocated => {
                // Locate by probing the LEAD, then write in place.
                let lead = self.lead_line(group);
                let probe = self.meta_read(now, group, lead, LEAD_BYTES);
                if slot.is_stacked() {
                    (
                        self.stacked.access(probe, lead, true, LEAD_BYTES),
                        MemKind::Stacked,
                    )
                } else {
                    (
                        self.off_chip
                            .write_line(probe, self.map.device_line(group, slot)),
                        MemKind::OffChip,
                    )
                }
            }
        };
        AccessResult {
            completion,
            serviced_by,
            case: None,
        }
    }
}

/// Snapshot of one device's row-buffer outcome counters, diffed around a
/// demand access to recover that access's contribution.
fn row_counters(stats: &cameo_memsim::DramStats) -> (u64, u64, u64) {
    (stats.row_hits, stats.row_closed, stats.row_conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_types::CoreId;

    fn cameo(llt: LltDesign, predictor: PredictorKind) -> Cameo {
        Cameo::new(CameoConfig {
            stacked: ByteSize::from_kib(64), // 1024 lines
            off_chip: ByteSize::from_kib(192),
            llt,
            predictor,
            cores: 2,
            llp_entries: 64,
        })
    }

    fn read(line: u64) -> Access {
        Access::read(CoreId(0), LineAddr::new(line), 0x400000 + line * 4)
    }

    #[test]
    fn ratio_and_visibility() {
        let c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        assert_eq!(c.map.ratio(), 4);
        assert_eq!(
            c.visible_capacity(),
            ByteSize::from_kib(256) - ByteSize::from_kib(2)
        );
        let e = cameo(LltDesign::Embedded, PredictorKind::SerialAccess);
        assert_eq!(
            e.visible_capacity(),
            ByteSize::from_kib(256) - ByteSize::from_kib(1)
        );
        let i = cameo(LltDesign::Ideal, PredictorKind::Perfect);
        assert_eq!(i.visible_capacity(), ByteSize::from_kib(256));
    }

    #[test]
    fn off_chip_read_swaps_line_in() {
        let mut c = cameo(LltDesign::Ideal, PredictorKind::SerialAccess);
        let line = 2048; // way 2, group 0
        let r1 = c.access(Cycle::ZERO, &read(line));
        assert_eq!(r1.serviced_by, MemKind::OffChip);
        // Second access to the same line is now stacked-resident.
        let r2 = c.access(r1.completion, &read(line));
        assert_eq!(r2.serviced_by, MemKind::Stacked);
        assert_eq!(c.llt().swaps(), 1);
        // The displaced line (way 0, group 0) is now off-chip at slot 2.
        let r3 = c.access(r2.completion, &read(0));
        assert_eq!(r3.serviced_by, MemKind::OffChip);
    }

    #[test]
    fn stacked_read_is_faster_than_off_chip() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::SerialAccess);
        let hit = c.access(Cycle::ZERO, &read(5)).completion;
        let mut c2 = cameo(LltDesign::CoLocated, PredictorKind::SerialAccess);
        let miss = c2.access(Cycle::ZERO, &read(5 + 2048)).completion;
        assert!(hit < miss, "hit {hit:?} vs miss {miss:?}");
    }

    #[test]
    fn embedded_serializes_even_hits() {
        let mut e = cameo(LltDesign::Embedded, PredictorKind::SerialAccess);
        let mut cl = cameo(LltDesign::CoLocated, PredictorKind::SerialAccess);
        let hit_embedded = e.access(Cycle::ZERO, &read(5)).completion;
        let hit_colocated = cl.access(Cycle::ZERO, &read(5)).completion;
        assert!(hit_colocated < hit_embedded);
    }

    #[test]
    fn perfect_prediction_hides_serialization() {
        let line = 7 + 1024; // off-chip way 1
        let mut serial = cameo(LltDesign::CoLocated, PredictorKind::SerialAccess);
        let mut perfect = cameo(LltDesign::CoLocated, PredictorKind::Perfect);
        let t_serial = serial.access(Cycle::ZERO, &read(line)).completion;
        let t_perfect = perfect.access(Cycle::ZERO, &read(line)).completion;
        assert!(t_perfect < t_serial);
        assert_eq!(
            perfect
                .stats()
                .cases
                .count(PredictionCase::OffChipPredictedCorrect),
            1
        );
        assert_eq!(perfect.stats().cases.accuracy(), Some(1.0));
    }

    #[test]
    fn llp_learns_last_location() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        // Same PC touches two off-chip lines of different groups, same way:
        // after the first (mispredicted serial), the second is predicted.
        let a = Access::read(CoreId(0), LineAddr::new(1024 + 1), 0x88);
        let b = Access::read(CoreId(0), LineAddr::new(1024 + 2), 0x88);
        let r1 = c.access(Cycle::ZERO, &a);
        assert_eq!(r1.case, Some(PredictionCase::OffChipPredictedStacked));
        let r2 = c.access(r1.completion, &b);
        assert_eq!(r2.case, Some(PredictionCase::OffChipPredictedCorrect));
    }

    #[test]
    fn wrong_off_chip_prediction_counts_waste() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        // Train PC to slot 1, then access a line residing at slot 2.
        let train = Access::read(CoreId(0), LineAddr::new(1024), 0x44); // way 1
        let r1 = c.access(Cycle::ZERO, &train);
        assert_eq!(r1.serviced_by, MemKind::OffChip);
        let other = Access::read(CoreId(0), LineAddr::new(2048 + 5), 0x44); // way 2
        let r2 = c.access(r1.completion, &other);
        assert_eq!(r2.case, Some(PredictionCase::OffChipPredictedWrong));
        assert_eq!(c.stats().wasted_off_chip_fetches, 1);
    }

    #[test]
    fn stacked_resident_wrong_prediction_wastes_bandwidth_only() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        // Train PC to an off-chip slot...
        let r1 = c.access(
            Cycle::ZERO,
            &Access::read(CoreId(0), LineAddr::new(1024), 0x44),
        );
        // ...then access a stacked-resident line with the same PC.
        let r2 = c.access(
            r1.completion,
            &Access::read(CoreId(0), LineAddr::new(7), 0x44),
        );
        assert_eq!(r2.case, Some(PredictionCase::StackedPredictedOffChip));
        assert_eq!(r2.serviced_by, MemKind::Stacked);
    }

    #[test]
    fn writes_do_not_promote() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::SerialAccess);
        let w = Access::write(CoreId(0), LineAddr::new(1024 + 9), 0x10);
        let r = c.access(Cycle::ZERO, &w);
        assert_eq!(r.serviced_by, MemKind::OffChip);
        assert_eq!(c.llt().swaps(), 0);
        assert_eq!(c.stats().demand_writes, 1);
        // Still off-chip on a subsequent read.
        let rd = c.access(r.completion, &read(1024 + 9));
        assert_eq!(rd.serviced_by, MemKind::OffChip);
    }

    #[test]
    fn service_counters_partition_reads() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        let mut now = Cycle::ZERO;
        for i in 0..50u64 {
            let r = c.access(now, &read(i * 37 % 4096));
            now = r.completion;
        }
        let s = c.stats();
        assert_eq!(s.demand_reads, 50);
        assert_eq!(s.serviced_stacked + s.serviced_off_chip, 50);
        assert_eq!(s.cases.total(), 50);
    }

    #[test]
    fn swap_traffic_reaches_devices() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::SerialAccess);
        c.access(Cycle::ZERO, &read(1024)); // off-chip: swap
                                            // Stacked: LEAD probe (read) + LEAD install (write).
        assert_eq!(c.stacked().stats().demand_reads, 1);
        assert_eq!(c.stacked().stats().writes, 1);
        // Off-chip: demand read + displaced-line install.
        assert_eq!(c.off_chip().stats().demand_reads, 1);
        assert_eq!(c.off_chip().stats().writes, 1);
    }

    #[test]
    fn ideal_swap_reads_victim() {
        let mut c = cameo(LltDesign::Ideal, PredictorKind::SerialAccess);
        c.access(Cycle::ZERO, &read(1024));
        // Victim must be read out of stacked before being overwritten.
        assert_eq!(c.stacked().stats().demand_reads, 1);
        assert_eq!(c.stacked().stats().writes, 1);
    }

    #[test]
    fn embedded_write_serializes_behind_lookup() {
        let mut e = cameo(LltDesign::Embedded, PredictorKind::SerialAccess);
        let mut i = cameo(LltDesign::Ideal, PredictorKind::SerialAccess);
        let w = Access::write(CoreId(0), LineAddr::new(5), 0x10);
        let t_embedded = e.access(Cycle::ZERO, &w).completion;
        let t_ideal = i.access(Cycle::ZERO, &w).completion;
        assert!(t_embedded > t_ideal, "{t_embedded:?} !> {t_ideal:?}");
        // The lookup is a stacked read even though the payload is a write.
        assert_eq!(e.stacked().stats().demand_reads, 1);
    }

    #[test]
    fn bulk_page_traffic_routes_by_way() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        // Way 0 page: stacked device.
        c.bulk_page_write(Cycle::ZERO, LineAddr::new(0));
        assert_eq!(c.stacked().stats().bytes_written, 4096);
        assert_eq!(c.off_chip().stats().bytes_written, 0);
        // Way 2 page: off-chip device.
        c.bulk_page_write(Cycle::ZERO, LineAddr::new(2048));
        assert_eq!(c.off_chip().stats().bytes_written, 4096);
        // Reads likewise.
        c.bulk_page_read(Cycle::ZERO, LineAddr::new(1024));
        assert_eq!(c.off_chip().stats().bytes_read, 4096);
        c.bulk_page_read(Cycle::ZERO, LineAddr::new(64));
        assert_eq!(c.stacked().stats().bytes_read, 4096);
    }

    #[test]
    fn reset_stats_preserves_llt_state() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::SerialAccess);
        let r = c.access(Cycle::ZERO, &read(1024));
        assert_eq!(r.serviced_by, MemKind::OffChip);
        c.reset_stats();
        assert_eq!(c.stats().demand_reads, 0);
        assert_eq!(c.stacked().stats().accesses(), 0);
        // The promoted line is still stacked-resident.
        let r2 = c.access(Cycle::new(1), &read(1024));
        assert_eq!(r2.serviced_by, MemKind::Stacked);
        assert_eq!(c.llt().swaps(), 1); // swap count is mapping state, kept
    }

    #[test]
    fn llp_trains_on_writes() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        // A write locates an off-chip line (no promotion), teaching the LLP.
        let w = Access::write(CoreId(0), LineAddr::new(1024 + 7), 0x60);
        c.access(Cycle::ZERO, &w);
        // A read from the same PC to a line at the same slot is predicted.
        let r = c.access(
            Cycle::new(1000),
            &Access::read(CoreId(0), LineAddr::new(1024 + 8), 0x60),
        );
        assert_eq!(r.case, Some(PredictionCase::OffChipPredictedCorrect));
    }

    #[test]
    fn squashed_speculation_still_counts_waste() {
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        // Train to off-chip slot 1, then touch a stacked-resident line from
        // the same PC: the wasted fetch consumes off-chip read bandwidth.
        let r1 = c.access(
            Cycle::ZERO,
            &Access::read(CoreId(0), LineAddr::new(1024), 0x44),
        );
        let before = c.off_chip().stats().bytes_read;
        let r2 = c.access(
            r1.completion,
            &Access::read(CoreId(0), LineAddr::new(3), 0x44),
        );
        assert_eq!(r2.case, Some(PredictionCase::StackedPredictedOffChip));
        assert!(c.off_chip().stats().bytes_read > before);
        assert_eq!(c.stats().wasted_off_chip_fetches, 1);
    }

    #[test]
    fn hot_pages_only_filters_cold_swaps() {
        use crate::swap_filter::SwapPolicy;
        let mut c = cameo(LltDesign::CoLocated, PredictorKind::SerialAccess);
        c.set_swap_policy(SwapPolicy::HotPagesOnly { threshold: 3 });
        let line = 1024 + 9;
        // First two reads: page not hot yet — serviced off-chip, no swap.
        let r1 = c.access(Cycle::ZERO, &read(line));
        let r2 = c.access(r1.completion, &read(line));
        assert_eq!(r2.serviced_by, MemKind::OffChip);
        assert_eq!(c.llt().swaps(), 0);
        // Third read crosses the threshold: the line is promoted.
        let r3 = c.access(r2.completion, &read(line));
        assert_eq!(r3.serviced_by, MemKind::OffChip); // promoted *after* service
        let r4 = c.access(r3.completion, &read(line));
        assert_eq!(r4.serviced_by, MemKind::Stacked);
        assert_eq!(c.llt().swaps(), 1);
    }

    #[test]
    fn sram_llt_between_ideal_and_embedded() {
        let hit_latency = |llt| {
            let mut c = cameo(llt, PredictorKind::SerialAccess);
            c.access(Cycle::ZERO, &read(5)).completion.raw()
        };
        let ideal = hit_latency(LltDesign::Ideal);
        let sram = hit_latency(LltDesign::Sram);
        assert_eq!(sram, ideal + SRAM_LLT_CYCLES);
        // For an off-chip line the SRAM lookup (24 cycles) beats the
        // Embedded design's DRAM lookup (~40 cycles).
        let miss_latency = |llt| {
            let mut c = cameo(llt, PredictorKind::SerialAccess);
            c.access(Cycle::ZERO, &read(5 + 1024)).completion.raw()
        };
        assert!(
            miss_latency(LltDesign::Sram) < miss_latency(LltDesign::Embedded),
            "sram miss {} !< embedded miss {}",
            miss_latency(LltDesign::Sram),
            miss_latency(LltDesign::Embedded)
        );
        // SRAM spends no memory capacity.
        let c = cameo(LltDesign::Sram, PredictorKind::SerialAccess);
        assert_eq!(c.visible_capacity(), ByteSize::from_kib(256));
    }

    #[test]
    fn always_policy_is_default() {
        let c = cameo(LltDesign::CoLocated, PredictorKind::Llp);
        assert_eq!(c.swap_policy(), crate::swap_filter::SwapPolicy::Always);
    }

    #[test]
    #[should_panic(expected = "multiple of stacked")]
    fn non_multiple_capacity_rejected() {
        Cameo::new(CameoConfig {
            stacked: ByteSize::from_kib(64),
            off_chip: ByteSize::from_kib(100),
            llt: LltDesign::Ideal,
            predictor: PredictorKind::SerialAccess,
            cores: 1,
            llp_entries: 64,
        });
    }
}
