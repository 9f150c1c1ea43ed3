//! Per-layer metrics of a traced pass: span aggregation into layer self
//! times, replay timings, and the simulated counters each layer owns.

use std::io::{self, Write as _};
use std::path::Path;

use cameo::PredictionCaseCounts;
use cameo_sim::RunStats;

use crate::drive::Pass;
use crate::host::{mib, Clock};
use crate::json::Json;
use crate::replay::{Replay, ReplayTimes};
use crate::shim::Sample;
use crate::workload::{org_slug, ORG_SLUGS};

/// Self times of the three layers an access cycle passes through at the
/// runner's level, summed over the measured samples of some points.
#[derive(Clone, Copy, Default, Debug)]
struct CycleSums {
    samples: u64,
    streams: u64,
    runner_ns: f64,
    org_ns: f64,
    stream_ns: f64,
}

impl CycleSums {
    /// Adds one sample with the clock-read overhead `read_ns` taken out:
    /// each child span holds one clock read's worth of overhead, and the
    /// runner's self time one more per child.
    fn add(&mut self, s: &Sample, read_ns: f64) {
        let children = if s.has_stream() { 2.0 } else { 1.0 };
        self.samples += 1;
        self.org_ns += s.org_ns() as f64 - read_ns;
        if s.has_stream() {
            self.streams += 1;
            self.stream_ns += s.stream_ns() as f64 - read_ns;
        }
        self.runner_ns += (s.cycle_ns() - s.org_ns() - s.stream_ns()) as f64 - children * read_ns;
    }

    fn merge(&mut self, other: &CycleSums) {
        self.samples += other.samples;
        self.streams += other.streams;
        self.runner_ns += other.runner_ns;
        self.org_ns += other.org_ns;
        self.stream_ns += other.stream_ns;
    }

    /// Mean self time of a whole access cycle.
    fn cycle_mean(&self) -> f64 {
        mean(self.runner_ns + self.org_ns + self.stream_ns, self.samples)
    }
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).max(0.0)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything measured about one organization, summed over its points.
#[derive(Clone, Copy, Default)]
struct OrgLayer {
    cycles: CycleSums,
    build_ns: u64,
    prefill_ns: u64,
    rss_growth: u64,
    accesses: u64,
    demand_reads: u64,
    serviced_stacked: u64,
    faults: u64,
    migrated: u64,
    bus_bytes: u64,
    read_latency: u64,
    cases: PredictionCaseCounts,
}

impl OrgLayer {
    fn add_stats(&mut self, s: &RunStats) {
        self.accesses += s.accesses();
        self.demand_reads += s.demand_reads;
        self.serviced_stacked += s.serviced_stacked;
        self.faults += s.faults;
        self.migrated += s.migrated_pages;
        self.bus_bytes += s.bandwidth.stacked_bytes + s.bandwidth.off_chip_bytes;
        self.read_latency += s.read_latency_sum;
        if let Some(cases) = &s.cases {
            self.cases.merge(cases);
        }
    }
}

/// The per-layer metrics of a traced pass: span-derived host times and
/// the simulated counters each layer owns. Organizations a workload does
/// not run read 0.
pub fn pass_layers(traced: &Pass, prefill_list_ns: u64, read_ns: f64) -> Json {
    let mut all = CycleSums::default();
    let mut orgs = [OrgLayer::default(); ORG_SLUGS.len()];
    let mut warmup_ns = 0u64;
    let mut measured_ns = 0u64;
    let mut covered_ns = 0.0;
    for run in &traced.points {
        let (Some(log), Ok(stats)) = (&run.log, &run.outcome) else {
            continue;
        };
        let mut point = CycleSums::default();
        for s in log.samples.iter().filter(|s| s.measured) {
            point.add(s, read_ns);
        }
        all.merge(&point);
        warmup_ns += log.phases.warmup;
        measured_ns += log.phases.measured;
        covered_ns += point.cycle_mean() * stats.accesses() as f64;
        let Some(i) = ORG_SLUGS
            .iter()
            .position(|s| *s == org_slug(run.point.kind))
        else {
            continue;
        };
        let org = &mut orgs[i];
        org.cycles.merge(&point);
        org.build_ns += log.phases.build;
        org.prefill_ns += log.org_prefill_ns;
        org.rss_growth = org.rss_growth.max(run.rss_growth.unwrap_or(0));
        org.add_stats(stats);
    }
    let org = |slug: &str| {
        ORG_SLUGS
            .iter()
            .position(|s| *s == slug)
            .map(|i| orgs[i])
            .unwrap_or_default()
    };

    let secs = |ns: u64| ns as f64 / 1e9;
    let mut m = Json::obj()
        .with("sim.runner.self_ns", mean(all.runner_ns, all.samples))
        .with("sim.runner.warmup_s", secs(warmup_ns))
        .with("workloads.next_event_ns", mean(all.stream_ns, all.streams))
        .with("workloads.prefill_list_s", secs(prefill_list_ns));
    for (slug, o) in ORG_SLUGS.iter().zip(&orgs) {
        m.set(
            &format!("sim.org.{slug}.access_ns"),
            mean(o.cycles.org_ns, o.cycles.samples),
        );
        m.set(&format!("sim.org.{slug}.build_s"), secs(o.build_ns));
        m.set(&format!("sim.org.{slug}.prefill_s"), secs(o.prefill_ns));
        m.set(&format!("sim.org.{slug}.rss_mib"), mib(o.rss_growth));
    }
    for (slug, o) in ORG_SLUGS.iter().zip(&orgs) {
        m.set(
            &format!("vmem.faults_per_kaccess.{slug}"),
            1000.0 * ratio(o.faults, o.accesses),
        );
    }
    m.set(
        "vmem.migrated_pages.tlm_dynamic",
        org("tlm_dynamic").migrated,
    );
    let cameo = org("cameo");
    m.set("core.llp_accuracy", cameo.cases.accuracy().unwrap_or(0.0));
    m.set(
        "core.stacked_service_rate",
        ratio(cameo.serviced_stacked, cameo.demand_reads),
    );
    let cache = org("cache");
    m.set(
        "cachesim.hit_rate",
        ratio(cache.serviced_stacked, cache.demand_reads),
    );
    for (slug, o) in ORG_SLUGS.iter().zip(&orgs) {
        m.set(
            &format!("memsim.bytes_per_access.{slug}"),
            ratio(o.bus_bytes, o.accesses),
        );
    }
    for (slug, o) in ORG_SLUGS.iter().zip(&orgs) {
        m.set(
            &format!("memsim.read_latency_cycles.{slug}"),
            ratio(o.read_latency, o.demand_reads),
        );
    }
    m.set(
        "trace.coverage",
        if measured_ns == 0 {
            0.0
        } else {
            covered_ns / measured_ns as f64
        },
    );
    m
}

/// The per-layer metrics of the replays of a workload's Baseline and
/// CAMEO points: host time per call into `vmem`, `core` and `memsim`.
pub fn replay_layers(replays: &[Replay], read_ns: f64) -> Json {
    let mut times = ReplayTimes::default();
    for r in replays {
        times.translate.add(&r.times.translate);
        times.translate_batch.add(&r.times.translate_batch);
        times.dram.add(&r.times.dram);
        times.cameo.add(&r.times.cameo);
    }
    Json::obj()
        .with("vmem.translate_ns", times.translate.mean_ns(read_ns))
        .with(
            "vmem.translate_batch_ns",
            times.translate_batch.mean_ns(0.0),
        )
        .with("core.access_ns", times.cameo.mean_ns(read_ns))
        .with("memsim.access_ns", times.dram.mean_ns(read_ns))
}

/// Numbers spans and writes each as one JSON line.
struct SpanWriter {
    out: io::BufWriter<std::fs::File>,
    next_id: u64,
}

impl SpanWriter {
    #[allow(clippy::too_many_arguments)]
    fn span(
        &mut self,
        parent: Option<u64>,
        name: &str,
        layer: &str,
        start: u64,
        end: u64,
        access: Option<u64>,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let line = Json::obj()
            .with("id", id)
            .with("parent", parent)
            .with("name", name)
            .with("layer", layer)
            .with("start_ns", start)
            .with("end_ns", end)
            .with("access", access);
        writeln!(self.out, "{line}")?;
        Ok(id)
    }
}

/// Writes the traced pass's spans as JSON lines, parents before
/// children: workload → point → phase (build, prefill, warmup,
/// measured) → sampled access cycles (`sim.runner`) → their
/// `org.access` and `next_event` calls. Spans of one access carry its
/// access id. Returns the number of spans written.
///
/// # Errors
///
/// Returns the I/O error of creating or writing `path`.
pub fn write_spans(path: &Path, workload: &str, pass: &Pass, clock: &Clock) -> io::Result<u64> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = SpanWriter {
        out: io::BufWriter::new(std::fs::File::create(path)?),
        next_id: 0,
    };
    let first = pass.points.first().map_or(0, |p| clock.offset(p.started));
    let root = w.span(
        None,
        workload,
        "workload",
        first,
        first + pass.wall_ns,
        None,
    )?;
    for run in &pass.points {
        let Some(log) = &run.log else { continue };
        let start = clock.offset(run.started);
        let point = w.span(
            Some(root),
            &run.point.key,
            "point",
            start,
            start + run.busy_ns,
            None,
        )?;
        let p = &log.phases;
        let mut at = start;
        let mut phase_ids = [0u64; 4];
        for (id, (name, ns)) in phase_ids.iter_mut().zip([
            ("build", p.build),
            ("prefill", p.prefill),
            ("warmup", p.warmup),
            ("measured", p.measured),
        ]) {
            *id = w.span(Some(point), name, "phase", at, at + ns, None)?;
            at += ns;
        }
        let org = format!("sim.org.{}", org_slug(run.point.kind));
        for s in &log.samples {
            let phase = phase_ids[if s.measured { 3 } else { 2 }];
            let cycle = w.span(Some(phase), "step", "sim.runner", s.t0, s.t4, Some(s.id))?;
            w.span(Some(cycle), "access", &org, s.t0, s.t1, Some(s.id))?;
            if s.has_stream() {
                w.span(
                    Some(cycle),
                    "next_event",
                    "workloads",
                    s.t2,
                    s.t3,
                    Some(s.id),
                )?;
            }
        }
    }
    w.out.flush()?;
    Ok(w.next_id)
}
