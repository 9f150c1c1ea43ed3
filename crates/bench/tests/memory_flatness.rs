//! Memory flatness of the streaming trace path: on a run long enough to
//! evict many epochs from the bounded retention ring, the resident set
//! sampled at late evictions must stay within a small factor of the
//! early samples — i.e. RSS after epoch 2N looks like RSS after epoch N,
//! instead of growing with the epoch count as the unbounded series did.

use std::sync::{Arc, Mutex};

use cameo_bench::{build_point, fullscale};
use cameo_sim::experiments::OrgKind;
use cameo_sim::harness::{run_sweep_traced_with, SweepOptions, SweepPoint};
use cameo_sim::trace::{SharedSink, TraceOptions};
use cameo_sim::SystemConfig;

#[test]
fn rss_stays_flat_while_epochs_stream_out() {
    if !cfg!(target_os = "linux") {
        // The RSS gauges read /proc; elsewhere there is nothing to sample.
        return;
    }
    let opts = SweepOptions {
        config: SystemConfig {
            scale: 512,
            cores: 2,
            instructions_per_core: 400_000,
            seed: 42,
            ..SystemConfig::default()
        },
        max_attempts: 1,
        jobs: 1,
        ..SweepOptions::default()
    };
    // A tiny ring so the run evicts continuously: every epoch beyond the
    // eighth streams through the spill hook, where we sample RSS.
    let trace_opts = TraceOptions {
        max_epochs: 8,
        ..TraceOptions::default()
    };
    let samples: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let points = [SweepPoint::new("mcf", OrgKind::cameo_default())];
    run_sweep_traced_with(&points, &opts, None, &|point, config| {
        let samples = Arc::clone(&samples);
        let spill = Box::new(move |index, _: &_| {
            if let Some(rss) = fullscale::current_rss_bytes() {
                samples
                    .lock()
                    .expect("no spill sampler panicked while holding the lock")
                    .push((index, rss));
            }
        });
        build_point(
            point,
            config,
            Some(SharedSink::with_spill(trace_opts, spill)),
        )
    })
    .expect("mcf resolves and the flatness config is valid");

    let samples = samples
        .lock()
        .expect("no spill sampler panicked while holding the lock");
    assert!(
        samples.len() >= 16,
        "expected a long streaming run (>=16 evictions), got {} — \
         retune instructions_per_core or max_epochs",
        samples.len()
    );
    // Compare the mean RSS over the first quarter of evictions against
    // the last quarter. Flat means the late mean stays within 1.5x of
    // the early mean plus a small allocator-noise allowance; a series
    // that still accumulated epochs would grow linearly and blow past
    // this immediately.
    let quarter = samples.len() / 4;
    let mean = |s: &[(u64, u64)]| s.iter().map(|&(_, rss)| rss).sum::<u64>() / s.len() as u64;
    let early = mean(&samples[..quarter]);
    let late = mean(&samples[samples.len() - quarter..]);
    let limit = early + early / 2 + (32 << 20);
    assert!(
        late <= limit,
        "resident set grew across streamed epochs: early mean {early} B, \
         late mean {late} B (limit {limit} B over {} evictions)",
        samples.len()
    );
}
