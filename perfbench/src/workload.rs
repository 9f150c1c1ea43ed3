//! The benchmark's workloads: which design points run, on what simulated
//! machine, and how a pass schedules them.

use cameo::{LltDesign, PredictorKind};
use cameo_sim::experiments::OrgKind;
use cameo_sim::harness::SweepPoint;
use cameo_sim::SystemConfig;

/// The paper's headline CAMEO: Co-Located LLT plus the LLP.
pub const CAMEO: OrgKind = OrgKind::Cameo {
    llt: LltDesign::CoLocated,
    predictor: PredictorKind::Llp,
};

/// How much simulation one pass does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A seconds-long smoke configuration for the benchmark's own test.
    Tiny,
}

impl Size {
    /// Parses `full` / `tiny`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// One workload: a grid of (benchmark × organization) points on one
/// simulated machine.
#[derive(Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    benches: &'static [&'static str],
    orgs: &'static [OrgKind],
    scale: u64,
    cores: u16,
    instructions: u64,
    /// Sweep workers of the measured pass (1: point after point).
    pub jobs: usize,
    /// Accesses per scheduling chunk of the measured pass.
    pub chunk: Option<u64>,
    /// Key points the way `fig13_speedup` does (`mcf::#base`, `mcf::#0`,
    /// ...) rather than `<bench>::<org label>`.
    grid_keys: bool,
}

/// Every workload, in the order the benchmark documents them.
pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "steady-gcc",
        benches: &["gcc"],
        orgs: &[OrgKind::Baseline, OrgKind::AlloyCache, CAMEO],
        scale: 128,
        cores: 16,
        instructions: 2_000_000,
        jobs: 1,
        chunk: None,
        grid_keys: false,
    },
    Workload {
        name: "writes-lbm",
        benches: &["lbm"],
        orgs: &[
            OrgKind::Baseline,
            OrgKind::AlloyCache,
            OrgKind::TlmDynamic,
            CAMEO,
        ],
        scale: 128,
        cores: 8,
        instructions: 4_000_000,
        jobs: 1,
        chunk: None,
        grid_keys: false,
    },
    Workload {
        name: "sweep-fig13",
        benches: &["mcf", "milc"],
        // The baseline column plus `fig13_speedup`'s five.
        orgs: &[
            OrgKind::Baseline,
            OrgKind::AlloyCache,
            OrgKind::TlmStatic,
            OrgKind::TlmDynamic,
            CAMEO,
            OrgKind::DoubleUse,
        ],
        // 1/512 as `fig13_speedup --quick` runs it: a point's tables fit
        // in a core's L2, so on a shared host the two workers' pass time
        // depends far less on other tenants' use of the last-level cache
        // than at 1/128.
        scale: 512,
        cores: 8,
        instructions: 7_000_000,
        jobs: 2,
        chunk: Some(50_000),
        grid_keys: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The simulated machine of one pass. Statistics start after page
    /// prefill and the default 30% warmup.
    pub fn config(&self, seed: u64, size: Size) -> SystemConfig {
        let (scale, instructions) = match size {
            Size::Full => (self.scale, self.instructions),
            Size::Tiny => (self.scale.max(512), 60_000),
        };
        SystemConfig {
            scale,
            cores: self.cores,
            instructions_per_core: instructions,
            seed,
            ..SystemConfig::default()
        }
    }

    /// The workload's points in canonical order: per benchmark, every
    /// organization.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.benches.len() * self.orgs.len());
        for bench in self.benches {
            for (col, &kind) in self.orgs.iter().enumerate() {
                let point = SweepPoint::new(bench, kind);
                points.push(if !self.grid_keys {
                    point
                } else if col == 0 {
                    point.with_key(format!("{bench}::#base"))
                } else {
                    point.with_key(format!("{bench}::#{}", col - 1))
                });
            }
        }
        points
    }
}

/// Snake-case layer name of an organization (`sim.org.<name>.*`).
pub fn org_slug(kind: OrgKind) -> &'static str {
    match kind {
        OrgKind::Baseline => "baseline",
        OrgKind::AlloyCache => "cache",
        OrgKind::TlmStatic => "tlm_static",
        OrgKind::TlmDynamic => "tlm_dynamic",
        OrgKind::DoubleUse => "double_use",
        k if k == CAMEO => "cameo",
        _ => "other",
    }
}

/// Every organization slug the per-layer metrics are reported for.
pub const ORG_SLUGS: [&str; 6] = [
    "baseline",
    "cache",
    "tlm_static",
    "tlm_dynamic",
    "cameo",
    "double_use",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_keys_match_fig13_speedup() {
        let w = Workload::by_name("sweep-fig13").expect("known workload");
        let keys: Vec<String> = w.points().into_iter().map(|p| p.key).collect();
        assert_eq!(keys.len(), 12);
        assert_eq!(keys[0], "mcf::#base");
        assert_eq!(keys[1], "mcf::#0");
        assert_eq!(keys[11], "milc::#4");
    }

    #[test]
    fn every_org_has_a_slug() {
        for w in &WORKLOADS {
            for p in w.points() {
                assert!(ORG_SLUGS.contains(&org_slug(p.kind)), "{:?}", p.kind);
            }
        }
    }
}
