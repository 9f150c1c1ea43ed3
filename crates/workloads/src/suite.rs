//! The 17-benchmark workload suite of the paper's Table II, with per-
//! benchmark locality models.

use cameo_types::ByteSize;

/// Workload category from the paper: footprint above the 12 GB baseline
/// memory is Capacity-Limited; the rest (with L3 MPKI > 1) are
/// Latency-Limited.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Footprint exceeds baseline off-chip memory; paging dominates.
    CapacityLimited,
    /// Fits in memory; DRAM latency/bandwidth dominates.
    LatencyLimited,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::CapacityLimited => f.write_str("Capacity"),
            Category::LatencyLimited => f.write_str("Latency"),
        }
    }
}

/// Locality model of one benchmark — the knobs that shape its miss stream.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Behavior {
    /// Fraction of the footprint forming the hot set.
    pub hot_fraction: f64,
    /// Probability a non-streamed access lands in the hot set.
    pub hot_access_prob: f64,
    /// Probability an access continues a sequential stream.
    pub stream_prob: f64,
    /// Fraction of each page's 64 lines the benchmark ever touches
    /// (spatial locality; milc's ~10/64 is the paper's example of a
    /// TLM-hostile workload).
    pub page_density: f64,
    /// Fraction of misses that are writes (dirty LLC victims / stores).
    pub write_fraction: f64,
    /// Distinct instruction addresses generating misses (loop points).
    pub pc_pool: usize,
}

impl Behavior {
    /// Checks that all knobs are within their valid ranges.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSpec::Knob`] for a probability outside `[0, 1]`, a
    /// non-positive page density, or an empty PC pool.
    pub fn validate(&self) -> Result<(), InvalidSpec> {
        for (name, value) in [
            ("hot_fraction", self.hot_fraction),
            ("hot_access_prob", self.hot_access_prob),
            ("stream_prob", self.stream_prob),
            ("page_density", self.page_density),
            ("write_fraction", self.write_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(InvalidSpec::Knob {
                    name,
                    value,
                    range: "[0, 1]",
                });
            }
        }
        if self.page_density == 0.0 {
            return Err(InvalidSpec::Knob {
                name: "page_density",
                value: 0.0,
                range: "(0, 1]",
            });
        }
        if self.pc_pool == 0 {
            return Err(InvalidSpec::Knob {
                name: "pc_pool",
                value: 0.0,
                range: "at least 1",
            });
        }
        Ok(())
    }
}

/// Why a [`BenchSpec`] cannot drive a
/// [`TraceGenerator`](crate::TraceGenerator).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum InvalidSpec {
    /// `mpki` is not finite and positive.
    Mpki(f64),
    /// `mpki` is so small that the largest inter-miss gap,
    /// `(1000 / mpki) · ln(1/ε)`, reaches 2^63 instructions.
    GapOverflow(f64),
    /// A [`Behavior`] knob lies outside its range.
    Knob {
        /// The knob's field name.
        name: &'static str,
        /// Its value.
        value: f64,
        /// The range it must lie in.
        range: &'static str,
    },
}

impl std::fmt::Display for InvalidSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidSpec::Mpki(mpki) => write!(f, "mpki must be finite and positive, not {mpki}"),
            InvalidSpec::GapOverflow(mpki) => write!(
                f,
                "mpki {mpki} is too small: the largest inter-miss gap reaches 2^63 instructions"
            ),
            InvalidSpec::Knob { name, value, range } => {
                write!(f, "{name} must lie in {range}, not {value}")
            }
        }
    }
}

impl std::error::Error for InvalidSpec {}

/// One benchmark of Table II: measured characteristics plus the locality
/// model that reproduces them synthetically.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BenchSpec {
    /// SPEC benchmark name.
    pub name: &'static str,
    /// Workload category.
    pub category: Category,
    /// L3 misses per thousand instructions (Table II).
    pub mpki: f64,
    /// Full-scale memory footprint (Table II).
    pub footprint: ByteSize,
    /// Locality model.
    pub behavior: Behavior,
}

impl BenchSpec {
    /// Checks that the spec can drive a generator: `mpki` is finite and
    /// positive, its largest gap stays below 2^63 instructions, and the
    /// [`Behavior`] is valid.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidSpec`] found.
    pub fn validate(&self) -> Result<(), InvalidSpec> {
        if !(self.mpki.is_finite() && self.mpki > 0.0) {
            return Err(InvalidSpec::Mpki(self.mpki));
        }
        if crate::generator::largest_gap(self.mpki) >= 1 << 63 {
            return Err(InvalidSpec::GapOverflow(self.mpki));
        }
        self.behavior.validate()
    }

    /// Footprint after dividing by the simulation scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn scaled_footprint(&self, scale: u64) -> ByteSize {
        self.footprint.scale_down(scale)
    }

    /// The static memory/cache split (percent of the stacked die left as
    /// OS-visible memory) this benchmark's Table II profile predicts a
    /// MemCache hybrid prefers: capacity-limited workloads page against
    /// off-chip memory, so every stacked gigabyte spent on cache costs
    /// them visible capacity — they want the largest memory split.
    /// Latency-limited workloads fit in memory regardless, so the die
    /// earns more as cache — they want the smallest.
    pub fn preferred_memcache_split(&self) -> u8 {
        match self.category {
            Category::CapacityLimited => 75,
            Category::LatencyLimited => 25,
        }
    }
}

const fn gb(tenths: u64) -> ByteSize {
    // Table II quotes decimal-looking "GB" figures; treat them as GiB
    // tenths for exact integer arithmetic.
    ByteSize::from_bytes(tenths * 1024 * 1024 * 1024 / 10)
}

/// The full Table II suite, in the paper's order.
pub fn suite() -> Vec<BenchSpec> {
    use Category::*;
    vec![
        // --- Capacity-Limited (footprint > 12 GB) ---
        BenchSpec {
            name: "mcf",
            category: CapacityLimited,
            mpki: 39.1,
            footprint: gb(524),
            behavior: Behavior {
                // Pointer-chasing over a huge graph: weak streams, a modest
                // hot set, sparse page usage.
                hot_fraction: 0.04,
                hot_access_prob: 0.55,
                stream_prob: 0.15,
                page_density: 0.30,
                write_fraction: 0.25,
                pc_pool: 64,
            },
        },
        BenchSpec {
            name: "lbm",
            category: CapacityLimited,
            mpki: 28.9,
            footprint: gb(128),
            behavior: Behavior {
                // Lattice-Boltzmann stencil: heavily streaming, dense pages.
                hot_fraction: 0.05,
                hot_access_prob: 0.30,
                stream_prob: 0.80,
                page_density: 1.0,
                write_fraction: 0.45,
                pc_pool: 16,
            },
        },
        BenchSpec {
            name: "GemsFDTD",
            category: CapacityLimited,
            mpki: 19.1,
            footprint: gb(252),
            behavior: Behavior {
                hot_fraction: 0.06,
                hot_access_prob: 0.40,
                stream_prob: 0.60,
                page_density: 0.80,
                write_fraction: 0.35,
                pc_pool: 32,
            },
        },
        BenchSpec {
            name: "bwaves",
            category: CapacityLimited,
            mpki: 6.3,
            footprint: gb(272),
            behavior: Behavior {
                hot_fraction: 0.05,
                hot_access_prob: 0.40,
                stream_prob: 0.70,
                page_density: 0.90,
                write_fraction: 0.30,
                pc_pool: 24,
            },
        },
        BenchSpec {
            name: "cactusADM",
            category: CapacityLimited,
            mpki: 4.9,
            footprint: gb(128),
            behavior: Behavior {
                hot_fraction: 0.10,
                hot_access_prob: 0.50,
                stream_prob: 0.50,
                page_density: 0.70,
                write_fraction: 0.35,
                pc_pool: 32,
            },
        },
        BenchSpec {
            name: "zeusmp",
            category: CapacityLimited,
            mpki: 5.0,
            footprint: gb(141),
            behavior: Behavior {
                hot_fraction: 0.08,
                hot_access_prob: 0.45,
                stream_prob: 0.60,
                page_density: 0.80,
                write_fraction: 0.30,
                pc_pool: 32,
            },
        },
        // --- Latency-Limited (footprint < 12 GB, MPKI > 1) ---
        BenchSpec {
            name: "gcc",
            category: LatencyLimited,
            mpki: 63.1,
            footprint: gb(28),
            behavior: Behavior {
                hot_fraction: 0.10,
                hot_access_prob: 0.70,
                stream_prob: 0.30,
                page_density: 0.50,
                write_fraction: 0.30,
                pc_pool: 128,
            },
        },
        BenchSpec {
            name: "milc",
            category: LatencyLimited,
            mpki: 31.9,
            footprint: gb(112),
            behavior: Behavior {
                // The paper's poster child for poor spatial locality:
                // ~10 of 64 lines per page are ever used.
                hot_fraction: 0.08,
                hot_access_prob: 0.50,
                stream_prob: 0.10,
                page_density: 0.16,
                write_fraction: 0.25,
                pc_pool: 48,
            },
        },
        BenchSpec {
            name: "soplex",
            category: LatencyLimited,
            mpki: 28.9,
            footprint: gb(76),
            behavior: Behavior {
                hot_fraction: 0.10,
                hot_access_prob: 0.55,
                stream_prob: 0.40,
                page_density: 0.60,
                write_fraction: 0.25,
                pc_pool: 64,
            },
        },
        BenchSpec {
            name: "libquantum",
            category: LatencyLimited,
            mpki: 25.4,
            footprint: gb(10),
            behavior: Behavior {
                // Pure streaming over a 1 GB vector.
                hot_fraction: 0.02,
                hot_access_prob: 0.10,
                stream_prob: 0.95,
                page_density: 1.0,
                write_fraction: 0.30,
                pc_pool: 4,
            },
        },
        BenchSpec {
            name: "xalancbmk",
            category: LatencyLimited,
            mpki: 23.7,
            footprint: gb(44),
            behavior: Behavior {
                hot_fraction: 0.10,
                hot_access_prob: 0.70,
                stream_prob: 0.20,
                page_density: 0.40,
                write_fraction: 0.25,
                pc_pool: 96,
            },
        },
        BenchSpec {
            name: "omnetpp",
            category: LatencyLimited,
            mpki: 20.5,
            footprint: gb(48),
            behavior: Behavior {
                hot_fraction: 0.10,
                hot_access_prob: 0.65,
                stream_prob: 0.15,
                page_density: 0.35,
                write_fraction: 0.30,
                pc_pool: 96,
            },
        },
        BenchSpec {
            name: "leslie3d",
            category: LatencyLimited,
            mpki: 15.8,
            footprint: gb(24),
            behavior: Behavior {
                hot_fraction: 0.08,
                hot_access_prob: 0.40,
                stream_prob: 0.70,
                page_density: 0.90,
                write_fraction: 0.30,
                pc_pool: 24,
            },
        },
        BenchSpec {
            name: "sphinx3",
            category: LatencyLimited,
            mpki: 13.5,
            footprint: gb(6),
            behavior: Behavior {
                hot_fraction: 0.20,
                hot_access_prob: 0.70,
                stream_prob: 0.40,
                page_density: 0.60,
                write_fraction: 0.15,
                pc_pool: 48,
            },
        },
        BenchSpec {
            name: "bzip2",
            category: LatencyLimited,
            mpki: 3.48,
            footprint: gb(11),
            behavior: Behavior {
                hot_fraction: 0.15,
                hot_access_prob: 0.60,
                stream_prob: 0.50,
                page_density: 0.70,
                write_fraction: 0.35,
                pc_pool: 32,
            },
        },
        BenchSpec {
            name: "dealII",
            category: LatencyLimited,
            mpki: 2.33,
            footprint: gb(9),
            behavior: Behavior {
                hot_fraction: 0.20,
                hot_access_prob: 0.70,
                stream_prob: 0.30,
                page_density: 0.60,
                write_fraction: 0.25,
                pc_pool: 64,
            },
        },
        BenchSpec {
            name: "astar",
            category: LatencyLimited,
            mpki: 1.81,
            footprint: gb(1),
            behavior: Behavior {
                hot_fraction: 0.30,
                hot_access_prob: 0.80,
                stream_prob: 0.10,
                page_density: 0.30,
                write_fraction: 0.25,
                pc_pool: 48,
            },
        },
    ]
}

/// Looks a benchmark up by its SPEC name.
pub fn by_name(name: &str) -> Option<BenchSpec> {
    suite().into_iter().find(|b| b.name == name)
}

/// A benchmark name that is not in the Table II suite.
///
/// Carries the rejected name and the full list of valid names so the error
/// message tells the caller exactly what to type instead.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnknownBenchmark {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = suite().iter().map(|b| b.name).collect();
        write!(
            f,
            "unknown benchmark {:?}; the Table II suite is: {}",
            self.name,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownBenchmark {}

/// Looks a benchmark up by name, with a descriptive error naming the whole
/// suite on failure — use this instead of `by_name(..).unwrap()`.
///
/// # Errors
///
/// Returns [`UnknownBenchmark`] when `name` is not in the Table II suite.
pub fn require(name: &str) -> Result<BenchSpec, UnknownBenchmark> {
    by_name(name).ok_or_else(|| UnknownBenchmark {
        name: name.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_benchmarks() {
        assert_eq!(suite().len(), 17);
    }

    #[test]
    fn names_unique() {
        let names: cameo_types::DetHashSet<_> = suite().iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn categories_match_footprint_rule() {
        // Capacity-Limited iff footprint > 12 GB baseline memory.
        let baseline = ByteSize::from_gib(12);
        for b in suite() {
            let expected = if b.footprint > baseline {
                Category::CapacityLimited
            } else {
                Category::LatencyLimited
            };
            assert_eq!(b.category, expected, "{}", b.name);
        }
    }

    #[test]
    fn table2_values_spot_check() {
        let mcf = by_name("mcf").unwrap();
        assert_eq!(mcf.mpki, 39.1);
        assert!((mcf.footprint.as_gib() - 52.4).abs() < 0.01);
        let milc = by_name("milc").unwrap();
        assert!((milc.footprint.as_gib() - 11.2).abs() < 0.01);
        // milc touches ~10 of 64 lines per page in the paper.
        assert!((milc.behavior.page_density * 64.0 - 10.0).abs() < 1.0);
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn require_names_the_suite_on_failure() {
        assert_eq!(require("astar").map(|b| b.name), Ok("astar"));
        let err = require("asstar").expect_err("typo must not resolve");
        let msg = err.to_string();
        assert!(msg.contains("asstar"), "{msg}");
        assert!(msg.contains("astar") && msg.contains("mcf"), "{msg}");
    }

    #[test]
    fn behaviors_valid() {
        for b in suite() {
            assert_eq!(b.validate(), Ok(()), "{}", b.name);
            assert!(b.mpki > 1.0, "{} below the MPKI>1 cut", b.name);
        }
    }

    #[test]
    fn invalid_mpki_rejected() {
        let spec = |mpki| BenchSpec {
            mpki,
            ..by_name("gcc").unwrap()
        };
        for mpki in [0.0, -0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(spec(mpki).validate(), Err(InvalidSpec::Mpki(_))),
                "mpki {mpki}"
            );
        }
        assert_eq!(
            spec(1e-300).validate(),
            Err(InvalidSpec::GapOverflow(1e-300))
        );
        // The bound sits where the largest gap, 1000/mpki · 52·ln 2,
        // crosses 2^63: about 3.9e-15 MPKI.
        assert_eq!(
            spec(3.8e-15).validate(),
            Err(InvalidSpec::GapOverflow(3.8e-15))
        );
        assert_eq!(spec(4.0e-15).validate(), Ok(()));
        assert_eq!(spec(1e300).validate(), Ok(()));
    }

    #[test]
    fn invalid_knobs_rejected() {
        let gcc = by_name("gcc").unwrap();
        let with = |edit: fn(&mut Behavior)| {
            let mut spec = gcc;
            edit(&mut spec.behavior);
            spec.validate()
        };
        let knob = |r: Result<(), InvalidSpec>| match r {
            Err(InvalidSpec::Knob { name, .. }) => Some(name),
            _ => None,
        };
        assert_eq!(knob(with(|b| b.pc_pool = 0)), Some("pc_pool"));
        assert_eq!(knob(with(|b| b.page_density = 0.0)), Some("page_density"));
        assert_eq!(knob(with(|b| b.stream_prob = 1.5)), Some("stream_prob"));
        assert_eq!(
            knob(with(|b| b.write_fraction = f64::NAN)),
            Some("write_fraction")
        );
        assert_eq!(knob(with(|b| b.hot_fraction = -0.1)), Some("hot_fraction"));
        let msg = with(|b| b.pc_pool = 0).unwrap_err().to_string();
        assert!(msg.contains("pc_pool"), "{msg}");
    }

    #[test]
    fn scaled_footprint_preserves_classification() {
        let scale = 64;
        let baseline = ByteSize::from_gib(12).scale_down(scale);
        for b in suite() {
            let capacity_limited = b.scaled_footprint(scale) > baseline;
            assert_eq!(
                capacity_limited,
                b.category == Category::CapacityLimited,
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn preferred_split_follows_category() {
        for b in suite() {
            let split = b.preferred_memcache_split();
            assert!(matches!(split, 25 | 75), "{}: {split}", b.name);
            assert_eq!(
                split == 75,
                b.category == Category::CapacityLimited,
                "{}: capacity-limited workloads want the die as memory",
                b.name
            );
        }
    }

    #[test]
    fn category_display() {
        assert_eq!(Category::CapacityLimited.to_string(), "Capacity");
        assert_eq!(Category::LatencyLimited.to_string(), "Latency");
    }
}
