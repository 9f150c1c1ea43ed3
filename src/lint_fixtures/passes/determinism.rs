//! Determinism: no randomly seeded hasher and no unexcused host-time
//! read.

#[cfg(test)]
mod tests {
    use crate::engine::{Fixture, NONE};

    /// The module that defines the deterministic collections, as
    /// `cameo-types` ships it.
    const HASH_MODULE: &str = include_str!("../../../crates/types/src/hash.rs");

    /// `body` after the real `hash` module.
    fn with_hash_module(body: &str) -> String {
        format!("pub mod hash {{\n{HASH_MODULE}\n}}\nuse hash::DetHashMap;\n{body}")
    }

    #[test]
    fn default_hasher_construction_is_flagged() {
        for src in [
            "/// Builds.\npub fn f() -> usize {\n    \
             std::collections::HashMap::<u64, u64>::new().len()\n}",
            "/// Builds.\npub fn f() -> usize {\n    \
             std::collections::HashSet::<u64>::with_capacity(8).len()\n}",
            "use std::hash::BuildHasher;\n\
             /// Builds.\npub fn f() -> u64 {\n    \
             std::collections::hash_map::RandomState::new().hash_one(1)\n}",
        ] {
            assert_eq!(
                Fixture::clippy(src).lints(),
                ["clippy::disallowed_types"],
                "{src}"
            );
        }
    }

    #[test]
    fn det_collections_and_exempt_file_pass() {
        let src = with_hash_module(
            "/// Builds.\npub fn f() -> usize {\n    \
             let m: DetHashMap<u64, u64> = DetHashMap::default();\n    m.len()\n}",
        );
        assert_eq!(Fixture::clippy(&src).lints(), NONE);
    }

    #[test]
    fn iteration_over_det_and_btree_maps_is_fine() {
        let src = with_hash_module(
            "use std::collections::BTreeMap;\n\
             /// Sums.\npub fn f(m: &DetHashMap<u64, u64>, b: &BTreeMap<u64, u64>) -> u64 {\n    \
             let mut total = 0;\n    \
             for (k, v) in m {\n        total += k + v;\n    }\n    \
             total + b.values().sum::<u64>()\n}",
        );
        assert_eq!(Fixture::clippy(&src).lints(), NONE);
    }

    #[test]
    fn wall_clock_reads_are_flagged_outside_perf() {
        let src = "/// Times.\npub fn f() -> std::time::SystemTime {\n    \
                   let _t = std::time::Instant::now();\n    \
                   std::time::SystemTime::now()\n}";
        assert_eq!(
            Fixture::clippy(src).lints(),
            ["clippy::disallowed_methods", "clippy::disallowed_methods"]
        );
    }

    #[test]
    fn wall_clock_allow_suppresses() {
        let src = "/// Times.\npub fn f() -> std::time::Duration {\n    \
                   #[expect(clippy::disallowed_methods, reason = \"host time is reported, never simulated\")]\n    \
                   let t = std::time::Instant::now();\n    \
                   t.elapsed()\n}";
        assert_eq!(Fixture::clippy(src).lints(), NONE);
    }
}
