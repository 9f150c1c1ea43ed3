//! Item- and expression-level rules: undocumented public items, panics
//! and unwraps, detached threads, and the `#[expect]` exemptions that
//! excuse a single site.

#[cfg(test)]
mod tests {
    use crate::engine::{Fixture, NONE};

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "/// Defaults.\npub fn f(x: Option<u8>, fallback: fn() -> u8) -> u8 {\n    \
                   x.unwrap_or(0) + x.unwrap_or_else(fallback) + x.unwrap_or_default()\n}";
        assert_eq!(Fixture::clippy(src).hot_path().lints(), NONE);
    }

    #[test]
    fn panic_macros_respect_word_boundaries() {
        for (src, lint) in [
            (
                "/// Fails.\npub fn f() {\n    panic!(\"boom\");\n}",
                "clippy::panic",
            ),
            ("/// Stub.\npub fn f() {\n    todo!()\n}", "clippy::todo"),
            (
                "/// Stub.\npub fn f() {\n    unimplemented!()\n}",
                "clippy::unimplemented",
            ),
        ] {
            assert_eq!(Fixture::clippy(src).hot_path().lints(), [lint], "{src}");
        }
        // A function merely named for panicking is not a panic macro.
        let src = "fn dont_panic() {}\n/// Calls.\npub fn f() {\n    dont_panic();\n}";
        assert_eq!(Fixture::clippy(src).hot_path().lints(), NONE);
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "/// Adds.\npub fn add(a: u8, b: u8) -> u8 {\n    a.wrapping_add(b)\n}\n\
                   #[cfg(test)]\nmod tests {\n    \
                   #[test]\n    fn t() {\n        \
                   let x = super::add(1, 2).checked_sub(1).unwrap();\n        \
                   if x != 2 {\n            panic!(\"{x}\");\n        }\n    }\n}";
        assert_eq!(Fixture::clippy(src).hot_path().test().lints(), NONE);
        // The same unwrap outside the test module is caught.
        let src = "/// Subtracts one.\npub fn dec(a: u8) -> u8 {\n    a.checked_sub(1).unwrap()\n}";
        assert_eq!(
            Fixture::clippy(src).hot_path().test().lints(),
            ["clippy::unwrap_used"]
        );
    }

    #[test]
    fn allow_directive_suppresses() {
        let on_item = "#[expect(clippy::unwrap_used, reason = \"callers pass Some\")]\n\
                       /// Unwraps.\npub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}";
        let on_statement = "/// Unwraps.\npub fn f(x: Option<u8>) -> u8 {\n    \
                            #[expect(clippy::unwrap_used, reason = \"callers pass Some\")]\n    \
                            let v = x.unwrap();\n    v\n}";
        for src in [on_item, on_statement] {
            assert_eq!(Fixture::clippy(src).hot_path().lints(), NONE, "{src}");
        }
        // A stale exemption fails, and so does one without a reason.
        let stale = "#[expect(clippy::unwrap_used, reason = \"callers pass Some\")]\n\
                     /// Defaults.\npub fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}";
        assert_eq!(
            Fixture::clippy(stale).lints(),
            ["unfulfilled_lint_expectations"]
        );
        let reasonless = "#[allow(clippy::unwrap_used)]\n\
                          /// Unwraps.\npub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}";
        assert_eq!(
            Fixture::clippy(reasonless).lints(),
            ["clippy::allow_attributes_without_reason"]
        );
    }

    #[test]
    fn missing_docs_on_pub_items() {
        assert_eq!(Fixture::build("pub fn frob() {}").lints(), ["missing_docs"]);
        assert_eq!(
            Fixture::build("/// Frobnicates.\npub fn frob() {}").lints(),
            NONE
        );
    }

    #[test]
    fn non_items_and_restricted_visibility_are_exempt() {
        let src = "mod llt {\n    /// An entry.\n    pub struct LltEntry;\n}\n\
                   pub use llt::LltEntry;\n\
                   pub(crate) fn helper() -> LltEntry {\n    LltEntry\n}\n\
                   /// Builds an entry.\npub fn entry() -> LltEntry {\n    helper()\n}";
        assert_eq!(Fixture::build(src).lints(), NONE);
        assert_eq!(Fixture::build("pub mod stats {}").lints(), ["missing_docs"]);
    }

    #[test]
    fn pub_const_fn_and_const_item_both_need_docs() {
        for src in [
            "pub const LIMIT: usize = 4;",
            "pub const fn limit() -> usize {\n    4\n}",
        ] {
            assert_eq!(Fixture::build(src).lints(), ["missing_docs"], "{src}");
        }
    }

    #[test]
    fn bare_thread_spawn_flagged_everywhere() {
        for src in [
            "/// Detaches.\npub fn f() {\n    std::thread::spawn(move || ());\n}",
            "use std::thread;\n/// Detaches.\npub fn f() {\n    thread::spawn(|| {});\n}",
            "/// Detaches.\npub fn f() {\n    \
             let _ = std::thread::Builder::new().spawn(|| {});\n}",
        ] {
            for fixture in [Fixture::clippy(src), Fixture::clippy(src).hot_path()] {
                assert_eq!(fixture.lints(), ["clippy::disallowed_methods"], "{src}");
            }
        }
    }

    #[test]
    fn scoped_spawns_are_fine() {
        let src = "use std::thread::{Builder, Scope};\n\
                   /// Spawns on a scope.\npub fn on_scope(s: &Scope<'_, '_>) {\n    \
                   s.spawn(|| {});\n}\n\
                   /// Spawns a named scoped worker.\npub fn named() {\n    \
                   std::thread::scope(|s| {\n        \
                   let _ = Builder::new().name(\"w\".into()).spawn_scoped(s, || {});\n    \
                   });\n}\n\
                   mod my {\n    pub mod thread {\n        pub fn spawner() {}\n    }\n}\n\
                   /// Not the std function.\npub fn f() {\n    my::thread::spawner();\n}";
        assert_eq!(Fixture::clippy(src).lints(), NONE);
    }
}
