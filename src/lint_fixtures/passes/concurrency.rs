//! Concurrency: a poisoned lock is never unwrapped.

#[cfg(test)]
mod tests {
    use crate::engine::{Fixture, NONE};

    #[test]
    fn lock_unwrap_is_flagged() {
        let src = "use std::sync::Mutex;\n\
                   /// Reads.\npub fn f(m: &Mutex<u64>) -> u64 {\n    *m.lock().unwrap()\n}";
        assert_eq!(Fixture::clippy(src).lints(), ["clippy::unwrap_used"]);
        let src = "use std::sync::Mutex;\n\
                   /// Reads.\npub fn f(m: &Mutex<u64>) -> u64 {\n    \
                   *m.lock().expect(\"held only for the read below\")\n}";
        assert_eq!(Fixture::clippy(src).lints(), NONE);
    }
}
