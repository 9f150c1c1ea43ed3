//! Layering: every `cfg(feature = ...)` names a declared feature.

#[cfg(test)]
mod tests {
    use crate::engine::{Fixture, NONE};

    #[test]
    fn undeclared_feature_gate_is_flagged() {
        let src = "#[cfg(feature = \"quantum\")]\n/// Q.\npub fn q() {}\n\
                   #[cfg(feature = \"faults\")]\n/// F.\npub fn f() {}";
        assert_eq!(
            Fixture::build(src)
                .features(&["deep-audit", "faults"])
                .lints(),
            ["unexpected_cfgs"]
        );
        let src = "#[cfg(feature = \"faults\")]\n/// F.\npub fn f() {}";
        assert_eq!(
            Fixture::build(src)
                .features(&["deep-audit", "faults"])
                .lints(),
            NONE
        );
    }
}
