//! Fixture: mints a `RuleInfo { … }` catalog row outside the catalog.
//! Presented under a synthetic non-catalog path, exactly one literal must
//! be flagged. Camouflage that must stay silent: the mention of
//! RuleInfo { in this comment, the string below, type positions
//! (`&RuleInfo` parameter, `RuleInfo::` path) and the `#[cfg(test)]`
//! construction.

pub fn rogue_row() {
    let info = RuleInfo {
        name: "ROGUE",
        class: RuleClass::Trivial,
        text: "rule ROGUE: ?x <urn:p> ?y => ?y <urn:p> ?x .",
    };
    register(info);
}

pub fn inspect(info: &RuleInfo) -> &'static str {
    let _ = info;
    "RuleInfo { in a string is not a literal"
}

pub fn lookup() {
    let _ = RuleInfo::lookup_by_name("CAX-SCO");
}

#[cfg(test)]
mod tests {
    #[test]
    fn builds_one_in_tests() {
        let _ = RuleInfo {
            name: "TEST-ONLY",
            class: RuleClass::Trivial,
            text: "rule TEST-ONLY: ?x <urn:p> ?y => ?y <urn:p> ?x .",
        };
    }
}
