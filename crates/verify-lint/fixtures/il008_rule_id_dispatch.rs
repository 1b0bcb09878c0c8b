//! Fixture: picks what a rule does by its `RuleId` variant. Presented under
//! a non-catalog path of the rules crate, the core crate or the umbrella
//! crate, exactly one dispatch must be flagged. Camouflage that must stay
//! silent: RuleId::PrpIfp in this comment, `RuleId::ALL`, the type in a
//! signature, the string below and the `#[cfg(test)]` use.

pub fn probe(rule: RuleId) -> bool {
    match rule {
        RuleId::PrpFp => true,
        _ => false,
    }
}

pub fn every_rule() -> usize {
    RuleId::ALL.len()
}

pub fn named() -> &'static str {
    "RuleId::EqRepS in a string is not a path"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_name_a_rule() {
        let _ = RuleId::EqRepO;
    }
}
