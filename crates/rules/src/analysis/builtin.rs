//! The built-in catalog as rule files.
//!
//! Every Table 5 row carries its rule text ([`crate::RuleInfo::text`]);
//! this module holds the prefixes those texts assume and renders a
//! fragment's members into the shipped `rules/*.rules` files. Loading such
//! a file maps each rule back onto its built-in
//! ([`super::recognize`]), so a fragment file runs exactly as the fragment.

use crate::catalog::RuleId;
use crate::ruleset::{Fragment, Ruleset};

/// The `@prefix` block every catalog rule text assumes.
pub const PRELUDE: &str = "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n\
                           @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
                           @prefix owl: <http://www.w3.org/2002/07/owl#> .\n";

/// The text of one built-in rule, from its catalog row.
pub fn rule_text(id: RuleId) -> &'static str {
    id.info().text
}

/// Renders a fragment's member rules as a loadable `.rules` file — the
/// generator behind the shipped `rules/*.rules` files (kept in sync by the
/// fragment-file test).
pub fn fragment_file_text(fragment: Fragment) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# {} — the built-in fragment re-expressed as a rule file.\n\
         # Generated from inferray_rules::analysis::builtin::fragment_file_text\n\
         # out of the catalog's rule texts, from which the scheduler derives\n\
         # every built-in's signatures (see crates/rules/src/catalog.rs).\n",
        fragment.name()
    ));
    out.push_str(PRELUDE);
    out.push('\n');
    for rule in Ruleset::for_fragment(fragment).rules() {
        out.push_str(rule_text(*rule));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_files_contain_exactly_the_member_rules() {
        for fragment in Fragment::ALL {
            let text = fragment_file_text(fragment);
            let members = Ruleset::for_fragment(fragment).len();
            assert_eq!(
                text.lines().filter(|l| l.starts_with("rule ")).count(),
                members,
                "{fragment}"
            );
        }
    }
}
