//! The rule catalog — Table 5 of the paper.
//!
//! Every rule supported by Inferray is described here: its identifier and
//! its membership in each of the three rule fragments (RDFS, ρDF,
//! RDFS-Plus). Membership distinguishes full members from the "half-circle"
//! rules that "do not produce meaningful triples and are used only in full
//! versions of rulesets".
//!
//! Each row also carries the rule's text in the `.rules` language
//! (docs/rules.md). That text is the rule's only description: the analyzer
//! derives from it the input and output signatures the scheduler and the
//! delete–rederive path read ([`crate::Ruleset::compiled`]), and the shipped
//! `rules/*.rules` files are rendered from it, and every built-in runs it
//! ([`crate::analysis::apply_compiled`]) through the kernel its shape picks
//! ([`crate::analysis::lowering()`]): the rule classes of §4.4 are read off
//! the text, not listed here, and no code outside this file picks what a
//! rule does by its [`RuleId`].

use std::fmt;

/// Identifier of each of the 38 rules of Table 5, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum RuleId {
    CaxEqc1,
    CaxEqc2,
    CaxSco,
    EqRepO,
    EqRepP,
    EqRepS,
    EqSym,
    EqTrans,
    PrpDom,
    PrpEqp1,
    PrpEqp2,
    PrpFp,
    PrpIfp,
    PrpInv1,
    PrpInv2,
    PrpRng,
    PrpSpo1,
    PrpSymp,
    PrpTrp,
    ScmDom1,
    ScmDom2,
    ScmEqc1,
    ScmEqc2,
    ScmEqp1,
    ScmEqp2,
    ScmRng1,
    ScmRng2,
    ScmSco,
    ScmSpo,
    ScmCls,
    ScmDp,
    ScmOp,
    Rdfs4,
    Rdfs8,
    Rdfs12,
    Rdfs13,
    Rdfs6,
    Rdfs10,
}

impl RuleId {
    /// Every rule, in Table 5 order.
    pub const ALL: [RuleId; 38] = [
        RuleId::CaxEqc1,
        RuleId::CaxEqc2,
        RuleId::CaxSco,
        RuleId::EqRepO,
        RuleId::EqRepP,
        RuleId::EqRepS,
        RuleId::EqSym,
        RuleId::EqTrans,
        RuleId::PrpDom,
        RuleId::PrpEqp1,
        RuleId::PrpEqp2,
        RuleId::PrpFp,
        RuleId::PrpIfp,
        RuleId::PrpInv1,
        RuleId::PrpInv2,
        RuleId::PrpRng,
        RuleId::PrpSpo1,
        RuleId::PrpSymp,
        RuleId::PrpTrp,
        RuleId::ScmDom1,
        RuleId::ScmDom2,
        RuleId::ScmEqc1,
        RuleId::ScmEqc2,
        RuleId::ScmEqp1,
        RuleId::ScmEqp2,
        RuleId::ScmRng1,
        RuleId::ScmRng2,
        RuleId::ScmSco,
        RuleId::ScmSpo,
        RuleId::ScmCls,
        RuleId::ScmDp,
        RuleId::ScmOp,
        RuleId::Rdfs4,
        RuleId::Rdfs8,
        RuleId::Rdfs12,
        RuleId::Rdfs13,
        RuleId::Rdfs6,
        RuleId::Rdfs10,
    ];

    /// The metadata record of this rule.
    pub fn info(self) -> &'static RuleInfo {
        &CATALOG[self as usize]
    }

    /// The canonical rule name used in the paper (e.g. `CAX-SCO`).
    pub fn name(self) -> &'static str {
        self.info().name
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether (and how) a rule belongs to a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Membership {
    /// Not part of the fragment (empty circle in Table 5).
    No,
    /// Part of the fragment's default and full versions (filled circle).
    Default,
    /// Only part of the *full* version of the fragment (half circle) —
    /// derives triples "that do not convey interesting knowledge, but
    /// satisfy the logician".
    FullOnly,
}

impl Membership {
    /// `true` when the rule runs in the default version of the fragment.
    pub fn in_default(self) -> bool {
        matches!(self, Membership::Default)
    }

    /// `true` when the rule runs in the full version of the fragment.
    pub fn in_full(self) -> bool {
        !matches!(self, Membership::No)
    }
}

/// One row of Table 5.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule identifier.
    pub id: RuleId,
    /// Canonical (paper) name.
    pub name: &'static str,
    /// Membership in plain RDFS.
    pub rdfs: Membership,
    /// Membership in ρDF.
    pub rho_df: Membership,
    /// Membership in RDFS-Plus.
    pub rdfs_plus: Membership,
    /// The rule as `.rules` text under [`crate::analysis::builtin::PRELUDE`]'s
    /// prefixes. Its signatures are derived from it, and a user rule that
    /// equals it up to variable names runs this row's executor.
    pub text: &'static str,
}

use Membership::{Default as D, FullOnly as F, No as N};

/// The full catalog, in Table 5 order (index = `RuleId as usize`).
pub static CATALOG: [RuleInfo; 38] = [
    RuleInfo {
        id: RuleId::CaxEqc1,
        name: "CAX-EQC1",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule CAX-EQC1: ?c1 owl:equivalentClass ?c2, ?x a ?c1 => ?x a ?c2 .",
    },
    RuleInfo {
        id: RuleId::CaxEqc2,
        name: "CAX-EQC2",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule CAX-EQC2: ?c1 owl:equivalentClass ?c2, ?x a ?c2 => ?x a ?c1 .",
    },
    RuleInfo {
        id: RuleId::CaxSco,
        name: "CAX-SCO",
        rdfs: D,
        rho_df: D,
        rdfs_plus: D,
        text: "rule CAX-SCO: ?c1 rdfs:subClassOf ?c2, ?x a ?c1 => ?x a ?c2 .",
    },
    RuleInfo {
        id: RuleId::EqRepO,
        name: "EQ-REP-O",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule EQ-REP-O: ?o1 owl:sameAs ?o2, ?s ?p ?o1 => ?s ?p ?o2 .",
    },
    RuleInfo {
        id: RuleId::EqRepP,
        name: "EQ-REP-P",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule EQ-REP-P: ?p1 owl:sameAs ?p2, ?s ?p1 ?o => ?s ?p2 ?o .",
    },
    RuleInfo {
        id: RuleId::EqRepS,
        name: "EQ-REP-S",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule EQ-REP-S: ?s1 owl:sameAs ?s2, ?s1 ?p ?o => ?s2 ?p ?o .",
    },
    RuleInfo {
        id: RuleId::EqSym,
        name: "EQ-SYM",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule EQ-SYM: ?x owl:sameAs ?y => ?y owl:sameAs ?x .",
    },
    RuleInfo {
        id: RuleId::EqTrans,
        name: "EQ-TRANS",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule EQ-TRANS: ?x owl:sameAs ?y, ?y owl:sameAs ?z => ?x owl:sameAs ?z .",
    },
    RuleInfo {
        id: RuleId::PrpDom,
        name: "PRP-DOM",
        rdfs: D,
        rho_df: D,
        rdfs_plus: D,
        text: "rule PRP-DOM: ?p rdfs:domain ?c, ?x ?p ?y => ?x a ?c .",
    },
    RuleInfo {
        id: RuleId::PrpEqp1,
        name: "PRP-EQP1",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule PRP-EQP1: ?p1 owl:equivalentProperty ?p2, ?x ?p1 ?y => ?x ?p2 ?y .",
    },
    RuleInfo {
        id: RuleId::PrpEqp2,
        name: "PRP-EQP2",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule PRP-EQP2: ?p1 owl:equivalentProperty ?p2, ?x ?p2 ?y => ?x ?p1 ?y .",
    },
    RuleInfo {
        id: RuleId::PrpFp,
        name: "PRP-FP",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text:
            "rule PRP-FP: ?p a owl:FunctionalProperty, ?x ?p ?y1, ?x ?p ?y2 => ?y1 owl:sameAs ?y2 .",
    },
    RuleInfo {
        id: RuleId::PrpIfp,
        name: "PRP-IFP",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text:
            "rule PRP-IFP: ?p a owl:InverseFunctionalProperty, ?x1 ?p ?y, ?x2 ?p ?y => ?x1 owl:sameAs ?x2 .",
    },
    RuleInfo {
        id: RuleId::PrpInv1,
        name: "PRP-INV1",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule PRP-INV1: ?p1 owl:inverseOf ?p2, ?x ?p1 ?y => ?y ?p2 ?x .",
    },
    RuleInfo {
        id: RuleId::PrpInv2,
        name: "PRP-INV2",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule PRP-INV2: ?p1 owl:inverseOf ?p2, ?x ?p2 ?y => ?y ?p1 ?x .",
    },
    RuleInfo {
        id: RuleId::PrpRng,
        name: "PRP-RNG",
        rdfs: D,
        rho_df: D,
        rdfs_plus: D,
        text: "rule PRP-RNG: ?p rdfs:range ?c, ?x ?p ?y => ?y a ?c .",
    },
    RuleInfo {
        id: RuleId::PrpSpo1,
        name: "PRP-SPO1",
        rdfs: D,
        rho_df: D,
        rdfs_plus: D,
        text: "rule PRP-SPO1: ?p1 rdfs:subPropertyOf ?p2, ?x ?p1 ?y => ?x ?p2 ?y .",
    },
    RuleInfo {
        id: RuleId::PrpSymp,
        name: "PRP-SYMP",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule PRP-SYMP: ?p a owl:SymmetricProperty, ?x ?p ?y => ?y ?p ?x .",
    },
    RuleInfo {
        id: RuleId::PrpTrp,
        name: "PRP-TRP",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text: "rule PRP-TRP: ?p a owl:TransitiveProperty, ?x ?p ?y, ?y ?p ?z => ?x ?p ?z .",
    },
    RuleInfo {
        id: RuleId::ScmDom1,
        name: "SCM-DOM1",
        rdfs: D,
        rho_df: N,
        rdfs_plus: D,
        text: "rule SCM-DOM1: ?p rdfs:domain ?c1, ?c1 rdfs:subClassOf ?c2 => ?p rdfs:domain ?c2 .",
    },
    RuleInfo {
        id: RuleId::ScmDom2,
        name: "SCM-DOM2",
        rdfs: D,
        rho_df: D,
        rdfs_plus: D,
        text:
            "rule SCM-DOM2: ?p2 rdfs:domain ?c, ?p1 rdfs:subPropertyOf ?p2 => ?p1 rdfs:domain ?c .",
    },
    RuleInfo {
        id: RuleId::ScmEqc1,
        name: "SCM-EQC1",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text:
            "rule SCM-EQC1: ?c1 owl:equivalentClass ?c2 => ?c1 rdfs:subClassOf ?c2, ?c2 rdfs:subClassOf ?c1 .",
    },
    RuleInfo {
        id: RuleId::ScmEqc2,
        name: "SCM-EQC2",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text:
            "rule SCM-EQC2: ?c1 rdfs:subClassOf ?c2, ?c2 rdfs:subClassOf ?c1 => ?c1 owl:equivalentClass ?c2 .",
    },
    RuleInfo {
        id: RuleId::ScmEqp1,
        name: "SCM-EQP1",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text:
            "rule SCM-EQP1: ?p1 owl:equivalentProperty ?p2 => ?p1 rdfs:subPropertyOf ?p2, ?p2 rdfs:subPropertyOf ?p1 .",
    },
    RuleInfo {
        id: RuleId::ScmEqp2,
        name: "SCM-EQP2",
        rdfs: N,
        rho_df: N,
        rdfs_plus: D,
        text:
            "rule SCM-EQP2: ?p1 rdfs:subPropertyOf ?p2, ?p2 rdfs:subPropertyOf ?p1 => ?p1 owl:equivalentProperty ?p2 .",
    },
    RuleInfo {
        id: RuleId::ScmRng1,
        name: "SCM-RNG1",
        rdfs: D,
        rho_df: N,
        rdfs_plus: D,
        text: "rule SCM-RNG1: ?p rdfs:range ?c1, ?c1 rdfs:subClassOf ?c2 => ?p rdfs:range ?c2 .",
    },
    RuleInfo {
        id: RuleId::ScmRng2,
        name: "SCM-RNG2",
        rdfs: D,
        rho_df: D,
        rdfs_plus: D,
        text: "rule SCM-RNG2: ?p2 rdfs:range ?c, ?p1 rdfs:subPropertyOf ?p2 => ?p1 rdfs:range ?c .",
    },
    RuleInfo {
        id: RuleId::ScmSco,
        name: "SCM-SCO",
        rdfs: D,
        rho_df: D,
        rdfs_plus: D,
        text:
            "rule SCM-SCO: ?c1 rdfs:subClassOf ?c2, ?c2 rdfs:subClassOf ?c3 => ?c1 rdfs:subClassOf ?c3 .",
    },
    RuleInfo {
        id: RuleId::ScmSpo,
        name: "SCM-SPO",
        rdfs: D,
        rho_df: D,
        rdfs_plus: D,
        text:
            "rule SCM-SPO: ?p1 rdfs:subPropertyOf ?p2, ?p2 rdfs:subPropertyOf ?p3 => ?p1 rdfs:subPropertyOf ?p3 .",
    },
    RuleInfo {
        id: RuleId::ScmCls,
        name: "SCM-CLS",
        rdfs: N,
        rho_df: N,
        rdfs_plus: F,
        text:
            "rule SCM-CLS: ?c a owl:Class => ?c rdfs:subClassOf ?c, ?c owl:equivalentClass ?c, ?c rdfs:subClassOf owl:Thing, owl:Nothing rdfs:subClassOf ?c .",
    },
    RuleInfo {
        id: RuleId::ScmDp,
        name: "SCM-DP",
        rdfs: N,
        rho_df: N,
        rdfs_plus: F,
        text:
            "rule SCM-DP: ?p a owl:DatatypeProperty => ?p rdfs:subPropertyOf ?p, ?p owl:equivalentProperty ?p .",
    },
    RuleInfo {
        id: RuleId::ScmOp,
        name: "SCM-OP",
        rdfs: N,
        rho_df: N,
        rdfs_plus: F,
        text:
            "rule SCM-OP: ?p a owl:ObjectProperty => ?p rdfs:subPropertyOf ?p, ?p owl:equivalentProperty ?p .",
    },
    RuleInfo {
        id: RuleId::Rdfs4,
        name: "RDFS4",
        rdfs: F,
        rho_df: F,
        rdfs_plus: F,
        text: "rule RDFS4: ?x ?p ?y => ?x a rdfs:Resource, ?y a rdfs:Resource .",
    },
    RuleInfo {
        id: RuleId::Rdfs8,
        name: "RDFS8",
        rdfs: F,
        rho_df: N,
        rdfs_plus: N,
        text: "rule RDFS8: ?x a rdfs:Class => ?x rdfs:subClassOf rdfs:Resource .",
    },
    RuleInfo {
        id: RuleId::Rdfs12,
        name: "RDFS12",
        rdfs: F,
        rho_df: N,
        rdfs_plus: N,
        text:
            "rule RDFS12: ?x a rdfs:ContainerMembershipProperty => ?x rdfs:subPropertyOf rdfs:member .",
    },
    RuleInfo {
        id: RuleId::Rdfs13,
        name: "RDFS13",
        rdfs: F,
        rho_df: N,
        rdfs_plus: N,
        text: "rule RDFS13: ?x a rdfs:Datatype => ?x rdfs:subClassOf rdfs:Literal .",
    },
    RuleInfo {
        id: RuleId::Rdfs6,
        name: "RDFS6",
        rdfs: F,
        rho_df: N,
        rdfs_plus: N,
        text: "rule RDFS6: ?x a rdf:Property => ?x rdfs:subPropertyOf ?x .",
    },
    RuleInfo {
        id: RuleId::Rdfs10,
        name: "RDFS10",
        rdfs: F,
        rho_df: N,
        rdfs_plus: N,
        text: "rule RDFS10: ?x a rdfs:Class => ?x rdfs:subClassOf ?x .",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_is_indexed_by_rule_id() {
        for (i, rule) in RuleId::ALL.iter().enumerate() {
            assert_eq!(*rule as usize, i);
            assert_eq!(CATALOG[i].id, *rule);
            assert_eq!(rule.info().name, rule.name());
        }
    }

    #[test]
    fn names_are_unique_and_every_text_declares_its_name() {
        let names: HashSet<&str> = CATALOG.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 38);
        for info in CATALOG.iter() {
            assert!(
                info.text.starts_with(&format!("rule {}:", info.name)),
                "{} text must declare the catalog name",
                info.name
            );
        }
    }

    #[test]
    fn fragment_sizes_match_table5() {
        // Filled circles per column of Table 5.
        let rdfs_default = CATALOG.iter().filter(|r| r.rdfs.in_default()).count();
        let rho_default = CATALOG.iter().filter(|r| r.rho_df.in_default()).count();
        let plus_default = CATALOG.iter().filter(|r| r.rdfs_plus.in_default()).count();
        assert_eq!(rdfs_default, 10, "RDFS default rules");
        assert_eq!(rho_default, 8, "ρDF default rules");
        assert_eq!(plus_default, 29, "RDFS-Plus default rules");
        // Full versions add the half-circle rules.
        let rdfs_full = CATALOG.iter().filter(|r| r.rdfs.in_full()).count();
        let rho_full = CATALOG.iter().filter(|r| r.rho_df.in_full()).count();
        let plus_full = CATALOG.iter().filter(|r| r.rdfs_plus.in_full()).count();
        assert_eq!(rdfs_full, 16);
        assert_eq!(rho_full, 9);
        assert_eq!(plus_full, 33);
    }

    #[test]
    fn every_rdfs_rule_is_in_rdfs_plus_except_the_legacy_axiomatic_ones() {
        for info in CATALOG.iter() {
            if info.rdfs.in_default() {
                assert!(
                    info.rdfs_plus.in_default(),
                    "{} is a default RDFS rule but not an RDFS-Plus rule",
                    info.name
                );
            }
        }
    }

    #[test]
    fn rho_df_is_a_subset_of_rdfs() {
        for info in CATALOG.iter() {
            if info.rho_df.in_default() {
                assert!(info.rdfs.in_default(), "{} in ρDF but not RDFS", info.name);
            }
        }
    }

    #[test]
    fn display_of_rules() {
        assert_eq!(RuleId::CaxSco.to_string(), "CAX-SCO");
    }
}
