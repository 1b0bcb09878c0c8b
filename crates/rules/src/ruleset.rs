//! Rulesets: the RDFS / ρDF / RDFS-Plus fragments in their default and full
//! flavours.
//!
//! "Systems usually perform incomplete RDFS reasoning and consider only rules
//! whose antecedents are made of two-way joins … single-antecedent rules
//! derive triples that do not convey interesting knowledge" (§1). The
//! benchmark therefore distinguishes, per fragment, a *default* version
//! (filled circles of Table 5) from a *full* version that adds the
//! half-circle rules.

use crate::analysis::{
    closure, compiled_builtin, stratum, Closure, CompiledRule, CompiledRuleset, Elision,
};
use crate::catalog::{Membership, RuleId, CATALOG};
use inferray_store::TripleStore;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// The inference fragments evaluated in the paper (§6, "Rulesets").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fragment {
    /// ρDF — the minimal meaningful subset of RDFS.
    RhoDf,
    /// RDFS, default flavour (meaningful rules only).
    RdfsDefault,
    /// RDFS, full flavour (adds the axiomatic RDFS4/6/8/10/12/13 rules).
    RdfsFull,
    /// RDFS-Plus, default flavour.
    RdfsPlus,
    /// RDFS-Plus, full flavour (adds SCM-CLS / SCM-DP / SCM-OP / RDFS4).
    RdfsPlusFull,
}

impl Fragment {
    /// All fragments, in benchmark order.
    pub const ALL: [Fragment; 5] = [
        Fragment::RhoDf,
        Fragment::RdfsDefault,
        Fragment::RdfsFull,
        Fragment::RdfsPlus,
        Fragment::RdfsPlusFull,
    ];

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Fragment::RhoDf => "rho-df",
            Fragment::RdfsDefault => "RDFS-default",
            Fragment::RdfsFull => "RDFS-Full",
            Fragment::RdfsPlus => "RDFS-Plus",
            Fragment::RdfsPlusFull => "RDFS-Plus-Full",
        }
    }

    /// The membership column of Table 5 relevant to this fragment, and
    /// whether the full flavour is requested.
    fn membership(self, rule: RuleId) -> (Membership, bool) {
        let info = rule.info();
        match self {
            Fragment::RhoDf => (info.rho_df, false),
            Fragment::RdfsDefault => (info.rdfs, false),
            Fragment::RdfsFull => (info.rdfs, true),
            Fragment::RdfsPlus => (info.rdfs_plus, false),
            Fragment::RdfsPlusFull => (info.rdfs_plus, true),
        }
    }

    /// `true` when `rule` belongs to this fragment.
    pub fn includes(self, rule: RuleId) -> bool {
        let (membership, full) = self.membership(rule);
        if full {
            membership.in_full()
        } else {
            membership.in_default()
        }
    }
}

impl std::fmt::Display for Fragment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete, ordered set of rules to execute. Every scheduling decision
/// (§4.3) reads a member's compiled text through [`Ruleset::compiled`],
/// built-in or custom alike: which rules must re-fire when given tables
/// received new pairs, and which can write a table that lost pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ruleset {
    /// The fragment this ruleset realizes.
    pub fragment: Fragment,
    rules: Vec<RuleId>,
    /// Analyzer-compiled rules with no built-in equivalent, in file order.
    /// They run through the generic semi-naive executor and are scheduled /
    /// rederived through their derived signatures.
    custom: Vec<CompiledRule>,
    /// The schema stratum (`analysis/stratum.rs`), in [`Ruleset::all_refs`]
    /// order.
    stratum: Vec<RuleRef>,
    /// The tables the stratum reads and writes, ascending.
    stratum_tables: Vec<u64>,
    /// The firings the elision pass proved redundant while the stratum is
    /// closed.
    elisions: Vec<Elision>,
    /// The members of the closure shape, with their plans, in
    /// [`Ruleset::all_refs`] order.
    closures: Vec<(RuleRef, Closure)>,
    /// The tables named by a constant predicate in a member's body,
    /// ascending ([`Ruleset::object_reads`]).
    object_reads: Vec<u64>,
}

/// A reference to one rule of a [`Ruleset`]: a catalog built-in or an
/// analyzer-compiled custom rule (an index into
/// [`Ruleset::custom_rules`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleRef {
    /// A Table 5 rule, run through its catalog text ([`Ruleset::compiled`]).
    Builtin(RuleId),
    /// A custom rule, by position in [`Ruleset::custom_rules`].
    Custom(usize),
}

impl std::fmt::Display for RuleRef {
    /// The paper's name of a built-in (`CAX-SCO`), `custom#i` for the
    /// `i`-th custom rule of the ruleset.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleRef::Builtin(id) => f.write_str(id.name()),
            RuleRef::Custom(i) => write!(f, "custom#{i}"),
        }
    }
}

/// The built-ins of `fragment`, in Table 5 order.
fn fragment_rules(fragment: Fragment) -> Vec<RuleId> {
    CATALOG
        .iter()
        .filter(|info| fragment.includes(info.id))
        .map(|info| info.id)
        .collect()
}

impl Ruleset {
    /// Builds the ruleset of a fragment from the catalog (analyzed once per
    /// process and fragment, on its first use, then cloned).
    pub fn for_fragment(fragment: Fragment) -> Self {
        static FRAGMENTS: [OnceLock<Ruleset>; Fragment::ALL.len()] =
            [const { OnceLock::new() }; Fragment::ALL.len()];
        let index = Fragment::ALL
            .iter()
            .position(|&f| f == fragment)
            .expect("every fragment is listed");
        FRAGMENTS[index]
            .get_or_init(|| Self::new(fragment, fragment_rules(fragment), Vec::new()).analyzed())
            .clone()
    }

    /// Builds a ruleset from an analyzed + compiled rule file
    /// ([`crate::analysis`]). Rules recognized as catalog built-ins run as
    /// those built-ins (deduplicated, in Table 5 order); the
    /// rest become [`RuleRef::Custom`] rules in file order. When the
    /// built-ins are exactly a baked-in fragment and nothing else, the
    /// result *is* that fragment's ruleset.
    pub fn from_analyzed(compiled: &CompiledRuleset) -> Self {
        let mut builtins: Vec<RuleId> = Vec::new();
        let mut custom: Vec<CompiledRule> = Vec::new();
        for (i, rule) in compiled.rules.iter().enumerate() {
            match compiled.builtin_of(i) {
                Some(id) => {
                    if !builtins.contains(&id) {
                        builtins.push(id);
                    }
                }
                None => custom.push(rule.clone()),
            }
        }
        builtins.sort_by_key(|&r| r as usize);
        for (i, rule) in custom.iter().enumerate() {
            assert!(
                custom[..i].iter().all(|earlier| earlier.name != rule.name),
                "duplicate rule name `{}` in ruleset",
                rule.name
            );
        }
        if custom.is_empty() {
            if let Some(fragment) = Fragment::ALL
                .into_iter()
                .find(|&f| fragment_rules(f) == builtins)
            {
                return Self::for_fragment(fragment);
            }
        }
        // The nominal fragment only labels the ruleset; every scheduling
        // decision, and the closure stage, flows from the member rules.
        Self::new(Fragment::RdfsDefault, builtins, custom).analyzed()
    }

    /// Derives the schema stratum, its tables and the elision relation from
    /// the member rules' texts.
    fn analyzed(mut self) -> Self {
        let members: Vec<stratum::Member<'_>> = self
            .all_refs()
            .into_iter()
            .map(|rule| (rule, self.compiled(rule)))
            .collect();
        let rules = stratum::schema_stratum(&members);
        let tables = stratum::stratum_tables(&members, &rules);
        let elisions = stratum::elisions(&members, &rules);
        (self.stratum, self.stratum_tables, self.elisions) = (rules, tables, elisions);
        self
    }

    /// The schema stratum alone, as a ruleset of its own: what the reasoner
    /// runs to a fixed point before the data loop. Not analyzed again — it
    /// has no stratum below it.
    pub fn stratum_ruleset(&self) -> Ruleset {
        let builtins = self
            .stratum
            .iter()
            .filter_map(|rule| match rule {
                RuleRef::Builtin(id) => Some(*id),
                RuleRef::Custom(_) => None,
            })
            .collect();
        let custom = self
            .stratum
            .iter()
            .filter_map(|rule| match rule {
                RuleRef::Custom(i) => Some(self.custom[*i].clone()),
                RuleRef::Builtin(_) => None,
            })
            .collect();
        Self::new(self.fragment, builtins, custom)
    }

    /// A ruleset of `rules` (distinct, in Table 5 order) and `custom`, with
    /// its closures and object reads, not analyzed yet.
    fn new(fragment: Fragment, rules: Vec<RuleId>, custom: Vec<CompiledRule>) -> Self {
        let mut ruleset = Ruleset {
            fragment,
            rules,
            custom,
            stratum: Vec::new(),
            stratum_tables: Vec::new(),
            elisions: Vec::new(),
            closures: Vec::new(),
            object_reads: Vec::new(),
        };
        let members = ruleset.all_refs();
        ruleset.closures = members
            .iter()
            .filter_map(|&rule| Some((rule, closure(ruleset.compiled(rule))?)))
            .collect();
        let reads: BTreeSet<u64> = members
            .iter()
            .flat_map(|&rule| ruleset.compiled(rule).body.iter())
            .filter_map(|atom| atom.p.as_const())
            .collect();
        ruleset.object_reads = reads.into_iter().collect();
        ruleset
    }

    /// The compiled text of a member: a built-in's catalog text
    /// (`compiled_builtin`) or a custom rule. Its signatures decide every
    /// schedule, rederivation seed, stratum and elision.
    pub fn compiled(&self, rule: RuleRef) -> &CompiledRule {
        match rule {
            RuleRef::Builtin(id) => compiled_builtin(id),
            RuleRef::Custom(i) => &self.custom[i],
        }
    }

    /// The built-in member rules, in Table 5 order.
    pub fn rules(&self) -> &[RuleId] {
        &self.rules
    }

    /// The analyzer-compiled custom rules, in file order.
    pub fn custom_rules(&self) -> &[CompiledRule] {
        &self.custom
    }

    /// The schema stratum: the member rules whose fixed input and output
    /// tables no rule outside the set writes through a fixed output, in
    /// [`Ruleset::all_refs`] order (docs/rule-scheduling.md).
    pub fn stratum(&self) -> &[RuleRef] {
        &self.stratum
    }

    /// The tables the schema stratum reads and writes, ascending.
    pub fn stratum_tables(&self) -> &[u64] {
        &self.stratum_tables
    }

    /// The firings `consumer∘producer` proven redundant while the stratum is
    /// closed, with the rule that witnesses each.
    pub fn elisions(&self) -> &[Elision] {
        &self.elisions
    }

    /// Number of rules, built-in and custom.
    pub fn len(&self) -> usize {
        self.rules.len() + self.custom.len()
    }

    /// `true` when the ruleset is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.custom.is_empty()
    }

    /// `true` when the ruleset contains `rule`.
    pub fn contains(&self, rule: RuleId) -> bool {
        self.rules.contains(&rule)
    }

    /// The members whose text has the closure shape (θ), built-in or
    /// custom, each with the tables it closes
    /// ([`crate::analysis::Lowering::Closure`]): what the closure stage
    /// closes before the loop and what a retraction dumps.
    pub fn closures(&self) -> &[(RuleRef, Closure)] {
        &self.closures
    }

    /// The tables a join of the program may read by object whatever the
    /// data, ascending: the one named by the constant predicate of each
    /// body atom of each member. Under the built-in fragments they are
    /// vocabulary tables only. A dataset builds their ⟨o,s⟩ caches before
    /// it publishes (`StoreSnapshot::prepare`); a table reached through a
    /// variable predicate — the data table of a declared
    /// inverse-functional property, say — is built by the first reader
    /// that needs it.
    pub fn object_reads(&self) -> &[u64] {
        &self.object_reads
    }

    /// `true` when member `rule` is a closure.
    pub fn closes(&self, rule: RuleRef) -> bool {
        self.closures.iter().any(|&(member, _)| member == rule)
    }

    /// Every rule of the ruleset: built-ins in Table 5 order, then the
    /// custom rules in file order.
    pub fn all_refs(&self) -> Vec<RuleRef> {
        self.rules
            .iter()
            .map(|&id| RuleRef::Builtin(id))
            .chain((0..self.custom.len()).map(RuleRef::Custom))
            .collect()
    }

    /// The rules a first iteration over the whole store fires: all of
    /// them, less the closures when `theta_closed` (the closure stage
    /// closed their tables) and less the schema stratum when
    /// `stratum_closed` (its own pass ran it to a fixed point).
    pub fn whole_store_refs(&self, theta_closed: bool, stratum_closed: bool) -> Vec<RuleRef> {
        self.all_refs()
            .into_iter()
            .filter(|&rule| {
                let closed = (theta_closed && self.closes(rule))
                    || (stratum_closed && self.stratum.contains(&rule));
                !closed
            })
            .collect()
    }

    /// The member rules that can derive something new given that exactly
    /// the tables of `new` received new pairs in the previous iteration
    /// (`new ⊆ main`): built-ins in Table 5 order, then custom rules.
    ///
    /// This is the §4.3 scheduling decision: a rule whose input tables are
    /// all unchanged sees the same `main` projection it saw when it last
    /// fired and an empty `new` projection, so re-firing it can only
    /// reproduce duplicates. A fixed signature is a set lookup; the dynamic
    /// ones are evaluated against the stores — the data tables a γ/δ rule
    /// reads are the ones its (small) schema table names, and the tables the
    /// functional/symmetric/transitive rules read are the ones declared with
    /// the marker class.
    pub fn scheduled_refs(&self, main: &TripleStore, new: &TripleStore) -> Vec<RuleRef> {
        let changed: BTreeSet<u64> = new.property_ids().collect();
        self.all_refs()
            .into_iter()
            .filter(|&rule| self.compiled(rule).inputs.changed(main, new, &changed))
            .collect()
    }

    /// [`Ruleset::scheduled_refs`] less every rule `C` whose changed input
    /// tables were all fed only by producers `P` with `C∘P` in
    /// [`Ruleset::elisions`]. `fed_by` maps each table of `new` to the rules
    /// that emitted into it. Sound only while the stratum's tables are
    /// closed — the caller's to know.
    pub fn scheduled_refs_elided(
        &self,
        main: &TripleStore,
        new: &TripleStore,
        fed_by: &BTreeMap<u64, Vec<RuleRef>>,
    ) -> Vec<RuleRef> {
        let changed: BTreeSet<u64> = new.property_ids().collect();
        let proven = |consumer: RuleRef, producer: RuleRef| {
            self.elisions
                .iter()
                .any(|e| e.consumer == consumer && e.producer == producer)
        };
        self.scheduled_refs(main, new)
            .into_iter()
            .filter(|&rule| {
                let reads = self.compiled(rule).inputs.changed_tables(main, &changed);
                let elided = !reads.is_empty()
                    && reads.iter().all(|table| {
                        fed_by.get(table).is_some_and(|producers| {
                            producers.iter().all(|&producer| proven(rule, producer))
                        })
                    });
                !elided
            })
            .collect()
    }

    /// The member rules whose heads can **write** one of the `deleted`
    /// property tables, given the current store, in [`Ruleset::all_refs`]
    /// order — the rederivation seed of the delete–rederive maintenance path
    /// (docs/maintenance.md).
    ///
    /// After over-deletion, only the tables that lost pairs can be missing
    /// entailed triples, so the first rederive iteration needs exactly the
    /// rules whose output signature reaches one of those tables; every rule
    /// a multi-step rederivation needs beyond that is picked up by the
    /// ordinary input-driven scheduling of the following iterations (the
    /// intermediate triples it consumes are themselves missing, hence also
    /// in a deleted table).
    pub fn rederive_refs(&self, main: &TripleStore, deleted: &BTreeSet<u64>) -> Vec<RuleRef> {
        if deleted.is_empty() {
            return Vec::new();
        }
        self.all_refs()
            .into_iter()
            .filter(|&rule| self.compiled(rule).outputs.may_write(main, deleted))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferray_dictionary::wellknown as wk;

    #[test]
    fn fragment_sizes() {
        assert_eq!(Ruleset::for_fragment(Fragment::RhoDf).len(), 8);
        assert_eq!(Ruleset::for_fragment(Fragment::RdfsDefault).len(), 10);
        assert_eq!(Ruleset::for_fragment(Fragment::RdfsFull).len(), 16);
        assert_eq!(Ruleset::for_fragment(Fragment::RdfsPlus).len(), 29);
        assert_eq!(Ruleset::for_fragment(Fragment::RdfsPlusFull).len(), 33);
    }

    #[test]
    fn rho_df_contains_exactly_the_paper_rules() {
        let ruleset = Ruleset::for_fragment(Fragment::RhoDf);
        let expected = [
            RuleId::CaxSco,
            RuleId::PrpDom,
            RuleId::PrpRng,
            RuleId::PrpSpo1,
            RuleId::ScmDom2,
            RuleId::ScmRng2,
            RuleId::ScmSco,
            RuleId::ScmSpo,
        ];
        assert_eq!(ruleset.rules(), &expected);
    }

    #[test]
    fn rdfs_full_adds_only_axiomatic_rules() {
        let default: std::collections::HashSet<_> = Ruleset::for_fragment(Fragment::RdfsDefault)
            .rules()
            .to_vec()
            .into_iter()
            .collect();
        let full: std::collections::HashSet<_> = Ruleset::for_fragment(Fragment::RdfsFull)
            .rules()
            .to_vec()
            .into_iter()
            .collect();
        let extra: Vec<_> = full.difference(&default).collect();
        assert_eq!(extra.len(), 6);
        for rule in [
            RuleId::Rdfs4,
            RuleId::Rdfs6,
            RuleId::Rdfs8,
            RuleId::Rdfs10,
            RuleId::Rdfs12,
            RuleId::Rdfs13,
        ] {
            assert!(full.contains(&rule));
            assert!(!default.contains(&rule));
        }
    }

    #[test]
    fn theta_rules_are_separated_from_fixed_point_rules() {
        let ruleset = Ruleset::for_fragment(Fragment::RdfsPlus);
        let theta: Vec<RuleRef> = ruleset.closures().iter().map(|&(rule, _)| rule).collect();
        assert_eq!(
            theta,
            [
                RuleId::EqTrans,
                RuleId::PrpTrp,
                RuleId::ScmSco,
                RuleId::ScmSpo
            ]
            .map(RuleRef::Builtin)
        );
        assert!(theta.iter().all(|&rule| ruleset.closes(rule)));
        let fp = ruleset.whole_store_refs(true, false);
        assert_eq!(fp.len() + theta.len(), ruleset.len());
        assert!(!fp.contains(&RuleRef::Builtin(RuleId::ScmSco)));
        // With the stratum closed too, iteration 1 fires the data rules only.
        let data = ruleset.whole_store_refs(true, true);
        assert!(!data.contains(&RuleRef::Builtin(RuleId::ScmDom1)));
        assert!(data.contains(&RuleRef::Builtin(RuleId::CaxSco)));
    }

    #[test]
    fn rdfs_fragments_never_include_owl_rules() {
        for fragment in [Fragment::RhoDf, Fragment::RdfsDefault, Fragment::RdfsFull] {
            let ruleset = Ruleset::for_fragment(fragment);
            assert!(!ruleset.contains(RuleId::CaxEqc1));
            assert!(!ruleset.contains(RuleId::PrpTrp));
            assert!(!ruleset.contains(RuleId::EqSym));
        }
    }

    use inferray_model::ids::nth_property_id;
    use inferray_model::IdTriple;

    fn store(triples: &[(u64, u64, u64)]) -> TripleStore {
        TripleStore::from_triples(triples.iter().map(|&(s, p, o)| IdTriple::new(s, p, o)))
    }

    /// The built-ins among `refs` (a fragment has no custom rules).
    fn builtins(refs: Vec<RuleRef>) -> Vec<RuleId> {
        refs.into_iter()
            .map(|rule| match rule {
                RuleRef::Builtin(id) => id,
                RuleRef::Custom(_) => unreachable!("fragments have no custom rules"),
            })
            .collect()
    }

    #[test]
    fn dependency_index_schedules_only_affected_rules() {
        let ruleset = Ruleset::for_fragment(Fragment::RdfsDefault);
        let knows = nth_property_id(900);
        let person = 9_800_000u64;
        let main = store(&[
            (knows, wk::RDFS_DOMAIN, person),
            (person, wk::RDFS_SUB_CLASS_OF, person + 1),
            (person + 10, knows, person + 11),
            (person + 10, wk::RDF_TYPE, person),
        ]);
        // Only rdf:type changed: the schema rules must not fire again —
        // CAX-SCO (reads rdf:type) must; the γ rules must not either, since
        // rdf:type is not a data property named by any domain/range/
        // subPropertyOf pair.
        let new = store(&[(person + 10, wk::RDF_TYPE, person)]);
        let scheduled = builtins(ruleset.scheduled_refs(&main, &new));
        assert_eq!(scheduled, vec![RuleId::CaxSco]);
        // A data property named by a domain pair changed: PRP-DOM comes
        // back (and only it — `knows` has no range/subPropertyOf pair).
        let new = store(&[(person + 12, knows, person + 13)]);
        let scheduled = builtins(ruleset.scheduled_refs(&main, &new));
        assert_eq!(scheduled, vec![RuleId::PrpDom]);
        // subClassOf changed: the schema rules reading it come back.
        let new = store(&[(person, wk::RDFS_SUB_CLASS_OF, person + 1)]);
        let scheduled = builtins(ruleset.scheduled_refs(&main, &new));
        assert!(scheduled.contains(&RuleId::CaxSco));
        assert!(scheduled.contains(&RuleId::ScmSco));
        assert!(scheduled.contains(&RuleId::ScmDom1));
        assert!(!scheduled.contains(&RuleId::ScmDom2));
        assert!(!scheduled.contains(&RuleId::ScmSpo));
    }

    #[test]
    fn marked_property_rules_follow_declarations() {
        let ruleset = Ruleset::for_fragment(Fragment::RdfsPlus);
        let part_of = nth_property_id(901);
        let other = nth_property_id(902);
        let a = 9_810_000u64;
        let main = store(&[
            (part_of, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            (a, part_of, a + 1),
            (a, other, a + 2),
        ]);
        // New pairs on the declared transitive property: PRP-TRP fires.
        let new = store(&[(a, part_of, a + 1)]);
        assert!(ruleset
            .scheduled_refs(&main, &new)
            .contains(&RuleRef::Builtin(RuleId::PrpTrp)));
        // New pairs on an undeclared property: PRP-TRP is skipped.
        let new = store(&[(a, other, a + 2)]);
        assert!(!ruleset
            .scheduled_refs(&main, &new)
            .contains(&RuleRef::Builtin(RuleId::PrpTrp)));
        // A new declaration alone re-fires the rule even though the data
        // table is old.
        let new = store(&[(other, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY)]);
        assert!(ruleset
            .scheduled_refs(&main, &new)
            .contains(&RuleRef::Builtin(RuleId::PrpTrp)));
    }

    #[test]
    fn same_as_scans_fire_only_while_same_as_pairs_exist() {
        let ruleset = Ruleset::for_fragment(Fragment::RdfsPlus);
        let knows = nth_property_id(903);
        let a = 9_820_000u64;
        let without_same_as = store(&[(a, knows, a + 1)]);
        let new = store(&[(a, knows, a + 1)]);
        let scheduled = builtins(ruleset.scheduled_refs(&without_same_as, &new));
        assert!(!scheduled.contains(&RuleId::EqRepS));
        assert!(!scheduled.contains(&RuleId::EqRepO));
        let with_same_as = store(&[(a, knows, a + 1), (a, wk::OWL_SAME_AS, a + 2)]);
        let scheduled = builtins(ruleset.scheduled_refs(&with_same_as, &new));
        assert!(scheduled.contains(&RuleId::EqRepS));
        assert!(scheduled.contains(&RuleId::EqRepO));
    }

    #[test]
    fn scheduled_refs_preserve_table5_order_and_membership() {
        let ruleset = Ruleset::for_fragment(Fragment::RdfsPlus);
        let p = nth_property_id(904);
        let c = 9_830_000u64;
        // A change in every fixed schema table plus marked declarations:
        // the schedule is the full ruleset, in the same order.
        let everything = store(&[
            (c, wk::RDF_TYPE, c + 1),
            (c, wk::RDFS_SUB_CLASS_OF, c + 1),
            (p, wk::RDFS_SUB_PROPERTY_OF, p),
            (p, wk::RDFS_DOMAIN, c),
            (p, wk::RDFS_RANGE, c),
            (c, wk::OWL_SAME_AS, c + 2),
            (c, wk::OWL_EQUIVALENT_CLASS, c + 3),
            (p, wk::OWL_EQUIVALENT_PROPERTY, p),
            (p, wk::OWL_INVERSE_OF, p),
            (p, wk::RDF_TYPE, wk::OWL_FUNCTIONAL_PROPERTY),
            (p, wk::RDF_TYPE, wk::OWL_INVERSE_FUNCTIONAL_PROPERTY),
            (p, wk::RDF_TYPE, wk::OWL_SYMMETRIC_PROPERTY),
            (p, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
        ]);
        let scheduled = builtins(ruleset.scheduled_refs(&everything, &everything.clone()));
        assert_eq!(scheduled, ruleset.rules());
        // Nothing changed (empty `new`): nothing is scheduled except the
        // sameAs scans (a sameAs table exists in main).
        let empty = TripleStore::new();
        let minimal = builtins(ruleset.scheduled_refs(&everything, &empty));
        assert_eq!(minimal, vec![RuleId::EqRepO, RuleId::EqRepS]);
        // A rule outside the ruleset is never scheduled even if its input
        // changed.
        let rho = Ruleset::for_fragment(Fragment::RhoDf);
        let same_as = store(&[(c, wk::OWL_SAME_AS, c + 2)]);
        let scheduled = builtins(rho.scheduled_refs(&same_as, &same_as.clone()));
        assert!(!scheduled.contains(&RuleId::EqSym));
    }

    #[test]
    fn rederive_refs_follow_output_signatures() {
        let ruleset = Ruleset::for_fragment(Fragment::RdfsDefault);
        let knows = nth_property_id(905);
        let person = 9_840_000u64;
        let main = store(&[
            (knows, wk::RDFS_DOMAIN, person),
            (person, wk::RDFS_SUB_CLASS_OF, person + 1),
            (person + 10, knows, person + 11),
        ]);
        // rdf:type pairs were deleted: exactly the rules that can write the
        // rdf:type table come back — CAX-SCO, PRP-DOM and PRP-RNG, nothing
        // that writes only schema tables.
        let deleted: BTreeSet<u64> = [wk::RDF_TYPE].into_iter().collect();
        let scheduled = builtins(ruleset.rederive_refs(&main, &deleted));
        assert_eq!(
            scheduled,
            vec![RuleId::CaxSco, RuleId::PrpDom, RuleId::PrpRng]
        );
        // subClassOf pairs were deleted: the subClassOf writers come back.
        let deleted: BTreeSet<u64> = [wk::RDFS_SUB_CLASS_OF].into_iter().collect();
        let scheduled = builtins(ruleset.rederive_refs(&main, &deleted));
        assert_eq!(scheduled, vec![RuleId::ScmSco]);
        // A data property named by a domain pair lost pairs: only the γ/δ
        // rules whose *output* is named by a surviving schema pair fire —
        // `knows` appears as an object of no subPropertyOf pair, so even
        // PRP-SPO1 stays off.
        let deleted: BTreeSet<u64> = [knows].into_iter().collect();
        assert!(builtins(ruleset.rederive_refs(&main, &deleted)).is_empty());
        // Unless a schema pair names it as an output.
        let with_spo = store(&[
            (knows, wk::RDFS_DOMAIN, person),
            (nth_property_id(906), wk::RDFS_SUB_PROPERTY_OF, knows),
        ]);
        assert_eq!(
            with_spo.table(wk::RDFS_SUB_PROPERTY_OF).unwrap().len(),
            1,
            "schema pair present"
        );
        assert_eq!(
            builtins(ruleset.rederive_refs(&with_spo, &deleted)),
            vec![RuleId::PrpSpo1]
        );
        // Nothing deleted: nothing to rederive.
        assert!(builtins(ruleset.rederive_refs(&main, &BTreeSet::new())).is_empty());
    }

    #[test]
    fn rederive_refs_handle_markers_and_any_property_outputs() {
        let ruleset = Ruleset::for_fragment(Fragment::RdfsPlus);
        let part_of = nth_property_id(907);
        let a = 9_850_000u64;
        let main = store(&[
            (part_of, wk::RDF_TYPE, wk::OWL_TRANSITIVE_PROPERTY),
            (a, part_of, a + 1),
        ]);
        // The declared transitive property lost pairs: PRP-TRP can rewrite
        // it; the sameAs replacement rules can write *any* table, so they
        // are always part of the seed.
        let deleted: BTreeSet<u64> = [part_of].into_iter().collect();
        let scheduled = builtins(ruleset.rederive_refs(&main, &deleted));
        assert!(scheduled.contains(&RuleId::PrpTrp));
        assert!(scheduled.contains(&RuleId::EqRepO));
        assert!(scheduled.contains(&RuleId::EqRepS));
        assert!(!scheduled.contains(&RuleId::CaxSco));
        assert!(
            !scheduled.contains(&RuleId::PrpSymp),
            "not declared symmetric"
        );
        // sameAs pairs lost: every rule with a fixed owl:sameAs output.
        let deleted: BTreeSet<u64> = [wk::OWL_SAME_AS].into_iter().collect();
        let scheduled = builtins(ruleset.rederive_refs(&main, &deleted));
        for rule in [
            RuleId::EqSym,
            RuleId::EqTrans,
            RuleId::PrpFp,
            RuleId::PrpIfp,
        ] {
            assert!(scheduled.contains(&rule), "{rule} writes owl:sameAs");
        }
    }

    #[test]
    fn object_reads_are_the_constant_body_predicates() {
        let plus = Ruleset::for_fragment(Fragment::RdfsPlus);
        let reads = plus.object_reads();
        assert!(reads.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
        for table in [
            wk::RDF_TYPE,
            wk::OWL_SAME_AS,
            wk::RDFS_SUB_CLASS_OF,
            wk::RDFS_SUB_PROPERTY_OF,
            wk::OWL_EQUIVALENT_CLASS,
            wk::RDFS_DOMAIN,
            wk::RDFS_RANGE,
            wk::OWL_INVERSE_OF,
        ] {
            assert!(reads.contains(&table), "{table} is read by a body atom");
        }
        // ρDF reads no OWL table.
        let rho = Ruleset::for_fragment(Fragment::RhoDf);
        assert!(!rho.object_reads().contains(&wk::OWL_SAME_AS));
        // A custom rule reads the data table its body names, and no other.
        let mut dictionary = inferray_dictionary::Dictionary::new();
        let custom = crate::analysis::load_ruleset(
            "rule r: ?x <http://ex/parent> ?y => ?y <http://ex/child> ?x .\n",
            &mut dictionary,
        )
        .expect("loads");
        let parent = dictionary.id_of_iri("http://ex/parent").expect("interned");
        assert_eq!(custom.object_reads(), [parent]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Fragment::RhoDf.to_string(), "rho-df");
        assert_eq!(Fragment::RdfsPlus.to_string(), "RDFS-Plus");
    }
}
