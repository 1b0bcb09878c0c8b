//! Everything the program under test is fed, generated from `--seed`: the
//! dataset document, the SPARQL query mix and the update deltas. The
//! program sees only documents and requests; constants are drawn over the
//! whole generated identifier space, never from one hot key.

use inferray_core::Fragment;
use inferray_datasets::lubm::LUBM_NS;
use inferray_datasets::taxonomy::TAXO_NS;
use inferray_datasets::{yago_like, Dataset, LubmGenerator};
use inferray_model::{vocab, Term, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Dataset sizes. `full` is what `BENCHMARK.json` records; `quick` is the
/// smoke scale of the tests and is marked as such in every output.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub lubm_triples: usize,
    pub taxonomy_classes: usize,
    pub taxonomy_depth: usize,
    pub quick: bool,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            lubm_triples: 500_000,
            taxonomy_classes: 20_000,
            taxonomy_depth: 20,
            quick: false,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            lubm_triples: 6_000,
            taxonomy_classes: 400,
            taxonomy_depth: 8,
            quick: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// LUBM-like university data under RDFS-Plus (the paper's Table 3 shape).
    Lubm,
    /// Yago-like deep taxonomy under RDFS (the paper's Table 2/4 shape).
    Taxonomy,
}

impl DatasetKind {
    pub fn fragment(self) -> Fragment {
        match self {
            DatasetKind::Lubm => Fragment::RdfsPlus,
            DatasetKind::Taxonomy => Fragment::RdfsDefault,
        }
    }

    /// The `--fragment` spelling `inferray-cli` accepts.
    pub fn fragment_arg(self) -> &'static str {
        match self {
            DatasetKind::Lubm => "rdfs-plus",
            DatasetKind::Taxonomy => "rdfs",
        }
    }
}

/// The query classes of the read mix with their weights in percent.
pub const QUERY_CLASSES: [(&str, u32); 5] = [
    ("point-ask", 40),
    ("bound-object", 30),
    ("two-hop-join", 15),
    ("type-scan", 10),
    ("distinct-classes", 5),
];
pub const POINT_ASK: usize = 0;
pub const BOUND_OBJECT: usize = 1;

/// A generated dataset plus what the request generators need to know
/// about it: how many individuals of each named population exist.
pub struct Inputs {
    pub kind: DatasetKind,
    pub dataset: Dataset,
    /// The N-Triples document handed to the program.
    pub document: String,
    /// Population name (`Professor`, `Entity`, …) → number of individuals.
    population: BTreeMap<String, u64>,
}

impl Inputs {
    pub fn generate(kind: DatasetKind, scale: Scale, seed: u64) -> Inputs {
        let dataset = match kind {
            DatasetKind::Lubm => LubmGenerator::new(scale.lubm_triples)
                .with_seed(seed)
                .generate(),
            DatasetKind::Taxonomy => taxonomy(scale, seed),
        };
        let namespace = match kind {
            DatasetKind::Lubm => LUBM_NS,
            DatasetKind::Taxonomy => TAXO_NS,
        };
        let mut population = BTreeMap::new();
        for triple in &dataset.triples {
            for term in [&triple.subject, &triple.object] {
                if let Some((name, index)) = numbered_local_name(term, namespace) {
                    let count = population.entry(name.to_owned()).or_insert(0);
                    *count = (*count).max(index + 1);
                }
            }
        }
        let document = dataset.to_ntriples();
        Inputs {
            kind,
            dataset,
            document,
            population,
        }
    }

    /// The generator's name for the record.
    pub fn generator(&self) -> &'static str {
        match self.kind {
            DatasetKind::Lubm => "inferray_datasets::LubmGenerator",
            DatasetKind::Taxonomy => "inferray_datasets::yago_like, schema of a fixed draw",
        }
    }

    fn count(&self, name: &str) -> u64 {
        // A population the scale is too small to contain still has its
        // first member named in queries; they then match nothing.
        self.population.get(name).copied().unwrap_or(1)
    }

    fn pick(&self, rng: &mut StdRng, name: &str) -> u64 {
        rng.gen_range(0..self.count(name))
    }

    /// One seeded query of class `class` (an index into [`QUERY_CLASSES`]).
    pub fn query(&self, class: usize, rng: &mut StdRng) -> String {
        match self.kind {
            DatasetKind::Lubm => self.lubm_query(class, rng),
            DatasetKind::Taxonomy => self.taxonomy_query(class, rng),
        }
    }

    fn lubm_query(&self, class: usize, rng: &mut StdRng) -> String {
        let prefix = format!("PREFIX ub: <{LUBM_NS}> ");
        match class {
            POINT_ASK => {
                let who = if rng.gen_bool(0.5) {
                    "Professor"
                } else {
                    "Student"
                };
                let individual = self.pick(rng, who);
                let class = ["Person", "FacultyMember", "Student", "Organization"]
                    [rng.gen_range(0..4usize)];
                format!("{prefix}ASK {{ ub:{who}{individual} a ub:{class} }}")
            }
            BOUND_OBJECT => {
                // Properties no update delta touches, so a reader beside a
                // writer has one right answer per query.
                if rng.gen_bool(0.5) {
                    let course = self.pick(rng, "Course");
                    format!("{prefix}SELECT ?s WHERE {{ ?s ub:takesCourse ub:Course{course} }}")
                } else {
                    let professor = self.pick(rng, "Professor");
                    format!("{prefix}SELECT ?s WHERE {{ ?s ub:advisor ub:Professor{professor} }}")
                }
            }
            2 => {
                let university = self.pick(rng, "University");
                format!(
                    "{prefix}SELECT ?s ?d WHERE {{ ?s ub:worksFor ?d . \
                     ?d ub:subOrganizationOf ub:University{university} }}"
                )
            }
            3 => {
                let class = [
                    "Professor",
                    "FullProfessor",
                    "GraduateStudent",
                    "Department",
                    "Organization",
                    "Course",
                ][rng.gen_range(0..6usize)];
                format!("{prefix}SELECT ?x WHERE {{ ?x a ub:{class} }}")
            }
            _ => "SELECT DISTINCT ?c WHERE { ?x a ?c }".to_owned(),
        }
    }

    fn taxonomy_query(&self, class: usize, rng: &mut StdRng) -> String {
        let prefix = format!("PREFIX tx: <{TAXO_NS}> PREFIX rdfs: <{}> ", vocab::RDFS_NS);
        let classes = self.count("YagoClass");
        // Entities are typed with classes of the upper half of the index
        // space (the leaves); low indexes are the roots of deep chains.
        let leaf = |rng: &mut StdRng| rng.gen_range(classes / 2..classes.max(1));
        match class {
            POINT_ASK => {
                // Half asserted typings (true), half random pairs (mostly
                // false). The second half of the triples is instance data,
                // where every other triple is a typing.
                let triples = &self.dataset.triples;
                let asserted = (rng.gen_range(triples.len() / 2..triples.len())..triples.len())
                    .map(|i| &triples[i])
                    .find(|t| t.predicate == Term::iri(vocab::RDF_TYPE));
                match asserted {
                    Some(t) if rng.gen_bool(0.5) => {
                        format!("ASK {{ {} a {} }}", t.subject, t.object)
                    }
                    _ => {
                        let entity = self.pick(rng, "Entity");
                        let class = self.pick(rng, "YagoClass");
                        format!("{prefix}ASK {{ tx:Entity{entity} a tx:YagoClass{class} }}")
                    }
                }
            }
            BOUND_OBJECT => {
                let class = leaf(rng);
                format!("{prefix}SELECT ?s WHERE {{ ?s a tx:YagoClass{class} }}")
            }
            2 => {
                let class = leaf(rng);
                format!(
                    "{prefix}SELECT ?s ?c WHERE {{ ?c rdfs:subClassOf tx:YagoClass{class} . \
                     ?s a ?c }}"
                )
            }
            3 => {
                let root = rng.gen_range(0..(classes / 20).max(1));
                format!("{prefix}SELECT ?x WHERE {{ ?x a tx:YagoClass{root} }}")
            }
            _ => "SELECT DISTINCT ?c WHERE { ?x a ?c }".to_owned(),
        }
    }

    /// `size` triples to assert and then retract, as an N-Triples document.
    /// None of them is in the dataset, so the pair returns the store to its
    /// baseline; each makes domain/range and hierarchy rules fire.
    ///
    /// LUBM: existing students are given a `worksFor` (students have none):
    /// `memberOf` follows by sub-property, `Person` by domain — already
    /// entailed through `Student ⊑ Person`, so delete–rederive has a
    /// survivor to re-derive. Taxonomy: fresh entities typed with a leaf
    /// class, whose whole ancestor chain follows.
    pub fn delta(&self, size: usize, rng: &mut StdRng) -> String {
        let mut out = String::new();
        match self.kind {
            DatasetKind::Lubm => {
                let students = self.count("Student");
                // Distinct subjects: a stride walk from a seeded start.
                let start = rng.gen_range(0..students);
                let stride = (students / size as u64).max(1);
                for i in 0..size as u64 {
                    let student = (start + i * stride) % students;
                    let department = self.pick(rng, "Department");
                    out.push_str(&format!(
                        "<{LUBM_NS}Student{student}> <{LUBM_NS}worksFor> \
                         <{LUBM_NS}Department{department}> .\n"
                    ));
                }
            }
            DatasetKind::Taxonomy => {
                let classes = self.count("YagoClass");
                for i in 0..size {
                    let class = rng.gen_range(classes / 2..classes.max(1));
                    out.push_str(&format!(
                        "<{TAXO_NS}BenchEntity{i}> <{}> <{TAXO_NS}YagoClass{class}> .\n",
                        vocab::RDF_TYPE
                    ));
                }
            }
        }
        out
    }

    /// A triple no delta and no dataset contains: asserted last before the
    /// kill, it must be visible after every restart. Returns the N-Triples
    /// statement and the `ASK` that finds it.
    pub fn marker(&self, seed: u64) -> (String, String) {
        let (s, p, o) = match self.kind {
            DatasetKind::Lubm => (
                format!("{LUBM_NS}BenchMarker{seed}"),
                format!("{LUBM_NS}worksFor"),
                format!("{LUBM_NS}Department0"),
            ),
            DatasetKind::Taxonomy => (
                format!("{TAXO_NS}BenchMarker{seed}"),
                vocab::RDF_TYPE.to_owned(),
                format!("{TAXO_NS}YagoClass0"),
            ),
        };
        (
            format!("<{s}> <{p}> <{o}> .\n"),
            format!("ASK {{ <{s}> <{p}> <{o}> }}"),
        )
    }
}

/// The taxonomy workload's dataset: the class tree, property forest and
/// domains of one fixed draw of `yago_like`, under the typed entities and
/// facts of the seeded draw. A few top-level properties' random domains
/// decide a tenth of the closure's size, so with the schema seeded too the
/// work would differ between seeds by more than any regression bound; the
/// instance data is forty thousand independent draws and averages out.
fn taxonomy(scale: Scale, seed: u64) -> Dataset {
    const SCHEMA_SEED: u64 = 0x7A60;
    let is_schema = |t: &Triple| {
        [
            vocab::RDFS_SUB_CLASS_OF,
            vocab::RDFS_SUB_PROPERTY_OF,
            vocab::RDFS_DOMAIN,
        ]
        .iter()
        .any(|p| t.predicate == Term::iri(*p))
    };
    let schema = yago_like(scale.taxonomy_classes, scale.taxonomy_depth, SCHEMA_SEED);
    let instances = yago_like(scale.taxonomy_classes, scale.taxonomy_depth, seed);
    let mut triples: Vec<Triple> = schema.triples.into_iter().filter(is_schema).collect();
    triples.extend(instances.triples.into_iter().filter(|t| !is_schema(t)));
    Dataset::new(format!("Yago-like-{}", triples.len()), triples)
}

/// `Professor17` → `("Professor", 17)` for an IRI in `namespace`.
fn numbered_local_name<'a>(term: &'a Term, namespace: &str) -> Option<(&'a str, u64)> {
    let Term::Iri(iri) = term else { return None };
    let local = iri.strip_prefix(namespace)?;
    let digits = local.len() - local.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 || digits == local.len() {
        return None;
    }
    let (name, index) = local.split_at(local.len() - digits);
    Some((name, index.parse().ok()?))
}

/// A pool of seeded queries per class, each with the solution count the
/// in-process reference gives on the same snapshot (`ASK`: 1 or 0).
pub struct QueryPool {
    /// `classes[c]` holds `(query text, expected solutions)`.
    pub classes: Vec<Vec<(String, usize)>>,
}

impl QueryPool {
    /// Draws `variants[c]` queries of each class; `expected` evaluates one
    /// query on the reference engine.
    pub fn generate(
        inputs: &Inputs,
        seed: u64,
        variants: [usize; 5],
        mut expected: impl FnMut(&str) -> usize,
    ) -> QueryPool {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51AB_C0DE);
        let classes = (0..QUERY_CLASSES.len())
            .map(|class| {
                let mut seen = BTreeMap::new();
                for _ in 0..variants[class] {
                    let text = inputs.query(class, &mut rng);
                    if let std::collections::btree_map::Entry::Vacant(slot) = seen.entry(text) {
                        let count = expected(slot.key());
                        slot.insert(count);
                    }
                }
                seen.into_iter().collect()
            })
            .collect();
        QueryPool { classes }
    }
}

/// A seeded request schedule with exact proportions: classes come in
/// shuffled blocks that hold each class in its weight's share (the full mix
/// is a block of twenty: 8, 6, 3, 2, 1), and each class walks its variants
/// round-robin from a seeded start. Independent draws would let the share
/// of the one expensive class — a twentieth of the requests, most of the
/// time — wander by a tenth between runs, and throughput with it.
pub struct Schedule {
    rng: StdRng,
    block: Vec<usize>,
    at: usize,
    /// Next variant per class.
    cursor: [usize; QUERY_CLASSES.len()],
}

impl Schedule {
    /// A schedule over `classes` (indexes into [`QUERY_CLASSES`]), weighted
    /// as in the mix.
    pub fn new(classes: &[usize], seed: u64) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<u32> = classes.iter().map(|c| QUERY_CLASSES[*c].1).collect();
        let gcd = weights.iter().fold(0, |a, b| gcd(a, *b)).max(1);
        let block = classes
            .iter()
            .zip(&weights)
            .flat_map(|(class, weight)| std::iter::repeat_n(*class, (weight / gcd) as usize))
            .collect();
        let cursor = std::array::from_fn(|_| rng.gen_range(0..1usize << 30));
        Schedule {
            rng,
            block,
            at: usize::MAX,
            cursor,
        }
    }

    /// The next request: its class and its `(text, expected)` in `pool`.
    pub fn next<'p>(&mut self, pool: &'p QueryPool) -> (usize, &'p (String, usize)) {
        if self.at >= self.block.len() {
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..i + 1));
            }
            self.at = 0;
        }
        let class = self.block[self.at];
        self.at += 1;
        let variants = &pool.classes[class];
        self.cursor[class] += 1;
        (class, &variants[self.cursor[class] % variants.len()])
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for kind in [DatasetKind::Lubm, DatasetKind::Taxonomy] {
            let a = Inputs::generate(kind, Scale::quick(), 7);
            let b = Inputs::generate(kind, Scale::quick(), 7);
            let c = Inputs::generate(kind, Scale::quick(), 8);
            assert_eq!(a.document, b.document);
            assert_ne!(a.document, c.document);
            let (mut ra, mut rb) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
            for class in 0..QUERY_CLASSES.len() {
                assert_eq!(a.query(class, &mut ra), b.query(class, &mut rb));
            }
            assert_eq!(a.delta(100, &mut ra), b.delta(100, &mut rb));
        }
    }

    #[test]
    fn populations_are_read_off_the_generated_triples() {
        let inputs = Inputs::generate(DatasetKind::Lubm, Scale::quick(), 1);
        for name in ["Professor", "Student", "Department", "University", "Course"] {
            assert!(inputs.count(name) > 1, "{name}: {:?}", inputs.population);
        }
        assert_eq!(
            numbered_local_name(&Term::iri(format!("{LUBM_NS}Professor17")), LUBM_NS),
            Some(("Professor", 17))
        );
        assert_eq!(
            numbered_local_name(&Term::iri(format!("{LUBM_NS}Person")), LUBM_NS),
            None
        );
        assert_eq!(
            numbered_local_name(&Term::iri("http://other/X1"), LUBM_NS),
            None
        );
    }

    #[test]
    fn deltas_have_distinct_subjects_and_are_absent_from_the_dataset() {
        let inputs = Inputs::generate(DatasetKind::Lubm, Scale::quick(), 3);
        let delta = inputs.delta(100, &mut StdRng::seed_from_u64(9));
        let lines: Vec<&str> = delta.lines().collect();
        assert_eq!(lines.len(), 100);
        let subjects: std::collections::BTreeSet<&str> =
            lines.iter().map(|l| l.split(' ').next().unwrap()).collect();
        assert_eq!(subjects.len(), 100);
        for line in lines {
            assert!(!inputs.document.contains(line), "{line} is in the dataset");
        }
    }

    #[test]
    fn the_schedule_holds_the_mix_weights_exactly() {
        let pool = QueryPool {
            classes: [7usize, 5, 3, 6, 1]
                .iter()
                .map(|n| (0..*n).map(|i| (format!("q{i}"), i)).collect())
                .collect(),
        };
        let all: Vec<usize> = (0..QUERY_CLASSES.len()).collect();
        let mut schedule = Schedule::new(&all, 5);
        let mut counts = [0u32; 5];
        let mut variants = vec![std::collections::BTreeMap::new(); 5];
        for _ in 0..20 * 42 {
            let (class, (text, _)) = schedule.next(&pool);
            counts[class] += 1;
            *variants[class].entry(text.clone()).or_insert(0u32) += 1;
        }
        // Whole blocks: exactly 40/30/15/10/5 %.
        assert_eq!(counts, [8 * 42, 6 * 42, 3 * 42, 2 * 42, 42]);
        // Variants of a class are visited equally often (42 * 2 = 84 = 14 * 6).
        assert_eq!(variants[3].len(), 6);
        assert!(variants[3].values().all(|n| *n == 14), "{:?}", variants[3]);
        // Two classes of different weight: blocks of 4 + 3.
        let mut two = Schedule::new(&[POINT_ASK, BOUND_OBJECT], 9);
        let asks = (0..70).filter(|_| two.next(&pool).0 == POINT_ASK).count();
        assert_eq!(asks, 40);
        // Same seed, same order; another seed, another order.
        let order = |seed| {
            let mut s = Schedule::new(&all, seed);
            (0..40).map(|_| s.next(&pool).0).collect::<Vec<_>>()
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }
}
