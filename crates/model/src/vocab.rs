//! RDF, RDFS and OWL vocabulary IRIs used by the Inferray rule engine.
//!
//! Only the terms actually referenced by the 38 rules of Table 5 of the paper
//! (plus a handful of common companions) are listed; the dictionary
//! pre-registers every property in [`SCHEMA_PROPERTIES`] so that schema
//! predicates obtain dense property identifiers before any data is loaded,
//! mirroring the "numbering of properties must start at zero for the array of
//! property tables" requirement of section 5.1.

/// Namespace prefix of the RDF vocabulary.
pub const RDF_NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
/// Namespace prefix of the RDFS vocabulary.
pub const RDFS_NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
/// Namespace prefix of the OWL vocabulary.
pub const OWL_NS: &str = "http://www.w3.org/2002/07/owl#";
/// Namespace prefix of XML Schema datatypes.
pub const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema#";
/// `xsd:integer`, the datatype of the integer shorthand (`42`).
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
/// `xsd:decimal`, the datatype of the decimal shorthand (`1.5`).
pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
/// `xsd:boolean`, the datatype of the `true` / `false` shorthand.
pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";

// --- RDF ----------------------------------------------------------------

/// `rdf:type` — "is an instance of".
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// `rdf:Property` — the class of RDF properties.
pub const RDF_PROPERTY: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property";
/// `rdf:first` (lists; parsed but not reasoned over).
pub const RDF_FIRST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first";
/// `rdf:rest` (lists; parsed but not reasoned over).
pub const RDF_REST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest";
/// `rdf:nil` (lists; parsed but not reasoned over).
pub const RDF_NIL: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil";

// --- RDFS ---------------------------------------------------------------

/// `rdfs:subClassOf` — transitive class hierarchy property.
pub const RDFS_SUB_CLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
/// `rdfs:subPropertyOf` — transitive property hierarchy property.
pub const RDFS_SUB_PROPERTY_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
/// `rdfs:domain`.
pub const RDFS_DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";
/// `rdfs:range`.
pub const RDFS_RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";
/// `rdfs:member` — super-property of all container membership properties.
pub const RDFS_MEMBER: &str = "http://www.w3.org/2000/01/rdf-schema#member";
/// `rdfs:Resource` — the class of everything.
pub const RDFS_RESOURCE: &str = "http://www.w3.org/2000/01/rdf-schema#Resource";
/// `rdfs:Class`.
pub const RDFS_CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#Class";
/// `rdfs:Literal`.
pub const RDFS_LITERAL: &str = "http://www.w3.org/2000/01/rdf-schema#Literal";
/// `rdfs:Datatype`.
pub const RDFS_DATATYPE: &str = "http://www.w3.org/2000/01/rdf-schema#Datatype";
/// `rdfs:ContainerMembershipProperty`.
pub const RDFS_CONTAINER_MEMBERSHIP_PROPERTY: &str =
    "http://www.w3.org/2000/01/rdf-schema#ContainerMembershipProperty";
/// `rdfs:label` (annotation; carried through untouched).
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
/// `rdfs:comment` (annotation; carried through untouched).
pub const RDFS_COMMENT: &str = "http://www.w3.org/2000/01/rdf-schema#comment";

// --- OWL ----------------------------------------------------------------

/// `owl:sameAs` — individual equality (symmetric + transitive).
pub const OWL_SAME_AS: &str = "http://www.w3.org/2002/07/owl#sameAs";
/// `owl:equivalentClass`.
pub const OWL_EQUIVALENT_CLASS: &str = "http://www.w3.org/2002/07/owl#equivalentClass";
/// `owl:equivalentProperty`.
pub const OWL_EQUIVALENT_PROPERTY: &str = "http://www.w3.org/2002/07/owl#equivalentProperty";
/// `owl:inverseOf`.
pub const OWL_INVERSE_OF: &str = "http://www.w3.org/2002/07/owl#inverseOf";
/// `owl:TransitiveProperty`.
pub const OWL_TRANSITIVE_PROPERTY: &str = "http://www.w3.org/2002/07/owl#TransitiveProperty";
/// `owl:SymmetricProperty`.
pub const OWL_SYMMETRIC_PROPERTY: &str = "http://www.w3.org/2002/07/owl#SymmetricProperty";
/// `owl:FunctionalProperty`.
pub const OWL_FUNCTIONAL_PROPERTY: &str = "http://www.w3.org/2002/07/owl#FunctionalProperty";
/// `owl:InverseFunctionalProperty`.
pub const OWL_INVERSE_FUNCTIONAL_PROPERTY: &str =
    "http://www.w3.org/2002/07/owl#InverseFunctionalProperty";
/// `owl:Class`.
pub const OWL_CLASS: &str = "http://www.w3.org/2002/07/owl#Class";
/// `owl:Thing`.
pub const OWL_THING: &str = "http://www.w3.org/2002/07/owl#Thing";
/// `owl:Nothing`.
pub const OWL_NOTHING: &str = "http://www.w3.org/2002/07/owl#Nothing";
/// `owl:DatatypeProperty`.
pub const OWL_DATATYPE_PROPERTY: &str = "http://www.w3.org/2002/07/owl#DatatypeProperty";
/// `owl:ObjectProperty`.
pub const OWL_OBJECT_PROPERTY: &str = "http://www.w3.org/2002/07/owl#ObjectProperty";

/// The schema *properties* (terms that appear in the predicate position of
/// rule antecedents or heads). The dictionary pre-registers them, in this
/// order, so they always receive the first dense property identifiers.
pub const SCHEMA_PROPERTIES: &[&str] = &[
    RDF_TYPE,
    RDFS_SUB_CLASS_OF,
    RDFS_SUB_PROPERTY_OF,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_MEMBER,
    OWL_SAME_AS,
    OWL_EQUIVALENT_CLASS,
    OWL_EQUIVALENT_PROPERTY,
    OWL_INVERSE_OF,
    RDFS_LABEL,
    RDFS_COMMENT,
    RDF_FIRST,
    RDF_REST,
];

/// The schema *resources* (classes and special individuals referenced by the
/// rules). Pre-registered so rules can refer to their identifiers without a
/// dictionary lookup at inference time.
pub const SCHEMA_RESOURCES: &[&str] = &[
    RDFS_RESOURCE,
    RDFS_CLASS,
    RDFS_LITERAL,
    RDFS_DATATYPE,
    RDFS_CONTAINER_MEMBERSHIP_PROPERTY,
    RDF_PROPERTY,
    RDF_NIL,
    OWL_TRANSITIVE_PROPERTY,
    OWL_SYMMETRIC_PROPERTY,
    OWL_FUNCTIONAL_PROPERTY,
    OWL_INVERSE_FUNCTIONAL_PROPERTY,
    OWL_CLASS,
    OWL_THING,
    OWL_NOTHING,
    OWL_DATATYPE_PROPERTY,
    OWL_OBJECT_PROPERTY,
];

/// Expands a compact `prefix:local` form for the three namespaces used in the
/// documentation and the tests. Unknown prefixes are returned unchanged.
///
/// ```
/// use inferray_model::vocab::expand_curie;
/// assert_eq!(
///     expand_curie("rdfs:subClassOf"),
///     "http://www.w3.org/2000/01/rdf-schema#subClassOf"
/// );
/// ```
pub fn expand_curie(curie: &str) -> String {
    if let Some(local) = curie.strip_prefix("rdf:") {
        format!("{RDF_NS}{local}")
    } else if let Some(local) = curie.strip_prefix("rdfs:") {
        format!("{RDFS_NS}{local}")
    } else if let Some(local) = curie.strip_prefix("owl:") {
        format!("{OWL_NS}{local}")
    } else if let Some(local) = curie.strip_prefix("xsd:") {
        format!("{XSD_NS}{local}")
    } else {
        curie.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schema_lists_have_no_duplicates() {
        let props: HashSet<_> = SCHEMA_PROPERTIES.iter().collect();
        assert_eq!(props.len(), SCHEMA_PROPERTIES.len());
        let res: HashSet<_> = SCHEMA_RESOURCES.iter().collect();
        assert_eq!(res.len(), SCHEMA_RESOURCES.len());
    }

    #[test]
    fn properties_and_resources_are_disjoint() {
        let props: HashSet<_> = SCHEMA_PROPERTIES.iter().collect();
        for r in SCHEMA_RESOURCES {
            assert!(
                !props.contains(r),
                "{r} listed as both property and resource"
            );
        }
    }

    #[test]
    fn all_vocabulary_iris_use_known_namespaces() {
        for iri in SCHEMA_PROPERTIES.iter().chain(SCHEMA_RESOURCES.iter()) {
            assert!(
                iri.starts_with(RDF_NS) || iri.starts_with(RDFS_NS) || iri.starts_with(OWL_NS),
                "unexpected namespace for {iri}"
            );
        }
    }

    #[test]
    fn curie_expansion() {
        assert_eq!(expand_curie("rdf:type"), RDF_TYPE);
        assert_eq!(expand_curie("rdfs:domain"), RDFS_DOMAIN);
        assert_eq!(expand_curie("owl:sameAs"), OWL_SAME_AS);
        assert_eq!(expand_curie("xsd:integer"), format!("{XSD_NS}integer"));
        assert_eq!(expand_curie("http://example.org/x"), "http://example.org/x");
    }
}
