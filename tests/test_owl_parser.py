import pytest

from owlfl import owl_model as om
from owlfl.fl_to_owl import translate_program
from owlfl.flogic import parse_program, print_program
from owlfl.owl_parser import map_xml_type, parse_document
from owlfl.owl_to_fl import TranslationOptions, translate_ontology
from owlfl.owl_writer import serialize_document

from test_owl_model import axiom_count

HEADER = (
    '<?xml version="1.0"?>\n'
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
    '         xmlns:owl="http://www.w3.org/2002/07/owl#"\n'
    '         xmlns="http://example.org/wine#"\n'
    '         xml:base="http://example.org/wine">\n'
)


def doc_of(body: str, header: str = HEADER):
    doc, diags = parse_document(header + body + "</rdf:RDF>\n")
    assert not [d for d in diags if d.severity == "error"], diags
    return doc, diags


def iri(local: str) -> om.Iri:
    return om.Iri("http://example.org/wine#" + local)


# --- map_xml_type ------------------------------------------------------------


def test_map_xml_type_table():
    xsd = "http://www.w3.org/2001/XMLSchema#"
    assert map_xml_type(xsd + "string") == ("_string", None)
    assert map_xml_type(xsd + "integer")[0] == "_integer"
    assert map_xml_type(xsd + "nonNegativeInteger")[0] == "_integer"
    assert map_xml_type(xsd + "double")[0] == "_double"
    assert map_xml_type(xsd + "boolean")[0] == "_boolean"


def test_map_xml_type_unknown_warns():
    tag, diag = map_xml_type("http://example.org/types#weird")
    assert tag == "http://example.org/types#weird"
    assert diag is not None and diag.severity == "warning"


def test_one_named_class_per_iri():
    """Every mention of a class in a document is the one ``Named`` of its
    IRI, and so is each class that the way back from F-logic names."""
    doc, _ = doc_of('<owl:Class rdf:about="#A"><rdfs:subClassOf '
                    'rdf:resource="#B"/></owl:Class>'
                    '<owl:Class rdf:about="#C"><rdfs:subClassOf '
                    'rdf:resource="#B"/><rdfs:subClassOf rdf:resource="#A"/>'
                    '</owl:Class>'
                    '<owl:Class rdf:about="#B"><owl:equivalentClass>'
                    '<owl:Class rdf:about="#A"/></owl:equivalentClass>'
                    '</owl:Class>')
    for axioms in (doc.class_axioms,
                   translate_program(translate_ontology(doc)[0])[0]
                   .class_axioms):
        named = [getattr(ax, f) for ax in axioms for f in ax._fields
                 if isinstance(getattr(ax, f), om.Named)]
        assert len(named) >= 6
        assert len({id(n) for n in named}) == len(set(named)) == 3


def test_one_iri_per_iri_value():
    """A name written ``#Wine``, ``Wine``, as the full IRI or as an element
    name is the one ``Iri`` of its value."""
    doc, _ = doc_of('<owl:Class rdf:about="#RedWine"><rdfs:subClassOf '
                    'rdf:resource="Wine"/></owl:Class>'
                    '<owl:Class rdf:about="http://example.org/wine#Rose">'
                    '<rdfs:subClassOf rdf:resource="#Wine"/></owl:Class>'
                    '<owl:Class rdf:about="#White"><rdfs:subClassOf '
                    'rdf:resource="http://example.org/wine#Wine"/>'
                    '</owl:Class>'
                    '<Wine rdf:about="#w1"/><RedWine rdf:about="w2"/>')
    found = []

    def walk(x):
        if isinstance(x, om.Iri):
            found.append(x)
        elif isinstance(x, (list, tuple)):
            for e in x:
                walk(e)
        elif hasattr(x, "_fields"):
            for f in x._fields:
                walk(getattr(x, f))

    walk(doc.class_axioms + doc.assertions)
    wine = [x for x in found if x == iri("Wine")]
    assert len(wine) == 4 and len({id(x) for x in wine}) == 1
    assert len({id(x) for x in found}) == len(set(found)) == 6


# --- class axioms ------------------------------------------------------------


def test_parse_subclassof():
    doc, _ = doc_of(
        '<owl:Class rdf:about="#Wine">'
        '<rdfs:subClassOf rdf:resource="#PotableLiquid"/>'
        '</owl:Class>'
    )
    assert doc.class_axioms == [
        om.SubClassOf(om.Named(iri("Wine")), om.Named(iri("PotableLiquid")))]


def test_parse_union_definition():
    doc, _ = doc_of(
        '<owl:Class rdf:about="#Fruit">'
        '<owl:unionOf rdf:parseType="Collection">'
        '<owl:Class rdf:about="#SweetFruit"/>'
        '<owl:Class rdf:about="#NonSweetFruit"/>'
        '</owl:unionOf></owl:Class>'
    )
    assert doc.class_axioms == [om.EquivalentClass(
        om.Named(iri("Fruit")),
        om.UnionOf((om.Named(iri("SweetFruit")),
                    om.Named(iri("NonSweetFruit")))))]


def test_parse_oneof():
    doc, _ = doc_of(
        '<owl:Class rdf:about="#WineColor">'
        '<owl:oneOf rdf:parseType="Collection">'
        '<owl:Thing rdf:about="#White"/>'
        '<owl:Thing rdf:about="#Rose"/>'
        '<owl:Thing rdf:about="#Red"/>'
        '</owl:oneOf></owl:Class>'
    )
    assert doc.class_axioms == [om.EquivalentClass(
        om.Named(iri("WineColor")),
        om.OneOf((iri("White"), iri("Rose"), iri("Red"))))]


def test_parse_restriction_all_values_from():
    doc, _ = doc_of(
        '<owl:Class rdf:about="#Wine"><rdfs:subClassOf>'
        '<owl:Restriction>'
        '<owl:onProperty rdf:resource="#hasMaker"/>'
        '<owl:allValuesFrom rdf:resource="#Winery"/>'
        '</owl:Restriction>'
        '</rdfs:subClassOf></owl:Class>'
    )
    assert doc.class_axioms == [om.SubClassOf(
        om.Named(iri("Wine")),
        om.Restriction(iri("hasMaker"),
                       om.AllValuesFrom(om.Named(iri("Winery")))))]


def test_parse_max_cardinality_with_datatype():
    doc, _ = doc_of(
        '<owl:Class rdf:about="#Person"><rdfs:subClassOf>'
        '<owl:Restriction>'
        '<owl:onProperty rdf:resource="#hasParent"/>'
        '<owl:maxCardinality rdf:datatype='
        '"http://www.w3.org/2001/XMLSchema#nonNegativeInteger">2'
        '</owl:maxCardinality>'
        '</owl:Restriction>'
        '</rdfs:subClassOf></owl:Class>'
    )
    assert doc.class_axioms == [om.SubClassOf(
        om.Named(iri("Person")),
        om.Restriction(iri("hasParent"), om.MaxCardinality(2)))]


def test_parse_negative_cardinality_is_an_error():
    doc, diags = parse_document(
        HEADER + '<owl:Class rdf:about="#Person"><rdfs:subClassOf>'
        '<owl:Restriction><owl:onProperty rdf:resource="#hasParent"/>'
        '<owl:maxCardinality>-1</owl:maxCardinality>'
        '</owl:Restriction></rdfs:subClassOf></owl:Class></rdf:RDF>\n')
    assert [(d.severity, d.code) for d in diags] == [
        ("error", "bad-cardinality"), ("warning", "unknown-construct")]
    assert doc.class_axioms == []


OWL_NS = "http://www.w3.org/2002/07/owl#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"


def _restriction(facets: str) -> str:
    return ('<owl:Class rdf:about="#A"><rdfs:subClassOf><owl:Restriction>'
            '<owl:onProperty rdf:resource="#p"/>' + facets +
            '</owl:Restriction></rdfs:subClassOf></owl:Class>')


def _a_sub(kind) -> om.SubClassOf:
    return om.SubClassOf(om.Named(iri("A")), om.Restriction(iri("p"), kind))


# (body, diagnostics, (class axioms, property axioms, assertions)); a body
# that does not start with "<?xml" goes inside HEADER's rdf:RDF
READER_CASES = {
    "non-integer-cardinality": (
        _restriction("<owl:maxCardinality>two</owl:maxCardinality>"),
        [("error", "bad-cardinality", "non-integer cardinality 'two'"),
         ("warning", "unknown-construct",
          "incomplete owl:Restriction skipped")],
        ([], [], [])),
    "class-expression": (
        '<owl:Class rdf:about="#A"><rdfs:subClassOf><owl:Foo/>'
        '</rdfs:subClassOf></owl:Class>',
        [("warning", "unknown-construct",
          "unsupported class expression <{%s}Foo>" % OWL_NS)],
        ([], [], [])),
    "restriction-facet": (
        _restriction("<owl:hasSelf>true</owl:hasSelf>"
                     "<owl:minCardinality>1</owl:minCardinality>"),
        [("warning", "unknown-construct",
          "unsupported restriction facet <{%s}hasSelf>" % OWL_NS)],
        ([_a_sub(om.MinCardinality(1))], [], [])),
    "class-axiom-child": (
        '<owl:Class rdf:about="#A"><rdfs:label>a</rdfs:label></owl:Class>',
        [("warning", "unknown-construct",
          "unsupported class axiom <{%s}label>" % RDFS_NS)],
        ([], [], [])),
    "property-type": (
        '<owl:ObjectProperty rdf:about="#p">'
        '<rdf:type rdf:resource="#Weird"/></owl:ObjectProperty>',
        [("warning", "unknown-construct",
          "unsupported property type '#Weird'")],
        ([], [], [])),
    "property-axiom-child": (
        '<owl:ObjectProperty rdf:about="#p"><rdfs:comment>c</rdfs:comment>'
        '</owl:ObjectProperty>',
        [("warning", "unknown-construct",
          "unsupported property axiom <{%s}comment>" % RDFS_NS)],
        ([], [], [])),
    "vocabulary-element": (
        "<owl:AllDifferent/>",
        [("warning", "unknown-construct",
          "unsupported element <{%s}AllDifferent>" % OWL_NS)],
        ([], [], [])),
    "missing-filler": (
        _restriction("<owl:allValuesFrom/>"),
        [("warning", "unknown-construct", "missing restriction filler")],
        ([_a_sub(om.AllValuesFrom(om.Named(om.Iri(OWL_NS + "Thing"))))],
         [], [])),
    "nested-value": (
        '<owl:Thing rdf:about="#x"><p><C rdf:about="#y" q="v"/></p>'
        '</owl:Thing>',
        [],
        ([], [], [om.PropertyAssertion(iri("x"), iri("p"), iri("y")),
                  om.ClassAssertion(iri("y"), iri("C")),
                  om.PropertyAssertion(iri("y"), iri("q"),
                                       om.OwlLiteral("v"))])),
    "no-subject": (
        '<C><p rdf:resource="#y"/></C>',
        [],
        ([], [], [om.ClassAssertion(iri("_:b1"), iri("C")),
                  om.PropertyAssertion(iri("_:b1"), iri("p"), iri("y"))])),
    "root-not-rdf": (
        '<?xml version="1.0"?>\n<owl:Class xmlns:owl="%s" '
        'xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:rdfs="%s" rdf:about="#A">'
        '<rdfs:subClassOf rdf:resource="#B"/></owl:Class>' % (OWL_NS, RDFS_NS),
        [],
        ([om.SubClassOf(om.Named(om.Iri("http://example.org/ontology#A")),
                        om.Named(om.Iri("http://example.org/ontology#B")))],
         [], [])),
}


@pytest.mark.parametrize("case", list(READER_CASES))
def test_reader_diagnostics_and_document(case):
    """Each branch of the reader that skips or fills in part of its input
    says so, and keeps the rest of the document."""
    body, diagnostics, axioms = READER_CASES[case]
    text = body if body.startswith("<?xml") else HEADER + body + "</rdf:RDF>\n"
    doc, diags = parse_document(text)
    assert [(d.severity, d.code, d.message) for d in diags] == diagnostics
    assert (doc.class_axioms, doc.property_axioms, doc.assertions) == axioms


def test_parse_disjoint_with():
    doc, _ = doc_of(
        '<owl:Class rdf:about="#Female">'
        '<owl:disjointWith rdf:resource="#Male"/>'
        '</owl:Class>'
    )
    assert doc.class_axioms == [om.DisjointWith(iri("Female"), iri("Male"))]


# --- property axioms ---------------------------------------------------------


def test_parse_domain_range():
    doc, _ = doc_of(
        '<owl:ObjectProperty rdf:about="#locatedIn">'
        '<rdfs:domain rdf:resource="#Country"/>'
        '<rdfs:range rdf:resource="#Region"/>'
        '</owl:ObjectProperty>'
    )
    assert doc.property_axioms == [
        om.Domain(iri("locatedIn"), iri("Country")),
        om.Range(iri("locatedIn"), iri("Region")),
    ]


def test_parse_characteristic_via_rdf_type():
    doc, _ = doc_of(
        '<owl:ObjectProperty rdf:about="#locatedIn">'
        '<rdf:type rdf:resource='
        '"http://www.w3.org/2002/07/owl#TransitiveProperty"/>'
        '</owl:ObjectProperty>'
    )
    assert doc.property_axioms == [
        om.Characteristic(iri("locatedIn"), om.TRANSITIVE)]


def test_parse_element_form_characteristic():
    doc, _ = doc_of(
        '<owl:TransitiveProperty rdf:about="#locatedIn"/>'
    )
    assert doc.property_axioms == [
        om.Characteristic(iri("locatedIn"), om.TRANSITIVE)]


def test_parse_inverse_of():
    doc, _ = doc_of(
        '<owl:ObjectProperty rdf:about="#producesWine">'
        '<owl:inverseOf rdf:resource="#hasMaker"/>'
        '</owl:ObjectProperty>'
    )
    assert doc.property_axioms == [
        om.InverseOf(iri("producesWine"), iri("hasMaker"))]


# --- ABox --------------------------------------------------------------------


def test_parse_individual_shorthand():
    doc, _ = doc_of('<WineGrape rdf:ID="CabernetSauvignonGrape" '
                    'hasColor="Red"/>')
    assert doc.assertions == [
        om.ClassAssertion(iri("CabernetSauvignonGrape"), iri("WineGrape")),
        om.PropertyAssertion(iri("CabernetSauvignonGrape"), iri("hasColor"),
                             om.OwlLiteral("Red", "_string")),
    ]


def test_parse_individual_memberships_before_values():
    doc, _ = doc_of(
        '<owl:Thing rdf:about="#PinotGrape" hasColor="White">'
        '<rdf:type rdf:resource="#WineGrape"/>'
        '</owl:Thing>'
    )
    assert doc.assertions == [
        om.ClassAssertion(iri("PinotGrape"), iri("WineGrape")),
        om.PropertyAssertion(iri("PinotGrape"), iri("hasColor"),
                             om.OwlLiteral("White", "_string")),
    ]


def test_parse_object_valued_assertion():
    doc, _ = doc_of(
        '<owl:Thing rdf:about="#redwine1">'
        '<hasMaker rdf:resource="#chateau1"/>'
        '</owl:Thing>'
    )
    assert doc.assertions == [
        om.PropertyAssertion(iri("redwine1"), iri("hasMaker"),
                             iri("chateau1"))]


# --- reference spellings -----------------------------------------------------

SPELLING_HEADER = HEADER.replace(
    'xml:base="http://example.org/wine">',
    'xmlns:food="http://example.org/food#"\n'
    '         xmlns:veg="http://example.org/veg/"\n'
    '         xmlns:odd="http://example.org/odd"\n'
    '         xml:base="http://example.org/wine">')

# each rdf:resource spelling and the IRI it resolves to
SPELLINGS = [
    ("http://other.org/ns#x", "http://other.org/ns#x"),
    ("#x", "http://example.org/wine#x"),
    ("x", "http://example.org/wine#x"),
    (" x ", "http://example.org/wine#x"),
    ("food:x", "http://example.org/food#x"),
    ("#food:x", "http://example.org/food#x"),
    ("zz:x", "zz:x"),
]


def test_reference_spellings_resolve():
    # every spelling appears twice, as an rdf:about and as rdf:resource values
    values = "".join(f'<p rdf:resource="{ref}"/>' for ref, _ in SPELLINGS)
    body = "".join(f'<owl:Thing rdf:about="{ref}">{values}</owl:Thing>'
                   for ref, _ in SPELLINGS)
    body += ('<food:Dish rdf:about="#d"/><food:Dish rdf:ID="d"/>'
             '<veg:Carrot rdf:about="#c"/><veg:Carrot rdf:about="c"/>'
             '<odd:Thing rdf:about="#o"/><odd:Thing rdf:about="#o"/>'
             '<owl:Thing rdf:about="#a" food:colour="red" size="big"/>'
             '<owl:Thing rdf:about="#a" food:colour="red" size="big"/>')
    doc, diags = doc_of(body, SPELLING_HEADER)
    assert diags == []
    p = iri("p")
    expected = [om.PropertyAssertion(om.Iri(subj), p, om.Iri(obj))
                for _, subj in SPELLINGS for _, obj in SPELLINGS]
    d, c, o, a = iri("d"), iri("c"), iri("o"), iri("a")
    expected += [
        om.ClassAssertion(d, om.Iri("http://example.org/food#Dish")),
        om.ClassAssertion(d, om.Iri("http://example.org/food#Dish")),
        om.ClassAssertion(c, om.Iri("http://example.org/veg/Carrot")),
        om.ClassAssertion(c, om.Iri("http://example.org/veg/Carrot")),
        om.ClassAssertion(o, om.Iri("http://example.org/odd#Thing")),
        om.ClassAssertion(o, om.Iri("http://example.org/odd#Thing")),
    ]
    expected += 2 * [
        om.PropertyAssertion(a, om.Iri("http://example.org/food#colour"),
                             om.OwlLiteral("red")),
        om.PropertyAssertion(a, iri("size"), om.OwlLiteral("big")),
    ]
    assert doc.assertions == expected


def test_same_reference_under_another_base_is_another_iri():
    body = '<owl:Thing rdf:about="#s"><p rdf:resource="#x"/></owl:Thing>'
    objects = []
    for base in ("http://example.org/wine", "http://example.org/beer"):
        header = HEADER.replace('xml:base="http://example.org/wine"',
                                f'xml:base="{base}"')
        doc, _ = doc_of(body, header)
        objects.append([a.object.value for a in doc.assertions])
    assert objects == [["http://example.org/wine#x"],
                       ["http://example.org/beer#x"]]


def test_urn_and_mailto_references_round_trip():
    # any scheme: is absolute (RFC 3986), not only scheme://
    body = ('<owl:Class rdf:about="#Book">'
            '<rdfs:subClassOf rdf:resource="urn:isbn:123"/></owl:Class>'
            '<owl:Thing rdf:about="mailto:ann@example.org">'
            '<rdf:type rdf:resource="urn:x-shelf:Reader"/></owl:Thing>')
    doc, diags = doc_of(body)
    assert diags == []
    assert doc.class_axioms == [om.SubClassOf(
        om.Named(iri("Book")), om.Named(om.Iri("urn:isbn:123")))]
    assert doc.assertions == [om.ClassAssertion(
        om.Iri("mailto:ann@example.org"), om.Iri("urn:x-shelf:Reader"))]
    again, diags = parse_document(serialize_document(doc))
    assert diags == []
    assert (again.class_axioms, again.assertions) == \
        (doc.class_axioms, doc.assertions)
    # and through F-logic text
    prog, _ = translate_ontology(doc, TranslationOptions(emit_checkers=False))
    text = print_program(prog)
    assert "Book::'urn:isbn:123'." in text
    assert "'mailto:ann@example.org':'urn:x-shelf:Reader'." in text
    back, diags = translate_program(parse_program(text)[0])
    assert diags == []
    assert (back.class_axioms, back.assertions) == \
        (doc.class_axioms, doc.assertions)


# --- whole documents ---------------------------------------------------------


def test_prefixes_captured():
    header = HEADER.replace(
        'xml:base="http://example.org/wine">',
        'xmlns:food="http://example.org/food#"\n'
        '         xml:base="http://example.org/wine">')
    doc, _ = doc_of(
        '<owl:Class rdf:about="#Wine">'
        '<rdfs:subClassOf rdf:resource="#food:PotableLiquid"/>'
        '</owl:Class>', header)
    assert doc.prefixes["food"] == "http://example.org/food#"
    assert doc.class_axioms == [om.SubClassOf(
        om.Named(iri("Wine")),
        om.Named(om.Iri("http://example.org/food#PotableLiquid")))]


@pytest.mark.parametrize("ns", ["http://example.org/veg#",
                                "http://example.org/veg/",
                                "http://example.org/veg/#"])
def test_element_name_and_prefixed_reference_agree(ns):
    # <veg:Carrot> is ElementTree's {ns}Carrot; rdf:resource="veg:Carrot"
    # goes through the prefix table; both mean the declared namespace
    header = HEADER.replace('xml:base=', f'xmlns:veg="{ns}"\n         xml:base=')
    doc, diags = doc_of('<veg:Carrot rdf:about="#c"/>'
                        '<owl:Thing rdf:about="#d">'
                        '<rdf:type rdf:resource="veg:Carrot"/></owl:Thing>',
                        header)
    assert diags == []
    assert doc.prefixes["veg"] == ns
    assert doc.assertions == [om.ClassAssertion(iri(x), om.Iri(ns + "Carrot"))
                              for x in "cd"]


def test_empty_document():
    doc, diags = parse_document(HEADER + "</rdf:RDF>\n")
    assert axiom_count(doc) == 0
    assert not [d for d in diags if d.severity == "error"]


def test_malformed_xml_is_an_error():
    doc, diags = parse_document("<rdf:RDF><owl:Class>")
    assert any(d.severity == "error" for d in diags)


@pytest.mark.parametrize("header, body", [
    (HEADER.replace('xml:base="http://example.org/wine"', 'xml:base="rel"'),
     '<Wine rdf:about="#w"/>'),
    (HEADER.replace('xmlns="http://example.org/wine#"', 'xmlns="wine#"'),
     '<Wine rdf:about="#w"/>'),
    (HEADER.replace('xml:base=', 'xmlns:rel="rel#" xml:base='),
     '<rel:Wine rdf:about="#w"/>'),
], ids=["base", "default-namespace", "prefixed-namespace"])
def test_relative_base_or_namespace_is_an_error(header, body):
    doc, diags = parse_document(header + body + "</rdf:RDF>\n")
    assert doc is None
    assert [(d.severity, d.code) for d in diags] == [("error", "relative-iri")]


def test_parse_is_deterministic():
    body = ('<owl:Class rdf:about="#Wine">'
            '<rdfs:subClassOf rdf:resource="#PotableLiquid"/>'
            '</owl:Class>')
    a, _ = doc_of(body)
    b, _ = doc_of(body)
    assert a.class_axioms == b.class_axioms


# --- writer round trip -------------------------------------------------------


def test_serialize_parse_round_trip():
    doc, _ = doc_of(
        '<owl:Class rdf:about="#Wine">'
        '<rdfs:subClassOf rdf:resource="#PotableLiquid"/>'
        '</owl:Class>'
        '<owl:Class rdf:about="#Female">'
        '<owl:disjointWith rdf:resource="#Male"/>'
        '</owl:Class>'
        '<owl:ObjectProperty rdf:about="#locatedIn">'
        '<rdfs:domain rdf:resource="#Country"/>'
        '<rdfs:range rdf:resource="#Region"/>'
        '</owl:ObjectProperty>'
        '<owl:Thing rdf:about="#PinotGrape" hasColor="White">'
        '<rdf:type rdf:resource="#WineGrape"/>'
        '</owl:Thing>'
    )
    text = serialize_document(doc)
    doc2, diags = parse_document(text)
    assert not [d for d in diags if d.severity == "error"]
    assert doc2.class_axioms == doc.class_axioms
    assert doc2.property_axioms == doc.property_axioms
    assert doc2.assertions == doc.assertions
