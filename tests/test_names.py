"""IRI ⇄ F-logic name: ``owl_to_fl.Context._new_symbol`` and
``fl_to_owl._Namer.iri`` are exact inverses.

For every IRI whose scheme is not a declared prefix name, IRI → name → IRI
is the identity, in memory, through printed and re-parsed F-logic, and
through written and re-read RDF/XML; distinct IRIs get distinct names.  A
property value is left out: a quoted value that is not a ``scheme://`` IRI
reads back as a string literal.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from owlfl import owl_model as om
from owlfl.fl_to_owl import translate_program
from owlfl.flogic import parse_program, print_program, print_term
from owlfl.owl_parser import parse_document
from owlfl.owl_to_fl import Context, TranslationOptions, translate_ontology
from owlfl.owl_writer import serialize_document

BASE = "http://example.org/wine"
PREFIXES = {
    "": BASE,
    "food": "http://example.org/food",
    "veg": "http://example.org/veg/",
    "w2": BASE,  # a second name for the base namespace
}

NAMESPACES = [
    BASE + "#", "http://example.org/food#", "http://example.org/veg/#",
    "http://example.org/veg/",
    "http://other.org/x#", "http://other.org/y/",  # foreign # and / IRIs
    "urn:isbn:", "mailto:", "urn:",
]
# local parts, some of which look absolute or prefixed ("food:a", "zz:b",
# "http://a"); the empty one makes an IRI that ends in its namespace
LOCALS = st.one_of(
    st.text(alphabet="ab1:/#'- ", max_size=6).map(str.strip),
    st.sampled_from(["Red", "food:a", "zz:b", "veg:c", "w2:Red", "http://a",
                     "urn:x", "a#b", ""]),
)
IRIS = st.builds(lambda ns, local: om.Iri(ns + local),
                 st.sampled_from(NAMESPACES), LOCALS)


def _document(iris):
    """Each IRI as a class, an individual and a property name, along a
    chain (a cycle of sub-properties would read back as equivalences)."""
    pairs = list(zip(iris, iris[1:]))
    return om.OntologyDocument(
        prefixes=dict(PREFIXES),
        class_axioms=[om.SubClassOf(om.Named(a), om.Named(b))
                      for a, b in pairs],
        property_axioms=[om.SubPropertyOf(a, b) for a, b in pairs],
        assertions=[om.ClassAssertion(a, b) for a, b in pairs],
    )


def _axioms(doc):
    return (set(doc.class_axioms), set(doc.property_axioms),
            set(doc.assertions))


def _round_trip(doc, through_text: bool):
    prog, diags = translate_ontology(doc, TranslationOptions(
        emit_checkers=False))
    assert diags == []
    if through_text:
        prog, diags = parse_program(print_program(prog))
        assert diags == []
    back, diags = translate_program(prog)
    assert diags == []
    return back


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(IRIS, min_size=2, max_size=6, unique=True))
@example([om.Iri("http://example.org/colour#Red"),
          om.Iri("http://example.org/wine#Red"),
          om.Iri("urn:isbn:123"), om.Iri("mailto:a@b.org"),
          om.Iri("http://other.org/x#"), om.Iri(BASE + "#zz:x"),
          om.Iri(BASE + "#food:x")])
def test_iri_to_name_to_iri_is_the_identity(iris):
    ctx = Context(om.OntologyDocument(prefixes=dict(PREFIXES)))
    assert len({ctx.symbol(i) for i in iris}) == len(iris)
    doc = _document(iris)
    for through_text in (False, True):
        assert _axioms(_round_trip(doc, through_text)) == _axioms(doc)
    # the RDF/XML reader resolves the writer's references to the same IRIs
    read, diags = parse_document(serialize_document(doc))
    assert diags == []
    assert _axioms(read) == _axioms(doc)
    assert _axioms(_round_trip(read, True)) == _axioms(doc)


def test_names_of_each_kind_of_iri():
    ctx = Context(om.OntologyDocument(prefixes=dict(PREFIXES)))
    printed = {value: print_term(ctx.symbol(om.Iri(value)))
               for value in (BASE + "#Red", "http://example.org/food#Red",
                             "http://example.org/veg/Carrot",
                             "http://example.org/colour#Red", "urn:isbn:123",
                             BASE + "#zz:x", "http://other.org/x#")}
    assert printed == {
        BASE + "#Red": "Red",
        "http://example.org/food#Red": "food:Red",
        "http://example.org/veg/Carrot": "veg:Carrot",
        "http://example.org/colour#Red": "'http://example.org/colour#Red'",
        "urn:isbn:123": "'urn:isbn:123'",
        BASE + "#zz:x": "'http://example.org/wine#zz:x'",
        "http://other.org/x#": "'http://other.org/x#'",
    }
    # a document without a base quotes every IRI
    ctx = Context(om.OntologyDocument())
    assert print_term(ctx.symbol(om.Iri("http://other.org/x#Red"))) == \
        "'http://other.org/x#Red'"



@pytest.mark.parametrize("text", ["x:'urn:c'. y:urn:c.", "y:urn:c. x:'urn:c'."])
def test_quoted_and_plain_name_stay_two_classes(text):
    """``'urn:c'`` is the absolute IRI and ``urn:c`` a name in the base's
    namespace, though the two symbols are equal."""
    program, diags = parse_program(text, {"": BASE})
    assert diags == []
    doc, diags = translate_program(program)
    assert diags == []
    classes = {a.individual.value: a.cls.value for a in doc.assertions}
    assert classes == {BASE + "#x": "urn:c", BASE + "#y": BASE + "#urn:c"}
    xml = serialize_document(doc)
    assert parse_document(xml)[0].assertions == doc.assertions
    for ind, cls in (("x", "urn:c"), ("y", BASE + "#urn:c")):
        assert f'<owl:Thing rdf:about="#{ind}">\n' \
            f'    <rdf:type rdf:resource="{cls}"/>' in xml


THING = om.Iri("http://www.w3.org/2002/07/owl#Thing")
BASE_OBJECT = om.Iri(BASE + "#_object")


@pytest.mark.parametrize("top", [THING, BASE_OBJECT], ids=["owl:Thing",
                                                           "#_object"])
def test_top_class_and_its_namesake_round_trip(top):
    """``owl:Thing`` is the top class ``_object``; an IRI whose local part
    is ``_object`` is written whole, so it stays a class of its own."""
    ctx = Context(om.OntologyDocument(prefixes=dict(PREFIXES)))
    assert print_term(ctx.symbol(THING)) == "_object"
    assert print_term(ctx.symbol(BASE_OBJECT)) == \
        "'http://example.org/wine#_object'"
    p = om.Iri(BASE + "#p")

    def cls(local):
        return om.Named(om.Iri(BASE + "#" + local))

    doc = om.OntologyDocument(prefixes=dict(PREFIXES), class_axioms=[
        om.SubClassOf(om.Named(top), cls("C")),
        om.SubClassOf(cls("D"), om.Named(top)),
        om.EquivalentClass(cls("E"), om.Named(top)),
        om.SubClassOf(cls("F"), om.Restriction(p, om.AllValuesFrom(
            om.Named(top)))),
        om.SubClassOf(cls("G"), om.Restriction(p, om.SomeValuesFrom(
            om.Named(top)))),
    ])
    for through_text in (False, True):
        assert _axioms(_round_trip(doc, through_text)) == _axioms(doc)
    read, diags = parse_document(serialize_document(doc))
    assert diags == []
    assert _axioms(_round_trip(read, True)) == _axioms(doc)
