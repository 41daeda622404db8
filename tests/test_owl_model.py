import pytest

from owlfl import owl_model as om


def axiom_count(doc):
    return len(doc.class_axioms) + len(doc.property_axioms) + \
        len(doc.assertions)


def test_iri_requires_scheme():
    om.Iri("http://example.org/wine#Wine")
    with pytest.raises(ValueError):
        om.Iri("#Wine")
    with pytest.raises(ValueError):
        om.Iri("Wine")


def test_iri_local_name():
    assert om.Iri("http://example.org/wine#Wine").local_name == "Wine"
    assert om.Iri("http://example.org/wine/Wine").local_name == "Wine"


def test_iri_equality_is_exact():
    a = om.Iri("http://example.org/a#X")
    assert a == om.Iri("http://example.org/a#X")
    assert a != om.Iri("http://example.org/A#X")


def test_boolean_expressions_need_two_operands():
    named = om.Named(om.Iri("http://e.org#A"))
    with pytest.raises(ValueError):
        om.UnionOf((named,))
    with pytest.raises(ValueError):
        om.IntersectionOf((named,))
    om.UnionOf((named, named))


def test_oneof_needs_individuals():
    with pytest.raises(ValueError):
        om.OneOf(())
    om.OneOf((om.Iri("http://e.org#a"),))


def test_cardinalities_non_negative():
    om.MaxCardinality(0)
    om.MinCardinality(2)
    with pytest.raises(ValueError):
        om.MaxCardinality(-1)
    with pytest.raises(ValueError):
        om.ExactCardinality(-3)


def test_characteristic_kind_checked():
    p = om.Iri("http://e.org#p")
    om.Characteristic(p, om.TRANSITIVE)
    with pytest.raises(ValueError):
        om.Characteristic(p, "reflexive")


def test_document_base_and_count():
    doc = om.OntologyDocument(prefixes={"": "http://e.org/base"})
    assert doc.base == "http://e.org/base"
    assert axiom_count(doc) == 0
    doc.class_axioms.append(om.SubClassOf(
        om.Named(om.Iri("http://e.org#A")), om.Named(om.Iri("http://e.org#B"))))
    assert axiom_count(doc) == 1


def test_operand_order_preserved():
    a = om.Named(om.Iri("http://e.org#A"))
    b = om.Named(om.Iri("http://e.org#B"))
    assert om.UnionOf((a, b)).operands == (a, b)
    assert om.UnionOf((a, b)) != om.UnionOf((b, a))
