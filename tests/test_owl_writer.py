"""Byte-exact golden for the RDF/XML writer.

The document holds every element the writer emits: each class expression
(a restriction nested in a union, named and compound fillers), each
restriction kind and property axiom, and class and property assertions with
IRI, typed and plain literal values, a prefixed property and one whose
namespace the writer declares.
"""

import pytest

from owlfl import owl_model as om
from owlfl.owl_parser import parse_document
from owlfl.owl_writer import serialize_document

W = "http://example.org/wine#"
F = "http://example.org/food#"


def iri(local, ns=W):
    return om.Iri(ns + local)


def named(local, ns=W):
    return om.Named(iri(local, ns))


def restriction(prop, kind):
    return om.Restriction(iri(prop), kind)


# a general inclusion with a compound subclass has no RDF/XML form
COMPOUND_SUB = om.SubClassOf(om.UnionOf((named("Rose"), named("Blush"))),
                             named("Wine"))

DOC = om.OntologyDocument(
    prefixes={"": "http://example.org/wine", "food": "http://example.org/food",
              "xsd": "http://www.w3.org/2001/XMLSchema"},
    class_axioms=[
        om.SubClassOf(named("RedWine"), named("Wine")),
        om.SubClassOf(named("Wine"), named("PotableLiquid", F)),
        om.SubClassOf(named("Wine"), restriction(
            "hasMaker", om.AllValuesFrom(named("Winery")))),
        om.SubClassOf(named("Wine"), restriction(
            "hasColor", om.AllValuesFrom(om.UnionOf((named("Red"), named("White")))))),
        om.SubClassOf(named("Wine"), restriction(
            "hasGrape", om.SomeValuesFrom(named("Grape")))),
        om.SubClassOf(named("Wine"), restriction(
            "madeFrom", om.SomeValuesFrom(om.ComplementOf(named("Water"))))),
        om.SubClassOf(named("Merlot"), restriction(
            "hasColor", om.HasValue(iri("Red")))),
        om.SubClassOf(named("Merlot"), restriction(
            "hasSugar", om.HasValue(om.OwlLiteral("Dry")))),
        om.SubClassOf(named("Merlot"), restriction(
            "hasYear", om.HasValue(om.OwlLiteral("1999", "_integer")))),
        om.SubClassOf(named("Wine"), restriction("hasMaker", om.MaxCardinality(1))),
        om.SubClassOf(named("Wine"), restriction("hasGrape", om.MinCardinality(1))),
        om.SubClassOf(named("Wine"), restriction("hasColor", om.ExactCardinality(1))),
        om.SubClassOf(named("Wine"), om.UnionOf((named("Red"), restriction(
            "hasSugar", om.HasValue(om.OwlLiteral("Sweet")))))),
        COMPOUND_SUB,
        om.EquivalentClass(named("Wine"), named("Vin")),
        om.EquivalentClass(named("Fruit"), om.UnionOf((
            named("SweetFruit"), named("NonSweetFruit")))),
        om.EquivalentClass(named("Dessert"), om.IntersectionOf((
            named("Sweet"), restriction("hasCourse", om.HasValue(iri("Last")))))),
        om.EquivalentClass(named("NonWine"), om.ComplementOf(named("Wine"))),
        om.EquivalentClass(named("Odd"), om.ComplementOf(om.IntersectionOf((
            named("A"), named("B"))))),
        om.EquivalentClass(named("Color"), om.OneOf((
            iri("Red"), iri("White"), om.Iri("http://other.org/x#Rose")))),
        om.EquivalentClass(named("DryWine"), restriction(
            "hasSugar", om.HasValue(om.OwlLiteral("Dry")))),
        om.DisjointWith(iri("Female"), iri("Male")),
    ],
    property_axioms=[
        om.Domain(iri("locatedIn"), iri("Thing")),
        om.Range(iri("locatedIn"), iri("Region")),
        om.SubPropertyOf(iri("hasRed"), iri("hasColor")),
        om.EquivalentProperty(iri("madeBy"), iri("hasMaker")),
        om.InverseOf(iri("hasMaker"), iri("produces")),
        om.Characteristic(iri("hasMaker"), om.FUNCTIONAL),
        om.Characteristic(iri("produces"), om.INVERSE_FUNCTIONAL),
        om.Characteristic(iri("locatedIn"), om.TRANSITIVE),
        om.Characteristic(iri("adjacentTo"), om.SYMMETRIC),
    ],
    assertions=[
        om.ClassAssertion(iri("merlot7"), iri("Merlot")),
        om.ClassAssertion(iri("apple1"), iri("Fruit", F)),
        om.ClassAssertion(om.Iri('http://other.org/a&b#"q"'), iri("Merlot")),
        om.PropertyAssertion(iri("merlot7"), iri("hasMaker"), iri("chateau1")),
        om.PropertyAssertion(iri("merlot7"), iri("hasYear"),
                             om.OwlLiteral("1999", "_integer")),
        om.PropertyAssertion(iri("merlot7"), iri("hasPrice"),
                             om.OwlLiteral("9.5", "_double")),
        om.PropertyAssertion(iri("merlot7"), iri("isDry"),
                             om.OwlLiteral("true", "_boolean")),
        om.PropertyAssertion(iri("merlot7"), iri("hasLabel"),
                             om.OwlLiteral("Fish & <Chips>")),
        om.PropertyAssertion(iri("merlot7"), iri("hasCode"),
                             om.OwlLiteral("x7", "http://other.org/t#code")),
        om.PropertyAssertion(iri("apple1"), iri("pairsWith", F), iri("merlot7")),
        om.PropertyAssertion(iri("apple1"), om.Iri("http://other.org/p#weight"),
                             om.OwlLiteral("3", "_integer")),
    ],
)

GOLDEN = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns="http://example.org/wine#"
         xmlns:food="http://example.org/food#"
         xmlns:ns1="http://other.org/p#"
         xml:base="http://example.org/wine">
  <owl:Class rdf:about="#RedWine">
    <rdfs:subClassOf rdf:resource="#Wine"/>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf rdf:resource="http://example.org/food#PotableLiquid"/>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasMaker"/>
        <owl:allValuesFrom rdf:resource="#Winery"/>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasColor"/>
        <owl:allValuesFrom>
          <owl:Class>
            <owl:unionOf rdf:parseType="Collection">
              <owl:Class rdf:about="#Red"/>
              <owl:Class rdf:about="#White"/>
            </owl:unionOf>
          </owl:Class>
        </owl:allValuesFrom>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasGrape"/>
        <owl:someValuesFrom rdf:resource="#Grape"/>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#madeFrom"/>
        <owl:someValuesFrom>
          <owl:Class>
            <owl:complementOf rdf:resource="#Water"/>
          </owl:Class>
        </owl:someValuesFrom>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Merlot">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasColor"/>
        <owl:hasValue rdf:resource="#Red"/>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Merlot">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasSugar"/>
        <owl:hasValue>Dry</owl:hasValue>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Merlot">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasYear"/>
        <owl:hasValue rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">1999</owl:hasValue>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasMaker"/>
        <owl:maxCardinality rdf:datatype="http://www.w3.org/2001/XMLSchema#nonNegativeInteger">1</owl:maxCardinality>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasGrape"/>
        <owl:minCardinality rdf:datatype="http://www.w3.org/2001/XMLSchema#nonNegativeInteger">1</owl:minCardinality>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasColor"/>
        <owl:cardinality rdf:datatype="http://www.w3.org/2001/XMLSchema#nonNegativeInteger">1</owl:cardinality>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <rdfs:subClassOf>
      <owl:Class>
        <owl:unionOf rdf:parseType="Collection">
          <owl:Class rdf:about="#Red"/>
          <owl:Restriction>
            <owl:onProperty rdf:resource="#hasSugar"/>
            <owl:hasValue>Sweet</owl:hasValue>
          </owl:Restriction>
        </owl:unionOf>
      </owl:Class>
    </rdfs:subClassOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <owl:equivalentClass rdf:resource="#Vin"/>
  </owl:Class>
  <owl:Class rdf:about="#Fruit">
    <owl:unionOf rdf:parseType="Collection">
      <owl:Class rdf:about="#SweetFruit"/>
      <owl:Class rdf:about="#NonSweetFruit"/>
    </owl:unionOf>
  </owl:Class>
  <owl:Class rdf:about="#Dessert">
    <owl:intersectionOf rdf:parseType="Collection">
      <owl:Class rdf:about="#Sweet"/>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasCourse"/>
        <owl:hasValue rdf:resource="#Last"/>
      </owl:Restriction>
    </owl:intersectionOf>
  </owl:Class>
  <owl:Class rdf:about="#NonWine">
    <owl:complementOf rdf:resource="#Wine"/>
  </owl:Class>
  <owl:Class rdf:about="#Odd">
    <owl:equivalentClass>
      <owl:Class>
        <owl:complementOf>
          <owl:Class>
            <owl:intersectionOf rdf:parseType="Collection">
              <owl:Class rdf:about="#A"/>
              <owl:Class rdf:about="#B"/>
            </owl:intersectionOf>
          </owl:Class>
        </owl:complementOf>
      </owl:Class>
    </owl:equivalentClass>
  </owl:Class>
  <owl:Class rdf:about="#Color">
    <owl:oneOf rdf:parseType="Collection">
      <owl:Thing rdf:about="#Red"/>
      <owl:Thing rdf:about="#White"/>
      <owl:Thing rdf:about="http://other.org/x#Rose"/>
    </owl:oneOf>
  </owl:Class>
  <owl:Class rdf:about="#DryWine">
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasSugar"/>
        <owl:hasValue>Dry</owl:hasValue>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:Class rdf:about="#Female">
    <owl:disjointWith rdf:resource="#Male"/>
  </owl:Class>
  <owl:ObjectProperty rdf:about="#locatedIn">
    <rdfs:domain rdf:resource="#Thing"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#locatedIn">
    <rdfs:range rdf:resource="#Region"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#hasRed">
    <rdfs:subPropertyOf rdf:resource="#hasColor"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#madeBy">
    <owl:equivalentProperty rdf:resource="#hasMaker"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#hasMaker">
    <owl:inverseOf rdf:resource="#produces"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#hasMaker">
    <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#FunctionalProperty"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#produces">
    <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#InverseFunctionalProperty"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#locatedIn">
    <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#TransitiveProperty"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#adjacentTo">
    <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#SymmetricProperty"/>
  </owl:ObjectProperty>
  <owl:Thing rdf:about="#merlot7">
    <rdf:type rdf:resource="#Merlot"/>
  </owl:Thing>
  <owl:Thing rdf:about="#apple1">
    <rdf:type rdf:resource="http://example.org/food#Fruit"/>
  </owl:Thing>
  <owl:Thing rdf:about='http://other.org/a&amp;b#"q"'>
    <rdf:type rdf:resource="#Merlot"/>
  </owl:Thing>
  <owl:Thing rdf:about="#merlot7">
    <hasMaker rdf:resource="#chateau1"/>
  </owl:Thing>
  <owl:Thing rdf:about="#merlot7">
    <hasYear rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">1999</hasYear>
  </owl:Thing>
  <owl:Thing rdf:about="#merlot7">
    <hasPrice rdf:datatype="http://www.w3.org/2001/XMLSchema#double">9.5</hasPrice>
  </owl:Thing>
  <owl:Thing rdf:about="#merlot7">
    <isDry rdf:datatype="http://www.w3.org/2001/XMLSchema#boolean">true</isDry>
  </owl:Thing>
  <owl:Thing rdf:about="#merlot7">
    <hasLabel>Fish &amp; &lt;Chips&gt;</hasLabel>
  </owl:Thing>
  <owl:Thing rdf:about="#merlot7">
    <hasCode rdf:datatype="http://other.org/t#code">x7</hasCode>
  </owl:Thing>
  <owl:Thing rdf:about="#apple1">
    <food:pairsWith rdf:resource="#merlot7"/>
  </owl:Thing>
  <owl:Thing rdf:about="#apple1">
    <ns1:weight rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">3</ns1:weight>
  </owl:Thing>
</rdf:RDF>
"""


def test_writer_golden_bytes():
    assert serialize_document(DOC) == GOLDEN


def test_golden_re_parses_to_the_document():
    doc, diags = parse_document(GOLDEN)
    assert [d.code for d in diags] == ["unknown-type"]  # hasCode's datatype
    assert doc.class_axioms == [ax for ax in DOC.class_axioms
                                if ax != COMPOUND_SUB]
    assert doc.property_axioms == DOC.property_axioms
    assert doc.assertions == DOC.assertions


def test_opaque_datatype_is_written_back():
    # README's unknown-type row: a datatype with no builtin tag is kept
    text = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns="http://example.org/wine#" xml:base="http://example.org/wine">
  <owl:Thing rdf:about="#merlot7">
    <hasCode rdf:datatype="http://other.org/t#code">x7</hasCode>
    <hasYear rdf:datatype="#year">1999</hasYear>
  </owl:Thing>
</rdf:RDF>
"""
    doc, diags = parse_document(text)
    assert [d.code for d in diags] == ["unknown-type", "unknown-type"]
    out = serialize_document(doc)
    assert '<hasCode rdf:datatype="http://other.org/t#code">x7</hasCode>' in out
    assert '<hasYear rdf:datatype="#year">1999</hasYear>' in out
    back, _ = parse_document(out)
    assert back.assertions == doc.assertions


def test_property_outside_the_base_and_prefixes_is_written_exactly():
    # "ns1" is taken by the document, so the new namespaces get ns2, ns3
    prefixes = dict(DOC.prefixes, ns1="http://example.org/taken")
    props = [om.Iri("http://other.org/x#q"), om.Iri("http://other.org/y/r"),
             om.Iri("http://other.org/x#s"), iri("pairsWith", F), iri("q"),
             iri("cafe\u0301")]  # a combining accent is an XML name char
    # a base name that reads like a prefixed one is written in full
    subject = iri("food:x")
    doc = om.OntologyDocument(prefixes=prefixes, assertions=[
        om.PropertyAssertion(subject, p, iri("merlot7")) for p in props])
    text = serialize_document(doc)
    assert '         xmlns:ns1="http://example.org/taken#"\n' \
           '         xmlns:ns2="http://other.org/x#"\n' \
           '         xmlns:ns3="http://other.org/y/"\n' in text
    assert ["ns2:q", "ns3:r", "ns2:s", "food:pairsWith", "q",
            "cafe\u0301"] == [
        line.split()[0][1:] for line in text.splitlines()
        if "merlot7" in line]
    back, diags = parse_document(text)
    assert diags == []
    assert back.assertions == doc.assertions


@pytest.mark.parametrize("prop", [
    iri("a b"), iri("1a"), iri("food:x"), iri("a x='1'"),
    om.Iri("urn:isbn:p"), om.Iri("http://other.org/x#")],
    ids=["space", "digit-first", "colon", "attribute", "no-slash-or-hash",
         "empty"])
def test_property_without_an_element_name_is_refused(prop):
    doc = om.OntologyDocument(prefixes=dict(DOC.prefixes), assertions=[
        om.PropertyAssertion(iri("a"), prop, iri("b"))])
    with pytest.raises(TypeError, match="has no RDF/XML element name"):
        serialize_document(doc)


# an attribute value is quoted with " unless it holds " and not '; text
# escapes & < > only; in attributes a newline, carriage return and tab are
# character references
ESCAPE_DOC = om.OntologyDocument(prefixes={"": "http://example.org/wine"},
                                 assertions=[
    om.ClassAssertion(iri("a&b<c>\"d'e"), iri('say"hi"')),
    om.ClassAssertion(om.Iri("urn:x\n1\r2\t3"), iri("it's")),
    om.PropertyAssertion(iri("w"), iri("note"),
                         om.OwlLiteral("a & b < c > d \" e ' f\ng\rh\ti")),
])

ESCAPE_BODY = """\
  <owl:Thing rdf:about="#a&amp;b&lt;c&gt;&quot;d'e">
    <rdf:type rdf:resource='#say"hi"'/>
  </owl:Thing>
  <owl:Thing rdf:about="urn:x&#10;1&#13;2&#9;3">
    <rdf:type rdf:resource="#it's"/>
  </owl:Thing>
  <owl:Thing rdf:about="#w">
    <note>a &amp; b &lt; c &gt; d " e ' f
g\rh\ti</note>
  </owl:Thing>
</rdf:RDF>
"""


def test_attribute_and_text_escaping():
    text = serialize_document(ESCAPE_DOC)
    assert text.endswith('xml:base="http://example.org/wine">\n' + ESCAPE_BODY)


@pytest.mark.parametrize("value", [
    "", "plain", "a&b", "<tag>", 'say "hi"', "it's", "both \" and '",
    "line\nbreak", "cr\rlf", "tab\there", "&amp; already", "]]>"])
def test_escapes_match_saxutils(value):
    from xml.sax import saxutils

    from owlfl import owl_writer
    assert owl_writer.escape(value) == saxutils.escape(value)
    assert owl_writer.quoteattr(value) == saxutils.quoteattr(value)
