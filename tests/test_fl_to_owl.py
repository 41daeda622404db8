import hashlib
import random

import pytest

from owlfl import owl_model as om
from owlfl.fl_to_owl import recognize_templates, translate_program
from owlfl.flogic import FlProgram, parse_program
from owlfl.owl_parser import parse_document
from owlfl.owl_to_fl import TranslationOptions, translate_ontology
from owlfl.owl_writer import serialize_document

from _table1 import ROWS, wrap
from test_owl_model import axiom_count

BASE = "http://example.org/wine"


def iri(local):
    return om.Iri(BASE + "#" + local)


def named(local):
    return om.Named(iri(local))


def build(text):
    program, diags = parse_program(text, {"": BASE})
    assert not diags, [d.message for d in diags]
    return translate_program(program)


def matches_of(text):
    program, diags = parse_program(text, {"": BASE})
    assert not diags
    m, d = recognize_templates(program)
    return m, d


def ids(matches):
    return [m.template_id for m in matches]


# --- template recognition ----------------------------------------------------


def test_subclass_fact():
    doc, diags = build("RedWine::Wine.")
    assert doc.class_axioms == [om.SubClassOf(named("RedWine"),
                                              named("Wine"))]
    assert not diags


def test_oneof_group_consumes_member_facts():
    text = ("White:WineColor.\nRose:WineColor.\nRed:WineColor.\n"
            "oneOf(WineColor, [White,Rose,Red]).")
    doc, diags = build(text)
    assert doc.class_axioms == [om.EquivalentClass(
        named("WineColor"), om.OneOf((iri("White"), iri("Rose"),
                                      iri("Red"))))]
    assert doc.assertions == [] and not diags
    m, _ = matches_of(text)
    assert ids(m) == ["oneof-definition"]
    assert len(m[0].consumed) == 4


def test_union_definition_group():
    doc, diags = build(
        "Fruit :=: (SweetFruit ; NonSweetFruit).\n"
        "?X:Fruit :- ?X:SweetFruit.\n"
        "?X:Fruit :- ?X:NonSweetFruit.\n"
        "?X:SweetFruit :- ?X:Fruit, \\naf ?X:NonSweetFruit.\n"
        "?X:NonSweetFruit :- ?X:Fruit, \\naf ?X:SweetFruit.")
    assert doc.class_axioms == [om.EquivalentClass(
        named("Fruit"),
        om.UnionOf((named("SweetFruit"), named("NonSweetFruit"))))]
    assert not diags  # whole group absorbed, nothing lossy left over


def test_intersection_definition_group():
    doc, diags = build(
        "WhiteBurgundy :=: (Burgundy , WhiteWine).\n"
        "?X:WhiteBurgundy :- ?X:Burgundy, ?X:WhiteWine.\n"
        "?X:Burgundy :- ?X:WhiteBurgundy.\n"
        "?X:WhiteWine :- ?X:WhiteBurgundy.")
    assert doc.class_axioms == [om.EquivalentClass(
        named("WhiteBurgundy"),
        om.IntersectionOf((named("Burgundy"), named("WhiteWine"))))]
    assert not diags


def test_complement_definition_group():
    doc, diags = build(
        "NonConsumableThing :=: (_object - ConsumableThing).\n"
        "?X:NonConsumableThing :- ?X:_object, \\naf ?X:ConsumableThing.")
    assert doc.class_axioms == [om.EquivalentClass(
        named("NonConsumableThing"),
        om.ComplementOf(named("ConsumableThing")))]
    assert not diags


def test_named_equivalence_group():
    doc, diags = build(
        "Wine :=: Vin.\n"
        "?X:Wine :- ?X:Vin.\n?X:Vin :- ?X:Wine.\n"
        "?X::Wine :- ?X::Vin.\n?X::Vin :- ?X::Wine.")
    assert doc.class_axioms == [om.EquivalentClass(named("Wine"),
                                                   named("Vin"))]
    assert not diags


def test_avf_dual_pair():
    doc, diags = build(
        "Wine::_object[hasMaker *=> Winery].\n"
        "?Y:Winery :- ?X:Wine, ?X[hasMaker -> ?Y].")
    assert doc.class_axioms == [om.SubClassOf(
        named("Wine"),
        om.Restriction(iri("hasMaker"), om.AllValuesFrom(named("Winery"))))]
    assert not diags


def test_transitive_and_symmetric_recognition():
    doc, diags = build(
        "'TransitiveProperty'(locatedIn).\n"
        "?X[?P -> ?Z] :- 'TransitiveProperty'(?P), "
        "?X[?P -> ?Y], ?Y[?P -> ?Z].\n"
        "'SymmetricProperty'(adjacentRegion).\n"
        "?X[?P -> ?Y] :- 'SymmetricProperty'(?P), ?Y[?P -> ?X].")
    assert doc.property_axioms == [
        om.Characteristic(iri("locatedIn"), om.TRANSITIVE),
        om.Characteristic(iri("adjacentRegion"), om.SYMMETRIC),
    ]
    assert not diags


def test_inverse_pair_vs_equivalent_pair():
    inv, _ = build("?X[producesWine -> ?Y] :- ?Y[hasMaker -> ?X].\n"
                   "?X[hasMaker -> ?Y] :- ?Y[producesWine -> ?X].")
    assert inv.property_axioms == [om.InverseOf(iri("producesWine"),
                                                iri("hasMaker"))]
    eq, _ = build("?X[hasChild -> ?Y] :- ?X[hasOffspring -> ?Y].\n"
                  "?X[hasOffspring -> ?Y] :- ?X[hasChild -> ?Y].")
    assert eq.property_axioms == [om.EquivalentProperty(iri("hasChild"),
                                                        iri("hasOffspring"))]


def test_disjoint_reverses_printed_argument_order():
    doc, _ = build("disjoint_classes(Male, Female).")
    assert doc.class_axioms == [om.DisjointWith(iri("Female"), iri("Male"))]


def test_some_values_and_has_value_facts():
    doc, _ = build("someValuesFrom(Wine, hasMaker, Winery).\n"
                   "hasValue(Burgundy, hasSugar, Dry).")
    assert doc.class_axioms == [
        om.SubClassOf(named("Wine"), om.Restriction(
            iri("hasMaker"), om.SomeValuesFrom(named("Winery")))),
        om.SubClassOf(named("Burgundy"), om.Restriction(
            iri("hasSugar"), om.HasValue(iri("Dry")))),
    ]


def test_inverse_functional_fact():
    doc, _ = build("inverseFunctional(producesWine).")
    assert doc.property_axioms == [
        om.Characteristic(iri("producesWine"), om.INVERSE_FUNCTIONAL)]


def test_signature_forms():
    doc, _ = build("Country[locatedIn *=> Region].\n"
                   "_object[hasColor *=> WineColor].\n"
                   "_object[hasVintageYear{1:1} *=> _object].\n"
                   "Person[hasParent{0:2} *=> _object].\n"
                   "Wine[hasMaker{1:*} *=> _object].\n"
                   "Person[hasSpouse{1:1} *=> _object].")
    assert doc.property_axioms == [
        om.Domain(iri("locatedIn"), iri("Country")),
        om.Range(iri("locatedIn"), iri("Region")),
        om.Range(iri("hasColor"), iri("WineColor")),
        om.Characteristic(iri("hasVintageYear"), om.FUNCTIONAL),
    ]
    assert doc.class_axioms == [
        om.SubClassOf(named("Person"), om.Restriction(
            iri("hasParent"), om.MaxCardinality(2))),
        om.SubClassOf(named("Wine"), om.Restriction(
            iri("hasMaker"), om.MinCardinality(1))),
        om.SubClassOf(named("Person"), om.Restriction(
            iri("hasSpouse"), om.ExactCardinality(1))),
    ]


def test_compound_range_without_domain_is_left_over():
    doc, diags = build("_object[hasColor *=> (Red ; White)].")
    assert doc.property_axioms == []
    assert [d.message for d in diags] == [
        "no OWL form for: _object[hasColor *=> (Red ; White)]."]


@pytest.mark.parametrize("text", [
    "C[p *=> (A ; B)].",
    "D[q *=> (E - F)].",
    "C[p{0:3} *=> D].",
    "E[q{1:1} *=> (A ; B)].",
    "_object[s{1:1} *=> G].",
])
def test_signature_whose_range_has_no_owl_form_is_left_over(text):
    # the lowering names a range, and puts _object under a cardinality; the
    # engine checks any other range, so OWL would silently lose it
    doc, diags = build(text)
    assert (doc.class_axioms, doc.property_axioms) == ([], [])
    assert [(d.code, d.message) for d in diags] == [
        ("unrepresentable-in-owl", f"no OWL form for: {text}")]


@pytest.mark.parametrize("text", [
    "A::_object[p *=> (B - C)].",
    "A::_object[p *=> ?X].",
    "A :=: (B ; (C - D)).",
    "A :=: (B ; ?X).",
    "A :=: (B , (_object - ?X)).",
])
def test_class_without_owl_form_is_left_over(text):
    # a difference from a class other than _object, or a variable class
    doc, diags = build(text)
    assert doc.class_axioms == []
    assert [(d.code, d.message) for d in diags] == [
        ("unrepresentable-in-owl", f"no OWL form for: {text}")]


def test_subproperty_rule():
    doc, _ = build("?X[hasWineDescriptor -> ?Y] :- ?X[hasColor -> ?Y].")
    assert doc.property_axioms == [
        om.SubPropertyOf(iri("hasColor"), iri("hasWineDescriptor"))]


def test_membership_rule_becomes_subclassof():
    doc, _ = build("?X:Wine :- ?X:RedWine.\n"
                   "?X:GoodWine :- ?X:RedWine, ?X:DryWine.")
    assert doc.class_axioms == [
        om.SubClassOf(named("RedWine"), named("Wine")),
        om.SubClassOf(om.IntersectionOf((named("RedWine"),
                                         named("DryWine"))),
                      named("GoodWine")),
    ]


def test_complement_rule_without_equiv():
    doc, _ = build("?X:Visible :- ?X:_object, \\naf ?X:Hidden.")
    assert doc.class_axioms == [
        om.SubClassOf(om.ComplementOf(named("Hidden")), named("Visible"))]


def test_abox_translation():
    doc, _ = build("merlot7:RedWine.\nmerlot7[hasMaker -> chateau1].\n"
                   "grape1:WineGrape[hasColor -> 'Red'].")
    assert doc.assertions == [
        om.ClassAssertion(iri("merlot7"), iri("RedWine")),
        om.PropertyAssertion(iri("merlot7"), iri("hasMaker"),
                             iri("chateau1")),
        om.ClassAssertion(iri("grape1"), iri("WineGrape")),
        om.PropertyAssertion(iri("grape1"), iri("hasColor"),
                             om.OwlLiteral("Red", "_string")),
    ]


def test_checker_library_is_silently_absorbed():
    m, diags = matches_of(
        "check_disjoint_constraints :- disjoint_classes(?C1, ?C2), "
        "?X:?C1, ?X:?C2.\n"
        "check_all_constraints :- check_disjoint_constraints.")
    assert ids(m) == ["checker-library"]
    assert not diags


# --- lossy groups and leftovers ----------------------------------------------


def test_lloyd_topor_aux_reported_lossy():
    doc, diags = build(
        "'_lt_aux1'(?X) :- ?X[p -> ?Y], \\naf ?Y:F.\n"
        "?X:D :- ?X:_object, \\naf '_lt_aux1'(?X).")
    assert axiom_count(doc) == 0
    assert [d.code for d in diags] == ["lossy-origin"]
    assert all(d.severity == "info" for d in diags)


def test_orphan_case_split_reported_lossy():
    _, diags = build("?X:C1 :- ?X:D, \\naf ?X:C2.\n"
                     "?X:C2 :- ?X:D, \\naf ?X:C1.")
    assert [d.code for d in diags] == ["lossy-origin"]


@pytest.mark.parametrize("rule", [
    # tautologies that only look like the closure rules
    "?X[?P -> ?Y] :- 'SymmetricProperty'(?P), ?X[?P -> ?Y].",
    "?X[?P -> ?Z] :- 'TransitiveProperty'(?P), ?X[?P -> ?Y], ?X[?P -> ?Z].",
], ids=["symmetric", "transitive"])
def test_near_miss_closure_rule_is_left_over(rule):
    m, diags = matches_of(rule)
    assert m == []
    assert [(d.code, d.message) for d in diags] == \
        [("unrepresentable-in-owl", f"no OWL form for: {rule}")]


@pytest.mark.parametrize("text, claimed", [
    ("?X[hasColor -> ?X] :- ?X[hasTint -> ?X].", []),
    ("A::_object[p *=> B].\n?X:B :- ?X:A, ?X[p -> ?X].", ["allValuesFrom"]),
], ids=["sub-property", "allValuesFrom-dual"])
def test_rule_with_one_variable_for_two_is_left_over(text, claimed):
    m, diags = matches_of(text)
    assert ids(m) == claimed
    rule = text.splitlines()[-1]
    assert [(d.code, d.message) for d in diags] == \
        [("unrepresentable-in-owl", f"no OWL form for: {rule}")]


def test_closure_rule_with_other_variable_names_is_claimed():
    m, diags = matches_of(
        "?A[?Q -> ?C] :- TransitiveProperty(?Q), ?A[?Q -> ?B], ?B[?Q -> ?C].\n"
        "?B[?Q -> ?A] :- SymmetricProperty(?Q), ?A[?Q -> ?B].")
    assert ids(m) == ["generic-transitive-rule", "generic-symmetric-rule"]
    assert not diags


def test_unrepresentable_leftover_warns():
    _, diags = build("p(a, b, c, d).")
    assert len(diags) == 1
    assert diags[0].code == "unrepresentable-in-owl"
    assert diags[0].severity == "warning"
    assert "p(a, b, c, d)." in diags[0].message


# --- one program with every template -----------------------------------------

# Each template group, the lossy groups and leftovers of several kinds: a
# second dual rule for one allValuesFrom signature, a lone inverse-orientation
# rule, a definition whose operands are not all atoms, an equivalence with a
# difference that is not a complement, a membership fact outside its oneOf.
PIN_PROGRAM = (
    "check_disjoint_constraints :- disjoint_classes(?C1, ?C2), "
    "?X:?C1, ?X:?C2.\n"
    "check_all_constraints :- check_disjoint_constraints.\n"
    "White:WineColor.\n"
    "Red:WineColor.\n"
    "Red:Colour.\n"
    "oneOf(WineColor, [White, Red]).\n"
    "Fruit :=: (Sweet ; Sour).\n"
    "?X:Fruit :- ?X:Sweet.\n"
    "?X:Fruit :- ?X:Sour.\n"
    "?X:Sweet :- ?X:Fruit, \\naf ?X:Sour.\n"
    "?X:Sour :- ?X:Fruit, \\naf ?X:Sweet.\n"
    "WhiteBurgundy :=: (Burgundy , WhiteWine).\n"
    "?X:WhiteBurgundy :- ?X:Burgundy, ?X:WhiteWine.\n"
    "?X:Burgundy :- ?X:WhiteBurgundy.\n"
    "?X:WhiteWine :- ?X:WhiteBurgundy.\n"
    "NonFood :=: (_object - Food).\n"
    "?X:NonFood :- ?X:_object, \\naf ?X:Food.\n"
    "Wine :=: Vin.\n"
    "?X:Wine :- ?X:Vin.\n"
    "?X:Vin :- ?X:Wine.\n"
    "?X::Wine :- ?X::Vin.\n"
    "?X::Vin :- ?X::Wine.\n"
    "Merlot :=: Vino.\n"
    "Mixed :=: (A ; (B , C)).\n"
    "Odd :=: (Left - Right).\n"
    "Wine::_object[hasMaker *=> Winery].\n"
    "?Y:Winery :- ?X:Wine, ?X[hasMaker -> ?Y].\n"
    "?Y:Winery :- ?X:Wine, ?X[hasMaker -> ?Y].\n"
    "'TransitiveProperty'(locatedIn).\n"
    "?X[?P -> ?Z] :- 'TransitiveProperty'(?P), ?X[?P -> ?Y], ?Y[?P -> ?Z].\n"
    "'SymmetricProperty'(adjacent).\n"
    "?X[?P -> ?Y] :- 'SymmetricProperty'(?P), ?Y[?P -> ?X].\n"
    "?X[producesWine -> ?Y] :- ?Y[hasMaker -> ?X].\n"
    "?X[hasMaker -> ?Y] :- ?Y[producesWine -> ?X].\n"
    "?X[hasChild -> ?Y] :- ?X[hasOffspring -> ?Y].\n"
    "?X[hasOffspring -> ?Y] :- ?X[hasChild -> ?Y].\n"
    "?X[partOf -> ?Y] :- ?Y[hasPart -> ?X].\n"
    "someValuesFrom(Wine, hasMaker, Winery).\n"
    "hasValue(Burgundy, hasSugar, Dry).\n"
    "disjoint_classes(Male, Female).\n"
    "inverseFunctional(producesWine).\n"
    "Country[locatedIn *=> Region].\n"
    "_object[hasColor *=> WineColor].\n"
    "_object[hasVintageYear{1:1} *=> _object].\n"
    "_object[hasPet{2:3} *=> _object].\n"
    "Person[hasParent{0:2} *=> _object].\n"
    "Wine[hasMaker{1:*} *=> _object].\n"
    "Person[hasSpouse{1:1} *=> _object].\n"
    "?X[hasWineDescriptor -> ?Y] :- ?X[hasColor -> ?Y].\n"
    "'_lt_aux1'(?X) :- ?X[p -> ?Y], \\naf ?Y:F.\n"
    "?X:D :- ?X:_object, \\naf '_lt_aux1'(?X).\n"
    "?X:C1 :- ?X:D2, \\naf ?X:C2.\n"
    "?X:C2 :- ?X:D2, \\naf ?X:C1.\n"
    "?X:Wine :- ?X:RedWine.\n"
    "?X:GoodWine :- ?X:RedWine, ?X:DryWine.\n"
    "?X:Visible :- ?X:_object, \\naf ?X:Hidden.\n"
    "RedWine::Wine.\n"
    "merlot7:RedWine.\n"
    "merlot7[hasMaker -> chateau1].\n"
    "grape1:WineGrape[hasColor -> 'Red'].\n"
    "p(a, b, c, d).\n"
)

PIN_PRINTED = [
    ("checker-library", (), (0, 1)),
    ("oneof-definition", (("cls", "WineColor"),), (2, 3, 5)),
    ("union-definition", (("cls", "Fruit"),), (6, 7, 8, 9, 10)),
    ("intersection-definition", (("cls", "WhiteBurgundy"),), (11, 12, 13, 14)),
    ("complement-definition", (("cls", "NonFood"),), (15, 16)),
    ("named-equivalence", (("a", "Wine"), ("b", "Vin")), (17, 18, 19, 20, 21)),
    ("named-equivalence", (("a", "Merlot"), ("b", "Vino")), (22,)),
    ("union-definition", (("cls", "Mixed"),), (23,)),
    ("allValuesFrom", (("cls", "Wine"), ("prop", "hasMaker")), (25, 26)),
    ("transitiveProperty", (("prop", "locatedIn"),), (28,)),
    ("generic-transitive-rule", (), (29,)),
    ("symmetricProperty", (("prop", "adjacent"),), (30,)),
    ("generic-symmetric-rule", (), (31,)),
    ("inverse-of", (("a", "producesWine"), ("b", "hasMaker")), (32, 33)),
    ("equivalent-property", (("a", "hasChild"), ("b", "hasOffspring")),
     (34, 35)),
    ("someValuesFrom", (("cls", "Wine"), ("prop", "hasMaker")), (37,)),
    ("hasValue", (("cls", "Burgundy"), ("prop", "hasSugar")), (38,)),
    ("disjoint-classes", (("a", "Female"), ("b", "Male")), (39,)),
    ("inverse-functional", (("prop", "producesWine"),), (40,)),
    ("domain-range", (("cls", "Country"), ("prop", "locatedIn")), (41,)),
    ("range", (("prop", "hasColor"),), (42,)),
    ("functional", (("prop", "hasVintageYear"),), (43,)),
    ("cardinality-restriction", (("cls", "Person"), ("prop", "hasParent")),
     (45,)),
    ("cardinality-restriction", (("cls", "Wine"), ("prop", "hasMaker")),
     (46,)),
    ("cardinality-restriction", (("cls", "Person"), ("prop", "hasSpouse")),
     (47,)),
    ("sub-property", (("sub", "hasColor"), ("super", "hasWineDescriptor")),
     (48,)),
    ("lloyd-topor-aux", (), (49, 50)),
    ("case-split-group", (), (51, 52)),
    ("membership-rule", (("cls", "Wine"),), (53,)),
    ("membership-rule", (("cls", "GoodWine"),), (54,)),
    ("complement-subclass", (("cls", "Visible"),), (55,)),
    ("subclass-fact", (("sub", "RedWine"), ("super", "Wine")), (56,)),
    ("class-assertion", (("cls", "Colour"), ("ind", "Red")), (4,)),
    ("class-assertion", (("cls", "RedWine"), ("ind", "merlot7")), (57,)),
    ("property-assertion", (("prop", "hasMaker"), ("subj", "merlot7")), (58,)),
    ("class-assertion", (("cls", "WineGrape"), ("ind", "grape1")), (59,)),
    ("property-assertion", (("prop", "hasColor"), ("subj", "grape1")), (60,)),
]
PIN_REVERSED = [
    ("checker-library", (), (60, 61)),
    ("oneof-definition", (("cls", "WineColor"),), (56, 58, 59)),
    ("union-definition", (("cls", "Mixed"),), (38,)),
    ("named-equivalence", (("a", "Merlot"), ("b", "Vino")), (39,)),
    ("named-equivalence", (("a", "Wine"), ("b", "Vin")), (40, 41, 42, 43, 44)),
    ("complement-definition", (("cls", "NonFood"),), (45, 46)),
    ("intersection-definition", (("cls", "WhiteBurgundy"),), (47, 48, 49, 50)),
    ("union-definition", (("cls", "Fruit"),), (51, 52, 53, 54, 55)),
    ("allValuesFrom", (("cls", "Wine"), ("prop", "hasMaker")), (34, 36)),
    ("transitiveProperty", (("prop", "locatedIn"),), (33,)),
    ("generic-transitive-rule", (), (32,)),
    ("symmetricProperty", (("prop", "adjacent"),), (31,)),
    ("generic-symmetric-rule", (), (30,)),
    ("equivalent-property", (("a", "hasOffspring"), ("b", "hasChild")),
     (26, 27)),
    ("inverse-of", (("a", "hasMaker"), ("b", "producesWine")), (28, 29)),
    ("inverse-functional", (("prop", "producesWine"),), (21,)),
    ("disjoint-classes", (("a", "Female"), ("b", "Male")), (22,)),
    ("hasValue", (("cls", "Burgundy"), ("prop", "hasSugar")), (23,)),
    ("someValuesFrom", (("cls", "Wine"), ("prop", "hasMaker")), (24,)),
    ("cardinality-restriction", (("cls", "Person"), ("prop", "hasSpouse")),
     (14,)),
    ("cardinality-restriction", (("cls", "Wine"), ("prop", "hasMaker")),
     (15,)),
    ("cardinality-restriction", (("cls", "Person"), ("prop", "hasParent")),
     (16,)),
    ("functional", (("prop", "hasVintageYear"),), (18,)),
    ("range", (("prop", "hasColor"),), (19,)),
    ("domain-range", (("cls", "Country"), ("prop", "locatedIn")), (20,)),
    ("sub-property", (("sub", "hasColor"), ("super", "hasWineDescriptor")),
     (13,)),
    ("lloyd-topor-aux", (), (11, 12)),
    ("case-split-group", (), (9, 10)),
    ("complement-subclass", (("cls", "Visible"),), (6,)),
    ("membership-rule", (("cls", "GoodWine"),), (7,)),
    ("membership-rule", (("cls", "Wine"),), (8,)),
    ("subclass-fact", (("sub", "RedWine"), ("super", "Wine")), (5,)),
    ("property-assertion", (("prop", "hasColor"), ("subj", "grape1")), (1,)),
    ("class-assertion", (("cls", "WineGrape"), ("ind", "grape1")), (2,)),
    ("property-assertion", (("prop", "hasMaker"), ("subj", "merlot7")), (3,)),
    ("class-assertion", (("cls", "RedWine"), ("ind", "merlot7")), (4,)),
    ("class-assertion", (("cls", "Colour"), ("ind", "Red")), (57,)),
]

PIN_LOSSY = [
    ("info", "lossy-origin",
     "Lloyd-Topor auxiliary rules come from a lowered universal restriction "
     "and are not reconstructed as OWL axioms"),
    ("info", "lossy-origin",
     "case-split rules come from a lowered disjunctive subsumer and are not "
     "reconstructed as OWL axioms"),
]
PIN_LEFTOVERS = [
    ("warning", "unrepresentable-in-owl",
     "no OWL form for: Odd :=: (Left - Right)."),
    ("warning", "unrepresentable-in-owl",
     "no OWL form for: ?Y:Winery :- ?X:Wine, ?X[hasMaker -> ?Y]."),
    ("warning", "unrepresentable-in-owl",
     "no OWL form for: ?X[partOf -> ?Y] :- ?Y[hasPart -> ?X]."),
    ("warning", "unrepresentable-in-owl",
     "no OWL form for: _object[hasPet{2:3} *=> _object]."),
    ("warning", "unrepresentable-in-owl",
     "no OWL form for: p(a, b, c, d)."),
]


@pytest.mark.parametrize("order", ["printed", "reversed"])
def test_every_template_matches_in_order(order):
    program, diags = parse_program(PIN_PROGRAM)
    assert not diags
    rules = program.rules
    expected, leftovers = PIN_PRINTED, PIN_LEFTOVERS
    if order == "reversed":
        rules = tuple(reversed(rules))
        expected, leftovers = PIN_REVERSED, PIN_LEFTOVERS[::-1]
    m, d = recognize_templates(FlProgram(rules, {**program.prefixes,
                                                 "": BASE}))
    assert [(x.template_id, x.bindings, x.consumed) for x in m] == expected
    assert [(x.severity, x.code, x.message) for x in d] == \
        PIN_LOSSY + leftovers


# Definition groups whose members head a different class than the definition
# names (union case splits and intersection projections head an operand; a
# `::` rule of a named equivalence heads either name), beside decoys that
# mention the same classes but fit no group.
GROUP_PROGRAM = (
    "?X:Sweet :- ?X:Fruit, \\naf ?X:Sour.\n"
    "?X:Sour :- ?X:Fruit, \\naf ?X:Sweet.\n"
    "?X:Sweet :- ?X:Fruit, \\naf ?X:Bitter.\n"
    "?X:Fruit :- ?X:Sweet.\n"
    "?X:Fruit :- ?X:Apple.\n"
    "Fruit :=: (Sweet ; Sour).\n"
    "?X:Fruit :- ?X:Sour.\n"
    "?X:Burgundy :- ?X:WhiteBurgundy.\n"
    "?X:WhiteWine :- ?X:Burgundy.\n"
    "WhiteBurgundy :=: (Burgundy , WhiteWine).\n"
    "?X:WhiteBurgundy :- ?X:Burgundy, ?X:WhiteWine.\n"
    "?X:WhiteWine :- ?X:WhiteBurgundy.\n"
    "?X:WhiteBurgundy :- ?X:Burgundy.\n"
    "?X::Wine :- ?X::Vin.\n"
    "?X::Wine :- ?X::Beer.\n"
    "Wine :=: Vin.\n"
    "?X:Vin :- ?X:Wine.\n"
    "?X::Vin :- ?X::Wine.\n"
    "NonFood :=: (_object - Food).\n"
    "?X:NonFood :- ?X:_object, \\naf ?X:Drink.\n"
    "?X:NonFood :- ?X:_object, \\naf ?X:Food.\n"
    "Red:WineColor.\n"
    "Green:WineColor.\n"
    "oneOf(WineColor, [White, Red]).\n"
    "White:WineColor.\n"
    "?Y:Winery :- ?X:Wine, ?X[hasColor -> ?Y].\n"
    "Wine::_object[hasMaker *=> Winery].\n"
    "?Y:Winery :- ?X:Wine, ?X[hasMaker -> ?Y].\n"
)
# consumed rules are given by their line in GROUP_PROGRAM
GROUP_MATCHES = [
    ("oneof-definition", (("cls", "WineColor"),), (21, 23, 24)),
    ("union-definition", (("cls", "Fruit"),), (0, 1, 3, 5, 6)),
    ("intersection-definition", (("cls", "WhiteBurgundy"),), (7, 9, 10, 11)),
    ("named-equivalence", (("a", "Wine"), ("b", "Vin")), (13, 15, 16, 17)),
    ("complement-definition", (("cls", "NonFood"),), (18, 20)),
    ("allValuesFrom", (("cls", "Wine"), ("prop", "hasMaker")), (26, 27)),
    ("case-split-group", (), (2,)),
    ("membership-rule", (("cls", "Fruit"),), (4,)),
    ("membership-rule", (("cls", "WhiteWine"),), (8,)),
    ("membership-rule", (("cls", "WhiteBurgundy"),), (12,)),
    ("complement-subclass", (("cls", "NonFood"),), (19,)),
    ("class-assertion", (("cls", "WineColor"), ("ind", "Green")), (22,)),
]
# the order in which each rule order reports GROUP_MATCHES
GROUP_ORDERS = {
    "printed": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    "reversed": [0, 4, 3, 2, 1, 5, 6, 10, 9, 8, 7, 11],
    "shuffled": [0, 2, 1, 3, 4, 5, 6, 8, 10, 9, 7, 11],
}


@pytest.mark.parametrize("order", sorted(GROUP_ORDERS))
def test_group_members_found_under_every_key(order):
    program, diags = parse_program(GROUP_PROGRAM)
    assert not diags
    lines = list(range(len(program.rules)))
    if order == "reversed":
        lines.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(lines)
    m, d = recognize_templates(
        FlProgram(tuple(program.rules[i] for i in lines), {"": BASE}))
    assert [(x.template_id, x.bindings,
             tuple(sorted(lines[i] for i in x.consumed))) for x in m] == \
        [GROUP_MATCHES[k] for k in GROUP_ORDERS[order]]
    assert sorted(x.message for x in d) == [
        PIN_LOSSY[1][2],
        "no OWL form for: ?X::Wine :- ?X::Beer.",
        "no OWL form for: ?Y:Winery :- ?X:Wine, ?X[hasColor -> ?Y].",
    ]


# Membership and attribute facts interleaved with facts and rules that
# earlier passes claim (oneOf members, the `::` pair of a named equivalence,
# the rules of a domain-range signature), and with two facts no pass takes.
# The assertions keep the order of their facts across the two kinds.
ORDER_PROGRAM = (
    "a:Wine.\n"
    "a[hasColor -> Red].\n"
    "Red:WineColor.\n"
    "b[hasMaker -> m1].\n"
    "oneOf(WineColor, [Red, White]).\n"
    "White:WineColor.\n"
    "b:Wine.\n"
    "?X:Vin :- ?X:Wine.\n"
    "c:Vin.\n"
    "Wine :=: Vin.\n"
    "c[hasColor -> 'rouge'].\n"
    "?X:Wine :- ?X:Vin.\n"
    "d:_object.\n"
    "?X:Wine :- ?X[hasMaker -> ?Y].\n"
    "d[hasMaker -> 3].\n"
    "Wine[hasMaker *=> Winery].\n"
    "Green:WineColor.\n"
    "?Y:Winery :- ?X[hasMaker -> ?Y].\n"
    "m1:Winery.\n"
    "e[hasMaker -> ?V].\n"
    "m1[locatedIn -> 'Bordeaux'].\n"
)
ORDER_MATCHES = [
    ("oneof-definition", (("cls", "WineColor"),), (2, 4, 5)),
    ("named-equivalence", (("a", "Wine"), ("b", "Vin")), (7, 9, 11)),
    ("domain-range", (("cls", "Wine"), ("prop", "hasMaker")), (13, 15, 17)),
    ("class-assertion", (("cls", "Wine"), ("ind", "a")), (0,)),
    ("property-assertion", (("prop", "hasColor"), ("subj", "a")), (1,)),
    ("property-assertion", (("prop", "hasMaker"), ("subj", "b")), (3,)),
    ("class-assertion", (("cls", "Wine"), ("ind", "b")), (6,)),
    ("class-assertion", (("cls", "Vin"), ("ind", "c")), (8,)),
    ("property-assertion", (("prop", "hasColor"), ("subj", "c")), (10,)),
    ("property-assertion", (("prop", "hasMaker"), ("subj", "d")), (14,)),
    ("class-assertion", (("cls", "WineColor"), ("ind", "Green")), (16,)),
    ("class-assertion", (("cls", "Winery"), ("ind", "m1")), (18,)),
    ("property-assertion", (("prop", "locatedIn"), ("subj", "m1")), (20,)),
]
ORDER_RDF_XML = """\
<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns="http://example.org/wine#"
         xml:base="http://example.org/wine">
  <owl:Class rdf:about="#WineColor">
    <owl:oneOf rdf:parseType="Collection">
      <owl:Thing rdf:about="#Red"/>
      <owl:Thing rdf:about="#White"/>
    </owl:oneOf>
  </owl:Class>
  <owl:Class rdf:about="#Wine">
    <owl:equivalentClass rdf:resource="#Vin"/>
  </owl:Class>
  <owl:ObjectProperty rdf:about="#hasMaker">
    <rdfs:domain rdf:resource="#Wine"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="#hasMaker">
    <rdfs:range rdf:resource="#Winery"/>
  </owl:ObjectProperty>
  <owl:Thing rdf:about="#a">
    <rdf:type rdf:resource="#Wine"/>
  </owl:Thing>
  <owl:Thing rdf:about="#a">
    <hasColor rdf:resource="#Red"/>
  </owl:Thing>
  <owl:Thing rdf:about="#b">
    <hasMaker rdf:resource="#m1"/>
  </owl:Thing>
  <owl:Thing rdf:about="#b">
    <rdf:type rdf:resource="#Wine"/>
  </owl:Thing>
  <owl:Thing rdf:about="#c">
    <rdf:type rdf:resource="#Vin"/>
  </owl:Thing>
  <owl:Thing rdf:about="#c">
    <hasColor>rouge</hasColor>
  </owl:Thing>
  <owl:Thing rdf:about="#d">
    <hasMaker rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">3</hasMaker>
  </owl:Thing>
  <owl:Thing rdf:about="#Green">
    <rdf:type rdf:resource="#WineColor"/>
  </owl:Thing>
  <owl:Thing rdf:about="#m1">
    <rdf:type rdf:resource="#Winery"/>
  </owl:Thing>
  <owl:Thing rdf:about="#m1">
    <locatedIn>Bordeaux</locatedIn>
  </owl:Thing>
</rdf:RDF>
"""


def test_claims_keep_rule_order_across_kinds():
    program, diags = parse_program(ORDER_PROGRAM, {"": BASE})
    assert not diags
    m, d = recognize_templates(program)
    assert [(x.template_id, x.bindings, x.consumed) for x in m] == \
        ORDER_MATCHES
    assert [(x.severity, x.code, x.message) for x in d] == [
        ("warning", "unrepresentable-in-owl", "no OWL form for: d:_object."),
        ("warning", "unrepresentable-in-owl",
         "no OWL form for: e[hasMaker -> ?V]."),
    ]
    doc, _ = translate_program(program)
    assert serialize_document(doc) == ORDER_RDF_XML


# --- every lowering reads back -----------------------------------------------

GENERAL_INCLUSIONS = {
    "union-left": (om.UnionOf((named("C1"), named("C2"))), named("D")),
    "intersection-left": (om.IntersectionOf((named("C1"), named("C2"))),
                          named("D")),
    "oneOf-left": (om.OneOf((iri("a"), iri("b"))), named("D")),
    "complement-left": (om.ComplementOf(named("C")), named("D")),
    "intersection-right": (named("D"), om.IntersectionOf((named("C1"),
                                                          named("C2")))),
    # lossy: Lloyd-Topor and a case split
    "allValuesFrom-left": (om.Restriction(
        iri("p"), om.AllValuesFrom(named("F"))), named("D")),
    "union-right": (named("D"), om.UnionOf((named("C1"), named("C2")))),
}
LOSSY = {"allValuesFrom-left", "union-right"}
# lowered with `owl_domain_range_rules`, which adds a rule beside each
# signature
DOMAIN_RANGE_RULES = {
    "domain-rules": (om.Domain(iri("locatedIn"), iri("Country")),),
    "range-rules": (om.Range(iri("locatedIn"), iri("Region")),),
    "domain-range-rules": (om.Domain(iri("locatedIn"), iri("Country")),
                           om.Range(iri("locatedIn"), iri("Region"))),
}


def lowered(case):
    if case in DOMAIN_RANGE_RULES:
        doc = om.OntologyDocument(
            prefixes={"": BASE},
            property_axioms=list(DOMAIN_RANGE_RULES[case]))
        program, diags = translate_ontology(
            doc, TranslationOptions(owl_domain_range_rules=True))
        assert not diags and any(r.body for r in program.rules)
        return program
    if case in GENERAL_INCLUSIONS:
        doc = om.OntologyDocument(prefixes={"": BASE})
        doc.class_axioms.append(om.SubClassOf(*GENERAL_INCLUSIONS[case]))
    else:
        doc, _ = parse_document(wrap({r[0]: r[1] for r in ROWS}[case]))
    program, diags = translate_ontology(doc)
    assert not [d for d in diags if d.severity == "error"]
    return program


@pytest.mark.parametrize("case", [r[0] for r in ROWS] +
                         sorted(GENERAL_INCLUSIONS) +
                         sorted(DOMAIN_RANGE_RULES))
def test_every_lowering_reads_back(case):
    program = lowered(case)
    m, diags = recognize_templates(program)
    assert sorted(i for x in m for i in x.consumed) == \
        list(range(len(program.rules)))
    assert [d.code for d in diags] == \
        (["lossy-origin"] if case in LOSSY else [])


@pytest.mark.parametrize("case", sorted(DOMAIN_RANGE_RULES))
def test_domain_range_rules_read_back_as_their_axioms(case):
    doc, diags = translate_program(lowered(case))
    assert not diags
    assert set(doc.property_axioms) == set(DOMAIN_RANGE_RULES[case])


# --- naming ------------------------------------------------------------------


def test_prefixed_symbol_maps_to_declared_namespace():
    program, _ = parse_program(":- prefix(food, 'http://example.org/food').\n"
                               "Wine::food:PotableLiquid.", {"": BASE})
    doc, _ = translate_program(program)
    assert doc.class_axioms == [om.SubClassOf(
        named("Wine"), om.Named(om.Iri("http://example.org/food#"
                                       "PotableLiquid")))]


def test_quoted_value_becomes_string_literal():
    doc, _ = build("g:WineGrape[hasColor -> 'Red'].")
    lit = doc.assertions[-1].object
    assert lit == om.OwlLiteral("Red", "_string")


# --- round trip --------------------------------------------------------------

INVERTIBLE = (
    '<owl:Class rdf:about="#Wine">'
    '<rdfs:subClassOf rdf:resource="#PotableLiquid"/>'
    '</owl:Class>'
    '<owl:Class rdf:about="#WineColor">'
    '<owl:oneOf rdf:parseType="Collection">'
    '<owl:Thing rdf:about="#White"/>'
    '<owl:Thing rdf:about="#Rose"/>'
    '<owl:Thing rdf:about="#Red"/>'
    '</owl:oneOf></owl:Class>'
    '<owl:Class rdf:about="#Fruit">'
    '<owl:unionOf rdf:parseType="Collection">'
    '<owl:Class rdf:about="#SweetFruit"/>'
    '<owl:Class rdf:about="#NonSweetFruit"/>'
    '</owl:unionOf></owl:Class>'
    '<owl:Class rdf:about="#WhiteBurgundy">'
    '<owl:intersectionOf rdf:parseType="Collection">'
    '<owl:Class rdf:about="#Burgundy"/>'
    '<owl:Class rdf:about="#WhiteWine"/>'
    '</owl:intersectionOf></owl:Class>'
    '<owl:Class rdf:about="#Female">'
    '<owl:disjointWith rdf:resource="#Male"/>'
    '</owl:Class>'
    '<owl:Class rdf:about="#Wine"><rdfs:subClassOf>'
    '<owl:Restriction>'
    '<owl:onProperty rdf:resource="#hasMaker"/>'
    '<owl:allValuesFrom rdf:resource="#Winery"/>'
    '</owl:Restriction></rdfs:subClassOf></owl:Class>'
    '<owl:Class rdf:about="#Wine"><rdfs:subClassOf>'
    '<owl:Restriction>'
    '<owl:onProperty rdf:resource="#hasSugar"/>'
    '<owl:hasValue rdf:resource="#Dry"/>'
    '</owl:Restriction></rdfs:subClassOf></owl:Class>'
    '<owl:Class rdf:about="#Person"><rdfs:subClassOf>'
    '<owl:Restriction>'
    '<owl:onProperty rdf:resource="#hasParent"/>'
    '<owl:maxCardinality rdf:datatype='
    '"http://www.w3.org/2001/XMLSchema#nonNegativeInteger">2'
    '</owl:maxCardinality>'
    '</owl:Restriction></rdfs:subClassOf></owl:Class>'
    '<owl:ObjectProperty rdf:about="#locatedIn">'
    '<rdfs:domain rdf:resource="#Country"/>'
    '<rdfs:range rdf:resource="#Region"/>'
    '<rdf:type rdf:resource='
    '"http://www.w3.org/2002/07/owl#TransitiveProperty"/>'
    '</owl:ObjectProperty>'
    '<owl:ObjectProperty rdf:about="#hasColor">'
    '<rdfs:subPropertyOf rdf:resource="#hasWineDescriptor"/>'
    '</owl:ObjectProperty>'
    '<owl:ObjectProperty rdf:about="#producesWine">'
    '<owl:inverseOf rdf:resource="#hasMaker"/>'
    '</owl:ObjectProperty>'
    '<owl:ObjectProperty rdf:about="#hasVintageYear">'
    '<rdf:type rdf:resource='
    '"http://www.w3.org/2002/07/owl#FunctionalProperty"/>'
    '</owl:ObjectProperty>'
    '<WineGrape rdf:ID="CabernetSauvignonGrape" hasColor="Red"/>'
    '<owl:Thing rdf:about="#redwine1">'
    '<rdf:type rdf:resource="#RedWine"/>'
    '<hasMaker rdf:resource="#chateau1"/>'
    '</owl:Thing>'
)


def test_round_trip_recovers_axiom_sets():
    doc, pd = parse_document(wrap(INVERTIBLE))
    assert not [d for d in pd if d.severity == "error"]
    program, td = translate_ontology(doc, TranslationOptions())
    assert not [d for d in td if d.severity == "error"]
    back, bd = translate_program(program)
    assert not [d for d in bd if d.severity in ("error", "warning")], \
        [d.message for d in bd]
    assert set(back.class_axioms) == set(doc.class_axioms)
    assert set(back.property_axioms) == set(doc.property_axioms)
    assert set(back.assertions) == set(doc.assertions)


# --- near-template programs --------------------------------------------------

CLASSES = ("A", "B", "C", "D")
PROPS = ("p", "q", "r")


def near_template_program(rng):
    """F-logic text of a few groups of the lowering's statements over a small
    pool of names, some of them bent: a variable swapped, ``\\naf`` written
    as ``not(...)``, a body reordered, a head made compound, a statement
    dropped or its variables renamed."""
    def c():
        return rng.choice(CLASSES)

    def p():
        return rng.choice(PROPS)

    def cx():  # a class, sometimes compound
        r = rng.random()
        if r < .08:
            return f"({c()} ; {c()})"
        return f"({c()} , {c()})" if r < .16 else c()

    def v(name):  # the template's variable, sometimes another
        return name if rng.random() < .9 else rng.choice("XYZ")

    def naf(lit):
        r = rng.random()
        if r < .05:
            return f"\\naf ({lit}, {lit})"
        return f"not({lit})" if r < .3 else f"\\naf {lit}"

    def rule(head, body):
        if rng.random() < .12:
            rng.shuffle(body)
        return f"{head} :- {', '.join(body)}."

    def isa(cls, x="X"):
        return f"?{v(x)}:{cls}"

    def union():
        u, a, b = rng.sample(CLASSES, 3)
        return [f"{u} :=: ({a} ; {b}).",
                rule(f"?X:{u}", [isa(a)]), rule(f"?X:{u}", [isa(b)]),
                rule(f"?X:{a}", [isa(u), naf(isa(b))]),
                rule(f"?X:{b}", [isa(u), naf(isa(a))])]

    def intersection():
        n, a, b = rng.sample(CLASSES, 3)
        return [f"{n} :=: ({a} , {b}).",
                rule(f"?X:{n}", [isa(a), isa(b)]),
                rule(f"?X:{a}", [isa(n)]), rule(f"?X:{b}", [isa(n)])]

    def complement():
        k, a = rng.sample(CLASSES, 2)
        return [f"{k} :=: (_object - {a}).",
                rule(f"?X:{k}", [isa("_object"), naf(isa(a))])]

    def equivalence():
        e, a = rng.sample(CLASSES, 2)
        return [f"{e} :=: {a}.", rule(f"?X:{e}", [isa(a)]),
                rule(f"?X:{a}", [isa(e)]),
                rule(f"?X::{e}", [f"?{v('X')}::{a}"]),
                rule(f"?X::{a}", [f"?{v('X')}::{e}"])]

    def membership():
        return [rule(f"?X:{cx()}",
                     [isa(c()) for _ in range(rng.randint(1, 3))])]

    def case_split():
        return [rule(f"?X:{c()}", [isa(rng.choice(CLASSES + ("_object",)))]
                     + [naf(isa(c())) for _ in range(rng.randint(1, 2))])]

    def all_values():
        a, f, q = c(), cx(), p()
        return [f"{a}::_object[{q} *=> {f}].",
                rule(f"?{v('Y')}:{f}",
                     [isa(a), f"?{v('X')}[{q} -> ?{v('Y')}]"])]

    def properties():
        a, b = rng.sample(PROPS, 2)
        x, y = rng.choice((("X", "Y"), ("Y", "X")))
        return [rule(f"?X[{a} -> ?Y]", [f"?{v(x)}[{b} -> ?{v(y)}]"]),
                rule(f"?X[{b} -> ?Y]", [f"?{v(x)}[{a} -> ?{v(y)}]"])]

    def characteristics():
        kind, closure = rng.choice((
            ("TransitiveProperty",
             ["'TransitiveProperty'(?P)", "?X[?P -> ?Y]", "?Y[?P -> ?Z]"]),
            ("SymmetricProperty",
             ["'SymmetricProperty'(?P)", "?Y[?P -> ?X]"])))
        head = "?X[?P -> ?Z]" if kind[0] == "T" else "?X[?P -> ?Y]"
        return [f"'{kind}'({p()}).", rule(head, closure)]

    def inverse_functional():
        a, b = rng.sample(PROPS, 2)
        return [f"inverseFunctional({a}).",
                f"_object[{b}{{1:1}} *=> _object].",
                rule(f"?X[{a} -> ?Y]", [f"?{v('Y')}[{b} -> ?{v('X')}]"]),
                rule(f"?X[{b} -> ?Y]", [f"?{v('Y')}[{a} -> ?{v('X')}]"])]

    def one_of():
        a = c()
        return [f"oneOf({a}, [m, n]).", f"m:{a}.", f"n:{a}.", f"o:{a}."]

    def lloyd_topor():
        a, q = c(), c()
        return [f"{q}::_object[{p()} *=> {a}].",
                rule("'_lt_aux1'(?X)", [f"?X[{p()} -> ?Y]", naf(isa(a, "Y"))]),
                rule(f"?X:{q}", [isa("_object"), naf("'_lt_aux1'(?X)")])]

    def facts():
        a, b = rng.sample(CLASSES, 2)
        return [rng.choice((
            f"someValuesFrom({a}, {p()}, {b}).",
            f"hasValue({a}, {p()}, m).", f"hasValue({a}, {p()}, 'v').",
            f"disjoint_classes({a}, {b}).", f"{a}::{b}.",
            f"{a}[{p()} *=> {b}].", f"_object[{p()} *=> {b}].",
            f"{a}[{p()}{{0:2}} *=> _object].",
            f"{a}[{p()}{{1:*}} *=> _object].",
            f"{a}[{p()}{{2:2}} *=> _object].",
            f"{a}[{p()}{{1:3}} *=> _object].",
            f"_object[{p()}{{1:1}} *=> _object].",
            f"m:{a}.", "m:_object.", f"m[{p()} -> n].", f"m[{p()} -> 'v'].",
            f"check_{a}(?X) :- ?X:{a}, \\naf ?X:{b}.",
            f"?X::{a} :- ?{v('X')}::{b}."))]

    groups = (union, intersection, complement, equivalence, membership,
              case_split, all_values, properties, characteristics,
              inverse_functional, one_of, lloyd_topor, facts)
    statements = []
    for _ in range(rng.randint(3, 8)):
        for s in rng.choice(groups)():
            if rng.random() < .1:
                continue
            if rng.random() < .1:
                s = s.replace("?X", "?W")
            statements.append(s)
    if rng.random() < .5:
        rng.shuffle(statements)
    return "\n".join(statements) + "\n"


def near_template_results(seed):
    """Each of a seed's programs with what the recognizer makes of it."""
    rng = random.Random(seed)
    for _ in range(40):
        text = near_template_program(rng)
        program, diags = parse_program(text)
        assert not diags, (text, [d.message for d in diags])
        matches, _ = recognize_templates(program)
        doc, diags = translate_program(program)
        yield text, matches, diags, serialize_document(doc)


def near_template_digest(seed):
    h = hashlib.sha256()
    for text, matches, diags, rdf in near_template_results(seed):
        h.update(text.encode())
        h.update(repr([(m.template_id, m.bindings, m.consumed)
                       for m in matches]).encode())
        h.update(repr([(d.severity, d.code, d.message, d.location)
                       for d in diags]).encode())
        h.update(rdf.encode())
    return h.hexdigest()[:16]


# the recognizer's output pinned per seed
NEAR_TEMPLATE_DIGESTS = {
    0: "ced68d926c8b2354",
    1: "e04f789f33593670",
    2: "8e3c238701565c44",
    3: "e34aa5d2dbcdf67a",
    4: "6af67f4d72bdfec2",
    5: "c87b71f10d16d08f",
    6: "6a3a66ec8f6b4f1b",
    7: "f4fd54aa3253c0de",
    8: "55bf26c49ce17971",
    9: "de2d41eb1f02362b",
    10: "a6abb905cceb8e7d",
    11: "7e809e5efccddb67",
    12: "2abeba998da1f8e1",
    13: "3dcdb61e41b9273a",
    14: "79a38eb6b261d3ec",
    15: "bafec99cd5516d51",
}


@pytest.mark.parametrize("seed", sorted(NEAR_TEMPLATE_DIGESTS))
def test_near_template_programs_are_unchanged(seed):
    assert near_template_digest(seed) == NEAR_TEMPLATE_DIGESTS[seed]


def test_near_template_programs_reach_every_template():
    seen = {m.template_id for seed in NEAR_TEMPLATE_DIGESTS
            for _, matches, _, _ in near_template_results(seed)
            for m in matches}
    assert seen == {
        "checker-library", "oneof-definition", "union-definition",
        "intersection-definition", "complement-definition",
        "named-equivalence", "allValuesFrom", "transitiveProperty",
        "symmetricProperty", "generic-transitive-rule",
        "generic-symmetric-rule", "inverse-of", "equivalent-property",
        "someValuesFrom", "hasValue", "disjoint-classes",
        "inverse-functional", "range", "domain-range", "functional",
        "cardinality-restriction", "sub-property", "lloyd-topor-aux",
        "case-split-group", "membership-rule", "complement-subclass",
        "subclass-fact", "class-assertion", "property-assertion"}


def document_digest(seed):
    """The recognised document of each of a seed's programs, which the
    RDF/XML does not show in full: it leaves out the general inclusions, and
    it does not say which list holds an axiom."""
    h = hashlib.sha256()
    rng = random.Random(seed)
    for _ in range(40):
        program, _ = parse_program(near_template_program(rng))
        doc, _ = translate_program(program)
        h.update(repr((doc.class_axioms, doc.property_axioms,
                       doc.assertions)).encode())
    return h.hexdigest()[:16]


# the recognised document pinned per seed
DOCUMENT_DIGESTS = {
    0: "9ea8bba0e6114fca",
    1: "e6dd290062f6fa6a",
    2: "8e6c1674c7bb6213",
    3: "22f4ada46ec7ba4d",
    4: "c080bd21a1949efd",
    5: "e477c3980d80cfe6",
    6: "a225b54fd41f0249",
    7: "0662930d3cb27d18",
    8: "15ba6e210214b0c6",
    9: "c13e420a6bb5dfc8",
    10: "d0db2685458541b4",
    11: "7b62f6f5d63eef5b",
    12: "43ef6e21d11d5d6e",
    13: "5a5043f0b0c4c3a2",
    14: "df5263d27cd9f12a",
    15: "9f963ada4dc4002f",
}


@pytest.mark.parametrize("seed", sorted(DOCUMENT_DIGESTS))
def test_near_template_documents_are_unchanged(seed):
    assert document_digest(seed) == DOCUMENT_DIGESTS[seed]
