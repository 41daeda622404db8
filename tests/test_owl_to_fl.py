import pytest

from owlfl import owl_model as om
from owlfl.checkers import CHECKER_RULES
from owlfl.flogic import (
    Atom, FlIsA, FlNaf, FlPred, FlProgram, FlRule, FlSignature, FlSubClass,
    FlSymbol, FlVariable, print_program, print_rule,
)
from owlfl.owl_parser import parse_document
from owlfl.owl_to_fl import (
    Context, TranslationOptions, lower_general_inclusion,
    translate_assertion, translate_class_axiom, translate_ontology,
    translate_property_axiom, translate_restriction,
)

from _table1 import ROWS, normalized_set, wrap

BASE = "http://example.org/wine#"


def iri(local):
    return om.Iri(BASE + local)


def named(local):
    return om.Named(iri(local))


def context(opts=None):
    """A translation context for a document whose base is ``BASE``."""
    return Context(om.OntologyDocument(prefixes={"": BASE}), opts)


def statements(program):
    return [line for line in print_program(program).splitlines()
            if not line.startswith(":-")]


# --- construct-table golden rows ----------------------------------------------


@pytest.mark.parametrize("row_name,xml,expected",
                         ROWS, ids=[r[0] for r in ROWS])
def test_table1_row(row_name, xml, expected):
    doc, diags = parse_document(wrap(xml))
    assert not [d for d in diags if d.severity == "error"]
    program, _ = translate_ontology(
        doc, TranslationOptions(emit_checkers=False))
    assert normalized_set(statements(program)) == normalized_set(expected)


# --- individual operations ---------------------------------------------------


def test_all_values_from_emits_constraint_and_rule():
    r = om.Restriction(iri("hasMaker"), om.AllValuesFrom(named("Winery")))
    rules = translate_restriction(iri("Wine"), r, context())
    assert len(rules) == 2
    sig = rules[0].head
    assert isinstance(sig, FlSignature) and sig.via is not None
    assert not rules[0].body
    assert isinstance(rules[1].head, FlIsA) and len(rules[1].body) == 2


def test_min_and_exact_cardinality_bounds():
    low = translate_restriction(
        iri("C"), om.Restriction(iri("p"), om.MinCardinality(2)),
        context())[0].head
    assert low.card == (2, None)
    exact = translate_restriction(
        iri("C"), om.Restriction(iri("p"), om.ExactCardinality(3)),
        context())[0].head
    assert exact.card == (3, 3)


def test_disjoint_with_argument_order():
    rules = translate_class_axiom(om.DisjointWith(iri("Female"), iri("Male")),
                                  context())
    assert print_rule(rules[0]) == "disjoint_classes(Male, Female)."


@pytest.mark.parametrize("kind, rules, warnings", [
    (om.UnionOf,
     ["D :=: ((A ; B) ; (C , E)).", "?X:D :- ?X:A.", "?X:D :- ?X:B."],
     [("complex-operand",
       "non-named union operand: no membership rule for it and no case "
       "rules")]),
    (om.IntersectionOf,
     ["D :=: ((A , B) , (C , E)).", "?X:A :- ?X:D.", "?X:B :- ?X:D."],
     [("complex-operand",
       "non-named intersection operand: no membership rule for it and no "
       "rule deriving the defined class")]),
], ids=["union", "intersection"])
def test_definition_with_a_compound_operand(kind, rules, warnings):
    """The definition keeps its equivalence fact and the membership rules
    of its named operands; the rules that need every operand, the
    intersection's ``?X:D :- ...`` and the union's cases, are left out."""
    ctx = context()
    got = translate_class_axiom(om.EquivalentClass(named("D"), kind(
        (named("A"), named("B"),
         om.IntersectionOf((named("C"), named("E")))))), ctx)
    assert [print_rule(r) for r in got] == rules
    assert [(d.severity, d.code, d.message) for d in ctx.diagnostics] == \
        [("warning", code, message) for code, message in warnings]


def test_domain_pairs_with_range():
    doc = om.OntologyDocument(prefixes={"": "http://example.org/wine"})
    doc.property_axioms.extend([
        om.Domain(iri("locatedIn"), iri("Country")),
        om.Range(iri("locatedIn"), iri("Region")),
    ])
    program, diags = translate_ontology(
        doc, TranslationOptions(emit_checkers=False))
    assert statements(program) == ["Country[locatedIn *=> Region]."]
    assert not diags


def test_lone_range_uses_object_domain():
    doc = om.OntologyDocument(prefixes={"": "http://example.org/wine"})
    doc.property_axioms.append(om.Range(iri("locatedIn"), iri("Region")))
    program, _ = translate_ontology(
        doc, TranslationOptions(emit_checkers=False))
    assert statements(program) == ["_object[locatedIn *=> Region]."]


def test_domain_range_rules_option():
    doc = om.OntologyDocument(prefixes={"": "http://example.org/wine"})
    doc.property_axioms.extend([
        om.Domain(iri("locatedIn"), iri("Country")),
        om.Range(iri("locatedIn"), iri("Region")),
    ])
    program, _ = translate_ontology(
        doc, TranslationOptions(emit_checkers=False,
                                owl_domain_range_rules=True))
    texts = statements(program)
    assert "?X:Country :- ?X[locatedIn -> ?Y]." in texts
    assert "?Y:Region :- ?X[locatedIn -> ?Y]." in texts


def test_generic_transitive_rule_emitted_once():
    ctx = context()
    r1 = translate_property_axiom(
        om.Characteristic(iri("locatedIn"), om.TRANSITIVE), ctx)
    r2 = translate_property_axiom(
        om.Characteristic(iri("adjacentTo"), om.TRANSITIVE), ctx)
    assert len(r1) == 2 and len(r2) == 1


def test_inverse_functional_without_declared_inverse():
    rules = translate_property_axiom(
        om.Characteristic(iri("producesWine"), om.INVERSE_FUNCTIONAL),
        context())
    assert print_rule(rules[0]) == "inverseFunctional(producesWine)."


def test_string_assertion_prints_quoted():
    doc = om.OntologyDocument(prefixes={"": "http://example.org/wine"})
    doc.assertions.extend([
        om.ClassAssertion(iri("CabernetSauvignonGrape"), iri("WineGrape")),
        om.PropertyAssertion(iri("CabernetSauvignonGrape"), iri("hasColor"),
                             om.OwlLiteral("Red", "_string")),
    ])
    program, _ = translate_ontology(
        doc, TranslationOptions(emit_checkers=False))
    assert statements(program) == \
        ["CabernetSauvignonGrape:WineGrape[hasColor -> 'Red']."]


# --- general inclusions ------------------------------------------------------


def test_union_on_left_is_two_horn_rules():
    ctx = context()
    rules = lower_general_inclusion(
        om.UnionOf((named("C1"), named("C2"))), named("D"), ctx)
    assert not ctx.diagnostics
    assert [print_rule(r) for r in rules] == [
        "?X:D :- ?X:C1.",
        "?X:D :- ?X:C2.",
    ]


def test_union_on_right_is_case_split():
    ctx = context()
    rules = lower_general_inclusion(
        named("D"), om.UnionOf((named("C1"), named("C2"))), ctx)
    assert [print_rule(r) for r in rules] == [
        "?X:C1 :- ?X:D, \\naf ?X:C2.",
        "?X:C2 :- ?X:D, \\naf ?X:C1.",
    ]
    assert any(d.code == "case-split-weakening" for d in ctx.diagnostics)
    # an operand listed twice is excluded by position, so it negates its twin
    rules = lower_general_inclusion(
        named("D"), om.UnionOf((named("C1"), named("C2"), named("C1"))), ctx)
    assert [print_rule(r) for r in rules] == [
        "?X:C1 :- ?X:D, \\naf ?X:C2, \\naf ?X:C1.",
        "?X:C2 :- ?X:D, \\naf ?X:C1, \\naf ?X:C1.",
        "?X:C1 :- ?X:D, \\naf ?X:C1, \\naf ?X:C2.",
    ]


def test_union_on_right_rejected_without_case_split():
    ctx = context(TranslationOptions(case_split_rhs_disjunction=False))
    rules = lower_general_inclusion(
        named("D"), om.UnionOf((named("C1"), named("C2"))), ctx)
    assert not rules
    assert any(d.code == "untranslatable-disjunction"
               for d in ctx.diagnostics)


def test_intersection_on_right_splits():
    rules = lower_general_inclusion(
        named("D"), om.IntersectionOf((named("C1"), named("C2"))), context())
    assert [print_rule(r) for r in rules] == [
        "?X:C1 :- ?X:D.",
        "?X:C2 :- ?X:D.",
    ]


def test_all_values_from_on_left_lloyd_topor():
    sub = om.Restriction(iri("p"), om.AllValuesFrom(named("F")))
    rules = lower_general_inclusion(sub, named("D"), context())
    assert len(rules) == 2
    aux = rules[0].head
    assert isinstance(aux, FlPred) and aux.name.startswith("_lt_aux")
    # the second rule negates the auxiliary
    naf = [l for l in rules[1].body if isinstance(l, FlNaf)]
    assert naf and isinstance(naf[0].inner[0], FlPred)


def test_existential_subsumer_is_untranslatable():
    sub = om.Restriction(iri("p"), om.SomeValuesFrom(named("F")))
    ctx = context()
    rules = lower_general_inclusion(sub, named("D"), ctx)
    assert rules == []
    assert any(d.code == "untranslatable-existential" and
               d.severity == "error" for d in ctx.diagnostics)


# --- checker library ---------------------------------------------------------


def test_checker_library_appended_by_default():
    doc = om.OntologyDocument(prefixes={"": "http://example.org/wine"})
    doc.class_axioms.append(om.DisjointWith(iri("Female"), iri("Male")))
    program, _ = translate_ontology(doc)
    text = print_program(program)
    assert "check_disjoint_constraints :-" in text
    assert "check_all_constraints :-" in text
    assert ("'[OWL2FLORA] disjointWith constraint violation: ~w disjoint "
            "with ~w'") in text
    assert ("'[OWL2FLORA] oneOf constraint: extraneous class member ~w : "
            "~w'") in text


LIBRARY = r"""check_disjoint_constraints :- disjoint_classes(?C1, ?C2), ?X:?C1, ?X:?C2, format(2, '[OWL2FLORA] disjointWith constraint violation: ~w disjoint with ~w', [?C1,?C2])@_prolog(format).
check_oneOf_constraints :- oneOf(?C, ?List), ?X:?C, not(member(?X, ?List)), format(2, '[OWL2FLORA] oneOf constraint: extraneous class member ~w : ~w', [?X,?C])@_prolog(format).
check_someValuesFrom_constraints :- someValuesFrom(?Class, ?Property, ?PropertyClass), ?O:?Class, \naf (?O[?Property -> ?V], ?V:?PropertyClass), format(2, '[OWL2FLORA] someValuesFrom constraint violation: ~w:~w and ~w.~w disjoint from ~w', [?O,?Class,?O,?Property,?PropertyClass])@_prolog(format).
check_hasValue_constraints :- hasValue(?Class, ?Property, ?Value), ?O:?Class, not(?O[?Property -> ?Value]), format(2, '[OWL2FLORA] hasValue constraint violation: ~w.~w missing value ~w', [?O,?Property,?Value])@_prolog(format).
check_cardinality_constraints :- cardinality_violation(?Class, ?Property, ?O, ?N), format(2, '[OWL2FLORA] cardinality constraint violation: KB is inconsistent with the constraints: ~w.~w has ~w distinct values, allowed {~w:~w}', [?O,?Property,?N,?Low,?High])@_prolog(format).
check_inverseFunctional_constraints :- inverseFunctional(?P), ?X[?P -> ?V], ?Y[?P -> ?V], ?X != ?Y, format(2, '[OWL2FLORA] inverseFunctional constraint violation: ~w maps both ~w and ~w to ~w', [?P,?X,?Y,?V])@_prolog(format).
check_all_constraints :- check_disjoint_constraints, check_oneOf_constraints, check_someValuesFrom_constraints, check_hasValue_constraints, check_cardinality_constraints, check_inverseFunctional_constraints.
"""


def test_checker_library_text():
    assert print_program(FlProgram(CHECKER_RULES)) == LIBRARY


def test_generic_property_rules_once_each():
    ctx = context()
    out = []
    for local in ("p", "q"):
        for kind in (om.TRANSITIVE, om.SYMMETRIC):
            out += [print_rule(r) for r in translate_property_axiom(
                om.Characteristic(iri(local), kind), ctx)]
    assert out == [
        "'TransitiveProperty'(p).",
        "?X[?P -> ?Z] :- 'TransitiveProperty'(?P), ?X[?P -> ?Y], "
        "?Y[?P -> ?Z].",
        "'SymmetricProperty'(p).",
        "?X[?P -> ?Y] :- 'SymmetricProperty'(?P), ?Y[?P -> ?X].",
        "'TransitiveProperty'(q).",
        "'SymmetricProperty'(q).",
    ]


def test_no_silent_drops_accounting():
    doc, _ = parse_document(wrap(
        '<owl:ObjectProperty rdf:about="#locatedIn">'
        '<rdfs:domain rdf:resource="#Country"/>'
        '<rdfs:range rdf:resource="#Region"/>'
        '</owl:ObjectProperty>'
        '<owl:Class rdf:about="#Wine">'
        '<rdfs:subClassOf rdf:resource="#food:PotableLiquid"/>'
        '</owl:Class>'
    ))
    program, diags = translate_ontology(doc)
    assert not [d for d in diags if d.severity == "error"]
    # every source axiom, translated alone, gives a rule or a diagnostic
    for ax in (doc.class_axioms + doc.property_axioms + doc.assertions):
        ctx = Context(doc)
        if isinstance(ax, om.ClassAxiom):
            rules = translate_class_axiom(ax, ctx)
        elif isinstance(ax, om.PropertyAxiom):
            rules = translate_property_axiom(ax, ctx)
        else:
            rules = translate_assertion(ax, ctx)
        assert rules or ctx.diagnostics, ax


def test_existential_in_a_compound_superclass_is_reported():
    """(A and B) under (C or some p.D): the reader yields no compound
    subclass, so the document is built here."""
    doc = om.OntologyDocument(prefixes={"": BASE})
    doc.class_axioms.append(om.SubClassOf(
        om.IntersectionOf((named("A"), named("B"))),
        om.UnionOf((named("C"), om.Restriction(
            iri("p"), om.SomeValuesFrom(named("D")))))))
    program, diags = translate_ontology(
        doc, TranslationOptions(emit_checkers=False))
    assert statements(program) == []
    assert [(d.severity, d.code, d.message) for d in diags] == [
        ("error", "untranslatable-existential",
         "existential restriction in the subsuming set cannot be "
         "translated")]
