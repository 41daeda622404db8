import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from owlfl import engine
from owlfl.checkers import SYMMETRIC_RULE, TRANSITIVE_RULE
from owlfl.engine import (
    EngineError, Relation, _compile_conj, _solve, collect_set, holds,
    insert_fact, literal_vars, load_program, query_goal,
    run_constraint_checks, saturate, stratify,
)
from owlfl.flogic import (
    Atom, FlAttrValue, FlDifference, FlEquiv, FlIntersection, FlIsA, FlList,
    FlLiteralTerm, FlMember, FlNaf, FlNeq, FlPred, FlProgram, FlRule,
    FlSignature, FlSubClass, FlSymbol, FlUnion, FlVariable, fact,
    parse_program, print_rule, print_term,
)

from _helpers import atom


def kb_from(text):
    program, diags = parse_program(text)
    assert not diags, [d.message for d in diags]
    return load_program(program)


def store_facts(store):
    """Every fact in the store, as one set that compares by value."""
    return frozenset((key, t) if isinstance(key, str) else
                     ("pred", (key[0],) + t)
                     for key, rel in store.relations.items()
                     for t in rel.facts)


def names(terms):
    return [print_term(t) for t in terms]


X = FlVariable("X")


# --- loading -----------------------------------------------------------------


def test_fact_with_variable_rejected():
    program, _ = parse_program("?X:C.")
    with pytest.raises(EngineError) as e:
        load_program(program)
    assert e.value.code == "non-range-restricted"


def test_unbound_head_variable_rejected():
    program, _ = parse_program("?Y:C :- ?X:D.")
    with pytest.raises(EngineError) as e:
        load_program(program)
    assert e.value.code == "non-range-restricted"


def test_unbound_negated_variable_rejected():
    program, _ = parse_program("a:D.\n?X:C :- a:D, \\naf ?X:E.")
    with pytest.raises(EngineError) as e:
        load_program(program)
    assert e.value.code == "non-range-restricted"


A, C, D = FlSymbol("a"), atom("C"), atom("D")


@pytest.mark.parametrize("head, printed", [
    (FlIsA(X, C), "?X:C"),
    (FlIsA(A, Atom(X)), "a:?X"),
    (FlIsA(A, FlUnion(C, Atom(X))), "a:(C ; ?X)"),
    (FlSubClass(C, Atom(X)), "C::?X"),
    (FlAttrValue(A, FlSymbol("p"), X), "a[p -> ?X]"),
    (FlPred("p", (A, FlList((A, X)))), "p(a, [a,?X])"),
    (FlSignature(Atom(X), FlSymbol("p"), D), "?X[p *=> D]"),
])
def test_non_ground_fact_message(head, printed):
    with pytest.raises(EngineError) as e:
        load_program(FlProgram((fact(head),)))
    assert (e.value.code, e.value.message) == (
        "non-range-restricted", f"fact with variables: {printed}")


@pytest.mark.parametrize("head", [
    FlIsA(A, FlUnion(C, D)),
    FlIsA(A, FlIntersection(C, D)),
    FlIsA(A, FlDifference(C, D)),
    FlSubClass(FlUnion(C, D), atom("E")),
    FlSubClass(atom("E"), FlDifference(C, D)),
], ids=["isa-union", "isa-intersection", "isa-difference", "sub-union",
        "sub-difference"])
def test_compound_class_fact_is_rejected_by_load_program(head):
    with pytest.raises(EngineError) as e:
        load_program(FlProgram((fact(FlIsA(A, C)), fact(head))))
    assert (e.value.code, e.value.message) == (
        "unsupported-rule", "compound class expression in rule head")


@pytest.mark.parametrize("rule, printed", [
    ("p([?Y]) :- ?X[q -> ?Y].", "p([?Y])"),
    ("?X[p -> [?Y]] :- ?X[q -> ?Y].", "?X[p -> [?Y]]"),
    ("?X[p -> [b, [?Y]]] :- ?X[q -> ?Y].", "?X[p -> [b,[?Y]]]"),
    ("[?Y]:C :- ?X[q -> ?Y].", "[?Y]:C"),
], ids=["predicate", "attribute", "nested", "isa"])
def test_list_with_variables_in_a_rule_head_is_rejected(rule, printed):
    program, _ = parse_program("a[q -> b].\n" + rule)
    with pytest.raises(EngineError) as e:
        load_program(program)
    assert (e.value.code, e.value.message) == (
        "function-symbols-unsupported", f"non-ground list in head: {printed}")


def test_ground_list_in_a_rule_head_is_derived():
    kb = kb_from("q(c).\np(?X, [a, b]) :- q(?X).")
    assert holds(kb, FlPred("p", (FlSymbol("c"), FlList(
        (FlSymbol("a"), FlSymbol("b"))))))


def test_repeated_base_fact_is_held_once():
    kb = kb_from("a:C.\nb:C.\na:C.")
    a, b, c = FlSymbol("a"), FlSymbol("b"), FlSymbol("C")
    assert list(kb.base_facts) == [("isa", (a, c)), ("isa", (b, c))]


def test_checker_rules_are_segregated():
    kb = kb_from("check_disjoint_constraints :- disjoint_classes(?C1, ?C2), "
                 "?X:?C1, ?X:?C2.\n"
                 "a:C.")
    assert len(kb.checker_rules) == 1
    assert len(kb.rules) == 0


# --- stratification ----------------------------------------------------------


def test_negation_goes_below_use():
    kb = kb_from("a:Fruit.\n"
                 "?X:NotSweet :- ?X:Fruit, \\naf ?X:Sweet.\n"
                 "?X:Sweet :- ?X:Sugary.\n"
                 "b:Sugary.")
    strat = stratify(kb)
    assert len(strat.strata) == 2


def test_mutual_negation_is_rejected():
    kb = kb_from("c:A.\n"
                 "?X:A :- ?X:_object, \\naf ?X:B.\n"
                 "?X:B :- ?X:_object, \\naf ?X:A.")
    with pytest.raises(EngineError) as e:
        stratify(kb)
    assert e.value.code == "non-stratified-program"
    assert "A" in e.value.message and "B" in e.value.message


def test_positive_recursion_is_fine():
    kb = kb_from("?X:A :- ?X:B.\n?X:B :- ?X:A.\na:A.")
    assert names(collect_set(kb, "X", FlIsA(X, atom("B")))) == ["a"]


@pytest.mark.parametrize("edge, cycle", [
    ("e::d.", "('isa', 'd'), ('isa', 'e'), ('isa', 'f')"),
    ("e::d :- a:f.", "('isa', 'd'), ('isa', 'e'), ('isa', 'f'), ('sub',)"),
], ids=["base", "derived"])
def test_negation_through_inheritance_is_rejected(edge, cycle):
    # a:f needs \naf a:d, and a:f gives a:e, hence a:d along e::d
    kb = kb_from(f"{edge}\na:c.\n?X:f :- ?X:c, \\naf ?X:d.\n?X:e :- ?X:f.")
    with pytest.raises(EngineError) as e:
        stratify(kb)
    assert e.value.code == "non-stratified-program"
    assert e.value.message == f"negation cycle through {cycle}"


def test_difference_subtrahend_is_read_under_negation():
    kb = kb_from("a:A.\na:C.\n?X:G :- ?X:(A - B).\n?X:B :- ?X:C.")
    assert len(stratify(kb).strata) == 2
    assert names(collect_set(kb, "X", FlIsA(X, atom("B")))) == ["a"]
    assert collect_set(kb, "X", FlIsA(X, atom("G"))) == []


def test_new_individuals_reach_object():
    # the last rule makes a a member of E, so of _object, so of N unless D
    kb = kb_from("p(a).\n?X:N :- ?X:_object, \\naf ?X:D.\n"
                 "?X:E :- p(?X), \\naf ?X:N.")
    with pytest.raises(EngineError) as e:
        stratify(kb)
    assert e.value.code == "non-stratified-program"
    assert "('isa', '_object')" in e.value.message


@pytest.mark.parametrize("text, cls, members", [
    ("a:C2.\nb:Q.\n?X:N2 :- ?X:_object, \\naf ?X:C2.\n"
     "?X:N1 :- ?X:_object, \\naf ?X:N2.", "N1", ["a"]),
    ("a:B.\nc:Q.\nD::B.\nd:D.\nA :=: B.\n?X:A :- ?X:B.\n?X:B :- ?X:A.\n"
     "?X::A :- ?X::B.\n?X::B :- ?X::A.\n?X:N :- ?X:_object, \\naf ?X:A.",
     "N", ["c"]),
    ("p(a, C).\np(b, D).\nb:E.\n?X:?C :- p(?X, ?C).\n"
     "?X:N :- ?X:E, \\naf ?X:C.\n?X:M :- ?X:_object, \\naf ?X:D.", "N", ["b"]),
    ("a:A.\nlink(a, C).\n?X:?C :- link(?X, ?C), ?X:A, \\naf q(?X).\n"
     "?X:N :- ?X:A, \\naf ?X:C.", "N", []),
], ids=["complement-chain", "named-equivalence", "variable-class-head",
        "variable-class-head-below-negation"])
def test_stratification_keeps_stratified_programs(text, cls, members):
    kb = kb_from(text)
    assert len(stratify(kb).strata) == 2
    assert names(collect_set(kb, "X", FlIsA(X, atom(cls)))) == members


# --- saturation and structural closure ---------------------------------------


def test_subclass_transitivity_and_inheritance():
    kb = kb_from("A::B.\nB::C.\nx:A.")
    assert (FlSymbol("A"), FlSymbol("C")) in kb.store.sub
    assert (FlSymbol("x"), FlSymbol("C")) in kb.store.isa


def test_no_reflexive_subclass():
    kb = kb_from("A::B.\nB::C.")
    assert (FlSymbol("A"), FlSymbol("A")) not in kb.store.sub


def test_object_membership_is_universal():
    kb = kb_from("x:A.\ny[p -> z].\noneOf(C, [w]).")
    objs = {i for (i, c) in kb.store.isa if c == FlSymbol("_object")}
    assert objs == {FlSymbol("x"), FlSymbol("y"), FlSymbol("z"),
                    FlSymbol("w")}


def test_classes_are_not_individuals():
    kb = kb_from("A::B.\nx:A.")
    objs = {i for (i, c) in kb.store.isa if c == FlSymbol("_object")}
    assert objs == {FlSymbol("x")}


def test_transitive_property_closure():
    kb = kb_from("'TransitiveProperty'(locatedIn).\n"
                 "?X[?P -> ?Z] :- 'TransitiveProperty'(?P), "
                 "?X[?P -> ?Y], ?Y[?P -> ?Z].\n"
                 "a[locatedIn -> b].\nb[locatedIn -> c].\nc[locatedIn -> d].")
    pairs = {(s, v) for (s, p, v) in kb.store.attr
             if p == FlSymbol("locatedIn")}
    assert len(pairs) == 6  # C(4,2) for a 4-node chain


def test_termination_on_cyclic_subclass():
    start = time.monotonic()
    kb = kb_from("A::B.\nB::A.\nx:A.")
    assert (FlSymbol("x"), FlSymbol("B")) in kb.store.isa
    assert time.monotonic() - start < 1.0


def test_termination_on_cyclic_transitive_property():
    start = time.monotonic()
    kb = kb_from("'TransitiveProperty'(p).\n"
                 "?X[?P -> ?Z] :- 'TransitiveProperty'(?P), "
                 "?X[?P -> ?Y], ?Y[?P -> ?Z].\n"
                 "a[p -> b].\nb[p -> c].\nc[p -> a].")
    pairs = {(s, v) for (s, p, v) in kb.store.attr}
    assert len(pairs) == 9  # full 3x3 closure
    assert time.monotonic() - start < 1.0


def test_repeated_variables_list_patterns_member_and_neq():
    kb = kb_from("a[p -> a].\nb[p -> c].\nhas(c, [d, e]).\nhas(b, [b]).\n"
                 "?X:Loop :- ?X[p -> ?X].\n"
                 "?Y:Head :- has(?X, [?Y, ?Z]).\n"
                 "?X:Listed :- has(?C, ?L), member(?X, ?L).\n"
                 "?X:Moves :- ?X[p -> ?Y], ?X != ?Y.")
    for cls, members in (("Loop", ["a"]), ("Head", ["d"]),
                         ("Listed", ["b", "d", "e"]), ("Moves", ["b"])):
        assert names(collect_set(kb, "X", FlIsA(X, atom(cls)))) == members


def test_list_pattern_with_a_constant_element():
    """A constant element of a list pattern must equal the stored one,
    whether it is a parameter of the shape (``a``) or kept in the shape
    (the empty list, which has no constant to take out)."""
    kb = kb_from("l([a, b]).\nl([c, d]).\nl([a, [e]]).\nl([f, []]).\n"
                 "l([g, [h]]).\nh(?X) :- l([a, ?X]).\nk(?X) :- l([?X, []]).")
    assert names(collect_set(kb, "X", FlPred("h", (X,)))) == ["[e]", "b"]
    assert names(collect_set(kb, "X", FlPred("k", (X,)))) == ["f"]


def test_intersection_body_sees_a_late_operand():
    # b:B is derived after the first round, when b:A is old
    kb = kb_from("b:A.\nc:C.\nb:B :- c:C.\n?X:G :- ?X:(A , B).")
    assert names(collect_set(kb, "X", FlIsA(X, atom("G")))) == ["b"]


def test_negation_as_failure():
    kb = kb_from("apple:Fruit.\nlemon:Fruit.\nlemon:Sour.\n"
                 "?X:Mild :- ?X:Fruit, \\naf ?X:Sour.")
    assert names(collect_set(kb, "X", FlIsA(X, atom("Mild")))) == ["apple"]


# --- queries -----------------------------------------------------------------


def test_ground_membership():
    kb = kb_from("RedWine::Wine.\nmerlot:RedWine.")
    assert query_goal(kb, FlIsA(FlSymbol("merlot"), atom("Wine")))
    assert not query_goal(kb, FlIsA(FlSymbol("merlot"), atom("Beer")))


def test_collect_set_sorted_and_deduplicated():
    kb = kb_from("b:C.\na:C.\na:D.\n?X:C :- ?X:D.")
    assert names(collect_set(kb, "X", FlIsA(X, atom("C")))) == ["a", "b"]


def test_answers_are_printed_once(monkeypatch):
    """Each symbol keeps the printed form its first print worked out, so an
    ``instances`` query asked again sorts and dedups its answers without
    matching a name against ``flogic._PLAIN_NAME``."""
    from owlfl import flogic
    kb = kb_from("b:C.\na:C.\n'x y':C.\n'1':C.\n1:C.")
    plain, matches = flogic._PLAIN_NAME, 0

    class Counting:
        def match(self, name):
            nonlocal matches
            matches += 1
            return plain.match(name)
    monkeypatch.setattr(flogic, "_PLAIN_NAME", Counting())
    goal = FlIsA(X, atom("C"))
    answers = names(collect_set(kb, "X", goal))
    assert answers == ["'1'", "'x y'", "1", "a", "b"]
    assert matches > 0
    matches = 0
    assert names(collect_set(kb, "X", goal)) == answers
    assert matches == 0


def test_collect_set_unused_variable_rejected():
    kb = kb_from("a:C.")
    for cls in ("C", "D"):  # the second call finds the goal's shape compiled
        with pytest.raises(EngineError) as e:
            collect_set(kb, "Z", FlIsA(X, atom(cls)))
        assert (e.value.code, e.value.message) == \
            ("unsafe-goal", "?Z does not occur in the goal")
        assert names(collect_set(kb, "X", FlIsA(X, atom(cls)))) == \
            (["a"] if cls == "C" else [])


def test_goals_of_one_shape_share_a_plan_not_constants(monkeypatch):
    monkeypatch.setattr(engine, "_PLANS", {})  # the process's plans
    kb = kb_from("a:C.\nb:D.\nC::E.")
    assert names(collect_set(kb, "X", FlIsA(X, atom("C")))) == ["a"]
    assert names(collect_set(kb, "X", FlIsA(X, atom("D")))) == ["b"]
    assert len(engine._PLANS) == 1
    insert_fact(kb, FlIsA(FlSymbol("c"), atom("D")))
    assert names(collect_set(kb, "X", FlIsA(X, atom("E")))) == ["a"]
    assert names(collect_set(kb, "X", FlIsA(X, atom("D")))) == ["b", "c"]
    assert [holds(kb, FlIsA(FlSymbol(i), atom("D"))) for i in "abc"] == \
        [False, True, True]
    assert len(engine._PLANS) == 2


def test_refused_goal_is_refused_on_every_call():
    kb = kb_from("a:C.\nb:D.")
    # first another KB compiles the shape, as a rule body and as a goal
    other = kb_from("h(?X) :- \\naf ?X:E, ?X:F.\nc:F.")
    assert names(collect_set(other, "X", FlPred("h", (X,)))) == ["c"]
    with pytest.raises(EngineError) as e:
        holds(other, [FlNaf((FlIsA(X, atom("E")),)), FlIsA(X, atom("F"))])
    assert e.value.code == "unsafe-goal"
    unsafe = [FlNaf((FlIsA(X, atom("C")),)), FlIsA(X, atom("D"))]
    for call in [lambda: query_goal(kb, unsafe), lambda: holds(kb, unsafe),
                 lambda: collect_set(kb, "X", unsafe)] * 2:
        with pytest.raises(EngineError) as e:
            call()
        assert (e.value.code, e.value.message) == \
            ("unsafe-goal", "unbound variable under negation in goal")
    for a, b in [("a", "b"), ("c", "d")]:  # worded with each call's constants
        with pytest.raises(EngineError) as e:
            query_goal(kb, FlEquiv(atom(a), atom(b)))
        assert (e.value.code, e.value.message) == \
            ("unsupported-literal", f"cannot evaluate {a} :=: {b}")


def test_naf_and_list_goals():
    kb = kb_from("a:C.\nb:C.\nb:D.\noneOf(E, [a, b]).\nr([a, b]).")
    a, b, e = FlSymbol("a"), FlSymbol("b"), FlSymbol("E")

    def naf(c, d):
        return [FlIsA(X, atom(c)), FlNaf((FlIsA(X, atom(d)),))]
    assert names(collect_set(kb, "X", naf("C", "D"))) == ["a"]
    assert names(collect_set(kb, "X", naf("D", "C"))) == []
    assert names(collect_set(kb, "X", naf("C", "E"))) == ["a", "b"]
    # a body built in Python as a list, not the parser's tuple
    in_list = [FlIsA(X, atom("C")), FlNaf([FlIsA(X, atom("D"))])]
    assert names(collect_set(kb, "X", in_list)) == ["a"]
    assert names(s["X"] for s in query_goal(kb, in_list)) == ["a"]
    assert holds(kb, in_list)
    assert [holds(kb, FlPred("r", (FlList(pair),)))
            for pair in [(a, b), (b, a), (a, a)]] == [True, False, False]
    assert names(collect_set(kb, "X", FlPred("oneOf", (e, X)))) == ["[a,b]"]
    members = [FlPred("oneOf", (e, FlVariable("L"))),
               FlMember(X, FlVariable("L"))]
    assert names(collect_set(kb, "X", members)) == ["a", "b"]
    assert [print_term(s["L"]) for s in query_goal(kb, members)] == \
        ["[a,b]", "[a,b]"]


def test_conjunctive_goal():
    kb = kb_from("a:C.\na:D.\nb:C.")
    sols = query_goal(kb, [FlIsA(X, atom("C")), FlIsA(X, atom("D"))])
    assert names(s["X"] for s in sols) == ["a"]


def test_unbound_naf_goal_rejected():
    kb = kb_from("a:C.")
    with pytest.raises(EngineError) as e:
        query_goal(kb, FlNaf((FlIsA(X, atom("C")),)))
    assert e.value.code == "unsafe-goal"


def test_holds_agrees_with_query_goal():
    kb = kb_from("a:C.\na:D.\nb:C.\nRedWine::Wine.\nmerlot:RedWine.")
    goals = [FlIsA(FlSymbol("merlot"), atom("Wine")),
             FlIsA(FlSymbol("merlot"), atom("Beer")),
             [FlIsA(X, atom("C")), FlIsA(X, atom("D"))],
             [FlIsA(X, atom("D")), FlNaf((FlIsA(X, atom("C")),))],
             FlIsA(X, atom("Nope"))]
    assert [holds(kb, g) for g in goals] == \
        [bool(query_goal(kb, g)) for g in goals] == \
        [True, False, True, False, False]
    with pytest.raises(EngineError) as e:
        holds(kb, FlNaf((FlIsA(X, atom("C")),)))
    assert e.value.code == "unsafe-goal"


def test_union_and_difference_goals():
    kb = kb_from("a:C.\nb:D.\nc:C.\nc:D.")
    from owlfl.flogic import FlDifference, FlUnion
    u = collect_set(kb, "X", FlIsA(X, FlUnion(atom("C"), atom("D"))))
    assert names(u) == ["a", "b", "c"]
    d = collect_set(kb, "X", FlIsA(X, FlDifference(atom("C"), atom("D"))))
    assert names(d) == ["a"]


# --- constraint checks -------------------------------------------------------


def test_disjoint_violation_message():
    kb = kb_from("disjoint_classes(Male, Female).\nalex:Male.\nalex:Female.")
    v = run_constraint_checks(kb)
    assert [x.message for x in v] == [
        "[OWL2FLORA] disjointWith constraint violation: "
        "Male disjoint with Female"]


def test_oneof_violation_message():
    kb = kb_from("oneOf(WineColor, [White,Rose,Red]).\n"
                 "White:WineColor.\nPurple:WineColor.")
    v = run_constraint_checks(kb)
    assert [x.message for x in v] == [
        "[OWL2FLORA] oneOf constraint: extraneous class member "
        "Purple : WineColor"]


def test_max_cardinality_distinct_counting():
    base = "Person[hasParent{0:2} *=> _object].\np:Person.\n"
    two = kb_from(base + "p[hasParent -> m].\np[hasParent -> d].\n"
                         "p[hasParent -> m].")  # duplicate does not count
    assert run_constraint_checks(two) == []
    three = kb_from(base + "p[hasParent -> m].\np[hasParent -> d].\n"
                           "p[hasParent -> g].")
    v = run_constraint_checks(three)
    assert len(v) == 1 and "inconsistent with the constraints" in v[0].message


def test_min_cardinality_only_behind_flag():
    kb = kb_from("C[p{1:*} *=> _object].\na:C.")
    assert run_constraint_checks(kb) == []
    v = run_constraint_checks(kb, check_min_cardinality=True)
    assert len(v) == 1


def test_checker_with_only_its_format_literal_fires_once():
    """A checker body of nothing but its ``format`` literal is an empty
    plan, which holds once."""
    kb = kb_from("a:C.\n"
                 "check_always :- format(2, 'always', [])@_prolog(format).")
    assert [(v.checker, v.message) for v in run_constraint_checks(kb)] == \
        [("check_always", "always")]


def test_some_values_from_check():
    ok = kb_from("someValuesFrom(Wine, hasMaker, Winery).\n"
                 "w:Wine.\nw[hasMaker -> m].\nm:Winery.")
    assert run_constraint_checks(ok) == []
    bad = kb_from("someValuesFrom(Wine, hasMaker, Winery).\n"
                  "w:Wine.\nw[hasMaker -> m].")
    assert len(run_constraint_checks(bad)) == 1


def test_has_value_check():
    bad = kb_from("hasValue(Burgundy, hasSugar, Dry).\nb:Burgundy.")
    v = run_constraint_checks(bad)
    assert len(v) == 1 and "missing value Dry" in v[0].message


def test_inverse_functional_check():
    bad = kb_from("inverseFunctional(producesWine).\n"
                  "w1[producesWine -> wine].\nw2[producesWine -> wine].")
    v = run_constraint_checks(bad)
    assert len(v) == 1 and v[0].checker == \
        "check_inverseFunctional_constraints"


def test_range_violation():
    bad = kb_from("Country[locatedIn *=> Region].\n"
                  "fr:Country.\nfr[locatedIn -> europe].")
    v = run_constraint_checks(bad)
    assert len(v) == 1
    ok = kb_from("Country[locatedIn *=> Region].\n"
                 "fr:Country.\nfr[locatedIn -> europe].\neurope:Region.")
    assert run_constraint_checks(ok) == []


@pytest.mark.parametrize("range_, bad, good", [
    ("(A ; B)", "v", "a"), ("(_object - A)", "a", "v")])
def test_range_check_on_a_compound_class_tests_the_value(range_, bad, good):
    """The tested value is a constant of the class test's goal, so its
    plan reads it as bound: a plan that took its slot as free would pass
    any value, since ``A`` and ``_object - A`` both have members here."""
    text = f"C[p *=> {range_}].\nc:C.\na:A.\nc[p -> ~w]."
    v = run_constraint_checks(kb_from(text.replace("~w", bad)))
    assert [x.message for x in v] == [
        f"[OWL2FLORA] signature range violation: c.p value {bad} is not in "
        f"class {range_}"]
    assert run_constraint_checks(kb_from(text.replace("~w", good))) == []


# --- insertion ---------------------------------------------------------------


def test_insert_then_query():
    kb = kb_from("RedWine::Wine.")
    insert_fact(kb, FlIsA(FlSymbol("merlot7"), atom("RedWine")))
    assert query_goal(kb, FlIsA(FlSymbol("merlot7"), atom("Wine")))


def test_insert_duplicate_is_idempotent():
    kb = kb_from("a:C.")
    before = store_facts(kb.store)
    insert_fact(kb, FlIsA(FlSymbol("a"), atom("C")))
    assert store_facts(kb.store) == before


def test_a_signature_is_held_and_checked_once():
    """A signature stated twice, or inserted again, is one signature, and
    its bound is checked once."""
    kb = kb_from("C[p{0:1} *=> _object].\nC[p{0:1} *=> _object].\n"
                 "a:C.\na[p -> b1].\na[p -> b2].")
    assert len(kb.signatures) == 1
    insert_fact(kb, FlSignature(atom("C"), FlSymbol("p"), atom("_object"),
                                (0, 1)))
    assert len(kb.signatures) == 1
    assert [v.message for v in run_constraint_checks(kb)] == [
        "[OWL2FLORA] cardinality constraint violation: KB is inconsistent "
        "with the constraints: a.p has 2 distinct values, allowed {0:1}"]


def test_equivalence_fact_adds_no_facts():
    kb = kb_from("a:Vin.\nWine :=: Vin.")
    assert store_facts(kb.store) == store_facts(kb_from("a:Vin.").store)
    before = store_facts(kb.store)
    insert_fact(kb, FlEquiv(atom("Red"), atom("Rouge")))
    assert store_facts(kb.store) == before


def test_unstorable_insert_leaves_kb_unchanged():
    kb = kb_from("a:C.\n?X:D :- ?X:C.")
    before, facts = store_facts(kb.store), dict(kb.base_facts)
    for bad in (FlIsA(FlSymbol("b"), FlUnion(atom("C"), atom("D"))),
                FlSubClass(FlIntersection(atom("C"), atom("D")), atom("E"))):
        with pytest.raises(EngineError) as e:
            insert_fact(kb, bad)
        assert e.value.code == "unsupported-rule"
        assert kb.base_facts == facts
        assert store_facts(kb.store) == before
    insert_fact(kb, FlIsA(FlSymbol("b"), atom("C")))
    assert names(collect_set(kb, "X", FlIsA(X, atom("D")))) == ["a", "b"]


def test_subclass_insert_restratifies():
    text = "a:c.\na:k.\n?X:f :- ?X:c, \\naf ?X:d.\n?X:h :- ?X:k, \\naf ?X:m.\n"
    kb = kb_from(text)
    assert names(collect_set(kb, "X", FlIsA(X, atom("f")))) == ["a"]
    # h::d puts h below the negation of d: a:h gives a:d, so no a:f
    insert_fact(kb, FlSubClass(atom("h"), atom("d")))
    assert store_facts(kb.store) == store_facts(kb_from(text + "h::d.").store)
    assert collect_set(kb, "X", FlIsA(X, atom("f"))) == []
    # f::d closes a negation cycle: rejected, and the KB stays as it was
    before, facts = kb.store, dict(kb.base_facts)
    with pytest.raises(EngineError) as e:
        insert_fact(kb, FlSubClass(atom("f"), atom("d")))
    assert e.value.code == "non-stratified-program"
    assert kb.store is before and kb.base_facts == facts


def test_insert_non_ground_rejected():
    kb = kb_from("a:C.")
    with pytest.raises(EngineError) as e:
        insert_fact(kb, FlIsA(X, atom("RedWine")))
    assert e.value.code == "non-ground-insert"


def test_repeated_base_fact_before_saturate_is_not_added():
    text = "a:C.\nC::D.\na[p -> b].\ng(a, [b, c])."
    kb = kb_from(text)
    facts = dict(kb.base_facts)
    for rule in parse_program(text)[0].rules:
        insert_fact(kb, rule.head)
    assert kb.base_facts == facts
    assert store_facts(kb.store) == store_facts(kb_from(text).store)


def test_first_insert_work_does_not_grow_with_the_base_facts(monkeypatch):
    """A KB's first insert plus ``saturate`` makes as many heads and
    argument tuples with 8,000 base facts as with 500."""
    counts = []
    for n in (500, 8000):
        kb = kb_from("\n".join(f"m{i}:C{i % 20}." for i in range(n)))
        saturate(kb)
        calls = {"_head": 0, "_args": 0}
        with monkeypatch.context() as m:
            for name in calls:
                def counting(lit, name=name, f=getattr(engine, name)):
                    calls[name] += 1
                    return f(lit)
                m.setattr(engine, name, counting)
            insert_fact(kb, FlIsA(FlSymbol("z0"), atom("C3")))
            saturate(kb)
        counts.append(calls)
    assert counts[0] == counts[1], counts


def test_unstorable_base_fact_fails_in_saturate_after_an_insert():
    """``a:(B ; C)`` is rejected by ``load_program``, so no insert or
    ``saturate`` ever sees it."""
    with pytest.raises(EngineError) as e:
        kb_from("a:(B ; C).")
    assert (e.value.code, e.value.message) == (
        "unsupported-rule", "compound class expression in rule head")


# --- naive-oracle equivalence ------------------------------------------------


CLASSES_A = ["A0", "A1", "A2"]
CLASSES_B = ["B0", "B1"]
PROPS = ["p", "q"]


def random_two_stratum_program(rng):
    """Facts plus stratum-0 rules (positive, heads in CLASSES_A) and
    stratum-1 rules (may negate CLASSES_A, heads in CLASSES_B)."""
    inds = [f"i{k}" for k in range(rng.randrange(2, 8))]
    rules = []
    for _ in range(rng.randrange(3, 30)):
        kind = rng.randrange(3)
        if kind == 0:
            rules.append(fact(FlIsA(FlSymbol(rng.choice(inds)),
                                    atom(rng.choice(CLASSES_A)))))
        elif kind == 1:
            rules.append(fact(FlSubClass(atom(rng.choice(CLASSES_A)),
                                         atom(rng.choice(CLASSES_A)))))
        else:
            rules.append(fact(FlAttrValue(FlSymbol(rng.choice(inds)),
                                          FlSymbol(rng.choice(PROPS)),
                                          FlSymbol(rng.choice(inds)))))
    x, y = FlVariable("X"), FlVariable("Y")
    for _ in range(rng.randrange(0, 11)):
        if rng.random() < 0.5:
            body = [FlIsA(x, atom(rng.choice(CLASSES_A)))]
            if rng.random() < 0.4:
                body.append(FlIsA(x, atom(rng.choice(CLASSES_A))))
            rules.append(FlRule(FlIsA(x, atom(rng.choice(CLASSES_A))),
                                tuple(body)))
        elif rng.random() < 0.6:
            rules.append(FlRule(
                FlIsA(x, atom(rng.choice(CLASSES_B))),
                (FlIsA(x, atom(rng.choice(CLASSES_A))),
                 FlNaf((FlIsA(x, atom(rng.choice(CLASSES_A))),)))))
        else:
            rules.append(FlRule(
                FlAttrValue(x, FlSymbol(PROPS[1]), y),
                (FlAttrValue(x, FlSymbol(PROPS[0]), y),)))
    return FlProgram(tuple(rules))


def naive_evaluate(program, fixed=None):
    """Re-scan every rule against the full store until nothing changes,
    lower stratum first.  Deliberately dumb; shares no evaluation machinery
    with the engine under test.

    With ``fixed``, a set of (individual, class) pairs, every rule runs in
    one stratum and a negated membership (a ``\\naf`` or the subtrahend of
    a class difference) holds when its pair is not in ``fixed``: the result
    is the least model of the program with its negations fixed there."""
    isa, sub, attr, preds = set(), set(), set(), set()
    negated = isa if fixed is None else fixed

    def term(t, b):
        return b[t.name] if isinstance(t, FlVariable) else t

    def add_head(h, b):
        if isinstance(h, FlIsA):
            isa.add((term(h.obj, b), term(h.cls.term, b)))
        elif isinstance(h, FlSubClass):
            sub.add((term(h.sub.term, b), term(h.super.term, b)))
        elif isinstance(h, FlPred):
            preds.add((h.name, tuple(term(a, b) for a in h.args)))
        else:
            attr.add((term(h.obj, b), term(h.prop, b), term(h.value, b)))

    for r in program.rules:
        if not r.body:
            add_head(r.head, {})

    def individuals():
        listed = {e for (name, args) in preds if name == "oneOf"
                  for e in args[1].elements}
        return {i for (i, _) in isa} | {s for (s, _, _) in attr} | \
               {v for (_, _, v) in attr} | listed

    def closure():
        while True:
            n = (len(isa), len(sub), len(attr))
            for i in individuals():
                isa.add((i, FlSymbol("_object")))
            for (a, b) in list(sub):
                for (c, d) in list(sub):
                    if b == c:
                        sub.add((a, d))
            for (i, c) in list(isa):
                for (a, b) in sub:
                    if a == c:
                        isa.add((i, b))
            if (len(isa), len(sub), len(attr)) == n:
                return

    def holds(lit, b, members=isa):
        if isinstance(lit, FlIsA) and isinstance(lit.cls, FlDifference):
            return holds(FlIsA(lit.obj, lit.cls.a), b) and \
                not holds(FlIsA(lit.obj, lit.cls.b), b, negated)
        if isinstance(lit, FlIsA):
            return (term(lit.obj, b), term(lit.cls.term, b)) in members
        if isinstance(lit, FlSubClass):
            return (term(lit.sub.term, b), term(lit.super.term, b)) in sub
        if isinstance(lit, FlPred):
            return (lit.name, tuple(term(a, b) for a in lit.args)) in preds
        if isinstance(lit, FlNaf):
            return not holds(lit.inner[0], b, negated)
        return (term(lit.obj, b), term(lit.prop, b),
                term(lit.value, b)) in attr

    def constants():
        out = individuals() | {t for pair in isa | sub for t in pair} | \
            {p for (_, p, _) in attr}
        return out | {a for (_, args) in preds for a in args
                      if isinstance(a, FlSymbol)}

    def run(rule_set):
        while True:
            n = (len(isa), len(sub), len(attr), len(preds))
            closure()
            consts = sorted(constants(), key=lambda t: t.name)
            for r in rule_set:
                vars_ = sorted({v.name for lit in r.body
                                for v in _lit_vars(lit)})
                for b in assignments(r.body, vars_, consts, {}):
                    add_head(r.head, b)
            closure()
            if (len(isa), len(sub), len(attr), len(preds)) == n:
                return

    def assignments(body, vars_, consts, b):
        """Every binding of ``vars_`` to constants that satisfies ``body``;
        a partial binding is dropped once a literal it fully binds fails."""
        if len(b) == len(vars_):
            # a body without variables has not been checked yet
            if vars_ or all(holds(l, b) for l in body):
                yield b
            return
        var = vars_[len(b)]
        for c in consts:
            b[var] = c
            if all(holds(l, b) for l in body
                   if all(v.name in b for v in _lit_vars(l))):
                yield from assignments(body, vars_, consts, b)
            del b[var]

    def _lit_vars(lit):
        if isinstance(lit, FlNaf):
            return _lit_vars(lit.inner[0])
        if isinstance(lit, FlIsA):
            cls = lit.cls.a if isinstance(lit.cls, FlDifference) else lit.cls
            terms = [lit.obj, cls.term]
        elif isinstance(lit, FlSubClass):
            terms = [lit.sub.term, lit.super.term]
        elif isinstance(lit, FlPred):
            terms = list(lit.args)
        else:
            terms = [lit.obj, lit.prop, lit.value]
        return [t for t in terms if isinstance(t, FlVariable)]

    stratum0 = [r for r in program.rules
                if r.body and not any(isinstance(l, FlNaf) for l in r.body)]
    stratum1 = [r for r in program.rules
                if r.body and any(isinstance(l, FlNaf) for l in r.body)]
    closure()
    run(stratum0 if fixed is None else stratum0 + stratum1)
    run(stratum0 + stratum1)
    return isa, sub, attr


def test_semi_naive_matches_naive_oracle():
    rng = random.Random(20260823)
    start = time.monotonic()
    for trial in range(200):
        program = random_two_stratum_program(rng)
        kb = load_program(program)
        store = saturate(kb)
        isa, sub, attr = naive_evaluate(program)
        assert store.isa == isa, f"trial {trial}"
        assert store.sub == sub, f"trial {trial}"
        assert store.attr == attr, f"trial {trial}"
    assert time.monotonic() - start < 30.0


POOL = ["A", "B", "C"]
INDIVIDUALS = ["a", "b", "c"]


def mixed_program(facts, rules):
    """A program over a small class pool from drawn tuples: base ``isa``,
    ``::``, ``attr``, ``r/1`` and ``link/2`` facts; rules with ``\\naf``,
    class differences, derived ``::`` edges, attribute rules, rules that
    make new individuals and rules with a variable class."""
    x, y = FlVariable("X"), FlVariable("Y")
    p, q = FlSymbol("p"), FlSymbol("q")
    out = []
    for kind, i, j, c, d in facts:
        i, j = FlSymbol(i), FlSymbol(j)
        out.append(fact((FlIsA(i, atom(c)), FlSubClass(atom(c), atom(d)),
                         FlAttrValue(i, p, j), FlPred("r", (i,)),
                         FlPred("link", (i, FlSymbol(c))))[kind]))
    for kind, c, d, e, i in rules:
        c, d, e, i = atom(c), atom(d), atom(e), FlSymbol(i)
        out.append((
            FlRule(FlIsA(x, c), (FlIsA(x, d),)),
            FlRule(FlIsA(x, c), (FlIsA(x, d), FlNaf((FlIsA(x, e),)))),
            FlRule(FlIsA(x, c), (FlIsA(x, FlDifference(d, e)),)),
            FlRule(FlSubClass(c, d), (FlIsA(i, e),)),
            FlRule(FlSubClass(c, d), (FlIsA(i, atom("_object")),
                                      FlNaf((FlIsA(i, e),)))),
            FlRule(FlIsA(y, c), (FlAttrValue(x, p, y), FlIsA(x, d))),
            FlRule(FlAttrValue(x, q, y),
                   (FlAttrValue(x, p, y), FlNaf((FlIsA(y, c),)))),
            FlRule(FlIsA(x, c), (FlPred("r", (x,)), FlNaf((FlIsA(x, d),)))),
            FlRule(FlIsA(x, c), (FlIsA(x, atom("_object")),
                                 FlNaf((FlIsA(x, d),)))),
            FlRule(FlIsA(x, Atom(y)), (FlPred("link", (x, y)),)),
            FlRule(FlIsA(x, c), (FlPred("link", (x, y)),
                                 FlNaf((FlIsA(x, Atom(y)),)))),
        )[kind])
    return FlProgram(tuple(out))


@settings(derandomize=True, deadline=None, max_examples=400)
# negation through inheritance, a difference, new members of _object
@example([(0, "a", "a", "A", "A"), (1, "a", "a", "C", "B")],
         [(1, "C", "A", "B", "a")])
@example([(0, "a", "a", "A", "A")],
         [(2, "C", "A", "B", "a"), (0, "B", "A", "A", "a")])
@example([(3, "a", "a", "A", "A")],
         [(8, "B", "C", "A", "a"), (7, "A", "B", "A", "a")])
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(INDIVIDUALS),
                          st.sampled_from(INDIVIDUALS), st.sampled_from(POOL),
                          st.sampled_from(POOL)), max_size=6),
       st.lists(st.tuples(st.integers(0, 10), st.sampled_from(POOL),
                          st.sampled_from(POOL), st.sampled_from(POOL),
                          st.sampled_from(INDIVIDUALS)), min_size=1,
                max_size=6))
def test_stratified_model_or_rejection(facts, rules):
    """The engine rejects the program, never one without negation, or its
    store is a stable model: the least model of the program with every
    negated membership fixed to its value in that store."""
    program = mixed_program(facts, rules)
    try:
        store = saturate(load_program(program))
    except EngineError as e:
        assert e.code == "non-stratified-program"
        assert any(isinstance(lit, FlNaf) or isinstance(
            getattr(lit, "cls", None), FlDifference)
            for r in program.rules for lit in r.body)
        return
    isa, sub, attr = naive_evaluate(program, fixed=store.isa)
    assert (store.isa, store.sub, store.attr) == (isa, sub, attr)


def test_insert_order_independence():
    rng = random.Random(99)
    for trial in range(20):
        program = random_two_stratum_program(rng)
        extra = FlIsA(FlSymbol("i0"), atom(rng.choice(CLASSES_A)))
        upfront = load_program(FlProgram(program.rules + (fact(extra),)))
        incremental = load_program(program)
        incremental.store
        insert_fact(incremental, extra)
        assert store_facts(upfront.store) == store_facts(incremental.store), \
            f"trial {trial}"


# --- prepared goals against the query code they replaced --------------------


def _oracle_solutions(kb, goal):
    """Each call checks and compiles its goal anew, constants in place."""
    literals = list(goal) if isinstance(goal, (list, tuple)) else [goal]
    store = kb.store
    bound, goal_vars = set(), set()
    for lit in literals:
        lit_vars = literal_vars(lit)
        if not isinstance(lit, (FlNaf, FlNeq)):
            bound |= lit_vars
        elif not lit_vars <= bound:
            raise EngineError("unsafe-goal",
                              "unbound variable under negation in goal")
        goal_vars |= lit_vars
    slots = {v: i for i, v in enumerate(sorted(goal_vars))}
    plan = _compile_conj(literals, slots)
    return slots, _solve(plan, [None] * len(slots), store, None)


def oracle_query_goal(kb, goal):
    slots, envs = _oracle_solutions(kb, goal)
    seen, out = set(), []
    for env in envs:
        resolved = {v: FlVariable(v) if env[s] is None else env[s]
                    for v, s in slots.items()}
        key = tuple(sorted((v, print_term(t)) for v, t in resolved.items()))
        if key not in seen:
            seen.add(key)
            out.append(resolved)
    return out


def oracle_holds(kb, goal):
    return next(iter(_oracle_solutions(kb, goal)[1]), None) is not None


def oracle_collect_set(kb, template_var, goal):
    literals = list(goal) if isinstance(goal, (list, tuple)) else [goal]
    all_vars = set()
    for lit in literals:
        all_vars |= literal_vars(lit)
    if template_var not in all_vars:
        raise EngineError("unsafe-goal",
                          f"?{template_var} does not occur in the goal")
    values = {}
    for b in oracle_query_goal(kb, literals):
        t = b[template_var]
        values[print_term(t)] = t
    return [values[k] for k in sorted(values)]


def outcome(fn, *args):
    """A call's result as printed, or its error's code and message."""
    try:
        return repr(fn(*args))
    except EngineError as e:
        return e.code, e.message


def random_mixed_program(rng):
    """``mixed_program`` over tuples drawn as its hypothesis test draws
    them."""
    facts = [(rng.randrange(5), rng.choice(INDIVIDUALS),
              rng.choice(INDIVIDUALS), rng.choice(POOL), rng.choice(POOL))
             for _ in range(rng.randrange(7))]
    rules = [(rng.randrange(11), rng.choice(POOL), rng.choice(POOL),
              rng.choice(POOL), rng.choice(INDIVIDUALS))
             for _ in range(rng.randrange(1, 7))]
    return mixed_program(facts, rules)


def _constants(x):
    """The symbols of a literal, class expression or term."""
    if isinstance(x, FlSymbol):
        return {x}
    if isinstance(x, (tuple, list)):
        return set().union(*map(_constants, x))
    return set().union(*(_constants(getattr(x, f))
                         for f in getattr(x, "_fields", ())))


@pytest.mark.parametrize("make", [random_mixed_program,
                                  random_two_stratum_program])
def test_prepared_goals_match_the_old_query_code(make):
    """Every query verb's goal and the goal of --most-specific/--most-general,
    with random constants, on one KB at a time, so most calls reuse a plan
    compiled for other constants; the same answers in the same order, and
    the same errors, as solving each goal from scratch.  An insert between
    the calls changes the answers but not the plans.  The oracle compiles
    its goal with the same ``_compile_conj`` and ``_solve``, so it cannot
    catch a step that binds the wrong slots;
    ``test_goals_match_an_enumerating_oracle`` does."""
    from owlfl.cli import M, QUERIES, _sub
    rng = random.Random(20261019)
    for trial in range(60):
        program = make(rng)
        names = sorted(_constants([r.head for r in program.rules]) |
                       {FlSymbol("_object"), FlSymbol("nowhere")})
        kb = load_program(program)
        for step in range(40):
            if step == 20:
                insert_fact(kb, FlIsA(rng.choice(names), Atom(rng.choice(
                    names))))
            verb = rng.choice(sorted(QUERIES) + ["middle"])
            if verb == "middle":
                a, b = rng.choice(names), rng.choice(names)
                goal = [_sub(a, M), FlNeq(M, a), FlNeq(M, b), _sub(M, b)]
            else:
                n, goal_of = QUERIES[verb]
                goal = goal_of(*(rng.choice(names) for _ in range(n)))
            where = (trial, step, goal)
            assert outcome(query_goal, kb, goal) == \
                outcome(oracle_query_goal, kb, goal), where
            assert outcome(holds, kb, goal) == \
                outcome(oracle_holds, kb, goal), where
            for var in ("X", "M"):
                assert outcome(collect_set, kb, var, goal) == \
                    outcome(oracle_collect_set, kb, var, goal), where


# --- goals against an enumerating oracle ------------------------------------

GOAL_A, GOAL_INDS = ["A0", "A1", "A2"], ["i0", "i1", "i2", "i3"]

# goal fragments; a goal joins one to three of them, so their variables meet
GOAL_PARTS = [
    "?X:{a}", "?X[p -> ?Y]", "?X[p -> ?X]", "?X[?P -> ?Y]", "?X:?C",
    "{a}::?C", "?C::{a}", "?X:({a} ; {b})", "?X:({a} , {b})",
    "?X:({a} - {b})", "?X:(?C ; {a}), ?Y:?C", "?X:{a}, \\naf ?X:{b}",
    "?X[p -> ?Y], \\naf ?Y[q -> ?X]", "?X[p -> ?Y], \\naf (?X:{a}, ?Y:{b})",
    "?X:{a}, ?X != {i}", "?X:{a}, ?Y:{b}, ?X != ?Y", "l(?L), member(?X, ?L)",
    "l([?X, ?Y])", "?Y:{a}, member(?X, [?Y, {i}])",
    # a negation or disequality before the literal that binds its variable
    "\\naf ?X:{a}, ?X:{b}", "?X != {i}, ?X:{a}",
]
UNSAFE_PARTS = 2


def _fill(rng, text, classes):
    return text.format(a=rng.choice(classes), b=rng.choice(classes),
                       c=rng.choice(classes), i=rng.choice(GOAL_INDS),
                       j=rng.choice(GOAL_INDS), k=rng.randrange(2))


def random_goal_program(rng, negation):
    """Memberships, ``::`` edges, ``p`` values and ``l/1`` lists over the
    ``A`` classes; positive rules among them with an intersection and a
    union body; with ``negation``, rules into ``B0`` and ``B1`` that negate
    ``A`` memberships and ``q`` values."""
    lines = [_fill(rng, rng.choice(["{i}:{a}.", "{a}::{b}.", "{i}[p -> {j}].",
                                    "l([{i}, {j}])."]), GOAL_A)
             for _ in range(rng.randrange(4, 12))]
    rules = ["?X:{a} :- ?X:({b} , {c}).", "?X:{a} :- ?X:({b} ; {c}).",
             "?Y:{a} :- ?X[p -> ?Y], ?X:{b}.", "?X[q -> ?Y] :- ?X[p -> ?Y]."]
    if negation:
        rules += ["?X:B{k} :- ?X:{a}, \\naf ?X:{b}.",
                  "?X:B{k} :- ?X[p -> ?Y], \\naf ?Y[q -> ?X]."]
    lines += [_fill(rng, rng.choice(rules), GOAL_A)
              for _ in range(rng.randrange(1, 5))]
    program, diags = parse_program("\n".join(lines))
    assert not diags
    return program


def _store_terms(store):
    """Every term in the store's facts, list elements included."""
    out, work = set(), [a for rel in store.relations.values()
                        for t in rel.facts for a in t]
    while work:
        t = work.pop()
        if t not in out:
            out.add(t)
            work.extend(t.elements if isinstance(t, FlList) else ())
    return sorted(out, key=print_term)


def _ground(t, b):
    if isinstance(t, FlVariable):
        return b[t.name]
    if isinstance(t, FlList):
        return FlList(tuple(_ground(e, b) for e in t.elements))
    return t


def _in_class(x, cls, b, store):
    if isinstance(cls, Atom):
        return (x, _ground(cls.term, b)) in store.isa
    a, c = (_in_class(x, e, b, store) for e in (cls.a, cls.b))
    return a or c if isinstance(cls, FlUnion) else \
        a and c if isinstance(cls, FlIntersection) else a and not c


def _oracle_holds(lit, b, store):
    """Whether a literal holds in the store with its variables as in
    ``b``."""
    if isinstance(lit, FlIsA):
        return _in_class(_ground(lit.obj, b), lit.cls, b, store)
    if isinstance(lit, FlSubClass):
        return (_ground(lit.sub.term, b), _ground(lit.super.term, b)) \
            in store.sub
    if isinstance(lit, FlAttrValue):
        return tuple(_ground(t, b) for t in (lit.obj, lit.prop, lit.value)) \
            in store.attr
    if isinstance(lit, FlPred):
        rel = store.relations.get((lit.name, len(lit.args)))
        return rel is not None and \
            tuple(_ground(t, b) for t in lit.args) in rel.facts
    if isinstance(lit, FlNaf):
        return not all(_oracle_holds(x, b, store) for x in lit.inner)
    if isinstance(lit, FlNeq):
        return _ground(lit.a, b) != _ground(lit.b, b)
    items = _ground(lit.collection, b)  # a ``member`` literal
    return isinstance(items, FlList) and _ground(lit.item, b) in items.elements


def enumerated_solutions(store, literals):
    """Every assignment of the literals' variables to the store's terms
    under which each literal holds; a partial assignment is dropped once a
    literal whose variables it all binds fails."""
    names = []
    for lit in literals:
        names += sorted(literal_vars(lit) - set(names))
    terms, out = _store_terms(store), []

    def extend(b):
        if len(b) == len(names):
            out.append(dict(b))
            return
        var = names[len(b)]
        for t in terms:
            b[var] = t
            if all(_oracle_holds(lit, b, store) for lit in literals
                   if var in literal_vars(lit) <= b.keys()):
                extend(b)
            del b[var]
    if all(_oracle_holds(lit, {}, store) for lit in literals
           if not literal_vars(lit)):
        extend({})
    return out


def _unsafe(literals):
    """Whether a negation or disequality has a variable that no positive
    literal before it has."""
    seen = set()
    for lit in literals:
        if isinstance(lit, (FlNaf, FlNeq)) and not literal_vars(lit) <= seen:
            return True
        seen |= literal_vars(lit)
    return False


@pytest.mark.parametrize("negation", [False, True])
def test_goals_match_an_enumerating_oracle(negation):
    """``query_goal``, ``collect_set`` and ``holds`` against an oracle that
    tries every assignment of a goal's variables over the terms of the
    saturated store and tests each literal; it compiles no plan, so a step
    that takes a bound slot for free or a free one for bound shows.  Facts
    inserted between the goals reach the rules' delta plans (an
    intersection body among them) and, with ``negation``, a fresh
    saturation; the store must stay a model of every rule by the same
    oracle."""
    rng = random.Random(20261021 + negation)
    answered, refused = [0] * len(GOAL_PARTS), 0
    derived_by_insert = 0
    for trial in range(60):
        program = random_goal_program(rng, negation)
        rules = [r for r in program.rules if r.body]
        meets = [r for r in rules if isinstance(
            getattr(r.body[0], "cls", None), FlIntersection)]
        kb = load_program(program)
        classes = GOAL_A + ["B0", "B1", "_object"]
        for step in range(12):
            if step % 4 == 3:
                before = set(kb.store.isa)
                insert_fact(kb, parse_program(_fill(rng, rng.choice(
                    ["{i}:{a}.", "{i}[p -> {j}]."]), GOAL_A))[0].rules[0].head)
                derived_by_insert += any(
                    (b["X"], r.head.cls.term) not in before for r in meets
                    for b in enumerated_solutions(kb.store, r.body))
            store = kb.store
            for r in rules:
                for b in enumerated_solutions(store, r.body):
                    assert _oracle_holds(r.head, b, store), (trial, r, b)
            parts = rng.sample(range(len(GOAL_PARTS)), rng.randrange(1, 4))
            text = ", ".join(_fill(rng, GOAL_PARTS[k], classes)
                             for k in parts)
            goal = parse_program(f"g :- {text}.")[0].rules[0].body
            names = sorted(set().union(*map(literal_vars, goal)))
            var = rng.choice(names)
            where = (trial, step, text)
            if _unsafe(goal):
                for call in (lambda: query_goal(kb, goal),
                             lambda: holds(kb, goal),
                             lambda: collect_set(kb, var, goal)):
                    with pytest.raises(EngineError, match="^unsafe-goal: "):
                        call()
                refused += 1
                continue
            expected = {tuple(print_term(b[v]) for v in names)
                        for b in enumerated_solutions(store, goal)}
            got = [tuple(print_term(s[v]) for v in names)
                   for s in query_goal(kb, goal)]
            assert sorted(got) == sorted(expected), where
            assert holds(kb, goal) == bool(expected), where
            assert [print_term(t) for t in collect_set(kb, var, goal)] == \
                sorted({row[names.index(var)] for row in expected}), where
            for k in parts:
                answered[k] += bool(expected)
    assert all(answered[:-UNSAFE_PARTS]) and refused, (answered, refused)
    assert negation or derived_by_insert


CLASSES_C = ["C0", "C1", "C2", "C3"]


def random_structural_program(rng):
    """Positive programs with what the two-stratum generator never makes:
    ``::`` edges derived by rules once memberships exist (some only after a
    derived membership), an attribute join over a variable property, and
    individuals that occur only as attribute values or in a ``oneOf``
    list."""
    def cls():
        return atom(rng.choice(CLASSES_C))

    inds = [f"i{k}" for k in range(rng.randrange(2, 6))]
    values = inds + [f"v{k}" for k in range(3)]
    x, y, z, p = (FlVariable(n) for n in "XYZP")
    rules = [fact(FlPred("TransitiveProperty", (FlSymbol("p"),)))]
    for _ in range(rng.randrange(4, 16)):
        kind = rng.randrange(5)
        if kind == 0:
            rules.append(fact(FlIsA(FlSymbol(rng.choice(inds)), cls())))
        elif kind == 1:
            rules.append(fact(FlSubClass(cls(), cls())))
        elif kind == 2:
            rules.append(fact(FlAttrValue(FlSymbol(rng.choice(inds)),
                                          FlSymbol(rng.choice("pq")),
                                          FlSymbol(rng.choice(values)))))
        elif kind == 3:
            rules.append(fact(FlPred("below", (cls().term, cls().term))))
        else:
            elements = rng.sample(inds + ["w0", "w1"], 2)
            rules.append(fact(FlPred("oneOf", (cls().term, FlList(
                tuple(FlSymbol(e) for e in elements))))))
    for _ in range(rng.randrange(0, 6)):  # p-chains for the join rule
        a, b = rng.sample(inds, 2)
        rules.append(fact(FlAttrValue(FlSymbol(a), FlSymbol("p"),
                                      FlSymbol(b))))
    rules += [
        FlRule(FlSubClass(Atom(x), Atom(y)), (FlPred("below", (x, y)),)),
        FlRule(FlAttrValue(x, p, z),
               (FlPred("TransitiveProperty", (p,)),
                FlAttrValue(x, p, y), FlAttrValue(y, p, z))),
    ]
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(4)
        if kind == 0:  # an edge that appears only after a derived membership
            rules.append(FlRule(FlPred("below", (cls().term, cls().term)),
                                (FlIsA(x, cls()),)))
        elif kind == 1:
            rules.append(FlRule(FlIsA(x, cls()), (FlIsA(x, cls()),)))
        elif kind == 2:
            rules.append(FlRule(FlIsA(y, cls()), (
                FlIsA(x, cls()), FlAttrValue(x, FlSymbol("p"), y))))
        else:
            rules.append(FlRule(FlAttrValue(x, FlSymbol("q"), y),
                                (FlAttrValue(x, FlSymbol("p"), y),)))
    return FlProgram(tuple(rules))


def test_structural_closure_matches_naive_oracle():
    rng = random.Random(20261018)
    obj = FlSymbol("_object")
    seen = {"late-sub": 0, "join": 0, "value-only": 0}
    start = time.monotonic()
    for trial in range(150):
        program = random_structural_program(rng)
        store = saturate(load_program(program))
        isa, sub, attr = naive_evaluate(program)
        assert (store.isa, store.sub, store.attr) == (isa, sub, attr), \
            f"trial {trial}"
        base = {r.head for r in program.rules if not r.body}
        seen["late-sub"] += any(
            FlSubClass(Atom(a), Atom(b)) not in base and (i, a) in isa
            for (a, b) in sub for (i, _) in isa)
        seen["join"] += any(FlAttrValue(s, p, v) not in base
                            for (s, p, v) in attr if p == FlSymbol("p"))
        seen["value-only"] += any(
            (FlSymbol(n), obj) in isa for n in ("v0", "v1", "v2", "w0", "w1"))
    assert all(seen.values()), seen
    assert time.monotonic() - start < 30.0


def _random_insert(rng, program, store, classes, props):
    """One insertable fact and its kind: new facts of every stored family,
    a ``oneOf`` list, a repeat of a base fact, an already derived fact, or a
    signature."""
    inds = [f"i{k}" for k in range(6)] + ["n0"]

    def cls():
        return atom(rng.choice(classes))

    def sym(names):
        return FlSymbol(rng.choice(names))

    kind = rng.choice(["isa", "sub", "attr", "pred", "oneOf", "repeat",
                       "derived", "signature"])
    base = [r.head for r in program.rules if not r.body]
    derived = [FlIsA(i, Atom(c)) for i, c in store.isa
               if FlIsA(i, Atom(c)) not in base]
    if kind == "isa":
        return kind, FlIsA(sym(inds), cls())
    if kind == "sub":
        return kind, FlSubClass(cls(), cls())
    if kind == "attr":
        return kind, FlAttrValue(sym(inds), sym(props), sym(inds + ["v0"]))
    if kind == "pred":
        return kind, FlPred("below", (cls().term, cls().term))
    if kind == "oneOf":
        return kind, FlPred("oneOf", (cls().term, FlList(tuple(
            FlSymbol(e) for e in rng.sample(inds + ["w0", "w2"], 2)))))
    if kind == "repeat" and base:
        return kind, rng.choice(base)
    if kind == "derived" and derived:
        return kind, rng.choice(derived)
    return "signature", FlSignature(cls(), sym(props), cls(), (0, 1))


def test_incremental_insert_matches_upfront_load():
    """Facts inserted one after another into a saturated KB give the store
    of loading them up front.  A negation-free KB keeps its store object
    (the insert extends it); a KB with a ``\\naf`` or a class difference
    in a rule body builds a new one.  An insert whose up-front load is not
    stratified is rejected and leaves the store as it was."""
    rng = random.Random(20261019)
    x = FlVariable("X")
    seen = {k: 0 for k in ("isa", "sub", "attr", "pred", "oneOf", "repeat",
                           "derived", "signature", "kept", "rebuilt",
                           "intersection", "difference", "rejected")}
    start = time.monotonic()
    for trial in range(240):
        if trial % 2:
            program = random_structural_program(rng)
            classes, props = CLASSES_C, ["p", "q"]
            if rng.random() < 0.5:  # an intersection an insert can complete
                a, b, c = rng.sample(CLASSES_C, 3)
                program = FlProgram(program.rules + (FlRule(
                    FlIsA(x, atom(c)),
                    (FlIsA(x, FlIntersection(atom(a), atom(b))),)),))
                seen["intersection"] += 1
        else:
            program = random_two_stratum_program(rng)
            classes, props = CLASSES_A + CLASSES_B, PROPS
            if rng.random() < 0.3:
                a, b = rng.sample(CLASSES_A, 2)
                program = FlProgram(program.rules + (FlRule(
                    FlIsA(x, atom(rng.choice(CLASSES_B))),
                    (FlIsA(x, FlDifference(atom(a), atom(b))),)),))
                seen["difference"] += 1
        negation = any(isinstance(lit, FlNaf) or (
            isinstance(lit, FlIsA) and isinstance(lit.cls, FlDifference))
            for r in program.rules for lit in r.body)
        kb = load_program(program)
        store = kb.store
        inserted = []
        for _ in range(rng.randrange(1, 5)):
            kind, f = _random_insert(rng, program, kb.store, classes, props)
            seen[kind] += 1
            changes = kind != "signature" and \
                engine._head(f) not in kb.base_facts
            before = kb.store
            upfront = load_program(FlProgram(
                program.rules + tuple(fact(g) for g in inserted + [f])))
            try:
                expected = store_facts(upfront.store)
            except EngineError as e:
                assert e.code == "non-stratified-program", f"trial {trial}"
                snapshot = store_facts(before)
                with pytest.raises(EngineError) as e:
                    insert_fact(kb, f)
                assert e.value.code == "non-stratified-program"
                assert kb.store is before, f"trial {trial}"
                assert store_facts(before) == snapshot, f"trial {trial}"
                seen["rejected"] += 1
                continue
            insert_fact(kb, f)
            inserted.append(f)
            assert store_facts(kb.store) == expected, \
                f"trial {trial}: {inserted}"
            if negation and changes:
                assert kb.store is not before, f"trial {trial}"
        if not negation:
            assert kb.store is store, f"trial {trial}"
        seen["rebuilt" if negation else "kept"] += 1
    assert all(seen.values()), seen
    assert time.monotonic() - start < 30.0


ONES = {"integer": FlLiteralTerm("1", "_integer"),
        "symbol": FlSymbol("1", quoted=True), "string": FlLiteralTerm("1")}


def trigger_rules():
    """One rule per kind of literal a delta plan can start at, each heading
    the class ``T_<kind>`` of its own.  ``compound-sub`` never holds."""
    x, c, s = FlVariable("X"), FlVariable("C"), FlSymbol
    bodies = {
        "attr-value": (FlAttrValue(x, s("p"), s("c")),),
        "pred-arg": (FlPred("g", (s("c"), x)),),
        "union": (FlIsA(x, FlUnion(atom("C0"), atom("C1"))),),
        "intersection": (FlIsA(x, FlIntersection(atom("C1"), atom("C2"))),),
        "difference": (FlIsA(x, FlDifference(atom("C2"), atom("C3"))),),
        "variable-class": (FlIsA(x, Atom(c)), FlPred("h", (c,))),
        "list": (FlPred("l", (FlList((s("a"), s("b"))),)),
                 FlIsA(x, atom("C0"))),
        "compound-sub": (FlSubClass(FlUnion(atom("C0"), atom("C1")),
                                    atom("C2")), FlIsA(x, atom("C3"))),
        **{f"one-{kind}": (FlAttrValue(x, s("p"), one),)
           for kind, one in ONES.items()},
    }
    return {kind: FlRule(FlIsA(x, atom(f"T_{kind}")), body)
            for kind, body in bodies.items()}


def random_trigger_fact(rng):
    """A fact that can fire one of ``trigger_rules``, or a near miss."""
    s = FlSymbol
    i, c = s(rng.choice(["i0", "i1", "i2"])), rng.choice(CLASSES_C)
    return rng.choice([
        FlIsA(i, atom(c)),
        FlIsA(i, atom(c)),  # memberships twice as often: most rules read them
        FlSubClass(atom(c), atom(rng.choice(CLASSES_C))),
        FlAttrValue(i, s(rng.choice("pq")),
                    rng.choice([s("c"), s("d"), *ONES.values()])),
        FlPred("g", (s(rng.choice("cd")), i)),
        FlPred("h", (s(c),)),
        FlPred("l", (FlList((s("a"), s(rng.choice("bc")))),)),
    ])


def test_insert_matches_upfront_load_for_each_trigger_kind():
    """Facts inserted one after another under rules that start at constant
    attribute values and predicate arguments, compound and variable
    classes, ground lists, a compound ``::`` side, and the integer ``1``,
    the symbol ``'1'`` and the string ``'1'``, give the store of loading
    them up front; each trigger fires on an insert."""
    rng = random.Random(20261020)
    rules = trigger_rules()
    fired = dict.fromkeys(rules, 0)
    start = time.monotonic()
    for trial in range(200):
        chosen = [k for k in rules if rng.random() <
                  (0.3 if k == "difference" else 0.7)]
        base = [fact(random_trigger_fact(rng))
                for _ in range(rng.randrange(0, 8))]
        program = FlProgram(tuple(base) + tuple(rules[k] for k in chosen))
        kb = load_program(program)
        store = kb.store
        inserted = []
        for _ in range(rng.randrange(1, 6)):
            f = random_trigger_fact(rng)
            members = {k: collect_set(kb, "X", FlIsA(X, atom(f"T_{k}")))
                       for k in chosen}
            insert_fact(kb, f)
            inserted.append(fact(f))
            upfront = load_program(FlProgram(program.rules + tuple(inserted)))
            assert store_facts(kb.store) == store_facts(upfront.store), \
                f"trial {trial}: {inserted}"
            for k in chosen:
                fired[k] += members[k] != collect_set(
                    kb, "X", FlIsA(X, atom(f"T_{k}")))
        if "difference" not in chosen:
            assert kb.store is store, f"trial {trial}"
    del fired["compound-sub"]
    assert all(fired.values()), fired
    assert time.monotonic() - start < 30.0


# --- work in proportion to the new facts -------------------------------------


def lookups_of_saturate(kb) -> int:
    """Saturate ``kb``; the number of stored tuples ``Relation.lookup``
    returned meanwhile."""
    count = 0
    lookup = Relation.lookup

    def counting(rel, positions, key):
        nonlocal count
        found = lookup(rel, positions, key)
        count += len(found)
        return found
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Relation, "lookup", counting)
        saturate(kb)
    return count


def test_insert_does_not_scan_the_kb():
    """The plan of a new ``attr`` fact starts at that fact, so an insert
    reads no more of the store for 4,000 members of ``S`` than for 1,000."""
    counts = []
    for n in (1000, 4000):
        kb = kb_from("?Y:T :- ?X:S, ?X[r -> ?Y].\n" +
                     "\n".join(f"m{i}:S." for i in range(n)))
        saturate(kb)
        insert_fact(kb, FlAttrValue(FlSymbol("m0"), FlSymbol("r"),
                                    FlSymbol("b")))
        counts.append(lookups_of_saturate(kb))
        assert holds(kb, FlIsA(FlSymbol("b"), atom("T")))
    assert counts[0] == counts[1] <= 2, counts


def plans_of_saturate(kb) -> int:
    """Saturate ``kb``; the number of join plans started meanwhile."""
    count = 0
    solve = engine._solve

    def counting(steps, env, store, delta, i=0):
        nonlocal count
        count += i == 0
        return solve(steps, env, store, delta, i)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_solve", counting)
        saturate(kb)
    return count


def test_insert_work_does_not_grow_with_the_rules():
    """An insert runs only the delta plans its new facts can fire: ``z:C3``
    starts as many plans under 800 rules ``?Y:D<i> :- ?X:C<i>, ?X[r ->
    ?Y]`` as under 50."""
    counts = []
    for n in (50, 800):
        kb = kb_from("z[r -> w].\n" + "\n".join(
            f"?Y:D{i} :- ?X:C{i}, ?X[r -> ?Y].\nm{i}:C{i}.\nm{i}[r -> v{i}]."
            for i in range(n)))
        saturate(kb)
        insert_fact(kb, FlIsA(FlSymbol("z"), atom("C3")))
        counts.append(plans_of_saturate(kb))
        assert holds(kb, FlIsA(FlSymbol("w"), atom("D3")))
    assert counts[0] == counts[1], counts


def test_attribute_insert_work_does_not_grow_with_the_rules():
    """A new edge runs only the delta plans filed under a class of its
    subject: ``z[r -> w]`` starts as many plans under 800 rules ``?Y:D<i>
    :- ?X:C<i>, ?X[r -> ?Y]`` as under 50."""
    counts = []
    for n in (50, 800):
        kb = kb_from("z:C3.\n" + "\n".join(
            f"?Y:D{i} :- ?X:C{i}, ?X[r -> ?Y].\nm{i}:C{i}.\nm{i}[r -> v{i}]."
            for i in range(n)))
        saturate(kb)
        insert_fact(kb, FlAttrValue(FlSymbol("z"), FlSymbol("r"),
                                    FlSymbol("w")))
        counts.append(plans_of_saturate(kb))
        assert holds(kb, FlIsA(FlSymbol("w"), atom("D3")))
        assert not holds(kb, FlIsA(FlSymbol("w"), atom("D4")))
    assert counts[0] == counts[1], counts


def test_attribute_triggers_match_upfront_load():
    """Memberships and edges inserted one after another under 1 to 8 rules
    ``?Y:D<k> :- ?X:C<k>, ?X[q -> ?Y].`` (with ``C<k>`` also derived from
    ``B<k>``) give the store of loading them up front."""
    rng = random.Random(20261028)
    inds = [FlSymbol(f"i{k}") for k in range(5)]

    def random_fact(k):
        x = rng.choice(inds)
        return rng.choice([
            FlIsA(x, atom(f"{rng.choice('BC')}{rng.randrange(k)}")),
            FlAttrValue(x, FlSymbol(rng.choice("pq")), rng.choice(inds)),
            FlAttrValue(x, FlSymbol("q"), rng.choice(inds))])
    for trial in range(120):
        k = rng.choice([1, 2, 8])
        rules = "\n".join(f"?Y:D{j} :- ?X:C{j}, ?X[q -> ?Y].\n"
                          f"?X:C{j} :- ?X:B{j}." for j in range(k))
        program, _ = parse_program(rules)
        base = tuple(fact(random_fact(k)) for _ in range(rng.randrange(4)))
        kb = load_program(FlProgram(program.rules + base))
        saturate(kb)
        inserted = []
        for _ in range(rng.randrange(1, 6)):
            f = random_fact(k)
            insert_fact(kb, f)
            inserted.append(fact(f))
            store = saturate(kb)
            upfront = load_program(FlProgram(program.rules + base +
                                             tuple(inserted)))
            assert store_facts(store) == store_facts(upfront.store), \
                f"trial {trial}: {inserted}"


def compile_calls(monkeypatch) -> list:
    """Count the top-level ``_compile_conj`` calls from now on, in a new
    process-wide plan cache; the count is the list's one element."""
    monkeypatch.setattr(engine, "_PLANS", {})
    calls, depth = [0], [0]
    compile_conj = engine._compile_conj

    def counting(*args, **kwargs):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return compile_conj(*args, **kwargs)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(engine, "_compile_conj", counting)
    return calls


def test_goals_compile_their_full_plan_only(monkeypatch):
    """A new goal shape compiles its full plan and nothing else; a rule
    compiles its full and delta plans, and a checker its full plan and the
    order it binds in."""
    kb = kb_from("?X:D :- ?X:C, ?X[r -> ?Y].\na:C.\na[r -> b].\n"
                 "check_c :- ?X:D, format(2, '~w', [?X])@_prolog(format).")
    calls = compile_calls(monkeypatch)
    saturate(kb)
    assert calls == [3]
    for goal, expected in [
            (FlIsA(X, atom("C")), [{"X": FlSymbol("a")}]),
            ([FlAttrValue(X, FlSymbol("r"), FlVariable("Y")),
              FlIsA(X, atom("D"))],
             [{"X": FlSymbol("a"), "Y": FlSymbol("b")}])]:
        calls[0] = 0
        assert query_goal(kb, goal) == expected
        assert calls == [1], goal
    calls[0] = 0
    assert [v.message for v in run_constraint_checks(kb)] == ["a"]
    assert calls == [2]


def test_shape_rebuilds_the_conjunction():
    """``_build`` gives back the literals ``_split`` took apart, with each
    constant a parameter variable: filled in, they equal the originals,
    a predicate's ``quoted`` (presentation, left out of the shape) aside."""
    from owlfl.node import Node

    def fill(x, consts):
        if type(x) is FlVariable and x.name.startswith("#"):
            return consts[int(x.name[1:])]
        if type(x) is tuple:
            return tuple(fill(e, consts) for e in x)
        if isinstance(x, Node) and type(x) not in (FlVariable, FlLiteralTerm):
            return type(x)(*(fill(getattr(x, f), consts) for f in x._fields))
        return x
    program, diags = parse_program(
        "h :- ?X:(A ; (B , (C - D))), ?X[p -> [?Y, 'a b', 1]], C::?Z, "
        "'q r'(?X, 7), \\naf (?X:E, ?Y != f), not(?X[p -> g]), "
        "member(?Y, [a, ?X]), ?X[p{0:2} *=> E], "
        "format(2, '~w', [?X])@_prolog(format).")
    assert not diags, [d.message for d in diags]
    body = program.rules[0].body
    assert any(type(lit) is FlPred and lit.quoted for lit in body)
    consts = []
    shape = engine._split(body, consts)
    params = []
    rebuilt = engine._build(shape, params)
    assert len(params) == len(consts) > 10
    assert fill(rebuilt, consts) == body
    assert engine._split(FlPred("q r", (X,), quoted=True), []) == \
        engine._split(FlPred("q r", (X,)), [])


def test_each_shape_compiles_once_per_process(monkeypatch):
    """Rules, checkers, goals and class tests of one shape share a plan:
    a KB of 50 rules ``?Y:D<i> :- ?X:C<i>, ?X[r -> ?Y].`` compiles its few
    shapes, and KBs of 800 and 200 such rules over other names, which load,
    saturate, check and answer the same, compile nothing."""
    monkeypatch.setattr(engine, "_PLANS", {}, raising=False)
    depth, calls = 0, 0
    compile_conj = engine._compile_conj

    def counting(*args, **kwargs):
        nonlocal depth, calls
        calls += depth == 0
        depth += 1
        try:
            return compile_conj(*args, **kwargs)
        finally:
            depth -= 1
    monkeypatch.setattr(engine, "_compile_conj", counting)
    counts = []
    for n, name in [(50, "A"), (800, "B"), (200, "C")]:
        calls = 0
        kb = kb_from("\n".join(
            f"?Y:{name}D{i} :- ?X:{name}C{i}, ?X[r -> ?Y].\n"
            f"m{i}:{name}C{i}.\nm{i}[r -> v{i}]." for i in range(n)) +
            f"\n({name}C0 ; {name}C1)[r *=> ({name}D0 ; {name}D1)].\n"
            f"check_{name} :- ?X:{name}C0, ?X[r -> ?Y], "
            "format(2, '~w ~w', [?X, ?Y])@_prolog(format).")
        saturate(kb)
        assert [v.message for v in run_constraint_checks(kb)] == ["m0 v0"]
        assert names(collect_set(kb, "X", FlIsA(X, atom(f"{name}D3")))) \
            == ["v3"]
        counts.append(calls)
    assert counts[0] < 50 and counts[1:] == [0, 0], counts


def test_member_before_its_list_holds_on_insert_as_up_front():
    """A ``member`` literal written before its list's binder waits for it,
    in a rule, after an insert and in a goal."""
    text = "?X:T :- member(?X, ?L), l(?L).\nl([a, b])."
    kb, upfront = kb_from(text), kb_from(text + "\nl([c]).")
    assert names(collect_set(kb, "X", FlIsA(X, atom("T")))) == ["a", "b"]
    L = FlVariable("L")
    goal = [FlMember(X, L), FlPred("l", (L,))]
    assert sorted(print_term(b["X"]) for b in query_goal(kb, goal)) == \
        ["a", "b"]
    insert_fact(kb, FlPred("l", (FlList((FlSymbol("c"),)),)))
    assert store_facts(kb.store) == store_facts(upfront.store)
    assert names(collect_set(kb, "X", FlIsA(X, atom("T")))) == \
        ["a", "b", "c"]


@pytest.mark.parametrize("text, error", [
    ("h(?X) :- member(?X, [a, b]).", None),
    ("h(?X) :- ?X[p *=> D].", "cannot evaluate ?X[p *=> D]"),
    ("h(?X) :- C::?X[p *=> D].", "cannot evaluate C::?X[p *=> D]"),
], ids=["member", "signature", "signature-via"])
def test_rule_whose_body_reads_no_relation(text, error):
    """Such a rule gets a stratum of its own head: it runs, or its body
    literal is reported, never a lookup error.  A KB whose rule has the
    same shape with other constants reports its own, on every saturate."""
    kb = kb_from(text)
    if error is None:
        saturate(kb)
        assert sorted(print_term(b["X"]) for b in
                      query_goal(kb, FlPred("h", (X,)))) == ["a", "b"]
        return
    other = str.maketrans("pD", "qE")
    for kb, error in [(kb, error), (kb_from(text.translate(other)),
                                    error.translate(other))] * 2:
        with pytest.raises(EngineError) as e:
            saturate(kb)
        assert (e.value.code, e.value.message) == \
            ("unsupported-literal", error)


@pytest.mark.parametrize("guard_first", [True, False])
def test_each_transitive_closure_edge_is_made_once(guard_first):
    """A chain asserted in shuffled order under ``TRANSITIVE_RULE`` reads
    fewer stored tuples than three per edge of its closure, with the guard
    fact before the chain's edges or after them."""
    rng = random.Random(21)
    for n in (100, 200):
        edges = [f"n{i}[p -> n{i + 1}]." for i in range(n)]
        rng.shuffle(edges)
        guard = ["'TransitiveProperty'(p).", print_rule(TRANSITIVE_RULE)]
        kb = kb_from("\n".join(guard + edges if guard_first
                               else edges + guard))
        lookups = lookups_of_saturate(kb)
        assert len(kb.store.attr) == (n + 1) * n // 2
        assert lookups <= 3 * len(kb.store.attr), (n, lookups)


PROPERTY_RULES = (
    "?X[r -> ?Z] :- ?X[r -> ?Y], ?Y[r -> ?Z].",  # a constant property
    "?Y[q -> ?X] :- ?X[p -> ?Y].",  # p and q inverse
    "?Y[p -> ?X] :- ?X[q -> ?Y].",
    "'SymmetricProperty'(s).",
    "'TransitiveProperty'(p).",
    "'TransitiveProperty'(q) :- i0[s -> ?Y].",  # a guard derived late
    "?Y:C :- ?X[s -> ?Y].",
    "'TransitiveProperty'(s) :- i1:C.",
)


def random_property_program(rng):
    """Attribute edges in random order under a random subset of the closure
    rules of transitive, inverse and symmetric properties, which all share
    the stratum of ``attr``."""
    inds = [f"i{k}" for k in range(rng.randrange(3, 7))]
    lines = [f"{rng.choice(inds)}[{rng.choice('pqrs')} -> "
             f"{rng.choice(inds)}]." for _ in range(rng.randrange(2, 14))]
    lines += [r for r in PROPERTY_RULES if rng.random() < 0.6]
    lines += [print_rule(r) for r in (TRANSITIVE_RULE, SYMMETRIC_RULE)
              if rng.random() < 0.8]
    rng.shuffle(lines)
    program, diags = parse_program("\n".join(lines))
    assert not diags
    return program, inds


def test_transitive_closure_matches_naive_oracle():
    """Transitive properties closed as their edges come, with a guard
    given, derived late or inserted, against the naive oracle, before and
    after each insert."""
    rng = random.Random(20261021)
    seen = {"late-guard": 0, "inserted-guard": 0, "constant": 0,
            "inserted-edge": 0}
    start = time.monotonic()
    for trial in range(150):
        program, inds = random_property_program(rng)
        kb = load_program(program)
        inserted = []
        for k in range(rng.randrange(0, 4) + 1):
            if k:
                if rng.random() < 0.3:
                    f = FlPred("TransitiveProperty",
                               (FlSymbol(rng.choice("pqrs")),))
                    seen["inserted-guard"] += \
                        engine._head(f) not in kb.base_facts
                else:
                    f = FlAttrValue(*(FlSymbol(rng.choice(names)) for names
                                      in (inds, "pqrs", inds)))
                    seen["inserted-edge"] += 1
                insert_fact(kb, f)
                inserted.append(fact(f))
            isa, _, attr = naive_evaluate(
                FlProgram(program.rules + tuple(inserted)))
            store = saturate(kb)
            assert (store.isa, store.attr) == (isa, attr), \
                f"trial {trial}: {inserted}"
        text = {print_rule(r) for r in program.rules}
        seen["late-guard"] += PROPERTY_RULES[5] in text and any(
            s == FlSymbol("i0") and p == FlSymbol("s") for s, p, _ in attr)
        seen["constant"] += PROPERTY_RULES[0] in text
    assert all(seen.values()), seen
    assert time.monotonic() - start < 30.0


@pytest.mark.parametrize("guarded", [False, True])
@pytest.mark.parametrize("swapped", [False, True])
def test_transitive_rule_closes_natively_in_either_body_order(swapped,
                                                              guarded):
    """The transitive rule, with a constant property or a guard, and its
    two attribute literals in either order, is closed natively, and its
    store is the naive oracle's, before and after each inserted edge."""
    prop = "?P" if guarded else "p"
    body = [f"?X[{prop} -> ?Y]", f"?Y[{prop} -> ?Z]"][::-1 if swapped else 1]
    rule = f"?X[{prop} -> ?Z] :- " + ", ".join(
        ["'TransitiveProperty'(?P)"] * guarded + body) + "."
    rng = random.Random(28)
    inds = [f"i{k}" for k in range(6)]
    for trial in range(30):
        lines = [rule] + ["'TransitiveProperty'(p)."] * guarded + [
            f"{rng.choice(inds)}[{rng.choice('pq')} -> {rng.choice(inds)}]."
            for _ in range(rng.randrange(2, 10))]
        rng.shuffle(lines)
        program, diags = parse_program("\n".join(lines))
        assert not diags
        kb = load_program(program)
        assert kb._closures == [(("TransitiveProperty", 1), None) if guarded
                                else (None, FlSymbol("p"))]
        inserted = []
        for k in range(3):
            if k:
                f = FlAttrValue(FlSymbol(rng.choice(inds)), FlSymbol("p"),
                                FlSymbol(rng.choice(inds)))
                insert_fact(kb, f)
                inserted.append(fact(f))
            isa, _, attr = naive_evaluate(
                FlProgram(program.rules + tuple(inserted)))
            store = saturate(kb)
            assert (store.isa, store.attr) == (isa, attr), \
                f"trial {trial}: {inserted}"


def random_base_facts(rng):
    """A program of base facts of every stored shape, over few classes so
    that ``::`` cycles and self-edges come often, with ``_object`` on either
    side of ``::``; memberships; attribute edges of a guarded property
    ``p`` (its ``'TransitiveProperty'`` fact present or not), of a property
    ``q`` that a constant rule closes, and of an open one ``r``; list-valued
    attributes; ``oneOf`` lists; and other predicate facts."""
    classes = [FlSymbol(f"C{k}") for k in range(4)] + [FlSymbol("_object")]
    inds = [FlSymbol(f"i{k}") for k in range(6)]
    lines = [print_rule(TRANSITIVE_RULE),
             "?X[q -> ?Z] :- ?X[q -> ?Y], ?Y[q -> ?Z]."]
    if rng.random() < 0.5:
        lines.append("'TransitiveProperty'(p).")
    heads = []
    for _ in range(rng.randrange(4, 40)):
        kind = rng.randrange(7)
        i, j = rng.choice(inds), rng.choice(inds)
        c, d = rng.choice(classes), rng.choice(classes)
        if kind == 0:
            heads.append(FlIsA(i, Atom(c)))
        elif kind == 1:
            heads.append(FlSubClass(Atom(c), Atom(d)))
        elif kind == 2:
            heads.append(FlAttrValue(i, FlSymbol(rng.choice("pqr")), j))
        elif kind == 3:
            heads.append(FlAttrValue(i, FlSymbol("r"), FlList((j, FlSymbol(
                "w0")))))
        elif kind == 4:
            heads.append(FlPred("oneOf", (c, FlList(tuple(rng.sample(
                inds + [FlSymbol("w1")], 2))))))
        elif kind == 5:
            heads.append(FlPred("below", (c, d)))
        else:
            heads.append(FlAttrValue(i, FlSymbol("label"),
                                     FlLiteralTerm(f"l{rng.randrange(3)}")))
    program, diags = parse_program("\n".join(lines))
    assert not diags
    return FlProgram(program.rules + tuple(map(fact, heads)))


def test_bulk_load_equals_closing_fact_by_fact():
    """A fresh store loaded in bulk holds, relation by relation, what
    ``_assert`` builds adding the same base facts one at a time, in shuffled
    order, to an empty store; the indexes the bulk load leaves hold what an
    index built from the facts holds."""
    rng = random.Random(20261021)
    seen = {"cycle": 0, "object-below": 0, "guarded": 0, "unguarded": 0,
            "list-value": 0, "oneOf": 0}
    obj = FlSymbol("_object")
    for trial in range(300):
        kb = load_program(random_base_facts(rng))
        facts = list(kb.base_facts)
        bulk = engine.FactStore(kb._closures)
        engine._load(bulk, facts)
        rng.shuffle(facts)
        one = engine.FactStore(kb._closures)
        for f in facts:
            engine._assert(one, [f])
        assert {k: r.facts for k, r in bulk.relations.items()} == \
            {k: r.facts for k, r in one.relations.items()}, f"trial {trial}"
        assert bulk.closed == one.closed, f"trial {trial}"
        for rel in bulk.relations.values():
            for positions, (_, index) in rel.indexes.items():
                built = Relation()
                built.facts = rel.facts
                assert {k: sorted(v, key=repr) for k, v in index.items()} \
                    == {k: sorted(v, key=repr) for k, v in
                        built.index(positions).items()}, f"trial {trial}"
        assert {(engine.ISA, (1,)), (engine.SUB, (0,)), (engine.SUB, (1,))} \
            <= {(k, p) for k, r in bulk.relations.items() for p in r.indexes}
        seen["cycle"] += any((c, c) in bulk.sub for c, _ in bulk.sub)
        seen["object-below"] += any(c == obj for c, _ in bulk.sub)
        guarded = FlSymbol("p") in bulk.closed
        seen["guarded" if guarded else "unguarded"] += any(
            p == FlSymbol("p") for _, p, _ in bulk.attr)
        seen["list-value"] += any(isinstance(v, FlList)
                                  for _, _, v in bulk.attr)
        seen["oneOf"] += ("oneOf", 2) in bulk.relations
    assert all(seen.values()), seen
