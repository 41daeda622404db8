"""Smoke tests of the benchmark's three workloads (a translate round trip,
a check, a serve session), judged by the benchmark's own generator and
oracle (``perfbench/gen.py``, ``oracle.py``), which share no code with
owlfl."""

import os
import random
import sys
from collections import Counter

import pytest

from owlfl import (
    collect_set, insert_fact, load_program, parse_document, parse_program,
    print_program, query_goal, run_constraint_checks, saturate,
    serialize_document, translate_fl_to_owl, translate_ontology,
)
from owlfl.flogic import Atom, FlIsA, FlSubClass, FlSymbol, FlVariable

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import gen  # noqa: E402
import oracle  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_round_trip_matches_bench_oracle(seed):
    assert_round_trip(gen.translate_document(random.Random(seed), 8))


def test_round_trip_at_largest_bench_size():
    # the largest document of the benchmark's translate plan
    assert_round_trip(gen.translate_document(random.Random(3), 64))


def assert_round_trip(case):
    doc, d1 = parse_document(case.text)
    program, d2 = translate_ontology(doc)
    back_program, d3 = parse_program(print_program(program))
    back, d4 = translate_fl_to_owl(back_program)
    diags = d1 + d2 + d3 + d4
    assert not [d for d in diags if d.severity == "error"]
    assert Counter(oracle.read_axioms(serialize_document(back))) == \
        Counter(case.expected)
    assert sum(d.code == "lossy-origin" for d in diags) == case.lossy_origin


def load_kb(text):
    doc, d1 = parse_document(text)
    program, d2 = translate_ontology(doc)
    assert not [d for d in d1 + d2 if d.severity == "error"]
    return load_program(program)


@pytest.mark.parametrize("n_classes", [10, 40])
def test_check_matches_bench_oracle(n_classes):
    # the smallest and largest KB of the benchmark's check plan
    kb = gen.mixed_kb(random.Random(n_classes), n_classes, 2 * n_classes,
                      plant=True)
    violations = run_constraint_checks(load_kb(kb.text))
    assert [v.message for v in violations] == \
        oracle.expected_violations(kb.planted)


def serve_answer(kb, op):
    """A serve query asked of the engine, answered as the oracle answers."""
    x = FlVariable("X")
    names = [FlSymbol(n) for n in op[1:]]
    if op[0] == "is":
        return bool(query_goal(kb, FlIsA(names[0], Atom(names[1]))))
    if op[0] == "subclass":
        return bool(query_goal(kb, FlSubClass(Atom(names[0]),
                                              Atom(names[1]))))
    goal = {"instances": FlIsA(x, Atom(names[0])),
            "classes-of": FlIsA(names[0], Atom(x)),
            "superclasses": FlSubClass(Atom(names[0]), Atom(x))}[op[0]]
    found = [t.name for t in collect_set(kb, "X", goal)]
    return [n for n in found if n != op[1]] if op[0] == "superclasses" \
        else found


def test_serve_session_matches_bench_oracle():
    rng = random.Random(5)
    kb_input = gen.mixed_kb(rng, 20, 40, plant=False)
    session = gen.serve_session(rng, kb_input, 66, 11)
    assert {op[0] for op in session} == \
        {"insert", "is", "instances", "classes-of", "subclass", "superclasses"}
    kb = load_kb(kb_input.text)
    closure = oracle.Closure(kb_input)
    size = saturate(kb).size()
    for op in session:
        if op[0] == "insert":
            program, diags = parse_program(op[2], kb.prefixes)
            assert not diags
            insert_fact(kb, program.rules[0].head)
            added, size = saturate(kb).size() - size, saturate(kb).size()
            assert added == closure.add(op[1]), op
        else:
            assert serve_answer(kb, op) == closure.answer(op), op
