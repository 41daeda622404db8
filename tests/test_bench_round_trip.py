"""Smoke tests of the benchmark's three workloads (a translate round trip,
a check, a serve session), judged by the benchmark's own generator and
oracle (``perfbench/gen.py``, ``oracle.py``), which share no code with
owlfl, and digests that pin the reverse translation of the benchmark's
translate documents."""

import hashlib
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
from owlfl.fl_to_owl import recognize_templates
from owlfl.flogic import (
    Atom, FlIsA, FlProgram, FlSubClass, FlSymbol, FlVariable,
)

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


def corpus_digest(seed, n_classes, order):
    """The first 16 hex digits of a sha256 over one benchmark document's
    printed F-logic, the recognizer's matches and diagnostics and the written
    RDF/XML, with the printed rules read back in ``order``."""
    doc, _ = parse_document(
        gen.translate_document(random.Random(seed), n_classes).text)
    printed = print_program(translate_ontology(doc)[0])
    program, _ = parse_program(printed)
    rules = program.rules[::-1] if order == "reversed" else program.rules
    program = FlProgram(rules, program.prefixes)
    matches, _ = recognize_templates(program)
    back, diags = translate_fl_to_owl(program)
    h = hashlib.sha256(printed.encode())
    h.update(repr([(m.template_id, m.bindings, m.consumed)
                   for m in matches]).encode())
    h.update(repr([(d.severity, d.code, d.message, d.location)
                   for d in diags]).encode())
    h.update(serialize_document(back).encode())
    return h.hexdigest()[:16]


# the output pinned for each document, so that any change to the lowering
# or the recognizer that alters it shows here
CORPUS_DIGESTS = {
    (1, 8, "printed"): "18a43c5c66137656",
    (1, 8, "reversed"): "13dc84f326815b65",
    (1, 32, "printed"): "f9be746bd6a92c65",
    (1, 32, "reversed"): "2ab3fb4fe5deaace",
    (1, 64, "printed"): "2bf6a187520c8e5e",
    (1, 64, "reversed"): "1eaa55a2dee64d61",
    (2, 8, "printed"): "829aefebfc59d8fa",
    (2, 8, "reversed"): "8e7882638338b252",
    (2, 32, "printed"): "5d5191ea9c989e6c",
    (2, 32, "reversed"): "830b3189e66e7434",
    (2, 64, "printed"): "e93712daed624473",
    (2, 64, "reversed"): "82231627eaf1cc67",
    (3, 8, "printed"): "95b1019a0fdc5cc9",
    (3, 8, "reversed"): "1c883eb1f24dfb76",
    (3, 32, "printed"): "9a333ebbbbda5445",
    (3, 32, "reversed"): "6acec39a80ead7ed",
    (3, 64, "printed"): "2370a4e3ef80e1b7",
    (3, 64, "reversed"): "10fe4052a01ee2c7",
}


@pytest.mark.parametrize("key", sorted(CORPUS_DIGESTS))
def test_recognizer_corpus_is_unchanged(key):
    seed, n_classes, order = key
    assert corpus_digest(seed, n_classes, order) == CORPUS_DIGESTS[key]
