"""Digests that pin the engine's outputs on the benchmark's mixed KBs
(``perfbench/gen.py``): each saturated relation, the constraint messages
with and without ``--min-cardinality`` and the members of every class; the
answers and store sizes of one replayed serve session; and the names that
``owlfl query`` warns of as unknown.  Every set is sorted by printed form,
so a digest holds under any hash seed."""

import hashlib
import os
import random
import sys

import pytest

from owlfl import (
    collect_set, insert_fact, load_program, parse_document, parse_program,
    query_goal, run_constraint_checks, saturate, translate_ontology,
)
from owlfl.cli import _warn_unknown
from owlfl.flogic import (
    Atom, FlIsA, FlProgram, FlSubClass, FlSymbol, FlVariable, print_term,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import gen  # noqa: E402


def printed(terms):
    return tuple(map(print_term, terms))


def mixed_program(seed, n_classes, bounds):
    """The lowered program of a planted mixed KB; with ``bounds``, plus two
    signatures whose low bound only ``--min-cardinality`` checks."""
    made = gen.mixed_kb(random.Random(seed), n_classes, 2 * n_classes,
                        plant=True)
    program = translate_ontology(parse_document(made.text)[0])[0]
    if bounds:
        extra, diags = parse_program(
            f"{made.classes[1]}[m0{{1:*}} *=> _object].\n"
            f"{made.classes[2]}[has{{2:2}} *=> _object].\n")
        assert not diags
        program = FlProgram(program.rules + extra.rules, program.prefixes)
    return program


def kb_digest(seed, n_classes, bounds):
    """The first 16 hex digits of a sha256 over a mixed KB's saturated
    relations, its constraint messages without and with the low bounds, and
    the members of each class in the store."""
    kb = load_program(mixed_program(seed, n_classes, bounds))
    store = saturate(kb)
    relations = sorted((repr(key), sorted(map(printed, rel.facts)))
                       for key, rel in store.relations.items())
    h = hashlib.sha256(repr(relations).encode())
    for low in (False, True):
        h.update(repr([(v.checker, v.message) for v in
                       run_constraint_checks(kb, low)]).encode())
    classes = {c for _, c in store.isa} | {c for pair in store.sub
                                           for c in pair}
    x = FlVariable("X")
    for c in sorted(classes, key=print_term):
        h.update(repr((print_term(c), printed(
            collect_set(kb, "X", FlIsA(x, Atom(c)))))).encode())
    return h.hexdigest()[:16]


KB_DIGESTS = {
    (1, 10, False): "e91137cc6151f16c",
    (1, 10, True): "f9a866339d7059c1",
    (1, 25, False): "b420f6859c581739",
    (1, 25, True): "beb4f4bd81eef405",
    (1, 40, False): "0ee39346c16af933",
    (1, 40, True): "e0dae2eba66ecb10",
    (2, 10, False): "b15b11d35e13ff45",
    (2, 10, True): "5305e198f664d183",
    (2, 25, False): "693c138747ac8ce2",
    (2, 25, True): "4d742f3bf56f0693",
    (2, 40, False): "04f825b464a20333",
    (2, 40, True): "716dde6dfdea0ca9",
    (3, 10, False): "7c9150a0d76a9d2d",
    (3, 10, True): "20eed6f5cba0ee79",
    (3, 25, False): "35918f6cf4edddab",
    (3, 25, True): "7af667fe65128214",
    (3, 40, False): "a7c24116b0c3a628",
    (3, 40, True): "cb9bce5ad1560bff",
}


@pytest.mark.parametrize("key", sorted(KB_DIGESTS))
def test_mixed_kb_outputs_are_unchanged(key):
    assert kb_digest(*key) == KB_DIGESTS[key]


def test_min_cardinality_is_pinned():
    """The added signatures make the low bounds matter, so the flag is
    pinned."""
    kb = load_program(mixed_program(1, 10, True))
    assert len(run_constraint_checks(kb, True)) > \
        len(run_constraint_checks(kb, False))


def serve_digest(seed):
    """The first 16 hex digits of a sha256 over every answer of a serve
    session on the benchmark's 60-class KB, and the store size after each
    insert."""
    rng = random.Random(seed)
    made = gen.mixed_kb(rng, 60, 120, plant=False)
    session = gen.serve_session(rng, made, 132, 11)
    kb = load_program(translate_ontology(parse_document(made.text)[0])[0])
    x = FlVariable("X")
    h = hashlib.sha256(repr(saturate(kb).size()).encode())
    for op in session:
        names = [FlSymbol(n) for n in op[1:]]
        if op[0] == "insert":
            program, diags = parse_program(op[2], kb.prefixes)
            assert not diags
            insert_fact(kb, program.rules[0].head)
            out = saturate(kb).size()
        elif op[0] == "is":
            out = bool(query_goal(kb, FlIsA(names[0], Atom(names[1]))))
        elif op[0] == "subclass":
            out = bool(query_goal(kb, FlSubClass(Atom(names[0]),
                                                 Atom(names[1]))))
        else:
            goal = {"instances": FlIsA(x, Atom(names[0])),
                    "classes-of": FlIsA(names[0], Atom(x)),
                    "superclasses": FlSubClass(Atom(names[0]), Atom(x))}
            out = printed(collect_set(kb, "X", goal[op[0]]))
        h.update(repr((op[:2], out)).encode())
    return h.hexdigest()[:16]


def test_serve_session_outputs_are_unchanged():
    assert serve_digest(1) == "8ad9ab0ca6b010c9"


UNKNOWN_KB = """\
a:C.
a[p -> b].
C::D.
hasValue(C, p, v).
?X:E :- ?X:C, ?X[p -> w].
K[q *=> R].
F :=: (G , H).
"""


@pytest.mark.parametrize("name, unknown", [
    ("C", False), ("a", False), ("p", False), ("_object", False),
    ("E", False), ("w", False),         # only in a rule
    ("q", False), ("R", False),         # only in a signature
    ("G", False),                       # only in an equivalence
    ("v", False),                       # only as a predicate argument
    ("absent", True),
])
def test_unknown_name_verdicts_are_unchanged(name, unknown, capsys):
    program, diags = parse_program(UNKNOWN_KB)
    assert not diags
    kb = load_program(program)
    assert _warn_unknown(kb, [FlSymbol(name)]) == unknown
    assert capsys.readouterr().err == (
        f"warning: unknown-name: {name} does not occur in the KB\n"
        if unknown else "")
