"""Smoke round trip of the benchmark's translate documents, judged by the
benchmark's own generator and oracle (``perfbench/gen.py``, ``oracle.py``),
which share no code with owlfl."""

import os
import random
import sys
from collections import Counter

import pytest

from owlfl import (
    parse_document, parse_program, print_program, serialize_document,
    translate_fl_to_owl, translate_ontology,
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
