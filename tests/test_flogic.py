import hashlib
import os
import random
import sys

import pytest

from owlfl.flogic import (
    Atom, FlAttrValue, FlDifference, FlEquiv, FlIntersection, FlIsA, FlList,
    FlLiteralTerm, FlNaf, FlNeq, FlPred, FlProgram, FlRule, FlSignature,
    FlSubClass, FlSymbol, FlUnion, FlVariable, fact, left_assoc,
    parse_program, print_program, print_rule, print_term,
)
from owlfl.owl_parser import parse_document
from owlfl.owl_to_fl import translate_ontology

from _helpers import atom

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import gen  # noqa: E402


def sym(n, **kw):
    return FlSymbol(n, **kw)


def roundtrip(program):
    text = print_program(program)
    parsed, diags = parse_program(text, prefixes=program.prefixes)
    assert not diags, [d.message for d in diags]
    assert parsed == program, text
    return text


# --- printing ----------------------------------------------------------------


def test_print_subclass_fact():
    p = FlProgram((fact(FlSubClass(atom("Wine"), atom("food:PotableLiquid"))),))
    assert print_program(p) == "Wine::food:PotableLiquid.\n"


def test_print_rule_canonical_spacing():
    r = FlRule(
        FlIsA(FlVariable("Y"), atom("Winery")),
        (FlIsA(FlVariable("X"), atom("Wine")),
         FlAttrValue(FlVariable("X"), sym("hasMaker"), FlVariable("Y"))),
    )
    assert print_rule(r) == \
        "?Y:Winery :- ?X:Wine, ?X[hasMaker -> ?Y]."


def test_print_signature_forms():
    assert print_rule(fact(FlSignature(
        atom("Person"), sym("hasParent"), atom("_object"), card=(0, 2)))) == \
        "Person[hasParent{0:2} *=> _object]."
    assert print_rule(fact(FlSignature(
        atom("Country"), sym("locatedIn"), atom("Region")))) == \
        "Country[locatedIn *=> Region]."
    assert print_rule(fact(FlSignature(
        atom("Wine"), sym("hasMaker"), atom("Winery"),
        via=atom("_object")))) == "Wine::_object[hasMaker *=> Winery]."


def test_print_unbounded_cardinality():
    assert print_rule(fact(FlSignature(
        atom("C"), sym("p"), atom("_object"), card=(2, None)))) == \
        "C[p{2:*} *=> _object]."


def test_print_class_expressions():
    assert print_rule(fact(FlEquiv(
        atom("Fruit"), FlUnion(atom("SweetFruit"), atom("NonSweetFruit"))))) \
        == "Fruit :=: (SweetFruit ; NonSweetFruit)."
    assert print_rule(fact(FlEquiv(
        atom("WhiteBurgundy"),
        FlIntersection(atom("Burgundy"), atom("WhiteWine"))))) == \
        "WhiteBurgundy :=: (Burgundy , WhiteWine)."
    assert print_rule(fact(FlEquiv(
        atom("NonConsumableThing"),
        FlDifference(atom("_object"), atom("ConsumableThing"))))) == \
        "NonConsumableThing :=: (_object - ConsumableThing)."


def test_print_quoted_symbols_and_lists():
    assert print_rule(fact(FlPred("TransitiveProperty",
                                  (sym("locatedIn"),), quoted=True))) == \
        "'TransitiveProperty'(locatedIn)."
    assert print_rule(fact(FlPred("oneOf", (
        sym("WineColor"),
        FlList((sym("White"), sym("Rose"), sym("Red"))))))) == \
        "oneOf(WineColor, [White,Rose,Red])."


def test_print_naf_styles():
    r = FlRule(
        FlIsA(FlVariable("X"), atom("A")),
        (FlIsA(FlVariable("X"), atom("D")),
         FlNaf((FlIsA(FlVariable("X"), atom("B")),))),
    )
    assert print_rule(r) == "?X:A :- ?X:D, \\naf ?X:B."


def test_print_merges_ground_membership_with_attr():
    p = FlProgram((
        fact(FlIsA(sym("PinotGrape"), atom("WineGrape"))),
        fact(FlAttrValue(sym("PinotGrape"), sym("hasColor"),
                         sym("White", quoted=True))),
    ))
    assert print_program(p) == "PinotGrape:WineGrape[hasColor -> 'White'].\n"


def test_print_prefix_directives_first():
    p = FlProgram(
        (fact(FlSubClass(atom("Wine"), atom("food:PotableLiquid"))),),
        prefixes={"": "http://example.org/wine",
                  "food": "http://example.org/food"},
    )
    text = print_program(p)
    lines = text.splitlines()
    assert lines[0] == ":- base('http://example.org/wine')."
    assert lines[1] == ":- prefix(food, 'http://example.org/food')."


def test_printer_determinism():
    p = FlProgram((fact(FlIsA(sym("a"), atom("C"))),))
    assert print_program(p) == print_program(p)


def test_symbol_identity():
    a = sym("a")
    a2 = sym("a", quoted=True)
    # equality and hash are by name; quoted is presentation only
    assert a == a2 and hash(a) == hash(a2) and len({a, a2}) == 1
    assert (a2.name, a2.quoted) == ("a", True)
    assert a != sym("b")
    # no other kind of term equals a symbol of the same text
    for other in (FlVariable("a"), FlLiteralTerm("a"), FlLiteralTerm("a", "_integer")):
        assert a != other and other != a
        assert len({a, other}) == 2
    as_list = FlList((sym("a"),))
    assert sym("[a]") != as_list and as_list != sym("[a]")
    assert repr(a) == "FlSymbol(name='a', quoted=False)"
    assert repr(a2) == "FlSymbol(name='a', quoted=True)"
    assert repr(atom("C")) == "Atom(term=FlSymbol(name='C', quoted=False))"
    assert [print_term(t) for t in (
        a, a2, sym("food:Wine"), sym("1a"), sym("it's"), sym("a b"),
        sym("http://example.org/o#a"))] == [
        "a", "'a'", "food:Wine", "'1a'", "'it\\'s'", "'a b'",
        "'http://example.org/o#a'"]
    with pytest.raises(ValueError):
        sym("")


# --- parsing -----------------------------------------------------------------


def test_parse_subclass_fact():
    p, diags = parse_program("Wine::food:PotableLiquid.")
    assert not diags
    assert p.rules == (fact(FlSubClass(atom("Wine"),
                                       atom("food:PotableLiquid"))),)


def test_parse_accepts_whitespace_variation():
    a, _ = parse_program("?X[hasWineDescriptor ->?Y] :- ?X[hasColor ->?Y].")
    b, _ = parse_program("?X[hasWineDescriptor -> ?Y]:-?X[hasColor -> ?Y].")
    assert a == b


def test_parse_accepts_en_dash_difference():
    a, _ = parse_program("N :=: (_object – C).")
    b, _ = parse_program("N :=: (_object - C).")
    assert a == b


def test_parse_truncated_statement_reports_error():
    p, diags = parse_program("Wine::")
    assert p.rules == ()
    assert any(d.severity == "error" for d in diags)


def test_parse_inverted_cardinality_is_a_syntax_error():
    p, diags = parse_program("c[p{2:1} *=> d].")
    assert p.rules == ()
    assert [(d.code, d.location) for d in diags] == [("syntax-error", (1, 4))]


# One text per place the parser raises, with the (message, (line, col)) of
# each diagnostic; columns count characters, from 1, and a line ends at "\n".
PARSE_ERRORS = [
    ("a:b.\n  a # b.", [("unexpected character '#'", (2, 5))]),
    ("// one\n// two\n  a:b. $", [("unexpected character '$'", (3, 8))]),
    ("a :=: (b – c).\nx – $", [("unexpected character '$'", (2, 5))]),
    ("a:b.\nc['oops -> d].", [("unexpected character \"'\"", (2, 3))]),
    ("a:b.\n  c[p -> d.", [("expected ']', got '.'", (2, 11))]),
    ("a:b.\r\n\tc::", [("expected a term, got ''", (2, 5))]),
    ("c[p{1 2} *=> d].", [("expected ':' in cardinality", (1, 7))]),
    ("c[p{2:1} *=> d].",
     [("cardinality {2:1} has its upper bound below its lower bound",
       (1, 4))]),
    ("c[p{1:1} -> d].", [("cardinality on attribute value", (1, 10))]),
    ("c[p d].", [("expected '->' or '*=>', got 'd'", (1, 5))]),
    ("(a ; b):c.", [("membership needs a term subject", (1, 8))]),
    ("a:b.\n?X .", [("unexpected '.'", (2, 4))]),
    (":- include('x').", [("unknown directive 'include'", (1, 4))]),
    ("\\naf a:b.", [("\\naf a:b cannot head a statement", (1, 1))]),
    ("x:C[p -> v] :- y:D.", [("combined molecule as rule head", (1, 16))]),
    ("'ü':b.\n  'é'[p -> ]. a:b. c:: .",
     [("expected a term, got ']'", (2, 12)),
      ("expected a term, got '.'", (2, 24))]),
    ("a:b :- \\naf \\naf c:d.\nx:y.",
     [("naf may not directly wrap naf", (1, 13))]),
    ("a:b :- not(\\naf c:d).", [("naf may not directly wrap naf", (1, 12))]),
    ("a:b :- \\naf not(c:d).", [("naf may not directly wrap naf", (1, 13))]),
    ("a:b :- \\naf (c:d, \\naf e:f).",
     [("naf may not directly wrap naf", (1, 19))]),
    ("c[p{1", [("expected ':' in cardinality", (1, 6))]),
    # the token in the place of ':' is skipped, so resync passes "a:: ."
    ("c[p{1 . a:: . b:c.", [("expected ':' in cardinality", (1, 7))]),
    # a number is ASCII digits; another decimal digit is no token
    ("a[p -> ٣].", [("unexpected character '٣'", (1, 8))]),
    ("C[p{٣:٣} *=> _object].", [("unexpected character '٣'", (1, 5))]),
    ("a[p -> 4٣].", [("unexpected character '٣'", (1, 9))]),
]


@pytest.mark.parametrize("text,expected", PARSE_ERRORS)
def test_parse_error_positions(text, expected):
    _, diags = parse_program(text)
    assert [(d.code, d.message, d.location) for d in diags] == \
        [("syntax-error", msg, loc) for msg, loc in expected]


def test_parse_empty_quoted_name_is_the_empty_string():
    p, diags = parse_program("a[p -> ''].")
    assert not diags
    assert p.rules == (fact(FlAttrValue(sym("a"), sym("p"),
                                        FlLiteralTerm(""))),)
    assert print_program(p) == "a[p -> ''].\n"


def test_parse_recovers_after_error():
    p, diags = parse_program("Wine:: .\na:C.")
    assert any(d.severity == "error" for d in diags)
    assert fact(FlIsA(sym("a"), atom("C"))) in p.rules


def test_parse_splits_combined_frame():
    p, diags = parse_program("PinotGrape:WineGrape[hasColor -> 'White'].")
    assert not diags
    assert p.rules == (
        fact(FlIsA(sym("PinotGrape"), atom("WineGrape"))),
        fact(FlAttrValue(sym("PinotGrape"), sym("hasColor"),
                         sym("White", quoted=True))),
    )


def test_parse_numeric_literal():
    p, _ = parse_program("a[age -> 42].")
    assert p.rules[0].head.value == FlLiteralTerm("42", "_integer")


def test_parse_directives_restore_prefixes():
    text = (":- base('http://example.org/wine').\n"
            ":- prefix(food, 'http://example.org/food').\n"
            "Wine::food:PotableLiquid.\n")
    p, diags = parse_program(text)
    assert not diags
    assert p.prefixes == {"": "http://example.org/wine",
                          "food": "http://example.org/food"}


def test_naf_may_not_wrap_naf():
    with pytest.raises(ValueError):
        FlNaf((FlNaf((FlIsA(sym("a"), atom("C")),)),))


# --- round trips -------------------------------------------------------------


def test_round_trip_representative_program():
    x, y, pv, z = (FlVariable(n) for n in "XYPZ")
    rules = (
        fact(FlSubClass(atom("Wine"), atom("food:PotableLiquid"))),
        fact(FlSignature(atom("Wine"), sym("hasMaker"), atom("Winery"),
                         via=atom("_object"))),
        FlRule(FlIsA(y, atom("Winery")),
               (FlIsA(x, atom("Wine")),
                FlAttrValue(x, sym("hasMaker"), y))),
        fact(FlEquiv(atom("Fruit"),
                     FlUnion(atom("SweetFruit"), atom("NonSweetFruit")))),
        fact(FlPred("disjoint_classes", (sym("Male"), sym("Female")))),
        fact(FlPred("oneOf", (sym("WineColor"),
                              FlList((sym("White"), sym("Rose"),
                                      sym("Red")))))),
        fact(FlSignature(atom("Person"), sym("hasParent"), atom("_object"),
                         card=(0, 2))),
        fact(FlPred("TransitiveProperty", (sym("locatedIn"),), quoted=True)),
        FlRule(FlAttrValue(x, pv, z),
               (FlPred("TransitiveProperty", (pv,), quoted=True),
                FlAttrValue(x, pv, y), FlAttrValue(y, pv, z))),
        FlRule(FlIsA(x, atom("SweetFruit")),
               (FlIsA(x, atom("Fruit")),
                FlNaf((FlIsA(x, atom("NonSweetFruit")),)))),
        FlRule(FlIsA(x, atom("N")),
               (FlIsA(x, atom("_object")),
                FlNaf((FlIsA(x, atom("C")),), style="not"))),
        fact(FlIsA(sym("CabernetSauvignonGrape"), atom("WineGrape"))),
        fact(FlAttrValue(sym("CabernetSauvignonGrape"), sym("hasColor"),
                         sym("Red", quoted=True))),
    )
    roundtrip(FlProgram(rules, prefixes={"": "http://example.org/wine",
                                         "food": "http://example.org/food"}))


def test_round_trip_neq_and_member():
    x, y = FlVariable("X"), FlVariable("Y")
    rules = (
        FlRule(FlPred("clash", (x, y)),
               (FlAttrValue(x, sym("p"), FlVariable("V")),
                FlAttrValue(y, sym("p"), FlVariable("V")),
                FlNeq(x, y))),
    )
    roundtrip(FlProgram(rules))


def _random_program(rng):
    classes = [f"C{i}" for i in range(4)]
    inds = [f"i{i}" for i in range(4)]
    props = ["p", "q"]
    rules = []
    for _ in range(rng.randrange(1, 8)):
        kind = rng.randrange(4)
        if kind == 0:
            rules.append(fact(FlIsA(sym(rng.choice(inds)),
                                    atom(rng.choice(classes)))))
        elif kind == 1:
            rules.append(fact(FlSubClass(atom(rng.choice(classes)),
                                         atom(rng.choice(classes)))))
        elif kind == 2:
            rules.append(fact(FlAttrValue(sym(rng.choice(inds)),
                                          sym(rng.choice(props)),
                                          sym(rng.choice(inds)))))
        else:
            x = FlVariable("X")
            rules.append(FlRule(FlIsA(x, atom(rng.choice(classes))),
                                (FlIsA(x, atom(rng.choice(classes))),)))
    return FlProgram(tuple(rules))


def test_round_trip_randomized():
    rng = random.Random(7)
    for _ in range(50):
        roundtrip(_random_program(rng))


def test_left_assoc_flattening():
    e = left_assoc(FlUnion, [atom("A"), atom("B"), atom("C")])
    assert e == FlUnion(FlUnion(atom("A"), atom("B")), atom("C"))


# --- the reader on mutated text ----------------------------------------------

# Strings the mutation pin inserts: every multi-character operator, the
# characters no token takes, the spellings the lexer must tell apart and the
# statement forms with parts of their own.
MUTATION_INSERTS = [
    "?", "'", "\\", "–", "#", "é", "٣", "// note\n", "//", "\r\n", "\n",
    "{", "}", "{1:2}", "{0:*}", "{2:1}", "{1 2}", "{1", "{0.", "\\naf ",
    "\\naf (", "\\nafx", "naf ", "not(", "format(", "format(2, 'm ~w', [?X])",
    "@_prolog(format)", "member(", "member(?X, [a,b])", "'a\\\nb'", "'it\\'s'",
    "''", ":=:", ":-", "::", "*=>", "->", "!=", ":- prefix(p, 'http://p/').",
    "?X", "42", "_object", " ", ".", ",", ";", "(", ")", "[", "]", "@", "*",
    ":", "-",
]


def _printed_bench_programs():
    texts = []
    for seed in (1, 2):
        doc, _ = parse_document(
            gen.translate_document(random.Random(seed), 8).text)
        texts.append(print_program(translate_ontology(doc)[0]))
    return texts


PRINTED_BENCH_PROGRAMS = _printed_bench_programs()


def mutated_text(rng):
    """A slice of a printed benchmark program, from the start of a line,
    with characters inserted, deleted and reversed."""
    source = rng.choice(PRINTED_BENCH_PROGRAMS)
    start = source.rfind("\n", 0, rng.randrange(len(source))) + 1
    text = source[start:start + rng.randint(1, 400)]
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        kind = rng.random()
        if kind < .7:
            text = text[:at] + rng.choice(MUTATION_INSERTS) + text[at:]
        elif kind < .9:
            text = text[:at] + text[at + rng.randint(1, 6):]
        else:
            end = at + rng.randint(2, 8)
            text = text[:at] + text[at:end][::-1] + text[end:]
    return text


def _end(text):
    """The (line, col) just past the last character of text."""
    return text.count("\n") + 1, len(text) - text.rfind("\n")


def reader_digest(seed):
    """A sha256 over the rules, prefixes and diagnostics the reader makes of
    a seed's mutated texts.  A naf directly inside a naf, and a cardinality
    cut off after its lower bound at the end of the text, have tests of
    their own and are left out."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(400):
        text = mutated_text(rng)
        program, diags = parse_program(text)
        found = [(d.code, d.message, d.location) for d in diags]
        if any(m == "naf may not directly wrap naf" or
               (m == "expected ':' in cardinality" and loc == _end(text))
               for _, m, loc in found):
            continue
        h.update(text.encode())
        h.update(repr(program.rules).encode())
        h.update(repr(sorted(program.prefixes.items())).encode())
        h.update(repr(found).encode())
    return h.hexdigest()[:16]


# the reader's output pinned per seed
READER_DIGESTS = {
    0: "f1f3c05469eeb11a",
    1: "d5b3ceac69a177d6",
    2: "2b13772ce3098fa3",
    3: "0f8fdbe40d1598db",
    4: "f1d4afbd833b6222",
    5: "e7cfce1ff370d34d",
    6: "db992dbf67237103",
    7: "b5f7e2006d616163",
    8: "d44587ce38bdaf6e",
    9: "79d0c29e00558924",
}


@pytest.mark.parametrize("seed", sorted(READER_DIGESTS))
def test_reader_on_mutated_text_is_unchanged(seed):
    assert reader_digest(seed) == READER_DIGESTS[seed]
