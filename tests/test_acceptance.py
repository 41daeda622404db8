"""End-to-end acceptance suite.

Each test covers one acceptance criterion and records a single pass/fail
verdict (printed after the run by conftest.py).  Expected values come from
golden fixtures or independent brute-force oracles computed inline, never
from the code under test.
"""

import random
import time
from contextlib import contextmanager

from conftest import ACCEPTANCE_RESULTS

from owlfl import owl_model as om
from owlfl.cli import main
from owlfl.engine import (
    EngineError, collect_set, insert_fact, load_program, query_goal,
    run_constraint_checks, saturate, stratify,
)
from owlfl.flogic import (
    Atom, FlIsA, FlNaf, FlPred, FlProgram, FlRule, FlSignature, FlSymbol,
    FlVariable, fact, parse_program, print_program, print_rule, print_term,
)
from owlfl.fl_to_owl import translate_program
from owlfl.owl_parser import parse_document
from owlfl.owl_to_fl import (
    Context, TranslationOptions, lower_general_inclusion, translate_ontology,
)

from _table1 import ROWS, normalized_set, wrap
from test_engine import (
    naive_evaluate, random_two_stratum_program, store_facts,
)
from test_fl_to_owl import INVERTIBLE
from test_owl_model import axiom_count


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((num, name, False))
        raise
    ACCEPTANCE_RESULTS.append((num, name, True))


def statements(program):
    return [line for line in print_program(program).splitlines()
            if not line.startswith(":-")]


BASE = "http://example.org/wine#"
X = FlVariable("X")


# --- 1: construct-table golden corpus ----------------------------------------


def test_01_construct_table_goldens():
    with criterion(1, "construct-table golden corpus"):
        start = time.monotonic()
        for name, xml, expected in ROWS:
            doc, diags = parse_document(wrap(xml))
            assert not [d for d in diags if d.severity == "error"], name
            program, _ = translate_ontology(
                doc, TranslationOptions(emit_checkers=False))
            assert normalized_set(statements(program)) == \
                normalized_set(expected), name
        assert time.monotonic() - start < 1.0


# --- 2: dual-pair translation ------------------------------------------------


def test_02_dual_pair():
    with criterion(2, "allValuesFrom dual pair"):
        doc, _ = parse_document(wrap(
            '<owl:Class rdf:about="#Wine"><rdfs:subClassOf>'
            '<owl:Restriction>'
            '<owl:onProperty rdf:resource="#hasMaker"/>'
            '<owl:allValuesFrom rdf:resource="#Winery"/>'
            '</owl:Restriction></rdfs:subClassOf></owl:Class>'))
        program, _ = translate_ontology(
            doc, TranslationOptions(emit_checkers=False))
        sigs = [r for r in program.rules
                if r.is_fact and isinstance(r.head, FlSignature)]
        rules = [r for r in program.rules if not r.is_fact]
        assert len(sigs) == 1 and len(rules) == 1
        assert print_rule(sigs[0]) == "Wine::_object[hasMaker *=> Winery]."
        assert print_rule(rules[0]) == \
            "?Y:Winery :- ?X:Wine, ?X[hasMaker -> ?Y]."


# --- 3: ABox byte-exactness --------------------------------------------------


def test_03_abox_byte_exact():
    with criterion(3, "ABox combined frames byte-exact"):
        doc, _ = parse_document(wrap(
            '<WineGrape rdf:ID="CabernetSauvignonGrape" hasColor="Red"/>'
            '<WineGrape rdf:ID="PinotGrape" hasColor="White"/>'))
        program, _ = translate_ontology(
            doc, TranslationOptions(emit_checkers=False))
        assert statements(program) == [
            "CabernetSauvignonGrape:WineGrape[hasColor -> 'Red'].",
            "PinotGrape:WineGrape[hasColor -> 'White'].",
        ]


# --- 4: query suite vs brute-force oracle ------------------------------------

WINE_KB = """\
RedWine::Wine.
WhiteWine::Wine.
Wine::PotableLiquid.
PotableLiquid::ConsumableThing.
White:WineColor.
Rose:WineColor.
Red:WineColor.
oneOf(WineColor, [White,Rose,Red]).
'TransitiveProperty'(locatedIn).
?X[?P -> ?Z] :- 'TransitiveProperty'(?P), ?X[?P -> ?Y], ?Y[?P -> ?Z].
R1[locatedIn -> R2].
R2[locatedIn -> R3].
R3[locatedIn -> R4].
R4[locatedIn -> R5].
merlot7:RedWine.
chablis2:WhiteWine.
merlot7[hasColor -> Red].
"""


def wine_oracle():
    """Brute-force closure of WINE_KB, built from scratch with plain sets."""
    sub = {("RedWine", "Wine"), ("WhiteWine", "Wine"),
           ("Wine", "PotableLiquid"),
           ("PotableLiquid", "ConsumableThing")}
    isa = {("White", "WineColor"), ("Rose", "WineColor"),
           ("Red", "WineColor"), ("merlot7", "RedWine"),
           ("chablis2", "WhiteWine")}
    located = {("R1", "R2"), ("R2", "R3"), ("R3", "R4"), ("R4", "R5")}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(sub):
            for (c, d) in list(sub):
                if b == c and (a, d) not in sub:
                    sub.add((a, d))
                    changed = True
        for (i, c) in list(isa):
            for (a, b) in sub:
                if a == c and (i, b) not in isa:
                    isa.add((i, b))
                    changed = True
        for (a, b) in list(located):
            for (c, d) in list(located):
                if b == c and (a, d) not in located:
                    located.add((a, d))
                    changed = True
    return isa, sub, located


def test_04_query_suite_vs_oracle(tmp_path, capsys):
    with criterion(4, "query suite matches brute-force oracle"):
        program, diags = parse_program(WINE_KB)
        assert not diags
        kb = load_program(program)
        isa, sub, located = wine_oracle()

        # ground membership, every (individual, class) combination
        inds = {i for (i, _) in isa}
        classes = {c for (_, c) in isa} | {c for p in sub for c in p}
        for i in sorted(inds):
            for c in sorted(classes):
                got = bool(query_goal(kb, FlIsA(FlSymbol(i),
                                                Atom(FlSymbol(c)))))
                assert got == ((i, c) in isa), (i, c)

        # open membership (instances of Wine)
        got = {print_term(t) for t in
               collect_set(kb, "X", FlIsA(X, Atom(FlSymbol("Wine"))))}
        assert got == {i for (i, c) in isa if c == "Wine"}

        # all classes of merlot7
        got = {print_term(t) for t in
               collect_set(kb, "X", FlIsA(FlSymbol("merlot7"), Atom(X)))}
        assert got == {c for (i, c) in isa if i == "merlot7"} | {"_object"}

        # subsumption, every ordered class pair
        from owlfl.flogic import FlSubClass
        for c in sorted(classes):
            for d in sorted(classes):
                got = bool(query_goal(kb, FlSubClass(Atom(FlSymbol(c)),
                                                     Atom(FlSymbol(d)))))
                assert got == ((c, d) in sub), (c, d)

        # most-specific superclasses of RedWine: drop anything reachable
        # through a distinct intermediate class
        supers = {s for (a, s) in sub if a == "RedWine"}
        most_specific = {s for s in supers
                         if not any((m, s) in sub for m in supers
                                    if m != s)}
        src = tmp_path / "wine.flr"
        src.write_text(WINE_KB)
        assert main(["query", str(src), "superclasses", "RedWine",
                     "--most-specific"]) == 0
        got = set(capsys.readouterr().out.splitlines())
        assert got == most_specific == {"Wine"}

        # transitive locatedIn closure over the 5-region chain: C(5,2)
        derived = {(print_term(s), print_term(v))
                   for (s, p, v) in kb.store.attr
                   if print_term(p) == "locatedIn"}
        assert derived == located and len(derived) == 10


# --- 5: CWA cardinality via the CLI ------------------------------------------


def test_05_cwa_cardinality(tmp_path, capsys):
    with criterion(5, "closed-world max-cardinality check"):
        base = ("Person[hasParent{0:2} *=> _object].\n"
                "p:Person.\np[hasParent -> mother].\np[hasParent -> father].\n")
        two = tmp_path / "two.flr"
        two.write_text(base)
        assert main(["check", str(two)]) == 0
        three = tmp_path / "three.flr"
        three.write_text(base + "p[hasParent -> stepmother].\n")
        assert main(["check", str(three)]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and "inconsistent with the constraints" in out[0]


# --- 6: violation message bit-exactness --------------------------------------


def test_06_violation_messages_bit_exact():
    with criterion(6, "disjointWith/oneOf messages byte-exact"):
        program, _ = parse_program(
            "disjoint_classes(Male, Female).\nalex:Male.\nalex:Female.\n"
            "oneOf(WineColor, [White,Rose,Red]).\n"
            "White:WineColor.\nPurple:WineColor.\n")
        violations = run_constraint_checks(load_program(program))
        assert [v.message for v in violations] == [
            "[OWL2FLORA] disjointWith constraint violation: "
            "Male disjoint with Female",
            "[OWL2FLORA] oneOf constraint: extraneous class member "
            "Purple : WineColor",
        ]


# --- 7: lowering behaviors ---------------------------------------------------


def test_07_lowering_behaviors():
    with criterion(7, "general-inclusion lowering behaviors"):
        def named(n):
            return om.Named(om.Iri(BASE + n))

        def context():
            return Context(om.OntologyDocument(prefixes={"": BASE}))

        # (a) union on the left: exactly two Horn rules
        ctx = context()
        rules = lower_general_inclusion(
            om.UnionOf((named("C1"), named("C2"))), named("D"), ctx)
        assert [print_rule(r) for r in rules] == [
            "?X:D :- ?X:C1.",
            "?X:D :- ?X:C2.",
        ]
        assert not any(d.severity == "error" for d in ctx.diagnostics)

        # (b) union on the right: the two NAF case rules; saturating with
        # one case rule and an individual whose other-disjunct membership
        # is underivable yields the remaining disjunct
        cases = lower_general_inclusion(
            named("D"), om.UnionOf((named("C1"), named("C2"))), context())
        assert sorted(print_rule(r) for r in cases) == [
            "?X:C1 :- ?X:D, \\naf ?X:C2.",
            "?X:C2 :- ?X:D, \\naf ?X:C1.",
        ]
        one_sided = FlProgram((
            fact(FlIsA(FlSymbol("apple"), Atom(FlSymbol("D")))),
            cases[0],
        ))
        store = saturate(load_program(one_sided))
        assert (FlSymbol("apple"), FlSymbol("C1")) in store.isa

        # (c) allValuesFrom on the left: Lloyd-Topor pair classifies a
        # 4-individual example identically to a truth-table oracle
        lt = lower_general_inclusion(
            om.Restriction(om.Iri(BASE + "p"),
                           om.AllValuesFrom(named("F"))), named("D"),
            context())
        facts_text = ("a[p -> f1].\nf1:F.\n"
                      "b[p -> g].\n"
                      "c:C0.\n")
        facts, _ = parse_program(facts_text)
        store = saturate(load_program(FlProgram(facts.rules + tuple(lt))))
        p_edges = {(print_term(s), print_term(v))
                   for (s, pr, v) in store.attr if print_term(pr) == "p"}
        f_set = {print_term(i) for (i, c) in store.isa
                 if print_term(c) == "F"}
        individuals = {"a", "f1", "b", "g", "c"}
        oracle = {x for x in individuals
                  if all(y in f_set for (s, y) in p_edges if s == x)}
        got = {print_term(i) for (i, c) in store.isa
               if print_term(c) == "D"}
        assert got == oracle == {"a", "c", "f1", "g"}

        # (d) existential subsumer: hard error, zero rules
        ctx = context()
        rules = lower_general_inclusion(
            om.Restriction(om.Iri(BASE + "p"),
                           om.SomeValuesFrom(named("F"))), named("D"), ctx)
        assert rules == []
        assert any(d.severity == "error" and
                   d.code == "untranslatable-existential"
                   for d in ctx.diagnostics)


# --- 8: engine oracle equivalence --------------------------------------------


def test_08_engine_oracle_equivalence():
    with criterion(8, "semi-naive equals naive oracle on 200 programs"):
        rng = random.Random(8)
        start = time.monotonic()
        for trial in range(200):
            program = random_two_stratum_program(rng)
            store = saturate(load_program(program))
            isa, sub, attr = naive_evaluate(program)
            assert (store.isa, store.sub, store.attr) == (isa, sub, attr), \
                f"trial {trial}"
        assert time.monotonic() - start < 30.0


# --- 9: round trip -----------------------------------------------------------


def test_09_round_trip():
    with criterion(9, "round trip over the invertible corpus"):
        doc, _ = parse_document(wrap(INVERTIBLE))
        program, diags = translate_ontology(doc, TranslationOptions())
        assert not [d for d in diags if d.severity == "error"]
        back, bd = translate_program(program)
        assert not [d for d in bd if d.severity in ("error", "warning")]
        assert set(back.class_axioms) == set(doc.class_axioms)
        assert set(back.property_axioms) == set(doc.property_axioms)
        assert set(back.assertions) == set(doc.assertions)

        # lossy outputs are reported, never reconstructed
        lossy, _ = parse_program(
            "?X:C1 :- ?X:D, \\naf ?X:C2.\n"
            "?X:C2 :- ?X:D, \\naf ?X:C1.\n"
            "'_lt_aux1'(?X) :- ?X[p -> ?Y], \\naf ?Y:F.\n"
            "?X:E :- ?X:_object, \\naf '_lt_aux1'(?X).\n")
        doc2, d2 = translate_program(lossy)
        assert axiom_count(doc2) == 0
        assert sorted(d.code for d in d2) == ["lossy-origin", "lossy-origin"]


# --- 10: termination on cycles -----------------------------------------------


def test_10_termination_on_cycles():
    with criterion(10, "cyclic KBs terminate under 1 s"):
        start = time.monotonic()
        program, _ = parse_program("A::B.\nB::A.\nx:A.")
        kb = load_program(program)
        assert query_goal(kb, FlIsA(FlSymbol("x"), Atom(FlSymbol("B"))))
        assert time.monotonic() - start < 1.0

        start = time.monotonic()
        program, _ = parse_program(
            "'TransitiveProperty'(p).\n"
            "?X[?P -> ?Z] :- 'TransitiveProperty'(?P), "
            "?X[?P -> ?Y], ?Y[?P -> ?Z].\n"
            "a[p -> b].\nb[p -> c].\nc[p -> a].")
        kb = load_program(program)
        assert len(kb.store.attr) == 9
        assert time.monotonic() - start < 1.0


# --- 11: insert order-independence -------------------------------------------


def test_11_insert_order_independence():
    with criterion(11, "insert equals loading the fact up front"):
        rng = random.Random(11)
        for trial in range(20):
            program = random_two_stratum_program(rng)
            extra = FlIsA(FlSymbol("i0"),
                          Atom(FlSymbol(rng.choice(("A0", "A1", "A2")))))
            upfront = load_program(FlProgram(program.rules + (fact(extra),)))
            incremental = load_program(program)
            incremental.store  # saturate first, then insert
            insert_fact(incremental, extra)
            assert store_facts(upfront.store) == \
                store_facts(incremental.store), f"trial {trial}"
