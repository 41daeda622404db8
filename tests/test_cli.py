import os
import random
import sys
import time

import pytest

from owlfl import load_program, parse_document, translate_ontology
from owlfl.cli import _warn_unknown, main
from owlfl.flogic import FlSymbol

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import gen  # noqa: E402

OWL_DOC = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns="http://example.org/wine#"
         xml:base="http://example.org/wine">
  <owl:Class rdf:about="#RedWine">
    <rdfs:subClassOf rdf:resource="#Wine"/>
  </owl:Class>
  <owl:Class rdf:about="#Female">
    <owl:disjointWith rdf:resource="#Male"/>
  </owl:Class>
</rdf:RDF>
"""

FLR_KB = """RedWine::Wine.
Wine::PotableLiquid.
PotableLiquid::ConsumableThing.
merlot7:RedWine.
chablis2:WhiteWine.
WhiteWine::Wine.
"""


@pytest.fixture
def owl_file(tmp_path):
    p = tmp_path / "kb.owl"
    p.write_text(OWL_DOC)
    return str(p)


@pytest.fixture
def flr_file(tmp_path):
    p = tmp_path / "kb.flr"
    p.write_text(FLR_KB)
    return str(p)


# --- translate ---------------------------------------------------------------


def test_translate_owl_to_flora(owl_file, tmp_path, capsys):
    out = str(tmp_path / "out.flr")
    assert main(["translate", "--from", "owl", "--to", "flora",
                 owl_file, "-o", out]) == 0
    with open(out) as f:
        text = f.read()
    assert "RedWine::Wine." in text
    assert "disjoint_classes(Male, Female)." in text
    assert "check_disjoint_constraints" in text


def test_translate_flora_to_owl(flr_file, tmp_path):
    out = str(tmp_path / "out.owl")
    assert main(["translate", "--from", "flora", "--to", "owl",
                 flr_file, "-o", out]) == 0
    with open(out) as f:
        text = f.read()
    assert "rdfs:subClassOf" in text and "merlot7" in text


def test_translate_round_trip_through_files(owl_file, tmp_path):
    mid = str(tmp_path / "mid.flr")
    back = str(tmp_path / "back.owl")
    assert main(["translate", "--from", "owl", "--to", "flora",
                 owl_file, "-o", mid]) == 0
    assert main(["translate", "--from", "flora", "--to", "owl",
                 mid, "-o", back]) == 0
    with open(back) as f:
        text = f.read()
    assert 'rdf:resource="#Wine"' in text
    assert "owl:disjointWith" in text


def test_empty_string_value_survives_translate_both_ways(tmp_path):
    owl = tmp_path / "a.owl"
    owl.write_text(OWL_DOC.replace(
        "</rdf:RDF>", '<owl:Thing rdf:about="#a"><hasLabel></hasLabel>'
        "</owl:Thing></rdf:RDF>"))
    mid, back = tmp_path / "mid.flr", tmp_path / "back.owl"
    assert main(["translate", "--from", "owl", "--to", "flora", str(owl),
                 "-o", str(mid)]) == 0
    assert "a[hasLabel -> '']." in mid.read_text()
    assert main(["translate", "--from", "flora", "--to", "owl", str(mid),
                 "-o", str(back)]) == 0
    assert "<hasLabel></hasLabel>" in back.read_text()
    assert main(["translate", "--from", "owl", "--to", "flora", str(back),
                 "-o", str(mid)]) == 0
    assert "a[hasLabel -> '']." in mid.read_text()


@pytest.mark.parametrize("directive,message", [
    (":- prefix(food, 'rel').\nfood:A::B.\n",
     "prefix food namespace 'rel' is not an absolute IRI"),
    (":- base('rel').\nA::B.\n", "base 'rel' is not an absolute IRI"),
], ids=["prefix", "base"])
def test_translate_relative_flora_namespace_exits_2(directive, message,
                                                    tmp_path, capsys):
    src = tmp_path / "rel.flr"
    src.write_text(directive)
    assert main(["translate", "--from", "flora", "--to", "owl", str(src),
                 "-o", str(tmp_path / "out.owl")]) == 2
    assert capsys.readouterr().err == f"error: relative-iri: {message}\n"
    assert main(["check", str(src)]) == 0


@pytest.mark.parametrize("dst,text,err", [
    ("owl", ":- prefix(food, 'rel').\n",
     "error: relative-iri: prefix food namespace 'rel' is not an absolute "
     "IRI\n"),
    ("owl", "A::B. C:: . D::E.\n",
     "error: syntax-error: expected a term, got '.' at 1:11\n"),
    ("flora", "a:b.\n  c[p -> d.\n",
     "error: syntax-error: expected ']', got '.' at 2:11\n"),
], ids=["relative-prefix", "bad-statement", "flora-to-flora"])
def test_translate_flora_error_writes_no_output(dst, text, err, tmp_path,
                                                 capsys):
    src = tmp_path / "bad.flr"
    src.write_text(text)
    out = tmp_path / "out"
    assert main(["translate", "--from", "flora", "--to", dst, str(src),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("text,err", [
    ("a:b :- \\naf \\naf c:d.\n",
     "error: syntax-error: naf may not directly wrap naf at 1:13\n"),
    ("a:b :- not(\\naf c:d).\n",
     "error: syntax-error: naf may not directly wrap naf at 1:12\n"),
    ("a:b :- \\naf not(c:d).\n",
     "error: syntax-error: naf may not directly wrap naf at 1:13\n"),
    ("a:b :- \\naf (c:d, \\naf e:f).\n",
     "error: syntax-error: naf may not directly wrap naf at 1:19\n"),
    ("c[p{1", "error: syntax-error: expected ':' in cardinality at 1:6\n"),
    ("a[p -> ٣].\n", "error: syntax-error: unexpected character '٣' at 1:8\n"),
    ("C[p{٣:٣} *=> _object].\n",
     "error: syntax-error: unexpected character '٣' at 1:5\n"),
], ids=["naf-naf", "not-naf", "naf-not", "naf-list", "cut-cardinality",
        "non-ascii-value", "non-ascii-cardinality"])
@pytest.mark.parametrize("command", ["check", "translate"])
def test_flora_syntax_error_exits_2(command, text, err, tmp_path, capsys):
    src = tmp_path / "bad.flr"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "out.owl"
    argv = ["check", str(src)] if command == "check" else [
        "translate", "--from", "flora", "--to", "owl", str(src),
        "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("text", ["A::_object[p *=> (B - C)].\n",
                                  "A :=: (B ; (C - D)).\n"])
def test_translate_class_without_owl_form_warns(text, tmp_path, capsys):
    src = tmp_path / "kb.flr"
    src.write_text(text)
    out = tmp_path / "out.owl"
    assert main(["translate", "--from", "flora", "--to", "owl", str(src),
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err == \
        f"warning: unrepresentable-in-owl: no OWL form for: {text}"
    assert "owl:Class" not in out.read_text()


def test_translate_property_without_an_element_name_exits_2(tmp_path,
                                                            capsys):
    src = tmp_path / "kb.flr"
    src.write_text("x['a b' -> y].\n")
    out = tmp_path / "out.owl"
    assert main(["translate", "--from", "flora", "--to", "owl", str(src),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: unrepresentable-in-owl: property "
        "'http://example.org/ontology#a b' has no RDF/XML element name\n")
    assert not out.exists()


def test_translate_existential_subsumer_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.owl"
    src.write_text(OWL_DOC.replace(
        '<rdfs:subClassOf rdf:resource="#Wine"/>',
        '<rdfs:subClassOf><owl:Restriction>'
        '<owl:onProperty rdf:resource="#hasMaker"/>'
        '<owl:someValuesFrom rdf:resource="#Winery"/>'
        '</owl:Restriction></rdfs:subClassOf>').replace(
        'rdf:about="#RedWine"', 'rdf:about="#RedWine2"').replace(
        '<owl:Class rdf:about="#RedWine2">',
        '<owl:Class rdf:about="#RedWine2">'
        '<rdfs:subClassOf rdf:resource="#Wine"/>'))
    # flip the subclass axiom around: complex sub, named super
    src.write_text("""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns="http://example.org/wine#"
         xml:base="http://example.org/wine">
  <owl:Class rdf:about="#HasAnyMaker">
    <owl:equivalentClass><owl:Restriction>
      <owl:onProperty rdf:resource="#hasMaker"/>
      <owl:someValuesFrom rdf:resource="#Winery"/>
    </owl:Restriction></owl:equivalentClass>
  </owl:Class>
</rdf:RDF>
""")
    out = str(tmp_path / "out.flr")
    code = main(["translate", "--from", "owl", "--to", "flora",
                 str(src), "-o", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "untranslatable-existential" in err


@pytest.mark.parametrize("fact", ["a[p -> [b,c]].", "hasValue(C, p, ?V)."],
                         ids=["list", "variable"])
def test_translate_fact_without_an_owl_value_is_left_over(fact, tmp_path,
                                                          capsys):
    src = tmp_path / "kb.flr"
    src.write_text(f"{fact}\nx:C.\n")
    out = tmp_path / "out.owl"
    assert main(["translate", "--from", "flora", "--to", "owl", str(src),
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err == \
        f"warning: unrepresentable-in-owl: no OWL form for: {fact}\n"
    assert '<owl:Thing rdf:about="#x">' in out.read_text()


@pytest.mark.parametrize("rule", [
    "?X:G :- ?X:A, ?X:B.",
    "?X:G :- ?X:_object, \\naf ?X:A.",
], ids=["membership", "complement"])
def test_translate_general_inclusion_keeps_other_axioms(rule, tmp_path,
                                                        capsys):
    src = tmp_path / "gci.flr"
    src.write_text(f"G::T.\n{rule}\na:A.\n")
    out = tmp_path / "out.owl"
    assert main(["translate", "--from", "flora", "--to", "owl", str(src),
                 "-o", str(out)]) == 0
    text = out.read_text()
    assert '<owl:Class rdf:about="#G">' in text
    assert '<rdfs:subClassOf rdf:resource="#T"/>' in text
    assert '<owl:Thing rdf:about="#a">' in text
    assert text.endswith("</rdf:RDF>\n")
    err = capsys.readouterr().err
    assert err.startswith("warning: unrepresentable-in-owl:")
    assert err.rstrip().endswith(rule)


def test_translate_empty_program(tmp_path):
    src = tmp_path / "empty.flr"
    src.write_text("")
    out = str(tmp_path / "out.owl")
    assert main(["translate", "--from", "flora", "--to", "owl",
                 str(src), "-o", out]) == 0


def test_translate_missing_file_exits_2(tmp_path, capsys):
    assert main(["translate", "--from", "flora", "--to", "owl",
                 str(tmp_path / "nope.flr"),
                 "-o", str(tmp_path / "o.owl")]) == 2


def test_translate_into_a_missing_directory_exits_2(flr_file, tmp_path,
                                                    capsys):
    out = tmp_path / "missing" / "out.owl"
    assert main(["translate", "--from", "flora", "--to", "owl", flr_file,
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: io-error:")
    assert not out.parent.exists()


# --- check -------------------------------------------------------------------


def test_check_clean_kb(flr_file, capsys):
    assert main(["check", flr_file]) == 0
    assert capsys.readouterr().out == ""


def test_check_violation_printed_verbatim(tmp_path, capsys):
    kb = tmp_path / "v.flr"
    kb.write_text("disjoint_classes(Male, Female).\n"
                  "alex:Male.\nalex:Female.\n")
    assert main(["check", str(kb)]) == 1
    out = capsys.readouterr().out
    assert out == ("[OWL2FLORA] disjointWith constraint violation: "
                   "Male disjoint with Female\n")


def test_check_cardinality_and_min_flag(tmp_path, capsys):
    kb = tmp_path / "c.flr"
    kb.write_text("Wine[hasMaker{1:*} *=> _object].\nw:Wine.\n")
    assert main(["check", str(kb)]) == 0
    assert main(["check", "--min-cardinality", str(kb)]) == 1


def test_check_reports_a_signature_stated_twice_once(tmp_path, capsys):
    """Two identical maxCardinality restrictions lower to two equal
    signatures; the KB keeps one, so the violation prints once, in the
    document and when the same signature is inserted again."""
    restriction = ('<rdfs:subClassOf><owl:Restriction>'
                   '<owl:onProperty rdf:resource="#p"/>'
                   '<owl:maxCardinality>1</owl:maxCardinality>'
                   '</owl:Restriction></rdfs:subClassOf>')
    doc = tmp_path / "twice.owl"
    doc.write_text(OWL_DOC.replace(
        '<rdfs:subClassOf rdf:resource="#Wine"/>', 2 * restriction).replace(
        "</rdf:RDF>", '<RedWine rdf:about="#a"><p rdf:resource="#b1"/>'
        '<p rdf:resource="#b2"/></RedWine></rdf:RDF>'))
    message = ("[OWL2FLORA] cardinality constraint violation: KB is "
               "inconsistent with the constraints: a.p has 2 distinct "
               "values, allowed {0:1}\n")
    assert main(["check", str(doc)]) == 1
    assert capsys.readouterr().out == message
    again = tmp_path / "again.flr"
    again.write_text("RedWine[p{0:1} *=> _object].\n")
    assert main(["check", str(doc), str(again)]) == 1
    assert capsys.readouterr().out == message


def test_check_merges_owl_and_flora_inputs(owl_file, tmp_path, capsys):
    abox = tmp_path / "abox.flr"
    abox.write_text("alex:Male.\nalex:Female.\n")
    assert main(["check", owl_file, str(abox)]) == 1


def test_check_non_stratified_exits_2(tmp_path, capsys):
    kb = tmp_path / "ns.flr"
    kb.write_text("a:C.\n"
                  "?X:A :- ?X:C, \\naf ?X:B.\n"
                  "?X:B :- ?X:C, \\naf ?X:A.\n")
    assert main(["check", str(kb)]) == 2
    assert "non-stratified-program" in capsys.readouterr().err


USER_RULE = "format('bad ~w', [?X])@_prolog(format)."
CARD_MSG = ("[OWL2FLORA] cardinality constraint violation: KB is "
            "inconsistent with the constraints: ")


@pytest.mark.parametrize("text, out", [
    ("a:c.\ncheck_mine :- ?X:c, " + USER_RULE + "\n", "bad a\n"),
    ("oneOf(c, a).\nb:c.\n",
     "[OWL2FLORA] oneOf constraint: extraneous class member b : c\n"),
    ("c[p{0:1} *=> (a ; b)].\nx:c.\nx[p -> y1].\nx[p -> y2].\n"
     "y1:a.\ny2:a.\n",
     CARD_MSG + "x.p has 2 distinct values, allowed {0:1}\n"),
    ("(c ; d)[p *=> (a - b)].\nx:d.\nx[p -> y1].\nx[p -> y2].\n"
     "y1:a.\ny2:a.\ny2:b.\n",
     "[OWL2FLORA] signature range violation: x.p value y2 is not in class "
     "(a - b)\n"),
    # the library first, then each solution of a user rule once
    ("disjoint_classes(c, d).\na:c.\na:d.\n"
     "check_mine :- ?X:(c ; d), " + USER_RULE + "\n",
     "[OWL2FLORA] disjointWith constraint violation: c disjoint with d\n"
     "bad a\n"),
    # solutions sorted by their variables in order of first occurrence
    ("b[p -> a].\na[p -> c].\na[p -> b].\n"
     "check_pairs :- ?X[?P -> ?Y], "
     "format(2, '~w ~w', [?Y, ?X])@_prolog(format).\n",
     "b a\nc a\na b\n"),
    # ?V occurs only under the negation, so it is local to it
    ("a:c.\nb:c.\nb[p -> d].\n"
     "check_mine :- ?X:c, \\naf ?X[p -> ?V], " + USER_RULE + "\n",
     "bad a\n"),
], ids=["user-rule", "oneOf-not-a-list", "compound-range-cardinality",
        "compound-signature-range", "user-after-library", "solution-order",
        "naf-local-variable"])
def test_check_runs_what_the_program_says(text, out, tmp_path, capsys):
    kb = tmp_path / "kb.flr"
    kb.write_text(text)
    assert main(["check", str(kb)]) == 1
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("rule", [
    "check_mine :- ?X:c.",
    "check_mine :- ?X:c, \\naf ?Y:d, format('~w', [?Y])@_prolog(format).",
], ids=["no-format", "unbound-format-variable"])
def test_check_unsupported_user_rule_exits_2(rule, tmp_path, capsys):
    kb = tmp_path / "kb.flr"
    kb.write_text("a:c.\n" + rule + "\n")
    assert main(["check", str(kb)]) == 2
    assert capsys.readouterr().err == (
        "error: unsupported-rule: check_mine needs one format literal whose "
        "variables a positive body literal binds\n")


@pytest.mark.parametrize("text, err", [
    ("?X[p *=> C] :- ?X:D.",
     "unsupported-rule: signatures and equivalences cannot be derived by "
     "rules"),
    ("p([?X]) :- q(?X).",
     "function-symbols-unsupported: non-ground list in head: p([?X])"),
    ("a[q -> b]. ?X[p -> [?Y]] :- ?X[q -> ?Y].",
     "function-symbols-unsupported: non-ground list in head: ?X[p -> [?Y]]"),
    ("a[q -> b]. [?Y]:c :- ?X[q -> ?Y].",
     "function-symbols-unsupported: non-ground list in head: [?Y]:c"),
    ("a:(B ; C).",
     "unsupported-rule: compound class expression in rule head"),
    ("h(?X) :- p(?X), \\naf q(?Y).",
     "non-range-restricted: negated variables ['Y'] not bound by a positive "
     "body literal"),
    ("a:B. h(?C) :- a:(?C ; B).",
     "non-range-restricted: unbound head variable ?C"),
    ("a:B. h(?C) :- a:(?C ; B), \\naf q(?C).",
     "unsafe-goal: unbound variable ?C under negation"),
    ("a:B. h(?C) :- a:(?C ; B), ?C != b.",
     "unsafe-goal: unbound variable in disequality"),
], ids=["derived-signature", "list-in-head", "list-in-attribute-head",
        "list-in-isa-head", "compound-class-fact", "negated-variable",
        "head-variable", "variable-under-negation", "disequality-variable"])
def test_check_rejects_a_rule_the_engine_cannot_run(text, err, tmp_path,
                                                    capsys):
    kb = tmp_path / "kb.flr"
    kb.write_text(text + "\n")
    assert main(["check", str(kb)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_complement_superclass_has_no_lowering_exits_2(tmp_path, capsys):
    src = tmp_path / "neg.owl"
    src.write_text(OWL_DOC.replace(
        '<rdfs:subClassOf rdf:resource="#Wine"/>',
        '<rdfs:subClassOf><owl:Class><owl:complementOf rdf:resource="#Wine"/>'
        '</owl:Class></rdfs:subClassOf>'))
    assert main(["translate", "--from", "owl", "--to", "flora", str(src),
                 "-o", str(tmp_path / "out.flr")]) == 2
    assert capsys.readouterr().err == (
        "error: untranslatable-construct: no lowering for the inclusion "
        "Named(iri=Iri(value='http://example.org/wine#RedWine')) <= "
        "ComplementOf(operand=Named(iri=Iri(value="
        "'http://example.org/wine#Wine')))\n")


COLOURS = OWL_DOC.replace("</rdf:RDF>", """\
  <owl:Class rdf:about="#Red"><owl:disjointWith rdf:resource="#White"/>
  </owl:Class>
  <owl:Thing rdf:about="#x">
    <rdf:type rdf:resource="http://example.org/colour#Red"/>
    <rdf:type rdf:resource="#White"/>
  </owl:Thing>
</rdf:RDF>""")


def test_same_local_name_in_two_namespaces_is_two_names(tmp_path, capsys):
    src = tmp_path / "kb.owl"
    src.write_text(COLOURS)
    assert main(["check", str(src)]) == 0
    assert capsys.readouterr().out == ""
    for name, answer in (("Red", "false"),
                         ("'http://example.org/colour#Red'", "true")):
        assert main(["query", str(src), "is", "x", name]) == 0
        assert capsys.readouterr().out == answer + "\n"
    mid, back = tmp_path / "mid.flr", tmp_path / "back.owl"
    assert main(["translate", "--from", "owl", "--to", "flora", str(src),
                 "-o", str(mid)]) == 0
    assert main(["translate", "--from", "flora", "--to", "owl", str(mid),
                 "-o", str(back)]) == 0
    assert '<rdf:type rdf:resource="http://example.org/colour#Red"/>' in \
        back.read_text()


AVF_FILLERS = {
    "union": ('<owl:Class><owl:unionOf rdf:parseType="Collection">'
              '<owl:Class rdf:about="#A"/><owl:Class rdf:about="#B"/>'
              "</owl:unionOf></owl:Class>", ["d"], "(A ; B)"),
    "intersection": ('<owl:Class><owl:intersectionOf rdf:parseType='
                     '"Collection"><owl:Class rdf:about="#A"/>'
                     '<owl:Class rdf:about="#B"/></owl:intersectionOf>'
                     "</owl:Class>", ["a", "d"], "(A , B)"),
    "complement": ('<owl:Class><owl:complementOf rdf:resource="#A"/>'
                   "</owl:Class>", ["a"], "(_object - A)"),
}


@pytest.mark.parametrize("filler", list(AVF_FILLERS))
def test_compound_allvaluesfrom_filler_is_a_constraint(filler, tmp_path,
                                                       capsys):
    xml, outside, printed = AVF_FILLERS[filler]
    src = tmp_path / "kb.owl"
    src.write_text(OWL_DOC.replace("</rdf:RDF>", f"""\
  <owl:Class rdf:about="#C"><rdfs:subClassOf><owl:Restriction>
    <owl:onProperty rdf:resource="#p"/>
    <owl:allValuesFrom>{xml}</owl:allValuesFrom>
  </owl:Restriction></rdfs:subClassOf></owl:Class>
  <C rdf:about="#c"><p rdf:resource="#a"/><p rdf:resource="#d"/></C>
  <A rdf:about="#a"/>
</rdf:RDF>"""))
    warning = ("warning: complex-operand: compound allValuesFrom filler: the "
               "signature is a constraint only, with no inference rule\n")
    assert main(["check", str(src)]) == (1 if outside else 0)
    captured = capsys.readouterr()
    assert captured.err == warning
    assert captured.out == "".join(
        f"[OWL2FLORA] signature range violation: c.p value {v} is not in "
        f"class {printed}\n" for v in outside)
    # no rule derives membership of the filler, so d stays outside A
    assert main(["query", str(src), "instances", "A"]) == 0
    assert capsys.readouterr().out == "a\n"


def test_check_syntax_error_exits_2(tmp_path, capsys):
    kb = tmp_path / "bad.flr"
    kb.write_text("this is :::: not flora\n")
    assert main(["check", str(kb)]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "{owl}"],
    ["query", "{owl}", "instances", "Wine"],
    ["translate", "--from", "owl", "--to", "flora", "{owl}", "-o", "{out}"],
], ids=["check", "query", "translate"])
def test_truncated_owl_exits_2(argv, tmp_path, capsys):
    owl = tmp_path / "truncated.owl"
    owl.write_text("<rdf:RDF")
    out = tmp_path / "out.flr"
    assert main([a.format(owl=owl, out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "malformed-xml" in err and "Traceback" not in err


DEEP = 2000


def _deep_flr():
    # a:(((C0 ; C1) ; C2) ... ; C2000).
    ops = "".join(f" ; C{i})" for i in range(1, DEEP + 1))
    return "a:" + "(" * DEEP + "C0" + ops + ".\n"


def _deep_owl():
    nested = "<owl:Class><owl:complementOf>" * DEEP + \
        '<owl:Class rdf:about="#C"/>' + \
        "</owl:complementOf></owl:Class>" * DEEP
    return OWL_DOC.replace(
        "</rdf:RDF>",
        '<owl:Class rdf:about="#D"><rdfs:subClassOf>' + nested +
        "</rdfs:subClassOf></owl:Class>\n</rdf:RDF>")


@pytest.mark.parametrize("suffix", ["flr", "owl"])
@pytest.mark.parametrize("command", ["check", "query", "translate"])
def test_deep_nesting_exits_2(suffix, command, tmp_path, capsys):
    src = tmp_path / f"deep.{suffix}"
    src.write_text(_deep_flr() if suffix == "flr" else _deep_owl())
    argv = {
        "check": ["check", str(src)],
        "query": ["query", str(src), "instances", "C0"],
        "translate": ["translate", "--from",
                      "flora" if suffix == "flr" else "owl", "--to",
                      "owl" if suffix == "flr" else "flora", str(src),
                      "-o", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: syntax-error:" in err and "Traceback" not in err


# Malformed inputs and the exit code each must give in every subcommand:
# an empty program is a clean KB, anything unreadable is an error.
FUZZ_INPUTS = {
    "empty.flr": ("", 0),
    "empty.owl": ("", 2),
    "truncated.flr": ("A::B.\na:A.\n?X:C :- ?X:", 2),
    "truncated.owl": (OWL_DOC[:OWL_DOC.index("<owl:Class") + 30], 2),
    "binary.flr": (b"\xff\xfe\x00\x80abc\xc3", 2),
    "binary.owl": (b"<?xml version='1.0'?>\xff\xfe<rdf:RDF/>", 2),
    "deep.flr": (_deep_flr(), 2),
    "deep.owl": (_deep_owl(), 2),
    "neq-head.flr": ("2.5 != C .\n", 2),
    "bare-oneOf.flr": ("oneOf.\ndisjoint_classes(A).\nx:A.\n", 0),
    "empty-fragment.owl": (OWL_DOC.replace('"#Female"', '"#"'), 0),
    "negative-cardinality.owl": (OWL_DOC.replace(
        '<rdfs:subClassOf rdf:resource="#Wine"/>',
        '<rdfs:subClassOf><owl:Restriction>'
        '<owl:onProperty rdf:resource="#hasMaker"/>'
        '<owl:maxCardinality>-1</owl:maxCardinality>'
        '</owl:Restriction></rdfs:subClassOf>'), 2),
    "relative-base.owl": (OWL_DOC.replace(
        'xml:base="http://example.org/wine"', 'xml:base="rel"'), 2),
    "relative-namespace.owl": (OWL_DOC.replace(
        'xml:base=', 'xmlns:rel="rel#" xml:base=').replace(
        "</rdf:RDF>", '<rel:Wine rdf:about="#w"/></rdf:RDF>'), 2),
    "inverted-cardinality.flr": ("c[p{2:1} *=> d].\n", 2),
    "empty-quoted-name.flr": ("a[p -> ''].\n", 0),
    "empty-property-value.owl": (OWL_DOC.replace(
        "</rdf:RDF>",
        '<owl:Thing rdf:about="#a"><hasLabel></hasLabel></owl:Thing>'
        "</rdf:RDF>"), 0),
    "quoted-non-iri.flr": ("'1://x'::b.\na[p -> '1://x'].\n", 0),
    # a third code is that of the translation into the other language
    "relative-prefix.flr": (":- prefix(food, 'rel').\nfood:A::B.\n", 0, 2),
    "relative-base.flr": (":- base('rel').\nA::B.\n", 0, 2),
}


def test_malformed_inputs_never_trace_back(tmp_path, capsys):
    start = time.monotonic()
    for name, (content, code, *cross) in FUZZ_INPUTS.items():
        cross_code = cross[0] if cross else code
        src = tmp_path / name
        if isinstance(content, bytes):
            src.write_bytes(content)
        else:
            src.write_text(content)
        lang = "flora" if name.endswith(".flr") else "owl"
        other = "owl" if lang == "flora" else "flora"
        # each command writes a new file: on ext4, closing a truncated
        # non-empty file waits for its data to be flushed
        for argv, want in (
                (["translate", "--from", lang, "--to", other, str(src),
                  "-o", str(tmp_path / f"{name}.{other}")], cross_code),
                (["translate", "--from", lang, "--to", lang, str(src),
                  "-o", str(tmp_path / f"{name}.{lang}")], code),
                (["check", str(src)], code),
                (["query", str(src), "instances", "C"], code),
                (["insert", str(src), "x:C."], code)):
            assert main(argv) == want, (name, argv[:5])
            assert "Traceback" not in capsys.readouterr().err
    assert time.monotonic() - start < 1.0


# A restriction or enumeration nested where the F-logic side needs a class
# expression has no rule form; each is a class axiom of one document.
NESTED_CONSTRUCTS = {
    "union-operand": (
        '<owl:Class rdf:about="#U"><owl:unionOf rdf:parseType="Collection">'
        '<owl:Class rdf:about="#A"/><owl:Restriction>'
        '<owl:onProperty rdf:resource="#p"/><owl:hasValue rdf:resource="#v"/>'
        '</owl:Restriction></owl:unionOf></owl:Class>'),
    "intersection-operand": (
        '<owl:Class rdf:about="#U"><owl:intersectionOf '
        'rdf:parseType="Collection"><owl:Class rdf:about="#A"/><owl:Class>'
        '<owl:oneOf rdf:parseType="Collection"><owl:Thing rdf:about="#v"/>'
        '</owl:oneOf></owl:Class></owl:intersectionOf></owl:Class>'),
    "complement-operand": (
        '<owl:Class rdf:about="#U"><owl:complementOf><owl:Restriction>'
        '<owl:onProperty rdf:resource="#p"/><owl:hasValue rdf:resource="#v"/>'
        '</owl:Restriction></owl:complementOf></owl:Class>'),
    "all-values-filler": (
        '<owl:Class rdf:about="#U"><rdfs:subClassOf><owl:Restriction>'
        '<owl:onProperty rdf:resource="#p"/><owl:allValuesFrom>'
        '<owl:Restriction><owl:onProperty rdf:resource="#q"/>'
        '<owl:hasValue rdf:resource="#v"/></owl:Restriction>'
        '</owl:allValuesFrom></owl:Restriction></rdfs:subClassOf></owl:Class>'),
}


@pytest.mark.parametrize("argv, code", [
    (["translate", "--from", "owl", "--to", "flora", "{src}", "-o", "{out}"], 2),
    (["translate", "--from", "owl", "--to", "owl", "{src}", "-o", "{out}"], 0),
    (["check", "{src}"], 2),
    (["query", "{src}", "instances", "A"], 2),
    (["insert", "{src}", "x:A."], 2),
], ids=["translate-flora", "translate-owl", "check", "query", "insert"])
@pytest.mark.parametrize("construct", list(NESTED_CONSTRUCTS))
def test_nested_restriction_or_enumeration_is_untranslatable(
        construct, argv, code, tmp_path, capsys):
    src = tmp_path / "nested.owl"
    src.write_text(OWL_DOC.replace(
        "</rdf:RDF>", NESTED_CONSTRUCTS[construct] + "</rdf:RDF>"))
    out = tmp_path / "out"
    assert main([a.format(src=src, out=out) for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert "error: untranslatable-construct:" in err
        assert "in the axiom" in err and "http://example.org/wine#U" in err
    else:
        assert "#U" in out.read_text()


def _veg_doc(ns):
    return OWL_DOC.replace(
        'xmlns="http://example.org/wine#"',
        f'xmlns:veg="{ns}"\n         '
        'xmlns="http://example.org/wine#"').replace("</rdf:RDF>", f"""\
  <owl:Class rdf:about="{ns}Carrot">
    <rdfs:subClassOf rdf:resource="#Food"/>
  </owl:Class>
  <owl:Thing rdf:about="#c"><veg:weight rdf:resource="#heavy"/></owl:Thing>
  <owl:Thing rdf:about="#d"><veg:weight rdf:resource="{ns}Heavy"/></owl:Thing>
</rdf:RDF>""")


@pytest.mark.parametrize("ns", ["http://example.org/veg/",
                                "http://example.org/veg/#"],
                         ids=["slash", "slash-hash"])
def test_slash_namespace_means_one_iri_both_ways(tmp_path, ns):
    owl, mid, back = (tmp_path / n for n in ("veg.owl", "mid.flr", "back.owl"))
    owl.write_text(_veg_doc(ns))
    assert main(["translate", "--from", "owl", "--to", "flora", str(owl),
                 "-o", str(mid)]) == 0
    text = mid.read_text()
    assert "veg:Carrot::Food." in text and "c[veg:weight -> heavy]." in text
    assert "d[veg:weight -> veg:Heavy]." in text
    assert main(["translate", "--from", "flora", "--to", "owl", str(mid),
                 "-o", str(back)]) == 0
    text = back.read_text()
    assert f'xmlns:veg="{ns}"' in text
    assert "xmlns:ns1" not in text and "<veg:weight " in text
    assert f'rdf:about="{ns}Carrot"' in text
    assert f'<veg:weight rdf:resource="{ns}Heavy"/>' in text
    # a hand-written prefix for the namespace reads the same way
    src = tmp_path / "veg.flr"
    src.write_text(f":- prefix(veg, '{ns}').\nc:veg:Carrot.\n")
    assert main(["translate", "--from", "flora", "--to", "owl", str(src),
                 "-o", str(back)]) == 0
    assert f'rdf:resource="{ns}Carrot"' in back.read_text()


# --- query -------------------------------------------------------------------


def test_query_is(flr_file, capsys):
    assert main(["query", flr_file, "is", "merlot7", "Wine"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["query", flr_file, "is", "merlot7", "WhiteWine"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_query_instances_sorted(flr_file, capsys):
    assert main(["query", flr_file, "instances", "Wine"]) == 0
    assert capsys.readouterr().out == "chablis2\nmerlot7\n"


def test_query_classes_of(flr_file, capsys):
    assert main(["query", flr_file, "classes-of", "merlot7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["ConsumableThing", "PotableLiquid", "RedWine",
                     "Wine", "_object"]


def test_query_subclass(flr_file, capsys):
    assert main(["query", flr_file, "subclass", "RedWine",
                 "ConsumableThing"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_query_superclasses_all_vs_most_specific(flr_file, capsys):
    assert main(["query", flr_file, "superclasses", "RedWine"]) == 0
    assert capsys.readouterr().out.splitlines() == \
        ["ConsumableThing", "PotableLiquid", "Wine"]
    assert main(["query", flr_file, "superclasses", "RedWine",
                 "--most-specific"]) == 0
    assert capsys.readouterr().out == "Wine\n"


def test_query_subclasses_most_general(flr_file, capsys):
    assert main(["query", flr_file, "subclasses", "ConsumableThing",
                 "--most-general"]) == 0
    assert capsys.readouterr().out == "PotableLiquid\n"


def _closure(edges):
    """Every (sub, super) pair reachable along one or more edges."""
    pairs = set(edges)
    while True:
        more = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not more:
            return pairs
        pairs |= more


@pytest.mark.parametrize("seed", range(12))
def test_hierarchy_verbs_match_brute_force_closure(seed, tmp_path, capsys):
    """superclasses/subclasses, with and without --most-specific and
    --most-general, over random class graphs with ``::`` cycles."""
    rng = random.Random(seed)
    classes = [f"c{i}" for i in range(6)]
    edges = {(rng.choice(classes), rng.choice(classes)) for _ in range(7)}
    src = tmp_path / "kb.flr"
    src.write_text("".join(f"{a}::{b}.\n" for a, b in sorted(edges)) +
                   "".join(f"x:{c}.\n" for c in classes))
    sub = _closure(edges)
    for c in classes:
        supers = {d for a, d in sub if a == c and d != c}
        subs = {a for a, d in sub if d == c and a != c}
        expected = {
            ("superclasses", None): supers,
            ("superclasses", "--most-specific"): {
                s for s in supers
                if not any(m != s and (m, s) in sub for m in supers)},
            ("subclasses", None): subs,
            ("subclasses", "--most-general"): {
                s for s in subs
                if not any(m != s and (s, m) in sub for m in subs)},
        }
        for (verb, flag), want in expected.items():
            assert main(["query", str(src), verb, c] +
                        ([flag] if flag else [])) == 0
            out = capsys.readouterr().out.splitlines()
            assert out == sorted(want), (verb, flag, c)


def test_query_check_verb(flr_file, tmp_path, capsys):
    assert main(["query", flr_file, "check"]) == 0
    assert capsys.readouterr().out == "consistent\n"
    bad = tmp_path / "bad.flr"
    bad.write_text("disjoint_classes(Male, Female).\na:Male.\na:Female.\n")
    assert main(["query", str(bad), "check"]) == 1
    assert capsys.readouterr().out == "inconsistent\n"


def test_query_check_unsupported_user_rule_exits_2(tmp_path, capsys):
    kb = tmp_path / "kb.flr"
    kb.write_text("a:c.\ncheck_mine :- ?X:c.\n")
    assert main(["query", str(kb), "check"]) == 2
    assert capsys.readouterr() == ("", (
        "error: unsupported-rule: check_mine needs one format literal whose "
        "variables a positive body literal binds\n"))


def test_query_multiple_kb_files(flr_file, tmp_path, capsys):
    extra = tmp_path / "extra.flr"
    extra.write_text("pinot3:RedWine.\n")
    assert main(["query", flr_file, str(extra), "is", "pinot3", "Wine"]) == 0
    assert capsys.readouterr().out == "true\n"


@pytest.mark.parametrize("name", ["''", ""])
def test_query_empty_name_is_the_empty_string(name, tmp_path, capsys):
    src = tmp_path / "kb.flr"
    src.write_text("a:C.\na[p -> ''].\n")
    assert main(["query", str(src), "is", "a", name]) == 0
    assert capsys.readouterr().out == "false\n"
    assert main(["query", str(src), "classes-of", name]) == 0
    assert capsys.readouterr().out == "_object\n"


def test_query_takes_back_the_names_it_prints(tmp_path, capsys):
    src = tmp_path / "kb.flr"
    src.write_text("'it\\'s':C.\n'a\\\\b':C.\n")
    assert main(["query", str(src), "instances", "C"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["'a\\\\b'", "'it\\'s'"]
    for name in printed:
        assert main(["query", str(src), "is", name, "C"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("true\n", "")


PRINTED_ALIKE_OWL = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns="http://example.org/t#"
         xml:base="http://example.org/t">
  <owl:Class rdf:about="#C">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="#hasCode"/>
        <owl:allValuesFrom rdf:resource="#D"/>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
  <C rdf:about="#x">
    <hasCode>a b</hasCode>
    <hasCode rdf:datatype="http://other.org/t#code">a b</hasCode>
  </C>
</rdf:RDF>
"""


def test_query_answers_that_print_alike(tmp_path, capsys):
    """Answers are told apart by their printed form, as they always were: of
    a symbol and a string that both print 'a b' the first solution is kept;
    equal symbols that print apart (quoted or not) are both kept; and a
    listing takes each printed form's term from the last kept solution."""
    from owlfl.engine import collect_set, load_program, query_goal
    from owlfl.flogic import (
        FlIsA, FlLiteralTerm, FlPred, FlProgram, FlSymbol, FlUnion, FlVariable,
        fact, print_term)
    from _helpers import atom
    sym, lit = FlSymbol("a b", quoted=True), FlLiteralTerm("a b")
    u, v = FlSymbol("u"), FlSymbol("v")
    kb = load_program(FlProgram(tuple(map(fact, (
        FlIsA(sym, atom("C1")), FlIsA(lit, atom("D1")),
        FlPred("r", (sym, u)), FlPred("r", (lit, v)),
        FlIsA(FlSymbol("abc", quoted=True), atom("C2")),
        FlIsA(FlSymbol("abc"), atom("D2")))))))
    x, y = FlVariable("X"), FlVariable("Y")

    def either(a, b):
        return FlIsA(x, FlUnion(atom(a), atom(b)))

    def rows(goal):
        return [{k: repr(t) for k, t in b.items()}
                for b in query_goal(kb, goal)]

    def listed(var, goal):
        return [repr(t) for t in collect_set(kb, var, goal)]

    assert rows(either("C1", "D1")) == [{"X": repr(sym)}]
    assert listed("X", either("C1", "D1")) == [repr(sym)]
    assert rows(either("D1", "C1")) == [{"X": repr(lit)}]
    assert listed("X", either("D1", "C1")) == [repr(lit)]
    joined = [either("C1", "D1"), FlPred("r", (x, y))]
    assert rows(joined) == [{"X": repr(sym), "Y": repr(u)},
                            {"X": repr(lit), "Y": repr(v)}]
    assert listed("X", joined) == [repr(lit)]
    assert listed("Y", joined) == [repr(u), repr(v)]
    assert [print_term(t) for t in collect_set(kb, "X", either("C2", "D2"))] \
        == ["'abc'", "abc"]
    assert rows(either("C2", "D2")) == [{"X": repr(FlSymbol("abc", True))},
                                        {"X": repr(FlSymbol("abc"))}]
    src = tmp_path / "kb.owl"
    src.write_text(PRINTED_ALIKE_OWL)
    warning = ("warning: unknown-type: no builtin mapping for type "
               "'http://other.org/t#code'\n")
    for cls, out in [("D", "'a b'\n"), ("_object", "'a b'\nx\n")]:
        assert main(["query", str(src), "instances", cls]) == 0
        assert capsys.readouterr() == (out, warning)


def test_query_unknown_name_warns_and_exits_0(flr_file, capsys):
    assert main(["query", flr_file, "is", "merlot7", "Beer"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "false\n"
    assert "unknown-name" in captured.err
    assert main(["query", flr_file, "instances", "Beer"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown-name" in captured.err


def test_query_name_of_a_rule_is_known(tmp_path, capsys):
    """``D`` occurs only in the rules that ``D ≡ A ⊓ B ⊓ (C ⊔ E)`` lowers
    to, so asking about it warns of nothing."""
    kb = _owl(tmp_path, '<owl:Class rdf:about="#D"><owl:equivalentClass>'
              '<owl:Class><owl:intersectionOf rdf:parseType="Collection">'
              '<owl:Class rdf:about="#A"/><owl:Class rdf:about="#B"/>'
              '<owl:Class><owl:unionOf rdf:parseType="Collection">'
              '<owl:Class rdf:about="#C"/><owl:Class rdf:about="#E"/>'
              '</owl:unionOf></owl:Class></owl:intersectionOf></owl:Class>'
              '</owl:equivalentClass></owl:Class>'
              '<A rdf:about="#a"/><B rdf:about="#a"/>')
    lowered = ("warning: complex-operand: non-named intersection operand: no "
               "membership rule for it and no rule deriving the defined "
               "class\n")
    for query, out in [(["is", "a", "D"], "false\n"), (["instances", "D"], ""),
                       (["instances", "_object"], "a\n")]:
        assert main(["query", kb, *query]) == 0
        assert capsys.readouterr() == (out, lowered)


def test_query_name_of_an_equivalence_only_is_known(tmp_path, capsys):
    """``E`` occurs only in the equivalence ``D ≡ A ⊓ B ⊓ (C ⊔ E)``, which
    adds no fact and lowers to no rule naming it; asking about it warns of
    nothing but the lowering."""
    kb = _owl(tmp_path, '<owl:Class rdf:about="#D"><owl:equivalentClass>'
              '<owl:Class><owl:intersectionOf rdf:parseType="Collection">'
              '<owl:Class rdf:about="#A"/><owl:Class rdf:about="#B"/>'
              '<owl:Class><owl:unionOf rdf:parseType="Collection">'
              '<owl:Class rdf:about="#C"/><owl:Class rdf:about="#E"/>'
              '</owl:unionOf></owl:Class></owl:intersectionOf></owl:Class>'
              '</owl:equivalentClass></owl:Class><A rdf:about="#a"/>')
    lowered = ("warning: complex-operand: non-named intersection operand: no "
               "membership rule for it and no rule deriving the defined "
               "class\n")
    for query, out in [(["instances", "E"], ""), (["is", "a", "E"], "false\n"),
                       (["instances", "C"], "")]:
        assert main(["query", kb, *query]) == 0
        assert capsys.readouterr() == (out, lowered)
    assert main(["query", kb, "instances", "F"]) == 0
    assert capsys.readouterr() == (
        "", lowered + "warning: unknown-name: F does not occur in the KB\n")


def test_query_name_check_reads_no_more_tuples_in_a_larger_kb(capsys):
    """Checking the asked names of a query reads as many stored tuples from
    a 960-class KB as from a 60-class one; a class, an individual, a
    property and ``_object`` are known, and an absent name is not."""
    reads = []

    class Counted(set):
        def __iter__(self):
            for t in set.__iter__(self):
                reads.append(t)
                yield t

    counts = []
    for n in (60, 960):
        made = gen.mixed_kb(random.Random(n), n, 2 * n, plant=False)
        kb = load_program(translate_ontology(parse_document(made.text)[0])[0])
        store = kb.store
        for rel in store.relations.values():
            rel.facts = Counted(rel.facts)
        store.isa, store.sub, store.attr = (
            store.relations[k].facts for k in ("isa", "sub", "attr"))
        reads.clear()
        for name in (made.classes[-1], made.individuals[-1], "part",
                     "_object"):
            assert not _warn_unknown(kb, [FlSymbol(name)])
        assert _warn_unknown(kb, [FlSymbol("absent")])
        counts.append(len(reads))
    assert counts[0] == counts[1] <= 1
    assert capsys.readouterr().err == 2 * (
        "warning: unknown-name: absent does not occur in the KB\n")


def test_query_missing_verb_exits_2(flr_file, capsys):
    assert main(["query", flr_file]) == 2
    assert "bad-arguments" in capsys.readouterr().err


def test_query_wrong_arity_exits_2(flr_file, capsys):
    assert main(["query", flr_file, "is", "merlot7"]) == 2


# --- insert ------------------------------------------------------------------


def test_insert_reports_derived_fact_count(flr_file, capsys):
    assert main(["insert", flr_file, "gamay1:RedWine"]) == 0
    # gamay1:RedWine plus inherited Wine/PotableLiquid/ConsumableThing
    # and _object membership
    assert capsys.readouterr().out == "5\n"


def test_insert_duplicate_counts_zero(flr_file, capsys):
    assert main(["insert", flr_file, "merlot7:RedWine."]) == 0
    assert capsys.readouterr().out == "0\n"


def test_insert_non_ground_exits_2(flr_file, capsys):
    assert main(["insert", flr_file, "?X:RedWine"]) == 2
    assert "non-ground" in capsys.readouterr().err


def test_insert_rule_rejected(flr_file, capsys):
    assert main(["insert", flr_file, "?X:A :- ?X:B"]) == 2


def test_insert_closing_a_negation_cycle_exits_2(tmp_path, capsys):
    src = tmp_path / "kb.flr"
    src.write_text("a:c.\n?X:f :- ?X:c, \\naf ?X:d.\n?X:e :- ?X:f.\n")
    assert main(["insert", str(src), "e::d"]) == 2
    captured = capsys.readouterr()
    assert "non-stratified-program" in captured.err and captured.out == ""


# --- the top class -----------------------------------------------------------


THING = "http://www.w3.org/2002/07/owl#Thing"
UNION_AB = ('<owl:Class><owl:unionOf rdf:parseType="Collection">'
            '<owl:Class rdf:about="#A"/><owl:Class rdf:about="#B"/>'
            '</owl:unionOf></owl:Class>')


def _owl(tmp_path, body, name="kb.owl"):
    path = tmp_path / name
    path.write_text(OWL_DOC.split("  <owl:Class")[0] + body + "\n</rdf:RDF>\n")
    return str(path)


def _vacuous(kind, prop):
    return ("warning: vacuous-axiom: owl:Thing as a {0} restricts nothing "
            "and lowers as none: {1}(property=Iri(value='http://example.org/"
            "wine#{2}'), cls=Iri(value='{3}'))\n").format(
                kind, kind.capitalize(), prop, THING)


def test_range_thing_holds_of_every_value(tmp_path, capsys):
    kb = _owl(tmp_path, f'<owl:ObjectProperty rdf:about="#p">'
              f'<rdfs:range rdf:resource="{THING}"/></owl:ObjectProperty>'
              '<owl:Thing rdf:about="#x"><p rdf:resource="#y"/></owl:Thing>')
    assert main(["check", kb]) == 0
    assert capsys.readouterr() == ("", _vacuous("range", "p"))


def test_domain_thing_keeps_the_range_checked(tmp_path, capsys):
    kb = _owl(tmp_path, f'<owl:ObjectProperty rdf:about="#p">'
              f'<rdfs:domain rdf:resource="{THING}"/>'
              '<rdfs:range rdf:resource="#R"/></owl:ObjectProperty>'
              '<owl:Thing rdf:about="#x"><p rdf:resource="#y"/></owl:Thing>')
    assert main(["check", kb]) == 1
    assert capsys.readouterr() == (
        "[OWL2FLORA] signature range violation: x.p value y is not in class "
        "R\n", _vacuous("domain", "p"))


def test_compound_somevaluesfrom_filler_is_any_thing(tmp_path, capsys):
    kb = _owl(tmp_path, '<owl:Class rdf:about="#C"><rdfs:subClassOf>'
              '<owl:Restriction><owl:onProperty rdf:resource="#p"/>'
              f'<owl:someValuesFrom>{UNION_AB}</owl:someValuesFrom>'
              '</owl:Restriction></rdfs:subClassOf></owl:Class>'
              '<C rdf:about="#x"><p rdf:resource="#y"/></C><A rdf:about="#y"/>')
    assert main(["check", kb]) == 0
    assert capsys.readouterr() == ("", "warning: complex-operand: "
                                   "someValuesFrom filler flattened to class "
                                   "expression\n")


def test_base_object_iri_is_a_class_of_its_own(tmp_path, capsys):
    kb = _owl(tmp_path, '<owl:Class rdf:about="#_object">'
              '<rdfs:subClassOf rdf:resource="#C"/></owl:Class>'
              '<C rdf:about="#x"/><D rdf:about="#y"/>')
    out = tmp_path / "kb.flr"
    assert main(["translate", "--from", "owl", "--to", "flora", kb,
                 "-o", str(out), "--no-checkers"]) == 0
    assert "'http://example.org/wine#_object'::C.\n" in out.read_text()
    assert main(["query", kb, "instances", "C"]) == 0
    assert capsys.readouterr().out == "x\n"


def test_instances_of_every_thing(tmp_path, capsys):
    kb = _owl(tmp_path, '<owl:Class rdf:about="#B">'
              f'<rdfs:subClassOf rdf:resource="{THING}"/></owl:Class>'
              '<B rdf:about="#x"/><C rdf:about="#y"/>')
    assert main(["query", kb, "instances", "_object"]) == 0
    assert capsys.readouterr() == ("x\ny\n", "")
    assert main(["query", kb, "instances", "owl:Thing"]) == 0
    assert capsys.readouterr() == (
        "", "warning: unknown-name: owl:Thing does not occur in the KB\n")


def test_object_is_written_as_owl_thing(tmp_path, capsys):
    src = tmp_path / "kb.flr"
    src.write_text("?X:A :- ?X:_object.\nB::_object.\n")
    out = tmp_path / "kb.owl"
    assert main(["translate", "--from", "flora", "--to", "owl", str(src),
                 "-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    text = out.read_text()
    assert f'<owl:Class rdf:about="{THING}">\n' \
        '    <rdfs:subClassOf rdf:resource="#A"/>' in text
    assert f'<rdfs:subClassOf rdf:resource="{THING}"/>' in text
    assert "#_object" not in text


def _definition(outer, inner):
    """``D ≡ A ⋆ B ⋆ (C ⋄ E)``, ⋆ and ⋄ named by their OWL tags, with ``a``
    a member of ``A`` and of ``B``."""
    ops = "".join(f'<owl:Class rdf:about="#{c}"/>' for c in "AB")
    compound = (f'<owl:Class><owl:{inner} rdf:parseType="Collection">'
                '<owl:Class rdf:about="#C"/><owl:Class rdf:about="#E"/>'
                f'</owl:{inner}></owl:Class>')
    return (f'<owl:Class rdf:about="#D"><owl:equivalentClass><owl:Class>'
            f'<owl:{outer} rdf:parseType="Collection">{ops}{compound}'
            f'</owl:{outer}></owl:Class></owl:equivalentClass></owl:Class>'
            '<A rdf:about="#a"/><B rdf:about="#a"/>')


def test_intersection_with_a_compound_operand_needs_it(tmp_path, capsys):
    """A member of ``A`` and ``B`` is not a ``D ≡ A ⊓ B ⊓ (C ⊔ E)``."""
    kb = _owl(tmp_path, _definition("intersectionOf", "unionOf"))
    assert main(["query", kb, "is", "a", "D"]) == 0
    out, err = capsys.readouterr()
    assert out == "false\n"
    assert err.startswith("warning: complex-operand: non-named intersection "
                          "operand: no membership rule for it and no rule "
                          "deriving the defined class\n")


def test_union_with_a_compound_operand_has_no_case_rules(tmp_path, capsys):
    """``D ≡ A ⊔ B ⊔ (C ⊓ E)`` keeps ``A ⊑ D`` and ``B ⊑ D``, and puts no
    member of ``D`` into an operand by cases."""
    kb = _owl(tmp_path, _definition("unionOf", "intersectionOf"))
    out = tmp_path / "kb.flr"
    assert main(["translate", "--from", "owl", "--to", "flora", kb,
                 "-o", str(out), "--no-checkers"]) == 0
    assert capsys.readouterr().err == (
        "warning: complex-operand: non-named union operand: no membership "
        "rule for it and no case rules\n")
    assert "?X:D :- ?X:A.\n?X:D :- ?X:B.\n" in out.read_text()
    assert "\\naf" not in out.read_text()
    assert main(["query", kb, "is", "a", "D"]) == 0
    assert capsys.readouterr().out == "true\n"


@pytest.mark.parametrize("outer, inner, kind", [
    ("intersectionOf", "unionOf", "IntersectionOf"),
    ("unionOf", "intersectionOf", "UnionOf")], ids=["intersection", "union"])
def test_definition_with_a_compound_operand_round_trips(outer, inner, kind,
                                                         tmp_path, capsys):
    from owlfl import owl_model as om
    from owlfl.owl_parser import parse_document

    kb = _owl(tmp_path, _definition(outer, inner))
    mid, back = tmp_path / "mid.flr", tmp_path / "back.owl"
    assert main(["translate", "--from", "owl", "--to", "flora", kb,
                 "-o", str(mid)]) == 0
    capsys.readouterr()
    assert main(["translate", "--from", "flora", "--to", "owl", str(mid),
                 "-o", str(back)]) == 0
    assert capsys.readouterr() == ("", "")
    doc, diags = parse_document(back.read_text())
    assert not diags
    named = {c: om.Named(om.Iri(f"http://example.org/wine#{c}"))
             for c in "ABCDE"}
    compound = getattr(om, {"unionOf": "UnionOf",
                            "intersectionOf": "IntersectionOf"}[inner])
    assert om.EquivalentClass(named["D"], getattr(om, kind)((
        named["A"], named["B"], compound((named["C"], named["E"]))))) \
        in doc.class_axioms
