"""The value semantics of every AST, model and result node class.

Each frozen node equals a node of the same class with equal fields, hashes
as the tuple of its compared fields, prints as ``Name(field=value, ...)``,
refuses assignment and never equals a node of another class with the same
fields.  ``FlPred.quoted`` is presentation only, left out of equality and
hash.  ``OntologyDocument`` and ``FlProgram`` are mutable and unhashable.
"""

import inspect
import itertools

import pytest

from owlfl import diagnostics, engine, fl_to_owl, flogic, owl_model as om
from owlfl import owl_to_fl
from owlfl.diagnostics import Diagnostic
from owlfl.engine import ConstraintViolation, Stratification
from owlfl.fl_to_owl import TemplateMatch
from owlfl.flogic import (
    Atom, FlAttrValue, FlDifference, FlEquiv, FlFormat, FlIntersection, FlIsA,
    FlList, FlLiteralTerm, FlMember, FlNaf, FlNeq, FlPred, FlProgram, FlRule,
    FlSignature, FlSubClass, FlSymbol, FlUnion, FlVariable,
)
from owlfl.owl_to_fl import TranslationOptions

I1, I2 = om.Iri("http://e.org/o#a"), om.Iri("http://e.org/o#b")
I1_R = "Iri(value='http://e.org/o#a')"
I2_R = "Iri(value='http://e.org/o#b')"
N1, N2 = om.Named(I1), om.Named(I2)
N1_R, N2_R = f"Named(iri={I1_R})", f"Named(iri={I2_R})"
S, T = FlSymbol("s"), FlSymbol("t", quoted=True)
S_R = "FlSymbol(name='s', quoted=False)"
T_R = "FlSymbol(name='t', quoted=True)"
X = FlVariable("X")
X_R = "FlVariable(name='X')"
A, B = Atom(S), Atom(T)
A_R, B_R = f"Atom(term={S_R})", f"Atom(term={T_R})"
ISA = FlIsA(X, A)
ISA_R = f"FlIsA(obj={X_R}, cls={A_R})"

# class -> the field (name, value) pairs of one instance, and its repr
CASES = [
    (om.Iri, [("value", "http://e.org/o#a")], I1_R),
    (om.OwlLiteral, [("lexical", "7"), ("type_tag", "_integer")],
     "OwlLiteral(lexical='7', type_tag='_integer')"),
    (om.Named, [("iri", I1)], N1_R),
    (om.UnionOf, [("operands", (N1, N2))], f"UnionOf(operands=({N1_R}, {N2_R}))"),
    (om.IntersectionOf, [("operands", (N1, N2))],
     f"IntersectionOf(operands=({N1_R}, {N2_R}))"),
    (om.ComplementOf, [("operand", N1)], f"ComplementOf(operand={N1_R})"),
    (om.OneOf, [("individuals", (I1,))], f"OneOf(individuals=({I1_R},))"),
    (om.AllValuesFrom, [("filler", N1)], f"AllValuesFrom(filler={N1_R})"),
    (om.SomeValuesFrom, [("filler", N1)], f"SomeValuesFrom(filler={N1_R})"),
    (om.HasValue, [("value", I1)], f"HasValue(value={I1_R})"),
    (om.MaxCardinality, [("n", 2)], "MaxCardinality(n=2)"),
    (om.MinCardinality, [("n", 2)], "MinCardinality(n=2)"),
    (om.ExactCardinality, [("n", 2)], "ExactCardinality(n=2)"),
    (om.Restriction, [("property", I1), ("kind", om.MaxCardinality(1))],
     f"Restriction(property={I1_R}, kind=MaxCardinality(n=1))"),
    (om.SubClassOf, [("sub", N1), ("super", N2)],
     f"SubClassOf(sub={N1_R}, super={N2_R})"),
    (om.EquivalentClass, [("a", N1), ("b", N2)],
     f"EquivalentClass(a={N1_R}, b={N2_R})"),
    (om.DisjointWith, [("a", I1), ("b", I2)], f"DisjointWith(a={I1_R}, b={I2_R})"),
    (om.Domain, [("property", I1), ("cls", I2)],
     f"Domain(property={I1_R}, cls={I2_R})"),
    (om.Range, [("property", I1), ("cls", I2)], f"Range(property={I1_R}, cls={I2_R})"),
    (om.SubPropertyOf, [("sub", I1), ("super", I2)],
     f"SubPropertyOf(sub={I1_R}, super={I2_R})"),
    (om.EquivalentProperty, [("a", I1), ("b", I2)],
     f"EquivalentProperty(a={I1_R}, b={I2_R})"),
    (om.InverseOf, [("a", I1), ("b", I2)], f"InverseOf(a={I1_R}, b={I2_R})"),
    (om.Characteristic, [("property", I1), ("kind", om.TRANSITIVE)],
     f"Characteristic(property={I1_R}, kind='transitive')"),
    (om.ClassAssertion, [("individual", I1), ("cls", I2)],
     f"ClassAssertion(individual={I1_R}, cls={I2_R})"),
    (om.PropertyAssertion,
     [("subject", I1), ("property", I2), ("object", om.OwlLiteral("x"))],
     f"PropertyAssertion(subject={I1_R}, property={I2_R}, "
     f"object=OwlLiteral(lexical='x', type_tag='_string'))"),
    (FlVariable, [("name", "X")], X_R),
    (FlLiteralTerm, [("value", "1"), ("type_tag", "_integer")],
     "FlLiteralTerm(value='1', type_tag='_integer')"),
    (FlList, [("elements", (S, X))], f"FlList(elements=({S_R}, {X_R}))"),
    (Atom, [("term", S)], A_R),
    (FlUnion, [("a", A), ("b", B)], f"FlUnion(a={A_R}, b={B_R})"),
    (FlIntersection, [("a", A), ("b", B)], f"FlIntersection(a={A_R}, b={B_R})"),
    (FlDifference, [("a", A), ("b", B)], f"FlDifference(a={A_R}, b={B_R})"),
    (FlIsA, [("obj", X), ("cls", A)], ISA_R),
    (FlSubClass, [("sub", A), ("super", B)], f"FlSubClass(sub={A_R}, super={B_R})"),
    (FlEquiv, [("a", A), ("b", B)], f"FlEquiv(a={A_R}, b={B_R})"),
    (FlAttrValue, [("obj", X), ("prop", S), ("value", T)],
     f"FlAttrValue(obj={X_R}, prop={S_R}, value={T_R})"),
    (FlSignature, [("cls", A), ("prop", S), ("range", B), ("card", (0, None)),
                   ("via", A)],
     f"FlSignature(cls={A_R}, prop={S_R}, range={B_R}, card=(0, None), "
     f"via={A_R})"),
    (FlPred, [("name", "p"), ("args", (S,)), ("quoted", True)],
     f"FlPred(name='p', args=({S_R},), quoted=True)"),
    (FlNaf, [("inner", (ISA,)), ("style", "not")],
     f"FlNaf(inner=({ISA_R},), style='not')"),
    (FlMember, [("item", X), ("collection", S)],
     f"FlMember(item={X_R}, collection={S_R})"),
    (FlNeq, [("a", X), ("b", S)], f"FlNeq(a={X_R}, b={S_R})"),
    (FlFormat, [("message", "m ~w"), ("args", (X,))],
     f"FlFormat(message='m ~w', args=({X_R},))"),
    (FlRule, [("head", ISA), ("body", (ISA,))],
     f"FlRule(head={ISA_R}, body=({ISA_R},))"),
    (Diagnostic, [("severity", "warning"), ("code", "c"), ("message", "m"),
                  ("location", (1, 2))],
     "Diagnostic(severity='warning', code='c', message='m', location=(1, 2))"),
    (Stratification, [("strata", ((),))], "Stratification(strata=((),))"),
    (ConstraintViolation, [("checker", "check_x"), ("message", "m")],
     "ConstraintViolation(checker='check_x', message='m')"),
    (TemplateMatch, [("template_id", "t"), ("bindings", (("C", "c"),)),
                     ("consumed", (0,))],
     "TemplateMatch(template_id='t', bindings=(('C', 'c'),), consumed=(0,))"),
    (TranslationOptions, [("emit_checkers", False),
                          ("owl_domain_range_rules", True),
                          ("case_split_rhs_disjunction", False)],
     "TranslationOptions(emit_checkers=False, owl_domain_range_rules=True, "
     "case_split_rhs_disjunction=False)"),
]

MUTABLE = (om.OntologyDocument, FlProgram)

# classes of these modules that are not value nodes
NOT_NODES = {
    "ClassExpression", "RestrictionKind", "ClassAxiom", "PropertyAxiom",
    "Assertion", "FlTerm", "FlClassExpr", "FlLit", "FlSymbol",
    "FlParseError", "EngineError", "Relation", "FactStore", "KnowledgeBase",
    "Context",
}


def _ident(case):
    return case[0].__name__


def _make(cls, fields):
    return cls(*(v for _, v in fields))


def _compared(cls, fields):
    return tuple(v for name, v in fields
                 if not (cls is FlPred and name == "quoted"))


def test_every_node_class_has_a_case():
    covered = {cls for cls, _, _ in CASES} | set(MUTABLE)
    for mod in (om, flogic, diagnostics, engine, fl_to_owl, owl_to_fl):
        for name, cls in vars(mod).items():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__ and \
                    not name.startswith("_") and name not in NOT_NODES:
                assert cls in covered, f"{mod.__name__}.{name} has no case"


@pytest.mark.parametrize("case", CASES, ids=_ident)
def test_equal_fields_equal_nodes(case):
    cls, fields, _ = case
    a, b = _make(cls, fields), _make(cls, fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_compared(cls, fields))
    assert len({a, b}) == 1
    for name, value in fields:
        assert getattr(a, name) == value


@pytest.mark.parametrize("case", CASES, ids=_ident)
def test_repr(case):
    cls, fields, text = case
    assert repr(_make(cls, fields)) == text


@pytest.mark.parametrize("case", CASES, ids=_ident)
def test_frozen(case):
    cls, fields, _ = case
    node = _make(cls, fields)
    name, value = fields[0]
    with pytest.raises(AttributeError):
        setattr(node, name, value)
    with pytest.raises(AttributeError):
        delattr(node, name)
    assert getattr(node, name) == value


def test_same_fields_other_class_unequal():
    groups = [
        ((om.MaxCardinality, om.MinCardinality, om.ExactCardinality), (2,)),
        ((om.UnionOf, om.IntersectionOf), ((N1, N2),)),
        ((om.AllValuesFrom, om.SomeValuesFrom, om.ComplementOf), (N1,)),
        ((om.SubClassOf, om.EquivalentClass), (N1, N2)),
        ((om.DisjointWith, om.Domain, om.Range, om.SubPropertyOf,
          om.EquivalentProperty, om.InverseOf, om.ClassAssertion), (I1, I2)),
        ((om.Named, om.HasValue), (I1,)),
        ((FlUnion, FlIntersection, FlDifference, FlSubClass, FlEquiv), (A, B)),
        ((FlMember, FlNeq, FlIsA), (X, S)),
        ((FlVariable, FlFormat), ("X",)),
        ((FlList, Atom), ((S,),)),
    ]
    for classes, args in groups:
        nodes = [cls(*args) for cls in classes]
        for a, b in itertools.combinations(nodes, 2):
            assert a != b and b != a and not a == b, (a, b)


def test_quoted_is_presentation_only():
    a, b = FlPred("p", (S,)), FlPred("p", (S,), True)
    assert a == b and hash(a) == hash(b)
    assert (a.quoted, b.quoted) == (False, True)


def test_defaults_and_keywords():
    assert om.OwlLiteral("x").type_tag == "_string"
    assert FlLiteralTerm("x") == FlLiteralTerm("x", "_string")
    assert FlPred("p") == FlPred("p", (), False)
    assert FlNaf((ISA,)).style == "naf"
    assert FlFormat("m").args == ()
    assert FlRule(ISA).body == () and FlRule(ISA).is_fact
    assert Diagnostic("info", "c", "m").location is None
    sig = FlSignature(A, S, B, via=A)
    assert (sig.card, sig.via) == (None, A)
    assert FlSignature(A, S, B, card=(1, 2)) == FlSignature(A, S, B, (1, 2))
    assert TranslationOptions() == TranslationOptions(True, False, True)
    assert TranslationOptions(case_split_rhs_disjunction=False) == \
        TranslationOptions(True, False, False)
    with pytest.raises(TypeError):
        FlIsA(X)
    with pytest.raises(TypeError):
        FlIsA(X, A, A)
    with pytest.raises(TypeError):
        TranslationOptions(emit_checker=False)


@pytest.mark.parametrize("make, match", [
    (lambda: om.Iri("no-scheme"), "IRI is not absolute"),
    (lambda: om.UnionOf((N1,)), "unionOf needs at least two operands"),
    (lambda: om.IntersectionOf((N1,)),
     "intersectionOf needs at least two operands"),
    (lambda: om.OneOf(()), "oneOf needs at least one individual"),
    (lambda: om.MaxCardinality(-1), "cardinality must be >= 0"),
    (lambda: om.MinCardinality(-1), "cardinality must be >= 0"),
    (lambda: om.ExactCardinality(-1), "cardinality must be >= 0"),
    (lambda: om.Characteristic(I1, "reflexive"),
     "unknown property characteristic: 'reflexive'"),
    (lambda: FlVariable(""), "empty variable name"),
    (lambda: FlSignature(A, S, B, (-1, None)), r"bad cardinality bounds \(-1, None\)"),
    (lambda: FlSignature(A, S, B, (2, 1)), r"bad cardinality bounds \(2, 1\)"),
    (lambda: FlNaf(()), "empty naf"),
    (lambda: FlNaf((FlNaf((ISA,)),)), "naf may not directly wrap naf"),
    (lambda: FlRule(FlNeq(X, S)), "bad rule head: FlNeq"),
    (lambda: Diagnostic("fatal", "c", "m"), "bad severity: 'fatal'"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_validation(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_mutable_documents():
    doc = om.OntologyDocument()
    assert repr(doc) == ("OntologyDocument(prefixes={}, class_axioms=[], "
                         "property_axioms=[], assertions=[])")
    doc.class_axioms.append(om.SubClassOf(N1, N2))
    assert om.OntologyDocument().class_axioms == []  # no shared default
    assert doc != om.OntologyDocument()
    assert doc == om.OntologyDocument(class_axioms=[om.SubClassOf(N1, N2)])
    doc.prefixes = {"": "http://e.org/o"}
    assert doc.base == "http://e.org/o"
    prog = FlProgram()
    assert repr(prog) == "FlProgram(rules=(), prefixes={})"
    assert prog == FlProgram((), {"": "http://e.org/o"})  # rules alone count
    assert prog != FlProgram((FlRule(ISA),))
    for value in (doc, prog):
        with pytest.raises(TypeError):
            hash(value)
