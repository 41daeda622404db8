"""Compile an OntologyDocument into an F-logic program.

Each axiom contributes its translation in document order; the generic
checker library is appended at the end.  An inclusion is lowered by one
dispatch (``lower_general_inclusion``), and an equivalence that defines no
class is two inclusions.  ``owl:Thing`` is the top class ``_object``.
Constructs that have no faithful rule translation are reported as
diagnostics instead of being dropped silently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from . import owl_model as om
from .checkers import CHECKER_RULES, SYMMETRIC_RULE, TRANSITIVE_RULE
from .diagnostics import Diagnostic, ERROR, WARNING
from .flogic import (
    Atom, FlAttrValue, FlClassExpr, FlDifference, FlEquiv, FlIntersection,
    FlIsA, FlList, FlLiteralTerm, FlNaf, FlPred, FlProgram, FlRule,
    FlSignature, FlSubClass, FlSymbol, FlTerm, FlUnion, FlVariable, OBJECT,
    fact, left_assoc,
)
from .node import Node
from .owl_parser import THING

OBJ = Atom(OBJECT)
X, Y = FlVariable("X"), FlVariable("Y")  # the variables of every rule


class TranslationOptions(Node):
    __slots__ = ("emit_checkers", "owl_domain_range_rules",
                 "case_split_rhs_disjunction")
    _defaults = (True, False, True)


class _NoClassForm(TypeError):
    """A restriction or enumeration where only a class expression (a name,
    union, intersection or complement) has an F-logic form."""


class Context:
    """Per-translation state: naming, options, one-shot rules."""

    def __init__(self, doc: om.OntologyDocument,
                 opts: Optional[TranslationOptions] = None):
        self.opts = opts or TranslationOptions()
        self.diagnostics: List[Diagnostic] = []
        self.closures: set = set()  # the kinds whose closure rule is emitted
        self.aux_counter = 0
        self.consumed_range_axioms: set = set()
        self.symbols: Dict[str, FlSymbol] = {}  # IRI -> its one symbol
        self.atoms: Dict[str, Atom] = {}        # IRI -> its one class atom
        # (prefix, namespace) pairs that shorten a name, the base ("") first
        self.namespaces = sorted(
            (pfx, om.namespace(ns)) for pfx, ns in doc.prefixes.items())
        # per property, its first Range and its first declared inverse, in
        # document order
        self.ranges: Dict[om.Iri, om.Range] = {}
        self.inverses: Dict[om.Iri, om.Iri] = {}
        for ax in doc.property_axioms:
            if isinstance(ax, om.Range):
                self.ranges.setdefault(ax.property, ax)
            elif isinstance(ax, om.InverseOf):
                self.inverses.setdefault(ax.a, ax.b)
                self.inverses.setdefault(ax.b, ax.a)

    # -- naming

    def symbol(self, iri: om.Iri) -> FlSymbol:
        sym = self.symbols.get(iri.value)
        if sym is None:
            sym = self.symbols[iri.value] = self._new_symbol(iri.value)
        return sym

    def atom(self, iri: om.Iri) -> Atom:
        """The class named ``iri``."""
        a = self.atoms.get(iri.value)
        if a is None:
            a = self.atoms[iri.value] = Atom(self.symbol(iri))
        return a

    def _new_symbol(self, value: str) -> FlSymbol:
        """``_object`` for ``owl:Thing``; ``L`` for ``L`` in the base's
        namespace and ``pfx:L`` for ``L`` in a prefix's (``L`` non-empty, no
        colon, not ``_object``; ``om.namespace``), else the quoted IRI;
        inverse of ``fl_to_owl._Namer.iri``."""
        if value == THING:
            return OBJECT
        for pfx, ns in self.namespaces:
            if value.startswith(ns):
                local = value[len(ns):]
                if local and ":" not in local and local != OBJECT:
                    return FlSymbol(f"{pfx}:{local}" if pfx else local)
        return FlSymbol(value, quoted=True)

    def term(self, value: Union[om.Iri, om.OwlLiteral]) -> FlTerm:
        if isinstance(value, om.Iri):
            return self.symbol(value)
        if value.type_tag in ("_integer", "_double", "_boolean"):
            return FlLiteralTerm(value.lexical, value.type_tag)
        if not value.lexical:  # a symbol needs a name
            return FlLiteralTerm("")
        return FlSymbol(value.lexical, quoted=True)

    def cls_expr(self, expr: om.ClassExpression) -> FlClassExpr:
        if isinstance(expr, om.Named):
            return self.atom(expr.iri)
        if isinstance(expr, om.UnionOf):
            return left_assoc(FlUnion, [self.cls_expr(e) for e in expr.operands])
        if isinstance(expr, om.IntersectionOf):
            return left_assoc(FlIntersection,
                              [self.cls_expr(e) for e in expr.operands])
        if isinstance(expr, om.ComplementOf):
            return FlDifference(OBJ, self.cls_expr(expr.operand))
        raise _NoClassForm(f"no class-expression form for {expr!r}")

    def fresh_aux(self) -> FlSymbol:
        self.aux_counter += 1
        return FlSymbol(f"_lt_aux{self.aux_counter}", quoted=True)

    def warn(self, code: str, message: str):
        self.diagnostics.append(Diagnostic(WARNING, code, message))

    def error(self, code: str, message: str):
        self.diagnostics.append(Diagnostic(ERROR, code, message))


def _is_named(e) -> bool:
    return isinstance(e, om.Named)


# --- class axioms ------------------------------------------------------------


def _case_split(d: Atom, atoms: List[Atom]) -> List[FlRule]:
    """Reasoning by cases for ``D`` in the union of ``atoms``: ``?X:A :-
    ?X:D, \\naf ?X:B, ...`` for each operand A, with B each other operand by
    position, so an operand listed twice negates its twin."""
    return [FlRule(FlIsA(X, a), (FlIsA(X, d),) + tuple(
        FlNaf((FlIsA(X, b),)) for j, b in enumerate(atoms) if j != i))
        for i, a in enumerate(atoms)]


def translate_class_axiom(ax: om.ClassAxiom, ctx: Context) -> List[FlRule]:
    if isinstance(ax, om.SubClassOf):
        if _is_named(ax.sub) and _is_named(ax.super):
            return [fact(FlSubClass(ctx.cls_expr(ax.sub),
                                    ctx.cls_expr(ax.super)))]
        return lower_general_inclusion(ax.sub, ax.super, ctx)
    if isinstance(ax, om.EquivalentClass):
        if _is_named(ax.a) and _is_named(ax.b):
            a, b = ctx.cls_expr(ax.a), ctx.cls_expr(ax.b)
            return [fact(FlEquiv(a, b)),
                    FlRule(FlIsA(X, a), (FlIsA(X, b),)),
                    FlRule(FlIsA(X, b), (FlIsA(X, a),)),
                    FlRule(FlSubClass(Atom(X), a), (FlSubClass(Atom(X), b),)),
                    FlRule(FlSubClass(Atom(X), b), (FlSubClass(Atom(X), a),))]
        if _is_named(ax.a) and isinstance(
                ax.b, (om.UnionOf, om.IntersectionOf, om.ComplementOf, om.OneOf)):
            return translate_class_definition(ax.a.iri, ax.b, ctx)
        # two inclusions, each lowered
        return lower_general_inclusion(ax.a, ax.b, ctx) + \
            lower_general_inclusion(ax.b, ax.a, ctx)
    if isinstance(ax, om.DisjointWith):
        # argument order mirrors the target syntax: object first, subject second
        return [fact(FlPred("disjoint_classes",
                            (ctx.symbol(ax.b), ctx.symbol(ax.a))))]
    ctx.error("unknown-construct", f"unsupported class axiom {ax!r}")
    return []


def translate_class_definition(name: om.Iri, expr: om.ClassExpression,
                               ctx: Context) -> List[FlRule]:
    n = ctx.atom(name)
    if isinstance(expr, om.ComplementOf):
        c = ctx.cls_expr(expr.operand)
        return [fact(FlEquiv(n, FlDifference(OBJ, c))),
                FlRule(FlIsA(X, n), (FlIsA(X, OBJ), FlNaf((FlIsA(X, c),))))]
    if isinstance(expr, om.OneOf):
        members = [ctx.symbol(i) for i in expr.individuals]
        return [fact(FlIsA(m, n)) for m in members] + \
            [fact(FlPred("oneOf", (n.term, FlList(tuple(members)))))]
    # a union or an intersection: its named operands get membership rules
    union = isinstance(expr, om.UnionOf)
    rules = [fact(FlEquiv(n, ctx.cls_expr(expr)))]
    named_ops = [op for op in expr.operands if _is_named(op)]
    if len(named_ops) != len(expr.operands):
        ctx.warn("complex-operand",
                 f"non-named {'union' if union else 'intersection'} operand: "
                 "membership rules omitted")
    atoms = [ctx.atom(op.iri) for op in named_ops]
    if union:
        rules += [FlRule(FlIsA(X, n), (FlIsA(X, a),)) for a in atoms]
        if ctx.opts.case_split_rhs_disjunction and len(atoms) >= 2:
            rules += _case_split(n, atoms)
            ctx.warn("case-split-weakening",
                     "union definition lowered to reasoning by cases; the "
                     "case rules change the semantics")
    elif atoms:
        rules.append(FlRule(FlIsA(X, n), tuple(FlIsA(X, a) for a in atoms)))
        rules += [FlRule(FlIsA(X, a), (FlIsA(X, n),)) for a in atoms]
    return rules


def translate_restriction(cls: om.Iri, r: om.Restriction,
                          ctx: Context) -> List[FlRule]:
    c = ctx.atom(cls)
    p = ctx.symbol(r.property)
    k = r.kind
    if isinstance(k, om.AllValuesFrom):
        f = ctx.cls_expr(k.filler)
        signature = fact(FlSignature(c, p, f, via=OBJ))
        if isinstance(f, Atom):
            return [signature,
                    FlRule(FlIsA(Y, f), (FlIsA(X, c), FlAttrValue(X, p, Y)))]
        # a rule cannot derive membership of a compound class
        ctx.warn("complex-operand",
                 "compound allValuesFrom filler: the signature is a "
                 "constraint only, with no inference rule")
        return [signature]
    if isinstance(k, om.SomeValuesFrom):
        f = ctx.cls_expr(k.filler)
        if not isinstance(f, Atom):
            ctx.warn("complex-operand",
                     "someValuesFrom filler flattened to class expression")
            f = OBJ
        return [fact(FlPred("someValuesFrom", (c.term, p, f.term)))]
    if isinstance(k, om.HasValue):
        return [fact(FlPred("hasValue", (c.term, p, ctx.term(k.value))))]
    if isinstance(k, om.MaxCardinality):
        return [fact(FlSignature(c, p, OBJ, card=(0, k.n)))]
    if isinstance(k, om.MinCardinality):
        return [fact(FlSignature(c, p, OBJ, card=(k.n, None)))]
    if isinstance(k, om.ExactCardinality):
        return [fact(FlSignature(c, p, OBJ, card=(k.n, k.n)))]
    raise TypeError(f"unknown restriction kind: {k!r}")


# --- property axioms ---------------------------------------------------------


# a characteristic a generic rule closes: its predicate and that rule
_CLOSURES = {om.TRANSITIVE: ("TransitiveProperty", TRANSITIVE_RULE),
             om.SYMMETRIC: ("SymmetricProperty", SYMMETRIC_RULE)}


def translate_property_axiom(ax: om.PropertyAxiom, ctx: Context) -> List[FlRule]:
    rules: List[FlRule] = []
    if isinstance(ax, (om.Domain, om.Range)) and ax.cls.value == THING:
        ctx.warn("vacuous-axiom", f"owl:Thing as a {type(ax).__name__.lower()} "
                 f"restricts nothing and lowers as none: {ax!r}")
    if isinstance(ax, om.Domain):
        p = ctx.symbol(ax.property)
        c = ctx.atom(ax.cls)
        rng = OBJ
        other = ctx.ranges.get(ax.property)
        if other is not None:
            rng = ctx.atom(other.cls)
            ctx.consumed_range_axioms.add(id(other))
        rules.append(fact(FlSignature(c, p, rng)))
        if ctx.opts.owl_domain_range_rules:
            rules.append(FlRule(FlIsA(X, c), (FlAttrValue(X, p, Y),)))
            if rng != OBJ:
                rules.append(FlRule(FlIsA(Y, rng), (FlAttrValue(X, p, Y),)))
    elif isinstance(ax, om.Range):
        if id(ax) in ctx.consumed_range_axioms:
            return []
        p = ctx.symbol(ax.property)
        rng = ctx.atom(ax.cls)
        rules.append(fact(FlSignature(OBJ, p, rng)))
        if ctx.opts.owl_domain_range_rules:
            rules.append(FlRule(FlIsA(Y, rng), (FlAttrValue(X, p, Y),)))
    elif isinstance(ax, om.SubPropertyOf):
        p, q = ctx.symbol(ax.sub), ctx.symbol(ax.super)
        rules.append(FlRule(FlAttrValue(X, q, Y), (FlAttrValue(X, p, Y),)))
    elif isinstance(ax, om.EquivalentProperty):
        p, q = ctx.symbol(ax.a), ctx.symbol(ax.b)
        rules.append(FlRule(FlAttrValue(X, p, Y), (FlAttrValue(X, q, Y),)))
        rules.append(FlRule(FlAttrValue(X, q, Y), (FlAttrValue(X, p, Y),)))
    elif isinstance(ax, om.InverseOf):
        p, q = ctx.symbol(ax.a), ctx.symbol(ax.b)
        rules.append(FlRule(FlAttrValue(X, p, Y), (FlAttrValue(Y, q, X),)))
        rules.append(FlRule(FlAttrValue(X, q, Y), (FlAttrValue(Y, p, X),)))
    elif isinstance(ax, om.Characteristic):
        p = ctx.symbol(ax.property)
        if ax.kind == om.FUNCTIONAL:
            rules.append(fact(FlSignature(OBJ, p, OBJ, card=(1, 1))))
        elif ax.kind == om.INVERSE_FUNCTIONAL:
            inverse = ctx.inverses.get(ax.property)
            if inverse is not None:
                rules.append(fact(FlSignature(OBJ, ctx.symbol(inverse), OBJ,
                                              card=(1, 1))))
            else:
                rules.append(fact(FlPred("inverseFunctional", (p,))))
        elif ax.kind in _CLOSURES:
            pred, closure = _CLOSURES[ax.kind]
            rules.append(fact(FlPred(pred, (p,), quoted=True)))
            if ax.kind not in ctx.closures:  # one closure rule per program
                ctx.closures.add(ax.kind)
                rules.append(closure)
    else:
        ctx.error("unknown-construct", f"unsupported property axiom {ax!r}")
    return rules


# --- assertions --------------------------------------------------------------


def translate_assertion(a: om.Assertion, ctx: Context) -> List[FlRule]:
    kind = type(a)
    if kind is om.ClassAssertion:
        return [fact(FlIsA(ctx.symbol(a.individual), ctx.atom(a.cls)))]
    if kind is om.PropertyAssertion:
        return [fact(FlAttrValue(ctx.symbol(a.subject), ctx.symbol(a.property),
                                 ctx.term(a.object)))]
    raise TypeError(f"unknown assertion: {a!r}")


# --- general inclusions ------------------------------------------------------


def _contains_existential(expr: om.ClassExpression) -> bool:
    if isinstance(expr, om.Restriction):
        return isinstance(expr.kind, om.SomeValuesFrom)
    if isinstance(expr, (om.UnionOf, om.IntersectionOf)):
        return any(_contains_existential(e) for e in expr.operands)
    if isinstance(expr, om.ComplementOf):
        return _contains_existential(expr.operand)
    return False


def lower_general_inclusion(sub: om.ClassExpression, sup: om.ClassExpression,
                            ctx: Context) -> List[FlRule]:
    """Lower an inclusion where at least one side is not a named class:
    a named class under a restriction is that restriction's lowering; what
    has no rule form is reported on ``ctx``."""
    if _is_named(sub) and isinstance(sup, om.Restriction):
        return translate_restriction(sub.iri, sup, ctx)
    # existentials in subsumer position have no rule form
    if isinstance(sub, om.Restriction) and isinstance(sub.kind, om.SomeValuesFrom):
        ctx.error("untranslatable-existential",
                  "existential restriction in a general inclusion has no "
                  "rule translation")
        return []
    if _contains_existential(sup) and not _is_named(sub):
        ctx.error("untranslatable-existential",
                  "existential restriction in the subsuming set cannot be "
                  "translated")
        return []

    # union on the left: one Horn rule per disjunct
    if isinstance(sub, om.UnionOf) and _is_named(sup):
        d = ctx.atom(sup.iri)
        if all(_is_named(op) for op in sub.operands):
            return [FlRule(FlIsA(X, d), (FlIsA(X, ctx.atom(op.iri)),))
                    for op in sub.operands]
    # intersection on the left: conjunctive body
    if isinstance(sub, om.IntersectionOf) and _is_named(sup) and \
            all(_is_named(op) for op in sub.operands):
        d = ctx.atom(sup.iri)
        body = tuple(FlIsA(X, ctx.atom(op.iri)) for op in sub.operands)
        return [FlRule(FlIsA(X, d), body)]
    # enumeration on the left: membership facts
    if isinstance(sub, om.OneOf) and _is_named(sup):
        d = ctx.atom(sup.iri)
        return [fact(FlIsA(ctx.symbol(i), d)) for i in sub.individuals]
    # complement on the left
    if isinstance(sub, om.ComplementOf) and _is_named(sub.operand) and \
            _is_named(sup):
        d = ctx.atom(sup.iri)
        c = ctx.atom(sub.operand.iri)
        return [FlRule(FlIsA(X, d), (FlIsA(X, OBJ), FlNaf((FlIsA(X, c),))))]
    # universal restriction on the left: Lloyd-Topor with an auxiliary
    if isinstance(sub, om.Restriction) and \
            isinstance(sub.kind, om.AllValuesFrom) and _is_named(sup):
        f = ctx.cls_expr(sub.kind.filler)
        p = ctx.symbol(sub.property)
        d = ctx.atom(sup.iri)
        aux = ctx.fresh_aux()
        return [
            FlRule(FlPred(aux.name, (X,), quoted=True),
                   (FlAttrValue(X, p, Y), FlNaf((FlIsA(Y, f),)))),
            FlRule(FlIsA(X, d),
                   (FlIsA(X, OBJ), FlNaf((FlPred(aux.name, (X,), quoted=True),)))),
        ]
    # union on the right: reasoning by cases
    if isinstance(sup, om.UnionOf) and _is_named(sub) and \
            all(_is_named(op) for op in sup.operands):
        if not ctx.opts.case_split_rhs_disjunction:
            ctx.error("untranslatable-disjunction",
                      "disjunction in the subsuming set; case splitting is "
                      "disabled")
            return []
        rules = _case_split(ctx.atom(sub.iri),
                            [ctx.atom(op.iri) for op in sup.operands])
        ctx.warn("case-split-weakening",
                 "right-hand-side disjunction lowered to reasoning by cases; "
                 "the case rules change the semantics")
        return rules
    # intersection on the right: the head conjunction splits
    if isinstance(sup, om.IntersectionOf) and _is_named(sub) and \
            all(_is_named(op) for op in sup.operands):
        d = ctx.atom(sub.iri)
        return [FlRule(FlIsA(X, ctx.atom(op.iri)), (FlIsA(X, d),))
                for op in sup.operands]

    ctx.error("untranslatable-construct",
              f"no lowering for the inclusion {sub!r} <= {sup!r}")
    return []


# --- whole documents ---------------------------------------------------------


def translate_ontology(doc: om.OntologyDocument,
                       opts: Optional[TranslationOptions] = None
                       ) -> Tuple[FlProgram, List[Diagnostic]]:
    ctx = Context(doc, opts)
    rules: List[FlRule] = []
    for ax in doc.class_axioms:
        try:
            rules.extend(translate_class_axiom(ax, ctx))
        except _NoClassForm as e:
            ctx.error("untranslatable-construct", f"{e} in the axiom {ax!r}")
    for ax in doc.property_axioms:
        rules.extend(translate_property_axiom(ax, ctx))
    for a in doc.assertions:
        rules.extend(translate_assertion(a, ctx))
    if ctx.opts.emit_checkers:
        rules.extend(CHECKER_RULES)
    return FlProgram(tuple(rules), dict(doc.prefixes)), ctx.diagnostics
