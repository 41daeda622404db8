"""Compile an OntologyDocument into an F-logic program.

Each axiom contributes its translation in document order; the generic
checker library is appended at the end.  Constructs that have no faithful
rule translation are reported as diagnostics instead of being dropped
silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from . import owl_model as om
from .checkers import CHECKER_RULES
from .diagnostics import Diagnostic, ERROR, WARNING
from .flogic import (
    Atom, FlAttrValue, FlClassExpr, FlDifference, FlEquiv, FlIntersection,
    FlIsA, FlList, FlLiteralTerm, FlNaf, FlPred, FlProgram, FlRule,
    FlSignature, FlSubClass, FlSymbol, FlTerm, FlUnion, FlVariable, fact,
    left_assoc, parse_rules,
)

OBJ = Atom(FlSymbol("_object"))

# the generic closure rules of transitive and symmetric properties, emitted
# once per program, after the first property of their kind
TRANSITIVE_RULE, SYMMETRIC_RULE = parse_rules(r"""
?X[?P -> ?Z] :- 'TransitiveProperty'(?P), ?X[?P -> ?Y], ?Y[?P -> ?Z].
?X[?P -> ?Y] :- 'SymmetricProperty'(?P), ?Y[?P -> ?X].
""")


@dataclass(frozen=True)
class TranslationOptions:
    emit_checkers: bool = True
    owl_domain_range_rules: bool = False
    case_split_rhs_disjunction: bool = True


class _NoClassForm(TypeError):
    """A restriction or enumeration where only a class expression (a name,
    union, intersection or complement) has an F-logic form."""


class Context:
    """Per-translation state: naming, options, one-shot rules."""

    def __init__(self, doc: Optional[om.OntologyDocument] = None,
                 opts: Optional[TranslationOptions] = None):
        self.doc = doc
        self.opts = opts or TranslationOptions()
        self.diagnostics: List[Diagnostic] = []
        self.emitted_transitive_rule = False
        self.emitted_symmetric_rule = False
        self.aux_counter = 0
        self.consumed_range_axioms: set = set()
        self.symbols: Dict[str, FlSymbol] = {}  # IRI -> its one symbol
        self.atoms: Dict[str, Atom] = {}        # IRI -> its one class atom
        # (prefix, namespace) pairs that shorten a name, the base ("") first;
        # without a document, an IRI's own namespace is its base
        self.namespaces = None if doc is None else sorted(
            (pfx, om.namespace(ns)) for pfx, ns in doc.prefixes.items())
        # per property, its first Range and its first declared inverse, in
        # document order
        self.ranges: Dict[om.Iri, om.Range] = {}
        self.inverses: Dict[om.Iri, om.Iri] = {}
        for ax in doc.property_axioms if doc is not None else ():
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
        """``L`` for ``L`` in the base's namespace and ``pfx:L`` for ``L``
        in a prefix's (``L`` non-empty, no colon; ``om.namespace``), else
        the quoted IRI; inverse of ``fl_to_owl._Namer.iri``."""
        namespaces = self.namespaces if self.doc is not None \
            else [("", value.rpartition("#")[0] + "#")]
        for pfx, ns in namespaces:
            if value.startswith(ns):
                local = value[len(ns):]
                if local and ":" not in local:
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


def _var(name: str) -> FlVariable:
    return FlVariable(name)


def _is_named(e) -> bool:
    return isinstance(e, om.Named)


# --- class axioms ------------------------------------------------------------


def translate_class_axiom(ax: om.ClassAxiom, ctx: Optional[Context] = None
                          ) -> Tuple[List[FlRule], List[Diagnostic]]:
    ctx = ctx or Context()
    before = len(ctx.diagnostics)
    rules: List[FlRule] = []
    x = _var("X")
    if isinstance(ax, om.SubClassOf):
        if _is_named(ax.sub) and _is_named(ax.super):
            rules.append(fact(FlSubClass(ctx.cls_expr(ax.sub),
                                         ctx.cls_expr(ax.super))))
        elif _is_named(ax.sub) and isinstance(ax.super, om.Restriction):
            rules.extend(translate_restriction(ax.sub.iri, ax.super, ctx))
        else:
            rules.extend(lower_general_inclusion(ax.sub, ax.super, ctx))
    elif isinstance(ax, om.EquivalentClass):
        if _is_named(ax.a) and _is_named(ax.b):
            a = ctx.cls_expr(ax.a)
            b = ctx.cls_expr(ax.b)
            rules.append(fact(FlEquiv(a, b)))
            rules.append(FlRule(FlIsA(x, a), (FlIsA(x, b),)))
            rules.append(FlRule(FlIsA(x, b), (FlIsA(x, a),)))
            rules.append(FlRule(FlSubClass(Atom(x), a), (FlSubClass(Atom(x), b),)))
            rules.append(FlRule(FlSubClass(Atom(x), b), (FlSubClass(Atom(x), a),)))
        elif _is_named(ax.a) and isinstance(
                ax.b, (om.UnionOf, om.IntersectionOf, om.ComplementOf, om.OneOf)):
            rules.extend(translate_class_definition(ax.a.iri, ax.b, ctx))
        else:
            # decompose into two inclusions and lower each
            for sub, sup in ((ax.a, ax.b), (ax.b, ax.a)):
                if _is_named(sub) and isinstance(sup, om.Restriction):
                    rules.extend(translate_restriction(sub.iri, sup, ctx))
                else:
                    rules.extend(lower_general_inclusion(sub, sup, ctx))
    elif isinstance(ax, om.DisjointWith):
        # argument order mirrors the target syntax: object first, subject second
        rules.append(fact(FlPred("disjoint_classes",
                                 (ctx.symbol(ax.b), ctx.symbol(ax.a)))))
    else:
        ctx.error("unknown-construct", f"unsupported class axiom {ax!r}")
    return rules, ctx.diagnostics[before:]


def translate_class_definition(name: om.Iri, expr: om.ClassExpression,
                               ctx: Optional[Context] = None) -> List[FlRule]:
    ctx = ctx or Context()
    n = ctx.atom(name)
    x = _var("X")
    rules: List[FlRule] = []
    if isinstance(expr, om.UnionOf):
        rules.append(fact(FlEquiv(n, ctx.cls_expr(expr))))
        named_ops = [op for op in expr.operands if _is_named(op)]
        if len(named_ops) != len(expr.operands):
            ctx.warn("complex-operand",
                     "non-named union operand: membership rules omitted")
        atoms = [ctx.atom(op.iri) for op in named_ops]
        for a in atoms:
            rules.append(FlRule(FlIsA(x, n), (FlIsA(x, a),)))
        if ctx.opts.case_split_rhs_disjunction and len(atoms) >= 2:
            for i, a in enumerate(atoms):
                nafs = tuple(
                    FlNaf((FlIsA(x, other),))
                    for j, other in enumerate(atoms) if j != i
                )
                rules.append(FlRule(FlIsA(x, a), (FlIsA(x, n),) + nafs))
            ctx.warn("case-split-weakening",
                     "union definition lowered to reasoning by cases; the "
                     "case rules change the semantics")
    elif isinstance(expr, om.IntersectionOf):
        rules.append(fact(FlEquiv(n, ctx.cls_expr(expr))))
        named_ops = [op for op in expr.operands if _is_named(op)]
        if len(named_ops) != len(expr.operands):
            ctx.warn("complex-operand",
                     "non-named intersection operand: membership rules omitted")
        atoms = [ctx.atom(op.iri) for op in named_ops]
        if atoms:
            rules.append(FlRule(FlIsA(x, n), tuple(FlIsA(x, a) for a in atoms)))
            for a in atoms:
                rules.append(FlRule(FlIsA(x, a), (FlIsA(x, n),)))
    elif isinstance(expr, om.ComplementOf):
        c = ctx.cls_expr(expr.operand)
        rules.append(fact(FlEquiv(n, FlDifference(OBJ, c))))
        rules.append(FlRule(FlIsA(x, n), (FlIsA(x, OBJ), FlNaf((FlIsA(x, c),)))))
    elif isinstance(expr, om.OneOf):
        members = [ctx.symbol(i) for i in expr.individuals]
        for m in members:
            rules.append(fact(FlIsA(m, n)))
        rules.append(fact(FlPred("oneOf", (n.term, FlList(tuple(members))))))
    else:
        raise TypeError(f"not a class definition: {expr!r}")
    return rules


def translate_restriction(cls: om.Iri, r: om.Restriction,
                          ctx: Optional[Context] = None) -> List[FlRule]:
    ctx = ctx or Context()
    c = ctx.atom(cls)
    p = ctx.symbol(r.property)
    x, y = _var("X"), _var("Y")
    k = r.kind
    if isinstance(k, om.AllValuesFrom):
        f = ctx.cls_expr(k.filler)
        signature = fact(FlSignature(c, p, f, via=OBJ))
        if isinstance(f, Atom):
            return [signature,
                    FlRule(FlIsA(y, f), (FlIsA(x, c), FlAttrValue(x, p, y)))]
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
        filler_term = f.term if isinstance(f, Atom) else ctx.symbol(
            om.Iri("http://www.w3.org/2002/07/owl#Thing"))
        return [fact(FlPred("someValuesFrom", (c.term, p, filler_term)))]
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


def _inverse_rules(p: FlSymbol, q: FlSymbol) -> List[FlRule]:
    x, y = _var("X"), _var("Y")
    return [
        FlRule(FlAttrValue(x, p, y), (FlAttrValue(y, q, x),)),
        FlRule(FlAttrValue(x, q, y), (FlAttrValue(y, p, x),)),
    ]


def translate_property_axiom(ax: om.PropertyAxiom, ctx: Optional[Context] = None
                             ) -> List[FlRule]:
    ctx = ctx or Context()
    x, y = _var("X"), _var("Y")
    rules: List[FlRule] = []
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
            rules.append(FlRule(FlIsA(x, c), (FlAttrValue(x, p, y),)))
            if rng != OBJ:
                rules.append(FlRule(FlIsA(y, rng), (FlAttrValue(x, p, y),)))
    elif isinstance(ax, om.Range):
        if id(ax) in ctx.consumed_range_axioms:
            return []
        p = ctx.symbol(ax.property)
        rng = ctx.atom(ax.cls)
        rules.append(fact(FlSignature(OBJ, p, rng)))
        if ctx.opts.owl_domain_range_rules:
            rules.append(FlRule(FlIsA(y, rng), (FlAttrValue(x, p, y),)))
    elif isinstance(ax, om.SubPropertyOf):
        p, q = ctx.symbol(ax.sub), ctx.symbol(ax.super)
        rules.append(FlRule(FlAttrValue(x, q, y), (FlAttrValue(x, p, y),)))
    elif isinstance(ax, om.EquivalentProperty):
        p, q = ctx.symbol(ax.a), ctx.symbol(ax.b)
        rules.append(FlRule(FlAttrValue(x, p, y), (FlAttrValue(x, q, y),)))
        rules.append(FlRule(FlAttrValue(x, q, y), (FlAttrValue(x, p, y),)))
    elif isinstance(ax, om.InverseOf):
        rules.extend(_inverse_rules(ctx.symbol(ax.a), ctx.symbol(ax.b)))
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
        elif ax.kind == om.TRANSITIVE:
            rules.append(fact(FlPred("TransitiveProperty", (p,), quoted=True)))
            if not ctx.emitted_transitive_rule:
                ctx.emitted_transitive_rule = True
                rules.append(TRANSITIVE_RULE)
        elif ax.kind == om.SYMMETRIC:
            rules.append(fact(FlPred("SymmetricProperty", (p,), quoted=True)))
            if not ctx.emitted_symmetric_rule:
                ctx.emitted_symmetric_rule = True
                rules.append(SYMMETRIC_RULE)
    else:
        ctx.error("unknown-construct", f"unsupported property axiom {ax!r}")
    return rules


# --- assertions --------------------------------------------------------------


def translate_assertion(a: om.Assertion, ctx: Optional[Context] = None
                        ) -> List[FlRule]:
    ctx = ctx or Context()
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
                            ctx: Optional[Context] = None) -> List[FlRule]:
    """Lower an inclusion where at least one side is not a named class;
    what has no rule form is reported on ``ctx``."""
    ctx = ctx or Context()
    x, y = _var("X"), _var("Y")
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
            return [FlRule(FlIsA(x, d), (FlIsA(x, ctx.atom(op.iri)),))
                    for op in sub.operands]
    # intersection on the left: conjunctive body
    if isinstance(sub, om.IntersectionOf) and _is_named(sup) and \
            all(_is_named(op) for op in sub.operands):
        d = ctx.atom(sup.iri)
        body = tuple(FlIsA(x, ctx.atom(op.iri)) for op in sub.operands)
        return [FlRule(FlIsA(x, d), body)]
    # enumeration on the left: membership facts
    if isinstance(sub, om.OneOf) and _is_named(sup):
        d = ctx.atom(sup.iri)
        return [fact(FlIsA(ctx.symbol(i), d)) for i in sub.individuals]
    # complement on the left
    if isinstance(sub, om.ComplementOf) and _is_named(sub.operand) and \
            _is_named(sup):
        d = ctx.atom(sup.iri)
        c = ctx.atom(sub.operand.iri)
        return [FlRule(FlIsA(x, d), (FlIsA(x, OBJ), FlNaf((FlIsA(x, c),))))]
    # universal restriction on the left: Lloyd-Topor with an auxiliary
    if isinstance(sub, om.Restriction) and \
            isinstance(sub.kind, om.AllValuesFrom) and _is_named(sup):
        f = ctx.cls_expr(sub.kind.filler)
        p = ctx.symbol(sub.property)
        d = ctx.atom(sup.iri)
        aux = ctx.fresh_aux()
        return [
            FlRule(FlPred(aux.name, (x,), quoted=True),
                   (FlAttrValue(x, p, y), FlNaf((FlIsA(y, f),)))),
            FlRule(FlIsA(x, d),
                   (FlIsA(x, OBJ), FlNaf((FlPred(aux.name, (x,), quoted=True),)))),
        ]
    # union on the right: reasoning by cases
    if isinstance(sup, om.UnionOf) and _is_named(sub) and \
            all(_is_named(op) for op in sup.operands):
        if not ctx.opts.case_split_rhs_disjunction:
            ctx.error("untranslatable-disjunction",
                      "disjunction in the subsuming set; case splitting is "
                      "disabled")
            return []
        d = ctx.atom(sub.iri)
        atoms = [ctx.atom(op.iri) for op in sup.operands]
        rules = []
        for i, a in enumerate(atoms):
            nafs = tuple(FlNaf((FlIsA(x, other),))
                         for j, other in enumerate(atoms) if j != i)
            rules.append(FlRule(FlIsA(x, a), (FlIsA(x, d),) + nafs))
        ctx.warn("case-split-weakening",
                 "right-hand-side disjunction lowered to reasoning by cases; "
                 "the case rules change the semantics")
        return rules
    # intersection on the right: the head conjunction splits
    if isinstance(sup, om.IntersectionOf) and _is_named(sub) and \
            all(_is_named(op) for op in sup.operands):
        d = ctx.atom(sub.iri)
        return [FlRule(FlIsA(x, ctx.atom(op.iri)), (FlIsA(x, d),))
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
    covered: set = set()

    def add(axiom, new_rules):
        if new_rules:
            covered.add(id(axiom))
        rules.extend(new_rules)

    for ax in doc.class_axioms:
        try:
            new_rules, _ = translate_class_axiom(ax, ctx)
        except _NoClassForm as e:
            ctx.error("untranslatable-construct", f"{e} in the axiom {ax!r}")
            new_rules = []
        add(ax, new_rules)
    for ax in doc.property_axioms:
        add(ax, translate_property_axiom(ax, ctx))
    for a in doc.assertions:
        add(a, translate_assertion(a, ctx))
    # a Range folded into its Domain's signature is covered by that signature
    covered |= ctx.consumed_range_axioms
    if ctx.opts.emit_checkers:
        rules.extend(CHECKER_RULES)
    program = FlProgram(tuple(rules), dict(doc.prefixes))
    program.covered_axiom_ids = covered
    return program, ctx.diagnostics
