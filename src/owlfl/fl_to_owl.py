"""Recover an OntologyDocument from an F-logic program.

Recognition works by claiming groups of rules that match the known
translation templates, highest-priority (largest / most specific) templates
first.  Rules that belong to a lossy lowering (Lloyd-Topor auxiliaries,
case-split groups) are consumed and reported, never reconstructed.  Anything
left over is reported as unrepresentable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import owl_model as om
from .checkers import is_checker_rule
from .diagnostics import Diagnostic, ERROR, INFO, WARNING
from .flogic import (
    Atom, FlAttrValue, FlClassExpr, FlDifference, FlEquiv, FlIntersection,
    FlIsA, FlList, FlLit, FlLiteralTerm, FlNaf, FlPred, FlProgram, FlRule,
    FlSignature, FlSubClass, FlSymbol, FlTerm, FlUnion, FlVariable,
    print_rule,
)
from .owl_parser import DEFAULT_BASE

OBJECT_NAME = "_object"


@dataclass(frozen=True)
class TemplateMatch:
    template_id: str
    bindings: Tuple[Tuple[str, str], ...]
    consumed: Tuple[int, ...]


# --- symbol / term mapping ---------------------------------------------------


class _Namer:
    def __init__(self, base: str, prefixes: Dict[str, str]):
        self.base = base
        self.prefixes = prefixes

    def iri(self, sym: FlSymbol) -> om.Iri:
        """Inverse of ``owl_to_fl.Context._new_symbol``: a declared ``pfx:L``
        is ``L`` in the prefix's namespace; a quoted absolute name, or one
        with ``://``, is itself; any other name is in the base's namespace
        (``om.namespace``)."""
        name = sym.name
        pfx, colon, local = name.partition(":")
        if colon:  # a prefixed name or an IRI
            ns = self.prefixes.get(pfx)
            if ns:
                return om.Iri(om.namespace(ns) + local)
            if (sym.quoted or "://" in name) and om.is_absolute(name):
                return om.Iri(name)
        return om.Iri(om.namespace(self.base) + name)

    def value(self, t: FlTerm) -> Union[om.Iri, om.OwlLiteral]:
        """Property-value position: literals print quoted or as numbers."""
        if isinstance(t, FlLiteralTerm):
            return om.OwlLiteral(t.value, t.type_tag)
        if isinstance(t, FlSymbol):
            if t.quoted and not ("://" in t.name and om.is_absolute(t.name)):
                return om.OwlLiteral(t.name, "_string")
            return self.iri(t)
        raise TypeError(f"cannot map {t!r} to an OWL value")

    def cls(self, e: FlClassExpr) -> om.ClassExpression:
        if isinstance(e, Atom) and isinstance(e.term, FlSymbol):
            return om.Named(self.iri(e.term))
        if isinstance(e, FlUnion):
            return om.UnionOf(tuple(self._flatten(e, FlUnion)))
        if isinstance(e, FlIntersection):
            return om.IntersectionOf(tuple(self._flatten(e, FlIntersection)))
        if isinstance(e, FlDifference) and _is_object_atom(e.a):
            return om.ComplementOf(self.cls(e.b))
        raise TypeError(f"cannot map {e!r} to a class expression")

    def _flatten(self, e: FlClassExpr, kind) -> List[om.ClassExpression]:
        if isinstance(e, kind):
            return self._flatten(e.a, kind) + self._flatten(e.b, kind)
        return [self.cls(e)]


def _is_object_atom(e: FlClassExpr) -> bool:
    return isinstance(e, Atom) and isinstance(e.term, FlSymbol) and \
        e.term.name == OBJECT_NAME


def _atom_sym(e: FlClassExpr) -> Optional[FlSymbol]:
    if isinstance(e, Atom) and isinstance(e.term, FlSymbol):
        return e.term
    return None


def _operand_atoms(e: FlClassExpr, kind) -> Optional[List[FlSymbol]]:
    """The atoms that ``kind`` joins in e, or None if one is compound."""
    if isinstance(e, kind):
        a = _operand_atoms(e.a, kind)
        b = _operand_atoms(e.b, kind)
        if a is None or b is None:
            return None
        return a + b
    s = _atom_sym(e)
    return [s] if s is not None else None


# --- rule-shape predicates ---------------------------------------------------


def _isa_var(lit: FlLit):
    """(var_name, class_symbol) for ``?V:C`` with C a plain symbol."""
    if isinstance(lit, FlIsA) and isinstance(lit.obj, FlVariable):
        s = _atom_sym(lit.cls)
        if s is not None:
            return lit.obj.name, s
    return None


def _attr_vars(lit: FlLit):
    """(subj_var, prop_symbol, val_var) for ``?S[p -> ?V]``."""
    if isinstance(lit, FlAttrValue) and isinstance(lit.obj, FlVariable) and \
            isinstance(lit.prop, FlSymbol) and isinstance(lit.value, FlVariable):
        return lit.obj.name, lit.prop, lit.value.name
    return None


def _membership_rule(rule: FlRule):
    """``?X:D :- ?X:C1, ..., ?X:Cn`` (all positive, same variable)."""
    h = _isa_var(rule.head)
    if h is None or not rule.body:
        return None
    var, head_cls = h
    body_classes = []
    for lit in rule.body:
        b = _isa_var(lit)
        if b is None or b[0] != var:
            return None
        body_classes.append(b[1])
    return head_cls, body_classes


def _naf_isa(lit: FlLit):
    if isinstance(lit, FlNaf) and len(lit.inner) == 1:
        return _isa_var(lit.inner[0])
    return None


def _case_split_rule(rule: FlRule):
    """``?X:A :- ?X:D, \\naf ?X:B1, ...`` -> (A, D, [B1..])."""
    h = _isa_var(rule.head)
    if h is None or not rule.body:
        return None
    var, head_cls = h
    first = _isa_var(rule.body[0])
    if first is None or first[0] != var:
        return None
    nafs = []
    for lit in rule.body[1:]:
        n = _naf_isa(lit)
        if n is None or n[0] != var:
            return None
        nafs.append(n[1])
    if not nafs:
        return None
    return head_cls, first[1], nafs


def _complement_rule(rule: FlRule):
    """``?X:N :- ?X:_object, \\naf ?X:C`` -> (N, C)."""
    h = _isa_var(rule.head)
    if h is None or len(rule.body) != 2:
        return None
    var, head_cls = h
    first = _isa_var(rule.body[0])
    if first is None or first[0] != var or first[1].name != OBJECT_NAME:
        return None
    n = _naf_isa(rule.body[1])
    if n is None or n[0] != var:
        return None
    return head_cls, n[1]


def _sub_rule(rule: FlRule):
    """``?X::A :- ?X::B`` -> (A, B)."""
    if not isinstance(rule.head, FlSubClass) or len(rule.body) != 1 or \
            not isinstance(rule.body[0], FlSubClass):
        return None
    h, b = rule.head, rule.body[0]
    hs, hv = _atom_sym(h.super), h.sub
    bs, bv = _atom_sym(b.super), b.sub
    if hs is None or bs is None:
        return None
    if isinstance(hv, Atom) and isinstance(hv.term, FlVariable) and \
            isinstance(bv, Atom) and isinstance(bv.term, FlVariable) and \
            hv.term.name == bv.term.name:
        return hs, bs
    return None


def _attr_rule(rule: FlRule):
    """``?X[p -> ?Y] :- ?X[q -> ?Y]`` or inverse orientation.

    Returns (p, q, inverted?) or None.
    """
    if not isinstance(rule.head, FlAttrValue) or len(rule.body) != 1:
        return None
    h = _attr_vars(rule.head)
    b = _attr_vars(rule.body[0])
    if h is None or b is None:
        return None
    hs, hp, hv = h
    bs, bp, bv = b
    if hs == bs and hv == bv:
        return hp, bp, False
    if hs == bv and hv == bs:
        return hp, bp, True
    return None


def _transitive_generic(rule: FlRule) -> bool:
    """``?X[?P -> ?Z] :- 'TransitiveProperty'(?P), ?X[?P->?Y], ?Y[?P->?Z]``."""
    if not isinstance(rule.head, FlAttrValue) or len(rule.body) != 3:
        return False
    guard = rule.body[0]
    return (isinstance(guard, FlPred) and guard.name == "TransitiveProperty"
            and isinstance(rule.head.prop, FlVariable)
            and all(isinstance(l, FlAttrValue) for l in rule.body[1:]))


def _symmetric_generic(rule: FlRule) -> bool:
    if not isinstance(rule.head, FlAttrValue) or len(rule.body) != 2:
        return False
    guard = rule.body[0]
    return (isinstance(guard, FlPred) and guard.name == "SymmetricProperty"
            and isinstance(rule.head.prop, FlVariable)
            and isinstance(rule.body[1], FlAttrValue))


def _avf_dual_rule(rule: FlRule):
    """``?Y:F :- ?X:C, ?X[p -> ?Y]`` -> (C, p, F-expr)."""
    if not isinstance(rule.head, FlIsA) or len(rule.body) != 2:
        return None
    if not isinstance(rule.head.obj, FlVariable):
        return None
    b0 = _isa_var(rule.body[0])
    b1 = _attr_vars(rule.body[1])
    if b0 is None or b1 is None:
        return None
    xvar, cls_sym = b0
    s, p, v = b1
    if s != xvar or v != rule.head.obj.name:
        return None
    return cls_sym, p, rule.head.cls


def _aux_name(name: str) -> bool:
    return name.startswith("_lt_aux")


def _mentions_aux(rule: FlRule) -> bool:
    def lit_mentions(lit: FlLit) -> bool:
        if isinstance(lit, FlPred):
            return _aux_name(lit.name)
        if isinstance(lit, FlNaf):
            return any(lit_mentions(i) for i in lit.inner)
        return False
    return lit_mentions(rule.head) or any(lit_mentions(l) for l in rule.body)


# --- recognition -------------------------------------------------------------


class _Recognizer:
    def __init__(self, program: FlProgram, base: str,
                 prefixes: Dict[str, str]):
        self.rules = list(program.rules)
        self.consumed = [False] * len(self.rules)
        self.namer = _Namer(base, prefixes)
        self.matches: List[TemplateMatch] = []
        self.diagnostics: List[Diagnostic] = []
        self.class_axioms: List[om.ClassAxiom] = []
        self.property_axioms: List[om.PropertyAxiom] = []
        self.assertions: List[om.Assertion] = []
        # rules whose axiom is a general inclusion, which the writer lacks
        self.general: List[int] = []
        # each rule's shapes, computed once; None where a shape does not fit
        self.membership = [_membership_rule(r) for r in self.rules]
        self.case_split = [_case_split_rule(r) for r in self.rules]
        self.complement = [_complement_rule(r) for r in self.rules]
        self.sub = [_sub_rule(r) for r in self.rules]
        self.avf_dual = [_avf_dual_rule(r) for r in self.rules]
        self.attr = [_attr_rule(r) for r in self.rules]
        # rule positions, ascending, by the class each group member is filed
        # under: a membership, case-split or complement rule under its head,
        # a `::` rule under its superclass, an allValuesFrom dual under its
        # body class, a ground membership fact under its class
        self.by_class: Dict[FlSymbol, List[int]] = {}
        for i, r in enumerate(self.rules):
            keys = {shape[0] for shape in (
                self.membership[i], self.case_split[i], self.complement[i],
                self.sub[i], self.avf_dual[i]) if shape is not None}
            if r.is_fact and isinstance(r.head, FlIsA) and \
                    isinstance(r.head.obj, FlSymbol):
                keys.add(_atom_sym(r.head.cls))
            keys.discard(None)
            for k in keys:
                self.by_class.setdefault(k, []).append(i)

    # -- bookkeeping

    def claim(self, template_id: str, indices: Sequence[int], **bindings):
        for i in indices:
            self.consumed[i] = True
        self.matches.append(TemplateMatch(
            template_id,
            tuple(sorted((k, str(v)) for k, v in bindings.items())),
            tuple(sorted(indices)),
        ))

    def open_indices(self):
        return [i for i, c in enumerate(self.consumed) if not c]

    def fact_head(self, i: int) -> Optional[FlLit]:
        r = self.rules[i]
        return r.head if r.is_fact else None

    def gather(self, anchor: int, keys, fits) -> List[int]:
        """The anchor and every other open rule filed under one of ``keys``
        whose index ``fits``, in rule order."""
        candidates = set()
        for k in keys:
            candidates.update(self.by_class.get(k, ()))
        return [anchor] + [j for j in sorted(candidates) if j != anchor
                           and not self.consumed[j] and fits(j)]

    # -- template passes, most specific first

    def run(self):
        self.pass_checker_library()
        self.pass_oneof_definitions()
        self.pass_equiv_definitions()
        self.pass_avf_dual_pairs()
        self.pass_characteristics()
        self.pass_inverse_and_equivalent_properties()
        self.pass_fact_predicates()
        self.pass_signatures()
        self.pass_subproperty_rules()
        self.pass_lossy_groups()
        self.pass_subclass_rules()
        self.pass_subclass_facts()
        self.pass_abox()
        self.pass_leftovers()

    def pass_checker_library(self):
        claimed = [i for i in self.open_indices()
                   if is_checker_rule(self.rules[i])]
        if claimed:
            self.claim("checker-library", claimed)

    def pass_oneof_definitions(self):
        for i in self.open_indices():
            h = self.fact_head(i)
            if not (isinstance(h, FlPred) and h.name == "oneOf"
                    and len(h.args) == 2 and isinstance(h.args[0], FlSymbol)
                    and isinstance(h.args[1], FlList)):
                continue
            cls_sym = h.args[0]
            members = [m for m in h.args[1].elements if isinstance(m, FlSymbol)]
            if len(members) != len(h.args[1].elements):
                continue
            member_set = set(members)

            def fits(j):
                hj = self.fact_head(j)
                return isinstance(hj, FlIsA) and isinstance(hj.obj, FlSymbol) \
                    and hj.obj in member_set and _atom_sym(hj.cls) == cls_sym
            self.claim("oneof-definition", self.gather(i, [cls_sym], fits),
                       cls=cls_sym.name)
            self.class_axioms.append(om.EquivalentClass(
                om.Named(self.namer.iri(cls_sym)),
                om.OneOf(tuple(self.namer.iri(m) for m in members)),
            ))

    def pass_equiv_definitions(self):
        for i in self.open_indices():
            h = self.fact_head(i)
            if not isinstance(h, FlEquiv):
                continue
            name = _atom_sym(h.a)
            if name is None:
                continue
            b = h.b
            other = _atom_sym(b)
            bindings = {"cls": name.name}
            keys = [name]
            # a compound operand leaves ops empty (or operand None), so no
            # companion rule fits and the fact is claimed alone
            if isinstance(b, FlUnion):
                template = "union-definition"
                ops = set(_operand_atoms(b, FlUnion) or ())
                keys += ops  # case-split rules head an operand

                def fits(j):
                    m, cs = self.membership[j], self.case_split[j]
                    if m is not None and m[0] == name and len(m[1]) == 1 \
                            and m[1][0] in ops:
                        return True
                    return cs is not None and cs[0] in ops and \
                        cs[1] == name and set(cs[2]) == ops - {cs[0]}
            elif isinstance(b, FlIntersection):
                template = "intersection-definition"
                ops = set(_operand_atoms(b, FlIntersection) or ())
                keys += ops  # `?X:Op :- ?X:Name` heads an operand

                def fits(j):
                    m = self.membership[j]
                    if m is None:
                        return False
                    return (m[0] == name and set(m[1]) == ops) or \
                        (m[0] in ops and m[1] == [name])
            elif isinstance(b, FlDifference) and _is_object_atom(b.a):
                template = "complement-definition"
                operand = _atom_sym(b.b)

                def fits(j):
                    return self.complement[j] == (name, operand)
            elif other is not None:
                template = "named-equivalence"
                bindings = {"a": name.name, "b": other.name}
                pair = {name, other}
                keys.append(other)

                def fits(j):
                    m, s = self.membership[j], self.sub[j]
                    if m is not None and len(m[1]) == 1 and \
                            {m[0], m[1][0]} == pair:
                        return True
                    return s is not None and set(s) == pair
            else:
                continue
            self.claim(template, self.gather(i, keys, fits), **bindings)
            self.class_axioms.append(om.EquivalentClass(
                om.Named(self.namer.iri(name)), self.namer.cls(b)))

    def pass_avf_dual_pairs(self):
        for i in self.open_indices():
            h = self.fact_head(i)
            if not (isinstance(h, FlSignature) and h.via is not None
                    and h.card is None):
                continue
            cls_sym = _atom_sym(h.cls)
            if cls_sym is None or not isinstance(h.prop, FlSymbol):
                continue
            dual = (cls_sym, h.prop, h.range)
            group = self.gather(i, [cls_sym],
                                lambda j: self.avf_dual[j] == dual)
            # one dual rule per signature; a second one is left over
            self.claim("allValuesFrom", group[:2], cls=cls_sym.name,
                       prop=h.prop.name)
            self.class_axioms.append(om.SubClassOf(
                om.Named(self.namer.iri(cls_sym)),
                om.Restriction(self.namer.iri(h.prop),
                               om.AllValuesFrom(self.namer.cls(h.range))),
            ))

    def pass_characteristics(self):
        for kind, pred_name, matcher in (
                (om.TRANSITIVE, "TransitiveProperty", _transitive_generic),
                (om.SYMMETRIC, "SymmetricProperty", _symmetric_generic)):
            prop_facts = []
            for i in self.open_indices():
                h = self.fact_head(i)
                if isinstance(h, FlPred) and h.name == pred_name and \
                        len(h.args) == 1 and isinstance(h.args[0], FlSymbol):
                    prop_facts.append(i)
            generic = [i for i in self.open_indices()
                       if not self.rules[i].is_fact and matcher(self.rules[i])]
            for i in prop_facts:
                p = self.fact_head(i).args[0]
                self.claim(f"{pred_name[0].lower()}{pred_name[1:]}", [i],
                           prop=p.name)
                self.property_axioms.append(
                    om.Characteristic(self.namer.iri(p), kind))
            if generic:
                # claimed with or without property facts; with none it is inert
                self.claim(f"generic-{kind}-rule", generic)

    def pass_inverse_and_equivalent_properties(self):
        # each rule pairs with the first open rule of the mirrored shape
        anchors = [i for i in self.open_indices() if self.attr[i] is not None]
        by_shape: Dict[tuple, deque] = {}
        for i in anchors:
            by_shape.setdefault(self.attr[i], deque()).append(i)
        for i in anchors:
            p, q, inv = self.attr[i]
            if self.consumed[i] or p == q:
                continue
            partners = by_shape.get((q, p, inv))
            while partners and self.consumed[partners[0]]:
                partners.popleft()
            if not partners:
                continue
            j = partners.popleft()
            if inv:
                self.claim("inverse-of", [i, j], a=p.name, b=q.name)
                self.property_axioms.append(om.InverseOf(
                    self.namer.iri(p), self.namer.iri(q)))
            else:
                self.claim("equivalent-property", [i, j],
                           a=p.name, b=q.name)
                self.property_axioms.append(om.EquivalentProperty(
                    self.namer.iri(p), self.namer.iri(q)))

    def pass_fact_predicates(self):
        for i in self.open_indices():
            h = self.fact_head(i)
            if not isinstance(h, FlPred):
                continue
            if h.name == "someValuesFrom" and len(h.args) == 3 and \
                    all(isinstance(a, FlSymbol) for a in h.args):
                c, p, f = h.args
                self.claim("someValuesFrom", [i], cls=c.name, prop=p.name)
                self.class_axioms.append(om.SubClassOf(
                    om.Named(self.namer.iri(c)),
                    om.Restriction(self.namer.iri(p), om.SomeValuesFrom(
                        om.Named(self.namer.iri(f)))),
                ))
            elif h.name == "hasValue" and len(h.args) == 3 and \
                    isinstance(h.args[0], FlSymbol) and \
                    isinstance(h.args[1], FlSymbol):
                c, p, v = h.args
                self.claim("hasValue", [i], cls=c.name, prop=p.name)
                self.class_axioms.append(om.SubClassOf(
                    om.Named(self.namer.iri(c)),
                    om.Restriction(self.namer.iri(p),
                                   om.HasValue(self.namer.value(v))),
                ))
            elif h.name == "disjoint_classes" and len(h.args) == 2 and \
                    all(isinstance(a, FlSymbol) for a in h.args):
                b, a = h.args  # printed object-first; the axiom is (a, b)
                self.claim("disjoint-classes", [i], a=a.name, b=b.name)
                self.class_axioms.append(om.DisjointWith(
                    self.namer.iri(a), self.namer.iri(b)))
            elif h.name == "inverseFunctional" and len(h.args) == 1 and \
                    isinstance(h.args[0], FlSymbol):
                p = h.args[0]
                self.claim("inverse-functional", [i], prop=p.name)
                self.property_axioms.append(om.Characteristic(
                    self.namer.iri(p), om.INVERSE_FUNCTIONAL))

    def pass_signatures(self):
        for i in self.open_indices():
            h = self.fact_head(i)
            if not isinstance(h, FlSignature) or h.via is not None:
                continue
            cls_sym = _atom_sym(h.cls)
            rng_sym = _atom_sym(h.range)
            if cls_sym is None or not isinstance(h.prop, FlSymbol):
                continue
            prop_iri = self.namer.iri(h.prop)
            cls_is_obj = cls_sym.name == OBJECT_NAME
            rng_is_obj = rng_sym is not None and rng_sym.name == OBJECT_NAME
            if h.card is None:
                if cls_is_obj and not rng_is_obj:
                    self.claim("range", [i], prop=h.prop.name)
                    self.property_axioms.append(om.Range(
                        prop_iri, self.namer.iri(rng_sym)))
                elif not cls_is_obj:
                    self.claim("domain-range", [i], cls=cls_sym.name,
                               prop=h.prop.name)
                    self.property_axioms.append(om.Domain(
                        prop_iri, self.namer.iri(cls_sym)))
                    if not rng_is_obj and rng_sym is not None:
                        self.property_axioms.append(om.Range(
                            prop_iri, self.namer.iri(rng_sym)))
                continue
            low, high = h.card
            if cls_is_obj and (low, high) == (1, 1):
                self.claim("functional", [i], prop=h.prop.name)
                self.property_axioms.append(om.Characteristic(
                    prop_iri, om.FUNCTIONAL))
                continue
            if cls_is_obj:
                continue  # leave for the leftover pass
            if low == 0 and high is not None:
                kind = om.MaxCardinality(high)
            elif high is None:
                kind = om.MinCardinality(low)
            elif low == high:
                kind = om.ExactCardinality(low)
            else:
                continue
            self.claim("cardinality-restriction", [i], cls=cls_sym.name,
                       prop=h.prop.name)
            self.class_axioms.append(om.SubClassOf(
                om.Named(self.namer.iri(cls_sym)),
                om.Restriction(prop_iri, kind)))

    def pass_subproperty_rules(self):
        for i in self.open_indices():
            a = self.attr[i]
            if a is None:
                continue
            p, q, inv = a
            if inv:
                continue  # a lone inverse-orientation rule has no OWL axiom
            self.claim("sub-property", [i], sub=q.name, super=p.name)
            self.property_axioms.append(om.SubPropertyOf(
                self.namer.iri(q), self.namer.iri(p)))

    def pass_lossy_groups(self):
        aux = [i for i in self.open_indices()
               if _mentions_aux(self.rules[i])]
        if aux:
            self.claim("lloyd-topor-aux", aux)
            self.diagnostics.append(Diagnostic(
                INFO, "lossy-origin",
                "Lloyd-Topor auxiliary rules come from a lowered universal "
                "restriction and are not reconstructed as OWL axioms",
            ))
        cases = [i for i in self.open_indices()
                 if self.case_split[i] is not None
                 and self.complement[i] is None]
        if cases:
            self.claim("case-split-group", cases)
            self.diagnostics.append(Diagnostic(
                INFO, "lossy-origin",
                "case-split rules come from a lowered disjunctive subsumer "
                "and are not reconstructed as OWL axioms",
            ))

    def pass_subclass_rules(self):
        for i in self.open_indices():
            m = self.membership[i]
            if m is not None:
                head_cls, body = m
                sup = om.Named(self.namer.iri(head_cls))
                if len(body) == 1:
                    sub: om.ClassExpression = om.Named(self.namer.iri(body[0]))
                else:
                    sub = om.IntersectionOf(tuple(
                        om.Named(self.namer.iri(b)) for b in body))
                    self.general.append(i)
                self.claim("membership-rule", [i], cls=head_cls.name)
                self.class_axioms.append(om.SubClassOf(sub, sup))
                continue
            c = self.complement[i]
            if c is not None:
                head_cls, operand = c
                self.claim("complement-subclass", [i], cls=head_cls.name)
                self.general.append(i)
                self.class_axioms.append(om.SubClassOf(
                    om.ComplementOf(om.Named(self.namer.iri(operand))),
                    om.Named(self.namer.iri(head_cls))))

    def pass_subclass_facts(self):
        for i in self.open_indices():
            h = self.fact_head(i)
            if isinstance(h, FlSubClass):
                a, b = _atom_sym(h.sub), _atom_sym(h.super)
                if a is not None and b is not None:
                    self.claim("subclass-fact", [i], sub=a.name, super=b.name)
                    self.class_axioms.append(om.SubClassOf(
                        om.Named(self.namer.iri(a)),
                        om.Named(self.namer.iri(b))))

    def pass_abox(self):
        for i in self.open_indices():
            h = self.fact_head(i)
            if isinstance(h, FlIsA) and isinstance(h.obj, FlSymbol):
                cls_sym = _atom_sym(h.cls)
                if cls_sym is not None and cls_sym.name != OBJECT_NAME:
                    self.claim("class-assertion", [i], ind=h.obj.name,
                               cls=cls_sym.name)
                    self.assertions.append(om.ClassAssertion(
                        self.namer.iri(h.obj), self.namer.iri(cls_sym)))
            elif isinstance(h, FlAttrValue) and \
                    isinstance(h.obj, FlSymbol) and \
                    isinstance(h.prop, FlSymbol) and \
                    not isinstance(h.value, FlVariable):
                self.claim("property-assertion", [i], subj=h.obj.name,
                           prop=h.prop.name)
                self.assertions.append(om.PropertyAssertion(
                    self.namer.iri(h.obj), self.namer.iri(h.prop),
                    self.namer.value(h.value)))

    def pass_leftovers(self):
        for i in self.open_indices():
            self.diagnostics.append(Diagnostic(
                WARNING, "unrepresentable-in-owl",
                f"no OWL form for: {print_rule(self.rules[i])}",
            ))


# --- public API --------------------------------------------------------------


def recognize_templates(program: FlProgram, base_iri: Optional[str] = None,
                        prefixes: Optional[Dict[str, str]] = None
                        ) -> Tuple[List[TemplateMatch], List[Diagnostic]]:
    rec = _build(program, base_iri, prefixes)
    return rec.matches, rec.diagnostics


def translate_program(program: FlProgram, base_iri: Optional[str] = None,
                      prefixes: Optional[Dict[str, str]] = None
                      ) -> Tuple[om.OntologyDocument, List[Diagnostic]]:
    rec = _build(program, base_iri, prefixes)
    doc = om.OntologyDocument(
        prefixes={**rec.namer.prefixes, "": rec.namer.base},
        class_axioms=list(rec.class_axioms),
        property_axioms=list(rec.property_axioms),
        assertions=list(rec.assertions),
    )
    return doc, rec.diagnostics + [Diagnostic(
        WARNING, "unrepresentable-in-owl",
        "a general inclusion with a compound subclass is not written in "
        f"RDF/XML: {print_rule(rec.rules[i])}") for i in rec.general]


def _build(program: FlProgram, base_iri, prefixes) -> _Recognizer:
    merged = dict(program.prefixes)
    if prefixes:
        merged.update(prefixes)
    base = base_iri or merged.get("") or DEFAULT_BASE
    rec = _Recognizer(program, base, merged)
    # names are made absolute from these, so a relative one stops recognition
    namespaces = [("base", base)] + [
        (f"prefix {pfx} namespace", ns)
        for pfx, ns in sorted(merged.items()) if pfx and ns]
    for what, ns in namespaces:
        if not om.is_absolute(ns):
            rec.diagnostics.append(Diagnostic(
                ERROR, "relative-iri", f"{what} {ns!r} is not an absolute IRI"))
            return rec
    rec.run()
    return rec
