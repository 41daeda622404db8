"""Recover an OntologyDocument from an F-logic program.

Recognition works by claiming groups of rules that match the known
translation templates, highest-priority (largest / most specific) templates
first.  Rules that belong to a lossy lowering (Lloyd-Topor auxiliaries,
case-split groups) are consumed and reported, never reconstructed.  Anything
left over is reported as unrepresentable.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import owl_model as om
from .checkers import SYMMETRIC_RULE, TRANSITIVE_RULE, is_checker_rule
from .diagnostics import Diagnostic, ERROR, INFO, WARNING
from .flogic import (
    Atom, FlAttrValue, FlClassExpr, FlDifference, FlEquiv, FlIntersection,
    FlIsA, FlList, FlLit, FlLiteralTerm, FlNaf, FlPred, FlProgram, FlRule,
    FlSignature, FlSubClass, FlSymbol, FlUnion, FlVariable,
    print_rule,
)
from .node import Node
from .owl_parser import DEFAULT_BASE

OBJECT_NAME = "_object"


class TemplateMatch(Node):
    # bindings: (variable, name) pairs; consumed: rule positions
    __slots__ = ("template_id", "bindings", "consumed")


# --- symbol / term mapping ---------------------------------------------------


_VALUE = (FlSymbol, FlLiteralTerm)  # the terms that have an OWL value


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

    def value(self, t: Union[FlSymbol, FlLiteralTerm]
              ) -> Union[om.Iri, om.OwlLiteral]:
        """Property-value position: literals print quoted or as numbers."""
        if isinstance(t, FlLiteralTerm):
            return om.OwlLiteral(t.value, t.type_tag)
        if t.quoted and not ("://" in t.name and om.is_absolute(t.name)):
            return om.OwlLiteral(t.name, "_string")
        return self.iri(t)

    def cls(self, e: FlClassExpr) -> om.ClassExpression:
        if isinstance(e, Atom) and isinstance(e.term, FlSymbol):
            return om.Named(self.iri(e.term))
        if isinstance(e, FlUnion):
            return om.UnionOf(tuple(map(self.cls, _leaves(e, FlUnion))))
        if isinstance(e, FlIntersection):
            return om.IntersectionOf(tuple(
                map(self.cls, _leaves(e, FlIntersection))))
        if isinstance(e, FlDifference) and _is_object_atom(e.a):
            return om.ComplementOf(self.cls(e.b))
        raise TypeError(f"cannot map {e!r} to a class expression")


def _leaves(e: FlClassExpr, kind) -> List[FlClassExpr]:
    """The operands that ``kind`` joins in e, nested ones flattened."""
    if isinstance(e, kind):
        return _leaves(e.a, kind) + _leaves(e.b, kind)
    return [e]


def _is_object_atom(e: FlClassExpr) -> bool:
    return isinstance(e, Atom) and isinstance(e.term, FlSymbol) and \
        e.term.name == OBJECT_NAME


def _atom_sym(e: FlClassExpr) -> Optional[FlSymbol]:
    if isinstance(e, Atom) and isinstance(e.term, FlSymbol):
        return e.term
    return None


def _operand_atoms(e: FlClassExpr, kind) -> set:
    """The atoms that ``kind`` joins in e, or none if one is compound."""
    atoms = {_atom_sym(leaf) for leaf in _leaves(e, kind)}
    return set() if None in atoms else atoms


# --- rule shapes -------------------------------------------------------------


def _isa_var(lit: FlLit):
    """(var_name, class_symbol) for ``?V:C`` with C a plain symbol."""
    if isinstance(lit, FlIsA) and isinstance(lit.obj, FlVariable):
        s = _atom_sym(lit.cls)
        if s is not None:
            return lit.obj.name, s
    return None


def _attr_vars(lit: FlLit):
    """(subj_var, prop_symbol, val_var) for ``?S[p -> ?V]``, where the
    lowering's subject and value are two variables."""
    if isinstance(lit, FlAttrValue) and isinstance(lit.obj, FlVariable) and \
            isinstance(lit.prop, FlSymbol) and \
            isinstance(lit.value, FlVariable) and \
            lit.obj.name != lit.value.name:
        return lit.obj.name, lit.prop, lit.value.name
    return None


def _shape(rule: FlRule):
    """The lowering's rule shape that ``rule`` has, or None:

    - ``("isa", D, [C1..Cn], [])`` for ``?X:D :- ?X:C1, ..., ?X:Cn``;
    - ``("isa", A, [D], [B1..])`` for ``?X:A :- ?X:D, \\naf ?X:B1, ...``, a
      case split, or a complement rule if D is ``_object`` with one B;
    - ``("dual", C, p, F)`` for ``?Y:F :- ?X:C, ?X[p -> ?Y]``;
    - ``("domain", C, p)`` for ``?X:C :- ?X[p -> ?Y]``;
    - ``("range", R, p)`` for ``?Y:R :- ?X[p -> ?Y]``;
    - ``("sub", A, B)`` for ``?X::A :- ?X::B``;
    - ``("attr", p, q, inverted)`` for ``?X[p -> ?Y] :- ?X[q -> ?Y]``, or
      ``?Y[q -> ?X]`` when inverted.
    """
    head, body = rule.head, rule.body
    if not body:
        return None
    if isinstance(head, FlIsA) and isinstance(head.obj, FlVariable):
        var = head.obj.name
        first = _isa_var(body[0])
        if len(body) == 2 and first is not None:
            a = _attr_vars(body[1])
            if a is not None and a[0] == first[0] and a[2] == var:
                return "dual", first[1], a[1], head.cls
        cls = _atom_sym(head.cls)
        if cls is None:
            return None
        if len(body) == 1:
            a = _attr_vars(body[0])
            if a is not None and var in (a[0], a[2]):
                return "domain" if var == a[0] else "range", cls, a[1]
        nafs = [lit.inner[0] for lit in body[1:]
                if isinstance(lit, FlNaf) and len(lit.inner) == 1]
        pos = body[:1] if nafs else body
        if len(pos) + len(nafs) != len(body):
            return None
        classes = [_isa_var(lit) for lit in (*pos, *nafs)]
        if any(c is None or c[0] != var for c in classes):
            return None
        classes = [c[1] for c in classes]
        return "isa", cls, classes[:len(pos)], classes[len(pos):]
    if isinstance(head, FlSubClass) and len(body) == 1 and \
            isinstance(body[0], FlSubClass):
        hs, bs = _atom_sym(head.super), _atom_sym(body[0].super)
        sub = head.sub
        if hs is not None and bs is not None and isinstance(sub, Atom) and \
                isinstance(sub.term, FlVariable) and sub == body[0].sub:
            return "sub", hs, bs
    if isinstance(head, FlAttrValue) and len(body) == 1:
        h, b = _attr_vars(head), _attr_vars(body[0])
        if h is not None and b is not None and {h[0], h[2]} == {b[0], b[2]}:
            return "attr", h[1], b[1], h[0] != b[0]
    return None


def _is_complement(shape) -> bool:
    """True for the isa shape of ``?X:N :- ?X:_object, \\naf ?X:C``."""
    return shape[2] == [OBJECT_NAME] and len(shape[3]) == 1


def _renames(rule: FlRule, of: FlRule) -> bool:
    """True if ``rule`` is ``of`` with its variables renamed one-to-one."""
    names: Dict[str, str] = {}

    def same(a, b) -> bool:
        if isinstance(a, FlVariable):
            return isinstance(b, FlVariable) and \
                names.setdefault(a.name, b.name) == b.name
        if type(a) is not type(b):
            return False
        if isinstance(a, tuple):
            return len(a) == len(b) and all(map(same, a, b))
        return same(a._key, b._key) if isinstance(a, Node) else a == b
    return same(of, rule) and len(set(names.values())) == len(names)


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
        # each rule's shape (`_shape`), computed once
        self.shape = [_shape(r) for r in self.rules]
        # rule positions, ascending, by the class each group member is filed
        # under: a class shape under its second element (an isa rule's head,
        # a `::` rule's superclass, a dual's body class, a domain or range
        # rule's class), a ground membership fact under its class
        self.by_class: Dict[FlSymbol, List[int]] = {}
        for i, (r, shape) in enumerate(zip(self.rules, self.shape)):
            key = None
            if shape is not None and shape[0] != "attr":
                key = shape[1]
            elif r.is_fact and isinstance(r.head, FlIsA) and \
                    isinstance(r.head.obj, FlSymbol):
                key = _atom_sym(r.head.cls)
            if key is not None:
                self.by_class.setdefault(key, []).append(i)

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

    def open_shapes(self, tag: str) -> List[Tuple[int, tuple]]:
        """Each open rule whose shape is tagged ``tag``, with the shape."""
        return [(i, s) for i in self.open_indices()
                if (s := self.shape[i]) is not None and s[0] == tag]

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
                ops = _operand_atoms(b, FlUnion)
                keys += ops  # case-split rules head an operand

                def fits(j):
                    s = self.shape[j]
                    if s is None or s[0] != "isa" or len(s[2]) != 1:
                        return False
                    _, head, (pos,), nafs = s
                    if not nafs:
                        return head == name and pos in ops
                    return head in ops and pos == name and \
                        set(nafs) == ops - {head}
            elif isinstance(b, FlIntersection):
                template = "intersection-definition"
                ops = _operand_atoms(b, FlIntersection)
                keys += ops  # `?X:Op :- ?X:Name` heads an operand

                def fits(j):
                    s = self.shape[j]
                    if s is None or s[0] != "isa" or s[3]:
                        return False
                    return (s[1] == name and set(s[2]) == ops) or \
                        (s[1] in ops and s[2] == [name])
            elif isinstance(b, FlDifference) and _is_object_atom(b.a):
                template = "complement-definition"
                operand = _atom_sym(b.b)

                def fits(j):
                    return self.shape[j] == \
                        ("isa", name, [OBJECT_NAME], [operand])
            elif other is not None:
                template = "named-equivalence"
                bindings = {"a": name.name, "b": other.name}
                keys.append(other)
                pairs = [("isa", name, [other], []), ("isa", other, [name], []),
                         ("sub", name, other), ("sub", other, name)]

                def fits(j):
                    return self.shape[j] in pairs
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
            dual = ("dual", cls_sym, h.prop, h.range)
            group = self.gather(i, [cls_sym],
                                lambda j: self.shape[j] == dual)
            # one dual rule per signature; a second one is left over
            self.claim("allValuesFrom", group[:2], cls=cls_sym.name,
                       prop=h.prop.name)
            self.class_axioms.append(om.SubClassOf(
                om.Named(self.namer.iri(cls_sym)),
                om.Restriction(self.namer.iri(h.prop),
                               om.AllValuesFrom(self.namer.cls(h.range))),
            ))

    def pass_characteristics(self):
        for kind, pred_name, closure in (
                (om.TRANSITIVE, "TransitiveProperty", TRANSITIVE_RULE),
                (om.SYMMETRIC, "SymmetricProperty", SYMMETRIC_RULE)):
            prop_facts = []
            for i in self.open_indices():
                h = self.fact_head(i)
                if isinstance(h, FlPred) and h.name == pred_name and \
                        len(h.args) == 1 and isinstance(h.args[0], FlSymbol):
                    prop_facts.append(i)
            # the lowering's own closure rule, up to its variable names
            generic = [i for i in self.open_indices()
                       if len(self.rules[i].body) == len(closure.body)
                       and _renames(self.rules[i], closure)]
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
        anchors = self.open_shapes("attr")
        by_shape: Dict[tuple, deque] = {}
        for i, shape in anchors:
            by_shape.setdefault(shape, deque()).append(i)
        for i, (_, p, q, inv) in anchors:
            if self.consumed[i] or p == q:
                continue
            partners = by_shape.get(("attr", q, p, inv))
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
                    isinstance(h.args[1], FlSymbol) and \
                    isinstance(h.args[2], _VALUE):
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
            # a named range other than _object, which OWL can state
            has_range = rng_sym is not None and rng_sym.name != OBJECT_NAME
            if h.card is None:
                # with the rules that `--owl-domain-range-rules` adds
                rules = (("domain", cls_sym, h.prop),
                         ("range", rng_sym, h.prop))
                group = self.gather(i, [cls_sym, rng_sym],
                                    lambda j: self.shape[j] in rules)
                if cls_is_obj and has_range:
                    self.claim("range", group, prop=h.prop.name)
                    self.property_axioms.append(om.Range(
                        prop_iri, self.namer.iri(rng_sym)))
                elif not cls_is_obj:
                    self.claim("domain-range", group, cls=cls_sym.name,
                               prop=h.prop.name)
                    self.property_axioms.append(om.Domain(
                        prop_iri, self.namer.iri(cls_sym)))
                    if has_range:
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
        for i, (_, p, q, inv) in self.open_shapes("attr"):
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
        cases = [i for i, s in self.open_shapes("isa")
                 if s[3] and not _is_complement(s)]
        if cases:
            self.claim("case-split-group", cases)
            self.diagnostics.append(Diagnostic(
                INFO, "lossy-origin",
                "case-split rules come from a lowered disjunctive subsumer "
                "and are not reconstructed as OWL axioms",
            ))

    def pass_subclass_rules(self):
        for i, s in self.open_shapes("isa"):
            _, head_cls, body, nafs = s
            if not nafs:
                sup = om.Named(self.namer.iri(head_cls))
                if len(body) == 1:
                    sub: om.ClassExpression = om.Named(self.namer.iri(body[0]))
                else:
                    sub = om.IntersectionOf(tuple(
                        om.Named(self.namer.iri(b)) for b in body))
                    self.general.append(i)
                self.claim("membership-rule", [i], cls=head_cls.name)
                self.class_axioms.append(om.SubClassOf(sub, sup))
            elif _is_complement(s):
                self.claim("complement-subclass", [i], cls=head_cls.name)
                self.general.append(i)
                self.class_axioms.append(om.SubClassOf(
                    om.ComplementOf(om.Named(self.namer.iri(nafs[0]))),
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
                    isinstance(h.value, _VALUE):
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
