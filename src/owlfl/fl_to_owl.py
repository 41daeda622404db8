"""Recover an OntologyDocument from an F-logic program.

Recognition works by claiming groups of rules that match the known
translation templates, highest-priority (largest / most specific) templates
first.  A match records the axioms it stands for, and the document, with the
warning for each general inclusion the writer cannot write, is read off the
matches in order.  Rules that belong to a lossy lowering (Lloyd-Topor
auxiliaries, case-split groups) are consumed and reported, never
reconstructed.  Anything left over is reported as unrepresentable, such as a
signature whose range has no OWL form: the lowering names a range, and puts
``_object`` under a cardinality.  Names become IRIs as
``owl_to_fl.Context._new_symbol`` made them, ``_object`` as ``owl:Thing``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import owl_model as om
from .checkers import CLOSURES, is_checker_rule
from .diagnostics import Diagnostic, ERROR, INFO, WARNING
from .flogic import (
    Atom, FlAttrValue, FlClassExpr, FlDifference, FlEquiv, FlIntersection,
    FlIsA, FlList, FlLit, FlLiteralTerm, FlNaf, FlPred, FlProgram, FlRule,
    FlSignature, FlSubClass, FlSymbol, FlUnion, FlVariable, OBJECT,
    print_rule,
)
from .node import Node
from .owl_parser import DEFAULT_BASE, THING
from .owl_to_fl import OBJ


class TemplateMatch(Node):
    # bindings: (variable, name) pairs; consumed: rule positions
    __slots__ = ("template_id", "bindings", "consumed")


# --- symbol / term mapping ---------------------------------------------------


_VALUE = (FlSymbol, FlLiteralTerm)  # the terms that have an OWL value


class _Namer:
    def __init__(self, prefixes: Dict[str, str]):
        self.base = prefixes.get("") or DEFAULT_BASE
        self.prefixes = prefixes
        self.iris: Dict[tuple, om.Iri] = {}
        self.classes: Dict[str, om.Named] = {}  # IRI -> its one class

    def iri(self, sym: FlSymbol) -> om.Iri:
        """Inverse of ``owl_to_fl.Context._new_symbol``, made once per name
        and quoting (a symbol's equality ignores ``quoted``)."""
        key = sym.name, sym.quoted
        if key not in self.iris:
            self.iris[key] = om.Iri(self.absolute(*key))
        return self.iris[key]

    def named(self, sym: FlSymbol) -> om.Named:
        """The class ``sym`` names, made once per IRI."""
        iri = self.iri(sym)
        n = self.classes.get(iri.value)
        if n is None:
            n = self.classes[iri.value] = om.Named(iri)
        return n

    def absolute(self, name: str, quoted: bool) -> str:
        """``_object`` is ``owl:Thing``; a declared ``pfx:L`` is ``L`` in the
        prefix's namespace; a quoted absolute name, or one with ``://``, is
        itself; any other name is in the base's namespace
        (``om.namespace``)."""
        if name == OBJECT:
            return THING
        pfx, colon, local = name.partition(":")
        if colon:  # a prefixed name or an IRI
            ns = self.prefixes.get(pfx)
            if ns:
                return om.namespace(ns) + local
            if (quoted or "://" in name) and om.is_absolute(name):
                return name
        return om.namespace(self.base) + name

    def value(self, t: Union[FlSymbol, FlLiteralTerm]
              ) -> Union[om.Iri, om.OwlLiteral]:
        """Property-value position: literals print quoted or as numbers."""
        if isinstance(t, FlLiteralTerm):
            return om.OwlLiteral(t.value, t.type_tag)
        if t.quoted and not ("://" in t.name and om.is_absolute(t.name)):
            return om.OwlLiteral(t.name, "_string")
        return self.iri(t)

    def cls(self, e: FlClassExpr) -> Optional[om.ClassExpression]:
        """Named classes joined by union, intersection and difference from
        ``_object``; None for any other class expression."""
        if isinstance(e, Atom) and isinstance(e.term, FlSymbol):
            return self.named(e.term)
        if isinstance(e, (FlUnion, FlIntersection)):
            ops = tuple(map(self.cls, _leaves(e, type(e))))
            owl = om.UnionOf if isinstance(e, FlUnion) else om.IntersectionOf
            return None if None in ops else owl(ops)
        if isinstance(e, FlDifference) and e.a == OBJ:
            b = self.cls(e.b)
            return None if b is None else om.ComplementOf(b)
        return None


def _leaves(e: FlClassExpr, kind) -> List[FlClassExpr]:
    """The operands that ``kind`` joins in e, nested ones flattened."""
    if isinstance(e, kind):
        return _leaves(e.a, kind) + _leaves(e.b, kind)
    return [e]


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
    return shape[2] == [OBJECT] and len(shape[3]) == 1


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
        return same(a._values(a), b._values(b)) if isinstance(a, Node) else a == b
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
    def __init__(self, program: FlProgram):
        self.rules = list(program.rules)
        self.consumed = [False] * len(self.rules)
        self.namer = _Namer(program.prefixes)
        # (template_id, rule positions, bindings, axioms) of each claim
        self.matches: List[tuple] = []
        self.diagnostics: List[Diagnostic] = []
        # each rule's shape (`_shape`), computed once
        self.shape = [_shape(r) for r in self.rules]
        # rule positions, ascending, by kind: a shaped rule under its tag, a
        # fact under its head's type, any other rule under None
        self.kinds: Dict[object, List[int]] = {}
        # rule positions, ascending, by the class each group member is filed
        # under: a class shape under its second element (an isa rule's head,
        # a `::` rule's superclass, a dual's body class, a domain or range
        # rule's class), a ground membership fact under its class
        self.by_class: Dict[FlSymbol, List[int]] = {}
        for i, (r, shape) in enumerate(zip(self.rules, self.shape)):
            kind = shape[0] if shape else type(r.head) if r.is_fact else None
            self.kinds.setdefault(kind, []).append(i)
            key = None
            if shape and kind != "attr":
                key = shape[1]
            elif kind is FlIsA and isinstance(r.head.obj, FlSymbol):
                key = _atom_sym(r.head.cls)
            if key is not None:
                self.by_class.setdefault(key, []).append(i)

    # -- bookkeeping

    def claim(self, template_id: str, indices: Sequence[int], *axioms,
              **bindings):
        """Consume the rules at ``indices`` as one match of the template,
        which stands for ``axioms``."""
        for i in indices:
            self.consumed[i] = True
        self.matches.append((template_id, indices, bindings, axioms))

    def open(self, *kinds) -> List[int]:
        """The open rules filed under ``kinds``, in rule order."""
        return sorted(i for k in kinds for i in self.kinds.get(k, ())
                      if not self.consumed[i])

    def facts(self, *kinds) -> List[tuple]:
        """Each open fact filed under ``kinds``, with its head."""
        return [(i, self.rules[i].head) for i in self.open(*kinds)]

    def open_shapes(self, tag: str) -> List[Tuple[int, tuple]]:
        """Each open rule whose shape is tagged ``tag``, with the shape."""
        return [(i, self.shape[i]) for i in self.open(tag)]

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
        # a checker heads a predicate, in a rule or a fact
        claimed = [i for i in self.open(None, FlPred)
                   if is_checker_rule(self.rules[i])]
        if claimed:
            self.claim("checker-library", claimed)

    def pass_oneof_definitions(self):
        for i, h in self.facts(FlPred):
            if not (h.name == "oneOf"
                    and len(h.args) == 2 and isinstance(h.args[0], FlSymbol)
                    and isinstance(h.args[1], FlList)):
                continue
            cls_sym = h.args[0]
            members = [m for m in h.args[1].elements if isinstance(m, FlSymbol)]
            if len(members) != len(h.args[1].elements):
                continue
            member_set = set(members)

            def fits(j):  # a membership fact, filed under cls_sym
                return self.shape[j] is None and \
                    self.rules[j].head.obj in member_set
            self.claim("oneof-definition", self.gather(i, [cls_sym], fits),
                       om.EquivalentClass(
                           self.namer.named(cls_sym),
                           om.OneOf(tuple(map(self.namer.iri, members)))),
                       cls=cls_sym.name)

    def pass_equiv_definitions(self):
        for i, h in self.facts(FlEquiv):
            name = _atom_sym(h.a)
            cls = self.namer.cls(h.b)
            if name is None or cls is None:
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
            elif isinstance(b, FlDifference) and b.a == OBJ:
                template = "complement-definition"
                operand = _atom_sym(b.b)

                def fits(j):
                    return self.shape[j] == \
                        ("isa", name, [OBJECT], [operand])
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
            self.claim(template, self.gather(i, keys, fits), om.EquivalentClass(
                self.namer.named(name), cls), **bindings)

    def pass_avf_dual_pairs(self):
        for i, h in self.facts(FlSignature):
            if h.via is None or h.card is not None:
                continue
            cls_sym = _atom_sym(h.cls)
            filler = self.namer.cls(h.range)
            if cls_sym is None or not isinstance(h.prop, FlSymbol) or \
                    filler is None:
                continue
            dual = ("dual", cls_sym, h.prop, h.range)
            group = self.gather(i, [cls_sym],
                                lambda j: self.shape[j] == dual)
            # one dual rule per signature; a second one is left over
            self.claim("allValuesFrom", group[:2], om.SubClassOf(
                self.namer.named(cls_sym),
                om.Restriction(self.namer.iri(h.prop),
                               om.AllValuesFrom(filler))),
                cls=cls_sym.name, prop=h.prop.name)

    def pass_characteristics(self):
        for kind, (pred_name, closure) in CLOSURES.items():
            prop_facts = [(i, h.args[0]) for i, h in self.facts(FlPred)
                          if h.name == pred_name and len(h.args) == 1
                          and isinstance(h.args[0], FlSymbol)]
            # the lowering's own closure rule, up to its variable names
            generic = [i for i in self.open(None)
                       if len(self.rules[i].body) == len(closure.body)
                       and _renames(self.rules[i], closure)]
            for i, p in prop_facts:
                self.claim(f"{pred_name[0].lower()}{pred_name[1:]}", [i],
                           om.Characteristic(self.namer.iri(p), kind),
                           prop=p.name)
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
            template, axiom = ("inverse-of", om.InverseOf) if inv else \
                ("equivalent-property", om.EquivalentProperty)
            self.claim(template, [i, partners.popleft()],
                       axiom(self.namer.iri(p), self.namer.iri(q)),
                       a=p.name, b=q.name)

    def pass_fact_predicates(self):
        for i, h in self.facts(FlPred):
            if h.name == "someValuesFrom" and len(h.args) == 3 and \
                    all(isinstance(a, FlSymbol) for a in h.args):
                c, p, f = h.args
                self.claim("someValuesFrom", [i], om.SubClassOf(
                    self.namer.named(c),
                    om.Restriction(self.namer.iri(p), om.SomeValuesFrom(
                        self.namer.named(f)))),
                    cls=c.name, prop=p.name)
            elif h.name == "hasValue" and len(h.args) == 3 and \
                    isinstance(h.args[0], FlSymbol) and \
                    isinstance(h.args[1], FlSymbol) and \
                    isinstance(h.args[2], _VALUE):
                c, p, v = h.args
                self.claim("hasValue", [i], om.SubClassOf(
                    self.namer.named(c),
                    om.Restriction(self.namer.iri(p),
                                   om.HasValue(self.namer.value(v)))),
                    cls=c.name, prop=p.name)
            elif h.name == "disjoint_classes" and len(h.args) == 2 and \
                    all(isinstance(a, FlSymbol) for a in h.args):
                b, a = h.args  # printed object-first; the axiom is (a, b)
                self.claim("disjoint-classes", [i], om.DisjointWith(
                    self.namer.iri(a), self.namer.iri(b)), a=a.name, b=b.name)
            elif h.name == "inverseFunctional" and len(h.args) == 1 and \
                    isinstance(h.args[0], FlSymbol):
                p = h.args[0]
                self.claim("inverse-functional", [i], om.Characteristic(
                    self.namer.iri(p), om.INVERSE_FUNCTIONAL), prop=p.name)

    def pass_signatures(self):
        for i, h in self.facts(FlSignature):
            cls_sym = _atom_sym(h.cls)
            rng_sym = _atom_sym(h.range)
            # the lowering's forms: a named range, `_object` under a
            # cardinality; any other is left over
            if h.via is not None or cls_sym is None or rng_sym is None or \
                    not isinstance(h.prop, FlSymbol) or \
                    h.card is not None and rng_sym != OBJECT:
                continue
            prop_iri = self.namer.iri(h.prop)
            cls_is_obj = cls_sym == OBJECT
            # a range other than _object, which OWL can state
            ranges = [om.Range(prop_iri, self.namer.iri(rng_sym))] \
                if rng_sym != OBJECT else []
            if h.card is None:
                # with the rules that `--owl-domain-range-rules` adds
                rules = (("domain", cls_sym, h.prop),
                         ("range", rng_sym, h.prop))
                group = self.gather(i, [cls_sym, rng_sym],
                                    lambda j: self.shape[j] in rules)
                if not cls_is_obj:
                    self.claim("domain-range", group,
                               om.Domain(prop_iri, self.namer.iri(cls_sym)),
                               *ranges, cls=cls_sym.name, prop=h.prop.name)
                elif ranges:
                    self.claim("range", group, *ranges, prop=h.prop.name)
                continue
            low, high = h.card
            if cls_is_obj:
                if (low, high) == (1, 1):
                    self.claim("functional", [i], om.Characteristic(
                        prop_iri, om.FUNCTIONAL), prop=h.prop.name)
                continue  # any other is left over
            if low == 0 and high is not None:
                kind = om.MaxCardinality(high)
            elif high is None:
                kind = om.MinCardinality(low)
            elif low == high:
                kind = om.ExactCardinality(low)
            else:
                continue
            self.claim("cardinality-restriction", [i], om.SubClassOf(
                self.namer.named(cls_sym),
                om.Restriction(prop_iri, kind)),
                cls=cls_sym.name, prop=h.prop.name)

    def pass_subproperty_rules(self):
        for i, (_, p, q, inv) in self.open_shapes("attr"):
            if inv:
                continue  # a lone inverse-orientation rule has no OWL axiom
            self.claim("sub-property", [i], om.SubPropertyOf(
                self.namer.iri(q), self.namer.iri(p)), sub=q.name, super=p.name)

    def pass_lossy_groups(self):
        # an auxiliary is a predicate, in a rule or a fact
        aux = [i for i in self.open(None, FlPred)
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
            sup = self.namer.named(head_cls)
            if not nafs:
                subs = [self.namer.named(b) for b in body]
                self.claim("membership-rule", [i], om.SubClassOf(
                    subs[0] if len(subs) == 1 else om.IntersectionOf(
                        tuple(subs)), sup), cls=head_cls.name)
            elif _is_complement(s):
                self.claim("complement-subclass", [i], om.SubClassOf(
                    om.ComplementOf(self.namer.named(nafs[0])), sup),
                    cls=head_cls.name)

    def pass_subclass_facts(self):
        for i, h in self.facts(FlSubClass):
            a, b = _atom_sym(h.sub), _atom_sym(h.super)
            if a is not None and b is not None:
                self.claim("subclass-fact", [i], om.SubClassOf(
                    self.namer.named(a), self.namer.named(b)),
                    sub=a.name, super=b.name)

    def pass_abox(self):
        for i, h in self.facts(FlIsA, FlAttrValue):
            if not isinstance(h.obj, FlSymbol):
                continue
            if isinstance(h, FlIsA):
                cls_sym = _atom_sym(h.cls)
                if cls_sym is not None and cls_sym != OBJECT:
                    self.claim("class-assertion", [i], om.ClassAssertion(
                        self.namer.iri(h.obj), self.namer.iri(cls_sym)),
                        ind=h.obj.name, cls=cls_sym.name)
            elif isinstance(h.prop, FlSymbol) and isinstance(h.value, _VALUE):
                self.claim("property-assertion", [i], om.PropertyAssertion(
                    self.namer.iri(h.obj), self.namer.iri(h.prop),
                    self.namer.value(h.value)), subj=h.obj.name,
                    prop=h.prop.name)

    def pass_leftovers(self):
        for i in self.open(*self.kinds):
            self.diagnostics.append(Diagnostic(
                WARNING, "unrepresentable-in-owl",
                f"no OWL form for: {print_rule(self.rules[i])}",
            ))


# --- public API --------------------------------------------------------------


def recognize_templates(program: FlProgram
                        ) -> Tuple[List[TemplateMatch], List[Diagnostic]]:
    rec = _build(program)
    return [TemplateMatch(t, tuple(sorted(bindings.items())), tuple(sorted(ix)))
            for t, ix, bindings, _ in rec.matches], rec.diagnostics


def translate_program(program: FlProgram
                      ) -> Tuple[om.OntologyDocument, List[Diagnostic]]:
    """The OWL form of a program, in the namespaces it declares; its base
    is its ``base`` directive, else ``DEFAULT_BASE``."""
    rec = _build(program)
    # each with its match's first rule, for a general inclusion's warning
    axioms = [(ix[0], a) for _, ix, _, axs in rec.matches for a in axs]
    doc = om.OntologyDocument({**rec.namer.prefixes, "": rec.namer.base}, *(
        [a for _, a in axioms if isinstance(a, kind)]
        for kind in (om.ClassAxiom, om.PropertyAxiom, om.Assertion)))
    return doc, rec.diagnostics + [Diagnostic(
        WARNING, "unrepresentable-in-owl",
        "a general inclusion with a compound subclass is not written in "
        f"RDF/XML: {print_rule(rec.rules[i])}") for i, a in axioms
        if isinstance(a, om.SubClassOf) and not isinstance(a.sub, om.Named)]


def _build(program: FlProgram) -> _Recognizer:
    rec = _Recognizer(program)
    # names are made absolute from these, so a relative one stops recognition
    namespaces = [("base", rec.namer.base)] + [
        (f"prefix {pfx} namespace", ns)
        for pfx, ns in sorted(program.prefixes.items()) if pfx and ns]
    for what, ns in namespaces:
        if not om.is_absolute(ns):
            rec.diagnostics.append(Diagnostic(
                ERROR, "relative-iri", f"{what} {ns!r} is not an absolute IRI"))
            return rec
    rec.run()
    return rec
