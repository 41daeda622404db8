"""Terminating bottom-up evaluation of F-logic programs.

Semi-naive saturation with stratified negation over the finite constant domain
of the loaded program.  Facts live in one map of relations with hash indexes
on the argument positions a lookup binds.  Rule and checker bodies, goals and
class tests compile into join plans over variable slots once per shape (the
conjunction with its constants taken out) per process, and every KB shares
them; a shape's semi-naive plans are compiled when a rule first needs them,
and a rule's triggers are read from them.
The plan of a semi-naive pass starts at the round's new facts and is filed
under the constants of the literal it starts at, and a pass that starts at an
attribute ``?X[p -> ?Y]`` also under the class C of a body literal ``?X:C``.
A round runs only the passes whose constants its new facts hold, and a new
edge only those whose class its subject is a member of (an attribute
trigger, one set probe per class), so an insert starts the join plans it can
fire and no others, however large the store or the rule set.  A ``member``
literal joins a plan once its list is bound, as a negation does once its
variables are.
Structural rules (subclass transitivity, membership inheritance, universal
``_object`` membership) and the closure rules of transitive properties are
applied to each new fact as it is added; an individual is held as its
``_object`` membership and nowhere else.  The KB holds each base fact once, as
the (relation, args) tuple the store keeps, so an insert dedups by one lookup.
The saturated store is kept on the KB, and inserted facts extend it when no
rule body holds a negation.
Queries keep one solution per printed form and sort by it; a symbol works
its printed form out on its first print and keeps it, so asking again prints
nothing anew.  Constraint checks solve the ``check_*`` rules with the same
join plans and are closed-world: no equality inference, distinct values for
cardinality.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .checkers import CHECKER_RULES, MESSAGES, RANGE_MSG, is_checker_rule
from .diagnostics import EngineError
from .flogic import (
    Atom, FlAttrValue, FlClassExpr, FlDifference, FlEquiv, FlFormat,
    FlIntersection, FlIsA, FlList, FlLit, FlLiteralTerm, FlMember, FlNaf,
    FlNeq, FlPred, FlProgram, FlRule, FlSignature, FlSubClass, FlSymbol,
    FlTerm, FlUnion, FlVariable, OBJECT, print_class_expr, print_literal,
    print_term,
)
from .node import Node


Binding = Dict[str, FlTerm]

ISA, SUB, ATTR = "isa", "sub", "attr"


# --- fact store --------------------------------------------------------------


class Relation:
    """A set of ground tuples with hash indexes on argument positions.

    The index on a tuple of positions is built by the first lookup that
    binds exactly those positions and kept up to date by ``add``.
    """

    __slots__ = ("facts", "indexes")

    def __init__(self):
        self.facts: Set[tuple] = set()
        self.indexes: Dict[Tuple[int, ...], tuple] = {}

    def add(self, t: tuple) -> bool:
        if t in self.facts:
            return False
        self.facts.add(t)
        for key_of, index in self.indexes.values():
            index.setdefault(key_of(t), []).append(t)
        return True

    def index(self, positions: Tuple[int, ...]) -> Dict[object, List[tuple]]:
        """The tuples by their values at ``positions``: one value for one
        position, a tuple of values for several."""
        entry = self.indexes.get(positions)
        if entry is None:
            key_of = itemgetter(*positions)
            index: Dict[object, List[tuple]] = {}
            for t in self.facts:
                index.setdefault(key_of(t), []).append(t)
            entry = self.indexes[positions] = (key_of, index)
        return entry[1]

    def lookup(self, positions: Tuple[int, ...], key) -> Sequence[tuple]:
        """Tuples whose values at ``positions`` equal ``key``."""
        entry = self.indexes.get(positions)
        if entry is None:
            return self.index(positions).get(key, ())
        return entry[1].get(key, ())


class FactStore:
    """Ground facts as relations: ``isa`` (individual, class), ``sub``
    (class, class), ``attr`` (subject, property, value), and one relation
    per predicate keyed by (name, arity).  Every member, subject or value of
    an attribute and element of a ``oneOf`` list is a member of ``_object``.
    The ``attr`` edges of each property in ``closed`` are kept transitively
    closed; a member of a ``guards`` relation joins it.
    """

    def __init__(self, closures: Sequence[tuple] = ()):
        self.relations: Dict[object, Relation] = {
            ISA: Relation(), SUB: Relation(), ATTR: Relation()}
        self.closed: Set[FlTerm] = {p for g, p in closures if g is None}
        self.guards = {g for g, _ in closures if g is not None}
        self.isa: Set[Tuple[FlTerm, FlTerm]] = self.relations[ISA].facts
        self.sub: Set[Tuple[FlTerm, FlTerm]] = self.relations[SUB].facts
        self.attr: Set[Tuple[FlTerm, FlTerm, FlTerm]] = \
            self.relations[ATTR].facts

    def add(self, key, t: tuple) -> bool:
        rel = self.relations.get(key)
        if rel is None:
            rel = self.relations[key] = Relation()
        return rel.add(t)

    def size(self) -> int:
        return sum(len(rel.facts) for rel in self.relations.values())


class Stratification(Node):
    __slots__ = ("strata",)  # tuple of tuples of rules


class ConstraintViolation(Node):
    __slots__ = ("checker", "message")

    def __str__(self):
        return self.message


class KnowledgeBase:
    def __init__(self, rules, base_facts, signatures, equivalences,
                 checker_rules, prefixes):
        self.rules: List[FlRule] = rules
        # each base fact once, as its (relation, args) head, in program order
        self.base_facts: Dict[Tuple[object, tuple], None] = base_facts
        self.signatures: List[FlSignature] = signatures
        self.equivalences: List[FlEquiv] = equivalences  # they add no facts
        self.checker_rules: List[FlRule] = checker_rules
        self.prefixes = prefixes
        self._stratification: Optional[Stratification] = None
        self._store: Optional[FactStore] = None
        self._pending: List[tuple] = []  # inserted heads, not yet stored
        self._compiled: Optional[List[tuple]] = None
        # a rule body reads a relation under ``\naf`` or a class difference
        self._negation = any(neg for r in rules
                             for _, neg in _reads(r.body, False, []))
        # the (guard, property) of each transitive closure rule, see _closure
        self._closures = [c for c in map(_closure, rules) if c]

    @property
    def store(self) -> FactStore:
        return saturate(self)


# --- loading -----------------------------------------------------------------


_CONSTANTS = (FlSymbol, FlLiteralTerm)


def _literal_vars(x, out: Set[str]):
    """Collect the variables of a literal, class expression or term."""
    if type(x) is FlVariable:
        out.add(x.name)
    elif isinstance(x, Node):
        for part in x._fields:
            y = getattr(x, part)
            for e in y if type(y) is tuple else (y,):
                _literal_vars(e, out)


def literal_vars(lit: FlLit) -> Set[str]:
    out: Set[str] = set()
    _literal_vars(lit, out)
    return out


def _positive_vars(body: Sequence[FlLit]) -> Set[str]:
    """The variables of the positive literals of a rule body."""
    out: Set[str] = set()
    for lit in body:
        if not isinstance(lit, (FlNaf, FlNeq, FlFormat)):
            _literal_vars(lit, out)
    return out


def _is_ground(fact: FlLit) -> bool:
    """Whether a fact has no variables; constant parts skip the walk."""
    for part in fact._fields:
        x = getattr(fact, part)
        if type(x) is Atom:
            x = x.term
        if type(x) not in _CONSTANTS:
            return not literal_vars(fact)
    return True


def load_program(program: FlProgram) -> KnowledgeBase:
    """Index rules and facts; reject unsafe or term-inventing rules and
    facts the store cannot hold."""
    rules: List[FlRule] = []
    base_facts: Dict[Tuple[object, tuple], None] = {}
    signatures: List[FlSignature] = []
    equivalences: List[FlEquiv] = []
    checker: List[FlRule] = []
    for rule in program.rules:
        head = rule.head
        if is_checker_rule(rule):
            checker.append(rule)
            continue
        if rule.is_fact:
            if not _is_ground(head):
                raise EngineError("non-range-restricted",
                                  f"fact with variables: {print_literal(head)}")
            if isinstance(head, FlSignature):
                signatures.append(head)
            elif isinstance(head, FlEquiv):
                equivalences.append(head)
            else:
                base_facts[_head(head)] = None
            continue
        if isinstance(head, (FlSignature, FlEquiv)):
            raise EngineError("unsupported-rule",
                              "signatures and equivalences cannot be derived "
                              "by rules")
        if any(isinstance(a, FlList) and literal_vars(a)
               for a in _args(head)):
            # lists with variables in rule heads would invent new terms
            raise EngineError("function-symbols-unsupported",
                              f"non-ground list in head: {print_literal(head)}")
        head_vars, pos_vars = literal_vars(head), _positive_vars(rule.body)
        if not head_vars <= pos_vars:
            raise EngineError(
                "non-range-restricted",
                f"head variables {sorted(head_vars - pos_vars)} not bound by "
                f"a positive body literal in: {print_literal(head)}",
            )
        for lit in rule.body:
            naf_vars = literal_vars(lit) if isinstance(lit, FlNaf) else set()
            if not naf_vars <= pos_vars:
                raise EngineError(
                    "non-range-restricted",
                    f"negated variables {sorted(naf_vars - pos_vars)} not "
                    f"bound by a positive body literal")
        rules.append(rule)
    return KnowledgeBase(rules, base_facts, signatures, equivalences, checker,
                         dict(program.prefixes))


# --- stratification ----------------------------------------------------------
#
# A node per relation: ``('isa', C)`` for the members of class C, ``('sub',)``,
# ``('attr',)``, ``('pred', p)``, and ``ANY`` for the memberships written by a
# rule with a variable class in its head.  A relation sits at or above each one
# it is derived from, inheritance along ``::`` and ``_object`` included, and
# strictly above each one it reads under negation (Apt, Blair, Walker 1988).

ANY = (ISA, None)
_OBJECT_KEY = (ISA, OBJECT.name)


def _class_key(t: Optional[FlTerm]):
    """Node of a class's members; ``None`` (every class) unless it is named."""
    if t is None or isinstance(t, FlVariable):
        return None
    return ISA, t.name if isinstance(t, FlSymbol) else print_term(t)


def _reads(e, neg: bool, out: list) -> list:
    """Add (node, negated?) for each relation a conjunction, literal or class
    expression reads; the subtrahend of a difference is read negated."""
    if isinstance(e, tuple):
        for x in e:
            _reads(x, neg, out)
    elif isinstance(e, FlNaf):
        _reads(e.inner, True, out)
    elif isinstance(e, FlIsA):
        _reads(e.cls, neg, out)
    elif isinstance(e, (FlUnion, FlIntersection, FlDifference)):
        _reads(e.a, neg, out)
        _reads(e.b, neg or isinstance(e, FlDifference), out)
    elif isinstance(e, Atom):
        out.append((_class_key(e.term), neg))
    elif isinstance(e, FlPred):
        out.append((("pred", e.name), neg))
    elif type(e) in _FAMILY:
        out.append(((_FAMILY[type(e)],), neg))
    return out


def _makes_individuals(rule: FlRule) -> bool:
    """Whether the head can put a new individual in the store: a constant, or
    a variable no positive body membership or attribute value binds."""
    head = rule.head
    if isinstance(head, FlPred):
        return (head.name, len(head.args)) == ("oneOf", 2)
    terms = (head.obj,) if isinstance(head, FlIsA) else \
        (head.obj, head.value) if isinstance(head, FlAttrValue) else ()
    bound = {t for lit in rule.body if isinstance(lit, (FlIsA, FlAttrValue))
             for t in (lit.obj, getattr(lit, "value", None))}
    return any(not isinstance(t, FlVariable) or t not in bound for t in terms)


def _reach(start, edges) -> Set:
    """The nodes a path of one edge or more leads to from ``start``;
    ``edges`` maps a node to its (node, label) pairs."""
    seen, work = set(), [start]
    while work:
        new = {node for node, _ in edges.get(work.pop(), ())} - seen
        seen |= new
        work.extend(new)
    return seen


def _negation_cycle(users: Dict[object, list]):
    """Raise ``non-stratified-program`` naming the relations of a strongly
    connected component that holds a negated edge."""
    back: Dict[object, list] = {node: [] for node in users}
    for src, readers in users.items():
        for dst, _ in readers:
            back[dst].append((src, False))
    dst = next(dst for src, readers in users.items() for dst, neg in readers
               if neg and src in _reach(dst, users))
    cycle = sorted(map(str, _reach(dst, users) & _reach(dst, back)))
    raise EngineError("non-stratified-program",
                      "negation cycle through " + ", ".join(cycle))


def _stratify(rules: Sequence[FlRule], facts: Iterable[Tuple[object, tuple]]
              ) -> Stratification:
    users: Dict[object, List[Tuple[object, bool]]] = {_OBJECT_KEY: []}
    every: List[Tuple[object, bool]] = []  # the readers of every class

    def edge(src, dst, neg=False):
        users.setdefault(dst, [])
        (users.setdefault(src, []) if src else every).append((dst, neg))

    heads = [_reads(rule.head, False, [])[0][0] or ANY for rule in rules]
    for rule, key in zip(rules, heads):
        users.setdefault(key, [])  # a body may read no relation
        for src, neg in _reads(rule.body, False, []):
            edge(src, key, neg)
        if isinstance(rule.head, FlSubClass):
            # the members of S join T; a variable S is below the class S2 of
            # a body literal ``?S::S2``
            s, t = _expr_term(rule.head.sub), _expr_term(rule.head.super)
            if isinstance(s, FlVariable):
                s = next((_expr_term(lit.super) for lit in rule.body
                          if isinstance(lit, FlSubClass) and lit.sub == Atom(s)
                          ), None)
            edge(key, _class_key(t) or ANY)
            edge(_class_key(s), _class_key(t) or ANY)
        if _makes_individuals(rule):
            edge(key, _OBJECT_KEY)
    for s, t in (args for rel, args in facts if rel == SUB):
        edge(_class_key(s), _class_key(t))
    classes = [node for node in users if node[0] == ISA and node != ANY]
    for c in classes:
        users[c].extend(every)
    users.get(ANY, []).extend((c, False) for c in classes)

    level = dict.fromkeys(users, 0)
    work = list(users)
    while work:
        src = work.pop()
        for dst, neg in users[src]:
            if level[src] + neg > level[dst]:
                # a simple path has fewer negated edges than there are nodes
                if level[src] + neg >= len(level):
                    _negation_cycle(users)
                level[dst] = level[src] + neg
                work.append(dst)
    return Stratification(tuple(
        tuple(r for r, key in zip(rules, heads) if level[key] == lv)
        for lv in sorted({level[key] for key in heads})))


def stratify(kb: KnowledgeBase) -> Stratification:
    """The KB's strata, lowest first; a rule runs in its head's stratum."""
    if kb._stratification is None:
        kb._stratification = _stratify(kb.rules, kb.base_facts)
    return kb._stratification


# --- compiled joins ----------------------------------------------------------
#
# A conjunction compiles once into a tuple of steps over an environment: a
# list with one slot per variable, ``None`` while unbound.  A step is a
# generator function of (env, store, delta) that binds slots for each of its
# solutions in turn, yields, and unbinds them once exhausted.  A body
# argument compiles to its slot (a variable), to a tuple of arguments (a
# list with variables in it) or to itself (any other term).


def _value(a, env) -> Optional[FlTerm]:
    """The term an argument denotes under ``env``; ``None`` if unbound."""
    if type(a) is int:
        return env[a]
    if type(a) is tuple:
        elements = tuple(_value(e, env) for e in a)
        return None if any(e is None for e in elements) else FlList(elements)
    return a


def _match(a, value: FlTerm, env, bound: List[int]) -> bool:
    """Unify an argument with a ground term; newly bound slots go to
    ``bound``."""
    if type(a) is int:
        if env[a] is None:
            env[a] = value
            bound.append(a)
            return True
        return env[a] == value
    if type(a) is tuple:
        return (isinstance(value, FlList) and len(value.elements) == len(a)
                and all(_match(x, y, env, bound)
                        for x, y in zip(a, value.elements)))
    return a == value


def _scan(rel_key, args: tuple, use_delta: bool):
    """A positive literal over a stored relation, or over the round's new
    facts of it.  The bound arguments select the index to probe."""
    slots = [a for a in args if type(a) is int]
    # every argument is a ground term or a variable occurring once
    simple = len(slots) == len(set(slots)) and tuple not in map(type, args)

    def run(env, store, delta):
        rel = (delta if use_delta else store.relations).get(rel_key)
        if rel is None:
            return
        positions, key, free = [], [], []
        for p, a in enumerate(args):
            v = _value(a, env)
            if v is None:
                free.append((p, a))
            else:
                positions.append(p)
                key.append(v)
        if not free:
            if tuple(key) in rel.facts:
                yield
            return
        facts = rel.lookup(tuple(positions),
                           key[0] if len(key) == 1 else tuple(key)) \
            if positions else rel.facts
        if simple:
            for t in facts:
                for p, s in free:
                    env[s] = t[p]
                yield
            for _, s in free:
                env[s] = None
            return
        for t in facts:
            bound: List[int] = []
            if all(_match(a, t[p], env, bound) for p, a in free):
                yield
            for s in bound:
                env[s] = None
    return run


def _alt(*plans):
    """Alternative conjunctions: two for a union class, one for an
    intersection or difference, none for a literal that never holds."""
    def run(env, store, delta):
        for plan in plans:
            for _ in _solve(plan, env, store, delta):
                yield
    return run


def _not(plan: tuple, check: tuple = ()):
    """Negation as failure; ``check`` holds the (slot, name) pairs that must
    be bound when it runs."""
    def run(env, store, delta):
        for s, name in check:
            if env[s] is None:
                raise EngineError("unsafe-goal",
                                  f"unbound variable ?{name} under negation")
        if not any(True for _ in _solve(plan, list(env), store, None)):
            yield
    return run


def _neq(a, b):
    def run(env, store, delta):
        x, y = _value(a, env), _value(b, env)
        if x is None or y is None:
            raise EngineError("unsafe-goal", "unbound variable in disequality")
        if x != y:
            yield
    return run


def _member(item, coll):
    def run(env, store, delta):
        items = _value(coll, env)
        for e in items.elements if isinstance(items, FlList) else ():
            bound: List[int] = []
            if _match(item, e, env, bound):
                yield
            for s in bound:
                env[s] = None
    return run


def _solve(steps: tuple, env: list, store: FactStore, delta,
           i: int = 0) -> Iterable[list]:
    if not steps:
        yield env
        return
    for _ in steps[i](env, store, delta):
        if i + 1 == len(steps):
            yield env
        else:
            yield from _solve(steps, env, store, delta, i + 1)


def _arg(t: FlTerm, slots: Dict[str, int]):
    if isinstance(t, FlVariable):
        return slots.setdefault(t.name, len(slots))
    if isinstance(t, FlList):
        parts = tuple(_arg(e, slots) for e in t.elements)
        if any(type(p) in (int, tuple) for p in parts):
            return parts
    return t


def _expr_term(e: FlClassExpr) -> Optional[FlTerm]:
    return e.term if isinstance(e, Atom) else None


def _isa_step(obj, cls: FlClassExpr, slots, use_delta: bool):
    if isinstance(cls, Atom):
        return _scan(ISA, (obj, _arg(cls.term, slots)), use_delta)
    if isinstance(cls, FlUnion):
        return _alt((_isa_step(obj, cls.a, slots, use_delta),),
                    (_isa_step(obj, cls.b, slots, use_delta),))
    if isinstance(cls, FlIntersection):
        a, b = (_isa_step(obj, cls.a, slots, False),
                _isa_step(obj, cls.b, slots, False))
        if not use_delta:
            return _alt((a, b))
        # a new member of either operand can complete the intersection
        return _alt((_isa_step(obj, cls.a, slots, True), b),
                    (a, _isa_step(obj, cls.b, slots, True)))
    # a difference, the last kind of class expression
    return _alt((_isa_step(obj, cls.a, slots, use_delta),
                 _not((_isa_step(obj, cls.b, slots, False),))))


def _compile_literal(lit: FlLit, slots: Dict[str, int], use_delta: bool,
                     needs: Set[str]):
    if isinstance(lit, FlIsA):
        return _isa_step(_arg(lit.obj, slots), lit.cls, slots, use_delta)
    args = _args(lit)
    if args is not None:  # ``::``, an attribute or a predicate
        if any(a is None for a in args):  # a compound class in ``::``
            return _alt()
        return _scan(_relation_of(lit), tuple(_arg(a, slots) for a in args),
                     use_delta)
    if isinstance(lit, FlNaf):
        return _not(_compile_conj(lit.inner, slots, bound=needs),
                    tuple((_arg(FlVariable(v), slots), v)
                          for v in sorted(needs)))
    if isinstance(lit, FlNeq):
        return _neq(_arg(lit.a, slots), _arg(lit.b, slots))
    if isinstance(lit, FlMember):
        return _member(_arg(lit.item, slots), _arg(lit.collection, slots))
    raise EngineError("unsupported-literal",
                      f"cannot evaluate {print_literal(lit)}")


def _compile_conj(literals: Sequence[FlLit], slots: Dict[str, int],
                  delta_at: Optional[int] = None,
                  bound: Iterable[str] = ()) -> tuple:
    """Join plan of a conjunction, left to right.  A negation or disequality
    waits for its variables, and a ``member`` literal for its list's, to be
    bound (by ``bound`` or a literal before it); it goes in once they are,
    or at the end.  A variable that occurs in no literal but one negation
    is local to it.  The literal at ``delta_at`` reads only the new facts of
    the round and goes first, so the pass starts from them."""
    steps, waiting = [], []
    bound = set(bound)
    order = range(len(literals))
    if delta_at is not None:
        order = [delta_at, *order[:delta_at], *order[delta_at + 1:]]
    for i in order:
        lit = literals[i]
        if isinstance(lit, FlFormat):
            continue
        needs = literal_vars(lit)
        if isinstance(lit, FlNaf):
            needs &= set().union(*map(literal_vars,
                                      literals[:i] + literals[i + 1:]))
        waits = literal_vars(lit.collection) if isinstance(lit, FlMember) \
            else needs if isinstance(lit, (FlNaf, FlNeq)) else set()
        waiting.append((lit, needs, waits, i))
        # place each literal whose wait is over, the earliest first
        while ready := [w for w in waiting if w[2] <= bound]:
            waiting.remove(ready[0])
            lit, needs, _, j = ready[0]
            steps.append(_compile_literal(lit, slots, j == delta_at, needs))
            if isinstance(lit, (FlSubClass, FlAttrValue, FlPred, FlMember)) \
                    or (isinstance(lit, FlIsA) and isinstance(lit.cls, Atom)):
                bound |= needs
    steps.extend(_compile_literal(lit, slots, False, needs)
                 for lit, needs, _, _ in waiting)
    return tuple(steps)


_PARAM = object()  # where ``_split`` took a constant out


def _split(x, consts: List[FlTerm]):
    """The shape of a conjunction or a part of one as nested tuples, with
    ``_PARAM`` in place of each constant, which goes to ``consts``.  A node
    is split by its compared fields (``Node._values``), so a predicate's
    presentational ``quoted`` is left out of its shape."""
    kind = type(x)
    if kind is tuple or kind is list:
        return tuple([_split(e, consts) for e in x])
    if kind is FlSymbol or kind is FlLiteralTerm:
        consts.append(x)
        return _PARAM
    if kind is FlVariable:
        return kind, x.name
    fields = getattr(kind, "_fields", None)
    if fields is None:  # a predicate name, a naf style, a bound
        return x
    if len(fields) == 1:  # a lone field is its own value
        return kind, _split(x._values(x), consts)
    return (kind, *[_split(e, consts) for e in x._values(x)])


def _build(shape, params: List[str]):
    """The conjunction of a shape, with a new variable for each constant;
    their names, which F-logic text cannot spell, go to ``params``."""
    if shape is _PARAM:
        params.append(f"#{len(params)}")
        return FlVariable(params[-1])
    if type(shape) is not tuple:
        return shape
    if shape and isinstance(shape[0], type):
        return shape[0](*[_build(s, params) for s in shape[1:]])
    return tuple([_build(s, params) for s in shape])


class _Plan:
    """A shape compiled: the plan of a full pass and, on first use by a rule,
    the (trigger, plan) of each delta pass.  Its own variables, sorted, are the
    ``names`` that take the first ``slots``, and ``first`` (compiled on first
    use by a checker) has each variable in the order the plan binds it.  A
    goal is ``unsafe`` if a negated literal has a variable that no positive
    literal before it binds."""

    def __init__(self, shape: tuple):
        self.params: List[str] = []
        self.literals = literals = _build(shape, self.params)
        self.names = sorted(set().union(*map(literal_vars, literals))
                            - set(self.params))
        self.slots = {v: i for i, v in enumerate(self.names + self.params)}
        self.full = _compile_conj(literals, self.slots, bound=self.params)
        bound, self.unsafe = set(self.params), False
        for lit in literals:
            if isinstance(lit, (FlNaf, FlNeq)):
                self.unsafe |= not literal_vars(lit) <= bound
            else:
                bound |= literal_vars(lit)

    @cached_property
    def deltas(self) -> tuple:
        params = set(self.params)
        return tuple((_trigger(self.literals, i, self.slots, params),
                      _compile_conj(self.literals, self.slots, i, self.params))
                     for i, lit in enumerate(self.literals)
                     if _relation_of(lit) is not None)

    @cached_property
    def first(self) -> Dict[str, int]:
        first: Dict[str, int] = {}
        _compile_conj(self.literals, first, bound=self.params)
        return first


_PLANS: Dict[tuple, _Plan] = {}


def _plan(literals: Sequence[FlLit]) -> Tuple[_Plan, list]:
    """The plan of a conjunction's shape (its constants taken out, each a
    parameter slot after its own variables) and an environment holding the
    constants.  An error names them; a shape that fails is not kept."""
    consts: List[FlTerm] = []
    shape = _split(literals, consts)
    plan = _PLANS.get(shape)
    if plan is None:
        try:
            plan = _PLANS[shape] = _Plan(shape)
        except EngineError:
            _compile_conj(literals, {})  # the error again, with its constants
            raise
    return plan, [None] * len(plan.names) + consts


_FAMILY = {FlIsA: ISA, FlSubClass: SUB, FlAttrValue: ATTR}


def _relation_of(lit: FlLit):
    """The stored relation a literal reads or writes, if any."""
    if isinstance(lit, FlPred):
        return (lit.name, len(lit.args))
    return _FAMILY.get(type(lit))


def _args(lit: FlLit) -> Optional[tuple]:
    """The argument terms of a literal in its stored relation, with ``None``
    for a compound class; ``None`` for a literal of no stored relation."""
    if isinstance(lit, FlIsA):
        return lit.obj, _expr_term(lit.cls)
    if isinstance(lit, FlSubClass):
        return _expr_term(lit.sub), _expr_term(lit.super)
    if isinstance(lit, FlAttrValue):
        return lit.obj, lit.prop, lit.value
    return lit.args if isinstance(lit, FlPred) else None


def _head(lit: FlLit) -> Tuple[object, tuple]:
    """The relation and argument terms of a head literal."""
    kind = type(lit)  # first the two shapes of nearly every fact
    if kind is FlAttrValue:
        return ATTR, (lit.obj, lit.prop, lit.value)
    if kind is FlIsA and type(lit.cls) is Atom:
        return ISA, (lit.obj, lit.cls.term)
    args = _args(lit)
    if args is None:
        raise EngineError("unsupported-rule", f"bad head {print_literal(lit)}")
    if any(a is None for a in args):
        raise EngineError("unsupported-rule",
                          "compound class expression in rule head")
    return _relation_of(lit), args


def _trigger(literals: tuple, i: int, slots: Dict[str, int],
             params: Set[str]) -> tuple:
    """What the delta plan that starts at the positive literal ``i`` of a
    shape is filed under, with the slot of each constant in place of its
    value (see ``_compiled_strata``): the literal's relation, the positions
    of its constant (symbol or literal) arguments and their slots, and the
    slot of a class or ``None``.  Any new fact of the relation runs the plan
    of a literal with no constant argument, such as ``?X:(A ; B)``,
    ``?X:?C`` or ``l([a, b])``.  The class is that of the first ``?X:C``
    literal, C a constant, when the plan starts at an attribute literal
    with the subject ``?X``; a new edge then runs the plan only if its
    subject is a member of C."""
    lit = literals[i]
    args = _args(lit)
    positions = tuple(p for p, a in enumerate(args)
                      if type(a) is FlVariable and a.name in params)
    guard = None
    if type(lit) is FlAttrValue and type(lit.obj) is FlVariable and \
            lit.obj.name not in params:
        guard = next((slots[c.name] for g in literals if type(g) is FlIsA
                      and g.obj == lit.obj and type(c := _expr_term(g.cls))
                      is FlVariable and c.name in params), None)
    return (_relation_of(lit), positions,
            tuple(slots[args[p].name] for p in positions), guard)


def _closure(rule: FlRule) -> Optional[tuple]:
    """(None, P) for ``?X[P -> ?Z] :- ?X[P -> ?Y], ?Y[P -> ?Z]`` with P a
    constant, ((g, 1), None) for ``?X[?P -> ?Z] :- g(?P), ?X[?P -> ?Y],
    ?Y[?P -> ?Z]``, either with its two attribute literals in either order,
    and None for any other rule.  ``_assert`` keeps such a rule's property
    closed, so it is never joined."""
    head, body = rule.head, rule.body
    if type(head) is not FlAttrValue or len(body) not in (2, 3) or \
            type(body[-1]) is not FlAttrValue:
        return None
    x, p, z, last = head.obj, head.prop, head.value, body[-1]
    y = last.value if last.obj == x else last.obj
    if {*body[-2:]} != {FlAttrValue(x, p, y), FlAttrValue(y, p, z)} or \
            any(type(v) is not FlVariable for v in (x, y, z)) or \
            len({x, y, z, p}) < 4:
        return None
    if len(body) == 2:
        return (None, p) if type(p) in _CONSTANTS else None
    guard = body[0]
    if type(p) is FlVariable and type(guard) is FlPred and guard.args == (p,):
        return (guard.name, 1), None
    return None


class _Rule:
    """A rule compiled for saturation: its body's plan, whose delta plans
    give its triggers, the environment that holds its constants, the head
    relation and the head arguments (a slot per variable)."""

    def __init__(self, rule: FlRule):
        self.plan, self.env = _plan(rule.body)
        self.rel, args = _head(rule.head)
        self.head = tuple(self.plan.slots[t.name]
                          if isinstance(t, FlVariable) else t for t in args)

    def instantiate(self, env: list) -> tuple:
        out = []
        for a in self.head:
            if type(a) is int:
                if env[a] is None:
                    raise EngineError(
                        "non-range-restricted",
                        f"unbound head variable ?{self.plan.names[a]}")
                a = env[a]
            out.append(a)
        return tuple(out)


# --- saturation --------------------------------------------------------------


def _assert(store: FactStore, facts: Iterable[Tuple[object, tuple]],
            added: Optional[Dict[object, Relation]] = None):
    """Add facts and their structural consequences; return ``added`` with
    the new ones put in it by relation, if it is given.

    Each fact is closed against the store once, when it is added, so
    ``sub`` stays transitively closed and ``isa`` closed under it.  A new
    ``sub`` edge (a, c) adds every edge from a or a class below it to c or
    a class above it, and gives each new edge's upper class the members of
    its lower one.  A new ``isa`` fact adds the superclasses of its class,
    and a new individual gets its ``_object`` membership.  The ``attr``
    edges of a closed property are kept closed the way ``sub`` is; when a
    guard first closes a property, each node gets an edge to every node it
    reaches.
    """
    isa, sub, attr = (store.relations[k] for k in (ISA, SUB, ATTR))
    closed = store.closed

    def close(x, p, y):
        """Add an edge of ``p`` from x or a node with one into x to y or a
        node y has one to."""
        ends = [y] + [z for _, _, z in attr.lookup((0, 1), (y, p))]
        for w in [x] + [w for w, _, _ in attr.lookup((1, 2), (p, x))]:
            for z in ends:
                add(ATTR, (w, p, z))

    def add(key, t) -> bool:
        if not store.add(key, t):
            return False
        rel = added.get(key)
        if rel is None:
            rel = added[key] = Relation()
        rel.add(t)
        return True
    if added is None:  # the base facts: nothing reads what was new
        add = store.add

    work = list(facts)
    while work:
        key, t = work.pop()
        if not add(key, t):
            continue
        members: Sequence[FlTerm] = ()
        if key == ISA:
            x, c = t
            members = (x,)
            for _, d in sub.lookup((0,), c):
                add(ISA, (x, d))
        elif key == SUB:
            a, c = t
            uppers = [c] + [d for _, d in sub.lookup((0,), c)]
            for x in [a] + [b for b, _ in sub.lookup((1,), a)]:
                for y in uppers:
                    if (x, y) == t or add(SUB, (x, y)):
                        for m, _ in isa.lookup((1,), x):
                            add(ISA, (m, y))
        elif key == ATTR:
            members = (t[0], t[2])
            if t[1] in closed:
                close(*t)
        elif key in store.guards and t[0] not in closed:
            closed.add(t[0])
            edges: Dict[FlTerm, list] = {}
            for x, p, y in attr.facts:
                if p == t[0]:
                    edges.setdefault(x, []).append((y, p))
            for x in edges:
                for y in _reach(x, edges):
                    add(ATTR, (x, t[0], y))
        elif key == ("oneOf", 2) and isinstance(t[1], FlList):
            members = t[1].elements
        for x in members:
            if (x, OBJECT) not in isa.facts:
                work.append((ISA, (x, OBJECT)))
    return added


def _compiled_strata(kb: KnowledgeBase) -> List[tuple]:
    """Each stratum's compiled rules, and its delta plans filed by trigger:
    ``{(relation, positions, guarded): {values: plans}}``, where ``plans``
    is a list of (rule, plan) pairs, or a dict of them by class if
    ``guarded``.  A rule's triggers are its plan's, each slot read in the
    rule's environment: one value for one position, a tuple for several."""
    if kb._compiled is None:
        strata = []
        for stratum in stratify(kb).strata:
            rules = [_Rule(r) for r in stratum if not _closure(r)]
            filed: Dict[tuple, dict] = {}
            for rule in rules:
                env = rule.env
                for (rel, positions, slots, guard), plan in rule.plan.deltas:
                    plans = filed.setdefault(
                        (rel, positions, guard is not None), {})
                    values = env[slots[0]] if len(slots) == 1 else \
                        tuple(env[s] for s in slots)
                    if guard is not None:
                        plans = plans.setdefault(values, {})
                        values = env[guard]
                    plans.setdefault(values, []).append((rule, plan))
            strata.append((rules, filed))
        kb._compiled = strata
    return kb._compiled


def _fired(filed: Dict[tuple, dict], delta: Dict[object, Relation],
           store: FactStore) -> List[tuple]:
    """The filed delta plans whose trigger a new fact matches: each one
    filed under values that new facts hold at the filed positions (any new
    fact of the relation, for no positions) and, if it is filed under a
    class too, whose subject is a member of that class in the store (one
    set probe per subject and filed class)."""
    fired: List[tuple] = []
    isa = store.isa
    for (key, positions, guarded), by_values in filed.items():
        rel = delta.get(key)
        if rel is None:
            continue
        index = rel.index(positions) if positions else {(): rel.facts}
        for values in by_values.keys() & index.keys():
            plans = by_values[values]
            if guarded:
                classes = {c for x in {t[0] for t in index[values]}
                           for c in plans if (x, c) in isa}
                plans = [run for c in classes for run in plans[c]]
            fired += plans
    return fired


def _run_stratum(stratum: tuple, store: FactStore,
                 delta: Optional[Dict[object, Relation]]):
    """Run a stratum's rules to their fixpoint, semi-naively: a rule runs
    once per positive body literal whose trigger the previous round's new
    facts match, with that literal reading only them.  The first round
    reads ``delta`` if given (the store was closed under the stratum before
    those facts came), and otherwise makes one pass over the whole store."""
    rules, filed = stratum
    runs = [(rule, rule.plan.full) for rule in rules] if delta is None \
        else _fired(filed, delta, store)
    while True:
        new: Set[Tuple[object, tuple]] = set()
        for rule, plan in runs:
            for env in _solve(plan, list(rule.env), store, delta):
                new.add((rule.rel, rule.instantiate(env)))
        delta = _assert(store, new, {})
        if not delta:
            return
        runs = _fired(filed, delta, store)


def saturate(kb: KnowledgeBase) -> FactStore:
    """The KB's saturated store: its least model, computed stratum by
    stratum.

    The store is kept on the KB.  Facts inserted since it was built are
    added to it in place, and the rules run from them only, when no rule
    body reads a relation under negation: the program then has a single
    stratum and its least model only grows with more facts.  A program with
    negation is saturated again from its base facts instead.
    """
    store, pending = kb._store, kb._pending
    if store is not None and not pending:
        return store
    strata = _compiled_strata(kb)
    # an error below leaves no half-updated store behind
    kb._store, kb._pending = None, []
    if store is not None and not kb._negation:
        delta = _assert(store, pending, {})
    else:
        store, delta = FactStore(kb._closures), None
        _assert(store, kb.base_facts)
    for stratum in strata:
        _run_stratum(stratum, store, delta)
    kb._store = store
    return store


# --- queries -----------------------------------------------------------------
#
# A goal runs its shape's plan, compiled once per process and shared by every
# KB (see ``_plan``): ``i:C`` for any ``i`` and ``C`` fills in its constants.


def _prepare(kb: KnowledgeBase, goal, output: Optional[str] = None
             ) -> Tuple[_Plan, Iterable[list]]:
    """The plan of a literal or conjunction and, lazily, its solutions as
    slot lists.  A goal without the variable ``output`` is refused before
    the store is saturated, an unsafe goal after."""
    plan, env = _plan(goal if isinstance(goal, (list, tuple)) else (goal,))
    if output is not None and output not in plan.names:
        raise EngineError("unsafe-goal",
                          f"?{output} does not occur in the goal")
    store = kb.store
    if plan.unsafe:
        raise EngineError("unsafe-goal",
                          "unbound variable under negation in goal")
    return plan, _solve(plan.full, env, store, None)


def _distinct(names: List[str], envs: Iterable[list]):
    """The solutions whose printed form is new, in order, each as its terms
    (a variable for an unbound name) and their printed forms."""
    k = len(names)
    printed: set = set()  # printed forms: one string, or a tuple of them
    if k == 1:  # no tuple to build before the test
        for env in envs:
            t = env[0]
            key = "?" + names[0] if t is None else print_term(t)
            if key not in printed:
                printed.add(key)
                yield (FlVariable(names[0]) if t is None else t,), (key,)
        return
    for env in envs:
        terms = tuple(env[:k])
        if None in terms:
            terms = tuple(FlVariable(v) if t is None else t
                          for v, t in zip(names, terms))
        key = tuple(map(print_term, terms))
        if key not in printed:
            printed.add(key)
            yield terms, key


def query_goal(kb: KnowledgeBase, goal) -> List[Binding]:
    """All substitutions satisfying a literal or conjunction of literals,
    one per printed form."""
    prepared, envs = _prepare(kb, goal)
    return [dict(zip(prepared.names, terms))
            for terms, _ in _distinct(prepared.names, envs)]


def holds(kb: KnowledgeBase, goal) -> bool:
    """True when the goal has a solution; stops at the first."""
    return next(_prepare(kb, goal)[1], None) is not None


def collect_set(kb: KnowledgeBase, template_var: str, goal) -> List[FlTerm]:
    """Deduplicated values of one variable over all solutions, sorted by
    printed form; of values that print alike, the one in the last solution
    that ``query_goal`` keeps."""
    prepared, envs = _prepare(kb, goal, template_var)
    i = prepared.names.index(template_var)
    values = {key[i]: terms[i]
              for terms, key in _distinct(prepared.names, envs)}
    return [values[k] for k in sorted(values)]


# --- constraint checking -----------------------------------------------------


def _fmt(template: str, args) -> str:
    """Fill the ``~w`` holes in order; a filled-in term is not scanned."""
    holes = template.split("~w")
    filled = [print_term(a) if isinstance(a, FlTerm) else str(a) for a in args]
    return "".join(h + f for h, f in zip(holes, filled + [""]))


# Library checkers run natively: ``cardinality_violation/4`` is defined
# nowhere, an inverse-functional clash is one message per property and value
# (not per pair of subjects), and ``check_all_constraints`` calls the others.
NATIVE_CHECKERS = frozenset({
    "check_cardinality_constraints", "check_inverseFunctional_constraints",
    "check_all_constraints"})


class _Checker:
    """A ``check_*`` rule compiled: the plan of its body and the environment
    that holds its constants, the slots of its positively bound variables in
    the order the plan binds them, and its ``format`` template and args."""

    def __init__(self, rule: FlRule):
        self.name = rule.head.name
        formats = [lit for lit in rule.body if isinstance(lit, FlFormat)]
        pos_vars = _positive_vars(rule.body)
        if len(formats) != 1 or not literal_vars(formats[0]) <= pos_vars:
            raise EngineError("unsupported-rule", f"{self.name} needs one "
                              "format literal whose variables a positive "
                              "body literal binds")
        self.plan, self.env = _plan(rule.body)
        self.bound = [self.plan.slots[v] for v in self.plan.first
                      if v in pos_vars]
        self.template = formats[0].message
        self.args = tuple(_arg(a, self.plan.slots) for a in formats[0].args)

    def violations(self, store: FactStore) -> Iterable[ConstraintViolation]:
        """One violation per distinct solution, in printed order."""
        found = {tuple(env[s] for s in self.bound): list(env) for env in
                 _solve(self.plan.full, list(self.env), store, None)}
        for key in sorted(found, key=lambda t: tuple(map(print_term, t))):
            yield ConstraintViolation(self.name, _fmt(
                self.template, [_value(a, found[key]) for a in self.args]))


# the rest of the library, solved from its text; the plans read no store
_LIBRARY = tuple(_Checker(rule) for rule in CHECKER_RULES
                 if rule.head.name not in NATIVE_CHECKERS)


def _members(cls: FlClassExpr, store: FactStore) -> List[FlTerm]:
    """The members of a class expression, sorted by printed form."""
    if type(cls) is Atom:
        found = [x for x, _ in store.relations[ISA].lookup((1,), cls.term)]
    else:
        plan, env = _plan((FlIsA(FlVariable("X"), cls),))
        found = {env[0] for _ in _solve(plan.full, env, store, None)}
    return sorted(found, key=print_term)


def _is_member(x: FlTerm, cls: FlClassExpr, store: FactStore) -> bool:
    if type(cls) is Atom:
        return (x, cls.term) in store.isa
    plan, env = _plan((FlIsA(FlVariable("X"), cls),))
    env[0] = x
    return next(_solve(plan.full, env, store, None), None) is not None


def run_constraint_checks(kb: KnowledgeBase,
                          check_min_cardinality: bool = False
                          ) -> List[ConstraintViolation]:
    """The violations of the checker library, then those of the program's own
    ``check_*`` rules in rule order, each named after its rule and worded by
    its ``format`` template; all but ``NATIVE_CHECKERS`` run from the text."""
    user = [_Checker(r) for r in kb.checker_rules if r not in CHECKER_RULES]
    store = kb.store
    attr = store.relations[ATTR]
    out: List[ConstraintViolation] = []

    def flag(checker: str, args, template: Optional[str] = None):
        out.append(ConstraintViolation(
            checker, _fmt(template or MESSAGES[checker], args)))

    for checker in _LIBRARY:
        out.extend(checker.violations(store))
    # signatures: cardinality bounds, and range, which no printed rule has
    for sig in kb.signatures:
        for x in _members(sig.cls, store):
            vals = attr.lookup((0, 1), (x, sig.prop))  # one per distinct value
            if sig.card is not None:
                low, high = sig.card
                n = len(vals)
                if (high is not None and n > high) or \
                        (check_min_cardinality and n < low):
                    flag("check_cardinality_constraints",
                         (x, sig.prop, n, low, "*" if high is None else high))
            for v in sorted((v for _, _, v in vals
                             if not _is_member(v, sig.range, store)),
                            key=print_term):
                flag("check_cardinality_constraints",
                     (x, sig.prop, v, print_class_expr(sig.range)), RANGE_MSG)
    # inverse functionality without a declared inverse
    for p in sorted({p for (p,) in store.relations.get(
            ("inverseFunctional", 1), Relation()).facts}, key=print_term):
        by_value: Dict[FlTerm, List[FlTerm]] = {}
        for s, _, v in attr.lookup((1,), p):
            by_value.setdefault(v, []).append(s)
        for v in sorted(by_value, key=print_term):
            subjects = sorted(set(by_value[v]), key=print_term)
            if len(subjects) > 1:
                flag("check_inverseFunctional_constraints",
                     (p, subjects[0], subjects[1], v))
    for checker in user:
        out.extend(checker.violations(store))
    return out


# --- updates -----------------------------------------------------------------


def insert_fact(kb: KnowledgeBase, fact_lit: FlLit) -> KnowledgeBase:
    """Add one ground fact to the base facts as its head, which one lookup
    dedups.  The next ``saturate`` adds it to the saturated store (see
    there); a fact already among the base facts, a signature or an
    equivalence leaves the store as it is.  A fact the store cannot hold, or
    a ``::`` fact that closes a negation cycle, is rejected before the KB
    changes."""
    if not _is_ground(fact_lit):
        raise EngineError("non-ground-insert",
                          f"fact is not ground: {print_literal(fact_lit)}")
    if isinstance(fact_lit, FlSignature):
        kb.signatures.append(fact_lit)
    elif isinstance(fact_lit, (FlIsA, FlSubClass, FlAttrValue, FlPred)):
        head = _head(fact_lit)
        if head not in kb.base_facts:
            if isinstance(fact_lit, FlSubClass) and kb._negation:
                # a new edge of inheritance can reorder the strata
                kb._stratification, kb._compiled = _stratify(
                    kb.rules, (*kb.base_facts, head)), None
            kb.base_facts[head] = None
            kb._pending.append(head)
    elif isinstance(fact_lit, FlEquiv):
        kb.equivalences.append(fact_lit)
    else:
        raise EngineError("non-ground-insert",
                          f"not an insertable fact: {print_literal(fact_lit)}")
    return kb
