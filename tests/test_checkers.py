"""Differential test of the integrity checkers.

``run_constraint_checks`` solves most of the checker library from its rule
text and runs the rest natively.  The oracle here gives each printed
checker rule its meaning by brute force: it solves the rule body literal
by literal over the saturated store's relation sets, with no index, and
fills the rule's ``format`` template from each solution.  On top of the
printed rules it adds what the engine documents beyond them: range
violations, minimum cardinality behind ``check_min_cardinality``, the
distinct-value counts of the cardinality checker, and one message per
inverse-functional clash naming the first two sorted subjects.  A
signature's class and range may be class expressions.
"""

import random
import re

from owlfl import engine
from owlfl.checkers import CHECKER_RULES
from owlfl.engine import (
    NATIVE_CHECKERS, load_program, run_constraint_checks,
)
from owlfl.flogic import (
    Atom, FlAttrValue, FlDifference, FlFormat, FlIntersection, FlIsA, FlList,
    FlMember, FlNaf, FlNeq, FlUnion, FlVariable, parse_program,
    print_class_expr, print_term,
)

RANGE_TEMPLATE = ("[OWL2FLORA] signature range violation: ~w.~w value ~w is "
                  "not in class ~w")


def _fill(template, printed):
    """The template with its ``~w`` holes filled in order."""
    printed = iter(printed)
    return re.sub("~w", lambda m: next(printed), template)


def _value(t, binding):
    return binding[t.name] if isinstance(t, FlVariable) else t


def _unify(pattern, t, binding):
    out = dict(binding)
    for p, v in zip(pattern, t):
        if isinstance(p, FlVariable):
            if out.setdefault(p.name, v) != v:
                return None
        elif p != v:
            return None
    return out


def _solutions(body, binding, store):
    """Each extension of ``binding`` that satisfies the conjunction."""
    if not body:
        yield binding
        return
    lit, rest = body[0], body[1:]
    if isinstance(lit, FlFormat):
        yield from _solutions(rest, binding, store)
    elif isinstance(lit, FlNaf):
        if not any(True for _ in _solutions(lit.inner, binding, store)):
            yield from _solutions(rest, binding, store)
    elif isinstance(lit, FlNeq):
        if _value(lit.a, binding) != _value(lit.b, binding):
            yield from _solutions(rest, binding, store)
    elif isinstance(lit, FlMember):
        coll = _value(lit.collection, binding)
        for e in coll.elements if isinstance(coll, FlList) else ():
            b = _unify((lit.item,), (e,), binding)
            if b is not None:
                yield from _solutions(rest, b, store)
    else:
        if isinstance(lit, FlIsA):
            pattern, facts = (lit.obj, lit.cls.term), store.isa
        elif isinstance(lit, FlAttrValue):
            pattern, facts = (lit.obj, lit.prop, lit.value), store.attr
        else:
            rel = store.relations.get((lit.name, len(lit.args)))
            pattern, facts = lit.args, rel.facts if rel else ()
        for t in facts:
            b = _unify(pattern, t, binding)
            if b is not None:
                yield from _solutions(rest, b, store)


def _in(x, cls, store):
    """Whether ``x`` is a member of a class expression."""
    if isinstance(cls, Atom):
        return (x, cls.term) in store.isa
    a, b = _in(x, cls.a, store), _in(x, cls.b, store)
    if isinstance(cls, FlUnion):
        return a or b
    if isinstance(cls, FlIntersection):
        return a and b
    assert isinstance(cls, FlDifference)
    return a and not b


def _format_of(rule):
    return next(lit for lit in rule.body if isinstance(lit, FlFormat))


def oracle_violations(kb, check_min_cardinality):
    store = kb.store
    out = []
    for rule in CHECKER_RULES:
        name = rule.head.name
        if name == "check_all_constraints":
            continue
        fmt = _format_of(rule)
        if name == "check_cardinality_constraints":
            for sig in kb.signatures:
                c, p, r = sig.cls, sig.prop, sig.range
                for x in sorted({x for x, _ in store.isa if _in(x, c, store)},
                                key=print_term):
                    vals = {v for s, q, v in store.attr if (s, q) == (x, p)}
                    if sig.card is not None:
                        low, high = sig.card
                        if (high is not None and len(vals) > high) or \
                                (check_min_cardinality and len(vals) < low):
                            out.append((name, _fill(fmt.message, (
                                print_term(x), print_term(p), str(len(vals)),
                                str(low),
                                "*" if high is None else str(high)))))
                    for v in sorted(vals, key=print_term):
                        if not _in(v, r, store):
                            out.append((name, _fill(RANGE_TEMPLATE, (
                                print_term(x), print_term(p), print_term(v),
                                print_class_expr(r)))))
            continue
        sols = list(_solutions(rule.body, {}, store))
        if name == "check_inverseFunctional_constraints":
            # one message per (property, value): the first two subjects
            first = {}
            for b in sols:
                key = (print_term(b["P"]), print_term(b["V"]))
                pair = (print_term(b["X"]), print_term(b["Y"]))
                if key not in first or pair < first[key][0]:
                    first[key] = (pair, b)
            sols = [first[k][1] for k in sorted(first)]
        else:
            # constraint facts in printed order, then their members
            head, member = rule.body[0], rule.body[1].obj.name
            sols.sort(key=lambda b: (
                tuple(print_term(_value(a, b)) for a in head.args),
                print_term(b[member])))
        for b in sols:
            out.append((name, _fill(fmt.message, [
                print_term(_value(a, b)) for a in fmt.args])))
    return out


CLASSES = ["A", "B", "C", "D", "'e f'"]
INDIVIDUALS = ["a", "b", "c", "'d e'", "x1", "x2"]
VALUES = INDIVIDUALS + ["3", "'s'"]
PROPS = ["p", "q", "'r s'"]


def random_kb(rng):
    """A KB with random memberships, values and ``::`` edges, a rule that
    derives values, and constraints of every kind; some ``oneOf`` facts name
    one individual instead of a list, and some signatures have a compound
    class or range."""
    pick = rng.choice
    lines = [f"{pick(CLASSES)}::{pick(CLASSES)}."
             for _ in range(rng.randint(0, 3))]
    lines += [f"{pick(INDIVIDUALS)}:{pick(CLASSES)}."
              for _ in range(rng.randint(3, 12))]
    lines += [f"{pick(INDIVIDUALS)}[{pick(PROPS)} -> {pick(VALUES)}]."
              for _ in range(rng.randint(3, 14))]
    if rng.random() < 0.5:
        lines.append("?X[q -> ?Y] :- ?Y[p -> ?X].")
    for _ in range(rng.randint(1, 3)):
        members = ", ".join(rng.sample(INDIVIDUALS, rng.randint(0, 3)))
        allowed = pick([f"[{members}]"] * 3 + [pick(INDIVIDUALS)])
        lines += [
            f"disjoint_classes({pick(CLASSES)}, "
            f"{pick(CLASSES + ['_object'])}).",
            f"oneOf({pick(CLASSES)}, {allowed}).",
            f"someValuesFrom({pick(CLASSES)}, {pick(PROPS)}, "
            f"{pick(CLASSES + ['_object'])}).",
            f"hasValue({pick(CLASSES)}, {pick(PROPS)}, {pick(VALUES)}).",
            f"inverseFunctional({pick(PROPS)}).",
            f"{pick(CLASSES + ['(C ; D)', '(A - B)'])}[{pick(PROPS)}"
            f"{pick(['', '{0:1}', '{1:*}', '{1:2}', '{2:2}'])} *=> "
            f"{pick(CLASSES + ['_object', '(A ; B)', '(A , C)', '(B - C)'])}"
            "].",
        ]
    return "\n".join(lines) + "\n"


def test_checks_match_the_printed_library():
    fired, only_min = set(), 0
    for seed in range(300):
        program, diags = parse_program(random_kb(random.Random(seed)))
        assert not diags, [d.message for d in diags]
        kb = load_program(program)
        got = {}
        for min_card in (False, True):
            got[min_card] = [(v.checker, v.message)
                             for v in run_constraint_checks(kb, min_card)]
            assert got[min_card] == oracle_violations(kb, min_card), seed
        fired.update(m.split(":")[0] for _, m in got[False])
        only_min += len(got[True]) > len(got[False])
    assert only_min  # some minimum cardinality fired only behind the flag
    # every kind of violation was planted and found
    assert fired == {
        "[OWL2FLORA] disjointWith constraint violation",
        "[OWL2FLORA] oneOf constraint",
        "[OWL2FLORA] someValuesFrom constraint violation",
        "[OWL2FLORA] hasValue constraint violation",
        "[OWL2FLORA] cardinality constraint violation",
        "[OWL2FLORA] signature range violation",
        "[OWL2FLORA] inverseFunctional constraint violation",
    }


def test_a_name_with_a_hole_is_printed_as_it_is():
    program, _ = parse_program("disjoint_classes('a~w', B).\n"
                               "x:'a~w'.\nx:B.\n")
    assert [v.message for v in run_constraint_checks(load_program(program))] \
        == ["[OWL2FLORA] disjointWith constraint violation: 'a~w' disjoint "
            "with B"]


def test_every_library_checker_is_solved_or_native():
    """A checker added to the library text runs from its text unless the
    engine names it native, so none is skipped silently."""
    names = [rule.head.name for rule in CHECKER_RULES]
    solved = [checker.name for checker in engine._LIBRARY]
    assert NATIVE_CHECKERS <= set(names)
    assert solved == [n for n in names if n not in NATIVE_CHECKERS]
