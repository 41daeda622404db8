"""The generic integrity-checker library.

Format strings live here so the translator (which prints them into the
output program) and the engine (which substitutes the ``~w`` holes when a
checker fires) agree byte for byte.
"""

from __future__ import annotations

from typing import Tuple

from .flogic import (
    Atom, FlAttrValue, FlFormat, FlIsA, FlMember, FlNaf, FlNeq, FlPred,
    FlRule, FlVariable,
)

DISJOINT_MSG = "[OWL2FLORA] disjointWith constraint violation: ~w disjoint with ~w"
ONEOF_MSG = "[OWL2FLORA] oneOf constraint: extraneous class member ~w : ~w"
SOMEVALUES_MSG = ("[OWL2FLORA] someValuesFrom constraint violation: "
                  "~w:~w and ~w.~w disjoint from ~w")
HASVALUE_MSG = "[OWL2FLORA] hasValue constraint violation: ~w.~w missing value ~w"
CARDINALITY_MSG = ("[OWL2FLORA] cardinality constraint violation: KB is "
                   "inconsistent with the constraints: ~w.~w has ~w distinct "
                   "values, allowed {~w:~w}")
RANGE_MSG = ("[OWL2FLORA] signature range violation: ~w.~w value ~w is not "
             "in class ~w")
INVFUNC_MSG = ("[OWL2FLORA] inverseFunctional constraint violation: "
               "~w maps both ~w and ~w to ~w")

CHECKER_NAMES = (
    "check_disjoint_constraints",
    "check_oneOf_constraints",
    "check_someValuesFrom_constraints",
    "check_hasValue_constraints",
    "check_cardinality_constraints",
    "check_inverseFunctional_constraints",
    "check_all_constraints",
)


def is_checker_rule(rule: FlRule) -> bool:
    """True for a rule that defines an integrity checker (``check_*``)."""
    return isinstance(rule.head, FlPred) and rule.head.name.startswith("check_")


def _v(name: str) -> FlVariable:
    return FlVariable(name)


def _checker_rules() -> Tuple[FlRule, ...]:
    c1, c2, x, y = _v("C1"), _v("C2"), _v("X"), _v("Y")
    return (
        FlRule(
            FlPred("check_disjoint_constraints"),
            (
                FlPred("disjoint_classes", (c1, c2)),
                FlIsA(x, Atom(c1)),
                FlIsA(x, Atom(c2)),
                FlFormat(DISJOINT_MSG, (c1, c2)),
            ),
        ),
        FlRule(
            FlPred("check_oneOf_constraints"),
            (
                FlPred("oneOf", (_v("C"), _v("List"))),
                FlIsA(x, Atom(_v("C"))),
                FlNaf((FlMember(x, _v("List")),), style="not"),
                FlFormat(ONEOF_MSG, (x, _v("C"))),
            ),
        ),
        FlRule(
            FlPred("check_someValuesFrom_constraints"),
            (
                FlPred("someValuesFrom",
                       (_v("Class"), _v("Property"), _v("PropertyClass"))),
                FlIsA(_v("O"), Atom(_v("Class"))),
                FlNaf(
                    (
                        FlAttrValue(_v("O"), _v("Property"), _v("V")),
                        FlIsA(_v("V"), Atom(_v("PropertyClass"))),
                    ),
                    style="naf",
                ),
                FlFormat(SOMEVALUES_MSG,
                         (_v("O"), _v("Class"), _v("O"), _v("Property"),
                          _v("PropertyClass"))),
            ),
        ),
        FlRule(
            FlPred("check_hasValue_constraints"),
            (
                FlPred("hasValue", (_v("Class"), _v("Property"), _v("Value"))),
                FlIsA(_v("O"), Atom(_v("Class"))),
                FlNaf((FlAttrValue(_v("O"), _v("Property"), _v("Value")),),
                      style="not"),
                FlFormat(HASVALUE_MSG, (_v("O"), _v("Property"), _v("Value"))),
            ),
        ),
        FlRule(
            FlPred("check_cardinality_constraints"),
            (
                FlPred("cardinality_violation",
                       (_v("Class"), _v("Property"), _v("O"), _v("N"))),
                FlFormat(CARDINALITY_MSG,
                         (_v("O"), _v("Property"), _v("N"), _v("Low"), _v("High"))),
            ),
        ),
        FlRule(
            FlPred("check_inverseFunctional_constraints"),
            (
                FlPred("inverseFunctional", (_v("P"),)),
                FlAttrValue(x, _v("P"), _v("V")),
                FlAttrValue(y, _v("P"), _v("V")),
                FlNeq(x, y),
                FlFormat(INVFUNC_MSG, (_v("P"), x, y, _v("V"))),
            ),
        ),
        FlRule(
            FlPred("check_all_constraints"),
            tuple(FlPred(name) for name in CHECKER_NAMES[:-1]),
        ),
    )


# The checker-predicate definitions appended to translated programs.  Rules
# are frozen, so every program shares these.
CHECKER_RULES = _checker_rules()
