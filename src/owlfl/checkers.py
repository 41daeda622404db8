"""The generic rule library, written once as F-logic text: the integrity
checkers and the closure rules of transitive and symmetric properties.

The translator appends the checker rules to the programs it emits.  The
engine solves each rule as written, except the cardinality and
inverse-functional rules, which it runs natively with their templates from
``MESSAGES``.  A range violation has no rule here; its message is
``RANGE_MSG``.
"""

from __future__ import annotations

from .flogic import FlFormat, FlPred, FlRule, parse_rules

# The checker-predicate definitions appended to translated programs.  Rules
# are frozen, so every program shares these.
CHECKER_RULES = parse_rules(r"""
check_disjoint_constraints :- disjoint_classes(?C1, ?C2), ?X:?C1, ?X:?C2,
    format(2, '[OWL2FLORA] disjointWith constraint violation: ~w disjoint with ~w', [?C1,?C2])@_prolog(format).
check_oneOf_constraints :- oneOf(?C, ?List), ?X:?C, not(member(?X, ?List)),
    format(2, '[OWL2FLORA] oneOf constraint: extraneous class member ~w : ~w', [?X,?C])@_prolog(format).
check_someValuesFrom_constraints :-
    someValuesFrom(?Class, ?Property, ?PropertyClass), ?O:?Class,
    \naf (?O[?Property -> ?V], ?V:?PropertyClass),
    format(2, '[OWL2FLORA] someValuesFrom constraint violation: ~w:~w and ~w.~w disjoint from ~w', [?O,?Class,?O,?Property,?PropertyClass])@_prolog(format).
check_hasValue_constraints :- hasValue(?Class, ?Property, ?Value), ?O:?Class,
    not(?O[?Property -> ?Value]),
    format(2, '[OWL2FLORA] hasValue constraint violation: ~w.~w missing value ~w', [?O,?Property,?Value])@_prolog(format).
check_cardinality_constraints :- cardinality_violation(?Class, ?Property, ?O, ?N),
    format(2, '[OWL2FLORA] cardinality constraint violation: KB is inconsistent with the constraints: ~w.~w has ~w distinct values, allowed {~w:~w}', [?O,?Property,?N,?Low,?High])@_prolog(format).
check_inverseFunctional_constraints :- inverseFunctional(?P),
    ?X[?P -> ?V], ?Y[?P -> ?V], ?X != ?Y,
    format(2, '[OWL2FLORA] inverseFunctional constraint violation: ~w maps both ~w and ~w to ~w', [?P,?X,?Y,?V])@_prolog(format).
check_all_constraints :- check_disjoint_constraints, check_oneOf_constraints,
    check_someValuesFrom_constraints, check_hasValue_constraints,
    check_cardinality_constraints, check_inverseFunctional_constraints.
""")

# checker name -> the message template of its format literal
MESSAGES = {rule.head.name: lit.message for rule in CHECKER_RULES
            for lit in rule.body if isinstance(lit, FlFormat)}

# the generic closure rules of transitive and symmetric properties: the
# translator emits each once per program, after the first property of its
# kind, and the F-logic->OWL recognizer claims them
TRANSITIVE_RULE, SYMMETRIC_RULE = parse_rules(r"""
?X[?P -> ?Z] :- 'TransitiveProperty'(?P), ?X[?P -> ?Y], ?Y[?P -> ?Z].
?X[?P -> ?Y] :- 'SymmetricProperty'(?P), ?Y[?P -> ?X].
""")

RANGE_MSG = ("[OWL2FLORA] signature range violation: ~w.~w value ~w is not "
             "in class ~w")


def is_checker_rule(rule: FlRule) -> bool:
    """True for a rule that defines an integrity checker (``check_*``)."""
    return isinstance(rule.head, FlPred) and rule.head.name.startswith("check_")
