"""Command-line entry point.

Subcommands: ``translate`` (both directions), ``check`` (integrity
constraints), ``query`` (membership / subsumption / hierarchy), ``insert``
(one ground fact).  Exit codes: 0 = clean, 1 = constraint violations,
2 = errors.  Diagnostics go to stderr; query results and violation messages
go to stdout.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, ERROR, WARNING, EngineError, has_errors
from .flogic import (
    Atom, FlIsA, FlLiteralTerm, FlNeq, FlProgram, FlSubClass, FlSymbol,
    FlTerm, FlVariable, parse_program, print_program, print_term, unquote,
)
from .owl_parser import parse_document
from .owl_to_fl import TranslationOptions, translate_ontology

# each command imports the modules only it runs: the engine for check, query
# and insert, the F-logic->OWL translator and RDF/XML writer for translate
if TYPE_CHECKING:
    from .engine import KnowledgeBase

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _report(diags: Sequence[Diagnostic]):
    for d in diags:
        print(d, file=sys.stderr)


# --- KB loading --------------------------------------------------------------


def _read(path: str) -> Tuple[Optional[str], Optional[Diagnostic]]:
    """The text of a UTF-8 file, or the diagnostic saying why there is
    none."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read(), None
    except OSError as e:
        return None, Diagnostic(ERROR, "io-error", str(e))
    except UnicodeDecodeError as e:
        return None, Diagnostic(ERROR, "io-error",
                                f"{path} is not UTF-8 text: {e}")


def _load_kb(paths: Sequence[str]) -> Tuple[Optional[KnowledgeBase],
                                            List[Diagnostic]]:
    """Parse and merge one or more ``.flr``/``.owl`` files into one KB."""
    from .engine import load_program
    diags: List[Diagnostic] = []
    rules = []
    prefixes = {}
    for path in paths:
        text, error = _read(path)
        if error is not None:
            return None, diags + [error]
        if path.endswith(".owl") or text.lstrip().startswith("<"):
            doc, d = parse_document(text)
            diags.extend(d)
            if doc is None:
                return None, diags
            prog, d2 = translate_ontology(doc)
            diags.extend(d2)
        else:
            prog, d = parse_program(text)
            diags.extend(d)
        rules.extend(prog.rules)
        prefixes.update(prog.prefixes)
    if has_errors(diags):
        return None, diags
    merged = FlProgram(tuple(rules), prefixes)
    try:
        kb = load_program(merged)
        kb.store  # force saturation so stratification errors surface here
    except EngineError as e:
        diags.append(Diagnostic(ERROR, e.code, e.message))
        return None, diags
    return kb, diags


def _parse_name(arg: str) -> FlTerm:
    if arg in ("", "''"):
        return FlLiteralTerm("")  # as the F-logic reader reads ''
    if arg.startswith("'") and arg.endswith("'") and len(arg) >= 2:
        return FlSymbol(unquote(arg), quoted=True)
    return FlSymbol(arg)


def _known_symbols(kb: KnowledgeBase) -> set:
    from .engine import _split
    out = set()
    # every term of isa, sub and attr; the symbols of predicate arguments
    for key, rel in kb.store.relations.items():
        for t in rel.facts:
            out.update(t if isinstance(key, str) else
                       (x for x in t if isinstance(x, FlSymbol)))
    consts: List[FlTerm] = []  # every constant of a rule or a signature
    _split((kb.rules, kb.signatures), consts)
    return out.union(consts)


def _warn_unknown(kb: KnowledgeBase, names: Sequence[FlTerm]) -> bool:
    known = _known_symbols(kb)
    unknown = [n for n in names if n not in known]
    for n in unknown:
        _report([Diagnostic(WARNING, "unknown-name",
                            f"{print_term(n)} does not occur in the KB")])
    return bool(unknown)


# --- translate ---------------------------------------------------------------


def cmd_translate(args) -> int:
    from .fl_to_owl import translate_program
    from .owl_writer import serialize_document
    text, error = _read(args.input)
    if error is not None:
        _report([error])
        return EXIT_ERROR
    diags: List[Diagnostic] = []
    opts = TranslationOptions(
        emit_checkers=not args.no_checkers,
        owl_domain_range_rules=args.owl_domain_range_rules,
        case_split_rhs_disjunction=not args.no_case_split,
    )

    def fail() -> int:
        """End with the diagnostics and no output file: the input did not
        read in full, or its translation has no RDF/XML form."""
        _report(diags)
        return EXIT_ERROR

    if args.src == "owl":
        doc, d = parse_document(text)
        diags.extend(d)
        if doc is None:
            return fail()
    else:
        prog, d = parse_program(text)
        diags.extend(d)
        if has_errors(d):
            return fail()
    if args.src == args.dst:
        out_text = serialize_document(doc) if args.src == "owl" \
            else print_program(prog)
    elif args.src == "owl":
        prog, d = translate_ontology(doc, opts)
        diags.extend(d)
        out_text = print_program(prog)
    else:
        doc, d = translate_program(prog)
        diags.extend(d)
        if has_errors(d):  # a relative base or namespace
            return fail()
        try:
            out_text = serialize_document(doc)
        except TypeError as e:
            diags.append(Diagnostic(ERROR, "unrepresentable-in-owl", str(e)))
            return fail()
    try:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(out_text)
    except OSError as e:
        diags.append(Diagnostic(ERROR, "io-error", str(e)))
    _report(diags)
    return EXIT_ERROR if has_errors(diags) else EXIT_OK


# --- check -------------------------------------------------------------------


def cmd_check(args) -> int:
    from .engine import run_constraint_checks
    kb, diags = _load_kb(args.kb)
    _report(diags)
    if kb is None:
        return EXIT_ERROR
    violations = run_constraint_checks(
        kb, check_min_cardinality=args.min_cardinality)
    for v in violations:
        print(v.message)
    return EXIT_VIOLATIONS if violations else EXIT_OK


# --- query -------------------------------------------------------------------


X, M = FlVariable("X"), FlVariable("M")


def _sub(a: FlTerm, b: FlTerm) -> FlSubClass:
    return FlSubClass(Atom(a), Atom(b))


# verb -> (argument count, goal of its arguments); a goal with ?X lists the
# values of ?X, one without prints true or false
QUERIES = {
    "is": (2, lambda i, c: [FlIsA(i, Atom(c))]),
    "instances": (1, lambda c: [FlIsA(X, Atom(c))]),
    "classes-of": (1, lambda i: [FlIsA(i, Atom(X))]),
    "subclass": (2, lambda c, d: [_sub(c, d)]),
    "superclasses": (1, lambda c: [_sub(c, X), FlNeq(X, c)]),
    "subclasses": (1, lambda c: [_sub(X, c), FlNeq(X, c)]),
}
QUERY_VERBS = (*QUERIES, "check")


def _has_middle(kb: KnowledgeBase, sub: FlTerm, sup: FlTerm) -> bool:
    """True when sup is reachable from sub through a distinct middle class."""
    from .engine import holds
    return holds(kb, [_sub(sub, M), FlNeq(M, sub), FlNeq(M, sup),
                      _sub(M, sup)])


def cmd_query(args) -> int:
    from .engine import (
        collect_set, holds, literal_vars, run_constraint_checks,
    )
    # the KB file list ends at the first recognized verb
    split = next((i for i, a in enumerate(args.rest) if a in QUERY_VERBS), None)
    if split is None or split == 0:
        _report([Diagnostic(ERROR, "bad-arguments",
                            "expected: query <kb...> <verb> [args...]")])
        return EXIT_ERROR
    verb, rest = args.rest[split], args.rest[split + 1:]
    kb, diags = _load_kb(args.rest[:split])
    _report(diags)
    if kb is None:
        return EXIT_ERROR
    if verb == "check":
        violations = run_constraint_checks(kb)
        print("inconsistent" if violations else "consistent")
        return EXIT_VIOLATIONS if violations else EXIT_OK
    n, goal_of = QUERIES[verb]
    if len(rest) != n:
        _report([Diagnostic(ERROR, "bad-arguments",
                            f"'{verb}' takes {n} argument(s)")])
        return EXIT_ERROR
    names = [_parse_name(a) for a in rest]
    goal = goal_of(*names)
    listing = any("X" in literal_vars(lit) for lit in goal)
    if _warn_unknown(kb, names):
        if not listing:
            print("false")
    elif not listing:
        print("true" if holds(kb, goal) else "false")
    else:
        answers = collect_set(kb, "X", goal)
        if verb == "superclasses" and args.most_specific:
            answers = [s for s in answers if not _has_middle(kb, names[0], s)]
        elif verb == "subclasses" and args.most_general:
            answers = [s for s in answers if not _has_middle(kb, s, names[0])]
        for t in answers:
            print(print_term(t))
    return EXIT_OK


# --- insert ------------------------------------------------------------------


def cmd_insert(args) -> int:
    from .engine import insert_fact
    kb, diags = _load_kb([args.kb])
    _report(diags)
    if kb is None:
        return EXIT_ERROR
    fact_text = args.fact.strip()
    if not fact_text.endswith("."):
        fact_text += "."
    prog, d = parse_program(fact_text, prefixes=kb.prefixes)
    if has_errors(d) or len(prog.rules) != 1 or not prog.rules[0].is_fact:
        _report(d)
        _report([Diagnostic(ERROR, "non-ground-insert",
                            f"not a single ground fact: {args.fact!r}")])
        return EXIT_ERROR
    before = kb.store.size()
    insert_fact(kb, prog.rules[0].head)
    print(kb.store.size() - before)
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owlfl",
        description="Translate between OWL RDF/XML and F-logic, query, and "
                    "check integrity constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("translate", help="translate between formats")
    t.add_argument("--from", dest="src", choices=("owl", "flora"),
                   required=True)
    t.add_argument("--to", dest="dst", choices=("owl", "flora"), required=True)
    t.add_argument("input")
    t.add_argument("-o", "--output", required=True)
    t.add_argument("--no-checkers", action="store_true",
                   help="omit the constraint-checker library")
    t.add_argument("--owl-domain-range-rules", action="store_true",
                   help="also emit OWL-style inference rules for "
                        "domain/range axioms")
    t.add_argument("--no-case-split", action="store_true",
                   help="reject right-hand-side disjunctions instead of "
                        "lowering them to case rules")
    t.set_defaults(func=cmd_translate)

    c = sub.add_parser("check", help="run all integrity checkers")
    c.add_argument("kb", nargs="+")
    c.add_argument("--min-cardinality", action="store_true",
                   help="also enforce lower cardinality bounds")
    c.set_defaults(func=cmd_check)

    q = sub.add_parser("query", help="query the knowledge base")
    q.add_argument("rest", nargs="+",
                   metavar="kb... verb [args...]",
                   help="KB files, then one of: " + ", ".join(QUERY_VERBS))
    q.add_argument("--most-specific", action="store_true",
                   help="keep only direct superclasses")
    q.add_argument("--most-general", action="store_true",
                   help="keep only direct subclasses")
    q.set_defaults(func=cmd_query)

    i = sub.add_parser("insert", help="insert one ground fact")
    i.add_argument("kb")
    i.add_argument("fact")
    i.set_defaults(func=cmd_insert)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineError as e:
        _report([Diagnostic(ERROR, e.code, e.message)])
        return EXIT_ERROR
    except RecursionError:
        # the parsers and translators recurse once per nesting level
        _report([Diagnostic(ERROR, "syntax-error",
                            "input is nested too deeply")])
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
