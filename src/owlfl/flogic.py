"""F-logic AST, canonical printer and parser.

The concrete syntax is the Flora-style fragment the translator emits:
frames (``O:C``, ``C::D``, ``O[P -> V]``), signatures (``C[P{L:H} *=> R]``),
user-defined equality (``A :=: B``), plain predicates, negation as failure
(``\\naf L`` / ``not(...)``) and a handful of builtins.

Printing is canonical and deterministic; ``parse_program`` is the inverse of
``print_program`` on its image.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from .diagnostics import Diagnostic, ERROR
from .node import Node, fields_repr

# --- terms -------------------------------------------------------------------


class FlTerm:
    __slots__ = ()


_PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(:[A-Za-z_][A-Za-z0-9_]*)?$")


class FlSymbol(str, FlTerm):
    """A constant: the ``str`` of its name, so joins hash and compare it in
    C.  ``quoted`` (presentation) is left out of equality, so a
    printed-then-reparsed symbol equals the original."""

    def __new__(cls, name: str, quoted=False):
        if not name:
            raise ValueError("empty symbol name")
        self = str.__new__(cls, name)
        self.name, self.quoted = name, quoted
        return self

    def __repr__(self):
        return f"FlSymbol(name={self.name!r}, quoted={self.quoted!r})"


class FlVariable(FlTerm, Node):
    __slots__ = ("name",)

    def _validate(self):
        if not self.name:
            raise ValueError("empty variable name")


class FlLiteralTerm(FlTerm, Node):
    __slots__ = ("value", "type_tag")
    _defaults = ("_string",)


class FlList(FlTerm, Node):
    __slots__ = ("elements",)


# --- class expressions -------------------------------------------------------


class FlClassExpr(Node):
    __slots__ = ()


class Atom(FlClassExpr):
    __slots__ = ("term",)


class FlUnion(FlClassExpr):
    __slots__ = ("a", "b")


class FlIntersection(FlClassExpr):
    __slots__ = ("a", "b")


class FlDifference(FlClassExpr):
    __slots__ = ("a", "b")


def atom(name_or_term) -> Atom:
    if isinstance(name_or_term, FlTerm):
        return Atom(name_or_term)
    return Atom(FlSymbol(name_or_term))


def left_assoc(kind, exprs: List[FlClassExpr]) -> FlClassExpr:
    """Fold an n-ary operand list into left-associated binary nodes."""
    out = exprs[0]
    for e in exprs[1:]:
        out = kind(out, e)
    return out


# --- literals (molecules, predicates, naf, builtins) -------------------------


class FlLit(Node):
    __slots__ = ()


class FlIsA(FlLit):
    __slots__ = ("obj", "cls")


class FlSubClass(FlLit):
    __slots__ = ("sub", "super")


class FlEquiv(FlLit):
    __slots__ = ("a", "b")


class FlAttrValue(FlLit):
    __slots__ = ("obj", "prop", "value")


class FlSignature(FlLit):
    """``C[P *=> R]``, ``C[P{L:H} *=> R]`` or ``C::V[P *=> R]``.

    ``card`` is ``(low, high)`` with ``high=None`` meaning unbounded (printed
    ``*``).
    """

    __slots__ = ("cls", "prop", "range", "card", "via")
    _defaults = (None, None)

    def _validate(self):
        if self.card is not None:
            low, high = self.card
            if low < 0 or (high is not None and high < low):
                raise ValueError(f"bad cardinality bounds {self.card}")


class FlPred(FlLit):
    __slots__ = ("name", "args", "quoted")
    _defaults = ((), False)
    _compared = 2  # quoted is presentation only


class FlNaf(FlLit):
    __slots__ = ("inner", "style")  # style "naf" prints \naf, "not" not(...)
    _defaults = ("naf",)

    def _validate(self):
        if not self.inner:
            raise ValueError("empty naf")
        if any(isinstance(l, FlNaf) for l in self.inner):
            raise ValueError("naf may not directly wrap naf")


class FlMember(FlLit):
    __slots__ = ("item", "collection")


class FlNeq(FlLit):
    __slots__ = ("a", "b")


class FlFormat(FlLit):
    """A ``format(2, 'msg', [args])@_prolog(format)`` message emission."""

    __slots__ = ("message", "args")
    _defaults = ((),)


MOLECULES = (FlIsA, FlSubClass, FlEquiv, FlAttrValue, FlSignature)
HEADS = MOLECULES + (FlPred,)  # the literals that can head a rule


class FlRule(Node):
    __slots__ = ("head", "body")
    _defaults = ((),)

    def _validate(self):
        if not isinstance(self.head, HEADS):
            raise ValueError(f"bad rule head: {type(self.head).__name__}")

    @property
    def is_fact(self) -> bool:
        return not self.body


def fact(head: FlLit) -> FlRule:
    return FlRule(head)


class FlProgram:
    """A rule tuple; mutable, so it has no hash.  ``prefixes`` (``""`` holds
    the base IRI) is printed as directives, so it survives a round trip, but
    it is not part of program equality.  ``covered_axiom_ids`` are the ids of
    the source axioms covered by at least one emitted rule."""

    __slots__ = _FIELDS = ("rules", "prefixes", "covered_axiom_ids")

    def __init__(self, rules=(), prefixes=None, covered_axiom_ids=None):
        self.rules = rules
        self.prefixes = {} if prefixes is None else prefixes
        self.covered_axiom_ids = set() if covered_axiom_ids is None \
            else covered_axiom_ids

    def __eq__(self, other):
        return isinstance(other, FlProgram) and self.rules == other.rules

    def __repr__(self):
        return fields_repr(self, self._FIELDS)


# --- printer -----------------------------------------------------------------


def _quote(name: str) -> str:
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def print_term(t: FlTerm) -> str:
    if isinstance(t, FlSymbol):
        if t.quoted or not _PLAIN_NAME.match(t.name):
            return _quote(t.name)
        return t.name
    if isinstance(t, FlVariable):
        return "?" + t.name
    if isinstance(t, FlLiteralTerm):
        if t.type_tag in ("_integer", "_double"):
            return t.value
        if t.type_tag == "_boolean":
            return t.value
        return _quote(t.value)
    if isinstance(t, FlList):
        return "[" + ",".join(print_term(e) for e in t.elements) + "]"
    raise TypeError(f"not a term: {t!r}")


def print_class_expr(e: FlClassExpr) -> str:
    if isinstance(e, Atom):
        return print_term(e.term)
    if isinstance(e, FlUnion):
        return f"({print_class_expr(e.a)} ; {print_class_expr(e.b)})"
    if isinstance(e, FlIntersection):
        return f"({print_class_expr(e.a)} , {print_class_expr(e.b)})"
    if isinstance(e, FlDifference):
        return f"({print_class_expr(e.a)} - {print_class_expr(e.b)})"
    raise TypeError(f"not a class expression: {e!r}")


def _print_card(card: Optional[Tuple[int, Optional[int]]]) -> str:
    if card is None:
        return ""
    low, high = card
    return "{%d:%s}" % (low, "*" if high is None else str(high))


def print_literal(l: FlLit) -> str:
    if isinstance(l, FlIsA):
        return f"{print_term(l.obj)}:{print_class_expr(l.cls)}"
    if isinstance(l, FlSubClass):
        return f"{print_class_expr(l.sub)}::{print_class_expr(l.super)}"
    if isinstance(l, FlEquiv):
        return f"{print_class_expr(l.a)} :=: {print_class_expr(l.b)}"
    if isinstance(l, FlAttrValue):
        return f"{print_term(l.obj)}[{print_term(l.prop)} -> {print_term(l.value)}]"
    if isinstance(l, FlSignature):
        head = print_class_expr(l.cls)
        if l.via is not None:
            head += "::" + print_class_expr(l.via)
        return (
            f"{head}[{print_term(l.prop)}{_print_card(l.card)}"
            f" *=> {print_class_expr(l.range)}]"
        )
    if isinstance(l, FlPred):
        name = _quote(l.name) if (l.quoted or not _PLAIN_NAME.match(l.name)) else l.name
        if not l.args:
            return name
        return name + "(" + ", ".join(print_term(a) for a in l.args) + ")"
    if isinstance(l, FlNaf):
        inner = ", ".join(print_literal(i) for i in l.inner)
        if l.style == "not":
            return f"not({inner})"
        if len(l.inner) == 1:
            return f"\\naf {inner}"
        return f"\\naf ({inner})"
    if isinstance(l, FlMember):
        return f"member({print_term(l.item)}, {print_term(l.collection)})"
    if isinstance(l, FlNeq):
        return f"{print_term(l.a)} != {print_term(l.b)}"
    if isinstance(l, FlFormat):
        args = "[" + ",".join(print_term(a) for a in l.args) + "]"
        return f"format(2, {_quote(l.message)}, {args})@_prolog(format)"
    raise TypeError(f"not a literal: {l!r}")


def _ground_subject(l: FlLit):
    if isinstance(l, FlIsA) and isinstance(l.obj, FlSymbol) and isinstance(l.cls, Atom) \
            and isinstance(l.cls.term, FlSymbol):
        return l.obj
    return None


def print_rule(r: FlRule) -> str:
    head = print_literal(r.head)
    if r.body:
        return head + " :- " + ", ".join(print_literal(b) for b in r.body) + "."
    return head + "."


def print_program(program: FlProgram) -> str:
    """Canonical text: directives first, one rule per line.

    A ground membership fact immediately followed by attribute-value facts on
    the same subject prints as one combined frame,
    e.g. ``x:C[p -> v].``; the parser splits it back into separate facts.
    """
    lines: List[str] = []
    if program.prefixes:
        base = program.prefixes.get("")
        if base:
            lines.append(f":- base({_quote(base)}).")
        for pfx in sorted(k for k in program.prefixes if k):
            lines.append(f":- prefix({pfx}, {_quote(program.prefixes[pfx])}).")
    rules = list(program.rules)
    i = 0
    while i < len(rules):
        r = rules[i]
        subj = _ground_subject(r.head) if r.is_fact else None
        if subj is not None:
            attrs = []
            j = i + 1
            while j < len(rules) and rules[j].is_fact and \
                    isinstance(rules[j].head, FlAttrValue) and rules[j].head.obj == subj:
                attrs.append(rules[j].head)
                j += 1
            if attrs:
                inner = ", ".join(
                    f"{print_term(a.prop)} -> {print_term(a.value)}" for a in attrs
                )
                lines.append(
                    f"{print_term(subj)}:{print_class_expr(r.head.cls)}[{inner}]."
                )
                i = j
                continue
        lines.append(print_rule(r))
        i += 1
    return "\n".join(lines) + ("\n" if lines else "")


# --- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    # most frequent first; an alternative that is a prefix of another
    # (':' of ':-', '-' of '->') comes after it
    r"""
      (?P<ws>\s+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<quoted>'(?:\\.|[^'\\])*')
    | (?P<comment>//[^\n]*)
    | (?P<equiv>:=:)
    | (?P<implies>:-)
    | (?P<subclass>::)
    | (?P<sigarrow>\*=>)
    | (?P<arrow>->)
    | (?P<neq>!=)
    | (?P<naf>\\naf\b)
    | (?P<num>\d+)
    | (?P<punct>[\[\]{}(),;.@*:]|[-–])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

# a token is (kind, value, offset): kind is a group name of _TOKEN_RE or
# "eof", offset the character position of its first character in the text
_Tok = Tuple[str, str, int]


class FlParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


def _lex(text: str) -> List[_Tok]:
    toks = []
    append = toks.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        value = m.group()
        if kind == "bad":
            raise FlParseError(f"unexpected character {value!r}", m.start())
        if value == "–":
            value = "-"  # accept the typographic dash as set difference
        append((kind, value, m.start()))
    append(("eof", "", len(text)))
    return toks


def unquote(lexeme: str) -> str:
    """The name a quoted lexeme spells: quotes dropped, escapes undone."""
    body = lexeme[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: List[_Tok], prefixes: Dict[str, str]):
        self.toks = toks
        self.i = 0
        self.prefixes = dict(prefixes)
        self.symbols: Dict[str, FlSymbol] = {}  # one per plain name

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, value: Optional[str] = None) -> _Tok:
        t = self.toks[self.i]
        if t[0] != kind or (value is not None and t[1] != value):
            want = value or kind
            raise FlParseError(f"expected {want!r}, got {t[1]!r}", t[2])
        self.i += 1
        return t

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        t = self.toks[self.i]
        return t[0] == kind and (value is None or t[1] == value)

    # terms

    def parse_term(self, merge_prefixed: bool = False) -> FlTerm:
        # A colon after an identifier is ambiguous only in statement-subject
        # position (`a:B` is membership there).  Everywhere else (class
        # expressions, frame properties/values, predicate arguments, lists)
        # `pfx:local` can only be a prefixed name, so callers pass
        # merge_prefixed=True; subjects merge only declared prefixes.
        kind, value, offset = self.peek()
        if kind == "var":
            self.next()
            return FlVariable(value[1:])
        if kind == "num":
            self.next()
            return FlLiteralTerm(value, "_integer")
        if kind == "quoted":
            self.next()
            name = unquote(value)
            if not name:  # '' names nothing; it is the empty string
                return FlLiteralTerm("")
            return FlSymbol(name, quoted=True)
        if kind == "ident":
            self.next()
            name = value
            if (
                (merge_prefixed or name in self.prefixes)
                and self.at("punct", ":")
                and self.toks[self.i + 1][0] == "ident"
            ):
                self.next()
                name = f"{name}:{self.next()[1]}"
            sym = self.symbols.get(name)
            if sym is None:
                sym = self.symbols[name] = FlSymbol(name)
            return sym
        if kind == "punct" and value == "[":
            self.next()
            elems = []
            if not self.at("punct", "]"):
                elems.append(self.parse_term(merge_prefixed=True))
                while self.at("punct", ","):
                    self.next()
                    elems.append(self.parse_term(merge_prefixed=True))
            self.expect("punct", "]")
            return FlList(tuple(elems))
        raise FlParseError(f"expected a term, got {value!r}", offset)

    # class expressions

    def parse_class_expr(self) -> FlClassExpr:
        if self.at("punct", "("):
            self.next()
            a = self.parse_class_expr()
            t = self.peek()
            if t[0] == "punct" and t[1] in (";", ",", "-"):
                self.next()
                b = self.parse_class_expr()
                self.expect("punct", ")")
                if t[1] == ";":
                    return FlUnion(a, b)
                if t[1] == ",":
                    return FlIntersection(a, b)
                return FlDifference(a, b)
            self.expect("punct", ")")
            return a
        return Atom(self.parse_term(merge_prefixed=True))

    # frame contents after '[': returns list of literals for subject term
    def parse_frame(self, subject: FlTerm, via: Optional[FlClassExpr],
                    cls: Optional[FlClassExpr]) -> List[FlLit]:
        items: List[FlLit] = []
        while True:
            prop = self.parse_term(merge_prefixed=True)
            card = None
            if self.at("punct", "{"):
                brace = self.next()
                low = int(self.expect("num")[1])
                # the ':' between bounds lexes as punct ':'
                t = self.next()
                if not (t[0] == "punct" and t[1] == ":"):
                    raise FlParseError("expected ':' in cardinality", t[2])
                if self.at("punct", "*"):
                    self.next()
                    high: Optional[int] = None
                else:
                    high = int(self.expect("num")[1])
                self.expect("punct", "}")
                if high is not None and high < low:
                    raise FlParseError(f"cardinality {{{low}:{high}}} has its "
                                       "upper bound below its lower bound",
                                       brace[2])
                card = (low, high)
            if self.at("sigarrow"):
                self.next()
                rng = self.parse_class_expr()
                items.append(
                    FlSignature(
                        cls if cls is not None else Atom(subject),
                        prop, rng, card, via,
                    )
                )
            elif self.at("arrow"):
                if card is not None:
                    t = self.peek()
                    raise FlParseError("cardinality on attribute value", t[2])
                self.next()
                value = self.parse_term(merge_prefixed=True)
                items.append(FlAttrValue(subject, prop, value))
            else:
                t = self.peek()
                raise FlParseError(
                    f"expected '->' or '*=>', got {t[1]!r}", t[2]
                )
            if self.at("punct", ","):
                self.next()
                continue
            break
        self.expect("punct", "]")
        return items

    # literals; may return several (combined frame molecules split here)

    def parse_literals(self) -> List[FlLit]:
        """Literals separated by ``,``, up to the first other token."""
        lits = self.parse_literal()
        while self.at("punct", ","):
            self.next()
            lits.extend(self.parse_literal())
        return lits

    def parse_literal(self) -> List[FlLit]:
        t = self.peek()
        if t[0] == "naf" or (t[0] == "ident" and t[1] == "naf"):
            self.next()
            if self.at("punct", "("):
                self.next()
                inner = self.parse_literals()
                self.expect("punct", ")")
            else:
                inner = self.parse_literal()
            return [FlNaf(tuple(inner), style="naf")]
        if t[0] == "ident" and t[1] == "not":
            self.next()
            self.expect("punct", "(")
            inner = self.parse_literals()
            self.expect("punct", ")")
            return [FlNaf(tuple(inner), style="not")]
        if t[0] == "ident" and t[1] == "format":
            return [self.parse_format()]
        if t[0] == "ident" and t[1] == "member" and \
                self.toks[self.i + 1][0] == "punct" and \
                self.toks[self.i + 1][1] == "(":
            self.next()
            self.next()
            item = self.parse_term(merge_prefixed=True)
            self.expect("punct", ",")
            coll = self.parse_term(merge_prefixed=True)
            self.expect("punct", ")")
            return [FlMember(item, coll)]

        if self.at("punct", "("):
            subj_expr: Optional[FlClassExpr] = self.parse_class_expr()
            subj_term: Optional[FlTerm] = None
            quoted = False
        else:
            term = self.parse_term()
            subj_term = term
            subj_expr = None
            quoted = isinstance(term, FlSymbol) and term.quoted

        t = self.peek()
        # predicate application
        if subj_term is not None and isinstance(subj_term, FlSymbol) and \
                t[0] == "punct" and t[1] == "(":
            self.next()
            args = []
            if not self.at("punct", ")"):
                args.append(self.parse_term(merge_prefixed=True))
                while self.at("punct", ","):
                    self.next()
                    args.append(self.parse_term(merge_prefixed=True))
            self.expect("punct", ")")
            return [FlPred(subj_term.name, tuple(args), quoted=quoted)]
        if subj_term is not None and t[0] == "neq":
            self.next()
            return [FlNeq(subj_term, self.parse_term(merge_prefixed=True))]

        left = subj_expr if subj_expr is not None else Atom(subj_term)

        if self.at("equiv"):
            self.next()
            return [FlEquiv(left, self.parse_class_expr())]
        if self.at("subclass"):
            self.next()
            sup = self.parse_class_expr()
            if self.at("punct", "["):
                self.next()
                return self.parse_frame(subj_term, via=sup, cls=left)
            return [FlSubClass(left, sup)]
        if self.at("punct", ":"):
            self.next()
            cls = self.parse_class_expr()
            if subj_term is not None and self.at("punct", "["):
                self.next()
                return [FlIsA(subj_term, cls)] + self.parse_frame(
                    subj_term, via=None, cls=None
                )
            if subj_term is None:
                raise FlParseError("membership needs a term subject", t[2])
            return [FlIsA(subj_term, cls)]
        if self.at("punct", "["):
            self.next()
            return self.parse_frame(
                subj_term if subj_term is not None else None, via=None, cls=left
            )
        if subj_term is not None and isinstance(subj_term, FlSymbol):
            return [FlPred(subj_term.name, (), quoted=quoted)]
        raise FlParseError(f"unexpected {t[1]!r}", t[2])

    def parse_format(self) -> FlFormat:
        self.expect("ident", "format")
        self.expect("punct", "(")
        if self.at("num"):
            self.next()
            self.expect("punct", ",")
        msg_tok = self.expect("quoted")
        message = unquote(msg_tok[1])
        args: Tuple[FlTerm, ...] = ()
        if self.at("punct", ","):
            self.next()
            arg_term = self.parse_term()
            if isinstance(arg_term, FlList):
                args = arg_term.elements
            else:
                args = (arg_term,)
        self.expect("punct", ")")
        self.expect("punct", "@")
        self.expect("ident", "_prolog")
        self.expect("punct", "(")
        self.expect("ident", "format")
        self.expect("punct", ")")
        return FlFormat(message, args)

    # statements

    def parse_directive(self):
        # ':- base('...').' or ':- prefix(name, '...').'
        self.expect("implies")
        kw = self.expect("ident")
        self.expect("punct", "(")
        if kw[1] == "base":
            iri = unquote(self.expect("quoted")[1])
            self.prefixes[""] = iri
        elif kw[1] == "prefix":
            name = self.expect("ident")[1]
            self.expect("punct", ",")
            iri = unquote(self.expect("quoted")[1])
            self.prefixes[name] = iri
        else:
            raise FlParseError(f"unknown directive {kw[1]!r}", kw[2])
        self.expect("punct", ")")
        self.expect("punct", ".")

    def parse_statement(self) -> List[FlRule]:
        if self.at("implies"):
            self.parse_directive()
            return []
        start = self.peek()
        heads = self.parse_literal()
        for h in heads:
            if not isinstance(h, HEADS):
                raise FlParseError(f"{print_literal(h)} cannot head a "
                                   "statement", start[2])
        if self.at("implies"):
            self.next()
            if len(heads) != 1:
                t = self.peek()
                raise FlParseError("combined molecule as rule head", t[2])
            body = self.parse_literals()
            self.expect("punct", ".")
            return [FlRule(heads[0], tuple(body))]
        self.expect("punct", ".")
        return [FlRule(h) for h in heads]


def parse_program(text: str, prefixes: Optional[Dict[str, str]] = None
                  ) -> Tuple[FlProgram, List[Diagnostic]]:
    """Parse canonical F-logic text; recovery continues at the next ``.``."""
    try:
        toks = _lex(text)
    except FlParseError as e:
        return FlProgram(), _syntax_errors(text, [e])
    p = _Parser(toks, prefixes or {})
    rules: List[FlRule] = []
    errors: List[FlParseError] = []
    while not p.at("eof"):
        try:
            rules.extend(p.parse_statement())
        except FlParseError as e:
            errors.append(e)
            # resync: skip to just past the next '.'
            while not p.at("eof") and not p.at("punct", "."):
                p.next()
            if p.at("punct", "."):
                p.next()
    return FlProgram(tuple(rules), p.prefixes), _syntax_errors(text, errors)


def parse_rules(text: str) -> Tuple[FlRule, ...]:
    """The rules of library text; a syntax error raises ``ValueError``."""
    program, diags = parse_program(text)
    if diags:
        raise ValueError(str(diags[0]))
    return program.rules


def _syntax_errors(text: str, errors: List[FlParseError]) -> List[Diagnostic]:
    """One diagnostic per error, located at (line, column) from 1."""
    newlines = [m.start() for m in re.finditer("\n", text)] if errors else []
    out = []
    for e in errors:
        line = bisect_left(newlines, e.offset)
        col = e.offset - (newlines[line - 1] if line else -1)
        out.append(Diagnostic(ERROR, "syntax-error", e.message, (line + 1, col)))
    return out
