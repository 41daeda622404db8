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


OBJECT = FlSymbol("_object")  # the top class, of which everything is a member


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
    it is not part of program equality."""

    __slots__ = _FIELDS = ("rules", "prefixes")

    def __init__(self, rules=(), prefixes=None):
        self.rules = rules
        self.prefixes = {} if prefixes is None else prefixes

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
    # spaces and comments, then one token (group 1), most frequent first; an
    # alternative that is a prefix of another (':' of ':-', '-' of '->')
    # comes after it.  A character that no other alternative takes is a
    # token of its own, which _lex rejects; the empty match at the end is
    # the eof token.
    r"""
    (?: \s+ | //[^\n]* )*
    ( [A-Za-z_][A-Za-z0-9_]*
    | \?[A-Za-z_][A-Za-z0-9_]*
    | '(?:\\.|[^'\\])*'
    | :=: | :- | :: | \*=> | -> | != | \\naf\b
    | [0-9]+
    | [\[\]{}(),;.@*:] | [-–]
    | .
    | \Z
    )
    """,
    re.VERBOSE,
)


class FlParseError(Exception):
    """A syntax error at the token with this index in the token list."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def _lex(text: str) -> List[str]:
    """The tokens of text, ending in the eof token ``""``."""
    toks = _TOKEN_RE.findall(text)
    bad = [t for t in set(toks) if len(t) == 1 and t not in "[]{}(),;.@*:-–_"
           and not (t.isascii() and t.isalnum())]
    if bad:
        i = min(map(toks.index, bad))
        raise FlParseError(f"unexpected character {toks[i]!r}", i)
    if "–" in text:  # accept the typographic dash as set difference
        toks = ["-" if t == "–" else t for t in toks]
    return toks


def _kind(tok: str) -> str:
    """The kind of a token of text that _lex accepted, from its first
    character."""
    c = tok[:1]
    if c == "'":
        return "quoted"
    if c.isdecimal():
        return "num"
    return "ident" if c.isalpha() or c == "_" else "other"


def unquote(lexeme: str) -> str:
    """The name a quoted lexeme spells: quotes dropped, escapes undone."""
    body = lexeme[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: List[str], prefixes: Dict[str, str]):
        self.toks = toks
        self.i = 0
        self.prefixes = dict(prefixes)
        self.symbols: Dict[str, FlSymbol] = {}  # one per plain name
        self.nafs: List[int] = []  # the token index of each naf read

    def expect(self, want: str, kind: bool = False) -> str:
        """The next token, consumed, if it is ``want`` (a kind if ``kind``)."""
        t = self.toks[self.i]
        if (_kind(t) if kind else t) != want:
            raise FlParseError(f"expected {want!r}, got {t!r}", self.i)
        self.i += 1
        return t

    # terms

    def parse_term(self, merge_prefixed: bool = False) -> FlTerm:
        # A colon after an identifier is ambiguous only in statement-subject
        # position (`a:B` is membership there).  Everywhere else (class
        # expressions, frame properties/values, predicate arguments, lists)
        # `pfx:local` can only be a prefixed name, so callers pass
        # merge_prefixed=True; subjects merge only declared prefixes.
        toks = self.toks
        i = self.i
        t = toks[i]
        c = t[:1]
        if c == "?":
            self.i = i + 1
            return FlVariable(t[1:])
        if c == "'":
            self.i = i + 1
            name = unquote(t)
            if not name:  # '' names nothing; it is the empty string
                return FlLiteralTerm("")
            return FlSymbol(name, quoted=True)
        if c == "[":
            self.i = i + 1
            return FlList(self.parse_terms("]"))
        if c.isdecimal():
            self.i = i + 1
            return FlLiteralTerm(t, "_integer")
        if not (c.isalpha() or c == "_"):
            raise FlParseError(f"expected a term, got {t!r}", i)
        i += 1
        if (merge_prefixed or t in self.prefixes) and toks[i] == ":" \
                and _kind(toks[i + 1]) == "ident":
            t = f"{t}:{toks[i + 1]}"
            i += 2
        self.i = i
        sym = self.symbols.get(t)
        if sym is None:
            sym = self.symbols[t] = FlSymbol(t)
        return sym

    def parse_terms(self, close: str) -> Tuple[FlTerm, ...]:
        """Terms separated by ``,`` up to the token ``close``, consumed."""
        terms = []
        if self.toks[self.i] != close:
            terms.append(self.parse_term(merge_prefixed=True))
            while self.toks[self.i] == ",":
                self.i += 1
                terms.append(self.parse_term(merge_prefixed=True))
        self.expect(close)
        return tuple(terms)

    # class expressions

    def parse_class_expr(self) -> FlClassExpr:
        if self.toks[self.i] != "(":
            return Atom(self.parse_term(merge_prefixed=True))
        self.i += 1
        a = self.parse_class_expr()
        op = self.toks[self.i]
        if op == ";" or op == "," or op == "-":
            self.i += 1
            b = self.parse_class_expr()
            self.expect(")")
            if op == ";":
                return FlUnion(a, b)
            if op == ",":
                return FlIntersection(a, b)
            return FlDifference(a, b)
        self.expect(")")
        return a

    # frame contents after '[': returns list of literals for subject term
    def parse_frame(self, subject: FlTerm, via: Optional[FlClassExpr],
                    cls: Optional[FlClassExpr]) -> List[FlLit]:
        toks = self.toks
        items: List[FlLit] = []
        while True:
            prop = self.parse_term(merge_prefixed=True)
            card = None
            if toks[self.i] == "{":
                brace = self.i
                self.i += 1
                low = int(self.expect("num", kind=True))
                # the token in the place of ':' is consumed, unless it is eof
                colon = self.i
                self.i += toks[colon] != ""
                if toks[colon] != ":":
                    raise FlParseError("expected ':' in cardinality", colon)
                if toks[self.i] == "*":
                    self.i += 1
                    high: Optional[int] = None
                else:
                    high = int(self.expect("num", kind=True))
                self.expect("}")
                if high is not None and high < low:
                    raise FlParseError(f"cardinality {{{low}:{high}}} has its "
                                       "upper bound below its lower bound",
                                       brace)
                card = (low, high)
            t = toks[self.i]
            if t == "*=>":
                self.i += 1
                rng = self.parse_class_expr()
                items.append(
                    FlSignature(
                        cls if cls is not None else Atom(subject),
                        prop, rng, card, via,
                    )
                )
            elif t == "->":
                if card is not None:
                    raise FlParseError("cardinality on attribute value",
                                       self.i)
                self.i += 1
                value = self.parse_term(merge_prefixed=True)
                items.append(FlAttrValue(subject, prop, value))
            else:
                raise FlParseError(f"expected '->' or '*=>', got {t!r}",
                                   self.i)
            if toks[self.i] != ",":
                break
            self.i += 1
        self.expect("]")
        return items

    # literals; may return several (combined frame molecules split here)

    def parse_literals(self) -> List[FlLit]:
        """Literals separated by ``,``, up to the first other token."""
        lits = self.parse_literal()
        while self.toks[self.i] == ",":
            self.i += 1
            lits.extend(self.parse_literal())
        return lits

    def parse_literal(self) -> List[FlLit]:
        toks = self.toks
        t = toks[self.i]
        if t == "\\naf" or t == "naf" or t == "not":
            mark = len(self.nafs)
            self.nafs.append(self.i)
            self.i += 1
            if t == "not" or toks[self.i] == "(":
                self.expect("(")
                inner = self.parse_literals()
                self.expect(")")
            else:
                inner = self.parse_literal()
            if len(self.nafs) > mark + 1:  # the first naf read inside
                raise FlParseError("naf may not directly wrap naf",
                                   self.nafs[mark + 1])
            return [FlNaf(tuple(inner), style="not" if t == "not" else "naf")]
        if t == "format":
            return [self.parse_format()]
        if t == "member" and toks[self.i + 1] == "(":
            self.i += 2
            item = self.parse_term(merge_prefixed=True)
            self.expect(",")
            coll = self.parse_term(merge_prefixed=True)
            self.expect(")")
            return [FlMember(item, coll)]

        if t == "(":
            subj_expr: Optional[FlClassExpr] = self.parse_class_expr()
            subj_term: Optional[FlTerm] = None
            quoted = False
        else:
            term = self.parse_term()
            subj_term = term
            subj_expr = None
            quoted = isinstance(term, FlSymbol) and term.quoted

        at = self.i
        t = toks[at]
        # predicate application
        if isinstance(subj_term, FlSymbol) and t == "(":
            self.i += 1
            args = self.parse_terms(")")
            return [FlPred(subj_term.name, args, quoted=quoted)]
        if subj_term is not None and t == "!=":
            self.i += 1
            return [FlNeq(subj_term, self.parse_term(merge_prefixed=True))]

        left = subj_expr if subj_expr is not None else Atom(subj_term)

        if t == ":=:":
            self.i += 1
            return [FlEquiv(left, self.parse_class_expr())]
        if t == "::":
            self.i += 1
            sup = self.parse_class_expr()
            if toks[self.i] == "[":
                self.i += 1
                return self.parse_frame(subj_term, via=sup, cls=left)
            return [FlSubClass(left, sup)]
        if t == ":":
            self.i += 1
            cls = self.parse_class_expr()
            if subj_term is not None and toks[self.i] == "[":
                self.i += 1
                return [FlIsA(subj_term, cls)] + self.parse_frame(
                    subj_term, via=None, cls=None
                )
            if subj_term is None:
                raise FlParseError("membership needs a term subject", at)
            return [FlIsA(subj_term, cls)]
        if t == "[":
            self.i += 1
            return self.parse_frame(subj_term, via=None, cls=left)
        if isinstance(subj_term, FlSymbol):
            return [FlPred(subj_term.name, (), quoted=quoted)]
        raise FlParseError(f"unexpected {t!r}", at)

    def parse_format(self) -> FlFormat:
        self.expect("format")
        self.expect("(")
        if _kind(self.toks[self.i]) == "num":
            self.i += 1
            self.expect(",")
        message = unquote(self.expect("quoted", kind=True))
        args: Tuple[FlTerm, ...] = ()
        if self.toks[self.i] == ",":
            self.i += 1
            arg_term = self.parse_term()
            if isinstance(arg_term, FlList):
                args = arg_term.elements
            else:
                args = (arg_term,)
        for t in (")", "@", "_prolog", "(", "format", ")"):
            self.expect(t)
        return FlFormat(message, args)

    # statements

    def parse_directive(self):
        # ':- base('...').' or ':- prefix(name, '...').'
        self.expect(":-")
        at = self.i
        kw = self.expect("ident", kind=True)
        self.expect("(")
        if kw == "base":
            self.prefixes[""] = unquote(self.expect("quoted", kind=True))
        elif kw == "prefix":
            name = self.expect("ident", kind=True)
            self.expect(",")
            self.prefixes[name] = unquote(self.expect("quoted", kind=True))
        else:
            raise FlParseError(f"unknown directive {kw!r}", at)
        self.expect(")")
        self.expect(".")

    def parse_statement(self) -> List[FlRule]:
        if self.toks[self.i] == ":-":
            self.parse_directive()
            return []
        start = self.i
        heads = self.parse_literal()
        for h in heads:
            if not isinstance(h, HEADS):
                raise FlParseError(f"{print_literal(h)} cannot head a "
                                   "statement", start)
        if self.toks[self.i] == ":-":
            self.i += 1
            if len(heads) != 1:
                raise FlParseError("combined molecule as rule head", self.i)
            body = self.parse_literals()
            self.expect(".")
            return [FlRule(heads[0], tuple(body))]
        self.expect(".")
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
    while toks[p.i]:
        try:
            rules.extend(p.parse_statement())
        except FlParseError as e:
            errors.append(e)
            # resync: skip to just past the next '.'
            while toks[p.i] not in ("", "."):
                p.i += 1
            p.i += toks[p.i] == "."
    return FlProgram(tuple(rules), p.prefixes), _syntax_errors(text, errors)


def parse_rules(text: str) -> Tuple[FlRule, ...]:
    """The rules of library text; a syntax error raises ``ValueError``."""
    program, diags = parse_program(text)
    if diags:
        raise ValueError(str(diags[0]))
    return program.rules


def _syntax_errors(text: str, errors: List[FlParseError]) -> List[Diagnostic]:
    """One diagnostic per error, located at (line, column) from 1."""
    if not errors:
        return []
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text)]
    newlines = [m.start() for m in re.finditer("\n", text)]
    out = []
    for e in errors:
        offset = starts[e.index]
        line = bisect_left(newlines, offset)
        col = offset - (newlines[line - 1] if line else -1)
        out.append(Diagnostic(ERROR, "syntax-error", e.message, (line + 1, col)))
    return out
