"""In-memory model of the supported OWL subset.

Everything is immutable after construction; constructors enforce the
structural invariants (absolute IRIs, non-empty operand lists, cardinality
bounds >= 0).
"""

from __future__ import annotations

import re

from .node import Node, fields_repr

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")


def is_absolute(value: str) -> bool:
    """True when value starts with a scheme, as an IRI must."""
    return _SCHEME_RE.match(value) is not None


def namespace(declared: str) -> str:
    """The namespace a declared base or prefix stands for: itself when it
    ends in ``#`` or ``/``, else itself followed by ``#``."""
    return declared if declared.endswith(("#", "/")) else declared + "#"


class Iri(Node):
    __slots__ = ("value",)

    def _validate(self):
        if not _SCHEME_RE.match(self.value):
            raise ValueError(f"IRI is not absolute: {self.value!r}")

    @property
    def local_name(self) -> str:
        """What follows the last ``#`` or ``/``, empty after a trailing one."""
        v = self.value
        return v[max(v.rfind("#"), v.rfind("/")) + 1:]

    def __str__(self):
        return self.value


class OwlLiteral(Node):
    """A data value with its mapped builtin type tag (e.g. ``_string``)."""

    __slots__ = ("lexical", "type_tag")
    _defaults = ("_string",)


# --- class expressions -------------------------------------------------------


class ClassExpression(Node):
    __slots__ = ()


class Named(ClassExpression):
    __slots__ = ("iri",)


class UnionOf(ClassExpression):
    __slots__ = ("operands",)

    def _validate(self):
        if len(self.operands) < 2:
            raise ValueError("unionOf needs at least two operands")


class IntersectionOf(ClassExpression):
    __slots__ = ("operands",)

    def _validate(self):
        if len(self.operands) < 2:
            raise ValueError("intersectionOf needs at least two operands")


class ComplementOf(ClassExpression):
    __slots__ = ("operand",)


class OneOf(ClassExpression):
    __slots__ = ("individuals",)

    def _validate(self):
        if not self.individuals:
            raise ValueError("oneOf needs at least one individual")


class RestrictionKind(Node):
    __slots__ = ()


class AllValuesFrom(RestrictionKind):
    __slots__ = ("filler",)


class SomeValuesFrom(RestrictionKind):
    __slots__ = ("filler",)


class HasValue(RestrictionKind):
    __slots__ = ("value",)


class _Cardinality(RestrictionKind):
    """Shared by the three cardinality restrictions; not used on its own."""

    __slots__ = ("n",)

    def _validate(self):
        if self.n < 0:
            raise ValueError("cardinality must be >= 0")


class MaxCardinality(_Cardinality):
    __slots__ = ()


class MinCardinality(_Cardinality):
    __slots__ = ()


class ExactCardinality(_Cardinality):
    __slots__ = ()


class Restriction(ClassExpression):
    __slots__ = ("property", "kind")


# --- axioms ------------------------------------------------------------------


class ClassAxiom(Node):
    __slots__ = ()


class SubClassOf(ClassAxiom):
    __slots__ = ("sub", "super")


class EquivalentClass(ClassAxiom):
    __slots__ = ("a", "b")


class DisjointWith(ClassAxiom):
    __slots__ = ("a", "b")


class PropertyAxiom(Node):
    __slots__ = ()


class Domain(PropertyAxiom):
    __slots__ = ("property", "cls")


class Range(PropertyAxiom):
    __slots__ = ("property", "cls")


class SubPropertyOf(PropertyAxiom):
    __slots__ = ("sub", "super")


class EquivalentProperty(PropertyAxiom):
    __slots__ = ("a", "b")


class InverseOf(PropertyAxiom):
    __slots__ = ("a", "b")


FUNCTIONAL = "functional"
INVERSE_FUNCTIONAL = "inverse-functional"
TRANSITIVE = "transitive"
SYMMETRIC = "symmetric"

_CHARACTERISTICS = (FUNCTIONAL, INVERSE_FUNCTIONAL, TRANSITIVE, SYMMETRIC)


class Characteristic(PropertyAxiom):
    __slots__ = ("property", "kind")

    def _validate(self):
        if self.kind not in _CHARACTERISTICS:
            raise ValueError(f"unknown property characteristic: {self.kind!r}")


class Assertion(Node):
    __slots__ = ()


class ClassAssertion(Assertion):
    __slots__ = ("individual", "cls")


class PropertyAssertion(Assertion):
    __slots__ = ("subject", "property", "object")


class OntologyDocument:
    """A parsed ontology: prefix table plus TBox and ABox axiom lists.

    The prefix map uses ``""`` for the document base IRI.  All IRIs inside
    axioms are fully expanded.  Mutable, so it has no hash.
    """

    __slots__ = _FIELDS = ("prefixes", "class_axioms", "property_axioms",
                           "assertions")

    def __init__(self, prefixes=None, class_axioms=None, property_axioms=None,
                 assertions=None):
        self.prefixes = {} if prefixes is None else prefixes
        self.class_axioms = [] if class_axioms is None else class_axioms
        self.property_axioms = [] if property_axioms is None else property_axioms
        self.assertions = [] if assertions is None else assertions

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __repr__(self):
        return fields_repr(self, self._FIELDS)

    @property
    def base(self) -> str:
        return self.prefixes.get("", "")
