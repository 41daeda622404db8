"""In-memory model of the supported OWL subset.

Everything is immutable after construction; constructors enforce the
structural invariants (absolute IRIs, non-empty operand lists, cardinality
bounds >= 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")


def is_absolute(value: str) -> bool:
    """True when value starts with a scheme, as an IRI must."""
    return _SCHEME_RE.match(value) is not None


@dataclass(frozen=True)
class Iri:
    value: str

    def __post_init__(self):
        if not _SCHEME_RE.match(self.value):
            raise ValueError(f"IRI is not absolute: {self.value!r}")

    @property
    def local_name(self) -> str:
        """What follows the last ``#`` or ``/``, empty after a trailing one."""
        v = self.value
        return v[max(v.rfind("#"), v.rfind("/")) + 1:]

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class OwlLiteral:
    """A data value with its mapped builtin type tag (e.g. ``_string``)."""

    lexical: str
    type_tag: str = "_string"


# --- class expressions -------------------------------------------------------


class ClassExpression:
    pass


@dataclass(frozen=True)
class Named(ClassExpression):
    iri: Iri


@dataclass(frozen=True)
class UnionOf(ClassExpression):
    operands: Tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("unionOf needs at least two operands")


@dataclass(frozen=True)
class IntersectionOf(ClassExpression):
    operands: Tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("intersectionOf needs at least two operands")


@dataclass(frozen=True)
class ComplementOf(ClassExpression):
    operand: ClassExpression


@dataclass(frozen=True)
class OneOf(ClassExpression):
    individuals: Tuple[Iri, ...]

    def __post_init__(self):
        if not self.individuals:
            raise ValueError("oneOf needs at least one individual")


class RestrictionKind:
    pass


@dataclass(frozen=True)
class AllValuesFrom(RestrictionKind):
    filler: ClassExpression


@dataclass(frozen=True)
class SomeValuesFrom(RestrictionKind):
    filler: ClassExpression


@dataclass(frozen=True)
class HasValue(RestrictionKind):
    value: Union[Iri, OwlLiteral]


@dataclass(frozen=True)
class _Cardinality(RestrictionKind):
    """Shared by the three cardinality restrictions; not used on its own."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be >= 0")


class MaxCardinality(_Cardinality):
    pass


class MinCardinality(_Cardinality):
    pass


class ExactCardinality(_Cardinality):
    pass


@dataclass(frozen=True)
class Restriction(ClassExpression):
    property: Iri
    kind: RestrictionKind


# --- axioms ------------------------------------------------------------------


class ClassAxiom:
    pass


@dataclass(frozen=True)
class SubClassOf(ClassAxiom):
    sub: ClassExpression
    super: ClassExpression


@dataclass(frozen=True)
class EquivalentClass(ClassAxiom):
    a: ClassExpression
    b: ClassExpression


@dataclass(frozen=True)
class DisjointWith(ClassAxiom):
    a: Iri
    b: Iri


class PropertyAxiom:
    pass


@dataclass(frozen=True)
class Domain(PropertyAxiom):
    property: Iri
    cls: Iri


@dataclass(frozen=True)
class Range(PropertyAxiom):
    property: Iri
    cls: Iri


@dataclass(frozen=True)
class SubPropertyOf(PropertyAxiom):
    sub: Iri
    super: Iri


@dataclass(frozen=True)
class EquivalentProperty(PropertyAxiom):
    a: Iri
    b: Iri


@dataclass(frozen=True)
class InverseOf(PropertyAxiom):
    a: Iri
    b: Iri


FUNCTIONAL = "functional"
INVERSE_FUNCTIONAL = "inverse-functional"
TRANSITIVE = "transitive"
SYMMETRIC = "symmetric"

_CHARACTERISTICS = (FUNCTIONAL, INVERSE_FUNCTIONAL, TRANSITIVE, SYMMETRIC)


@dataclass(frozen=True)
class Characteristic(PropertyAxiom):
    property: Iri
    kind: str

    def __post_init__(self):
        if self.kind not in _CHARACTERISTICS:
            raise ValueError(f"unknown property characteristic: {self.kind!r}")


class Assertion:
    pass


@dataclass(frozen=True)
class ClassAssertion(Assertion):
    individual: Iri
    cls: Iri


@dataclass(frozen=True)
class PropertyAssertion(Assertion):
    subject: Iri
    property: Iri
    object: Union[Iri, OwlLiteral]


@dataclass
class OntologyDocument:
    """A parsed ontology: prefix table plus TBox and ABox axiom lists.

    The prefix map uses ``""`` for the document base IRI.  All IRIs inside
    axioms are fully expanded.
    """

    prefixes: Dict[str, str] = field(default_factory=dict)
    class_axioms: List[ClassAxiom] = field(default_factory=list)
    property_axioms: List[PropertyAxiom] = field(default_factory=list)
    assertions: List[Assertion] = field(default_factory=list)

    @property
    def base(self) -> str:
        return self.prefixes.get("", "")

    def axiom_count(self) -> int:
        return len(self.class_axioms) + len(self.property_axioms) + len(self.assertions)
