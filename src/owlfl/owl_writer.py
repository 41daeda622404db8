"""Serialize an OntologyDocument back to the RDF/XML subset.

The output re-parses to a structurally equal document (same axioms, same
order per axiom list).
"""

from __future__ import annotations

from typing import List
from xml.sax.saxutils import escape, quoteattr

from .owl_model import (
    AllValuesFrom, Characteristic, ClassAssertion, ComplementOf, DisjointWith,
    Domain, EquivalentClass, EquivalentProperty, ExactCardinality, FUNCTIONAL,
    HasValue, INVERSE_FUNCTIONAL, IntersectionOf, InverseOf, Iri,
    MaxCardinality, MinCardinality, Named, OneOf, OntologyDocument, OwlLiteral,
    PropertyAssertion, Range, Restriction, SYMMETRIC, SomeValuesFrom,
    SubClassOf, SubPropertyOf, TRANSITIVE, UnionOf,
)
from .owl_parser import OWL, RDF, RDFS, XSD

_CHAR_IRI = {
    FUNCTIONAL: OWL + "FunctionalProperty",
    INVERSE_FUNCTIONAL: OWL + "InverseFunctionalProperty",
    TRANSITIVE: OWL + "TransitiveProperty",
    SYMMETRIC: OWL + "SymmetricProperty",
}

_TAG_TO_XSD = {
    "_string": XSD + "string",
    "_integer": XSD + "integer",
    "_double": XSD + "double",
    "_boolean": XSD + "boolean",
}


class _Writer:
    def __init__(self, doc: OntologyDocument):
        self.doc = doc
        self.base = doc.base or "http://example.org/ontology"
        self.lines: List[str] = []
        self.depth = 1

    def ref(self, iri: Iri) -> str:
        """Shortest reference form usable in rdf:resource/about."""
        if iri.value.startswith(self.base + "#"):
            return "#" + iri.value[len(self.base) + 1:]
        return iri.value

    def w(self, line: str):
        self.lines.append("  " * self.depth + line)

    def element(self, tag: str, attrs: str = "", body=None):
        if body is None:
            self.w(f"<{tag}{attrs}/>")
            return
        self.w(f"<{tag}{attrs}>")
        self.depth += 1
        body()
        self.depth -= 1
        self.w(f"</{tag}>")

    # -- class expressions

    def class_expr(self, expr, about: str = ""):
        """Write expr; ``about`` is the rdf:about attribute of the owl:Class
        element that a class definition writes in place of an anonymous one."""
        if isinstance(expr, Named):
            self.element("owl:Class", f" rdf:about={quoteattr(self.ref(expr.iri))}")
        elif isinstance(expr, (UnionOf, IntersectionOf)):
            inner_tag = "owl:unionOf" if isinstance(expr, UnionOf) else \
                "owl:intersectionOf"

            def ops():
                def items():
                    for op in expr.operands:
                        self.class_expr(op)
                self.element(inner_tag, ' rdf:parseType="Collection"', items)
            self.element("owl:Class", about, ops)
        elif isinstance(expr, ComplementOf):
            def comp():
                if isinstance(expr.operand, Named):
                    self.element(
                        "owl:complementOf",
                        f" rdf:resource={quoteattr(self.ref(expr.operand.iri))}",
                    )
                else:
                    def inner():
                        self.class_expr(expr.operand)
                    self.element("owl:complementOf", "", inner)
            self.element("owl:Class", about, comp)
        elif isinstance(expr, OneOf):
            def one():
                def items():
                    for ind in expr.individuals:
                        self.element(
                            "owl:Thing", f" rdf:about={quoteattr(self.ref(ind))}"
                        )
                self.element("owl:oneOf", ' rdf:parseType="Collection"', items)
            self.element("owl:Class", about, one)
        elif isinstance(expr, Restriction):
            self.restriction(expr)
        else:
            raise TypeError(f"cannot serialize {expr!r}")

    def restriction(self, r: Restriction):
        def body():
            self.element(
                "owl:onProperty", f" rdf:resource={quoteattr(self.ref(r.property))}"
            )
            k = r.kind
            if isinstance(k, AllValuesFrom):
                self.filler("owl:allValuesFrom", k.filler)
            elif isinstance(k, SomeValuesFrom):
                self.filler("owl:someValuesFrom", k.filler)
            elif isinstance(k, HasValue):
                if isinstance(k.value, Iri):
                    self.element(
                        "owl:hasValue", f" rdf:resource={quoteattr(self.ref(k.value))}"
                    )
                else:
                    self.literal_element("owl:hasValue", k.value)
            elif isinstance(k, MaxCardinality):
                self.card_element("owl:maxCardinality", k.n)
            elif isinstance(k, MinCardinality):
                self.card_element("owl:minCardinality", k.n)
            elif isinstance(k, ExactCardinality):
                self.card_element("owl:cardinality", k.n)
            else:
                raise TypeError(f"cannot serialize {k!r}")
        self.element("owl:Restriction", "", body)

    def filler(self, tag: str, expr):
        if isinstance(expr, Named):
            self.element(tag, f" rdf:resource={quoteattr(self.ref(expr.iri))}")
        else:
            def inner():
                self.class_expr(expr)
            self.element(tag, "", inner)

    def card_element(self, tag: str, n: int):
        dt = quoteattr(XSD + "nonNegativeInteger")
        self.w(f"<{tag} rdf:datatype={dt}>{n}</{tag}>")

    def literal_element(self, tag: str, lit: OwlLiteral):
        dt = _TAG_TO_XSD.get(lit.type_tag)
        attr = f" rdf:datatype={quoteattr(dt)}" if dt and lit.type_tag != "_string" \
            else ""
        self.w(f"<{tag}{attr}>{escape(lit.lexical)}</{tag}>")

    # -- axioms

    def class_axiom(self, ax):
        if isinstance(ax, SubClassOf) and isinstance(ax.sub, Named):
            def body():
                if isinstance(ax.super, Named):
                    self.element(
                        "rdfs:subClassOf",
                        f" rdf:resource={quoteattr(self.ref(ax.super.iri))}",
                    )
                else:
                    def inner():
                        self.class_expr(ax.super)
                    self.element("rdfs:subClassOf", "", inner)
            self.named_class(ax.sub.iri, body)
        elif isinstance(ax, SubClassOf):
            pass  # a compound subclass has no form in this subset
        elif isinstance(ax, EquivalentClass) and isinstance(ax.a, Named):
            b = ax.b
            if isinstance(b, (UnionOf, IntersectionOf, OneOf)) or \
                    isinstance(b, ComplementOf) and isinstance(b.operand, Named):
                self.class_expr(b, f" rdf:about={quoteattr(self.ref(ax.a.iri))}")
            elif isinstance(b, Named):
                def body():
                    self.element(
                        "owl:equivalentClass",
                        f" rdf:resource={quoteattr(self.ref(b.iri))}",
                    )
                self.named_class(ax.a.iri, body)
            else:
                def body():
                    def inner():
                        self.class_expr(b)
                    self.element("owl:equivalentClass", "", inner)
                self.named_class(ax.a.iri, body)
        elif isinstance(ax, DisjointWith):
            def body():
                self.element(
                    "owl:disjointWith", f" rdf:resource={quoteattr(self.ref(ax.b))}"
                )
            self.named_class(ax.a, body)
        else:
            raise TypeError(f"cannot serialize {ax!r}")

    def named_class(self, iri: Iri, body):
        self.element("owl:Class", f" rdf:about={quoteattr(self.ref(iri))}", body)

    def property_axiom(self, ax):
        if isinstance(ax, Domain):
            self.prop_el(ax.property, "rdfs:domain", ax.cls)
        elif isinstance(ax, Range):
            self.prop_el(ax.property, "rdfs:range", ax.cls)
        elif isinstance(ax, SubPropertyOf):
            self.prop_el(ax.sub, "rdfs:subPropertyOf", ax.super)
        elif isinstance(ax, EquivalentProperty):
            self.prop_el(ax.a, "owl:equivalentProperty", ax.b)
        elif isinstance(ax, InverseOf):
            self.prop_el(ax.a, "owl:inverseOf", ax.b)
        elif isinstance(ax, Characteristic):
            def body():
                self.element(
                    "rdf:type",
                    f" rdf:resource={quoteattr(_CHAR_IRI[ax.kind])}",
                )
            self.element(
                "owl:ObjectProperty",
                f" rdf:about={quoteattr(self.ref(ax.property))}", body,
            )
        else:
            raise TypeError(f"cannot serialize {ax!r}")

    def prop_el(self, prop: Iri, tag: str, target: Iri):
        def body():
            self.element(tag, f" rdf:resource={quoteattr(self.ref(target))}")
        self.element(
            "owl:ObjectProperty", f" rdf:about={quoteattr(self.ref(prop))}", body
        )

    def assertion(self, ax):
        if isinstance(ax, ClassAssertion):
            def body():
                self.element(
                    "rdf:type", f" rdf:resource={quoteattr(self.ref(ax.cls))}"
                )
            self.element(
                "owl:Thing", f" rdf:about={quoteattr(self.ref(ax.individual))}", body
            )
        elif isinstance(ax, PropertyAssertion):
            def body():
                tag = self.prop_tag(ax.property)
                if isinstance(ax.object, Iri):
                    self.element(tag, f" rdf:resource={quoteattr(self.ref(ax.object))}")
                else:
                    self.literal_element(tag, ax.object)
            self.element(
                "owl:Thing", f" rdf:about={quoteattr(self.ref(ax.subject))}", body
            )
        else:
            raise TypeError(f"cannot serialize {ax!r}")

    def prop_tag(self, prop: Iri) -> str:
        if prop.value.startswith(self.base + "#"):
            return prop.value[len(self.base) + 1:]
        for pfx, ns in self.doc.prefixes.items():
            if pfx and prop.value.startswith(ns + "#"):
                return f"{pfx}:{prop.value[len(ns) + 1:]}"
        # fall back to a local name in the base namespace
        return prop.local_name

    def run(self) -> str:
        ns_attrs = [
            f'xmlns:rdf="{RDF}"',
            f'xmlns:rdfs="{RDFS}"',
            f'xmlns:owl="{OWL}"',
            f'xmlns="{self.base}#"',
        ]
        for pfx in sorted(self.doc.prefixes):
            if pfx and pfx not in ("rdf", "rdfs", "owl", "xml", "xsd"):
                ns_attrs.append(f'xmlns:{pfx}="{self.doc.prefixes[pfx]}#"')
        header = "<rdf:RDF " + "\n         ".join(ns_attrs) + \
            f'\n         xml:base="{self.base}">'
        for ax in self.doc.class_axioms:
            self.class_axiom(ax)
        for ax in self.doc.property_axioms:
            self.property_axiom(ax)
        for ax in self.doc.assertions:
            self.assertion(ax)
        return "\n".join(
            ['<?xml version="1.0"?>', header] + self.lines + ["</rdf:RDF>"]
        ) + "\n"


def serialize_document(doc: OntologyDocument) -> str:
    """RDF/XML text of ``doc``.  A general inclusion with a compound
    subclass has no form in this subset and is left out; ``translate_program``
    reports the rules such inclusions come from."""
    return _Writer(doc).run()
