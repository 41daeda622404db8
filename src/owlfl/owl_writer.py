"""Serialize an OntologyDocument back to the RDF/XML subset.

The output re-parses to a structurally equal document (same axioms, same
order per axiom list).  Each axiom becomes an element node
``(tag, attrs, body)``, where ``body`` is ``None`` for an empty element, the
escaped text of a literal, or a list of child nodes; ``_render`` writes the
nodes out with their indentation.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from functools import lru_cache
from itertools import chain, count
from typing import List, Optional

from .owl_model import (
    Characteristic, ClassAssertion, ComplementOf, DisjointWith,
    EquivalentClass, HasValue, IntersectionOf, Iri, Named, OneOf,
    OntologyDocument, PropertyAssertion, Restriction, SubClassOf, UnionOf,
    namespace,
)
from .owl_parser import (
    DEFAULT_BASE, OWL, RDF, RDFS, XSD, _BOOLEAN_CLASSES, _CARDINALITY_FACETS,
    _CHAR_BY_IRI, _FILLER_FACETS, _PROPERTY_AXIOMS,
)

_PREFIX = {RDF: "rdf", RDFS: "rdfs", OWL: "owl"}


def _inverse(by_tag):
    """``{Class: "prefix:local"}`` from a reader map ``{"{ns}local": Class}``."""
    out = {}
    for tag, cls in by_tag.items():
        ns, local = tag[1:].split("}", 1)
        out[cls] = f"{_PREFIX[ns]}:{local}"
    return out


_CHAR_IRI = {kind: Iri(iri) for iri, kind in _CHAR_BY_IRI.items()}
_PROPERTY_TAG = _inverse(_PROPERTY_AXIOMS)
_BOOLEAN_TAG = _inverse(_BOOLEAN_CLASSES)
_FILLER_TAG = _inverse(_FILLER_FACETS)
_CARDINALITY_TAG = _inverse(_CARDINALITY_FACETS)

# the datatype of each builtin type tag but ``_string`` (a plain literal); an
# opaque tag is the datatype IRI as read, written back as it is
_TAG_TO_XSD = {
    "_integer": XSD + "integer",
    "_double": XSD + "double",
    "_boolean": XSD + "boolean",
}

_COLLECTION = ' rdf:parseType="Collection"'

# document prefixes the header does not declare ("" is the base)
_RESERVED = ("", "rdf", "rdfs", "owl", "xml", "xsd")


def escape(text: str) -> str:
    """``text`` as XML character data, as ``xml.sax.saxutils.escape``
    writes it."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(value: str) -> str:
    """``value`` as a quoted XML attribute value, as
    ``xml.sax.saxutils.quoteattr`` writes it: in ``"`` unless it holds ``"``
    and no ``'``."""
    value = escape(value).replace("\n", "&#10;").replace(
        "\r", "&#13;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


@lru_cache(maxsize=4096)
def _is_element_name(local: str) -> bool:
    """Whether the XML reader takes ``<local/>`` as an element so named."""
    try:
        return ET.fromstring(f"<{local}/>").tag == local
    except ET.ParseError:
        return False


def _render(node, depth: int, lines: List[str]):
    tag, attrs, body = node
    pad = "  " * depth
    if body is None:
        lines.append(f"{pad}<{tag}{attrs}/>")
    elif isinstance(body, str):
        lines.append(f"{pad}<{tag}{attrs}>{body}</{tag}>")
    else:
        lines.append(f"{pad}<{tag}{attrs}>")
        for child in body:
            _render(child, depth + 1, lines)
        lines.append(f"{pad}</{tag}>")


class _Writer:
    def __init__(self, doc: OntologyDocument):
        self.doc = doc
        self.base = doc.base or DEFAULT_BASE
        self.ns = namespace(self.base)
        # the prefix a property tag uses for each namespace: the base's
        # is "", a document prefix (the first of two) or a new ``nsN``
        self.prefix_of = {namespace(ns): pfx
                          for pfx, ns in reversed(doc.prefixes.items())
                          if pfx not in _RESERVED}
        self.prefix_of.update({**_PREFIX, self.ns: ""})
        self.new_namespaces: List[str] = []
        self.fresh = (pfx for pfx in map("ns{}".format, count(1))
                      if pfx not in doc.prefixes)
        self.refs = {}
        self.tags = {}

    def ref(self, value: str) -> str:
        """The quoted attribute value that names the IRI ``value``, made once
        per IRI: ``#L`` for an IRI in the base's namespace (no ``:`` in
        ``L``), else the whole IRI."""
        if value not in self.refs:
            local = value.removeprefix(self.ns)  # value, if outside it
            self.refs[value] = quoteattr(
                "#" + local if local != value and ":" not in local else value)
        return self.refs[value]

    # -- element builders

    def about(self, tag: str, iri: Iri, *children):
        """``<tag rdf:about=iri>`` around ``children`` (empty without)."""
        return (tag, f" rdf:about={self.ref(iri.value)}",
                list(children) or None)

    def resource(self, tag: str, iri: Iri):
        return (tag, f" rdf:resource={self.ref(iri.value)}", None)

    def wrap(self, tag: str, expr):
        """``tag`` naming ``expr``: by reference when it is a named class,
        else around the nested expression."""
        if isinstance(expr, Named):
            return self.resource(tag, expr.iri)
        return (tag, "", [self.class_expr(expr)])

    def value(self, tag: str, value):
        """``tag`` holding an individual (by reference) or a literal."""
        if isinstance(value, Iri):
            return self.resource(tag, value)
        t = value.type_tag
        return self.literal(tag, value.lexical,
                            _TAG_TO_XSD.get(t, None if t.startswith("_") else t))

    @staticmethod
    def literal(tag: str, text: str, datatype=None):
        attrs = f" rdf:datatype={quoteattr(datatype)}" if datatype else ""
        return (tag, attrs, escape(text))

    # -- class expressions

    def class_expr(self, expr, defined: Optional[Iri] = None):
        """Node of ``expr``.  A class definition passes the defined class as
        ``defined``, which names the owl:Class element in place of an
        anonymous one."""
        if isinstance(expr, Named):
            return self.about("owl:Class", expr.iri)
        if isinstance(expr, Restriction):
            return self.restriction(expr)
        if isinstance(expr, (UnionOf, IntersectionOf)):
            ops = [self.class_expr(op) for op in expr.operands]
            body = (_BOOLEAN_TAG[type(expr)], _COLLECTION, ops)
        elif isinstance(expr, OneOf):
            inds = [self.about("owl:Thing", ind) for ind in expr.individuals]
            body = ("owl:oneOf", _COLLECTION, inds)
        elif isinstance(expr, ComplementOf):
            body = self.wrap("owl:complementOf", expr.operand)
        else:
            raise TypeError(f"cannot serialize {expr!r}")
        if defined is None:
            return ("owl:Class", "", [body])
        return self.about("owl:Class", defined, body)

    def restriction(self, r: Restriction):
        k = r.kind
        if isinstance(k, HasValue):
            facet = self.value("owl:hasValue", k.value)
        elif type(k) in _FILLER_TAG:
            facet = self.wrap(_FILLER_TAG[type(k)], k.filler)
        elif type(k) in _CARDINALITY_TAG:
            facet = self.literal(_CARDINALITY_TAG[type(k)], str(k.n),
                                 XSD + "nonNegativeInteger")
        else:
            raise TypeError(f"cannot serialize {k!r}")
        return ("owl:Restriction", "",
                [self.resource("owl:onProperty", r.property), facet])

    # -- axioms

    def class_axiom(self, ax):
        if isinstance(ax, SubClassOf) and isinstance(ax.sub, Named):
            return self.about("owl:Class", ax.sub.iri,
                              self.wrap("rdfs:subClassOf", ax.super))
        if isinstance(ax, SubClassOf):
            return None  # a compound subclass has no form in this subset
        if isinstance(ax, EquivalentClass) and isinstance(ax.a, Named):
            b = ax.b
            if isinstance(b, (UnionOf, IntersectionOf, OneOf)) or \
                    isinstance(b, ComplementOf) and isinstance(b.operand, Named):
                return self.class_expr(b, ax.a.iri)
            return self.about("owl:Class", ax.a.iri,
                              self.wrap("owl:equivalentClass", b))
        if isinstance(ax, DisjointWith):
            return self.about("owl:Class", ax.a,
                              self.resource("owl:disjointWith", ax.b))
        raise TypeError(f"cannot serialize {ax!r}")

    def property_axiom(self, ax):
        if isinstance(ax, Characteristic):
            subject = ax.property
            child = self.resource("rdf:type", _CHAR_IRI[ax.kind])
        elif type(ax) in _PROPERTY_TAG:
            subject, target = (getattr(ax, f) for f in ax.__slots__)
            child = self.resource(_PROPERTY_TAG[type(ax)], target)
        else:
            raise TypeError(f"cannot serialize {ax!r}")
        return self.about("owl:ObjectProperty", subject, child)

    def assertion(self, ax):
        if isinstance(ax, ClassAssertion):
            return self.about("owl:Thing", ax.individual,
                              self.resource("rdf:type", ax.cls))
        if isinstance(ax, PropertyAssertion):
            return self.about("owl:Thing", ax.subject,
                              self.value(self.prop_tag(ax.property), ax.object))
        raise TypeError(f"cannot serialize {ax!r}")

    def prop_tag(self, prop: Iri) -> str:
        """Its element name, made once per property: the local name, after
        its namespace's prefix (a new ``nsN`` where none is declared) unless
        that is the base."""
        if prop.value in self.tags:
            return self.tags[prop.value]
        local = prop.local_name
        ns = prop.value[:len(prop.value) - len(local)]
        if not _is_element_name(local):
            raise TypeError(
                f"property {prop.value!r} has no RDF/XML element name")
        if ns not in self.prefix_of:
            self.prefix_of[ns] = next(self.fresh)
            self.new_namespaces.append(ns)
        pfx = self.prefix_of[ns]
        tag = self.tags[prop.value] = f"{pfx}:{local}" if pfx else local
        return tag

    def run(self) -> str:
        body: List[str] = []
        for node in chain(map(self.class_axiom, self.doc.class_axioms),
                          map(self.property_axiom, self.doc.property_axioms),
                          map(self.assertion, self.doc.assertions)):
            if node is not None:
                _render(node, 1, body)
        ns_attrs = [
            f'xmlns:rdf="{RDF}"',
            f'xmlns:rdfs="{RDFS}"',
            f'xmlns:owl="{OWL}"',
            f'xmlns="{self.ns}"',
        ]
        for pfx in sorted(self.doc.prefixes):
            if pfx not in _RESERVED:
                ns_attrs.append(
                    f'xmlns:{pfx}="{namespace(self.doc.prefixes[pfx])}"')
        ns_attrs += [f"xmlns:{self.prefix_of[ns]}={quoteattr(ns)}"
                     for ns in self.new_namespaces]
        head = ['<?xml version="1.0"?>',
                "<rdf:RDF " + "\n         ".join(ns_attrs) +
                f'\n         xml:base="{self.base}">']
        return "\n".join(head + body + ["</rdf:RDF>", ""])


def serialize_document(doc: OntologyDocument) -> str:
    """RDF/XML text of ``doc``.  A general inclusion with a compound
    subclass has no form in this subset and is left out; ``translate_program``
    reports the rules such inclusions come from."""
    return _Writer(doc).run()
