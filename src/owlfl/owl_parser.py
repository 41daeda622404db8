"""Parser for the supported RDF/XML OWL subset.

Preprocessing happens here: prefixed names are expanded to full IRIs and XML
schema datatypes are mapped to the builtin type tags (``_string``,
``_integer``, ``_double``, ``_boolean``).

The parser accepts the idiomatic XML shapes of the subset (owl:Class with
nested restrictions and boolean definitions, object/datatype properties with
characteristics, attribute- and element-form ABox assertions), not arbitrary
RDF triple serializations.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Tuple, Union

from .diagnostics import Diagnostic, ERROR, WARNING
from .owl_model import (
    AllValuesFrom, Assertion, Characteristic, ClassAssertion, ClassAxiom,
    ComplementOf, DisjointWith, Domain, EquivalentClass, EquivalentProperty,
    ExactCardinality, FUNCTIONAL, HasValue, INVERSE_FUNCTIONAL, IntersectionOf,
    InverseOf, Iri, MaxCardinality, MinCardinality, Named, OneOf,
    OntologyDocument, OwlLiteral, PropertyAssertion, PropertyAxiom, Range,
    Restriction, SYMMETRIC, SomeValuesFrom, SubClassOf, SubPropertyOf,
    TRANSITIVE, UnionOf, is_absolute, namespace,
)

OWL = "http://www.w3.org/2002/07/owl#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"
XML_NS = "http://www.w3.org/XML/1998/namespace"
THING = OWL + "Thing"  # the top class

DEFAULT_BASE = "http://example.org/ontology"


# Fixed XML-type mapping table.
_TYPE_MAP = {
    "string": "_string",
    "integer": "_integer",
    "nonNegativeInteger": "_integer",
    "int": "_integer",
    "decimal": "_double",
    "double": "_double",
    "float": "_double",
    "boolean": "_boolean",
}


def map_xml_type(xml_type: Union[Iri, str]) -> Tuple[str, Optional[Diagnostic]]:
    """Map an XSD/XML type IRI to a builtin type tag.

    Unknown types pass through as opaque names, with a warning.
    """
    value = xml_type.value if isinstance(xml_type, Iri) else xml_type
    local = value.rsplit("#", 1)[-1]
    tag = _TYPE_MAP.get(local)
    if tag is None:
        return value, Diagnostic(
            WARNING, "unknown-type", f"no builtin mapping for type {value!r}"
        )
    return tag, None


def _q(ns: str, local: str) -> str:
    return "{%s}%s" % (ns, local)


_ABOUT, _ID, _RESOURCE = _q(RDF, "about"), _q(RDF, "ID"), _q(RDF, "resource")
_DATATYPE, _TYPE, _RDF_ROOT = _q(RDF, "datatype"), _q(RDF, "type"), _q(RDF, "RDF")
_XML_BASE = _q(XML_NS, "base")
_ONTOLOGY, _RESTRICTION = _q(OWL, "Ontology"), _q(OWL, "Restriction")
_ON_PROPERTY, _HAS_VALUE = _q(OWL, "onProperty"), _q(OWL, "hasValue")
_COMPLEMENT_OF, _ONE_OF = _q(OWL, "complementOf"), _q(OWL, "oneOf")
_DISJOINT_WITH = _q(OWL, "disjointWith")
_CLASS_TAGS = (_q(OWL, "Class"), _q(RDFS, "Class"))
_INDIVIDUAL_TAGS = (_q(OWL, "Thing"), _q(RDF, "Description"))
# attributes that are RDF syntax, not property values
_SYNTAX_ATTRS = ("{%s}" % RDF, "{%s}" % XML_NS)
# element names in these namespaces are vocabulary, never a class of individuals
_VOCABULARY = tuple("{%s}" % ns for ns in (OWL, RDF, RDFS,
                                           OWL[:-1], RDF[:-1], RDFS[:-1]))

# The OWL vocabulary of the subset.  Each mapping is written once, in the
# direction the reader uses it; the writer inverts it.  Element names are in
# ElementTree's ``{namespace}local`` form.

_CHAR_BY_IRI = {
    OWL + "FunctionalProperty": FUNCTIONAL,
    OWL + "InverseFunctionalProperty": INVERSE_FUNCTIONAL,
    OWL + "TransitiveProperty": TRANSITIVE,
    OWL + "SymmetricProperty": SYMMETRIC,
}

# property axiom elements, each built as ``Axiom(subject, target)``
_PROPERTY_AXIOMS = {
    _q(RDFS, "domain"): Domain,
    _q(RDFS, "range"): Range,
    _q(RDFS, "subPropertyOf"): SubPropertyOf,
    _q(OWL, "equivalentProperty"): EquivalentProperty,
    _q(OWL, "inverseOf"): InverseOf,
}

# class axiom elements whose object is a class expression
_CLASS_AXIOMS = {
    _q(RDFS, "subClassOf"): SubClassOf,
    _q(OWL, "equivalentClass"): EquivalentClass,
}

# owl:Class definitions over a collection of class expressions
_BOOLEAN_CLASSES = {
    _q(OWL, "unionOf"): UnionOf,
    _q(OWL, "intersectionOf"): IntersectionOf,
}

# restriction facets whose object is a class expression (the filler)
_FILLER_FACETS = {
    _q(OWL, "allValuesFrom"): AllValuesFrom,
    _q(OWL, "someValuesFrom"): SomeValuesFrom,
}

_CARDINALITY_FACETS = {
    _q(OWL, "maxCardinality"): MaxCardinality,
    _q(OWL, "minCardinality"): MinCardinality,
    _q(OWL, "cardinality"): ExactCardinality,
}

# owl:Class children that define the class (see parse_class_body_expr)
_DEFINITION_TAGS = (*_BOOLEAN_CLASSES, _COMPLEMENT_OF, _ONE_OF)

# a characteristic's class also declares a property in element form
_PROPERTY_TAGS = {
    _q(OWL, "ObjectProperty"),
    _q(OWL, "DatatypeProperty"),
    _q(RDF, "Property"),
    *(_q(OWL, iri[len(OWL):]) for iri in _CHAR_BY_IRI),
}


class _DocParser:
    def __init__(self, base: str, prefixes: Dict[str, str]):
        self.base = base
        self.prefixes = prefixes
        self.doc = OntologyDocument(prefixes=dict(prefixes))
        self.diagnostics: List[Diagnostic] = []
        self._blank_counter = 0
        # the IRI of each reference and of each element or attribute name,
        # worked out once per document, and one checked Iri per IRI value
        self._resolved: Dict[str, Iri] = {}
        self._named: Dict[str, Iri] = {}
        self._iris: Dict[str, Iri] = {}
        self._classes: Dict[str, Named] = {}  # IRI -> its one class

    # -- helpers

    def warn(self, code: str, message: str):
        self.diagnostics.append(Diagnostic(WARNING, code, message))

    def error(self, code: str, message: str):
        self.diagnostics.append(Diagnostic(ERROR, code, message))

    def fresh_blank(self) -> Iri:
        self._blank_counter += 1
        return Iri(namespace(self.base) + f"_:b{self._blank_counter}")

    def iri(self, value: str) -> Iri:
        """The one ``Iri`` of ``value`` in this document."""
        iri = self._iris.get(value)
        if iri is None:
            iri = self._iris[value] = Iri(value)
        return iri

    def resolve(self, ref: str) -> Iri:
        """Resolve an rdf:ID / rdf:about / rdf:resource value."""
        iri = self._resolved.get(ref)
        if iri is None:
            iri = self._resolved[ref] = self._resolve(ref)
        return iri

    def _resolve(self, value: str) -> Iri:
        """A declared ``pfx:local``, else an absolute IRI (RFC 3986: any
        ``scheme:``) not written ``#…``, else relative to the base."""
        value = value.strip()
        fragment = value.startswith("#")
        if fragment:
            value = value[1:]
        pfx, colon, local = value.partition(":")
        if colon and pfx in self.prefixes:
            return self.iri(namespace(self.prefixes[pfx]) + local)
        if not fragment and is_absolute(value):
            return self.iri(value)
        return self.iri(namespace(self.base) + value)

    def resource(self, el: ET.Element) -> Optional[Iri]:
        """The resolved rdf:resource of ``el``, if it has one."""
        res = el.get(_RESOURCE)
        return None if res is None else self.resolve(res)

    def name_iri(self, name: str) -> Iri:
        """The IRI an element or attribute name stands for: ``{ns}local``,
        or a bare name against the base."""
        iri = self._named.get(name)
        if iri is None:
            if name.startswith("{"):
                ns, local = name[1:].split("}", 1)
                iri = self.iri(namespace(ns) + local)
            else:
                iri = self.resolve(name)
            self._named[name] = iri
        return iri

    def named(self, iri: Iri) -> Named:
        """The class ``iri`` names, made once per IRI."""
        n = self._classes.get(iri.value)
        if n is None:
            n = self._classes[iri.value] = Named(iri)
        return n

    def subject(self, el: ET.Element) -> Iri:
        ref = el.get(_ID, el.get(_ABOUT))
        return self.fresh_blank() if ref is None else self.resolve(ref)

    # -- class expressions

    def parse_class_expr(self, el: ET.Element):
        tag = el.tag
        if tag == _RESTRICTION:
            return self.parse_restriction(el)
        if tag in _CLASS_TAGS:
            about = el.get(_ABOUT) or el.get(_ID)
            expr = self.parse_class_body_expr(el)
            if expr is not None:
                return expr
            if about is not None:
                return self.named(self.resolve(about))
        self.warn("unknown-construct", f"unsupported class expression <{tag}>")
        return None

    def class_operands(self, el: ET.Element):
        """The class expressions ``el`` names, lazily: its rdf:resource, or
        else each of its child elements that parses."""
        res = self.resource(el)
        if res is not None:
            yield self.named(res)
            return
        for child in el:
            expr = self.parse_class_expr(child)
            if expr is not None:
                yield expr

    def parse_class_body_expr(self, el: ET.Element):
        """Boolean/enumeration definition inside an owl:Class element."""
        for child in el:
            ctag = child.tag
            if ctag in _BOOLEAN_CLASSES:
                ops = [e for e in map(self.parse_class_expr, child) if e is not None]
                if len(ops) >= 2:
                    return _BOOLEAN_CLASSES[ctag](tuple(ops))
            elif ctag == _COMPLEMENT_OF:
                inner = next(self.class_operands(child), None)
                if inner is not None:
                    return ComplementOf(inner)
            elif ctag == _ONE_OF:
                refs = (sub.get(_ABOUT) or sub.get(_ID) for sub in child)
                inds = [self.resolve(ref) for ref in refs if ref is not None]
                if inds:
                    return OneOf(tuple(inds))
        return None

    def parse_restriction(self, el: ET.Element):
        prop: Optional[Iri] = None
        kind = None
        for child in el:
            ctag = child.tag
            if ctag == _ON_PROPERTY:
                prop = self.resource(child) or prop
            elif ctag in _FILLER_FACETS:
                kind = _FILLER_FACETS[ctag](self._filler(child))
            elif ctag == _HAS_VALUE:
                kind = HasValue(self.resource(child) or self._literal(child))
            elif ctag in _CARDINALITY_FACETS:
                try:
                    n = int((child.text or "").strip())
                except ValueError:
                    self.error("bad-cardinality",
                               f"non-integer cardinality {child.text!r}")
                    continue
                if n < 0:
                    self.error("bad-cardinality",
                               f"negative cardinality {child.text!r}")
                    continue
                kind = _CARDINALITY_FACETS[ctag](n)
            else:
                self.warn("unknown-construct",
                          f"unsupported restriction facet <{ctag}>")
        if prop is None or kind is None:
            self.warn("unknown-construct", "incomplete owl:Restriction skipped")
            return None
        return Restriction(prop, kind)

    def _filler(self, el: ET.Element):
        expr = next(self.class_operands(el), None)
        if expr is None:
            self.warn("unknown-construct", "missing restriction filler")
            return self.named(self.iri(THING))
        return expr

    def _literal(self, el: ET.Element) -> OwlLiteral:
        datatype = el.get(_DATATYPE)
        tag, diag = map_xml_type(datatype) if datatype else ("_string", None)
        if diag:
            self.diagnostics.append(diag)
        return OwlLiteral((el.text or "").strip(), tag)

    # -- top-level elements

    def parse_class(self, el: ET.Element):
        subj = self.subject(el)
        cls = self.named(subj)
        defined = self.parse_class_body_expr(el)
        if defined is not None:
            self.doc.class_axioms.append(EquivalentClass(cls, defined))
        for child in el:
            ctag = child.tag
            if ctag in _DEFINITION_TAGS:
                continue  # consumed above
            if ctag in _CLASS_AXIOMS:
                self.doc.class_axioms.extend(_CLASS_AXIOMS[ctag](cls, e)
                                             for e in self.class_operands(child))
            elif ctag == _DISJOINT_WITH:
                res = self.resource(child)
                if res is not None:
                    self.doc.class_axioms.append(DisjointWith(subj, res))
            else:
                self.warn("unknown-construct",
                          f"unsupported class axiom <{ctag}>")

    def parse_property(self, el: ET.Element):
        subj = self.subject(el)
        # element-form characteristic, e.g. <owl:TransitiveProperty rdf:ID=...>
        implied = _CHAR_BY_IRI.get(self.name_iri(el.tag).value)
        if implied is not None:
            self.doc.property_axioms.append(Characteristic(subj, implied))
        for child in el:
            ctag = child.tag
            res = self.resource(child)
            if ctag in _PROPERTY_AXIOMS and res is not None:
                self.doc.property_axioms.append(_PROPERTY_AXIOMS[ctag](subj, res))
            elif ctag == _TYPE and res is not None:
                kind = _CHAR_BY_IRI.get(res.value)
                if kind is None:
                    self.warn("unknown-construct",
                              f"unsupported property type {child.get(_RESOURCE)!r}")
                else:
                    self.doc.property_axioms.append(Characteristic(subj, kind))
            else:
                self.warn("unknown-construct",
                          f"unsupported property axiom <{ctag}>")

    def parse_individual(self, el: ET.Element):
        subj = self.subject(el)
        classes = [self._individual_class(el)]
        values: List[Assertion] = []  # asserted after the memberships
        for child in el:
            ctag = child.tag
            res = self.resource(child)
            if ctag == _TYPE:
                classes.append(res)
                continue
            prop = self.name_iri(ctag)
            if res is not None:
                values.append(PropertyAssertion(subj, prop, res))
            elif len(child) > 0:
                # nested (possibly anonymous) individual; only its class and
                # attribute-form values are read
                inner = child[0]
                inner_cls = self._individual_class(inner)
                inner_subj = self.subject(inner)
                values.append(PropertyAssertion(subj, prop, inner_subj))
                values += self.describe(inner, inner_subj, [inner_cls])
            else:
                values.append(PropertyAssertion(subj, prop, self._literal(child)))
        self.doc.assertions += self.describe(el, subj, classes)
        self.doc.assertions += values

    def describe(self, el: ET.Element, subj: Iri, classes: List[Optional[Iri]]
                 ) -> List[Assertion]:
        """Class memberships of ``subj`` (first, so the printed frame opens
        with ``x:C``), then the property values in ``el``'s attributes."""
        out: List[Assertion] = [ClassAssertion(subj, c) for c in classes
                                if c is not None]
        out += [PropertyAssertion(subj, self.name_iri(name),
                                  OwlLiteral(value, "_string"))
                for name, value in el.attrib.items()
                if not name.startswith(_SYNTAX_ATTRS)]
        return out

    def _individual_class(self, el: ET.Element) -> Optional[Iri]:
        return None if el.tag in _INDIVIDUAL_TAGS else self.name_iri(el.tag)

    def parse_top(self, el: ET.Element):
        tag = el.tag
        if tag == _ONTOLOGY:
            return
        if tag in _CLASS_TAGS:
            self.parse_class(el)
        elif tag in _PROPERTY_TAGS:
            self.parse_property(el)
        elif tag not in _INDIVIDUAL_TAGS and tag.startswith(_VOCABULARY):
            self.warn("unknown-construct", f"unsupported element <{tag}>")
        else:
            # also the ABox shorthand: <WineGrape rdf:ID="..."/> style
            self.parse_individual(el)


def parse_document(text: str) -> Tuple[Optional[OntologyDocument], List[Diagnostic]]:
    """Parse RDF/XML into an OntologyDocument plus diagnostics.

    Malformed XML, or a base or namespace that is not an absolute IRI, yields
    a single error diagnostic and no document.
    """
    prefixes: Dict[str, str] = {}
    declared: List[Tuple[str, str]] = []
    try:
        events = ET.iterparse(io.StringIO(text), events=("start-ns",))
        for _, (name, uri) in events:
            prefixes[name] = uri
            if uri:  # xmlns="" undeclares the default namespace
                declared.append(("namespace", uri))
    except ET.ParseError as e:
        pos = getattr(e, "position", None)
        return None, [Diagnostic(ERROR, "malformed-xml", str(e), pos)]
    root = events.root  # a document without one raises ParseError above

    base = root.get(_XML_BASE) or DEFAULT_BASE
    for what, value in [("xml:base", base)] + declared:
        if not is_absolute(value):
            return None, [Diagnostic(ERROR, "relative-iri",
                                     f"{what} {value!r} is not an absolute IRI")]
    prefixes[""] = base
    parser = _DocParser(base, prefixes)
    if root.tag == _RDF_ROOT:
        for el in root:
            parser.parse_top(el)
    else:
        parser.parse_top(root)
    return parser.doc, parser.diagnostics
