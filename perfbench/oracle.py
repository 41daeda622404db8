"""The benchmark's own oracle.  It shares no code with owlfl.

- ``read_axioms`` reads RDF/XML in the shapes owlfl's writer emits into the
  canonical axiom tuples of ``gen``, so a round trip is checked by multiset
  equality with the generator's expected axioms.
- ``expected_violations`` gives the exact violation messages, in the order
  the checker documents, for the violations ``gen`` planted.
- ``Closure`` is the least model of a mixed KB's rules, kept up to date
  fact by fact across inserts, and answers the serve queries.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Set, Tuple

from gen import CHARACTERISTICS, MixedKb, XSD

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XML_BASE = "{http://www.w3.org/XML/1998/namespace}base"
OBJECT = "_object"

_KIND_OF_CHARACTERISTIC = {v: k for k, v in CHARACTERISTICS.items()}
_TAG_OF_XSD = {XSD + "integer": "_integer", XSD + "string": "_string"}
_RESTRICTION_KIND = {"allValuesFrom": "AVF", "someValuesFrom": "SVF",
                     "hasValue": "HV", "maxCardinality": "MAX",
                     "minCardinality": "MIN", "cardinality": "EXACT"}
_PROPERTY_KIND = {RDFS + "domain": "Domain", RDFS + "range": "Range",
                  RDFS + "subPropertyOf": "SubPropertyOf",
                  OWL + "equivalentProperty": "EquivalentProperty",
                  OWL + "inverseOf": "InverseOf"}


class UnexpectedShape(ValueError):
    pass


def _tag(el) -> str:
    return el.tag[1:].replace("}", "", 1) if el.tag.startswith("{") else el.tag


def read_axioms(text: str) -> List[tuple]:
    """Canonical axiom tuples of an RDF/XML document, in document order."""
    root = ET.fromstring(text)
    base = (root.get(XML_BASE) or "").rstrip("#")

    def resolve(value: str) -> str:
        if "://" in value:
            return value
        return base + "#" + value.lstrip("#")

    def ref(el) -> str:
        value = el.get(f"{{{RDF}}}resource")
        if value is None:
            raise UnexpectedShape(f"no rdf:resource on <{_tag(el)}>")
        return resolve(value)

    def about(el) -> str:
        value = el.get(f"{{{RDF}}}about")
        if value is None:
            raise UnexpectedShape(f"no rdf:about on <{_tag(el)}>")
        return resolve(value)

    def collection(el) -> tuple:
        return tuple(about(c) for c in el)

    def expression(el):
        tag = _tag(el)
        if tag == OWL + "Restriction":
            return restriction(el)
        if tag == OWL + "Class":
            return about(el)
        raise UnexpectedShape(f"class expression <{tag}>")

    def restriction(el):
        if len(el) != 2 or _tag(el[0]) != OWL + "onProperty":
            raise UnexpectedShape("restriction layout")
        prop, facet = el
        kind = _RESTRICTION_KIND[_tag(facet)[len(OWL):]]
        if kind in ("AVF", "SVF"):
            x = ref(facet)
        elif kind == "HV" and facet.get(f"{{{RDF}}}resource") is not None:
            x = ("iri", ref(facet))
        elif kind == "HV":
            x = ("lit", "_string", facet.text or "")
        else:
            x = int(facet.text)
        return (kind, ref(prop), x)

    out: List[tuple] = []
    for el in root:
        tag = _tag(el)
        if tag == OWL + "Class":
            subject = about(el)
            for child in el:
                ctag = _tag(child)
                nested = child[0] if len(child) else None
                if ctag == RDFS + "subClassOf":
                    target = expression(nested) if nested is not None \
                        else ref(child)
                    out.append(("SubClassOf", subject, target))
                elif ctag == OWL + "equivalentClass":
                    target = expression(nested) if nested is not None \
                        else ref(child)
                    out.append(("EquivalentClass", subject, target))
                elif ctag == OWL + "unionOf":
                    out.append(("EquivalentClass", subject,
                                ("Union", collection(child))))
                elif ctag == OWL + "intersectionOf":
                    out.append(("EquivalentClass", subject,
                                ("Intersection", collection(child))))
                elif ctag == OWL + "complementOf":
                    out.append(("EquivalentClass", subject,
                                ("Complement", ref(child))))
                elif ctag == OWL + "oneOf":
                    out.append(("EquivalentClass", subject,
                                ("OneOf", collection(child))))
                elif ctag == OWL + "disjointWith":
                    out.append(("DisjointWith", subject, ref(child)))
                else:
                    raise UnexpectedShape(f"class axiom <{ctag}>")
        elif tag == OWL + "ObjectProperty":
            prop = about(el)
            for child in el:
                ctag = _tag(child)
                if ctag == RDF + "type":
                    out.append(("Characteristic", prop,
                                _KIND_OF_CHARACTERISTIC[ref(child)]))
                elif ctag in _PROPERTY_KIND:
                    out.append((_PROPERTY_KIND[ctag], prop, ref(child)))
                else:
                    raise UnexpectedShape(f"property axiom <{ctag}>")
        elif tag == OWL + "Thing":
            subject = about(el)
            for child in el:
                ctag = _tag(child)
                if ctag == RDF + "type":
                    out.append(("ClassAssertion", subject, ref(child)))
                elif child.get(f"{{{RDF}}}resource") is not None:
                    out.append(("PropertyAssertion", subject, ctag,
                                ("iri", ref(child))))
                else:
                    dt = child.get(f"{{{RDF}}}datatype")
                    lit_tag = _TAG_OF_XSD[dt] if dt else "_string"
                    out.append(("PropertyAssertion", subject, ctag,
                                ("lit", lit_tag, child.text or "")))
        elif tag != OWL + "Ontology":
            raise UnexpectedShape(f"top-level element <{tag}>")
    return out


# --- expected violation messages ---------------------------------------------

# The message formats the checker library documents, holes in argument order.
DISJOINT = "[OWL2FLORA] disjointWith constraint violation: {} disjoint with {}"
ONEOF = "[OWL2FLORA] oneOf constraint: extraneous class member {} : {}"
SOMEVALUES = ("[OWL2FLORA] someValuesFrom constraint violation: "
              "{}:{} and {}.{} disjoint from {}")
HASVALUE = "[OWL2FLORA] hasValue constraint violation: {}.{} missing value {}"
CARDINALITY = ("[OWL2FLORA] cardinality constraint violation: KB is "
               "inconsistent with the constraints: {}.{} has {} distinct "
               "values, allowed {{{}:{}}}")
RANGE = ("[OWL2FLORA] signature range violation: {}.{} value {} is not "
         "in class {}")
INVFUNC = ("[OWL2FLORA] inverseFunctional constraint violation: "
           "{} maps both {} and {} to {}")


def expected_violations(planted: Dict[str, list]) -> List[str]:
    """Messages for the planted constraints, in the checker's order: by kind,
    then by sorted constraint (signatures in document order), then by sorted
    member."""
    members: Dict[str, Set[str]] = planted["members"]
    values: Dict[Tuple[str, str], Set[str]] = planted["values"]

    def of(c):
        return sorted(members.get(c, ()))

    def vals(x, p):
        return sorted(values.get((x, p), ()))

    out: List[str] = []
    # DisjointWith(a, b) is stated as disjoint_classes(b, a)
    for b, a in sorted((b, a) for a, b in planted["disjoint"]):
        out += [DISJOINT.format(b, a) for x in of(b) if x in members.get(a, ())]
    for c, allowed in sorted(planted["oneof"]):
        out += [ONEOF.format(x, c) for x in of(c) if x not in allowed]
    for c, p, f in sorted(planted["svf"]):
        out += [SOMEVALUES.format(x, c, x, p, f) for x in of(c)
                if not any(v in members.get(f, ()) for v in vals(x, p))]
    for c, p, v in sorted(planted["hasvalue"]):
        out += [HASVALUE.format(x, p, v) for x in of(c) if v not in vals(x, p)]
    for c, p, n in planted["maxcard"]:
        out += [CARDINALITY.format(x, p, len(vals(x, p)), 0, n) for x in of(c)
                if len(vals(x, p)) > n]
    subjects = sorted({s for s, _ in values})
    for p, r in planted["range"]:
        out += [RANGE.format(x, p, v, r) for x in subjects for v in vals(x, p)
                if v not in members.get(r, ())]
    for p in sorted(planted["invfunc"]):
        by_value: Dict[str, Set[str]] = {}
        for (s, q), vs in values.items():
            for v in vs if q == p else ():
                by_value.setdefault(v, set()).add(s)
        for v in sorted(by_value):
            subs = sorted(by_value[v])
            if len(subs) > 1:
                out.append(INVFUNC.format(p, subs[0], subs[1], v))
    return out


# --- closure of a mixed KB ---------------------------------------------------


class Closure:
    """Least model of a mixed KB: subclass transitivity, membership
    inheritance, ``_object`` membership of every individual, the
    allValuesFrom rules, the transitive property and the inverse pair.

    Facts are added through a work list, so an insert costs only its
    consequences.  ``size()`` counts membership, subclass and attribute
    facts, the families an insert can change.
    """

    def __init__(self, kb: MixedKb):
        self.isa: Set[Tuple[str, str]] = set()
        self.sub: Set[Tuple[str, str]] = set()
        self.attr: Set[Tuple[str, str, str]] = set()
        self.supers: Dict[str, Set[str]] = {}
        self.subs: Dict[str, Set[str]] = {}
        self.members: Dict[str, Set[str]] = {}
        self.classes: Dict[str, Set[str]] = {}
        self.out: Dict[Tuple[str, str], Set[str]] = {}
        self.into: Dict[Tuple[str, str], Set[str]] = {}
        self.avf_by_class: Dict[str, List[Tuple[str, str]]] = {}
        self.avf_by_prop: Dict[str, List[Tuple[str, str]]] = {}
        for c, p, f in kb.avf:
            self.avf_by_class.setdefault(c, []).append((p, f))
            self.avf_by_prop.setdefault(p, []).append((c, f))
        self.transitive = set(kb.transitive)
        self.inverse: Dict[str, str] = {}
        for p, q in kb.inverse:
            self.inverse[p] = q
            self.inverse[q] = p
        self._work: List[tuple] = []
        for a, b in kb.sub:
            self.add(("sub", a, b))
        for x, c in kb.isa:
            self.add(("isa", x, c))
        for s, p, v in kb.attr:
            self.add(("attr", s, p, v))

    def size(self) -> int:
        return len(self.isa) + len(self.sub) + len(self.attr)

    def add(self, fact: tuple) -> int:
        """Add a base fact and its consequences; returns facts added."""
        before = self.size()
        self._work.append(fact)
        while self._work:
            self._apply(self._work.pop())
        return self.size() - before

    def _apply(self, fact: tuple):
        push = self._work.append
        if fact[0] == "isa":
            _, x, c = fact
            if (x, c) in self.isa:
                return
            self.isa.add((x, c))
            self.members.setdefault(c, set()).add(x)
            self.classes.setdefault(x, set()).add(c)
            push(("isa", x, OBJECT))
            for d in self.supers.get(c, ()):
                push(("isa", x, d))
            for p, f in self.avf_by_class.get(c, ()):
                for y in self.out.get((x, p), ()):
                    push(("isa", y, f))
        elif fact[0] == "sub":
            _, a, b = fact
            if (a, b) in self.sub:
                return
            self.sub.add((a, b))
            self.supers.setdefault(a, set()).add(b)
            self.subs.setdefault(b, set()).add(a)
            for t in list(self.supers.get(b, ())):
                push(("sub", a, t))
            for s in list(self.subs.get(a, ())):
                push(("sub", s, b))
            for x in list(self.members.get(a, ())):
                push(("isa", x, b))
        else:
            _, x, p, y = fact
            if (x, p, y) in self.attr:
                return
            self.attr.add((x, p, y))
            self.out.setdefault((x, p), set()).add(y)
            self.into.setdefault((p, y), set()).add(x)
            push(("isa", x, OBJECT))
            push(("isa", y, OBJECT))
            if p in self.transitive:
                for z in list(self.out.get((y, p), ())):
                    push(("attr", x, p, z))
                for w in list(self.into.get((p, x), ())):
                    push(("attr", w, p, y))
            if p in self.inverse:
                push(("attr", y, self.inverse[p], x))
            for c, f in self.avf_by_prop.get(p, ()):
                if c in self.classes.get(x, ()):
                    push(("isa", y, f))

    # -- the serve queries, answers as printed names in the program's order

    def answer(self, op: tuple):
        verb = op[0]
        if verb == "is":
            return (op[1], op[2]) in self.isa
        if verb == "instances":
            return sorted(self.members.get(op[1], ()))
        if verb == "classes-of":
            return sorted(self.classes.get(op[1], ()))
        if verb == "subclass":
            return (op[1], op[2]) in self.sub
        if verb == "superclasses":
            return sorted(self.supers.get(op[1], set()) - {op[1]})
        raise ValueError(f"unknown query verb {verb!r}")
