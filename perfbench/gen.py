"""Seeded generators for the benchmark inputs.

Every input is RDF/XML text built from ``random.Random(seed)``; the program
under test only ever receives that text.  Alongside the text each generator
returns what the oracle needs (expected axioms, planted violations, base
facts), worked out here from the generator's own choices, never by owlfl.

Axioms are written as canonical tuples of full IRIs, the same form
``oracle.read_axioms`` produces when it reads RDF/XML back:

    ("SubClassOf", a, b)                      named superclass
    ("SubClassOf", a, (kind, p, x))           kind in AVF SVF HV MAX MIN EXACT
    ("EquivalentClass", a, b | (kind, ...))   kind in Union Intersection
                                              Complement OneOf AVF
    ("DisjointWith", a, b)
    ("Domain" | "Range" | "SubPropertyOf" | "EquivalentProperty"
     | "InverseOf", p, q)
    ("Characteristic", p, kind)               kind in CHARACTERISTICS
    ("ClassAssertion", i, c)
    ("PropertyAssertion", s, p, value)        value ("iri", x) | ("lit", tag, text)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

BASE = "http://bench.example/kb"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"

CHARACTERISTICS = {
    "Functional": OWL + "FunctionalProperty",
    "InverseFunctional": OWL + "InverseFunctionalProperty",
    "Transitive": OWL + "TransitiveProperty",
    "Symmetric": OWL + "SymmetricProperty",
}
# literal type tags as the program maps XSD types (string is the default)
XSD_OF_TAG = {"_integer": XSD + "integer"}

HEADER = (
    '<?xml version="1.0"?>\n'
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
    '         xmlns:owl="http://www.w3.org/2002/07/owl#"\n'
    f'         xmlns="{BASE}#"\n'
    f'         xml:base="{BASE}">\n'
)
FOOTER = "</rdf:RDF>\n"

_RESTRICTION_TAG = {"AVF": "allValuesFrom", "SVF": "someValuesFrom",
                    "HV": "hasValue", "MAX": "maxCardinality",
                    "MIN": "minCardinality", "EXACT": "cardinality"}


def iri(name: str) -> str:
    return BASE + "#" + name


def _ref(name: str) -> str:
    return f'rdf:resource="#{name}"'


class OwlText:
    """RDF/XML elements plus the canonical axioms they state."""

    def __init__(self):
        self.parts: List[str] = []
        self.axioms: List[tuple] = []

    def text(self) -> str:
        return HEADER + "".join(self.parts) + FOOTER

    def _cls(self, name: str, body: str):
        self.parts.append(f'<owl:Class rdf:about="#{name}">{body}</owl:Class>\n')

    def _prop(self, name: str, body: str):
        self.parts.append(
            f'<owl:ObjectProperty rdf:about="#{name}">{body}</owl:ObjectProperty>\n')

    # -- class axioms

    def subclass(self, a: str, b: str):
        self._cls(a, f"<rdfs:subClassOf {_ref(b)}/>")
        self.axioms.append(("SubClassOf", iri(a), iri(b)))

    @staticmethod
    def _restriction(kind: str, p: str, x) -> Tuple[str, tuple]:
        tag = _RESTRICTION_TAG[kind]
        if kind in ("AVF", "SVF"):
            facet, canon = f"<owl:{tag} {_ref(x)}/>", iri(x)
        elif kind == "HV" and isinstance(x, tuple):  # ("lit", tag, text)
            facet, canon = f"<owl:{tag}>{x[2]}</owl:{tag}>", x
        elif kind == "HV":
            facet, canon = f"<owl:{tag} {_ref(x)}/>", ("iri", iri(x))
        else:
            facet = (f'<owl:{tag} rdf:datatype="{XSD}nonNegativeInteger">{x}'
                     f"</owl:{tag}>")
            canon = x
        text = (f"<owl:Restriction><owl:onProperty {_ref(p)}/>{facet}"
                "</owl:Restriction>")
        return text, (kind, iri(p), canon)

    def restriction(self, a: str, kind: str, p: str, x):
        text, canon = self._restriction(kind, p, x)
        self._cls(a, f"<rdfs:subClassOf>{text}</rdfs:subClassOf>")
        self.axioms.append(("SubClassOf", iri(a), canon))

    def equivalent(self, a: str, b: str):
        self._cls(a, f"<owl:equivalentClass {_ref(b)}/>")
        self.axioms.append(("EquivalentClass", iri(a), iri(b)))

    def equivalent_restriction(self, a: str, kind: str, p: str, x):
        text, canon = self._restriction(kind, p, x)
        self._cls(a, f"<owl:equivalentClass>{text}</owl:equivalentClass>")
        self.axioms.append(("EquivalentClass", iri(a), canon))

    def boolean(self, a: str, kind: str, ops: List[str]):
        tag = {"Union": "unionOf", "Intersection": "intersectionOf"}[kind]
        items = "".join(f'<owl:Class rdf:about="#{o}"/>' for o in ops)
        self._cls(a, f'<owl:{tag} rdf:parseType="Collection">{items}</owl:{tag}>')
        self.axioms.append(("EquivalentClass", iri(a),
                            (kind, tuple(iri(o) for o in ops))))

    def subclass_of_union(self, a: str, ops: List[str]):
        items = "".join(f'<owl:Class rdf:about="#{o}"/>' for o in ops)
        self._cls(a, "<rdfs:subClassOf><owl:Class>"
                     f'<owl:unionOf rdf:parseType="Collection">{items}'
                     "</owl:unionOf></owl:Class></rdfs:subClassOf>")
        self.axioms.append(("SubClassOf", iri(a),
                            ("Union", tuple(iri(o) for o in ops))))

    def complement(self, a: str, b: str):
        self._cls(a, f"<owl:complementOf {_ref(b)}/>")
        self.axioms.append(("EquivalentClass", iri(a), ("Complement", iri(b))))

    def one_of(self, a: str, members: List[str]):
        items = "".join(f'<owl:Thing rdf:about="#{m}"/>' for m in members)
        self._cls(a, f'<owl:oneOf rdf:parseType="Collection">{items}</owl:oneOf>')
        self.axioms.append(("EquivalentClass", iri(a),
                            ("OneOf", tuple(iri(m) for m in members))))

    def disjoint(self, a: str, b: str):
        self._cls(a, f"<owl:disjointWith {_ref(b)}/>")
        self.axioms.append(("DisjointWith", iri(a), iri(b)))

    # -- property axioms

    def prop_axioms(self, p: str, pairs: List[Tuple[str, str]]):
        """One property element with (kind, target) children, in order."""
        tags = {"Domain": "rdfs:domain", "Range": "rdfs:range",
                "SubPropertyOf": "rdfs:subPropertyOf",
                "EquivalentProperty": "owl:equivalentProperty",
                "InverseOf": "owl:inverseOf"}
        body = []
        for kind, target in pairs:
            if kind == "Characteristic":
                body.append(f'<rdf:type rdf:resource="{CHARACTERISTICS[target]}"/>')
                self.axioms.append(("Characteristic", iri(p), target))
            else:
                body.append(f"<{tags[kind]} {_ref(target)}/>")
                self.axioms.append((kind, iri(p), iri(target)))
        self._prop(p, "".join(body))

    # -- assertions

    def individual(self, name: str, classes: List[str],
                   values: List[Tuple[str, tuple]]):
        """One ``owl:Thing`` frame; a value is ("iri", name) or
        ("lit", tag, text)."""
        body = []
        for c in classes:
            body.append(f"<rdf:type {_ref(c)}/>")
            self.axioms.append(("ClassAssertion", iri(name), iri(c)))
        for p, v in values:
            if v[0] == "iri":
                body.append(f"<{p} {_ref(v[1])}/>")
                canon = ("iri", iri(v[1]))
            else:
                dt = XSD_OF_TAG.get(v[1])
                attr = f' rdf:datatype="{dt}"' if dt else ""
                body.append(f"<{p}{attr}>{v[2]}</{p}>")
                canon = v
            self.axioms.append(("PropertyAssertion", iri(name), iri(p), canon))
        self.parts.append(
            f'<owl:Thing rdf:about="#{name}">{"".join(body)}</owl:Thing>\n')


# --- translate: documents covering every construct ---------------------------


@dataclass
class TranslateInput:
    text: str
    expected: List[tuple]     # axioms the round trip must give back
    lossy_origin: int         # expected count of lossy-origin diagnostics


def translate_document(rng: random.Random, n_classes: int) -> TranslateInput:
    """One document: a class tree, every construct row of the translator's
    table, two lossy lowerings, and ABox frames.

    Constructs use their own property names, so no template of the reverse
    translation can claim rules that belong to another construct.
    """
    doc = OwlText()
    expected: List[tuple] = []
    cls = [f"C{i}" for i in range(n_classes)]
    inds = [f"i{i}" for i in range(2 * n_classes)]

    def pick(k=1):
        return rng.sample(cls, k) if k > 1 else rng.choice(cls)

    def keep():
        expected.append(doc.axioms[-1])

    for i in range(1, n_classes):
        doc.subclass(cls[i], cls[rng.randrange(max(0, i - 8), i)])
        keep()
    for k in range(n_classes // 4):
        doc.equivalent(f"E{k}", pick())
        keep()
        doc.boolean(f"U{k}", "Union", pick(2))
        keep()
        doc.boolean(f"N{k}", "Intersection", pick(2 + k % 2))
        keep()
        doc.complement(f"K{k}", pick())
        keep()
        doc.disjoint(f"D{k}", pick())
        keep()
        doc.one_of(f"W{k}", [f"w{k}_{j}" for j in range(1 + k % 4)])
        keep()
        # allValuesFrom pairs: two restrictions on one class, two properties
        a = pick()
        for j in range(2):
            doc.restriction(a, "AVF", f"av{k}_{j}", pick())
            keep()
        doc.restriction(pick(), "SVF", f"sv{k}", pick())
        keep()
        value = ("lit", "_string", f"lit{k}") if k % 4 == 0 else rng.choice(inds)
        doc.restriction(pick(), "HV", f"hv{k}", value)
        keep()
        doc.restriction(pick(), "MAX", f"mx{k}", rng.randint(1, 4))
        keep()
        doc.restriction(pick(), "MIN", f"mn{k}", rng.randint(1, 3))
        keep()
        doc.restriction(pick(), "EXACT", f"ex{k}", rng.randint(1, 3))
        keep()
        doc.prop_axioms(f"dr{k}", [("Domain", pick()), ("Range", pick())])
        expected.extend(doc.axioms[-2:])
        doc.prop_axioms(f"ra{k}", [("Range", pick())])
        keep()
        doc.prop_axioms(f"sp{k}", [("SubPropertyOf", f"sq{k}")])
        keep()
        doc.prop_axioms(f"ea{k}", [("EquivalentProperty", f"eb{k}")])
        keep()
        doc.prop_axioms(f"ia{k}", [("InverseOf", f"ib{k}")])
        keep()
        doc.prop_axioms(f"fn{k}", [("Characteristic", "Functional")])
        keep()
        doc.prop_axioms(f"tr{k}", [("Characteristic", "Transitive")])
        keep()
        doc.prop_axioms(f"sy{k}", [("Characteristic", "Symmetric")])
        keep()
        doc.prop_axioms(f"if{k}", [("Characteristic", "InverseFunctional")])
        keep()
        # inverse-functional with a declared inverse comes back as the
        # inverse property being functional
        doc.prop_axioms(f"ja{k}", [("Characteristic", "InverseFunctional"),
                                   ("InverseOf", f"jb{k}")])
        expected.append(("InverseOf", iri(f"ja{k}"), iri(f"jb{k}")))
        expected.append(("Characteristic", iri(f"jb{k}"), "Functional"))
    # lossy lowerings: reported once per kind, never reconstructed
    for k in range(max(1, n_classes // 40)):
        doc.subclass_of_union(f"L{k}", pick(2))
        p, f = f"lt{k}", pick()
        doc.equivalent_restriction(f"Q{k}", "AVF", p, f)
        expected.append(("SubClassOf", iri(f"Q{k}"), ("AVF", iri(p), iri(f))))
    # ABox frames over the tree, the transitive and inverse properties
    props = [f"av{k}_{j}" for k in range(n_classes // 4) for j in range(2)] + \
        [f"tr{k}" for k in range(n_classes // 4)] + \
        [f"ia{k}" for k in range(n_classes // 4)]
    for i, name in enumerate(inds):
        classes = rng.sample(cls, 1 + (i % 3 == 0))
        values: List[Tuple[str, tuple]] = []
        for _ in range(i % 4):
            values.append((rng.choice(props), ("iri", rng.choice(inds))))
        if i % 5 == 0:
            values.append(("label", ("lit", "_string", f"name{i}")))
        if i % 7 == 0:
            values.append(("age", ("lit", "_integer", str(rng.randint(1, 99)))))
        # a repeated (property, value) pair would be one fact, not two
        values = list(dict.fromkeys(values))
        doc.individual(name, classes, values)
        expected.extend(doc.axioms[-(len(classes) + len(values)):])
    return TranslateInput(doc.text(), expected, lossy_origin=2)


# --- mixed knowledge bases for check and serve -------------------------------


@dataclass
class MixedKb:
    """A generated KB and its base facts, by name."""

    text: str = ""
    classes: List[str] = field(default_factory=list)
    individuals: List[str] = field(default_factory=list)
    sub: List[Tuple[str, str]] = field(default_factory=list)
    isa: List[Tuple[str, str]] = field(default_factory=list)
    attr: List[Tuple[str, str, str]] = field(default_factory=list)
    avf: List[Tuple[str, str, str]] = field(default_factory=list)  # (C, p, F)
    transitive: List[str] = field(default_factory=list)
    inverse: List[Tuple[str, str]] = field(default_factory=list)
    properties: List[str] = field(default_factory=list)
    planted: Dict[str, list] = field(default_factory=dict)


def mixed_kb(rng: random.Random, n_classes: int, n_inds: int,
             plant: bool) -> MixedKb:
    """Subclass tree, allValuesFrom and maxCardinality restrictions, one
    transitive property with chains of three and one inverse pair.

    The shape is fixed by the sizes (a ternary tree, so depth stays at most
    four below 122 classes, and fixed numbers of memberships and values per
    individual); the seed picks names and who links to whom.  So KBs of one
    size cost about the same, and run-to-run spread comes from the machine,
    not from the draw.

    With ``plant``, violations of every checker kind are added in classes
    and properties that no inference rule reaches, so the expected messages
    follow from the asserted facts alone.  The inferred part never violates
    a constraint: maxCardinality bounds are on properties that only base
    facts give values, and no individual gets more values than any bound.
    """
    kb = MixedKb()
    doc = OwlText()
    kb.classes = cls = rng.sample([f"T{i}" for i in range(n_classes)], n_classes)
    kb.individuals = inds = [f"a{i}" for i in range(n_inds)]
    for i in range(1, n_classes):
        doc.subclass(cls[i], cls[(i - 1) // 3])
        kb.sub.append((cls[i], cls[(i - 1) // 3]))
    leaves = cls[(n_classes + 1) // 3:]
    avf_props = [f"r{j}" for j in range(4)]
    card_props = [f"m{j}" for j in range(3)]
    for p in avf_props:
        for c in rng.sample(leaves, max(1, n_classes // 12)):
            f = rng.choice(leaves)
            doc.restriction(c, "AVF", p, f)
            kb.avf.append((c, p, f))
    for p in card_props:
        for c in rng.sample(cls, max(1, n_classes // 12)):
            doc.restriction(c, "MAX", p, rng.randint(2, 3))
    doc.prop_axioms("part", [("Characteristic", "Transitive")])
    doc.prop_axioms("has", [("InverseOf", "of")])
    kb.transitive = ["part"]
    kb.inverse = [("has", "of")]
    kb.properties = avf_props + card_props + ["part", "has", "of"]

    values: Dict[str, List[Tuple[str, tuple]]] = {x: [] for x in inds}

    def add_attr(s, p, v):
        if (s, p, v) not in kb.attr:
            kb.attr.append((s, p, v))
            values[s].append((p, ("iri", v)))

    order = rng.sample(inds, n_inds)
    for start in range(0, n_inds - 2, 3):
        x, y, z = order[start:start + 3]
        add_attr(x, "part", y)
        add_attr(y, "part", z)
    order = rng.sample(inds, n_inds)
    for k, x in enumerate(order):
        add_attr(x, avf_props[k % len(avf_props)], rng.choice(inds))
        if k % 5 < 2:
            add_attr(x, "has", rng.choice(inds))
        if k % 2 == 0:
            for v in rng.sample(inds, 1 + (k % 4 == 0)):
                add_attr(x, card_props[k % 3], v)
    first = (cls * (n_inds // n_classes + 1))[:n_inds]
    second = rng.sample(cls, n_classes)
    for k, x in enumerate(rng.sample(inds, n_inds)):
        classes = [first[k]]
        if k % 3 == 0 and second[k % n_classes] != first[k]:
            classes.append(second[k % n_classes])
        kb.isa.extend((x, c) for c in classes)
    for x in inds:
        doc.individual(x, [c for y, c in kb.isa if y == x], values[x])
    if plant:
        kb.planted = _plant_violations(rng, doc)
    kb.text = doc.text()
    return kb


def _plant_violations(rng: random.Random, doc: OwlText) -> Dict[str, list]:
    """Constraints of every checker kind over isolated classes ``P*`` and
    properties ``q*``; individuals ``v*`` take part only here.

    Returns the asserted memberships and values plus the constraints in
    document order, the input of ``oracle.expected_violations``.
    """
    vs = [f"v{i}" for i in range(24)]
    members: Dict[str, Set[str]] = {}
    vals: Dict[Tuple[str, str], Set[str]] = {}
    out: Dict[str, list] = {k: [] for k in (
        "disjoint", "oneof", "svf", "hasvalue", "maxcard", "range", "invfunc")}

    def member(x, c):
        members.setdefault(c, set()).add(x)

    def value(s, p, v):
        vals.setdefault((s, p), set()).add(v)

    def some(k):
        return rng.sample(vs, k)

    for k in range(2):
        a, b = f"PdA{k}", f"PdB{k}"
        doc.disjoint(a, b)
        out["disjoint"].append((a, b))
        for x in some(2 + k):
            member(x, a)
        for x in some(3 - k):
            member(x, b)
    for k in range(2):
        c = f"Po{k}"
        allowed = some(2 + k)
        doc.one_of(c, allowed)
        out["oneof"].append((c, allowed))
        for x in allowed:
            member(x, c)
        for x in some(1 + k):
            member(x, c)
    for k in range(2):
        c, p, f = f"Ps{k}", f"qs{k}", f"PsF{k}"
        doc.restriction(c, "SVF", p, f)
        out["svf"].append((c, p, f))
        for x in some(3):
            member(x, c)
            if rng.random() < 0.5:
                v = rng.choice(vs)
                value(x, p, v)
                if rng.random() < 0.5:
                    member(v, f)
    for k in range(2):
        c, p, v = f"Ph{k}", f"qh{k}", rng.choice(vs)
        doc.restriction(c, "HV", p, v)
        out["hasvalue"].append((c, p, v))
        for x in some(3):
            member(x, c)
            if rng.random() < 0.5:
                value(x, p, v)
    for k in range(2):
        c, p, n = f"Pm{k}", f"qm{k}", 1 + k
        doc.restriction(c, "MAX", p, n)
        out["maxcard"].append((c, p, n))
        for j, x in enumerate(some(3)):
            member(x, c)
            for v in some(n + j - 1):
                value(x, p, v)
    for k in range(2):
        p, r = f"qr{k}", f"Pr{k}"
        doc.prop_axioms(p, [("Range", r)])
        out["range"].append((p, r))
        for v in some(3):
            member(v, r)
        for x in some(2):
            for v in some(2):
                value(x, p, v)
    for k in range(2):
        p = f"qi{k}"
        doc.prop_axioms(p, [("Characteristic", "InverseFunctional")])
        out["invfunc"].append(p)
        for x in some(4):
            value(x, p, rng.choice(vs[:4]))
    for x in vs:
        classes = sorted(c for c, m in members.items() if x in m)
        props = sorted((p, ("iri", v)) for (s, p), vv in vals.items()
                       if s == x for v in vv)
        doc.individual(x, classes, props)
    return {"members": members, "values": vals, **out}


# --- serve: one KB and a session of library operations -----------------------

QUERY_VERBS = ("is", "instances", "classes-of", "subclass", "superclasses")


def serve_session(rng: random.Random, kb: MixedKb, n_ops: int,
                  insert_every: int) -> List[tuple]:
    """A stream of ops; one in ``insert_every`` is an insert.

    Queries are ``(verb, name...)``, each verb equally often in a seeded
    order.  Inserts are ``("insert", fact, text)`` with ``fact`` in the
    oracle's form and ``text`` the F-logic the program parses; they cycle
    through a repeated base fact, a new membership and a new attribute
    value, so a third of them or more add nothing.
    """
    ops: List[tuple] = []
    cls, inds = kb.classes, kb.individuals
    props = [p for p in kb.properties if p.startswith("r")] + ["has"]
    n_inserts = n_ops // insert_every
    verbs = [QUERY_VERBS[i % len(QUERY_VERBS)] for i in range(n_ops - n_inserts)]
    rng.shuffle(verbs)
    for i in range(n_ops):
        if i % insert_every == insert_every - 1:
            kind = (i // insert_every) % 3
            if kind == 0:
                fact = ("isa",) + rng.choice(kb.isa)
            elif kind == 1:
                fact = ("isa", rng.choice(inds), rng.choice(cls))
            else:
                fact = ("attr", rng.choice(inds), rng.choice(props),
                        rng.choice(inds))
            text = f"{fact[1]}:{fact[2]}." if fact[0] == "isa" else \
                f"{fact[1]}[{fact[2]} -> {fact[3]}]."
            ops.append(("insert", fact, text))
            continue
        verb = verbs.pop()
        if verb == "is":
            ops.append((verb, rng.choice(inds), rng.choice(cls)))
        elif verb == "classes-of":
            ops.append((verb, rng.choice(inds)))
        elif verb == "subclass":
            ops.append((verb, rng.choice(cls), rng.choice(cls)))
        else:
            ops.append((verb, rng.choice(cls)))
    return ops
