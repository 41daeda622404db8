"""The workloads: seeded inputs, set-up, the timed ops and their checks.

A workload is a fixed plan of ops.  Each round of the run executes the
whole plan once, so every op is repeated and the median of its repetitions
can be taken (see ``run.py``).  Constructing a workload generates what set-up
needs and ``prepare`` the rest of the inputs; neither is timed.  ``setup``
is what ``setup_s`` times: importing owlfl, one warm-up pass through every
layer on small inputs, and for ``serve`` the KB load and first saturation.  Every call into owlfl goes through ``Workload.call``, so
a traced run sees each one as a span named ``<module>.<function>``.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import gen
import oracle
import reference
from spans import Tracer

# Plan sizes: at least a hundred ops of the primary kind, so op_p90_ms has
# ten ops beyond it, and a whole round in about four seconds on two cores,
# so a run repeats every op several times.  Input sizes grow geometrically
# along a plan.
PLAN_OPS = 100
TRANSLATE_CLASSES = (8, 64)   # smallest and largest document, in classes
CHECK_CLASSES = (10, 40)      # each KB has twice as many individuals
SERVE_KB = (60, 120)          # classes, individuals
SERVE_SESSION = 132           # ops per round; the KB is reloaded before each
SERVE_INSERT_EVERY = 11


def sizes(lo: int, hi: int, n: int) -> List[int]:
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


class OpRecord(NamedTuple):
    kind: str
    position: int
    seconds: float        # as measured
    ref_seconds: float    # at reference speed
    error: Optional[str]
    traced: bool


class OpFailed(Exception):
    """An op gave a wrong answer or inconsistent counts."""


class Workload:
    name = ""
    primary = ""   # op kind whose latency is op_p50_ms / op_p90_ms

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = Tracer()
        self.clock = reference.Clock()
        self.alternate = False   # trace every other repetition of each op
        self.rounds = 0
        self._fns: Dict[str, Callable] = {}
        self.counts: Dict[str, float] = {}
        self._seen: Dict = {}
        warm = random.Random(-1)
        self._warm_doc = gen.translate_document(warm, 8).text
        self._warm_kb = gen.mixed_kb(warm, 6, 12, plant=True)
        self._warm_ops = gen.serve_session(warm, self._warm_kb, 10, 5)

    # -- calls into owlfl

    def call(self, name: str, *args):
        fn = self._fns.get(name)
        if fn is None:
            module, attr = name.split(".")
            fn = self._fns[name] = getattr(
                importlib.import_module("owlfl." + module), attr)
        return self.tracer.call(name, fn, *args)

    def op(self, kind: str, fn, *args):
        return self.tracer.call("op." + kind, fn, *args)

    def timed(self, kind: str, position: int, check: Callable, fn, *args):
        """Run the op at ``position`` of the plan and check its result with
        ``check``; an op that raises or fails its check counts as failed."""
        factor = self.clock.factor()
        self.tracer.sample = not self.alternate or \
            (position + self.rounds) % 2 == 0
        t0 = perf_counter()
        try:
            out = self.op(kind, fn, *args)
            seconds = perf_counter() - t0
            check(out)
            error = None
        except Exception as e:
            seconds, error = perf_counter() - t0, repr(e)
        finally:
            self.tracer.sample = True
        return OpRecord(kind, position, seconds, seconds * factor, error,
                        self.tracer.recording)

    def same_counts(self, key, counts):
        first = self._seen.setdefault(key, counts)
        if first != counts:
            raise OpFailed(f"counts differ between repetitions: {first} {counts}")

    # -- op bodies

    def roundtrip(self, text: str):
        doc, d1 = self.call("owl_parser.parse_document", text)
        prog, d2 = self.call("owl_to_fl.translate_ontology", doc)
        fl_text = self.call("flogic.print_program", prog)
        prog2, d3 = self.call("flogic.parse_program", fl_text)
        doc2, d4 = self.call("fl_to_owl.translate_program", prog2)
        back = self.call("owl_writer.serialize_document", doc2)
        return back, (d1, d2, d3, d4), len(prog.rules)

    def check(self, text: str):
        doc, _ = self.call("owl_parser.parse_document", text)
        prog, _ = self.call("owl_to_fl.translate_ontology", doc)
        kb = self.call("engine.load_program", prog)
        strat = self.call("engine.stratify", kb)
        store = self.call("engine.saturate", kb)
        violations = self.call("engine.run_constraint_checks", kb)
        return ([v.message for v in violations],
                (len(prog.rules), len(strat.strata), store.size()))

    def load(self, prog):
        kb = self.call("engine.load_program", prog)
        self.strata = len(self.call("engine.stratify", kb).strata)
        self.call("engine.saturate", kb)
        return kb

    def compile_ops(self, kb, ops: List[tuple]) -> List[tuple]:
        """Serve ops as engine goals and fact literals, built once."""
        from owlfl.flogic import Atom, FlIsA, FlSubClass, FlSymbol, FlVariable
        s, x = FlSymbol, Atom(FlVariable("X"))
        out = []
        for op in ops:
            verb = op[0]
            if verb == "insert":
                prog, _ = self.call("flogic.parse_program", op[2], kb.prefixes)
                out.append((op, prog.rules[0].head))
            elif verb == "is":
                out.append((op, FlIsA(s(op[1]), Atom(s(op[2])))))
            elif verb == "instances":
                out.append((op, FlIsA(FlVariable("X"), Atom(s(op[1])))))
            elif verb == "classes-of":
                out.append((op, FlIsA(s(op[1]), x)))
            elif verb == "subclass":
                out.append((op, FlSubClass(Atom(s(op[1])), Atom(s(op[2])))))
            else:
                out.append((op, FlSubClass(Atom(s(op[1])), x)))
        return out

    def query(self, kb, op: tuple, goal):
        if op[0] in ("is", "subclass"):
            return bool(self.call("engine.query_goal", kb, goal))
        names = [t.name for t in self.call("engine.collect_set", kb, "X", goal)]
        return [n for n in names if n != op[1]] if op[0] == "superclasses" \
            else names

    def insert(self, kb, fact):
        self.call("engine.insert_fact", kb, fact)
        return self.call("engine.saturate", kb)

    # -- set-up

    def setup(self):
        """Import owlfl and run every layer once on small inputs."""
        self.op("warmup", self._warm_up)

    def _warm_up(self):
        self.roundtrip(self._warm_doc)
        self.check(self._warm_kb.text)
        doc, _ = self.call("owl_parser.parse_document", self._warm_kb.text)
        prog, _ = self.call("owl_to_fl.translate_ontology", doc)
        kb = self.load(prog)
        for op, goal in self.compile_ops(kb, self._warm_ops):
            if op[0] == "insert":
                self.op("insert", self.insert, kb, goal)
            else:
                self.op("query", self.query, kb, op, goal)

    # -- measurement

    def prepare(self):
        """Generate the plan's inputs."""

    def round(self) -> List[OpRecord]:
        """Run every op of the plan once and check its answer."""
        out = self.run_plan()
        self.rounds += 1
        return out

    def run_plan(self) -> List[OpRecord]:
        raise NotImplementedError

    def extra_counts(self):
        """Exact counts worked out once, after the timed ops."""

    def cli_commands(self, workdir: str) -> List[Tuple[List[str], Callable]]:
        """CLI argv lists with a check of (rc, stdout) for each."""
        raise NotImplementedError


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _exit_ok(rc, out):
    if rc != 0:
        raise OpFailed(f"exit {rc}")


class Translate(Workload):
    name = "translate"
    primary = "roundtrip"

    def prepare(self):
        rng = random.Random(self.seed)
        self.docs = [gen.translate_document(rng, n)
                     for n in sizes(*TRANSLATE_CLASSES, PLAN_OPS)]
        self.expected = [Counter(d.expected) for d in self.docs]
        self._verified: Dict[int, str] = {}

    def verify_back(self, i: int, back: str):
        if self._verified.get(i) == back:
            return
        got = Counter(oracle.read_axioms(back))
        if got != self.expected[i]:
            raise OpFailed(f"round trip differs: missing "
                           f"{list(self.expected[i] - got)[:3]} extra "
                           f"{list(got - self.expected[i])[:3]}")
        self._verified[i] = back

    def run_plan(self):
        return [self.timed("roundtrip", i, self._checker(i), self.roundtrip,
                           d.text) for i, d in enumerate(self.docs)]

    def _checker(self, i: int):
        def check(out):
            back, diags, rules = out
            codes = Counter((d.severity, d.code) for ds in diags for d in ds)
            if any(sev == "error" for sev, _ in codes) or \
                    codes[("warning", "unrepresentable-in-owl")] or \
                    codes[("info", "lossy-origin")] != self.docs[i].lossy_origin:
                raise OpFailed(f"unexpected diagnostics {dict(codes)}")
            self.verify_back(i, back)
            self.same_counts(i, (len(self.docs[i].text.encode()), rules,
                                 len(back)))
        return check

    def extra_counts(self):
        """Sums over the plan; template matches are counted apart from the
        timed ops, with one more reverse translation per document."""
        from owlfl import fl_to_owl, flogic, owl_parser, owl_to_fl
        seen = [self._seen[i] for i in sorted(self._seen)]
        self.counts["owl_parser.input_bytes"] = sum(c[0] for c in seen)
        self.counts["owl_to_fl.rules"] = sum(c[1] for c in seen)
        matches = 0
        for d in self.docs:
            doc, _ = owl_parser.parse_document(d.text)
            prog, _ = owl_to_fl.translate_ontology(doc)
            prog2, _ = flogic.parse_program(flogic.print_program(prog))
            matches += len(fl_to_owl.recognize_templates(prog2)[0])
        self.counts["fl_to_owl.template_matches"] = matches

    def cli_commands(self, workdir):
        i = len(self.docs) - 1   # the largest document
        src, fl, back = (f"{workdir}/doc.owl", f"{workdir}/doc.flr",
                         f"{workdir}/back.owl")
        _write(src, self.docs[i].text)

        def check_back(rc, out):
            _exit_ok(rc, out)
            with open(back, encoding="utf-8") as f:
                self.verify_back(i, f.read())

        return [
            (["translate", "--from", "owl", "--to", "flora", src, "-o", fl],
             _exit_ok),
            (["translate", "--from", "flora", "--to", "owl", fl, "-o", back],
             check_back),
        ]


class Check(Workload):
    name = "check"
    primary = "check"

    def prepare(self):
        rng = random.Random(self.seed)
        self.kbs = []
        for n in sizes(*CHECK_CLASSES, PLAN_OPS):
            kb = gen.mixed_kb(rng, n, 2 * n, plant=True)
            self.kbs.append((kb.text, oracle.expected_violations(kb.planted)))

    def run_plan(self):
        return [self.timed("check", i, self._checker(i), self.check, text)
                for i, (text, _) in enumerate(self.kbs)]

    def _checker(self, i: int):
        text, expected = self.kbs[i]

        def check(out):
            messages, (rules, strata, facts) = out
            if messages != expected:
                raise OpFailed(f"violations differ: got {len(messages)}, "
                               f"expected {len(expected)}")
            self.same_counts(i, (len(text.encode()), rules, strata, facts,
                                 len(messages)))
        return check

    def extra_counts(self):
        """Exact counts summed over the plan."""
        seen = [self._seen[i] for i in sorted(self._seen)]
        for key, pos in (("owl_parser.input_bytes", 0), ("owl_to_fl.rules", 1),
                         ("engine.strata", 2), ("engine.facts", 3),
                         ("engine.violations", 4)):
            self.counts[key] = sum(c[pos] for c in seen)

    def cli_commands(self, workdir):
        path = f"{workdir}/kb.owl"
        text, expected = self.kbs[-1]   # the largest KB
        _write(path, text)

        def check_out(rc, out):
            if rc != (1 if expected else 0) or out.splitlines() != expected:
                raise OpFailed(f"check exit {rc}, output differs")

        return [(["check", path], check_out)]


class Serve(Workload):
    name = "serve"
    primary = "query"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.kb_input = gen.mixed_kb(rng, *SERVE_KB, plant=False)
        self.session = gen.serve_session(rng, self.kb_input, SERVE_SESSION,
                                         SERVE_INSERT_EVERY)
        self.cli_class = rng.choice(self.kb_input.classes)
        self.cli_fact = ("isa", "n0", rng.choice(self.kb_input.classes))
        self.kb = None

    def setup(self):
        super().setup()
        self.op("load", self._load)

    def _load(self):
        doc, _ = self.call("owl_parser.parse_document", self.kb_input.text)
        self.prog, _ = self.call("owl_to_fl.translate_ontology", doc)
        self.kb = self.load(self.prog)
        self.ops = self.compile_ops(self.kb, self.session)

    def run_plan(self):
        """One session on a freshly loaded KB (the reload is not timed)."""
        if self.kb is None:
            self.kb = self.op("reload", self.load, self.prog)
        kb, self.kb = self.kb, None
        closure = oracle.Closure(self.kb_input)
        state = {"size": kb.store.size(), "noop": 0, "answers": 0}
        out = []
        for i, (op, goal) in enumerate(self.ops):
            if op[0] == "insert":
                out.append(self.timed("insert", i, self._insert_checker(
                    i, op, closure, state), self.insert, kb, goal))
            else:
                out.append(self.timed("query", i, self._query_checker(
                    i, op, closure, state), self.query, kb, op, goal))
        n_inserts = sum(1 for op, _ in self.ops if op[0] == "insert")
        self.counts.update({
            "owl_parser.input_bytes": len(self.kb_input.text.encode()),
            "owl_to_fl.rules": len(self.prog.rules),
            "engine.strata": self.strata,
            "engine.facts": state["size"],
            "engine.answers": state["answers"],
            "engine.insert_noop_share": state["noop"] / n_inserts,
        })
        return out

    def _query_checker(self, i, op, closure, state):
        def check(got):
            state["answers"] += len(got) if isinstance(got, list) else got
            expected = closure.answer(op)
            if got != expected:
                raise OpFailed(f"{op}: got {got!r}, expected {expected!r}")
            self.same_counts(i, got)
        return check

    def _insert_checker(self, i, op, closure, state):
        def check(store):
            added = store.size() - state["size"]
            state["size"] += added
            state["noop"] += added == 0
            expected = closure.add(op[1])
            if added != expected:
                raise OpFailed(f"{op}: added {added}, expected {expected}")
            self.same_counts(i, state["size"])
        return check

    def cli_commands(self, workdir):
        path = f"{workdir}/kb.owl"
        _write(path, self.kb_input.text)
        closure = oracle.Closure(self.kb_input)
        instances = closure.answer(("instances", self.cli_class))
        added = closure.add(self.cli_fact)

        def check_instances(rc, out):
            if rc != 0 or out.splitlines() != instances:
                raise OpFailed(f"query exit {rc}, output differs")

        def check_insert(rc, out):
            if rc != 0 or out.strip() != str(added):
                raise OpFailed(f"insert exit {rc}, printed {out.strip()!r}, "
                               f"expected {added}")

        return [
            (["query", path, "instances", self.cli_class], check_instances),
            (["insert", path, f"{self.cli_fact[1]}:{self.cli_fact[2]}."],
             check_insert),
        ]


WORKLOADS = {w.name: w for w in (Translate, Check, Serve)}
