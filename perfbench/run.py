"""owlfl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {translate,check,serve} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports owlfl from ``src/``.  Inputs
come from the seed.  After set-up the run repeats the workload's plan of
ops for S seconds (one process, one closed-loop client), checks every
answer against the benchmark's own oracle, and between rounds times set-up
and the matching ``owlfl`` CLI commands in child interpreters.  Times are
stated at reference speed (see ``reference.py``); an op's latency is the
median of its repetitions.  The run prints every metric by name and unit, then as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The traced run traces every other repetition
of each op and reports the difference as the tracing overhead.  Details,
spans included, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import reference
import spans as spans_mod

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
CLI_REPS = 11
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120

TIMED_KINDS = ("roundtrip", "check", "query", "insert")
# per-layer time metric -> the spans it covers (self time per call)
LAYER_SPANS = {
    "owl_parser.parse_document_s": ("owl_parser.parse_document",),
    "owl_to_fl.translate_ontology_s": ("owl_to_fl.translate_ontology",),
    "flogic.print_program_s": ("flogic.print_program",),
    "flogic.parse_program_s": ("flogic.parse_program",),
    "fl_to_owl.translate_program_s": ("fl_to_owl.translate_program",),
    "owl_writer.serialize_document_s": ("owl_writer.serialize_document",),
    "engine.load_program_s": ("engine.load_program",),
    "engine.stratify_s": ("engine.stratify",),
    "engine.saturate_s": ("engine.saturate",),
    "engine.run_constraint_checks_s": ("engine.run_constraint_checks",),
    "engine.query_s": ("engine.query_goal", "engine.collect_set"),
}
COUNTS = ("owl_parser.input_bytes", "owl_to_fl.rules",
          "fl_to_owl.template_matches", "engine.strata", "engine.facts",
          "engine.violations", "engine.answers")


def tail(xs: List[float]):
    """The highest percentile up to p90 with at least ten samples beyond it
    (nearest rank), and that percentile."""
    xs = sorted(xs)
    n = len(xs)
    q = 90
    while q > 50 and n - math.ceil(q * n / 100) < 10:
        q -= 1
    return xs[max(0, math.ceil(q * n / 100) - 1)], q


def child(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def cli_rep(commands) -> List[tuple]:
    """Run each CLI command once: (measured wall s, measured main s, factor
    to reference speed from the child's own kernel samples, peak RSS KB,
    error)."""
    rep = []
    for argv, check in commands:
        t0 = time.perf_counter()
        res = child("cli", *argv)
        wall = time.perf_counter() - t0 - res["sampling_s"]
        try:
            check(res["rc"], res["stdout"])
            error = None
        except Exception as e:
            error = f"cli {argv[0]}: {e!r}"
        rep.append((wall, res["main_s"], reference.REFERENCE_S / res["kernel_s"],
                    res["rss_kb"], error))
    return rep


def cli_parts(cli_reps) -> tuple:
    """Start-up (interpreter start and imports: wall minus ``main``) and
    ``main`` time, summed over the commands.  Start-up is spent in exec, I/O
    and imports and does not slow down with the reference kernel, so it is
    each command's fastest as measured; ``main`` is each command's median
    at reference speed."""
    startup = main = 0.0
    for k in range(len(cli_reps[0])):
        runs = [r[k] for r in cli_reps]
        startup += min(wall - main_s for wall, main_s, *_ in runs)
        main += statistics.median(main_s * f for _, main_s, f, *_ in runs)
    return startup, main


def layer_metrics(spans, self_time) -> Dict[str, float]:
    """Per-call self time of each layer inside the timed ops; a layer the
    timed ops never call reports its calls during set-up."""
    by_id = {s.id: s for s in spans}
    root = {}
    for s in spans:
        r = s
        while r.parent is not None:
            r = by_id[r.parent]
        root[s.id] = r.name[len("op."):]
    out = {}
    for metric, names in LAYER_SPANS.items():
        calls = [s for s in spans if s.name in names]
        use = [s for s in calls if root[s.id] in TIMED_KINDS] or calls
        out[metric] = sum(self_time[s.id] for s in use) / len(use) if use else 0.0
    inserts = [s for s in spans if s.name == "op.insert"]
    use = [s for s in inserts if s.parent is None] or inserts
    out["engine.insert_s"] = statistics.fmean(
        s.end - s.start - self_time[s.id] for s in use) if use else 0.0
    return out


def layer_shares(spans, self_time) -> Dict[str, float]:
    """Each layer's share of the timed ops' time; ``bench`` is the time the
    ops spend outside owlfl calls."""
    ops = [s for s in spans if s.parent is None and s.name[3:] in TIMED_KINDS]
    total = sum(s.end - s.start for s in ops)
    inside = {s.id for s in ops}
    shares: Dict[str, float] = {}
    for s in spans:
        if s.id in inside:
            shares["bench"] = shares.get("bench", 0.0) + self_time[s.id] / total
        elif s.parent in inside:
            shares[s.name] = shares.get(s.name, 0.0) + self_time[s.id] / total
            inside.add(s.id)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("translate", "check", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "owlfl", "cli.py")):
        print(f"error: owlfl sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "seed": args.seed,
           "workload": args.workload, "seconds": args.seconds,
           "trace": args.trace}
    w = workloads.WORKLOADS[args.workload](args.seed)
    w.prepare()
    tracer = w.tracer
    tracer.enabled = bool(args.trace)
    w.setup()
    w.alternate = bool(args.trace)
    # the inputs and expected answers stay alive all run; keep them out of
    # the collector's full passes, which the program's own objects pay for
    gc.collect()
    gc.freeze()

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    commands = w.cli_commands(workdir)
    cli_reps: List[List[tuple]] = []
    setups: List[float] = []

    def side_samples():
        """One CLI repetition and one set-up, spread between rounds."""
        if len(cli_reps) < CLI_REPS:
            cli_reps.append(cli_rep(commands))
        if args.trace == 0 and len(setups) < SETUP_SAMPLES:
            res = child("setup", args.workload, str(args.seed))
            setups.append(res["setup_s"] * reference.REFERENCE_S / res["kernel_s"])

    # each op of the plan: reference-speed latencies by (kind, position,
    # traced), and the measured ones
    times: Dict[tuple, List[float]] = {}
    measured: Dict[tuple, List[float]] = {}
    attempted = failed = 0
    errors: List[str] = []
    deadline = time.perf_counter() + args.seconds
    while w.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for rec in w.round():
            attempted += 1
            if rec.error is not None:
                failed += 1
                errors.append(rec.error)
                continue
            key = (rec.kind, rec.position)
            times.setdefault(key + (rec.traced,), []).append(rec.ref_seconds)
            measured.setdefault(key, []).append(rec.seconds)
        t0 = time.perf_counter()
        side_samples()
        deadline += time.perf_counter() - t0   # side samples are not op time
    tracer.enabled = False
    while len(cli_reps) < CLI_REPS or (args.trace == 0 and
                                       len(setups) < SETUP_SAMPLES):
        side_samples()
    if args.trace:
        w.extra_counts()
    for rep in cli_reps:
        for *_, error in rep:
            attempted += 1
            if error is not None:
                failed += 1
                errors.append(error)

    by_op: Dict[tuple, List[float]] = {}
    for (kind, pos, _), ts in times.items():
        by_op.setdefault((kind, pos), []).extend(ts)
    latency = {k: statistics.median(ts) for k, ts in by_op.items()}
    primary = [t for (kind, _), t in latency.items() if kind == w.primary]
    kernel_s = statistics.median(w.clock.samples)
    notes = [f"{w.rounds} rounds of a {len(latency)}-op plan; an op's latency is "
             "the median of its repetitions" + (
                 ", traced and untraced repetitions alternate" if args.trace
                 else ""),
             f"times at reference speed: the reference kernel took "
             f"{kernel_s * 1e3:.3f} ms (median of {len(w.clock.samples)}), "
             f"nominal {reference.REFERENCE_S * 1e3:.3f} ms"]
    if args.trace == 0:
        p_tail, q = tail(primary)
        raw = [statistics.median(ts) for (kind, _), ts in measured.items()
               if kind == w.primary]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_ms": (statistics.median(primary) * 1e3, "ms"),
            "op_p90_ms": (p_tail * 1e3, "ms"),
            "ops_per_s": (len(latency) / sum(latency.values()), "1/s"),
            "cli_s": (sum(cli_parts(cli_reps)), "s"),
            "peak_rss_mb": (statistics.median(max(c[3] for c in r)
                                              for r in cli_reps) / 1024, "MB"),
        }
        notes.append(f"op_p90_ms is p{q} over {len(primary)} '{w.primary}' "
                     f"ops; measured, unscaled: p50 "
                     f"{statistics.median(raw) * 1e3:.3f} ms, p{q} "
                     f"{tail(raw)[0] * 1e3:.3f} ms")
        notes.append(f"setup_s is the median of {SETUP_SAMPLES} set-ups; cli_s "
                     f"is start-up plus main over {CLI_REPS} runs of each "
                     f"command (see cli_parts)")
        for kind in TIMED_KINDS:
            ts = [t for (k, _), t in latency.items() if k == kind]
            if ts and kind != w.primary:
                p, qq = tail(ts)
                notes.append(f"{kind}: p50 {statistics.median(ts) * 1e3:.3f} ms, "
                             f"p{qq} {p * 1e3:.3f} ms over {len(ts)} ops")
        shares = {}
    else:
        spans = tracer.spans
        self_time = spans_mod.self_times(spans)
        factor = reference.REFERENCE_S / kernel_s
        metrics = {k: (v * factor, "s")
                   for k, v in layer_metrics(spans, self_time).items()}
        startup, main = cli_parts(cli_reps)
        metrics["cli.main_s"] = (main, "s")
        metrics["cli.startup_s"] = (startup, "s")
        for key in COUNTS:
            metrics[key] = (w.counts.get(key, 0), "count")
        metrics["engine.insert_noop_share"] = (
            w.counts.get("engine.insert_noop_share", 0.0), "share")
        # traced against untraced repetitions of each op, medians
        ratios = [statistics.median(times[k, p, True]) /
                  statistics.median(times[k, p, False])
                  for (k, p) in latency if k == w.primary
                  and (k, p, True) in times and (k, p, False) in times]
        overhead = 100 * (statistics.median(ratios) - 1) if ratios else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        metrics["error_rate"] = (failed / attempted, "share")
        metrics["reference.kernel_s"] = (kernel_s, "s")
        shares = layer_shares(spans, self_time)
        notes.append("layer shares of the timed ops: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares.items()))

    correct = failed == 0
    print(f"# owlfl benchmark: {json.dumps(env)}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed/attempted = {failed}/{attempted}")
    for err in errors[:5]:
        print(f"# error: {err}")
    os.makedirs(OUT, exist_ok=True)
    detail = {"env": env, "correct": correct, "attempted": attempted,
              "failed": failed, "errors": errors[:50], "notes": notes,
              "shares": shares, "kernel_samples": w.clock.samples,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "spans": [list(s) for s in tracer.spans]}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(detail, f)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
