"""Child-process side of the benchmark; ``run.py`` starts it.

    python3 perfbench/child.py setup <workload> <seed>
        Times the workload's set-up (importing owlfl, the warm-up, and for
        serve the KB load) and prints ``{"setup_s": ..., "kernel_s": ...}``,
        the mean reference kernel time around it giving the machine's speed.
    python3 perfbench/child.py cli <owlfl arguments...>
        Runs ``owlfl.cli.main`` once and prints its exit code, captured
        standard output, the in-process time of ``main``, the peak RSS of
        this process image, and the reference kernel time around ``main``
        (sampled here, since this process may run on another core than its
        parent) with the time spent sampling it.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def peak_rss_kb() -> int:
    """VmHWM, the peak RSS since exec; ``ru_maxrss`` would also count the
    parent's memory, which the child shares until it execs."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    sys.path.insert(0, SRC)
    if argv[0] == "setup":
        import reference
        import workloads
        w = workloads.WORKLOADS[argv[1]](int(argv[2]))
        before = reference.sample()
        t0 = time.perf_counter()
        w.setup()
        setup_s = time.perf_counter() - t0
        kernel_s = (before + reference.sample()) / 2
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
        return 0
    import reference
    from owlfl.cli import main as cli_main
    t0 = time.perf_counter()
    before = reference.sample()
    sampling_s = time.perf_counter() - t0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            rc = cli_main(argv[1:])
        except SystemExit as e:  # argparse exits on bad arguments
            rc = e.code
        main_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    kernel_s = (before + reference.sample()) / 2
    sampling_s += time.perf_counter() - t0
    print(json.dumps({
        "rc": rc, "main_s": main_s, "stdout": out.getvalue(),
        "rss_kb": peak_rss_kb(), "kernel_s": kernel_s,
        "sampling_s": sampling_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
