"""Workload process: one interpreter, one thread, one closed-loop client.

Started by run.py with numpy's thread pools pinned to one thread.  It imports
the program from ``<root>/src``, makes the first ``count_box`` call (the numba
JIT, where numba exists) and prints ``ready``; run.py times set-up up to that
line.  With ``--probe`` it exits there.  Otherwise it runs instances back to
back until ``--seconds`` have passed, at least ``MIN_INSTANCES`` are done and
the current block of strata is complete, then writes every output and
latency to ``--out`` for run.py to check.

With ``--trace 1`` it runs untraced for half the time, then runs the same
instances again under the tracer, so that the traced phase's outputs can be
compared with the untraced ones and the two throughputs give the tracing
overhead.
"""

import argparse
import os
import sys
import time

MIN_INSTANCES = 100
MAX_LOOP_S = 120.0  # hard stop, even below MIN_INSTANCES
WARMUP_S = 0.5


def _load_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import quasigrade
    from quasigrade import _kernels

    if not os.path.abspath(quasigrade.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"quasigrade imported from {quasigrade.__file__}, not from {src}")
    _kernels.count_box([0], [1], [((1,), 1)], [])
    return quasigrade


def _run_phase(wl, mods, instances, stop, tracer=None):
    """Run instances until stop(n, busy, at_block_start) is true.

    Returns ([index, latency, output, exit code, error, reference loop
    seconds around the instance], busy seconds).
    """
    from calibrate import loop_seconds

    results = []
    busy = 0.0
    block = len(wl.block())
    loop_before = loop_seconds()
    for inst in instances:
        if stop(len(results), busy, inst.index % block == 0):
            break
        prepared = wl.prepare(inst)
        if tracer is not None:
            tracer.instance = inst.index
        t0 = time.perf_counter()
        try:
            output, code = wl.run(mods, prepared)
            error = None
        except Exception as exc:  # a failed instance is a result, not a crash
            output, code, error = "", None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        busy += latency
        loop_after = loop_seconds()
        results.append([inst.index, latency, output, code, error, (loop_before + loop_after) / 2])
        loop_before = loop_after
    return results, busy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    package = _load_program(args.root)
    print("ready", flush=True)
    if args.probe:
        return 0

    import importlib.util
    import json
    import resource
    import types

    import numpy
    from quasigrade import _kernels, cli, faces, polytope

    import workloads
    from spans import Tracer

    workdir = os.path.dirname(os.path.abspath(args.out))
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    mods = types.SimpleNamespace(cli=cli, faces=faces, polytope=polytope)

    warm_start = time.perf_counter()
    _run_phase(wl, mods, wl.instances("warmup"),
               lambda n, busy, at_start: n > 0 and time.perf_counter() - warm_start >= WARMUP_S)

    seconds = args.seconds / 2 if args.trace else args.seconds

    def enough(n, busy, at_block_start):
        if busy >= MAX_LOOP_S:
            return True
        return busy >= seconds and n >= MIN_INSTANCES and at_block_start

    results, busy = _run_phase(wl, mods, wl.instances(), enough)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "results": results,
        "busy_s": busy,
        "peak_rss_kb": peak_rss_kb,
        "meta": {
            "backend": _kernels.active_backend(),
            "numba": importlib.util.find_spec("numba") is not None,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "block": [kind for kind, _ in wl.block()],
        },
    }
    if args.trace:
        tracer = Tracer()
        tracer.install(package.__name__, _kernels.active_backend())
        root_run = tracer.wrap("instance", wl.run)
        wl.run = root_run
        count = len(results)
        traced, _ = _run_phase(wl, mods, wl.instances(), lambda n, busy, s: n >= count, tracer)
        tracer.uninstall()
        tracer.write_spans(os.path.join(workdir, f"spans-{args.workload}.jsonl"))
        report["traced"] = traced
        report["trace_metrics"] = tracer.metrics(len(traced))
        report["meta"]["rebound_sites"] = sorted(tracer.rebound)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
