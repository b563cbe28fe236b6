"""End-to-end benchmark of the quasigrade verifiers, with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planar-verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

For one workload this measures set-up time (the median of several fresh
interpreter starts), then starts one workload process (worker.py) that runs
instances in a closed loop, and checks every output against the benchmark's
own oracles.  It prints a metadata line, one line per metric with its unit,
and as its last line a JSON object with the keys correct, attempted, failed
and metrics.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics.  ``--workload all`` runs every workload
in turn and reports each metric as ``<workload>.<metric>``.

Every input comes from the seed; the same seed gives the same instances.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  See NOTES.md for the
workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, loop_seconds  # noqa: E402
from spans import COMPUTED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_STARTS = 21  # fresh interpreters timed for setup_s, the workload process included
DIGEST_INSTANCES = 100
WORKER_TIMEOUT_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to one CPU.

    On a shared host the CPUs change speed independently of each other.  The
    reference loop measures only the CPU it runs on, so a start or an
    instance timed on the other CPU would be scaled by the wrong speed.
    Pinned, the spread of setup_s over ten runs fell from 0.17 to 0.05.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _worker_cmd(workload: str, seed: int, seconds: float, trace: int, out: str | None) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return cmd + (["--out", out] if out else ["--probe"])


def _start(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds until it printed 'ready'."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"workload process did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        rest = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("workload process timed out") from None
    if proc.returncode != 0 or rest.strip():
        raise BenchmarkError(f"workload process failed (exit code {proc.returncode})")


def _digest(results: list) -> str:
    h = hashlib.sha256()
    for index, _, output, code, error, _ in results[:DIGEST_INSTANCES]:
        h.update(f"{index}\t{code}\t{error}\n{output}".encode())
    return h.hexdigest()


def _scaled(results: list) -> list[float]:
    """Each instance's latency in reference seconds (see calibrate.py)."""
    return [r[1] * REFERENCE_S / r[5] for r in results]


def _timed_start(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float, float]:
    """_start, plus the start-up time in reference seconds.

    The reference loop is timed three times on each side of the start; the
    median keeps the first, cold run from setting the scale.
    """
    before = statistics.median(loop_seconds() for _ in range(3))
    proc, ready = _start(cmd, env)
    after = statistics.median(loop_seconds() for _ in range(3))
    return proc, ready * REFERENCE_S / ((before + after) / 2), ready


def _check(wl, results: list) -> list[str]:
    """Failure reasons, one per failed instance, from the benchmark's oracles."""
    failures = []
    for inst, (index, _, output, code, error, _) in zip(wl.instances(), results):
        try:
            reason = error if error else wl.check(inst, output, code)
        except Exception as exc:  # output the oracle cannot parse is a wrong output
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            failures.append(f"instance {index} ({inst.kind}): {reason}")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: int, cpu: int | None) -> tuple[dict, dict]:
    """Run one workload; returns (summary, metadata)."""
    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in PINNED_THREADS})
    out = os.path.join(workdir, f"result-{name}.json")
    if os.path.exists(out):
        os.remove(out)

    setup, wall_setup = [], []
    for i in range(SETUP_STARTS):
        last = i == SETUP_STARTS - 1
        proc, ready, wall = _timed_start(_worker_cmd(name, seed, seconds, trace, out if last else None), env)
        setup.append(ready)
        wall_setup.append(wall)
        _finish(proc, WORKER_TIMEOUT_S if last else 30)
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)

    wl = WORKLOADS[name](seed, workdir)
    results = report["results"]
    failures = _check(wl, results)
    scaled = _scaled(results)
    wall = [r[1] for r in results]
    meta = dict(
        report["meta"], seed=seed, workload=name, pinned_cpu=cpu, instances=len(results), setup_starts=len(setup),
        digest=_digest(results),
        reference_loop_ms=1e3 * statistics.median(r[5] for r in results),
        wall_setup_s=statistics.median(wall_setup),
        wall_throughput_inst_per_s=len(results) / report["busy_s"],
        wall_latency_p50_ms=1e3 * statistics.median(wall),
        wall_latency_p90_ms=1e3 * statistics.quantiles(wall, n=10)[-1],
    )
    correct = not failures
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            expected = json.load(fh).get(name)
        meta["digest_matches"] = meta["digest"] == expected
        correct = correct and meta["digest_matches"]
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_inst_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_p90_ms": 1e3 * statistics.quantiles(scaled, n=10)[-1],
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }
    attempted = len(results)
    if trace:
        traced = report["traced"]
        attempted += len(traced)
        same = [r[2:5] for r in traced] == [r[2:5] for r in results[: len(traced)]]
        traced_failures = _check(wl, traced)
        meta["traced_outputs_identical"] = same
        correct = correct and same and not traced_failures
        failures += [f"traced {f}" for f in traced_failures]
        metrics = dict(report["trace_metrics"])
        metrics["trace.overhead_ratio"] = sum(scaled[: len(traced)]) / sum(_scaled(traced))
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
    }
    return summary, meta


def _declared(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def _print_workload(name: str, summary: dict, meta: dict, declared: list[dict]) -> dict:
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for failure in summary["failures"]:
        print(f"{name} FAILED {failure}")
    fail_ratio = summary["failed"] / summary["attempted"]
    print(f"{name} fail_ratio = {fail_ratio:.6g} ({summary['failed']}/{summary['attempted']} instances)")
    metrics = {}
    for spec in declared:
        value = summary["metrics"].get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        wall = meta.get(f"wall_{spec['name']}")
        note = "" if wall is None else f" (wall-clock {wall:.6g})"
        note += " (computed)" if spec["name"] in COMPUTED else ""
        print(f"{name} {spec['name']} = {value:.6g} {spec['unit']}{note}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quasigrade", "__init__.py")):
        print(f"error: no program at {os.path.join(ROOT, 'src', 'quasigrade')}", file=sys.stderr)
        return 2

    declared = _declared(args.trace)
    cpu = _pin_to_one_cpu()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            summary, meta = run_workload(name, args.seed, args.seconds, args.trace, cpu)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = _print_workload(name, summary, meta, declared)
        final["correct"] = final["correct"] and summary["correct"]
        final["attempted"] += summary["attempted"]
        final["failed"] += summary["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        final["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
