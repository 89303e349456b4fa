"""Benchmark for cclab: end-to-end metrics per workload, or a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads are ``paper``, ``radial`` and ``generic`` (see workloads.py).  Each
sample runs in a fresh interpreter (worker.py).  A run measures whole rounds
of the workload: the count whose nominal cost comes closest to ``--seconds``,
at least one.  A count fixed in advance keeps the operation mix, the sample
count and so the tail percentile the same on every run and every commit.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median over
SETUP_SAMPLES fresh processes.  ``--trace 1`` runs the workload once plainly
and once under the per-layer shim (tracer.py) and prints the per-layer
metrics plus ``trace.overhead_s``, the traced operation time minus the plain
one.  Human-readable lines come first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

``correct`` is false when an operation returned output that contradicts its
reference.  ``failed`` also counts operations that raised or overran their
deadline, which are the program's known defects rather than wrong answers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("paper", "radial", "generic")
# Seconds one round takes on the reference machine (2-core x86-64 VM,
# Python 3.11): it sets how many rounds a run of --seconds measures.
NOMINAL_ROUND_S = {"paper": 22.0, "radial": 42.0, "generic": 28.0}
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


def _worker(workload: str, seed: int, *, rounds: int = 1, trace: bool = False,
            setup_only: bool = False, timeout: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.perf_counter())]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          check=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n >= 20 else n
    return ordered[rank - 1], 100.0 * rank / n


def _end_to_end(run: dict, setups: list[float]) -> tuple[dict, list[str]]:
    times = [op["seconds"] for op in run["ops"]]
    ok = sum(1 for op in run["ops"] if op["ok"])
    tail_value, tail_pct = tail(times)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    "median of %d fresh processes" % len(setups)),
        "ops_per_s": (ok / sum(times), "1/s",
                      "%d checked-correct of %d operations" % (ok, n)),
        "op_s.p50": (statistics.median(times), "s", "%d samples" % n),
        "op_s.tail": (tail_value, "s",
                      "p%.1f of %d samples" % (tail_pct, n)),
        "ok_share": (ok / n, "ratio", "%d of %d operations" % (ok, n)),
        "unresolved_share": (run["unresolved"] / run["located"], "ratio",
                             "%d of %d located points"
                             % (run["unresolved"], run["located"])),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "workload process"),
    }
    lines = ["  %-17s %12.6g %-5s  %s" % (name, value, unit, note)
             for name, (value, unit, note) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def _layers(traced: dict, plain: dict) -> tuple[dict, list[str]]:
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = (
        sum(op["seconds"] for op in traced["ops"])
        - sum(op["seconds"] for op in plain["ops"]), "s")
    lines = ["  %-40s %14.6g %s" % (name, value, unit)
             for name, (value, unit) in layers.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cclab benchmark; the last stdout line is the JSON result")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cclab", "__init__.py")):
        print("run from the root of a cclab checkout (src/cclab not found)",
              file=sys.stderr)
        return 2
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    try:
        run = _worker(args.workload, args.seed, rounds=rounds,
                      timeout=remaining())
        if args.trace:
            traced = _worker(args.workload, args.seed, rounds=rounds,
                             trace=True, timeout=remaining())
        else:
            setups = [run["setup_s"]]
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(args.workload, args.seed,
                                      setup_only=True,
                                      timeout=remaining())["setup_s"])
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print("benchmark worker failed: %s" % exc, file=sys.stderr)
        return 1

    result_run = traced if args.trace else run
    ops = result_run["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    # correct unless an operation returned an answer its check rejected
    wrong = [op for op in (run["ops"] + (traced["ops"] if args.trace else []))
             if not op["ok"] and not op["raised"]]
    print("workload %s, seed %d, %d round(s): %d operations, %d failed"
          % (args.workload, args.seed, rounds, len(ops), failed))
    for op in ops:
        if not op["ok"]:
            print("  failed %s after %.3f s: %s"
                  % (op["op"], op["seconds"], op["detail"][:200]))
    if args.trace:
        metrics, lines = _layers(traced, run)
    else:
        metrics, lines = _end_to_end(run, setups)
    print("\n".join(lines))
    print(json.dumps({"correct": not wrong, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
