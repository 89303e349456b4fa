"""One benchmark process: set up a workload, run its operations, report.

``run.py`` starts this in a fresh interpreter for every sample, so that set-up
(importing cclab with mpmath, loading the catalogue, parsing the generated
systems) is paid as a user pays it.  The last stdout line is one JSON object.

One closed-loop caller runs the operations one after another.  Each
operation is timed on its own; its reference check, the point counts and
the work counters run after the clock stops.  An operation fails when it
raises, overruns OP_DEADLINE_S, or returns output that contradicts its
reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from collections import Counter

OP_DEADLINE_S = 90.0


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded("operation ran past %g s" % OP_DEADLINE_S)


def _branch_work(branch, count_real_roots, work: Counter) -> None:
    """Cells, certified and unresolved points, eliminant degree of a branch."""
    eliminants = [e for e in (branch.eliminant_x, branch.eliminant_y)
                  if e is not None]
    for e in eliminants:
        work["elimination.eliminant_degree_max"] = max(
            work["elimination.eliminant_degree_max"], e.degree)
    if branch.points or branch.unresolved:
        roots = [count_real_roots(e) if e.degree > 0 else 0 for e in eliminants]
        work["singularity.cells_tested"] += roots[0] * roots[1]
    work["singularity.points_certified"] += len(branch.points)
    work["singularity.cells_unresolved"] += len(branch.unresolved)


def _layer_work(results, events_by_scan: Counter, count_real_roots,
                work: Counter) -> None:
    """Work counters from the return values the tracer kept."""
    for index, name, args, result in results:
        if name == "singularity.find_equilibria":
            _branch_work(result, count_real_roots, work)
        elif name == "singularity.singular_locus":
            for branch in result.branches:
                _branch_work(branch, count_real_roots, work)
            work["singularity.divergence_points"] += len(
                result.divergence_points)
            work["singularity.divergence_certified"] += (
                result.certified_divergence_count)
        elif name == "curvature.scalar_curvature":
            work["curvature.numerator_terms"] += len(
                result.curvature.numerator.terms)
        elif name == "dynamics.find_cycles_numeric":
            cells = args[2]
            unrefined = sum(1 for note in result.notes
                            if "could not be refined" in note)
            work["dynamics.scan_cells"] += cells
            work["dynamics.scan_events"] += events_by_scan[index]
            work["dynamics.brackets"] += result.cycle_count + unrefined


def _layer_metrics(tracer, work: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) for the traced run."""
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0), "count"

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0), "s"

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0), "s"

    def counted(name, unit="count"):
        return work[name], unit

    brackets = work["dynamics.brackets"]
    divergence = work["singularity.divergence_points"]
    return {
        "polynomials.eval_box_calls": calls("polynomials.eval_box"),
        "polynomials.eval_box_s": total("polynomials.eval_box"),
        "singularity.find_equilibria_s": total("singularity.find_equilibria"),
        "singularity.singular_locus_s": total("singularity.singular_locus"),
        "singularity.singular_locus_self_s": own("singularity.singular_locus"),
        "singularity.cells_tested": counted("singularity.cells_tested"),
        "singularity.points_certified": counted("singularity.points_certified"),
        "singularity.cells_unresolved": counted("singularity.cells_unresolved"),
        "singularity.divergence_points": (divergence, "count"),
        "singularity.divergence_certified":
            counted("singularity.divergence_certified"),
        "singularity.divergence_certified_ratio":
            (work["singularity.divergence_certified"] / divergence
             if divergence else 0.0, "ratio"),
        "elimination.resultant_calls": calls("elimination.resultant"),
        "elimination.resultant_s": total("elimination.resultant"),
        "elimination.eliminant_degree_max":
            counted("elimination.eliminant_degree_max", "degree"),
        "realroots.isolate_calls": calls("realroots.isolate"),
        "realroots.isolate_s": total("realroots.isolate"),
        "realroots.refine_calls": calls("realroots.refine"),
        "realroots.refine_s": total("realroots.refine"),
        "realroots.count_real_roots_calls":
            calls("realroots.count_real_roots"),
        "realroots.sturm_chain_calls": calls("realroots.sturm_chain"),
        "realroots.square_free_part_calls":
            calls("realroots.square_free_part"),
        "curvature.scalar_curvature_s": total("curvature.scalar_curvature"),
        "curvature.numerator_terms": counted("curvature.numerator_terms"),
        "dynamics.find_cycles_numeric_s":
            total("dynamics.find_cycles_numeric"),
        "dynamics.exact_radial_cycles_s":
            total("dynamics.exact_radial_cycles"),
        "dynamics.scan_cells": counted("dynamics.scan_cells"),
        "dynamics.return_events": calls("dynamics.return_event"),
        "dynamics.return_events_per_bracket":
            ((work["dynamics.scan_events"] - work["dynamics.scan_cells"])
             / brackets if brackets else 0.0, "events/bracket"),
        "growth.log_bound_crossover_s": total("growth.log_bound_crossover"),
        "factcheck.run_paper_check_s": total("factcheck.run_paper_check"),
        "factcheck.rows_passed": counted("factcheck.rows_passed"),
        "analysis.analyze_s": total("analysis.analyze"),
        "analysis.analyze_self_s": own("analysis.analyze"),
        "jsonout.dumps_s": total("jsonout.dumps"),
        "jsonout.bytes": counted("jsonout.bytes", "bytes"),
        "parsing.parse_system_s": total("parsing.parse_system"),
        "catalogue.load_catalogue_s": total("catalogue.load_catalogue"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.perf_counter() of the parent at spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import cclab.realroots
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        tracer.enabled = True
    operations = workloads.BUILDERS[args.workload](args.seed)
    setup_s = time.perf_counter() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    count_real_roots = cclab.realroots.count_real_roots
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    located = unresolved = 0
    work: Counter = Counter()
    kept = []
    for _ in range(args.rounds):
        for op in operations:
            error = None
            result = None
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
                try:
                    result = op.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                error = "%s: %s" % (type(exc).__name__, exc)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    outcome = op.check(result)
                except Exception as exc:  # noqa: BLE001 - a failed check
                    outcome = workloads.Outcome(
                        False, "check raised %s: %s" % (type(exc).__name__, exc))
            else:
                outcome = workloads.Outcome(False, error)
            if outcome.report is not None:
                found, open_ = workloads.point_counts(outcome.report)
                located += found
                unresolved += open_
            if tracer is not None:
                kept += tracer.take_results()
                work["factcheck.rows_passed"] += outcome.rows_passed
                work["jsonout.bytes"] += outcome.json_bytes
                tracer.enabled = True
            records.append({"op": op.name, "seconds": elapsed,
                            "ok": outcome.ok, "raised": error is not None,
                            "detail": "" if outcome.ok else outcome.detail})

    report = {
        "setup_s": setup_s,
        "ops": records,
        "located": located,
        "unresolved": unresolved,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.enabled = False
        events_by_scan = Counter(span[3] for span in tracer.spans
                                 if span[0] == "dynamics.return_event")
        _layer_work(kept, events_by_scan, count_real_roots, work)
        report["layers"] = _layer_metrics(tracer, work)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
