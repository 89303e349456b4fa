"""Command-line surface.

Subcommands: analyze, curvature, singularities, cycles, transform, hilbert,
paper-check.  Systems are named either by a catalogue key (s1, s1a, s2,
center) or by a path to a definition file in the ``vars:``/``d<var> =``
format.  Exit codes: 0 all requested work succeeded, 1 an analysis-level
failure (a FAIL row from paper-check, an integration blow-up), 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import jsonout
from .analysis import (
    DEFAULT_N_SCAN,
    DEFAULT_R_RANGE,
    analyze,
    render_report,
    report_dict,
)
from .catalogue import load_catalogue
from .curvature import (
    VALUE,
    DegenerateMetricError,
    scalar_curvature,
)
from .dynamics import (
    DivergenceError,
    EquilibriumCaptureError,
    NoReturnError,
    detect_radial_form,
    exact_radial_cycles,
    find_cycles_numeric,
)
from .factcheck import render_results, results_dict, run_paper_check
from .growth import (
    comparison_rows,
    contradiction_threshold,
    log_bound_crossover,
    render_comparison,
)
from .jsonout import format_rational
from .parsing import ParseError, parse_rational, parse_system
from .singularity import singular_locus
from .systems import PlanarSystem, transform_system


def _load_system(name: str) -> PlanarSystem:
    entries = load_catalogue()
    if name in entries:
        return entries[name].system
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8") as handle:
            return parse_system(handle.read())
    known = ", ".join(sorted(entries))
    raise FileNotFoundError(
        "%r is neither a catalogue key (%s) nor an existing file" % (name, known))


def _system_text(system: PlanarSystem) -> str:
    a, b = system.varnames
    lines = ["vars: %s %s" % (a, b)]
    lines.append("d%s = %s" % (a, system.P))
    lines.append("d%s = %s" % (b, system.Q))
    if system.label:
        lines.append("label = %s" % system.label)
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    system = _load_system(args.system)
    report = analyze(system, r_range=tuple(args.r_range), n_scan=args.scan)
    if args.json:
        print(jsonout.dumps(report_dict(report)))
    else:
        print(render_report(report))
    return 0


def _cmd_curvature(args) -> int:
    system = _load_system(args.system)
    curv = scalar_curvature(system)
    reduced = curv.curvature
    print("numerator = %s" % reduced.numerator)
    print("denominator = %s" % reduced.denominator)
    e1, e2 = curv.den_exponents
    print("denominator structure: 2 * g11^%d * g22^%d" % (e1, e2))
    if args.at is not None:
        px, py = (parse_rational(args.at[0]), parse_rational(args.at[1]))
        outcome = reduced.evaluate(px, py)
        if outcome.kind == VALUE:
            print("R(%s, %s) = %s" % (format_rational(px), format_rational(py),
                                      format_rational(outcome.value)))
        else:
            print("R(%s, %s) is %s" % (format_rational(px),
                                       format_rational(py), outcome.kind))
    return 0


def _cmd_singularities(args) -> int:
    system = _load_system(args.system)
    locus = singular_locus(scalar_curvature(system))
    for i, branch in enumerate(locus.branches):
        print("branch %d: %s" % (i, branch.status.replace("_", " ")))
        for note in branch.notes:
            print("  %s" % note)
    for point in locus.divergence_points:
        fx, fy = point.box.float_point()
        verdict = ("|R| diverges" if point.numerator_nonzero
                   else "divergence not certified")
        print("point (%.12g, %.12g): %s" % (fx, fy, verdict))
        if point.note:
            print("  %s" % point.note)
    if locus.unresolved:
        print("%d unresolved enclosure(s)" % len(locus.unresolved))
    for note in locus.notes:
        print("note: %s" % note)
    print("certified divergence count: %d" % locus.certified_divergence_count)
    return 0


def _cmd_cycles(args) -> int:
    system = _load_system(args.system)
    radial = detect_radial_form(system)
    if radial.matched:
        report = exact_radial_cycles(radial)
        print("exact radial analysis: %d cycle(s)%s"
              % (report.cycle_count,
                 " (center flag set)" if report.center_flag else ""))
        for cycle in report.cycles:
            print("  " + cycle.summary())
        for note in report.notes:
            print("  note: %s" % note)
    else:
        print("exact radial analysis: not applicable (no rotational form)")
    numeric = find_cycles_numeric(system, DEFAULT_R_RANGE, DEFAULT_N_SCAN)
    print("numeric scan: %d cycle(s)%s"
          % (numeric.cycle_count,
             " (center flag set)" if numeric.center_flag else ""))
    for cycle in numeric.cycles:
        print("  " + cycle.summary())
    for note in numeric.notes:
        print("  note: %s" % note)
    return 0


def _cmd_transform(args) -> int:
    system = _load_system(args.system)
    a, b, c, d = (parse_rational(t) for t in args.map)
    offset = ((parse_rational(args.offset[0]), parse_rational(args.offset[1]))
              if args.offset is not None else (Fraction(0), Fraction(0)))
    image = transform_system(system, ((a, b), (c, d)), offset)
    print(_system_text(image))
    return 0


def _cmd_hilbert(args) -> int:
    if args.threshold:
        print(contradiction_threshold())
    elif args.table is not None:
        print(render_comparison(comparison_rows(args.table)))
    else:
        a, b, c = (parse_rational(t) for t in args.crossover)
        n_star = log_bound_crossover(a, b, c)
        print("crossover n = %d" % n_star)
        print("the logarithmic envelope exceeds the quadratic for every "
              "n >= %d (certified by interval arithmetic)" % n_star)
    return 0


def _cmd_paper_check(args) -> int:
    results = run_paper_check()
    if args.json:
        print(jsonout.dumps(results_dict(results)))
    else:
        print(render_results(results))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclab",
        description="Exact curvature analysis and limit-cycle detection "
                    "for planar polynomial vector fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on one system")
    p.add_argument("system", help="catalogue key or definition file path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--r-range", nargs=2, type=float, metavar=("A", "B"),
                   default=list(DEFAULT_R_RANGE),
                   help="annulus for the numeric cycle scan")
    p.add_argument("--scan", type=int, default=DEFAULT_N_SCAN,
                   help="number of scan radii")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("curvature", help="exact curvature as a quotient")
    p.add_argument("system")
    p.add_argument("--at", nargs=2, metavar=("PX", "PY"),
                   help="evaluate at an exact rational point")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("singularities", help="certified zeros of the denominator")
    p.add_argument("system")
    p.set_defaults(func=_cmd_singularities)

    p = sub.add_parser("cycles", help="limit cycles, exact and numeric")
    p.add_argument("system")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("transform", help="exact linear change of variables")
    p.add_argument("system")
    p.add_argument("--map", nargs=4, required=True, metavar=("A", "B", "C", "D"),
                   help="old = M*new: first old var = A*u + B*v, second = C*u + D*v")
    p.add_argument("--offset", nargs=2, metavar=("E", "F"),
                   help="constant shift added to the map")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("hilbert", help="growth-rate comparison")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", action="store_true",
                       help="first k where the constructed count exceeds the "
                            "claimed bound")
    group.add_argument("--table", type=int, metavar="K",
                       help="comparison table for k = 2..K")
    group.add_argument("--crossover", nargs=3, metavar=("A", "B", "C"),
                       help="crossover of the log envelope over A*n^2+B*n+C")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("paper-check", help="recheck every transcribed fact")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_paper_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        d = exc.diagnostic
        print("input error (%s at byte %d): %s" % (d.kind, d.byte_offset,
                                                   d.message), file=sys.stderr)
        return 2
    except DegenerateMetricError as exc:
        print("input error (degenerate metric): %s" % exc, file=sys.stderr)
        return 2
    except (FileNotFoundError, OSError, KeyError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (DivergenceError, NoReturnError, EquilibriumCaptureError) as exc:
        print("analysis failure (%s): %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print("analysis failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
