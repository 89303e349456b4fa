"""Per-layer spans for the traced benchmark run, recorded from outside cclab.

The shim replaces each traced function at every module binding through
which it is called (``cclab.singularity.resultant``,
``cclab.analysis.singular_locus``, ...) and ``Poly2.eval_box`` on its class.
Each call records a span: name, start, end and the index of its parent
span.  Spans stay in memory; ``summary`` turns them into per-layer calls,
total seconds and self seconds (duration minus the direct child spans).

Only the traced run installs the shim, so the end-to-end run measures the
program untouched.  While ``enabled`` is false the wrappers pass calls
straight through, which lets the benchmark's own checks call cclab without
adding spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); an attribute "Class.method" is patched on
# the class.
TARGETS = (
    ("cclab.polynomials", "Poly2.eval_box", "polynomials.eval_box"),
    ("cclab.elimination", "resultant", "elimination.resultant"),
    ("cclab.realroots", "isolate_real_roots", "realroots.isolate"),
    ("cclab.realroots", "refine_root", "realroots.refine"),
    ("cclab.realroots", "count_real_roots", "realroots.count_real_roots"),
    ("cclab.realroots", "sturm_chain", "realroots.sturm_chain"),
    ("cclab.realroots", "square_free_part", "realroots.square_free_part"),
    ("cclab.singularity", "find_equilibria", "singularity.find_equilibria"),
    ("cclab.singularity", "singular_locus", "singularity.singular_locus"),
    ("cclab.curvature", "scalar_curvature", "curvature.scalar_curvature"),
    ("cclab.dynamics", "find_cycles_numeric", "dynamics.find_cycles_numeric"),
    ("cclab.dynamics", "exact_radial_cycles", "dynamics.exact_radial_cycles"),
    ("cclab.dynamics", "_return_event", "dynamics.return_event"),
    ("cclab.growth", "log_bound_crossover", "growth.log_bound_crossover"),
    ("cclab.factcheck", "run_paper_check", "factcheck.run_paper_check"),
    ("cclab.analysis", "analyze", "analysis.analyze"),
    ("cclab.jsonout", "dumps", "jsonout.dumps"),
    ("cclab.parsing", "parse_system", "parsing.parse_system"),
    ("cclab.catalogue", "load_catalogue", "catalogue.load_catalogue"),
)

# Spans whose arguments and return value the counters read afterwards.
KEEP_RESULTS = frozenset((
    "singularity.find_equilibria",
    "singularity.singular_locus",
    "curvature.scalar_curvature",
    "dynamics.find_cycles_numeric",
))


class Tracer:
    def __init__(self):
        self.enabled = False
        # [name, start, end, parent index]; end stays None while open
        self.spans: list[list] = []
        # (span index, name, args, result) for KEEP_RESULTS spans that returned
        self.results: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        keep = name in KEEP_RESULTS

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if keep:
                self.results.append((index, name, args, result))
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        """Patch every binding of each target in cclab and ``extra_modules``."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cclab" or n.startswith("cclab.")]
        modules += list(extra_modules)
        for module_name, attribute, span_name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(span_name, original))
                continue
            original = getattr(owner, attribute)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def take_results(self) -> list[tuple]:
        taken, self.results = self.results, []
        return taken

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return dict(out)
