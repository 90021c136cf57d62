"""Per-layer spans recorded by wrapping spinsim's public functions.

The wrappers live only in the benchmark: `Tracer.install` replaces each
boundary function at every name callers reach it by (module attributes,
names bound by ``from .core import ...`` and class attributes) and
`Tracer.uninstall` puts the originals back, so untraced passes run the
program unmodified.  Spans are kept in memory and written out at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name); the numpy kernels are looked up on
# numpy.linalg at call time by every caller
BOUNDARIES = (
    ("spinsim.cli", "main", "cli.main"),
    ("spinsim.core", "parse_spin_system", "core.parse_spin_system"),
    ("spinsim.core", "eigensystem", "core.eigensystem"),
    ("spinsim.core", "transition_catalog", "core.transition_catalog"),
    ("spinsim.core", "EigenSystem.lowering_operator", "core.lowering_operator"),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("numpy.linalg", "lstsq", "numpy.linalg.lstsq"),
    ("spinsim.dynamics", "selective_pulse_unitary",
     "dynamics.selective_pulse_unitary"),
    ("spinsim.dynamics", "hard_pulse_unitary", "dynamics.hard_pulse_unitary"),
    ("spinsim.dynamics", "apply_unitary", "dynamics.apply_unitary"),
    ("spinsim.dynamics", "free_evolution", "dynamics.free_evolution"),
    ("spinsim.dynamics", "format_state", "dynamics.format_state"),
    ("spinsim.dynamics", "parse_state", "dynamics.parse_state"),
    ("spinsim.pulselang", "parse_program", "pulselang.parse_program"),
    ("spinsim.pulselang", "execute", "pulselang.execute"),
    ("spinsim.pulselang", "execute_cycled", "pulselang.execute_cycled"),
    ("spinsim.acquisition", "tomo_offdiagonal_2d",
     "acquisition.tomo_offdiagonal_2d"),
    ("spinsim.acquisition", "run_2d", "acquisition.run_2d"),
    ("spinsim.acquisition", "acquire_fid", "acquisition.acquire_fid"),
    ("spinsim.acquisition", "zcosy_time_domain", "acquisition.zcosy_time_domain"),
    ("spinsim.acquisition", "line_amplitudes", "acquisition.line_amplitudes"),
    ("spinsim.acquisition", "Dataset2D.to_text", "acquisition.Dataset2D.to_text"),
    ("spinsim.acquisition", "Dataset2D.to_gnuplot_grid",
     "acquisition.Dataset2D.to_gnuplot_grid"),
    ("spinsim.acquisition", "tomo_diagonal", "acquisition.tomo_diagonal"),
    ("spinsim.acquisition", "tomo_scale_calibration",
     "acquisition.tomo_scale_calibration"),
    ("spinsim.acquisition", "reconstruct_density",
     "acquisition.reconstruct_density"),
    ("spinsim.assignment", "parse_connectivity", "assignment.parse_connectivity"),
    ("spinsim.assignment", "reconstruct_levels", "assignment.reconstruct_levels"),
    ("spinsim.assignment", "format_diagram", "assignment.format_diagram"),
)
# every public function of this module is one aggregate boundary
AGGREGATE_MODULE = ("spinsim.protocols", "protocols")
SPAN_NAMES = tuple(b[2] for b in BOUNDARIES) + (AGGREGATE_MODULE[1],)


FLOP_SPAN = "dynamics.apply_unitary"


def apply_unitary_flop(rho, u) -> float:
    """Computed cost of u @ rho @ u^H: two dense complex d x d products,
    2 * 8 d^3 real operations."""
    return 16.0 * u.shape[0] ** 3


class Tracer:
    """Records (name, start, end, parent, job) spans while installed."""

    def __init__(self):
        self.spans: list = []
        self.flop = 0.0
        self.job = -1
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_flop = name == FLOP_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if count_flop:
                self.flop += apply_unitary_flop(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
        return traced

    def install(self) -> None:
        targets = []
        for module, path, name in BOUNDARIES:
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            targets.append((owner, attr, name))
        mod = sys.modules[AGGREGATE_MODULE[0]]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                targets.append((mod, attr, AGGREGATE_MODULE[1]))
        callers = [m for k, m in sys.modules.items()
                   if k == "spinsim" or k.startswith("spinsim.")]
        for owner, attr, name in targets:
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig)
            self._patch(owner, attr, wrapped)
            for m in callers:
                for key, val in list(vars(m).items()):
                    if val is orig and (m, key) != (owner, attr):
                        self._patch(m, key, wrapped)

    def _patch(self, obj, attr, new) -> None:
        self._patched.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_totals(spans, first: int = 0, last: int | None = None) -> dict:
    """calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the part of it covered by its
    child spans.  Inclusive time counts only the outermost span of a name,
    so a boundary that calls itself is not counted twice.
    """
    spans = spans[first:last]
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= first:
            children[parent - first].append((start, end))
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
    for i, (name, start, end, parent, _) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - covered(children.get(i, ()))
        anc = parent
        while anc >= first and spans[anc - first][0] != name:
            anc = spans[anc - first][3]
        if anc < first:
            rec["s"] += end - start
    return out
