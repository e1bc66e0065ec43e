"""Span recorder for the traced run.

:class:`Tracer` replaces each public layer function listed in ``LAYERS``
at every module binding in the ``clfcbf`` package (the package namespace,
the defining module and every module that imported it by name), so calls
made inside the library are caught as well as the benchmark's own.  A
span is (name, start, end, parent); spans stay in memory and are written
out when the run ends.  Self time is a span's duration minus the time its
direct child spans cover.

A few counters are taken from the returned objects at the same boundary:
warm-start hits of ``solve_pointwise``, RK4 steps and active-set switches
of ``integrate``, and the seeds -> roots -> validated funnel of the
equilibrium searches.
"""

import json
import sys
import time
from collections import defaultdict

import numpy as np

#: module -> public functions spanned.  ``certificates`` and ``systems``
#: are left out: they cost a few microseconds per call and are called inside
#: every layer, so spanning them would mostly measure the tracer.
LAYERS = {
    "qp": ("solve_pointwise", "closed_loop_field", "check_feasibility_condition",
           "oracle_solve"),
    "simulate": ("integrate",),
    "equilibria": ("find_boundary_equilibria", "find_interior_equilibria",
                   "validate_equilibrium"),
    "stability": ("equilibrium_field_jacobian", "closed_loop_jacobian",
                  "classify", "spectrum_cross_check"),
    "scenario": ("loads_scenario",),
}


class Tracer:
    """Installs span wrappers over the library and collects spans and counters."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)
        self._names = {}
        self._patches = []
        for module, names in LAYERS.items():
            mod = sys.modules[f"{lib.__name__}.{module}"]
            for name in names:
                self._names[getattr(mod, name)] = f"{module}.{name}"
        scenario_cls = sys.modules[f"{lib.__name__}.scenario"].Scenario
        self._method = (scenario_cls, "problem", scenario_cls.problem)

    # -- installation ----------------------------------------------------

    def install(self):
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._names.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != self.lib.__name__ and not modname.startswith(
                    self.lib.__name__ + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        cls, attr, method = self._method
        setattr(cls, attr, self._wrap(method, "scenario.problem"))

    def uninstall(self):
        for mod, attr, value in self._patches:
            setattr(mod, attr, value)
        self._patches = []
        cls, attr, method = self._method
        setattr(cls, attr, method)

    def _wrap(self, fn, name):
        spans, stack, count = self.spans, self.stack, self._count
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            count(name, args, kwargs, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _count(self, name, args, kwargs, result):
        c = self.counters
        if name == "qp.solve_pointwise":
            guess = kwargs.get("first_guess", args[2] if len(args) > 2 else None)
            if guess is not None:
                c["warm_calls"] += 1
                c["warm_hits"] += frozenset(guess) == result.active_set
        elif name == "simulate.integrate":
            c["rk4_steps"] += max(result.t.shape[0] - 1, 0)
            c["switches"] += int(np.count_nonzero(np.diff(result.active_mask)))
        elif name == "equilibria.find_boundary_equilibria":
            config = args[2] if len(args) > 2 else kwargs["config"]
            self._funnel(config.boundary_seeds, result)
        elif name == "equilibria.find_interior_equilibria":
            config = args[1] if len(args) > 1 else kwargs["config"]
            self._funnel(config.interior_seeds, result)

    def _funnel(self, seeds, reports):
        c = self.counters
        c["seeds"] += seeds
        c["roots"] += len(reports)
        c["validated"] += sum(1 for r in reports if r.validated)

    # -- results -----------------------------------------------------------

    def mark(self):
        """Position in the span list, to split phases of one run."""
        return len(self.spans)

    def self_times(self, start=0, stop=None):
        """{name: (durations, self times)} over spans[start:stop]."""
        spans = self.spans[start:stop]
        child = defaultdict(float)
        for name, s, e, parent in spans:
            if parent >= start:
                child[parent] += e - s
        out = defaultdict(lambda: ([], []))
        for k, (name, s, e, _) in enumerate(spans, start):
            dur = e - s
            out[name][0].append(dur)
            out[name][1].append(dur - child[k])
        return out

    def write(self, path):
        """All spans as JSON lines: name, start and end (s), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, s, e, parent in self.spans:
                fh.write(json.dumps([name, s, e, parent]) + "\n")
