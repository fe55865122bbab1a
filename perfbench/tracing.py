"""Per-layer call tracing of fluxnet, installed from outside the program.

``Tracer.install`` wraps the public functions of ``network``, ``solvers``,
``cgf``, ``ldp`` and ``simulate`` and the subcommand handlers of ``cli``,
and rebinds every name under which a fluxnet module holds one of them, so
that a call through another module's import (``ldp`` calling
``cgf.domain_margin``, ``cgf`` calling ``solvers.riccati_maximal``) is
recorded as well.  Each call becomes a span (name, start, end, parent,
failed) kept in memory; ``cgf.E_matrix``, called up to a million times per
run, is only counted.  The run is single-threaded, so a span's children
never overlap and its self time is its duration minus theirs.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time

LAYERS = ("network", "solvers", "cgf", "ldp", "simulate")
SUBCOMMANDS = {"cmd_validate": "validate", "cmd_gap_scan": "gap-scan",
               "cmd_rate": "rate", "cmd_cgf": "cgf", "cmd_simulate": "simulate"}
COUNTED = {"cgf.E_matrix"}
RAYS = ("cgf.section_boundary", "cgf.section_inf_boundary")
DOMAIN_TEST = "cgf.domain_margin"

#: the functions whose calls, self time and failures are reported
REPORTED = (
    "network.assemble_model", "network.kalman_controllable",
    "solvers.riccati_maximal", "solvers.riccati_extrapolated",
    "solvers.hamiltonian", "solvers.integrate_frequency",
    "solvers.solve_lyapunov", "solvers.matrix_exponential",
    "cgf.domain_margin", "cgf.section_boundary", "cgf.section_inf_boundary",
    "cgf.sinf_margin", "cgf.lambda_pm", "cgf.g_gradient", "cgf.g_value",
    "cgf.lineality_space",
    "ldp.rate_function", "ldp.condition_R_scan", "ldp.entropy_production",
    "simulate.empirical_cgf", "simulate.finite_horizon_cgf",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for fn in REPORTED:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s"),
                  (f"{fn}.failed", "count")]
    names += [(f"cli.{sub}.total_s", "s") for sub in SUBCOMMANDS.values()]
    names += [("cgf.E_matrix.calls", "count"),
              ("cgf.domain_margin.per_ray", "calls/ray")]
    return names


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, raised]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def _count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap the layers of the imported fluxnet package in place."""
        modules = {short: importlib.import_module(f"fluxnet.{short}")
                   for short in LAYERS + ("cli",)}
        wrappers = {}
        for short in LAYERS:
            module = modules[short]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if (inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrap = self._count if name in COUNTED else self._span
                wrappers[id(obj)] = (obj, wrap(name, obj))
        for attr, sub in SUBCOMMANDS.items():
            obj = getattr(modules["cli"], attr)
            wrappers[id(obj)] = (obj, self._span(f"cli.{sub}", obj))
        for module in [importlib.import_module("fluxnet"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round (the rounds of a run are identical)."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_ray = [False] * len(spans)
        agg = {}
        domain_in_rays = rays = 0
        # parents precede their children in the span list
        for k, (name, start, end, parent, failed) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_ray[k] = in_ray[parent] or spans[parent][0] in RAYS
            if name in RAYS and not in_ray[k]:
                rays += 1
            if name == DOMAIN_TEST and in_ray[k]:
                domain_in_rays += 1
        for k, (name, start, end, parent, failed) in enumerate(spans):
            calls, self_s, total_s, raised = agg.get(name, (0, 0.0, 0.0, 0))
            agg[name] = (calls + 1, self_s + (end - start) - child[k],
                         total_s + end - start, raised + failed)
        out = {}
        for fn in REPORTED:
            calls, self_s, _, raised = agg.get(fn, (0, 0.0, 0.0, 0))
            out[f"{fn}.calls"] = calls / rounds
            out[f"{fn}.self_s"] = self_s / rounds
            out[f"{fn}.failed"] = raised / rounds
        for sub in SUBCOMMANDS.values():
            out[f"cli.{sub}.total_s"] = agg.get(f"cli.{sub}", (0, 0.0, 0.0, 0))[2] / rounds
        out["cgf.E_matrix.calls"] = self.counts.get("cgf.E_matrix", 0) / rounds
        out["cgf.domain_margin.per_ray"] = domain_in_rays / rays if rays else 0.0
        return out

    def write(self, path: str) -> None:
        """Write the spans as CSV: index, name, start, end, parent, failed."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "failed"])
            for k, (name, start, end, parent, failed) in enumerate(self.spans):
                out.writerow([k, name, f"{start:.9f}", f"{end:.9f}", parent, int(failed)])
