"""Spans around the public functions of each pconfig module.

The tracer wraps functions from outside the package: every attribute of a
``pconfig`` module that is the original function is replaced by one
wrapper, so calls through any import site are recorded.  ``pull_back`` is
wrapped on its class and the CLI subcommands in the dispatch table.

A span holds a name, start, end and the index of its parent span; spans
stay in memory until the run writes them out.  Delta-map evaluations are
not stored as spans: the endpoint enclosure makes thousands of scalar calls
per pair, so evaluations only add to counters and to the leaf time of the
innermost open span.  A span's self time is its duration minus its child
spans and that leaf time.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from pconfig import analysis, cauchy, cli, conjugacy, families, funcspace

#: Span name for each wrapped function.
SPANNED = {
    "families.validate": families.validate,
    "conjugacy.orbit_grid": conjugacy.build_orbit_grid,
    "conjugacy.solve": conjugacy.conjugate_to_standard,
    "conjugacy.conjugate": conjugacy.conjugate,
    "funcspace.evaluate": funcspace.evaluate,
    "funcspace.compose": funcspace.compose,
    "funcspace.invert": funcspace.invert,
    "funcspace.to_csv": funcspace.to_csv,
    "funcspace.from_csv": funcspace.from_csv,
    "cauchy.solve_nonlinear": cauchy.solve_nonlinear,
    "cauchy.fe_residual": cauchy.fe_residual,
    "analysis.enclosure": analysis.oracle_quotient_enclosure,
    "analysis.probe": analysis.difference_quotients,
    "analysis.dyadic_check": analysis.dyadic_fixed_point_check,
    "analysis.experiment": analysis.nonregular_experiment,
    "cli.main": cli.main,
}

#: Pair constructors; their results get traced delta maps.
CONSTRUCTORS = (
    families.build_family,
    families.standard_pair,
    families.quadratic_pair,
    families.perturbed_flat_pair,
)

DELTAS = ("delta1", "delta2", "d_delta1", "d_delta2")

#: CLI subcommands with a per-layer metric each.
SUBCOMMANDS = ("validate", "conjugate", "solve-fe", "probe", "nonregular")


class Tracer:
    """Records spans and evaluation counters while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.leaf_s = []         # delta-evaluation time inside each span
        self.stack = []
        self.counters = Counter()
        self._undo = []

    # -- recording ------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.leaf_s.append(0.0)
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    def wrap(self, name, fn, on_call=None):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if on_call is not None:
                on_call(args, kwargs, out)
            return out
        return traced

    def _leaf(self, fn):
        def evaluated(t):
            t0 = perf_counter()
            out = fn(t)
            dt = perf_counter() - t0
            where = self.spans[self.stack[-1]][0] if self.stack else "-"
            if self.stack:
                self.leaf_s[self.stack[-1]] += dt
            n = int(np.size(t))
            self.counters["eval_calls"] += 1
            self.counters["eval_points"] += n
            self.counters["eval_s"] += dt
            self.counters[f"eval_calls@{where}"] += 1
            self.counters[f"eval_points@{where}"] += n
            return out
        return evaluated

    def traced_pair(self, pair):
        """Copy of ``pair`` whose delta maps feed the evaluation counters."""
        return dataclasses.replace(
            pair, **{d: self._leaf(getattr(pair, d)) for d in DELTAS})

    # -- installation ---------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pconfig" and not mod_name.startswith("pconfig."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        hooks = {
            "conjugacy.orbit_grid": self._count_lost_nodes,
            "conjugacy.solve": self._count_iterations,
            "funcspace.to_csv": self._count_csv_out,
            "funcspace.from_csv": self._count_csv_in,
        }
        for name, fn in SPANNED.items():
            self._replace_everywhere(fn, self.wrap(name, fn, hooks.get(name)))
        for fn in CONSTRUCTORS:
            self._replace_everywhere(fn, self._traced_constructor(fn))
        self._set(conjugacy.BranchInverse, "pull_back", self.wrap(
            "conjugacy.pullback", conjugacy.BranchInverse.pull_back,
            self._count_pulled_back))
        for sub, fn in list(cli._DISPATCH.items()):
            self._set_item(cli._DISPATCH, sub, self.wrap(f"cli.{sub}", fn))
        return self

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[key] = value
            else:
                setattr(obj, key, value)

    def _traced_constructor(self, fn):
        def build(*args, **kwargs):
            return self.traced_pair(fn(*args, **kwargs))
        return build

    # -- counters fed by return values ----------------------------------

    def _count_lost_nodes(self, args, kwargs, out):
        depth = kwargs.get("depth", args[1] if len(args) > 1 else None)
        self.counters["nodes_lost"] += 2 ** (depth + 1) + 1 - len(out)

    def _count_iterations(self, args, kwargs, out):
        self.counters["iterations"] += out[1].iterations

    def _count_pulled_back(self, args, kwargs, out):
        self.counters["pulled_back_nodes"] += int(np.size(out))

    def _count_csv_out(self, args, kwargs, out):
        self.counters["csv_bytes_out"] += len(out.encode())

    def _count_csv_in(self, args, kwargs, out):
        text = kwargs.get("text", args[0] if args else "")
        self.counters["csv_bytes_in"] += len(text.encode())

    # -- summaries ------------------------------------------------------

    def totals(self):
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i] - self.leaf_s[i]
        return calls, incl, self_s

    def span_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, as ``{name: (value, unit)}``."""
    calls, incl, self_s = tracer.totals()
    c = tracer.counters
    pulled = c["pulled_back_nodes"]
    out = {
        "families.eval_calls": (c["eval_calls"], "count"),
        "families.eval_points": (c["eval_points"], "count"),
        "families.eval_s": (c["eval_s"], "s"),
        "families.validate_calls": (calls["families.validate"], "count"),
        "families.validate_s": (incl["families.validate"], "s"),
        "conjugacy.pullback_s": (incl["conjugacy.pullback"], "s"),
        "conjugacy.evals_per_node": (
            c["eval_points@conjugacy.pullback"] / pulled if pulled else 0.0,
            "ratio"),
        "conjugacy.orbit_grid_s": (incl["conjugacy.orbit_grid"], "s"),
        "conjugacy.loop_self_s": (self_s["conjugacy.solve"], "s"),
        "conjugacy.iterations": (c["iterations"], "count"),
        "conjugacy.solve_calls": (calls["conjugacy.solve"], "count"),
        "conjugacy.nodes_lost": (c["nodes_lost"], "count"),
        "funcspace.to_csv_s": (incl["funcspace.to_csv"], "s"),
        "funcspace.csv_bytes_out": (c["csv_bytes_out"], "bytes"),
        "funcspace.from_csv_s": (incl["funcspace.from_csv"], "s"),
        "funcspace.csv_bytes_in": (c["csv_bytes_in"], "bytes"),
        "funcspace.compose_s": (incl["funcspace.compose"], "s"),
        "funcspace.invert_s": (incl["funcspace.invert"], "s"),
        "cauchy.fe_residual_s": (incl["cauchy.fe_residual"], "s"),
        "cauchy.solve_nonlinear_self_s": (
            self_s["cauchy.solve_nonlinear"], "s"),
        "analysis.enclosure_s": (incl["analysis.enclosure"], "s"),
        "analysis.enclosure_eval_calls": (
            c["eval_calls@analysis.enclosure"], "count"),
        "analysis.probe_s": (incl["analysis.probe"], "s"),
        "analysis.experiment_self_s": (self_s["analysis.experiment"], "s"),
        "cli.self_s": (
            self_s["cli.main"] + sum(self_s[f"cli.{s}"] for s in SUBCOMMANDS),
            "s"),
    }
    for sub in SUBCOMMANDS:
        out[f"cli.{sub.replace('-', '_')}_s"] = (incl[f"cli.{sub}"], "s")
    return out


def missing_spans(tracer: Tracer, required) -> list:
    """Required span or counter names that never fired."""
    calls, _, _ = tracer.totals()
    fired = set(calls) | {k for k, v in tracer.counters.items() if v}
    return sorted(set(required) - fired)

