"""Spans and call records around splr's public functions, patched from outside.

splr is not edited: each public function is replaced, for the length of one
operation, at every name under which splr looks it up (``bcgd`` imports
``solve_weighted_nuclear`` by name, ``numpy.linalg.svd`` is read at call
time, and so on), and the original is put back afterwards.  A ``Recorder``
keeps the arguments and results of a few calls for the output checks; a
``Tracer`` keeps one span per call (name, start, end, parent, details) in
memory, and per-layer numbers are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from splr import bcgd, dictionary, experiments, expfam, selection, simulate, subsolvers

SPAN_NAMES = {
    "subsolvers.svd", "subsolvers.nuclear_norm", "subsolvers.nuclear",
    "subsolvers.lasso", "subsolvers.lasso.kkt", "expfam.quasi_loglik_neg",
    "expfam.curvature_weights", "expfam.working_responses", "expfam.gradient",
    "expfam.predicted_means", "dictionary.apply", "dictionary.adjoint",
    "dictionary.atom_supports", "bcgd.alpha_step", "bcgd.l_step", "bcgd.fit",
    "selection.default_grid", "selection.path", "selection.holdout",
    "simulate.instance", "simulate.baseline",
}
LAYERS = ("subsolvers", "expfam", "dictionary", "bcgd", "selection", "simulate")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def patched(*installers):
    patches = Patches()
    try:
        for install in installers:
            install(patches)
        yield
    finally:
        patches.restore()


# ----------------------------------------------------------------- recorder


class Recorder:
    """Arguments and results of the calls the output checks look at."""

    def __init__(self):
        self.fits = []       # (frame, links, dictionary, ModelFit)
        self.grids = []      # (frame, links, dictionary, LambdaGrid)
        self.instances = []  # SimInstance

    def _keep(self, store, pick):
        def make(fn):
            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                store.append(pick(args, result))
                return result
            return recorded
        return make

    def install(self, patches):
        fit = self._keep(self.fits, lambda a, r: (a[0], a[1], a[2], r))
        grid = self._keep(self.grids, lambda a, r: (a[0], a[1], a[2], r))
        inst = self._keep(self.instances, lambda a, r: r)
        patches.replace(bcgd, "fit", fit)
        patches.replace(selection, "default_grid", grid)
        patches.replace(experiments, "default_grid", grid)
        patches.replace(experiments, "simulate_instance", inst)


# ----------------------------------------------------------------- tracer


def _svd_flops(args, kwargs, result):
    """Flops of a dense SVD from its shape (Golub & Van Loan, R-SVD or
    Golub-Reinsch, whichever is cheaper): 'values only' or thin U, S, V^T."""
    m, n = np.shape(args[0])[-2:]
    m, n = max(m, n), min(m, n)
    if kwargs.get("compute_uv", True):
        return min(14 * m * n * n + 8 * n**3, 6 * m * n * n + 20 * n**3)
    return min(4 * m * n * n - 4 * n**3 / 3, 2 * m * n * n + 2 * n**3)


def _nuclear_cap(args, kwargs, result):
    return kwargs.get("max_iter", args[2] if len(args) > 2 else 100)


def _fit_steps(args, kwargs, result):
    cfg = result.config
    accepted = backtracks = 0
    for pair in result.step_trace:
        for tau in pair:
            if tau > 0.0:
                accepted += 1
                backtracks += round(math.log(cfg.tau_init / tau) / math.log(1.0 / cfg.backtrack))
    return result.n_iter, accepted, backtracks


def _baseline_iters(args, kwargs, result):
    return result.n_iter


class Tracer:
    """One span per wrapped call: [name, start, end, parent index, details]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, details=None):
        spans, stack = self.spans, self._stack

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(span)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
                if details is not None:
                    span[4] = details(args, kwargs, result)
                return result
            return traced
        return make

    def install(self, patches):
        w = self.wrap
        svd = w("subsolvers.svd", _svd_flops)
        patches.replace(np.linalg, "svd", svd)
        patches.replace(scipy.linalg, "svd", svd)
        nuc = w("subsolvers.nuclear_norm")
        patches.replace(bcgd, "nuclear_norm", nuc)
        patches.replace(subsolvers, "nuclear_norm", nuc)
        patches.replace(bcgd, "solve_weighted_nuclear", w("subsolvers.nuclear", _nuclear_cap))
        patches.replace(bcgd, "solve_weighted_lasso", w("subsolvers.lasso"))
        patches.replace(subsolvers, "weighted_lasso_kkt_residual", w("subsolvers.lasso.kkt"))
        for fn in ("quasi_loglik_neg", "curvature_weights", "working_responses",
                   "gradient", "predicted_means"):
            patches.replace(expfam, fn, w(f"expfam.{fn}"))
        for cls in (dictionary.GroupEffectsDictionary, dictionary.RowColumnDictionary,
                    dictionary.CorruptionsDictionary, dictionary.CustomDictionary):
            patches.replace(cls, "apply", w("dictionary.apply"))
            patches.replace(cls, "adjoint", w("dictionary.adjoint"))

        def supports(prop):
            new = functools.cached_property(w("dictionary.atom_supports")(prop.func))
            new.__set_name__(dictionary.Dictionary, "atom_supports")
            return new
        patches.replace(dictionary.Dictionary, "atom_supports", supports)
        patches.replace(bcgd, "alpha_step", w("bcgd.alpha_step"))
        patches.replace(bcgd, "l_step", w("bcgd.l_step"))
        fit = w("bcgd.fit", _fit_steps)
        patches.replace(bcgd, "fit", fit)
        patches.replace(experiments, "fit", fit)
        grid = w("selection.default_grid")
        patches.replace(selection, "default_grid", grid)
        patches.replace(experiments, "default_grid", grid)
        patches.replace(selection, "path_errors", w("selection.path"))
        hold = w("selection.holdout")
        patches.replace(selection, "holdout_select", hold)
        patches.replace(experiments, "holdout_select", hold)
        inst = w("simulate.instance")
        patches.replace(simulate, "simulate_instance", inst)
        patches.replace(experiments, "simulate_instance", inst)
        base = w("simulate.baseline", _baseline_iters)
        patches.replace(simulate, "group_mean_svt_baseline", base)
        patches.replace(experiments, "group_mean_svt_baseline", base)


# ----------------------------------------------------------------- metrics

# every per-layer metric the traced run reports, in BENCHMARK.json order
LAYER_METRICS = (
    ("subsolvers.svd.calls", "count"),
    ("subsolvers.svd.s", "s"),
    ("subsolvers.svd.gflop_computed", "Gflop"),
    ("subsolvers.nuclear_norm.calls", "count"),
    ("subsolvers.nuclear_norm.s", "s"),
    ("subsolvers.nuclear.calls", "count"),
    ("subsolvers.nuclear.s", "s"),
    ("subsolvers.nuclear.em_iters", "count"),
    ("subsolvers.nuclear.cap_hits", "count"),
    ("subsolvers.lasso.calls", "count"),
    ("subsolvers.lasso.s", "s"),
    ("subsolvers.lasso.full_sweeps", "count"),
    *((f"expfam.{fn}.{kind}", unit)
      for fn in ("quasi_loglik_neg", "curvature_weights", "working_responses",
                 "gradient", "predicted_means")
      for kind, unit in (("calls", "count"), ("s", "s"))),
    ("dictionary.apply.calls", "count"),
    ("dictionary.apply.s", "s"),
    ("dictionary.adjoint.calls", "count"),
    ("dictionary.adjoint.s", "s"),
    ("dictionary.atom_supports.s", "s"),
    ("bcgd.alpha_step.s", "s"),
    ("bcgd.l_step.s", "s"),
    ("bcgd.outer_iters", "count"),
    ("bcgd.linesearch.trials", "count"),
    ("bcgd.backtracks", "count"),
    ("bcgd.linesearch.accept_ratio", "ratio"),
    ("selection.default_grid.s", "s"),
    ("selection.path.s", "s"),
    ("selection.path.fits", "count"),
    ("selection.refit.s", "s"),
    ("simulate.instance.s", "s"),
    ("simulate.baseline.s", "s"),
    ("simulate.baseline.iters", "count"),
    *((f"self.{layer}.s", "s") for layer in LAYERS + ("other",)),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans, wall):
    """Per-layer numbers for one operation's spans, taking ``wall`` seconds."""
    calls, secs = {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (end - start)
        if parent >= 0:
            child[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name.split(".")[0]] += (end - start) - child[i]
        if parent < 0:
            covered += end - start

    em_iters = cap_hits = path_fits = outer = accepted = backtracks = 0
    baseline_iters = trials = 0
    gflop = refit = 0.0
    em_per_solve = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        if name == "subsolvers.svd" and info is not None:
            gflop += info / 1e9
            # an EM iteration is an SVD whose nearest enclosing solver span
            # is the nuclear solve, not a nuclear_norm evaluation
            up = parent
            while up >= 0 and spans[up][0] not in ("subsolvers.nuclear",
                                                   "subsolvers.nuclear_norm"):
                up = spans[up][3]
            if up >= 0 and spans[up][0] == "subsolvers.nuclear":
                em_per_solve[up] = em_per_solve.get(up, 0) + 1
        elif name == "expfam.quasi_loglik_neg" and parent >= 0 and spans[parent][0] in (
            "bcgd.alpha_step", "bcgd.l_step"
        ):
            # inside a block step, the data fit is evaluated only by line-search trials
            trials += 1
        elif name == "bcgd.fit" and info is not None:
            outer += info[0]
            accepted += info[1]
            backtracks += info[2]
            up = list(_ancestors(spans, i))
            if "selection.path" in up:
                path_fits += 1
            elif "selection.holdout" in up:
                refit += end - start
        elif name == "simulate.baseline" and info is not None:
            baseline_iters += info
    for solve, n in em_per_solve.items():
        em_iters += n
        cap_hits += spans[solve][4] is not None and n >= spans[solve][4]

    out = {}
    for metric, _ in LAYER_METRICS:
        prefix, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = calls.get(prefix, 0)
        elif kind == "s" and prefix in SPAN_NAMES:
            out[metric] = secs.get(prefix, 0.0)
    out["subsolvers.svd.gflop_computed"] = gflop
    out["subsolvers.nuclear.em_iters"] = em_iters
    out["subsolvers.nuclear.cap_hits"] = cap_hits
    out["subsolvers.lasso.full_sweeps"] = calls.get("subsolvers.lasso.kkt", 0)
    out["bcgd.outer_iters"] = outer
    out["bcgd.linesearch.trials"] = trials
    out["bcgd.backtracks"] = backtracks
    out["bcgd.linesearch.accept_ratio"] = accepted / trials if trials else 0.0
    out["selection.path.fits"] = path_fits
    out["selection.refit.s"] = refit
    out["simulate.baseline.iters"] = baseline_iters
    for layer in LAYERS:
        out[f"self.{layer}.s"] = self_s[layer]
    out["self.other.s"] = wall - covered
    out["trace.spans"] = len(spans)
    for metric, _ in LAYER_METRICS:
        out.setdefault(metric, 0.0)
    return out
