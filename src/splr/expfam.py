"""Exponential-family links and the masked quasi-likelihood.

Each column of a mixed data frame carries a convex link function ``g`` whose
derivative maps natural parameters to means.  The data-fitting term used by
the solver is the negative quasi-log-likelihood

    sum over observed (i, j) of  -Y_ij * X_ij + g_j(X_ij),

together with its entrywise gradient and curvature.  Every quantity here
works over one gather, ``observed(frame, links)``: the frame's observed
cells grouped by distinct link, links in order of first use and each link's
cells in row-major order, with the data read there.  It is built once per
(frame, links) and cached on the frame.  The link functions take ``(x, obs)``:
the gather ``obs`` and the parameter values ``x`` at ``obs.cells`` (the
solver's iterate), so unobserved entries contribute exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .exceptions import InvalidInputError, NumericDegeneracyError, ShapeMismatchError

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
POISSON = "poisson"

# exp() overflows float64 just above this; fail loudly instead of clipping
_EXP_ARG_MAX = 700.0
# a working response divides by g''(x); below this the division is meaningless
_CURVATURE_FLOOR = 1e-10


@dataclass(frozen=True)
class LinkSpec:
    """One column's link: convex ``g`` with derivatives ``gprime``/``gsecond``.

    kind:
        "gaussian"  g(x) = sigma2 * x^2 / 2      (mean sigma2*x, variance sigma2)
        "bernoulli" g(x) = log(1 + exp(x))       (success prob 1/(1+exp(-x)))
        "poisson"   g(x) = exp(a*x)              (mean a*exp(a*x))
    """

    kind: str
    sigma2: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, BERNOULLI, POISSON):
            raise InvalidInputError(f"unknown link kind {self.kind!r}")
        if self.kind == GAUSSIAN and not 0 < self.sigma2 < np.inf:
            raise InvalidInputError("gaussian scale sigma2 must be finite and > 0")
        # a count's mean a * exp(a * x) must be positive
        if self.kind == POISSON and not 0 < self.a < np.inf:
            raise InvalidInputError("poisson rate-scale a must be finite and > 0")

    @classmethod
    def gaussian(cls, sigma2: float = 1.0) -> "LinkSpec":
        return cls(GAUSSIAN, sigma2=sigma2)

    @classmethod
    def bernoulli(cls) -> "LinkSpec":
        return cls(BERNOULLI)

    @classmethod
    def poisson(cls, a: float = 1.0) -> "LinkSpec":
        return cls(POISSON, a=a)

    def _exp_ax(self, x):
        ax = self.a * np.asarray(x, dtype=float)
        if np.any(ax > _EXP_ARG_MAX):
            raise InvalidInputError(
                f"poisson link overflow: a*x exceeds {_EXP_ARG_MAX:g}"
            )
        return np.exp(ax)

    def g(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == GAUSSIAN:
            return 0.5 * self.sigma2 * x * x
        if self.kind == BERNOULLI:
            # stable log(1 + exp(x)) for any sign and magnitude of x
            return np.logaddexp(0.0, x)
        return self._exp_ax(x)

    def gprime(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == GAUSSIAN:
            return self.sigma2 * x
        if self.kind == BERNOULLI:
            return expit(x)
        return self.a * self._exp_ax(x)

    def gsecond(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == GAUSSIAN:
            return np.full_like(x, self.sigma2)
        if self.kind == BERNOULLI:
            p = expit(x)
            return p * (1.0 - p)
        return self.a * self.a * self._exp_ax(x)


class ObservedCells(NamedTuple):
    """A frame's observed cells grouped by link; every array read-only.

    ``cells`` holds flat row-major indices i * n_cols + j into a frame of
    ``shape`` and ``y`` the frame's values there.  Each distinct link with an
    observed cell, in order of first use, owns one slice of both, its cells
    in row-major order: ``parts`` holds the (link, slice) pairs.
    """

    cells: np.ndarray
    y: np.ndarray
    parts: tuple
    shape: tuple


def _group_cells(frame, links) -> ObservedCells:
    """Build the gather; each link's cells are the mask's nonzeros in that
    link's columns, so no per-cell owner array is formed."""
    groups, parts, start = [], [], 0
    for link in dict.fromkeys(links):
        own = np.flatnonzero(frame.mask & [other == link for other in links])
        if own.size:
            groups.append(own)
            parts.append((link, slice(start, start + own.size)))
            start += own.size
    cells = np.concatenate(groups)
    y = frame.values.take(cells)
    cells.setflags(write=False)
    y.setflags(write=False)
    return ObservedCells(cells, y, tuple(parts), frame.shape)


def observed(frame, links) -> ObservedCells:
    """The gather of ``frame``'s observed cells under ``links``, built on
    first use and cached on the frame."""
    if len(links) != frame.n_cols:
        raise ShapeMismatchError(
            f"{len(links)} links given for {frame.n_cols} columns"
        )
    cache, key = frame.observed_by_links, tuple(links)
    obs = cache.get(key)
    if obs is None:
        obs = cache[key] = _group_cells(frame, key)
    return obs


def _by_link(x, obs):
    """Yield (link, flat cells, x there, y there) for each part of the
    gather ``obs``; ``x`` is the iterate, the values at ``obs.cells``."""
    x = np.asarray(x, dtype=float)
    if x.shape != obs.cells.shape:
        raise ShapeMismatchError(
            f"observed-cell vector shape {x.shape} != {obs.cells.shape}"
        )
    if not np.isfinite(x).all():
        raise InvalidInputError("parameter matrix contains non-finite entries")
    for link, part in obs.parts:
        yield link, obs.cells[part], x[part], obs.y[part]


def _scatter(obs, parts):
    """A zero matrix of the frame's shape holding each (flat cells, values)."""
    out = np.zeros(obs.shape[0] * obs.shape[1])
    for cells, vals in parts:
        out[cells] = vals
    return out.reshape(obs.shape)


def quasi_loglik_neg(x, obs) -> float:
    """Negative quasi-log-likelihood summed over observed entries."""
    total = 0.0
    for link, _, xo, yo in _by_link(x, obs):
        total += float(np.sum(-yo * xo + link.g(xo)))
    return total


def gradient(x, obs) -> np.ndarray:
    """Entrywise gradient of the quasi-log-likelihood; zero where unobserved."""
    return _scatter(obs, [
        (cells, -yo + link.gprime(xo)) for link, cells, xo, yo in _by_link(x, obs)
    ])


def curvature_weights(x, obs) -> np.ndarray:
    """Per-entry quadratic-model weights g''(x)/2; zero where unobserved."""
    return _scatter(obs, [
        (cells, 0.5 * link.gsecond(xo)) for link, cells, xo, _ in _by_link(x, obs)
    ])


def working_responses(x, obs) -> np.ndarray:
    """Newton-style targets (Y - g'(x)) / g''(x); zero where unobserved.

    Unobserved entries always carry zero weight downstream, so the value
    chosen there is inert.
    """
    parts = []
    for link, cells, xo, yo in _by_link(x, obs):
        curv = link.gsecond(xo)
        if np.any(curv < _CURVATURE_FLOOR):
            bad = divmod(int(cells[np.argmin(curv)]), obs.shape[1])
            raise NumericDegeneracyError(
                f"curvature underflow below {_CURVATURE_FLOOR:g} at entry "
                f"({bad[0]}, {bad[1]})",
                entry=bad,
            )
        parts.append((cells, (yo - link.gprime(xo)) / curv))
    return _scatter(obs, parts)


def predicted_means(x, links) -> np.ndarray:
    """Map a natural-parameter matrix to per-entry means, column by column."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(links):
        raise ShapeMismatchError(
            f"matrix with {x.shape} columns does not match {len(links)} links"
        )
    out = np.empty_like(x)
    for j, link in enumerate(links):
        out[:, j] = link.gprime(x[:, j])
    return out
