"""Exponential-family links and the masked quasi-likelihood.

Each column of a mixed data frame carries a convex link function ``g`` whose
derivative maps natural parameters to means.  The data-fitting term used by
the solver is the negative quasi-log-likelihood

    sum over observed (i, j) of  -Y_ij * X_ij + g_j(X_ij),

together with its entrywise gradient and curvature.  Every quantity here
works over one gather: the frame's flat row-major indices of its observed
cells, split by distinct link, with the parameters and the data read at those
cells.  Links are only ever evaluated there, so unobserved entries contribute
exactly zero and masked cells can hold arbitrary parameter values without
affecting results.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.kind == POISSON and not (np.isfinite(self.a) and self.a != 0):
            raise InvalidInputError("poisson rate-scale a must be finite and nonzero")

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


def _check_inputs(x, frame, links):
    x = np.asarray(x, dtype=float)
    if x.shape != (frame.n_rows, frame.n_cols):
        raise ShapeMismatchError(
            f"parameter matrix shape {x.shape} != frame shape "
            f"{(frame.n_rows, frame.n_cols)}"
        )
    if len(links) != frame.n_cols:
        raise ShapeMismatchError(
            f"{len(links)} links given for {frame.n_cols} columns"
        )
    if not np.isfinite(x).all():
        raise InvalidInputError("parameter matrix contains non-finite entries")
    return x


def _observed_by_link(x, frame, links):
    """Yield (link, flat cells, x there, y there) once per distinct link
    with an observed cell: links in order of first use, each link's cells
    in row-major order."""
    x = _check_inputs(x, frame, links)
    cells = frame.observed_cells
    distinct = {}
    codes = np.array([distinct.setdefault(link, len(distinct)) for link in links])
    if len(distinct) == 1:
        yield links[0], cells, x.take(cells), frame.values.take(cells)
        return
    owner = codes[cells % frame.n_cols]
    for link, code in distinct.items():
        own = cells[owner == code]
        if own.size:
            yield link, own, x.take(own), frame.values.take(own)


def _scatter(frame, parts):
    """A zero matrix of the frame's shape holding each (flat cells, values)."""
    out = np.zeros(frame.values.size)
    for cells, vals in parts:
        out[cells] = vals
    return out.reshape(frame.shape)


def quasi_loglik_neg(x, frame, links) -> float:
    """Negative quasi-log-likelihood summed over observed entries."""
    total = 0.0
    for link, _, xo, yo in _observed_by_link(x, frame, links):
        total += float(np.sum(-yo * xo + link.g(xo)))
    return total


def gradient(x, frame, links) -> np.ndarray:
    """Entrywise gradient of the quasi-log-likelihood; zero where unobserved."""
    return _scatter(frame, [
        (cells, -yo + link.gprime(xo))
        for link, cells, xo, yo in _observed_by_link(x, frame, links)
    ])


def curvature_weights(x, frame, links) -> np.ndarray:
    """Per-entry quadratic-model weights g''(x)/2; zero where unobserved."""
    return _scatter(frame, [
        (cells, 0.5 * link.gsecond(xo))
        for link, cells, xo, _ in _observed_by_link(x, frame, links)
    ])


def working_responses(x, frame, links) -> np.ndarray:
    """Newton-style targets (Y - g'(x)) / g''(x); zero where unobserved.

    Unobserved entries always carry zero weight downstream, so the value
    chosen there is inert.
    """
    parts = []
    for link, cells, xo, yo in _observed_by_link(x, frame, links):
        curv = link.gsecond(xo)
        if np.any(curv < _CURVATURE_FLOOR):
            bad = divmod(int(cells[np.argmin(curv)]), frame.n_cols)
            raise NumericDegeneracyError(
                f"curvature underflow below {_CURVATURE_FLOOR:g} at entry "
                f"({bad[0]}, {bad[1]})",
                entry=bad,
            )
        parts.append((cells, (yo - link.gprime(xo)) / curv))
    return _scatter(frame, parts)


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
