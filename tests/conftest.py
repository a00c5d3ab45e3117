"""Shared builders for randomized test instances."""

import numpy as np
import pytest
from scipy.special import expit

from splr import expfam, subsolvers
from splr.dictionary import (
    CorruptionsDictionary,
    CustomDictionary,
    GroupEffectsDictionary,
    RowColumnDictionary,
    equal_group_assignment,
)
from splr.expfam import LinkSpec
from splr.frame import ColumnType, MixedDataFrame

KIND_TO_TYPE = {
    "gaussian": ColumnType.NUMERIC,
    "bernoulli": ColumnType.BINARY,
    "poisson": ColumnType.COUNT,
}


def make_links(kinds):
    out = []
    for kind in kinds:
        if kind == "gaussian":
            out.append(LinkSpec.gaussian())
        elif kind == "bernoulli":
            out.append(LinkSpec.bernoulli())
        else:
            out.append(LinkSpec.poisson())
    return out


def sample_observations(rng, x_true, kinds):
    """Draw one matrix of observations at natural parameters ``x_true``."""
    m1, m2 = x_true.shape
    values = np.empty((m1, m2))
    for j, kind in enumerate(kinds):
        if kind == "gaussian":
            values[:, j] = rng.normal(x_true[:, j], 1.0)
        elif kind == "bernoulli":
            values[:, j] = rng.binomial(1, expit(x_true[:, j]))
        else:
            values[:, j] = rng.poisson(np.exp(x_true[:, j]))
    return values


def make_mixed_instance(seed, m1=6, m2=5, p_obs=0.7, kinds=None, x_scale=0.8):
    """Random frame + links + a random parameter matrix for gradient checks."""
    rng = np.random.default_rng(seed)
    if kinds is None:
        base = ["gaussian", "bernoulli", "poisson"]
        kinds = [base[j % 3] for j in range(m2)]
    x_true = x_scale * rng.standard_normal((m1, m2))
    values = sample_observations(rng, x_true, kinds)
    mask = rng.random((m1, m2)) < p_obs
    if not mask.any():
        mask[0, 0] = True
    names = tuple(f"c{j}" for j in range(m2))
    types = tuple(KIND_TO_TYPE[k] for k in kinds)
    frame = MixedDataFrame(names, types, values, mask)
    links = make_links(kinds)
    x_eval = x_scale * rng.standard_normal((m1, m2))
    return frame, links, x_eval


def at_observed(fn, x, frame, links):
    """The ``expfam`` link function ``fn`` at the parameter matrix ``x``,
    gathered as ``x.take(obs.cells)`` with ``obs = observed(frame, links)``."""
    obs = expfam.observed(frame, links)
    return fn(np.asarray(x, dtype=float).take(obs.cells), obs)


def make_dictionary(kind, shape, rng=None):
    m1, m2 = shape
    if kind == "groups":
        h = min(3, m1)
        return GroupEffectsDictionary(equal_group_assignment(m1, h), shape)
    if kind == "rowcol":
        return RowColumnDictionary(shape)
    if kind == "corruptions":
        rng = rng or np.random.default_rng(0)
        n = max(2, (m1 * m2) // 4)
        flat = rng.choice(m1 * m2, size=n, replace=False)
        return CorruptionsDictionary([(int(f) // m2, int(f) % m2) for f in flat], shape)
    if kind == "custom":
        rng = rng or np.random.default_rng(0)
        atoms = []
        for _ in range(4):
            n_cells = rng.integers(1, 4)
            cells = rng.choice(m1 * m2, size=n_cells, replace=False)
            atoms.append(
                [
                    (int(f) // m2, int(f) % m2, float(rng.uniform(-1, 1)))
                    for f in cells
                ]
            )
        return CustomDictionary(atoms, shape)
    raise ValueError(kind)


def lone_cell_frame(m1=10, m2=3):
    """Fully observed but for column 0, which has only its first cell."""
    mask = np.ones((m1, m2), dtype=bool)
    mask[1:, 0] = False
    values = np.arange(m1 * m2, dtype=float).reshape(m1, m2)
    return MixedDataFrame(
        tuple(f"c{j}" for j in range(m2)), (ColumnType.NUMERIC,) * m2,
        values, mask,
    )


def record_results(monkeypatch, owner, name):
    """Every result of ``owner.name`` for the rest of the test, in call order."""
    results, original = [], getattr(owner, name)
    monkeypatch.setattr(
        owner, name, lambda *a, **k: results.append(original(*a, **k)) or results[-1]
    )
    return results


def seed_whose_first_draw_empties(frame, holdout_frac, shift=0):
    """Smallest seed whose first plain draw (from seed + shift) holds out
    column 0's only observed cell."""
    coords = np.argwhere(frame.mask)
    n_hold = max(1, int(round(holdout_frac * len(coords))))
    for seed in range(1000):
        rng = np.random.default_rng(seed + shift)
        held = coords[rng.choice(len(coords), size=n_hold, replace=False)]
        if np.any(held[:, 1] == 0):
            return seed
    raise AssertionError("no seed empties column 0")


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _svt(a, t):
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s = np.maximum(s - t, 0.0)
    return (u * s) @ vt


def gaussian_prox_gradient_reference(frame, links, dictionary, lam1, lam2,
                                     n_iter=4000):
    """Accelerated proximal gradient on the penalized Gaussian objective.

    Self-contained reference minimizer (gradient, prox maps, and Lipschitz
    bound all written out here).  Returns the best objective value seen.
    """
    sig = np.array([link.sigma2 for link in links])
    mask = frame.mask.astype(float)
    y = frame.y_filled
    m1, m2 = frame.shape
    n = dictionary.n_atoms

    design = np.zeros((m1 * m2, n))
    for k in range(n):
        unit = np.zeros(n)
        unit[k] = 1.0
        design[:, k] = dictionary.apply(unit).ravel()
    stacked = np.hstack([design, np.eye(m1 * m2)])
    lip = sig.max() * np.linalg.norm(stacked, 2) ** 2
    step = 1.0 / lip

    def objective(alpha, low):
        x = dictionary.apply(alpha) + low
        fit = np.sum(mask * (-y * x + 0.5 * sig[None, :] * x * x))
        nuc = np.linalg.svd(low, compute_uv=False).sum()
        return float(fit + lam1 * nuc + lam2 * np.abs(alpha).sum())

    alpha = np.zeros(n)
    low = np.zeros((m1, m2))
    ext_a, ext_l = alpha.copy(), low.copy()
    t_mom = 1.0
    best = objective(alpha, low)
    prev = best
    for _ in range(n_iter):
        x = dictionary.apply(ext_a) + ext_l
        grad_x = mask * (sig[None, :] * x - y)
        new_a = _soft(ext_a - step * dictionary.adjoint(grad_x), step * lam2)
        new_l = _svt(ext_l - step * grad_x, step * lam1)
        val = objective(new_a, new_l)
        if val > prev:  # adaptive restart keeps the sequence monotone enough
            ext_a, ext_l, t_mom = new_a.copy(), new_l.copy(), 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            ext_a = new_a + ((t_mom - 1.0) / t_next) * (new_a - alpha)
            ext_l = new_l + ((t_mom - 1.0) / t_next) * (new_l - low)
            t_mom = t_next
        alpha, low, prev = new_a, new_l, val
        if val < best:
            best = val
    return best


def reference_accelerated_em(prob, tol, max_iter, init=None):
    """The accelerated EM as a plain loop with fresh arrays each iteration.

    FISTA from t = 1: each step blends the targets into the point
    y = x_k + beta (x_k - x_{k-1}), beta = (t - 1) / t_next, as
    y + (targets - y) o w / max w and soft-thresholds at
    penalty / (2 max w).  An extrapolated step whose objective is above the
    current one is dropped and t reset to 1, so the next step is the plain
    one from x_k; an accepted one with (y - x_new) . (x_new - x_k) > 0 also
    resets t to 1.  Each SVT counts as an iteration, and the loop stops on an
    accepted step's ||x_new - y|| / max(1, ||x_new||).  The arithmetic is the
    solver's, so the two agree bit for bit.
    Returns (iterate, nuclear norm, iterations, converged).
    """
    weights, targets = prob.weights, prob.targets
    w_max = float(weights.max())
    threshold = prob.penalty / (2.0 * w_max)

    def objective(x, nuc):
        return float(np.sum((targets - x) ** 2 * weights) + prob.penalty * nuc)

    if init is None:
        current, nuc = np.zeros(targets.shape), 0.0
    else:
        current = np.array(init, dtype=float)
        nuc = float(np.linalg.svd(current, compute_uv=False).sum())
    previous = current
    obj = objective(current, nuc)
    t = 1.0
    for n_iter in range(1, max_iter + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        point = current + (current - previous) * beta if beta > 0 else current
        blended = (targets - point) * weights / w_max + point
        new, new_nuc, new_sq = subsolvers._svt_with_diagnostics(blended, threshold)
        uphill = beta > 0 and np.vdot(point - new, new) > np.vdot(point - new, current)
        new_obj = objective(new, new_nuc)
        if beta > 0 and new_obj > obj:
            t = 1.0
            continue
        rel_change = np.linalg.norm(new - point) / max(1.0, np.sqrt(new_sq))
        previous, current, nuc, obj = current, new, new_nuc, new_obj
        t = 1.0 if uphill else t_next
        if rel_change <= tol:
            return current, nuc, n_iter, True
    return current, nuc, max_iter, False


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
