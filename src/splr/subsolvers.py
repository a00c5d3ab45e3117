"""Inner proximal solvers: weighted Lasso and weighted nuclear-norm problems.

The weighted Lasso

    min_a  sum_ij W_ij (Z_ij - apply(a)_ij)^2 + nu * ||a - anchor||_2^2
           + lam2 * ||a||_1

is solved by cyclic block coordinate descent: the atoms, in order, split into
runs whose supports are pairwise disjoint, and one vectorized soft-threshold
per run gives the exact per-atom cyclic updates.  The ridge term makes every
coordinate update strictly convex regardless of the atom supports.

The weighted nuclear problem

    min_L  sum_ij W_ij (Z_ij - L_ij)^2 + lam1 * ||L||_*   (W_ij >= 0, max W > 0)

is solved by EM-style iterations that treat the weights, rescaled into [0,1],
as observation frequencies: blend the target into a point and soft-threshold
the singular values.  The plain step blends into the current iterate; under
uniform weights one such step is the exact closed-form solution, and under
0/1 weights (an observation mask) it is a soft-impute step (Mazumder, Hastie
& Tibshirani, 2010).  The steps after the first blend into the FISTA
extrapolation of the last two iterates (Beck & Teboulle, 2009); a step that
raises the objective is dropped, the momentum resets, and the plain step
from the current iterate follows (adaptive restart, O'Donoghue & Candes,
2015), so the accepted iterates descend.  The momentum also resets after an
accepted step that moved against the EM's step from its point (the same
paper's gradient test), which spares most dropped steps.  The EM stops when
an accepted step's gradient mapping ||x_new - y|| is small relative to the
iterate: the step from its point, which unlike the change from the last
iterate carries no momentum.  Its caller sets the tolerance; the outer
solver runs early EMs loosely (see ``bcgd``).  Besides the problem's weights
and targets the EM holds three full-size buffers.

Singular value thresholding takes one eigendecomposition of the short-side
Gram matrix instead of an SVD, and a LAPACK SVD where the threshold is too
small for that to be accurate (see ``_svt_with_diagnostics``).  numpy and
scipy bundle one OpenBLAS each, with a thread pool each.  From a short side
of 100 the SVT stays in numpy's pool; below it scipy's LAPACK, which stays on
one thread there, does the eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .dictionary import Dictionary
from .exceptions import (
    ConvergenceError,
    InternalConsistencyError,
    InvalidInputError,
    ShapeMismatchError,
)


def _full_svd(a):
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")


def nuclear_norm(a) -> float:
    """Sum of singular values."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix has non-finite entries")
    return float(np.linalg.svd(a, compute_uv=False).sum())


# largest error of the Gram SVT, relative to the input's spectral norm
_GRAM_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
# smallest short side whose Gram matrix numpy's eigh decomposes
_NUMPY_EIGH_MIN_N = 100


def _svt_with_diagnostics(a, lam, out=None):
    """Singular value thresholding from the short-side Gram matrix.

    With B the input or its transpose, whichever has n = min(m1, m2) columns,
    SVT(B) = B h(B^T B) for h(x) = max(0, 1 - lam / sqrt(x)): one n x n
    eigendecomposition V diag(x) V^T of G = B^T B gives the output
    (B V_k) diag(1 - lam / sqrt(x_k)) V_k^T over the eigenpairs with
    x_k > lam^2, and the shrink sum sum_k (sqrt(x_k) - lam).  That is
    m n^2 + O(n^3) flops against about 14 m n^2 + 8 n^3 for a thin SVD.

    Only the kept eigenpairs enter the output, but divide and conquer
    (LAPACK ``dsyevd``) computes all of them: numpy's ``eigh`` from n = 100,
    in the pool of the numpy OpenBLAS that forms the products, and scipy's
    below, whose OpenBLAS is a second pool.  Process CPU over wall time of
    the decomposition at 2 threads on 2 cores: scipy's 1.0 up to n = 60,
    1.8-2.0 from n = 70; numpy's 1.9-2.0 from n = 30.  So scipy's keeps one
    thread at study scale (n = 30 and 40), but from n = 100 it would alternate
    with numpy's products every EM iteration, each pool's spinning workers
    slowing the other's.

    Accuracy: forming G and decomposing it err by some E with ||E||_F about
    eps sqrt(n) sigma_1^2.  To first order the output moves by
    B Dh(G)[E], whose entries in the singular bases are
    sigma_i h[sigma_i^2, sigma_j^2] E_ij, and sigma_i |h[x_i, x_j]| <= 1 / lam
    for every pair (h[., .] the divided difference of h), so the output
    moves by about eps sqrt(n) sigma_1^2 / lam: a relative error of
    eps sqrt(n) sigma_1 / lam.  Where that exceeds ``_GRAM_RTOL`` -- lam below
    eps sqrt(n) sigma_1 / 1e-12, about sigma_1 / 800 at n = 30, the zero
    threshold included -- a LAPACK SVD does the thresholding instead.  (The
    Lipschitz constant of h alone, 1 / (2 lam^2), gives the pessimistic
    eps sigma_1 (sigma_1 / lam)^2, which ignores the factor B.)  The rule
    reads the largest kept eigenvalue: when none is kept, sigma_1 <= lam and
    the rule could not fire below n = 2e7 anyway.

    The output is written into ``out`` when given (C-contiguous, the input's
    shape).  ``out`` may be the input itself: every product that reads the
    input is formed before the output is written.  Returns (thresholded
    matrix, shrink sum = its nuclear norm, sum of squared shrunk values = its
    squared Frobenius norm).
    """
    tall = a.shape[0] >= a.shape[1]
    gram = a.T @ a if tall else a @ a.T
    n = len(gram)
    if n >= _NUMPY_EIGH_MIN_N:
        evals, evecs = np.linalg.eigh(gram)
    else:
        evals, evecs = scipy.linalg.eigh(
            gram, driver="evd", overwrite_a=True, check_finite=False
        )
    # eigenvalues ascend, so the kept ones are a suffix
    first = int(np.searchsorted(evals, lam * lam, side="right"))
    evals, evecs = evals[first:], evecs[:, first:]
    if evals.size and lam * _GRAM_RTOL < _EPS * np.sqrt(n * evals[-1]):
        u, s, vt = _full_svd(a)
        shrunk = np.maximum(s - lam, 0.0)
        keep = shrunk > 0
        out = np.matmul(u[:, keep] * shrunk[keep], vt[keep], out=out)
        return out, float(shrunk.sum()), float(shrunk @ shrunk)
    roots = np.sqrt(evals)
    shrunk = roots - lam
    gain = 1.0 - lam / roots
    if tall:
        out = np.matmul((a @ evecs) * gain, evecs.T, out=out)
    else:
        out = np.matmul(evecs * gain, evecs.T @ a, out=out)
    return out, float(shrunk.sum()), float(shrunk @ shrunk)


def soft_threshold_singular_values(a, lam: float):
    """Proximal map of the nuclear norm: shrink singular values by ``lam``."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidInputError("cannot take an SVD of non-finite input")
    if not lam >= 0:
        raise InvalidInputError("threshold must be >= 0")
    return _svt_with_diagnostics(a, lam)[0]


def _check_finite(**arrays):
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise InvalidInputError(f"{name} has non-finite entries")


@dataclass
class WeightedLassoProblem:
    dictionary: Dictionary
    weights: np.ndarray
    targets: np.ndarray
    ridge: float
    anchor: np.ndarray
    penalty: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        self.anchor = np.asarray(self.anchor, dtype=float)
        shape = self.dictionary.shape
        if self.weights.shape != shape or self.targets.shape != shape:
            raise ShapeMismatchError("weights/targets must match the dictionary shape")
        if self.anchor.shape != (self.dictionary.n_atoms,):
            raise ShapeMismatchError("anchor length must equal the number of atoms")
        _check_finite(weights=self.weights, targets=self.targets, anchor=self.anchor)
        if np.any(self.weights < 0):
            raise InvalidInputError("weights must be nonnegative")
        if not self.ridge > 0:
            raise InvalidInputError("ridge must be strictly positive")
        if not 0 <= self.penalty < np.inf:
            raise InvalidInputError("penalty must be finite and >= 0")


def _lasso_residual(prob: WeightedLassoProblem, alpha) -> np.ndarray:
    """targets - apply(alpha) as one fresh full-size array."""
    resid = prob.dictionary.apply(alpha)
    return np.subtract(prob.targets, resid, out=resid)


def weighted_lasso_objective(prob: WeightedLassoProblem, alpha) -> float:
    alpha = np.asarray(alpha, dtype=float)
    sq = _lasso_residual(prob, alpha)
    np.square(sq, out=sq)
    sq *= prob.weights
    return float(
        np.sum(sq)
        + prob.ridge * np.sum((alpha - prob.anchor) ** 2)
        + prob.penalty * np.abs(alpha).sum()
    )


def weighted_lasso_kkt_residual(prob: WeightedLassoProblem, alpha) -> float:
    """Largest minimum-norm subgradient entry of the objective at ``alpha``."""
    alpha = np.asarray(alpha, dtype=float)
    weighted_resid = _lasso_residual(prob, alpha)
    weighted_resid *= prob.weights
    grad = (
        -2.0 * prob.dictionary.adjoint(weighted_resid)
        + 2.0 * prob.ridge * (alpha - prob.anchor)
    )
    lam = prob.penalty
    kkt = np.where(
        alpha != 0.0,
        np.abs(grad + lam * np.sign(alpha)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )
    return float(kkt.max()) if kkt.size else 0.0


def _run_blocks(runs, run_ptr, owner):
    """One (atoms, entries, owner within atoms, atom count) block per run."""
    return [
        (slice(start, stop), slice(e0, e1),
         owner[e0:e1] - start if start else owner[e0:e1], stop - start)
        for (start, stop), e0, e1 in zip(runs, run_ptr[:-1], run_ptr[1:])
    ]


def solve_weighted_lasso(
    prob: WeightedLassoProblem, tol: float = 1e-8, max_iter: int = 1000
) -> np.ndarray:
    """Cyclic block coordinate descent, in full sweeps until the KKT stop.

    Each sweep visits the atoms in order, one run (see ``AtomSupports``) at a
    time.  The atoms of a run share no cell, so none of their cyclic updates
    reads a residual cell that another one writes, and one vectorized
    soft-threshold per run gives the per-atom cyclic sweep.  Only entries of
    positive weight take part.

    Returns the minimizer to KKT residual <= tol * max(1, ||2 A^T (W o Z)||_inf),
    the data term's gradient scale at zero (its rounding sets the floor the
    residual can reach), checked after every sweep; raises ConvergenceError
    (carrying the final residual) if ``max_iter`` sweeps are exhausted.
    """
    if not tol > 0:
        raise InvalidInputError("tol must be > 0")
    sup = prob.dictionary.atom_supports
    n = prob.dictionary.n_atoms
    cells, vals, owner, run_ptr = sup.cells, sup.vals, sup.owner, sup.run_ptr
    wv = prob.weights.ravel()[cells]
    positive = np.flatnonzero(wv > 0)
    if positive.size < cells.size:
        cells, vals, owner, wv = (a[positive] for a in (cells, vals, owner, wv))
        run_ptr = np.searchsorted(positive, run_ptr)
    wv *= vals
    quad = np.bincount(owner, wv * vals, minlength=n) + prob.ridge  # > 0
    nu, lam, anchor = prob.ridge, prob.penalty, prob.anchor
    grad_scale = 2.0 * np.abs(
        np.bincount(owner, wv * prob.targets.ravel()[cells], minlength=n)
    )
    kkt_tol = tol * max(1.0, float(grad_scale.max(initial=0.0)))

    alpha = prob.anchor.astype(float).copy()
    resid = _lasso_residual(prob, alpha).ravel()
    obj = weighted_lasso_objective(prob, alpha)

    blocks = _run_blocks(sup.runs, run_ptr, owner)
    kkt = np.inf
    for _ in range(max_iter):
        for atoms, entries, own, size in blocks:
            at = cells[entries]
            dots = np.bincount(own, wv[entries] * resid[at], minlength=size)
            old, q = alpha[atoms], quad[atoms]
            b = dots + old * (q - nu) + nu * anchor[atoms]
            new = np.sign(b) * np.maximum(np.abs(b) - lam / 2.0, 0.0) / q
            resid[at] -= (new - old)[own] * vals[entries]
            alpha[atoms] = new
        new_obj = weighted_lasso_objective(prob, alpha)
        if new_obj > obj + 1e-9 * max(1.0, abs(obj)):
            raise InternalConsistencyError(
                f"coordinate descent increased the objective: {obj} -> {new_obj}"
            )
        obj = new_obj
        kkt = weighted_lasso_kkt_residual(prob, alpha)
        if kkt <= kkt_tol:
            return alpha
    raise ConvergenceError(
        f"weighted lasso did not reach KKT residual {kkt_tol:g} in {max_iter} sweeps "
        f"(final residual {kkt:.3e})",
        residual=kkt,
    )


@dataclass
class WeightedNuclearProblem:
    weights: np.ndarray
    targets: np.ndarray
    penalty: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.weights.shape != self.targets.shape or self.weights.ndim != 2:
            raise ShapeMismatchError("weights and targets must be equal 2-d shapes")
        _check_finite(weights=self.weights, targets=self.targets)
        if np.any(self.weights < 0) or not self.weights.max(initial=0.0) > 0:
            raise InvalidInputError(
                "nuclear-problem weights must be >= 0 with a positive maximum"
            )
        if not 0 <= self.penalty < np.inf:
            raise InvalidInputError("penalty must be finite and >= 0")


def weighted_nuclear_objective(
    prob: WeightedNuclearProblem, mat, nuc=None, out=None
) -> float:
    """Objective at ``mat``; ``nuc``, when known, stands for its nuclear norm.

    The one full-size temporary is ``out`` when given (overwritten), else a
    fresh array.
    """
    if nuc is None:
        nuc = nuclear_norm(mat)
    sq = np.subtract(prob.targets, mat, out=out)
    np.square(sq, out=sq)
    sq *= prob.weights
    return float(np.sum(sq) + prob.penalty * nuc)


class NuclearSolve(NamedTuple):
    """EM result: the iterate, its nuclear norm (the last shrink sum), the
    iterations run, whether the stopping rule was met before the cap, and the
    SVT threshold.  The shrink sum plus the threshold bounds the spectral
    norm of the SVT input that gave the iterate, when it kept a value (else
    the iterate and its shrink sum are exact zeros)."""

    matrix: np.ndarray
    nuclear: float
    n_iter: int
    converged: bool
    threshold: float


def solve_weighted_nuclear(
    prob: WeightedNuclearProblem,
    tol: float = 1e-6,
    max_iter: int = 100,
    init: np.ndarray | None = None,
    init_nuclear: float | None = None,
) -> NuclearSolve:
    """Accelerated EM soft-impute iterations for the weighted nuclear-norm problem.

    Weights are rescaled internally into omega = w / max w in [0,1] (the
    penalty threshold is rescaled by the same factor, so the solved problem
    is unchanged).  An iteration blends the targets into a point y and
    soft-thresholds: x_new = SVT(y + omega o (targets - y)).  The point is
    the FISTA extrapolation y = x_k + beta_k (x_k - x_{k-1}), with
    beta_k = (t_k - 1) / t_{k+1} and t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2
    (Beck & Teboulle, 2009).  At t_k = 1, beta_k = 0 and y = x_k: the plain
    EM step, a soft-impute step under 0/1 weights.  t starts at 1, so the
    first step has no momentum and under uniform weights it is the exact
    solution.

    Adaptive restart (O'Donoghue & Candes, 2015): an extrapolated step whose
    objective is above the current one is dropped, t goes back to 1, and the
    next iteration takes the plain step from x_k, which cannot raise the
    objective.  So every accepted iterate descends; a plain step that raises
    the objective beyond rounding raises ``InternalConsistencyError``.  Each
    SVT counts as an iteration, a dropped one included, so ``n_iter`` and
    ``max_iter`` count SVTs.  The same paper's gradient test saves most of
    those dropped SVTs: an accepted extrapolated step with
    (y - x_new) . (x_new - x_k) > 0 moved against the EM's own step from y,
    so t goes back to 1 there too and the next step is plain.

    Stops when an accepted step's gradient mapping, ||x_new - y|| (the step
    from its point, not from x_k, so it carries no momentum), drops to
    ``tol`` * max(1, ||x_new||_F); after a plain step y = x_k and this is
    the iterate's own change.  At the ``max_iter`` cap the current iterate is
    returned with ``converged`` false, descent up to that point still
    guaranteed.
    ``init_nuclear``, when given, is taken as the nuclear norm of ``init``
    instead of recomputing it.

    The loop holds three full-size buffers and allocates no other
    full-size array: the iterate x_k; ``previous``, which holds
    x_{k-1}, becomes the point y in place, then holds y - x_new, the
    objective's temporary and, after a plain step, the change; and
    ``spare``, which holds the blend until the SVT overwrites it with x_new.
    The copy of ``init`` is the first iterate, so no caller array is written.
    """
    if not tol > 0:
        raise InvalidInputError("tol must be > 0")
    if init is None:
        current, nuc = np.zeros(prob.targets.shape), 0.0
    else:
        current = np.array(init, dtype=float, order="C")
        if current.shape != prob.targets.shape:
            raise ShapeMismatchError("init must match the target shape")
        _check_finite(init=current)
        if init_nuclear is None:
            nuc = nuclear_norm(current)
        elif np.isfinite(init_nuclear) and init_nuclear >= 0:
            nuc = float(init_nuclear)
        else:
            raise InvalidInputError("init_nuclear must be finite and >= 0")
    w_max = float(prob.weights.max())
    threshold = prob.penalty / (2.0 * w_max)
    previous, spare = np.empty(current.shape), np.empty(current.shape)

    obj = weighted_nuclear_objective(prob, current, nuc, out=spare)
    t = 1.0
    for n_iter in range(1, max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        point = current
        if beta > 0:  # x_{k-1} becomes the point, in place
            point = np.subtract(current, previous, out=previous)
            point *= beta
            point += current
        blended = np.subtract(prob.targets, point, out=spare)
        blended *= prob.weights
        blended /= w_max
        blended += point
        new, new_nuc, new_sq = _svt_with_diagnostics(blended, threshold, out=blended)
        uphill = False
        if beta > 0:  # (y - x_new) . (x_new - x_k) > 0
            gap = np.subtract(point, new, out=previous)
            uphill = float(np.vdot(gap, new)) > float(np.vdot(gap, current))
            step = float(np.linalg.norm(gap))
        new_obj = weighted_nuclear_objective(prob, new, new_nuc, out=previous)
        if beta > 0 and new_obj > obj:
            t = 1.0  # restart: the next iteration steps plainly from x_k
            continue
        if new_obj > obj + 1e-9 * max(1.0, abs(obj)):
            raise InternalConsistencyError(
                f"EM step increased the objective: {obj} -> {new_obj}"
            )
        if beta == 0:  # the point is x_k
            step = float(np.linalg.norm(np.subtract(new, current, out=previous)))
        previous, current, spare = current, new, previous
        nuc, obj = new_nuc, new_obj
        t = 1.0 if uphill else t_next
        if step / max(1.0, np.sqrt(new_sq)) <= tol:
            return NuclearSolve(current, nuc, n_iter, True, threshold)
    return NuclearSolve(current, nuc, max_iter, False, threshold)
