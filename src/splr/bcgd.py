"""Outer solver: alternating proximal block updates with Armijo backtracking.

The estimator minimizes

    F(alpha, L) = quasi_loglik_neg(apply(alpha) + L)
                  + lam1 * ||L||_*  +  lam2 * ||alpha||_1.

Each outer iteration builds a strictly convex local quadratic model of the
data-fitting term (curvature weights w and working responses Z at the current
parameter matrix, plus a ridge ``nu``), solves the model's alpha block as a
weighted Lasso and its L block as a weighted nuclear-norm problem, and then
backtracks each block's step length by one Armijo rule (Tseng & Yun, 2009)
until the true objective beats a fixed fraction of the model-predicted
decrease (the rule's constants are ``SolverConfig`` class constants, and
``_STALL_FLOOR`` ends a stalled search).  Each trial is a fresh iterate, a
``_Move``'s ``make_state`` at block + t * direction like the first one, so
the parameter matrix and data fit that a step reads never drift from them.
That decrease is strictly negative for a nonzero direction, which makes the
objective trace nonincreasing.  A non-negative one within the rounding error
of its terms is a zero step; a larger one raises ``InternalConsistencyError``.

The L block's model is solved inexactly: its EM stops at a tolerance that
follows the outer loop's progress, the forcing term of inexact proximal
Newton methods (Lee, Sun & Saunders, 2014).  The first L-step's EM stops at
``_EM_TOL_MAX``, each later one at the last outer iteration's relative
objective change, clipped into [``nuclear_tol``, ``_EM_TOL_MAX``], and at
``nuclear_tol`` once that change is down to ``eps_f``.  Any accepted EM
iterate lowers the model, so the predicted decrease stays negative and the
descent argument above is unchanged.  A fit converges only on an outer
iteration whose EM ran at ``nuclear_tol``.

The outer iterates are extrapolated as in Xu & Yin (2013): after an outer
iteration's two block steps from x_{k-1} to x_k, the point
y = x_k + beta_k (x_k - x_{k-1}), a ``_Move`` over both blocks at t = beta_k
from the FISTA sequence (Beck & Teboulle, 2009), replaces x_k when its
objective is below F(x_k), and the momentum restarts when it is not
(O'Donoghue & Candes, 2015).  So the trace stays nonincreasing.  A trial is
made only once an outer iteration's decrease is at least half the one before
it, so only where the block steps crawl (a fast fit keeps the plain path),
and never on the iteration that converges, so a fit ends on a block step.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import expfam
from .dictionary import Dictionary
from .exceptions import (
    FitAbortedError,
    InternalConsistencyError,
    InvalidInputError,
    LineSearchStallError,
    ShapeMismatchError,
    SplrError,
)
from .frame import ColumnType, MixedDataFrame
from .subsolvers import (
    _GRAM_RTOL,
    WeightedLassoProblem,
    WeightedNuclearProblem,
    nuclear_norm,
    solve_weighted_lasso,
    solve_weighted_nuclear,
)

# directions with no numerically meaningful movement are treated as zero
_ZERO_DIRECTION_RTOL = 1e-12
# a step this short moves no iterate of a sane scale; the search gives up
_STALL_FLOOR = 1e-12
_EPS = float(np.finfo(float).eps)
# the loosest EM tolerance of an L-step, and the first outer iteration's
_EM_TOL_MAX = 1e-2
# extrapolate once an outer decrease is at least this share of the one before
_EXTRAPOLATE_RATIO = 0.5
# a fit's reported rank and support: relative singular-value and alpha cut-offs
_RANK_RTOL = 1e-7
_ALPHA_ZERO_TOL = 1e-8


def _number(value, kind) -> bool:
    """Whether ``value`` is a ``kind`` number; a bool (JSON's true) is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverConfig:
    """Penalties, stopping rule, subsolver settings; the rest are constants."""

    tau_init: ClassVar[float] = 1.0
    backtrack: ClassVar[float] = 0.5
    slope: ClassVar[float] = 0.1
    nu: ClassVar[float] = 1e-2
    lasso_max_iter: ClassVar[int] = 1000

    lam1: float
    lam2: float
    eps_f: float = 1e-6
    max_outer: int = 200
    lasso_tol: float = 1e-8
    nuclear_tol: float = 1e-6
    nuclear_max_iter: int = 100

    def __post_init__(self):
        for name in ("lam1", "lam2"):
            value = getattr(self, name)
            if not (_number(value, numbers.Real) and 0 <= value < np.inf):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value}")
        for name in ("eps_f", "lasso_tol", "nuclear_tol"):
            value = getattr(self, name)
            if not (_number(value, numbers.Real) and 0 < value < np.inf):
                raise InvalidInputError(f"{name} must be finite and > 0, got {value}")
        for name in ("max_outer", "nuclear_max_iter"):
            value = getattr(self, name)
            if not (_number(value, numbers.Integral) and value >= 1):
                raise InvalidInputError(f"{name} must be an integer >= 1, got {value}")


@dataclass
class FitState:
    """An iterate with its parameter matrix and data-fit value; built only
    by ``make_state``.

    ``x`` is apply(alpha) + low_rank on the observed cells only: the flat
    vector over ``obs.cells`` (``obs = expfam.observed(frame, links)``) that
    every link evaluation reads.
    """

    alpha: np.ndarray
    low_rank: np.ndarray
    x: np.ndarray
    data_fit: float
    obs: expfam.ObservedCells


@dataclass
class StepResult:
    """A block step's outcome; ``penalty`` is the block's penalty norm at
    ``state``."""

    state: FitState
    tau: float
    model_decrease: float
    penalty: float


class _Reconstruction:
    """``ModelFit.x_hat``: the matrix given for it, or with ``None`` given
    ``dictionary.apply(alpha_hat) + l_hat``, computed on each read.  A fit
    then keeps one dense matrix, not two, however many fits a path holds."""

    def __get__(self, fit, owner=None):
        if fit is None:
            raise AttributeError("x_hat has no default")
        given = fit.__dict__["_x_hat"]
        if given is not None:
            return given
        return fit.dictionary.apply(fit.alpha_hat) + fit.l_hat

    def __set__(self, fit, value):
        fit.__dict__["_x_hat"] = value


@dataclass
class ModelFit:
    """Fitted coefficients, reconstruction, and convergence diagnostics.

    A block that ``fit`` never moved from its ``init`` is a read-only view
    of that init array, so it shares memory with the caller's array.
    """

    alpha_hat: np.ndarray
    l_hat: np.ndarray
    x_hat: np.ndarray = _Reconstruction()  # required; None derives it
    objective_trace: np.ndarray
    step_trace: list
    converged: bool
    n_iter: int
    config: SolverConfig
    wall_time: float
    nuclear_cap_hits: int = 0
    nuclear_iters: int = 0
    extrapolations: int = 0
    dictionary: Dictionary | None = field(default=None, repr=False, compare=False)

    def rank(self) -> int:
        svals = np.linalg.svd(self.l_hat, compute_uv=False)
        if svals.size == 0 or svals[0] == 0.0:
            return 0
        return int(np.sum(svals > _RANK_RTOL * svals[0]))

    def alpha_nonzeros(self) -> int:
        return int(np.sum(np.abs(self.alpha_hat) > _ALPHA_ZERO_TOL))

    def report(self) -> dict:
        cfg = asdict(self.config)
        return {
            "config": cfg,
            "objective_trace": [float(v) for v in self.objective_trace],
            "step_trace": [[float(a), float(b)] for a, b in self.step_trace],
            "converged": bool(self.converged),
            "n_iter": int(self.n_iter),
            "rank": self.rank(),
            "alpha_nonzeros": self.alpha_nonzeros(),
            "wall_time_s": float(self.wall_time),
            "nuclear_cap_hits": int(self.nuclear_cap_hits),
            "nuclear_iters": int(self.nuclear_iters),
            "extrapolations": int(self.extrapolations),
        }


def _l1(a) -> float:
    return float(np.abs(a).sum())


def _penalized(state, nuc, lam1, lam2) -> float:
    """F at ``state``, given its nuclear norm ``nuc``."""
    return state.data_fit + lam1 * nuc + lam2 * _l1(state.alpha)


def objective(
    alpha, low_rank, frame: MixedDataFrame, links, dictionary: Dictionary,
    lam1: float, lam2: float,
) -> float:
    """Penalized negative quasi-log-likelihood at (alpha, L)."""
    state = make_state(frame, links, dictionary, alpha, low_rank)
    return _penalized(state, nuclear_norm(state.low_rank), lam1, lam2)


def make_state(frame, links, dictionary, alpha, low_rank) -> FitState:
    """The iterate at (alpha, low_rank).  Raises on a low_rank or parameter matrix
    off the frame's shape, a non-finite entry or a link overflow."""
    alpha = np.asarray(alpha, dtype=float)
    low_rank = np.asarray(low_rank, dtype=float)
    x_full = dictionary.apply(alpha)  # a fresh array
    if not x_full.shape == low_rank.shape == frame.shape:
        raise ShapeMismatchError(
            f"parameter matrix shape {x_full.shape} (low-rank block "
            f"{low_rank.shape}) != frame shape {frame.shape}"
        )
    x_full += low_rank
    obs = expfam.observed(frame, links)
    if not np.isfinite(x_full).all():
        raise InvalidInputError("parameter matrix contains non-finite entries")
    x = x_full.take(obs.cells)
    return FitState(alpha, low_rank, x, expfam.quasi_loglik_neg(x, obs), obs)


@dataclass
class _Move:
    """``state`` moved by t (``alpha_dir``, ``l_dir``) in ``problem``, (frame,
    links, dictionary); ``at(t)`` shares a block with no direction, not a
    copy.  A block step moves one block and holds its Armijo terms."""

    problem: tuple
    state: FitState
    alpha_dir: np.ndarray | None = None
    l_dir: np.ndarray | None = None
    lam: float = 0.0
    lin: float = 0.0
    lin_abs: float = 0.0
    pen_now: float = 0.0
    pen_full: float = 0.0
    pen_err: float = 0.0

    def at(self, t) -> FitState:
        alpha, low_rank = self.state.alpha, self.state.low_rank
        return make_state(
            *self.problem,
            alpha if self.alpha_dir is None else alpha + t * self.alpha_dir,
            low_rank if self.l_dir is None else low_rank + t * self.l_dir,
        )


def _armijo(move, config):
    """The Armijo rule of both block steps (Tseng & Yun, 2009).

    ``move`` moves one block by d, with field f in parameter space, and
    predicts the decrease -2 lin + nu ||d||^2 + lam (P(1) - P(0)): lin =
    sum(w * Z * f), ``lin_abs`` the absolute sum of its terms, P(t) the
    block's penalty norm at block + t d (``pen_now``, ``pen_full`` at the
    ends).  tau shrinks from ``tau_init`` until the objective at
    ``move.at(tau)`` beats ``slope`` * tau times that; a trial that raises
    ``InvalidInputError`` (a non-finite parameter matrix or a link overflow)
    is rejected.  Returns the ``StepResult`` at the accepted trial, or at
    the state with tau 0 for a zero step: a d below ``_ZERO_DIRECTION_RTOL``
    of the block, or a non-negative decrease within (N + 4) eps of the
    absolute sums (N = ``state.low_rank.size``, the field's size; a sum of N
    terms in any order errs by at most (N - 1) eps of theirs) plus lam *
    ``pen_err``, the rounding bound of P(1) - P(0).  A larger one raises
    ``InternalConsistencyError``.
    """
    state, lam, pen_now = move.state, move.lam, move.pen_now
    moves_alpha = move.l_dir is None
    block, direction = ((state.alpha, move.alpha_dir) if moves_alpha
                        else (state.low_rank, move.l_dir))
    dir_norm = float(np.linalg.norm(direction))
    tiny = dir_norm <= _ZERO_DIRECTION_RTOL * max(1.0, np.linalg.norm(block))
    model_decrease = (
        -2.0 * move.lin + config.nu * dir_norm**2 + lam * (move.pen_full - pen_now)
    )
    if tiny or model_decrease >= 0.0:
        bound = (
            _EPS * (state.low_rank.size + 4)
            * (2.0 * move.lin_abs + config.nu * dir_norm**2)
            + lam * move.pen_err
        )
        if tiny or model_decrease <= bound:
            return StepResult(state, 0.0, 0.0, pen_now)
        raise InternalConsistencyError(
            f"{'alpha-step' if moves_alpha else 'L-step'} predicted decrease "
            f"{model_decrease:.3e} is not negative for a nonzero direction "
            f"(rounding bound {bound:.1e})"
        )

    base = state.data_fit + lam * pen_now
    tau = config.tau_init
    while True:
        try:
            trial = move.at(tau)
        except InvalidInputError:
            pass
        else:
            pen_trial = (move.pen_full if tau == 1.0
                         else _l1(trial.alpha) if moves_alpha
                         else nuclear_norm(trial.low_rank))
            if (trial.data_fit + lam * pen_trial
                    <= base + tau * config.slope * model_decrease):
                return StepResult(trial, tau, model_decrease, pen_trial)
        tau *= config.backtrack
        if tau < _STALL_FLOOR:
            raise LineSearchStallError(
                f"line search stalled below {_STALL_FLOOR:g} "
                f"(predicted decrease {model_decrease:.3e})"
            )


def _sums(terms):
    """The sum of ``terms`` and their absolute sum, written over them."""
    return float(np.sum(terms)), float(np.abs(terms, out=terms).sum())


def alpha_step(
    frame: MixedDataFrame, links, dictionary: Dictionary,
    state: FitState, config: SolverConfig,
) -> StepResult:
    """One main-effects update: weighted-Lasso direction plus Armijo step."""
    weights = expfam.curvature_weights(state.x, state.obs)
    working = expfam.working_responses(state.x, state.obs)
    targets = working + dictionary.apply(state.alpha)
    prob = WeightedLassoProblem(
        dictionary, weights, targets, config.nu, state.alpha, config.lam2
    )
    solution = solve_weighted_lasso(prob, config.lasso_tol, config.lasso_max_iter)
    del targets, prob
    direction = solution - state.alpha
    lin, lin_abs = _sums(weights * working * dictionary.apply(direction))
    del weights, working  # full-size, and the line search needs neither
    l1_now, l1_full = _l1(state.alpha), _l1(state.alpha + direction)
    return _armijo(_Move(
        (frame, links, dictionary), state, alpha_dir=direction, lam=config.lam2,
        lin=lin, lin_abs=lin_abs, pen_now=l1_now, pen_full=l1_full,
        pen_err=_EPS * (direction.size + 4) * (l1_now + l1_full),
    ), config)


def _nuclear_model(weights, working, low_rank, config):
    """The L block's quadratic model as a weighted nuclear problem, built in
    place over ``weights`` and ``working``: weights nu + w, targets
    (w * (Z + L) + nu * L) / (nu + w), computed as (w * Z + (nu + w) * L) /
    (nu + w).  Returns (w * Z, the problem)."""
    weighted_working = np.multiply(working, weights, out=working)
    total_weights = np.add(weights, config.nu, out=weights)
    targets = np.multiply(total_weights, low_rank)
    targets += weighted_working
    targets /= total_weights
    return weighted_working, WeightedNuclearProblem(
        total_weights, targets, config.lam1
    )


def l_step(
    frame: MixedDataFrame, links, dictionary: Dictionary,
    state: FitState, config: SolverConfig,
    nuclear_current: float, nuclear_tol: float,
) -> tuple[StepResult, int, bool]:
    """One interactions update: weighted nuclear direction plus Armijo step.

    ``nuclear_current`` is ||state.low_rank||_*; the EM stops at ``nuclear_tol``.
    Returns (the step, the EM's iterations, whether the EM converged).
    """
    weighted_working, prob = _nuclear_model(
        expfam.curvature_weights(state.x, state.obs),
        expfam.working_responses(state.x, state.obs),
        state.low_rank, config,
    )
    solve = solve_weighted_nuclear(prob, nuclear_tol, config.nuclear_max_iter,
                                   init=state.low_rank, init_nuclear=nuclear_current)
    del prob
    direction = solve.matrix - state.low_rank
    lin, lin_abs = _sums(weighted_working * direction)
    del weighted_working  # full-size, and the line search does not need it
    # P(1) is the EM's last shrink sum, good to _GRAM_RTOL of its SVT input's
    # spectral norm, which that sum plus the SVT threshold bounds; P(0) and
    # the other norms come from the SVT or a LAPACK SVD, good to _GRAM_RTOL
    step = _armijo(_Move(
        (frame, links, dictionary), state, l_dir=direction, lam=config.lam1,
        lin=lin, lin_abs=lin_abs, pen_now=nuclear_current, pen_full=solve.nuclear,
        pen_err=_GRAM_RTOL * (nuclear_current + solve.nuclear + solve.threshold),
    ), config)
    return step, solve.n_iter, solve.converged


def _extrapolated(problem, state, start, beta, nuc, config, bound):
    """y = x_k + beta (x_k - x_{k-1}), a ``_Move`` over both blocks, as (its
    state, ||y_L||_*, F(y)) if F(y) < ``bound``, else None.  ``state`` and
    ``nuc`` are x_k and ||L_k||_*, ``start`` is x_{k-1} as (alpha, L); a y
    that raises ``InvalidInputError`` is rejected."""
    move = _Move(problem, state, *(None if now is then else now - then for now, then
                                   in zip((state.alpha, state.low_rank), start)))
    try:
        trial = move.at(beta)
    except InvalidInputError:
        return None
    trial_nuc = nuc if move.l_dir is None else nuclear_norm(trial.low_rank)
    value = _penalized(trial, trial_nuc, config.lam1, config.lam2)
    return (trial, trial_nuc, value) if value < bound else None


def _read_only(block):
    """A read-only float view of ``block``: it shares the caller's memory
    and makes any later write to it, through the fit, an error."""
    view = np.asarray(block, dtype=float).view()
    view.flags.writeable = False
    return view


def fit(
    frame: MixedDataFrame, links, dictionary: Dictionary, config: SolverConfig,
    init: tuple | None = None,
) -> ModelFit:
    """Alternate alpha and L updates from (0, 0) until the objective settles.

    Stops when the relative objective change over one outer iteration's
    block steps drops to ``config.eps_f`` and that iteration's L-step EM ran
    at ``config.nuclear_tol`` (see the module docstring for the looser EM
    tolerances before and for the extrapolated points between iterations),
    or after ``config.max_outer`` iterations (reported as
    ``converged=False``).  Any step failure aborts with the partial
    objective trace attached.

    ``init`` is (alpha, L) and is not copied: a block that never moves is
    returned as a read-only view of the array given (see ``ModelFit``).
    """
    start = time.perf_counter()
    # no local keeps the first blocks once the state has moved on
    state = make_state(frame, links, dictionary, *(
        (np.zeros(dictionary.n_atoms), np.zeros(dictionary.shape))
        if init is None else map(_read_only, init)
    ))
    nuc = 0.0 if init is None else nuclear_norm(state.low_rank)
    current = _penalized(state, nuc, config.lam1, config.lam2)
    trace = [current]
    steps = []
    converged = False
    cap_hits = em_iters = kept = 0
    em_tol = max(config.nuclear_tol, _EM_TOL_MAX)
    momentum, last_decrease = 1.0, np.inf
    try:
        for _ in range(config.max_outer):
            before = (state.alpha, state.low_rank)
            res = alpha_step(frame, links, dictionary, state, config)
            state, tau_a = res.state, res.tau
            res, em_n, em_converged = l_step(frame, links, dictionary, state,
                                             config, nuc, em_tol)
            state, tau_l, nuc = res.state, res.tau, res.penalty
            cap_hits += not em_converged
            em_iters += em_n
            new_val = _penalized(state, nuc, config.lam1, config.lam2)
            scale = max(1.0, abs(current))
            decrease = current - new_val
            converged = (abs(decrease) <= config.eps_f * scale
                         and em_tol == config.nuclear_tol)
            if not converged and decrease >= _EXTRAPOLATE_RATIO * last_decrease:
                following = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
                beta, momentum = (momentum - 1.0) / following, following
                if beta > 0:
                    trial = _extrapolated((frame, links, dictionary), state,
                                          before, beta, nuc, config, new_val)
                    if trial is None:
                        momentum = 1.0  # restart
                    else:
                        state, nuc, new_val = trial
                        kept += 1
            # x_k, when y replaced it, is freed before the next alpha step
            res = trial = None
            last_decrease = decrease
            trace.append(new_val)
            steps.append((tau_a, tau_l))
            change = abs(current - new_val)
            em_tol = config.nuclear_tol if change <= config.eps_f * scale else max(
                config.nuclear_tol, min(_EM_TOL_MAX, change / scale)
            )
            current = new_val
            if converged:
                break
    except SplrError as exc:
        raise FitAbortedError(
            f"fit aborted at outer iteration {len(steps) + 1}: {exc}", trace=trace
        ) from exc

    return ModelFit(
        alpha_hat=state.alpha,
        l_hat=state.low_rank,
        x_hat=None,
        objective_trace=np.asarray(trace),
        step_trace=steps,
        converged=converged,
        n_iter=len(steps),
        config=config,
        wall_time=time.perf_counter() - start,
        nuclear_cap_hits=cap_hits,
        nuclear_iters=em_iters,
        extrapolations=kept,
        dictionary=dictionary,
    )


def imputed_values(x_hat, frame: MixedDataFrame, links) -> np.ndarray:
    """Completed matrix: observed values kept, means g'(x_hat) elsewhere."""
    means = expfam.predicted_means(x_hat, links)
    return np.where(frame.mask, frame.y_filled, means)


def impute(
    model: ModelFit, frame: MixedDataFrame, links, round_binary: bool = False
) -> MixedDataFrame:
    """Fill every unobserved cell with the fitted per-entry mean.

    Imputed binary cells hold success probabilities (the column is retyped
    numeric) unless ``round_binary`` rounds them at 0.5; imputed count cells
    hold continuous means and are likewise retyped numeric.
    """
    completed = imputed_values(model.x_hat, frame, links)
    types = []
    for j, ctype in enumerate(frame.column_types):
        if ctype is ColumnType.BINARY:
            if round_binary:
                completed[:, j] = np.where(
                    frame.mask[:, j], completed[:, j],
                    (completed[:, j] >= 0.5).astype(float),
                )
                types.append(ColumnType.BINARY)
            else:
                types.append(ColumnType.NUMERIC)
        elif ctype is ColumnType.COUNT:
            types.append(ColumnType.NUMERIC)
        else:
            types.append(ctype)
    full_mask = np.ones(frame.shape, dtype=bool)
    return MixedDataFrame(frame.column_names, tuple(types), completed, full_mask)
