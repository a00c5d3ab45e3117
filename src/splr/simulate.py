"""Synthetic ground truth, observation sampling, metrics, and baselines.

Ground truth draws an s-sparse coefficient vector and a rank-r factor
product, rescales the two pieces so their Frobenius-norm ratio matches the
requested value exactly, then rescales the sum so its largest absolute entry
hits the target box edge (keeping binary columns away from saturated
probabilities).  Observations are sampled per column family at the resulting
natural parameters and masked independently.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from scipy.special import expit

from .dictionary import (
    Dictionary,
    GroupEffectsDictionary,
    RowColumnDictionary,
    equal_group_assignment,
)
from .exceptions import InvalidInputError
from .expfam import LinkSpec
from .frame import ColumnType, MixedDataFrame
from .subsolvers import WeightedNuclearProblem, solve_weighted_nuclear

_REDRAW_LIMIT = 20
# the two-step comparator's soft-impute: relative-change tolerance, EM cap
_BASELINE_TOL = 1e-5
_BASELINE_MAX_ITER = 300


@dataclass(frozen=True)
class SimDesign:
    """One synthetic-instance recipe; same design + seed reproduces bits."""

    m1: int
    m2: int
    s: int
    r: int
    p_obs: float
    ratio: float = 1.0
    structure: str = "groups"
    n_groups: int = 5
    col_layout: str = "numeric"  # "numeric" | "mixed"
    box: float = 2.5
    sigma2: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("m1", "m2", "s", "r", "n_groups", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        for name in ("p_obs", "ratio", "box", "sigma2"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not np.isfinite(value)):
                raise InvalidInputError(f"{name} must be a finite real, got {value!r}")
        if self.m1 < 1 or self.m2 < 1:
            raise InvalidInputError("need positive dimensions")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.r <= min(self.m1, self.m2):
            raise InvalidInputError("rank must lie in [1, min(m1, m2)]")
        if not 0 < self.p_obs <= 1:
            raise InvalidInputError("p_obs must lie in (0, 1]")
        if not self.ratio > 0:
            raise InvalidInputError("ratio must be > 0")
        if not self.box > 0:
            raise InvalidInputError("box must be > 0")
        if self.structure not in ("groups", "rowcol"):
            raise InvalidInputError("structure must be groups|rowcol")
        if self.col_layout not in ("numeric", "mixed"):
            raise InvalidInputError("col_layout must be numeric|mixed")
        if self.structure == "groups" and not 1 <= self.n_groups <= self.m1:
            raise InvalidInputError(f"n_groups must lie in [1, {self.m1}]")
        n_atoms = (
            self.n_groups * self.m2
            if self.structure == "groups"
            else self.m1 + self.m2
        )
        if not 1 <= self.s <= n_atoms:
            raise InvalidInputError(f"sparsity must lie in [1, {n_atoms}]")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload) -> SimDesign:
        """The design a JSON object names; unknown or missing keys are errors."""
        if not isinstance(payload, dict):
            raise InvalidInputError("design must be a JSON object")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidInputError(f"unknown design keys: {unknown}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in payload]
        if missing:
            raise InvalidInputError(f"design is missing keys: {missing}")
        return cls(**payload)


def design_dictionary(design: SimDesign) -> Dictionary:
    if design.structure == "groups":
        return GroupEffectsDictionary(
            equal_group_assignment(design.m1, design.n_groups),
            (design.m1, design.m2),
        )
    return RowColumnDictionary((design.m1, design.m2))


def design_links(design: SimDesign) -> list:
    if design.col_layout == "numeric":
        return [LinkSpec.gaussian(design.sigma2) for _ in range(design.m2)]
    half = (design.m2 + 1) // 2
    return [
        LinkSpec.gaussian(design.sigma2) if j < half else LinkSpec.bernoulli()
        for j in range(design.m2)
    ]


def design_column_types(design: SimDesign) -> tuple:
    return tuple(
        ColumnType.NUMERIC if link.kind == "gaussian" else ColumnType.BINARY
        for link in design_links(design)
    )


@dataclass(frozen=True)
class GroundTruth:
    alpha: np.ndarray
    low_rank: np.ndarray
    x: np.ndarray
    main_field: np.ndarray


def gen_ground_truth(design: SimDesign, dictionary: Dictionary, rng) -> GroundTruth:
    """Sparse coefficients plus a rank-r product, exactly rescaled."""
    n = dictionary.n_atoms
    for _ in range(_REDRAW_LIMIT):
        support = rng.choice(n, size=design.s, replace=False)
        alpha = np.zeros(n)
        alpha[support] = rng.standard_normal(design.s)
        left = rng.standard_normal((design.m1, design.r))
        right = rng.standard_normal((design.m2, design.r))
        low = left @ right.T
        main = dictionary.apply(alpha)
        main_norm = np.linalg.norm(main)
        low_norm = np.linalg.norm(low)
        if main_norm == 0.0 or low_norm == 0.0:
            continue
        scale_alpha = design.ratio / main_norm
        scale_low = 1.0 / low_norm
        x_raw = scale_alpha * main + scale_low * low
        peak = np.abs(x_raw).max()
        if peak == 0.0:
            continue
        t = design.box / peak
        return GroundTruth(
            alpha=t * scale_alpha * alpha,
            low_rank=t * scale_low * low,
            x=t * x_raw,
            main_field=t * scale_alpha * main,
        )
    raise InvalidInputError("could not draw a nondegenerate ground truth")


def gen_observations(x, design: SimDesign, links, rng):
    """Sample one observation per cell at its natural parameter, then mask."""
    x = np.asarray(x, dtype=float)
    m1, m2 = x.shape
    values = np.empty((m1, m2))
    for j, link in enumerate(links):
        if link.kind == "gaussian":
            values[:, j] = rng.normal(
                link.sigma2 * x[:, j], np.sqrt(link.sigma2)
            )
        elif link.kind == "bernoulli":
            values[:, j] = rng.binomial(1, expit(x[:, j]))
        else:
            values[:, j] = rng.poisson(link.a * np.exp(link.a * x[:, j]))
    for _ in range(_REDRAW_LIMIT):
        mask = rng.random((m1, m2)) < design.p_obs
        if mask.any():
            return values, mask
    raise InvalidInputError("mask draw produced no observed entries")


@dataclass(frozen=True)
class SimInstance:
    design: SimDesign
    dictionary: Dictionary
    links: list
    truth: GroundTruth
    y_full: np.ndarray
    frame: MixedDataFrame


def simulate_instance(design: SimDesign) -> SimInstance:
    """Full pipeline with two independent substreams split off the seed."""
    truth_rng, obs_rng = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(design.seed).spawn(2)
    )
    dictionary = design_dictionary(design)
    links = design_links(design)
    truth = gen_ground_truth(design, dictionary, truth_rng)
    y_full, mask = gen_observations(truth.x, design, links, obs_rng)
    frame = MixedDataFrame(
        tuple(f"c{j}" for j in range(design.m2)),
        design_column_types(design),
        y_full,
        mask,
    )
    return SimInstance(design, dictionary, links, truth, y_full, frame)


@dataclass(frozen=True)
class SimMetrics:
    err_alpha: float
    err_main: float
    err_low_rank: float
    mse_missing: float

    def as_dict(self) -> dict:
        return asdict(self)


def error_metrics(
    instance: SimInstance, alpha_hat, l_hat, predictions
) -> SimMetrics:
    """Squared estimation errors plus imputation MSE on the masked cells.

    ``predictions`` must already be on the data's natural scale (per-entry
    means for the model fits, raw group means for the numeric baselines).
    """
    truth = instance.truth
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    l_hat = np.asarray(l_hat, dtype=float)
    main_hat = instance.dictionary.apply(alpha_hat)
    missing = ~instance.frame.mask
    if missing.any():
        mse = float(
            np.mean((np.asarray(predictions)[missing] - instance.y_full[missing]) ** 2)
        )
    else:
        mse = float("nan")
    return SimMetrics(
        err_alpha=float(np.sum((alpha_hat - truth.alpha) ** 2)),
        err_main=float(np.sum((main_hat - truth.main_field) ** 2)),
        err_low_rank=float(np.sum((l_hat - truth.low_rank) ** 2)),
        mse_missing=mse,
    )


@dataclass(frozen=True)
class BaselineFit:
    """Two-step comparator output, shaped like a model fit for the metrics."""

    alpha_hat: np.ndarray
    l_hat: np.ndarray
    x_hat: np.ndarray
    n_iter: int
    converged: bool


def column_mean_predictions(frame: MixedDataFrame) -> np.ndarray:
    """Every cell predicted by its column's observed mean (0 when empty)."""
    counts = frame.mask.sum(axis=0)
    sums = frame.y_filled.sum(axis=0)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return np.tile(means, (frame.n_rows, 1))


def _group_mean_residuals(frame: MixedDataFrame, dictionary):
    """Per-group column means of the observed cells (0 for a group with none),
    their broadcast field, and the observed residuals from it (0 off the mask)."""
    if not isinstance(dictionary, GroupEffectsDictionary):
        raise InvalidInputError("the two-step baseline needs a group dictionary")
    mask = frame.mask
    y = frame.y_filled
    sums = np.zeros((dictionary.n_groups, frame.n_cols))
    counts = np.zeros_like(sums)
    np.add.at(sums, dictionary.assignment, y)
    np.add.at(counts, dictionary.assignment, mask.astype(float))
    alpha = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0).ravel()
    main = dictionary.apply(alpha)
    return alpha, main, np.where(mask, y - main, 0.0)


def group_mean_svt_baseline(
    frame: MixedDataFrame, dictionary: GroupEffectsDictionary, lam: float,
    init: np.ndarray | None = None,
) -> BaselineFit:
    """Group means per column, then soft-impute completion of the residuals.

    The completion is ``solve_weighted_nuclear``, the L-step's EM, with the
    observation mask as 0/1 weights: it blends the observed residuals into
    the iterate and soft-thresholds at ``lam / 2`` until the relative change
    drops to ``_BASELINE_TOL`` or ``_BASELINE_MAX_ITER`` iterations have run
    (``converged`` false).  ``init``, the completion's first iterate, plays
    the role of ``bcgd.fit``'s: a path of penalties warm-starts each solve
    from the last one's ``l_hat`` (soft-impute's path, Mazumder, Hastie &
    Tibshirani, 2010); without it the completion starts at zero.
    The data are treated numerically regardless of declared column types;
    all predictions live on the data scale.
    """
    alpha, main, resid = _group_mean_residuals(frame, dictionary)
    solve = solve_weighted_nuclear(
        WeightedNuclearProblem(frame.mask.astype(float), resid, lam),
        _BASELINE_TOL, _BASELINE_MAX_ITER, init=init,
    )
    return BaselineFit(
        alpha_hat=alpha, l_hat=solve.matrix, x_hat=main + solve.matrix,
        n_iter=solve.n_iter, converged=solve.converged,
    )


def baseline_svt_anchor(frame: MixedDataFrame, dictionary) -> float:
    """Smallest soft-impute penalty that keeps the completed residuals at 0."""
    resid = _group_mean_residuals(frame, dictionary)[2]
    return 2.0 * float(np.linalg.svd(resid, compute_uv=False)[0])
