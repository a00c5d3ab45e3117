"""Penalty selection: gradient-at-zero anchors and held-out-entry validation.

The anchors are exact zero thresholds: at the zero model, the smallest
nuclear penalty that keeps the interactions block at zero is the operator
norm of the data-fit gradient, and the smallest l1 penalty that keeps the
main effects at zero is the largest atom inner product with that gradient.
Grids descend geometrically from the anchors.

Cross-validation partitions the observed entries uniformly at random,
refits along the grid from the largest penalties down with warm starts, and
scores held-out entries by squared error of the predicted mean on the data's
natural scale (one combined number across column types, with a per-type
breakdown alongside).

One holdout draw, ``draw_holdout``, serves both ``holdout_select`` and the
studies' tuning of the two-step comparator.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bcgd, expfam
from .dictionary import Dictionary
from .exceptions import InvalidInputError
from .frame import MixedDataFrame

_REDRAW_LIMIT = 20


@dataclass(frozen=True)
class LambdaGrid:
    """Descending penalty grids from their anchors; a zero anchor's grid is [0]."""

    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda1_max: float
    lambda2_max: float

    def __post_init__(self):
        for name, arr, anchor in (
            ("lambda1", self.lambda1, self.lambda1_max),
            ("lambda2", self.lambda2, self.lambda2_max),
        ):
            if not 0 <= anchor < np.inf:
                raise InvalidInputError(
                    f"{name}_max must be finite and >= 0, got {anchor}"
                )
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
                raise InvalidInputError(f"{name} grid must be finite and non-empty")
            if anchor == 0.0:
                if not np.array_equal(arr, [0.0]):
                    raise InvalidInputError(f"degenerate {name} grid must be [0]")
            else:
                if np.any(arr <= 0) or np.any(np.diff(arr) >= 0):
                    raise InvalidInputError(
                        f"{name} grid must be strictly decreasing and positive"
                    )
            object.__setattr__(self, name, arr)


def _geometric(anchor: float, length: int, decades: float) -> np.ndarray:
    if anchor == 0.0:  # a degenerate grid
        return np.array([0.0])
    return np.geomspace(anchor, anchor * 10.0 ** (-decades), length)


def default_grid(
    frame: MixedDataFrame,
    links,
    dictionary: Dictionary,
    n1: int = 8,
    n2: int = 8,
    decades: float = 3.0,
) -> LambdaGrid:
    """Geometric grids anchored at the exact zero-model thresholds."""
    if n1 < 1 or n2 < 1:
        raise InvalidInputError(f"grid lengths must be >= 1, got n1={n1}, n2={n2}")
    if not 0 < decades < np.inf:
        raise InvalidInputError(f"decades must be finite and > 0, got {decades}")
    obs = expfam.observed(frame, links)
    grad0 = expfam.gradient(np.zeros(obs.cells.size), obs)
    lam1_max = float(np.linalg.svd(grad0, compute_uv=False)[0])
    lam2_max = float(np.abs(dictionary.adjoint(grad0)).max())
    return LambdaGrid(
        lambda1=_geometric(lam1_max, n1, decades),
        lambda2=_geometric(lam2_max, n2, decades),
        lambda1_max=lam1_max,
        lambda2_max=lam2_max,
    )


@dataclass(frozen=True)
class CVCell:
    lambda1: float
    lambda2: float
    fold: int
    error: float
    n_held_out: int
    per_type: dict = field(default_factory=dict)


@dataclass
class CVReport:
    """Fold-level errors, their per-pair mean/deviation, and the chosen pair."""

    grid: LambdaGrid
    cells: list
    mean_error: np.ndarray  # (len(lambda1), len(lambda2))
    std_error: np.ndarray
    best_lambda1: float
    best_lambda2: float
    per_type_at_best: dict
    n_folds: int
    seed: int

    def to_json(self) -> str:
        payload = {
            "lambda1_grid": self.grid.lambda1.tolist(),
            "lambda2_grid": self.grid.lambda2.tolist(),
            "lambda1_max": self.grid.lambda1_max,
            "lambda2_max": self.grid.lambda2_max,
            "mean_error": self.mean_error.tolist(),
            "std_error": self.std_error.tolist(),
            "best_lambda1": self.best_lambda1,
            "best_lambda2": self.best_lambda2,
            "per_type_at_best": self.per_type_at_best,
            "n_folds": self.n_folds,
            "seed": self.seed,
            "cells": [asdict(c) for c in self.cells],
        }
        return json.dumps(payload, indent=2)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda1", "lambda2", "fold", "error"])
            for c in self.cells:
                writer.writerow([c.lambda1, c.lambda2, c.fold, c.error])


def _hold_out(frame: MixedDataFrame, coords) -> MixedDataFrame | None:
    """``frame`` without the cells at ``coords``; None if a column empties."""
    train_mask = frame.mask.copy()
    train_mask[coords[:, 0], coords[:, 1]] = False
    if not train_mask.any(axis=0).all():
        return None
    return MixedDataFrame(
        frame.column_names, frame.column_types, frame.values, train_mask
    )


def _draw_folds(frame: MixedDataFrame, n_folds: int, rng) -> list:
    """Partition observed entries; every fold's complement must keep every
    column observed.  Redraws a limited number of times, then fails."""
    coords = np.argwhere(frame.mask)
    if len(coords) < n_folds:
        raise InvalidInputError("fewer observed entries than folds")
    for _ in range(_REDRAW_LIMIT):
        order = rng.permutation(len(coords))
        folds = [coords[order[f::n_folds]] for f in range(n_folds)]
        if all(_hold_out(frame, fold) is not None for fold in folds):
            return folds
    raise InvalidInputError(
        f"could not draw {n_folds} folds leaving every column observed "
        f"after {_REDRAW_LIMIT} attempts"
    )


def draw_holdout(frame: MixedDataFrame, holdout_frac: float, rng):
    """Hold out round(holdout_frac * n_observed) observed cells, at least one,
    redrawing a limited number of times while a column empties.  Returns
    (training frame, held cell coordinates)."""
    if not 0 < holdout_frac < 1:
        raise InvalidInputError("holdout_frac must be in (0, 1)")
    coords = np.argwhere(frame.mask)
    n_hold = max(1, int(round(holdout_frac * len(coords))))
    for _ in range(_REDRAW_LIMIT):
        held = coords[rng.choice(len(coords), size=n_hold, replace=False)]
        train = _hold_out(frame, held)
        if train is not None:
            return train, held
    raise InvalidInputError("holdout draw kept emptying a column")


def path_errors(
    train_frame: MixedDataFrame,
    links,
    dictionary: Dictionary,
    grid: LambdaGrid,
    config: bcgd.SolverConfig,
    holdout_coords,
    y_true,
):
    """Warm-started fits over the whole grid; squared error on held-out cells.

    Returns (error matrix, per-type error matrices, the fit at the pair that
    ``choose_best`` picks), indexed by (i1, i2) positions in the grid arrays.
    Only that fit is kept, since each holds dense m1 x m2 matrices.
    """
    rows, cols = holdout_coords[:, 0], holdout_coords[:, 1]
    assert not train_frame.mask[rows, cols].any(), "held-out cells leaked into training"
    types = [train_frame.column_types[j].value for j in cols]
    type_sel = {t: np.array(types) == t for t in sorted(set(types))}

    n1, n2 = len(grid.lambda1), len(grid.lambda2)
    errors = np.full((n1, n2), np.nan)
    per_type = {t: np.full((n1, n2), np.nan) for t in type_sel}
    best = None
    warm = None
    for i1, lam1 in enumerate(grid.lambda1):
        for i2, lam2 in enumerate(grid.lambda2):
            cfg = replace(config, lam1=float(lam1), lam2=float(lam2))
            result = bcgd.fit(train_frame, links, dictionary, cfg, init=warm)
            warm = (result.alpha_hat, result.l_hat)
            mu = expfam.predicted_means(result.x_hat, links)[rows, cols]
            sq = (mu - y_true) ** 2
            errors[i1, i2] = float(sq.mean())
            for t, sel in type_sel.items():
                per_type[t][i1, i2] = float(sq[sel].mean())
            # the unfilled errors are NaN, which choose_best skips
            if choose_best(grid, errors) == (i1, i2):
                best = result
    return errors, per_type, best


def choose_best(grid: LambdaGrid, mean_error: np.ndarray):
    """Smallest mean error; ties go to the larger penalties (scan order)."""
    best = (0, 0)
    best_val = np.inf
    for i1 in range(len(grid.lambda1)):
        for i2 in range(len(grid.lambda2)):
            if mean_error[i1, i2] < best_val:
                best_val = mean_error[i1, i2]
                best = (i1, i2)
    return best


def cross_validate(
    frame: MixedDataFrame,
    links,
    dictionary: Dictionary,
    grid: LambdaGrid,
    n_folds: int = 5,
    seed: int = 0,
    config: bcgd.SolverConfig | None = None,
) -> CVReport:
    """Entry-masking cross-validation over the penalty grid."""
    if n_folds < 2:
        raise InvalidInputError("need at least 2 folds")
    if config is None:
        config = bcgd.SolverConfig(lam1=0.0, lam2=0.0)
    rng = np.random.default_rng(seed)
    folds = _draw_folds(frame, n_folds, rng)

    n1, n2 = len(grid.lambda1), len(grid.lambda2)
    fold_errors = np.empty((n_folds, n1, n2))
    cells = []
    per_type_all = {}
    for f, fold_coords in enumerate(folds):
        train = _hold_out(frame, fold_coords)
        y_true = frame.values[fold_coords[:, 0], fold_coords[:, 1]]
        errors, per_type, _ = path_errors(
            train, links, dictionary, grid, config, fold_coords, y_true
        )
        fold_errors[f] = errors
        for i1 in range(n1):
            for i2 in range(n2):
                cells.append(
                    CVCell(
                        lambda1=float(grid.lambda1[i1]),
                        lambda2=float(grid.lambda2[i2]),
                        fold=f,
                        error=float(errors[i1, i2]),
                        n_held_out=len(fold_coords),
                        per_type={
                            t: float(m[i1, i2]) for t, m in per_type.items()
                        },
                    )
                )
        for t, m in per_type.items():
            per_type_all.setdefault(t, []).append(m)

    mean_error = fold_errors.mean(axis=0)
    std_error = fold_errors.std(axis=0)
    i1, i2 = choose_best(grid, mean_error)
    per_type_at_best = {
        t: float(np.nanmean([m[i1, i2] for m in mats]))
        for t, mats in per_type_all.items()
    }
    return CVReport(
        grid=grid,
        cells=cells,
        mean_error=mean_error,
        std_error=std_error,
        best_lambda1=float(grid.lambda1[i1]),
        best_lambda2=float(grid.lambda2[i2]),
        per_type_at_best=per_type_at_best,
        n_folds=n_folds,
        seed=seed,
    )


def holdout_select(
    frame: MixedDataFrame,
    links,
    dictionary: Dictionary,
    grid: LambdaGrid,
    holdout_frac: float = 0.2,
    seed: int = 0,
    config: bcgd.SolverConfig | None = None,
):
    """Single random holdout of observed entries; returns (lam1, lam2, fit).

    Cheaper than full cross-validation; used by the study harnesses.  The
    cells come from ``draw_holdout``, and the returned fit is refit on all
    observed entries at the chosen pair (warm started from the path
    solution).
    """
    if config is None:
        config = bcgd.SolverConfig(lam1=0.0, lam2=0.0)
    train, held = draw_holdout(frame, holdout_frac, np.random.default_rng(seed))
    y_true = frame.values[held[:, 0], held[:, 1]]
    errors, _, best = path_errors(train, links, dictionary, grid, config, held, y_true)
    i1, i2 = choose_best(grid, errors)
    lam1, lam2 = float(grid.lambda1[i1]), float(grid.lambda2[i2])
    refit = bcgd.fit(frame, links, dictionary, replace(config, lam1=lam1, lam2=lam2),
                     init=(best.alpha_hat, best.l_hat))
    return lam1, lam2, refit
