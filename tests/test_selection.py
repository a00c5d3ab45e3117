"""Penalty anchors and cross-validation mechanics."""

import json

import numpy as np
import pytest

from splr import bcgd, expfam, selection
from splr.bcgd import SolverConfig
from splr.dictionary import (
    CorruptionsDictionary,
    GroupEffectsDictionary,
    equal_group_assignment,
)
from splr.exceptions import InvalidInputError
from splr.expfam import LinkSpec
from splr.frame import ColumnType, MixedDataFrame
from splr.selection import LambdaGrid, cross_validate, default_grid, holdout_select

from conftest import (
    at_observed,
    lone_cell_frame,
    make_mixed_instance,
    record_results,
    seed_whose_first_draw_empties,
)


def gaussian_frame(rng, m1, m2, p_obs=1.0):
    y = rng.standard_normal((m1, m2)) * 1.2
    mask = rng.random((m1, m2)) < p_obs
    if not mask.any():
        mask[0, 0] = True
    return (
        MixedDataFrame(
            tuple(f"c{j}" for j in range(m2)),
            (ColumnType.NUMERIC,) * m2,
            y,
            mask,
        ),
        [LinkSpec.gaussian()] * m2,
    )


def groups_dict(m1, m2, h=3):
    return GroupEffectsDictionary(equal_group_assignment(m1, h), (m1, m2))


class TestDefaultGrid:
    def test_all_zero_data_degenerates(self):
        frame = MixedDataFrame(
            ("a", "b"),
            (ColumnType.NUMERIC,) * 2,
            np.zeros((3, 2)),
            np.ones((3, 2), dtype=bool),
        )
        grid = default_grid(frame, [LinkSpec.gaussian()] * 2, groups_dict(3, 2, 1))
        assert grid.lambda1_max == grid.lambda2_max == 0.0
        np.testing.assert_array_equal(grid.lambda1, [0.0])
        np.testing.assert_array_equal(grid.lambda2, [0.0])

    def test_corruptions_anchor_is_sup_norm(self, rng):
        frame, links = gaussian_frame(rng, 5, 4, p_obs=0.8)
        cells = [(i, j) for i in range(5) for j in range(4)]
        d = CorruptionsDictionary(cells, (5, 4))
        grid = default_grid(frame, links, d)
        grad0 = at_observed(expfam.gradient, np.zeros((5, 4)), frame, links)
        assert grid.lambda2_max == pytest.approx(np.abs(grad0).max(), abs=1e-14)
        assert grid.lambda1_max == pytest.approx(
            np.linalg.svd(grad0, compute_uv=False)[0], abs=1e-12
        )

    def test_grid_shape_and_span(self, rng):
        frame, links = gaussian_frame(rng, 6, 4)
        grid = default_grid(frame, links, groups_dict(6, 4), n1=7, n2=5, decades=3.0)
        assert len(grid.lambda1) == 7 and len(grid.lambda2) == 5
        assert grid.lambda1[0] == pytest.approx(grid.lambda1_max)
        assert grid.lambda1[-1] == pytest.approx(grid.lambda1_max * 1e-3)
        assert np.all(np.diff(grid.lambda1) < 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_anchors_are_zero_thresholds(self, seed):
        """Fitting just above both anchors pins both blocks at exactly zero;
        just below either anchor, that block moves."""
        frame, links, _ = make_mixed_instance(seed + 50, m1=10, m2=6, p_obs=0.8)
        d = groups_dict(10, 6)
        grid = default_grid(frame, links, d)

        def fit_at(scale1, scale2):
            return bcgd.fit(frame, links, d, SolverConfig(
                lam1=grid.lambda1_max * scale1, lam2=grid.lambda2_max * scale2,
                max_outer=25,
            ))

        above = fit_at(1.01, 1.01)
        assert np.abs(above.l_hat).max() <= 1e-8
        assert np.abs(above.alpha_hat).max() <= 1e-8
        assert np.abs(fit_at(0.99, 1.01).l_hat).max() > 1e-8
        assert np.abs(fit_at(1.01, 0.99).alpha_hat).max() > 1e-8

    def test_invalid_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            LambdaGrid(
                lambda1=np.array([1.0, 2.0]),
                lambda2=np.array([1.0]),
                lambda1_max=2.0,
                lambda2_max=1.0,
            )

    def test_zero_anchor_needs_the_zero_grid(self):
        with pytest.raises(InvalidInputError, match="^degenerate lambda1 grid"):
            LambdaGrid(
                lambda1=np.array([2.0, 1.0]),
                lambda2=np.array([1.0]),
                lambda1_max=0.0,
                lambda2_max=1.0,
            )

    @pytest.mark.parametrize("anchors, name", [
        ((np.nan, -3.0), "lambda1_max"),
        ((2.0, -3.0), "lambda2_max"),
        ((np.inf, 1.0), "lambda1_max"),
        ((2.0, np.nan), "lambda2_max"),
    ])
    def test_non_finite_or_negative_anchor_rejected(self, anchors, name):
        # a NaN anchor would reach CVReport.to_json as a bare NaN, not JSON
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite"):
            LambdaGrid(lambda1=np.array([1.0]), lambda2=np.array([1.0]),
                       lambda1_max=anchors[0], lambda2_max=anchors[1])

    @pytest.mark.parametrize(
        "bad", [[], [np.nan], [2.0, np.nan], [np.inf, 1.0], [[2.0, 1.0]]]
    )
    @pytest.mark.parametrize("name", ["lambda1", "lambda2"])
    def test_empty_or_non_finite_grid_rejected(self, name, bad):
        arrays = {"lambda1": np.array([2.0, 1.0]), "lambda2": np.array([1.0])}
        arrays[name] = np.array(bad)
        message = f"^{name} grid must be finite and non-empty"
        with pytest.raises(InvalidInputError, match=message):
            LambdaGrid(**arrays, lambda1_max=2.0, lambda2_max=1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n1": 0}, "grid lengths"),
            ({"n2": 0}, "grid lengths"),
            ({"n1": -3}, "grid lengths"),
            ({"decades": np.nan}, "decades"),
            ({"decades": np.inf}, "decades"),
            ({"decades": 0.0}, "decades"),
            ({"decades": -1.0}, "decades"),
        ],
    )
    def test_bad_grid_arguments_rejected(self, rng, kwargs, message):
        # n1=0 used to end in an IndexError in choose_best, and decades=nan
        # in a grid of NaNs
        frame, links = gaussian_frame(rng, 6, 3)
        with pytest.raises(InvalidInputError, match=f"^{message} must be"):
            default_grid(frame, links, groups_dict(6, 3), **kwargs)


def small_grid(frame, links, d, n=3):
    return default_grid(frame, links, d, n1=n, n2=n, decades=2.0)


class TestCrossValidate:
    def test_two_folds_partition_fully_observed(self, rng):
        frame, links = gaussian_frame(rng, 4, 4)
        d = groups_dict(4, 4, h=2)
        grid = small_grid(frame, links, d, n=2)
        report = cross_validate(frame, links, d, grid, n_folds=2, seed=3)
        held = sum(c.n_held_out for c in report.cells if c.fold in (0, 1))
        # every observed entry lands in exactly one fold
        per_pair = len(grid.lambda1) * len(grid.lambda2)
        assert held == 16 * per_pair

    def test_deterministic_given_seed(self, rng):
        frame, links = gaussian_frame(rng, 8, 5, p_obs=0.9)
        d = groups_dict(8, 5)
        grid = small_grid(frame, links, d)
        a = cross_validate(frame, links, d, grid, n_folds=3, seed=11)
        b = cross_validate(frame, links, d, grid, n_folds=3, seed=11)
        assert a.to_json() == b.to_json()
        np.testing.assert_array_equal(a.mean_error, b.mean_error)

    def test_chosen_beats_anchor_corner(self):
        """On signal-bearing data the selected pair strictly improves on the
        fit-nothing corner (largest penalties) for most seeds."""
        wins = 0
        for seed in range(8):
            rng = np.random.default_rng(seed + 300)
            m1, m2 = 18, 6
            d = groups_dict(m1, m2)
            alpha = np.zeros(d.n_atoms)
            alpha[rng.choice(d.n_atoms, 3, replace=False)] = rng.normal(
                0, 1.5, 3
            )
            x = d.apply(alpha) + 0.4 * rng.standard_normal((m1, m2))
            y = x + rng.standard_normal((m1, m2))
            mask = rng.random((m1, m2)) < 0.9
            frame = MixedDataFrame(
                tuple(f"c{j}" for j in range(m2)),
                (ColumnType.NUMERIC,) * m2,
                y,
                mask,
            )
            links = [LinkSpec.gaussian()] * m2
            grid = small_grid(frame, links, d)
            report = cross_validate(
                frame, links, d, grid, n_folds=3, seed=seed,
                config=SolverConfig(lam1=0.0, lam2=0.0, eps_f=1e-7, max_outer=80),
            )
            best = report.mean_error.min()
            corner = report.mean_error[0, 0]
            assert best <= corner + 1e-12
            if best < corner:
                wins += 1
        assert wins >= 6

    def test_redraw_exhaustion_errors(self):
        # one column observed in a single row: every 2-fold split empties it
        values = np.array([[1.0, 2.0], [1.5, np.nan], [0.5, np.nan]])
        mask = ~np.isnan(values)
        frame = MixedDataFrame(
            ("a", "b"), (ColumnType.NUMERIC,) * 2, values, mask
        )
        links = [LinkSpec.gaussian()] * 2
        d = groups_dict(3, 2, h=1)
        grid = small_grid(frame, links, d, n=2)
        with pytest.raises(InvalidInputError):
            cross_validate(frame, links, d, grid, n_folds=2, seed=0)

    def test_warm_start_matches_cold_fits(self, rng, monkeypatch):
        """Path-warmed fits reach the same objective as cold fits."""
        frame, links = gaussian_frame(rng, 10, 5, p_obs=0.9)
        d = groups_dict(10, 5)
        grid = small_grid(frame, links, d, n=3)
        config = SolverConfig(lam1=0.0, lam2=0.0, eps_f=1e-11, max_outer=2000)
        coords = np.argwhere(frame.mask)
        held = coords[::5]
        train_mask = frame.mask.copy()
        train_mask[held[:, 0], held[:, 1]] = False
        train = MixedDataFrame(
            frame.column_names, frame.column_types, frame.values, train_mask
        )
        y_true = frame.values[held[:, 0], held[:, 1]]
        fits = record_results(monkeypatch, selection.bcgd, "fit")
        selection.path_errors(train, links, d, grid, config, held, y_true)
        monkeypatch.undo()
        assert len(fits) == len(grid.lambda1) * len(grid.lambda2)
        for warm_fit in fits:
            cold = bcgd.fit(train, links, d, warm_fit.config)
            warm_obj = warm_fit.objective_trace[-1]
            cold_obj = cold.objective_trace[-1]
            assert warm_obj <= cold_obj + 1e-8 * max(1.0, abs(cold_obj))

    def test_path_keeps_the_fit_at_the_chosen_pair(self, rng, monkeypatch):
        frame, links = gaussian_frame(rng, 12, 5, p_obs=0.85)
        d = groups_dict(12, 5)
        grid = small_grid(frame, links, d, n=4)
        train, held = selection.draw_holdout(frame, 0.25, np.random.default_rng(4))
        y_true = frame.values[held[:, 0], held[:, 1]]
        fits = record_results(monkeypatch, selection.bcgd, "fit")
        errors, _, best = selection.path_errors(
            train, links, d, grid, SolverConfig(lam1=0.0, lam2=0.0), held, y_true
        )
        i1, i2 = selection.choose_best(grid, errors)
        assert 0 < i1 * len(grid.lambda2) + i2 < len(fits) - 1
        assert best is fits[i1 * len(grid.lambda2) + i2]
        assert (best.config.lam1, best.config.lam2) == (
            grid.lambda1[i1], grid.lambda2[i2]
        )

    def test_report_serialization(self, rng, tmp_path):
        frame, links = gaussian_frame(rng, 6, 4)
        d = groups_dict(6, 4, h=2)
        grid = small_grid(frame, links, d, n=2)
        report = cross_validate(frame, links, d, grid, n_folds=2, seed=0)
        payload = json.loads(report.to_json())
        assert payload["best_lambda1"] == report.best_lambda1
        out = tmp_path / "cv.csv"
        report.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda1,lambda2,fold,error"
        assert len(lines) == 1 + len(report.cells)


class TestHoldoutSelect:
    def test_returns_refit_on_full_data(self, rng):
        frame, links = gaussian_frame(rng, 12, 5, p_obs=0.85)
        d = groups_dict(12, 5)
        grid = small_grid(frame, links, d)
        lam1, lam2, result = holdout_select(
            frame, links, d, grid, holdout_frac=0.25, seed=4
        )
        assert lam1 in grid.lambda1
        assert lam2 in grid.lambda2
        assert result.config.lam1 == lam1
        # refit saw every observed entry
        assert result.x_hat.shape == frame.shape

    def test_gather_built_once_per_frame(self, monkeypatch):
        """The path's nine fits share one gather of the training frame's
        observed cells; the refit reuses the full frame's, which the grid's
        anchors built."""
        frame, links, _ = make_mixed_instance(3, m1=12, m2=5, p_obs=0.85)
        d = groups_dict(12, 5)
        grid = small_grid(frame, links, d)
        builds, group_cells = [], expfam._group_cells

        def spy(built_frame, built_links):
            builds.append(built_frame)
            return group_cells(built_frame, built_links)

        monkeypatch.setattr(expfam, "_group_cells", spy)
        fits = record_results(monkeypatch, bcgd, "fit")
        holdout_select(frame, links, d, grid, holdout_frac=0.25, seed=4)
        assert len(fits) == 10
        assert len(builds) == 1 and builds[0] is not frame

    def test_deterministic(self, rng):
        frame, links = gaussian_frame(rng, 10, 4, p_obs=0.9)
        d = groups_dict(10, 4)
        grid = small_grid(frame, links, d)
        a = holdout_select(frame, links, d, grid, seed=7)
        b = holdout_select(frame, links, d, grid, seed=7)
        assert (a[0], a[1]) == (b[0], b[1])
        np.testing.assert_array_equal(a[2].x_hat, b[2].x_hat)


def reference_holdout_draw(frame, holdout_frac, rng):
    """Reference: round(frac * n) observed cells per attempt, drawn with one
    rng.choice without replacement, redrawn while a column empties."""
    coords = np.argwhere(frame.mask)
    n_hold = max(1, int(round(holdout_frac * len(coords))))
    for _ in range(20):
        held = coords[rng.choice(len(coords), size=n_hold, replace=False)]
        train_mask = frame.mask.copy()
        train_mask[held[:, 0], held[:, 1]] = False
        if not np.any(train_mask.sum(axis=0) == 0):
            return train_mask, held
    raise AssertionError("reference draw kept emptying a column")


class TestDrawHoldout:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_reference_formula(self, rng, seed):
        frame, _ = gaussian_frame(rng, 12, 5, p_obs=0.8)
        for frac in (0.1, 0.2, 0.35):
            train, held = selection.draw_holdout(
                frame, frac, np.random.default_rng(seed)
            )
            ref_mask, ref_held = reference_holdout_draw(
                frame, frac, np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(held, ref_held)
            np.testing.assert_array_equal(train.mask, ref_mask)

    def test_redraws_a_draw_that_empties_a_column(self):
        frame = lone_cell_frame()
        seed = seed_whose_first_draw_empties(frame, 0.2)
        train, held = selection.draw_holdout(
            frame, 0.2, np.random.default_rng(seed)
        )
        assert train.mask.any(axis=0).all()
        assert not np.any(held[:, 1] == 0)
        ref_mask, ref_held = reference_holdout_draw(
            frame, 0.2, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(held, ref_held)
        np.testing.assert_array_equal(train.mask, ref_mask)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.2, 1.5, np.nan])
    def test_bad_fraction_rejected(self, rng, frac):
        frame, links = gaussian_frame(rng, 8, 3)
        with pytest.raises(InvalidInputError, match="holdout_frac"):
            selection.draw_holdout(frame, frac, np.random.default_rng(0))
        d = groups_dict(8, 3)
        with pytest.raises(InvalidInputError, match="holdout_frac"):
            holdout_select(frame, links, d, small_grid(frame, links, d),
                           holdout_frac=frac)


class TestChooseBest:
    def test_ties_break_toward_larger_penalties(self):
        grid = LambdaGrid(
            lambda1=np.array([4.0, 2.0, 1.0]),
            lambda2=np.array([3.0, 1.5]),
            lambda1_max=4.0,
            lambda2_max=3.0,
        )
        tied = np.full((3, 2), 0.7)
        tied[2, 1] = 0.9
        i1, i2 = selection.choose_best(grid, tied)
        assert (grid.lambda1[i1], grid.lambda2[i2]) == (4.0, 3.0)

    def test_unique_minimum_wins(self):
        grid = LambdaGrid(
            lambda1=np.array([4.0, 2.0]),
            lambda2=np.array([3.0, 1.5]),
            lambda1_max=4.0,
            lambda2_max=3.0,
        )
        errors = np.array([[0.9, 0.8], [0.7, 0.95]])
        i1, i2 = selection.choose_best(grid, errors)
        assert (grid.lambda1[i1], grid.lambda2[i2]) == (2.0, 3.0)
