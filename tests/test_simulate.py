"""Generators: exact rescaling, sampling sanity, baselines, reproducibility."""

import numpy as np
import pytest

from splr import simulate
from splr.dictionary import GroupEffectsDictionary, equal_group_assignment
from splr.exceptions import InvalidInputError
from splr.frame import ColumnType, MixedDataFrame
from splr.simulate import (
    SimDesign,
    baseline_svt_anchor,
    column_mean_predictions,
    design_dictionary,
    design_links,
    error_metrics,
    gen_ground_truth,
    gen_observations,
    group_mean_svt_baseline,
    simulate_instance,
)
from splr.subsolvers import (
    WeightedNuclearProblem,
    soft_threshold_singular_values,
    solve_weighted_nuclear,
)

from conftest import reference_accelerated_em


def small_design(**kw):
    base = dict(m1=20, m2=8, s=3, r=2, p_obs=0.8, n_groups=4, seed=1)
    base.update(kw)
    return SimDesign(**base)


class TestGroundTruth:
    def test_exact_rank(self):
        design = small_design(r=2)
        d = design_dictionary(design)
        truth = gen_ground_truth(design, d, np.random.default_rng(0))
        svals = np.linalg.svd(truth.low_rank, compute_uv=False)
        assert np.sum(svals > 1e-10 * svals[0]) == 2

    def test_exact_sparsity(self):
        design = small_design(s=3)
        d = design_dictionary(design)
        truth = gen_ground_truth(design, d, np.random.default_rng(1))
        assert np.count_nonzero(truth.alpha) == 3

    def test_exact_ratio_and_box(self):
        design = small_design(ratio=5.0, box=2.5)
        d = design_dictionary(design)
        truth = gen_ground_truth(design, d, np.random.default_rng(2))
        achieved = np.linalg.norm(truth.main_field) / np.linalg.norm(truth.low_rank)
        assert achieved == pytest.approx(5.0, abs=1e-12)
        assert np.abs(truth.x).max() == pytest.approx(2.5, abs=1e-12)
        np.testing.assert_allclose(
            truth.x, truth.main_field + truth.low_rank, atol=1e-12
        )

    def test_design_validation(self):
        with pytest.raises(InvalidInputError):
            small_design(r=50)
        with pytest.raises(InvalidInputError):
            small_design(p_obs=0.0)
        with pytest.raises(InvalidInputError):
            small_design(s=0)


class TestObservations:
    def test_bernoulli_mean_at_zero(self):
        design = small_design(m1=100_000, m2=1, s=1, r=1, n_groups=2, col_layout="mixed")
        links = [
            link for link in design_links(small_design(m2=2, col_layout="mixed"))
        ]
        rng = np.random.default_rng(3)
        values, _ = gen_observations(
            np.zeros((100_000, 1)), design, [links[1]], rng
        )
        assert values.mean() == pytest.approx(0.5, abs=0.005)

    def test_gaussian_mean_tracks_parameter(self):
        design = small_design(m1=40_000, m2=1, s=1, r=1, n_groups=2)
        rng = np.random.default_rng(4)
        x = np.full((40_000, 1), 0.7)
        values, _ = gen_observations(x, design, design_links(design)[:1], rng)
        assert values.mean() == pytest.approx(0.7, abs=3.0 / np.sqrt(40_000))

    def test_mask_density(self):
        design = small_design(m1=300, m2=30, p_obs=0.6)
        rng = np.random.default_rng(5)
        _, mask = gen_observations(
            np.zeros((300, 30)), design, design_links(design), rng
        )
        p_hat = mask.mean()
        assert abs(p_hat - 0.6) <= 3 * np.sqrt(0.6 * 0.4 / 9000)

    def test_mixed_layout_types(self):
        design = small_design(m2=7, col_layout="mixed")
        links = design_links(design)
        kinds = [link.kind for link in links]
        assert kinds == ["gaussian"] * 4 + ["bernoulli"] * 3


class TestReproducibility:
    def test_bit_identical_instances(self):
        design = small_design(seed=42, col_layout="mixed")
        a = simulate_instance(design)
        b = simulate_instance(design)
        assert np.array_equal(a.truth.alpha, b.truth.alpha)
        assert np.array_equal(a.truth.low_rank, b.truth.low_rank)
        assert np.array_equal(a.y_full, b.y_full)
        assert np.array_equal(a.frame.mask, b.frame.mask)

    def test_different_seeds_differ(self):
        a = simulate_instance(small_design(seed=1))
        b = simulate_instance(small_design(seed=2))
        assert not np.array_equal(a.y_full, b.y_full)


class TestErrorMetrics:
    def test_zero_at_truth(self):
        instance = simulate_instance(small_design(seed=6, p_obs=0.7))
        truth = instance.truth
        preds = instance.y_full.copy()  # exact predictions at missing cells
        m = error_metrics(instance, truth.alpha, truth.low_rank, preds)
        assert m.err_alpha == 0.0
        assert m.err_main == 0.0
        assert m.err_low_rank == 0.0
        assert m.mse_missing == 0.0

    def test_unit_perturbation(self):
        instance = simulate_instance(small_design(seed=7))
        alpha = instance.truth.alpha.copy()
        alpha[0] += 1.0
        m = error_metrics(
            instance, alpha, instance.truth.low_rank, instance.y_full
        )
        assert m.err_alpha == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_recomputation(self, rng):
        instance = simulate_instance(small_design(seed=8))
        alpha_hat = rng.standard_normal(instance.dictionary.n_atoms)
        l_hat = rng.standard_normal(instance.frame.shape)
        preds = rng.standard_normal(instance.frame.shape)
        m = error_metrics(instance, alpha_hat, l_hat, preds)
        assert m.err_alpha == pytest.approx(
            np.sum((alpha_hat - instance.truth.alpha) ** 2), rel=1e-12
        )
        assert m.err_low_rank == pytest.approx(
            np.sum((l_hat - instance.truth.low_rank) ** 2), rel=1e-12
        )
        main_hat = instance.dictionary.apply(alpha_hat)
        assert m.err_main == pytest.approx(
            np.sum((main_hat - instance.truth.main_field) ** 2), rel=1e-12
        )
        missing = ~instance.frame.mask
        assert m.mse_missing == pytest.approx(
            np.mean((preds[missing] - instance.y_full[missing]) ** 2), rel=1e-12
        )


def reference_group_means(frame, dictionary):
    """Group means of the observed cells, their field, and the observed
    residuals from it (0 off the mask)."""
    mask = frame.mask
    y = frame.y_filled
    sums = np.zeros((dictionary.n_groups, frame.n_cols))
    counts = np.zeros_like(sums)
    np.add.at(sums, dictionary.assignment, y)
    np.add.at(counts, dictionary.assignment, mask.astype(float))
    alpha = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0).ravel()
    main = dictionary.apply(alpha)
    return alpha, main, np.where(mask, y - main, 0.0)


def reference_group_mean_svt(frame, dictionary, lam, tol=1e-5, max_iter=300):
    """The comparator as its own loop: group means of the observed cells,
    then soft-impute on the residuals -- keep the observed residuals, fill
    the rest from the iterate, shrink singular values by lam / 2, and stop
    once the relative change is at most ``tol``."""
    mask = frame.mask
    alpha, main, resid = reference_group_means(frame, dictionary)
    low = np.zeros(frame.shape)
    iters = 0
    for iters in range(1, max_iter + 1):
        blended = np.where(mask, resid, low)
        new = soft_threshold_singular_values(blended, lam / 2.0)
        change = np.linalg.norm(new - low) / max(1.0, np.linalg.norm(new))
        low = new
        if change <= tol:
            break
    return alpha, low, main + low, iters


class TestBaselines:
    @pytest.mark.parametrize("layout", ["numeric", "mixed"])
    def test_matches_reference_soft_impute(self, layout):
        """The comparator's completion is bit for bit the accelerated EM loop
        on the mask as weights, iteration count included, and it never loses
        to the plain soft-impute loop: no higher objective, no more
        iterations."""
        instance = simulate_instance(SimDesign(
            m1=150, m2=30, s=3, r=2, p_obs=0.6, col_layout=layout, box=6.0, seed=4,
        ))
        frame, d = instance.frame, instance.dictionary
        mask = frame.mask.astype(float)
        alpha, main, resid = reference_group_means(frame, d)
        anchor = baseline_svt_anchor(frame, d)
        iters = []
        for scale in (0.5, 0.1, 0.01):
            lam = scale * anchor
            base = group_mean_svt_baseline(frame, d, lam=lam)
            expected, _, n_iter, _ = reference_accelerated_em(
                WeightedNuclearProblem(mask, resid, lam), 1e-5, 300
            )
            np.testing.assert_array_equal(base.alpha_hat, alpha)
            np.testing.assert_array_equal(base.l_hat, expected)
            np.testing.assert_array_equal(base.x_hat, main + expected)
            assert base.n_iter == n_iter

            _, plain_low, _, plain_iter = reference_group_mean_svt(frame, d, lam)

            def objective(low):
                nuc = np.linalg.svd(low, compute_uv=False).sum()
                return float(np.sum(mask * (resid - low) ** 2) + lam * nuc)

            bound = objective(plain_low)
            assert objective(base.l_hat) <= bound + 1e-12 * max(1.0, abs(bound))
            assert n_iter <= plain_iter
            iters.append(n_iter)
        assert iters[0] < iters[1] < iters[2]

    def test_init_starts_the_completion(self, monkeypatch):
        """With ``init`` the completion is ``solve_weighted_nuclear`` from that
        iterate, bit for bit; from the last penalty's solution it takes fewer
        iterations than from zero, and a capped solve reports it."""
        instance = simulate_instance(SimDesign(
            m1=150, m2=30, s=3, r=2, p_obs=0.6, col_layout="mixed", box=6.0, seed=4,
        ))
        frame, d = instance.frame, instance.dictionary
        _, main, resid = reference_group_means(frame, d)
        anchor = baseline_svt_anchor(frame, d)
        warm = group_mean_svt_baseline(frame, d, lam=0.1 * anchor).l_hat
        lam = 0.05 * anchor
        base = group_mean_svt_baseline(frame, d, lam=lam, init=warm)
        solve = solve_weighted_nuclear(
            WeightedNuclearProblem(frame.mask.astype(float), resid, lam),
            simulate._BASELINE_TOL, simulate._BASELINE_MAX_ITER, init=warm,
        )
        np.testing.assert_array_equal(base.l_hat, solve.matrix)
        np.testing.assert_array_equal(base.x_hat, main + solve.matrix)
        assert (base.n_iter, base.converged) == (solve.n_iter, True)
        assert base.n_iter < group_mean_svt_baseline(frame, d, lam=lam).n_iter
        monkeypatch.setattr(simulate, "_BASELINE_MAX_ITER", 2)
        capped = group_mean_svt_baseline(frame, d, lam=lam, init=warm)
        assert (capped.n_iter, capped.converged) == (2, False)

    def test_single_group_fully_observed_gives_column_means(self, rng):
        m1, m2 = 10, 4
        y = rng.standard_normal((m1, m2))
        frame = MixedDataFrame(
            tuple(f"c{j}" for j in range(m2)),
            (ColumnType.NUMERIC,) * m2,
            y,
            np.ones((m1, m2), dtype=bool),
        )
        d = GroupEffectsDictionary(np.zeros(m1, dtype=int), (m1, m2))
        base = group_mean_svt_baseline(frame, d, lam=1e6)
        np.testing.assert_allclose(base.alpha_hat, y.mean(axis=0), atol=1e-12)

    def test_zero_residuals_give_zero_completion(self):
        m1, m2 = 8, 3
        assignment = equal_group_assignment(m1, 2)
        d = GroupEffectsDictionary(assignment, (m1, m2))
        table = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
        y = table[assignment]
        frame = MixedDataFrame(
            tuple(f"c{j}" for j in range(m2)),
            (ColumnType.NUMERIC,) * m2,
            y,
            np.ones((m1, m2), dtype=bool),
        )
        base = group_mean_svt_baseline(frame, d, lam=0.5)
        np.testing.assert_array_equal(base.l_hat, 0.0)
        np.testing.assert_allclose(base.x_hat, y, atol=1e-12)

    def test_column_mean_predictions(self):
        values = np.array([[1.0, np.nan], [3.0, 4.0]])
        mask = ~np.isnan(values)
        frame = MixedDataFrame(
            ("a", "b"), (ColumnType.NUMERIC,) * 2, values, mask
        )
        preds = column_mean_predictions(frame)
        np.testing.assert_allclose(preds, [[2.0, 4.0], [2.0, 4.0]])

    def test_svt_anchor_zeroes_completion(self, rng):
        instance = simulate_instance(small_design(seed=9, p_obs=0.7))
        anchor = baseline_svt_anchor(instance.frame, instance.dictionary)
        base = group_mean_svt_baseline(
            instance.frame, instance.dictionary, lam=anchor * 1.01
        )
        np.testing.assert_array_equal(base.l_hat, 0.0)
        below = group_mean_svt_baseline(
            instance.frame, instance.dictionary, lam=anchor * 0.5
        )
        assert np.any(below.l_hat != 0.0)
