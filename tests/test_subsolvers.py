"""Inner solvers vs independent oracles: grid search, subgradient descent."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svd as scipy_svd

from splr import subsolvers
from splr.dictionary import (
    CorruptionsDictionary,
    CustomDictionary,
    GroupEffectsDictionary,
    RowColumnDictionary,
    equal_group_assignment,
)
from splr.exceptions import ConvergenceError, InvalidInputError
from splr.subsolvers import (
    WeightedLassoProblem,
    WeightedNuclearProblem,
    nuclear_norm,
    soft_threshold_singular_values,
    solve_weighted_lasso,
    solve_weighted_nuclear,
    weighted_lasso_kkt_residual,
    weighted_lasso_objective,
    weighted_nuclear_objective,
)

from conftest import reference_accelerated_em


def all_cells_corruptions(shape):
    m1, m2 = shape
    return CorruptionsDictionary(
        [(i, j) for i in range(m1) for j in range(m2)], shape
    )


class TestWeightedLasso:
    def test_separable_least_squares(self, rng):
        shape = (4, 3)
        z = rng.standard_normal(shape)
        prob = WeightedLassoProblem(
            all_cells_corruptions(shape),
            np.ones(shape),
            z,
            ridge=1e-8,
            anchor=np.zeros(12),
            penalty=0.0,
        )
        alpha = solve_weighted_lasso(prob, tol=1e-10)
        np.testing.assert_allclose(alpha.reshape(shape), z, atol=1e-4)

    def test_full_shrinkage_at_huge_penalty(self, rng):
        shape = (4, 3)
        z = rng.standard_normal(shape)
        w = rng.random(shape) + 0.5
        d = all_cells_corruptions(shape)
        lam = 4.0 * float(np.abs(d.adjoint(w * z)).max()) + 1.0
        prob = WeightedLassoProblem(
            d, w, z, ridge=1e-3, anchor=np.zeros(12), penalty=lam
        )
        alpha = solve_weighted_lasso(prob, tol=1e-12)
        np.testing.assert_array_equal(alpha, 0.0)

    def _two_atom_problem(self, seed):
        rng = np.random.default_rng(seed)
        shape = (4, 3)
        atoms = []
        for _ in range(2):
            cells = rng.choice(12, size=3, replace=False)
            atoms.append(
                [
                    (int(c) // 3, int(c) % 3, float(rng.uniform(-1, 1)))
                    for c in cells
                ]
            )
        d = CustomDictionary(atoms, shape)
        return WeightedLassoProblem(
            d,
            rng.uniform(0.2, 1.5, shape),
            rng.standard_normal(shape),
            ridge=0.05,
            anchor=rng.standard_normal(2) * 0.3,
            penalty=0.3,
        )

    def _grid_minimum(self, prob):
        """Dense evaluation of the two-coordinate objective on a 1e-3 grid."""
        d = prob.dictionary
        w, z, nu, lam = prob.weights, prob.targets, prob.ridge, prob.penalty
        t1, t2 = prob.anchor
        u1 = d.apply(np.array([1.0, 0.0]))
        u2 = d.apply(np.array([0.0, 1.0]))
        a11 = np.sum(w * u1 * u1)
        a22 = np.sum(w * u2 * u2)
        a12 = np.sum(w * u1 * u2)
        b1 = np.sum(w * z * u1)
        b2 = np.sum(w * z * u2)
        const = np.sum(w * z * z) + nu * (t1**2 + t2**2)
        grid = np.arange(-3.0, 3.0 + 1e-12, 1e-3)
        col_quad = (a22 + nu) * grid**2 - 2 * (b2 + nu * t2) * grid + lam * np.abs(
            grid
        )
        best = np.inf
        for a1 in grid:
            row = (
                (a11 + nu) * a1 * a1
                - 2 * (b1 + nu * t1) * a1
                + lam * abs(a1)
                + col_quad
                + 2 * a12 * a1 * grid
            )
            m = row.min()
            if m < best:
                best = m
        return float(best + const)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_two_atom_grid_search_oracle(self, seed):
        prob = self._two_atom_problem(seed)
        alpha = solve_weighted_lasso(prob, tol=1e-10)
        assert np.all(np.abs(alpha) < 3.0)  # optimum interior to the grid box
        solver_obj = weighted_lasso_objective(prob, alpha)
        grid_obj = self._grid_minimum(prob)
        assert abs(solver_obj - grid_obj) <= 1e-5
        assert solver_obj <= grid_obj + 1e-12
        assert weighted_lasso_kkt_residual(prob, alpha) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_kkt_conditions_at_solution(self, seed, rng):
        rng = np.random.default_rng(seed)
        shape = (5, 4)
        d = all_cells_corruptions(shape)
        prob = WeightedLassoProblem(
            d,
            rng.uniform(0.0, 2.0, shape),
            rng.standard_normal(shape),
            ridge=0.02,
            anchor=rng.standard_normal(20) * 0.2,
            penalty=0.4,
        )
        alpha = solve_weighted_lasso(prob, tol=1e-9)
        assert weighted_lasso_kkt_residual(prob, alpha) <= 1e-9
        # some coordinates should actually be shrunk to zero at this penalty
        assert np.any(alpha == 0.0)

    def test_descent_across_manual_sweeps(self, rng):
        """Restarting from a previous solution can never raise the objective."""
        prob = self._two_atom_problem(5)
        vals = []
        for tol in (1e-2, 1e-6, 1e-10):
            alpha = solve_weighted_lasso(prob, tol=tol)
            vals.append(weighted_lasso_objective(prob, alpha))
        assert vals[2] <= vals[1] + 1e-12
        assert vals[1] <= vals[0] + 1e-12

    def test_nonconvergence_raises_with_residual(self, rng):
        prob = self._two_atom_problem(9)
        with pytest.raises(ConvergenceError) as err:
            solve_weighted_lasso(prob, tol=1e-14, max_iter=1)
        assert err.value.residual is not None

    def test_invalid_ridge_rejected(self, rng):
        shape = (2, 2)
        with pytest.raises(InvalidInputError):
            WeightedLassoProblem(
                all_cells_corruptions(shape),
                np.ones(shape),
                np.ones(shape),
                ridge=0.0,
                anchor=np.zeros(4),
                penalty=0.0,
            )


def cyclic_cd(prob, max_sweeps=1):
    """Per-atom cyclic coordinate descent from the anchor, with dense atoms:
    each update is the exact minimizer over one coordinate.  Stops early at a
    sweep that moves no coordinate by more than rounding."""
    d = prob.dictionary
    w, nu, lam, anchor = prob.weights, prob.ridge, prob.penalty, prob.anchor
    atoms = [d.apply(e) for e in np.eye(d.n_atoms)]
    quads = [np.sum(w * u * u) + nu for u in atoms]
    alpha = anchor.astype(float).copy()
    resid = prob.targets - d.apply(alpha)
    for _ in range(max_sweeps):
        before = alpha.copy()
        for k, (u, quad) in enumerate(zip(atoms, quads)):
            b = np.sum(w * u * resid) + alpha[k] * (quad - nu) + nu * anchor[k]
            new = np.sign(b) * max(abs(b) - lam / 2.0, 0.0) / quad
            resid -= (new - alpha[k]) * u
            alpha[k] = new
        if np.abs(alpha - before).max() <= 1e-15 * max(1.0, np.abs(alpha).max()):
            break
    return alpha


def random_lasso_problem(kind, seed):
    """A small problem on one dictionary structure; the first atom's cells and
    about a third of the rest get zero weight."""
    rng = np.random.default_rng(seed)
    m1, m2 = int(rng.integers(2, 7)), int(rng.integers(2, 6))
    shape = (m1, m2)
    if kind == "custom":
        atoms = []
        for _ in range(int(rng.integers(2, 9))):
            cells = rng.choice(m1 * m2, size=int(rng.integers(1, 5)), replace=False)
            atoms.append(
                [(int(c) // m2, int(c) % m2, float(rng.uniform(-1, 1))) for c in cells]
            )
        d = CustomDictionary(atoms, shape)
    elif kind == "rowcol":
        d = RowColumnDictionary(shape)
    elif kind == "groups":
        h = int(rng.integers(1, m1 + 1))
        labels = rng.permutation(equal_group_assignment(m1, h))
        d = GroupEffectsDictionary(labels, shape)
    else:
        n = int(rng.integers(1, m1 * m2 + 1))
        cells = rng.choice(m1 * m2, size=n, replace=False)
        d = CorruptionsDictionary([(int(c) // m2, int(c) % m2) for c in cells], shape)
    weights = rng.uniform(0.2, 2.0, shape) * (rng.random(shape) > 0.3)
    weights[d.apply(np.eye(d.n_atoms)[0]) != 0] = 0.0
    return WeightedLassoProblem(
        d,
        weights,
        2.0 * rng.standard_normal(shape),
        ridge=float(rng.uniform(0.1, 1.0)),
        anchor=0.5 * rng.standard_normal(d.n_atoms),
        penalty=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
    )


class TestLassoRuns:
    """The block sweep against the per-atom cyclic sweep it stands for."""

    @given(
        kind=st.sampled_from(["custom", "rowcol", "groups", "corruptions"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_atom_cyclic_descent(self, kind, seed):
        prob = random_lasso_problem(kind, seed)
        # a tolerance this loose is met by the first sweep's KKT residual
        one_sweep = solve_weighted_lasso(prob, tol=1e300)
        expected = cyclic_cd(prob)
        scale = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(one_sweep, expected, rtol=0, atol=1e-12 * scale)
        solution = solve_weighted_lasso(prob, tol=1e-14)
        expected = cyclic_cd(prob, max_sweeps=5000)
        scale = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(solution, expected, rtol=0, atol=1e-12 * scale)

    def test_rowcol_splits_rows_from_columns(self):
        assert RowColumnDictionary((5, 4)).atom_supports.runs == ((0, 5), (5, 9))

    def test_groups_form_one_run(self):
        # unsigned labels must still give integer atom indices
        d = GroupEffectsDictionary(np.array([0, 1, 2, 1, 0], dtype=np.uint64), (5, 3))
        assert d.atom_supports.runs == ((0, 9),)
        np.testing.assert_array_equal(
            d.atom_supports.owner, [0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 4, 5, 0, 1, 2]
        )

    def test_custom_order_sets_the_runs(self):
        atoms = [
            [(0, 0, 1.0)],
            [(0, 1, 1.0)],
            [(0, 0, 0.5), (1, 1, 1.0)],  # touches atom 0
            [(1, 0, 1.0)],
            [(1, 1, -1.0)],  # touches atom 2
        ]
        d = CustomDictionary(atoms, (2, 2))
        assert d.atom_supports.runs == ((0, 2), (2, 4), (4, 5))


SVT_CASES = [
    ((40, 12), "normal", ("between", 3), False),
    ((12, 40), "normal", ("between", 3), False),
    ((20, 20), "normal", ("between", 9), False),
    ((30, 20), [5.0, 4.0, 3.0, 2.0, 1.0], ("value", 1.5), False),
    ((10, 6), "zero", ("value", 1.0), False),
    ((10, 6), "zero", ("value", 0.0), False),
    ((40, 12), "normal", ("value", 0.0), True),
    ((40, 12), "normal", ("top", 1.5), False),
    ((25, 15), [3.0 + 2e-9, 3.0 + 1e-9, 3.0, 1.0, 0.5], ("value", 2.0), False),
    ((40, 12), "normal", ("top", 1e-5), True),
    ((300, 250), "rank3", ("value", 2.0), False),
    ((300, 250), "rank3", ("value", 0.01), True),
]
SVT_IDS = [
    "tall", "wide", "square", "rank-deficient", "zero", "zero-at-zero",
    "zero-threshold", "above-top", "near-equal", "tiny-threshold",
    "low-rank-300x250", "low-rank-300x250-tiny",
]


def spy_eigensolvers(monkeypatch):
    """Record which eigensolver decomposes each Gram matrix: scipy's ``eigh``
    with its LAPACK driver, or numpy's ``eigh``."""
    calls = []
    scipy_eigh, numpy_eigh = scipy.linalg.eigh, np.linalg.eigh

    def spy_scipy(*args, **kwargs):
        calls.append(f"scipy-{kwargs.get('driver')}")
        return scipy_eigh(*args, **kwargs)

    def spy_numpy(*args, **kwargs):
        calls.append("numpy")
        return numpy_eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy_scipy)
    monkeypatch.setattr(np.linalg, "eigh", spy_numpy)
    return calls


class TestSvt:
    def test_diagonal_example(self):
        a = np.diag([5.0, 3.0, 1.0])
        out = soft_threshold_singular_values(a, 2.0)
        np.testing.assert_allclose(out, np.diag([3.0, 1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self, rng):
        a = rng.standard_normal((6, 4))
        np.testing.assert_allclose(
            soft_threshold_singular_values(a, 0.0), a, atol=1e-12
        )

    def test_threshold_above_top_singular_value_zeroes(self, rng):
        a = rng.standard_normal((4, 6))
        top = np.linalg.svd(a, compute_uv=False)[0]
        out = soft_threshold_singular_values(a, top * 1.0001)
        np.testing.assert_array_equal(out, 0.0)

    def test_nuclear_norm_after_shrink(self, rng):
        a = rng.standard_normal((5, 5))
        svals = np.linalg.svd(a, compute_uv=False)
        lam = float(np.median(svals))
        out = soft_threshold_singular_values(a, lam)
        got = np.linalg.svd(out, compute_uv=False).sum()
        assert got == pytest.approx(np.maximum(svals - lam, 0).sum(), abs=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            soft_threshold_singular_values(np.array([[np.inf]]), 1.0)
        for bad in (-1.0, np.nan):
            with pytest.raises(InvalidInputError, match="threshold"):
                soft_threshold_singular_values(np.eye(2), bad)

    @pytest.mark.parametrize(
        "shape, spectrum, threshold, fallback, eigensolver",
        [case + ("scipy-evd",) for case in SVT_CASES]
        + [case + ("numpy",) for case in SVT_CASES],
        # The numpy-branch ids keep the "-hinted" suffix they had when the
        # second branch was scipy's rank-hinted evr, so case names stay stable.
        ids=SVT_IDS + [f"{name}-hinted" for name in SVT_IDS],
    )
    def test_matches_lapack_svt(
        self, rng, monkeypatch, shape, spectrum, threshold, fallback, eigensolver
    ):
        """The Gram SVT (or its LAPACK fallback) equals a LAPACK SVT to 1e-12
        relative, shrink sums and rank included; the fallback runs exactly
        where the threshold is too small a fraction of sigma_1.  Each case
        runs on both sides of the eigensolver boundary, moved above or below
        its short side."""
        m1, m2 = shape
        if spectrum == "normal":
            a = rng.standard_normal(shape)
        elif spectrum == "zero":
            a = np.zeros(shape)
        elif spectrum == "rank3":
            a = rng.standard_normal((m1, 3)) @ rng.standard_normal((3, m2))
        else:
            q1 = np.linalg.qr(rng.standard_normal((m1, len(spectrum))))[0]
            q2 = np.linalg.qr(rng.standard_normal((m2, len(spectrum))))[0]
            a = (q1 * spectrum) @ q2.T
        u, svals, vt = scipy_svd(a, full_matrices=False, lapack_driver="gesvd")
        kind, value = threshold
        if kind == "between":
            lam = 0.5 * (svals[value] + svals[value + 1])
        elif kind == "top":
            lam = value * svals[0]
        else:
            lam = value
        shrunk = np.maximum(svals - lam, 0.0)
        expected = (u * shrunk) @ vt

        lapack_calls = []
        full_svd = subsolvers._full_svd
        monkeypatch.setattr(
            subsolvers, "_full_svd", lambda x: lapack_calls.append(1) or full_svd(x)
        )
        boundary = 0 if eigensolver == "numpy" else min(shape) + 1
        monkeypatch.setattr(subsolvers, "_NUMPY_EIGH_MIN_N", boundary)
        calls = spy_eigensolvers(monkeypatch)
        out, shrink_sum, rank, shrink_sq = subsolvers._svt_with_diagnostics(a, lam)
        assert calls == [eigensolver]
        scale = svals[0]
        assert np.abs(out - expected).max() <= 1e-12 * scale
        assert abs(shrink_sum - shrunk.sum()) <= 1e-12 * max(scale, shrunk.sum())
        assert abs(np.sqrt(shrink_sq) - np.linalg.norm(shrunk)) <= 1e-12 * scale
        assert rank == int(np.sum(shrunk > 0))
        assert bool(lapack_calls) == fallback
        buffer = np.empty(shape)
        again = subsolvers._svt_with_diagnostics(a, lam, out=buffer)
        assert again[0] is buffer
        np.testing.assert_array_equal(buffer, out)
        assert again[1:] == (shrink_sum, rank, shrink_sq)
        np.testing.assert_array_equal(soft_threshold_singular_values(a, lam), out)

    @pytest.mark.parametrize(
        "shape, eigensolver",
        [
            ((300, 99), "scipy-evd"),
            ((99, 300), "scipy-evd"),
            ((300, 100), "numpy"),
            ((100, 300), "numpy"),
        ],
        ids=["99-tall", "99-wide", "100-tall", "100-wide"],
    )
    def test_eigensolver_boundary(self, rng, monkeypatch, shape, eigensolver):
        """A short side of 100 or more goes to numpy's eigh, a shorter one to
        scipy's divide and conquer."""
        a = rng.standard_normal(shape)
        calls = spy_eigensolvers(monkeypatch)
        subsolvers._svt_with_diagnostics(a, 1.0)
        soft_threshold_singular_values(a, 1.0)
        assert calls == [eigensolver] * 2

    @given(seed=st.integers(0, 10_000), lam=st.floats(0.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_lipschitz_in_frobenius(self, seed, lam):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        lhs = np.linalg.norm(
            soft_threshold_singular_values(a, lam)
            - soft_threshold_singular_values(b, lam)
        )
        assert lhs <= np.linalg.norm(a - b) + 1e-10


class TestWeightedNuclear:
    def test_uniform_weights_single_step_is_svt(self, rng):
        shape = (6, 4)
        z = rng.standard_normal(shape)
        c = 1.7
        prob = WeightedNuclearProblem(np.full(shape, c), z, penalty=0.9)
        res = solve_weighted_nuclear(prob, tol=1e-12, max_iter=10)
        assert res.converged
        expected = soft_threshold_singular_values(z, 0.9 / (2 * c))
        np.testing.assert_allclose(res.matrix, expected, atol=1e-10)

    def test_zero_penalty_returns_targets(self, rng):
        shape = (5, 4)
        z = rng.standard_normal(shape)
        w = rng.uniform(0.5, 2.0, shape)
        prob = WeightedNuclearProblem(w, z, penalty=0.0)
        res = solve_weighted_nuclear(prob, tol=1e-10, max_iter=500)
        assert res.converged
        np.testing.assert_allclose(res.matrix, z, atol=1e-6)

    def test_subgradient_descent_oracle(self):
        """An independent million-step subgradient run brackets the optimum."""
        rng = np.random.default_rng(42)
        shape = (5, 4)
        w = rng.uniform(0.5, 2.0, shape)
        z = rng.standard_normal(shape)
        lam = 0.8
        prob = WeightedNuclearProblem(w, z, penalty=lam)
        em = solve_weighted_nuclear(prob, tol=1e-13, max_iter=500)
        assert em.converged
        em_obj = weighted_nuclear_objective(prob, em.matrix)

        mu = 2.0 * w.min()
        current = np.zeros(shape)
        best = np.inf
        for k in range(1_000_000):
            u, s, vt = scipy_svd(
                current, full_matrices=False, check_finite=False,
                lapack_driver="gesdd",
            )
            val = float(np.sum(w * (z - current) ** 2) + lam * s.sum())
            if val < best:
                best = val
            subgrad = 2.0 * w * (current - z) + lam * (u @ vt)
            current = current - (2.0 / (mu * (k + 2))) * subgrad
        assert abs(em_obj - best) <= 1e-6

    def test_em_iterations_never_increase_objective(self, rng):
        """Tighter stopping always lands at an equal-or-better objective."""
        shape = (6, 5)
        w = rng.uniform(0.1, 3.0, shape)
        z = rng.standard_normal(shape)
        prob = WeightedNuclearProblem(w, z, penalty=1.2)
        prev = np.inf
        for max_iter in (1, 2, 5, 20, 200):
            out = solve_weighted_nuclear(prob, tol=1e-14, max_iter=max_iter).matrix
            val = weighted_nuclear_objective(prob, out)
            assert val <= prev + 1e-10
            prev = val

    def test_stationarity_operator_norm_bound(self, rng):
        shape = (7, 5)
        w = rng.uniform(0.4, 1.5, shape)
        z = rng.standard_normal(shape)
        lam = 1.0
        prob = WeightedNuclearProblem(w, z, penalty=lam)
        res = solve_weighted_nuclear(prob, tol=1e-12, max_iter=2000)
        assert res.converged
        resid_grad = 2.0 * w * (res.matrix - z)
        opnorm = np.linalg.svd(resid_grad, compute_uv=False)[0]
        assert opnorm <= lam + 1e-6

    def test_weight_rescaling_is_exact(self, rng):
        """Scaling all weights and the penalty together changes nothing."""
        shape = (5, 4)
        w = rng.uniform(0.5, 2.0, shape)
        z = rng.standard_normal(shape)
        a = solve_weighted_nuclear(
            WeightedNuclearProblem(w, z, penalty=0.7), tol=1e-12, max_iter=500
        )
        b = solve_weighted_nuclear(
            WeightedNuclearProblem(10 * w, z, penalty=7.0), tol=1e-12, max_iter=500
        )
        assert a.converged and b.converged
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-9)

    @pytest.mark.parametrize("warm", [False, True])
    def test_returned_nuclear_norm_and_iterations(self, rng, warm):
        """The EM returns its iterate's nuclear norm (the last shrink sum), the
        iterations it ran, and whether it stopped before the cap."""
        shape = (30, 8)
        w = rng.uniform(0.2, 2.0, shape)
        z = rng.standard_normal(shape)
        prob = WeightedNuclearProblem(w, z, penalty=1.5)
        init = rng.standard_normal(shape) if warm else None
        init_nuclear = nuclear_norm(init) if warm else None
        res = solve_weighted_nuclear(
            prob, tol=1e-10, max_iter=500, init=init, init_nuclear=init_nuclear
        )
        assert res.converged and 1 <= res.n_iter < 500
        assert res.nuclear == pytest.approx(nuclear_norm(res.matrix), rel=1e-12)
        capped = solve_weighted_nuclear(
            prob, tol=1e-14, max_iter=2, init=init, init_nuclear=init_nuclear
        )
        assert not capped.converged and capped.n_iter == 2
        assert capped.nuclear == pytest.approx(nuclear_norm(capped.matrix), rel=1e-12)

    def test_cap_returns_unconverged(self, rng):
        shape = (5, 4)
        w = rng.uniform(0.01, 2.0, shape)
        z = rng.standard_normal(shape)
        prob = WeightedNuclearProblem(w, z, penalty=0.5)
        res = solve_weighted_nuclear(prob, tol=1e-14, max_iter=2)
        assert res.converged is False and res.n_iter == 2

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(InvalidInputError):
            WeightedNuclearProblem(np.zeros((2, 2)), np.ones((2, 2)), penalty=0.1)
        with pytest.raises(InvalidInputError):
            WeightedNuclearProblem(
                np.array([[1.0, -0.5], [1.0, 1.0]]), np.ones((2, 2)), penalty=0.1
            )

    def test_zero_weights_allowed(self, rng):
        """0/1 weights are an observation mask: the EM never reads the
        targets at zero weight."""
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0],
                         [1.0, 0.0, 1.0]])
        z = rng.standard_normal(mask.shape)
        res = solve_weighted_nuclear(
            WeightedNuclearProblem(mask, z, penalty=0.3), tol=1e-12, max_iter=2000
        )
        z[mask == 0] = 1e3
        again = solve_weighted_nuclear(
            WeightedNuclearProblem(mask, z, penalty=0.3), tol=1e-12, max_iter=2000
        )
        assert res.converged
        np.testing.assert_array_equal(again.matrix, res.matrix)


def reference_em(prob, tol, max_iter, init=None):
    """The plain EM loop: fresh arrays each iteration, full eigendecompositions
    (no rank hint) and the iterate's norm taken from the iterate."""
    w_max = prob.weights.max()
    omega = prob.weights / w_max
    threshold = prob.penalty / (2.0 * w_max)
    current = np.zeros(prob.targets.shape) if init is None else init.copy()
    for n_iter in range(1, max_iter + 1):
        blended = (1.0 - omega) * current + omega * prob.targets
        new = soft_threshold_singular_values(blended, threshold)
        rel_change = np.linalg.norm(new - current) / max(1.0, np.linalg.norm(new))
        current = new
        if rel_change <= tol:
            break
    return current, n_iter


def plain_blend(prob, x):
    """The EM's blend at ``x``, in the solver's arithmetic: the input of a
    plain (unextrapolated) step from ``x``."""
    return (prob.targets - x) * prob.weights / prob.weights.max() + x


def traced_em(prob, monkeypatch, init=None, **kwargs):
    """Run the EM with its SVTs and objective evaluations recorded.

    Returns the solve, the initial objective, and one record per SVT:
    (input, output, the solver's objective there).
    """
    svt = subsolvers._svt_with_diagnostics
    objective = subsolvers.weighted_nuclear_objective
    calls, values = [], []

    def spy_svt(a, lam, out=None):
        blend = a.copy()  # the SVT may write its output over its input
        result = svt(a, lam, out=out)
        calls.append((blend, result[0].copy()))
        return result

    def spy_objective(*args, **kw):
        values.append(objective(*args, **kw))
        return values[-1]

    monkeypatch.setattr(subsolvers, "_svt_with_diagnostics", spy_svt)
    monkeypatch.setattr(subsolvers, "weighted_nuclear_objective", spy_objective)
    res = solve_weighted_nuclear(prob, init=init, **kwargs)
    monkeypatch.undo()
    assert len(values) == len(calls) + 1
    return res, values[0], [c + (v,) for c, v in zip(calls, values[1:])]


class TestEmBuffers:
    """The EM's buffer reuse changes no answer, its acceleration never loses
    to plain EM, and at this size its BLAS work stays in numpy's pool."""

    @staticmethod
    def low_rank_problem(seed=0):
        rng = np.random.default_rng(seed)
        shape = (300, 250)
        signal = 3.0 * rng.standard_normal((300, 3)) @ rng.standard_normal((3, 250))
        targets = signal + rng.standard_normal(shape)
        prob = WeightedNuclearProblem(rng.uniform(0.2, 2.0, shape), targets, 200.0)
        init = signal + 0.1 * rng.standard_normal(shape)
        return prob, init

    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_reference_loop(self, warm):
        """Bit for bit the accelerated loop on fresh arrays.  Against plain
        EM: no higher objective and no more iterations."""
        prob, init = self.low_rank_problem()
        init = init if warm else None
        expected, nuc, n_iter, converged = reference_accelerated_em(
            prob, 1e-8, 500, init
        )
        res = solve_weighted_nuclear(prob, tol=1e-8, max_iter=500, init=init)
        assert converged and res.converged and res.n_iter == n_iter
        assert 0 < np.linalg.matrix_rank(expected) < 250 // 8
        np.testing.assert_array_equal(res.matrix, expected)
        assert res.nuclear == nuc

        value = weighted_nuclear_objective(prob, res.matrix)
        plain, plain_iter = reference_em(prob, 1e-8, 500, init)
        bound = weighted_nuclear_objective(prob, plain)
        assert value <= bound + 1e-12 * max(1.0, abs(bound))
        assert res.n_iter <= plain_iter

    def test_inputs_untouched_and_result_owned(self):
        prob, init = self.low_rank_problem()
        before = [a.copy() for a in (init, prob.weights, prob.targets)]
        res = solve_weighted_nuclear(
            prob, tol=1e-8, max_iter=500, init=init, init_nuclear=nuclear_norm(init)
        )
        assert res.converged
        for a, b in zip((init, prob.weights, prob.targets), before):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(res.matrix, a)
        again = solve_weighted_nuclear(
            prob, tol=1e-8, max_iter=500, init=init, init_nuclear=nuclear_norm(init)
        )
        np.testing.assert_array_equal(again.matrix, res.matrix)
        assert (again.nuclear, again.n_iter) == (res.nuclear, res.n_iter)

    def test_accepted_objectives_descend_and_restarts_fire(self, monkeypatch):
        """Steps are classified by their input: a plain step's is the blend
        at the last accepted iterate.  An extrapolated step above the
        current objective is dropped and the next step is plain from the
        same iterate; every other step is accepted."""
        prob, init = self.low_rank_problem()
        res, value, steps = traced_em(
            prob, monkeypatch, init=init, tol=1e-8, max_iter=500
        )
        accepted, values, restarts, must_be_plain = init, [value], 0, True
        for blend, out, value in steps:
            plain = np.array_equal(blend, plain_blend(prob, accepted))
            assert plain or not must_be_plain
            if not plain and value > values[-1]:
                restarts += 1
                must_be_plain = True
                continue
            accepted, must_be_plain = out, False
            values.append(value)
        assert restarts >= 1 and len(steps) == res.n_iter
        assert all(b <= a for a, b in zip(values, values[1:]))
        np.testing.assert_array_equal(res.matrix, accepted)
        fresh = float(np.sum(prob.weights * (prob.targets - accepted) ** 2))
        fresh += prob.penalty * nuclear_norm(accepted)
        assert values[-1] == pytest.approx(fresh, rel=1e-12)

    def test_stops_on_the_step_from_the_point(self, monkeypatch):
        """The last accepted step is extrapolated, from y = x_k + beta
        (x_k - x_{k-1}), and the EM stops on ||x - y|| <= tol max(1, ||x||),
        though the change from x_k, which carries the momentum, is larger."""
        prob, init = self.low_rank_problem()
        tol = 1e-8
        res, value, steps = traced_em(
            prob, monkeypatch, init=init, tol=tol, max_iter=500
        )
        assert res.converged
        accepted, values = [init], [value]
        for blend, out, value in steps:
            if value <= values[-1] or np.array_equal(
                blend, plain_blend(prob, accepted[-1])
            ):
                accepted.append(out)
                values.append(value)
        before, last = accepted[-3], accepted[-2]
        blend, x = steps[-1][0], steps[-1][1]
        np.testing.assert_array_equal(x, res.matrix)
        # blend(y) - blend(x_k) = (1 - omega) o (y - x_k),
        # and y - x_k = beta (x_k - x_{k-1})
        shrink = 1.0 - prob.weights / prob.weights.max()
        moved = shrink * (last - before)
        beta = np.vdot(blend - plain_blend(prob, last), moved) / np.vdot(moved, moved)
        assert beta > 0
        point = last + beta * (last - before)
        scale = tol * max(1.0, np.linalg.norm(x))
        assert np.linalg.norm(x - point) <= scale < np.linalg.norm(x - last)

    def test_calls_no_scipy_linalg(self, monkeypatch):
        """scipy bundles its own OpenBLAS, a second thread pool, so at a short
        side of 100 or more the EM calls no ``scipy.linalg`` function."""
        prob, init = self.low_rank_problem()
        called = []

        def spy(name, fn):
            return lambda *args, **kw: called.append(name) or fn(*args, **kw)

        for name in dir(scipy.linalg):
            fn = getattr(scipy.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(scipy.linalg, name, spy(name, fn))
        for warm in (None, init):
            res = solve_weighted_nuclear(prob, tol=1e-8, max_iter=500, init=warm)
            assert res.converged and res.n_iter > 1
        assert called == []


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "kind, name",
        [
            ("lasso", "weights"),
            ("lasso", "targets"),
            ("lasso", "anchor"),
            ("nuclear", "weights"),
            ("nuclear", "targets"),
        ],
    )
    def test_rejected_at_construction(self, kind, name, bad):
        shape = (2, 2)
        arrays = {
            "weights": np.ones(shape),
            "targets": np.ones(shape),
            "anchor": np.zeros(4),
        }
        arrays[name].flat[1] = bad
        with pytest.raises(InvalidInputError, match=name):
            if kind == "lasso":
                WeightedLassoProblem(
                    all_cells_corruptions(shape), arrays["weights"],
                    arrays["targets"], ridge=1.0, anchor=arrays["anchor"],
                    penalty=0.1,
                )
            else:
                WeightedNuclearProblem(
                    arrays["weights"], arrays["targets"], penalty=0.1
                )

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["lasso", "nuclear"])
    def test_bad_penalty_rejected(self, kind, bad):
        shape = (2, 2)
        with pytest.raises(InvalidInputError, match="^penalty must be finite"):
            if kind == "lasso":
                WeightedLassoProblem(
                    all_cells_corruptions(shape), np.ones(shape), np.ones(shape),
                    ridge=1.0, anchor=np.zeros(4), penalty=bad,
                )
            else:
                WeightedNuclearProblem(np.ones(shape), np.ones(shape), penalty=bad)

    @pytest.mark.parametrize(
        "bad_init, init_nuclear, name",
        [
            (np.nan, None, "init"),
            (np.nan, 1.0, "init"),
            (np.inf, 1.0, "init"),
            (None, np.nan, "init_nuclear"),
            (None, np.inf, "init_nuclear"),
            (None, -1.0, "init_nuclear"),
        ],
    )
    def test_warm_start_rejected(self, bad_init, init_nuclear, name):
        prob = WeightedNuclearProblem(np.ones((3, 2)), np.ones((3, 2)), penalty=0.1)
        init = np.eye(3, 2)
        if bad_init is not None:
            init[1, 1] = bad_init
        with pytest.raises(InvalidInputError, match=f"^{name} "):
            solve_weighted_nuclear(prob, init=init, init_nuclear=init_nuclear)
