"""Outer solver: step mechanics, fixed points, and an independent reference."""

import dataclasses

import numpy as np
import pytest

from splr import bcgd, expfam
from splr.bcgd import ModelFit, SolverConfig, alpha_step, fit, impute, l_step
from splr.dictionary import (
    CorruptionsDictionary,
    GroupEffectsDictionary,
    RowColumnDictionary,
    equal_group_assignment,
)
from splr.exceptions import (
    ConvergenceError,
    FitAbortedError,
    InternalConsistencyError,
    InvalidInputError,
    ShapeMismatchError,
)
from splr.expfam import LinkSpec
from splr.frame import ColumnType, MixedDataFrame
from splr.selection import default_grid
from splr.simulate import SimDesign, simulate_instance
from splr.subsolvers import nuclear_norm
from conftest import (
    at_observed,
    gaussian_prox_gradient_reference,
    make_mixed_instance,
    record_results,
)
from test_acceptance import _random_solver_instance


def gaussian_frame(rng, m1, m2, p_obs=1.0, sigma2=1.0):
    y = rng.standard_normal((m1, m2)) * 1.5
    mask = rng.random((m1, m2)) < p_obs
    if not mask.any():
        mask[0, 0] = True
    frame = MixedDataFrame(
        tuple(f"c{j}" for j in range(m2)),
        (ColumnType.NUMERIC,) * m2,
        y,
        mask,
    )
    return frame, [LinkSpec.gaussian(sigma2)] * m2


def groups_dict(m1, m2, h=3):
    return GroupEffectsDictionary(equal_group_assignment(m1, h), (m1, m2))


def tight_l_step(frame, links, d, state, config):
    """An L-step whose EM runs to ``config.nuclear_tol``."""
    return l_step(frame, links, d, state, config,
                  nuclear_norm(state.low_rank), config.nuclear_tol)


def spy_directions(monkeypatch):
    """The last direction each block step handed to the Armijo rule, by the
    step's name ("alpha-step", "L-step")."""
    seen, armijo = {}, bcgd._armijo

    def spy(state, config, name, block, direction, *rest):
        seen[name] = direction.copy()
        return armijo(state, config, name, block, direction, *rest)

    monkeypatch.setattr(bcgd, "_armijo", spy)
    return seen


class TestObjective:
    def test_all_zero(self):
        frame = MixedDataFrame(
            ("a",), (ColumnType.NUMERIC,), np.zeros((3, 1)),
            np.ones((3, 1), dtype=bool),
        )
        d = RowColumnDictionary((3, 1))
        val = bcgd.objective(
            np.zeros(4), np.zeros((3, 1)), frame, [LinkSpec.gaussian()], d, 1.0, 1.0
        )
        assert val == 0.0

    def test_no_penalty_equals_data_fit(self, rng):
        frame, links = gaussian_frame(rng, 5, 4, p_obs=0.8)
        d = groups_dict(5, 4)
        alpha = rng.standard_normal(d.n_atoms)
        low = rng.standard_normal((5, 4))
        val = bcgd.objective(alpha, low, frame, links, d, 0.0, 0.0)
        x = d.apply(alpha) + low
        assert val == pytest.approx(
            at_observed(expfam.quasi_loglik_neg, x, frame, links), abs=1e-12
        )

    def test_nuclear_term_vs_svd_oracle(self, rng):
        frame, links = gaussian_frame(rng, 5, 4)
        d = groups_dict(5, 4)
        alpha = rng.standard_normal(d.n_atoms)
        low = rng.standard_normal((5, 4))
        lam1 = 0.7
        with_pen = bcgd.objective(alpha, low, frame, links, d, lam1, 0.0)
        without = bcgd.objective(alpha, low, frame, links, d, 0.0, 0.0)
        svd_sum = np.linalg.svd(low, compute_uv=False).sum()
        assert with_pen - without == pytest.approx(lam1 * svd_sum, abs=1e-10)

    def test_parameter_matrix_must_match_the_frame(self, rng):
        """A dictionary or low-rank block of another shape is an error, not
        a data fit read from the wrong cells or a bare numpy error."""
        frame, links = gaussian_frame(rng, 5, 4)
        config = SolverConfig(lam1=0.1, lam2=0.1)
        match = r"parameter matrix shape \(6, 4\) .* != frame shape \(5, 4\)"
        with pytest.raises(ShapeMismatchError, match=match):
            bcgd.objective(np.zeros(12), np.zeros((6, 4)), frame, links,
                           groups_dict(6, 4), 0.0, 0.0)
        with pytest.raises(ShapeMismatchError, match=match):
            fit(frame, links, groups_dict(6, 4), config)
        # a 1-d block broadcasts to the frame's shape
        with pytest.raises(ShapeMismatchError, match=r"low-rank block \(4,\)"):
            fit(frame, links, groups_dict(5, 4), config,
                init=(np.zeros(12), np.zeros(4)))


class TestAlphaStep:
    def test_zero_direction_is_noop(self, rng):
        frame, links = gaussian_frame(rng, 6, 4)
        d = groups_dict(6, 4)
        config = SolverConfig(lam1=0.1, lam2=1e9)  # total shrinkage keeps alpha at 0
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms), np.zeros((6, 4)))
        res = alpha_step(frame, links, d, state, config)
        assert res.tau == 0.0
        assert res.model_decrease == 0.0
        np.testing.assert_array_equal(res.state.alpha, state.alpha)

    def test_normal_equations_oracle(self, rng, monkeypatch):
        """One step from zero on a fully observed Gaussian problem lands near
        the least-squares fit of the data onto the dictionary."""
        frame, links = gaussian_frame(rng, 9, 4)
        d = groups_dict(9, 4, h=3)
        design = np.zeros((36, d.n_atoms))
        for k in range(d.n_atoms):
            unit = np.zeros(d.n_atoms)
            unit[k] = 1.0
            design[:, k] = d.apply(unit).ravel()
        ls_alpha = np.linalg.lstsq(design, frame.y_filled.ravel(), rcond=None)[0]
        monkeypatch.setattr(SolverConfig, "nu", 1e-8)
        config = SolverConfig(lam1=0.0, lam2=0.0)
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms), np.zeros((9, 4)))
        res = alpha_step(frame, links, d, state, config)
        assert np.linalg.norm(res.state.alpha - ls_alpha) <= 0.1 * np.linalg.norm(
            ls_alpha
        )

    def test_full_step_accepted_on_quadratic(self, rng, monkeypatch):
        """Well-conditioned quadratic: the unit step passes the decrease test,
        verified by direct evaluation of both sides."""
        frame, links = gaussian_frame(rng, 8, 3)
        d = groups_dict(8, 3, h=2)
        monkeypatch.setattr(SolverConfig, "nu", 1e-6)
        config = SolverConfig(lam1=0.0, lam2=0.05)
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms), np.zeros((8, 3)))
        res = alpha_step(frame, links, d, state, config)
        assert res.tau == 1.0
        lhs = at_observed(
            expfam.quasi_loglik_neg, d.apply(res.state.alpha) + state.low_rank,
            frame, links,
        ) + config.lam2 * np.abs(res.state.alpha).sum()
        rhs = (
            state.data_fit
            + config.lam2 * np.abs(state.alpha).sum()
            + config.slope * res.model_decrease
        )
        assert lhs <= rhs + 1e-12

    def test_model_decrease_bound(self, rng, monkeypatch):
        """Predicted decrease is at most -nu * ||d||^2."""
        frame, links, _ = make_mixed_instance(3, m1=8, m2=6, p_obs=0.8)
        d = groups_dict(8, 6, h=4)
        config = SolverConfig(lam1=0.2, lam2=0.1)
        state = bcgd.make_state(
            frame, links, d, np.zeros(d.n_atoms), np.zeros((8, 6))
        )
        directions = spy_directions(monkeypatch)
        res = alpha_step(frame, links, d, state, config)
        dir_sq = float(np.sum(directions["alpha-step"]**2))
        assert dir_sq > 0
        bound = -config.nu * dir_sq
        assert res.model_decrease <= bound + 1e-12


class TestLStep:
    def test_zero_direction_is_noop(self, rng):
        frame, links = gaussian_frame(rng, 6, 4)
        d = groups_dict(6, 4)
        config = SolverConfig(lam1=1e9, lam2=0.1)
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms), np.zeros((6, 4)))
        res = tight_l_step(frame, links, d, state, config)
        assert res.tau == 0.0
        assert res.model_decrease == 0.0
        assert res.penalty == 0.0

    def test_unpenalized_descent(self, rng, monkeypatch):
        frame, links = gaussian_frame(rng, 7, 5)
        d = groups_dict(7, 5)
        monkeypatch.setattr(SolverConfig, "nu", 1e-4)
        config = SolverConfig(lam1=0.0, lam2=0.0)
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms), np.zeros((7, 5)))
        res = tight_l_step(frame, links, d, state, config)
        assert res.state.data_fit < state.data_fit

    def test_uniform_weight_blended_svt_oracle(self, rng, monkeypatch):
        """Fully observed binary data at the zero state has constant curvature;
        the subproblem solution must equal one closed-form singular-value
        shrink of the blended target."""
        m1, m2 = 7, 5
        y = (rng.random((m1, m2)) < 0.5).astype(float)
        frame = MixedDataFrame(
            tuple(f"c{j}" for j in range(m2)),
            (ColumnType.BINARY,) * m2,
            y,
            np.ones((m1, m2), dtype=bool),
        )
        links = [LinkSpec.bernoulli()] * m2
        d = groups_dict(m1, m2)
        lam1 = 0.6
        config = SolverConfig(lam1=lam1, lam2=0.0)
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms), np.zeros((m1, m2)))
        solves = record_results(monkeypatch, bcgd, "solve_weighted_nuclear")
        tight_l_step(frame, links, d, state, config)

        w = 0.125  # binary curvature at zero, halved
        wt = config.nu + w
        working = (y - 0.5) / 0.25
        blended = (w * working) / wt
        u, s, vt = np.linalg.svd(blended, full_matrices=False)
        shrunk = np.maximum(s - lam1 / (2 * wt), 0.0)
        oracle = (u * shrunk) @ vt
        assert len(solves) == 1
        np.testing.assert_allclose(solves[0].matrix, oracle, atol=1e-10)

    def test_model_decrease_bound(self, rng, monkeypatch):
        frame, links, _ = (*make_mixed_instance(8, m1=9, m2=6, p_obs=0.7),)
        d = groups_dict(9, 6)
        config = SolverConfig(lam1=0.3, lam2=0.0)
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms), np.zeros((9, 6)))
        directions = spy_directions(monkeypatch)
        res = tight_l_step(frame, links, d, state, config)
        dir_sq = float(np.sum(directions["L-step"]**2))
        assert dir_sq > 0
        assert res.model_decrease <= -config.nu * dir_sq + 1e-12


class TestFit:
    def test_gaussian_identity_fixed_point(self, rng):
        for sigma2 in (1.0, 2.0):
            frame, links = gaussian_frame(rng, 8, 5, sigma2=sigma2)
            d = groups_dict(8, 5)
            config = SolverConfig(
                lam1=0.0, lam2=0.0, eps_f=1e-12, max_outer=500
            )
            result = fit(frame, links, d, config)
            np.testing.assert_allclose(
                result.x_hat, frame.y_filled / sigma2, atol=1e-4
            )

    def test_poisson_log_mean_fixed_point(self):
        m1, m2 = 6, 4
        frame = MixedDataFrame(
            tuple(f"c{j}" for j in range(m2)),
            (ColumnType.COUNT,) * m2,
            np.full((m1, m2), 2.0),
            np.ones((m1, m2), dtype=bool),
        )
        links = [LinkSpec.poisson()] * m2
        d = groups_dict(m1, m2)
        config = SolverConfig(lam1=0.0, lam2=0.0, eps_f=1e-12, max_outer=500)
        result = fit(frame, links, d, config)
        np.testing.assert_allclose(result.x_hat, np.log(2.0), atol=1e-4)

    @pytest.mark.parametrize("seed", range(8))
    def test_descent_invariant_random_mixed(self, seed):
        frame, links, _ = make_mixed_instance(
            seed + 100, m1=12, m2=6, p_obs=0.6
        )
        d = groups_dict(12, 6)
        config = SolverConfig(lam1=0.4, lam2=0.2, max_outer=40)
        result = fit(frame, links, d, config)
        diffs = np.diff(result.objective_trace)
        assert np.all(diffs <= 1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prox_gradient_reference(self, seed):
        """Final objective matches an independent long-run accelerated
        proximal-gradient solve of the identical objective."""
        rng = np.random.default_rng(seed)
        frame, links = gaussian_frame(rng, 8, 6, p_obs=0.75)
        d = groups_dict(8, 6, h=2)
        lam1, lam2 = 0.8, 0.4
        config = SolverConfig(
            lam1=lam1, lam2=lam2, eps_f=1e-13, max_outer=3000
        )
        result = fit(frame, links, d, config)
        reference = gaussian_prox_gradient_reference(
            frame, links, d, lam1, lam2, n_iter=6000
        )
        ours = result.objective_trace[-1]
        assert abs(ours - reference) <= 1e-5 * max(1.0, abs(reference))

    def test_reconstruction_identity(self, rng):
        frame, links = gaussian_frame(rng, 7, 4, p_obs=0.8)
        d = groups_dict(7, 4)
        result = fit(frame, links, d, SolverConfig(lam1=0.3, lam2=0.1, max_outer=30))
        np.testing.assert_array_equal(
            result.x_hat, d.apply(result.alpha_hat) + result.l_hat
        )
        # the fit keeps l_hat only: x_hat is a fresh array on each read
        assert result.x_hat is not result.x_hat
        given = np.zeros(frame.shape)
        assert dataclasses.replace(result, x_hat=given).x_hat is given
        doubled = dataclasses.replace(result, x_hat=None, l_hat=2.0 * result.l_hat)
        np.testing.assert_array_equal(
            doubled.x_hat, d.apply(result.alpha_hat) + 2.0 * result.l_hat
        )

    def test_stationarity_at_convergence(self, rng):
        frame, links = gaussian_frame(rng, 10, 6)
        d = groups_dict(10, 6)
        lam1, lam2 = 0.9, 0.5
        config = SolverConfig(lam1=lam1, lam2=lam2, eps_f=1e-13, max_outer=4000)
        result = fit(frame, links, d, config)
        grad_x = at_observed(expfam.gradient, result.x_hat, frame, links)
        # alpha block: minimum-norm subgradient of the l1-composite
        grad_a = d.adjoint(grad_x)
        kkt = np.where(
            result.alpha_hat != 0.0,
            np.abs(grad_a + lam2 * np.sign(result.alpha_hat)),
            np.maximum(np.abs(grad_a) - lam2, 0.0),
        )
        assert kkt.max() <= 1e-4
        # L block: gradient operator norm capped by the nuclear penalty
        opnorm = np.linalg.svd(grad_x, compute_uv=False)[0]
        assert opnorm <= lam1 + 1e-4

    def test_permutation_equivariance(self, rng):
        frame, links = gaussian_frame(rng, 9, 5, p_obs=0.85)
        assignment = equal_group_assignment(9, 3)
        d = GroupEffectsDictionary(assignment, (9, 5))
        config = SolverConfig(lam1=0.5, lam2=0.3, max_outer=60)
        base = fit(frame, links, d, config)

        perm = np.random.default_rng(5).permutation(9)
        frame_p = MixedDataFrame(
            frame.column_names,
            frame.column_types,
            np.where(frame.mask, frame.y_filled, np.nan)[perm],
            frame.mask[perm],
        )
        d_p = GroupEffectsDictionary(assignment[perm], (9, 5))
        permuted = fit(frame_p, links, d_p, config)

        assert permuted.objective_trace[-1] == pytest.approx(
            base.objective_trace[-1], abs=1e-10
        )
        np.testing.assert_allclose(permuted.l_hat, base.l_hat[perm], atol=1e-8)

    def test_mask_zero_inertness(self, rng):
        frame, links, _ = make_mixed_instance(77, m1=8, m2=6, p_obs=0.6)
        junk = np.random.default_rng(1).standard_normal(frame.shape) * 50
        frame_b = MixedDataFrame(
            frame.column_names,
            frame.column_types,
            np.where(frame.mask, frame.y_filled, junk),
            frame.mask,
        )
        d = groups_dict(8, 6)
        config = SolverConfig(lam1=0.4, lam2=0.2, max_outer=25)
        fit_a = fit(frame, links, d, config)
        fit_b = fit(frame_b, links, d, config)
        assert np.array_equal(fit_a.x_hat, fit_b.x_hat)
        assert np.array_equal(fit_a.objective_trace, fit_b.objective_trace)

    def test_abort_attaches_partial_trace(self, rng, monkeypatch):
        # row and column atoms overlap, so one Lasso sweep cannot meet the
        # KKT tolerance and the alpha step fails with a ConvergenceError
        frame, links = gaussian_frame(rng, 8, 5, p_obs=0.5)
        d = RowColumnDictionary((8, 5))
        monkeypatch.setattr(SolverConfig, "lasso_max_iter", 1)
        config = SolverConfig(lam1=0.1, lam2=0.0, lasso_tol=1e-14, max_outer=10)
        with pytest.raises(FitAbortedError) as err:
            fit(frame, links, d, config)
        assert len(err.value.trace) >= 1
        assert isinstance(err.value.__cause__, ConvergenceError)

    def test_rowcol_lasso_reaches_kkt_stop(self):
        """Row and column atoms overlap, so each Lasso takes several full
        sweeps at the grid's smallest penalties; they reach the KKT stop well
        inside the sweep budget, and the fit does not abort."""
        design = SimDesign(m1=300, m2=30, s=10, r=3, p_obs=0.5, structure="rowcol",
                           col_layout="mixed", box=4.0, seed=1)
        inst = simulate_instance(design)
        grid = default_grid(inst.frame, inst.links, inst.dictionary,
                            n1=4, n2=4, decades=2.5)
        config = SolverConfig(lam1=grid.lambda1[-1], lam2=grid.lambda2[-1],
                              max_outer=1)
        result = fit(inst.frame, inst.links, inst.dictionary, config)
        assert result.n_iter == 1 and result.step_trace[0][0] > 0.0

    def test_nonconverged_flag(self, rng):
        frame, links = gaussian_frame(rng, 8, 5)
        d = groups_dict(8, 5)
        result = fit(frame, links, d, SolverConfig(lam1=0.05, lam2=0.05, max_outer=2))
        assert not result.converged
        assert result.n_iter == 2

    def test_model_decrease_bound_along_trajectory(self, rng, monkeypatch):
        """At every iteration, each block's predicted decrease is at most
        -nu * ||direction||^2 (tight inner tolerances)."""
        frame, links, _ = make_mixed_instance(55, m1=10, m2=6, p_obs=0.75)
        d = groups_dict(10, 6)
        config = SolverConfig(
            lam1=0.3, lam2=0.15, nuclear_tol=1e-10, nuclear_max_iter=3000,
            lasso_tol=1e-12,
        )
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms),
                                np.zeros((10, 6)))
        bound_scale = config.nu
        directions = spy_directions(monkeypatch)
        for _ in range(10):
            res_a = alpha_step(frame, links, d, state, config)
            if res_a.tau > 0:
                assert res_a.model_decrease <= -bound_scale * np.sum(
                    directions["alpha-step"]**2
                ) + 1e-12
            res_l = tight_l_step(frame, links, d, res_a.state, config)
            if res_l.tau > 0:
                assert res_l.model_decrease <= -bound_scale * np.sum(
                    directions["L-step"]**2
                ) + 1e-12
            state = res_l.state


class TestOuterExtrapolation:
    """Extrapolated outer iterates, kept only below F(x_k), with restart."""

    @staticmethod
    def crawling_instance():
        """A 30x8 mixed fit at a tenth of both anchors: its block steps crawl,
        so it tries extrapolations, keeps most and rejects a few."""
        frame, links, _ = make_mixed_instance(1, m1=30, m2=8, p_obs=0.7)
        d = groups_dict(30, 8)
        grid = default_grid(frame, links, d, n1=4, n2=4)
        config = SolverConfig(lam1=0.1 * grid.lambda1_max,
                              lam2=0.1 * grid.lambda2_max)
        return frame, links, d, config

    @staticmethod
    def spied_fit(monkeypatch, frame, links, d, config):
        """The fit with each trial's (beta, kept, nuclear_norm calls)."""
        trials, calls = [], [0]
        extrapolated, norm = bcgd._extrapolated, bcgd.nuclear_norm

        def spy_norm(a):
            calls[0] += 1
            return norm(a)

        def spy(*args):
            before = calls[0]
            out = extrapolated(*args)
            trials.append((args[7], out is not None, calls[0] - before))
            return out

        monkeypatch.setattr(bcgd, "nuclear_norm", spy_norm)
        monkeypatch.setattr(bcgd, "_extrapolated", spy)
        result = fit(frame, links, d, config)
        monkeypatch.undo()
        return result, trials

    def test_extrapolating_fit_descends(self, monkeypatch):
        result, trials = self.spied_fit(monkeypatch, *self.crawling_instance())
        assert result.converged
        assert np.all(np.diff(result.objective_trace) <= 0.0)
        assert result.extrapolations == sum(kept for _, kept, _ in trials) > 0
        assert result.report()["extrapolations"] == result.extrapolations
        # a kept trial moved L here, so it took exactly one exact norm
        assert all(calls == 1 for _, kept, calls in trials if kept)

    def test_rejected_trial_resets_momentum(self, monkeypatch):
        """After a rejection the next trial has the first positive beta of
        the FISTA sequence (t = 1 gives beta = 0 and no trial); after a kept
        trial the next beta is larger."""
        _, trials = self.spied_fit(monkeypatch, *self.crawling_instance())
        t2 = 0.5 * (1.0 + np.sqrt(5.0))
        first_beta = (t2 - 1.0) / (0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t2**2)))
        assert trials[0][0] == pytest.approx(first_beta, rel=1e-15)
        rejected = 0
        for (beta, kept, _), (next_beta, _, _) in zip(trials, trials[1:]):
            if kept:
                assert next_beta > beta
            else:
                rejected += 1
                assert next_beta == trials[0][0]
        assert rejected > 0

    def test_kept_trial_value_is_the_objective(self):
        """A fit cut right after its first kept trial ends at the
        extrapolated point, and its last trace value is the objective
        there."""
        frame, links, d, config = self.crawling_instance()
        for max_outer in range(1, 40):
            result = fit(frame, links, d,
                         dataclasses.replace(config, max_outer=max_outer))
            if result.extrapolations:
                break
        assert result.extrapolations == 1 and not result.converged
        final = bcgd.objective(result.alpha_hat, result.l_hat, frame, links, d,
                               config.lam1, config.lam2)
        assert result.objective_trace[-1] == pytest.approx(final, rel=1e-12)

    def test_unmoved_block_is_the_init_array(self, rng):
        """At the nuclear anchor L stays at its zero init, and the fit returns
        a read-only view of that array; read-only inits are read, never
        written."""
        frame, links = gaussian_frame(rng, 12, 6, p_obs=0.6)
        d = groups_dict(12, 6)
        grid = default_grid(frame, links, d, n1=2, n2=2)
        alpha0, l0 = np.zeros(d.n_atoms), np.zeros((12, 6))
        for block in (alpha0, l0):
            block.flags.writeable = False
        config = SolverConfig(lam1=2.0 * grid.lambda1_max,
                              lam2=0.1 * grid.lambda2_max)
        result = fit(frame, links, d, config, init=(alpha0, l0))
        assert result.converged and result.alpha_nonzeros() > 0
        assert np.shares_memory(result.l_hat, l0)
        assert not result.l_hat.flags.writeable
        assert not alpha0.any() and not l0.any()


class TestRoundingZeroStep:
    @staticmethod
    def precision_floor_fit(seed):
        frame, links, dictionary, lam1, lam2 = _random_solver_instance(seed)
        config = SolverConfig(lam1=lam1, lam2=lam2, max_outer=15, eps_f=1e-14)
        return fit(frame, links, dictionary, config)

    @pytest.mark.parametrize("seed", [291, 312])
    def test_precision_floor_seeds_finish(self, seed):
        """These instances of criterion 1's generator run to the precision
        floor (eps_f = 1e-14), where an alpha step's predicted decrease can
        come out as a rounding difference of two l1 sums: the fit finishes
        with a nonincreasing trace instead of aborting."""
        result = self.precision_floor_fit(seed)
        assert np.all(np.diff(result.objective_trace) <= 0.0)

    @pytest.mark.parametrize("seed", [291, 576])
    def test_fit_ends_on_rounding_zero_step(self, seed, monkeypatch):
        """On these instances the last alpha step has a direction well above
        the zero floor but a non-negative predicted decrease within rounding
        (+2e-15 on seed 291, from l1 sums near 7 and 11): a zero step."""
        armijo, last = bcgd._armijo, {}

        def spy(state, config, name, block, direction, *rest):
            out = armijo(state, config, name, block, direction, *rest)
            if name == "alpha-step":
                last["moved"] = out.tau > 0.0
                last["above_floor"] = np.linalg.norm(direction) > (
                    bcgd._ZERO_DIRECTION_RTOL * max(1.0, np.linalg.norm(block))
                )
            return out

        monkeypatch.setattr(bcgd, "_armijo", spy)
        result = self.precision_floor_fit(seed)
        assert np.all(np.diff(result.objective_trace) <= 0.0)
        assert result.step_trace[-1][0] == 0.0
        assert last == {"moved": False, "above_floor": True}

    @pytest.mark.parametrize("step", [alpha_step, tight_l_step],
                             ids=["alpha_step", "l_step"])
    def test_injected_decrease_above_bound_raises(self, rng, monkeypatch, step):
        frame, links = gaussian_frame(rng, 8, 5)
        d = groups_dict(8, 5)
        config = SolverConfig(lam1=0.3, lam2=0.1)
        state = bcgd.make_state(frame, links, d, rng.standard_normal(d.n_atoms),
                                0.1 * rng.standard_normal((8, 5)))
        sums = bcgd._sums
        # a linear term of -1e3 predicts a rise of about 2e3
        monkeypatch.setattr(bcgd, "_sums", lambda terms: (-1e3, sums(terms)[1]))
        with pytest.raises(InternalConsistencyError, match="is not negative"):
            step(frame, links, d, state, config)

    @pytest.mark.parametrize("norm_rtol", [0.0, 1e-12])
    def test_rounding_bound_separates_zero_step_from_error(self, rng, norm_rtol):
        """A non-negative decrease at half the bound is a zero step; at twice
        the bound it raises.  The bound is (N + 4) eps times the absolute
        sums, plus lam * norm_rtol * (P(0) + P(1))."""
        frame, links = gaussian_frame(rng, 6, 4)
        d = groups_dict(6, 4)
        config = SolverConfig(lam1=0.0, lam2=0.5)
        state = bcgd.make_state(frame, links, d, np.ones(d.n_atoms),
                                np.zeros((6, 4)))
        direction = np.full(d.n_atoms, 1e-3)
        lin_abs, pen_now, pen_full, lam = 1.0, 10.0, 10.0 + 1e-13, 0.5
        nu_d2 = config.nu * float(np.sum(direction**2))
        bound = (
            np.finfo(float).eps * (state.low_rank.size + 4) * (2.0 * lin_abs + nu_d2)
            + lam * norm_rtol * (pen_now + pen_full)
        )

        def armijo(decrease):
            lin = (nu_d2 + lam * (pen_full - pen_now) - decrease) / 2.0
            return bcgd._armijo(
                state, config, "alpha-step", state.alpha, direction, lin,
                lin_abs, lam, pen_now,
                lambda t: pen_full if t == 1.0 else pen_now,
                norm_rtol * (pen_now + pen_full),
                lambda t: bcgd.make_state(frame, links, d,
                                          state.alpha + t * direction, state.low_rank),
            )

        zero = armijo(0.5 * bound)
        assert zero.tau == 0.0 and zero.state is state and zero.penalty == pen_now
        with pytest.raises(InternalConsistencyError, match="rounding bound"):
            armijo(2.0 * bound)


class TestArmijoFiniteness:
    def test_tau_with_a_non_finite_parameter_matrix_is_rejected(self, rng):
        """A trial whose parameter matrix is not finite, here at an
        unobserved cell only, is a rejected step, and the search moves on
        to the next tau."""
        frame, links = gaussian_frame(rng, 6, 4, p_obs=0.5)
        d = groups_dict(6, 4)
        config = SolverConfig(lam1=0.0, lam2=0.0)
        state = bcgd.make_state(frame, links, d, np.zeros(d.n_atoms), np.zeros((6, 4)))
        # a short step along the data's pull, which every tau passes unless rejected
        y_obs = np.where(frame.mask, frame.y_filled, 0.0)
        direction = 1e-3 * d.adjoint(y_obs)
        lin = 0.5 * float(np.sum(y_obs * d.apply(direction)))
        unobserved = tuple(np.argwhere(~frame.mask)[0])
        tried = []

        def state_at(t):
            tried.append(t)
            low_rank = state.low_rank.copy()
            if t == 1.0:
                low_rank[unobserved] = np.inf
            return bcgd.make_state(frame, links, d, state.alpha + t * direction, low_rank)

        step = bcgd._armijo(
            state, config, "alpha-step", state.alpha, direction, lin, abs(lin),
            config.lam2, 0.0, lambda t: float(np.abs(t * direction).sum()), 0.0,
            state_at,
        )
        assert step.tau == 0.5 and tried == [1.0, 0.5]
        np.testing.assert_array_equal(step.state.alpha, 0.5 * direction)

    def test_overflowing_poisson_trial_backtracks(self, monkeypatch):
        """A count of 1000 against a zero fit pulls the Newton direction past
        a*x = 700 at that observed cell: the unit trial overflows the link,
        is rejected, and the search backtracks to a finite descent step."""
        y = np.array([[1000.0, 2.0], [1.0, 3.0], [2.0, 0.0]])
        frame = MixedDataFrame(("a", "b"), (ColumnType.COUNT,) * 2, y,
                               np.ones(y.shape, dtype=bool))
        links = [LinkSpec.poisson()] * 2
        d = CorruptionsDictionary([(0, 0)], y.shape)
        config = SolverConfig(lam1=0.1, lam2=0.1)
        state = bcgd.make_state(frame, links, d, np.zeros(1), np.zeros(y.shape))
        directions = spy_directions(monkeypatch)
        res = alpha_step(frame, links, d, state, config)
        with pytest.raises(InvalidInputError, match="overflow"):
            bcgd.make_state(frame, links, d, directions["alpha-step"], state.low_rank)
        assert 0.0 < res.tau < 0.5
        assert res.state.data_fit < state.data_fit


class TestNuclearCapHits:
    def test_capped_em_solves_are_counted(self, rng):
        frame, links = gaussian_frame(rng, 12, 6, p_obs=0.6)
        d = groups_dict(12, 6)
        result = fit(
            frame, links, d,
            SolverConfig(lam1=0.3, lam2=0.2, nuclear_max_iter=1, max_outer=10),
        )
        assert 0 < result.nuclear_cap_hits <= result.n_iter
        assert result.report()["nuclear_cap_hits"] == result.nuclear_cap_hits

    def test_converged_fit_has_no_cap_hits(self, rng):
        # fully observed Gaussian cells give uniform EM weights: two EM
        # iterations reach and confirm the closed-form solution
        frame, links = gaussian_frame(rng, 12, 6)
        d = groups_dict(12, 6)
        result = fit(frame, links, d, SolverConfig(lam1=0.3, lam2=0.2))
        assert result.converged
        assert result.nuclear_cap_hits == 0
        assert result.report()["nuclear_cap_hits"] == 0

    def test_nuclear_iters_sum_the_em_solves(self, rng, monkeypatch):
        frame, links = gaussian_frame(rng, 12, 6, p_obs=0.6)
        d = groups_dict(12, 6)
        solves = record_results(monkeypatch, bcgd, "solve_weighted_nuclear")
        result = fit(frame, links, d, SolverConfig(lam1=0.3, lam2=0.2))
        assert len(solves) == result.n_iter
        assert result.nuclear_iters == sum(s.n_iter for s in solves) > len(solves)
        assert result.report()["nuclear_iters"] == result.nuclear_iters


class TestInexactLStep:
    """The L-step's EM tolerance follows the outer loop (the forcing term)."""

    @staticmethod
    def spied_fit(monkeypatch, frame, links, d, config, init=None):
        tols, solve = [], bcgd.solve_weighted_nuclear

        def spy(prob, tol, *args, **kwargs):
            tols.append(tol)
            return solve(prob, tol, *args, **kwargs)

        monkeypatch.setattr(bcgd, "solve_weighted_nuclear", spy)
        result = fit(frame, links, d, config, init=init)
        monkeypatch.undo()
        return result, tols

    @pytest.mark.parametrize("nuclear_tol", [1e-6, 1e-9])
    def test_tolerance_follows_objective_change(self, monkeypatch, nuclear_tol):
        frame, links, _ = make_mixed_instance(55, m1=20, m2=8, p_obs=0.7)
        config = SolverConfig(lam1=0.3, lam2=0.15, nuclear_tol=nuclear_tol)
        result, tols = self.spied_fit(
            monkeypatch, frame, links, groups_dict(20, 8), config
        )
        assert result.converged and len(tols) == result.n_iter >= 3
        assert bcgd._EM_TOL_MAX == 1e-2 and tols[0] == 1e-2
        trace = result.objective_trace
        for k in range(1, len(tols)):
            delta = abs(trace[k - 1] - trace[k]) / max(1.0, abs(trace[k - 1]))
            expected = (nuclear_tol if delta <= config.eps_f
                        else np.clip(delta, nuclear_tol, 1e-2))
            assert tols[k] == expected
        assert tols[-1] == nuclear_tol
        assert len(set(tols)) > 2  # loose, in between and tight

    def test_tolerance_above_the_cap_is_kept(self, monkeypatch):
        frame, links, _ = make_mixed_instance(55, m1=20, m2=8, p_obs=0.7)
        config = SolverConfig(lam1=0.3, lam2=0.15, nuclear_tol=0.05, max_outer=4)
        _, tols = self.spied_fit(
            monkeypatch, frame, links, groups_dict(20, 8), config
        )
        assert tols == [0.05] * 4

    def test_settled_loose_step_is_not_convergence(self, rng, monkeypatch):
        """Warm-started at its own solution a fit settles at once, but its
        first EM ran at 1e-2, so it takes one more outer iteration at
        ``nuclear_tol`` before it reports convergence."""
        frame, links = gaussian_frame(rng, 12, 6, p_obs=0.6)
        d = groups_dict(12, 6)
        config = SolverConfig(lam1=0.3, lam2=0.2)
        first = fit(frame, links, d, config)
        assert first.converged
        again, tols = self.spied_fit(
            monkeypatch, frame, links, d, config,
            init=(first.alpha_hat, first.l_hat),
        )
        assert again.converged and again.n_iter == 2
        assert tols == [1e-2, config.nuclear_tol]


class TestLargeScale:
    def test_huge_poisson_counts_fit(self):
        """Counts with means near 1e6 put the Lasso gradient near 1e8; its KKT
        tolerance scales with that, so the fit converges instead of aborting."""
        y = np.random.default_rng(0).poisson(1e6, (20, 4)).astype(float)
        frame = MixedDataFrame(
            tuple(f"c{j}" for j in range(4)), (ColumnType.COUNT,) * 4, y,
            np.ones((20, 4), dtype=bool),
        )
        result = fit(
            frame, [LinkSpec.poisson()] * 4, groups_dict(20, 4, h=2),
            SolverConfig(lam1=1.0, lam2=1.0),
        )
        assert result.converged
        assert np.isfinite(result.x_hat).all()
        assert np.isfinite(result.objective_trace).all()


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(lam1=-0.1, lam2=0.0)

    @pytest.mark.parametrize("bad", [2.5, 0, -1, 2.0, "3", True])
    @pytest.mark.parametrize("name", ["max_outer", "nuclear_max_iter"])
    def test_iteration_caps_are_positive_integers(self, name, bad):
        # 2.5 ended in a TypeError from range(), and nuclear_max_iter=0 ran a
        # fit whose L block never moved
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= 1"):
            SolverConfig(lam1=0.1, lam2=0.1, **{name: bad})
        assert SolverConfig(lam1=0.1, lam2=0.1, **{name: np.int64(3)})

    @pytest.mark.parametrize("bad", [0.0, -1e-8, np.nan, np.inf, "1e-6", True])
    @pytest.mark.parametrize("name", ["eps_f", "lasso_tol", "nuclear_tol"])
    def test_tolerances_finite_and_positive(self, name, bad):
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite and > 0"):
            SolverConfig(lam1=0.1, lam2=0.1, **{name: bad})

    def test_armijo_constants_are_not_settings(self):
        # the Armijo constants, the ridge and the Lasso's sweep cap are
        # readable from a fit's config, as the benchmark reads them, but no
        # field of the config, its report or its hash
        names = {f.name for f in dataclasses.fields(SolverConfig)}
        config = SolverConfig(lam1=0.1, lam2=0.1)
        for name, value in (("tau_init", 1.0), ("backtrack", 0.5), ("slope", 0.1),
                            ("nu", 1e-2), ("lasso_max_iter", 1000)):
            assert name not in names
            assert getattr(config, name) == value
            with pytest.raises(TypeError):
                SolverConfig(lam1=0.1, lam2=0.1, **{name: value})

    # a non-real penalty raised a bare TypeError, and True read as 1
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, "1", None, True])
    @pytest.mark.parametrize("name", ["lam1", "lam2"])
    def test_bad_penalty_rejected(self, name, bad):
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite"):
            SolverConfig(**{"lam1": 0.1, "lam2": 0.1, name: bad})


class TestImpute:
    def _fit_like(self, x_hat, d, config=None):
        return ModelFit(
            alpha_hat=np.zeros(d.n_atoms),
            l_hat=x_hat.copy(),
            x_hat=x_hat,
            objective_trace=np.array([0.0]),
            step_trace=[],
            converged=True,
            n_iter=0,
            config=config or SolverConfig(lam1=0.0, lam2=0.0),
            wall_time=0.0,
        )

    def test_mixed_imputation_values(self):
        values = np.array([[1.5, 1.0, 4.0], [np.nan, np.nan, np.nan]])
        mask = np.array([[True, True, True], [False, False, False]])
        frame = MixedDataFrame(
            ("num", "bin", "cnt"),
            (ColumnType.NUMERIC, ColumnType.BINARY, ColumnType.COUNT),
            values,
            mask,
        )
        links = [LinkSpec.gaussian(), LinkSpec.bernoulli(), LinkSpec.poisson()]
        x_hat = np.array([[0.0, 0.0, 0.0], [0.7, 0.0, np.log(3.0)]])
        d = CorruptionsDictionary([(0, 0)], (2, 3))
        completed = impute(self._fit_like(x_hat, d), frame, links)
        # observed cells pass through untouched
        np.testing.assert_array_equal(completed.values[0], [1.5, 1.0, 4.0])
        assert completed.values[1, 0] == pytest.approx(0.7)   # gaussian mean = x
        assert completed.values[1, 1] == pytest.approx(0.5)   # prob at x = 0
        assert completed.values[1, 2] == pytest.approx(3.0)   # poisson mean
        assert completed.mask.all()

    def test_round_binary(self):
        values = np.array([[1.0], [np.nan]])
        mask = np.array([[True], [False]])
        frame = MixedDataFrame(("b",), (ColumnType.BINARY,), values, mask)
        links = [LinkSpec.bernoulli()]
        x_hat = np.array([[0.0], [2.0]])
        d = CorruptionsDictionary([(0, 0)], (2, 1))
        completed = impute(self._fit_like(x_hat, d), frame, links, round_binary=True)
        assert completed.values[1, 0] == 1.0
        assert completed.column_types[0] is ColumnType.BINARY


class TestReport:
    def test_report_contents(self, rng):
        frame, links = gaussian_frame(rng, 6, 4)
        d = groups_dict(6, 4)
        result = fit(frame, links, d, SolverConfig(lam1=0.3, lam2=0.2, max_outer=15))
        report = result.report()
        assert report["config"]["lam1"] == 0.3
        assert len(report["objective_trace"]) == result.n_iter + 1
        assert isinstance(report["rank"], int)
        assert isinstance(report["alpha_nonzeros"], int)
        assert report["wall_time_s"] >= 0.0
