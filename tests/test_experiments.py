"""Study harnesses: shapes, provenance, reproducibility, scaling contrast."""

import csv
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from splr import experiments, expfam
from splr.bcgd import fit
from splr.dictionary import GroupEffectsDictionary, equal_group_assignment
from splr.experiments import (
    STUDY_CONFIG,
    config_hash,
    rate_design,
    run_estimation_study,
    run_imputation_study,
    run_rate_study,
    simulated_noise_anchors,
    summarize_rate_rows,
    write_rows_csv,
)
from splr.simulate import (
    SimDesign,
    baseline_svt_anchor,
    error_metrics,
    group_mean_svt_baseline,
    simulate_instance,
)

from conftest import lone_cell_frame, record_results, seed_whose_first_draw_empties


class TestEstimationStudy:
    def test_factorial_shape_and_provenance(self, tmp_path):
        rows = run_estimation_study(
            m1=40, m2=8, n_groups=4, s_list=(2, 5), r_list=(2, 4),
            n_reps=2, seed=3, out_dir=tmp_path,
        )
        # 4 cells x 2 reps x 2 methods
        assert len(rows) == 16
        methods = {r["method"] for r in rows}
        assert methods == {"splr", "group_mean_svt"}
        for row in rows:
            assert {"m1", "m2", "s", "r", "p_obs", "seed", "config_hash",
                    "err_alpha", "err_main", "err_low_rank",
                    "mse_missing"} <= set(row)
        assert (tmp_path / "estimation_study.csv").exists()
        assert (tmp_path / "estimation_manifest.json").exists()

    def test_rerun_reproduces_rows(self):
        a = run_estimation_study(
            m1=30, m2=6, n_groups=3, s_list=(2,), r_list=(2,), n_reps=2, seed=9
        )
        b = run_estimation_study(
            m1=30, m2=6, n_groups=3, s_list=(2,), r_list=(2,), n_reps=2, seed=9
        )
        assert a == b


class TestImputationStudy:
    def test_grid_shape_and_methods(self, tmp_path):
        rows = run_imputation_study(
            m1=40, m2=8, s=2, r=2, n_groups=4, n_reps=1, seed=5,
            out_dir=tmp_path,
        )
        # 3 missingness x 3 ratios x 3 methods
        assert len(rows) == 27
        assert {r["method"] for r in rows} == {
            "splr", "column_mean", "group_mean_svt"
        }
        for row in rows:
            assert "mse_frame" in row and "mse_numeric" in row
        assert (tmp_path / "imputation_study.csv").exists()

    def test_rows_carry_their_solve_record(self, tmp_path, monkeypatch):
        """Each row has the n_iter and converged of the solve that made it:
        the splr refit, the comparator's last completion; the column-mean
        rows leave both empty in the CSV."""
        selections = record_results(monkeypatch, experiments, "holdout_select")
        completions = record_results(monkeypatch, experiments,
                                     "group_mean_svt_baseline")
        rows = run_imputation_study(
            m1=30, m2=6, s=2, r=2, n_groups=3, n_reps=1, seed=1,
            missing_fracs=(0.2, 0.6), ratios=(1.0,), out_dir=tmp_path,
        )
        assert len(completions) == 9 * len(selections) == 9 * 2
        for k, (ours, mean, base) in enumerate(zip(*[iter(rows)] * 3)):
            refit, last = selections[k][2], completions[9 * k + 8]
            assert (ours["n_iter"], ours["converged"]) == (refit.n_iter, True)
            assert (base["n_iter"], base["converged"]) == (last.n_iter, last.converged)
            assert mean["n_iter"] is None and mean["converged"] is None
        with open(tmp_path / "imputation_study.csv", encoding="utf-8") as fh:
            written = list(csv.DictReader(fh))
        assert [(r["n_iter"], r["converged"]) for r in written[:2]] == [
            (str(rows[0]["n_iter"]), "True"), ("", "")]

    def test_masks_nested_within_replicate(self):
        rows = run_imputation_study(
            m1=30, m2=6, s=2, r=2, n_groups=3, n_reps=1, seed=1,
            missing_fracs=(0.2, 0.6), ratios=(1.0,),
        )
        seeds = {r["seed"] for r in rows}
        assert len(seeds) == 1  # shared across missingness levels
        shared_seed = seeds.pop()
        designs = {
            miss: SimDesign(
                m1=30, m2=6, s=2, r=2, p_obs=1.0 - miss, ratio=1.0,
                n_groups=3, col_layout="mixed", box=6.0, seed=shared_seed,
            )
            for miss in (0.2, 0.6)
        }
        inst_a = simulate_instance(designs[0.2])
        inst_b = simulate_instance(designs[0.6])
        assert np.array_equal(inst_a.y_full, inst_b.y_full)
        # higher missingness = subset of the lower-missingness mask
        assert np.all(inst_b.frame.mask <= inst_a.frame.mask)

    def test_refit_whose_em_barely_keeps_a_value_finishes(self):
        """The holdout refit of one study instance (bench study-imputation
        seed 143: ratio 1.0, 20% missing) starts at L = 0, and its first EM
        keeps one singular value 1.2e-7 above a threshold of 20.5.  The
        shrink sum is good to 1e-12 of that SVT input's spectral norm, not
        of the 1.2e-7 norms, so a predicted decrease of +1.9e-15 is a zero
        step, not an abort."""
        design = SimDesign(
            m1=150, m2=30, s=3, r=2, p_obs=0.8, ratio=1.0, n_groups=5,
            col_layout="mixed", box=6.0, seed=4504658472824692134,
        )
        lam1, _, result = experiments._fit_ours_holdout(simulate_instance(design))
        assert lam1 == pytest.approx(20.94, abs=5e-3)
        assert np.isfinite(result.x_hat).all()
        assert np.all(np.diff(result.objective_trace) <= 0.0)


class TestComparatorHoldout:
    def test_a_draw_that_empties_a_column_is_redrawn(self, monkeypatch):
        frame = lone_cell_frame()
        seed = seed_whose_first_draw_empties(
            frame, experiments.HOLDOUT_FRAC, shift=1
        )
        instance = SimpleNamespace(
            frame=frame,
            dictionary=GroupEffectsDictionary(
                equal_group_assignment(10, 2), frame.shape
            ),
            design=SimpleNamespace(seed=seed),
        )
        trained_on = []

        def anchor(train, dictionary):
            trained_on.append(train)
            return baseline_svt_anchor(train, dictionary)

        monkeypatch.setattr(experiments, "baseline_svt_anchor", anchor)
        lam, base = experiments._fit_baseline_holdout(instance)
        (train,) = trained_on
        assert train.mask.any(axis=0).all()
        assert np.isfinite(lam) and np.isfinite(base.x_hat).all()


class TestRateStudy:
    def test_summary_fields_and_outputs(self, tmp_path):
        rows, summary = run_rate_study(
            m_list=(60, 120), n_reps=2, seed=2, out_dir=tmp_path
        )
        assert len(rows) == 2 * 2 * 2  # sizes x p-levels x reps
        assert summary["slope_err_low_rank_ci_lo"] <= summary[
            "slope_err_low_rank"
        ] <= summary["slope_err_low_rank_ci_hi"]
        assert "half_p_err_low_rank_ratio" in summary
        assert (tmp_path / "rate_summary.csv").exists()

    def test_rate_design_scaling(self):
        d_small = rate_design(100, 0.7, 1)
        d_big = rate_design(400, 0.7, 1)
        # group size stays fixed, so per-coordinate information is constant
        assert d_small.m1 // d_small.n_groups == d_big.m1 // d_big.n_groups
        # interaction share grows with the size to keep per-entry scale flat
        assert d_big.ratio == pytest.approx(d_small.ratio / 2.0)

    def test_summarize_uses_medians(self):
        rows = []
        for m, errs in ((10, [1.0, 100.0, 2.0]), (100, [10.0, 9.0, 11.0])):
            for e in errs:
                rows.append(
                    {"m1": m, "p_obs": 0.5, "err_low_rank": e, "err_alpha": e}
                )
        summary = summarize_rate_rows(rows, (10, 100), 0.5, False, seed=0)
        assert summary["slope_err_low_rank"] == pytest.approx(
            np.log(10.0 / 2.0) / np.log(10.0)
        )


class TestProvenance:
    def test_config_hash_stable_and_sensitive(self):
        a = config_hash(STUDY_CONFIG)
        assert a == config_hash(STUDY_CONFIG)
        assert a != config_hash(replace(STUDY_CONFIG, eps_f=1e-4))

    def test_write_rows_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows_csv([], tmp_path / "x.csv")


class TestScalingContrast:
    def test_alpha_error_flat_while_comparator_grows(self):
        """Growing the table with sparsity fixed leaves the joint fit's
        coefficient error in place; the two-step comparator's error scales
        with the number of coefficients it must estimate."""

        def one(m1, m2, seed):
            design = SimDesign(
                m1=m1, m2=m2, s=5, r=5, p_obs=0.8, n_groups=5, seed=seed
            )
            inst = simulate_instance(design)
            a1, a2 = simulated_noise_anchors(inst, seed=seed + 1)
            cfg = replace(STUDY_CONFIG, lam1=a1, lam2=2.0 * a2)
            res = fit(inst.frame, inst.links, inst.dictionary, cfg)
            ours = error_metrics(
                inst, res.alpha_hat, res.l_hat,
                expfam.predicted_means(res.x_hat, inst.links),
            ).err_alpha
            base_fit = group_mean_svt_baseline(
                inst.frame, inst.dictionary,
                lam=0.3 * baseline_svt_anchor(inst.frame, inst.dictionary),
            )
            comparator = error_metrics(
                inst, base_fit.alpha_hat, base_fit.l_hat, base_fit.x_hat
            ).err_alpha
            return ours, comparator

        seeds = (1, 2, 3)
        small = [one(150, 30, s) for s in seeds]
        big = [one(600, 600, s) for s in seeds]
        ours_small = np.median([v[0] for v in small])
        ours_big = np.median([v[0] for v in big])
        comp_small = np.median([v[1] for v in small])
        comp_big = np.median([v[1] for v in big])
        assert ours_big <= 2.0 * ours_small
        assert comp_big >= 2.0 * comp_small
        assert ours_big < comp_big
