"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Budgets are wall-clock ceilings; every tolerance is
asserted exactly as stated.
"""

import time

import numpy as np

from splr import expfam, selection
from splr.bcgd import SolverConfig, fit
from splr.dictionary import (
    CorruptionsDictionary,
    CustomDictionary,
    GroupEffectsDictionary,
    RowColumnDictionary,
    equal_group_assignment,
)
from splr.experiments import (
    run_estimation_study,
    run_imputation_study,
    run_rate_study,
)
from splr.frame import ColumnType, MixedDataFrame, read_csv, write_csv
from splr.simulate import SimDesign, simulate_instance
from splr.subsolvers import (
    WeightedLassoProblem,
    WeightedNuclearProblem,
    soft_threshold_singular_values,
    solve_weighted_lasso,
    solve_weighted_nuclear,
    weighted_lasso_kkt_residual,
    weighted_lasso_objective,
)

from conftest import (
    at_observed,
    gaussian_prox_gradient_reference,
    make_mixed_instance,
)


def _criterion(num, label, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {num:02d} {status} {label}: {detail} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def _random_solver_instance(seed):
    rng = np.random.default_rng(seed)
    m1 = int(rng.integers(8, 41))
    m2 = int(rng.integers(4, 21))
    p_obs = float(rng.uniform(0.3, 1.0))
    frame, links, _ = make_mixed_instance(seed, m1=m1, m2=m2, p_obs=p_obs)
    structure = seed % 3
    if structure == 0:
        dictionary = GroupEffectsDictionary(
            equal_group_assignment(m1, min(4, m1)), (m1, m2)
        )
    elif structure == 1:
        dictionary = RowColumnDictionary((m1, m2))
    else:
        cells = [(i, j) for i in range(0, m1, 2) for j in range(0, m2, 2)]
        dictionary = CorruptionsDictionary(cells, (m1, m2))
    grid = selection.default_grid(frame, links, dictionary, n1=2, n2=2)
    lam1 = float(rng.uniform(0.05, 0.8)) * max(grid.lambda1_max, 1e-6)
    lam2 = float(rng.uniform(0.05, 0.8)) * max(grid.lambda2_max, 1e-6)
    return frame, links, dictionary, lam1, lam2


def test_criterion_1_descent_invariant():
    """Objective trace is nonincreasing on every random mixed instance."""
    start = time.perf_counter()
    worst = -np.inf
    for seed in range(200):
        frame, links, dictionary, lam1, lam2 = _random_solver_instance(seed)
        config = SolverConfig(lam1=lam1, lam2=lam2, max_outer=15, eps_f=1e-14)
        result = fit(frame, links, dictionary, config)
        increases = np.diff(result.objective_trace)
        worst = max(worst, float(increases.max(initial=-np.inf)))
        if np.any(increases > 1e-10):
            break
    elapsed = time.perf_counter() - start
    _criterion(
        1, "descent invariant over 200 mixed instances",
        worst <= 1e-10, f"worst objective increase {worst:.2e} (tol 1e-10)",
        elapsed, 120.0,
    )


def test_criterion_2_global_optimum_oracle():
    """Final objective matches a long-run accelerated proximal-gradient
    reference on 25 small Gaussian instances."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        m1, m2 = 8, 6
        y = rng.standard_normal((m1, m2)) * 1.5
        mask = rng.random((m1, m2)) < float(rng.uniform(0.6, 1.0))
        if not mask.any():
            mask[0, 0] = True
        frame = MixedDataFrame(
            tuple(f"c{j}" for j in range(m2)), (ColumnType.NUMERIC,) * m2,
            y, mask,
        )
        links = [expfam.LinkSpec.gaussian()] * m2
        dictionary = GroupEffectsDictionary(
            equal_group_assignment(m1, 2), (m1, m2)
        )
        lam1 = float(rng.uniform(0.3, 1.5))
        lam2 = float(rng.uniform(0.2, 1.0))
        config = SolverConfig(lam1=lam1, lam2=lam2, eps_f=1e-13, max_outer=4000)
        ours = fit(frame, links, dictionary, config).objective_trace[-1]
        reference = gaussian_prox_gradient_reference(
            frame, links, dictionary, lam1, lam2, n_iter=6000
        )
        gap = abs(ours - reference) / max(1.0, abs(reference))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _criterion(
        2, "global-optimum oracle on 25 Gaussian instances",
        worst <= 1e-5, f"worst relative objective gap {worst:.2e} (tol 1e-5)",
        elapsed, 60.0,
    )


def test_criterion_3_gradient_correctness():
    """Analytic gradient equals central finite differences of the objective."""
    start = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for seed in range(50):
        frame, links, x = make_mixed_instance(2000 + seed, m1=6, m2=5)
        grad = at_observed(expfam.gradient, x, frame, links)
        fd = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                up, down = x.copy(), x.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (
                    at_observed(expfam.quasi_loglik_neg, up, frame, links)
                    - at_observed(expfam.quasi_loglik_neg, down, frame, links)
                ) / (2 * h)
        rel = np.max(np.abs(fd - grad) / np.maximum(np.abs(grad), 1.0))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    _criterion(
        3, "gradient vs central differences on 50 instances",
        worst <= 1e-5, f"worst relative error {worst:.2e} (tol 1e-5)",
        elapsed, 10.0,
    )


def _two_atom_problem(seed):
    rng = np.random.default_rng(seed)
    shape = (4, 3)
    atoms = []
    for _ in range(2):
        cells = rng.choice(12, size=3, replace=False)
        atoms.append(
            [(int(c) // 3, int(c) % 3, float(rng.uniform(-1, 1))) for c in cells]
        )
    return WeightedLassoProblem(
        CustomDictionary(atoms, shape),
        rng.uniform(0.2, 1.5, shape),
        rng.standard_normal(shape),
        ridge=0.05,
        anchor=rng.standard_normal(2) * 0.3,
        penalty=0.3,
    )


def _grid_search_two_atoms(prob):
    d = prob.dictionary
    w, z, nu, lam = prob.weights, prob.targets, prob.ridge, prob.penalty
    t1, t2 = prob.anchor
    u1 = d.apply(np.array([1.0, 0.0]))
    u2 = d.apply(np.array([0.0, 1.0]))
    a11, a22 = np.sum(w * u1 * u1), np.sum(w * u2 * u2)
    a12 = np.sum(w * u1 * u2)
    b1, b2 = np.sum(w * z * u1), np.sum(w * z * u2)
    const = np.sum(w * z * z) + nu * (t1**2 + t2**2)
    grid = np.arange(-3.0, 3.0 + 1e-12, 1e-3)
    col = (a22 + nu) * grid**2 - 2 * (b2 + nu * t2) * grid + lam * np.abs(grid)
    best = np.inf
    for a1 in grid:
        row = (
            (a11 + nu) * a1 * a1 - 2 * (b1 + nu * t1) * a1 + lam * abs(a1)
            + col + 2 * a12 * a1 * grid
        )
        best = min(best, float(row.min()))
    return best + const


def test_criterion_4_subproblem_oracles():
    """Lasso KKT + grid search, nuclear EM vs closed form, SVT contraction."""
    start = time.perf_counter()
    details = []

    kkt_worst, gap_worst = 0.0, 0.0
    for seed in (3, 17, 40):
        prob = _two_atom_problem(seed)
        alpha = solve_weighted_lasso(prob, tol=1e-10)
        kkt_worst = max(kkt_worst, weighted_lasso_kkt_residual(prob, alpha))
        gap = abs(
            weighted_lasso_objective(prob, alpha) - _grid_search_two_atoms(prob)
        )
        gap_worst = max(gap_worst, gap)
    ok_a = kkt_worst <= 1e-8 and gap_worst <= 1e-5
    details.append(f"(a) kkt {kkt_worst:.1e}, grid gap {gap_worst:.1e}")

    rng = np.random.default_rng(77)
    em_worst = 0.0
    em_converged = True
    for _ in range(5):
        z = rng.standard_normal((6, 4))
        c = float(rng.uniform(0.5, 3.0))
        lam = float(rng.uniform(0.2, 1.5))
        em = solve_weighted_nuclear(
            WeightedNuclearProblem(np.full((6, 4), c), z, penalty=lam),
            tol=1e-12, max_iter=10,
        )
        em_converged &= em.converged
        closed = soft_threshold_singular_values(z, lam / (2 * c))
        em_worst = max(em_worst, float(np.abs(em.matrix - closed).max()))
    ok_b = em_converged and em_worst <= 1e-10
    details.append(f"(b) EM vs closed-form SVT {em_worst:.1e}")

    lip_worst = -np.inf
    for _ in range(100):
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((5, 4))
        lam = float(rng.uniform(0.0, 2.0))
        lhs = np.linalg.norm(
            soft_threshold_singular_values(a, lam)
            - soft_threshold_singular_values(b, lam)
        )
        lip_worst = max(lip_worst, float(lhs - np.linalg.norm(a - b)))
    ok_c = lip_worst <= 1e-10
    details.append(f"(c) SVT Lipschitz excess {lip_worst:.1e}")

    elapsed = time.perf_counter() - start
    _criterion(
        4, "subproblem oracles", ok_a and ok_b and ok_c,
        "; ".join(details), elapsed, 30.0,
    )


def test_criterion_5_closed_form_fixed_points():
    """Unpenalized fully observed fits land on the per-entry closed forms."""
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    m1, m2 = 10, 5
    worst = 0.0
    for sigma2 in (1.0, 2.0):
        y = rng.standard_normal((m1, m2)) * 1.5
        frame = MixedDataFrame(
            tuple(f"c{j}" for j in range(m2)), (ColumnType.NUMERIC,) * m2,
            y, np.ones((m1, m2), dtype=bool),
        )
        links = [expfam.LinkSpec.gaussian(sigma2)] * m2
        dictionary = GroupEffectsDictionary(
            equal_group_assignment(m1, 2), (m1, m2)
        )
        config = SolverConfig(lam1=0.0, lam2=0.0, eps_f=1e-12, max_outer=500)
        result = fit(frame, links, dictionary, config)
        worst = max(worst, float(np.abs(result.x_hat - y / sigma2).max()))

    counts = rng.integers(1, 9, size=(m1, m2)).astype(float)
    frame = MixedDataFrame(
        tuple(f"c{j}" for j in range(m2)), (ColumnType.COUNT,) * m2,
        counts, np.ones((m1, m2), dtype=bool),
    )
    links = [expfam.LinkSpec.poisson()] * m2
    dictionary = GroupEffectsDictionary(equal_group_assignment(m1, 2), (m1, m2))
    config = SolverConfig(lam1=0.0, lam2=0.0, eps_f=1e-12, max_outer=500)
    result = fit(frame, links, dictionary, config)
    worst = max(worst, float(np.abs(result.x_hat - np.log(counts)).max()))

    elapsed = time.perf_counter() - start
    _criterion(
        5, "closed-form fixed points (gaussian, poisson)",
        worst <= 1e-4, f"worst entrywise deviation {worst:.2e} (tol 1e-4)",
        elapsed, 10.0,
    )


def test_criterion_6_anchor_thresholds():
    """Slightly above both anchors, both blocks are exactly zero.

    From the zero model the alpha step soft-thresholds every atom to zero, so
    the L-step sees the zero model too: one joint fit tests both anchors.
    """
    start = time.perf_counter()
    worst_l, worst_a = 0.0, 0.0
    for seed in range(20):
        frame, links, _ = make_mixed_instance(3000 + seed, m1=12, m2=6, p_obs=0.8)
        dictionary = GroupEffectsDictionary(
            equal_group_assignment(12, 3), (12, 6)
        )
        grid = selection.default_grid(frame, links, dictionary)
        res = fit(
            frame, links, dictionary,
            SolverConfig(lam1=grid.lambda1_max * 1.01,
                         lam2=grid.lambda2_max * 1.01, max_outer=25),
        )
        worst_l = max(worst_l, float(np.abs(res.l_hat).max()))
        worst_a = max(worst_a, float(np.abs(res.alpha_hat).max()))
    elapsed = time.perf_counter() - start
    _criterion(
        6, "penalty anchors zero their blocks (20 instances)",
        worst_l <= 1e-8 and worst_a <= 1e-8,
        f"max |L| {worst_l:.1e}, max |alpha| {worst_a:.1e} (tol 1e-8)",
        elapsed, 30.0,
    )


def test_criterion_7_estimation_ordering():
    """Joint fit beats group-mean + soft-impute on coefficient error at low
    sparsity (300 x 30, 20 seeds, medians)."""
    start = time.perf_counter()
    rows = run_estimation_study(
        m1=300, m2=30, n_groups=5, s_list=(2,), r_list=(2,),
        p_obs=0.8, n_reps=20, seed=20240817,
    )
    ours = np.median(
        [r["err_alpha"] for r in rows if r["method"] == "splr"]
    )
    comparator = np.median(
        [r["err_alpha"] for r in rows if r["method"] == "group_mean_svt"]
    )
    elapsed = time.perf_counter() - start
    _criterion(
        7, "estimation-error ordering at s=2, r=2",
        ours < comparator,
        f"median err_alpha ours {ours:.4f} vs comparator {comparator:.4f}",
        elapsed, 300.0,
    )


def test_criterion_8_imputation_orderings():
    """All nine cells favor the joint fit over column means, and every
    method's error grows with missingness (150 x 30, 20 seeds, medians)."""
    start = time.perf_counter()
    missing_fracs, ratios = (0.2, 0.4, 0.6), (0.2, 1.0, 5.0)
    rows = run_imputation_study(
        missing_fracs=missing_fracs, ratios=ratios,
        m1=150, m2=30, s=3, r=2, n_reps=20, seed=20240817,
    )

    def med(method, miss, rho):
        return np.median(
            [
                r["mse_frame"]
                for r in rows
                if r["method"] == method
                and r["missing_frac"] == miss
                and r["ratio"] == rho
            ]
        )

    ordering_ok = all(
        med("splr", miss, rho) < med("column_mean", miss, rho)
        for miss in missing_fracs
        for rho in ratios
    )
    monotone_ok = True
    for method in ("splr", "column_mean", "group_mean_svt"):
        for rho in ratios:
            seq = [med(method, miss, rho) for miss in missing_fracs]
            monotone_ok &= all(
                seq[i] <= seq[i + 1] + 1e-12 for i in range(len(seq) - 1)
            )
    elapsed = time.perf_counter() - start
    _criterion(
        8, "imputation orderings over 3x3 cells",
        ordering_ok and monotone_ok,
        f"ordering {'ok' if ordering_ok else 'VIOLATED'}, "
        f"missingness trend {'ok' if monotone_ok else 'VIOLATED'}",
        elapsed, 600.0,
    )


def test_criterion_9_rate_slopes():
    """Low-rank error scales like the long dimension, coefficient error is
    flat, and halving the observation rate roughly doubles the error."""
    start = time.perf_counter()
    _, summary = run_rate_study(
        m_list=(100, 200, 400, 800), m2=30, s=2, r=2, p_obs=0.7,
        include_half_p=True, n_reps=20, seed=20240817,
    )
    slope_l = summary["slope_err_low_rank"]
    slope_a = summary["slope_err_alpha"]
    ratio = summary["half_p_err_low_rank_ratio"]
    ok = (0.7 <= slope_l <= 1.3) and (-0.3 <= slope_a <= 0.3) and (
        1.4 <= ratio <= 2.8
    )
    elapsed = time.perf_counter() - start
    _criterion(
        9, "rate slopes and observation-rate scaling",
        ok,
        f"slope err_L {slope_l:.3f} in [0.7,1.3], slope err_alpha "
        f"{slope_a:.3f} in [-0.3,0.3], half-p ratio {ratio:.2f} in [1.4,2.8]",
        elapsed, 900.0,
    )


def test_criterion_10_determinism_and_round_trips(tmp_path):
    """Seeded pipelines are bit-identical; CSV round-trips are exact."""
    start = time.perf_counter()
    checks = []

    design = SimDesign(m1=25, m2=8, s=3, r=2, p_obs=0.7, n_groups=5,
                       col_layout="mixed", seed=99)
    inst_a, inst_b = simulate_instance(design), simulate_instance(design)
    checks.append(np.array_equal(inst_a.y_full, inst_b.y_full))
    checks.append(np.array_equal(inst_a.frame.mask, inst_b.frame.mask))

    config = SolverConfig(lam1=0.5, lam2=0.3, max_outer=30)
    fit_a = fit(inst_a.frame, inst_a.links, inst_a.dictionary, config)
    fit_b = fit(inst_b.frame, inst_b.links, inst_b.dictionary, config)
    checks.append(np.array_equal(fit_a.x_hat, fit_b.x_hat))
    checks.append(
        np.array_equal(fit_a.objective_trace, fit_b.objective_trace)
    )

    rows_a, _ = run_rate_study(m_list=(60, 120), n_reps=2, seed=4)
    rows_b, _ = run_rate_study(m_list=(60, 120), n_reps=2, seed=4)
    checks.append(rows_a == rows_b)

    rng = np.random.default_rng(17)
    for k in range(5):
        m1 = int(rng.integers(2, 10))
        m2 = int(rng.integers(1, 6))
        types, values = [], np.empty((m1, m2))
        for j in range(m2):
            t = rng.choice(list(ColumnType))
            types.append(t)
            if t is ColumnType.NUMERIC:
                values[:, j] = rng.standard_normal(m1) * 10.0 ** rng.integers(-2, 3)
            elif t is ColumnType.BINARY:
                values[:, j] = rng.integers(0, 2, m1)
            else:
                values[:, j] = rng.poisson(3.0, m1)
        mask = rng.random((m1, m2)) < 0.75
        if not mask.any():
            mask[0, 0] = True
        frame = MixedDataFrame(
            tuple(f"c{j}" for j in range(m2)), tuple(types), values, mask
        )
        path = tmp_path / f"rt_{k}.csv"
        write_csv(frame, path)
        again = read_csv(
            path,
            schema={n: t.value for n, t in zip(frame.column_names, types)},
        )
        checks.append(frame == again)

    elapsed = time.perf_counter() - start
    _criterion(
        10, "determinism and CSV round-trips",
        all(checks), f"{sum(checks)}/{len(checks)} checks held",
        elapsed, 30.0,
    )
