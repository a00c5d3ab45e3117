"""Study harnesses: estimation-error curves, imputation comparison, rate scaling.

Every harness emits long-format rows carrying the complete design, the
replicate seed, and a hash of the solver configuration, so a rerun from the
same manifest reproduces every numeric cell bit for bit.  Replicate seeds are
derived from the base seed through a fixed-order draw, never from global
state.  Every row of every study is built by ``_row``, which computes the
error metrics itself, and every study's rows CSV and manifest are written by
``_write_study``.

Penalty selection: the estimation and imputation studies tune both penalties
per replicate on a random holdout of observed entries (warm-started grid
path).  The rate study instead uses noise-calibrated anchors: the penalty
scales are read off simulated noise gradients on the realized mask, which
tracks the theoretical penalty scaling in both the matrix size and the
observation rate without per-replicate tuning.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import expfam
from .bcgd import SolverConfig, fit
from .selection import default_grid, draw_holdout, holdout_select
from .simulate import (
    SimDesign,
    baseline_svt_anchor,
    column_mean_predictions,
    error_metrics,
    group_mean_svt_baseline,
    simulate_instance,
)

METHOD_OURS = "splr"
METHOD_COLUMN_MEAN = "column_mean"
METHOD_GROUP_MEAN_SVT = "group_mean_svt"

# solver settings shared by all study fits: tolerances loose enough to keep
# replicate counts cheap, tight enough that selection is stable
STUDY_CONFIG = SolverConfig(
    lam1=0.0,
    lam2=0.0,
    eps_f=1e-5,
    max_outer=150,
    lasso_tol=1e-7,
    nuclear_tol=1e-4,
    nuclear_max_iter=40,
)


def config_hash(config: SolverConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


_STUDY_HASH = config_hash(STUDY_CONFIG)


def _replicate_seeds(base_seed: int, n: int):
    """An iterator over n replicate seeds, drawn in a fixed order."""
    rng = np.random.default_rng(base_seed)
    return iter([int(s) for s in rng.integers(0, 2**62, size=n)])


# both methods tune on the same share of held-out cells, over penalties
# spanning the same decades below their anchors
HOLDOUT_FRAC = 0.2
HOLDOUT_DECADES = 2.5


def _fit_ours_holdout(instance):
    grid = default_grid(
        instance.frame, instance.links, instance.dictionary,
        n1=4, n2=4, decades=HOLDOUT_DECADES,
    )
    return holdout_select(
        instance.frame, instance.links, instance.dictionary, grid,
        holdout_frac=HOLDOUT_FRAC, seed=instance.design.seed, config=STUDY_CONFIG,
    )


def _fit_baseline_holdout(instance):
    """Tune the two-step comparator's completion penalty on held-out cells,
    drawn from the seed after the one our holdout uses.  The penalties run
    as a warm-started path, and the refit on all observed cells starts from
    the chosen penalty's training solution."""
    frame = instance.frame
    rng = np.random.default_rng(instance.design.seed + 1)
    train, held = draw_holdout(frame, HOLDOUT_FRAC, rng)
    anchor = baseline_svt_anchor(train, instance.dictionary)
    lams = np.geomspace(anchor, anchor * 10.0 ** (-HOLDOUT_DECADES), 8)
    y_true = frame.values[held[:, 0], held[:, 1]]
    best_lam, best_err, best_l, warm = lams[0], np.inf, None, None
    for lam in lams:
        base = group_mean_svt_baseline(train, instance.dictionary, float(lam),
                                       init=warm)
        warm = base.l_hat
        err = float(
            np.mean((base.x_hat[held[:, 0], held[:, 1]] - y_true) ** 2)
        )
        if err < best_err:
            best_err, best_lam, best_l = err, float(lam), warm
    return best_lam, group_mean_svt_baseline(frame, instance.dictionary, best_lam,
                                             init=best_l)


def simulated_noise_anchors(instance, seed: int = 0):
    """Penalty scales from noise gradients simulated on the realized mask.

    Draws three Gaussian noise matrices with each column's known variance,
    masks them, and reads off the median operator norm (nuclear-penalty
    scale) and the median largest atom inner product (l1-penalty scale).
    """
    rng = np.random.default_rng(seed)
    sig = np.sqrt([link.sigma2 for link in instance.links])
    ops, sups = [], []
    for _ in range(3):
        eps = rng.standard_normal(instance.frame.shape) * sig[None, :]
        eps = np.where(instance.frame.mask, eps, 0.0)
        ops.append(np.linalg.svd(eps, compute_uv=False)[0])
        sups.append(np.abs(instance.dictionary.adjoint(eps)).max())
    return float(np.median(ops)), float(np.median(sups))


def _row(instance, method, lam1, lam2, solve, preds, **extra):
    """One study row: the design, the method, its penalties, the config hash,
    the error metrics of (``solve.alpha_hat``, ``solve.l_hat``, preds), the
    solve's ``n_iter`` and ``converged``, then ``extra``.  ``solve`` is the
    fit that made the row (a ``ModelFit`` or ``BaselineFit``); None stands
    for zero blocks and leaves ``n_iter`` and ``converged`` empty."""
    if solve is None:
        alpha_hat = np.zeros(instance.dictionary.n_atoms)
        l_hat = np.zeros(instance.frame.shape)
        n_iter = converged = None
    else:
        alpha_hat, l_hat = solve.alpha_hat, solve.l_hat
        n_iter, converged = int(solve.n_iter), bool(solve.converged)
    return {
        **instance.design.to_json_dict(),
        "method": method,
        "lambda1": lam1,
        "lambda2": lam2,
        "config_hash": _STUDY_HASH,
        **error_metrics(instance, alpha_hat, l_hat, preds).as_dict(),
        "n_iter": n_iter,
        "converged": converged,
        **extra,
    }


def write_rows_csv(rows: list, path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _write_study(out_dir, prefix, rows, manifest) -> None:
    """Write ``rows`` to <prefix>_study.csv and ``manifest``, with the config
    hash, to <prefix>_manifest.json."""
    out_dir = Path(out_dir)
    write_rows_csv(rows, out_dir / f"{prefix}_study.csv")
    with open(out_dir / f"{prefix}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump({**manifest, "config_hash": _STUDY_HASH}, fh, indent=2,
                  sort_keys=True)


def run_estimation_study(
    m1: int = 300,
    m2: int = 30,
    n_groups: int = 5,
    s_list=(2, 5, 10, 20),
    r_list=(2, 5, 10, 20),
    p_obs: float = 0.8,
    n_reps: int = 20,
    seed: int = 0,
    out_dir=None,
) -> list:
    """Factorial sparsity-by-rank comparison of the joint fit against the
    two-step group-mean + soft-impute comparator, numeric columns only."""
    cells = [(s, r) for s in s_list for r in r_list]
    seeds = _replicate_seeds(seed, len(cells) * n_reps)
    rows = []
    for s, r in cells:
        for rep in range(n_reps):
            design = SimDesign(
                m1=m1, m2=m2, s=s, r=r, p_obs=p_obs,
                n_groups=n_groups, seed=next(seeds),
            )
            instance = simulate_instance(design)
            lam1, lam2, ours = _fit_ours_holdout(instance)
            rows.append(_row(
                instance, METHOD_OURS, lam1, lam2, ours,
                expfam.predicted_means(ours.x_hat, instance.links), rep=rep,
            ))
            lam_svt, base = _fit_baseline_holdout(instance)
            rows.append(_row(
                instance, METHOD_GROUP_MEAN_SVT, lam_svt, 0.0, base, base.x_hat,
                rep=rep,
            ))
    if out_dir is not None:
        _write_study(out_dir, "estimation", rows, {
            "study": "estimation",
            "m1": m1, "m2": m2, "n_groups": n_groups,
            "s_list": list(s_list), "r_list": list(r_list),
            "p_obs": p_obs, "n_reps": n_reps, "seed": seed,
        })
    return rows


def _per_type_mse(instance, predictions) -> dict:
    """Imputation errors: the headline number divides the squared error over
    the missing cells by the frame size (matching how a fixed-size table
    accumulates error as missingness grows); per-missing-cell means are kept
    alongside, split by column type."""
    missing = ~instance.frame.mask
    sq = (np.asarray(predictions) - instance.y_full) ** 2
    out = {"mse_frame": float(sq[missing].sum() / missing.size)}
    for tname in ("numeric", "binary"):
        sel_cols = np.array(
            [ct.value == tname for ct in instance.frame.column_types]
        )
        cells = missing & sel_cols[None, :]
        out[f"mse_{tname}"] = float(sq[cells].mean()) if cells.any() else float("nan")
    return out


def run_imputation_study(
    missing_fracs=(0.2, 0.4, 0.6),
    ratios=(0.2, 1.0, 5.0),
    m1: int = 150,
    m2: int = 30,
    s: int = 3,
    r: int = 2,
    n_groups: int = 5,
    n_reps: int = 20,
    seed: int = 0,
    box: float = 6.0,
    out_dir=None,
) -> list:
    """Mixed-column imputation comparison over missingness and signal ratio.

    Methods: the joint fit, column-mean imputation, and the two-step
    group-mean + soft-impute comparator (both baselines predict on the data
    scale).  The combined squared error over all held-out cells is reported
    along with per-type numbers.

    Within a replicate, the three missingness levels share one seed: the
    ground truth and sampled values are identical and the masks are nested
    (the mask thresholds a common uniform draw), so the missingness axis is
    a within-instance comparison rather than a cross-instance one.
    """
    seeds = _replicate_seeds(seed, len(ratios) * n_reps)
    rows = []
    for rho in ratios:
        for rep in range(n_reps):
            rep_seed = next(seeds)
            for miss in missing_fracs:
                design = SimDesign(
                    m1=m1, m2=m2, s=s, r=r, p_obs=1.0 - miss, ratio=rho,
                    n_groups=n_groups, col_layout="mixed", box=box,
                    seed=rep_seed,
                )
                instance = simulate_instance(design)
                lam1, lam2, ours = _fit_ours_holdout(instance)
                lam_svt, base = _fit_baseline_holdout(instance)
                for method, l1, l2, solve, preds in (
                    (METHOD_OURS, lam1, lam2, ours,
                     expfam.predicted_means(ours.x_hat, instance.links)),
                    (METHOD_COLUMN_MEAN, 0.0, 0.0, None,
                     column_mean_predictions(instance.frame)),
                    (METHOD_GROUP_MEAN_SVT, lam_svt, 0.0, base, base.x_hat),
                ):
                    rows.append(_row(
                        instance, method, l1, l2, solve, preds,
                        rep=rep, missing_frac=miss,
                        **_per_type_mse(instance, preds),
                    ))
    if out_dir is not None:
        _write_study(out_dir, "imputation", rows, {
            "study": "imputation",
            "missing_fracs": list(missing_fracs), "ratios": list(ratios),
            "m1": m1, "m2": m2, "s": s, "r": r, "n_groups": n_groups,
            "n_reps": n_reps, "seed": seed,
        })
    return rows


# rate-study base design: the group size stays fixed while the long dimension
# grows (keeps per-coordinate information constant so the alpha error is flat
# in M), the interaction ratio decays like 1/sqrt(M) (keeps the per-entry
# interaction scale constant so the low-rank error tracks M), and the signal
# box is wide since all columns are numeric.
RATE_GROUP_SIZE = 20
RATE_BOX = 20.0
RATE_BASE_M = 100
RATE_ANCHOR_C1 = 1.0
RATE_ANCHOR_C2 = 2.0


def rate_design(m1: int, p_obs: float, seed: int, m2: int = 30, s: int = 2,
                r: int = 2) -> SimDesign:
    return SimDesign(
        m1=m1, m2=m2, s=s, r=r, p_obs=p_obs,
        n_groups=max(2, m1 // RATE_GROUP_SIZE),
        ratio=float(np.sqrt(RATE_BASE_M / m1)),
        box=RATE_BOX,
        seed=seed,
    )


def run_rate_study(
    m_list=(100, 200, 400, 800),
    m2: int = 30,
    s: int = 2,
    r: int = 2,
    p_obs: float = 0.7,
    include_half_p: bool = True,
    n_reps: int = 20,
    seed: int = 0,
    out_dir=None,
):
    """Error scaling in the long dimension and in the observation rate.

    Returns (rows, summary); the summary has the log-log slope of the median
    errors against the size, a bootstrap confidence interval, and the median
    degradation factor when the observation rate is halved.
    """
    p_values = [p_obs] + ([p_obs / 2.0] if include_half_p else [])
    cells = [(m, p) for p in p_values for m in m_list]
    seeds = _replicate_seeds(seed, len(cells) * n_reps)
    rows = []
    for m, p in cells:
        for rep in range(n_reps):
            design = rate_design(m, p, next(seeds), m2=m2, s=s, r=r)
            instance = simulate_instance(design)
            a1, a2 = simulated_noise_anchors(instance, seed=design.seed + 1)
            lam1, lam2 = RATE_ANCHOR_C1 * a1, RATE_ANCHOR_C2 * a2
            result = fit(instance.frame, instance.links, instance.dictionary,
                         replace(STUDY_CONFIG, lam1=lam1, lam2=lam2))
            rows.append(_row(
                instance, METHOD_OURS, lam1, lam2, result,
                expfam.predicted_means(result.x_hat, instance.links), rep=rep,
            ))
    summary = summarize_rate_rows(rows, m_list, p_obs, include_half_p, seed)
    if out_dir is not None:
        _write_study(out_dir, "rate", rows, {
            "study": "rates",
            "m_list": list(m_list), "m2": m2, "s": s, "r": r,
            "p_obs": p_obs, "include_half_p": include_half_p,
            "n_reps": n_reps, "seed": seed,
            "group_size": RATE_GROUP_SIZE, "box": RATE_BOX,
            "anchor_c1": RATE_ANCHOR_C1, "anchor_c2": RATE_ANCHOR_C2,
        })
        write_rows_csv([summary], Path(out_dir) / "rate_summary.csv")
    return rows, summary


def _loglog_slope(sizes, medians):
    return float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])


def summarize_rate_rows(rows, m_list, p_obs, include_half_p, seed) -> dict:
    def errs(m, p, key):
        return np.array(
            [
                row[key]
                for row in rows
                if row["m1"] == m and row["p_obs"] == p
            ]
        )

    med_l = [np.median(errs(m, p_obs, "err_low_rank")) for m in m_list]
    med_a = [np.median(errs(m, p_obs, "err_alpha")) for m in m_list]
    slope_l = _loglog_slope(m_list, med_l)
    slope_a = _loglog_slope(m_list, med_a)

    boot_rng = np.random.default_rng(seed + 12345)
    boot_slopes = []
    samples = [errs(m, p_obs, "err_low_rank") for m in m_list]
    for _ in range(200):
        meds = [
            np.median(boot_rng.choice(vals, size=len(vals), replace=True))
            for vals in samples
        ]
        boot_slopes.append(_loglog_slope(m_list, meds))
    ci_lo, ci_hi = np.percentile(boot_slopes, [2.5, 97.5])

    summary = {
        "slope_err_low_rank": slope_l,
        "slope_err_low_rank_ci_lo": float(ci_lo),
        "slope_err_low_rank_ci_hi": float(ci_hi),
        "slope_err_alpha": slope_a,
    }
    if include_half_p:
        ratios = []
        for m in m_list:
            base = np.median(errs(m, p_obs, "err_low_rank"))
            half = np.median(errs(m, p_obs / 2.0, "err_low_rank"))
            ratios.append(half / base)
        summary["half_p_err_low_rank_ratio"] = float(np.median(ratios))
    return summary
