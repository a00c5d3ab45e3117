"""Output checks written apart from splr: links, objective, certificates, references.

Nothing here calls splr.  Each check takes plain arrays (the inputs the
benchmark generated and the outputs splr returned) and returns a list of
failure messages; an empty list means the check passed.  The link formulas,
the atom fields, the singular values and the proximal-gradient reference are
all computed here, so a fault in splr's own versions of them cannot hide.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

OBJECTIVE_RTOL = 1e-9
REFERENCE_RTOL = 1e-5
ANCHOR_RTOL = 1e-10
ROW_RTOL = 1e-12
# largest |g'''| of the Bernoulli link log(1 + e^x), reached at p(1-p) slopes
BERNOULLI_G3_MAX = 1.0 / (6.0 * math.sqrt(3.0))


# ----------------------------------------------------------------- links


class Columns:
    """Per-column link kinds and scales, read from splr's LinkSpec list."""

    def __init__(self, links):
        kinds = [link.kind for link in links]
        unknown = set(kinds) - {"gaussian", "bernoulli"}
        if unknown:
            raise ValueError(f"checks cover gaussian and bernoulli links, not {unknown}")
        self.gauss = np.array([k == "gaussian" for k in kinds])
        self.sigma2 = np.array([link.sigma2 for link in links], dtype=float)

    def g(self, x):
        soft_plus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        return np.where(self.gauss, 0.5 * self.sigma2 * x * x, soft_plus)

    def g1(self, x):
        return np.where(self.gauss, self.sigma2 * x, 0.5 * (1.0 + np.tanh(0.5 * x)))

    def g2(self, x):
        p = 0.5 * (1.0 + np.tanh(0.5 * x))
        return np.where(self.gauss, self.sigma2, p * (1.0 - p))


def data_fit(x, y, mask, cols):
    """sum over observed cells of -y x + g(x)."""
    yo = np.where(mask, y, 0.0)
    return float(np.sum(np.where(mask, -yo * x + cols.g(x), 0.0)))


def data_gradient(x, y, mask, cols):
    """Entrywise gradient of the data fit; zero on unobserved cells."""
    yo = np.where(mask, y, 0.0)
    return np.where(mask, cols.g1(x) - yo, 0.0)


def singular_values(a):
    return scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")


def nuclear(a):
    return float(singular_values(a).sum())


# ----------------------------------------------------------------- atoms


class GroupAtoms:
    """Atom k = h * m2 + q marks the rows of group h in column q."""

    def __init__(self, labels, n_groups, m2):
        self.labels = np.asarray(labels, dtype=np.intp)
        self.n_groups = int(n_groups)
        self.m2 = int(m2)

    def field(self, alpha):
        return np.asarray(alpha).reshape(self.n_groups, self.m2)[self.labels]

    def adjoint(self, g):
        out = np.zeros((self.n_groups, self.m2))
        for h in range(self.n_groups):
            out[h] = g[self.labels == h].sum(axis=0)
        return out.ravel()

    def observed_norm_max(self, mask):
        """max over atoms of the Frobenius norm of the atom on observed cells."""
        return math.sqrt(float(self.adjoint(mask.astype(float)).max()))


class CellAtoms:
    """Atom k is the single cell (rows[k], cols[k])."""

    def __init__(self, rows, cols, shape):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.shape = tuple(shape)

    def field(self, alpha):
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = alpha
        return out

    def adjoint(self, g):
        return np.asarray(g)[self.rows, self.cols]

    def observed_norm_max(self, mask):
        return 1.0


def equal_blocks(m1, n_groups):
    """Contiguous, as-equal-as-possible row blocks (splr's documented layout)."""
    return (np.arange(m1) * n_groups) // m1


# ----------------------------------------------------------------- fits


def objective(alpha, low_rank, y, mask, cols, atoms, lam1, lam2):
    x = atoms.field(alpha) + low_rank
    return (
        data_fit(x, y, mask, cols)
        + lam1 * nuclear(low_rank)
        + lam2 * float(np.abs(alpha).sum())
    )


def check_descent(fit, label="fit"):
    """The objective trace never rises (beyond rounding of sums of order |F|)."""
    trace = np.asarray(fit.objective_trace, dtype=float)
    slack = 1e-13 * max(1.0, float(np.abs(trace).max()))
    rises = np.flatnonzero(np.diff(trace) > slack)
    if rises.size:
        k = int(rises[0])
        return [f"{label}: objective rises at iteration {k + 1}: "
                f"{trace[k]!r} -> {trace[k + 1]!r}"]
    return []


def check_finished(fit, label="fit"):
    """x_hat is finite and the fit says it converged."""
    out = []
    if not np.isfinite(fit.x_hat).all():
        out.append(f"{label}: x_hat has non-finite entries")
    if not fit.converged:
        out.append(f"{label}: not converged after {fit.n_iter} iterations")
    return out


def check_objective(fit, y, mask, cols, atoms, label="fit"):
    """The reported final objective equals one recomputed from alpha_hat, L_hat."""
    cfg = fit.config
    final = float(fit.objective_trace[-1])
    own = objective(fit.alpha_hat, fit.l_hat, y, mask, cols, atoms, cfg.lam1, cfg.lam2)
    if not abs(own - final) <= OBJECTIVE_RTOL * max(1.0, abs(own)):
        return [f"{label}: final objective {final!r} != recomputed {own!r}"]
    return []


def check_fit(fit, y, mask, cols, atoms, label="fit"):
    return (
        check_descent(fit, label)
        + check_finished(fit, label)
        + check_objective(fit, y, mask, cols, atoms, label)
    )


def certificate_slack(fit, y, mask, cols, atoms):
    """(delta_L, delta_alpha) implied by the stopping rule; derivation in README.

    The last outer iteration changed F by at most eps_f * max(1, |F|); with
    full steps each block's model decrease is then at most
    S = eps_f * max(1, |F|) / slope, which bounds the last L change D and the
    last alpha change d in the model's own weighted norms.  The first-order
    residuals left by D, d, and the inner tolerances give the slacks.
    """
    cfg = fit.config
    trace = np.asarray(fit.objective_trace, dtype=float)
    if len(trace) < 2:
        raise ValueError("a certificate needs at least one outer iteration")
    s_bound = cfg.eps_f * max(1.0, abs(trace[-2])) / cfg.slope
    nu = cfg.nu
    x = atoms.field(fit.alpha_hat) + fit.l_hat
    gauss_obs = mask & cols.gauss[None, :]
    bern_obs = mask & ~cols.gauss[None, :]
    sig2 = cols.sigma2[cols.gauss]
    sig2_min = float(sig2.min()) if sig2.size else 1.0
    sig2_max = float(sig2.max()) if sig2.size else 0.0
    # Bernoulli curvature floor at the final point stands in for the one at
    # the start of the last iteration; the step is small by the stop rule
    curv_b = float(cols.g2(x)[bern_obs].min()) if bern_obs.any() else 1.0

    d_gauss = math.sqrt(s_bound / (sig2_min + nu)) if gauss_obs.any() else 0.0
    d_bern = math.sqrt(s_bound / (curv_b + nu)) if bern_obs.any() else 0.0
    d_all = math.sqrt(s_bound / nu)
    ad_bern = math.sqrt(s_bound / curv_b) if bern_obs.any() else 0.0

    t_max = max(sig2_max / 2.0, 0.125 if bern_obs.any() else 0.0) + nu
    em_resid = 2.0 * t_max * cfg.nuclear_tol * max(1.0, float(np.linalg.norm(fit.l_hat)))
    r_l = min(d_bern / 4.0, BERNOULLI_G3_MAX / 2.0 * d_bern**2) + 2.0 * nu * d_all + em_resid

    a_max = atoms.observed_norm_max(mask)
    r_a = (
        a_max * (sig2_max * d_gauss + d_bern / 4.0)
        + BERNOULLI_G3_MAX * (ad_bern + d_bern) * ad_bern
        + 2.0 * math.sqrt(nu * s_bound)
        + cfg.lasso_tol
    )
    delta_l = r_l / cfg.lam1 if cfg.lam1 > 0 else math.inf
    delta_a = r_a / cfg.lam2 if cfg.lam2 > 0 else math.inf
    return delta_l, delta_a


def check_certificate(fit, y, mask, cols, atoms, label="fit", slack=None):
    """First-order conditions at (alpha_hat, L_hat) within the derived slack."""
    cfg = fit.config
    taus = [t for pair in fit.step_trace[-1:] for t in pair]
    if any(0.0 < t < 1.0 for t in taus):
        return [f"{label}: last outer iteration took a damped step {taus}; "
                "the certificate slack assumes full steps"]
    delta_l, delta_a = slack or certificate_slack(fit, y, mask, cols, atoms)
    x = atoms.field(fit.alpha_hat) + fit.l_hat
    g = data_gradient(x, y, mask, cols)
    op = float(singular_values(g)[0])
    nuc = nuclear(fit.l_hat)
    inner = float(np.sum(g * fit.l_hat))
    adj = float(np.abs(atoms.adjoint(g)).max())
    out = []
    if not op <= cfg.lam1 * (1.0 + delta_l):
        out.append(f"{label}: ||G||_op = {op:.6g} > lam1 (1 + {delta_l:.3g}) = "
                   f"{cfg.lam1 * (1 + delta_l):.6g}")
    if not abs(inner + cfg.lam1 * nuc) <= delta_l * cfg.lam1 * nuc:
        out.append(f"{label}: |<G, L> + lam1 ||L||_*| = {abs(inner + cfg.lam1 * nuc):.6g}"
                   f" > {delta_l:.3g} lam1 ||L||_* = {delta_l * cfg.lam1 * nuc:.6g}")
    if not adj <= cfg.lam2 * (1.0 + delta_a):
        out.append(f"{label}: ||A^T G||_inf = {adj:.6g} > lam2 (1 + {delta_a:.3g}) = "
                   f"{cfg.lam2 * (1 + delta_a):.6g}")
    return out


# ----------------------------------------------------------------- reference


def svt(a, threshold):
    u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vt[keep], float(s.sum())


def gaussian_cells_reference(y, mask, sigma2, rows, cols, lam1, lam2,
                             window=100, max_iter=5000, tol=1e-9):
    """Accelerated proximal gradient for an all-Gaussian frame with cell atoms.

    Minimizes sum_obs(-y x + sigma2 x^2 / 2) + lam1 ||L||_* + lam2 ||alpha||_1
    with x = cells(alpha) + L, using FISTA with function-value restarts.  The
    smooth part has gradient Lipschitz constant 2 * max(sigma2) in (alpha, L).
    Stops when ``window`` iterations lower the objective by at most ``tol``
    relative.  Returns (objective, iterations).
    """
    shape = y.shape
    yo = np.where(mask, y, 0.0)
    s2 = np.broadcast_to(np.asarray(sigma2, dtype=float), shape)
    step = 1.0 / (2.0 * float(np.max(sigma2)))

    def smooth(alpha, low):
        x = low.copy()
        x[rows, cols] += alpha
        val = float(np.sum(np.where(mask, -yo * x + 0.5 * s2 * x * x, 0.0)))
        grad = np.where(mask, s2 * x - yo, 0.0)
        return val, grad

    def full(alpha, low, nuc):
        return smooth(alpha, low)[0] + lam1 * nuc + lam2 * float(np.abs(alpha).sum())

    alpha = np.zeros(rows.size)
    low = np.zeros(shape)
    f_cur = full(alpha, low, 0.0)
    za, zl = alpha, low
    t = 1.0
    checkpoint = f_cur
    for it in range(1, max_iter + 1):
        _, grad = smooth(za, zl)
        cand = za - step * grad[rows, cols]
        new_alpha = np.sign(cand) * np.maximum(np.abs(cand) - step * lam2, 0.0)
        new_low, new_nuc = svt(zl - step * grad, step * lam1)
        f_new = full(new_alpha, new_low, new_nuc)
        if f_new > f_cur:
            if t == 1.0:
                break  # even a plain proximal step no longer descends
            # restart the momentum from the last iterate
            za, zl, t = alpha, low, 1.0
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_next
        za = new_alpha + mom * (new_alpha - alpha)
        zl = new_low + mom * (new_low - low)
        alpha, low, f_cur, t = new_alpha, new_low, f_new, t_next
        if it % window == 0:
            if checkpoint - f_cur <= tol * max(1.0, abs(f_cur)):
                break
            checkpoint = f_cur
    return f_cur, it


def check_reference(own_objective, reference, label="fit"):
    if not abs(own_objective - reference) <= REFERENCE_RTOL * max(1.0, abs(reference)):
        return [f"{label}: objective {own_objective!r} differs from the proximal-"
                f"gradient reference {reference!r} by more than {REFERENCE_RTOL:g}"]
    return []


# ----------------------------------------------------------------- selection


def zero_model_anchors(y, mask, cols, atoms):
    """(lambda1_max, lambda2_max): the data-fit gradient at X = 0."""
    g0 = data_gradient(np.zeros(y.shape), y, mask, cols)
    return float(singular_values(g0)[0]), float(np.abs(atoms.adjoint(g0)).max())


def check_anchors(grid, anchors, label="grid"):
    out = []
    for name, got, want in (
        ("lambda1_max", grid.lambda1_max, anchors[0]),
        ("lambda2_max", grid.lambda2_max, anchors[1]),
    ):
        if not abs(got - want) <= ANCHOR_RTOL * max(1.0, abs(want)):
            out.append(f"{label}: {name} {got!r} != zero-model threshold {want!r}")
    return out


# ----------------------------------------------------------------- study rows


def column_mean_metrics(instance_arrays):
    """Every metric of a column-mean row, from the instance's arrays."""
    a = instance_arrays
    y, mask, y_full = a["values"], a["mask"], a["y_full"]
    counts = mask.sum(axis=0)
    sums = np.where(mask, y, 0.0).sum(axis=0)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    preds = np.broadcast_to(means, y.shape)
    missing = ~mask
    sq = (preds - y_full) ** 2
    out = {
        "err_alpha": float(np.sum(a["alpha"] ** 2)),
        "err_main": float(np.sum(a["main_field"] ** 2)),
        "err_low_rank": float(np.sum(a["low_rank"] ** 2)),
        "mse_missing": float(sq[missing].mean()) if missing.any() else float("nan"),
        "mse_frame": float(sq[missing].sum() / missing.size),
    }
    for tname, sel in (("numeric", a["numeric"]), ("binary", ~a["numeric"])):
        cells = missing & sel[None, :]
        out[f"mse_{tname}"] = float(sq[cells].mean()) if cells.any() else float("nan")
    return out


def check_row_values(row, expected, label="row"):
    out = []
    for key, want in expected.items():
        got = row[key]
        if math.isnan(want) and math.isnan(got):
            continue
        if not abs(got - want) <= ROW_RTOL * max(1e-300, abs(want)):
            out.append(f"{label}: {key} {got!r} != recomputed {want!r}")
    return out


def check_identical_rows(first, second, label="replicate"):
    """Bit-for-bit equality of two lists of row dicts (NaN equals NaN)."""
    if len(first) != len(second):
        return [f"{label}: {len(first)} rows then {len(second)} rows"]
    for i, (a, b) in enumerate(zip(first, second)):
        if a.keys() != b.keys():
            return [f"{label}: row {i} has different columns"]
        for key in a:
            if repr(a[key]) != repr(b[key]):
                return [f"{label}: row {i} column {key!r}: {a[key]!r} then {b[key]!r}"]
    return []
