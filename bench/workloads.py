"""The seeded workloads: inputs, one operation, and the output checks.

Each workload builds its inputs from the seed (the set-up), runs one
operation against splr's public API, and checks every operation's outputs
with ``checks`` outside the timed region.  ``selftest`` perturbs one
operation's outputs and confirms that every check rejects them.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from splr import bcgd, experiments
from splr.dictionary import CorruptionsDictionary, GroupEffectsDictionary
from splr.expfam import LinkSpec
from splr.frame import ColumnType, MixedDataFrame

import checks


def _streams(seed, n):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _masked_noise_anchors(rng, mask, atoms):
    """Operator norm and largest atom inner product of masked unit noise."""
    noise = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    op = float(np.linalg.svd(noise, compute_uv=False)[0])
    return op, float(np.abs(atoms.adjoint(noise)).max())


def _frame(values, mask, types):
    names = tuple(f"c{j}" for j in range(values.shape[1]))
    return MixedDataFrame(names, tuple(types), values, mask)


def _arrays(frame):
    return np.asarray(frame.values), np.asarray(frame.mask)


def fresh(inputs):
    """Shallow copies of the frame and dictionary that the set-up never used,
    so every operation builds splr's lazily cached supports itself."""
    if not hasattr(inputs, "frame"):
        return inputs
    return dataclasses.replace(
        inputs, frame=copy.copy(inputs.frame), dictionary=copy.copy(inputs.dictionary)
    )


@dataclasses.dataclass(frozen=True)
class FitInputs:
    frame: MixedDataFrame
    links: list
    dictionary: object
    config: bcgd.SolverConfig
    atoms: object


def _fit_selftest(fit, y, mask, cols, atoms, slack):
    """Each fit check must reject a perturbed copy of ``fit``."""
    trace = np.array(fit.objective_trace, dtype=float)
    rising = trace.copy()
    rising[-1] = trace[-2] + 1e-6 * max(1.0, abs(trace[-2]))
    bad_x = np.array(fit.x_hat, dtype=float)
    bad_x[0, 0] = np.nan
    nudged = np.array(fit.alpha_hat, dtype=float)
    k = int(np.argmax(np.abs(nudged)))
    nudged[k] += 0.1 * max(1.0, abs(nudged[k]))
    cases = [
        ("descent", "a trace with one increase",
         checks.check_descent(dataclasses.replace(fit, objective_trace=rising))),
        ("finished", "x_hat with a NaN",
         checks.check_finished(dataclasses.replace(fit, x_hat=bad_x))),
        ("finished", "converged flag cleared",
         checks.check_finished(dataclasses.replace(fit, converged=False))),
        ("objective", "L scaled by 1.01",
         checks.check_objective(dataclasses.replace(fit, l_hat=1.01 * fit.l_hat),
                                y, mask, cols, atoms)),
        ("objective", "one alpha coordinate nudged by 0.1",
         checks.check_objective(dataclasses.replace(fit, alpha_hat=nudged),
                                y, mask, cols, atoms)),
    ]
    out = []
    if slack is not None and checks.check_certificate(fit, y, mask, cols, atoms, slack=slack):
        out.append("self-test: the certificate already rejects the unperturbed fit")
    elif slack is not None:
        # move the atom on which alpha moves A^T G the most, by three times
        # what the alpha condition allows
        x = atoms.field(fit.alpha_hat) + fit.l_hat
        mass = atoms.adjoint(np.where(mask, cols.g2(x), 0.0))
        j = int(np.argmax(mass))
        pushed = np.array(fit.alpha_hat, dtype=float)
        pushed[j] += 3.0 * (1.0 + slack[1]) * fit.config.lam2 / mass[j]
        cases += [
            ("certificate", "L scaled by 2",
             checks.check_certificate(dataclasses.replace(fit, l_hat=2.0 * fit.l_hat),
                                      y, mask, cols, atoms, slack=slack)),
            ("certificate", "one alpha coordinate pushed past its condition",
             checks.check_certificate(dataclasses.replace(fit, alpha_hat=pushed),
                                      y, mask, cols, atoms, slack=slack)),
        ]
    return out + [f"self-test: the {name} check accepted {what}"
                  for name, what, failures in cases if not failures]


class FitWorkload:
    """One cold ``bcgd.fit``; every check on the fit, with the certificate."""

    ops_per_round = 1

    def check_round(self, results):
        return []

    def operation(self, inputs):
        return bcgd.fit(inputs.frame, inputs.links, inputs.dictionary, inputs.config)

    def reference(self, inputs):
        return None

    def check(self, inputs, result, record, reference):
        y, mask = _arrays(inputs.frame)
        cols = checks.Columns(inputs.links)
        out = checks.check_fit(result, y, mask, cols, inputs.atoms)
        out += checks.check_certificate(result, y, mask, cols, inputs.atoms)
        return out

    def selftest(self, inputs, result, record, reference):
        y, mask = _arrays(inputs.frame)
        cols = checks.Columns(inputs.links)
        slack = checks.certificate_slack(result, y, mask, cols, inputs.atoms)
        return _fit_selftest(result, y, mask, cols, inputs.atoms, slack)


class FitLarge(FitWorkload):
    """5000 x 500, half Gaussian and half Bernoulli columns, p_obs 0.3, groups."""

    name = "fit-large"
    M1, M2, GROUPS, SPARSITY, RANK = 5000, 500, 10, 50, 5
    P_OBS, RATIO, BOX = 0.3, 0.2, 2.5
    C1, C2 = 1.0, 2.0

    def build(self, seed):
        truth_rng, obs_rng, noise_rng = _streams(seed, 3)
        m1, m2, h = self.M1, self.M2, self.GROUPS
        labels = truth_rng.permutation(np.arange(m1) % h)
        atoms = checks.GroupAtoms(labels, h, m2)
        alpha = np.zeros(h * m2)
        alpha[truth_rng.choice(h * m2, self.SPARSITY, replace=False)] = (
            truth_rng.standard_normal(self.SPARSITY))
        low = truth_rng.standard_normal((m1, self.RANK)) @ truth_rng.standard_normal(
            (self.RANK, m2))
        main = atoms.field(alpha)
        main *= self.RATIO * np.linalg.norm(low) / np.linalg.norm(main)
        x = main + low
        x *= self.BOX / np.abs(x).max()
        half = m2 // 2
        values = np.empty((m1, m2))
        values[:, :half] = x[:, :half] + obs_rng.standard_normal((m1, half))
        values[:, half:] = obs_rng.random((m1, m2 - half)) < 1.0 / (1.0 + np.exp(-x[:, half:]))
        mask = obs_rng.random((m1, m2)) < self.P_OBS
        types = [ColumnType.NUMERIC] * half + [ColumnType.BINARY] * (m2 - half)
        links = [LinkSpec.gaussian()] * half + [LinkSpec.bernoulli()] * (m2 - half)
        op, sup = _masked_noise_anchors(noise_rng, mask, atoms)
        config = bcgd.SolverConfig(
            lam1=self.C1 * op, lam2=self.C2 * sup,
            nuclear_tol=experiments.STUDY_CONFIG.nuclear_tol,
            nuclear_max_iter=experiments.STUDY_CONFIG.nuclear_max_iter,
        )
        return FitInputs(_frame(values, mask, types), links,
                         GroupEffectsDictionary(labels, (m1, m2)), config, atoms)


class FitCorruptions(FitWorkload):
    """300 x 40 Gaussian, 5% spiked cells, one corruption atom per observed cell."""

    name = "fit-corruptions"
    M1, M2, RANK, P_OBS = 300, 40, 3, 0.8
    SPIKE_SHARE, SPIKE_LO, SPIKE_HI = 0.05, 8.0, 12.0
    C1, C2 = 1.5, 1.0

    def build(self, seed):
        truth_rng, obs_rng, noise_rng = _streams(seed, 3)
        m1, m2 = self.M1, self.M2
        low = truth_rng.standard_normal((m1, self.RANK)) @ truth_rng.standard_normal(
            (self.RANK, m2)) / np.sqrt(self.RANK)
        values = low + obs_rng.standard_normal((m1, m2))
        mask = obs_rng.random((m1, m2)) < self.P_OBS
        rows, cols = np.nonzero(mask)
        spiked = obs_rng.random(rows.size) < self.SPIKE_SHARE
        size = obs_rng.uniform(self.SPIKE_LO, self.SPIKE_HI, rows.size)
        sign = np.where(obs_rng.random(rows.size) < 0.5, -1.0, 1.0)
        values[rows[spiked], cols[spiked]] += (sign * size)[spiked]
        atoms = checks.CellAtoms(rows, cols, (m1, m2))
        op, sup = _masked_noise_anchors(noise_rng, mask, atoms)
        config = bcgd.SolverConfig(lam1=self.C1 * op, lam2=self.C2 * sup)
        links = [LinkSpec.gaussian()] * m2
        dictionary = CorruptionsDictionary(list(zip(rows.tolist(), cols.tolist())), (m1, m2))
        return FitInputs(_frame(values, mask, [ColumnType.NUMERIC] * m2), links,
                         dictionary, config, atoms)

    def reference(self, inputs):
        y, mask = _arrays(inputs.frame)
        cfg = inputs.config
        value, _ = checks.gaussian_cells_reference(
            y, mask, checks.Columns(inputs.links).sigma2, inputs.atoms.rows,
            inputs.atoms.cols, cfg.lam1, cfg.lam2)
        return value

    def _against_reference(self, inputs, fit, reference):
        y, mask = _arrays(inputs.frame)
        cols = checks.Columns(inputs.links)
        own = checks.objective(fit.alpha_hat, fit.l_hat, y, mask, cols, inputs.atoms,
                               fit.config.lam1, fit.config.lam2)
        return checks.check_reference(own, reference)

    def check(self, inputs, result, record, reference):
        return (super().check(inputs, result, record, reference)
                + self._against_reference(inputs, result, reference))

    def selftest(self, inputs, result, record, reference):
        out = super().selftest(inputs, result, record, reference)
        moved = dataclasses.replace(result, l_hat=1.05 * result.l_hat)
        if not self._against_reference(inputs, moved, reference):
            out.append("self-test: the reference check accepted L scaled by 1.05")
        return out


def _design_atoms(dictionary):
    """The benchmark's own group atoms for a SimDesign group dictionary:
    contiguous equal blocks of rows, the layout SimDesign documents."""
    m1, m2 = dictionary.shape
    return checks.GroupAtoms(checks.equal_blocks(m1, dictionary.n_groups),
                             dictionary.n_groups, m2)


def _recorded_fit_checks(record, label):
    """check_fit on every fit splr made during the operation."""
    out = []
    for i, (frame, links, dictionary, fit) in enumerate(record.fits):
        y, mask = _arrays(frame)
        out += checks.check_fit(fit, y, mask, checks.Columns(links),
                                _design_atoms(dictionary), f"{label} fit {i}")
    return out


def _recorded_anchor_checks(grids, label):
    out = []
    for i, (frame, links, dictionary, grid) in enumerate(grids):
        y, mask = _arrays(frame)
        anchors = checks.zero_model_anchors(y, mask, checks.Columns(links),
                                            _design_atoms(dictionary))
        out += checks.check_anchors(grid, anchors, f"{label} grid {i}")
    return out


def _largest_interactions(record):
    """The recorded fit with the largest L: a penalty path starts at
    lambda1_max, where L = 0 and scaling it tests nothing."""
    return max(record.fits, key=lambda entry: float(np.abs(entry[3].l_hat).sum()))


def _anchor_selftest(grids):
    frame, links, dictionary, grid = grids[0]
    moved = dataclasses.replace(grid, lambda1_max=grid.lambda1_max * (1 + 1e-8))
    if _recorded_anchor_checks([(frame, links, dictionary, moved)], "self-test"):
        return []
    return ["self-test: the anchor check accepted lambda1_max moved by 1e-8"]


@dataclasses.dataclass(frozen=True)
class StudyInputs:
    seed: int


class StudyImputation:
    """One replicate of run_imputation_study: 3 ratios x 3 missingness, 150 x 30.
    A round runs it twice from one seed, and the two runs' rows must agree
    bit for bit."""

    name = "study-imputation"
    ops_per_round = 2
    RATIOS = (0.2, 1.0, 5.0)

    def build(self, seed):
        return StudyInputs(seed)

    def operation(self, inputs):
        return experiments.run_imputation_study(
            ratios=self.RATIOS, n_reps=1, seed=inputs.seed)

    def reference(self, inputs):
        return None

    def _column_mean_checks(self, rows, record):
        out = []
        if len(rows) != 3 * len(record.instances):
            return [f"{self.name}: {len(rows)} rows for {len(record.instances)} instances"]
        for i, inst in enumerate(record.instances):
            row = rows[3 * i + 1]
            if row["method"] != experiments.METHOD_COLUMN_MEAN or row["seed"] != inst.design.seed:
                out.append(f"{self.name}: row {3 * i + 1} is not instance {i}'s column mean")
                continue
            expected = checks.column_mean_metrics({
                "values": np.asarray(inst.frame.values), "mask": np.asarray(inst.frame.mask),
                "y_full": inst.y_full, "alpha": inst.truth.alpha,
                "main_field": inst.truth.main_field, "low_rank": inst.truth.low_rank,
                "numeric": np.array([t is ColumnType.NUMERIC
                                     for t in inst.frame.column_types]),
            })
            out += checks.check_row_values(row, expected, f"{self.name} row {3 * i + 1}")
        return out

    def check(self, inputs, result, record, reference):
        out = _recorded_anchor_checks(record.grids, self.name)
        out += _recorded_fit_checks(record, self.name)
        out += self._column_mean_checks(result, record)
        return out

    def check_round(self, results):
        return checks.check_identical_rows(results[0], results[1])

    def selftest(self, inputs, result, record, reference):
        out = _anchor_selftest(record.grids)
        frame, links, dictionary, fit = _largest_interactions(record)
        y, mask = _arrays(frame)
        out += _fit_selftest(fit, y, mask, checks.Columns(links), _design_atoms(dictionary),
                             None)
        rows = [dict(r) for r in result]
        rows[1]["mse_missing"] *= 1.0 + 1e-9
        if not self._column_mean_checks(rows, record):
            out.append("self-test: the column-mean check accepted mse_missing moved by 1e-9")
        twin = [dict(r) for r in result]
        twin[0]["err_alpha"] = float(np.nextafter(twin[0]["err_alpha"], np.inf))
        if not checks.check_identical_rows(result, twin):
            out.append("self-test: the identical-rows check accepted a one-ulp change")
        return out


WORKLOADS = {w.name: w for w in (FitLarge(), FitCorruptions(), StudyImputation())}
