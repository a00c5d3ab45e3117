"""Command-line front door: fit, impute, cv, simulate, reproduce.

Thin adapter over the library; every behavior here is reachable through the
Python API.  Exit codes: 0 success (fit converged), 1 usage or input error,
2 fit stopped at the iteration cap (report still written).
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import click
import numpy as np

from . import bcgd, experiments, frame as mdf, selection, simulate
from .bcgd import SolverConfig
from .dictionary import build_dictionary
from .exceptions import SplrError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _load_inputs(data_path, schema_path, dict_path):
    schema = mdf.read_schema(schema_path) if schema_path else None
    data = mdf.read_csv(data_path, schema=schema)
    links = mdf.default_links(data, schema)
    dictionary = build_dictionary(mdf.read_json(dict_path, "dictionary"), data.shape)
    return data, links, dictionary


def _solver_config(lam1, lam2, config_path) -> SolverConfig:
    overrides = mdf.read_json(config_path, "config") if config_path else {}
    if not isinstance(overrides, dict):
        raise SplrError("solver config must be a JSON object")
    known = {f.name for f in fields(SolverConfig)}
    bad = set(overrides) - known
    if bad:
        raise SplrError(f"unknown solver config keys: {sorted(bad)}")
    overrides.pop("lam1", None)
    overrides.pop("lam2", None)
    return SolverConfig(lam1=lam1, lam2=lam2, **overrides)


def _write_matrix_csv(path, matrix, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in np.atleast_2d(matrix))


@click.group(name="splr")
def cli():
    """Sparse main effects + low-rank interactions for mixed data frames."""


@cli.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--schema", "schema_path", type=click.Path(exists=True), default=None)
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
@click.option("--lambda1", type=float, required=True)
@click.option("--lambda2", type=float, required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_fit(data_path, schema_path, dict_path, lambda1, lambda2, config_path, out_dir):
    """Fit the model and write report.json, alpha.csv, and l.csv."""
    data, links, dictionary = _load_inputs(data_path, schema_path, dict_path)
    config = _solver_config(lambda1, lambda2, config_path)
    result = bcgd.fit(data, links, dictionary, config)
    report = result.report()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    _write_matrix_csv(out / "alpha.csv", result.alpha_hat.reshape(-1, 1), ["alpha"])
    _write_matrix_csv(out / "l.csv", result.l_hat, list(data.column_names))
    click.echo(
        f"fit: {'converged' if report['converged'] else 'iteration cap'} after "
        f"{report['n_iter']} iterations, rank {report['rank']}, "
        f"{report['alpha_nonzeros']} active coefficients, "
        f"{report['nuclear_cap_hits']} capped nuclear solves, "
        f"{report['nuclear_iters']} nuclear EM iterations, "
        f"{report['extrapolations']} extrapolated points kept"
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


@cli.command("impute")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--schema", "schema_path", type=click.Path(exists=True), default=None)
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
@click.option("--lambda1", type=float, default=None)
@click.option("--lambda2", type=float, default=None)
@click.option("--auto-lambda", is_flag=True, help="Pick penalties by cross-validation.")
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--round-binary", is_flag=True, help="Round binary cells at 0.5.")
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_impute(data_path, schema_path, dict_path, lambda1, lambda2, auto_lambda,
               folds, seed, round_binary, out_path):
    """Fill every missing cell with its fitted mean and write a full CSV."""
    data, links, dictionary = _load_inputs(data_path, schema_path, dict_path)
    if auto_lambda:
        grid = selection.default_grid(data, links, dictionary)
        report = selection.cross_validate(
            data, links, dictionary, grid, n_folds=folds, seed=seed
        )
        lambda1, lambda2 = report.best_lambda1, report.best_lambda2
        click.echo(f"auto-lambda: lambda1={lambda1:.6g} lambda2={lambda2:.6g}")
    if lambda1 is None or lambda2 is None:
        raise SplrError("provide --lambda1 and --lambda2, or pass --auto-lambda")
    config = SolverConfig(lam1=lambda1, lam2=lambda2)
    result = bcgd.fit(data, links, dictionary, config)
    completed = bcgd.impute(result, data, links, round_binary=round_binary)
    mdf.write_csv(completed, out_path)
    click.echo(f"imputed {int((~data.mask).sum())} cells -> {out_path}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


@cli.command("cv")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--schema", "schema_path", type=click.Path(exists=True), default=None)
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
@click.option("--n1", type=int, default=8, show_default=True)
@click.option("--n2", type=int, default=8, show_default=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_cv(data_path, schema_path, dict_path, n1, n2, folds, seed, out_dir):
    """Cross-validate the penalty grid; write cv.json and cv.csv."""
    data, links, dictionary = _load_inputs(data_path, schema_path, dict_path)
    grid = selection.default_grid(data, links, dictionary, n1=n1, n2=n2)
    report = selection.cross_validate(
        data, links, dictionary, grid, n_folds=folds, seed=seed
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "cv.json").write_text(report.to_json(), encoding="utf-8")
    report.write_csv(out / "cv.csv")
    click.echo(
        f"cv: best lambda1={report.best_lambda1:.6g} "
        f"lambda2={report.best_lambda2:.6g}"
    )
    return EXIT_OK


@cli.command("simulate")
@click.option("--design", "design_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Override the design seed.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_simulate(design_path, seed, out_dir):
    """Draw one synthetic instance and write its frame and ground truth."""
    design = simulate.SimDesign.from_json_dict(mdf.read_json(design_path, "design"))
    if seed is not None:
        design = replace(design, seed=seed)
    instance = simulate.simulate_instance(design)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mdf.write_csv(instance.frame, out / "frame.csv")
    _write_matrix_csv(out / "truth_alpha.csv", instance.truth.alpha.reshape(-1, 1),
                      ["alpha"])
    _write_matrix_csv(out / "truth_l.csv", instance.truth.low_rank,
                      list(instance.frame.column_names))
    _write_matrix_csv(out / "y_full.csv", instance.y_full,
                      list(instance.frame.column_names))
    with open(out / "dictionary.json", "w", encoding="utf-8") as fh:
        json.dump(instance.dictionary.to_descriptor(), fh)
    with open(out / "design.json", "w", encoding="utf-8") as fh:
        json.dump(design.to_json_dict(), fh, indent=2)
    click.echo(f"simulated {design.m1}x{design.m2} frame -> {out_dir}")
    return EXIT_OK


@cli.command("reproduce")
@click.option("--study", type=click.Choice(["estimation", "imputation", "rates"]),
              required=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--reps", type=click.IntRange(min=1), default=20, show_default=True)
def cmd_reproduce(study, out_dir, seed, reps):
    """Run one of the study harnesses and write its CSVs and manifest."""
    if study == "estimation":
        experiments.run_estimation_study(n_reps=reps, seed=seed, out_dir=out_dir)
    elif study == "imputation":
        experiments.run_imputation_study(n_reps=reps, seed=seed, out_dir=out_dir)
    else:
        experiments.run_rate_study(n_reps=reps, seed=seed, out_dir=out_dir)
    click.echo(f"{study} study written to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    """Invoke the CLI, mapping failures onto the documented exit codes."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
        return int(result) if isinstance(result, int) else EXIT_OK
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return EXIT_ERROR
    except click.Abort:
        click.echo("aborted", err=True)
        return EXIT_ERROR
    except (SplrError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_ERROR


def entry() -> None:  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    entry()
