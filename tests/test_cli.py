"""CLI parse/dispatch/exit-code behavior; heavy lifting is library-tested."""

import csv
import json

import numpy as np
import pytest

from splr.bcgd import ModelFit
from splr.cli import EXIT_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, main
from splr.frame import read_csv


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(8)
    m1, m2 = 12, 4
    table = rng.standard_normal((m1, m2)).round(3)
    lines = ["a,b,c,d"]
    for i in range(m1):
        cells = [repr(float(v)) for v in table[i]]
        if i % 3 == 0:
            cells[i % m2] = "NA"
        lines.append(",".join(cells))
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({c: "numeric" for c in "abcd"}))
    dict_path = tmp_path / "dict.json"
    dict_path.write_text(
        json.dumps({"type": "groups", "assignment": [i % 3 for i in range(m1)]})
    )
    return tmp_path, data, schema, dict_path


class TestFitCommand:
    def test_matrix_header_reads_back_as_the_column_names(self, tmp_path):
        rng = np.random.default_rng(3)
        data = tmp_path / "data.csv"
        data.write_text('"a,b",c\n' + "".join(
            f"{float(u)!r},{float(v)!r}\n" for u, v in rng.standard_normal((8, 2))))
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(json.dumps({"type": "rowcol"}))
        out = tmp_path / "fit_out"
        assert main([
            "fit", "--data", str(data), "--dict", str(dict_path),
            "--lambda1", "0.5", "--lambda2", "0.3", "--out", str(out),
        ]) == EXIT_OK
        with open(out / "l.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a,b", "c"]
        assert len(rows) == 9 and all(len(row) == 2 for row in rows)
        assert (out / "alpha.csv").read_text().startswith("alpha\n")

    def test_fit_writes_outputs_and_exits_zero(self, workspace):
        tmp, data, schema, dict_path = workspace
        out = tmp / "fit_out"
        code = main([
            "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "0.5", "--lambda2", "0.3",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert (out / "alpha.csv").exists()
        assert (out / "l.csv").exists()

    def test_missing_file_exits_one(self, workspace):
        tmp, data, schema, dict_path = workspace
        code = main([
            "fit", "--data", str(tmp / "nope.csv"), "--dict", str(dict_path),
            "--lambda1", "1", "--lambda2", "1", "--out", str(tmp / "o"),
        ])
        assert code == EXIT_ERROR

    def test_bad_usage_exits_one(self):
        assert main(["fit", "--lambda1", "1"]) == EXIT_ERROR

    def test_nan_penalty_exits_one_with_typed_message(self, workspace, capsys):
        tmp, data, schema, dict_path = workspace
        code = main([
            "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "nan", "--lambda2", "0.3",
            "--out", str(tmp / "o"),
        ])
        assert code == EXIT_ERROR
        assert "error: lam1 must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp / "o").exists()

    def test_iteration_cap_exits_two_with_report(self, workspace):
        tmp, data, schema, dict_path = workspace
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"max_outer": 1, "eps_f": 1e-14}))
        out = tmp / "capped"
        code = main([
            "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "0.01", "--lambda2", "0.01",
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == EXIT_NOT_CONVERGED
        assert (out / "report.json").exists()

    def test_capped_nuclear_solves_reported(self, workspace, capsys):
        tmp, data, schema, dict_path = workspace
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"nuclear_max_iter": 1}))
        out = tmp / "em_capped"
        main([
            "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "0.5", "--lambda2", "0.3",
            "--config", str(cfg), "--out", str(out),
        ])
        report = json.loads((out / "report.json").read_text())
        hits, iters = report["nuclear_cap_hits"], report["nuclear_iters"]
        kept = report["extrapolations"]
        assert hits > 0 and iters >= hits
        assert (
            f"{hits} capped nuclear solves, {iters} nuclear EM iterations, "
            f"{kept} extrapolated points kept"
            in capsys.readouterr().out
        )

    def test_unknown_config_key_exits_one(self, workspace):
        tmp, data, schema, dict_path = workspace
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = main([
            "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "1", "--lambda2", "1",
            "--config", str(cfg), "--out", str(tmp / "o"),
        ])
        assert code == EXIT_ERROR

    def test_anchor_lambda_zeroes_alpha_in_report(self, workspace):
        tmp, data, schema, dict_path = workspace
        frame = read_csv(data)
        from splr import default_grid, default_links, build_dictionary

        links = default_links(frame)
        dictionary = build_dictionary(
            json.loads(dict_path.read_text()), frame.shape
        )
        grid = default_grid(frame, links, dictionary)
        out = tmp / "anchored"
        code = main([
            "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path),
            "--lambda1", str(grid.lambda1_max * 1.01),
            "--lambda2", str(grid.lambda2_max * 1.01),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["alpha_nonzeros"] == 0
        assert report["rank"] == 0


class TestImputeCommand:
    def test_output_has_no_missing_cells(self, workspace):
        tmp, data, schema, dict_path = workspace
        out = tmp / "completed.csv"
        code = main([
            "impute", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "0.5", "--lambda2", "0.5",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        text = out.read_text()
        assert "NA" not in text
        completed = read_csv(out)
        assert completed.mask.all()
        original = read_csv(data)
        np.testing.assert_allclose(
            completed.values[original.mask], original.values[original.mask]
        )

    def test_auto_lambda(self, workspace):
        tmp, data, schema, dict_path = workspace
        out = tmp / "completed_auto.csv"
        code = main([
            "impute", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--auto-lambda", "--folds", "2",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.exists()

    def test_binary_imputations_within_unit_interval(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["x,y"]
        for i in range(12):
            x = repr(float(rng.standard_normal()))
            y = str(rng.integers(0, 2)) if i % 4 else "NA"
            lines.append(f"{x},{y}")
        data = tmp_path / "mixed.csv"
        data.write_text("\n".join(lines) + "\n")
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(
            json.dumps({"type": "groups", "assignment": [i % 2 for i in range(12)]})
        )
        out = tmp_path / "completed.csv"
        code = main([
            "impute", "--data", str(data), "--dict", str(dict_path),
            "--lambda1", "0.5", "--lambda2", "0.5", "--out", str(out),
        ])
        assert code == EXIT_OK
        completed = read_csv(out, schema={"x": "numeric", "y": "numeric"})
        j = completed.column_names.index("y")
        assert np.all(completed.values[:, j] >= 0.0)
        assert np.all(completed.values[:, j] <= 1.0)

    def test_requires_lambda_or_auto(self, workspace):
        tmp, data, schema, dict_path = workspace
        code = main([
            "impute", "--data", str(data), "--dict", str(dict_path),
            "--out", str(tmp / "x.csv"),
        ])
        assert code == EXIT_ERROR


class TestCvCommand:
    def test_writes_json_and_csv(self, workspace):
        tmp, data, schema, dict_path = workspace
        out = tmp / "cv_out"
        code = main([
            "cv", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--n1", "2", "--n2", "2",
            "--folds", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "cv.json").read_text())
        assert "best_lambda1" in payload
        assert (out / "cv.csv").read_text().startswith("lambda1,lambda2,fold,error")


class TestSimulateCommand:
    def test_writes_instance_files(self, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(
            json.dumps(
                {"m1": 20, "m2": 6, "s": 2, "r": 2, "p_obs": 0.7,
                 "n_groups": 4, "seed": 5}
            )
        )
        out = tmp_path / "sim"
        code = main(["simulate", "--design", str(design), "--out", str(out)])
        assert code == EXIT_OK
        for name in (
            "frame.csv", "truth_alpha.csv", "truth_l.csv", "y_full.csv",
            "dictionary.json", "design.json",
        ):
            assert (out / name).exists()
        frame = read_csv(out / "frame.csv")
        assert frame.shape == (20, 6)

    def test_seed_override_changes_data(self, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(
            json.dumps(
                {"m1": 10, "m2": 4, "s": 1, "r": 1, "p_obs": 1.0,
                 "n_groups": 2, "seed": 5}
            )
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--design", str(design), "--out", str(out_a)]) == 0
        assert main([
            "simulate", "--design", str(design), "--seed", "6", "--out", str(out_b)
        ]) == 0
        assert (out_a / "frame.csv").read_text() != (out_b / "frame.csv").read_text()


class TestReproduceCommand:
    def test_rates_study_outputs(self, tmp_path):
        out = tmp_path / "rates"
        code = main([
            "reproduce", "--study", "rates", "--out", str(out),
            "--seed", "3", "--reps", "2",
        ])
        assert code == EXIT_OK
        assert (out / "rate_study.csv").read_text().count("\n") > 2
        assert (out / "rate_manifest.json").exists()
        assert (out / "rate_summary.csv").exists()

    def test_fixed_seed_reproducibility(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "reproduce", "--study", "rates", "--out", str(out),
                "--seed", "9", "--reps", "2",
            ]) == EXIT_OK
        assert (out_a / "rate_study.csv").read_text() == (
            out_b / "rate_study.csv"
        ).read_text()


class TestFitSummary:
    def test_theta_config_key_exits_one(self, workspace, capsys):
        tmp, data, schema, dict_path = workspace
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"theta": 0.5}))
        code = main([
            "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "1", "--lambda2", "1",
            "--config", str(cfg), "--out", str(tmp / "o"),
        ])
        assert code == EXIT_ERROR
        assert "unknown solver config keys: ['theta']" in capsys.readouterr().err

    def test_rank_computed_once(self, workspace, capsys, monkeypatch):
        tmp, data, schema, dict_path = workspace
        calls = []
        rank = ModelFit.rank

        def counted(self, *args, **kwargs):
            calls.append(1)
            return rank(self, *args, **kwargs)

        monkeypatch.setattr(ModelFit, "rank", counted)
        out = tmp / "fit_once"
        code = main([
            "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "0.5", "--lambda2", "0.3",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text())
        assert (
            f"rank {report['rank']}, {report['alpha_nonzeros']} active coefficients"
            in capsys.readouterr().out
        )


# a valid simulation design, for the malformed-design cases to alter
_DESIGN = {"m1": 10, "m2": 4, "s": 1, "r": 1, "p_obs": 1.0}


class TestInputErrors:
    """Bad inputs exit 1 with one ``error:`` line naming the cause."""

    def _run(self, capsys, *args):
        code = main(list(args))
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "Traceback" not in err
        return err

    def _fit(self, capsys, data, schema, dict_path, out, *extra):
        return self._run(
            capsys, "fit", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--lambda1", "0.5", "--lambda2", "0.3",
            "--out", str(out), *extra,
        )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"max_outer": 2.5}, "error: max_outer must be an integer >= 1"),
            ({"nuclear_max_iter": 2.5}, "error: nuclear_max_iter must be an integer"),
            ({"nuclear_max_iter": 0}, "error: nuclear_max_iter must be an integer"),
            ({"lasso_tol": 0.0}, "error: lasso_tol must be finite and > 0"),
            ({"slope": 0.2}, "error: unknown solver config keys: ['slope']"),
            ([{"max_outer": 1}], "error: solver config must be a JSON object"),
            ({"nu": 0.1}, "error: unknown solver config keys: ['nu']"),
            ({"lasso_max_iter": 5},
             "error: unknown solver config keys: ['lasso_max_iter']"),
            ({"update_alpha": False},
             "error: unknown solver config keys: ['update_alpha']"),
            ({"update_l": False}, "error: unknown solver config keys: ['update_l']"),
            ({"max_outer": True}, "error: max_outer must be an integer >= 1, got True"),
            ({"eps_f": True}, "error: eps_f must be finite and > 0, got True"),
        ],
    )
    def test_bad_solver_config(self, workspace, capsys, overrides, message):
        tmp, data, schema, dict_path = workspace
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        err = self._fit(capsys, data, schema, dict_path, tmp / "o",
                        "--config", str(cfg))
        assert message in err

    def test_non_finite_schema_constant(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("visits,b\n" + "".join(
            f"{i % 4},{0.1 * i}\n" for i in range(8)))
        schema = tmp_path / "schema.json"
        # Python's json reads NaN, so it reaches the link
        schema.write_text('{"visits": {"type": "count", "a": NaN}, "b": "numeric"}')
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(json.dumps({"type": "rowcol"}))
        err = self._fit(capsys, data, schema, dict_path, tmp_path / "o")
        assert "error: poisson rate-scale a must be finite and > 0" in err

    def test_non_integral_corruption_cell(self, workspace, capsys):
        tmp, data, schema, _ = workspace
        dict_path = tmp / "corrupt.json"
        dict_path.write_text(json.dumps({"type": "corruptions", "cells": [[0.5, 1]]}))
        err = self._fit(capsys, data, schema, dict_path, tmp / "o")
        assert "error: corruption cells must be integers" in err

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            ({"type": "corruptions"},
             "error: corruptions dictionary descriptor needs 'cells'"),
            ({"type": "corruptions", "cells": [[0, 1], [2]]},
             "error: malformed corruptions 'cells'"),
            ({"type": "groups", "assignment": [[0], 1]},
             "error: malformed groups 'assignment'"),
            ({"type": "custom", "atoms": [[[0, 1]]]},
             "error: malformed custom 'atoms'"),
            ([{"type": "rowcol"}], "error: unknown dictionary type None"),
        ],
        ids=["no-cells", "ragged-cells", "ragged-assignment", "short-triplet", "array"],
    )
    def test_malformed_dictionary(self, workspace, capsys, descriptor, message):
        tmp, data, schema, _ = workspace
        dict_path = tmp / "bad.json"
        dict_path.write_text(json.dumps(descriptor))
        err = self._fit(capsys, data, schema, dict_path, tmp / "o")
        assert message in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"a": {"type": "numeric", "sigma2": "x"}, "b": "numeric", '
             '"c": "numeric", "d": "numeric"}',
             "error: column 'a': sigma2 must be a number"),
            ('{"a": 5, "b": "numeric", "c": "numeric", "d": "numeric"}',
             "error: column 'a': unknown type None"),
            ('["numeric"]', "error: schema must be a JSON object"),
            ('{"a": ', "error: Expecting value"),
            ('{"a": {"type": "numeric", "sigma2": true}, "b": "numeric", '
             '"c": "numeric", "d": "numeric"}',
             "error: column 'a': sigma2 must be a number"),
        ],
        ids=["string-sigma2", "number-spec", "array", "not-json", "bool-sigma2"],
    )
    def test_malformed_schema(self, workspace, capsys, text, message):
        tmp, data, _, dict_path = workspace
        schema = tmp / "bad-schema.json"
        schema.write_text(text)
        err = self._fit(capsys, data, schema, dict_path, tmp / "o")
        assert message in err

    @pytest.mark.parametrize("which", ["schema", "dictionary", "config", "design"])
    def test_json_syntax_error_names_file(self, workspace, capsys, which):
        tmp, data, schema, dict_path = workspace
        bad = tmp / f"bad-{which}.json"
        bad.write_text('{"m1": 10,')
        if which == "design":
            err = self._run(capsys, "simulate", "--design", str(bad),
                            "--out", str(tmp / "o"))
        else:
            paths = {"schema": schema, "dictionary": dict_path, which: bad}
            extra = ("--config", str(bad)) if which == "config" else ()
            err = self._fit(capsys, data, paths["schema"], paths["dictionary"],
                            tmp / "o", *extra)
        assert err.startswith("error: Expecting property name")
        assert f"in {which} file {bad}" in err

    @pytest.mark.parametrize(
        "design, message",
        [
            ({"m1": 10, "m2": 4, "bogus": 1}, "unknown design keys: ['bogus']"),
            ({"m1": 10, "m2": 4}, "design is missing keys: ['s', 'r', 'p_obs']"),
            ([1, 2], "design must be a JSON object"),
            ({**_DESIGN, "m1": "10"}, "m1 must be an integer, got '10'"),
            ({**_DESIGN, "p_obs": "0.5"}, "p_obs must be a finite real, got '0.5'"),
            ({**_DESIGN, "seed": "x"}, "seed must be an integer, got 'x'"),
            ({**_DESIGN, "m1": 10.5}, "m1 must be an integer, got 10.5"),
            ({**_DESIGN, "n_groups": 0}, "n_groups must lie in [1, 10]"),
            ({**_DESIGN, "m1": True}, "m1 must be an integer, got True"),
            ({**_DESIGN, "seed": -1}, "seed must be >= 0, got -1"),
        ],
        ids=["unknown-key", "missing-keys", "array", "string-int", "string-float",
             "string-seed", "fractional-int", "zero-groups", "bool-int",
             "negative-seed"],
    )
    def test_malformed_design(self, tmp_path, capsys, design, message):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(design))
        err = self._run(capsys, "simulate", "--design", str(path),
                        "--out", str(tmp_path / "o"))
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("cv", "--seed", "-1"),
            ("impute", "--seed", "-1"),
            ("reproduce", "--seed", "-1"),
            ("reproduce", "--reps", "0"),
        ],
    )
    def test_integer_option_out_of_range(self, workspace, capsys, command, option,
                                         value):
        tmp, data, schema, dict_path = workspace
        inputs = ["--study", "rates"] if command == "reproduce" else [
            "--data", str(data), "--dict", str(dict_path)]
        if command == "impute":
            inputs += ["--lambda1", "0.5", "--lambda2", "0.3"]
        err = self._run(capsys, command, *inputs, option, value,
                        "--out", str(tmp / "o"))
        assert f"Invalid value for '{option}'" in err
        assert not (tmp / "o").exists()

    def test_cv_empty_grid(self, workspace, capsys):
        tmp, data, schema, dict_path = workspace
        code = main([
            "cv", "--data", str(data), "--schema", str(schema),
            "--dict", str(dict_path), "--n1", "0", "--folds", "2",
            "--out", str(tmp / "cv"),
        ])
        assert code == EXIT_ERROR
        assert "error: grid lengths must be >= 1" in capsys.readouterr().err
