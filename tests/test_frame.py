"""Mixed data frame: ingestion, typing, mask statistics, round-trips."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splr import frame as mdf
from splr.exceptions import IngestionError, InvalidInputError, SchemaError
from splr.frame import ColumnType, MixedDataFrame

FIXTURES = Path(__file__).parent / "fixtures"


class TestConstruction:
    def test_values_under_mask_become_nan(self):
        values = np.array([[1.0, 99.0], [2.0, 3.0]])
        mask = np.array([[True, False], [True, True]])
        fr = MixedDataFrame(
            ("a", "b"), (ColumnType.NUMERIC,) * 2, values, mask
        )
        assert np.isnan(fr.values[0, 1])
        assert fr.y_filled[0, 1] == 0.0

    def test_arrays_are_read_only(self):
        fr = MixedDataFrame(
            ("a",), (ColumnType.NUMERIC,), np.array([[1.0]]), np.array([[True]])
        )
        with pytest.raises(ValueError):
            fr.values[0, 0] = 2.0
        with pytest.raises(ValueError):
            fr.mask[0, 0] = False

    def test_binary_values_validated(self):
        with pytest.raises(InvalidInputError):
            MixedDataFrame(
                ("a",), (ColumnType.BINARY,), np.array([[2.0]]), np.array([[True]])
            )

    def test_count_values_validated(self):
        with pytest.raises(InvalidInputError):
            MixedDataFrame(
                ("a",), (ColumnType.COUNT,), np.array([[1.5]]), np.array([[True]])
            )

    def test_all_masked_rejected(self):
        with pytest.raises(InvalidInputError):
            MixedDataFrame(
                ("a",), (ColumnType.NUMERIC,), np.array([[1.0]]), np.array([[False]])
            )


class TestReadCsv:
    def test_na_cell_masks(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n1.5\nNA\nna\n\n")
        fr = mdf.read_csv(path)
        assert fr.mask[:, 0].tolist() == [True, False, False]

    def test_survey_fixture_types(self):
        fr = mdf.read_csv(FIXTURES / "survey.csv")
        types = dict(zip(fr.column_names, fr.column_types))
        assert types["food_stamps"] is ColumnType.BINARY
        assert types["allocation"] is ColumnType.BINARY
        assert types["electricity_bill"] is ColumnType.NUMERIC
        assert types["id_people"] is ColumnType.COUNT
        # yes/no mapped onto {1, 0}
        j = fr.column_names.index("food_stamps")
        observed = fr.values[fr.mask[:, j], j]
        assert set(observed.tolist()) == {0.0}
        assert fr.mask[:, j].sum() == 5
        j = fr.column_names.index("electricity_bill")
        assert fr.mask[:, j].sum() == 5

    def test_binary_token_vocabulary(self):
        fr = mdf.read_csv(FIXTURES / "mixed.csv")
        j = fr.column_names.index("flagged")
        assert fr.column_types[j] is ColumnType.BINARY
        np.testing.assert_array_equal(
            fr.values[:, j], [1.0, 0.0, 0.0, 1.0, 0.0]
        )

    def test_count_inference(self):
        fr = mdf.read_csv(FIXTURES / "mixed.csv")
        j = fr.column_names.index("visits")
        assert fr.column_types[j] is ColumnType.COUNT

    def test_zero_one_column_prefers_binary(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n0\n1\n1\n0\n")
        fr = mdf.read_csv(path)
        assert fr.column_types[0] is ColumnType.BINARY

    def test_negative_integers_become_numeric(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n-1\n4\n")
        fr = mdf.read_csv(path)
        assert fr.column_types[0] is ColumnType.NUMERIC

    def test_schema_overrides_inference(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n0\n1\n")
        fr = mdf.read_csv(path, schema={"x": "count"})
        assert fr.column_types[0] is ColumnType.COUNT

    def test_unparseable_cell_coordinates(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n1.5\nwat\n")
        with pytest.raises(SchemaError):
            mdf.read_csv(path)  # inferred as categorical-ish column
        with pytest.raises(IngestionError) as err:
            mdf.read_csv(path, schema={"x": "numeric"})
        assert err.value.row == 2
        assert err.value.column == "x"

    def test_count_schema_rejects_fraction(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n2.5\n")
        with pytest.raises(IngestionError):
            mdf.read_csv(path, schema={"x": "count"})

    def test_multilevel_categorical_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\nred\ngreen\nblue\n")
        with pytest.raises(SchemaError):
            mdf.read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1.0\n")
        with pytest.raises(IngestionError):
            mdf.read_csv(path)

    def test_repeated_header_name_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b, a\n1,2,3\n")
        with pytest.raises(IngestionError, match="header repeats column 'a'") as err:
            mdf.read_csv(path, schema={"a": "numeric"})
        assert err.value.column == "a"

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\ufeffa,b\n1,2\n3,4\n", encoding="utf-8")
        fr = mdf.read_csv(path, schema={"a": "numeric"})
        assert fr.column_names == ("a", "b")
        assert fr.column_types == (ColumnType.NUMERIC, ColumnType.COUNT)

    def test_schema_key_must_name_a_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("income,visits\n1.5,2\n")
        schema = {"incme": "numeric"}
        with pytest.raises(SchemaError, match="schema key 'incme' names no column"):
            mdf.read_csv(path, schema=schema)
        fr = mdf.read_csv(path)
        with pytest.raises(SchemaError, match="schema key 'incme' names no column"):
            mdf.default_links(fr, schema)

    @pytest.mark.parametrize("schema", [None, {"x": "count"}, {"x": "numeric"}])
    def test_integer_too_large_for_a_double(self, tmp_path, schema):
        path = tmp_path / "t.csv"
        path.write_text("x\n2\n1" + "0" * 400 + "\n")
        with pytest.raises(IngestionError, match="is not finite") as err:
            mdf.read_csv(path, schema=schema)
        assert err.value.row == 2


class TestSchemaSidecar:
    def test_read_schema_and_links(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(
            json.dumps(
                {
                    "a": {"type": "numeric", "sigma2": 2.5},
                    "b": "binary",
                    "c": {"type": "count", "a": 0.5},
                }
            )
        )
        schema = mdf.read_schema(path)
        fr = MixedDataFrame(
            ("a", "b", "c"),
            (ColumnType.NUMERIC, ColumnType.BINARY, ColumnType.COUNT),
            np.array([[1.0, 1.0, 3.0]]),
            np.ones((1, 3), dtype=bool),
        )
        links = mdf.default_links(fr, schema)
        assert links[0].sigma2 == 2.5
        assert links[1].kind == "bernoulli"
        assert links[2].a == 0.5

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("\ufeff" + json.dumps({"a": "count"}), encoding="utf-8")
        assert mdf.read_schema(path) == {"a": {"type": "count"}}

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"a": "categorical"}))
        with pytest.raises(SchemaError):
            mdf.read_schema(path)

    def test_python_schema_checked_like_a_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('"a,b",c\n1.5,2\n')
        with pytest.raises(SchemaError, match="column 'c': unknown type 'bogus'"):
            mdf.read_csv(path, schema={"c": "bogus"})
        fr = mdf.read_csv(path)
        with pytest.raises(SchemaError, match="column 'c': unknown type None"):
            mdf.default_links(fr, {"c": 3})
        with pytest.raises(SchemaError, match="schema must be a JSON object"):
            mdf.default_links(fr, ["c"])
        # a bool is not a link constant, though float(True) is 1.0, nor is a
        # string, though float("2") is 2.0
        for bad in (True, "2"):
            with pytest.raises(InvalidInputError, match="sigma2 must be a number"):
                mdf.default_links(fr, {"a,b": {"type": "numeric", "sigma2": bad}})


def random_frame(seed):
    rng = np.random.default_rng(seed)
    m1 = int(rng.integers(1, 9))
    m2 = int(rng.integers(1, 6))
    types, values = [], np.empty((m1, m2))
    for j in range(m2):
        t = rng.choice(list(ColumnType))
        types.append(t)
        if t is ColumnType.NUMERIC:
            values[:, j] = rng.standard_normal(m1) * 10.0 ** rng.integers(-3, 4)
        elif t is ColumnType.BINARY:
            values[:, j] = rng.integers(0, 2, m1)
        else:
            values[:, j] = rng.poisson(4.0, m1)
    mask = rng.random((m1, m2)) < 0.7
    if not mask.any():
        mask[0, 0] = True
    names = tuple(f"col_{j}" for j in range(m2))
    return MixedDataFrame(names, tuple(types), values, mask)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["survey.csv", "mixed.csv", "numeric.csv"]
    )
    def test_fixture_round_trip(self, name, tmp_path):
        first = mdf.read_csv(FIXTURES / name)
        out = tmp_path / "out.csv"
        mdf.write_csv(first, out)
        again = mdf.read_csv(out)
        assert first == again
        # masked cells are emitted as the NA token
        text = out.read_text()
        assert ("NA" in text) == (not first.mask.all())

    def test_binary_emitted_as_digits(self, tmp_path):
        fr = MixedDataFrame(
            ("b",),
            (ColumnType.BINARY,),
            np.array([[1.0], [0.0]]),
            np.ones((2, 1), dtype=bool),
        )
        out = tmp_path / "b.csv"
        mdf.write_csv(fr, out)
        assert out.read_text().splitlines()[1:] == ["1", "0"]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_frame_round_trip(self, seed, tmp_path_factory):
        fr = random_frame(seed)
        out = tmp_path_factory.mktemp("rt") / "frame.csv"
        mdf.write_csv(fr, out)
        again = mdf.read_csv(out, schema={
            name: ctype.value
            for name, ctype in zip(fr.column_names, fr.column_types)
        })
        assert fr == again


# Reference copy of the typing and parsing rules that read_csv keeps from
# when its inference and its parse were separate passes: a column's type was
# inferred from all its tokens, then each present token parsed under it.
_REF_MISSING = {"", "na"}
_REF_BINARY = {"0": 0.0, "1": 1.0, "no": 0.0, "yes": 1.0, "false": 0.0, "true": 1.0}


def _ref_is_missing(token):
    return token.strip().lower() in _REF_MISSING


def _ref_parse_int(token):
    try:
        return int(token.strip())
    except ValueError:
        return None


def _ref_parse_cell(token, ctype, row, name):
    token = token.strip()
    where = f"row {row}, column {name!r}: {token!r}"
    if ctype is ColumnType.BINARY:
        val = _REF_BINARY.get(token.lower())
        if val is None:
            raise IngestionError(f"{where} is not a binary value", row=row, column=name)
        return val
    if ctype is ColumnType.COUNT:
        val = _ref_parse_int(token)
        if val is None or val < 0:
            raise IngestionError(
                f"{where} is not a nonnegative integer", row=row, column=name
            )
        return float(val)
    try:
        val = float(token)
    except ValueError:
        raise IngestionError(f"{where} is not numeric", row=row, column=name) from None
    if not np.isfinite(val):
        raise IngestionError(f"{where} is not finite", row=row, column=name)
    return val


def _ref_infer_type(tokens, name):
    present = [t.strip() for t in tokens if not _ref_is_missing(t)]
    if not present:
        return ColumnType.NUMERIC
    if all(t.lower() in _REF_BINARY for t in present):
        return ColumnType.BINARY
    ints = [_ref_parse_int(t) for t in present]
    if all(v is not None for v in ints):
        return ColumnType.COUNT if min(ints) >= 0 else ColumnType.NUMERIC
    try:
        for t in present:
            float(t)
    except ValueError:
        levels = sorted(set(present))
        raise SchemaError(
            f"column {name!r} looks categorical with levels {levels[:5]}; "
            "only two-level Yes/No/TRUE/FALSE columns are supported"
        ) from None
    return ColumnType.NUMERIC


def reference_read_column(tokens, name, declared):
    """The one-column frame that the reference rules give ``tokens``."""
    ctype = ColumnType(declared) if declared else _ref_infer_type(tokens, name)
    values = np.full((len(tokens), 1), np.nan)
    mask = np.zeros((len(tokens), 1), dtype=bool)
    for i, token in enumerate(tokens):
        if not _ref_is_missing(token):
            values[i, 0] = _ref_parse_cell(token, ctype, i + 1, name)
            mask[i, 0] = True
    return MixedDataFrame((name,), (ctype,), values, mask)


def _outcome(read):
    try:
        return read()
    except (IngestionError, InvalidInputError, SchemaError) as exc:
        return exc


# 0/1 make binary columns and -3 numeric ones, inf/nan are non-finite and x
# unreadable; NA, na and "" are missing
_VOCABULARY = [
    "0", "1", "-3", "1.5", "007", "+2", "1e3", "yes", "TRUE",
    "NA", "na", " 4 ", "inf", "nan", "x", "",
]


class TestReaderMatchesReference:
    @pytest.mark.parametrize("declared", [None, "numeric", "binary", "count"])
    @given(tokens=st.lists(st.sampled_from(_VOCABULARY), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_single_column(self, declared, tokens, tmp_path_factory):
        path = tmp_path_factory.mktemp("ref") / "t.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x"])
            # csv quotes a lone empty cell, so its row is not skipped as blank
            writer.writerows([token] for token in tokens)
        schema = {"x": declared} if declared else None
        got = _outcome(lambda: mdf.read_csv(path, schema=schema))
        want = _outcome(lambda: reference_read_column(tokens, "x", declared))
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
            assert getattr(got, "row", None) == getattr(want, "row", None)
            assert getattr(got, "column", None) == getattr(want, "column", None)
        else:
            assert got.column_types == want.column_types
            assert got.values.tobytes() == want.values.tobytes()
            assert np.array_equal(got.mask, want.mask)
