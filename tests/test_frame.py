"""Mixed data frame: ingestion, typing, mask statistics, round-trips."""

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

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"a": "categorical"}))
        with pytest.raises(SchemaError):
            mdf.read_schema(path)


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
