"""Mixed data frame: typed columns, observation mask, CSV ingestion/emission.

File format: UTF-8 comma-separated values (a byte-order mark is skipped) with
a header row of distinct column names.  Empty cells and "NA" (any
capitalization) mark missing entries.  Binary columns accept
0/1/Yes/No/TRUE/FALSE.  An optional JSON schema sidecar maps column names to
"numeric" | "binary" | "count", optionally with per-column link constants,
e.g. {"income": {"type": "numeric", "sigma2": 2.0}}; each of its keys must
name a column.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .exceptions import (
    IngestionError,
    InvalidInputError,
    SchemaError,
    ShapeMismatchError,
)
from .expfam import LinkSpec

_MISSING_TOKENS = {"", "na"}
_BINARY_TOKENS = {"0": 0.0, "1": 1.0, "no": 0.0, "yes": 1.0, "false": 0.0, "true": 1.0}


class ColumnType(Enum):
    NUMERIC = "numeric"
    BINARY = "binary"
    COUNT = "count"


@dataclass(frozen=True)
class MixedDataFrame:
    """Immutable table with per-column types and an observation mask.

    ``values`` holds NaN wherever ``mask`` is False; numeric code paths must
    go through ``y_filled`` (zeros at unobserved entries) or index by the
    mask, so junk under the mask can never leak into results.
    """

    column_names: tuple
    column_types: tuple
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        if values.ndim != 2 or mask.shape != values.shape:
            raise ShapeMismatchError("values and mask must be identical 2-d shapes")
        m1, m2 = values.shape
        if m1 < 1 or m2 < 1:
            raise InvalidInputError("frame must have at least one row and column")
        if len(self.column_names) != m2 or len(self.column_types) != m2:
            raise ShapeMismatchError("column metadata length does not match width")
        if not mask.any():
            raise InvalidInputError("frame has no observed entries")
        values[~mask] = np.nan
        for j, ctype in enumerate(self.column_types):
            col = values[mask[:, j], j]
            if not np.isfinite(col).all():
                raise InvalidInputError(
                    f"non-finite observed value in column {self.column_names[j]!r}"
                )
            if ctype is ColumnType.BINARY and not np.isin(col, (0.0, 1.0)).all():
                raise InvalidInputError(
                    f"binary column {self.column_names[j]!r} has values outside {{0,1}}"
                )
            if ctype is ColumnType.COUNT and (
                np.any(col < 0) or np.any(col != np.round(col))
            ):
                raise InvalidInputError(
                    f"count column {self.column_names[j]!r} has non-integer or "
                    "negative values"
                )
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "column_types", tuple(self.column_types))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def y_filled(self) -> np.ndarray:
        """Observed values with zeros at unobserved entries; read-only."""
        filled = np.where(self.mask, self.values, 0.0)
        filled.setflags(write=False)
        return filled

    @cached_property
    def observed_by_links(self) -> dict:
        """``expfam.observed``'s cache: the observed cells grouped by link,
        one entry per tuple of column links."""
        return {}

    def __eq__(self, other):
        if not isinstance(other, MixedDataFrame):
            return NotImplemented
        return (
            self.column_names == other.column_names
            and self.column_types == other.column_types
            and np.array_equal(self.mask, other.mask)
            and np.array_equal(self.y_filled, other.y_filled)
        )


def _column_specs(schema: dict | None, names=None) -> dict:
    """``schema``'s entries, bare type strings as ``{"type": ...}``, each
    with a known type; with ``names`` given, a key that names none of those
    columns is an error."""
    if schema is None:
        return {}
    if not isinstance(schema, dict):
        raise SchemaError("schema must be a JSON object")
    specs = {}
    for key, spec in schema.items():
        if names is not None and key not in names:
            raise SchemaError(f"schema key {key!r} names no column")
        if isinstance(spec, str):
            spec = {"type": spec}
        ctype = spec.get("type") if isinstance(spec, dict) else None
        if ctype not in ("numeric", "binary", "count"):
            raise SchemaError(f"column {key!r}: unknown type {ctype!r}")
        specs[key] = spec
    return specs


def default_links(frame: MixedDataFrame, schema: dict | None = None) -> list:
    """Per-column LinkSpec from column types, honoring schema constants."""
    specs = _column_specs(schema, frame.column_names)
    links = []
    for name, ctype in zip(frame.column_names, frame.column_types):
        spec = specs.get(name, {})
        key = {ColumnType.NUMERIC: "sigma2", ColumnType.COUNT: "a"}.get(ctype)
        value = spec.get(key, 1.0)
        # JSON's true is a bool, which Python counts as the number 1
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidInputError(f"column {name!r}: {key} must be a number")
        value = float(value)
        if ctype is ColumnType.NUMERIC:
            links.append(LinkSpec.gaussian(sigma2=value))
        elif ctype is ColumnType.BINARY:
            links.append(LinkSpec.bernoulli())
        else:
            links.append(LinkSpec.poisson(a=value))
    return links


def read_json(path, what: str):
    """Load one JSON input file; a syntax error names ``what`` and the path."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{exc} in {what} file {path}") from exc


def read_schema(path) -> dict:
    """Load a schema sidecar; values may be bare type strings or objects."""
    return _column_specs(read_json(path, "schema"))


def _read_binary(token: str) -> float:
    return _BINARY_TOKENS[token.lower()]


def _read_count(token: str) -> float:
    if int(token) < 0:
        raise ValueError(token)
    # float of a decimal too large for a double is inf, which read_csv
    # rejects; abs reads "-0" as 0.0
    return abs(float(token))


# each column type's token reader and what an error says of a token it cannot
# read; inference tries the types in this order
_READERS = {
    ColumnType.BINARY: (_read_binary, "is not a binary value"),
    ColumnType.COUNT: (_read_count, "is not a nonnegative integer"),
    ColumnType.NUMERIC: (float, "is not numeric"),
}


def _read_tokens(tokens, ctype) -> list:
    """Values of ``tokens`` up to the first one that ``ctype``'s reader cannot read."""
    reader = _READERS[ctype][0]
    values = []
    try:
        for token in tokens:
            values.append(reader(token))
    except (KeyError, ValueError):
        pass
    return values


def _read_column(tokens, rows, ctype, name):
    """Type and values of one column's present ``tokens`` (stripped, at 0-based
    ``rows``).  Without a schema type, the type is the first in ``_READERS``
    order whose reader reads every token; an all-missing column is numeric."""
    declared = ctype is not None
    if not (declared or tokens):
        return ColumnType.NUMERIC, []
    for ctype in (ctype,) if declared else _READERS:
        values = _read_tokens(tokens, ctype)
        if len(values) == len(tokens):
            break
    if len(values) < len(tokens) and not declared:
        levels = sorted(set(tokens))
        raise SchemaError(
            f"column {name!r} looks categorical with levels {levels[:5]}; "
            "only two-level Yes/No/TRUE/FALSE columns are supported"
        )
    bad, problem = len(values), _READERS[ctype][1]
    nonfinite = np.flatnonzero(~np.isfinite(values))
    if nonfinite.size:
        bad, problem = nonfinite[0], "is not finite"
    if bad < len(tokens):
        row = rows[bad] + 1
        raise IngestionError(
            f"row {row}, column {name!r}: {tokens[bad]!r} {problem}",
            row=row,
            column=name,
        )
    return ctype, values


def read_csv(path, schema: dict | None = None) -> MixedDataFrame:
    """Ingest a CSV file into a MixedDataFrame.

    Types come from ``schema`` when given.  Otherwise a column's type is the
    first of binary, count and numeric whose reader reads every present cell,
    and that reader's values are the column: 0/1 and yes/no/true/false give
    binary, nonnegative integers count, anything else parseable as float
    numeric.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file, expected a header row") from None
        rows = [row for row in reader if row]
    names = [h.strip() for h in header]
    seen = set()
    for name in names:
        if name in seen:
            raise IngestionError(f"{path}: header repeats column {name!r}", column=name)
        seen.add(name)
    specs = _column_specs(schema, names)
    for row_idx, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise IngestionError(
                f"row {row_idx}: expected {len(names)} cells, got {len(row)}",
                row=row_idx,
            )

    m1, m2 = len(rows), len(names)
    values = np.full((m1, m2), np.nan)
    mask = np.zeros((m1, m2), dtype=bool)
    types = []
    for j, name in enumerate(names):
        cells = [row[j].strip() for row in rows]
        present = [
            i for i, token in enumerate(cells) if token.lower() not in _MISSING_TOKENS
        ]
        ctype, column = _read_column(
            [cells[i] for i in present],
            present,
            ColumnType(specs[name]["type"]) if name in specs else None,
            name,
        )
        values[present, j] = column
        mask[present, j] = True
        types.append(ctype)
    return MixedDataFrame(tuple(names), tuple(types), values, mask)


def _format_cell(val, ctype) -> str:
    if ctype is ColumnType.BINARY or ctype is ColumnType.COUNT:
        return str(int(val))
    return repr(float(val))


def write_csv(frame: MixedDataFrame, path) -> None:
    """Emit a frame; masked entries become "NA". Round-trips with read_csv."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(frame.column_names)
        for i in range(frame.n_rows):
            row = []
            for j, ctype in enumerate(frame.column_types):
                if frame.mask[i, j]:
                    row.append(_format_cell(frame.values[i, j], ctype))
                else:
                    row.append("NA")
            writer.writerow(row)
