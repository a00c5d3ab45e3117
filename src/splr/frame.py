"""Mixed data frame: typed columns, observation mask, CSV ingestion/emission.

File format: UTF-8 comma-separated values with a header row.  Empty cells and
"NA" (any capitalization) mark missing entries.  Binary columns accept
0/1/Yes/No/TRUE/FALSE.  An optional JSON schema sidecar maps column names to
"numeric" | "binary" | "count", optionally with per-column link constants,
e.g. {"income": {"type": "numeric", "sigma2": 2.0}}.
"""

from __future__ import annotations

import csv
import json
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

    @cached_property
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


def default_links(frame: MixedDataFrame, schema: dict | None = None) -> list:
    """Per-column LinkSpec from column types, honoring schema constants."""
    links = []
    for name, ctype in zip(frame.column_names, frame.column_types):
        spec = (schema or {}).get(name, {})
        if isinstance(spec, str):
            spec = {"type": spec}
        key = {ColumnType.NUMERIC: "sigma2", ColumnType.COUNT: "a"}.get(ctype)
        try:
            value = float(spec.get(key, 1.0))
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"column {name!r}: {key} must be a number") from exc
        if ctype is ColumnType.NUMERIC:
            links.append(LinkSpec.gaussian(sigma2=value))
        elif ctype is ColumnType.BINARY:
            links.append(LinkSpec.bernoulli())
        else:
            links.append(LinkSpec.poisson(a=value))
    return links


def read_json(path, what: str):
    """Load one JSON input file; a syntax error names ``what`` and the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{exc} in {what} file {path}") from exc


def read_schema(path) -> dict:
    """Load a schema sidecar; values may be bare type strings or objects."""
    raw = read_json(path, "schema")
    if not isinstance(raw, dict):
        raise SchemaError("schema must be a JSON object")
    schema = {}
    for name, spec in raw.items():
        if isinstance(spec, str):
            spec = {"type": spec}
        ctype = spec.get("type") if isinstance(spec, dict) else None
        if ctype not in ("numeric", "binary", "count"):
            raise SchemaError(f"column {name!r}: unknown type {ctype!r}")
        schema[name] = spec
    return schema


def _is_missing(token: str) -> bool:
    return token.strip().lower() in _MISSING_TOKENS


def _parse_int(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return None


def _parse_cell(token, ctype, row, col_name):
    token = token.strip()
    if ctype is ColumnType.BINARY:
        val = _BINARY_TOKENS.get(token.lower())
        if val is None:
            raise IngestionError(
                f"row {row}, column {col_name!r}: {token!r} is not a binary value",
                row=row,
                column=col_name,
            )
        return val
    if ctype is ColumnType.COUNT:
        val = _parse_int(token)
        if val is None or val < 0:
            raise IngestionError(
                f"row {row}, column {col_name!r}: {token!r} is not a nonnegative "
                "integer",
                row=row,
                column=col_name,
            )
        return float(val)
    try:
        val = float(token)
    except ValueError:
        raise IngestionError(
            f"row {row}, column {col_name!r}: {token!r} is not numeric",
            row=row,
            column=col_name,
        ) from None
    if not np.isfinite(val):
        raise IngestionError(
            f"row {row}, column {col_name!r}: {token!r} is not finite",
            row=row,
            column=col_name,
        )
    return val


def _infer_column_type(tokens, col_name) -> ColumnType:
    present = [t.strip() for t in tokens if not _is_missing(t)]
    if not present:
        return ColumnType.NUMERIC
    if all(t.lower() in _BINARY_TOKENS for t in present):
        return ColumnType.BINARY
    ints = [_parse_int(t) for t in present]
    if all(v is not None for v in ints):
        if min(ints) >= 0:
            return ColumnType.COUNT
        return ColumnType.NUMERIC
    try:
        for t in present:
            float(t)
    except ValueError:
        levels = sorted(set(present))
        raise SchemaError(
            f"column {col_name!r} looks categorical with levels {levels[:5]}; "
            "only two-level Yes/No/TRUE/FALSE columns are supported"
        ) from None
    return ColumnType.NUMERIC


def read_csv(path, schema: dict | None = None) -> MixedDataFrame:
    """Ingest a CSV file into a MixedDataFrame.

    Types come from ``schema`` when given, otherwise are inferred per column:
    all nonnegative integers gives count (binary when only 0/1 appear),
    anything else parseable as float gives numeric.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file, expected a header row") from None
        rows = [row for row in reader if row]
    names = [h.strip() for h in header]
    for row_idx, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise IngestionError(
                f"row {row_idx}: expected {len(names)} cells, got {len(row)}",
                row=row_idx,
            )
    columns = [[row[j] for row in rows] for j in range(len(names))]

    types = []
    for j, name in enumerate(names):
        spec = (schema or {}).get(name)
        if spec is None:
            types.append(_infer_column_type(columns[j], name))
        else:
            if isinstance(spec, str):
                spec = {"type": spec}
            types.append(ColumnType(spec["type"]))

    m1, m2 = len(rows), len(names)
    values = np.full((m1, m2), np.nan)
    mask = np.zeros((m1, m2), dtype=bool)
    for j, (name, ctype) in enumerate(zip(names, types)):
        for i, token in enumerate(columns[j]):
            if _is_missing(token):
                continue
            values[i, j] = _parse_cell(token, ctype, i + 1, name)
            mask[i, j] = True
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
