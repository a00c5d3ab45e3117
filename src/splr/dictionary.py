"""Main-effects designs: indexed families of structured coefficient matrices.

A dictionary is a family {U^1, ..., U^N} of m1 x m2 matrices; the main-effects
component of the model is the combination sum_k alpha_k U^k.  Built-in
structures (group indicators, row/column indicators, single-cell corruptions)
never materialize their atoms: apply/adjoint are closed-form index arithmetic,
O(m1*m2) regardless of N.  Custom dictionaries store atoms as sparse triplets.

Every atom entry must lie in [-1, 1], which keeps the l1-penalty scale
meaningful across structures.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInputError, ShapeMismatchError


class AtomSupports(NamedTuple):
    """Every atom's nonzero entries, split into runs.

    A run is a maximal stretch of consecutive atoms whose supports are
    pairwise disjoint.  Run r holds atoms ``runs[r][0]:runs[r][1]`` and
    entries ``run_ptr[r]:run_ptr[r + 1]``; inside a run the entries may come
    in any order (the built-in structures list them in cell order).

    ``cells`` and ``owner`` are int32 where every cell and atom index fits
    (see ``_index_dtype``), and unit-valued structures store ``vals`` as one
    1.0 broadcast to every entry (read-only, zero stride), so the cache of a
    group dictionary costs 8 bytes per cell, not 24.
    """

    cells: np.ndarray    # flat cell index i * m2 + j of each entry
    vals: np.ndarray     # the atom's value at that cell
    owner: np.ndarray    # the atom each entry belongs to
    runs: tuple          # (first atom, stop atom) of each run
    run_ptr: np.ndarray  # entry offsets of the runs


def _index_dtype(shape, n_atoms):
    """int32 where every flat cell index and atom index fits, else intp."""
    fits = max(shape[0] * shape[1], n_atoms) <= np.iinfo(np.int32).max
    return np.int32 if fits else np.intp


def _indices(values, what) -> np.ndarray:
    """``values`` as intp; a non-integral index is an error, not a truncation."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
            raise InvalidInputError(f"{what} must be integers")
    return arr.astype(np.intp)


def _one_run(cells, owner, n_atoms) -> AtomSupports:
    """Supports of unit-valued atoms that are pairwise disjoint."""
    return AtomSupports(
        cells, np.broadcast_to(1.0, cells.size), owner, ((0, n_atoms),),
        np.array([0, cells.size], dtype=np.intp),
    )


class Dictionary(abc.ABC):
    """Linear map alpha -> sum_k alpha_k U^k with structure-aware kernels."""

    def __init__(self, shape):
        m1, m2 = shape
        if m1 < 1 or m2 < 1:
            raise InvalidInputError("dictionary shape must be positive")
        self.shape = (int(m1), int(m2))

    @property
    @abc.abstractmethod
    def n_atoms(self) -> int: ...

    @abc.abstractmethod
    def apply(self, alpha) -> np.ndarray:
        """Evaluate sum_k alpha_k U^k as a dense m1 x m2 matrix."""

    @abc.abstractmethod
    def adjoint(self, grad) -> np.ndarray:
        """Coordinate k of the output is the trace inner product <U^k, grad>."""

    @abc.abstractmethod
    def to_descriptor(self) -> dict: ...

    @abc.abstractmethod
    def _atom_supports(self) -> AtomSupports: ...

    @cached_property
    def atom_supports(self) -> AtomSupports:
        """The atoms' entries and their runs, built once per dictionary."""
        return self._atom_supports()

    def _check_alpha(self, alpha) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (self.n_atoms,):
            raise ShapeMismatchError(
                f"coefficient vector length {alpha.shape} != {self.n_atoms} atoms"
            )
        return alpha

    def _check_grad(self, grad) -> np.ndarray:
        grad = np.asarray(grad, dtype=float)
        if grad.shape != self.shape:
            raise ShapeMismatchError(
                f"matrix shape {grad.shape} != dictionary shape {self.shape}"
            )
        return grad


class GroupEffectsDictionary(Dictionary):
    """Atom (h, q) marks the rows of group h in column q.

    ``assignment`` maps each row to one of the labels 0..n_groups-1, and
    every label is used.  Atom index is k = h * m2 + q.
    """

    def __init__(self, assignment, shape):
        super().__init__(shape)
        assignment = _indices(assignment, "group labels")
        if assignment.shape != (self.shape[0],):
            raise InvalidInputError("assignment must give one group per row")
        if assignment.min(initial=0) < 0:
            raise InvalidInputError("every row needs a nonnegative group label")
        if np.any(np.bincount(assignment) == 0):
            raise InvalidInputError(
                "group labels must cover 0..n_groups-1 with no empty group"
            )
        self.assignment = assignment  # _indices made a copy
        self.assignment.setflags(write=False)
        self.n_groups = int(assignment.max()) + 1

    @property
    def n_atoms(self) -> int:
        return self.n_groups * self.shape[1]

    def apply(self, alpha):
        alpha = self._check_alpha(alpha)
        table = alpha.reshape(self.n_groups, self.shape[1])
        return table[self.assignment]  # fancy indexing copies

    @cached_property
    def _group_rows(self):
        """The n_groups x m1 indicator of each group's rows, as CSR with each
        group's rows ascending."""
        # imported here: scipy.sparse adds about 13 ms to importing splr, and
        # only group adjoints use it
        import scipy.sparse

        m1 = self.shape[0]
        return scipy.sparse.csr_matrix(
            (np.ones(m1), (self.assignment, np.arange(m1))), shape=(self.n_groups, m1)
        )

    def adjoint(self, grad):
        # CSR times dense adds each group's rows in ascending order, as
        # np.add.at over the assignment would, so the sums are the same bits
        grad = self._check_grad(grad)
        return (self._group_rows @ grad).ravel()

    def _atom_supports(self):
        m1, m2 = self.shape
        dtype = _index_dtype(self.shape, self.n_atoms)
        owner = self.assignment.astype(dtype)[:, None] * m2 + np.arange(m2, dtype=dtype)
        return _one_run(np.arange(m1 * m2, dtype=dtype), owner.ravel(), self.n_atoms)

    def to_descriptor(self):
        return {"type": "groups", "assignment": self.assignment.tolist()}


class RowColumnDictionary(Dictionary):
    """Row indicators followed by column indicators: N = m1 + m2 atoms."""

    @property
    def n_atoms(self) -> int:
        return self.shape[0] + self.shape[1]

    def apply(self, alpha):
        alpha = self._check_alpha(alpha)
        m1 = self.shape[0]
        return alpha[:m1, None] + alpha[None, m1:]

    def adjoint(self, grad):
        grad = self._check_grad(grad)
        return np.concatenate([grad.sum(axis=1), grad.sum(axis=0)])

    def _atom_supports(self):
        # the row atoms, then the column atoms: every cell once in each run
        m1, m2 = self.shape
        cells = np.arange(m1 * m2, dtype=_index_dtype(self.shape, self.n_atoms))
        return AtomSupports(
            np.concatenate([cells, cells]),
            np.broadcast_to(1.0, 2 * cells.size),
            np.concatenate([cells // m2, m1 + cells % m2]),
            ((0, m1), (m1, m1 + m2)),
            np.array([0, cells.size, 2 * cells.size], dtype=np.intp),
        )

    def to_descriptor(self):
        return {"type": "rowcol"}


class CorruptionsDictionary(Dictionary):
    """One canonical-basis atom per listed cell."""

    def __init__(self, cells, shape):
        super().__init__(shape)
        idx = _indices(list(cells), "corruption cells")
        if idx.ndim != 2 or idx.shape[1] != 2 or not len(idx):
            raise InvalidInputError("corruptions need one or more (row, column) cells")
        cells = [tuple(c) for c in idx.tolist()]
        if len(set(cells)) != len(cells):
            raise InvalidInputError("corruption cells must be unique")
        m1, m2 = self.shape
        for i, j in cells:
            if not (0 <= i < m1 and 0 <= j < m2):
                raise InvalidInputError(f"cell ({i}, {j}) outside {m1} x {m2} frame")
        self.cells = tuple(cells)
        self._rows, self._cols = np.ascontiguousarray(idx.T)

    @property
    def n_atoms(self) -> int:
        return len(self.cells)

    def apply(self, alpha):
        alpha = self._check_alpha(alpha)
        out = np.zeros(self.shape)
        out[self._rows, self._cols] = alpha
        return out

    def adjoint(self, grad):
        grad = self._check_grad(grad)
        return grad[self._rows, self._cols].copy()

    def _atom_supports(self):
        n = self.n_atoms
        dtype = _index_dtype(self.shape, n)
        cells = (self._rows * self.shape[1] + self._cols).astype(dtype)
        return _one_run(cells, np.arange(n, dtype=dtype), n)

    def to_descriptor(self):
        return {"type": "corruptions", "cells": [list(c) for c in self.cells]}


class CustomDictionary(Dictionary):
    """Explicit atoms given as sparse (row, col, value) triplets."""

    def __init__(self, atoms, shape):
        super().__init__(shape)
        if not atoms:
            raise InvalidInputError("custom dictionary needs at least one atom")
        m1, m2 = self.shape
        parsed = []
        for k, triplets in enumerate(atoms):
            triplets = list(triplets)
            if not triplets:
                raise InvalidInputError(f"atom {k} is empty")
            rows = _indices([t[0] for t in triplets], f"atom {k} rows")
            cols = _indices([t[1] for t in triplets], f"atom {k} columns")
            vals = np.array([t[2] for t in triplets], dtype=float)
            if not np.isfinite(vals).all():
                raise InvalidInputError(f"atom {k} has non-finite values")
            if rows.min() < 0 or rows.max() >= m1 or cols.min() < 0 or cols.max() >= m2:
                raise InvalidInputError(f"atom {k} has entries outside the frame")
            if np.any(np.abs(vals) > 1.0):
                raise InvalidInputError(
                    f"atom {k} has entries outside [-1, 1]; rescale the atom"
                )
            if len({(int(r), int(c)) for r, c in zip(rows, cols)}) != rows.size:
                raise InvalidInputError(f"atom {k} repeats a cell")
            parsed.append((rows, cols, vals))
        self._atoms = parsed

    @property
    def n_atoms(self) -> int:
        return len(self._atoms)

    def apply(self, alpha):
        alpha = self._check_alpha(alpha)
        out = np.zeros(self.shape)
        for ak, (rows, cols, vals) in zip(alpha, self._atoms):
            if ak != 0.0:
                np.add.at(out, (rows, cols), ak * vals)
        return out

    def adjoint(self, grad):
        grad = self._check_grad(grad)
        return np.array(
            [np.dot(vals, grad[rows, cols]) for rows, cols, vals in self._atoms]
        )

    def _atom_supports(self):
        m1, m2 = self.shape
        cells = [rows * m2 + cols for rows, cols, _ in self._atoms]
        sizes = [c.size for c in cells]
        # greedy split: a run ends before the first atom that touches one of
        # its cells
        last_run = np.full(m1 * m2, -1)
        starts = [0]
        for k, c in enumerate(cells):
            if np.any(last_run[c] == len(starts) - 1):
                starts.append(k)
            last_run[c] = len(starts) - 1
        bounds = starts + [self.n_atoms]
        dtype = _index_dtype(self.shape, self.n_atoms)
        return AtomSupports(
            np.concatenate(cells).astype(dtype),
            np.concatenate([vals for _, _, vals in self._atoms]),
            np.repeat(np.arange(self.n_atoms, dtype=dtype), sizes),
            tuple(zip(bounds[:-1], bounds[1:])),
            np.cumsum([0] + sizes)[bounds],
        )

    def to_descriptor(self):
        atoms = []
        for rows, cols, vals in self._atoms:
            atoms.append(
                [[int(r), int(c), float(v)] for r, c, v in zip(rows, cols, vals)]
            )
        return {"type": "custom", "atoms": atoms}


def build_dictionary(descriptor: dict, shape) -> Dictionary:
    """Construct a dictionary from its JSON descriptor."""
    kind = descriptor.get("type") if isinstance(descriptor, dict) else None
    if kind == "rowcol":
        return RowColumnDictionary(shape)
    cls, key = {
        "groups": (GroupEffectsDictionary, "assignment"),
        "corruptions": (CorruptionsDictionary, "cells"),
        "custom": (CustomDictionary, "atoms"),
    }.get(kind, (None, None))
    if cls is None:
        raise InvalidInputError(f"unknown dictionary type {kind!r}")
    if key not in descriptor:
        raise InvalidInputError(f"{kind} dictionary descriptor needs {key!r}")
    try:
        return cls(descriptor[key], shape)
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidInputError(f"malformed {kind} {key!r}: {exc}") from exc


def equal_group_assignment(n_rows: int, n_groups: int) -> np.ndarray:
    """Contiguous blocks of as-equal-as-possible sizes."""
    if not 1 <= n_groups <= n_rows:
        raise InvalidInputError("need 1 <= n_groups <= n_rows")
    return (np.arange(n_rows) * n_groups) // n_rows
