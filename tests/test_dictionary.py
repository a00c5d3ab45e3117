"""Dictionary structures against dense-atom oracles built from scratch."""

import numpy as np
import pytest

from splr.dictionary import (
    CorruptionsDictionary,
    CustomDictionary,
    GroupEffectsDictionary,
    RowColumnDictionary,
    build_dictionary,
    equal_group_assignment,
)
from splr.exceptions import InvalidInputError, ShapeMismatchError

from conftest import make_dictionary


def dense_atoms(dictionary):
    """Materialize every atom as a dense matrix, straight from the structure
    definition (independent of the library's apply/adjoint kernels)."""
    m1, m2 = dictionary.shape
    if isinstance(dictionary, GroupEffectsDictionary):
        atoms = []
        for h in range(dictionary.n_groups):
            for q in range(m2):
                u = np.zeros((m1, m2))
                u[dictionary.assignment == h, q] = 1.0
                atoms.append(u)
        return atoms
    if isinstance(dictionary, RowColumnDictionary):
        atoms = []
        for i in range(m1):
            u = np.zeros((m1, m2))
            u[i, :] = 1.0
            atoms.append(u)
        for j in range(m2):
            u = np.zeros((m1, m2))
            u[:, j] = 1.0
            atoms.append(u)
        return atoms
    if isinstance(dictionary, CorruptionsDictionary):
        atoms = []
        for i, j in dictionary.cells:
            u = np.zeros((m1, m2))
            u[i, j] = 1.0
            atoms.append(u)
        return atoms
    if isinstance(dictionary, CustomDictionary):
        atoms = []
        for triplets in dictionary.to_descriptor()["atoms"]:
            u = np.zeros((m1, m2))
            for i, j, v in triplets:
                u[i, j] = v
            atoms.append(u)
        return atoms
    raise TypeError(type(dictionary))


ALL_KINDS = ["groups", "rowcol", "corruptions", "custom"]


class TestApply:
    def test_group_indicator(self):
        assignment = [0, 0, 1, 1]
        d = GroupEffectsDictionary(assignment, (4, 2))
        alpha = np.zeros(4)
        alpha[0] = 3.0  # atom (h=0, q=0)
        out = d.apply(alpha)
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[1, 0] = 3.0
        np.testing.assert_array_equal(out, expected)

    def test_row_column_sums(self):
        d = RowColumnDictionary((2, 2))
        out = d.apply(np.array([1.0, 2.0, 10.0, 20.0]))
        np.testing.assert_array_equal(out, [[11.0, 21.0], [12.0, 22.0]])

    def test_corruption_single_cell(self):
        d = CorruptionsDictionary([(0, 1)], (2, 3))
        out = d.apply(np.array([5.0]))
        expected = np.zeros((2, 3))
        expected[0, 1] = 5.0
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_dense_oracle(self, kind, rng):
        d = make_dictionary(kind, (7, 5), rng)
        atoms = dense_atoms(d)
        alpha = rng.standard_normal(d.n_atoms)
        expected = sum(a * u for a, u in zip(alpha, atoms))
        np.testing.assert_allclose(d.apply(alpha), expected, atol=1e-12)

    def test_length_mismatch(self):
        d = RowColumnDictionary((2, 2))
        with pytest.raises(ShapeMismatchError):
            d.apply(np.ones(3))


class TestAdjoint:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_adjoint_identity(self, kind, rng):
        """<apply(alpha), G> == <alpha, adjoint(G)> on random data."""
        d = make_dictionary(kind, (6, 4), rng)
        for _ in range(5):
            alpha = rng.standard_normal(d.n_atoms)
            grad = rng.standard_normal(d.shape)
            lhs = float(np.sum(d.apply(alpha) * grad))
            rhs = float(np.dot(alpha, d.adjoint(grad)))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, abs(lhs)))

    def test_group_coordinate_is_group_sum(self, rng):
        assignment = [0, 1, 0, 1, 1]
        d = GroupEffectsDictionary(assignment, (5, 3))
        grad = rng.standard_normal((5, 3))
        out = d.adjoint(grad)
        # atom (h=1, q=2) has index 1*3 + 2
        assert out[5] == pytest.approx(grad[[1, 3, 4], 2].sum())

    @pytest.mark.parametrize("shape,n_groups", [((40, 7), 3), ((40, 7), 40), ((1, 3), 1)])
    def test_group_adjoint_is_add_at_bit_for_bit(self, rng, shape, n_groups):
        """Each group's rows are summed in ascending order, as np.add.at over
        the assignment sums them, so every coordinate has the same bits; a
        Fortran-ordered gradient included."""
        m1, m2 = shape
        assignment = rng.permutation(np.arange(m1) % n_groups)
        d = GroupEffectsDictionary(assignment, shape)
        grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        grad[rng.random(shape) < 0.3] = 0.0
        expected = np.zeros((n_groups, m2))
        np.add.at(expected, assignment, grad)
        assert np.array_equal(d.adjoint(grad), expected.ravel())
        assert np.array_equal(d.adjoint(np.asfortranarray(grad)), expected.ravel())

    def test_corruption_coordinate_reads_cell(self, rng):
        d = CorruptionsDictionary([(2, 1)], (4, 3))
        grad = rng.standard_normal((4, 3))
        assert d.adjoint(grad)[0] == grad[2, 1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_adjoint_matches_dense_oracle(self, kind, rng):
        d = make_dictionary(kind, (5, 6), rng)
        atoms = dense_atoms(d)
        grad = rng.standard_normal(d.shape)
        expected = np.array([np.sum(u * grad) for u in atoms])
        np.testing.assert_allclose(d.adjoint(grad), expected, atol=1e-12)


class TestAtomSupports:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_entries_match_dense_oracle(self, kind, rng):
        d = make_dictionary(kind, (7, 5), rng)
        sup = d.atom_supports
        for k, atom in enumerate(dense_atoms(d)):
            rebuilt = np.zeros(d.shape[0] * d.shape[1])
            np.add.at(rebuilt, sup.cells[sup.owner == k], sup.vals[sup.owner == k])
            np.testing.assert_array_equal(rebuilt.reshape(d.shape), atom)
        assert np.abs(sup.vals).max() <= 1.0  # every atom entry in [-1, 1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_runs_are_maximal_disjoint_stretches(self, kind, rng):
        d = make_dictionary(kind, (7, 5), rng)
        sup = d.atom_supports
        starts = [start for start, _ in sup.runs]
        stops = [stop for _, stop in sup.runs]
        assert starts == [0] + stops[:-1] and stops[-1] == d.n_atoms
        for r, (start, stop) in enumerate(sup.runs):
            entries = slice(sup.run_ptr[r], sup.run_ptr[r + 1])
            owners = sup.owner[entries]
            assert np.all((owners >= start) & (owners < stop))
            cells = sup.cells[entries]
            assert np.unique(cells).size == cells.size  # pairwise disjoint
            if stop < d.n_atoms:  # the next atom touches the run
                assert np.isin(sup.cells[sup.owner == stop], cells).any()
        assert sup.run_ptr[-1] == sup.cells.size


def owned_bytes(arrays):
    """Bytes of the distinct buffers behind ``arrays``: a view counts as the
    array it was taken from, once."""
    roots = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        roots[id(a)] = a.nbytes
    return sum(roots.values())


class TestSupportCacheSize:
    @pytest.mark.parametrize(
        "d",
        [
            GroupEffectsDictionary(equal_group_assignment(400, 7), (400, 300)),
            RowColumnDictionary((400, 300)),
            CorruptionsDictionary([(i, (7 * i) % 300) for i in range(400)], (400, 300)),
        ],
        ids=["groups", "rowcol", "corruptions"],
    )
    def test_unit_atoms_cost_eight_bytes_per_entry(self, d):
        """int32 cells and owners, and one shared 1.0 for the values."""
        sup = d.atom_supports
        arrays = (sup.cells, sup.vals, sup.owner, sup.run_ptr)
        assert owned_bytes(arrays) <= 8 * sup.cells.size + 64
        assert np.all(sup.vals == 1.0) and sup.vals.size == sup.cells.size


class TestOverlapBound:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_declared_overlap_is_attained(self, kind, rng):
        d = make_dictionary(kind, (6, 5), rng)
        overlap = sum(np.abs(u) for u in dense_atoms(d))
        # the overlap the supports declare: summed |value| per cell
        sup = d.atom_supports
        declared = np.bincount(sup.cells, np.abs(sup.vals), d.shape[0] * d.shape[1])
        assert overlap.max() == pytest.approx(declared.max())
        # and every atom entry obeys the [-1, 1] box
        for u in dense_atoms(d):
            assert np.abs(u).max() <= 1.0


class TestValidation:
    def test_unassigned_row_rejected(self):
        with pytest.raises(InvalidInputError):
            GroupEffectsDictionary([0, -1, 1], (3, 2))

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidInputError):
            GroupEffectsDictionary([0, 0, 2], (3, 2))

    def test_group_count_comes_from_the_labels(self):
        d = GroupEffectsDictionary([1, 0, 1], (3, 2))
        assert d.n_groups == 2 and d.n_atoms == 4
        with pytest.raises(TypeError):
            GroupEffectsDictionary([1, 0, 1], (3, 2), n_groups=2)

    def test_custom_box_enforced(self):
        with pytest.raises(InvalidInputError):
            CustomDictionary([[(0, 0, 1.5)]], (2, 2))

    def test_custom_duplicate_cell_rejected(self):
        with pytest.raises(InvalidInputError):
            CustomDictionary([[(0, 0, 0.5), (0, 0, 0.25)]], (2, 2))

    def test_corruptions_out_of_bounds(self):
        with pytest.raises(InvalidInputError):
            CorruptionsDictionary([(5, 0)], (2, 2))

    @pytest.mark.parametrize("cell", [(0.5, 1), (0, 1.5), (np.nan, 1), (0, np.inf)])
    def test_corruptions_non_integral_cell_rejected(self, cell):
        # (0.5, 1) used to fit cell (0, 1)
        message = "corruption cells must be integers"
        with pytest.raises(InvalidInputError, match=message):
            CorruptionsDictionary([cell], (2, 2))
        with pytest.raises(InvalidInputError, match=message):
            build_dictionary({"type": "corruptions", "cells": [list(cell)]}, (2, 2))

    def test_integral_floats_accepted_as_indices(self):
        d = CorruptionsDictionary([(1.0, 0.0)], (2, 2))
        assert d.cells == ((1, 0),)
        c = CustomDictionary([[(1.0, 0.0, 0.5)]], (2, 2))
        np.testing.assert_array_equal(c.apply([1.0]), [[0.0, 0.0], [0.5, 0.0]])

    @pytest.mark.parametrize("triplet", [(0.7, 0, 0.5), (0, 1.2, 0.5)])
    def test_custom_non_integral_index_rejected(self, triplet):
        # a row of 0.7 used to become row 0
        with pytest.raises(InvalidInputError, match="atom 0 .* must be integers"):
            CustomDictionary([[triplet]], (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_custom_non_finite_value_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="atom 1 has non-finite values"):
            CustomDictionary([[(0, 0, 0.5)], [(1, 1, bad)]], (2, 2))


class TestDescriptors:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_descriptor_round_trip(self, kind, rng):
        d = make_dictionary(kind, (6, 4), rng)
        rebuilt = build_dictionary(d.to_descriptor(), d.shape)
        alpha = rng.standard_normal(d.n_atoms)
        np.testing.assert_array_equal(d.apply(alpha), rebuilt.apply(alpha))

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidInputError):
            build_dictionary({"type": "wavelets"}, (3, 3))


class TestEqualGroups:
    def test_sizes_balanced(self):
        a = equal_group_assignment(10, 4)
        sizes = np.bincount(a)
        assert sizes.sum() == 10
        assert sizes.max() - sizes.min() <= 1
        assert len(sizes) == 4
