"""Link catalog and quasi-likelihood: closed-form values, finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splr import expfam
from splr.exceptions import (
    InvalidInputError,
    NumericDegeneracyError,
    ShapeMismatchError,
)
from splr.expfam import LinkSpec
from splr.frame import ColumnType, MixedDataFrame

from conftest import at_observed, make_mixed_instance


def single_cell_frame(y, ctype):
    return MixedDataFrame(("c",), (ctype,), np.array([[y]]), np.array([[True]]))


G1, G2, BERN, POIS = (
    LinkSpec.gaussian(), LinkSpec.gaussian(2.5), LinkSpec.bernoulli(),
    LinkSpec.poisson(0.5),
)
_CTYPE = {"gaussian": ColumnType.NUMERIC, "bernoulli": ColumnType.BINARY,
          "poisson": ColumnType.COUNT}


def link_instance(links, mask, seed):
    """(x, frame, links) with data of each column's type and x in [-3, 3]."""
    rng = np.random.default_rng(seed)
    m1, m2 = mask.shape
    values = np.empty((m1, m2))
    for j, link in enumerate(links):
        if link.kind == "gaussian":
            values[:, j] = rng.standard_normal(m1)
        else:
            values[:, j] = rng.integers(0, 2 if link.kind == "bernoulli" else 6, m1)
    frame = MixedDataFrame(
        tuple(f"c{j}" for j in range(m2)),
        tuple(_CTYPE[link.kind] for link in links),
        values, mask,
    )
    return rng.uniform(-3.0, 3.0, (m1, m2)), frame, links


@st.composite
def link_instances(draw):
    m1, m2 = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    links = draw(st.lists(st.sampled_from([G1, G2, BERN, POIS]),
                          min_size=m2, max_size=m2))
    mask = np.array(draw(st.lists(st.booleans(), min_size=m1 * m2,
                                  max_size=m1 * m2))).reshape(m1, m2)
    mask.flat[draw(st.integers(0, m1 * m2 - 1))] = True
    return link_instance(links, mask, draw(st.integers(0, 2**32 - 1)))


def per_column_reference(x, frame, links):
    """The four link quantities computed one column at a time."""
    terms, grad, weights, working = (np.zeros(frame.shape) for _ in range(4))
    for j, link in enumerate(links):
        obs = frame.mask[:, j]
        xo, yo = x[obs, j], frame.values[obs, j]
        terms[obs, j] = -yo * xo + link.g(xo)
        grad[obs, j] = -yo + link.gprime(xo)
        curv = link.gsecond(xo)
        weights[obs, j] = 0.5 * curv
        working[obs, j] = (yo - link.gprime(xo)) / curv
    # the value sums each distinct link's cells in row-major order, links in
    # order of first use
    value = 0.0
    for link in dict.fromkeys(links):
        cols = [j for j, other in enumerate(links) if other == link]
        obs = frame.mask[:, cols]
        if obs.any():
            value += float(np.sum(terms[:, cols][obs]))
    return value, grad, weights, working


class TestPerColumnReference:
    @settings(max_examples=100, deadline=None)
    @given(case=link_instances())
    # one link on non-adjacent columns
    @example(case=link_instance([G1, BERN, G1, POIS, BERN], np.ones((4, 5), bool), 1))
    # two Gaussian links with different sigma2
    @example(case=link_instance([G1, G2, G1, G2], np.ones((3, 4), bool), 2))
    # a column with no observed cell
    @example(case=link_instance(
        [BERN, G1, BERN], np.array([[1, 0, 1], [0, 0, 1], [1, 0, 0]], bool), 3))
    # a single-link frame
    @example(case=link_instance([POIS] * 3, np.eye(3, dtype=bool), 4))
    # equal links that are distinct objects, next to an unequal sigma2
    @example(case=link_instance([G1, LinkSpec.gaussian(), G2, LinkSpec.gaussian(2.5)],
                                np.ones((3, 4), bool), 5))
    # a single column
    @example(case=link_instance([BERN], np.array([[1], [0], [1], [1]], bool), 6))
    def test_bit_identical(self, case):
        """On x's values at the gather's cells, the link functions give the
        reference's bits."""
        x, frame, links = case
        value, grad, weights, working = per_column_reference(x, frame, links)
        obs = expfam.observed(frame, links)
        xo = x.take(obs.cells)
        assert np.array_equal(expfam.quasi_loglik_neg(xo, obs), value)
        assert np.array_equal(expfam.gradient(xo, obs), grad)
        assert np.array_equal(expfam.curvature_weights(xo, obs), weights)
        assert np.array_equal(expfam.working_responses(xo, obs), working)


class TestGather:
    @settings(max_examples=100, deadline=None)
    @given(case=link_instances())
    def test_cells_grouped_by_link(self, case):
        """Every observed cell once; each distinct link's cells row-major in
        one slice, links in order of first use; y the frame's values."""
        _, frame, links = case
        obs = expfam.observed(frame, links)
        assert np.array_equal(np.sort(obs.cells), np.flatnonzero(frame.mask))
        assert np.array_equal(obs.y, frame.values.take(obs.cells))
        used = [link for link in dict.fromkeys(links)
                if frame.mask[:, [j for j, o in enumerate(links) if o == link]].any()]
        assert [link for link, _ in obs.parts] == used
        for link, part in obs.parts:
            cols = obs.cells[part] % frame.n_cols
            assert all(links[j] == link for j in cols)
            assert np.all(np.diff(obs.cells[part]) > 0)
        assert expfam.observed(frame, list(links)) is obs

    def test_flat_iterate_checked(self):
        frame, links = single_cell_frame(1.0, ColumnType.NUMERIC), [G1]
        obs = expfam.observed(frame, links)
        with pytest.raises(ShapeMismatchError, match="observed-cell vector"):
            expfam.quasi_loglik_neg(np.zeros(2), obs)
        with pytest.raises(InvalidInputError, match="non-finite"):
            expfam.quasi_loglik_neg(np.array([np.inf]), obs)


class TestLinkSpec:
    def test_gaussian_derivatives(self):
        link = LinkSpec.gaussian(sigma2=2.0)
        x = np.array([-1.0, 0.0, 3.0])
        np.testing.assert_allclose(link.g(x), x * x)
        np.testing.assert_allclose(link.gprime(x), 2.0 * x)
        np.testing.assert_allclose(link.gsecond(x), 2.0)

    def test_bernoulli_values(self):
        link = LinkSpec.bernoulli()
        assert link.g(0.0) == pytest.approx(np.log(2.0))
        assert link.gprime(0.0) == pytest.approx(0.5)
        assert link.gsecond(0.0) == pytest.approx(0.25)
        # stable far in the tails
        assert np.isfinite(link.g(800.0))
        assert link.g(800.0) == pytest.approx(800.0)

    def test_poisson_values(self):
        link = LinkSpec.poisson(a=2.0)
        assert link.g(1.0) == pytest.approx(np.exp(2.0))
        assert link.gprime(1.0) == pytest.approx(2.0 * np.exp(2.0))
        assert link.gsecond(1.0) == pytest.approx(4.0 * np.exp(2.0))

    def test_poisson_overflow_raises(self):
        link = LinkSpec.poisson()
        with pytest.raises(InvalidInputError):
            link.g(701.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            LinkSpec.gaussian(sigma2=0.0)
        with pytest.raises(InvalidInputError):
            LinkSpec.poisson(a=0.0)
        # a negative a would give a count a negative mean
        with pytest.raises(InvalidInputError, match="a must be finite and > 0"):
            LinkSpec.poisson(a=-1.0)
        with pytest.raises(InvalidInputError):
            LinkSpec("gamma")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_constants_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="sigma2 must be finite"):
            LinkSpec.gaussian(sigma2=bad)
        with pytest.raises(InvalidInputError, match="rate-scale a must be finite"):
            LinkSpec.poisson(a=bad)

    @pytest.mark.parametrize(
        "link",
        [LinkSpec.gaussian(0.5), LinkSpec.bernoulli(), LinkSpec.poisson(1.5)],
    )
    def test_gradient_monotone_grid(self, link):
        x = np.linspace(-4, 4, 201)
        vals = link.gprime(x)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(link.gsecond(x) >= 0)


class TestQuasiLoglik:
    def test_gaussian_zero_parameter(self):
        frame = single_cell_frame(1.0, ColumnType.NUMERIC)
        val = at_observed(expfam.quasi_loglik_neg, np.zeros((1, 1)), frame, [G1])
        assert val == 0.0

    def test_bernoulli_log2(self):
        frame = single_cell_frame(1.0, ColumnType.BINARY)
        val = at_observed(expfam.quasi_loglik_neg, np.zeros((1, 1)), frame, [BERN])
        assert val == pytest.approx(np.log(2.0), abs=1e-12)

    def test_poisson_closed_form(self):
        frame = single_cell_frame(2.0, ColumnType.COUNT)
        x = np.array([[np.log(2.0)]])
        val = at_observed(expfam.quasi_loglik_neg, x, frame, [LinkSpec.poisson()])
        assert val == pytest.approx(-2.0 * np.log(2.0) + 2.0, abs=1e-12)

    def test_nonfinite_rejected(self):
        frame = single_cell_frame(1.0, ColumnType.NUMERIC)
        with pytest.raises(InvalidInputError):
            at_observed(expfam.quasi_loglik_neg, np.array([[np.nan]]), frame, [G1])

    def test_shape_mismatch_rejected(self):
        frame = single_cell_frame(1.0, ColumnType.NUMERIC)
        with pytest.raises(ShapeMismatchError, match="2 links given for 1 columns"):
            at_observed(expfam.quasi_loglik_neg, np.zeros((1, 1)), frame, [G1] * 2)


class TestGradient:
    def test_gaussian_entry(self):
        frame = single_cell_frame(3.0, ColumnType.NUMERIC)
        grad = at_observed(expfam.gradient, np.array([[1.0]]), frame, [G1])
        assert grad[0, 0] == pytest.approx(-2.0)

    def test_unobserved_entry_zero(self):
        values = np.array([[3.0, np.nan]])
        mask = np.array([[True, False]])
        frame = MixedDataFrame(
            ("a", "b"), (ColumnType.NUMERIC, ColumnType.NUMERIC), values, mask
        )
        grad = at_observed(expfam.gradient, np.array([[1.0, 5.0]]), frame, [G1] * 2)
        assert grad[0, 1] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_oracle(self, seed):
        """Central differences of the objective reproduce the gradient."""
        frame, links, x = make_mixed_instance(seed, m1=6, m2=5)
        grad = at_observed(expfam.gradient, x, frame, links)
        h = 1e-6
        fd = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                up, down = x.copy(), x.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (
                    at_observed(expfam.quasi_loglik_neg, up, frame, links)
                    - at_observed(expfam.quasi_loglik_neg, down, frame, links)
                ) / (2 * h)
        scale = np.maximum(np.abs(grad), 1.0)
        assert np.max(np.abs(fd - grad) / scale) <= 1e-5

    @pytest.mark.parametrize("seed", range(4))
    def test_directional_derivative_consistency(self, seed):
        frame, links, x = make_mixed_instance(seed, m1=5, m2=6)
        rng = np.random.default_rng(seed + 1000)
        direction = rng.standard_normal(x.shape)
        h = 1e-6
        fd = (
            at_observed(expfam.quasi_loglik_neg, x + h * direction, frame, links)
            - at_observed(expfam.quasi_loglik_neg, x - h * direction, frame, links)
        ) / (2 * h)
        grad = at_observed(expfam.gradient, x, frame, links)
        inner = float(np.sum(grad * direction))
        assert fd == pytest.approx(inner, rel=1e-5, abs=1e-8)


class TestCurvatureWeights:
    def test_gaussian_half(self):
        frame = single_cell_frame(0.0, ColumnType.NUMERIC)
        w = at_observed(expfam.curvature_weights, np.array([[4.0]]), frame, [G1])
        assert w[0, 0] == pytest.approx(0.5)

    def test_bernoulli_at_zero(self):
        frame = single_cell_frame(1.0, ColumnType.BINARY)
        w = at_observed(expfam.curvature_weights, np.zeros((1, 1)), frame, [BERN])
        assert w[0, 0] == pytest.approx(0.125)

    def test_unobserved_zero(self):
        values = np.array([[1.0, np.nan]])
        mask = np.array([[True, False]])
        frame = MixedDataFrame(
            ("a", "b"), (ColumnType.NUMERIC, ColumnType.NUMERIC), values, mask
        )
        w = at_observed(expfam.curvature_weights, np.zeros((1, 2)), frame, [G1] * 2)
        assert w[0, 1] == 0.0
        assert np.all(w >= 0)


class TestWorkingResponses:
    def test_gaussian(self):
        frame = single_cell_frame(3.0, ColumnType.NUMERIC)
        z = at_observed(expfam.working_responses, np.array([[1.0]]), frame, [G1])
        assert z[0, 0] == pytest.approx(2.0)

    def test_bernoulli(self):
        frame = single_cell_frame(1.0, ColumnType.BINARY)
        z = at_observed(expfam.working_responses, np.zeros((1, 1)), frame, [BERN])
        assert z[0, 0] == pytest.approx(2.0)

    def test_poisson(self):
        frame = single_cell_frame(1.0, ColumnType.COUNT)
        z = at_observed(expfam.working_responses, np.zeros((1, 1)), frame,
                        [LinkSpec.poisson()])
        assert z[0, 0] == pytest.approx(0.0)

    def test_curvature_floor_names_entry(self):
        frame = single_cell_frame(1.0, ColumnType.BINARY)
        with pytest.raises(NumericDegeneracyError) as err:
            at_observed(expfam.working_responses, np.array([[40.0]]), frame, [BERN])
        assert err.value.entry == (0, 0)

    def test_curvature_floor_names_entry_past_the_first_link(self):
        # Gaussian columns 0 and 2 come first; the Bernoulli cell (2, 3)
        # underflows, with unobserved Bernoulli cells before it
        links = [G1, BERN, G1, BERN, BERN]
        mask = np.ones((4, 5), dtype=bool)
        mask[1, 3] = mask[0, 4] = False
        x, frame, _ = link_instance(links, mask, 5)
        x[:] = 0.0
        x[2, 3] = 40.0
        with pytest.raises(NumericDegeneracyError) as err:
            at_observed(expfam.working_responses, x, frame, links)
        assert err.value.entry == (2, 3)


class TestMaskInertness:
    def test_unobserved_values_never_leak(self):
        """Two frames that differ only under the mask give identical outputs."""
        rng = np.random.default_rng(7)
        m1, m2 = 6, 6
        kinds = ["gaussian", "bernoulli", "poisson"] * 2
        frame_a, links, x = make_mixed_instance(11, m1=m1, m2=m2, kinds=kinds)
        junk = rng.standard_normal((m1, m2)) * 100
        values_b = np.where(frame_a.mask, frame_a.y_filled, junk)
        frame_b = MixedDataFrame(
            frame_a.column_names, frame_a.column_types, values_b, frame_a.mask
        )
        assert at_observed(expfam.quasi_loglik_neg, x, frame_a, links) == (
            at_observed(expfam.quasi_loglik_neg, x, frame_b, links)
        )
        for op in (
            expfam.gradient,
            expfam.curvature_weights,
            expfam.working_responses,
        ):
            out_a = at_observed(op, x, frame_a, links)
            out_b = at_observed(op, x, frame_b, links)
            assert np.array_equal(out_a, out_b)


class TestPredictedMeans:
    def test_means_per_kind(self):
        links = [LinkSpec.gaussian(2.0), LinkSpec.bernoulli(), LinkSpec.poisson()]
        x = np.array([[1.0, 0.0, np.log(3.0)]])
        means = expfam.predicted_means(x, links)
        np.testing.assert_allclose(means, [[2.0, 0.5, 3.0]])
