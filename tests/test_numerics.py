import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnn.cells import init_blstm, init_lstm
from crnn.numerics import (
    ACTIVATIONS,
    Rng,
    ShapeError,
    as_matrix,
    glorot_limit,
    init_params,
    named_arrays,
    param_count,
    sigmoid,
    sigmoid_,
    tree_copy,
    tree_map,
    zeros_like_tree,
)


class TestActivations:
    def test_sigmoid_zero(self):
        assert ACTIVATIONS["sigmoid"](np.zeros((1, 1)))[0, 0] == 0.5

    def test_tanh_zero(self):
        assert ACTIVATIONS["tanh"](np.zeros((1, 1)))[0, 0] == 0.0

    def test_relu(self):
        np.testing.assert_array_equal(
            ACTIVATIONS["relu"](np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    # strict bounds hold wherever float64 can resolve them: sigmoid
    # rounds to 1.0 beyond ~36.7, tanh to +-1.0 beyond ~18.4
    @given(st.lists(st.floats(-36, 36), min_size=1, max_size=30))
    def test_sigmoid_open_interval(self, vals):
        out = ACTIVATIONS["sigmoid"](np.array([vals]))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_sigmoid_within_two_ulp_of_long_double(self):
        # below z = -709.78 exp(-z) overflows and the result flushes to 0
        z = np.concatenate([np.linspace(-709.0, 745.0, 200_001),
                            Rng(0).normal(0.0, 8.0, 100_000)])
        exact = 1.0 / (1.0 + np.exp(-z.astype(np.longdouble)))
        got = sigmoid(z)
        ulps = np.abs(got.astype(np.longdouble) - exact) / np.spacing(exact.astype(np.float64))
        assert float(ulps.max()) <= 2.0

    def test_sigmoid_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-745.0, -1000.0, 745.0, 1000.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0])

    def test_sigmoid_in_place_returns_its_argument(self):
        z = np.array([[-1.0, 0.0, 2.0]])
        out = sigmoid_(z)
        assert out is z
        np.testing.assert_array_equal(z, sigmoid(np.array([[-1.0, 0.0, 2.0]])))

    @given(st.lists(st.floats(-18, 18), min_size=1, max_size=30))
    def test_tanh_open_interval(self, vals):
        out = ACTIVATIONS["tanh"](np.array([vals]))
        assert np.all(out > -1.0) and np.all(out < 1.0)


class TestInitParams:
    def test_range_bound(self):
        m = init_params((400, 100), Rng(7))
        a = glorot_limit(400, 100)
        assert m.shape == (400, 100)
        assert np.all(m >= -a) and np.all(m <= a)
        assert a == pytest.approx(np.sqrt(6.0 / 500.0))

    def test_same_seed_identical(self):
        assert init_params((10, 10), Rng(3)).tobytes() == init_params((10, 10), Rng(3)).tobytes()

    def test_different_seeds_differ(self):
        assert init_params((10, 10), Rng(3)).tobytes() != init_params((10, 10), Rng(4)).tobytes()

    def test_sample_mean_moment(self):
        # mean of n uniform[-a, a] draws has std a/sqrt(3n); allow 3 sigma
        m = init_params((1000, 1000), Rng(11))
        a = glorot_limit(1000, 1000)
        assert abs(m.mean()) < 3.0 * a / np.sqrt(3.0 * m.size)

    def test_rejects_empty_shape(self):
        with pytest.raises(ShapeError):
            init_params((0, 5), Rng(0))


class TestRng:
    def test_same_seed_same_stream(self):
        assert Rng(9).uniform(0, 1, 100).tobytes() == Rng(9).uniform(0, 1, 100).tobytes()

    def test_split_is_deterministic(self):
        a = Rng(9).split().normal(0, 1, 10)
        b = Rng(9).split().normal(0, 1, 10)
        np.testing.assert_array_equal(a, b)

    def test_split_does_not_disturb_parent(self):
        r1 = Rng(9)
        r1.split()
        r2 = Rng(9)
        np.testing.assert_array_equal(r1.uniform(0, 1, 10), r2.uniform(0, 1, 10))

    def test_split_stream_differs_from_parent(self):
        r = Rng(9)
        child = r.split()
        assert child.normal(0, 1, 10).tobytes() != r.normal(0, 1, 10).tobytes()

    def test_permutation_is_a_permutation(self):
        p = Rng(5).permutation(20)
        assert sorted(p.tolist()) == list(range(20))


class TestAsMatrix:
    def test_coerces_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64 and m.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])


class TestTrees:
    def _bundle(self):
        return init_lstm(2, 3, Rng(0))

    def test_named_arrays_order_and_names(self):
        names = [n for n, _ in named_arrays(self._bundle())]
        assert names == ["W_x", "W_h", "W_c", "b"]

    def test_named_arrays_nested_dotted(self):
        names = [n for n, _ in named_arrays(init_blstm(2, 3, 4, Rng(0)))]
        assert "fwd.W_x" in names and "bwd.b" in names and "W_fy" in names
        # the `source` string field is config, not a parameter
        assert all("source" not in n for n in names)

    def test_tree_map_rebuilds(self):
        p = self._bundle()
        doubled = tree_map(lambda a: 2.0 * a, p)
        assert type(doubled) is type(p)
        np.testing.assert_array_equal(doubled.W_x, 2.0 * p.W_x)

    def test_tree_copy_is_deep(self):
        p = self._bundle()
        q = tree_copy(p)
        q.W_x[0, 0] += 1.0
        assert p.W_x[0, 0] != q.W_x[0, 0]

    def test_zeros_like(self):
        z = zeros_like_tree(self._bundle())
        assert all(np.all(a == 0.0) for _, a in named_arrays(z))

    def test_param_count(self):
        # four 3x2 input matrices, seven 3x3 recurrent/peephole, four 3-biases
        assert param_count(self._bundle()) == 4 * 6 + 7 * 9 + 4 * 3

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_init_determinism_property(self, seed):
        a = init_params((3, 5), Rng(seed))
        b = init_params((3, 5), Rng(seed))
        assert a.tobytes() == b.tobytes()
