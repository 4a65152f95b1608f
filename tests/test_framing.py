import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crnn.framing import (
    WindowSpec,
    max_pool_backward,
    max_pool_forward,
    scatter_windows_add,
    stack_windows,
    window_count,
)
from crnn.numerics import Rng, as_matrix


def make_windows(x: np.ndarray, spec: WindowSpec) -> list[np.ndarray]:
    """Brute-force oracle for ``stack_windows``: copy out each k-by-width
    window of a k-by-l sequence, trying every start shift columns apart."""
    x = as_matrix(x)
    return [x[:, s:s + spec.width].copy()
            for s in range(0, x.shape[1] - spec.width + 1, spec.shift)]


def brute_force_count(length: int, width: int, shift: int) -> int:
    return sum(1 for s in range(0, length + 1, shift) if s + width <= length)


class TestWindowCount:
    def test_enumerated_offsets(self):
        assert window_count(9, WindowSpec(5, 2)) == 3

    def test_exact_fit(self):
        assert window_count(5, WindowSpec(5, 2)) == 1

    def test_too_short(self):
        assert window_count(4, WindowSpec(5, 2)) == 0

    def test_exhaustive_small_domain(self):
        for length in range(1, 21):
            for width in range(1, 21):
                for shift in range(1, 21):
                    spec = WindowSpec(width, shift)
                    expected = brute_force_count(length, width, shift)
                    assert window_count(length, spec) == expected
                    assert len(make_windows(np.zeros((1, length)), spec)) == expected

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 1)
        with pytest.raises(ValueError):
            WindowSpec(1, 0)


class TestMakeWindows:
    def test_scalar_enumeration(self):
        x = np.arange(1.0, 10.0)[None, :]
        wins = make_windows(x, WindowSpec(5, 2))
        np.testing.assert_array_equal(wins[0], [[1, 2, 3, 4, 5]])
        np.testing.assert_array_equal(wins[1], [[3, 4, 5, 6, 7]])
        np.testing.assert_array_equal(wins[2], [[5, 6, 7, 8, 9]])

    def test_identity_framing(self):
        x = Rng(0).normal(0, 1, (3, 6))
        wins = make_windows(x, WindowSpec(1, 1))
        np.testing.assert_array_equal(np.concatenate(wins, axis=1), x)

    def test_degenerate_empty(self):
        assert make_windows(np.zeros((2, 4)), WindowSpec(5, 2)) == []

    def test_windows_are_copies(self):
        x = np.ones((2, 6))
        wins = make_windows(x, WindowSpec(3, 3))
        wins[0][0, 0] = 99.0
        assert x[0, 0] == 1.0

    def test_stack_matches_list(self):
        x = Rng(1).normal(0, 1, (4, 11))
        spec = WindowSpec(5, 3)
        stacked = stack_windows(x, spec)
        wins = make_windows(x, spec)
        assert stacked.shape == (5, 4, len(wins))
        for i, w in enumerate(wins):
            np.testing.assert_array_equal(stacked[:, :, i], w.T)


class TestScatterAdjoint:
    @given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 6), st.integers(0, 10))
    def test_dot_product_identity(self, length, width, shift, seed):
        # <stack(x), d> == <x, scatter(d)> defines the exact adjoint
        spec = WindowSpec(width, shift)
        rng = Rng(seed)
        x = rng.normal(0, 1, (3, length))
        count = window_count(length, spec)
        d = rng.normal(0, 1, (width, 3, count))
        if count == 0:
            np.testing.assert_array_equal(scatter_windows_add(d, spec, length),
                                          np.zeros((3, length)))
            return
        lhs = float(np.sum(stack_windows(x, spec) * d))
        rhs = float(np.sum(x * scatter_windows_add(d, spec, length)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestMaxPool:
    def test_pairwise_max(self):
        out, _ = max_pool_forward(np.array([[1.0, 3.0, 2.0, 5.0]]), WindowSpec(2, 2))
        np.testing.assert_array_equal(out, [[3.0, 5.0]])

    def test_identity_pool(self):
        x = Rng(0).normal(0, 1, (3, 7))
        np.testing.assert_array_equal(max_pool_forward(x, WindowSpec(1, 1))[0], x)

    def test_constant_sequence(self):
        out, _ = max_pool_forward(np.full((2, 8), 4.5), WindowSpec(3, 2))
        np.testing.assert_array_equal(out, np.full((2, 3), 4.5))

    @given(st.integers(2, 15), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10))
    def test_bounded_by_covered_columns(self, length, width, shift, seed):
        spec = WindowSpec(width, shift)
        if window_count(length, spec) == 0:
            return
        x = Rng(seed).normal(0, 1, (4, length))
        out, _ = max_pool_forward(x, spec)
        covered = x[:, :(window_count(length, spec) - 1) * shift + width]
        assert np.all(out <= covered.max(axis=1, keepdims=True))
        assert np.all(out >= covered.min(axis=1, keepdims=True))

    def test_row_permutation_commutes(self):
        x = Rng(3).normal(0, 1, (5, 9))
        spec = WindowSpec(3, 2)
        perm = Rng(4).permutation(5)
        np.testing.assert_array_equal(max_pool_forward(x[perm], spec)[0],
                                      max_pool_forward(x, spec)[0][perm])

    def test_ties_go_to_first_column(self):
        x = np.array([[2.0, 2.0, 1.0]])
        out, argmax = max_pool_forward(x, WindowSpec(3, 1))
        assert out[0, 0] == 2.0 and argmax[0, 0] == 0

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 3.0, 2.0, 5.0]])
        out, argmax = max_pool_forward(x, WindowSpec(2, 2))
        dx = max_pool_backward(argmax, np.array([[10.0, 20.0]]), 4)
        np.testing.assert_array_equal(dx, [[0.0, 10.0, 0.0, 20.0]])

    def test_backward_accumulates_overlap(self):
        # width 2 shift 1: column 1 wins both windows
        x = np.array([[0.0, 5.0, 1.0]])
        out, argmax = max_pool_forward(x, WindowSpec(2, 1))
        dx = max_pool_backward(argmax, np.array([[1.0, 1.0]]), 3)
        np.testing.assert_array_equal(dx, [[0.0, 2.0, 0.0]])

    @given(st.integers(2, 12), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10))
    def test_backward_is_fd_exact(self, length, width, shift, seed):
        # pooling is piecewise linear, so FD with a tiny step is exact
        # away from ties; continuous draws make ties measure-zero
        spec = WindowSpec(width, shift)
        if window_count(length, spec) == 0:
            return
        rng = Rng(seed)
        x = rng.normal(0, 1, (2, length))
        out, argmax = max_pool_forward(x, spec)
        probe = rng.normal(0, 1, out.shape)
        dx = max_pool_backward(argmax, probe, length)
        step = 1e-7
        for i in range(2):
            for j in range(length):
                x[i, j] += step
                up = float(np.sum(probe * max_pool_forward(x, spec)[0]))
                x[i, j] -= 2 * step
                down = float(np.sum(probe * max_pool_forward(x, spec)[0]))
                x[i, j] += step
                assert dx[i, j] == pytest.approx((up - down) / (2 * step), abs=1e-6)
