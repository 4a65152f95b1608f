import numpy as np
import pytest

from crnn.cells import (
    BlstmParams,
    LstmParams,
    blstm_backward,
    blstm_forward,
    init_blstm,
    init_extended_lstm,
    init_lstm,
    lstm_backward,
    lstm_forward,
    _lstm_gates,
)
from crnn.numerics import Rng, ShapeError, init_params, named_arrays, zeros_like_tree
from crnn.training import fd_check

from fdtools import TOL


def one(x) -> np.ndarray:
    """A k-by-l matrix as a (l, k, 1) stack: one sequence, batch of one."""
    return np.asarray(x, dtype=np.float64).T[:, :, None]


def seq(a: np.ndarray) -> np.ndarray:
    """The first sequence of a (T, n, B) stack as an n-by-T matrix."""
    return a[:, :, 0].T


def zero_lstm(n: int, k: int) -> LstmParams:
    z = np.zeros
    return LstmParams(W_x=z((4 * n, k)), W_h=z((4 * n, n)), W_c=z((3 * n, n)), b=z(4 * n))


def accumulator_lstm(b_f: float = 100.0, b_c: float = 0.0) -> LstmParams:
    """Scalar cell with saturated gates: c_t = f*c_{t-1} + tanh(x_t + b_c)
    where i = o = 1 and f = sigmoid(b_f) exactly (sigmoid(100) rounds to
    1.0 in float64, sigmoid(-100) * c contributes below resolution).  Gate
    blocks are one row each, in the order i, f, c, o."""
    p = zero_lstm(1, 1)
    p.W_x[2, 0] = 1.0
    p.b[:] = [100.0, b_f, b_c, 100.0]
    return p


def lstm_step(p: LstmParams, x_t, h_prev, c_prev):
    """One step of the kernel ``lstm_forward`` runs, on a (k, B) input and
    (n, B) states: (h, c, the gates i, f, g, o by name)."""
    n, B = p.n, x_t.shape[1]
    a, tmp = np.empty((4 * n, B)), np.empty((4 * n, B))
    c, tc, h = (np.empty((n, B)) for _ in range(3))
    _lstm_gates(p.W_x, p, x_t, h_prev, c_prev, a, c, tc, h, tmp)
    return h, c, {"i": a[:n], "f": a[n:2 * n], "g": a[2 * n:3 * n], "o": a[3 * n:]}


class TestLstmStep:
    def test_zero_params_zero_state_fixed_point(self):
        p = zero_lstm(3, 2)
        h, c, cache = lstm_step(p, np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((3, 1)))
        np.testing.assert_array_equal(c, np.zeros((3, 1)))
        np.testing.assert_array_equal(h, np.zeros((3, 1)))
        np.testing.assert_array_equal(cache["i"], np.full((3, 1), 0.5))
        np.testing.assert_array_equal(cache["f"], np.full((3, 1), 0.5))
        np.testing.assert_array_equal(cache["o"], np.full((3, 1), 0.5))

    def test_zero_params_halves_cell(self):
        p = zero_lstm(1, 1)
        h, c, _ = lstm_step(p, np.zeros((1, 1)), np.zeros((1, 1)), np.array([[0.8]]))
        assert c[0, 0] == pytest.approx(0.4, abs=1e-15)
        assert h[0, 0] == pytest.approx(0.5 * np.tanh(0.4), abs=1e-15)

    def test_saturated_accumulator_step(self):
        p = accumulator_lstm()
        h, c, cache = lstm_step(p, np.array([[0.5]]), np.zeros((1, 1)), np.zeros((1, 1)))
        assert c[0, 0] == pytest.approx(np.tanh(0.5), abs=1e-15)
        assert h[0, 0] == pytest.approx(np.tanh(np.tanh(0.5)), abs=1e-15)
        assert cache["i"][0, 0] == 1.0 and cache["f"][0, 0] == 1.0 and cache["o"][0, 0] == 1.0

    def test_forget_gate_clamps_memory(self):
        # b_f = -100 discards the carried state: c_t = tanh(x_t)
        p = accumulator_lstm(b_f=-100.0)
        h, c, _ = lstm_step(p, np.array([[-0.5]]), np.zeros((1, 1)), np.array([[0.462]]))
        assert c[0, 0] == pytest.approx(np.tanh(-0.5), abs=1e-15)


class TestLstmForward:
    def test_saturated_accumulator_sequence(self):
        p = accumulator_lstm()
        trace = lstm_forward(p, one([[0.5, -0.5, 0.25]]))
        c = seq(trace.c)[0]
        assert c[0] == pytest.approx(0.4621, abs=1e-4)
        assert c[1] == pytest.approx(0.0, abs=1e-12)
        assert c[2] == pytest.approx(0.2449, abs=1e-4)
        expect = np.cumsum(np.tanh([0.5, -0.5, 0.25]))
        np.testing.assert_allclose(c, expect, atol=1e-12)

    def test_forgetful_sequence_is_memoryless(self):
        p = accumulator_lstm(b_f=-100.0)
        trace = lstm_forward(p, one([[0.5, -0.5, 0.25]]))
        np.testing.assert_allclose(seq(trace.c)[0], np.tanh([0.5, -0.5, 0.25]),
                                   atol=1e-15)

    def test_trace_equals_step_fold(self):
        p = init_lstm(3, 4, Rng(2))
        xs = one(Rng(3).normal(0, 1, (3, 6)))
        trace = lstm_forward(p, xs)
        h = np.zeros((4, 1))
        c = np.zeros((4, 1))
        for t in range(6):
            h, c, cache = lstm_step(p, xs[t], h, c)
            np.testing.assert_array_equal(trace.h[t], h)
            np.testing.assert_array_equal(trace.c[t], c)
            np.testing.assert_array_equal(trace.i[t], cache["i"])
            np.testing.assert_array_equal(trace.g[t], cache["g"])

    def test_gates_in_open_interval_and_h_bounded(self):
        for seed in range(8):
            rng = Rng(seed)
            p = init_lstm(3, 4, rng.split())
            x = rng.split().normal(0, 2, (3, 10))
            tr = lstm_forward(p, one(x))
            for gate in (tr.i, tr.f, tr.o):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(np.abs(tr.h) < 1.0)

    def test_batch_matches_loop(self):
        # wider GEMMs may round differently in the last ulp, hence the
        # tiny absolute tolerance instead of bitwise equality
        p = init_lstm(2, 3, Rng(7))
        rng = Rng(8)
        xs = np.stack([rng.normal(0, 1, (4, 2)) for _ in range(5)], axis=2)
        batch = lstm_forward(p, xs)
        for b in range(5):
            solo = lstm_forward(p, xs[:, :, b, None])
            np.testing.assert_allclose(batch.h[:, :, b], solo.h[:, :, 0], atol=1e-12)
            np.testing.assert_allclose(batch.c[:, :, b], solo.c[:, :, 0], atol=1e-12)


class TestExtendedLstm:
    def test_width_mismatch_rejected(self):
        p = init_extended_lstm(2, 3, width=4, rng=Rng(0))
        with pytest.raises(ShapeError):
            lstm_forward(p, np.zeros((5, 2, 1)))

    def test_matches_plain_lstm_when_frames_tied(self):
        plain = init_lstm(2, 3, Rng(4))
        ext = init_extended_lstm(2, 3, width=4, rng=Rng(0))
        ext.W_x[:] = plain.W_x[None, :, :]
        for name in ("W_h", "W_c", "b"):
            getattr(ext, name)[...] = getattr(plain, name)
        x = one(Rng(5).normal(0, 1, (2, 4)))
        np.testing.assert_array_equal(lstm_forward(ext, x).h, lstm_forward(plain, x).h)

    def test_per_frame_weights_are_independent(self):
        ext = init_extended_lstm(1, 1, width=2, rng=Rng(1))
        x = one([[1.0, 1.0]])
        base = seq(lstm_forward(ext, x).h).copy()
        ext.W_x[1, 0] += 0.5   # frame 1's input-gate weight only
        bumped = seq(lstm_forward(ext, x).h)
        assert bumped[0, 0] == base[0, 0]
        assert bumped[0, 1] != base[0, 1]


class TestInitOrder:
    """Each stacked gate block holds the draw a per-gate layout made, in the
    order W_xi, W_xf, W_xc, W_xo, W_hi..W_ho, W_ci, W_cf, W_co, so seeded
    runs keep their numbers."""

    def test_init_lstm(self):
        n, k = 3, 2
        rng = Rng(5)
        p = init_lstm(k, n, rng)
        ref = Rng(5)
        W_x = [init_params((n, k), ref) for _ in "ifco"]
        W_h = [init_params((n, n), ref) for _ in "ifco"]
        W_c = [init_params((n, n), ref) for _ in "ifo"]
        np.testing.assert_array_equal(p.W_x, np.concatenate(W_x))
        np.testing.assert_array_equal(p.W_h, np.concatenate(W_h))
        np.testing.assert_array_equal(p.W_c, np.concatenate(W_c))
        np.testing.assert_array_equal(p.b, np.zeros(4 * n))
        assert rng.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)

    def test_init_extended_lstm(self):
        n, k, width = 2, 3, 4
        rng = Rng(6)
        p = init_extended_lstm(k, n, width, rng)
        ref = Rng(6)
        W_x = [[init_params((n, k), ref) for _ in range(width)] for _ in "ifco"]
        W_h = [init_params((n, n), ref) for _ in "ifco"]
        W_c = [init_params((n, n), ref) for _ in "ifo"]
        assert p.W_x.shape == (width, 4 * n, k)
        for t in range(width):
            np.testing.assert_array_equal(p.W_x[t], np.concatenate([g[t] for g in W_x]))
        np.testing.assert_array_equal(p.W_h, np.concatenate(W_h))
        np.testing.assert_array_equal(p.W_c, np.concatenate(W_c))
        np.testing.assert_array_equal(p.b, np.zeros(4 * n))
        assert rng.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)


# ---------------------------------------------------------------------------
# Gradients.

def lstm_probe_check(p, x, seed: int, mode: str = "both") -> float:
    """FD check of the probe loss <R_h, h> + <R_c, c> for a k-by-l x."""
    x = one(x)
    trace = lstm_forward(p, x)
    rng = Rng(seed)
    R_h = rng.normal(0, 1, seq(trace.h).shape) if mode in ("h", "both") else None
    R_c = rng.normal(0, 1, seq(trace.c).shape) if mode in ("c", "both") else None
    grads, dx = lstm_backward(p, trace, dh=None if R_h is None else one(R_h),
                              dc=None if R_c is None else one(R_c))

    def loss() -> float:
        tr = lstm_forward(p, x)
        s = 0.0
        if R_h is not None:
            s += float(np.sum(R_h * seq(tr.h)))
        if R_c is not None:
            s += float(np.sum(R_c * seq(tr.c)))
        return s

    worst = fd_check(loss, p, grads).max_rel_error
    return max(worst, fd_check(loss, x, dx).max_rel_error)


def blstm_probe_check(p, x, seed: int) -> float:
    """FD check of the probe loss <R, y> for a k-by-l x."""
    x = one(x)
    y, ft, bt = blstm_forward(p, x)
    probe = Rng(seed).normal(0, 1, seq(y).shape)
    grads, dx = blstm_backward(p, ft, bt, one(probe))

    def loss() -> float:
        out, _, _ = blstm_forward(p, x)
        return float(np.sum(probe * seq(out)))

    worst = fd_check(loss, p, grads).max_rel_error
    return max(worst, fd_check(loss, x, dx).max_rel_error)


# (k, n, d, T) cases spanning dims 1..4 and lengths 1..6, one per seed
CASES = [
    (0, 1, 1, 1, 1),
    (1, 2, 3, 2, 4),
    (2, 4, 2, 3, 6),
    (3, 3, 4, 1, 5),
    (9, 1, 4, 4, 3),
    (5, 4, 4, 2, 2),
]


class TestLstmBackward:
    @pytest.mark.parametrize("seed,k,n,d,T", CASES)
    @pytest.mark.parametrize("mode", ["h", "c", "both"])
    def test_fd(self, mode, seed, k, n, d, T):
        rng = Rng(seed)
        p = init_lstm(k, n, rng.split())
        x = rng.split().normal(0, 1, (k, T))
        assert lstm_probe_check(p, x, seed + 200, mode) < TOL

    def test_closed_form_bias_gradient(self):
        # with i = f = o = 1 the cell is c_T = sum_t tanh(x_t + b_c), so
        # d c_T / d b_c = sum_t (1 - tanh^2(x_t + b_c))
        b_c = 0.3
        p = accumulator_lstm(b_c=b_c)
        x = np.array([[0.5, -0.2, 0.8, 0.1]])
        trace = lstm_forward(p, one(x))
        dc = np.zeros((4, 1, 1))
        dc[-1, 0, 0] = 1.0
        grads, _ = lstm_backward(p, trace, dc=dc)
        expect = np.sum(1.0 - np.tanh(x[0] + b_c) ** 2)
        assert grads.b[2] == pytest.approx(expect, rel=1e-12)

    def test_zero_upstream_gives_zero_grads(self):
        p = init_lstm(2, 3, Rng(0))
        trace = lstm_forward(p, one(Rng(1).normal(0, 1, (2, 4))))
        grads, dx = lstm_backward(p, trace)
        assert all(np.all(a == 0.0) for _, a in named_arrays(grads))
        np.testing.assert_array_equal(dx, np.zeros((4, 2, 1)))

    def test_upstream_shape_mismatch(self):
        p = init_lstm(2, 3, Rng(0))
        trace = lstm_forward(p, np.zeros((4, 2, 1)))
        with pytest.raises(ShapeError):
            lstm_backward(p, trace, dh=np.zeros((5, 3, 1)))

    def test_gradient_bundle_mirrors_params(self):
        p = init_lstm(2, 3, Rng(0))
        trace = lstm_forward(p, one(Rng(1).normal(0, 1, (2, 4))))
        grads, _ = lstm_backward(p, trace, dh=np.ones((4, 3, 1)))
        assert type(grads) is LstmParams
        for (n1, a), (n2, g) in zip(named_arrays(p), named_arrays(grads)):
            assert n1 == n2 and a.shape == g.shape


class TestExtendedLstmBackward:
    @pytest.mark.parametrize("seed,k,n,T", [(0, 1, 1, 1), (1, 2, 3, 4),
                                            (2, 4, 2, 6), (3, 3, 4, 5),
                                            (4, 2, 2, 3)])
    def test_fd(self, seed, k, n, T):
        rng = Rng(seed)
        p = init_extended_lstm(k, n, width=T, rng=rng.split())
        x = rng.split().normal(0, 1, (k, T))
        assert lstm_probe_check(p, x, seed + 300, "both") < TOL
        grads, _ = lstm_backward(p, lstm_forward(p, one(x)), dh=np.ones((T, n, 1)))
        assert type(grads) is LstmParams
        assert grads.W_x.shape == (T, 4 * n, k)


class TestBlstm:
    def test_zero_params_zero_output(self):
        p = init_blstm(2, 3, 2, Rng(0))
        for _, arr in named_arrays(p):
            arr[...] = 0.0
        y, _, _ = blstm_forward(p, one(Rng(1).normal(0, 1, (2, 5))))
        np.testing.assert_array_equal(y, np.zeros((5, 2, 1)))

    def test_scalar_cell_source_fixture(self):
        # forward accumulates tanh(x) left to right, backward right to
        # left; combining the two cell sequences with unit weights gives
        # y = (tanh(0.5), -tanh(0.5)) for x = (0.5, -0.5)
        acc = accumulator_lstm()
        p = BlstmParams(fwd=acc, bwd=accumulator_lstm(),
                        W_fy=np.ones((1, 1)), W_by=np.ones((1, 1)),
                        b_y=np.zeros(1), source="cell")
        y, _, _ = blstm_forward(p, one([[0.5, -0.5]]))
        y = seq(y)
        assert y[0, 0] == pytest.approx(0.4621, abs=1e-4)
        assert y[0, 1] == pytest.approx(-0.4621, abs=1e-4)
        assert y[0, 0] == pytest.approx(np.tanh(0.5), abs=1e-12)
        assert y[0, 1] == pytest.approx(-np.tanh(0.5), abs=1e-12)

    def test_palindrome_with_mirrored_params_is_symmetric(self):
        rng = Rng(11)
        p = init_blstm(2, 3, 2, rng.split())
        mirrored = BlstmParams(fwd=p.fwd, bwd=p.fwd, W_fy=p.W_fy, W_by=p.W_fy,
                               b_y=p.b_y, source="hidden")
        half = rng.split().normal(0, 1, (2, 3))
        x = np.concatenate([half, half[:, ::-1]], axis=1)
        y, _, _ = blstm_forward(mirrored, one(x))
        np.testing.assert_array_equal(seq(y), seq(y)[:, ::-1])

    @pytest.mark.parametrize("source", ["hidden", "cell"])
    def test_direction_swap_reverses_output_exactly(self, source):
        for seed in range(5):
            rng = Rng(seed)
            p = init_blstm(2, 3, 2, rng.split(), source=source)
            x = rng.split().normal(0, 1, (2, 6))
            swapped = BlstmParams(fwd=p.bwd, bwd=p.fwd, W_fy=p.W_by,
                                  W_by=p.W_fy, b_y=p.b_y, source=source)
            y, _, _ = blstm_forward(p, one(x))
            y_rev, _, _ = blstm_forward(swapped, one(np.ascontiguousarray(x[:, ::-1])))
            np.testing.assert_array_equal(seq(y_rev), seq(y)[:, ::-1])

    @pytest.mark.parametrize("source", ["hidden", "cell"])
    @pytest.mark.parametrize("seed,k,n,d,T", CASES)
    def test_fd(self, source, seed, k, n, d, T):
        rng = Rng(seed)
        p = init_blstm(k, n, d, rng.split(), source=source)
        x = rng.split().normal(0, 1, (k, T))
        assert blstm_probe_check(p, x, seed + 400) < TOL

    def test_init_rejects_bad_source(self):
        with pytest.raises(ValueError):
            init_blstm(2, 3, 2, Rng(0), source="logits")


class TestLayout:
    """The cells take (T, k, B) stacks only."""

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2, 1, 1)])
    def test_lstm_forward_rejects_other_ranks(self, shape):
        with pytest.raises(ShapeError):
            lstm_forward(init_lstm(2, 3, Rng(0)), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2, 1, 1)])
    def test_blstm_forward_rejects_other_ranks(self, shape):
        with pytest.raises(ShapeError):
            blstm_forward(init_blstm(2, 3, 2, Rng(0)), np.zeros(shape))

    def test_blstm_backward_rejects_matrix_upstream(self):
        p = init_blstm(2, 3, 2, Rng(0))
        _, ft, bt = blstm_forward(p, np.zeros((4, 2, 1)))
        with pytest.raises(ShapeError):
            blstm_backward(p, ft, bt, np.zeros((2, 4)))


class TestPacked:
    """``lengths`` packs sequences of their own lengths, longest first:
    each column must match its own unpadded run."""

    LENGTHS = [6, 4, 4, 1]
    REL = 1e-14

    def padded(self, k: int, seed: int):
        rng = Rng(seed)
        seqs = [rng.normal(0, 1, (k, length)) for length in self.LENGTHS]
        x = np.zeros((self.LENGTHS[0], k, len(seqs)))
        for b, s in enumerate(seqs):
            x[:s.shape[1], :, b] = s.T
        return seqs, x

    def close(self, got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=self.REL * np.max(np.abs(want)))

    def test_forward_matches_each_column_and_pads_with_zeros(self):
        p = init_lstm(3, 4, Rng(1))
        seqs, x = self.padded(3, seed=2)
        tr = lstm_forward(p, x, self.LENGTHS)
        for b, s in enumerate(seqs):
            one_tr = lstm_forward(p, one(s))
            length = s.shape[1]
            for name in ("h", "c", "i", "f", "g", "o", "tanh_c"):
                got = getattr(tr, name)
                self.close(got[:length, :, b], getattr(one_tr, name)[:, :, 0])
                assert not np.any(got[length:, :, b]), name

    def test_backward_matches_summed_columns(self):
        p = init_lstm(3, 4, Rng(3))
        seqs, x = self.padded(3, seed=4)
        tr = lstm_forward(p, x, self.LENGTHS)
        dh = Rng(5).normal(0, 1, tr.h.shape)
        dc = Rng(6).normal(0, 1, tr.c.shape)
        for b, length in enumerate(self.LENGTHS):   # upstream past an end is ignored
            dh[length:, :, b] = dc[length:, :, b] = 7.0
        grads, dx = lstm_backward(p, tr, dh=dh, dc=dc)
        total = zeros_like_tree(p)
        for b, s in enumerate(seqs):
            length = s.shape[1]
            g, dx_b = lstm_backward(p, lstm_forward(p, one(s)),
                                    dh=dh[:length, :, b:b + 1], dc=dc[:length, :, b:b + 1])
            for (_, acc), (_, leaf) in zip(named_arrays(total), named_arrays(g)):
                acc += leaf
            self.close(dx[:length, :, b], dx_b[:, :, 0])
            assert not np.any(dx[length:, :, b])
        for (name, got), (_, want) in zip(named_arrays(grads), named_arrays(total)):
            self.close(got, want)

    @pytest.mark.parametrize("source", ["hidden", "cell"])
    def test_blstm_reads_each_column_backwards_from_its_own_end(self, source):
        p = init_blstm(3, 4, 2, Rng(7), source=source)
        seqs, x = self.padded(3, seed=8)
        y, ft, bt = blstm_forward(p, x, self.LENGTHS)
        dy = Rng(9).normal(0, 1, y.shape)
        for b, length in enumerate(self.LENGTHS):
            dy[length:, :, b] = 0.0
        grads, dx = blstm_backward(p, ft, bt, dy)
        total = zeros_like_tree(p)
        for b, s in enumerate(seqs):
            length = s.shape[1]
            y_b, ft_b, bt_b = blstm_forward(p, one(s))
            self.close(y[:length, :, b], y_b[:, :, 0])
            g, dx_b = blstm_backward(p, ft_b, bt_b, dy[:length, :, b:b + 1])
            for (_, acc), (_, leaf) in zip(named_arrays(total), named_arrays(g)):
                acc += leaf
            self.close(dx[:length, :, b], dx_b[:, :, 0])
        for (name, got), (_, want) in zip(named_arrays(grads), named_arrays(total)):
            self.close(got, want)

    @pytest.mark.parametrize("lengths", [[4, 6, 4, 1], [6, 4, 4], [7, 4, 4, 1],
                                         [6, 4, 4, 0]])
    def test_rejects_bad_lengths(self, lengths):
        with pytest.raises(ShapeError, match="non-increasing"):
            lstm_forward(init_lstm(3, 4, Rng(0)), np.zeros((6, 3, 4)), lengths)
