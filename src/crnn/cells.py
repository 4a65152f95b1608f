"""Recurrent cell math with exact reverse-mode gradients.

Two cells, both starting from zero state, features as column vectors:

peephole LSTM
    a_t = W_x x_t + W_h h_{t-1} + b, cut into n-row blocks a^i, a^f, a^c, a^o
    i_t = sigmoid(a^i_t + P_i c_{t-1})
    f_t = sigmoid(a^f_t + P_f c_{t-1})
    c_t = f_t * c_{t-1} + i_t * tanh(a^c_t)
    o_t = sigmoid(a^o_t + P_o c_t)
    h_t = o_t * tanh(c_t)

bidirectional LSTM
    one LSTM over the input, a second over the reversed input, the
    second's states re-aligned to the original time axis, then
    y_t = W_fy s_fwd_t + W_by s_bwd_t + b_y
    with s either the hidden or the cell sequence.

``LstmParams`` keeps each quantity's gate blocks stacked, n rows per
gate, in the order i, f, c, o: W_x is (4n, k), W_h (4n, n) and b (4n,);
the peepholes W_c = (P_i; P_f; P_o) are (3n, n), since the cell input
has none.  One GEMM thus forms all four gates' share of a quantity.  The
extended LSTM differs only in its input weights: W_x is (width, 4n, k),
one copy per frame position, and frame t of a window uses W_x[t].

Peephole weights are full n-by-n matrices, and the output gate peeks at
the *current* cell state c_t, so the backward pass must route gradient
from o_t into c_t before the cell gradient fans out to the other gates.
All backward passes are hand-derived; the test suite pins them against
central finite differences.

Every sequence is a (T, k, B) stack of B equal-length sequences: step t
is a k-by-B block of column vectors.  Layers run one cell over every
window of a sequence at once this way; one sequence is a batch of one
(``x.T[:, :, None]``).  States, outputs and their gradients keep the
same layout.  Gradient bundles reuse the parameter dataclasses: a
returned ``LstmParams`` holds d(loss)/d(parameter) in each field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, ShapeError, init_params, sigmoid


@dataclass
class LstmParams:
    W_x: np.ndarray     # (4n, k), or (width, 4n, k) with per-frame copies
    W_h: np.ndarray     # (4n, n)
    W_c: np.ndarray     # (3n, n): i and f read c_{t-1}, o reads c_t
    b: np.ndarray       # (4n,)

    @property
    def n(self) -> int:
        return self.W_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W_x.shape[-1]


@dataclass
class BlstmParams:
    fwd: LstmParams
    bwd: LstmParams
    W_fy: np.ndarray
    W_by: np.ndarray
    b_y: np.ndarray
    source: str = "hidden"  # hidden | cell

    @property
    def out_dim(self) -> int:
        return self.W_fy.shape[0]


def _init_lstm(W_x: np.ndarray, n: int, rng: Rng) -> LstmParams:
    """Finish an LSTM whose input weights are drawn: the recurrent blocks
    i, f, c, o come next, then the peephole blocks i, f, o."""
    return LstmParams(W_x=W_x, W_h=init_params((4, n, n), rng).reshape(4 * n, n),
                      W_c=init_params((3, n, n), rng).reshape(3 * n, n), b=np.zeros(4 * n))


def init_lstm(input_dim: int, hidden_dim: int, rng: Rng) -> LstmParams:
    n, k = hidden_dim, input_dim
    return _init_lstm(init_params((4, n, k), rng).reshape(4 * n, k), n, rng)


def init_extended_lstm(input_dim: int, hidden_dim: int, width: int, rng: Rng) -> LstmParams:
    """LSTM whose input weights have one copy per frame position, drawn
    gate-major: every frame's block of gate i, then of gate f, and so on."""
    n, k = hidden_dim, input_dim
    W_x = init_params((4, width, n, k), rng)
    return _init_lstm(W_x.swapaxes(0, 1).reshape(width, 4 * n, k), n, rng)


def init_blstm(input_dim: int, hidden_dim: int, out_dim: int, rng: Rng,
               source: str = "hidden") -> BlstmParams:
    if source not in ("hidden", "cell"):
        raise ValueError(f"blstm source must be hidden or cell, got {source!r}")
    return BlstmParams(
        fwd=init_lstm(input_dim, hidden_dim, rng),
        bwd=init_lstm(input_dim, hidden_dim, rng),
        W_fy=init_params((out_dim, hidden_dim), rng),
        W_by=init_params((out_dim, hidden_dim), rng),
        b_y=np.zeros(out_dim),
        source=source,
    )


# ---------------------------------------------------------------------------
# Sequence layout helpers.

def _to_steps(x: np.ndarray) -> np.ndarray:
    """Coerce a (T, k, B) stack to C-ordered float64."""
    xs = np.ascontiguousarray(x, dtype=np.float64)
    if xs.ndim != 3:
        raise ShapeError(f"sequence must be a (T, k, B) stack, got shape {xs.shape}")
    return xs


def _upstream(d, shape: tuple[int, ...]) -> np.ndarray:
    """An upstream gradient in the trace layout; None stands for zero."""
    if d is None:
        return np.zeros(shape)
    d = np.asarray(d, dtype=np.float64)
    if d.shape != shape:
        raise ShapeError(f"upstream gradient shape {d.shape} does not match trace {shape}")
    return d


def _sum_td(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    # sum_t d[t] @ s[t].T over time and batch columns
    return np.tensordot(d, s, axes=([0, 2], [0, 2]))


# ---------------------------------------------------------------------------
# Peephole LSTM.

# the per-step arrays _lstm_gates returns, in order
_STATES = ("i", "f", "g", "o", "c", "tanh_c", "h")


@dataclass
class LstmTrace:
    """Everything the backward pass needs: the (T, k, B) input and one
    (T, n, B) array per state."""
    x: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray       # tanh of the cell input, the candidate cell update
    o: np.ndarray
    c: np.ndarray
    h: np.ndarray
    tanh_c: np.ndarray


def _lstm_gates(W_x, p, x_t, h_prev, c_prev):
    """One LSTM step on column batches; W_x is this frame's (4n, k) input
    matrix (``p.W_x`` itself for a plain LSTM).  Returns the arrays named
    in ``_STATES``."""
    n = p.n
    a = (W_x @ x_t + p.b[:, None]) + p.W_h @ h_prev
    a[:2 * n] += p.W_c[:2 * n] @ c_prev
    i_f = sigmoid(a[:2 * n])
    i, f = i_f[:n], i_f[n:]
    g = np.tanh(a[2 * n:3 * n])
    c = f * c_prev + i * g
    o = sigmoid(a[3 * n:] + p.W_c[2 * n:] @ c)
    tc = np.tanh(c)
    h = o * tc
    return i, f, g, o, c, tc, h


def lstm_step(p: LstmParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Single step on a (k, B) input and (n, B) states.  The cache maps
    gate names to their (n, B) activations."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.ndim != 2 or np.ndim(h_prev) != 2 or np.ndim(c_prev) != 2:
        raise ShapeError(f"lstm_step takes (k, B) input and (n, B) states, got shapes "
                         f"{x_t.shape}, {np.shape(h_prev)} and {np.shape(c_prev)}")
    if p.W_x.ndim != 2:
        raise ShapeError("lstm_step takes a plain LSTM; an extended LSTM's input "
                         "weights depend on the frame position")
    i, f, g, o, c, tc, h = _lstm_gates(p.W_x, p, x_t, h_prev, c_prev)
    return h, c, {"i": i, "f": f, "g": g, "o": o, "tanh_c": tc}


def lstm_forward(p: LstmParams, x: np.ndarray) -> LstmTrace:
    """Iterate the cell from h_0 = c_0 = 0 over a (T, k, B) stack."""
    xs = _to_steps(x)
    T, _, B = xs.shape
    per_frame = p.W_x.ndim == 3
    if per_frame and T != len(p.W_x):
        raise ShapeError(
            f"extended LSTM has per-frame weights for width {len(p.W_x)}, got length {T}")
    n = p.n
    arrs = {name: np.empty((T, n, B)) for name in _STATES}
    h = np.zeros((n, B))
    c = np.zeros((n, B))
    for t in range(T):
        W_x = p.W_x[t] if per_frame else p.W_x
        for name, v in zip(_STATES, _lstm_gates(W_x, p, xs[t], h, c)):
            arrs[name][t] = v
        h = arrs["h"][t]
        c = arrs["c"][t]
    return LstmTrace(x=xs, **arrs)


def lstm_backward(p: LstmParams, trace: LstmTrace, dh=None, dc=None
                  ) -> tuple[LstmParams, np.ndarray]:
    """Reverse-mode gradients through the full recurrence.

    dh and dc are the (T, n, B) loss gradients with respect to the hidden
    and cell sequences (either may be omitted).  Returns a gradient bundle
    shaped like ``p`` and the (T, k, B) gradient with respect to the input.
    """
    T, n, B = trace.h.shape
    dH = _upstream(dh, trace.h.shape)
    dC = _upstream(dc, trace.c.shape)

    H_prev = np.concatenate([np.zeros((1, n, B)), trace.h[:-1]], axis=0)
    C_prev = np.concatenate([np.zeros((1, n, B)), trace.c[:-1]], axis=0)

    # gradients of the stacked gate pre-activations, blocks i, f, c, o
    dA = np.empty((T, 4 * n, B))
    W_hT = p.W_h.T
    W_ifT = p.W_c[:2 * n].T
    W_oT = p.W_c[2 * n:].T
    dh_carry = np.zeros((n, B))
    dc_carry = np.zeros((n, B))
    for t in reversed(range(T)):
        i, f, g, o = trace.i[t], trace.f[t], trace.g[t], trace.o[t]
        tc = trace.tanh_c[t]
        da = dA[t]
        dh_t = dH[t] + dh_carry
        # h_t = o_t * tanh(c_t); o_t feeds nothing else
        do = dh_t * tc
        da[3 * n:] = do * o * (1.0 - o)
        # c_t collects: its h_t use, the o_t peephole, any external dc, and
        # the carry from step t+1
        dc_t = dC[t] + dc_carry + dh_t * o * (1.0 - tc * tc) + W_oT @ da[3 * n:]
        da[:n] = (dc_t * g) * i * (1.0 - i)
        da[n:2 * n] = (dc_t * C_prev[t]) * f * (1.0 - f)
        da[2 * n:3 * n] = (dc_t * i) * (1.0 - g * g)
        dh_carry = W_hT @ da
        # c_{t-1} paths: the f_t product plus the i/f peepholes
        dc_carry = dc_t * f + W_ifT @ da[:2 * n]

    if p.W_x.ndim == 3:
        gW_x = np.matmul(dA, trace.x.transpose(0, 2, 1))
    else:
        gW_x = _sum_td(dA, trace.x)
    grads = LstmParams(
        W_x=gW_x,
        W_h=_sum_td(dA, H_prev),
        W_c=np.concatenate([_sum_td(dA[:, :2 * n], C_prev),
                            _sum_td(dA[:, 3 * n:], trace.c)]),
        b=dA.sum(axis=(0, 2)),
    )
    return grads, np.matmul(p.W_x.swapaxes(-1, -2), dA)


# ---------------------------------------------------------------------------
# Bidirectional LSTM.

def _blstm_states(p: BlstmParams, fwd_trace: LstmTrace, bwd_trace: LstmTrace):
    s_f = fwd_trace.h if p.source == "hidden" else fwd_trace.c
    s_b = bwd_trace.h if p.source == "hidden" else bwd_trace.c
    return s_f, s_b[::-1]  # backward states re-aligned to the input axis


def blstm_forward(p: BlstmParams, x: np.ndarray
                  ) -> tuple[np.ndarray, LstmTrace, LstmTrace]:
    """Both directions from zero state over a (T, k, B) stack plus the
    learned (T, d, B) combination of their hidden (or cell) sequences."""
    xs = _to_steps(x)
    fwd_trace = lstm_forward(p.fwd, xs)
    bwd_trace = lstm_forward(p.bwd, np.ascontiguousarray(xs[::-1]))
    s_f, s_b = _blstm_states(p, fwd_trace, bwd_trace)
    y = np.matmul(p.W_fy, s_f) + np.matmul(p.W_by, s_b) + p.b_y[None, :, None]
    return y, fwd_trace, bwd_trace


def blstm_backward(p: BlstmParams, fwd_trace: LstmTrace, bwd_trace: LstmTrace,
                   dy: np.ndarray) -> tuple[BlstmParams, np.ndarray]:
    """Gradients through the combination and both recurrences, given the
    (T, d, B) upstream gradient of the combined output."""
    T, _, B = fwd_trace.h.shape
    dy = _upstream(dy, (T, p.out_dim, B))
    s_f, s_b = _blstm_states(p, fwd_trace, bwd_trace)

    gW_fy = _sum_td(dy, s_f)
    gW_by = _sum_td(dy, s_b)
    gb_y = dy.sum(axis=(0, 2))
    dS_f = np.matmul(p.W_fy.T, dy)
    dS_b = np.ascontiguousarray(np.matmul(p.W_by.T, dy)[::-1])

    key = "dh" if p.source == "hidden" else "dc"
    g_f, dx_f = lstm_backward(p.fwd, fwd_trace, **{key: dS_f})
    g_b, dx_b = lstm_backward(p.bwd, bwd_trace, **{key: dS_b})
    dxs = dx_f + dx_b[::-1]

    grads = BlstmParams(fwd=g_f, bwd=g_b, W_fy=gW_fy, W_by=gW_by, b_y=gb_y,
                        source=p.source)
    return grads, dxs
