"""Recurrent cell math with exact reverse-mode gradients.

Two cells, both starting from zero state, features as column vectors:

peephole LSTM
    i_t = sigmoid(W_xi x_t + W_hi h_{t-1} + W_ci c_{t-1} + b_i)
    f_t = sigmoid(W_xf x_t + W_hf h_{t-1} + W_cf c_{t-1} + b_f)
    c_t = f_t * c_{t-1} + i_t * tanh(W_xc x_t + W_hc h_{t-1} + b_c)
    o_t = sigmoid(W_xo x_t + W_ho h_{t-1} + W_co c_t + b_o)
    h_t = o_t * tanh(c_t)

bidirectional LSTM
    one LSTM over the input, a second over the reversed input, the
    second's states re-aligned to the original time axis, then
    y_t = W_fy s_fwd_t + W_by s_bwd_t + b_y
    with s either the hidden or the cell sequence.

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
    W_xi: np.ndarray
    W_xf: np.ndarray
    W_xc: np.ndarray
    W_xo: np.ndarray
    W_hi: np.ndarray
    W_hf: np.ndarray
    W_hc: np.ndarray
    W_ho: np.ndarray
    W_ci: np.ndarray
    W_cf: np.ndarray
    W_co: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    @property
    def n(self) -> int:
        return self.W_hi.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_xi.shape[-1]


@dataclass
class ExtendedLstmParams(LstmParams):
    """LSTM whose four input matrices have one copy per frame position.

    W_xi, W_xf, W_xc, W_xo are (width, n, k); frame t of a window uses
    copy t.  Recurrent, peephole and bias fields are shared across frames
    exactly as in ``LstmParams``.
    """

    @property
    def width(self) -> int:
        return self.W_xi.shape[0]


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


def init_lstm(input_dim: int, hidden_dim: int, rng: Rng) -> LstmParams:
    n, k = hidden_dim, input_dim
    return LstmParams(
        W_xi=init_params((n, k), rng), W_xf=init_params((n, k), rng),
        W_xc=init_params((n, k), rng), W_xo=init_params((n, k), rng),
        W_hi=init_params((n, n), rng), W_hf=init_params((n, n), rng),
        W_hc=init_params((n, n), rng), W_ho=init_params((n, n), rng),
        W_ci=init_params((n, n), rng), W_cf=init_params((n, n), rng),
        W_co=init_params((n, n), rng),
        b_i=np.zeros(n), b_f=np.zeros(n), b_c=np.zeros(n), b_o=np.zeros(n),
    )


def init_extended_lstm(input_dim: int, hidden_dim: int, width: int, rng: Rng) -> ExtendedLstmParams:
    n, k = hidden_dim, input_dim

    def per_frame():
        return np.stack([init_params((n, k), rng) for _ in range(width)])

    return ExtendedLstmParams(
        W_xi=per_frame(), W_xf=per_frame(), W_xc=per_frame(), W_xo=per_frame(),
        W_hi=init_params((n, n), rng), W_hf=init_params((n, n), rng),
        W_hc=init_params((n, n), rng), W_ho=init_params((n, n), rng),
        W_ci=init_params((n, n), rng), W_cf=init_params((n, n), rng),
        W_co=init_params((n, n), rng),
        b_i=np.zeros(n), b_f=np.zeros(n), b_c=np.zeros(n), b_o=np.zeros(n),
    )


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


def _col(v: np.ndarray) -> np.ndarray:
    return v[:, None]


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


def _lstm_gates(wx, p, x_t, h_prev, c_prev):
    """One LSTM step on column batches; wx holds this frame's four input
    matrices (constant for a plain LSTM, per-frame for the extended one).
    Returns the arrays named in ``_STATES``."""
    wxi, wxf, wxc, wxo = wx
    a_i = (wxi @ x_t + _col(p.b_i)) + p.W_hi @ h_prev + p.W_ci @ c_prev
    a_f = (wxf @ x_t + _col(p.b_f)) + p.W_hf @ h_prev + p.W_cf @ c_prev
    a_c = (wxc @ x_t + _col(p.b_c)) + p.W_hc @ h_prev
    i = sigmoid(a_i)
    f = sigmoid(a_f)
    g = np.tanh(a_c)
    c = f * c_prev + i * g
    a_o = (wxo @ x_t + _col(p.b_o)) + p.W_ho @ h_prev + p.W_co @ c
    o = sigmoid(a_o)
    tc = np.tanh(c)
    h = o * tc
    return i, f, g, o, c, tc, h


def _frame_weights(p: LstmParams, t: int):
    if isinstance(p, ExtendedLstmParams):
        return p.W_xi[t], p.W_xf[t], p.W_xc[t], p.W_xo[t]
    return p.W_xi, p.W_xf, p.W_xc, p.W_xo


def lstm_step(p: LstmParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Single step on a (k, B) input and (n, B) states.  The cache maps
    gate names to their (n, B) activations."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.ndim != 2 or np.ndim(h_prev) != 2 or np.ndim(c_prev) != 2:
        raise ShapeError(f"lstm_step takes (k, B) input and (n, B) states, got shapes "
                         f"{x_t.shape}, {np.shape(h_prev)} and {np.shape(c_prev)}")
    i, f, g, o, c, tc, h = _lstm_gates((p.W_xi, p.W_xf, p.W_xc, p.W_xo), p,
                                       x_t, h_prev, c_prev)
    return h, c, {"i": i, "f": f, "g": g, "o": o, "tanh_c": tc}


def lstm_forward(p: LstmParams, x: np.ndarray) -> LstmTrace:
    """Iterate the cell from h_0 = c_0 = 0 over a (T, k, B) stack."""
    xs = _to_steps(x)
    T, _, B = xs.shape
    if isinstance(p, ExtendedLstmParams) and T != p.width:
        raise ShapeError(
            f"extended LSTM has per-frame weights for width {p.width}, got length {T}")
    n = p.n
    arrs = {name: np.empty((T, n, B)) for name in _STATES}
    h = np.zeros((n, B))
    c = np.zeros((n, B))
    for t in range(T):
        for name, v in zip(_STATES, _lstm_gates(_frame_weights(p, t), p, xs[t], h, c)):
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

    dA_i = np.empty((T, n, B))
    dA_f = np.empty((T, n, B))
    dA_c = np.empty((T, n, B))
    dA_o = np.empty((T, n, B))
    dh_carry = np.zeros((n, B))
    dc_carry = np.zeros((n, B))
    for t in reversed(range(T)):
        i, f, g, o = trace.i[t], trace.f[t], trace.g[t], trace.o[t]
        tc = trace.tanh_c[t]
        dh_t = dH[t] + dh_carry
        # h_t = o_t * tanh(c_t); o_t feeds nothing else
        do = dh_t * tc
        da_o = do * o * (1.0 - o)
        # c_t collects: its h_t use, the o_t peephole (W_co c_t), any
        # external dc, and the carry from step t+1
        dc_t = dC[t] + dc_carry + dh_t * o * (1.0 - tc * tc) + p.W_co.T @ da_o
        da_i = (dc_t * g) * i * (1.0 - i)
        da_f = (dc_t * C_prev[t]) * f * (1.0 - f)
        da_c = (dc_t * i) * (1.0 - g * g)
        dA_i[t], dA_f[t], dA_c[t], dA_o[t] = da_i, da_f, da_c, da_o
        dh_carry = (p.W_hi.T @ da_i + p.W_hf.T @ da_f
                    + p.W_hc.T @ da_c + p.W_ho.T @ da_o)
        # c_{t-1} paths: the f_t product plus the i/f peepholes
        dc_carry = dc_t * f + p.W_ci.T @ da_i + p.W_cf.T @ da_f

    extended = isinstance(p, ExtendedLstmParams)
    if extended:
        xT = trace.x.transpose(0, 2, 1)
        gW_xi = np.matmul(dA_i, xT)
        gW_xf = np.matmul(dA_f, xT)
        gW_xc = np.matmul(dA_c, xT)
        gW_xo = np.matmul(dA_o, xT)
        dxs = (np.matmul(p.W_xi.transpose(0, 2, 1), dA_i)
               + np.matmul(p.W_xf.transpose(0, 2, 1), dA_f)
               + np.matmul(p.W_xc.transpose(0, 2, 1), dA_c)
               + np.matmul(p.W_xo.transpose(0, 2, 1), dA_o))
    else:
        gW_xi = _sum_td(dA_i, trace.x)
        gW_xf = _sum_td(dA_f, trace.x)
        gW_xc = _sum_td(dA_c, trace.x)
        gW_xo = _sum_td(dA_o, trace.x)
        dxs = (np.matmul(p.W_xi.T, dA_i) + np.matmul(p.W_xf.T, dA_f)
               + np.matmul(p.W_xc.T, dA_c) + np.matmul(p.W_xo.T, dA_o))

    grads = type(p)(
        W_xi=gW_xi, W_xf=gW_xf, W_xc=gW_xc, W_xo=gW_xo,
        W_hi=_sum_td(dA_i, H_prev), W_hf=_sum_td(dA_f, H_prev),
        W_hc=_sum_td(dA_c, H_prev), W_ho=_sum_td(dA_o, H_prev),
        W_ci=_sum_td(dA_i, C_prev), W_cf=_sum_td(dA_f, C_prev),
        W_co=_sum_td(dA_o, trace.c),
        b_i=dA_i.sum(axis=(0, 2)), b_f=dA_f.sum(axis=(0, 2)),
        b_c=dA_c.sum(axis=(0, 2)), b_o=dA_o.sum(axis=(0, 2)),
    )
    return grads, dxs


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
