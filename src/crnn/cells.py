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

Every sequence is a (T, k, B) stack of B sequences: step t is a k-by-B
block of column vectors.  Layers run one cell over every window of every
clip at once this way; one sequence is a batch of one
(``x.T[:, :, None]``).  States, outputs and their gradients keep the
same layout.  ``lengths`` packs sequences of their own lengths: sorted
longest first and zero-padded to T steps, step t runs only the first b_t
columns, those longer than t, so a column's states and gradients are
those of its own unpadded run, and zero past its end.  Gradient bundles
reuse the parameter dataclasses: a returned ``LstmParams`` holds
d(loss)/d(parameter) in each field.

The kernel works in place: one step writes its gates into a slice of a
(T, 4n, B) buffer and its states behind a leading zero block, so the
backward pass reads h_{t-1} and c_{t-1} as views.  The backward pass
keeps the gate gradients as (4n, T*B) columns and forms each weight
gradient as one GEMM after the time loop; accumulating them step by step
inside the loop is slower at the narrow head batches.

``run_tasks`` runs independent thunks side by side on the calling thread
and one helper thread, or in turn on the calling thread when the process
may use only one CPU.  ``training`` hands it the clip halves of a large
training batch, ``layers`` the column halves of a recurrent layer's
window batch, and each BLSTM its two directions.  A call inside a task
mostly finds the helper busy with the other task, and then takes its
second thunk back and runs the two in turn.
numpy releases the interpreter lock inside BLAS calls and large ufunc
loops, so the threads overlap there while BLAS itself stays
single-threaded.  Where the work splits is fixed by the data alone, so
the worker count never changes a result.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import Rng, ShapeError, init_params, sigmoid_


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
# Task executor.

def _default_workers() -> int:
    """The CPUs this process may run on, at most 2: no call has more than
    two tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 2)


_workers = _default_workers()
# one helper thread, started by the first task submitted to it
_helper = ThreadPoolExecutor(1, thread_name_prefix="crnn-task")


def run_tasks(thunks) -> list:
    """Call each of the independent zero-argument ``thunks`` and return
    their results in order.  The first runs on the calling thread and the
    rest on the helper thread, but the caller takes back any that no helper
    has started by the time its own is done, so a helper slow to get a CPU
    costs no more than running in turn, and a call made from inside a task
    finishes even when that task holds the only helper.  An exception in
    any reaches the caller unchanged."""
    thunks = list(thunks)
    if _workers < 2 or len(thunks) < 2:
        return [thunk() for thunk in thunks]
    futures = [_helper.submit(thunk) for thunk in thunks[1:]]
    try:
        first = thunks[0]()
        rest = [thunk() if f.cancel() else f.result()
                for f, thunk in zip(futures, thunks[1:])]
    finally:
        # no task outlives the call, even when one failed; a cancelled one
        # counts as done only once a helper dequeues it, so it is not waited on
        wait([f for f in futures if not f.cancel()])
    return [first] + rest


# ---------------------------------------------------------------------------
# Sequence layout helpers.

def _to_steps(x: np.ndarray) -> np.ndarray:
    """Coerce a (T, k, B) stack to C-ordered float64."""
    xs = np.ascontiguousarray(x, dtype=np.float64)
    if xs.ndim != 3:
        raise ShapeError(f"sequence must be a (T, k, B) stack, got shape {xs.shape}")
    return xs


def _check_lengths(lengths, T: int, B: int) -> np.ndarray | None:
    if lengths is None:
        return None
    counts = [int(v) for v in np.ravel(lengths)]
    if (len(counts) != B or not T >= counts[0] >= counts[-1] >= 1
            or any(a < b for a, b in zip(counts, counts[1:]))):
        raise ShapeError(f"lengths must be {B} non-increasing step counts in "
                         f"[1, {T}], got {counts}")
    return np.array(counts)


def _active(lengths: np.ndarray | None, T: int, B: int) -> list[int]:
    """Number of columns still running at each step: a prefix, since the
    lengths are sorted longest first."""
    if lengths is None:
        return [B] * T
    return (B - np.searchsorted(lengths[::-1], np.arange(T), side="right")).tolist()


def _reverse(a: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """Reverse each column's first lengths[b] steps of a (T, ., B) stack,
    leaving the zero padding after them in place."""
    if lengths is None:
        return np.ascontiguousarray(a[::-1])
    t = np.arange(len(a))[:, None]
    src = np.where(t < lengths, lengths - 1 - t, t)
    return np.take_along_axis(a, src[:, None, :], axis=0)


def _upstream(d, shape: tuple[int, ...]) -> np.ndarray | None:
    """An upstream gradient in the trace layout; None stands for zero."""
    if d is None:
        return None
    d = np.asarray(d, dtype=np.float64)
    if d.shape != shape:
        raise ShapeError(f"upstream gradient shape {d.shape} does not match trace {shape}")
    return d


def _sum_td(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    # sum_t d[t] @ s[t].T over time and batch columns
    return np.tensordot(d, s, axes=([0, 2], [0, 2]))


def _columns(a: np.ndarray) -> np.ndarray:
    """(T, m, B) -> (m, T*B), step-major: one GEMM then reduces over every
    step and column at once."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], -1)


# ---------------------------------------------------------------------------
# Peephole LSTM.

@dataclass
class LstmTrace:
    """Everything the backward pass needs.  ``gates[t]`` stacks step t's
    i, f, g, o (n rows each); the cell and hidden states sit behind a zero
    block, so step t reads C[t], H[t] and writes C[t + 1], H[t + 1].  In a
    packed run, entries past a column's length stay zero."""
    x: np.ndarray          # (T, k, B)
    gates: np.ndarray      # (T, 4n, B)
    C: np.ndarray          # (T + 1, n, B)
    H: np.ndarray          # (T + 1, n, B)
    tanh_c: np.ndarray     # (T, n, B)
    lengths: np.ndarray | None = None   # per-column step counts, longest first

    def _gate(self, g: int) -> np.ndarray:
        n = self.C.shape[1]
        return self.gates[:, g * n:(g + 1) * n]

    i = property(lambda self: self._gate(0))
    f = property(lambda self: self._gate(1))
    g = property(lambda self: self._gate(2), doc="tanh of the cell input")
    o = property(lambda self: self._gate(3))
    c = property(lambda self: self.C[1:])
    h = property(lambda self: self.H[1:])


def _lstm_gates(W_x, p, x_t, h_prev, c_prev, a, c, tc, h, tmp) -> None:
    """One LSTM step on column batches, in place: the gates i, f, g, o go
    to the (4n, b) block ``a`` and the states to ``c``, ``tc`` = tanh(c)
    and ``h``; ``tmp`` is (4n, b) scratch.  W_x is this frame's (4n, k)
    input matrix (``p.W_x`` itself for a plain LSTM)."""
    n = p.n
    np.matmul(W_x, x_t, out=a)
    a += p.b[:, None]
    np.matmul(p.W_h, h_prev, out=tmp)
    a += tmp
    np.matmul(p.W_c[:2 * n], c_prev, out=tmp[:2 * n])
    a[:2 * n] += tmp[:2 * n]
    sigmoid_(a[:2 * n])
    i, f, g, o = a[:n], a[n:2 * n], a[2 * n:3 * n], a[3 * n:]
    np.tanh(g, out=g)
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=tmp[:n])
    c += tmp[:n]
    np.matmul(p.W_c[2 * n:], c, out=tmp[:n])
    o += tmp[:n]
    sigmoid_(o)
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def lstm_forward(p: LstmParams, x: np.ndarray, lengths=None) -> LstmTrace:
    """Iterate the cell from h_0 = c_0 = 0 over a (T, k, B) stack.

    ``lengths``, if given, packs B sequences of their own lengths, sorted
    longest first and zero-padded to T steps: step t then runs only the
    columns whose length exceeds t.
    """
    xs = _to_steps(x)
    T, _, B = xs.shape
    per_frame = p.W_x.ndim == 3
    if per_frame and T != len(p.W_x):
        raise ShapeError(
            f"extended LSTM has per-frame weights for width {len(p.W_x)}, got length {T}")
    lengths = _check_lengths(lengths, T, B)
    n = p.n
    tr = LstmTrace(x=xs, gates=np.zeros((T, 4 * n, B)), C=np.zeros((T + 1, n, B)),
                   H=np.zeros((T + 1, n, B)), tanh_c=np.zeros((T, n, B)), lengths=lengths)
    tmp = np.empty((4 * n, B))
    for t, b in enumerate(_active(lengths, T, B)):
        W_x = p.W_x[t] if per_frame else p.W_x
        _lstm_gates(W_x, p, xs[t, :, :b], tr.H[t, :, :b], tr.C[t, :, :b],
                    tr.gates[t, :, :b], tr.C[t + 1, :, :b], tr.tanh_c[t, :, :b],
                    tr.H[t + 1, :, :b], tmp[:, :b])
    return tr


def lstm_backward(p: LstmParams, trace: LstmTrace, dh=None, dc=None, need_dx: bool = True
                  ) -> tuple[LstmParams, np.ndarray | None]:
    """Reverse-mode gradients through the full recurrence.

    dh and dc are the (T, n, B) loss gradients with respect to the hidden
    and cell sequences (either may be omitted; in a packed run, entries
    past a column's length are ignored).  Returns a gradient bundle shaped
    like ``p`` and the (T, k, B) gradient with respect to the input, or
    None for it when ``need_dx`` is false.
    """
    T, n, B = trace.h.shape
    dH = _upstream(dh, trace.h.shape)
    dC = _upstream(dc, trace.c.shape)

    # gradients of the stacked gate pre-activations, blocks i, f, c, o, laid
    # out (4n, T, B) so the weight gradients below are plain GEMMs
    dA = np.zeros((4 * n, T, B))
    W_hT = p.W_h.T
    W_ifT = p.W_c[:2 * n].T
    W_oT = p.W_c[2 * n:].T
    dh_carry, dc_carry = np.zeros((n, B)), np.zeros((n, B))
    dh_buf, dc_buf, t1, t2 = (np.empty((n, B)) for _ in range(4))
    active = _active(trace.lengths, T, B)
    for t in reversed(range(T)):
        b = active[t]
        gates = trace.gates[t, :, :b]
        i, f, g, o = gates[:n], gates[n:2 * n], gates[2 * n:3 * n], gates[3 * n:]
        tc, c_prev = trace.tanh_c[t, :, :b], trace.C[t, :, :b]
        da = dA[:, t, :b]
        da_i, da_f, da_g, da_o = da[:n], da[n:2 * n], da[2 * n:3 * n], da[3 * n:]
        s1, s2 = t1[:, :b], t2[:, :b]
        dh_t = dh_carry[:, :b]
        if dH is not None:
            dh_t = np.add(dH[t, :, :b], dh_t, out=dh_buf[:, :b])
        # h_t = o_t * tanh(c_t); o_t feeds nothing else
        np.multiply(dh_t, tc, out=da_o)
        da_o *= o
        da_o *= np.subtract(1.0, o, out=s1)
        # c_t collects: any external dc, the carry from step t+1, its h_t
        # use, and the o_t peephole
        dc_t = dc_buf[:, :b]
        np.multiply(dh_t, o, out=s2)
        np.multiply(tc, tc, out=s1)
        s2 *= np.subtract(1.0, s1, out=s1)
        if dC is not None:
            np.add(dC[t, :, :b], dc_carry[:, :b], out=dc_t)
            dc_t += s2
        else:
            np.add(dc_carry[:, :b], s2, out=dc_t)
        dc_t += np.matmul(W_oT, da_o, out=s1)
        np.multiply(dc_t, g, out=da_i)
        da_i *= i
        da_i *= np.subtract(1.0, i, out=s1)
        np.multiply(dc_t, c_prev, out=da_f)
        da_f *= f
        da_f *= np.subtract(1.0, f, out=s1)
        np.multiply(dc_t, i, out=da_g)
        np.multiply(g, g, out=s1)
        da_g *= np.subtract(1.0, s1, out=s1)
        np.matmul(W_hT, da, out=dh_carry[:, :b])
        # c_{t-1} paths: the f_t product plus the i/f peepholes
        np.matmul(W_ifT, da[:2 * n], out=s1)
        np.multiply(dc_t, f, out=dc_carry[:, :b])
        dc_carry[:, :b] += s1

    A = dA.reshape(4 * n, T * B)
    H = _columns(trace.H)[:, :T * B]       # h_{t-1}, step-major
    C = _columns(trace.C)
    gW_c = np.empty((3 * n, n))
    np.matmul(A[:2 * n], C[:, :T * B].T, out=gW_c[:2 * n])
    np.matmul(A[3 * n:], C[:, B:].T, out=gW_c[2 * n:])
    dx = None
    if p.W_x.ndim == 3:
        steps = dA.transpose(1, 0, 2)
        gW_x = np.matmul(steps, trace.x.transpose(0, 2, 1))
        if need_dx:
            dx = np.matmul(p.W_x.swapaxes(-1, -2), steps)
    else:
        gW_x = A @ _columns(trace.x).T
        if need_dx:
            dx = (p.W_x.T @ A).reshape(-1, T, B).transpose(1, 0, 2)
    grads = LstmParams(W_x=gW_x, W_h=A @ H.T, W_c=gW_c, b=A.sum(axis=1))
    return grads, dx


# ---------------------------------------------------------------------------
# Bidirectional LSTM.

def _blstm_states(p: BlstmParams, fwd_trace: LstmTrace, bwd_trace: LstmTrace):
    s_f = fwd_trace.h if p.source == "hidden" else fwd_trace.c
    s_b = bwd_trace.h if p.source == "hidden" else bwd_trace.c
    # backward states re-aligned to the input axis
    return s_f, _reverse(s_b, bwd_trace.lengths)


def blstm_forward(p: BlstmParams, x: np.ndarray, lengths=None
                  ) -> tuple[np.ndarray, LstmTrace, LstmTrace]:
    """Both directions from zero state over a (T, k, B) stack plus the
    learned (T, d, B) combination of their hidden (or cell) sequences.
    ``lengths`` packs sequences as in ``lstm_forward``; the backward
    direction then reads each column from its own last step."""
    xs = _to_steps(x)
    lengths = _check_lengths(lengths, xs.shape[0], xs.shape[2])
    xr = _reverse(xs, lengths)
    fwd_trace, bwd_trace = run_tasks([partial(lstm_forward, p.fwd, xs, lengths),
                                      partial(lstm_forward, p.bwd, xr, lengths)])
    s_f, s_b = _blstm_states(p, fwd_trace, bwd_trace)
    y = np.matmul(p.W_fy, s_f) + np.matmul(p.W_by, s_b) + p.b_y[None, :, None]
    return y, fwd_trace, bwd_trace


def blstm_backward(p: BlstmParams, fwd_trace: LstmTrace, bwd_trace: LstmTrace,
                   dy: np.ndarray, need_dx: bool = True
                   ) -> tuple[BlstmParams, np.ndarray | None]:
    """Gradients through the combination and both recurrences, given the
    (T, d, B) upstream gradient of the combined output (zero past each
    column's length in a packed run).  The input gradient is None when
    ``need_dx`` is false."""
    T, _, B = fwd_trace.h.shape
    dy = _upstream(dy, (T, p.out_dim, B))
    s_f, s_b = _blstm_states(p, fwd_trace, bwd_trace)
    lengths = fwd_trace.lengths

    gW_fy = _sum_td(dy, s_f)
    gW_by = _sum_td(dy, s_b)
    gb_y = dy.sum(axis=(0, 2))
    dS_f = np.matmul(p.W_fy.T, dy)
    dS_b = _reverse(np.matmul(p.W_by.T, dy), lengths)

    key = "dh" if p.source == "hidden" else "dc"
    (g_f, dx_f), (g_b, dx_b) = run_tasks([
        partial(lstm_backward, p.fwd, fwd_trace, **{key: dS_f}, need_dx=need_dx),
        partial(lstm_backward, p.bwd, bwd_trace, **{key: dS_b}, need_dx=need_dx)])
    dxs = dx_f + _reverse(dx_b, lengths) if need_dx else None

    grads = BlstmParams(fwd=g_f, bwd=g_b, W_fy=gW_fy, W_by=gW_by, b_y=gb_y,
                        source=p.source)
    return grads, dxs
