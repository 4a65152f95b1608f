"""The peephole LSTM cell and its bidirectional wrapper.

All three gates see the cell state (the output gate sees the current
one), so a cell can decide what to emit based on what it just stored.
The cells read a (T, k, B) stack of B equal-length sequences; one k-by-l
sequence x is the batch of one x.T[:, :, None].
"""
import numpy as np

from crnn.cells import BlstmParams, blstm_forward, init_blstm, init_lstm, lstm_forward
from crnn.numerics import Rng

rng = Rng(7)
p = init_lstm(input_dim=2, hidden_dim=3, rng=rng.split())
x = rng.split().normal(0.0, 1.0, (2, 6))
xs = x.T[:, :, None]

trace = lstm_forward(p, xs)
print("hidden sequence (3 units, 6 steps):")
print(np.round(trace.h[:, :, 0].T, 4))
print("cell sequence:")
print(np.round(trace.c[:, :, 0].T, 4))

# Gates are sigmoids, so they live strictly inside (0, 1).
gates = np.stack([trace.i, trace.f, trace.o])
print(f"gate range: ({gates.min():.4f}, {gates.max():.4f})")

# Saturating the input and output gates (huge biases) and silencing the
# forget gate turns the cell into y_t = tanh(tanh(x_t)): no memory left.
forgetful = init_lstm(2, 2, Rng(0))
for name, arr in vars(forgetful).items():
    arr[...] = 0.0
# gate blocks are stacked i, f, c, o with 2 rows each
forgetful.W_x[4:6] = np.eye(2)
forgetful.b[0:2] = 100.0    # input gate pinned to 1
forgetful.b[2:4] = -100.0   # forget gate pinned to 0
forgetful.b[6:8] = 100.0    # output gate pinned to 1
steps = np.array([[0.5, -1.0, 2.0], [0.0, 0.3, -0.7]])
out = lstm_forward(forgetful, steps.T[:, :, None]).h[:, :, 0].T
print("\nmemoryless cell vs tanh(tanh(x)):",
      np.allclose(out, np.tanh(np.tanh(steps))))

# A bidirectional cell with its directions swapped reads the reversed
# sequence and produces exactly the reversed output.
bp = init_blstm(input_dim=2, hidden_dim=3, out_dim=2, rng=Rng(3))
y, _, _ = blstm_forward(bp, xs)
swapped = BlstmParams(fwd=bp.bwd, bwd=bp.fwd, W_fy=bp.W_by, W_by=bp.W_fy,
                      b_y=bp.b_y, source=bp.source)
y_rev, _, _ = blstm_forward(swapped, np.ascontiguousarray(xs[::-1]))
print("direction swap reverses output exactly:",
      np.array_equal(y_rev, y[::-1]))
