"""Windowing and max pooling, the framing layer under every extractor.

A sequence is a k-by-l matrix, one column per frame.  A window spec
(width r1, shift r2) cuts it into overlapping views; trailing frames
that cannot fill a window are dropped.
"""
import numpy as np

from crnn.framing import WindowSpec, max_pool_forward, stack_windows, window_count

x = np.arange(18.0).reshape(2, 9)
print("input (2 features, 9 frames):")
print(x)

spec = WindowSpec(width=5, shift=2)
print(f"\nwindow width {spec.width}, shift {spec.shift} "
      f"-> {window_count(x.shape[1], spec)} windows")
# stack_windows puts the frame position first: (width, k, count)
windows = stack_windows(x, spec)
for i in range(windows.shape[2]):
    print(f"window {i}: frames {i * spec.shift}..{i * spec.shift + spec.width - 1}")
    print(windows[:, :, i].T)

# Exact fit keeps the last frame; one frame short drops a whole window.
for l in (9, 10, 11):
    print(f"length {l:2d} -> {window_count(l, spec)} windows")

# Pooling reuses the same framing idea over columns, taking a per-feature max.
y = np.array([[1.0, 3.0, 2.0, 5.0],
              [4.0, 0.0, 6.0, 1.0]])
pooled, _ = max_pool_forward(y, WindowSpec(width=2, shift=2))
print("\ncolumns:")
print(y)
print("max pool width 2, shift 2:")
print(pooled)
