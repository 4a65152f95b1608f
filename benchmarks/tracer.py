"""Spans around calls into ``crnn``, recorded from outside the package.

``Tracer.installed(package)`` replaces each traced function with a wrapper
in every ``crnn`` module namespace that holds it, so calls the package makes
internally through names it imported (``crnn.model`` calling
``layer_forward``) are caught as well as the benchmark's own calls.  Each
call becomes one span: name, start, end and parent span, tagged with the
run id.  Spans stay in memory until ``write_spans``.

Per-layer figures are ``<module>.<function>.<stat>`` with stats ``calls``,
``total_s`` and ``self_s`` (the span's time minus the part of it that its
child spans cover).  The LSTM kernels also get ``gflop_per_s`` -- matmul
FLOPs computed from argument shapes by ``lstm_forward_flops`` and
``lstm_backward_flops``, not counted by hardware -- and ``cols_per_call``,
the mean batch width B of a call.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from collections import defaultdict

TARGETS = (
    ("cells", "lstm_forward"),
    ("cells", "lstm_backward"),
    ("cells", "blstm_forward"),
    ("layers", "layer_forward"),
    ("layers", "layer_backward"),
    ("layers", "dense_forward"),
    ("layers", "dense_backward"),
    ("framing", "stack_windows"),
    ("framing", "scatter_windows_add"),
    ("framing", "max_pool_forward"),
    ("framing", "max_pool_backward"),
    ("model", "model_forward"),
    ("model", "model_backward"),
    ("training", "train"),
    ("training", "loss_gradients"),
    ("training", "adam_step"),
    ("training", "evaluate"),
    ("numerics", "named_arrays"),
    ("numerics", "zeros_like_tree"),
    ("data", "read_wav"),
    ("data", "log_mel"),
    ("data", "write_features"),
    ("data", "read_manifest"),
    ("data", "read_features"),
    ("serialize", "load_model"),
    ("cli", "main"),
)
SPAN_STATS = (("calls", "count", "lower"), ("total_s", "s", "lower"),
              ("self_s", "s", "lower"))
# named_arrays recurses through its own module global; only the outermost
# call of a recursion becomes a span.
TOP_LEVEL_ONLY = frozenset({"numerics.named_arrays"})
KERNELS = ("cells.lstm_forward", "cells.lstm_backward")
KERNEL_STATS = (("gflop_per_s", "GFLOP/s", "higher"),
                ("cols_per_call", "count", "higher"))
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def lstm_forward_flops(k: int, n: int, steps: int, cols: int) -> int:
    """Matmul FLOPs (2 per multiply-add) of a peephole-LSTM forward pass.

    Per step and column: four input maps (n x k), four recurrent maps
    (n x n) and three peepholes (n x n).
    """
    return steps * cols * (8 * n * k + 14 * n * n)


def lstm_backward_flops(k: int, n: int, steps: int, cols: int) -> int:
    """Matmul FLOPs of the backward pass: in the time loop the transposed
    output peephole, four recurrent maps and two peepholes; after it the
    input gradient, and the weight gradients of the four input maps, four
    recurrent maps and three peepholes."""
    return steps * cols * (16 * n * k + 28 * n * n)


def _forward_shape(args, kwargs):
    p, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    if x.ndim == 2:
        (k, steps), cols = x.shape, 1
    else:
        steps, k, cols = x.shape
    return lstm_forward_flops(k, p.n, steps, cols), cols


def _backward_shape(args, kwargs):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    steps, n, cols = trace.h.shape
    return lstm_backward_flops(trace.x.shape[1], n, steps, cols), cols


SHAPE_READERS = {"cells.lstm_forward": _forward_shape,
                 "cells.lstm_backward": _backward_shape}


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{m}.{f}.{stat}", unit, better)
             for m, f in TARGETS for stat, unit, better in SPAN_STATS]
    specs += [(f"{k}.{stat}", unit, better)
              for k in KERNELS for stat, unit, better in KERNEL_STATS]
    specs.append(OVERHEAD)
    return specs


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=starts.__getitem__):
            s, e = max(starts[c], start), min(ends[c], end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.flops: dict[str, float] = defaultdict(float)
        self.cols: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        top_only = name in TOP_LEVEL_ONLY
        shape = SHAPE_READERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if top_only and parent >= 0 and names[parent] == name:
                return fn(*args, **kwargs)
            if shape is not None:
                flops, cols = shape(args, kwargs)
                self.flops[name] += flops
                self.cols[name] += cols
            sid = len(names)
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Patch every traced function in every loaded module of ``package``."""
        prefix = package.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if key == prefix or key.startswith(prefix + ".")]
        restore = []
        try:
            for mod_name, func in TARGETS:
                original = getattr(sys.modules[f"{prefix}.{mod_name}"], func)
                wrapper = self.wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def stats(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per traced function name."""
        out = {f"{m}.{f}": {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for m, f in TARGETS}
        selfs = self_times(self.starts, self.ends, self.parents)
        for name, start, end, own in zip(self.names, self.starts, self.ends, selfs):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        stats = self.stats()
        values = {f"{name}.{stat}": row[stat]
                  for name, row in stats.items() for stat, _, _ in SPAN_STATS}
        for name in KERNELS:
            row = stats[name]
            values[f"{name}.gflop_per_s"] = (
                self.flops[name] / row["total_s"] / 1e9 if row["total_s"] else 0.0)
            values[f"{name}.cols_per_call"] = (
                self.cols[name] / row["calls"] if row["calls"] else 0.0)
        values[OVERHEAD[0]] = overhead_ratio
        return values

    def write_spans(self, path) -> None:
        """One tab-separated line per span; times in seconds from the first."""
        t0 = min(self.starts, default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id\tspan\tparent\tname\tstart_s\tend_s\n")
            for sid, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{self.run_id}\t{sid}\t{parent}\t{name}\t"
                         f"{start - t0:.9f}\t{end - t0:.9f}\n")
