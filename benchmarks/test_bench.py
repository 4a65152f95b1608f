"""Tests of the benchmark's own arithmetic, tracer and import loader.

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from loader import BROKEN_LINE, FIXED_LINE, import_crnn
from tracer import (Tracer, lstm_backward_flops, lstm_forward_flops,
                    per_layer_metric_specs, self_times)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
crnn, _ = import_crnn(ROOT / "src")


def test_self_time_subtracts_union_of_children():
    # 0 [0, 10] holds 1 [1, 4] (which holds 2 [2, 3]), 3 [5, 9] and 4 [6, 7]
    # overlapping 3, and 5 [9.5, 11] running past its parent's end.
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 9.5]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 11.0]
    parents = [-1, 0, 1, 0, 0, 0]
    # span 0 is covered on [1, 4], [5, 9] and [9.5, 10]: 3 + 4 + 0.5
    assert self_times(starts, ends, parents) == [2.5, 2.0, 1.0, 4.0, 1.0, 1.5]


def test_lstm_flops_match_hand_count_for_two_unit_cell():
    k, n, steps, cols = 3, 2, 5, 7
    # forward, multiply-adds per step and column:
    #   input maps 4 * (2*3) = 24, recurrent 4 * (2*2) = 16, peepholes 3 * 4 = 12
    assert lstm_forward_flops(k, n, steps, cols) == 2 * (24 + 16 + 12) * 35
    # backward: in the loop W_co^T 4, recurrent 4 * 4 = 16, W_ci^T/W_cf^T 2 * 4 = 8;
    # after it dx 4 * 6 = 24, dW_x 4 * 6 = 24, dW_h 4 * 4 = 16, dW_c* 3 * 4 = 12
    assert lstm_backward_flops(k, n, steps, cols) == 2 * (4 + 16 + 8 + 24 + 24 + 16 + 12) * 35


def test_tracer_reads_kernel_shapes():
    p = crnn.cells.init_lstm(3, 2, crnn.numerics.Rng(0))
    x = np.random.default_rng(0).normal(size=(5, 3, 7))
    tracer = Tracer("t")
    with tracer.installed(crnn):
        tr = crnn.cells.lstm_forward(p, x)
        crnn.cells.lstm_backward(p, tr, dh=np.ones_like(tr.h))
    assert tracer.flops["cells.lstm_forward"] == lstm_forward_flops(3, 2, 5, 7)
    assert tracer.flops["cells.lstm_backward"] == lstm_backward_flops(3, 2, 5, 7)
    values = tracer.metrics(1.0)
    assert values["cells.lstm_forward.cols_per_call"] == 7
    assert values["cells.lstm_backward.gflop_per_s"] > 0


def test_tracer_catches_internal_calls_and_restores():
    original = crnn.model.layer_forward
    layer = crnn.layers.CrnnLayerConfig(kind="clstm", features=3,
                                        window=crnn.framing.WindowSpec(3, 2))
    config = crnn.model.ModelConfig(input_dim=2, num_classes=2, layers=(layer,),
                                    classifier_dim=3, dense_dim=4)
    params = crnn.model.init_model(config, crnn.numerics.Rng(0))
    tracer = Tracer("t")
    with tracer.installed(crnn):
        crnn.model.model_forward(config, params, np.ones((2, 9)))
        crnn.numerics.named_arrays(params)
    assert crnn.model.layer_forward is original
    parent = {name: tracer.names[p] if p >= 0 else None
              for name, p in zip(tracer.names, tracer.parents)}
    assert parent["layers.layer_forward"] == "model.model_forward"
    assert parent["framing.stack_windows"] == "layers.layer_forward"
    assert tracer.names.count("numerics.named_arrays") == 1
    assert tracer.stats()["cells.lstm_forward"]["calls"] == 2


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == per_layer_metric_specs()


def _copy_package(tmp_path: Path, line_from: str, line_to: str) -> Path:
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "crnn", src / "crnn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    model = src / "crnn" / "model.py"
    model.write_text(model.read_text().replace(line_from, line_to))
    return src


def _load_in_subprocess(src: Path) -> list[str]:
    code = ("import sys; from loader import import_crnn; "
            f"crnn, patched = import_crnn({str(src)!r}); "
            "print(patched); print(crnn.model.__file__); "
            "print(crnn.model.ModelTrace().sel)")
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=HERE,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_loader_is_a_no_op_on_fixed_source(tmp_path):
    src = _copy_package(tmp_path, BROKEN_LINE, FIXED_LINE)
    patched, path, sel = _load_in_subprocess(src)
    assert patched == "False"
    assert Path(path) == src / "crnn" / "model.py"
    assert sel == "slice(None, None, None)"


def test_loader_leaves_broken_source_unchanged(tmp_path):
    src = _copy_package(tmp_path, FIXED_LINE, BROKEN_LINE)
    before = (src / "crnn" / "model.py").read_bytes()
    patched, _, sel = _load_in_subprocess(src)
    # Only interpreters that reject a slice default need the patch.
    assert patched == str(sys.version_info[:2] == (3, 11))
    assert sel == "slice(None, None, None)"
    assert (src / "crnn" / "model.py").read_bytes() == before
