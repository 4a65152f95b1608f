"""The two-task schedule: ``cells.run_tasks``, the two directions of a
BLSTM, and the column halves of the recurrent layers (clstm,
extended_clstm and cblstm).

The worker count only schedules work, so every result here must be the
same at 1 and 2 workers; the column halves change the GEMM widths, so
they are held to the one-block path by a tolerance of a few ulps.  The
models here are small, so the tests that need tasks lower
``layers._TASK_MIN_MACS`` to 1.
"""
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from crnn import cells, cli, layers
from crnn.cells import blstm_backward, blstm_forward, init_blstm, init_lstm, run_tasks
from crnn.framing import WindowSpec, window_count
from crnn.layers import CrnnLayerConfig, init_layer, layer_backward, layer_forward
from crnn.numerics import Rng, ShapeError, named_arrays

from test_cli import write_run_config, write_split


@pytest.fixture()
def set_workers(monkeypatch):
    """Set the worker count ``run_tasks`` sees for one test: at 1 every
    task runs on the caller, at 2 the helper thread takes a share."""
    return lambda n: monkeypatch.setattr(cells, "_workers", n)


@pytest.fixture()
def tasks_for_all(monkeypatch):
    monkeypatch.setattr(layers, "_TASK_MIN_MACS", 1)


def close_to_leaf_max(a, b, tol: float) -> None:
    for (name, x), (_, y) in zip(named_arrays(a), named_arrays(b)):
        assert np.max(np.abs(x - y)) <= tol * np.max(np.abs(y)), name


class TestRunTasks:
    def test_first_on_caller_second_on_helper(self, set_workers):
        set_workers(2)
        started = threading.Event()

        def second():
            started.set()
            return threading.current_thread()

        def first():
            # hold the caller until the helper has its task, so the caller
            # cannot take it back
            assert started.wait(timeout=30)
            return threading.current_thread()

        on_first, on_second = run_tasks([first, second])
        assert on_first is threading.current_thread()
        assert on_second is not on_first

    def test_caller_takes_back_a_task_no_helper_started(self, set_workers):
        set_workers(2)
        release = threading.Event()
        busy = cells._helper.submit(release.wait, 60)   # the only helper
        try:
            me = threading.current_thread()
            assert run_tasks([threading.current_thread] * 2) == [me, me]
            assert not busy.done(), "run_tasks waited for the busy helper"
        finally:
            release.set()
            busy.result()

    def test_one_worker_runs_inline(self, set_workers):
        set_workers(1)
        me = threading.current_thread()
        assert run_tasks([threading.current_thread] * 2) == [me, me]

    def test_helper_exception_reaches_caller_unchanged(self, set_workers):
        set_workers(2)
        raised = ShapeError("column block 1 is malformed")
        started = threading.Event()

        def fail():
            started.set()
            assert threading.current_thread() is not threading.main_thread()
            raise raised

        with pytest.raises(ShapeError) as info:
            run_tasks([lambda: started.wait(timeout=30), fail])
        assert info.value is raised
        assert str(info.value) == "column block 1 is malformed"

    def test_nested_call_does_not_deadlock(self, set_workers):
        set_workers(2)
        out = []

        def inner(tag):
            return run_tasks([lambda: (tag, 0), lambda: (tag, 1)])

        def outer():
            out.append(run_tasks([lambda: inner("a"), lambda: inner("b")]))

        caller = threading.Thread(target=outer, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "nested run_tasks deadlocked"
        assert out == [[[("a", 0), ("a", 1)], [("b", 0), ("b", 1)]]]


def test_only_large_lstms_are_worth_a_task():
    # the order task's clstm-16 over 80 windows stays whole; the emotion
    # preset's clstm-100 over 2400 windows of 26 log-mel rows is halved
    assert len(layers._column_blocks(init_lstm(4, 16, Rng(0)), 80)) == 1
    assert len(layers._column_blocks(init_lstm(26, 100, Rng(0)), 2400)) == 2
    assert len(layers._column_blocks(init_lstm(100, 256, Rng(0)), 1)) == 1
    assert len(layers._column_blocks(init_lstm(2, 3, Rng(0)), 2000)) == 1
    # the rule sits above a step of the age/gender BLSTM-256 head over 8
    # clips (a head is never halved); a cblstm-100 layer over 1000 windows
    # is halved, by the sizes of its forward direction
    assert len(layers._column_blocks(init_lstm(100, 256, Rng(0)), 16)) == 1
    c = CrnnLayerConfig(kind="cblstm", features=100, window=WindowSpec(5, 2))
    blstm = init_layer(c, 26, Rng(0))
    assert layers._column_blocks(blstm.fwd, 1000) == [slice(0, 500), slice(500, 1000)]


class TestBlstmDirections:
    """Each BLSTM runs its forward and backward directions as two tasks."""

    @pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
    @pytest.mark.parametrize("source", ["hidden", "cell"])
    @pytest.mark.parametrize("need_dx", [True, False])
    def test_bit_identical_at_one_and_two_workers(self, set_workers, packed, source,
                                                  need_dx):
        p = init_blstm(3, 5, 4, Rng(2), source=source)
        lengths = np.array([9, 7, 7, 2]) if packed else None
        x = Rng(3).normal(0, 1, (9, 3, 4))
        if packed:
            x *= (np.arange(9)[:, None] < lengths)[:, None, :]
        dy = Rng(4).normal(0, 1, (9, 4, 4))
        runs = []
        for workers in (1, 2):
            set_workers(workers)
            y, ft, bt = blstm_forward(p, x, lengths)
            grads, dx = blstm_backward(p, ft, bt, dy, need_dx=need_dx)
            runs.append((y, grads, dx))
        (y1, g1, dx1), (y2, g2, dx2) = runs
        assert np.array_equal(y1, y2)
        for (name, a), (_, b) in zip(named_arrays(g1), named_arrays(g2)):
            assert np.array_equal(a, b), name
        if need_dx:
            assert np.array_equal(dx1, dx2)
        else:
            assert dx1 is None and dx2 is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_directions_run_on_two_threads_at_two_workers(self, monkeypatch, set_workers,
                                                          workers):
        set_workers(workers)
        caller = threading.current_thread()
        real = cells.lstm_forward
        names = set()
        helper_started = threading.Event()

        def recording(p, x, lengths=None):
            names.add(threading.current_thread().name)
            if threading.current_thread() is not caller:
                helper_started.set()
            elif workers == 2:
                # hold the caller until the helper has its direction, so the
                # caller cannot take it back
                assert helper_started.wait(timeout=30)
            return real(p, x, lengths)

        monkeypatch.setattr(cells, "lstm_forward", recording)
        blstm_forward(init_blstm(2, 3, 2, Rng(0)), Rng(1).normal(0, 1, (4, 2, 1)))
        if workers == 1:
            assert names == {caller.name}
        else:
            helper, = names - {caller.name}
            assert len(names) == 2 and helper.startswith("crnn-task")

    def test_cblstm_halves_run_their_directions_in_a_nested_call(self, tasks_for_all,
                                                                 set_workers):
        # each column-half task calls blstm_forward, whose run_tasks call
        # is then nested inside a task
        c = CrnnLayerConfig(kind="cblstm", features=3, window=WindowSpec(3, 1),
                            reduction="max")
        params = init_layer(c, 2, Rng(5))
        lengths = np.array([150, 131])
        x = Rng(6).normal(0, 1, (2, lengths.sum()))
        dout = Rng(7).normal(0, 1, (3, window_count(lengths, c.window).sum()))
        runs = []
        for workers in (1, 2):
            set_workers(workers)

            def run():
                out, tr = layer_forward(c, params, x, lengths)
                assert len(tr.cell_trace) == 2
                runs.append((out, *layer_backward(c, params, tr, dout)))

            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive(), f"cblstm halves hung at {workers} workers"
        (out1, g1, dx1), (out2, g2, dx2) = runs
        assert np.array_equal(out1, out2) and np.array_equal(dx1, dx2)
        for (name, a), (_, b) in zip(named_arrays(g1), named_arrays(g2)):
            assert np.array_equal(a, b), name


class TestColumnHalves:
    """The halves agree with one block over the whole window batch."""

    @pytest.mark.parametrize("source,kind", [
        (source, kind) for kind in ("clstm", "extended_clstm", "cblstm")
        for source in ("hidden", "cell", "output")
        if not (kind == "cblstm" and source == "output")])
    @pytest.mark.parametrize("reduction", ["last", "mean", "max"])
    def test_split_matches_one_block(self, monkeypatch, tasks_for_all, kind, source,
                                     reduction):
        c = CrnnLayerConfig(kind=kind, features=3, window=WindowSpec(3, 1), source=source,
                            reduction=reduction, hidden_dim=4 if source == "output" else None)
        params = init_layer(c, 2, Rng(5))
        lengths = np.array([150, 131])
        x = Rng(6).normal(0, 1, (2, lengths.sum()))
        dout = Rng(7).normal(0, 1, (3, window_count(lengths, c.window).sum()))

        out, tr = layer_forward(c, params, x, lengths)
        assert len(tr.cell_trace) == 2
        # backward follows the blocks on the trace, not the size rule now
        monkeypatch.setattr(layers, "_TASK_MIN_MACS", 10**18)
        grads, dx = layer_backward(c, params, tr, dout)
        out1, tr1 = layer_forward(c, params, x, lengths)
        assert len(tr1.cell_trace) == 1
        grads1, dx1 = layer_backward(c, params, tr1, dout)

        np.testing.assert_allclose(out, out1, rtol=1e-15, atol=0)
        close_to_leaf_max(grads, grads1, 1e-14)
        close_to_leaf_max(dx, dx1, 1e-14)


def split_fixture(tmp_path, kind="clstm", classifier="lstm"):
    """16 training clips of 40 frames, 18 windows each, in one batch."""
    train_tsv = write_split(tmp_path, "train", 16, seed=1, l=40)
    val_tsv = write_split(tmp_path, "val", 8, seed=2, l=40)
    return write_run_config(tmp_path, train_tsv, val_tsv, **{
        "layer1.kind": kind, "layer1.window": 5, "layer1.shift": 2, "batch_size": 16,
        "max_epochs": 2, "classifier": classifier})


def test_cli_artifacts_identical_at_one_and_two_workers(tmp_path, tasks_for_all,
                                                         set_workers):
    for kind, classifier in (("clstm", "lstm"), ("cblstm", "lstm"), ("clstm", "blstm")):
        cfg = split_fixture(tmp_path, kind, classifier)
        blobs = []
        for workers in (1, 2):
            set_workers(workers)
            out = tmp_path / f"{kind}-{classifier}-w{workers}"
            assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(((out / "metrics.jsonl").read_bytes(),
                          (out / "model.bin").read_bytes()))
        assert blobs[0] == blobs[1], (kind, classifier)


def test_cli_helper_shape_error_exits_4(tmp_path, monkeypatch, capsys, tasks_for_all,
                                        set_workers):
    cfg = split_fixture(tmp_path)
    real = layers.lstm_forward

    helper_started = threading.Event()

    def fail_off_main(p, x, lengths=None):
        if threading.current_thread() is not threading.main_thread():
            helper_started.set()
            raise ShapeError("injected in a helper task")
        # keep the caller from taking the helper's block back
        assert helper_started.wait(timeout=30)
        return real(p, x, lengths)

    monkeypatch.setattr(layers, "lstm_forward", fail_off_main)
    set_workers(2)
    assert cli.main(["train", "--config", str(cfg)]) == 4
    assert "error: numeric: injected in a helper task" in capsys.readouterr().err



def test_no_thread_starts_at_import_or_at_one_worker():
    # a fresh interpreter: this one's helper may have started already
    code = f"""
import sys, threading
sys.path.insert(0, {str(Path(cells.__file__).parents[1])!r})
import crnn
assert threading.active_count() == 1, threading.enumerate()
import numpy as np
from crnn import cells, layers
from crnn.framing import WindowSpec
from crnn.layers import CrnnLayerConfig, init_layer, layer_backward, layer_forward
from crnn.numerics import Rng
cells._workers = 1
layers._TASK_MIN_MACS = 1
c = CrnnLayerConfig(kind="clstm", features=3, window=WindowSpec(3, 1))
params = init_layer(c, 2, Rng(0))
out, tr = layer_forward(c, params, Rng(1).normal(0, 1, (2, 40)))
assert len(tr.cell_trace) == 2
layer_backward(c, params, tr, np.ones_like(out))
assert threading.active_count() == 1, threading.enumerate()
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
