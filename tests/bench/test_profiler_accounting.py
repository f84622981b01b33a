"""Accounting correctness of the repro.bench per-op profiler.

The profiler's numbers are only useful if they are *exact*: these tests
pin (1) op counts matching precisely the ops executed, including
composite ops that call other registered primitives; (2) nested
``profile()`` contexts each seeing every event exactly once; (3) backward
time attributed to the op tag of the node being differentiated; and
(4) byte accounting and the self-time invariant (self ≤ inclusive,
Σ self ≤ wall).
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.bench import Profiler, profile, render_table, write_report
from repro.bench import _hooks
from repro.nn import Tensor, no_grad, ops


@pytest.fixture(autouse=True)
def _no_leaked_profilers():
    """Every test must leave the global profiler stack empty."""
    yield
    assert _hooks._PROFILERS == []
    assert _hooks._FRAMES == []


def _forward_counts(prof):
    return {name: stat.forward_calls for name, stat in prof.stats.items()
            if stat.forward_calls}


def _backward_counts(prof):
    return {name: stat.backward_calls for name, stat in prof.stats.items()
            if stat.backward_calls}


class TestForwardCounts:
    def test_counts_match_ops_executed_exactly(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.full((3, 4), 2.0))
        with profile() as prof:
            ops.sum(ops.mul(ops.add(a, b), b))
        assert _forward_counts(prof) == {"add": 1, "mul": 1, "sum": 1}

    def test_property_random_unary_chains(self):
        """Property-style: for random chains of unary primitives the
        recorded counts equal the chain's composition exactly."""
        unary = {"tanh": ops.tanh, "sigmoid": ops.sigmoid,
                 "relu": ops.relu, "exp": ops.exp, "neg": ops.neg}
        rng = np.random.default_rng(7)
        for _ in range(20):
            names = rng.choice(sorted(unary), size=rng.integers(1, 8)).tolist()
            expected = Counter(names)
            expected["sum"] += 1
            with profile() as prof:
                t = Tensor(rng.normal(size=(4,)))
                for name in names:
                    t = unary[name](t)
                ops.sum(t)
            assert _forward_counts(prof) == dict(expected), names

    def test_composite_op_counts_itself_and_children(self):
        """``var`` is implemented as mean∘mul∘sub∘mean: all five calls
        appear."""
        with profile() as prof:
            ops.var(Tensor(np.arange(6.0)))
        assert _forward_counts(prof) == {"var": 1, "mean": 2, "sub": 1,
                                         "mul": 1}

    def test_composite_self_time_excludes_children(self):
        with profile() as prof:
            ops.var(Tensor(np.random.default_rng(0).normal(size=(200, 200))),
                    axis=0)
        stat = prof.op("var")
        assert stat.forward_self_seconds <= stat.forward_seconds

    def test_ops_outside_context_are_not_recorded(self):
        a = Tensor(np.ones(3))
        ops.exp(a)
        with profile() as prof:
            ops.tanh(a)
        ops.sigmoid(a)
        assert _forward_counts(prof) == {"tanh": 1}

    def test_reset_clears_statistics(self):
        with profile() as prof:
            ops.exp(Tensor(np.ones(3)))
        prof.reset()
        assert prof.stats == {}
        assert prof.wall_seconds == 0.0


class TestNestedContexts:
    def test_each_context_records_events_once(self):
        """The outer context includes the inner one's ops exactly once —
        two active profilers never double-count within either."""
        a = Tensor(np.ones((2, 2)))
        with profile("outer") as outer:
            ops.exp(a)
            with profile("inner") as inner:
                ops.add(a, a)
            ops.tanh(a)
        assert _forward_counts(inner) == {"add": 1}
        assert _forward_counts(outer) == {"exp": 1, "add": 1, "tanh": 1}
        assert outer.forward_calls("add") == 1

    def test_nested_wall_times_nest(self):
        with profile() as outer:
            with profile() as inner:
                ops.exp(Tensor(np.ones(100)))
        assert inner.wall_seconds <= outer.wall_seconds

    def test_out_of_order_exit_raises(self):
        outer, inner = profile("o"), profile("i")
        outer.__enter__()
        inner.__enter__()
        try:
            with pytest.raises(RuntimeError, match="innermost-first"):
                outer.__exit__(None, None, None)
        finally:
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)

    def test_reentering_same_profiler_accumulates(self):
        prof = Profiler("accumulating")
        for _ in range(3):
            with prof:
                ops.exp(Tensor(np.ones(2)))
        assert prof.forward_calls("exp") == 3


class TestBackwardAttribution:
    def test_backward_attributed_to_producing_op_tag(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)),
                   requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 2)),
                   requires_grad=True)
        with profile() as prof:
            loss = ops.sum(ops.tanh(ops.matmul(a, b)))
            loss.backward()
        assert _backward_counts(prof) == {"sum": 1, "tanh": 1, "matmul": 1}

    def test_composite_backward_runs_under_primitive_tags(self):
        """``var`` creates no node of its own: its backward work must be
        attributed to its primitives, never to ``var``."""
        a = Tensor(np.arange(6.0) + 0.25, requires_grad=True)
        with profile() as prof:
            ops.var(a).backward()
        assert prof.backward_calls("var") == 0
        assert prof.backward_calls("mean") == 2
        assert prof.backward_calls("mul") == 1
        assert prof.backward_calls("sub") == 1

    def test_no_backward_events_without_backward_pass(self):
        a = Tensor(np.ones(4), requires_grad=True)
        with profile() as prof:
            ops.sigmoid(a)
        assert prof.backward_calls() == 0

    def test_forward_and_backward_seconds_are_separate(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(120, 120)), requires_grad=True)
        b = Tensor(rng.normal(size=(120, 120)), requires_grad=True)
        with profile() as prof:
            ops.sum(ops.matmul(a, b)).backward()
        stat = prof.op("matmul")
        assert stat.forward_calls == 1 and stat.backward_calls == 1
        assert stat.forward_seconds > 0.0
        assert stat.backward_seconds > 0.0

    def test_custom_loss_closure_tag(self):
        """Ops built outside the registry (bce_with_logits constructs its
        node by hand) are still attributed via the closure's qualname."""
        from repro.nn.losses import bce_with_logits
        logits = Tensor(np.zeros(5), requires_grad=True)
        with profile() as prof:
            bce_with_logits(logits, np.ones(5)).backward()
        assert prof.backward_calls("bce_with_logits") == 1


class TestBytesAndGradAccounting:
    # Byte expectations scale with the precision policy's itemsize
    # (8 under float64, 4 under float32).
    @staticmethod
    def _itemsize():
        from repro.nn import get_default_dtype
        return np.dtype(get_default_dtype()).itemsize

    def test_forward_bytes_equal_output_allocation(self):
        a = Tensor(np.ones((3, 4)))
        with profile() as prof:
            ops.add(a, a)
        assert prof.op("add").forward_bytes == 3 * 4 * self._itemsize()

    def test_list_valued_op_bytes_sum_over_outputs(self):
        a = Tensor(np.ones((2, 6)))
        with profile() as prof:
            ops.split(a, 3, axis=-1)
        # split emits three (2, 2) tensors itself (via three getitems).
        assert prof.op("split").forward_bytes == 2 * 6 * self._itemsize()

    def test_backward_bytes_equal_incoming_gradient(self):
        size = self._itemsize()
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        with profile() as prof:
            ops.sum(ops.exp(a)).backward()
        assert prof.op("exp").backward_bytes == 3 * 4 * size  # (3, 4) grad
        assert prof.op("sum").backward_bytes == size          # scalar grad

    def test_peak_grad_bytes_tracks_live_gradients(self):
        size = self._itemsize()
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        with profile() as prof:
            loss = ops.sum(ops.exp(a))
            loss.backward()
        # At the peak, the scalar loss grad, the (3, 4) exp-node grad,
        # and the (3, 4) leaf grad can all be live simultaneously.
        assert prof.peak_grad_bytes >= 3 * 4 * size
        assert prof.peak_grad_bytes <= 2 * (3 * 4 * size) + size

    def test_peak_grad_bytes_resets_between_top_level_profiles(self):
        a = Tensor(np.ones((5, 5)), requires_grad=True)
        with profile() as first:
            ops.sum(ops.tanh(a)).backward()
        a.zero_grad()
        with profile() as second:
            ops.sum(a).backward()
        # The second run's much smaller backward must not inherit the
        # first run's live-byte high-water mark.
        assert second.peak_grad_bytes < first.peak_grad_bytes

    def test_grad_graph_outputs_counts_only_graph_nodes(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with profile() as prof:
            ops.exp(a)                  # graph node
            with no_grad():
                ops.exp(a)              # plain numpy, no graph
            ops.exp(Tensor(np.ones(3)))  # no parent requires grad
        assert prof.forward_calls("exp") == 3
        assert prof.grad_graph_outputs == 1

    def test_self_time_totals_bounded_by_wall(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(80, 80)), requires_grad=True)
        with profile() as prof:
            for _ in range(5):
                ops.sum(ops.tanh(ops.matmul(a, a))).backward()
        assert 0.0 < prof.total_self_seconds() <= prof.wall_seconds + 1e-6


class TestReport:
    def test_write_report_creates_bench_json(self, tmp_path):
        with profile("unit test/run") as prof:
            ops.sum(ops.exp(Tensor(np.ones(4), requires_grad=True))).backward()
        path = write_report(prof, directory=tmp_path,
                            extra={"steps_per_sec": 12.5}, stamp="19700101")
        assert path.name == "BENCH_unit-test-run_19700101.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.bench/v1"
        assert payload["extra"]["steps_per_sec"] == 12.5
        for section in ("forward", "backward"):
            entry = payload["ops"]["exp"][section]
            assert entry["calls"] == 1
            assert set(entry) == {"calls", "seconds", "self_seconds", "bytes"}

    def test_profiler_save_roundtrip(self, tmp_path):
        with profile("roundtrip") as prof:
            ops.exp(Tensor(np.ones(2)))
        path = prof.save(directory=tmp_path)
        assert path.name.startswith("BENCH_roundtrip_")
        assert json.loads(path.read_text())["ops"]["exp"]["forward"]["calls"] == 1

    def test_render_table_sorts_and_limits(self):
        prof = Profiler("manual")
        prof._record_forward("cheap", 0.001, 0.001, 10, False)
        prof._record_forward("hot", 0.5, 0.5, 1000, False)
        text = render_table(prof, sort_by="total", limit=1)
        assert "hot" in text and "cheap" not in text
        full = render_table(prof, sort_by="total")
        assert full.index("hot") < full.index("cheap")

    def test_render_table_rejects_unknown_sort(self):
        with pytest.raises(ValueError, match="sort_by"):
            render_table(Profiler(), sort_by="vibes")
