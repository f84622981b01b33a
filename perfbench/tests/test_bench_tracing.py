"""Span self-time arithmetic and span parentage."""

import pytest

from benchlib.tracing import Span, Tracer, covered_length, self_times, \
    wrap_method


def test_covered_length_is_the_union_of_intervals():
    assert covered_length([]) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)]) == pytest.approx(5.0)
    assert covered_length([(0, 10), (2, 3)]) == pytest.approx(10.0)
    assert covered_length([(4, 4), (5, 3)]) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    spans = [Span("step", 0.0, 10.0),
             Span("forward", 1.0, 3.0, parent=0),
             Span("backward", 2.0, 5.0, parent=0),
             Span("optim", 7.0, 8.0, parent=0),
             Span("module", 1.5, 2.5, parent=1)]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_child_outside_its_parent_is_clipped():
    spans = [Span("parent", 2.0, 4.0), Span("child", 1.0, 3.0, parent=0)]
    assert self_times(spans) == pytest.approx([1.0, 2.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_nests_wrapped_calls_and_summarises_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Layer:
        def forward(self, cost):
            clock.now += cost
            return cost

    outer, inner = Layer(), Layer()
    wrap_method(inner, "forward", tracer, "inner")

    def outer_forward(cost):
        clock.now += cost
        return inner.forward(2 * cost)

    outer.forward = outer_forward
    wrap_method(outer, "forward", tracer, "outer")
    assert outer.forward(1.0) == 2.0
    tracer.enabled = False
    outer.forward(1.0)                      # not recorded
    summary = tracer.summary()
    assert summary["outer"] == pytest.approx((1, 3.0, 1.0))
    assert summary["inner"] == pytest.approx((1, 2.0, 2.0))
    assert tracer.spans[1].parent == 0


def test_spans_inherit_their_parents_op_id():
    tracer = Tracer(clock=FakeClock())
    step = tracer.open("step", op=7)
    child = tracer.open("forward")
    tracer.close(child)
    recorded = tracer.record("backward", 0.0, 0.0, parent=step)
    tracer.close(step)
    assert [s.op for s in tracer.spans] == [7, 7, 7]
    assert tracer.spans[recorded].parent == step


def test_summary_refuses_open_spans():
    tracer = Tracer(clock=FakeClock())
    tracer.open("step")
    with pytest.raises(RuntimeError, match="still open"):
        tracer.summary()
