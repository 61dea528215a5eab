import pytest

from spans import Tracer, self_times


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


def test_self_time_without_children_is_the_duration():
    assert self_times([span("a", 1.0, 3.5)]) == [2.5]


def test_self_time_subtracts_disjoint_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("c", 5.0, 6.0, 0)]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_overlapping_children_are_covered_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 4.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_child_coverage_is_clipped_to_the_parent():
    spans = [span("a", 2.0, 6.0), span("b", 0.0, 3.0, 0), span("c", 5.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_grandchildren_count_only_against_their_parent():
    spans = [span("a", 0.0, 10.0), span("b", 2.0, 8.0, 0), span("c", 3.0, 4.0, 1)]
    assert self_times(spans) == [4.0, 5.0, 1.0]


def test_tracer_records_parents_and_restores_originals():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    inner, outer = Owner.inner, Owner.outer
    tracer.patch(Owner, "inner", tracer.timed("layer.inner", Owner.inner))
    tracer.patch(Owner, "outer", tracer.timed("layer.outer", Owner.outer))
    assert Owner.outer(1) == 4
    tracer.restore()
    assert Owner.inner is inner and Owner.outer is outer
    assert tracer.spans == [["layer.outer", 0.0, 3.0, -1], ["layer.inner", 1.0, 2.0, 0]]
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_counts_exceptions_and_closes_the_span():
    tracer = Tracer()
    table = {"f": lambda: 1 / 0}
    tracer.patch(table, "f", tracer.timed("layer.f", table["f"]))
    with pytest.raises(ZeroDivisionError):
        table["f"]()
    tracer.restore()
    assert tracer.counts["layer.f!ZeroDivisionError"] == 1
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert tracer._open == []
