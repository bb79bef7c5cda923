"""The tracer charges every nanosecond of a traced call either to the self
time of one layer or to its own overhead.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import pytest

from tracer import Tracer


@pytest.mark.parametrize("calibration", [(0, 0), (400, 150)])
def test_self_times_and_overhead_add_up_to_the_root_spans(calibration):
    tracer = Tracer(calibration=calibration)
    leaf = tracer.wrap(lambda n: sum(range(n)), "newell_littlewood:lr.leaf", "lr")
    middle = tracer.wrap(lambda n: sum(leaf(k) for k in range(n)),
                         "bench:newell_littlewood.middle", "newell_littlewood")
    root = tracer.wrap(lambda: middle(50), "bench:bench.op", "bench")
    for _ in range(3):
        root()
    assert tracer.calls == [150, 3, 3]
    roots = tracer.total_ns[2]
    # the root frame holds the root spans' full cost, their own overhead included
    root_overhead = tracer.stack[0][3] - roots
    assert sum(tracer.self_ns) + tracer.overhead_ns - root_overhead == roots
    assert tracer.overhead_ns > 0


def test_spans_of_the_first_install_only_are_kept():
    tracer = Tracer(calibration=(0, 0))
    child = tracer.wrap(lambda: None, "lr:tableaux.child", "tableaux")
    parent = tracer.wrap(lambda: child(), "bench:lr.parent", "lr")
    with tracer:
        parent()
        parent()
    with tracer:
        parent()
    assert tracer.calls[:2] == [3, 3]
    assert list(tracer.span_site) == [1, 0, 1, 0]
    assert list(tracer.span_parent) == [-1, 0, -1, 2]
    assert all(s <= e for s, e in zip(tracer.span_start, tracer.span_end))
