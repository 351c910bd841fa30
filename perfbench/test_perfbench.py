"""Tests of the benchmark's own logic: tail rule, calibration, self time, work
between ops, failures.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from measure import OpFailed, local_calibration, run_closed_loop, tail_latency  # noqa: E402
from spans import REPLICATION, Span, Tracer, covered, op_accounting, self_times  # noqa: E402


def _span(name, start, end, parent=None, thread=1):
    s = Span(name, start, parent, 0, thread)
    s.end = end
    return s


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(100, 0, -1))
    value, pct, n = tail_latency(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_follows_sample_count():
    value, pct, n = tail_latency([float(v) for v in range(1, 41)])
    assert value == 30.0 and pct == pytest.approx(75.0) and n == 40


@pytest.mark.parametrize("count", [1, 10])
def test_tail_without_ten_beyond_is_the_maximum(count):
    assert tail_latency(list(range(count))) == (count - 1, 100.0, count)


# ---------------------------------------------------------------------------
# calibration


def test_local_calibration_follows_the_machine_speed_around_each_op():
    cal = [(float(t), 10.0 if t < 5 else 20.0) for t in range(10)]
    starts, lat_ms = [0.0, 7.0, 4.0], [0.0, 1000.0, 1000.0]
    # midpoints 0, 7.5 and 4.5: the five nearest samples, 4.5 straddling the change
    assert local_calibration(starts, lat_ms, cal) == [10.0, 20.0, 10.0]
    assert local_calibration([100.0], [0.0], cal[:3]) == [10.0]


# ---------------------------------------------------------------------------
# self time


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_self_time_with_nested_spans():
    a = _span("a", 0.0, 10.0)
    b = _span("b", 2.0, 5.0, parent=a)
    c = _span("c", 3.0, 4.0, parent=b)
    d = _span("d", 6.0, 9.5, parent=a)
    got = self_times([a, b, c, d])
    assert got[id(a)] == pytest.approx(10.0 - 3.0 - 3.5)
    assert got[id(b)] == pytest.approx(2.0)
    assert got[id(c)] == pytest.approx(1.0)
    assert got[id(d)] == pytest.approx(3.5)
    acct = op_accounting([a, b, c, d], -1.0, 10.0, op_thread=1)
    assert acct["unattributed"] == pytest.approx(1.0)
    assert acct["attributed"] + acct["unattributed"] == pytest.approx(acct["thread_time"])


def test_self_time_with_children_on_two_threads():
    root = _span("root", 0.0, 10.0, thread=1)
    w1 = _span("w1", 1.0, 8.0, parent=root, thread=2)
    w2 = _span("w2", 2.0, 9.0, parent=root, thread=3)
    inner = _span("inner", 3.0, 5.0, parent=w1, thread=2)
    spans = [root, w1, w2, inner]
    got = self_times(spans)
    # the root waits while either worker runs: 1..9 is covered
    assert got[id(root)] == pytest.approx(2.0)
    assert got[id(w1)] == pytest.approx(5.0)
    assert got[id(w2)] == pytest.approx(7.0)
    acct = op_accounting(spans, 0.0, 10.0, op_thread=1)
    # wall 10 plus the 6 s the two workers overlapped
    assert acct["thread_time"] == pytest.approx(16.0)
    assert acct["unattributed"] == pytest.approx(0.0)
    assert acct["attributed"] == pytest.approx(16.0)


def test_unrelated_span_on_another_thread_takes_no_self_time():
    mine = _span("mine", 0.0, 4.0, thread=1)
    other = _span("other", 1.0, 3.0, thread=2)
    assert self_times([mine, other])[id(mine)] == pytest.approx(4.0)


def test_tracer_links_pool_tasks_to_the_calling_span():
    tracer = Tracer()
    work = tracer.wrap("mod.work", lambda: time.sleep(0.01))

    def run_replications(reps, worker):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(worker, range(reps)))

    replicate = tracer.wrap_replications(run_replications)
    outer = tracer.wrap("mod.outer", lambda: replicate(4, lambda i: work()))
    t0 = time.perf_counter()
    outer()
    t1 = time.perf_counter()
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["mod.outer"]
    assert len(by_name[REPLICATION]) == 4 and len(by_name["mod.work"]) == 4
    assert all(s.parent is root for s in by_name[REPLICATION])
    assert all(s.parent.name == REPLICATION and s.parent.thread == s.thread
               for s in by_name["mod.work"])
    assert {s.thread for s in by_name[REPLICATION]} != {threading.get_ident()}
    acct = op_accounting(spans, t0, t1, threading.get_ident())
    assert acct["attributed"] + acct["unattributed"] == pytest.approx(acct["thread_time"])
    assert acct["thread_time"] > acct["wall"]


def test_installation_catches_calls_between_modules_and_restores_them():
    import numpy as np
    from curvecast import Grid, FunctionalDataset, fpca, selection
    from layers import NOTES
    from spans import Installation

    original = fpca.eigensystem
    tracer = Tracer()
    data = FunctionalDataset(grid=Grid(16), values=np.random.default_rng(0).normal(size=(40, 16)))
    installed = Installation(tracer, NOTES)
    installed.apply()
    try:
        assert selection.eigensystem is not original
        selection.select_pd(data, 1, 2)
    finally:
        installed.restore()
    assert selection.eigensystem is original and fpca.eigensystem is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["selection.select_pd", "fpca.eigensystem",
                         "fpca.sample_covariance_kernel"]
    kernel = tracer.spans[2]
    assert kernel.parent is tracer.spans[1] and kernel.note == 2.0 * 40 * 16 * 16
    assert tracer.spans[0].note == (4, 4)


# ---------------------------------------------------------------------------
# work between ops


def test_between_runs_spread_over_op_time_outside_the_clock():
    events = []

    def op(i):
        events.append(("op", i))
        time.sleep(0.002)

    loop = run_closed_loop(op, lambda i, r: None, seconds=0.2,
                           between=lambda: events.append(("between", None)),
                           between_count=4)
    between_at = [k for k, e in enumerate(events) if e[0] == "between"]
    assert len(between_at) == 4 and between_at[0] == 0
    assert events[-1][0] == "op" and loop["attempted"] == len(events) - 4
    assert all(b > a + 1 for a, b in zip(between_at, between_at[1:]))


# ---------------------------------------------------------------------------
# failure counting


def test_failed_ops_count_raises_and_failed_checks():
    def op(i):
        time.sleep(0.002)
        if i == 1:
            raise ValueError("boom")
        return i

    def check(i, result):
        if result == 2:
            raise OpFailed("wrong output")

    loop = run_closed_loop(op, check, seconds=0.1)
    assert loop["attempted"] >= 3
    assert loop["failed"] == 2
    assert len(loop["lat_ms"]) == loop["attempted"]
    assert "ValueError: boom" in loop["messages"][0]
    assert "OpFailed: wrong output" in loop["messages"][1]
