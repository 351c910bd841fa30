"""Closed-loop timing, machine-speed calibration and the tail statistic."""

import bisect
import statistics
import time

import numpy as np

# A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10
# Op wall time between two calibration samples.
CALIBRATE_EVERY_S = 0.1
# Calibration samples nearest in time to an op that set its local speed.
CALIBRATION_NEIGHBOURS = 5
# Calibration time (ms) that defines the reference speed times are scaled
# to.  On the two-CPU Xeon (2.1 GHz) KVM guest the baseline was recorded on,
# the kernel's run medians ranged from about 5 to 7.5 ms.
REFERENCE_CAL_MS = 6.0


def tail_latency(samples, beyond=TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  The value is the sample
    with exactly ``beyond`` samples above it, which sits at percentile
    100 * (N - beyond) / N.  With ``beyond`` or fewer samples there is no
    such percentile and the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


class Calibration:
    """A fixed numpy and Python kernel whose run time tracks the machine's speed.

    On a shared machine the same op can take 40% longer from one minute to
    the next, and the speed swings within seconds.  Timed between ops, this
    kernel slows down with them.  It touches no curvecast code, so a change
    to the package cannot move it.  Its parts mirror the package's work: a
    Gram product like the covariance kernel, a symmetric eigensolve like
    ``eigensystem``, small solves and vector ops like the VAR fits, and
    interpreter work (arithmetic, small objects, sorting) like CSV parsing
    and the per-call bookkeeping of the rolling refits.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._curves = rng.normal(size=(400, 256))
        kernel = rng.normal(size=(128, 128))
        self._kernel = kernel @ kernel.T
        design = rng.normal(size=(64, 8))
        self._gram = design.T @ design
        self._rhs = design[:8].T.copy()
        self._vec = design[0].copy()

    def __call__(self):
        """Seconds one pass of the kernel takes."""
        t0 = time.perf_counter()
        self._curves.T @ self._curves
        np.linalg.eigh(self._kernel)
        for _ in range(100):
            np.linalg.solve(self._gram, self._rhs)
        vec = self._vec
        for _ in range(150):
            vec = (vec - vec.mean()) @ self._gram / 10.0
        acc = 0
        for k in range(10000):
            acc += k * k
        rows = [{"k": k, "label": str(k)} for k in range(1500)]
        rows.sort(key=lambda row: -row["k"])
        return time.perf_counter() - t0


def local_calibration(starts, lat_ms, cal):
    """Median calibration time (ms) around each op.

    ``starts`` and ``lat_ms`` are op start times (s) and wall times (ms);
    ``cal`` holds (time, ms) calibration samples in time order.  The
    CALIBRATION_NEIGHBOURS samples nearest to an op's midpoint give its
    local speed.
    """
    times = [t for t, _ in cal]
    want = min(CALIBRATION_NEIGHBOURS, len(cal))
    out = []
    for start, lat in zip(starts, lat_ms):
        mid = start + lat / 2e3
        lo = hi = bisect.bisect_left(times, mid)
        while hi - lo < want:
            if lo > 0 and (hi == len(times) or mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        out.append(statistics.median(ms for _, ms in cal[lo:hi]))
    return out


class OpFailed(Exception):
    """An op's output check did not hold."""


def run_closed_loop(op, check, seconds, before=None, after=None, calibrate=None,
                    between=None, between_count=0):
    """Issue ops one after another until their wall time adds up to ``seconds``.

    ``op(i)`` is timed; ``check(i, result)`` runs after the clock stops and
    raises (any exception) when the output is wrong.  An op that raises or
    whose check fails counts as failed.  ``before(i)`` and ``after(i, t0, t1)``
    run just before the clock starts and just after it stops.  ``calibrate()``
    returns seconds; it is sampled before the first op, after every
    CALIBRATE_EVERY_S of op time and after the last op, outside the timed
    region.  ``between()`` runs ``between_count`` times outside the timed
    region, spread evenly over the op time: before the first op and after
    each ``seconds / between_count`` of op time.

    Returns a dict with per-op start times (s), wall and CPU times (ms), the
    calibration samples as (time, ms), attempted and failed counts and the
    first failure messages.
    """
    starts, lat_ms, cpu_ms, cal = [], [], [], []
    busy = 0.0
    since_cal = CALIBRATE_EVERY_S
    between_done = 0
    failed = 0
    messages = []
    i = 0
    while busy < seconds:
        if between_done < between_count and busy >= between_done * seconds / between_count:
            between()
            between_done += 1
        if calibrate is not None and since_cal >= CALIBRATE_EVERY_S:
            cal.append((time.perf_counter(), calibrate() * 1e3))
            since_cal = 0.0
        if before is not None:
            before(i)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op(i)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a benchmark crash
            result, error = None, exc
        t1 = time.perf_counter()
        cpu_ms.append((time.process_time() - c0) * 1e3)
        starts.append(t0)
        lat_ms.append((t1 - t0) * 1e3)
        busy += t1 - t0
        since_cal += t1 - t0
        if after is not None:
            after(i, t0, t1)
        if error is None:
            try:
                check(i, result)
            except Exception as exc:  # noqa: BLE001 - any check failure fails the op
                error = exc
        if error is not None:
            failed += 1
            if len(messages) < 5:
                messages.append(f"op {i}: {type(error).__name__}: {error}")
        i += 1
    if calibrate is not None:
        cal.append((time.perf_counter(), calibrate() * 1e3))
    return {"starts": starts, "lat_ms": lat_ms, "cpu_ms": cpu_ms, "cal": cal,
            "busy_s": busy, "attempted": i, "failed": failed, "messages": messages}
