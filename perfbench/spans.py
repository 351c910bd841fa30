"""Outside-in tracing of curvecast: in-memory spans around public functions.

A :class:`Tracer` rebinds each traced function, in every curvecast module
that imported it, to a timing wrapper, so calls between modules are caught
without editing the package.  Spans know their parent, the op they belong
to and their thread.  Replication tasks that ``experiments`` hands to its
thread pool are wrapped too, so spans on pool threads keep the op's span as
their parent.
"""

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

# Public functions timed per module; `errors` does no work and is left out.
TRACED = {
    "simulate": ("simulate",),
    "fpca": ("eigensystem", "sample_covariance_kernel", "scores", "reconstruct"),
    "selection": ("select_pd",),
    "multivar": ("fit_var_ols", "fit_varx_ols", "predict_var"),
    "forecast": ("predict_fts", "predict_with_covariates"),
    "bands": ("rolling_residuals", "prediction_band"),
    "curves": ("load_curves_csv", "save_curves_csv"),
    "ingest": ("ingest",),
    "experiments": ("run_forecast_experiment", "run_benchmark", "load_numeric_csv"),
    "cli": ("main",),
}
# One replication task, on whichever thread runs it.
REPLICATION = "experiments.replication"
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns) + (REPLICATION,)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "cpu", "error", "note")

    def __init__(self, name, start, parent, op, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.cpu = None
        self.error = False
        self.note = None


class Tracer:
    """Collects spans; ``op`` tags every span opened until it changes.

    ``spans`` holds the spans of the current op.  :meth:`archive` moves them
    to ``archived`` as tuples of plain values, which the garbage collector
    stops tracking, so a long run does not slow collections for later ops.
    """

    def __init__(self):
        self.spans = []
        self.archived = []
        self.op = None
        self._local = threading.local()

    def archive(self):
        base = len(self.archived)
        ids = {id(s): base + i for i, s in enumerate(self.spans)}
        for s in self.spans:
            parent = None if s.parent is None else ids[id(s.parent)]
            self.archived.append(
                (ids[id(s)], s.name, s.start, s.end, parent, s.op, s.thread, s.error))
        self.spans = []

    def current(self):
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "base", None)

    def open(self, name):
        span = Span(name, time.perf_counter(), self.current(), self.op, threading.get_ident())
        self.spans.append(span)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name, fn, note=None):
        """Timing wrapper; ``note(args, kwargs, result)`` annotates the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self.close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def wrap_replications(self, run_replications):
        """Wrap ``experiments._run_replications`` so each task is a span under the caller."""

        @functools.wraps(run_replications)
        def traced(reps, worker):
            parent = self.current()

            def task(idx):
                saved = getattr(self._local, "base", None)
                self._local.base = parent
                cpu0 = time.thread_time()
                span = self.open(REPLICATION)
                try:
                    return worker(idx)
                except BaseException:
                    span.error = True
                    raise
                finally:
                    self.close(span)
                    span.cpu = time.thread_time() - cpu0
                    self._local.base = saved

            return run_replications(reps, task)

        return traced


def _curvecast_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "curvecast" or name.startswith("curvecast.")) and m is not None]


def bound_to(value):
    """Every (module, attribute) of curvecast whose value is ``value``."""
    return [(mod, attr) for mod in _curvecast_modules()
            for attr, v in list(vars(mod).items()) if v is value]


def rebind(original, replacement):
    """Point every curvecast attribute bound to ``original`` at ``replacement``."""
    for mod, attr in bound_to(original):
        setattr(mod, attr, replacement)


class Installation:
    """Tracing wrappers over every function in TRACED, applied and restored per op.

    Module attributes to rebind are found once, here, so that applying and
    restoring is a few hundred attribute stores.
    """

    def __init__(self, tracer, notes):
        import curvecast.experiments as experiments

        patches = []
        for module, names in TRACED.items():
            mod = importlib.import_module(f"curvecast.{module}")
            for fn_name in names:
                qual = f"{module}.{fn_name}"
                original = getattr(mod, fn_name)
                patches.append((original, tracer.wrap(qual, original, notes.get(qual))))
        original = experiments._run_replications
        patches.append((original, tracer.wrap_replications(original)))
        self._sites = [(mod, attr, original, wrapped)
                       for original, wrapped in patches
                       for mod, attr in bound_to(original)]

    def apply(self):
        for mod, attr, _, wrapped in self._sites:
            setattr(mod, attr, wrapped)

    def restore(self):
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# self time and op accounting


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map id(span) to its duration minus the part its child spans cover.

    Children on other threads count too: a caller waiting on a pool is not
    busy while its replication tasks run.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(id(s), ())]
        out[id(s)] = (s.end - s.start) - covered([k for k in kids if k[1] > k[0]])
    return out


def op_accounting(spans, op_start, op_end, op_thread):
    """Split one op's thread time into attributed (span self time) and unattributed.

    Thread time is the op's wall time on its calling thread plus the time
    pool threads ran beside it, so that self times on two threads can sum
    to it.  Unattributed is calling-thread time outside every span.
    """
    wall = op_end - op_start
    roots = [(max(s.start, op_start), min(s.end, op_end))
             for s in spans if s.parent is None and s.thread == op_thread]
    unattributed = wall - covered([r for r in roots if r[1] > r[0]])
    cross = [s for s in spans if s.parent is not None and s.thread != s.parent.thread]
    parallel = sum(s.end - s.start for s in cross) - covered([(s.start, s.end) for s in cross])
    attributed = sum(self_times(spans).values())
    return {"wall": wall, "thread_time": wall + parallel,
            "attributed": attributed, "unattributed": unattributed}


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "thread", "error")


def write_spans(rows, path):
    """Write archived spans as JSON lines: a header naming SPAN_FIELDS, then one array each.

    Times are ``time.perf_counter`` seconds; ``parent`` is the parent's id.
    """
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")
    os.replace(tmp, path)
