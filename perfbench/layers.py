"""Per-module metrics from the traced run, aggregated per op.

Each traced function reports ``calls``, ``self_ms`` and ``errors`` per op.
Derived metrics come from notes that the tracing wrappers attach to spans
after the call returns (see NOTES).
"""

import hashlib
import os
from collections import defaultdict

from spans import REPLICATION, SPAN_NAMES, op_accounting, self_times

MB = 1e6


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _fingerprint(args, kwargs, result):
    """Identity of an eigensystem input: its shape and every 16th curve.

    Hashing the full array would add a millisecond per call; a sample of
    rows tells apart the datasets one op builds.
    """
    values = _arg(args, kwargs, 0, "data").values
    digest = hashlib.blake2b(repr(values.shape).encode(), digest_size=16)
    digest.update(values[::16].tobytes())
    digest.update(values[-1].tobytes())
    return digest.hexdigest()


def _kernel_flop(args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    return 2.0 * data.n * data.T * data.T


def _cells(args, kwargs, result):
    return sum(c.ok for c in result.cells), len(result.cells)


def _read_size(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _write_size(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


NOTES = {
    "fpca.eigensystem": _fingerprint,
    "fpca.sample_covariance_kernel": _kernel_flop,
    "selection.select_pd": _cells,
    "curves.load_curves_csv": _read_size,
    "ingest.ingest": _read_size,
    "experiments.load_numeric_csv": _read_size,
    "curves.save_curves_csv": _write_size,
}
READERS = ("curves.load_curves_csv", "ingest.ingest", "experiments.load_numeric_csv")
# The functions an op calls into.  Their self time holds the work of every
# function the trace does not wrap, so a large share here is work that the
# named modules do not explain.
ENTRY_POINTS = ("experiments.run_forecast_experiment", "experiments.run_benchmark",
                "cli.main", REPLICATION)

# name -> unit, in the order printed
METRICS = {}
for _name in SPAN_NAMES:
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_ms"] = "ms"
    METRICS[f"{_name}.errors"] = "count"
METRICS.update({
    "fpca.eigensystem.unique_frac": "ratio",
    "selection.select_pd.ok_frac": "ratio",
    "fpca.sample_covariance_kernel.gflop": "GFLOP-computed",
    "curves.read_mb": "MB",
    "curves.write_mb": "MB",
    "experiments.worker_cpu_frac": "ratio",
    "unattributed_ms": "ms",
    "trace_coverage": "ratio",
    "trace_overhead_frac": "ratio",
})


class LayerStats:
    """Running totals over traced ops."""

    def __init__(self, threads):
        self.threads = threads
        self.ops = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.eig_calls = 0
        self.eig_unique = 0
        self.cells_ok = 0
        self.cells = 0
        self.flop = 0.0
        self.read_bytes = 0
        self.write_bytes = 0
        self.worker_cpu = 0.0
        self.worker_capacity = 0.0
        self.unattributed = 0.0
        self.attributed = 0.0
        self.thread_time = 0.0
        self.worst_coverage = 1.0

    def add_op(self, spans, op_start, op_end, op_thread):
        self.ops += 1
        selfs = self_times(spans)
        eig_prints = set()
        for s in spans:
            self.calls[s.name] += 1
            self.self_s[s.name] += selfs[id(s)]
            self.errors[s.name] += s.error
            if s.note is None:
                continue
            if s.name == "fpca.eigensystem":
                self.eig_calls += 1
                eig_prints.add(s.note)
            elif s.name == "fpca.sample_covariance_kernel":
                self.flop += s.note
            elif s.name == "selection.select_pd":
                self.cells_ok += s.note[0]
                self.cells += s.note[1]
            elif s.name in READERS:
                self.read_bytes += s.note
            elif s.name == "curves.save_curves_csv":
                self.write_bytes += s.note
        replications = [s for s in spans if s.name == REPLICATION]
        self.eig_unique += len(eig_prints)
        if replications:
            workers = min(self.threads, len(replications))
            self.worker_cpu += sum(s.cpu for s in replications)
            self.worker_capacity += (op_end - op_start) * workers
        acct = op_accounting(spans, op_start, op_end, op_thread)
        self.unattributed += acct["unattributed"]
        self.attributed += acct["attributed"]
        self.thread_time += acct["thread_time"]
        self.worst_coverage = min(self.worst_coverage, acct["attributed"] / acct["thread_time"])

    def self_share(self, name):
        """Self time of ``name`` over the thread time of every traced op."""
        return self.self_s[name] / self.thread_time if self.thread_time else 0.0

    def metrics(self, overhead_frac):
        per_op = 1.0 / max(self.ops, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] * per_op
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3 * per_op
            out[f"{name}.errors"] = self.errors[name] * per_op
        out["fpca.eigensystem.unique_frac"] = (
            self.eig_unique / self.eig_calls if self.eig_calls else 0.0)
        out["selection.select_pd.ok_frac"] = self.cells_ok / self.cells if self.cells else 0.0
        out["fpca.sample_covariance_kernel.gflop"] = self.flop / 1e9 * per_op
        out["curves.read_mb"] = self.read_bytes / MB * per_op
        out["curves.write_mb"] = self.write_bytes / MB * per_op
        out["experiments.worker_cpu_frac"] = (
            self.worker_cpu / self.worker_capacity if self.worker_capacity else 0.0)
        out["unattributed_ms"] = self.unattributed * 1e3 * per_op
        out["trace_coverage"] = self.attributed / self.thread_time if self.thread_time else 0.0
        out["trace_overhead_frac"] = overhead_frac
        return out


# Which end-to-end metric each module metric should move, and on which
# workload, written down before any optimisation is measured.
EXPECTED_EFFECTS = [
    {"module_metrics": ["fpca.eigensystem.*", "fpca.sample_covariance_kernel.*",
                        "fpca.eigensystem.unique_frac"],
     "end_to_end": ["op_p50_ms", "ops_per_s"],
     "shows_on": ["far-replicate", "band-calibrate"], "little_or_none_on": ["cli-csv"]},
    {"module_metrics": ["selection.select_pd.*", "multivar.fit_var_ols.calls"],
     "end_to_end": ["op_p50_ms", "ops_per_s"],
     "shows_on": ["far-replicate"], "little_or_none_on": ["band-calibrate"]},
    {"module_metrics": ["bands.rolling_residuals.*", "fpca.reconstruct.calls",
                        "multivar.predict_var.calls"],
     "end_to_end": ["op_p50_ms", "ops_per_s"],
     "shows_on": ["band-calibrate", "cli-csv"], "little_or_none_on": ["far-replicate"]},
    {"module_metrics": ["simulate.simulate.*"],
     "end_to_end": ["op_p50_ms", "ops_per_s"],
     "shows_on": ["far-replicate", "band-calibrate (a little)"],
     "little_or_none_on": ["cli-csv"]},
    {"module_metrics": ["curves.*", "ingest.ingest.*", "experiments.load_numeric_csv.*",
                        "cli.main.*"],
     "end_to_end": ["op_p50_ms", "ops_per_s"],
     "shows_on": ["cli-csv"],
     "little_or_none_on": ["far-replicate", "band-calibrate", "far-replicate-pool"]},
    {"module_metrics": ["experiments.worker_cpu_frac"],
     "end_to_end": ["ops_per_s", "cpu_ms_per_op"],
     "shows_on": ["far-replicate-pool"], "little_or_none_on": ["far-replicate"]},
    {"module_metrics": ["batched replications (ROADMAP item 4)"],
     "end_to_end": ["peak_rss_mb"],
     "shows_on": ["far-replicate", "far-replicate-pool"], "little_or_none_on": []},
]
