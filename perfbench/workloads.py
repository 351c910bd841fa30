"""The benchmark's workloads: inputs from a seed, one op, and its output checks.

Each workload is a closed loop with one caller.  ``setup`` builds the
inputs from the workload seed, ``op`` is the timed call into curvecast,
``check`` verifies an op's outputs outside the timed region and
``outputs`` extracts the values compared against the references recorded
in ``reference.json``.
"""

import contextlib
import csv
import io
import json
import math
import os
import re

from curvecast import bands, cli, experiments

from measure import OpFailed
from spans import rebind

# Reference outputs are recorded at this seed.
DEFAULT_SEED = 1
# ROADMAP tolerance for outputs that must not change.
REFERENCE_RTOL = 1e-12

# Criterion 04's eight (kappa, sigma scheme) settings.
FAR_SETTINGS = tuple(
    (kappa, sigma)
    for kappa in ((0.2, 0.0), (0.8, 0.0), (0.4, 0.4), (0.0, 0.8))
    for sigma in ("s1", "s2")
)
FAR_P_MAX, FAR_D_MAX = 3, 10
FAR_N, FAR_TRAIN = 1000, 0.9
CLI_P_MAX, CLI_D_MAX = 3, 6
CLI_DAYS, CLI_T = 730, 48
BAND_ALPHA = 0.8


def op_seed(seed, i):
    """Replication seed of op ``i``: distinct per op, fixed by the workload seed."""
    return seed * 2**20 + i


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _require(ok, message):
    if not ok:
        raise OpFailed(message)


def far_config(seed, i, reps):
    kappa, sigma = FAR_SETTINGS[i % len(FAR_SETTINGS)]
    return {
        "source": {"type": "kappa-far", "kappa": list(kappa), "sigma_scheme": sigma, "D": 21},
        "n": FAR_N, "grid_T": 256, "train": FAR_TRAIN, "horizon": 1,
        "fit_mode": "fixed", "seed": op_seed(seed, i), "reps": reps,
        "methods": [{"name": "ffpe-var", "p_max": FAR_P_MAX, "d_max": FAR_D_MAX}],
    }


class Workload:
    """Defaults: one worker, inputs are the seed, nothing to install or re-check."""

    threads = 1

    def install(self):
        """Hook into curvecast once per process, before any op."""

    def setup(self, seed, tmpdir):
        return {"seed": seed}

    def after(self, state, first):
        """Problems found after the timed loop, given the first op's result."""
        return []


class FarReplicate(Workload):
    """Criterion-04 replications through ``run_forecast_experiment``."""

    def __init__(self, name, reps, threads, reference_ops):
        self.name = name
        self.reps = reps
        self.threads = threads
        self.reference_ops = reference_ops

    def op(self, state, i):
        return experiments.run_forecast_experiment(far_config(state["seed"], i, self.reps))

    def check(self, state, i, report):
        recs = report.replications
        _require(len(recs) == self.reps, f"{len(recs)} replications, want {self.reps}")
        n_test = FAR_N - round(FAR_TRAIN * FAR_N)
        for rec in recs:
            errs = rec["errors"]["ffpe-var"]
            _require(len(errs) == n_test and _finite(errs),
                     f"replication {rec['idx']}: want {n_test} finite errors")
            sel = rec["selected"]["ffpe-var"]
            _require(0 <= sel["p"] <= FAR_P_MAX and 1 <= sel["d"] <= FAR_D_MAX,
                     f"replication {rec['idx']}: selected {sel} outside the grid")
            _require(_finite([rec["criterion"]["ffpe-var"]]),
                     f"replication {rec['idx']}: criterion not finite")

    def outputs(self, state, report):
        return report.replications

    def after(self, state, first):
        """With a pool, op 0 re-run on one worker must give identical records."""
        if self.threads == 1:
            return []
        os.environ[experiments.THREADS_ENV] = "1"
        try:
            again = self.op(state, 0)
        finally:
            os.environ[experiments.THREADS_ENV] = str(self.threads)
        if again.replications != first.replications:
            return [f"{self.name}: op 0 on one worker differs from {self.threads} workers"]
        return []


class BandCalibrate(Workload):
    """The ``bands-coverage`` preset, one replication per op."""

    name = "band-calibrate"
    reference_ops = 4

    def __init__(self):
        self.bands = []

    def install(self):
        """Keep each calibrated band so its constants can be checked."""
        original = bands.prediction_band

        def capture(*args, **kwargs):
            band = original(*args, **kwargs)
            self.bands.append(band)
            return band

        rebind(original, capture)

    def op(self, state, i):
        self.bands.clear()
        return experiments.run_benchmark(
            "bands-coverage", reps=1, seed=op_seed(state["seed"], i),
            n=400, alpha=BAND_ALPHA, p=1, d=3,
        )

    def check(self, state, i, report):
        _require(len(self.bands) == 1, f"{len(self.bands)} bands calibrated, want 1")
        band = self.bands[0]
        _require(_finite([band.xi_lower, band.xi_upper]), "band constants not finite")
        rec = report.replications[0]
        _require(rec["in_sample_coverage"] >= BAND_ALPHA,
                 f"in-sample coverage {rec['in_sample_coverage']} below {BAND_ALPHA}")
        _require(rec["errors"]["bands"][0] in (0.0, 1.0), "coverage flag not 0 or 1")

    def outputs(self, state, report):
        rec = report.replications[0]
        band = self.bands[0]
        return {"covered": rec["errors"]["bands"][0],
                "in_sample_coverage": rec["in_sample_coverage"],
                "xi": [band.xi_lower, band.xi_upper]}


class CliCsv(Workload):
    """Five in-process CLI calls on a pm10-analog CSV."""

    name = "cli-csv"
    reference_ops = 1

    def setup(self, seed, tmpdir):
        raw, cov = experiments.make_pm10_analog(tmpdir, n_days=CLI_DAYS, seed=seed)
        out = {name: os.path.join(tmpdir, name) for name in
               ("curves.csv", "table.csv", "covariate.json", "vector.json", "band.csv")}
        curves, order = out["curves.csv"], ["--pmax", str(CLI_P_MAX), "--dmax", str(CLI_D_MAX)]
        calls = [
            ["ingest", "--input", raw, "--out", curves, "--transform", "sqrt",
             "--weekday-adjust", "weekday"],
            ["select", "--input", curves, "--covariates", cov, *order,
             "--out", out["table.csv"]],
            ["forecast", "--input", curves, "--method", "covariate", "--covariates", cov,
             *order, "--out", out["covariate.json"]],
            ["forecast", "--input", curves, "--method", "vector", *order,
             "--out", out["vector.json"]],
            ["bands", "--input", curves, "--p", "1", "--d", "3", "--out", out["band.csv"]],
        ]
        return {"calls": calls, "out": out}

    def op(self, state, i):
        stdout = io.StringIO()
        stderr = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            for argv in state["calls"]:
                code = cli.main(argv)
                if code != 0:
                    raise OpFailed(f"curvecast {argv[0]} exited {code}: {stderr.getvalue()}")
        return stdout.getvalue()

    @staticmethod
    def _rows(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def check(self, state, i, stdout):
        self.outputs(state, stdout)

    def outputs(self, state, stdout):
        out = state["out"]
        curves = self._rows(out["curves.csv"])
        _require(len(curves) == CLI_DAYS + 1 and {len(r) for r in curves} == {CLI_T},
                 "ingested curves CSV has the wrong shape")
        match = re.search(r"selected p=(\d+) d=(\d+)", stdout)
        _require(match is not None, "select printed no selection")
        p, d = int(match.group(1)), int(match.group(2))
        _require(0 <= p <= CLI_P_MAX and 1 <= d <= CLI_D_MAX, f"selected ({p}, {d}) off the grid")
        table = {(int(r[0]), int(r[1])): r for r in self._rows(out["table.csv"])[1:]}
        best = table[(p, d)]
        _require(best[5] == "ok" and _finite([float(best[4])]), "selected criterion not finite")
        result = {"selected": [p, d], "criterion": float(best[4])}
        for method in ("covariate", "vector"):
            with open(out[f"{method}.json"]) as fh:
                curve = json.load(fh)["curve"]
            _require(len(curve) == CLI_T and _finite(curve),
                     f"{method} forecast needs {CLI_T} finite values")
            result[method] = curve
        band = [[float(v) for v in r] for r in self._rows(out["band.csv"])[1:]]
        _require(len(band) == CLI_T and all(_finite(r) for r in band),
                 f"band CSV needs {CLI_T} finite rows")
        result["band"] = band
        return result


# Each workload's reason to exist is its "why" in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        FarReplicate("far-replicate", reps=1, threads=1, reference_ops=len(FAR_SETTINGS)),
        BandCalibrate(),
        CliCsv(),
        FarReplicate("far-replicate-pool", reps=16, threads=2, reference_ops=1),
    )
}


def reference_outputs(workload, tmpdir):
    """Outputs of the first ops at DEFAULT_SEED, each checked as usual."""
    state = workload.setup(DEFAULT_SEED, tmpdir)
    values = []
    for i in range(workload.reference_ops):
        result = workload.op(state, i)
        workload.check(state, i, result)
        values.append(workload.outputs(state, result))
    return values


def compare(got, want, rtol=REFERENCE_RTOL, where="outputs"):
    """Return the first difference between two output trees, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: keys differ"
        for key in want:
            diff = compare(got[key], want[key], rtol, f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            diff = compare(g, w, rtol, f"{where}[{k}]")
            if diff:
                return diff
        return None
    if isinstance(want, float) and isinstance(got, (int, float)):
        if abs(got - want) <= rtol * abs(want) or got == want:
            return None
        return f"{where}: {got!r} != {want!r}"
    return None if got == want else f"{where}: {got!r} != {want!r}"
