"""Golden outputs: every preset, the command-line chain and the public entry points on small
settings, against the values recorded in tests/golden.json.

    python tests/golden.py             compare at 1e-12 relative; exit 1 naming each moved record
    python tests/golden.py --bitwise   count the values that differ from the file at all
    python tests/golden.py --write     record the outputs of this tree in the file

It runs at one BLAS thread, set here before numpy loads, so the records of one BLAS build do
not depend on the machine's thread count.  The comparison at 1e-12 is the benchmark's own
`compare`.  So that it does not depend on the BLAS build either, no record reads past its data's
rank (the covariate sample and the command-line chain's analog span three components, so their
sweeps stop at d = 2), and no record selects p = 0, where FFPE(0, d) is the total variance for
every d and rounding would pick d.  The most sensitive records are the equivalence gaps, each a
difference of two nearly equal forecasts.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FTSP_THREADS", None)  # one replication worker, as the records were made
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from curvecast import (Grid, bosq_predict, equivalence_gap, predict_fts,  # noqa: E402
                       predict_with_covariates, pve_dimension, run_benchmark, scalar_predict,
                       select_pd)
from curvecast.cli import main  # noqa: E402
from curvecast.experiments import _source_factory, make_pm10_analog  # noqa: E402
from curvecast.forecast import covariate_matrix  # noqa: E402
from workloads import REFERENCE_RTOL, compare  # noqa: E402  the benchmark's comparison

GOLDEN = os.path.join(ROOT, "tests", "golden.json")
SEEDS = (3, 11)
# each preset's small settings: 2 replications (pm10-analog 1), n 60-100, T 32-40, D 5
PRESETS = {
    "psi1-ratio": {"reps": 2, "n": 60, "train": 50, "grid_T": 32},
    "psi2-ratio": {"reps": 2, "n": 60, "train": 50, "grid_T": 32},
    "order-selection": {"reps": 2, "n": 60, "D": 5, "grid_T": 40, "d_max": 4},
    "far2-table": {"reps": 2, "n": 80, "D": 5, "grid_T": 40, "p_max": 2, "d_max": 4},
    "fma-farma": {"reps": 2, "n": 100, "D": 5, "grid_T": 40, "p_max": 2, "d_max": 4},
    "equivalence-rate": {"reps": 2, "ns": [20, 40], "grid_T": 32},
    "bands-coverage": {"reps": 2, "n": 60, "grid_T": 32},
    "covariate-gain": {"reps": 2, "n": 70, "train": 60, "grid_T": 32},
    "pm10-analog": {"n_days": 70, "eval_days": 10},
}
CLI_DAYS = 120


def report_record(report) -> dict:
    record = json.loads(report.to_json())
    del record["wall_clock"]
    return record


def cell(text: str):
    """A CSV cell as the int, float or str it holds."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def read_csv(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [[cell(value) for value in line.rstrip("\n").split(",")] for line in fh]


def run_cli(argv, tmp) -> str:
    """What `curvecast argv` prints, with the temporary directory masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return f"exit {code}: {out.getvalue()}".replace(tmp, "<tmp>")


def cli_records(tmp) -> dict:
    """The ingest -> select -> forecast covariate -> forecast vector -> bands chain on a
    120-day analog, and simulate --save-spec for each process kind."""
    raw, cov = make_pm10_analog(tmp, n_days=CLI_DAYS, seed=5)
    path = {name: os.path.join(tmp, name) for name in
            ("curves.csv", "table.csv", "covariate.json", "vector.json", "band.csv")}
    order = ["--pmax", "3", "--dmax", "2"]
    calls = [
        ["ingest", "--input", raw, "--out", path["curves.csv"], "--transform", "sqrt",
         "--weekday-adjust", "weekday"],
        ["select", "--input", path["curves.csv"], "--covariates", cov, *order,
         "--out", path["table.csv"]],
        ["forecast", "--input", path["curves.csv"], "--method", "covariate", "--covariates", cov,
         *order, "--out", path["covariate.json"]],
        ["forecast", "--input", path["curves.csv"], "--method", "vector", *order,
         "--out", path["vector.json"]],
        ["bands", "--input", path["curves.csv"], "--p", "1", "--d", "2", "--out", path["band.csv"]],
    ]
    records = {"cli-chain/stdout": [run_cli(argv, tmp) for argv in calls]}
    for name, file in path.items():
        if name.endswith(".json"):
            with open(file, encoding="utf-8") as fh:
                records[f"cli-chain/{name}"] = json.load(fh)
        else:
            records[f"cli-chain/{name}"] = read_csv(file)
    for kind, flags in {"far": ["--operator", "psi1"],
                        "fma": ["--operator", "random", "--dim", "5"],
                        "farma": ["--operator", "random", "--dim", "5"]}.items():
        curves, spec = os.path.join(tmp, f"{kind}.csv"), os.path.join(tmp, f"{kind}.json")
        stdout = run_cli(["simulate", "--kind", kind, *flags, "--n", "30", "--grid", "48",
                          "--seed", "7", "--out", curves, "--save-spec", spec], tmp)
        with open(spec, encoding="utf-8") as fh:
            records[f"simulate/{kind}"] = {"stdout": stdout, "spec": json.load(fh),
                                           "curves": read_csv(curves)}
    return records


def forecast_record(result) -> dict:
    return json.loads(result.to_json())


def table_record(table) -> dict:
    return {"best": list(table.best), "cells": [vars(c) for c in table.cells]}


def api_records() -> dict:
    """The public entry points on one covariate-driven sample of 80 curves on 32 points."""
    data, rmat = next(_source_factory({"type": "covariate-far1"}, 80, Grid(32))(
        [np.random.default_rng(13)]))
    gap = equivalence_gap(data, 1)
    both = covariate_matrix([rmat[:, 0], data], data.n, dims=[None, 2])
    return {
        "predict_fts/fixed": forecast_record(predict_fts(data, p=1, d=3)),
        "predict_fts/selected": forecast_record(predict_fts(data, h=2, p_max=2, d_max=2)),
        "bosq_predict/p1": forecast_record(bosq_predict(data, 3)),
        "bosq_predict/p2": forecast_record(bosq_predict(data, 3, 2)),
        "scalar_predict": forecast_record(scalar_predict(data, 3, 2, h=2)),
        **{f"predict_with_covariates/{solver}": forecast_record(
            predict_with_covariates(data, rmat, p_max=2, d_max=2, solver=solver))
           for solver in ("ols", "blp")},
        "covariate_matrix": {"numeric": covariate_matrix(rmat, data.n).tolist(),
                             "mixed": both.tolist(),
                             "functional-pve": covariate_matrix(data, data.n, pve=0.8).tolist()},
        "pve_dimension": [pve_dimension(data, pve) for pve in (0.5, 0.8, 0.95)],
        "select_pd/var": table_record(select_pd(data, 3, 2)),
        "select_pd/varx": table_record(select_pd(data, 3, 2, covariate_scores=rmat)),
        "equivalence_gap": {"gap": gap.gap, "gamma_hat": gap.gamma_hat.tolist(),
                            "gamma_tilde": gap.gamma_tilde.tolist(),
                            "var": forecast_record(gap.var_result),
                            "bosq": forecast_record(gap.bosq_result)},
    }


def build() -> dict:
    records = {f"preset/{name}/seed{seed}": report_record(run_benchmark(name, seed=seed, **kw))
               for name, kw in PRESETS.items() for seed in SEEDS}
    with tempfile.TemporaryDirectory(prefix="golden_") as tmp:
        records.update(cli_records(tmp))
    records.update(api_records())
    return records


def moved(got, want) -> int:
    """How many values of want got does not hold bit for bit; a changed structure counts once."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return sum(moved(got[key], want[key]) for key in want)
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return sum(map(moved, got, want))
    return int(json.dumps(got) != json.dumps(want))


def golden(argv) -> int:
    records = build()
    if "--write" in argv:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(records)} records to {GOLDEN}")
        return 0
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(records))  # as the file holds them: tuples become lists
    if sorted(got) != sorted(want):
        print(f"records differ: new {sorted(got.keys() - want.keys())}, "
              f"gone {sorted(want.keys() - got.keys())}")
        return 1
    if "--bitwise" in argv:
        counts = {name: moved(got[name], want[name]) for name in sorted(want)}
        counts = {name: count for name, count in counts.items() if count}
        print(f"{sum(counts.values())} values moved in {len(counts)} of {len(want)} records"
              + "".join(f"\n  {name}: {count}" for name, count in counts.items()))
        return 0
    failed = [diff for name in sorted(want) if (diff := compare(got[name], want[name], where=name))]
    for diff in failed:
        print(f"moved: {diff}")
    print(f"{len(failed)} of {len(want)} records moved beyond {REFERENCE_RTOL} relative")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(golden(sys.argv[1:]))
