"""Replicated forecasting evaluations and canned benchmark studies.

A run draws replications with per-replication generators seeded from
(seed, index), evaluates one or more prediction methods out of sample
with a rolling origin, and collects everything into a serializable
report.  Canned presets reproduce the simulation studies used to vet
the pipeline.  Replications can run on a small thread pool sized by
the FTSP_THREADS environment variable and capped at the CPU count.
Each pool task takes a chunk of consecutive replications and steps their
simulated recursions together; records are merged in index order, so
reports depend neither on the chunking nor on scheduling.
"""

import ctypes
import functools
import inspect
import json
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bands import _ALPHA, _rolling_residuals, _warm_up, prediction_band
from .curves import (
    _GRID_T,
    Grid,
    _write_csv,
    load_curves_csv,
    load_numeric_csv,
    make_fourier_basis,
    synthesize,
)
from .errors import _argument, _at_least, _checked, _is_number, _numbers, _one_of
from .forecast import (_BOSQ_P, _RULES, _basis, _check_method, _fit, _head, _predict, _result,
                       equivalence_gap)
from .ingest import ingest
from .multivar import _HORIZON
from .selection import select_pd
from .simulate import (_N, _SCALINGS, _SCHEME, _SPEC, ProcessSpec, _coefficients, _coupled_far1,
                       _scaled_spec, fixed_psi, random_operator, sigma_scheme)

THREADS_ENV = "FTSP_THREADS"
CHUNK = 16  # most replications one pool task steps together


def _worker_count() -> int:
    """FTSP_THREADS as a worker count capped at the CPU count, 1 if unset; else an integer >= 1."""
    raw = os.environ.get(THREADS_ENV, "1")
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {raw!r}")
    return min(int(raw), os.cpu_count() or 1)


def _rep_rng(seed: int, idx: int) -> "np.random.Generator":
    return np.random.default_rng([int(seed), int(idx)])


def _run_replications(reps: int, worker):
    limit = _worker_count()
    if limit <= 1 or reps <= 1:
        return [worker(i) for i in range(reps)]
    from concurrent.futures import ThreadPoolExecutor  # loaded only by a run that starts a pool
    with ThreadPoolExecutor(max_workers=min(limit, reps)) as pool:
        return list(pool.map(worker, range(reps)))


@dataclass
class RunReport:
    """Everything a replicated run produced, in JSON-stable form."""

    command: str
    config: dict
    replications: list
    aggregates: dict
    frequencies: dict
    wall_clock: float

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, default=_plain)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


@functools.cache
def _keep_heap() -> None:
    """Ask glibc once per process to keep freed heap, so ops stop faulting it back in.

    Acts on this process alone; a no-op without glibc's mallopt (macOS, Windows, musl).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_TOP_PAD 16 MiB, M_MMAP_THRESHOLD 32 MiB (its maximum); on glibc 2.36, 0 minor faults per
    # far-replicate or band-calibrate op, 1356 and 1177 unset, and 2309 per band op with the pad alone
    mallopt(-2, 16 << 20)
    mallopt(-3, 32 << 20)


def _report(command: str, config: dict, count: int, seed, worker, draw=iter) -> RunReport:
    """Run count replications into a report timed from this call, aggregates empty.

    Pool tasks take consecutive indices in near-equal chunks of at most
    CHUNK, as many as the smallest multiple of the worker count that keeps
    them that small.  draw(generators) turns a chunk's replication generators into
    one input per index, made as they are taken; by default the input is
    the generator.  A run without seed, which draws nothing, gets None for each.
    Record idx holds idx, [seed, idx] and empty errors and selected, with the
    fields that worker(idx, input) returns laid over them.
    """
    start = time.perf_counter()
    _keep_heap()
    workers = _worker_count()
    tasks = workers * -(-count // (workers * CHUNK))
    size = -(-count // tasks) if count else 1
    firsts = range(0, count, size)

    def chunk(c):
        idxs = range(firsts[c], min(firsts[c] + size, count))
        inputs = iter(draw([None if seed is None else _rep_rng(seed, idx) for idx in idxs]))
        # an input is dropped once its worker returns, so a chunk holds one at a time
        return [{"idx": idx, "seed": [seed, idx], "errors": {}, "selected": {},
                 **worker(idx, next(inputs))} for idx in idxs]

    records = [rec for recs in _run_replications(len(firsts), chunk) for rec in recs]
    return RunReport(command=command, config=config, replications=records, aggregates={},
                     frequencies={}, wall_clock=time.perf_counter() - start)


def _is_train(value) -> bool:
    """Whether value is a training fraction in (0, 1) or an integer count."""
    return isinstance(value, float) and 0.0 < value < 1.0 or _is_number(value, int)


def _resolve_train(train, n: int) -> int:
    m = round(train * n) if isinstance(train, float) and 0.0 < train < 1.0 else int(train)
    if not 2 <= m < n:
        raise ValueError(f"train size {m} must satisfy 2 <= m < n={n}")
    return m


# ---------------------------------------------------------------------------
# data sources


_SIMULATED = {"D": _SPEC["D"], "sigma_scheme": _SCHEME, "burn_in": _SPEC["burn_in"]}
_PATH = (object, lambda path: isinstance(path, (str, os.PathLike)), "be a str or os.PathLike")
# each source type's keys with their rules, and the keys it needs
_SOURCES = {"process": ({"type": str, "spec": dict}, ("spec",)),
            "kappa-far": ({"type": str, "kappa": _numbers(), **_SIMULATED}, ("kappa",)),
            "fma": ({"type": str, "theta_scale": float, **_SIMULATED}, ()),
            "farma": ({"type": str, "kappa": float, "theta_scales": _numbers(2), **_SIMULATED}, ()),
            "covariate-far1": ({"type": str, "burn_in": _SPEC["burn_in"]}, ()),
            "file": ({"type": str, "path": _PATH, "covariates_path": _PATH}, ("path",))}


def _source_factory(source: dict, n: int, grid: Grid):
    """Return draw: draw(rngs) yields (n curves on grid, covariates or None) per rng.

    A simulated source steps the recursions of all rngs together; a file source reads its
    files at the first draw and reads no rng.  Bad values, missing keys and keys the source
    type does not read raise ValueError naming the key, before anything is drawn or read.
    """
    kind = _argument("source", "type", source.get("type"), _one_of(*_SOURCES))
    rules, needs = _SOURCES[kind]
    args = _checked(source, rules, f"a {kind!r} source", needs)
    burn_in = args.get("burn_in", 200)
    if kind == "file":
        def draw(rngs):
            data = load_curves_csv(args["path"])
            rmat = load_numeric_csv(args["covariates_path"]) if "covariates_path" in args else None
            return ((data, rmat) for _ in rngs)

        return draw
    if kind == "covariate-far1":
        D = 3  # the curves' components; _coupled_far1 steps the covariate's beside them
    elif kind == "process":
        spec = ProcessSpec.from_json(json.dumps(args["spec"]))
        D = spec.D

        def spec_from(rng):
            return spec
    else:  # kappa-far, fma or farma: a random operator per replication
        D = args.get("D", 21)
        sig = sigma_scheme(args.get("sigma_scheme", "s1"), D)
        kind = kind.removeprefix("kappa-")
        kappas, thetas = _SCALINGS[kind]
        if "kappa" in args:  # a list for kappa-far, one number for farma
            kappas = args["kappa"] if kind == "far" else [args["kappa"]]
        if "theta_scale" in args:
            thetas = {2: args["theta_scale"]}
        if "theta_scales" in args:
            thetas = dict(enumerate(args["theta_scales"], start=1))

        def spec_from(rng):  # one unit-norm operator scaled into every term
            return _scaled_spec(kind, random_operator(D, sig, rng), sig, kappas, thetas, burn_in)
    basis = make_fourier_basis(D, grid)  # a grid too coarse for D fails before any draw

    def draw(rngs):
        if kind == "covariate-far1":
            pairs = _coupled_far1(n, rngs, burn_in=burn_in)
        else:
            pairs = [(c, None) for c in _coefficients([spec_from(rng) for rng in rngs], n, rngs)]
        while pairs:  # each pair is dropped once its curves are made
            coeffs, rmat = pairs.pop(0)
            yield synthesize(coeffs, basis), rmat

    return draw


def _psi_source(name: str) -> dict:
    """The 'process' source of the first-order process on three components with operator name."""
    spec = {"kind": "far", "D": 3, "sigma": [1.0, 1.0, 1.0], "ar": [fixed_psi(name).tolist()],
            "ma": {}, "burn_in": 200}
    return {"type": "process", "spec": spec}


# ---------------------------------------------------------------------------
# per-method evaluation


def _eval_method_fixed(data, rmat, m, h, method, eig=None):
    """Fit once on the first m curves, on eig if given, then predict every later curve from that fit."""
    fit = _fit(data, m, method, rmat, eig)
    diff = data.values[m:] - _predict(fit, np.arange(m - h, data.n - h), h)[1]
    return {"errors": (np.einsum("ij,ij->i", diff, diff) / data.T).tolist(),
            "selected": {"p": fit.p, "d": fit.d}, "criterion": fit.criterion}


def _evaluate(data, rmat, m, h, methods, keys) -> dict:
    """One replication's record fields: each checked method of methods scored on one basis.

    Every method fits on the first m curves and truncates the one _basis solve.  errors and
    selected hold each method's evaluation under its key, criterion each selected method's
    criterion, and a field no method fills is left out.
    """
    eig = _basis(data, m, methods)
    outs = {key: _eval_method_fixed(data, rmat, m, h, meth, eig) for key, meth in zip(keys, methods)}
    fields = {field: {key: out[field] for key, out in outs.items() if out[field] is not None}
              for field in ("errors", "selected", "criterion")}
    return {field: values for field, values in fields.items() if values}


def _plain(value):
    """A value json cannot write as the number or str it stands for: numpy scalar or path."""
    return value.item() if isinstance(value, np.generic) else os.fspath(value)


# every key a config may hold, with its rule (see errors._checked)
_CONFIG = {"source": dict, "n": _N, "grid_T": _GRID_T,
           "train": (object, _is_train, "be a fraction in (0, 1) or an integer count"),
           "horizon": _HORIZON, "fit_mode": _one_of("fixed"),
           "methods": (object, lambda methods: isinstance(methods, (list, tuple)) and len(methods) > 0
                       and all(isinstance(m, dict) for m in methods),
                       "be a list of one or more method dicts"),
           "seed": _at_least(0), "reps": _at_least(1)}


def run_forecast_experiment(config: dict) -> RunReport:
    """Rolling-origin one-step (or h-step) evaluation over replications.

    config holds only keys of _CONFIG, each parsed by its rule there, and needs methods, source
    and, unless a file source draws nothing, seed; None counts as absent.  A simulated source
    needs n; a file source fixes n and grid_T and takes neither.  fit_mode takes only 'fixed':
    each method fits once, on the training curves.  _source_factory checks the source and
    forecast._check_method each method dict; a covariate method needs a 'covariate-far1' source
    or a 'file' source's covariates_path, which only it reads.  Every check, the training size
    included unless the source is a file, raises ValueError naming the key before a file is read
    or a replication runs.

    Returns
    -------
    RunReport
        Per-replication squared errors and selections keyed by method,
        with pooled aggregates and selection frequencies.
    """
    source = config.get("source") if isinstance(config, dict) else None  # a file draws nothing
    seeded = not (isinstance(source, dict) and source.get("type") == "file")
    args = _checked(config, _CONFIG, "config", needs=("seed",) * seeded + ("methods", "source"))
    echo = json.loads(json.dumps(config, sort_keys=True, default=_plain))
    seed, source, h, reps = args.get("seed"), args["source"], args.get("horizon", 1), args.get("reps", 1)
    methods = [_check_method(meth, h) for meth in args["methods"]]
    keys = [meth.get("label", meth["name"]) for meth in methods]
    if len(set(keys)) != len(keys):
        raise ValueError(f"method keys must be unique, got {keys}")
    kind, n, train = source.get("type"), args.get("n"), args.get("train", 0.9)
    if kind == "file" and reps != 1:
        raise ValueError("a file source is deterministic; use reps=1")
    if n is None and kind != "file":
        raise ValueError(f"a {kind!r} source needs n, the number of curves to simulate")
    draw = _source_factory(source, n, Grid(args.get("grid_T", 256)))
    fixed = [key for key in ("n", "grid_T") if kind == "file" and key in args]
    if fixed:
        raise ValueError(f"a 'file' source fixes n and grid_T; drop config key {fixed[0]!r}")
    needy = [key for key, meth in zip(keys, methods) if meth["name"] == "covariate"]
    given = source.get("covariates_path") is not None  # only a file source may hold it
    if needy and not (kind == "covariate-far1" or given):
        raise ValueError(f"method {needy[0]!r} needs covariates, which a {kind!r} source does not give; "
                         "a 'covariate-far1' source and a 'file' source with covariates_path do")
    if given and not needy:
        raise ValueError("a 'file' source key 'covariates_path' is read by a 'covariate' method only, "
                         "and no method is one")
    if kind != "file":  # a file source's n is known only once the file is read
        _resolve_train(train, n)

    def worker(idx, drawn):
        data, rmat = drawn
        return _evaluate(data, rmat, _resolve_train(train, data.n), h, methods, keys)

    report = _report("run_forecast_experiment", echo, reps, seed, worker, draw)
    report.aggregates, report.frequencies = _aggregate(report.replications, keys)
    return report


def _aggregate(records, keys):
    aggregates = {}
    frequencies = {}
    for key in keys:
        pooled = [e for rec in records for e in rec["errors"].get(key, [])]
        entry = {}
        if pooled:
            entry = {
                "mse": float(np.mean(pooled)),
                "medse": float(np.median(pooled)),
                "sd": float(np.std(pooled, ddof=1)) if len(pooled) > 1 else 0.0,
            }
        crits = [rec["criterion"][key] for rec in records if key in rec.get("criterion", {})]
        if crits:
            entry["mean_criterion"] = float(np.mean(crits))
        aggregates[key] = entry
        counts = Counter(
            f"{sel['p']},{sel['d']}"
            for rec in records
            for sel in [rec["selected"].get(key)]
            if sel is not None
        )
        if counts:
            frequencies[key] = dict(sorted(counts.items()))
    return aggregates, frequencies


# ---------------------------------------------------------------------------
# simulation-generate helper for raw ingestion demos

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
WEEKDAY_OFFSETS = {
    "Mon": 0.22, "Tue": 0.18, "Wed": 0.15, "Thu": 0.12, "Fri": 0.10,
    "Sat": -0.32, "Sun": -0.45,
}
# make_pm10_analog's rules; fewer days leave a weekday with one day, which its mean cancels
_ANALOG = {"n_days": (int, lambda n: n >= 14, "be >= 14, two days of each weekday"),
           "seed": _CONFIG["seed"],
           "missing_rate": (float, lambda rate: 0.0 <= rate < 1.0, "be in [0, 1)")}


def make_pm10_analog(out_dir, n_days: int = 175, seed: int = 0, missing_rate: float = 0.01):
    """Write a synthetic pollutant-style raw CSV plus a covariate CSV.

    Half-hourly daily records (48 samples) on a squared scale with a
    weekday column, occasional missing cells, and a 2-column numeric
    covariate whose previous row drives the next day.  Purely synthetic;
    a stand-in for confidential monitoring data with a similar shape.
    n_days is at least 14, two days of each weekday; seed is an integer >= 0 and
    missing_rate, each cell's chance to be missing, a number in [0, 1).

    Returns
    -------
    (curves_path, covariates_path)
    """
    args = _checked({"n_days": n_days, "seed": seed, "missing_rate": missing_rate}, _ANALOG,
                    "make_pm10_analog", _ANALOG)
    n_days, rng = args["n_days"], np.random.default_rng(args["seed"])
    grid = Grid(48)
    basis = make_fourier_basis(3, grid)
    t = grid.points
    base = 3.0 + 0.8 * np.exp(-40.0 * (t - 0.33) ** 2) + 0.6 * np.exp(-55.0 * (t - 0.8) ** 2)
    [(coeffs, rmat)] = _coupled_far1(n_days, [rng], psi=np.diag([0.55, 0.45, 0.4]), rho=0.5,
                                     b=((0.5, 0.0), (0.0, 0.35), (0.2, 0.2)),
                                     sigma_y=(0.3, 0.2, 0.15), sigma_r=0.6)
    fluctuations = coeffs @ basis.values
    labels = [WEEKDAYS[k % 7] for k in range(n_days)]
    offsets = np.array([WEEKDAY_OFFSETS[lab] for lab in labels])
    sqrt_scale = np.maximum(base + offsets[:, None] + fluctuations, 0.05)
    raw = sqrt_scale**2
    mask = rng.random(raw.shape) < args["missing_rate"]
    curves_path = os.path.join(out_dir, "pm10_analog_raw.csv")
    _write_csv(curves_path, ["weekday"] + [f"t_{i + 1}" for i in range(48)],
               ([lab] + ["" if h else repr(float(v)) for v, h in zip(row, hide)]
                for lab, row, hide in zip(labels, raw, mask)))
    covariates_path = os.path.join(out_dir, "pm10_analog_covariates.csv")
    _write_csv(covariates_path, ["x_1", "x_2"], ([repr(float(v)) for v in row] for row in rmat))
    return curves_path, covariates_path


# ---------------------------------------------------------------------------
# canned presets


def _study(name, source, methods, reps, seed, n, grid_T, train) -> RunReport:
    """A fixed-mode one-step run_forecast_experiment, reported as benchmark:name."""
    config = {"source": source, "n": n, "grid_T": grid_T, "train": train, "horizon": 1,
              "fit_mode": "fixed", "seed": seed, "reps": reps, "methods": methods}
    report = run_forecast_experiment(config)
    report.command = f"benchmark:{name}"
    return report


def _mean_errors(report: RunReport, key: str) -> np.ndarray:
    """Each replication's mean squared error of method key."""
    return np.array([np.mean(rec["errors"][key]) for rec in report.replications])


def _ratio_preset(psi_name: str):
    def build(reps=200, seed=None, n=200, train=180, grid_T=256, p_max=3, d_max=3,
              scalar_p=1, scalar_d=3):
        methods = [{"name": "ffpe-var", "p_max": p_max, "d_max": d_max},
                   {"name": "scalar", "p": scalar_p, "d": scalar_d}]
        report = _study(f"{psi_name}-ratio", _psi_source(psi_name), methods, reps, seed, n,
                        grid_T, train)
        ratios = _mean_errors(report, "ffpe-var") / _mean_errors(report, "scalar")
        report.aggregates["ratio"] = {"median": float(np.median(ratios)),
                                      "frac_below_one": float(np.mean(ratios < 1.0))}
        return report

    return build


def _order_selection_preset(reps=100, seed=None, kappa=(0.8, 0.0), sigma="s1", n=200,
                            D=21, grid_T=256, p_max=3, d_max=10):
    source = {"type": "kappa-far", "kappa": kappa, "sigma_scheme": sigma, "D": D}
    draw = _source_factory(source, n, Grid(grid_T))

    def worker(idx, drawn):
        table = select_pd(drawn[0], p_max, d_max)
        return {"selected": {"ffpe-var": {"p": table.p_best, "d": table.d_best}}}

    config = {"kappa": list(kappa), "sigma": sigma, "n": n, "D": D, "grid_T": grid_T,
              "p_max": p_max, "d_max": d_max, "seed": seed, "reps": reps}
    report = _report("benchmark:order-selection", config, reps, seed, worker, draw)
    _, report.frequencies = _aggregate(report.replications, ["ffpe-var"])
    return report


def _far2_table_preset(reps=100, seed=None, kappa=(0.8, 0.0), sigma="s1", n=1000,
                       D=21, grid_T=256, train=0.9, p_max=3, d_max=10,
                       bosq_p=1, bosq_pve=0.8):
    source = {"type": "kappa-far", "kappa": list(kappa), "sigma_scheme": sigma, "D": D}
    methods = [{"name": "ffpe-var", "p_max": p_max, "d_max": d_max},
               {"name": "bosq", "p": bosq_p, "pve": bosq_pve}]
    return _study("far2-table", source, methods, reps, seed, n, grid_T, train)


# the fma-farma preset's sources by its kind
_FMA_FARMA = {"farma": {"type": "farma", "kappa": 0.1, "theta_scales": [0.1, 0.9]},
              "fma": {"type": "fma", "theta_scale": 0.8}}


def _fma_farma_preset(reps=50, seed=None, kind="farma", sigma="s1", n=1000, D=21,
                      grid_T=256, train=0.9, p_max=10, d_max=10, bosq_p=1, bosq_pve=0.8):
    source = {**_FMA_FARMA[kind], "sigma_scheme": sigma, "D": D}
    methods = [{"name": "ffpe-var", "p_max": p_max, "d_max": d_max},
               {"name": "bosq", "p": bosq_p, "pve": bosq_pve}]
    report = _study("fma-farma", source, methods, reps, seed, n, grid_T, train)
    wins = _mean_errors(report, "ffpe-var") < _mean_errors(report, "bosq")
    orders = [rec["selected"]["ffpe-var"]["p"] for rec in report.replications]
    report.aggregates["comparison"] = {"frac_ffpe_wins": float(np.mean(wins)),
                                       "mean_selected_p": float(np.mean(orders))}
    return report


def _equivalence_rate_preset(reps=100, seed=None, ns=(100, 200, 400, 800), d=3, grid_T=256):
    # a VAR(1) fit on d scores needs d + 2 curves
    rule = (object, lambda v: min(v) >= d + 2, f"hold integers >= d + 2 = {d + 2}")
    _checked({"ns": ns}, {"ns": rule}, "preset 'equivalence-rate'")
    ns = [int(v) for v in ns]
    draws = {n: _source_factory(_psi_source("psi1"), n, Grid(grid_T)) for n in ns}

    def worker(idx, rng):
        n = ns[idx // reps]
        data, _ = next(draws[n]([rng]))  # one recursion, as simulate steps it
        gap = equivalence_gap(data, d).gap
        return {"n": n, "errors": {"gap": [gap]}}

    config = {"ns": ns, "d": d, "grid_T": grid_T, "seed": seed, "reps": reps}
    report = _report("benchmark:equivalence-rate", config, reps * len(ns), seed, worker)
    records = report.replications
    medians = {}
    for j, n in enumerate(ns):
        gaps = [rec["errors"]["gap"][0] for rec in records[j * reps : (j + 1) * reps]]
        medians[str(n)] = float(np.median(gaps))
    report.aggregates["median_gap"] = medians
    return report


def _bands_coverage_preset(reps=100, seed=None, n=400, alpha=0.8, p=1, d=3,
                           L=None, grid_T=256):
    grid = Grid(grid_T)
    method, lookback = _warm_up(n, {"name": "fixed-var", "p": p, "d": d}, L)

    def worker(idx, drawn):
        full = drawn[0]
        data = _head(full, n)
        # one fit serves both the rolling residuals and the forecast
        fit = _fit(data, n, method)
        resid = _rolling_residuals(data, fit, lookback)
        band = prediction_band(resid, alpha)
        covered = band.contains(_result(fit).curve, full.values[n])
        inside = band.contains(np.zeros(grid.T), resid.values)
        return {"errors": {"bands": [float(covered)]}, "in_sample_coverage": float(np.mean(inside))}

    config = {"n": n, "alpha": alpha, "p": p, "d": d, "L": L, "grid_T": grid_T,
              "seed": seed, "reps": reps}
    report = _report("benchmark:bands-coverage", config, reps, seed, worker,
                     _source_factory(_psi_source("psi1"), n + 1, grid))
    records = report.replications
    report.aggregates = {
        "coverage": float(np.mean([rec["errors"]["bands"][0] for rec in records])),
        "min_in_sample_coverage": float(min(rec["in_sample_coverage"] for rec in records)),
    }
    return report


def _covariate_gain_preset(reps=50, seed=None, n=300, train=250, grid_T=64, p=1, d=3):
    methods = [{"name": "fixed-var", "p": p, "d": d}, {"name": "covariate", "p": p, "d": d}]
    report = _study("covariate-gain", {"type": "covariate-far1"}, methods, reps, seed, n,
                    grid_T, train)
    gains = _mean_errors(report, "covariate") <= _mean_errors(report, "fixed-var")
    report.aggregates["frac_improved"] = float(np.mean(gains))
    return report


def _pm10_analog_preset(reps=1, seed=None, n_days=175, eval_days=20, out_dir=None,
                        p_max=2, d_max=4):
    if reps != 1:
        raise ValueError("the ingestion demo runs a single replication")
    keys = ("ffpe-var", "covariate")
    methods = [{"name": name, "p_max": p_max, "d_max": d_max} for name in keys]
    # a covariate fit on the analog's two covariate columns needs four training days
    rule = (int, lambda v: 1 <= v <= n_days - 4, f"be in 1..n_days - 4 = {n_days - 4}")
    _checked({"eval_days": eval_days}, {"eval_days": rule}, "preset 'pm10-analog'")
    if out_dir is None:
        with tempfile.TemporaryDirectory(prefix="pm10_analog_") as tmp:
            report = _pm10_analog_preset(reps, seed, n_days, eval_days, tmp, p_max, d_max)
        report.config.update(curves_csv=None, covariates_csv=None)  # the files are gone
        return report
    curves_path, cov_path = make_pm10_analog(out_dir, n_days=n_days, seed=seed)

    def worker(idx, rng):
        data = ingest(curves_path, transform="sqrt", weekday_adjust="weekday")
        return _evaluate(data, load_numeric_csv(cov_path), data.n - int(eval_days), 1, methods, keys)

    config = {"synthetic_analog": True, "n_days": n_days, "eval_days": eval_days,
              "p_max": p_max, "d_max": d_max, "seed": seed, "reps": 1,
              "curves_csv": curves_path, "covariates_csv": cov_path}
    report = _report("benchmark:pm10-analog", config, 1, seed, worker)
    report.aggregates, report.frequencies = _aggregate(report.replications, keys)
    return report


PRESETS = {
    "psi1-ratio": _ratio_preset("psi1"),
    "psi2-ratio": _ratio_preset("psi2"),
    "order-selection": _order_selection_preset,
    "far2-table": _far2_table_preset,
    "fma-farma": _fma_farma_preset,
    "equivalence-rate": _equivalence_rate_preset,
    "bands-coverage": _bands_coverage_preset,
    "covariate-gain": _covariate_gain_preset,
    "pm10-analog": _pm10_analog_preset,
}
# every preset key with the rule of the config, method, source, spec or argument key it feeds
_BY_NAME = {**{key: _CONFIG[key] for key in ("seed", "reps", "train", "n", "grid_T")},
            **{key: _RULES[key] for key in ("p", "d", "p_max", "d_max")}, "scalar_p": _RULES["p"],
            "scalar_d": _RULES["d"], "D": _SPEC["D"], "bosq_p": _BOSQ_P, "bosq_pve": _RULES["pve"],
            "kappa": _SOURCES["kappa-far"][0]["kappa"], "sigma": _SCHEME,
            "kind": _one_of(*_FMA_FARMA), "ns": _numbers(kind=int), "L": int, "eval_days": int,
            "out_dir": str, "alpha": _ALPHA, "n_days": _ANALOG["n_days"]}
# each preset's keys with their rules, read once from its signature; seed is checked first
_PRESET_RULES = {name: {key: _BY_NAME[key] for key in ("seed", *inspect.signature(build).parameters)}
                 for name, build in PRESETS.items()}


def run_benchmark(preset: str, reps: int = None, seed: int = None, **overrides) -> RunReport:
    """Run one of the canned studies; seed is mandatory.

    reps defaults to the preset's own count.  seed, reps and overrides are
    parsed by the preset's table in _PRESET_RULES, whose keys are the
    preset's keyword arguments, and the preset receives the parsed values;
    None counts as absent.  Each key takes the rule in _BY_NAME of the key
    it feeds, so a whole float such as 2.0 or a numpy integer becomes an
    int.  Bad keys and values, and values the study's own checks reject
    (such as an L that leaves too few curves or an entry of ns below
    d + 2), raise a ValueError that names the preset and the key before
    any replication runs.
    """
    preset = _argument("run_benchmark", "preset", preset, _one_of(*PRESETS))
    args = _checked({"seed": seed, "reps": reps, **overrides}, _PRESET_RULES[preset],
                    f"preset {preset!r}", ("seed",))
    return PRESETS[preset](**args)
