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

import csv
import inspect
import json
import numbers
import os
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bands import _rolling_residuals, _warm_up, prediction_band
from .curves import (
    FunctionalDataset,
    Grid,
    load_curves_csv,
    load_numeric_csv,
    make_fourier_basis,
    synthesize,
)
from .forecast import _fit, _predict, _result, equivalence_gap
from .ingest import ingest
from .selection import select_pd
from .simulate import ProcessSpec, _coefficients, fixed_psi, random_operator, sigma_scheme, simulate

THREADS_ENV = "FTSP_THREADS"
CHUNK = 16  # most replications one pool task steps together


def _worker_count() -> int:
    """FTSP_THREADS as a worker count between 1 and the CPU count; 1 if unset or not a number."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    try:
        limit = int(raw)
    except ValueError:
        return 1
    return max(min(limit, os.cpu_count() or 1), 1)


def _rep_rng(seed: int, idx: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(idx)])


def _run_replications(reps: int, worker):
    limit = _worker_count()
    if limit <= 1 or reps <= 1:
        return [worker(i) for i in range(reps)]
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
        return json.dumps(vars(self), sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


def _sq_errs(data: FunctionalDataset, m: int, curves: np.ndarray) -> list:
    """Squared errors of curves against data rows m..n-1, one per row."""
    diff = data.values[m:] - curves
    return (np.einsum("ij,ij->i", diff, diff) / data.T).tolist()


def _report(command: str, config: dict, count: int, seed, worker, start: float,
            draw=iter, width: int = 1) -> RunReport:
    """Run count replications into a report timed from start, aggregates empty.

    Pool tasks take consecutive indices in chunks of up to width, fewer when
    that would leave a worker idle.  draw(generators) turns a chunk's
    replication generators into one input per index, made as they are
    taken; by default the input is the generator.  Record idx holds idx,
    [seed, idx] and empty errors and selected, with the fields that
    worker(idx, input) returns laid over them.
    """
    size = max(min(width, -(-count // _worker_count())), 1)
    firsts = range(0, count, size)

    def chunk(c):
        idxs = range(firsts[c], min(firsts[c] + size, count))
        inputs = iter(draw([_rep_rng(seed, idx) for idx in idxs]))
        # an input is dropped once its worker returns, so a chunk holds one at a time
        return [{"idx": idx, "seed": [seed, idx], "errors": {}, "selected": {},
                 **worker(idx, next(inputs))} for idx in idxs]

    records = [rec for recs in _run_replications(len(firsts), chunk) for rec in recs]
    return RunReport(command=command, config=config, replications=records, aggregates={},
                     frequencies={}, wall_clock=time.perf_counter() - start)


def _resolve_train(train, n: int) -> int:
    m = round(train * n) if isinstance(train, float) and 0.0 < train < 1.0 else int(train)
    if not 2 <= m < n:
        raise ValueError(f"train size {m} must satisfy 2 <= m < n={n}")
    return m


# ---------------------------------------------------------------------------
# data sources


def _source_factory(source: dict, n: int, grid: Grid):
    """Return (draw, width): draw(rngs) yields (n curves on grid, covariates or None) per rng.

    Simulated recursions are stepped together, width CHUNK at a time; other
    sources are drawn one replication per pool task.  Bad values raise
    ValueError naming their key, before anything is drawn.
    """
    kind = source.get("type")
    burn_in = _number(source, "burn_in", 200, int)
    if burn_in < 0:
        raise ValueError(f"source key 'burn_in' must be >= 0, got {burn_in}")
    if kind == "process":
        spec = ProcessSpec.from_json(json.dumps(source["spec"]))

        def draw(rngs):
            return ((data, None) for data in _simulated([spec] * len(rngs), n, grid, rngs))

        return draw, CHUNK
    if kind in ("kappa-far", "fma", "farma"):
        D = _number(source, "D", 21, int)
        sig = sigma_scheme(source.get("sigma_scheme", "s1"), D)
        if kind == "kappa-far":
            kappas = _float_list(source, "kappa")
            thetas = {}
        elif kind == "fma":
            kappas = []
            thetas = {2: _number(source, "theta_scale", 0.8)}
        else:
            kappas = [_number(source, "kappa", 0.1)]
            thetas = dict(enumerate(_float_list(source, "theta_scales", 2, [0.1, 0.9]), start=1))

        def spec_from(rng):
            psi = random_operator(D, sig, rng)  # one unit-norm operator scaled into every term
            ar = tuple(k * psi for k in kappas)
            ma = {lag: s * psi for lag, s in thetas.items()}
            return ProcessSpec(kind=kind.removeprefix("kappa-"), D=D, sigma=sig, ar=ar, ma=ma,
                               burn_in=burn_in)

        def draw(rngs):
            specs = [spec_from(rng) for rng in rngs]
            return ((data, None) for data in _simulated(specs, n, grid, rngs))

        return draw, CHUNK
    if kind == "covariate-far1":

        def draw(rngs):
            basis = make_fourier_basis(3, grid)
            for rng in rngs:
                coeffs, rmat = _coupled_far1_coeffs(n, rng, burn_in=burn_in)
                yield synthesize(coeffs, basis), rmat

        return draw, 1
    if kind == "file":
        data = load_curves_csv(source["path"])
        rmat = None
        if source.get("covariates_path"):
            rmat = load_numeric_csv(source["covariates_path"])

        def draw(rngs):
            return ((data, rmat) for _ in rngs)

        return draw, 1
    raise ValueError(f"unknown source type {kind!r}")


def _simulated(specs, n: int, grid: Grid, rngs):
    """Yield each spec's n curves from its generator; the recursions step together."""
    basis = make_fourier_basis(specs[0].D, grid)
    blocks = _coefficients(specs, n, rngs)
    while blocks:  # each block is dropped once its curves are made
        yield synthesize(blocks.pop(0), basis)


def _number(source: dict, key: str, default, kind=float):
    """source[key] as a kind; a ValueError names the key unless it is one number of that kind."""
    value = source.get(key, default)
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not np.isfinite(value) or kind(value) != value):
        raise ValueError(f"source key {key!r} must be one finite {kind.__name__}, got {value!r}")
    return kind(value)


def _float_list(source: dict, key: str, size: int = None, default=None) -> list:
    """source[key] as floats; a ValueError names the key unless it lists size (or 1+) numbers."""
    value = source.get(key, default)
    if np.ndim(value) != 1 or len(value) == 0 or size and len(value) != size:
        raise ValueError(f"source key {key!r} must list {size or 'one or more'} numbers, got {value!r}")
    return [float(v) for v in value]


def _coupled_far1_coeffs(
    n: int,
    rng: np.random.Generator,
    psi=None,
    b=None,
    sigma_y=(1.0, 0.7, 0.5),
    rho: float = 0.5,
    sigma_r: float = 0.8,
    burn_in: int = 200,
):
    """First-order coefficient recursion driven by a 2-dim covariate.

    c_k = Psi c_{k-1} + B r_{k-1} + a_k with an AR(1) covariate, so the
    covariate carries real predictive signal at lag one.
    """
    psi = np.diag([0.6, 0.5, 0.4]) if psi is None else np.asarray(psi, dtype=float)
    b = (
        np.array([[0.9, 0.0], [0.0, 0.7], [0.35, 0.35]])
        if b is None
        else np.asarray(b, dtype=float)
    )
    sigma_y = np.asarray(sigma_y, dtype=float)
    D, r = b.shape
    steps = burn_in + n
    coeffs = np.zeros((steps + 1, D))
    rvals = np.zeros((steps + 1, r))
    for k in range(1, steps + 1):
        rvals[k] = rho * rvals[k - 1] + rng.normal(size=r) * sigma_r
        coeffs[k] = psi @ coeffs[k - 1] + b @ rvals[k - 1] + rng.normal(size=D) * sigma_y
    return coeffs[1 + burn_in :], rvals[1 + burn_in :]


# ---------------------------------------------------------------------------
# per-method evaluation


def _eval_method_fixed(data, rmat, m, h, method):
    """Fit once on the first m curves, then predict every later curve from that fit."""
    fit = _fit(data, m, method, rmat, h)
    _, curves = _predict(fit, np.arange(m - h, data.n - h), h)
    return {"errors": _sq_errs(data, m, curves), "selected": {"p": fit.p, "d": fit.d},
            "criterion": fit.criterion}


def _eval_method_expanding(data, rmat, m, h, method):
    """Refit everything on all data before each evaluation index."""
    curves = []
    for end in range(m - h, data.n - h):
        fit = _fit(data, end + 1, method, rmat, h)
        curves.append(_predict(fit, [end], h)[1][0])
    return {"errors": _sq_errs(data, m, np.array(curves)), "selected": {"p": fit.p, "d": fit.d},
            "criterion": None}


def _by_method(outs: dict) -> dict:
    """A record's errors and selected fields from each method's evaluation, keyed by method."""
    return {field: {key: out[field] for key, out in outs.items()}
            for field in ("errors", "selected")}


def _method_key(method: dict) -> str:
    return method.get("label", method["name"])


_METHOD_KEYS = ("name", "label", "p", "d", "p_max", "d_max", "pve", "solver")


def run_forecast_experiment(config: dict) -> RunReport:
    """Rolling-origin one-step (or h-step) evaluation over replications.

    config keys: source (see _source_factory), n (required unless the
    source is a file), grid_T, train (count or fraction), horizon,
    fit_mode ('fixed' refits nothing after the training origin;
    'expanding' refits on all prior data at each step), methods (list
    of method dicts), seed, reps.  A method dict may hold only the keys
    name, label, p, d, p_max, d_max, pve and solver; any other key
    raises ValueError before a replication runs.

    Returns
    -------
    RunReport
        Per-replication squared errors and selections keyed by method,
        with pooled aggregates and selection frequencies.
    """
    start = time.perf_counter()
    echo = json.loads(json.dumps(config, sort_keys=True))
    if "seed" not in config:
        raise ValueError("config must carry a seed")
    seed = int(config["seed"])
    reps = int(config.get("reps", 1))
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    h = int(config.get("horizon", 1))
    fit_mode = config.get("fit_mode", "fixed")
    if fit_mode not in ("fixed", "expanding"):
        raise ValueError(f"fit_mode must be 'fixed' or 'expanding', got {fit_mode!r}")
    methods = config["methods"]
    if not methods:
        raise ValueError("config needs at least one method")
    keys = [_method_key(mm) for mm in methods]
    if len(set(keys)) != len(keys):
        raise ValueError(f"method keys must be unique, got {keys}")
    for key, meth in zip(keys, methods):
        unknown = sorted(meth.keys() - set(_METHOD_KEYS))
        if unknown:
            raise ValueError(f"method {key!r} has no key {unknown[0]!r}; "
                             f"its keys are {', '.join(_METHOD_KEYS)}")
    kind = config["source"].get("type")
    if kind == "file" and reps != 1:
        raise ValueError("a file source is deterministic; use reps=1")
    n = config.get("n")
    if n is None and kind != "file":
        raise ValueError(f"a {kind!r} source needs n, the number of curves to simulate")
    grid = Grid(int(config.get("grid_T", 256)))
    draw, width = _source_factory(config["source"], None if n is None else int(n), grid)
    evaluate = _eval_method_fixed if fit_mode == "fixed" else _eval_method_expanding

    def worker(idx, drawn):
        data, rmat = drawn
        m = _resolve_train(config.get("train", 0.9), data.n)
        outs = {key: evaluate(data, rmat, m, h, meth) for key, meth in zip(keys, methods)}
        criteria = {key: out["criterion"] for key, out in outs.items()
                    if out["criterion"] is not None}
        return {**_by_method(outs), "criterion": criteria} if criteria else _by_method(outs)

    report = _report("run_forecast_experiment", echo, reps, seed, worker, start, draw, width)
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


def make_pm10_analog(out_dir, n_days: int = 175, seed: int = 0, missing_rate: float = 0.01):
    """Write a synthetic pollutant-style raw CSV plus a covariate CSV.

    Half-hourly daily records (48 samples) on a squared scale with a
    weekday column, occasional missing cells, and a 2-column numeric
    covariate whose previous row drives the next day.  Purely synthetic;
    a stand-in for confidential monitoring data with a similar shape.

    Returns
    -------
    (curves_path, covariates_path)
    """
    rng = np.random.default_rng(seed)
    grid = Grid(48)
    basis = make_fourier_basis(3, grid)
    t = grid.points
    base = 3.0 + 0.8 * np.exp(-40.0 * (t - 0.33) ** 2) + 0.6 * np.exp(-55.0 * (t - 0.8) ** 2)
    coeffs, rmat = _coupled_far1_coeffs(
        n_days,
        rng,
        psi=np.diag([0.55, 0.45, 0.4]),
        b=np.array([[0.5, 0.0], [0.0, 0.35], [0.2, 0.2]]),
        sigma_y=(0.3, 0.2, 0.15),
        rho=0.5,
        sigma_r=0.6,
    )
    fluctuations = coeffs @ basis.values
    labels = [WEEKDAYS[k % 7] for k in range(n_days)]
    offsets = np.array([WEEKDAY_OFFSETS[lab] for lab in labels])
    sqrt_scale = np.maximum(base + offsets[:, None] + fluctuations, 0.05)
    raw = sqrt_scale**2
    mask = rng.random(raw.shape) < missing_rate
    curves_path = os.path.join(out_dir, "pm10_analog_raw.csv")
    with open(curves_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["weekday"] + [f"t_{i + 1}" for i in range(48)])
        for lab, row, hide in zip(labels, raw, mask):
            cells = ["" if h else repr(float(v)) for v, h in zip(row, hide)]
            writer.writerow([lab] + cells)
    covariates_path = os.path.join(out_dir, "pm10_analog_covariates.csv")
    with open(covariates_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_1", "x_2"])
        for row in rmat:
            writer.writerow([repr(float(v)) for v in row])
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
        spec = {"kind": "far", "D": 3, "sigma": [1.0, 1.0, 1.0],
                "ar": [fixed_psi(psi_name).tolist()], "ma": {}, "burn_in": 200}
        methods = [{"name": "ffpe-var", "p_max": p_max, "d_max": d_max},
                   {"name": "scalar", "p": scalar_p, "d": scalar_d}]
        report = _study(f"{psi_name}-ratio", {"type": "process", "spec": spec}, methods,
                        reps, seed, n, grid_T, train)
        ratios = _mean_errors(report, "ffpe-var") / _mean_errors(report, "scalar")
        report.aggregates["ratio"] = {"median": float(np.median(ratios)),
                                      "frac_below_one": float(np.mean(ratios < 1.0))}
        return report

    return build


def _order_selection_preset(reps=100, seed=None, kappa=(0.8, 0.0), sigma="s1", n=200,
                            D=21, grid_T=256, p_max=3, d_max=10):
    start = time.perf_counter()
    source = {"type": "kappa-far", "kappa": kappa, "sigma_scheme": sigma, "D": D}
    draw, width = _source_factory(source, n, Grid(grid_T))

    def worker(idx, drawn):
        table = select_pd(drawn[0], p_max, d_max)
        return {"selected": {"ffpe-var": {"p": table.p_best, "d": table.d_best}}}

    config = {"kappa": list(kappa), "sigma": sigma, "n": n, "D": D, "grid_T": grid_T,
              "p_max": p_max, "d_max": d_max, "seed": seed, "reps": reps}
    report = _report("benchmark:order-selection", config, reps, seed, worker, start, draw, width)
    _, report.frequencies = _aggregate(report.replications, ["ffpe-var"])
    return report


def _far2_table_preset(reps=100, seed=None, kappa=(0.8, 0.0), sigma="s1", n=1000,
                       D=21, grid_T=256, train=0.9, p_max=3, d_max=10,
                       bosq_p=1, bosq_pve=0.8):
    source = {"type": "kappa-far", "kappa": list(kappa), "sigma_scheme": sigma, "D": D}
    methods = [{"name": "ffpe-var", "p_max": p_max, "d_max": d_max},
               {"name": "bosq", "p": bosq_p, "pve": bosq_pve}]
    return _study("far2-table", source, methods, reps, seed, n, grid_T, train)


def _fma_farma_preset(reps=50, seed=None, kind="farma", sigma="s1", n=1000, D=21,
                      grid_T=256, train=0.9, p_max=10, d_max=10, bosq_p=1, bosq_pve=0.8):
    if kind == "farma":
        source = {"type": "farma", "kappa": 0.1, "theta_scales": [0.1, 0.9],
                  "sigma_scheme": sigma, "D": D}
    elif kind == "fma":
        source = {"type": "fma", "theta_scale": 0.8, "sigma_scheme": sigma, "D": D}
    else:
        raise ValueError(f"kind must be 'fma' or 'farma', got {kind!r}")
    methods = [{"name": "ffpe-var", "p_max": p_max, "d_max": d_max},
               {"name": "bosq", "p": bosq_p, "pve": bosq_pve}]
    report = _study("fma-farma", source, methods, reps, seed, n, grid_T, train)
    wins = _mean_errors(report, "ffpe-var") < _mean_errors(report, "bosq")
    orders = [rec["selected"]["ffpe-var"]["p"] for rec in report.replications]
    report.aggregates["comparison"] = {"frac_ffpe_wins": float(np.mean(wins)),
                                       "mean_selected_p": float(np.mean(orders))}
    return report


def _psi1_far() -> ProcessSpec:
    """The first-order process on three components with the dense operator psi1."""
    return ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(fixed_psi("psi1"),), burn_in=200)


def _equivalence_rate_preset(reps=100, seed=None, ns=(100, 200, 400, 800), d=3, grid_T=256):
    start = time.perf_counter()
    grid = Grid(grid_T)
    spec = _psi1_far()
    ns = [int(v) for v in ns]

    def worker(idx, rng):
        n = ns[idx // reps]
        gap = equivalence_gap(simulate(spec, n, grid, rng), d).gap
        return {"n": n, "errors": {"gap": [gap]}}

    config = {"ns": ns, "d": d, "grid_T": grid_T, "seed": seed, "reps": reps}
    report = _report("benchmark:equivalence-rate", config, reps * len(ns), seed, worker, start)
    records = report.replications
    medians = {}
    for j, n in enumerate(ns):
        gaps = [rec["errors"]["gap"][0] for rec in records[j * reps : (j + 1) * reps]]
        medians[str(n)] = float(np.median(gaps))
    report.aggregates["median_gap"] = medians
    return report


def _bands_coverage_preset(reps=100, seed=None, n=400, alpha=0.8, p=1, d=3,
                           L=None, grid_T=256):
    start = time.perf_counter()
    grid = Grid(grid_T)
    spec = _psi1_far()

    def worker(idx, full):
        data = FunctionalDataset._own(grid, full.values[:n])
        lookback = _warm_up(n, d, p, L)
        # one fit serves both the rolling residuals and the forecast
        fit = _fit(data, n, {"name": "fixed-var", "p": p, "d": d})
        resid = _rolling_residuals(data, fit.eig, fit.scores, p, lookback)
        band = prediction_band(resid, alpha)
        covered = band.contains(_result(fit).curve, full.values[n])
        inside = band.contains(np.zeros(grid.T), resid.values)
        return {"errors": {"bands": [float(covered)]}, "in_sample_coverage": float(np.mean(inside))}

    config = {"n": n, "alpha": alpha, "p": p, "d": d, "L": L, "grid_T": grid_T,
              "seed": seed, "reps": reps}
    report = _report("benchmark:bands-coverage", config, reps, seed, worker, start,
                     lambda rngs: _simulated([spec] * len(rngs), n + 1, grid, rngs), CHUNK)
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
    if out_dir is None:
        with tempfile.TemporaryDirectory(prefix="pm10_analog_") as tmp:
            report = _pm10_analog_preset(reps, seed, n_days, eval_days, tmp, p_max, d_max)
        report.config.update(curves_csv=None, covariates_csv=None)  # the files are gone
        return report
    start = time.perf_counter()
    curves_path, cov_path = make_pm10_analog(out_dir, n_days=n_days, seed=seed)

    def worker(idx, rng):
        data = ingest(curves_path, transform="sqrt", weekday_adjust="weekday")
        rmat = load_numeric_csv(cov_path)
        m = data.n - int(eval_days)
        methods = [{"name": name, "p_max": p_max, "d_max": d_max}
                   for name in ("ffpe-var", "covariate")]
        return _by_method({mm["name"]: _eval_method_fixed(data, rmat, m, 1, mm) for mm in methods})

    config = {"synthetic_analog": True, "n_days": n_days, "eval_days": eval_days,
              "p_max": p_max, "d_max": d_max, "seed": seed, "reps": 1,
              "curves_csv": curves_path, "covariates_csv": cov_path}
    report = _report("benchmark:pm10-analog", config, 1, seed, worker, start)
    report.aggregates, report.frequencies = _aggregate(report.replications,
                                                       ["ffpe-var", "covariate"])
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
# the keys --set may override in each preset and their defaults, read once from its signature
_PRESET_DEFAULTS = {name: {key: param.default
                           for key, param in inspect.signature(build).parameters.items()
                           if key not in ("reps", "seed")}
                    for name, build in PRESETS.items()}


def _kind(value) -> str:
    """The kind an override must share with its preset default: number, list or str."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return "number"
    return "list" if isinstance(value, (list, tuple)) else type(value).__name__


def run_benchmark(preset: str, reps: int = None, seed: int = None, **overrides) -> RunReport:
    """Run one of the canned studies; seed is mandatory.

    reps defaults to the preset's own count.  overrides may name only the
    preset's keyword arguments other than reps and seed, each with a value
    of the same kind as its default (a number, a list or a str; any value
    where the default is None).  Bad keys, values of the wrong kind and
    reps below 1 raise ValueError before any replication runs.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    if seed is None:
        raise ValueError("seed is required for benchmark runs")
    defaults = _PRESET_DEFAULTS[preset]
    unknown = sorted(overrides.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"preset {preset!r} has no key {', '.join(map(repr, unknown))}; "
                         f"its keys are {sorted(defaults)}")
    for key, value in overrides.items():
        if defaults[key] is not None and _kind(value) != _kind(defaults[key]):
            raise ValueError(f"preset {preset!r} key {key!r} takes a {_kind(defaults[key])} "
                             f"like its default {defaults[key]!r}, got {value!r}")
    if reps is not None:
        if int(reps) < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        overrides["reps"] = int(reps)
    return PRESETS[preset](seed=int(seed), **overrides)
