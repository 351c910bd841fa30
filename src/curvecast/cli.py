"""Command-line front end: simulate, ingest, select, forecast, bands, benchmark."""

import argparse
import functools
import json
import sys

import numpy as np

from .bands import prediction_band, rolling_residuals
from .curves import Grid, load_curves_csv, load_numeric_csv, save_curves_csv
from .errors import CurvecastError
from .experiments import PRESETS, _keep_heap, run_benchmark
from .forecast import _forecast
from .ingest import _TRANSFORMS, ingest
from .selection import select_pd
from .simulate import (_NEEDS, _SCALINGS, _SCHEMES, PSI_MATRICES, ProcessSpec, _scaled_spec,
                       fixed_psi, random_operator, sigma_scheme, simulate)

# forecast --method choices in the method vocabulary of run_forecast_experiment
_FORECAST_METHODS = {"vector": "fixed-var", "bosq": "bosq", "scalar": "scalar",
                    "covariate": "covariate"}
# simulate's process flags with their defaults; the parser leaves out a flag not given
_PROCESS = {"kind": "far", "kappa": None, "theta": None, "operator": "psi1", "sigma": "s1",
            "dim": 3, "burn_in": 200}


def _build_spec(args, rng) -> ProcessSpec:
    given = [key for key in _PROCESS if key in vars(args)]
    if args.spec:
        if given:
            raise ValueError(f"--spec fixes the whole process; drop --{given[0].replace('_', '-')}")
        with open(args.spec) as fh:
            return ProcessSpec.from_json(fh.read())
    args = argparse.Namespace(**{**_PROCESS, **vars(args)})
    sigma = np.ones(args.dim) if args.sigma == "ones" else sigma_scheme(args.sigma, args.dim)
    if args.operator == "random":
        psi = random_operator(args.dim, sigma, rng)
    else:
        psi = fixed_psi(args.operator)
        if psi.shape != (args.dim, args.dim):
            raise ValueError(
                f"operator {args.operator} is {psi.shape[0]} x {psi.shape[0]}; "
                f"pass --dim {psi.shape[0]}"
            )
    kappas, thetas = _SCALINGS[args.kind]
    kappas = kappas if args.kappa is None else args.kappa
    thetas = thetas if args.theta is None else dict(enumerate(args.theta, start=1))
    nonzero = {lag: s for lag, s in thetas.items() if s != 0.0}  # a zero --theta drops its lag
    return _scaled_spec(args.kind, psi, sigma, kappas, nonzero, args.burn_in)


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    spec = _build_spec(args, rng)
    data = simulate(spec, args.n, Grid(args.grid), rng)
    save_curves_csv(data, args.out)
    if args.save_spec:
        with open(args.save_spec, "w") as fh:
            fh.write(spec.to_json())
            fh.write("\n")
    print(f"wrote {data.n} curves on {data.T} points to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    data = ingest(
        args.input,
        interpolate_missing=not args.no_interpolate,
        transform=args.transform,
        weekday_adjust=args.weekday_adjust,
        rows_per_curve=args.rows_per_curve,
    )
    save_curves_csv(data, args.out)
    print(f"ingested {data.n} curves on {data.T} points to {args.out}")
    return 0


def _cmd_select(args) -> int:
    data = load_curves_csv(args.input)
    covariate_scores = load_numeric_csv(args.covariates) if args.covariates else None
    table = select_pd(data, args.pmax, args.dmax, covariate_scores=covariate_scores)
    if args.out:
        table.to_csv(args.out)
    print(f"selected p={table.p_best} d={table.d_best} "
          f"(criterion {table.best_cell().value:.6g})")
    return 0


def _cmd_forecast(args) -> int:
    if args.covariates and args.method != "covariate":
        raise ValueError(f"--covariates is for --method covariate only, got --method {args.method}")
    if args.method == "covariate" and not args.covariates:
        raise ValueError("--method covariate needs --covariates, a numeric CSV with one row per curve")
    data = load_curves_csv(args.input)
    rmat = load_numeric_csv(args.covariates) if args.covariates else None
    method = {"name": _FORECAST_METHODS[args.method], "p": args.p, "d": args.d,
              "p_max": args.pmax, "d_max": args.dmax, "pve": args.pve}
    res = _forecast(data, method, rmat, args.horizon)
    payload = res.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
            fh.write("\n")
    else:
        print(payload)
    print(f"forecast method={res.method} p={res.p} d={res.d}", file=sys.stderr)
    return 0


def _cmd_bands(args) -> int:
    data = load_curves_csv(args.input)
    resid = rolling_residuals(data, args.d, args.p, args.lookback)
    band = prediction_band(resid, args.alpha, symmetric=not args.asymmetric)
    band.to_csv(args.out)
    lo, hi = band.xi_lower, band.xi_upper
    print(f"band at level {band.alpha} from {band.M} residual curves "
          f"(xi_lower={lo:.6g}, xi_upper={hi:.6g}) to {args.out}")
    return 0


def _parse_override(raw: str):
    key, sep, value = raw.partition("=")
    if not sep or not key:
        raise ValueError(f"override {raw!r} is not of the form key=value")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key.replace("-", "_"), parsed


def _cmd_benchmark(args) -> int:
    overrides = dict(_parse_override(item) for item in args.set or [])
    clash = sorted({"reps", "seed"} & overrides.keys())
    if clash:
        raise ValueError(f"--set {clash[0]}=... is not a preset key; pass --{clash[0]}")
    report = run_benchmark(args.preset, reps=args.reps, seed=args.seed, **overrides)
    if args.out:
        report.save(args.out)
        print(f"wrote {args.preset} report ({len(report.replications)} replications) "
              f"to {args.out}")
    else:
        print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecast", description="Forecast dense functional time series."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate curves from a stochastic recursion",
                         argument_default=argparse.SUPPRESS)  # a flag not given is left out
    sim.add_argument("--kind", choices=list(_NEEDS))
    sim.add_argument("--kappa", type=float, nargs="+", help="autoregressive scalings per lag")
    sim.add_argument("--theta", type=float, nargs="+",
                     help="moving-average scalings per lag (zeros drop the lag)")
    sim.add_argument("--operator", choices=[*PSI_MATRICES, "random"])
    sim.add_argument("--sigma", choices=[*_SCHEMES, "ones"])
    sim.add_argument("--dim", type=int, help="number of basis components")
    sim.add_argument("--burn-in", type=int)
    sim.add_argument("--n", type=int, required=True, help="curves to keep after burn-in")
    sim.add_argument("--grid", type=int, default=256, help="grid points per curve")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="destination curves CSV")
    sim.add_argument("--spec", default=None, help="process spec JSON to use instead of the flags above")
    sim.add_argument("--save-spec", default=None, help="write the spec used as JSON")
    sim.set_defaults(func=_cmd_simulate)

    ing = sub.add_parser("ingest", help="clean a raw observations CSV into curves")
    ing.add_argument("--input", required=True)
    ing.add_argument("--out", required=True)
    ing.add_argument("--no-interpolate", action="store_true",
                     help="fail on missing cells instead of interpolating")
    ing.add_argument("--transform", choices=_TRANSFORMS, default="none")
    ing.add_argument("--weekday-adjust", metavar="COLUMN",
                     help="subtract per-label mean curves keyed by this column")
    ing.add_argument("--rows-per-curve", type=int,
                     help="stack this many consecutive rows into one curve")
    ing.set_defaults(func=_cmd_ingest)

    sel = sub.add_parser("select", help="pick order and dimension by prediction error")
    sel.add_argument("--input", required=True)
    sel.add_argument("--pmax", type=int, required=True)
    sel.add_argument("--dmax", type=int, required=True)
    sel.add_argument("--covariates", help="numeric covariate CSV for the penalized variant")
    sel.add_argument("--out", help="write the criterion table CSV")
    sel.set_defaults(func=_cmd_select)

    fc = sub.add_parser("forecast", help="predict the next curve from a curves CSV")
    fc.add_argument("--input", required=True)
    fc.add_argument("--method", choices=list(_FORECAST_METHODS), default="vector")
    fc.add_argument("--p", type=int)
    fc.add_argument("--d", type=int)
    fc.add_argument("--pmax", type=int)
    fc.add_argument("--dmax", type=int)
    fc.add_argument("--horizon", type=int, default=1)
    fc.add_argument("--pve", type=float,
                    help="variance fraction fixing d, for the benchmark method only (default 0.8)")
    fc.add_argument("--covariates", help="numeric covariate CSV, one row per curve")
    fc.add_argument("--out", help="write the forecast JSON here instead of stdout")
    fc.set_defaults(func=_cmd_forecast)

    bd = sub.add_parser("bands", help="uniform prediction band from rolling residuals")
    bd.add_argument("--input", required=True)
    bd.add_argument("--p", type=int, required=True)
    bd.add_argument("--d", type=int, required=True)
    bd.add_argument("--alpha", type=float, default=0.8)
    bd.add_argument("--lookback", type=int,
                    help="training length before the first rolling residual")
    bd.add_argument("--asymmetric", action="store_true")
    bd.add_argument("--out", required=True, help="destination band CSV")
    bd.set_defaults(func=_cmd_bands)

    bm = sub.add_parser("benchmark", help="run a canned replication study")
    bm.add_argument("--preset", choices=sorted(PRESETS), required=True)
    bm.add_argument("--reps", type=int)
    bm.add_argument("--seed", type=int, required=True)
    bm.add_argument("--out", help="write the report JSON here instead of stdout")
    bm.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="preset-specific override, value parsed as JSON if possible")
    bm.set_defaults(func=_cmd_benchmark)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _keep_heap()
    try:
        return args.func(args)
    except (CurvecastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
