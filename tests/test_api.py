"""The package namespace holds the documented API, and the names the tracer rebinds resolve.

``perfbench/spans.py`` times a fixed list of functions by rebinding them in
their modules, so a function that moves or is renamed breaks the benchmark's
trace without failing any other test.
"""

import ast
import importlib
import inspect
import json
import re
import textwrap
import tokenize
from pathlib import Path

import numpy as np
import pytest

import curvecast
from curvecast.cli import build_parser
from curvecast.errors import CurvecastError

ROOT = Path(__file__).resolve().parents[1]


def own_docstring(obj):
    """The docstring written in obj's source (dataclasses invent one when it has none)."""
    node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
    return ast.get_docstring(node)


def is_error(obj):
    return isinstance(obj, type) and issubclass(obj, CurvecastError)


def documented_text():
    paths = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def traced_functions():
    """perfbench's TRACED table, read from the file without running it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            table = ast.literal_eval(node.value)
            return [(module, fn) for module, fns in table.items() for fn in fns]
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def test_namespace_is_small():
    assert len(curvecast.__all__) <= 45
    assert len(set(curvecast.__all__)) == len(curvecast.__all__)
    assert sorted(curvecast.__all__) == curvecast.__all__


@pytest.mark.parametrize("name", curvecast.__all__)
def test_public_name_has_a_docstring(name):
    assert own_docstring(getattr(curvecast, name))


@pytest.mark.parametrize("name", [n for n in curvecast.__all__
                                  if not is_error(getattr(curvecast, n))])
def test_public_name_is_documented(name):
    assert re.search(rf"\b{name}\b", documented_text()), f"{name} is in no README or demo"


@pytest.mark.parametrize("module, fn", traced_functions())
def test_traced_function_resolves(module, fn):
    assert callable(getattr(importlib.import_module(f"curvecast.{module}"), fn))


@pytest.mark.parametrize("module, attr", [
    ("experiments", "_run_replications"),
    ("experiments", "THREADS_ENV"),
    ("experiments", "make_pm10_analog"),
    ("bands", "prediction_band"),
    ("multivar", "innovations"),
])
def test_benchmark_and_acceptance_attributes_resolve(module, attr):
    assert hasattr(importlib.import_module(f"curvecast.{module}"), attr)


def imported_modules(path):
    """The modules a source file imports by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names} | {node.module for node in ast.walk(tree)
                                        if isinstance(node, ast.ImportFrom) and node.level == 0}


def test_only_curves_knows_the_csv_format():
    # every other module reads and writes its CSVs through curves
    users = [path.name for path in sorted((ROOT / "src" / "curvecast").glob("*.py"))
             if "csv" in imported_modules(path)]
    assert users == ["curves.py"]


def string_templates(tree):
    """Every string literal of a module, each f-string field written as {}."""
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            yield "".join(part.value if isinstance(part, ast.Constant) else "{}"
                          for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_errors_formats_key_checks():
    # one key checker: no other module words a key rule or defines a key-check helper
    for path in sorted((ROOT / "src" / "curvecast").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        worded = [text for text in string_templates(tree)
                  if re.search(r"key \{\} must|one finite|needs key", text)]
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        helpers = defined & {"_checked", "_check_keys", "_number", "_float_list", "_check_override",
                             "_kind"}
        if path.name == "errors.py":
            assert worded and helpers == {"_checked"}
        else:
            assert (worded, helpers) == ([], set()), path.name


def test_each_shared_key_has_one_rule_object():
    # a table that lists a key another module already checks imports that module's rule
    module = {name: importlib.import_module(f"curvecast.{name}") for name in
              ("bands", "curves", "experiments", "forecast", "fpca", "multivar", "selection",
               "simulate")}
    experiments, forecast, simulate = module["experiments"], module["forecast"], module["simulate"]
    shared = [
        (experiments._SIMULATED["D"], simulate._SPEC["D"], module["curves"]._BASIS_D),
        (experiments._SIMULATED["burn_in"], simulate._SPEC["burn_in"]),
        (experiments._BY_NAME["alpha"], module["bands"]._ALPHA),
        (forecast._RULES["pve"], module["fpca"]._PVE),
        (forecast._RULES["p_max"], module["selection"]._CORNERS["p_max"], module["multivar"]._ORDER,
         forecast._RULES["p"]),
        (forecast._RULES["d_max"], module["selection"]._CORNERS["d_max"]),
        (experiments._CONFIG["horizon"], module["multivar"]._HORIZON),
        (experiments._CONFIG["grid_T"], experiments._BY_NAME["grid_T"], module["curves"]._GRID_T),
        (experiments._CONFIG["n"], experiments._BY_NAME["n"], simulate._N),
        (experiments._BY_NAME["n_days"], experiments._ANALOG["n_days"]),
        (experiments._ANALOG["seed"], experiments._CONFIG["seed"]),
        (experiments._SIMULATED["sigma_scheme"], simulate._SCHEME),
    ]
    # every preset key takes the rule of the key it feeds
    fed = {"seed": experiments._CONFIG["seed"], "reps": experiments._CONFIG["reps"],
           "train": experiments._CONFIG["train"], "n": simulate._N, "grid_T": module["curves"]._GRID_T,
           "p_max": module["selection"]._CORNERS["p_max"],
           "d_max": module["selection"]._CORNERS["d_max"], "p": module["multivar"]._ORDER,
           "scalar_p": module["multivar"]._ORDER, "d": forecast._RULES["d"],
           "scalar_d": forecast._RULES["d"], "D": simulate._SPEC["D"], "bosq_p": forecast._BOSQ_P,
           "bosq_pve": module["fpca"]._PVE, "kappa": experiments._SOURCES["kappa-far"][0]["kappa"],
           "sigma": simulate._SCHEME, "alpha": module["bands"]._ALPHA,
           "n_days": experiments._ANALOG["n_days"], "L": int, "eval_days": int, "out_dir": str}
    own = {"kind", "ns"}  # the fma-farma preset's kind and the equivalence-rate sample sizes
    assert set(experiments._BY_NAME) == fed.keys() | own
    shared += [(experiments._BY_NAME[key], rule) for key, rule in fed.items()]
    for rules in shared:
        assert all(rule is rules[0] for rule in rules), rules


# the hand-written guards that restated a rule, as the messages they raised
RESTATED = [r"horizon must be >= 1", r"order p must be", r"^D must be >= 1", r"basis size must be",
            r"need p_max >= 0", r"outside valid range", r"threshold must be in",
            r"alpha must be in", r"^n must be >= 1", r"grid needs an integer", r"^d must be in 1\.\.",
            r"cannot truncate to", r"^m must be >= ", r"need autocovariances up to lag",
            r"unknown sigma scheme", r"unknown operator", r"transform must be", r"kind must be 'fma'",
            r"unknown method", r"unknown source type", r"unknown preset", r"^p must be >= 1",
            # the array guards the one array rule replaced (see errors._array)
            r"expected an \(n, d\) score array", r"scores must be an \(n, d\) array",
            r"spectral norm needs finite entries", r"curve values must be finite",
            r"values must be a nonempty", r"gammas must be \(m \+ 1", r"mean must have length",
            r"cross must be \(m \+ 1", r"gamma_rr must be \(", r"expected two length-",
            r"coefficient rows have length", r"band has T=", r"sigma must be \{\} positive",
            r"need at least one autoregressive", r"operators must share shape",
            r"eigenvalues must be nonnegative", r"need at least \{\} eigenvalues",
            r"not a \{\} x \{\} matrix of finite", r"samples but the grid has",
            r"trace_sigma_z must be finite", r"tail must be finite", r"need n >= 2, p >= 0",
            r"has lag \{\}, not an integer"]


def test_no_module_restates_a_rule():
    for path in SOURCES:
        restated = [text for text in string_templates(source_tree(path.name))
                    if any(re.search(pattern, text) for pattern in RESTATED)]
        assert restated == [], path.name


def readme_tables():
    """README's markdown tables, keyed by their first header cell, as rows of cells."""
    tables, rows = {}, None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = [cell.replace("`", "").strip() for cell in line.strip("|").split("|")]
        if rows is None:
            rows = tables[cells[0]] = []
        elif set(cells[0]) - set("-: "):
            rows.append(cells)
    return tables


@pytest.mark.parametrize("header, module, table", [
    ("config key", "experiments", "_CONFIG"),
    ("method key", "forecast", "_RULES"),
    ("spec key", "simulate", "_SPEC"),
])
def test_readme_key_tables_list_the_code_tables(header, module, table):
    rules = getattr(importlib.import_module(f"curvecast.{module}"), table)
    assert [row[0] for row in readme_tables()[header]] == list(rules)


def test_readme_source_table_lists_each_source_types_keys():
    sources = importlib.import_module("curvecast.experiments")._SOURCES
    rows = readme_tables()["source type"]
    listed = {kind: sorted(key for types, key, *_ in rows
                           if types == "any" or kind in types.split(", ")) for kind in sources}
    assert listed == {kind: sorted(rules) for kind, (rules, _) in sources.items()}


def test_studies_simulate_only_through_the_source_factory():
    # one way in for every study's simulated curves: no spec or recursion built elsewhere
    tree = ast.parse((ROOT / "src" / "curvecast" / "experiments.py").read_text(encoding="utf-8"))
    outside = {node.id for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and fn.name != "_source_factory" for node in ast.walk(fn)
               if isinstance(node, ast.Name)} & {"ProcessSpec", "simulate", "_coefficients"}
    assert outside == set()
    experiments = importlib.import_module("curvecast.experiments")
    assert not hasattr(experiments, "simulate") and not hasattr(experiments, "_psi1_far")


def test_simulated_specs_come_from_one_builder():
    # simulate._scaled_spec scales psi into the specs of `curvecast simulate` and the study
    # sources; ProcessSpec.from_json stays free to use anywhere
    callers = {path.name for path in SOURCES for node in ast.walk(source_tree(path.name))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ProcessSpec"}
    assert callers == {"simulate.py"}
    assert {"cli._build_spec", "experiments._source_factory"} <= functions_using_names()["_scaled_spec"]
    assert not hasattr(importlib.import_module("curvecast.cli"), "CANONICAL_THETAS")


def imported_names(tree):
    """The names a module's import statements bind."""
    return {(alias.asname or alias.name).partition(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_bands_fit_through_the_forecast_fit():
    # the band pipeline takes its eigensystem and scores from forecast._fit
    tree = ast.parse((ROOT / "src" / "curvecast" / "bands.py").read_text(encoding="utf-8"))
    assert not imported_names(tree) & {"eigensystem", "scores", "EigenSystem"}
    assert "_fit" in imported_names(tree)


def source_tree(name):
    return ast.parse((ROOT / "src" / "curvecast" / name).read_text(encoding="utf-8"))


def defined_names(tree):
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_sweep_falls_back_to_the_var_fit():
    # cells the nested factor does not serve go through the core of fit_var_ols / fit_varx_ols,
    # which takes the covariate block the sweep built instead of checking the covariates again
    tree = source_tree("selection.py")
    assert "_guarded_solve" not in imported_names(tree)
    assert "_cell_trace" not in defined_names(tree)
    assert "_fit_ols" in imported_names(tree)
    assert not imported_names(tree) & {"fit_var_ols", "fit_varx_ols"}


def test_forecast_fits_through_the_least_squares_core():
    # every least-squares score model of forecast._fit comes from _fit_ols on the one covariate
    # block _fit builds, as the sweep's do, not through the public wrappers that check again
    tree = source_tree("forecast.py")
    assert "_fit_ols" in imported_names(tree)
    assert not imported_names(tree) & {"fit_var_ols", "fit_varx_ols"}


def test_only_fpca_multiplies_by_the_eigenfunctions():
    # scores projects curves on them and reconstruct expands scores in them; every forecast
    # curve, the rolling residuals' included, is rebuilt by reconstruct
    products = {f"{path.stem}.{fn.name}" for path in SOURCES for fn in ast.walk(source_tree(path.name))
                if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                and "eigenfunctions" in ast.unparse(node)}
    assert products == {"fpca.scores", "fpca.reconstruct"}
    assert {"forecast._predict", "bands._rolling_residuals"} <= functions_using_names()["reconstruct"]


def functions_using_names():
    """Each name or attribute read in a source function -> the functions, as module.function."""
    where = {}
    for path in SOURCES:
        for fn in ast.walk(source_tree(path.name)):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                    where.setdefault(name, set()).add(f"{path.stem}.{fn.name}")
    return where


def test_one_eigensolver():
    # every basis and every PVE choice comes from fpca.eigensystem's one eigh call
    where = functions_using_names()
    assert where["eigh"] == {"fpca.eigensystem"}
    assert "eigvalsh" not in "".join(path.read_text(encoding="utf-8") for path in SOURCES)
    assert "fpca.pve_dimension" in where["eigensystem"]


def test_one_basis_per_training_sample():
    # a fit truncates the eigensystem of forecast._basis, whose width rule serves every method of
    # a replication; beside it only select_pd, the stacked bosq blocks of forecast._fit, each
    # functional covariate and pve_dimension solve, and the sweep core reads what it is handed
    where = functions_using_names()
    assert where["eigensystem"] == {"forecast._basis", "forecast._fit", "selection.select_pd",
                                    "forecast.covariate_matrix", "fpca.pve_dimension"}
    assert {"experiments.run_forecast_experiment", "experiments._pm10_analog_preset"} <= where["_basis"]
    assert where["_sweep"] == {"forecast._fit", "selection.select_pd"}
    sweep_reads = {name for name, users in where.items() if "selection._sweep" in users}
    assert not sweep_reads & {"eigensystem", "eigh", "_check_covariates", "_covariate_block"}


def test_one_coefficient_recursion():
    # every simulated curve's normals are drawn in simulate._coefficients; random_operator
    # draws the operators
    where = functions_using_names()
    assert where["normal"] == {"simulate._coefficients", "simulate.random_operator"}
    assert "_coupled_far1_coeffs" not in defined_names(source_tree("experiments.py"))


def test_one_helper_keeps_the_heap():
    # only experiments._keep_heap reaches the C library, and a run starts it in two places
    where = functions_using_names()
    assert where["ctypes"] == where["mallopt"] == {"experiments._keep_heap"}
    assert where["_keep_heap"] == {"experiments._report", "cli.main"}
    users = [path.name for path in SOURCES
             if re.search("ctypes|mallopt", path.read_text(encoding="utf-8"))]
    assert users == ["experiments.py"]


def test_only_curves_parses_cells():
    # load_curves_csv, load_numeric_csv and ingest share curves._read_table
    for path in (ROOT / "src" / "curvecast").glob("*.py"):
        if path.name != "curves.py":
            assert not imported_names(source_tree(path.name)) & {"_parse_rows", "_bulk_parse"}
    assert "_read_raw" not in defined_names(source_tree("ingest.py"))
    assert "_read_table" in imported_names(source_tree("ingest.py"))


def test_only_curves_places_bad_cells():
    # curves._read_table rejects and places every bad cell; ingest only cleans
    ingest = source_tree("ingest.py")
    assert "_reject_infinite" not in defined_names(ingest)
    curves_imports = {alias.name for node in ast.walk(ingest) if isinstance(node, ast.ImportFrom)
                      and node.module == "curves" for alias in node.names}
    assert curves_imports == {"FunctionalDataset", "Grid", "_read_table"}
    assert "_read_numeric_matrix" not in defined_names(source_tree("curves.py"))


SOURCES = sorted((ROOT / "src" / "curvecast").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_imports_are_used(path):
    """Every imported name is read; the package namespace counts the names in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(curvecast.__all__)
    assert sorted(imported_names(tree) - used) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_lines_are_not_packed(path):
    """Line counts stay comparable: no line over 106 characters, no ';' joining statements."""
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [number for number, line in enumerate(lines, start=1) if len(line) > 106]
    assert not long, f"{path.name} lines {long} are longer than 106 characters"
    with path.open("rb") as fh:
        joins = [tok.start[0] for tok in tokenize.tokenize(fh.readline)
                 if tok.type == tokenize.OP and tok.string == ";"]
    assert not joins, f"{path.name} lines {joins} join statements with ';'"


def closed_sets():
    """Each closed set of names: (call with a name, its owner and key, the names it takes)."""
    experiments, forecast, ingest, simulate = (importlib.import_module(f"curvecast.{name}") for name
                                               in ("experiments", "forecast", "ingest", "simulate"))
    spec = {"kind": "far", "D": 3, "sigma": [1.0] * 3, "ar": [[[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]]}
    config = {"source": {"type": "kappa-far", "kappa": [0.5], "D": 3}, "n": 40, "grid_T": 32,
              "seed": 0, "methods": [{"name": "fixed-var", "p": 1, "d": 2}]}
    data = curvecast.simulate(curvecast.ProcessSpec.from_json(json.dumps(spec)), 30,
                              curvecast.Grid(32), np.random.default_rng(0))
    return {
        "sigma_scheme": (lambda v: curvecast.sigma_scheme(v, 3), "sigma_scheme key 'name'",
                         simulate._SCHEMES),
        "fixed_psi": (curvecast.fixed_psi, "fixed_psi key 'name'", simulate.PSI_MATRICES),
        "transform": (lambda v: curvecast.ingest("absent.csv", transform=v),
                      "ingest key 'transform'", ingest._TRANSFORMS),
        "kind": (lambda v: curvecast.ProcessSpec.from_json(json.dumps({**spec, "kind": v})),
                 "process spec key 'kind'", simulate._NEEDS),
        "method": (lambda v: curvecast.run_forecast_experiment({**config, "methods": [{"name": v}]}),
                   "method 'bogus' key 'name'", forecast._METHODS),
        "solver": (lambda v: curvecast.predict_with_covariates(data, np.ones((30, 1)), p=1, d=2,
                                                               solver=v),
                   "method 'predict_with_covariates' key 'solver'", ("ols", "blp")),
        "fit_mode": (lambda v: curvecast.run_forecast_experiment({**config, "fit_mode": v}),
                     "config key 'fit_mode'", ("fixed",)),
        "source": (lambda v: curvecast.run_forecast_experiment({**config, "source": {"type": v}}),
                   "source key 'type'", experiments._SOURCES),
        "preset": (lambda v: curvecast.run_benchmark(v, seed=1), "run_benchmark key 'preset'",
                   experiments.PRESETS),
        "fma-farma kind": (lambda v: curvecast.run_benchmark("fma-farma", seed=1, kind=v),
                           "preset 'fma-farma' key 'kind'", experiments._FMA_FARMA),
    }


@pytest.mark.parametrize("name", ["sigma_scheme", "fixed_psi", "transform", "kind", "method",
                                  "solver", "fit_mode", "source", "preset", "fma-farma kind"])
def test_each_closed_set_words_a_bad_name_one_way(name):
    call, key, choices = closed_sets()[name]
    with pytest.raises(ValueError) as err:
        call("bogus")
    assert str(err.value) == f"{key} must be one of {', '.join(map(repr, choices))}, got 'bogus'"


@pytest.mark.parametrize("command, option, names, extra", [
    ("simulate", "--kind", "_NEEDS", []),
    ("simulate", "--operator", "PSI_MATRICES", ["random"]),
    ("simulate", "--sigma", "_SCHEMES", ["ones"]),
    ("ingest", "--transform", "_TRANSFORMS", []),
])
def test_cli_choices_are_the_code_sets(command, option, names, extra):
    # the sets test_each_closed_set_words_a_bad_name_one_way reads, in the command's module
    names = getattr(importlib.import_module(f"curvecast.{command}"), names)
    sub = next(action for action in build_parser()._actions if action.choices)
    choices = next(action.choices for action in sub.choices[command]._actions
                   if option in action.option_strings)
    assert list(choices) == [*names, *extra]
