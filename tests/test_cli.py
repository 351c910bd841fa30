import argparse
import importlib
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import curvecast
from curvecast import fixed_psi, load_curves_csv, run_forecast_experiment
from curvecast.cli import build_parser, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_script():
    """The ``curvecast`` entry of ``[project.scripts]``, e.g. ``"curvecast.cli:main"``."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["curvecast"]


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _assert_help_runs(exe, env=None):
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout


@pytest.fixture
def curves_csv(tmp_path):
    path = tmp_path / "curves.csv"
    code = main([
        "simulate", "--kind", "far", "--operator", "psi1", "--n", "60",
        "--grid", "32", "--seed", "7", "--out", str(path),
    ])
    assert code == 0
    return path


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--n", "12", "--grid", "32", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "12 curves on 32 points" in out
    data = load_curves_csv(a)
    assert data.n == 12 and data.grid.T == 32


def test_simulate_spec_round_trip(tmp_path):
    spec_path = tmp_path / "spec.json"
    first = tmp_path / "first.csv"
    again = tmp_path / "again.csv"
    assert main([
        "simulate", "--kind", "farma", "--kappa", "0.2", "--theta", "0.1", "0.6",
        "--n", "10", "--grid", "32", "--seed", "5",
        "--out", str(first), "--save-spec", str(spec_path),
    ]) == 0
    assert main([
        "simulate", "--spec", str(spec_path), "--n", "10", "--grid", "32",
        "--seed", "5", "--out", str(again),
    ]) == 0
    assert first.read_bytes() == again.read_bytes()
    payload = json.loads(spec_path.read_text())
    assert payload["kind"] == "farma"


def test_fma_and_farma_defaults_are_the_same_for_sources_and_simulate(tmp_path, capsys):
    # fma: theta_2 = 0.8; farma: kappa_1 = 0.1, theta = (0.1, 0.9)
    def records(source):
        config = {"source": {**source, "D": 3}, "n": 40, "grid_T": 32, "seed": 2, "reps": 2,
                  "methods": [{"name": "fixed-var", "p": 1, "d": 2}]}
        return run_forecast_experiment(config).replications

    assert records({"type": "fma"}) == records({"type": "fma", "theta_scale": 0.8})
    assert records({"type": "farma"}) == records({"type": "farma", "kappa": 0.1,
                                                  "theta_scales": [0.1, 0.9]})
    psi = fixed_psi("psi1")
    for kind, kappas, thetas in [("fma", [], {"2": 0.8}), ("farma", [0.1], {"1": 0.1, "2": 0.9})]:
        path = tmp_path / f"{kind}.json"
        assert main(["simulate", "--kind", kind, "--n", "5", "--grid", "32", "--seed", "1",
                     "--out", str(tmp_path / "x.csv"), "--save-spec", str(path)]) == 0
        spec = json.loads(path.read_text())
        assert spec["ar"] == [(k * psi).tolist() for k in kappas]
        assert spec["ma"] == {lag: (s * psi).tolist() for lag, s in thetas.items()}


def test_simulate_operator_dimension_mismatch(tmp_path, capsys):
    code = main([
        "simulate", "--operator", "psi1", "--dim", "4", "--n", "10", "--grid", "40",
        "--seed", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "--dim 3" in capsys.readouterr().err


def test_ingest_cleans_raw_csv(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("1.0,,9.0,16.0\n4.0,4.0,4.0,4.0\n")
    out = tmp_path / "clean.csv"
    assert main([
        "ingest", "--input", str(raw), "--out", str(out), "--transform", "sqrt",
    ]) == 0
    assert "ingested 2 curves" in capsys.readouterr().out
    data = load_curves_csv(out)
    assert np.allclose(data.values[0], [1.0, np.sqrt(5.0), 3.0, 4.0])
    assert main([
        "ingest", "--input", str(raw), "--out", str(out), "--no-interpolate",
    ]) == 1


def test_select_prints_choice_and_writes_table(curves_csv, tmp_path, capsys):
    table = tmp_path / "table.csv"
    assert main([
        "select", "--input", str(curves_csv), "--pmax", "2", "--dmax", "3",
        "--out", str(table),
    ]) == 0
    out = capsys.readouterr().out
    assert "selected p=" in out and "criterion" in out
    header = table.read_text().splitlines()[0]
    assert header == "p,d,trace,tail,ffpe,status,message"


def test_forecast_vector_auto_stdout(curves_csv, capsys):
    assert main([
        "forecast", "--input", str(curves_csv), "--pmax", "2", "--dmax", "3",
    ]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert sorted(payload) == ["curve", "d", "method", "p", "scores"]
    assert len(payload["curve"]) == 32
    assert "forecast method=var" in err


def test_forecast_fixed_writes_file(curves_csv, tmp_path, capsys):
    out_path = tmp_path / "forecast.json"
    assert main([
        "forecast", "--input", str(curves_csv), "--p", "1", "--d", "2",
        "--out", str(out_path),
    ]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert "p=1 d=2" in err
    assert json.loads(out_path.read_text())["method"] == "var"


def test_forecast_mode_guards(curves_csv, capsys):
    base = ["forecast", "--input", str(curves_csv)]
    assert main(base) == 1  # neither fixed nor auto
    assert main(base + ["--p", "1", "--d", "2", "--pmax", "2", "--dmax", "2"]) == 1
    assert main(base + ["--method", "scalar"]) == 1
    assert main(base + ["--method", "covariate", "--p", "1", "--d", "2"]) == 1
    assert main(base + ["--method", "bosq", "--horizon", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 5


def test_forecast_bosq_and_scalar(curves_csv, capsys):
    assert main([
        "forecast", "--input", str(curves_csv), "--method", "bosq", "--pve", "0.9",
    ]) == 0
    assert main([
        "forecast", "--input", str(curves_csv), "--method", "scalar",
        "--p", "1", "--d", "2",
    ]) == 0
    out = capsys.readouterr().out
    methods = [json.loads(line)["method"] for line in out.splitlines() if line]
    assert methods == ["bosq", "scalar"]


def test_forecast_pve_is_for_the_benchmark_only(curves_csv, capsys):
    base = ["forecast", "--input", str(curves_csv), "--pve", "0.9"]
    assert main(base + ["--p", "1", "--d", "2"]) == 1
    assert "method 'fixed-var' has no key 'pve'" in capsys.readouterr().err
    assert main(base + ["--method", "bosq"]) == 0


def test_forecast_with_covariates(curves_csv, tmp_path, capsys):
    rng = np.random.default_rng(0)
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, rng.normal(size=(60, 2)), delimiter=",")
    assert main([
        "forecast", "--input", str(curves_csv), "--method", "covariate",
        "--covariates", str(cov), "--p", "1", "--d", "2",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "covariate"


@pytest.mark.parametrize("method", ["vector", "bosq", "scalar"])
def test_forecast_covariates_are_for_the_covariate_method_only(curves_csv, tmp_path, capsys,
                                                               method):
    # the covariate file used to be read, ignored, and the command exit 0
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, np.zeros((60, 2)), delimiter=",")
    assert main(["forecast", "--input", str(curves_csv), "--method", method, "--p", "1",
                 "--d", "2", "--covariates", str(cov)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --covariates is for --method covariate only, got --method {method}\n")


def test_forecast_covariate_method_needs_covariates(curves_csv, capsys):
    # it used to say "source provides no covariates", which names no option
    assert main(["forecast", "--input", str(curves_csv), "--method", "covariate", "--p", "1",
                 "--d", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --method covariate needs --covariates, a numeric CSV with one "
                            "row per curve\n")


@pytest.mark.parametrize("raw", [b"t_1,t_2\n1.0,2.0\n3.0,4\xe9\n", "t_1,t_2\n1.0,2.0\n".encode("utf-16")],
                         ids=["latin-1", "utf-16"])
def test_select_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, raw):
    path = tmp_path / "curves.csv"
    path.write_bytes(raw)
    assert main(["select", "--input", str(path), "--pmax", "1", "--dmax", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: line ") and "which is not UTF-8" in captured.err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("argv", [
    ["select", "--pmax", "2", "--dmax", "3", "--out", "table.csv"],
    ["forecast", "--p", "1", "--d", "2", "--out", "forecast.json"],
    ["bands", "--p", "1", "--d", "2", "--out", "band.csv"],
], ids=["select", "forecast", "bands"])
def test_piped_input_reads_as_the_file(curves_csv, tmp_path, argv):
    # a pipe can be read only once; a second open of /dev/stdin used to find rows gone
    package_root = Path(curvecast.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
    out = tmp_path / argv[-1]
    runs = []
    for source, stdin in ((str(curves_csv), b""), ("/dev/stdin", curves_csv.read_bytes())):
        proc = subprocess.run([sys.executable, "-m", "curvecast.cli", argv[0], "--input", source,
                               *argv[1:]], input=stdin, capture_output=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=pythonpath))
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, proc.stderr, out.read_bytes()))
        out.unlink()
    assert runs[0] == runs[1]


def test_bands_command(curves_csv, tmp_path, capsys):
    out = tmp_path / "band.csv"
    assert main([
        "bands", "--input", str(curves_csv), "--p", "1", "--d", "2",
        "--alpha", "0.8", "--out", str(out),
    ]) == 0
    assert "xi_lower" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "t,gamma,lower_offset,upper_offset"
    assert len(lines) == 1 + 32


def test_bands_rejects_negative_order(curves_csv, tmp_path, capsys):
    out = tmp_path / "band.csv"
    assert main([
        "bands", "--input", str(curves_csv), "--p", "-1", "--d", "2", "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "key 'p' must be >= 0, got -1" in err
    assert not out.exists()


def test_benchmark_stdout_and_overrides(capsys):
    assert main([
        "benchmark", "--preset", "order-selection", "--reps", "1", "--seed", "2",
        "--set", "n=60", "--set", "D=5", "--set", "grid_T=48",
        "--set", "p_max=2", "--set", "d_max=3",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "benchmark:order-selection"
    assert report["config"]["D"] == 5


def test_benchmark_takes_a_whole_float_for_an_integer_key(tmp_path, capsys):
    # this used to start the replication and end in a TypeError traceback
    out = tmp_path / "report.json"
    assert main(["benchmark", "--preset", "bands-coverage", "--seed", "1", "--reps", "1",
                 "--set", "n=400.0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["n"] == 400
    assert "Traceback" not in capsys.readouterr().err


def test_benchmark_out_file_and_bad_override(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([
        "benchmark", "--preset", "order-selection", "--reps", "1", "--seed", "2",
        "--set", "n=60", "--set", "D=5", "--set", "grid_T=48",
        "--set", "p_max=2", "--set", "d_max=3", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 2
    assert main([
        "benchmark", "--preset", "order-selection", "--seed", "2", "--set", "n60",
    ]) == 1
    assert "key=value" in capsys.readouterr().err


# a case whose message changed keeps its id, which reads the message it had before
@pytest.mark.parametrize(
    "preset, extra, message",
    [
        ("psi1-ratio", ["--set", "foo=1"], "has no key 'foo'"),
        ("psi1-ratio", ["--set", "reps=2"], "pass --reps"),
        ("order-selection", ["--set", "seed=3"], "pass --seed"),
        pytest.param("bands-coverage", ["--reps", "0"], "key 'reps' must be >= 1, got 0",
                     id="bands-coverage-extra3-reps must be >= 1, got 0"),
        pytest.param("equivalence-rate", ["--reps", "0"], "key 'reps' must be >= 1, got 0",
                     id="equivalence-rate-extra4-reps must be >= 1, got 0"),
        pytest.param("order-selection", ["--reps", "0"], "key 'reps' must be >= 1, got 0",
                     id="order-selection-extra5-reps must be >= 1, got 0"),
        pytest.param("order-selection", ["--set", "kappa=0.5"],
                     "key 'kappa' must list one or more numbers, got 0.5",
                     id="order-selection-extra6-key 'kappa' takes a list"),
        pytest.param("bands-coverage", ["--set", "alpha=high"],
                     "key 'alpha' must be one finite float, got 'high'",
                     id="bands-coverage-extra7-key 'alpha' takes a number"),
        pytest.param("bands-coverage", ["--set", "n=100.5"],
                     "key 'n' must be one finite int, got 100.5",
                     id="bands-coverage-extra8-key 'n' takes integers like its default"),
        pytest.param("bands-coverage", ["--set", "L=abc"], "key 'L' must be one finite int, got 'abc'",
                     id="bands-coverage-extra9-key 'L' takes an integer or null, got 'abc'"),
        pytest.param("bands-coverage", ["--set", "L=100.5"],
                     "key 'L' must be one finite int, got 100.5",
                     id="bands-coverage-extra10-key 'L' takes an integer or null, got 100.5"),
        pytest.param("pm10-analog", ["--set", "out_dir=5"], "key 'out_dir' must be a str, got 5",
                     id="pm10-analog-extra11-key 'out_dir' takes a str or null, got 5"),
        # not a preset: ingest of a file with an infinite cell
        (None, ["ingest", "--input", "inf.csv", "--out", "out.csv"], "row 2, column 2 is infinite"),
        pytest.param("bands-coverage", ["--set", "d=0"],
                     "preset 'bands-coverage' key 'd' must be >= 1, got 0",
                     id="bands-coverage-extra13-dimension d must be >= 1, got 0"),
        # a negative seed used to fail inside the run with numpy's "expected non-negative integer"
        ("order-selection", ["--seed", "-1"], "preset 'order-selection' key 'seed' must be >= 0, got -1"),
        (None, ["simulate", "--n", "5", "--seed", "-1", "--out", "c.csv"], "--seed must be >= 0, got -1"),
    ],
)
def test_benchmark_bad_overrides_exit_one(tmp_path, monkeypatch, capsys, preset, extra, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf.csv").write_text("1,2,3\n4,inf,6\n")
    head = ["benchmark", "--preset", preset, "--seed", "1", "--reps", "1"] if preset else []
    assert main([*head, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_select_without_a_fittable_cell_exits_one(tmp_path, capsys):
    rng = np.random.default_rng(0)
    curves, covariates = tmp_path / "c.csv", tmp_path / "r.csv"
    np.savetxt(curves, rng.normal(size=(3, 8)), delimiter=",")
    np.savetxt(covariates, rng.normal(size=(3, 2)), delimiter=",")
    code = main(["select", "--input", str(curves), "--covariates", str(covariates),
                 "--pmax", "1", "--dmax", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: no (p, d) cell could be fitted")
    assert "Traceback" not in captured.err and captured.out == ""


def test_simulate_random_operator_has_unit_norm(tmp_path, capsys):
    out, spec_path = tmp_path / "x.csv", tmp_path / "s.json"
    assert main(["simulate", "--operator", "random", "--dim", "4", "--n", "25", "--grid", "32",
                 "--seed", "3", "--out", str(out), "--save-spec", str(spec_path)]) == 0
    assert load_curves_csv(out).n == 25
    spec = curvecast.ProcessSpec.from_json(spec_path.read_text())
    assert spec.D == 4 and len(spec.ar) == 1 and spec.ma == {}
    assert np.linalg.norm(spec.ar[0], 2) == pytest.approx(1.0, rel=1e-12)  # the default kappa is 1


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["forecast"]) == 2  # missing --input
    assert main(["benchmark", "--preset", "nope", "--seed", "1"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def cli_options():
    """Every option of every subcommand of the parser, --help aside."""
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted({option for command in commands.choices.values() for action in command._actions
                   for option in action.option_strings} - {"-h", "--help"})


@pytest.mark.parametrize("option", cli_options())
def test_readme_names_every_cli_option(option):
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    assert re.search(rf"{re.escape(option)}(?![\w-])", readme), f"README never names {option}"


def test_console_script_installed(tmp_path):
    # The suite runs from the checkout without an install, so write the
    # launcher an installer writes for the declared entry point (PyPA
    # entry-points specification) and run it against the code under test.
    module, _, attr = _declared_script().partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "curvecast"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    exe = shutil.which("curvecast", path=str(bin_dir))
    assert exe is not None
    package_root = Path(curvecast.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
    _assert_help_runs(exe, dict(os.environ, PYTHONPATH=pythonpath))


@pytest.mark.skipif(
    not _distribution_installed("curvecast"),
    reason="needs the curvecast distribution installed (importlib.metadata finds no 'curvecast')",
)
def test_console_script_from_installed_distribution():
    entry_points = importlib.metadata.distribution("curvecast").entry_points
    installed = entry_points.select(group="console_scripts", name="curvecast")
    assert [ep.value for ep in installed] == [_declared_script()]
    exe = shutil.which("curvecast")
    assert exe is not None
    _assert_help_runs(exe)


def test_select_reports_bad_cells_and_huge_scales(tmp_path, capsys):
    text = tmp_path / "text.csv"
    text.write_text("t_1,t_2\n1.0,2.0\n3.0,abc\n")
    assert main(["select", "--input", str(text), "--pmax", "1", "--dmax", "1"]) == 1
    assert "row 2, column 2 is non-numeric" in capsys.readouterr().err
    huge = tmp_path / "huge.csv"
    rows = np.random.default_rng(1).normal(size=(30, 16)) * 1e200
    np.savetxt(huge, rows, delimiter=",")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["select", "--input", str(huge), "--pmax", "1", "--dmax", "2"]) == 1
    assert "error: the covariance kernel overflows; rescale the curves" in capsys.readouterr().err


def test_csv_input_errors_exit_one(tmp_path, capsys):
    typo = tmp_path / "typo.csv"
    typo.write_text("1.0,abc\n2.0,3.0\n4.0,5.0\n")
    assert main(["select", "--input", str(typo), "--pmax", "1", "--dmax", "1"]) == 1
    assert "row 1, column 2 is non-numeric" in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text("a,day\n1.0,mon\n2.0\n")
    out = tmp_path / "out.csv"
    argv = ["ingest", "--input", str(short), "--out", str(out), "--weekday-adjust", "day"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "row 2 ends before the 'day' column" in err
    assert not out.exists()


def test_ingest_reads_past_a_byte_order_mark(tmp_path, capsys):
    text = "weekday,t_1,t_2\nMon,1.0,4.0\nTue,2.0,2.0\nMon,5.0,3.0\n"
    outputs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        raw = tmp_path / f"{name}.csv"
        raw.write_bytes((prefix + text).encode("utf-8"))
        out = tmp_path / f"{name}_curves.csv"
        argv = ["ingest", "--input", str(raw), "--out", str(out), "--weekday-adjust", "weekday"]
        with pytest.warns(UserWarning, match="holds only curve"):  # 'Tue' labels one curve
            assert main(argv) == 0, capsys.readouterr().err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_ingest_warns_on_a_label_of_one_curve(tmp_path):
    # the label's mean is that one curve, so weekday adjustment leaves it all zeros
    raw = tmp_path / "raw.csv"
    raw.write_text("weekday,t_1,t_2\nMon,1.0,4.0\nTue,2.0,2.0\nMon,5.0,3.0\n")
    out = tmp_path / "curves.csv"
    argv = ["ingest", "--input", str(raw), "--out", str(out), "--weekday-adjust", "weekday"]
    with pytest.warns(UserWarning, match="label 'Tue' holds only curve 2"):
        assert main(argv) == 0
    assert load_curves_csv(out).values[1].tolist() == [0.0, 0.0]
    package_root = Path(curvecast.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "curvecast.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0 and "ingested 3 curves" in proc.stdout
    assert f"UserWarning: {raw}: label 'Tue' holds only curve 2" in proc.stderr


@pytest.mark.parametrize("key", ["kind", "D", "sigma"])
def test_simulate_spec_missing_a_key_fails_loud(tmp_path, capsys, key):
    spec = {"kind": "far", "D": 1, "sigma": [1.0], "ar": [[[0.5]]]}
    del spec[key]
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["simulate", "--spec", str(spec_path), "--n", "10", "--grid", "32",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: process spec key {key!r} must " in err and err.rstrip().endswith("got None")


@pytest.mark.parametrize("key, value", [("ma", [[[0.3]]]), ("ar", 5), ("ar", [[0.5]])])
def test_simulate_spec_with_misshapen_operators_fails_loud(tmp_path, capsys, key, value):
    spec = {"kind": "farma", "D": 1, "sigma": [1.0], "ar": [[[0.5]]], "ma": {"1": [[0.3]]}}
    spec[key] = value
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["simulate", "--spec", str(spec_path), "--n", "10", "--grid", "32",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert f"error: process spec key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [[1], "far", None])
def test_simulate_spec_that_is_no_object_fails_loud(tmp_path, capsys, spec):
    # a list used to end in a traceback: 'list' object has no attribute 'get'
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["simulate", "--spec", str(spec_path), "--n", "10", "--grid", "32",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert f"error: process spec must be a dict, got {spec!r}" in capsys.readouterr().err


def test_one_parser_serves_every_call_without_carrying_state(tmp_path, capsys):
    from curvecast.cli import _parser

    def bench(*overrides):
        args = ["benchmark", "--preset", "bands-coverage", "--seed", "1"]
        return _parser().parse_args(args + [a for o in overrides for a in ("--set", o)])

    first, second = bench("n=60", "p=1"), bench("alpha=0.5")
    assert first.set == ["n=60", "p=1"] and second.set == ["alpha=0.5"]
    assert bench().set is None
    sim = ["simulate", "--n", "10", "--grid", "32", "--seed", "2", "--out"]
    assert main(sim + [str(tmp_path / "a.csv")]) == 0
    assert main(["simulate", "--n", "ten", "--seed", "2", "--out", "x.csv"]) == 2
    assert "invalid int value: 'ten'" in capsys.readouterr().err
    assert main(sim + [str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
