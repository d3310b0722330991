import inspect
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pointdamp
from pointdamp import characteristic, diophantine, frequency
from pointdamp import cli, processes, tasks
from pointdamp.cli import (
    COMMANDS, COMMON_SCHEMA, POSITION_SCHEMA, ConfigError, main, resolve_config,
)
from pointdamp.mesh import build_mesh
from pointdamp.tasks import sweep
from pointdamp.tasks.sweep import _linspace

from forks import assert_reaped, record_forks
from report_digests import CONFIG_FILES, INVOCATIONS, SWEEPS, compare, digests


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    """Parse a report CSV: returns (schema_line, columns, rows as string lists)."""
    lines = Path(path).read_text().splitlines()
    schema = lines[0]
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return schema, columns, rows


def run_interpreter(*args):
    """python args... in a fresh interpreter that imports pointdamp from this tree."""
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=120)


def run_python(code):
    """Run code in a fresh interpreter that imports pointdamp from this tree."""
    return run_interpreter("-c", code)


def schema(command):
    """Every key the command takes, from its task module and the core (xi but for the sweep)."""
    position = {} if command == "sweep" else POSITION_SCHEMA
    return position | cli._task(command).SCHEMA | COMMON_SCHEMA


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.integrate and scipy.linalg cost most of a short command's start-up,
    # and the package needs no scipy at run time
    probe = run_python("import sys, pointdamp.cli; print(sorted(sys.modules))")
    assert probe.returncode == 0, probe.stderr
    loaded = probe.stdout
    assert "'pointdamp.cli'" in loaded
    assert "'scipy'" not in loaded
    assert "'scipy.integrate'" not in loaded
    assert "'scipy.linalg'" not in loaded
    assert "'mpmath'" not in loaded


def test_carleman_verify_loads_no_random_generator(tmp_path):
    # numpy.random imports secrets, hmac and _hashlib, which maps OpenSSL's
    # libcrypto: ~5.7 MiB of resident memory that carleman-verify has no use for
    done = run_interpreter("-X", "importtime", "-m", "pointdamp.cli", "carleman-verify",
                           "--xi", "golden", "--out", tmp_path, "--set", "h_count=3")
    assert done.returncode == 0, done.stderr
    assert re.search(r"\| +pointdamp\.carleman$", done.stderr, re.M)
    assert not re.search(r"\| +numpy\.random$", done.stderr, re.M)
    assert not re.search(r"\| +_hashlib$", done.stderr, re.M)


def test_carleman_verify_loads_no_numpy_polynomial(tmp_path):
    # the constant's Gauss nodes and Legendre rows come from numpy alone;
    # importing numpy.polynomial would cost ~2.7 ms of start-up
    done = run_python(
        "import sys\n"
        "from pointdamp.cli import main\n"
        f"print(main(['carleman-verify', '--xi', 'golden', '--out', {str(tmp_path)!r}]))\n"
        "print(sorted(sys.modules))\n"
    )
    assert done.returncode == 0, done.stderr
    code, loaded = done.stdout.splitlines()[-2:]
    assert code == "0"
    assert "'pointdamp.carleman'" in loaded
    assert "'numpy.polynomial'" not in loaded


# the layers a task imports for itself, not at start-up
TASK_LAYERS = ("characteristic", "frequency", "carleman", "simulator", "decayfit", "mesh")
# the arithmetic layer and the standard modules it alone brings in; only
# classify computes with them
ARITHMETIC = ("pointdamp.diophantine", "fractions", "decimal", "dataclasses")


def task_modules(loaded: str) -> set[str]:
    """The pointdamp.tasks.* modules named in a printed sorted(sys.modules)."""
    return set(re.findall(r"'pointdamp\.tasks\.(\w+)'", loaded))


def test_cli_import_loads_only_the_parsing_layer(tmp_path):
    probe = run_python("import sys, pointdamp.cli; print(sorted(sys.modules))")
    assert probe.returncode == 0, probe.stderr
    loaded = probe.stdout
    assert "'pointdamp.inputs'" in loaded
    assert "'pointdamp.tasks" not in loaded
    for module in ARITHMETIC + tuple(f"pointdamp.{layer}" for layer in TASK_LAYERS):
        assert f"'{module}'" not in loaded, module
    assert "'pointdamp.expansion'" not in loaded
    assert "'concurrent.futures'" not in loaded
    assert "'numpy'" not in loaded
    # the command line is parsed without argparse and the gettext and locale
    # lookups it brings in
    for module in ("argparse", "gettext", "locale"):
        assert f"'{module}'" not in loaded, module

    # classify, alone and swept, runs without numpy or the other layers; a
    # p/q position still comes back as its exact form
    done = run_python(
        "import sys\n"
        "from pointdamp.cli import main\n"
        f"code = main(['classify', '--xi', 'golden', '--out', {str(tmp_path / 'a')!r}])\n"
        f"code = code or main(['classify', '--xi', '2/5', '--out', {str(tmp_path / 'b')!r},\n"
        "                      '--set', 'keep_trace=true', '--set', 'mu_max=50'])\n"
        f"code = code or main(['sweep', '--out', {str(tmp_path / 'c')!r},\n"
        "                      '--set', 'task=classify', '--set', 'xi_list=0.3,golden'])\n"
        "print(sorted(sys.modules))\n"
        "sys.exit(code)\n"
    )
    assert done.returncode == 0, done.stderr
    for layer in ("frequency", "carleman", "simulator", "mesh"):
        assert f"'pointdamp.{layer}'" not in done.stdout, layer
    for module in ("argparse", "gettext", "locale"):
        assert f"'{module}'" not in done.stdout, module
    assert "'numpy'" not in done.stdout
    # each task loads its own module, alone or swept (with the sweep's), and no other
    assert task_modules(done.stdout) == {"classify", "sweep"}
    assert (tmp_path / "b" / "classify_trace_liouville.csv").exists()
    report = json.loads((tmp_path / "b" / "classify_report.json").read_text())
    assert report["result"]["exact_form"] == "2/5"
    assert (tmp_path / "c" / "sweep_classify.csv").exists()

    # spectrum at the defaults and at the benchmark's width for its
    # positions, at two decimals (one that settles on 2/5 and one that does
    # not), and a default sweep (of spectrum, over the default grid), run
    # without numpy, the frequency and mesh layers or diophantine; with no
    # dataclass left on their path they load no inspect either, and deciding
    # the real roots loads neither fractions nor decimal (a p/q position
    # loads both, since the parser reads it as a Fraction)
    def spectrum_probe(name, runs):
        runs = [args + ["--out", str(tmp_path / f"{name}{i}")] for i, args in enumerate(runs)]
        done = run_python(
            "import sys\n"
            "from pointdamp.cli import main\n"
            f"print([main(args) for args in {runs!r}])\n"
            "print(sorted(sys.modules))\n"
        )
        assert done.returncode == 0, done.stderr
        codes, loaded = done.stdout.splitlines()[-2:]
        assert codes == str([0] * len(runs))
        for module in ("numpy", "pointdamp.frequency", "pointdamp.mesh", "pointdamp.diophantine",
                       "dataclasses", "inspect"):
            assert f"'{module}'" not in loaded, module
        assert "'pointdamp.expansion'" in loaded
        return loaded

    loaded = spectrum_probe("run", [
        ["spectrum", "--xi", "golden"],
        ["spectrum", "--xi", "0.4"],
        ["spectrum", "--xi", "0.41421356237309515"],
        ["spectrum", "--xi", "golden", "--set", "re_max=2000"],
        ["spectrum", "--xi", "0.41421356237309515", "--set", "re_max=2000"],
        ["sweep"],
    ])
    for module in ("fractions", "decimal"):
        assert f"'{module}'" not in loaded, module
    assert task_modules(loaded) == {"spectrum", "sweep"}
    assert (tmp_path / "run5" / "sweep_spectrum.csv").exists()
    loaded = spectrum_probe("half", [["spectrum", "--xi", "1/2", "--set", "re_max=2000"]])
    assert task_modules(loaded) == {"spectrum"}


def test_module_run_loads_the_cli_once(tmp_path):
    # python -m pointdamp.cli runs the core as __main__; the task modules must
    # reach that module, not import a second copy, whose ConfigError main
    # would not catch
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pointdamp.cli", "carleman-verify",
         "--xi", "golden", "--set", "weight=bogus", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "unknown weight" in done.stderr
    assert not re.search(r"\| +pointdamp\.cli$", done.stderr, re.M)



def test_module_runs_under_the_profiler(tmp_path):
    # cProfile runs the module as __main__ but keeps its own module in
    # sys.modules["__main__"]; the CLI must not pass that off as pointdamp.cli.
    # cProfile exits 0 whatever main returns, so the reports are the check
    done = run_interpreter("-m", "cProfile", "-o", tmp_path / "profile", "-m", "pointdamp.cli",
                           "spectrum", "--xi", "golden", "--set", "re_max=12", "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "error" not in done.stderr
    assert (tmp_path / "spectrum.csv").is_file() and (tmp_path / "spectrum.json").is_file()
    assert (tmp_path / "profile").stat().st_size > 0


def test_module_run_keeps_every_output(tmp_path):
    # python -m pointdamp.cli leaves through os._exit: what main printed and
    # wrote must all be there
    done = run_interpreter("-m", "pointdamp.cli", "spectrum", "--xi", "golden",
                           "--set", "re_max=12", "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    written = sorted(str(path) for path in tmp_path.iterdir())
    assert sorted(done.stdout.splitlines()) == written
    assert len(written) == 2
    assert re.search(r"^elapsed: ", done.stderr, re.M)


def test_module_run_keeps_its_exit_codes(tmp_path):
    done = run_interpreter("-m", "pointdamp.cli", "spectrum", "--xi", "golden",
                           "--set", "bogus=1", "--out", tmp_path)
    assert done.returncode == 2
    assert "configuration error" in done.stderr and "bogus" in done.stderr
    done = run_interpreter("-m", "pointdamp.cli", "carleman-verify", "--xi", "0.5",
                           "--set", "weight=exp:-2", "--set", "side=left", "--out", tmp_path)
    assert done.returncode == 3
    assert "computation error" in done.stderr


def test_module_run_under_a_trace_hook_exits_normally(tmp_path):
    # coverage-style tools set a trace hook and wait for SystemExit to write
    # their data; the fast exit must leave them that
    argv = ["pointdamp", "spectrum", "--xi", "golden", "--set", "re_max=12",
            "--out", str(tmp_path)]
    probe = run_python(
        "import runpy, sys\n"
        "sys.settrace(lambda *args: None)\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('pointdamp.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    print('SystemExit', done.code)\n"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1] == "SystemExit 0"
    assert (tmp_path / "spectrum.csv").is_file() and (tmp_path / "spectrum.json").is_file()


def test_importtime_lists_the_task_module(tmp_path):
    done = run_interpreter("-X", "importtime", "-m", "pointdamp.cli", "spectrum", "--xi", "golden",
                           "--set", "re_max=12", "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    assert re.search(r"\| +pointdamp\.tasks\.spectrum$", done.stderr, re.M)

def test_bad_growth_function_loads_no_arithmetic(tmp_path):
    # a liouville_phi that names no growth function, or lacks its parameters,
    # is refused before the arithmetic layer loads
    runs = [["classify", "--xi", "golden", "--set", f"liouville_phi={phi}"]
            for phi in ("bogus", "power_log:1", "exponential:x")]
    done = run_python(
        "import sys\n"
        "from pointdamp.cli import main\n"
        f"print([main(args + ['--out', {str(tmp_path)!r}]) for args in {runs!r}])\n"
        "print(sorted(sys.modules))\n"
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = done.stdout.splitlines()[-2:]
    assert codes == str([2] * len(runs))
    for module in ARITHMETIC:
        assert f"'{module}'" not in loaded, module
    assert not list(tmp_path.iterdir())


# one configuration error per subcommand, each found after the config is resolved
EXIT_2_RUNS = [
    ["classify", "--xi", "golden", "--set", "k1=inf"],
    ["classify", "--xi", "golden", "--set", "liouville_phi=exponential:-1"],
    ["classify", "--xi", "golden", "--set", "liouville_phi=identity:7"],
    ["classify", "--xi", "golden", "--set", "mu_min=5", "--set", "mu_max=2"],
    ["classify", "--xi", "golden", "--set", "mu_max=inf"],
    ["classify", "--xi", "golden", "--set", "mu_max=1e300"],
    ["classify", "--xi", "golden", "--set", "mu_step=0.01"],  # no such key: the range is checked by strips
    ["resolvent-scan", "--xi", "golden", "--set", "mu_min=5", "--set", "mu_max=2"],
    ["spectrum", "--xi", "golden", "--set", "re_min=10", "--set", "re_max=5"],
    ["carleman-verify", "--xi", "golden", "--set", "h_min=0.2", "--set", "h_max=0.1"],
    ["carleman-verify", "--xi", "golden", "--set", "weight=bogus"],
    ["carleman-verify", "--xi", "golden", "--set", "weight=exp:nan"],
    ["simulate", "--xi", "golden", "--set", "t_final=1e6"],
    ["simulate", "--xi", "golden", "--set", "center=0.05"],
    ["sweep", "--set", "xi_list=0.3,abc"],
]


def test_configuration_errors_load_no_numpy(tmp_path):
    done = run_python(
        "import sys\n"
        "from pointdamp.cli import main\n"
        f"codes = [main(args + ['--out', {str(tmp_path)!r}]) for args in {EXIT_2_RUNS!r}]\n"
        "print(codes)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
    codes, numpy_loaded = done.stdout.splitlines()[-2:]
    assert codes == str([2] * len(EXIT_2_RUNS))
    assert numpy_loaded == "False"


def test_tasks_without_arithmetic_load_no_diophantine(tmp_path):
    # only classify computes with the arithmetic layer; liouville_phi is the
    # one configuration check made by diophantine itself (GrowthFunction)
    errors = [args for args in EXIT_2_RUNS if not any("liouville_phi" in a for a in args)]
    runs = [
        ["resolvent-scan", "--xi", "golden", "--set", "mu_max=3", "--set", "cells=16"],
        ["simulate", "--xi", "golden", "--set", "cells=20", "--set", "t_final=0.5"],
        ["carleman-verify", "--xi", "1/3", "--set", "h_count=3"],
    ]
    done = run_python(
        "import sys\n"
        "from pointdamp.cli import main\n"
        f"codes = [main(args + ['--out', {str(tmp_path)!r}]) for args in {runs + errors!r}]\n"
        "print(codes)\n"
        "print('pointdamp.diophantine' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = done.stdout.splitlines()[-2:]
    assert codes == str([0] * len(runs) + [2] * len(errors))
    assert loaded == "False"


def test_numpy_free_reports_drop_the_numpy_version(tmp_path):
    # classify and spectrum compute without numpy, alone or swept; the other
    # tasks record the numpy they computed with
    small_sim = ["--set", "cells=20", "--set", "t_final=0.5"]
    runs = {
        "c/classify_report.json": ["classify", "--xi", "golden"],
        "s/spectrum.json": ["spectrum", "--xi", "golden"],
        "w/sweep_spectrum.json": ["sweep", "--set", "xi_list=0.3,0.6", "--set", "re_max=12"],
        "k/sweep_classify.json": ["sweep", "--set", "task=classify", "--set", "xi_list=0.3",
                                  "--set", "mu_max=20"],
        "m/sweep_simulate.json": ["sweep", "--set", "task=simulate", "--set", "xi_list=0.3",
                                  *small_sim],
    }
    versions = {}
    for report, args in runs.items():
        assert run(args + ["--out", tmp_path / report.split("/")[0]]) == 0
        versions[report] = json.loads((tmp_path / report).read_text())["versions"]
    bare = {"pointdamp": pointdamp.__version__}
    assert versions.pop("m/sweep_simulate.json") == dict(bare, numpy=np.__version__)
    assert all(found == bare for found in versions.values()), versions


@pytest.mark.parametrize("start, stop, count", [
    (0.05, 0.95, 19), (0.1, 0.9, 7), (0.3, 0.3, 4), (0.2, 0.7, 1), (0.9, 0.1, 33),
    (1e-3, 1.0 - 1e-3, 1000), (1.0 / 3.0, 2.0 / 3.0, 2),
])
def test_default_sweep_grid_is_numpy_linspace(start, stop, count):
    assert _linspace(start, stop, count) == np.linspace(start, stop, count).tolist()


def test_simulate_runs_load_no_scipy(tmp_path):
    small = "'--set', 'cells=20', '--set', 't_final=0.5'"
    sim, sweep = str(tmp_path / "sim"), str(tmp_path / "sweep")
    done = run_python(
        "import sys\n"
        "from pointdamp.cli import main\n"
        f"code = main(['simulate', '--xi', 'golden', '--out', {sim!r}, {small}])\n"
        f"code = code or main(['sweep', '--out', {sweep!r},\n"
        f"                     '--set', 'task=simulate', '--set', 'xi_list=0.3,0.6', {small}])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (Path(sim) / "simulate_report.json").exists()
    assert (Path(sweep) / "sweep_simulate.json").exists()


def test_classify_runs_without_mpmath(tmp_path):
    # a None entry in sys.modules makes any import of mpmath fail
    done = run_python(
        "import sys; sys.modules['mpmath'] = None\n"
        "from pointdamp.cli import main\n"
        f"sys.exit(main(['classify', '--xi', 'golden', '--out', {str(tmp_path / 'golden')!r}])\n"
        f"         or main(['classify', '--xi', '2/5', '--out', {str(tmp_path / 'q')!r}]))\n"
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "golden" / "classify_report.json").exists()
    assert (tmp_path / "q" / "classify_report.json").exists()


# ----------------------------------------------------------------- classify


def test_classify_rational(tmp_path):
    code = run(["classify", "--xi", "1/2", "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "classify_report.json").read_text())
    assert report["command"] == "classify"
    result = report["result"]
    assert result["is_rational"] is True
    assert result["strongly_stable"] is False
    assert set(result["conditions"]) == {"exp_grid", "poly_grid", "cos_grid", "liouville"}
    assert result["exact_form"] == "1/2"
    # the strip minimum at 2*pi is an exact resonance, and the checks witness it
    library = diophantine.classify_actuator(Fraction(1, 2))
    for name, expected in (("exp_grid", library.exp_grid), ("poly_grid", library.poly_grid)):
        condition = result["conditions"][name]
        assert condition["verdict"] == "fail" == expected.verdict
        assert condition["witness"] == pytest.approx(2 * math.pi, abs=1e-12)
        assert condition["witness"] == pytest.approx(expected.witness, abs=1e-12)


def test_classify_golden_with_traces(tmp_path):
    code = run([
        "classify", "--xi", "golden", "--out", tmp_path,
        "--set", "keep_trace=true", "--set", "mu_max=100",
    ])
    assert code == 0
    report = json.loads((tmp_path / "classify_report.json").read_text())
    result = report["result"]
    assert result["is_rational"] is False
    assert result["strongly_stable"] is True
    assert result["constant_type"] is True
    assert result["max_partial_quotient"] == 1
    # the default poly_eps = 1 weights below mu^4, which no position satisfies
    for name, check in result["conditions"].items():
        assert check["verdict"] == ("fail" if name == "poly_grid" else "pass"), name
    assert result["conditions"]["poly_grid"]["note"].startswith("refuted for every xi")
    assert set(result["conditions"]["poly_grid"]["fitted_constants"]) == {
        "eps", "inf_weighted", "log_inf_weighted"}
    schema, columns, rows = read_csv(tmp_path / "classify_trace_exp.csv")
    assert schema == "# pointdamp-csv schema=classify-trace version=1"
    assert columns == ["mu", "expression", "weighted_expression"]
    assert len(rows) == 33  # one row per pi-strip around n*pi, n = 0..32, that meets [1, 100]
    for name in ("poly", "cos"):
        assert (tmp_path / f"classify_trace_{name}.csv").exists()
    schema, columns, rows = read_csv(tmp_path / "classify_trace_liouville.csv")
    assert schema == "# pointdamp-csv schema=liouville-trace version=1"
    assert columns == ["m", "product"]


@pytest.mark.parametrize("xi, verdict", [("1/3", "fail"), ("1/5", "fail"), ("1/2", "pass"), ("2/5", "pass")])
def test_classify_rational_cosine_resonances(tmp_path, xi, verdict):
    # cos(mu) and cos(xi*mu) both vanish at q*pi/2 for odd q
    assert run(["classify", "--xi", xi, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "classify_report.json").read_text())
    cos_grid = report["result"]["conditions"]["cos_grid"]
    assert cos_grid["verdict"] == verdict
    if verdict == "fail":
        assert cos_grid["note"] == "exact resonance"
        q = Fraction(xi).denominator
        assert cos_grid["witness"] == pytest.approx(q * math.pi / 2, abs=1e-12)


def test_classify_settings_are_config_keys_echoed_in_the_report(tmp_path):
    # a report's config echo rebuilds the settings its checks ran with
    fields = diophantine.ClassifySettings.__dataclass_fields__
    assert set(fields) <= set(schema("classify"))
    args = ["classify", "--xi", "golden", "--out", tmp_path,
            "--set", "mu_max=80", "--set", "k1=0.5", "--set", "depth=12"]
    assert run(args) == 0
    config = json.loads((tmp_path / "classify_report.json").read_text())["config"]
    assert set(fields) <= set(config)
    settings = diophantine.ClassifySettings(**{k: config[k] for k in fields})
    assert settings == diophantine.ClassifySettings(mu_max=80.0, k1=0.5, depth=12)


@pytest.mark.parametrize("text", [
    "golden", "0.41421356237309515", "1/2", "1/3", "355/1131", "0.1", "0.3", "0.375", "0.9",
    "0.011",
])
def test_library_reads_text_as_xi_does(tmp_path, text):
    # classify_actuator and settle read text through the parser, as --xi
    # does: a decimal is its double, so 0.41421356237309515 is sqrt(2) - 1's
    def summary(classification):
        return (classification.is_rational, classification.continued_fraction.partial_quotients,
                *[(c.verdict, c.witness) for c in (classification.exp_grid,
                                                   classification.poly_grid)])

    position = diophantine.parse_actuator_position(text)
    library = summary(diophantine.classify_actuator(text))
    assert library == summary(diophantine.classify_actuator(position))
    assert diophantine.settle(text) == diophantine.settle(position)
    assert run(["classify", "--xi", text, "--out", tmp_path]) == 0
    result = json.loads((tmp_path / "classify_report.json").read_text())["result"]
    conditions = [result["conditions"][name] for name in ("exp_grid", "poly_grid")]
    assert library == (result["is_rational"], result["partial_quotients"],
                       *[(c["verdict"], c["witness"]) for c in conditions])


def test_classify_fraction_echoed(tmp_path):
    code = run(["classify", "--xi", "2/5", "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "classify_report.json").read_text())
    assert report["config"]["xi"] == "2/5"
    assert report["result"]["is_rational"] is True
    assert report["result"]["exact_form"] == "2/5"


@pytest.mark.parametrize("xi, quotients", [
    ("1e-13", [0, 9_999_999_999_999]), ("0.9999999999999", [0, 1, 9_996_891_514_694]),
])
def test_classify_settles_no_position_on_an_end(tmp_path, xi, quotients):
    # the first quotient past 0/1 or 1/1 is above quotient_overflow; the
    # position has no exact form and is read as its double, not as 0 or 1
    assert run(["classify", "--xi", xi, "--out", tmp_path]) == 0
    result = json.loads((tmp_path / "classify_report.json").read_text())["result"]
    assert result["is_rational"] is False
    assert result["partial_quotients"] == quotients
    assert result["conditions"]["exp_grid"]["verdict"] == "pass"


# -------------------------------------------------------------- validation


def test_bad_xi_is_config_error(tmp_path):
    assert run(["classify", "--xi", "1.5", "--out", tmp_path]) == 2
    assert run(["classify", "--xi", "0.5/3", "--out", tmp_path]) == 2
    assert run(["simulate", "--xi", "-1", "--out", tmp_path]) == 2


def test_missing_xi_is_config_error(tmp_path):
    assert run(["classify", "--out", tmp_path]) == 2


def test_unknown_key_is_config_error(tmp_path, capsys):
    assert run([
        "classify", "--xi", "0.5", "--out", tmp_path, "--set", "no_such_key=1",
    ]) == 2
    # exact Euclid reads a remainder below a tolerance as a quotient above
    # quotient_overflow, so classify has no remainder tolerance
    capsys.readouterr()
    assert run([
        "classify", "--xi", "0.5", "--out", tmp_path, "--set", "rational_tol=1e-12",
    ]) == 2
    assert "unknown key(s) for classify: rational_tol" in capsys.readouterr().err
    # a strip check fails only where it is refuted, so it has no drain factor
    assert run([
        "classify", "--xi", "golden", "--out", tmp_path, "--set", "trend_factor=10",
    ]) == 2
    assert "unknown key(s) for classify: trend_factor" in capsys.readouterr().err
    # the sweep's resolved task_config is no key a user may set
    assert run(["sweep", "--out", tmp_path, "--set", "task_config=1"]) == 2
    # nor its process count, which comes from the usable CPUs
    capsys.readouterr()
    assert run(["sweep", "--out", tmp_path, "--set", "workers=2"]) == 2
    assert "unknown key(s) for sweep: workers" in capsys.readouterr().err
    # the Carleman constant is the span maximum, so there are no samples to count
    assert run(["carleman-verify", "--xi", "golden", "--out", tmp_path,
                "--set", "n_samples=5"]) == 2
    assert run(["sweep", "--out", tmp_path, "--set", "task=carleman-verify",
                "--set", "n_samples=5"]) == 2
    # spectrum decides a real root exactly, so it has no tolerance for it
    capsys.readouterr()
    assert run(["spectrum", "--xi", "golden", "--out", tmp_path, "--set", "real_tol=1e-10"]) == 2
    assert "unknown key(s) for spectrum: real_tol" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_malformed_set_is_config_error(tmp_path):
    assert run(["classify", "--xi", "0.5", "--out", tmp_path, "--set", "oops"]) == 2


@pytest.mark.parametrize("args", [
    # --flag value and --flag=value, options on either side of the command
    ["--xi", "0.4", "--set", "mu_max=30", "classify", "--config", "c.cfg", "--seed", "7"],
    ["classify", "--xi=0.4", "--set=mu_max=30", "--config=c.cfg", "--seed=7"],
    # unique prefixes, of the flag alone or with its "=value"
    ["classify", "--x", "0.4", "--set", "mu_max=30", "--con=c.cfg", "--see", "7"],
    # the last value of a flag holds; "--" ends the options
    ["--xi", "0.9", "--seed", "1", "--xi", "0.4", "--set", "mu_max=30", "--config", "c.cfg",
     "--seed", "7", "--", "classify"],
])
def test_parser_forms(args):
    assert cli._parse_args(args) == ("classify", "c.cfg", ("mu_max=30",), "0.4", None, "7")


def test_parser_repeats_set_in_order():
    parsed = cli._parse_args(["resolvent-scan", "--set", "probes=1", "--set=cells=32",
                              "--set", "mu_max=3", "--out", "o", "--set", "probes=2"])
    assert parsed.overrides == ("probes=1", "cells=32", "mu_max=3", "probes=2")
    assert (parsed.command, parsed.out, parsed.config, parsed.xi, parsed.seed) == (
        "resolvent-scan", "o", None, None, None
    )
    # a negative number is a value, "-" too
    assert cli._parse_args(["classify", "--xi", "-0.5", "--out", "-"])[3:5] == ("-0.5", "-")


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_prints_the_usage_and_exits_0(flag, capsys):
    assert main(["classify", flag, "--bogus"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pointdamp [-h]") and err == ""
    for option in ("--config FILE", "--set KEY=VALUE", "--xi XI", "--out DIR", "--seed N"):
        assert option in out
    assert ",".join(COMMANDS) in out


@pytest.mark.parametrize("args, reason", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["classify", "extra"], "unrecognized arguments: extra"),
    (["classify", "--bogus=1"], "unrecognized arguments: --bogus=1"),
    (["classify", "-x"], "unrecognized arguments: -x"),
    (["classify", "--s", "seed=1"], "ambiguous option: --s could match --set, --seed"),
    (["classify", "--xi"], "argument --xi: expected one argument"),
    (["classify", "--out", "--xi", "0.4"], "argument --out: expected one argument"),
    (["classify", "--seed"], "argument --seed: expected one argument"),
    (["classify", "--help=1"], "argument -h/--help: ignored explicit argument '1'"),
])
def test_unreadable_command_line_exits_2_with_a_usage_line(tmp_path, args, reason, capsys):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, *_, message = err.splitlines()
    assert usage.startswith("usage: pointdamp [-h]")
    assert message.startswith(f"pointdamp: error: {reason}")
    assert not list(tmp_path.iterdir())


def test_module_run_parses_help_and_errors(tmp_path):
    done = run_interpreter("-m", "pointdamp.cli", "--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: pointdamp")
    done = run_interpreter("-m", "pointdamp.cli", "classify", "--xi", "golden", "--seed", "x")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines() == ["configuration error: seed: expected an integer, got 'x'"]


@pytest.mark.parametrize("args, reason", [
    # --seed reads as --set seed= does: the schema's caster and limit
    (["classify", "--xi", "golden", "--seed", "x"], "seed: expected an integer, got 'x'"),
    (["classify", "--xi", "golden", "--set", "seed=x"], "seed: expected an integer, got 'x'"),
    (["classify", "--xi", "golden", "--set", "depth=abc"], "depth: expected an integer, got 'abc'"),
    (["classify", "--xi", "golden", "--set", "mu_max=far"], "mu_max: expected a number, got 'far'"),
    (["classify", "--xi", "golden", "--config", "cast.cfg"],
     "keep_trace: expected a boolean, got 'maybe'"),
    # a key of the sweep's task, cast into its task_config
    (["sweep", "--set", "task=simulate", "--set", "xi_list=0.3", "--set", "damped=maybe"],
     "damped: expected a boolean, got 'maybe'"),
])
def test_a_value_that_does_not_cast_names_its_key(tmp_path, args, reason, capsys):
    (tmp_path / "cast.cfg").write_text("keep_trace = maybe\n")
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"configuration error: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["007", "1_0", " 7"])
def test_seed_flag_keeps_its_text_for_the_schema(text):
    # the seed an integer parse of the text gives, as before the schema read it
    assert cli._parse_args(["classify", "--seed", text]).seed == text
    assert resolve_config("classify", {"xi": "golden", "seed": text})["seed"] == int(text)


def test_degenerate_rectangle_is_config_error(tmp_path):
    assert run([
        "spectrum", "--xi", "0.5", "--out", tmp_path,
        "--set", "re_min=10", "--set", "re_max=5",
    ]) == 2


@pytest.mark.parametrize("args", [
    ["classify", "--set", "mu_min=0"],
    # inside the lobe of the trivial zero D(0) = 0 (classify.MU_MIN)
    ["classify", "--set", "mu_min=0.5"],
    ["classify", "--set", "mu_min=1e-8"],
    ["sweep", "--set", "task=classify", "--set", "xi_list=0.3", "--set", "mu_min=0.5"],
    ["classify", "--set", "depth=0"],
    # classify has no trend test any more, so this is refused as an unknown key
    ["classify", "--set", "trend_factor=0"],
    ["classify", "--set", "liouville_kappa=0"],
    ["classify", "--set", "liouville_m_max=0"],
    ["classify", "--set", "k1=-1"],
    ["classify", "--set", "liouville_m_max=10000001"],
    ["simulate", "--set", "sample_every=0"],
    ["simulate", "--set", "cells=1"],
    ["simulate", "--set", "initial=fourier_mode", "--set", "mode=0"],
    ["simulate", "--set", "width=0"],
    ["simulate", "--set", "width=-1"],
    ["simulate", "--set", "mode=0", "--set", "initial=smooth_bump"],
    ["simulate", "--set", "dt=-1"],
    ["simulate", "--set", "cells=1000001"],
    ["simulate", "--set", "t_final=1e6"],
    ["resolvent-scan", "--set", "cells=1"],
    ["resolvent-scan", "--set", "cells=1000001"],
    ["resolvent-scan", "--set", "probes=0"],
    ["resolvent-scan", "--set", "mu_min=0"],
    ["resolvent-scan", "--set", "mu_min=-1"],
    ["resolvent-scan", "--seed", "-1"],
    ["resolvent-scan", "--set", "mu_max=1e300"],
    # the dual route sizes its own grids, so this is refused as an unknown key
    ["carleman-verify", "--set", "cells=2"],
    ["carleman-verify", "--set", "h_min=0"],
    ["carleman-verify", "--set", "h_max=0"],
    ["carleman-verify", "--set", "check_h=0"],
    ["carleman-verify", "--set", "n_modes=0"],
    ["carleman-verify", "--set", "n_modes=-1"],
    ["carleman-verify", "--set", "h_count=0"],
    ["carleman-verify", "--seed", "-1"],
    # an inverted h range, which would be swept the right way round
    ["carleman-verify", "--set", "h_min=0.2", "--set", "h_max=0.1"],
    # a sweep's process count comes from the usable CPUs, so this is
    # refused as an unknown key
    ["sweep", "--set", "xi_list=0.3", "--set", "workers=0"],
    ["sweep", "--set", "task=simulate", "--set", "xi_list=0.3", "--set", "cells=1"],
    ["sweep", "--set", "task=simulate", "--set", "xi_list=0.3", "--set", "t_final=1e6"],
    ["sweep", "--set", "task=carleman-verify", "--set", "xi_list=0.3", "--set", "n_modes=0"],
    ["sweep", "--set", "task=classify", "--set", "xi_list=0.3", "--set", "depth=0"],
    # non-finite numbers
    ["classify", "--set", "mu_max=inf", "--set", "mu_min=inf"],
    # classify ranges past the strip ceiling
    ["classify", "--set", "mu_max=inf"],
    ["classify", "--set", "mu_max=1e300"],
    ["resolvent-scan", "--set", "mu_step=inf"],
    ["spectrum", "--set", "tol=nan"],
    ["simulate", "--set", "dt=inf"],
    ["carleman-verify", "--set", "check_h=inf"],
    ["carleman-verify", "--set", "h_max=inf"],
    ["carleman-verify", "--set", "h_min=inf"],
    ["classify", "--set", "k1=inf"],
    ["classify", "--set", "k1=nan"],
    ["classify", "--set", "poly_eps=inf"],
    ["classify", "--set", "poly_eps=nan"],
    # growth functions that decrease
    ["classify", "--set", "liouville_phi=exponential:-1"],
    ["classify", "--set", "liouville_phi=exponential:inf"],
    ["classify", "--set", "liouville_phi=power_log:-2,0.5"],
    ["classify", "--set", "liouville_phi=power_log:1,-2"],
    # spectrum rectangles past the work ceiling
    ["spectrum", "--set", "re_max=1e8"],
    ["spectrum", "--set", "re_max=1e300"],
    ["spectrum", "--set", "re_max=inf"],
    ["spectrum", "--set", "im_max=1e300"],
    ["spectrum", "--set", "re_min=-inf"],
    ["sweep", "--set", "xi_list=0.3", "--set", "re_max=1e8"],
    # spectrum decides real roots exactly and has no tolerance for it, so
    # these are refused as an unknown key rather than computed with
    ["spectrum", "--xi", "1/2", "--set", "real_tol=nan"],
    ["spectrum", "--xi", "1/2", "--set", "real_tol=-1"],
    # classify has no remainder tolerance any more, so these are refused as
    # an unknown key rather than computed with
    ["classify", "--xi", "0.5", "--set", "rational_tol=nan"],
    ["classify", "--xi", "0.5", "--set", "rational_tol=-1"],
    ["classify", "--set", "quotient_overflow=nan"],
    ["classify", "--set", "quotient_overflow=inf"],
    ["classify", "--set", "quotient_overflow=0.5"],
    ["carleman-verify", "--set", "weight=exp:nan"],
    ["carleman-verify", "--set", "weight=exp:inf"],
    # arrays past the grid ceiling, refused before any is allocated: the
    # forms (n_modes alone, at a basis within its ceiling), the basis, the
    # forms again, and the probes of one frequency
    ["carleman-verify", "--set", "side=left", "--set", "n_modes=1000"],
    ["carleman-verify", "--set", "n_modes=1000000000000"],
    ["carleman-verify", "--set", "h_count=10000000000000"],
    ["resolvent-scan", "--set", "probes=1000000000000"],
    ["sweep", "--set", "task=resolvent-scan", "--set", "xi_list=0.3",
     "--set", "probes=1000000000000"],
], ids=lambda args: f"{args[0]}:{args[-1]}")
def test_out_of_range_number_is_config_error(tmp_path, args):
    xi = [] if args[0] == "sweep" or "--xi" in args else ["--xi", "golden"]
    assert run(args + xi + ["--out", tmp_path]) == 2


def test_scan_fit_of_one_finite_estimate(tmp_path):
    # one frequency: the growth constant is its estimate, with no rate and no residual
    assert run(["resolvent-scan", "--xi", "golden", "--set", "mu_min=5", "--set", "mu_max=5.2",
                 "--out", tmp_path]) == 0
    result = json.loads((tmp_path / "resolvent_scan.json").read_text())["result"]
    assert (result["n_grid"], result["n_resonant"]) == (1, 0)
    assert result["growth_constant"] == result["max_finite_norm"] > 0.0
    assert (result["growth_rate"], result["log_residual"]) == (0.0, 0.0)


def test_scan_fit_of_no_finite_estimate(tmp_path):
    # the one frequency, 2 pi, is resonant at 1/2: no constant and no residual
    assert run(["resolvent-scan", "--xi", "1/2", "--set", f"mu_min={2 * math.pi!r}",
                 "--set", "mu_max=6.5", "--set", "mu_step=1", "--out", tmp_path]) == 0
    result = json.loads((tmp_path / "resolvent_scan.json").read_text())["result"]
    assert (result["n_grid"], result["n_resonant"]) == (1, 1)
    assert result["growth_constant"] is None and result["log_residual"] is None
    assert result["max_finite_norm"] is None


def test_simulate_refuses_a_bump_off_the_string(tmp_path, capsys):
    args = ["simulate", "--xi", "golden", "--set", "t_final=1", "--set", "cells=20"]
    for center in ("2", "-0.2"):
        assert run(args + ["--set", f"center={center}", "--out", tmp_path / "off"]) == 2
        error = capsys.readouterr().err
        assert "center" in error and "width" in error
    assert not (tmp_path / "off").exists()
    # a bump that reaches over the end of the string would be cut there: refused too
    end = ["--set", "center=0.99", "--set", "width=0.1", "--out", tmp_path / "end"]
    assert run(args + end) == 2
    assert "past the end x=1" in capsys.readouterr().err
    assert not (tmp_path / "end").exists()


def test_simulate_refuses_a_bump_between_mesh_nodes(tmp_path, capsys):
    # a support inside (0, 1) that holds no interior node gives zero data:
    # refused in check, so a sweep refuses it before any job
    runs = [
        ["simulate", "--xi", "golden", "--set", "center=0.3", "--set", "width=1e-4"],
        ["simulate", "--xi", "golden", "--set", "center=0.3", "--set", "width=1e-3",
         "--set", "cells=10"],
        ["sweep", "--set", "task=simulate", "--set", "xi_list=golden,0.3",
         "--set", "center=0.3", "--set", "width=1e-4"],
    ]
    for args in runs:
        assert run(args + ["--set", "t_final=0.1", "--out", tmp_path / "zero"]) == 2
        assert "zero data" in capsys.readouterr().err
    assert not (tmp_path / "zero").exists()
    # at 0.3 the damped node lies in that support
    assert run(runs[0][:2] + ["0.3"] + runs[0][3:] + ["--set", "t_final=0.1", "--set",
                                                       "fit=false", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    assert report["result"]["energy_initial"] > 0.0


def test_bump_node_rule_matches_the_initial_data():
    # check's O(1) decision against the nodes initial_data fills
    from pointdamp import simulator
    from pointdamp.tasks.simulate import _holds_a_node

    rng = np.random.default_rng(7)
    for _ in range(400):
        xi, cells = float(rng.uniform(0.01, 0.99)), int(rng.integers(2, 60))
        width = float(10.0 ** rng.uniform(-4, 0))
        mesh = build_mesh(xi, cells, cells)
        # centres on or next to a node, and anywhere on or near the string
        node = float(mesh.nodes[rng.integers(mesh.nodes.size)])
        for center in (node, np.nextafter(node - width, -1.0), node + width,
                       float(rng.uniform(-0.2, 1.2))):
            if center - width < 0.0 or center + width > 1.0:
                # check refuses a bump past an end before it asks for a node
                with pytest.raises(ValueError, match="past an end"):
                    simulator.initial_data(mesh, "smooth_bump", center=center, width=width)
                continue
            u = simulator.initial_data(mesh, "smooth_bump", center=center, width=width).u
            assert _holds_a_node(xi, cells, float(center), width) == bool(np.any(u)), (
                xi, cells, center, width)


def test_simulate_refuses_a_bump_past_an_end(tmp_path, capsys):
    # the clamped end would cut such a bump, so the run would start from a cliff;
    # a sweep refuses it before any job
    runs = {
        ("--xi", "golden", "--set", "center=0.05"): "past the end x=0; the widest that fits is 0.05",
        ("--xi", "golden", "--set", "width=inf"): "the widest that fits is 0.3819660112501051",
        ("--xi", "0.95",): "width=0.1 carries the smooth bump at center=0.95 past the end x=1",
        ("--xi", "golden", "--set", "center=1.5"): "past the end x=1; none fits",
    }
    for args, message in runs.items():
        assert run(["simulate", *args, "--set", "t_final=1", "--out", tmp_path / "cut"]) == 2
        assert message in capsys.readouterr().err
    assert run(["sweep", "--set", "task=simulate", "--set", "width=0.1", "--set", "t_final=1",
                "--out", tmp_path / "cut"]) == 2
    assert "past the end x=0; the widest that fits is 0.05" in capsys.readouterr().err
    assert not (tmp_path / "cut").exists()
    # a bump that reaches an end exactly fits
    assert run(["simulate", "--xi", "0.05", "--set", "width=0.05", "--set", "t_final=0.1",
                "--set", "fit=false", "--out", tmp_path]) == 0


def test_classify_refuses_a_constant_type_bound_below_one(tmp_path, capsys):
    # partial quotients are at least 1, so a lower bound would make every
    # position fail "constant type" without a word
    for bound in ("0", "-1"):
        assert run(["classify", "--xi", "golden", "--set", f"constant_type_bound={bound}",
                    "--out", tmp_path / "bound"]) == 2
        assert "constant_type_bound must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "bound").exists()
    assert run(["classify", "--xi", "golden", "--set", "constant_type_bound=1",
                "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "classify_report.json").read_text())["result"]["constant_type"]


def test_default_simulate_sweep_starts_every_position_from_the_same_energy(tmp_path):
    # the default bump fits inside [0, 1] at every default grid point, so the
    # initial energy depends on the mesh alone
    assert run(["sweep", "--set", "task=simulate", "--set", "t_final=0.1",
                "--out", tmp_path]) == 0
    rows = json.loads((tmp_path / "sweep_simulate.json").read_text())["result"]["rows"]
    energies = [row["energy_initial"] for row in rows]
    assert len(energies) == 19
    assert max(energies) <= 1.01 * min(energies)


def _readme_key_tables():
    """Command -> the keys named in the first column of its README key table."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    tables = {}
    for i, line in enumerate(lines):
        heading = re.match(r"`([a-z-]+)` \(writes", line)
        if not heading:
            continue
        start = next(j for j in range(i, len(lines)) if lines[j].startswith("|"))
        # skip the header and separator rows
        rows = itertools.takewhile(lambda row: row.startswith("|"), lines[start + 2:])
        first_cells = " ".join(row.split("|")[1] for row in rows)
        tables[heading[1]] = set(re.findall(r"`(\w+)`", first_cells))
    return tables


def test_readme_key_tables_match_schemas():
    common = {"xi", "out", "seed"}
    tables = _readme_key_tables()
    assert set(tables) == set(COMMANDS)
    for command in COMMANDS:
        assert tables[command] - common == set(schema(command)) - common, command


def test_commands_are_the_task_modules():
    # each subcommand is one module of pointdamp.tasks, imported by name
    modules = {info.name for info in pkgutil.iter_modules(tasks.__path__)}
    assert modules == {command.replace("-", "_") for command in COMMANDS}
    for command in COMMANDS:
        task = cli._task(command)
        assert all(callable(getattr(task, name)) for name in ("check", "run", "files")), command
        # the core parses xi and hands check the Position, and run the
        # Position with the plan that check returned
        assert list(inspect.signature(task.check).parameters) == ["cfg", "xi"], command
        assert list(inspect.signature(task.run).parameters) == ["cfg", "xi", "plan"], command
        assert list(inspect.signature(task.files).parameters)[0] == "cfg", command
        assert not set(task.SCHEMA) & (set(COMMON_SCHEMA) | set(POSITION_SCHEMA)), command
    # the sweep runs every other command, each through the same protocol
    swept = [command for command in COMMANDS if command != "sweep"]
    assert sweep.SCHEMA["task"][1].text == f"one of {', '.join(swept)}"
    # the core requires xi of every swept command, and the sweep takes none
    with pytest.raises(ConfigError, match="unknown key.*xi"):
        resolve_config("sweep", {"xi": "0.3"})
    for command in swept:
        with pytest.raises(ConfigError, match="missing key 'xi'"):
            resolve_config(command, {})
        task = cli._task(command)
        assert callable(task.row) and isinstance(task.USES_NUMPY, bool), command
        assert set(task.SWEEP_DEFAULTS) <= set(task.SCHEMA), command
        for key, text in task.SWEEP_DEFAULTS.items():
            # a sweep default that equals the task's own default is redundant
            assert resolve_config(command, {"xi": "golden", key: text})[key] != task.SCHEMA[key][0]


class _ReadRecorder(dict):
    """A resolved config that records the keys read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# (command, raw config at small sizes, schema keys it leaves unread); seed is
# accepted by every task, so that --seed works alike, but only some draw
# random numbers; the two sweeps cover the xi_list and the xi grid branches
KEY_READ_RUNS = [
    ("classify", {"xi": "golden", "mu_max": "50", "liouville_m_max": "100"}, {"seed"}),
    ("resolvent-scan", {"xi": "golden", "mu_max": "3", "cells": "16", "probes": "2"}, set()),
    ("spectrum", {"xi": "golden", "re_max": "10"}, {"seed"}),
    ("carleman-verify", {"xi": "golden", "h_count": "3"}, {"seed"}),
    ("simulate", {"xi": "golden", "cells": "16", "t_final": "0.2"}, {"seed"}),
    ("sweep", {"xi_list": "0.3,0.6", "re_max": "8"}, {"xi_min", "xi_max", "xi_count"}),
    ("sweep", {"xi_min": "0.3", "xi_max": "0.6", "xi_count": "2", "re_max": "8"}, set()),
]


def test_every_config_key_is_read_by_its_task(tmp_path):
    for i, (command, raw, unread) in enumerate(KEY_READ_RUNS):
        cfg = _ReadRecorder(resolve_config(command, dict(raw, out=str(tmp_path / str(i)))))
        task = cli._task(command)
        # as main does, the core reads and parses xi, and the task gets the
        # Position, checked once
        xi = cli.parse_position(cfg["xi"]) if command != "sweep" else None
        files = task.files(cfg, task.run(cfg, xi, task.check(cfg, xi)))
        cli.write_files(command, cfg, cli._task(cfg.get("task", command)).USES_NUMPY, files)
        assert set(schema(command)) - cfg.read == unread, command


def test_task_files_pass_through_the_writers_on_cli(tmp_path, monkeypatch, capsys):
    # perfbench/tracer.py replaces write_csv and write_json_report on
    # pointdamp.cli by attribute, so the core must look both up there at each
    # call: every file of every command goes through them, and main prints
    # each path it wrote
    written = []

    def recording(writer):
        def record(path, *args, **kwargs):
            written.append(Path(path))
            writer(path, *args, **kwargs)

        return record

    runs = {
        "classify": ["classify", "--xi", "golden", "--set", "mu_max=20"],
        "traces": ["classify", "--xi", "golden", "--set", "mu_max=20",
                   "--set", "keep_trace=true"],
        "scan": ["resolvent-scan", "--xi", "golden", "--set", "mu_max=3", "--set", "cells=16"],
        "spectrum": ["spectrum", "--xi", "golden", "--set", "re_max=12"],
        "car": ["carleman-verify", "--xi", "golden", "--set", "h_count=3"],
        "sim": ["simulate", "--xi", "golden", "--set", "cells=20", "--set", "t_final=0.5"],
        "sweep": ["sweep", "--set", "xi_list=0.3,0.6", "--set", "re_max=8"],
    }
    assert {args[0] for args in runs.values()} == set(COMMANDS)
    # the task modules load before the patch, so a writer bound at import
    # would miss it
    for args in runs.values():
        cli._task(args[0])
    for name in ("write_csv", "write_json_report"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    for out, args in runs.items():
        capsys.readouterr()
        assert run(args + ["--out", tmp_path / out]) == 0
        files = sorted((tmp_path / out).iterdir())
        assert files, out
        assert sorted(p for p in written if p.parent == tmp_path / out) == files, out
        printed = capsys.readouterr().out.splitlines()
        assert sorted(map(Path, printed)) == files, out
    assert len(list(tmp_path.glob("traces/classify_trace_*.csv"))) == 4


def test_inadmissible_weight_is_computation_error(tmp_path):
    code = run([
        "carleman-verify", "--xi", "0.5", "--out", tmp_path,
        "--set", "weight=exp:-2", "--set", "side=left",
    ])
    assert code == 3


@pytest.mark.parametrize("setting", ["h_max=1e80"])
def test_carleman_non_finite_forms_are_computation_errors(tmp_path, setting):
    # (h**2 basis'')**2 overflows: the forms hold inf or nan, whose ratios
    # would be written as 0
    with np.errstate(all="ignore"):
        code = run([
            "carleman-verify", "--xi", "golden", "--out", tmp_path, "--set", "h_count=3",
            "--set", setting,
        ])
    assert code == 3
    assert not list(tmp_path.iterdir())


def test_carleman_rows_on_the_most_gauss_nodes_are_sized_before_the_run(tmp_path, capsys):
    # the node rule doubles n_modes + 3 nodes at most carleman._NODE_DOUBLINGS
    # times, and the size check must name that same count: 400 rows would
    # reach 403 * 64 nodes, past the ceiling with every other array within it
    from pointdamp import carleman

    assert run(["carleman-verify", "--xi", "golden", "--out", tmp_path, "--set", "h_count=1",
                "--set", "n_modes=400"]) == 2
    err = capsys.readouterr().err
    assert f"n_modes * (n_modes + 3) * 2**{carleman._NODE_DOUBLINGS}" in err
    assert not list(tmp_path.iterdir())


def test_carleman_sides_compute_alone(tmp_path):
    # each side sizes its own dual route, and its constant's rows are the
    # same bytes whether the other side runs or not
    rows = {}
    for side in ("both", "left", "right"):
        assert run(["carleman-verify", "--xi", "golden", "--out", tmp_path / side,
                    "--set", f"side={side}"]) == 0
        _, names, rows[side] = read_csv(tmp_path / side / "carleman_sweep.csv")
        assert names == ["side", "h", "sup_ratio", "sup_ratio_half_modes", "outer_share"]
    assert rows["both"] == rows["left"] + rows["right"]
    result = json.loads((tmp_path / "both" / "carleman_report.json").read_text())["result"]
    for side in ("left", "right"):
        alone = json.loads((tmp_path / side / "carleman_report.json").read_text())["result"]
        assert alone == {side: result[side]}


def test_carleman_tiny_h_gives_finite_ratios(tmp_path):
    # no exponential and no negative power of h enters the forms in w, so at
    # h = 1e-100 both sides are finite and the span maximum is O(h)
    assert run([
        "carleman-verify", "--xi", "golden", "--out", tmp_path, "--set", "h_count=3",
        "--set", "h_min=1e-100",
    ]) == 0
    _, _, rows = read_csv(tmp_path / "carleman_sweep.csv")
    for side in ("left", "right"):
        h, sup = np.array([[float(r[1]), float(r[2])] for r in rows if r[0] == side]).T
        assert np.all(sup > 0.0)
        assert sup[0] / h[0] == pytest.approx(sup[1] / h[1], rel=1e-3)


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = golden\nmu_max = 30\nmu_min = 2\n")
    out = tmp_path / "out"
    code = run([
        "classify", "--config", cfg, "--out", out, "--set", "mu_max=40",
    ])
    assert code == 0
    report = json.loads((out / "classify_report.json").read_text())
    assert report["config"]["mu_max"] == 40.0
    assert report["config"]["mu_min"] == 2.0
    assert report["config"]["xi"] == "golden"


def test_missing_config_file_is_config_error(tmp_path):
    assert run(["classify", "--config", tmp_path / "absent.cfg"]) == 2


@pytest.mark.parametrize("out", ["report", "report/sub"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, out, monkeypatch):
    # refused before the task runs, which here would fail the test
    (tmp_path / "report").write_text("not a directory\n")
    monkeypatch.setattr(cli._task("classify"), "run", None)
    assert run(["classify", "--xi", "0.3", "--out", tmp_path / out]) == 2
    assert (tmp_path / "report").read_text() == "not a directory\n"


# ----------------------------------------------------------------- spectrum


def test_spectrum_one_half(tmp_path):
    code = run([
        "spectrum", "--xi", "0.5", "--out", tmp_path,
        "--set", "re_min=0.5", "--set", "re_max=16", "--set", "im_min=-1",
        "--set", "im_max=3",
    ])
    assert code == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert report["result"]["n_roots"] == 5
    assert report["result"]["total_multiplicity"] == 5
    assert report["result"]["spectral_abscissa"] == 0.0
    assert report["result"]["has_real_root"] is True
    schema, columns, rows = read_csv(tmp_path / "spectrum.csv")
    assert schema == "# pointdamp-csv schema=spectrum-roots version=1"
    assert columns == ["re_z", "im_z", "residual", "multiplicity"]
    roots = sorted((complex(float(r[0]), float(r[1])) for r in rows), key=lambda z: z.real)
    ln3 = math.log(3.0)
    expected = [math.pi + 1j * ln3, 2 * math.pi, 3 * math.pi + 1j * ln3,
                4 * math.pi, 5 * math.pi + 1j * ln3]
    for root, ref in zip(roots, expected):
        assert abs(root - ref) < 1e-8
    assert all(int(r[3]) == 1 for r in rows)


@pytest.mark.parametrize("xi, re_range, real", [
    # Im z of golden's root at 317,811 pi is 1.954e-11: small, not real
    ("golden", ("998430", "998436"), False),
    ("0.4", ("0.5", "50"), True),
    # classify's expansion reads 0.4 as 2/5 and this double as irrational
    ("0.400000000001", ("0.5", "50"), False),
    # no position settles on 0 or 1: the smallest Im z here is ~1e-25
    ("1e-13", ("0.5", "50"), False),
    ("0.9999999999999", ("0.5", "50"), False),
], ids=["golden-317811", "0.4", "0.4+1e-12", "1e-13", "1-1e-13"])
def test_spectrum_real_roots_are_those_of_the_rational_form(tmp_path, xi, re_range, real):
    code = run(["spectrum", "--xi", xi, "--out", tmp_path,
                "--set", f"re_min={re_range[0]}", "--set", f"re_max={re_range[1]}"])
    assert code == 0
    result = json.loads((tmp_path / "spectrum.json").read_text())["result"]
    assert result["n_roots"] >= 1
    assert result["has_real_root"] is real
    assert (result["spectral_abscissa"] == 0.0) is real
    if not real:
        assert result["spectral_abscissa"] < 0.0


@pytest.mark.parametrize("tol", ["1e-4", "1e-3"])
def test_spectrum_loose_tol_finds_every_root(tmp_path, tol):
    code = run(["spectrum", "--xi", "golden", "--out", tmp_path,
                "--set", f"tol={tol}", "--set", "re_max=30"])
    assert code == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert report["result"]["n_roots"] == 9
    _, _, rows = read_csv(tmp_path / "spectrum.csv")
    assert all(float(r[2]) <= float(tol) for r in rows)


def test_spectrum_certificate_mismatch_is_computation_error(tmp_path, monkeypatch):
    # each way a root can fail its certificate exits 3 and writes no report:
    # a root on the widened edge of the rectangle (its right edge plus the
    # slack 1e-9 * 3.5 lands on the root near 2 pi) ...
    golden = diophantine.GOLDEN_RATIO_CONJUGATE
    root = characteristic.find_eigenvalues(golden, (5.0, 7.5, -0.5, 3.0))[0].z
    edge = ["--set", "re_min=5", "--set", f"re_max={root.real - 3.5e-9!r}"]
    assert run(["spectrum", "--xi", "golden", "--out", tmp_path / "edge"] + edge) == 3
    assert not (tmp_path / "edge" / "spectrum.csv").exists()
    # ... a disc outside its strip, from seeds one strip off ...
    honest = characteristic.closed_form_seed
    with monkeypatch.context() as patch:
        patch.setattr(characteristic, "closed_form_seed", lambda xi, n: honest(xi, n + 1))
        assert run(["spectrum", "--xi", "golden", "--out", tmp_path / "strip"]) == 3
    assert not (tmp_path / "strip" / "spectrum.csv").exists()
    # ... and a failed Kantorovich test, at a double root
    monkeypatch.setattr(
        characteristic, "_values", lambda xi, eta, z: ((z - 5.0) ** 2, 2.0 * (z - 5.0))
    )
    assert run(["spectrum", "--xi", "golden", "--out", tmp_path / "double"]) == 3
    assert not (tmp_path / "double" / "spectrum.csv").exists()


# ---------------------------------------------------------------- simulate


def test_simulate_produces_monotone_energies(tmp_path):
    code = run([
        "simulate", "--xi", "golden", "--out", tmp_path,
        "--set", "cells=150", "--set", "t_final=5", "--set", "dt=0.002",
        "--set", "sample_every=50",
    ])
    assert code == 0
    schema, columns, rows = read_csv(tmp_path / "energy_trace.csv")
    assert schema == "# pointdamp-csv schema=energy-trace version=1"
    assert columns == ["t", "energy", "dissipated"]
    energies = [float(r[1]) for r in rows]
    assert all(e2 <= e1 + 1e-12 * energies[0] for e1, e2 in zip(energies, energies[1:]))
    # accounting: total energy drop equals the dissipated column
    dissipated = [float(r[2]) for r in rows]
    assert abs((energies[0] - energies[-1]) - dissipated[-1]) < 1e-9 * energies[0]
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    assert report["result"]["energy_initial"] > 0.0
    assert report["result"]["energy_final"] < report["result"]["energy_initial"]
    schema, columns, rows = read_csv(tmp_path / "final_state.csv")
    assert schema == "# pointdamp-csv schema=state-snapshot version=2"
    assert columns == ["u", "v"]
    assert len(rows) == 2 * 150 + 1
    schema, columns, rows = read_csv(tmp_path / "damping_record.csv")
    assert schema == "# pointdamp-csv schema=damping-record version=2"
    assert columns == ["power"]
    assert len(rows) == report["result"]["n_steps"]


def snapshot_nodes(xi, cells):
    """The node of each final_state.csv row, by the Mesh docstring's rule."""
    left = [j * (xi / cells) for j in range(cells)]
    right = [xi + j * ((1.0 - xi) / cells) for j in range(1, cells)]
    return np.array(left + [xi] + right + [1.0])


def test_final_state_rows_are_the_simulated_state_bit_for_bit(tmp_path):
    from pointdamp import simulator

    # the sampling stride splits the march, so it moves the state in the last bits
    cells, t_final, dt, sample_every = 40, 0.5, 0.002, 30
    assert run([
        "simulate", "--xi", "golden", "--out", tmp_path, "--set", f"cells={cells}",
        "--set", f"t_final={t_final}", "--set", f"dt={dt}",
        "--set", f"sample_every={sample_every}", "--set", "fit=false",
    ]) == 0
    mesh = build_mesh(cli.parse_position("golden").value, cells, cells)
    state = simulator.initial_data(mesh, "smooth_bump", mode=2, center=None, width=0.1)
    final, _ = simulator.simulate(state, t_final, dt=dt, damped=True, sample_every=sample_every)
    _, _, rows = read_csv(tmp_path / "final_state.csv")
    u, v = np.array([[float(cell) for cell in r] for r in rows]).T
    assert u.size == mesh.nodes.size
    assert np.array_equal(u, final.u) and np.array_equal(v, final.v)
    # a writer that swapped the columns would fail above
    assert np.count_nonzero(final.u) and not np.array_equal(final.u, final.v)


@pytest.mark.parametrize("xi", [
    "golden", "1/2", repr(float(np.random.default_rng(33).uniform(0.05, 0.95)))
])
@pytest.mark.parametrize("cells", [2, 7, 1000])
def test_report_fixes_the_snapshot_nodes(tmp_path, xi, cells):
    # the x column is gone: result.xi and config.cells rebuild it bit for bit
    assert run([
        "simulate", "--xi", xi, "--out", tmp_path, "--set", f"cells={cells}",
        "--set", "t_final=1e-3", "--set", "fit=false",
    ]) == 0
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    value = cli.parse_position(xi).value
    assert report["result"]["xi"] == value
    nodes = snapshot_nodes(report["result"]["xi"], report["config"]["cells"])
    assert nodes.tobytes() == build_mesh(value, cells, cells).nodes.tobytes()
    _, _, rows = read_csv(tmp_path / "final_state.csv")
    assert len(rows) == nodes.size


@pytest.mark.parametrize("xi", ["golden", "1/3", "0.9"])
@pytest.mark.parametrize("cells", [2, 7, 1000])
def test_default_time_step_is_half_the_smaller_spacing(xi, cells):
    # the task's check is the one writer of the dt = 0 step; simulate takes dt
    from pointdamp.tasks import simulate as simulate_task

    position = cli.parse_position(xi)
    cfg = resolve_config("simulate", {"xi": xi, "cells": str(cells)})
    mesh = build_mesh(position.value, cells, cells)
    assert simulate_task.check(cfg, position) == min(mesh.h_left, mesh.h_right) / 2


def test_damping_record_and_dt_reproduce_the_dissipated_column(tmp_path):
    # the record has no time column: row k is the midpoint (k + 1/2) dt of step k
    assert run([
        "simulate", "--xi", "golden", "--out", tmp_path,
        "--set", "cells=150", "--set", "t_final=5", "--set", "dt=0.002",
        "--set", "sample_every=50", "--set", "fit=false",
    ]) == 0
    result = json.loads((tmp_path / "simulate_report.json").read_text())["result"]
    schema, columns, rows = read_csv(tmp_path / "damping_record.csv")
    assert (schema, columns) == ("# pointdamp-csv schema=damping-record version=2", ["power"])
    assert len(rows) == result["n_steps"]
    power = np.array([float(cell) for (cell,) in rows])
    _, _, samples = read_csv(tmp_path / "energy_trace.csv")
    times, dissipated = (np.array([float(r[i]) for r in samples]) for i in (0, 2))
    steps = np.rint(times / result["dt"]).astype(int)
    assert steps[-1] == result["n_steps"]
    cumulative = np.concatenate(([0.0], np.cumsum(power))) * result["dt"]
    assert np.array_equal(cumulative[steps], dissipated)


def test_simulate_undamped_conserves(tmp_path):
    code = run([
        "simulate", "--xi", "0.5", "--out", tmp_path,
        "--set", "cells=150", "--set", "t_final=3", "--set", "dt=0.002",
        "--set", "damped=false", "--set", "initial=fourier_mode",
        "--set", "mode=2", "--set", "fit=false",
    ])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "energy_trace.csv")
    energies = [float(r[1]) for r in rows]
    assert abs(energies[-1] / energies[0] - 1.0) < 1e-10


def test_simulate_unknown_initial_is_config_error(tmp_path):
    assert run([
        "simulate", "--xi", "0.5", "--out", tmp_path, "--set", "initial=spike",
    ]) == 2


# ----------------------------------------------------------- resolvent scan


def test_resolvent_scan_csv(tmp_path):
    code = run([
        "resolvent-scan", "--xi", "golden", "--out", tmp_path,
        "--set", "mu_min=2", "--set", "mu_max=10", "--set", "mu_step=1",
        "--set", "cells=96", "--set", "probes=2",
    ])
    assert code == 0
    schema, columns, rows = read_csv(tmp_path / "resolvent_scan.csv")
    assert schema == "# pointdamp-csv schema=resolvent-scan version=1"
    assert columns == ["mu", "norm_estimate"]
    assert len(rows) == 9
    report = json.loads((tmp_path / "resolvent_scan.json").read_text())
    assert report["result"]["growth_constant"] > 0.0
    assert report["result"]["n_resonant"] == 0
    assert report["result"]["n_grid"] == 9


def test_resolvent_scan_single_probe(tmp_path):
    # probes=1 solves the near-resonant probe alone, with no random stack
    code = run([
        "resolvent-scan", "--xi", "golden", "--out", tmp_path,
        "--set", "mu_min=2", "--set", "mu_max=10", "--set", "mu_step=1",
        "--set", "cells=64", "--set", "probes=1",
    ])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "resolvent_scan.csv")
    assert len(rows) == 9
    xi, _ = diophantine.parse_actuator_position("golden")
    mesh = build_mesh(xi, 64, 64)
    for mu, norm in rows:
        probe = frequency.resonant_forcing(mesh, float(mu))
        assert float(norm) == frequency.resolvent_norm_lower_bound(xi, float(mu), [probe])


@pytest.mark.parametrize("args", [
    ["resolvent-scan", "--xi", "golden"],
    ["sweep", "--set", "task=resolvent-scan", "--set", "xi_list=golden"],
], ids=lambda args: args[0])
def test_resolvent_scan_refuses_the_trivial_root(tmp_path, args):
    # near the trivial zero mu = 0 the closed form loses accuracy (the
    # interface residuals grow as mu falls), so a scan may not start there
    assert run(args + ["--set", "mu_min=1e-8", "--set", "mu_max=1", "--out", tmp_path]) == 2
    assert not list(tmp_path.iterdir())


def test_resolvent_scan_from_the_lowest_frequency(tmp_path):
    assert run([
        "resolvent-scan", "--xi", "golden", "--out", tmp_path,
        "--set", "mu_min=1e-3", "--set", "mu_max=1",
    ]) == 0
    _, _, rows = read_csv(tmp_path / "resolvent_scan.csv")
    assert float(rows[0][0]) == 1e-3
    assert all(0.0 < float(norm) < math.inf for _, norm in rows)
    report = json.loads((tmp_path / "resolvent_scan.json").read_text())
    assert report["result"]["n_resonant"] == 0



def test_resolvent_scan_with_a_failing_child_exits_3(tmp_path, monkeypatch, capsys):
    # 3 blocks of 48 frequencies at 32 cells, split over 2 processes; the
    # failure enters at the bound every block computes
    parent = os.getpid()
    bound = frequency._block_bounds

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise MemoryError("no room")
        return bound(*args)

    monkeypatch.setattr(frequency, "_block_bounds", fails_in_a_child)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert run(["resolvent-scan", "--xi", "golden", "--out", tmp_path, "--set", "cells=32"]) == 3
    assert "computation error: RuntimeError" in capsys.readouterr().err
    assert not (tmp_path / "resolvent_scan.csv").exists()


def test_default_resolvent_scan_splits_on_two_cpus(tmp_path, monkeypatch):
    # 119 frequencies in 40 blocks of 3: one child on 2 usable CPUs, none on
    # 1, and the same table both ways
    forked = record_forks(monkeypatch)
    tables = []
    for cpus, children in ((1, 0), (2, 1)):
        _on_cpus(monkeypatch, cpus)
        assert run(["resolvent-scan", "--xi", "golden", "--out", tmp_path / str(cpus)]) == 0
        assert len(forked) == children
        tables.append((tmp_path / str(cpus) / "resolvent_scan.csv").read_bytes())
    assert_reaped(forked)
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 2 + 119

# ---------------------------------------------------------- carleman verify


def test_carleman_verify_left(tmp_path):
    code = run([
        "carleman-verify", "--xi", "golden", "--out", tmp_path,
        "--set", "side=left", "--set", "h_count=5",
    ])
    assert code == 0
    report = json.loads((tmp_path / "carleman_report.json").read_text())
    side = report["result"]["left"]
    assert side["c_hat"] > side["c_hat_half_modes"] > 0.0
    assert all(o > 1.5 for o in side["dual_route_orders"])
    # the default weight has phi'' = 2, so the two boundary readings differ:
    # on the 22 Gauss nodes the constant's forms settle on, the curvature one
    # is rounding and the plain one 6.0e-5
    assert side["gauss_nodes"] == 22
    assert side["square_identity_residual_curvature"] < 1e-4
    assert side["square_identity_residual_plain"] < 1e-4
    # one row per h: the span maximum, that of the leading half of the modes,
    # and the outer boundary term's share of the maximiser's left-hand side
    header, columns, rows = read_csv(tmp_path / "carleman_sweep.csv")
    assert header == "# pointdamp-csv schema=carleman-sweep version=3"
    assert columns == ["side", "h", "sup_ratio", "sup_ratio_half_modes", "outer_share"]
    assert all(r[0] == "left" for r in rows)
    assert len(rows) == 5
    sup, half, share = np.array([[float(v) for v in r[2:]] for r in rows]).T
    assert side["c_hat"] == max(sup)
    assert side["c_hat_half_modes"] == max(half)
    assert np.all((0.0 < share) & (share < 1.0))


@pytest.mark.parametrize("xi, weight", [
    ("golden", "default"), ("0.41421356237309515", "default"), ("1/2", "default"),
    ("1/3", "exp:3"),
])
def test_carleman_identities_are_exact_to_rounding(tmp_path, xi, weight):
    # on the Gauss nodes of the constant's forms the identities are exact for
    # the default weights and settled for exp:3: what is left is rounding,
    # (2 n_modes + 4)^2 eps at most, while the plain reading of the square
    # expansion's mixed boundary term stays off by far more
    assert run(["carleman-verify", "--xi", xi, "--out", tmp_path,
                "--set", f"weight={weight}"]) == 0
    result = json.loads((tmp_path / "carleman_report.json").read_text())["result"]
    bound = (2 * 8 + 4) ** 2 * np.finfo(float).eps
    for side in ("left", "right"):
        checks = result[side]
        assert max(checks["ibp_residuals"]) <= bound, side
        assert checks["square_identity_residual_curvature"] <= bound, side
        if xi == "golden":
            assert checks["square_identity_residual_plain"] >= 1e-6, side


@pytest.mark.parametrize("setting, lifted", [
    ("weight=exp:10.5", ["weight=exp:10.5", "check_h=0.5"]), ("check_h=2e-5", ["check_h=2e-4"]),
], ids=["weight=exp:10.5", "check_h=2e-5"])
def test_carleman_dual_route_refusal_names_the_keys_that_lift_it(tmp_path, capsys, setting,
                                                                  lifted):
    # at golden the left side's grids resolving exp(+-phi/h) would pass 10^6
    # cells: a computation error, before any grid is built, that names what
    # a command-line user can change; a larger check_h runs, at order 2
    assert run(["carleman-verify", "--xi", "golden", "--out", tmp_path / "refused",
                "--set", setting]) == 3
    err = capsys.readouterr().err
    assert "computation error: ValueError: the left dual route needs" in err
    assert "a larger check_h lifts the limit" in err
    assert not (tmp_path / "refused").exists()
    settings = [item for value in lifted for item in ("--set", value)]
    assert run(["carleman-verify", "--xi", "golden", "--out", tmp_path / "lifted",
                *settings]) == 0
    result = json.loads((tmp_path / "lifted" / "carleman_report.json").read_text())["result"]
    for side in ("left", "right"):
        assert all(1.9 <= o <= 2.2 for o in result[side]["dual_route_orders"]), side


# (xi, settings): the dual route reads second order wherever it runs, and the
# configs whose grids would pass the ceilings are refused, writing nothing
DUAL_ROUTE_RUNS = [
    ("golden", []), ("0.41421356237309515", []), ("1/2", []), ("golden", ["n_modes=32"]),
    ("0.99999", []), ("1e-5", []), ("1/3", ["weight=exp:3"]), ("golden", ["weight=exp:3"]),
    ("golden", ["weight=exp:6"]), ("golden", ["check_h=1e-3"]),
]
DUAL_ROUTE_REFUSALS = [
    ("golden", ["weight=exp:10"]), ("golden", ["weight=exp:10.5"]), ("golden", ["check_h=2e-5"]),
    ("golden", ["weight=exp:20", "check_h=1"]),
]


@pytest.mark.parametrize("xi, settings", DUAL_ROUTE_RUNS + DUAL_ROUTE_REFUSALS,
                         ids=lambda value: value if isinstance(value, str) else "-".join(value))
def test_carleman_dual_route_orders_are_second_order(tmp_path, capsys, xi, settings):
    args = [item for value in settings for item in ("--set", value)]
    code = run(["carleman-verify", "--xi", xi, "--out", tmp_path / "out", *args])
    if (xi, settings) in DUAL_ROUTE_REFUSALS:
        assert code == 3
        assert "check_h" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        return
    assert code == 0
    result = json.loads((tmp_path / "out" / "carleman_report.json").read_text())["result"]
    for side in ("left", "right"):
        assert all(1.9 <= o <= 2.2 for o in result[side]["dual_route_orders"]), side


@pytest.mark.parametrize("xi, side, length", [
    ("1e-7", "left", "1e-07"), ("0.9999999", "right", "1e-07"), ("1e-6", "left", "1e-06"),
    ("1.0626585691826105e-06", "left", "1.06e-06"), ("1e-80", "left", "1e-80"),
    ("1e-300", "left", "1e-300"),
])
def test_carleman_short_side_is_refused(tmp_path, capsys, xi, side, length):
    # the route's exponent phi_j - phi_k cancels near max|phi|, and h / dx**2
    # amplifies its rounding: on a side this short the finest grid's error
    # is rounding (at 1.06e-6 the left orders read [1.971, 1.753]), and at
    # 1e-300 dx**2 underflows.  Refused with the side and its length named,
    # writing nothing and raising no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["carleman-verify", "--xi", xi, "--out", tmp_path / "out"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"ValueError: the {side} side, {length} long, is too short for the dual route" in err
    assert not (tmp_path / "out").exists()


def test_carleman_constant_does_not_fall_with_more_modes(tmp_path):
    # the 8 modes are the leading rows of the 32, so the span maximum can only
    # grow; the dual route runs on the same 8-mode test function at both
    results = {}
    for n_modes in (8, 32):
        out = tmp_path / str(n_modes)
        assert run(["carleman-verify", "--xi", "golden", "--out", out,
                    "--set", f"n_modes={n_modes}"]) == 0
        results[n_modes] = json.loads((out / "carleman_report.json").read_text())["result"]
    for side in ("left", "right"):
        assert results[32][side]["c_hat"] >= results[8][side]["c_hat"], side
        for key in ("dual_route_cells", "dual_route_errors", "dual_route_orders"):
            assert results[32][side][key] == results[8][side][key], (side, key)


def test_readme_names_the_carleman_report_keys(tmp_path):
    assert run(["carleman-verify", "--xi", "golden", "--out", tmp_path,
                *SMALL_TASK_CONFIGS["carleman-verify"]]) == 0
    result = json.loads((tmp_path / "carleman_report.json").read_text())["result"]
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    named = re.search(r"`carleman_report.json` carries, per side, ([^.]*)\.", readme).group(1)
    assert set(re.findall(r"`([a-z_]+)`", named)) == set(result["left"]) == set(result["right"])


# -------------------------------------------------------------------- sweep


def test_sweep_serial_ordering(tmp_path):
    code = run([
        "sweep", "--out", tmp_path, "--set", "task=spectrum",
        "--set", "xi_list=0.4,0.2,0.3", "--set", "re_max=12",
    ])
    assert code == 0
    _, columns, rows = read_csv(tmp_path / "sweep_spectrum.csv")
    assert columns[0] == "xi"
    xis = [float(r[0]) for r in rows]
    assert xis == sorted(xis)
    assert xis == [0.2, 0.3, 0.4]


def _on_cpus(monkeypatch, count):
    """Make os.sched_getaffinity, and so processes.divide, read count usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    out_a = tmp_path / "serial"
    out_b = tmp_path / "parallel"
    # a growth function other than the identity is part of every job's plan
    args = [
        "sweep", "--set", "task=classify", "--set", "xi_list=0.3,0.7,355/1131",
        "--set", "mu_max=50", "--set", "liouville_phi=power_log:1,0.5",
    ]
    _on_cpus(monkeypatch, 1)
    assert run(args + ["--out", out_a]) == 0
    _on_cpus(monkeypatch, 2)
    assert run(args + ["--out", out_b]) == 0
    a = (out_a / "sweep_classify.csv").read_text()
    b = (out_b / "sweep_classify.csv").read_text()
    assert a == b
    # the exact position reaches the sweep's child as its Fraction
    _, columns, rows = read_csv(out_b / "sweep_classify.csv")
    assert dict(zip(columns, rows[0]))["is_rational"] == "true"


@pytest.mark.parametrize("xi", ["golden", "1/3", "355/1131", "0.41421356237309515"])
def test_swept_classify_row_matches_the_single_run(tmp_path, xi):
    # the sweep hands each job the position the core parsed, exact form and
    # all, so a swept 355/1131 is as rational as a single one
    assert run(["classify", "--xi", xi, "--set", "mu_max=50", "--out", tmp_path / "one"]) == 0
    assert run(["sweep", "--set", "task=classify", "--set", f"xi_list={xi}",
                "--set", "mu_max=50", "--out", tmp_path / "swept"]) == 0
    single = json.loads((tmp_path / "one" / "classify_report.json").read_text())["result"]
    [row] = json.loads((tmp_path / "swept" / "sweep_classify.json").read_text())["result"]["rows"]
    conditions = single["conditions"]
    assert row == {
        "xi": single["xi"],
        "is_rational": single["is_rational"],
        "constant_type": single["constant_type"],
        "max_partial_quotient": single["max_partial_quotient"],
        "exp_grid_verdict": conditions["exp_grid"]["verdict"],
        "poly_grid_verdict": conditions["poly_grid"]["verdict"],
    }


def test_resolvent_scan_sweep_forks_only_at_the_sweep_level(tmp_path, monkeypatch):
    # each scan (5 blocks at 32 cells) would split on its own; inside the
    # sweep's parts it runs in one process, and a scan that forked beside
    # the sweep's children would fail its row
    parent = os.getpid()
    fork = os.fork

    def fork_in_the_parent_only():
        if os.getpid() != parent:
            raise AssertionError("a sweep's child forked")
        return fork()

    monkeypatch.setattr(os, "fork", fork_in_the_parent_only)
    forked = record_forks(monkeypatch)
    args = ["sweep", "--set", "task=resolvent-scan", "--set", "xi_list=0.3,golden,0.7",
            "--set", "mu_max=120", "--set", "cells=32"]
    _on_cpus(monkeypatch, 1)
    assert run(args + ["--out", tmp_path / "serial"]) == 0
    assert len(forked) == 0
    _on_cpus(monkeypatch, 2)
    assert run(args + ["--out", tmp_path / "split"]) == 0
    assert len(forked) == 1
    assert_reaped(forked)
    serial = (tmp_path / "serial" / "sweep_resolvent-scan.csv").read_text()
    assert serial == (tmp_path / "split" / "sweep_resolvent-scan.csv").read_text()
    assert len(serial.splitlines()) == 5


def test_a_job_that_fails_in_a_child_fails_the_sweep(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    task = cli._task("classify")
    run_task = task.run

    def fails_in_a_child(cfg, xi, plan):
        if os.getpid() != parent:
            raise ArithmeticError(f"no verdict at {xi.value}")
        return run_task(cfg, xi, plan)

    monkeypatch.setattr(task, "run", fails_in_a_child)
    forked = record_forks(monkeypatch)
    _on_cpus(monkeypatch, 2)
    assert run(["sweep", "--out", tmp_path, "--set", "task=classify", "--set", "mu_max=20",
                "--set", "xi_list=0.3,0.4,0.7"]) == 3
    assert len(forked) == 1
    assert_reaped(forked)
    assert "ArithmeticError: no verdict at 0.7" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_an_interrupted_sweep_leaves_no_child(tmp_path, monkeypatch):
    # the first job runs alone, the second is the parent's part and the last
    # two are the child's
    parent = os.getpid()
    task = cli._task("classify")
    run_task = task.run

    def interrupted(cfg, xi, plan):
        if os.getpid() != parent:
            time.sleep(60)  # unless the parent kills it
        elif xi.value == 0.4:
            raise KeyboardInterrupt
        return run_task(cfg, xi, plan)

    monkeypatch.setattr(task, "run", interrupted)
    forked = record_forks(monkeypatch)
    _on_cpus(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(["sweep", "--out", tmp_path, "--set", "task=classify", "--set", "mu_max=20",
             "--set", "xi_list=0.3,0.4,0.5,0.6"])
    assert time.monotonic() - started < 30.0
    assert len(forked) == 1
    assert_reaped(forked)


def test_sweep_unknown_task_is_config_error(tmp_path):
    assert run(["sweep", "--out", tmp_path, "--set", "task=everything"]) == 2


def test_sweep_bad_xi_list_is_config_error(tmp_path):
    assert run(["sweep", "--out", tmp_path, "--set", "xi_list=0.3,abc"]) == 2
    assert run(["sweep", "--out", tmp_path, "--set", "xi_list=0.3,1/0"]) == 2


def test_sweep_position_counts_have_a_ceiling():
    limit = sweep.MAX_SWEEP_POSITIONS
    resolve_config("sweep", {"xi_count": str(limit), "xi_list": ",".join(["0.5"] * limit)})
    for raw in ({"xi_count": str(limit + 1)}, {"xi_list": ",".join(["0.5"] * (limit + 1))}):
        with pytest.raises(ConfigError, match=next(iter(raw))):
            resolve_config("sweep", raw)


@pytest.fixture
def split_parts(monkeypatch):
    """The part count of every processes.split call, each run as it would be."""
    parts = []
    split = processes.split

    def recording_split(units, work):
        parts.append(len(processes.divide(units)))
        return split(units, work)

    monkeypatch.setattr(processes, "split", recording_split)
    return parts


@pytest.mark.parametrize("preset", [None, "2"])
def test_sweep_runs_on_one_blas_thread(tmp_path, preset):
    # a pool of one OpenBLAS thread per CPU in each process of a sweep would
    # contend for the CPUs: from the command line numpy loads on one thread,
    # unless the environment says otherwise, and the sweep's split sets back
    # the count it found
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    probe = (
        "import ctypes, glob, os\n"
        "from pointdamp.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"code = main(['sweep', '--out', {str(tmp_path)!r}, '--set', 'task=carleman-verify',\n"
        "             '--set', 'xi_list=0.3,0.5,0.6', '--set', 'h_count=3'])\n"
        "import numpy\n"
        "libraries = glob.glob(numpy.__path__[0] + '.libs/libscipy_openblas*')\n"
        "threads = (ctypes.CDLL(libraries[0]).scipy_openblas_get_num_threads64_()\n"
        "           if libraries else None)\n"
        "print(code, os.environ['OPENBLAS_NUM_THREADS'], threads)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    code, variable, threads = done.stdout.split()[-3:]
    assert (code, variable) == ("0", preset or "1")
    assert threads in (variable, "None")


def test_numpy_tasks_run_on_one_blas_thread(tmp_path):
    # carleman-verify's residuals follow OpenBLAS's thread count (at 1 and 2
    # threads its golden report differs in the last digits), so from the
    # command line a numpy task loads numpy on one thread, unless the
    # environment names a count
    probe = (
        "import ctypes, glob, hashlib, os, sys\n"
        "from pathlib import Path\n"
        "from pointdamp.cli import main\n"
        "os.chdir(sys.argv[1])\n"
        "for args in (['simulate', '--set', 'cells=40', '--set', 't_final=1'],\n"
        "             ['carleman-verify']):\n"
        "    assert main([*args, '--xi', 'golden', '--out', 'run']) == 0\n"
        "import numpy\n"
        "[library] = glob.glob(numpy.__path__[0] + '.libs/libscipy_openblas*')\n"
        "print(ctypes.CDLL(library).scipy_openblas_get_num_threads64_(),\n"
        "      *(hashlib.sha256(path.read_bytes()).hexdigest()\n"
        "        for path in sorted(Path('run').iterdir())))\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    printed = {}
    for preset in ("unset", "1", "2"):
        (tmp_path / preset).mkdir()
        done = subprocess.run(
            [sys.executable, "-c", probe, tmp_path / preset], capture_output=True, text=True,
            env=env if preset == "unset" else dict(env, OPENBLAS_NUM_THREADS=preset), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        threads, *files = done.stdout.splitlines()[-1].split()
        printed[preset] = int(threads), files
    assert len(printed["1"][1]) == 6
    assert printed["unset"] == printed["1"] == (1, printed["1"][1])
    assert printed["2"][0] == 2


def test_sweep_pool_has_no_more_workers_than_positions(tmp_path, monkeypatch, split_parts):
    _on_cpus(monkeypatch, 8)
    assert run([
        "sweep", "--out", tmp_path, "--set", "task=classify", "--set", "xi_list=0.2,0.3,0.4",
        "--set", "mu_max=20",
    ]) == 0
    # the first job alone, then the other two in min(CPUs, 2) parts
    assert split_parts == [1, 2]


@pytest.mark.parametrize("task_args", [
    ["task=classify", "mu_min=5", "mu_max=2"],
    ["task=classify", "liouville_phi=exponential:-1"],
    ["task=resolvent-scan", "mu_step=1e-9"],
    ["task=spectrum", "re_max=1e9"],
    ["task=carleman-verify", "h_count=1000000"],
    ["task=carleman-verify", "h_min=0.2", "h_max=0.1"],
    ["task=carleman-verify", "weight=bogus"],
    # at dt = 0 the step count depends on the position: 0.4 is fine, 1e-4 is not
    ["task=simulate", "cells=1000", "t_final=10", "dt=0"],
], ids=lambda args: "-".join(args))
def test_sweep_checks_every_position_before_any_job(tmp_path, split_parts, task_args):
    settings = [item for pair in zip(itertools.repeat("--set"), task_args) for item in pair]
    assert run(["sweep", "--out", tmp_path, "--set", "xi_list=0.4,1e-4", *settings]) == 2
    assert split_parts == []
    assert not list(tmp_path.iterdir())


# each task at desk-scale sizes
SMALL_RUNS = {
    "classify": ["mu_max=20", "liouville_m_max=100"],
    "resolvent-scan": ["mu_max=3", "cells=16", "probes=2"],
    "spectrum": ["re_max=8"],
    "carleman-verify": ["h_count=3"],
    "simulate": ["cells=16", "t_final=0.2"],
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_each_position_is_checked_once(tmp_path, monkeypatch, split_parts, command):
    # main checks a run's position, the sweep each of its positions, and the
    # task's run computes from the plan that check returned
    task = cli._task(command)
    checked = []
    check = task.check

    def counting_check(cfg, xi):
        checked.append(xi.value)
        return check(cfg, xi)

    monkeypatch.setattr(task, "check", counting_check)
    settings = [
        item for pair in zip(itertools.repeat("--set"), SMALL_RUNS[command]) for item in pair
    ]
    assert run([command, "--xi", "0.3", "--out", tmp_path / "one", *settings]) == 0
    assert checked == [0.3]
    for cpus in (1, 2):
        checked.clear()
        split_parts.clear()
        _on_cpus(monkeypatch, cpus)
        assert run([
            "sweep", "--out", tmp_path / f"sweep{cpus}", "--set", f"task={command}",
            "--set", "xi_list=0.6,0.3,0.45", *settings,
        ]) == 0
        assert checked == [0.6, 0.3, 0.45]
        # in one process, or the other two jobs in a part each (a scan's
        # own split runs in one part inside the sweep's)
        assert split_parts[0] == 1 and max(split_parts) == cpus


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("args", [
    ["classify", "--xi", "0.3", "--set", "mu_max=50", "--set", "keep_trace=true"],
    ["resolvent-scan", "--xi", "0.3", "--set", "mu_min=3", "--set", "mu_max=8",
     "--set", "mu_step=1", "--set", "cells=64", "--set", "probes=2"],
    ["spectrum", "--xi", "0.3", "--set", "re_max=12"],
    ["carleman-verify", "--xi", "0.3", "--set", "h_count=4"],
    ["simulate", "--xi", "0.3", "--set", "cells=60", "--set", "t_final=2",
     "--set", "sample_every=10"],
    ["sweep", "--set", "task=simulate", "--set", "xi_list=0.3,0.6", "--set", "cells=40",
     "--set", "t_final=1"],
], ids=lambda args: args[0])
def test_reports_are_deterministic(tmp_path, args):
    args = args + ["--out", tmp_path, "--seed", "5"]
    assert run(args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(first) >= 2
    assert run(args) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_report_digests_repeat(tmp_path):
    invocations = [
        (None, ["spectrum", "--xi", "golden", "--set", "re_max=12", "--seed", "3"]),
        (2, ["sweep", "--set", "task=simulate", "--set", "xi_list=0.3,1/2", "--set", "cells=20",
             "--set", "t_final=0.5"]),
    ]
    first = digests(tmp_path / "a", invocations)
    assert len(first) == 4
    for line in first:
        _, size, path = line.split("  ")
        assert int(size) == (tmp_path / "a" / path).stat().st_size
    assert digests(tmp_path / "b", invocations) == first


def test_report_digest_final_state_ignores_sample_every(tmp_path):
    # the list's two simulate runs that differ only in sample_every write
    # the same final state, byte for byte
    pair = [(cpus, args) for cpus, args in INVOCATIONS if args[-1].startswith("sample_every=")]
    assert [args[-1] for _, args in pair] == ["sample_every=1", "sample_every=100"]
    assert pair[0][1][:-1] == pair[1][1][:-1]
    states = [line.split("  ")[0] for line in digests(tmp_path, pair)
              if line.endswith("/final_state.csv")]
    assert len(states) == 2 and states[0] == states[1]


def test_report_digest_json_files_parse_strictly(tmp_path):
    # JSON has no NaN or Infinity, and digests refuses a file that holds
    # one: classify at 1/2 (exact resonances, log weights of -inf) among
    # them.  The default sweeps, each run on a set number of CPUs, go
    # through digests in test_report_digest_sweeps_match_across_workers; the
    # default simulate (t_final=200, ~3 s) writes its report as the
    # benchmark's t_final=5 runs do
    default_simulate = (None, ["simulate", "--xi", "golden"])
    assert default_simulate in INVOCATIONS
    entries = [entry for entry in INVOCATIONS if entry[0] is None and entry != default_simulate]
    lines = digests(tmp_path, entries)
    assert sum(line.endswith(".json") for line in lines) == 50
    half = entries.index((None, ["classify", "--xi", "1/2", "--seed", "1"]))
    report = json.loads((tmp_path / f"run{half:02d}" / "classify_report.json").read_text())
    for name in ("exp_grid", "poly_grid"):
        assert report["result"]["conditions"][name]["fitted_constants"]["log_inf_weighted"] is None
    refused = tmp_path / "refused"
    refused.mkdir()
    (refused / "report.json").write_text('{"log_inf_weighted": -Infinity}\n')
    with pytest.raises(ValueError, match="not standard JSON: -Infinity"):
        digests(refused, [])


def test_report_digest_invocations_resolve(tmp_path):
    # the fixed list stays valid as the schemas change, its config files too
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    for _, args in INVOCATIONS:
        parsed = cli._parse_args(args)
        raw = cli.load_config_file(tmp_path / parsed.config) if parsed.config else {}
        raw |= dict(item.split("=", 1) for item in parsed.overrides)
        if parsed.xi is not None:
            raw["xi"] = parsed.xi
        resolve_config(parsed.command, raw)


def test_report_digest_sweeps_match_across_workers(tmp_path):
    # each default sweep writes the same files, byte for byte, on one, two
    # and three usable CPUs: one process, or the first job alone and then a
    # part in each process
    counts = {}
    for cpus, args in INVOCATIONS:
        if cpus is not None:
            counts.setdefault(tuple(args), []).append(cpus)
    assert list(counts) == [tuple(args) for args in SWEEPS]
    assert list(counts.values()) == [[1, 2]] * 4 + [[1, 2, 3]]
    for i, (args, cpus) in enumerate(counts.items()):
        written = [digests(tmp_path / f"{i}-{count}", [(count, list(args))]) for count in cpus]
        assert len(written[0]) == 2
        assert all(lines == written[0] for lines in written[1:]), args


def test_report_digests_compare(tmp_path):
    old = ["a" * 64 + "  120  run00/final_state.csv", "b" * 64 + "  40  run00/report.json",
           "c" * 64 + "  7  run01/gone.csv"]
    new = ["d" * 64 + "  80  run00/final_state.csv", "b" * 64 + "  40  run00/report.json",
           "e" * 64 + "  9  run02/new.csv"]
    assert compare(old, new) == [
        "run00/final_state.csv  120 -> 80 (-40)", "run01/gone.csv  7 -> -", "run02/new.csv  - -> 9",
    ]
    # same size, other bytes: still moved
    assert compare(old[:1], ["f" * 64 + "  120  run00/final_state.csv"]) == [
        "run00/final_state.csv  120 -> 120 (+0)",
    ]
    assert compare(old, list(reversed(old))) == []
    script = Path(__file__).with_name("report_digests.py")
    for name, lines in (("old.txt", old), ("new.txt", new)):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    moved = run_interpreter(script, "--compare", tmp_path / "old.txt", tmp_path / "new.txt")
    assert moved.returncode == 1
    assert moved.stdout.splitlines() == compare(old, new)
    same = run_interpreter(script, "--compare", tmp_path / "old.txt", tmp_path / "old.txt")
    assert (same.returncode, same.stdout) == (0, "")


# every CSV schema the tasks write, at its version: raise a version with its columns
CSV_SCHEMA_VERSIONS = {
    "classify-trace": 1, "liouville-trace": 1, "resolvent-scan": 1, "spectrum-roots": 1,
    "carleman-sweep": 3, "energy-trace": 1, "damping-record": 2, "state-snapshot": 2,
    **{f"sweep-{task}": 1 for task in COMMANDS if task != "sweep"},
}
SMALL_TASK_CONFIGS = {
    "classify": ["--set", "mu_max=20", "--set", "keep_trace=true"],
    "resolvent-scan": ["--set", "mu_max=3", "--set", "cells=16"],
    "spectrum": ["--set", "re_max=12"],
    "carleman-verify": ["--set", "h_count=3"],
    "simulate": ["--set", "cells=20", "--set", "t_final=0.5"],
}


def test_csv_schema_versions(tmp_path):
    runs = [[task, "--xi", "golden", *small] for task, small in SMALL_TASK_CONFIGS.items()]
    runs += [["sweep", "--set", f"task={task}", "--set", "xi_list=0.3", *small]
             for task, small in SMALL_TASK_CONFIGS.items()]
    for i, args in enumerate(runs):
        assert run([*args, "--out", tmp_path / f"run{i:02d}"]) == 0, args
    found = {}
    for path in tmp_path.rglob("*.csv"):
        header = path.read_text().partition("\n")[0]
        schema, version = re.fullmatch(r"# pointdamp-csv schema=(\S+) version=(\d+)", header).groups()
        assert found.setdefault(schema, int(version)) == int(version), path
    assert found == CSV_SCHEMA_VERSIONS
    # the README names the schemas above version 1, each at its version
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    named = re.search(r"\(((?:(?:`[a-z-]+`,? (?:and )?)+(?:is |are )?at \d+, )+)"
                      r"every other schema at 1\)", readme)
    readme_versions = {
        schema: int(version)
        for schemas, version in re.findall(r"((?:`[a-z-]+`,? (?:and )?)+)(?:is |are )?at (\d+)",
                                           named.group(1))
        for schema in re.findall(r"`([a-z-]+)`", schemas)
    }
    assert readme_versions == {
        schema: version for schema, version in CSV_SCHEMA_VERSIONS.items() if version > 1
    }


def test_no_temp_files_left_behind(tmp_path):
    assert run([
        "classify", "--xi", "0.25", "--out", tmp_path, "--set", "mu_max=50",
    ]) == 0
    leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
    assert leftovers == []


def test_csv_stream_failure_leaves_no_file(tmp_path):
    from pointdamp.cli import write_csv

    def rows():
        yield (1.0, 2.0)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_csv(tmp_path / "partial.csv", "test", ["a", "b"], rows())
    assert list(tmp_path.iterdir()) == []


def test_csv_chunks_match_cell_formatting(tmp_path):
    from pointdamp.cli import _CSV_CHUNK_ROWS, _csv_cell, write_csv

    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, -2.5e-17]
    floats = [
        *specials, *map(np.float64, specials), *map(np.float32, [0.1, -0.0, math.inf, 3.4e38])
    ]
    float_rows = [(floats[i % len(floats)], floats[(7 * i) % len(floats)], i * 0.5)
                  for i in range(2 * _CSV_CHUNK_ROWS + 5)]
    mixed_rows = [
        ("left", 0, True, 0.25, np.int64(-3), np.bool_(False)),
        ("right", 10**20, False, math.nan, np.int32(7), np.bool_(True)),
        # a column whose cell types differ between rows
        ("both", 1.5, 2, np.float32(0.1), True, None),
    ]
    for name, rows in (("floats", float_rows), ("mixed", mixed_rows)):
        path = tmp_path / f"{name}.csv"
        columns = [f"c{j}" for j in range(len(rows[0]))]
        write_csv(path, "test", columns, (iter(row) for row in rows))
        expected = "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
        header = "# pointdamp-csv schema=test version=1\n" + ",".join(columns) + "\n"
        assert path.read_text(encoding="utf-8") == header + expected, name


def test_csv_refuses_a_row_whose_cells_differ_from_its_columns(tmp_path):
    from pointdamp.cli import _CSV_CHUNK_ROWS, write_csv

    full = [(1.0, 2.0)] * (_CSV_CHUNK_ROWS + 1)
    # short and long rows, in the first chunk and after a full one is written
    for ragged in ([(1.0, 2.0), (3.0,)], [(4.0, 5.0, 6)], full + [(3.0,)]):
        with pytest.raises(ValueError, match="2 columns"):
            write_csv(tmp_path / "ragged.csv", "test", ["c0", "c1"], iter(ragged))
        assert list(tmp_path.iterdir()) == []


def test_float_format_roundtrips(tmp_path):
    assert run([
        "spectrum", "--xi", "0.5", "--out", tmp_path,
        "--set", "re_min=5", "--set", "re_max=7",
        "--set", "im_min=-0.5", "--set", "im_max=0.5",
    ]) == 0
    _, _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 1
    # %.17g output parses back to the computed double
    assert float(rows[0][0]) == pytest.approx(2 * math.pi, abs=1e-9)
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-9)
