import inspect
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pointdamp
from pointdamp import characteristic, diophantine, frequency
from pointdamp import cli, tasks
from pointdamp.cli import (
    COMMANDS, COMMON_SCHEMA, POSITION_SCHEMA, ConfigError, main, resolve_config,
)
from pointdamp.mesh import build_mesh
from pointdamp.tasks import sweep
from pointdamp.tasks.sweep import _linspace

from report_digests import INVOCATIONS, digests


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
    assert "'concurrent.futures'" not in loaded
    assert "'numpy'" not in loaded

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
    assert "'numpy'" not in done.stdout
    # each task loads its own module, alone or swept (with the sweep's), and no other
    assert task_modules(done.stdout) == {"classify", "sweep"}
    assert (tmp_path / "b" / "classify_trace_liouville.csv").exists()
    report = json.loads((tmp_path / "b" / "classify_report.json").read_text())
    assert report["result"]["exact_form"] == "2/5"
    assert (tmp_path / "c" / "sweep_classify.csv").exists()

    # spectrum at the defaults and at the benchmark's width for its three
    # positions, and a default sweep (of spectrum, over the default grid), run
    # without numpy, the frequency and mesh layers or diophantine; with no
    # dataclass left on their path they load no inspect either (1/2 is read
    # as a Fraction, so fractions and decimal load)
    runs = [["spectrum", "--xi", "golden"]]
    runs += [["spectrum", "--xi", xi, "--set", "re_max=2000"]
             for xi in ("golden", "0.41421356237309515", "1/2")]
    runs += [["sweep"]]
    runs = [args + ["--out", str(tmp_path / f"run{i}")] for i, args in enumerate(runs)]
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
    assert task_modules(loaded) == {"spectrum", "sweep"}
    assert (tmp_path / "run4" / "sweep_spectrum.csv").exists()


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
    ["classify", "--xi", "golden", "--set", "mu_min=5", "--set", "mu_max=2"],
    ["classify", "--xi", "golden", "--set", "mu_max=inf"],
    ["classify", "--xi", "golden", "--set", "mu_max=1e300"],
    ["classify", "--xi", "golden", "--set", "mu_step=0.01"],  # no such key: the range is checked by strips
    ["resolvent-scan", "--xi", "golden", "--set", "mu_min=5", "--set", "mu_max=2"],
    ["spectrum", "--xi", "golden", "--set", "re_min=10", "--set", "re_max=5"],
    ["carleman-verify", "--xi", "golden", "--set", "weight=bogus"],
    ["carleman-verify", "--xi", "golden", "--set", "weight=exp:nan"],
    ["simulate", "--xi", "golden", "--set", "t_final=1e6"],
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
        ["carleman-verify", "--xi", "1/3", "--set", "cells=64", "--set", "n_samples=2",
         "--set", "h_count=3"],
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
    for check in result["conditions"].values():
        assert check["verdict"] == "pass"
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


def test_classify_fraction_echoed(tmp_path):
    code = run(["classify", "--xi", "2/5", "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "classify_report.json").read_text())
    assert report["config"]["xi"] == "2/5"
    assert report["result"]["is_rational"] is True
    assert report["result"]["exact_form"] == "2/5"


# -------------------------------------------------------------- validation


def test_bad_xi_is_config_error(tmp_path):
    assert run(["classify", "--xi", "1.5", "--out", tmp_path]) == 2
    assert run(["classify", "--xi", "0.5/3", "--out", tmp_path]) == 2
    assert run(["simulate", "--xi", "-1", "--out", tmp_path]) == 2


def test_missing_xi_is_config_error(tmp_path):
    assert run(["classify", "--out", tmp_path]) == 2


def test_unknown_key_is_config_error(tmp_path):
    assert run([
        "classify", "--xi", "0.5", "--out", tmp_path, "--set", "no_such_key=1",
    ]) == 2
    # the sweep's resolved task_config is no key a user may set
    assert run(["sweep", "--out", tmp_path, "--set", "task_config=1"]) == 2


def test_malformed_set_is_config_error(tmp_path):
    assert run(["classify", "--xi", "0.5", "--out", tmp_path, "--set", "oops"]) == 2


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
    ["carleman-verify", "--set", "cells=2"],
    ["carleman-verify", "--set", "cells=1000001"],
    ["carleman-verify", "--set", "h_min=0"],
    ["carleman-verify", "--set", "h_max=0"],
    ["carleman-verify", "--set", "check_h=0"],
    ["carleman-verify", "--set", "n_modes=0"],
    ["carleman-verify", "--set", "n_modes=-1"],
    ["carleman-verify", "--set", "h_count=0"],
    ["carleman-verify", "--set", "n_samples=0"],
    ["carleman-verify", "--seed", "-1"],
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
    # tolerances that would report a wrong answer or fail mid-computation
    ["spectrum", "--xi", "1/2", "--set", "real_tol=nan"],
    ["spectrum", "--xi", "1/2", "--set", "real_tol=-1"],
    ["classify", "--xi", "0.5", "--set", "rational_tol=nan"],
    ["classify", "--xi", "0.5", "--set", "rational_tol=-1"],
    ["classify", "--set", "quotient_overflow=nan"],
    ["classify", "--set", "quotient_overflow=inf"],
    ["classify", "--set", "quotient_overflow=0.5"],
    ["carleman-verify", "--set", "weight=exp:nan"],
    ["carleman-verify", "--set", "weight=exp:inf"],
    # arrays past the grid ceiling, refused before any is allocated: the
    # (n_samples, h_count) results, the basis, the paired forms, and the
    # probes of one frequency
    ["carleman-verify", "--set", "side=left", "--set", "n_samples=800000"],
    ["carleman-verify", "--set", "n_modes=1000000000000"],
    ["carleman-verify", "--set", "h_count=10000000000000"],
    ["resolvent-scan", "--set", "probes=1000000000000"],
    ["sweep", "--set", "task=resolvent-scan", "--set", "xi_list=0.3",
     "--set", "probes=1000000000000"],
], ids=lambda args: f"{args[0]}:{args[-1]}")
def test_out_of_range_number_is_config_error(tmp_path, args):
    xi = [] if args[0] == "sweep" or "--xi" in args else ["--xi", "golden"]
    assert run(args + xi + ["--out", tmp_path]) == 2


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
        assert all(callable(getattr(task, name)) for name in ("check", "run", "write")), command
        # the core parses xi and hands every check and run the Position
        for name in ("check", "run"):
            assert list(inspect.signature(getattr(task, name)).parameters) == ["cfg", "xi"], command
        assert list(inspect.signature(task.write).parameters)[0] == "cfg", command
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
    ("carleman-verify", {"xi": "golden", "cells": "64", "n_samples": "2", "h_count": "3"}, set()),
    ("simulate", {"xi": "golden", "cells": "16", "t_final": "0.2"}, {"seed"}),
    ("sweep", {"xi_list": "0.3,0.6", "re_max": "8"}, {"xi_min", "xi_max", "xi_count"}),
    ("sweep", {"xi_min": "0.3", "xi_max": "0.6", "xi_count": "2", "re_max": "8"}, set()),
]


def test_every_config_key_is_read_by_its_task(tmp_path):
    for i, (command, raw, unread) in enumerate(KEY_READ_RUNS):
        cfg = _ReadRecorder(resolve_config(command, dict(raw, out=str(tmp_path / str(i)))))
        task = cli._task(command)
        # as main does, the core reads and parses xi, and the task gets the Position
        xi = cli.parse_position(cfg["xi"]) if command != "sweep" else None
        task.write(cfg, task.run(cfg, xi))
        assert set(schema(command)) - cfg.read == unread, command


def test_task_files_pass_through_the_writers_on_cli(tmp_path, monkeypatch):
    # perfbench/tracer.py replaces write_csv and write_json_report on
    # pointdamp.cli by attribute, so the task modules must look both up there
    written = []

    def recording(writer):
        def record(path, *args, **kwargs):
            written.append(Path(path))
            writer(path, *args, **kwargs)

        return record

    runs = {
        "sim": ["simulate", "--xi", "golden", "--set", "cells=20", "--set", "t_final=0.5"],
        "car": ["carleman-verify", "--xi", "golden", "--set", "cells=64", "--set", "n_samples=2",
                "--set", "h_count=3"],
    }
    # the task modules load before the patch, so a writer they bound at
    # import would miss it
    for args in runs.values():
        cli._task(args[0])
    for name in ("write_csv", "write_json_report"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    for out, args in runs.items():
        assert run(args + ["--out", tmp_path / out]) == 0
        files = sorted((tmp_path / out).iterdir())
        assert len(files) >= 2, out
        assert sorted(p for p in written if p.parent == tmp_path / out) == files, out


def test_inadmissible_weight_is_computation_error(tmp_path):
    code = run([
        "carleman-verify", "--xi", "0.5", "--out", tmp_path,
        "--set", "weight=exp:-2", "--set", "side=left",
    ])
    assert code == 3


@pytest.mark.parametrize("setting", ["h_min=1e-100", "h_max=1e80"])
def test_carleman_non_finite_forms_are_computation_errors(tmp_path, setting):
    # h**4 underflows while (basis / h**2)**2 overflows, or h**4 overflows:
    # the forms hold nan or inf, whose ratios would be written as 0
    with np.errstate(all="ignore"):
        code = run([
            "carleman-verify", "--xi", "golden", "--out", tmp_path, "--set", "cells=64",
            "--set", "n_samples=2", "--set", "h_count=3", "--set", setting,
        ])
    assert code == 3
    assert not list(tmp_path.iterdir())


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
    assert (tmp_path / "final_state.csv").exists()
    schema, columns, rows = read_csv(tmp_path / "damping_record.csv")
    assert schema == "# pointdamp-csv schema=damping-record version=2"
    assert columns == ["power"]
    assert len(rows) == report["result"]["n_steps"]


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
    # |D(mu)|^2 falls under the resonance floor near mu = 0, where the
    # resolvent is bounded, so a scan from there would write inf
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
    # 3 blocks of 48 frequencies at 32 cells, split over 2 processes
    parent = os.getpid()
    bound = frequency.resolvent_norm_lower_bound

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise MemoryError("no room")
        return bound(*args)

    monkeypatch.setattr(frequency, "resolvent_norm_lower_bound", fails_in_a_child)
    monkeypatch.setattr(frequency, "_MIN_BLOCKS_PER_PROCESS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert run(["resolvent-scan", "--xi", "golden", "--out", tmp_path, "--set", "cells=32"]) == 3
    assert "computation error: RuntimeError" in capsys.readouterr().err
    assert not (tmp_path / "resolvent_scan.csv").exists()

# ---------------------------------------------------------- carleman verify


def test_carleman_verify_left(tmp_path):
    code = run([
        "carleman-verify", "--xi", "golden", "--out", tmp_path,
        "--set", "side=left", "--set", "cells=512", "--set", "n_samples=4",
        "--set", "h_count=5",
    ])
    assert code == 0
    report = json.loads((tmp_path / "carleman_report.json").read_text())
    side = report["result"]["left"]
    assert side["c_hat"] > 0.0
    assert all(o > 1.5 for o in side["dual_route_orders"])
    # the default weight has phi'' = 2, so the two boundary readings differ;
    # on this mesh both residuals stay below 1e-4 (at the default 2048 cells
    # the plain one is ~28x the curvature one)
    assert side["square_identity_residual_curvature"] < 1e-4
    assert side["square_identity_residual_plain"] < 1e-4
    _, columns, rows = read_csv(tmp_path / "carleman_sweep.csv")
    assert columns == ["side", "sample", "h", "lhs", "rhs", "ratio"]
    assert all(r[0] == "left" for r in rows)
    assert len(rows) == 4 * 5


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


def test_sweep_parallel_matches_serial(tmp_path):
    out_a = tmp_path / "serial"
    out_b = tmp_path / "parallel"
    args = [
        "sweep", "--set", "task=classify", "--set", "xi_list=0.3,0.7,355/1131",
        "--set", "mu_max=50",
    ]
    assert run(args + ["--out", out_a, "--set", "workers=1"]) == 0
    assert run(args + ["--out", out_b, "--set", "workers=2"]) == 0
    a = (out_a / "sweep_classify.csv").read_text()
    b = (out_b / "sweep_classify.csv").read_text()
    assert a == b
    # the exact position reaches the pool workers as its Fraction
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


def test_resolvent_scan_sweep_scans_serially_in_its_pool_workers(tmp_path, monkeypatch):
    # each scan (5 blocks at 32 cells) splits when run here; a pool worker
    # that forked would fail its row
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the patches below only when forked")
    fork = os.fork

    def fork_outside_workers():
        if multiprocessing.parent_process() is not None:
            raise AssertionError("a sweep's pool worker forked")
        return fork()

    monkeypatch.setattr(os, "fork", fork_outside_workers)
    monkeypatch.setattr(frequency, "_MIN_BLOCKS_PER_PROCESS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    args = ["sweep", "--set", "task=resolvent-scan", "--set", "xi_list=0.3,golden",
            "--set", "mu_max=120", "--set", "cells=32"]
    assert run(args + ["--out", tmp_path / "serial", "--set", "workers=1"]) == 0
    assert run(args + ["--out", tmp_path / "pool", "--set", "workers=2"]) == 0
    serial = (tmp_path / "serial" / "sweep_resolvent-scan.csv").read_text()
    assert serial == (tmp_path / "pool" / "sweep_resolvent-scan.csv").read_text()
    assert len(serial.splitlines()) == 4


def test_sweep_unknown_task_is_config_error(tmp_path):
    assert run(["sweep", "--out", tmp_path, "--set", "task=everything"]) == 2


def test_sweep_bad_xi_list_is_config_error(tmp_path):
    assert run(["sweep", "--out", tmp_path, "--set", "xi_list=0.3,abc"]) == 2
    assert run(["sweep", "--out", tmp_path, "--set", "xi_list=0.3,1/0"]) == 2


def test_sweep_workers_have_a_ceiling():
    # checked while the config resolves, so a larger pool is never started
    assert sweep.MAX_WORKERS >= 4
    limit = sweep.MAX_WORKERS
    assert resolve_config("sweep", {"workers": str(limit)})["workers"] == limit
    for workers in (limit + 1, 100_000):
        with pytest.raises(ConfigError, match="workers"):
            resolve_config("sweep", {"workers": str(workers)})


def test_sweep_position_counts_have_a_ceiling():
    limit = sweep.MAX_SWEEP_POSITIONS
    resolve_config("sweep", {"xi_count": str(limit), "xi_list": ",".join(["0.5"] * limit)})
    for raw in ({"xi_count": str(limit + 1)}, {"xi_list": ",".join(["0.5"] * (limit + 1))}):
        with pytest.raises(ConfigError, match=next(iter(raw))):
            resolve_config("sweep", raw)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool built, each running its jobs in-process."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_sweep_pool_has_no_more_workers_than_positions(tmp_path, pool_sizes):
    assert run([
        "sweep", "--out", tmp_path, "--set", "task=classify", "--set", "xi_list=0.2,0.3,0.4",
        "--set", "workers=8", "--set", "mu_max=20",
    ]) == 0
    assert pool_sizes == [3]


@pytest.mark.parametrize("task_args", [
    ["task=classify", "mu_min=5", "mu_max=2"],
    ["task=classify", "liouville_phi=exponential:-1"],
    ["task=resolvent-scan", "mu_step=1e-9"],
    ["task=spectrum", "re_max=1e9"],
    ["task=carleman-verify", "n_samples=1000000"],
    ["task=carleman-verify", "weight=bogus"],
    # at dt = 0 the step count depends on the position: 0.4 is fine, 1e-4 is not
    ["task=simulate", "cells=1000", "t_final=10", "dt=0"],
], ids=lambda args: "-".join(args))
def test_sweep_checks_every_position_before_any_job(tmp_path, pool_sizes, task_args):
    settings = [item for pair in zip(itertools.repeat("--set"), task_args) for item in pair]
    assert run([
        "sweep", "--out", tmp_path, "--set", "xi_list=0.4,1e-4", "--set", "workers=2", *settings,
    ]) == 2
    assert pool_sizes == []
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("args", [
    ["classify", "--xi", "0.3", "--set", "mu_max=50", "--set", "keep_trace=true"],
    ["resolvent-scan", "--xi", "0.3", "--set", "mu_min=3", "--set", "mu_max=8",
     "--set", "mu_step=1", "--set", "cells=64", "--set", "probes=2"],
    ["spectrum", "--xi", "0.3", "--set", "re_max=12"],
    ["carleman-verify", "--xi", "0.3", "--set", "cells=256", "--set", "n_samples=3",
     "--set", "h_count=4"],
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
        ["spectrum", "--xi", "golden", "--set", "re_max=12", "--seed", "3"],
        ["sweep", "--set", "task=simulate", "--set", "xi_list=0.3,1/2", "--set", "cells=20",
         "--set", "t_final=0.5"],
    ]
    first = digests(tmp_path / "a", invocations)
    assert len(first) == 4
    for line in first:
        _, size, path = line.split("  ")
        assert int(size) == (tmp_path / "a" / path).stat().st_size
    assert digests(tmp_path / "b", invocations) == first


def test_report_digest_invocations_resolve():
    # the fixed list stays valid as the schemas change
    parser = cli._build_parser()
    for args in INVOCATIONS:
        parsed = parser.parse_args(args)
        raw = dict(item.split("=", 1) for item in parsed.overrides)
        if parsed.xi is not None:
            raw["xi"] = parsed.xi
        resolve_config(parsed.command, raw)


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
    ragged_rows = [(1.0, 2.0), (3.0,), (4.0, 5.0, 6)]
    for name, rows in (("floats", float_rows), ("mixed", mixed_rows), ("ragged", ragged_rows)):
        path = tmp_path / f"{name}.csv"
        columns = [f"c{j}" for j in range(len(rows[0]))]
        write_csv(path, "test", columns, (iter(row) for row in rows))
        expected = "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
        header = "# pointdamp-csv schema=test version=1\n" + ",".join(columns) + "\n"
        assert path.read_text(encoding="utf-8") == header + expected, name


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
