import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pointdamp
from pointdamp import diophantine, frequency
from pointdamp.cli import main
from pointdamp.mesh import build_mesh


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    """Parse a report CSV: returns (schema_line, columns, rows as string lists)."""
    lines = Path(path).read_text().splitlines()
    schema = lines[0]
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return schema, columns, rows


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.integrate and scipy.linalg cost most of a short command's start-up;
    # only simulate needs scipy.linalg, and it imports it when it runs
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, pointdamp.cli; print(sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout
    assert "'pointdamp.cli'" in loaded
    assert "'scipy.integrate'" not in loaded
    assert "'scipy.linalg'" not in loaded


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
    # the grid holds the resonances pi*q*k, so the checks witness the one at 2*pi
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
    assert len(rows) > 100
    for name in ("poly", "cos"):
        assert (tmp_path / f"classify_trace_{name}.csv").exists()
    schema, columns, rows = read_csv(tmp_path / "classify_trace_liouville.csv")
    assert schema == "# pointdamp-csv schema=liouville-trace version=1"
    assert columns == ["m", "product"]


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


def test_malformed_set_is_config_error(tmp_path):
    assert run(["classify", "--xi", "0.5", "--out", tmp_path, "--set", "oops"]) == 2


def test_degenerate_rectangle_is_config_error(tmp_path):
    assert run([
        "spectrum", "--xi", "0.5", "--out", tmp_path,
        "--set", "re_min=10", "--set", "re_max=5",
    ]) == 2


@pytest.mark.parametrize("args", [
    ["classify", "--set", "mu_step=0"],
    ["classify", "--set", "mu_step=-1"],
    ["simulate", "--set", "sample_every=0"],
    ["simulate", "--set", "cells=1"],
    ["resolvent-scan", "--set", "cells=1"],
    ["resolvent-scan", "--set", "probes=0"],
    ["carleman-verify", "--set", "cells=2"],
    ["sweep", "--set", "task=simulate", "--set", "xi_list=0.3", "--set", "cells=1"],
], ids=lambda args: f"{args[0]}:{args[-1]}")
def test_out_of_range_number_is_config_error(tmp_path, args):
    xi = [] if args[0] == "sweep" else ["--xi", "golden"]
    assert run(args + xi + ["--out", tmp_path]) == 2


def test_inadmissible_weight_is_computation_error(tmp_path):
    code = run([
        "carleman-verify", "--xi", "0.5", "--out", tmp_path,
        "--set", "weight=exp:-2", "--set", "side=left",
    ])
    assert code == 3


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
    assert schema == "# pointdamp-csv schema=damping-record version=1"
    assert columns == ["t", "power"]
    assert len(rows) == report["result"]["n_steps"]


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


def test_resolvent_scan_verbatim_kernel(tmp_path):
    args = [
        "resolvent-scan", "--xi", "golden", "--set", "mu_min=3", "--set", "mu_max=20",
        "--set", "mu_step=1", "--set", "cells=64", "--set", "probes=2", "--seed", "2",
    ]
    assert run(args + ["--out", tmp_path / "consistent"]) == 0
    assert run(args + ["--out", tmp_path / "verbatim", "--set", "kernel=verbatim"]) == 0
    consistent = (tmp_path / "consistent" / "resolvent_scan.csv").read_text()
    verbatim = (tmp_path / "verbatim" / "resolvent_scan.csv").read_text()
    assert verbatim != consistent

    _, _, rows = read_csv(tmp_path / "verbatim" / "resolvent_scan.csv")
    i = 9
    mu = float(rows[i][0])
    xi, _ = diophantine.parse_actuator_position("golden")
    mesh = build_mesh(xi, 64, 64)
    rng = np.random.default_rng([2, i])
    probes = [frequency.resonant_forcing(mesh, mu), frequency.random_forcing(mesh, rng)]
    expected = frequency.resolvent_norm_lower_bound(xi, mu, probes, kernel="verbatim")
    assert float(rows[i][1]) == expected


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
    # the default weight is quadratic, so both boundary readings agree
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
        "sweep", "--set", "task=classify", "--set", "xi_list=0.3,0.7",
        "--set", "mu_max=50",
    ]
    assert run(args + ["--out", out_a, "--set", "workers=1"]) == 0
    assert run(args + ["--out", out_b, "--set", "workers=2"]) == 0
    a = (out_a / "sweep_classify.csv").read_text()
    b = (out_b / "sweep_classify.csv").read_text()
    assert a == b


def test_sweep_unknown_task_is_config_error(tmp_path):
    assert run(["sweep", "--out", tmp_path, "--set", "task=everything"]) == 2


def test_sweep_bad_xi_list_is_config_error(tmp_path):
    assert run(["sweep", "--out", tmp_path, "--set", "xi_list=0.3,abc"]) == 2
    assert run(["sweep", "--out", tmp_path, "--set", "xi_list=0.3,1/0"]) == 2


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
