import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pointdamp
from pointdamp import characteristic, frequency
from pointdamp.characteristic import (
    characteristic_function,
    find_eigenvalues,
    height_bound,
)
from pointdamp.cli import main
from pointdamp.diophantine import GOLDEN_RATIO_CONJUGATE

GOLDEN = GOLDEN_RATIO_CONJUGATE
POSITIONS = (GOLDEN, 0.41421356237309515, 0.5, 0.4, 0.05, 0.01, 0.3)


def _rouche_box(xi: float, n0: int, n1: int) -> tuple[float, float, float, float]:
    """[(n0 + 1/2) pi, (n1 + 1/2) pi] x [-Y, Y], which holds exactly n1 - n0 roots."""
    y = height_bound(xi)
    return (n0 + 0.5) * math.pi, (n1 + 0.5) * math.pi, -y, y


@pytest.mark.parametrize("xi", POSITIONS)
@pytest.mark.parametrize("n0, n1", [(0, 12), (-40, 25), (3000, 3600)])
def test_rouche_count_matches_the_winding_oracle(xi, n0, n1):
    box = _rouche_box(xi, n0, n1)
    roots = find_eigenvalues(xi, box)
    assert len(roots) == n1 - n0 == frequency.winding_number(xi, box)
    assert all(r.multiplicity == 1 for r in roots)
    # one root per strip, in strip order
    strips = [round(r.z.real / math.pi) for r in roots]
    assert strips == list(range(n0 + 1, n1 + 1))


@pytest.mark.parametrize("xi", POSITIONS + (0.001, 1e-6, 0.999))
def test_height_bound_is_the_first_power_that_satisfies_the_inequality(xi):
    y = height_bound(xi)
    gap = xi - (1.0 - xi)

    def holds(t):
        return math.sinh(t) > 0.5 * (math.cosh(t) + math.cosh(gap * t))

    assert holds(y)
    assert y == 1.0 or not holds(y / 1.25)
    assert math.log(y, 1.25) == pytest.approx(round(math.log(y, 1.25)), abs=1e-9)


@pytest.mark.parametrize("xi", POSITIONS + (0.001,))
def test_no_root_at_or_above_the_height_bound(xi):
    # on every sampled line |Im z| = t Y, t >= 1, the perturbation stays below
    # |sin z|, so D cannot vanish there
    y = height_bound(xi)
    x = np.linspace(-60.0, 2000.0, 20001)
    for t in (1.0, 1.01, 1.5, 3.0):
        for sign in (1.0, -1.0):
            z = x + 1j * sign * t * y
            ratio = np.abs(np.sin(xi * z) * np.sin((1.0 - xi) * z)) / np.abs(np.sin(z))
            assert ratio.max() < 1.0, (t, sign)
    # and the winding oracle finds none in a box above the bound
    assert frequency.winding_number(xi, (0.5 * math.pi, 60.5 * math.pi, y, 2.0 * y)) == 0


def test_a_window_above_the_height_bound_holds_no_root(monkeypatch):
    # returned at once, without a Newton solve: the bound is 1.25 at 0.3
    def no_newton(*args):
        raise AssertionError("a strip was solved")

    monkeypatch.setattr(characteristic, "_certified_root", no_newton)
    assert height_bound(0.3) < 5.0
    assert find_eigenvalues(0.3, (0.5, 20.0, 5.0, 6.0)) == []


def test_scalar_and_array_evaluations_agree():
    z = np.array([0.0, 1.5 + 0.2j, 377.0 + 0.01j, -20.0 + 2.5j, 4e4 + 1.0j])
    for xi in (GOLDEN, 0.01):
        values = characteristic_function(xi, z)
        assert values.shape == z.shape
        for w, value in zip(z.tolist(), values.tolist()):
            scale = math.cosh(w.imag) * (abs(w) + 1.0)
            assert abs(characteristic_function(xi, w) - value) <= 1e-15 * scale
    assert isinstance(characteristic_function(0.3, 2.0), complex)
    assert isinstance(characteristic_function(0.3, np.float64(2.0)), complex)


def test_frequency_re_exports_the_same_objects():
    # the names frequency still takes from characteristic
    for name in ("find_eigenvalues", "characteristic_function", "ContourThroughRoot"):
        assert getattr(frequency, name) is getattr(characteristic, name), name


def test_loose_tolerance_still_certifies_every_root():
    # Newton goes on past |D| <= tol until the root's disc is certified
    tight = find_eigenvalues(GOLDEN, (0.5, 50.0, -0.5, 3.0))
    loose = find_eigenvalues(GOLDEN, (0.5, 50.0, -0.5, 3.0), tol=1.0)
    assert len(loose) == len(tight) == 15
    for a, b in zip(loose, tight):
        assert a.residual <= 1.0
        # the tight root lies in the loose one's disc, of radius about 2 |D| / |D'|
        assert abs(a.z - b.z) <= 2.0 * a.residual / abs(characteristic._values(GOLDEN, 1 - GOLDEN, a.z)[1])


def test_small_xi_far_out_exits_zero_with_every_root(tmp_path):
    # at xi = 0.01 roots near Im z = 1 evaluate D with a rounding of about
    # eps |z| cosh(Im z), above a floor of 2 eps |z|: Newton must stop on
    # stagnation there instead of dropping them
    assert main(["spectrum", "--xi", "0.01", "--set", "re_max=20000",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert report["result"]["n_roots"] == 6366
    table = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=2)
    assert table.shape == (6366, 4)
    residual = np.abs(characteristic_function(0.01, table[:, 0] + 1j * table[:, 1]))
    assert residual.max() <= 1e-9
    assert np.all(table[:, 3] == 1)


@pytest.mark.parametrize("rect", [(0.5, 50.0, -0.5, 3.0), (0.5, 2000.0, -0.5, 3.0)])
def test_tiny_xi_count_matches_the_winding_oracle(rect):
    # at xi = 0.001 the roots climb to Im z = 3.2 < Y = 3.8; those above 3
    # fall outside the default window
    roots = find_eigenvalues(0.001, rect)
    assert len(roots) == frequency.winding_number(0.001, rect)
    full = find_eigenvalues(0.001, _rouche_box(0.001, 0, 636))
    assert len(full) == 636
    assert max(r.z.imag for r in full) > 3.0


def test_module_computes_without_numpy():
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "from pointdamp import characteristic\n"
        "roots = characteristic.find_eigenvalues(0.3, (0.5, 2000.0, -0.5, 3.0))\n"
        "print(len(roots), 'numpy' in sys.modules, 'pointdamp.frequency' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["636", "False", "False"]
