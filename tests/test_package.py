import os
import subprocess
import sys
from pathlib import Path

import pointdamp
from pointdamp import carleman, characteristic, decayfit, diophantine, frequency, mesh, simulator


def test_package_exports_are_the_submodule_exports():
    modules = (mesh, diophantine, characteristic, frequency, carleman, simulator, decayfit)
    # the package's name table is each submodule's __all__, in package order
    assert {name: list(names) for name, names in pointdamp._EXPORTS.items()} == {
        module.__name__.rpartition(".")[2]: module.__all__ for module in modules
    }
    union = {name for module in modules for name in module.__all__}
    assert set(pointdamp.__all__) == union | {"__version__"}
    assert len(pointdamp.__all__) == len(set(pointdamp.__all__))
    for name in pointdamp.__all__:
        assert hasattr(pointdamp, name), name


def test_unknown_names_fail_without_importing_the_submodules():
    src = str(Path(pointdamp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, pointdamp\n"
        "assert not hasattr(pointdamp, 'x') and not hasattr(pointdamp, '_y')\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('pointdamp.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
