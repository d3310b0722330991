import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pointdamp
from pointdamp import carleman, characteristic, cli, decayfit, diophantine, frequency, mesh
from pointdamp import simulator

from report_digests import BENCHMARK


def test_every_public_name_is_defined_on_its_module():
    # each layer lists its public names in __all__, once each, and defines them all
    layers = [importlib.import_module(f"pointdamp.{info.name}")
              for info in pkgutil.iter_modules(pointdamp.__path__) if not info.ispkg]
    listed = [module for module in layers if hasattr(module, "__all__")]
    assert {mesh, diophantine, characteristic, frequency, carleman, simulator,
            decayfit} <= set(listed)
    for module in listed:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


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


# ---------------------------------------------------- names the benchmark reads

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name, monkeypatch):
    """perfbench/<name>.py, loaded by path; registered while the test runs, as
    dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_resolve(monkeypatch):
    # loaded by path and not run: the tracer patches each (module, attr) by attribute
    tracer = _load_perfbench("tracer", monkeypatch)
    assert tracer.TRACED
    for module, attr, *_ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"pointdamp.{module}"), attr)), (
            module, attr)


def test_benchmark_workload_calls_resolve():
    # every pointdamp name perfbench/workloads.py reads exists, and every call
    # of one binds to its signature
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pointdamp"):
            for alias in node.names:
                if node.module == "pointdamp":
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"pointdamp.{alias.name}")
                else:
                    assert hasattr(importlib.import_module(node.module), alias.name), alias.name
    assert modules
    read = 0
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert hasattr(modules[node.value.id], node.attr), (node.value.id, node.attr)
            read += 1
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
                and not any(isinstance(a, ast.Starred) for a in node.args)
                and all(k.arg is not None for k in node.keywords)):
            fn = getattr(modules[node.func.value.id], node.func.attr)
            inspect.signature(fn).bind(*node.args, **{k.arg: k.value for k in node.keywords})
    assert read


def test_benchmark_invocations_pass_their_output_checks(tmp_path, monkeypatch):
    # an output format change fails here, before the benchmark refuses the outputs
    workloads = _load_perfbench("workloads", monkeypatch)
    invocations = [inv for group in workloads.WORKLOADS.values() for inv in group]
    assert [list(inv.argv) for inv in invocations] == BENCHMARK  # report_digests keeps a copy
    seed = 1
    for i, inv in enumerate(invocations):
        out = tmp_path / f"run{i:02d}"
        assert cli.main([*inv.argv, "--out", str(out), "--seed", str(seed)]) == 0, inv.label
        assert inv.check(out, seed).problems == [], inv.label


def test_readme_quick_start_runs(capsys):
    # the README's Quick start block is the documented API; it must run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md (Quick start)", "exec"), {})
    assert capsys.readouterr().out
