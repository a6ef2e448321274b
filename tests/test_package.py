"""The package namespace: each module's ``__all__`` is the one list of its public names."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import torusred
from torusred import bundle, errors, fourier, models, reduction, sim

MODULES = (errors, fourier, bundle, models, reduction, sim)


def test_package_exports_each_module_name_once():
    joined = [name for module in MODULES for name in module.__all__]
    assert len(set(joined)) == len(joined)
    assert len(set(torusred.__all__)) == len(torusred.__all__)
    assert sorted(torusred.__all__) == sorted(joined)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(torusred, name) is obj, name
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, name


def test_every_public_function_and_class_is_listed_by_its_module():
    for module in MODULES:
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                assert name in module.__all__, f"{module.__name__}.{name}"


def test_importing_the_package_leaves_scipy_unloaded():
    env = dict(os.environ)
    src = str(Path(torusred.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, torusred, torusred.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_generic_layers_import_nothing_from_models():
    # The observed pair is data of a model: the integrators and the solver
    # read it from their arguments, never from the chain's module.
    src = Path(torusred.__file__).resolve().parent
    for name in ("sim.py", "reduction.py"):
        imported = set()  # modules, and the names ``from`` imports take
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert "models" not in {dotted.rpartition(".")[2] for dotted in imported}, name
    text = "".join(p.read_text() for p in sorted(src.glob("*.py")))
    assert "OUTER_PAIR" not in text and "complex_pairs" not in text
