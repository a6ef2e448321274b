"""The package namespace: each module's ``__all__`` is the one list of its public names."""

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
