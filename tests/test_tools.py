"""``tools/artifact_diff.py`` on small artifact trees, and the benchmark's tracer on the package."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import torusred
from torusred import cli, models, reduction, sim

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_diff.py"


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def artifact_diff():
    return load(TOOL)


def test_the_benchmark_tracer_binds_the_arguments_its_hooks_read():
    # The tracer's hooks read arguments by name (``fmap``, ``values``, ``spec``,
    # ``record``, ``use_envelope``), so a renamed one would crash a traced run.
    tracing = load(ROOT / "benchmarks" / "tracing.py")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, torusred)
    try:
        cfg = models.ChainConfig(**cli.PRESETS["set1"]["model"]["chain"])
        model = models.chain_model(cfg)
        result = reduction.phase_reduce(model, models.chain_bundle(cfg, K=8.0), order=2,
                                        K=8.0, K_nf=6.0)
        assert cli.check_residual_scaling(model, result)[1]
        x0 = np.asarray(cli.PRESETS["set1"]["numerics"]["sweep"]["x0"], dtype=float).ravel()
        spec = sim.IntegratorSpec("euler", 0.05, 1500.0, record_state=False, until_t01=True)
        assert np.isfinite(sim.measure_T01(sim.integrate_full(model, 0.1, x0, spec)))
    finally:
        tracing.uninstall(undo)
    names = {s.name for s in tracer.spans}
    for name in ("fourier.jet_compose", "reduction.conjugacy_residual",
                 "sim.integrate_full", "sim.measure_T01"):
        assert name in names, name
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["fourier.sample_calls"] > 0 and metrics["sim.integrate_full_steps"] > 0
    assert 0 < metrics["sim.useful_step_frac"] <= 1


BUNDLE = {"omega": [2.0, 1.0],
          "e0": {"K": 4.0, "coeffs": [{"k": [-1], "re": [0.5], "im": [0.0]},
                                      {"k": [1], "re": [0.5], "im": [0.0]}]},
          "pi": {"K": 4.0, "coeffs": []}}
STDOUT = "[PASS] slow law: |dA| = 1.1e-16, |dB| = 2.2e-16\n[PASS] slope 3.006\n"


def write_tree(root, bundle, stdout):
    (root / "run").mkdir(parents=True)
    (root / "run" / "bundle.json").write_text(json.dumps(bundle, indent=2))
    (root / "run" / "stdout").write_text(stdout)
    return root


def test_identical_trees(artifact_diff, tmp_path):
    old = write_tree(tmp_path / "old", BUNDLE, STDOUT)
    new = write_tree(tmp_path / "new", BUNDLE, STDOUT)
    assert artifact_diff.compare_trees(old, new) == [("run/bundle.json", "identical"),
                                                     ("run/stdout", "identical")]


def test_a_perturbed_number_a_removed_key_and_a_missing_file(artifact_diff, tmp_path, capsys):
    moved = json.loads(json.dumps(BUNDLE))
    moved["e0"]["coeffs"][1]["re"] = [0.5 + 3e-15]
    del moved["pi"]
    old = write_tree(tmp_path / "old", BUNDLE, STDOUT)
    new = write_tree(tmp_path / "new", moved, STDOUT.replace("1.1e-16", "1.6e-16"))
    (old / "run" / "report.json").write_text("{}")
    rows = dict(artifact_diff.compare_trees(old, new))
    diff, *paths = rows["run/bundle.json"].split("; ")
    head, where = diff.split(" at ")
    assert float(head.split()[-1]) == pytest.approx(3e-15, rel=0.01)
    assert where == "[e0][coeffs][k=(1,)][re][0]"
    assert paths == ["[pi] only in OLD"]
    assert rows["run/stdout"] == "max |diff| 5.000e-17 at line 1"
    assert rows["run/report.json"] == "only in OLD"
    assert artifact_diff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "run/bundle.json: " + rows["run/bundle.json"]


def test_a_coefficient_that_appears_is_not_a_shift(artifact_diff, tmp_path):
    grown = json.loads(json.dumps(BUNDLE))
    grown["e0"]["coeffs"].insert(1, {"k": [0], "re": [1e-33], "im": [0.0]})
    old = write_tree(tmp_path / "old", BUNDLE, STDOUT)
    new = write_tree(tmp_path / "new", grown, STDOUT)
    assert dict(artifact_diff.compare_trees(old, new))["run/bundle.json"] == (
        "max |diff| 0.000e+00; [e0][coeffs][k=(0,)] only in NEW")
