"""Print the size of ``src/`` and the digests of the standard artifact matrix.

Usage: ``python3 tools/footprint.py`` from anywhere; it runs the package in
the ``src/`` next to it.

It first prints the Python and numpy versions: samples are sums in numpy's
``einsum`` loop order, so digests from two machines compare only under the
same numpy.

Size: the line count of ``src/torusred/*.py``, the number of defaulted
parameters, counted as ``len(args.defaults)`` plus the non-None
``kw_defaults`` of every ``def`` found by ``ast.walk``, the number of
defaulted fields, the annotated assignments with a value in the body of
every ``class`` (dataclass and ``NamedTuple`` fields with a default), and
the number of public names, ``len(torusred.__all__)``.  Counting fields
too keeps a parameter moved into a config object from reading as a cut.

Artifacts: the first 16 hex digits of the sha256 of every file the CLI
writes for set-1 ``reduce`` at (J, K) = (2, 8), (3, 8), (4, 8), (4, 12),
set-2 ``reduce`` at (2, 8), ``bundle`` on both presets, set-1 ``simulate``
and ``sweep``, set-2 ``simulate`` by RK4 recording every third state up to
``t_end`` 200 at ``dt`` 0.01 (20,000 steps, so the last stride is partial),
and ``verify`` on both presets (its ``report.json`` and its stdout), plus the ``sweep.csv`` of ``sim.sweep_epsilon`` on the reduced flow
of a set-1 J = 2 reduction, which no command writes.  Every run keeps the
rest of its preset's numerics.  The runs write to ``.footprint_out/`` next
to ``src/``, cleared first: one config and one output directory per run,
with a verify run's stdout saved there as ``stdout``.  Compare two such
trees with ``tools/artifact_diff.py``.

Exits 1 when any command of the matrix exits non-zero.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import hashlib
import io
import json
import platform
import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "torusred"
OUT = ROOT / ".footprint_out"

# (label, preset, command, numerics overrides); "reduced sweep" is not a CLI
# command but the library call of ``reduced_sweep``.
MATRIX = [
    *[(f"reduce set1 J={J} K={K}", "set1", "reduce", {"J": J, "K": K})
      for J, K in ((2, 8), (3, 8), (4, 8), (4, 12))],
    ("reduce set2 J=2 K=8", "set2", "reduce", {"J": 2, "K": 8}),
    ("bundle set1", "set1", "bundle", {}),
    ("bundle set2", "set2", "bundle", {}),
    ("simulate set1", "set1", "simulate", {}),
    ("simulate set2", "set2", "simulate",
     {"integrator": {"scheme": "rk4", "dt": 0.01, "t_end": 200.0, "record_stride": 3}}),
    ("sweep set1", "set1", "sweep", {}),
    ("reduced sweep set1 J=2", "set1", "reduced sweep", {"J": 2}),
    ("verify set1", "set1", "verify", {}),
    ("verify set2", "set2", "verify", {}),
]


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py")))


def defaulted_parameters():
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    return count


def defaulted_fields():
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


def public_names():
    import torusred

    return len(torusred.__all__)


def short_digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def reduced_sweep(doc, out):
    """Write the ``sweep.csv`` of a sweep of the reduced flow at ``doc``'s order,
    with the sweep numerics and the reduction the CLI would use; returns 0."""
    from torusred import cli, models, reduction, sim

    cfg = cli.RunConfig(dict(doc, command="sweep"))
    model = models.chain_model(cfg.chain)
    reduced = reduction.phase_reduce(model, models.chain_bundle(cfg.chain, K=cfg.bundle_K),
                                     order=cfg.J, K=cfg.K, K_nf=cfg.K_nf)
    sw = sim.sweep_epsilon(model, cfg.sweep_x0, cfg.sweep_eps(), cfg.sweep_spec,
                           reduction=reduced)
    out.mkdir()
    sim.sweep_csv(sw, out / "sweep.csv")
    return 0


def artifact_digests(work):
    """``(label, file, digest, exit code)`` for every artifact of the matrix,
    and the exit code of every command."""
    from torusred import cli

    rows, codes = [], []
    for label, preset, command, numerics in MATRIX:
        doc = copy.deepcopy(cli.PRESETS[preset])
        doc["command"] = command
        doc["numerics"].update(numerics)
        name = re.sub(r"\W+", "-", label)
        config, out = work / f"{name}.json", work / name
        config.write_text(json.dumps(doc))
        stdout = io.StringIO()
        if command == "reduced sweep":
            rc = reduced_sweep(doc, out)
        else:
            with contextlib.redirect_stdout(stdout):
                rc = cli.run(str(config), out_override=str(out))
        codes.append(rc)
        if command == "verify":
            (out / "stdout").write_text(stdout.getvalue())
        for path in sorted(out.glob("*")):
            rows.append((label, path.name, short_digest(path.read_bytes()), rc))
    return rows, codes


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    print(f"python {platform.python_version()}, numpy {numpy.__version__}")
    print(f"src lines: {src_lines()}")
    print(f"defaulted parameters: {defaulted_parameters()}")
    print(f"defaulted fields: {defaulted_fields()}")
    print(f"public names: {public_names()}")
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    rows, codes = artifact_digests(OUT)
    for label, name, digest, rc in rows:
        print(f"{label:24s} {name:16s} {digest}  exit {rc}")
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
