"""Workloads of the torusred benchmark: inputs from a seed, operations, gates.

Every workload is a list of operations.  An operation has a timed ``run``
that calls the program (the CLI through ``torusred.cli.run`` where a
command exists, public library functions elsewhere) and an untimed
``check`` that reads the artifacts back, applies the correctness gates
and hashes the artifacts.  The gates reuse the program's acceptance
tolerances unchanged.

Seed 0 gives the bundled presets exactly.  Any other seed jitters the
initial phases (sim workloads) or scales the middle oscillator's ``b``
and ``d`` by up to ``PARAM_JITTER`` (``reduce``).
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from torusred import cli, models, reduction, sim

PHASE_JITTER = 0.1
PARAM_JITTER = 0.05
K_NF = 6
REDUCE_CASES = ((2, 8), (3, 8), (4, 8), (4, 12))
# Six lanes, more than the default pool of four, on the set-1 sweep law.
SWEEP = {"eps_min": 0.07, "eps_max": 0.1, "n": 6, "t_end_ref": 2500.0, "dt": 0.05}

# Acceptance tolerances, as in tests/test_acceptance.py and cli._verify_battery.
CONSTANT_TOL = 1e-8
SLOPE_TOL = 0.1
NORMAL_FORM_TOL = 1e-10
RESONANCE_TOL = 1e-9
SWEEP_SLOPE_TOL = 0.15


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    name: str
    run: Callable[[Path], object]
    check: Callable[[Path, object], "Outcome"]


@dataclass
class Outcome:
    gates: list
    digests: dict
    artifact_bytes: int = 0

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.gates)


# ----------------------------------------------------------------------
# inputs


def jitter_state(pairs, rng):
    """Jitter the phases of a chain state given as complex pairs ``[re, im]``.

    All oscillators turn by one phase of up to ``PHASE_JITTER``, a symmetry
    of the chain, and the middle one by up to ``PHASE_JITTER`` more.  The
    outer pair's initial angle, the baseline of T01, is kept, and the outer
    phases stay off the branch cut of ``arg``; README.md says how wider
    jitters make the program fail.
    """
    z = np.array([complex(re, im) for re, im in pairs])
    z = z * np.exp(1j * rng.uniform(-PHASE_JITTER, PHASE_JITTER))
    z[1] = z[1] * np.exp(1j * rng.uniform(-PHASE_JITTER, PHASE_JITTER))
    return [[float(v.real), float(v.imag)] for v in z]


def jitter_chain(chain, rng):
    out = dict(chain)
    for key in ("b", "d"):
        out[key] = float(out[key] * (1.0 + rng.uniform(-PARAM_JITTER, PARAM_JITTER)))
    return out


def preset(name, command, seed, **numerics):
    """A preset configuration document, jittered for ``seed != 0``."""
    doc = copy.deepcopy(cli.PRESETS[name])
    doc["command"] = command
    doc["numerics"].update(numerics)
    if seed:
        rng = np.random.default_rng(seed)
        num = doc["numerics"]
        if command == "reduce":
            doc["model"]["chain"] = jitter_chain(doc["model"]["chain"], rng)
        elif command == "sweep":
            num["sweep"]["x0"] = jitter_state(num["sweep"]["x0"], rng)
        else:
            num["x0"] = jitter_state(num["x0"], rng)
    return doc


def write_config(doc, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# gates


def normal_form_worst(reduction_doc):
    """Largest nonresonant phase coefficient inside the normal-form radius."""
    omega = np.asarray(reduction_doc["omega"], dtype=float)
    k_nf = float(reduction_doc["K_nf"])
    worst = 0.0
    for term in reduction_doc["phase_terms"]:
        for entry in term["coeffs"]:
            k = np.asarray(entry["k"], dtype=float)
            if abs(float(omega @ k)) > RESONANCE_TOL and np.linalg.norm(k) <= k_nf:
                mag = np.abs(np.asarray(entry["re"]) + 1j * np.asarray(entry["im"]))
                worst = max(worst, float(np.max(mag)))
    return worst


def reduce_gates(report, reduction_doc, order, A_formula, B_formula):
    dA = abs(report["A_pipeline"] - A_formula)
    dB = abs(report["B_pipeline"] - B_formula)
    slope = report["residual_order_slope"]
    worst = normal_form_worst(reduction_doc)
    return [
        ("slow-law constants", dA <= CONSTANT_TOL and dB <= CONSTANT_TOL,
         f"|dA|={dA:.2e} |dB|={dB:.2e}"),
        ("residual order scaling", abs(slope - (order + 1)) <= SLOPE_TOL,
         f"slope={slope:.4f}, expected {order + 1}"),
        ("normal form", worst <= NORMAL_FORM_TOL, f"worst={worst:.2e}"),
    ]


def sweep_gates(sweep_doc):
    slope = sweep_doc["slope"]
    converged = sum(bool(c) for c in sweep_doc["converged"])
    total = len(sweep_doc["converged"])
    return [
        ("all lanes converged", converged == total, f"{converged}/{total}"),
        ("decay-time slope", slope is not None and abs(slope + 2.0) <= SWEEP_SLOPE_TOL,
         f"slope={slope}"),
    ]


def verify_gates(rc, report):
    criteria = report.get("criteria", [])
    failing = [c["criterion"] for c in criteria if not c["passed"]]
    return [
        exit_gate(rc),
        ("every criterion passes", bool(criteria) and not failing and report.get("passed"),
         f"{len(criteria)} criteria, failing {failing}"),
    ]


def exit_gate(rc):
    return ("exit code", rc == cli.EXIT_OK, f"rc={rc}")


# ----------------------------------------------------------------------
# artifacts


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_artifacts(out, names):
    """``(digests, total bytes)`` of the named files under ``out``."""
    paths = [out / n for n in names]
    return {n: digest(p) for n, p in zip(names, paths)}, sum(p.stat().st_size for p in paths)


def run_cli(config):
    def run(out):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(str(config), out_override=str(out))
    return run


# ----------------------------------------------------------------------
# workloads


def build_reduce(seed, work):
    ops = []
    for J, K in REDUCE_CASES:
        doc = preset("set1", "reduce", seed, J=J, K=K, K_nf=K_NF)
        config = write_config(doc, work / f"reduce_j{J}_k{K}.json")
        A_f, B_f = models.chain_phase_constants(models.ChainConfig(**doc["model"]["chain"]))

        def check(out, rc, J=J, A_f=A_f, B_f=B_f):
            if rc != cli.EXIT_OK:
                return Outcome([exit_gate(rc)], {})
            digests, size = read_artifacts(out, ("reduction.json", "report.json"))
            report = json.loads((out / "report.json").read_text())
            red = json.loads((out / "reduction.json").read_text())
            return Outcome([exit_gate(rc)] + reduce_gates(report, red, J, A_f, B_f),
                           digests, size)

        name = f"reduce_j{J}" + ("" if K == 8 else f"_k{K}")
        ops.append(Op(name, run_cli(config), check))
    return ops


def build_sweep(seed, work):
    doc = preset("set1", "sweep", seed)
    doc["numerics"]["sweep"].update(SWEEP)
    config = write_config(doc, work / "sweep.json")
    cfg = cli.RunConfig(doc)
    model = models.chain_model(cfg.chain)
    bundle = models.chain_bundle(cfg.chain, K=cfg.K)
    reduced = reduction.phase_reduce(model, bundle, order=2, K=cfg.K, K_nf=cfg.K_nf)
    spec = sim.IntegratorSpec("euler", cfg.sweep_dt, cfg.sweep_t_end_ref)

    def check_full(out, rc):
        if rc != cli.EXIT_OK:
            return Outcome([exit_gate(rc)], {})
        digests, size = read_artifacts(out, ("sweep.csv", "report.json"))
        report = json.loads((out / "report.json").read_text())
        return Outcome([exit_gate(rc)] + sweep_gates(report), digests, size)

    def run_reduced(out):
        out.mkdir(parents=True, exist_ok=True)
        sw = sim.sweep_epsilon(model, cfg.sweep_x0, cfg.sweep_eps(), spec, reduction=reduced)
        sim.sweep_csv(sw, out / "sweep.csv")
        return sw

    def check_reduced(out, sw):
        digests, _ = read_artifacts(out, ("sweep.csv",))
        return Outcome(sweep_gates(sw.to_json_dict()), digests)

    return [Op("sweep_full", run_cli(config), check_full),
            Op("sweep_reduced", run_reduced, check_reduced)]


def build_verify_set2(seed, work):
    config = write_config(preset("set2", "verify", seed), work / "verify_set2.json")

    def check(out, rc):
        path = out / "report.json"
        if not path.is_file():
            return Outcome([exit_gate(rc)], {})
        digests, size = read_artifacts(out, ("report.json",))
        return Outcome(verify_gates(rc, json.loads(path.read_text())), digests, size)

    return [Op("verify_set2", run_cli(config), check)]


WORKLOADS = {
    "reduce": build_reduce,
    "sweep": build_sweep,
    "verify-set2": build_verify_set2,
}

OP_NAMES = ("reduce_j2", "reduce_j3", "reduce_j4", "reduce_j4_k12",
            "sweep_full", "sweep_reduced", "verify_set2")

