"""Batch front-end.

Reads a JSON run configuration, executes one of the pipeline commands
(bundle construction, phase reduction, simulation, coupling sweeps, or
the verification battery) and writes CSV/JSON artifacts.  Exit codes
separate configuration problems (2), numerical failures (3) and failed
verification criteria (4) from success (0).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bundle import TorusGrid, cycle_bundle, validate_bundle
from .errors import ConfigError, NumericalError
from .models import (
    ChainConfig,
    chain_bundle,
    chain_model,
    chain_phase_constants,
    chain_slow_law,
    sl_bundle,
    stuart_landau_cycle,
)
from .reduction import conjugacy_residual, phase_reduce
from .sim import (
    IntegratorSpec,
    integrate_full,
    measure_T01,
    sweep_csv,
    sweep_epsilon,
    trajectory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4

COMMANDS = ("bundle", "reduce", "simulate", "sweep", "verify")

_SET1 = {
    "command": "verify",
    "model": {
        "chain": {
            "alpha": 1.0, "beta": 1.0, "gamma": -1.0, "delta": 1.0,
            "a": 1.0, "b": 2.0, "c": -1.0, "d": -1.0, "epsilon": 0.1,
        }
    },
    "numerics": {
        "K": 8, "K_nf": 6, "J": 2,
        "integrator": {"scheme": "euler", "dt": 0.05, "t_end": 4000.0},
        "x0": [[-1.0, 0.0], [1.0, 0.4], [-1.0, 0.3]],
        "sweep": {
            "eps_min": 0.02, "eps_max": 0.1, "n": 20, "t_end_ref": 2500.0,
            "x0": [[-1.0, 0.3], [1.0, 0.4], [-1.0, 0.5]],
        },
    },
    "output_dir": "out-set1",
}

# Set 2 (locking) is set 1 with another beta, b, x0 and output_dir.  It shares set 1's
# "integrator" and "sweep" dicts: every reader copies a preset, none writes into one.
PRESETS = {
    "set1": _SET1,
    "set2": {
        **_SET1,
        "model": {"chain": {**_SET1["model"]["chain"], "beta": 0.1, "b": 6.0}},
        "numerics": {**_SET1["numerics"], "x0": [[1.0, 0.3], [1.0, 0.4], [-0.2, 0.9]]},
        "output_dir": "out-set2",
    },
}


def _section(doc, key):
    """The JSON object ``doc[key]`` (empty when absent)."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be a JSON object, got {section!r}")
    return section


def _number(section, key, default, cast):
    """``cast(section[key])``, as a config error for anything but a finite
    JSON number (a numeric string or a boolean included) or, when ``cast``
    is ``int``, a non-integral number."""
    raw = section.get(key, default)
    try:
        if (isinstance(raw, bool) or not isinstance(raw, (int, float))
                or not math.isfinite(raw) or (cast is int and int(raw) != float(raw))):
            raise ValueError
        return cast(raw)
    except (ValueError, OverflowError):
        kind = "a finite integer" if cast is int else "a finite number"
        raise ConfigError(f"{key} must be {kind}, got {raw!r}") from None


class RunConfig:
    """Validated run configuration."""

    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object")
        self.command = doc.get("command")
        if self.command not in COMMANDS:
            raise ConfigError(f"command must be one of {COMMANDS}, got {self.command!r}")
        model = _section(doc, "model")
        if "chain" not in model:
            raise ConfigError("only the 'chain' model section is supported")
        chain = _section(model, "chain")
        try:
            self.chain = ChainConfig(**{key: _number(chain, key, None, float) for key in chain})
        except TypeError as exc:
            raise ConfigError(f"bad chain parameters: {exc}") from None

        num = _section(doc, "numerics")
        self.K = _number(num, "K", 8, float)
        self.bundle_K = max(self.K, 4.0)  # the chain's bundle has intrinsic radius 2
        self.K_nf = _number(num, "K_nf", 6, float)
        self.tol_res = num.get("tol_res")
        if self.tol_res is not None:
            self.tol_res = _number(num, "tol_res", None, float)
            if self.tol_res <= 0:
                raise ConfigError("tol_res must be positive")
        self.J = _number(num, "J", 2, int)
        if not (1 <= self.J <= 4):
            raise ConfigError("expansion order J must lie in 1..4")
        integ = _section(num, "integrator")
        self.integrator = IntegratorSpec(
            scheme=integ.get("scheme", "rk4"),
            dt=_number(integ, "dt", 0.01, float),
            t_end=_number(integ, "t_end", 100.0, float),
            record_stride=_number(integ, "record_stride", 1, int),
        )
        self.x0 = self._parse_state(num.get("x0", [[-1.0, 0.0], [1.0, 0.4], [-1.0, 0.3]]))
        sweep = _section(num, "sweep")
        self.sweep_eps_min = _number(sweep, "eps_min", 0.02, float)
        self.sweep_eps_max = _number(sweep, "eps_max", 0.1, float)
        self.sweep_n = _number(sweep, "n", 20, int)
        self.sweep_t_end_ref = _number(sweep, "t_end_ref", 2500.0, float)
        self.sweep_dt = _number(sweep, "dt", 0.05, float)
        self.sweep_spec = IntegratorSpec("euler", self.sweep_dt, self.sweep_t_end_ref)
        self.sweep_x0 = self._parse_state(sweep.get("x0", [[-1.0, 0.3], [1.0, 0.4], [-1.0, 0.5]]))
        if not (0 < self.sweep_eps_min < self.sweep_eps_max):
            raise ConfigError("sweep needs 0 < eps_min < eps_max")
        if self.sweep_n < 1:
            raise ConfigError("sweep needs at least one coupling value")
        self.output_dir = doc.get("output_dir", "out")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        for name, value in (("K", self.K), ("K_nf", self.K_nf)):
            if value <= 0:
                raise ConfigError(f"{name} must be positive")

    @staticmethod
    def _parse_state(raw):
        try:
            arr = np.asarray(raw, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise ConfigError("x0 must hold three finite complex pairs") from None
        if arr.size != 6 or not np.all(np.isfinite(arr)):
            raise ConfigError("x0 must hold three finite complex pairs")
        return arr

    def sweep_eps(self):
        return np.geomspace(self.sweep_eps_min, self.sweep_eps_max, self.sweep_n)


def _dump_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reduce_report(cfg, result, model):
    report = {**check_residual_scaling(model, result)[3], "residuals": result.residuals,
              "second_order_constants": None}
    if result.order >= 2:  # the slow law and its constants live at order 2
        report.update(check_slow_law(cfg.chain, result)[3])
        c0 = result.phase_terms[1].coeffs.get((0, 0, 0))
        if c0 is not None:
            report["second_order_constants"] = [float(v) for v in np.real(c0)]
    return report


def _cmd_bundle(cfg, out):
    bundle = chain_bundle(cfg.chain, K=cfg.bundle_K)
    bundle.diagnostics = validate_bundle(bundle, chain_model(cfg.chain).F0, pde_tol=1e-10)
    _dump_json(bundle.to_json_dict(), out / "bundle.json")
    _dump_json(bundle.diagnostics, out / "report.json")
    return EXIT_OK


def _cmd_reduce(cfg, out):
    model = chain_model(cfg.chain)
    bundle = chain_bundle(cfg.chain, K=cfg.bundle_K)
    result = phase_reduce(model, bundle, order=cfg.J, K=cfg.K, K_nf=cfg.K_nf,
                          tol_res=cfg.tol_res)
    _dump_json(result.to_json_dict(), out / "reduction.json")
    _dump_json(_reduce_report(cfg, result, model), out / "report.json")
    return EXIT_OK


def _cmd_simulate(cfg, out):
    model = chain_model(cfg.chain)
    rec = integrate_full(model, cfg.chain.epsilon, cfg.x0, cfg.integrator)
    trajectory_csv(rec, out / "trajectory.csv")
    report = {
        "failed": rec.failed,
        "t_end": float(rec.t[-1]),
        "phi_hat_final": float(rec.phi_hat[-1]),
    }
    try:
        report["T01"] = measure_T01(rec)
        report["T01_raw"] = measure_T01(rec, use_envelope=False)
    except ValueError as exc:
        report["T01"] = None
        report["T01_note"] = str(exc)
    report = {k: (None if isinstance(v, float) and not np.isfinite(v) else v)
              for k, v in report.items()}
    _dump_json(report, out / "report.json")
    return EXIT_OK


def _cmd_sweep(cfg, out):
    sw = sweep_epsilon(chain_model(cfg.chain), cfg.sweep_x0, cfg.sweep_eps(), cfg.sweep_spec)
    sweep_csv(sw, out / "sweep.csv")
    _dump_json(sw.to_json_dict(), out / "report.json")
    return EXIT_OK


# ----------------------------------------------------------------------
# Verification battery: one check per acceptance criterion, shared by
# ``torusred verify`` and the acceptance tests.  Each check returns
# ``(name, passed, detail, metrics)``.

TOL_CONSTANTS = 1e-8  # slow-law constants against their closed forms
TOL_RESIDUAL_SLOPE = 0.1  # conjugacy defect slope against order + 1
TOL_NORMAL_FORM = 1e-10  # nonresonant phase coefficients inside K_nf
TOL_FLOQUET = 1e-6  # Floquet exponents and fibre subspace angle
TOL_SYNC_TAIL = 0.05  # |phi_hat| once the outer pair has synchronised
TOL_LOCK = 0.1  # locking band and gap to the predicted angle
TOL_SWEEP_SLOPE = 0.15  # decay-time slope against -2


def check_slow_law(chain, result):
    """Slow-law constants of a chain reduction against the closed form."""
    A_pipe, B_pipe, B_const = chain_slow_law(result)
    A_form, B_form = chain_phase_constants(chain)
    dA, dB = abs(A_pipe - A_form), abs(B_pipe - B_form)
    metrics = {"A_pipeline": A_pipe, "B_pipeline": B_pipe, "B_pipeline_const": B_const,
               "A_formula": A_form, "B_formula": B_form, "abs_dA": dA, "abs_dB": dB}
    return ("slow-law constants", dA <= TOL_CONSTANTS and dB <= TOL_CONSTANTS,
            f"A={A_pipe:.12f} vs {A_form:.12f} (|dA|={dA:.2e}), "
            f"B={B_pipe:.12f} vs {B_form:.12f} (|dB|={dB:.2e})", metrics)


def check_residual_scaling(model, result):
    """Conjugacy defect slope between eps = 1e-2 and 1e-3 against order + 1."""
    r2 = conjugacy_residual(model, result, 1e-2)
    r3 = conjugacy_residual(model, result, 1e-3)
    slope = math.log(r2 / r3) / math.log(10.0)
    expected = result.order + 1
    metrics = {"conjugacy_residual": {"0.01": r2, "0.001": r3}, "residual_order_slope": slope}
    return ("residual order scaling", abs(slope - expected) <= TOL_RESIDUAL_SLOPE,
            f"slope={slope:.3f}, expected {expected} +/- {TOL_RESIDUAL_SLOPE:g}", metrics)


def check_normal_form(result):
    """Largest nonresonant phase coefficient with ``|k| <= K_nf``.

    Radius and resonance are the reduction's own: ``result.K_nf``, and
    ``|<omega, k>|`` at most ``result.tol_res``.
    """
    worst = 0.0
    for f in result.phase_terms:
        nonresonant = np.abs(np.vecdot(f.keys, result.omega)) > result.tol_res
        inside = nonresonant & (np.linalg.norm(f.keys, axis=1) <= result.K_nf)
        worst = max(worst, float(np.max(np.abs(f.values[inside]), initial=0.0)))
    return ("normal form", worst <= TOL_NORMAL_FORM,
            f"largest nonresonant phase coefficient {worst:.2e}", {"worst": worst})


def fibre_angle(a, b):
    """Largest angle between the lines of planar vectors ``a[i]`` and ``b[i]``.

    Read as ``atan2(|a x b|, |a . b|)``: arccos of a normalised dot product stops near 1.5e-8."""
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return float(np.max(np.arctan2(np.abs(cross), np.abs(np.sum(a * b, axis=-1)))))


def check_floquet(params, K):
    """Numeric Floquet data of a Stuart-Landau cycle against its analytic bundle."""
    ncyc = cycle_bundle(stuart_landau_cycle(params), K=K)
    expos = np.sort([ncyc.diagnostics["neutral_exponent"], *np.linalg.eigvals(ncyc.L).real])
    target = np.sort([0.0, params.floquet_exponent])
    dexp = float(np.max(np.abs(expos - target)))
    analytic = sl_bundle(params, K=K)
    grid = TorusGrid(1, (256,))
    angle = fibre_angle(grid.sample(ncyc.N)[..., 0], grid.sample(analytic.N)[..., 0])
    return ("floquet cross-check", dexp <= TOL_FLOQUET and angle <= TOL_FLOQUET,
            f"exponent error {dexp:.2e}, fibre subspace angle {angle:.2e}",
            {"exponents": expos, "target_exponents": target, "angle": angle})


def _diverged(name, rec):
    """A failed criterion for a run that blew up before its horizon."""
    t_stop = float(rec.t[-1])
    return (name, False, f"run diverged; stopped at t = {t_stop:g}", {"t_stop": t_stop})


def check_sync(model, eps, x0):
    """Tail of the synchronisation angle of a figure-faithful Euler run."""
    lo, hi = 2500.0, 4000.0
    rec = integrate_full(model, eps, x0, IntegratorSpec("euler", 0.05, hi, record_state=False))
    if rec.failed:
        return _diverged("synchronisation figure", rec)
    tail = float(np.max(np.abs(rec.phi_hat[(rec.t >= lo) & (rec.t <= hi)])))
    return ("synchronisation figure", tail <= TOL_SYNC_TAIL,
            f"max |phi_hat| on [{lo:g}, {hi:g}] = {tail:.2e} (<= {TOL_SYNC_TAIL:g})",
            {"tail": tail, "record": rec})


def check_phase_lock(model, eps, x0, A, B):
    """Locked synchronisation angle of an RK4 run against ``2 atan2(A, B)``."""
    lo, hi = 3000.0, 4000.0
    rec = integrate_full(model, eps, x0, IntegratorSpec("rk4", 0.01, hi, record_stride=5,
                                                        record_state=False))
    if rec.failed:
        return _diverged("phase-locking figure", rec)
    seg = rec.phi_hat[(rec.t >= lo) & (rec.t <= hi)]
    c = float(np.mean(seg))
    band = float(np.max(np.abs(seg - c)))
    target = 2.0 * math.atan2(A, B)
    # compare modulo 2 pi: the unwrapped angle may settle on any branch
    gap = abs((c - target + math.pi) % (2.0 * math.pi) - math.pi)
    return ("phase-locking figure", band <= TOL_LOCK and gap <= TOL_LOCK,
            f"lock at {c:.4f} vs predicted {target:.4f} "
            f"(gap {gap:.3f} mod 2 pi), band +/-{band:.3f}",
            {"lock": c, "band": band, "target": target, "gap": gap})


def check_decay_sweep(model, x0, eps_list, spec):
    """Log-log slope of the decay time across couplings against -2."""
    sw = sweep_epsilon(model, x0, eps_list, spec)
    n_conv = int(np.sum(sw.converged))
    metrics = {"slope": sw.slope, "converged": n_conv}
    if sw.slope is None:
        return ("decay-time sweep", False, "fewer than 3 converged runs; no fit", metrics)
    return ("decay-time sweep", abs(sw.slope + 2.0) <= TOL_SWEEP_SLOPE,
            f"slope {sw.slope:.3f}, expected -2 +/- {TOL_SWEEP_SLOPE:g} "
            f"({n_conv}/{sw.eps.size} converged)", metrics)


def verify_battery(cfg):
    """Yield the criteria that apply to a run configuration, in report order."""
    chain = cfg.chain
    model = chain_model(chain)
    bundle = chain_bundle(chain, K=cfg.bundle_K)
    result = phase_reduce(model, bundle, order=max(cfg.J, 2), K=cfg.K, K_nf=cfg.K_nf,
                          tol_res=cfg.tol_res)
    yield check_slow_law(chain, result)
    yield check_residual_scaling(model, result)
    yield check_normal_form(result)
    yield check_floquet(chain.outer, K=cfg.bundle_K)
    A, B = chain_phase_constants(chain)
    if A <= 0:
        yield check_phase_lock(model, chain.epsilon, cfg.x0, A, B)
        return
    yield check_sync(model, chain.epsilon, cfg.x0)
    # The decay-to-10% time only exists when the outer pair
    # synchronises; locking parameter sets have no such crossing.
    yield check_decay_sweep(model, cfg.sweep_x0, cfg.sweep_eps(), cfg.sweep_spec)


def _cmd_verify(cfg, out):
    entries = []
    for name, ok, detail, _ in verify_battery(cfg):
        entries.append({"criterion": name, "passed": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    passed = all(e["passed"] for e in entries)
    _dump_json({"criteria": entries, "passed": passed}, out / "report.json")
    return EXIT_OK if passed else EXIT_ACCEPTANCE


def run(config_path=None, out_override=None, preset=None):
    """Execute one command from a config file or bundled preset."""
    try:
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
            doc = json.loads(json.dumps(PRESETS[preset]))
            if config_path is not None:
                raise ConfigError("pass either --config or --preset, not both")
        elif config_path is not None:
            try:
                with open(config_path) as fh:
                    doc = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        else:
            raise ConfigError("one of --config or --preset is required")
        cfg = RunConfig(doc)
        out = Path(out_override) if out_override else Path(cfg.output_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from None
        handler = {
            "bundle": _cmd_bundle,
            "reduce": _cmd_reduce,
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
            "verify": _cmd_verify,
        }[cfg.command]
        return handler(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="torusred",
        description="High-order phase reduction of weakly coupled oscillator networks.",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="bundled parameter set (runs its verify battery)")
    args = parser.parse_args(argv)
    return run(config_path=args.config, out_override=args.out, preset=args.preset)


if __name__ == "__main__":
    sys.exit(main())
