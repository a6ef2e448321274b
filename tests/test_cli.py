import json
import re

import numpy as np
import pytest
from test_bundle import vdp_start
from test_reduction import understated_degree

from torusred.bundle import TorusBundle, cycle_bundle, product_bundle
from torusred.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    PRESETS,
    _diverged,
    check_floquet,
    check_normal_form,
    check_phase_lock,
    fibre_angle,
    main,
    run,
)
from torusred.errors import HyperbolicityError, NumericalError
from torusred.fourier import FourierMap
from torusred.models import ChainConfig, chain_bundle, chain_model, chain_phase_constants
from torusred.reduction import phase_reduce
from torusred.sim import IntegratorSpec, integrate_full

SET1_MODEL = {
    "chain": {
        "alpha": 1.0, "beta": 1.0, "gamma": -1.0, "delta": 1.0,
        "a": 1.0, "b": 2.0, "c": -1.0, "d": -1.0, "epsilon": 0.1,
    }
}

SMALL_SWEEP = {"eps_min": 0.07, "eps_max": 0.1, "n": 4, "t_end_ref": 1500.0,
               "x0": [[-1.0, 0.3], [1.0, 0.4], [-1.0, 0.5]]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def test_reduce_command_writes_report(tmp_path):
    cfg = {
        "command": "reduce",
        "model": SET1_MODEL,
        "numerics": {"K": 8, "K_nf": 6, "J": 2},
        "output_dir": str(tmp_path / "out"),
    }
    status = run(config_path=write_config(tmp_path, cfg))
    assert status == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["abs_dA"] <= 1e-8
    assert report["abs_dB"] <= 1e-8
    assert report["A_formula"] == pytest.approx(0.2)
    assert report["B_formula"] == pytest.approx(-0.6)
    assert abs(report["residual_order_slope"] - 3.0) <= 0.1
    reduction = json.loads((tmp_path / "out" / "reduction.json").read_text())
    assert reduction["order"] == 2
    assert len(reduction["phase_terms"]) == 2


def test_reduce_at_first_order_reports_without_slow_law(tmp_path):
    doc = {"command": "reduce", "model": SET1_MODEL, "numerics": {"K": 8, "K_nf": 6, "J": 1},
           "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(report["residual_order_slope"] - 2.0) <= 0.1
    assert "A_pipeline" not in report and report["second_order_constants"] is None


@pytest.mark.parametrize("command,numerics", [
    ("reduce", {"K": 8, "K_nf": 6, "J": 2}),
    ("sweep", {"sweep": SMALL_SWEEP}),
], ids=["reduce", "sweep"])
def test_artifacts_are_deterministic(tmp_path, command, numerics):
    cfg = {
        "command": command,
        "model": SET1_MODEL,
        "numerics": numerics,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, cfg)
    assert run(config_path=path) == EXIT_OK
    first = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    assert run(config_path=path) == EXIT_OK
    second = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    assert first == second


def test_resonant_config_exits_with_config_error(tmp_path, capsys):
    doc = {
        "command": "reduce",
        "model": {"chain": {"alpha": 1.0, "beta": 1.0, "gamma": -1.0, "delta": 1.0,
                            "a": 1.0, "b": 1.0, "c": -1.0, "d": 1.0, "epsilon": 0.1}},
        "output_dir": str(tmp_path / "out"),
    }
    status = run(config_path=write_config(tmp_path, doc))
    assert status == EXIT_CONFIG
    assert "resonance guard" in capsys.readouterr().err


def test_too_small_truncation_exits_with_numerical_error(tmp_path, capsys):
    doc = {
        "command": "reduce",
        "model": SET1_MODEL,
        "numerics": {"K": 1, "K_nf": 1, "J": 2},
        "output_dir": str(tmp_path / "out"),
    }
    status = run(config_path=write_config(tmp_path, doc))
    assert status == EXIT_NUMERICAL
    assert "raise K" in capsys.readouterr().err


def test_small_divisor_exits_with_numerical_error(tmp_path, capsys):
    # The middle frequency 2 + 5e-7 puts <omega, (-1, 1, 0)> = 5e-7 between
    # the resonance threshold tol_res and the small-divisor floor.
    doc = {
        "command": "reduce",
        "model": {"chain": {**SET1_MODEL["chain"], "b": 3.0 + 5e-7}},
        "numerics": {"K": 8, "K_nf": 6, "J": 2},
        "output_dir": str(tmp_path / "out"),
    }
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_NUMERICAL
    assert "small divisor at k=(-1, 1, 0)" in capsys.readouterr().err


def test_aliasing_exits_with_numerical_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("torusred.cli.chain_model", lambda chain: understated_degree(
        chain_model(chain)))
    doc = {"command": "reduce", "model": SET1_MODEL, "numerics": {"K": 8, "K_nf": 6, "J": 2},
           "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_NUMERICAL
    assert "guard shell of grid (7, 7, 7), so it may alias; raise the grid" in \
        capsys.readouterr().err


def test_truncated_cycle_exits_with_numerical_error(tmp_path, capsys, monkeypatch):
    # A van der Pol cycle cut at K = 24 drops harmonics its invariance needs.
    monkeypatch.setattr("torusred.cli.chain_bundle",
                        lambda cfg, K: cycle_bundle(vdp_start(1.0), K=24.0))
    doc = {"command": "bundle", "model": SET1_MODEL, "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_NUMERICAL
    assert "series 'cycle' has mass 7.433e-06 on the truncation boundary |k| ~ 24.0; raise K" \
        in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(config_path=str(path)) == EXIT_CONFIG


@pytest.mark.parametrize("numerics", [
    {"K": "abc"},
    {"K_nf": [6]},
    {"J": "two"},
    {"tol_res": "abc"},
    {"tol_res": -1e-9},
    {"tol_res": 0},
    {"integrator": {"dt": "fast"}},
    {"integrator": {"record_stride": None}},
    {"sweep": {"n": "many"}},
    {"x0": [[1, 0], [1]]},
    {"sweep": {"x0": [[1, 0], [1, "i"], [0, 1]]}},
    {"integrator": []},
    {"sweep": "fast"},
    {"J": 2.7},
    {"J": True},
    {"J": float("inf")},
    {"K_nf": True},
    {"sweep": {"dt": True}},
    {"integrator": {"record_stride": 2.5}},
    {"sweep": {"n": 4.5}},
    {"integrator": {"t_end": float("inf")}},
], ids=["K", "K_nf", "J", "tol_res", "tol_res_negative", "tol_res_zero", "dt",
        "record_stride", "sweep_n", "x0_ragged", "sweep_x0", "integrator_section",
        "sweep_section", "J_fraction", "J_bool", "J_inf", "K_nf_bool", "sweep_dt_bool",
        "record_stride_fraction", "sweep_n_fraction", "t_end_inf"])
def test_malformed_numerics_are_config_errors(tmp_path, capsys, numerics):
    doc = {"command": "reduce", "model": SET1_MODEL, "numerics": numerics,
           "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"epsilon": "0.1"},
    {"epsilon": float("nan")},
    {"alpha": True},
    {"output_dir": 5},
], ids=["epsilon_string", "epsilon_nan", "alpha_bool", "output_dir_number"])
def test_malformed_chain_and_output_dir_are_config_errors(tmp_path, capsys, change):
    chain = {**SET1_MODEL["chain"], **{k: v for k, v in change.items() if k != "output_dir"}}
    doc = {"command": "simulate", "model": {"chain": chain},
           "numerics": {"integrator": {"t_end": 1.0}},
           "output_dir": change.get("output_dir", str(tmp_path / "out"))}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_output_dir_naming_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    doc = {"command": "simulate", "model": SET1_MODEL,
           "numerics": {"integrator": {"t_end": 1.0}}, "output_dir": str(taken)}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_CONFIG
    assert "config error: cannot create output directory" in capsys.readouterr().err


def test_sweep_from_in_phase_outer_pair_is_config_error(tmp_path, capsys):
    # z1 = z3: the outer pair starts synchronised, so the decay baseline of
    # T01 is undefined.
    doc = {
        "command": "sweep",
        "model": SET1_MODEL,
        "numerics": {"sweep": {"n": 2, "t_end_ref": 50.0,
                               "x0": [[-1.0, 0.3], [1.0, 0.4], [-1.0, 0.3]]}},
        "output_dir": str(tmp_path / "out"),
    }
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_CONFIG
    assert "config error: initial angle too small" in capsys.readouterr().err


def test_missing_config_and_preset_is_config_error():
    assert run() == EXIT_CONFIG


def test_unknown_command_is_config_error(tmp_path):
    doc = {"command": "explode", "model": SET1_MODEL}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_CONFIG


def test_bundle_command(tmp_path):
    doc = {
        "command": "bundle",
        "model": SET1_MODEL,
        "numerics": {"K": 8},
        "output_dir": str(tmp_path / "out"),
    }
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_OK
    bundle = json.loads((tmp_path / "out" / "bundle.json").read_text())
    assert bundle["omega"] == [2.0, 1.0, 2.0]
    L = np.array(bundle["L"])
    assert np.allclose(L, np.diag([-2.0, -2.0, -2.0]))
    assert bundle["e0"]["m"] == 3 and bundle["e0"]["p"] == 6
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pde_residual_rel"] <= 1e-10


def test_bundle_command_keeps_the_radius_floor(tmp_path):
    # The chain's bundle data has intrinsic radius 2; K = 3 still truncates at 4.
    doc = {"command": "bundle", "model": SET1_MODEL, "numerics": {"K": 3},
           "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_OK
    bundle = json.loads((tmp_path / "out" / "bundle.json").read_text())
    assert [bundle[name]["K"] for name in ("e0", "N")] == [4.0, 4.0]


def test_fibre_angle_resolves_angles_below_the_arccos_floor():
    phi = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    a = 0.7 * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    b = -1.3 * np.stack([np.cos(phi + 1e-10), np.sin(phi + 1e-10)], axis=-1)
    assert fibre_angle(a, b) == pytest.approx(1e-10, rel=0.01)
    assert fibre_angle(a, a) <= 1e-15


def test_simulate_command(tmp_path):
    doc = {
        "command": "simulate",
        "model": SET1_MODEL,
        "numerics": {
            "integrator": {"scheme": "euler", "dt": 0.05, "t_end": 50.0},
            "x0": [[-1.0, 0.0], [1.0, 0.4], [-1.0, 0.3]],
        },
        "output_dir": str(tmp_path / "out"),
    }
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_OK
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2,re_z3,im_z3,phi_hat"
    assert len(lines) == 1 + 1001


def test_sweep_command_small(tmp_path):
    doc = {
        "command": "sweep",
        "model": SET1_MODEL,
        "numerics": {"sweep": SMALL_SWEEP},
        "output_dir": str(tmp_path / "out"),
    }
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["slope"] is not None
    assert abs(report["slope"] + 2.0) <= 0.4
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,T01,converged"
    assert len(lines) == 5


def test_main_parses_flags(tmp_path):
    doc = {
        "command": "bundle",
        "model": SET1_MODEL,
        "output_dir": str(tmp_path / "ignored"),
    }
    path = write_config(tmp_path, doc)
    status = main(["--config", path, "--out", str(tmp_path / "other")])
    assert status == EXIT_OK
    assert (tmp_path / "other" / "bundle.json").exists()


def test_verify_failure_exits_with_acceptance_code(tmp_path, capsys):
    # A sweep horizon far too short for any decay leaves fewer than three
    # converged runs; that criterion fails and the battery reports it.
    doc = {
        "command": "verify",
        "model": SET1_MODEL,
        "numerics": {
            "K": 8, "K_nf": 6, "J": 2,
            "x0": [[-1.0, 0.0], [1.0, 0.4], [-1.0, 0.3]],
            "sweep": {"eps_min": 0.05, "eps_max": 0.1, "n": 4, "t_end_ref": 30.0,
                      "x0": [[-1.0, 0.3], [1.0, 0.4], [-1.0, 0.5]]},
        },
        "output_dir": str(tmp_path / "out"),
    }
    status = run(config_path=write_config(tmp_path, doc))
    assert status == EXIT_ACCEPTANCE
    out = capsys.readouterr().out
    assert "FAIL" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not report["passed"]


def test_reduce_with_degenerate_frames_exits_with_numerical_error(tmp_path, capsys,
                                                                monkeypatch):
    def degenerate(cfg, K):
        b = chain_bundle(cfg, K=K)
        return TorusBundle(b.e0, b.omega, b.e0.jacobian(), b.L)

    monkeypatch.setattr("torusred.cli.chain_bundle", degenerate)
    doc = {"command": "reduce", "model": SET1_MODEL, "numerics": {"K": 8, "K_nf": 6, "J": 2},
           "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_NUMERICAL
    assert "frames degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("rebuild", [False, True], ids=["product", "without-factors"])
def test_reduce_with_a_non_finite_frame_exits_with_numerical_error(tmp_path, capsys,
                                                                  monkeypatch, rebuild):
    # NaN fibres of the middle circle: the frame's SVD would not converge.
    def nan_fibres(cfg, K):
        outer, middle, _ = chain_bundle(cfg, K=K).factors
        N = FourierMap(1, middle.N.K, (middle.N.keys, np.full_like(middle.N.values, np.nan)),
                       middle.N.value_shape)
        p = product_bundle([outer, TorusBundle(middle.e0, middle.omega, N, middle.L), outer])
        return TorusBundle(p.e0, p.omega, p.N, p.L) if rebuild else p

    monkeypatch.setattr("torusred.cli.chain_bundle", nan_fibres)
    doc = {"command": "reduce", "model": SET1_MODEL, "numerics": {"K": 8, "K_nf": 6, "J": 2},
           "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_NUMERICAL
    assert "frames degenerate" in capsys.readouterr().err


# The reduction's entry check is the only check of the chain's product
# bundle on the reduce path; each broken bundle must trip its guard there.
@pytest.mark.parametrize("tamper,error,message", [
    (lambda b: TorusBundle(b.e0, b.omega, b.N, 2.0 * b.L), NumericalError,
     "fibre invariance equation violated: relative residual 2.000e+00"),
    (lambda b: TorusBundle(b.e0, b.omega, b.N, 0.0 * b.L), HyperbolicityError,
     "not hyperbolic"),
    (lambda b: TorusBundle(b.e0.scale(1.01), b.omega, b.N, b.L), NumericalError,
     "torus invariance equation violated: relative residual 1.406e-02"),
], ids=["L_doubled", "L_zero", "e0_scaled"])
def test_reduce_with_broken_bundle_exits_with_numerical_error(tmp_path, capsys, monkeypatch,
                                                            tamper, error, message):
    chain = ChainConfig(**SET1_MODEL["chain"])
    with pytest.raises(error, match=re.escape(message)):
        phase_reduce(chain_model(chain), tamper(chain_bundle(chain, K=8.0)), order=2, K_nf=6.0)
    monkeypatch.setattr("torusred.cli.chain_bundle", lambda cfg, K: tamper(chain_bundle(cfg, K=K)))
    doc = {"command": "reduce", "model": SET1_MODEL, "numerics": {"K": 8, "K_nf": 6, "J": 2},
           "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_NUMERICAL
    assert message in capsys.readouterr().err


def test_floquet_check_passes_on_a_clockwise_oscillator():
    # beta = -3 turns the outer oscillator clockwise, at frequency -2.
    outer = ChainConfig(**{**SET1_MODEL["chain"], "beta": -3.0}).outer
    assert outer.frequency == -2.0
    name, passed, detail, _ = check_floquet(outer, K=8.0)
    assert name == "floquet cross-check" and passed, detail


def test_verify_with_diverging_sync_run_fails_its_criterion(tmp_path, capsys):
    model = {"chain": {**SET1_MODEL["chain"], "epsilon": 60.0}}
    doc = {"command": "verify", "model": model,
           "numerics": {"K": 8, "K_nf": 6, "J": 2, "x0": [[-1.0, 0.0], [1.0, 0.4], [-1.0, 0.3]],
                        "sweep": SMALL_SWEEP},
           "output_dir": str(tmp_path / "out")}
    assert run(config_path=write_config(tmp_path, doc)) == EXIT_ACCEPTANCE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    sync = {c["criterion"]: c for c in report["criteria"]}["synchronisation figure"]
    assert not sync["passed"]
    assert "diverged" in sync["detail"] and "stopped at t = " in sync["detail"]
    assert "FAIL  synchronisation figure" in capsys.readouterr().out


def test_diverging_phase_lock_run_fails_its_criterion():
    chain = ChainConfig(**{**PRESETS["set2"]["model"]["chain"], "epsilon": 200.0})
    A, B = chain_phase_constants(chain)
    x0 = np.asarray(PRESETS["set2"]["numerics"]["x0"], dtype=float).reshape(-1)
    name, passed, detail, metrics = check_phase_lock(chain_model(chain), chain.epsilon, x0, A, B)
    assert name == "phase-locking figure" and not passed
    assert metrics["t_stop"] < 3000.0
    assert f"stopped at t = {metrics['t_stop']:g}" in detail


def test_a_diverged_run_is_timed_at_its_last_finite_step():
    # Recorded every third step, the run's last record is step 6 (t = 0.3),
    # while it took 7 finite steps before it blew up.
    chain = ChainConfig(**PRESETS["set1"]["model"]["chain"])
    x0 = np.asarray(PRESETS["set1"]["numerics"]["x0"], dtype=float).reshape(-1)
    x0[0] = 5.9887302
    spec = IntegratorSpec("rk4", 0.05, 100.0, record_stride=3)
    rec = integrate_full(chain_model(chain), chain.epsilon, x0, spec)
    assert rec.failed and rec.meta["steps"] == 7 and rec.t[-1] == 6 * 0.05
    name, passed, detail, metrics = _diverged("a figure", rec, spec)
    assert name == "a figure" and not passed
    assert detail == "run diverged; stopped at t = 0.35"
    assert metrics == {"t_stop": 7 * 0.05}


@pytest.mark.parametrize("preset,eps,scheme,dt,x0,steps", [
    ("set2", 200.0, "rk4", 0.01, PRESETS["set2"]["numerics"]["x0"], 4),
    ("set1", 60.0, "euler", 0.05, [[-1.0, 0.0], [1.0, 0.4], [-1.0, 0.3]], 8),
], ids=["phase-lock", "sync"])
def test_diverging_runs_stop_after_their_last_finite_step(preset, eps, scheme, dt, x0, steps):
    # The runs of the two diverging criteria above, recorded at every step:
    # each keeps exactly the finite steps the array integrator kept.
    chain = ChainConfig(**{**PRESETS[preset]["model"]["chain"], "epsilon": eps})
    x = np.asarray(x0, dtype=float).reshape(-1)
    rec = integrate_full(chain_model(chain), eps, x, IntegratorSpec(scheme, dt, 4000.0))
    assert rec.failed
    assert len(rec.t) == len(rec.states) == len(rec.phi_hat) == steps + 1
    assert rec.t[-1] == steps * dt
    assert np.all(np.isfinite(rec.states))


def test_normal_form_check_judges_resonance_by_the_runs_tol_res():
    # At b = 3.0005, |<omega, (-1, 1, 0)>| = 5e-4: resonant under tol_res = 1e-3,
    # so the reduction keeps that term in f_1, and the check must not count it.
    chain = ChainConfig(**{**SET1_MODEL["chain"], "b": 3.0005})
    result = phase_reduce(chain_model(chain), chain_bundle(chain, K=8.0), order=2,
                          K_nf=6.0, tol_res=1e-3)
    f1 = result.phase_terms[0]
    near = np.abs(np.vecdot(f1.keys, result.omega))
    assert np.any((near > 0) & (near <= 1e-3))
    assert f1.norm() > 0.1
    name, passed, detail, metrics = check_normal_form(result)
    assert passed, detail
    assert metrics["worst"] == 0.0


def test_verify_quick_battery(tmp_path, capsys):
    # A trimmed battery: small sweep, but identical criteria and tolerances.
    doc = {
        "command": "verify",
        "model": SET1_MODEL,
        "numerics": {
            "K": 8, "K_nf": 6, "J": 2,
            "x0": [[-1.0, 0.0], [1.0, 0.4], [-1.0, 0.3]],
            "sweep": {"eps_min": 0.05, "eps_max": 0.1, "n": 5, "t_end_ref": 2500.0,
                      "x0": [[-1.0, 0.3], [1.0, 0.4], [-1.0, 0.5]]},
        },
        "output_dir": str(tmp_path / "out"),
    }
    status = run(config_path=write_config(tmp_path, doc))
    captured = capsys.readouterr().out
    assert status == EXIT_OK, captured
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"]
    names = [c["criterion"] for c in report["criteria"]]
    assert "slow-law constants" in names
    assert "decay-time sweep" in names
    assert captured.count("PASS") == len(names)
