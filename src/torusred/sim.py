"""Full-system and reduced-system integration and synchronisation metrics.

Fixed-step Euler and RK4 drive both the coupled oscillator ODE and the
reduced phase flow.  The synchronisation observable is the unwrapped
angle of ``z_i conj(z_j)`` for the pair ``(i, j)`` of oscillators a model
names (the phase difference ``phi_i - phi_j`` on the reduced flow); its
decay is summarised by the time needed to fall to a tenth of the initial
value, measured on a running-maximum envelope so the fast beating does
not trigger early crossings.  ``torus_phases`` reads the phases of
full states off an embedded torus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

__all__ = [
    "IntegratorSpec",
    "TrajectoryRecord",
    "SweepResult",
    "integrate_full",
    "integrate_reduced",
    "measure_T01",
    "sweep_epsilon",
    "fit_powerlaw",
    "torus_phases",
    "envelope",
    "trajectory_csv",
    "sweep_csv",
    "phases_from_state",
]

_SCHEMES = ("euler", "rk4")
T01_FRACTION = 0.1  # T01: the envelope falls to this fraction of |phi_hat[0]|
DISTANCE_GRID = 16  # angle-grid nodes per axis seeding torus_phases
DISTANCE_REFINE = 6  # Gauss-Newton steps of torus_phases


@dataclass
class IntegratorSpec:
    """Fixed-step integrator configuration: the whole policy of one run."""

    scheme: str = "rk4"
    dt: float = 0.01
    t_end: float = 100.0
    record_stride: int = 1  # record every record_stride-th step and the last
    record_state: bool = True  # record the states, not only t and the observable
    until_t01: bool = False  # end once T01 can no longer change (see _until_decided)

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme '{self.scheme}'; pick one of {_SCHEMES}")
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ConfigError("dt and t_end must be positive and finite")
        if not (self.t_end / self.dt < math.inf and self.steps() >= 1):
            raise ConfigError("t_end / dt must round to a finite number of steps, at least one")
        if not (self.record_stride >= 1 and self.record_stride % 1 == 0):
            raise ConfigError("record_stride must be a whole number >= 1")

    def steps(self):
        return int(round(self.t_end / self.dt))


@dataclass
class TrajectoryRecord:
    """Time series produced by one integration run.

    ``phi_hat`` is the unwrapped synchronisation angle (consecutive
    jumps below pi by construction).  ``states`` may be omitted for
    long sweep runs.  ``failed`` marks a blow-up; the record then holds
    the finite prefix.
    """

    t: np.ndarray
    states: np.ndarray | None
    phi_hat: np.ndarray | None
    kind: str = "full"
    failed: bool = False
    meta: dict = field(default_factory=dict)


def _check_pair(pair, m):
    """``pair`` as a tuple, once it names two distinct of the ``m`` oscillators (or phases)."""
    pair = tuple(pair)
    if len(pair) != 2 or len(set(pair) & set(range(m))) != 2:
        raise ConfigError(f"pair {pair} must name two distinct oscillators of the {m} phases")
    return pair


def phases_from_state(x):
    """Oscillator phases ``arg(z_j)`` of a state of complex pairs."""
    return np.angle(np.ascontiguousarray(x, dtype=float).view(complex))


def _beat_period(omega):
    diffs = [abs(a - b) for idx, a in enumerate(omega) for b in omega[idx + 1:]]
    diffs = [d for d in diffs if d > 1e-9]
    return 2.0 * math.pi / min(diffs) if diffs else 2.0 * math.pi


def _march(step, x, spec, observe, stop):
    """Fixed-step loop shared by both integrators.

    Advances the state ``x``, a sequence of scalars, with ``step`` and stops
    at the first state with a non-finite entry.  Every ``record_stride``
    steps and at the last one, the time, the state (with the spec's
    ``record_state``) and ``observe(x)``, when given, are recorded;
    ``stop(value)``, when given, then sees the observed value and ends the
    run there by returning true.  Returns ``(t, states, observed, failed)``.
    """
    n, stride, dt, record_state = spec.steps(), spec.record_stride, spec.dt, spec.record_state
    ts = [0.0]
    states = [x] if record_state else None
    seen = [observe(x)] if observe else None
    failed = False
    for i in range(1, n + 1):
        x = step(x)
        if not all(map(cmath.isfinite, x)):
            failed = True
            break
        if i % stride == 0 or i == n:
            ts.append(i * dt)
            if record_state:
                states.append(x)
            if observe:
                value = observe(x)
                seen.append(value)
                if stop and stop(value):
                    break
    return ts, states, seen, failed


def _rk4_step(f, x, dt):
    """One classical RK4 step; the fused steps reproduce its order of operations bit for bit."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _array_step(rhs, spec):
    """The spec's scheme as one step of ``dx/dt = rhs(x)`` on arrays."""
    dt = spec.dt
    if spec.scheme == "euler":
        return lambda x: x + dt * rhs(x)
    return lambda x: _rk4_step(rhs, x, dt)


def _phase_step(omega, series, spec):
    """The spec's scheme for ``omega + sum_k Re(c_k e^{i<k, phi>})`` on tuples of floats."""
    dt, base, nan = spec.dt, omega.tolist(), [math.nan] * omega.size
    keys = [[(a, k) for a, k in enumerate(row) if k] for row in series.keys.astype(float).tolist()]
    cols = [list(zip(z.real.tolist(), z.imag.tolist())) for z in series.values.T]

    def field(p):
        cs = []
        try:
            for pairs in keys:
                theta = 0.0  # every sum runs in numpy's order
                for a, k in pairs:
                    theta += k * p[a]
                cs.append((math.cos(theta), math.sin(theta)))
        except ValueError:  # math.cos of an infinite angle; numpy's exp gives NaN
            return nan
        out = []
        for omega_a, col in zip(base, cols):
            v = 0.0
            for (c, s), (r, i) in zip(cs, col):
                v += c * r - s * i
            out.append(omega_a + v)
        return out

    if spec.scheme == "euler":
        return lambda p: tuple([x + dt * f for x, f in zip(p, field(p))])
    h, w = 0.5 * dt, dt / 6.0

    def rk4(p):
        a = field(p)
        b = field([x + h * k for x, k in zip(p, a)])
        c = field([x + h * k for x, k in zip(p, b)])
        d = field([x + dt * k for x, k in zip(p, c)])
        return tuple([x + w * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                      for x, k1, k2, k3, k4 in zip(p, a, b, c, d)])

    return rk4


def _unwrapped_pair_angle(step, z, pair):
    """``step`` that also unwraps the pair angle, and an observer of it.

    Unwrapping after every step, from the state ``z`` on, keeps the angle
    continuous however sparsely the observer's latest value is recorded.
    """
    # The angle of z_i conj(z_j) by math.atan2: cmath.phase raises where the angle underflows.
    i, j = pair
    w = z[i] * z[j].conjugate()
    unwrapped = raw = math.atan2(w.imag, w.real)

    def tracked(z):
        nonlocal unwrapped, raw
        z = step(z)
        w = z[i] * z[j].conjugate()
        new = math.atan2(w.imag, w.real)
        unwrapped += (new - raw + math.pi) % (2.0 * math.pi) - math.pi
        raw = new
        return z

    return tracked, lambda z: unwrapped


def _t01_threshold(start):
    """Level T01 waits for, from the observable's starting value."""
    baseline = abs(float(start))
    if baseline < 1e-6:
        raise ConfigError("initial angle too small: the decay baseline is undefined")
    return T01_FRACTION * baseline


def _window_samples(window, dt_rec):
    """Recorded samples in one envelope window of length ``window``."""
    return max(1, int(math.ceil(window / dt_rec)))


def _until_decided(start, window, spec):
    """Stop hook for ``_march`` that fires once T01 can no longer change.

    It fires at the recorded sample that closes the first stretch of
    ``wn`` samples with ``|phi_hat|`` at or below the T01 threshold (see
    ``measure_T01``), and raises ``ConfigError`` up front when the decay
    baseline is undefined.
    """
    threshold = _t01_threshold(start)
    wn = _window_samples(window, spec.record_stride * spec.dt)
    streak = 0

    def stop(value):
        nonlocal streak
        streak = streak + 1 if abs(value) <= threshold else 0
        return streak >= wn

    return stop


def _start(x0, size, what, omega, spec):
    """A checked fresh float copy of the initial ``what``, and the beat period."""
    x = np.asarray(x0, dtype=float).copy()
    if x.size != size or not np.all(np.isfinite(x)):
        raise ConfigError(f"initial {what} must be finite with {size} components")
    if spec.dt * float(np.max(np.abs(omega))) >= math.pi:
        raise ConfigError("dt too large: per-step phase increments would exceed pi")
    return x, _beat_period(omega)


def integrate_full(model, eps, x0, spec):
    """Integrate the coupled system at coupling strength ``eps``.

    When the model names a ``pair``, the unwrapped angle between its two
    oscillators is recorded alongside the trajectory.  A non-finite state
    stops the run early and flags the record.  The spec says what is
    recorded and whether the run ends at T01; ``until_t01`` needs a model
    with a pair (``ConfigError``).
    """
    pair = model.pair
    if spec.until_t01 and pair is None:
        raise ConfigError("until_t01 needs a model that names the pair whose angle T01 times")
    x, beat = _start(x0, model.M, "state", model.omega, spec)
    rhs_step = _array_step(lambda y: model.rhs(y, eps), spec)
    # Complex-pair states step as the oscillators' complex values.
    if model.fast_step is not None:
        step, state = model.fast_step(eps, spec.scheme, spec.dt), tuple(x.view(complex).tolist())
    elif pair is not None:
        step, state = (lambda z: rhs_step(z.view(float)).view(complex)), x.view(complex)
    else:
        step, state = rhs_step, x
    observe = stop = None
    if pair is not None:
        step, observe = _unwrapped_pair_angle(step, state, pair)
        if spec.until_t01:
            stop = _until_decided(observe(state), beat, spec)
    ts, states, angles, failed = _march(step, state, spec, observe, stop)
    return TrajectoryRecord(
        t=np.asarray(ts),
        states=np.asarray(states).view(float) if spec.record_state else None,
        phi_hat=np.asarray(angles) if pair is not None else None,
        failed=failed,
        meta={"beat_period": beat, "pair": pair},
    )


def integrate_reduced(result, eps, phi0, spec, pair):
    """Integrate the reduced phase flow ``dphi/dt = omega + sum eps^j f_j``.

    Angles are stored unwrapped (the phase fields are 2 pi periodic, so
    real-line phases are fine).  The recorded observable is the phase
    difference ``phi_i - phi_j`` of the ``pair`` ``(i, j)``, shifted by a
    multiple of 2 pi so that it starts in (-pi, pi] like the full record's
    pair angle.  The spec's policy acts as in ``integrate_full``.

    The phases step as Python floats in the one ``_march`` loop: bit for bit
    as on numpy arrays on the chain's reduced fields, to roundoff elsewhere.
    """
    omega = result.omega
    i_idx, j_idx = _check_pair(pair, omega.size)
    phi, beat = _start(phi0, omega.size, "phases", omega, spec)
    shift = 2.0 * math.pi * math.ceil((phi[i_idx] - phi[j_idx] - math.pi) / (2.0 * math.pi))

    def observe(p):
        return (p[i_idx] - p[j_idx]) - shift

    stop = _until_decided(observe(phi), beat, spec) if spec.until_t01 else None
    step = _phase_step(omega, result.phase_field(eps), spec)
    ts, phis, phi_hat, failed = _march(step, tuple(phi.tolist()), spec, observe, stop)
    return TrajectoryRecord(
        t=np.asarray(ts),
        states=np.asarray(phis) if spec.record_state else None,
        phi_hat=np.asarray(phi_hat),
        kind="reduced",
        failed=failed,
        meta={"beat_period": beat},
    )


def envelope(record):
    """Forward-looking running maximum of ``|phi_hat|`` over one beat window.

    Sample ``i`` is the maximum of ``|phi_hat|`` over the recorded samples
    ``[i, i + wn - 1]``, cut at the record's end, where
    ``wn = ceil(beat_period / dt_rec)`` counts recorded samples
    (``dt_rec`` is the spacing of the first two).
    """
    if record.phi_hat is None:
        raise ValueError("record carries no synchronisation angle")
    window = record.meta.get("beat_period", 2.0 * math.pi)
    absphi = np.abs(record.phi_hat)
    if len(record.t) < 2:
        return absphi
    wn = min(_window_samples(window, record.t[1] - record.t[0]), len(absphi))
    padded = np.concatenate([absphi, np.full(wn - 1, absphi[-1])])
    return np.lib.stride_tricks.sliding_window_view(padded, wn).max(axis=-1)


def measure_T01(record, use_envelope=True):
    """First time the synchronisation angle falls to 10 percent.

    The crossing is detected on the running-maximum envelope of
    ``|phi_hat|`` over one slow-beat window (the raw signal oscillates
    quickly and would cross too early); pass ``use_envelope=False`` for
    the raw-signal variant.  T01 is the time of the first recorded
    sample ``i`` whose forward window ``[i, i + wn - 1]`` (see
    ``envelope``) stays at or below ``T01_FRACTION * |phi_hat[0]|``.  It
    is decided once such a stretch of ``wn`` samples is recorded: every
    earlier window already lies inside the record, and the raw signal
    never exceeds the envelope, so raw T01 is decided too.  Returns
    NaN when the threshold is never reached; a start with no initial
    angle is a configuration error.
    """
    if record.phi_hat is None:
        raise ValueError("record carries no synchronisation angle")
    threshold = _t01_threshold(record.phi_hat[0])
    signal = envelope(record) if use_envelope else np.abs(record.phi_hat)
    hits = np.nonzero(signal <= threshold)[0]
    if hits.size == 0:
        return float("nan")
    return float(record.t[hits[0]])


def torus_phases(e, states):
    """Closest points of ``states`` on the embedded torus ``e``.

    Each state of the ``(n, M)`` array is seeded with the nearest node of
    an angle grid, then Gauss-Newton steps refine its closest point on
    ``e``, all states at once.  Returns ``(phases, distances)``: the angles
    of the closest points, shape ``(n, m)`` and not reduced mod 2 pi, and
    the states' distances from them, shape ``(n,)``.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != e.p:
        raise ValueError(f"states of shape {states.shape} are not rows of {e.p} values")
    ejac, m = e.jacobian(), e.m
    axes = [np.linspace(0.0, 2.0 * np.pi, DISTANCE_GRID, endpoint=False) for _ in range(m)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    torus_points = e.eval(mesh)
    phases = mesh[[np.argmin(np.sum((torus_points - x) ** 2, axis=-1)) for x in states]]
    for _ in range(DISTANCE_REFINE):
        r = states - e.eval(phases)
        E = ejac.eval(phases)
        ET = np.swapaxes(E, -1, -2)
        phases = phases + np.linalg.solve(ET @ E, ET @ r[..., None])[..., 0]
    return phases, np.linalg.norm(states - e.eval(phases), axis=-1)


def fit_powerlaw(eps, t01):
    """Least-squares slope and intercept of ``ln T01`` against ``ln eps``."""
    eps = np.asarray(eps, dtype=float)
    t01 = np.asarray(t01, dtype=float)
    slope, intercept = np.polyfit(np.log(eps), np.log(t01), 1)
    return float(slope), float(intercept)


@dataclass
class SweepResult:
    """Decay times across a sweep of coupling strengths."""

    eps: np.ndarray
    t01: np.ndarray
    t01_raw: np.ndarray
    converged: np.ndarray
    slope: float | None
    intercept: float | None

    def to_json_dict(self):
        return {
            "eps": self.eps.tolist(),
            "t01": [None if not np.isfinite(v) else v for v in self.t01],
            "t01_raw": [None if not np.isfinite(v) else v for v in self.t01_raw],
            "converged": [bool(c) for c in self.converged],
            "slope": self.slope,
            "intercept": self.intercept,
        }


def sweep_epsilon(model, x0, eps_list, spec, reduction=None):
    """Measure the decay time across coupling strengths.

    Every lane starts from the same initial state, records no states and
    runs ``until_t01``; its horizon grows like ``eps^-2`` away from the
    largest coupling, matching the slow timescale.  Each lane stops at the
    recorded sample that closes its first stretch of ``wn`` samples at or
    below the T01 threshold, where T01's forward window ``[i, i + wn - 1]``
    ends, so T01 and raw T01 equal those of the full horizon (see
    ``measure_T01``).  A lane that never closes such a stretch steps its
    whole horizon; one that would blow up only after its stop reports its
    T01 instead of NaN.  Lanes run in list order.  A model without a ``pair``,
    an ``x0`` that is not a state of the model and an in-phase pair raise
    ``ConfigError`` before any stepping.  Passing a :class:`ReductionResult`
    sweeps the reduced flow of the model's pair, from the phases of ``x0``,
    instead of the full system.
    """
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if eps_arr.size < 1 or np.any(eps_arr <= 0):
        raise ConfigError("couplings must be positive")
    d = np.diff(eps_arr)
    if eps_arr.size > 1 and not (np.all(d > 0) or np.all(d < 0)):
        raise ConfigError("couplings must be strictly increasing or decreasing")
    if model.pair is None:
        raise ConfigError("the model names no pair of oscillators whose angle a sweep observes")
    x0 = _start(x0, model.M, "state", model.omega, spec)[0]
    eps_ref = float(np.max(eps_arr))
    phi0 = phases_from_state(x0) if reduction is not None else None

    def run(eps):
        run_spec = replace(spec, t_end=spec.t_end * (eps_ref / eps) ** 2,
                           record_state=False, until_t01=True)
        if reduction is not None:
            rec = integrate_reduced(reduction, eps, phi0, run_spec, model.pair)
        else:
            rec = integrate_full(model, eps, x0, run_spec)
        if rec.failed:
            return float("nan"), float("nan")
        return measure_T01(rec), measure_T01(rec, use_envelope=False)

    t01, t01_raw = np.array([run(float(e)) for e in eps_arr]).T
    converged = np.isfinite(t01)
    if int(np.sum(converged)) >= 3:
        slope, intercept = fit_powerlaw(eps_arr[converged], t01[converged])
    else:
        slope = intercept = None
    return SweepResult(eps_arr, t01, t01_raw, converged, slope, intercept)


# ----------------------------------------------------------------------
# CSV artifacts


def _fmt(x):
    return format(float(x), ".17g")


def trajectory_csv(record, path):
    """Write ``t,re_z1,im_z1,...,phi_hat`` rows (or phases for reduced runs)."""
    with open(path, "w", newline="") as fh:
        cols = ["t"]
        if record.states is not None:
            n_state = record.states.shape[1]
            if record.kind == "full" and record.meta.get("pair") is not None:
                for j in range(n_state // 2):
                    cols += [f"re_z{j + 1}", f"im_z{j + 1}"]
            elif record.kind == "reduced":
                cols += [f"phi{j + 1}" for j in range(n_state)]
            else:
                cols += [f"x{j + 1}" for j in range(n_state)]
        if record.phi_hat is not None:
            cols.append("phi_hat")
        columns = [c for c in (record.t, record.states, record.phi_hat) if c is not None]
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=",".join(cols), comments="")


def sweep_csv(sweep, path):
    """Write ``epsilon,T01,converged`` rows."""
    with open(path, "w", newline="") as fh:
        fh.write("epsilon,T01,converged\n")
        for e, t, c in zip(sweep.eps, sweep.t01, sweep.converged):
            t_str = _fmt(t) if np.isfinite(t) else "nan"
            fh.write(f"{_fmt(e)},{t_str},{'true' if c else 'false'}\n")
