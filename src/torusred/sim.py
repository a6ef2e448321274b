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

    scheme: str
    dt: float
    t_end: float
    record_stride: int = 1  # record every record_stride-th step and the last
    record_state: bool = True  # record the states, not only t and the observable
    until_t01: bool = False  # end once T01 can no longer change (see _lane)

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


def _t01_threshold(start):
    """Level T01 waits for, from the observable's starting value."""
    baseline = abs(float(start))
    if baseline < 1e-6:
        raise ConfigError("initial angle too small: the decay baseline is undefined")
    return T01_FRACTION * baseline


def _window_samples(window, dt_rec):
    """Recorded samples in one envelope window of length ``window``."""
    return max(1, int(math.ceil(window / dt_rec)))


def _stages(scheme, m, rates):
    """The scheme's stages for a flow of ``m`` scalars ``p0, p1, ...``, as source lines.

    ``rates(x, f)`` gives the lines that set ``f0, f1, ...`` (``f`` a prefix)
    to the rates at the scalars named ``x``; a "scalar" may be a whole array
    (the one ``p0`` of an array lane).  The stages advance ``p0, p1, ...``
    in place by Euler, ``p = p + dt * f1``, or by classical RK4 through the
    stage inputs ``q0, q1, ...`` and the rates ``f1_0, ..., f4_0, ...``:
    ``q = p + h * f1``, ``q = p + h * f2``, ``q = p + dt * f3``, then
    ``p = p + w * (f1 + 2.0 * f2 + 2.0 * f3 + f4)``, with the ``dt``,
    ``h = dt / 2`` and ``w = dt / 6`` of ``_lane``.  That order of
    operations is part of every lane's bits.
    """
    p, q = [f"p{a}" for a in range(m)], [f"q{a}" for a in range(m)]
    lines = rates(p, "f1_")
    if scheme == "euler":
        return lines + [f"p{a} = p{a} + dt * f1_{a}" for a in range(m)]
    for scale, f, g in (("h", "f1_", "f2_"), ("h", "f2_", "f3_"), ("dt", "f3_", "f4_")):
        lines += [f"q{a} = p{a} + {scale} * {f}{a}" for a in range(m)] + rates(q, g)
    return lines + [f"p{a} = p{a} + w * (f1_{a} + 2.0 * f2_{a} + 2.0 * f3_{a} + f4_{a})"
                    for a in range(m)]


def _phase_rates(omega, series):
    """The rates of ``omega + sum_k Re(c_k e^{i<k, phi>})`` as source, and the names they use.

    A rate is written as the looped field made it: each angle ``0.0 + k p``
    over the key's nonzero entries in axis order, each rate ``omega_a + (0.0
    + (cos Re c - sin Im c) + ...)`` in key order.  The key entries,
    coefficients and frequencies are names, bound in the namespace, as NaN,
    +-inf and -0.0 have no exact literal.  An infinite angle, where
    ``math.cos`` raises and numpy's exp gives NaN, makes the stage's rates NaN.

    Two kinds of key skip their ``cos`` and ``sin``, bit for bit.  The zero
    key's terms ``cos(0.0) Re c - sin(0.0) Im c``, that is ``1.0 Re c - 0.0
    Im c``, are computed once, here, and bound as names ``z{n}_{a}``.  Of a
    pair ``k, -k``, the key first in row order sets ``c{n} = cos(t)`` and
    ``s{n} = sin(t)``; its mirror, row ``n'``, takes ``c{n}`` and ``s{n'} =
    0.0 - s{n}``.  The mirror's angle is ``-t`` exactly, as each product is
    negated and an angle summed from ``0.0`` is never -0.0, or +0.0 along
    with ``t``, whose sine ``0.0 - s{n}`` is.  The libm ``cos`` is even and
    ``sin`` odd, and an infinite ``t`` raises for both keys.  A rate's first
    term is written ``0.0 + term``, absorbing a zero term's sign as the
    looped sum from ``0.0`` does.
    """
    m, keys, z = omega.size, series.keys.astype(float).tolist(), series.values
    ns = dict(cos=math.cos, sin=math.sin, nan=math.nan)
    ns.update((f"o{a}", v) for a, v in enumerate(omega.tolist()))
    for name, rows in (("k", keys), ("r", z.real.tolist()), ("i", z.imag.tolist())):
        ns.update((f"{name}{n}_{a}", v) for n, row in enumerate(rows) for a, v in enumerate(row))
    own, cs = {}, []  # a nonzero key's cos and sin names and the line setting them; by row
    for n, row in enumerate(keys):
        mirror = own.get(tuple(-k for k in row))
        if not any(row):  # cos(0.0) = 1.0 and sin(0.0) = 0.0
            cs.append(None)
            ns.update((f"z{n}_{a}", 1.0 * ns[f"r{n}_{a}"] - 0.0 * ns[f"i{n}_{a}"])
                      for a in range(m))
        elif mirror is None:
            theta = "".join(f" + k{n}_{a} * {{{a}}}" for a, k in enumerate(row) if k)
            cs.append(own.setdefault(tuple(row), (f"c{n}", f"s{n}",
                                                  f"t = 0.0{theta}; c{n} = cos(t); s{n} = sin(t)")))
        else:
            cs.append(own.setdefault(tuple(row), (mirror[0], f"s{n}", f"s{n} = 0.0 - {mirror[1]}")))

    def rates(x, f):
        lines, acc = [], ["0.0"] * m
        for n, names in enumerate(cs):
            if names is None:
                terms = [f"z{n}_{a}" for a in range(m)]
            else:
                lines.append(names[2].format(*x))
                terms = [f"({names[0]} * r{n}_{a} - {names[1]} * i{n}_{a})" for a in range(m)]
            lines += [f"{f}{a} = {acc[a]} + {term}" for a, term in enumerate(terms)]
            acc = [f"{f}{a}" for a in range(m)]
        lines += [f"{f}{a} = o{a} + {acc[a]}" for a in range(m)]
        nan = " = ".join(f"{f}{a}" for a in range(m))
        return ["try:", *["    " + ln for ln in lines], "except ValueError:", f"    {nan} = nan"]

    return rates, ns


def _t01_stop(start, window, spec):
    """The T01 stop rule of a lane as ``(threshold, wn)``; see ``_lane``.

    Raises ``ConfigError`` when the decay baseline ``start`` is undefined.
    """
    return _t01_threshold(start), _window_samples(window, spec.record_stride * spec.dt)


def _lane(spec, state, stages, ns, observe, stop):
    """Write, compile and run one lane of ``spec``: the one fixed-step loop.

    The lane is one function written out for the run: the loop, the
    ``stages`` (source lines), the finiteness check, the pair observable,
    the records and the stop rule.  ``state`` is the start: a tuple of
    scalars, named ``p0, p1, ...`` in the source, or one real array ``p0``
    of complex pairs read through ``p0.view(complex)``; the ``stages``
    (``_stages``) advance them.  ``ns`` binds the names the stages read, and
    the stages set ``q{a}``, ``f{stage}_{a}`` and, on the reduced flow
    (``_phase_rates``), ``t``, ``c{n}`` and ``s{n}``.  The lane's own names
    are ``start``, ``p0``, ``i``, ``dt``, ``h``, ``w``, ``pi``, ``tau``,
    ``atan2``, ``isfinite``, ``u``, ``new``, ``raw``, ``unwrapped``,
    ``value``, ``shift``, ``threshold``, ``streak``, ``seen`` and ``states``.

    The lane ends before the first state with a non-finite entry.  Every
    ``record_stride`` steps and at the last one, it records the state (with
    the spec's ``record_state``) and, given ``observe = (i, j, start,
    shift)``, the observable of the pair ``(i, j)``: ``(x_i - x_j) - shift``,
    or, with ``shift`` None, the angle of ``z_i conj z_j`` unwrapped after
    every step from ``start``.  Given ``stop = (threshold, wn)``, the lane
    ends at the recorded sample that closes the first stretch of ``wn``
    observed values at most ``threshold`` in magnitude.  Returns ``(steps,
    states, observed, failed)``, where ``steps`` counts the finite steps.
    """
    n, stride = spec.steps(), spec.record_stride
    if isinstance(state, tuple):
        x = [f"p{a}" for a in range(len(state))]
        load, now = ", ".join(x) + ", = start", f"({', '.join(x)},)"
        bad = " + ".join(f"({v} - {v})" for v in x)  # NaN, so true, at a non-finite entry
    else:
        x = [f"p0.view(complex)[{a}]" for a in range(len(state) // 2)]
        load, now, bad = "p0 = start", "p0", "not all(map(isfinite, p0))"
    ns = dict(ns, start=state, dt=spec.dt, h=0.5 * spec.dt, w=spec.dt / 6.0, pi=math.pi,
              tau=2.0 * math.pi, atan2=math.atan2, isfinite=math.isfinite)
    head = [load, f"states = [{now}]" if spec.record_state else "states = None",
            "seen = None" if observe is None else "seen = [value]"]
    track, record = [], [f"states.append({now})"] if spec.record_state else []
    if observe is not None:
        i, j, ns["value"], ns["shift"] = observe
        if ns["shift"] is None:
            head.append("raw = unwrapped = value")
            track = [f"u = {x[i]} * {x[j]}.conjugate()", "new = atan2(u.imag, u.real)",
                     "unwrapped += (new - raw + pi) % tau - pi", "raw = new"]
            record.append("value = unwrapped")
        else:
            record.append(f"value = ({x[i]} - {x[j]}) - shift")
        record.append("seen.append(value)")
    if stop is not None:
        ns["threshold"], wn = stop
        head.append("streak = 0")
        record += ["if abs(value) <= threshold:", "    streak += 1",
                   f"    if streak >= {wn}:", "        break", "else:", "    streak = 0"]
    if stride > 1 and record:
        record = [f"if i % {stride} == 0 or i == {n}:", *["    " + ln for ln in record]]
    loop = [*stages, f"if {bad}:", "    return i - 1, states, seen, True", *track, *record]
    body = [*head, f"for i in range(1, {n + 1}):", *["    " + ln for ln in loop],
            "return i, states, seen, False"]
    source = f"def lane({', '.join(ns)}):\n" + "".join(f"    {ln}\n" for ln in body)
    code = {}
    exec(compile(source, "<lane>", "exec"), code)
    return code["lane"](*ns.values())  # by position: matching thousands of keywords is quadratic


def _times(steps, spec):
    """The recorded times of a lane of ``spec`` that took ``steps`` finite steps."""
    n, stride = spec.steps(), spec.record_stride
    i = np.arange(0, steps + 1, stride)
    return (np.append(i, n) if steps == n and n % stride else i) * spec.dt


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
    with a pair (``ConfigError``).  A model's ``fast_field`` steps the tuple
    of its oscillators' complex values in the written lane (``_lane``); any
    other model steps its real state there as one array over ``rhs``.
    """
    pair = model.pair
    if spec.until_t01 and pair is None:
        raise ConfigError("until_t01 needs a model that names the pair whose angle T01 times")
    x, beat = _start(x0, model.M, "state", model.omega, spec)
    if model.fast_field is not None:
        rates, ns = model.fast_field(eps)
        state = z = tuple(x.view(complex).tolist())
        stages = _stages(spec.scheme, len(state), rates)
    else:  # one real array p0, as a complex view would step signed zeros as complex products
        state, ns = x, {"rhs": model.rhs, "eps": eps}
        z = x.view(complex) if pair is not None else None
        stages = _stages(spec.scheme, 1, lambda p, f: [f"{f}0 = rhs({p[0]}, eps)"])
    observe = stop = None
    if pair is not None:
        # The angle of z_i conj(z_j) by math.atan2: cmath.phase raises where the angle underflows.
        w = z[pair[0]] * z[pair[1]].conjugate()
        angle = math.atan2(w.imag, w.real)
        observe = (*pair, angle, None)
        if spec.until_t01:
            stop = _t01_stop(angle, beat, spec)
    steps, states, angles, failed = _lane(spec, state, stages, ns, observe, stop)
    return TrajectoryRecord(
        t=_times(steps, spec),
        states=np.asarray(states).view(float) if spec.record_state else None,
        phi_hat=np.asarray(angles) if pair is not None else None,
        failed=failed,
        meta={"beat_period": beat, "pair": pair, "steps": steps},
    )


def integrate_reduced(result, eps, phi0, spec, pair):
    """Integrate the reduced phase flow ``dphi/dt = omega + sum eps^j f_j``.

    Angles are stored unwrapped (the phase fields are 2 pi periodic, so
    real-line phases are fine).  The recorded observable is the phase
    difference ``phi_i - phi_j`` of the ``pair`` ``(i, j)``, shifted by a
    multiple of 2 pi so that it starts in (-pi, pi] like the full record's
    pair angle.  The spec's policy acts as in ``integrate_full``.

    The phases step as Python floats in the written lane (``_lane``), through
    rates written out for the field's keys (``_phase_rates``): bit for bit as
    on numpy arrays on the chain's reduced fields, to roundoff elsewhere.
    """
    omega = result.omega
    i_idx, j_idx = _check_pair(pair, omega.size)
    phi, beat = _start(phi0, omega.size, "phases", omega, spec)
    shift = 2.0 * math.pi * math.ceil((phi[i_idx] - phi[j_idx] - math.pi) / (2.0 * math.pi))
    state = tuple(phi.tolist())
    start = (state[i_idx] - state[j_idx]) - shift
    stop = _t01_stop(start, beat, spec) if spec.until_t01 else None
    rates, ns = _phase_rates(omega, result.phase_field(eps))
    steps, phis, phi_hat, failed = _lane(spec, state, _stages(spec.scheme, omega.size, rates), ns,
                                         (i_idx, j_idx, start, shift), stop)
    return TrajectoryRecord(
        t=_times(steps, spec),
        states=np.asarray(phis) if spec.record_state else None,
        phi_hat=np.asarray(phi_hat),
        kind="reduced",
        failed=failed,
        meta={"beat_period": beat, "steps": steps},
    )


def envelope(record):
    """Forward-looking running maximum of ``|phi_hat|`` over one beat window.

    Sample ``i`` is the maximum of ``|phi_hat|`` over the recorded samples
    ``[i, i + wn - 1]``, cut at the record's end, where
    ``wn = ceil(beat_period / dt_rec)`` counts recorded samples
    (``dt_rec`` is the spacing of the first two).  The windows double in
    ``ceil(log2 wn)`` passes of ``np.maximum``, each widening every window
    by at most its width: every maximum is one of its samples, selected
    exactly, and a NaN in a window makes its maximum NaN.
    """
    if record.phi_hat is None:
        raise ValueError("record carries no synchronisation angle")
    window = record.meta.get("beat_period", 2.0 * math.pi)
    absphi = np.abs(record.phi_hat)
    if len(record.t) < 2:
        return absphi
    wn, span = min(_window_samples(window, record.t[1] - record.t[0]), len(absphi)), 1
    while span < wn:  # absphi[i] holds the maximum over [i, i + span - 1], cut at the end
        step = min(span, wn - span)
        np.maximum(absphi[:-step], absphi[step:], out=absphi[:-step])
        span += step
    return absphi


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
    steps: np.ndarray  # the steps each lane took, blown-up ones to their last finite state
    t_stop: np.ndarray  # the time each lane stopped at, steps * dt
    slope: float | None
    intercept: float | None

    def to_json_dict(self):
        return {
            "eps": self.eps.tolist(),
            "t01": [None if not np.isfinite(v) else v for v in self.t01],
            "t01_raw": [None if not np.isfinite(v) else v for v in self.t01_raw],
            "converged": [bool(c) for c in self.converged],
            "steps": self.steps.tolist(),
            "t_stop": self.t_stop.tolist(),
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
        steps = rec.meta["steps"]
        if rec.failed:
            return float("nan"), float("nan"), steps, steps * spec.dt
        return measure_T01(rec), measure_T01(rec, use_envelope=False), steps, steps * spec.dt

    t01, t01_raw, steps, t_stop = np.array([run(float(e)) for e in eps_arr]).T
    converged = np.isfinite(t01)
    if int(np.sum(converged)) >= 3:
        slope, intercept = fit_powerlaw(eps_arr[converged], t01[converged])
    else:
        slope = intercept = None
    return SweepResult(eps_arr, t01, t01_raw, converged, steps.astype(int), t_stop, slope,
                       intercept)


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
