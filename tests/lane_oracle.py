"""The lanes as the package stepped them before it wrote one function per lane.

The classical RK4 step on arrays (``_rk4_step``, the array lane's oracle and
the order of operations of every written stage), a generic fixed-step loop
with an observer and a stop hook (``march``), the pair-angle wrapper
(``unwrapped_pair_angle``), the T01 stop hook (``until_decided``), the
chain's hand-fused Euler and RK4 steps (``fused_chain_step``) and the
reduced step looped over the field's keys (``looped_phase_step``).
``reference_full`` and ``reduced_reference`` put them together as
``integrate_full`` and ``integrate_reduced`` did: the byte-level reference of
the written lanes.
"""

import cmath
import math

import numpy as np

from torusred.sim import TrajectoryRecord, _beat_period, _t01_threshold, _window_samples


def _rk4_step(f, x, dt):
    """One classical RK4 step on arrays: the order of operations every lane's stages keep."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def march(step, x, spec, observe, stop):
    """Fixed-step loop: advance ``x`` with ``step`` and stop at the first state
    with a non-finite entry.  Every ``record_stride`` steps and at the last one,
    record the time, the state (with ``record_state``) and ``observe(x)``;
    ``stop(value)`` then sees the observed value and ends the run by returning
    true.  Returns ``(t, states, observed, failed)``."""
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


def unwrapped_pair_angle(step, z, pair):
    """``step`` that also unwraps the angle of ``z_i conj z_j``, and an observer of it."""
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


def until_decided(start, window, spec):
    """Stop hook that fires at the recorded sample closing the first stretch of
    ``wn`` samples with ``|value|`` at or below the T01 threshold."""
    threshold = _t01_threshold(start)
    wn = _window_samples(window, spec.record_stride * spec.dt)
    streak = 0

    def stop(value):
        nonlocal streak
        streak = streak + 1 if abs(value) <= threshold else 0
        return streak >= wn

    return stop


def array_step(rhs, spec):
    dt = spec.dt
    if spec.scheme == "euler":
        return lambda x: x + dt * rhs(x)
    return lambda x: _rk4_step(rhs, x, dt)


def fused_chain_step(cfg, eps, scheme, dt):
    """The chain's step on its three complex values in scalar arithmetic, in
    ``_rk4_step``'s order of operations."""
    p, q = cfg.outer, cfg.middle
    l1, l2 = complex(p.alpha + 1j * p.beta), complex(q.alpha + 1j * q.beta)
    g1, g2 = complex(p.gamma + 1j * p.delta), complex(q.gamma + 1j * q.delta)

    def field(z1, z2, z3):
        return (l1 * z1 + g1 * (z1.real * z1.real + z1.imag * z1.imag) * z1 + eps * z2,
                l2 * z2 + g2 * (z2.real * z2.real + z2.imag * z2.imag) * z2 + eps * z1,
                l1 * z3 + g1 * (z3.real * z3.real + z3.imag * z3.imag) * z3 + eps * z2)

    def euler(z):
        a1, a2, a3 = field(*z)
        return z[0] + dt * a1, z[1] + dt * a2, z[2] + dt * a3

    h, w = 0.5 * dt, dt / 6.0

    def rk4(z):
        z1, z2, z3 = z
        a1, a2, a3 = field(z1, z2, z3)
        b1, b2, b3 = field(z1 + h * a1, z2 + h * a2, z3 + h * a3)
        c1, c2, c3 = field(z1 + h * b1, z2 + h * b2, z3 + h * b3)
        d1, d2, d3 = field(z1 + dt * c1, z2 + dt * c2, z3 + dt * c3)
        return (z1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                z2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                z3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3))

    return euler if scheme == "euler" else rk4


def looped_phase_step(omega, series, spec):
    """The reduced step with generic loops over the keys and coefficient columns."""
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


def reference_full(model, eps, x0, spec, cfg):
    """``integrate_full`` as it stepped: the fused chain step when ``cfg`` is the
    chain's config, else arrays over ``model.rhs``."""
    pair = model.pair
    x = np.asarray(x0, dtype=float).copy()
    rhs_step = array_step(lambda y: model.rhs(y, eps), spec)
    if cfg is not None:
        step, state = fused_chain_step(cfg, eps, spec.scheme, spec.dt), tuple(x.view(complex).tolist())
    elif pair is not None:
        step, state = (lambda z: rhs_step(z.view(float)).view(complex)), x.view(complex)
    else:
        step, state = rhs_step, x
    observe = stop = None
    if pair is not None:
        step, observe = unwrapped_pair_angle(step, state, pair)
        if spec.until_t01:
            stop = until_decided(observe(state), _beat_period(model.omega), spec)
    ts, states, angles, failed = march(step, state, spec, observe, stop)
    return TrajectoryRecord(np.asarray(ts),
                            np.asarray(states).view(float) if spec.record_state else None,
                            np.asarray(angles) if pair is not None else None, failed=failed)


def reduced_reference(result, eps, phi0, spec, pair):
    """``integrate_reduced`` as it stepped, through ``looped_phase_step``."""
    omega, (i, j) = result.omega, pair
    phi = np.asarray(phi0, dtype=float).copy()
    shift = 2.0 * math.pi * math.ceil((phi[i] - phi[j] - math.pi) / (2.0 * math.pi))

    def observe(p):
        return (p[i] - p[j]) - shift

    stop = until_decided(observe(phi), _beat_period(omega), spec) if spec.until_t01 else None
    step = looped_phase_step(omega, result.phase_field(eps), spec)
    ts, phis, phi_hat, failed = march(step, tuple(phi.tolist()), spec, observe, stop)
    return TrajectoryRecord(np.asarray(ts), np.asarray(phis) if spec.record_state else None,
                            np.asarray(phi_hat), kind="reduced", failed=failed)
