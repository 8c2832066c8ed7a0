"""Cocycles, coboundaries and the weighted composition semigroups they induce.

The multiplicative cocycle attached to an analytic weight g is
m_t(z) = exp(integral_0^t g(phi_s(z)) ds).  The integral (never the
exponential) is the accumulated object: it rides along the orbit in the
variational system and is exponentiated once, which sidesteps any branch
ambiguity.  A coboundary m_t(z) = alpha(phi_t(z))/alpha(z) is evaluated directly.
Every reader takes m_t (and m_t', phi_t, phi_t') from one kernel, ``_cocycle``, which
decides the weight kind once; ``gap.bloch_gaps`` applies its ``_multiplier`` to shared runs.
Each stage of the sweep is one call of ``analytic.orbit_system(G, g)``, compiled
once per semigroup.  The sweep, ``apply_weighted`` and ``weighted_z_derivative``
take one point or an ndarray of points; a batch shares one integrator run.  The
sweep, the cocycles, ``apply_weighted`` and the checks also take an ndarray with
a time per point.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from .analytic import (
    AnalyticFn,
    Compose,
    Constant,
    Polynomial,
    Product,
    Quotient,
    Sum,
    fn_from_json,
    guard_points,
    orbit_system,
)
from .errors import ConfigError, DomainError, QuadratureError, SingularityError
from .errors import config_pair, config_parser, record
from .flows import ConformalMap, FlowModel
from .flows import _check_ladder, _check_start, _integrate, _ladder_slope
from .pointwise import exp, full, legs, nonfinite, points, raise_at, times, two_legs

# DOP853 local errors scale with the largest state met along the way, so an
# integral that swells this far above its end value has lost its digits.
SWELL_LIMIT = 1e3


@record
class Weight:
    """Analytic weight g; induces the exponential cocycle."""

    json_tag = {"type": "weight"}
    g: AnalyticFn

    def rotated(self, gamma: complex) -> "Weight":
        """g(gamma z): the weight in the frame of RotatedFlow(flow, gamma)."""
        if isinstance(self.g, Constant):
            return self
        return Weight(Compose(self.g, Polynomial((0.0, gamma))))


@record
class Coboundary:
    """Non-vanishing alpha (a zero is allowed only at the flow's fixed point)."""

    json_tag = {"type": "coboundary"}
    alpha: AnalyticFn
    fixed_point: complex | None = None

    def rotated(self, gamma: complex) -> "Coboundary":
        """alpha(gamma z), with its allowed zero at p / gamma."""
        p = self.fixed_point
        return Coboundary(
            Compose(self.alpha, Polynomial((0.0, gamma))), None if p is None else p / gamma
        )


@record
class WeightedSemigroup:
    """A flow paired with a weight; W_t f = m_t * (f o phi_t)."""

    flow: FlowModel
    weight: Weight | Coboundary

    @property
    def _swept(self) -> bool:
        """True when the cocycle needs the variational sweep (a non-constant Weight)."""
        return isinstance(self.weight, Weight) and not isinstance(self.weight.g, Constant)

    @cached_property
    def _sweep_system(self):
        """The sweep's compiled right-hand side, ``orbit_system(G, g)``, built once per semigroup."""
        return orbit_system(self.flow.generator_fn(), self.weight.g)


def _sweep(wsg: WeightedSemigroup, z, t):
    """(phi_t(z), phi_t'(z), I_t, J_t) from one integrator sweep along the orbit,
    for z and t as the kernel has checked them.

    Integrates the variational system y = (w, v, I, J) with w' = G(w),
    v' = G'(w) v, I' = g(w), J' = g'(w) v from (z, 1, 0, 0) (Hairer, Norsett
    & Wanner, Solving ODEs I, sec. I.14), so I_t is the integral of g along
    the orbit and J_t its z-derivative.  Each stage is one call of the
    semigroup's compiled ``orbit_system(G, g)``, which reads (G, G') and
    (g, g') from the trees' jet lines.  Refuses with QuadratureError when
    I or J swelled far above its end value on the way, at any point of z.
    """
    peak = [abs(full(z, 0.0))]  # largest |I|, |J| so far, per point, which each stage raises
    w, v, I, J = _integrate(partial(wsg._sweep_system, peak), (z, 1.0, 0.0, 0.0), t, wsg.flow.tol)
    swell = peak[0] / (1.0 + abs(I) + abs(J))
    raise_at(swell > SWELL_LIMIT, swell, QuadratureError,
             "cocycle integral swelled {:.3e} times above its end value")
    return w, v, I, J


def _cocycle(wsg: WeightedSemigroup, z, t, order):
    """The cocycle kernel: (m_t(z), phi_t(z)) at order 0, (m_t(z), m_t'(z),
    phi_t(z), phi_t'(z)) at order 1, and m_t(z) alone at order None.

    A non-constant weight reads all four from one sweep, with m' = m J_t:
    finite differences would inject O(h) noise into cancellation checks.  A
    constant weight or a coboundary advances the flow once and applies its
    ``_multiplier``; a constant weight's m_t alone needs no flow.  The start is
    checked first, so no reader returns a value for a point outside the disc.
    """
    z, t = _check_start(z, t)
    weight = wsg.weight
    if wsg._swept:
        w, dw, integral, d_integral = _sweep(wsg, z, t)
        m = _finite(exp(integral), z, t)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned about
            mp = _finite(m * d_integral, z, t) if order else None
    else:
        if order is None and isinstance(weight, Weight):
            return _multiplier(weight, z, t, None, None)[0]
        w, dw = wsg.flow.advance_with_derivative(z, t) if order else (wsg.flow.advance(z, t), None)
        m, mp = _multiplier(weight, z, t, w, dw)
    return m if order is None else (m, w) if order == 0 else (m, mp, w, dw)


def _multiplier(weight: Weight | Coboundary, z, t, w, dw):
    """(m_t(z), m_t'(z)) of a weight that reads only the flow, w = phi_t(z) and dw = phi_t'(z):
    a constant weight's (exp(g t), 0), which reads neither, or a coboundary's quotient."""
    if isinstance(weight, Coboundary):
        return _coboundary(weight, z, t, w, dw)
    return _finite(full(z, exp(weight.g.value * t)), z, t), full(z, 0.0)


def _finite(m, z, t):
    """m, once it is finite at every point of z: an overflowed cocycle is
    refused, naming the point and its time."""
    raise_at(nonfinite(m), z, SingularityError, "non-finite cocycle value at {} at t = {}", t)
    return m


def _coboundary(weight: Coboundary, z, t, w, dw):
    """(m_t(z), m_t'(z)) = (alpha(w)/alpha(z), its z-derivative) for w = phi_t(z)
    and dw = phi_t'(z); m_t' is None when dw is.  Refuses at the allowed zero
    of alpha, where alpha(z) = 0 and where alpha vanishes on the orbit, each
    time naming the point of z."""
    alpha, p = weight.alpha, weight.fixed_point
    if p is not None:
        raise_at(abs(z - complex(p)) <= 1e-12, z, SingularityError,
                 "evaluation at the allowed zero {} of alpha")
    az, apz = (alpha.eval(z), None) if dw is None else alpha.jet(z)
    raise_at(az == 0, z, SingularityError, "alpha vanishes at {}")
    aw, apw = (alpha.eval(w), None) if dw is None else alpha.jet(w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in the sweep
        m = _finite(aw / az, z, t)
        raise_at(m == 0, z, SingularityError, "alpha vanishes on the orbit of {} at t = {}", t)
        return m, None if dw is None else _finite((apw * dw * az - aw * apz) / (az * az), z, t)


def cocycle_eval(wsg: WeightedSemigroup, z, t):
    """m_t(z), for a weight or a coboundary."""
    return _cocycle(wsg, z, t, None)


def check_cocycle_identity(wsg: WeightedSemigroup, z, s, t):
    """Residual |m_{s+t}(z) - m_s(z) m_t(phi_s(z))|, at a point or at each
    point of an array, with times s and t shared or given per point.

    The legs z -> s and z -> s + t are one batch [z, z] with end times
    [s, s + t], which gives m_s(z), m_{s+t}(z) and phi_s(z); the run from
    phi_s(z) to t is the second and last.  One point is a two-point batch
    too, and its residual a float."""
    m, w = _cocycle(wsg, *two_legs(z, s, t), 0)
    (m_s, m_st), (w_s, _) = legs(m), legs(w)
    return abs(m_st - m_s * _cocycle(wsg, w_s, t, None))


def weight_generator_fd(wsg: WeightedSemigroup, z, h_ladder):
    """Extrapolated (m_h(z) - 1)/h: recovers g, or G alpha'/alpha for a coboundary.
    One call evaluates every rung."""
    return _ladder_slope(h_ladder, z, lambda hs: _cocycle(wsg, z, hs, None), 1.0)


def apply_weighted(wsg: WeightedSemigroup, f: AnalyticFn, z, t):
    """W_t f(z) = m_t(z) f(phi_t(z)), at a point or at each point of an array."""
    z, t = times(points(z), t)
    if isinstance(t, float) and t == 0.0:
        return f.eval(z)
    m, w = _cocycle(wsg, z, t, 0)
    return m * f.eval(w)


def weighted_z_derivative(wsg: WeightedSemigroup, f: AnalyticFn, z, t):
    """d/dz [m_t f(phi_t)](z) = m_t'(z) f(phi_t(z)) + m_t(z) f'(phi_t(z)) phi_t'(z),
    at a point or at each point of an array, with t shared or given per point.
    f and f' at phi_t(z) come from one jet."""
    z, t = times(points(z), t)
    if isinstance(t, float) and t == 0.0:
        raise_at(abs(z) >= 1.0, z, DomainError, "{} is not inside the open unit disc")
        return f.jet(z)[1]
    m, mp, w, dw = _cocycle(wsg, z, t, 1)
    return _z_derivative(m, mp, dw, f.jet(w))


def _z_derivative(m, mp, dw, jet):
    """m_t' f(phi_t) + m_t f'(phi_t) phi_t', with (f, f') at phi_t in ``jet``."""
    return mp * jet[0] + m * jet[1] * dw


def apply_generator(G: AnalyticFn, g: AnalyticFn, f: AnalyticFn) -> AnalyticFn:
    """The candidate semigroup generator applied to f: G f' + g f, as a tree."""
    return Sum((Product((G, f.derivative())), Product((g, f))))


def weight_fn(wsg: WeightedSemigroup) -> AnalyticFn:
    """The weight g as a tree (for a coboundary, G alpha'/alpha)."""
    if isinstance(wsg.weight, Weight):
        return wsg.weight.g
    G = wsg.flow.generator_fn()
    alpha = wsg.weight.alpha
    guards = ()
    if wsg.weight.fixed_point is not None:
        guards = guard_points([wsg.weight.fixed_point])
    return Product((G, Quotient(alpha.derivative(), alpha, guards=guards)))


@record
class ConsistencyTable:
    """Rows (t, residual, ratio) of ||(W_t f - f)/t - A f||; ratio vs previous row."""

    rows: tuple

    def ratios(self):
        return [row[2] for row in self.rows if row[2] is not None]

    def max_residual(self) -> float:
        return max(row[1] for row in self.rows)


def generator_consistency(wsg: WeightedSemigroup, f: AnalyticFn, norm, t_ladder) -> ConsistencyTable:
    """First-order convergence table certifying the generator G f' + g f.

    For each t in the decreasing ladder, measures the norm object ``norm``
    (``H2Norm``, ``HpNorm`` or ``BlochGridNorm``) of (W_t f - f)/t - (G f' + g f);
    the residual of a generator decays linearly, so consecutive ratios settle
    near 1/2.  One call samples every rung, row i of the (rungs, samples)
    batch at t_i, and the norm reduces the rows at once.
    """
    t_ladder = _check_ladder(t_ladder)
    Af = apply_generator(wsg.flow.generator_fn(), weight_fn(wsg), f)
    ts = np.reshape(t_ladder, (-1, 1))  # a column of times against the sample points

    def value(z):
        return (apply_weighted(wsg, f, z, ts) - f.eval(z)) / ts - Af.eval(z)

    def slope(z):
        return (weighted_z_derivative(wsg, f, z, ts) - f.jet(z)[1]) / ts - Af.jet(z)[1]

    residuals = norm.reduce(norm.sample(value, slope)).tolist()
    rows = [(t_ladder[0], residuals[0], None)]
    for t, prev, res in zip(t_ladder[1:], residuals, residuals[1:]):
        rows.append((t, res, res / prev if prev > 1e-14 else None))
    return ConsistencyTable(tuple(rows))


def coboundary_similarity_check(
    alpha: AnalyticFn,
    flow: FlowModel,
    f: AnalyticFn,
    z,
    t,
    fixed_point: complex | None = None,
):
    """Residual of the similarity m_t f(phi_t) = (1/alpha) (alpha f)(phi_t).

    Both sides read the same phi_t(z), from one advance.
    """
    z, t = times(points(z), t)
    m, w = _cocycle(WeightedSemigroup(flow, Coboundary(alpha, fixed_point)), z, t, 0)
    lhs = m * f.eval(w)
    rhs = Product((alpha, f)).eval(w) / alpha.eval(z)
    return abs(lhs - rhs)


def transfer_generator(h: ConformalMap, G: AnalyticFn, g: AnalyticFn):
    """Pull a generator pair back through h: ((1/h') G o h, g o h)."""
    G1 = Quotient(Compose(G, h.forward), h.forward.derivative())
    g1 = Compose(g, h.forward)
    return G1, g1


def transfer_conjugation_check(h: ConformalMap, wsg: WeightedSemigroup, f: AnalyticFn, z, t):
    """Residual of the conjugated semigroup against the direct disc evaluation.

    The transferred flow is psi_t = h o phi_t o h^{-1} with cocycle
    mu_t = m_t o h^{-1}; every map goes through a forward/inverse round
    trip so the inversion path is genuinely exercised.  z and its round trip
    h^{-1}(h(z)) share one cocycle call, so one sweep for both orbits.
    """
    z, t = times(points(z), t)
    m, w = _cocycle(wsg, np.stack([z, h.inverse_at(h.map(z), seed=z)]), t, 0)
    return abs(m[0] * f.eval(w[0]) - m[1] * f.eval(h.inverse_at(h.map(w[1]), seed=w[1])))


@config_parser
def weight_from_json(obj: dict):
    if obj["type"] == "weight":
        return Weight(fn_from_json(obj["g"]))
    if obj["type"] == "coboundary":
        fp = obj.get("fixed_point")
        return Coboundary(
            fn_from_json(obj["alpha"]),
            None if fp is None else config_pair("fixed_point", fp),
        )
    raise ConfigError(f"unknown weight type {obj['type']!r}")
