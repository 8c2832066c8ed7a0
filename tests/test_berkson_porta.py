"""Properties on generated semiflows, in both integrator state layouts.

Every holomorphic semiflow on the disc has a generator of the Berkson-Porta
form G(z) = (tau - z)(1 - conj(tau) z) p(z) with |tau| <= 1 and Re p >= 0
(Berkson & Porta, Michigan Math. J. 25, 1978); here p is a constant.  A
Python-complex start runs the integrator on a tuple of complexes, an ndarray
start on one stacked (components, points) array.  A batch shares one step
sequence and a single point takes its own, so the two agree to the
integration tolerance, not to roundoff.  The same holds for the radial
ladder of ``boundary_orbit``, which advances all its rungs in one batch.
"""

import cmath

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow_lab as sl
from semiflow_lab.cocycles import _sweep

TOL = 1e-10
BOUND = 10 * TOL

taus = st.builds(cmath.rect, st.one_of(st.floats(0.0, 1.0), st.just(1.0)), st.floats(0.0, 2 * cmath.pi))
ps = st.builds(complex, st.floats(0.0, 1.0), st.floats(-1.0, 1.0))
disc_points = st.builds(cmath.rect, st.floats(0.0, 0.8), st.floats(0.0, 2 * cmath.pi))
durations = st.floats(0.0, 1.0)
starts = st.lists(st.tuples(disc_points, durations), min_size=1, max_size=6)
coeffs = st.lists(st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=3)


def berkson_porta_flow(tau, p):
    # (tau - z)(1 - conj(tau) z) = tau - (1 + |tau|^2) z + conj(tau) z^2
    G = sl.Polynomial([p * tau, -p * (1 + abs(tau) ** 2), p * tau.conjugate()])
    return sl.ode_flow(G, TOL)


class PointByPoint(sl.FlowModel):
    """The flow, advancing each point of a batch in a run of its own."""

    def __init__(self, flow):
        self.flow, self.tol = flow, flow.tol

    def _advance(self, z, t):
        return np.array([self.flow.advance(complex(p), t) for p in z])


def columns(pairs):
    zs, ts = zip(*pairs)
    return np.array(zs, dtype=complex), np.array(ts, dtype=float)


def close(batch, single):
    single = np.array(single)
    assert batch.shape == single.shape
    assert np.all(np.abs(batch - single) <= BOUND * (1 + np.abs(single)))


@settings(max_examples=25, deadline=None)
@given(taus, ps, starts)
def test_batched_advance_matches_pointwise(tau, p, pairs):
    flow = berkson_porta_flow(tau, p)
    zs, ts = columns(pairs)
    for t in (ts[0], ts):
        each = np.broadcast_to(t, zs.shape)
        close(flow.advance(zs, t), [flow.advance(z, s) for z, s in zip(zs, each)])
        w, dw = flow.advance_with_derivative(zs, t)
        singles = [flow.advance_with_derivative(z, s) for z, s in zip(zs, each)]
        close(w, [v for v, _ in singles])
        close(dw, [dv for _, dv in singles])


@settings(max_examples=25, deadline=None)
@given(taus, ps, coeffs, starts)
def test_batched_sweep_matches_pointwise(tau, p, q, pairs):
    wsg = sl.WeightedSemigroup(berkson_porta_flow(tau, p), sl.Weight(sl.Polynomial(q)))
    zs, ts = columns(pairs)
    batch = _sweep(wsg, zs, ts)
    singles = [_sweep(wsg, complex(z), float(t)) for z, t in zip(zs, ts)]
    for component, column in zip(batch, zip(*singles)):
        close(component, column)


@settings(max_examples=25, deadline=None)
@given(taus, ps, starts, durations)
def test_semigroup_and_cocycle_identities(tau, p, pairs, s):
    flow = berkson_porta_flow(tau, p)
    wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
    zs, ts = columns(pairs)
    # each layout: the batch, and its first point as a Python complex
    for z, t in ((zs, ts), (complex(zs[0]), float(ts[0]))):
        # phi_{s+t}(z) lies in the disc, so 10 tol (1 + |phi_{s+t}(z)|) <= 2 BOUND
        assert np.all(sl.check_semigroup(flow, z, s, t) <= 2 * BOUND)
        m = sl.cocycle_eval(wsg, z, s + t)
        assert np.all(sl.check_cocycle_identity(wsg, z, s, t) <= BOUND * (1 + np.abs(m)))


@settings(max_examples=25, deadline=None)
@given(taus, ps, st.floats(0.0, 2 * cmath.pi), st.floats(0.01, 1.0))
def test_batched_boundary_orbit_matches_a_scalar_ladder(tau, p, theta, t):
    flow = berkson_porta_flow(tau, p)
    gamma0 = cmath.exp(1j * theta)
    batch = sl.boundary_orbit(flow, gamma0, t).limit
    rungs = sl.boundary_orbit(PointByPoint(flow), gamma0, t).limit
    assert abs(batch - rungs) <= BOUND * (1 + abs(rungs))
