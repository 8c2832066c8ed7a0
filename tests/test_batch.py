"""One code path for a point and for a batch of points.

Every evaluation layer takes a Python complex or a complex ndarray.  These
tests pin that a batch gives what the same points give one at a time, and
that a batch with one offending point raises the typed error that point
raises on its own.
"""

import cmath
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow_lab as sl
from conftest import flow_corpus, fn_corpus, weight_corpus
from semiflow_lab.cli import random_disc_points


def radial_flow(tol=1e-12):
    return sl.ode_flow(sl.Polynomial([0, -1]), tol)


def pole_weight(p):
    return sl.Weight(sl.Quotient(sl.Constant(1), sl.Polynomial([-p, 1])))


def test_tree_batch_matches_pointwise(rng):
    zs = np.array(random_disc_points(rng, 64, 0.8))
    for f in fn_corpus():
        for tree in (f, f.derivative()):
            batch = tree.eval(zs)
            single = np.array([tree.eval(z) for z in zs])
            assert isinstance(batch, np.ndarray) and batch.shape == zs.shape
            assert np.max(np.abs(batch - single)) <= 1e-15 * np.max(np.abs(single))


def test_scalar_evaluation_stays_python_complex():
    for f in fn_corpus():
        assert type(f.eval(0.3 - 0.1j)) is complex
    assert type(radial_flow().advance(0.3, 0.5)) is complex


# The guard disc around the pole 0.5 is wider than the pole: only the guard refuses 0.5004.
GUARDED = sl.Quotient(
    sl.Constant(1), sl.Polynomial([-0.5, 1]), guards=sl.analytic.guard_points([0.5], radius=1e-3)
)


@pytest.mark.parametrize(
    "tree, bad, error",
    [
        (GUARDED, 0.5004, sl.SingularityError),
        (sl.Mobius(1, 0, 1, -0.5), 0.5, sl.SingularityError),
        (sl.Identity(), 1.2, sl.DomainError),
        (sl.Exp(sl.Polynomial([0, 800])), 0.95, sl.SingularityError),
    ],
    ids=["guarded-quotient", "mobius-pole", "outside-disc", "exp-overflow"],
)
def test_offending_point_raises_in_any_slot(tree, bad, error):
    with pytest.raises(error):
        tree.eval(bad)
    good = [0.1, -0.2j, 0.3 + 0.3j]
    for slot in range(len(good) + 1):
        batch = np.array(good[:slot] + [bad] + good[slot:], dtype=complex)
        with pytest.raises(error, match=re.escape(str(complex(bad)))):
            tree.eval(batch)


POLE = sl.Polynomial([-0.5, 1])  # vanishes at 0.5


@pytest.mark.parametrize(
    "tree, bad",
    [
        (GUARDED, 0.5004),
        (sl.Quotient(sl.Constant(1), POLE), 0.5),
        (sl.Log(sl.Identity(), guards=sl.analytic.guard_points([0.0], radius=1e-3)), 4e-4),
        (sl.Log(POLE), 0.5),
        (sl.Power(POLE, -2), 0.5),
        (sl.Mobius(1, 0, 1, -0.5), 0.5),
        (sl.Mobius(1, 0, 1, -0.5), 0.5 + 1e-10j),
        (sl.Exp(sl.Polynomial([0, 800])), 0.95),
    ],
    ids=["guarded-quotient", "quotient-zero", "log-guard", "log-zero", "negative-power",
         "mobius-pole", "mobius-derivative-guard", "exp-overflow"],
)
@pytest.mark.filterwarnings("error")
def test_offending_point_raises_in_any_slot_of_a_jet(tree, bad):
    # the jet raises what the derivative node raises; the Mobius guard disc
    # refuses f' only, so eval still passes the point next to the pole
    with pytest.raises(sl.SingularityError):
        tree.derivative().eval(bad)
    with pytest.raises(sl.SingularityError):
        tree.jet(bad)
    good = [0.1, -0.2j, 0.3 + 0.3j]
    for slot in range(len(good) + 1):
        batch = np.array(good[:slot] + [bad] + good[slot:], dtype=complex)
        with pytest.raises(sl.SingularityError, match=re.escape(str(complex(bad)))):
            tree.jet(batch)
    assert np.all(np.isfinite(tree.jet(np.array(good, dtype=complex))[1]))


MOBIUS_POLE = sl.Mobius(1, 0, 1, -0.5)  # a pole at 0.5
ZERO_DENOMINATOR = sl.Quotient(sl.Constant(1), sl.Polynomial([-0.3, 1]))  # a vanishing denominator at 0.3


@pytest.mark.parametrize("points", [[0.5, 0.1, 0.3], [0.3, 0.1, 0.5]], ids=["pole-first", "zero-first"])
@pytest.mark.parametrize(
    "terms, message",
    [((MOBIUS_POLE, ZERO_DENOMINATOR), "Mobius pole at (0.5+0j)"),
     ((ZERO_DENOMINATOR, MOBIUS_POLE), "denominator vanishes at (0.3+0j)")],
    ids=["mobius-term-first", "quotient-term-first"],
)
@pytest.mark.parametrize("entry", ["eval", "jet"])
def test_first_guard_in_tree_order_names_its_point(points, terms, message, entry):
    # two guards fire in one batch: the first in tree order raises, at its
    # own offending point, wherever the other guard's point sits in the batch
    tree = sl.Sum(terms)
    with pytest.raises(sl.SingularityError) as raised:
        getattr(tree, entry)(np.array(points, dtype=complex))
    assert str(raised.value) == message


@pytest.mark.parametrize("fname", sorted(flow_corpus()))
def test_batched_semigroup_matches_pointwise(fname, rng):
    # A batch shares one step sequence, a single point takes its own, so the
    # two agree to the integration tolerance, not to roundoff.
    flow = flow_corpus(1e-12)[fname]
    zs = np.array(random_disc_points(rng, 16, 0.8))
    f = sl.Exp(sl.Identity())
    for wname, weight in weight_corpus().items():
        wsg = sl.WeightedSemigroup(flow, weight)
        bound = 10 * flow.tol
        for t in (0.0, 0.3, 1.1):
            for op in (sl.apply_weighted, sl.weighted_z_derivative):
                batch = op(wsg, f, zs, t)
                single = np.array([op(wsg, f, z, t) for z in zs])
                assert batch.shape == zs.shape
                assert np.all(np.abs(batch - single) <= bound * (1 + np.abs(single))), (wname, t, op)


def test_batched_newton_inverse_matches_pointwise(rng):
    h = sl.ConformalMap(forward=sl.Mobius(1, 1, -1, 1))
    zs = np.array(random_disc_points(rng, 12, 0.7))
    ws = h.map(zs)
    batch = h.inverse_at(ws, seed=0.9 * zs)
    single = np.array([h.inverse_at(w, seed=0.9 * z) for z, w in zip(zs, ws)])
    assert np.max(np.abs(batch - single)) <= 1e-14
    stubborn = sl.ConformalMap(forward=h.forward, newton=sl.NewtonInverse(max_iter=3))
    with pytest.raises(sl.InverseError):
        stubborn.inverse_at(np.array([h.map(0.0), h.map(0.95)]), 0j)


@pytest.mark.parametrize("tol, error", [(1e-10, sl.QuadratureError), (1e-12, sl.EscapeError)])
def test_near_pole_point_refused_in_a_batch(tol, error):
    # the point 0.9 of the near-pole tests in test_cocycles.py, next to a harmless one
    wsg = sl.WeightedSemigroup(radial_flow(tol), pole_weight(0.5 + 1e-9j))
    with pytest.raises(error):
        sl.cocycle_eval(wsg, np.array([0.2j, 0.9]), 2.0)


def test_flow_leaving_the_disc_is_typed_in_a_batch():
    class HalfOut(sl.FlowModel):
        def _advance(self, z, t):
            return np.where(z.real > 0, 1.0 + 0j, z)

    with pytest.raises(sl.EscapeError):
        HalfOut().advance(np.array([-0.5, 0.5]), 1.0)


def test_norms_call_a_bare_callable_once_with_an_ndarray():
    seen = []

    def square(z):
        seen.append(z)
        return z * z

    h2, hp = sl.H2Norm(4, 0.5), sl.HpNorm(2, 0.5)
    assert h2.reduce(h2.sample(square)) == pytest.approx(1.0)
    assert hp.reduce(hp.sample(square)) == pytest.approx(0.25)
    grid = sl.GridSpec((0.0, 0.5), (1, 8))
    assert sl.bloch_norm_grid(square, grid, derivative=lambda z: 2 * z) == pytest.approx(0.75)
    assert all(isinstance(z, np.ndarray) for z in seen)
    assert len(seen) == 3  # H2Norm.sample, HpNorm.sample and f(0) in bloch_norm_grid


def test_norms_refuse_a_bare_callable_that_is_not_finite():
    # infinite at 0.5, a sample of every circle and grid below, and finite elsewhere
    def spike(z):
        return np.where(z == 0.5, np.inf, z)

    grid = sl.GridSpec((0.0, 0.5), (1, 4))
    for call in (
        lambda: sl.taylor(spike, 4, 0.5),
        lambda: sl.HpNorm(2, 0.5, M=64).sample(spike),
        lambda: sl.bloch_norm_grid(sl.Identity(), grid, derivative=spike),
    ):
        with pytest.raises(sl.SingularityError, match=r"^non-finite value at \(0\.5\+0j\)$"):
            call()


disc_points = st.builds(
    lambda r, a: r * cmath.exp(1j * a),
    st.floats(0.0, 0.95),
    st.floats(0.0, 2 * cmath.pi),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(disc_points, st.just(0.5004 + 0j)), min_size=1, max_size=12))
def test_batch_raises_iff_some_point_raises(zs):
    # the guarded quotient refuses its guard disc, which 0.5004 lies in
    singles = []
    for z in zs:
        try:
            singles.append(GUARDED.eval(z))
        except sl.SingularityError:
            singles.append(None)
    batch = np.array(zs, dtype=complex)
    if any(v is None for v in singles):
        with pytest.raises(sl.SingularityError):
            GUARDED.eval(batch)
    else:
        got = GUARDED.eval(batch)
        assert np.max(np.abs(got - np.array(singles))) <= 1e-15 * np.max(np.abs(got))
        wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Identity()))
        m = sl.cocycle_eval(wsg, batch, 0.4)
        assert np.allclose(m, np.exp(batch * (1 - np.exp(-0.4))), rtol=0, atol=1e-12)


# Per-point end times: a time array integrates every point to its own time
# under one shared step sequence (time rescaled to [0, 1]).


def escaping_flow():
    # phi_t(z) = z e^{5t}: the origin stays, and 0.5 reaches the circle at t = ln(2)/5
    return sl.ode_flow(sl.Polynomial([0, 5]), 1e-12)


@pytest.mark.parametrize("fname", sorted(flow_corpus()))
def test_time_array_matches_pointwise(fname, rng):
    flow = flow_corpus(1e-12)[fname]
    bound = 10 * flow.tol
    zs = np.array(random_disc_points(rng, 16, 0.8))
    ts = rng.uniform(0.0, 1.5, 16)
    f = sl.Exp(sl.Identity())

    def close(op, *args):
        batch = op(*args, zs, ts)
        single = np.array([op(*args, z, t) for z, t in zip(zs, ts)])
        assert batch.shape == zs.shape
        assert np.all(np.abs(batch - single) <= bound * (1 + np.abs(single))), (fname, op)

    close(flow.advance)
    for weight in weight_corpus().values():
        wsg = sl.WeightedSemigroup(flow, weight)
        close(sl.cocycle_eval, wsg)
        close(sl.apply_weighted, wsg, f)


@pytest.mark.parametrize("fname", sorted(flow_corpus()))
def test_zero_time_in_an_array_stays_put(fname):
    flow = flow_corpus()[fname]
    zs = np.array([0.3, -0.2 + 0.5j, 0.6j])
    ts = np.array([0.0, 0.7, 0.0])
    still = ts == 0
    # an ODE point with no time to go is left untouched; a closed form round-trips through h
    exact = 0.0 if isinstance(flow, sl.OdeFlow) else 1e-15
    assert np.all(np.abs(flow.advance(zs, ts) - zs)[still] <= exact)
    for weight in weight_corpus().values():
        m = sl.apply_weighted(sl.WeightedSemigroup(flow, weight), sl.Constant(1), zs, ts)
        assert np.all(np.abs(m[still] - 1) <= exact)


def test_negative_time_in_an_array_is_refused():
    flow = radial_flow()
    wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
    zs = np.array([0.1, 0.2, 0.3])
    for slot in range(3):
        ts = np.array([0.5, 0.5, 0.5])
        ts[slot] = -1e-3
        for call in (
            lambda: flow.advance(zs, ts),
            lambda: sl.cocycle_eval(wsg, zs, ts),
            lambda: sl.apply_weighted(wsg, sl.Identity(), zs, ts),
            lambda: sl.check_cocycle_identity(wsg, zs, ts, 0.5),
            lambda: sl.check_semigroup(flow, zs, 0.5, ts),
        ):
            with pytest.raises(ValueError, match="time must be >= 0"):
                call()


def test_near_pole_point_at_its_own_time_refused_from_any_slot():
    # 0.9 passes the pole 0.5 + 1e-9i only on the way to its own time 2.0; the
    # same start with a short time is harmless (the step-budget form of this
    # refusal is in test_near_pole_point_refused_in_a_batch)
    wsg = sl.WeightedSemigroup(radial_flow(1e-10), pole_weight(0.5 + 1e-9j))
    with pytest.raises(sl.QuadratureError):
        sl.cocycle_eval(wsg, 0.9, 2.0)
    good = [(0.2j, 2.0), (0.9, 0.05)]
    for slot in range(len(good) + 1):
        zs, ts = zip(*good[:slot], (0.9, 2.0), *good[slot:])
        with pytest.raises(sl.QuadratureError):
            sl.cocycle_eval(wsg, np.array(zs), np.array(ts))


def test_escape_names_the_points_own_time():
    flow = escaping_flow()
    with pytest.raises(sl.EscapeError):
        flow.advance(0.5, 0.2)
    good = [(0.0, 5.0), (1e-6, 1.0)]
    for slot in range(len(good) + 1):
        zs, ts = zip(*good[:slot], (0.5, 0.2), *good[slot:])
        with pytest.raises(sl.EscapeError) as info:
            flow.advance(np.array(zs), np.array(ts))
        # the escaping point's own time lies in [ln(2)/5, 0.2]; the rescaled time would be >= 0.69
        t_escape = float(str(info.value).rsplit("t = ", 1)[1])
        assert np.log(2) / 5 <= t_escape <= 0.2


def test_coboundary_refusal_names_the_points_own_time():
    class ToOrigin(sl.FlowModel):
        def _advance(self, z, t):
            return np.where(t > 0.4, 0.0, z)

    with pytest.raises(sl.SingularityError, match=r"orbit of \(0\.5\+0j\) at t = 0\.75$"):
        sl.cocycle_eval(sl.WeightedSemigroup(ToOrigin(), sl.Coboundary(sl.Identity())),
                        np.array([0.3, 0.5]), np.array([0.2, 0.75]))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(disc_points, st.floats(0.0, 3.0)), min_size=1, max_size=12))
def test_cocycle_with_a_time_per_point_matches_closed_form(pairs):
    zs, ts = (np.array(column) for column in zip(*pairs))
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Identity()))
    m = sl.cocycle_eval(wsg, zs.astype(complex), ts)
    exact = np.exp(zs * (1 - np.exp(-ts)))
    assert np.all(np.abs(m - exact) <= 1e-11 * (1 + np.abs(exact)))


def test_weighted_z_derivative_with_a_time_per_point():
    # only a float t = 0 takes the shortcut; a zero entry goes through the
    # kernel and gives f'(z) there
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Identity()))
    f = sl.Exp(sl.Identity())
    zs = np.array([0.1, 0.2, -0.3j, 0.5 + 0.1j])
    ts = np.array([0.1, 0.0, 0.7, 0.2])
    batch = sl.weighted_z_derivative(wsg, f, zs, ts)
    single = np.array([sl.weighted_z_derivative(wsg, f, z, t) for z, t in zip(zs, ts)])
    assert batch.shape == zs.shape
    assert np.all(np.abs(batch - single) <= 10 * wsg.flow.tol * (1 + np.abs(single)))
    assert abs(batch[1] - f.derivative().eval(zs[1])) <= 1e-15 * abs(batch[1])


# The identity checks run the legs z -> s and z -> s + t as one batch [z, z]
# with end times [s, s + t], then the leg from phi_s(z) to t.


@pytest.mark.parametrize(
    "zs, s, t",
    [
        (np.array([0.1, -0.4j, 0.5 + 0.2j]), np.array([0.3, 0.0, 0.8]), np.array([0.6, 0.2, 0.0])),
        (np.array([0.1, -0.4j]), 0.3, np.array([0.6, 0.2])),
        (0.3 - 0.2j, 0.4, 0.7),
    ],
    ids=["times-per-point", "shared-s", "one-point"],
)
def test_identity_checks_integrate_twice(integrations, zs, s, t):
    flow = radial_flow()
    wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
    for check, obj in ((sl.check_semigroup, flow), (sl.check_cocycle_identity, wsg)):
        integrations.clear()
        check(obj, zs, s, t)
        both_legs, stepped = integrations
        assert np.array_equal(both_legs, np.broadcast_arrays(s, np.add(s, t)))
        assert np.array_equal(stepped, t)


CAYLEY_TRANSLATE = sl.koenigs_flow(sl.cayley_map(), 1j, "translate")
start_points = st.builds(lambda r, a: r * cmath.exp(1j * a), st.floats(0.0, 0.8), st.floats(0.0, 2 * cmath.pi))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(start_points, st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8))
def test_merged_legs_agree_with_one_point_calls(triples):
    zs, s, t = (np.array(column) for column in zip(*triples))
    zs = zs.astype(complex)
    for flow in (radial_flow(), CAYLEY_TRANSLATE):
        wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
        # a cocycle's error is relative to |m|: the Cayley sweep runs at the default tol 1e-10
        size = 1 + np.abs(sl.cocycle_eval(wsg, zs, s + t))
        for check, obj, bound in ((sl.check_semigroup, flow, np.full(zs.shape, 1e-12)),
                                  (sl.check_cocycle_identity, wsg, 1e-12 * size)):
            batch = check(obj, zs, s, t)
            assert batch.shape == zs.shape and np.all(batch <= bound), (flow, check)
            for z, a, b, r, most in zip(zs, s, t, batch, bound):
                one = check(obj, complex(z), float(a), float(b))
                assert type(one) is float and abs(one - r) <= most, (flow, check, z, a, b)


@pytest.mark.parametrize("g, t", [(sl.Identity(), 0.0), (sl.Constant(1), 0.3)], ids=["g=z-t=0", "g=1"])
def test_cocycle_start_outside_the_disc_is_refused(g, t):
    # neither the zero time nor a constant weight's exp(g t) skips the start check
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(g))
    f = sl.Identity()
    for call in (
        lambda z: sl.cocycle_eval(wsg, z, t),
        lambda z: sl.apply_weighted(wsg, f, z, t),
        lambda z: sl.weighted_z_derivative(wsg, f, z, t),
    ):
        with pytest.raises(sl.DomainError, match=re.escape("(1.5+0j)")):
            call(1.5)
    good = [0.2, -0.3j]
    for slot in range(len(good) + 1):
        with pytest.raises(sl.DomainError, match=re.escape("(1.5+0j)")):
            sl.cocycle_eval(wsg, np.array(good[:slot] + [1.5] + good[slot:], dtype=complex), t)


# The orbit systems: the integrator's right-hand sides, compiled from (G, g).

components = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))  # -0.0 included


def jets_stage(G, g, w, v):
    """(G, G' v) and, given g, (g, g' v) from the trees' own jets."""
    Gw, dG = G.jet(w)
    if g is None:
        return [Gw, dG * v]
    gw, dg = g.jet(w)
    return [Gw, dG * v, gw, dg * v]


def bits(values):
    return np.asarray(values, dtype=complex).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(fn_corpus()), st.one_of(st.none(), st.sampled_from(fn_corpus())),
       st.lists(st.tuples(disc_points, components, components, components, st.floats(0.0, 3.0)),
                min_size=1, max_size=6))
def test_orbit_system_is_the_trees_jets_bit_for_bit(G, g, states):
    # a batch gives one array of its state's shape, one point a tuple of Python complexes,
    # each the trees' jets in its own layout, bit for bit; the sweep raises its swell peak
    width = 2 if g is None else 4
    y = np.array([state[:width] for state in states], dtype=complex).T
    peaks = np.array([state[4] for state in states])
    system = sl.analytic.orbit_system(G, g)
    peak = [peaks.copy()]
    stage = system(y) if g is None else system(peak, y)
    assert type(stage) is np.ndarray and stage.shape == y.shape
    assert bits(stage) == bits(jets_stage(G, g, y[0], y[1]))
    if g is not None:
        assert bits(peak[0]) == bits(np.maximum(peaks, np.maximum(abs(y[2]), abs(y[3]))).astype(complex))
    for column, start in zip(y.T, peaks.tolist()):
        point = tuple(complex(c) for c in column)
        peak = [start]
        stage = system(point) if g is None else system(peak, point)
        assert type(stage) is tuple and all(type(c) is complex for c in stage)
        assert bits(stage) == bits(jets_stage(G, g, point[0], point[1]))
        if g is not None:
            assert peak[0] == max(start, max(abs(point[2]), abs(point[3])))


def refusal(call):
    """(type, message) of the package error ``call()`` raises; None when it returns."""
    try:
        call()
    except sl.SemiflowError as exc:
        return type(exc), str(exc)
    return None


# Trees that refuse a point: a guard disc, a pole, a vanishing denominator, a log of zero,
# a negative power of zero and an overflow, which the finiteness test refuses.
REFUSING_AT = [(GUARDED, 0.5004), (MOBIUS_POLE, 0.5), (ZERO_DENOMINATOR, 0.3), (sl.Log(POLE), 0.5),
               (sl.Power(POLE, -2), 0.5), (sl.Exp(sl.Polynomial([0, 800])), 0.95)]
orbit_trees = st.one_of(st.sampled_from([tree for tree, _ in REFUSING_AT]), st.sampled_from(fn_corpus()))


@pytest.mark.parametrize("tree, bad", REFUSING_AT,
                         ids=["guarded-quotient", "mobius-pole", "quotient-zero", "log-zero", "negative-power",
                              "exp-overflow"])
@pytest.mark.parametrize("role", ["field", "weight"])
def test_orbit_system_refuses_in_any_slot_as_the_jet_does(tree, bad, role):
    G, g = (tree, sl.Identity()) if role == "field" else (sl.Polynomial([0, -1]), tree)
    system = sl.analytic.orbit_system(G, g)
    expected = refusal(lambda: tree.jet(bad))
    assert expected is not None and refusal(lambda: system([0.0], (complex(bad), 1j, 0j, 0j))) == expected
    good = [0.1, -0.2j, 0.3 + 0.3j]
    for slot in range(len(good) + 1):
        w = np.array(good[:slot] + [bad] + good[slot:], dtype=complex)
        assert refusal(lambda: system([np.zeros(w.shape)], np.array([w, 1j + 0 * w, w, w]))) == expected


@settings(max_examples=150, deadline=None)
@given(orbit_trees, st.one_of(st.none(), orbit_trees),
       st.lists(st.one_of(disc_points, st.sampled_from([complex(bad) for _, bad in REFUSING_AT])),
                min_size=1, max_size=6))
def test_orbit_system_refuses_as_its_trees_do(G, g, ws):
    # the batch raises what G's jet raises on it, else what g's does (G's guards fire
    # first, wherever g's point sits), and that is what the point it names raises alone
    w = np.array(ws, dtype=complex)
    y = np.array([w, np.ones_like(w), w, w])[:2 if g is None else 4]
    system = sl.analytic.orbit_system(G, g)
    run = system if g is None else (lambda state: system([abs(state[0] * 0)], state))  # peak 0 per point
    batch = refusal(lambda: run(y))
    assert batch == (refusal(lambda: G.jet(w)) or (g is not None and refusal(lambda: g.jet(w))) or None)
    alone = [refusal(lambda point=tuple(column.tolist()): run(point)) for column in y.T]
    # the message names the point, so the batch's refusal is the one its point makes alone
    assert batch in alone if batch else alone == [None] * len(ws)


@pytest.mark.parametrize("points", [[0.5, 0.1, 0.3], [0.3, 0.1, 0.5]], ids=["pole-first", "zero-first"])
@pytest.mark.parametrize(
    "G, g, message",
    [(MOBIUS_POLE, ZERO_DENOMINATOR, "Mobius pole at (0.5+0j)"),
     (ZERO_DENOMINATOR, MOBIUS_POLE, "denominator vanishes at (0.3+0j)")],
    ids=["mobius-field", "quotient-field"],
)
def test_orbit_system_runs_the_fields_guards_before_the_weights(points, G, g, message):
    w = np.array(points, dtype=complex)
    with pytest.raises(sl.SingularityError) as raised:
        sl.analytic.orbit_system(G, g)([np.zeros(3)], np.array([w, w, w, w]))
    assert str(raised.value) == message
