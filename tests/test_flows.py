import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semiflow_lab as sl
from conftest import flow_corpus, generator_corpus, group_fixed_points
from semiflow_lab.cli import random_disc_points


def radial_flow(tol=1e-10):
    return sl.ode_flow(sl.Polynomial([0, -1]), tol)


def test_advance_matches_separable_solution():
    flow = radial_flow(1e-12)
    got = flow.advance(0.5, 1.0)
    assert abs(got - 0.5 * math.exp(-1.0)) < 1e-10


def test_advance_time_zero_is_identity():
    for flow in flow_corpus().values():
        z = 0.3 - 0.2j
        assert flow.advance(z, 0.0) == z


def test_advance_cayley_translate():
    flow = sl.koenigs_flow(sl.cayley_map(), 1.0, "translate")
    assert abs(flow.advance(0.0, 1.0) - 1.0 / 3.0) < 1e-14


def test_advance_rejects_bad_input():
    flow = radial_flow()
    with pytest.raises(sl.DomainError):
        flow.advance(1.0, 0.5)
    with pytest.raises(ValueError):
        flow.advance(0.5, -1.0)


def test_escape_guard_is_loud():
    # an outward field is not a semiflow generator; the integrator must refuse
    flow = sl.ode_flow(sl.Polynomial([0, 5]))
    with pytest.raises(sl.EscapeError):
        flow.advance(0.9, 2.0)


def test_flow_leaving_the_disc_is_typed():
    # a typed error, not an assert: the guard must survive python -O
    class ToCircle(sl.FlowModel):
        def _advance(self, z, t):
            return 1.0

        def _advance_with_derivative(self, z, t):
            return 1.0, 1.0

    with pytest.raises(sl.EscapeError):
        ToCircle().advance(0.5, 1.0)
    with pytest.raises(sl.EscapeError):
        ToCircle().advance_with_derivative(0.5, 1.0)


def test_dop853_tableau_identities():
    from semiflow_lab.flows import _A, _B, _E3, _E5

    # the DOP853 nodes c_i; the integrator itself needs none (autonomous fields)
    r6 = math.sqrt(6.0)
    nodes = (0.0, (6 - r6) / 67.5, (6 - r6) / 45, (6 - r6) / 30, (6 + r6) / 30, 1 / 3, 1 / 4,
             4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0)
    assert [len(row) for row in _A] == list(range(12))
    assert len(_B) == 12 and len(_E5) == len(_E3) == 13
    for row, c in zip(_A, nodes):
        assert abs(sum(row) - c) < 1e-14
    assert abs(sum(_B) - 1.0) < 1e-15
    assert abs(sum(_E5)) < 1e-15 and abs(sum(_E3)) < 1e-15


def _summed_step(rhs, y, k1, h, tol):
    """The DOP853 step with every stage sum as sum(map(mul, row, stages))."""
    from operator import mul

    from semiflow_lab.flows import _A, _B, _E3, _E5, _error

    stages = [[k] for k in k1]
    for row in _A[1:]:
        k = rhs(tuple([a + h * sum(map(mul, row, col)) for a, col in zip(y, stages)]))
        for col, kj in zip(stages, k):
            col.append(kj)
    y_new = tuple([a + h * sum(map(mul, _B, col)) for a, col in zip(y, stages)])
    k_new = rhs(y_new)
    n5 = n3 = 0.0
    for a, b, col, kj in zip(y, y_new, stages, k_new):
        col.append(kj)
        scale = tol + tol * max(abs(a), abs(b))
        n5 = max(n5, abs(sum(map(mul, _E5, col))) / scale)
        n3 = max(n3, abs(sum(map(mul, _E3, col))) / scale)
    return y_new, k_new, _error(h * n5, h * n3)


def bits(x):
    """The exact bits of a complex, a float or a tuple of them; -0.0 and 0.0 differ."""
    if isinstance(x, tuple):
        return tuple(bits(c) for c in x)
    x = complex(x)
    return x.real.hex(), x.imag.hex()


@pytest.mark.parametrize("components", [1, 2, 4])
def test_unrolled_step_is_the_summed_step_bit_for_bit(components):
    # the results and every stage's input; components 1 and 3 stay at -0.0 + 0j,
    # whose real sign the leading int 0 of sum() turns to +0.0
    from semiflow_lab.flows import _tuple_step

    def step_with_inputs(step, y, h):
        inputs = []

        def rhs(y):
            inputs.append(y)
            return tuple([complex(-0.0, 0.0) if c % 2 else -w + 0.3 * y[0] * w for c, w in enumerate(y)])

        return bits(step(rhs, y, rhs(y), h, 1e-10)), bits(tuple(inputs))

    starts = [0.3 - 0.2j, complex(-0.0, 0.0), 0.1j, complex(-0.0, 0.0)]
    y = tuple(starts[:components])
    for h in (0.1, 1e-3, 0.7):
        assert step_with_inputs(_tuple_step(components), y, h) == step_with_inputs(_summed_step, y, h)


def test_counter_on_the_class_eval_anywhere_sees_an_ode_advance(monkeypatch):
    # the benchmark's tracer wraps AnalyticFn.eval_anywhere on the class; the
    # compiled code must be reached through that method
    calls = []
    eval_anywhere = sl.AnalyticFn.eval_anywhere

    def counted(self, z):
        calls.append(z)
        return eval_anywhere(self, z)

    monkeypatch.setattr(sl.AnalyticFn, "eval_anywhere", counted)
    flow = radial_flow()
    flow.G.eval_anywhere(0.1)  # compiled before the run, so the run only evaluates
    calls.clear()
    assert abs(flow.advance(0.5, 1.0) - 0.5 * math.exp(-1.0)) < 1e-9
    assert len(calls) > 1 and (len(calls) - 1) % 12 == 0  # the first stage, then 12 a step


@pytest.mark.parametrize("tol, evaluations", [(1e-12, 133), (1e-10, 85)])
@pytest.mark.parametrize("batch", [False, True], ids=["tuple", "stacked"])
def test_cocycle_sweep_right_hand_side_count(monkeypatch, tol, evaluations, batch):
    # G = -z, g = z: m_t(z) = exp(z (1 - e^-t)); a DOP853 step costs 12
    # evaluations (stage 1 is the last stage of the step before)
    from semiflow_lab import cocycles, flows

    count = 0

    def counted(rhs, y0, t_end, flow_tol):
        def counted_rhs(y):
            nonlocal count
            count += 1
            return rhs(y)

        return flows._integrate(counted_rhs, y0, t_end, flow_tol)

    monkeypatch.setattr(cocycles, "_integrate", counted)
    z = 0.5 + 0.3j
    wsg = sl.WeightedSemigroup(radial_flow(tol), sl.Weight(sl.Identity()))
    m = sl.cocycle_eval(wsg, np.array([z]) if batch else z, 2.0)
    assert count == evaluations
    assert abs(complex(np.ravel(m)[0]) - cmath.exp(z * (1 - math.exp(-2.0)))) < tol


def evaluations_per_run(monkeypatch):
    """The right-hand-side evaluations of every flow integration, one entry a run."""
    from semiflow_lab import flows

    counts = []
    integrate = flows._integrate

    def counted(rhs, y0, t_end, tol):
        counts.append(0)

        def counted_rhs(y):
            counts[-1] += 1
            return rhs(y)

        return integrate(counted_rhs, y0, t_end, tol)

    monkeypatch.setattr(flows, "_integrate", counted)
    return counts


def test_ladder_batch_starts_with_the_scalar_first_step(monkeypatch):
    # the generator ladder's 7 rungs against the 256 points of |z| = 0.9: a
    # batch with a time per point starts with the step of a scalar run to its
    # longest time, here one DOP853 step of 12 evaluations after the first
    counts = evaluations_per_run(monkeypatch)
    flow = radial_flow(1e-12)
    z = sl.H2Norm().points
    ladder = np.reshape([0.1 * 2 ** (-k) for k in range(7)], (-1, 1))
    w = flow.advance(z, ladder)
    flow.advance(complex(z[0]), 0.1)
    assert counts == [13, 13]
    assert np.all(np.abs(w - z * np.exp(-ladder)) <= 1e-12)


def test_all_zero_times_return_the_start(monkeypatch):
    counts = evaluations_per_run(monkeypatch)
    z = np.array([0.5 + 0.3j, -0.2j])
    w = radial_flow(1e-12).advance(z, np.zeros((3, 2)))
    assert np.array_equal(w, np.broadcast_to(z, (3, 2)))
    assert counts == [0]


@pytest.mark.parametrize("t", [8.7e-231, 5e-324])
@pytest.mark.parametrize("G", [sl.Constant(0.0), sl.Polynomial([0, -1])], ids=["zero", "-z"])
@pytest.mark.parametrize("batch", [False, True], ids=["tuple", "stacked"])
def test_error_estimate_survives_a_subnormal_time(t, G, batch):
    # at these times the squared error norms underflow to 0 (or the norms are
    # 0 outright): the combined estimate must not divide 0 by 0
    z = 0.5 + 0.3j
    w = sl.ode_flow(G, 1e-12).advance(np.array([z]) if batch else z, t)
    assert np.all(w == z)


def test_disc_invariance(rng):
    for flow in flow_corpus().values():
        for z in random_disc_points(rng, 10, 0.8):
            t = rng.uniform(0.0, 2.0)
            assert abs(flow.advance(z, t)) < 1.0


def test_semigroup_residual_corpus(rng):
    """phi_{s+t} = phi_t o phi_s within 10x the integrator tolerance."""
    for name, flow in flow_corpus().items():
        worst = 0.0
        for z in random_disc_points(rng, 50, 0.8):
            s = rng.uniform(0.0, 2.0)
            t = rng.uniform(0.0, 2.0)
            worst = max(worst, sl.check_semigroup(flow, z, s, t))
        assert worst <= 1e-9, f"{name}: {worst}"


def test_semigroup_closed_form_examples():
    flow = radial_flow()
    assert sl.check_semigroup(flow, 0.7, 0.3, 0.9) <= 1e-8
    assert sl.check_semigroup(flow, 0.4 + 0.1j, 0.0, 1.0) <= 1e-12
    spiral = sl.koenigs_flow(sl.identity_map(), 1.0, "spiral")
    assert sl.check_semigroup(spiral, 0.5j, 1.0, 2.0) <= 1e-15


def test_flow_z_derivative_radial():
    flow = radial_flow(1e-12)
    for t in (0.3, 1.0):
        _, dz = flow.advance_with_derivative(0.2 + 0.1j, t)
        assert abs(dz - math.exp(-t)) < 1e-10


def test_flow_z_derivative_time_zero():
    for flow in flow_corpus().values():
        assert flow.advance_with_derivative(0.3, 0.0)[1] == 1.0


def test_flow_z_derivative_rotation():
    flow = sl.ode_flow(sl.Polynomial([0, 1j]), 1e-12)
    dz = flow.advance_with_derivative(0.4, math.pi)[1]
    assert abs(dz - cmath.exp(1j * math.pi)) < 1e-9


def test_flow_z_derivative_matches_centered_difference(rng):
    h = 1e-5
    for name, flow in flow_corpus().items():
        for z in random_disc_points(rng, 5, 0.7):
            t = rng.uniform(0.1, 1.5)
            exact = flow.advance_with_derivative(z, t)[1]
            fd = (flow.advance(z + h, t) - flow.advance(z - h, t)) / (2 * h)
            assert abs(exact - fd) <= 1e-5 * (1 + abs(exact)), name


def test_generator_fd_round_trip(rng):
    # finer rungs than the -z example: the quadratic fields have larger
    # orbit curvature near |z| = 0.8 and the extrapolation error is O(h^3)
    ladder = [5e-3, 2.5e-3, 1.25e-3]
    for name, G in generator_corpus().items():
        flow = sl.ode_flow(G)
        for z in random_disc_points(rng, 30, 0.8):
            est = sl.generator_fd(flow, z, ladder)
            assert abs(est - G.eval(z)) < 1e-6, name


def test_generator_fd_integrates_once(integrations):
    # every rung in one batch, row i at time h_i
    sl.generator_fd(radial_flow(), np.array([0.1, 0.3 - 0.2j, -0.5j]), [5e-3, 2.5e-3, 1.25e-3])
    assert len(integrations) == 1


def test_generator_fd_trivial_flow():
    flow = sl.ode_flow(sl.Constant(0.0))
    assert abs(sl.generator_fd(flow, 0.4, [1e-2, 5e-3, 2.5e-3])) < 1e-12


def test_generator_fd_cayley_translate():
    flow = sl.koenigs_flow(sl.cayley_map(), 1.0, "translate")
    est = sl.generator_fd(flow, 0.0, [1e-2, 5e-3, 2.5e-3])
    assert abs(est - 0.5) < 1e-6  # c (1-z)^2 / 2 at z = 0


def test_cayley_translate_generator_jet_is_the_closed_form(rng):
    # G = c/h' with h = (1 + z)/(1 - z) and c = i is (i/2)(1 - z)^2, so
    # G' = -i(1 - z); G' reads h'' from h's jet, to a few ulps
    G = sl.koenigs_flow(sl.cayley_map(), 1j, "translate").generator_fn()
    zs = np.array(random_disc_points(rng, 50, 0.9))
    tol = 4 * np.finfo(float).eps
    value, slope = G.jet(zs)
    assert np.all(abs(value - 0.5j * (1 - zs) ** 2) <= tol * abs(value))
    assert np.all(abs(slope + 1j * (1 - zs)) <= tol * abs(slope))
    for z in zs.tolist():
        value, slope = G.jet(z)
        assert abs(value - 0.5j * (1 - z) ** 2) <= tol * abs(value)
        assert abs(slope + 1j * (1 - z)) <= tol * abs(slope)


def test_koenigs_spiral_requires_fixed_origin():
    with pytest.raises(sl.ModelError):
        sl.koenigs_flow(sl.cayley_map(), 1.0, "spiral")
    with pytest.raises(sl.ModelError):
        sl.koenigs_flow(sl.identity_map(), -1.0, "spiral")


def test_koenigs_identity_spiral_is_radial():
    spiral = sl.koenigs_flow(sl.identity_map(), 1.0, "spiral")
    assert abs(spiral.advance(0.5, 1.0) - 0.5 * math.exp(-1.0)) < 1e-15


def test_koenigs_rotation():
    rot = sl.koenigs_flow(sl.identity_map(), 1j, "spiral")
    got = rot.advance(0.4, 0.7)
    assert abs(got - 0.4 * cmath.exp(-0.7j)) < 1e-15


def test_koenigs_matches_ode(rng):
    ode = radial_flow()
    spiral = sl.koenigs_flow(sl.identity_map(), 1.0, "spiral")
    for z in random_disc_points(rng, 20, 0.8):
        t = rng.uniform(0.0, 3.0)
        assert abs(ode.advance(z, t) - spiral.advance(z, t)) <= 1e-9


def test_parabolic_stays_near_circle():
    # conjugated vertical translation: boundary maps to boundary
    flow = sl.koenigs_flow(sl.cayley_map(), 1j, "translate")
    for theta in (0.5, 2.0, 3.0):
        z = 0.999999 * cmath.exp(1j * theta)
        w = flow.advance(z, 1.0)
        assert abs(w) > 0.999


# the (a, beta) of G(z) = a + i beta z - conj(a) z^2 per kind: e^{i omega t} z is G = i omega z, the Cayley
# dilation G = +-rate (1 - z^2)/2 and the Cayley translation G = +-i speed (1 -+ z)^2 / 2
AUTOMORPHISM_GENERATORS = [
    (dict(kind="elliptic", omega=1.0), 0j, 1.0),
    (dict(kind="hyperbolic", rate=1.0), 0.5, 0.0),
    (dict(kind="hyperbolic", rate=1.0, reflect=True), -0.5, 0.0),
    (dict(kind="parabolic", speed=1.0), 0.5j, -1.0),
    (dict(kind="parabolic", speed=1.0, reflect=True), -0.5j, -1.0),
]


def test_automorphism_generator_reads_each_kinds_a_and_beta():
    for fields, a, beta in AUTOMORPHISM_GENERATORS:
        assert sl.flows.automorphism_generator(sl.Automorphism(**fields)) == (a, beta)
    rot = sl.koenigs_flow(sl.identity_map(), 1j, "spiral")  # e^{-it} z
    assert sl.flows.automorphism_generator(rot) == (0, -1.0)


@pytest.mark.parametrize("rate, reflect", [(1.0, False), (0.6, True), (-0.8, False)])
def test_hyperbolic_automorphism_is_the_cayley_dilation(rate, reflect):
    # phi_t = h^{-1}(e^{rate t} h(z)) with h the (reflected) Cayley map
    flow = sl.Automorphism(kind="hyperbolic", rate=rate, reflect=reflect)
    s = -1.0 if reflect else 1.0

    def exact(z, t):
        u = np.exp(rate * t) * (1 + s * z) / (1 - s * z)
        return s * (u - 1) / (u + 1)

    zs = np.array([0.0, 0.3 - 0.2j, -0.5 + 0.4j, 0.7j])
    for t in (0.25, 1.0, 2.5):
        assert abs(flow.advance(zs, t) - exact(zs, t)).max() <= 1e-15
        for z in zs:
            assert abs(flow.advance(complex(z), t) - exact(z, t)) <= 1e-15
            h = 1e-5
            fd = (flow.advance(complex(z) + h, t) - flow.advance(complex(z) - h, t)) / (2 * h)
            assert abs(flow.advance_with_derivative(complex(z), t)[1] - fd) <= 1e-8
    est = sl.generator_fd(flow, zs, [5e-3, 2.5e-3, 1.25e-3])
    assert abs(est - flow.generator_fn().eval(zs)).max() <= 1e-7


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_automorphism_group_reads_alike_at_any_speed(scale, monkeypatch):
    # (a, beta) scale with the group, bit for bit, and case 2's test of G(1) = i (2 Im a + beta) is relative to
    # max(|a|, |beta|), so it refuses the groups that fix 1 at any speed, before any orbit runs
    monkeypatch.setattr(sl.FlowModel, "advance", None)
    for fields, a, beta in AUTOMORPHISM_GENERATORS:
        key = next(key for key in ("omega", "rate", "speed") if key in fields)
        flow = sl.Automorphism(**{**fields, key: scale})
        assert sl.flows.automorphism_generator(flow) == (a * scale, beta * scale)
        if 2 * a.imag + beta == 0:  # the hyperbolic and the parabolic group, both of which fix 1
            with pytest.raises(sl.CaseMismatch, match=r"G\(1\) = 0"):
                sl.construct_case2(flow, N=3)


def test_classify_automorphism_integrates_nothing(integrations):
    # a = G(0), i beta = G'(0) and the form on |z| = 1/2 come from one jet of the generator tree,
    # and case 2 refuses a group that fixes 1 from them alone
    assert sl.flows.automorphism_generator(sl.ode_flow(sl.Polynomial([0, 1j]))) == (0, 1.0)
    assert sl.flows.automorphism_generator(sl.Automorphism(kind="parabolic", speed=2.0)) == (1j, -2.0)
    with pytest.raises(sl.CaseMismatch):
        sl.construct_case2(sl.Automorphism(kind="hyperbolic", rate=1.0), N=3)
    assert integrations == []


def test_classify_rejects_non_mobius():
    # cubic field: a quadratic one would give a Riccati flow, which is Mobius
    flow = sl.ode_flow(sl.Polynomial([0, -1, 0, 1]))
    assert sl.flows.automorphism_generator(flow) is None
    with pytest.raises(sl.CaseMismatch, match="not an automorphism group"):
        sl.construct_case2(flow, N=3)


@pytest.mark.parametrize("coeffs", [[0, -1], [0.1, -1, 0.3]], ids=["-z", "0.1-z+0.3z^2"])
def test_classify_refuses_riccati_flows_that_are_no_automorphism_group(coeffs):
    # their time-1 maps are Mobius, but they map the disc into itself, not onto it
    flow = sl.ode_flow(sl.Polynomial(coeffs))
    assert sl.flows.automorphism_generator(flow) is None
    with pytest.raises(sl.CaseMismatch, match="not a \\+ i beta z"):
        sl.construct_case2(flow, N=3)


def test_classify_refuses_the_trivial_flow():
    # G = 0 fits the form with a = beta = 0, and case 2 refuses it: it fixes every point, 1 among them
    assert sl.flows.automorphism_generator(sl.ode_flow(sl.Constant(0))) == (0, 0)
    with pytest.raises(sl.CaseMismatch, match="trivial flow G = 0"):
        sl.construct_case2(sl.ode_flow(sl.Constant(0)), N=3)


@settings(max_examples=80, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0), st.floats(1e-6, 1.0), st.booleans())
def test_automorphism_generators_are_classified_by_their_discriminant(re_a, im_a, beta, eps, cubic):
    # the reader gives (a, beta) back exactly and refuses any other polynomial; by the sign of the discriminant
    # 4|a|^2 - beta^2 the fixed points are two on the circle (hyperbolic) or one inside (elliptic), and G(1) =
    # -conj(a) (1 - p) (1 - q) over them, so G(1) = i (2 Im a + beta), case 2's one number, is 0 just when 1 is one
    a = complex(re_a, im_a)
    disc = 4 * abs(a) ** 2 - beta ** 2
    assume(abs(disc) > 1e-6 * (4 * abs(a) ** 2 + beta ** 2))  # away from parabolic, and not G = 0
    assume(a == 0 or abs(a) >= 1e-3)  # the outer fixed point of an elliptic group stays finite
    G = sl.Polynomial([a, 1j * beta, -a.conjugate()])
    assert sl.flows.automorphism_generator(sl.ode_flow(G)) == (a, beta)
    fixed = group_fixed_points(a, beta)
    for p in fixed:
        assert abs(G.eval_anywhere(p)) <= 1e-14 * (abs(a) + abs(beta * p) + abs(a * p * p))
        assert disc < 0 or abs(abs(p) - 1.0) <= 1e-14
    if a != 0:
        p, q = fixed
        assert abs(abs(2 * a.imag + beta) - abs(a * (1 - p) * (1 - q))) <= 1e-13 * (abs(a) + abs(beta))
    off = [a, 1j * beta, -a.conjugate(), eps] if cubic else [a, 1j * beta, -a.conjugate() + eps]
    assert sl.flows.automorphism_generator(sl.ode_flow(sl.Polynomial(off))) is None


@pytest.mark.parametrize("a, beta", [(0.5j, -1.0), (-0.3 + 0.4j, 1.0), (0.05, 0.1)])
def test_parabolic_generators_have_one_fixed_point_on_the_circle(a, beta):
    # 4|a|^2 = beta^2: a double root of -conj(a) z^2 + i beta z + a on the circle.  Case 2 refuses the group
    # whose double root is 1, off G(1) = 0, and builds on the others
    G = sl.Polynomial([a, 1j * beta, -a.conjugate()])
    flow = sl.ode_flow(G)
    assert sl.flows.automorphism_generator(flow) == (a, beta)
    for p in group_fixed_points(a, beta):
        assert abs(abs(p) - 1.0) <= 1e-12 and abs(G.eval_anywhere(p)) <= 1e-12
    if abs(group_fixed_points(a, beta)[0] - 1.0) <= 1e-12:
        with pytest.raises(sl.CaseMismatch, match=r"G\(1\) = 0"):
            sl.construct_case2(flow, N=1)
    else:
        assert len(sl.construct_case2(flow, N=1).levels) == 1


def test_boundary_orbit_radial():
    orbit = sl.boundary_orbit(radial_flow(), 1.0, 1.0)
    assert abs(orbit.limit - math.exp(-1.0)) < 1e-8
    assert orbit.converged
    assert orbit.verdict == "inside"


def test_boundary_orbit_rotation():
    rot = sl.koenigs_flow(sl.identity_map(), -1j, "spiral")  # e^{it} z
    orbit = sl.boundary_orbit(rot, 1.0, 1.0)
    assert orbit.verdict == "boundary"
    assert abs(orbit.limit - cmath.exp(1j)) < 1e-6


def test_boundary_orbit_integrates_once(integrations):
    # the 28 ladder points advance in one batch
    assert sl.boundary_orbit(radial_flow(), 1.0, 0.5).verdict == "inside"
    assert len(integrations) == 1


def test_boundary_orbit_trivial_flow():
    trivial = sl.ode_flow(sl.Constant(0.0))
    orbit = sl.boundary_orbit(trivial, 1.0, 1.0)
    assert orbit.verdict == "boundary"
    assert abs(orbit.limit - 1.0) < 1e-9


class _OscillatingFlow(sl.FlowModel):
    # not a semiflow; radial values bounce so the ladder increments never decay
    def _advance(self, z, t):
        return 0.5 * np.sin(1.0 / (1.0 - abs(z)))

    def _advance_with_derivative(self, z, t):
        return self._advance(z, t), 1.0


def test_boundary_orbit_no_convergence():
    with pytest.raises(sl.NoConvergence):
        sl.boundary_orbit(_OscillatingFlow(), 1.0, 1.0)


def test_conformal_map_inversion(rng):
    maps = [
        sl.cayley_map(),
        sl.reflected_cayley_map(),
        sl.ConformalMap(forward=sl.Mobius(1, 1, -1, 1)),  # Newton fallback
    ]
    for h in maps:
        for z in random_disc_points(rng, 20, 0.9):
            w = h.map(z)
            assert abs(h.inverse_at(w, seed=z * 0.9) - z) < 1e-10


def test_newton_inverse_failure():
    h = sl.ConformalMap(
        forward=sl.Mobius(1, 1, -1, 1), newton=sl.NewtonInverse(max_iter=3)
    )
    with pytest.raises(sl.InverseError):
        h.inverse_at(1e6, 0j)


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
def test_newton_divergence_is_typed(batch):
    # from the seed 0, Newton on the Cayley map walks off towards |x| ~ 1e285
    h = sl.ConformalMap(forward=sl.Mobius(1, 1, -1, 1))
    bad = h.map(0.6015 - 0.2571j)
    w = np.array([h.map(0.1), bad]) if batch else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sl.InverseError, match=re.escape(f"Newton diverged inverting at {bad}")):
            h.inverse_at(w, 0j)


def test_rotated_flow_conjugation():
    flow = radial_flow(1e-12)
    gamma = cmath.exp(0.7j)
    rot = sl.RotatedFlow(flow, gamma)
    z = 0.3 + 0.2j
    assert abs(rot.advance(z, 1.0) - flow.advance(gamma * z, 1.0) / gamma) < 1e-15
    G = rot.generator_fn()
    assert abs(G.eval(z) - (-z)) < 1e-14  # -z is rotation invariant


def test_flow_json_round_trip(rng):
    for flow in flow_corpus().values():
        again = sl.flow_from_json(sl.json_form(flow))
        assert again == flow
        for z in random_disc_points(rng, 5, 0.7):
            t = rng.uniform(0.0, 1.5)
            assert abs(again.advance(z, t) - flow.advance(z, t)) < 1e-12
    auto = sl.Automorphism(kind="parabolic", speed=1.0, reflect=True)
    again = sl.flow_from_json(sl.json_form(auto))
    assert again.advance(0.3, 0.8) == auto.advance(0.3, 0.8)


@pytest.mark.parametrize("tol", [0, -1, float("nan"), float("inf")])
def test_ode_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(sl.ConfigError):
        sl.flow_from_json({"type": "ode", "G": {"op": "poly", "coeffs": [[0, 0], [-1, 0]]}, "tol": tol})


@pytest.mark.parametrize(
    "obj",
    [
        {"type": "ode", "G": {"op": "id"}, "tol": "1e-10"},
        {"type": "automorphism", "kind": "hyperbolic", "rate": "2"},
        {"type": "automorphism", "kind": "parabolic", "speed": 1.0, "reflect": "false"},
        {"type": "rotated", "gamma": ["0", 1], "inner": {"type": "ode", "G": {"op": "id"}}},
        {"type": "koenigs", "mode": "translate", "h": {"forward": {"op": "id"}, "newton": {"tol": "1e-12"}},
         "c": [0, 1]},
    ],
    ids=["ode-tol", "rate", "reflect", "gamma", "newton-tol"],
)
def test_flow_numbers_must_be_typed(obj):
    with pytest.raises(sl.ConfigError, match="config key"):
        sl.flow_from_json(obj)


def test_map_numbers_must_be_typed():
    forward = {"op": "mobius", "a": [1, 0], "b": [1, 0], "c": [-1, 0], "d": [1, 0]}
    for newton in ({"tol": "1e-12"}, {"max_iter": "50"}, {"max_iter": 2.5}):
        with pytest.raises(sl.ConfigError, match="config key"):
            sl.flows.map_from_json({"forward": forward, "newton": newton})
    h = sl.flows.map_from_json({"forward": forward, "newton": {"tol": 1e-12, "max_iter": 50}})
    assert abs(h.inverse_at(h.map(0.3), 0j) - 0.3) < 1e-12


def test_every_flow_carries_its_tolerance():
    ode = radial_flow(1e-12)
    assert ode.tol == 1e-12
    assert sl.RotatedFlow(ode, 1j).tol == 1e-12
    assert sl.RotatedFlow(sl.RotatedFlow(ode, 1j), -1).tol == 1e-12
    for flow in (sl.koenigs_flow(sl.cayley_map(), 1j, "translate"),
                 sl.Automorphism(kind="hyperbolic", rate=1.0),
                 sl.RotatedFlow(sl.Automorphism(kind="parabolic", speed=1.0), 1j)):
        assert flow.tol == sl.flows.DEFAULT_TOL
