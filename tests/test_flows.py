import cmath
import math
import re
import warnings

import numpy as np
import pytest

import semiflow_lab as sl
from conftest import flow_corpus, generator_corpus
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


def test_classify_elliptic():
    assert sl.classify_automorphism(sl.Automorphism(kind="elliptic", omega=1.0)) == "elliptic"
    rot = sl.koenigs_flow(sl.identity_map(), 1j, "spiral")
    assert sl.classify_automorphism(rot) == "elliptic"


def test_classify_hyperbolic():
    flow = sl.Automorphism(kind="hyperbolic", rate=1.0)
    assert sl.classify_automorphism(flow) == "hyperbolic"
    fps = sl.automorphism_fixed_points(flow)
    assert sorted(round(abs(p - 1), 6) for p in fps)[0] == 0
    assert sorted(round(abs(p + 1), 6) for p in fps)[0] == 0


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


def test_classify_parabolic():
    flow = sl.Automorphism(kind="parabolic", speed=1.0)
    assert sl.classify_automorphism(flow) == "parabolic"
    fps = sl.automorphism_fixed_points(flow)
    assert all(abs(p - 1.0) < 1e-4 for p in fps)


def test_classify_automorphism_integrates_twice(integrations):
    # one run for the three fit points of phi_1, one for the three check points
    assert sl.classify_automorphism(sl.ode_flow(sl.Polynomial([0, 1j]))) == "elliptic"
    assert len(integrations) == 2


def test_classify_rejects_non_mobius():
    # cubic field: a quadratic one would give a Riccati flow, which is Mobius
    flow = sl.ode_flow(sl.Polynomial([0, -1, 0, 1]))
    with pytest.raises(sl.ModelError):
        sl.classify_automorphism(flow)


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
