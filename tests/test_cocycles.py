import cmath
import math

import numpy as np
import pytest

import semiflow_lab as sl
from conftest import flow_corpus, weight_corpus
from semiflow_lab.cli import random_disc_points


def radial_flow(tol=1e-12):
    return sl.ode_flow(sl.Polynomial([0, -1]), tol)


def test_cocycle_constant_weight():
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Constant(2 - 1j)))
    for z in (0.1, 0.5j):
        assert abs(sl.cocycle_eval(wsg, z, 0.7) - cmath.exp((2 - 1j) * 0.7)) < 1e-14


def test_cocycle_identity_weight_closed_form():
    # g = z over e^{-s} z integrates to z (1 - e^{-t})
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Identity()))
    for z in (0.5, 0.3 - 0.4j):
        for t in (0.25, 1.0, 2.5):
            exact = cmath.exp(z * (1 - math.exp(-t)))
            assert abs(sl.cocycle_eval(wsg, z, t) - exact) < 1e-9


def test_cocycle_time_zero():
    for weight in weight_corpus().values():
        wsg = sl.WeightedSemigroup(radial_flow(), weight)
        if isinstance(weight, sl.Weight):
            assert sl.cocycle_eval(wsg, 0.4, 0.0) == 1.0


def test_cocycle_eval_rejects_coboundary():
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Coboundary(sl.Polynomial([1, -1])))
    with pytest.raises(TypeError):
        sl.cocycle_eval(wsg, 0.4, 0.5)


def pole_weight(p):
    return sl.Weight(sl.Quotient(sl.Constant(1), sl.Polynomial([-p, 1])))


def test_cocycle_step_budget_on_near_pole():
    # pole 1e-9 off the orbit of 0.9: at tol 1e-12 the sweep cannot meet the
    # tolerance within the step budget and must refuse
    wsg = sl.WeightedSemigroup(radial_flow(), pole_weight(0.5 + 1e-9j))
    with pytest.raises(sl.EscapeError):
        sl.cocycle_eval(wsg, 0.9, 2.0)


def test_cocycle_swell_refused_on_near_pole():
    # at tol 1e-10 the sweep finishes, but the integral swells about 5e6 times
    # above its end value on the way past the pole: its digits are gone
    wsg = sl.WeightedSemigroup(radial_flow(1e-10), pole_weight(0.5 + 1e-9j))
    with pytest.raises(sl.QuadratureError):
        sl.cocycle_eval(wsg, 0.9, 2.0)


def test_cocycle_step_budget_on_orbit_pole():
    # the orbit 0.9 e^{-s} runs through the pole at 0.5
    wsg = sl.WeightedSemigroup(radial_flow(), pole_weight(0.5))
    with pytest.raises(sl.EscapeError):
        sl.cocycle_eval(wsg, 0.9, 2.0)


def test_coboundary_examples():
    flow = radial_flow()
    alpha = sl.Polynomial([1, -1])
    assert sl.coboundary_eval(sl.Constant(1), flow, 0.3, 0.9) == pytest.approx(1.0)
    got = sl.coboundary_eval(alpha, flow, 0.5, math.log(2))
    assert abs(got - 1.5) < 1e-10
    assert sl.coboundary_eval(alpha, flow, 0.5, 0.0) == pytest.approx(1.0)


def test_coboundary_zero_on_orbit_is_typed():
    class ToOrigin(sl.FlowModel):
        def _advance(self, z, t):
            return 0.0j

    with pytest.raises(sl.SingularityError):
        sl.coboundary_eval(sl.Identity(), ToOrigin(), 0.5, 1.0)


def test_coboundary_guarded_zero():
    flow = radial_flow()
    alpha = sl.Polynomial([0, 1])  # vanishes at the fixed point 0
    with pytest.raises(sl.SingularityError):
        sl.coboundary_eval(alpha, flow, 0.0, 0.5, fixed_point=0.0)
    # m_t and m_t' refuse alike near the allowed zero, alone or in a batch slot
    wsg = sl.WeightedSemigroup(flow, sl.Coboundary(alpha, 0.0))
    message = r"^evaluation at the allowed zero \(1e-13\+0j\) of alpha$"
    for op in (sl.apply_weighted, sl.weighted_z_derivative):
        for z in (1e-13, np.array([0.3, 1e-13])):
            with pytest.raises(sl.SingularityError, match=message):
                op(wsg, sl.Identity(), z, 0.5)


def test_cocycle_identity_residuals(rng):
    """m_{t+s}(z) = m_s(z) m_t(phi_s(z)) across the full corpus."""
    for fname, flow in flow_corpus().items():
        for wname, weight in weight_corpus().items():
            wsg = sl.WeightedSemigroup(flow, weight)
            worst = 0.0
            for z in random_disc_points(rng, 12, 0.8):
                s = rng.uniform(0.0, 1.0)
                t = rng.uniform(0.0, 1.0)
                worst = max(worst, sl.check_cocycle_identity(wsg, z, s, t))
            assert worst <= 1e-8, (fname, wname, worst)


def test_weight_generator_fd_round_trip(rng):
    ladder = [1e-2, 5e-3, 2.5e-3]
    flow = radial_flow()
    for wname, weight in weight_corpus().items():
        wsg = sl.WeightedSemigroup(flow, weight)
        g_tree = sl.cocycles.weight_fn(wsg)
        for z in random_disc_points(rng, 20, 0.8):
            est = sl.weight_generator_fd(wsg, z, ladder)
            assert abs(est - g_tree.eval(z)) < 1e-6, wname


def test_weight_generator_fd_examples():
    flow = radial_flow()
    wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
    z = 0.3 + 0.1j
    assert abs(sl.weight_generator_fd(wsg, z, [1e-2, 5e-3, 2.5e-3]) - z) < 1e-6
    cob = sl.WeightedSemigroup(flow, sl.Coboundary(sl.Polynomial([1, -1])))
    # G alpha'/alpha = z/(1-z), so 1 at z = 1/2
    assert abs(sl.weight_generator_fd(cob, 0.5, [1e-2, 5e-3, 2.5e-3]) - 1.0) < 1e-6
    zero = sl.WeightedSemigroup(flow, sl.Weight(sl.Constant(0)))
    assert sl.weight_generator_fd(zero, 0.4, [1e-2, 5e-3, 2.5e-3]) == 0


def _ladder_callers():
    flow = sl.ode_flow(sl.Polynomial([0, -1]), 1e-12)
    wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
    return {
        "generator_fd": lambda ladder: sl.generator_fd(flow, 0.3, ladder),
        "weight_generator_fd": lambda ladder: sl.weight_generator_fd(wsg, 0.3, ladder),
        "generator_consistency": lambda ladder: sl.generator_consistency(
            wsg, sl.Polynomial([0, 0, 1]), sl.H2Norm(N=16), ladder
        ),
    }


@pytest.mark.parametrize("name", ["generator_fd", "weight_generator_fd", "generator_consistency"])
@pytest.mark.parametrize("ladder, message", [
    ([1e-3, 1e-2, 5e-2], "decreasing"),
    ([1e-2, 1e-2, 5e-3], "decreasing"),
    ([1e-2, 0.0], "positive"),
    ([], "positive"),
])
def test_ladders_share_one_check(name, ladder, message):
    with pytest.raises(ValueError, match=message):
        _ladder_callers()[name](ladder)


def test_apply_weighted():
    flow = radial_flow()
    f = sl.Polynomial([1, 0, 2])
    wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
    assert sl.apply_weighted(wsg, f, 0.35 - 0.2j, 0.0) == f.eval(0.35 - 0.2j)
    unweighted = sl.WeightedSemigroup(flow, sl.Weight(sl.Constant(0)))
    got = sl.apply_weighted(unweighted, sl.Identity(), 0.5, 1.0)
    assert abs(got - 0.5 * math.exp(-1)) < 1e-10
    ones = sl.WeightedSemigroup(flow, sl.Weight(sl.Constant(1)))
    assert abs(sl.apply_weighted(ones, sl.Constant(1), 0.2, 0.8) - math.exp(0.8)) < 1e-12


def test_weighted_z_derivative_examples():
    flow = radial_flow()
    f = sl.Polynomial([0, 0, 1])
    wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
    assert sl.weighted_z_derivative(wsg, f, 0.4, 0.0) == f.derivative().eval(0.4)
    unweighted = sl.WeightedSemigroup(flow, sl.Weight(sl.Constant(0)))
    got = sl.weighted_z_derivative(unweighted, sl.Identity(), 0.3, 0.9)
    assert abs(got - math.exp(-0.9)) < 1e-10
    ones = sl.WeightedSemigroup(flow, sl.Weight(sl.Constant(1)))
    got = sl.weighted_z_derivative(ones, sl.Identity(), 0.37 + 0.1j, 0.8)
    assert abs(got - 1.0) < 1e-10  # e^t * e^{-t}


def test_weighted_z_derivative_matches_centered_difference(rng):
    h = 1e-5
    flow = radial_flow()
    f = sl.Sum((sl.Polynomial([0, 0, 1]), sl.Exp(sl.Identity())))
    for weight in weight_corpus().values():
        wsg = sl.WeightedSemigroup(flow, weight)
        for z in random_disc_points(rng, 5, 0.7):
            t = rng.uniform(0.1, 1.0)
            exact = sl.weighted_z_derivative(wsg, f, z, t)
            fd = (
                sl.apply_weighted(wsg, f, z + h, t)
                - sl.apply_weighted(wsg, f, z - h, t)
            ) / (2 * h)
            assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))


def test_apply_generator():
    zero = sl.apply_generator(sl.Constant(0), sl.Constant(0), sl.Exp(sl.Identity()))
    assert zero.eval(0.3) == 0
    Af = sl.apply_generator(sl.Polynomial([0, -1]), sl.Constant(0), sl.Polynomial([0, 0, 1]))
    assert Af.eval(0.5) == pytest.approx(-0.5)
    Af2 = sl.apply_generator(sl.Polynomial([0, -1]), sl.Constant(1), sl.Constant(1))
    assert Af2.eval(0.2 + 0.1j) == pytest.approx(1.0)


def test_apply_generator_linearity(rng):
    G, g = sl.Polynomial([0, -1, 1]), sl.Identity()
    f1, f2 = sl.Exp(sl.Identity()), sl.Polynomial([1, 2, 3])
    A1 = sl.apply_generator(G, g, f1)
    A2 = sl.apply_generator(G, g, f2)
    A12 = sl.apply_generator(G, g, sl.Sum((f1, f2)))
    for z in random_disc_points(rng, 10, 0.8):
        assert abs(A12.eval(z) - A1.eval(z) - A2.eval(z)) < 1e-13


def test_generator_consistency_oracle():
    """(G=-z, g=0, f=z^2): residual norm equals |e^{-2t} - 1 + 2t| / t exactly."""
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Constant(0)))
    ladder = [0.1 * 2 ** (-k) for k in range(7)]
    table = sl.generator_consistency(wsg, sl.Polynomial([0, 0, 1]), sl.H2Norm(), ladder)
    for t, res, _ in table.rows:
        oracle = abs(math.exp(-2 * t) - 1 + 2 * t) / t
        assert res == pytest.approx(oracle, rel=0.05)
    ratios = table.ratios()
    assert all(0.3 <= q <= 0.7 for q in ratios)


def test_generator_consistency_trivial():
    trivial = sl.ode_flow(sl.Constant(0), 1e-12)
    wsg = sl.WeightedSemigroup(trivial, sl.Weight(sl.Constant(0)))
    table = sl.generator_consistency(wsg, sl.Polynomial([0, 0, 1]), sl.H2Norm(), [0.1, 0.05])
    assert table.max_residual() <= 1e-12


def test_generator_consistency_scalar_oracle():
    # g = 1, f = 1: residual is |(e^t - 1)/t - 1| ~ t/2
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Constant(1)))
    table = sl.generator_consistency(wsg, sl.Constant(1), sl.H2Norm(), [0.0125])
    t, res, _ = table.rows[0]
    assert res == pytest.approx((math.exp(t) - 1) / t - 1, rel=1e-6)
    assert res == pytest.approx(t / 2, rel=0.01)


def test_generator_consistency_bloch_norm():
    grid = sl.GridSpec((0.0, 0.3, 0.6), (1, 8, 8))
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Constant(0)))
    table = sl.generator_consistency(
        wsg, sl.Polynomial([0, 0, 1]), sl.BlochGridNorm(grid), [0.1 * 2 ** (-k) for k in range(4)]
    )
    ratios = table.ratios()
    assert all(0.3 <= q <= 0.7 for q in ratios)


def test_coboundary_similarity():
    flow = radial_flow()
    alpha = sl.Polynomial([1, -1])
    assert sl.coboundary_similarity_check(sl.Constant(2), flow, sl.Exp(sl.Identity()), 0.3, 0.7) < 1e-14
    assert sl.coboundary_similarity_check(alpha, flow, sl.Identity(), 0.5, math.log(2)) <= 1e-14
    assert sl.coboundary_similarity_check(alpha, flow, sl.Identity(), 0.4, 0.0) == 0.0


def test_coboundary_similarity_advances_once(monkeypatch):
    # both sides of the similarity read the same phi_t(z)
    calls = []
    advance = sl.OdeFlow._advance

    def counted(self, z, t):
        calls.append(z)
        return advance(self, z, t)

    monkeypatch.setattr(sl.OdeFlow, "_advance", counted)
    resid = sl.coboundary_similarity_check(
        sl.Polynomial([1, -1]), radial_flow(), sl.Exp(sl.Identity()), 0.3 + 0.1j, 0.7
    )
    assert resid <= 1e-14
    assert len(calls) == 1


def test_transfer_generator_identity_map():
    G, g = sl.Polynomial([0, -1]), sl.Identity()
    G1, g1 = sl.transfer_generator(sl.identity_map(), G, g)
    for z in (0.2, -0.3 + 0.4j):
        assert abs(G1.eval(z) - G.eval(z)) < 1e-14
        assert abs(g1.eval(z) - g.eval(z)) < 1e-14


def test_transfer_generator_cayley_constant():
    # half-plane translation field c pulls back to c (1-z)^2 / 2
    c = 0.7 - 0.2j
    G1, _ = sl.transfer_generator(sl.cayley_map(), sl.Constant(c), sl.Constant(0))
    for z in (0.0, 0.3, -0.2 + 0.5j):
        assert abs(G1.eval(z) - c * (1 - z) ** 2 / 2) < 1e-13


def test_transfer_generator_constant_weight():
    _, g1 = sl.transfer_generator(sl.cayley_map(), sl.Constant(1), sl.Constant(3j))
    assert g1.eval(0.4) == pytest.approx(3j)


def test_transfer_round_trip(rng):
    h = sl.cayley_map()
    h_inv = sl.mobius_map(1, -1, 1, 1)  # (z-1)/(z+1)
    G, g = sl.Polynomial([0, -1]), sl.Identity()
    G1, g1 = sl.transfer_generator(h, G, g)
    G2, g2 = sl.transfer_generator(h_inv, G1, g1)
    for z in random_disc_points(rng, 20, 0.6):
        assert abs(G2.eval_anywhere(z) - G.eval(z)) < 1e-10
        assert abs(g2.eval_anywhere(z) - g.eval(z)) < 1e-10


def test_transfer_conjugation_residual(rng):
    flow = radial_flow()
    wsg = sl.WeightedSemigroup(flow, sl.Weight(sl.Identity()))
    assert sl.transfer_conjugation_check(sl.identity_map(), wsg, sl.Identity(), 0.3, 0.5) < 1e-12
    assert sl.transfer_conjugation_check(sl.cayley_map(), wsg, sl.Identity(), 0.3, 0.0) < 1e-15
    newton_cayley = sl.ConformalMap(forward=sl.Mobius(1, 1, -1, 1))
    for z in random_disc_points(rng, 10, 0.7):
        resid = sl.transfer_conjugation_check(newton_cayley, wsg, sl.Identity(), z, 0.5)
        assert resid <= 1e-9


def test_transfer_conjugation_integrates_once_per_side(monkeypatch):
    # one integration for the orbit of z and one for the orbit of h^{-1}(h(z))
    from semiflow_lab import cocycles, flows

    calls = []
    integrate = flows._integrate

    def counted(rhs, y0, t_end, tol):
        calls.append(t_end)
        return integrate(rhs, y0, t_end, tol)

    monkeypatch.setattr(flows, "_integrate", counted)
    monkeypatch.setattr(cocycles, "_integrate", counted)
    wsg = sl.WeightedSemigroup(radial_flow(), sl.Weight(sl.Identity()))
    assert sl.transfer_conjugation_check(sl.cayley_map(), wsg, sl.Identity(), 0.3 + 0.1j, 0.5) <= 1e-12
    assert len(calls) == 2


def test_weight_json_round_trip():
    from semiflow_lab.cocycles import weight_from_json, weight_to_json

    for weight in weight_corpus().values():
        again = weight_from_json(weight_to_json(weight))
        assert type(again) is type(weight)
