import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow_lab as sl
from conftest import fn_corpus
from semiflow_lab.cli import random_disc_points


def test_eval_identity():
    assert sl.Identity().eval(0.3 + 0.1j) == 0.3 + 0.1j


def test_eval_polynomial():
    assert sl.Polynomial([0, 1, 1]).eval(0.5) == pytest.approx(0.75)


def test_eval_exp():
    got = sl.Exp(sl.Identity()).eval(0.2)
    series = sum(0.2 ** k / math.factorial(k) for k in range(21))
    assert abs(got - series) < 1e-12
    assert abs(got - 1.221402758) < 1e-9


def test_eval_outside_disc_raises():
    with pytest.raises(sl.DomainError):
        sl.Identity().eval(1.0)
    with pytest.raises(sl.DomainError):
        sl.Exp(sl.Identity()).eval(1.2 + 0.1j)


def test_quotient_guard():
    f = sl.Quotient(
        sl.Constant(1), sl.Polynomial([0.5, -1]), guards=((0.5 + 0j, 1e-9),)
    )
    assert f.eval(0.2) == pytest.approx(1.0 / 0.3)
    with pytest.raises(sl.SingularityError):
        f.eval(0.5)
    with pytest.raises(sl.SingularityError):
        f.eval(0.5 + 1e-12j)


def test_log_guard_and_value():
    f = sl.Log(sl.Polynomial([1, -1]))
    assert abs(f.eval(0.5) - cmath.log(0.5)) < 1e-15
    g = sl.Log(sl.Polynomial([0, 1]), guards=((0j, 1e-9),))
    with pytest.raises(sl.SingularityError):
        g.eval(0)


def test_mobius_requires_nonzero_determinant():
    with pytest.raises(ValueError):
        sl.Mobius(1, 2, 2, 4)


def test_derivative_polynomial():
    d = sl.Polynomial([1, 2, 3]).derivative()
    assert d.eval(0.5) == pytest.approx(2 + 6 * 0.5)


def test_derivative_exp_at_zero():
    assert sl.Exp(sl.Identity()).derivative().eval(0) == pytest.approx(1.0)


def test_derivative_chain_rule():
    f = sl.Compose(sl.Exp(sl.Identity()), sl.Polynomial([0, 0, 1]))
    assert abs(f.derivative().eval(0.5) - 2 * 0.5 * math.exp(0.25)) < 1e-12


def test_derivative_matches_centered_difference(rng):
    """Every corpus tree agrees with (f(z+h)-f(z-h))/(2h) to 1e-5(1+|f'|)."""
    h = 1e-5
    for f in fn_corpus():
        df = f.derivative()
        for z in random_disc_points(rng, 100, 0.8):
            exact = df.eval(z)
            fd = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
            assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))


def test_taylor_polynomial_exact():
    s = sl.taylor(sl.Polynomial([1, 0, 2]), N=4, r=0.5)
    expected = [1, 0, 2, 0, 0]
    assert len(s) == 5 and all(abs(c - e) < 1e-12 for c, e in zip(s, expected))


def test_taylor_exponential():
    s = sl.taylor(sl.Exp(sl.Identity()), N=6, r=0.5)
    for k, c in enumerate(s):
        assert abs(c - 1.0 / math.factorial(k)) < 1e-10


def test_taylor_zero_function():
    s = sl.taylor(sl.Constant(0), N=3, r=0.9)
    assert all(c == 0 for c in s)


def test_taylor_bad_radius():
    with pytest.raises(sl.DomainError):
        sl.taylor(sl.Identity(), N=3, r=1.0)


def test_taylor_round_trip_tail_bound(rng):
    """Truncation evaluated at |z| <= r/2 sits within the Cauchy tail bound."""
    N, r = 16, 0.8
    for f in (sl.Exp(sl.Identity()), sl.Mobius(0, 1, -0.5, 1), sl.Polynomial([1, -2, 0.5])):
        s = sl.taylor(f, N, r)
        big = max(
            abs(f.eval(r * cmath.exp(2j * math.pi * j / 512))) for j in range(512)
        )
        for z in random_disc_points(rng, 25, r / 2):
            q = abs(z) / r
            bound = 1.1 * big * q ** (N + 1) / (1 - q) + 1e-12
            assert abs(np.polyval(s[::-1], z) - f.eval(z)) <= bound


def norm_of(norm, f):
    """The norm object's reduction of its samples of a tree f."""
    return norm.reduce(norm.sample(f, f.derivative()))


def test_h2_norm_examples():
    norm = sl.H2Norm(N=1, r=0.5)
    assert norm_of(norm, sl.Constant(0)) == 0
    assert norm_of(norm, sl.Polynomial([3, 4])) == pytest.approx(5.0)
    assert norm_of(sl.H2Norm(N=40, r=0.5), sl.Mobius(0, 1, -0.5, 1)) == pytest.approx(
        math.sqrt(4.0 / 3.0), abs=1e-8
    )


def test_hp_norm_constant():
    assert norm_of(sl.HpNorm(p=2, r=0.9, M=256), sl.Constant(3 - 4j)) == pytest.approx(5.0)


def test_hp_norm_identity():
    assert norm_of(sl.HpNorm(p=2, r=0.5, M=256), sl.Identity()) == pytest.approx(0.5)


def test_hp_norm_p4_monomial():
    assert norm_of(sl.HpNorm(p=4, r=0.8, M=512), sl.Polynomial([0, 1])) == pytest.approx(0.8)


def test_hp_norm_monotone_in_radius():
    for f in (sl.Exp(sl.Identity()), sl.Polynomial([1, 1, 1]), sl.Mobius(0, 1, -0.5, 1)):
        vals = [norm_of(sl.HpNorm(p=2, r=r, M=256), f) for r in (0.3, 0.6, 0.9)]
        assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12


def test_bloch_norm_constant():
    grid = sl.GridSpec((0.0, 0.5), (1, 8))
    assert sl.bloch_norm_grid(sl.Constant(5), grid) == pytest.approx(5.0)


def test_bloch_norm_identity():
    grid = sl.GridSpec((0.0, 0.5), (1, 8))
    assert sl.bloch_norm_grid(sl.Identity(), grid) == pytest.approx(1.0)


def test_bloch_norm_square():
    # sup 2|z|(1-|z|^2) is reached at |z| = 1/sqrt(3)
    grid = sl.GridSpec((0.0, 0.3, 1 / math.sqrt(3), 0.8), (1, 16, 16, 16))
    got = sl.bloch_norm_grid(sl.Polynomial([0, 0, 1]), grid)
    assert got == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)))


def test_bloch_norm_monotone_under_refinement():
    grid = sl.GridSpec((0.0, 0.4, 0.7), (1, 8, 8), (0.1 + 0.2j,))
    for f in (sl.Polynomial([0, 0, 1]), sl.Exp(sl.Identity())):
        coarse = sl.bloch_norm_grid(f, grid)
        fine = sl.bloch_norm_grid(f, grid.refine())
        assert fine >= coarse - 1e-15


def test_grid_validation():
    with pytest.raises(ValueError):
        sl.GridSpec((0.5, 0.4), (8, 8))
    with pytest.raises(ValueError):
        sl.GridSpec((0.5,), (8,), (1.0 + 0j,))
    with pytest.raises(ValueError):
        sl.GridSpec((0.5,), (8, 8))


def test_refine_is_superset():
    grid = sl.GridSpec((0.0, 0.4, 0.7), (1, 8, 12), (0.1 + 0.2j,))
    pts = set(grid.sample_points().tolist())
    fine = set(grid.refine().sample_points().tolist())
    assert pts <= fine


def test_grid_points_are_the_scalar_formula_bit_for_bit():
    # m = 6, 12, 24, 96, 160 are among the counts where a complex division by m would move an ulp
    def circle(r, m):
        return [r * cmath.exp(2j * math.pi * j / m) for j in range(m)]

    grid = sl.GridSpec((0.0, 0.3, 0.5, 0.7, 0.85), (1, 12, 96, 160, 24), (0.1 + 0.2j,))
    circles = [z for r, m in ((0.3, 12), (0.5, 96), (0.7, 160), (0.85, 24)) for z in circle(r, m)]
    assert grid.sample_points().tolist() == [0j, *circles, 0.1 + 0.2j]
    # the norms sample their circle through the same formula: H2Norm(N = 40) has M = 160
    assert sl.H2Norm(40, 0.7).points.tolist() == circle(0.7, 160)
    assert sl.HpNorm(2.0, 0.5, 96).points.tolist() == circle(0.5, 96)
    assert sl.HpNorm(2.0, 0.5).points.tolist() == circle(0.5, 256)


def test_json_round_trip(rng):
    for f in fn_corpus():
        g = sl.fn_from_json(sl.json_form(f))
        assert g == f
        for z in random_disc_points(rng, 10, 0.7):
            try:
                expected = f.eval(z)
            except sl.SingularityError:
                continue
            assert abs(g.eval(z) - expected) < 1e-14


def test_log_ignores_legacy_base_key():
    node = {"op": "log", "arg": {"op": "poly", "coeffs": [[1, 0], [-0.5, 0]]}, "base": [0, 0]}
    f = sl.fn_from_json(node)
    assert f == sl.Log(sl.Polynomial([1, -0.5]))
    assert abs(f.eval(0.4) - cmath.log(0.8)) < 1e-15
    assert "base" not in sl.json_form(f)


def test_grid_json_round_trip():
    grid = sl.GridSpec((0.0, 0.4), (1, 8), (0.1 + 0.2j,))
    again = sl.GridSpec.from_json(sl.json_form(grid))
    assert again == grid and np.array_equal(again.sample_points(), grid.sample_points())


def test_taylor_series_rejects_nonfinite():
    with pytest.raises(sl.SingularityError):
        sl.taylor(lambda z: np.full(z.shape, complex("inf")), 0, 0.5)


# Jets: one pass over a tree gives its Taylor coefficients.  f.derivative()
# is a Derivative node that reads f's jet one order up, so its value is the
# jet's slope to the last bit; the references independent of the jet code are
# the Cauchy coefficients and the centred differences below.


def test_jet_matches_eval_and_derivative_tree(rng):
    zs = np.array(random_disc_points(rng, 400, 0.9))
    for f in fn_corpus():
        df = f.derivative()
        value, slope = f.jet(zs)
        assert isinstance(value, np.ndarray) and value.shape == slope.shape == zs.shape
        assert np.array_equal(value, f.eval(zs)) and np.array_equal(slope, df.eval(zs)), f
        for z in zs[:50]:
            value, slope = f.jet(complex(z))
            assert type(value) is complex and type(slope) is complex
            assert value == f.eval(z) and slope == df.eval(z), f


def test_jet_of_a_constant_is_spread_over_a_batch():
    value, slope = sl.Constant(2 - 1j).jet(np.zeros(3, dtype=complex))
    assert value.tolist() == [2 - 1j] * 3 and slope.tolist() == [0j] * 3
    assert sl.Sum(()).eval(np.zeros(2, dtype=complex)).shape == (2,)


def test_blaschke_eval_computes_no_derivative(monkeypatch):
    # order 0 of a jet computes no derivative: evaluating B must not touch B'
    def forbidden(*args):
        raise AssertionError("blaschke_derivative called by eval")

    monkeypatch.setattr(sl.blaschke, "blaschke_derivative", forbidden)
    f = sl.Product((sl.BlaschkeProduct((0.3, 0.5j)), sl.Identity()))
    f.eval(0.2)
    f.eval(np.array([0.1, -0.4j]))
    with pytest.raises(AssertionError):
        f.jet(0.2)


def same(a, b):
    """a and b equal at every point, a bare complex standing for its value at each."""
    return np.array_equal(*np.broadcast_arrays(a, b))


@pytest.mark.parametrize("order", range(4))
def test_every_jet_returns_its_order_plus_one_coefficients(order):
    # one shape at every order: the tuple of the order + 1 coefficients, whose
    # value is eval_anywhere's and whose first two are jet's, bit for bit
    trees = [*fn_corpus(), sl.Derivative(sl.Exp(sl.Identity()), 2), sl.Sum(()), sl.Product(())]
    for z in (0.3 - 0.1j, np.array([0.1 + 0.2j, -0.3, 0.4j, -0.2 - 0.5j, 0.6])):
        for f in trees:
            coeffs = f._jet(z, order)
            assert type(coeffs) is tuple and len(coeffs) == order + 1, (f, order)
            assert same(coeffs[0], f.eval_anywhere(z)), (f, order)
            assert all(same(c, j) for c, j in zip(coeffs, f.jet(z))), (f, order)


disc_points = st.builds(
    lambda r, a: r * cmath.exp(1j * a), st.floats(0.0, 0.85), st.floats(0.0, 2 * math.pi)
)
layouts = st.one_of(disc_points, st.lists(disc_points, min_size=1, max_size=5).map(np.array))
corpus_index = st.sampled_from(range(len(fn_corpus())))


@settings(max_examples=80, deadline=None)
@given(layouts, corpus_index, corpus_index, st.sampled_from([-2, 0, 1, 2, 3]))
def test_first_coefficient_is_the_written_out_rule(z, i, j, k):
    # the series helpers' first coefficient against the product, chain and
    # power rules written out here, for a point and for a batch; each product
    # keeps its operand order, since numpy's complex multiply is not
    # commutative to the last bit
    f, g = fn_corpus()[i], fn_corpus()[j]
    s0, s1 = f._jet(z, 1)
    v0, v1 = g._jet(z, 1)
    assert same(sl.Product((f, g))._jet(z, 1)[1], s0 * v1 + s1 * v0)
    try:
        f.jet(g.eval_anywhere(z))  # the outer tree at the inner's values
    except sl.SingularityError:
        pass
    else:
        u0, u1 = g._jet(z, 1)
        assert same(sl.Compose(f, g)._jet(z, 1)[1], f._jet(u0, 1)[1] * u1)
    if np.all(abs(s0) > 0.01):  # a base whose negative powers stay finite
        assert same(sl.Power(f, k)._jet(z, 1)[1], complex(k) * s0 ** (k - 1) * s1)


@settings(max_examples=60, deadline=None)
@given(disc_points, st.sampled_from(range(len(fn_corpus()))))
def test_jet_matches_centered_difference(z, index):
    f = fn_corpus()[index]
    h = 1e-5
    _, slope = f.jet(z)
    for step in (h, 1j * h):  # an analytic f' is the same difference in every direction
        fd = (f.eval(z + step) - f.eval(z - step)) / (2 * step)
        assert abs(slope - fd) <= 1e-5 * (1 + abs(slope))


@settings(max_examples=60, deadline=None)
@given(disc_points, st.sampled_from(range(len(fn_corpus()))), st.sampled_from([1, 2]))
def test_higher_derivatives_match_centered_difference(z, index, n):
    # f'' (n = 1) and f''' (n = 2): the slope of the derivative node one order
    # up against centred differences of the slope one order down
    lower = fn_corpus()[index]
    for _ in range(n - 1):
        lower = lower.derivative()
    h = 1e-5
    _, slope = lower.derivative().jet(z)
    for step in (h, 1j * h):
        fd = (lower.jet(z + step)[1] - lower.jet(z - step)[1]) / (2 * step)
        assert abs(slope - fd) <= 1e-5 * (1 + abs(slope))


def test_derivative_chains_match_cauchy_coefficients_at_the_origin():
    # f^(k)(0)/k!, k = 0..3, read from chains of derivative nodes, against the
    # FFT Cauchy coefficients on |z| = 1/2; tolerance 1e-10 relative to the
    # largest of the five.  Each node's jet slope is checked one order up.
    for f in fn_corpus():
        want = sl.taylor(f, 8, 0.5)[:5]
        scale = max(abs(c) for c in want)
        node = f
        for k in range(4):
            value, slope = node.jet(0j)
            assert value == node.eval(0)
            assert abs(value / math.factorial(k) - want[k]) <= 1e-10 * scale, (f, k)
            assert abs(slope / math.factorial(k + 1) - want[k + 1]) <= 1e-10 * scale, (f, k)
            node = node.derivative()
        assert node == sl.Derivative(f, 4)  # a chain stays one node


def test_power_of_a_vanishing_base_has_finite_higher_derivatives():
    # (z - 1/2)^3: the jet never divides by the base, which vanishes at 1/2
    f = sl.Power(sl.Polynomial([-0.5, 1]), 3)
    zs = np.array([0.5, 0.1j, -0.3])
    second, third = f.derivative().derivative(), f.derivative().derivative().derivative()
    assert np.allclose(second.eval(zs), 6 * (zs - 0.5), rtol=0, atol=1e-15)
    assert second.eval(zs)[0] == 0
    assert np.allclose(third.eval(zs), 6, rtol=0, atol=1e-15)
    assert second.jet(0.5) == (0j, 6 + 0j)


def test_blaschke_derivative_op(rng):
    B = sl.BlaschkeProduct((0, 0.3, -0.4 + 0.2j, 0.5j), theta=0.7)
    node = {**sl.json_form(B), "op": "blaschke_derivative"}
    f = sl.fn_from_json(node)
    assert f == sl.Derivative(B) == B.derivative()
    assert sl.json_form(f) == node and sl.fn_from_json(sl.json_form(f)) == f
    zs = np.array(random_disc_points(rng, 64, 0.9))
    assert np.array_equal(f.eval(zs), sl.blaschke_derivative(B, zs))
    for z in zs[:8].tolist():
        assert f.eval(z) == sl.blaschke_derivative(B, z)
    # B'' from the product of the factors' series, against B' by differences
    h = 1e-5
    for z in zs[:20].tolist():
        _, second = f.jet(z)
        for step in (h, 1j * h):
            fd = (sl.blaschke_derivative(B, z + step) - sl.blaschke_derivative(B, z - step)) / (2 * step)
            assert abs(second - fd) <= 1e-5 * (1 + abs(second))


def test_only_a_blaschke_derivative_has_a_json_op():
    with pytest.raises(ValueError):
        sl.json_form(sl.Identity().derivative())
    with pytest.raises(ValueError):
        sl.json_form(sl.BlaschkeProduct((0.3,)).derivative().derivative())
