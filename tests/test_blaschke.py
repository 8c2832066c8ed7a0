import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semiflow_lab as sl
from semiflow_lab import blaschke
from semiflow_lab.cli import random_disc_points


def product_corpus():
    return [
        sl.BlaschkeProduct((0.5,)),
        sl.BlaschkeProduct((0.0, 0.5)),
        sl.BlaschkeProduct((0.3, -0.4 + 0.2j, 0.5j), theta=0.7),
        sl.BlaschkeProduct(sl.radial_zeros(10)),
    ]


def test_b_factor_zero_convention():
    # the a = 0 factor degenerates to z itself
    for z in (0.3, -0.2 + 0.4j):
        assert sl.b_factor(0, z) == complex(z)


def test_b_factor_vanishes_at_its_zero():
    a = 0.3 - 0.6j
    assert abs(sl.b_factor(a, a)) < 1e-15


def test_b_factor_half():
    assert sl.b_factor(0.5, 0) == pytest.approx(0.5)


def test_blaschke_empty_product():
    B = sl.BlaschkeProduct(())
    assert sl.blaschke_eval(B, 0.3 + 0.1j) == 1.0


def test_blaschke_single_zero_at_origin():
    B = sl.BlaschkeProduct((0.5,))
    assert sl.blaschke_eval(B, 0) == pytest.approx(0.5)


def test_blaschke_vanishes_at_zeros():
    for B in product_corpus():
        for a in B.zeros:
            assert abs(sl.blaschke_eval(B, a)) < 1e-12


def test_blaschke_zero_outside_disc_rejected():
    with pytest.raises(ValueError):
        sl.BlaschkeProduct((1.0,))


def test_interior_bound(rng):
    for B in product_corpus():
        for z in random_disc_points(rng, 200, 0.95):
            assert abs(sl.blaschke_eval(B, z)) < 1.0


def test_boundary_modulus():
    """Finite products are inner: |B| = 1 on the circle."""
    for B in product_corpus():
        for j in range(64):
            z = cmath.exp(2j * math.pi * j / 64)
            assert abs(abs(sl.blaschke_eval(B, z)) - 1.0) <= 1e-10


def test_derivative_simple_cases():
    assert sl.blaschke_derivative(sl.BlaschkeProduct((0.0,)), 0.7) == pytest.approx(1.0)
    B2 = sl.BlaschkeProduct((0.0, 0.0))
    assert sl.blaschke_derivative(B2, 0.3) == pytest.approx(0.6)
    B = sl.BlaschkeProduct((0.5,))
    assert sl.blaschke_derivative(B, 0) == pytest.approx(-0.75)


def test_derivative_matches_centered_difference(rng):
    # h = 1e-6 keeps the h^2 B''' truncation term below 1e-5 relative even at
    # the deepest zeros, where third derivatives scale like (1-|a|)^-2.
    h = 1e-6
    for B in product_corpus():
        pts = random_disc_points(rng, 100, 0.8) + list(B.zeros)
        for z in pts:
            exact = sl.blaschke_derivative(B, z)
            fd = (sl.blaschke_eval(B, z + h) - sl.blaschke_eval(B, z - h)) / (2 * h)
            assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))


def test_derivative_of_an_empty_product_is_zero_on_the_batch():
    B = sl.BlaschkeProduct((), theta=0.4)
    zs = np.full((3, 4), 0.2 - 0.1j)
    got = sl.blaschke_derivative(B, zs)
    assert got.shape == (3, 4) and got.dtype == complex and not got.any()
    assert sl.blaschke_derivative(B, 0.2 - 0.1j) == 0


def test_derivative_at_a_zero_is_its_factor_slope_times_the_others():
    # at a zero a_k every other term holds b_k(a_k) = 0, so B'(a_k) = e^{i theta} b'_k(a_k) prod_{j != k} b_j(a_k)
    for B in product_corpus():
        want = []
        for k, a in enumerate(B.zeros):
            slope = 1.0 if a == 0 else (abs(a) / a) * (abs(a) ** 2 - 1.0) / (1.0 - a.conjugate() * a) ** 2
            others = math.prod(sl.b_factor(b, a) for j, b in enumerate(B.zeros) if j != k)
            want.append(B.phase * slope * others)
        got = sl.blaschke_derivative(B, np.array(B.zeros))
        for k, a in enumerate(B.zeros):
            for value in (got[k], sl.blaschke_derivative(B, a)):
                assert abs(value - want[k]) <= 1e-14 * abs(want[k])


zero_points = st.one_of(
    st.just(0j),
    st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.999), st.floats(0.0, 2 * math.pi)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(zero_points, min_size=1, max_size=8), st.booleans(), st.floats(0.0, 2 * math.pi),
       st.lists(zero_points, min_size=1, max_size=6))
def test_derivative_is_the_mobius_factor_product_rule(zeros, repeat, theta, zs):
    # the forward rule against the jet of the product of Mobius factors, an independent formula for
    # each factor's slope, to 1e-12 of the size sum_k |b'_k(z)| prod_{j != k} |b_j(z)| of the terms
    zeros = zeros + zeros[-1:] * repeat  # a repeated zero
    assume(all(sl.pseudo_distance(z, a) >= 1e-2 for z in zs for a in zeros))
    B = sl.BlaschkeProduct(zeros, theta)
    batch = sl.blaschke_derivative(B, np.array(zs))
    for z, got in zip(zs, batch):
        sizes = [(1.0 - abs(a) ** 2) / abs(1.0 - a.conjugate() * z) ** 2 for a in B.zeros]
        scale = sum(size * math.prod(sl.pseudo_distance(z, b) for j, b in enumerate(B.zeros) if j != k)
                    for k, size in enumerate(sizes))
        want = B._series().jet(z)[1]
        for value in (got, sl.blaschke_derivative(B, z)):
            assert abs(value - want) <= 1e-12 * scale


def test_pseudo_distance_basics():
    assert sl.pseudo_distance(0.3 + 0.2j, 0.3 + 0.2j) == 0
    assert sl.pseudo_distance(0, 0.4 - 0.3j) == pytest.approx(0.5)
    assert sl.pseudo_distance(0.5, -0.5) == pytest.approx(0.8)


def test_pseudo_distance_metric(rng):
    pts = random_disc_points(rng, 15, 0.9)
    for x in pts:
        for y in pts:
            assert sl.pseudo_distance(x, y) == pytest.approx(sl.pseudo_distance(y, x), abs=1e-15)
            for w in pts[:5]:
                lhs = sl.pseudo_distance(x, y)
                rhs = sl.pseudo_distance(x, w) + sl.pseudo_distance(w, y)
                assert lhs <= rhs + 1e-12


def test_interpolation_single_zero():
    rep = sl.interpolation_delta(sl.BlaschkeProduct((0.5,)))
    assert rep.delta == 1.0


def test_interpolation_two_zeros():
    rep = sl.interpolation_delta(sl.BlaschkeProduct((0.0, 0.5)))
    assert rep.delta == pytest.approx(0.5)


def test_interpolation_geometric_sequence():
    rep = sl.interpolation_delta(sl.BlaschkeProduct(sl.radial_zeros(12)))
    assert rep.delta > 0
    assert rep.geometric_ratio == pytest.approx(0.5)


def test_interpolation_rejects_multiplicity():
    with pytest.raises(sl.MultiplicityError):
        sl.interpolation_delta(sl.BlaschkeProduct((0.5, 0.5)))


def test_gpv_single_zero():
    B = sl.BlaschkeProduct((0.5,))
    rep = sl.gpv_bound_check(B, marked=[0], alpha=0.3)
    assert rep.disjoint and rep.min_pairwise_rho is None  # no pair to measure
    assert rep.beta_hat > 0


def test_gpv_geometric_sequence():
    B = sl.BlaschkeProduct(sl.radial_zeros(10))
    rep = sl.gpv_bound_check(B, alpha=0.1)
    assert rep.disjoint
    assert rep.min_pairwise_rho >= 1.0 / 3.0
    assert rep.beta_hat > 0


def test_gpv_overlapping_discs_report_not_error():
    B = sl.BlaschkeProduct(sl.radial_zeros(10))
    rep = sl.gpv_bound_check(B, alpha=0.6)
    assert not rep.disjoint
    assert rep.beta_hat >= 0  # report still returned


def test_gpv_consecutive_distance_oracle():
    # rho(1-x, 1-x/2) = 1/(3-x) by direct algebra
    zeros = sl.radial_zeros(12)
    for n in range(len(zeros) - 1):
        x = 2.0 ** (-(n + 1))
        got = sl.pseudo_distance(zeros[n], zeros[n + 1])
        assert got == pytest.approx(1.0 / (3.0 - x), rel=1e-12)


def test_gpv_beta_stability_across_truncation():
    betas = []
    for count in (8, 10, 12, 14):
        rep = sl.gpv_bound_check(sl.BlaschkeProduct(sl.radial_zeros(count)), alpha=0.1)
        betas.append(rep.beta_hat)
    assert max(betas) / min(betas) < 2.0


def test_gpv_zero_delta_raises():
    B = sl.BlaschkeProduct((0.5, 0.5))  # repeated zero kills the deflated product
    with pytest.raises(sl.HypothesisError):
        sl.gpv_bound_check(B, marked=[0], alpha=0.1)


def gpv_rows_one_disc_a_call(B, marked, alpha, samples_per_disc):
    """The GpvRow of each marked zero, its disc evaluated by a blaschke_derivative call of its own."""
    per_zero = sl.interpolation_delta(B).per_zero
    n_angles = max(8, samples_per_disc // 5)
    rows = []
    for i in marked:
        a = B.zeros[i]
        zs = np.array(sl.PseudoDisc(a, alpha).sample(n_radii=5, n_angles=n_angles))
        beta = float(np.min(np.abs(sl.blaschke_derivative(B, zs)) * (1.0 - abs(a))))
        rows.append(blaschke.GpvRow(index=i, center=a, deflated=per_zero[i], beta_local=beta))
    return tuple(rows)


@pytest.mark.parametrize("zeros, marked", [
    (sl.radial_zeros(12), None),
    ((0.0, 0.5 + 0.3j, 0.5 - 0.3j, -0.6, -0.2j), None),  # the origin and a conjugate pair
    ((0.4 - 0.2j,), None),
    (sl.radial_zeros(12), []),
    (sl.radial_zeros(12), [0, 3, 4, 7, 11]),
    (sl.radial_zeros(40), None),
], ids=["geometric", "listed", "one-zero", "none-marked", "marked-subset", "forty-zeros"])
def test_gpv_batch_is_the_per_disc_evaluation_bit_for_bit(monkeypatch, zeros, marked):
    # every marked disc is a row of one (discs, points) batch, evaluated by one call; no disc, no call
    calls = []
    derivative = blaschke.blaschke_derivative
    monkeypatch.setattr(blaschke, "blaschke_derivative", lambda B, z: calls.append(z.shape) or derivative(B, z))
    B = sl.BlaschkeProduct(zeros)
    rep = sl.gpv_bound_check(B, marked=marked, alpha=0.1, samples_per_disc=80)
    marked = range(len(zeros)) if marked is None else marked
    want = gpv_rows_one_disc_a_call(B, marked, 0.1, 80)
    assert rep.per_zero == want
    assert rep.beta_hat == min((r.beta_local for r in want), default=0.0)
    assert calls == ([(len(marked), 81)] if marked else [])


def test_pseudo_disc_sampling():
    disc = sl.PseudoDisc(0.6, 0.2)
    pts = disc.sample()
    assert pts[0] == 0.6
    for p in pts:
        assert sl.pseudo_distance(p, 0.6) <= 0.2 + 1e-12
        assert abs(p) < 1.0


def test_blaschke_json_round_trip():
    B = sl.BlaschkeProduct((0.3, -0.4 + 0.2j), theta=1.1)
    again = sl.BlaschkeProduct.from_json(sl.json_form(B))
    assert again == B
