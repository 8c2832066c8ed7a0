import cmath
import math

import pytest

import semiflow_lab as sl
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
