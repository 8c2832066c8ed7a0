import cmath
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semiflow_lab as sl
from semiflow_lab import blaschke, cli
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
    zs = [z for z in zs if all(sl.pseudo_distance(z, a) >= 1e-2 for a in zeros)]  # the points off the zeros
    assume(zs)
    B = sl.BlaschkeProduct(zeros, theta)
    batch = sl.blaschke_derivative(B, np.array(zs))
    for z, got in zip(zs, batch):
        sizes = [(1.0 - abs(a) ** 2) / abs(1.0 - a.conjugate() * z) ** 2 for a in B.zeros]
        scale = sum(size * math.prod(sl.pseudo_distance(z, b) for j, b in enumerate(B.zeros) if j != k)
                    for k, size in enumerate(sizes))
        want = B._series().jet(z)[1]
        for value in (got, sl.blaschke_derivative(B, z)):
            assert abs(value - want) <= 1e-12 * scale


@settings(max_examples=80, deadline=None)
@given(st.lists(zero_points, max_size=8), st.floats(0.01, 2 * math.pi - 0.01),
       st.lists(zero_points, min_size=1, max_size=6))
def test_jet_is_the_value_and_the_derivative_bit_for_bit(zeros, theta, zs):
    # the leaf's jet walks the factors once for B and B'; it is the pair of the two separate walks
    # bit for bit, at a point and on a batch, with a phase, a zero at 0 and points at the zeros
    B = sl.BlaschkeProduct([0j, *zeros], theta)
    zs = np.array([*zs, *B.zeros])
    value, slope = B.jet(zs)
    assert np.array_equal(value, sl.blaschke_eval(B, zs)) and np.array_equal(slope, sl.blaschke_derivative(B, zs))
    for z in zs.tolist():
        assert B.jet(z) == (sl.blaschke_eval(B, z), sl.blaschke_derivative(B, z))


def test_the_jet_keeps_the_disc_guard_of_eval():
    # at |z| = 1 - 2e-9 a zero 1e-15 from the circle gives |b(z)| = 1 in rounding; the jet's one walk
    # refuses the value there as blaschke_eval does, naming the point, alone or in a batch
    B = sl.BlaschkeProduct((1.0 - 1e-15,), theta=0.4)
    z = (1.0 - 2e-9) * cmath.exp(0.5j)
    message = rf"^finite Blaschke product left the disc at {re.escape(str(z))}$"
    for evaluate in (sl.blaschke_eval, lambda B, z: B.jet(z)):
        for at in (z, np.array([0.1, z, z])):
            with pytest.raises(sl.DomainError, match=message):
                evaluate(B, at)
    assert abs(sl.blaschke_derivative(B, z)) > 0  # B' alone carries no guard


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
        zs = blaschke._disc_points([a], alpha, 5, n_angles)[0]
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
def test_gpv_batch_is_the_per_disc_evaluation_bit_for_bit(blaschke_passes, zeros, marked):
    # every marked disc is a row of one (discs, points) batch, evaluated by one forward pass; no disc, no pass
    B = sl.BlaschkeProduct(zeros)
    rep = sl.gpv_bound_check(B, marked=marked, alpha=0.1, samples_per_disc=80)
    marked = range(len(zeros)) if marked is None else marked
    assert blaschke_passes == ([(len(zeros), (len(marked), 81), True)] if marked else [])
    want = gpv_rows_one_disc_a_call(B, marked, 0.1, 80)
    assert rep.per_zero == want
    assert rep.beta_hat == min((r.beta_local for r in want), default=0.0)


@st.composite
def truncated_families(draw):
    """A geometric family (count 1-20, ratio 0.2-0.9), stability counts with repeats, below and above
    the family's own, none putting a zero at 1.0, an alpha and a disc sampling."""
    ratio = draw(st.floats(0.2, 0.9))
    deepest = max(k for k in range(1, 31) if 1.0 - ratio ** k < 1.0)
    count = draw(st.integers(1, min(20, deepest)))
    counts = draw(st.lists(st.integers(1, deepest), min_size=1, max_size=6))
    counts += draw(st.lists(st.sampled_from(counts), max_size=3))  # repeats
    return count, ratio, counts, draw(st.floats(0.01, 0.6)), draw(st.integers(1, 120))


@settings(max_examples=60, deadline=None)
@given(truncated_families())
def test_the_truncations_of_one_pass_are_separate_checks_field_for_field(family):
    # one pass over the longest truncation's discs gives each truncation the report of its own
    # gpv_bound_check, and gpv's main report and beta-hat-stable factor read those reports
    count, ratio, counts, alpha, samples = family
    separate = {k: sl.gpv_bound_check(sl.BlaschkeProduct(sl.radial_zeros(k, ratio)), alpha=alpha,
                                      samples_per_disc=samples) for k in [count, *counts]}
    longest = sl.BlaschkeProduct(sl.radial_zeros(max(separate), ratio))
    assert sl.gpv_truncations(longest, counts, alpha=alpha, samples_per_disc=samples) == [separate[k] for k in counts]
    with pytest.raises(ValueError, match="must lie in"):  # a truncation longer than the product
        sl.gpv_truncations(longest, [len(longest.zeros) + 1])
    config = {"family": {"kind": "geometric", "count": count, "ratio": ratio}, "alpha": alpha,
              "samples_per_disc": samples, "stability_counts": counts}
    verdicts, tables, extra = cli.run_gpv(config, 0)
    assert extra == {"gpv_report": sl.json_form(separate[count])}
    betas = [separate[k].beta_hat for k in counts]
    assert verdicts[-1][:2] == ("beta-hat-stable", max(betas) / min(betas) < 2.0)
    assert verdicts[-1][2] == max(betas) / min(betas)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(zero_points, zero_points.map(lambda a: 0.999 * a + 0.001)), min_size=1, max_size=9),
       st.floats(0.0, 2 * math.pi), st.data())
def test_truncations_of_any_product_are_separate_checks_or_the_first_refusal(zeros, theta, data):
    # listed zeros in any order, with a phase: each truncation's report is its own gpv_bound_check's,
    # and a truncation that is refused refuses the whole call, the first one in the order of the counts
    counts = data.draw(st.lists(st.integers(0, len(zeros)), min_size=1, max_size=5))
    B = sl.BlaschkeProduct(zeros, theta)
    separate = []
    for k in counts:
        try:
            separate.append(sl.gpv_bound_check(sl.BlaschkeProduct(zeros[:k], theta), alpha=0.2, samples_per_disc=8))
        except sl.HypothesisError as refusal:
            with pytest.raises(sl.HypothesisError, match=f"^{re.escape(str(refusal))}$"):
                sl.gpv_truncations(B, counts, alpha=0.2, samples_per_disc=8)
            return
    assert sl.gpv_truncations(B, counts, alpha=0.2, samples_per_disc=8) == separate


near_circle_points = st.builds(lambda k, t: (1.0 - 10.0 ** -k) * cmath.exp(1j * t),
                               st.integers(1, 12), st.floats(0.0, 2 * math.pi))


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(zero_points, near_circle_points), min_size=1, max_size=8), st.booleans(), st.data())
def test_rho_rows_are_the_scalar_products_and_least_distances(zeros, repeat, data):
    # the certificates read their products, multiplicity test and least rho off one array row per zero;
    # each agrees with math.prod / min over that row's entries, its own entry dropped, to 1e-12 relative
    # (test_pseudo_distance_takes_a_point_and_an_array checks the array rho against the scalar one)
    zeros = [complex(a) for a in zeros + zeros[:1] * repeat]  # repeat: a zero twice
    marked = data.draw(st.lists(st.sampled_from(range(len(zeros))), max_size=10))  # a zero may be marked twice
    rows = [sl.pseudo_distance(a, np.array(zeros)).tolist() for a in zeros]
    want = [math.prod(x for j, x in enumerate(row) if j != n) for n, row in enumerate(rows)]
    B = sl.BlaschkeProduct(zeros)
    if any(x < 1e-12 for i, row in enumerate(rows) for x in row[i + 1:]):
        with pytest.raises(sl.MultiplicityError):
            sl.interpolation_delta(B)
    else:
        rep = sl.interpolation_delta(B)
        assert all(map(_close, rep.per_zero, want)) and rep.delta == min(rep.per_zero)
    refused = [n for n in marked if want[n] < sys.float_info.min]  # 0 or subnormal
    if refused:
        vanishing = any(x == 0.0 for n in refused for j, x in enumerate(rows[n]) if j != n)
        with pytest.raises(sl.HypothesisError, match=r"\(delta = 0\)" if vanishing else "below the double range"):
            sl.gpv_bound_check(B, marked=marked, samples_per_disc=8)
        return
    rep = sl.gpv_bound_check(B, marked=marked, samples_per_disc=8)
    assert all(_close(r.deflated, want[n]) for r, n in zip(rep.per_zero, marked))
    least = min((rows[m][q] for k, m in enumerate(marked) for q in marked[k + 1:]), default=None)
    if least is None:
        assert rep.min_pairwise_rho is None
    else:
        assert _close(rep.min_pairwise_rho, least)


def test_pseudo_distance_takes_a_point_and_an_array():
    zs = np.array([0.0, 0.5, -0.3 + 0.4j, 0.999j])
    for z in (0.2 - 0.1j, 0.5):
        row = sl.pseudo_distance(z, zs)
        assert row.shape == (4,) and row.tolist() == pytest.approx([sl.pseudo_distance(z, w) for w in zs], rel=1e-15)
        assert sl.pseudo_distance(zs, z).tolist() == pytest.approx(row.tolist(), rel=1e-15)


LISTED_FAMILY = [0.5 + k * 1e-9 for k in range(60)]  # separated (least rho 1.3e-9), delta 10^-460.26


def test_a_deflated_product_below_the_double_range_is_not_delta_zero():
    # every factor is positive, so delta > 0; its product underflows, and the refusal gives its log10
    B = sl.BlaschkeProduct(LISTED_FAMILY)
    least = min(sl.pseudo_distance(a, b) for a, b in zip(LISTED_FAMILY, LISTED_FAMILY[1:]))
    assert least == pytest.approx(1.33e-9, rel=1e-2)
    for check in (sl.interpolation_delta, sl.gpv_bound_check):
        with pytest.raises(sl.HypothesisError, match=r"^deflated product below the double range "
                                                     r"\(log10 delta = -460\.26\)$"):
            check(B)


@pytest.mark.parametrize("count, log10", [(40, "-310.66"), (41, "-318.23")])
def test_a_subnormal_deflated_product_is_refused_with_its_log10(count, log10):
    # the first count zeros of the listed family: their least product is subnormal (2.2e-311 and 5.9e-319),
    # which keeps only some of its digits, so it is refused like a product that underflows to 0
    B = sl.BlaschkeProduct(LISTED_FAMILY[:count])
    for check in (sl.interpolation_delta, sl.gpv_bound_check):
        with pytest.raises(sl.HypothesisError, match=rf"^deflated product below the double range "
                                                     rf"\(log10 delta = {log10}\)$"):
            check(B)


def test_the_least_normal_deflated_product_is_reported():
    # 39 zeros of the listed family: delta = 8.3e-304 is a normal double, and is reported as it is
    B = sl.BlaschkeProduct(LISTED_FAMILY[:39])
    for check in (sl.interpolation_delta, sl.gpv_bound_check):
        assert check(B).delta == pytest.approx(8.2768e-304, rel=1e-4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(zero_points, near_circle_points), min_size=1, max_size=6),
       st.floats(1e-3, 0.999), st.integers(1, 6), st.integers(1, 40))
def test_disc_batch_rows_are_the_single_disc_samples_bit_for_bit(centers, radius, n_radii, n_angles):
    batch = blaschke._disc_points(centers, radius, n_radii, n_angles)
    assert batch.shape == (len(centers), 1 + n_radii * n_angles)
    for row, a in zip(batch, centers):
        assert row.tobytes() == blaschke._disc_points([a], radius, n_radii, n_angles)[0].tobytes()


def test_disc_points_are_the_mobius_images_of_the_rho_circles():
    # against the Python complex arithmetic of u -> (a - u)/(1 - conj(a) u), to a few ulps
    for a in (0.6, 0.3 - 0.5j, 0.0, 1.0 - 2.0 ** -20):
        pts = blaschke._disc_points([a], 0.2, 5, 16)[0]
        want = [a] + [(a - u) / (1.0 - a.conjugate() * u) for k in range(1, 6)
                      for u in (0.2 * k / 5 * cmath.exp(2j * math.pi * j / 16) for j in range(16))]
        assert all(abs(p - w) <= 1e-15 * abs(w) for p, w in zip(pts.tolist(), want))


def test_pseudo_disc_sampling():
    pts = blaschke._disc_points([0.6], 0.2, 5, 16)[0]
    assert pts[0] == 0.6
    for p in pts:
        assert sl.pseudo_distance(p, 0.6) <= 0.2 + 1e-12
        assert abs(p) < 1.0


def test_blaschke_json_round_trip():
    B = sl.BlaschkeProduct((0.3, -0.4 + 0.2j), theta=1.1)
    again = sl.BlaschkeProduct.from_json(sl.json_form(B))
    assert again == B
