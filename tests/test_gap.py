import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semiflow_lab as sl
from semiflow_lab import blaschke
from conftest import group_fixed_points, replaced


def radial_flow(tol=1e-12):
    return sl.ode_flow(sl.Polynomial([0, -1]), tol)


@pytest.fixture(scope="module")
def case1():
    return sl.construct_case1(radial_flow(), 1.0, N=6, t_start=0.5)


@pytest.mark.parametrize("gamma0", [2j, 0.0])
def test_case1_rejects_non_unimodular_base_point(gamma0):
    with pytest.raises(sl.DomainError):
        sl.construct_case1(radial_flow(), gamma0, N=2)


def test_case1_levels_match_closed_form(case1):
    # w_n recorded by the integrator agrees with e^{-t_n} r_n
    for lv in case1.levels:
        assert abs(lv.w - math.exp(-lv.t) * lv.r) < 1e-10


def test_case1_interleaving_and_margins(case1):
    case1.validate()
    prev = None
    for lv in case1.levels:
        assert abs(lv.w) < lv.r
        if prev is not None:
            assert lv.t < prev.t / 2
            assert abs(lv.w) > prev.r
        prev = lv
    for m in case1.geom_margins():
        assert m["first"] >= 1e-3
        if m["second"] is not None:
            assert m["second"] >= 1e-3


def test_case1_single_level():
    gc = sl.construct_case1(radial_flow(), 1.0, N=1, t_start=0.5)
    assert len(gc.levels) == 1
    lv = gc.levels[0]
    assert 1 - lv.r < 0.5 * (1 - abs(lv.w))


def test_case1_rotation_is_case_mismatch():
    rot = sl.koenigs_flow(sl.identity_map(), 1j, "spiral")
    with pytest.raises(sl.CaseMismatch):
        sl.construct_case1(rot, 1.0, N=3)


def test_case1_automorphism_is_case_mismatch():
    with pytest.raises(sl.CaseMismatch):
        sl.construct_case1(sl.Automorphism(kind="elliptic", omega=1.0), 1.0, N=3)


@pytest.mark.parametrize("G", [[0.5, 0, -0.5], [0.5j, 1j, 0.5j], [0]], ids=["hyperbolic", "parabolic", "trivial"])
def test_case1_refuses_every_automorphism_group_up_front(integrations, G):
    # read off the generator a + i beta z - conj(a) z^2, before any boundary orbit
    with pytest.raises(sl.CaseMismatch, match="automorphism group or the trivial flow"):
        sl.construct_case1(sl.ode_flow(sl.Polynomial(G)), 1.0, N=3)
    assert integrations == []


def test_case2_refuses_the_trivial_flow():
    with pytest.raises(sl.CaseMismatch, match="trivial flow G = 0"):
        sl.construct_case2(sl.ode_flow(sl.Constant(0)), N=3)


def test_case1_depth_cap():
    with pytest.raises(sl.DepthExceeded):
        sl.construct_case1(radial_flow(), 1.0, N=25)


class StartRecorder(sl.OdeFlow):
    """The radial flow, recording the modulus of every start point it advances."""

    def __init__(self, starts):
        super().__init__(sl.Polynomial([0, -1]), 1e-12)
        object.__setattr__(self, "starts", starts)

    def _advance(self, z, t):
        self.starts.append(float(abs(z).max()) if hasattr(z, "max") else abs(z))
        return super()._advance(z, t)


def test_case1_depth_cap_refuses_before_any_orbit():
    assert sl.gap.DEPTH_CAP == 13  # 3N - 1 <= 39, the last dyadic rung below the escape radius
    starts = []
    with pytest.raises(sl.DepthExceeded):
        sl.construct_case1(StartRecorder(starts), 1.0, N=sl.gap.DEPTH_CAP + 1)
    assert starts == []


def test_case1_too_deep_for_the_flow_is_depth_exceeded():
    # on G = -z the levels shrink 8x: level 10 would start at 1 - 2^-40, past the escape radius
    starts = []
    gc = sl.construct_case1(StartRecorder(starts), 1.0, N=9)
    assert 1 - gc.levels[-1].r == 2.0 ** -37
    starts.clear()
    with pytest.raises(sl.DepthExceeded, match="level 10"):
        sl.construct_case1(StartRecorder(starts), 1.0, N=10)
    assert starts and max(starts) < sl.flows.ESCAPE_RADIUS


def test_case1_other_boundary_point():
    gamma = cmath.exp(1j * math.pi / 3)
    gc = sl.construct_case1(radial_flow(), gamma, N=3, t_start=0.5)
    gc.validate()
    assert len(gc.levels) == 3


def test_test_function_double_zeros(case1):
    f = sl.build_test_function(case1)
    fp = f.derivative()
    for lv in case1.levels:
        assert f.eval(lv.w) == 0
        assert fp.eval(lv.w) == 0
        assert abs(f.eval(lv.r)) < 1e-12
        assert abs(fp.eval(lv.r)) > 0


def test_test_function_value_at_origin(case1):
    f = sl.build_test_function(case1)
    expected = 1.0
    for lv in case1.levels:
        expected *= lv.r * abs(lv.w) ** 2
    assert abs(abs(f.eval(0)) - expected) < 1e-12
    assert abs(f.eval(0)) < 1.0


def test_test_function_needs_interpolation():
    flow = radial_flow()
    lv = sl.gap.GapLevel(n=1, t=0.5, r=0.9, w=0.5)
    lv2 = sl.gap.GapLevel(n=2, t=0.2, r=0.9 + 1e-13, w=0.55)  # nearly repeated zero
    gc = sl.GapConstruction(flow=flow, gamma0=1.0, levels=(lv, lv2), case="radial-limit")
    with pytest.raises(sl.MultiplicityError):
        sl.build_test_function(gc)


def make_grid():
    # bloch_gap adds the level points r_n itself
    return sl.GridSpec((0.0, 0.3, 0.6, 0.85), (1, 8, 12, 12))


def test_bloch_gap_report(case1):
    grid = make_grid()
    rep = sl.bloch_gap(case1, sl.Weight(sl.Constant(0)), grid)
    assert rep.delta_hat > 0
    for row in rep.rows:
        assert row.grid_gap >= row.lower_bound - 1e-9
        scale = abs(row.lower_bound / (1 - row.r))
        assert row.cancellation <= 1e-8 * scale
    assert rep.rows[-1].t <= rep.rows[0].t / 32


def test_bloch_gap_weight_independence(case1):
    grid = make_grid()
    bounds = []
    for weight in (
        sl.Weight(sl.Constant(0)),
        sl.Weight(sl.Constant(1)),
        sl.Coboundary(sl.Polynomial([1, -1])),
    ):
        rep = sl.bloch_gap(case1, weight, grid)
        bounds.append(tuple(r.lower_bound for r in rep.rows))
    assert bounds[0] == bounds[1] == bounds[2]  # bit-exact


def test_bloch_gap_adds_the_construction_points(case1):
    # the level points r_n join every grid, after its own points
    weight = sl.Weight(sl.Identity())
    pts = tuple(complex(lv.r) for lv in case1.levels)
    with_points = sl.GridSpec((0.0, 0.3, 0.6, 0.85), (1, 8, 12, 12), pts)
    assert sl.bloch_gap(case1, weight, make_grid()) == sl.bloch_gap(case1, weight, with_points)


@pytest.mark.parametrize("weight", [
    sl.Weight(sl.Constant(1)), sl.Weight(sl.Identity()), sl.Coboundary(sl.Polynomial([1, -1]))
], ids=["g=1", "g=z", "coboundary"])
def test_bloch_gap_integrates_once_plus_once_per_level(case1, integrations, weight):
    # one (levels, points) batch for every level's grid, and each level's
    # one-point cancellation run
    sl.bloch_gap(case1, weight, make_grid())
    assert len(integrations) == 1 + len(case1.levels)


FLOW_ONLY = [sl.Weight(sl.Constant(0)), sl.Weight(sl.Constant(1)), sl.Coboundary(sl.Polynomial([1, -1]))]


def test_bloch_gaps_runs_the_flow_once_for_every_flow_only_weight(case1, integrations):
    # the batch and the level runs are made once, and each weight applies its multiplier to them
    sl.gap.bloch_gaps(case1, FLOW_ONLY, make_grid())
    assert len(integrations) == 1 + len(case1.levels)


def test_bloch_gaps_sweeps_a_non_constant_weight_on_its_own(case1, integrations):
    sl.gap.bloch_gaps(case1, FLOW_ONLY + [sl.Weight(sl.Identity())], make_grid())
    assert len(integrations) == 2 * (1 + len(case1.levels))


@pytest.mark.parametrize("G, gamma0", [([0, -1], 1.0), ([0, -1, 0.25], 1j)], ids=["case1", "gamma0=i"])
def test_bloch_gaps_is_bloch_gap_per_weight_bit_for_bit(G, gamma0):
    gc = sl.construct_case1(sl.ode_flow(sl.Polynomial(G), 1e-12), gamma0, N=3, t_start=0.5)
    weights = [sl.Weight(sl.Identity()), *FLOW_ONLY, sl.Weight(sl.Polynomial([0.5, 0.25j]))]
    reports = sl.gap.bloch_gaps(gc, weights, make_grid())
    assert reports == [sl.bloch_gap(gc, weight, make_grid()) for weight in weights]
    # the shared runs give each weight what its own cocycle gives
    f = sl.build_test_function(gc)
    for weight, rep in zip(weights, reports):
        wsg = sl.WeightedSemigroup(gc.flow, weight if gamma0 == 1.0 else weight.rotated(gamma0))
        assert [r.cancellation for r in rep.rows] == [
            abs(sl.weighted_z_derivative(wsg, f, lv.r, lv.t)) for lv in gc.levels]


GAP_VERDICTS = [
    "geometric-inequality-margins", "time-vanishing",
    "cancellation-weight-0", "grid-gap-dominates-bound-weight-0", "uniform-gap-weight-0",
    "cancellation-weight-1", "grid-gap-dominates-bound-weight-1", "uniform-gap-weight-1",
    "lower-bounds-weight-independent",
]


@pytest.fixture(scope="module")
def case1_reports(case1):
    weights = (sl.Weight(sl.Constant(0)), sl.Coboundary(sl.Polynomial([1, -1])))
    return [sl.bloch_gap(case1, weight, make_grid()) for weight in weights]


def test_bloch_gap_verdicts_pass_on_the_construction(case1, case1_reports):
    verdicts = sl.gap.bloch_gap_verdicts(case1, case1_reports)
    assert [v[0] for v in verdicts] == GAP_VERDICTS
    assert all(passed for _, passed, _, _ in verdicts)
    assert {name: threshold for name, _, _, threshold in verdicts} == {
        **dict.fromkeys(GAP_VERDICTS, 0.0),
        "geometric-inequality-margins": 1e-3, "time-vanishing": 1.0 / 32.0,
        "cancellation-weight-0": 1e-8, "cancellation-weight-1": 1e-8,
        "grid-gap-dominates-bound-weight-0": -1e-6, "grid-gap-dominates-bound-weight-1": -1e-6,
    }


def _doctor_row(reports, idx, k, **changes):
    rows = list(reports[idx].rows)
    rows[k] = replaced(rows[k], **changes)
    return [*reports[:idx], replaced(reports[idx], rows=tuple(rows)), *reports[idx + 1:]]


def _thin_first_margin(gc):
    # the last level's image pushed out until 1 - r is (1 - |w|)/2 less 1e-4 of it
    lv = gc.levels[-1]
    w = 1.0 - 2.0 * (1.0 - lv.r) / (1.0 - 1e-4)
    return replaced(gc, levels=gc.levels[:-1] + (replaced(lv, w=w),))


def _slow_times(gc):
    lv = gc.levels[-1]
    return replaced(gc, levels=gc.levels[:-1] + (replaced(lv, t=gc.levels[0].t / 16),))


def _raise_cancellation(reports):
    row = reports[0].rows[2]
    return _doctor_row(reports, 0, 2, cancellation=1e-6 * row.lower_bound / (1.0 - row.r))


def _sink_grid_gap(reports):
    row = reports[1].rows[3]
    return _doctor_row(reports, 1, 3, grid_gap=row.lower_bound - 1e-5)


def _zero_delta_hat(reports):
    return [reports[0], replaced(reports[1], delta_hat=0.0)]


def _move_a_bound(reports):
    row = reports[1].rows[0]
    return _doctor_row(reports, 1, 0, lower_bound=row.lower_bound * (1.0 + 1e-12))


@pytest.mark.parametrize("doctor_gc, doctor_reports, failing, fails", [
    (_thin_first_margin, None, "geometric-inequality-margins", lambda v, thr: v < thr),
    (_slow_times, None, "time-vanishing", lambda v, thr: v > thr),
    (None, _raise_cancellation, "cancellation-weight-0", lambda v, thr: v > thr),
    (None, _sink_grid_gap, "grid-gap-dominates-bound-weight-1", lambda v, thr: v < thr),
    (None, _zero_delta_hat, "uniform-gap-weight-1", lambda v, thr: v <= thr),
    (None, _move_a_bound, "lower-bounds-weight-independent", lambda v, thr: v > thr),
], ids=["margin", "time", "cancellation", "grid-gap", "delta-hat", "weight-independence"])
def test_bloch_gap_verdicts_fail_each_rule_alone(case1, case1_reports, doctor_gc, doctor_reports,
                                                 failing, fails):
    gc = doctor_gc(case1) if doctor_gc else case1
    reports = doctor_reports(case1_reports) if doctor_reports else case1_reports
    verdicts = sl.gap.bloch_gap_verdicts(gc, reports)
    assert [name for name, passed, _, _ in verdicts if not passed] == [failing]
    (value, threshold), = [(v, thr) for name, _, v, thr in verdicts if name == failing]
    assert fails(value, threshold)


def test_case2_parabolic():
    flow = sl.Automorphism(kind="parabolic", speed=1.0, reflect=True)
    gc = sl.construct_case2(flow, N=6)
    assert abs(abs(gc.target_angle) - 3 * math.pi / 4) < 1e-15
    for lv in gc.levels:
        assert abs(cmath.phase(lv.w - 1) - gc.target_angle) <= 1e-9
        assert lv.r == 1 - 2.0 ** (-lv.n)
    late = [q for lv, q in zip(gc.levels, gc.ratios) if lv.n >= 4]
    assert late and all(0.8 <= q <= 1.2 for q in late)
    diffs = [abs(q - 1.0) for q in gc.ratios]
    assert diffs == sorted(diffs, reverse=True)  # trending toward 1
    assert gc.min_separation >= 0.1
    ts = [lv.t for lv in gc.levels]
    assert ts == sorted(ts, reverse=True)


def test_case2_reads_the_generator_without_integrating(integrations):
    # the kind and the fixed points come from the generator tree, not from a time-1 map:
    # both refusals integrate nothing, and a construction never runs an orbit to t = 1
    flow = sl.ode_flow(sl.Polynomial([0.5j, 1j, 0.5j]))  # G = (i/2)(1 + z)^2
    gc = sl.construct_case2(flow, N=3)
    assert gc.case == "automorphism" and len(gc.levels) == 3
    assert [t for t in integrations if isinstance(t, float) and t == 1.0] == []
    integrations.clear()
    for G in ([0.5, 0, -0.5], [0, -1, 0, 1]):  # (1 - z^2)/2, fixed points +-1; a cubic field
        with pytest.raises(sl.CaseMismatch):
            sl.construct_case2(sl.ode_flow(sl.Polynomial(G)), N=3)
    assert integrations == []


def test_case2_elliptic_rotation():
    gc = sl.construct_case2(sl.Automorphism(kind="elliptic", omega=1.0), N=4)
    assert len(gc.levels) == 4
    for lv in gc.levels:
        assert abs(abs(lv.w) - lv.r) < 1e-12  # rotations preserve moduli
        assert abs(cmath.phase(lv.w - 1) - gc.target_angle) <= 1e-9


def test_case2_hyperbolic_with_boundary_fixed_point_at_one():
    with pytest.raises(sl.CaseMismatch):
        sl.construct_case2(sl.Automorphism(kind="hyperbolic", rate=1.0), N=3)


def test_case2_parabolic_fixed_at_one_rejected():
    with pytest.raises(sl.CaseMismatch):
        sl.construct_case2(sl.Automorphism(kind="parabolic", speed=1.0), N=3)


def test_case2_non_automorphism_rejected():
    with pytest.raises(sl.CaseMismatch):
        sl.construct_case2(sl.ode_flow(sl.Polynomial([0, -1, 0, 1])), N=3)


def probe_side(flow, cap=1.0):
    """The sign of Im(phi_t(r) - 1) at r = 1 - 2^-8 for the first t = 2^-6, 2^-5, ... (60 doublings at
    most) that moves the orbit more than 1e-13 off the real axis, 0 for none: the side construct_case2
    took from the orbit before it read it off the generator, kept as the reference."""
    r, t = 1.0 - 2.0 ** -8, min(cap, 2.0 ** -6)
    for _ in range(60):
        im = (flow.advance(r, t) - 1.0).imag
        if abs(im) > 1e-13:
            return math.copysign(1.0, im)
        t *= 2.0
    return 0.0


class FirstAngle(Exception):
    """Raised by a stand-in for gap._angle_time with the target angle it was handed."""


def case2_target(flow):
    """The target angle construct_case2 hands its first _angle_time call, where it is stopped."""
    def solve(a, beta, u0, target):
        raise FirstAngle(target)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sl.gap, "_angle_time", solve)
        with pytest.raises(FirstAngle) as stopped:
            sl.construct_case2(flow, N=1)
    return stopped.value.args[0]


def automorphism_ode(a, beta):
    return sl.ode_flow(sl.Polynomial([a, 1j * beta, -a.conjugate()]))


automorphism_flows = st.one_of(
    st.builds(lambda re, im, beta: automorphism_ode(complex(re, im), beta),
              st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)),
    st.builds(lambda theta, reflect: sl.RotatedFlow(sl.Automorphism(kind="parabolic", speed=1.0, reflect=reflect),
                                                    cmath.exp(1j * theta)),
              st.floats(0.0, 2 * math.pi), st.booleans()),
    st.builds(lambda omega: sl.Automorphism(kind="elliptic", omega=omega), st.floats(-3.0, 3.0)),
)


@settings(max_examples=100, deadline=None)
@given(automorphism_flows)
def test_case2_side_is_the_orbit_probes_sign_away_from_the_fixed_points(flow):
    # Im G(1) = 2 Im a + beta is the side the boundary orbit of 1 enters.  The probe reads the orbit of
    # r = 1 - 2^-8 instead; Im G(r) = r Im G(1) + Im a (1 - r)^2 and |Im G(1)| = |a| |1 - p| |1 - q| over
    # the fixed points p, q, so the two start alike once both lie 2^-7 or more from 1 (for an elliptic group
    # |1 - q| >= |1 - p|).  Nearer than that the probe can read the other side: see the next test.
    a, beta = sl.flows.automorphism_generator(flow)
    assume(a != 0 or beta != 0)  # the trivial flow
    assume(min(abs(p - 1.0) for p in group_fixed_points(a, beta)) >= 2.0 ** -7)
    side = probe_side(flow)
    assume(side != 0.0)  # a group too slow to move r by 1e-13 up to t = 2^53, which the probe refused
    target = case2_target(flow)
    assert abs(target) == 3 * math.pi / 4
    assert math.copysign(1.0, target) == side


@pytest.mark.parametrize("a, beta", [(0.5 - 0.4j, 0.8 + 4e-6), (0.5 + 0.4j, -0.8 - 4e-6)])
def test_case2_takes_the_boundary_orbits_side_next_to_a_fixed_point(a, beta):
    # a hyperbolic group with a fixed point 4.0e-6 from 1: G(1) = +-4e-6 i, while the orbit of 1 - 2^-8 enters
    # the other half-plane.  Taking that side, the angle equation found no root before the levels reached the
    # escape radius (EscapeError); from G(1), levels 18 to 23 are built
    flow = automorphism_ode(a, beta)
    assert min(abs(p - 1.0) for p in group_fixed_points(a, beta)) == pytest.approx(4e-6, rel=1e-5)
    assert probe_side(flow) == -math.copysign(1.0, beta)
    gc = sl.construct_case2(flow, N=6)
    assert gc.target_angle == math.copysign(3 * math.pi / 4, beta)
    assert [lv.n for lv in gc.levels] == list(range(18, 24))
    for lv in gc.levels:
        assert abs(cmath.phase(lv.w - 1) - gc.target_angle) <= 1e-9


@pytest.mark.parametrize("flow", [sl.Automorphism(kind="parabolic", speed=1.0, reflect=True),
                                  automorphism_ode(0.5j, 1.0)], ids=["closed-form", "ode"])
def test_case2_first_advance_is_the_first_levels_angle_sample(monkeypatch, flow):
    # the side comes from the generator and the angle equation is solved on it, so the first orbit run is
    # the first level's own: its r and t, one point
    calls = []
    advance = sl.FlowModel.advance

    def recorded(self, z, t):
        calls.append((z, t))
        return advance(self, z, t)

    monkeypatch.setattr(sl.FlowModel, "advance", recorded)
    gc = sl.construct_case2(flow, N=2, t_first_cap=0.5)
    assert calls[0] == (gc.levels[0].r, gc.levels[0].t)


def test_case2_refuses_a_group_that_fixes_1_without_running_an_orbit(monkeypatch):
    # 1 is a fixed point just when G(1) = i (2 Im a + beta) = 0, refused before any advance.  The hyperbolic
    # group a = i e^{i d}, beta = -2 cos d fixes 1 and e^{2 i d}; at d = 2e-5 its discriminant is within 1e-9
    # of 0, so a kind test could not tell it from a parabolic group, and its G(1) is 0.0 exactly
    monkeypatch.setattr(sl.FlowModel, "advance", None)
    for flow in (sl.Automorphism(kind="parabolic", speed=1.0), automorphism_ode(0.5 - 0.5j, 1.0)):
        with pytest.raises(sl.CaseMismatch, match="Denjoy-Wolff point"):
            sl.construct_case2(flow, N=3)
    a = 1j * cmath.exp(2e-5j)
    beta = -2 * a.imag
    assert sorted(abs(p - 1.0) for p in group_fixed_points(a, beta)) == pytest.approx([0.0, 4e-5], abs=1e-12)
    assert abs(4 * abs(a) ** 2 - beta ** 2) <= 1e-9 * (4 * abs(a) ** 2 + beta ** 2)
    with pytest.raises(sl.CaseMismatch, match=r"G\(1\) = 0 \(2 Im a \+ beta = 0\.0\)"):
        sl.construct_case2(automorphism_ode(a, beta), N=3)


def rotated_group(kind, d):
    """The hyperbolic (rate 1) or parabolic (speed 1) group that fixes 1, rotated so that that fixed
    point lies at e^{-i d}, a distance d from 1."""
    inner = sl.Automorphism(kind="hyperbolic", rate=1.0) if kind == "hyperbolic" else sl.Automorphism(
        kind="parabolic", speed=1.0)
    return sl.RotatedFlow(inner, cmath.exp(1j * d))


@pytest.mark.parametrize("flow, outcome", [
    *[(rotated_group("hyperbolic", 10.0 ** -e), outcome) for e, outcome in [
        (1, range(3, 9)), (2, range(6, 12)), (3, range(10, 16)), (4, range(13, 19)), (5, range(16, 22)),
        (6, range(20, 26)), (7, range(23, 29)), (8, range(26, 32)), (9, range(30, 36))]],
    *[(rotated_group("parabolic", 10.0 ** -e), outcome) for e, outcome in [
        (1, range(8, 14)), (2, range(15, 21)), (3, range(21, 27)), (4, range(28, 34)),
        (5, sl.CaseMismatch), (6, sl.CaseMismatch), (7, sl.CaseMismatch), (8, sl.CaseMismatch),
        (9, sl.CaseMismatch)]],
    # a group too slow for the angle equation on any rung below the escape radius, closed form or integrated
    (sl.ode_flow(sl.Polynomial([0, 1e-82j])), "depth 39"),
    (sl.Automorphism(kind="elliptic", omega=1e-82), "depth 39"),
], ids=[f"{kind}-1e-{e}" for kind in ("hyperbolic", "parabolic") for e in range(1, 10)] + ["ode-1e-82", "elliptic-1e-82"])
def test_case2_builds_or_refuses_a_group_by_its_fixed_points_distance_from_1(flow, outcome):
    # built: the levels, all on the ladder below the escape radius; CaseMismatch: |G(1)| at most 1e-9 of
    # max(|a|, |beta|), with the fixed point 1e-5 or less from 1 (relative |G(1)| 5e-11 at 1e-5); BisectionError:
    # the angle equation found too few roots by the ladder's top rung.  The hyperbolic groups 1e-6 to 1e-9 from 1
    # build from n = 20 on, where the angle of w - 1 resolves only to about 2.2e-16 / |w - 1|
    if isinstance(outcome, range):
        gc = sl.construct_case2(flow, N=6)
        assert [lv.n for lv in gc.levels] == list(outcome) and gc.levels[-1].r < sl.flows.ESCAPE_RADIUS
    elif isinstance(outcome, str):
        with pytest.raises(sl.BisectionError, match=outcome):
            sl.construct_case2(flow, N=6)
    else:
        with pytest.raises(outcome, match=r"G\(1\) = 0"):
            sl.construct_case2(flow, N=6)


def test_case2_names_the_widest_window_it_searched_for_a_lost_root(monkeypatch):
    # this rotated parabolic group's least root at level 2, t = 0.58681, lies above 0.95 t_1 = 0.58040, the
    # window a later level searches; the error names that window and the root found
    calls = []
    solve = sl.gap._angle_time

    def recorded(a, beta, u0, target):
        calls.append((u0, solve(a, beta, u0, target)))
        return calls[-1][1]

    monkeypatch.setattr(sl.gap, "_angle_time", recorded)
    flow = sl.RotatedFlow(sl.Automorphism(kind="parabolic", speed=30.81803915072436), cmath.exp(0.11687256381773845j))
    with pytest.raises(sl.BisectionError) as refused:
        sl.construct_case2(flow, N=6)
    (u1, t1), (u2, t2) = calls
    assert (u1, u2) == (-0.5, -0.25) and t1 <= 1.0
    assert t2 == pytest.approx(0.58681, abs=1e-5) and 0.95 * t1 == pytest.approx(0.58040, abs=1e-5)
    assert str(refused.value) == f"no root in (0, {0.95 * t1:.3e}) at level n = 2: the least is t = {t2:.5e}"


def rotated_automorphism(kind, size, reflect, angle):
    fields = {"elliptic": {"omega": size}, "hyperbolic": {"rate": size},
              "parabolic": {"speed": size, "reflect": reflect}}[kind]
    return sl.RotatedFlow(sl.Automorphism(kind=kind, **fields), cmath.exp(1j * angle))


signs = st.sampled_from([-1.0, 1.0])
near_hyperbolic = st.builds(  # the fixed point e^{-+i d} a distance d from 1, d log-uniform in [1e-9, 1e-1]
    lambda rate, e, sign: rotated_automorphism("hyperbolic", rate, False, sign * 10.0 ** e),
    st.floats(0.2, 5.0), st.floats(-9.0, -1.0), signs)
any_rotation = st.builds(  # every fixed point 0.01 or more from 1: no group fixes 1 or comes near it
    lambda kind, size, sign, reflect, angle: rotated_automorphism(kind, sign * size if kind == "elliptic" else size,
                                                                  reflect, angle),
    st.sampled_from(["elliptic", "hyperbolic", "parabolic"]), st.floats(0.2, 5.0), signs, st.booleans(),
    st.one_of(st.floats(0.01, math.pi - 0.01), st.floats(math.pi + 0.01, 2 * math.pi - 0.01)))


def angle_residual(w, target):
    """s(w) = Im((w - 1) e^{-i target}), which vanishes on the disc on the target ray alone."""
    return ((w - 1.0) * cmath.exp(-1j * target)).imag


@settings(max_examples=200, deadline=None)
@given(st.one_of(near_hyperbolic, any_rotation))
def test_case2_builds_three_consecutive_levels_of_a_rotated_group(flow):
    # each level is the one advance made at its closed-form t, at an angle residual within 4 eps, about the
    # resolution of w; the build is reproducible
    gc = sl.construct_case2(flow, N=3)
    n0 = gc.levels[0].n
    assert [lv.n for lv in gc.levels] == [n0, n0 + 1, n0 + 2]
    assert gc.levels[0].t > gc.levels[1].t > gc.levels[2].t > 0.0
    for lv in gc.levels:
        assert lv.r == 1 - 2.0 ** -lv.n and lv.w == flow.advance(lv.r, lv.t)
        assert abs(angle_residual(lv.w, gc.target_angle)) <= 4 * 2.0 ** -52
    assert sl.construct_case2(flow, N=3).levels == gc.levels


def check_least_root(flow, r, t, target):
    """s(phi_t(r)) keeps the sign it has at t = 0 on t k/256 for k < 256 (one batched advance) and changes
    sign across t (1 +- 1e-9): t is the orbit's first crossing of the target ray."""
    start = math.copysign(1.0, angle_residual(r, target))
    assert all(angle_residual(w, target) * start > 0.0 for w in flow.advance(r, t * np.arange(256) / 256.0).tolist())
    below, above = (angle_residual(flow.advance(r, t * f), target) for f in (1 - 1e-9, 1 + 1e-9))
    assert below * start > 0.0 > above * start


@settings(max_examples=100, deadline=None)
@given(any_rotation)
def test_case2_level_times_are_the_least_roots_on_the_flow_itself(flow):
    # the closed-form t_n, checked on the flow's own orbit
    gc = sl.construct_case2(flow, N=3)
    for lv in gc.levels:
        check_least_root(flow, lv.r, lv.t, gc.target_angle)


@pytest.mark.parametrize("omega", [100.0, -100.0])
def test_case2_takes_a_root_past_half_a_revolution(omega):
    # the elliptic group fixing p = 0.9 (a = -i omega p, beta = omega (1 + p^2)) turns the orbit of r_1 = 1/2
    # more than half a revolution, t > pi/(2 nu), before it crosses the ray: tau = tan(nu t)/nu < 0 there, and
    # t comes back mod pi/nu.  Level 2's orbit goes as far round, so its root lies above 0.95 t_1: refused
    p = 0.9
    a, beta = -1j * omega * p, omega * (1 + p * p)
    flow = automorphism_ode(a, beta)
    target = math.copysign(3 * math.pi / 4, omega)
    t1 = sl.gap._angle_time(a, beta, -0.5, target)
    nu = abs(omega) * (1 - p * p) / 2
    assert math.pi / (2 * nu) < t1 < math.pi / nu
    check_least_root(flow, 0.5, t1, target)
    with pytest.raises(sl.BisectionError, match=r"at level n = 2: the least is t = 2\.24118e-01"):
        sl.construct_case2(flow, N=6)


@settings(max_examples=100, deadline=None)
@given(st.floats(5.0, 300.0), signs)
def test_case2_builds_a_fast_elliptic_group(e, sign):
    # a rotation with omega log-uniform in [1e5, 1e300]: the angle equation is solved on the group scaled to
    # |beta| = 1, so nothing overflows, and each level's root is its first, however short
    flow = sl.Automorphism(kind="elliptic", omega=sign * 10.0 ** e)
    gc = sl.construct_case2(flow, N=6)
    assert [lv.n for lv in gc.levels] == list(range(2, 8))
    for lv in gc.levels:
        assert lv.w == flow.advance(lv.r, lv.t)
        assert abs(angle_residual(lv.w, gc.target_angle)) <= 4 * 2.0 ** -52


def test_case2_runs_each_levels_orbit_once(monkeypatch):
    # the shipped case-2 build: t_n comes from the generator, so the build makes one advance a level, at
    # (r_n, t_n) (the sampled bisection made 198)
    calls = []
    advance = sl.FlowModel.advance

    def recorded(self, z, t):
        calls.append((z, t))
        return advance(self, z, t)

    monkeypatch.setattr(sl.FlowModel, "advance", recorded)
    gc = sl.construct_case2(sl.Automorphism(kind="parabolic", speed=1.0, reflect=True), N=6)
    assert calls == [(lv.r, lv.t) for lv in gc.levels] and len(calls) == 6
    monkeypatch.setattr(sl.FlowModel, "advance", advance)
    assert [lv.w for lv in gc.levels] == [gc.flow.advance(lv.r, lv.t) for lv in gc.levels]


def separability_grid(zeros, rotations):
    pts = tuple(
        complex(a) * cmath.exp(1j * th) for a in zeros for th in rotations
    )
    return sl.GridSpec((0.0, 0.3, 0.6, 0.85), (1, 16, 32, 32), pts)


def test_separability_single_rotation_vacuous():
    B = sl.BlaschkeProduct(sl.radial_zeros(6))
    grid = separability_grid(B.zeros, [0.0])
    rep = sl.separability_witness(B, [0.0], grid)
    assert rep.eps_hat is None
    rep = sl.separability_witness(B, [], grid)  # an empty (0, points) batch
    assert rep.rotations == rep.matrix == () and rep.eps_hat is None


def test_separability_two_rotations():
    B = sl.BlaschkeProduct(sl.radial_zeros(10))
    rots = [0.0, math.pi]
    rep = sl.separability_witness(B, rots, separability_grid(B.zeros, rots))
    assert rep.eps_hat > 0


def test_separability_rejects_equal_rotations():
    B = sl.BlaschkeProduct(sl.radial_zeros(6))
    grid = separability_grid(B.zeros, [0.1])
    with pytest.raises(ValueError):
        sl.separability_witness(B, [0.1, 0.1 + 2 * math.pi], grid)


def test_separability_requires_interpolating_product():
    B = sl.BlaschkeProduct((0.3, 0.3))
    grid = sl.GridSpec((0.0, 0.5), (1, 8))
    with pytest.raises(sl.MultiplicityError):
        sl.separability_witness(B, [0.0, 1.0], grid)


@pytest.mark.parametrize("count", [41, 60])
def test_separability_reads_no_delta(count):
    # the witness needs distinct zeros, not a delta: the family 0.5 + k 1e-9, whose least deflated product
    # is subnormal (41 zeros) or underflows to 0 (60), is refused by the certificates but witnessed
    B = sl.BlaschkeProduct([0.5 + k * 1e-9 for k in range(count)])
    with pytest.raises(sl.HypothesisError, match="below the double range"):
        sl.interpolation_delta(B)
    rep = sl.separability_witness(B, [0.0, math.pi], sl.GridSpec((0.0, 0.5, 0.9), (1, 8, 16)))
    assert rep.eps_hat > 0


@pytest.mark.parametrize(
    "zeros, rotations",
    [
        (sl.radial_zeros(10), [2.0 * math.pi * k / 8 for k in range(8)]),
        ((0.5 + 0.1j, 0.8 - 0.2j, 0.3 + 0.6j), [0.1, 1.0, 2.5, 4.0]),
    ],
)
def test_separability_matrix_equals_the_difference_tree_norms(zeros, rotations):
    # each rotation is evaluated once on the grid; every pairwise gap must be
    # the grid Bloch norm of the explicit difference tree B_i - B_j, bit for bit
    B = sl.BlaschkeProduct(zeros)
    coarse = separability_grid(B.zeros, rotations)
    for grid in (coarse, coarse.refine()):
        rep = sl.separability_witness(B, rotations, grid)
        fns = [
            sl.Compose(B, sl.Polynomial((0.0, cmath.exp(-1j * th))))
            for th in rep.rotations
        ]
        for i in range(len(fns)):
            for j in range(i + 1, len(fns)):
                diff = sl.Sum((fns[i], sl.Product((sl.Polynomial((-1.0,)), fns[j]))))
                want = sl.bloch_norm_grid(diff, grid, derivative=diff.derivative())
                assert rep.matrix[i][j] == rep.matrix[j][i] == want


@pytest.mark.parametrize("zeros, rotations", [
    (sl.radial_zeros(10), [2.0 * math.pi * k / 8 for k in range(8)]),  # the shipped config
    ((0.5 + 0.1j, 0.8 - 0.2j, 0.3 + 0.6j), [0.0, 0.37, 1.1, 2.9, 3.05, 5.5, 6.2]),
    (sl.radial_zeros(10), [2.0 * math.pi * k / 20 for k in range(20)]),
], ids=["shipped", "uneven", "twenty"])
def test_separability_batch_is_the_per_rotation_trees_bit_for_bit(monkeypatch, zeros, rotations):
    # the rotations are one (rotations, points) batch, sampled by one call; each row is the
    # rotation's own tree B(e^{-it} z)
    calls = []
    derivative = blaschke.blaschke_derivative
    monkeypatch.setattr(blaschke, "blaschke_derivative", lambda B, z: calls.append(z.shape[0]) or derivative(B, z))
    B = sl.BlaschkeProduct(zeros)
    coarse = separability_grid(B.zeros, rotations)
    for grid in (coarse, coarse.refine()):
        calls.clear()
        rep = sl.separability_witness(B, rotations, grid)
        assert calls == [len(rotations)]
        norm = sl.BlochGridNorm(grid)
        fns = [sl.Compose(B, sl.Polynomial((0.0, cmath.exp(-1j * th)))) for th in rep.rotations]
        samples = [norm.sample(f, f.derivative()) for f in fns]
        want = [[0.0 if i == j else float(norm.reduce(samples[i] - samples[j])) for j in range(len(fns))]
                for i in range(len(fns))]
        assert rep.matrix == tuple(map(tuple, want))
