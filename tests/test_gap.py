import cmath
import math

import pytest

import semiflow_lab as sl
from semiflow_lab import blaschke
from conftest import replaced


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
