"""Constructive strong-continuity counterexamples in Bloch-type norms.

Two constructions produce an interpolating double sequence hugging the
boundary point 1: one for flows with an interior radial limit there, one
for automorphism flows (where the orbit slides along the circle and the
levels are pinned by an angle equation).  The test function is a product
of two Blaschke products, the second squared, so that both the function
and its derivative vanish at the pushed points; the weight-dependent terms
of d/dz[W_t f] then cancel and |f'(r_n)|(1 - r_n) certifies a uniform gap.
"""

from __future__ import annotations

import cmath
import math
import numpy as np

from .analytic import AnalyticFn, BlochGridNorm, GridSpec, Power, Product
from .blaschke import BlaschkeProduct, _refuse_repeated, _rho_rows, interpolation_delta
from .cocycles import Coboundary, Weight, WeightedSemigroup, _multiplier, _z_derivative, weighted_z_derivative
from .errors import BisectionError, CaseMismatch, DepthExceeded, DomainError, record
from .flows import AUTOMORPHISM_TOL, ESCAPE_RADIUS, FlowModel, RotatedFlow, automorphism_generator
from .flows import boundary_orbit
from .pointwise import points, times

# Level starts r_n = 1 - 2^{-j_n} sit on a dyadic ladder that must stay below
# the integrator's escape radius.  The two geometric inequalities, each with
# its margin, force 1 - r_n < (1 - r_{n-1})/4, so j grows by at least 3 a
# level from j_1 >= 2: N levels need j_N >= 3N - 1.
LADDER_TOP = max(j for j in range(1, 64) if 1.0 - 2.0 ** (-j) < ESCAPE_RADIUS)
DEPTH_CAP = (LADDER_TOP + 1) // 3
GEOM_MARGIN = 1e-3
TIME_VANISHING = 1.0 / 32.0  # the bloch-gap certificate's largest t_N / t_1
CANCELLATION_LIMIT = 1e-8  # its largest cancellation residual relative to |f'(r_n)|
GRID_SLACK = -1e-6  # its least grid gap less the certified lower bound: integration tolerance
# A separability gap at or below this is roundoff: the pair's two rotated
# products coincide, so it witnesses no separation.
SEPARATION_FLOOR = 1e-12


def _margins(r: float, w: complex, prev_r: float | None):
    """Relative margins of 1 - r < (1 - |w|)/2 < (1 - prev_r)/4; the second is None
    without a previous level.  ``advance`` keeps |w| < 1, so (1 - |w|)/2 > 0."""
    half = 0.5 * (1.0 - abs(w))
    first = (half - (1.0 - r)) / half
    if prev_r is None:
        return first, None
    quarter = 0.25 * (1.0 - prev_r)
    return first, (quarter - half) / quarter


@record
class GapLevel:
    n: int
    t: float
    r: float
    w: complex


@record
class GapConstruction:
    flow: FlowModel
    gamma0: complex
    levels: tuple
    case: str  # 'radial-limit' or 'automorphism'
    ratios: tuple | None = None          # case 2: (1 - Re w_n) / 2^{-n}
    min_separation: float | None = None  # case 2: min pairwise rho of the sequence
    target_angle: float | None = None    # case 2: +-3*pi/4

    def geom_margins(self):
        """Relative margins of 1-r_n < (1-|w_n|)/2 < (1-r_{n-1})/4 per level."""
        out = []
        prev_r = None
        for lv in self.levels:
            first, second = _margins(lv.r, lv.w, prev_r)
            out.append({"n": lv.n, "first": first, "second": second})
            prev_r = lv.r
        return out

    def validate(self):
        """Interleaving and decreasing times; raises on violation.

        The interleaving chain belongs to the radial-limit construction; the
        automorphism one keeps |w_n| = r_n (rotations preserve moduli).
        """
        prev = None
        radial = self.case == "radial-limit"
        for lv in self.levels:
            if radial and abs(lv.w) >= lv.r:
                raise ValueError(f"level {lv.n}: |w| must stay below r")
            if prev is not None:
                if not lv.r > prev.r:
                    raise ValueError(f"level {lv.n}: radii not increasing")
                if not lv.t < prev.t:
                    raise ValueError(f"level {lv.n}: times not decreasing")
                if radial and not lv.t < prev.t / 2.0:
                    raise ValueError(f"level {lv.n}: time did not halve")
                if radial and not abs(lv.w) > prev.r:
                    raise ValueError(f"level {lv.n}: interleaving broken")
            prev = lv


def construct_case1(
    flow: FlowModel, gamma0: complex = 1.0, N: int = 6, t_start: float = 0.5
) -> GapConstruction:
    """Inductive choice of (t_n, r_n) for a flow whose radial limit at gamma0
    falls inside the disc.

    Level n takes t_n below half of t_{n-1}, halving until the boundary
    limit satisfies 1 - |phi_{t_n}(1)| < (1 - r_{n-1})/2, then walks
    r = 1 - 2^{-j} upward until both geometric inequalities hold with
    relative margin >= 1e-3 (the next rung acts as the safety retry).
    Raises DepthExceeded before advancing from a start at or beyond the
    escape radius: up front when N > DEPTH_CAP, otherwise at the first level
    whose ladder needs such a start.  An automorphism group is refused up
    front, read off its generator (CaseMismatch).
    """
    if N < 1:
        raise ValueError("need at least one level")
    if N > DEPTH_CAP:
        raise DepthExceeded(
            f"N = {N} exceeds the depth cap {DEPTH_CAP} below the escape radius {ESCAPE_RADIUS}"
        )
    gamma0 = complex(gamma0)
    if abs(abs(gamma0) - 1.0) > 1e-12:
        raise DomainError(f"gamma0 = {gamma0} must be unimodular")
    if automorphism_generator(flow) is not None:
        raise CaseMismatch("an automorphism group or the trivial flow keeps the boundary on the boundary")
    work = flow if gamma0 == 1.0 else RotatedFlow(flow, gamma0)
    orbit = boundary_orbit(work, 1.0, t_start)
    if orbit.verdict != "inside":
        raise CaseMismatch("radial limit stays on the boundary; use the automorphism construction")

    levels = []
    j = 1
    t = float(t_start)
    prev_r = None
    for n in range(1, N + 1):
        if n > 1:
            target = 0.5 * (1.0 - prev_r)
            t = t / 4.0
            guard = 0
            while 1.0 - abs(boundary_orbit(work, 1.0, t).limit) >= target * (1.0 - GEOM_MARGIN):
                t /= 2.0
                guard += 1
                if guard > 200 or t < 1e-300:
                    raise DepthExceeded("time ladder collapsed before the target shrank")
        while True:
            if j > LADDER_TOP:
                raise DepthExceeded(
                    f"level {n} needs a start 1 - 2^-{j} at or beyond the escape radius {ESCAPE_RADIUS}"
                )
            r = 1.0 - 2.0 ** (-j)
            w = work.advance(r, t)
            first, second = _margins(r, w, prev_r)
            if first >= GEOM_MARGIN and (second is None or second >= GEOM_MARGIN):
                break
            j += 1
        levels.append(GapLevel(n=n, t=t, r=r, w=w))
        prev_r = r
        j += 1
    gc = GapConstruction(
        flow=work, gamma0=gamma0, levels=tuple(levels), case="radial-limit"
    )
    gc.validate()
    return gc


def build_test_function(gc: GapConstruction) -> AnalyticFn:
    """f = B_outer * B_pushed^2 with zeros {r_n} and {w_n} respectively.

    The squared factor gives a double zero at each pushed point w_n, so both
    f(w_n) and f'(w_n) vanish identically.  Requires the combined sequence
    to be interpolating; ``interpolation_delta`` refuses a repeated zero and a
    delta below the normal double range.
    """
    r_zeros = tuple(complex(lv.r) for lv in gc.levels)
    w_zeros = tuple(lv.w for lv in gc.levels)
    interpolation_delta(BlaschkeProduct(r_zeros + w_zeros))
    return Product((BlaschkeProduct(r_zeros), Power(BlaschkeProduct(w_zeros), 2)))


@record
class GapRow:
    n: int
    t: float
    r: float
    w: complex
    lower_bound: float
    grid_gap: float
    cancellation: float


@record
class GapReport:
    rows: tuple
    delta_hat: float


def bloch_gap(gc: GapConstruction, weight: Weight | Coboundary, grid: GridSpec) -> GapReport:
    """The ``bloch_gaps`` report of one weight."""
    return bloch_gaps(gc, [weight], grid)[0]


def bloch_gaps(gc: GapConstruction, weights, grid: GridSpec) -> list:
    """Per-level Bloch gaps of W_{t_n} f - f for the constructed test function: one GapReport
    per weight, the weight rotated into the construction's frame for gamma0 != 1.

    A report holds the certified lower bound |f'(r_n)|(1 - r_n), which does not involve the
    weight, the supremum of |d/dz[W_{t_n} f - f]| (1 - |z|^2) over the grid and the r_n, from
    one run on a (levels, points) batch whose row n runs to t_n, and the cancellation residual
    |d/dz[W_{t_n} f](r_n)|, which the double zeros force to integration tolerance.  f, the grid,
    the bounds and the runs of the weights that read only the flow (phi_t, phi_t' and f's jet
    at phi_t) are made once, and each such weight applies its own multiplier to them.  A
    non-constant weight g sweeps its own runs: the integrals of g and g' are its own.
    """
    f = build_test_function(gc)
    zs = np.concatenate([grid.sample_points(), [lv.r for lv in gc.levels]])
    fp = f.jet(zs)[1]
    fp_r = np.abs(fp[-len(gc.levels):]).tolist()  # the r_n are the last columns
    bounds = [fpr * (1.0 - lv.r) for lv, fpr in zip(gc.levels, fp_r)]
    # The cancellation residual re-runs each level's one-point orbit, phi' beside it (on the
    # shipped radial config w_2..w_6 come back bit for bit, w_1 81 ulps off).  Read from the
    # batch, whose shared steps move phi_{t_n}(r_n) at tolerance, it would no longer cancel.
    runs = [times(zs, np.array([[lv.t] for lv in gc.levels]))]
    runs += [times(points(lv.r), lv.t) for lv in gc.levels]
    orbits = None  # (phi_t, phi_t', f's jet at phi_t) per run, once a flow-only weight needs them
    reports = []
    for weight in weights:
        wsg = WeightedSemigroup(gc.flow, weight if gc.gamma0 == 1.0 else weight.rotated(gc.gamma0))
        if wsg._swept:
            ds = [weighted_z_derivative(wsg, f, z, t) for z, t in runs]
        else:
            if orbits is None:
                orbits = [gc.flow.advance_with_derivative(*run) for run in runs]
                orbits = [(w, dw, f.jet(w)) for w, dw in orbits]
            ds = [_z_derivative(*_multiplier(wsg.weight, z, t, w, dw), dw, jet)
                  for (z, t), (w, dw, jet) in zip(runs, orbits)]
        gaps = np.max(np.abs(ds[0] - fp) * (1.0 - np.abs(zs) ** 2), axis=1, initial=0.0).tolist()
        rows = tuple(GapRow(n=lv.n, t=lv.t, r=lv.r, w=lv.w, lower_bound=b, grid_gap=gap, cancellation=abs(d))
                     for lv, b, gap, d in zip(gc.levels, bounds, gaps, ds[1:]))
        reports.append(GapReport(rows=rows, delta_hat=min(bounds)))
    return reports


def bloch_gap_verdicts(gc: GapConstruction, reports) -> list:
    """The bloch-gap pass rules as (name, passed, value, threshold) tuples: a case-1
    construction's margins and time-vanishing (case 2's geometry rules read their thresholds
    from the config, in the CLI runner), three verdicts per ``bloch_gap`` report of ``gc`` in
    ``reports``, one per weight, and, given a report, that every weight's lower bounds equal
    the first weight's: they do not involve the weight."""
    out = []
    if gc.case == "radial-limit":
        worst = min(m for gm in gc.geom_margins() for m in (gm["first"], gm["second"]) if m is not None)
        shrink = gc.levels[-1].t / gc.levels[0].t
        out += [
            ("geometric-inequality-margins", worst >= GEOM_MARGIN, worst, GEOM_MARGIN),
            ("time-vanishing", shrink <= TIME_VANISHING, shrink, TIME_VANISHING),
        ]
    for idx, rep in enumerate(reports):
        cancel = max(r.cancellation / max(abs(r.lower_bound / (1.0 - r.r)), 1e-300) for r in rep.rows)
        excess = min(r.grid_gap - r.lower_bound for r in rep.rows)
        out += [
            (f"cancellation-weight-{idx}", cancel <= CANCELLATION_LIMIT, cancel, CANCELLATION_LIMIT),
            (f"grid-gap-dominates-bound-weight-{idx}", excess >= GRID_SLACK, excess, GRID_SLACK),
            (f"uniform-gap-weight-{idx}", rep.delta_hat > 0.0, rep.delta_hat, 0.0),
        ]
    if reports:
        first = reports[0].rows
        spread = max(abs(r.lower_bound - r0.lower_bound) for rep in reports for r, r0 in zip(rep.rows, first))
        out.append(("lower-bounds-weight-independent", spread == 0.0, spread, 0.0))
    return out


def _angle_time(a: complex, beta: float, u0: float, target: float) -> float:
    """The least t > 0 with arg(phi_t(1 + u0) - 1) = target for the group G = a + i beta z -
    conj(a) z^2, math.inf for none.

    phi_t is z -> ((1 + i beta tau/2) z + a tau) / (conj(a) tau z + 1 - i beta tau/2), from
    exp(tM) = cosh(mu t) I + sinh(mu t)/mu M, M = [[i beta/2, a], [conj(a), -i beta/2]],
    M^2 = mu^2 I, mu^2 = |a|^2 - beta^2/4, tau = tanh(mu t)/mu.  So phi_t(1 + u0) - 1 =
    (u0 + tau n1)/(1 + tau d1), and the residual s = Im(e^{-i target}(phi_t - 1)), which
    vanishes on the disc on the target ray alone (Re(phi_t - 1) < 0 there), is a real
    quadratic in tau over |1 + tau d1|^2.  Its roots, found in stable form, map back to t
    (atan, mod pi/nu, where mu = i nu; tau itself at mu = 0).  The group is scaled to
    max(|a|, |beta|) = 1 first, so no coefficient overflows.
    """
    scale = max(abs(a), abs(beta))
    a, beta = a / scale, beta / scale
    turn = cmath.exp(-1j * target)
    n1 = 1j * (2.0 * a.imag + beta) + (0.5j * beta - a.conjugate()) * u0
    d1_bar = a * (1.0 + u0) + 0.5j * beta  # conj(d1), d1 = conj(a)(1 + u0) - i beta/2
    c2, c1, c0 = (turn * n1 * d1_bar).imag, (turn * (n1 + u0 * d1_bar)).imag, (turn * u0).imag
    disc = c1 * c1 - 4.0 * c2 * c0
    q = -0.5 * (c1 + math.copysign(math.sqrt(max(disc, 0.0)), c1))
    taus = [] if disc < 0.0 or q == 0.0 else [c0 / q] + ([q / c2] if c2 else [])
    mu2 = abs(a) ** 2 - 0.25 * beta * beta
    mu = math.sqrt(abs(mu2))
    if mu2 > 0.0:
        ts = [math.atanh(mu * tau) / mu for tau in taus if abs(mu * tau) < 1.0]
    elif mu2 < 0.0:
        ts = [(math.atan(mu * tau) / mu) % (math.pi / mu) for tau in taus]
    else:
        ts = taus
    return min((t for t in ts if t > 0.0), default=math.inf) / scale


def construct_case2(flow: FlowModel, N: int = 6, t_first_cap: float = 1.0) -> GapConstruction:
    """Level construction for automorphism flows: r_n = 1 - 2^{-n}, t_n pinned
    by arg(phi_{t_n}(r_n) - 1) = +-3*pi/4.

    The group is read off its generator G(z) = a + i beta z - conj(a) z^2, and
    G(1) = i (2 Im a + beta) is the one number the construction needs: the group
    fixes 1 exactly when it is 0, and its sign is the half-plane the boundary orbit
    of 1 enters.  Any other flow, and a group with |2 Im a + beta| <=
    AUTOMORPHISM_TOL max(|a|, |beta|), the trivial flow G = 0 among them, is
    refused (CaseMismatch) before any orbit runs.  Level n's t_n is the least root
    of the angle equation, solved in closed form on (a, beta) (``_angle_time``), and
    w_n = flow.advance(r_n, t_n), one orbit run a level, so an integrated group is
    judged on its own orbit.  Rungs whose root lies above t_first_cap, or that have
    none, are skipped until the first level; a later root above 0.95 t_{n-1} ends in
    BisectionError, naming that root, as does the ladder's top rung below the escape
    radius, n = LADDER_TOP.
    """
    if N < 1:
        raise ValueError("need at least one level")
    group = automorphism_generator(flow)
    if group is None:
        raise CaseMismatch("flow is not an automorphism group: its generator is not a + i beta z - conj(a) z^2")
    a, beta = group
    side = 2.0 * a.imag + beta  # G(1) = i side, the boundary orbit's velocity at 1
    if abs(side) <= AUTOMORPHISM_TOL * max(abs(a), abs(beta)):
        raise CaseMismatch(f"G(1) = 0 (2 Im a + beta = {side!r}): 1 is a Denjoy-Wolff point of the flow, "
                           "or the flow is the trivial flow G = 0")
    target = math.copysign(3.0 * math.pi / 4.0, side)

    levels = []
    ratios = []
    for n in range(1, LADDER_TOP + 1):
        t = _angle_time(a, beta, -2.0 ** (-n), target)
        if levels and t > (cap := 0.95 * levels[-1].t):
            raise BisectionError(f"no root in (0, {cap:.3e}) at level n = {n}: the least is t = {t:.5e}")
        if t > t_first_cap:  # before the first level only: later roots lie below 0.95 t_1
            continue
        r = 1.0 - 2.0 ** (-n)
        w = flow.advance(r, t)
        levels.append(GapLevel(n=n, t=t, r=r, w=w))
        ratios.append((1.0 - w.real) / 2.0 ** (-n))
        if len(levels) == N:
            break
    else:
        raise BisectionError(f"angle equation gave {len(levels)} of {N} levels by depth {LADDER_TOP}")

    pts = [complex(lv.r) for lv in levels] + [lv.w for lv in levels]
    min_sep = min(_rho_rows(pts)[0][2])
    gc = GapConstruction(
        flow=flow,
        gamma0=1.0,
        levels=tuple(levels),
        case="automorphism",
        ratios=tuple(ratios),
        min_separation=min_sep,
        target_angle=target,
    )
    gc.validate()
    return gc


@record
class SeparabilityReport:
    rotations: tuple
    matrix: tuple  # upper-triangular grid Bloch gaps
    eps_hat: float | None


def reduce_rotations(rotations) -> list:
    """The angles modulo 2*pi, once no two of them coincide there."""
    rots = [float(th) % (2.0 * math.pi) for th in rotations]
    d = np.abs(np.subtract.outer(rots, rots))
    if np.triu(np.minimum(d, 2.0 * math.pi - d) < 1e-12, 1).any():
        raise ValueError("rotations must be distinct modulo 2*pi")
    return rots


def separability_witness(
    B: BlaschkeProduct, rotations, grid: GridSpec
) -> SeparabilityReport:
    """Pairwise grid Bloch gaps of the rotated family B_t(z) = B(e^{-it} z).

    Every pair staying a fixed distance apart is an uncountable discrete
    set, witnessing non-separability of any space containing the products.
    Each rotation is sampled once: its value at the origin, its slopes on the grid;
    a pair's gap is the Bloch grid norm of the difference of their samples.  The
    rotations are one (rotations, points) batch, with the operations of the tree
    B(gamma z), gamma = e^{-it}, in its order: gamma z + 0j, then B'(u) gamma
    (numpy's complex product is not commutative bit for bit).
    """
    rots = reduce_rotations(rotations)
    _refuse_repeated(B.zeros, _rho_rows(B.zeros)[0][2])  # reads no delta
    norm = BlochGridNorm(grid)
    gamma = np.array([cmath.exp(-1j * th) for th in rots], dtype=complex).reshape(-1, 1)  # one rotation a row
    samples = norm.sample(lambda z: B.eval(gamma * z + 0j), lambda z: B.jet(gamma * z + 0j)[1] * gamma)
    n = len(rots)
    matrix = np.zeros((n, n))
    for i in range(n):  # row i's gaps to the rotations after it
        matrix[i, i + 1:] = norm.reduce(samples[i] - samples[i + 1:])
    matrix += matrix.T
    eps_hat = float(matrix[np.triu_indices(n, 1)].min()) if n > 1 else None
    return SeparabilityReport(
        rotations=tuple(rots),
        matrix=tuple(map(tuple, matrix.tolist())),
        eps_hat=eps_hat,
    )
