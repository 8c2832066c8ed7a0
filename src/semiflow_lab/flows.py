"""Holomorphic semiflows on the unit disc.

Three constructions are supported: numerical integration of the defining
initial-value problem dw/dt = G(w), w(0) = z (adaptive DOP853, the
Dormand-Prince 8(5,3) pair), closed-form linearization models
phi_t = h^{-1}(e^{-ct} h) and phi_t = h^{-1}(h + ct) through a conformal
map h, and disc-automorphism families.  All flow objects are immutable and
their operations pure.
``advance`` and ``advance_with_derivative`` take one start point or an
ndarray of them; a batch shares one adaptive step sequence.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from functools import cached_property, lru_cache

import numpy as np

from .analytic import AnalyticFn, Compose, Constant, Mobius, Polynomial, Product, Quotient, fn_from_json
from .analytic import orbit_system
from .errors import (
    ConfigError,
    DomainError,
    EscapeError,
    InverseError,
    ModelError,
    NoConvergence,
    SingularityError,
    config_flag,
    config_integer,
    config_number,
    config_object,
    config_pair,
    config_parser,
    config_positive,
    json_form,
    record,
)
from .pointwise import exp, full, legs, nonfinite, outside, points, raise_at, times, two_legs, where

ESCAPE_RADIUS = 1.0 - 1e-12
DEFAULT_TOL = 1e-10
MAX_STEPS = 10_000
# A Newton iterate this far out has left the basin of any preimage in the disc.
NEWTON_BOUND = 1e6

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10; autonomous right-hand sides, so no c nodes).  Row i of _A
# forms the input of stage i + 1 from stages 1..i; _B gives the eighth-order
# solution, whose right-hand side is stage 13, the first stage of the next
# step (first same as last).  _E5 and _E3 act on all 13 stages and give the
# fifth- and third-order error estimates.
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_E5 = (
    1.312004499419488073250102996e-2, 0.0, 0.0, 0.0, 0.0, -1.225156446376204440720569753,
    -4.957589496572501915214079952e-1, 1.664377182454986536961530415,
    -3.503288487499736816886487290e-1, 3.341791187130174790297318841e-1,
    8.192320648511571246570742613e-2, -2.235530786388629525884427845e-2, 0.0,
)
_E3 = (
    -1.898007540724076157147023288757e-1, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    -4.22682321323791962932445679177e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 2.26517921983608258118062039631e-2, 0.0,
)


# The work counted in the open ``counting`` block of this context, if any.
_COUNTS = contextvars.ContextVar("work_counts", default=None)


@contextlib.contextmanager
def counting():
    """A dict of the work done inside the block, summed over its calls: the
    integrator's runs, accepted and rejected trial steps and right-hand-side
    evaluations (``_integrate``) and Newton's passes (``ConformalMap.inverse_at``).
    Each call counts in locals and adds its counts once, as it returns or
    raises; a refused run's last trial step counts in full."""
    counts = dict.fromkeys(("integrator_runs", "accepted_steps", "rejected_steps", "rhs_evals",
                            "newton_iterations"), 0)
    token = _COUNTS.set(counts)
    try:
        yield counts
    finally:
        _COUNTS.reset(token)


def _count(**work):
    counts = _COUNTS.get()
    if counts is not None:
        for key, n in work.items():
            counts[key] += n


def _integrate(rhs, y0, t_end, tol: float):
    """Adaptive DOP853 from 0 to t_end; returns the state as a tuple of components.

    y0 is a tuple of complex components, and y[0] is the disc state, which is
    escape-guarded.  A Python-complex start keeps the state as a tuple of
    Python complexes.  An ndarray start y0[0] is a batch: the state is one
    complex array of shape (components, points), a scalar component spread
    over the points, so each stage is one numpy expression over the whole
    array; rhs gets that array (its rows are the components) and returns the
    stage as one such array (an ``orbit_system`` does) or one row per
    component.  The points of a batch share one step sequence; the fifth- and
    third-order error norms are each the largest scaled error over the points
    and components, and ``_error`` blends them.

    t_end is a float, or, for a batch, an ndarray of non-negative end times,
    one per point.  Per-point end times rescale time: the loop runs to the
    longest time T = max t_i and integrates dy/ds = (t_i / T) rhs(y), so every
    point ends at s = T under the same shared steps, which start as a scalar
    run to T starts.  A point with t_i = 0 stays where it is, and a batch
    whose times are all 0 returns its start.
    """
    scale = None
    if isinstance(t_end, np.ndarray):
        longest = float(t_end.max(initial=0.0))
        scale, t_end = (t_end / longest if longest > 0.0 else t_end), longest
    if isinstance(y0[0], np.ndarray):
        y, step = np.array([full(y0[0], c) for c in y0]), _stacked_step
        unstacked = rhs

        def rhs(y):
            k = np.asarray(unstacked(y))
            return k if scale is None else scale * k
    else:
        y = tuple(complex(c) for c in y0)
        step = _tuple_step(len(y))
    steps = accepted = evals = 0
    try:
        raise_at(abs(y[0]) >= ESCAPE_RADIUS, y[0], EscapeError, "initial state {} at the escape radius")
        if t_end == 0.0:
            return tuple(y)
        t = 0.0
        h = min(t_end, 0.1)
        evals = 1  # k1, then stages 2-12 and k_new of each trial step
        k1 = rhs(y)
        speed = float(abs(k1[0]).max()) if step is _stacked_step else abs(k1[0])
        h = min(h, 1.0 / speed) if speed > 10.0 else h  # from near a pole of G, a step of 0.1 leaps it
        while t < t_end:
            if steps >= MAX_STEPS:
                raise EscapeError("step budget exhausted; tolerance unattainable")
            steps += 1
            h = min(h, t_end - t)
            y_new, k_new, err = step(rhs, y, k1, h, tol)
            if err <= 1.0:
                accepted += 1
                t += h
                y, k1 = y_new, k_new
                modulus = abs(y[0])
                raise_at(modulus >= ESCAPE_RADIUS, modulus, EscapeError,
                         "trajectory reached |w| = {:.17f} at t = {}", t if scale is None else t * scale)
            factor = 0.9 * err ** -0.125 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
            if h <= 0.0 or not math.isfinite(h):
                raise EscapeError("step size collapsed")
        return tuple(y)
    finally:
        _count(integrator_runs=1, accepted_steps=accepted, rejected_steps=steps - accepted,
               rhs_evals=evals + len(_A) * steps)


def _error(n5, n3):
    """The combined estimate n5^2 / sqrt(n5^2 + 0.01 n3^2) from the scaled
    fifth- and third-order error norms, in a form whose squares cannot
    underflow to 0 / 0."""
    return 0.0 if n5 == 0 else n5 / math.hypot(1.0, 0.1 * n3 / n5)


@lru_cache(maxsize=None)  # one function per component count: 1, 2 and 4 in the package
def _tuple_step(components: int):
    """One DOP853 trial step on a tuple of ``components`` Python complexes,
    step(rhs, y, k1, h, tol) -> (y_new, k_new, err), as straight-line code.

    Every stage sum is sum(map(mul, row, stages)) written out: a leading int
    0, then each nonzero tableau term in order.  The int 0 keeps every partial
    sum off -0.0 (an int 0 plus -0.0 is 0.0), so the dropped terms, +-0.0 at
    a finite stage, leave each sum that expression's bit for bit."""
    comps = range(components)

    def names(stage):
        return "".join(f"s{stage}_{c}, " for c in comps)

    def combination(row, c):
        return "0" + "".join(f" + {r!r} * s{i}_{c}" for i, r in enumerate(row) if r)

    lines = ["def step(rhs, y, k1, h, tol):", f"    {''.join(f'y{c}, ' for c in comps)}= y",
             f"    {names(0)}= k1"]
    for i, row in enumerate(_A[1:], 1):
        stage = "".join(f"y{c} + h * ({combination(row, c)}), " for c in comps)
        lines.append(f"    {names(i)}= rhs(({stage}))")
    lines += [f"    y_new = ({''.join(f'y{c} + h * ({combination(_B, c)}), ' for c in comps)})",
              "    k_new = rhs(y_new)", f"    {names(12)}= k_new", "    n5 = n3 = 0.0"]
    for c in comps:
        lines += [f"    scale = tol + tol * max(abs(y{c}), abs(y_new[{c}]))",
                  f"    n5 = max(n5, abs({combination(_E5, c)}) / scale)",
                  f"    n3 = max(n3, abs({combination(_E3, c)}) / scale)"]
    lines.append("    return y_new, k_new, _error(h * n5, h * n3)")
    namespace = {"_error": _error}
    exec(compile("\n".join(lines), f"<DOP853 step, {components} components>", "exec"), namespace)
    return namespace["step"]


# The tableau rows as float64 arrays, as numpy converts the tuples: the same products, built once.
_A_ROWS, _B_ROW, _E5_ROW, _E3_ROW = [np.array(row) for row in _A], np.array(_B), np.array(_E5), np.array(_E3)


def _stacked_step(rhs, y, k1, h, tol):
    """One DOP853 trial step on a (components, points) array: (y_new, k_new, err)."""
    K = np.empty((13,) + y.shape, complex)
    flat = K.reshape(13, -1)  # a view: row @ flat[:i] sums the first i stages
    K[0] = k1
    for i in range(1, 12):
        K[i] = rhs(y + h * (_A_ROWS[i] @ flat[:i]).reshape(y.shape))
    y_new = y + h * (_B_ROW @ flat[:12]).reshape(y.shape)
    K[12] = rhs(y_new)
    scale = tol + tol * np.maximum(abs(y), abs(y_new))
    n5 = float((abs(_E5_ROW @ flat).reshape(y.shape) / scale).max())
    n3 = float((abs(_E3_ROW @ flat).reshape(y.shape) / scale).max())
    return y_new, K[12], _error(h * n5, h * n3)


@record
class NewtonInverse:
    """Newton iteration policy for maps without a closed-form inverse; each
    caller seeds the iteration itself."""

    max_iter: int = 50
    tol: float = 1e-12


@record
class ConformalMap:
    """A conformal map h with either a closed-form or a Newton inverse."""

    forward: AnalyticFn
    inverse: AnalyticFn | None = None
    newton: NewtonInverse = NewtonInverse()

    def map(self, z):
        return self.forward.eval_anywhere(z)

    def map_derivative(self, z):
        return self.forward.jet(z)[1]

    def inverse_at(self, w, seed):
        """h^{-1}(w) at a point or an array of points.

        Newton starts at ``seed`` (one start, or one per point) and iterates
        the whole batch; a point stops moving once it has converged, and the
        call fails if any point does not converge or an iterate leaves
        |x| <= NEWTON_BOUND.  A closed-form inverse ignores the seed.  Each
        pass, one forward jet on the batch, counts toward ``newton_iterations``.
        """
        if self.inverse is not None:
            return self.inverse.eval_anywhere(w)
        w = points(w)
        x = full(w, seed)
        miss = True
        passes = 0
        try:
            for passes in range(1, self.newton.max_iter + 1):
                fx, dfx = self.forward.jet(x)
                miss = abs(fx - w) > self.newton.tol
                if not np.any(miss):
                    return x
                raise_at(miss & (dfx == 0), w, InverseError, "critical point hit while inverting at {}")
                x = where(miss, x - (fx - w) / dfx, x)
                raise_at(nonfinite(x) | (abs(x) > NEWTON_BOUND), w, InverseError,
                         "Newton diverged inverting at {}")
            raise_at(miss, w, InverseError, "Newton did not converge inverting at {}")
        finally:
            _count(newton_iterations=passes)

    def to_json(self):
        if self.inverse is None:
            return {"forward": json_form(self.forward), "newton": json_form(self.newton)}
        return {"forward": json_form(self.forward), "inverse": json_form(self.inverse)}


def mobius_map(a, b, c, d) -> ConformalMap:
    m = Mobius(a, b, c, d)
    return ConformalMap(forward=m, inverse=m.inverse())


def identity_map() -> ConformalMap:
    return mobius_map(1.0, 0.0, 0.0, 1.0)


def cayley_map() -> ConformalMap:
    """(1+z)/(1-z): the disc onto the right half-plane, -1 -> 0, 1 -> infinity."""
    return mobius_map(1.0, 1.0, -1.0, 1.0)


def reflected_cayley_map() -> ConformalMap:
    """(1-z)/(1+z): the disc onto the right half-plane, 1 -> 0, -1 -> infinity."""
    return mobius_map(-1.0, 1.0, 1.0, 1.0)


def _check_start(z, t):
    """(z, t) as ``pointwise.times`` gives them, once z lies in the open disc
    and every time is >= 0."""
    z, t = times(points(z), t)
    raise_at(abs(z) >= 1.0, z, DomainError, "{} not inside the open unit disc")
    if np.any(t < 0):
        raise ValueError("semiflow time must be >= 0")
    return z, t


def _check_inside(w, error, what: str):
    raise_at(outside(w), w, error, what + " left the disc at {}")
    return w


class FlowModel:
    """Common interface: closed-form or integrated evaluation of phi_t.

    z is one start point or an ndarray of them; the result has its shape.
    t is one time, or an ndarray with a time per point.  Every integration
    along an orbit (the cocycle sweep too) runs at the flow's ``tol``.
    """

    tol = DEFAULT_TOL

    def advance(self, z, t):
        z, t = _check_start(z, t)
        if isinstance(t, float) and t == 0.0:
            return z
        return _check_inside(self._advance(z, t), EscapeError, "flow")

    def advance_with_derivative(self, z, t):
        z, t = _check_start(z, t)
        if isinstance(t, float) and t == 0.0:
            return z, full(z, 1.0)
        w, dw = self._advance_with_derivative(z, t)
        return _check_inside(w, EscapeError, "flow"), dw

    def _advance(self, z, t):
        raise NotImplementedError

    def _advance_with_derivative(self, z, t):
        raise NotImplementedError

    def generator_fn(self) -> AnalyticFn:
        """The vector field G = d phi_t / dt at t = 0, as an expression tree."""
        raise NotImplementedError


@record
class OdeFlow(FlowModel):
    """The solution of dw/dt = G(w), w(0) = z, by adaptive DOP853 at ``tol``."""

    json_tag = {"type": "ode"}
    G: AnalyticFn
    tol: float = DEFAULT_TOL

    def _advance(self, z, t):
        G = self.G
        y = _integrate(lambda y: (G.eval_anywhere(y[0]),), (z,), t, self.tol)
        return y[0]

    def _advance_with_derivative(self, z, t):
        y = _integrate(self._variational_flow, (z, 1.0), t, self.tol)
        return y[0], y[1]

    @cached_property
    def _variational_flow(self):
        """(w, v) -> (G(w), G'(w) v), compiled once per flow."""
        return orbit_system(self.G)

    def generator_fn(self):
        return self.G


def ode_flow(G: AnalyticFn, tol: float = DEFAULT_TOL) -> OdeFlow:
    return OdeFlow(G, tol)


@record
class KoenigsFlow(FlowModel):
    """phi_t = h^{-1}(L_t h(z)), with L_t u = e^{-ct} u (mode 'spiral') or
    u + ct (mode 'translate').

    ``koenigs_flow`` checks a spiral's h(0) = 0 and Re c >= 0; the hyperbolic
    automorphism is a spiral with a half-plane h and c < 0, and a translate's
    image domain must absorb the ray +ct.
    """

    json_tag = {"type": "koenigs"}
    h: ConformalMap
    c: complex
    mode: str

    def __post_init__(self):
        if self.mode not in ("spiral", "translate"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "c", complex(self.c))

    def _advance(self, z, t):
        if self.mode == "spiral":
            u = exp(-self.c * t) * self.h.map(z)
        else:
            u = self.h.map(z) + self.c * t
        return _check_inside(self.h.inverse_at(u, seed=z), InverseError, "inverse")

    def _advance_with_derivative(self, z, t):
        w = self._advance(z, t)
        dh = self.h.map_derivative(z)
        if self.mode == "spiral":
            dh = exp(-self.c * t) * dh
        return w, dh / self.h.map_derivative(w)

    def generator_fn(self):
        # d/dt h^{-1}(L_t h(z)) at t = 0: -c h(z)/h'(z) or c/h'(z)
        if self.mode == "spiral":
            return Product(
                (Constant(-self.c), Quotient(self.h.forward, self.h.forward.derivative()))
            )
        return Quotient(Constant(self.c), self.h.forward.derivative())


def koenigs_flow(h: ConformalMap, c: complex, mode: str) -> KoenigsFlow:
    """Build a closed-form flow from a linearization map h and rate c."""
    if mode == "spiral":
        if abs(h.map(0.0)) > 1e-12:
            raise ModelError("spiral model requires h(0) = 0")
        if complex(c).real < 0:
            raise ModelError("spiral model requires Re c >= 0")
    return KoenigsFlow(h, c, mode)


# Each kind and the fields it reads; a field of another kind keeps its default.
_AUTOMORPHISM_KEYS = {"elliptic": ("omega",), "hyperbolic": ("rate", "reflect"), "parabolic": ("speed", "reflect")}


@record
class Automorphism(FlowModel):
    """One-parameter automorphism group, restricted to t >= 0.

    kinds: 'elliptic' (rotation e^{i omega t} z about 0), 'hyperbolic'
    (Cayley-conjugated dilation e^{rate t} on the half-plane, fixed points
    +-1), 'parabolic' (conjugated vertical translation w + i*speed*t; the
    boundary fixed point sits at 1, or at -1 when reflect is set).  A field
    that the kind does not read is refused unless it keeps its default.
    """

    json_tag = {"type": "automorphism"}
    kind: str
    omega: float = 0.0
    rate: float = 0.0
    speed: float = 0.0
    reflect: bool = False

    def __post_init__(self):
        if self.kind not in _AUTOMORPHISM_KEYS:
            raise ModelError(f"unknown automorphism kind {self.kind!r}")
        unread = [key for key, default in self._record_fields.items()
                  if key != "kind" and key not in _AUTOMORPHISM_KEYS[self.kind] and getattr(self, key) != default]
        if unread:
            raise ModelError(f"an automorphism of kind {self.kind!r} does not read {', '.join(unread)}")

    def to_json(self):
        keys = _AUTOMORPHISM_KEYS[self.kind]
        return {**self.json_tag, "kind": self.kind, **{key: getattr(self, key) for key in keys}}

    @cached_property
    def _model(self) -> FlowModel:
        if self.kind == "elliptic":
            return KoenigsFlow(identity_map(), -1j * self.omega, "spiral")
        h = reflected_cayley_map() if self.reflect else cayley_map()
        if self.kind == "hyperbolic":
            # the dilation e^{rate t} of the half-plane h(D)
            return KoenigsFlow(h, -self.rate, "spiral")
        return KoenigsFlow(h, 1j * self.speed, "translate")

    def _advance(self, z, t):
        return self._model._advance(z, t)

    def _advance_with_derivative(self, z, t):
        return self._model._advance_with_derivative(z, t)

    def generator_fn(self):
        return self._model.generator_fn()


@record
class RotatedFlow(FlowModel):
    """Conjugation psi_t(z) = conj-rotation gamma^{-1} phi_t(gamma z).

    Moves the boundary point gamma to 1 so constructions can assume the
    normalized base point.
    """

    json_tag = {"type": "rotated"}
    inner: FlowModel
    gamma: complex

    def __post_init__(self):
        g = complex(self.gamma)
        if abs(abs(g) - 1.0) > 1e-12:
            raise ModelError("rotation factor must be unimodular")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "tol", self.inner.tol)

    def _advance(self, z, t):
        return self.inner._advance(self.gamma * z, t) / self.gamma

    def _advance_with_derivative(self, z, t):
        w, dw = self.inner._advance_with_derivative(self.gamma * z, t)
        return w / self.gamma, dw

    def generator_fn(self):
        G = self.inner.generator_fn()
        return Product((Constant(1.0 / self.gamma), Compose(G, Polynomial((0.0, self.gamma)))))


# ---------------------------------------------------------------------------
# Flow operations


def check_semigroup(flow: FlowModel, z, s, t):
    """Residual |phi_{s+t}(z) - phi_t(phi_s(z))|, at a point or at each point
    of an array, with times s and t shared or given per point.

    The legs z -> s and z -> s + t are one batch [z, z] with end times
    [s, s + t]; the run from phi_s(z) to t is the second and last.  One
    point is a two-point batch too, and its residual a float."""
    w_s, direct = legs(flow.advance(*two_legs(z, s, t)))
    return abs(direct - flow.advance(w_s, t))


def _check_ladder(steps) -> list:
    """steps as a list, once they are positive and strictly decreasing."""
    steps = list(steps)
    if not steps or any(h <= 0 for h in steps):
        raise ValueError("ladder must be positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("ladder must be decreasing")
    return steps


def extrapolate_to_zero(hs, vals):
    """Neville polynomial extrapolation of samples (h_i, v_i) to h = 0; each
    v_i is a value or an array of values, one per point."""
    hs = [float(h) for h in hs]
    tab = [points(v) for v in vals]
    n = len(tab)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * hs[i] / (hs[i - j] - hs[i])
    return tab[-1]


def _ladder_slope(h_ladder, z, value, start):
    """(value(h) - start)/h over the decreasing ladder, extrapolated to h = 0.
    One call of ``value`` takes every rung: a column of times against z, so
    row i of the (rungs, *z.shape) batch is at h_i."""
    h_ladder = _check_ladder(h_ladder)
    hs = np.reshape(h_ladder, (-1,) + (1,) * np.ndim(z))
    return extrapolate_to_zero(h_ladder, (value(hs) - start) / hs)


def generator_fd(flow: FlowModel, z, h_ladder):
    """Finite-difference estimate of the vector field: extrapolate (phi_h(z)-z)/h.

    The orbit is smooth in t, so the one-sided difference has an error series
    in powers of h and polynomial extrapolation eliminates it order by order.
    z is a point or an array of points; one call advances every rung.
    """
    z = points(z)
    return _ladder_slope(h_ladder, z, lambda hs: flow.advance(z, hs), z)


@record
class BoundaryOrbit:
    limit: complex
    converged: bool
    verdict: str  # 'inside' or 'boundary'
    increments: tuple


def boundary_orbit(flow: FlowModel, gamma0: complex, t: float) -> BoundaryOrbit:
    """Radial limit of phi_t toward the boundary point gamma0.

    Advances the ladder r = 1 - 2^-j (j = 3, ..., 30) in one call,
    Aitken-extrapolates the values, flags convergence when the Cauchy
    increments drop below 1e-6 and reports whether the limit lands strictly
    inside the disc.
    """
    if t <= 0:
        raise ValueError("boundary orbit needs t > 0")
    gamma0 = complex(gamma0)
    if gamma0 == 0:
        raise ValueError("gamma0 must be unimodular")
    gamma0 /= abs(gamma0)
    vals = flow.advance((1.0 - 2.0 ** -np.arange(3.0, 31.0)) * gamma0, t).tolist()
    incs = [abs(b - a) for a, b in zip(vals, vals[1:])]  # 27 increments of the 28 rungs
    head = max(incs[:3])
    tail = max(incs[-3:])
    # a radial limit shrinks the tail by orders of magnitude; a tail
    # comparable to the head means the values are bouncing, not settling
    if tail > 1e-6 and tail > 1e-3 * head:
        raise NoConvergence("radial increments are not decaying")
    limit = vals[-1]
    d1 = vals[-2] - vals[-3]
    d2 = vals[-1] - vals[-2]
    dd = d2 - d1
    if abs(d1) > 0 and abs(dd) > 1e-300 and abs(d2 / d1) < 0.95:
        limit = vals[-1] - d2 * d2 / dd  # Aitken acceleration of the tail
    converged = incs[-1] < 1e-6
    verdict = "inside" if abs(limit) < 1.0 - 1e-6 else "boundary"
    return BoundaryOrbit(
        limit=limit, converged=converged, verdict=verdict, increments=tuple(incs)
    )


# ---------------------------------------------------------------------------
# Automorphism groups

# The largest residual of the automorphism form, relative to the generator's size, and
# the largest |G(1)| of a group that case 2 reads as fixing 1, relative to max(|a|, |beta|).
AUTOMORPHISM_TOL = 1e-9
_FORM_POINTS = np.append(0.0, 0.5 * np.exp(2j * np.pi * np.arange(3) / 3))  # 0 and three points of |z| = 1/2


def automorphism_generator(flow: FlowModel):
    """(a, beta) when the flow's generator is G(z) = a + i beta z - conj(a) z^2 with beta
    real, as the generators of the disc's one-parameter automorphism groups are (Berkson &
    Porta, Michigan Math. J. 25, 1978); None for any other generator.  One jet of the tree
    gives a = G(0) and i beta = G'(0) and checks the form at three points of |z| = 1/2,
    relative to the largest of |a|, |G'(0)| and |G| there.  No orbit is integrated."""
    try:
        values, slopes = flow.generator_fn().jet(_FORM_POINTS)
    except SingularityError:  # a pole or a guard at those points: no polynomial
        return None
    a, beta, z = complex(values[0]), float(slopes[0].imag), _FORM_POINTS[1:]
    residual = float(abs(values[1:] - (a + 1j * beta * z - a.conjugate() * z * z)).max())
    fits = residual <= AUTOMORPHISM_TOL * max(abs(a), abs(slopes[0]), float(abs(values).max()))
    return (a, beta) if fits else None  # a NaN residual fits nothing


@config_parser
def flow_from_json(obj: dict) -> FlowModel:
    """Rebuild a flow from its JSON form; every number goes through the typed
    config checks, so a string where a number belongs is a ConfigError."""
    kind = obj["type"]
    if kind == "ode":
        return ode_flow(fn_from_json(obj["G"]), config_positive("tol", obj.get("tol", DEFAULT_TOL)))
    if kind == "koenigs":
        try:
            return koenigs_flow(map_from_json(obj["h"]), config_pair("c", obj["c"]), obj["mode"])
        except ModelError as exc:  # a spiral's h(0) != 0 or Re c < 0: the config is at fault
            raise ConfigError(str(exc)) from exc
    if kind == "automorphism":
        if obj["kind"] not in _AUTOMORPHISM_KEYS:
            raise ConfigError(f"unknown automorphism kind {obj['kind']!r}")
        defaults = Automorphism._record_fields
        return Automorphism(kind=obj["kind"], **{
            key: (config_flag if key == "reflect" else config_number)(key, obj.get(key, defaults[key]))
            for key in _AUTOMORPHISM_KEYS[obj["kind"]]})
    if kind == "rotated":
        gamma = config_pair("gamma", obj["gamma"])  # read before the inner flow, whose build can end the run
        if abs(abs(gamma) - 1.0) > 1e-12:
            raise ConfigError(f"config key 'gamma' must be unimodular, got {gamma}")
        return RotatedFlow(flow_from_json(obj["inner"]), gamma)
    raise ConfigError(f"unknown flow type {kind!r}")


@config_parser
def map_from_json(obj) -> ConformalMap:
    if isinstance(obj, str):
        named = {
            "identity": identity_map,
            "cayley": cayley_map,
            "reflected_cayley": reflected_cayley_map,
        }
        if obj not in named:
            raise ConfigError(f"unknown named map {obj!r}")
        return named[obj]()
    forward = fn_from_json(obj["forward"])
    if "inverse" in obj:
        return ConformalMap(forward=forward, inverse=fn_from_json(obj["inverse"]))
    nt = config_object("newton", obj.get("newton", {}))
    return ConformalMap(
        forward=forward,
        newton=NewtonInverse(
            max_iter=config_integer("max_iter", nt.get("max_iter", 50)),
            tol=config_positive("tol", nt.get("tol", 1e-12)),
        ),
    )
