"""Expression trees for functions analytic on the unit disc.

Trees are immutable.  Evaluation takes one point, a Python complex, or a
batch, a complex ndarray, through the same code (see ``pointwise``).  Each
node has one differentiation rule, its Taylor-mode jet ``_jet(z, order)``
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13):
the tuple of the order + 1 coefficients f(z), f'(z), ..., f^(k)(z)/k!, every
one from the node's recurrence.  Products and compositions go through two
series helpers, ``_cauchy`` and ``_compose``, which keep the product and chain
rules' operation order at orders 0 and 1.  ``derivative()`` returns a
``Derivative`` node, which reads its argument's jet one order higher.
Quotient and Log carry explicit singularity guards: small excluded discs
around known zeros of the denominator / argument, as a Mobius derivative
does around a pole in the disc.  Evaluation either returns finite values or
raises; it never returns inf/nan.  A batch raises the error of the first
point that would raise on its own.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from operator import add, mul, sub

import numpy as np

from .errors import ConfigError, DomainError, SingularityError, config_integer, config_number
from .errors import config_pair, config_parser, config_positive, json_form, record
from .pointwise import exp, full, log, nonfinite, points, raise_at

DEFAULT_GUARD_RADIUS = 1e-9


def guard_points(points, radius: float = DEFAULT_GUARD_RADIUS):
    """Build a guard set (excluded discs) from a list of singular points."""
    return tuple((complex(p), float(radius)) for p in points)


class AnalyticFn:
    """Base node.  Subclasses implement ``_jet``: at every order k it returns
    the tuple of the k + 1 Taylor coefficients.  A coefficient that does not
    depend on z stays a bare complex in ``_jet``; the entry points spread it
    over a batch once."""

    guards: tuple = ()

    def eval(self, z):
        """Evaluate at a point of the open unit disc, or at each point of an array."""
        z = points(z)
        raise_at(abs(z) >= 1.0, z, DomainError, "{} is not inside the open unit disc")
        w, = self._jet(z, 0)
        raise_at(nonfinite(w), z, SingularityError, "non-finite value at {}")
        return full(z, w)

    __call__ = eval

    def eval_anywhere(self, z):
        """Evaluate without the disc check (for maps whose range leaves the disc)."""
        z = points(z)
        w, = self._jet(z, 0)
        raise_at(nonfinite(w), z, SingularityError, "non-finite value at {}")
        return full(z, w)

    def jet(self, z):
        """(f(z), f'(z)) from one pass over the tree, without the disc check."""
        z = points(z)
        w, dw = self._jet(z, 1)
        raise_at(nonfinite(w) | nonfinite(dw), z, SingularityError, "non-finite value at {}")
        return full(z, w), full(z, dw)

    def derivative(self) -> "AnalyticFn":
        """f' as a node that reads this tree's jets one order higher."""
        return Derivative(self)

    def _check_guards(self, z) -> None:
        for center, radius in self.guards:
            raise_at(abs(z - center) <= radius, z, SingularityError,
                     "{} inside guard disc around {}", center)


_ZERO, _ONE = 0j, 1 + 0j


def _cauchy(a, b) -> tuple:
    """The product of two truncated series of one length (a convolution).
    Coefficient 1 is a_0 b_1 + a_1 b_0, the product rule."""
    if len(a) < 3:  # orders 0 and 1 pay for no generic sum
        return (a[0] * b[0],) if len(a) == 1 else (a[0] * b[0], a[0] * b[1] + a[1] * b[0])
    return tuple(reduce(add, [a[i] * b[j - i] for i in range(j + 1)]) for j in range(len(a)))


def _compose(outer, inner) -> tuple:
    """Coefficients 1.. of v(u), from v's coefficients at u_0 and u's: the sum
    over m >= 1 of v_m (u - u_0)^m.  Coefficient 1 is v_1 u_1, the chain rule.
    A short ``outer`` stands for a v whose later coefficients vanish."""
    if len(outer) == 1:  # a v constant near u_0, or order 0
        return (_ZERO,) * (len(inner) - 1)
    if len(inner) == 2:  # order 1 pays for no series
        return (outer[1] * inner[1],)
    rise = (_ZERO, *inner[1:])  # u - u_0
    power, total = rise, (_ZERO, *[outer[1] * c for c in inner[1:]])
    for v in outer[2:]:
        power = _cauchy(power, rise)
        total = tuple(t + v * c for t, c in zip(total, power))
    return total[1:]


@record
class Constant(AnalyticFn):
    json_tag = {"op": "const"}
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _jet(self, z, order):
        return (self.value,) + (_ZERO,) * order


@record
class Identity(AnalyticFn):
    json_tag = {"op": "id"}

    def _jet(self, z, order):
        return (z, _ONE) + (_ZERO,) * (order - 1) if order else (z,)


def _horner(coeffs, z):
    acc = coeffs[-1] if coeffs else _ZERO  # a constant stays bare
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


@record
class Polynomial(AnalyticFn):
    """Coefficients a_0..a_d, evaluated by Horner's rule."""

    json_tag = {"op": "poly"}
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @cached_property
    def _slopes(self) -> tuple:
        """The derivative's coefficients k a_k, k = 1..d."""
        return tuple(k * c for k, c in enumerate(self.coeffs))[1:]

    def _jet(self, z, order):
        value = _horner(self.coeffs, z)
        if order < 2:  # Horner's rule for the slope too
            return (value, _horner(self._slopes, z)) if order else (value,)
        # coefficient j of p is coefficient j - 1 of p', over j
        slopes = Polynomial(self._slopes)._jet(z, order - 1)
        return (value, slopes[0], *[c / j for j, c in enumerate(slopes[1:], 2)])


@record
class Mobius(AnalyticFn):
    """(a z + b)/(c z + d) with ad - bc != 0."""

    json_tag = {"op": "mobius"}
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.a * self.d - self.b * self.c) == 0.0:
            raise ValueError("degenerate Mobius map (ad - bc = 0)")
        pole = -self.d / self.c if self.c != 0 else math.inf
        object.__setattr__(self, "guards", guard_points([pole]) if abs(pole) < 1.0 else ())

    def _jet(self, z, order):
        den = self.c * z + self.d
        if not order:
            raise_at(den == 0, z, SingularityError, "Mobius pole at {}")
            return ((self.a * z + self.b) / den,)
        square = den ** 2  # zero wherever den is, so one check serves both
        raise_at(square == 0, z, SingularityError, "Mobius pole at {}")
        self._check_guards(z)  # the derivatives' guard disc around a pole in the disc
        coeffs = ((self.a * z + self.b) / den, (self.a * self.d - self.b * self.c) / square)
        for _ in range(order - 1):  # f_j = (ad - bc) (-c)^(j-1) / den^(j+1)
            coeffs += (coeffs[-1] * -self.c / den,)
        return coeffs

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


@record
class Exp(AnalyticFn):
    json_tag = {"op": "exp"}
    arg: AnalyticFn

    def _jet(self, z, order):
        u = self.arg._jet(z, order)
        coeffs = (exp(u[0]),)
        if not order:
            return coeffs
        # an overflowed value makes the coefficients inf or nan, which the
        # finiteness mask of jet refuses with a SingularityError naming the point
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, order + 1):  # j f_j = sum_i i u_i f_(j-i), from f' = f u'
                coeffs += (reduce(add, [i * u[i] * coeffs[j - i] for i in range(1, j + 1)]) / j,)
        return coeffs


@record
class Log(AnalyticFn):
    """Principal-branch logarithm of ``arg``.

    The guard set must cover the zeros of ``arg``.  Integrals of
    logarithmic derivatives elsewhere in the package are accumulated
    additively and exponentiated once, so no branch tracking happens here.
    """

    json_tag = {"op": "log"}
    arg: AnalyticFn
    guards: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "guards", tuple(self.guards))

    def _jet(self, z, order):
        self._check_guards(z)
        u = self.arg._jet(z, order)
        raise_at(u[0] == 0, z, SingularityError, "log of zero at {}")
        coeffs = (log(u[0]),)
        for j in range(1, order + 1):  # u_0 f_j = u_j - sum_(0<i<j) (i/j) f_i u_(j-i), from u f' = u'
            coeffs += (reduce(sub, [i * coeffs[i] * u[j - i] / j for i in range(1, j)], u[j]) / u[0],)
        return coeffs


@record
class Sum(AnalyticFn):
    json_tag = {"op": "sum"}
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def _jet(self, z, order):
        if not self.terms:
            return (_ZERO,) * (order + 1)
        return tuple(reduce(add, column) for column in zip(*[t._jet(z, order) for t in self.terms]))


@record
class Product(AnalyticFn):
    json_tag = {"op": "product"}
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def _jet(self, z, order):
        if not self.factors:
            return (_ONE,) + (_ZERO,) * order
        return reduce(_cauchy, [f._jet(z, order) for f in self.factors])


@record
class Quotient(AnalyticFn):
    json_tag = {"op": "quotient"}
    num: AnalyticFn
    den: AnalyticFn
    guards: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "guards", tuple(self.guards))

    def _jet(self, z, order):
        self._check_guards(z)
        d = self.den._jet(z, order)
        raise_at(d[0] == 0, z, SingularityError, "denominator vanishes at {}")
        n = self.num._jet(z, order)
        coeffs = (n[0] / d[0],)
        for j in range(1, order + 1):  # d_0 q_j = n_j - sum_(i>=1) d_i q_(j-i), from d q = n
            coeffs += ((n[j] - reduce(add, map(mul, d[1:j + 1], reversed(coeffs)))) / d[0],)
        return coeffs


@record
class Compose(AnalyticFn):
    json_tag = {"op": "compose"}
    outer: AnalyticFn
    inner: AnalyticFn

    def _jet(self, z, order):
        u = self.inner._jet(z, order)
        v = self.outer._jet(u[0], order)
        return (v[0], *_compose(v, u))


@record
class Power(AnalyticFn):
    json_tag = {"op": "power"}
    arg: AnalyticFn
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))

    def _jet(self, z, order):
        w = self.arg._jet(z, order)
        base = w[0]
        if self.k < 0:
            raise_at(base == 0, z, SingularityError, "negative power of zero at {}")
        # t^k's coefficients C(k, m) t^(k-m) at the base, C(k, m) = k (k-1) ... (k-m+1)/m!;
        # for k >= 0 they stop at m = k, so no power divides by a base that may vanish
        outer = (base ** self.k,)
        for m in range(1, (order if self.k < 0 else min(order, self.k)) + 1):
            outer += (math.prod(range(self.k, self.k - m, -1)) / math.factorial(m) * base ** (self.k - m),)
        return (outer[0], *_compose(outer, w))


@record
class Derivative(AnalyticFn):
    """The n-th derivative of ``inner``.  Its jet of order k is inner's jet of
    order k + n, shifted: coefficient j is (j + n)!/j! times inner's j + n."""

    inner: AnalyticFn
    n: int = 1

    def _jet(self, z, order):
        n = self.n
        coeffs = self.inner._jet(z, order + n)
        shifted = (coeffs[1] if n == 1 else math.factorial(n) * coeffs[n],)  # f' is the slope, bit for bit
        for j in range(1, order + 1):
            shifted += (math.perm(j + n, n) * coeffs[j + n],)
        return shifted

    def derivative(self):
        return Derivative(self.inner, self.n + 1)  # one node, whatever the order

    def to_json(self):
        if self.n == 1 and getattr(self.inner, "json_tag", None) == {"op": "blaschke"}:  # a BlaschkeProduct
            return {**json_form(self.inner), "op": "blaschke_derivative"}
        raise ValueError(f"the tree schema has no op for derivative {self.n} of {type(self.inner).__name__}")


def _json2guards(obj):
    return tuple((config_pair("guards", c), config_positive("guards", r)) for c, r in obj)


@config_parser
def fn_from_json(obj: dict) -> AnalyticFn:
    """Rebuild an expression tree from its JSON form."""
    op = obj["op"]
    if op == "const":
        return Constant(config_pair("value", obj["value"]))
    if op == "id":
        return Identity()
    if op == "poly":
        return Polynomial(tuple(config_pair("coeffs", c) for c in obj["coeffs"]))
    if op == "mobius":
        return Mobius(*(config_pair(key, obj[key]) for key in "abcd"))
    if op == "exp":
        return Exp(fn_from_json(obj["arg"]))
    if op == "log":
        obj.get("base")  # written by earlier versions; read and discarded
        return Log(fn_from_json(obj["arg"]), guards=_json2guards(obj.get("guards", [])))
    if op == "sum":
        return Sum(tuple(fn_from_json(t) for t in obj["terms"]))
    if op == "product":
        return Product(tuple(fn_from_json(f) for f in obj["factors"]))
    if op == "quotient":
        return Quotient(
            fn_from_json(obj["num"]),
            fn_from_json(obj["den"]),
            guards=_json2guards(obj.get("guards", [])),
        )
    if op == "compose":
        return Compose(fn_from_json(obj["outer"]), fn_from_json(obj["inner"]))
    if op == "power":
        return Power(fn_from_json(obj["arg"]), config_integer("k", obj["k"], least=-math.inf))
    if op in ("blaschke", "blaschke_derivative"):
        from .blaschke import BlaschkeProduct  # the one import against the layer order

        B = BlaschkeProduct.from_json(obj)
        return B if op == "blaschke" else Derivative(B)
    raise ConfigError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# Norms.  Each norm object owns its sample points and a reduction over the
# last axis of a sample array, so a (rows, samples) batch reduces to one norm
# per row.  ``sample(value, slope)`` reads a function's values, or its
# slopes, at the points it needs; a circle norm reads no slopes.


@record
class GridSpec:
    """Deterministic sampling grid: circles |z| = r_i plus explicit points."""

    radii: tuple
    angular: tuple
    points: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        object.__setattr__(self, "angular", tuple(int(m) for m in self.angular))
        object.__setattr__(self, "points", tuple(complex(p) for p in self.points))
        if len(self.radii) != len(self.angular):
            raise ValueError("one angular count per radius")
        last = -1.0
        for r in self.radii:
            if not 0.0 <= r < 1.0 or r <= last:
                raise ValueError("radii must be strictly increasing in [0,1)")
            last = r
        for m in self.angular:
            if m < 1:
                raise ValueError("angular counts must be positive")
        for p in self.points:
            if abs(p) >= 1.0:
                raise ValueError(f"grid point {p} outside the open disc")

    def sample_points(self) -> np.ndarray:
        """Each circle's points r e^{2 pi i j/m}, j = 0..m-1 (radius 0 gives the
        origin once), then the explicit points."""
        # the angle is a real over m: numpy divides a complex by multiplying with 1/m,
        # an ulp away from r cmath.exp(2j pi j/m) at some counts (m = 6, 12, 24, 96, 160, ...)
        circles = [np.zeros(1, dtype=complex) if r == 0.0 else r * np.exp(1j * (2 * np.pi * np.arange(m) / m))
                   for r, m in zip(self.radii, self.angular)]
        return np.concatenate([*circles, np.array(self.points, dtype=complex)])

    def refine(self) -> "GridSpec":
        """Superset refinement: double each angular count, insert midpoint radii."""
        radii = list(self.radii)
        mids = [
            (radii[k] + radii[k + 1]) / 2.0 for k in range(len(radii) - 1)
        ]
        new_radii = sorted(set(radii) | set(mids))
        base = dict(zip(self.radii, self.angular))
        counts = []
        for r in new_radii:
            if r in base:
                counts.append(2 * base[r])
            else:
                counts.append(2 * max(self.angular))
        return GridSpec(tuple(new_radii), tuple(counts), self.points)

    @classmethod
    @config_parser
    def from_json(cls, obj):
        return cls(
            tuple(config_number("radii", r) for r in obj["radii"]),
            tuple(config_integer("angular", m) for m in obj["angular"]),
            tuple(config_pair("points", p) for p in obj.get("points", [])),
        )


def _call(f, z: np.ndarray) -> np.ndarray:
    # A norm samples a tree or a bare callable (e.g. a semigroup residual
    # z -> (W_t f(z) - f(z))/t - A f(z)); either gets the whole ndarray of
    # sample points in one call, and either is refused at the first point
    # where its value is not finite.  A callable may put rows of a batch in
    # front of the points.
    if isinstance(f, AnalyticFn):
        return f.eval(z)
    w = np.asarray(f(z), dtype=complex)
    w = np.broadcast_to(w, np.broadcast_shapes(w.shape, z.shape))
    raise_at(nonfinite(w), z, SingularityError, "non-finite value at {}")
    return w


class _CircleNorm:
    """A norm read off the values at the M points r e^{2 pi i j/M}, j = 0..M-1."""

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise DomainError("sampling radius must lie in (0,1)")

    @cached_property
    def points(self) -> np.ndarray:
        return GridSpec((self.r,), (self.M,)).sample_points()

    def sample(self, value, slope=None) -> np.ndarray:
        return _call(value, self.points)


@record
class H2Norm(_CircleNorm):
    """sqrt(sum |a_k|^2) over the Taylor coefficients a_0..a_N: the Hardy H^2
    norm of the truncation.

    The coefficients come from M = max(4N, 128) samples on |z| = r (a
    discrete Cauchy integral): spectrally accurate for functions analytic on
    |z| <= r and exact (to roundoff) for polynomials of degree <= N.
    """

    N: int = 64
    r: float = 0.9

    def __post_init__(self):
        super().__post_init__()
        if self.N < 0:
            raise ValueError("N must be >= 0")

    @property
    def M(self) -> int:
        return max(4 * self.N, 128)

    def coefficients(self, samples) -> np.ndarray:
        """a_0..a_N along the last axis of the samples."""
        hat = np.fft.fft(samples, axis=-1) / self.M
        return hat[..., :self.N + 1] / np.array([self.r ** k for k in range(self.N + 1)])

    def reduce(self, samples):
        return np.linalg.norm(self.coefficients(samples), axis=-1)


@record
class HpNorm(_CircleNorm):
    """The integral mean ((1/M) sum_j |f(r e^{2 pi i j/M})|^p)^{1/p}."""

    p: float
    r: float
    M: int = 256

    def __post_init__(self):
        super().__post_init__()
        if self.p < 1.0:
            raise ValueError("p must be >= 1")
        if self.M < 64:
            raise ValueError("need at least 64 boundary samples")

    def reduce(self, samples):
        return (np.sum(np.abs(samples) ** self.p, axis=-1) / self.M) ** (1.0 / self.p)


@record
class BlochGridNorm:
    """|f(0)| + max over the grid of |f'(z)| (1 - |z|^2).

    A lower bound for the Bloch norm, nondecreasing under grid refinement.
    Its points are the origin, then the grid's; its samples are f at the
    origin, then f' at the grid points.
    """

    grid: GridSpec

    @cached_property
    def points(self) -> np.ndarray:
        return np.concatenate([[0j], self.grid.sample_points()])

    @cached_property
    def _weights(self) -> np.ndarray:
        return 1.0 - np.abs(self.points) ** 2  # 1 at the origin

    def sample(self, value, slope) -> np.ndarray:
        zs = self.points
        return np.concatenate([_call(value, zs[:1]), _call(slope, zs[1:])], axis=-1)

    def reduce(self, samples):
        weighted = np.abs(samples) * self._weights
        return weighted[..., 0] + np.max(weighted[..., 1:], axis=-1, initial=0.0)


def taylor(f, N: int, r: float) -> np.ndarray:
    """Coefficients a_0..a_N of f at the origin, read off ``H2Norm(N, r)``'s samples."""
    norm = H2Norm(N, r)
    return norm.coefficients(norm.sample(f))


def bloch_norm_grid(f, grid: GridSpec, derivative=None) -> float:
    """``BlochGridNorm(grid)`` of f.  A tree's f' is ``f.derivative()``;
    ``derivative`` must be supplied for a non-tree callable.  Each is called
    once, on an ndarray: f on the origin alone, the derivative on the grid.
    """
    norm = BlochGridNorm(grid)
    return float(norm.reduce(norm.sample(f, f.derivative() if derivative is None else derivative)))
