"""Expression trees for functions analytic on the unit disc.

Trees are immutable.  Evaluation takes one point, a Python complex, or a
batch, a complex ndarray, through the same code (see ``pointwise``).  Each
node has one differentiation rule, its Taylor-mode jet (Griewank & Walther,
Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13): the order + 1
coefficients f(z), f'(z), ..., f^(k)(z)/k!, every one from the node's
recurrence.  A node writes its rule as straight-line Python (``_emit``), and
each entry point (``eval``, ``eval_anywhere``, ``jet``) runs one function per
tree, built from those lines on first use, kept per tree value (an equal
tree rebuilt from JSON reuses it) and compiled once per distinct source
(trees that differ only in their constants share it).  ``orbit_system``
writes the lines of a vector field G, and of a weight g, into one such
function: the integrator's right-hand side along an orbit.  The lines keep
every operation of the rule and the order of its operands, so the numbers
are those of the rule evaluated node by node, bit for bit; a coefficient
that nothing reads is not computed.  ``derivative()`` returns a
``Derivative`` node, which reads its argument's jet one order higher.
Quotient and Log carry explicit singularity guards: small excluded discs
around known zeros of the denominator / argument, as a Mobius derivative
does around a pole in the disc.  Evaluation either returns finite values or
raises; it never returns inf/nan.  The guards run in tree order, each before
the arithmetic it protects, and the first one that fires raises its typed
error at its first offending point, for a batch as for that point alone.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import ConfigError, DomainError, SingularityError, config_integer, config_list, config_number
from .errors import config_pair, config_parser, config_positive, json_form, record
from .pointwise import exp, full, larger, log, nonfinite, points, raise_at  # the compiled code reads these by name

DEFAULT_GUARD_RADIUS = 1e-9


def guard_points(points, radius: float = DEFAULT_GUARD_RADIUS):
    """Build a guard set (excluded discs) from a list of singular points."""
    return tuple((complex(p), float(radius)) for p in points)


class _CompiledEntry:
    """The tree's compiled ``entry``, built on first use and then kept on the
    tree, whose own attribute of the name hides this descriptor from then on."""

    def __init__(self, entry):
        self.entry = entry

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, tree, owner=None):
        code = _compiled(tree, self.entry)
        object.__setattr__(tree, self.name, code)  # not through __dict__, which slows attribute reads
        return code


class AnalyticFn:
    """Base node.  Subclasses implement ``_emit``: at every order k it writes
    the lines that compute the k + 1 Taylor coefficients.  A coefficient that
    does not depend on z stays a bare complex; the entry points spread it
    over a batch once."""

    guards: tuple = ()

    def eval(self, z):
        """Evaluate at a point of the open unit disc, or at each point of an array."""
        return self._eval_code(z)

    __call__ = eval

    def eval_anywhere(self, z):
        """Evaluate without the disc check (for maps whose range leaves the disc)."""
        return self._eval_anywhere_code(z)

    def jet(self, z):
        """(f(z), f'(z)) from one pass over the tree, without the disc check."""
        return self._jet_code(z)

    _eval_code = _CompiledEntry("eval")
    _eval_anywhere_code = _CompiledEntry("eval_anywhere")
    _jet_code = _CompiledEntry("jet")

    def _jet(self, z, order):
        """The tuple of the order + 1 coefficients at z, a Python complex or a complex ndarray."""
        return _compiled(self, order)(z)

    def derivative(self) -> "AnalyticFn":
        """f' as a node that reads this tree's jets one order higher."""
        return Derivative(self)

    def _emit_guards(self, em, node, z) -> None:
        for i in range(len(self.guards)):
            center, radius = em.bind(f"{node}.guards[{i}][0]"), em.bind(f"{node}.guards[{i}][1]")
            em.guard(f"abs({z} - {center}) <= {radius}", z, "{} inside guard disc around {}", center)


_ZERO, _ONE = 0j, 1 + 0j
_NAMES = r"\b[kv]\d+\b"  # the names the emitter gives


class _Emitter:
    """Straight-line Python for one entry of one tree.

    A node's ``_emit(em, node, z, order)`` gets the source expression of the
    node itself (``node`` for the root, ``node.den`` for its denominator, ...)
    and of the point z, writes its lines, and returns one expression per
    coefficient: a name, or ``_ZERO``/``_ONE``.  ``bind`` names a value read
    off the tree, or computed from such values, once per tree; ``let`` names
    a value computed on every call, dropped when nothing reads it; ``do``
    writes a statement, which always runs, and ``guard`` a ``raise_at`` one.
    """

    def __init__(self):
        self.binds, self.lines, self.namespace = [], [], {}
        self._count = 0

    def name(self, prefix="v"):
        self._count += 1
        return f"{prefix}{self._count}"

    def bind(self, expr):
        name = self.name("k")
        self.binds.append((name, expr))
        return name

    def let(self, expr):
        name = self.name()
        self.lines.append((name, expr))
        return name

    def do(self, statement):
        self.lines.append((None, statement))

    def guard(self, mask, z, message, *args, error="SingularityError"):
        """``raise_at`` the error where ``mask`` holds; a scalar's False mask skips the call."""
        self.do(f"if (mask := {mask}) is not False: "
                f"raise_at(mask, {z}, {error}, {message!r}{''.join(', ' + a for a in args)})")

    def guard_finite(self, coeffs, z):
        """``coeffs``, once a guard refuses a non-finite one; the literals need no test."""
        if tested := [f"nonfinite({c})" for c in coeffs if c not in ("_ZERO", "_ONE")]:
            self.guard(" | ".join(tested), z, "non-finite value at {}")
        return coeffs

    def build(self, name, params="z"):
        """``make(node)``: binds a tree's values and returns the entry function on ``params``."""
        live = set()
        lines = _prune(self.lines, live)
        binds = _prune(self.binds, live)
        source = "\n".join(["def make(node):", *_render(binds, "    "),
                            f"    def entry({params}):", *_render(lines, "        "), "    return entry"])
        return _exec_make(source, name, tuple(self.namespace.items()))


@lru_cache(maxsize=1024)
def _exec_make(source, name, extras):
    """``make`` compiled from ``source``: trees whose lines read alike, such as
    one tree at several values of a constant, share one compile."""
    namespace = dict(globals(), **dict(extras))
    exec(compile(source, name, "exec"), namespace)
    return namespace["make"]


def _prune(lines, live):
    """``lines`` without the lets that no later line, nor ``live``, reads;
    ``live`` gains the names the kept lines read."""
    kept = []
    for name, text in reversed(lines):
        if name is None or name in live:
            kept.append((name, text))
            live.update(re.findall(_NAMES, text))
    return kept[::-1]


def _render(lines, indent):
    return [indent + (text if name is None else f"{name} = {text}") for name, text in lines]


@lru_cache(maxsize=1024)
def _maker(tree, entry):
    """The ``make`` function of ``entry`` for every tree equal to ``tree``: an entry
    point's function, ``_jet`` at the order ``entry``, or an ``orbit_system``."""
    em = _Emitter()
    if entry == "orbit":  # tree is the pair (G, g), and g may be None
        trees = [f for f in tree if f is not None]
        em.do("w, v = y" if len(trees) == 1 else
              "w, v, I, J = y; peak[0] = larger(peak[0], larger(abs(I), abs(J)))")
        stage = []
        for i, f in enumerate(trees):
            stage += em.guard_finite(f._emit(em, f"node[{i}]", "w", 1), "w")
        stage[1::2] = [em.let(f"{slope} * v") for slope in stage[1::2]]
        rows = "".join(f"; out[{i}] = {c}" for i, c in enumerate(stage))
        em.do(f"if isinstance(y, np.ndarray): out = np.empty_like(y){rows}; return out")
        em.do(f"return {', '.join(stage)}")
        return em.build("<orbit system>", "y" if len(trees) == 1 else "peak, y")
    if isinstance(entry, int):
        coeffs = tree._emit(em, "node", "z", entry)
        em.do(f"return ({''.join(c + ', ' for c in coeffs)})")
    else:
        em.do("z = points(z)")
        if entry == "eval":
            em.guard("abs(z) >= 1.0", "z", "{} is not inside the open unit disc", error="DomainError")
        coeffs = em.guard_finite(tree._emit(em, "node", "z", 1 if entry == "jet" else 0), "z")
        em.do(f"return {', '.join(f'full(z, {c})' for c in coeffs)}")
    return em.build(f"<{type(tree).__name__}.{entry}>")


def _compiled(tree, entry):
    # an equal tree's code with this tree's own values: records compare 0.0
    # and -0.0 as equal, and a signed zero must reach the arithmetic as it is
    return _maker(tree, entry)(tree)


def orbit_system(G, g=None):
    """The right-hand side of an orbit system of w' = G(w) for ``flows._integrate``, as one
    compiled function: on the state (w, v) the stage (G(w), G'(w) v), the variational flow;
    with a weight g, on (w, v, I, J) the stage (G(w), G'(w) v, g(w), g'(w) v), the cocycle
    sweep, called as f(peak, y) to raise peak[0] to the largest |I|, |J| met so far.  Its
    lines are G's jet and then g's, each with its guards and then its finiteness test, so the
    values and refusals are the trees' own jets'.  A batch's state (rows of an ndarray) gives
    one array of its shape, one point's (a tuple of Python complexes) a tuple."""
    return _compiled((G, g), "orbit")


def _cauchy(em, a, b) -> list:
    """The product of two truncated series of one length (a convolution).
    Coefficient 1 is a_0 b_1 + a_1 b_0, the product rule."""
    return [em.let(" + ".join(f"{a[i]} * {b[j - i]}" for i in range(j + 1))) for j in range(len(a))]


def _compose(em, outer, inner) -> list:
    """Coefficients 1.. of v(u), from v's coefficients at u_0 and u's: the sum
    over m >= 1 of v_m (u - u_0)^m.  Coefficient 1 is v_1 u_1, the chain rule.
    A short ``outer`` stands for a v whose later coefficients vanish."""
    if len(outer) == 1:  # a v constant near u_0, or order 0
        return ["_ZERO"] * (len(inner) - 1)
    if len(inner) == 2:
        return [em.let(f"{outer[1]} * {inner[1]}")]
    rise = ["_ZERO", *inner[1:]]  # u - u_0
    power, total = rise, ["_ZERO", *[em.let(f"{outer[1]} * {c}") for c in inner[1:]]]
    for v in outer[2:]:
        power = _cauchy(em, power, rise)
        total = [em.let(f"{t} + {v} * {c}") for t, c in zip(total, power)]
    return total[1:]


@record
class Constant(AnalyticFn):
    json_tag = {"op": "const"}
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _emit(self, em, node, z, order):
        return [em.bind(f"{node}.value"), *["_ZERO"] * order]


@record
class Identity(AnalyticFn):
    json_tag = {"op": "id"}

    def _emit(self, em, node, z, order):
        return [z, "_ONE", *["_ZERO"] * (order - 1)] if order else [z]


def _horner(em, coeffs, z):
    """Horner's rule over coefficient names, as one line; a constant stays bare."""
    if len(coeffs) < 2:
        return coeffs[0] if coeffs else "_ZERO"
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = f"({acc}) * {z} + {c}"
    return em.let(acc)


@record
class Polynomial(AnalyticFn):
    """Coefficients a_0..a_d, evaluated by Horner's rule."""

    json_tag = {"op": "poly"}
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @cached_property
    def _slopes(self) -> "Polynomial":
        """p', coefficients k a_k, k = 1..d; cached, as each compiled entry of order 1 or more binds it."""
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def _emit(self, em, node, z, order):
        value = _horner(em, [em.bind(f"{node}.coeffs[{i}]") for i in range(len(self.coeffs))], z)
        if not order:
            return [value]
        # coefficient j of p is coefficient j - 1 of p', over j
        slopes = self._slopes._emit(em, em.bind(f"{node}._slopes"), z, order - 1)
        return [value, slopes[0], *[em.let(f"{c} / {j}") for j, c in enumerate(slopes[1:], 2)]]


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

    def _emit(self, em, node, z, order):
        a, b, c, d = (em.bind(f"{node}.{key}") for key in "abcd")
        den = em.let(f"{c} * {z} + {d}")
        if not order:
            em.guard(f"{den} == 0", z, "Mobius pole at {}")
            return [em.let(f"({a} * {z} + {b}) / {den}")]
        square = em.let(f"{den} ** 2")  # zero wherever den is, so one check serves both
        em.guard(f"{square} == 0", z, "Mobius pole at {}")
        self._emit_guards(em, node, z)  # the derivatives' guard disc around a pole in the disc
        ad_bc, minus_c = em.bind(f"{a} * {d} - {b} * {c}"), em.bind(f"-{c}")
        coeffs = [em.let(f"({a} * {z} + {b}) / {den}"), em.let(f"{ad_bc} / {square}")]
        for _ in range(order - 1):  # f_j = (ad - bc) (-c)^(j-1) / den^(j+1)
            coeffs.append(em.let(f"{coeffs[-1]} * {minus_c} / {den}"))
        return coeffs

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


@record
class Exp(AnalyticFn):
    json_tag = {"op": "exp"}
    arg: AnalyticFn

    def _emit(self, em, node, z, order):
        u = self.arg._emit(em, f"{node}.arg", z, order)
        coeffs, recurrence = [em.let(f"exp({u[0]})")], []
        for j in range(1, order + 1):  # j f_j = sum_i i u_i f_(j-i), from f' = f u'
            total = " + ".join(f"{i} * {u[i]} * {coeffs[j - i]}" for i in range(1, j + 1))
            coeffs.append(em.name())
            recurrence.append(f"{coeffs[j]} = ({total}) / {j}")
        if order:
            # an overflowed value makes the coefficients inf or nan, which the
            # finiteness mask of jet refuses with a SingularityError naming the point
            em.do(f"with np.errstate(over='ignore', invalid='ignore'): {'; '.join(recurrence)}")
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

    def _emit(self, em, node, z, order):
        self._emit_guards(em, node, z)
        u = self.arg._emit(em, f"{node}.arg", z, order)
        em.guard(f"{u[0]} == 0", z, "log of zero at {}")
        coeffs = [em.let(f"log({u[0]})")]
        for j in range(1, order + 1):  # u_0 f_j = u_j - sum_(0<i<j) (i/j) f_i u_(j-i), from u f' = u'
            rest = "".join(f" - {i} * {coeffs[i]} * {u[j - i]} / {j}" for i in range(1, j))
            coeffs.append(em.let(f"({u[j]}{rest}) / {u[0]}"))
        return coeffs


@record
class Sum(AnalyticFn):
    json_tag = {"op": "sum"}
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def _emit(self, em, node, z, order):
        if not self.terms:
            return ["_ZERO"] * (order + 1)
        jets = [t._emit(em, f"{node}.terms[{i}]", z, order) for i, t in enumerate(self.terms)]
        return [column[0] if len(column) == 1 else em.let(" + ".join(column)) for column in zip(*jets)]


@record
class Product(AnalyticFn):
    json_tag = {"op": "product"}
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def _emit(self, em, node, z, order):
        if not self.factors:
            return ["_ONE", *["_ZERO"] * order]
        jets = [f._emit(em, f"{node}.factors[{i}]", z, order) for i, f in enumerate(self.factors)]
        return reduce(lambda a, b: _cauchy(em, a, b), jets)


@record
class Quotient(AnalyticFn):
    json_tag = {"op": "quotient"}
    num: AnalyticFn
    den: AnalyticFn
    guards: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "guards", tuple(self.guards))

    def _emit(self, em, node, z, order):
        self._emit_guards(em, node, z)
        d = self.den._emit(em, f"{node}.den", z, order)
        em.guard(f"{d[0]} == 0", z, "denominator vanishes at {}")
        n = self.num._emit(em, f"{node}.num", z, order)
        coeffs = [em.let(f"{n[0]} / {d[0]}")]
        for j in range(1, order + 1):  # d_0 q_j = n_j - sum_(i>=1) d_i q_(j-i), from d q = n
            total = " + ".join(f"{d[i]} * {coeffs[j - i]}" for i in range(1, j + 1))
            coeffs.append(em.let(f"({n[j]} - ({total})) / {d[0]}"))
        return coeffs


@record
class Compose(AnalyticFn):
    json_tag = {"op": "compose"}
    outer: AnalyticFn
    inner: AnalyticFn

    def _emit(self, em, node, z, order):
        u = self.inner._emit(em, f"{node}.inner", z, order)
        v = self.outer._emit(em, f"{node}.outer", u[0], order)
        return [v[0], *_compose(em, v, u)]


@record
class Power(AnalyticFn):
    json_tag = {"op": "power"}
    arg: AnalyticFn
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))

    def _emit(self, em, node, z, order):
        w = self.arg._emit(em, f"{node}.arg", z, order)
        base, k = w[0], self.k
        if k < 0:
            em.guard(f"{base} == 0", z, "negative power of zero at {}")
        # t^k's coefficients C(k, m) t^(k-m) at the base, C(k, m) = k (k-1) ... (k-m+1)/m!;
        # for k >= 0 they stop at m = k, so no power divides by a base that may vanish
        outer = [em.let(f"{base} ** ({k})")]
        for m in range(1, (order if k < 0 else min(order, k)) + 1):
            binomial = math.prod(range(k, k - m, -1)) / math.factorial(m)
            outer.append(em.let(f"{binomial!r} * {base} ** ({k - m})"))
        return [outer[0], *_compose(em, outer, w)]


@record
class Derivative(AnalyticFn):
    """The n-th derivative of ``inner``.  Its jet of order k is inner's jet of
    order k + n, shifted: coefficient j is (j + n)!/j! times inner's j + n."""

    inner: AnalyticFn
    n: int = 1

    def _emit(self, em, node, z, order):
        n = self.n
        coeffs = self.inner._emit(em, f"{node}.inner", z, order + n)
        # f' is the slope, bit for bit
        shifted = [coeffs[1] if n == 1 else em.let(f"{math.factorial(n)} * {coeffs[n]}")]
        return shifted + [em.let(f"{math.perm(j + n, n)} * {coeffs[j + n]}") for j in range(1, order + 1)]

    def derivative(self):
        return Derivative(self.inner, self.n + 1)  # one node, whatever the order

    def to_json(self):
        if self.n == 1 and getattr(self.inner, "json_tag", None) == {"op": "blaschke"}:  # a BlaschkeProduct
            return {**json_form(self.inner), "op": "blaschke_derivative"}
        raise ValueError(f"the tree schema has no op for derivative {self.n} of {type(self.inner).__name__}")


def _json2guards(obj):
    return tuple((config_pair("guards", c), config_positive("guards", r)) for c, r in config_list("guards", obj))


@config_parser
def fn_from_json(obj: dict) -> AnalyticFn:
    """Rebuild an expression tree from its JSON form."""
    op = obj["op"]
    if op == "const":
        return Constant(config_pair("value", obj["value"]))
    if op == "id":
        return Identity()
    if op == "poly":
        return Polynomial(tuple(config_pair("coeffs", c) for c in config_list("coeffs", obj["coeffs"])))
    if op == "mobius":
        return Mobius(*(config_pair(key, obj[key]) for key in "abcd"))
    if op == "exp":
        return Exp(fn_from_json(obj["arg"]))
    if op == "log":
        return Log(fn_from_json(obj["arg"]), guards=_json2guards(obj.get("guards", [])))
    if op == "sum":
        return Sum(tuple(fn_from_json(t) for t in config_list("terms", obj["terms"])))
    if op == "product":
        return Product(tuple(fn_from_json(f) for f in config_list("factors", obj["factors"])))
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
            tuple(config_number("radii", r) for r in config_list("radii", obj["radii"])),
            tuple(config_integer("angular", m) for m in config_list("angular", obj["angular"])),
            tuple(config_pair("points", p) for p in config_list("points", obj.get("points", []))),
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
