"""Finite Blaschke products, pseudohyperbolic geometry and interpolation diagnostics.

A product is stored as its zero list (multiplicity by repetition) plus a
unimodular phase e^{i*theta}, and is itself an expression-tree leaf of
``analytic``.  Infinite products are represented by truncation.

``pseudo_distance`` takes points or arrays; the certificates read the deflated
products, the multiplicity test and the least separation off one row of rho
per zero (``_rho_rows``), and sample all their pseudo-discs in one expression.
A deflated product below the double range is refused with its log10.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .analytic import AnalyticFn, Constant, Identity, Mobius, Product
from .errors import DomainError, HypothesisError, MultiplicityError, config_number, config_pair
from .errors import config_list, config_parser, record
from .pointwise import full, outside, points, raise_at


@record
class BlaschkeProduct(AnalyticFn):
    """A finite Blaschke product, also an expression-tree leaf."""

    json_tag = {"op": "blaschke"}
    zeros: tuple
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        object.__setattr__(self, "theta", float(self.theta))
        for a in self.zeros:
            if abs(a) >= 1.0:
                raise ValueError(f"Blaschke zero {a} not inside the open disc")

    @property
    def phase(self) -> complex:
        return cmath.exp(1j * self.theta)

    def _emit(self, em, node, z, order):
        # the module's functions are looked up on every call, so a rebound
        # blaschke_eval or blaschke_derivative is the one that runs
        em.namespace["_blaschke"] = sys.modules[__name__]
        B, coeffs = em.bind(node), [em.name() for _ in range(min(order, 1) + 1)]
        for value, read in zip(coeffs, ("blaschke_eval", "blaschke_derivative")):
            em.do(f"{value} = _blaschke.{read}({B}, {z})")  # run, and counted, even when nothing reads it
        if order > 1:
            coeffs += self._series()._emit(em, em.bind(f"{B}._series()"), z, order)[2:]
        return coeffs

    def _series(self) -> Product:
        """The product of the phase and the factors (|a| - (|a|/a) z)/(1 - conj(a) z),
        z for a = 0, whose jet gives the coefficients from 2 on."""
        factors = [Mobius(-abs(a) / a, abs(a), -a.conjugate(), 1.0) if a else Identity() for a in self.zeros]
        return Product((Constant(self.phase), *factors))

    @classmethod
    @config_parser
    def from_json(cls, obj: dict) -> "BlaschkeProduct":
        zeros = tuple(config_pair("zeros", a) for a in config_list("zeros", obj["zeros"]))
        return cls(zeros, config_number("theta", obj.get("theta", 0.0)))


def radial_zeros(count: int, ratio: float = 0.5) -> tuple:
    """Zeros 1 - ratio**n for n = 1..count, marching toward the boundary point 1."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0,1)")
    return tuple(complex(1.0 - ratio ** n) for n in range(1, count + 1))


def b_factor(a: complex, z):
    """Single factor (|a|/a)*(a-z)/(1 - conj(a)*z); equals z when a = 0."""
    a = complex(a)
    z = points(z)
    if a == 0:
        return z
    return (abs(a) / a) * (a - z) / (1.0 - a.conjugate() * z)


def _b_factor_derivative(a: complex, z):
    # d/dz of b_factor: (|a|/a)*(|a|^2 - 1)/(1 - conj(a) z)^2; equals 1 when a = 0.
    a = complex(a)
    if a == 0:
        return 1.0 + 0.0j
    den = 1.0 - a.conjugate() * z
    return (abs(a) / a) * (abs(a) ** 2 - 1.0) / (den * den)


def blaschke_eval(B: BlaschkeProduct, z):
    """Evaluate the product at a point or an array of points; |z| <= 1 allowed
    so boundary modulus can be checked."""
    z = points(z)
    val = full(z, B.phase)
    for a in B.zeros:
        val = val * b_factor(a, z)
    if B.zeros:
        raise_at((abs(z) <= 1.0 - 1e-9) & outside(val), z, DomainError,
                 "finite Blaschke product left the disc at {}")
    return val


def blaschke_derivative(B: BlaschkeProduct, z):
    """B' at a point or an array of points, by the forward product rule.

    The running product v starts at e^{i*theta} with v' = 0, and each factor b
    makes (v b)' = v b' + v' b.  At a zero z_k the factor b_k vanishes exactly,
    so every earlier term drops and the formula has no cancellation there.
    """
    z = points(z)
    value, slope = full(z, B.phase), full(z, 0.0)
    for a in B.zeros:
        b = b_factor(a, z)
        slope = value * _b_factor_derivative(a, z) + slope * b
        value = value * b
    return slope


def pseudo_distance(z, w):
    """Pseudohyperbolic distance rho(z, w) = |w - z| / |1 - conj(w) z|, at a pair of points or,
    either of them an array, at each point of it."""
    z, w = points(z), points(w)
    return abs(w - z) / abs(1.0 - w.conjugate() * z)


def pseudo_sum(r1: float, r2: float) -> float:
    """Radius of the smallest rho-ball containing two tangent rho-balls: (r1+r2)/(1+r1*r2)."""
    return (r1 + r2) / (1.0 + r1 * r2)


def _disc_points(centers, radius: float, n_radii: int, n_angles: int) -> np.ndarray:
    """One row per centre a: a itself, then the circles rho = radius k / n_radii, k = 1..n_radii,
    n_angles points each, as the images of s e^{2 pi i j / n_angles} under u -> (a - u)/(1 - conj(a) u):
    drawn in rho-coordinates, as uniform Euclidean samples under-resolve discs hugging the boundary."""
    a = np.asarray(centers, dtype=complex).reshape(-1, 1)
    s = radius * np.arange(1, n_radii + 1) / n_radii
    u = (s[:, None] * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)).ravel()
    return np.concatenate([a, (a - u) / (1.0 - a.conj() * u)], axis=1)


def _rho_rows(zeros, marked):
    """What the certificates read off each marked zero a_n's row rho(a_n, a_j) over all the zeros
    a_j, made one row at a time so that memory stays O(len(zeros)): the deflated products
    |(B / b_{a_n})(a_n)| = prod_{j != n} rho(a_n, a_j); the sum of the factors' log10 for each
    product below the normal double range, 0 or subnormal (-inf where a factor is 0); and, for
    each marked zero but the last, its least rho to the marked zeros after it."""
    zs, marked = np.array(zeros, dtype=complex), np.array(marked, dtype=int)
    products, log10s, later = [], [], []
    for k, n in enumerate(marked):
        row = pseudo_distance(zs[n], zs)
        if k + 1 < len(marked):
            later.append(float(row[marked[k + 1:]].min()))
        row[n] = 1.0
        products.append(float(np.prod(row)))
        if products[-1] < sys.float_info.min:
            with np.errstate(divide="ignore"):
                log10s.append(float(np.sum(np.log10(row))))
    return products, log10s, later


def _least_delta(products, log10s) -> float:
    """The least deflated product, 1 for none.  A product below the normal double range is refused:
    a vanishing factor as delta = 0, and a product that is 0 or subnormal, every factor positive,
    with the least log10 (a subnormal keeps only some of its digits)."""
    delta = min(products, default=1.0)
    if delta < sys.float_info.min:
        deepest = min(log10s)
        raise HypothesisError("deflated product vanishes at a marked zero (delta = 0)" if deepest == -math.inf else
                              f"deflated product below the double range (log10 delta = {deepest:.2f})")
    return delta


def _refuse_repeated(zeros, later) -> None:
    """Refuse two zeros closer than rho 1e-12, given each zero's least rho to the zeros after it."""
    for a, rho in zip(zeros, later):
        if rho < 1e-12:
            raise MultiplicityError(f"repeated zero {a}")


@record
class InterpolationReport:
    delta: float
    per_zero: tuple
    geometric_ratio: float | None


def interpolation_delta(B: BlaschkeProduct) -> InterpolationReport:
    """delta = min_n |(B / b_{z_n})(z_n)|, evaluated by deflating the product.

    Also reports max_n (1 - |z_{n+1}|)/(1 - |z_n|) over the zeros sorted by
    modulus; a ratio < 1 is the standard geometric sufficient condition for
    the sequence to be interpolating.
    """
    zeros = B.zeros
    per, log10s, later = _rho_rows(zeros, range(len(zeros)))
    _refuse_repeated(zeros, later)
    ordered = sorted(zeros, key=abs)
    ratios = [(1.0 - abs(b)) / (1.0 - abs(a)) for a, b in zip(ordered, ordered[1:])]
    return InterpolationReport(delta=_least_delta(per, log10s), per_zero=tuple(per),
                               geometric_ratio=max(ratios, default=None))


@record
class GpvRow:
    index: int
    center: complex
    deflated: float
    beta_local: float


@record
class GpvReport:
    delta: float
    alpha: float
    disjoint: bool
    min_pairwise_rho: float | None
    rho_threshold: float
    beta_hat: float
    per_zero: tuple
    truncation_tail: float


def gpv_bound_check(
    B: BlaschkeProduct,
    marked=None,
    alpha: float = 0.1,
    samples_per_disc: int = 80,
    truncation_tail: float = 0.0,
) -> GpvReport:
    """Empirical check of the derivative lower bound on pseudo-discs.

    For marked zeros a_n with deflated product bounded below by delta > 0,
    verifies (a) the discs Delta(a_n, alpha) are pairwise disjoint and
    (b) beta_hat = min_n min_{z in Delta(a_n, alpha)} |B'(z)| (1 - |a_n|) > 0.
    The report carries exactly what was computed; no constant is floored.
    """
    marked = list(range(len(B.zeros)) if marked is None else marked)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    centers = [B.zeros[i] for i in marked]

    deflated, log10s, later = _rho_rows(B.zeros, marked)
    delta = _least_delta(deflated, log10s)

    threshold = pseudo_sum(alpha, alpha)
    min_rho = min(later, default=None)
    disjoint = min_rho is None or min_rho > threshold  # fewer than two discs: disjoint vacuously

    # every disc's samples as one (discs, points) batch, each row's centre first; no disc, no call
    zs = _disc_points(centers, alpha, 5, max(8, samples_per_disc // 5))
    local = np.min(np.abs(blaschke_derivative(B, zs)) * (1 - np.abs(zs[:, :1])), axis=1).tolist() if centers else []
    rows = tuple(GpvRow(index=i, center=a, deflated=defl, beta_local=beta)
                 for i, a, defl, beta in zip(marked, centers, deflated, local))
    return GpvReport(delta=delta, alpha=alpha, disjoint=disjoint, min_pairwise_rho=min_rho, rho_threshold=threshold,
                     beta_hat=min(local, default=0.0), per_zero=rows, truncation_tail=truncation_tail)
