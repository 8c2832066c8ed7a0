"""Finite Blaschke products, pseudohyperbolic geometry and interpolation diagnostics.

A product is stored as its zero list (multiplicity by repetition) plus a
unimodular phase e^{i*theta}, and is itself an expression-tree leaf of
``analytic``.  Infinite products are represented by truncation.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import combinations

import numpy as np

from .analytic import AnalyticFn, Constant, Identity, Mobius, Product
from .errors import DomainError, HypothesisError, MultiplicityError, config_number, config_pair
from .errors import config_parser, record
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
        zeros = tuple(config_pair("zeros", a) for a in obj["zeros"])
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


def blaschke_derivative(B: BlaschkeProduct, z: complex) -> complex:
    """Product-rule derivative sum_k b'_k * prod_{j != k} b_j.

    At a zero z_k every other term vanishes through its b_k factor, so the
    formula has no cancellation there.
    """
    z = points(z)
    n = len(B.zeros)
    if n == 0:
        return full(z, 0.0)
    factors = [b_factor(a, z) for a in B.zeros]
    prefix = [1.0 + 0.0j] * (n + 1)
    for k in range(n):
        prefix[k + 1] = prefix[k] * factors[k]
    suffix = [1.0 + 0.0j] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] * factors[k]
    total = full(z, 0.0)
    for k, a in enumerate(B.zeros):
        total += _b_factor_derivative(a, z) * prefix[k] * suffix[k + 1]
    return B.phase * total


def pseudo_distance(z: complex, w: complex) -> float:
    """Pseudohyperbolic distance rho(z, w) = |(w - z)/(1 - conj(w) z)|."""
    z = complex(z)
    w = complex(w)
    return abs((w - z) / (1.0 - w.conjugate() * z))


def pseudo_sum(r1: float, r2: float) -> float:
    """Radius of the smallest rho-ball containing two tangent rho-balls: (r1+r2)/(1+r1*r2)."""
    return (r1 + r2) / (1.0 + r1 * r2)


@record
class PseudoDisc:
    """Open pseudohyperbolic disc Delta(center, radius) = {rho(z, center) < radius}."""

    center: complex
    radius: float

    def __post_init__(self):
        if abs(self.center) >= 1.0:
            raise ValueError("centre must be inside the disc")
        if not 0.0 < self.radius < 1.0:
            raise ValueError("radius must lie in (0,1)")

    def sample(self, n_radii: int = 5, n_angles: int = 16):
        """Centre plus concentric pseudohyperbolic circles (closure sampled).

        Uniform Euclidean sampling under-resolves discs hugging the boundary,
        so points are drawn in rho-coordinates and pushed through the Mobius
        change of variables u -> (center - u)/(1 - conj(center) u).
        """
        a = complex(self.center)
        pts = [a]
        for k in range(1, n_radii + 1):
            s = self.radius * k / n_radii
            for j in range(n_angles):
                u = s * cmath.exp(2j * math.pi * j / n_angles)
                pts.append((a - u) / (1.0 - a.conjugate() * u))
        return pts


@record
class InterpolationReport:
    delta: float
    per_zero: tuple
    geometric_ratio: float | None


def _deflated(B: BlaschkeProduct, n: int) -> float:
    """|(B / b_{z_n})(z_n)|: the product without its n-th factor, at its n-th zero."""
    a = B.zeros[n]
    v = 1.0
    for j, b in enumerate(B.zeros):
        if j != n:
            v *= abs(b_factor(b, a))
    return v


def interpolation_delta(B: BlaschkeProduct) -> InterpolationReport:
    """delta = min_n |(B / b_{z_n})(z_n)|, evaluated by deflating the product.

    Also reports max_n (1 - |z_{n+1}|)/(1 - |z_n|) over the zeros sorted by
    modulus; a ratio < 1 is the standard geometric sufficient condition for
    the sequence to be interpolating.
    """
    zeros = B.zeros
    for i in range(len(zeros)):
        for j in range(i + 1, len(zeros)):
            if pseudo_distance(zeros[i], zeros[j]) < 1e-12:
                raise MultiplicityError(f"repeated zero {zeros[i]}")
    per = [_deflated(B, n) for n in range(len(zeros))]
    delta = min(per) if per else 1.0
    ratio = None
    if len(zeros) >= 2:
        ordered = sorted(zeros, key=abs)
        ratio = max(
            (1.0 - abs(ordered[k + 1])) / (1.0 - abs(ordered[k]))
            for k in range(len(ordered) - 1)
        )
    return InterpolationReport(
        delta=delta,
        per_zero=tuple(per),
        geometric_ratio=ratio,
    )


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
    if marked is None:
        marked = list(range(len(B.zeros)))
    marked = list(marked)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    centers = [B.zeros[i] for i in marked]

    deflated = [_deflated(B, i) for i in marked]
    delta = min(deflated) if deflated else 1.0
    if delta == 0.0:
        raise HypothesisError("deflated product vanishes at a marked zero (delta = 0)")

    threshold = pseudo_sum(alpha, alpha)
    rhos = [pseudo_distance(a, b) for a, b in combinations(centers, 2)]
    min_rho = min(rhos) if rhos else None  # fewer than two discs: disjoint vacuously
    disjoint = min_rho is None or min_rho > threshold

    n_angles = max(8, samples_per_disc // 5)
    rows = []
    beta_hat = math.inf
    for i, a, defl in zip(marked, centers, deflated):
        zs = np.array(PseudoDisc(a, alpha).sample(n_radii=5, n_angles=n_angles))
        local = float(np.min(np.abs(blaschke_derivative(B, zs)) * (1.0 - abs(a))))
        beta_hat = min(beta_hat, local)
        rows.append(GpvRow(index=i, center=a, deflated=defl, beta_local=local))
    if not rows:
        beta_hat = 0.0

    return GpvReport(
        delta=delta,
        alpha=alpha,
        disjoint=disjoint,
        min_pairwise_rho=min_rho,
        rho_threshold=threshold,
        beta_hat=beta_hat,
        per_zero=tuple(rows),
        truncation_tail=truncation_tail,
    )
