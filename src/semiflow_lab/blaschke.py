"""Finite Blaschke products, pseudohyperbolic geometry and interpolation diagnostics.

A product is stored as its zero list (multiplicity by repetition) plus a
unimodular phase e^{i*theta}, and is itself an expression-tree leaf of
``analytic``.  Infinite products are represented by truncation, and every
evaluation is one forward walk over the factors (``_products``).

``pseudo_distance`` takes points or arrays; the certificates read the deflated
products, the multiplicity test and the least separation off one row of rho
per zero (``_rho_rows``), and sample all their pseudo-discs in one expression.
The truncations of one product are its prefixes, so one walk and one row per
zero serve them all.  A deflated product below the double range is refused
with its log10.
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
        # the module's functions are looked up on every call, so a rebound one is the one that runs
        em.namespace["_blaschke"] = sys.modules[__name__]
        B, coeffs = em.bind(node), [em.name() for _ in range(min(order, 1) + 1)]
        if not order:  # the walk without the slope
            em.do(f"{coeffs[0]} = _blaschke.blaschke_eval({B}, {z})")
            return coeffs
        em.do(f"{coeffs[0]}, {coeffs[1]} = _blaschke._product({B}, {z}, slope=True, guard=True)")
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


def _products(phase, zeros, z, slope):
    """The forward product rule, the one walk over the factors behind every Blaschke evaluation.

    The running product v starts at the phase with v' = 0, and each factor b makes
    (v b)' = v b' + v' b and then v b; (v, v') is yielded at the start and after each
    factor, v' None without slope.  At a zero z_k the factor b_k vanishes exactly, so
    every earlier term drops and the rule has no cancellation there.
    """
    value, d = full(z, phase), (full(z, 0.0) if slope else None)
    yield value, d
    for a in zeros:
        b = b_factor(a, z)
        if slope:
            d = value * _b_factor_derivative(a, z) + d * b
        value = value * b
        yield value, d


def _product(B: BlaschkeProduct, z, slope: bool, guard: bool):
    """(B(z), B'(z)) at a point or an array of points, from one walk; B'(z) is None without
    slope.  With guard, a value that left the disc at a point of |z| <= 1 - 1e-9 is refused."""
    z = points(z)
    for value, d in _products(B.phase, B.zeros, z, slope):
        pass
    if guard and B.zeros:
        raise_at((abs(z) <= 1.0 - 1e-9) & outside(value), z, DomainError,
                 "finite Blaschke product left the disc at {}")
    return value, d


def blaschke_eval(B: BlaschkeProduct, z):
    """Evaluate the product at a point or an array of points; |z| <= 1 allowed
    so boundary modulus can be checked."""
    return _product(B, z, slope=False, guard=True)[0]


def blaschke_derivative(B: BlaschkeProduct, z):
    """B' at a point or an array of points, by the forward product rule (``_products``)."""
    return _product(B, z, slope=True, guard=False)[1]


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


def _rho_rows(zeros, marked, prefixes=None):
    """What the certificates read off the marked zeros' rows of rho, for each prefix (k, m): the
    first k zeros, of which the first m marked ones are read; by default the one prefix
    (len(zeros), len(marked)).  A prefix's row for its marked zero a_n is rho(a_n, a_j) over its
    zeros a_j, and it gives: the deflated product |(B_k / b_{a_n})(a_n)| = prod_{j != n} rho(a_n, a_j);
    the sum of the factors' log10 for each product below the normal double range, 0 or subnormal
    (-inf where a factor is 0); and, for each of its marked zeros but the last, the least rho to
    its marked zeros after it.  Each marked zero's row over the longest prefix serves every prefix,
    and the rows are made one at a time, so that memory stays O(len(zeros))."""
    zs, marked = np.array(zeros, dtype=complex), np.array(marked, dtype=int)
    prefixes = [(len(zs), len(marked))] if prefixes is None else prefixes
    found = [([], [], []) for _ in prefixes]  # (products, log10s, later) a prefix
    longest, most = max((k for k, _ in prefixes), default=0), max((m for _, m in prefixes), default=0)
    for p, n in enumerate(marked[:most]):
        row = pseudo_distance(zs[n], zs[:longest])
        reading = [(row[:k], m, out) for (k, m), out in zip(prefixes, found) if p < m]
        for part, m, (_, _, later) in reading:
            if p + 1 < m:
                later.append(float(part[marked[p + 1:m]].min()))
        row[n] = 1.0
        for part, _, (products, log10s, _) in reading:
            products.append(float(np.prod(part)))
            if products[-1] < sys.float_info.min:
                with np.errstate(divide="ignore"):
                    log10s.append(float(np.sum(np.log10(part))))
    return found


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
    per, log10s, later = _rho_rows(zeros, range(len(zeros)))[0]
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
    return _gpv_reports(B, marked, [(len(B.zeros), len(marked))], alpha, samples_per_disc, truncation_tail)[0]


def gpv_truncations(B: BlaschkeProduct, counts, alpha: float = 0.1, samples_per_disc: int = 80) -> list:
    """``gpv_bound_check`` of each truncation B_k, the phase times B's first k factors, k in
    ``counts``, every zero of B_k marked: the reports of separate calls, field for field, from
    one forward pass over the discs of the longest truncation."""
    counts = list(counts)
    if not all(0 <= k <= len(B.zeros) for k in counts):  # a longer one would read no slope
        raise ValueError(f"truncation counts {counts} must lie in 0..{len(B.zeros)}")
    return _gpv_reports(B, range(max(counts, default=0)), [(k, k) for k in counts], alpha, samples_per_disc)


def _gpv_reports(B, marked, prefixes, alpha, samples_per_disc, truncation_tail=0.0) -> list:
    """The ``gpv_bound_check`` report of each prefix (k, m): the phase times B's first k factors,
    checked on the pseudo-discs of the first m marked zeros.  Every refusal is raised first, in
    the order of the prefixes; then one forward pass over the discs of all the prefixes reads each
    prefix's slopes off the rows of its m discs after factor k."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    read = _rho_rows(B.zeros, marked, prefixes)
    deltas = [_least_delta(deflated, log10s) for deflated, log10s, _ in read]

    # every disc's samples as one (discs, points) batch, each row's centre first; no disc, no pass
    centers = [B.zeros[i] for i in marked[:max((m for _, m in prefixes), default=0)]]
    local = [[] for _ in prefixes]
    if centers:
        zs = _disc_points(centers, alpha, 5, max(8, samples_per_disc // 5))
        scale = 1 - np.abs(zs[:, :1])
        steps = _products(B.phase, B.zeros[:max(k for k, _ in prefixes)], zs, True)
        for factors, (_, slope) in enumerate(steps):
            for i, (k, m) in enumerate(prefixes):
                if k == factors and m:
                    local[i] = np.min(np.abs(slope[:m]) * scale[:m], axis=1).tolist()

    threshold = pseudo_sum(alpha, alpha)
    reports = []
    for (_, m), delta, (deflated, _, later), betas in zip(prefixes, deltas, read, local):
        min_rho = min(later, default=None)
        rows = tuple(GpvRow(index=i, center=B.zeros[i], deflated=defl, beta_local=beta)
                     for i, defl, beta in zip(marked[:m], deflated, betas))
        reports.append(GpvReport(
            delta=delta, alpha=alpha,
            disjoint=min_rho is None or min_rho > threshold,  # fewer than two discs: disjoint vacuously
            min_pairwise_rho=min_rho, rho_threshold=threshold, beta_hat=min(betas, default=0.0),
            per_zero=rows, truncation_tail=truncation_tail))
    return reports
