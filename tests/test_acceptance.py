"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
happen; without -s pytest shows them for failing tests.  Every tolerance
is pinned here, not configurable.
"""

import cmath
import math
import time

import numpy as np
import pytest

import semiflow_lab as sl
from semiflow_lab.cli import random_disc_points

MODULE_START = time.perf_counter()


def report(number: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")


def radial_flow(tol=1e-10):
    return sl.ode_flow(sl.Polynomial([0, -1]), tol)


def corpus_flows():
    return {
        "-z": radial_flow(),
        "iz": sl.ode_flow(sl.Polynomial([0, 1j])),
        "-z(1-z)": sl.ode_flow(sl.Polynomial([0, -1, 1])),
        "cayley-parabolic": sl.koenigs_flow(sl.cayley_map(), 1j, "translate"),
    }


def corpus_weights():
    return {
        "g=0": sl.Weight(sl.Constant(0)),
        "g=1": sl.Weight(sl.Constant(1)),
        "g=z": sl.Weight(sl.Identity()),
        "coboundary-1-z": sl.Coboundary(sl.Polynomial([1, -1])),
    }


def test_criterion_01_flow_oracle():
    start = time.perf_counter()
    rng = np.random.RandomState(101)
    flow = radial_flow()
    worst = 0.0
    for z in random_disc_points(rng, 100, 0.9):
        t = rng.uniform(0.0, 5.0)
        worst = max(worst, abs(flow.advance(z, t) - z * cmath.exp(-t)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, ok, f"flow oracle max error {worst:.3e} <= 1e-9, runtime {elapsed:.2f}s < 5s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_semigroup_identity():
    rng = np.random.RandomState(102)
    worst = {}
    for name, flow in corpus_flows().items():
        w = 0.0
        for z in random_disc_points(rng, 50, 0.8):
            s, t = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            w = max(w, sl.check_semigroup(flow, z, s, t))
        worst[name] = w
    ok = all(v <= 1e-8 for v in worst.values())
    report(2, ok, "semigroup residual max " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " <= 1e-8")
    assert ok, worst


def test_criterion_03_cocycle_identity_and_round_trip():
    rng = np.random.RandomState(103)
    worst_id = 0.0
    worst_fd = 0.0
    for fname, flow in corpus_flows().items():
        for wname, weight in corpus_weights().items():
            wsg = sl.WeightedSemigroup(flow, weight)
            for z in random_disc_points(rng, 12, 0.8):
                s, t = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
                worst_id = max(worst_id, sl.check_cocycle_identity(wsg, z, s, t))
            g_tree = sl.cocycles.weight_fn(wsg)
            for z in random_disc_points(rng, 6, 0.8):
                est = sl.weight_generator_fd(wsg, z, [1e-2, 5e-3, 2.5e-3])
                worst_fd = max(worst_fd, abs(est - g_tree.eval(z)))
    # closed-form oracle for (G = -z, g = z)
    wsg = sl.WeightedSemigroup(radial_flow(1e-12), sl.Weight(sl.Identity()))
    worst_oracle = 0.0
    for z in random_disc_points(rng, 20, 0.8):
        t = rng.uniform(0.0, 2.0)
        exact = cmath.exp(z * (1 - math.exp(-t)))
        worst_oracle = max(worst_oracle, abs(sl.cocycle_eval(wsg, z, t) - exact))
    ok = worst_id <= 1e-8 and worst_fd <= 1e-6 and worst_oracle <= 1e-9
    report(
        3,
        ok,
        f"cocycle identity {worst_id:.2e} <= 1e-8, derivative round-trip {worst_fd:.2e} <= 1e-6, "
        f"closed-form oracle {worst_oracle:.2e} <= 1e-9",
    )
    assert worst_id <= 1e-8
    assert worst_fd <= 1e-6
    assert worst_oracle <= 1e-9


def test_criterion_04_generator_consistency_ladder():
    start = time.perf_counter()
    flow = radial_flow(1e-12)
    ladder = [0.1 * 2 ** (-k) for k in range(7)]
    # degree 8 keeps the truncation tail (the residual scale when g = z,
    # where W_t fixes e^z exactly) well above the integration noise floor
    functions = {
        "1": sl.Constant(1),
        "z": sl.Identity(),
        "z^2": sl.Polynomial([0, 0, 1]),
        "exp-trunc": sl.Polynomial([1 / math.factorial(k) for k in range(9)]),
    }
    weights = {
        "g=0": sl.Weight(sl.Constant(0)),
        "g=1": sl.Weight(sl.Constant(1)),
        "g=z": sl.Weight(sl.Identity()),
    }
    bad = []
    oracle_ok = True
    nontrivial = 0
    for wname, weight in weights.items():
        wsg = sl.WeightedSemigroup(flow, weight)
        for fname, f in functions.items():
            table = sl.generator_consistency(wsg, f, sl.H2Norm(N=64, r=0.9), ladder)
            if table.max_residual() <= 1e-9:
                # identically-zero rows: (g=0, f=1) has W_t f = f = 1, and
                # (g=1, f=z) has W_t z = e^t e^{-t} z = z; computed values sit
                # at the integrator-noise floor tol/t and carry no decay rate
                continue
            nontrivial += 1
            ratios = table.ratios()
            if not all(0.3 <= q <= 0.7 for q in ratios):
                bad.append((wname, fname, ratios))
            if wname == "g=0" and fname == "z^2":
                for t, res, _ in table.rows:
                    oracle = abs(math.exp(-2 * t) - 1 + 2 * t) / t
                    if abs(res - oracle) > 0.05 * oracle:
                        oracle_ok = False
    elapsed = time.perf_counter() - start
    ok = not bad and oracle_ok and elapsed < 30.0
    report(
        4,
        ok,
        f"consistency ratios in [0.3, 0.7] for all {nontrivial} non-degenerate rows "
        f"(of 12), z^2 oracle within 5%, runtime {elapsed:.1f}s < 30s",
    )
    assert nontrivial == 10
    assert not bad, bad
    assert oracle_ok
    assert elapsed < 30.0


def test_criterion_05_coboundary_similarity():
    rng = np.random.RandomState(105)
    flow = radial_flow()
    alpha = sl.Polynomial([1, -1])
    f = sl.Exp(sl.Identity())
    worst = 0.0
    for z in random_disc_points(rng, 50, 0.8):
        t = rng.uniform(0.0, 1.5)
        worst = max(worst, sl.coboundary_similarity_check(alpha, flow, f, z, t))
    ok = worst <= 1e-12
    report(5, ok, f"coboundary similarity residual {worst:.2e} <= 1e-12 at 50 points")
    assert ok, worst


def test_criterion_06_conformal_transfer():
    rng = np.random.RandomState(106)
    newton_cayley = sl.ConformalMap(forward=sl.Mobius(1, 1, -1, 1))  # exercises Newton
    wsg = sl.WeightedSemigroup(radial_flow(1e-12), sl.Weight(sl.Identity()))
    worst = 0.0
    for z in random_disc_points(rng, 20, 0.7):
        worst = max(
            worst, sl.transfer_conjugation_check(newton_cayley, wsg, sl.Identity(), z, 0.5)
        )
    c = 1.3 - 0.4j
    G1, _ = sl.transfer_generator(sl.cayley_map(), sl.Constant(c), sl.Constant(0))
    worst_gen = max(
        abs(G1.eval(z) - c * (1 - z) ** 2 / 2) for z in random_disc_points(rng, 20, 0.9)
    )
    ok = worst <= 1e-9 and worst_gen <= 1e-10
    report(
        6,
        ok,
        f"Cayley conjugation residual {worst:.2e} <= 1e-9, "
        f"transferred field error {worst_gen:.2e} <= 1e-10",
    )
    assert worst <= 1e-9
    assert worst_gen <= 1e-10


def test_criterion_07_gpv_lemma():
    zeros = sl.radial_zeros(12)
    consecutive = [
        sl.pseudo_distance(zeros[n], zeros[n + 1]) for n in range(len(zeros) - 1)
    ]
    oracle = [1.0 / (3.0 - 2.0 ** (-(n + 1))) for n in range(len(zeros) - 1)]
    oracle_ok = all(abs(a - b) < 1e-12 for a, b in zip(consecutive, oracle))
    rep = sl.gpv_bound_check(sl.BlaschkeProduct(zeros), alpha=0.1, samples_per_disc=80)
    betas = [
        sl.gpv_bound_check(
            sl.BlaschkeProduct(sl.radial_zeros(count)), alpha=0.1, samples_per_disc=80
        ).beta_hat
        for count in (8, 10, 12, 14)
    ]
    stable = max(betas) / min(betas) < 2.0
    ok = (
        min(consecutive) >= 0.33
        and oracle_ok
        and rep.disjoint
        and rep.beta_hat > 0
        and stable
    )
    report(
        7,
        ok,
        f"consecutive rho >= {min(consecutive):.4f} (oracle matched), discs disjoint, "
        f"beta_hat {rep.beta_hat:.4g} > 0, truncation spread {max(betas)/min(betas):.3f} < 2",
    )
    assert min(consecutive) >= 0.33 and oracle_ok
    assert rep.disjoint and rep.beta_hat > 0
    assert stable


def test_criterion_08_bloch_gap_case1():
    start = time.perf_counter()
    flow = radial_flow(1e-12)
    gc = sl.construct_case1(flow, 1.0, N=6, t_start=0.5)

    margins = gc.geom_margins()
    worst_margin = min(
        [m["first"] for m in margins]
        + [m["second"] for m in margins if m["second"] is not None]
    )
    margins_ok = worst_margin >= 1e-3

    grid = sl.GridSpec((0.0, 0.3, 0.6, 0.85), (1, 8, 16, 16))  # bloch_gap adds the r_n
    weights = [
        sl.Weight(sl.Constant(0)),
        sl.Weight(sl.Constant(1)),
        sl.Coboundary(sl.Polynomial([1, -1])),
    ]
    bound_sets, cancel_ok, delta_hats, reports = [], True, [], []
    for weight in weights:
        rep = sl.bloch_gap(gc, weight, grid)
        reports.append(rep)
        bound_sets.append(tuple(r.lower_bound for r in rep.rows))
        delta_hats.append(rep.delta_hat)
        for row in rep.rows:
            scale = abs(row.lower_bound / (1.0 - row.r))  # |f'(r_n)|
            if row.cancellation > 1e-8 * scale:
                cancel_ok = False
    identical = bound_sets[0] == bound_sets[1] == bound_sets[2]
    gap_ok = min(delta_hats) > 0 and gc.levels[-1].t <= gc.levels[0].t / 32.0
    # the CLI's certificate passes too, and its limits are no looser than the ones pinned here
    cli_ok = all(passed for _, passed, _, _ in sl.gap.bloch_gap_verdicts(gc, reports)) and (
        sl.gap.GEOM_MARGIN >= 1e-3 and sl.gap.CANCELLATION_LIMIT <= 1e-8 and sl.gap.TIME_VANISHING <= 1 / 32
    )

    # contrast: on the Hardy norm the same flow IS strongly continuous at f = z
    wsg0 = sl.WeightedSemigroup(flow, sl.Weight(sl.Constant(0)))
    norms = []
    for t in [0.1 * 2 ** (-k) for k in range(7)]:
        h2 = sl.H2Norm(16, 0.9)
        norms.append(h2.reduce(h2.sample(lambda z: sl.apply_weighted(wsg0, sl.Identity(), z, t) - z)))
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    contrast_ok = norms[-1] < 0.01 and all(0.3 <= q <= 0.7 for q in ratios)

    elapsed = time.perf_counter() - start
    ok = margins_ok and identical and cancel_ok and gap_ok and contrast_ok and cli_ok and elapsed < 60.0
    report(
        8,
        ok,
        f"margins >= 1e-3 (min {worst_margin:.4f}), bounds bit-identical across weights, "
        f"delta_hat {min(delta_hats):.4g} > 0 with t6/t1 = {gc.levels[-1].t/gc.levels[0].t:.2e}, "
        f"cancellation <= 1e-8 scale, H2 contrast decays linearly, bloch-gap verdicts pass, "
        f"runtime {elapsed:.1f}s < 60s",
    )
    assert margins_ok and identical and cancel_ok and gap_ok and contrast_ok and cli_ok
    assert elapsed < 60.0


def test_criterion_09_bloch_gap_case2():
    flow = sl.Automorphism(kind="parabolic", speed=1.0, reflect=True)
    gc = sl.construct_case2(flow, N=6)
    worst_angle = max(abs(cmath.phase(lv.w - 1) - gc.target_angle) for lv in gc.levels)
    late = [q for lv, q in zip(gc.levels, gc.ratios) if lv.n >= 4]
    ratio_ok = bool(late) and all(0.8 <= q <= 1.2 for q in late)
    sep_ok = gc.min_separation >= 0.1
    ok = worst_angle <= 1e-9 and ratio_ok and sep_ok
    report(
        9,
        ok,
        f"angle equation solved to {worst_angle:.2e} <= 1e-9, depth ratios in [0.8, 1.2] "
        f"for n >= 4, pseudohyperbolic separation {gc.min_separation:.3f} >= 0.1",
    )
    assert worst_angle <= 1e-9
    assert ratio_ok and sep_ok


def test_criterion_10_non_separability():
    B = sl.BlaschkeProduct(sl.radial_zeros(10))
    rotations = [2 * math.pi * k / 8 for k in range(8)]
    pts = [complex(a) * cmath.exp(1j * th) for a in B.zeros for th in rotations]
    grid = sl.GridSpec((0.0, 0.3, 0.6, 0.85), (1, 16, 32, 32), tuple(pts))
    rep = sl.separability_witness(B, rotations, grid)
    off = [rep.matrix[i][j] for i in range(8) for j in range(i + 1, 8)]
    rep2 = sl.separability_witness(B, rotations, grid.refine())
    drift = abs(rep2.eps_hat - rep.eps_hat) / rep.eps_hat
    ok = len(off) == 28 and rep.eps_hat > 0 and drift <= 0.2
    report(
        10,
        ok,
        f"28 pairwise Bloch gaps >= eps_hat = {rep.eps_hat:.4g} > 0, "
        f"refinement drift {drift:.3f} <= 0.2",
    )
    assert len(off) == 28
    assert rep.eps_hat > 0
    assert drift <= 0.2


def test_criterion_11_suite_budget():
    # invariant bullets live in the per-module test files; this file dominates
    # the runtime, so its elapsed time is the budget proxy for the CI run
    elapsed = time.perf_counter() - MODULE_START
    ok = elapsed < 300.0
    report(11, ok, f"acceptance module elapsed {elapsed:.1f}s < 300s (full suite budget)")
    assert ok
