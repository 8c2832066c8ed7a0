"""Configuration-driven experiment runner.

Every laboratory check is a subcommand reading a JSON config and writing
machine-readable reports: report.json (verdicts and summary numbers), one
CSV per table, and metadata.json (wall clock and the integrator's work
counters; kept separate so reruns with the same config produce
byte-identical report and CSV bodies).  Exit code
0 iff every verdict passes.

Every JSON object of a config records the keys its readers read, and a key
that nothing read is a config error (exit 2), also when a numerical error
ended the run.  So each runner reads all its keys before any numerical work,
and builds its flow last, since building one can already evaluate its map;
bloch-gap builds it before the keys of the case its generator picks.  Every
value goes through a typed reader of errors.py, and a missing key is refused
with one message at any depth.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .analytic import BlochGridNorm, GridSpec, H2Norm, fn_from_json
from .blaschke import BlaschkeProduct, gpv_truncations, radial_zeros
from .cocycles import (
    WeightedSemigroup,
    check_cocycle_identity,
    coboundary_similarity_check,
    generator_consistency,
    transfer_conjugation_check,
    weight_fn,
    weight_from_json,
    weight_generator_fd,
)
from .errors import (
    ConfigError,
    SemiflowError,
    config_flag,
    config_integer,
    config_number,
    config_numbers,
    config_object,
    config_pair,
    config_parser,
    config_positive,
    json_form,
)
from .flows import _check_ladder, check_semigroup, flow_from_json, generator_fd, map_from_json
from .flows import automorphism_generator, counting
from .gap import SEPARATION_FLOOR, bloch_gap_verdicts, bloch_gaps, construct_case1, construct_case2
from .gap import reduce_rotations, separability_witness


class _Config(dict):
    """A JSON object of the loaded config that records which of its keys were read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __missing__(self, key):
        raise ConfigError(f"config missing required key {key!r}")

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _unread(obj, path: str = ""):
    """The key paths, nested objects included, that no reader of the config read."""
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _unread(v, f"{path}[{i}]")
    elif isinstance(obj, _Config):
        for key, v in obj.items():
            where = f"{path}.{key}" if path else key
            yield from _unread(v, where) if key in obj.read else (where,)


def _digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _grid(config: dict, default: dict, extra=()) -> GridSpec:
    """The grid of config["grid"] (``default`` when absent) with the points ``extra`` added."""
    grid = GridSpec.from_json(config_object("grid", config.get("grid", default)))
    return GridSpec(grid.radii, grid.angular, grid.points + tuple(extra))


def _window(config: dict, key: str, default: list, least: float = -math.inf):
    """config[key] as a pair of numbers least <= lo <= hi."""
    lo, hi = config_numbers(key, config.get(key, default), 2)
    if not least <= lo <= hi:
        bound = f"{least:g} <= " if least > -math.inf else ""
        raise ConfigError(f"config key {key!r} must hold numbers {bound}lo <= hi, got {[lo, hi]}")
    return lo, hi


def _ladder(config: dict, key: str, default: list) -> list:
    """config[key] as a strictly decreasing list of positive steps."""
    v = config.get(key, default)
    steps = config_numbers(key, v)
    try:
        return _check_ladder(steps)
    except ValueError:
        raise ConfigError(
            f"config key {key!r} must be a strictly decreasing list of positive numbers, got {v!r}"
        ) from None


def random_disc_points(rng, n: int, radius: float):
    """n points drawn uniformly from the closed disc of the given radius."""
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            pts.append(z)
    return pts


def _table(zs, *columns):
    """One CSV row [z_re, z_im, *columns] per point of zs; a scalar column repeats."""
    cells = [np.broadcast_to(c, (len(zs),)).tolist() for c in columns]
    return [[z.real, z.imag, *row] for z, *row in zip(np.asarray(zs).tolist(), *cells)]


def _at_most(name, values, threshold):
    """Verdict ``name``: the largest of ``values`` is at most ``threshold``."""
    worst = float(np.max(values))
    return name, worst <= threshold, worst, threshold


def _in_window(name, ratios, lo, hi):
    """Verdict ``name``: some ratios, each in [lo, hi].  Its value, against 0, is the least q - lo
    or hi - q: negative when a ratio lies outside, None when there is none."""
    value = min((min(q - lo, hi - q) for q in ratios), default=None)
    return name, value is not None and value >= 0.0, value, 0.0


def run_flow_trace(config, seed):
    z0 = config_pair("z0", config["z0"])
    t_max = config_positive("t_max", config.get("t_max", 2.0))
    n = config_integer("samples", config.get("samples", 50))
    times = [t_max * k / n for k in range(n + 1)]  # the samples are times[1:]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"config key 't_max' = {t_max!r} is too small for {n} distinct sample times")
    flow = flow_from_json(config["flow"])
    ts = np.array(times[1:])
    w, dw = flow.advance_with_derivative(z0, ts)  # one orbit, sampled at per-point end times
    widest = float(abs(w).max())
    rows = np.column_stack([ts, w.real, w.imag, dw.real, dw.imag]).tolist()
    verdicts = [("trajectory-inside-disc", widest < 1.0, widest, 1.0)]
    return verdicts, {"trajectory": (["t", "re", "im", "dre", "dim"], rows)}


def run_flow_check(config, seed):
    n = config_integer("n_points", config.get("n_points", 50))
    radius = config_number("z_radius", config.get("z_radius", 0.8), 0.0, 1.0)
    t_lo, t_hi = _window(config, "t_range", [0.0, 2.0], least=0.0)
    thr_semi = config_number("semigroup_threshold", config.get("semigroup_threshold", 1e-8))
    ladder = _ladder(config, "generator_ladder", [5e-3, 2.5e-3, 1.25e-3])
    thr_gen = config_number("generator_threshold", config.get("generator_threshold", 1e-6))
    flow = flow_from_json(config["flow"])

    rng = np.random.RandomState(seed)
    zs = random_disc_points(rng, n, radius)
    s, t = np.array([(rng.uniform(t_lo, t_hi), rng.uniform(t_lo, t_hi)) for _ in zs]).T
    resid = check_semigroup(flow, np.array(zs), s, t)
    zs_fd = np.array(random_disc_points(rng, min(n, 30), radius))
    est = generator_fd(flow, zs_fd, ladder)
    mismatch = abs(est - flow.generator_fn().eval(zs_fd))
    verdicts = [
        _at_most("semigroup-identity", resid, thr_semi),
        _at_most("generator-round-trip", mismatch, thr_gen),
    ]
    tables = {
        "semigroup_residuals": (["z_re", "z_im", "s", "t", "residual"], _table(zs, s, t, resid)),
        "generator_roundtrip": (
            ["z_re", "z_im", "fd_re", "fd_im", "mismatch"], _table(zs_fd, est.real, est.imag, mismatch)
        ),
    }
    return verdicts, tables


def run_cocycle_check(config, seed):
    weight = weight_from_json(config["weight"])
    n = config_integer("n_points", config.get("n_points", 50))
    radius = config_number("z_radius", config.get("z_radius", 0.8), 0.0, 1.0)
    t_lo, t_hi = _window(config, "t_range", [0.0, 1.0], least=0.0)
    thr_id = config_number("identity_threshold", config.get("identity_threshold", 1e-8))
    ladder = _ladder(config, "fd_ladder", [1e-2, 5e-3, 2.5e-3])
    thr_fd = config_number("fd_threshold", config.get("fd_threshold", 1e-6))
    wsg = WeightedSemigroup(flow_from_json(config["flow"]), weight)

    rng = np.random.RandomState(seed)
    zs = random_disc_points(rng, n, radius)
    s, t = np.array([(rng.uniform(t_lo, t_hi), rng.uniform(t_lo, t_hi)) for _ in zs]).T
    resid = check_cocycle_identity(wsg, np.array(zs), s, t)
    zs_fd = np.array(random_disc_points(rng, min(n, 20), radius))
    est = weight_generator_fd(wsg, zs_fd, ladder)
    mismatch = abs(est - weight_fn(wsg).eval(zs_fd))
    verdicts = [
        _at_most("cocycle-identity", resid, thr_id),
        _at_most("weight-derivative-round-trip", mismatch, thr_fd),
    ]
    tables = {
        "cocycle_identity": (["z_re", "z_im", "s", "t", "residual"], _table(zs, s, t, resid)),
        "weight_roundtrip": (
            ["z_re", "z_im", "fd_re", "fd_im", "mismatch"], _table(zs_fd, est.real, est.imag, mismatch)
        ),
    }
    return verdicts, tables


def _norm_from_config(obj):
    kind = obj.get("type", "h2")
    if kind == "h2":
        r = config_positive("r", obj.get("r", 0.9), below=1.0)
        return H2Norm(N=config_integer("N", obj.get("N", 64)), r=r)
    if kind == "bloch":
        return BlochGridNorm(GridSpec.from_json(obj["grid"]))
    raise ConfigError(f"unknown norm type {kind!r}")


def run_generator_check(config, seed):
    weight = weight_from_json(config["weight"])
    f = fn_from_json(config["function"])
    norm = _norm_from_config(config_object("norm", config.get("norm", {})))
    ladder = _ladder(config, "t_ladder", [0.1 * 2 ** (-k) for k in range(7)])
    lo, hi = _window(config, "ratio_window", [0.3, 0.7])
    wsg = WeightedSemigroup(flow_from_json(config["flow"]), weight)
    table = generator_consistency(wsg, f, norm, ladder)
    if table.max_residual() <= 1e-9:
        # residuals at the integration-noise floor carry no decay rate
        verdict = ("consistency-trivial-zero", True, table.max_residual(), 1e-9)
    else:
        verdict = _in_window("consistency-first-order-decay", table.ratios(), lo, hi)
    rows = [[t, res, "" if ratio is None else ratio] for t, res, ratio in table.rows]
    return [verdict], {"consistency": (["t", "residual", "ratio"], rows)}


def run_coboundary_check(config, seed):
    alpha = fn_from_json(config["alpha"])
    f = fn_from_json(config["function"])
    n = config_integer("n_points", config.get("n_points", 50))
    radius = config_number("z_radius", config.get("z_radius", 0.8), 0.0, 1.0)
    t_lo, t_hi = _window(config, "t_range", [0.0, 1.0], least=0.0)
    thr = config_number("threshold", config.get("threshold", 1e-12))
    flow = flow_from_json(config["flow"])
    rng = np.random.RandomState(seed)
    zs = random_disc_points(rng, n, radius)
    t = np.array([rng.uniform(t_lo, t_hi) for _ in zs])
    resid = coboundary_similarity_check(alpha, flow, f, np.array(zs), t)
    verdicts = [_at_most("coboundary-similarity", resid, thr)]
    return verdicts, {"similarity": (["z_re", "z_im", "t", "residual"], _table(zs, t, resid))}


def run_transfer_check(config, seed):
    h = map_from_json(config.get("map", "cayley"))
    weight = weight_from_json(config["weight"])
    f = fn_from_json(config["function"])
    n = config_integer("n_points", config.get("n_points", 20))
    radius = config_number("z_radius", config.get("z_radius", 0.7), 0.0, 1.0)
    t = config_number("t", config.get("t", 0.5), 0.0)
    thr = config_number("threshold", config.get("threshold", 1e-9))
    wsg = WeightedSemigroup(flow_from_json(config["flow"]), weight)
    rng = np.random.RandomState(seed)
    zs = random_disc_points(rng, n, radius)
    resid = transfer_conjugation_check(h, wsg, f, np.array(zs), t)
    verdicts = [_at_most("conjugation-round-trip", resid, thr)]
    return verdicts, {"transfer": (["z_re", "z_im", "t", "residual"], _table(zs, t, resid))}


def _zeros_from_config(config):
    """The listed ``zeros`` and no ratio, or the geometric ``family``'s zeros and ratio."""
    if "zeros" in config:
        zeros = config["zeros"]
        if not isinstance(zeros, list) or not zeros:
            raise ConfigError(f"config key 'zeros' must be a non-empty list of [re, im] pairs, got {zeros!r}")
        zeros = tuple(config_pair("zeros", p) for p in zeros)
        for a in zeros:
            if abs(a) >= 1.0:
                raise ConfigError(f"config key 'zeros' holds {a}, which is not inside the open disc")
        return zeros, None
    fam = config_object("family", config.get("family", {"kind": "geometric", "count": 12}))
    if fam.get("kind", "geometric") == "geometric":
        count = config_integer("count", fam.get("count", 12))
        ratio = config_positive("ratio", fam.get("ratio", 0.5), below=1.0)
        return radial_zeros(_geometric_count("count", count, ratio), ratio), ratio
    raise ConfigError("provide either 'zeros' or a geometric 'family'")


def _geometric_count(key, count, ratio):
    """``count``, once the geometric family's deepest zero 1 - ratio**count is below 1.0."""
    if 1.0 - ratio ** count >= 1.0:
        raise ConfigError(f"config key {key!r} = {count} puts the zero 1 - {ratio}**{count} at 1.0, on the circle")
    return count


def run_gpv(config, seed):
    zeros, ratio = _zeros_from_config(config)
    alpha = config_positive("alpha", config.get("alpha", 0.1), below=1.0)
    samples = config_integer("samples_per_disc", config.get("samples_per_disc", 80))
    counts = []
    if "stability_counts" in config:
        if ratio is None:
            raise ConfigError("stability_counts need a geometric 'family': listed zeros name no truncations")
        counts = config_numbers("stability_counts", config["stability_counts"])
        counts = [_geometric_count("stability_counts", config_integer("stability_counts", c), ratio) for c in counts]
    # the family and every truncation are prefixes of the longest product: one pass reads them all
    sizes = list(dict.fromkeys([len(zeros), *counts]))
    longest = BlaschkeProduct(radial_zeros(max(sizes), ratio) if counts else zeros)
    reports = dict(zip(sizes, gpv_truncations(longest, sizes, alpha=alpha, samples_per_disc=samples)))
    report = reports[len(zeros)]
    verdicts = [
        ("pseudo-discs-disjoint", report.disjoint, report.min_pairwise_rho, report.rho_threshold),
        ("derivative-lower-bound-positive", report.beta_hat > 0.0, report.beta_hat, 0.0),
    ]
    if counts:
        betas = [reports[count].beta_hat for count in dict.fromkeys(counts)]
        factor = max(betas) / min(betas)
        verdicts.append(("beta-hat-stable", factor < 2.0, factor, 2.0))
    rows = [
        [r.index, r.center.real, r.center.imag, r.deflated, r.beta_local]
        for r in report.per_zero
    ]
    tables = {"gpv": (["index", "re", "im", "deflated", "beta_local"], rows)}
    return verdicts, tables, {"gpv_report": json_form(report)}


def run_bloch_gap(config, seed):
    """Theorem 2's certificate.  The flow's generator picks the construction, case 2 for an
    automorphism group and case 1 for any other flow, with no integration, so the case's keys
    are read before any numerical work.  One ``bloch_gaps`` call gives each weight its table."""
    weights = []
    if "weights" in config:
        weights = config["weights"]
        if not isinstance(weights, list) or not weights:
            raise ConfigError(f"config key 'weights' must be a non-empty list of weights, got {weights!r}")
        weights = [weight_from_json(w) for w in weights]
    N = config_integer("N", config.get("N", 6))
    grid = _grid(config, {"radii": [0.0, 0.3, 0.6, 0.85], "angular": [1, 8, 16, 16]})
    flow = flow_from_json(config["flow"])
    if automorphism_generator(flow) is None:
        gamma0 = config_pair("gamma0", config.get("gamma0", [1.0, 0.0]))
        if abs(abs(gamma0) - 1.0) > 1e-12:
            raise ConfigError(f"gamma0 = {gamma0} must be unimodular")
        gc = construct_case1(flow, gamma0, N, config_positive("t_start", config.get("t_start", 0.5)))
        verdicts, tables = [], {}
    else:
        t_first_cap = config_positive("t_first_cap", config.get("t_first_cap", 1.0))
        angle_thr = config_number("angle_threshold", config.get("angle_threshold", 1e-9))
        lo, hi = _window(config, "ratio_window", [0.8, 1.2])
        from_n = config_integer("ratio_from_n", config.get("ratio_from_n", 4), 0)
        sep_thr = config_number("min_separation", config.get("min_separation", 0.1))
        gc = construct_case2(flow, N, t_first_cap)
        angles = [abs(cmath.phase(lv.w - 1.0) - gc.target_angle) for lv in gc.levels]
        late = [q for lv, q in zip(gc.levels, gc.ratios) if lv.n >= from_n]
        verdicts = [
            _at_most("angle-equation-solved", angles, angle_thr),
            _in_window("depth-ratio-window", late, lo, hi),
            ("pseudohyperbolic-separation", gc.min_separation >= sep_thr, gc.min_separation, sep_thr),
        ]
        rows = [[lv.n, lv.t, lv.r, lv.w.real, lv.w.imag, q] for lv, q in zip(gc.levels, gc.ratios)]
        tables = {"case2": (["n", "t", "r", "w_re", "w_im", "depth_ratio"], rows)}
    reports = bloch_gaps(gc, weights, grid) if weights else []  # no weight needs no test function
    header = ["n", "t_n", "r_n", "w_re", "w_im", "lower_bound", "grid_gap", "cancellation_residual"]
    for idx, rep in enumerate(reports):
        tables[f"gap_weight_{idx}"] = (header, [
            [r.n, r.t, r.r, r.w.real, r.w.imag, r.lower_bound, r.grid_gap, r.cancellation] for r in rep.rows])
    return verdicts + bloch_gap_verdicts(gc, reports), tables


def run_separability(config, seed):
    zeros, _ = _zeros_from_config(config)
    refine = config_flag("refine", config.get("refine", True))
    B = BlaschkeProduct(zeros)
    if isinstance(config.get("rotations"), list):
        rotations = config_numbers("rotations", config["rotations"])
        config_parser(reduce_rotations)(rotations)  # angles that coincide modulo 2*pi
    else:
        count = config_object("rotations", config.get("rotations", {"count": 8})).get("count", 8)
        count = config_integer("count", count)
        rotations = [2.0 * math.pi * k / count for k in range(count)]
    pts = [a * cmath.exp(1j * th) for a in zeros for th in rotations]
    grid = _grid(config, {"radii": [0.0, 0.3, 0.6, 0.85], "angular": [1, 16, 32, 32]}, pts)
    rep = separability_witness(B, rotations, grid)
    rots = rep.rotations
    rows = [[rots[i], rots[j], rep.matrix[i][j]] for i in range(len(rots)) for j in range(i + 1, len(rots))]
    tables = {"separability": (["theta_i", "theta_j", "gap"], rows)}
    if rep.eps_hat is None:
        return [("pairwise-gaps-positive", True, None, SEPARATION_FLOOR)], tables
    separated = rep.eps_hat > SEPARATION_FLOOR
    verdicts = [("pairwise-gaps-positive", separated, rep.eps_hat, SEPARATION_FLOOR)]
    if refine and separated:  # a drift relative to a roundoff gap measures nothing
        rep2 = separability_witness(B, rotations, grid.refine())
        drift = abs(rep2.eps_hat - rep.eps_hat) / rep.eps_hat
        verdicts.append(("eps-hat-grid-stable", drift <= 0.2, drift, 0.2))
    return verdicts, tables


RUNNERS = {
    "flow-trace": run_flow_trace,
    "flow-check": run_flow_check,
    "cocycle-check": run_cocycle_check,
    "generator-check": run_generator_check,
    "coboundary-check": run_coboundary_check,
    "transfer-check": run_transfer_check,
    "gpv": run_gpv,
    "bloch-gap": run_bloch_gap,
    "bloch-gap-auto": run_bloch_gap,  # an alias: one runner for both of Theorem 2's cases
    "separability": run_separability,
}


def _write_atomic(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_report(out_dir, subcommand, config, verdicts, tables, error=None):
    """report.json: one {name, passed, value, threshold} object per verdict tuple."""
    os.makedirs(out_dir, exist_ok=True)
    items = [{"name": n, "passed": bool(p), "value": v, "threshold": t} for n, p, v, t in verdicts]
    report = {
        "experiment": subcommand,
        "config_digest": _digest(config),
        "passed": all(v["passed"] for v in items),
        "verdicts": items,
        "tables": sorted(tables),
        "version": __version__,
    }
    if error is not None:
        report["error"] = {"type": type(error).__name__, "message": str(error)}
    _write_atomic(
        os.path.join(out_dir, "report.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )


def _write_outputs(out_dir, subcommand, config, verdicts, tables, extras, wall_clock, counters=None):
    _write_report(out_dir, subcommand, config, verdicts, tables)
    for name, (header, rows) in tables.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _write_atomic(os.path.join(out_dir, f"{name}.csv"), buf.getvalue())
    for name, payload in extras.items():
        _write_atomic(
            os.path.join(out_dir, f"{name}.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
    _write_metadata(out_dir, wall_clock, counters)


def _write_metadata(out_dir, wall_clock, counters):
    meta = {"wall_clock_seconds": wall_clock, "timestamp": time.time(), "counters": counters}
    _write_atomic(os.path.join(out_dir, "metadata.json"), json.dumps(meta, indent=2) + "\n")


def _config_error(message) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiflow-lab",
        description="Run semiflow/cocycle laboratory experiments from JSON configs.",
    )
    parser.add_argument("subcommand", choices=RUNNERS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed for random test points")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh, object_hook=_Config)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        return _config_error(exc)

    start = time.perf_counter()
    result = error = None
    try:
        with warnings.catch_warnings(), counting() as counters:
            # a typed check refuses every non-finite value; numpy's warning on the way adds nothing
            warnings.filterwarnings("ignore", "(overflow|invalid value) encountered", RuntimeWarning)
            result = RUNNERS[args.subcommand](config, args.seed)
    except ConfigError as exc:
        return _config_error(exc)
    except SemiflowError as exc:
        error = exc
    wall = time.perf_counter() - start
    unread = list(_unread(config))
    if unread:  # refused before any output, and ahead of a numerical error
        return _config_error(f"keys that {args.subcommand} does not read: {', '.join(unread)}")

    if error is not None:
        _write_report(args.out, args.subcommand, config, [("execution", False, None, None)], {}, error)
        _write_metadata(args.out, wall, counters)
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1
    verdicts, tables = result[0], result[1]
    extras = result[2] if len(result) > 2 else {}

    _write_outputs(args.out, args.subcommand, config, verdicts, tables, extras, wall, counters)
    for name, passed, value, _ in verdicts:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" value={value}" if value is not None else ""))
    return 0 if all(passed for _, passed, _, _ in verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
