"""Configuration-driven experiment runner.

Every laboratory check is a subcommand reading a JSON config and writing
machine-readable reports: report.json (verdicts and summary numbers), one
CSV per table, and metadata.json (wall clock; kept separate so reruns with
the same config produce byte-identical report and CSV bodies).  Exit code
0 iff every verdict passes.

Every JSON object of a config records the keys its readers read, and a key
that nothing read is a config error (exit 2), also when a numerical error
ended the run.  So each runner reads all its keys before any numerical work,
and builds its flow last: a Koenigs spiral whose h(0) != 0 raises ModelError
there.
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

import numpy as np

from . import __version__
from .analytic import GridSpec, fn_from_json
from .blaschke import BlaschkeProduct, gpv_bound_check, radial_zeros
from .cocycles import (
    BlochGridNorm,
    H2Norm,
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
    config_pair,
    config_parser,
    config_positive,
)
from .flows import check_semigroup, flow_from_json, generator_fd, map_from_json
from .gap import SEPARATION_FLOOR, bloch_gap, construct_case1, construct_case2
from .gap import reduce_rotations, separability_witness


class _Config(dict):
    """A JSON object of the loaded config that records which of its keys were read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

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


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config missing required key {key!r}")
    return config[key]


def _number(config: dict, key: str, default, least: float = -math.inf, below: float = math.inf):
    """config[key] as a finite float, least <= v < below; ``default`` when the key is absent."""
    v = config_number(key, config[key], least) if key in config else default
    if not v < below:
        raise ConfigError(f"config key {key!r} must be a number below {below}, got {v!r}")
    return v


def _positive(config: dict, key: str, default):
    """config[key] as a finite float > 0; ``default`` when the key is absent."""
    return config_positive(key, config[key]) if key in config else default


def _fraction(config: dict, key: str, default: float) -> float:
    """config[key] as a number strictly between 0 and 1; ``default`` when absent."""
    v = _number(config, key, default)
    if not 0.0 < v < 1.0:
        raise ConfigError(f"config key {key!r} must lie strictly between 0 and 1, got {v!r}")
    return v


def _count(config: dict, key: str, default: int, least: int = 1) -> int:
    """config[key] as an integer >= least; ``default`` when the key is absent."""
    return config_integer(key, config.get(key, default), least)


def _numbers(config: dict, key: str, default: list, count: int | None = None) -> list:
    """config[key] as a non-empty list of finite floats (``count`` of them, when given)."""
    v = config.get(key, default)
    if not isinstance(v, list) or not v or count is not None and len(v) != count:
        raise ConfigError(f"config key {key!r} must be a list of {count or 'some'} numbers, got {v!r}")
    return [config_number(key, x) for x in v]


def _object(config: dict, key: str, default: dict) -> dict:
    """config[key] as a JSON object; ``default`` when the key is absent."""
    v = config.get(key, default)
    if not isinstance(v, dict):
        raise ConfigError(f"config key {key!r} must be a JSON object, got {v!r}")
    return v


def _grid(config: dict, default: dict, extra=()) -> GridSpec:
    """The grid of config["grid"] (``default`` when absent) with the points ``extra`` added."""
    grid = GridSpec.from_json(_object(config, "grid", default))
    return GridSpec(grid.radii, grid.angular, grid.points + tuple(extra))


def _window(config: dict, key: str, default: list, least: float = -math.inf):
    """config[key] as a pair of numbers least <= lo <= hi."""
    lo, hi = _numbers(config, key, default, 2)
    if not least <= lo <= hi:
        bound = f"{least:g} <= " if least > -math.inf else ""
        raise ConfigError(f"config key {key!r} must hold numbers {bound}lo <= hi, got {[lo, hi]}")
    return lo, hi


def _ladder(config: dict, key: str, default: list) -> list:
    """config[key] as a strictly decreasing list of positive steps."""
    ladder = _numbers(config, key, default)
    if ladder[-1] <= 0.0 or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"config key {key!r} must decrease strictly and stay positive, got {ladder}")
    return ladder


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


class Verdicts:
    def __init__(self):
        self.items = []

    def add(self, name: str, passed: bool, value=None, threshold=None):
        self.items.append(
            {
                "name": name,
                "passed": bool(passed),
                "value": value,
                "threshold": threshold,
            }
        )

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.items)


def run_flow_trace(config, rng):
    z0 = config_pair("z0", _require(config, "z0"))
    t_max = _positive(config, "t_max", 2.0)
    n = _count(config, "samples", 50)
    times = [t_max * k / n for k in range(n + 1)]  # the samples are times[1:]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"config key 't_max' = {t_max!r} is too small for {n} distinct sample times")
    flow = flow_from_json(_require(config, "flow"))
    ts = np.array(times[1:])
    w, dw = flow.advance_with_derivative(z0, ts)  # one orbit, sampled at per-point end times
    verdicts = Verdicts()
    verdicts.add("trajectory-inside-disc", bool(np.all(abs(w) < 1.0)))
    rows = np.column_stack([ts, w.real, w.imag, dw.real, dw.imag]).tolist()
    return verdicts, {"trajectory": (["t", "re", "im", "dre", "dim"], rows)}


def run_flow_check(config, rng):
    n = _count(config, "n_points", 50)
    radius = _number(config, "z_radius", 0.8, least=0.0, below=1.0)
    t_lo, t_hi = _window(config, "t_range", [0.0, 2.0], least=0.0)
    thr_semi = _number(config, "semigroup_threshold", 1e-8)
    ladder = _ladder(config, "generator_ladder", [5e-3, 2.5e-3, 1.25e-3])
    thr_gen = _number(config, "generator_threshold", 1e-6)
    flow = flow_from_json(_require(config, "flow"))

    zs = random_disc_points(rng, n, radius)
    s, t = np.array([(rng.uniform(t_lo, t_hi), rng.uniform(t_lo, t_hi)) for _ in zs]).T
    resid = check_semigroup(flow, np.array(zs), s, t)
    worst_semi = float(resid.max())
    rows = _table(zs, s, t, resid)
    verdicts = Verdicts()
    verdicts.add("semigroup-identity", worst_semi <= thr_semi, worst_semi, thr_semi)

    zs = np.array(random_disc_points(rng, min(n, 30), radius))
    est = generator_fd(flow, zs, ladder)
    mismatch = abs(est - flow.generator_fn().eval(zs))
    worst_gen = float(mismatch.max())
    verdicts.add("generator-round-trip", worst_gen <= thr_gen, worst_gen, thr_gen)
    tables = {
        "semigroup_residuals": (["z_re", "z_im", "s", "t", "residual"], rows),
        "generator_roundtrip": (
            ["z_re", "z_im", "fd_re", "fd_im", "mismatch"], _table(zs, est.real, est.imag, mismatch)
        ),
    }
    return verdicts, tables


def run_cocycle_check(config, rng):
    weight = weight_from_json(_require(config, "weight"))
    n = _count(config, "n_points", 50)
    radius = _number(config, "z_radius", 0.8, least=0.0, below=1.0)
    t_lo, t_hi = _window(config, "t_range", [0.0, 1.0], least=0.0)
    thr_id = _number(config, "identity_threshold", 1e-8)
    ladder = _ladder(config, "fd_ladder", [1e-2, 5e-3, 2.5e-3])
    thr_fd = _number(config, "fd_threshold", 1e-6)
    wsg = WeightedSemigroup(flow_from_json(_require(config, "flow")), weight)

    zs = random_disc_points(rng, n, radius)
    s, t = np.array([(rng.uniform(t_lo, t_hi), rng.uniform(t_lo, t_hi)) for _ in zs]).T
    resid = check_cocycle_identity(wsg, np.array(zs), s, t)
    worst = float(resid.max())
    verdicts = Verdicts()
    verdicts.add("cocycle-identity", worst <= thr_id, worst, thr_id)

    zs_fd = np.array(random_disc_points(rng, min(n, 20), radius))
    est = weight_generator_fd(wsg, zs_fd, ladder)
    mismatch = abs(est - weight_fn(wsg).eval(zs_fd))
    worst_fd = float(mismatch.max())
    verdicts.add("weight-derivative-round-trip", worst_fd <= thr_fd, worst_fd, thr_fd)
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
        return H2Norm(N=_count(obj, "N", 64), r=_fraction(obj, "r", 0.9))
    if kind == "bloch":
        return BlochGridNorm(GridSpec.from_json(_require(obj, "grid")))
    raise ConfigError(f"unknown norm type {kind!r}")


def run_generator_check(config, rng):
    weight = weight_from_json(_require(config, "weight"))
    f = fn_from_json(_require(config, "function"))
    norm = _norm_from_config(_object(config, "norm", {}))
    ladder = _ladder(config, "t_ladder", [0.1 * 2 ** (-k) for k in range(7)])
    lo, hi = _window(config, "ratio_window", [0.3, 0.7])
    wsg = WeightedSemigroup(flow_from_json(_require(config, "flow")), weight)
    table = generator_consistency(wsg, f, norm, ladder)
    verdicts = Verdicts()
    ratios = table.ratios()
    if table.max_residual() <= 1e-9:
        # residuals at the integration-noise floor carry no decay rate
        verdicts.add("consistency-trivial-zero", True, table.max_residual(), 1e-9)
    else:
        ok = bool(ratios) and all(lo <= q <= hi for q in ratios)
        worst = max((abs(q - 0.5) for q in ratios), default=None)
        verdicts.add("consistency-first-order-decay", ok, worst, hi - 0.5)
    tables = {"consistency": (["t", "residual", "ratio"], list(table.to_csv_rows()))}
    return verdicts, tables


def run_coboundary_check(config, rng):
    alpha = fn_from_json(_require(config, "alpha"))
    f = fn_from_json(_require(config, "function"))
    n = _count(config, "n_points", 50)
    radius = _number(config, "z_radius", 0.8, least=0.0, below=1.0)
    t_lo, t_hi = _window(config, "t_range", [0.0, 1.0], least=0.0)
    thr = _number(config, "threshold", 1e-12)
    flow = flow_from_json(_require(config, "flow"))
    zs = random_disc_points(rng, n, radius)
    t = np.array([rng.uniform(t_lo, t_hi) for _ in zs])
    resid = coboundary_similarity_check(alpha, flow, f, np.array(zs), t)
    worst = float(resid.max())
    verdicts = Verdicts()
    verdicts.add("coboundary-similarity", worst <= thr, worst, thr)
    return verdicts, {"similarity": (["z_re", "z_im", "t", "residual"], _table(zs, t, resid))}


def run_transfer_check(config, rng):
    h = map_from_json(config.get("map", "cayley"))
    weight = weight_from_json(_require(config, "weight"))
    f = fn_from_json(_require(config, "function"))
    n = _count(config, "n_points", 20)
    radius = _number(config, "z_radius", 0.7, least=0.0, below=1.0)
    t = _number(config, "t", 0.5, least=0.0)
    thr = _number(config, "threshold", 1e-9)
    wsg = WeightedSemigroup(flow_from_json(_require(config, "flow")), weight)
    zs = random_disc_points(rng, n, radius)
    resid = transfer_conjugation_check(h, wsg, f, np.array(zs), t)
    worst = float(resid.max())
    verdicts = Verdicts()
    verdicts.add("conjugation-round-trip", worst <= thr, worst, thr)
    return verdicts, {"transfer": (["z_re", "z_im", "t", "residual"], _table(zs, t, resid))}


def _zeros_from_config(config):
    if "zeros" in config:
        zeros = config["zeros"]
        if not isinstance(zeros, list) or not zeros:
            raise ConfigError(f"config key 'zeros' must be a non-empty list of [re, im] pairs, got {zeros!r}")
        zeros = tuple(config_pair("zeros", p) for p in zeros)
        for a in zeros:
            if abs(a) >= 1.0:
                raise ConfigError(f"config key 'zeros' holds {a}, which is not inside the open disc")
        return zeros
    fam = _object(config, "family", {"kind": "geometric", "count": 12})
    if fam.get("kind", "geometric") == "geometric":
        return radial_zeros(_count(fam, "count", 12), _fraction(fam, "ratio", 0.5))
    raise ConfigError("provide either 'zeros' or a geometric 'family'")


def run_gpv(config, rng):
    zeros = _zeros_from_config(config)
    alpha = _fraction(config, "alpha", 0.1)
    samples = _count(config, "samples_per_disc", 80)
    counts = []
    if config.get("stability_counts"):
        counts = [config_integer("stability_counts", c) for c in _numbers(config, "stability_counts", [])]
    B = BlaschkeProduct(zeros)
    report = gpv_bound_check(B, alpha=alpha, samples_per_disc=samples)
    verdicts = Verdicts()
    verdicts.add("pseudo-discs-disjoint", report.disjoint, report.min_pairwise_rho, report.rho_threshold)
    verdicts.add("derivative-lower-bound-positive", report.beta_hat > 0.0, report.beta_hat, 0.0)
    if counts:
        betas = [
            gpv_bound_check(
                BlaschkeProduct(radial_zeros(count)), alpha=alpha, samples_per_disc=samples
            ).beta_hat
            for count in counts
        ]
        factor = max(betas) / min(betas)
        verdicts.add("beta-hat-stable", factor < 2.0, factor, 2.0)
    rows = [
        [r.index, r.center.real, r.center.imag, r.deflated, r.beta_local]
        for r in report.per_zero
    ]
    tables = {"gpv": (["index", "re", "im", "deflated", "beta_local"], rows)}
    return verdicts, tables, {"gpv_report": report.to_json()}


def run_bloch_gap(config, rng):
    weights = _require(config, "weights")
    if not isinstance(weights, list) or not weights:
        raise ConfigError(f"config key 'weights' must be a non-empty list of weights, got {weights!r}")
    weights = [weight_from_json(w) for w in weights]
    gamma0 = config_pair("gamma0", config.get("gamma0", [1.0, 0.0]))
    if abs(abs(gamma0) - 1.0) > 1e-12:
        raise ConfigError(f"gamma0 = {gamma0} must be unimodular")
    N = _count(config, "N", 6)
    t_start = _positive(config, "t_start", 0.5)
    grid = _grid(config, {"radii": [0.0, 0.3, 0.6, 0.85], "angular": [1, 8, 16, 16]})
    gc = construct_case1(flow_from_json(_require(config, "flow")), gamma0, N, t_start)
    verdicts = Verdicts()
    margins = gc.geom_margins()
    worst_margin = min(
        [m["first"] for m in margins]
        + [m["second"] for m in margins if m["second"] is not None]
    )
    verdicts.add("geometric-inequality-margins", worst_margin >= 1e-3, worst_margin, 1e-3)
    verdicts.add(
        "time-vanishing", gc.levels[-1].t <= gc.levels[0].t / 32.0,
        gc.levels[-1].t / gc.levels[0].t, 1.0 / 32.0,
    )

    tables = {}
    bound_sets = []
    for idx, weight in enumerate(weights):
        rep = bloch_gap(gc, weight, grid)
        bound_sets.append(tuple(r.lower_bound for r in rep.rows))
        worst_cancel = max(
            r.cancellation / max(abs(r.lower_bound / (1.0 - r.r)), 1e-300)
            for r in rep.rows
        )
        verdicts.add(f"cancellation-weight-{idx}", worst_cancel <= 1e-8, worst_cancel, 1e-8)
        slack = 1e-6
        verdicts.add(
            f"grid-gap-dominates-bound-weight-{idx}",
            all(r.grid_gap >= r.lower_bound - slack for r in rep.rows),
        )
        verdicts.add(f"uniform-gap-weight-{idx}", rep.delta_hat > 0.0, rep.delta_hat, 0.0)
        tables[f"gap_weight_{idx}"] = (
            ["n", "t_n", "r_n", "w_re", "w_im", "lower_bound", "grid_gap", "cancellation_residual"],
            list(rep.to_csv_rows()),
        )
    identical = all(bs == bound_sets[0] for bs in bound_sets)
    verdicts.add("lower-bounds-weight-independent", identical)
    return verdicts, tables


def run_bloch_gap_auto(config, rng):
    N = _count(config, "N", 6)
    t_first_cap = _positive(config, "t_first_cap", 1.0)
    angle_thr = _number(config, "angle_threshold", 1e-9)
    lo, hi = _window(config, "ratio_window", [0.8, 1.2])
    from_n = _count(config, "ratio_from_n", 4, least=0)
    sep_thr = _number(config, "min_separation", 0.1)
    gc = construct_case2(flow_from_json(_require(config, "flow")), N, t_first_cap)
    verdicts = Verdicts()
    worst_angle = max(
        abs(cmath.phase(lv.w - 1.0) - gc.target_angle) for lv in gc.levels
    )
    verdicts.add("angle-equation-solved", worst_angle <= angle_thr, worst_angle, angle_thr)
    late = [q for lv, q in zip(gc.levels, gc.ratios) if lv.n >= from_n]
    verdicts.add(
        "depth-ratio-window",
        all(lo <= q <= hi for q in late) and len(late) > 0,
        max(late) if late else None,
        hi,
    )
    verdicts.add(
        "pseudohyperbolic-separation", gc.min_separation >= sep_thr, gc.min_separation, sep_thr
    )
    rows = [
        [lv.n, lv.t, lv.r, lv.w.real, lv.w.imag, q]
        for lv, q in zip(gc.levels, gc.ratios)
    ]
    return verdicts, {"case2": (["n", "t", "r", "w_re", "w_im", "depth_ratio"], rows)}


def run_separability(config, rng):
    zeros = _zeros_from_config(config)
    refine = config_flag("refine", config.get("refine", True))
    B = BlaschkeProduct(zeros)
    if isinstance(config.get("rotations"), list):
        rotations = _numbers(config, "rotations", [])
        config_parser(reduce_rotations)(rotations)  # angles that coincide modulo 2*pi
    else:
        count = _count(_object(config, "rotations", {"count": 8}), "count", 8)
        rotations = [2.0 * math.pi * k / count for k in range(count)]
    pts = [a * cmath.exp(1j * th) for a in zeros for th in rotations]
    grid = _grid(config, {"radii": [0.0, 0.3, 0.6, 0.85], "angular": [1, 16, 32, 32]}, pts)
    rep = separability_witness(B, rotations, grid)
    verdicts = Verdicts()
    if rep.eps_hat is None:
        verdicts.add("pairwise-gaps-positive", True, None, SEPARATION_FLOOR)
        return verdicts, {"separability": (["theta_i", "theta_j", "gap"], [])}
    separated = rep.eps_hat > SEPARATION_FLOOR
    verdicts.add("pairwise-gaps-positive", separated, rep.eps_hat, SEPARATION_FLOOR)
    if refine and separated:  # a drift relative to a roundoff gap measures nothing
        rep2 = separability_witness(B, rotations, grid.refine())
        drift = abs(rep2.eps_hat - rep.eps_hat) / rep.eps_hat
        verdicts.add("eps-hat-grid-stable", drift <= 0.2, drift, 0.2)
    return verdicts, {
        "separability": (["theta_i", "theta_j", "gap"], list(rep.to_csv_rows()))
    }


RUNNERS = {
    "flow-trace": run_flow_trace,
    "flow-check": run_flow_check,
    "cocycle-check": run_cocycle_check,
    "generator-check": run_generator_check,
    "coboundary-check": run_coboundary_check,
    "transfer-check": run_transfer_check,
    "gpv": run_gpv,
    "bloch-gap": run_bloch_gap,
    "bloch-gap-auto": run_bloch_gap_auto,
    "separability": run_separability,
}


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _write_atomic(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_report(out_dir, subcommand, config, verdicts, tables, error=None):
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "experiment": subcommand,
        "config_digest": _digest(config),
        "passed": verdicts.all_passed,
        "verdicts": verdicts.items,
        "tables": sorted(tables),
        "version": __version__,
    }
    if error is not None:
        report["error"] = {"type": type(error).__name__, "message": str(error)}
    _write_atomic(
        os.path.join(out_dir, "report.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )


def _write_outputs(out_dir, subcommand, config, verdicts, tables, extras, wall_clock):
    _write_report(out_dir, subcommand, config, verdicts, tables)
    for name, (header, rows) in tables.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        _write_atomic(os.path.join(out_dir, f"{name}.csv"), buf.getvalue())
    for name, payload in extras.items():
        _write_atomic(
            os.path.join(out_dir, f"{name}.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
    meta = {"wall_clock_seconds": wall_clock, "timestamp": time.time()}
    _write_atomic(
        os.path.join(out_dir, "metadata.json"), json.dumps(meta, indent=2) + "\n"
    )


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

    rng = np.random.RandomState(args.seed)
    start = time.perf_counter()
    result = error = None
    try:
        result = RUNNERS[args.subcommand](config, rng)
    except ConfigError as exc:
        return _config_error(exc)
    except SemiflowError as exc:
        error = exc
    wall = time.perf_counter() - start
    unread = list(_unread(config))
    if unread:  # refused before any output, and ahead of a numerical error
        return _config_error(f"keys that {args.subcommand} does not read: {', '.join(unread)}")

    if error is not None:
        verdicts = Verdicts()
        verdicts.add("execution", False)
        _write_report(args.out, args.subcommand, config, verdicts, {}, error)
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1
    verdicts, tables = result[0], result[1]
    extras = result[2] if len(result) > 2 else {}

    _write_outputs(args.out, args.subcommand, config, verdicts, tables, extras, wall)
    for v in verdicts.items:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"[{status}] {v['name']}" + (f" value={v['value']}" if v["value"] is not None else ""))
    return 0 if verdicts.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
