"""The benchmark's workloads: generated CLI configs, oracle checks and ops.

Every config is built here rather than read from ``configs/``, so an edit to
the shipped configs cannot move the benchmark.  The dictionaries below mirror
``configs/*.json`` key for key; each shipped config appears in exactly one
workload.  The seed reaches the CLI as ``--seed`` (random test points) and
draws the oracle points.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass

ORACLE_TOL = 1e-9  # the acceptance tolerance of the flow oracle (criterion 1)
ORACLE_POINTS = 16

_NEG_Z = {"op": "poly", "coeffs": [[0, 0], [-1, 0]]}
_ODE_1E12 = {"type": "ode", "G": _NEG_Z, "tol": 1e-12}
_ODE_1E10 = {"type": "ode", "G": _NEG_Z, "tol": 1e-10}
_G_ID = {"type": "weight", "g": {"op": "id"}}
_Z_SQUARED = {"op": "poly", "coeffs": [[0, 0], [0, 0], [1, 0]]}
_LADDER_7 = [0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125, 0.0015625]

# Mirrors of configs/*.json, keyed by file stem.
SHIPPED = {
    "bloch_gap_auto_parabolic": {
        "flow": {"type": "automorphism", "kind": "parabolic", "speed": 1.0, "reflect": True},
        "N": 6,
        "angle_threshold": 1e-9,
        "ratio_window": [0.8, 1.2],
        "ratio_from_n": 4,
        "min_separation": 0.1,
    },
    "bloch_gap_radial": {
        "flow": _ODE_1E12,
        "weights": [
            {"type": "weight", "g": {"op": "const", "value": [0, 0]}},
            {"type": "weight", "g": {"op": "const", "value": [1, 0]}},
            {"type": "coboundary", "alpha": {"op": "poly", "coeffs": [[1, 0], [-1, 0]]}, "fixed_point": None},
        ],
        "gamma0": [1.0, 0.0],
        "N": 6,
        "t_start": 0.5,
    },
    "coboundary_check": {
        "flow": _ODE_1E10,
        "alpha": {"op": "poly", "coeffs": [[1, 0], [-1, 0]]},
        "function": {"op": "exp", "arg": {"op": "id"}},
        "n_points": 50,
        "threshold": 1e-12,
    },
    "cocycle_check_linear_weight": {
        "flow": _ODE_1E12,
        "weight": _G_ID,
        "n_points": 50,
        "identity_threshold": 1e-8,
        "fd_threshold": 1e-6,
    },
    "flow_check_radial": {
        "flow": _ODE_1E10,
        "n_points": 50,
        "t_range": [0.0, 2.0],
        "semigroup_threshold": 1e-8,
        "generator_threshold": 1e-6,
    },
    "flow_trace_parabolic": {
        "flow": {"type": "koenigs", "mode": "translate", "h": "cayley", "c": [0, 1]},
        "z0": [0.2, 0.1],
        "t_max": 3.0,
        "samples": 60,
    },
    "generator_check_square": {
        "flow": _ODE_1E12,
        "weight": {"type": "weight", "g": {"op": "const", "value": [0, 0]}},
        "function": _Z_SQUARED,
        "norm": {"type": "h2", "N": 64, "r": 0.9},
        "t_ladder": _LADDER_7,
    },
    "gpv_geometric": {
        "family": {"kind": "geometric", "count": 12, "ratio": 0.5},
        "alpha": 0.1,
        "samples_per_disc": 80,
        "stability_counts": [8, 10, 12, 14],
    },
    "separability_rotations": {
        "family": {"kind": "geometric", "count": 10},
        "rotations": {"count": 8},
        "refine": True,
    },
    "transfer_check_cayley": {
        "map": "cayley",
        "flow": _ODE_1E12,
        "weight": _G_ID,
        "function": {"op": "id"},
        "n_points": 20,
        "t": 0.5,
        "threshold": 1e-9,
    },
}

# Cayley translate flow phi_t = h^{-1}(h(z) + i t), h = (1 + z)/(1 - z), once
# with the closed-form inverse and once through Newton on the same Mobius map.
_CAYLEY_TRANSLATE = {
    "closed-form": {"type": "koenigs", "mode": "translate", "h": "cayley", "c": [0, 1]},
    "newton": {
        "type": "koenigs",
        "mode": "translate",
        "h": {"forward": {"op": "mobius", "a": [1, 0], "b": [1, 0], "c": [-1, 0], "d": [1, 0]}},
        "c": [0, 1],
    },
}


def _criterion4_table(flow: dict) -> dict:
    """Criterion 4's generator table for g = z, f = z^2 in H2 (N = 64)."""
    return {
        "flow": flow,
        "weight": _G_ID,
        "function": _Z_SQUARED,
        "norm": {"type": "h2", "N": 64, "r": 0.9},
        "t_ladder": _LADDER_7,
    }


def _ode_linear_oracle(z: complex, t: float) -> complex:
    """m_t(z) for G = -z, g = z: the orbit is z e^{-s}, so the integral is z(1 - e^{-t})."""
    return cmath.exp(z * (1.0 - math.exp(-t)))


def _cayley_translate_oracle(z: complex, t: float) -> complex:
    """m_t(z) for g = z on the Cayley translate flow with c = i.

    phi_s(z) = 1 - 2/(h(z) + 1 + is), so the integral is
    t + 2i[Log(h(z) + 1 + it) - Log(h(z) + 1)]; Re h > 0 keeps both
    logarithms off the branch cut.
    """
    h = (1.0 + z) / (1.0 - z)
    return cmath.exp(t + 2j * (cmath.log(h + 1.0 + 1j * t) - cmath.log(h + 1.0)))


ORACLES = {"ode-linear": _ode_linear_oracle, "cayley-translate": _cayley_translate_oracle}


@dataclass(frozen=True)
class Op:
    """One unit of work: a CLI call, or an oracle check of ``cocycle_eval``."""

    name: str
    subcommand: str  # a CLI subcommand, or "oracle"
    config: dict


def _oracle_op(name: str, oracle: str, flow: dict, rng: random.Random) -> Op:
    points = []
    while len(points) < ORACLE_POINTS:
        x, y = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        if x * x + y * y <= 0.64:
            points.append([x, y, rng.uniform(0.05, 1.0)])
    return Op(name, "oracle", {"flow": flow, "weight": _G_ID, "oracle": oracle, "points": points})


def _cli_op(subcommand: str, stem: str) -> Op:
    return Op(f"{subcommand}:{stem}", subcommand, SHIPPED[stem])


def _cocycle_ode(rng):
    return [
        _cli_op("cocycle-check", "cocycle_check_linear_weight"),
        _cli_op("transfer-check", "transfer_check_cayley"),
        Op("generator-check:criterion4", "generator-check", _criterion4_table(_ODE_1E12)),
        _oracle_op("oracle:ode-linear", "ode-linear", _ODE_1E12, rng),
    ]


def _cocycle_closed_form(rng):
    ops = []
    for inverse, flow in _CAYLEY_TRANSLATE.items():
        ops += [
            Op(f"cocycle-check:{inverse}", "cocycle-check",
               {**SHIPPED["cocycle_check_linear_weight"], "flow": flow}),
            Op(f"generator-check:{inverse}", "generator-check", _criterion4_table(flow)),
            Op(f"transfer-check:{inverse}", "transfer-check",
               {**SHIPPED["transfer_check_cayley"], "flow": flow}),
            _oracle_op(f"oracle:{inverse}", "cayley-translate", flow, rng),
        ]
    return ops + [_cli_op("flow-trace", "flow_trace_parabolic")]


def _bloch_gap(rng):
    return [
        _cli_op("bloch-gap", "bloch_gap_radial"),
        _cli_op("bloch-gap-auto", "bloch_gap_auto_parabolic"),
        _cli_op("flow-check", "flow_check_radial"),
        _cli_op("coboundary-check", "coboundary_check"),
        _cli_op("generator-check", "generator_check_square"),
    ]


def _blaschke_grid(rng):
    return [_cli_op("separability", "separability_rotations"), _cli_op("gpv", "gpv_geometric")]


_WORKLOAD_OPS = {
    "cocycle-ode": _cocycle_ode,
    "cocycle-closed-form": _cocycle_closed_form,
    "bloch-gap": _bloch_gap,
    "blaschke-grid": _blaschke_grid,
}
WORKLOADS = tuple(_WORKLOAD_OPS)

# bloch-gap with gamma0 != 1 dies with a ValueError traceback at the seed
# commit (ROADMAP item 4).  The bloch-gap workload attempts it once per run,
# outside the timed passes and the op counts; the traced run counts its error
# in errors.other, so the fix shows as one error fewer, not as a slower run_s.
GAMMA0_PROBE = Op(
    "bloch-gap:gamma0=i", "bloch-gap", {**SHIPPED["bloch_gap_radial"], "gamma0": [0.0, 1.0], "N": 3}
)


def ops(workload: str, seed: int) -> list:
    """The workload's ops for this seed; the same seed gives the same ops."""
    return _WORKLOAD_OPS[workload](random.Random(f"{workload}:{seed}"))


def probes(workload: str) -> list:
    """Ops attempted once per run, outside the timed passes and the failure count."""
    return [GAMMA0_PROBE] if workload == "bloch-gap" else []


def write_configs(op_list, directory: str) -> list:
    """Write each op's config as JSON; returns the paths in op order."""
    paths = []
    for index, op in enumerate(op_list):
        path = os.path.join(directory, f"{index:02d}.json")
        with open(path, "w") as fh:
            json.dump(op.config, fh)
        paths.append(path)
    return paths
