import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import semiflow_lab as sl
from semiflow_lab import cli
from semiflow_lab.cli import main
from semiflow_lab.errors import (
    COUNT_LIMIT,
    config_flag,
    config_integer,
    config_number,
    config_numbers,
    config_object,
    config_pair,
    config_positive,
)
from semiflow_lab.flows import flow_from_json
from semiflow_lab.gap import SEPARATION_FLOOR
from conftest import replaced

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
RADIAL = {"type": "ode", "G": {"op": "poly", "coeffs": [[0, 0], [-1, 0]]}, "tol": 1e-12}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(subcommand, config_path, out_dir):
    return main([subcommand, "--config", config_path, "--out", str(out_dir)])


def _refuse_constant(name):
    raise ValueError(f"a report holds {name}, which is not JSON")


def read_report(out_dir, name="report.json"):
    """A JSON report of a run; a NaN or an infinity in it fails the test."""
    return json.loads((out_dir / name).read_text(), parse_constant=_refuse_constant)


def test_flow_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"flow": RADIAL, "n_points": 10})
    assert run("flow-check", cfg, tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["passed"]
    assert {v["name"] for v in report["verdicts"]} == {
        "semigroup-identity",
        "generator-round-trip",
    }
    out = capsys.readouterr().out
    assert "[PASS] semigroup-identity" in out


def test_flow_trace_emits_csv(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", {"flow": RADIAL, "z0": [0.5, 0.0], "t_max": 1.0, "samples": 5}
    )
    assert run("flow-trace", cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re,im,dre,dim"
    assert len(lines) == 6


def test_flow_trace_on_an_ode_flow_matches_one_point_runs(tmp_path):
    # the samples share one step sequence, so they agree with one-point runs to the flow's tol
    flow = {**RADIAL, "tol": 1e-10}
    cfg = write_config(tmp_path, "c.json", {"flow": flow, "z0": [0.5, 0.2], "t_max": 2.0, "samples": 20})
    assert run("flow-trace", cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    assert len(lines) == 20
    flow = flow_from_json(flow)
    for k, line in enumerate(lines, 1):
        t, re, im, dre, dim = map(float, line.split(","))
        assert t == 2.0 * k / 20
        w, dw = flow.advance_with_derivative(0.5 + 0.2j, t)
        assert abs(complex(re, im) - w) <= 1e-9 and abs(complex(dre, dim) - dw) <= 1e-9


def test_generator_check_trivial_zero(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "flow": {"type": "ode", "G": {"op": "const", "value": [0, 0]}, "tol": 1e-12},
            "weight": {"type": "weight", "g": {"op": "const", "value": [0, 0]}},
            "function": {"op": "poly", "coeffs": [[0, 0], [0, 0], [1, 0]]},
            "t_ladder": [0.1, 0.05, 0.025],
        },
    )
    assert run("generator-check", cfg, tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["verdicts"][0]["name"] == "consistency-trivial-zero"


def test_cocycle_check(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"flow": RADIAL, "weight": {"type": "weight", "g": {"op": "id"}}, "n_points": 6},
    )
    assert run("cocycle-check", cfg, tmp_path / "out") == 0


def test_coboundary_check(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "flow": RADIAL,
            "alpha": {"op": "poly", "coeffs": [[1, 0], [-1, 0]]},
            "function": {"op": "id"},
            "n_points": 10,
        },
    )
    assert run("coboundary-check", cfg, tmp_path / "out") == 0


def test_transfer_check(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "map": "cayley",
            "flow": RADIAL,
            "weight": {"type": "weight", "g": {"op": "id"}},
            "function": {"op": "id"},
            "n_points": 5,
        },
    )
    assert run("transfer-check", cfg, tmp_path / "out") == 0


def test_gpv_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"family": {"kind": "geometric", "count": 12}, "alpha": 0.1, "stability_counts": [8, 14]},
    )
    assert run("gpv", cfg, tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    names = {v["name"] for v in report["verdicts"]}
    assert "pseudo-discs-disjoint" in names and "beta-hat-stable" in names
    gpv = json.loads((tmp_path / "out" / "gpv_report.json").read_text())
    assert {"delta", "alpha", "disjoint", "beta_hat", "per_zero", "truncation_tail"} <= set(gpv)


def test_gpv_stability_products_use_the_family_ratio(tmp_path):
    family = {"kind": "geometric", "count": 10, "ratio": 0.3}
    cfg = write_config(tmp_path, "c.json", {"family": family, "stability_counts": [6, 10]})
    run("gpv", cfg, tmp_path / "out")
    betas = [
        sl.gpv_bound_check(sl.BlaschkeProduct(sl.radial_zeros(count, 0.3)), alpha=0.1,
                           samples_per_disc=80).beta_hat
        for count in (6, 10)
    ]
    (verdict,) = [v for v in read_report(tmp_path / "out")["verdicts"] if v["name"] == "beta-hat-stable"]
    assert verdict["value"] == max(betas) / min(betas)


def test_gpv_makes_one_product_per_distinct_count(tmp_path, monkeypatch):
    # the family's own count reuses the report's product, and a repeated count is made once
    calls = []
    check = cli.gpv_bound_check
    monkeypatch.setattr(cli, "gpv_bound_check", lambda B, **kw: calls.append(len(B.zeros)) or check(B, **kw))
    assert run("gpv", str(CONFIGS / "gpv_geometric.json"), tmp_path / "shipped") == 0
    assert calls == [12, 8, 10, 14]
    calls.clear()
    family = {"kind": "geometric", "count": 6, "ratio": 0.3}
    cfg = write_config(tmp_path, "c.json", {"family": family, "stability_counts": [4, 6, 4, 8, 8]})
    assert run("gpv", cfg, tmp_path / "out") == 0
    assert calls == [6, 4, 8]


@pytest.mark.parametrize("payload", [{"family": {"count": 1}}, {"zeros": [[0.5, 0]]}],
                         ids=["family", "zeros"])
def test_gpv_on_one_zero_has_no_pairwise_distance(tmp_path, payload):
    # one pseudo-disc is disjoint vacuously: there is no pair, so no minimum over pairs
    assert run("gpv", write_config(tmp_path, "c.json", payload), tmp_path / "out") == 0
    verdict = read_report(tmp_path / "out")["verdicts"][0]
    assert verdict["name"] == "pseudo-discs-disjoint" and verdict["passed"] and verdict["value"] is None
    assert read_report(tmp_path / "out", "gpv_report.json")["min_pairwise_rho"] is None


@pytest.mark.parametrize("subcommand, payload, key", [
    ("gpv", {"family": {"kind": "geometric", "count": 60, "ratio": 0.5}}, "count"),
    ("gpv", {**json.loads((CONFIGS / "gpv_geometric.json").read_text()), "stability_counts": [12, 60]},
     "stability_counts"),
    ("separability", {"family": {"kind": "geometric", "count": 3, "ratio": 1e-20}, "rotations": {"count": 2}},
     "count"),
], ids=["gpv-family", "gpv-stability", "separability-family"])
def test_a_family_whose_deepest_zero_rounds_to_one_exits_2(tmp_path, capsys, subcommand, payload, key):
    # 1 - ratio**count is 1.0 in floating point: that zero would sit on the circle
    assert run(subcommand, write_config(tmp_path, "c.json", payload), tmp_path / "out") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: config key {key!r} = ") and line.endswith("at 1.0, on the circle")
    assert not (tmp_path / "out").exists()


def test_bloch_gap_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "flow": RADIAL,
            "weights": [
                {"type": "weight", "g": {"op": "const", "value": [0, 0]}},
                {"type": "coboundary", "alpha": {"op": "poly", "coeffs": [[1, 0], [-1, 0]]}},
            ],
            "N": 4,
            "t_start": 0.5,
        },
    )
    assert run("bloch-gap", cfg, tmp_path / "out") == 0
    assert (tmp_path / "out" / "gap_weight_0.csv").exists()
    assert (tmp_path / "out" / "gap_weight_1.csv").exists()


def test_bloch_gap_rotated_base_point(tmp_path):
    # gamma0 = i: the construction runs in the rotated frame, and so must the weights
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "flow": RADIAL,
            "weights": [
                {"type": "weight", "g": {"op": "const", "value": [1, 0]}},
                {"type": "weight", "g": {"op": "id"}},
                {"type": "coboundary", "alpha": {"op": "poly", "coeffs": [[1, 0], [-1, 0]]}},
            ],
            "gamma0": [0, 1],
            "N": 3,
        },
    )
    assert run("bloch-gap", cfg, tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["passed"] and len(report["tables"]) == 3


def test_bloch_gap_auto_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"flow": {"type": "automorphism", "kind": "parabolic", "speed": 1.0, "reflect": True}, "N": 5},
    )
    assert run("bloch-gap-auto", cfg, tmp_path / "out") == 0


def window_verdict(out_dir, name):
    """The verdict ``name``, checked to report the least distance of a ratio inside its window."""
    (verdict,) = [v for v in read_report(out_dir)["verdicts"] if v["name"] == name]
    assert verdict["threshold"] == 0.0
    assert verdict["passed"] == (verdict["value"] >= 0.0)
    return verdict


@pytest.mark.parametrize("window", [[0.8, 1.2], [1.1, 1.2]])
def test_depth_ratio_window_value_is_the_least_distance_inside(tmp_path, window):
    # the late depth ratios (n >= 4) fall from 1.035 to 1.004: a window from 1.1 holds none of them
    cfg = write_config(tmp_path, "c.json", {"flow": PARABOLIC, "N": 6, "ratio_window": window})
    code = run("bloch-gap-auto", cfg, tmp_path / "out")
    rows = [row.split(",") for row in (tmp_path / "out" / "case2.csv").read_text().splitlines()[1:]]
    late = [float(row[5]) for row in rows if int(row[0]) >= 4]
    lo, hi = window
    verdict = window_verdict(tmp_path / "out", "depth-ratio-window")
    assert verdict["value"] == min(min(q - lo, hi - q) for q in late)
    assert code == (0 if verdict["passed"] else 1)
    assert verdict["passed"] == (lo == 0.8)


@pytest.mark.parametrize("window", [[0.3, 0.7], [0.45, 0.9], [0.6, 0.9]])
def test_first_order_decay_value_is_the_least_distance_inside(tmp_path, window):
    # ratios near 1/2: a window not centred on 1/2 is read from its nearer end
    payload = json.loads((CONFIGS / "generator_check_square.json").read_text())
    cfg = write_config(tmp_path, "c.json", {**payload, "ratio_window": window})
    code = run("generator-check", cfg, tmp_path / "out")
    rows = (tmp_path / "out" / "consistency.csv").read_text().splitlines()[1:]
    ratios = [float(row.split(",")[2]) for row in rows if row.split(",")[2]]
    lo, hi = window
    verdict = window_verdict(tmp_path / "out", "consistency-first-order-decay")
    assert verdict["value"] == min(min(q - lo, hi - q) for q in ratios)
    assert code == (0 if verdict["passed"] else 1)
    assert verdict["passed"] == (lo < 0.5)


def test_numpy_scalar_cells_are_plain_numbers(tmp_path):
    tables = {"t": (["x", "y"], [[np.float64(0.1), np.float64(1e-300)], [0.25, 3]])}
    cli._write_outputs(str(tmp_path), "gpv", {}, [], tables, {}, 0.0)
    assert (tmp_path / "t.csv").read_text() == "x,y\n0.1,1e-300\n0.25,3\n"


def test_separability_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"family": {"kind": "geometric", "count": 8}, "rotations": {"count": 4}, "refine": True},
    )
    assert run("separability", cfg, tmp_path / "out") == 0


@pytest.mark.parametrize("rotations", [[0, math.pi], [math.pi / 2, 3 * math.pi / 2]],
                         ids=["0-pi", "half-pi"])
def test_separability_refuses_identical_functions(tmp_path, rotations):
    # zeros +-1/2 make B even, so the two rotations give one function: a gap of roundoff
    cfg = write_config(tmp_path, "c.json", {"zeros": [[0.5, 0], [-0.5, 0]], "rotations": rotations})
    assert run("separability", cfg, tmp_path / "out") == 1
    # the refinement drift is skipped: relative to a roundoff gap it measures nothing
    (verdict,) = read_report(tmp_path / "out")["verdicts"]
    assert verdict["name"] == "pairwise-gaps-positive" and not verdict["passed"]
    assert 0.0 < verdict["value"] <= verdict["threshold"] == SEPARATION_FLOOR


def test_separability_zero_gap_is_a_failed_verdict(tmp_path, monkeypatch):
    # an exact 0.0 gap fails pairwise-gaps-positive and is never divided by
    witness = cli.separability_witness
    monkeypatch.setattr(cli, "separability_witness",
                        lambda *args: replaced(witness(*args), eps_hat=0.0))
    cfg = write_config(tmp_path, "c.json", {"zeros": [[0.5, 0], [-0.5, 0]],
                                            "rotations": [math.pi / 2, 3 * math.pi / 2]})
    assert run("separability", cfg, tmp_path / "out") == 1
    report = read_report(tmp_path / "out")
    assert "error" not in report
    assert [(v["name"], v["passed"], v["value"]) for v in report["verdicts"]] == [
        ("pairwise-gaps-positive", False, 0.0)
    ]


def test_exit_code_on_failed_verdict(tmp_path):
    # impossible threshold forces a failing verdict and exit code 1
    cfg = write_config(
        tmp_path, "c.json", {"flow": RADIAL, "n_points": 5, "semigroup_threshold": 1e-30}
    )
    assert run("flow-check", cfg, tmp_path / "out") == 1
    report = read_report(tmp_path / "out")
    assert not report["passed"]


def test_exit_code_on_module_error(tmp_path):
    # the hyperbolic group with fixed points +-1 goes to case 2, whose construction refuses
    # the Denjoy-Wolff point 1 inside the runner
    hyperbolic = {"type": "automorphism", "kind": "hyperbolic", "rate": 1.0}
    cfg = write_config(tmp_path, "c.json", {"flow": hyperbolic})
    assert run("bloch-gap-auto", cfg, tmp_path / "out") == 1
    report = read_report(tmp_path / "out")
    assert report["error"]["type"] == "CaseMismatch"


def test_exit_code_on_an_escaping_case_1_flow(tmp_path):
    # G = z^3 generates no automorphism group, so case 1 integrates it, and its orbits leave the disc;
    # its t_start is read before that, so the numerical error ends the run with exit 1, not 2
    cube = {"type": "ode", "G": {"op": "poly", "coeffs": [[0, 0], [0, 0], [0, 0], [1, 0]]}}
    cfg = write_config(tmp_path, "c.json", {"flow": cube, "t_start": 0.5})
    assert run("bloch-gap-auto", cfg, tmp_path / "out") == 1
    assert read_report(tmp_path / "out")["error"]["type"] == "EscapeError"


def test_trivial_flow_is_a_case_mismatch(tmp_path, capsys):
    # G = 0 fits the automorphism form with a = beta = 0, but neither construction applies to it
    cfg = write_config(tmp_path, "c.json", {"flow": {"type": "ode", "G": {"op": "const", "value": [0, 0]}}})
    assert run("bloch-gap", cfg, tmp_path / "out") == 1
    assert read_report(tmp_path / "out")["error"]["type"] == "CaseMismatch"
    assert "trivial flow G = 0" in capsys.readouterr().err


@pytest.mark.parametrize("stem, key, value", [
    ("bloch_gap_radial", "t_first_cap", 1), ("bloch_gap_auto_parabolic", "t_start", 0.5),
], ids=["case-2-key-on-case-1", "case-1-key-on-case-2"])
def test_a_key_of_the_other_case_exits_2(tmp_path, capsys, stem, key, value):
    # the flow's generator picks the case, and the other case's keys are read by nothing
    payload = json.loads((CONFIGS / f"{stem}.json").read_text())
    cfg = write_config(tmp_path, "c.json", {**payload, key: value})
    assert run("bloch-gap", cfg, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "report.json").exists()
    assert capsys.readouterr().err == f"config error: keys that bloch-gap does not read: {key}\n"


def test_bloch_gap_without_weights_certifies_the_construction(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"flow": RADIAL, "N": 3})
    assert run("bloch-gap", cfg, tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert [v["name"] for v in report["verdicts"]] == ["geometric-inequality-margins", "time-vanishing"]
    assert report["tables"] == []


def test_bloch_gap_weights_on_the_automorphism_case(tmp_path):
    # case 2 with three weights: g = 0, g = z and the coboundary alpha = 2 - z
    payload = json.loads((CONFIGS / "bloch_gap_auto_parabolic.json").read_text())
    weights = [{"type": "weight", "g": {"op": "const", "value": [0, 0]}}, G_ID,
               {"type": "coboundary", "alpha": {"op": "poly", "coeffs": [[2, 0], [-1, 0]]}}]
    cfg = write_config(tmp_path, "c.json", {**payload, "weights": weights})
    assert run("bloch-gap", cfg, tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["tables"] == ["case2", "gap_weight_0", "gap_weight_1", "gap_weight_2"]
    assert all(v["passed"] for v in report["verdicts"])
    value = {v["name"]: v["value"] for v in report["verdicts"]}
    assert [name for name in value][:3] == ["angle-equation-solved", "depth-ratio-window",
                                            "pseudohyperbolic-separation"]
    assert value["lower-bounds-weight-independent"] == 0.0
    for idx in range(3):
        assert value[f"uniform-gap-weight-{idx}"] == pytest.approx(6.9457e-5, rel=1e-4)
        assert value[f"cancellation-weight-{idx}"] <= 1e-10
        assert value[f"grid-gap-dominates-bound-weight-{idx}"] >= 0.04


def test_exit_code_on_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("flow-check", str(bad), tmp_path / "out") == 2
    missing = write_config(tmp_path, "missing.json", {})
    assert run("flow-check", missing, tmp_path / "out2") == 2


def test_count_beyond_the_limit_exits_2_before_any_work(tmp_path, capsys, monkeypatch, integrations):
    # 1e30 points are never drawn: the count is refused while the config is read
    def draw(*args):
        raise AssertionError("points drawn for a refused count")

    monkeypatch.setattr(cli, "random_disc_points", draw)
    cfg = write_config(tmp_path, "c.json", {"flow": RADIAL, "n_points": 1e30})
    assert run("flow-check", cfg, tmp_path / "out") == 2
    assert integrations == [] and not (tmp_path / "out").exists()
    want = f"config key 'n_points' must be an integer >= 1 and <= {COUNT_LIMIT}, got 1e+30"
    assert capsys.readouterr().err == f"config error: {want}\n"


def test_bloch_gap_too_deep_is_depth_exceeded(tmp_path):
    # G = -z fits 9 levels below the escape radius; the 10th is refused, typed
    cfg = write_config(
        tmp_path, "c.json",
        {"flow": RADIAL, "weights": [{"type": "weight", "g": {"op": "id"}}], "N": 10},
    )
    assert run("bloch-gap", cfg, tmp_path / "out") == 1
    report = read_report(tmp_path / "out")
    assert report["error"]["type"] == "DepthExceeded"


GAP_WEIGHTS = [{"type": "weight", "g": {"op": "const", "value": [1, 0]}}]
G_ID = {"type": "weight", "g": {"op": "id"}}
PARABOLIC = {"type": "automorphism", "kind": "parabolic", "speed": 1.0, "reflect": True}
COBOUNDARY = {"type": "coboundary", "alpha": {"op": "poly", "coeffs": [[1, 0], [-1, 0]]}}


@pytest.mark.parametrize(
    "subcommand, payload",
    [
        ("flow-check", {"flow": {"type": "ode", "G": {"op": "nope"}}}),
        ("flow-check", {"flow": {"type": "ode"}}),
        ("flow-check", {"flow": {"type": "warp"}}),
        ("flow-check", {"flow": {"type": "ode", "G": {"op": "poly"}}}),
        ("flow-check", {"flow": {"type": "ode", "G": 5}}),
        ("flow-check", {"flow": {"type": "koenigs", "mode": "spin", "h": "cayley", "c": [0, 1]}}),
        ("cocycle-check", {"flow": RADIAL, "weight": {"type": "mystery"}}),
        ("cocycle-check", {"flow": RADIAL, "weight": {"type": "weight"}}),
        ("transfer-check", {"map": "nope", "flow": RADIAL, "weight": {"type": "weight", "g": {"op": "id"}},
                            "function": {"op": "id"}}),
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "gamma0": [0, 2]}),
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "gamma0": [0, 0]}),
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "gamma0": "x"}),
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "N": "six"}),
        ("cocycle-check", {"flow": RADIAL, "weight": G_ID, "n_points": "many"}),
        ("cocycle-check", {"flow": RADIAL, "weight": G_ID, "t_range": [0.0]}),
        ("cocycle-check", {"flow": RADIAL, "weight": G_ID, "t_range": [-1, 0.5]}),
        ("gpv", {"stability_counts": [0, 8]}),
        ("gpv", {"stability_counts": ["x"]}),
        ("gpv", {"stability_counts": [2.5]}),
        ("gpv", {"family": "geometric"}),
        ("separability", {"rotations": [0.0, 6.283185307179586]}),
        ("separability", {"rotations": ["x"]}),
        ("separability", {"rotations": 4}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID, "function": {"op": "id"}, "norm": "h2"}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID, "function": {"op": "id"},
                             "norm": {"type": "bloch"}}),
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "N": 2, "grid": [1, 2]}),
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "N": 2,
                       "grid": {"radii": [0.0], "angular": [1], "points": 5}}),
        ("flow-trace", {"flow": RADIAL, "z0": [0.5, 0], "t_max": 0}),
        # sample times t_max k / n that round together: the first to 0, or two later ones
        ("flow-trace", {"flow": RADIAL, "z0": [0.5, 0], "t_max": 5e-324, "samples": 50}),
        ("flow-trace", {"flow": RADIAL, "z0": [0.5, 0], "t_max": 2e-322, "samples": 50}),
        ("flow-check", {"flow": {**RADIAL, "tol": 0}}),
        ("flow-check", {"flow": {**RADIAL, "tol": -1}}),
        ("flow-check", {"flow": {**RADIAL, "tol": float("nan")}}),
        ("flow-check", {"flow": {**RADIAL, "tol": "1e-10"}}),
        ("flow-check", {"flow": {"type": "automorphism", "kind": "hyperbolic", "rate": "2"}}),
        ("gpv", {"family": {"ratio": 2}}),
        ("gpv", {"zeros": [[2, 0]]}),
        ("gpv", {"zeros": 5}),
        ("gpv", {"alpha": 2}),
        ("bloch-gap", {"flow": RADIAL, "weights": 5}),
        ("bloch-gap", {"flow": RADIAL, "weights": []}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID,
                             "function": {"op": "power", "arg": {"op": "id"}, "k": "2"}}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID,
                             "function": {"op": "power", "arg": {"op": "id"}, "k": 2.7}}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID,
                             "function": {"op": "quotient", "num": {"op": "id"},
                                          "den": {"op": "poly", "coeffs": [[-0.95, 0], [1, 0]]},
                                          "guards": [[[0.95, 0], "1e-3"]]}}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID,
                             "function": {"op": "blaschke", "zeros": [[0.5, 0]], "theta": "1"}}),
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "t_start": 0}),
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "t_start": -0.5}),
        ("bloch-gap-auto", {"flow": PARABOLIC, "t_first_cap": -1}),
        ("bloch-gap-auto", {"flow": PARABOLIC, "t_first_cap": 0}),
        ("cocycle-check", {"flow": RADIAL, "weight": {**COBOUNDARY, "fixed_point": [True, 0]}}),
        ("cocycle-check", {"flow": RADIAL, "weight": {**COBOUNDARY, "fixed_point": [0.5, 0, 9]}}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID, "function": {"op": "id"},
                             "norm": {"type": "h2", "r": 1.5}}),
        # sampling radii must lie in [0, 1), and windows must have lo <= hi
        ("flow-check", {"flow": RADIAL, "z_radius": 1.5}),
        ("cocycle-check", {"flow": RADIAL, "weight": G_ID, "z_radius": 1.0}),
        ("coboundary-check", {"flow": RADIAL, "alpha": COBOUNDARY["alpha"], "function": {"op": "id"},
                              "z_radius": 1.5}),
        ("transfer-check", {"flow": RADIAL, "weight": G_ID, "function": {"op": "id"}, "z_radius": 1.5}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID, "function": {"op": "id"},
                             "ratio_window": [0.7, 0.3]}),
        ("bloch-gap-auto", {"flow": PARABOLIC, "ratio_window": [1.2, 0.8]}),
        ("flow-check", {"flow": {"type": "automorphism", "kind": "loxodromic"}}),
        ("flow-check", {"flow": {"type": "rotated", "gamma": [2, 0], "inner": RADIAL}}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID, "function": {"op": "id"},
                             "norm": {"type": "bloch", "grid": {"radii": ["0.5"], "angular": [8]}}}),
        ("generator-check", {"flow": RADIAL, "weight": G_ID, "function": {"op": "id"},
                             "norm": {"type": "bloch", "grid": {"radii": [0.5], "angular": [2.7]}}}),
        ("separability", {"rotations": {"count": 2}, "refine": "false"}),
        ("gpv", {"zeros": []}),
        ("separability", {"zeros": []}),
        # keys that nothing reads: a misspelt threshold or count, a retired key, a key in the flow
        ("flow-check", {"flow": RADIAL, "semigroup_treshold": 1e-30}),
        ("flow-check", {"flow": RADIAL, "n_point": 5}),
        ("flow-trace", {"flow": RADIAL, "z0": [0.5, 0], "tol": 0}),
        ("flow-check", {"flow": {**RADIAL, "tols": 1e-12}}),
        # an unread key wins over the DepthExceeded that ends the run
        ("bloch-gap", {"flow": RADIAL, "weights": GAP_WEIGHTS, "N": 14, "gird": {}}),
        # a stability_counts that is not a non-empty list is refused, not skipped
        ("gpv", {"stability_counts": 0}),
        ("gpv", {"stability_counts": False}),
        ("gpv", {"stability_counts": ""}),
        ("gpv", {"stability_counts": []}),
        # stability products are truncations of a geometric family; listed zeros name none
        ("gpv", {"zeros": [[0.5, 0], [-0.5, 0], [0, 0.6]], "stability_counts": [2, 3]}),
        # a spiral needs h(0) = 0 and Re c >= 0
        ("flow-trace", {"flow": {"type": "koenigs", "mode": "spiral", "h": "cayley", "c": [1, 0]},
                        "z0": [0.1, 0]}),
        ("flow-trace", {"flow": {"type": "koenigs", "mode": "spiral", "h": "identity", "c": [-1, 0]},
                        "z0": [0.1, 0]}),
        # an integer literal beyond every float is refused, not overflowed
        ("flow-check", {"flow": RADIAL, "z_radius": 10**400}),
        ("flow-check", {"flow": {**RADIAL, "tol": 10**400}}),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, subcommand, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    assert run(subcommand, cfg, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "report.json").exists()
    assert capsys.readouterr().err.startswith("config error: ")


def test_newton_seed_is_an_unread_key(tmp_path, capsys):
    # Newton's start comes from each caller (z itself), so a config seed would change nothing
    h = {"forward": {"op": "mobius", "a": [1, 0], "b": [1, 0], "c": [-1, 0], "d": [1, 0]},
         "newton": {"seed": [0, 0]}}
    cfg = write_config(tmp_path, "c.json", {"flow": {"type": "koenigs", "mode": "translate", "h": h, "c": [0, 1]},
                                            "z0": [0.2, 0.1]})
    assert run("flow-trace", cfg, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "report.json").exists()
    assert capsys.readouterr().err == "config error: keys that flow-trace does not read: flow.h.newton.seed\n"


def test_log_base_is_an_unread_key(tmp_path, capsys):
    # a log node is the principal branch; nothing reads a "base"
    G = {"op": "log", "arg": {"op": "poly", "coeffs": [[1, 0], [-0.5, 0]]}, "base": [0, 0]}
    cfg = write_config(tmp_path, "c.json", {"flow": {"type": "ode", "G": G}, "z0": [0.2, 0.1]})
    assert run("flow-trace", cfg, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "report.json").exists()
    assert capsys.readouterr().err == "config error: keys that flow-trace does not read: flow.G.base\n"


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"z0": [0.5, 0]}, "flow"),
        ({"flow": {"type": "ode"}, "z0": [0.5, 0]}, "G"),
        ({"flow": {"type": "rotated", "gamma": [1, 0], "inner": {"type": "koenigs", "h": "cayley",
                                                                   "c": [0, 1]}}, "z0": [0.5, 0]}, "mode"),
    ],
    ids=["top-level", "nested", "two-deep"],
)
def test_missing_key_has_one_message_at_any_depth(tmp_path, capsys, payload, key):
    cfg = write_config(tmp_path, "c.json", payload)
    assert run("flow-trace", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: config missing required key {key!r}\n"


@pytest.mark.parametrize("subcommand, payload, key", [
    ("flow-check", {"flow": RADIAL}, "generator_ladder"),
    ("cocycle-check", {"flow": RADIAL, "weight": G_ID}, "fd_ladder"),
    ("generator-check", {"flow": RADIAL, "weight": G_ID, "function": {"op": "id"}}, "t_ladder"),
])
@pytest.mark.parametrize("ladder", [[0.01, 0.02], [0.01, 0.01], [0.01, 0], [-0.01, -0.02]])
def test_ladder_refusal_names_its_key(tmp_path, capsys, subcommand, payload, key, ladder):
    cfg = write_config(tmp_path, "c.json", {**payload, key: ladder})
    assert run(subcommand, cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"config error: config key {key!r} must be a strictly decreasing list of positive numbers, got {ladder!r}\n"
    )


WRONG_SCALARS = ["1", True, None, math.nan, math.inf, -math.inf, [1.0], {"v": 1.0}]
READERS = [
    # reader, its bounds, (good value, typed result) pairs, values that must be refused
    (config_number, {"least": 0.0, "below": 1.0}, [(0, 0.0), (0.5, 0.5)], [*WRONG_SCALARS, -1e-300, 1.0]),
    (config_number, {}, [(-2, -2.0), (1e300, 1e300)], [*WRONG_SCALARS, 10**400, -(10**400)]),
    (config_positive, {"below": 1.0}, [(0.5, 0.5)], [*WRONG_SCALARS, 0, -0.5, 1.0, 2]),
    (config_positive, {}, [(3, 3.0)], [*WRONG_SCALARS, 0.0]),
    (config_integer, {"least": 0}, [(0, 0), (2.0, 2), (COUNT_LIMIT, COUNT_LIMIT)],
     [*WRONG_SCALARS, -1, 2.5, 10**30, 1e300, COUNT_LIMIT + 1]),
    (config_flag, {}, [(True, True), (False, False)], [x for x in WRONG_SCALARS if x is not True] + [0, 1]),
    (config_pair, {}, [([1, 2], 1 + 2j), ((0.5, 0), 0.5 + 0j)],
     [*WRONG_SCALARS, [1, 2, 3], ["1", 0], [True, 0], [None, 0], [math.nan, 0], [0, math.inf], [0, -math.inf],
      [10**400, 0]]),
    (config_numbers, {"count": 2}, [([1, 2], [1.0, 2.0])],
     [*WRONG_SCALARS, [], [1, 2, 3], [1, "2"], [1, True], [1, None], [1, math.nan], [1, math.inf], [1, -math.inf]]),
    (config_numbers, {}, [([1], [1.0])], [*WRONG_SCALARS[:6], {"v": 1.0}, [], [[1.0]], [{"v": 1.0}]]),
    (config_object, {}, [({"a": 1}, {"a": 1}), ({}, {})], WRONG_SCALARS[:-1]),
]


@pytest.mark.parametrize(
    "reader, bounds, good, bad", READERS, ids=[f"{r.__name__}-{'-'.join(b) or 'free'}" for r, b, _, _ in READERS]
)
def test_config_readers_refuse_by_key(reader, bounds, good, bad):
    for v, want in good:
        got = reader("k", v, **bounds)
        assert type(got) is type(want) and got == want
    for v in bad:
        with pytest.raises(sl.ConfigError, match="config key 'k' must"):
            reader("k", v, **bounds)


OVERFLOW = {"type": "weight", "g": {"op": "const", "value": [1000, 0]}}


@pytest.mark.parametrize(
    "subcommand, payload",
    [
        ("cocycle-check", {"flow": RADIAL, "weight": OVERFLOW}),
        ("cocycle-check", {"flow": RADIAL, "weight": {"type": "weight", "g": {"op": "poly", "coeffs": [[800, 0]]}}}),
        ("generator-check", {"flow": RADIAL, "weight": OVERFLOW, "function": {"op": "id"},
                             "t_ladder": [1.0, 0.5]}),
    ],
    ids=["constant-weight", "swept-weight", "generator-table"],
)
def test_overflowing_cocycle_is_a_singularity(tmp_path, capsys, subcommand, payload):
    # m_t = e^{1000 t} overflows for t > 0.71, e^{800 t} for t > 0.89: refused, not written as NaN
    cfg = write_config(tmp_path, "c.json", payload)
    assert run(subcommand, cfg, tmp_path / "out") == 1
    assert read_report(tmp_path / "out")["error"]["type"] == "SingularityError"
    assert capsys.readouterr().err.startswith("SingularityError: non-finite")


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("subcommand, payload", [
    ("flow-check",  # G = -z + 1e300 z^5
     {"flow": {**RADIAL, "G": {"op": "poly", "coeffs": [[0, 0], [-1, 0]] + [[0, 0]] * 3 + [[1e300, 0]]}, "tol": 1e-10},
      "n_points": 5}),
    ("generator-check",  # g = 1e308 z^3
     {"flow": RADIAL, "weight": {"type": "weight", "g": {"op": "poly", "coeffs": [[0, 0]] * 3 + [[1e308, 0]]}},
      "function": {"op": "poly", "coeffs": [[0, 0], [0, 0], [1, 0]]}}),
], ids=["flow-check", "generator-check"])
def test_an_overflowing_run_prints_only_its_typed_error(tmp_path, capsys, subcommand, payload, action):
    # numpy warns on its way to the non-finite value that a typed check refuses; the warning is
    # neither printed nor, under an "error" filter, raised out of main as a traceback
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert run(subcommand, write_config(tmp_path, "c.json", payload), tmp_path / "out") == 1
    assert not caught
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("SingularityError: non-finite value at ")
    assert read_report(tmp_path / "out")["error"]["type"] == "SingularityError"


def test_csv_bodies_deterministic(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"flow": RADIAL, "n_points": 8})
    assert run("flow-check", cfg, tmp_path / "a") == 0
    assert run("flow-check", cfg, tmp_path / "b") == 0
    for name in ("report.json", "semigroup_residuals.csv", "generator_roundtrip.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_sample_points(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"flow": RADIAL, "n_points": 8})
    assert main(["flow-check", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["flow-check", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    a = (tmp_path / "a" / "semigroup_residuals.csv").read_text()
    b = (tmp_path / "b" / "semigroup_residuals.csv").read_text()
    assert a != b


@pytest.mark.parametrize("subcommand, payload", [
    ("gpv", {"family": {"kind": "geometric", "count": 4}}),
    ("separability", {"family": {"kind": "geometric", "count": 3}, "rotations": {"count": 3}}),
])
def test_a_run_without_random_points_does_not_import_numpy_random(tmp_path, subcommand, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    script = ("import sys; from semiflow_lab.cli import main; "
              f"code = main([{subcommand!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
              "print(code, 'numpy.random' in sys.modules)")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout + proc.stderr


def test_metadata_is_separate(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"flow": RADIAL, "n_points": 5})
    assert run("flow-check", cfg, tmp_path / "out") == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert "wall_clock_seconds" in meta and "timestamp" in meta
    report = read_report(tmp_path / "out")
    assert "timestamp" not in report


SHIPPED = {
    "bloch_gap_auto_parabolic": "bloch-gap-auto",
    "bloch_gap_radial": "bloch-gap",
    "bloch_gap_inner": "bloch-gap",
    "coboundary_check": "coboundary-check",
    "cocycle_check_linear_weight": "cocycle-check",
    "flow_check_radial": "flow-check",
    "flow_trace_parabolic": "flow-trace",
    "generator_check_bloch": "generator-check",
    "generator_check_square": "generator-check",
    "gpv_geometric": "gpv",
    "separability_rotations": "separability",
    "transfer_check_cayley": "transfer-check",
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_shipped_config_passes(tmp_path, capsys, path):
    out = tmp_path / "out"
    assert main([SHIPPED[path.stem], "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
    verdicts = read_report(out)["verdicts"]
    assert verdicts and all(v["passed"] for v in verdicts)
    # every verdict has a margin: its value against its threshold
    assert all(v["value"] is not None and v["threshold"] is not None for v in verdicts)
    # stdout is one [PASS] line per verdict of the report, in the report's order, with its value
    lines = [f"[PASS] {v['name']} value={v['value']}" for v in verdicts]
    assert capsys.readouterr().out.splitlines() == lines


def test_shipped_bloch_gap_cancels_at_roundoff(tmp_path):
    # w_n comes from a one-point advance, and the cancellation re-run repeats its orbit in a
    # 2- or 4-component state.  The two agree bit for bit only while the step rounds each
    # component alike at any state width; with w_6 one ulp off, the ratios reach 2.5e-9 to
    # 7.4e-9 and still pass the verdict's 1e-8.
    path = CONFIGS / "bloch_gap_radial.json"
    assert main(["bloch-gap", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    verdicts = read_report(tmp_path / "out")["verdicts"]
    ratios = [v["value"] for v in verdicts if v["name"].startswith("cancellation-weight-")]
    assert len(ratios) == 3 and max(ratios) <= 1e-12
