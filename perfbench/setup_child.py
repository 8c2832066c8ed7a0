"""Set-up as a fresh CLI process pays it, timed by ``run.py``.

Imports the package (numpy included), generates the workload's configs,
writes them and loads them back through the package's parsers, then prints
the monotonic clock.  The parent subtracts the time it spawned this process.

    python3 perfbench/setup_child.py <workload> <seed> <scratch-dir>
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import semiflow_lab.cli  # noqa: E402,F401  (what the semiflow-lab entry point imports)
from semiflow_lab.analytic import fn_from_json  # noqa: E402
from semiflow_lab.cocycles import weight_from_json  # noqa: E402
from semiflow_lab.flows import flow_from_json, map_from_json  # noqa: E402

import workloads  # noqa: E402


def load(config: dict) -> None:
    """Parse every sub-object the CLI parses for this config."""
    if "flow" in config:
        flow_from_json(config["flow"])
    if "map" in config:
        map_from_json(config["map"])
    if "weight" in config:
        weight_from_json(config["weight"])
    for weight in config.get("weights", []):
        weight_from_json(weight)
    for key in ("function", "alpha"):  # gpv's "alpha" is a radius, not a tree
        if isinstance(config.get(key), dict):
            fn_from_json(config[key])


def main(workload: str, seed: int, directory: str) -> None:
    op_list = workloads.ops(workload, seed) + workloads.probes(workload)
    for path in workloads.write_configs(op_list, directory):
        with open(path) as fh:
            load(json.load(fh))
    print(time.monotonic())


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
