"""Benchmark for semiflow-lab: end-to-end time to certified verdicts, and
per-layer work from a traced run.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that holds ``src/semiflow_lab``.  A run
calls ``semiflow_lab.cli.main`` in this process, one op after another, in
passes over the workload's ops (see ``workloads.py``), until ``--seconds``
have passed and at least a minimum number of passes are done.  After each
pass it checks every op: exit code 0, every verdict passed, the report and
CSV bodies byte-identical to the first pass, and each oracle within 1e-9.
Probes (``workloads.probes``) run once per run, outside the timed passes and
outside ``attempted``/``failed``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median pass wall
time), ``setup_s`` (median over fresh processes of interpreter start to
package imported and configs generated and loaded) and ``peak_rss_mb``.
``run_s`` and ``setup_s`` are in reference seconds: wall time rescaled to a
fixed machine speed measured alongside it (``speed.py``), because the speed
of the shared host drifts more than the bounds allow.  The median raw wall
times are printed on the lines before the result.
``--trace 1`` first makes untraced passes for half the time, then traced
passes (``tracing.py``), and reports the per-layer metrics with the tracing
overhead.  ``--workload all`` runs every workload in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.  Spans of the first traced pass go to
``.bench_build/perfbench/trace-<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_PASSES = 3  # a median needs at least three passes; single passes spread +-25% here
MIN_TRACED_PASSES = 2  # two, so that the counts can be compared between passes
SETUP_REPEATS = 15  # set-up times drift with the host; samples spread over the run average that
CHILD_TIMEOUT_S = 170
ERROR_TYPES = ("EscapeError", "QuadratureError", "SingularityError")
NON_REPORT_FILES = ("metadata.json",)  # wall clock and timestamp: differ on every run


def _metric(value, unit):
    return {"value": value, "unit": unit}


@dataclass
class Outcome:
    """What one op did in one pass."""

    ok: bool
    error: str | None = None  # exception type name, when one ended the op
    detail: str = ""
    out_bytes: int = 0
    seconds: float | None = None  # set by run_pass: reference seconds untraced, wall seconds traced


def _oracle_error(config):
    """Largest |cocycle_eval - closed form| over the oracle points."""
    from semiflow_lab import cocycles, flows

    wsg = cocycles.WeightedSemigroup(
        flows.flow_from_json(config["flow"]), cocycles.weight_from_json(config["weight"])
    )
    exact = workloads.ORACLES[config["oracle"]]
    worst = 0.0
    for x, y, t in config["points"]:
        z = complex(x, y)
        worst = max(worst, abs(cocycles.cocycle_eval(wsg, z, t) - exact(z, t)))
    return worst


class WorkloadRun:
    """A workload's ops with their config files and output directories."""

    def __init__(self, workload, seed, workdir):
        import semiflow_lab.cli  # noqa: F401  (imported before timing; setup_s measures import)

        self.seed = seed
        self.ops = workloads.ops(workload, seed)
        self.probes = workloads.probes(workload)
        os.makedirs(os.path.join(workdir, "configs"))
        all_ops = self.ops + self.probes
        paths = workloads.write_configs(all_ops, os.path.join(workdir, "configs"))
        self.config_path = dict(zip((op.name for op in all_ops), paths))
        self.out_dir = {op.name: os.path.join(workdir, "out", f"{i:02d}") for i, op in enumerate(all_ops)}
        self.first_digest = {}

    def _call(self, op):
        """Run one op; returns (exit code or oracle error, exception type name or None)."""
        from semiflow_lab import cli

        try:
            if op.subcommand == "oracle":
                return _oracle_error(op.config), None
            argv = [op.subcommand, "--config", self.config_path[op.name],
                    "--out", self.out_dir[op.name], "--seed", str(self.seed)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv), None
        except SystemExit as exc:  # argparse rejecting the command line
            return exc.code, None
        except Exception as exc:  # an uncaught exception is a traceback for a CLI user
            return None, type(exc).__name__

    def _check(self, op, result, error):
        if error is not None:
            return Outcome(False, error, f"raised {error}")
        if op.subcommand == "oracle":
            ok = result <= workloads.ORACLE_TOL
            return Outcome(ok, detail=f"max |cocycle_eval - oracle| = {result:.3g}")
        out = self.out_dir[op.name]
        try:
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            return Outcome(False, detail=f"exit {result}, no readable report.json")
        if "error" in report:
            return Outcome(False, report["error"]["type"], f"exit {result}, {report['error']['type']}")
        digest = hashlib.sha256()
        out_bytes = 0
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                body = fh.read()
            out_bytes += len(body)
            if name not in NON_REPORT_FILES:
                digest.update(name.encode() + b"\0" + body)
        expected = {f"{table}.csv" for table in report.get("tables", [])} | {"report.json", "metadata.json"}
        missing = expected - set(os.listdir(out))
        failed = [v["name"] for v in report.get("verdicts", []) if not v["passed"]]
        ok = result == 0 and report.get("passed") is True and not failed and not missing
        detail = f"exit {result}" + (f", failed verdicts {failed}" if failed else "")
        detail += f", missing {sorted(missing)}" if missing else ""
        first = self.first_digest.setdefault(op.name, digest.hexdigest())
        if first != digest.hexdigest():
            ok, detail = False, detail + ", outputs differ from the first pass"
        return Outcome(ok, detail=detail, out_bytes=out_bytes)

    def _clear(self, op):
        shutil.rmtree(self.out_dir[op.name], ignore_errors=True)

    def run_pass(self, tracer=None):
        """Time one pass over the ops; the checks run after the clock stops.

        Returns (reference seconds, wall seconds, outcomes).  Untraced, each
        op runs under a ``speed.SpeedProbe``; traced passes are timed by wall
        clock alone, so the probe adds nothing to the spans, and their
        reference seconds are None.
        """
        for op in self.ops:
            self._clear(op)
        results, ref, wall = [], [], []
        for op in self.ops:
            if tracer is not None:
                tracer.op = op.name
                start = time.perf_counter()
                results.append(self._call(op))
                wall.append(time.perf_counter() - start)
            else:
                with speed.SpeedProbe() as probe:
                    results.append(self._call(op))
                ref.append(probe.seconds)
                wall.append(probe.wall_s)
        outcomes = [self._check(op, *res) for op, res in zip(self.ops, results)]
        for o, secs in zip(outcomes, ref or wall):
            o.seconds = secs
        return (sum(ref) if tracer is None else None), sum(wall), outcomes

    def run_probes(self):
        outcomes = []
        for op in self.probes:
            self._clear(op)
            outcomes.append((op, self._check(op, *self._call(op))))
        return outcomes


class SetupSampler:
    """setup_s samples: spawn to 'package imported, configs generated and loaded'.

    Each sample is rescaled by the speed of a bare interpreter start timed
    just before the spawn and just after the child exits.

    ``maybe`` runs between passes and takes a sample when its share of the
    run has elapsed, so the samples spread over the run like the passes do
    and a short slow spell of the machine does not set the median.
    """

    def __init__(self, workload, seed, workdir, seconds):
        self.argv = [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed)]
        self.workdir = workdir
        self.interval = seconds / SETUP_REPEATS
        self.start = time.perf_counter()
        self.samples = []
        self.wall = []

    def sample(self):
        scratch = os.path.join(self.workdir, f"setup{len(self.samples)}")
        os.makedirs(scratch)
        before = speed.spawn_speed()
        start = time.monotonic()
        proc = subprocess.run(self.argv + [scratch], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        wall = float(proc.stdout.split()[-1]) - start
        self.wall.append(wall)
        self.samples.append(wall * (before + speed.spawn_speed()) / 2.0)

    def maybe(self):
        if time.perf_counter() - self.start >= len(self.samples) * self.interval:
            self.sample()

    def finish(self):
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return self.samples


def _passes(run, seconds, minimum, tracer=None, on_pass=None):
    """Passes until ``seconds`` have elapsed and at least ``minimum`` are done.

    Returns (reference seconds, wall seconds, outcomes), one entry a pass.
    """
    ref, wall, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    while len(wall) < minimum or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        ref_s, wall_s, outs = run.run_pass(tracer)
        ref.append(ref_s)
        wall.append(wall_s)
        outcomes.append(outs)
        if on_pass is not None:
            on_pass()
    return ref, wall, outcomes


def _error_kind(name):
    return name if name in ERROR_TYPES else "other"


def _report_ops(run, outcomes, probe_outcomes, untraced):
    """Prints each op's median untraced time and last result; returns (attempted, failed, errors).

    ``outcomes`` holds every pass, the first ``untraced`` of them untraced.
    ``errors`` counts typed errors in one pass (every pass makes the same
    calls) plus the probes.
    """
    attempted = sum(len(outs) for outs in outcomes)
    failed = sum(not o.ok for outs in outcomes for o in outs)
    for k, op in enumerate(run.ops):
        o = outcomes[-1][k]
        secs = statistics.median(outs[k].seconds for outs in outcomes[:untraced])
        print(f"  op {op.name:40s} {secs:8.3f} ref s  {'ok  ' if o.ok else 'FAIL'} {o.detail}")
    errors = dict.fromkeys(ERROR_TYPES + ("other",), 0)
    for o in outcomes[0] + [o for _, o in probe_outcomes]:
        if o.error is not None:
            errors[_error_kind(o.error)] += 1
    for op, o in probe_outcomes:
        print(f"  probe {op.name:37s} {'ok  ' if o.ok else 'FAIL'} {o.detail} (outside run_s and fail_frac)")
    print(f"  fail_frac {failed / attempted:.4g} ratio ({failed} of {attempted} op runs failed)")
    return attempted, failed, errors


def _seconds_line(label, times):
    return f"  {label} {len(times)}: " + " ".join(f"{t:.3f}" for t in times) + " s"


def run_untraced(workload, seed, seconds, workdir):
    run = WorkloadRun(workload, seed, workdir)
    probe_outcomes = run.run_probes()
    sampler = SetupSampler(workload, seed, workdir, seconds)
    sampler.maybe()
    times, wall, outcomes = _passes(run, seconds, MIN_PASSES, on_pass=sampler.maybe)
    setup = sampler.finish()
    attempted, failed, _ = _report_ops(run, outcomes, probe_outcomes, len(outcomes))
    print(_seconds_line("passes, reference", times))
    print(_seconds_line("passes, wall", wall))
    print(_seconds_line("set-up processes, reference", setup))
    print(_seconds_line("set-up processes, wall", sampler.wall))
    print(f"  median wall time: pass {statistics.median(wall):.4f} s, set-up {statistics.median(sampler.wall):.4f} s")
    metrics = {
        "run_s": _metric(statistics.median(times), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return failed == 0, attempted, failed, metrics


def run_traced(workload, seed, seconds, workdir):
    import tracing

    run = WorkloadRun(workload, seed, workdir)
    probe_outcomes = run.run_probes()
    _, plain, plain_outcomes = _passes(run, seconds / 2.0, 1)
    tracer = tracing.Tracer()
    summaries = []

    def keep():
        summaries.append(tracing.summarize(tracer.spans))
        if len(summaries) == 1:
            tracing.write_spans(os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl.gz"), tracer.spans)

    undo = tracing.install(tracer)
    try:
        _, traced, traced_outcomes = _passes(run, seconds / 2.0, MIN_TRACED_PASSES, tracer, on_pass=keep)
    finally:
        tracing.uninstall(undo)
    attempted, failed, errors = _report_ops(
        run, plain_outcomes + traced_outcomes, probe_outcomes, len(plain_outcomes)
    )
    print(_seconds_line("untraced passes, wall", plain))
    print(_seconds_line("traced passes, wall", traced))
    print(f"  peak RSS with spans in memory: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    counts = [_counts(s) for s in summaries]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print("  traced counts differ between passes")
    _compare_traffic(workload, seed, counts[0])

    first = summaries[0]
    metrics = {}
    for name in tracing.LAYERS:
        metrics[f"{name}.calls"] = _metric(first["stats"][name][0], "count")
        metrics[f"{name}.s"] = _metric(statistics.median(s["stats"][name][1] for s in summaries), "s")
    for name, points in first["points"].items():
        metrics[f"{name}.points"] = _metric(points, "count")
    metrics["flows.rhs_evals"] = _metric(first["flows.rhs_evals"], "count")
    metrics["cocycles.advances_per_cocycle"] = _metric(first["cocycles.advances_per_cocycle"], "ratio")
    metrics["cli.out_bytes"] = _metric(sum(o.out_bytes for o in traced_outcomes[0]), "bytes")
    for kind, n in errors.items():
        metrics[f"errors.{kind}"] = _metric(n, "count")
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(plain), "s")
    return failed == 0 and repeat, attempted, failed, metrics


def _compare_traffic(workload, seed, counts):
    """Print how this pass's counts compare with the traffic recorded when the benchmark was added."""
    with open(os.path.join(HERE, "expectations.json")) as fh:
        record = json.load(fh)
    if seed != record["traffic_seed"]:
        return
    recorded = record["workloads"][workload]["verified_traffic"]
    moved = sorted(k for k in recorded if counts.get(k) != recorded[k])
    if moved:
        print(f"  traffic: {len(moved)} counts differ from the recorded seed-commit traffic: {', '.join(moved)}")
    else:
        print("  traffic: identical to the recorded seed-commit traffic")


def _counts(summary):
    """The values that must repeat exactly between passes and runs with one seed."""
    out = {f"{name}.calls": st[0] for name, st in summary["stats"].items()}
    out.update({f"{name}.points": n for name, n in summary["points"].items()})
    out["flows.rhs_evals"] = summary["flows.rhs_evals"]
    out["cocycles.advances_per_cocycle"] = summary["cocycles.advances_per_cocycle"]
    return out


def run_all(args):
    """Each workload in a fresh process, so that set-up and peak memory are its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"workload {workload} did not finish")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semiflow_lab", "__init__.py")):
        print(f"perfbench: {SRC}/semiflow_lab not found; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "all":
        correct, attempted, failed, metrics = run_all(args)
    elif args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    else:
        os.makedirs(WORK, exist_ok=True)
        workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        try:
            measure = run_traced if args.trace else run_untraced
            correct, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
