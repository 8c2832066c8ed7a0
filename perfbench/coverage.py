"""Check that the tracer sees every call: traced ``.calls`` against cProfile.

    python3 perfbench/coverage.py --workload bloch-gap --seed 1

Runs one untraced pass under cProfile and one traced pass with the same ops,
then compares, for every traced layer, the tracer's call count with
cProfile's count for the wrapped functions.  A binding the tracer missed
(a module that imported the function by name, an alias such as
``AnalyticFn.__call__``) shows as a shortfall.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import tracing

    workdir = os.path.join(run.WORK, f"coverage-{args.workload}-{os.getpid()}")
    try:
        wl = run.WorkloadRun(args.workload, args.seed, workdir)
        profiler = cProfile.Profile()
        profiler.enable()
        _, _, profiled = wl.run_pass()
        profiler.disable()
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            _, _, traced = wl.run_pass(tracer)
        finally:
            tracing.uninstall(undo)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    profile_calls = {}
    for (filename, line, func), (_, calls, *_rest) in pstats.Stats(profiler).stats.items():
        profile_calls[(filename, line, func)] = calls
    expected = dict.fromkeys(tracing.TRACED, 0)
    for name, fn, _ in tracing.targets():
        code = fn.__code__
        expected[name] += profile_calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
    # summarize reports eval and eval_anywhere as one layer.
    expected["analytic.eval"] += expected.pop("analytic.eval_anywhere")
    stats = tracing.summarize(tracer.spans)["stats"]

    bad = 0
    for name, want in expected.items():
        got = stats[name][0]
        status = "ok" if got == want else "MISMATCH"
        bad += got != want
        print(f"{name:40s} traced {got:9d}  cProfile {want:9d}  {status}")
    if not all(o.ok for o in profiled + traced):
        print("an op failed; counts are not comparable")
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
