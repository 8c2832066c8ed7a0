"""The runtime guards must survive ``python -O``, which strips ``assert``.

The script below runs in a ``python -O`` subprocess and checks its results
with plain ``if``/``raise`` (pytest's asserts would be stripped there too).
It exits non-zero if any guard let its call through.  A record's immutability
is one of the guards: assigning to a tree's field raises there too.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

SCRIPT = r"""
import sys

import numpy as np

import semiflow_lab as sl

if __debug__:
    sys.exit("not running under python -O")


class ToCircle(sl.FlowModel):
    def _advance(self, z, t):
        return z / abs(z)


class ToOrigin(sl.FlowModel):
    def _advance(self, z, t):
        return 0.0 * z


# the guard disc around the pole is wider than the pole: only the guard refuses 0.5004
guarded = sl.Quotient(
    sl.Constant(1), sl.Polynomial([-0.5, 1]), guards=sl.analytic.guard_points([0.5], radius=1e-3)
)
batch = np.array([0.1, 0.5004])
checks = [
    ("flow leaving the disc", lambda: ToCircle().advance(batch, 1.0), sl.EscapeError),
    ("integrator escape", lambda: sl.ode_flow(sl.Polynomial([0, 5])).advance(batch, 2.0), sl.EscapeError),
    ("guarded quotient", lambda: guarded.eval(batch), sl.SingularityError),
    ("guarded quotient through a jet", lambda: guarded.jet(batch), sl.SingularityError),
    ("guard disc around an in-disc Mobius pole", lambda: sl.Mobius(1, 0, 1, -0.5).jet(
        np.array([0.1, 0.5 + 1e-10j])), sl.SingularityError),
    ("point outside the disc", lambda: sl.Identity().eval(np.array([0.1, 1.5])), sl.DomainError),
    ("coboundary zero on the orbit", lambda: sl.cocycle_eval(
        sl.WeightedSemigroup(ToOrigin(), sl.Coboundary(sl.Identity())), batch, 1.0), sl.SingularityError),
    ("negative time in a time array", lambda: sl.ode_flow(sl.Polynomial([0, -1])).advance(batch, np.array([0.5, -0.1])),
     ValueError),
    ("escape at a point's own time", lambda: sl.ode_flow(sl.Polynomial([0, 5])).advance(
        np.array([0.0, 0.5]), np.array([5.0, 0.2])), sl.EscapeError),
    ("assignment to a tree's field", lambda: setattr(guarded, "den", sl.Constant(1)), AttributeError),
]
skipped = []
for name, call, error in checks:
    try:
        call()
    except error:
        continue
    skipped.append(name)
if skipped:
    sys.exit("guards skipped under python -O: " + ", ".join(skipped))
print(f"{len(checks)} guards held")
"""


def test_guards_hold_under_python_O():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "10 guards held" in proc.stdout
