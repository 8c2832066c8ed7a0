import cmath
import math

import numpy as np
import pytest

import semiflow_lab as sl


@pytest.fixture
def rng():
    return np.random.RandomState(12345)


@pytest.fixture
def integrations(monkeypatch):
    """The end time of every integrator run the test makes, one entry a run."""
    from semiflow_lab import cocycles, flows

    calls = []
    integrate = flows._integrate

    def counted(rhs, y0, t_end, tol):
        calls.append(t_end)
        return integrate(rhs, y0, t_end, tol)

    monkeypatch.setattr(flows, "_integrate", counted)
    monkeypatch.setattr(cocycles, "_integrate", counted)
    return calls


def fn_corpus():
    """Representative expression trees covering every node kind."""
    blaschke = sl.BlaschkeProduct((0.3, -0.4 + 0.2j, 0.5j))
    return [
        sl.Constant(2.5 - 1j),
        sl.Identity(),
        sl.Polynomial([1, 2, 3]),
        sl.Polynomial([0.5, 0, -0.25, 1j]),
        sl.Mobius(1, 1, -1, 1),
        sl.Mobius(0, 1, -0.5, 1),
        sl.Exp(sl.Identity()),
        sl.Exp(sl.Polynomial([0, 0, 1])),
        sl.Log(sl.Polynomial([1, -0.5])),
        sl.Sum((sl.Identity(), sl.Exp(sl.Identity()))),
        sl.Product((sl.Polynomial([0, 1]), sl.Exp(sl.Identity()), sl.Constant(3))),
        sl.Quotient(sl.Constant(1), sl.Polynomial([1, -0.5])),
        sl.Quotient(sl.Exp(sl.Identity()), sl.Polynomial([2, 0.5, 1])),  # a curved denominator
        sl.Compose(sl.Exp(sl.Identity()), sl.Polynomial([0, 0, 1])),
        sl.Power(sl.Polynomial([0.5, 0.5]), 3),
        sl.Power(sl.Polynomial([2, 1, 0.5]), -2),
        blaschke,
    ]


def generator_corpus():
    """Vector fields G in {-z, iz, -z(1-z), (1-z)^2}."""
    return {
        "-z": sl.Polynomial([0, -1]),
        "iz": sl.Polynomial([0, 1j]),
        "-z(1-z)": sl.Polynomial([0, -1, 1]),
        "(1-z)^2": sl.Polynomial([1, -2, 1]),
    }


def flow_corpus(tol=1e-10):
    flows = {
        name: sl.ode_flow(G, tol) for name, G in generator_corpus().items()
    }
    flows["cayley-parabolic"] = sl.koenigs_flow(sl.cayley_map(), 1j, "translate")
    flows["mobius-spiral"] = sl.koenigs_flow(sl.mobius_map(1, 0, -0.5, 1), 1.0, "spiral")
    return flows


def weight_corpus():
    return {
        "g=0": sl.Weight(sl.Constant(0)),
        "g=1": sl.Weight(sl.Constant(1)),
        "g=z": sl.Weight(sl.Identity()),
        "coboundary-1-z": sl.Coboundary(sl.Polynomial([1, -1])),
    }


def replaced(record, **changes):
    """A copy of ``record`` with the named fields changed, built through its constructor."""
    return type(record)(**{**{key: getattr(record, key) for key in record._record_fields}, **changes})


def group_fixed_points(a, beta):
    """The fixed points of the group G(z) = a + i beta z - conj(a) z^2, the roots of
    -conj(a) z^2 + i beta z + a (0 alone when a = 0): the larger root without
    cancellation, then the other from their product -a/conj(a)."""
    if a == 0:
        return [0j]
    scale = max(abs(a), abs(beta))  # the roots do not change when a and beta are scaled alike
    a, beta = a / scale, beta / scale
    p = (1j * beta + math.copysign(1.0, beta) * cmath.sqrt(4.0 * abs(a) ** 2 - beta ** 2)) / (2.0 * a.conjugate())
    return [p, -a / (a.conjugate() * p)]
