"""``json_form`` writes what the config readers take back: for every parsed
type, parse(json_form(x)) == x exactly, through a JSON text."""

import cmath
import dataclasses
import importlib
import inspect
import json
import pathlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow_lab as sl
from semiflow_lab import cli
from semiflow_lab.analytic import guard_points
from semiflow_lab.cli import main
from semiflow_lab.cocycles import weight_from_json
from semiflow_lab.errors import config_parser
from semiflow_lab.flows import map_from_json
from conftest import flow_corpus, weight_corpus

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def through_text(value):
    """json_form(value) as a reader meets it: written to JSON text and read back."""
    return json.loads(json.dumps(sl.json_form(value)))


def tree_corpus():
    """Nodes the round trip of ``fn_corpus`` leaves out: guards, a derivative,
    empty sums and products, nesting."""
    blaschke = sl.BlaschkeProduct((0, 0.3, -0.4 + 0.2j), theta=0.7)
    return [
        sl.Log(sl.Polynomial([0.5, 1]), guards=guard_points([-0.5])),
        sl.Log(sl.Identity(), guards=((0j, 1e-3), (0.5 + 0.5j, 0.25))),
        sl.Quotient(sl.Constant(1), sl.Polynomial([-0.5, 1]), guards=guard_points([0.5], 1e-6)),
        sl.Derivative(blaschke),
        sl.Compose(sl.Mobius(1, 0.5j, 0, 2), sl.Power(sl.Exp(sl.Identity()), -1)),
        sl.Sum(()),
        sl.Product(()),
    ]


@pytest.mark.parametrize("f", tree_corpus(), ids=lambda f: type(f).__name__)
def test_tree_round_trip(f):
    assert sl.fn_from_json(through_text(f)) == f


def test_a_blaschke_product_is_a_tree_leaf():
    B = sl.BlaschkeProduct((0.3, 0.5j), theta=0.7)
    assert sl.json_form(B) == {"op": "blaschke", "zeros": [[0.3, 0.0], [0.0, 0.5]], "theta": 0.7}
    again = sl.fn_from_json(sl.json_form(B))
    assert isinstance(again, sl.BlaschkeProduct) and isinstance(again, sl.AnalyticFn) and again == B
    assert sl.json_form(sl.Derivative(B))["op"] == "blaschke_derivative"


def test_keys_are_field_names():
    f = sl.Power(sl.Log(sl.Exp(sl.Identity())), 2)
    assert sl.json_form(f) == {
        "op": "power", "arg": {"op": "log", "arg": {"op": "exp", "arg": {"op": "id"}}, "guards": []}, "k": 2,
    }


def test_newton_map_round_trip():
    h = sl.ConformalMap(forward=sl.Mobius(1, 1, -1, 1), newton=sl.NewtonInverse(max_iter=17, tol=1e-11))
    assert sl.json_form(h)["newton"] == {"max_iter": 17, "tol": 1e-11}
    assert map_from_json(through_text(h)) == h


def test_closed_form_map_writes_no_newton():
    h = sl.cayley_map()
    assert set(sl.json_form(h)) == {"forward", "inverse"}
    assert map_from_json(through_text(h)) == h


def written_flows():
    """Flows whose every field a reader must take back: an automorphism's are those of its kind."""
    newton = sl.ConformalMap(forward=sl.Mobius(1, 1, -1, 1), newton=sl.NewtonInverse(40, 1e-12))
    return {
        "newton-translate": sl.koenigs_flow(newton, 1j, "translate"),
        "rotated": sl.RotatedFlow(sl.ode_flow(sl.Polynomial([0, -1]), 1e-11), cmath.exp(0.7j)),
        "elliptic": sl.Automorphism("elliptic", omega=0.7),
        "hyperbolic": sl.Automorphism("hyperbolic", rate=0.4, reflect=True),
        "parabolic": sl.Automorphism("parabolic", speed=1.0, reflect=True),
    }


@pytest.mark.parametrize("kind, keys", [("elliptic", ["omega"]), ("hyperbolic", ["rate", "reflect"]),
                                        ("parabolic", ["speed", "reflect"])])
def test_an_automorphism_writes_and_holds_only_its_kinds_keys(kind, keys):
    # each kind reads its own keys; another kind's field is neither written nor taken, so a written
    # flow reads back through the CLI, where an unread key is refused
    assert list(sl.json_form(written_flows()[kind])) == ["type", "kind", *keys]
    assert sl.json_form(sl.Automorphism(kind)) == {"type": "automorphism", "kind": kind,
                                                   **{key: sl.Automorphism._record_fields[key] for key in keys}}
    for other in {"omega": 1.0, "rate": 1.0, "speed": 1.0, "reflect": True}.items():
        if other[0] not in keys:
            with pytest.raises(sl.ModelError, match=f"kind {kind!r} does not read {other[0]}"):
                sl.Automorphism(kind, **dict([other]))


def written_weights():
    return {
        "coboundary-at-0": sl.Coboundary(sl.Polynomial([0, 1, 0.25]), fixed_point=0j),
        "coboundary-exp": sl.Coboundary(sl.Exp(sl.Identity())),
    }


@pytest.mark.parametrize("name", list(written_flows()))
def test_flow_round_trip(name):
    flow = written_flows()[name]
    assert sl.flow_from_json(through_text(flow)) == flow


@pytest.mark.parametrize("name", list(written_weights()))
def test_weight_round_trip(name):
    weight = written_weights()[name]
    assert weight_from_json(through_text(weight)) == weight


READERS = {
    "flow": sl.flow_from_json,
    "weight": weight_from_json,
    "function": sl.fn_from_json,
    "alpha": sl.fn_from_json,
    "map": map_from_json,
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_shipped_config_objects_round_trip(path):
    config = json.loads(path.read_text())
    parsed = [(READERS[key], READERS[key](value)) for key, value in config.items()
              if key in READERS and not isinstance(value, float)]  # gpv's alpha is a radius
    parsed += [(weight_from_json, weight_from_json(w)) for w in config.get("weights", [])]
    if "grid" in config.get("norm", {}):
        parsed.append((sl.GridSpec.from_json, sl.GridSpec.from_json(config["norm"]["grid"])))
    if "family" in config:
        parsed.append((sl.BlaschkeProduct.from_json, sl.BlaschkeProduct(cli._zeros_from_config(config)[0])))
    assert parsed
    for read, value in parsed:
        assert read(through_text(value)) == value


# The record contract: what ``errors.record`` gives every parsed type, and
# what the round trips above rely on.

def test_records_are_equal_by_type_and_fields():
    class Shifted(sl.Constant):
        pass

    assert sl.Constant(1) == sl.Constant(1 + 0j) and hash(sl.Constant(1)) == hash(sl.Constant(1 + 0j))
    assert sl.Constant(1) != sl.Constant(2)
    assert Shifted(1) != sl.Constant(1) and sl.Constant(1) != Shifted(1)
    assert sl.Constant(1) != 1 + 0j
    guarded = sl.Quotient(sl.Constant(1), sl.Identity(), guards=guard_points([0]))
    assert guarded != sl.Quotient(sl.Constant(1), sl.Identity())
    f, g = sl.Polynomial([1, 2]), sl.Polynomial((1 + 0j, 2 + 0j))
    assert f == g and f is not g and hash(f) == hash(g) and len({f, g, guarded}) == 2
    assert hash(sl.OdeFlow(sl.Identity())) == hash((sl.Identity(), sl.OdeFlow.tol))


@pytest.mark.parametrize("value, field", [
    (sl.Constant(1), "value"), (sl.Mobius(1, 0, 0, 1), "a"), (sl.OdeFlow(sl.Identity()), "tol"),
    (sl.BlaschkeProduct((0.5,)), "zeros"), (sl.H2Norm(), "N"), (sl.Mobius(1, 0, 0, 1), "guards"),
    (sl.Identity(), "anything"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_record_fields_cannot_change(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0.5)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("args, kwargs", [
    ((), {"max_iter": 5, "iterations": 5}),  # unknown
    ((50,), {"max_iter": 40}),  # repeated
    ((50, 1e-12, 4), {}),  # one too many
], ids=["unknown", "repeated", "too-many"])
def test_record_constructor_refuses_bad_arguments(args, kwargs):
    with pytest.raises(TypeError):
        sl.NewtonInverse(*args, **kwargs)
    with pytest.raises(sl.ConfigError, match="TypeError"):
        config_parser(lambda: sl.NewtonInverse(*args, **kwargs))()


def test_record_constructor_refuses_a_missing_argument():
    with pytest.raises(TypeError, match="'den'"):
        sl.Quotient(sl.Constant(1))
    with pytest.raises(sl.ConfigError, match="TypeError"):
        config_parser(lambda obj: sl.Mobius(**obj))({"a": 1, "b": 0, "c": 0})


def test_record_post_init_still_runs():
    assert type(sl.Constant(1).value) is complex
    assert sl.Polynomial([1, 2]).coeffs == (1 + 0j, 2 + 0j)
    assert sl.Mobius(1, 0, 1, -0.5).guards == guard_points([0.5])  # set in __post_init__, not a field
    assert "guards" not in sl.json_form(sl.Mobius(1, 0, 1, -0.5))
    with pytest.raises(sl.DomainError):
        sl.H2Norm(8, 1.5)  # the _CircleNorm check, through H2Norm's __post_init__
    with pytest.raises(ValueError):
        sl.H2Norm(-1)
    with pytest.raises(sl.DomainError):
        sl.HpNorm(2.0, 0.0)
    assert sl.ConformalMap(sl.Identity()).newton == sl.NewtonInverse() == sl.NewtonInverse(50, 1e-12)


def test_record_repr():
    assert repr(sl.Quotient(sl.Constant(1j), sl.Identity())) == \
        "Quotient(num=Constant(value=1j), den=Identity(), guards=())"
    assert repr(sl.HpNorm(2.0, 0.5)) == "HpNorm(p=2.0, r=0.5, M=256)"


def test_no_class_in_the_package_is_a_dataclass():
    # generated dataclass methods were most of the package's import time
    modules = [importlib.import_module(f"semiflow_lab.{m.name}") for m in pkgutil.iter_modules(sl.__path__)]
    classes = [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__]
    assert sl.Constant in classes and sl.GapReport in classes and sl.ConformalMap in classes
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]


def run_written(tmp_path, subcommand, payload):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    return main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("name", [*flow_corpus(), *written_flows()])
def test_written_flow_runs(tmp_path, capsys, name):
    # every key written is one the run reads: an unread key would exit 2
    flow = sl.json_form({**flow_corpus(), **written_flows()}[name])
    assert run_written(tmp_path, "flow-trace", {"flow": flow, "z0": [0.3, 0.1], "t_max": 1.0, "samples": 4}) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", [*weight_corpus(), *written_weights()])
def test_written_weight_runs(tmp_path, capsys, name):
    radial = sl.json_form(sl.ode_flow(sl.Polynomial([0, -1]), 1e-12))
    weight = {**weight_corpus(), **written_weights()}[name]
    payload = {"flow": radial, "weight": sl.json_form(weight), "n_points": 4}
    assert run_written(tmp_path, "cocycle-check", payload) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Generated inputs

finite = {"allow_nan": False, "allow_infinity": False}
numbers = st.floats(-10, 10, **finite)
complexes = st.complex_numbers(max_magnitude=10, **finite)
inside = st.complex_numbers(max_magnitude=0.99, **finite)
guards = st.lists(st.tuples(complexes, st.floats(1e-12, 1.0)), max_size=2).map(tuple)
products = st.builds(sl.BlaschkeProduct, st.lists(inside, max_size=3).map(tuple), numbers)
mobius = st.tuples(complexes, complexes, complexes, complexes).filter(
    lambda m: m[0] * m[3] - m[1] * m[2] != 0).map(lambda m: sl.Mobius(*m))
leaves = st.one_of(
    st.builds(sl.Constant, complexes),
    st.just(sl.Identity()),
    st.builds(sl.Polynomial, st.lists(complexes, max_size=4).map(tuple)),
    mobius,
    products,
    products.map(sl.Derivative),
)


def _nodes(children):
    return st.one_of(
        st.builds(sl.Exp, children),
        st.builds(sl.Log, children, guards),
        st.builds(sl.Sum, st.lists(children, max_size=3).map(tuple)),
        st.builds(sl.Product, st.lists(children, max_size=3).map(tuple)),
        st.builds(sl.Quotient, children, children, guards),
        st.builds(sl.Compose, children, children),
        st.builds(sl.Power, children, st.integers(-3, 3)),
    )


trees = st.recursive(leaves, _nodes, max_leaves=8)
maps = st.one_of(
    st.sampled_from([sl.cayley_map(), sl.reflected_cayley_map(), sl.mobius_map(1, 0.2, 0.3j, 1)]),
    st.builds(lambda f, n, tol: sl.ConformalMap(forward=f, newton=sl.NewtonInverse(n, tol)),
              trees, st.integers(1, 100), st.floats(1e-15, 1e-6)),
)
base_flows = st.one_of(
    st.builds(sl.OdeFlow, trees, st.floats(1e-14, 1e-3)),
    st.builds(sl.KoenigsFlow, maps, complexes, st.just("translate")),
    st.builds(sl.KoenigsFlow, st.just(sl.identity_map()),
              complexes.map(lambda c: complex(abs(c.real), c.imag)), st.just("spiral")),
    st.builds(lambda omega: sl.Automorphism("elliptic", omega=omega), numbers),  # each kind with its own fields
    st.builds(lambda rate, reflect: sl.Automorphism("hyperbolic", rate=rate, reflect=reflect), numbers, st.booleans()),
    st.builds(lambda speed, reflect: sl.Automorphism("parabolic", speed=speed, reflect=reflect), numbers, st.booleans()),
)
flows = st.one_of(
    base_flows,
    st.builds(sl.RotatedFlow, base_flows, st.floats(0, 6.3).map(lambda a: cmath.exp(1j * a))),
)
weights = st.one_of(
    st.builds(sl.Weight, trees),
    st.builds(sl.Coboundary, trees, st.one_of(st.none(), inside)),
)


@settings(max_examples=60, deadline=None)
@given(trees)
def test_generated_tree_round_trip(f):
    assert sl.fn_from_json(through_text(f)) == f


@settings(max_examples=40, deadline=None)
@given(flows)
def test_generated_flow_round_trip(flow):
    assert sl.flow_from_json(through_text(flow)) == flow


@settings(max_examples=40, deadline=None)
@given(weights)
def test_generated_weight_round_trip(weight):
    assert weight_from_json(through_text(weight)) == weight
