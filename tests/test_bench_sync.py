"""The benchmark tracer in bench/spans.py names library callables and
curve kinds; these tests keep the library and those names in sync.  The
tracer module is imported as it is and never modified."""

import importlib.util
import math
import pathlib
import sys

import pytest

import maxdeficit.cli  # noqa: F401  the tracer wraps cli.main, so it must be loaded
from maxdeficit import (
    DeficitFunctional,
    identity,
    proportional_hazard,
    tvar,
    ultimate_ruin,
    var_step,
)
from tests.conftest import LINE1

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def every_constructed_curve():
    distortions = (identity(), proportional_hazard(0.5), tvar(0.1), var_step(0.1))
    curves = [DeficitFunctional.for_line(LINE1, g) for g in distortions]
    curves += [DeficitFunctional.closed_form(LINE1, g) for g in distortions]
    curves += [
        DeficitFunctional.closed_form_ph(LINE1, 0.5),
        DeficitFunctional.closed_form_tvar(LINE1, 0.1),
        DeficitFunctional.quadrature(identity(), lambda v: ultimate_ruin(LINE1, v)),
        DeficitFunctional.empirical(identity(), [0.0, 1.0, 2.5]),
        DeficitFunctional.for_line(LINE1, identity(), 5.0, 50, 1),
    ]
    return curves


def every_constructed_kind():
    return {d.kind for d in every_constructed_curve()}


def test_every_kind_has_a_layer(spans):
    # the tracer maps kinds to layers with no default, so a kind it does
    # not know would fail the traced run
    assert every_constructed_kind() <= set(spans._DEFICIT_LAYER)


def resolve(qualified):
    mod_name, attr = qualified.split(":")
    owner = sys.modules[f"maxdeficit.{mod_name}"]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_install_and_uninstall_resolve_every_traced_name(spans):
    names = [name for group in spans.LAYERS.values() for name in group]
    before = {name: resolve(name) for name in names}
    call = DeficitFunctional.__call__
    uninstall = spans.install(spans.Tracer())
    try:
        traced = {name: resolve(name) for name in names}
        assert DeficitFunctional.__call__ is not call
    finally:
        uninstall()
    assert set(traced) == set(before)
    assert {name: resolve(name) for name in names} == before
    assert DeficitFunctional.__call__ is call
    # the restored curve still evaluates
    assert DeficitFunctional.for_line(LINE1, identity())(0.0) == pytest.approx(5.0)
    assert math.isfinite(DeficitFunctional.for_line(LINE1, var_step(0.1))(1.0))


def test_every_source_evaluates_through_the_one_call():
    # the tracer and the evaluation counters wrap DeficitFunctional.__call__;
    # a source that defined its own would escape both
    for d in every_constructed_curve():
        assert type(d).__call__ is DeficitFunctional.__call__


def test_traced_calls_are_counted_per_source(spans):
    one_per_kind = {d.kind: d for d in every_constructed_curve()}
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.request = 0
        for d in one_per_kind.values():
            d(1.0)
    finally:
        uninstall()
    layers = set(spans._DEFICIT_LAYER.values())
    calls = {layer: tracer.layers.get(layer, [0])[0] for layer in layers}
    # closed-ph and closed-tvar share one layer
    assert calls == {
        "deficit.closed": 2,
        "deficit.quadrature": 1,
        "deficit.empirical": 1,
    }
