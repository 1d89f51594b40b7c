"""The benchmark tracer (perfbench/tracer.py) wraps package functions by name in the modules
whose globals their callers read: each listed module must bind each name, all of them to one
object, or the traced benchmark run fails.  This reads the tracer's table and size probes
without installing it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from edgeideals import resolutions
from edgeideals.graphs import anticycle, cycle
from edgeideals.linalg import GF2, RATIONALS
from edgeideals.monomials import edge_ideal, ideal_power
from edgeideals.resolutions import DEFAULT_CAPS, EngineCaps

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _tracer()
WRAPS = TRACER.WRAPS
MISSING = object()


def test_the_tracer_table_is_found():
    assert any(name == "betti_table" for _, name, _ in WRAPS)


@pytest.mark.parametrize(
    "name, modules", [(name, modules) for _, name, modules in WRAPS], ids=[name for _, name, _ in WRAPS]
)
def test_each_traced_name_is_one_object_in_every_module_it_lists(name, modules):
    bound = []
    for module in modules:
        obj = importlib.import_module(f"edgeideals.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, MISSING)
        assert obj is not MISSING, f"edgeideals.{module} does not bind {name!r}"
        bound.append(obj)
    assert all(obj is bound[0] for obj in bound), (name, modules)


@pytest.mark.parametrize(
    "ideal, field, caps",
    [
        (edge_ideal(cycle(5)), RATIONALS, DEFAULT_CAPS),
        (ideal_power(edge_ideal(anticycle(5)), 2), GF2, EngineCaps(lattice_max=5000)),
        (ideal_power(edge_ideal(cycle(4)), 2), RATIONALS, EngineCaps(membership_table_max=1)),
    ],
    ids=["squarefree", "power", "fallback"],
)
def test_betti_table_makes_one_lattice_call_the_tracer_can_read(monkeypatch, ideal, field, caps):
    # the tracer's lattice probe reads caps as the second positional argument and the
    # lattice size off the result, so betti_table must look lcm_lattice up in resolutions,
    # once per table, and get the whole lattice back
    calls = []
    lattice = resolutions.lcm_lattice

    def recording(*args, **kwargs):
        result = lattice(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(resolutions, "lcm_lattice", recording)
    resolutions.betti_table(ideal, field, caps)
    [(args, kwargs, result)] = calls
    assert args == (ideal, caps) and not kwargs
    assert result == lattice(ideal, caps)
    assert TRACER._lattice_size(args, kwargs, result) == (len(result), caps.lattice_max)
