"""The benchmark tracer (perfbench/tracer.py) wraps package functions by name in the modules
whose globals their callers read: each listed module must bind each name, all of them to one
object, or the traced benchmark run fails.  This reads the tracer's table without installing it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wraps() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPS


WRAPS = _wraps()
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
