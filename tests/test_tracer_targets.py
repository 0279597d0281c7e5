"""Every function the benchmark tracer patches by name still exists.

perfbench/tracing.py wraps program functions named as (module, attribute
path) pairs in its SPANS and COUNTS tables.  A rename in the package breaks
a traced benchmark run; this reads the tables from that file, unchanged,
and resolves each pair in the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, path) for mod, path, _ in module.SPANS + module.COUNTS]


TARGETS = tracer_targets()


def test_tables_are_read():
    assert ("stabilizer", "gen_3d_code_derived") in TARGETS
    assert ("gf2", "Gf2Matrix.mat_vec") in TARGETS


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_target_resolves(module, path):
    owner = importlib.import_module(f"tqograph.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"tqograph.{module} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)
