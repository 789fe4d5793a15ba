"""The names that perfbench/tracer.py wraps, against the package.

The tracer replaces chi_jrsp's layer functions by name, with `getattr`, so a
name that the package renames or deletes breaks every traced benchmark run
(`perfbench/run.py --trace 1`) and nothing else. The tracer imports only the
standard library, so it is loaded here from its file.
"""

import importlib.util
from pathlib import Path

from chi_jrsp import bases, harness, protocol, qstate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    table = tracer._patch_table(harness, protocol, bases, qstate)
    assert table
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in table if not callable(getattr(module, attr, None))]
    assert missing == []
