"""The traced benchmark run patches entmono attributes by name; every one must exist.

A refactor that drops or renames one of those imports would otherwise only
fail in a ``benchmark/run.py --trace 1`` run.
"""

import importlib.util
from pathlib import Path

import entmono
import entmono.cli  # noqa: F401  (the traced run imports it too)

_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("entmono_bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

PATCHED = [(module, attr) for module, attr, *_ in tracing._SPANS + tracing._LEAVES]
PATCHED += [("cli", "main"), ("cli", "monotone_by_name")]


def current(module, attr):
    return getattr(getattr(entmono, module), attr)


def test_every_patched_name_resolves_and_is_restored():
    missing = [f"entmono.{module}.{attr}" for module, attr in PATCHED
               if not hasattr(getattr(entmono, module, None), attr)]
    assert missing == []
    originals = {key: current(*key) for key in PATCHED}
    with tracing.Tracer().active(entmono, {}):
        assert [key for key, fn in originals.items() if current(*key) is fn] == []
    assert [key for key, fn in originals.items() if current(*key) is not fn] == []
