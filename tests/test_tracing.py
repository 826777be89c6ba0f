"""The traced benchmark run patches entmono attributes by name; every one must exist.

A refactor that drops or renames one of those imports would otherwise only
fail in a ``benchmark/run.py --trace 1`` run.
"""

import importlib.util
from pathlib import Path

import entmono
import entmono.cli  # noqa: F401  (the traced run imports it too)
from entmono import density_of, maximally_entangled
from entmono.monotones import alpha_entropy_spec

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


def test_only_a_direct_roof_estimate_opens_its_span():
    # roof.g_calls_per_estimate divides the g calls inside roof.roof_estimate
    # spans by their count; check_c2 searches through roof._search and must
    # not add spans, or the metric would change meaning silently
    tracer = tracing.Tracer()
    with tracer.active(entmono, {}):
        entmono.locc.check_c2(alpha_entropy_spec(1.0), trials=2)
        entmono.roof.roof_estimate(density_of(maximally_entangled(2)), 2, 2, alpha_entropy_spec(1.0),
                                   restarts=1, iterations=5)
    names = [span[0] for span in tracer.spans]
    assert names.count("roof.roof_estimate") == 1 and names.count("locc.check_c2") == 1
