"""Span tracing for the traced benchmark run, and the per-layer metrics built on it.

Wrappers replace module attributes under the names their callers look them
up by (``entmono.locc.schmidt`` is the name ``check_c1`` calls, and
``entmono.cli.schmidt`` the one ``entmono schmidt`` calls), so nothing inside
entmono changes.  They are in place only inside ``Tracer.active``; untraced
runs never enter it.

Each wrapped call records a span: name, start, end and parent.  Monotone
evaluations (``MonotoneSpec.g`` and ``e_alpha``) run tens of thousands of
times per roof estimate, so they are counted leaves instead: their count and
time go into per-name totals and into the enclosing span's child time.  A
span's self time is its duration minus its children's, spans and leaves
alike.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
from collections import Counter
from time import perf_counter

# Per-layer metrics: name -> (unit, better).  Every metric is printed on every
# workload; a layer the workload does not reach reads 0.
LAYER_METRICS = {
    "states.schmidt_calls": ("count", "lower"),
    "states.schmidt_s": ("s", "lower"),
    "states.haar_s": ("s", "lower"),
    "monotones.g_calls": ("count", "lower"),
    "monotones.g_s": ("s", "lower"),
    "locc.random_op_s": ("s", "lower"),
    "locc.apply_unilocal_s": ("s", "lower"),
    "locc.c1_trials_per_s": ("1/s", "higher"),
    "locc.c2_trials_per_s": ("1/s", "higher"),
    "roof.estimate_s": ("s", "lower"),
    "roof.g_calls_per_estimate": ("count", "lower"),
    "roof.excess_over_eof": ("bits", "lower"),
    "conversion.bound_s": ("s", "lower"),
    "conversion.e_alpha_calls": ("count", "lower"),
    "dilution.curve_s": ("s", "lower"),
    "dilution.samples_per_s": ("1/s", "higher"),
    "dilution.x_star_finite_s": ("s", "lower"),
    "dilution.discontinuity_s": ("s", "lower"),
    "statefile.load_s": ("s", "lower"),
    "statefile.certificate_s": ("s", "lower"),
    "cli.schmidt_ms": ("ms", "lower"),
    "cli.bound_ms": ("ms", "lower"),
    "cli.dilution_ms": ("ms", "lower"),
    "cli.check_ms": ("ms", "lower"),
    "cli.roof_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
}

CLI_COMMANDS = ("schmidt", "bound", "dilution", "check", "roof")

# (module, attribute, span name, units of work read off the result).
_SPANS = [
    ("locc", "schmidt", "states.schmidt", None),
    ("locc", "random_pure_state", "states.random_pure_state", None),
    ("locc", "haar_unitary", "states.haar_unitary", None),
    ("locc", "random_unilocal_operation", "locc.random_unilocal_operation", None),
    ("locc", "apply_unilocal", "locc.apply_unilocal", None),
    ("locc", "check_c1", "locc.check_c1", lambda report: report.trials),
    ("locc", "check_c2", "locc.check_c2", lambda report: report.trials),
    ("roof", "roof_estimate", "roof.roof_estimate", None),
    ("dilution", "entropy_curves", "dilution.entropy_curves", lambda curve: curve.x_samples.size),
    ("dilution", "x_star_finite", "dilution.x_star_finite", None),
    ("dilution", "discontinuity_report", "dilution.discontinuity_report", None),
    ("cli", "schmidt", "states.schmidt", None),
    ("cli", "check_c1", "locc.check_c1", lambda report: report.trials),
    ("cli", "check_c2", "locc.check_c2", lambda report: report.trials),
    ("cli", "roof_estimate", "roof.roof_estimate", None),
    ("cli", "entropy_curves", "dilution.entropy_curves", lambda curve: curve.x_samples.size),
    ("cli", "x_star_finite", "dilution.x_star_finite", None),
    ("cli", "bound_single", "conversion.bound_single", None),
    ("cli", "bound_average_yield", "conversion.bound_average_yield", None),
    ("cli", "locally_equivalent", "conversion.locally_equivalent", None),
    ("cli", "load_state", "statefile.load_state", None),
    ("cli", "load_bipartite_density", "statefile.load_bipartite_density", None),
    ("cli", "save_certificate", "statefile.save_certificate", None),
]

_LEAVES = [
    ("cli", "e_alpha", "monotones.e_alpha@cli"),
    ("conversion", "e_alpha", "monotones.e_alpha@conversion"),
]


class Tracer:
    """In-memory span recorder.

    A span is the list [name, start, end, parent, child_s, units, leaf_calls]:
    ``parent`` indexes ``spans`` (-1 at top level), ``child_s`` is the time
    spent in wrapped children, ``units`` the work units read off the result,
    and ``leaf_calls`` the counted leaves called directly inside it.
    """

    def __init__(self):
        self.spans = []
        self.leaf_calls = Counter()
        self.leaf_s = Counter()
        self._open = []

    def span(self, name, fn, units=None):
        """Wrap ``fn`` so each call records a span; ``name`` may be a function of the arguments."""
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            label = name(*args, **kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, parent, 0.0, 0, 0]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent][4] += record[2] - record[1]
            if units is not None:
                record[5] = units(result)
            return result
        return traced

    def leaf(self, name, fn):
        """Wrap ``fn`` as a counted leaf: totals per name, time charged to the enclosing span."""
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.leaf_calls[name] += 1
                self.leaf_s[name] += elapsed
                if self._open:
                    enclosing = self.spans[self._open[-1]]
                    enclosing[4] += elapsed
                    enclosing[6] += 1
        return counted

    def counting_spec(self, spec):
        """A MonotoneSpec whose g is a counted leaf; name and normalization kept."""
        return dataclasses.replace(spec, g=self.leaf("monotones.g", spec.g))

    @contextlib.contextmanager
    def active(self, entmono, specs: dict):
        """Wrappers in place, and counting versions of ``specs``, inside the with block."""
        saved = []
        plain = dict(specs)
        try:
            for module_name, attr, span_name, units in _SPANS:
                module = getattr(entmono, module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.span(span_name, getattr(module, attr), units))
            for module_name, attr, leaf_name in _LEAVES:
                module = getattr(entmono, module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.leaf(leaf_name, getattr(module, attr)))
            cli = entmono.cli
            main, by_name = cli.main, cli.monotone_by_name
            saved += [(cli, "main", main), (cli, "monotone_by_name", by_name)]
            cli.main = self.span(lambda argv: f"cli.{argv[0]}", main)
            cli.monotone_by_name = lambda name: self.counting_spec(by_name(name))
            specs.update({name: self.counting_spec(spec) for name, spec in plain.items()})
            yield
        finally:
            specs.update(plain)
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, units, leaf calls."""
        out = {}
        for name, start, end, _, child_s, units, leaf_calls in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_s
            row[3] += units
            row[4] += leaf_calls
        return out

    def write(self, path, extra) -> None:
        """Write the spans, with times relative to the first span, and ``extra``."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [[name, start - origin, end - origin, parent]
                        for name, start, end, parent, *_ in self.spans]
        doc["leaves"] = {name: {"calls": self.leaf_calls[name], "s": self.leaf_s[name]}
                         for name in sorted(self.leaf_calls)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, n_ops: int, stats: dict) -> dict:
    """Per-layer metrics of a traced phase of ``n_ops`` top-level operations.

    ``*_calls`` and ``*_s`` are counts and self seconds per operation,
    ``*_per_s`` are work units over the inclusive time of the span that did
    them, ``cli.<command>_ms`` is the mean inclusive time of one command, and
    ``roof.excess_over_eof`` is the mean excess the roof checks recorded.
    """
    totals = tracer.totals()

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names) / n_ops

    def calls(name):
        return totals.get(name, (0,))[0]

    def rate(name):
        row = totals.get(name)
        return row[3] / row[1] if row and row[1] > 0 else 0.0

    def mean_ms(name):
        row = totals.get(name)
        return 1000.0 * row[1] / row[0] if row else 0.0

    leaf_calls = sum(tracer.leaf_calls.values())
    roof = totals.get("roof.roof_estimate")
    excess = stats.get("roof.excess_over_eof", [])
    values = {
        "states.schmidt_calls": calls("states.schmidt") / n_ops,
        "states.schmidt_s": self_s("states.schmidt"),
        "states.haar_s": self_s("states.random_pure_state", "states.haar_unitary"),
        "monotones.g_calls": leaf_calls / n_ops,
        "monotones.g_s": sum(tracer.leaf_s.values()) / n_ops,
        "locc.random_op_s": self_s("locc.random_unilocal_operation"),
        "locc.apply_unilocal_s": self_s("locc.apply_unilocal"),
        "locc.c1_trials_per_s": rate("locc.check_c1"),
        "locc.c2_trials_per_s": rate("locc.check_c2"),
        "roof.estimate_s": self_s("roof.roof_estimate"),
        "roof.g_calls_per_estimate": roof[4] / roof[0] if roof else 0.0,
        "roof.excess_over_eof": statistics.fmean(excess) if excess else 0.0,
        "conversion.bound_s": self_s("conversion.bound_single", "conversion.bound_average_yield",
                                     "conversion.locally_equivalent"),
        "conversion.e_alpha_calls": tracer.leaf_calls["monotones.e_alpha@conversion"] / n_ops,
        "dilution.curve_s": self_s("dilution.entropy_curves"),
        "dilution.samples_per_s": rate("dilution.entropy_curves"),
        "dilution.x_star_finite_s": self_s("dilution.x_star_finite"),
        "dilution.discontinuity_s": self_s("dilution.discontinuity_report"),
        "statefile.load_s": self_s("statefile.load_state", "statefile.load_bipartite_density"),
        "statefile.certificate_s": self_s("statefile.save_certificate"),
        "cli.self_s": self_s(*(f"cli.{c}" for c in CLI_COMMANDS)),
    }
    for command in CLI_COMMANDS:
        values[f"cli.{command}_ms"] = mean_ms(f"cli.{command}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}
