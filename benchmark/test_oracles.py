"""Tests of the benchmark's independent oracles against known values.

Run from the root of a checkout:  python3 -m pytest benchmark -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import tracing  # noqa: E402


def bell_state() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def test_bell_state_eof_is_one():
    psi = bell_state()
    assert oracles.concurrence(np.outer(psi, psi)) == pytest.approx(1.0, abs=1e-12)
    assert oracles.eof_two_qubit(np.outer(psi, psi)) == pytest.approx(1.0, abs=1e-12)


def test_product_state_eof_is_zero():
    psi = np.kron([0.6, 0.8], [1.0, 0.0])
    assert oracles.eof_two_qubit(np.outer(psi, psi)) == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
def test_werner_concurrence_closed_form(p):
    assert oracles.concurrence(oracles.werner_state(p)) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-7)


def test_concurrence_is_local_unitary_invariant():
    rng = np.random.default_rng(3)
    rho = oracles.wishart_density(4, 2, rng)
    u = np.kron(*(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(2)))
    assert oracles.concurrence(u @ rho @ u.conj().T) == pytest.approx(oracles.concurrence(rho), abs=1e-7)


def test_pure_state_eof_is_entanglement_entropy():
    psi = np.array([math.cos(0.4), 0.0, 0.0, math.sin(0.4)])
    want = oracles.binary_entropy(math.sin(0.4) ** 2)
    assert oracles.eof_two_qubit(np.outer(psi, psi)) == pytest.approx(want, abs=1e-12)
    assert oracles.entanglement_bits(psi, 2, 2, 1.0) == pytest.approx(want, abs=1e-12)


def test_binary_entropy_at_sin_squared_pi_over_6():
    assert oracles.binary_entropy(math.sin(math.pi / 6) ** 2) == pytest.approx(0.8113, abs=5e-5)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
def test_maximally_entangled_renyi_is_log_dimension(alpha):
    psi = np.eye(3).reshape(-1) / math.sqrt(3.0)
    assert oracles.entanglement_bits(psi, 3, 3, alpha) == pytest.approx(math.log2(3.0), abs=1e-12)


def test_renyi_order_and_rectangular_reduction():
    rng = np.random.default_rng(1)
    vec = oracles.haar_vector(2 * 6, rng)
    values = [oracles.entanglement_bits(vec, 2, 6, a) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert oracles.entanglement_bits(vec, 2, 6, 0.5) == pytest.approx(
        oracles.entanglement_bits(vec.reshape(2, 6).T.reshape(-1), 6, 2, 0.5), abs=1e-12)


def test_eigen_ensemble_average_of_a_pure_state():
    psi = np.array([math.cos(0.3), 0.0, 0.0, math.sin(0.3)])
    assert oracles.eigen_ensemble_average(np.outer(psi, psi), 2, 2, 1.0) == pytest.approx(
        oracles.binary_entropy(math.sin(0.3) ** 2), abs=1e-12)


def test_exact_levels_match_the_binomial_tail():
    theta = 0.5
    a, b = math.cos(theta) ** 2, math.sin(theta) ** 2
    for r in range(0, 21, 4):
        exact = oracles.exact_levels(20, r, a, b, [0.5])
        assert exact["T"] == pytest.approx(float(oracles.binomial_tail(r, 20, b)), abs=1e-14)
    full = oracles.exact_levels(20, 20, a, b, [0.5])
    assert full["M"] == pytest.approx(20.0, abs=1e-12)
    assert full["e1"] == pytest.approx(oracles.renyi_bits([a, b], 1.0), abs=1e-12)
    assert full["e_alpha"][0.5] == pytest.approx(oracles.renyi_bits([a, b], 0.5), abs=1e-12)


def test_x_star_bracket_holds_the_brute_force_step_and_shrinks():
    b = math.sin(0.6) ** 2
    widths = []
    for n in (200, 2000):
        goal = n * oracles.binary_entropy(b)
        counts = np.cumsum([math.comb(n, l) for l in range(n + 1)], dtype=object)
        step = next(r for r in range(n + 1) if math.log2(counts[r]) >= goal) / n
        lo, hi = oracles.x_star_bracket(b, n)
        assert lo <= step <= hi
        widths.append(hi - lo)
    assert widths[1] < widths[0]


def test_oracles_do_not_import_entmono():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import oracles; "
            "print('entmono' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    leaf = tracer.leaf("monotones.g", lambda: sum(range(1000)))
    inner = tracer.span("inner", lambda: [leaf() for _ in range(3)])
    outer = tracer.span("outer", lambda: inner())
    outer()
    totals = tracer.totals()
    calls, incl, self_s, _, leaves = totals["outer"]
    assert calls == 1 and leaves == 0
    assert self_s == pytest.approx(incl - totals["inner"][1], abs=1e-12)
    assert totals["inner"][4] == 3
    assert totals["inner"][2] == pytest.approx(totals["inner"][1] - tracer.leaf_s["monotones.g"], abs=1e-12)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
