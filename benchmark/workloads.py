"""The four benchmark workloads: inputs from a seed, operations, and output checks.

A workload's ``build`` generates its inputs from a numpy Generator, writes any
files it needs into the run directory, and returns one round: the list of
operations every run repeats whole.  An operation's ``call`` is exactly one
call into entmono's public API and is the only part that is timed; its
``check`` returns the problems found in the output, an empty list when the
output is right.  Checks compare against ``oracles`` and against properties
the paper proves, never against stored output.

Operations look their function up on the entmono module at call time and
their monotone in ``ctx.specs``, so a traced run can swap in wrappers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import oracles

# Tolerances of the checks.  Outputs printed in CSV cells carry 12 significant
# digits, so CSV comparisons get CELL_TOL on top of the numerical tolerance.
MONOTONE_TOL = 1e-9        # the paper's inequalities, as check_c1 applies them
ENTROPY_TOL = 1e-10        # entmono's E_alpha against eigvalsh of the reduced state
RECONSTRUCTION_TOL = 1e-10  # certificate ensemble against rho, entrywise
ROOF_VALUE_TOL = 1e-9      # reported roof value against its members' re-evaluation
TAIL_TOL = 1e-8            # log-sum-exp tail mass against scipy.special.bdtr, the binomial CDF
EXACT_TOL = 1e-10          # small-N dilution quantities against math.comb sums
CELL_TOL = 1e-10
# Largest accepted excess of a 2x2 roof estimate over Wootters' EoF, in bits.
# roof_ceiling.py (50 states per rank, seed 100) found default-setting estimates within
# 8.8e-6 / 1.1e-4 / 2.3e-3 bits of EoF for rank 2 / 3 / 4, while the
# eigen-ensemble start the search begins from sat at least 0.012 / 0.096 /
# 0.116 bits above it.  0.02 keeps an 8x margin over the worst search result
# and still fails a search that does not move on the rank-3 and rank-4 states.
ROOF_CEILING = 0.02


@dataclass
class Op:
    group: str
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Context:
    """What operations share: the entmono package, monotone specs, run directory, notes."""

    em: object
    workdir: str
    specs: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    memo: dict = field(default_factory=dict)


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _problem_if(condition: bool, message: str) -> list:
    return [message] if condition else []


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


# ---------------------------------------------------------------- c1-screen

# 2x2, 2x6 and 4x4 calls cost about the same, 8x8 calls about a third more.
# Four of a round's five calls are of the cheaper kind, so the median
# operation lies among them.
C1_DIMS = ((2, 2), (2, 6), (4, 4), (4, 4), (8, 8))
C1_MONOTONES = ("e0", "e1", "e_alpha:0.5", "trace_fn:linear", "trace_fn:shannon")
C1_CONTROL = "control:sum_squares"
C1_TRIALS = 40
E_ALPHA_NAMES = ("e0", "e1", "e_alpha:0.5")


def _c1_call(ctx, dims, seed):
    specs = [ctx.specs[name] for name in C1_MONOTONES + (C1_CONTROL,)]
    return ctx.em.locc.check_c1(specs, trials=C1_TRIALS, dims=dims, seed=seed)


def _c1_check(ctx, dims, probes, report) -> list:
    problems = []
    names = C1_MONOTONES + (C1_CONTROL,)
    problems += _problem_if(len(report.records) != C1_TRIALS * len(names),
                            f"{len(report.records)} records, expected {C1_TRIALS} x {len(names)}")
    by_name = {name: [rec for rec in report.records if rec.monotone == name] for name in names}
    for name in C1_MONOTONES:
        worst = min((rec.margin for rec in by_name[name]), default=0.0)
        problems += _problem_if(worst < -MONOTONE_TOL, f"{name} increased on average by {-worst!r}")
    problems += _problem_if(all(rec.margin >= -MONOTONE_TOL for rec in by_name[C1_CONTROL]),
                            "the convex control was never flagged")
    problems += _problem_if(not _finite([v for rec in report.records for v in (rec.before, rec.after_avg)]),
                            "non-finite record")
    top = math.log2(min(dims))
    for name in E_ALPHA_NAMES:
        outside = [rec.before for rec in by_name[name] if not -1e-12 <= rec.before <= top + 1e-12]
        problems += _problem_if(bool(outside), f"{name} before-values outside [0, {top}]: {outside[:3]}")
    em = ctx.em
    for vec, alpha in probes:
        got = em.e_alpha(em.PureState(dims[0], dims[1], vec), alpha)
        want = oracles.entanglement_bits(vec, dims[0], dims[1], alpha)
        problems += _problem_if(not abs(got - want) <= ENTROPY_TOL,
                                f"e_alpha({alpha}) = {got!r}, eigvalsh gives {want!r}")
    return problems


def build_c1(ctx: Context, rng) -> list:
    for name in C1_MONOTONES + (C1_CONTROL,):
        ctx.specs[name] = ctx.em.monotone_by_name(name)
    ops = []
    for dims in C1_DIMS:
        seed = _seed(rng)
        probes = [(oracles.haar_vector(dims[0] * dims[1], rng), alpha)
                  for alpha in (0.0, 0.5, 1.0, float(rng.uniform(0.05, 0.95)))]
        ops.append(Op(f"check_c1 {dims[0]}x{dims[1]}", partial(_c1_call, ctx, dims, seed),
                      partial(_c1_check, ctx, dims, probes)))
    return ops


# ---------------------------------------------------------------- roof-search

ROOF_2X2_RANKS = (2, 3, 4)
ROOF_3X3_RANK = 9
C2_TRIALS = 6


def _roof_call(ctx, rho, dims, seed):
    em = ctx.em
    return em.roof.roof_estimate(em.DensityMatrix(rho.shape[0], rho), dims[0], dims[1],
                                 ctx.specs["e1"], seed=seed)


def _ensemble_problems(rho, dims, probs, vecs, value) -> list:
    """What any ensemble offered as a roof bound for rho must satisfy."""
    err = float(np.max(np.abs(oracles.ensemble_density(probs, vecs) - rho)))
    problems = _problem_if(not err <= RECONSTRUCTION_TOL, f"ensemble misses rho by {err!r}")
    again = oracles.ensemble_average(probs, vecs, dims[0], dims[1], 1.0)
    problems += _problem_if(not abs(again - value) <= ROOF_VALUE_TOL,
                            f"value {value!r} but members re-evaluate to {again!r}")
    start = oracles.eigen_ensemble_average(rho, dims[0], dims[1], 1.0)
    problems += _problem_if(not value <= start + ROOF_VALUE_TOL,
                            f"value {value!r} above the eigen-ensemble start {start!r}")
    if dims == (2, 2):
        eof = oracles.eof_two_qubit(rho)
        problems += _problem_if(not value >= eof - ROOF_VALUE_TOL,
                                f"value {value!r} below Wootters' EoF {eof!r}")
    return problems


def _roof_check(ctx, rho, dims, est) -> list:
    problems = _problem_if(any((psi.dim_a, psi.dim_b) != dims for _, psi in est.ensemble),
                           "ensemble member on the wrong dims")
    problems += _ensemble_problems(rho, dims, [p for p, _ in est.ensemble],
                                   [psi.amplitudes for _, psi in est.ensemble], est.value)
    if dims == (2, 2):
        excess = est.value - oracles.eof_two_qubit(rho)
        ctx.stats.setdefault("roof.excess_over_eof", []).append(excess)
        problems += _problem_if(not excess <= ROOF_CEILING,
                                f"value {est.value!r} lies {excess!r} above Wootters' EoF")
    return problems


def _c2_call(ctx, seed):
    return ctx.em.locc.check_c2(ctx.specs["e1"], trials=C2_TRIALS, dims=(2, 2), seed=seed)


def _c2_check(report) -> list:
    problems = _problem_if(len(report.records) != C2_TRIALS,
                           f"{len(report.records)} records, expected {C2_TRIALS}")
    problems += _problem_if(bool(report.violations), f"{len(report.violations)} C2 violations")
    problems += _problem_if(not _finite([v for rec in report.records for v in (rec.before, rec.after_avg)]),
                            "non-finite record")
    return problems


def build_roof(ctx: Context, rng) -> list:
    ctx.specs["e1"] = ctx.em.monotone_by_name("e1")
    ops = [Op("check_c2 2x2", partial(_c2_call, ctx, _seed(rng)), _c2_check)]
    shapes = [((2, 2), rank) for rank in ROOF_2X2_RANKS] + [((3, 3), ROOF_3X3_RANK)]
    for dims, rank in shapes:
        rho = oracles.wishart_density(dims[0] * dims[1], rank, rng)
        ops.append(Op(f"roof_estimate {dims[0]}x{dims[1]} rank {rank}",
                      partial(_roof_call, ctx, rho, dims, _seed(rng)),
                      partial(_roof_check, ctx, rho, dims)))
    return ops


# ---------------------------------------------------------------- dilution-curves

# (N, samples, how many of the drawn alphas).  The middle rows cost about the
# same, so the median operation lies among them.
CURVES_SMALL = (24, 25, 2)
CURVES_MID = ((10**4, 225, 2), (10**5, 41, 1), (10**5, 31, 3), (10**6, 3, 2), (3 * 10**5, 15, 1))
CURVES_LARGE = ((10**5, 101, 2), (10**6, 11, 1))
X_STAR_NS = (10**4, 10**5, 10**6)
DISCONTINUITY_NS = (10**3, 10**4, 10**5)
DISCONTINUITY_DELTA = 0.05


def _curve_call(ctx, theta, n, samples, alphas):
    em = ctx.em
    return em.dilution.entropy_curves(em.DilutionTarget(theta), n, np.linspace(0.0, 1.0, samples),
                                      alphas=alphas)


def _curve_check(theta, n, samples, alphas, curve) -> list:
    a, b = math.cos(theta) ** 2, math.sin(theta) ** 2
    xs = np.linspace(0.0, 1.0, samples)
    r = np.array([min(max(math.floor(x * n), 0), n) for x in xs])
    tail, m = np.asarray(curve.tail), np.asarray(curve.m_of_r)
    e1 = np.asarray(curve.e1_per_copy)
    per_alpha = [np.asarray(curve.e_alpha_per_copy[alpha]) for alpha in alphas]
    problems = _problem_if(not np.array_equal(curve.r_values, r), "level cutoffs differ from floor(x N)")
    problems += _problem_if(not _finite([tail, m, e1, *per_alpha]), "non-finite curve value")
    if problems:
        return problems
    dev = float(np.max(np.abs(tail - oracles.binomial_tail(r, n, b))))
    problems += _problem_if(not dev <= TAIL_TOL, f"T differs from bdtr by {dev!r}")
    problems += _problem_if(not np.allclose(curve.fidelity_paper, tail * tail, rtol=1e-12, atol=0.0),
                            "F_paper is not T^2")
    problems += _problem_if(not np.allclose(curve.fidelity_normalized, tail, rtol=1e-12, atol=0.0),
                            "F_normalized is not T")
    problems += _problem_if(bool(np.any(np.diff(tail) < -1e-12)), "T decreases in x")
    problems += _problem_if(bool(np.any(np.diff(m) < -1e-9)), "M decreases in x")
    end = {"T": tail[-1], "M/N": m[-1] / n, "e1": e1[-1]}
    want = {"T": 1.0, "M/N": 1.0, "e1": oracles.renyi_bits([a, b], 1.0)}
    for alpha, values in zip(alphas, per_alpha):
        end[f"e_alpha:{alpha:g}"] = values[-1]
        want[f"e_alpha:{alpha:g}"] = oracles.renyi_bits([a, b], alpha)
        problems += _problem_if(bool(np.any(values > m / n + 1e-9)) or bool(np.any(values < e1 - 1e-9)),
                                f"e_alpha:{alpha:g} leaves [e1, M/N]")
    for key in end:
        # T sums N + 1 log-gamma weights; the per-copy values are divided by N.
        tol = TAIL_TOL if key == "T" else 1e-9
        problems += _problem_if(not abs(end[key] - want[key]) <= tol,
                                f"at x = 1, {key} = {end[key]!r}, closed form {want[key]!r}")
    return problems


def _exact_check(theta, n, samples, alphas, curve) -> list:
    problems = _curve_check(theta, n, samples, alphas, curve)
    a, b = math.cos(theta) ** 2, math.sin(theta) ** 2
    for i, r in enumerate(curve.r_values):
        ref = oracles.exact_levels(n, int(r), a, b, alphas)
        got = {"T": curve.tail[i], "M": curve.m_of_r[i], "e1": curve.e1_per_copy[i]}
        got.update({f"e_alpha:{alpha:g}": curve.e_alpha_per_copy[alpha][i] for alpha in alphas})
        want = {"T": ref["T"], "M": ref["M"], "e1": ref["e1"]}
        want.update({f"e_alpha:{alpha:g}": ref["e_alpha"][alpha] for alpha in alphas})
        for key in got:
            if not abs(got[key] - want[key]) <= EXACT_TOL:
                problems.append(f"r = {r}: {key} = {got[key]!r}, exact sum {want[key]!r}")
    return problems


def _x_star_call(ctx, theta, n):
    em = ctx.em
    return em.dilution.x_star_finite(em.DilutionTarget(theta), n)


def _x_star_check(ctx, theta, n, x) -> list:
    b = math.sin(theta) ** 2
    lo, hi = oracles.x_star_bracket(b, n)
    problems = _problem_if(not lo - 1e-12 <= x <= hi, f"finite-N step {x!r} outside [{lo!r}, {hi!r}]")
    distances = ctx.memo.setdefault("x_star_distance", {})
    distances[n] = x - b
    wider = [m for m, d in distances.items() if m < n and not x - b < d]
    problems += _problem_if(bool(wider), f"distance to sin^2 theta at N={n} not below that at N={wider}")
    return problems


def _discontinuity_call(ctx, theta, alpha):
    em = ctx.em
    return em.dilution.discontinuity_report(em.DilutionTarget(theta), DISCONTINUITY_NS, alpha,
                                            DISCONTINUITY_DELTA)


def _discontinuity_check(theta, alpha, rows) -> list:
    b = math.sin(theta) ** 2
    x = min(b + DISCONTINUITY_DELTA, 1.0)
    single = oracles.renyi_bits([1.0 - b, b], alpha)
    problems = _problem_if(len(rows) != len(DISCONTINUITY_NS), f"{len(rows)} rows")
    for n, row in zip(DISCONTINUITY_NS, rows):
        tail = float(oracles.binomial_tail(math.floor(x * n), n, b))
        problems += _problem_if(row.n_tilde != n or not abs(row.x - x) <= 1e-12,
                                f"row for N={row.n_tilde} at x={row.x}")
        problems += _problem_if(not abs(row.fidelity_normalized - tail) <= TAIL_TOL,
                                f"N={n}: T = {row.fidelity_normalized!r}, bdtr gives {tail!r}")
        problems += _problem_if(not abs(row.fidelity_paper - tail * tail) <= TAIL_TOL,
                                f"N={n}: F_paper is not T^2")
        problems += _problem_if(not row.e_alpha >= row.e1 - MONOTONE_TOL, f"N={n}: e_alpha below e1")
        problems += _problem_if(not abs(row.gap - (single - row.e_alpha)) <= 1e-10,
                                f"N={n}: gap {row.gap!r} is not E_alpha - e_alpha")
    return problems


def build_dilution(ctx: Context, rng) -> list:
    theta = float(rng.uniform(0.3, 0.7))
    alphas = tuple(round(float(a), 3) for a in rng.uniform(0.1, 0.9, size=3))

    def curve_op(n, samples, k, check=_curve_check):
        return Op(f"entropy_curves N={n} samples={samples}",
                  partial(_curve_call, ctx, theta, n, samples, alphas[:k]),
                  partial(check, theta, n, samples, alphas[:k]))

    def x_star_op(n):
        return Op(f"x_star_finite N={n}", partial(_x_star_call, ctx, theta, n),
                  partial(_x_star_check, ctx, theta, n))

    ops = [curve_op(*CURVES_SMALL, check=_exact_check)]
    ops += [x_star_op(n) for n in X_STAR_NS[:2]]
    ops.append(Op("discontinuity_report", partial(_discontinuity_call, ctx, theta, alphas[0]),
                  partial(_discontinuity_check, theta, alphas[0])))
    ops += [curve_op(*row) for row in CURVES_MID]
    ops.append(x_star_op(X_STAR_NS[2]))
    ops += [curve_op(*row) for row in CURVES_LARGE]
    return ops


# ---------------------------------------------------------------- cli-batch

CSV_HEADERS = {
    "schmidt": "alpha,e_alpha",
    "bound": "alpha,ratio",
    "check": "trial,monotone,mu_before,mu_after_avg,margin",
}
CLI_AMPLITUDE_DIMS = ((2, 2), (4, 4), (8, 8), (16, 16), (3, 5))
CLI_CHECKS = (("e1", "4x4"), ("e1", "4x4"), ("e_alpha:0.5", "2x6"), ("e0", "4x4"),
              ("trace_fn:linear", "2x2"), (C1_CONTROL, "4x4"))
CLI_CHECK_TRIALS = 20
CLI_DILUTION_N = 10**5
CLI_DILUTION_SAMPLES = 5
CLI_ROOF_ARGS = ("--restarts", "2", "--iterations", "100")


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    csv: bytes


def _cli_call(ctx, argv, out_path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ctx.em.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    data = b""
    if out_path and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
    return CliResult(code, out.getvalue(), err.getvalue(), data)


def _rows(res: CliResult):
    return list(csv.reader(io.StringIO(res.csv.decode("utf-8"))))


def _cli_common(ctx, key, expected_code, header, res) -> list:
    """Exit code, frozen CSV header, and byte-identical CSV for identical argv and seed."""
    problems = _problem_if(res.code != expected_code,
                           f"exit {res.code}, expected {expected_code}: {res.stderr.strip()[:200]}")
    first_line = res.csv.split(b"\n", 1)[0].decode("utf-8", "replace")
    problems += _problem_if(first_line != header, f"CSV header {first_line!r}, expected {header!r}")
    digest = hashlib.sha256(res.csv).hexdigest()
    seen = ctx.memo.setdefault("csv_digest", {}).setdefault(key, digest)
    problems += _problem_if(seen != digest, "CSV differs from an earlier run of the same argv and seed")
    return problems


def _schmidt_check(ctx, key, res, *, spectrum, alphas) -> list:
    problems = _cli_common(ctx, key, 0, CSV_HEADERS["schmidt"], res)
    rows = _rows(res)[1:]
    problems += _problem_if(len(rows) != len(alphas), f"{len(rows)} rows for {len(alphas)} alphas")
    for (alpha_cell, value_cell), alpha in zip(rows, alphas):
        want = oracles.renyi_bits(spectrum, alpha)
        problems += _problem_if(not abs(float(alpha_cell) - alpha) <= CELL_TOL, f"alpha cell {alpha_cell}")
        problems += _problem_if(not abs(float(value_cell) - want) <= ENTROPY_TOL + CELL_TOL,
                                f"E_{alpha:g} cell {value_cell}, eigvalsh gives {want!r}")
    return problems


_BOUND_LINE = "conversion bound: P <= "
_YIELD_PREFIX = "average-yield bound from "


def _bound_check(ctx, key, res, *, source, target, grid, copies) -> list:
    problems = _cli_common(ctx, key, 0, CSV_HEADERS["bound"], res)
    rows = _rows(res)[1:]
    alphas = np.linspace(0.0, 1.0, grid)
    problems += _problem_if(len(rows) != grid, f"{len(rows)} rows for a grid of {grid}")
    if problems:
        return problems
    raw = np.array([oracles.renyi_bits(source, a) / oracles.renyi_bits(target, a) for a in alphas])
    cells = np.array([[float(c) for c in row] for row in rows])
    problems += _problem_if(not np.allclose(cells[:, 0], alphas, rtol=0.0, atol=CELL_TOL), "alpha column")
    ratios = cells[:, 1]
    problems += _problem_if(bool(np.any(ratios < 0.0)) or bool(np.any(ratios > 1.0)), "ratio outside [0, 1]")
    dev = float(np.max(np.abs(ratios - np.minimum(raw, 1.0))))
    problems += _problem_if(not dev <= 1e-9, f"ratios differ from the Renyi ratios by {dev!r}")
    lines = res.stdout.splitlines()
    printed = [line for line in lines if line.startswith(_BOUND_LINE)]
    best = float(np.min(np.minimum(raw, 1.0)))
    problems += _problem_if(not printed or abs(float(printed[0][len(_BOUND_LINE):].split()[0]) - best) > 6e-5,
                            f"printed bound {printed} vs min ratio {best!r}")
    avg = [line for line in lines if line.startswith(_YIELD_PREFIX)]
    want_avg = copies * float(np.min(raw))
    problems += _problem_if(not avg or abs(float(avg[0].rsplit("<=", 1)[1]) - want_avg) > 6e-5,
                            f"printed average yield {avg} vs {want_avg!r}")
    return problems


def _dilution_cli_check(ctx, key, res, *, theta, alphas) -> list:
    header = "x,r,M_of_r,T,F_paper,F_normalized,e1," + ",".join(f"e_alpha:{a:g}" for a in alphas)
    problems = _cli_common(ctx, key, 0, header, res)
    rows = _rows(res)[1:]
    problems += _problem_if(len(rows) != CLI_DILUTION_SAMPLES, f"{len(rows)} rows")
    if problems:
        return problems
    n, b = CLI_DILUTION_N, math.sin(theta) ** 2
    cells = np.array([[float(c) for c in row] for row in rows])
    x, r, m, tail, f_paper = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3], cells[:, 4]
    e1, per_alpha = cells[:, 6], cells[:, 7:]
    want_r = np.array([min(max(math.floor(v * n), 0), n) for v in np.linspace(0.0, 1.0, len(rows))])
    problems += _problem_if(not np.array_equal(r, want_r), "r column is not floor(x N)")
    dev = float(np.max(np.abs(tail - oracles.binomial_tail(want_r, n, b))))
    problems += _problem_if(not dev <= TAIL_TOL + CELL_TOL, f"T column differs from bdtr by {dev!r}")
    problems += _problem_if(not np.allclose(f_paper, tail * tail, rtol=1e-10, atol=1e-300), "F_paper is not T^2")
    problems += _problem_if(bool(np.any(per_alpha > (m / n + 1e-9)[:, None]))
                            or bool(np.any(per_alpha < (e1 - 1e-9)[:, None])), "e_alpha leaves [e1, M/N]")
    problems += _problem_if(not abs(x[-1] - 1.0) <= CELL_TOL, "last x is not 1")
    return problems


def _check_cli_check(ctx, key, res, *, name, dims) -> list:
    expected = 4 if name == C1_CONTROL else 0
    problems = _cli_common(ctx, key, expected, CSV_HEADERS["check"], res)
    rows = _rows(res)[1:]
    problems += _problem_if(len(rows) != CLI_CHECK_TRIALS, f"{len(rows)} rows")
    if problems:
        return problems
    problems += _problem_if(any(row[1] != name for row in rows), "monotone column")
    before = np.array([float(row[2]) for row in rows])
    after = np.array([float(row[3]) for row in rows])
    margin = np.array([float(row[4]) for row in rows])
    problems += _problem_if(not np.allclose(margin, before - after, rtol=0.0, atol=1e-9),
                            "margin is not mu_before - mu_after_avg")
    flagged = bool(np.any(margin < -MONOTONE_TOL))
    problems += _problem_if(flagged != (name == C1_CONTROL),
                            f"{name}: violations {'found' if flagged else 'missing'}")
    if name in E_ALPHA_NAMES:
        top = math.log2(min(dims))
        problems += _problem_if(bool(np.any(before < -CELL_TOL)) or bool(np.any(before > top + CELL_TOL)),
                                f"{name} before-values outside [0, {top}]")
    return problems


def _roof_cli_check(ctx, key, res, *, rho, cert_path) -> list:
    problems = _problem_if(res.code != 0, f"exit {res.code}: {res.stderr.strip()[:200]}")
    if problems:
        return problems
    with open(cert_path, "r", encoding="utf-8") as fh:
        cert = json.load(fh)
    probs = [float(item["probability"]) for item in cert["ensemble"]]
    vecs = [np.array([complex(re, im) for re, im in item["amplitudes"]["re_im"]])
            for item in cert["ensemble"]]
    problems += _ensemble_problems(rho, (2, 2), probs, vecs, float(cert["value"]))
    digest = hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()
    seen = ctx.memo.setdefault("cert_digest", {}).setdefault(key, digest)
    problems += _problem_if(seen != digest, "certificate differs from an earlier run of the same argv")
    return problems


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _complex_node(dim_a, dim_b, values) -> dict:
    return {"dim_a": dim_a, "dim_b": dim_b,
            "re_im": [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]}


def build_cli(ctx: Context, rng) -> list:
    wd = ctx.workdir
    ops = []

    def path(name):
        return os.path.join(wd, name)

    def cli_op(group, argv, out, check):
        # Outputs are keyed by argv without the output path: the same argv and
        # seed must give byte-identical CSV, in this round and every later one.
        key = tuple(argv)
        flag = "--certificate" if group == "roof" else "--csv"
        full = argv + [flag, out]
        ops.append(Op(group, partial(_cli_call, ctx, full, out if flag == "--csv" else None),
                      partial(check, ctx, key)))

    spectra = {}
    for da, db in CLI_AMPLITUDE_DIMS:
        vec = oracles.haar_vector(da * db, rng)
        name = f"pure_{da}x{db}.json"
        _write_json(path(name), {"label": f"haar {da}x{db}", "amplitudes": _complex_node(da, db, vec)})
        spectra[name] = oracles.reduced_spectrum(vec, da, db)
    for name, size in (("source.json", 4), ("target.json", 5)):
        values = np.sort(rng.dirichlet(np.ones(size)))[::-1]
        _write_json(path(name), {"label": name, "schmidt": [float(v) for v in values]})
        spectra[name] = values
    densities = {}
    for rank in (2, 3):
        rho = oracles.wishart_density(4, rank, rng)
        name = f"rho_rank{rank}.json"
        _write_json(path(name), {"label": f"wishart rank {rank}", "density": _complex_node(2, 2, rho)})
        densities[name] = rho

    default_alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    drawn = tuple(sorted(round(float(a), 3) for a in rng.uniform(0.05, 0.95, size=5)))
    schmidt_runs = [(f"pure_{da}x{db}.json", None) for da, db in CLI_AMPLITUDE_DIMS[:4]]
    schmidt_runs += [("pure_3x5.json", (0.0, 0.3, 0.6, 0.9, 1.0)), ("source.json", (0.0,) + drawn + (1.0,))]
    for name, alphas in schmidt_runs:
        out = path(f"schmidt_{len(ops)}.csv")
        argv = ["schmidt", path(name)]
        if alphas is not None:
            argv += ["--alphas", ",".join(f"{a:g}" for a in alphas)]
        cli_op("schmidt", argv, out, partial(_schmidt_check, spectrum=spectra[name],
                                             alphas=alphas or default_alphas))

    check_seed = _seed(rng)
    for name, dims in CLI_CHECKS:
        out = path(f"check_{len(ops)}.csv")
        argv = ["check", "--monotone", name, "--trials", str(CLI_CHECK_TRIALS), "--dims", dims,
                "--seed", str(check_seed)]
        da, db = (int(v) for v in dims.split("x"))
        cli_op("check", argv, out, partial(_check_cli_check, name=name, dims=(da, db)))
    for source, target, grid, copies in (("source.json", "target.json", 201, 1),
                                         ("pure_4x4.json", "pure_8x8.json", 201, 3),
                                         ("source.json", "target.json", 2001, 1),
                                         ("pure_2x2.json", "target.json", 2001, 10)):
        out = path(f"bound_{len(ops)}.csv")
        argv = ["bound", path(source), path(target), "--grid", str(grid), "--copies", str(copies)]
        cli_op("bound", argv, out, partial(_bound_check, source=spectra[source], target=spectra[target],
                                           grid=grid, copies=copies))

    theta = float(rng.uniform(0.3, 0.7))
    for k in (1, 2):
        out = path(f"dilution_{len(ops)}.csv")
        alphas = drawn[1:1 + k]
        argv = ["dilution", "--theta", repr(theta), "--n", str(CLI_DILUTION_N), "--samples",
                str(CLI_DILUTION_SAMPLES), "--alphas", ",".join(f"{a:g}" for a in alphas)]
        cli_op("dilution", argv, out, partial(_dilution_cli_check, theta=theta, alphas=alphas))

    for name, rho in densities.items():
        cert = path(f"certificate_{len(ops)}.json")
        argv = ["roof", path(name), *CLI_ROOF_ARGS, "--seed", str(_seed(rng))]
        cli_op("roof", argv, cert, partial(_roof_cli_check, rho=rho, cert_path=cert))
    return ops


BUILDERS = {
    "c1-screen": build_c1,
    "roof-search": build_roof,
    "dilution-curves": build_dilution,
    "cli-batch": build_cli,
}
