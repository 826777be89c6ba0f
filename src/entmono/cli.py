"""Command-line front end: schmidt, bound, dilution, check, roof.

Numeric CSV cells carry 12 significant digits (``'%.12g' % value``);
human-readable summaries are printed at 4 digits.  ``main`` builds its
argument parser once per process and reads the default seed from the
ENTMONO_SEED environment variable (0 when unset) on every call.  Exit codes:
0 success, 1 standard output closed by its reader
(``entmono bound A B | head -1``), 2 parse error or an input or output file
that cannot be read or written, 3 precondition violation, 4 property-check
failure.  A command writes its files before it prints, and a failure prints
no result.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain

import numpy as np

from . import __version__
from .conversion import bound_average_yield, bound_single, locally_equivalent
from .dilution import DilutionTarget, entropy_curves, x_star_finite
from .locc import check_c1, check_c2
from .monotones import e_alpha, monotone_by_name
from .roof import roof_estimate
from .statefile import (
    StateFileError,
    load_bipartite_density,
    load_state,
    save_certificate,
)
from .states import PureState, SchmidtSpectrum, schmidt

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_PROPERTY = 4

SEED_ENV_VAR = "ENTMONO_SEED"


def _csv(path, header, rows) -> str:
    """The CSV text if ``path`` is '-' (standard output), else '' once it is written to ``path``.

    A ``str`` cell is written as it is and any other cell as ``'%.12g' % value``.
    The first row's cell kinds give the format of every row, so each column
    holds one kind, and the whole table is formatted with one ``%``.  Commands
    write their files before they print anything, so an unwritable path ends a
    command before any result reaches standard output.
    """
    rows = list(rows)
    first = rows[0] if rows else ()
    row_format = ",".join("%s" if isinstance(cell, str) else "%.12g" for cell in first) + "\n"
    text = ",".join(header) + "\n" + (row_format * len(rows)) % tuple(chain.from_iterable(rows))
    if path == "-":
        return text
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise StateFileError(f"{path}: cannot write file: {exc}") from exc
    return ""


def _float(text: str) -> float:
    """float(text), with -0.0 read as 0.0 so that an echoed value never prints as -0."""
    return float(text) + 0.0


def _parse_alphas(text: str):
    try:
        alphas = [_float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise StateFileError(f"cannot parse alpha list {text!r}: {exc}") from exc
    if not alphas:
        raise StateFileError(f"empty alpha list {text!r}")
    return alphas


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(text)
    except ValueError as exc:
        raise StateFileError(f"cannot parse {SEED_ENV_VAR}={text!r} as an integer seed") from exc


def _spectrum_from_file(path) -> SchmidtSpectrum:
    loaded = load_state(path)
    if isinstance(loaded, PureState):
        return schmidt(loaded)[0]
    return loaded


def cmd_schmidt(args) -> int:
    spectrum = _spectrum_from_file(args.state)
    alphas = _parse_alphas(args.alphas)
    values = e_alpha(spectrum, alphas)
    csv = _csv(args.csv, ["alpha", "e_alpha"], zip(alphas, values)) if args.csv else ""
    print("schmidt spectrum:", " ".join(f"{v:.4f}" for v in spectrum.values))
    for alpha, value in zip(alphas, values):
        print(f"E_{alpha:g} = {value:.4f}")
    sys.stdout.write(csv)
    return EXIT_OK


def cmd_bound(args) -> int:
    source = _spectrum_from_file(args.source)
    target = _spectrum_from_file(args.target)
    grid = np.linspace(0.0, 1.0, args.grid)
    bound = bound_single(source, target, grid)
    equivalent = locally_equivalent(source, target, tol=args.equiv_tol)
    avg = bound_average_yield(source, target, args.copies, grid)
    csv = _csv(args.csv, ["alpha", "ratio"], bound.per_alpha_curve) if args.csv else ""
    print(f"locally equivalent (tol {args.equiv_tol:g}): {'yes' if equivalent else 'no'}")
    print(f"conversion bound: P <= {bound.value:.4f} (minimizing alpha {bound.minimizing_alpha:g})")
    if args.copies > 1:
        print(f"same bound holds for {args.copies} copies -> {args.copies} copies")
    print(f"average-yield bound from {args.copies} copies: <N> <= {avg:.4f}")
    sys.stdout.write(csv)
    return EXIT_OK


def cmd_dilution(args) -> int:
    target = DilutionTarget(args.theta)
    alphas = _parse_alphas(args.alphas)
    xs = np.linspace(0.0, 1.0, args.samples)
    curve = entropy_curves(target, args.n, xs, alphas=alphas)
    step = x_star_finite(target, args.n)
    header = ["x", "r", "M_of_r", "T", "F_paper", "F_normalized", "e1"]
    # an order that ``:g`` would round is named in full, so distinct orders get distinct columns
    header += [f"e_alpha:{alpha:g}" if float(f"{alpha:g}") == alpha else f"e_alpha:{alpha!r}"
               for alpha in alphas]
    columns = [curve.x_samples, curve.r_values, curve.m_of_r, curve.tail, curve.fidelity_paper,
               curve.fidelity_normalized, curve.e1_per_copy]
    columns += [curve.e_alpha_per_copy[alpha] for alpha in alphas]
    csv = _csv(args.csv or "-", header, zip(*columns))
    print(
        f"theta={args.theta:.4f} (a={target.a:.4f}, b={target.b:.4f}), N={args.n}, "
        f"x*={curve.x_star:.4f}, finite-N x*={step:.4f}"
    )
    print(f"E_1 per copy of the target: {target.entanglement(1.0):.4f}")
    sys.stdout.write(csv)
    return EXIT_OK


def cmd_check(args) -> int:
    spec = monotone_by_name(args.monotone)
    dims = _parse_dims(args.dims)
    if args.condition == "c1":
        trials = 1000 if args.trials is None else args.trials
        report = check_c1(spec, trials=trials, dims=dims, seed=args.seed)
    else:
        # each c2 trial runs a roof search, so the default is far smaller
        trials = 50 if args.trials is None else args.trials
        report = check_c2(spec, trials=trials, dims=dims, seed=args.seed)
    rows = [(rec.trial, rec.monotone, rec.before, rec.after_avg, rec.margin) for rec in report.records]
    header = ["trial", "monotone", "mu_before", "mu_after_avg", "margin"]
    csv = _csv(args.csv, header, rows) if args.csv else ""
    for line in report.summary_lines():
        print(line)
    sys.stdout.write(csv)
    return EXIT_OK if not report.violations else EXIT_PROPERTY


def cmd_roof(args) -> int:
    rho, dim_a, dim_b = load_bipartite_density(args.state)
    spec = monotone_by_name(args.monotone)
    estimate = roof_estimate(
        rho, dim_a, dim_b, spec,
        m=args.m, restarts=args.restarts, iterations=args.iterations, seed=args.seed,
    )
    if args.certificate:
        save_certificate(args.certificate, estimate, spec.name)
    print(f"roof upper bound ({spec.name}): {estimate.value:.4f}")
    print(
        f"ensemble size {len(estimate.ensemble)} (cap m={estimate.m}), "
        f"restarts {estimate.restarts}, converged: {'yes' if estimate.converged else 'no'}"
    )
    print("note: the value is an upper bound on the convex roof, not a certified minimum")
    if args.certificate:
        print(f"certificate written to {args.certificate}")
    return EXIT_OK


def _parse_dims(text: str):
    try:
        parts = text.lower().split("x")
        if len(parts) != 2:
            raise ValueError("expected the form AxB, e.g. 4x4")
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise StateFileError(f"cannot parse dims {text!r}: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every ``main`` call; callers must not change it.

    It holds no per-call state: the seed default is None and ``main`` resolves
    it from ENTMONO_SEED on each call, and each command's ``func`` is looked
    up once here.
    """
    parser = argparse.ArgumentParser(
        prog="entmono",
        description="Entanglement monotones for bipartite pure states",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="Schmidt spectrum and E_alpha table of a state file")
    p.add_argument("state", help="state file (amplitudes or schmidt JSON)")
    p.add_argument("--alphas", default="0,0.25,0.5,0.75,1", help="comma-separated alpha values")
    p.add_argument("--csv", help="write an alpha,e_alpha CSV to this path ('-' for stdout)")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("bound", help="conversion-probability bound between two states")
    p.add_argument("source", help="source state file")
    p.add_argument("target", help="target state file")
    p.add_argument("--copies", type=int, default=1, help="copy count for the average-yield bound")
    p.add_argument("--grid", type=int, default=201, help="number of alpha grid points")
    p.add_argument("--equiv-tol", type=_float, default=1e-9,
                   help="tolerance for the local-equivalence test (raise for rounded spectra)")
    p.add_argument("--csv", help="write the alpha,ratio curve CSV to this path")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("dilution", help="truncation curves of a diluted two-term target")
    p.add_argument("--theta", type=float, required=True, help="target angle in (0, pi/4)")
    p.add_argument("--n", type=int, required=True, help="copy count N")
    p.add_argument("--alphas", default="0.5", help="comma-separated alpha values")
    p.add_argument("--samples", type=int, default=101, help="number of x samples on [0, 1]")
    p.add_argument("--csv", help="write the curve CSV to this path (default: stdout)")
    p.set_defaults(func=cmd_dilution)

    p = sub.add_parser("check", help="Monte-Carlo monotonicity screen (C1/C2)")
    p.add_argument("--monotone", default="e1",
                   help="monotone name: e0, e1, e_alpha:<v>, trace_fn:<builtin>")
    p.add_argument("--condition", choices=("c1", "c2"), default="c1")
    p.add_argument("--trials", type=int, default=None,
                   help="trial count (default 1000 for c1, 50 for c2)")
    p.add_argument("--dims", default="4x4", help="bipartite dimensions, e.g. 4x4")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", help="write per-trial records CSV to this path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("roof", help="convex-roof upper bound for a mixed state")
    p.add_argument("state", help="state or density file")
    p.add_argument("--monotone", default="e1")
    p.add_argument("--m", type=int, default=None, help="ensemble size cap (default rank + 2)")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iterations", type=int, default=600)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--certificate", help="write the realizing ensemble JSON to this path")
    p.set_defaults(func=cmd_roof)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows up here, not at exit
        return code
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: send what is still buffered to
        # devnull, so that the flush at exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
