"""Benchmark entmono on one workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload c1-screen --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed``; entmono is imported from
the checkout's ``src/``.  Operations repeat in whole rounds until the next
round would pass ``--seconds``, and every output is checked (see
``workloads.py``).  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate,
the last line carries the per-layer metrics of the traced rounds, and the
spans go to ``benchmark/out/trace-<workload>-seed<seed>.json``.
See README.md for the metrics.
"""

import os
import sys
import time

START = time.perf_counter()
# One process and one BLAS thread: the load is single-threaded by design, and
# a second BLAS thread only adds noise on small matrices.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Set-up is timed in this many fresh processes, this one and SETUP_REPEATS - 1
# children, and the median is reported.  Each is timed from its first line to
# the end of its warm-up operation, so work that entmono caches on first use
# counts every time.
SETUP_REPEATS = 3
_CHILD_SET_UP = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                 "import run; run.set_up(sys.argv[2], int(sys.argv[3]), sys.argv[4]); "
                 "print(time.perf_counter() - t)")
MAX_PRINTED_PROBLEMS = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark one entmono workload.")
    parser.add_argument("--workload", required=True,
                        choices=("c1-screen", "roof-search", "dilution-curves", "cli-batch"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (inputs only)")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from every other round, traced")
    return parser.parse_args(argv)


def import_entmono():
    """Import entmono from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "entmono" / "__init__.py").is_file():
        sys.exit(f"error: no entmono sources under {src}")
    sys.path.insert(0, str(src))
    import entmono
    import entmono.cli

    if Path(entmono.__file__).resolve().parent != (src / "entmono").resolve():
        sys.exit(f"error: imported entmono from {entmono.__file__}, not from {src}")
    return entmono


def set_up(workload: str, seed: int, workdir):
    """Import entmono, build the workload's round in ``workdir`` and run its first operation once.

    Returns the entmono package, the workload context and the round.
    """
    em = import_entmono()
    import numpy as np

    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Context(em, str(workdir))
    ops = workloads.BUILDERS[workload](ctx, np.random.default_rng(seed))
    ops[0].call()  # warm-up, unchecked; the same operation opens every round
    return em, ctx, ops


def child_set_up_seconds(workload: str, seed: int, workdir) -> float:
    """Set-up time of a fresh interpreter, as that interpreter measures it."""
    proc = subprocess.run([sys.executable, "-c", _CHILD_SET_UP, str(BENCH_DIR), workload, str(seed),
                           str(workdir)], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_rounds(ops, seconds: float, problems: list, contexts) -> list:
    """Run whole rounds of ``ops`` until the next round would end after ``seconds``.

    Round k runs inside ``contexts[k % len(contexts)]()`` and is recorded in
    that context's phase; every context gets at least one round.  Only the
    operation calls are timed; checks run between them.  An operation that
    raises or fails its check counts as failed.
    """
    phases = [{"op_s": [], "round_s": [], "attempted": 0, "failed": 0}
              for _ in contexts]
    begin = time.perf_counter()
    rounds = 0
    while True:
        phase = phases[rounds % len(contexts)]
        total = 0.0
        with contexts[rounds % len(contexts)]():
            for op in ops:
                phase["attempted"] += 1
                t0 = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # a failed operation is reported, and the run goes on
                    phase["failed"] += 1
                    problems.append(f"{op.group}: raised {exc!r}")
                    continue
                elapsed = time.perf_counter() - t0
                phase["op_s"].append(elapsed)
                total += elapsed
                try:
                    found = op.check(result)
                except Exception as exc:  # a check that cannot read the output fails the operation
                    found = [f"check raised {exc!r}"]
                if found:
                    phase["failed"] += 1
                    problems.extend(f"{op.group}: {msg}" for msg in found)
        phase["round_s"].append(total)
        rounds += 1
        spent = time.perf_counter() - begin
        if rounds >= len(contexts) and spent + spent / rounds > seconds:
            return phases


def end_to_end(phase: dict, setup_s: float) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(phase["op_s"]) / sum(phase["op_s"]), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(phase["op_s"]), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    problems = []
    try:
        em, ctx, ops = set_up(args.workload, args.seed, workdir / "0")
        setup_s = time.perf_counter() - START

        if args.trace:
            from tracing import Tracer, layer_metrics

            # Untraced and traced rounds alternate, so machine drift during
            # the run does not enter the overhead.
            tracer = Tracer()
            phases = run_rounds(ops, args.seconds, problems,
                                (contextlib.nullcontext, lambda: tracer.active(em, ctx.specs)))
            untraced, traced = (statistics.median(p["round_s"]) for p in phases)
            metrics = layer_metrics(tracer, phases[1]["attempted"], ctx.stats)
            overhead = traced / untraced - 1.0
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "tracing_overhead": overhead, "metrics": metrics})
            print(f"tracing overhead: {overhead:+.1%} of round time (median untraced round "
                  f"{untraced:.4f} s, traced {traced:.4f} s); spans in {trace_path}")
        else:
            setup_reps = [setup_s] + [child_set_up_seconds(args.workload, args.seed, workdir / str(k))
                                      for k in range(1, SETUP_REPEATS)]
            setup_s = statistics.median(setup_reps)
            print("set-up seconds, this process first: " + ", ".join(f"{t:.4f}" for t in setup_reps))
            phases = run_rounds(ops, args.seconds, problems, (contextlib.nullcontext,))
            metrics = end_to_end(phases[0], setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"FAILED {msg}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
