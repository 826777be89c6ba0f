"""Run every workload ten times and print each end-to-end metric's median and quartiles.

Usage, from the root of a checkout:

    python3 benchmark/steadiness.py

Each run is a separate ``run.py`` process, with seeds 1 to 10, run one after
another for ``run_seconds`` of ``BENCHMARK.json``.  The spread printed per
metric is (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(n=4)``; compare it with the metric's bound in
``BENCHMARK.json``.  The raw results, with the lines each run printed before
its result, go to
``benchmark/out/steadiness-<unix time>.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(1, 11)


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    *log, last = proc.stdout.strip().splitlines()
    return dict(json.loads(last), log=log)


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "unit": results[0]["metrics"][name]["unit"], "values": values}
    return out


def main() -> int:
    report = {}
    for workload in WORKLOADS:
        results = [run_once(workload, seed) for seed in SEEDS]
        failed_share = sorted({r["failed"] / r["attempted"] for r in results})
        summary = summarize(results)
        report[workload] = {"failed_share": failed_share, "metrics": summary,
                            "attempted": [r["attempted"] for r in results],
                            "logs": [r["log"] for r in results]}
        print(f"{workload}: failed share {failed_share}, all correct: "
              f"{all(r['correct'] for r in results)}")
        for name, s in summary.items():
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']}  "
                  f"Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  spread {s['spread']:.2%}")
        sys.stdout.flush()
    out = BENCH_DIR / "out" / f"steadiness-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"raw results in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
