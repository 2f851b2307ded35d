"""Run the benchmark several times and report each metric's median and spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload analyze_batch --runs 10

Run k (1-based) uses seed k, the run length of BENCHMARK.json and the
untraced mode, as the benchmark's own runs do. For every metric the script prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, which should stay below a third of BENCHMARK.json's bound. Runs are
sequential, so they do not compete for the cores they measure.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload:
        values = {}
        for seed in range(1, args.runs + 1):
            start = time.perf_counter()
            out = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {result}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f" (bound {bound}, {'ok' if spread <= bound / 3 else 'WIDE'})"
            print(f"  {workload} {name}: median {med:.6g} spread {spread:.4f}{flag}")
        summary[workload] = rows
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
