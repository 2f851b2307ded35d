"""Fast self-check of the benchmark: tiny inputs, every workload, both modes.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

For each workload it asserts that an untraced run prints every end-to-end
metric of BENCHMARK.json, and a traced run every per-layer metric, each by
name with its unit, on a human-readable line and in the final JSON line;
that the run is correct; and that the exact counts of two traced runs on
one seed are equal. Last, it asserts that the benchmark refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and
the benchmark's files. Takes about ten seconds.
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: per-layer metrics that are timings or ratios of timings; all others
#: are counts over whole passes of a seeded input and must repeat exactly
TIMED = ("trace.overhead_fraction", "verify.parallel_efficiency")


def run(spec, cwd, workload, trace, seed=3):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(out, metrics, label) -> dict:
    assert out.returncode == 0, f"{label}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: {set(result)}"
    assert result["correct"] and result["failed"] == 0, f"{label}: {out.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert set(result["metrics"]) == {m["name"] for m in metrics}, f"{label}: metric names"
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
        prefix = f"  {m['name']} = "
        assert any(
            line.startswith(prefix) and line.endswith(f" {m['unit']}") for line in lines
        ), f"{label}: no line for {m['name']} with unit {m['unit']}"
    return {name: got["value"] for name, got in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        check_output(run(spec, ROOT, name, 0), spec["end_to_end"], f"{name} trace 0")
        first = check_output(run(spec, ROOT, name, 1), spec["per_layer"], f"{name} trace 1")
        second = check_output(run(spec, ROOT, name, 1), spec["per_layer"], f"{name} trace 1 again")
        for metric, value in first.items():
            if metric not in TIMED and not metric.endswith("self_us"):
                assert value == second[metric], f"{name}: {metric} {value!r} != {second[metric]!r}"
        print(f"ok {name}")

    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        out = run(spec, bare, spec["workloads"][0]["name"], 0)
        assert out.returncode != 0, "benchmark ran without the package sources"
        assert '"metrics"' not in out.stdout, "benchmark printed a result without the package"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    print("ok refuses to run without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
