"""belldistill benchmark: one workload, one seed, end-to-end or traced metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_serial --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each one is there):

- verify_serial: ``verify.run_campaign(count, seed, jobs=1)`` then
  ``summary_text``, campaign after campaign.
- analyze_batch: ``cli.main(["analyze", in, "--output", out])`` in-process
  on a seeded stream of tables from two families.

With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run, by the names and units of
BENCHMARK.json. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The
package is imported from ``src/`` next to this directory; without it the
run fails before measuring anything.
"""

import os

#: BLAS/OpenMP pools pinned to one thread before numpy is first imported,
#: so parallel campaigns use no more threads than there are cores
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("verify_serial", "analyze_batch")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    return p.parse_args(argv)


def import_package():
    """Import belldistill from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "belldistill" / "__init__.py").is_file():
        sys.exit(f"error: no belldistill sources under {src}")
    sys.path.insert(0, str(src))
    import belldistill

    if Path(belldistill.__file__).resolve().parent != src / "belldistill":
        sys.exit(f"error: imported belldistill from {belldistill.__file__}, not {src}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    size = workloads.TINY if args.tiny else workloads.TRACED if args.trace else workloads.FULL
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "analyze_batch":
            wl = workloads.AnalyzeWorkload(args.seed, size, str(workdir))
        else:
            wl = workloads.VerifyWorkload(args.seed, size)
        print(f"belldistill benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("environment: " + json.dumps(environment()))
        print("inputs: " + json.dumps(wl.describe()))
        if args.trace:
            metrics, notes, records = workloads.traced(wl, args.seconds)
        else:
            metrics, notes, records = workloads.end_to_end(
                wl, args.seed, args.seconds, str(workdir)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(r.items for r in records)
    failed = sum(r.failed for r in records)
    print("notes: " + json.dumps(notes))
    print(f"failed_fraction = {failed / attempted!r} ({failed} of {attempted} items checked)")
    for miss in [m for r in records for m in r.misses][:20]:
        print(f"MISS: {miss}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in spec:
        print(f"  {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
