"""Check the package's outputs byte for byte against a base commit, and check its reports.

    python tools/outputs.py compare BASE_ROOT HEAD_ROOT WORKDIR
    python tools/outputs.py validate WORKDIR

Both write the tables of :func:`write_tables` into WORKDIR. ``compare`` writes
every CLI and demo output of each source tree into WORKDIR/base and /head, and
exits 1 on any moved byte. ``validate`` analyzes every table with this repo's
package, then checks each report with ``validate_report`` under ``-X dev -W
error``. Package code runs only in subprocesses, with ``PYTHONPATH=<root>/src``
and one BLAS/OpenMP thread, so the script can drive any commit.
"""

import filecmp
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent

#: analyze tables in one process: python -c ANALYZE_IN_PROCESS PREFIX TABLE...
ANALYZE_IN_PROCESS = """
import contextlib, io, pathlib, sys
from belldistill.cli import main
for table in sys.argv[2:]:
    name = sys.argv[1] + pathlib.Path(table).stem
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", table, "--output", f"{name}.report.json"])
    for kind, text in (("out", out.getvalue()), ("err", err.getvalue()), ("code", f"{code}\\n")):
        pathlib.Path(f"{name}.analyze.{kind}").write_text(text)
"""

VALIDATE_REPORTS = """
import json, pathlib
from belldistill.report import validate_report
for path in sorted(pathlib.Path(".").glob("*.report.json")):
    validate_report(json.loads(path.read_text()))
"""

#: the CLI commands whose stdout ``compare`` keeps, by file name
STDOUT_RUNS = {
    "verify.txt": "verify --count 300 --seed 0",
    "verify_jobs2.txt": "verify --count 300 --seed 0 --jobs 2",
    # a last-bit move of one rare trial's residual seldom reaches the maxima
    # of 300 trials, so a longer campaign is compared as well
    "verify_3000.txt": "verify --count 3000 --seed 1",
    "sample.out": "sample --count 100 --seed 1 --output samples.json",
    "sample_npt.out": "sample --count 100 --seed 1 --npt-only --output samples_npt.json",
    "sample_1000.out": "sample --count 1000 --seed 2 --output samples_1000.json",
    "sample_npt_2000.out": "sample --count 2000 --seed 3 --npt-only --output samples_npt_2000.json",
}

#: the CLI commands ``compare`` runs on each table of tables/, keeping stdout,
#: stderr and exit code; sweep_low's finer grid brackets most thresholds
TABLE_RUNS = {
    "analyze": "analyze {table} --output {name}.report.json",
    "sweep": "sweep {table} --steps 37 --output {name}.sweep.csv",
    "sweep_low": "sweep {table} --p-min 0 --p-max 0.4 --steps 41 --output {name}.sweep_low.csv",
}


def run(root: pathlib.Path, cwd: pathlib.Path, args: list, **kwargs) -> int:
    """Exit code of ``python ARGS`` in CWD, with ROOT's package and one BLAS/OpenMP thread."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, **kwargs).returncode


def write_tables(workdir: pathlib.Path, root: pathlib.Path) -> None:
    """Write the input tables into WORKDIR/tables and WORKDIR/supports, one JSON file each.

    tables/ holds ROOT's ``sample --count 100 --seed 1``; 100 tables with 1
    to 9 Bell weights; 15 with d in {2, 4, 5}, flat and sparse in turn (the
    even-d two-block path, the exit-2 PPT report, the exit-1 refusal of NPT
    d != 3); the 24 tables (1 - t) face + t (one Bell weight off the face),
    the face being the uniform row-0 or column-0 table, at t = 1e-3 and at
    their NPT edge t = 1.733e-6; and 4 tables whose sum is off by up to
    9e-10, which analyze renormalizes. supports/ holds the 511 equal-weight
    supports: the null sections, the 24 BOUNDARY reports and exact zeros.
    """
    for family in ("tables", "supports"):
        (workdir / family).mkdir(parents=True)
    run(root, workdir, ["-m", "belldistill.cli", "sample", "--count", "100", "--seed", "1",
                        "--output", "samples.json"], stdout=subprocess.DEVNULL, check=True)
    tables = {f"tables/flat_{i:03d}": table
              for i, table in enumerate(json.loads((workdir / "samples.json").read_text()))}
    for name, seed, d, full in [(f"sparse_{s:03d}", s, 3, False) for s in range(100)] + [
        (f"dims_{i:03d}", 5000 + i, (2, 4, 5)[i % 3], i % 2 == 0) for i in range(15)
    ]:
        rng = np.random.default_rng(seed)
        size = d * d if full else rng.integers(1, d * d + 1)
        support = rng.choice(d * d, size=size, replace=False)
        c = np.zeros(d * d)
        c[support] = rng.dirichlet(np.ones(support.size))
        tables[f"tables/{name}"] = {"d": d, "c": (c / c.sum()).reshape(d, d).tolist()}
    for column, k, l in np.ndindex(2, 3, 3):
        for tag, t in (("1e-3", 1e-3), ("npt_edge", 1.733e-6)) if (k, l)[column] else ():
            c = np.zeros((3, 3))
            (c.T if column else c)[0] = 1 / 3
            c *= 1 - t
            c[k, l] += t
            face = "column" if column else "row"
            tables[f"tables/edge_{face}_{k}{l}_{tag}"] = {"d": 3, "c": c.tolist()}
    for seed in range(4):
        rng = np.random.default_rng(seed)
        c = rng.dirichlet(np.ones(9)) * (1 + rng.uniform(-9e-10, 9e-10))
        tables[f"tables/renormalized_{seed}"] = {"d": 3, "c": c.reshape(3, 3).tolist()}
    for mask in range(1, 2**9):
        c = np.array([(mask >> i) & 1 for i in range(9)], dtype=float)
        tables[f"supports/mask_{mask:03d}"] = {"d": 3, "c": (c / c.sum()).reshape(3, 3).tolist()}
    for name, table in tables.items():
        (workdir / f"{name}.json").write_text(json.dumps(table))


def table_paths(workdir: pathlib.Path, family: str) -> list:
    """WORKDIR/FAMILY's tables from an output directory: messages read alike on both sides."""
    return [f"../{family}/{p.name}" for p in sorted((workdir / family).glob("*.json"))]


def produce(root: pathlib.Path, workdir: pathlib.Path, side: str) -> None:
    """Write every CLI and demo output of the source tree ROOT into WORKDIR/SIDE."""
    out = workdir / side
    out.mkdir()
    cli = ["-m", "belldistill.cli"]
    commands = {name: cli + args.split() for name, args in STDOUT_RUNS.items()}
    commands.update({f"demo_{d.stem}.txt": [str(d)] for d in sorted((root / "demos").glob("*.py"))})
    for name, args in commands.items():
        with open(out / name, "w") as fh:
            run(root, out, args, stdout=fh, check=True)
    run(root, out, ["-c", ANALYZE_IN_PROCESS, "support_", *table_paths(workdir, "supports")],
        check=True)
    for table in table_paths(workdir, "tables"):
        name = pathlib.Path(table).stem
        for kind, args in TABLE_RUNS.items():
            args = cli + args.format(table=table, name=name).split()
            with open(out / f"{name}.{kind}.out", "w") as fh:
                with open(out / f"{name}.{kind}.err", "w") as eh:
                    code = run(root, out, args, stdout=fh, stderr=eh)
            (out / f"{name}.{kind}.code").write_text(f"{code}\n")


def _walk(a, b, path: str, moves: dict, mismatches: list) -> None:
    """Record the largest change of each moved numeric path of A -> B, and every other mismatch."""
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        if a != b:
            moves[path] = max(moves.get(path, 0.0), abs(a - b))
    elif type(a) is not type(b):
        mismatches.append(f"{path}: {type(a).__name__} -> {type(b).__name__}")
    elif isinstance(a, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key in a and key in b:
                _walk(a[key], b[key], f"{path}.{key}", moves, mismatches)
            else:
                mismatches.append(f"{path}.{key}: only in {'base' if key in a else 'head'}")
    elif isinstance(a, list):
        if len(a) != len(b):
            mismatches.append(f"{path}: length {len(a)} -> {len(b)}")
        for x, y in zip(a, b):
            _walk(x, y, f"{path}[]", moves, mismatches)
    elif a != b:
        mismatches.append(f"{path}: {a!r} -> {b!r}")


def json_moves(base: pathlib.Path, head: pathlib.Path, names: list) -> None:
    """Print what moved in the JSON files NAMES from directory BASE to HEAD.

    For each file, the largest absolute change of every numeric path that
    moved (list indices folded into []), then every non-numeric mismatch: a
    type, a length, a key, a string or a boolean. A last table takes the
    largest change per path over all the files.
    """
    overall = {}
    for name in names:
        moves, mismatches = {}, []
        try:
            a, b = (json.loads((side / name).read_text()) for side in (base, head))
        except ValueError as exc:
            print(f"== {name}: not comparable as JSON ({exc})")
            continue
        _walk(a, b, "", moves, mismatches)
        print(f"== {name}: {len(moves)} numeric paths moved, {len(mismatches)} other mismatches")
        for path, change in moves.items():
            print(f"  {path or '(root)':<44s} {change:.3e}")
            overall[path] = max(overall.get(path, 0.0), change)
        for line in mismatches:
            print(f"  mismatch {line}")
    if overall:
        print(f"== largest change per path over {len(names)} moved JSON files")
        for path, change in sorted(overall.items()):
            print(f"  {path or '(root)':<44s} {change:.3e}")


def csv_moves(base: pathlib.Path, head: pathlib.Path, names: list) -> None:
    """Print every moved cell of the CSV files NAMES from directory BASE to HEAD.

    A cell is named by its file, the p of its row (the base side's) and its
    column; a moved '#' header line is printed whole, and a file whose lines
    or cells differ in number is not compared cell by cell.
    """
    for name in names:
        a_lines, b_lines = ((side / name).read_text().splitlines() for side in (base, head))
        if len(a_lines) != len(b_lines):
            print(f"{name}: {len(a_lines)} lines -> {len(b_lines)}")
            continue
        columns = next((line for line in a_lines if not line.startswith("#")), "").split(",")
        for a, b in zip(a_lines, b_lines):
            cells_a, cells_b = a.split(","), b.split(",")
            if a == b:
                continue
            if a.startswith("#") or not len(cells_a) == len(cells_b) == len(columns):
                print(f"{name}: {a} -> {b}")
                continue
            for column, x, y in zip(columns, cells_a, cells_b):
                if x != y:
                    print(f"{name}, p={cells_a[0]}, {column}: {x} -> {y}")


def check_bytes(workdir: pathlib.Path) -> int:
    """Compare WORKDIR/base with WORKDIR/head file by file: 0 if every byte holds, else 1."""
    base, head = workdir / "base", workdir / "head"
    names = {side: {p.name for p in side.iterdir()} for side in (base, head)}
    for side, other in ((base, head), (head, base)):
        for name in sorted(names[side] - names[other]):
            print(f"only in {side.name}: {name}")
    common = sorted(names[base] & names[head])
    moved = [n for n in common if not filecmp.cmp(base / n, head / n, shallow=False)]
    for name in moved:
        print(f"moved: {name}")
    json_moves(base, head, [n for n in moved if n.endswith(".json")])
    csv_moves(base, head, [n for n in moved if n.endswith(".csv")])
    print(f"{len(common)} files compared, {len(moved)} moved")
    return int(bool(moved) or names[base] != names[head])


def validate(workdir: pathlib.Path) -> int:
    """Analyze every table in one process, validate each report in a fresh one: 0 if all hold."""
    write_tables(workdir, REPO)
    out = workdir / "reports"
    out.mkdir()
    tables = table_paths(workdir, "tables") + table_paths(workdir, "supports")
    run(REPO, out, ["-c", ANALYZE_IN_PROCESS, "", *tables], check=True)
    codes = {p.name: p.read_text() for p in out.glob("*.analyze.code")}
    # every table writes a report but an NPT one with d != 3, which exits 1
    refused = [n for n, code in codes.items() if code == "1\n" and n.startswith("dims_")]
    reports = len(list(out.glob("*.report.json")))
    if not len(tables) == len(codes) == reports + len(refused):
        print(f"analyze: {len(codes)} of {len(tables)} tables ran, {reports} reports")
        return 1
    code = run(REPO, out, ["-X", "dev", "-W", "error", "-c", VALIDATE_REPORTS])
    print(f"{reports} reports validate" if code == 0 else "a report does not validate")
    return code


def main(argv: list) -> int:
    if len(argv) == 4 and argv[0] == "compare":
        base, head, workdir = (pathlib.Path(a).resolve() for a in argv[1:])
        write_tables(workdir, head)
        produce(base, workdir, "base")
        produce(head, workdir, "head")
        return check_bytes(workdir)
    if len(argv) == 2 and argv[0] == "validate":
        return validate(pathlib.Path(argv[1]).resolve())
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
