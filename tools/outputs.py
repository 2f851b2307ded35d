"""Check the package's outputs byte for byte against a base commit, and check its reports.

    python tools/outputs.py compare BASE_ROOT HEAD_ROOT WORKDIR
    python tools/outputs.py validate WORKDIR

Both write the tables of :func:`table_families` into WORKDIR, which must be
absent or empty. ``compare`` writes every CLI and demo output of each source
tree into WORKDIR/base and /head, and exits 1 on any moved byte. ``validate``
analyzes every table with this repo's package, then checks each report with
``validate_report`` under ``-X dev -W error``. Package code runs only in
subprocesses, with ``PYTHONPATH=<root>/src`` and one BLAS/OpenMP thread, so
the script can drive any commit.

Every ``analyze`` and ``sweep`` of a table runs through one :data:`DRIVER`
process per tree, which calls the tree's ``belldistill.cli.main(argv)`` once
per run with the outputs, exit code and warnings a process of its own would
have; a base tree must have that function, returning the exit code. The
``verify`` and ``sample`` runs of :data:`STDOUT_RUNS` and the demos each run as
a process of their own, which exercises ``python -m belldistill.cli``'s import
and exit.
"""

import filecmp
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent

#: run CLI commands in one process, each as its own process would:
#: python -c DRIVER < {stem: argv} as JSON, writing STEM.out, STEM.err and STEM.code
DRIVER = """
import io, json, pathlib, sys, traceback, warnings
from contextlib import redirect_stderr, redirect_stdout
from belldistill.cli import main
for stem, argv in json.load(sys.stdin).items():
    out, err = io.StringIO(), io.StringIO()
    # catch_warnings re-arms the warnings a process shows once per location
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    for kind, text in (("out", out.getvalue()), ("err", err.getvalue()), ("code", f"{code}\\n")):
        pathlib.Path(f"{stem}.{kind}").write_text(text)
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


def sparse_table(seed: int, d: int = 3, full: bool = False) -> dict:
    """Dirichlet weights on a random support of 1 to d^2 Bell weights (all d^2 if FULL), per seed."""
    rng = np.random.default_rng(seed)
    size = d * d if full else rng.integers(1, d * d + 1)
    support = rng.choice(d * d, size=size, replace=False)
    c = np.zeros(d * d)
    c[support] = rng.dirichlet(np.ones(support.size))
    return {"d": d, "c": (c / c.sum()).reshape(d, d).tolist()}


def face_table(face: str, k: int, l: int, t: float) -> dict:
    """(1 - t) face + t (Bell weight (k, l)), the face being the uniform row-0 or column-0 table."""
    c = np.zeros((3, 3))
    (c.T if face == "column" else c)[0] = 1 / 3
    c *= 1 - t
    c[k, l] += t
    return {"d": 3, "c": c.tolist()}


def support_table(mask: int) -> dict:
    """Equal weight on the Bell weights c.flat[i] whose bit i of MASK is set."""
    c = np.array([(mask >> i) & 1 for i in range(9)], dtype=float)
    return {"d": 3, "c": (c / c.sum()).reshape(3, 3).tolist()}


def renormalized_table(seed: int) -> dict:
    """Flat Dirichlet table scaled by 1 +- up to 9e-10, per seed: analyze renormalizes it."""
    rng = np.random.default_rng(seed)
    c = rng.dirichlet(np.ones(9)) * (1 + rng.uniform(-9e-10, 9e-10))
    return {"d": 3, "c": c.reshape(3, 3).tolist()}


#: the (face, k, l) of :func:`face_table` whose Bell weight (k, l) lies off the face
EDGES = [("row", k, l) for k in (1, 2) for l in range(3)]
EDGES += [("column", k, l) for k in range(3) for l in (1, 2)]


def table_families(flat: list) -> dict:
    """Every input table by its path under WORKDIR, given the tables FLAT of ``sample``.

    tables/ holds FLAT, ``sample --count 100 --seed 1``; 100 tables with 1
    to 9 Bell weights; 15 with d in {2, 4, 5}, flat and sparse in turn (the
    even-d two-block path, the exit-2 PPT report, the exit-1 refusal of NPT
    d != 3); the 24 tables (1 - t) face + t (one Bell weight off the face),
    the face being the uniform row-0 or column-0 table, at t = 1e-3 and at
    their NPT edge t = 1.733e-6; and 4 tables whose sum is off by up to
    9e-10, which analyze renormalizes. supports/ holds the 511 equal-weight
    supports: the null sections, the 24 BOUNDARY reports and exact zeros.
    """
    tables = {f"tables/flat_{i:03d}.json": table for i, table in enumerate(flat)}
    tables |= {f"tables/sparse_{s:03d}.json": sparse_table(s) for s in range(100)}
    tables |= {f"tables/dims_{i:03d}.json": sparse_table(5000 + i, (2, 4, 5)[i % 3], i % 2 == 0)
               for i in range(15)}
    tables |= {f"tables/edge_{face}_{k}{l}_{tag}.json": face_table(face, k, l, t)
               for face, k, l in EDGES for tag, t in (("1e-3", 1e-3), ("npt_edge", 1.733e-6))}
    tables |= {f"tables/renormalized_{s}.json": renormalized_table(s) for s in range(4)}
    return tables | {f"supports/mask_{m:03d}.json": support_table(m) for m in range(1, 2**9)}


def write_tables(workdir: pathlib.Path, root: pathlib.Path) -> None:
    """Write :func:`table_families` into WORKDIR, one JSON file each, FLAT by ROOT's ``sample``."""
    for family in ("tables", "supports"):
        (workdir / family).mkdir(parents=True)
    run(root, workdir, ["-m", "belldistill.cli", "sample", "--count", "100", "--seed", "1",
                        "--output", "samples.json"], stdout=subprocess.DEVNULL, check=True)
    flat = json.loads((workdir / "samples.json").read_text())
    for path, table in table_families(flat).items():
        (workdir / path).write_text(json.dumps(table))


def table_paths(workdir: pathlib.Path, family: str) -> list:
    """WORKDIR/FAMILY's tables from an output directory: messages read alike on both sides."""
    return [f"../{family}/{p.name}" for p in sorted((workdir / family).glob("*.json"))]


def table_runs(tables: list, kinds, prefix: str = "") -> dict:
    """{stem: argv} of the TABLE_RUNS KINDS on each of TABLES, its names led by PREFIX."""
    runs = {}
    for table in tables:
        name = prefix + pathlib.Path(table).stem
        for kind in kinds:
            runs[f"{name}.{kind}"] = TABLE_RUNS[kind].format(table=table, name=name).split()
    return runs


def drive(root: pathlib.Path, cwd: pathlib.Path, runs: dict) -> None:
    """Run each {stem: argv} of RUNS through ROOT's ``cli.main`` in one DRIVER process in CWD."""
    run(root, cwd, ["-c", DRIVER], input=json.dumps(runs), text=True, check=True)


def produce(root: pathlib.Path, workdir: pathlib.Path, side: str) -> None:
    """Write every CLI and demo output of the source tree ROOT into WORKDIR/SIDE."""
    out = workdir / side
    out.mkdir()
    commands = {n: ["-m", "belldistill.cli", *a.split()] for n, a in STDOUT_RUNS.items()}
    commands.update({f"demo_{d.stem}.txt": [str(d)] for d in sorted((root / "demos").glob("*.py"))})
    for name, args in commands.items():
        with open(out / name, "w") as fh:
            run(root, out, args, stdout=fh, check=True)
    drive(root, out, table_runs(table_paths(workdir, "supports"), ["analyze"], "support_")
          | table_runs(table_paths(workdir, "tables"), TABLE_RUNS))


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
    """Analyze every table through DRIVER, validate each report in a new process: 0 if all hold."""
    write_tables(workdir, REPO)
    out = workdir / "reports"
    out.mkdir()
    tables = table_paths(workdir, "tables") + table_paths(workdir, "supports")
    drive(REPO, out, table_runs(tables, ["analyze"]))
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
    if not (len(argv) == 4 and argv[0] == "compare" or len(argv) == 2 and argv[0] == "validate"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    workdir = pathlib.Path(argv[-1]).resolve()
    if workdir.is_file() or workdir.is_dir() and any(workdir.iterdir()):
        print(f"WORKDIR {workdir} is not empty: name an absent or empty one", file=sys.stderr)
        return 2
    if argv[0] == "validate":
        return validate(workdir)
    base, head = (pathlib.Path(a).resolve() for a in argv[1:3])
    write_tables(workdir, head)
    produce(base, workdir, "base")
    produce(head, workdir, "head")
    return check_bytes(workdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
