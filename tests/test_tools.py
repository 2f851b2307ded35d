"""tools/outputs.py: its move printers, its byte check and its table writer."""

import ast
import collections
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
_spec = importlib.util.spec_from_file_location("outputs", TOOL)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def make_trees(tmp_path, files):
    """WORKDIR with base/ and head/ holding ``files``: name -> (base text, head text)."""
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    for name, texts in files.items():
        for side, text in zip(("base", "head"), texts):
            if text is not None:
                (tmp_path / side / name).write_text(text)
    return tmp_path


def test_json_moves_name_each_kind_of_move(tmp_path, capsys):
    base = {"a": {"x": 1.0, "y": [1.0, 2.0, 3.0]}, "t": 1.0, "gone": 0, "s": "NPT"}
    head = {"a": {"x": 1.5, "y": [1.0, 2.25]}, "t": "1.0", "s": "NPT", "new": False}
    other = ({"a": {"x": 0.0}}, {"a": {"x": 0.125}})
    trees = make_trees(tmp_path, {
        "r.json": (json.dumps(base), json.dumps(head)),
        "s.json": tuple(json.dumps(x) for x in other),
        "t.json": ("{", "{}"),
    })
    outputs.json_moves(trees / "base", trees / "head", ["r.json", "s.json", "t.json"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:7] == [
        "== r.json: 2 numeric paths moved, 4 other mismatches",
        f"  {'.a.x':<44s} 5.000e-01",
        f"  {'.a.y[]':<44s} 2.500e-01",
        "  mismatch .a.y: length 3 -> 2",
        "  mismatch .t: float -> str",
        "  mismatch .gone: only in base",
        "  mismatch .new: only in head",
    ]
    assert lines[7:9] == [
        "== s.json: 1 numeric paths moved, 0 other mismatches",
        f"  {'.a.x':<44s} 1.250e-01",
    ]
    assert lines[9].startswith("== t.json: not comparable as JSON (")
    # the largest change per path over all the files
    assert lines[10:] == [
        "== largest change per path over 3 moved JSON files",
        f"  {'.a.x':<44s} 5.000e-01",
        f"  {'.a.y[]':<44s} 2.500e-01",
    ]


def test_csv_moves_name_each_moved_cell_and_header(tmp_path, capsys):
    base = "# p_rho_max=0.75\np,value,flag\n0,-0.25,npt\n0.5,0.125,ppt\n"
    head = "# p_rho_max=0.7500000000000001\np,value,flag\n0,-0.25,npt\n0.5,0.25,boundary\n"
    trees = make_trees(tmp_path, {
        "a.csv": (base, head),
        "b.csv": (base, base + "1,0.5,ppt\n"),
        "c.csv": (base, base.replace("0.5,0.125,ppt", "0.5,0.125")),
    })
    outputs.csv_moves(trees / "base", trees / "head", ["a.csv", "b.csv", "c.csv"])
    assert capsys.readouterr().out.splitlines() == [
        "a.csv: # p_rho_max=0.75 -> # p_rho_max=0.7500000000000001",
        "a.csv, p=0.5, value: 0.125 -> 0.25",
        "a.csv, p=0.5, flag: ppt -> boundary",
        "b.csv: 4 lines -> 5",
        "c.csv: 0.5,0.125,ppt -> 0.5,0.125",
    ]


def test_check_bytes_exits_1_and_names_the_moved_file(tmp_path, capsys):
    trees = make_trees(tmp_path, {
        "verify.txt": ("max residual 1e-16\n", "max residual 1e-16\n"),
        "x.report.json": ('{"q": 0.5}', '{"q": 0.25}'),
        "x.analyze.code": ("0\n", "0\n"),
    })
    assert outputs.check_bytes(trees) == 1
    out = capsys.readouterr().out
    assert "moved: x.report.json\n" in out and "moved: verify.txt" not in out
    assert out.endswith("3 files compared, 1 moved\n")


def test_check_bytes_names_a_file_on_one_side_only(tmp_path, capsys):
    trees = make_trees(tmp_path, {"a.txt": ("1\n", "1\n"), "b.txt": (None, "2\n")})
    assert outputs.check_bytes(trees) == 1
    assert "only in head: b.txt\n" in capsys.readouterr().out
    (trees / "base" / "b.txt").write_text("2\n")
    assert outputs.check_bytes(trees) == 0


def test_table_writer_writes_each_family_with_the_same_bytes_twice(tmp_path):
    families = []
    for run in ("first", "second"):
        outputs.write_tables(tmp_path / run, outputs.REPO)
        families.append({
            family: {p.name: p.read_bytes() for p in (tmp_path / run / family).iterdir()}
            for family in ("tables", "supports")
        })
    assert families[0] == families[1]
    tables = families[0]["tables"]
    assert collections.Counter(name.split("_")[0] for name in tables) == {
        "flat": 100, "sparse": 100, "dims": 15, "edge": 24, "renormalized": 4,
    }
    assert sorted(families[0]["supports"]) == [f"mask_{m:03d}.json" for m in range(1, 512)]
    for name, text in tables.items():
        table = json.loads(text)
        total = sum(sum(row) for row in table["c"])
        assert table["d"] == len(table["c"]) and (2 <= table["d"] <= 5)
        if name.startswith("renormalized_"):
            assert 0 < abs(total - 1) <= 1e-9, name
        else:
            assert abs(total - 1) <= 1e-12, name


def test_validate_passes_on_this_tree(tmp_path, capsys):
    assert outputs.validate(tmp_path / "validate") == 0
    assert capsys.readouterr().out.endswith(" reports validate\n")


def test_tool_imports_nothing_from_the_package():
    # the package runs only in subprocesses, so the tool can drive any commit
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "belldistill"]


@pytest.mark.parametrize("argv", [[], ["compare", "a", "b"], ["validate"], ["frobnicate", "x"]])
def test_usage_errors_exit_2(argv, capsys):
    assert outputs.main(argv) == 2
    assert "tools/outputs.py compare" in capsys.readouterr().err
