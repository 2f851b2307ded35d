import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from belldistill.cli import main
from belldistill.report import validate_report
from belldistill.simplex import SimplexCoefficients, classify, pt_block

from conftest import outputs


def write_input(tmp_path, table, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(table) + "\n", encoding="utf-8")
    return path


PURE = {"d": 3, "c": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}
UNIFORM = {"d": 3, "c": [[1 / 9] * 3] * 3}
PURE_D2 = {"d": 2, "c": [[1, 0], [0, 0]]}
# isotropic qudit pair at fidelity 1/2 > 1/4, hence NPT
NPT_D4 = {"d": 4, "c": [[0.5] + [0.5 / 15] * 3] + [[0.5 / 15] * 4] * 3}


# ---------------------------------------------------------------- analyze

def test_analyze_pure_bell(tmp_path, capsys):
    inp = write_input(tmp_path, PURE)
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    validate_report(report)
    assert abs(report["classification"]["lambda_min"] - (-1 / 3)) < 1e-12
    assert abs(report["witness"]["mu0"] - 1 / np.sqrt(2)) < 1e-12
    assert abs(report["filter"]["q"] - 2 / 3) < 1e-10


def test_analyze_ppt_exits_2_but_writes(tmp_path):
    inp = write_input(tmp_path, UNIFORM)
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["classification"]["classification"] == "PPT"
    assert report["reason"] is not None
    assert report["witness"] is None


def test_analyze_boundary_exits_2(tmp_path):
    # isotropic family at the NPT boundary p = 3/4
    boundary = {"d": 3, "c": [[1 / 3] + [1 / 12] * 2] + [[1 / 12] * 3] * 2}
    inp = write_input(tmp_path, boundary)
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["classification"]["classification"] == "BOUNDARY"
    assert "boundary" in report["reason"]


# B_0's ground eigenvalue sits just inside the BOUNDARY_TOL band, while the
# other blocks' copies of it, 4e-16 lower, fall outside; one verdict must hold
BOUNDARY_EDGE = {"d": 3, "c": [
    [0.08924565108963865, 0.12220263900906579, 0.025195110245930886],
    [0.023493500037076984, 0.0766719044370491, 0.18142294773353887],
    [0.08862962591869868, 0.09655858805976836, 0.2965800334692327],
]}


def test_analyze_boundary_edge_table_exits_2(tmp_path, capsys):
    inp = write_input(tmp_path, BOUNDARY_EDGE)
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 2
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["classification"]["classification"] == "BOUNDARY"
    assert report["witness"] is None


@pytest.mark.parametrize("face", ["row", "column"])
@pytest.mark.parametrize("t", [1e-3, 1e-6, 1e-9, 1e-11, 3.1e-12])
def test_face_families_keep_full_report(tmp_path, face, t):
    # (1 - t) face + t (pure Bell): lambda_min = -t/3, so these tables stay NPT
    # down to the BOUNDARY_TOL edge near t = 3e-12; B_0's relative gap is 2
    # along the whole family
    table = outputs.face_table(face, 0, 0, t)
    inp = write_input(tmp_path, table)
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["classification"]["classification"] == "NPT"
    assert abs(report["classification"]["lambda_min"] + t / 3) <= 1e-16
    assert report["witness"] is not None and report["filter"] is not None
    gap = np.linalg.eigvalsh(pt_block(SimplexCoefficients(3, np.array(table["c"])), 0))
    assert abs((gap[1] - gap[0]) / abs(gap[0]) - 2.0) <= 1e-4


@pytest.mark.parametrize("face", ["row", "column"])
def test_face_families_reach_boundary(tmp_path, face):
    inp = write_input(tmp_path, outputs.face_table(face, 0, 0, 3e-12))
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 2
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["classification"]["classification"] == "BOUNDARY"
    assert report["witness"] is None and report["filter"] is None


def test_analyze_renormalizes_near_one(tmp_path):
    table = {"d": 3, "c": [[0.9999999999, 0, 0], [0, 0, 0], [0, 0, 0]]}
    inp = write_input(tmp_path, table)
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["renormalized"] is True


@pytest.mark.parametrize("table", [
    {"d": 3, "c": [[0.9, 0, 0], [0, 0, 0], [0, 0, 0]]},
    {"d": 3, "c": [[1.1, -0.1, 0], [0, 0, 0], [0, 0, 0]]},
    {"d": 2, "c": [["0.5", "0"], ["0.5", "0"]]},
    {"d": 1, "c": [[1.0]]},
])
def test_analyze_invalid_table_exits_1(
    tmp_path, table
):
    inp = write_input(tmp_path, table)
    assert main(["analyze", str(inp), "--output", str(tmp_path / "r.json")]) == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_input_exits_1(tmp_path, capsys, command, literal):
    # Python's json module reads these literals as floats; the table must refuse them
    inp = tmp_path / "in.json"
    inp.write_text(
        '{"d": 3, "c": [[0.5, %s, 0], [0, 0, 0], [0, 0, 0.5]]}' % literal, encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main([command, str(inp), "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: bad input: ") and "non-finite" in err


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_bad_sum_is_printed_as_a_plain_float(tmp_path, capsys, command):
    inp = write_input(tmp_path, {"d": 3, "c": [[0.5, 0.5, 0.5], [0, 0, 0], [0, 0, 0]]})
    assert main([command, str(inp), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: bad input: coefficients sum to 1.5, not 1\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("row, message", [
    ("[1e308, 1e308, 1e308]", "coefficient table entries are too large to sum"),
    ("[Infinity, -Infinity, 0]", "coefficient table contains non-finite entries"),
])
def test_table_refused_before_its_sum_warns(tmp_path, capsys, command, row, message):
    # numpy's sum of either first row warns (overflow, invalid value); under
    # warnings-as-errors that was a traceback, and must be a clean exit 1
    inp = tmp_path / "in.json"
    inp.write_text('{"d": 3, "c": [%s, [0, 0, 0], [0, 0, 0]]}' % row, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(inp), "--output", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: bad input: {message}\n"


@pytest.mark.parametrize("command, what", [
    ("analyze", "report"),
    ("sweep", "sweep"),
    ("sample", "samples"),
])
def test_unwritable_output_exits_1(tmp_path, capsys, command, what):
    # the output path lies inside a directory that does not exist
    out = tmp_path / "missing" / "out"
    argv = [command] + [str(write_input(tmp_path, PURE))] * (command != "sample")
    assert main(argv + ["--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {what}: ")
    assert not out.parent.exists()


def test_analyze_malformed_json_exits_1(tmp_path):
    inp = tmp_path / "bad.json"
    inp.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(inp), "--output", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_deeply_nested_json_exits_1(tmp_path, capsys, command):
    # json.load raises RecursionError on deep nesting; it must read as bad input
    inp = tmp_path / "deep.json"
    inp.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(inp), "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: bad input: ") and "nested too deeply" in err


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_table_nested_beyond_numpy_dimensions_exits_1(tmp_path, capsys, command):
    # json.load reads 70 levels, but numpy iterates at most 32 dimensions
    table = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    for _ in range(70):
        table = [table]
    inp = tmp_path / "deep.json"
    inp.write_text(json.dumps({"d": 3, "c": table}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(inp), "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: bad input: coefficient table is not numeric")


def test_analyze_missing_file_exits_1(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("table", [PURE_D2, NPT_D4], ids=["d2_pure_bell", "d4_npt"])
def test_npt_table_with_d_not_3_exits_1(tmp_path, capsys, command, table):
    # the witness construction is specific to d = 3: a clean error, no traceback
    inp = write_input(tmp_path, table)
    assert main([command, str(inp), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "d=3" in err


def test_analyze_ppt_d2_exits_2_but_writes(tmp_path):
    inp = write_input(tmp_path, {"d": 2, "c": [[0.25, 0.25], [0.25, 0.25]]})
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 2
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["classification"]["classification"] == "PPT"
    assert report["witness"] is None


# ----------------------------------------------------------------- verify

def test_verify_small_campaign(capsys):
    assert main(["verify", "--count", "25", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "failures      : 0" in out
    assert out.endswith("PASS\n")


def test_verify_byte_identical_summaries(capsys):
    main(["verify", "--count", "15", "--seed", "4"])
    first = capsys.readouterr().out
    main(["verify", "--count", "15", "--seed", "4"])
    second = capsys.readouterr().out
    assert first.encode() == second.encode()


def test_verify_jobs_do_not_change_output(capsys):
    main(["verify", "--count", "12", "--seed", "8"])
    serial = capsys.readouterr().out
    main(["verify", "--count", "12", "--seed", "8", "--jobs", "2"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_verify_count_zero_is_usage_error():
    assert main(["verify", "--count", "0"]) == 1


def test_verify_failure_exits_1_and_dumps_seed(monkeypatch, capsys):
    # exercise the failure path without breaking the math: inject a canned
    # campaign carrying one failed trial
    from belldistill import cli
    from belldistill.verify import CampaignResult, TrialResult, RESIDUAL_KEYS

    failed = TrialResult(seed=123456, coefficients=np.full((3, 3), 1 / 9))
    failed.failures.append("eigenvector_property: residual 1.0e-02")
    canned = CampaignResult(
        count=1, master_seed=9, failed_trials=[failed],
        residual_max={k: 0.0 for k in RESIDUAL_KEYS},
    )
    monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: canned)
    assert main(["verify", "--count", "1", "--seed", "9"]) == 1
    out = capsys.readouterr().out
    assert "FAILED trial seed 123456" in out
    assert "eigenvector_property" in out
    assert out.endswith("FAIL\n")


def test_verify_records_package_error_as_failed_trial(monkeypatch, capsys):
    # a construction that goes wrong on one trial fails that trial's battery,
    # named by its seed and table, while the campaign runs the others to the end
    from belldistill import verify
    from belldistill.simplex import sample_npt

    bad_seed = verify.trial_seeds(5, 4)[2]
    bad_coeffs, bad_report = sample_npt(bad_seed)
    bad_table = bad_coeffs.c
    bad_spectrum = bad_report.eigenvalues
    construct = verify.construct_witness_vector

    def construct_failing_on_bad_seed(spectrum):
        wc = construct(spectrum)
        if np.array_equal(spectrum.eigenvalues, bad_spectrum):
            # phi with weight 1e-3 outside its frame
            mu = wc.schmidt_coefficients + [0.0, 0.0, 1e-3]
            return dataclasses.replace(wc, schmidt_coefficients=mu)
        return wc

    monkeypatch.setattr(verify, "construct_witness_vector", construct_failing_on_bad_seed)
    assert main(["verify", "--count", "4", "--seed", "5", "--jobs", "1"]) == 1
    out = capsys.readouterr().out
    assert "failures      : 1" in out
    assert f"FAILED trial seed {bad_seed}\n    coefficients:\n" in out
    assert repr(float(bad_table[0, 0])) in out
    assert "    schmidt_rank_2: residual 1.414e-03\n" in out
    assert out.endswith("FAIL\n")


def test_verify_lets_sampling_exhaustion_through(monkeypatch):
    # no seed reaches a give-up, so a trial never catches one: it ends the
    # campaign as any package error does, and every failed trial has a table
    from belldistill import verify
    from belldistill.simplex import SamplingExhaustedError, sample_npt

    bad_seed = verify.trial_seeds(5, 3)[1]

    def sample_exhausted_on_bad_seed(seed, *args, **kwargs):
        if seed == bad_seed:
            raise SamplingExhaustedError("no NPT sample within 1000 tries")
        return sample_npt(seed, *args, **kwargs)

    monkeypatch.setattr(verify, "sample_npt", sample_exhausted_on_bad_seed)
    with pytest.raises(SamplingExhaustedError, match="within 1000 tries"):
        verify.run_campaign(3, 5, jobs=1)


# ------------------------------------------------------------------ sweep

def test_sweep_pure_bell(tmp_path):
    inp = write_input(tmp_path, PURE)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(inp), "--p-min", "0", "--p-max", "1",
                 "--steps", "21", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# p_rho_max = 0.75")
    assert lines[1].startswith("# p_sigma_max = 0.666666666666")
    assert lines[2] == "p,witness_value,detected,sigma_npt"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 21
    ps = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    detected = [r[2] == "true" for r in rows]
    # detection flips off at the 3/4 threshold within one grid step
    for p, flag in zip(ps, detected):
        if p <= 0.70:
            assert flag
        if p >= 0.80:
            assert not flag
    # witness value is affine in p
    fit = np.polyfit(ps, values, 1)
    residual = np.abs(np.polyval(fit, ps) - values).max()
    assert residual <= 1e-10


def test_sweep_sigma_column(tmp_path):
    inp = write_input(tmp_path, PURE)
    out = tmp_path / "sweep.csv"
    main(["sweep", str(inp), "--p-min", "0", "--p-max", "1",
          "--steps", "21", "--output", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    for row in rows:
        p, sigma_npt = float(row[0]), row[3] == "true"
        if p <= 2 / 3 - 0.05:
            assert sigma_npt
        if p >= 2 / 3 + 0.05:
            assert not sigma_npt


@pytest.mark.parametrize("steps, cells", [
    (["--steps", "37"], {("0.75", "detected"), ("0.6666666666666666", "sigma_npt")}),
    ([], {("0.75", "detected")}),
])
def test_sweep_flags_read_boundary_at_a_threshold(tmp_path, steps, cells):
    # the pure Bell table's thresholds are 3/4 and 2/3 up to rounding; each
    # flag is simplex.verdict of its value, so a grid point on a threshold
    # reads boundary in that family's column and no other cell does
    inp = write_input(tmp_path, PURE)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(inp), "--output", str(out)] + steps) == 0
    header, *rows = out.read_text().splitlines()[2:]
    columns = header.split(",")
    found = set()
    for row in rows:
        fields = row.split(",")
        assert {fields[2], fields[3]} <= {"true", "false", "boundary"}
        found |= {(fields[0], columns[i]) for i in (2, 3) if fields[i] == "boundary"}
    assert found == cells


def test_sweep_bad_range_exits_1(tmp_path):
    inp = write_input(tmp_path, PURE)
    out = tmp_path / "s.csv"
    assert main(["sweep", str(inp), "--p-min", "0.5", "--p-max", "0.5",
                 "--steps", "5", "--output", str(out)]) == 1
    assert main(["sweep", str(inp), "--p-min", "0", "--p-max", "1",
                 "--steps", "1", "--output", str(out)]) == 1


def test_sweep_ppt_input_exits_1(tmp_path):
    inp = write_input(tmp_path, UNIFORM)
    assert main(["sweep", str(inp), "--output", str(tmp_path / "s.csv")]) == 1


# ----------------------------------------------------------------- sample

def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sample", "--count", "5", "--seed", "42", "--output", str(a)]) == 0
    assert main(["sample", "--count", "5", "--seed", "42", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_npt_only(tmp_path):
    out = tmp_path / "tables.json"
    assert main(["sample", "--count", "20", "--seed", "1", "--npt-only",
                 "--output", str(out)]) == 0
    tables = json.loads(out.read_text())
    assert len(tables) == 20
    for table in tables:
        coeffs = SimplexCoefficients(d=table["d"], c=np.array(table["c"]))
        assert classify(coeffs).classification == "NPT"


def test_sample_count_zero_exits_1(tmp_path):
    assert main(["sample", "--count", "0", "--output", str(tmp_path / "t.json")]) == 1


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    out = tmp_path / "t.json"
    argv = [command, "--seed", "-1", "--count", "1"]
    if command == "sample":
        argv += ["--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_sample_lets_sampling_exhaustion_through(tmp_path, monkeypatch):
    from belldistill import cli
    from belldistill.simplex import SamplingExhaustedError

    def always_exhausted(*args, **kwargs):
        raise SamplingExhaustedError("no NPT sample within 1 tries")

    monkeypatch.setattr(cli, "sample_npt", always_exhausted)
    out = tmp_path / "t.json"
    with pytest.raises(SamplingExhaustedError, match="within 1 tries"):
        main(["sample", "--count", "1", "--npt-only", "--output", str(out)])
    assert not out.exists()


# ------------------------------------------------------------- exit codes

def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--bogus"])
    assert err.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_cli_import_loads_no_process_pool():
    # one-job runs never start a pool, so importing the CLI must not pay for
    # multiprocessing; run_campaign imports it only when it runs more than one worker
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, belldistill.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_import_loads_no_numpy_random():
    # numpy loads numpy.random on first attribute access, and that import
    # (with secrets and hashlib) takes about 10 ms on a 2-vCPU host, a
    # quarter of a fresh analyze process's set-up; analyze never draws, so
    # only sampling may load it
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, belldistill.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
