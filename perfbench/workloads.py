"""The benchmark's workloads: seeded inputs, one timed call per unit, checks.

All workloads are closed-loop with a single caller: the next unit is sent
only after the previous one has returned and been checked. A unit is one
``verify`` campaign of ``Size.trials`` trials, or one ``analyze`` call on
one table. A run sends all of the workload's seeded units once per
pass, in whole passes, until its time is up. Checks run outside the timed region and
with tracing paused.

End-to-end timings are summarised per part by the fastest of its
repetitions: a table is one part; a campaign splits into its trials and the
rest of its time. The reference box is a shared two-core VM that runs at
full speed only in short bursts and up to twice as slow in between; a
part's repetitions lie a pass apart, so its fastest one is nearly always
taken in a burst, while medians over all samples move with the machine's
load from run to run. The shorter a part, the likelier a burst covers it.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import tracer
from belldistill import cli, verify
from belldistill.report import validate_report


@dataclass(frozen=True)
class Size:
    trials: int  # trials per verify campaign
    campaigns: int  # campaigns per pass over the verify inputs
    tables: int  # tables per pass over the analyze inputs


FULL = Size(trials=10, campaigns=10, tables=100)
#: traced runs: larger campaigns, so that verify.parallel_efficiency shows
#: the dispatch of trials to workers more than the pool's start-up, which
#: every campaign pays once
TRACED = Size(trials=100, campaigns=2, tables=100)
TINY = Size(trials=6, campaigns=2, tables=24)

BENCH_DIR = Path(__file__).resolve().parent

#: set-up probes per untraced run, spread evenly over it
SETUP_PROBES = 20

#: worker count of the parallel campaigns behind verify.parallel_efficiency,
#: one per core of the reference box
PARALLEL_JOBS = 2


#: one per repetition of a unit; slotted because a faster program makes
#: more of them, and their memory would otherwise show in peak_rss_mb
@dataclass(slots=True)
class Record:
    unit: int
    jobs: int
    items: int
    seconds: float
    failed: int
    misses: list
    exit_code: object = None
    bytes_out: int = 0
    traced: bool = False
    #: (trial seed, seconds) of each trial of an untraced one-job campaign
    trials: list = None


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


class VerifyWorkload:
    """``verify.run_campaign`` then ``verify.summary_text``, campaign after campaign.

    Campaigns run at one job; ``run`` takes another worker count for the
    parallel-efficiency measurement of a traced run.
    """

    kind = "verify"

    def __init__(self, seed: int, size: Size):
        self.count = size.trials
        self.units = [int(s) for s in _stream(seed, 1).integers(0, 2**63, size.campaigns)]

    def describe(self) -> dict:
        return {"campaigns_per_pass": len(self.units), "trials_per_campaign": self.count}

    def run(self, master_seed: int, recorder=None, jobs=1) -> Record:
        trials = []
        timer = trial_timer(trials) if jobs == 1 and not recorder else contextlib.nullcontext()
        if recorder:
            recorder.active = True
        start = perf_counter()
        try:
            with timer:
                campaign = verify.run_campaign(self.count, master_seed, jobs=jobs)
                summary = verify.summary_text(campaign)
        except Exception as exc:  # a raising campaign is a failed unit, not a crash
            elapsed = perf_counter() - start
            if recorder:
                recorder.active = False
            return Record(master_seed, jobs, self.count, elapsed, self.count, [f"raised {exc!r}"],
                          trials=trials or None)
        elapsed = perf_counter() - start
        if recorder:
            recorder.active = False
        misses = oracle.check_campaign(campaign, summary, self.count)
        failed = len(campaign.failed_trials) or (self.count if misses else 0)
        return Record(master_seed, jobs, self.count, elapsed, failed, misses,
                      trials=trials or None)


def flat_table(rng) -> np.ndarray:
    """Uniform point of the probability simplex (about 61 % NPT)."""
    c = rng.dirichlet(np.ones(9))
    return (c / c.sum()).reshape(3, 3)


def sparse_table(rng) -> np.ndarray:
    """Flat Dirichlet on a random support, 1 to 8 of the nine weights zeroed (about 95 % NPT)."""
    keep = np.ones(9, dtype=bool)
    keep[rng.choice(9, size=int(rng.integers(1, 9)), replace=False)] = False
    c = np.zeros(9)
    c[keep] = rng.dirichlet(np.ones(int(keep.sum())))
    return (c / c.sum()).reshape(3, 3)


#: table families of analyze_batch, interleaved one to one
FAMILIES = (("flat", flat_table), ("sparse", sparse_table))


class AnalyzeWorkload:
    """``cli.main(["analyze", in, "--output", out])`` in-process, table after table."""

    kind = "analyze"

    def __init__(self, seed: int, size: Size, workdir: str):
        rng = _stream(seed, 2)
        self.out_path = os.path.join(workdir, "report.json")
        self.inputs = []
        self.tables = []
        self.families = []
        self.verdicts = []
        for i in range(size.tables):
            family, make = FAMILIES[i % len(FAMILIES)]
            table = make(rng)
            path = os.path.join(workdir, f"table{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"d": 3, "c": table.tolist()}, fh)
            self.inputs.append(path)
            self.tables.append(table)
            self.families.append(family)
            self.verdicts.append(oracle.verdict(oracle.lambda_min(table)))
        self.units = list(range(size.tables))
        #: table index -> (exit code, report digest) of an output that passed every check
        self.passed = {}

    def describe(self) -> dict:
        """Share of each family and, per the oracle, of each verdict in one pass."""
        n = len(self.units)
        per_family = Counter(self.families)
        pairs = Counter(zip(self.families, self.verdicts))
        return {
            "tables_per_pass": n,
            "family_share": {f: per_family[f] / n for f, _ in FAMILIES},
            "verdict_share": {v: k / n for v, k in sorted(Counter(self.verdicts).items())},
            "verdict_share_by_family": {
                f: {v: k / per_family[f] for (g, v), k in sorted(pairs.items()) if g == f}
                for f, _ in FAMILIES
            },
        }

    def run(self, i: int, recorder=None, jobs=1) -> Record:
        argv = ["analyze", self.inputs[i], "--output", self.out_path]
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        sink = io.StringIO()
        raised = None
        with redirect_stdout(sink), redirect_stderr(sink):
            if recorder:
                recorder.active = True
            start = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a raising call is a failed item, not a crash
                code, raised = None, exc
            elapsed = perf_counter() - start
            if recorder:
                recorder.active = False
        if raised is not None:
            return Record(i, 1, 1, elapsed, 1, [f"raised {raised!r}"], code)
        try:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return Record(i, 1, 1, elapsed, 1, [f"no report: {exc}"], code)
        digest = hashlib.blake2b(data).digest()
        if self.passed.get(i) == (code, digest):
            # byte for byte a repeat of an output that passed every check
            return Record(i, 1, 1, elapsed, 0, [], code, len(data))
        try:
            report = json.loads(data)
        except ValueError as exc:
            return Record(i, 1, 1, elapsed, 1, [f"unreadable report: {exc}"], code)
        misses = oracle.check_analysis(self.tables[i], code, report, validate_report)
        if not misses:
            self.passed[i] = (code, digest)
        return Record(i, 1, 1, elapsed, int(bool(misses)), misses, code, len(data))


def measure(workload, seconds: float, variants=((1, None),), after_pass=None):
    """Send every unit once per pass until ``seconds`` have passed.

    The first pass sends the units in order, pass k in an order shuffled by
    ``random.Random(k)``: the host's disturbances can recur at a fixed
    period, and would then slow the units at the same place of every pass
    in the same order. Each unit runs once per ``(jobs, recorder)`` entry
    of ``variants``, back to back, so all variants see the same phases of
    the machine's load. ``jobs`` is a verify campaign's worker count; a run
    with a recorder is traced. The run stops only at the end of a pass, so
    every unit has the same number of repetitions and per-item counts are
    exact repeats of one pass. ``after_pass`` is called, untimed, at the
    end of every pass. Returns the records and the pass count.
    """
    records = []
    passes = 0
    order = list(workload.units)
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        if passes:
            random.Random(passes).shuffle(order)
        for unit in order:
            for jobs, recorder in variants:
                record = workload.run(unit, recorder, jobs)
                record.traced = recorder is not None
                records.append(record)
        passes += 1
        if after_pass:
            after_pass()
    return records, passes


@contextlib.contextmanager
def trial_timer(trials: list):
    """Append (trial seed, seconds) to ``trials`` for every ``verify.run_trial`` call.

    ``run_campaign`` looks ``run_trial`` up in its module at one job, so a
    timer bound there sees each trial of a one-job campaign. The timer
    costs two clock reads per trial.
    """
    run_trial = verify.run_trial

    def timed(seed, *args, **kwargs):
        start = perf_counter()
        try:
            return run_trial(seed, *args, **kwargs)
        finally:
            trials.append((seed, perf_counter() - start))

    verify.run_trial = timed
    try:
        yield
    finally:
        verify.run_trial = run_trial


def fastest_parts(records) -> tuple:
    """Fastest repetition of every part of the units: (latencies, rest).

    ``latencies`` maps each item (a table, or a trial of a campaign) to the
    seconds of its fastest repetition; ``rest`` maps each campaign to the
    fastest of its time outside its trials (``run_campaign``'s own work and
    ``summary_text``). Together they add up to the time of one pass with
    every part taken in the quietest phase it met.
    """
    latencies, rest = {}, {}

    def keep(best, key, seconds):
        best[key] = min(best.get(key, math.inf), seconds)

    for r in records:
        if r.trials is None:
            keep(latencies, r.unit, r.seconds)
            continue
        for seed, seconds in r.trials:
            keep(latencies, seed, seconds)
        keep(rest, r.unit, r.seconds - sum(seconds for _, seconds in r.trials))
    return latencies, rest


def fastest(records) -> dict:
    """unit -> (items, seconds of its fastest repetition)."""
    best = {}
    for r in records:
        if r.unit not in best or r.seconds < best[r.unit][1]:
            best[r.unit] = (r.items, r.seconds)
    return best


def throughput(records) -> float:
    """Items per second over one pass, each unit at its fastest repetition."""
    best = fastest(records).values()
    return sum(items for items, _ in best) / sum(seconds for _, seconds in best)


def median(values) -> float:
    return float(statistics.median(values))


def p99(values) -> float:
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[98])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(wl, seed: int, workdir: str) -> float:
    """Set-up time of one fresh process, timed by setup_probe.py."""
    root = BENCH_DIR.parent
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(root), wl.kind, str(seed),
         workdir],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(wl, seed: int, seconds: float, workdir: str):
    """Untraced run: the end-to-end metrics, notes on their samples, all records.

    A set-up probe runs after the first pass that ends at least
    ``seconds / SETUP_PROBES`` after the previous probe, so that, like the
    units' own repetitions, the probes are spread over the run and the
    fastest one is taken in a quiet phase of the machine.
    """
    warmup = wl.run(wl.units[0])  # not timed: lazy numpy set-up and the file cache
    setups = []
    last_probe = -math.inf

    def probe():
        nonlocal last_probe
        if perf_counter() - last_probe >= seconds / SETUP_PROBES:
            setups.append(setup_seconds(wl, seed, workdir))
            last_probe = perf_counter()

    records, passes = measure(wl, seconds, after_pass=probe)
    best, rest = fastest_parts(records)
    latencies = [1e3 * s for s in best.values()]
    rss = peak_rss_mb()
    metrics = {
        "items_per_s": len(best) / (sum(best.values()) + sum(rest.values())),
        "item_p50_ms": median(latencies),
        "item_p99_ms": p99(latencies),
        "setup_s": min(setups),
        "peak_rss_mb": rss,
    }
    notes = {
        "passes": passes,
        "latency_samples": len(latencies),
        "latency_item": (
            "one cli.main analyze call, fastest of its repetitions"
            if wl.kind == "analyze"
            else "one verify.run_trial call inside a campaign, fastest of its repetitions"
        ),
        "items_per_s_over_all_samples": sum(r.items for r in records)
        / sum(r.seconds for r in records),
        "setup_samples_s": setups,
    }
    return metrics, notes, [warmup] + records


def traced(wl, seconds: float):
    """Each unit untraced, traced and (verify) at two jobs in turn: per-layer metrics.

    The tracer stays installed throughout and records only the traced
    repetitions, so every side of ``trace.overhead_fraction`` and
    ``verify.parallel_efficiency`` sees the same phases of the machine's
    load and the same number of repetitions.
    """
    warmup = wl.run(wl.units[0])
    tr = tracer.Tracer()
    variants = [(1, None), (1, tr)]
    if wl.kind == "verify":
        variants.append((PARALLEL_JOBS, None))
    with tr.installed():
        all_records, passes = measure(wl, seconds, variants)
    untraced = [r for r in all_records if r.jobs == 1 and not r.traced]
    records = [r for r in all_records if r.traced]
    parallel = [r for r in all_records if r.jobs == PARALLEL_JOBS]
    efficiency = (
        throughput(parallel) / (PARALLEL_JOBS * throughput(untraced)) if parallel else 0.0
    )

    items = sum(r.items for r in records)
    spans = tr.by_span()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / items

    def self_us(name):
        return 1e6 * spans.get(name, (0, 0.0, 0.0))[2] / items

    weyl_rows = [row for name, row in spans.items() if name.startswith("weyl.")]
    accepts = calls("simplex.sample_npt") * items
    draws = tr.calls_under("simplex.sample_npt", "simplex.classify")
    codes = [r.exit_code for r in records]
    failed = sum(r.failed for r in records)
    metrics = {
        "simplex.classify.calls": calls("simplex.classify"),
        "simplex.classify.self_us": self_us("simplex.classify"),
        "simplex.build_state.calls": calls("simplex.build_state"),
        "simplex.build_state.self_us": self_us("simplex.build_state"),
        "simplex.pt_block.calls": calls("simplex.pt_block"),
        "simplex.sample_npt.self_us": self_us("simplex.sample_npt"),
        "simplex.sample_npt.draws_per_accept": draws / accepts if accepts else 0.0,
        "witness.construct_witness_vector.self_us": self_us("witness.construct_witness_vector"),
        "witness.witness_operator.self_us": self_us("witness.witness_operator"),
        "witness.detect.calls": calls("witness.detect"),
        "witness.detect.self_us": self_us("witness.detect"),
        "filtering.add_white_noise.calls": calls("filtering.add_white_noise"),
        "filtering.add_white_noise.self_us": self_us("filtering.add_white_noise"),
        "filtering.filter_report.self_us": self_us("filtering.filter_report"),
        "linalg.hermitian_eigensystem.calls": calls("linalg.hermitian_eigensystem"),
        "linalg.hermitian_eigensystem.self_us": self_us("linalg.hermitian_eigensystem"),
        "linalg.partial_transpose.calls": calls("linalg.partial_transpose"),
        "linalg.schmidt_decompose.self_us": self_us("linalg.schmidt_decompose"),
        "linalg.numpy_kernel_calls": tr.kernel_calls / items,
        "weyl.constructor_calls": sum(row[0] for row in weyl_rows) / items,
        "weyl.self_us": 1e6 * sum(row[2] for row in weyl_rows) / items,
        "verify.run_trial.self_us": self_us("verify.run_trial"),
        "verify.parallel_efficiency": efficiency,
        "verify.failed_trials": failed / passes if wl.kind == "verify" else 0.0,
        "report.analysis_report.self_us": self_us("report.analysis_report"),
        "report.dump_report.self_us": self_us("report.dump_report"),
        "report.bytes_out": sum(r.bytes_out for r in records) / items,
        "cli.main.self_us": self_us("cli.main"),
        "cli.exit_code_share.0": codes.count(0) / len(codes),
        "cli.exit_code_share.1": codes.count(1) / len(codes),
        "cli.exit_code_share.2": codes.count(2) / len(codes),
        "trace.overhead_fraction": throughput(untraced) / throughput(records) - 1.0,
        "failed_fraction": failed / items,
    }
    notes = {
        "traced_items": items,
        "traced_passes": passes,
        "parallel_efficiency": (
            f"untraced campaigns at 1 and {PARALLEL_JOBS} jobs alternated on the same seeds; "
            "verify_serial only, 0 elsewhere"
        ),
        "overhead": "untraced repetitions run through the installed but idle span wrappers",
        "top_self_us_per_item": {
            name: round(1e6 * row[2] / items, 2)
            for name, row in sorted(spans.items(), key=lambda kv: -kv[1][2])[:12]
        },
    }
    return metrics, notes, [warmup] + all_records
