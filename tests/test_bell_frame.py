"""The closed-form Bell-frame kernel and the batch sampler against their loop forms."""

import json
import tracemalloc

import numpy as np
import pytest

from belldistill import simplex, verify
from belldistill.cli import main
from belldistill.filtering import filter_report
from belldistill.linalg import partial_transpose
from belldistill.report import parse_coefficients, validate_report
from belldistill.simplex import (
    NPT,
    PPT,
    InvalidCoefficientsError,
    SamplingExhaustedError,
    build_state,
    classify,
    pt_block,
    sample_npt,
)
from belldistill.weyl import bell_unitary, bell_vector
from belldistill.witness import construct_witness_vector

from conftest import boundary_walk_table, random_table, sparse_table, uniform_table
from reference import build_state_loop, pt_block_loop, sample_npt_sequential

#: PT minima of the boundary-walk tables: NPT, on the boundary band, PPT
WALK_TARGETS = (-1e-9, -2e-12, -1e-13, 0.0, 1e-13, 2e-12)


def _npt_starts(count: int, d: int = 3) -> list:
    """(table, lambda_min) of the first ``count`` NPT flat tables by seed."""
    starts = []
    seed = 0
    while len(starts) < count:
        coeffs = random_table(seed, d=d)
        rep = classify(coeffs)
        if rep.classification == NPT:
            starts.append((coeffs, rep.lambda_min))
        seed += 1
    return starts


def _walk_family(count: int, d: int = 3) -> list:
    return [
        boundary_walk_table(start, lam, target)
        for start, lam in _npt_starts(count, d)
        for target in WALK_TARGETS
    ]


KERNEL_FAMILIES = {
    "flat": lambda d, n: [random_table(seed, d=d) for seed in range(n)],
    "sparse": lambda d, n: [sparse_table(seed, d) for seed in range(n)],
    "boundary_walk": lambda d, n: _walk_family(n // len(WALK_TARGETS), d),
}


def _kernel_deviation(tables) -> float:
    worst = 0.0
    for coeffs in tables:
        worst = max(worst, float(np.abs(build_state(coeffs) - build_state_loop(coeffs)).max()))
        for m in range(coeffs.d):
            dev = np.abs(pt_block(coeffs, m) - pt_block_loop(coeffs, m)).max()
            worst = max(worst, float(dev))
    return worst


# ------------------------------------------------------------- the kernel

@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_kernel_matches_loops_d3(family):
    # 4000 flat + 4000 sparse + 2004 boundary-walk tables: >= 10^4 in all
    n = {"flat": 4000, "sparse": 4000, "boundary_walk": 2004}[family]
    tables = KERNEL_FAMILIES[family](3, n)
    assert len(tables) == n
    assert _kernel_deviation(tables) <= 1e-15


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@pytest.mark.parametrize("d", [2, 4, 5])
def test_kernel_matches_loops_across_dims(d, family):
    assert _kernel_deviation(KERNEL_FAMILIES[family](d, 60)) <= 1e-15


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_pt_blocks_are_hermitian(d, family):
    # classify hands each block to eigh, which reads one triangle only, so
    # the other must agree to rounding on every table SimplexCoefficients admits
    for coeffs in KERNEL_FAMILIES[family](d, 60):
        for m in range(d):
            block = pt_block(coeffs, m)
            assert np.abs(block - block.conj().T).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bell_frame_constants_are_shared_and_read_only(d):
    ms = tuple(range(d))
    maps = simplex._block_maps(d, ms)
    v, vh = simplex._bell_vectors(d)
    assert simplex._block_maps(d, ms) is maps
    assert simplex._bell_vectors(d)[0] is v
    assert maps.shape == (d, d * d, d * d)
    singles = [simplex._block_maps(d, (m,)) for m in ms]
    for arr in [maps, v, vh] + singles:
        assert not arr.flags.writeable
    for m, single in zip(ms, singles):
        assert maps[m].tobytes() == single[0].tobytes()
    columns = np.array([bell_vector(d, k, l) for k in range(d) for l in range(d)]).T
    assert np.array_equal(v, columns)
    assert np.array_equal(vh, bell_unitary(d))


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_each_block_is_built_alone(d, family):
    # a block of a stack has the bytes of its own stack of one table and one
    # block, the bytes pt_block returns, whatever it is built with
    tables = KERNEL_FAMILIES[family](d, 54)
    for n in range(1, 10):
        coeffs = tables[5 * (n - 1) : 5 * (n - 1) + n]
        flat = np.array([c.c.ravel() for c in coeffs])
        for ms in (tuple(range(d)), (0, 1)[: 2 - d % 2], (d - 1, 0)):
            blocks = simplex._blocks(flat, d, ms)
            assert blocks.shape == (n, len(ms), d, d)
            for i, c in enumerate(coeffs):
                for j, m in enumerate(ms):
                    alone = simplex._blocks(flat[i : i + 1], d, (m,))[0, 0]
                    assert blocks[i, j].tobytes() == alone.tobytes(), (n, ms, i, m)
                    assert blocks[i, j].tobytes() == pt_block(c, m).tobytes(), (n, ms, i, m)
                    assert np.abs(blocks[i, j] - pt_block_loop(c, m)).max() <= 1e-15


def test_classify_builds_only_the_blocks_it_reads(tmp_path):
    # d = 24 is used by no other test; the maps are dropped first so that the
    # measurement covers building them. classify reads B_0 and B_1 (d even),
    # one stack of two maps of d^4 complex numbers, where all d maps would
    # take 127 MB.
    d = 24
    simplex._block_maps.cache_clear()
    table = uniform_table(d)
    tracemalloc.start()
    try:
        assert classify(table).classification == PPT
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * d**4 * 16
    assert simplex._block_maps.cache_info().currsize == 1

    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"d": d, "c": table.c.tolist()}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["analyze", str(inp), "--output", str(out)]) == 2
    validate_report(json.loads(out.read_text(encoding="utf-8")))


def test_block_map_cache_is_bounded():
    # classifying d = 2..5 in one process asks for four stacks, and a second
    # pass finds all of them; a caller that reads every block of a d = 16
    # table once keeps the four most recent single maps, not sixteen
    simplex._block_maps.cache_clear()
    for _ in range(2):
        for d in (2, 3, 4, 5):
            classify(uniform_table(d))
    assert simplex._block_maps.cache_info().misses == 4
    d = 16
    table = uniform_table(d)
    tracemalloc.start()
    try:
        for m in range(d):
            pt_block(table, m)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        simplex._block_maps.cache_clear()
    assert held <= 5 * d**4 * 16


def test_bell_vector_cache_is_bounded():
    # every command builds states at d = 3 alone, so the cache keeps the
    # pair of the last d: after d = 16 down to 2, only d = 2's is held
    tracemalloc.start()
    try:
        for d in range(16, 1, -1):
            build_state(uniform_table(d))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert simplex._bell_vectors.cache_info().currsize == 1


def test_dimension_above_max_d_is_refused_before_any_map(tmp_path, capsys):
    # the maps grow as d^4: a 100 x 100 table would ask for 1.6 GB per block
    d = simplex.MAX_D + 1
    table = {"d": d, "c": np.full((d, d), 1.0 / d**2).tolist()}
    tracemalloc.start()
    try:
        with pytest.raises(InvalidCoefficientsError, match=f"<= {simplex.MAX_D}"):
            parse_coefficients(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20

    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(table), encoding="utf-8")
    for command in ("analyze", "sweep"):
        out = tmp_path / f"{command}.out"
        assert main([command, str(inp), "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: bad input: dimension must be <= 32")


def test_max_d_still_classifies():
    # one stack of two maps, 33.6 MB, dropped again so that later tests do not carry it
    try:
        assert classify(uniform_table(simplex.MAX_D)).classification == PPT
    finally:
        simplex._block_maps.cache_clear()


def test_pt_block_rejects_bad_index():
    with pytest.raises(ValueError, match="out of range"):
        pt_block(random_table(0), -1)


# ------------------------------------------------------------ the sampler

def _same_draw(a, b) -> bool:
    (ca, ra), (cb, rb) = a, b
    return (
        np.array_equal(ca.c, cb.c)
        and np.array_equal(ra.eigenvalues, rb.eigenvalues)
        and ra.lambda_min == rb.lambda_min
        and ra.negative_count == rb.negative_count
        and ra.classification == rb.classification
        and np.array_equal(ra.u0, rb.u0)
    )


def _outcome(sampler, *args):
    try:
        return sampler(*args)
    except SamplingExhaustedError as exc:
        return str(exc)


def test_batched_sampler_equals_sequential():
    for seed in range(2000):
        assert _same_draw(sample_npt(seed), sample_npt_sequential(seed)), seed


def test_batched_sampler_equals_sequential_across_the_batch_edge(monkeypatch):
    exhausted = 0
    for seed in range(150):
        for max_tries in range(1, 18):
            monkeypatch.setattr(simplex, "MAX_TRIES", max_tries)
            got = _outcome(sample_npt, seed)
            want = _outcome(sample_npt_sequential, seed, max_tries)
            if isinstance(want, str):
                exhausted += 1
                assert got == want
            else:
                assert _same_draw(got, want), (seed, max_tries)
    assert exhausted > 0


def _never_npt(calls):
    """A block solver that records each table it solves and lifts every spectrum to PPT."""
    solve = simplex._solve

    def never_npt(flat, d):
        values, vectors = solve(flat, d)
        calls.extend(flat)
        return values + 1.0, vectors

    return never_npt


def test_forced_exhaustion_matches_sequential(monkeypatch):
    # every spectrum reads PPT, so both samplers use up all their tries; the
    # solver is shared, so the patch reaches sample_npt's screen and, through
    # classify, the sequential oracle alike
    calls = []
    monkeypatch.setattr(simplex, "_solve", _never_npt(calls))
    for max_tries in range(1, 18):
        del calls[:]
        monkeypatch.setattr(simplex, "MAX_TRIES", max_tries)
        with pytest.raises(SamplingExhaustedError, match=f"within {max_tries} tries"):
            sample_npt(5)
        batched = len(calls)
        with pytest.raises(SamplingExhaustedError, match=f"within {max_tries} tries"):
            sample_npt_sequential(5, max_tries=max_tries)
        assert batched == len(calls) - batched == max_tries


def test_sampler_reports_only_the_accepted_table(monkeypatch):
    # the screen reads lambda_min off each solved row and builds a report
    # for the accepted row alone; table and report keep the bytes of
    # classifying every draw one by one
    seeds = verify.trial_seeds(0, 2000)
    expected = [sample_npt_sequential(seed) for seed in seeds]
    built = []
    build = simplex._spectrum_report
    monkeypatch.setattr(simplex, "_spectrum_report", lambda *a: built.append(a) or build(*a))
    for seed, (want_c, want) in zip(seeds, expected):
        del built[:]
        got_c, got = sample_npt(seed)
        assert len(built) == 1, seed
        assert got_c.c.tobytes() == want_c.c.tobytes(), seed
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes(), seed
        assert got.u0.tobytes() == want.u0.tobytes(), seed
        assert got.lambda_min.hex() == want.lambda_min.hex(), seed
        assert (got.negative_count, got.classification) == (want.negative_count, NPT), seed


def test_sampler_exhausts_at_the_sequential_draw_count(monkeypatch):
    # with MAX_TRIES one short of the sequential sampler's first NPT draw,
    # both draw MAX_TRIES tables and give up; one more try accepts that draw
    rows, draws = [], []
    solve = simplex._solve
    monkeypatch.setattr(simplex, "_solve", lambda flat, d: rows.extend(flat) or solve(flat, d))
    monkeypatch.setattr(simplex, "classify", lambda coeffs: draws.append(coeffs) or classify(coeffs))
    late = 0
    for seed in range(300):
        del draws[:]
        sample_npt_sequential(seed)
        accept = len(draws)
        if accept < 2:
            continue
        late += 1
        monkeypatch.setattr(simplex, "MAX_TRIES", accept - 1)
        del rows[:], draws[:]
        with pytest.raises(SamplingExhaustedError, match=f"within {accept - 1} tries"):
            sample_npt(seed)
        assert len(rows) == accept - 1, seed
        with pytest.raises(SamplingExhaustedError, match=f"within {accept - 1} tries"):
            sample_npt_sequential(seed, accept - 1)
        assert len(draws) == accept - 1, seed
        monkeypatch.setattr(simplex, "MAX_TRIES", accept)
        assert _same_draw(sample_npt(seed), sample_npt_sequential(seed, accept)), seed
    assert late >= 50


def _count_eigensolves(monkeypatch) -> list:
    """Patch np.linalg.eigh and eigvalsh to log their names; return the log."""
    log = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            log.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return log


def test_sampler_solves_each_batch_once(monkeypatch):
    # one stacked eigh per batch drawn, and no second solve of the accepted row
    draws = []
    monkeypatch.setattr(simplex, "classify", lambda coeffs: draws.append(coeffs) or classify(coeffs))
    expected = []
    for seed in range(300):
        del draws[:]
        sample_npt_sequential(seed)
        expected.append(-(-len(draws) // simplex.SAMPLE_BATCH))
    monkeypatch.undo()

    log = _count_eigensolves(monkeypatch)
    for seed, batches in enumerate(expected):
        del log[:]
        sample_npt(seed)
        assert log == ["eigh"] * batches, seed

    monkeypatch.setattr(simplex, "_solve", _never_npt([]))
    for max_tries in range(1, 18):
        del log[:]
        monkeypatch.setattr(simplex, "MAX_TRIES", max_tries)
        with pytest.raises(SamplingExhaustedError):
            sample_npt(5)
        assert log == ["eigh"] * -(-max_tries // simplex.SAMPLE_BATCH)


def test_trial_solves_five_times(monkeypatch):
    # the sampler's batches, then one stacked eigvalsh for the battery's
    # three dense spectra, filter_report's eigh, noise_scan's stacked
    # eigvalsh, whose p = 0 value is also the witness value trace(W rho),
    # and sigma's eigvalsh
    seeds = verify.trial_seeds(0, 40)
    draws = []
    monkeypatch.setattr(simplex, "classify", lambda coeffs: draws.append(coeffs) or classify(coeffs))
    batches = []
    for seed in seeds:
        del draws[:]
        sample_npt_sequential(seed)
        batches.append(-(-len(draws) // simplex.SAMPLE_BATCH))
    monkeypatch.undo()

    log = _count_eigensolves(monkeypatch)
    for seed, count in zip(seeds, batches):
        del log[:]
        assert verify.run_trial(seed).ok
        assert log == ["eigh"] * count + ["eigvalsh", "eigh", "eigvalsh", "eigvalsh"], seed


# ------------------------------------------- structural invariants (d = 3)

def _npt_family(name: str, count: int) -> list:
    if name == "boundary_walk":
        tables = [boundary_walk_table(s, lam, -1e-11) for s, lam in _npt_starts(count)]
    else:
        make = random_table if name == "flat" else sparse_table
        tables = (make(seed) for seed in range(4 * count))
    reports = [(t, classify(t)) for t in tables]
    return [(t, r) for t, r in reports if r.classification == NPT][:count]


@pytest.mark.parametrize("family", ["boundary_walk", "flat", "sparse"])
def test_filtered_partial_transpose_is_hermitian(family):
    # filter_report hands sigma's partial transpose to eigh as it stands
    for coeffs, rep in _npt_family(family, 100):
        sigma = filter_report(build_state(coeffs), construct_witness_vector(rep)).sigma
        sigma_pt = partial_transpose(sigma, 2, 2)
        assert np.abs(sigma_pt - sigma_pt.conj().T).max() <= 1e-14


@pytest.mark.parametrize("family", ["boundary_walk", "flat", "sparse"])
def test_witness_vector_is_maximally_entangled_on_its_qubit(family):
    # mu0 = mu1 = 1/sqrt 2 on every NPT table, so W's spectrum is the constant
    # {-1/2, 0 x5, 1/2 x3} and the mirror is 1/2 - W
    expected = np.array([-0.5] + [0.0] * 5 + [0.5] * 3)
    tables = _npt_family(family, 170)
    assert len(tables) == 170
    for coeffs, rep in tables:
        wc = construct_witness_vector(rep)
        w = wc.W
        mu0, mu1 = wc.schmidt_coefficients[:2]
        assert abs(mu0 - 2**-0.5) <= 1e-14 and abs(mu1 - 2**-0.5) <= 1e-14
        assert np.abs(np.linalg.eigvalsh(w) - expected).max() <= 1e-14
        assert np.abs((mu0**2 * np.eye(9) - w) - (0.5 * np.eye(9) - w)).max() <= 1e-14
