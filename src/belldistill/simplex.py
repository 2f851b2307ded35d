"""Bell-diagonal states: construction, partial-transpose blocks and classification.

A Bell-diagonal state of two qudits is fixed by a d x d probability table
c[k, l], the weight of the Bell projector with Weyl index (k, l). The
partial transpose of such a state is block-diagonal in the Bell-unitary
frame, with d Hermitian d x d blocks and B_{m+2} = W_{1,0} B_m W_{1,0}^dag.
Both the blocks and the dense state are linear in c, so each is one
product of the flattened table with a constant built on first use
(:func:`_block_maps` per d and tuple of blocks, :func:`_bell_vectors` per
d). One block builder, :func:`_blocks`, serves :func:`pt_block`, the
solver and the verify battery alike. Classification solves one block per
orbit of m -> m+2 (B_0 alone for odd d), the witness is built from its
result, and the dense d^2 x d^2 state of :func:`build_state` is not
needed. Blocks are built and solved for a stack of tables in one ``eigh``
call (:func:`_solve`), and one builder (:func:`_spectrum_report`) turns a
solved row into its report, so :func:`classify`, a stack of one, and
:func:`sample_npt`, a batch of draws, give each table the same bits and no
table is solved twice. Everything here works for 2 <= d <= MAX_D.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import dag
from .weyl import bell_unitary, phase_table

#: classification labels for the partial-transpose spectrum
NPT = "NPT"
PPT = "PPT"
BOUNDARY = "BOUNDARY"

#: |lambda_min| below this counts as sitting on the PPT boundary. On the
#: near-degenerate family (1 - t) (one-row table) + t (pure Bell), with
#: lambda_min = -t/3, the witness eigenvector residual stays <= 6.2e-17
#: down to the edge; the family turns BOUNDARY at t = 3e-12
BOUNDARY_TOL = 1e-12

#: coefficient tables must sum to one within this tolerance
COEFF_SUM_TOL = 1e-12

#: relative tolerance for clustering degenerate eigenvalues
DEGENERACY_RTOL = 1e-9

#: entries within this relative distance of the largest modulus tie for the pivot
PIVOT_RTOL = 1e-12

#: largest dimension a coefficient table may have. Each block map in a
#: stack of :func:`_block_maps` is a dense d^2 x d^2 complex matrix and
#: classify builds one stack of at most two of them, 33.6 MB at d = 32;
#: the maps grow as d^4, and d = 100 would need 1.6 GB per map
MAX_D = 32

#: the bit generator behind all sampling in this package
GENERATOR_NAME = "PCG64"

#: the largest finite float, the bound of :func:`check_entries`
FLOAT_MAX = np.finfo(float).max


class InvalidCoefficientsError(ValueError):
    """Coefficient table violates positivity or normalization."""


class SamplingExhaustedError(RuntimeError):
    """Rejection sampling hit its retry cap; raise the cap and retry."""


def check_entries(c: np.ndarray) -> None:
    """Refuse a float table with a non-finite entry, or one too large for its sum.

    Each entry must be at most max / (2 size) in magnitude, so that no sum
    of the table overflows and warns; a valid table's entries are at most 1.
    """
    if not np.all(np.isfinite(c)):
        raise InvalidCoefficientsError("coefficient table contains non-finite entries")
    if c.size and np.abs(c).max() > FLOAT_MAX / (2 * c.size):
        raise InvalidCoefficientsError("coefficient table entries are too large to sum")


@dataclass(frozen=True)
class SimplexCoefficients:
    """Probability table of a Bell-diagonal state.

    Entries must be nonnegative and sum to one within COEFF_SUM_TOL, and
    2 <= d <= MAX_D.
    """

    d: int
    c: np.ndarray

    def __post_init__(self):
        if self.d < 2:
            raise InvalidCoefficientsError(f"dimension must be >= 2, got {self.d}")
        if self.d > MAX_D:
            raise InvalidCoefficientsError(f"dimension must be <= {MAX_D}, got {self.d}")
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.d, self.d):
            raise InvalidCoefficientsError(
                f"coefficient table shape {c.shape} does not match d={self.d}"
            )
        check_entries(c)
        if c.min() < 0.0:
            raise InvalidCoefficientsError(f"negative coefficient {c.min():.3e}")
        total = float(c.sum())
        if abs(total - 1.0) > COEFF_SUM_TOL:
            raise InvalidCoefficientsError(f"coefficients sum to {total!r}, not 1")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", int(self.d))


@dataclass(frozen=True)
class PTSpectrumReport:
    """Ascending PT spectrum, its verdict and u0, B_0's read-only ground vector (see _fix_phase)."""

    eigenvalues: np.ndarray
    lambda_min: float
    negative_count: int
    classification: str
    u0: np.ndarray


def pivot_index(weights: np.ndarray) -> int:
    """Index of the first of nonnegative ``weights`` within PIVOT_RTOL of the largest.

    Weights equal up to rounding (such as the moduli of (0, 1, 1)/sqrt 2)
    give the same pivot whichever of them rounds larger. The phase
    convention of :func:`_fix_phase` and the filter frame of
    :func:`~belldistill.witness.construct_witness_vector` both pick their
    pivots here.
    """
    return int(np.argmax(weights >= (1.0 - PIVOT_RTOL) * weights.max()))


def verdict(lambda_min: float) -> str:
    """Label of a partial transpose with smallest eigenvalue ``lambda_min``.

    NPT below -BOUNDARY_TOL, PPT above +BOUNDARY_TOL and BOUNDARY in the
    band between, which is reported rather than rounded: the witness
    construction has no meaning there. Classification and the report
    validator both label by this rule.
    """
    return NPT if lambda_min < -BOUNDARY_TOL else PPT if lambda_min > BOUNDARY_TOL else BOUNDARY


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its pivot entry (see pivot_index) is real positive."""
    pivot = v[pivot_index(np.abs(v))]
    if pivot == 0:
        return v
    return v * (abs(pivot) / pivot)


# tools/outputs.py compare classifies d = 2, 3, 4 and 5 in one process, four
# keys, and a verify process reads two; a larger bound only keeps pt_block's
@functools.lru_cache(maxsize=4)
def _block_maps(d: int, ms: tuple) -> np.ndarray:
    """Stack of the constant linear maps from a flattened table c to the blocks B_m, m in ``ms``.

    Slice j is the map T_m of m = ms[j], shape (d^2, d^2), with
    T_m[a*d + b, k*d + l] the coefficient of c[k, l] in B_m[a, b]:
    omega^(y (k-m)) / d where a = l - y and b = l + y (mod d), zero
    elsewhere. Built with one scatter from the shared phase table on the
    first call for each (d, ms), read-only after; only the blocks that are
    used are ever built, so callers ask for the blocks they read. The cache
    keeps the four most recent stacks, so a caller that reads every block
    of a large d once does not hold all of them.
    """
    tab = phase_table(d)
    j = np.arange(len(ms))[:, None, None, None]
    k, l, y = np.ogrid[:d, :d, :d]
    t = np.zeros((len(ms), d * d, d * d), dtype=complex)
    # for fixed (j, k, l) distinct y hit distinct entries, so no term is lost
    t[j, ((l - y) % d) * d + (l + y) % d, k * d + l] = tab[(y * (k - np.array(ms)[j])) % d] / d
    t.setflags(write=False)
    return t


# every CLI, verify and benchmark path builds states at d = 3 alone
@functools.lru_cache(maxsize=1)
def _bell_vectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d^2 x d^2 matrix V whose column k*d + l is the Bell vector Omega_kl, and V^dag.

    V^dag is the Bell unitary. Built on the first call for each d,
    read-only after; the cache keeps the pair of the last d only.
    """
    vh = bell_unitary(d)
    pair = (dag(vh).copy(), vh)
    for arr in pair:
        arr.setflags(write=False)
    return pair


def build_state(coeffs: SimplexCoefficients) -> np.ndarray:
    """Density matrix sum_kl c[k,l] |Omega_kl><Omega_kl|.

    One product with the constant Bell-vector matrix V: rho = (V * c) V^dag,
    c flattened row-major so that column k*d + l of V carries c[k, l].
    """
    v, vh = _bell_vectors(coeffs.d)
    return (v * coeffs.c.ravel()) @ vh


def pt_block(coeffs: SimplexCoefficients, m: int) -> np.ndarray:
    """The m-th d x d Hermitian block of the partially transposed state.

    B_m = (1/d) sum_{k,l,y} omega^(y (k-m)) c[k,l] |l-y><l+y|, indices mod d,
    evaluated as one product of the constant map T_m (see
    :func:`_block_maps`) with the flattened table. Neighbouring-by-two
    blocks are related by conjugation with the diagonal Weyl operator:
    B_{m+2} = W_{1,0} B_m W_{1,0}^dag.
    """
    d = coeffs.d
    if not 0 <= m < d:
        raise ValueError(f"block index {m} out of range for d={d}")
    return _blocks(coeffs.c.reshape(1, -1), d, (m,))[0, 0]


def _blocks(flat: np.ndarray, d: int, ms: tuple) -> np.ndarray:
    """B_m for each m in ``ms`` of each row of an (n, d^2) stack of flattened tables.

    Shape (n, len(ms), d, d). One ``np.matmul`` of the map stack of
    :func:`_block_maps` with the rows gives every (row, m) pair the bits it
    gets in a stack of one table and one block, so a block depends on
    neither its batch nor the other blocks built with it.
    """
    return np.matmul(_block_maps(d, ms), flat[:, None, :, None]).reshape(-1, len(ms), d, d)


def _solve(flat: np.ndarray, d: int):
    """One ``np.linalg.eigh`` of B_0, and of B_1 for even d, for each row of ``flat``.

    Returns eigenvalues of shape (n, b, d) and eigenvectors of shape
    (n, b, d, d), b = 2 - d % 2 solved blocks per table, B_0 first.
    """
    return np.linalg.eigh(_blocks(flat, d, (0, 1)[: 2 - d % 2]))


def _spectrum_report(values: np.ndarray, vectors: np.ndarray) -> PTSpectrumReport:
    """Report of one table from the (b, d) eigenvalues and (b, d, d) eigenvectors of its blocks.

    Each solved spectrum is repeated over its orbit of m -> m+2, which
    covers all d blocks, and the label is :func:`verdict` of its minimum.
    """
    b, d = values.shape
    eigenvalues = np.sort(np.repeat(values, d // b, axis=0).ravel())
    eigenvalues.setflags(write=False)
    lambda_min = float(eigenvalues[0])
    u0 = _fix_phase(vectors[0][:, 0])
    u0.setflags(write=False)
    return PTSpectrumReport(
        eigenvalues=eigenvalues,
        lambda_min=lambda_min,
        negative_count=sum(verdict(x) == NPT for x in eigenvalues.tolist()),
        classification=verdict(lambda_min),
        u0=u0,
    )


def classify(coeffs: SimplexCoefficients) -> PTSpectrumReport:
    """Full ascending spectrum of the partial transpose, its verdict and B_0's ground vector.

    Solves one block per orbit of B_{m+2} = W_{1,0} B_m W_{1,0}^dag, B_0
    for odd d and B_0, B_1 for even d, as a stack of one table in one
    ``np.linalg.eigh`` call, the same solve :func:`sample_npt` makes for a
    batch. The blocks are Hermitian to rounding for every table
    SimplexCoefficients admits. The label is :func:`verdict` of the
    smallest eigenvalue.

    For d = 3, B_0's two lowest eigenvalues obey lambda_0 + lambda_1 >= 0,
    so an NPT block has relative gap (lambda_1 - lambda_0) / |lambda_0| >= 2
    and its ground vector u0 is well separated. With s_l the column sums of
    c, entry (i, j) of 3 B_0 is sum_k omega^(y k) c[k, l] for l = 2 (i + j)
    and y = 2 (j - i) mod 3: the diagonal is (s_0, s_1, s_2), and the entry
    joining i and j reads column l = k, the third index, so its modulus is
    at most s_k. Hence tr(B_0) 1 - B_0 is the sum over k of the PSD 2 x 2
    matrices [[s_k, -3 B_0[i, j]], [-3 B_0[j, i], s_k]] / 3 on {i, j}, and
    lambda_2 <= tr(B_0). Equality is reached on sparse supports (a pure Bell
    table gives -1/3, 1/3, 1/3); on 302,686 seeded NPT tables, flat and with
    about 30 % of their weights zeroed, the smallest gap measured was
    1.9999999999999964.
    """
    values, vectors = _solve(coeffs.c.reshape(1, -1), coeffs.d)
    return _spectrum_report(values[0], vectors[0])


def lambda_min_multiplicity(eigenvalues: np.ndarray) -> int:
    """Multiplicity of the smallest eigenvalue under relative clustering.

    Eigenvalues within DEGENERACY_RTOL times the spectral width of the
    minimum count as degenerate with it.
    """
    eigenvalues = np.asarray(eigenvalues)
    width = float(eigenvalues[-1] - eigenvalues[0])
    return int(np.count_nonzero(eigenvalues <= eigenvalues[0] + DEGENERACY_RTOL * width))


def _flat_tables(rng, size: int) -> np.ndarray:
    """``size`` flat-Dirichlet d = 3 tables from ``rng`` as rows of 9, each normalized to sum one.

    One ``rng.dirichlet(..., size=size)`` call yields the numbers of ``size``
    single draws, and a row's normalization does not depend on the others.
    """
    cs = rng.dirichlet(np.ones(9), size=size)
    return cs / cs.sum(axis=1, keepdims=True)


def sample_simplex(seed) -> SimplexCoefficients:
    """Uniform d = 3 sample from the probability simplex (flat Dirichlet), per seed.

    ``seed`` is anything numpy's default_rng accepts (an integer or a
    SeedSequence); the generator is PCG64, so results are reproducible
    across platforms. Parallel callers should derive disjoint child seeds
    from one SeedSequence rather than share a seed.
    """
    c = _flat_tables(np.random.default_rng(seed), 1)[0]
    return SimplexCoefficients(d=3, c=c.reshape(3, 3))


#: Dirichlet draws per batch of :func:`sample_npt`. One draw at a time
#: gives the same bytes, but a trial that needs many draws then pays a
#: Dirichlet call (about 9 us) and an ``eigh`` (about 10 us) per draw: in 6
#: alternating 15 s pairs of verify_serial on a 2-vCPU host,
#: ``item_p99_ms`` rose from 0.510-0.540 to 0.584-0.650 every time, a tail
#: that the batch absorbs
SAMPLE_BATCH = 8

#: draws :func:`sample_npt` makes before it gives up, read at each call
MAX_TRIES = 1000


def sample_npt(seed) -> tuple[SimplexCoefficients, PTSpectrumReport]:
    """Rejection-sample a d = 3 coefficient table whose state is NPT.

    Returns the table together with its :func:`classify` report, the one
    the acceptance test computed, so callers need not classify it again.
    Deterministic per seed. Raises SamplingExhaustedError if no NPT table
    shows up within MAX_TRIES draws; the module constant is read at call
    time, so a test can lower it.

    Draws come in batches of up to SAMPLE_BATCH from one
    :func:`_flat_tables` call, the draw :func:`sample_simplex` makes for one
    table. Each batch is solved in one stacked ``eigh`` (:func:`_solve`),
    and the first row in draw order whose smallest eigenvalue
    :func:`verdict` labels NPT (a NaN row reads BOUNDARY) is returned with
    its report; no other row gets one. Every row gets the
    bits it would get alone, so the accepted table, its report and the draw
    count at which sampling gives up are those of classifying every draw
    one by one.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, MAX_TRIES, SAMPLE_BATCH):
        cs = _flat_tables(rng, min(SAMPLE_BATCH, MAX_TRIES - start))
        values, vectors = _solve(cs, 3)
        # eigh's values ascend, so entry 0 of B_0's spectrum is lambda_min
        for i, low in enumerate(values[:, 0, 0].tolist()):
            if verdict(low) == NPT:
                spectrum = _spectrum_report(values[i], vectors[i])
                return SimplexCoefficients(d=3, c=cs[i].reshape(3, 3)), spectrum
    raise SamplingExhaustedError(f"no NPT sample within {MAX_TRIES} tries")
