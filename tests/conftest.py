import importlib.util
from pathlib import Path

import numpy as np
import pytest

from belldistill import NPT, SimplexCoefficients, classify

#: tools/outputs.py, loaded once: its builders make the check tables the tests read
TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
_spec = importlib.util.spec_from_file_location("outputs", TOOL)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def random_table(seed: int, d: int = 3) -> SimplexCoefficients:
    """Flat-Dirichlet coefficient table, reproducible per seed."""
    c = np.random.default_rng(seed).dirichlet(np.ones(d * d))
    return SimplexCoefficients(d=d, c=(c / c.sum()).reshape(d, d))


#: the first 100 seeds whose random_table classifies NPT; modules read prefixes
NPT_SEEDS = [s for s in range(160) if classify(random_table(s)).classification == NPT][:100]


def pure_bell_table() -> SimplexCoefficients:
    c = np.zeros((3, 3))
    c[0, 0] = 1.0
    return SimplexCoefficients(d=3, c=c)


def isotropic_table(p: float) -> SimplexCoefficients:
    """Mixture (1-p) of the canonical Bell projector with p of white noise."""
    c = np.full((3, 3), p / 9.0)
    c[0, 0] = 1.0 - 8.0 * p / 9.0
    return SimplexCoefficients(d=3, c=c)


def uniform_table(d: int = 3) -> SimplexCoefficients:
    return SimplexCoefficients(d=d, c=np.full((d, d), 1.0 / (d * d)))


def sparse_table(seed: int, d: int = 3) -> SimplexCoefficients:
    """Dirichlet weights on a random support of 1..d^2 Bell projectors."""
    return SimplexCoefficients(**outputs.sparse_table(seed, d))


def boundary_walk_table(start: SimplexCoefficients, lambda_min: float, target: float):
    """Table on the segment from an NPT ``start`` to the uniform table with PT minimum ``target``.

    ``lambda_min`` is the start's PT minimum. Mixing in white noise shifts
    the whole PT spectrum, so along the segment the minimum is affine,
    (1 - t) lambda_min + t / d^2, and ``target`` near zero lands on the PPT
    boundary up to rounding.
    """
    d = start.d
    t = (lambda_min - target) / (lambda_min - 1.0 / (d * d))
    c = (1.0 - t) * start.c + t / (d * d)
    return SimplexCoefficients(d=d, c=c / c.sum())


@pytest.fixture
def pure_bell():
    return pure_bell_table()


@pytest.fixture
def uniform():
    return uniform_table()
