"""Exact arithmetic for the d = 3 verdict, an oracle for the float pipeline.

A float table is an exact dyadic rational, so the entries of its
partial-transpose block B_0 lie in Q(omega), omega = e^(2 pi i / 3). This
module computes B_0 there, with ``fractions.Fraction`` and the rule
omega^2 = -1 - omega, and from it the rational coefficients of B_0's
characteristic polynomial x^3 - e1 x^2 + e2 x - e3. They give:

- the exact sign of lambda_min: B_0 has trace e1 > 0, so lambda_min < 0
  iff e2 < 0 or e3 < 0, and lambda_min = 0 iff e3 = 0 <= e2;
- lambda_min itself between two rationals as close as asked, by exact
  bisection on "x lies below every eigenvalue".

The spectrum of B_0 is that of its complex conjugate, so the choice of
omega among the two primitive cube roots of unity does not matter. The
module imports neither numpy nor the package, so it shares no code with
the route it checks.
"""

import math
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def mul(x, y):
    """(a + b omega)(c + d omega) = ac - bd + (ad + bc - bd) omega, since omega^2 = -1 - omega."""
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c - b * d)


#: omega^0, omega^1 and omega^2 = -1 - omega as pairs (a, b) of a + b omega
OMEGA_POWERS = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1)))


def block0(c) -> list:
    """B_0 = (1/3) sum_{k,l,y} omega^(y k) c[k][l] |l-y><l+y| of a 3 x 3 table of floats.

    Each float is taken exactly, as ``Fraction(x)``; entries are pairs
    (a, b) of a + b omega.
    """
    b = [[ZERO] * 3 for _ in range(3)]
    for k in range(3):
        for l in range(3):
            weight = Fraction(c[k][l]) / 3
            for y in range(3):
                a, w = OMEGA_POWERS[(y * k) % 3]
                r, s = (l - y) % 3, (l + y) % 3
                b[r][s] = add(b[r][s], (weight * a, weight * w))
    return b


def _real(x) -> Fraction:
    # a + b omega is real iff b = 0, since omega has a nonzero imaginary part
    assert x[1] == 0, x
    return x[0]


def characteristic(b) -> tuple:
    """(e1, e2, e3): trace, sum of principal 2 x 2 minors and determinant of ``b``.

    Each is a symmetric function of the real eigenvalues of a Hermitian
    ``b``, so each is rational; that is asserted.
    """
    e1 = add(add(b[0][0], b[1][1]), b[2][2])
    e2 = ZERO
    for i, j in ((0, 1), (0, 2), (1, 2)):
        e2 = add(e2, sub(mul(b[i][i], b[j][j]), mul(b[i][j], b[j][i])))
    e3 = ZERO
    for j in range(3):
        # cofactor expansion along row 0, with the sign of each term
        k, l = (j + 1) % 3, (j + 2) % 3
        e3 = add(e3, mul(b[0][j], sub(mul(b[1][k], b[2][l]), mul(b[1][l], b[2][k]))))
    return _real(e1), _real(e2), _real(e3)


def sign_of_lambda_min(e) -> int:
    """-1, 0 or 1: the sign of the smallest root, for e1 > 0."""
    e1, e2, e3 = e
    assert e1 > 0, e1
    if e2 < 0 or e3 < 0:
        return -1
    return 0 if e3 == 0 else 1


def lambda_min_bracket(e, bits: int = 64) -> tuple:
    """Rationals (lo, hi) with lo < lambda_min <= hi and hi - lo = 2^-bits.

    x lies below every eigenvalue iff B - x 1 is positive definite, that is
    iff its three coefficients e1 - 3x, e2 - (2 e1 - 3x) x and
    e3 - (e2 - (e1 - x) x) x are all positive. The bisection runs over
    x = n / 2^bits, with each coefficient multiplied by D 2^(j bits), where D
    is the common denominator of the e_i, so each test is on integers. Every
    root lies within 1 + max |e_i| of zero (Cauchy's bound), so it starts
    from a power of two above that bound.
    """
    den = math.lcm(*(x.denominator for x in e))
    e1, e2, e3 = (int(x * den) for x in e)
    u = 1 << bits

    def below(n):
        return (
            e1 * u - 3 * n * den > 0
            and e2 * u * u - (2 * e1 * u - 3 * n * den) * n > 0
            and e3 * u**3 - (e2 * u * u - (e1 * u - n * den) * n) * n > 0
        )

    bound = 1
    while bound <= 1 + max(abs(x) for x in e):
        bound *= 2
    lo, hi = -bound * u, bound * u
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return Fraction(lo, u), Fraction(hi, u)


def verdict(lo: Fraction, hi: Fraction, tol: float) -> str:
    """The label of every lambda in (lo, hi]: NPT below -tol, PPT above tol, BOUNDARY between.

    ``tol`` is compared exactly, as the rational it is; a bracket that
    straddles -tol or tol has no one label and raises ValueError.
    """
    if hi < -tol:
        return "NPT"
    if lo >= tol:
        return "PPT"
    if -tol <= lo and hi <= tol:
        return "BOUNDARY"
    raise ValueError(f"({lo}, {hi}] straddles -{tol} or {tol}")
