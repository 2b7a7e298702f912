"""Exact arithmetic kernels in pure Python, one implementation per job.

Polynomials are dense coefficient sequences, index = degree, no trailing
zeros; matrices are lists of rows.  The jobs are the matrix product and
echelon form, and the polynomial product, division, gcd and evaluation.
The product and evaluation kernels serve Python ints and Fractions alike:
their sums start from the int 0, so integer data stays in ints and
Fraction data in Fractions (an entry nothing lands on is the int 0, equal
to Fraction(0)).  The echelon form and the division divide, so they take
Fractions.  The gcd is the primitive remainder sequence over Z[u];
rational data is cleared to integers before it.
"""

from fractions import Fraction
from math import gcd

# The one implementation there is; environment stamps record it.
BACKEND = "pure"

_ZERO = Fraction(0)


def poly_mul(a, b):
    """The product of two coefficient sequences, their convolution, as a
    tuple.  Nothing is trimmed: over Z and Q the product of two nonzero
    leading coefficients is nonzero."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def poly_divmod(a, b):
    """Quotient and remainder of coefficient lists; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    if len(rem) - 1 < db:
        return [], rem
    quo = [_ZERO] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if not c:
            continue
        q = c / lb
        quo[k - db] = q
        for j in range(db + 1):
            rem[k - db + j] -= q * b[j]
    while rem and not rem[-1]:
        rem.pop()
    while quo and not quo[-1]:
        quo.pop()
    return quo, rem


def _primitive(p):
    """An integer coefficient sequence over its content, with a positive
    leading coefficient, as a tuple."""
    if not p:
        return ()
    g = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return tuple(c // g for c in p)


def _int_prem(a, b):
    # Pseudo-remainder of integer polynomials, made primitive.
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(rem) - 1 >= db and rem:
        c = rem[-1]
        rem = [lb * x for x in rem]
        for j in range(db + 1):
            rem[len(rem) - 1 - db + j] -= c * b[j]
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    return _primitive(rem)


def poly_gcd(a, b):
    """The primitive gcd of two integer coefficient sequences (positive
    leading coefficient; () when both are zero), by the primitive remainder
    sequence."""
    x, y = _primitive(a), _primitive(b)
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _int_prem(x, y)
    return x


def poly_eval(a, x):
    """The value of a coefficient sequence at x, by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def mat_mul(A, B):
    """Matrix product with zero skipping."""
    p = len(B[0]) if B else 0
    out = []
    for Ai in A:
        row = [0] * p
        for a, Bk in zip(Ai, B):
            if a:
                for j, b in enumerate(Bk):
                    if b:
                        row[j] += a * b
        out.append(row)
    return out


def mat_rref(A):
    """Reduced row echelon form of a Fraction matrix; returns (rows, pivot
    column indices)."""
    rows = [list(r) for r in A]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                for j in range(c, ncols):
                    if rr[j]:
                        ri[j] -= f * rr[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [[_ZERO] * ncols for _ in range(len(rows) - r)], pivots
