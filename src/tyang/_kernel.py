"""Arithmetic kernels on Fraction coefficient lists and matrices, in pure
Python.

Polynomials are dense coefficient lists of Fraction, index = degree, no
trailing zeros.  Matrices are lists of rows of Fraction.  Every function
returns fully normalized values.  _int_prem, the primitive pseudo-remainder
of integer polynomials, is the step of both poly_gcd and exactalg's Z[u]
gcd.
"""

from fractions import Fraction
from math import gcd

# The one implementation there is; environment stamps record it.
BACKEND = "pure"

_ZERO = Fraction(0)


def poly_mul(a, b):
    """Product of two coefficient lists."""
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    while out and not out[-1]:
        out.pop()
    return out


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


def _to_primitive_int(a):
    # Clear denominators and content; returns integer coefficient list.
    den = 1
    for c in a:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


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
    g = 0
    for c in rem:
        g = gcd(g, c)
    if g > 1:
        rem = [c // g for c in rem]
    return rem


def poly_gcd(a, b):
    """Monic gcd via a primitive remainder sequence over the integers."""
    if not a and not b:
        return []
    x = _to_primitive_int(a) if a else []
    y = _to_primitive_int(b) if b else []
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _int_prem(x, y)
    lead = x[-1]
    return [Fraction(c, lead) for c in x]


def poly_eval(a, x):
    """Horner evaluation at a Fraction point."""
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def mat_mul(A, B):
    """Matrix product with zero skipping."""
    n = len(A)
    m = len(B)
    p = len(B[0]) if m else 0
    out = []
    for i in range(n):
        row = [_ZERO] * p
        Ai = A[i]
        for k in range(m):
            a = Ai[k]
            if not a:
                continue
            Bk = B[k]
            for j in range(p):
                b = Bk[j]
                if b:
                    row[j] += a * b
        out.append(row)
    return out


def mat_rref(A):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
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
