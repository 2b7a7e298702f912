"""Exact arithmetic kernels in pure Python, one implementation per job.

Polynomials are dense coefficient sequences, index = degree, no trailing
zeros; matrices are lists of rows.  The jobs are the matrix product and
echelon form, and the polynomial product, division, gcd and evaluation.
The product and evaluation kernels serve Python ints and Fractions alike:
their sums start from the int 0, so integer data stays in ints and
Fraction data in Fractions (an entry nothing lands on is the int 0, equal
to Fraction(0)).  The echelon form is fraction-free: echelon_insert keeps
a Gauss-Jordan basis of primitive integer rows {column: int}, the one
row reduction of constant vectors there is, and echelon reads a span off
it once as an Echelon: its pivot rows, its free columns and its RREF
nullspace scaled to integers, the one value every reader of a span of
constant vectors takes (the sign quotient, the polynomial kernel and the
rank-reduction restriction).  mat_rref clears rational rows into one
Echelon and divides once per pivot row at the end.  The polynomial
division divides, so it takes Fractions.  The gcd is the primitive
remainder sequence over Z[u]; rational data is cleared to integers
before it.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

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


def _eliminate(v, r, p):
    """The primitive integer row a v - x r, zero at column p, for r[p] > 0
    and x / a = v[p] / r[p] in lowest terms: a > 0, so the sign of v is
    kept wherever r is zero.  Rows are {column: int} with no zero entry."""
    a, x = r[p], v[p]
    g = gcd(a, x)
    a, x = a // g, x // g
    out = {c: a * y for c, y in v.items()}
    for c, y in r.items():
        z = out.get(c, 0) - x * y
        if z:
            out[c] = z
        else:
            del out[c]
    g = gcd(*out.values())
    return {c: y // g for c, y in out.items()} if g > 1 else out


def echelon_insert(rows, v):
    """Insert the integer row v ({column: int}, no zero entry) into the
    echelon basis rows ({pivot: row}); True when v lies outside their span,
    which then grows by one row.

    rows is a Gauss-Jordan basis in primitive integer rows: each row is
    positive at its pivot, which is its leading column, and zero at every
    other pivot, so row / row[pivot] in pivot order is the reduced row
    echelon form of the span.  v is cleared at every pivot it meets by a
    fraction-free combination (_eliminate); what is left, made primitive
    and positive at its leading column, the new pivot, is then cleared
    from every row that meets that column.  The only divisions are exact
    ones, by contents."""
    for p in [c for c in v if c in rows]:
        v = _eliminate(v, rows[p], p)
    if not v:
        return False
    p = min(v)
    g = gcd(*v.values()) if v[p] > 0 else -gcd(*v.values())
    v = {c: x // g for c, x in v.items()}
    for q, r in rows.items():
        if p in r:
            rows[q] = _eliminate(r, v, p)
    rows[p] = v
    return True


class Echelon(NamedTuple):
    """The echelon form of a span of integer vectors of length ncols.

    basis holds the span's Gauss-Jordan basis (echelon_insert) in pivot
    order: primitive integer rows {column: int}, each positive at its
    pivot, its leading column, and zero at every other pivot, so row /
    row[pivot] is the RREF.  free lists the other columns, in order.
    null[q] is s times the RREF nullspace vector of free[q], an integer
    row {column: int}: s at free[q], 0 at every other free column, and
    minus s times the RREF's free[q] column at each pivot, for s the lcm
    of the pivot entries.  Those are also the rows of s P, for P the
    projection onto the free coordinates whose kernel is the span."""

    basis: list
    free: list
    s: int
    null: list

    def vectors(self):
        """The RREF nullspace basis, the rows of null over s, as dense
        Fraction vectors."""
        n = len(self.basis) + len(self.free)
        return [[Fraction(row.get(c, 0), self.s) for c in range(n)] for row in self.null]


def echelon(rows, ncols) -> Echelon:
    """The Echelon of the span of the integer rows ({column: int}, no zero
    entry) in a space of ncols columns; with no rows every column is free
    and s = 1.  A primitive pivot row that is nonzero off its pivot has
    content 1 there, so row[pivot] is the denominator of its part of the
    RREF, and s the lcm of those denominators."""
    basis = {}
    for v in rows:
        echelon_insert(basis, v)
    pivots = sorted(basis)
    free = [c for c in range(ncols) if c not in basis]
    s = lcm(*(basis[p][p] for p in pivots))
    null = {f: {f: s} for f in free}
    for p in pivots:
        m = s // basis[p][p]
        for c, x in basis[p].items():
            if c != p:
                null[c][p] = -x * m
    return Echelon([basis[p] for p in pivots], free, s, [dict(sorted(null[f].items())) for f in free])


def cleared_rows(A):
    """The rows of a matrix of ints or Fractions, each scaled by the lcm of
    its denominators to integers, as {column: int} rows."""
    scales = (lcm(*(x.denominator for x in r)) for r in A)
    return [{c: x.numerator * (s // x.denominator) for c, x in enumerate(r) if x} for r, s in zip(A, scales)]


def mat_rref(A):
    """Reduced row echelon form of a matrix of ints or Fractions; returns
    (rows, pivot column indices), as many Fraction rows as A has, the zero
    rows last.  Each row is cleared to integers (cleared_rows) and the span
    put in echelon form once (echelon); the one division is by each pivot
    entry at the end."""
    if not A:
        return [], []
    ncols = len(A[0])
    basis = echelon(cleared_rows(A), ncols).basis
    pivots = [min(r) for r in basis]
    out = [[Fraction(r[c], r[p]) if c in r else _ZERO for c in range(ncols)] for p, r in zip(pivots, basis)]
    return out + [[_ZERO] * ncols for _ in range(len(A) - len(pivots))], pivots
