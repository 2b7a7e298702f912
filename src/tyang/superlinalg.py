"""Super vector spaces, sign-correct tensor operators, and exact linear algebra
over the rational-function field.

Conventions fixed here and used everywhere else:
  * tensor bases are ordered lexicographically, leftmost factor most
    significant, and the parity of a tensor basis vector is the mod-2 sum of
    the factor parities;
  * an operator of parity pi acting on tensor factor k multiplies the basis
    vector v_{i_1} x ... x v_{i_l} by (-1)^(pi * (|i_1| + ... + |i_{k-1}|)),
    the sign being read off the source (column) indices.

Constant matrices are lists of rows of Python ints or Fractions, with
their products and echelon forms from tyang._kernel: mat_rank,
mat_nullspace and poly_kernel read one _kernel.echelon, and spin closes
a span of integer matrices under left multiplication on the
fraction-free _kernel.echelon_insert, for the algebra closure and the
irreducibility test; minpoly reads a matrix's minimal polynomial off the
same insertion of its powers.  check_identity_2var certifies a
two-variable identity, given its degree bound and its coefficient height
(which yangian.certify_words reads off the identity's words), at one
integer Kronecker point, and walks the integer grid only to locate a
witness.
Matrices over Z[u] (the resolvent cleared_resolvent returns, the rows
coefficient_rows splits into row-sparse integer matrices, one per power
of u) have the one layout of exactalg: row-sparse rows {column: integer
coefficient tuple}, an absent column the only zero.
"""

from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from tyang._kernel import cleared_rows, echelon, echelon_insert, mat_mul
from tyang.exactalg import Poly, RatFun, _zclear, _zreduce, rat


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ArithmeticError):
    pass


class GridExhausted(RuntimeError):
    pass


class DegreeBoundError(ArithmeticError):
    """A grid identity's degree bound is below the degrees of its sides."""


class SuperSpace:
    """A finite-dimensional Z2-graded space given by its basis parities."""

    __slots__ = ("dim", "parities")

    def __init__(self, parities):
        self.parities = tuple(int(p) % 2 for p in parities)
        self.dim = len(self.parities)

    def parity(self, idx: int) -> int:
        return self.parities[idx]

    def tensor(self, other: "SuperSpace") -> "SuperSpace":
        return SuperSpace(
            [(p + q) % 2 for p in self.parities for q in other.parities]
        )

    def __eq__(self, other):
        return isinstance(other, SuperSpace) and self.parities == other.parities

    def __repr__(self):
        return f"SuperSpace({list(self.parities)})"


def tensor_space(spaces) -> SuperSpace:
    out = SuperSpace([0])
    for sp in spaces:
        out = out.tensor(sp)
    return out


# ---------------------------------------------------------------------------
# Constant matrix helpers.  Matrices are lists of rows, of Python ints or
# Fractions; products and echelon forms come from tyang._kernel.  minpoly
# clears a rational matrix once (exactalg._zclear) and reads its minimal
# polynomial, in ints, off one echelon basis of its powers; the resolvent
# and twisted.irreducible_burnside read it.

def mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v) if a), Fraction(0)) for row in A]


# Row-sparse matrices: one {col: value} dict per row, zeros left out, the
# rows _kron_rows writes the (row, col, value) triples of the Koszul core
# into.  No stored entry is ever 0, so == on two such matrices is equality
# of the matrices.  Each helper builds an output row once, in one dict, at
# one dict write per term: it copies a row (sparse_add, and sparse_mul on
# a row of A with one entry) or scales it, or accumulates into it
# Gustavson-style, deleting an entry the moment it cancels, so no second
# pass filters a finished row; only sparse_scale by a scale that holds a 0
# filters, and sparse_mul copies a row in which an entry cancelled, to
# free the deleted slots.  No output row is an input row, and no input but
# the accumulator of sparse_addmul is changed.

def sparse_mul(A, B):
    """The product of row-sparse matrices of ints or Fractions.  A row of A
    with one entry a at k gives a times row k of B, copied once: every row
    of a signed permutation is such a row."""
    out = []
    for Ai in A:
        if len(Ai) == 1:
            ((k, a),) = Ai.items()
            out.append(dict(B[k]) if a == 1 else {j: a * b for j, b in B[k].items()})
            continue
        row, cancelled = {}, False
        for k, a in Ai.items():
            for j, b in B[k].items():
                prev = row.get(j)
                if prev is None:
                    row[j] = a * b
                elif x := prev + a * b:
                    row[j] = x
                else:
                    del row[j]
                    cancelled = True
        # A deleted entry keeps its slot until the dict is copied.
        out.append(dict(row) if cancelled else row)
    return out


def sparse_add(A, B, c=1):
    """A + c * B for row-sparse matrices of one shape: each row of A is
    copied once, and c * B is added into the copy in place."""
    out = []
    for Ai, Bi in zip(A, B):
        row = dict(Ai)
        for j, b in Bi.items():
            if c != 1:
                b = c * b
            prev = row.get(j)
            x = b if prev is None else prev + b
            if x:
                row[j] = x
            elif prev is not None:
                del row[j]
        out.append(row)
    return out


def sparse_addmul(acc, A, B=None, c=1):
    """acc += c * A * B in place, for row-sparse matrices of ints or
    Fractions, B = None standing for the identity; returns acc.  Entries
    that cancel are deleted, so == on the accumulator stays equality of
    the matrices, and no row of acc is copied."""
    for row, Ai in zip(acc, A):
        for k, a in Ai.items():
            if c != 1:
                a = c * a
            for j, b in ((k, 1),) if B is None else B[k].items():
                x = row.get(j, 0) + a * b
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return acc


def sparse_scale(A, c=1, rows=None, cols=None):
    """c * diag(rows) * A * diag(cols) for a row-sparse A; rows and cols
    are vectors (say, of signs) and None stands for all ones.  A product of
    nonzero numbers is nonzero, so the rows are filtered for zeros only
    when c, rows or cols holds a 0."""
    zero = not c or (rows is not None and 0 in rows) or (cols is not None and 0 in cols)
    out = []
    for i, Ai in enumerate(A):
        ci = c if rows is None else c * rows[i]
        if cols is None:
            row = {j: ci * x for j, x in Ai.items()}
        else:
            row = {j: ci * x * cols[j] for j, x in Ai.items()}
        out.append({j: x for j, x in row.items() if x} if zero else row)
    return out


def _transpose(rows, dim):
    """The transpose of a row-sparse matrix with dim columns, row-sparse."""
    out = [{} for _ in range(dim)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


def mat_nullspace(A):
    """Basis of the right nullspace of a matrix of ints or Fractions, in RREF
    convention, as Fraction vectors (_kernel.Echelon.vectors)."""
    return echelon(cleared_rows(A), len(A[0])).vectors() if A else []


def coefficient_rows(rows):
    """The integer matrices C_k with rows = sum_k C_k u^k, up to the degree
    of rows, a row-sparse matrix over Z[u], each row-sparse as rows is."""
    top = max((len(e) for row in rows for e in row.values()), default=0)
    return [[{c: e[k] for c, e in row.items() if k < len(e) and e[k]} for row in rows] for k in range(top)]


def poly_kernel(rows, ncols):
    """The Echelon (_kernel.echelon) of the integer rows of the coefficient
    matrices (coefficient_rows) of the row-sparse matrix rows over Z[u],
    with ncols columns: its null rows span the constant vectors x with
    r(u) . x = 0 for every row r, and with no nonzero row every column is
    free.  Scaling a row by a nonzero polynomial keeps its kernel, and the
    Echelon depends only on the row space, so it does not depend on how
    the rows were cleared."""
    return echelon([r for C in coefficient_rows(rows) for r in C if r], ncols)


def mat_rank(A):
    return len(echelon(cleared_rows(A), len(A[0])).basis) if A else 0


def minpoly(A):
    """(s, c, powers) for a rational matrix A: B = s A is integral
    (exactalg._zclear), sum_k c[k] B^k = 0 is its minimal polynomial, a
    primitive integer tuple with c[-1] > 0, and powers holds 1, B, ...,
    B^(m-1) for m = len(c) - 1.  The powers go into one echelon basis
    (_kernel.echelon_insert), power k flattened with one more column,
    n^2 + k, that tracks it; the first row whose pivot is such a column
    is zero on the entries, so its tracking part is the relation."""
    n = len(A)
    s, B = _zclear(A)
    N, rows, powers = n * n, {}, []
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        v = {c: x for c, x in enumerate(chain.from_iterable(P)) if x}
        v[N + len(powers)] = 1
        echelon_insert(rows, v)
        if (p := max(rows)) >= N:
            c = [rows[p].get(N + k, 0) for k in range(len(powers) + 1)]
            return s, tuple(-x for x in c) if c[-1] < 0 else tuple(c), powers
        powers.append(P)
        P = mat_mul(B, P)


def cleared_resolvent(A):
    """(u*1 - A)^{-1} = R / d over Z[u]: R a row-sparse matrix over Z[u]
    and d an integer coefficient tuple.  With B = s A and mu = sum_k c_k
    u^k its minimal polynomial (minpoly), the resolvent is the reduced
    adjoint s sum_(j<m) B^j h_j(s u) / mu(s u), h_j(u) = sum_(k>j) c_k
    u^(k-1-j), reduced by exactalg._zreduce, so d is the lcm of the
    reduced denominators up to a constant."""
    s, cs, Bs = minpoly(A)
    m = len(Bs)
    pw = [s**t for t in range(m + 1)]
    R = [{} for _ in A]
    for r, row in enumerate(R):
        for c in range(len(A)):
            p = [sum(Bs[j][r][c] * cs[j + 1 + t] for j in range(m - t)) * pw[t + 1] for t in range(m)]
            while p and not p[-1]:
                p.pop()
            if p:
                row[c] = tuple(p)
    d, entries = _zreduce(tuple(c * w for c, w in zip(cs, pw)), [p for row in R for p in row.values()])
    it = iter(entries)
    return [{c: next(it) for c in row} for row in R], d


def spin(start, maps, dim):
    """A basis of the smallest subspace that holds the matrices start and is
    closed under left multiplication by the matrices maps, in a space of
    dimension dim: the start matrices, then the images of each basis matrix
    under each map in turn, each kept when it is independent of those
    before it (_kernel.echelon_insert on its flattened entries).  A vector
    is spun as a one-column matrix.  Each map is applied once to each basis
    matrix, and integer input stays integer."""
    rows, basis = {}, []
    images = (mat_mul(A, X) for X in basis for A in maps)
    for X in chain(start, images):
        if echelon_insert(rows, {c: x for c, x in enumerate(chain.from_iterable(X)) if x}):
            basis.append(X)
            if len(basis) == dim:
                break
    return basis


def algebra_closure(gens, dim):
    """A basis of the unital algebra generated by the operators gens inside
    End of a dim-dimensional space: the spin of the identity under left
    multiplication by a basis of the span of gens, each cleared to an
    integer matrix first (a nonzero scale changes no span)."""
    basis = spin([_zclear(g)[1] for g in gens], [], dim * dim)
    one = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return spin([one], basis, dim * dim)


# ---------------------------------------------------------------------------
# Koszul-signed tensor assembly.

def _tensor_dim(spaces):
    dim = 1
    for sp in spaces:
        dim *= sp.dim
    return dim


def _col_parities(spaces):
    """The parities of the column indices of the first k factors, for k = 0
    up to the last factor: the prefixes that drive the Koszul signs."""
    out = [[0]]
    for sp in spaces[:-1]:
        out.append([(cp + q) % 2 for cp in out[-1] for q in sp.parities])
    return out


def _passed_parities(spaces, slot):
    """The parities an operator at factor slot passes, by the column index
    of the factors before it: an operator of parity par placed there takes
    the Koszul sign (-1)^(par * passed[c]) at column index c of those
    factors, the sign _kron_nonzero_rows applies."""
    return _col_parities(spaces[:slot + 1])[slot]


def _kron_nonzero_rows(ops, spaces, col_par):
    """kron_ops as its nonzero entries, a list of (row, col, value) triples
    with no two at one (row, col); col_par is _col_parities(spaces).  This
    is the one place Koszul signs are read.

    A flat scatter: the partial product is carried from factor to factor
    as its list of triples, extended by one list comprehension per factor.
    An identity slot of dim d maps each triple to d triples, and a matrix
    slot maps it to one triple per nonzero entry of the factor, read once;
    a slot of parity par negates the triple's value where the column
    prefix col_par[slot] is odd at the triple's column.  So the cost is
    the entries emitted, one tuple each, with no per-row dict built
    between factors, and as the factors' entries are nonzero, no emitted
    value is 0."""
    if len(ops) != len(spaces):
        raise DimensionMismatch("one operator slot per tensor factor required")
    ents = [(0, 0, 1)]
    for (m, par), sp, cp in zip(ops, spaces, col_par):
        d = sp.dim
        if m is None:
            ents = [(r * d + k, c * d + k, -v if par and cp[c] else v) for r, c, v in ents for k in range(d)]
            continue
        if len(m) != d or any(len(mr) != d for mr in m):
            raise DimensionMismatch("operator does not match its factor")
        nz = [(r2, c2, x) for r2, mr in enumerate(m) for c2, x in enumerate(mr) if x]
        ents = [(r * d + r2, c * d + c2, (-v if par and cp[c] else v) * x) for r, c, v in ents for r2, c2, x in nz]
    return ents


def _kron_rows(ops, spaces):
    """kron_ops as row-sparse rows: one {col: value} dict per row holding
    only the nonzero entries, each triple of _kron_nonzero_rows written
    straight into its row, so the cost is the entries emitted; the rows no
    entry reaches stay empty."""
    out = [{} for _ in range(_tensor_dim(spaces))]
    for r, c, v in _kron_nonzero_rows(ops, spaces, _col_parities(spaces)):
        out[r][c] = v
    return out


def _dense(rows, ncols):
    """Row-sparse rows as a dense matrix, Fraction(0) where a row is silent."""
    zero = Fraction(0)
    out = []
    for r in rows:
        row = [zero] * ncols
        for c, x in r.items():
            row[c] = x
        out.append(row)
    return out


def kron_ops(ops, spaces):
    """Assemble an operator prod_k x_k on the tensor of spaces.

    ops is a list aligned with spaces of pairs (matrix, parity), with matrix
    None standing for the identity.  Works uniformly for Fraction and RatFun
    entries; the Koszul sign of factor k is driven by the parities of the
    column indices of factors 1..k-1.  Built row-sparse by _kron_rows and
    returned dense.
    """
    rows = _kron_rows(ops, spaces)
    return _dense(rows, len(rows))


def at_slots(nslots, placed):
    """A kron_ops operator list: placed maps 0-based slots to (matrix, parity),
    every other slot carries the identity."""
    return [placed.get(s, (None, 0)) for s in range(nslots)]


def elementary(k, i, j, c=1):
    """c * E_ij on a k-dimensional space, 1-based indices; c is kept as
    given, so an integer c gives an integer matrix."""
    e = [[0] * k for _ in range(k)]
    e[i - 1][j - 1] = c
    return e


def _kron_sum_rows(terms, spaces):
    """kron_sum as row-sparse rows, with cancelled entries dropped: the
    triples of each term (_kron_nonzero_rows, on column parities computed
    once for all terms) are added straight into their rows, an entry
    deleted the moment it cancels."""
    col_par = _col_parities(spaces)
    total = [{} for _ in range(_tensor_dim(spaces))]
    for w, ops in terms:
        for r, c, x in _kron_nonzero_rows(ops, spaces, col_par):
            if w != 1:
                x = w * x
            row = total[r]
            prev = row.get(c)
            if prev is not None:
                x = prev + x
            if x:
                row[c] = x
            elif prev is not None:
                del row[c]
    return total


def kron_sum(terms, spaces):
    """The sum of w * kron_ops(ops, spaces) over the (w, ops) pairs in terms.

    The sparse rows of each term are added directly (_kron_sum_rows).
    Entries that no term touches stay Fraction(0), so RatFun sums go
    through RFMatrix.from_const.
    """
    rows = _kron_sum_rows(terms, spaces)
    return _dense(rows, len(rows))


# ---------------------------------------------------------------------------
# Matrices over the rational-function field.

def common_den(entries) -> Poly:
    """The lcm of the denominators of the nonzero RatFun entries."""
    d = Poly.one()
    for e in entries:
        if e:
            d = d * (e.den // d.gcd(e.den))
    return d


def cleared_coefficients(entries):
    """(den, coeffs) for a list of RatFun entries: den is their common_den,
    and coeffs[k] is the vector of u^k coefficients of den * entries, for k
    up to the largest cleared degree.  Every zero entry contributes zeros,
    and an all-zero list gives no vectors."""
    den = common_den(entries)
    cleared = [e.num * (den // e.den) if e else Poly.zero() for e in entries]
    zero = Fraction(0)
    top = max((p.degree for p in cleared), default=-1)
    return den, [[p.coeffs[k] if k <= p.degree else zero for p in cleared] for k in range(top + 1)]


class RFMatrix:
    """Dense matrix of RatFun entries, optionally tagged with super spaces."""

    __slots__ = ("entries", "rows", "cols", "row_space", "col_space")

    def __init__(self, entries, row_space=None, col_space=None):
        self.entries = [list(r) for r in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        self.row_space = row_space
        self.col_space = col_space

    @staticmethod
    def from_const(grid, row_space=None, col_space=None) -> "RFMatrix":
        zero = RatFun.zero()
        ents = [
            [x if isinstance(x, RatFun) else RatFun.const(x) if x else zero for x in row]
            for row in grid
        ]
        return RFMatrix(ents, row_space, col_space)

    @staticmethod
    def identity(n, space=None) -> "RFMatrix":
        one, zero = RatFun.one(), RatFun.zero()
        return RFMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            space,
            space,
        )

    @staticmethod
    def zero(n, m, row_space=None, col_space=None) -> "RFMatrix":
        z = RatFun.zero()
        return RFMatrix([[z] * m for _ in range(n)], row_space, col_space)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, RFMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return RFMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.row_space,
            self.col_space,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RFMatrix([[-a for a in row] for row in self.entries], self.row_space, self.col_space)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch("shape mismatch in product")
        zero = RatFun.zero()
        out = []
        for i in range(self.rows):
            Ai = self.entries[i]
            row = [zero] * other.cols
            for k in range(self.cols):
                a = Ai[k]
                if not a:
                    continue
                Bk = other.entries[k]
                for j in range(other.cols):
                    if Bk[j]:
                        row[j] = row[j] + a * Bk[j]
            out.append(row)
        return RFMatrix(out, self.row_space, other.col_space)

    def scale(self, c) -> "RFMatrix":
        c = c if isinstance(c, RatFun) else RatFun.const(rat(c))
        return RFMatrix([[a * c for a in row] for row in self.entries], self.row_space, self.col_space)

    def subs_linear(self, a, b) -> "RFMatrix":
        return RFMatrix(
            [[x.subs_linear(a, b) for x in row] for row in self.entries],
            self.row_space,
            self.col_space,
        )

    def subs_neg(self) -> "RFMatrix":
        return self.subs_linear(-1, 0)

    def shift(self, c) -> "RFMatrix":
        return self.subs_linear(1, c)

    def numerator_coefficients(self):
        """The Fraction matrices N_s with self = sum_s N_s u^s / d, d the
        common denominator of the entries (cleared_coefficients)."""
        _, coeffs = cleared_coefficients([e for row in self.entries for e in row])
        c = self.cols
        return [[vec[r:r + c] for r in range(0, len(vec), c)] for vec in coeffs]

    def eval_mat(self, x):
        """Evaluate all entries at a point, returning a Fraction matrix."""
        x = rat(x)
        return [[e(x) for e in row] for row in self.entries]

    def mat_vec(self, v):
        """Apply to a vector of Fractions or RatFuns; returns RatFun list."""
        out = []
        for row in self.entries:
            acc = RatFun.zero()
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = RatFun.one()
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if i == j:
                    if e != one:
                        return False
                elif e:
                    return False
        return True

    def check_parity(self, pi, row_parities=None, col_parities=None) -> bool:
        """True when every entry respects the grading of a parity-pi operator."""
        rp = row_parities or (self.row_space.parities if self.row_space else None)
        cp = col_parities or (self.col_space.parities if self.col_space else None)
        if rp is None or cp is None:
            raise ValueError("parities unavailable")
        for i in range(self.rows):
            for j in range(self.cols):
                if self.entries[i][j] and (rp[i] + cp[j]) % 2 != pi % 2:
                    return False
        return True

    def __repr__(self):
        return f"RFMatrix({self.rows}x{self.cols})"


def rfmat_inverse(M: RFMatrix) -> RFMatrix:
    """Exact inverse over the rational-function field.

    Gauss-Jordan with lowest-complexity pivoting; raises SingularMatrix when
    the determinant is the zero function.
    """
    if M.rows != M.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = M.rows
    A = [list(row) for row in M.entries]
    I = [[RatFun.one() if i == j else RatFun.zero() for j in range(n)] for i in range(n)]
    for col in range(n):
        piv, best = -1, None
        for r in range(col, n):
            e = A[r][col]
            if e:
                w = e.num.degree + e.den.degree
                if best is None or w < best:
                    piv, best = r, w
        if piv < 0:
            raise SingularMatrix("matrix is singular over the function field")
        A[col], A[piv] = A[piv], A[col]
        I[col], I[piv] = I[piv], I[col]
        inv = A[col][col].inverse()
        A[col] = [x * inv for x in A[col]]
        I[col] = [x * inv for x in I[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
                I[r] = [x - f * y for x, y in zip(I[r], I[col])]
    return RFMatrix(I, M.col_space, M.row_space)


def rfmat_kernel(Ms) -> list:
    """Basis of the common constant kernel of a family of RFMatrices.

    Clears denominators row by row and intersects the kernels of every
    polynomial coefficient row; returns Fraction vectors.
    """
    Ms = list(Ms)
    if not Ms:
        return []
    ncols = Ms[0].cols
    rows = []
    for M in Ms:
        if M.cols != ncols:
            raise DimensionMismatch("kernel of matrices with different column spaces")
        for row in M.entries:
            rows.extend(r for r in cleared_coefficients(row)[1] if any(r))
    return echelon(cleared_rows(rows), ncols).vectors()


class Grid2Witness(NamedTuple):
    """A failed two-variable identity check, with the refuting point."""

    point: tuple
    lhs: list
    rhs: list
    status: str = "fail"
    label: str = ""


def check_identity_2var(lhs_eval, rhs_eval, deg_bound, height, bad_u=None, bad_v=None):
    """Certify a two-variable matrix identity at one Kronecker point.

    lhs_eval and rhs_eval map an integer point (u0, v0), given as Python
    ints, to matrices, lhs_eval called before rhs_eval; bad_u and bad_v
    are called on ints as well.  Both sides may carry a common nonzero
    scale s(u0, v0) (say, integer matrices over the product of the
    factors' denominators): equality of s * lhs and s * rhs is equality of
    the sides, so the verdict is that of the unscaled identity.  Every
    entry of lhs - rhs, as a polynomial after clearing denominators, must
    have degree at most deg_bound = (d_u, d_v) in each variable and
    coefficients of absolute value at most height.

    The certificate is one point (X^e, X), X = 2^k > 2 height and
    e = max(d_v + 1, 2), X doubled while bad_u or bad_v refuses it: there
    lhs - rhs is Q(X) with Q the Kronecker image of the difference
    (exponent e i + j for u^i v^j), whose coefficients are at most height
    < X - 1 in absolute value, so Q(X) = 0 forces Q = 0 (Kronecker
    substitution).  e >= 2 keeps u0 != +-v0.  Returns None on pass.  When
    the point refutes, the (d_u+1) x (d_v+1) product grid of admissible
    odd u and even v is walked in order, each point evaluated once, only
    to locate a witness: equality on the whole grid would certify the
    identity (Combinatorial Nullstellensatz), so the first failing point
    is returned as a Grid2Witness, holding the point as Fractions and the
    sides as the callbacks returned them (scaled, if they were), and a
    grid that agrees raises DegreeBoundError.
    """
    d_u, d_v = deg_bound
    e, X = max(d_v + 1, 2), 1 << max(1, (2 * height).bit_length())
    while (bad_u is not None and bad_u(X**e)) or (bad_v is not None and bad_v(X)):
        X *= 2
    if lhs_eval(X**e, X) == rhs_eval(X**e, X):
        return None
    us = []
    cand = 1
    while len(us) < d_u + 1:
        if cand > 20000:
            raise GridExhausted("could not place the u-grid")
        if bad_u is None or not bad_u(cand):
            us.append(cand)
        cand += 2  # odd u-values
    vs = []
    cand = 2
    while len(vs) < d_v + 1:
        if cand > 20000:
            raise GridExhausted("could not place the v-grid")
        if bad_v is None or not bad_v(cand):
            vs.append(cand)
        cand += 2  # even v-values, so u-v and u+v never vanish
    for u0 in us:
        for v0 in vs:
            lhs = lhs_eval(u0, v0)
            rhs = rhs_eval(u0, v0)
            if lhs != rhs:
                return Grid2Witness((Fraction(u0), Fraction(v0)), lhs, rhs)
    raise DegreeBoundError(f"the sides differ, but agree on the {d_u + 1} x {d_v + 1} grid")
