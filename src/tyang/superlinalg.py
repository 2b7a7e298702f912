"""Super vector spaces, sign-correct tensor operators, and exact linear algebra
over the rational-function field.

Conventions fixed here and used everywhere else:
  * tensor bases are ordered lexicographically, leftmost factor most
    significant, and the parity of a tensor basis vector is the mod-2 sum of
    the factor parities;
  * an operator of parity pi acting on tensor factor k multiplies the basis
    vector v_{i_1} x ... x v_{i_l} by (-1)^(pi * (|i_1| + ... + |i_{k-1}|)),
    the sign being read off the source (column) indices.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from tyang import _kernel
from tyang.exactalg import Poly, RatFun, rat


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ArithmeticError):
    pass


class GridExhausted(RuntimeError):
    pass


class SuperSpace:
    """A finite-dimensional Z2-graded space given by its basis parities."""

    __slots__ = ("dim", "parities", "labels")

    def __init__(self, parities, labels=None):
        self.parities = tuple(int(p) % 2 for p in parities)
        self.dim = len(self.parities)
        self.labels = tuple(labels) if labels is not None else None

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
# Constant (Fraction) matrix helpers.  Matrices are lists of rows.

def mat_identity(n):
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[a * c for a in row] for row in A]


def mat_mul(A, B):
    return _kernel.mat_mul(A, B)


def mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v) if a), Fraction(0)) for row in A]


def clear_denominators(A):
    """A Fraction matrix as (N, d): N an integer matrix and d > 0 the lcm of
    the entry denominators, so that A = N / d."""
    d = lcm(*{x.denominator for row in A for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in A], d


def int_mat_mul(A, B):
    """Product of integer matrices with zero skipping, kept in Python ints.

    Fraction-free chains stay on this helper end to end; converting to and
    from Fraction inside mat_mul on each call costs more than it saves.
    """
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


def mat_nullspace(A):
    """Basis of the right nullspace of a Fraction matrix, in RREF convention."""
    if not A:
        return []
    ncols = len(A[0])
    rref, pivots = _kernel.mat_rref(A)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][j]
        basis.append(v)
    return basis


def mat_rank(A):
    if not A:
        return 0
    return len(_kernel.mat_rref(A)[1])


def charpoly(A) -> Poly:
    """Characteristic polynomial det(u*1 - A) by the Faddeev-LeVerrier scheme."""
    n = len(A)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = mat_identity(n)
    for k in range(1, n + 1):
        M = mat_mul(A, M)
        c = -sum(M[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            M[i][i] += c
    return Poly(coeffs)


def algebra_closure(gens, dim, include_identity=True, cap=None):
    """Span closure of a list of operators under matrix multiplication.

    Returns a list of matrices whose span is the unital algebra generated by
    gens inside End of a dim-dimensional space.
    """
    if cap is None:
        cap = dim * dim
    basis_rows = []   # RREF rows over the flattened dim^2 coordinates
    pivots = []
    basis_mats = []

    def reduce_and_add(mat):
        row = [x for r in mat for x in r]
        for br, p in zip(basis_rows, pivots):
            if row[p]:
                f = row[p]
                row = [x - f * y for x, y in zip(row, br)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            return False
        inv = 1 / row[lead]
        row = [x * inv for x in row]
        basis_rows.append(row)
        pivots.append(lead)
        basis_mats.append(mat)
        return True

    queue = []
    seeds = list(gens)
    if include_identity:
        seeds.append(mat_identity(dim))
    for g in seeds:
        if reduce_and_add(g):
            queue.append(g)
    head = 0
    while head < len(queue) and len(basis_mats) < cap:
        g = queue[head]
        head += 1
        for h in list(basis_mats):
            prod = mat_mul(g, h)
            if reduce_and_add(prod):
                queue.append(prod)
            if len(basis_mats) >= cap:
                break
            prod = mat_mul(h, g)
            if reduce_and_add(prod):
                queue.append(prod)
            if len(basis_mats) >= cap:
                break
    return basis_mats


# ---------------------------------------------------------------------------
# Koszul-signed tensor assembly.

def kron_ops(ops, spaces):
    """Assemble an operator prod_k x_k on the tensor of spaces.

    ops is a list aligned with spaces of pairs (matrix, parity), with matrix
    None standing for the identity.  Works uniformly for Fraction and RatFun
    entries; the Koszul sign of factor k is driven by the parities of the
    column indices of factors 1..k-1.
    """
    if len(ops) != len(spaces):
        raise DimensionMismatch("one operator slot per tensor factor required")
    total = [[Fraction(1)]]
    col_par = [0]
    for (m, par), sp in zip(ops, spaces):
        d = sp.dim
        if m is not None and (len(m) != d or (m and len(m[0]) != d)):
            raise DimensionMismatch("operator does not match its factor")
        nrows = len(total)
        ncols = len(total[0]) if total else 0
        new = [[Fraction(0)] * (ncols * d) for _ in range(nrows * d)]
        for r1 in range(nrows):
            row1 = total[r1]
            for c1 in range(ncols):
                v = row1[c1]
                if not v:
                    continue
                sign = -1 if (par and col_par[c1] % 2) else 1
                vs = v if sign == 1 else -v
                if m is None:
                    for r2 in range(d):
                        new[r1 * d + r2][c1 * d + r2] = vs
                else:
                    for r2 in range(d):
                        mr = m[r2]
                        for c2 in range(d):
                            if mr[c2]:
                                new[r1 * d + r2][c1 * d + c2] = vs * mr[c2]
        total = new
        col_par = [cp + q for cp in col_par for q in sp.parities]
    return total


def at_slots(nslots, placed):
    """A kron_ops operator list: placed maps 0-based slots to (matrix, parity),
    every other slot carries the identity."""
    return [placed.get(s, (None, 0)) for s in range(nslots)]


def elementary(k, i, j, c=1):
    """c * E_ij on a k-dimensional space, 1-based indices."""
    e = [[Fraction(0)] * k for _ in range(k)]
    e[i - 1][j - 1] = Fraction(c)
    return e


def kron_sum(terms, spaces):
    """The sum of w * kron_ops(ops, spaces) over the (w, ops) pairs in terms.

    Entries that no term touches stay Fraction(0), so RatFun sums go through
    RFMatrix.from_const.
    """
    dim = 1
    for sp in spaces:
        dim *= sp.dim
    total = [[Fraction(0)] * dim for _ in range(dim)]
    for w, ops in terms:
        for row, trow in zip(total, kron_ops(ops, spaces)):
            for c, x in enumerate(trow):
                if x:
                    if w != 1:
                        x = w * x
                    row[c] = row[c] + x if row[c] else x
    return total


def apply_at_factor(op, k, spaces, op_parity):
    """Lift op on the k-th factor (1-based) to the full tensor space.

    Returned as a constant RFMatrix on the tensor of spaces.
    """
    if not 1 <= k <= len(spaces):
        raise DimensionMismatch(f"factor index {k} out of range")
    grid = kron_ops(at_slots(len(spaces), {k - 1: (op, op_parity)}), spaces)
    sp = tensor_space(spaces)
    return RFMatrix.from_const(grid, row_space=sp, col_space=sp)


# ---------------------------------------------------------------------------
# Matrices over the rational-function field.

def common_den(entries) -> Poly:
    """The lcm of the denominators of the nonzero RatFun entries."""
    d = Poly.one()
    for e in entries:
        if e:
            d = d * (e.den // d.gcd(e.den))
    return d


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
            den = common_den(row)
            cleared = []
            maxdeg = -1
            for e in row:
                p = e.num * (den // e.den) if e else Poly.zero()
                cleared.append(p)
                maxdeg = max(maxdeg, p.degree)
            for k in range(maxdeg + 1):
                coeff_row = [
                    (p.coeffs[k] if k <= p.degree else Fraction(0)) for p in cleared
                ]
                if any(coeff_row):
                    rows.append(coeff_row)
    if not rows:
        return [v for v in mat_identity(ncols)]
    return mat_nullspace(rows)


@dataclass
class Grid2Witness:
    """A failed two-variable identity check, with the refuting point."""

    point: tuple
    lhs: list
    rhs: list
    status: str = "fail"
    label: str = ""


def check_identity_2var(lhs_eval, rhs_eval, deg_bound, bad_u=None, bad_v=None, bad_pair=None):
    """Certify a two-variable matrix identity on a degree-beating grid.

    lhs_eval and rhs_eval map a rational point (u0, v0) to matrices, and
    lhs_eval is called exactly once per grid point visited, before rhs_eval.
    Both sides may carry a common nonzero scale s(u0, v0) (say, integer
    matrices over the product of the factors' denominators): equality of
    s * lhs and s * rhs is equality of the sides, so the verdict is that of
    the unscaled identity.  deg_bound = (d_u, d_v) must dominate the degrees
    of both sides after clearing denominators; equality on a
    (d_u+1) x (d_v+1) product grid of admissible points then certifies the
    identity.  Returns None on pass and a Grid2Witness on the first failing
    point, holding the sides as the callbacks returned them (scaled, if
    they were).
    """
    d_u, d_v = deg_bound
    us = []
    cand = 1
    while len(us) < d_u + 1:
        if cand > 20000:
            raise GridExhausted("could not place the u-grid")
        c = Fraction(cand)
        if bad_u is None or not bad_u(c):
            us.append(c)
        cand += 2  # odd u-values
    vs = []
    cand = 2
    while len(vs) < d_v + 1:
        if cand > 20000:
            raise GridExhausted("could not place the v-grid")
        c = Fraction(cand)
        if (bad_v is None or not bad_v(c)) and (
            bad_pair is None or not any(bad_pair(u, c) for u in us)
        ):
            vs.append(c)
        cand += 2  # even v-values, so u-v and u+v never vanish
    for u0 in us:
        for v0 in vs:
            lhs = lhs_eval(u0, v0)
            rhs = rhs_eval(u0, v0)
            if lhs != rhs:
                return Grid2Witness((u0, v0), lhs, rhs)
    return None
