"""Generating-series actions T(u) on modules: evaluation, shift, tensor,
inverse series, highest-weight extraction, and duals.

SeriesFamily is the one family type: a matrix of series x_ij(u) per
generator pair (i, j), 1-based, owning evaluation, assembly and the degree
data.  TAction (T(u)), TPrimeAction (T'(u)) and the twisted BAction (B(u))
are thin subclasses.  A family is held over Z[u] as its ClearedForm: D,
the common denominator, and the integer coefficients of c D x_ij(u) for
one rational c, made primitive by cleared_form, the one normaliser.  Each
block is a matrix over Z[u] in the one layout of exactalg: row-sparse
rows {column: coefficient tuple}, an absent column the only zero, and
every product of such matrices is exactalg._zmatmul.  Every
family is born a ClearedForm: evaluation and trivial modules, shifts (an
integer Taylor shift, ClearedForm.shift), tensor products and their
inverse series (Kronecker products of two cleared forms, _kron_blocks),
duals and their inverse series (a signed supertranspose of a form read at
-u, _supertranspose), the inverse series of an evaluation module and
every product of families.  RatFun entries enter through one reader,
cleared_form_rf: the JSON reader t_from_json (and twisted.b_from_json),
and the inverse series of a family with no rule for it, inverted by
Gauss-Jordan over the function field (rfmat_inverse).  The certifiers read
only the cleared form: grid values, products and series coefficients
(series_expansion), and the eigen-series of a highest vector
(highest_eigenseries), over one common denominator.  The RatFun blocks t
are a view, formed on first read (one reduced RatFun per entry) for the
JSON writers, full_at and that inverse.

The operator on module x V carries the sign (-1)^(|i||j|+|j|) in front of
the (i, j) block, which makes block products behave like ordinary matrix
products: a product of families (block_product) is the one product of
the unsigned block layouts of the two cleared forms (_layouts), sliced
back into kappa x kappa blocks (_blocks), with no gcd in the loop, never
formed on the assembled operator.  Koszul-signed assembly is for
operators that act on a tensor slot: the grid lifts of a family, where R
acts on V x V, and the coproducts.  Every flip and sum of lifts goes
through kron_ops (its row core _kron_rows, summed by kron_sum); the grid
lift (_lift_at) and the coproduct of two cleared forms (_kron_blocks)
read their Koszul signs off superlinalg._passed_parities, so every sign
follows the one rule of that assembler.
The grid checks run in integers only, at integer points: the one
Kronecker point of check_identity_2var, and grid points only to locate a
witness.  Each identity is two words over the same factors, families and
R factors, and certify_words, the one caller of check_identity_2var,
reads its degree bound, height, poles and witness scale off them.  Their
sides are row-sparse integer matrices from end to end.
cleared_evaluator memoises, per coordinate, the lift of a family
(cleared_at): each cleared coefficient evaluated at x (_kernel.poly_eval)
and written, with its block and Koszul signs, straight into {column: int}
rows of module x V x V in one signed scatter (_lift_at), whose signs are
read off superlinalg._passed_parities, so the rule stays with the Koszul
core; no lifted matrix is held dense.  The lifts are multiplied by
superlinalg.sparse_mul, and ScaledR applies x R(x) = x 1 - (1 x P) as a
signed permutation of rows or columns, never assembling 1 x R(x).  Both
sides of an identity are integer chains over one common nonzero scale
per point, and only a refuting point's sides are densified, for its
witness.  A family read at -u is the family of its
form's neg_u.  full_at, the RatFun evaluation assembled in Fraction
arithmetic by realize_mixed, is the reference they agree with.
"""

from fractions import Fraction
from typing import NamedTuple

from tyang._kernel import poly_eval, poly_mul
from tyang.exactalg import (
    Poly,
    PoleError,
    RatFun,
    _zadd,
    _zclear,
    _zcolumns,
    _zcompose,
    _zmatmul,
    _zneg,
    _zreduce,
    rat,
    rational_roots,
    rf_equal,
    rf_from_json,
    rf_to_json,
)
from tyang.glmn import GlModule, ParitySeq, json_blocks
from tyang.superlinalg import (
    DimensionMismatch,
    Grid2Witness,
    RFMatrix,
    SuperSpace,
    _kron_sum_rows,
    _passed_parities,
    at_slots,
    check_identity_2var,
    cleared_resolvent,
    common_den,
    elementary,
    kron_sum,
    rfmat_inverse,
    sparse_mul,
)


class NotHighest(ValueError):
    """The supplied vector is not a highest-weight vector."""


def _block_sign(ps: ParitySeq, i: int, j: int) -> int:
    """(-1)^(|i||j| + |j|), the matrix-product-friendly block sign."""
    pi, pj = ps.parity(i), ps.parity(j)
    return -1 if (pi * pj + pj) % 2 else 1


def realize_mixed(grids, ps: ParitySeq, spaces, e_slot: int):
    """Assemble sum_ij sign * x_ij x E_ij on the tensor of spaces.

    grids maps (i, j) to a Fraction matrix living on spaces[0]; E_ij is
    placed at spaces[e_slot] (a copy of V); every other factor carries the
    identity.  Returns a Fraction grid.
    """
    k = ps.kappa
    terms = []
    for (i, j), grid in grids.items():
        par = (ps.parity(i) + ps.parity(j)) % 2
        e = elementary(k, i, j, _block_sign(ps, i, j))
        terms.append((1, at_slots(len(spaces), {0: (grid, par), e_slot: (e, par)})))
    return kron_sum(terms, spaces)


def r_matrix_at(P, x: Fraction):
    """R(x) = 1 - P/x evaluated at a nonzero rational point, for P
    row-sparse (flip_at).

    The certifiers apply R through ScaledR instead; this dense Fraction
    form is the reference that grid witnesses are compared against."""
    n = len(P)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, row in enumerate(P):
        for c, p in row.items():
            out[i][c] -= p / x
    return out


class ScaledR:
    """x R(x) = x 1 - (1 x P) on carrier x V x V at an integer x, applied
    to row-sparse integer matrices in O(nnz).

    P is the graded flip on V x V, a signed permutation, so 1 x P moves
    whole rows (from the left) or columns (from the right) of a matrix up
    to sign; no R-matrix is assembled, and entries that cancel are dropped.
    Both products carry the scale x, so x = 0, where the scale would make
    both sides vanish, is refused.
    """

    def __init__(self, P, carrier_dim):
        n = len(P)
        # P row-sparse (flip_at): one (column, sign) entry in each row.
        self.rows = [(m * n + c, s) for m in range(carrier_dim) for row in P for c, s in row.items()]

    def left(self, x, M):
        """x R(x) M: row r is x M_r - s M_j, for (j, s) = rows[r]."""
        if not x:
            raise ZeroDivisionError("R(x) has a pole at x = 0")
        out = []
        for Mi, (j, s) in zip(M, self.rows):
            row = {c: x * a for c, a in Mi.items()}
            for c, b in M[j].items():
                v = row.get(c, 0) - s * b
                if v:
                    row[c] = v
                else:
                    del row[c]
            out.append(row)
        return out

    def right(self, M, x):
        """M x R(x): entry (r, k) of M moves to column j with sign s, for
        (j, s) = rows[k]."""
        if not x:
            raise ZeroDivisionError("R(x) has a pole at x = 0")
        out = []
        for Mi in M:
            row = {c: x * a for c, a in Mi.items()}
            for k, a in Mi.items():
                j, s = self.rows[k]
                v = row.get(j, 0) - s * a
                if v:
                    row[j] = v
                else:
                    del row[j]
            out.append(row)
        return out


def cleared_evaluator(family, slot):
    """x -> (N, d) with family.full_at(x, slot, 2) = N / d at an integer x,
    N an integer matrix and d a nonzero integer (SeriesFamily.cleared_at).

    Memoised per coordinate and evaluated on first use, so a check
    evaluates each family once per coordinate and a failing one no further
    than it reaches.
    """
    cache = {}

    def at(x):
        if x not in cache:
            cache[x] = family.cleared_at(x, slot)
        return cache[x]

    return at


class ClearedForm(NamedTuple):
    """A series family over one denominator (cleared_form).

    D is the reduced common denominator of the entries, and degree the
    cleared degree, the largest degree of D and of the D x_ij(u).  One
    rational factor c, the same for the whole family, makes the
    coefficients of c D (den_coeffs) and of every c D x_ij(u) integers
    with no common divisor, the leading one of c D positive; blocks maps
    (i, j) to the rows of c D x_ij(u) over Z[u], row-sparse: {column:
    coefficient tuple, constant term first}, with no zero entry stored.
    """

    degree: int
    den_coeffs: tuple
    blocks: dict

    def l1(self) -> int:
        """The largest l1 norm (sum of absolute coefficients) of an entry
        c D x_ij(u), from which the grid certifiers bound their heights."""
        return max((sum(map(abs, e)) for rows in self.blocks.values() for row in rows for e in row.values()), default=0)

    def neg_u(self) -> "ClearedForm":
        """The form of the family at -u: the odd coefficients change sign,
        and every coefficient once more when D has odd degree, which keeps
        the leading coefficient of c D positive."""
        odd = (len(self.den_coeffs) - 1) % 2

        def flip(p):
            return tuple(-c if (t + odd) % 2 else c for t, c in enumerate(p))

        den = flip(self.den_coeffs)
        blocks = {key: [{c: flip(e) for c, e in row.items()} for row in rows] for key, rows in self.blocks.items()}
        return ClearedForm(self.degree, den, blocks)

    def negate_block(self, key) -> "ClearedForm":
        """The form with x_key(u) replaced by -x_key(u), still reduced and
        primitive."""
        rows = [{c: _zneg(e) for c, e in row.items()} for row in self.blocks[key]]
        return self._replace(blocks={**self.blocks, key: rows})

    def shift(self, c) -> "ClearedForm":
        """The form of the family at u + c: for c = p/q, D and every entry
        become q^n f(u + p/q) in Z[u], n the cleared degree."""
        c = rat(c)
        move = lambda e: _zcompose(e, c.denominator, c.numerator, c.denominator, self.degree)
        blocks = {key: [{c: move(e) for c, e in row.items()} for row in rows] for key, rows in self.blocks.items()}
        return cleared_form(move(self.den_coeffs), blocks)


def cleared_form(den, blocks) -> ClearedForm:
    """The ClearedForm of the family blocks / den over Z[u].

    den is an integer coefficient tuple and blocks maps (i, j) to
    row-sparse rows of nonzero integer coefficient tuples; the pair need
    not be reduced.  exactalg._zreduce divides out the primitive gcd of den
    and every entry, then the content of the whole family, with the sign
    that makes the leading coefficient of den positive.  Every ClearedForm
    comes from here, whether the family was built in integers or from
    RatFun entries.
    """
    den, entries = _zreduce(den, [e for rows in blocks.values() for row in rows for e in row.values()])
    it = iter(entries)
    out = {key: [{c: next(it) for c in row} for row in rows] for key, rows in blocks.items()}
    degree = max([len(den), *map(len, entries)]) - 1
    return ClearedForm(degree, den, out)


def cleared_form_rf(blocks) -> ClearedForm:
    """The ClearedForm of RatFun blocks {(i, j): rows of RatFun}, over the
    lcm of their reduced denominators: the one reader of RatFun input (the
    JSON readers and the Gauss-Jordan inverse series)."""
    D = common_den(e for rows in blocks.values() for row in rows for e in row)
    num = {
        key: [{c: (e.num * (D // e.den)).coeffs for c, e in enumerate(row) if e} for row in rows]
        for key, rows in blocks.items()
    }
    return cleared_form(*_integral(D.coeffs, num))


def _integral(den, blocks):
    """(den, blocks) with rational coefficient lists cleared over one scale
    to integer coefficient tuples (exactalg._zclear): the input of
    cleared_form for a family met over the rationals."""
    _s, (den, *entries) = _zclear([den, *(e for rows in blocks.values() for row in rows for e in row.values())])
    it = iter(entries)
    return den, {key: [{c: next(it) for c in row} for row in rows] for key, rows in blocks.items()}


def series_expansion(rows, den, order, ncols=None):
    """The coefficients of u^0, ..., u^-order in the expansion at infinity
    of rows / den, as dense Fraction matrices: den an integer coefficient
    tuple and rows a row-sparse matrix over Z[u] (as a ClearedForm block),
    with ncols columns (square by default).  A common scale of rows and den
    cancels.  Raises ValueError when an entry has no expansion (numerator degree
    above that of den).
    """
    D = len(den) - 1
    b = den[::-1]
    # The coefficient of u^-r is e_r / b_0^(r+1), with e_r an integer:
    # e_r = a_r b_0^r - sum_{s=1..min(r, D)} b_s e_(r-s) b_0^(s-1).
    pw = [b[0] ** r for r in range(order + 2)]
    zero = Fraction(0)
    n = len(rows) if ncols is None else ncols
    out = [[[zero] * n for _ in rows] for _ in range(order + 1)]
    for q, row in enumerate(rows):
        for c, p in row.items():
            if len(p) - 1 > D:
                raise ValueError("no expansion at infinity: numerator degree too large")
            es = []
            for r in range(order + 1):
                a = p[D - r] if 0 <= D - r < len(p) else 0
                es.append(a * pw[r] - sum(b[s] * es[r - s] * pw[s - 1] for s in range(1, min(r, D) + 1)))
                out[r][q][c] = Fraction(es[r], pw[r + 1])
    return out


def _layouts(A: ClearedForm, B: ClearedForm):
    """(kappa, LA, LB): LA and LB the unsigned block layouts [[x_ij]] of A
    and B, each one row-sparse matrix over Z[u] whose row (i - 1) d + q and
    column (j - 1) d + p hold entry (q, p) of block (i, j), d the dimension
    of the module, and kappa the largest index of a key of either.  A
    missing key counts as a zero block."""
    kk = max(max(key) for key in (*A.blocks, *B.blocks))
    d = len(next(iter(A.blocks.values())))
    out = []
    for form in (A, B):
        rows = [{} for _ in range(kk * d)]
        for (i, j), block in form.blocks.items():
            base = (j - 1) * d
            for r, row in enumerate(block, (i - 1) * d):
                rows[r].update({base + c: e for c, e in row.items()})
        out.append(rows)
    return kk, *out


def _blocks(rows, kk):
    """The kappa x kappa blocks {(i, j): rows} of a block layout."""
    d = len(rows) // kk
    out = {(i, j): [] for i in range(1, kk + 1) for j in range(1, kk + 1)}
    for r, row in enumerate(rows):
        parts = [{} for _ in range(kk)]
        for c, e in row.items():
            parts[c // d][c % d] = e
        for j, part in enumerate(parts, 1):
            out[(r // d + 1, j)].append(part)
    return out


def block_product(A: ClearedForm, B: ClearedForm, mid=None):
    """{(i, j): sum_k A_ik mid_k B_kj} for two families in cleared form, in
    Z[u], as (den, blocks): den the product of the denominators and blocks
    the integer product.

    Under the block sign of _block_sign this is the product of the two
    assembled operators on module x V, read back block by block; it is
    formed as the one product of the block layouts (_layouts), and no gcd
    is taken, so cleared_form(*block_product(A, B)) is the product as a
    family.  mid, when given, is (d, nums): a middle factor diagonal on V,
    the scalar nums[k - 1] / d (integer coefficient tuples) standing
    between A_ik and B_kj.  A missing key counts as a zero block.
    """
    kk, left, right = _layouts(A, B)
    den = poly_mul(A.den_coeffs, B.den_coeffs)
    if mid is not None:
        d, nums = mid
        den = poly_mul(den, d)
        n = len(left) // kk
        left = _zmatmul(left, [{c: nums[c // n]} for c in range(len(left))])
    return den, _blocks(_zmatmul(left, right), kk)


def scalar_product(A: ClearedForm, B: ClearedForm):
    """(den, f, scalar) for the block product of A and B: den and f its
    denominator and the first diagonal entry of its (1, 1) block, as
    integer coefficient tuples (f is () when that entry is zero), and
    scalar whether the product is f / den times the identity, with every
    diagonal entry f and every other entry zero.  A zero product is
    scalar with f = ()."""
    _kk, left, right = _layouts(A, B)
    P = _zmatmul(left, right)
    f = P[0].get(0, ())
    scalar = P == [{r: f} for r in range(len(P))] if f else not any(P)
    return poly_mul(A.den_coeffs, B.den_coeffs), f, scalar


def scalar_entry(A: ClearedForm, B: ClearedForm):
    """(den, f) as scalar_product returns them, with the entry f formed
    alone: the first rows of the blocks A_1k side by side times the blocks
    B_k1 stacked below one another, in one product.  A missing key counts
    as a zero block."""
    keys = [k for i, k in A.blocks if i == 1 and (k, 1) in B.blocks]
    d = len(B.blocks[(1, 1)])
    left = [{t * d + c: e for t, k in enumerate(keys) for c, e in A.blocks[(1, k)][0].items()}]
    row = _zmatmul(left, [row for k in keys for row in B.blocks[(k, 1)]])[0]
    return poly_mul(A.den_coeffs, B.den_coeffs), row.get(0, ())


class SeriesFamily:
    """A generating matrix sum_ij E_ij x x_ij(u) on one module, given by its
    ClearedForm.

    T(u), its inverse series T'(u) and the twisted B(u) all share this
    layout, so evaluation, assembly and degree data live here once.  The
    entries are never changed after construction, so the RatFun blocks t
    are computed once, on first use, and kept.
    """

    def __init__(self, ps: ParitySeq, space: SuperSpace, form: ClearedForm, provenance=("direct",)):
        self.ps = ps
        self.space = space
        self.provenance = provenance
        self._cleared = form
        self._t = None

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def kappa(self) -> int:
        return self.ps.kappa

    @property
    def t(self):
        """The RFMatrix blocks, formed on first read, one reduced RatFun per
        nonzero entry: the view of the JSON writers, full_at and the
        Gauss-Jordan inverse."""
        if self._t is None:
            form, sp = self._cleared, self.space
            den, zero, cols = Poly(form.den_coeffs), RatFun.zero(), range(sp.dim)
            self._t = {
                key: RFMatrix([[RatFun(Poly(row[c]), den) if c in row else zero for c in cols] for row in rows], sp, sp)
                for key, rows in form.blocks.items()
            }
        return self._t

    def full_at(self, x, slot=1, nslots=1):
        """Numeric full operator at u = x.

        The Fraction reference for cleared_at, which the grid checks use."""
        x = rat(x)
        grids = {key: m.eval_mat(x) for key, m in self.t.items()}
        spaces = [self.space] + [self.ps.space()] * nslots
        return realize_mixed(grids, self.ps, spaces, slot)

    def cleared(self) -> ClearedForm:
        """The family over its common denominator."""
        return self._cleared

    def cleared_at(self, x, slot):
        """(N, d) with full_at(x, slot, 2) = N / d in integers, at an
        integer x, N row-sparse (_lift_at).  Raises PoleError where D
        vanishes, so d is never zero."""
        d = poly_eval(self.cleared().den_coeffs, x)
        if not d:
            raise PoleError(f"the common denominator vanishes at u = {x}")
        return _lift_at(self, x, slot), d


def _lift_at(family, x, slot):
    """The lift of the cleared family c D x_ij(u) at an integer x to module
    x V x V, the V factor of the family at slot (1 or 2), as row-sparse
    integer rows: sum_ij (-1)^(|i||j|+|j|) N_ij(x) x E_ij, Koszul-signed
    as realize_mixed assembles it.

    One pass over the cleared entries, each evaluated once
    (_kernel.poly_eval): entry (q, p) of block (i, j) lands at row
    (q k + i - 1) k + b and column (p k + j - 1) k + b for slot 1, and at
    row (q k + c) k + i - 1 and column (p k + c) k + j - 1 for slot 2,
    k = kappa, with the block sign times (-1)^(|x_ij| |passed|), the
    parities passed read off superlinalg._passed_parities: |p| at slot 1,
    |p| + |c| at slot 2.  Entries vanishing at x are left out.
    """
    ps, k = family.ps, family.kappa
    V = ps.space()
    passed = _passed_parities([family.space, V, V], slot)
    par = V.parities
    rows = [{} for _ in range(family.dim * k * k)]
    for (i, j), block in family.cleared().blocks.items():
        odd = par[i - 1] ^ par[j - 1]
        bs = _block_sign(ps, i, j)
        for q, row in enumerate(block):
            if slot == 1:
                signed = {}
                for p, cs in row.items():
                    v = poly_eval(cs, x)
                    if v:
                        signed[(p * k + j - 1) * k] = -bs * v if odd and passed[p] else bs * v
                if signed:
                    base = (q * k + i - 1) * k
                    for b in range(k):
                        rows[base + b].update({col + b: v for col, v in signed.items()})
            else:
                vals = [(p, bs * v) for p, cs in row.items() if (v := poly_eval(cs, x))]
                if vals:
                    for c in range(k):
                        rows[(q * k + c) * k + i - 1].update(
                            {(p * k + c) * k + j - 1: -v if odd and passed[p * k + c] else v for p, v in vals}
                        )
    return rows


class TAction(SeriesFamily):
    """The family { t_ij(u) } of T(u) on one module."""

    _tprime = None  # the inverse-series family, once computed


class TPrimeAction(SeriesFamily):
    """The inverse-series family { t'_ij(u) }."""


def trivial_action(ps: ParitySeq) -> TAction:
    """The one-dimensional module with t_ij(u) = delta_ij."""
    idx = range(1, ps.kappa + 1)
    blocks = {(i, j): [{0: (1,)} if i == j else {}] for i in idx for j in idx}
    return TAction(ps, SuperSpace([0]), cleared_form((1,), blocks), ("trivial",))


def evaluation_action(M: GlModule, z=0) -> TAction:
    """t_ij(u) = delta_ij + s_i e_ij / (u - z) on a gl module, built over
    the denominator u - z."""
    z = rat(z)
    idx, d = range(1, M.ps.kappa + 1), M.dim
    blocks = {}
    for i in idx:
        si = M.ps.sign(i)
        for j in idx:
            e = M.e(i, j)
            rows = [{q: (si * x,) for q, x in enumerate(e[p]) if x} for p in range(d)]
            if i == j:
                for p, row in enumerate(rows):
                    row[p] = (si * e[p][p] - z, 1)
            blocks[(i, j)] = rows
    form = cleared_form(*_integral((-z, 1), blocks))
    return TAction(M.ps, M.space, form, ("evaluation", M, z))


def shift_action(T: TAction, z) -> TAction:
    """Pull back through u -> u - z in every entry."""
    z = rat(z)
    return TAction(T.ps, T.space, T.cleared().shift(-z), ("shift", T, z))


def _kron_blocks(terms, spaces):
    """sum_t w_t A_t x B_t on the tensor of two spaces, for terms (w, [(A,
    par_A), (B, par_B)]) with w = +-1 and A and B row-sparse matrices over
    Z[u], as such a matrix.

    The entry at ((r1, r2), (c1, c2)) is w A[r1][c1] B[r2][c2] times the
    Koszul sign (-1)^(par_B |c1|) of B passing column c1 of the first
    factor, read off superlinalg._passed_parities as _lift_at reads it.
    """
    d2 = spaces[1].dim
    passed = _passed_parities(spaces, 1)
    acc = [{} for _ in range(spaces[0].dim * d2)]
    for w, ((A, _), (B, par)) in terms:
        for r1, rowA in enumerate(A):
            for c1, a in rowA.items():
                neg = (w == -1) != bool(par and passed[c1])
                for r, rowB in enumerate(B, r1 * d2):
                    row = acc[r]
                    for c2, b in rowB.items():
                        p = poly_mul(a, b)
                        p = _zneg(p) if neg else p
                        c = c1 * d2 + c2
                        row[c] = _zadd(row[c], p) if c in row else p
    return [{c: e for c, e in row.items() if e} for row in acc]


def tensor_action(L: TAction, R: TAction) -> TAction:
    """Coproduct action t_ij = sum_k t_ik x t_kj on L x R, over the product
    of the two denominators."""
    if L.ps != R.ps:
        raise DimensionMismatch("tensor factors over different parity sequences")
    ps = L.ps
    idx = range(1, ps.kappa + 1)
    A, B = L.cleared(), R.cleared()
    par = lambda a, b: (ps.parity(a) + ps.parity(b)) % 2
    blocks = {
        (i, j): _kron_blocks(
            [(1, [(A.blocks[(i, k)], par(i, k)), (B.blocks[(k, j)], par(k, j))]) for k in idx],
            [L.space, R.space],
        )
        for i in idx
        for j in idx
    }
    form = cleared_form(poly_mul(A.den_coeffs, B.den_coeffs), blocks)
    return TAction(ps, L.space.tensor(R.space), form, ("tensor", L, R))


def _supertranspose(ps: ParitySeq, space: SuperSpace, form: ClearedForm) -> ClearedForm:
    """The signed supertranspose of dual_action: block (i, j) holds at
    (q, p) the entry (p, q) of block (j, i), times the block sign of (i, j)
    and (-1)^((|i| + |j|) |p|)."""
    idx, pars = range(1, ps.kappa + 1), space.parities
    blocks = {}
    for i in idx:
        for j in idx:
            pij = (ps.parity(i) + ps.parity(j)) % 2
            bs = _block_sign(ps, i, j)
            out = blocks[(i, j)] = [{} for _ in pars]
            for p, row in enumerate(form.blocks[(j, i)]):
                sign = bs * (-1 if pij and pars[p] else 1)
                for q, e in row.items():
                    out[q][p] = e if sign == 1 else _zneg(e)
    return cleared_form(form.den_coeffs, blocks)


def inverse_series_action(T: TAction) -> TPrimeAction:
    """The family t'_ij(u) with T(u) T'(u) = T'(u) T(u) = 1, exactly.

    Block products are ordinary matrix products, so the inverse of the
    unsigned block layout [[t_ij]], sliced back into blocks, is the inverse
    family.  An evaluation module has the layout 1 + E/(u - z), E the
    constant layout of s_i e_ij, with inverse (u - z) (u - z + E)^{-1}: the
    resolvent of z 1 - E (cleared_resolvent, over Z[u]) times u - z, and
    its cleared form is read off those integer coefficients.  T(u) = 1 on the
    trivial module is its own inverse.  Tensor provenance is inverted
    factorwise through the inverse-series coproduct, a shift is the shift
    of the inverse, and the dual of T has inverse series the signed
    supertranspose of T(-u), the rule dual_action applies to T'(-u).
    Anything else (a family with no provenance, or a functor output)
    inverts the layout by Gauss-Jordan over the function field.
    """
    if T._tprime is not None:
        return T._tprime
    ps = T.ps
    kk = ps.kappa
    idx = range(1, kk + 1)
    kind = T.provenance[0]
    if kind == "trivial":
        form = T.cleared()
    elif kind == "tensor":
        L, R = T.provenance[1], T.provenance[2]
        Lp, Rp = inverse_series_action(L).cleared(), inverse_series_action(R).cleared()
        par = lambda a, b: (ps.parity(a) + ps.parity(b)) % 2
        blocks = {
            (i, j): _kron_blocks(
                [(-1 if par(a, j) * par(i, a) else 1, [(Lp.blocks[(a, j)], par(a, j)), (Rp.blocks[(i, a)], par(i, a))])
                 for a in idx],
                [L.space, R.space],
            )
            for i in idx
            for j in idx
        }
        form = cleared_form(poly_mul(Lp.den_coeffs, Rp.den_coeffs), blocks)
    elif kind == "shift":
        form = inverse_series_action(T.provenance[1]).cleared().shift(-T.provenance[2])
    elif kind == "dual":
        form = _supertranspose(ps, T.space, T.provenance[1].cleared().neg_u())
    elif kind == "evaluation":
        d = T.dim
        M, z = T.provenance[1], T.provenance[2]
        A = [[-ps.sign(i) * x for j in idx for x in M.e(i, j)[q]] for i in idx for q in range(d)]
        for r, row in enumerate(A):
            row[r] += z
        R, den = cleared_resolvent(A)
        # (u - z) R / den, both sides scaled by the denominator q of z so
        # that q (u - z) is integral.
        w = (-z.numerator, z.denominator)
        form = cleared_form(poly_mul(den, w[1:]), _blocks(_zmatmul(R, [{c: w} for c in range(len(R))]), kk))
    else:
        d = T.dim
        layout = [[x for j in idx for x in T.t[(i, j)].entries[q]] for i in idx for q in range(d)]
        inv = rfmat_inverse(RFMatrix(layout)).entries
        form = cleared_form_rf({
            (i, j): [row[(j - 1) * d:j * d] for row in inv[(i - 1) * d:i * d]] for i in idx for j in idx
        })
    T._tprime = TPrimeAction(ps, T.space, form)
    return T._tprime


def dual_action(T: TAction) -> TAction:
    """Action on the dual space through the inverse-transpose twist.

    t*_ij(u) is the sign-adjusted supertranspose of t'_ji(-u)
    (_supertranspose); highest vectors dualize to highest vectors with the
    predictable weight.
    """
    form = _supertranspose(T.ps, T.space, inverse_series_action(T).cleared().neg_u())
    return TAction(T.ps, SuperSpace(T.space.parities), form, ("dual", T))


# ---------------------------------------------------------------------------
# Highest weights.

def highest_eigenseries(family: SeriesFamily, xi, letter):
    """(nums, den): the eigen-series of a highest vector xi of any series
    family over one common denominator, x_ii(u) xi = nums[i - 1] / den xi,
    as integer coefficient tuples (nums[i - 1] is () for a zero series).

    Read off the cleared form (c D, the rows of c D x_ij(u)) applied to
    z = s xi, xi scaled to an integer vector and taken as a one-column
    matrix Z: x_ij(u) xi = w / (s c D) with w = (c D x_ij(u)) Z in Z[u].
    Verifies x_ij(u) xi = 0 for i < j (w is zero) and proportionality on
    the diagonal by cross multiplication, w z_p = Z w_p for p the first
    nonzero coordinate, so that nums[i - 1] = w_p and den = z_p c D; raises
    NotHighest otherwise, naming the generator by letter (x_ij is written
    letter_ij).
    """
    xi = [rat(x) for x in xi]
    if not any(xi):
        raise NotHighest("zero vector")
    form = family.cleared()
    _s, (z,) = _zclear([xi])
    Z = _zcolumns([z], len(z))
    kk = family.kappa
    for i in range(1, kk + 1):
        for j in range(i + 1, kk + 1):
            if any(_zmatmul(form.blocks[(i, j)], Z)):
                raise NotHighest(f"{letter}_{i}{j}(u) does not annihilate the vector")
    p = next(k for k, x in enumerate(z) if x)
    zp = (z[p],)
    nums = []
    for i in range(1, kk + 1):
        w = _zmatmul(form.blocks[(i, i)], Z)
        if _zmatmul(w, [{0: zp}]) != _zmatmul(Z, w[p:p + 1]):
            raise NotHighest(f"{letter}_{i}{i}(u) is not scalar on the vector")
        nums.append(w[p].get(0, ()))
    return tuple(nums), poly_mul(form.den_coeffs, zp)


def highest_lweight(T: TAction, xi):
    """Extract the eigen-series tuple of a highest vector of T(u), as
    reduced RatFun."""
    nums, den = highest_eigenseries(T, xi, "t")
    den = Poly(den)
    return tuple(RatFun(Poly(n), den) for n in nums)


def varpi_weight(lams, ps: ParitySeq):
    """The ordinary weight attached to an eigen-series tuple."""
    out = []
    for i, lam in enumerate(lams, start=1):
        c1 = lam.series(1)[1]
        out.append(ps.sign(i) * c1)
    return tuple(out)


def lambda_prime_formula(lams, ps: ParitySeq, i: int) -> RatFun:
    """Closed form for the inverse-series eigenvalue on a highest vector."""
    kk = ps.kappa
    out = lams[i - 1].shift(ps.rho(i + 1)).inverse()
    for k in range(i + 1, kk + 1):
        out = out * lams[k - 1].shift(ps.rho(k)) / lams[k - 1].shift(ps.rho(k + 1))
    return out


def lambda_prime_check(T: TAction, xi, lams=None):
    """Verify the inverse-series behaviour on a highest vector.

    Clause a: t'_ij(u) xi = 0 for i < j.  Clause b: t'_ii(u) xi equals the
    closed-form eigenvalue.  Clause c: the killing products
    t_ia(u) t'_cj(v) xi vanish identically in u and v, for i < j with
    c <= a and for i = j with c < a.  All three are read off the cleared
    forms T = N / d and T' = N' / d', with xi scaled to an integer vector
    z, a one-column matrix Z: clause a is N'_ij(u) Z = 0, clause b is
    l_d N'_ii(u) Z = l_n d' Z for the closed form l_n / l_d, and a product
    of clause c vanishes identically exactly when N_ia(u) kills every
    u-coefficient vector of N'_cj(v) Z, the columns of one constant
    matrix.  Returns None on success, else a (clause, detail)
    pair: ("a", (i, j)), ("b", i) or ("c", (i, a, c, j)), the first
    failure in that order.
    """
    xi = [rat(x) for x in xi]
    if lams is None:
        lams = highest_lweight(T, xi)
    form, inv = T.cleared(), inverse_series_action(T).cleared()
    _s, (z,) = _zclear([xi])
    Z = _zcolumns([z], len(z))
    kk = T.kappa
    idx = range(1, kk + 1)
    w = {key: _zmatmul(rows, Z) for key, rows in inv.blocks.items()}
    for i in idx:
        for j in range(i + 1, kk + 1):
            if any(w[(i, j)]):
                return ("a", (i, j))
    for i in idx:
        lam = lambda_prime_formula(lams, T.ps, i)
        _s, (ln, ld) = _zclear([lam.num.coeffs, lam.den.coeffs])
        if _zmatmul(w[(i, i)], [{0: ld}]) != _zmatmul(Z, [{0: poly_mul(ln, inv.den_coeffs)}]):
            return ("b", i)
    coeffs = {key: [{k: (x,) for e in row.values() for k, x in enumerate(e) if x} for row in wk]
              for key, wk in w.items()}
    quads = [(i, a, c, j) for i in idx for j in range(i + 1, kk + 1) for a in idx for c in range(1, a + 1)]
    quads += [(i, a, c, i) for i in idx for a in idx for c in range(1, a)]
    for i, a, c, j in quads:
        if any(_zmatmul(form.blocks[(i, a)], coeffs[(c, j)])):
            return ("c", (i, a, c, j))
    return None


# ---------------------------------------------------------------------------
# Relation certification.

def certify_words(label, lhs, rhs, n):
    """Certify the identity lhs = rhs of two words over the same factors,
    acting on dimension n, at the one Kronecker point of
    check_identity_2var.  Returns None on pass or the Grid2Witness
    labelled label.

    A factor is a family (evaluator, form, var): a cleared_evaluator, its
    ClearedForm, and the variable it reads, 0 for u and 1 for v; or an R
    factor (R, (a, b)): the ScaledR R read at x = a u + b v.  Both sides
    are integer chains over one scale, the product of the family
    denominators and of every x.  At integer points a side is a polynomial
    matrix: every entry of a family's numerator N has degree at most its
    cleared degree and l1 norm at most L = form.l1(), and
    x R(x) = x 1 - (1 x P) adds 1 in each variable x reads.  The degree
    bound is the sum of these.  By l1 norms (submultiplicative, and
    bounding every coefficient) each product of two lifted matrices adds
    the factor n, and each R factor, two entries in a row, multiplies the
    norm by at most |x|_1 + 1: a side is at most
    prod L * n^(families - 1) * prod (|x|_1 + 1), and the height of
    lhs - rhs is twice that.  Each family's denominator is refused in its
    own variable, and 0 in a variable an R factor reads alone.

    A word is applied from the right: an R factor right of every family
    acts by ScaledR.right (on the identity, in a word with no family), so
    a passing identity costs one lifted product per family past the
    first on each side; every other R factor acts by ScaledR.left and a
    family by sparse_mul.  Only a refuting point's sides are densified,
    divided by the scale, for the Fraction witness.
    """
    is_r = lambda f: isinstance(f[0], ScaledR)
    fams = [f for f in lhs if not is_r(f)]
    xs = [f[1] for f in lhs if is_r(f)]
    deg = [sum(form.degree for _, form, var in fams if var == t) + sum(bool(ab[t]) for ab in xs) for t in (0, 1)]
    height = 2 * n ** max(len(fams) - 1, 0)
    for _, form, _ in fams:
        height *= form.l1()
    for a, b in xs:
        height *= abs(a) + abs(b) + 1

    def bad(t):
        dens = [form.den_coeffs for _, form, var in fams if var == t]
        alone = any(not ab[1 - t] for ab in xs)
        return lambda x: (alone and x == 0) or any(poly_eval(d, x) == 0 for d in dens)

    def side(word):
        last = max((i for i, f in enumerate(word) if not is_r(f)), default=-1)

        def at(u0, v0):
            pt = (u0, v0)
            acc = word[last][0](pt[word[last][2]])[0] if last >= 0 else [{i: 1} for i in range(n)]
            for R, (a, b) in word[last + 1:]:
                acc = R.right(acc, a * u0 + b * v0)
            for f in reversed(word[:max(last, 0)]):  # none left of a word with no family
                if is_r(f):
                    acc = f[0].left(f[1][0] * u0 + f[1][1] * v0, acc)
                else:
                    acc = sparse_mul(f[0](pt[f[2]])[0], acc)
            return acc

        return at

    w = check_identity_2var(side(lhs), side(rhs), tuple(deg), height, bad_u=bad(0), bad_v=bad(1))
    if w is None:
        return None
    s = 1
    for ev, form, var in fams:
        s *= ev(w.point[var])[1]
    for a, b in xs:
        s *= a * w.point[0] + b * w.point[1]
    dense = ([[Fraction(row.get(c, 0), s) for c in range(len(m))] for row in m] for m in (w.lhs, w.rhs))
    return Grid2Witness(w.point, *dense, label=label)


def verify_rtt(T: TAction):
    """Certify the exchange relation and its two inverse-series variants.

    The exchange relation is R(u-v) T1(u) T2(v) = T2(v) T1(u) R(u-v); the
    mixed ones put T'(-u) (left) or T'(-v) (right) in place of one factor
    and read A1(u) R(u+v) B2(v) = B2(v) R(u+v) A1(u).  Returns None on pass
    or the first Grid2Witness (certify_words), labelled with which
    identity failed.
    """
    R = ScaledR(flip_at(T.ps, 1, 2, 2), T.dim)
    Tpn = TPrimeAction(T.ps, T.space, inverse_series_action(T).cleared().neg_u())
    # T(u), T(v), T'(-u), T'(-v); the three identities share the caches.
    T1, T2, I1, I2 = ((cleared_evaluator(F, var + 1), F.cleared(), var) for F in (T, Tpn) for var in (0, 1))
    minus, plus = (R, (1, -1)), (R, (1, 1))
    for label, lhs, rhs in (
        ("exchange", [minus, T1, T2], [T2, T1, minus]),
        ("mixed-left", [I1, plus, T2], [T2, plus, I1]),
        ("mixed-right", [T1, plus, I2], [I2, plus, T1]),
    ):
        w = certify_words(label, lhs, rhs, len(R.rows))
        if w is not None:
            return w
    return None


def flip_at(ps: ParitySeq, slot_a: int, slot_b: int, nfactors: int):
    """The graded flip sum s_b E_ab x E_ba acting on factors (slot_a, slot_b)
    of V^nfactors: a signed permutation, as integer row-sparse rows."""
    k = ps.kappa
    terms = []
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            par = (ps.parity(a) + ps.parity(b)) % 2
            ops = {
                slot_a - 1: (elementary(k, a, b, ps.sign(b)), par),
                slot_b - 1: (elementary(k, b, a), par),
            }
            terms.append((1, at_slots(nfactors, ops)))
    return _kron_sum_rows(terms, [ps.space()] * nfactors)


def verify_yang_baxter(ps: ParitySeq):
    """Certify the braid identity R12(u-v) R13(u) R23(v) = R23(v) R13(u)
    R12(u-v) for R(u) = 1 - P/u on V x V x V, as two words of ScaledR on
    a one-dimensional carrier (certify_words).  Returns None on pass or
    the Grid2Witness labelled "yang-baxter".
    """
    R12, R13, R23 = (ScaledR(flip_at(ps, a, b, 3), 1) for a, b in ((1, 2), (1, 3), (2, 3)))
    lhs = [(R12, (1, -1)), (R13, (1, 0)), (R23, (0, 1))]
    return certify_words("yang-baxter", lhs, lhs[::-1], ps.kappa ** 3)


# ---------------------------------------------------------------------------
# JSON serialization; mirrors the gl-module layout with rational-function
# entries as coefficient arrays.

def _blocks_json(family) -> dict:
    """All kappa^2 blocks of a family as {"i,j": rows of rf_to_json}."""
    idx, d = range(1, family.kappa + 1), family.dim
    zero = [[rf_to_json(RatFun.zero())] * d for _ in range(d)]
    out = {}
    for i in idx:
        for j in idx:
            m = family.t.get((i, j))
            out[f"{i},{j}"] = zero if m is None else [[rf_to_json(e) for e in row] for row in m.entries]
    return out


def t_to_json(T: TAction) -> dict:
    return {
        "ps": list(T.ps.s),
        "dim": T.dim,
        "parities": list(T.space.parities),
        "t": _blocks_json(T),
    }


def t_from_json(data: dict) -> TAction:
    ps = ParitySeq(data["ps"])
    space = SuperSpace(data["parities"])
    return TAction(ps, space, cleared_form_rf(json_blocks(data, "t", ps.kappa, rf_from_json)))


# ---------------------------------------------------------------------------
# Finiteness polynomials for the standard parity sequence.

def zhang_polynomials(lams, ps: ParitySeq):
    """Drinfeld-polynomial data certifying finite-dimensionality.

    Only the standard parity sequence carries the closed-form criterion; any
    other ordering raises ValueError.  Returns the list of monic polynomials
    on success, None when no certificate exists over the rationals.
    """
    if not ps.is_standard():
        raise ValueError("criterion only implemented for the standard parity sequence")
    kk = ps.kappa
    m = ps.m
    out = [None] * kk
    for i in range(1, kk):
        ratio = lams[i - 1] / lams[i]
        if i != m:
            P = solve_shift_quotient(ratio, ps.sign(i))
            if P is None:
                return None
            out[i - 1] = P
        else:
            if ratio.num.degree != ratio.den.degree:
                return None
            if ratio.num.leading() != ratio.den.leading():
                return None
            out[m - 1] = ratio.num.monic()
            out[kk - 1] = ratio.den.monic()
    if kk == m:  # purely even, no middle ratio
        return [p for p in out if p is not None]
    if out[kk - 1] is None:
        return None
    return out


def solve_shift_quotient(ratio: RatFun, s):
    """Monic P with P(u + s)/P(u) equal to the given reduced ratio, or None.

    Each root chain beta, beta+s, ..., delta of P leaves exactly the root
    beta - s in the reduced numerator and delta in the reduced denominator,
    so P is rebuilt by matching numerator roots to denominator roots along
    the s-lattice; the result is verified before being returned.
    """
    s = rat(s)
    if ratio == RatFun.one():
        return Poly.one()
    num, den = ratio.num, ratio.den
    if num.degree != den.degree or num.leading() != den.leading():
        return None
    roots_n, cof_n = rational_roots(num.monic())
    roots_d, cof_d = rational_roots(den.monic())
    if cof_n.degree > 0 or cof_d.degree > 0:
        return None
    navail = []
    for r, mult in roots_n:
        navail.extend([r] * mult)
    davail = []
    for r, mult in roots_d:
        davail.extend([r] * mult)
    chain_roots = []
    for nu in navail:
        best = None
        for idx, delta in enumerate(davail):
            if delta is None:
                continue
            t = (delta - nu) / s - 1
            if t.denominator == 1 and t >= 0:
                if best is None or t < best[1]:
                    best = (idx, t)
        if best is None:
            return None
        idx, t = best
        delta = davail[idx]
        davail[idx] = None
        step = 0
        while step <= t:
            chain_roots.append(nu + s * (step + 1))
            step += 1
    poly = Poly.one()
    for r in sorted(chain_roots):
        poly = poly * Poly([-r, 1])
    if rf_equal(RatFun(poly.shift(s), poly), ratio):
        return poly
    return None
