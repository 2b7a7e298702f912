"""Shared expected values for the two-dimensional evaluation modules, and
the assembled-operator oracle for block products.

The sixteen action rows below are the frozen oracle for L(a, b): they were
derived once by hand from t_ij(u) = delta_ij + s_i e_ij / u on the basis
(v+, v-) and from inverting the resulting 2x2 block matrix, and every test
compares library output against them.

assemble and read_blocks put a generator family on carrier x V as one
Koszul-signed operator and take it apart again.  Products of those
operators, and rf_block_product, the same product formed block by block
over the function field, are the references that the integer
yangian.block_product is checked against; rf_cleared_form is the cleared
form read off RatFun entries, the reference for yangian.cleared_form.
rf_quotient_family is the functor output formed entry by entry over the
function field, the reference for the integer quotient of
drinfeld._quotient_module.

sym_lift, sym_flip and the sym_*_sides functions form both sides of the
grid-certified identities exactly over Z[u, v] with sympy, from the
cleared forms: the references that the grid bounds and grid verdicts of
yangian.verify_rtt, twisted.verify_b and yangian.verify_yang_baxter are
checked against.

q_rows_by_terms is the coupling operator Q^(k) assembled term by term, the
reference for the tagged pattern of drinfeld._q_pattern and its
weightings.  ref_verify_daha, ref_sf_presentation and ref_center_check are
the Hecke relation checks over Q, in Fraction arithmetic on the generators
as DahaModule reads them back: the references for the checks of
tyang.daha, which run on integer rows over one scale.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import sympy

from tyang.exactalg import Poly, RatFun
from tyang.superlinalg import (
    RFMatrix,
    _kron_sum_rows,
    at_slots,
    common_den,
    elementary,
    kron_sum,
    sparse_add,
    sparse_mul,
    sparse_scale,
    tensor_space,
)
from tyang.yangian import SeriesFamily


def _block_sign(ps, i, j):
    pi, pj = ps.parity(i), ps.parity(j)
    return -1 if (pi * pj + pj) % 2 else 1


def assemble(family, spaces=None, slot=0):
    """sum_ij (-1)^(|i||j|+|j|) x_ij x E_ij as one RFMatrix, for a
    SeriesFamily {x_ij}, on the tensor of spaces (default: the family's
    module alone) and V: x_ij acts on spaces[slot], E_ij on V, with the
    Koszul sign of passing the column parities of the factors before it,
    and every other factor carries the identity."""
    ps = family.ps
    spaces = list(spaces or [family.space]) + [ps.space()]
    terms = []
    for (i, j), m in family.t.items():
        par = (ps.parity(i) + ps.parity(j)) % 2
        e = elementary(ps.kappa, i, j, _block_sign(ps, i, j))
        terms.append((1, at_slots(len(spaces), {slot: (m.entries, par), len(spaces) - 1: (e, par)})))
    sp = tensor_space(spaces)
    return RFMatrix.from_const(kron_sum(terms, spaces), sp, sp)


def read_blocks(F, ps, carrier):
    """The blocks {(i, j): x_ij} of an operator F on carrier x V, undoing
    both signs of assemble."""
    k = ps.kappa
    out = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            bs = _block_sign(ps, i, j)
            pij = (ps.parity(i) + ps.parity(j)) % 2
            ent = []
            for q in range(carrier.dim):
                row = []
                for p in range(carrier.dim):
                    v = F[q * k + (i - 1), p * k + (j - 1)]
                    sign = bs * (-1 if (pij and carrier.parities[p]) else 1)
                    row.append(v if sign == 1 else -v)
                ent.append(row)
            out[(i, j)] = RFMatrix(ent, carrier, carrier)
    return out


def rf_block_product(A, B, mid=None):
    """{(i, j): sum_k A_ik mid_k B_kj} over RFMatrix blocks, in RatFun
    arithmetic; mid holds kappa scalars (numbers or RatFuns) or is None,
    and a missing key counts as a zero block."""
    idx = range(1, max(max(key) for key in (*A, *B)) + 1)
    a, b = next(iter(A.values())), next(iter(B.values()))
    zero = RFMatrix.zero(a.rows, b.cols, a.row_space, b.col_space)
    A = {key: m for key, m in A.items() if not m.is_zero()}
    B = {(k, j): m if mid is None else m.scale(mid[k - 1]) for (k, j), m in B.items() if not m.is_zero()}
    out = {}
    for i in idx:
        for j in idx:
            terms = [A[(i, k)] @ B[(k, j)] for k in idx if (i, k) in A and (k, j) in B]
            out[(i, j)] = sum(terms[1:], terms[0]) if terms else zero
    return out


def rf_cleared_form(t):
    """(den, degree, den_coeffs, blocks) of a ClearedForm read off the
    RatFun blocks t: D the lcm of the reduced denominators, and one
    rational factor c making c D and every c D x_ij integral, primitive,
    with c > 0."""
    D = common_den(e for m in t.values() for row in m.entries for e in row)
    polys = {key: [[e.num * (D // e.den) if e else None for e in row] for row in m.entries] for key, m in t.items()}
    every = [D] + [p for rows in polys.values() for row in rows for p in row if p is not None]
    scale = lcm(*(c.denominator for p in every for c in p.coeffs))
    content = gcd(*(c.numerator * (scale // c.denominator) for p in every for c in p.coeffs))

    def ints(p):
        return tuple(c.numerator * (scale // c.denominator) // content for c in p.coeffs)

    blocks = {key: [[None if p is None else ints(p) for p in row] for row in rows] for key, rows in polys.items()}
    return D, max(p.degree for p in every), ints(D), blocks


def trimmed(coeffs):
    """An integer coefficient sequence as a tuple without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def read_product(den, blocks, space=None):
    """The integer product (den, blocks) of yangian.block_product as RFMatrix
    blocks of reduced RatFuns."""
    d = Poly(den)
    return {
        key: RFMatrix([[RatFun(Poly(e), d) if e else RatFun.zero() for e in row] for row in rows], space, space)
        for key, rows in blocks.items()
    }


def rf_quotient_family(D, blocks, den):
    """(t, form) for the functor output D (a drinfeld.DrinfeldModule) of the
    series blocks / den (row-sparse over integer coefficient tuples, as
    drinfeld.reflection_product holds them): t the RatFun blocks of
    P N S / den, one reduced RatFun per entry, with P the Fraction
    projection D.projection and S the section D.section, which keeps the
    free columns, and form the cleared form of the family of t."""
    proj, sect = D.projection, D.section
    free = [next(f for f, row in enumerate(sect) if row[b]) for b in range(len(proj))]
    d = Poly(den)
    t = {}
    for key, block in blocks.items():
        ent = []
        for prow in proj:
            row = []
            for f in free:
                acc = []
                for q, x in enumerate(prow):
                    p = block[q].get(f) if x else None
                    for k, c in enumerate(p or ()):
                        if k == len(acc):
                            acc.append(Fraction(0))
                        acc[k] += x * c
                row.append(RatFun(Poly(acc), d))
            ent.append(row)
        t[key] = RFMatrix(ent, D.action.space, D.action.space)
    return t, SeriesFamily(D.action.ps, D.action.space, t).cleared()


def _rf(num_coeffs, den_coeffs=(1,)):
    return RatFun(Poly(num_coeffs), Poly(den_coeffs))


def lab_t_table(s1, a, b):
    """Expected t_ij(u) action rows on v+ = e0 and v- = e1.

    Returns {(i, j): [coeff on v+, coeff on v-]} where the value lists give
    t_ij(u) v+ and t_ij(u) v- as (RatFun multiple, target basis vector)
    pairs; None marks a zero row.
    """
    u = RatFun.x()
    return {
        (1, 1): [((u + s1 * a) / u, 0), ((u - s1 + s1 * a) / u, 1)],
        (1, 2): [None, (RatFun.const(s1 * (a + b)) / u, 0)],
        (2, 1): [(RatFun.const(-s1) / u, 1), None],
        (2, 2): [((u - s1 * b) / u, 0), ((u - s1 - s1 * b) / u, 1)],
    }


def lab_tprime_table(s1, a, b):
    """Expected t'_ij(u) rows in the same encoding as lab_t_table."""
    u = RatFun.x()
    dplus = (u - s1 + s1 * a) * (u - s1 * b)
    return {
        (1, 1): [
            (u * (u - s1 - s1 * b) / dplus, 0),
            (u / (u - s1 + s1 * a), 1),
        ],
        (1, 2): [None, (RatFun.const(-s1 * (a + b)) * u / dplus, 0)],
        (2, 1): [(RatFun.const(s1) * u / dplus, 1), None],
        (2, 2): [
            (u / (u - s1 * b), 0),
            (u * (u + s1 * a) / dplus, 1),
        ],
    }


def action_rows(grids, dim=2):
    """Rows of a {(i,j): RFMatrix} family on the standard basis vectors."""
    rows = {}
    for key, m in grids.items():
        cols = []
        for p in range(dim):
            vec = [Fraction(1 if q == p else 0) for q in range(dim)]
            cols.append(m.mat_vec(vec))
        rows[key] = cols
    return rows


def rows_match_table(grids, table, dim=2):
    """Check every action row of grids against an expected table."""
    for key, expected in table.items():
        m = grids[key]
        for src, entry in enumerate(expected):
            vec = [Fraction(1 if q == src else 0) for q in range(dim)]
            got = m.mat_vec(vec)
            if entry is None:
                if any(got):
                    return False, (key, src, got)
            else:
                coeff, target = entry
                want = [coeff if q == target else RatFun.zero() for q in range(dim)]
                if any(got[q] != want[q] for q in range(dim)):
                    return False, (key, src, got)
    return True, None


# ---------------------------------------------------------------------------
# Both sides of the grid identities over Z[u, v].  A polynomial matrix is a
# dict {(row, col): sympy.Poly in (u, v)} holding its nonzero entries.

U, V = sympy.symbols("u v")


def _zpoly(monoms):
    return sympy.Poly.from_dict(monoms, U, V, domain="ZZ")


def _x_poly(coeffs, var, negate=False):
    """The integer coefficient tuple coeffs (constant term first) as a
    polynomial in var (U or V), at -var when negate is set."""
    at = (lambda k: (k, 0)) if var is U else (lambda k: (0, k))
    return _zpoly({at(k): -c if negate and k % 2 else c for k, c in enumerate(coeffs) if c})


def sym_lift(family, slot, var, negate=False):
    """The cleared numerator N of the family's lift to carrier x V x V, the
    V factor of the family at slot (1 or 2), as a polynomial matrix in var
    (at -var when negate is set): sum_ij (-1)^(|i||j|+|j|) N_ij x E_ij,
    E_ij carrying the Koszul sign of passing the column parities of the
    factors before it.  Basis (m, a, b) is row (m kappa + a) kappa + b."""
    ps, form = family.ps, family.cleared()
    k, cp, vp = ps.kappa, family.space.parities, ps.parities
    out = {}
    for (i, j), rows in form.blocks.items():
        par = (ps.parity(i) + ps.parity(j)) % 2
        for m, row in enumerate(rows):
            for m2, e in enumerate(row):
                if not e:
                    continue
                x = _x_poly(e, var, negate) * _block_sign(ps, i, j)
                for a in range(k):
                    if slot == 1:
                        r, c, passed = (m, i - 1, a), (m2, j - 1, a), cp[m2]
                    else:
                        r, c, passed = (m, a, i - 1), (m2, a, j - 1), cp[m2] + vp[a]
                    key = ((r[0] * k + r[1]) * k + r[2], (c[0] * k + c[1]) * k + c[2])
                    out[key] = -x if par * passed % 2 else x
    return out


def sym_flip(ps, a, b, n):
    """The graded flip of factors a < b (1-based) of V^n as {(row, col):
    sign}: e_x -> (-1)^s e_y, y the tuple x with x_a and x_b swapped, s the
    sum of |x_p||x_q| over the pairs p < q that the swap reverses."""
    k, par = ps.kappa, ps.parities
    index = lambda t: sum(d * k ** (n - 1 - c) for c, d in enumerate(t))
    out = {}
    for x in product(range(k), repeat=n):
        y = list(x)
        y[a - 1], y[b - 1] = x[b - 1], x[a - 1]
        mid = sum(par[x[c]] for c in range(a, b - 1))
        s = par[x[a - 1]] * (mid + par[x[b - 1]]) + par[x[b - 1]] * mid
        out[(index(y), index(x))] = -1 if s % 2 else 1
    return out


def _numerator_r(x, flip, carrier_dim, size):
    """p(x) R(x) = x 1 - (1 x P) on carrier x V^n, x a polynomial."""
    out = {(r, r): x for r in range(carrier_dim * size)}
    for m in range(carrier_dim):
        for (r, c), s in flip.items():
            key = (m * size + r, m * size + c)
            out[key] = out.get(key, _zpoly({})) - s
    return {key: p for key, p in out.items() if not p.is_zero}


def sym_mul(*factors):
    """The product of polynomial matrices, left to right."""
    out = factors[0]
    for B in factors[1:]:
        brow = {}
        for (k, c), b in B.items():
            brow.setdefault(k, []).append((c, b))
        acc = {}
        for (r, k), a in out.items():
            for c, b in brow.get(k, ()):
                acc[(r, c)] = acc[(r, c)] + a * b if (r, c) in acc else a * b
        out = {key: p for key, p in acc.items() if not p.is_zero}
    return out


def sym_rtt_sides(label, first, second):
    """(lhs, rhs) of one identity of yangian.verify_rtt with the grid's
    scale, p(u -+ v) N_A(u) N_B(v): the exchange relation
    R(u-v) A1(u) B2(v) = B2(v) A1(u) R(u-v) or a mixed one
    A1(u) R(u+v) B2(v) = B2(v) R(u+v) A1(u).  first and second are
    (family, negate) pairs: A evaluated at u (at -u when negate is set) on
    slot 1, B at v on slot 2."""
    (A, neg_a), (B, neg_b) = first, second
    ps = A.ps
    A1, B2 = sym_lift(A, 1, U, neg_a), sym_lift(B, 2, V, neg_b)
    flip = sym_flip(ps, 1, 2, 2)
    if label == "exchange":
        R = _numerator_r(_zpoly({(1, 0): 1, (0, 1): -1}), flip, A.dim, ps.kappa ** 2)
        return sym_mul(R, A1, B2), sym_mul(B2, A1, R)
    R = _numerator_r(_zpoly({(1, 0): 1, (0, 1): 1}), flip, A.dim, ps.kappa ** 2)
    return sym_mul(A1, R, B2), sym_mul(B2, R, A1)


def sym_reflection_sides(B):
    """(lhs, rhs) of the reflection equation with the grid's scale,
    p(u-v) p(u+v) N_1(u) N_2(v): R(u-v) B1(u) R(u+v) B2(v) and
    B2(v) R(u+v) B1(u) R(u-v)."""
    ps = B.ps
    flip = sym_flip(ps, 1, 2, 2)
    Rm = _numerator_r(_zpoly({(1, 0): 1, (0, 1): -1}), flip, B.dim, ps.kappa ** 2)
    Rp = _numerator_r(_zpoly({(1, 0): 1, (0, 1): 1}), flip, B.dim, ps.kappa ** 2)
    B1, B2 = sym_lift(B, 1, U), sym_lift(B, 2, V)
    return sym_mul(Rm, B1, Rp, B2), sym_mul(B2, Rp, B1, Rm)


def sym_yang_baxter_sides(ps, flips=None):
    """(lhs, rhs) of the braid identity with the grid's scale
    p(u-v) p(u) p(v): R12(u-v) R13(u) R23(v) and R23(v) R13(u) R12(u-v) on
    V x V x V.  flips maps (a, b) to the flip of factors a, b as
    {(row, col): sign}; sym_flip by default."""
    flips = flips or {ab: sym_flip(ps, *ab, 3) for ab in ((1, 2), (1, 3), (2, 3))}
    n = ps.kappa ** 3
    R12 = _numerator_r(_zpoly({(1, 0): 1, (0, 1): -1}), flips[(1, 2)], 1, n)
    R13 = _numerator_r(_zpoly({(1, 0): 1}), flips[(1, 3)], 1, n)
    R23 = _numerator_r(_zpoly({(0, 1): 1}), flips[(2, 3)], 1, n)
    return sym_mul(R12, R13, R23), sym_mul(R23, R13, R12)


def sym_bidegree(*mats):
    """The largest degrees in u and in v of the entries of the matrices."""
    entries = [p for M in mats for p in M.values()]
    return max(p.degree(U) for p in entries), max(p.degree(V) for p in entries)


def sym_at(M, n, u0, v0):
    """The polynomial matrix M as an n x n integer matrix at (u0, v0)."""
    out = [[0] * n for _ in range(n)]
    for (r, c), p in M.items():
        out[r][c] = int(p.eval({U: u0, V: v0}))
    return out


def q_rows_by_terms(ps, k, l, weight=None):
    """sum_ij w(i, j) sgn_ij E_ij^(k) x E_ij^(aux) on V^l x V as row-sparse
    rows, one Koszul-signed assembly per term, with w = 1 unless a weight
    function of the 1-based pair (i, j) is given."""
    kk = ps.kappa
    terms = []
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            w = 1 if weight is None else weight(i, j)
            if not w:
                continue
            pi, pj = ps.parity(i), ps.parity(j)
            sgn = -1 if (pi * pj + pi + pj) % 2 else 1
            par = (pi + pj) % 2
            ops = {k - 1: (elementary(kk, i, j, sgn), par), l: (elementary(kk, i, j), par)}
            terms.append((w, at_slots(l + 1, ops)))
    return _kron_sum_rows(terms, [ps.space()] * (l + 1))


def _ref_identity(dim):
    return [{r: Fraction(1)} for r in range(dim)]


class _RefGenerators:
    """The generators of a DahaModule over Q, with the transpositions
    (i j) = s_i (i+1 j) s_i and the flips zeta_i = (i l) zeta_l (i l)."""

    def __init__(self, M):
        self.dim, self.l = M.dim, M.params.l
        self.sigma, self.zeta, self.y = M.sigma, M.varsigma_l, M.y
        self._sij, self._zi = {}, {}

    def sigma_ij(self, i, j):
        i, j = min(i, j), max(i, j)
        if (i, j) not in self._sij:
            if i == j:
                out = _ref_identity(self.dim)
            elif i == j - 1:
                out = self.sigma[i - 1]
            else:
                s = self.sigma[i - 1]
                out = sparse_mul(s, sparse_mul(self.sigma_ij(i + 1, j), s))
            self._sij[i, j] = out
        return self._sij[i, j]

    def zeta_i(self, i):
        if i == self.l:
            return self.zeta
        if i not in self._zi:
            c = self.sigma_ij(i, self.l)
            self._zi[i] = sparse_mul(c, sparse_mul(self.zeta, c))
        return self._zi[i]


def ref_verify_daha(M):
    """daha.verify_daha over Q: None or the first relation id."""
    g = _RefGenerators(M)
    l = M.params.l
    th1 = M.params.theta1
    I = _ref_identity(M.dim)
    mul = sparse_mul
    for k in range(1, l):
        s = g.sigma[k - 1]
        if mul(s, s) != I:
            return f"sigma_{k}^2"
        for i in range(1, l + 1):
            lhs = mul(s, g.y[i - 1])
            if i == k:
                rhs = sparse_add(mul(g.y[k], s), I, th1)
            elif i == k + 1:
                rhs = sparse_add(mul(g.y[k - 1], s), I, -th1)
            else:
                rhs = mul(g.y[i - 1], s)
            if lhs != rhs:
                return f"sigma_{k} y_{i}"
    for k in range(1, l - 1):
        a, b = g.sigma[k - 1], g.sigma[k]
        if mul(a, mul(b, a)) != mul(b, mul(a, b)):
            return f"braid sigma_{k} sigma_{k+1}"
    for k in range(1, l):
        for j in range(k + 2, l):
            if mul(g.sigma[k - 1], g.sigma[j - 1]) != mul(g.sigma[j - 1], g.sigma[k - 1]):
                return f"sigma_{k} sigma_{j}"
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            if mul(g.y[i - 1], g.y[j - 1]) != mul(g.y[j - 1], g.y[i - 1]):
                return f"y_{i} y_{j}"
    if M.params.kind == "BC":
        z = g.zeta
        if mul(z, z) != I:
            return "zeta^2"
        for k in range(1, l - 1):
            if mul(z, g.sigma[k - 1]) != mul(g.sigma[k - 1], z):
                return f"zeta sigma_{k}"
        if l >= 2:
            s = g.sigma[l - 2]
            if mul(s, mul(z, mul(s, z))) != mul(z, mul(s, mul(z, s))):
                return "zeta braid"
        for i in range(1, l):
            if mul(z, g.y[i - 1]) != mul(g.y[i - 1], z):
                return f"zeta y_{i}"
        anti = sparse_add(mul(z, g.y[l - 1]), mul(g.y[l - 1], z))
        if anti != sparse_scale(I, M.params.theta2):
            return "zeta y_l"
    return None


def ref_sf_presentation(M):
    """daha.sf_presentation over Q: (ys, None or the first relation id)."""
    g = _RefGenerators(M)
    l = M.params.l
    th1, th2 = M.params.theta1, M.params.theta2
    mul = sparse_mul
    ys = []
    for i in range(1, l + 1):
        zi = g.zeta_i(i)
        acc = sparse_add(g.y[i - 1], zi, -th2 / 2)
        for k in range(1, l + 1):
            if k == i:
                continue
            sik = g.sigma_ij(i, k)
            acc = sparse_add(acc, sik, th1 / 2 if k < i else -th1 / 2)
            acc = sparse_add(acc, mul(sik, mul(zi, g.zeta_i(k))), -th1 / 2)
        ys.append(acc)

    for k in range(1, l):
        s = g.sigma[k - 1]
        if mul(s, ys[k - 1]) != mul(ys[k], s):
            return ys, f"sigma_{k} yb_{k}"
        for j in range(1, l + 1):
            if j in (k, k + 1):
                continue
            if mul(s, ys[j - 1]) != mul(ys[j - 1], s):
                return ys, f"sigma_{k} yb_{j}"
    z = g.zeta
    if any(sparse_add(mul(z, ys[l - 1]), mul(ys[l - 1], z))):
        return ys, "zeta yb_l"
    for i in range(1, l):
        if mul(z, ys[i - 1]) != mul(ys[i - 1], z):
            return ys, f"zeta yb_{i}"
    letters = range(1, l + 1)
    yy = {(i, j): mul(ys[i - 1], ys[j - 1]) for i in letters for j in letters if i != j}
    for i in letters:
        for j in letters:
            if i == j:
                continue
            lhs = sparse_add(yy[i, j], yy[j, i], -1)
            zi, zj = g.zeta_i(i), g.zeta_i(j)
            rhs = sparse_scale(mul(g.sigma_ij(i, j), sparse_add(zj, zi, -1)), th1 * th2 / 2)
            for k in letters:
                if k in (i, j):
                    continue
                sik, sjk = g.sigma_ij(i, k), g.sigma_ij(j, k)
                zk = g.zeta_i(k)
                ik_jk, jk_ik = mul(sik, sjk), mul(sjk, sik)
                zizj, zizk, zjzk = mul(zi, zj), mul(zi, zk), mul(zj, zk)
                t1 = sparse_add(jk_ik, ik_jk, -1)
                t2 = mul(ik_jk, sparse_add(sparse_add(zizj, zjzk), zizk, -1))
                t3 = mul(jk_ik, sparse_add(sparse_add(zizj, zizk), zjzk, -1))
                rhs = sparse_add(rhs, sparse_add(sparse_add(t1, t2), t3, -1), th1 * th1 / 4)
            if lhs != rhs:
                return ys, f"bracket yb_{i} yb_{j}"
    return ys, None


def ref_center_check(M, poly):
    """daha.center_check over Q: None or the first generator the evaluated
    polynomial does not commute with."""
    g = _RefGenerators(M)
    I = _ref_identity(M.dim)
    acc = [{} for _ in range(M.dim)]
    for mono, coeff in poly.items():
        term = I
        for t, e in enumerate(mono):
            for _ in range(e):
                term = sparse_mul(term, g.y[t])
        acc = sparse_add(acc, term, Fraction(coeff))
    gens = [(f"sigma_{k}", g.sigma[k - 1]) for k in range(1, M.params.l)]
    if g.zeta is not None:
        gens.append(("zeta", g.zeta))
    gens.extend((f"y_{i}", g.y[i - 1]) for i in range(1, M.params.l + 1))
    for name, m in gens:
        if sparse_mul(acc, m) != sparse_mul(m, acc):
            return name
    return None
