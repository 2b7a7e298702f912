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
drinfeld._quotient_module.  ref_sign_quotient is the sign quotient of the
functor formed over Q, through kron_ops and a dense column scan, the
reference for the integer sign relations and their _kernel.echelon in
tyang.drinfeld.

ref_rref is Gauss-Jordan over Q, the reference for the fraction-free
_kernel.echelon_insert, echelon and mat_rref, and ref_nullspace and
_coords_in_span, the coordinates of vectors in a span, run on it;
ref_poly_kernel is the constant kernel of rows over Z[u] by dense
coefficient matrices and ref_nullspace, the reference for
superlinalg.poly_kernel; ref_algebra_closure is the algebra
closure by pairwise products, the reference for the spin of
superlinalg.algebra_closure.  charpoly is the characteristic polynomial
by the Faddeev-LeVerrier scheme (_faddeev_leverrier), and
ref_cleared_resolvent the resolvent read off its full adjugate: the
references for the minimal polynomial superlinalg.minpoly and the
reduced adjoint of superlinalg.cleared_resolvent.

ref_lift_at is the lift of a family at an integer point through a
signed tag pattern that _kron_rows assembles, the reference for the
one-pass signed scatter of yangian._lift_at.

sym_lift, sym_flip and the sym_*_sides functions form both sides of the
grid-certified identities exactly over Z[u, v] with sympy, from the
cleared forms: the references that the degree bounds, heights and
verdicts of yangian.verify_rtt, twisted.verify_b and
yangian.verify_yang_baxter are checked against (sym_bidegree,
sym_height).  ref_check_identity_2var is the grid-only certifier, every
point of the (d_u + 1) x (d_v + 1) grid evaluated on a pass: the
reference for the verdicts and witnesses of the one-point certifier
superlinalg.check_identity_2var.

kron_rows_by_terms forms a sum of Koszul-signed tensor products entry by
entry from the sign rule, without the assembler; q_rows_by_terms,
flip_by_terms and box_by_terms are the coupling operator Q^(k), the flip
and the box E_ij^(k) formed with it, the references for the tagged
pattern of drinfeld._q_pattern and its weightings, yangian.flip_at and
drinfeld._box_at.  ref_verify_daha, ref_sf_presentation and ref_center_check are
the Hecke relation checks over Q, in Fraction arithmetic on the generators
as DahaModule reads them back: the references for the checks of
tyang.daha, which run on integer rows over one scale.  ref_induced_y is
the y family of an induced module filled in over Q, the reference for the
integer recursion of daha._induced_y.

ref_highest_eigenseries, ref_tilde, ref_verma_conditions and
ref_tilde_ratio are the highest-weight route over the function field: the
eigen-series read off the RatFun blocks t, the tilde series and the
symmetry conditions formed from reduced RatFun, the references for the
Z[u] reader yangian.highest_eigenseries and for twisted.verma_conditions
and classify_rank1; ref_unitarity_scalar is the scalar of B(u) B(-u) that
the last condition reads.  bweight_from_series clears RatFun series over
their common denominator into a BHighestWeight.  ref_solve_shift_quotient
and ref_solve_involution_quotient are the two quotient solvers of the
classification on reduced RatFun ratios, returning monic Polys: the
references for the integer yangian.solve_shift_quotient and
twisted._solve_involution_quotient.

The rf_* constructors (rf_shift, rf_tensor, rf_dual, rf_c_gamma,
rf_b_tensor, rf_reduce_rank with restrict_rf, rf_tilde_operator and
rf_find_highest_space) build the families over the function field, as
RFMatrix blocks, with inverse series by Gauss-Jordan (ref_inverse): the
oracles that the integer constructors of tyang.yangian and tyang.twisted,
which build every family as a ClearedForm, are compared with through
family_form.  ref_lambda_prime_check is the inverse-weight check read off
those RatFun blocks.

RefRatFun is the rational function of Fraction Polys, num / den with den
monic and coprime to num, reduced by Poly.gcd and divided by the leading
coefficient of den, its arithmetic Poly arithmetic and its substitutions
Poly.compose_linear; ref_rf_to_json writes its coefficients.  It is the
reference for exactalg.RatFun, which holds the reduced pair over Z[u].

verify_gl_module, gl_tensor, weight_decompose, gl_to_json and
apply_at_factor are gl(m|n) module helpers that only the tests use, and
mat_identity is the Fraction identity matrix, which no library code
needs.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import sympy

from tyang._kernel import mat_mul, poly_mul
from tyang.daha import _cross
from tyang.exactalg import Poly, PoleError, RatFun, _zclear, _zdiv, _zreduce, rat, rational_roots, rf_equal
from tyang.glmn import GlModule, ParameterError
from tyang.superlinalg import (
    DimensionMismatch,
    Grid2Witness,
    GridExhausted,
    RFMatrix,
    SuperSpace,
    _dense,
    _kron_rows,
    _transpose,
    at_slots,
    cleared_coefficients,
    common_den,
    elementary,
    kron_ops,
    kron_sum,
    mat_nullspace,
    mat_vec,
    rfmat_inverse,
    rfmat_kernel,
    sparse_add,
    sparse_mul,
    sparse_scale,
    tensor_space,
)
from tyang.twisted import BHighestWeight, TwistedContext
from tyang.yangian import NotHighest, cleared_form_rf, flip_at, lambda_prime_formula


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
    """(degree, den_coeffs, blocks) of a ClearedForm read off the RatFun
    blocks t: D the lcm of the reduced denominators, and one rational
    factor c making c D and every c D x_ij integral, primitive, with
    c > 0; blocks row-sparse, {column: coefficient tuple} for the nonzero
    entries."""
    D = Poly(common_den(e for m in t.values() for row in m.entries for e in row))
    polys = {key: [{c: e.num * (D // e.den) for c, e in enumerate(row) if e} for row in m.entries]
             for key, m in t.items()}
    every = [D] + [p for rows in polys.values() for row in rows for p in row.values()]
    scale = lcm(*(c.denominator for p in every for c in p.coeffs))
    content = gcd(*(c.numerator * (scale // c.denominator) for p in every for c in p.coeffs))

    def ints(p):
        return tuple(c.numerator * (scale // c.denominator) // content for c in p.coeffs)

    blocks = {key: [{c: ints(p) for c, p in row.items()} for row in rows] for key, rows in polys.items()}
    return max(p.degree for p in every), ints(D), blocks


def trimmed(coeffs):
    """An integer coefficient sequence as a tuple without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def read_product(den, blocks, space=None):
    """The integer product (den, blocks) of yangian.block_product as RFMatrix
    blocks of reduced RatFuns, on the square blocks of the row-sparse
    layout."""
    d = Poly(den)
    return {
        key: RFMatrix([[RatFun(Poly(row.get(c, ())), d) for c in range(len(rows))] for row in rows], space, space)
        for key, rows in blocks.items()
    }


def rf_quotient_family(D, blocks, den):
    """(t, form) for the functor output D (a drinfeld.DrinfeldModule) of the
    series blocks / den on the whole carrier (row-sparse over integer
    coefficient tuples, as drinfeld._series_blocks reads them off the
    product of the steps from the identity): t the RatFun blocks of
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
    return t, family_form(t)


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


def _x_poly(coeffs, var):
    """The integer coefficient tuple coeffs (constant term first) as a
    polynomial in var (U or V)."""
    at = (lambda k: (k, 0)) if var is U else (lambda k: (0, k))
    return _zpoly({at(k): c for k, c in enumerate(coeffs) if c})


def sym_lift(family, slot, var):
    """The cleared numerator N of the family's lift to carrier x V x V, the
    V factor of the family at slot (1 or 2), as a polynomial matrix in var:
    sum_ij (-1)^(|i||j|+|j|) N_ij x E_ij,
    E_ij carrying the Koszul sign of passing the column parities of the
    factors before it.  Basis (m, a, b) is row (m kappa + a) kappa + b."""
    ps, form = family.ps, family.cleared()
    k, cp, vp = ps.kappa, family.space.parities, ps.parities
    out = {}
    for (i, j), rows in form.blocks.items():
        par = (ps.parity(i) + ps.parity(j)) % 2
        for m, row in enumerate(rows):
            for m2, e in row.items():
                x = _x_poly(e, var) * _block_sign(ps, i, j)
                for a in range(k):
                    if slot == 1:
                        r, c, passed = (m, i - 1, a), (m2, j - 1, a), cp[m2]
                    else:
                        r, c, passed = (m, a, i - 1), (m2, a, j - 1), cp[m2] + vp[a]
                    key = ((r[0] * k + r[1]) * k + r[2], (c[0] * k + c[1]) * k + c[2])
                    out[key] = -x if par * passed % 2 else x
    return out


def ref_lift_at(family, x, slot):
    """The lift of the cleared family at an integer x to carrier x V x V,
    the V factor of the family at slot (1 or 2), as row-sparse integer
    rows, by a tag pattern: the lifted matrix is assembled once by
    _kron_rows with the entry numbers +-k in place of the module operators,
    so the Koszul signs are those of the assembler, and the values of the
    entries are read through it.  The reference for yangian._lift_at."""
    ps = family.ps
    k = ps.kappa
    spaces = [family.space, ps.space(), ps.space()]
    coeffs, pattern = [], [{} for _ in range(family.dim * k * k)]
    for (i, j), rows in family.cleared().blocks.items():
        if not any(rows):
            continue
        tags = [[0] * family.dim for _ in rows]
        for trow, row in zip(tags, rows):
            for c, cs in row.items():
                coeffs.append(cs)
                trow[c] = len(coeffs)
        par = (ps.parity(i) + ps.parity(j)) % 2
        e = elementary(k, i, j, _block_sign(ps, i, j))
        for out, row in zip(pattern, _kron_rows(at_slots(3, {0: (tags, par), slot: (e, par)}), spaces)):
            out.update(row)
    vals = [sum(c * x**t for t, c in enumerate(cs)) for cs in coeffs]
    value = lambda tag: vals[tag - 1] if tag > 0 else -vals[-tag - 1]
    return [{c: value(tag) for c, tag in row.items() if value(tag)} for row in pattern]


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
    """x R(x) = x 1 - (1 x P) on carrier x V^n, x a polynomial."""
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


def sym_rtt_sides(label, A, B):
    """(lhs, rhs) of one identity of yangian.verify_rtt with the grid's
    scale, (u -+ v) N_A(u) N_B(v): the exchange relation
    R(u-v) A1(u) B2(v) = B2(v) A1(u) R(u-v) or a mixed one
    A1(u) R(u+v) B2(v) = B2(v) R(u+v) A1(u), for the families A on slot 1
    and B on slot 2 (T'(-u) is the family of its form's neg_u)."""
    ps = A.ps
    A1, B2 = sym_lift(A, 1, U), sym_lift(B, 2, V)
    flip = sym_flip(ps, 1, 2, 2)
    if label == "exchange":
        R = _numerator_r(_zpoly({(1, 0): 1, (0, 1): -1}), flip, A.dim, ps.kappa ** 2)
        return sym_mul(R, A1, B2), sym_mul(B2, A1, R)
    R = _numerator_r(_zpoly({(1, 0): 1, (0, 1): 1}), flip, A.dim, ps.kappa ** 2)
    return sym_mul(A1, R, B2), sym_mul(B2, R, A1)


def sym_reflection_sides(B):
    """(lhs, rhs) of the reflection equation with the grid's scale,
    (u-v) (u+v) N_1(u) N_2(v): R(u-v) B1(u) R(u+v) B2(v) and
    B2(v) R(u+v) B1(u) R(u-v)."""
    ps = B.ps
    flip = sym_flip(ps, 1, 2, 2)
    Rm = _numerator_r(_zpoly({(1, 0): 1, (0, 1): -1}), flip, B.dim, ps.kappa ** 2)
    Rp = _numerator_r(_zpoly({(1, 0): 1, (0, 1): 1}), flip, B.dim, ps.kappa ** 2)
    B1, B2 = sym_lift(B, 1, U), sym_lift(B, 2, V)
    return sym_mul(Rm, B1, Rp, B2), sym_mul(B2, Rp, B1, Rm)


def sym_yang_baxter_sides(ps, flips=None):
    """(lhs, rhs) of the braid identity with the grid's scale
    (u-v) u v: R12(u-v) R13(u) R23(v) and R23(v) R13(u) R12(u-v) on
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


def sym_height(lhs, rhs):
    """The largest absolute coefficient of an entry of lhs - rhs."""
    diff = [lhs.get(key, _zpoly({})) - rhs.get(key, _zpoly({})) for key in {*lhs, *rhs}]
    return max((abs(int(c)) for p in diff for c in p.coeffs() if c), default=0)


def ref_check_identity_2var(lhs_eval, rhs_eval, deg_bound, bad_u=None, bad_v=None):
    """Certify a two-variable matrix identity on a degree-beating grid.

    Equality on a (d_u + 1) x (d_v + 1) product grid of admissible
    integer points, odd u and even v, certifies an identity whose sides
    have degree at most deg_bound = (d_u, d_v) in each variable
    (Combinatorial Nullstellensatz).  The grid is walked in order, lhs_eval
    before rhs_eval at each point; returns None on pass and a Grid2Witness
    on the first failing point.
    """
    d_u, d_v = deg_bound
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
    return None


def sym_at(M, n, u0, v0):
    """The polynomial matrix M as an n x n integer matrix at (u0, v0)."""
    out = [[0] * n for _ in range(n)]
    for (r, c), p in M.items():
        out[r][c] = int(p.eval({U: u0, V: v0}))
    return out


def kron_rows_by_terms(terms, spaces):
    """sum_t w_t x_t as row-sparse rows, for terms (w, ops) of kron_ops
    operator lists, formed entry by entry from the sign rule, with no call
    to the assembler: a product of one nonzero entry (r_k, c_k, x_k) per
    factor (the diagonal of 1 for an identity slot) lands at the tensor
    indices (r, c) with the value w prod_k x_k, negated once for every odd
    factor k whose earlier column indices c_1 ... c_(k-1) have odd total
    parity.  Entries that cancel are dropped."""
    dims = [sp.dim for sp in spaces]
    out = [{} for _ in range(tensor_space(spaces).dim)]
    for w, ops in terms:
        per_slot = [
            [(r, r, 1) for r in range(sp.dim)] if m is None
            else [(r, c, x) for r, row in enumerate(m) for c, x in enumerate(row) if x]
            for (m, _par), sp in zip(ops, spaces)
        ]
        for picks in product(*per_slot):
            r = c = 0
            x, seen = w, 0
            for (rk, ck, xk), (_m, par), sp, d in zip(picks, ops, spaces, dims):
                r, c = r * d + rk, c * d + ck
                x = -x * xk if par and seen % 2 else x * xk
                seen += sp.parity(ck)
            out[r][c] = out[r].get(c, 0) + x
    return [{c: x for c, x in row.items() if x} for row in out]


def q_rows_by_terms(ps, k, l, weight=None):
    """sum_ij w(i, j) sgn_ij E_ij^(k) x E_ij^(aux) on V^l x V as row-sparse
    rows, term by term (kron_rows_by_terms), with w = 1 unless a weight
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
    return kron_rows_by_terms(terms, [ps.space()] * (l + 1))


def flip_by_terms(ps, slot_a, slot_b, nfactors):
    """The graded flip sum_ab s_b E_ab x E_ba on factors (slot_a, slot_b) of
    V^nfactors, term by term (kron_rows_by_terms): the reference for
    yangian.flip_at."""
    k = ps.kappa
    terms = []
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            par = (ps.parity(a) + ps.parity(b)) % 2
            ops = {slot_a - 1: (elementary(k, a, b, ps.sign(b)), par), slot_b - 1: (elementary(k, b, a), par)}
            terms.append((1, at_slots(nfactors, ops)))
    return kron_rows_by_terms(terms, [ps.space()] * nfactors)


def box_by_terms(ps, i, j, k, l):
    """E_ij^(k) on V^l (kron_rows_by_terms): the reference for
    drinfeld._box_at."""
    par = (ps.parity(i) + ps.parity(j)) % 2
    ops = at_slots(l, {k - 1: (elementary(ps.kappa, i, j), par)})
    return kron_rows_by_terms([(1, ops)], [ps.space()] * l)


def ref_rref(A):
    """Reduced row echelon form of a Fraction matrix by Gauss-Jordan over
    Q, dividing each pivot row by its pivot as it goes; returns (rows,
    pivot column indices), as many rows as A has, the zero rows last."""
    rows = [list(r) for r in A]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / Fraction(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [[Fraction(0)] * ncols for _ in range(len(rows) - r)], pivots


def mat_identity(n):
    """The n x n identity as Fraction rows."""
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def ref_nullspace(A, ncols):
    """The right nullspace of a matrix of ints or Fractions with ncols
    columns, read off ref_rref: for each non-pivot column f the Fraction
    vector that is 1 at f, 0 at every other non-pivot column, and minus
    the RREF's column f at each pivot; the identity when A has no rows."""
    rref, pivots = ref_rref(A)
    out = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(int(j == f)) for j in range(ncols)]
        for row, p in zip(rref, pivots):
            v[p] = -row[f]
        out.append(v)
    return out


def coefficient_matrices(rows, ncols):
    """The dense integer matrices C_k with rows = sum_k C_k u^k, for rows a
    row-sparse matrix over Z[u] with ncols columns, up to its degree."""
    top = max((len(e) for row in rows for e in row.values()), default=0)
    out = [[[0] * ncols for _ in rows] for _ in range(top)]
    for q, row in enumerate(rows):
        for c, e in row.items():
            for k, x in enumerate(e):
                out[k][q][c] = x
    return out


def ref_poly_kernel(rows, ncols):
    """The constant kernel of a row-sparse matrix over Z[u] with ncols
    columns by the dense route: the Fraction nullspace (ref_nullspace) of
    the nonzero rows of its coefficient matrices (coefficient_matrices),
    the reference for the Echelon of superlinalg.poly_kernel."""
    return ref_nullspace([r for C in coefficient_matrices(rows, ncols) for r in C if any(r)], ncols)


def ref_algebra_closure(gens, dim):
    """A basis of the unital algebra generated by gens inside End of a
    dim-dimensional space, by pairwise products over Q: every product g h
    and h g of a new element g with the basis so far is reduced against the
    flattened RREF rows kept so far, until nothing new appears or the basis
    reaches dim^2 elements."""
    cap = dim * dim
    rows, pivots, basis = [], [], []

    def add(mat):
        row = [Fraction(x) for r in mat for x in r]
        for br, p in zip(rows, pivots):
            if row[p]:
                f = row[p]
                row = [x - f * y for x, y in zip(row, br)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            return False
        rows.append([x / row[lead] for x in row])
        pivots.append(lead)
        basis.append(mat)
        return True

    queue = [g for g in list(gens) + [mat_identity(dim)] if add(g)]
    for g in queue:
        for h in list(basis):
            for prod in (mat_mul(g, h), mat_mul(h, g)):
                if len(basis) >= cap:
                    return basis
                if add(prod):
                    queue.append(prod)
    return basis


def _faddeev_leverrier(A):
    """(s, cs, Bs) for a rational matrix A, with s the lcm of its
    denominators, so that B = s A is integral (exactalg._zclear): then
    det(u*1 - B) = sum_k cs[k] u^(n-k) and adj(u*1 - B) = sum_k Bs[k]
    u^(n-1-k), by the Faddeev-LeVerrier scheme B_0 = 1, c_k = -tr(B B_(k-1))
    / k, B_k = B B_(k-1) + c_k 1, in Python ints: c_k is a coefficient of
    det(u*1 - B) in Z[u], so the division by k is exact."""
    n = len(A)
    s, B = _zclear(A)
    cs = [1]
    Bs = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for k in range(1, n + 1):
        M = mat_mul(B, Bs[-1])
        c = -sum(M[i][i] for i in range(n)) // k
        cs.append(c)
        if k < n:
            for i in range(n):
                M[i][i] += c
            Bs.append(M)
    return s, cs, Bs


def charpoly(A) -> Poly:
    """Characteristic polynomial det(u*1 - A) = sum_k c_k / s^k u^(n-k), the
    c_k those of s A (_faddeev_leverrier)."""
    s, cs, _Bs = _faddeev_leverrier(A)
    return Poly([Fraction(c, s**k) for k, c in enumerate(cs)][::-1])


def ref_cleared_resolvent(A):
    """(u*1 - A)^{-1} = R / d over Z[u] as superlinalg.cleared_resolvent
    returns it, read off the full adjugate: with B = s A integral, s
    adj(s u - B) / det(s u - B) from the Faddeev-LeVerrier data, reduced
    by exactalg._zreduce."""
    n = len(A)
    s, cs, Bs = _faddeev_leverrier(A)
    pw = [s**t for t in range(n + 1)]
    d = tuple(cs[n - t] * pw[t] for t in range(n + 1))
    R = [{} for _ in range(n)]
    for r, row in enumerate(R):
        for c in range(n):
            p = trimmed([Bs[n - 1 - t][r][c] * pw[t + 1] for t in range(n)])
            if p:
                row[c] = p
    d, entries = _zreduce(d, [p for row in R for p in row.values()])
    it = iter(entries)
    return [{c: next(it) for c in row} for row in R], d


def _coords_in_span(basis, vectors):
    """Coordinates of each vector in the span of basis, over Q (ref_rref);
    None if outside."""
    if not basis:
        return None if any(any(x for x in v) for v in vectors) else [[] for _ in vectors]
    dim = len(basis[0])
    cols = len(basis)
    # Augmented system [B | targets] with basis vectors as the B columns.
    rows = [[basis[k][r] for k in range(cols)] + [v[r] for v in vectors] for r in range(dim)]
    rref, pivots = ref_rref(rows)
    if any(p >= cols for p in pivots):
        return None
    out = []
    for t in range(len(vectors)):
        coord = [Fraction(0)] * cols
        for r, p in enumerate(pivots):
            coord[p] = rref[r][cols + t]
        out.append(coord)
    return out


def ref_sign_quotient(M, ps, epsilon, eps=None):
    """(subspace, free, proj, sect): the quotient of M x V^l by its sign
    relations over Q, the route the integer drinfeld._sign_relations and
    _kernel.echelon replace.  Each g - epsilon is
    assembled densely through kron_ops from M's generators read back over
    Q, for g = sigma_i x P^(i,i+1) and, given the twist signs eps (the
    relations of drinfeld.reflection_product), varsigma_l x G at the last
    V slot; every nonzero column of every one is scanned off the dense
    matrix; subspace and free are the RREF rows of their span and the
    non-pivot columns, and proj and sect the Fraction projection onto the
    free coordinates (1 at the free column, minus the RREF column at each
    pivot) and the section that puts them back."""
    l, kk = M.params.l, ps.kappa
    spaces = [SuperSpace([0] * M.dim), tensor_space([ps.space()] * l)]
    D = M.dim * kk**l
    gens = [(M.sigma[i - 1], _dense(flip_at(ps, i, i + 1, l), kk**l)) for i in range(1, l)]
    if eps is not None:
        ctx = TwistedContext(ps, eps)
        G = [[Fraction(ctx.eps_sign(r % kk + 1) if r == c else 0) for c in range(kk**l)] for r in range(kk**l)]
        gens.append((M.varsigma_l, G))
    cols = []
    for m, v in gens:
        op = kron_ops([(_dense(m, M.dim), 0), (v, 0)], spaces)
        for r in range(D):
            op[r][r] -= epsilon
        cols += [col for c in range(D) if any(col := [op[r][c] for r in range(D)])]
    rref, pivots = ref_rref(cols)
    subspace = rref[:len(pivots)]
    free = [j for j in range(D) if j not in pivots]
    proj = [[Fraction(0)] * D for _ in free]
    for q, f in enumerate(free):
        proj[q][f] = Fraction(1)
        for row, p in zip(subspace, pivots):
            if row[f]:
                proj[q][p] = -row[f]
    sect = [[Fraction(int(f == r)) for f in free] for r in range(D)]
    return subspace, free, proj, sect


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


# ---------------------------------------------------------------------------
# Highest weights over the function field.

def ref_highest_eigenseries(family, xi, letter):
    """The eigen-series of a highest vector as reduced RatFun, read off the
    RatFun blocks t: x_ij(u) xi = 0 for i < j, and x_ii(u) xi = lam xi
    checked entry by entry."""
    xi = [Fraction(x) for x in xi]
    if not any(xi):
        raise NotHighest("zero vector")
    kk = family.kappa
    for i in range(1, kk + 1):
        for j in range(i + 1, kk + 1):
            if any(family.t[(i, j)].mat_vec(xi)):
                raise NotHighest(f"{letter}_{i}{j}(u) does not annihilate the vector")
    p = next(k for k, x in enumerate(xi) if x)
    lams = []
    for i in range(1, kk + 1):
        w = family.t[(i, i)].mat_vec(xi)
        lam = w[p] / RatFun.const(xi[p])
        if any(w[q] - lam * xi[q] for q in range(len(xi))):
            raise NotHighest(f"{letter}_{i}{i}(u) is not scalar on the vector")
        lams.append(lam)
    return tuple(lams)


def ref_tilde(mus, ps, i):
    """(2u - rho_(i+1)) mu_i + sum_(a > i) s_a mu_a in RatFun arithmetic."""
    out = RatFun(Poly([-ps.rho(i + 1), 2])) * mus[i - 1]
    for a in range(i + 1, len(mus) + 1):
        out = out + RatFun.const(ps.sign(a)) * mus[a - 1]
    return out


def ref_verma_conditions(mus, ps, f):
    """The symmetry conditions on reduced RatFun series, each compared by
    cross multiplication of g(u) g(r - u) with h(u) h(r - u), and
    mu_kappa(u) mu_kappa(-u) with the unitarity scalar f (a RatFun)."""
    kk = len(mus)

    def reflected(g, r):
        return g.num * g.num.compose_linear(-1, r), g.den * g.den.compose_linear(-1, r)

    n, d = reflected(mus[kk - 1], 0)
    if n * f.den != f.num * d:
        return kk
    for i in range(1, kk):
        r = ps.rho(i + 1)
        ni, di = reflected(ref_tilde(mus, ps, i), r)
        nn, dn = reflected(ref_tilde(mus, ps, i + 1), r)
        if ni * dn != nn * di:
            return i
    return None


def ref_tilde_ratio(mus, ps):
    """mu~_1 / mu~_2 as a reduced RatFun, None when either vanishes."""
    t1, t2 = ref_tilde(mus, ps, 1), ref_tilde(mus, ps, 2)
    return t1 / t2 if t1 and t2 else None


def ref_solve_shift_quotient(ratio, s):
    """Monic P with P(u + s)/P(u) equal to the reduced RatFun ratio, or
    None: numerator roots matched to denominator roots along the
    s-lattice, in Fraction arithmetic, and the result verified."""
    s = Fraction(s)
    if ratio == RatFun.one():
        return Poly.one()
    num, den = ratio.num, ratio.den
    if num.degree != den.degree or num.leading() != den.leading():
        return None
    roots_n, cof_n = rational_roots(num.monic().coeffs)
    roots_d, cof_d = rational_roots(den.monic().coeffs)
    if len(cof_n) > 1 or len(cof_d) > 1:
        return None
    navail = [r for r, mult in roots_n for _ in range(mult)]
    davail = [r for r, mult in roots_d for _ in range(mult)]
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


def ref_solve_involution_quotient(ratio, c, sign_pair):
    """Monic P with ratio = sign_pair (-1)^deg P P(u)/P(-u+c), or None, for
    a reduced RatFun ratio: the minimal candidate, verified."""
    num, den = ratio.num, ratio.den
    if num.degree != den.degree:
        return None
    if num.leading() != sign_pair * den.leading():
        return None
    N = num.monic()
    D = den.monic()
    Nrev = N.compose_linear(-1, c).monic()
    if D == Nrev:
        P = N
    else:
        r = RatFun(D, Nrev)
        P = N * r.den
    sgn = sign_pair * (-1 if P.degree % 2 else 1)
    if rf_equal(ratio, RatFun(P, P.compose_linear(-1, c)) * sgn):
        return P
    return None


def bweight_from_series(mus, ctx):
    """The BHighestWeight of the RatFun series mus, cleared over their
    common denominator D to integer numerators."""
    D = common_den(mus)
    return BHighestWeight([poly_mul(m.zn, _zdiv(D, m.zd)) for m in mus], D, ctx)


# ---------------------------------------------------------------------------
# Induced Hecke modules over Q.

def ref_induced_y(params, basis, step, gens, base_y):
    """The y family of a module induced along the group, filled in over Q
    column by column: gens maps each simple generator to its row-sparse
    matrix on the module, base_y[i - 1] is y_i on the identity block, and
    column (w, v) of y_i is sgn g (column (w0, v) of y_j) + c e_(w0, v)
    along the step w = g o w0 (daha._cross)."""
    inner = len(base_y[0])
    dim = len(basis) * inner
    pos = {w: b for b, w in enumerate(basis)}
    gcols = {g: _transpose(m, dim) for g, m in gens.items()}
    cols = [_transpose(y, inner) + [None] * (dim - inner) for y in base_y]
    for b in range(1, len(basis)):
        g, w0 = step[basis[b]]
        b0 = pos[w0] * inner
        for i in range(1, params.l + 1):
            j, sgn, c = _cross(params, g, i)
            for v in range(inner):
                out = {}
                for r, x in cols[j - 1][b0 + v].items():
                    for r2, gx in gcols[g][r].items():
                        out[r2] = out.get(r2, 0) + sgn * gx * x
                if c:
                    out[b0 + v] = out.get(b0 + v, 0) + c
                cols[i - 1][b * inner + v] = {r: x for r, x in out.items() if x}
    return [_transpose(col, dim) for col in cols]


# ---------------------------------------------------------------------------
# The family constructors over the function field: the RatFun blocks
# {(i, j): RFMatrix} that the integer constructors of tyang.yangian and
# tyang.twisted are checked against.  Inverse series come from Gauss-Jordan
# on the block layout (ref_inverse), never from a constructor's own rule.

def family_form(t):
    """The ClearedForm of RFMatrix blocks t, through yangian.cleared_form_rf."""
    return cleared_form_rf({key: m.entries for key, m in t.items()})


def _par(ps, a, b):
    return (ps.parity(a) + ps.parity(b)) % 2


def ref_inverse(family):
    """The inverse series of a family: the Gauss-Jordan inverse of its
    unsigned block layout [[x_ij]], sliced back into blocks."""
    d, idx = family.dim, range(1, family.kappa + 1)
    layout = [[x for j in idx for x in family.t[(i, j)].entries[q]] for i in idx for q in range(d)]
    inv = rfmat_inverse(RFMatrix(layout)).entries
    sp = family.space
    return {
        (i, j): RFMatrix([row[(j - 1) * d:j * d] for row in inv[(i - 1) * d:i * d]], sp, sp)
        for i in idx
        for j in idx
    }


def rf_shift(T, z):
    """T(u - z) entry by entry."""
    return {key: m.subs_linear(1, -z) for key, m in T.t.items()}


def rf_tensor(L, R):
    """t_ij = sum_k t_ik x t_kj on L x R, Koszul-assembled by kron_sum."""
    ps, kk = L.ps, L.kappa
    spaces, space = [L.space, R.space], L.space.tensor(R.space)
    t = {}
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            terms = [
                (1, [(L.t[(i, k)].entries, _par(ps, i, k)), (R.t[(k, j)].entries, _par(ps, k, j))])
                for k in range(1, kk + 1)
                if not (L.t[(i, k)].is_zero() or R.t[(k, j)].is_zero())
            ]
            t[(i, j)] = RFMatrix.from_const(kron_sum(terms, spaces), space, space)
    return t


def rf_dual(T):
    """t*_ij(u), the sign-adjusted supertranspose of t'_ji(-u), with T' the
    Gauss-Jordan inverse."""
    ps, kk, d, pars = T.ps, T.kappa, T.dim, T.space.parities
    Tp = ref_inverse(T)
    t = {}
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            bs = _block_sign(ps, i, j)
            src = Tp[(j, i)].subs_neg()
            ent = [
                [src[p, q] if bs * (-1 if _par(ps, i, j) and pars[p] else 1) == 1 else -src[p, q] for p in range(d)]
                for q in range(d)
            ]
            t[(i, j)] = RFMatrix(ent, T.space, T.space)
    return t


def rf_c_gamma(ctx, gamma):
    """b_ii(u) = (eps_i u + gamma)/(u - gamma) on a one-dimensional space."""
    den = Poly([-gamma, 1])
    k = ctx.kappa
    return {
        (i, j): RFMatrix([[RatFun(Poly([gamma, Fraction(ctx.eps_sign(i))]), den) if i == j else RatFun.zero()]])
        for i in range(1, k + 1)
        for j in range(1, k + 1)
    }


def rf_b_tensor(L, W):
    """b_ij(u) = sum_{k,r} (-1)^(|b_kr| |t'_rj|) t_ik(u) t'_rj(-u) x b_kr(u) on
    L x W, kron_sum-assembled."""
    ps, kk = L.ps, L.kappa
    Lpn = {key: m.subs_neg() for key, m in ref_inverse(L).items()}
    wb = [(k, r, m) for (k, r), m in sorted(W.b.items()) if not m.is_zero()]
    spaces, carrier = [L.space, W.space], L.space.tensor(W.space)
    b = {}
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            terms = []
            for k, r, bkr in wb:
                t, tp = L.t[(i, k)], Lpn[(r, j)]
                if t.is_zero() or tp.is_zero():
                    continue
                sign = -1 if _par(ps, k, r) * _par(ps, r, j) else 1
                ops = [((t @ tp).entries, (_par(ps, i, k) + _par(ps, r, j)) % 2), (bkr.entries, _par(ps, k, r))]
                terms.append((sign, ops))
            b[(i, j)] = RFMatrix.from_const(kron_sum(terms, spaces), carrier, carrier)
    return b


def _rf_vector_coords_in_span(w, K):
    """A RatFun vector as a rational-function combination of the constant
    vectors K; None when outside their span."""
    if not K:
        return None if any(w) else []
    den, coeffs = cleared_coefficients(w)
    coeff_polys = [[Fraction(0)] * len(coeffs) for _ in K]
    for r, vec in enumerate(coeffs):
        coords = _coords_in_span(K, [vec])
        if coords is None:
            return None
        for t, c in enumerate(coords[0]):
            coeff_polys[t][r] = c
    return [RatFun(Poly(cs), den) for cs in coeff_polys]


def restrict_rf(M, K):
    """The restriction of the RFMatrix M to the span of the constant vectors
    K; raises ValueError when the span is not invariant."""
    cols = []
    for v in K:
        coords = _rf_vector_coords_in_span(M.mat_vec(v), K)
        if coords is None:
            raise ValueError("subspace is not invariant")
        cols.append(coords)
    k = len(K)
    return RFMatrix([[cols[c][r] for c in range(k)] for r in range(k)])


def rf_tilde_operator(B, i):
    """(2u - rho_{i+1}) b_ii(u) + sum_{a>i} s_a b_aa(u) as an RFMatrix."""
    ps = B.ps
    out = B.b[(i, i)].scale(RatFun(Poly([-ps.rho(i + 1), 2])))
    for a in range(i + 1, B.kappa + 1):
        out = out + B.b[(a, a)].scale(ps.sign(a))
    return out


def rf_reduce_rank(B, mode, a=None):
    """(b, K) of twisted.reduce_rank over the function field: K the common
    kernel (rfmat_kernel) and b the shifted, corrected blocks restricted
    to it (restrict_rf)."""
    kk, ps, idx = B.kappa, B.ps, range(1, B.kappa)
    if mode == "over":
        K = rfmat_kernel([B.b[(1, j)] for j in range(2, kk + 1)])
        return {(i, j): restrict_rf(B.b[(i + 1, j + 1)], K) for i in idx for j in idx}, K
    if mode == "under":
        K = rfmat_kernel([B.b[(i, kk)] for i in range(1, kk)])
        half = Fraction(ps.sign(kk), 2)
        corr = RatFun(Poly([half]), Poly([0, 1]))
        b = {}
        for i in idx:
            for j in idx:
                m = B.b[(i, j)].shift(half)
                if i == j:
                    m = m + B.b[(kk, kk)].shift(half).scale(corr)
                b[(i, j)] = restrict_rf(m, K)
        return b, K
    constraints = [B.b[(i, j)] for i in range(1, a) for j in range(i + 1, kk + 1)]
    constraints += [B.b[(k2, l)] for l in range(a + 2, kk + 1) for k2 in range(1, l)]
    K = rfmat_kernel(constraints) if constraints else [list(r) for r in mat_identity(B.dim)]
    shift = ps.rho(a + 2) / 2
    corr = RatFun(Poly([Fraction(1, 2)]), Poly([0, 1]))
    b = {}
    for i in (1, 2):
        for j in (1, 2):
            m = B.b[(a + i - 1, a + j - 1)].shift(shift)
            if i == j and a + 2 <= kk:
                extra = B.b[(a + 2, a + 2)].shift(shift).scale(ps.sign(a + 2))
                for k2 in range(a + 3, kk + 1):
                    extra = extra + B.b[(k2, k2)].shift(shift).scale(ps.sign(k2))
                m = m + extra.scale(corr)
            b[(i, j)] = restrict_rf(m, K)
    return b, K


def rf_find_highest_space(B):
    """twisted.find_highest_space over the function field: the kernel of
    the upper blocks, with the commutation of the restricted diagonal
    blocks checked on their numerator coefficients."""
    kk = B.kappa
    uppers = [B.b[(i, j)] for i in range(1, kk + 1) for j in range(i + 1, kk + 1)]
    K = rfmat_kernel(uppers) if uppers else [list(r) for r in mat_identity(B.dim)]
    if not K:
        return []
    coeffs = [restrict_rf(B.b[(r, r)], K).numerator_coefficients() for r in range(1, kk + 1)]
    for a in range(kk):
        for b in range(kk):
            if any(mat_mul(X, Y) != mat_mul(Y, X) for X in coeffs[a] for Y in coeffs[b]):
                raise ValueError(f"restricted diagonal operators {a+1},{b+1} fail to commute")
    return K


def ref_lambda_prime_check(T, xi, lams):
    """yangian.lambda_prime_check over the function field, on the RatFun
    blocks of T and of its Gauss-Jordan inverse."""
    xi = [Fraction(x) for x in xi]
    Tp = ref_inverse(T)
    kk = T.kappa
    for i in range(1, kk + 1):
        for j in range(i + 1, kk + 1):
            if any(Tp[(i, j)].mat_vec(xi)):
                return ("a", (i, j))
    for i in range(1, kk + 1):
        w = Tp[(i, i)].mat_vec(xi)
        lam_p = lambda_prime_formula(lams, T.ps, i)
        if any(w[q] - lam_p * RatFun.const(xi[q]) for q in range(len(xi))):
            return ("b", i)
    idx = range(1, kk + 1)
    A = {key: m.numerator_coefficients() for key, m in T.t.items()}
    Bxi = {key: [mat_vec(Bt, xi) for Bt in m.numerator_coefficients()] for key, m in Tp.items()}
    quads = [(i, a, c, j) for i in idx for j in range(i + 1, kk + 1) for a in idx for c in range(1, a + 1)]
    quads += [(i, a, c, i) for i in idx for a in idx for c in range(1, a)]
    for i, a, c, j in quads:
        if any(any(mat_vec(As, w)) for As in A[(i, a)] for w in Bxi[(c, j)]):
            return ("c", (i, a, c, j))
    return None


def ref_unitarity_scalar(B):
    """The (1, 1) entry of B(u) B(-u), formed block by block over the
    function field: the scalar f(u) of a family that passes unitarity."""
    neg = {key: m.subs_neg() for key, m in B.t.items()}
    return rf_block_product(B.t, neg)[(1, 1)][0, 0]


# ---------------------------------------------------------------------------
# gl(m|n) module helpers that only the tests use: the supercommutator
# relations of a module, its tensor product, its weight decomposition, its
# JSON writer, and the constant lift of an operator to one tensor factor.

class IrrationalSpectrum(ArithmeticError):
    """The commuting diagonal family is not split over the rationals."""


def _add_scaled(A, B, c):
    return [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def verify_gl_module(M):
    """Check every supercommutator relation; None on pass, else (i,j,k,l)."""
    ps = M.ps
    d = M.dim
    kk = ps.kappa
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            pij = (ps.parity(i) + ps.parity(j)) % 2
            eij = M.e(i, j)
            for k in range(1, kk + 1):
                for l in range(1, kk + 1):
                    pkl = (ps.parity(k) + ps.parity(l)) % 2
                    ekl = M.e(k, l)
                    sign = -1 if (pij and pkl) else 1
                    lhs = _add_scaled(mat_mul(eij, ekl), mat_mul(ekl, eij), -sign)
                    rhs = [[Fraction(0)] * d for _ in range(d)]
                    if j == k:
                        rhs = _add_scaled(rhs, M.e(i, l), 1)
                    if i == l:
                        rhs = _add_scaled(rhs, M.e(k, j), -sign)
                    if lhs != rhs:
                        return (i, j, k, l)
    return None


def gl_tensor(M, N):
    """Tensor product along x -> 1 x x + x x 1, with Koszul signs."""
    if M.ps != N.ps:
        raise ParameterError("tensor factors over different parity sequences")
    spaces = [M.space, N.space]
    action = {}
    for (i, j) in M.action:
        pi = (M.ps.parity(i) + M.ps.parity(j)) % 2
        left = kron_ops([(M.e(i, j), pi), (None, 0)], spaces)
        right = kron_ops([(None, 0), (N.e(i, j), pi)], spaces)
        action[(i, j)] = _add_scaled(left, right, 1)
    return GlModule(M.ps, M.space.tensor(N.space), action)


def weight_decompose(M):
    """Simultaneous eigenspace decomposition of the commuting e_ii family.

    Returns a dict mapping weight tuples to lists of basis vectors.  Raises
    IrrationalSpectrum when some e_ii has a non-rational eigenvalue or fails
    to be diagonalizable on M.
    """
    d = M.dim
    blocks = [((), [row[:] for row in mat_identity(d)])]
    for i in range(1, M.ps.kappa + 1):
        A = M.e(i, i)
        new_blocks = []
        for prefix, basis in blocks:
            coords = _coords_in_span(basis, [mat_vec(A, v) for v in basis])
            if coords is None:
                raise IrrationalSpectrum(f"e_{i}{i} does not preserve a weight block")
            sub = [[coords[c][r] for c in range(len(basis))] for r in range(len(basis))]
            roots, cof = rational_roots(charpoly(sub).coeffs)
            if len(cof) > 1:
                raise IrrationalSpectrum(f"e_{i}{i} has irrational eigenvalues")
            found = 0
            for lam, _mult in roots:
                shifted = [row[:] for row in sub]
                for r in range(len(shifted)):
                    shifted[r][r] -= lam
                null = mat_nullspace(shifted)
                if null:
                    lifted = []
                    for nv in null:
                        vec = [Fraction(0)] * d
                        for c, coeff in enumerate(nv):
                            if coeff:
                                for r in range(d):
                                    vec[r] += coeff * basis[c][r]
                        lifted.append(vec)
                    new_blocks.append((prefix + (lam,), lifted))
                    found += len(null)
            if found != len(basis):
                raise IrrationalSpectrum(f"e_{i}{i} is not diagonalizable on the module")
        blocks = new_blocks
    return {prefix: basis for prefix, basis in blocks}


def gl_to_json(M):
    """The payload that glmn.gl_from_json reads."""
    return {
        "ps": list(M.ps.s),
        "dim": M.dim,
        "parities": list(M.space.parities),
        "e": {f"{i},{j}": [[str(x) for x in row] for row in M.e(i, j)] for (i, j) in sorted(M.action)},
    }


def apply_at_factor(op, k, spaces, op_parity):
    """Lift op on the k-th factor (1-based) to the full tensor space, as a
    constant RFMatrix on the tensor of spaces."""
    if not 1 <= k <= len(spaces):
        raise DimensionMismatch(f"factor index {k} out of range")
    grid = kron_ops(at_slots(len(spaces), {k - 1: (op, op_parity)}), spaces)
    sp = tensor_space(spaces)
    return RFMatrix.from_const(grid, row_space=sp, col_space=sp)


# ---------------------------------------------------------------------------
# Rational functions over Fraction Polys.

class RefRatFun:
    """Reduced rational function num / den of Fraction Polys, den monic and
    coprime to num."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly(num if isinstance(num, (list, tuple)) else [num])
        den = Poly.one() if den is None else den if isinstance(den, Poly) else Poly([den])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            g = num.gcd(den)
            num, den = num // g, den // g
            num, den = num * (1 / den.leading()), den.monic()
        self.num, self.den = num, den

    @staticmethod
    def const(c):
        return RefRatFun(Poly.const(c))

    @staticmethod
    def x():
        return RefRatFun(Poly([0, 1]))

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, RefRatFun):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, RefRatFun):
            other = RefRatFun.const(other)
        return RefRatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RefRatFun(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, RefRatFun):
            other = RefRatFun.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RefRatFun):
            return RefRatFun(self.num * rat(other), self.den)
        return RefRatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RefRatFun):
            return RefRatFun(self.num, self.den * rat(other))
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RefRatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RefRatFun.const(other) / self

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return RefRatFun(self.den, self.num)

    def __call__(self, x):
        x = rat(x)
        d = self.den(x)
        if d == 0:
            raise PoleError(f"pole at {x}")
        return self.num(x) / d

    def subs_linear(self, a, b):
        return RefRatFun(self.num.compose_linear(a, b), self.den.compose_linear(a, b))

    def series(self, order):
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            raise ValueError("no expansion at infinity: numerator degree too large")
        a = [Fraction(0)] * (dd - dn) + list(reversed(self.num.coeffs))
        b = list(reversed(self.den.coeffs))
        acc = a + [Fraction(0)] * (order + 1 - len(a))
        out = []
        for r in range(order + 1):
            c = acc[r] / b[0]
            out.append(c)
            for j in range(len(b)):
                if r + j < len(acc):
                    acc[r + j] -= c * b[j]
        return out


def ref_rf_to_json(f):
    """exactalg.rf_to_json on a RefRatFun."""
    return {"num": [str(c) for c in f.num.coeffs], "den": [str(c) for c in f.den.coeffs]}
