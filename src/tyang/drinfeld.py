"""Functors from Hecke-algebra modules to (twisted) Yangian modules.

The carrier is M x V^l; the series action is a product of resolvent factors
1 + (u - shift - chi y_k)^{-1} Q^(k), twisted in the reflection case by the
diagonal matrix G + gamma/u and the mirrored inverse factors.  Every factor
is built cleared over Z[u], as F_k / d_k with d_k a scalar polynomial and
F_k = d_k 1 + K_k a matrix over Z[u] in the one row-sparse layout of
exactalg, read off the integer resolvent (superlinalg.cleared_resolvent)
and the integer coupling operator Q^(k); the product of the factors is
the one product exactalg._zmatmul.  The functor output lives on the quotient
of the carrier by the sign-isotypic images of the reflections, with the
projection P fixed by pivot order, so the product is formed at quotient
size: the sign relations and s P, the projection scaled to integers, come
first, and the product is multiplied from the left starting at s P x 1_V,
q kappa rows for a quotient of dimension q, kept as N / den without any
reduction (_cleared_product).  Its series entries are then s P x_ij(u),
on which the quotient is certified (s P x_ij(u) W = 0 on every power-of-u
coefficient, W a basis of the relation span), and whose free columns are
the induced action, the cleared form of s P N S / (s den).  An empty
quotient multiplies nothing.  The expansion check reads orders 0 and 1 on
the full carrier off the top two coefficients of the same factors
(_top_two), and order 2 modulo the quotient off the projected entries
(yangian.series_expansion).  The quotient has one layout from the Hecke
module on: the sign relations are the columns of s (g - epsilon), s the
module's scale, as integer row-sparse rows read off its integer
generators (_sign_relations), whose span is put in echelon form once, by
the fraction-free _kernel.echelon; its Echelon keeps those primitive
integer pivot rows, the free columns and, as its null rows, s P as
integer row-sparse rows, and the Fraction projection, section and RREF
of a DrinfeldModule are views of it.

The coupling operator Q^(k) = sum_ij sgn_ij E_ij^(k) x E_ij^(aux) is
assembled once per slot k as a tagged integer pattern (_q_pattern): its
entries are +-t, t the number of the term (i, j) that puts them there,
with the Koszul signs of the assembler.  Every weighting that a caller
needs is read off that one pattern (_q_rows): the factors of the series
product take it unweighted, and the appendix identities
(appendix_identities) take four weightings of it, all in Python ints.
The assembler's cost follows the entries it emits, and the appendix
accumulates its double sums in place, c A B at a time, into one
row-sparse matrix each (superlinalg.sparse_addmul).
"""

import operator
from fractions import Fraction

from tyang._kernel import echelon, poly_mul
from tyang.exactalg import _neg_u, _zadd, _zmatmul, _zneg, rat
from tyang.daha import DahaModule, DahaParams, induce_pair, sf_presentation
from tyang.glmn import ParitySeq
from tyang.superlinalg import (
    SuperSpace,
    _dense,
    _kron_rows,
    _kron_sum_rows,
    _transpose,
    at_slots,
    cleared_resolvent,
    elementary,
    mat_rank,
    poly_kernel,
    sparse_add,
    sparse_addmul,
    sparse_mul,
    sparse_scale,
    tensor_space,
)
from tyang.twisted import (
    BAction,
    TwistedContext,
    find_highest_space,
    highest_bweight,
    irreducible_burnside,
    b_tensor,
    b_to_json,
)
from tyang.yangian import TAction, cleared_form, flip_at, series_expansion, t_to_json


class ParameterConstraint(ValueError):
    pass


class WellDefinednessFailure(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DrinfeldModule:
    """Quotient carrier with its quotient, an Echelon, and the action.

    action is None exactly when the quotient is zero-dimensional.
    projection and section are read off the quotient as Fraction matrices.
    """

    def __init__(self, action, carrier_space, quotient):
        self.action = action
        self.carrier_space = carrier_space
        self.quotient = quotient

    @property
    def dim(self):
        return self.action.space.dim if self.action is not None else 0

    @property
    def projection(self):
        """P, the rows of s P (quotient.null) divided by s."""
        return self.quotient.vectors()

    @property
    def section(self):
        """The section that puts the free coordinates back."""
        return [[Fraction(int(f == r)) for f in self.quotient.free] for r in range(self.carrier_space.dim)]


def _q_pattern(ps: ParitySeq, k: int, l: int):
    """Q^(k) as a tagged pattern (terms, rows): terms lists the pairs (i, j)
    of its terms sgn_ij E_ij^(k) x E_ij^(aux), and rows, row-sparse, holds
    +-t where the term terms[t - 1] puts +-1.  The terms touch disjoint
    entries.  The terms are assembled by _kron_sum_rows with sgn_ij t in
    place of sgn_ij at slot k, so the signs of the pattern are those of the
    operator.
    """
    kk = ps.kappa
    terms, placed = [], []
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            pi, pj = ps.parity(i), ps.parity(j)
            sgn = -1 if (pi * pj + pi + pj) % 2 else 1
            par = (pi + pj) % 2
            terms.append((i, j))
            ops = {k - 1: (elementary(kk, i, j, sgn * len(terms)), par), l: (elementary(kk, i, j), par)}
            placed.append((1, at_slots(l + 1, ops)))
    return terms, _kron_sum_rows(placed, [ps.space()] * (l + 1))


def _q_rows(pattern, weight=None):
    """The operator sum_ij w(i, j) sgn_ij E_ij^(k) x E_ij^(aux) as integer
    row-sparse rows, read off the pattern of Q^(k) (_q_pattern): an entry
    +-t is +-w(i, j) for (i, j) = terms[t - 1], and w = 1 unless a weight
    function of the 1-based pair is given.  Entries of weight 0 are left
    out."""
    terms, rows = pattern
    w = [1] * len(terms) if weight is None else [weight(i, j) for i, j in terms]
    values = [0, *w, *(-x for x in reversed(w))]
    return [{c: values[t] for c, t in row.items() if values[t]} for row in rows]


def q_operator(ps: ParitySeq, k: int, l: int, weight=None):
    """The coupling operator between V-slot k and the auxiliary slot.

    It is sum_ij w(i, j) sgn_ij E_ij^(k) x E_ij^(aux), with w(i, j) = 1 unless
    a weight function of the 1-based pair (i, j) is given.
    """
    rows = _q_rows(_q_pattern(ps, k, l), weight)
    return _dense(rows, len(rows))


def _carrier(M: DahaModule, ps: ParitySeq) -> SuperSpace:
    """The super space M x V^l."""
    return tensor_space([SuperSpace([0] * M.dim)] + [ps.space()] * M.params.l)


def _cleared_factor(M: DahaModule, Q, k, chi, shift, sign=1, neg=False):
    """1 + sign * ((u + shift) 1 - chi y_k)^{-1} x Q^(k) on M x V^l x V, as a
    step (d, F) of _cleared_product: the factor is F / d with F = d 1 + K,
    for the resolvent R / d over Z[u] (cleared_resolvent) and K = sign *
    R x Q^(k).  d is an integer coefficient tuple and F a row-sparse
    matrix over Z[u]; every entry of K has degree below that of d, so no
    diagonal entry of F cancels.  Q is Q^(k) as integer row-sparse rows
    (_int_q_rows).  neg substitutes u -> -u.  Both tensor factors are
    even, so the Kronecker product carries no Koszul sign.
    """
    n = M.dim
    y = _dense(M.y[k - 1], n)
    A = [[chi * y[r][c] - (shift if r == c else 0) for c in range(n)] for r in range(n)]
    R, d = cleared_resolvent(A)
    if neg:
        d, R = _neg_u(d), [{c: _neg_u(p) for c, p in row.items()} for row in R]
    width = len(Q)
    F = []
    for Ra in R:
        blocks = [(b * width, x if sign == 1 else _zneg(x)) for b, x in Ra.items()]
        for Qr in Q:
            row = {base + c: x if q == 1 else tuple(q * a for a in x) for base, x in blocks for c, q in Qr.items()}
            r = len(F)
            row[r] = _zadd(row[r], d) if r in row else d
            F.append(row)
    return d, F


def _int_q_rows(ps: ParitySeq, l: int):
    """Q^(1), ..., Q^(l) as integer row-sparse rows."""
    return [_q_rows(_q_pattern(ps, k, l)) for k in range(1, l + 1)]


def _g_step(ctx: TwistedContext, dim):
    """1 x (G + gamma/u) on M x V^l x V as a step (d, F) of _cleared_product:
    (u G + gamma) / u scaled by the denominator s of gamma, so d = s u and
    F = s u G + s gamma, or G / 1 when ctx carries no gamma; F is diagonal."""
    kk = ctx.kappa
    if ctx.gamma is None:
        s, d, head = 1, (1,), ()
    else:
        g = rat(ctx.gamma)
        s, d, head = g.denominator, (0, g.denominator), (g.numerator,)
    return d, [{r: head + (ctx.eps_sign(r % kk + 1) * s,)} for r in range(dim)]


def _cleared_product(steps, start):
    """start times the product of the factors F / d over the steps (d, F),
    in order, as (N, den) over Z[u]: start and N row-sparse matrices over
    Z[u] and den = prod d.

    Each step is N <- N F, the one product exactalg._zmatmul, so no gcd is
    taken and every coefficient stays a Python int; N / den is the product
    as a matrix over the function field, with as many rows as start.  A
    start with no rows gives the empty matrix, over den = (1,), with no
    step taken.
    """
    if not start:
        return [], (1,)
    N = start
    den = (1,)
    for d, F in steps:
        N = _zmatmul(N, F)
        den = poly_mul(den, d)
    return N, den


def _top(p, e):
    """The coefficients of u^e and u^(e - 1) of the integer coefficient
    tuple p, which must have degree at most e."""
    if len(p) - 1 > e:
        raise ValueError("no expansion at infinity: numerator degree too large")
    return (p[e] if len(p) > e else 0), (p[e - 1] if 0 < e <= len(p) else 0)


def _top_two(steps, dim):
    """The top two coefficients of the product of the steps (d, F) of
    _cleared_product started at the identity on dim rows: (T, (b0, b1)),
    T row-sparse over pairs (n0, n1), the coefficients of u^D and u^(D - 1)
    in N for D = deg den, and b0, b1 those of den.

    Every entry of a step has degree at most e = deg d, so the product is
    read at the nominal degree D = sum e, and its length-2 truncation is
    the same step N <- N F on pairs: the top two coefficients of a
    product x p are (x0 p0, x0 p1 + x1 p0).  N / den expands at infinity
    as n0 / b0 + (n1 b0 - b1 n0) / (b0^2 u) + O(u^-2).
    """
    T = [{r: (1, 0)} for r in range(dim)]
    b0, b1 = 1, 0
    for d, F in steps:
        e = len(d) - 1
        d0, d1 = _top(d, e)
        Ft = [{c: t for c, x in row.items() if (t := _top(x, e)) != (0, 0)} for row in F]
        out = []
        for Tr in T:
            row = {}
            for k, (x0, x1) in Tr.items():
                for j, (p0, p1) in Ft[k].items():
                    y0, y1 = row.get(j, (0, 0))
                    row[j] = (y0 + x0 * p0, y1 + x0 * p1 + x1 * p0)
            out.append({j: y for j, y in row.items() if y != (0, 0)})
        T = out
        b0, b1 = b0 * d0, b0 * d1 + b1 * d0
    return T, (b0, b1)


def _check_invariant(blocks, basis, D):
    """The first key, in sorted order, whose series entry does not map the
    span of the constant basis into itself over the function field; None
    if none.

    The blocks hold s P N(u), the entries N(u) = sum_t N_t u^t projected by
    a nonzero multiple s P of the quotient projection, whose kernel is the
    span (row-sparse matrices over Z[u]).  N(u) preserves the span exactly
    when P N_t v = 0 for every power-of-u coefficient N_t and basis vector
    v, that is when s P N(u) times the basis, as the columns of one matrix,
    is zero.  The basis is the integer pivot rows of an Echelon, of
    length D, so the product runs in Python ints, on all the N_t at once.
    """
    cols = [{t: (x,) for t, x in col.items()} for col in _transpose(basis, D)]
    return next((key for key in sorted(blocks) if any(_zmatmul(blocks[key], cols))), None)


def _series_blocks(N, ps: ParitySeq, carrier: SuperSpace):
    """The series entries x_ij of the operator N on carrier x V, row-sparse."""
    kk = ps.kappa
    return {
        (i, j): _aux_entry(N, ps, i, j, carrier.parities, _zneg)
        for i in range(1, kk + 1)
        for j in range(1, kk + 1)
    }


def _sign_relations(M: DahaModule, ps: ParitySeq, epsilon, extra=()):
    """The nonzero columns of s (g - epsilon) on M x V^l, s the scale of M,
    as integer row-sparse rows: they span the quotient subspace.  g runs
    over sigma_i x P^(i,i+1) and m x v for (m, v) in extra, m given as the
    integer rows of s m (as M.int_zeta) and v as the +-1 integer rows of an
    operator on V^l (as flip_at).  Both factors are even, so g is a plain
    Kronecker product, and its columns are the rows of m^T x v^T."""
    l = M.params.l
    se = M.scale * epsilon
    pairs = [(M.int_sigma[i - 1], flip_at(ps, i, i + 1, l)) for i in range(1, l)]
    out = []
    for m, v in pairs + list(extra):
        w = len(v)
        vt = _transpose(v, w)
        for a, mcol in enumerate(_transpose(m, M.dim)):
            for b, vcol in enumerate(vt):
                col = {r * w + t: x * y for r, x in mcol.items() for t, y in vcol.items()}
                c = a * w + b
                col[c] = col.get(c, 0) - se
                if col := {k: x for k, x in col.items() if x}:
                    out.append(col)
    return out


def _quotient_module(blocks, den, carrier, quotient, letter, family, head) -> DrinfeldModule:
    """Quotient of the carrier by the span of quotient.basis, with the
    action induced by the series entries, given as the projected blocks
    s P N / den (see _projected_product).

    Raises WellDefinednessFailure when a series block (named letter_(i, j)
    in the message) does not preserve the subspace; the induced action is
    family(head, quotient space, form, ("drinfeld",)), form the cleared
    form of s P N S / (s den), the free columns of the blocks.
    """
    bad = _check_invariant(blocks, quotient.basis, carrier.dim)
    if bad is not None:
        raise WellDefinednessFailure(
            f"series coefficients do not preserve the quotient subspace at {letter}_{bad}",
            witness=bad,
        )
    action = None
    if quotient.free:
        qspace = SuperSpace([carrier.parities[f] for f in quotient.free])
        where = {f: q for q, f in enumerate(quotient.free)}
        qblocks = {key: [{where[c]: e for c, e in row.items() if c in where} for row in block]
                   for key, block in blocks.items()}
        action = family(head, qspace, cleared_form(poly_mul(den, (quotient.s,)), qblocks), ("drinfeld",))
    return DrinfeldModule(action, carrier, quotient)


def _projected_product(steps, quotient, ps, carrier):
    """(blocks, den): the series entries (_series_blocks) of (s P x 1_V) Pi,
    for Pi the product N / den of the steps (_cleared_product) on the
    carrier x V and s P the integer projection of the quotient, so each
    block holds q rows of s P N_ij, q the dimension of the quotient."""
    kk = ps.kappa
    start = [{p * kk + a: (x,) for p, x in prow.items()} for prow in quotient.null for a in range(kk)]
    N, den = _cleared_product(steps, start)
    return _series_blocks(N, ps, carrier), den


def drinfeld_A(M: DahaModule, ps: ParitySeq, epsilon=1, chi=None, c=0) -> DrinfeldModule:
    """Series action on the sign-quotient of M x V^l, type A.

    chi defaults to epsilon/theta1 (the well-definedness locus); an
    inconsistent explicit chi surfaces as WellDefinednessFailure.
    """
    if M.params.kind != "A" and M.params.kind != "BC":
        raise ParameterConstraint("unsupported module kind")
    if epsilon not in (1, -1):
        raise ParameterConstraint("epsilon must be +-1")
    th1 = M.params.theta1
    chi = rat(chi) if chi is not None else Fraction(epsilon) / th1
    c = rat(c)
    carrier = _carrier(M, ps)
    quotient = echelon(_sign_relations(M, ps, epsilon), carrier.dim)
    steps = [_cleared_factor(M, Q, k, chi, c) for k, Q in enumerate(_int_q_rows(ps, M.params.l), 1)]
    blocks, den = _projected_product(steps, quotient, ps, carrier)
    return _quotient_module(blocks, den, carrier, quotient, "t", TAction, ps)


class ReflectionProduct:
    """T_1(u)...T_l(u) (1 x (G + gamma/u)) S_l(-u)...S_1(-u) on M x V^l x V,
    at the size of its double sign-quotient.

    steps are its 2l + 1 cleared factors (d, F) (_cleared_product), for the
    resolved chi and gamma; ctx carries gamma (unset when it is 0).
    quotient is the Echelon of the sign relations on the carrier M x V^l
    of the double quotient, which do not depend on chi and gamma, and
    blocks / den are the series entries of (s P x 1_V) times the product
    (_projected_product), q rows of s P x_ij(u) each over integer
    coefficient tuples, q the dimension of the quotient.  The product on
    the whole carrier is never formed: bchi_expansion_check reads its
    orders 0 and 1 off the top two coefficients of the steps (_top_two).
    """

    __slots__ = ("M", "ps", "epsilon", "chi", "gamma", "ctx", "steps", "quotient", "blocks", "den")

    def __init__(self, M, ps, epsilon, chi, gamma, ctx, steps, quotient, blocks, den):
        self.M, self.ps, self.epsilon = M, ps, epsilon
        self.chi, self.gamma, self.ctx = chi, gamma, ctx
        self.steps, self.quotient, self.blocks, self.den = steps, quotient, blocks, den


def _bc_parameters(M: DahaModule, ps, eps, epsilon, chi=None, gamma=None):
    """chi and gamma resolved: chi defaults to epsilon/theta1 and gamma to
    (theta2/theta1 - varpi_1)/2."""
    th1, th2 = M.params.theta1, M.params.theta2
    chi = rat(chi) if chi is not None else Fraction(epsilon) / th1
    gamma = rat(gamma) if gamma is not None else (th2 / th1 - TwistedContext(ps, eps).varpi(1)) / 2
    return chi, gamma


def reflection_product(M: DahaModule, ps: ParitySeq, eps, epsilon=1, chi=None, gamma=None) -> ReflectionProduct:
    """Build the quotient of the sign relations, then the cleared
    reflection-twisted series product projected onto it, once."""
    if M.params.kind != "BC":
        raise ParameterConstraint("need a module carrying the flip generator")
    if epsilon not in (1, -1):
        raise ParameterConstraint("epsilon must be +-1")
    chi, gamma = _bc_parameters(M, ps, eps, epsilon, chi, gamma)
    ctx = TwistedContext(ps, eps, gamma if gamma != 0 else None)
    l = M.params.l
    jay = ps.jay
    carrier = _carrier(M, ps)
    g_last = [{r: g} for r, g in enumerate(_g_at_slot(ps, ctx, l, l))]
    relations = _sign_relations(M, ps, epsilon, [(M.int_zeta, g_last)])
    quotient = echelon(relations, carrier.dim)
    Qs = _int_q_rows(ps, l)
    steps = [_cleared_factor(M, Qs[k - 1], k, chi, -jay) for k in range(1, l + 1)]
    steps.append(_g_step(ctx, carrier.dim * ps.kappa))
    # S_k(-u) = 1 - ((-u + jay) 1 - chi y_k)^{-1} Q^(k).
    steps += [_cleared_factor(M, Qs[k - 1], k, chi, jay, sign=-1, neg=True) for k in range(l, 0, -1)]
    blocks, den = _projected_product(steps, quotient, ps, carrier)
    return ReflectionProduct(M, ps, epsilon, chi, gamma, ctx, steps, quotient, blocks, den)


def _product_for(product, M, ps, eps, epsilon, chi=None, gamma=None) -> ReflectionProduct:
    """product, when it was built from M, ps, eps and epsilon with chi and
    gamma resolving to its own; otherwise a new product."""
    if product is None:
        return reflection_product(M, ps, eps, epsilon, chi, gamma)
    if (product.M, product.ps, product.ctx.eps, product.epsilon) != (M, ps, tuple(eps), epsilon):
        raise ValueError("the shared product was built from other inputs")
    if (product.chi, product.gamma) == _bc_parameters(M, ps, eps, epsilon, chi, gamma):
        return product
    return reflection_product(M, ps, eps, epsilon, chi, gamma)


def drinfeld_BC(M: DahaModule, ps: ParitySeq, eps, epsilon=1, chi=None, gamma=None,
                product=None) -> DrinfeldModule:
    """Reflection-twisted series action on the double sign-quotient.

    chi defaults to epsilon/theta1 and gamma to (theta2/theta1 - varpi_1)/2;
    explicit values off the constraint locus surface as
    WellDefinednessFailure with the offending generator as witness.  A
    reflection_product of the same M, ps, eps and epsilon is reused when
    chi and gamma resolve to its own.
    """
    product = _product_for(product, M, ps, eps, epsilon, chi, gamma)
    return _quotient_module(product.blocks, product.den, _carrier(M, ps), product.quotient,
                            "b", BAction, product.ctx)


def _g_at_slot(ps, ctx, slot, l):
    """G acting on one V factor of V^l (an even diagonal, no Koszul signs),
    as the +-1 sign vector of its diagonal."""
    kk = ps.kappa
    return [ctx.eps_sign(idx // kk ** (l - slot) % kk + 1) for idx in range(kk**l)]


def tk_sk_identity(M: DahaModule, ps: ParitySeq, epsilon=1, chi=None):
    """T_k(u) S_k(u) = 1 for every k, checked cleared over Z[u] as
    N_T N_S = d_T d_S 1, both sides over the same scale of the two steps;
    None on pass, else the failing k."""
    th1 = M.params.theta1
    chi = rat(chi) if chi is not None else Fraction(epsilon) / th1
    jay = ps.jay
    l = M.params.l
    dim = M.dim * ps.kappa ** (l + 1)
    for k, Q in enumerate(_int_q_rows(ps, l), 1):
        steps = [_cleared_factor(M, Q, k, chi, -jay), _cleared_factor(M, Q, k, chi, jay, sign=-1)]
        N, den = _cleared_product(steps, [{r: (1,)} for r in range(dim)])
        if N != [{r: den} for r in range(dim)]:
            return k
    return None


def bchi_expansion_check(M: DahaModule, ps: ParitySeq, eps, epsilon=1, product=None):
    """Compare the first three series coefficients with their closed forms.

    Order 0 must be the diagonal sign matrix and order 1 the gamma shift
    plus the sign-weighted single-box sum, both on the nose, on the whole
    carrier: they are read off the top two coefficients of the product
    (_top_two) and compared as integers, N_0 = eps_i b_0 delta_ij and
    N_1 b_0 - b_1 N_0 = (s_i (eps_i + eps_j) box + gamma delta_ij) b_0^2.
    The order-2 form in the transformed commuting family holds modulo the
    quotient subspace (its derivation trades V-side flips for module-side
    group elements, which is exactly the quotient identification), so that
    order is checked as an equality of induced quotient operators, s P
    times each side, on the projected blocks.  The series is the
    default-parameter reflection_product; a shared product is reused when
    its chi and gamma are the defaults.  Returns None or (order, (i, j)).
    """
    th1 = M.params.theta1
    _chi, gamma = _bc_parameters(M, ps, eps, epsilon)
    ctx0 = TwistedContext(ps, eps)
    l = M.params.l
    kk = ps.kappa

    product = _product_for(product, M, ps, eps, epsilon)
    spaces = [SuperSpace([0] * M.dim)] + [ps.space()] * l
    carrier = _carrier(M, ps)
    prows = product.quotient.null

    ys, fail = sf_presentation(M)
    if fail is not None:
        raise ParameterConstraint(f"module fails the transformed relations: {fail}")
    ys_dense = [_dense(y, M.dim) for y in ys]

    top, (b0, b1) = _top_two(product.steps, carrier.dim * kk)
    g = gamma * b0 * b0
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            ei, ej = ctx0.eps_sign(i), ctx0.eps_sign(j)
            si = ps.sign(i)
            pij = (ps.parity(i) + ps.parity(j)) % 2
            e = elementary(kk, i, j)
            entry = _aux_entry(top, ps, i, j, carrier.parities, lambda x: (-x[0], -x[1]))

            for q, row in enumerate(entry):
                if {c: x0 for c, (x0, _x1) in row.items() if x0} != ({q: ei * b0} if i == j else {}):
                    return (0, (i, j))
            # sum_k E_ij^(k) on V^l, Koszul-signed, tensored with 1_M.
            box = _kron_sum_rows([(1, at_slots(l + 1, {k: (e, pij)})) for k in range(1, l + 1)], spaces)
            w = si * (ei + ej) * b0 * b0
            for q, row in enumerate(entry):
                want = {c: w * x for c, x in box[q].items()}
                if i == j:
                    want[q] = want.get(q, 0) + g
                got = {c: x1 * b0 - b1 * x0 for c, (x0, x1) in row.items()}
                if {c: x for c, x in got.items() if x} != {c: x for c, x in want.items() if x}:
                    return (1, (i, j))

            if ei != ej:
                ybox = _kron_sum_rows(
                    [(1, at_slots(l + 1, {0: (ys_dense[k - 1], 0), k: (e, pij)})) for k in range(1, l + 1)],
                    spaces,
                )
                scale = Fraction(-2 * ei) / (si * epsilon * th1)
                coeff2 = series_expansion(product.blocks[(i, j)], product.den, 2, carrier.dim)[2]
                for got, want in zip(coeff2, sparse_mul(prows, ybox)):
                    if any(a != scale * want.get(c, 0) for c, a in enumerate(got)):
                        return (2, (i, j))
    return None


def appendix_identities(ps: ParitySeq, eps, l: int):
    """Exact operator identities on V^l x V; None on pass, else an id.

    Works on integer row-sparse matrices.  Each Q^(k) is assembled once, as
    a tagged pattern (_q_pattern), and its four weightings (all ones, the
    equal-sign and the mixed-sign pairs, and the sign sum eps_i + eps_j)
    are read off it by _q_rows; the split Q = Q_same + Q_mixed is checked
    on the weightings, so it fails when a weight is wrong.  Every flip
    (flip_at) and box (_box_at) comes out of the assembler in ints, and G
    and the Gz_k are +-1 sign vectors that scale rows or columns.  The
    double sums are accumulated in place, one product c A B at a time,
    into one row-sparse matrix each (sparse_addmul); the flip weights of
    the boxes in them do not depend on (i, j) and are summed once
    (_sigma_weights, _flip_pair_weights); and as G, s_i and eps_i are
    signs, each comparison scales one side only.
    """
    kk = ps.kappa
    ctx = TwistedContext(ps, eps)
    jay2 = ps.m - ps.n  # 2 * jay
    varpi1 = int(ctx.varpi(1))  # a signed sum of signs
    dim = kk ** (l + 1)
    g = [ctx.eps_sign(idx % kk + 1) for idx in range(dim)]

    same = lambda i, j: int(ctx.eps_sign(i) == ctx.eps_sign(j))
    mixed = lambda i, j: int(ctx.eps_sign(i) != ctx.eps_sign(j))
    eps_sum = lambda i, j: ctx.eps_sign(i) + ctx.eps_sign(j)
    Qs = []
    for k in range(1, l + 1):
        pattern = _q_pattern(ps, k, l)
        Qk = _q_rows(pattern)
        Qkk = _q_rows(pattern, same)
        Qkp = _q_rows(pattern, mixed)
        if sparse_add(Qkk, Qkp) != Qk:
            return f"split Q^({k})"
        kp, pk = sparse_mul(Qkk, Qkp), sparse_mul(Qkp, Qkk)
        if sparse_add(kp, pk) != sparse_scale(Qkp, jay2):
            return f"anticommutator Q^k Q^p at k={k}"
        # G (Q^k Q^p - Q^p Q^k) = varpi_1 Q^p, with G = G^-1 moved across.
        if sparse_add(kp, pk, -1) != sparse_scale(Qkp, varpi1, rows=g):
            return f"twisted commutator at k={k}"
        # G Q + Q G carries the sign sum entrywise.
        both = [{c: y for c, x in row.items() if (y := (gr + g[c]) * x)} for gr, row in zip(g, Qk)]
        if both != _q_rows(pattern, eps_sum):
            return f"diagonal sum at k={k}"
        Qs.append(Qk)
    if l >= 2:
        # lhs1 = sum_{k != r} (Q_k Q_r G if k < r else G Q_k Q_r), that is
        # sum_{r < k} (Q_r Q_k G + G Q_k Q_r), and
        # sum_{k, r} Q_k G Q_r = (sum_k Q_k) G (sum_r Q_r).
        lhs1, qsum = [{} for _ in range(dim)], [{} for _ in range(dim)]
        for k, Qk in enumerate(Qs):
            sparse_addmul(qsum, Qk)
            if k:
                QkG, GQk = sparse_scale(Qk, cols=g), sparse_scale(Qk, rows=g)
                for Qr in Qs[:k]:
                    sparse_addmul(lhs1, Qr, QkG)
                    sparse_addmul(lhs1, GQk, Qr)
        lhs2 = sparse_mul(sparse_scale(qsum, cols=g), qsum)
        flips = {(a, b): flip_at(ps, a, b, l) for a in range(1, l + 1) for b in range(a + 1, l + 1)}
        gz = [_g_at_slot(ps, ctx, slot, l) for slot in range(1, l + 1)]
        pars = tensor_space([ps.space()] * l).parities
        sigma, pair = _sigma_weights(flips, l), _flip_pair_weights(flips, gz, varpi1)
        for i in range(1, kk + 1):
            for j in range(1, kk + 1):
                if ctx.eps_sign(i) == ctx.eps_sign(j):
                    continue
                # s_i want = -e_i got (ordered) and e_i got (sandwiched),
                # and s_i = +-1, so want = -+e_i s_i got.
                si = ps.sign(i)
                ei = ctx.eps_sign(i)
                boxes = [_box_at(ps, i, j, k, l) for k in range(1, l + 1)]
                got1 = _aux_entry(lhs1, ps, i, j, pars)
                if _box_sum(sigma, boxes) != sparse_scale(got1, -ei * si):
                    return f"ordered double sum at (i,j)=({i},{j})"
                got2 = _aux_entry(lhs2, ps, i, j, pars)
                if _box_sum(pair, boxes) != sparse_scale(got2, ei * si):
                    return f"sandwiched double sum at (i,j)=({i},{j})"
    return None


def _aux_entry(F, ps: ParitySeq, i, j, pars, neg=operator.neg):
    """Standard (i, j) entry of a row-sparse operator F from W x V to U x V,
    as a row-sparse matrix from W to U, whose basis parities on W are pars
    (the inverse of the Koszul assembly of yangian.realize_mixed, with its
    block signs; U = W for a square F, and F from W x V to U x V is G x 1_V
    times a square one exactly when the entry is G times its entry).  A
    sign is applied entrywise through neg, the negation of F's entries."""
    kk = ps.kappa
    pi, pj = ps.parity(i), ps.parity(j)
    # Negate by the block sign (-1)^(pi pj + pj), and once more on an odd
    # basis vector of W when the entry is odd (pi + pj): flip[parity].
    flip = [(pi * pj + pj) % 2 == 1, (pi * pj + pi) % 2 == 1]
    out = []
    for q in range(len(F) // kk):
        row = {}
        for c, v in F[q * kk + (i - 1)].items():
            p, jc = divmod(c, kk)
            if jc == j - 1:
                row[p] = neg(v) if flip[pars[p]] else v
        out.append(row)
    return out


def _box_at(ps, i, j, k, l):
    """E_ij^(k) on V^l, row-sparse."""
    e = elementary(ps.kappa, i, j)
    return _kron_rows(at_slots(l, {k - 1: (e, (ps.parity(i) + ps.parity(j)) % 2)}), [ps.space()] * l)


def _sigma_weights(flips, l):
    """The weights sum_{r<k} P^(r,k) - sum_{r>k} P^(r,k) of the boxes
    E_ij^(k) in the ordered double sum, for k = 1 .. l >= 2, on V^l.

    Row-sparse throughout: flips[(a, b)] is P^(a,b) for a < b, and each
    +-P^(r,k) is added in place.
    """
    out = []
    for k in range(1, l + 1):
        acc = [{} for _ in flips[1, 2]]
        for r in range(1, l + 1):
            if r != k:
                sparse_addmul(acc, flips[min(r, k), max(r, k)], None, 1 if r < k else -1)
        out.append(acc)
    return out


def _flip_pair_weights(flips, gz, varpi1):
    """The weights sum_{r != k} P^(k,r) Gz_r Gz_k + varpi_1 Gz_k of the boxes
    E_ij^(k) in the sandwiched double sum, for k = 1 .. l, on V^l.

    Row-sparse throughout, as in _sigma_weights; gz[k - 1] is the sign
    vector of Gz_k.
    """
    l = len(gz)
    out = []
    for k in range(1, l + 1):
        gk = gz[k - 1]
        acc = [{c: varpi1 * s} if varpi1 else {} for c, s in enumerate(gk)]
        for r in range(1, l + 1):
            if r != k:
                signs = [a * b for a, b in zip(gz[r - 1], gk)]
                sparse_addmul(acc, sparse_scale(flips[min(r, k), max(r, k)], cols=signs))
        out.append(acc)
    return out


def _box_sum(weights, boxes):
    """sum_k weights[k - 1] E_ij^(k) on V^l, boxes[k - 1] being E_ij^(k),
    accumulated in place."""
    out = [{} for _ in boxes[0]]
    for w, box in zip(weights, boxes):
        sparse_addmul(out, w, box)
    return out


def drinfeld_to_json(D: DrinfeldModule) -> dict:
    """Quotient data plus the induced action, ready for replay."""
    out = {
        "carrier_parities": list(D.carrier_space.parities),
        "projection": [[str(x) for x in row] for row in D.projection],
        "section": [[str(x) for x in row] for row in D.section],
        "subspace": [[str(Fraction(row.get(c, 0), row[min(row)])) for c in range(D.carrier_space.dim)]
                     for row in D.quotient.basis],
    }
    if D.action is None:
        out["action"] = None
    elif isinstance(D.action, BAction):
        out["action"] = {"kind": "twisted", "data": b_to_json(D.action)}
    else:
        out["action"] = {"kind": "series", "data": t_to_json(D.action)}
    return out


def functor_tensor_check(M1: DahaModule, M2: DahaModule, ps: ParitySeq, eps, epsilon=1):
    """Compare the functor of an induced product with the tensor of functors.

    Both sides are built for one letter on each side; the comparison covers
    dimensions, singular-space data, irreducibility verdicts, and an exact
    invertible intertwiner.  Returns None on agreement, else a tag.
    """
    if M1.params.l != 1 or M2.params.l != 1:
        raise ParameterConstraint("one letter on each side only")
    th1, th2 = M2.params.theta1, M2.params.theta2
    params2 = DahaParams(2, th1, th2)
    induced = induce_pair(M1, M2, params2)
    lhs_mod = drinfeld_BC(induced, ps, eps, epsilon)

    jay = ps.jay
    DA = drinfeld_A(M1, ps, epsilon, c=-jay)
    DB = drinfeld_BC(M2, ps, eps, epsilon)
    if DB.action is None or lhs_mod.action is None:
        if lhs_mod.dim != DA.dim * DB.dim:
            return "dimension"
        return None
    lhs = lhs_mod.action
    rhs = b_tensor(DA.action, DB.action)

    if lhs.dim != rhs.dim:
        return "dimension"
    KL = find_highest_space(lhs)
    KR = find_highest_space(rhs)
    if len(KL) != len(KR):
        return "singular-space-dimension"
    if len(KL) == 1:
        muL = highest_bweight(lhs, KL[0])
        muR = highest_bweight(rhs, KR[0])
        if muL.mus != muR.mus:
            return "highest-weight"
    vL = irreducible_burnside(lhs)
    vR = irreducible_burnside(rhs)
    if vL.status != vR.status:
        return "irreducibility"
    X = _intertwiner(lhs, rhs)
    if X is None:
        return "intertwiner"
    return None


def _intertwiner(lhs: BAction, rhs: BAction):
    """An invertible X with lhs_ij(u) X = X rhs_ij(u), or None.

    With lhs = N / d and rhs = M / e over Z[u], X intertwines exactly when
    e N_ij X - d X M_ij = 0 identically for every block: row-sparse rows
    over Z[u] on the n^2 entries of X (row r n + c reads e N[r][a] at
    X[a][c] and -d M[b][c] at X[r][b]), whose common constant kernel
    (poly_kernel) is the space of intertwiners.
    """
    n = lhs.dim
    A, B = lhs.cleared(), rhs.cleared()
    rows = []
    for key in sorted(A.blocks):
        NA, NB = A.blocks[key], B.blocks[key]
        cols = [{} for _ in range(n)]  # the columns of M_ij, row-sparse
        for b, row in enumerate(NB):
            for c, x in row.items():
                cols[c][b] = _zneg(poly_mul(A.den_coeffs, x))
        for r in range(n):
            for c in range(n):
                row = {a * n + c: poly_mul(B.den_coeffs, x) for a, x in NA[r].items()}
                for b, x in cols[c].items():
                    row[r * n + b] = _zadd(row[r * n + b], x) if r * n + b in row else x
                rows.append({k: x for k, x in row.items() if x})
    if not any(rows):
        return None
    basis = poly_kernel(rows, n * n).vectors()
    for v in basis:
        X = [[v[r * n + c] for c in range(n)] for r in range(n)]
        if mat_rank(X) == n:
            return X
    # Small combinations when single basis vectors are singular.
    if len(basis) >= 2:
        for t in range(1, 4):
            v = [a + t * b for a, b in zip(basis[0], basis[1])]
            X = [[v[r * n + c] for c in range(n)] for r in range(n)]
            if mat_rank(X) == n:
                return X
    return None
