"""Functors from Hecke-algebra modules to (twisted) Yangian modules.

The carrier is M x V^l; the series action is a product of resolvent factors
1 + (u - shift - chi y_k)^{-1} Q^(k), twisted in the reflection case by the
diagonal matrix G + gamma/u and the mirrored inverse factors.  Every factor
is built cleared over Z[u], as (d_k 1 + K_k) / d_k with d_k a scalar
polynomial and K_k row-sparse, both held as integer coefficient tuples
read off the integer resolvent (superlinalg.cleared_resolvent) and the
integer coupling operator Q^(k), and the product is
kept as N / den without any reduction: the quotient subspace is certified
on the power-of-u coefficients of N, the series expansion is read off
N / den (yangian.series_expansion), and the induced quotient action is the
cleared form of s P N S / (s den), with s P the projection scaled to
integers.  The functor output lives on the quotient by the sign-isotypic
images of the reflections, with explicit projection and section fixed by
pivot order.  The module enters only through its generators over Q (the
Hecke module holds them as integer rows over its own scale and divides on
the read).

The coupling operator Q^(k) = sum_ij sgn_ij E_ij^(k) x E_ij^(aux) is
assembled once per slot k as a tagged integer pattern (_q_pattern): its
entries are +-t, t the number of the term (i, j) that puts them there,
with the Koszul signs of the assembler.  Every weighting that a caller
needs is read off that one pattern (_q_rows): the factors of the series
product take it unweighted, and the appendix identities
(appendix_identities) take four weightings of it, all in Python ints.
"""

import operator
from fractions import Fraction

from tyang._kernel import mat_mul, mat_rref, poly_mul
from tyang.exactalg import RatFun, _neg_u, _zadd, _zclear, _zneg, rat
from tyang.daha import DahaModule, sf_presentation
from tyang.glmn import ParitySeq
from tyang.superlinalg import (
    RFMatrix,
    SuperSpace,
    _dense,
    _kron_rows,
    _kron_sum_rows,
    at_slots,
    cleared_resolvent,
    elementary,
    kron_ops,
    kron_sum,
    mat_rank,
    rfmat_kernel,
    sparse_add,
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
)
from tyang.yangian import TAction, _trimmed, cleared_form, flip_at, series_expansion


class ParameterConstraint(ValueError):
    pass


class WellDefinednessFailure(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DrinfeldModule:
    """Quotient carrier with explicit projection/section and the action.

    action is None exactly when the quotient is zero-dimensional.
    """

    def __init__(self, action, carrier_space, projection, section, subspace):
        self.action = action
        self.carrier_space = carrier_space
        self.projection = projection
        self.section = section
        self.subspace = subspace

    @property
    def dim(self):
        return self.action.space.dim if self.action is not None else 0


def _q_pattern(ps: ParitySeq, k: int, l: int):
    """Q^(k) as a tagged pattern (terms, rows): terms lists the pairs (i, j)
    of its terms sgn_ij E_ij^(k) x E_ij^(aux), and rows, row-sparse, holds
    +-t where the term terms[t - 1] puts +-1.  The terms touch disjoint
    entries.  Each term is assembled by _kron_rows with sgn_ij t in place of
    sgn_ij at slot k, so the signs of the pattern are those of the operator.
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
    step (d, K) of _cleared_product: the factor is (d 1 + K) / d for the
    resolvent R / d over Z[u] (cleared_resolvent) and K = sign * R x Q^(k).
    d is an integer coefficient tuple and K is row-sparse over such tuples.
    Q is Q^(k) as integer row-sparse rows (_int_q_rows).  neg substitutes
    u -> -u.  Both tensor factors are even, so the Kronecker product
    carries no Koszul sign.
    """
    n = M.dim
    y = _dense(M.y[k - 1], n)
    A = [[chi * y[r][c] - (shift if r == c else 0) for c in range(n)] for r in range(n)]
    R, d = cleared_resolvent(A)
    if neg:
        d, R = _neg_u(d), [[_neg_u(p) for p in row] for row in R]
    width = len(Q)
    K = []
    for Ra in R:
        blocks = [(b * width, x if sign == 1 else _zneg(x)) for b, x in enumerate(Ra) if x]
        for Qr in Q:
            K.append({
                base + c: x if q == 1 else tuple(q * a for a in x)
                for base, x in blocks for c, q in Qr.items()
            })
    return d, K


def _int_q_rows(ps: ParitySeq, l: int):
    """Q^(1), ..., Q^(l) as integer row-sparse rows."""
    return [_q_rows(_q_pattern(ps, k, l)) for k in range(1, l + 1)]


def _g_step(ctx: TwistedContext, dim):
    """1 x (G + gamma/u) on M x V^l x V as a step (d, K) of _cleared_product:
    (u G + gamma) / u scaled by the denominator s of gamma, so d = s u, or
    G / 1 when ctx carries no gamma; K = d (G - 1) + s gamma is diagonal."""
    kk = ctx.kappa
    if ctx.gamma is None:
        s, d, head = 1, (1,), ()
    else:
        g = rat(ctx.gamma)
        s, d, head = g.denominator, (0, g.denominator), (g.numerator,)
    signs = [ctx.eps_sign(a) for a in range(1, kk + 1)]
    diag = [head + ((e - 1) * s,) if e != 1 else head for e in signs]
    return d, [{r: diag[r % kk]} if diag[r % kk] else {} for r in range(dim)]


def _cleared_product(steps, dim):
    """The product of the factors (d 1 + K) / d over the steps (d, K), in
    order, as (N, den) over Z[u]: N row-sparse over integer coefficient
    tuples and den = prod d.

    Each step is N <- d N + N K, so no gcd is taken and every coefficient
    stays a Python int; N / den is the product as a matrix over the
    function field.  Entries
    that cancel are dropped, so == on two results is matrix equality.
    """
    N = [{r: (1,)} for r in range(dim)]
    den = (1,)
    for d, K in steps:
        out = []
        for Nr in N:
            row = dict(Nr) if d == (1,) else {c: poly_mul(d, x) for c, x in Nr.items()}
            for k, a in Nr.items():
                for j, b in K[k].items():
                    t = poly_mul(a, b)
                    prev = row.get(j)
                    row[j] = t if prev is None else _zadd(prev, t)
            out.append({j: x for j, x in row.items() if x})
        N = out
        den = poly_mul(den, d)
    return N, den


def _column_span_rref(mats):
    """RREF basis of the combined column space of the given matrices."""
    rows = []
    for m in mats:
        for c in range(len(m[0])):
            col = [m[r][c] for r in range(len(m))]
            if any(col):
                rows.append(col)
    if not rows:
        return [], []
    rref, pivots = mat_rref(rows)
    return [rref[i] for i in range(len(pivots))], pivots


def _quotient_maps(nrows, pivots, D):
    free = [j for j in range(D) if j not in set(pivots)]
    q = len(free)
    proj = [[Fraction(0)] * D for _ in range(q)]
    for qi, f in enumerate(free):
        proj[qi][f] = Fraction(1)
        for r, p in enumerate(pivots):
            if nrows[r][f]:
                proj[qi][p] = -nrows[r][f]
    sect = [[Fraction(0)] * q for _ in range(D)]
    for qi, f in enumerate(free):
        sect[f][qi] = Fraction(1)
    return proj, sect, free


def _integer_rows(rows):
    """(s, out): s the lcm of the denominators of the Fraction matrix rows
    and out the rows of s rows as sparse (column, int) pairs."""
    s, ints = _zclear(rows)
    return s, [[(c, x) for c, x in enumerate(row) if x] for row in ints]


def _check_invariant(blocks, basis, prows):
    """The first key, in sorted order, whose block does not map the span of
    the constant basis into itself over the function field; None if none.

    A block N(u) = sum_t N_t u^t (row-sparse over integer coefficient
    tuples, entry t that of u^t) preserves the span exactly when
    proj N_t v = 0 for every power-of-u coefficient N_t and basis vector v,
    where proj, the quotient projection whose kernel is the span, is given
    by the integer rows prows of a nonzero multiple of it (_integer_rows).
    The basis is scaled to integers too (a nonzero scale does not change
    which products vanish), so the products run in Python ints, on all the
    N_t at once.
    """
    vecs = _integer_rows(basis)[1]
    for key in sorted(blocks):
        block = blocks[key]
        for nz in vecs:
            w = []
            for row in block:
                acc = []
                for c, x in nz:
                    if c in row:
                        _add_scaled(acc, row[c], x)
                w.append(acc)
            for prow in prows:
                out = []
                for q, x in prow:
                    _add_scaled(out, w[q], x)
                if any(out):
                    return key
    return None


def _add_scaled(acc, coeffs, x):
    """acc += x * coeffs on coefficient lists, acc growing as needed."""
    if len(acc) < len(coeffs):
        acc.extend([0] * (len(coeffs) - len(acc)))
    for t, a in enumerate(coeffs):
        acc[t] += a * x


def _quotient_block(block, prows, free):
    """P N S on the quotient, for the integer projection P (sparse rows
    prows) and the section S that keeps the free columns, as dense rows of
    integer coefficient tuples, None for a zero entry."""
    col = {f: b for b, f in enumerate(free)}
    out = []
    for prow in prows:
        acc = [[] for _ in free]
        for q, x in prow:
            for c, p in block[q].items():
                b = col.get(c)
                if b is not None:
                    _add_scaled(acc[b], p, x)
        out.append([_trimmed(e) for e in acc])
    return out


def _series_blocks(N, ps: ParitySeq, carrier: SuperSpace):
    """The series entries x_ij of the operator N on carrier x V, row-sparse."""
    kk = ps.kappa
    return {
        (i, j): _aux_entry(N, ps, i, j, carrier.parities, _zneg)
        for i in range(1, kk + 1)
        for j in range(1, kk + 1)
    }


def _sign_relations(M: DahaModule, ps: ParitySeq, epsilon, extra=()):
    """The operators g - epsilon on M x V^l whose images span the quotient
    subspace, for g = sigma_i x P^(i,i+1) and g = m x v for (m, v) in extra,
    m a row-sparse module operator (as M's generators) and v row-sparse on
    V^l (as flip_at)."""
    l = M.params.l
    sigma = M.sigma
    pairs = [(sigma[i - 1], flip_at(ps, i, i + 1, l)) for i in range(1, l)]
    spaces = [SuperSpace([0] * M.dim), tensor_space([ps.space()] * l)]
    out = []
    for m, v in pairs + list(extra):
        op = kron_ops([(_dense(m, M.dim), 0), (_dense(v, len(v)), 0)], spaces)
        for r, row in enumerate(op):
            row[r] -= epsilon
        out.append(op)
    return out


def _quotient_module(blocks, den, carrier, relations, letter, family, head) -> DrinfeldModule:
    """Quotient of the carrier by the span of relations = (nrows, pivots),
    an RREF basis, with the action induced by the series blocks / den (see
    _series_blocks).

    Raises WellDefinednessFailure when a series block (named letter_(i, j)
    in the message) does not preserve the subspace; the induced action is
    family(head, quotient space, form, ("drinfeld",)), form the cleared
    form of s P N S / (s den) for s P the projection scaled to integers.
    """
    nrows, pivots = relations
    proj, sect, free = _quotient_maps(nrows, pivots, carrier.dim)
    s, prows = _integer_rows(proj)
    bad = _check_invariant(blocks, nrows, prows)
    if bad is not None:
        raise WellDefinednessFailure(
            f"series coefficients do not preserve the quotient subspace at {letter}_{bad}",
            witness=bad,
        )
    if not free:
        return DrinfeldModule(None, carrier, proj, sect, nrows)
    qspace = SuperSpace([carrier.parities[f] for f in free])
    qblocks = {key: _quotient_block(block, prows, free) for key, block in blocks.items()}
    form = cleared_form(poly_mul(den, (s,)), qblocks)
    return DrinfeldModule(family(head, qspace, form, ("drinfeld",)), carrier, proj, sect, nrows)


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
    l = M.params.l
    steps = [_cleared_factor(M, Q, k, chi, c) for k, Q in enumerate(_int_q_rows(ps, l), 1)]
    N, den = _cleared_product(steps, M.dim * ps.kappa ** (l + 1))
    carrier = _carrier(M, ps)
    relations = _column_span_rref(_sign_relations(M, ps, epsilon))
    return _quotient_module(_series_blocks(N, ps, carrier), den, carrier, relations, "t", TAction, ps)


class ReflectionProduct:
    """T_1(u)...T_l(u) (1 x (G + gamma/u)) S_l(-u)...S_1(-u) on M x V^l x V.

    It is held cleared, for the resolved chi and gamma, as its series
    entries blocks / den on the carrier M x V^l, over integer coefficient
    tuples (see _cleared_product and _series_blocks); ctx carries gamma
    (unset when it is 0).  relations is the RREF (nrows, pivots) of the
    sign relations of the double quotient, which do not depend on chi and
    gamma.
    """

    __slots__ = ("M", "ps", "epsilon", "chi", "gamma", "ctx", "blocks", "den", "relations")

    def __init__(self, M, ps, epsilon, chi, gamma, ctx, blocks, den, relations):
        self.M, self.ps, self.epsilon = M, ps, epsilon
        self.chi, self.gamma, self.ctx = chi, gamma, ctx
        self.blocks, self.den, self.relations = blocks, den, relations


def _bc_parameters(M: DahaModule, ps, eps, epsilon, chi=None, gamma=None):
    """chi and gamma resolved: chi defaults to epsilon/theta1 and gamma to
    (theta2/theta1 - varpi_1)/2."""
    th1, th2 = M.params.theta1, M.params.theta2
    chi = rat(chi) if chi is not None else Fraction(epsilon) / th1
    gamma = rat(gamma) if gamma is not None else (th2 / th1 - TwistedContext(ps, eps).varpi(1)) / 2
    return chi, gamma


def reflection_product(M: DahaModule, ps: ParitySeq, eps, epsilon=1, chi=None, gamma=None) -> ReflectionProduct:
    """Build the cleared reflection-twisted series product and the RREF of
    its sign relations once."""
    if M.params.kind != "BC":
        raise ParameterConstraint("need a module carrying the flip generator")
    if epsilon not in (1, -1):
        raise ParameterConstraint("epsilon must be +-1")
    chi, gamma = _bc_parameters(M, ps, eps, epsilon, chi, gamma)
    ctx = TwistedContext(ps, eps, gamma if gamma != 0 else None)
    l = M.params.l
    jay = ps.jay
    dim = M.dim * ps.kappa ** (l + 1)
    Qs = _int_q_rows(ps, l)
    steps = [_cleared_factor(M, Qs[k - 1], k, chi, -jay) for k in range(1, l + 1)]
    steps.append(_g_step(ctx, dim))
    # S_k(-u) = 1 - ((-u + jay) 1 - chi y_k)^{-1} Q^(k).
    steps += [_cleared_factor(M, Qs[k - 1], k, chi, jay, sign=-1, neg=True) for k in range(l, 0, -1)]
    N, den = _cleared_product(steps, dim)
    g_last = [{r: g} for r, g in enumerate(_g_at_slot(ps, ctx, l, l))]
    relations = _column_span_rref(_sign_relations(M, ps, epsilon, [(M.varsigma_l, g_last)]))
    blocks = _series_blocks(N, ps, _carrier(M, ps))
    return ReflectionProduct(M, ps, epsilon, chi, gamma, ctx, blocks, den, relations)


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
    return _quotient_module(product.blocks, product.den, _carrier(M, ps), product.relations,
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
        N, den = _cleared_product(steps, dim)
        if N != [{r: den} for r in range(dim)]:
            return k
    return None


def bchi_expansion_check(M: DahaModule, ps: ParitySeq, eps, epsilon=1, product=None):
    """Compare the first three series coefficients with their closed forms.

    Order 0 must be the diagonal sign matrix and order 1 the gamma shift
    plus the sign-weighted single-box sum, both on the nose.  The order-2
    form in the transformed commuting family holds modulo the quotient
    subspace (its derivation trades V-side flips for module-side group
    elements, which is exactly the quotient identification), so that order
    is checked as an equality of induced quotient operators.  The series
    is the default-parameter reflection_product, read off cleared; a
    shared product is reused when its chi and gamma are the defaults.
    Returns None or (order, (i, j)).
    """
    th1 = M.params.theta1
    _chi, gamma = _bc_parameters(M, ps, eps, epsilon)
    ctx0 = TwistedContext(ps, eps)
    l = M.params.l
    kk = ps.kappa

    product = _product_for(product, M, ps, eps, epsilon)
    spaces = [SuperSpace([0] * M.dim)] + [ps.space()] * l
    carrier_dim = M.dim * kk**l

    ys, fail = sf_presentation(M)
    if fail is not None:
        raise ParameterConstraint(f"module fails the transformed relations: {fail}")
    ys_dense = [_dense(y, M.dim) for y in ys]

    # The quotient projection, whose kernel is the span of the relations.
    proj = _quotient_maps(*product.relations, carrier_dim)[0]

    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            ei, ej = ctx0.eps_sign(i), ctx0.eps_sign(j)
            si = ps.sign(i)
            pij = (ps.parity(i) + ps.parity(j)) % 2
            e = elementary(kk, i, j)
            # sum_k E_ij^(k) on V^l, Koszul-signed, tensored with 1_M or y_k.
            box_sum = kron_sum(
                [(1, at_slots(l + 1, {k: (e, pij)})) for k in range(1, l + 1)], spaces
            )

            coeff0, coeff1, coeff2 = series_expansion(product.blocks[(i, j)], product.den, 2)
            want0 = [[Fraction(ei) if (i == j and r == c) else Fraction(0) for c in range(carrier_dim)] for r in range(carrier_dim)]
            if coeff0 != want0:
                return (0, (i, j))
            want1 = [[si * (ei + ej) * x for x in row] for row in box_sum]
            if i == j:
                for r in range(carrier_dim):
                    want1[r][r] += gamma
            if coeff1 != want1:
                return (1, (i, j))
            if ei != ej:
                ybox_sum = kron_sum(
                    [(1, at_slots(l + 1, {0: (ys_dense[k - 1], 0), k: (e, pij)})) for k in range(1, l + 1)],
                    spaces,
                )
                scale = Fraction(-2 * ei) / (si * epsilon * th1)
                diff = [[a - scale * b for a, b in zip(ra, rb)] for ra, rb in zip(coeff2, ybox_sum)]
                if any(map(any, mat_mul(proj, diff))):
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
    and the Gz_k are +-1 sign vectors that scale rows or columns.
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
        if sparse_scale(sparse_add(kp, pk, -1), rows=g) != sparse_scale(Qkp, varpi1):
            return f"twisted commutator at k={k}"
        # G Q + Q G carries the sign sum entrywise.
        both = sparse_add(sparse_scale(Qk, rows=g), sparse_scale(Qk, cols=g))
        if both != _q_rows(pattern, eps_sum):
            return f"diagonal sum at k={k}"
        Qs.append(Qk)
    if l >= 2:
        # sum_{k != r} (Q_k Q_r G if k < r else G Q_k Q_r), and
        # sum_{k, r} Q_k G Q_r = (sum_k Q_k) G (sum_r Q_r).
        zero = [{} for _ in range(dim)]
        below, above, qsum = zero, zero, zero
        for k in range(1, l + 1):
            qsum = sparse_add(qsum, Qs[k - 1])
            for r in range(1, l + 1):
                if r < k:
                    below = sparse_add(below, sparse_mul(Qs[k - 1], Qs[r - 1]))
                elif r > k:
                    above = sparse_add(above, sparse_mul(Qs[k - 1], Qs[r - 1]))
        lhs1 = sparse_add(sparse_scale(above, cols=g), sparse_scale(below, rows=g))
        lhs2 = sparse_mul(sparse_scale(qsum, cols=g), qsum)
        flips = {(a, b): flip_at(ps, a, b, l) for a in range(1, l + 1) for b in range(a + 1, l + 1)}
        gz = [_g_at_slot(ps, ctx, slot, l) for slot in range(1, l + 1)]
        pars = tensor_space([ps.space()] * l).parities
        for i in range(1, kk + 1):
            for j in range(1, kk + 1):
                if ctx.eps_sign(i) == ctx.eps_sign(j):
                    continue
                si = ps.sign(i)
                ei = ctx.eps_sign(i)
                boxes = [_box_at(ps, i, j, k, l) for k in range(1, l + 1)]
                got1 = _aux_entry(lhs1, ps, i, j, pars)
                want1 = _sigma_weighted_sum(flips, boxes)
                if sparse_scale(want1, si) != sparse_scale(got1, -ei):
                    return f"ordered double sum at (i,j)=({i},{j})"
                got2 = _aux_entry(lhs2, ps, i, j, pars)
                want2 = _flip_pair_sum(flips, gz, varpi1, boxes)
                if sparse_scale(want2, si) != sparse_scale(got2, ei):
                    return f"sandwiched double sum at (i,j)=({i},{j})"
    return None


def _aux_entry(F, ps: ParitySeq, i, j, pars, neg=operator.neg):
    """Standard (i, j) entry of a row-sparse operator on W x V, as a
    row-sparse matrix on W, whose basis parities are pars (the inverse of
    the Koszul assembly of yangian.realize_mixed, with its block signs).  A
    sign is applied entrywise through neg, the negation of F's entries."""
    kk = ps.kappa
    pi, pj = ps.parity(i), ps.parity(j)
    # Negate by the block sign (-1)^(pi pj + pj), and once more on an odd
    # basis vector of W when the entry is odd (pi + pj): flip[parity].
    flip = [(pi * pj + pj) % 2 == 1, (pi * pj + pi) % 2 == 1]
    out = []
    for q in range(len(pars)):
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


def _sigma_weighted_sum(flips, boxes):
    """sum_k (sum_{r<k} P^(r,k) - sum_{r>k} P^(r,k)) E_ij^(k) on V^l.

    Row-sparse throughout: flips[(a, b)] is P^(a,b) for a < b and
    boxes[k - 1] is E_ij^(k).
    """
    l = len(boxes)
    out = [{} for _ in boxes[0]]
    for k in range(1, l + 1):
        acc = [{} for _ in boxes[0]]
        for r in range(1, l + 1):
            if r != k:
                acc = sparse_add(acc, flips[min(r, k), max(r, k)], 1 if r < k else -1)
        out = sparse_add(out, sparse_mul(acc, boxes[k - 1]))
    return out


def _flip_pair_sum(flips, gz, varpi1, boxes):
    """sum_k (sum_{r != k} P^(k,r) Gz_r Gz_k + varpi_1 Gz_k) E_ij^(k) on V^l.

    Row-sparse throughout, as in _sigma_weighted_sum; gz[k - 1] is the
    sign vector of Gz_k.
    """
    l = len(boxes)
    out = [{} for _ in boxes[0]]
    for k in range(1, l + 1):
        gk = gz[k - 1]
        acc = [{c: varpi1 * s} if varpi1 else {} for c, s in enumerate(gk)]
        for r in range(1, l + 1):
            if r != k:
                signs = [a * b for a, b in zip(gz[r - 1], gk)]
                acc = sparse_add(acc, sparse_scale(flips[min(r, k), max(r, k)], cols=signs))
        out = sparse_add(out, sparse_mul(acc, boxes[k - 1]))
    return out


def drinfeld_to_json(D: DrinfeldModule) -> dict:
    """Quotient data plus the induced action, ready for replay."""
    from tyang.twisted import b_to_json
    from tyang.yangian import t_to_json

    out = {
        "carrier_parities": list(D.carrier_space.parities),
        "projection": [[str(x) for x in row] for row in D.projection],
        "section": [[str(x) for x in row] for row in D.section],
        "subspace": [[str(x) for x in row] for row in D.subspace],
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
    from tyang.daha import DahaParams, induce_pair

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
    """An invertible X with lhs_ij(u) X = X rhs_ij(u), or None."""
    n = lhs.dim
    ops = []
    for key in sorted(lhs.b):
        A = lhs.b[key]
        Bm = rhs.b[key]
        # X -> A X - X B on the n^2 entries of X: row r n + c of A X - X B
        # reads A[r][a] at X[a][c] and -B[b][c] at X[r][b].
        ent = [[RatFun.zero()] * (n * n) for _ in range(n * n)]
        for r in range(n):
            for c in range(n):
                row = ent[r * n + c]
                for a in range(n):
                    row[a * n + c] = A[r, a]
                for b in range(n):
                    if Bm[b, c]:
                        row[r * n + b] = row[r * n + b] - Bm[b, c]
        ops.append(RFMatrix(ent))
    if all(M.is_zero() for M in ops):
        return None
    basis = rfmat_kernel(ops)
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
