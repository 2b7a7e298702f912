"""Reflection-algebra actions B(u) built from T(u), their verification, highest
weights, classification certificates, rank reductions, and irreducibility.

Every B-action here arises either through the twist embedding
B(u) = T(u) G T(-u)^{-1}, through the one-dimensional family, or through the
coideal tensor construction; the abstract algebra is never represented.
BAction is a SeriesFamily like T(u), so evaluation, assembly and degree data
are shared, and every BAction is born a ClearedForm over Z[u]: B(u) from
T(u) and the unitarity product B(u) B(-u) are block products of cleared
families (yangian.block_product), the coideal tensor is the Kronecker
assembly of the cleared forms of T(u) T'(-u) and of B (yangian._kron_blocks,
signed by superlinalg._passed_parities), and the rank reductions shift, combine and
restrict the cleared rows to a constant subspace in integers (_restrict),
with that subspace the kernel of the cleared rows, read off the integer
null rows of its _kernel.Echelon (superlinalg.poly_kernel).
Every cleared block is a row-sparse matrix over Z[u], an absent column
its only zero, and every product of them, the combinations of diagonal
blocks (_diagonal_sum) and the restrictions included, is the one product
exactalg._zmatmul.
The irreducibility test reads B's coefficients off its cleared form, and
spins their algebra and its eigenvectors in integers (superlinalg.spin).
Highest weights are read off it too, over one common denominator, and the
Verma conditions and the rank-one classification run on those integer
numerators (BHighestWeight).  B's RatFun entries are a view, formed only
for the JSON writer and full_at; b_from_json reads RatFun input through
yangian.cleared_form_rf.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from tyang._kernel import cleared_rows, echelon, poly_mul
from tyang.exactalg import (
    Poly,
    RatFun,
    RootSearchBound,
    _neg_u,
    _zadd,
    _zclear,
    _zcompose,
    _zmatmul,
    _zneg,
    divides,
    rat,
    rational_roots,
    rf_equal,
    rf_from_json,
)
from tyang.glmn import ParitySeq, json_blocks
from tyang.superlinalg import (
    DimensionMismatch,
    SuperSpace,
    _transpose,
    algebra_closure,
    charpoly,
    coefficient_rows,
    poly_kernel,
    sparse_mul,
    spin,
)
from tyang.yangian import (
    ClearedForm,
    SeriesFamily,
    ScaledR,
    TAction,
    _blocks_json,
    _kron_blocks,
    block_product,
    certify_words,
    cleared_evaluator,
    cleared_form,
    cleared_form_rf,
    flip_at,
    highest_eigenseries,
    inverse_series_action,
    scalar_entry,
    scalar_product,
    series_expansion,
    solve_shift_quotient,
)
from tyang import superlinalg

# Nothing here calls the grid certifier (verify_b goes through
# certify_words); the name is bound only because the alias check of
# perfbench/test_perfbench.py reads tyang.twisted.check_identity_2var.
check_identity_2var = superlinalg.check_identity_2var


class WrongRank(ValueError):
    pass


class EmptySubspace(ValueError):
    pass


class TwistedContext:
    """The pair (s, eps) with its derived sign data and diagonal twist."""

    __slots__ = ("ps", "eps", "gamma")

    def __init__(self, ps: ParitySeq, eps, gamma=None):
        self.ps = ps
        self.eps = tuple(int(x) for x in eps)
        if len(self.eps) != ps.kappa or any(x not in (1, -1) for x in self.eps):
            raise ValueError("eps must be a +-1 sequence of length kappa")
        self.gamma = rat(gamma) if gamma is not None else None

    @property
    def kappa(self):
        return self.ps.kappa

    def eps_sign(self, i: int) -> int:
        return self.eps[i - 1]

    def varpi(self, i: int) -> Fraction:
        """varpi_i = sum_{j >= i} eps_j s_j, with varpi_{kappa+1} = 0."""
        return Fraction(
            sum(self.eps[j - 1] * self.ps.sign(j) for j in range(i, self.kappa + 1))
        )

    def drop_first(self) -> "TwistedContext":
        return TwistedContext(ParitySeq(self.ps.s[1:]), self.eps[1:])

    def drop_last(self) -> "TwistedContext":
        return TwistedContext(ParitySeq(self.ps.s[:-1]), self.eps[:-1])

    def star(self, a: int) -> "TwistedContext":
        return TwistedContext(
            ParitySeq([self.ps.sign(a), self.ps.sign(a + 1)]),
            [self.eps[a - 1], self.eps[a]],
        )

    def __eq__(self, other):
        return (
            isinstance(other, TwistedContext)
            and self.ps == other.ps
            and self.eps == other.eps
        )

    def __repr__(self):
        return f"TwistedContext(s={list(self.ps.s)}, eps={list(self.eps)}, gamma={self.gamma})"


class BAction(SeriesFamily):
    """The family { b_ij(u) } of B(u) on one module; b aliases the RatFun
    view t."""

    def __init__(self, ctx: TwistedContext, space: SuperSpace, form: ClearedForm, provenance=("direct",)):
        super().__init__(ctx.ps, space, form, provenance)
        self.ctx = ctx

    @property
    def b(self):
        return self.t


def b_from_T(T: TAction, ctx: TwistedContext) -> BAction:
    """B(u) = T(u) (G + gamma/u) T(-u)^{-1} realized on T's module.

    The block product over Z[u] of the cleared forms of T(u) and T'(-u),
    with the twist between them as the diagonal scalars eps_k, or
    (eps_k q u + p) / (q u) for gamma = p/q; B is built from the reduced
    product, and its RatFun entries are formed only if something reads
    them.
    """
    if T.ps != ctx.ps:
        raise DimensionMismatch("parity sequences differ")
    if ctx.gamma is None:
        mid = (1,), [(e,) for e in ctx.eps]
    else:
        p, q = ctx.gamma.numerator, ctx.gamma.denominator
        mid = (0, q), [(p, e * q) for e in ctx.eps]
    prod = block_product(T.cleared(), inverse_series_action(T).cleared().neg_u(), mid)
    return BAction(ctx, T.space, cleared_form(*prod), ("embedding", T, ctx.gamma))


def c_gamma(ctx: TwistedContext, gamma) -> BAction:
    """The one-dimensional module with b_ii(u) = (eps_i u + gamma)/(u - gamma),
    over the denominator q u - p for gamma = p/q."""
    gamma = rat(gamma)
    p, q = gamma.numerator, gamma.denominator
    idx = range(1, ctx.kappa + 1)
    blocks = {(i, j): [{0: (p, ctx.eps_sign(i) * q)} if i == j else {}] for i in idx for j in idx}
    return BAction(ctx, SuperSpace([0]), cleared_form((-p, q), blocks), ("c_gamma", gamma))


def b_tensor(L: TAction, W: BAction) -> BAction:
    """The coideal tensor action on L x W.

    The matrix form T_L(u) B_W(u) T_L(-u)^{-1} of the coideal coproduct,
    with the T factors acting through L and the auxiliary space:
    b_ij(u) = sum_{k,r} (-1)^(|b_kr| |t'_rj|) t_ik(u) t'_rj(-u) x b_kr(u),
    the sign coming from moving b_kr(u) past t'_rj(-u).  Formed over the
    product of the three denominators: the integer products of the cleared
    blocks of T(u) and T'(-u), assembled with those of B by _kron_blocks.
    """
    if L.ps != W.ps:
        raise DimensionMismatch("parity sequences differ")
    ps = L.ps
    idx = range(1, ps.kappa + 1)
    par = lambda a, b: (ps.parity(a) + ps.parity(b)) % 2
    A, P, C = L.cleared(), inverse_series_action(L).cleared().neg_u(), W.cleared()
    wb = [key for key, rows in C.blocks.items() if any(rows)]
    blocks = {
        (i, j): _kron_blocks(
            [(-1 if par(k, r) * par(r, j) else 1,
              [(_zmatmul(A.blocks[(i, k)], P.blocks[(r, j)]), (par(i, k) + par(r, j)) % 2),
               (C.blocks[(k, r)], par(k, r))])
             for k, r in wb],
            [L.space, W.space],
        )
        for i in idx
        for j in idx
    }
    den = poly_mul(poly_mul(A.den_coeffs, P.den_coeffs), C.den_coeffs)
    return BAction(W.ctx, L.space.tensor(W.space), cleared_form(den, blocks), ("tensor", L, W))


@dataclass
class BReport:
    """Outcome of the relation checks on one B-action."""

    reflection: object = None      # None or Grid2Witness
    scalar_ok: bool = True         # B(u)B(-u) is a scalar matrix
    unitarity: tuple = ((1,), (1,))  # the scalar as (num, den) over Z[u]

    @cached_property
    def f(self) -> RatFun:
        """The scalar num / den as a reduced RatFun, for the report."""
        return RatFun(Poly(self.unitarity[0]), Poly(self.unitarity[1]))

    @property
    def ok(self):
        return self.reflection is None and self.scalar_ok


def verify_b(B: BAction) -> BReport:
    """Certify the reflection equation and the unitarity scalar.

    The reflection equation R(u-v) B1(u) R(u+v) B2(v) = B2(v) R(u+v)
    B1(u) R(u-v) is certified as two words (yangian.certify_words).  The
    product B(u)B(-u) must be a scalar f(u), which is then even
    (B(-u) B(u) = f(u) 1 is the identity at -u); unitarity_scalar forms it.
    """
    rep = BReport()
    R = ScaledR(flip_at(B.ps, 1, 2, 2), B.dim)
    B1, B2 = ((cleared_evaluator(B, var + 1), B.cleared(), var) for var in (0, 1))
    minus, plus = (R, (1, -1)), (R, (1, 1))
    rep.reflection = certify_words("reflection", [minus, B1, plus, B2], [B2, plus, B1, minus], len(R.rows))
    rep.unitarity, rep.scalar_ok = unitarity_scalar(B)
    return rep


def unitarity_scalar(B: BAction):
    """((num, den), scalar): num / den the first diagonal entry f(u) of
    B(u) B(-u), as integer coefficient tuples (num is () when f vanishes),
    and whether the product is f(u) times the identity.  With B = N / c D
    over Z[u], P = N(u) N(-u) is formed in integers (scalar_product), and
    f = P_11 / (c^2 D(u) D(-u))."""
    form = B.cleared()
    den, num, scalar = scalar_product(form, form.neg_u())
    return (num, den), scalar


def unitarity_entry(B: BAction):
    """(num, den) of unitarity_scalar, f(u) alone: the one entry of
    B(u) B(-u) is formed (scalar_entry), and whether the product is scalar
    is not read."""
    form = B.cleared()
    den, num = scalar_entry(form, form.neg_u())
    return num, den


# ---------------------------------------------------------------------------
# Highest weights.

class BHighestWeight:
    """The highest weight of a B-highest vector over one common denominator.

    nums and den are integer coefficient tuples with mu_i(u) = nums[i - 1]
    / den, as yangian.highest_eigenseries reads them; the tilde series
    mu~_i(u) = (2u - rho_(i+1)) mu_i(u) + sum_(a > i) s_a mu_a(u) share den,
    with numerators tilde_nums.  The certifiers (verma_conditions,
    classify_rank1) read only these integers; mus, mu(i) and tilde(i) are
    reduced RatFun views, formed on first read.  Two weights are equal when
    their reduced series are.
    """

    def __init__(self, nums, den, ctx: TwistedContext):
        self.nums = tuple(nums)
        self.den = tuple(den)
        self.ctx = ctx
        self._tildes = {}

    def __eq__(self, other):
        if isinstance(other, BHighestWeight):
            return self.ctx is other.ctx and self.mus == other.mus
        return NotImplemented

    __hash__ = None

    @cached_property
    def tilde_nums(self):
        ps, n = self.ctx.ps, self.nums
        out = []
        for i in range(1, len(n) + 1):
            t = poly_mul((-int(ps.rho(i + 1)), 2), n[i - 1])
            for a in range(i + 1, len(n) + 1):
                t = _zadd(t, n[a - 1] if ps.sign(a) == 1 else _zneg(n[a - 1]))
            out.append(t)
        return tuple(out)

    @cached_property
    def mus(self):
        den = Poly(self.den)
        return tuple(RatFun(Poly(n), den) for n in self.nums)

    def mu(self, i: int) -> RatFun:
        return self.mus[i - 1]

    def tilde(self, i: int) -> RatFun:
        if i not in self._tildes:
            self._tildes[i] = RatFun(Poly(self.tilde_nums[i - 1]), Poly(self.den))
        return self._tildes[i]


def highest_bweight(B: BAction, eta) -> BHighestWeight:
    """Extract the highest weight of a B-highest vector."""
    return BHighestWeight(*highest_eigenseries(B, eta, "b"), B.ctx)


def _diagonal_sum(form: ClearedForm, weights):
    """sum_k w_k x_kk(u) over Z[u], for weights mapping k to an integer
    coefficient tuple w_k: the diagonal blocks side by side times the
    scalars w_k 1 stacked below one another, in one product."""
    n = len(form.blocks[(1, 1)])
    side = [{} for _ in range(n)]
    for t, k in enumerate(weights):
        for row, block_row in zip(side, form.blocks[(k, k)]):
            row.update({t * n + c: e for c, e in block_row.items()})
    return _zmatmul(side, [{c: w} for w in weights.values() for c in range(n)])


def _restrict(den, blocks, E):
    """(den', blocks') for the family blocks / den restricted to the span of
    the constant vectors E.null, for E the Echelon superlinalg.poly_kernel
    returns: null[q] is s at its free column free[q], where every other
    row is 0, so s times the coordinates of a vector in the span are its
    values at the free columns.

    A block N applied to the columns of null is W = N null^T, whose rows
    at the free columns are the coordinates of its columns over s, so the
    restricted entries are those rows over s den; null^T W_free = s W is
    the invariance check, in Z[u].  Raises ValueError when the span is not
    invariant.
    """
    cols = [{t: (x,) for t, x in col.items()} for col in _transpose(E.null, len(E.basis) + len(E.free))]
    scale = [{t: (E.s,)} for t in range(len(E.free))]
    out = {}
    for key, rows in blocks.items():
        W = _zmatmul(rows, cols)
        out[key] = [W[f] for f in E.free]
        if _zmatmul(cols, out[key]) != _zmatmul(W, scale):
            raise ValueError("subspace is not invariant")
    return poly_mul(den, (E.s,)), out


def find_highest_space(B: BAction):
    """Basis of { eta : b_ij(u) eta = 0 for i < j }, as Fraction vectors.

    Also certifies that the space is invariant under every b_rr(u) (else
    _restrict raises ValueError) and that the restricted diagonal
    operators D_a(u) commute for all u and v: with D_a(u) = sum_s A_s u^s /
    d(u) over the common denominator, D_a(u) D_b(v) = D_b(v) D_a(u) holds
    identically exactly when every A_s commutes with every B_t of D_b,
    which is checked on the row-sparse integer coefficients
    (superlinalg.coefficient_rows); a failure raises ValueError.
    """
    kk, form = B.kappa, B.cleared()
    idx = range(1, kk + 1)
    E = poly_kernel([row for i in idx for j in range(i + 1, kk + 1) for row in form.blocks[(i, j)]], B.dim)
    if not E.free:
        return []
    _den, diag = _restrict(form.den_coeffs, {r: form.blocks[(r, r)] for r in idx}, E)
    coeffs = [coefficient_rows(diag[r]) for r in idx]
    for a in range(kk):
        for b in range(kk):
            if any(sparse_mul(X, Y) != sparse_mul(Y, X) for X in coeffs[a] for Y in coeffs[b]):
                raise ValueError(f"restricted diagonal operators {a+1},{b+1} fail to commute")
    return E.vectors()


# ---------------------------------------------------------------------------
# Verma-type symmetry conditions and classification.

def verma_conditions(mu: BHighestWeight, f):
    """Check the highest-weight symmetry constraints; None on pass, else the
    1-based index of the first failing condition (kappa for the unitary one).

    f = (f_n, f_d) is the unitarity scalar f_n / f_d of the family,
    B(u) B(-u) = f(u) 1, over Z[u] as unitarity_scalar returns it
    (1 - gamma^2/u^2 for a twist with gamma, from the twist (G + gamma/u)).
    Every series of mu has the one denominator den, so each condition is a
    denominator-free identity in Z[u]: mu_kappa(u) mu_kappa(-u) = f(u) is
    n_kappa(u) n_kappa(-u) f_d(u) = f_n(u) den(u) den(-u), and
    mu~_i(u) mu~_i(r - u) = mu~_(i+1)(u) mu~_(i+1)(r - u), r = rho_(i+1),
    is T_i(u) T_i(r - u) = T_(i+1)(u) T_(i+1)(r - u) on the tilde
    numerators.  The tilde conditions are homogeneous in mu, so this is
    the check on the family normalised to unitarity scalar 1, by u/(u - gamma)
    for a twist with gamma."""
    kk = mu.ctx.kappa
    ps = mu.ctx.ps
    n, d = mu.nums[kk - 1], mu.den
    fn, fd = f
    if poly_mul(poly_mul(n, _neg_u(n)), fd) != poly_mul(fn, poly_mul(d, _neg_u(d))):
        return kk
    T = mu.tilde_nums
    for i in range(1, kk):
        r = int(ps.rho(i + 1))
        if poly_mul(T[i - 1], _zcompose(T[i - 1], -1, r)) != poly_mul(T[i], _zcompose(T[i], -1, r)):
            return i
    return None


@dataclass
class ClassificationCertificate:
    case: str
    P: object = None           # Poly or None
    gamma: object = None       # Fraction or None
    status: str = "verified"   # verified | search-failed | undecided-irrational
    detail: str = ""


def classify_rank1(mu: BHighestWeight, mode="search", P=None, gamma=None) -> ClassificationCertificate:
    """Finite-dimensionality certificate for a rank-one highest weight.

    Verify mode checks the case-appropriate polynomial identity for the
    given (P, gamma); search mode factors the tilde-ratio over the rationals
    and reconstructs them.
    """
    ctx = mu.ctx
    if ctx.kappa != 2:
        raise WrongRank("rank-one classification needs kappa = 2")
    ps = ctx.ps
    s1, s2 = ps.sign(1), ps.sign(2)
    e1, e2 = ctx.eps_sign(1), ctx.eps_sign(2)
    if s1 == s2 and e1 == e2:
        case = "s-equal-eps-equal"
    elif s1 == s2:
        case = "s-equal-eps-diff"
    else:
        case = "s-diff"

    def verified(Pp, gg=None, detail=""):
        return ClassificationCertificate(case, Pp, gg, "verified", detail)

    def failed(status, detail=""):
        return ClassificationCertificate(case, None, None, status, detail)

    T1, T2 = mu.tilde_nums
    if not (T1 and T2):
        return failed("search-failed", "a tilde series vanishes: no ratio to certify")
    # The tilde series share den, which cancels in their ratio.
    ratio = RatFun(Poly(T1), Poly(T2))

    if mode == "verify":
        if P is None:
            raise ValueError("verify mode needs P")
        if case == "s-equal-eps-equal":
            if P.compose_linear(-1, 2 * s2) != P:
                return failed("search-failed", "symmetry fails")
            ok = rf_equal(ratio, RatFun(P.shift(s2), P))
            return verified(P) if ok else failed("search-failed", "identity fails")
        if case == "s-equal-eps-diff":
            if gamma is None:
                raise ValueError("verify mode needs gamma in the mixed-sign case")
            gamma = rat(gamma)
            if P.compose_linear(-1, 2 * s2) != P:
                return failed("search-failed", "symmetry fails")
            if P(gamma) == 0:
                return failed("search-failed", "P vanishes at gamma")
            twist = RatFun(Poly([gamma, -1]), Poly([gamma - s2, 1]))
            ok = rf_equal(ratio, RatFun(P.shift(s2), P) * twist)
            return verified(P, gamma) if ok else failed("search-failed", "identity fails")
        sgn = e1 * e2 * (-1 if P.degree % 2 else 1)
        ok = rf_equal(ratio, RatFun(P, P.compose_linear(-1, s2)) * sgn)
        return verified(P) if ok else failed("search-failed", "identity fails")

    # Search mode.
    num, den = ratio.num, ratio.den
    if case == "s-equal-eps-equal":
        roots_n, cn = rational_roots(num.monic())
        roots_d, cd = rational_roots(den.monic())
        if cn.degree > 0 or cd.degree > 0:
            return failed("undecided-irrational")
        Pp = solve_shift_quotient(ratio, s2)
        if Pp is None:
            return failed("search-failed")
        if Pp.compose_linear(-1, 2 * s2) != Pp:
            return failed("search-failed", "quotient solution is not symmetric")
        return verified(Pp)
    if case == "s-equal-eps-diff":
        roots_n, cn = rational_roots(num.monic())
        roots_d, cd = rational_roots(den.monic())
        if cn.degree > 0 or cd.degree > 0:
            return failed("undecided-irrational")
        candidates = sorted(
            {r for r, _ in roots_n}
            | {s2 - r for r, _ in roots_d}
            | {Fraction(s2, 2)}
        )
        for g in candidates:
            twist = RatFun(Poly([g, -1]), Poly([g - s2, 1]))
            if twist.is_zero():
                continue
            residual = ratio / twist
            Pp = solve_shift_quotient(residual, s2)
            if Pp is None:
                continue
            if Pp.compose_linear(-1, 2 * s2) != Pp or Pp(g) == 0:
                continue
            return verified(Pp, g)
        return failed("search-failed")
    # Mixed parity: ratio must be eps1 eps2 (-1)^deg P * P(u)/P(-u+s2).
    roots_n, cn = rational_roots(num.monic())
    roots_d, cd = rational_roots(den)
    if cn.degree > 0 or cd.degree > 0:
        return failed("undecided-irrational")
    Pp = _solve_involution_quotient(ratio, Fraction(s2), e1 * e2)
    if Pp is None:
        return failed("search-failed")
    return verified(Pp)


def classify_highrank(mu: BHighestWeight, gamma, Ps):
    """Verify the higher-rank finite-dimensionality criteria.

    Takes the candidate gamma and the list of kappa-1 monic polynomials;
    checks the case-appropriate identity for every neighbouring pair.
    Returns None on success, else (i, reason).  Only the standard parity
    sequence carries this criterion.
    """
    ctx = mu.ctx
    ps = ctx.ps
    if not ps.is_standard():
        raise ValueError("criterion only stated for the standard parity sequence")
    kk = ctx.kappa
    if len(Ps) != kk - 1:
        raise ValueError("need kappa - 1 polynomials")
    gamma = rat(gamma)
    for i in range(1, kk):
        Pi = Ps[i - 1]
        ratio = mu.tilde(i) / mu.tilde(i + 1)
        si, sn = ps.sign(i), ps.sign(i + 1)
        ei, en = ctx.eps_sign(i), ctx.eps_sign(i + 1)
        if si == sn:
            if Pi.compose_linear(-1, ps.rho(i)) != Pi:
                return (i, "symmetry")
            A = Poly([-ei * ps.rho(i + 1) + ctx.varpi(i + 1) + gamma, 2 * ei])
            Bp = Poly([-en * ps.rho(i + 2) + ctx.varpi(i + 2) + gamma, 2 * en])
            lhsP = A * Pi.shift(si)
            rhsP = Bp * Pi
            if not rf_equal(ratio, RatFun(lhsP, rhsP)):
                return (i, "identity")
            if ei != en and divides(A, Pi):
                return (i, "divisibility")
        else:
            sgn = ei * en * (-1 if Pi.degree % 2 else 1)
            if not rf_equal(ratio, RatFun(Pi, Pi.compose_linear(-1, ps.rho(i + 1))) * sgn):
                return (i, "identity")
    return None


def classify_highrank_search(mu: BHighestWeight):
    """Best-effort search for (gamma, Ps) passing classify_highrank."""
    ctx = mu.ctx
    ps = ctx.ps
    kk = ctx.kappa
    gammas = [Fraction(0)]
    if any(ctx.eps_sign(i) != ctx.eps_sign(i + 1) and ps.sign(i) == ps.sign(i + 1) for i in range(1, kk)):
        # gamma shows in the linear prefactors; recover candidates from the
        # roots they leave in the reduced tilde-ratio.
        cand = set()
        for i in range(1, kk):
            if ctx.eps_sign(i) != ctx.eps_sign(i + 1) and ps.sign(i) == ps.sign(i + 1):
                ei, en = ctx.eps_sign(i), ctx.eps_sign(i + 1)
                ratio = mu.tilde(i) / mu.tilde(i + 1)
                roots_n, _ = rational_roots(ratio.num.monic())
                roots_d, _ = rational_roots(ratio.den)
                for r, _m in roots_n:
                    cand.add(ei * ps.rho(i + 1) - ctx.varpi(i + 1) - 2 * ei * r)
                for r, _m in roots_d:
                    cand.add(en * ps.rho(i + 2) - ctx.varpi(i + 2) - 2 * en * r)
        cand.add(Fraction(0))
        gammas = sorted(cand)
    for gamma in gammas:
        Ps = []
        ok = True
        for i in range(1, kk):
            ratio = mu.tilde(i) / mu.tilde(i + 1)
            si, sn = ps.sign(i), ps.sign(i + 1)
            ei, en = ctx.eps_sign(i), ctx.eps_sign(i + 1)
            if si == sn:
                A = Poly([-ei * ps.rho(i + 1) + ctx.varpi(i + 1) + gamma, 2 * ei])
                Bp = Poly([-en * ps.rho(i + 2) + ctx.varpi(i + 2) + gamma, 2 * en])
                resid = ratio * RatFun(Bp, A)
                Pi = solve_shift_quotient(resid, si)
                if Pi is None or Pi.compose_linear(-1, ps.rho(i)) != Pi:
                    ok = False
                    break
            else:
                Pi = _solve_involution_quotient(ratio, ps.rho(i + 1), ei * en)
                if Pi is None:
                    ok = False
                    break
            Ps.append(Pi)
        if ok and classify_highrank(mu, gamma, Ps) is None:
            return gamma, Ps
    return None


def _solve_involution_quotient(ratio: RatFun, c, sign_pair):
    """Monic P with ratio = sign_pair (-1)^deg P * P(u)/P(-u+c), or None.

    The reduced ratio determines P up to a cofactor g with g(-u+c)
    proportional to g; the minimal candidate is verified before returning.
    """
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


def verify_sufficiency(mu: BHighestWeight, gamma, lams):
    """Check the tensor-with-character sufficiency identities.

    lams is a kappa-tuple of RatFun; returns None when every neighbouring
    tilde-ratio matches the twisted product formula, else the failing index.
    """
    ctx = mu.ctx
    ps = ctx.ps
    gamma = rat(gamma)
    kk = ctx.kappa
    for i in range(1, kk):
        r = ps.rho(i + 1)
        ei, en = ctx.eps_sign(i), ctx.eps_sign(i + 1)
        A = RatFun(Poly([-ei * r + ctx.varpi(i + 1) + 2 * gamma, 2 * ei]))
        Bp = RatFun(Poly([-en * ps.rho(i + 2) + ctx.varpi(i + 2) + 2 * gamma, 2 * en]))
        lhs = mu.tilde(i) / mu.tilde(i + 1)
        rhs = (
            A
            * lams[i - 1]
            * lams[i].subs_linear(-1, r)
            / (Bp * lams[i] * lams[i - 1].subs_linear(-1, r))
        )
        if not rf_equal(lhs, rhs):
            return i
    return None


# ---------------------------------------------------------------------------
# Rank reductions.

def _graded(space: SuperSpace, E) -> SuperSpace:
    """The grading of the span of E.null, for E the Echelon of a graded
    subspace of space: each null row is homogeneous, of the parity of its
    free column."""
    return SuperSpace([space.parity(f) for f in E.free])


def _corrected(form: ClearedForm, keep, extra):
    """(den, blocks) of x_ij(u) + delta_ij (1/(2u)) sum_k w_k x_kk(u) for i, j
    in keep, relabelled 1, 2, ..., with extra mapping k to w_k: over
    2 u D, the entries 2u N_ij + delta_ij sum_k w_k N_kk."""
    two_u = [{c: (0, 2)} for c in range(len(form.blocks[(1, 1)]))]
    weights = {k: (w,) for k, w in extra.items()}
    blocks = {
        (i, j): _diagonal_sum(form, {a: (0, 2), **weights}) if a == b else _zmatmul(form.blocks[(a, b)], two_u)
        for i, a in enumerate(keep, 1)
        for j, b in enumerate(keep, 1)
    }
    return poly_mul(form.den_coeffs, (0, 2)), blocks


def reduce_rank(B: BAction, mode, a=None) -> BAction:
    """Induced lower-rank action on the appropriate singular subspace.

    mode 'over' drops the first index, 'under' the last (with the shifted
    diagonal correction), 'star' cuts down to the neighbouring pair
    (a, a+1) with the spectral shift rho_{a+2}/2.  The singular subspace is
    the common kernel of the cleared rows of the constraint blocks, an
    Echelon kept in the provenance (superlinalg.poly_kernel), and the
    reduced family, shifted and
    corrected over Z[u] (ClearedForm.shift, _corrected), is restricted to it
    in integers (_restrict) and acts on it with its own grading (_graded).
    """
    kk = B.kappa
    ps = B.ps
    form = B.cleared()
    if mode == "over":
        constraints = [(1, j) for j in range(2, kk + 1)]
        empty = "no vectors killed by the first row"
    elif mode == "under":
        constraints = [(i, kk) for i in range(1, kk)]
        empty = "no vectors killed by the last column"
    elif mode == "star":
        if a is None or not 1 <= a < kk:
            raise ValueError("star reduction needs 1 <= a < kappa")
        constraints = [(i, j) for i in range(1, a) for j in range(i + 1, kk + 1)]
        constraints += [(k2, l) for l in range(a + 2, kk + 1) for k2 in range(1, l)]
        empty = "star subspace is trivial"
    else:
        raise ValueError(f"unknown reduction mode {mode!r}")
    E = poly_kernel([row for key in constraints for row in form.blocks[key]], B.dim)
    if not E.free:
        raise EmptySubspace(empty)
    if mode == "over":
        ctx, prov = B.ctx.drop_first(), ("reduce-over", B, E)
        idx = range(1, kk)
        den, blocks = form.den_coeffs, {(i, j): form.blocks[(i + 1, j + 1)] for i in idx for j in idx}
    elif mode == "under":
        ctx, prov = B.ctx.drop_last(), ("reduce-under", B, E)
        den, blocks = _corrected(form.shift(Fraction(ps.sign(kk), 2)), range(1, kk), {kk: ps.sign(kk)})
    else:
        ctx, prov = B.ctx.star(a), ("reduce-star", B, a, E)
        extra = {k2: ps.sign(k2) for k2 in range(a + 2, kk + 1)}
        den, blocks = _corrected(form.shift(ps.rho(a + 2) / 2), (a, a + 1), extra)
    return BAction(ctx, _graded(B.space, E), cleared_form(*_restrict(den, blocks, E)), prov)


def tilde_form(B: BAction, i: int) -> ClearedForm:
    """The operator (2u - rho_(i+1)) b_ii(u) + sum_(a > i) s_a b_aa(u) of B,
    as a one-block form (key (1, 1))."""
    form, ps = B.cleared(), B.ps
    weights = {i: (-int(ps.rho(i + 1)), 2), **{a: (ps.sign(a),) for a in range(i + 1, B.kappa + 1)}}
    return cleared_form(form.den_coeffs, {(1, 1): _diagonal_sum(form, weights)})


def star_tilde_shift(B: BAction, red: BAction, a: int) -> bool:
    """Whether the tilde operators of red = reduce_rank(B, "star", a) are
    those of B at a and a + 1, shifted by rho_(a+2)/2 and restricted to
    the reduced space; compared as cleared forms, which are unique."""
    E = red.provenance[3]
    shift = B.ps.rho(a + 2) / 2
    for i in (1, 2):
        moved = tilde_form(B, a + i - 1).shift(shift)
        if tilde_form(red, i) != cleared_form(*_restrict(moved.den_coeffs, moved.blocks, E)):
            return False
    return True


# ---------------------------------------------------------------------------
# Irreducibility.

@dataclass
class BurnsideVerdict:
    status: str                   # irreducible | reducible | inconclusive
    closure_dim: int = 0
    invariant_subspace: list = field(default_factory=list)


def irreducible_burnside(B: BAction) -> BurnsideVerdict:
    """Span-closure irreducibility test over the rationals.

    The module is absolutely irreducible iff the expansion coefficients of
    all b_ij(u), up to u^-(cleared degree + 2) and read off the cleared
    form, generate the full matrix algebra (superlinalg.algebra_closure);
    on a sub-maximal closure a proper invariant subspace is searched by
    spinning eigenvectors of algebra elements under the coefficients,
    cleared to integer matrices (superlinalg.spin), and 'inconclusive' is
    reported when no candidate element splits over the rationals.
    """
    d = B.dim
    form = B.cleared()
    gens = [
        C
        for key in sorted(form.blocks)
        for C in series_expansion(form.blocks[key], form.den_coeffs, form.degree + 2)[1:]
        if any(map(any, C))
    ]
    closure = algebra_closure(gens, d)
    if len(closure) == d * d:
        return BurnsideVerdict("irreducible", d * d)
    maps = [_zclear(C)[1] for C in gens]
    # Candidate elements whose eigenvectors may expose a submodule: single
    # coefficients first, then a few small combinations.  A candidate whose
    # root search refuses its coefficients (RootSearchBound) is skipped.
    candidates = list(gens)
    for npick in (2, 3):
        combo = [[Fraction(0)] * d for _ in range(d)]
        for t, g in enumerate(gens[:npick], start=1):
            for r in range(d):
                for c in range(d):
                    combo[r][c] += t * g[r][c]
        candidates.append(combo)
    for A in candidates:
        try:
            roots, _cof = rational_roots(charpoly(A))
        except RootSearchBound:
            continue
        for lam, _mult in roots:
            shifted = [row[:] for row in A]
            for r in range(d):
                shifted[r][r] -= lam
            for v in echelon(cleared_rows(shifted), d).null:
                g = gcd(*v.values())
                span = spin([[[v.get(c, 0) // g] for c in range(d)]], maps, d)
                if len(span) < d:
                    return BurnsideVerdict("reducible", len(closure), [[x for x, in X] for X in span])
    return BurnsideVerdict("inconclusive", len(closure))


# ---------------------------------------------------------------------------
# Isomorphism twists.

def scale_baction(B: BAction, h: RatFun) -> BAction:
    """Pull back through B(u) -> h(u) B(u); caller ensures h(u) h(-u) = 1."""
    form = B.cleared()
    _s, (hn, hd) = _zclear([h.num.coeffs, h.den.coeffs])
    scale = [{c: hn} for c in range(B.dim)]
    blocks = {key: _zmatmul(rows, scale) for key, rows in form.blocks.items()}
    return BAction(B.ctx, B.space, cleared_form(poly_mul(form.den_coeffs, hd), blocks), ("scaled", B, h))


def flip_s(B: BAction) -> BAction:
    """Pull back through u -> -u, landing in the context (-s, eps)."""
    ctx = TwistedContext(ParitySeq([-x for x in B.ps.s]), B.ctx.eps)
    form = B.cleared().neg_u()
    return BAction(ctx, B.space, cleared_form(form.den_coeffs, form.blocks), ("flip-s", B))


def flip_eps(B: BAction) -> BAction:
    """Pull back through b -> -b, landing in the context (s, -eps)."""
    ctx = TwistedContext(B.ps, [-x for x in B.ctx.eps])
    form = B.cleared()
    blocks = {key: [{c: _zneg(e) for c, e in row.items()} for row in rows] for key, rows in form.blocks.items()}
    return BAction(ctx, B.space, cleared_form(form.den_coeffs, blocks), ("flip-eps", B))


def permute_baction(B: BAction, sigma) -> BAction:
    """Relabel indices along a permutation sigma of 1..kappa."""
    kk = B.kappa
    sigma = tuple(sigma)
    inv = [0] * kk
    for i in range(kk):
        inv[sigma[i] - 1] = i + 1
    ctx = TwistedContext(
        ParitySeq([B.ps.sign(inv[i]) for i in range(kk)]),
        [B.ctx.eps_sign(inv[i]) for i in range(kk)],
    )
    form = B.cleared()
    idx = range(1, kk + 1)
    blocks = {(i, j): form.blocks[(inv[i - 1], inv[j - 1])] for i in idx for j in idx}
    return BAction(ctx, B.space, cleared_form(form.den_coeffs, blocks), ("permuted", B, sigma))


# ---------------------------------------------------------------------------
# JSON serialization.

def b_to_json(B: BAction) -> dict:
    out = {
        "ctx": {
            "s": list(B.ps.s),
            "eps": list(B.ctx.eps),
        },
        "dim": B.dim,
        "parities": list(B.space.parities),
        "b": _blocks_json(B),
    }
    if B.ctx.gamma is not None:
        out["ctx"]["gamma"] = str(B.ctx.gamma)
    return out


def b_from_json(data: dict) -> BAction:
    ctx = TwistedContext(
        ParitySeq(data["ctx"]["s"]),
        data["ctx"]["eps"],
        data["ctx"].get("gamma"),
    )
    space = SuperSpace(data["parities"])
    b = json_blocks(data, "b", ctx.kappa, rf_from_json)
    for (i, j), rows in sorted(b.items()):
        if any(e.num.degree > e.den.degree for row in rows for e in row):
            raise ValueError(
                f"b_{i}{j}(u) is not a series in u^-1: an entry has numerator degree above its denominator's"
            )
    return BAction(ctx, space, cleared_form_rf(b))
