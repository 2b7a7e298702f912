"""Reflection-algebra actions B(u) built from T(u), their verification, highest
weights, classification certificates, rank reductions, and irreducibility.

Every B-action here arises either through the twist embedding
B(u) = T(u) G T(-u)^{-1}, through the one-dimensional family, or through the
coideal tensor construction; the abstract algebra is never represented.
BAction is a SeriesFamily like T(u), so evaluation, assembly and degree data
are shared.  B(u) from T(u) and the unitarity product B(u) B(-u) are block
products of cleared families over Z[u] (yangian.block_product), and the
irreducibility test reads B's coefficients off its cleared form.  B's
RatFun entries are formed only where highest weights, the tensor and
reduction constructors or the JSON codec read them.  The coideal tensor
action and the flip of the grid checks act on tensor slots and come from
the kron_ops assembler.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from tyang.exactalg import Poly, RatFun, RootSearchBound, divides, rat, rational_roots, rf_equal, rf_from_json
from tyang.glmn import ParitySeq, _coords_in_span, json_blocks
from tyang.superlinalg import (
    DimensionMismatch,
    RFMatrix,
    SuperSpace,
    algebra_closure,
    charpoly,
    check_identity_2var,
    cleared_coefficients,
    int_mat_mul,
    kron_sum,
    mat_identity,
    mat_mul,
    mat_nullspace,
    mat_vec,
    rfmat_kernel,
)
from tyang.yangian import (
    SeriesFamily,
    ScaledR,
    TAction,
    _blocks_json,
    block_product,
    cleared_evaluator,
    cleared_form,
    flip_at,
    highest_eigenseries,
    inverse_series_action,
    scalar_product,
    scaled_witness,
    series_expansion,
)


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

    def g_matrix(self):
        """G as a constant diagonal matrix on V."""
        k = self.kappa
        return [
            [Fraction(self.eps[i]) if i == j else Fraction(0) for j in range(k)]
            for i in range(k)
        ]

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
    """The family { b_ij(u) } of B(u) on one module; b aliases the entries."""

    def __init__(self, ctx: TwistedContext, space: SuperSpace, b, provenance=("direct",)):
        super().__init__(ctx.ps, space, b, provenance)
        self.ctx = ctx

    @property
    def b(self):
        return self.t

    def tilde_operator(self, i: int) -> RFMatrix:
        """(2u - rho_{i+1}) b_ii(u) + sum_{a>i} s_a b_aa(u)."""
        ps = self.ps
        lin = RatFun(Poly([-ps.rho(i + 1), 2]))
        out = self.b[(i, i)].scale(lin)
        for a in range(i + 1, self.kappa + 1):
            out = out + self.b[(a, a)].scale(ps.sign(a))
        return out


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
    """The one-dimensional module with b_ii(u) = (eps_i u + gamma)/(u - gamma)."""
    gamma = rat(gamma)
    k = ctx.kappa
    space = SuperSpace([0])
    den = Poly([-gamma, 1])
    b = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i == j:
                b[(i, j)] = RFMatrix(
                    [[RatFun(Poly([gamma, Fraction(ctx.eps_sign(i))]), den)]], space, space
                )
            else:
                b[(i, j)] = RFMatrix([[RatFun.zero()]], space, space)
    return BAction(ctx, space, b, ("c_gamma", gamma))


def b_tensor(L: TAction, W: BAction) -> BAction:
    """The coideal tensor action on L x W.

    The matrix form T_L(u) B_W(u) T_L(-u)^{-1} of the coideal coproduct,
    with the T factors acting through L and the auxiliary space:
    b_ij(u) = sum_{k,r} (-1)^(|b_kr| |t'_rj|) t_ik(u) t'_rj(-u) x b_kr(u),
    the sign coming from moving b_kr(u) past t'_rj(-u).
    """
    if L.ps != W.ps:
        raise DimensionMismatch("parity sequences differ")
    ps = L.ps
    kk = ps.kappa
    par = lambda a, b: (ps.parity(a) + ps.parity(b)) % 2
    Lpn = {key: m.subs_neg() for key, m in inverse_series_action(L).t.items()}
    wb = [(k, r, m) for (k, r), m in sorted(W.b.items()) if not m.is_zero()]
    spaces = [L.space, W.space]
    carrier = L.space.tensor(W.space)
    b = {}
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            terms = []
            for k, r, bkr in wb:
                t, tp = L.t[(i, k)], Lpn[(r, j)]
                if t.is_zero() or tp.is_zero():
                    continue
                sign = -1 if par(k, r) * par(r, j) else 1
                ops = [((t @ tp).entries, (par(i, k) + par(r, j)) % 2), (bkr.entries, par(k, r))]
                terms.append((sign, ops))
            b[(i, j)] = RFMatrix.from_const(kron_sum(terms, spaces), carrier, carrier)
    return BAction(W.ctx, carrier, b, ("tensor", L, W))


@dataclass
class BReport:
    """Outcome of the relation checks on one B-action."""

    reflection: object = None      # None or Grid2Witness
    scalar_ok: bool = True         # B(u)B(-u) is a scalar matrix
    f: RatFun = None               # the scalar itself

    @property
    def ok(self):
        return self.reflection is None and self.scalar_ok


def verify_b(B: BAction) -> BReport:
    """Certify the reflection equation and the unitarity scalar.

    The reflection equation is certified on a degree-beating grid, both
    sides as integer chains over the scale d_1 d_2 p_- p_+ (B1 = N_1 / d_1,
    B2 = N_2 / d_2, p_-+ the numerators of u -+ v).  The grid points are
    integers, so each side is the polynomial matrix
    p(u-v) p(u+v) N_1(u) N_2(v), in the order of the identity, with
    p(x) R(x) = x 1 - (1 x P).  With d the cleared degree of B every entry
    of N has degree at most d, and each of the two R factors adds 1 in each
    variable: the sides have bidegree at most (d + 2, d + 2), and a
    (d + 3) x (d + 3) grid certifies the identity (Combinatorial
    Nullstellensatz).  The product B(u)B(-u)
    must be a scalar f(u), which is then even (B(-u) B(u) = f(u) 1 is the
    identity at -u).  With B = N / c D over Z[u], P = N(u) N(-u) is formed
    in integers (scalar_product); f = P_11 / (c^2 D(u) D(-u)).
    """
    rep = BReport()
    R = ScaledR(flip_at(B.ps, 1, 2, 2), B.dim)
    B1 = cleared_evaluator(B, 1)
    B2 = cleared_evaluator(B, 2)
    form = B.cleared()

    def lhs(u0, v0):  # R(u-v) B1(u) R(u+v) B2(v)
        return R.left(u0 - v0, int_mat_mul(B1(u0)[0], R.left(u0 + v0, B2(v0)[0])))

    def rhs(u0, v0):  # B2(v) R(u+v) B1(u) R(u-v)
        return int_mat_mul(B2(v0)[0], R.left(u0 + v0, R.right(B1(u0)[0], u0 - v0)))

    w = check_identity_2var(
        lhs,
        rhs,
        (form.degree + 2, form.degree + 2),
        bad_u=lambda u: form.den(u) == 0,
        bad_v=lambda v: form.den(v) == 0,
    )
    rep.reflection = scaled_witness(
        w,
        lambda u0, v0: B1(u0)[1] * B2(v0)[1] * (u0 - v0).numerator * (u0 + v0).numerator,
        "reflection",
    )

    den, f, rep.scalar_ok = scalar_product(form, form.neg_u())
    rep.f = RatFun(Poly(f), Poly(den))
    return rep


# ---------------------------------------------------------------------------
# Highest weights.

@dataclass
class BHighestWeight:
    """Diagonal eigen-series of a highest vector, with derived data; each
    tilde series is formed once and kept."""

    mus: tuple
    ctx: TwistedContext
    _tildes: dict = field(default_factory=dict, compare=False, repr=False)

    def mu(self, i: int) -> RatFun:
        return self.mus[i - 1]

    def tilde(self, i: int) -> RatFun:
        if i not in self._tildes:
            ps = self.ctx.ps
            out = RatFun(Poly([-ps.rho(i + 1), 2])) * self.mus[i - 1]
            for a in range(i + 1, self.ctx.kappa + 1):
                out = out + RatFun.const(ps.sign(a)) * self.mus[a - 1]
            self._tildes[i] = out
        return self._tildes[i]

    def varpi_weight(self):
        out = []
        for i, mu in enumerate(self.mus, start=1):
            c1 = mu.series(1)[1]
            out.append(
                Fraction(self.ctx.ps.sign(i) * self.ctx.eps_sign(i), 2) * c1
            )
        return tuple(out)


def highest_bweight(B: BAction, eta) -> BHighestWeight:
    """Extract the eigen-series tuple of a B-highest vector."""
    return BHighestWeight(highest_eigenseries(B, eta, "b"), B.ctx)


def _rf_vector_coords_in_span(w, K):
    """Write a RatFun vector as a rational-function combination of constant
    basis vectors; returns the coefficient list or None when outside."""
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


def restrict_rf(M: RFMatrix, K):
    """Restriction of M to the span of constant vectors K, as an RFMatrix.

    Raises ValueError when the span is not invariant.
    """
    cols = []
    for v in K:
        w = M.mat_vec(v)
        coords = _rf_vector_coords_in_span(w, K)
        if coords is None:
            raise ValueError("subspace is not invariant")
        cols.append(coords)
    k = len(K)
    return RFMatrix([[cols[c][r] for c in range(k)] for r in range(k)])


def find_highest_space(B: BAction):
    """Basis of { eta : b_ij(u) eta = 0 for i < j }.

    Also certifies that the space is invariant under every b_rr(u) (else
    restrict_rf raises ValueError) and that the restricted diagonal
    operators D_a(u) commute for all u and v: with D_a(u) = sum_s A_s u^s /
    d_a(u) over one common denominator per operator, D_a(u) D_b(v) =
    D_b(v) D_a(u) holds identically exactly when every A_s commutes with
    every B_t of D_b, which is checked; a failure raises ValueError.
    """
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


# ---------------------------------------------------------------------------
# Verma-type symmetry conditions and classification.

def verma_conditions(mu: BHighestWeight):
    """Check the highest-weight symmetry constraints; None on pass, else the
    1-based index of the first failing condition (kappa for the unitary one).

    Each condition f(u) f(r - u) = g(u) g(r - u) is compared by cross
    multiplication, as rf_equal does: with f = N/D the left side is
    N(u) N(r - u) / D(u) D(r - u), so no reduced product is formed."""
    kk = mu.ctx.kappa
    ps = mu.ctx.ps

    def reflected(f, r):
        return f.num * f.num.compose_linear(-1, r), f.den * f.den.compose_linear(-1, r)

    n, d = reflected(mu.mu(kk), 0)
    if n != d:
        return kk
    for i in range(1, kk):
        r = ps.rho(i + 1)
        ni, di = reflected(mu.tilde(i), r)
        nn, dn = reflected(mu.tilde(i + 1), r)
        if ni * dn != nn * di:
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

    tilde1, tilde2 = mu.tilde(1), mu.tilde(2)
    if not (tilde1 and tilde2):
        return failed("search-failed", "a tilde series vanishes: no ratio to certify")
    ratio = tilde1 / tilde2

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
        from tyang.yangian import solve_shift_quotient

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
        from tyang.yangian import solve_shift_quotient

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
    from tyang.yangian import solve_shift_quotient

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

def reduce_rank(B: BAction, mode, a=None) -> BAction:
    """Induced lower-rank action on the appropriate singular subspace.

    mode 'over' drops the first index, 'under' the last (with the shifted
    diagonal correction), 'star' cuts down to the neighbouring pair
    (a, a+1) with the spectral shift rho_{a+2}/2.
    """
    kk = B.kappa
    ps = B.ps
    if mode == "over":
        constraints = [B.b[(1, j)] for j in range(2, kk + 1)]
        K = rfmat_kernel(constraints)
        if not K:
            raise EmptySubspace("no vectors killed by the first row")
        ctx = B.ctx.drop_first()
        b = {}
        for i in range(1, kk):
            for j in range(1, kk):
                b[(i, j)] = restrict_rf(B.b[(i + 1, j + 1)], K)
        return BAction(ctx, SuperSpace([0] * len(K)), b, ("reduce-over", B, K))
    if mode == "under":
        constraints = [B.b[(i, kk)] for i in range(1, kk)]
        K = rfmat_kernel(constraints)
        if not K:
            raise EmptySubspace("no vectors killed by the last column")
        ctx = B.ctx.drop_last()
        half = Fraction(ps.sign(kk), 2)
        corr = RatFun(Poly([half]), Poly([0, 1]))
        b = {}
        for i in range(1, kk):
            for j in range(1, kk):
                m = B.b[(i, j)].shift(half)
                if i == j:
                    m = m + B.b[(kk, kk)].shift(half).scale(corr)
                b[(i, j)] = restrict_rf(m, K)
        return BAction(ctx, SuperSpace([0] * len(K)), b, ("reduce-under", B, K))
    if mode == "star":
        if a is None or not 1 <= a < kk:
            raise ValueError("star reduction needs 1 <= a < kappa")
        constraints = []
        for i in range(1, a):
            for j in range(i + 1, kk + 1):
                constraints.append(B.b[(i, j)])
        for l in range(a + 2, kk + 1):
            for k2 in range(1, l):
                constraints.append(B.b[(k2, l)])
        K = rfmat_kernel(constraints) if constraints else [list(r) for r in mat_identity(B.dim)]
        if not K:
            raise EmptySubspace("star subspace is trivial")
        ctx = B.ctx.star(a)
        shift = ps.rho(a + 2) / 2
        corr = RatFun(Poly([Fraction(1, 2)]), Poly([0, 1]))
        b = {}
        for i in (1, 2):
            for j in (1, 2):
                m = B.b[(a + i - 1, a + j - 1)].shift(shift)
                if i == j:
                    extra = None
                    for k2 in range(a + 2, kk + 1):
                        term = B.b[(k2, k2)].shift(shift).scale(ps.sign(k2))
                        extra = term if extra is None else extra + term
                    if extra is not None:
                        m = m + extra.scale(corr)
                b[(i, j)] = restrict_rf(m, K)
        return BAction(ctx, SuperSpace([0] * len(K)), b, ("reduce-star", B, a, K))
    raise ValueError(f"unknown reduction mode {mode!r}")


# ---------------------------------------------------------------------------
# Irreducibility.

@dataclass
class BurnsideVerdict:
    status: str                   # irreducible | reducible | inconclusive
    closure_dim: int = 0
    invariant_subspace: list = field(default_factory=list)


def _cyclic_span(v, gens, d):
    span = [v]
    changed = True
    while changed and len(span) < d:
        changed = False
        for A in gens:
            for w in list(span):
                img = mat_vec(A, w)
                if any(img) and _coords_in_span(span, [img]) is None:
                    span.append(img)
                    changed = True
                    if len(span) >= d:
                        return span
    return span


def irreducible_burnside(B: BAction) -> BurnsideVerdict:
    """Span-closure irreducibility test over the rationals.

    The module is absolutely irreducible iff the expansion coefficients of
    all b_ij(u), up to u^-(cleared degree + 2) and read off the cleared
    form, generate the full matrix algebra; on a sub-maximal closure a
    proper invariant subspace is searched through cyclic spans of
    eigenvectors of algebra elements, and 'inconclusive' is reported when no
    candidate element splits over the rationals.
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
            for v in mat_nullspace(shifted):
                span = _cyclic_span(v, gens, d)
                if 0 < len(span) < d:
                    return BurnsideVerdict("reducible", len(closure), span)
    return BurnsideVerdict("inconclusive", len(closure))


# ---------------------------------------------------------------------------
# Isomorphism twists.

def scale_baction(B: BAction, h: RatFun) -> BAction:
    """Pull back through B(u) -> h(u) B(u); caller ensures h(u) h(-u) = 1."""
    b = {key: m.scale(h) for key, m in B.b.items()}
    return BAction(B.ctx, B.space, b, ("scaled", B, h))


def flip_s(B: BAction) -> BAction:
    """Pull back through u -> -u, landing in the context (-s, eps)."""
    ctx = TwistedContext(ParitySeq([-x for x in B.ps.s]), B.ctx.eps)
    b = {key: m.subs_neg() for key, m in B.b.items()}
    return BAction(ctx, B.space, b, ("flip-s", B))


def flip_eps(B: BAction) -> BAction:
    """Pull back through b -> -b, landing in the context (s, -eps)."""
    ctx = TwistedContext(B.ps, [-x for x in B.ctx.eps])
    b = {key: m.scale(-1) for key, m in B.b.items()}
    return BAction(ctx, B.space, b, ("flip-eps", B))


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
    b = {}
    for i in range(1, kk + 1):
        for j in range(1, kk + 1):
            b[(i, j)] = B.b[(inv[i - 1], inv[j - 1])]
    return BAction(ctx, B.space, b, ("permuted", B, sigma))


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
    return BAction(ctx, space, {key: RFMatrix(rows, space, space) for key, rows in b.items()})
