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
Verma conditions run on those integer numerators (BHighestWeight).  The
classification criterion is stated once, per neighbouring pair (i, i+1)
of the tilde series (_pair_failure), with one search per pair
(_pair_search) and one rule for the candidates of gamma (_search), all
on the reduced integer ratios of the tilde numerators:
classify_rank1 is its kappa = 2 instance on any parity sequence, and
classify_highrank and classify_highrank_search check and search it at any
kappa on the standard one.  B's RatFun entries are a view, formed only
for the JSON writer and full_at; b_from_json reads RatFun input through
yangian.cleared_form_rf.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from tyang._kernel import cleared_rows, echelon, poly_mul
from tyang.exactalg import (
    Poly,
    RatFun,
    RootSearchBound,
    _is_root,
    _neg_u,
    _zadd,
    _zclear,
    _zcompose,
    _zmatmul,
    _zneg,
    _zreduce,
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
    coefficient_rows,
    minpoly,
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


class BReport:
    """Outcome of the relation checks on one B-action."""

    def __init__(self, reflection, scalar_ok, unitarity):
        self.reflection = reflection  # None or Grid2Witness
        self.scalar_ok = scalar_ok    # B(u)B(-u) is a scalar matrix
        self.unitarity = unitarity    # the scalar as (num, den) over Z[u]

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
    R = ScaledR(flip_at(B.ps, 1, 2, 2), B.dim)
    B1, B2 = ((cleared_evaluator(B, var + 1), B.cleared(), var) for var in (0, 1))
    minus, plus = (R, (1, -1)), (R, (1, 1))
    reflection = certify_words("reflection", [minus, B1, plus, B2], [B2, plus, B1, minus], len(R.rows))
    unitarity, scalar_ok = unitarity_scalar(B)
    return BReport(reflection, scalar_ok, unitarity)


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
    with numerators tilde_nums.  verma_conditions reads only these
    integers, and the classification only their reduced ratios, pairs of
    integer tuples; mus, mu(i) and tilde(i) are reduced RatFun views,
    formed on first read.  Two weights are equal when their reduced series
    are.
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

    @cached_property
    def ratios(self):
        """mu~_i / mu~_(i+1) for i < kappa as a reduced pair (num, den) over
        Z[u]: den cancels, so it is _zreduce(T_(i+1), [T_i]) on the tilde
        numerators; None where either vanishes."""
        T, out = self.tilde_nums, []
        for a, b in zip(T, T[1:]):
            if a and b:
                den, (num,) = _zreduce(b, [a])
                out.append((num, den))
            else:
                out.append(None)
        return tuple(out)

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


class ClassificationCertificate(NamedTuple):
    case: str
    P: object = None           # Poly or None
    gamma: object = None       # Fraction or None
    status: str = "verified"   # verified | search-failed | undecided-irrational
    detail: str = ""


def _prefactors(ctx: TwistedContext, i: int, c):
    """(A_i, B_i), the linear prefactors of the pair (i, i+1), as integer
    tuples scaled by the denominator q of the rational c:
    A_i = q (2 eps_i u - eps_i rho_(i+1) + varpi_(i+1) + c), and B_i the
    same at i + 1.  They are equal when eps_i = eps_(i+1)."""
    ps, p, q = ctx.ps, c.numerator, c.denominator
    return tuple(
        (q * int(ctx.varpi(k + 1) - ctx.eps_sign(k) * ps.rho(k + 1)) + p, 2 * q * ctx.eps_sign(k)) for k in (i, i + 1)
    )


def _mixed_pairs(ctx: TwistedContext):
    """The pairs (i, i+1) with s_i = s_(i+1) and eps_i != eps_(i+1), where
    gamma enters the criterion."""
    ps = ctx.ps
    return [i for i in range(1, ctx.kappa) if ps.sign(i) == ps.sign(i + 1) and ctx.eps_sign(i) != ctx.eps_sign(i + 1)]


def _involution_holds(num, den, P, c, sign):
    """Whether num / den = sign (-1)^deg P P(u) / P(c - u), for integer
    tuples num, den and a nonzero P, by cross-multiplication."""
    sgn = sign if len(P) % 2 else -sign
    return poly_mul(num, _zcompose(P, -1, c)) == poly_mul((sgn,), poly_mul(den, P))


def _pair_failure(mu: BHighestWeight, i: int, gamma, P):
    """The finite-dimensionality criterion at the pair (i, i+1) for gamma
    and P = P_i, an integer tuple: None on pass, else "symmetry",
    "identity" or "divisibility".  With r = mu~_i / mu~_(i+1):
    for s_i = s_(i+1), P(rho_i - u) = P(u), r = A_i P(u + s_i) / (B_i P(u))
    (_prefactors at c = gamma), and A_i does not divide P when eps mixes;
    for s_i != s_(i+1), r = eps_i eps_(i+1) (-1)^deg P P(u) / P(rho_(i+1) - u).
    Each is an identity in Z[u], the quotients cross-multiplied, and A_i
    divides P exactly when its zero is a root of P.
    """
    ctx, ps = mu.ctx, mu.ctx.ps
    ratio = mu.ratios[i - 1]
    if ps.sign(i) != ps.sign(i + 1):
        sign = ctx.eps_sign(i) * ctx.eps_sign(i + 1)
        ok = ratio is not None and P and _involution_holds(*ratio, P, int(ps.rho(i + 1)), sign)
        return None if ok else "identity"
    if _zcompose(P, -1, int(ps.rho(i))) != P:
        return "symmetry"
    A, B = _prefactors(ctx, i, gamma)
    if ratio is None or not P or (
        poly_mul(poly_mul(ratio[0], B), P) != poly_mul(poly_mul(ratio[1], A), _zcompose(P, 1, ps.sign(i)))
    ):
        return "identity"
    if ctx.eps_sign(i) != ctx.eps_sign(i + 1) and _is_root(P, -A[0], A[1]):
        return "divisibility"
    return None


def _pair_search(mu: BHighestWeight, i: int, gamma):
    """P_i passing _pair_failure at (i, gamma), as an integer tuple, or
    None: the one candidate of the quotient solver of the pair's case,
    solve_shift_quotient of r B_i / A_i for s_i = s_(i+1) and
    _solve_involution_quotient otherwise, kept if it passes."""
    ctx, ps = mu.ctx, mu.ctx.ps
    num, den = mu.ratios[i - 1]
    if ps.sign(i) != ps.sign(i + 1):
        P = _solve_involution_quotient(num, den, int(ps.rho(i + 1)), ctx.eps_sign(i) * ctx.eps_sign(i + 1))
    else:
        A, B = _prefactors(ctx, i, gamma)
        P = solve_shift_quotient(poly_mul(num, B), poly_mul(den, A), ps.sign(i))
    return None if P is None or _pair_failure(mu, i, gamma, P) else P


def _ratio_roots(ratio):
    """The rational roots of the numerator and of the denominator of the
    reduced pair ratio, or None when either keeps a factor with no
    rational root."""
    (rn, cn), (rd, cd) = (rational_roots(p) for p in ratio)
    if len(cn) > 1 or len(cd) > 1:
        return None
    return [r for r, _m in rn], [r for r, _m in rd]


def _search(mu: BHighestWeight, roots):
    """(gamma, [P_1, ..., P_(kappa-1)]) passing every _pair_failure, the P_i
    integer tuples, or None.

    roots maps each mixed pair i (_mixed_pairs) to the _ratio_roots of its
    ratio; with none, gamma = 0 is the one candidate.  A passing P_i is
    prime to A_i, so the zero of A_i is a root of the ratio's numerator
    unless B_i shares it and both cancel (A_i + B_i = 0; at kappa = 2 that
    zero is s_2/2).  The candidates are these gammas, read off A_i and B_i
    at c = 0, which are -gamma at their zeros, and those at which B_i
    vanishes at a denominator root.  They are tried in ascending order of
    the zero of A_i0 at the first mixed pair i0, which moves as -eps_i0 gamma.
    """
    ctx = mu.ctx
    gammas = {Fraction(0)} if not roots else set()
    for i, (rn, rd) in roots.items():
        (a0, a1), (b0, b1) = _prefactors(ctx, i, 0)
        gammas.update([-a0 - a1 * x for x in rn] + [-b0 - b1 * x for x in rd] + [Fraction(-a0 - b0, 2)])
    e0 = ctx.eps_sign(min(roots)) if roots else 1
    for gamma in sorted(gammas, key=lambda g: -e0 * g):
        Ps = []
        for i in range(1, ctx.kappa):
            Ps.append(_pair_search(mu, i, gamma))
            if Ps[-1] is None:
                break
        else:
            return gamma, Ps
    return None


def classify_rank1(mu: BHighestWeight) -> ClassificationCertificate:
    """Finite-dimensionality certificate for a rank-one highest weight: the
    kappa = 2 instance of _search, on any parity sequence.

    Its case names the one pair; a vanishing tilde series fails, and a
    ratio with a factor of no rational root is undecided-irrational.  The
    mixed case reports the zero g = s_2 - gamma / (2 eps_1) of A_1 in place
    of gamma.
    """
    ctx = mu.ctx
    if ctx.kappa != 2:
        raise WrongRank("rank-one classification needs kappa = 2")
    s2, e1 = ctx.ps.sign(2), ctx.eps_sign(1)
    mixed = _mixed_pairs(ctx)
    if ctx.ps.sign(1) != s2:
        case = "s-diff"
    else:
        case = "s-equal-eps-diff" if mixed else "s-equal-eps-equal"
    if mu.ratios[0] is None:
        return ClassificationCertificate(case, status="search-failed",
                                         detail="a tilde series vanishes: no ratio to certify")
    roots = _ratio_roots(mu.ratios[0])
    if roots is None:
        return ClassificationCertificate(case, status="undecided-irrational")
    found = _search(mu, {i: roots for i in mixed})
    if found is None:
        return ClassificationCertificate(case, status="search-failed")
    gamma, (P,) = found
    return ClassificationCertificate(case, Poly(P).monic(), s2 - gamma / (2 * e1) if mixed else None)


def classify_highrank(mu: BHighestWeight, gamma, Ps):
    """Verify the finite-dimensionality criterion (_pair_failure) for the
    candidate gamma and the kappa - 1 polynomials Ps, pair by pair, on
    their cleared integer forms.  Returns None on success, else (i,
    reason).  Only the standard parity sequence carries this criterion.
    """
    ctx = mu.ctx
    if not ctx.ps.is_standard():
        raise ValueError("criterion only stated for the standard parity sequence")
    if len(Ps) != ctx.kappa - 1:
        raise ValueError("need kappa - 1 polynomials")
    gamma = rat(gamma)
    _s, Ps = _zclear([P.coeffs for P in Ps])
    for i in range(1, ctx.kappa):
        reason = _pair_failure(mu, i, gamma, Ps[i - 1])
        if reason is not None:
            return (i, reason)
    return None


def classify_highrank_search(mu: BHighestWeight):
    """(gamma, Ps) passing classify_highrank, the Ps monic, or None:
    _search on the rational roots of the mixed pairs' ratios."""
    if not all(mu.tilde_nums):
        return None
    roots = {i: _ratio_roots(mu.ratios[i - 1]) for i in _mixed_pairs(mu.ctx)}
    # A mixed pair whose ratio keeps an irrational factor has no P.
    found = None if None in roots.values() else _search(mu, roots)
    return found and (found[0], [Poly(P).monic() for P in found[1]])


def _solve_involution_quotient(num, den, c, sign_pair):
    """P with num / den = sign_pair (-1)^deg P P(u) / P(c - u), as an
    integer tuple, or None, for num / den reduced over Z[u] (as
    BHighestWeight.ratios holds it) and an integer c.

    The reduced ratio determines P up to a cofactor g with g(c - u)
    proportional to g: the minimal candidate is num times the part of
    num(c - u) prime to den, and it is verified before returning.
    """
    if len(num) != len(den) or num[-1] != sign_pair * den[-1]:
        return None
    rest, _ = _zreduce(_zcompose(num, -1, c), [den])
    P = poly_mul(num, rest)
    return P if _involution_holds(num, den, P, c, sign_pair) else None


def verify_sufficiency(mu: BHighestWeight, gamma, lams):
    """Check the tensor-with-character sufficiency identities.

    lams is a kappa-tuple of RatFun; returns None when every neighbouring
    tilde-ratio matches the twisted product formula, else the failing index.
    """
    ctx = mu.ctx
    gamma = rat(gamma)
    for i in range(1, ctx.kappa):
        r = ctx.ps.rho(i + 1)
        A, B = (RatFun(Poly(x)) for x in _prefactors(ctx, i, 2 * gamma))
        rhs = A * lams[i - 1] * lams[i].subs_linear(-1, r)
        rhs /= B * lams[i] * lams[i - 1].subs_linear(-1, r)
        ratio = mu.ratios[i - 1]
        if ratio is None or not rf_equal(RatFun(Poly(ratio[0]), Poly(ratio[1])), rhs):
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

class BurnsideVerdict(NamedTuple):
    status: str                   # irreducible | reducible | inconclusive
    closure_dim: int = 0
    invariant_subspace: list = ()  # spanning vectors, when reducible


def irreducible_burnside(B: BAction) -> BurnsideVerdict:
    """Span-closure irreducibility test over the rationals.

    The module is absolutely irreducible iff the expansion coefficients of
    all b_ij(u), up to u^-(cleared degree + 2) and read off the cleared
    form, generate the full matrix algebra (superlinalg.algebra_closure);
    on a sub-maximal closure a proper invariant subspace is searched by
    spinning eigenvectors of algebra elements under the coefficients,
    cleared to integer matrices (superlinalg.spin), and 'inconclusive' is
    reported when no candidate element splits over the rationals.  A
    candidate's eigenvalues are the roots of its minimal polynomial
    (superlinalg.minpoly); no multiplicity is read.
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
            s, c, _powers = minpoly(A)
            roots, _cof = rational_roots([x * s**k for k, x in enumerate(c)])
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
