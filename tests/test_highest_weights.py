"""The Z[u] highest-weight reader against the route over the function field.

yangian.highest_eigenseries reads the eigen-series of a highest vector off
the cleared form of a family, over one common denominator, and
twisted.verma_conditions and classify_rank1 run on those integers.  The
references in support (ref_highest_eigenseries, ref_verma_conditions,
ref_tilde, ref_tilde_ratio) form the same data from reduced RatFun.  On
every family below, highest or not, both routes give the same NotHighest
message, the same reduced series, the same Verma index and the same
rank-one certificate.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    bweight_from_series,
    ref_highest_eigenseries,
    ref_tilde,
    ref_tilde_ratio,
    ref_verma_conditions,
)

from tyang.exactalg import RatFun, RootSearchBound
from tyang.glmn import ParitySeq, make_Lab, make_vector_rep
from tyang.superlinalg import RFMatrix, SuperSpace
from tyang.twisted import (
    BAction,
    TwistedContext,
    b_from_json,
    b_from_T,
    b_tensor,
    b_to_json,
    c_gamma,
    classify_rank1,
    highest_bweight,
    verma_conditions,
)
from tyang.yangian import NotHighest, dual_action, evaluation_action, highest_lweight, tensor_action

_RAT = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
_SIGNS = st.sampled_from([1, -1])


def _signs(draw, n):
    return [draw(_SIGNS) for _ in range(n)]


def _module(draw, kappa):
    """An evaluation T(u) of L(a, b) (kappa = 2) or of a vector module."""
    z = draw(_RAT)
    if kappa == 2 and draw(st.booleans()):
        a = draw(_RAT)
        return evaluation_action(make_Lab(draw(_SIGNS), a, draw(_RAT.filter(lambda b: a + b))), z)
    return evaluation_action(make_vector_rep(ParitySeq(_signs(draw, kappa))), z)


def _context(draw, ps, gamma=True):
    g = draw(st.one_of(st.none(), _RAT)) if gamma else None
    return TwistedContext(ps, _signs(draw, ps.kappa), g)


@st.composite
def b_families(draw):
    """A B(u) from one of the scenario constructors, kappa 2 or 3."""
    kind = draw(st.sampled_from(["from-T", "c-gamma", "sum", "tensor", "b-json", "corrupt-sign"]))
    kappa = draw(st.sampled_from([2, 2, 3]))
    if kind == "c-gamma":
        ctx = _context(draw, ParitySeq(_signs(draw, kappa)), gamma=False)
        return kind, c_gamma(ctx, draw(_RAT))
    if kind == "sum":
        # c_gamma(g1) + c_gamma(g2): every vector is annihilated by the
        # upper series, and the diagonal is scalar on it only when g1 = g2
        # or it lies in one summand.
        ctx = _context(draw, ParitySeq(_signs(draw, kappa)), gamma=False)
        W1, W2 = c_gamma(ctx, draw(_RAT)), c_gamma(ctx, draw(_RAT))
        zero = RatFun.zero()
        b = {key: RFMatrix([[m[0, 0], zero], [zero, W2.b[key][0, 0]]]) for key, m in W1.b.items()}
        return kind, BAction(ctx, SuperSpace([0, 0]), b)
    T = _module(draw, kappa)
    if kind == "tensor":
        return kind, b_tensor(T, c_gamma(_context(draw, T.ps, gamma=False), draw(_RAT)))
    B = b_from_T(T, _context(draw, T.ps))
    if kind == "b-json":
        B = b_from_json(b_to_json(B))
    elif kind == "corrupt-sign":
        i, j = draw(st.sampled_from([(i, j) for i in range(1, kappa + 1) for j in range(1, kappa + 1) if i != j]))
        B = BAction(B.ctx, B.space, B.cleared().negate_block((i, j)))
    return kind, B


def _vector(draw, dim):
    """The first basis vector scaled, the zero vector or a random vector."""
    how = draw(st.sampled_from(["first", "first", "first", "zero", "random", "random"]))
    if how == "zero":
        return [0] * dim
    if how == "first":
        return [draw(_RAT.filter(bool))] + [0] * (dim - 1)
    return [draw(_RAT) for _ in range(dim)]


def _read(route, *args):
    try:
        return route(*args), None
    except NotHighest as e:
        return None, str(e)


def _certificate(mu):
    try:
        c = classify_rank1(mu)
    except RootSearchBound as e:
        return "bound", str(e)
    return c.case, c.P, c.gamma, c.status, c.detail


class TestZuReaderMatchesTheRatFunRoute:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_b_families(self, data):
        _kind, B = data.draw(b_families())
        eta = _vector(data.draw, B.dim)
        mu, err = _read(highest_bweight, B, eta)
        ref, ref_err = _read(ref_highest_eigenseries, B, eta, "b")
        assert err == ref_err
        if ref is None:
            return
        ps = B.ps
        assert mu.mus == ref
        assert mu == bweight_from_series(ref, B.ctx)
        assert [mu.tilde(i) for i in range(1, B.kappa + 1)] == [ref_tilde(ref, ps, i) for i in range(1, B.kappa + 1)]
        assert verma_conditions(mu) == ref_verma_conditions(ref, ps)
        if B.kappa == 2:
            ratio = ref_tilde_ratio(ref, ps)
            assert (ratio is None) == (not all(mu.tilde_nums))
            if ratio is not None:
                assert ratio == mu.tilde(1) / mu.tilde(2)
            assert _certificate(mu) == _certificate(bweight_from_series(ref, B.ctx))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_t_families(self, data):
        kappa = data.draw(st.sampled_from([2, 3]))
        T = _module(data.draw, kappa)
        how = data.draw(st.sampled_from(["plain", "tensor", "dual"]))
        if how == "tensor":
            T = tensor_action(T, evaluation_action(make_vector_rep(T.ps), data.draw(_RAT)))
        elif how == "dual":
            T = dual_action(T)
        xi = _vector(data.draw, T.dim)
        assert _read(highest_lweight, T, xi) == _read(ref_highest_eigenseries, T, xi, "t")

    def test_each_branch_of_the_reader(self):
        # Zero, not annihilated, not scalar, and highest with its first
        # nonzero coordinate second or first.
        T = evaluation_action(make_vector_rep(ParitySeq([1, -1, 1])), 2)
        B = b_from_T(T, TwistedContext(T.ps, [1, -1, 1], 1))
        ctx = TwistedContext(ParitySeq([1, -1]), [1, -1])
        W1, W2 = c_gamma(ctx, 1), c_gamma(ctx, 2)
        zero = RatFun.zero()
        S = BAction(ctx, SuperSpace([0, 0]), {
            key: RFMatrix([[m[0, 0], zero], [zero, W2.b[key][0, 0]]]) for key, m in W1.b.items()})
        cases = [
            (B, [0, 0, 0], "zero vector"),
            (B, [1, 1, 0], "b_12(u) does not annihilate the vector"),
            (S, [1, Fraction(-1, 2)], "b_11(u) is not scalar on the vector"),
            (S, [0, Fraction(-3, 2)], None),
            (B, [Fraction(5, 3), 0, 0], None),
        ]
        for F, v, want in cases:
            mu, err = _read(highest_bweight, F, v)
            ref, ref_err = _read(ref_highest_eigenseries, F, v, "b")
            assert err == ref_err == want
            if want is None:
                assert mu.mus == ref
                assert verma_conditions(mu) == ref_verma_conditions(ref, F.ps)
        assert highest_bweight(S, [0, Fraction(-3, 2)]).mus == (W2.b[(1, 1)][0, 0], W2.b[(2, 2)][0, 0])
