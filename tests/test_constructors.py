"""Every family constructor builds a ClearedForm over Z[u]; each is checked
against its construction over the function field.

The rf_* oracles of support build the same family from RatFun blocks, with
inverse series by Gauss-Jordan (ref_inverse), and family_form clears them
through yangian.cleared_form_rf.  A cleared form is unique (the reduced
common denominator, one content, a positive leading coefficient), so the
integer constructor is right exactly when its form equals the oracle's.
The families run over even and odd parity sequences, at kappa = 2 and 3,
with and without a twist gamma.
"""

import os
from fractions import Fraction

import pytest

from support import (
    family_form,
    ref_inverse,
    ref_lambda_prime_check,
    restrict_rf,
    rf_b_tensor,
    rf_c_gamma,
    rf_dual,
    rf_find_highest_space,
    rf_reduce_rank,
    rf_shift,
    rf_tensor,
    rf_tilde_operator,
)

from tyang.exactalg import RatFun
from tyang.superlinalg import RFMatrix, rfmat_inverse
from tyang.glmn import ParitySeq, make_Lab, make_vector_rep
from tyang.twisted import (
    BAction,
    TwistedContext,
    b_from_T,
    b_tensor,
    c_gamma,
    find_highest_space,
    flip_eps,
    flip_s,
    permute_baction,
    reduce_rank,
    scale_baction,
    star_tilde_shift,
    verify_b,
)
from tyang.cli import run_scenario
from tyang.yangian import (
    NotHighest,
    SeriesFamily,
    dual_action,
    evaluation_action,
    highest_lweight,
    inverse_series_action,
    lambda_prime_check,
    shift_action,
    tensor_action,
    trivial_action,
)

F = Fraction

PARITY_SEQS = [[1, 1], [1, -1], [-1, 1], [1, 1, 1], [1, -1, 1], [-1, 1, -1]]


def _vector(ps, z):
    return evaluation_action(make_vector_rep(ParitySeq(ps)), z)


def _modules(ps):
    """T(u) of kappa = len(ps): a vector module, a tensor product, and at
    kappa = 2 an L(a, b) with s_1 = ps[0]."""
    out = [_vector(ps, F(1, 3)), tensor_action(_vector(ps, 2), _vector(ps, F(-1, 2)))]
    if len(ps) == 2:
        out.append(evaluation_action(make_Lab(ps[0], F(3, 2), -2), -1))
    return out


def _same(family, t):
    """family's cleared form equals that of the RatFun blocks t."""
    return family.cleared() == family_form(t)


def _ids(values):
    return ["".join("+" if s > 0 else "-" for s in ps) for ps in values]


@pytest.mark.parametrize("ps", PARITY_SEQS, ids=_ids(PARITY_SEQS))
class TestYangianConstructors:
    def test_shift(self, ps):
        for T in _modules(ps):
            for z in (F(5, 2), -3):
                S = shift_action(T, z)
                assert _same(S, rf_shift(T, z))
                assert _same(inverse_series_action(S), ref_inverse(S))

    def test_tensor_and_its_inverse(self, ps):
        A, B = _vector(ps, 0), _vector(ps, F(7, 2))
        for L, R in ((A, B), (B, trivial_action(ParitySeq(ps))), (tensor_action(A, B), A)):
            T = tensor_action(L, R)
            assert _same(T, rf_tensor(L, R))
            assert _same(inverse_series_action(T), ref_inverse(T))

    def test_dual_and_its_inverse(self, ps):
        for T in _modules(ps):
            D = dual_action(T)
            assert _same(D, rf_dual(T))
            assert _same(inverse_series_action(D), ref_inverse(D))

    def test_inverse_weight_check(self, ps):
        # On the modules and their duals, at the highest weight of a
        # highest vector and at the weight 1 otherwise, passing or not, the
        # integer check gives the verdict read off the RatFun blocks.
        for T in _modules(ps) + [dual_action(T) for T in _modules(ps)]:
            for xi in ([1] + [0] * (T.dim - 1), [0] * (T.dim - 1) + [1]):
                try:
                    lams = highest_lweight(T, xi)
                except NotHighest:
                    lams = (RatFun.one(),) * T.kappa
                assert lambda_prime_check(T, xi, lams) == ref_lambda_prime_check(T, xi, lams)


def _conjugated(B):
    """P^-1 B(u) P for an even constant P, unipotent and lower bidiagonal
    on the basis vectors of each parity, so that singular subspaces are not
    spanned by basis vectors."""
    pars = B.space.parities
    P = [[int(r == c) for c in range(B.dim)] for r in range(B.dim)]
    for p in (0, 1):
        same = [r for r in range(B.dim) if pars[r] == p]
        for k in range(len(same) - 1):
            P[same[k + 1]][same[k]] = k + 2
    P = RFMatrix.from_const(P)
    Pinv = rfmat_inverse(P)
    return BAction(B.ctx, B.space, family_form({key: Pinv @ m @ P for key, m in B.b.items()}))


def _twists(ps):
    """B(u) on kappa = len(ps): from T(u) without and with gamma, the
    coideal tensor of T(u) with c_gamma, and a constant conjugate of the
    twist of a tensor product."""
    eps = [(-1) ** k for k in range(len(ps))]
    T = _vector(ps, F(1, 3))
    out = [b_from_T(T, TwistedContext(T.ps, eps)), b_from_T(T, TwistedContext(T.ps, eps[::-1], F(-3, 2)))]
    out.append(b_tensor(T, c_gamma(TwistedContext(T.ps, eps), 2)))
    TT = tensor_action(T, _vector(ps, 2))
    out.append(_conjugated(b_from_T(TT, TwistedContext(T.ps, eps))))
    return out


@pytest.mark.parametrize("ps", PARITY_SEQS, ids=_ids(PARITY_SEQS))
class TestTwistedConstructors:
    def test_c_gamma(self, ps):
        for eps in ([1] * len(ps), [(-1) ** k for k in range(len(ps))]):
            ctx = TwistedContext(ParitySeq(ps), eps)
            for gamma in (F(0), F(1), F(-3, 2)):
                assert _same(c_gamma(ctx, gamma), rf_c_gamma(ctx, gamma))

    def test_b_tensor(self, ps):
        T = _vector(ps, F(1, 3))
        eps = [(-1) ** k for k in range(len(ps))]
        for W in (c_gamma(TwistedContext(T.ps, eps), F(5, 2)),
                  b_from_T(_vector(ps, 2), TwistedContext(T.ps, eps, F(1, 2)))):
            for L in (T, dual_action(T)):
                assert _same(b_tensor(L, W), rf_b_tensor(L, W))

    def test_reductions(self, ps):
        modes = [("over", None), ("under", None)] + [("star", a) for a in range(1, len(ps))]
        for B in _twists(ps):
            for mode, a in modes:
                red = reduce_rank(B, mode, a)
                b, K = rf_reduce_rank(B, mode, a)
                assert red.provenance[-1].vectors() == K
                assert _same(red, b)
                if mode == "star":
                    shift = B.ps.rho(a + 2) / 2
                    want = all(rf_tilde_operator(red, i) == restrict_rf(rf_tilde_operator(B, a + i - 1).shift(shift), K)
                               for i in (1, 2))
                    assert star_tilde_shift(B, red, a) == want

    def test_highest_space(self, ps):
        for B in _twists(ps):
            assert find_highest_space(B) == rf_find_highest_space(B)

    def test_isomorphism_twists(self, ps):
        u = RatFun.x()
        h = (u + 5) / (u - 5)
        sigma = tuple(range(len(ps), 0, -1))
        for B in _twists(ps):
            assert _same(scale_baction(B, h), {key: m.scale(h) for key, m in B.b.items()})
            assert _same(flip_s(B), {key: m.subs_neg() for key, m in B.b.items()})
            assert _same(flip_eps(B), {key: m.scale(-1) for key, m in B.b.items()})
            P = permute_baction(B, sigma)
            assert _same(P, {(i, j): B.b[(sigma.index(i) + 1, sigma.index(j) + 1)] for (i, j) in B.b})


def test_reductions_keep_the_relations():
    # The integer reductions of a gamma twist satisfy the reflection
    # equation and unitarity on their subspace.
    B = _twists([1, -1, 1])[1]
    for mode, a in (("over", None), ("under", None), ("star", 1), ("star", 2)):
        assert verify_b(reduce_rank(B, mode, a)).ok


def test_star_tilde_shift_refuses_a_changed_diagonal():
    # With b_11 of the reduced family negated, its first tilde operator is
    # no longer the shifted restriction of B's.
    B = _twists([1, 1, -1])[0]
    red = reduce_rank(B, "star", 1)
    assert star_tilde_shift(B, red, 1)
    bad = BAction(red.ctx, red.space, red.cleared().negate_block((1, 1)), red.provenance)
    assert not star_tilde_shift(B, bad, 1)


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "tyang", "data", "scenarios")


class TestNoStoredZero:
    """The row-sparse layout has one zero, an absent column: no family built
    while a shipped scenario runs (its constructors, inverse series,
    reductions and functor outputs) stores a zero entry or a column out of
    range in its cleared form."""

    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_shipped_scenario_families(self, name, monkeypatch):
        forms = []
        init = SeriesFamily.__init__

        def record(self, ps, space, form, provenance=("direct",)):
            forms.append((space.dim, form))
            init(self, ps, space, form, provenance)

        monkeypatch.setattr(SeriesFamily, "__init__", record)
        report, _code = run_scenario(os.path.join(SCENARIO_DIR, name))
        assert forms or report["pipeline"] in ("daha", "appendix")
        for dim, form in forms:
            for rows in form.blocks.values():
                assert len(rows) == dim
                assert all(e and 0 <= c < dim for row in rows for c, e in row.items())
