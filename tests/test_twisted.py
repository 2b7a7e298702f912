import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import (
    _coords_in_span,
    assemble,
    bweight_from_series,
    family_form,
    read_blocks,
    ref_poly_kernel,
    ref_solve_involution_quotient,
    ref_solve_shift_quotient,
    restrict_rf,
    rf_tilde_operator,
    weight_decompose,
)

from tyang import cli, twisted
from tyang._kernel import mat_mul
from tyang.exactalg import Poly, RatFun, _zclear, _zreduce, rf_equal
from tyang.glmn import ParitySeq, make_Lab, make_vector_rep
from tyang.superlinalg import RFMatrix, SuperSpace, at_slots, kron_ops, mat_vec, poly_kernel
from tyang.yangian import (
    NotHighest,
    evaluation_action,
    flip_at,
    r_matrix_at,
    highest_lweight,
    inverse_series_action,
    lambda_prime_formula,
    series_expansion,
    solve_shift_quotient,
    tensor_action,
    trivial_action,
)
from tyang.twisted import (
    BAction,
    EmptySubspace,
    TwistedContext,
    WrongRank,
    b_from_json,
    b_from_T,
    b_tensor,
    b_to_json,
    c_gamma,
    classify_highrank,
    classify_highrank_search,
    classify_rank1,
    find_highest_space,
    flip_eps,
    flip_s,
    highest_bweight,
    irreducible_burnside,
    permute_baction,
    reduce_rank,
    scale_baction,
    unitarity_scalar,
    verify_b,
    verify_sufficiency,
    verma_conditions,
)


def F(a, b=1):
    return Fraction(a, b)


@pytest.fixture(scope="module")
def b_l12():
    ps = ParitySeq([1, -1])
    ctx = TwistedContext(ps, [1, 1])
    T = evaluation_action(make_Lab(1, 1, 2), 0)
    return b_from_T(T, ctx)


class TestContext:
    def test_varpi_telescopes(self):
        for signs in itertools.product([1, -1], repeat=3):
            ps = ParitySeq(signs)
            for eps in itertools.product([1, -1], repeat=3):
                ctx = TwistedContext(ps, eps)
                assert ctx.varpi(4) == 0
                for k in range(1, 4):
                    assert ctx.varpi(k) - ctx.varpi(k + 1) == eps[k - 1] * signs[k - 1]


class TestEmbedding:
    def test_trivial_module_gives_constant_g(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, -1])
        B = b_from_T(trivial_action(ps), ctx)
        assert B.b[(1, 1)][0, 0] == RatFun.one()
        assert B.b[(2, 2)][0, 0] == RatFun.const(-1)
        assert not B.b[(1, 2)][0, 0]

    def test_trivial_module_with_gamma_shift(self):
        # The shifted twist gives eps_1 + gamma/u, which is not the
        # one-dimensional module family.
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, -1], gamma=1)
        B = b_from_T(trivial_action(ps), ctx)
        u = RatFun.x()
        assert B.b[(1, 1)][0, 0] == 1 + 1 / u
        assert B.b[(2, 2)][0, 0] == -1 + 1 / u

    def test_unitary_exact(self, b_l12):
        rep = verify_b(b_l12)
        assert rep.ok and rep.f == RatFun.one()

    def test_reflection_certified(self, b_l12):
        assert verify_b(b_l12).reflection is None

    def test_gamma_twist_scalar(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1], gamma=1)
        B = b_from_T(trivial_action(ps), ctx)
        rep = verify_b(B)
        assert rep.reflection is None and rep.scalar_ok
        u = RatFun.x()
        assert rep.f == 1 - 1 / (u * u)

    def test_first_coefficient_identity(self):
        # b_ii at order u^-1 equals 2 s_i eps_i e_ii on evaluation modules.
        ps = ParitySeq([1, -1])
        M = make_Lab(1, 3, 1)
        for eps in ([1, 1], [1, -1], [-1, 1]):
            ctx = TwistedContext(ps, eps)
            form = b_from_T(evaluation_action(M, 0), ctx).cleared()
            for i in (1, 2):
                want = [
                    [2 * ps.sign(i) * ctx.eps_sign(i) * x for x in row]
                    for row in M.e(i, i)
                ]
                assert series_expansion(form.blocks[(i, i)], form.den_coeffs, 1)[1] == want

    def test_kappa_three_unitary(self):
        ps = ParitySeq([1, 1, -1])
        ctx = TwistedContext(ps, [1, 1, 1])
        B = b_from_T(evaluation_action(make_vector_rep(ps), 0), ctx)
        Ff = assemble(B)
        assert (Ff @ Ff.subs_neg()).is_identity()

    def test_nonscalar_unitarity_reports_first_diagonal_entry(self):
        # B(u) B(-u) has blocks diag(4, 9) and diag(25, 49): not scalar, and
        # f is entry (0, 0) of block (1, 1), the first diagonal entry of the
        # assembled product.
        ctx = TwistedContext(ParitySeq([1, 1]), [1, 1])
        space = SuperSpace([0, 0])
        diag = lambda a, b: RFMatrix.from_const([[a, 0], [0, b]], space, space)
        B = BAction(ctx, space, family_form({(1, 1): diag(2, 3), (1, 2): diag(0, 0), (2, 1): diag(0, 0), (2, 2): diag(5, 7)}))
        rep = verify_b(B)
        assert not rep.scalar_ok and rep.f == RatFun.const(4)

    def test_off_diagonal_entry_breaks_unitarity(self):
        # B = 1 + E_12 (constant): B(u) B(-u) = 1 + 2 E_12 has equal diagonal
        # entries and one nonzero off-diagonal block.
        ctx = TwistedContext(ParitySeq([1, 1]), [1, 1])
        space = SuperSpace([0])
        one = lambda a: RFMatrix.from_const([[a]], space, space)
        B = BAction(ctx, space, family_form({(1, 1): one(1), (1, 2): one(1), (2, 1): one(0), (2, 2): one(1)}))
        rep = verify_b(B)
        assert not rep.scalar_ok and rep.f == RatFun.one()


def lift_r(R, carrier, ps):
    """1 x R on carrier x V x V, assembled densely."""
    return kron_ops(at_slots(2, {1: (R, 0)}), [carrier, ps.space().tensor(ps.space())])


class TestReflectionWitness:
    def test_witness_matches_fraction_path(self, b_l12):
        # Flipping b_12 alone on L(a, b) with eps_1 = eps_2 breaks the reflection equation.
        b = dict(b_l12.b)
        b[(1, 2)] = b[(1, 2)].scale(-1)
        bad = BAction(b_l12.ctx, b_l12.space, family_form(b))
        w = verify_b(bad).reflection
        assert w is not None and w.label == "reflection"
        u0, v0 = w.point
        P = flip_at(bad.ps, 1, 2, 2)
        Rm = lift_r(r_matrix_at(P, u0 - v0), bad.space, bad.ps)
        Rp = lift_r(r_matrix_at(P, u0 + v0), bad.space, bad.ps)
        B1 = bad.full_at(u0, slot=1, nslots=2)
        B2 = bad.full_at(v0, slot=2, nslots=2)
        assert w.lhs == mat_mul(Rm, mat_mul(B1, mat_mul(Rp, B2)))
        assert w.rhs == mat_mul(B2, mat_mul(Rp, mat_mul(B1, Rm)))
        assert w.lhs != w.rhs
        assert all(type(x) is Fraction for m in (w.lhs, w.rhs) for row in m for x in row)


class TestOneDimensional:
    def test_gamma_zero_constant(self):
        ctx = TwistedContext(ParitySeq([1, -1]), [1, -1])
        B = c_gamma(ctx, 0)
        assert B.b[(1, 1)][0, 0] == RatFun.one()
        assert B.b[(2, 2)][0, 0] == RatFun.const(-1)

    def test_gamma_two_value(self):
        ctx = TwistedContext(ParitySeq([1, -1]), [1, 1])
        B = c_gamma(ctx, 2)
        u = RatFun.x()
        assert B.b[(1, 1)][0, 0] == (u + 2) / (u - 2)

    def test_verify_passes(self):
        ctx = TwistedContext(ParitySeq([1, -1]), [1, -1])
        rep = verify_b(c_gamma(ctx, 3))
        assert rep.ok and rep.f == RatFun.one()


class TestCoidealTensor:
    def test_counit_case(self, b_l12):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        BT = b_tensor(T, c_gamma(ctx, 0))
        for key in BT.b:
            assert BT.b[key] == b_l12.b[key]

    def test_tensor_with_character_weight(self):
        # The diagonal-combination eigenvalue on xi x eta factors through
        # the shifted linear prefactor times lambda_i(u) lambda'_i(-u).
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        lams = highest_lweight(T, [1, 0])
        u = RatFun.x()
        for eps in ([1, 1], [1, -1]):
            ctx = TwistedContext(ps, eps)
            gamma = F(1)
            BT = b_tensor(T, c_gamma(ctx, gamma))
            mu = highest_bweight(BT, [1, 0])
            for i in (1, 2):
                ei = ctx.eps_sign(i)
                pref = RatFun(
                    Poly([-ei * ps.rho(i + 1) + ctx.varpi(i + 1) + 2 * gamma, 2 * ei])
                )
                want = pref * u / (u - gamma) * lams[i - 1] * lambda_prime_formula(
                    lams, ps, i
                ).subs_neg()
                assert rf_equal(mu.tilde(i), want)

    def test_verify_on_mixed_eps(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, -1])
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        rep = verify_b(b_tensor(T, c_gamma(ctx, 1)))
        assert rep.ok and rep.f == RatFun.one()

    def test_matches_assembled_coideal_product(self):
        # gl(2|1) at kappa = 3, W = B from T with odd off-diagonal blocks:
        # b_tensor equals the blocks of T_L(u) B_W(u) T'_L(-u) assembled on
        # L x W x V, which fixes the sign of moving b_kr past t'_rj(-u).
        ps = ParitySeq([1, 1, -1])
        L = evaluation_action(make_vector_rep(ps), 1)
        W = b_from_T(evaluation_action(make_vector_rep(ps), 0), TwistedContext(ps, [1, -1, 1], F(2, 7)))
        spaces = [L.space, W.space]
        Lp = inverse_series_action(L)
        prod = assemble(L, spaces, 0) @ assemble(W, spaces, 1) @ assemble(Lp, spaces, 0).subs_neg()
        assert b_tensor(L, W).b == read_blocks(prod, ps, L.space.tensor(W.space))

    def test_factorization_with_reduced_module(self):
        # xi x eta for W itself a restriction: eigenvalues multiply.
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        T1 = evaluation_action(make_Lab(1, 1, 2), 0)
        T2 = evaluation_action(make_Lab(1, 4, 1), 0)
        W = b_from_T(T2, ctx)
        BT = b_tensor(T1, W)
        lams = highest_lweight(T1, [1, 0])
        muW = highest_bweight(W, [1, 0])
        mu = highest_bweight(BT, [1, 0, 0, 0])
        for i in (1, 2):
            want = lams[i - 1] * lambda_prime_formula(lams, ps, i).subs_neg() * muW.tilde(i)
            assert rf_equal(mu.tilde(i), want)


class TestHighestBWeight:
    def test_c_gamma_weights(self):
        ctx = TwistedContext(ParitySeq([1, -1]), [1, -1])
        B = c_gamma(ctx, 3)
        mu = highest_bweight(B, [1])
        u = RatFun.x()
        assert mu.mu(1) == (u + 3) / (u - 3)
        assert mu.mu(2) == (-u + 3) / (u - 3)

    def test_restricted_lab_ratio(self, b_l12):
        mu = highest_bweight(b_l12, [1, 0])
        u = RatFun.x()
        assert rf_equal(mu.tilde(1) / mu.tilde(2), (u + 1) * (u + 3) / (u * (u - 2)))

    def test_lower_vector_rejected(self, b_l12):
        with pytest.raises(NotHighest, match=r"^b_12\(u\) does not annihilate the vector$"):
            highest_bweight(b_l12, [0, 1])
        with pytest.raises(NotHighest, match="^zero vector$"):
            highest_bweight(b_l12, [0, 0])

    def test_non_scalar_diagonal_message(self):
        B = _diagonal_baction(RFMatrix([[RatFun.one(), RatFun.x()], [RatFun.zero()] * 2]), RFMatrix.identity(2))
        with pytest.raises(NotHighest, match=r"^b_11\(u\) is not scalar on the vector$"):
            highest_bweight(B, [0, 1])


def _diagonal_baction(b11, b22):
    """A kappa = 2 BAction on an even 2-dimensional space with b_12 = b_21 = 0."""
    ctx = TwistedContext(ParitySeq([1, 1]), [1, 1])
    space = SuperSpace([0, 0])
    zero = RFMatrix.zero(2, 2, space, space)
    b = {(1, 1): b11, (1, 2): zero, (2, 1): zero, (2, 2): b22}
    return BAction(ctx, space, family_form(b))


class TestHighestSpace:
    def test_irreducible_restriction_one_dim(self, b_l12):
        K = find_highest_space(b_l12)
        assert len(K) == 1

    def test_noncommuting_diagonals_raise(self):
        # b_11(u) = (u 1 + E_12)/(u - 1) and b_22(u) = E_21 do not commute.
        u, one, zero = RatFun.x(), RatFun.one(), RatFun.zero()
        b11 = RFMatrix([[u / (u - 1), one / (u - 1)], [zero, u / (u - 1)]])
        b22 = RFMatrix([[zero, zero], [one, zero]])
        with pytest.raises(ValueError, match="restricted diagonal operators 1,2 fail to commute"):
            find_highest_space(_diagonal_baction(b11, b22))
        assert len(find_highest_space(_diagonal_baction(b11, RFMatrix.identity(2).scale(u)))) == 2

    def test_direct_sum_two_dim(self, b_l12):
        space = SuperSpace(b_l12.space.parities * 2)
        b = {}
        zero = RatFun.zero()
        for key, m in b_l12.b.items():
            d = m.rows
            ents = [[zero] * (2 * d) for _ in range(2 * d)]
            for r in range(d):
                for c in range(d):
                    ents[r][c] = m[r, c]
                    ents[d + r][d + c] = m[r, c]
            b[key] = RFMatrix(ents, space, space)
        BB = BAction(b_l12.ctx, space, family_form(b))
        assert len(find_highest_space(BB)) == 2


class TestVerma:
    def test_c_gamma_passes(self):
        for eps in ([1, 1], [1, -1]):
            ctx = TwistedContext(ParitySeq([1, -1]), eps)
            W = c_gamma(ctx, 2)
            assert verma_conditions(highest_bweight(W, [1]), unitarity_scalar(W)[0]) is None

    def test_tensor_weights_pass(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, -1])
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        B = b_tensor(T, c_gamma(ctx, 2))
        assert verma_conditions(highest_bweight(B, [1, 0]), unitarity_scalar(B)[0]) is None

    def test_corrupted_weight_fails_at_last_index(self, b_l12):
        mu = highest_bweight(b_l12, [1, 0])
        u = RatFun.x()
        bad = bweight_from_series((mu.mus[0], mu.mus[1] * (u + 1) / (u + 2)), mu.ctx)
        assert verma_conditions(bad, unitarity_scalar(b_l12)[0]) == 2


_SIGN_PAIRS = [[1, -1], [1, 1], [-1, 1]]


class TestWeightSymmetryWithGamma:
    """B(u) = T(u) (G + gamma/u) T(-u)^{-1} has unitarity scalar
    f(u) = 1 - gamma^2/u^2, and the last weight condition reads
    mu_kappa(u) mu_kappa(-u) = f(u)."""

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("eps", _SIGN_PAIRS)
    @pytest.mark.parametrize("ps", _SIGN_PAIRS)
    def test_vector_modules_and_their_squares(self, ps, eps, power):
        # 3 ps x 3 eps x 2 powers here, x 3 gammas below: 54 families.
        u = RatFun.x()
        T = evaluation_action(make_vector_rep(ParitySeq(ps)), 0)
        if power == 2:
            T = tensor_action(T, T)
        for gamma in (F(1, 2), F(3), F(-2)):
            B = b_from_T(T, TwistedContext(T.ps, eps, gamma))
            f, scalar = unitarity_scalar(B)
            assert scalar and RatFun(Poly(f[0]), Poly(f[1])) == 1 - gamma * gamma / (u * u)
            mu = highest_bweight(B, [1] + [0] * (T.dim - 1))
            assert verma_conditions(mu, f) is None
            # The condition with f = 1 fails at kappa on every one of them.
            assert verma_conditions(mu, ((1,), (1,))) == 2

    def test_corrupted_weight_still_fails_at_kappa(self):
        u = RatFun.x()
        T = evaluation_action(make_vector_rep(ParitySeq([1, -1])), 0)
        B = b_from_T(T, TwistedContext(T.ps, [1, -1], F(1, 2)))
        f = unitarity_scalar(B)[0]
        mu = highest_bweight(B, [1, 0])
        assert verma_conditions(mu, f) is None
        bad = bweight_from_series((mu.mus[0], mu.mus[1] * (u + 1) / (u + 2)), mu.ctx)
        assert verma_conditions(bad, f) == 2


class TestClassifyRank1:
    def test_search_finds_certificate(self, b_l12):
        mu = highest_bweight(b_l12, [1, 0])
        cert = classify_rank1(mu)
        assert cert.status == "verified"
        assert cert.P == Poly([3, 4, 1])  # (u+1)(u+3)
        # The identity P(u)/P(-u-1) equals the tilde-ratio on the nose.
        P = cert.P
        ratio = mu.tilde(1) / mu.tilde(2)
        assert rf_equal(ratio, RatFun(P, P.compose_linear(-1, -1)))

    def test_certificate_passes_the_criterion(self, b_l12):
        mu = highest_bweight(b_l12, [1, 0])
        assert classify_highrank(mu, F(0), [Poly([3, 4, 1])]) is None
        assert classify_highrank(mu, F(0), [Poly([3, 1])]) == (1, "identity")
        assert classify_highrank(mu, F(0), [Poly.zero()]) == (1, "identity")

    def test_trivial_ratio(self):
        ctx = TwistedContext(ParitySeq([1, -1]), [1, 1])
        mu = highest_bweight(c_gamma(ctx, 2), [1])
        cert = classify_rank1(mu)
        assert cert.status == "verified" and cert.P == Poly.one()

    def test_even_mixed_eps_search(self):
        # s = (1,1), eps = (1,-1): certificates carry a gamma.
        ps = ParitySeq([1, 1])
        ctx = TwistedContext(ps, [1, -1])
        T = evaluation_action(make_vector_rep(ps), 3)
        gamma = F(2)
        BT = b_tensor(T, c_gamma(ctx, gamma))
        mu = highest_bweight(BT, [1, 0])
        cert = classify_rank1(mu)
        assert cert.status == "verified"
        assert cert.gamma is not None
        # The rank-one g is the zero of A_1: gamma = 2 eps_1 (s_2 - g).
        assert classify_highrank(mu, 2 * (1 - cert.gamma), [cert.P]) is None

    def test_even_equal_eps_search(self):
        ps = ParitySeq([1, 1])
        ctx = TwistedContext(ps, [1, 1])
        T = evaluation_action(make_vector_rep(ps), 3)
        B = b_from_T(T, ctx)
        mu = highest_bweight(B, [1, 0])
        cert = classify_rank1(mu)
        assert cert.status == "verified"
        assert cert.P.compose_linear(-1, 2 * ps.sign(2)) == cert.P

    def test_wrong_rank(self):
        ctx = TwistedContext(ParitySeq([1, -1, 1]), [1, 1, 1])
        mu = highest_bweight(c_gamma(ctx, 1), [1])
        with pytest.raises(WrongRank):
            classify_rank1(mu)


class TestClassifyHighrank:
    def test_rank_two_cross_check(self, b_l12):
        mu = highest_bweight(b_l12, [1, 0])
        cert = classify_rank1(mu)
        assert classify_highrank(mu, F(0), [cert.P]) is None

    def test_three_fold_standard(self):
        ps = ParitySeq([1, 1, -1])
        ctx = TwistedContext(ps, [1, 1, 1])
        A = evaluation_action(make_vector_rep(ps), 2)
        Bv = evaluation_action(make_vector_rep(ps), 5)
        T = tensor_action(A, Bv)
        B = b_from_T(T, ctx)
        xi = [F(0)] * B.dim
        xi[0] = F(1)
        mu = highest_bweight(B, xi)
        found = classify_highrank_search(mu)
        assert found is not None
        gamma, Ps = found
        assert classify_highrank(mu, gamma, Ps) is None

    def test_symmetry_violation_detected(self):
        ps = ParitySeq([1, 1, -1])
        ctx = TwistedContext(ps, [1, 1, 1])
        B = b_from_T(evaluation_action(make_vector_rep(ps), 2), ctx)
        xi = [F(1), F(0), F(0)]
        mu = highest_bweight(B, xi)
        found = classify_highrank_search(mu)
        assert found is not None
        gamma, Ps = found
        bad = [Poly([5, 1]) * Ps[0], Ps[1]]  # breaks P_1(u) = P_1(-u + rho_1)
        res = classify_highrank(mu, gamma, bad)
        assert res is not None and res[0] == 1

    def test_search_finds_the_rank_one_midpoint(self):
        # The rank-one certificate has g = s_2/2, where A_1 and B_1 share
        # their zero, so it cancels from the ratio and no root shows it.
        ps = ParitySeq([1, 1])
        ctx = TwistedContext(ps, [1, -1])
        B = b_tensor(evaluation_action(make_vector_rep(ps), 1), c_gamma(ctx, F(1, 2)))
        mu = highest_bweight(B, [1, 0])
        cert = classify_rank1(mu)
        assert (cert.P, cert.gamma) == (Poly([1, -2, 1]), F(1, 2))
        found = classify_highrank_search(mu)
        assert found == (F(1), [cert.P])
        assert classify_highrank(mu, *found) is None

    def test_search_finds_cancelled_prefactors_at_rank_three(self):
        # A_1 = 2u - 4 + gamma and B_1 = -2u + gamma share their zero at
        # gamma = 2, u = 1, not at s_1/2; the ratio is the constant -1.
        ps = ParitySeq([1, 1, 1])
        B = b_from_T(evaluation_action(make_vector_rep(ps), 1), TwistedContext(ps, [1, -1, -1]))
        mu = highest_bweight(B, [1, 0, 0])
        assert mu.ratios[0] == ((-1,), (1,))
        found = classify_highrank_search(mu)
        assert found == (F(2), [Poly.one(), Poly.one()])
        assert classify_highrank(mu, *found) is None

    def test_non_standard_refused(self):
        ctx = TwistedContext(ParitySeq([-1, 1]), [1, 1])
        mu = highest_bweight(c_gamma(ctx, 1), [1])
        with pytest.raises(ValueError):
            classify_highrank(mu, F(0), [Poly.one()])

    def test_a_p_that_a_1_divides_is_refused(self):
        # s = (-1, -1), eps = (1, -1), mu = ((3 - 2u)/(3 + 2u), 1).  At
        # gamma = -1, A_1 = 2u + 1, and P = (u + 1/2)(u + 3/2) passes the
        # symmetry and the identity, but A_1 divides it; the search goes on
        # to gamma = -3 (g = 1/2), where P = 1 passes.
        u = RatFun.x()
        ctx = TwistedContext(ParitySeq([-1, -1]), [1, -1])
        mu = bweight_from_series(((3 - 2 * u) / (3 + 2 * u), RatFun.one()), ctx)
        assert classify_highrank(mu, -1, [Poly([F(3, 4), 2, 1])]) == (1, "divisibility")
        cert = classify_rank1(mu)
        assert (cert.P, cert.gamma) == (Poly.one(), F(1, 2))
        assert classify_highrank_search(mu) == (F(-3), [Poly.one()])


_RAT = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


class TestRankOneIsTheRankTwoCriterion:
    """Every rank-one certificate (P, g) passes classify_highrank with
    gamma = 2 eps_1 (s_2 - g), or 0 when g is None, and the search finds
    one, on the standard sequences of each case."""

    @pytest.mark.parametrize("case", ["s-equal-eps-equal", "s-equal-eps-diff", "s-diff"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_certificates_agree(self, case, data):
        s1 = data.draw(st.sampled_from([1, -1])) if case != "s-diff" else 1
        ps = ParitySeq([s1, s1 if case != "s-diff" else -1])
        e1 = data.draw(st.sampled_from([1, -1]))
        ctx = TwistedContext(ps, [e1, -e1 if case == "s-equal-eps-diff" else e1])
        if case == "s-diff" and data.draw(st.booleans()):
            a = data.draw(_RAT)
            rep = make_Lab(1, a, data.draw(_RAT.filter(lambda b: a + b)))
        else:
            rep = make_vector_rep(ps)
        T = evaluation_action(rep, data.draw(_RAT))
        if data.draw(st.booleans()):
            T = tensor_action(T, evaluation_action(make_vector_rep(ps), data.draw(_RAT)))
        kind = data.draw(st.sampled_from(["from-T", "gamma-twist", "c-gamma-tensor"]))
        if kind == "c-gamma-tensor":
            B = b_tensor(T, c_gamma(ctx, data.draw(_RAT)))
        else:
            B = b_from_T(T, TwistedContext(ps, ctx.eps, data.draw(_RAT) if kind == "gamma-twist" else None))
        try:
            mu = highest_bweight(B, [1] + [0] * (B.dim - 1))
        except NotHighest:
            assume(False)
        cert = classify_rank1(mu)
        assert (cert.case, cert.status) == (case, "verified")
        gamma = 0 if cert.gamma is None else 2 * e1 * (ps.sign(2) - cert.gamma)
        assert classify_highrank(mu, gamma, [cert.P]) is None
        found = classify_highrank_search(mu)
        assert found is not None and classify_highrank(mu, *found) is None


_ROOT = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


def _spoiled(draw, ratio):
    """ratio as it is, with its sign flipped, times a quotient of two
    linear factors, or times a factor with no rational root."""
    how = draw(st.sampled_from(["none", "none", "sign", "linear", "irrational"]))
    if how == "sign":
        return -ratio
    if how == "linear":
        return ratio * RatFun(Poly([draw(_ROOT), 1]), Poly([draw(_ROOT), 1]))
    if how == "irrational":
        return ratio * RatFun(Poly([1, 0, 1]), Poly([draw(_ROOT), 1]) ** 2)
    return ratio


class TestIntegerSolversMatchTheFractionOracles:
    """The quotient solvers on integer tuples return the P of the Fraction
    solvers (support.ref_*), up to a scalar, or None with them."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_involution_quotient(self, data):
        c = data.draw(st.integers(-3, 3))
        sign_pair = data.draw(st.sampled_from([1, -1]))
        roots = data.draw(st.lists(_ROOT, max_size=4))
        # Roots paired as x, c - x, or at c/2, make P(u) and P(c - u) share
        # factors, which cancel from the reduced ratio.
        roots += [c - x for x in data.draw(st.lists(st.sampled_from(roots), max_size=2))] if roots else []
        roots += [F(c, 2)] * data.draw(st.integers(0, 1))
        P = Poly.from_roots(roots)
        exact = RatFun(P, P.compose_linear(-1, c)) * (sign_pair * (-1) ** P.degree)
        ratio = _spoiled(data.draw, exact)
        _s, (n, d) = _zclear([ratio.num.coeffs, ratio.den.coeffs])
        d, (n,) = _zreduce(d, [n])
        got = twisted._solve_involution_quotient(n, d, c, sign_pair)
        want = ref_solve_involution_quotient(ratio, c, sign_pair)
        assert (None if got is None else Poly(got).monic()) == want
        if ratio is exact:
            assert want is not None

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_shift_quotient(self, data):
        s = data.draw(st.sampled_from([1, -1]))
        roots = data.draw(st.lists(_ROOT, max_size=3))
        # Chains x, x + s, ... make P(u + s) and P(u) share factors.
        roots += [x + s * k for x in roots for k in range(1, data.draw(st.integers(1, 3)))]
        P = Poly.from_roots(roots)
        exact = RatFun(P.shift(s), P)
        ratio = _spoiled(data.draw, exact)
        # The integer solver reduces its input: hand it a common factor.
        common = Poly.from_roots(data.draw(st.lists(_ROOT, max_size=2))) * data.draw(_ROOT.filter(bool))
        got = solve_shift_quotient((ratio.num * common).coeffs, (ratio.den * common).coeffs, s)
        want = ref_solve_shift_quotient(ratio, s)
        assert (None if got is None else Poly(got).monic()) == want
        if ratio is exact:
            assert want == P.monic()


class TestClassificationStaysInZu:
    """classify_rank1 forms no normalised RatFun: the ratios, the root
    search and both quotient solvers run on integer tuples."""

    @pytest.mark.parametrize("case", ["s-diff", "s-equal-eps-diff"])
    def test_no_ratfun_is_normalised(self, case, monkeypatch):
        if case == "s-diff":
            # A gamma twist of L(2, 3).
            ps = ParitySeq([1, -1])
            T = evaluation_action(make_Lab(1, 2, 3), F(1, 2))
            B = b_from_T(T, TwistedContext(ps, [1, 1], 2))
        else:
            # A vector tensor square, twisted with mixed eps.
            ps = ParitySeq([1, 1])
            T = tensor_action(evaluation_action(make_vector_rep(ps), 3), evaluation_action(make_vector_rep(ps), 1))
            B = b_from_T(T, TwistedContext(ps, [1, -1]))
        mu = highest_bweight(B, [1] + [0] * (B.dim - 1))
        normalised, init = [], RatFun.__init__

        def counting(self, num, den=None, _reduced=False):
            if not _reduced:
                normalised.append(num)
            init(self, num, den, _reduced)

        monkeypatch.setattr(RatFun, "__init__", counting)
        cert = classify_rank1(mu)
        assert (cert.case, cert.status) == (case, "verified")
        assert normalised == []


class TestSufficiency:
    def test_tensor_with_character_satisfies_it(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, -1])
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        gamma = F(1)
        BT = b_tensor(T, c_gamma(ctx, gamma))
        mu = highest_bweight(BT, [1, 0])
        lams = highest_lweight(T, [1, 0])
        assert verify_sufficiency(mu, gamma, lams) is None


class TestReductions:
    def test_over_gives_next_diagonal_weight(self, b_l12):
        over = reduce_rank(b_l12, "over")
        assert over.dim == 1
        mu = highest_bweight(b_l12, [1, 0])
        assert over.b[(1, 1)][0, 0] == mu.mu(2)
        assert verify_b(over).ok

    def test_under_shifted_tilde(self, b_l12):
        under = reduce_rank(b_l12, "under")
        assert verify_b(under).ok
        # tilde of the reduced action is the shifted parent tilde.
        K = under.provenance[2].vectors()
        ps = b_l12.ps
        half = Fraction(ps.sign(2), 2)
        want = restrict_rf(rf_tilde_operator(b_l12, 1).shift(half), K)
        got = rf_tilde_operator(under, 1)
        assert got == want

    def test_star_on_kappa_three(self):
        ps = ParitySeq([1, 1, -1])
        ctx = TwistedContext(ps, [1, 1, -1])
        B = b_from_T(evaluation_action(make_vector_rep(ps), 0), ctx)
        St = reduce_rank(B, "star", a=1)
        assert St.kappa == 2
        rep = verify_b(St)
        assert rep.reflection is None and rep.scalar_ok
        K = St.provenance[3].vectors()
        shift = ps.rho(3) / 2
        for i in (1, 2):
            want = restrict_rf(rf_tilde_operator(B, i).shift(shift), K)
            assert rf_tilde_operator(St, i) == want

    @pytest.mark.parametrize("ps", list(itertools.product((1, -1), repeat=3)))
    def test_reduced_space_carries_the_grading(self, ps):
        # Every kappa = 3 vector module at z = 1/3, each eps, each mode: the
        # reduced family satisfies the relations on its graded subspace.  A
        # singular subspace with an odd vector labelled even fails them.
        T = evaluation_action(make_vector_rep(ParitySeq(ps)), Fraction(1, 3))
        for eps in itertools.product((1, -1), repeat=3):
            B = b_from_T(T, TwistedContext(T.ps, eps))
            for mode, a in (("over", None), ("under", None), ("star", 1), ("star", 2)):
                red = reduce_rank(B, mode, a)
                K = red.provenance[-1].vectors()
                for v, p in zip(K, red.space.parities):
                    assert {B.space.parity(c) for c, x in enumerate(v) if x} == {p}
                assert verify_b(red).ok, (eps, mode, a)

    def test_star_on_kappa_two_keeps_the_odd_vector(self):
        # The star reduction at a = 1 on kappa = 2 cuts nothing: the reduced
        # family is B itself, on its own graded space.
        ps = ParitySeq([1, -1])
        B = b_from_T(evaluation_action(make_vector_rep(ps), Fraction(1, 3)), TwistedContext(ps, [1, -1]))
        red = reduce_rank(B, "star", 1)
        assert red.space == B.space == SuperSpace([0, 1])
        assert red.b == B.b
        assert verify_b(red).ok

    def test_empty_subspace_raises(self, b_l12):
        # A family whose off-diagonal series has trivial kernel.
        ctx = b_l12.ctx
        sub = {key: RFMatrix([[RatFun.one()]]) for key in b_l12.b}
        Bb = BAction(ctx, SuperSpace([0]), family_form(sub))
        with pytest.raises(EmptySubspace):
            reduce_rank(Bb, "over")


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "tyang", "data", "scenarios")


def _shipped_b_families():
    """{name: inputs.b} of every shipped reduce and classify scenario."""
    out = {}
    for fname in sorted(os.listdir(SCENARIO_DIR)):
        with open(os.path.join(SCENARIO_DIR, fname)) as fh:
            scenario = json.load(fh)
        if scenario["pipeline"] in ("reduce", "classify"):
            out[scenario["name"]] = scenario["inputs"]["b"]
    return out


SHIPPED_B = _shipped_b_families()


@pytest.mark.parametrize("spec", list(SHIPPED_B.values()), ids=list(SHIPPED_B))
def test_kernels_of_shipped_families_are_the_dense_route(spec, monkeypatch):
    # Every constant kernel that the reductions and the highest space of a
    # shipped reduce or classify family read off poly_kernel is the one of
    # dense coefficient matrices and a Fraction nullspace.
    B = cli.build_baction(spec)[1]()
    calls = []
    monkeypatch.setattr(twisted, "poly_kernel", lambda rows, n: calls.append((rows, n)) or poly_kernel(rows, n))
    modes = [("over", None), ("under", None)] + [("star", a) for a in range(1, B.kappa)]
    for mode, a in modes:
        try:
            reduce_rank(B, mode, a)
        except EmptySubspace:
            pass
    find_highest_space(B)
    assert len(calls) == len(modes) + 1
    for rows, n in calls:
        assert poly_kernel(rows, n).vectors() == ref_poly_kernel(rows, n)


class TestBurnside:
    def test_restricted_lab_irreducible(self, b_l12):
        v = irreducible_burnside(b_l12)
        assert v.status == "irreducible" and v.closure_dim == 4

    def test_two_fold_restriction_dim_four(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        T = tensor_action(
            evaluation_action(make_Lab(1, 1, 2), 0),
            evaluation_action(make_Lab(1, 4, 1), 0),
        )
        B = b_from_T(T, ctx)
        v = irreducible_burnside(B)
        assert v.status == "irreducible" and v.closure_dim == 16

    def test_gcd_violation_reducible(self):
        # a2 = 1 - a1 forces a common factor between P(u) and P(-u-s1).
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        T = tensor_action(
            evaluation_action(make_Lab(1, 3, 2), 0),
            evaluation_action(make_Lab(1, -2, 4), 0),
        )
        B = b_from_T(T, ctx)
        v = irreducible_burnside(B)
        assert v.status == "reducible"
        assert 0 < len(v.invariant_subspace) < 4

    @pytest.mark.parametrize("zs, eps, status, closure", [
        ((0, 1), (1, -1), "reducible", 8),
        ((0, 1, 3), (1, -1), "reducible", 32),
        ((0, 2, 5), (1, 1), "irreducible", 64),
        ((0, 1, 3, 7), (1, -1), "reducible", 128),
    ], ids=["dim4", "dim8-reducible", "dim8-irreducible", "dim16"])
    def test_gamma_half_twists_of_vector_tensors(self, zs, eps, status, closure):
        # The gamma = 1/2 twists of tensors of gl(1|1) vector modules at
        # z = zs; at dim 16 the closure spans 128 of the 256 dimensions.  A
        # reducible verdict's witness is a proper subspace that every
        # coefficient maps into itself (support._coords_in_span, over Q).
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_vector_rep(ps), zs[0])
        for z in zs[1:]:
            T = tensor_action(T, evaluation_action(make_vector_rep(ps), z))
        B = b_from_T(T, TwistedContext(ps, list(eps), F(1, 2)))
        v = irreducible_burnside(B)
        assert (v.status, v.closure_dim) == (status, closure)
        if status == "reducible":
            form = B.cleared()
            gens = [C for key in sorted(form.blocks)
                    for C in series_expansion(form.blocks[key], form.den_coeffs, form.degree + 2)[1:]]
            span = v.invariant_subspace
            assert 0 < len(span) < B.dim
            assert _coords_in_span(span, [mat_vec(C, w) for C in gens for w in span]) is not None

    def test_direct_sum_of_characters_reducible(self):
        ctx = TwistedContext(ParitySeq([1, -1]), [1, 1])
        B1 = c_gamma(ctx, 1)
        B2 = c_gamma(ctx, 3)
        space = SuperSpace([0, 0])
        b = {}
        for key in B1.b:
            b[key] = RFMatrix(
                [[B1.b[key][0, 0], RatFun.zero()], [RatFun.zero(), B2.b[key][0, 0]]],
                space,
                space,
            )
        v = irreducible_burnside(BAction(ctx, space, family_form(b)))
        assert v.status == "reducible"


class TestWeightShift:
    def test_b_coefficients_shift_weights(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, -1])
        M = make_Lab(1, 1, 2)
        B = b_from_T(evaluation_action(M, 0), ctx)
        form = B.cleared()
        dec = weight_decompose(M)
        eps_v = lambda i: tuple(F(1 if k == i - 1 else 0) for k in range(2))
        for (i, j) in B.b:
            # the coefficients of u^-1, u^-2 and u^-3
            for C in series_expansion(form.blocks[(i, j)], form.den_coeffs, 3)[1:]:
                for wt, basis in dec.items():
                    target_wt = tuple(
                        w + e1 - e2 for w, e1, e2 in zip(wt, eps_v(i), eps_v(j))
                    )
                    target = dec.get(target_wt, [])
                    for v in basis:
                        img = mat_vec(C, v)
                        if any(img):
                            assert target
                            assert _coords_in_span(target, [img]) is not None


class TestIsomorphismTwists:
    def test_flip_s(self, b_l12):
        assert verify_b(flip_s(b_l12)).ok

    def test_flip_eps(self, b_l12):
        assert verify_b(flip_eps(b_l12)).ok

    def test_scaling_automorphism(self, b_l12):
        u = RatFun.x()
        h = (u + 5) / (u - 5)
        assert rf_equal(h * h.subs_neg(), RatFun.one())
        scaled = scale_baction(b_l12, h)
        rep = verify_b(scaled)
        assert rep.reflection is None and rep.scalar_ok

    def test_scaling_preserves_certificate(self, b_l12):
        u = RatFun.x()
        h = (u + 5) / (u - 5)
        mu0 = highest_bweight(b_l12, [1, 0])
        mu1 = highest_bweight(scale_baction(b_l12, h), [1, 0])
        c0 = classify_rank1(mu0)
        c1 = classify_rank1(mu1)
        assert (c0.P, c0.gamma, c0.status) == (c1.P, c1.gamma, c1.status)

    def test_permutation(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, -1])
        B = b_from_T(evaluation_action(make_Lab(1, 1, 2), 0), ctx)
        Bp = permute_baction(B, (2, 1))
        assert Bp.ps.s == (-1, 1)
        assert verify_b(Bp).ok


class TestSerialization:
    def test_roundtrip(self, b_l12):
        data = b_to_json(b_l12)
        back = b_from_json(data)
        assert back.ctx == b_l12.ctx
        assert back.b == b_l12.b
