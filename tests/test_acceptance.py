"""Acceptance gate: every criterion runs exactly, no tolerances anywhere.

Each test prints one pass line (visible with pytest -s); a failing assert is
the fail line.  All expected values are either frozen trivial facts, frozen
hand-derived oracles, or equalities between two independently computed
exact objects.
"""

import itertools
import json
from fractions import Fraction

import pytest

from tyang.cli import run_scenario
from tyang.daha import (
    DahaModule,
    DahaParams,
    char_module,
    principal_series,
    sf_presentation,
    verify_daha,
    center_check,
)
from tyang.drinfeld import (
    WellDefinednessFailure,
    appendix_identities,
    bchi_expansion_check,
    drinfeld_BC,
    functor_tensor_check,
)
from tyang.exactalg import Poly, RatFun, rf_equal
from tyang.glmn import ParitySeq, make_Lab, make_vector_rep
from tyang.twisted import (
    TwistedContext,
    b_from_T,
    b_tensor,
    c_gamma,
    classify_rank1,
    highest_bweight,
    irreducible_burnside,
    reduce_rank,
    unitarity_scalar,
    verify_b,
    verma_conditions,
)
from tyang.yangian import (
    evaluation_action,
    highest_lweight,
    inverse_series_action,
    lambda_prime_check,
    lambda_prime_formula,
    tensor_action,
    trivial_action,
    verify_rtt,
    verify_yang_baxter,
)

from support import (
    bweight_from_series,
    gl_tensor,
    lab_t_table,
    lab_tprime_table,
    restrict_rf,
    rf_tilde_operator,
    rows_match_table,
)


def F(a, b=1):
    return Fraction(a, b)


def all_parity_seqs(max_kappa, min_kappa=1):
    for k in range(min_kappa, max_kappa + 1):
        for signs in itertools.product([1, -1], repeat=k):
            yield ParitySeq(signs)


def _ok(line):
    print(f"[acceptance] {line}: PASS")


SCENARIOS = [
    "appendix-k2-l2.json",
    "daha-principal-l2.json",
    "drinfeld-char-21.json",
    "rank1-L12.json",
    "reduce-over-L12.json",
    "twisted-L12-cgamma.json",
    "twisted-negative-control.json",
    "yangian-L12-tensor.json",
]


def scenario_path(name):
    import os

    return os.path.join(
        os.path.dirname(__file__), "..", "src", "tyang", "data", "scenarios", name
    )


class TestCriterion1IdentitySuite:
    def test_yang_baxter_all_small_parities(self):
        for ps in all_parity_seqs(3):
            assert verify_yang_baxter(ps) is None, ps
        _ok("criterion 1a: braid identity for all parity sequences up to 3")

    def test_reflection_for_diagonal_twists(self):
        for ps in all_parity_seqs(3):
            T1 = trivial_action(ps)
            for eps in itertools.product([1, -1], repeat=ps.kappa):
                for gamma in (None, F(1), F(-2), F(1, 2)):
                    ctx = TwistedContext(ps, eps, gamma)
                    rep = verify_b(b_from_T(T1, ctx))
                    assert rep.reflection is None, (ps, eps, gamma)
                    assert rep.scalar_ok
                    if gamma is None:
                        assert rep.f == RatFun.one()
        _ok("criterion 1b: reflection equation for all diagonal twists, kappa <= 3")

    def test_rtt_on_evaluation_and_tensor_modules(self):
        for ps in all_parity_seqs(3):
            assert verify_rtt(evaluation_action(make_vector_rep(ps), 0)) is None
        assert verify_rtt(evaluation_action(make_Lab(1, 1, 2), 0)) is None
        two = tensor_action(
            evaluation_action(make_Lab(1, 1, 2), 0),
            evaluation_action(make_Lab(1, 3, 1), 0),
        )
        assert verify_rtt(two) is None
        ps3 = ParitySeq([1, 1, -1])
        nine = tensor_action(
            evaluation_action(make_vector_rep(ps3), 0),
            evaluation_action(make_vector_rep(ps3), 3),
        )
        assert verify_rtt(nine) is None
        three = tensor_action(two, evaluation_action(make_Lab(1, -1, 4), 2))
        assert verify_rtt(three) is None
        M4a = gl_tensor(make_Lab(1, 1, 2), make_Lab(1, 3, 1))
        M4b = gl_tensor(make_Lab(1, -1, 4), make_Lab(1, 2, 3))
        sixteen = tensor_action(
            evaluation_action(M4a, 0), evaluation_action(M4b, 5)
        )
        assert verify_rtt(sixteen) is None
        _ok("criterion 1c: exchange relation on evaluation and tensor modules to dim 16")

    def test_unitarity_and_reflection_for_embedded_actions(self):
        instances = []
        ps2 = ParitySeq([1, -1])
        for eps in ([1, 1], [1, -1]):
            instances.append(b_from_T(evaluation_action(make_Lab(1, 1, 2), 0), TwistedContext(ps2, eps)))
        ps3 = ParitySeq([1, 1, -1])
        instances.append(
            b_from_T(evaluation_action(make_vector_rep(ps3), 0), TwistedContext(ps3, [1, 1, -1]))
        )
        two = tensor_action(
            evaluation_action(make_Lab(1, 1, 2), 0),
            evaluation_action(make_Lab(1, 4, 1), 0),
        )
        instances.append(b_from_T(two, TwistedContext(ps2, [1, 1])))
        for B in instances:
            rep = verify_b(B)
            assert rep.reflection is None
            assert rep.scalar_ok and rep.f == RatFun.one()
        _ok("criterion 1d: unitarity and reflection for every embedded action")


class TestCriterion2ExplicitActionTable:
    def test_table_reproduced_entrywise(self):
        pairs = [(1, 2), (3, 1), (F(1, 2), F(3, 2)), (-2, 5), (0, 1)]
        for s1 in (1, -1):
            for a, b in pairs:
                T = evaluation_action(make_Lab(s1, a, b), 0)
                ok, detail = rows_match_table(T.t, lab_t_table(s1, a, b))
                assert ok, detail
                Tp = inverse_series_action(T)
                ok, detail = rows_match_table(Tp.t, lab_tprime_table(s1, a, b))
                assert ok, detail
        _ok("criterion 2: two-dimensional action table, 5 parameter pairs, both signs")


class TestCriterion3InverseWeightFormula:
    def test_rank_one_and_small_modules(self):
        ps1 = ParitySeq([1])
        assert lambda_prime_check(evaluation_action(make_vector_rep(ps1), 0), [1]) is None
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        assert lambda_prime_check(T, [1, 0]) is None
        _ok("criterion 3a: inverse-weight formula at rank one and on the 2-dim module")

    def test_two_fold_tensors_every_parity_sequence(self):
        for ps in all_parity_seqs(3):
            T = tensor_action(
                evaluation_action(make_vector_rep(ps), 0),
                evaluation_action(make_vector_rep(ps), 3),
            )
            xi = [F(0)] * T.dim
            xi[0] = F(1)
            assert lambda_prime_check(T, xi) is None, ps
        _ok("criterion 3b: inverse-weight formula on 2-fold tensors for every parity sequence")

    def test_three_fold_tensor(self):
        ps = ParitySeq([1, 1, -1])
        T = tensor_action(
            tensor_action(
                evaluation_action(make_vector_rep(ps), 0),
                evaluation_action(make_vector_rep(ps), 3),
            ),
            evaluation_action(make_vector_rep(ps), -2),
        )
        xi = [F(0)] * T.dim
        xi[0] = F(1)
        assert lambda_prime_check(T, xi) is None
        _ok("criterion 3c: inverse-weight formula on a 3-fold tensor at kappa 3")


class TestCriterion4WeightSymmetry:
    def test_five_parameter_sets(self):
        ps = ParitySeq([1, -1])
        params = [
            (1, 2, F(1)),
            (3, 1, F(2)),
            (F(1, 2), F(3, 2), F(-1)),
            (-2, 5, F(1, 3)),
            (0, 1, F(4)),
        ]
        for eps in ([1, 1], [1, -1]):
            ctx = TwistedContext(ps, eps)
            for a, b, gamma in params:
                T = evaluation_action(make_Lab(1, a, b), 0)
                BT = b_tensor(T, c_gamma(ctx, gamma))
                mu = highest_bweight(BT, [1, 0])
                assert verma_conditions(mu, unitarity_scalar(BT)[0]) is None, (eps, a, b, gamma)
        _ok("criterion 4a: weight symmetry constraints on five tensor families")

    def test_negative_control_fails_at_predicted_index(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        B = b_from_T(evaluation_action(make_Lab(1, 1, 2), 0), ctx)
        mu = highest_bweight(B, [1, 0])
        u = RatFun.x()
        bad = bweight_from_series((mu.mus[0], mu.mus[1] * (u + 1) / (u + 2)), mu.ctx)
        assert verma_conditions(bad, unitarity_scalar(B)[0]) == 2
        _ok("criterion 4b: corrupted weight detected at the last index")


class TestCriterion5RankOneClassification:
    def test_certificate_and_exact_identity(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        B = b_from_T(evaluation_action(make_Lab(1, 1, 2), 0), ctx)
        mu = highest_bweight(B, [1, 0])
        cert = classify_rank1(mu)
        assert cert.status == "verified"
        P = cert.P
        assert P == Poly([3, 4, 1])
        ratio = mu.tilde(1) / mu.tilde(2)
        assert rf_equal(ratio, RatFun(P, P.compose_linear(-1, -1)))
        u = RatFun.x()
        assert rf_equal(ratio, (u + 1) * (u + 3) / (u * (u - 2)))
        _ok("criterion 5a: rank-one certificate with the exact polynomial identity")

    def test_dimension_powers_via_closure(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        one = b_from_T(evaluation_action(make_Lab(1, 1, 2), 0), ctx)
        v1 = irreducible_burnside(one)
        assert v1.status == "irreducible" and one.dim == 2
        two = b_from_T(
            tensor_action(
                evaluation_action(make_Lab(1, 1, 2), 0),
                evaluation_action(make_Lab(1, 4, 1), 0),
            ),
            ctx,
        )
        v2 = irreducible_burnside(two)
        assert v2.status == "irreducible" and two.dim == 4
        _ok("criterion 5b: dimension 2^k via the closure test at k = 1, 2")

    def test_shared_factor_parameters_reducible(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        # a2 = 1 - a1 creates a common factor between P(u) and P(-u-1).
        B = b_from_T(
            tensor_action(
                evaluation_action(make_Lab(1, 3, 2), 0),
                evaluation_action(make_Lab(1, -2, 4), 0),
            ),
            ctx,
        )
        assert irreducible_burnside(B).status == "reducible"
        _ok("criterion 5c: degenerate parameter choice detected reducible")


class TestCriterion6TensorFactorization:
    def test_five_character_twists(self):
        ps = ParitySeq([1, -1])
        u = RatFun.x()
        cases = [
            ([1, 1], 1, 2, F(1)),
            ([1, 1], 3, 1, F(2)),
            ([1, -1], 1, 2, F(1)),
            ([1, -1], F(1, 2), F(3, 2), F(-2)),
            ([1, -1], -2, 5, F(1, 3)),
        ]
        for eps, a, b, gamma in cases:
            ctx = TwistedContext(ps, eps)
            T = evaluation_action(make_Lab(1, a, b), 0)
            lams = highest_lweight(T, [1, 0])
            BT = b_tensor(T, c_gamma(ctx, gamma))
            mu = highest_bweight(BT, [1, 0])
            muW = highest_bweight(c_gamma(ctx, gamma), [1])
            for i in (1, 2):
                want = lams[i - 1] * lambda_prime_formula(lams, ps, i).subs_neg() * muW.tilde(i)
                assert rf_equal(mu.tilde(i), want), (eps, a, b, gamma, i)
        _ok("criterion 6a: diagonal-combination factorization on five character twists")

    def test_restricted_module_factor(self):
        ps = ParitySeq([1, -1])
        ctx = TwistedContext(ps, [1, 1])
        T1 = evaluation_action(make_Lab(1, 1, 2), 0)
        W = b_from_T(evaluation_action(make_Lab(1, 4, 1), 0), ctx)
        BT = b_tensor(T1, W)
        lams = highest_lweight(T1, [1, 0])
        muW = highest_bweight(W, [1, 0])
        mu = highest_bweight(BT, [1, 0, 0, 0])
        for i in (1, 2):
            want = lams[i - 1] * lambda_prime_formula(lams, ps, i).subs_neg() * muW.tilde(i)
            assert rf_equal(mu.tilde(i), want)
        _ok("criterion 6b: factorization against a restricted tensor factor")


class TestCriterion7Reductions:
    def test_over_and_under_at_rank_one(self):
        ps = ParitySeq([1, -1])
        for eps in ([1, 1], [1, -1]):
            ctx = TwistedContext(ps, eps)
            B = b_tensor(
                evaluation_action(make_Lab(1, 1, 2), 0), c_gamma(ctx, F(1))
            )
            over = reduce_rank(B, "over")
            rep = verify_b(over)
            assert rep.reflection is None and rep.scalar_ok
            under = reduce_rank(B, "under")
            rep = verify_b(under)
            assert rep.reflection is None and rep.scalar_ok
            K = under.provenance[2].vectors()
            half = Fraction(ps.sign(2), 2)
            assert rf_tilde_operator(under, 1) == restrict_rf(rf_tilde_operator(B, 1).shift(half), K)
        _ok("criterion 7a: first and last index reductions with the shifted diagonal")

    def test_star_reduction_with_exact_shift(self):
        ps = ParitySeq([1, 1, -1])
        ctx = TwistedContext(ps, [1, 1, -1])
        B = b_from_T(evaluation_action(make_vector_rep(ps), 0), ctx)
        St = reduce_rank(B, "star", a=1)
        rep = verify_b(St)
        assert rep.reflection is None and rep.scalar_ok
        K = St.provenance[3].vectors()
        shift = ps.rho(3) / 2
        for i in (1, 2):
            assert rf_tilde_operator(St, i) == restrict_rf(rf_tilde_operator(B, i).shift(shift), K)
        _ok("criterion 7b: neighbouring-pair reduction with the exact spectral shift")


class TestCriterion8Hecke:
    def test_characters_and_principal_series(self):
        for l in (1, 2, 3):
            p = DahaParams(l, 1, 2)
            for ss, sz in itertools.product([1, -1], repeat=2):
                assert verify_daha(char_module(p, ss, sz)) is None
        lam3 = [F(3), F(1), F(-2)]
        for l in (1, 2, 3):
            p = DahaParams(l, 1, 2)
            M = principal_series(p, lam3[:l])
            assert verify_daha(M) is None
        _ok("criterion 8a: all shipped Hecke modules satisfy the relations, l <= 3")

    def test_center_and_transformed_presentation(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        assert center_check(M, {(2, 0): 1, (0, 2): 1}) is None
        assert center_check(M, {(1, 0): 1}) is not None
        _ys, fail = sf_presentation(M)
        assert fail is None
        _ok("criterion 8b: center membership and the transformed presentation at l = 2")


class TestCriterion9Drinfeld:
    def test_functor_outputs_satisfy_relations(self):
        cases = [
            (ParitySeq([1, -1]), [1, -1], char_module(DahaParams(1, 1, 2), 1, 1)),
            (
                ParitySeq([1, -1]),
                [1, -1],
                principal_series(DahaParams(2, 1, 2), [F(3), F(1)]),
            ),
            (
                ParitySeq([1, 1, -1]),
                [1, 1, -1],
                char_module(DahaParams(1, 1, 2), 1, 1),
            ),
        ]
        for ps, eps, M in cases:
            D = drinfeld_BC(M, ps, eps, epsilon=1)
            assert D.action is not None
            rep = verify_b(D.action)
            assert rep.reflection is None and rep.scalar_ok
        _ok("criterion 9a: functor outputs satisfy the relations at (2,1), (2,2), (3,1)")

    def test_both_negative_controls(self):
        ps = ParitySeq([1, -1])
        M = principal_series(DahaParams(2, 1, 2), [F(3), F(1)])
        with pytest.raises(WellDefinednessFailure):
            drinfeld_BC(M, ps, [1, 1], epsilon=1, chi=F(-1))
        with pytest.raises(WellDefinednessFailure):
            drinfeld_BC(M, ps, [1, -1], epsilon=1, gamma=F(7))
        _ok("criterion 9b: each constraint violation produces a well-definedness failure")

    def test_expansion_to_order_two(self):
        ps = ParitySeq([1, -1])
        M = principal_series(DahaParams(2, 1, 2), [F(3), F(1)])
        assert bchi_expansion_check(M, ps, [1, -1]) is None
        assert bchi_expansion_check(M, ps, [1, 1]) is None
        _ok("criterion 9c: series expansion matches the closed forms to order 2")

    def test_appendix_identities_sweep(self):
        # Every (kappa, l) combination with kappa <= 4 and l <= 3 is covered
        # by at least one sign pattern, plus full sign sweeps at kappa = 2
        # and 3 for l <= 2.
        for signs in itertools.product([1, -1], repeat=2):
            ps = ParitySeq(signs)
            for eps in itertools.product([1, -1], repeat=2):
                for l in (1, 2):
                    assert appendix_identities(ps, list(eps), l) is None
        assert appendix_identities(ParitySeq([1, -1]), [1, -1], 3) is None
        for signs, eps in [((1, 1, -1), (1, -1, 1)), ((1, -1, 1), (1, 1, -1))]:
            for l in (1, 2):
                assert appendix_identities(ParitySeq(signs), list(eps), l) is None
        assert appendix_identities(ParitySeq([1, 1, -1]), [1, 1, -1], 3) is None
        for signs, eps in [
            ((1, 1, -1, -1), (1, -1, 1, -1)),
            ((1, -1, 1, -1), (1, 1, -1, -1)),
        ]:
            for l in (1, 2):
                assert appendix_identities(ParitySeq(signs), list(eps), l) is None
        assert appendix_identities(ParitySeq([1, 1, -1, -1]), [1, -1, 1, -1], 3) is None
        for signs in itertools.product([1, -1], repeat=3):
            ps = ParitySeq(signs)
            for eps in itertools.product([1, -1], repeat=3):
                for l in (1, 2):
                    assert appendix_identities(ps, list(eps), l) is None, (signs, eps, l)
        _ok("criterion 9d: operator identities for l <= 3, kappa <= 4")

    def test_functor_tensor_compatibility(self):
        ps = ParitySeq([1, -1])
        m1 = DahaModule(DahaParams(1, 1, kind="A"), 1, [], None, [[[F(5)]]])
        m2 = char_module(DahaParams(1, 1, 2), 1, 1)
        assert functor_tensor_check(m1, m2, ps, [1, -1], epsilon=1) is None
        _ok("criterion 9e: induced product agrees with the tensor of functor outputs")


class TestCriterion10Determinism:
    def test_scenario_suite_byte_identical(self):
        first = {}
        for name in SCENARIOS:
            report, _code = run_scenario(scenario_path(name))
            first[name] = json.dumps(report, indent=2, sort_keys=True).encode()
        for name in SCENARIOS:
            report, _code = run_scenario(scenario_path(name))
            again = json.dumps(report, indent=2, sort_keys=True).encode()
            assert again == first[name], name
        _ok("criterion 10: scenario suite reports are byte-identical across runs")
