import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import q_rows_by_terms, read_blocks, rf_cleared_form, rf_quotient_family, trimmed

import tyang.drinfeld as drinfeld
from tyang import exactalg
from tyang._kernel import mat_mul, poly_mul
from tyang.daha import DahaModule, DahaParams, char_module, principal_series, restrict_to_type_a
from tyang.exactalg import Poly, RatFun
from tyang.glmn import ParitySeq, make_vector_rep
from tyang.drinfeld import (
    ParameterConstraint,
    WellDefinednessFailure,
    appendix_identities,
    bchi_expansion_check,
    drinfeld_A,
    drinfeld_BC,
    functor_tensor_check,
    q_operator,
    tk_sk_identity,
)
from tyang.superlinalg import (
    RFMatrix,
    SuperSpace,
    _dense,
    kron_ops,
    mat_identity,
    rfmat_inverse,
    sparse_add,
    tensor_space,
)
from tyang.twisted import BAction, TwistedContext, b_from_T, find_highest_space, highest_bweight, verify_b
from tyang.yangian import TAction, evaluation_action, verify_rtt


def F(a, b=1):
    return Fraction(a, b)


def type_a_letter(theta1, yval):
    return DahaModule(DahaParams(1, theta1, kind="A"), 1, [], None, [[[F(yval)]]])


class TestQOperator:
    def test_square_is_superdimension_multiple(self):
        for signs in [(1, -1), (1, 1), (1, 1, -1), (-1, 1)]:
            ps = ParitySeq(signs)
            Q = q_operator(ps, 1, 1)
            twoj = ps.m - ps.n
            assert mat_mul(Q, Q) == [[twoj * x for x in row] for row in Q]

    def test_balanced_case_squares_to_zero(self):
        ps = ParitySeq([1, -1])
        Q = q_operator(ps, 1, 1)
        zero = [[F(0)] * 4 for _ in range(4)]
        assert mat_mul(Q, Q) == zero


class TestFactorInverses:
    def test_tk_sk_on_characters(self):
        ps = ParitySeq([1, -1])
        M = char_module(DahaParams(2, 1, 2), 1, 1)
        assert tk_sk_identity(M, ps) is None

    def test_tk_sk_on_principal_series(self):
        ps = ParitySeq([1, 1, -1])
        M = principal_series(DahaParams(2, 1, 2), [F(3), F(1)])
        assert tk_sk_identity(M, ps) is None

    @pytest.mark.parametrize("signs", [(1, -1), (1, 1, -1)])
    def test_negated_coupling_entry_fails(self, monkeypatch, signs):
        orig = drinfeld._q_rows
        monkeypatch.setattr(drinfeld, "_q_rows", lambda *a: _negate_first_entry(orig(*a)))
        M = char_module(DahaParams(2, 1, 2), 1, 1)
        assert tk_sk_identity(M, ParitySeq(signs)) == 1

    def test_tk_sk_on_scaled_principal_l2(self):
        # lambda = (1/2, 2): the resolvents carry power-of-2 denominators, so
        # both steps of each k are scaled before their product is compared.
        M = principal_series(DahaParams(2, 1, 3), [F(1, 2), F(2)])
        assert tk_sk_identity(M, ParitySeq([1, -1])) is None

    @pytest.mark.parametrize("bad_k", [1, 2])
    def test_shifted_s_step_fails(self, monkeypatch, bad_k):
        orig = drinfeld._cleared_factor

        def factor(M, Q, k, chi, shift, sign=1, neg=False):
            if sign == -1 and k == bad_k:
                shift += 1
            return orig(M, Q, k, chi, shift, sign, neg)

        monkeypatch.setattr(drinfeld, "_cleared_factor", factor)
        M = principal_series(DahaParams(2, 1, 3), [F(1, 2), F(2)])
        assert tk_sk_identity(M, ParitySeq([1, -1])) == bad_k


class TestTypeA:
    def test_one_letter_is_shifted_evaluation(self):
        ps = ParitySeq([1, -1])
        M = type_a_letter(2, 3)
        D = drinfeld_A(M, ps, epsilon=1)
        # chi = 1/theta1 and the pole sits at chi*y - c.
        ref = evaluation_action(make_vector_rep(ps), F(3, 2))
        for key in D.action.t:
            assert D.action.t[key] == ref.t[key]

    def test_two_letter_quotient_rtt(self):
        ps = ParitySeq([1, -1])
        M = restrict_to_type_a(principal_series(DahaParams(2, 1, 2), [F(3), F(1)]))
        D = drinfeld_A(M, ps, epsilon=1)
        assert D.dim == 16
        assert verify_rtt(D.action) is None

    def test_projection_section_identity(self):
        ps = ParitySeq([1, -1])
        M = restrict_to_type_a(principal_series(DahaParams(2, 1, 2), [F(3), F(1)]))
        D = drinfeld_A(M, ps, epsilon=1)
        assert mat_mul(D.projection, D.section) == mat_identity(D.dim)

    def test_wrong_chi_not_well_defined(self):
        ps = ParitySeq([1, -1])
        M = restrict_to_type_a(principal_series(DahaParams(2, 1, 2), [F(3), F(1)]))
        with pytest.raises(WellDefinednessFailure):
            drinfeld_A(M, ps, epsilon=1, chi=F(-1))


class TestTypeBC:
    def test_one_letter_output(self):
        ps = ParitySeq([1, -1])
        M = char_module(DahaParams(1, 1, 2), 1, 1)
        D = drinfeld_BC(M, ps, [1, -1], epsilon=1)
        assert D.dim >= 1
        rep = verify_b(D.action)
        assert rep.reflection is None and rep.scalar_ok
        K = find_highest_space(D.action)
        assert K
        highest_bweight(D.action, K[0])

    def test_two_letter_principal_series(self):
        ps = ParitySeq([1, -1])
        M = principal_series(DahaParams(2, 1, 2), [F(3), F(1)])
        D = drinfeld_BC(M, ps, [1, -1], epsilon=1)
        assert D.dim == 4
        rep = verify_b(D.action)
        assert rep.ok and rep.f == RatFun.one()

    def test_kappa_three(self):
        ps = ParitySeq([1, 1, -1])
        M = char_module(DahaParams(1, 1, 2), 1, 1)
        D = drinfeld_BC(M, ps, [1, 1, -1], epsilon=1)
        rep = verify_b(D.action)
        assert rep.reflection is None and rep.scalar_ok
        # gamma = (theta2/theta1 - varpi_1)/2 = 1/2 shows up in the scalar.
        u = RatFun.x()
        assert rep.f == 1 - F(1, 4) / (u * u)

    def test_wrong_chi_detected(self):
        ps = ParitySeq([1, -1])
        M = principal_series(DahaParams(2, 1, 2), [F(3), F(1)])
        with pytest.raises(WellDefinednessFailure):
            drinfeld_BC(M, ps, [1, 1], epsilon=1, chi=F(-1))

    def test_wrong_gamma_detected(self):
        ps = ParitySeq([1, -1])
        M = principal_series(DahaParams(2, 1, 2), [F(3), F(1)])
        with pytest.raises(WellDefinednessFailure):
            drinfeld_BC(M, ps, [1, -1], epsilon=1, gamma=F(7))

    def test_needs_flip_generator(self):
        ps = ParitySeq([1, -1])
        with pytest.raises(ParameterConstraint):
            drinfeld_BC(type_a_letter(1, 2), ps, [1, 1])


class TestExpansion:
    def test_orders_up_to_two_mixed_eps(self):
        ps = ParitySeq([1, -1])
        M = principal_series(DahaParams(2, 1, 2), [F(3), F(1)])
        assert bchi_expansion_check(M, ps, [1, -1]) is None

    def test_orders_up_to_two_equal_eps(self):
        ps = ParitySeq([1, -1])
        M = principal_series(DahaParams(2, 1, 2), [F(3), F(1)])
        assert bchi_expansion_check(M, ps, [1, 1]) is None

    def test_character_module(self):
        ps = ParitySeq([1, -1])
        M = char_module(DahaParams(2, 1, 2), 1, 1)
        assert bchi_expansion_check(M, ps, [1, -1]) is None


class TestExpansionNegativeControls:
    """Faults in the series product must show in the expansion orders."""

    CASES = [
        (ParitySeq([1, -1]), [1, -1], ("principal", 2)),
        (ParitySeq([1, -1]), [1, 1], ("char", 2)),
        (ParitySeq([1, 1, -1]), [1, -1, 1], ("char", 1)),
    ]

    @staticmethod
    def _module(kind, l):
        params = DahaParams(l, 1, 2)
        return char_module(params, 1, 1) if kind == "char" else principal_series(params, [F(3), F(1)][:l])

    @pytest.mark.parametrize("ps, eps, module", CASES)
    def test_wrong_gamma_fails_order_one_on_the_diagonal(self, monkeypatch, ps, eps, module):
        M = self._module(*module)
        assert bchi_expansion_check(M, ps, eps) is None
        orig = drinfeld.reflection_product

        def shifted_gamma(M, ps, eps, epsilon=1, chi=None, gamma=None):
            gamma = drinfeld._bc_parameters(M, ps, eps, epsilon, chi, gamma)[1] + 1
            return orig(M, ps, eps, epsilon, chi, gamma)

        monkeypatch.setattr(drinfeld, "reflection_product", shifted_gamma)
        assert bchi_expansion_check(M, ps, eps) == (1, (1, 1))

    @pytest.mark.parametrize("ps, eps, module", CASES)
    def test_negated_coupling_entry_fails_order_one(self, monkeypatch, ps, eps, module):
        M = self._module(*module)
        orig = drinfeld._q_rows
        monkeypatch.setattr(drinfeld, "_q_rows", lambda *a: _negate_first_entry(orig(*a)))
        res = bchi_expansion_check(M, ps, eps)
        assert res is not None and res[0] == 1

    @pytest.mark.parametrize("ps, eps, module", [case for case in CASES if len(set(case[1])) == 2])
    def test_perturbed_transformed_family_fails_order_two(self, monkeypatch, ps, eps, module):
        # Order 2 alone reads the transformed family ybar_k; ybar_1 + 1 in
        # place of ybar_1 moves that coefficient off the quotient subspace
        # at the first pair (i, j) with eps_i != eps_j.
        M = self._module(*module)
        orig = drinfeld.sf_presentation

        def perturbed(M):
            ys, fail = orig(M)
            return [sparse_add(ys[0], [{r: 1} for r in range(M.dim)])] + ys[1:], fail

        monkeypatch.setattr(drinfeld, "sf_presentation", perturbed)
        i, j = next((i, j) for i in range(1, ps.kappa + 1) for j in range(1, ps.kappa + 1) if eps[i - 1] != eps[j - 1])
        assert bchi_expansion_check(M, ps, eps) == (2, (i, j))


class TestCouplingPattern:
    """The tagged pattern of Q^(k), read with the four weightings that
    appendix_identities uses, is the operator assembled term by term."""

    def test_weightings_match_the_term_by_term_assembly(self):
        for kk in (1, 2, 3):
            for signs in itertools.product((1, -1), repeat=kk):
                ps = ParitySeq(signs)
                for l in (1, 2, 3):
                    for k in range(1, l + 1):
                        pattern = drinfeld._q_pattern(ps, k, l)
                        for eps in itertools.product((1, -1), repeat=kk):
                            weights = [
                                None,
                                lambda i, j: int(eps[i - 1] == eps[j - 1]),
                                lambda i, j: int(eps[i - 1] != eps[j - 1]),
                                lambda i, j: eps[i - 1] + eps[j - 1],
                            ]
                            for w in weights:
                                want = q_rows_by_terms(ps, k, l, w)
                                assert drinfeld._q_rows(pattern, w) == want, (signs, eps, l, k)

    def test_q_operator_reads_the_pattern(self):
        ps = ParitySeq([1, -1, 1])
        for k in (1, 2):
            assert q_operator(ps, k, 2) == _dense(q_rows_by_terms(ps, k, 2), 27)


class TestAppendixIdentities:
    def test_small_sweep(self):
        for signs, eps in [
            ((1, -1), (1, -1)),
            ((1, -1), (1, 1)),
            ((1, 1), (1, -1)),
            ((1, 1, -1), (1, -1, 1)),
        ]:
            ps = ParitySeq(signs)
            for l in (1, 2):
                assert appendix_identities(ps, list(eps), l) is None, (signs, eps, l)

    def test_vacuous_mixed_part(self):
        # Equal eps on both indices leaves the mixed component empty.
        ps = ParitySeq([1, -1])
        eps = (1, 1)
        Qp = q_operator(ps, 1, 1, lambda i, j: eps[i - 1] != eps[j - 1])
        assert all(not x for row in Qp for x in row)

    def test_three_letters(self):
        ps = ParitySeq([1, -1])
        assert appendix_identities(ps, [1, -1], 3) is None


def _negate_first_entry(A):
    """A copy of a dense or row-sparse matrix, or of a sign vector, with its
    first nonzero entry negated."""
    if isinstance(A[0], int):
        A = list(A)
        A[next(c for c, x in enumerate(A) if x)] *= -1
        return A
    if isinstance(A[0], dict):
        A = [dict(row) for row in A]
        r, c = next((r, min(row)) for r, row in enumerate(A) if row)
    else:
        A = [list(row) for row in A]
        r, c = next((r, c) for r, row in enumerate(A) for c, x in enumerate(row) if x)
    A[r][c] = -A[r][c]
    return A


class TestAppendixNegativeControls:
    """Faults injected into the operators appendix_identities builds on must
    be reported, under the id of the first identity they break."""

    CASES = [((1, -1), (1, -1)), ((1, 1, -1), (1, -1, 1))]

    @pytest.mark.parametrize("signs, eps", CASES)
    @pytest.mark.parametrize(
        "name, want",
        [
            ("_q_rows", "split Q^(1)"),
            ("flip_at", "ordered double sum at (i,j)=(1,2)"),
            ("_g_at_slot", "sandwiched double sum at (i,j)=(1,2)"),
        ],
    )
    def test_sign_flipped_entry(self, monkeypatch, signs, eps, name, want):
        orig = getattr(drinfeld, name)
        monkeypatch.setattr(drinfeld, name, lambda *a: _negate_first_entry(orig(*a)))
        assert appendix_identities(ParitySeq(signs), list(eps), 2) == want

    @pytest.mark.parametrize("signs, eps", CASES)
    def test_sign_flipped_diagonal_sum_reference(self, monkeypatch, signs, eps):
        # Only the eps_i + eps_j weighting of the pattern (weight +-2 on
        # (1, 1)) is hit.
        orig = drinfeld._q_rows

        def q_rows(pattern, weight=None):
            Q = orig(pattern, weight)
            return _negate_first_entry(Q) if weight is not None and abs(weight(1, 1)) == 2 else Q

        monkeypatch.setattr(drinfeld, "_q_rows", q_rows)
        assert appendix_identities(ParitySeq(signs), list(eps), 2) == "diagonal sum at k=1"

    @pytest.mark.parametrize("signs, eps", CASES)
    def test_shifted_varpi(self, monkeypatch, signs, eps):
        orig = TwistedContext.varpi
        monkeypatch.setattr(TwistedContext, "varpi", lambda ctx, i: orig(ctx, i) + 1)
        assert appendix_identities(ParitySeq(signs), list(eps), 2) == "twisted commutator at k=1"


class TestFunctorTensor:
    def test_dimensions_weights_intertwiner(self):
        ps = ParitySeq([1, -1])
        m1 = type_a_letter(1, 5)
        m2 = char_module(DahaParams(1, 1, 2), 1, 1)
        assert functor_tensor_check(m1, m2, ps, [1, -1], epsilon=1) is None

    def test_second_instance(self):
        ps = ParitySeq([1, -1])
        m1 = type_a_letter(1, F(-1, 2))
        m2 = char_module(DahaParams(1, 1, 2), 1, -1)
        assert functor_tensor_check(m1, m2, ps, [1, -1], epsilon=1) is None

    def test_zero_output_agrees(self):
        # With a constant twist the negative flip character collapses both
        # sides to the zero module.
        ps = ParitySeq([1, -1])
        m1 = type_a_letter(1, F(-1, 2))
        m2 = char_module(DahaParams(1, 1, 2), 1, -1)
        from tyang.drinfeld import drinfeld_BC

        assert drinfeld_BC(m2, ps, [1, 1]).action is None
        assert functor_tensor_check(m1, m2, ps, [1, 1], epsilon=1) is None

    def test_intertwiner_conjugate_and_unconstrained(self):
        # rhs = P^-1 lhs P is intertwined by an invertible X (_intertwiner
        # returns only full-rank ones); with every b_ij zero there is no
        # constraint row, and no X is returned.
        ps = ParitySeq([1, 1, -1])
        lhs = b_from_T(evaluation_action(make_vector_rep(ps), 0), TwistedContext(ps, [1, -1, 1]))
        P = RFMatrix.from_const([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        Pinv = rfmat_inverse(P)
        rhs = BAction(lhs.ctx, lhs.space, {key: Pinv @ m @ P for key, m in lhs.b.items()})
        X = RFMatrix.from_const(drinfeld._intertwiner(lhs, rhs))
        assert all(lhs.b[key] @ X == X @ rhs.b[key] for key in lhs.b)
        zero = BAction(lhs.ctx, lhs.space, {key: m.scale(0) for key, m in lhs.b.items()})
        assert drinfeld._intertwiner(zero, zero) is None


class TestSerialization:
    def test_quotient_module_serializes(self):
        import json

        ps = ParitySeq([1, -1])
        M = char_module(DahaParams(1, 1, 2), 1, 1)
        D = drinfeld_BC(M, ps, [1, -1], epsilon=1)
        from tyang.drinfeld import drinfeld_to_json

        data = drinfeld_to_json(D)
        assert data["action"]["kind"] == "twisted"
        json.dumps(data)  # stays JSON-serializable
        from tyang.superlinalg import mat_identity

        assert mat_mul(D.projection, D.section) == mat_identity(D.dim)


class TestSimplePreservation:
    def test_irreducible_input_gives_zero_or_irreducible(self):
        # Characters are one-dimensional, hence irreducible; their functor
        # images must be zero or irreducible.
        from tyang.twisted import irreducible_burnside

        cases = [
            (ParitySeq([1, -1]), [1, -1], 1, 1),
            (ParitySeq([1, -1]), [1, -1], 1, -1),
            (ParitySeq([1, -1]), [1, 1], -1, 1),
            (ParitySeq([1, 1, -1]), [1, 1, -1], 1, 1),
        ]
        for ps, eps, ss, sz in cases:
            M = char_module(DahaParams(1, 1, 2), ss, sz)
            D = drinfeld_BC(M, ps, eps, epsilon=1)
            if D.action is not None:
                assert irreducible_burnside(D.action).status == "irreducible", (
                    ps,
                    eps,
                    ss,
                    sz,
                )


def _reference_factor(M, ps, k, l, chi, shift, sign=1):
    """1 + sign * ((u + shift) 1 - chi y_k)^{-1} x Q^(k) as a dense RFMatrix,
    built through rfmat_inverse and kron_ops: the factor the series product
    was assembled from before it was cleared."""
    n = M.dim
    y = _dense(M.y[k - 1], n)
    lin = [
        [RatFun(Poly([shift - chi * y[r][c], 1]) if r == c else Poly([-chi * y[r][c]])) for c in range(n)]
        for r in range(n)
    ]
    res = rfmat_inverse(RFMatrix(lin))
    spaces = [SuperSpace([0] * n), tensor_space([ps.space()] * (l + 1))]
    grid = RFMatrix.from_const(kron_ops([(res.entries, 0), (q_operator(ps, k, l), 0)], spaces)).entries
    ents = [[x if sign == 1 else -x for x in row] for row in grid]
    for r, row in enumerate(ents):
        row[r] = row[r] + RatFun.one()
    return RFMatrix(ents)


def _reference_raw_grids(M, ps, eps, epsilon=1, chi=None, gamma=None):
    """The reflection-twisted series grids as a product of dense RFMatrix
    factors, T_1 ... T_l (1 x (G + gamma/u)) S_l(-u) ... S_1(-u)."""
    th1, th2 = M.params.theta1, M.params.theta2
    chi = Fraction(chi) if chi is not None else Fraction(epsilon) / th1
    if gamma is None:
        gamma = (th2 / th1 - TwistedContext(ps, eps).varpi(1)) / 2
    gamma = Fraction(gamma)
    l, jay = M.params.l, ps.jay
    carrier = tensor_space([SuperSpace([0] * M.dim)] + [ps.space()] * l)
    F = _reference_factor(M, ps, 1, l, chi, -jay)
    for k in range(2, l + 1):
        F = F @ _reference_factor(M, ps, k, l, chi, -jay)
    u = Poly([0, 1])
    G = [
        [RatFun(Poly([gamma, Fraction(e)]), u) if r == c else RatFun.zero() for c in range(ps.kappa)]
        for r, e in enumerate(eps)
    ]
    F = F @ RFMatrix.from_const(kron_ops([(None, 0), (G, 0)], [carrier, ps.space()]))
    for k in range(l, 0, -1):
        F = F @ _reference_factor(M, ps, k, l, chi, jay, sign=-1).subs_neg()
    return read_blocks(F, ps, carrier)


def _reduce(rows, den):
    """The row-sparse cleared matrix rows / den, over integer coefficient
    tuples, as dense reduced RatFuns."""
    den = Poly(den)
    out = [[RatFun.zero()] * len(rows) for _ in rows]
    for r, row in enumerate(rows):
        for c, p in row.items():
            out[r][c] = RatFun(Poly(p), den)
    return out


class TestClearedProduct:
    """The cleared series product N / den equals the product of the dense
    RFMatrix factors, entry for entry after reduction."""

    @pytest.mark.parametrize(
        "module, signs, eps, gamma",
        [
            (("char", 2), (1, -1), (1, -1), None),
            (("char", 3), (1, -1), (-1, -1), F(1, 3)),
            (("char", 2), (1, -1), (1, 1), F(0)),
            (("principal", 1), (1, -1), (1, -1), None),
            (("principal", 1), (-1, 1), (-1, 1), F(-2)),
            (("principal", 2), (1, -1), (1, -1), None),
            (("char", 1), (1, 1, -1), (1, -1, 1), None),
            (("char", 2), (1, -1, 1), (-1, 1, 1), F(5, 2)),
        ],
        ids=["char-l2", "char-l3-gamma", "char-l2-gamma0", "principal-l1", "principal-l1-gamma",
             "principal-l2", "kappa3-char-l1", "kappa3-char-l2-gamma"],
    )
    def test_matches_rfmatrix_factor_product(self, module, signs, eps, gamma):
        kind, l = module
        params = DahaParams(l, 3, 4)
        if kind == "char":
            M = char_module(params, -1, 1)
        else:
            M = principal_series(params, [F(2), F(-1)][:l])
        ps = ParitySeq(signs)
        chi = F(1, 3)
        product = drinfeld.reflection_product(M, ps, list(eps), 1, chi, gamma)
        ref = _reference_raw_grids(M, ps, list(eps), 1, chi, gamma)
        assert {key: _reduce(block, product.den) for key, block in product.blocks.items()} == {
            key: grid.entries for key, grid in ref.items()
        }
        if gamma is not None:
            assert product.ctx.gamma == (None if gamma == 0 else gamma)

    def test_scaled_principal_l1(self):
        # lambda = 1/2 and theta = (2, 3): the resolvent has non-integral
        # coefficients, so its steps are scaled and den is not monic.
        M = principal_series(DahaParams(1, 2, 3), [F(1, 2)])
        ps = ParitySeq([1, -1])
        product = drinfeld.reflection_product(M, ps, [1, -1])
        assert product.den[-1] != 1
        ref = _reference_raw_grids(M, ps, [1, -1])
        assert {key: _reduce(block, product.den) for key, block in product.blocks.items()} == {
            key: grid.entries for key, grid in ref.items()
        }

    def test_type_a_product(self):
        # drinfeld_A's product T_1 ... T_l with a shift, through the same steps.
        ps = ParitySeq([1, -1])
        M = restrict_to_type_a(principal_series(DahaParams(2, 1, 2), [F(3), F(1)]))
        chi, c = F(1, 2), F(-3)
        Qs = drinfeld._int_q_rows(ps, 2)
        steps = [drinfeld._cleared_factor(M, Qs[k - 1], k, chi, c) for k in (1, 2)]
        N, den = drinfeld._cleared_product(steps, M.dim * 8)
        ref = _reference_factor(M, ps, 1, 2, chi, c) @ _reference_factor(M, ps, 2, 2, chi, c)
        assert _reduce(N, den) == ref.entries


class TestQuotientFamily:
    """The functor output is built in integers as one cleared form, and it
    is the family the function-field route forms: each entry of
    P N S / den reduced to a RatFun, then cleared."""

    @pytest.mark.parametrize(
        "M",
        [char_module(DahaParams(l, 1, 2), 1, 1) for l in (2, 3, 4)]
        + [principal_series(DahaParams(1, 1, 2), [F(3)]), principal_series(DahaParams(2, 1, 2), [F(3), F(1)])],
        ids=["char-l2", "char-l3", "char-l4", "principal-l1", "principal-l2"],
    )
    @pytest.mark.parametrize("eps", [[1, -1], [1, 1]])
    def test_matches_the_reduced_entries(self, M, eps):
        product = drinfeld.reflection_product(M, ParitySeq([1, -1]), eps)
        D = drinfeld_BC(M, ParitySeq([1, -1]), eps, product=product)
        assert D.dim >= 1
        t, form = rf_quotient_family(D, product.blocks, product.den)
        assert D.action._t is None
        assert D.action.cleared() == form
        assert tuple(form) == rf_cleared_form(t)
        assert D.action.t == t

    def test_fractional_projection_is_scaled_back(self):
        # The span of (1, 1/2): the projection (-1/2, 1) is scaled by s = 2
        # to integers, and the quotient family carries the 2 back in den.
        ps = ParitySeq([1, 1])
        blocks = {(i, j): [{}, {}] for i in (1, 2) for j in (1, 2)}
        blocks[(1, 1)] = [{0: (1, 1)}, {1: (1, 1)}]  # (u + 1) / u
        blocks[(2, 2)] = [{0: (0, 1)}, {1: (0, 1)}]  # u / u
        relations = ([[F(1), F(1, 2)]], [0])
        D = drinfeld._quotient_module(blocks, (0, 1), SuperSpace([0, 0]), relations, "t", TAction, ps)
        assert D.projection == [[F(-1, 2), F(1)]]
        t, form = rf_quotient_family(D, blocks, (0, 1))
        assert D.action.cleared() == form
        u = RatFun.x()
        zero, one = RatFun.zero(), RatFun.one()
        assert [D.action.t[key][0, 0] for key in sorted(t)] == [(u + 1) / u, zero, zero, one]


class TestCheckInvariant:
    """The quotient certificate reads every power-of-u coefficient of the
    cleared product, the top one u^D included."""

    @staticmethod
    def _product():
        M = char_module(DahaParams(2, 1, 2), 1, 1)
        product = drinfeld.reflection_product(M, ParitySeq([1, -1]), [1, -1])
        nrows, pivots = product.relations
        proj, _sect, _free = drinfeld._quotient_maps(nrows, pivots, len(nrows[0]))
        _s, prows = drinfeld._integer_rows(proj)
        return product.blocks, nrows, prows

    def test_top_coefficient_violation_is_found(self):
        blocks, nrows, prows = self._product()
        assert drinfeld._check_invariant(blocks, nrows, prows) is None
        D = max(len(p) - 1 for block in blocks.values() for row in block for p in row.values())
        # e_q leaves the span (proj e_q != 0) and v = nrows[0] has v[c] != 0,
        # so adding 7 u^D E_qc moves v out of the span in u^D alone.
        q = next(q for q in range(len(nrows[0])) if any(col == q for prow in prows for col, _ in prow))
        c = next(c for c, x in enumerate(nrows[0]) if x)
        key = (1, 2)
        planted = {k: [dict(row) for row in block] for k, block in blocks.items()}
        row = planted[key][q]
        row[c] = drinfeld._zadd(row.get(c, ()), (0,) * D + (7,))
        assert drinfeld._check_invariant(planted, nrows, prows) == key
        # Reading only the coefficients 0, ..., D - 1 misses the violation.
        truncated = {
            k: [{col: trimmed(p[:D]) for col, p in r.items() if trimmed(p[:D])} for r in block]
            for k, block in planted.items()
        }
        assert drinfeld._check_invariant(truncated, nrows, prows) is None


INT_COEFFS = st.lists(st.integers(-20, 20), max_size=6).map(trimmed)


def _poly_coeffs(p):
    return tuple(int(c) for c in p.coeffs)


class TestIntegerPolyHelpers:
    """The Z[u] helpers the series product uses, _kernel.poly_mul and
    exactalg._zadd, agree with Poly multiplication and addition."""

    @settings(max_examples=200, deadline=None)
    @given(INT_COEFFS, INT_COEFFS)
    def test_convolution_is_poly_product(self, a, b):
        assert poly_mul(a, b) == _poly_coeffs(Poly(a) * Poly(b))

    @settings(max_examples=200, deadline=None)
    @given(INT_COEFFS, INT_COEFFS, st.integers(0, 2))
    def test_trimmed_add_is_poly_sum(self, a, b, mode):
        # mode 1 cancels a completely, mode 2 cancels its top coefficients.
        if mode == 1:
            b = exactalg._zneg(a)
        elif mode == 2:
            b = trimmed(b[: len(a) - 1] + tuple(-x for x in a[len(b[: len(a) - 1]):]))
        got = exactalg._zadd(a, b)
        assert got == _poly_coeffs(Poly(a) + Poly(b))
        assert not got or got[-1]
