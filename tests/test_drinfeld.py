import itertools
import json
import os
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    box_by_terms,
    family_form,
    flip_by_terms,
    mat_identity,
    q_rows_by_terms,
    read_blocks,
    ref_sign_quotient,
    rf_cleared_form,
    rf_quotient_family,
    trimmed,
)

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
    rfmat_inverse,
    sparse_add,
    tensor_space,
)
from tyang.twisted import BAction, TwistedContext, b_from_T, find_highest_space, highest_bweight, verify_b
from tyang.yangian import TAction, evaluation_action, series_expansion, verify_rtt

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "tyang", "data", "scenarios")


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


# (kappa, l) for the coupling-pattern sweeps: every sign pattern up to
# kappa = 3 and l = 3, and kappa = 4 with l <= 2, as dense-operator's
# appendix-k4-l2 scenarios run it.
PATTERN_SIZES = [(kk, l) for kk in (1, 2, 3) for l in (1, 2, 3)] + [(4, 1), (4, 2)]


class TestCouplingPattern:
    """The tagged pattern of Q^(k), read with the four weightings that
    appendix_identities uses, and the flips and boxes the appendix builds,
    are the operators formed term by term from the sign rule."""

    def test_weightings_match_the_term_by_term_assembly(self):
        for kk, l in PATTERN_SIZES:
            for signs in itertools.product((1, -1), repeat=kk):
                ps = ParitySeq(signs)
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

    @pytest.mark.parametrize("kk, l", PATTERN_SIZES)
    def test_flips_and_boxes_match_the_term_by_term_assembly(self, kk, l):
        for signs in itertools.product((1, -1), repeat=kk):
            ps = ParitySeq(signs)
            for a in range(1, l + 1):
                for b in range(a + 1, l + 1):
                    assert drinfeld.flip_at(ps, a, b, l) == flip_by_terms(ps, a, b, l), (signs, a, b)
            for k in range(1, l + 1):
                for i in range(1, kk + 1):
                    for j in range(1, kk + 1):
                        assert drinfeld._box_at(ps, i, j, k, l) == box_by_terms(ps, i, j, k, l), (signs, i, j, k)

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
        rhs = BAction(lhs.ctx, lhs.space, family_form({key: Pinv @ m @ P for key, m in lhs.b.items()}))
        X = RFMatrix.from_const(drinfeld._intertwiner(lhs, rhs))
        assert all(lhs.b[key] @ X == X @ rhs.b[key] for key in lhs.b)
        zero = BAction(lhs.ctx, lhs.space, family_form({key: m.scale(0) for key, m in lhs.b.items()}))
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


def _reduce(rows, den, ncols=None):
    """The row-sparse cleared matrix rows / den, over integer coefficient
    tuples, as dense reduced RatFuns, with ncols columns (square by
    default)."""
    den = Poly(den)
    out = [[RatFun.zero()] * (len(rows) if ncols is None else ncols) for _ in rows]
    for r, row in enumerate(rows):
        for c, p in row.items():
            out[r][c] = RatFun(Poly(p), den)
    return out


def _identity_start(dim):
    return [{r: (1,)} for r in range(dim)]


def _full_blocks(product):
    """(blocks, den): the series blocks of the product on the whole carrier
    M x V^l, its steps multiplied from the identity."""
    carrier = drinfeld._carrier(product.M, product.ps)
    N, den = drinfeld._cleared_product(product.steps, _identity_start(carrier.dim * product.ps.kappa))
    return drinfeld._series_blocks(N, product.ps, carrier), den


def _project(prows, rows):
    """s P times a matrix, for the sparse integer rows prows of s P and the
    rows of a dense RatFun matrix or of a row-sparse one over integer
    coefficient tuples."""
    out = []
    for prow in prows:
        if isinstance(rows[0], dict):
            acc = {}
            for p, x in prow.items():
                for c, e in rows[p].items():
                    acc[c] = exactalg._zadd(acc.get(c, ()), tuple(x * a for a in e))
            out.append({c: e for c, e in acc.items() if e})
        else:
            out.append([sum((x * rows[p][c] for p, x in prow.items()), RatFun.zero()) for c in range(len(rows[0]))])
    return out


class TestClearedProduct:
    """The series product equals the product of the dense RFMatrix factors:
    its steps multiplied from the identity entry for entry after
    reduction, and the projected blocks of reflection_product, s P times
    each series entry, those of s P times the dense product."""

    @pytest.mark.parametrize(
        "module, signs, eps, gamma, q",
        [
            (("char", 2), (1, -1), (1, -1), None, 0),
            (("char", 3), (1, -1), (-1, -1), F(1, 3), 0),
            (("char", 2), (1, -1), (1, 1), F(0), 2),
            (("principal", 1), (1, -1), (1, -1), None, 2),
            (("principal", 1), (-1, 1), (-1, 1), F(-2), 2),
            (("principal", 2), (1, -1), (1, -1), None, 4),
            (("char", 1), (1, 1, -1), (1, -1, 1), None, 2),
            (("char", 2), (1, -1, 1), (-1, 1, 1), F(5, 2), 2),
        ],
        ids=["char-l2", "char-l3-gamma", "char-l2-gamma0", "principal-l1", "principal-l1-gamma",
             "principal-l2", "kappa3-char-l1", "kappa3-char-l2-gamma"],
    )
    def test_matches_rfmatrix_factor_product(self, module, signs, eps, gamma, q):
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
        full, den = _full_blocks(product)
        assert {key: _reduce(block, den) for key, block in full.items()} == {
            key: grid.entries for key, grid in ref.items()
        }
        assert len(product.quotient.free) == q
        ncols = drinfeld._carrier(M, ps).dim
        prows = product.quotient.null
        assert {key: _reduce(block, product.den, ncols) for key, block in product.blocks.items()} == {
            key: _project(prows, grid.entries) for key, grid in ref.items()
        }
        if gamma is not None:
            assert product.ctx.gamma == (None if gamma == 0 else gamma)

    def test_scaled_principal_l1(self):
        # lambda = 1/2 and theta = (2, 3): the resolvent has non-integral
        # coefficients, so its steps are scaled and den is not monic.
        M = principal_series(DahaParams(1, 2, 3), [F(1, 2)])
        ps = ParitySeq([1, -1])
        product = drinfeld.reflection_product(M, ps, [1, -1])
        full, den = _full_blocks(product)
        assert den[-1] != 1 and product.den == den
        ref = _reference_raw_grids(M, ps, [1, -1])
        assert {key: _reduce(block, den) for key, block in full.items()} == {
            key: grid.entries for key, grid in ref.items()
        }
        assert product.blocks == {key: _project(product.quotient.null, block) for key, block in full.items()}

    def test_type_a_product(self):
        # drinfeld_A's product T_1 ... T_l with a shift, through the same
        # steps, from the identity.
        ps = ParitySeq([1, -1])
        M = restrict_to_type_a(principal_series(DahaParams(2, 1, 2), [F(3), F(1)]))
        chi, c = F(1, 2), F(-3)
        Qs = drinfeld._int_q_rows(ps, 2)
        steps = [drinfeld._cleared_factor(M, Qs[k - 1], k, chi, c) for k in (1, 2)]
        N, den = drinfeld._cleared_product(steps, _identity_start(M.dim * 8))
        ref = _reference_factor(M, ps, 1, 2, chi, c) @ _reference_factor(M, ps, 2, 2, chi, c)
        assert _reduce(N, den) == ref.entries


class TestQuotientFamily:
    """The functor output is built in integers as one cleared form, and it
    is the family the function-field route forms: each entry of
    P N S / den reduced to a RatFun, then cleared, with N the product on
    the whole carrier."""

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
        t, form = rf_quotient_family(D, *_full_blocks(product))
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
        quotient = drinfeld.echelon([{0: 2, 1: 1}], 2)
        assert quotient.s == 2 and quotient.null == [{0: -1, 1: 2}]
        projected = {key: _project(quotient.null, block) for key, block in blocks.items()}
        D = drinfeld._quotient_module(projected, (0, 1), SuperSpace([0, 0]), quotient, "t", TAction, ps)
        assert D.projection == [[F(-1, 2), F(1)]]
        t, form = rf_quotient_family(D, blocks, (0, 1))
        assert D.action.cleared() == form
        u = RatFun.x()
        zero, one = RatFun.zero(), RatFun.one()
        assert [D.action.t[key][0, 0] for key in sorted(t)] == [(u + 1) / u, zero, zero, one]


def _conjugated(M, d):
    """M conjugated by the diagonal matrix d: an isomorphic module whose
    generators are not symmetric and whose sign quotient has a fractional
    projection."""
    c = lambda m: [[F(d[r]) * x / d[k] for k, x in enumerate(row)] for r, row in enumerate(_dense(m, M.dim))]
    return DahaModule(M.params, M.dim, [c(m) for m in M.sigma], c(M.varsigma_l), [c(m) for m in M.y])


def _ref_quotient(M, ps, epsilon, eps=None):
    """(Echelon fields, P, S) of the route over Q (ref_sign_quotient),
    with s P cleared by the lcm s of the denominators of P."""
    subspace, free, proj, sect = ref_sign_quotient(M, ps, epsilon, eps)
    s = lcm(*(x.denominator for row in proj for x in row))
    prows = [{c: int(s * x) for c, x in enumerate(row) if x} for row in proj]
    return (subspace, free, s, prows), proj, sect


def _rref_view(quotient, D):
    """The Echelon with its integer pivot rows divided by their pivot
    entries, dense: the RREF of the relation span."""
    rows = [[F(row.get(c, 0), row[min(row)]) for c in range(D)] for row in quotient.basis]
    return (rows, *quotient[1:])


class TestSignQuotient:
    """The sign quotient built from the Hecke module's integer rows
    (_sign_relations, _kernel.echelon) is that of the route over Q
    (support.ref_sign_quotient): the same RREF subspace, read off the
    integer pivot rows as row / row[pivot], free coordinates, scale and
    integer projection rows, and the same Fraction projection and section
    on the functor output."""

    MODULES = [
        (char_module(DahaParams(2, 3, 4), -1, 1), (1, -1)),
        (char_module(DahaParams(3, 3, 4), 1, 1), (1, -1)),
        (char_module(DahaParams(4, 3, 4), -1, -1), (1, -1)),
        (principal_series(DahaParams(1, 3, 4), [F(2)]), (1, -1)),
        (principal_series(DahaParams(2, 3, 4), [F(2), F(-1)]), (1, -1)),
        (char_module(DahaParams(2, 3, 4), -1, 1), (1, 1, -1)),
        (_conjugated(principal_series(DahaParams(2, 3, 4), [F(2), F(-1)]), [1, 2, 3, 5, 1, 1, 1, 1]), (1, -1)),
    ]
    IDS = ["char-l2", "char-l3", "char-l4", "principal-l1", "principal-l2", "kappa3-char-l2", "conjugated-l2"]

    @pytest.mark.parametrize("M, signs", MODULES, ids=IDS)
    @pytest.mark.parametrize("eps", [(1, -1), (1, 1)])
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_reflection_quotient(self, M, signs, eps, epsilon):
        ps = ParitySeq(signs)
        eps = list(eps + (1,))[:ps.kappa]
        fields, proj, sect = _ref_quotient(M, ps, epsilon, eps)
        product = drinfeld.reflection_product(M, ps, eps, epsilon)
        assert _rref_view(product.quotient, drinfeld._carrier(M, ps).dim) == fields
        D = drinfeld_BC(M, ps, eps, epsilon, product=product)
        assert (D.projection, D.section) == (proj, sect)

    @pytest.mark.parametrize("M, signs", MODULES, ids=IDS)
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_type_a_quotient(self, M, signs, epsilon):
        ps = ParitySeq(signs)
        fields, proj, sect = _ref_quotient(M, ps, epsilon)
        D = drinfeld_A(M, ps, epsilon)
        assert _rref_view(D.quotient, D.carrier_space.dim) == fields
        assert (D.projection, D.section) == (proj, sect)

    def test_fractional_projection_is_reached(self):
        # The conjugated module is the case whose projection is scaled.
        M, signs = self.MODULES[-1]
        assert drinfeld.reflection_product(M, ParitySeq(signs), [1, -1]).quotient.s > 1


class TestCheckInvariant:
    """The quotient certificate reads every power-of-u coefficient of the
    projected product s P N, the top one u^D included."""

    def test_top_coefficient_violation_is_found(self):
        M = char_module(DahaParams(2, 1, 2), 1, 1)
        product = drinfeld.reflection_product(M, ParitySeq([1, -1]), [1, -1])
        blocks, basis = product.blocks, product.quotient.basis
        dim = drinfeld._carrier(M, ParitySeq([1, -1])).dim
        assert blocks[(1, 2)] and drinfeld._check_invariant(blocks, basis, dim) is None
        D = max(len(p) - 1 for block in blocks.values() for row in block for p in row.values())
        # v = basis[0] has v[c] != 0, so adding 7 u^D at column c of the
        # first row of s P N_12 moves s P N_12 v off zero in u^D alone.
        c = min(basis[0])
        key = (1, 2)
        planted = {k: [dict(row) for row in block] for k, block in blocks.items()}
        row = planted[key][0]
        row[c] = drinfeld._zadd(row.get(c, ()), (0,) * D + (7,))
        assert drinfeld._check_invariant(planted, basis, dim) == key
        # Reading only the coefficients 0, ..., D - 1 misses the violation.
        truncated = {
            k: [{col: trimmed(p[:D]) for col, p in r.items() if trimmed(p[:D])} for r in block]
            for k, block in planted.items()
        }
        assert drinfeld._check_invariant(truncated, basis, dim) is None


def _shipped_drinfeld_cases():
    """(M, ps, eps, epsilon) of every shipped drinfeld scenario."""
    from tyang.cli import build_daha_module

    cases = []
    for name in sorted(os.listdir(SCENARIO_DIR)):
        if name.startswith("drinfeld-"):
            with open(os.path.join(SCENARIO_DIR, name)) as fh:
                inputs = json.load(fh)["inputs"]
            M = build_daha_module(inputs["m"])[1]()
            cases.append(pytest.param(M, ParitySeq(inputs["ps"]), inputs["eps"], inputs.get("epsilon", 1), id=name))
    return cases


def _control_cases():
    return [pytest.param(TestExpansionNegativeControls._module(*module), ps, eps, 1, id=f"{module[0]}-l{module[1]}")
            for ps, eps, module in TestExpansionNegativeControls.CASES]


class TestTopTwo:
    """Orders 0 and 1 of the series product, read off the length-2
    truncation of its steps, against the expansion of the product on the
    whole carrier."""

    @pytest.mark.parametrize("M, ps, eps, epsilon", _control_cases() + _shipped_drinfeld_cases())
    def test_matches_the_expansion_of_the_full_product(self, M, ps, eps, epsilon):
        product = drinfeld.reflection_product(M, ps, eps, epsilon)
        dim = drinfeld._carrier(M, ps).dim * ps.kappa
        top, (b0, b1) = drinfeld._top_two(product.steps, dim)
        N, den = drinfeld._cleared_product(product.steps, _identity_start(dim))
        assert (b0, b1) == (den[-1], den[-2])
        got = [[[F(0)] * dim for _ in range(dim)] for _ in range(2)]
        for r, row in enumerate(top):
            for c, (x0, x1) in row.items():
                got[0][r][c] = F(x0, b0)
                got[1][r][c] = F(x1 * b0 - b1 * x0, b0 * b0)
        assert got == series_expansion(N, den, 1)
        assert any(x1 for row in top for _x0, x1 in row.values())

    def test_zero_quotient_multiplies_nothing(self, monkeypatch):
        # An empty double quotient: one echelon form, and no polynomial
        # product inside the series product.  A nonzero one is the control.
        inside, muls, quotients = [False], [], []
        orig_mul, orig_product, orig_quotient = drinfeld.poly_mul, drinfeld._cleared_product, drinfeld.echelon

        def poly_mul(a, b):
            if inside[0]:
                muls.append(1)
            return orig_mul(a, b)

        def cleared_product(steps, start):
            inside[0] = True
            try:
                return orig_product(steps, start)
            finally:
                inside[0] = False

        monkeypatch.setattr(drinfeld, "poly_mul", poly_mul)
        monkeypatch.setattr(drinfeld, "_cleared_product", cleared_product)
        monkeypatch.setattr(drinfeld, "echelon", lambda rows, D: quotients.append(1) or orig_quotient(rows, D))
        ps = ParitySeq([1, -1])
        M = char_module(DahaParams(1, 1, 2), 1, -1)
        assert drinfeld_BC(M, ps, [1, 1]).action is None
        assert muls == [] and quotients == [1]
        assert drinfeld_BC(M, ps, [1, -1]).action is not None
        assert muls


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
