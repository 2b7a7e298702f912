import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import apply_at_factor

from tyang._kernel import mat_mul
from tyang.exactalg import Poly, RatFun
from tyang.superlinalg import (
    DimensionMismatch,
    RFMatrix,
    SingularMatrix,
    SuperSpace,
    _kron_rows,
    algebra_closure,
    charpoly,
    check_identity_2var,
    cleared_coefficients,
    common_den,
    kron_ops,
    kron_sum,
    mat_identity,
    mat_nullspace,
    rfmat_inverse,
    rfmat_kernel,
    sparse_add,
    sparse_addmul,
    sparse_mul,
    sparse_scale,
    tensor_space,
)


def F(a, b=1):
    return Fraction(a, b)


def E(i, j, n):
    m = [[F(0)] * n for _ in range(n)]
    m[i][j] = F(1)
    return m


def super_flip(parities):
    """P = sum_b s_b E_ab x E_ba on V x V, assembled Koszul-correctly."""
    n = len(parities)
    sp = SuperSpace(parities)
    total = [[F(0)] * n * n for _ in range(n * n)]
    for a in range(n):
        for b in range(n):
            s_b = -1 if parities[b] else 1
            pi = (parities[a] + parities[b]) % 2
            grid = kron_ops([(E(a, b, n), pi), (E(b, a, n), pi)], [sp, sp])
            for i in range(n * n):
                for j in range(n * n):
                    total[i][j] += s_b * grid[i][j]
    return total


class TestSuperSpace:
    def test_tensor_parities_lex(self):
        a = SuperSpace([0, 1])
        b = SuperSpace([1])
        assert a.tensor(b).parities == (1, 0)
        assert tensor_space([a, a]).parities == (0, 1, 1, 0)


class TestKron:
    def test_single_factor_is_op(self):
        sp = SuperSpace([0, 1])
        grid = kron_ops([(E(0, 1, 2), 1)], [sp])
        assert grid == E(0, 1, 2)

    def test_identity_everywhere(self):
        sp = SuperSpace([0, 1])
        grid = kron_ops([(None, 0), (None, 0)], [sp, sp])
        assert grid == mat_identity(4)

    def test_super_flip_formula(self):
        # P(v_a x v_b) = (-1)^{|a||b|} v_b x v_a for every parity pattern.
        for parities in [(0, 1), (1, 0), (0, 0), (1, 1), (0, 1, 1)]:
            n = len(parities)
            P = super_flip(parities)
            for a in range(n):
                for b in range(n):
                    col = a * n + b
                    expect_row = b * n + a
                    sign = -1 if parities[a] and parities[b] else 1
                    for r in range(n * n):
                        want = F(sign) if r == expect_row else F(0)
                        assert P[r][col] == want

    def test_flip_squares_to_identity_all_small_parities(self):
        for total in range(1, 5):
            for parities in itertools.product([0, 1], repeat=total):
                P = super_flip(parities)
                assert mat_mul(P, P) == mat_identity(total * total)

    def test_parity_composition(self):
        # Composing parity-homogeneous operators adds parities mod 2.
        rng = random.Random(2)
        parities = (0, 1, 1)
        sp = SuperSpace(parities)
        spaces = [sp, sp]
        full = tensor_space(spaces)
        for _ in range(20):
            i1, j1, i2, j2 = (rng.randrange(3) for _ in range(4))
            p1 = (parities[i1] + parities[j1]) % 2
            p2 = (parities[i2] + parities[j2]) % 2
            m1 = RFMatrix.from_const(
                kron_ops([(E(i1, j1, 3), p1), (None, 0)], spaces), full, full
            )
            m2 = RFMatrix.from_const(
                kron_ops([(None, 0), (E(i2, j2, 3), p2)], spaces), full, full
            )
            prod = m1 @ m2
            assert prod.check_parity((p1 + p2) % 2)


def kron_reference(ops, spaces):
    """kron_ops entry by entry from its definition: the product of the
    factor entries, times (-1)^(parity of factor k * parities of the column
    indices of factors 1..k-1) for every k."""
    idx = list(itertools.product(*(range(sp.dim) for sp in spaces)))
    out = []
    for r in idx:
        row = []
        for c in idx:
            x, seen = F(1), 0
            for (m, par), sp, rk, ck in zip(ops, spaces, r, c):
                x = x * (F(int(rk == ck)) if m is None else m[rk][ck])
                if par and seen % 2:
                    x = -x
                seen += sp.parity(ck)
            row.append(x)
        out.append(row)
    return out


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
RATFUNS = st.builds(
    lambda a, b, c: RatFun(Poly([a, b]), Poly([c, F(1)])), FRACTIONS, FRACTIONS, FRACTIONS
)


@st.composite
def kron_terms(draw, entries):
    """(terms, spaces) for kron_sum: 2-3 factors of dim 1-3 with random
    parities, identity slots, and weights of which some cancel."""
    spaces = [
        SuperSpace(draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)))
        for _ in range(draw(st.integers(2, 3)))
    ]

    def slot(sp):
        if draw(st.booleans()):
            return (None, 0)
        cell = st.one_of(st.just(F(0)), entries)
        m = [[draw(cell) for _ in range(sp.dim)] for _ in range(sp.dim)]
        return (m, draw(st.integers(0, 1)))

    terms = [
        (draw(st.sampled_from([1, -1, 2, F(1, 3)])), [slot(sp) for sp in spaces])
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        w, ops = terms[draw(st.integers(0, len(terms) - 1))]
        terms.append((-w, ops))
    return terms, spaces


class TestKronSum:
    """kron_sum adds the row-sparse terms of kron_ops directly; it must equal
    the entrywise sum of the dense terms."""

    @staticmethod
    def entrywise(terms, spaces):
        dim = tensor_space(spaces).dim
        total = [[F(0)] * dim for _ in range(dim)]
        touched = set()
        for w, ops in terms:
            for r, row in enumerate(kron_ops(ops, spaces)):
                for c, x in enumerate(row):
                    if x:
                        touched.add((r, c))
                    total[r][c] = total[r][c] + w * x
        return total, touched

    @staticmethod
    def check_fraction_terms(terms, spaces):
        """Each term's rows and kron_ops are kron_reference, and kron_sum is
        the entrywise sum, with Fraction(0) where no term reaches."""
        for _w, ops in terms:
            ref = kron_reference(ops, spaces)
            assert _kron_rows(ops, spaces) == [{c: x for c, x in enumerate(row) if x} for row in ref]
            assert kron_ops(ops, spaces) == ref
        got = kron_sum(terms, spaces)
        want, touched = TestKronSum.entrywise(terms, spaces)
        assert got == want
        for r, row in enumerate(got):
            for c, x in enumerate(row):
                if (r, c) not in touched:
                    assert type(x) is Fraction and x == 0

    @settings(max_examples=80, deadline=None)
    @given(kron_terms(FRACTIONS))
    def test_fraction_terms(self, case):
        self.check_fraction_terms(*case)

    @settings(max_examples=30, deadline=None)
    @given(kron_terms(RATFUNS))
    def test_ratfun_terms(self, case):
        terms, spaces = case
        got = kron_sum(terms, spaces)
        want, touched = self.entrywise(terms, spaces)
        assert RFMatrix.from_const(got) == RFMatrix.from_const(want)
        for r, row in enumerate(got):
            for c, x in enumerate(row):
                if (r, c) not in touched:
                    assert type(x) is Fraction and x == 0


def sparse(A):
    """A dense matrix as row-sparse rows, zeros left out."""
    return [{c: x for c, x in enumerate(row) if x} for row in A]


@st.composite
def sparse_kron_terms(draw):
    """(terms, spaces) for the nonzero-row path of the assembler: 2-4
    factors of dim 1-3 (at most 36 in all), each of dim 2 or more with both
    parities, whose slots are identities, matrix units, all-zero matrices
    or matrices with empty rows, of odd or even parity, and weights of
    which some cancel."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(lambda ds: math.prod(ds) <= 36))
    mixed = lambda d: st.lists(st.integers(0, 1), min_size=d, max_size=d).filter(lambda p: d == 1 or len(set(p)) == 2)
    spaces = [SuperSpace(draw(mixed(d))) for d in dims]

    def slot(sp):
        d = sp.dim
        kind = draw(st.sampled_from(["identity", "unit", "zero", "empty-rows"]))
        if kind == "identity":
            return (None, 0)
        m = [[F(0)] * d for _ in range(d)]
        if kind == "unit":
            m[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = draw(FRACTIONS.filter(bool))
        elif kind == "empty-rows":
            for r in draw(st.sets(st.integers(0, d - 1), max_size=d - 1)):
                m[r] = [draw(FRACTIONS) for _ in range(d)]
        return (m, draw(st.integers(0, 1)))

    terms = [
        (draw(st.sampled_from([1, -1, 2, F(1, 3)])), [slot(sp) for sp in spaces])
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        w, ops = terms[draw(st.integers(0, len(terms) - 1))]
        terms.append((-w, ops))
    return terms, spaces


class TestKronNonzeroRows:
    """The assembler carries only nonzero rows from factor to factor; on
    sparse factors its rows, kron_ops and kron_sum must still be the
    entry-by-entry reference and the entrywise sum."""

    @settings(max_examples=120, deadline=None)
    @given(sparse_kron_terms())
    def test_sparse_factors(self, case):
        TestKronSum.check_fraction_terms(*case)

    @pytest.mark.parametrize("m", [[[1, 0], [0, 0, 1]], [[1, 0], [0]], [[1, 0]], [[1, 0], [0, 1], [0, 0]]])
    def test_every_row_is_checked_against_its_factor(self, m):
        # A ragged factor used to reach an out-of-range column (a long
        # row) or be zero-padded (a short one) when only m[0] was checked.
        spaces = [SuperSpace([0, 1]), SuperSpace([0, 1])]
        for ops in ([(m, 0), (None, 0)], [(None, 0), (m, 1)]):
            with pytest.raises(DimensionMismatch):
                kron_ops(ops, spaces)
            with pytest.raises(DimensionMismatch):
                kron_sum([(1, ops)], spaces)


class TestSparseRows:
    A = [[2, 0, -1], [0, 0, 0], [1, 3, 0]]
    B = [[1, 1, 0], [0, 2, 0], [2, 2, -4]]

    def test_ops_match_dense_and_drop_cancellations(self):
        A, B = sparse(self.A), sparse(self.B)
        assert A == [{0: 2, 2: -1}, {}, {0: 1, 1: 3}]
        assert sparse_mul(A, B) == sparse(mat_mul(self.A, self.B))
        assert sparse_add(A, A, -1) == [{}, {}, {}]
        assert sparse_add(A, B, 2) == sparse(
            [[a + 2 * b for a, b in zip(ra, rb)] for ra, rb in zip(self.A, self.B)]
        )
        signs = [1, -1, -1]
        assert sparse_scale(A, 3, rows=signs, cols=signs) == sparse(
            [[3 * signs[i] * x * signs[j] for j, x in enumerate(row)] for i, row in enumerate(self.A)]
        )
        assert sparse_scale(A, 0) == [{}, {}, {}]

    def test_in_place_accumulator_drops_cancellations(self):
        A, B = sparse(self.A), sparse(self.B)
        acc = [{} for _ in A]
        assert sparse_addmul(acc, A, B, 2) is acc
        assert acc == sparse_scale(sparse_mul(A, B), 2)
        sparse_addmul(acc, A)
        assert acc == sparse_add(sparse_scale(sparse_mul(A, B), 2), A)
        # A term and its negative leave every row empty, holding no zeros.
        sparse_addmul(acc, A, B, -2)
        sparse_addmul(acc, A, None, -1)
        assert acc == [{}, {}, {}]
        assert A == sparse(self.A) and B == sparse(self.B)


class TestApplyAtFactor:
    def test_single_factor(self):
        sp = SuperSpace([0, 1])
        m = apply_at_factor(E(0, 1, 2), 1, [sp], 1)
        assert m[0, 1] == RatFun.one()

    def test_identity_any_slot(self):
        sp = SuperSpace([0, 1])
        m = apply_at_factor(mat_identity(2), 2, [sp, sp], 0)
        assert m.is_identity()

    def test_flip_squares_via_rfmatrix(self):
        sp = SuperSpace([0, 1])
        spaces = [sp, sp]
        full = tensor_space(spaces)
        P = RFMatrix.from_const(super_flip((0, 1)), full, full)
        assert (P @ P).is_identity()

    def test_bad_factor_index(self):
        sp = SuperSpace([0, 1])
        with pytest.raises(DimensionMismatch):
            apply_at_factor(E(0, 1, 2), 3, [sp, sp], 0)


class TestInverse:
    def test_identity(self):
        assert rfmat_inverse(RFMatrix.identity(3)).is_identity()

    def test_diagonal(self):
        u = RatFun.x()
        M = RFMatrix([[(u + 1) / u, RatFun.zero()], [RatFun.zero(), u / (u - 2)]])
        inv = rfmat_inverse(M)
        assert inv[0, 0] == u / (u + 1)
        assert inv[1, 1] == (u - 2) / u
        assert (M @ inv).is_identity()

    def test_dense_roundtrip(self):
        rng = random.Random(9)
        u = RatFun.x()
        for _ in range(5):
            n = rng.randint(2, 4)
            M = RFMatrix(
                [
                    [
                        RatFun.const(rng.randint(-3, 3)) + (u * rng.randint(0, 1))
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            M = M + RFMatrix.identity(n).scale(u + 7)  # keep it nonsingular
            inv = rfmat_inverse(M)
            assert (M @ inv).is_identity()
            assert (inv @ M).is_identity()

    def test_singular(self):
        one = RatFun.one()
        with pytest.raises(SingularMatrix):
            rfmat_inverse(RFMatrix([[one, one], [one, one]]))


class TestKernel:
    def test_zero_matrix_full_space(self):
        M = RFMatrix.zero(2, 3)
        basis = rfmat_kernel([M])
        assert len(basis) == 3

    def test_identity_trivial(self):
        assert rfmat_kernel([RFMatrix.identity(2)]) == []

    def test_common_kernel(self):
        u = RatFun.x()
        # Rows u*(x - y) = 0 and (x + y)/u = 0 force x = y = 0.
        M1 = RFMatrix([[u, -u]])
        M2 = RFMatrix([[1 / u, 1 / u]])
        assert rfmat_kernel([M1, M2]) == []
        # A single rational row has a 1-dim constant kernel.
        basis = rfmat_kernel([M1])
        assert len(basis) == 1
        assert basis[0][0] == basis[0][1]

    def test_kernel_vectors_annihilated_at_samples(self):
        rng = random.Random(21)
        u = RatFun.x()
        M = RFMatrix([[u + 1, u + 1, 2 * (u + 1)], [1 / u, 1 / u, 2 / u]])
        basis = rfmat_kernel([M])
        assert len(basis) == 2
        count = 0
        while count < 20:
            x = F(rng.randint(-20, 20))
            if x == 0:
                continue
            numeric = M.eval_mat(x)
            for v in basis:
                assert all(
                    sum(a * b for a, b in zip(row, v)) == 0 for row in numeric
                )
            count += 1


class TestClearedCoefficients:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.just(RatFun.zero()), RATFUNS, RATFUNS.map(lambda f: f * RatFun.x())), max_size=5))
    def test_rebuilds_the_entries(self, entries):
        den, coeffs = cleared_coefficients(entries)
        assert den == common_den(entries)
        assert all(len(vec) == len(entries) for vec in coeffs)
        assert not coeffs or any(coeffs[-1])  # no trailing zero power
        for t, e in enumerate(entries):
            assert RatFun(Poly([vec[t] for vec in coeffs]), den) == e

    def test_numerator_coefficients(self):
        u = RatFun.x()
        M = RFMatrix([[u / (u - 1), RatFun.zero()], [RatFun.one(), (u * u + 2) / (u - 1)]])
        # M = (N_0 + N_1 u + N_2 u^2) / (u - 1).
        assert M.numerator_coefficients() == [
            [[F(0), F(0)], [F(-1), F(2)]],
            [[F(1), F(0)], [F(1), F(0)]],
            [[F(0), F(0)], [F(0), F(1)]],
        ]
        assert RFMatrix.zero(2, 3).numerator_coefficients() == []


class TestCharPoly:
    def test_diagonal(self):
        A = [[F(2), F(0)], [F(0), F(3)]]
        assert charpoly(A) == Poly([6, -5, 1])

    def test_nilpotent(self):
        A = [[F(0), F(1)], [F(0), F(0)]]
        assert charpoly(A) == Poly([0, 0, 1])


class TestAlgebraClosure:
    def test_full_matrix_algebra(self):
        gens = [E(0, 1, 2), E(1, 0, 2)]
        gens = [[[F(x) for x in row] for row in g] for g in gens]
        closure = algebra_closure(gens, 2)
        assert len(closure) == 4

    def test_commutative_subalgebra(self):
        d = [[F(1), F(0)], [F(0), F(2)]]
        closure = algebra_closure([d], 2)
        assert len(closure) == 2


class TestGridCheck:
    def test_constant_identity(self):
        one = [[F(1)]]
        assert check_identity_2var(lambda u, v: one, lambda u, v: one, (0, 0)) is None

    def test_perturbed_fails_with_witness(self):
        lhs = lambda u, v: [[u + v]]
        rhs = lambda u, v: [[u + v + 1]]
        w = check_identity_2var(lhs, rhs, (1, 1))
        assert w is not None and w.status == "fail"
        u0, v0 = w.point
        assert w.lhs == [[u0 + v0]]

    def test_degree_bound_grid_is_exact(self):
        # (u+v)^2 agrees with u^2+2uv+v^2: passes with the true bound.
        lhs = lambda u, v: [[(u + v) ** 2]]
        rhs = lambda u, v: [[u * u + 2 * u * v + v * v]]
        assert check_identity_2var(lhs, rhs, (2, 2)) is None

    def test_forbidden_points_skipped(self):
        seen = []

        def lhs(u, v):
            seen.append((u, v))
            return [[F(1)]]

        check_identity_2var(lhs, lambda u, v: [[F(1)]], (1, 1), bad_u=lambda u: u == 1)
        assert all(u != 1 for u, _ in seen)

    @staticmethod
    def _row_bump(d):
        # u*v against u*v + 7 * prod_{i<d} (u - u_i): u-degree d, vanishing on
        # the first d placed u-rows (the odd values 1, 3, 5, ...), not the last.
        us = [F(2 * i + 1) for i in range(d + 1)]
        lhs = lambda u, v: [[u * v]]
        rhs = lambda u, v: [[u * v + 7 * math.prod(u - ui for ui in us[:d])]]
        return us, lhs, rhs

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bound_is_sharp(self, d):
        us, lhs, rhs = self._row_bump(d)
        w = check_identity_2var(lhs, rhs, (d, d))
        assert w is not None and w.point == (us[d], F(2))
        # One row short, every placed row agrees: the recorded bound is needed.
        assert check_identity_2var(lhs, rhs, (d - 1, d)) is None

    def test_common_scale_keeps_verdict_and_point(self):
        # u - v is odd, so nonzero (of either sign) on every grid point.
        scaled = lambda f: lambda u, v: [[(u - v) * x for x in row] for row in f(u, v)]
        _, lhs, rhs = self._row_bump(2)
        w = check_identity_2var(lhs, rhs, (2, 2))
        ws = check_identity_2var(scaled(lhs), scaled(rhs), (2, 2))
        assert ws.point == w.point
        u0, v0 = w.point
        assert ws.lhs == [[(u0 - v0) * x for x in row] for row in w.lhs]
        assert check_identity_2var(scaled(lhs), scaled(rhs), (1, 2)) is None
        square = lambda u, v: [[(u + v) ** 2]]
        expanded = lambda u, v: [[u * u + 2 * u * v + v * v]]
        assert check_identity_2var(scaled(square), scaled(expanded), (2, 2)) is None


class TestNullspace:
    def test_canonical_form(self):
        A = [[F(1), F(2), F(3)]]
        basis = mat_nullspace(A)
        assert len(basis) == 2
        for v in basis:
            assert sum(a * b for a, b in zip(A[0], v)) == 0
