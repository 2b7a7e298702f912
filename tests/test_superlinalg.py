import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    apply_at_factor,
    charpoly,
    mat_identity,
    ref_algebra_closure,
    ref_check_identity_2var,
    ref_nullspace,
    ref_poly_kernel,
    ref_rref,
)

from tyang._kernel import echelon, echelon_insert, mat_mul, mat_rref
from tyang.exactalg import Poly, RatFun
from tyang.superlinalg import (
    DegreeBoundError,
    DimensionMismatch,
    RFMatrix,
    SingularMatrix,
    SuperSpace,
    _dense,
    _kron_rows,
    algebra_closure,
    check_identity_2var,
    cleared_coefficients,
    common_den,
    kron_ops,
    kron_sum,
    mat_nullspace,
    minpoly,
    poly_kernel,
    rfmat_inverse,
    rfmat_kernel,
    sparse_add,
    sparse_addmul,
    sparse_mul,
    sparse_scale,
    tensor_space,
)
from tyang.yangian import series_expansion


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "tyang", "data", "scenarios")


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
        # Each term's kron_ops is the entry-by-entry kron_reference, so a
        # sign error the assembler shares with kron_sum cannot cancel out.
        terms, spaces = case
        for _w, ops in terms:
            assert RFMatrix.from_const(kron_ops(ops, spaces)) == RFMatrix.from_const(kron_reference(ops, spaces))
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
    """(terms, spaces) for the sparse cases of the assembler: 2-4
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
    """The assembler carries only the nonzero entries from factor to
    factor, as (row, col, value) triples; on sparse factors its rows,
    kron_ops and kron_sum must still be the entry-by-entry reference and
    the entrywise sum."""

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


# Small ints and Fractions, so that sums and products cancel often.
SPARSE_VALUES = st.sampled_from([1, -1, 2, -2, 3, F(1, 2), F(-1, 2), F(2, 3)])


@st.composite
def sparse_rows(draw, n):
    """An n x n row-sparse matrix of ints and Fractions whose rows are
    empty, hold one entry, or hold a random set of entries; or a signed
    permutation, every row of which holds one entry."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        return [{perm[i]: draw(st.sampled_from([1, -1, 2, F(-1, 2)]))} for i in range(n)]
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["empty", "one", "many"]))
        cols = [] if kind == "empty" else [draw(st.integers(0, n - 1))] if kind == "one" else draw(st.sets(st.integers(0, n - 1)))
        rows.append({c: draw(SPARSE_VALUES) for c in cols})
    return rows


@st.composite
def sparse_operands(draw):
    """(n, A, B, acc, c, rows, cols) for the row-sparse helpers: n 1-4,
    B at times -A / c, or A with a row of it negated, so that sums cancel;
    c at times 0; rows and cols None or vectors that may hold a 0."""
    n = draw(st.integers(1, 4))
    A, acc = draw(sparse_rows(n)), draw(sparse_rows(n))
    c = draw(st.sampled_from([1, -1, 0, 2, F(1, 3)]))
    kind = draw(st.sampled_from(["free", "cancel", "negated-row"]))
    if kind == "cancel" and c:
        B = [{j: F(-x) / c for j, x in row.items()} for row in A]
    elif kind == "negated-row":
        B = [dict(row) for row in A]
        i = draw(st.integers(0, n - 1))
        B[i] = {j: -x for j, x in B[i].items()}
    else:
        B = draw(sparse_rows(n))
    scales = st.none() | st.lists(st.sampled_from([1, -1, 0, 2]), min_size=n, max_size=n)
    return n, A, B, acc, c, draw(scales), draw(scales)


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

    @settings(max_examples=300, deadline=None)
    @given(sparse_operands(), st.booleans())
    def test_helpers_match_dense_references(self, case, identity_b):
        """Each helper is its dense reference (mat_mul, entrywise sums and
        scales), stores no 0, changes no input, and returns no input row:
        a one-entry row of A must give a copy of a row of B, not the row.
        sparse_addmul runs with B or with None, the identity."""
        n, A, B, acc, c, rows, cols = case
        dA, dB, dacc = _dense(A, n), _dense(B, n), _dense(acc, n)
        kept = [[dict(r) for r in M] for M in (A, B)]
        rs, cs = rows or [1] * n, cols or [1] * n
        one = [[int(i == j) for j in range(n)] for i in range(n)]
        acc_rows = list(acc)
        results = {
            "mul": (sparse_mul(A, B), mat_mul(dA, dB)),
            "add": (sparse_add(A, B, c), [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(dA, dB)]),
            "scale": (
                sparse_scale(A, c, rows, cols),
                [[c * rs[i] * x * cs[j] for j, x in enumerate(r)] for i, r in enumerate(dA)],
            ),
            "addmul": (
                sparse_addmul(acc, A, None if identity_b else B, c),
                [[x + c * y for x, y in zip(rx, ry)] for rx, ry in zip(dacc, mat_mul(dA, one if identity_b else dB))],
            ),
        }
        assert [[dict(r) for r in M] for M in (A, B)] == kept
        assert results["addmul"][0] is acc and all(r is old for r, old in zip(acc, acc_rows))
        inputs = {id(r) for r in A + B}
        for name, (got, want) in results.items():
            assert got == sparse(want), name
            assert all(x != 0 for r in got for x in r.values()), name
            assert not {id(r) for r in got} & inputs, name


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


class TestMinpoly:
    """The minimal polynomial of s A and its first powers on matrices whose
    minimal polynomial is known; a degree below n means the power loop
    must stop at the first relation and keep every power before it."""

    CASES = [
        # (A, s, c): diagonal, nilpotent, a scalar with a denominator, and
        # J_3(2) + (2), whose minimal polynomial (u - 2)^3 has degree 3 < 4.
        ([[F(2), F(0)], [F(0), F(3)]], 1, (6, -5, 1)),
        ([[F(0), F(1)], [F(0), F(0)]], 1, (0, 0, 1)),
        ([[F(1, 2) if r == c else F(0) for c in range(3)] for r in range(3)], 2, (-1, 1)),
        (
            [[F(2), F(1), F(0), F(0)], [F(0), F(2), F(1), F(0)], [F(0), F(0), F(2), F(0)], [F(0)] * 3 + [F(2)]],
            1,
            (-8, 12, -6, 1),
        ),
    ]

    @pytest.mark.parametrize("A, s, c", CASES)
    def test_known_minimal_polynomials(self, A, s, c):
        got_s, got_c, powers = minpoly(A)
        assert (got_s, got_c) == (s, c)
        B = [[int(s * x) for x in row] for row in A]
        P = mat_identity(len(A))
        assert len(powers) == len(c) - 1
        for Q in powers:
            assert Q == P
            P = mat_mul(B, P)


ENTRIES = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=4))


@st.composite
def echelon_input(draw, entries=ENTRIES, cols=(1, 6), min_rows=1):
    """Rows of entries (ints and Fractions by default) with cols[0] to
    cols[1] columns and repeated, zero, negated (negative leading entry)
    and cancelling rows among them, in shuffled order."""
    ncols = draw(st.integers(*cols))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=min_rows, max_size=5))
    rows = list(base)
    kinds = st.lists(st.sampled_from(["repeat", "zero", "negate", "cancel"]), max_size=4 if base else 0)
    pick = st.integers(0, max(len(base) - 1, 0))
    for kind in draw(kinds):
        a, b = base[draw(pick)], base[draw(pick)]
        rows.append({
            "repeat": lambda: list(a),
            "zero": lambda: [0] * ncols,
            "negate": lambda: [-x for x in a],
            "cancel": lambda: [2 * x - 3 * y for x, y in zip(a, b)],
        }[kind]())
    return draw(st.permutations(rows))


def _cleared(row):
    s = math.lcm(*(Fraction(x).denominator for x in row))
    return {c: int(x * s) for c, x in enumerate(row) if x}


class TestEchelon:
    """The fraction-free echelon form (echelon_insert, echelon, mat_rref)
    against Gauss-Jordan over Q (support.ref_rref, ref_nullspace)."""

    @settings(max_examples=200, deadline=None)
    @given(echelon_input())
    def test_mat_rref_is_the_reference_rref(self, rows):
        assert mat_rref(rows) == ref_rref(rows)

    @settings(max_examples=200, deadline=None)
    @given(echelon_input(), st.randoms(use_true_random=False))
    def test_insertion_in_any_order_holds_the_rref(self, rows, rnd):
        ref, pivots = ref_rref(rows)
        order = list(rows)
        rnd.shuffle(order)
        basis = {}
        grown = [echelon_insert(basis, _cleared(r)) for r in order]
        assert sum(grown) == len(pivots) and sorted(basis) == pivots
        for p, row in basis.items():
            assert row[p] > 0 and math.gcd(*row.values()) == 1 and min(row) == p
            assert not any(q in row for q in pivots if q != p)
        ncols = len(rows[0])
        assert [[F(basis[p].get(c, 0), basis[p][p]) for c in range(ncols)] for p in pivots] == ref[:len(pivots)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 7), st.data())
    def test_echelon_reads_the_reference_rref(self, ncols, data):
        rows = data.draw(echelon_input(st.integers(-5, 5), (ncols, ncols), 0))
        E = echelon([{c: x for c, x in enumerate(r) if x} for r in rows], ncols)
        ref, pivots = ref_rref(rows)
        assert [min(row) for row in E.basis] == pivots
        assert [[F(row.get(c, 0), row[min(row)]) for c in range(ncols)] for row in E.basis] == ref[:len(pivots)]
        assert E.free == [c for c in range(ncols) if c not in pivots]
        for f, v in zip(E.free, E.null):
            assert all(type(x) is int and x for x in v.values())
            assert [v.get(g, 0) for g in E.free] == [E.s * (g == f) for g in E.free]
            assert all(sum(x * v.get(c, 0) for c, x in enumerate(r)) == 0 for r in rows)
        assert E.vectors() == ref_nullspace(rows, ncols)

    @pytest.mark.parametrize("ncols", [0, 1, 4])
    def test_no_rows_is_the_identity(self, ncols):
        E = echelon([], ncols)
        assert (E.basis, E.free, E.s) == ([], list(range(ncols)), 1)
        assert E.null == [{c: 1} for c in range(ncols)]
        assert E.vectors() == mat_identity(ncols)

    def test_scale_is_the_lcm_of_the_pivot_entries(self):
        # Pivot rows (2, 0, 1) and (0, 3, 1): s = 6, and each null row is
        # s times the RREF nullspace vector, not the largest pivot entry.
        E = echelon([{0: 2, 2: 1}, {1: 3, 2: 1}], 3)
        assert (E.free, E.s, E.null) == ([2], 6, [{0: -3, 1: -2, 2: 6}])
        assert E.vectors() == [[F(-1, 2), F(-1, 3), F(1)]]

    def test_back_elimination_at_a_later_pivot(self):
        # (0, 1, 1) then (0, 0, 1): the second pivot is cleared from the first.
        basis = {}
        assert echelon_insert(basis, {1: 1, 2: 1}) and echelon_insert(basis, {2: -3})
        assert basis == {1: {1: 1}, 2: {2: 1}}
        assert not echelon_insert(basis, {1: 4, 2: -4})


@st.composite
def poly_rows(draw):
    """(ncols, rows): a row-sparse matrix over Z[u] with 0 to 5 columns,
    with zero rows and rows repeated, negated or scaled by u among them."""
    ncols = draw(st.integers(0, 5))
    coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(lambda p: p[-1]).map(tuple)
    row = st.dictionaries(st.integers(0, ncols - 1), coeffs, max_size=ncols) if ncols else st.just({})
    base = draw(st.lists(row, max_size=4))
    rows = list(base)
    for r in base:
        kind = draw(st.sampled_from(["none", "repeat", "zero", "negate", "times-u"]))
        rows += {"none": [], "repeat": [dict(r)], "zero": [{}], "negate": [{c: tuple(-x for x in e) for c, e in r.items()}],
                 "times-u": [{c: (0,) + e for c, e in r.items()}]}[kind]
    return ncols, rows


class TestPolyKernel:
    """poly_kernel, the Echelon of the sparse u^k coefficient rows, against
    the dense route (support.ref_poly_kernel)."""

    @settings(max_examples=200, deadline=None)
    @given(poly_rows())
    def test_vectors_are_the_reference_kernel(self, drawn):
        ncols, rows = drawn
        assert poly_kernel(rows, ncols).vectors() == ref_poly_kernel(rows, ncols)

    def test_zero_rows_leave_every_column_free(self):
        E = poly_kernel([{}, {}], 3)
        assert (E.free, E.s, E.null) == ([0, 1, 2], 1, [{0: 1}, {1: 1}, {2: 1}])


def _burnside_gens(B):
    """The coefficients irreducible_burnside closes: orders 1 to degree + 2
    of every b_ij(u), nonzero ones only."""
    form = B.cleared()
    return [C for key in sorted(form.blocks)
            for C in series_expansion(form.blocks[key], form.den_coeffs, form.degree + 2)[1:] if any(map(any, C))]


def _shipped_classify_families():
    from tyang.cli import build_baction

    out = []
    for name in sorted(os.listdir(SCENARIO_DIR)):
        with open(os.path.join(SCENARIO_DIR, name)) as fh:
            scenario = json.load(fh)
        if scenario["pipeline"] == "classify":
            out.append(pytest.param(build_baction(scenario["inputs"]["b"])[1], id=name))
    return out


def _same_span(mats, others):
    flat = lambda ms: [[F(x) for row in m for x in row] for m in ms]
    return ref_rref(flat(mats))[0][:len(mats)] == ref_rref(flat(others))[0][:len(others)]


class TestAlgebraClosure:
    """The spin of the identity against the closure by pairwise products
    (support.ref_algebra_closure): the same algebra."""

    def test_full_matrix_algebra(self):
        gens = [E(0, 1, 2), E(1, 0, 2)]
        gens = [[[F(x) for x in row] for row in g] for g in gens]
        closure = algebra_closure(gens, 2)
        assert len(closure) == 4

    def test_commutative_subalgebra(self):
        d = [[F(1), F(0)], [F(0), F(2)]]
        closure = algebra_closure([d], 2)
        assert len(closure) == 2

    HAND = [
        ([E(0, 1, 2)], 2, 2),
        ([E(0, 1, 2), E(1, 1, 2)], 2, 3),
        ([E(0, 1, 3), E(1, 2, 3)], 3, 4),
        ([[[F(1, 2) * x for x in row] for row in E(0, 1, 3)], [[F(-3) * x for x in row] for row in E(1, 2, 3)]], 3, 4),
        ([], 3, 1),
        ([E(0, 1, 3), E(1, 2, 3), E(2, 0, 3)], 3, 9),
    ]

    @pytest.mark.parametrize("gens, dim, expected", HAND)
    def test_hand_cases(self, gens, dim, expected):
        closure = algebra_closure(gens, dim)
        ref = ref_algebra_closure(gens, dim)
        assert len(closure) == len(ref) == expected
        assert _same_span(closure, ref)

    @pytest.mark.parametrize("build", _shipped_classify_families())
    def test_shipped_classify_families(self, build):
        B = build()
        gens = _burnside_gens(B)
        closure = algebra_closure(gens, B.dim)
        assert len(closure) == len(ref_algebra_closure(gens, B.dim))
        assert _same_span(closure, ref_algebra_closure(gens, B.dim))


def _poly_at(p, u, v):
    """A polynomial {(i, j): c} = sum c u^i v^j at integers (u, v)."""
    return sum(c * u**i * v**j for (i, j), c in p.items())


def _poly_add(p, q):
    out = dict(p)
    for key, x in q.items():
        out[key] = out.get(key, 0) + x
    return {key: x for key, x in out.items() if x}


@st.composite
def grid_identities(draw):
    """(lhs, rhs, deg_bound, height, diff) of polynomial matrices, each
    {(row, col): {(i, j): c}}: rhs random, and lhs = rhs + diff entry by
    entry, diff of bidegree at most deg_bound with coefficients at most
    height, the height attained by one coefficient (at +height or
    -height) unless drawn larger.  The terms of diff include monomials,
    carries c u^i v^j (v - 2^k), which vanish at v = 2^k, and wraps
    c u^i (u - v^d_v), which vanish at u = v^d_v, and zero entries, so
    the sides agree wherever those points are evaluated."""
    d_u, d_v = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    n = draw(st.integers(1, 2))
    coeff = st.integers(-40, 40)
    mono = lambda: {(draw(st.integers(0, d_u)), draw(st.integers(0, d_v))): draw(coeff)}
    lhs, rhs, diff = {}, {}, {}
    for key in itertools.product(range(n), repeat=2):
        rhs[key] = _poly_add({}, {(draw(st.integers(0, d_u)), draw(st.integers(0, d_v))): draw(coeff) for _ in range(3)})
        d = {}
        for _ in range(draw(st.integers(0, 3))):
            kind, c = draw(st.sampled_from(["mono", "carry", "wrap"])), draw(st.integers(-3, 3))
            i = draw(st.integers(0, d_u))
            if kind == "carry" and d_v >= 1:
                j, k = draw(st.integers(0, d_v - 1)), draw(st.integers(1, 5))
                c = draw(st.sampled_from([-1, 1]))
                d = _poly_add(d, {(i, j + 1): c, (i, j): -c * 2**k})
            elif kind == "wrap" and d_u >= 1 and i < d_u:
                d = _poly_add(d, {(i + 1, 0): c, (i, d_v): -c})
            else:
                d = _poly_add(d, mono())
        diff[key] = d
        lhs[key] = _poly_add(rhs[key], d)
    top = max((abs(c) for d in diff.values() for c in d.values()), default=0)
    height = top + draw(st.sampled_from([0, 0, 0, 1, 5]))
    return lhs, rhs, (d_u, d_v), height, diff


def _matrix_eval(M, n):
    return lambda u, v: [[_poly_at(M[(r, c)], u, v) for c in range(n)] for r in range(n)]


class TestGridCheck:
    def test_constant_identity(self):
        one = [[F(1)]]
        assert check_identity_2var(lambda u, v: one, lambda u, v: one, (0, 0), 0) is None

    def test_perturbed_fails_with_witness(self):
        lhs = lambda u, v: [[u + v]]
        rhs = lambda u, v: [[u + v + 1]]
        w = check_identity_2var(lhs, rhs, (1, 1), 1)
        assert w is not None and w.status == "fail"
        assert w.point == (F(1), F(2)) and w.lhs == [[3]]

    def test_degree_bound_grid_is_exact(self):
        # (u+v)^2 agrees with u^2+2uv+v^2: passes with the true bound.
        lhs = lambda u, v: [[(u + v) ** 2]]
        rhs = lambda u, v: [[u * u + 2 * u * v + v * v]]
        assert check_identity_2var(lhs, rhs, (2, 2), 0) is None

    def test_forbidden_points_skipped(self):
        # The Kronecker point (X^2, X) moves from X = 2 to X = 4 when u = 4
        # is refused, and the grid walk skips u = 1.
        seen = []

        def lhs(u, v):
            seen.append((u, v))
            return [[u]]

        w = check_identity_2var(lhs, lambda u, v: [[u + 1]], (1, 1), 1, bad_u=lambda u: u in (1, 4))
        assert seen == [(16, 4), (3, 2)]
        assert w.point == (F(3), F(2))

    def test_one_point_per_pass(self):
        seen = []

        def lhs(u, v):
            seen.append((u, v))
            return [[(u + v) ** 2]]

        assert check_identity_2var(lhs, lambda u, v: [[u * u + 2 * u * v + v * v]], (2, 2), 0) is None
        assert seen == [(2**3, 2)]

    @staticmethod
    def _row_bump(d):
        # u*v against u*v + 7 * prod_{i<d} (u - u_i): u-degree d, vanishing on
        # the first d placed u-rows (the odd values 1, 3, 5, ...), not the last.
        us = [F(2 * i + 1) for i in range(d + 1)]
        lhs = lambda u, v: [[u * v]]
        rhs = lambda u, v: [[u * v + 7 * math.prod(u - ui for ui in us[:d])]]
        # The l1 norm of 7 * prod (u - u_i) bounds its coefficients.
        height = 7 * math.prod(1 + ui for ui in us[:d])
        return us, lhs, rhs, int(height)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bound_is_sharp(self, d):
        us, lhs, rhs, height = self._row_bump(d)
        w = check_identity_2var(lhs, rhs, (d, d), height)
        assert w is not None and w.point == (us[d], F(2))
        # One row short, every placed row agrees: the point refutes, and the
        # grid walk finds no witness, so the recorded bound is needed.
        with pytest.raises(DegreeBoundError):
            check_identity_2var(lhs, rhs, (d - 1, d), height)

    def test_common_scale_keeps_verdict_and_point(self):
        # u - v is odd, so nonzero (of either sign) on every grid point.
        scaled = lambda f: lambda u, v: [[(u - v) * x for x in row] for row in f(u, v)]
        _, lhs, rhs, height = self._row_bump(2)
        w = check_identity_2var(lhs, rhs, (2, 2), height)
        # The scaled difference has bidegree (3, 1), and |u - v|_1 = 2.
        ws = check_identity_2var(scaled(lhs), scaled(rhs), (3, 1), 2 * height)
        assert ws.point == w.point
        u0, v0 = w.point
        assert ws.lhs == [[(u0 - v0) * x for x in row] for row in w.lhs]
        with pytest.raises(DegreeBoundError):
            check_identity_2var(scaled(lhs), scaled(rhs), (1, 1), 2 * height)
        square = lambda u, v: [[(u + v) ** 2]]
        expanded = lambda u, v: [[u * u + 2 * u * v + v * v]]
        assert check_identity_2var(scaled(square), scaled(expanded), (3, 3), 0) is None

    def test_understated_height_false_passes(self):
        # v - 32 has height 32; at height 15 the point is (32^2, 32), where
        # the sides agree.
        lhs, rhs = (lambda u, v: [[v]]), (lambda u, v: [[32]])
        assert check_identity_2var(lhs, rhs, (0, 1), 15) is None
        w = check_identity_2var(lhs, rhs, (0, 1), 32)
        assert w.point == (F(1), F(2)) and (w.lhs, w.rhs) == ([[2]], [[32]])

    @pytest.mark.parametrize("d_v", [1, 2, 3])
    def test_understated_v_degree_false_passes(self, d_v):
        # u - v^(d_v + 1) vanishes at (X^(d_v + 1), X).
        lhs, rhs = (lambda u, v: [[u]]), (lambda u, v: [[v ** (d_v + 1)]])
        assert check_identity_2var(lhs, rhs, (1, d_v), 1) is None
        w = check_identity_2var(lhs, rhs, (1, d_v + 1), 1)
        assert w.point == (F(1), F(2)) and (w.lhs, w.rhs) == ([[1]], [[2 ** (d_v + 1)]])

    def test_kronecker_exponent_exceeds_the_v_degree(self):
        # u - v^2 at bound (1, 2) vanishes at (X^2, X): the exponent e = 3
        # puts the point at (4^3, 4), where it is refuted.
        w = check_identity_2var(lambda u, v: [[u]], lambda u, v: [[v * v]], (1, 2), 1)
        assert w is not None and w.point == (F(1), F(2))

    def test_kronecker_base_exceeds_the_height(self):
        # v - 8 has height 8 and vanishes at X = 8: the base X = 32 > 2 * 8
        # refutes it.
        w = check_identity_2var(lambda u, v: [[v]], lambda u, v: [[8]], (0, 1), 8)
        assert w is not None and w.point == (F(1), F(2))

    @settings(max_examples=300, deadline=None)
    @given(grid_identities())
    def test_verdict_and_witness_match_the_grid(self, case):
        lhs, rhs, deg_bound, height, diff = case
        n = math.isqrt(len(lhs))
        w = check_identity_2var(_matrix_eval(lhs, n), _matrix_eval(rhs, n), deg_bound, height)
        assert (w is None) == (not any(diff.values()))
        ref = ref_check_identity_2var(_matrix_eval(lhs, n), _matrix_eval(rhs, n), deg_bound)
        if w is None:
            assert ref is None
        else:
            assert (w.point, w.lhs, w.rhs) == (ref.point, ref.lhs, ref.rhs)


class TestNullspace:
    def test_canonical_form(self):
        A = [[F(1), F(2), F(3)]]
        basis = mat_nullspace(A)
        assert len(basis) == 2
        for v in basis:
            assert sum(a * b for a, b in zip(A[0], v)) == 0
