import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import (
    _coords_in_span,
    assemble,
    family_form,
    gl_tensor,
    kron_rows_by_terms,
    lab_t_table,
    lab_tprime_table,
    read_blocks,
    read_product,
    ref_lift_at,
    rf_block_product,
    rf_cleared_form,
    rows_match_table,
    trimmed,
    weight_decompose,
)

from tyang._kernel import mat_mul, poly_eval, poly_mul
from tyang.exactalg import Poly, PoleError, RatFun, rf_equal
from tyang.glmn import ParitySeq, make_Lab, make_vector_rep
from tyang import cli, superlinalg, twisted, yangian
from tyang.superlinalg import RFMatrix, SuperSpace, at_slots, kron_ops, mat_vec, rfmat_inverse
from tyang.yangian import (
    ClearedForm,
    NotHighest,
    SeriesFamily,
    TAction,
    TPrimeAction,
    block_product,
    cleared_evaluator,
    cleared_form,
    dual_action,
    evaluation_action,
    flip_at,
    highest_lweight,
    inverse_series_action,
    lambda_prime_check,
    lambda_prime_formula,
    r_matrix_at,
    series_expansion,
    shift_action,
    solve_shift_quotient,
    tensor_action,
    trivial_action,
    varpi_weight,
    verify_rtt,
    verify_yang_baxter,
    zhang_polynomials,
)


def F(a, b=1):
    return Fraction(a, b)


def all_parity_seqs(max_kappa, min_kappa=1):
    for k in range(min_kappa, max_kappa + 1):
        for signs in itertools.product([1, -1], repeat=k):
            yield ParitySeq(signs)


class TestEvaluation:
    def test_vector_rep_t11(self):
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_vector_rep(ps), 0)
        u = RatFun.x()
        assert T.t[(1, 1)][0, 0] == (u + 1) / u
        assert T.t[(1, 1)][1, 1] == RatFun.one()
        assert T.t[(2, 2)][1, 1] == (u - 1) / u

    def test_shift_replaces_u(self):
        ps = ParitySeq([1, -1])
        T0 = evaluation_action(make_vector_rep(ps), 0)
        T5 = evaluation_action(make_vector_rep(ps), 5)
        for key in T0.t:
            assert T5.t[key][0, 0] == T0.t[key][0, 0].subs_linear(1, -5)
        assert shift_action(T0, 5).t == T5.t

    def test_lab_action_table(self):
        for s1 in (1, -1):
            for a, b in [(1, 2), (3, 1), (F(1, 2), F(3, 2)), (-2, 5), (0, 1)]:
                T = evaluation_action(make_Lab(s1, a, b), 0)
                ok, detail = rows_match_table(T.t, lab_t_table(s1, a, b))
                assert ok, detail


@st.composite
def _scalars(draw):
    """A small Fraction, or a RatFun (a + b u)/(c + u)."""
    a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
    if draw(st.booleans()):
        return Fraction(a, draw(st.integers(1, 3)))
    return RatFun(Poly([a, b]), Poly([c, 1]))


@st.composite
def _family_blocks(draw, ps, carrier):
    """kappa x kappa blocks on carrier, block (i, j) of parity |i| + |j|,
    some of them zero."""
    blocks = {}
    for i in range(1, ps.kappa + 1):
        for j in range(1, ps.kappa + 1):
            pij = (ps.parity(i) + ps.parity(j)) % 2
            zero = draw(st.integers(0, 3)) == 0
            blocks[(i, j)] = RFMatrix.from_const(
                [
                    [
                        Fraction(0) if zero or (pq + pp) % 2 != pij else draw(_scalars())
                        for pp in carrier.parities
                    ]
                    for pq in carrier.parities
                ],
                carrier,
                carrier,
            )
    return blocks


_Z_POLY = st.lists(st.integers(-3, 3), max_size=3).map(trimmed)


@st.composite
def _mids(draw, kappa):
    """A middle factor for block_product and its RatFun scalars: None,
    integers, eps_k + gamma/u as (eps_k q u + p) / (q u), or any integer
    polynomials over one common denominator."""
    kind = draw(st.sampled_from(["none", "integers", "gamma", "polynomials"]))
    if kind == "none":
        return None, None
    if kind == "integers":
        ms = draw(st.lists(st.integers(-3, 3), min_size=kappa, max_size=kappa))
        return ((1,), [(m,) if m else () for m in ms]), ms
    if kind == "gamma":
        eps = draw(st.lists(st.sampled_from([1, -1]), min_size=kappa, max_size=kappa))
        p, q = draw(st.integers(-4, 4)), draw(st.integers(1, 3))
        u = Poly([0, 1])
        return ((0, q), [(p, e * q) for e in eps]), [RatFun(Poly([F(p, q), e]), u) for e in eps]
    d = draw(_Z_POLY.filter(bool))
    nums = draw(st.lists(_Z_POLY, min_size=kappa, max_size=kappa))
    return (d, nums), [RatFun(Poly(m), Poly(d)) for m in nums]


@st.composite
def _block_cases(draw):
    kappa = draw(st.integers(1, 3))
    ps = ParitySeq(draw(st.lists(st.sampled_from([1, -1]), min_size=kappa, max_size=kappa)))
    dim = draw(st.integers(1, 3))
    carrier = SuperSpace(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
    A, B = draw(_family_blocks(ps, carrier)), draw(_family_blocks(ps, carrier))
    # A zero block may be left out: a missing key counts as zero.
    for blocks in (A, B):
        for key in [key for key, m in blocks.items() if m.is_zero() and key != (kappa, kappa)]:
            if draw(st.booleans()):
                del blocks[key]
    return ps, carrier, A, B, draw(_mids(kappa))


class TestBlockProduct:
    @settings(max_examples=80, deadline=None)
    @given(_block_cases())
    def test_matches_assembled_product(self, case):
        # The integer product of the two cleared forms, read back as
        # RatFuns, is the product of the Koszul-assembled operators on
        # carrier x V (with mid as 1 x diag(mid)), and the block product
        # formed in RatFun arithmetic.
        ps, carrier, A, B, (mid, mid_rf) = case
        FA, FB = SeriesFamily(ps, carrier, family_form(A)), SeriesFamily(ps, carrier, family_form(B))
        got = read_product(*block_product(FA.cleared(), FB.cleared(), mid), carrier)
        assert got == rf_block_product(A, B, mid_rf)
        OA, OB = assemble(FA), assemble(FB)
        back = read_blocks(OA, ps, carrier)
        assert {k: m for k, m in back.items() if k in A or not m.is_zero()} == A
        if mid is not None:
            g = [[x if r == c else Fraction(0) for c in range(ps.kappa)] for r, x in enumerate(mid_rf)]
            OA = OA @ RFMatrix.from_const(kron_ops([(None, 0), (g, 0)], [carrier, ps.space()]))
        assert got == read_blocks(OA @ OB, ps, carrier)

    def test_scalar_product_tells_zero_from_not_scalar(self):
        idx = [(i, j) for i in (1, 2) for j in (1, 2)]

        def form(*keys):  # 1 x 1 blocks, 1 / (u + 2) at the named keys
            return cleared_form((2, 1), {key: [{0: (1,)} if key in keys else {}] for key in idx})

        den = (4, 4, 1)
        assert yangian.scalar_product(form((1, 1), (2, 2)), form((1, 1), (2, 2))) == (den, (1,), True)
        # E_11 E_22 = 0 is the scalar 0; E_22 E_22 = E_22 is not scalar,
        # although its first diagonal entry is 0 as well.
        assert yangian.scalar_product(form((1, 1)), form((2, 2))) == (den, (), True)
        assert yangian.scalar_product(form((2, 2)), form((2, 2))) == (den, (), False)
        assert yangian.scalar_product(form((1, 1), (2, 2)), form((1, 1), (2, 2), (1, 2)))[2] is False

    def test_negated_block_is_the_family_with_minus_that_block(self):
        for T in _normaliser_families():
            for key in sorted(T.t):
                ref = {**T.t, key: T.t[key].scale(-1)}
                assert tuple(T.cleared().negate_block(key)) == rf_cleared_form(ref)

    def test_negated_form_is_the_family_at_minus_u(self):
        for T in _normaliser_families():
            neg = T.cleared().neg_u()
            ref = {key: m.subs_neg() for key, m in T.t.items()}
            assert neg == cleared_form(neg.den_coeffs, neg.blocks)
            assert tuple(neg) == rf_cleared_form(ref)


def _normaliser_families():
    """T(u) on vector, L(a, b), tensor, trivial and dual modules."""
    ps = ParitySeq([1, -1])
    lab = evaluation_action(make_Lab(1, 1, 2), F(1, 2))
    return [
        evaluation_action(make_vector_rep(ParitySeq([1, -1, 1])), 2),
        lab,
        evaluation_action(make_Lab(-1, F(3, 2), -2), -3),
        tensor_action(lab, evaluation_action(make_vector_rep(ps), 3)),
        trivial_action(ParitySeq([1, 1, -1])),
        dual_action(lab),
    ]


@st.composite
def _expansion_cases(draw):
    """(rows, den, dense, order): a square matrix of integer coefficient
    tuples with numerator degrees at most deg den, as row-sparse rows over
    Z[u], and the same matrix dense, () for zero."""
    den = tuple(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda c: c[-1])))
    top = len(den) - 1
    n = draw(st.integers(1, 3))
    entry = st.just(()) | st.lists(st.integers(-9, 9), max_size=top + 1).map(trimmed)
    # Numerator degree equal to the denominator's, with a nonzero top coefficient.
    entry |= st.tuples(st.lists(st.integers(-9, 9), min_size=top, max_size=top),
                       st.integers(-9, 9).filter(bool)).map(lambda lt: (*lt[0], lt[1]))
    dense = [[draw(entry) for _ in range(n)] for _ in range(n)]
    rows = [{c: e for c, e in enumerate(row) if e} for row in dense]
    return rows, den, dense, draw(st.integers(0, 5))


class TestSeriesExpansion:
    """series_expansion, read off cleared integers, against RatFun.series
    entry by entry."""

    @settings(max_examples=150, deadline=None)
    @given(_expansion_cases())
    def test_matches_ratfun_series(self, case):
        rows, den, dense, order = case
        got = series_expansion(rows, den, order)
        assert len(got) == order + 1
        for q, row in enumerate(dense):
            for c, e in enumerate(row):
                want = RatFun(Poly(e), Poly(den)).series(order) if e else [0] * (order + 1)
                assert [got[r][q][c] for r in range(order + 1)] == want

    @settings(max_examples=80, deadline=None)
    @given(_expansion_cases(), st.integers(0, 3))
    def test_rectangular_rows_are_the_first_rows_of_the_square_call(self, case, q):
        # q of the n rows, with the column count n given.
        rows, den, _dense, order = case
        q = min(q, len(rows))
        square = series_expansion(rows, den, order)
        assert series_expansion(rows[:q], den, order, len(rows)) == [C[:q] for C in square]

    def test_common_scale_cancels(self):
        # (3u^2 + 1) / (2u^2 - u) and the same over -5 times both.
        rows, den = [{0: (1, 0, 3)}], (0, -1, 2)
        scaled = [{0: tuple(-5 * x for x in rows[0][0])}], tuple(-5 * x for x in den)
        want = RatFun(Poly([1, 0, 3]), Poly([0, -1, 2])).series(4)
        assert [C[0][0] for C in series_expansion(rows, den, 4)] == want
        assert series_expansion(*scaled, 4) == series_expansion(rows, den, 4)

    @pytest.mark.parametrize("rows", [[{}, {0: (0, 0, 1)}]], ids=["row-sparse"])
    def test_numerator_above_denominator_raises(self, rows):
        with pytest.raises(ValueError, match="no expansion at infinity"):
            series_expansion(rows, (1, 1), 2)


class TestClearedFormNormaliser:
    """cleared_form against the cleared form read off RatFun entries."""

    def test_families_and_inverse_series(self):
        for T in _normaliser_families():
            Tp = inverse_series_action(T)
            assert tuple(T.cleared()) == rf_cleared_form(T.t)
            assert tuple(Tp.cleared()) == rf_cleared_form(Tp.t)
            # A family built from RatFuns clears through the same normaliser.
            assert tuple(family_form(Tp.t)) == tuple(Tp.cleared())

    def test_common_factor_content_and_sign_are_divided_out(self):
        # The same family over -6 (u + 3) D: the normaliser recovers it.
        form = evaluation_action(make_Lab(1, 1, 2), F(1, 2)).cleared()
        w = (-18, -6)
        blocks = {key: [{c: poly_mul(w, e) for c, e in row.items()} for row in rows] for key, rows in form.blocks.items()}
        assert cleared_form(poly_mul(w, form.den_coeffs), blocks) == form

    def test_twisted_families_from_the_integer_product(self):
        for T in _normaliser_families():
            kk = T.kappa
            for eps, gamma in (([1] * kk, None), ([(-1) ** k for k in range(kk)], None),
                               ([-1] * kk, F(3, 2)), ([(-1) ** (k + 1) for k in range(kk)], -2)):
                ctx = twisted.TwistedContext(T.ps, eps, gamma)
                B = twisted.b_from_T(T, ctx)
                g = list(eps) if gamma is None else [RatFun(Poly([gamma, e]), Poly([0, 1])) for e in eps]
                Tpn = {key: m.subs_neg() for key, m in inverse_series_action(T).t.items()}
                oracle = rf_block_product(T.t, Tpn, g)
                assert tuple(B.cleared()) == rf_cleared_form(oracle)
                assert B.t == oracle

    def test_positive_degree_gcd_is_divided_out(self):
        # 04-t-lab of the benchmark: the product denominator has degree 3,
        # the reduced one degree 2.
        T = evaluation_action(make_Lab(-1, -5, -5), 0)
        ctx = twisted.TwistedContext(T.ps, [-1, -1])
        den, blocks = block_product(T.cleared(), inverse_series_action(T).cleared().neg_u(),
                                    ((1,), [(-1,), (-1,)]))
        form = cleared_form(den, blocks)
        assert len(den) - 1 == 3 and len(form.den_coeffs) - 1 == 2
        assert tuple(form) == rf_cleared_form(twisted.b_from_T(T, ctx).t)


class TestInverseSeries:
    def test_rank_one_inverse(self):
        ps = ParitySeq([1])
        T = evaluation_action(make_vector_rep(ps), 0)
        Tp = inverse_series_action(T)
        u = RatFun.x()
        assert Tp.t[(1, 1)][0, 0] == u / (u + 1)

    def test_vector_rep_inverse(self):
        # T(u) = 1 + Q/u with Q^2 = (m - n) Q, so for m = n the inverse is
        # 1 - Q/u and the corner entry is (u-1)/u, not a naive block inverse.
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_vector_rep(ps), 0)
        Tp = inverse_series_action(T)
        u = RatFun.x()
        assert Tp.t[(1, 1)][0, 0] == (u - 1) / u
        assert Tp.t[(1, 1)][1, 1] == RatFun.one()
        assert (assemble(T) @ assemble(Tp)).is_identity()

    def test_lab_tprime_table(self):
        for s1 in (1, -1):
            for a, b in [(1, 2), (3, 1), (F(1, 2), F(3, 2)), (-2, 5), (0, 1)]:
                T = evaluation_action(make_Lab(s1, a, b), 0)
                Tp = inverse_series_action(T)
                ok, detail = rows_match_table(Tp.t, lab_tprime_table(s1, a, b))
                assert ok, detail

    def test_product_is_identity(self):
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        Tp = inverse_series_action(T)
        assert (assemble(T) @ assemble(Tp)).is_identity()
        assert (assemble(Tp) @ assemble(T)).is_identity()

    def test_tensor_inverse_matches_direct(self):
        A = evaluation_action(make_Lab(1, 1, 2), 0)
        B = evaluation_action(make_Lab(1, 3, 1), 2)
        T = tensor_action(A, B)
        Tp = inverse_series_action(T)
        assert (assemble(T) @ assemble(Tp)).is_identity()
        assert (assemble(Tp) @ assemble(T)).is_identity()

    @pytest.mark.parametrize(
        "module, z",
        [(make_vector_rep(ParitySeq([1, -1, 1])), 0), (make_Lab(1, 3, 1), 0), (make_Lab(-1, F(1, 2), 2), 0),
         (make_Lab(1, 1, 2), F(-5, 3)), (make_vector_rep(ParitySeq([-1, 1])), 4)],
        ids=["vector", "Lab", "Lab-odd", "Lab-shifted", "vector-shifted"],
    )
    def test_evaluation_resolvent_equals_gauss_jordan(self, module, z):
        # The resolvent route of an evaluation module gives the entries of
        # the Gauss-Jordan inverse of the block layout, exactly.
        T = evaluation_action(module, z)
        d, idx = T.dim, range(1, T.kappa + 1)
        layout = [[x for j in idx for x in T.t[(i, j)].entries[q]] for i in idx for q in range(d)]
        inv = rfmat_inverse(RFMatrix(layout)).entries
        Tp = inverse_series_action(T)
        for i in idx:
            for j in idx:
                assert Tp.t[(i, j)].entries == [row[(j - 1) * d:j * d] for row in inv[(i - 1) * d:i * d]]


class TestTensor:
    def test_counit_case(self):
        ps = ParitySeq([1, -1])
        L = evaluation_action(make_Lab(1, 1, 2), 0)
        T = tensor_action(L, trivial_action(ps))
        for key in L.t:
            assert T.t[key].entries == L.t[key].entries

    def test_associativity(self):
        A = evaluation_action(make_Lab(1, 1, 2), 0)
        B = evaluation_action(make_Lab(1, 3, 1), 1)
        C = evaluation_action(make_Lab(1, -1, 4), 2)
        left = tensor_action(tensor_action(A, B), C)
        right = tensor_action(A, tensor_action(B, C))
        for key in left.t:
            assert left.t[key].entries == right.t[key].entries

    def test_counit_limit_at_infinity(self):
        A = evaluation_action(make_Lab(1, 1, 2), 0)
        B = evaluation_action(make_vector_rep(ParitySeq([1, -1])), 3)
        T = tensor_action(A, B)
        for (i, j), m in T.t.items():
            for p in range(m.rows):
                for q in range(m.cols):
                    e = m[p, q]
                    if e.is_zero():
                        continue
                    c0 = e.series(0)[0]
                    assert c0 == (1 if (i == j and p == q) else 0)


@st.composite
def kron_terms(draw):
    """(spaces, terms) for _kron_blocks: two spaces of 1 to 3 vectors, each
    with an odd one, and 1 to 3 terms (w, [(A, par_A), (B, par_B)]) of
    constant integer matrices, as dense rows."""
    spaces = [SuperSpace(draw(st.lists(st.integers(0, 1), max_size=2)) + [1]) for _ in range(2)]
    matrix = lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=d, max_size=d)
    terms = draw(st.lists(st.tuples(st.sampled_from([1, -1]), st.tuples(
        *[st.tuples(matrix(sp.dim), st.integers(0, 1)) for sp in spaces])), min_size=1, max_size=3))
    return spaces, terms


class TestKronBlocks:
    """yangian._kron_blocks, whose Koszul sign is read off
    superlinalg._passed_parities, against the sign rule entry by entry
    (support.kron_rows_by_terms), on constant entries with odd vectors in
    both factors."""

    @staticmethod
    def _blocks(spaces, terms):
        cleared = lambda m: [{c: (x,) for c, x in enumerate(row) if x} for row in m]
        out = yangian._kron_blocks([(w, [(cleared(m), par) for m, par in ops]) for w, ops in terms], spaces)
        return [{c: e for c, (e,) in row.items()} for row in out]

    @settings(max_examples=100, deadline=None)
    @given(kron_terms())
    def test_matches_the_sign_rule(self, drawn):
        spaces, terms = drawn
        assert self._blocks(spaces, terms) == kron_rows_by_terms([(w, list(ops)) for w, ops in terms], spaces)

    def test_odd_factor_passing_an_odd_column(self):
        # E_01 x E_00 with the second factor odd: column (1, 0) passes the
        # odd vector 1 of the first space, so the entry is negated.
        spaces = [SuperSpace([0, 1]), SuperSpace([0, 1])]
        terms = [(1, [([[0, 1], [0, 0]], 0), ([[1, 0], [0, 0]], 1)])]
        assert self._blocks(spaces, terms) == [{2: -1}, {}, {}, {}]
        assert self._blocks(spaces, terms) == kron_rows_by_terms(terms, spaces)


class TestYangBaxter:
    def test_all_parity_sequences_up_to_three(self):
        for ps in all_parity_seqs(3):
            assert verify_yang_baxter(ps) is None

    def test_unsigned_flip_witness_matches_fraction_path(self, monkeypatch):
        # P13 without its signs breaks the braid identity for gl(1|1).
        ps = ParitySeq([1, -1])
        n = ps.kappa ** 3
        digits = lambda r: (r // 4, r // 2 % 2, r % 2)
        unsigned = [{c: 1 for c in range(n) if digits(c) == digits(r)[::-1]} for r in range(n)]
        signed = yangian.flip_at
        flip = lambda ps, a, b, k: unsigned if (a, b) == (1, 3) else signed(ps, a, b, k)
        monkeypatch.setattr(yangian, "flip_at", flip)
        w = verify_yang_baxter(ps)
        assert w is not None and w.label == "yang-baxter"
        u0, v0 = w.point
        R12, R13, R23 = (
            r_matrix_at(flip(ps, a, b, 3), x) for a, b, x in ((1, 2, u0 - v0), (1, 3, u0), (2, 3, v0))
        )
        assert w.lhs == mat_mul(R12, mat_mul(R13, R23))
        assert w.rhs == mat_mul(R23, mat_mul(R13, R12))
        assert w.lhs != w.rhs
        assert all(type(x) is Fraction for m in (w.lhs, w.rhs) for row in m for x in row)


class TestRTT:
    def test_evaluation_modules(self):
        for ps in all_parity_seqs(3):
            T = evaluation_action(make_vector_rep(ps), 0)
            assert verify_rtt(T) is None

    def test_tensor_of_evaluations(self):
        A = evaluation_action(make_Lab(1, 1, 2), 0)
        B = evaluation_action(make_Lab(1, 3, 1), 5)
        assert verify_rtt(tensor_action(A, B)) is None

    def test_corrupted_action_fails(self):
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_vector_rep(ps), 0)
        bad = dict(T.t)
        bad[(2, 1)] = bad[(2, 1)].scale(-1)
        broken = TAction(ps, T.space, family_form(bad))
        w = verify_rtt(broken)
        assert w is not None and w.status == "fail"

    def test_each_family_evaluated_once_per_coordinate(self, monkeypatch):
        # A passing identity evaluates one point, so each of its two
        # families once (or not at all, when an earlier identity already
        # evaluated it there), not four times per grid point.
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        calls, seen = [0], []
        cleared_at, check = SeriesFamily.cleared_at, yangian.check_identity_2var

        def counting_cleared_at(self, *args, **kwargs):
            calls[0] += 1
            return cleared_at(self, *args, **kwargs)

        def recording_check(lhs, rhs, *args, **kwargs):
            calls[0], points = 0, []

            def lhs_at(u0, v0):
                points.append((u0, v0))
                return lhs(u0, v0)

            w = check(lhs_at, rhs, *args, **kwargs)
            seen.append((calls[0], len(points)))
            return w

        monkeypatch.setattr(SeriesFamily, "cleared_at", counting_cleared_at)
        monkeypatch.setattr(yangian, "check_identity_2var", recording_check)
        assert verify_rtt(T) is None
        assert len(seen) == 3
        for n, points in seen:
            assert points == 1 and 0 < n <= 2

    def test_two_lifted_products_per_passing_identity(self, monkeypatch):
        # gl(1|1) vector module, four factors: dim 16, lifted to 64 rows.
        # Each of the three identities passes at its one point, one lifted
        # row-sparse product per side, and no dense product is formed.
        V = lambda z: evaluation_action(make_vector_rep(ParitySeq([1, -1])), z)
        T = tensor_action(tensor_action(tensor_action(V(0), V(1)), V(3)), V(7))
        assert T.dim == 16
        sizes, product = [], yangian.sparse_mul

        def counting(A, B):
            sizes.append((len(A), len(B)))
            return product(A, B)

        dense = []

        def recording(A, B):
            dense.append(len(A))
            return mat_mul(A, B)

        monkeypatch.setattr(yangian, "sparse_mul", counting)
        for module in (superlinalg, twisted, yangian):
            if getattr(module, "mat_mul", None) is mat_mul:
                monkeypatch.setattr(module, "mat_mul", recording)
        assert verify_rtt(T) is None
        assert sizes == [(64, 64)] * 6
        assert 64 not in dense

    def test_grid_checks_leave_the_fraction_path(self, monkeypatch):
        # verify_rtt and verify_b evaluate in integers only: the Fraction
        # evaluation and assembly behind full_at are never called.
        L = evaluation_action(make_Lab(1, 1, 2), 0)
        T = tensor_action(L, evaluation_action(make_vector_rep(ParitySeq([1, -1])), 3))
        ctx = twisted.TwistedContext(L.ps, [1, -1], 2)
        Bs = [twisted.b_from_T(L, ctx), twisted.b_tensor(L, twisted.c_gamma(ctx, 1))]

        def refuse(*args, **kwargs):
            raise AssertionError("Fraction evaluation on the grid")

        monkeypatch.setattr(RFMatrix, "eval_mat", refuse)
        monkeypatch.setattr(yangian, "realize_mixed", refuse)
        monkeypatch.setattr(SeriesFamily, "full_at", refuse)
        assert verify_rtt(T) is None
        for B in Bs:
            assert twisted.verify_b(B).ok
        # On evaluation provenance B(u) = T(u) G T(-u)^{-1}, the unitarity
        # product and the inverse product of verify-yangian are integer
        # block products: no RatFun product is formed.
        monkeypatch.setattr(RFMatrix, "__matmul__", refuse)
        monkeypatch.setattr(RatFun, "__mul__", refuse)
        monkeypatch.setattr(RatFun, "__rmul__", refuse)
        for module, gamma in ((make_Lab(-1, 2, F(1, 2)), None), (make_vector_rep(ParitySeq([1, -1, 1])), F(-3, 2))):
            E = evaluation_action(module, F(1, 3))
            B = twisted.b_from_T(E, twisted.TwistedContext(E.ps, [1] * (E.kappa - 1) + [-1], gamma))
            assert twisted.verify_b(B).ok
        t = {"type": "evaluation", "module": {"type": "Lab", "s1": 1, "a": "3", "b": "-1/2"}, "z": "2"}
        checks = cli.pipe_verify_yangian({"t": t}, 64)
        assert [(c["id"], c["status"]) for c in checks] == [("exchange-relation", "pass"), ("inverse-product", "pass")]

    @pytest.mark.parametrize("label", ["exchange", "mixed-left"])
    def test_witness_matches_fraction_path(self, label):
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        if label == "exchange":
            bad = dict(T.t)
            bad[(1, 2)] = bad[(1, 2)].scale(-1)
            T = TAction(ps, T.space, family_form(bad))
        else:
            # A wrong inverse series leaves the exchange relation intact.
            Tp = dict(inverse_series_action(T).t)
            Tp[(1, 2)] = Tp[(1, 2)].scale(-1)
            T._tprime = TPrimeAction(ps, T.space, family_form(Tp))
        w = verify_rtt(T)
        assert w is not None and w.label == label
        u0, v0 = w.point
        P = flip_at(ps, 1, 2, 2)
        lift = lambda x: kron_ops(at_slots(2, {1: (r_matrix_at(P, x), 0)}), [T.space, ps.space().tensor(ps.space())])
        B2 = T.full_at(v0, slot=2, nslots=2)
        if label == "exchange":
            R, A1 = lift(u0 - v0), T.full_at(u0, slot=1, nslots=2)
            assert w.lhs == mat_mul(R, mat_mul(A1, B2))
            assert w.rhs == mat_mul(B2, mat_mul(A1, R))
        else:
            R, A1 = lift(u0 + v0), T._tprime.full_at(-u0, slot=1, nslots=2)
            assert w.lhs == mat_mul(A1, mat_mul(R, B2))
            assert w.rhs == mat_mul(B2, mat_mul(R, A1))
        assert w.lhs != w.rhs
        assert all(type(x) is Fraction for m in (w.lhs, w.rhs) for row in m for x in row)


def _cleared_cases():
    """(family, evaluated, sign) triples, evaluated at x being family at
    sign x: T, T' read at -u as the mixed relations read it (the family of
    its form's neg_u), and B, on modules with shifted poles and odd
    generators."""
    L = evaluation_action(make_Lab(1, F(1, 2), 2), F(-3, 2))
    V = evaluation_action(make_vector_rep(L.ps), 2)
    T = tensor_action(L, V)
    ctx = twisted.TwistedContext(L.ps, [1, -1], F(2, 3))
    cases = [(L, 1), (T, 1), (inverse_series_action(T), -1), (inverse_series_action(L), -1),
             (twisted.b_from_T(L, ctx), 1), (twisted.b_tensor(V, twisted.c_gamma(ctx, 1)), 1)]
    return [(A, A if sign == 1 else _at_minus_u(A), sign) for A, sign in cases]


def _at_minus_u(family):
    return SeriesFamily(family.ps, family.space, family.cleared().neg_u())


_CLEARED_CASES = []


@st.composite
def _lift_cases(draw, ps):
    """(family, x) for a random sparse integer family over ps: a module of
    1 to 3 basis vectors of drawn parities, and each block missing, held
    with every row empty, or sparse, its entries random integer
    polynomials or u - x, which vanishes at the point x."""
    x = draw(st.integers(-6, 6))
    parities = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    d, idx = len(parities), range(1, ps.kappa + 1)
    coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda cs: cs[-1])
    entry = st.one_of(coeffs.map(tuple), st.just((-x, 1)))
    rows = st.dictionaries(st.integers(0, d - 1), entry, max_size=d)
    blocks = {}
    for key in ((i, j) for i in idx for j in idx):
        kind = draw(st.sampled_from(["missing", "empty", "sparse", "sparse"]))
        if kind == "empty":
            blocks[key] = [{} for _ in range(d)]
        elif kind == "sparse":
            blocks[key] = [draw(rows) for _ in range(d)]
    return SeriesFamily(ps, SuperSpace(parities), ClearedForm(1, (1,), blocks)), x


class TestClearedEvaluation:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 5), st.sampled_from([1, 2]), st.integers(-40, 40))
    def test_matches_full_at(self, case, slot, x):
        # The grid points are integers, so the evaluation is drawn at them.
        if not _CLEARED_CASES:
            _CLEARED_CASES.extend(_cleared_cases())
        family, evaluated, sign = _CLEARED_CASES[case]
        assume(poly_eval(family.cleared().den_coeffs, sign * x) != 0)
        N, d = cleared_evaluator(evaluated, slot)(x)
        assert d and all(type(n) is int and n for row in N for n in row.values())
        ref = family.full_at(sign * x, slot=slot, nslots=2)
        assert [[Fraction(row.get(c, 0), d) for c in range(len(N))] for row in N] == ref

    @pytest.mark.parametrize("slot", [1, 2])
    @pytest.mark.parametrize("ps", list(all_parity_seqs(3)), ids=lambda ps: "".join("+-"[s < 0] for s in ps.s))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_lift_matches_the_tag_pattern(self, ps, slot, data):
        # The one-pass signed scatter against the lift read through the
        # _kron_rows tag pattern, entry for entry.
        family, x = data.draw(_lift_cases(ps))
        assert yangian._lift_at(family, x, slot) == ref_lift_at(family, x, slot)

    def test_cleared_form_is_computed_once(self):
        T = evaluation_action(make_Lab(1, 1, 2), 3)
        form = T.cleared()
        assert T.cleared() is form
        assert form.den_coeffs == (-3, 1) and form.degree == 1

    @pytest.mark.parametrize("slot", [1, 2])
    def test_zero_of_the_denominator_raises(self, slot):
        T = evaluation_action(make_Lab(1, 1, 2), 5)
        at = cleared_evaluator(T, slot)
        with pytest.raises(PoleError):
            at(5)
        assert at(3)[1] != 0
        # t'(u) = (u - 5)/(u - 4) on the rank-one vector module, read at -u.
        V = evaluation_action(make_vector_rep(ParitySeq([1])), 5)
        with pytest.raises(PoleError):
            cleared_evaluator(_at_minus_u(inverse_series_action(V)), slot)(-4)


class TestHighestWeight:
    def test_vector_rep(self):
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_vector_rep(ps), 0)
        lams = highest_lweight(T, [1, 0])
        u = RatFun.x()
        assert lams[0] == (u + 1) / u
        assert lams[1] == RatFun.one()
        assert varpi_weight(lams, ps) == (F(1), F(0))

    def test_tensor_of_labs(self):
        A = evaluation_action(make_Lab(1, 1, 2), 0)
        B = evaluation_action(make_Lab(1, 3, 1), 0)
        T = tensor_action(A, B)
        lams = highest_lweight(T, [1, 0, 0, 0])
        u = RatFun.x()
        assert lams[0] == (u + 1) * (u + 3) / (u * u)
        assert lams[1] == (u - 2) * (u - 1) / (u * u)

    def test_not_highest(self):
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_vector_rep(ps), 0)
        with pytest.raises(NotHighest, match=r"^t_12\(u\) does not annihilate the vector$"):
            highest_lweight(T, [0, 1])
        with pytest.raises(NotHighest, match="^zero vector$"):
            highest_lweight(T, [0, 0])

    def test_non_scalar_diagonal_message(self):
        # t_12 = 0 and t_11(u) = 1 + E_12/u: the vector e_2 is killed above
        # the diagonal, but t_11(u) is not scalar on it.
        ps = ParitySeq([1, 1])
        space = SuperSpace([0, 0])
        u = RatFun.x()
        one, zero = RatFun.one(), RatFun.zero()
        t = {key: RFMatrix.identity(2, space) if key[0] == key[1] else RFMatrix.zero(2, 2, space, space)
             for key in itertools.product((1, 2), repeat=2)}
        t[(1, 1)] = RFMatrix([[one, 1 / u], [zero, one]], space, space)
        with pytest.raises(NotHighest, match=r"^t_11\(u\) is not scalar on the vector$"):
            highest_lweight(TAction(ps, space, family_form(t)), [0, 1])


class TestLambdaPrime:
    def test_rank_one(self):
        ps = ParitySeq([1])
        T = evaluation_action(make_vector_rep(ps), 0)
        assert lambda_prime_check(T, [1]) is None

    def test_lab(self):
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        lams = highest_lweight(T, [1, 0])
        lp1 = lambda_prime_formula(lams, T.ps, 1)
        u = RatFun.x()
        # Matches the frozen inverse-series table entry on v+.
        assert lp1 == u * (u - 3) / ((u) * (u - 2))
        assert lambda_prime_check(T, [1, 0]) is None

    def test_two_fold_tensor_all_ps(self):
        for ps in all_parity_seqs(2, min_kappa=2):
            A = evaluation_action(make_vector_rep(ps), 0)
            B = evaluation_action(make_vector_rep(ps), 3)
            T = tensor_action(A, B)
            xi = [F(0)] * T.dim
            xi[0] = F(1)
            assert lambda_prime_check(T, xi) is None

    @pytest.mark.parametrize(
        "t13, tp32",
        [
            # t_13(u) t'_32(v) xi = (u - v + 1) e_1 vanishes on the line
            # v = u + 1 but not identically.
            ([0, RatFun.x(), -1], [[0, 0, 0], [1, 0, 0], [RatFun.x() - 1, 0, 0]]),
            # -v e_1: only the u^0 coefficient of t_13 and the top one of
            # t'_32 meet.
            ([0, 0, -1], [[0, 0, 0], [0, 0, 0], [RatFun.x(), 0, 0]]),
        ],
        ids=["vanishes-on-a-line", "constant-times-top-power"],
    )
    def test_killing_product_not_identically_zero_fails(self, t13, tp32):
        # Every other block is zero or the identity; clauses a and b hold.
        ps = ParitySeq([1, 1, 1])
        space = SuperSpace([0, 0, 0])
        entry = lambda x: x if isinstance(x, RatFun) else RatFun.const(x)
        ident = RFMatrix.identity(3, space)
        blank = RFMatrix.zero(3, 3, space, space)
        t = {key: ident if key[0] == key[1] else blank for key in itertools.product((1, 2, 3), repeat=2)}
        tp = dict(t)
        t[(1, 3)] = RFMatrix([[entry(x) for x in t13]] + blank.entries[1:], space, space)
        tp[(3, 2)] = RFMatrix([[entry(x) for x in row] for row in tp32], space, space)
        one = RatFun.one()
        T = TAction(ps, space, family_form(t))
        T._tprime = TPrimeAction(ps, space, family_form(tp))
        assert lambda_prime_check(T, [1, 0, 0], (one, one, one)) == ("c", (1, 3, 3, 2))

    def test_inverse_diagonal_off_the_vector_fails_clause_b(self):
        # t'_11(u) e_1 = e_1 + e_2 / u: clause a holds and the e_1 coordinate
        # matches the weight 1, but the image leaves the line of e_1.
        ps = ParitySeq([1, 1])
        space = SuperSpace([0, 0])
        one, zero, u = RatFun.one(), RatFun.zero(), RatFun.x()
        t = {key: RFMatrix.identity(2, space) if key[0] == key[1] else RFMatrix.zero(2, 2, space, space)
             for key in itertools.product((1, 2), repeat=2)}
        tp = dict(t)
        tp[(1, 1)] = RFMatrix([[one, zero], [1 / u, one]], space, space)
        T = TAction(ps, space, family_form(t))
        T._tprime = TPrimeAction(ps, space, family_form(tp))
        assert lambda_prime_check(T, [1, 0], (one, one)) == ("b", 1)

    def test_three_fold_tensor_kappa_three(self):
        ps = ParitySeq([1, 1, -1])
        A = evaluation_action(make_vector_rep(ps), 0)
        B = evaluation_action(make_vector_rep(ps), 3)
        C = evaluation_action(make_vector_rep(ps), -2)
        T = tensor_action(tensor_action(A, B), C)
        xi = [F(0)] * T.dim
        xi[0] = F(1)
        assert lambda_prime_check(T, xi) is None


class TestDual:
    def test_trivial_module_self_dual(self):
        ps = ParitySeq([1, -1])
        T = trivial_action(ps)
        D = dual_action(T)
        for key in T.t:
            assert D.t[key].entries == T.t[key].entries

    def test_dual_satisfies_rtt(self):
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        assert verify_rtt(dual_action(T)) is None

    def test_dual_of_lab_ratio(self):
        # The dual of L(a, b) pairs with L(b+1, a-1) up to scalar twist.
        a, b = 1, 2
        T = evaluation_action(make_Lab(1, a, b), 0)
        D = dual_action(T)
        lams = highest_lweight(D, [1, 0])
        ref = evaluation_action(make_Lab(1, b + 1, a - 1), 0)
        ref_lams = highest_lweight(ref, [1, 0])
        assert rf_equal(lams[0] / lams[1], ref_lams[0] / ref_lams[1])

    def test_double_dual_ratio(self):
        T = evaluation_action(make_Lab(1, 1, 2), 0)
        DD = dual_action(dual_action(T))
        lams = highest_lweight(T, [1, 0])
        dd_lams = highest_lweight(DD, [1, 0])
        assert rf_equal(lams[0] / lams[1], dd_lams[0] / dd_lams[1])


class TestWeightShift:
    def test_coefficient_matrices_shift_weights(self):
        La = make_Lab(1, 1, 2)
        Lb = make_Lab(1, 3, 1)
        M = gl_tensor(La, Lb)
        dec = weight_decompose(M)
        T = tensor_action(evaluation_action(La, 0), evaluation_action(Lb, 0))
        eps = lambda i: tuple(F(1 if k == i - 1 else 0) for k in range(2))
        form = T.cleared()
        for (i, j) in T.t:
            for r, C in enumerate(series_expansion(form.blocks[(i, j)], form.den_coeffs, 2)[1:], 1):
                for wt, basis in dec.items():
                    target_wt = tuple(
                        w + e1 - e2 for w, e1, e2 in zip(wt, eps(i), eps(j))
                    )
                    target = dec.get(target_wt, [])
                    for v in basis:
                        img = mat_vec(C, v)
                        if any(img):
                            assert target, (i, j, r, wt)
                            assert _coords_in_span(target, [img]) is not None


class TestZhang:
    def test_vector_rep_certificate(self):
        ps = ParitySeq([1, -1])
        T = evaluation_action(make_vector_rep(ps), 0)
        lams = highest_lweight(T, [1, 0])
        polys = zhang_polynomials(lams, ps)
        assert polys is not None
        assert polys[0] == Poly([1, 1]) and polys[1] == Poly([0, 1])

    def test_non_standard_refused(self):
        ps = ParitySeq([-1, 1])
        T = evaluation_action(make_vector_rep(ps), 0)
        lams = highest_lweight(T, [1, 0])
        with pytest.raises(ValueError):
            zhang_polynomials(lams, ps)

    def test_even_rank_two(self):
        ps = ParitySeq([1, 1])
        A = evaluation_action(make_vector_rep(ps), 0)
        B = evaluation_action(make_vector_rep(ps), 2)
        T = tensor_action(A, B)
        lams = highest_lweight(T, [1, 0, 0, 0])
        polys = zhang_polynomials(lams, ps)
        assert polys is not None
        ratio = lams[0] / lams[1]
        P = polys[0]
        assert rf_equal(ratio, RatFun(P.shift(1), P))


class TestSolveShiftQuotient:
    def test_simple_chain(self):
        P = Poly([1, 1]) * Poly([2, 1])  # (u+1)(u+2)
        ratio = RatFun(P.shift(1), P)
        assert solve_shift_quotient(ratio, 1) == P

    def test_trivial(self):
        assert solve_shift_quotient(RatFun.one(), 1) == Poly.one()

    def test_unsolvable(self):
        u = RatFun.x()
        assert solve_shift_quotient((u + 1) / u, -1) is None


class TestSerialization:
    def test_taction_roundtrip(self):
        from tyang.yangian import t_from_json, t_to_json

        T = tensor_action(
            evaluation_action(make_Lab(1, 1, 2), 0),
            evaluation_action(make_vector_rep(ParitySeq([1, -1])), 3),
        )
        back = t_from_json(t_to_json(T))
        assert back.ps == T.ps
        assert back.t == T.t
        assert back.space.parities == T.space.parities
