import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import trimmed

from tyang import exactalg
from tyang._kernel import poly_gcd, poly_mul
from tyang.exactalg import (
    _zdiv,
    ROOT_SEARCH_BOUND,
    PoleError,
    Poly,
    RatFun,
    RootSearchBound,
    rat,
    rational_roots,
    rf_equal,
    rf_eval,
    rf_from_json,
    rf_to_json,
)


def F(a, b=1):
    return Fraction(a, b)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).is_zero()

    def test_arithmetic(self):
        p = Poly([1, 1])  # u + 1
        q = Poly([3, 1])  # u + 3
        assert (p * q).coeffs == (F(3), F(4), F(1))
        assert (p + q).coeffs == (F(4), F(2))
        assert (p - p).is_zero()

    def test_divmod_exact(self):
        p = Poly([3, 4, 1])
        q, r = divmod(p, Poly([1, 1]))
        assert q.coeffs == (F(3), F(1)) and r.is_zero()

    def test_divmod_remainder(self):
        q, r = divmod(Poly([1, 0, 1]), Poly([1, 1]))
        assert (q * Poly([1, 1]) + r) == Poly([1, 0, 1])

    def test_gcd_monic(self):
        a = Poly([1, 1]) * Poly([3, 1]) * 5
        b = Poly([1, 1]) * Poly([-2, 1]) * F(1, 3)
        assert a.gcd(b) == Poly([1, 1])

    def test_compose_linear(self):
        p = Poly([0, 0, 1])  # u^2
        assert p.compose_linear(-1, 2) == Poly([4, -4, 1])  # (2-u)^2
        assert p.shift(1) == Poly([1, 2, 1])

    def test_pow(self):
        assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])


class TestRatFun:
    def test_normalization_monic_coprime(self):
        f = RatFun(Poly([2, 2]), Poly([0, 2]))  # (2u+2)/(2u)
        assert f.num == Poly([1, 1]) and f.den == Poly([0, 1])

    def test_cancellation(self):
        f = RatFun(Poly([-1, 0, 1]), Poly([-1, 1]))  # (u^2-1)/(u-1)
        assert f == RatFun(Poly([1, 1]))

    def test_arithmetic_exact(self):
        u = RatFun.x()
        f = (u + 1) / u
        g = u / (u + 1)
        assert f * g == RatFun.one()
        assert f - f == RatFun.zero()

    def test_subs(self):
        u = RatFun.x()
        f = (u + 1) / u
        assert f.subs_neg() == (1 - u) / (-u)
        assert f.shift(2) == (u + 3) / (u + 2)

    def test_series_expansion(self):
        u = RatFun.x()
        f = (u + 1) / u
        assert f.series(3) == [F(1), F(1), F(0), F(0)]
        g = RatFun.one() / (u - 1)
        assert g.series(3) == [F(0), F(1), F(1), F(1)]


class TestRfEval:
    def test_simple_substitution(self):
        f = RatFun(Poly([1, 1]), Poly([0, 1]))
        assert rf_eval(f, 1) == 2

    def test_constant_identity(self):
        assert rf_eval(RatFun.one(), F(7, 3)) == 1

    def test_hand_arithmetic(self):
        num = Poly([1, 1]) * Poly([3, 1])
        den = Poly([0, 1]) * Poly([-2, 1])
        assert rf_eval(RatFun(num, den), 3) == 8

    def test_pole(self):
        f = RatFun(Poly([1, 1]), Poly([0, 1]))
        with pytest.raises(PoleError):
            rf_eval(f, 0)


class TestRfEqual:
    def test_cancellation(self):
        assert rf_equal(RatFun(Poly([-1, 0, 1]), Poly([-1, 1])), RatFun(Poly([1, 1])))

    def test_normalization(self):
        assert rf_equal(RatFun(Poly([0, 1])), RatFun(Poly([0, 1, 0, 0])))

    def test_distinct(self):
        u = Poly([0, 1])
        assert not rf_equal(RatFun(Poly([1, 1]), u), RatFun(Poly([2, 1]), u))


class TestRationalRoots:
    def test_factorable(self):
        roots, cof = rational_roots([2, -3, 1])
        assert roots == [(F(1), 1), (F(2), 1)]
        assert cof == (1,)

    def test_irreducible(self):
        roots, cof = rational_roots([1, 0, 1])
        assert roots == []
        assert cof == (1, 0, 1)

    def test_multiplicities(self):
        p = Poly([1, 1]) ** 2 * Poly([-1, 2])
        roots, cof = rational_roots(p.coeffs)
        assert roots == [(F(-1), 2), (F(1, 2), 1)]
        assert cof == (1,)

    def test_found_factors_divide(self):
        rng = random.Random(7)
        for _ in range(50):
            deg = rng.randint(1, 6)
            roots = [F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(deg)]
            p = Poly.from_roots(roots) * F(rng.randint(1, 5))
            found, cof = rational_roots(p.coeffs)
            # Every claimed factor divides p exactly and nothing is missed.
            rebuilt = Poly.const(p.leading())
            for r, m in found:
                rebuilt = rebuilt * Poly([-r, 1]) ** m
            assert rebuilt * Poly(cof).monic() == p
            assert sum(m for _, m in found) == deg

    def test_brute_force_candidate_scan(self):
        rng = random.Random(11)
        for _ in range(50):
            deg = rng.randint(1, 6)
            roots = [F(rng.randint(-3, 3)) for _ in range(deg)]
            p = Poly.from_roots(roots)
            found, _ = rational_roots(p.coeffs)
            # Exhaustive scan over a wide window of candidates.
            brute = {}
            for num in range(-12, 13):
                for den in range(1, 7):
                    c = F(num, den)
                    if p(c) == 0:
                        q = p
                        m = 0
                        while q.degree >= 1 and q(c) == 0:
                            q = q // Poly([-c, 1])
                            m += 1
                        brute[c] = m
            assert dict(found) == brute

    def test_many_divisors_without_a_candidate_set(self, monkeypatch):
        # 7207200 has 432 divisors, so the pairs +-a/b number about 3.7e5;
        # the divisibility tests leave a few hundred to evaluate.
        evaluated, is_root = [0], exactalg._is_root

        def counting(*args):
            evaluated[0] += 1
            return is_root(*args)

        monkeypatch.setattr(exactalg, "_is_root", counting)
        roots, cof = rational_roots([7207200, 0, 0, 7207200])
        assert roots == [(F(-1), 1)]
        assert cof == (1, -1, 1)
        assert 0 < evaluated[0] < 1000

    def test_coefficient_at_the_bound_is_searched(self):
        roots, cof = rational_roots([-ROOT_SEARCH_BOUND, 1])
        assert roots == [(F(ROOT_SEARCH_BOUND), 1)]
        assert cof == (1,)

    @pytest.mark.parametrize(
        "coeffs",
        [[-(10**12 + 1), 1], [1, 0, 10**12 + 1], [1, F(1, 10**13)], [0, 10**21 + 1, 1]],
        ids=["trailing", "leading", "leading-after-clearing", "trailing-after-zero-root"],
    )
    def test_coefficient_above_the_bound_is_refused(self, coeffs):
        with pytest.raises(RootSearchBound, match=r"bound 10\^12"):
            rational_roots(coeffs)

    def test_content_is_divided_out_before_the_bound(self):
        # c (1 + u^3) at c = 10^13: the primitive form 1 + u^3 is searched.
        c = 10**13
        roots, cof = rational_roots([c, 0, 0, c])
        assert roots == [(F(-1), 1)]
        assert cof == (1, -1, 1)

    @pytest.mark.parametrize("content", [1, 2])
    def test_primitive_coefficient_above_the_bound_still_raises(self, content):
        # 10^12 + 1 is odd, so 2 (10^12 + 1) + 2 u^3 has the primitive form
        # (10^12 + 1) + u^3, whose trailing coefficient is above the bound.
        with pytest.raises(RootSearchBound, match=r"bound 10\^12"):
            rational_roots([content * (10**12 + 1), 0, 0, content])


class TestInvariants:
    def test_denominator_cleared_evaluation(self):
        rng = random.Random(3)
        u = RatFun.x()
        f = ((u + 1) * (u - F(1, 2))) / (u * (u + 3))
        count = 0
        while count < 100:
            x = F(rng.randint(-30, 30), rng.randint(1, 9))
            if f.den(x) == 0:
                continue
            assert f.den(x) * rf_eval(f, x) == f.num(x)
            count += 1

    def test_reduction_idempotent(self):
        rng = random.Random(5)
        for _ in range(40):
            n = Poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))] + [1])
            d = Poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))] + [1])
            f = RatFun(n, d)
            assert f.den.leading() == 1
            assert f.num.gcd(f.den).degree <= 0
            assert rf_equal(f, RatFun(n, d))

    def test_rat_string_roundtrip(self):
        assert rat("3/4") == F(3, 4)
        assert rat(-2) == F(-2)

    def test_ratfun_json_roundtrip(self):
        u = RatFun.x()
        f = (u * u - F(1, 3)) / (2 * u + 5)
        assert rf_to_json(f) == {"num": ["-1/6", "0", "1/2"], "den": ["5/2", "1"]}
        assert rf_to_json(RatFun.zero()) == {"num": [], "den": ["1"]}
        for g in (f, RatFun.zero(), RatFun.one(), 1 / u):
            assert rf_from_json(rf_to_json(g)) == g
        # The decoder reduces what it reads.
        assert rf_from_json({"num": ["0", "2"], "den": ["0", "4"]}) == RatFun.const(F(1, 2))


Z_POLY = st.lists(st.integers(-9, 9), max_size=5).map(trimmed)


class TestIntegerPolynomials:
    """Exact division and the primitive gcd on integer coefficient tuples,
    against Poly arithmetic over the rationals."""

    @settings(max_examples=200, deadline=None)
    @given(Z_POLY, Z_POLY.filter(bool))
    def test_exact_division_inverts_the_product(self, a, b):
        assert _zdiv(poly_mul(a, b), b) == a

    @settings(max_examples=200, deadline=None)
    @given(Z_POLY, Z_POLY.filter(bool))
    def test_inexact_division_is_refused(self, a, b):
        q, r = divmod(Poly(a), Poly(b))
        if r or any(c.denominator != 1 for c in q.coeffs):
            with pytest.raises(ArithmeticError):
                _zdiv(a, b)
        else:
            assert _zdiv(a, b) == tuple(int(c) for c in q.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(Z_POLY, Z_POLY, Z_POLY.filter(bool))
    def test_primitive_gcd(self, a, b, c):
        # A planted common factor c; the result is the monic gcd made
        # primitive with a positive leading coefficient.
        a, b = poly_mul(a, c), poly_mul(b, c)
        assume(a or b)
        g = poly_gcd(a, b)
        assert Poly(g).monic() == Poly(a).gcd(Poly(b))
        assert g[-1] > 0 and gcd(*g) == 1
        assert _zdiv(a, g) is not None and _zdiv(b, g) is not None

    def test_gcd_with_zero_and_with_a_constant(self):
        assert poly_gcd((), ()) == ()
        assert poly_gcd((0, 6, -4), ()) == (0, -3, 2)
        assert poly_gcd((5,), (0, 3)) == (1,)


@st.composite
def _zmatrix_pairs(draw):
    """(A, B): dense matrices of integer coefficient tuples, () for zero,
    of shapes n x m and m x p with n possibly 0, so rows may be empty and
    the shapes rectangular.  With cancel, A gains the columns a and -a and
    B the rows b and b, for a new column a and a new row b: two terms that
    cancel in every entry they reach, to zero where the rest of the
    product is zero."""
    n, m, p = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    A = [[draw(Z_POLY) for _ in range(m)] for _ in range(n)]
    B = [[draw(Z_POLY) for _ in range(p)] for _ in range(m)]
    cancel = draw(st.booleans())
    if cancel:
        a, b = [draw(Z_POLY) for _ in range(n)], [draw(Z_POLY) for _ in range(p)]
        A = [row + [x, exactalg._zneg(x)] for row, x in zip(A, a)]
        B = B + [b, b]
    return A, B, cancel


def _row_sparse(M):
    return [{c: e for c, e in enumerate(row) if e} for row in M]


class TestZMatmul:
    """exactalg._zmatmul, the one product of the row-sparse Z[u] layout,
    against the product of the same matrices with Poly entries."""

    @settings(max_examples=300, deadline=None)
    @given(_zmatrix_pairs())
    def test_matches_the_poly_product(self, case):
        A, B, cancel = case
        got = exactalg._zmatmul(_row_sparse(A), _row_sparse(B))
        assert len(got) == len(A)
        for i, row in enumerate(got):
            for j in range(len(B[0])):
                want = sum((Poly(A[i][k]) * Poly(B[k][j]) for k in range(len(B))), Poly())
                # An absent column is the only zero: nothing that cancels is stored.
                assert (j in row) == bool(want)
                assert Poly(row.get(j, ())) == want
        if cancel:
            # The cancelling pair leaves the product of the rest, under ==.
            m = len(B) - 2
            assert got == exactalg._zmatmul(_row_sparse([row[:m] for row in A]), _row_sparse(B[:m]))

    def test_columns_of_integer_vectors(self):
        assert exactalg._zcolumns([[1, 0, -2], [0, 0, 3]], 3) == [{0: (1,)}, {}, {0: (-2,), 1: (3,)}]
        assert exactalg._zmatmul([{0: (0, 1), 2: (1,)}], exactalg._zcolumns([[1, 0, -2], [0, 0, 3]], 3)) == [
            {0: (-2, 1), 1: (3,)}
        ]
