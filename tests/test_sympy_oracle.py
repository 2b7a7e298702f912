"""Property tests of the exact arithmetic against sympy as an independent
oracle: the characteristic and minimal polynomials and the integer
resolvent of rational matrices, polynomial gcd and division, the normal
form of rational functions and of cleared Z[u] data, expansions at
infinity, echelon forms and nullspaces, and the rational root search.  sympy is used here only,
never by the package."""

from fractions import Fraction
from math import gcd, lcm

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tyang._kernel import mat_rref, poly_mul
from tyang.exactalg import Poly, RatFun, _zadd, _zreduce, rational_roots
from tyang.superlinalg import cleared_resolvent, mat_nullspace, minpoly

from support import charpoly, ref_cleared_resolvent

U = sympy.Symbol("u")
T = sympy.Symbol("t")
FRACS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def to_fraction(c):
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def sym_poly(coeffs):
    """A coefficient sequence, constant term first, as a sympy Poly over QQ."""
    return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator) for c in coeffs])) or [0], U,
                      domain="QQ")


def from_sym(p):
    return Poly([to_fraction(c) for c in reversed(p.all_coeffs())])


def sym_matrix(A):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in A])


@st.composite
def rational_matrices(draw):
    """n x n rational matrices, n <= 5, with mixed denominators: random,
    singular (a row a combination of others, or zero), nilpotent (strictly
    triangular, permuted), scalar, and triangular with repeated eigenvalues."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "singular", "nilpotent", "scalar", "repeated"]))
    entry = lambda: draw(FRACS)
    zero = Fraction(0)
    if kind == "scalar":
        c = entry()
        return [[c if r == k else zero for k in range(n)] for r in range(n)]
    if kind in ("nilpotent", "repeated"):
        eig = [entry() for _ in range(draw(st.integers(1, 2)))]
        diag = [zero] * n if kind == "nilpotent" else [draw(st.sampled_from(eig)) for _ in range(n)]
        A = [[diag[r] if r == k else entry() if k > r else zero for k in range(n)] for r in range(n)]
        perm = draw(st.permutations(range(n)))
        return [[A[perm[r]][perm[k]] for k in range(n)] for r in range(n)]
    A = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        a, b = entry(), entry()
        A[-1] = [a * x + (b * y if n > 2 else 0) for x, y in zip(A[0], A[min(1, n - 1)])] if n > 1 else [zero]
    return A


def _scale(A):
    return lcm(*(x.denominator for row in A for x in row))


class TestCharpolyAndResolvent:
    @settings(max_examples=50, deadline=None)
    @given(rational_matrices())
    def test_charpoly_matches_sympy(self, A):
        want = sym_matrix(A).charpoly(U)
        assert charpoly(A) == from_sym(want)

    @settings(max_examples=50, deadline=None)
    @given(rational_matrices())
    def test_resolvent_inverts_s_u_minus_s_a(self, A):
        # R (s u - s A) = s d 1 in Z[u], s A integral.
        n, s = len(A), _scale(A)
        R, d = cleared_resolvent(A)
        M = [[_zadd((-int(s * A[k][c]),), (0, s) if k == c else ()) for c in range(n)] for k in range(n)]
        for r in range(n):
            for c in range(n):
                acc = ()
                for k in range(n):
                    acc = _zadd(acc, poly_mul(R[r].get(k, ()), M[k][c]))
                assert acc == (poly_mul((s,), d) if r == c else ())

    @settings(max_examples=50, deadline=None)
    @given(rational_matrices())
    def test_resolvent_is_reduced(self, A):
        # d has a positive leading coefficient, d and R share no integer
        # content and no polynomial factor: d is the lcm of the reduced
        # denominators up to a constant.
        R, d = cleared_resolvent(A)
        entries = [p for row in R for p in row.values()]
        assert all(entries) and d[-1] > 0
        assert gcd(*d, *(x for p in entries for x in p)) == 1
        g = sym_poly(d)
        for p in entries:
            g = sympy.gcd(g, sym_poly(p))
        assert g.degree() == 0
        assert all(type(x) is int for p in [d, *entries] for x in p)


class TestMinpoly:
    """minpoly(A) = (s, c, powers): sum_k c_k (s A)^k = 0 with c primitive,
    c[-1] > 0, and powers the first len(c) - 1 powers of s A."""

    @settings(max_examples=50, deadline=None)
    @given(rational_matrices())
    def test_annihilates_and_divides_charpoly(self, A):
        s, c, _powers = minpoly(A)
        assert s == _scale(A) and c[-1] > 0 and gcd(*c) == 1
        B = sym_matrix(A) * s
        n = len(A)
        assert sum((x * B**k for k, x in enumerate(c)), sympy.zeros(n, n)) == sympy.zeros(n, n)
        # mu(s u) = sum_k c_k s^k u^k vanishes on A and divides det(u - A).
        mu = sym_poly([Fraction(x * s**k) for k, x in enumerate(c)])
        _q, r = sympy.div(sympy.Poly(sym_matrix(A).charpoly(U).as_expr(), U, domain="QQ"), mu)
        assert r.is_zero

    @settings(max_examples=50, deadline=None)
    @given(rational_matrices())
    def test_lower_powers_are_independent(self, A):
        # powers holds 1, B, ..., B^(m-1), m = deg mu, and they are
        # independent: no polynomial of lower degree annihilates B.
        s, c, powers = minpoly(A)
        B = sym_matrix(A) * s
        m = len(c) - 1
        assert len(powers) == m
        for k, P in enumerate(powers):
            assert all(type(x) is int for row in P for x in row)
            assert sympy.Matrix(P) == B**k
        flat = sympy.Matrix([[x for row in P for x in row] for P in powers])
        assert flat.rank() == m

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices())
    def test_resolvent_matches_faddeev_leverrier(self, A):
        # The reduced adjoint gives the full adjugate's (R, d) exactly.
        R, d = cleared_resolvent(A)
        assert (R, d) == ref_cleared_resolvent(A)
        assert all(type(x) is int for p in [d, *(e for row in R for e in row.values())] for x in p)


POLYS = st.lists(FRACS, min_size=0, max_size=6).map(Poly)


class TestPolyAgainstSympy:
    @settings(max_examples=50, deadline=None)
    @given(POLYS, POLYS, POLYS)
    def test_gcd(self, a, b, c):
        # A common factor c makes the gcd nontrivial often.
        a, b = a * c, b * c
        want = sympy.gcd(sym_poly(a.coeffs), sym_poly(b.coeffs))
        want = want.monic() if not want.is_zero else want
        assert a.gcd(b) == from_sym(want)

    @settings(max_examples=50, deadline=None)
    @given(POLYS, POLYS)
    def test_divmod(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        wq, wr = sympy.div(sym_poly(a.coeffs), sym_poly(b.coeffs))
        assert (q, r) == (from_sym(wq), from_sym(wr))


NONZERO_POLYS = POLYS.filter(bool)


def sym_expr(p):
    return sym_poly(p.coeffs).as_expr()


class TestNormalFormAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(POLYS, NONZERO_POLYS, NONZERO_POLYS)
    def test_ratfun_is_sympy_cancel_with_a_monic_denominator(self, a, b, c):
        # A common factor c makes the reduction nontrivial often.
        f = RatFun(a * c, b * c)
        assert f.den.leading() == 1
        assert sympy.gcd(sym_poly(f.num.coeffs), sym_poly(f.den.coeffs)).degree() <= 0
        n, d = sympy.fraction(sympy.cancel(sym_expr(a * c) / sym_expr(b * c)))
        n, d = sympy.Poly(n, U, domain="QQ"), sympy.Poly(d, U, domain="QQ")
        lead = d.LC()
        assert (f.num, f.den) == (from_sym(n.quo_ground(lead)), from_sym(d.monic()))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda p: p[-1]),
           st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda p: p[-1]),
                    min_size=1, max_size=3),
           st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(lambda p: p[-1]))
    def test_zreduce_is_coprime_primitive_and_equal(self, den, entries, common):
        # Every fraction e / den keeps its value; den gets a positive
        # leading coefficient and shares no content and no factor with
        # the entries.
        den, entries = poly_mul(tuple(den), tuple(common)), [poly_mul(tuple(e), tuple(common)) for e in entries]
        d, es = _zreduce(den, entries)
        assert d[-1] > 0
        assert gcd(*d, *(x for e in es for x in e)) == 1
        g = sym_poly(d)
        for e in es:
            g = sympy.gcd(g, sym_poly(e))
        assert g.degree() == 0
        assert all(poly_mul(e, den) == poly_mul(e0, d) for e, e0 in zip(es, entries))


class TestSeriesAgainstSympy:
    @settings(max_examples=40, deadline=None)
    @given(POLYS, NONZERO_POLYS, st.integers(0, 5))
    def test_expansion_at_infinity(self, a, b, order):
        if a.degree > b.degree:
            a, b = b, a
        # f(1/t) = A(t) / B(t) with B(0) != 0; its Taylor coefficients up
        # to t^order are those of A B^-1 mod t^(order + 1).
        f = RatFun(a, b)
        A, B = sympy.fraction(sympy.together((sym_expr(a) / sym_expr(b)).subs(U, 1 / T)))
        trunc = T ** (order + 1)
        want = sympy.Poly(sympy.rem(sympy.expand(A * sympy.invert(B, trunc)), trunc, T), T, domain="QQ")
        assert f.series(order) == [to_fraction(want.coeff_monomial(T**r)) for r in range(order + 1)]


@st.composite
def rank_deficient_matrices(draw):
    """Rational matrices of up to 4 x 5, plus up to four rows drawn from a
    zero row, a repeated row, a scaled row and a combination of two rows,
    shuffled."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    A = [[draw(FRACS) for _ in range(m)] for _ in range(n)]
    a, b = draw(FRACS), draw(FRACS)
    extra = [[Fraction(0)] * m, list(A[0]), [a * x for x in A[-1]],
             [a * x + b * y for x, y in zip(A[0], A[-1])]]
    rows = A + draw(st.lists(st.sampled_from(extra), max_size=4))
    return draw(st.permutations(rows))



class TestEchelonAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(rank_deficient_matrices())
    def test_rref_and_pivots(self, A):
        R, pivots = mat_rref([list(r) for r in A])
        want, want_pivots = sym_matrix(A).rref()
        assert pivots == list(want_pivots)
        assert R == [[to_fraction(x) for x in want.row(i)] for i in range(want.rows)]

    @settings(max_examples=60, deadline=None)
    @given(rank_deficient_matrices())
    def test_nullspace(self, A):
        basis = mat_nullspace(A)
        want = sym_matrix(A).nullspace()
        assert basis == [[to_fraction(x) for x in v] for v in want]


@st.composite
def polys_with_rational_roots(draw):
    """Products of linear factors with small rational roots (some repeated)
    and a random cofactor of small integer coefficients."""
    roots = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4))
    roots += draw(st.lists(st.sampled_from(roots), max_size=2)) if roots else []
    cof = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda cs: cs[-1]))
    lead = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
    return Poly.from_roots(roots) * Poly(cof) * lead


@st.composite
def polys_with_many_divisors(draw):
    """Integer polynomials lead * prod (b u - a) * cof with roots a/b among
    +-1 and fractions of small smooth numbers, some repeated, and a highly
    composite lead, so the trailing and leading coefficients have many
    divisors and the divisibility tests of the root search are stressed.
    Both stay below 10^10, well inside the search bound."""
    pool = [(1, 1), (-1, 1), (6, 1), (-10, 1), (1, 2), (-2, 3), (5, 4), (-7, 6), (9, 10), (-1, 12)]
    roots = draw(st.lists(st.sampled_from(pool), max_size=3))
    roots += [r for r in roots if draw(st.booleans())]
    cof = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=3).filter(lambda cs: cs[-1] and cs[0]))
    lead = draw(st.sampled_from([1, 720, 5040, 55440, 720720, 7207200, -360360]))
    f = (lead,)
    for a, b in roots:
        f = poly_mul(f, (-a, b))
    f = poly_mul(f, tuple(cof))
    assume(abs(f[0]) < 10**10 and abs(f[-1]) < 10**10)
    return Poly(f)


class TestRationalRootsAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(polys_with_rational_roots(), polys_with_many_divisors()))
    def test_roots_with_multiplicities(self, p):
        roots, cof = rational_roots(p.coeffs)
        want = sympy.roots(sym_poly(p.coeffs), filter="Q")
        assert roots == sorted((to_fraction(r), m) for r, m in want.items())
        assert Poly.from_roots([r for r, m in roots for _ in range(m)]) * Poly(cof) * (p.leading() / cof[-1]) == p
        assert all(isinstance(c, int) for c in cof) and gcd(*cof) == 1
        if len(cof) > 1:
            assert not sympy.roots(sym_poly(cof), filter="Q")
