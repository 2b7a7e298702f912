"""The grid bounds and verdicts of the RTT, reflection and Yang-Baxter
certificates against both sides formed exactly over Z[u, v].

Every call of check_identity_2var made by verify_rtt (exchange,
mixed-left, mixed-right, in that order), verify_b (reflection) and
verify_yang_baxter is recorded.  The sympy oracle of support.py forms the
two sides of the same identity from the cleared forms, with the grid's
scale, on carriers with dim kappa <= 4.  For each recorded call:

- the oracle's sides agree with the certifier's at the first point
  evaluated (the Kronecker point), so they are the polynomials it samples;
- the degree bound passed equals the bidegree of those sides, so a bound
  one lower in either variable fails here, and none is larger than needed;
- the height passed is at least the largest absolute coefficient of the
  oracle's lhs - rhs, so the one point certifies, and at least twice the
  largest of either side, the bound certify_words derives for every
  identity, whether or not its sides agree;
- the verdict equals the exact one (lhs - rhs == 0), on positive cases
  and on negative controls, and a witness is the first failing point of
  the grid-only oracle certifier run on the oracle's sides.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from support import (
    ref_check_identity_2var,
    sym_at,
    sym_bidegree,
    sym_flip,
    sym_height,
    sym_reflection_sides,
    sym_rtt_sides,
    sym_yang_baxter_sides,
)

from tyang import twisted, yangian
from tyang.glmn import ParitySeq, make_Lab, make_vector_rep
from tyang.superlinalg import check_identity_2var
from tyang.yangian import (
    TAction,
    TPrimeAction,
    evaluation_action,
    inverse_series_action,
    trivial_action,
    verify_rtt,
    verify_yang_baxter,
)

RTT_ORDER = ("exchange", "mixed-left", "mixed-right")


def _densify(rows):
    """Square row-sparse integer rows as a dense matrix."""
    return [[row.get(c, 0) for c in range(len(rows))] for row in rows]


@pytest.fixture
def grid_calls(monkeypatch):
    """The calls of check_identity_2var, all made by
    yangian.certify_words, as
    (deg_bound, height, first point evaluated, lhs there, rhs there,
    witness, keyword arguments) tuples.  The certifiers form their sides
    row-sparse; the recorded sides, and those of a witness, are dense."""
    calls = []

    def recording(lhs_eval, rhs_eval, deg_bound, height, **kwargs):
        first = []

        def lhs(u0, v0):
            out = lhs_eval(u0, v0)
            if not first:
                first.extend([(u0, v0), _densify(out)])
            return out

        def rhs(u0, v0):
            out = rhs_eval(u0, v0)
            if len(first) == 2:
                first.append(_densify(out))
            return out

        w = check_identity_2var(lhs, rhs, deg_bound, height, **kwargs)
        dense = w and replace(w, lhs=_densify(w.lhs), rhs=_densify(w.rhs))
        calls.append((deg_bound, height, *first, dense, kwargs))
        return w

    monkeypatch.setattr(yangian, "check_identity_2var", recording)
    return calls


def assert_matches_oracle(call, sides, tight):
    """The recorded grid call against the exact sides (lhs, rhs)."""
    deg_bound, height, (u0, v0), grid_lhs, grid_rhs, w, kwargs = call
    lhs, rhs = sides
    n = len(grid_lhs)
    assert sym_at(lhs, n, u0, v0) == grid_lhs
    assert sym_at(rhs, n, u0, v0) == grid_rhs
    d_u, d_v = sym_bidegree(lhs, rhs)
    assert d_u <= deg_bound[0] and d_v <= deg_bound[1]
    if tight:
        assert deg_bound == (d_u, d_v)
    assert sym_height(lhs, rhs) <= height
    assert 2 * max(sym_height(lhs, {}), sym_height(rhs, {})) <= height
    assert (w is None) == (lhs == rhs)
    if w is not None:
        ref = ref_check_identity_2var(
            lambda u, v: sym_at(lhs, n, u, v), lambda u, v: sym_at(rhs, n, u, v), deg_bound, **kwargs
        )
        assert (w.point, w.lhs, w.rhs) == (ref.point, ref.lhs, ref.rhs)


def _lab():
    return evaluation_action(make_Lab(1, 3, F(1, 2)), 1)


def _vector(signs, z):
    return evaluation_action(make_vector_rep(ParitySeq(signs)), z)


def _negated(T, key):
    return TAction(T.ps, T.space, T.cleared().negate_block(key))


def _wrong_tprime(T, key):
    T._tprime = TPrimeAction(T.ps, T.space, inverse_series_action(T).cleared().negate_block(key))
    return T


RTT_CASES = {
    # name: (family, passes)
    "Lab": (_lab, True),
    "vector-1|1": (lambda: _vector([1, -1], 2), True),
    "vector-2|0": (lambda: _vector([1, 1], F(-1, 3)), True),
    "vector-0|1": (lambda: _vector([-1], 5), True),
    "trivial-2|2": (lambda: trivial_action(ParitySeq([1, -1, -1, 1])), True),
    "negated-t21": (lambda: _negated(_vector([1, -1], 2), (2, 1)), False),
    "negated-t12-Lab": (lambda: _negated(_lab(), (1, 2)), False),
    "wrong-tprime": (lambda: _wrong_tprime(_lab(), (1, 2)), False),
}


@pytest.mark.parametrize("name", RTT_CASES)
def test_rtt_bounds_and_verdicts(grid_calls, name):
    build, passes = RTT_CASES[name]
    T = build()
    assert T.dim * T.kappa <= 4
    w = verify_rtt(T)
    assert (w is None) == passes
    # verify_rtt stops at the first failing identity.
    assert len(grid_calls) == (3 if passes else RTT_ORDER.index(w.label) + 1)
    # T'(-u), as verify_rtt evaluates it: the family of its form's neg_u.
    Tpn = TPrimeAction(T.ps, T.space, inverse_series_action(T).cleared().neg_u())
    pairs = {"exchange": (T, T), "mixed-left": (Tpn, T), "mixed-right": (T, Tpn)}
    for label, call in zip(RTT_ORDER, grid_calls):
        first, second = pairs[label]
        assert call[0] == (first.cleared().degree + 1, second.cleared().degree + 1)
        assert_matches_oracle(call, sym_rtt_sides(label, first, second), tight=passes)


def test_rtt_bound_differs_per_variable(grid_calls):
    # On L(a, b) T has cleared degree 1 and T' degree 2, so the mixed
    # identities need a 3 x 4 and a 4 x 3 grid.
    assert verify_rtt(_lab()) is None
    assert [call[0] for call in grid_calls] == [(2, 2), (3, 2), (2, 3)]


def _b_lab(eps, gamma):
    L = _lab()
    return twisted.b_from_T(L, twisted.TwistedContext(L.ps, eps, gamma))


def _negated_b(B, key):
    return twisted.BAction(B.ctx, B.space, B.cleared().negate_block(key))


def _b_tensor():
    V = _vector([1, -1], 3)
    return twisted.b_tensor(V, twisted.c_gamma(twisted.TwistedContext(V.ps, [1, -1]), 1))


REFLECTION_CASES = {
    "Lab-gamma": (lambda: _b_lab([1, -1], F(2, 3)), True),
    "Lab": (lambda: _b_lab([1, 1], None), True),
    "c-gamma": (lambda: twisted.c_gamma(twisted.TwistedContext(ParitySeq([1, -1, 1, 1]), [1, 1, -1, 1]), 2), True),
    "tensor": (_b_tensor, True),
    "negated-b12": (lambda: _negated_b(_b_lab([1, -1], F(2, 3)), (1, 2)), False),
}


@pytest.mark.parametrize("name", REFLECTION_CASES)
def test_reflection_bound_and_verdict(grid_calls, name):
    build, passes = REFLECTION_CASES[name]
    B = build()
    assert B.dim * B.kappa <= 4
    rep = twisted.verify_b(B)
    assert (rep.reflection is None) == passes
    [call] = grid_calls
    d = B.cleared().degree
    assert call[0] == (d + 2, d + 2)
    assert_matches_oracle(call, sym_reflection_sides(B), tight=passes)


@pytest.mark.parametrize("signs", [[1], [-1], [1, 1], [1, -1], [-1, 1], [-1, -1]])
def test_yang_baxter_bound_and_verdict(grid_calls, signs):
    ps = ParitySeq(signs)
    assert verify_yang_baxter(ps) is None
    [call] = grid_calls
    assert call[0] == (2, 2)
    assert_matches_oracle(call, sym_yang_baxter_sides(ps), tight=True)


def test_yang_baxter_unsigned_flip(grid_calls, monkeypatch):
    # P13 without its signs breaks the braid identity for gl(1|1), and the
    # exact sides differ too.
    ps = ParitySeq([1, -1])
    unsigned = {key: 1 for key in sym_flip(ps, 1, 3, 3)}
    signed = yangian.flip_at
    rows = [{c: s for (r, c), s in unsigned.items() if r == row} for row in range(8)]
    monkeypatch.setattr(yangian, "flip_at", lambda ps, a, b, k: rows if (a, b) == (1, 3) else signed(ps, a, b, k))
    w = verify_yang_baxter(ps)
    assert w is not None
    [call] = grid_calls
    flips = {(1, 2): sym_flip(ps, 1, 2, 3), (1, 3): unsigned, (2, 3): sym_flip(ps, 2, 3, 3)}
    lhs, rhs = sym_yang_baxter_sides(ps, flips)
    assert lhs != rhs
    assert_matches_oracle(call, (lhs, rhs), tight=False)


def test_flip_is_the_graded_permutation():
    # The oracle's flips are the library's, so the oracle sides above are
    # built from independent factors that agree with them.
    for signs in ([1], [-1], [1, -1], [-1, -1], [1, -1, 1]):
        ps = ParitySeq(signs)
        for n, pairs in ((2, [(1, 2)]), (3, [(1, 2), (1, 3), (2, 3)])):
            for a, b in pairs:
                dense = {(r, c): s for r, row in enumerate(yangian.flip_at(ps, a, b, n)) for c, s in row.items()}
                assert dense == sym_flip(ps, a, b, n)
