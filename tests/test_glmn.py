import itertools
import random
from fractions import Fraction

import pytest

from support import IrrationalSpectrum, gl_tensor, gl_to_json, verify_gl_module, weight_decompose

from tyang.glmn import (
    GlModule,
    ParameterError,
    ParitySeq,
    gl_from_json,
    make_Lab,
    make_vector_rep,
)


def F(a, b=1):
    return Fraction(a, b)


def all_parity_seqs(max_kappa):
    for k in range(1, max_kappa + 1):
        for signs in itertools.product([1, -1], repeat=k):
            yield ParitySeq(signs)


class TestParitySeq:
    def test_counts(self):
        ps = ParitySeq([1, -1, -1])
        assert (ps.m, ps.n, ps.kappa) == (1, 2, 3)
        assert ps.parities == (0, 1, 1)

    def test_rho_telescopes(self):
        for ps in all_parity_seqs(4):
            assert ps.rho(ps.kappa + 1) == 0
            assert ps.rho(1) == ps.m - ps.n == 2 * ps.jay
            for k in range(1, ps.kappa + 1):
                assert ps.rho(k) - ps.rho(k + 1) == ps.sign(k)

    def test_standard(self):
        assert ParitySeq([1, 1, -1]).is_standard()
        assert not ParitySeq([1, -1, 1]).is_standard()


class TestVectorRep:
    def test_basic_action(self):
        ps = ParitySeq([1, -1])
        V = make_vector_rep(ps)
        e11, e22, e21 = V.e(1, 1), V.e(2, 2), V.e(2, 1)
        v1, v2 = [F(1), F(0)], [F(0), F(1)]
        from tyang.superlinalg import mat_vec

        assert mat_vec(e11, v1) == v1
        assert mat_vec(e22, v1) == [F(0), F(0)]
        assert mat_vec(e21, v1) == v2
        assert mat_vec(e21, v2) == [F(0), F(0)]

    def test_relations_all_small_ps(self):
        for ps in all_parity_seqs(4):
            assert verify_gl_module(make_vector_rep(ps)) is None

    def test_weights_are_unit_vectors(self):
        ps = ParitySeq([1, -1, 1])
        V = make_vector_rep(ps)
        dec = weight_decompose(V)
        expected = {
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        }
        assert set(dec) == expected
        assert all(len(b) == 1 for b in dec.values())


class TestLab:
    def test_weights(self):
        L = make_Lab(1, 1, 2)
        assert L.weight_of([F(1), F(0)]) == (F(1), F(2))
        assert L.weight_of([F(0), F(1)]) == (F(0), F(3))

    def test_relations(self):
        assert verify_gl_module(make_Lab(1, 1, 2)) is None

    def test_relations_random_sweep(self):
        rng = random.Random(17)
        done = 0
        while done < 25:
            a = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            b = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            if a + b == 0:
                continue
            s1 = rng.choice([1, -1])
            assert verify_gl_module(make_Lab(s1, a, b)) is None
            done += 1

    def test_degenerate_rejected(self):
        with pytest.raises(ParameterError):
            make_Lab(1, F(3), F(-3))


class TestVerifyNegative:
    def test_zeroed_generator_detected(self):
        ps = ParitySeq([1, -1])
        V = make_vector_rep(ps)
        broken = dict(V.action)
        broken[(1, 2)] = [[F(0), F(0)], [F(0), F(0)]]
        M = GlModule(ps, V.space, broken)
        assert verify_gl_module(M) is not None


class TestTensor:
    def test_tensor_satisfies_relations(self):
        L = make_Lab(1, 1, 2)
        T = gl_tensor(L, L)
        assert verify_gl_module(T) is None

    def test_tensor_weights_counted(self):
        L = make_Lab(1, 1, 2)
        T = gl_tensor(L, L)
        dec = weight_decompose(T)
        # Four one-dimensional weight spaces: sums of the factor weights.
        assert sum(len(b) for b in dec.values()) == 4
        assert T.weight_of([F(1), F(0), F(0), F(0)]) == (F(2), F(4))

    def test_vector_tensor_vector(self):
        ps = ParitySeq([1, -1])
        V = make_vector_rep(ps)
        T = gl_tensor(V, V)
        assert verify_gl_module(T) is None
        dec = weight_decompose(T)
        assert sum(len(b) for b in dec.values()) == 4


class TestWeightDecompose:
    def test_nilpotent_diagonal_rejected(self):
        ps = ParitySeq([1])
        act = {(1, 1): [[F(0), F(1)], [F(0), F(0)]]}
        M = GlModule(ps, type(ps.space())([0, 0]), act)
        with pytest.raises(IrrationalSpectrum):
            weight_decompose(M)

    def test_irrational_rejected(self):
        ps = ParitySeq([1])
        act = {(1, 1): [[F(0), F(1)], [F(2), F(0)]]}  # eigenvalues +-sqrt(2)
        M = GlModule(ps, type(ps.space())([0, 0]), act)
        with pytest.raises(IrrationalSpectrum):
            weight_decompose(M)


class TestSerialization:
    def test_roundtrip(self):
        L = make_Lab(-1, F(5, 2), F(1, 2))
        data = gl_to_json(L)
        back = gl_from_json(data)
        assert back.ps == L.ps
        assert back.action == L.action
        assert back.space.parities == L.space.parities
