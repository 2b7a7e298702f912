import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tyang.cli import InputError, run_scenario
from tyang.daha import (
    DahaModule,
    DahaParams,
    WGroup,
    char_module,
    daha_from_json,
    daha_to_json,
    group_rows,
    induce_pair,
    principal_series,
    restrict_to_type_a,
    sf_presentation,
    verify_daha,
    center_check,
    w_apply,
    w_compose,
    w_gen,
    w_sigma,
    w_zeta,
)
from tyang._kernel import mat_mul
from tyang.superlinalg import _dense, sparse_mul

from support import ref_center_check, ref_induced_y, ref_sf_presentation, ref_verify_daha


def F(a, b=1):
    return Fraction(a, b)


class TestCharModules:
    def test_one_letter_value(self):
        p = DahaParams(1, 1, 2)
        c = char_module(p, 1, 1)
        assert _dense(c.y[0], 1) == [[F(1)]]  # theta2/2
        assert verify_daha(c) is None

    def test_two_letter_values(self):
        p = DahaParams(2, 1, 2)
        assert [_dense(m, 1)[0][0] for m in char_module(p, 1, 1).y] == [F(2), F(1)]
        assert [_dense(m, 1)[0][0] for m in char_module(p, -1, 1).y] == [F(0), F(1)]

    def test_all_sign_pairs_verify(self):
        for l in (1, 2, 3):
            p = DahaParams(l, F(1, 2), F(3))
            for ss, sz in itertools.product([1, -1], repeat=2):
                assert verify_daha(char_module(p, ss, sz)) is None

    def test_parameter_sweep(self):
        rng = random.Random(4)
        for _ in range(10):
            th1 = F(rng.randint(1, 7), rng.randint(1, 3))
            th2 = F(rng.randint(1, 7), rng.randint(1, 3))
            p = DahaParams(2, th1, th2)
            for ss, sz in itertools.product([1, -1], repeat=2):
                c = char_module(p, ss, sz)
                assert verify_daha(c) is None
                assert _dense(c.y[1], 1)[0][0] == sz * th2 / 2
                assert _dense(c.y[0], 1)[0][0] == sz * th2 / 2 + ss * th1


class TestPrincipalSeries:
    def test_one_letter_matrix(self):
        p = DahaParams(1, 1, 2)
        M = principal_series(p, [F(3)])
        assert M.dim == 2
        assert _dense(M.y[0], 2) == [[F(3), F(2)], [F(0), F(-3)]]
        assert verify_daha(M) is None

    def test_two_letter_dim_and_relations(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        assert M.dim == 8
        assert verify_daha(M) is None

    def test_three_letter(self):
        p = DahaParams(3, 1, 2)
        M = principal_series(p, [F(3), F(1), F(-2)])
        assert M.dim == 48
        assert verify_daha(M) is None

    def test_corrupted_module_detected(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        bad = [[x + (1 if r == c else 0) for c, x in enumerate(row)] for r, row in enumerate(_dense(M.y[1], M.dim))]
        broken = DahaModule(p, M.dim, M.sigma, M.varsigma_l, [M.y[0], bad])
        assert verify_daha(broken) is not None


class TestTypeARestriction:
    def test_bc_restricts_to_a(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        assert verify_daha(restrict_to_type_a(M)) is None


class TestSfPresentation:
    def test_one_letter_character_vanishes(self):
        p = DahaParams(1, 1, 2)
        c = char_module(p, 1, 1)
        ys, fail = sf_presentation(c)
        assert fail is None
        assert _dense(ys[0], 1) == [[F(0)]]

    def test_principal_series_relations(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        ys, fail = sf_presentation(M)
        assert fail is None

    def test_last_flip_anticommutes_everywhere(self):
        for build in (
            lambda: char_module(DahaParams(2, 1, 2), -1, 1),
            lambda: principal_series(DahaParams(2, 1, 2), [F(3), F(1)]),
        ):
            M = build()
            ys, fail = sf_presentation(M)
            assert fail is None
            z = _dense(M.varsigma_l, M.dim)
            lhs = mat_mul(z, _dense(ys[-1], M.dim))
            rhs = mat_mul(_dense(ys[-1], M.dim), z)
            assert all(
                a + b == 0 for r1, r2 in zip(lhs, rhs) for a, b in zip(r1, r2)
            )


class TestCenter:
    def test_sum_of_squares_is_central(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        assert center_check(M, {(2, 0): 1, (0, 2): 1}) is None

    def test_linear_is_not_central(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        assert center_check(M, {(1, 0): 1}) == "sigma_1"

    def test_constant_is_central(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        assert center_check(M, {(0, 0): 1}) is None

    def test_three_letter_power_sum(self):
        p = DahaParams(3, 1, 2)
        M = principal_series(p, [F(3), F(1), F(-2)])
        assert center_check(M, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}) is None


class TestInduction:
    def test_induced_pair_is_a_module(self):
        m1 = DahaModule(DahaParams(1, 1, kind="A"), 1, [], None, [[[F(5)]]])
        m2 = char_module(DahaParams(1, 1, 2), 1, 1)
        ind = induce_pair(m1, m2, DahaParams(2, 1, 2))
        assert ind.dim == 4
        assert verify_daha(ind) is None

    def test_induced_with_negative_flip(self):
        m1 = DahaModule(DahaParams(1, 1, kind="A"), 1, [], None, [[[F(-1, 2)]]])
        m2 = char_module(DahaParams(1, 1, 2), 1, -1)
        ind = induce_pair(m1, m2, DahaParams(2, 1, 2))
        assert verify_daha(ind) is None


class TestSerialization:
    def test_roundtrip(self):
        p = DahaParams(2, 1, 2)
        M = principal_series(p, [F(3), F(1)])
        back = daha_from_json(daha_to_json(M))
        assert back.sigma == M.sigma
        assert back.varsigma_l == M.varsigma_l
        assert back.y == M.y


# A daha-json module: the pair induced from y = 5 on a type-A letter and the
# trivial character of a flip letter, theta1 = 1 and theta2 = 2.
INDUCED_JSON = {
    "l": 2, "kind": "BC", "theta1": "1", "theta2": "2", "dim": 4,
    "sigma": [[["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "1", "0"]]],
    "sigmaL": [["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"]],
    "y": [
        [["5", "1", "1", "2"], ["0", "1", "0", "1"], ["0", "0", "1", "1"], ["0", "0", "0", "-5"]],
        [["1", "-1", "1", "0"], ["0", "5", "2", "1"], ["0", "0", "-5", "-1"], ["0", "0", "0", "1"]],
    ],
}


# The pair induced from two-dimensional factors, theta1 = 1 and theta2 = 2:
# y_1 = [[2, 1], [0, -1]] on a type-A letter and the one-letter principal
# series at lambda = 1/2.  The daha_to_json rows were frozen from a PBW
# straightening construction, independent of the recursion along the group.
INDUCED_2X2_ROWS = {
    "sigma": [[
        "   0    0    0    0    1    0    0    0    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    1    0    0    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    1    0    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    1    0    0    0    0    0    0    0    0",
        "   1    0    0    0    0    0    0    0    0    0    0    0    0    0    0    0",
        "   0    1    0    0    0    0    0    0    0    0    0    0    0    0    0    0",
        "   0    0    1    0    0    0    0    0    0    0    0    0    0    0    0    0",
        "   0    0    0    1    0    0    0    0    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    1    0    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    1    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    0    1    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    0    0    1",
        "   0    0    0    0    0    0    0    0    1    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    0    1    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    0    0    1    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    1    0    0    0    0",
    ]],
    "sigmaL": [
        "   0    1    0    0    0    0    0    0    0    0    0    0    0    0    0    0",
        "   1    0    0    0    0    0    0    0    0    0    0    0    0    0    0    0",
        "   0    0    0    1    0    0    0    0    0    0    0    0    0    0    0    0",
        "   0    0    1    0    0    0    0    0    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    1    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    0    1    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    0    0    1    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    1    0    0    0    0",
        "   0    0    0    0    1    0    0    0    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    1    0    0    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    1    0    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    1    0    0    0    0    0    0    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    1    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    1    0    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    0    0    1",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    0    1    0",
    ],
    "y": [[
        "   2    0    1    0    1    0    0    0    0    1    0    0    2    0    0    0",
        "   0    2    0    1    0    1    0    0    1    0    0    0    0    2    0    0",
        "   0    0   -1    0    0    0    1    0    0    0    0    1    0    0    2    0",
        "   0    0    0   -1    0    0    0    1    0    0    1    0    0    0    0    2",
        "   0    0    0    0  1/2    2    0    0    0    0    0    0    0    1    0    0",
        "   0    0    0    0    0 -1/2    0    0    0    0    0    0    1    0    0    0",
        "   0    0    0    0    0    0  1/2    2    0    0    0    0    0    0    0    1",
        "   0    0    0    0    0    0    0 -1/2    0    0    0    0    0    0    1    0",
        "   0    0    0    0    0    0    0    0  1/2    2    0    0    1    0    0    0",
        "   0    0    0    0    0    0    0    0    0 -1/2    0    0    0    1    0    0",
        "   0    0    0    0    0    0    0    0    0    0  1/2    2    0    0    1    0",
        "   0    0    0    0    0    0    0    0    0    0    0 -1/2    0    0    0    1",
        "   0    0    0    0    0    0    0    0    0    0    0    0   -2    0   -1    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0   -2    0   -1",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    0    1    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    0    0    1",
    ], [
        " 1/2    2    0    0   -1    0    0    0    0    1    0    0    0    0    0    0",
        "   0 -1/2    0    0    0   -1    0    0    1    0    0    0    0    0    0    0",
        "   0    0  1/2    2    0    0   -1    0    0    0    0    1    0    0    0    0",
        "   0    0    0 -1/2    0    0    0   -1    0    0    1    0    0    0    0    0",
        "   0    0    0    0    2    0    1    0    2    0    0    0    0    1    0    0",
        "   0    0    0    0    0    2    0    1    0    2    0    0    1    0    0    0",
        "   0    0    0    0    0    0   -1    0    0    0    2    0    0    0    0    1",
        "   0    0    0    0    0    0    0   -1    0    0    0    2    0    0    1    0",
        "   0    0    0    0    0    0    0    0   -2    0   -1    0   -1    0    0    0",
        "   0    0    0    0    0    0    0    0    0   -2    0   -1    0   -1    0    0",
        "   0    0    0    0    0    0    0    0    0    0    1    0    0    0   -1    0",
        "   0    0    0    0    0    0    0    0    0    0    0    1    0    0    0   -1",
        "   0    0    0    0    0    0    0    0    0    0    0    0  1/2    2    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0 -1/2    0    0",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    0  1/2    2",
        "   0    0    0    0    0    0    0    0    0    0    0    0    0    0    0 -1/2",
    ]],
}
INDUCED_2X2_JSON = {
    "l": 2, "kind": "BC", "theta1": "1", "theta2": "2", "dim": 16,
    "sigma": [[row.split() for row in m] for m in INDUCED_2X2_ROWS["sigma"]],
    "sigmaL": [row.split() for row in INDUCED_2X2_ROWS["sigmaL"]],
    "y": [[row.split() for row in m] for m in INDUCED_2X2_ROWS["y"]],
}


def _principal_l3_json():
    return daha_to_json(principal_series(DahaParams(3, 1, 2), [F(3), F(1), F(-2)]))


def _swap_sigma_rows(k, a, b):
    def perturb(data):
        s = data["sigma"][k - 1]
        s[a], s[b] = s[b], s[a]
    return perturb


def _flip_zeta(r):
    """Negate the one nonzero entry of row r of zeta."""
    def perturb(data):
        row = data["sigmaL"][r]
        c = next(c for c, x in enumerate(row) if Fraction(x))
        row[c] = str(-Fraction(row[c]))
    return perturb


def _bump_y(i, r, c):
    def perturb(data):
        data["y"][i - 1][r][c] = str(Fraction(data["y"][i - 1][r][c]) + 1)
    return perturb


def _shift_y(i):
    """Add the identity to y_i."""
    def perturb(data):
        for r in range(data["dim"]):
            data["y"][i - 1][r][r] = str(Fraction(data["y"][i - 1][r][r]) + 1)
    return perturb


def _set_theta2(data):
    data["theta2"] = "3"


class TestNegativeControls:
    """One perturbed generator entry (or parameter) per module.  The pinned
    (verify_daha, sf_presentation) ids are the ones the dense Fraction
    implementation returned on the same inputs."""

    @pytest.mark.parametrize(
        "module, perturb, want",
        [
            (_principal_l3_json, _swap_sigma_rows(1, 0, 1), ("sigma_1 y_1", "sigma_1 yb_1")),
            (_principal_l3_json, _swap_sigma_rows(2, 0, 1), ("sigma_2^2", "sigma_2 yb_2")),
            (_principal_l3_json, _flip_zeta(0), ("zeta^2", "sigma_1 yb_1")),
            (_principal_l3_json, _bump_y(3, 0, 0), ("sigma_1 y_3", "sigma_1 yb_3")),
            (_principal_l3_json, _shift_y(3), ("sigma_2 y_2", "sigma_2 yb_2")),
            (_principal_l3_json, _set_theta2, ("zeta y_l", "zeta yb_l")),
            (lambda: INDUCED_JSON, _swap_sigma_rows(1, 0, 1), ("sigma_1 y_1", "sigma_1 yb_1")),
            (lambda: INDUCED_JSON, _flip_zeta(0), ("zeta braid", "zeta yb_l")),
            (lambda: INDUCED_JSON, _flip_zeta(1), ("zeta^2", "zeta yb_l")),
            (lambda: INDUCED_JSON, _bump_y(2, 0, 0), ("sigma_1 y_1", "sigma_1 yb_1")),
            (lambda: INDUCED_JSON, _set_theta2, ("zeta y_l", "zeta yb_l")),
        ],
        ids=[
            "principal-swap-sigma1", "principal-swap-sigma2", "principal-flip-zeta", "principal-bump-y3",
            "principal-shift-y3", "principal-theta2", "json-swap-sigma1", "json-flip-zeta-fixed",
            "json-flip-zeta-moved", "json-bump-y2", "json-theta2",
        ],
    )
    def test_perturbed_module(self, module, perturb, want):
        data = copy.deepcopy(module())
        perturb(data)
        M = daha_from_json(data)
        assert (verify_daha(M), sf_presentation(M)[1]) == want

    def test_noncommuting_y_family(self):
        # Type A, l = 2: y_2 = sigma y_1 sigma - theta1 sigma satisfies both
        # sigma-y relations for any y_1, and this y_1 does not commute with it.
        data = {"l": 2, "kind": "A", "theta1": "1", "dim": 2,
                "sigma": [[["0", "1"], ["1", "0"]]],
                "y": [[["1", "2"], ["0", "3"]], [["3", "-1"], ["1", "1"]]]}
        assert verify_daha(daha_from_json(data)) == "y_1 y_2"

    def test_unknown_kind_is_refused(self, tmp_path):
        # A misspelt kind would otherwise pass as type A, skipping every
        # relation of the flip; here zeta is broken ("zeta braid" as BC).
        import json

        data = copy.deepcopy(INDUCED_JSON)
        _flip_zeta(0)(data)
        data["kind"] = "bc"
        path = tmp_path / "kind.json"
        path.write_text(json.dumps({"name": "kind", "pipeline": "daha",
                                    "inputs": {"m": {"type": "daha-json", "data": data}}}))
        with pytest.raises(InputError, match="unknown Hecke algebra kind 'bc'"):
            run_scenario(str(path))

    def test_unperturbed_modules_pass(self):
        for data in (_principal_l3_json(), INDUCED_JSON):
            M = daha_from_json(copy.deepcopy(data))
            assert verify_daha(M) is None
            assert sf_presentation(M)[1] is None

    def test_induced_json_matches_induce_pair(self):
        m1 = DahaModule(DahaParams(1, 1, kind="A"), 1, [], None, [[[F(5)]]])
        m2 = char_module(DahaParams(1, 1, 2), 1, 1)
        assert daha_to_json(induce_pair(m1, m2, DahaParams(2, 1, 2))) == INDUCED_JSON

    def test_two_dimensional_factors_match_frozen_json(self):
        m1 = DahaModule(DahaParams(1, 1, kind="A"), 2, [], None, [[[F(2), F(1)], [F(0), F(-1)]]])
        m2 = principal_series(DahaParams(1, 1, 2), [F(1, 2)])
        ind = induce_pair(m1, m2, DahaParams(2, 1, 2))
        assert verify_daha(ind) is None
        assert daha_to_json(ind) == INDUCED_2X2_JSON

    def test_report_names_the_relation(self, tmp_path):
        import json

        data = copy.deepcopy(INDUCED_JSON)
        _flip_zeta(0)(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "pipeline": "daha",
                                    "inputs": {"m": {"type": "daha-json", "data": data}}}))
        report, code = run_scenario(str(path))
        assert code == 1
        witnesses = {c["id"]: c.get("witness") for c in report["checks"]}
        assert witnesses == {"relations": {"relation": "zeta braid"},
                             "transformed-presentation": {"relation": "zeta yb_l"}}

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 3), ("y", [INDUCED_JSON["y"][0]]), ("sigmaL", INDUCED_JSON["sigmaL"][:3])],
        ids=["dim", "y-count", "zeta-rows"],
    )
    def test_malformed_shapes_are_refused(self, field, value):
        data = copy.deepcopy(INDUCED_JSON)
        data[field] = value
        with pytest.raises(ValueError):
            daha_from_json(data)


_GROUPS = {}


def _group(l):
    if l not in _GROUPS:
        _GROUPS[l] = WGroup(l)
    return _GROUPS[l]


def _signed_perm_rows(w):
    """The l x l matrix of w, e_i -> sign(w(i)) e_|w(i)|, row-sparse."""
    out = [None] * len(w)
    for i, wi in enumerate(w):
        out[abs(wi) - 1] = {i: F(1 if wi > 0 else -1)}
    return out


class TestSignedPermutationProducts:
    """Row-sparse products of the matrices of v and w are the matrix of
    w_compose(v, w), for the natural l x l matrices and for the left
    regular ones that the principal series is built from."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_natural_matrices_compose(self, data):
        G = _group(data.draw(st.integers(1, 4)))
        v, w = data.draw(st.sampled_from(G.elements)), data.draw(st.sampled_from(G.elements))
        assert sparse_mul(_signed_perm_rows(v), _signed_perm_rows(w)) == _signed_perm_rows(w_compose(v, w))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_regular_matrices_compose(self, data):
        G = _group(data.draw(st.integers(1, 4)))
        v, w = data.draw(st.sampled_from(G.elements)), data.draw(st.sampled_from(G.elements))
        assert sparse_mul(group_rows(G, v), group_rows(G, w)) == group_rows(G, w_compose(v, w))

    def test_principal_generators_are_regular_matrices(self):
        M = principal_series(DahaParams(3, 1, 2), [F(3), F(1), F(-2)])
        G = _group(3)
        assert M.sigma == [group_rows(G, w_sigma(k, 3)) for k in (1, 2)]
        assert M.varsigma_l == group_rows(G, w_zeta(3))


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_NONZERO = _RATIONALS.filter(bool)


class TestInductionAlongTheGroup:
    """Three facts that fix a principal series: it satisfies every relation,
    the reflections act by left multiplication on the group, and y_i sends
    the identity to lambda_i times itself.  Along each breadth-first step
    w = g o w0 the relation y_i g = s g y_j + c then gives every column of
    y_i from an earlier one, so these checks leave no other module."""

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_principal_series_is_fixed_by_its_relations(self, data):
        l = data.draw(st.integers(1, 3))
        kind = data.draw(st.sampled_from(["A", "BC"]))
        p = DahaParams(l, data.draw(_NONZERO), data.draw(_NONZERO) if kind == "BC" else None, kind)
        lam = data.draw(st.lists(_RATIONALS, min_size=l, max_size=l))
        M = principal_series(p, lam)
        assert verify_daha(M) is None
        G = WGroup(l, with_flip=(kind == "BC"))
        assert M.sigma == [group_rows(G, w_sigma(k, l)) for k in range(1, l)]
        assert M.varsigma_l == (group_rows(G, w_zeta(l)) if kind == "BC" else None)
        for i in range(l):
            assert [row.get(0, 0) for row in M.y[i]] == [lam[i]] + [0] * (M.dim - 1)



# Rationals whose numerators are prime to 6 over 3, 4 or 6: theta/2 then has
# denominator 6, 8 or 12, so the scale of the module is neither 1 nor 2.
_THIRDS_QUARTERS = st.builds(Fraction, st.sampled_from([-7, -5, -1, 1, 5, 7]), st.sampled_from([3, 4, 6]))


def _hecke_verdicts(M, poly):
    """verify_daha, sf_presentation (kind BC) and center_check of M, next to
    the same checks over Q."""
    got = [verify_daha(M), center_check(M, poly)]
    want = [ref_verify_daha(M), ref_center_check(M, poly)]
    if M.params.kind == "BC":
        got.append(sf_presentation(M))
        want.append(ref_sf_presentation(M))
    return got, want


def _conjugated_json(M, P, Pinv):
    """daha_to_json of P g P^-1 for every generator g of M, dense."""
    data = daha_to_json(M)
    conj = lambda m: [[str(x) for x in row] for row in mat_mul(P, mat_mul(_dense(m, M.dim), Pinv))]
    data["sigma"] = [conj(m) for m in M.sigma]
    data["y"] = [conj(m) for m in M.y]
    if M.varsigma_l is not None:
        data["sigmaL"] = conj(M.varsigma_l)
    return data


class TestIntegerChecksMatchTheFractionOracle:
    """verify_daha, sf_presentation and center_check run on integer rows
    over one scale per module; over Q they give the same verdicts, the same
    transformed family and the same central verdicts."""

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_principal_series(self, data):
        l = data.draw(st.integers(1, 3))
        kind = data.draw(st.sampled_from(["A", "BC"]))
        th2 = data.draw(_THIRDS_QUARTERS) if kind == "BC" else None
        p = DahaParams(l, data.draw(_THIRDS_QUARTERS), th2, kind)
        lam = data.draw(st.lists(_THIRDS_QUARTERS, min_size=l, max_size=l))
        M = principal_series(p, lam)
        if data.draw(st.booleans(), label="perturb"):
            # One y entry moved by a third: some relation breaks.
            ys = M.y
            i = data.draw(st.integers(0, l - 1))
            r, c = data.draw(st.integers(0, M.dim - 1)), data.draw(st.integers(0, M.dim - 1))
            ys[i][r][c] = ys[i][r].get(c, 0) + Fraction(1, 3)
            M = DahaModule(p, M.dim, M.sigma, M.varsigma_l, ys)
        assert M.scale not in (1, 2)
        poly = {}
        for _ in range(data.draw(st.integers(1, 3))):
            mono = tuple(data.draw(st.lists(st.integers(0, 2), min_size=l, max_size=l)))
            poly[mono] = data.draw(_THIRDS_QUARTERS)
        got, want = _hecke_verdicts(M, poly)
        assert got == want

    def test_daha_json_with_a_non_integer_involution(self):
        # The principal series conjugated by P = 1 + E_12 / 3 - 3 E_23 / 4:
        # sigma_1 and zeta have entries with denominators 3 and 4.
        M0 = principal_series(DahaParams(2, F(1, 3), F(5, 4)), [F(1, 6), F(-7, 4)])
        n = M0.dim
        one = [[F(int(r == c)) for c in range(n)] for r in range(n)]
        P, Pinv = [row[:] for row in one], [row[:] for row in one]
        P[0][1], P[1][2] = F(1, 3), F(-3, 4)
        Pinv[0][1], Pinv[1][2], Pinv[0][2] = F(-1, 3), F(3, 4), F(-1, 4)
        assert mat_mul(P, Pinv) == one
        data = _conjugated_json(M0, P, Pinv)
        assert any(Fraction(x).denominator > 1 for row in data["sigma"][0] for x in row)
        M = daha_from_json(data)
        assert M.scale not in (1, 2)
        poly = {(2, 0): F(1, 3), (0, 2): F(1, 3), (1, 0): F(0)}
        got, want = _hecke_verdicts(M, poly)
        assert got == want
        assert got[0] is None and got[1] is None and got[2][1] is None
        # One entry of y_2 moved: the first broken relation agrees too.
        data["y"][1][0][0] = str(Fraction(data["y"][1][0][0]) + F(1, 4))
        got, want = _hecke_verdicts(daha_from_json(data), poly)
        assert got == want and got[0] is not None


def _same_module(M, R):
    """M and R hold the same integer rows over the same scale."""
    assert (M.scale, M.int_sigma, M.int_zeta, M.int_y) == (R.scale, R.int_sigma, R.int_zeta, R.int_y)
    assert daha_to_json(M) == daha_to_json(R)


class TestIntegerInductionMatchesTheFractionOracle:
    """principal_series and induce_pair fill the y family in on integer
    rows over one scale; the recursion over Q (support.ref_induced_y) gives
    the same module, down to the scale and its integer rows."""

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_principal_series(self, data):
        l = data.draw(st.integers(1, 3))
        kind = data.draw(st.sampled_from(["A", "BC"]))
        p = DahaParams(l, data.draw(_THIRDS_QUARTERS), data.draw(_THIRDS_QUARTERS) if kind == "BC" else None, kind)
        lam = data.draw(st.lists(st.one_of(_THIRDS_QUARTERS, _RATIONALS), min_size=l, max_size=l))
        M = principal_series(p, lam)
        G = WGroup(l, with_flip=(kind == "BC"))
        gens = {g: group_rows(G, w_gen(g, l)) for g in G.gens}
        ys = ref_induced_y(p, G.elements, G.step, gens, [[{0: x} if x else {}] for x in lam])
        R = DahaModule(p, M.dim, [gens[("s", k)] for k in range(1, l)], gens.get(("z",)), ys)
        _same_module(M, R)

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_induce_pair(self, conjugate):
        m1 = DahaModule(DahaParams(1, F(1, 3), kind="A"), 2, [], None, [[[F(2), F(1, 5)], [F(0), F(-1)]]])
        m2 = principal_series(DahaParams(1, F(1, 3), F(5, 4)), [F(1, 6)])
        if conjugate:
            # zeta of m2 with denominator 3: the coset generators are not
            # integral, and the recursion divides by the scale of m2.
            P, Pinv = [[F(1), F(1, 3)], [F(0), F(1)]], [[F(1), F(-1, 3)], [F(0), F(1)]]
            m2 = daha_from_json(_conjugated_json(m2, P, Pinv))
            assert any(x.denominator == 3 for row in m2.varsigma_l for x in row.values())
        p = DahaParams(2, F(1, 3), F(5, 4))
        ind = induce_pair(m1, m2, p)
        assert verify_daha(ind) is None
        G = WGroup(2)
        reps = [w for w in G.elements if w_apply(w, 2) > 0]
        d2 = m2.dim
        y1 = [{a * d2 + b: x for a, x in m1.y[0][r].items()} for r in range(m1.dim) for b in range(d2)]
        y2 = [{r * d2 + q: x for q, x in m2.y[0][b].items()} for r in range(m1.dim) for b in range(d2)]
        gens = {("s", 1): ind.sigma[0], ("z",): ind.varsigma_l}
        ys = ref_induced_y(p, reps, G.step, gens, [y1, y2])
        _same_module(ind, DahaModule(p, ind.dim, ind.sigma, ind.varsigma_l, ys))
